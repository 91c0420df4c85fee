#!/bin/sh
# Prints the library line count of every crate under crates/ and their
# total. Each crates/<name>/src/**/*.rs file counts up to (not including)
# its first `#[cfg(test)]` line; `tests.rs` files are test-only and are
# skipped. Needs only find and awk.
#
# Usage: scripts/lib-lines.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
    n=$(find "${dir}src" -name '*.rs' ! -name tests.rs -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s + 0 }')
    printf '%-8s %6d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
