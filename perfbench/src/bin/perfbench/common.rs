//! What every workload hands back, and the helpers they share.

use nmpic_bench::timing::Stopwatch;
use nmpic_sim::SimRng;
use nmpic_sparse::Csr;

/// Worker threads the benchmark gives the library for pool jobs and,
/// in `paper_sweep` and `cg_analytic`, shard workers. Fixed here, never
/// read from the environment, so every machine measures the same
/// configuration; it equals the core count of the container the bounds
/// in `BENCHMARK.json` were set on. `service_mixed` fixes its own drain
/// and shard workers at 1, for the reason given there.
pub const WORKERS: usize = 2;

/// Exact simulated counters of one (matrix, system) operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRow {
    pub matrix: String,
    pub system: String,
    pub cycles: u64,
    pub offchip_bytes: u64,
    /// Further exact counters, by name.
    pub extra: Vec<(&'static str, u64)>,
}

/// One group of operations: a pass over a fixed operation set, or a
/// whole window of an open loop.
#[derive(Debug, Default, Clone)]
pub struct Group {
    /// Nonzero products (or gathered elements) completed.
    pub work_nnz: u64,
    /// Host seconds the work took: wall seconds for a pass, process
    /// CPU seconds for an open loop (see `service_mixed`).
    pub busy_s: f64,
    /// Per-operation latency in ms; `f64::INFINITY` for a failed one.
    pub op_ms: Vec<f64>,
}

/// Result of one measured phase of a workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub groups: Vec<Group>,
    /// Exact simulated counters of one fixed set of operations.
    pub sim: Vec<SimRow>,
    /// Per-layer metrics (traced phase only): name and value.
    pub layers: Vec<(String, f64)>,
    /// Extra facts to record with the result.
    pub meta: Vec<(&'static str, String)>,
}

impl Measured {
    /// Work per host second of the fastest group. Only the host can
    /// make a group slower than the program makes it (CPU steal and
    /// neighbours come in spells of 10-20 s on the shared host), so the
    /// fastest group is the steadiest estimate of the program's own speed.
    /// An open loop is one group, timed in CPU seconds.
    pub fn nnz_per_s(&self) -> f64 {
        self.groups
            .iter()
            .filter(|g| g.busy_s > 0.0)
            .map(|g| g.work_nnz as f64 / g.busy_s)
            .fold(0.0, f64::max)
    }

    /// Records one operation of the current group.
    pub fn op(&mut self, work_nnz: u64, secs: f64) {
        if self.groups.is_empty() {
            self.next_group();
        }
        if let Some(g) = self.groups.last_mut() {
            g.work_nnz += work_nnz;
            g.busy_s += secs;
            g.op_ms.push(secs * 1e3);
        }
    }

    /// Starts the next group.
    pub fn next_group(&mut self) {
        self.groups.push(Group::default());
    }

    /// The `q`-quantile of operation latency over every operation of
    /// the run, with a failed one's `f64::INFINITY` kept.
    pub fn op_quantile(&self, q: f64) -> f64 {
        let all: Vec<f64> = self
            .groups
            .iter()
            .flat_map(|g| g.op_ms.iter().copied())
            .collect();
        percentile(&all, q)
    }

    pub fn op_count(&self) -> usize {
        self.groups.iter().map(|g| g.op_ms.len()).sum()
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    /// Counts one attempted operation, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH: {}", what());
        }
    }
}

/// A deterministic vector of `n` values in `[0.5, 1.5)` for stream `tag`
/// of workload seed `seed`.
pub fn seeded_vector(seed: u64, tag: u64, n: usize) -> Vec<f64> {
    let mut rng = SimRng::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| 0.5 + rng.gen_f64()).collect()
}

/// Seed for the `k`-th generated matrix of a workload.
pub fn matrix_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// `true` when both slices hold the same bit patterns.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a with 64-bit words as the symbols: each step is a bijection
/// of the state, so a change in any one word always changes the result.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a vector's bit patterns.
pub fn digest(v: &[f64]) -> u64 {
    fnv(v.iter().map(|x| x.to_bits()))
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Median of samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// CPU seconds (user plus system) that this process's threads, live
/// and ended, have used: fields 14 and 15 of `/proc/self/stat`, in the
/// kernel's fixed 100 Hz user tick. The kernel scales these to the
/// scheduler's exact run time, so a difference over seconds is exact to
/// the tick. `None` where `/proc` is missing.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name, field 2, may hold spaces; fields 3 on follow
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Times `f` on a fresh stopwatch, returning its value and seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let w = Stopwatch::start();
    let v = f();
    (v, w.elapsed().as_secs_f64())
}

/// Host time per nonzero of `Csr::spmv` and `Csr::spmv_fast` on `csr`,
/// over `reps` calls each, checking both against each other.
pub fn kernel_probe(csr: &Csr, x: &[f64], reps: usize) -> (f64, f64, bool) {
    let mut ok = true;
    let (golden, t_golden) = timed(|| {
        let mut y = Vec::new();
        for _ in 0..reps {
            y = std::hint::black_box(csr.spmv(std::hint::black_box(x)));
        }
        y
    });
    let (fast, t_fast) = timed(|| {
        let mut y = Vec::new();
        for _ in 0..reps {
            y = std::hint::black_box(csr.spmv_fast(std::hint::black_box(x)));
        }
        y
    });
    ok &= bits_equal(&golden, &fast);
    let work = (csr.nnz() * reps).max(1) as f64;
    (t_golden * 1e9 / work, t_fast * 1e9 / work, ok)
}
