//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, every result checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|cg_analytic|service_mixed> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` measures once
//! untraced and once with spans around the benchmark's calls into each
//! layer, prints the per-layer metrics, and writes the spans to
//! `.perfbench-trace/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Any result that
//! differs from its reference makes `correct` false and the exit code 1.
//! See README.md for what each workload loads and which metric each
//! layer metric should move.

mod cg_analytic;
mod common;
mod paper_sweep;
mod service_mixed;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use common::{fnv, median, timed, Measured, WORKERS};
use trace::Tracer;

/// End-to-end metrics, as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("nnz_per_s", "nnz/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
    ("sim_cycles", "cycles"),
    ("sim_offchip_bytes", "B"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`. A workload that does
/// not load a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("core.stream_ns_per_elem.MLPnc", "ns"),
    ("core.stream_ns_per_elem.MLP256", "ns"),
    ("core.sim_cycles_per_wall_s.MLPnc", "cycles/s"),
    ("core.sim_cycles_per_wall_s.MLP256", "cycles/s"),
    ("core.coalesce_rate.MLPnc", "frac"),
    ("core.coalesce_rate.MLP256", "frac"),
    ("core.indir_gbps.MLPnc", "GB/s"),
    ("core.indir_gbps.MLP256", "GB/s"),
    ("mem.row_hit_rate.MLPnc", "frac"),
    ("mem.row_hit_rate.MLP256", "frac"),
    ("mem.row_hit_rate.sharded4", "frac"),
    ("mem.bus_utilization.MLPnc", "frac"),
    ("mem.bus_utilization.MLP256", "frac"),
    ("mem.bus_utilization.sharded4", "frac"),
    ("system.run_ns_per_nnz.base", "ns"),
    ("system.run_ns_per_nnz.pack256", "ns"),
    ("system.run_ns_per_nnz.sharded4", "ns"),
    ("system.sim_cycles_per_wall_s.base", "cycles/s"),
    ("system.sim_cycles_per_wall_s.pack256", "cycles/s"),
    ("system.sim_cycles_per_wall_s.sharded4", "cycles/s"),
    ("system.sim_cycles.base", "cycles"),
    ("system.sim_cycles.pack256", "cycles"),
    ("system.sim_cycles.sharded4", "cycles"),
    ("system.traffic_ratio.base", "ratio"),
    ("system.traffic_ratio.pack256", "ratio"),
    ("system.traffic_ratio.sharded4", "ratio"),
    ("system.shard.cycle_imbalance", "ratio"),
    ("system.prepare_ms.base", "ms"),
    ("system.prepare_ms.pack256", "ms"),
    ("system.prepare_ms.sharded4", "ms"),
    ("system.warm_batch_ns_per_nnz.pack256", "ns"),
    ("system.run_into_ns_per_nnz", "ns"),
    ("system.run_batch_ns_per_nnz", "ns"),
    ("solve.iter_ms", "ms"),
    ("solve.iterations", "count"),
    ("sparse.spmv_ns_per_nnz", "ns"),
    ("sparse.spmv_fast_ns_per_nnz", "ns"),
    ("model.analytic_est_ns_per_nnz", "ns"),
    ("sparse.gen_s", "s"),
    ("sparse.sell_convert_s", "s"),
    ("service.submit_us", "us"),
    ("service.prepare_hit_us", "us"),
    ("service.redeem_us", "us"),
    ("service.publish_p50_us", "us"),
    ("service.publish_p99_us", "us"),
    ("service.batch_size_mean", "count"),
    ("service.plan_cache_hits", "count"),
    ("service.plans_prepared", "count"),
    ("service.rejected", "count"),
    ("service.evicted", "count"),
    ("service.failed", "count"),
    ("service.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.op_p50_ms", "ms"),
    ("bench.op_p90_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
];

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, then more until
/// `SETUP_BUDGET_S` of set-up time is spent or `SETUP_MAX_REPEATS` are
/// done. `setup_s` is their median, so a cheap set-up is sampled often
/// enough that one slow spell of the host does not move it.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 41;
const SETUP_BUDGET_S: f64 = 2.0;

/// Library knobs read from the environment. The benchmark fixes or
/// clears each one before any library call, so an exported variable
/// cannot change what is measured.
const CLEARED_ENV: [&str; 5] = [
    "NMPIC_QUICK",
    "NMPIC_SYSTEM",
    "NMPIC_EXEC",
    "NMPIC_MAX_NNZ",
    "NMPIC_PARTITION",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// JSON number text; the few non-finite values (a failed request's
/// latency) print as the largest finite double.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs one workload: set-up several times (see `SETUP_MIN_REPEATS`),
/// then the measured phase (twice, untraced then traced, with
/// `--trace 1`).
fn run<S>(
    args: &Args,
    setup: fn(u64) -> S,
    measure: fn(&mut S, f64, &mut Tracer) -> Measured,
) -> (Measured, f64, usize, Option<(Measured, Tracer)>) {
    let (mut state, first) = timed(|| setup(args.seed));
    let mut setups = vec![first];
    while setups.len() < SETUP_MAX_REPEATS
        && (setups.len() < SETUP_MIN_REPEATS || setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state);
        let (s, secs) = timed(|| setup(args.seed));
        setups.push(secs);
        state = s;
    }
    let seconds = args.seconds as f64;
    let plain = measure(&mut state, seconds, &mut Tracer::new(false));
    let traced = args.trace.then(|| {
        let mut tr = Tracer::new(true);
        let m = measure(&mut state, seconds, &mut tr);
        (m, tr)
    });
    (plain, median(&setups), setups.len(), traced)
}

fn main() -> ExitCode {
    std::env::set_var("NMPIC_JOBS", WORKERS.to_string());
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_sweep|cg_analytic|service_mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (plain, setup_s, setup_repeats, traced) = match args.workload.as_str() {
        "paper_sweep" => run(&args, paper_sweep::setup, paper_sweep::measure),
        "cg_analytic" => run(&args, cg_analytic::setup, cg_analytic::measure),
        "service_mixed" => run(&args, service_mixed::setup, service_mixed::measure),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let attempted = plain.attempted + traced.as_ref().map_or(0, |(m, _)| m.attempted);
    let failed = plain.failed + traced.as_ref().map_or(0, |(m, _)| m.failed);

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // Exact simulated counters, then one digest of all of them: a
    // host-speed change must leave every line, and the digest, as is.
    let mut sim_text = String::new();
    for r in &plain.sim {
        let _ = write!(
            sim_text,
            "# sim {} {} cycles={} offchip_bytes={}",
            r.matrix, r.system, r.cycles, r.offchip_bytes
        );
        for (k, v) in &r.extra {
            let _ = write!(sim_text, " {k}={v}");
        }
        sim_text.push('\n');
    }
    let sim_digest = fnv(sim_text.bytes().map(u64::from));
    print!("{sim_text}");
    println!("# sim_digest {sim_digest:016x}");

    let success_rate = if attempted == 0 {
        0.0
    } else {
        (attempted - failed) as f64 / attempted as f64
    };
    // In the order of `END_TO_END`.
    let e2e_values = [
        plain.nnz_per_s(),
        setup_s,
        peak_rss_mb(),
        success_rate,
        plain.sim.iter().map(|r| r.cycles).sum::<u64>() as f64,
        plain.sim.iter().map(|r| r.offchip_bytes).sum::<u64>() as f64,
    ];
    let e2e: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(e2e_values)
        .map(|((name, unit), v)| (*name, v, *unit))
        .collect();
    for (name, v, unit) in &e2e {
        println!("# metric {name} {} {unit}", num(*v));
    }
    // Operation latency is printed but carries no bound: on the shared
    // host its spread over seeds exceeds any allowed bound (README.md).
    let latency = [
        ("op_p50_ms", plain.op_quantile(0.5)),
        ("op_p90_ms", plain.op_quantile(0.9)),
        ("op_p99_ms", plain.op_quantile(0.99)),
    ];
    for (name, v) in latency {
        println!("# metric {name} {} ms", num(v));
    }
    println!("# metric error_rate {} frac", num(1.0 - success_rate));
    println!("# metric op_samples {} count", plain.op_count());

    let mut meta: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", {
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string()
        }),
        ("workers", WORKERS.to_string()),
        ("git_rev", git_rev()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("sim_digest", format!("{sim_digest:016x}")),
        ("setup_repeats", setup_repeats.to_string()),
    ];
    meta.extend(plain.meta.iter().cloned());

    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => e2e,
        Some((m, tr)) => {
            let overhead = if plain.nnz_per_s() > 0.0 {
                1.0 - m.nnz_per_s() / plain.nnz_per_s()
            } else {
                0.0
            };
            meta.push(("trace_overhead_frac", overhead.to_string()));
            let file = format!("{}-seed{}.jsonl", args.workload, args.seed);
            match tr.write(Path::new(".perfbench-trace"), &file) {
                Ok(()) => meta.push(("trace_file", format!(".perfbench-trace/{file}"))),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
            let mut layers = m.layers.clone();
            layers.push(("bench.trace_overhead_frac".to_string(), overhead));
            layers.extend(latency.map(|(name, v)| (format!("bench.{name}"), v)));
            for (name, _) in &layers {
                if !PER_LAYER.iter().any(|(n, _)| n == name) {
                    eprintln!("perfbench: layer metric {name} is not declared");
                }
            }
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let v = layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v);
                    (*name, v, *unit)
                })
                .collect()
        }
    };
    if traced.is_some() {
        for (name, v, unit) in &metrics {
            println!("# layer {name} {} {unit}", num(*v));
        }
    }
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("# meta {{{}}}", meta_json.join(","));

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
