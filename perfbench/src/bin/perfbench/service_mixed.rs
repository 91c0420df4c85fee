//! `service_mixed`: an open-loop `SpmvService` in analytic mode.
//!
//! Sixteen resident tenants of mixed size and structure (SPD banded and
//! circuit graphs, 3k to 40k nonzeros) behind a service with one
//! background drain worker. One generator thread — this one — sends
//! seeded Poisson arrivals at a fixed `RATE`: tenant 0 is a hub that takes
//! half the requests, the rest pick tenants by a Zipf law. About 90% are
//! `submit`, 10% `submit_solve` CG with a few iterations on the SPD
//! tenants. Periodic `prepare` calls hit resident tenants; four new
//! tenants arrive during the run and miss the plan cache. The same
//! thread redeems every result with `take` as soon as it is published,
//! so retention eviction never fires. Each request is timed from its due
//! time to its redemption.
//!
//! The open loop fixes how much work arrives and when, so wall time over
//! the window would only restate the offered rate. Throughput is
//! therefore the work completed per process CPU second over the window:
//! a service that does more work per request (lanes, drain, batching,
//! plans) uses more CPU for the same requests, whatever the load.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use nmpic_bench::timing::{Stopwatch, WallClock};
use nmpic_mem::BackendConfig;
use nmpic_sim::SimRng;
use nmpic_sparse::{gen, Csr, Sell};
use nmpic_system::{
    Completed, CompletedSolve, ExecMode, MatrixKey, PartitionStrategy, ServiceStats, SolveOptions,
    SolveRequest, Solver, SpmvEngine, SpmvService, SystemKind, Ticket,
};

use crate::common::{
    bits_equal, digest, fnv, kernel_probe, matrix_seed, percentile, process_cpu_s, seeded_vector,
    timed, Group, Measured, SimRow, WORKERS,
};
use crate::trace::Tracer;

/// Offered load in requests per second. Overdriven at 2,500 req/s, this
/// mix completed about 1,900 req/s on the two-core container the
/// bounds were set on, in large batches. At 800 req/s (0.4 of that)
/// the host's slow spells backed the drain up, and p50 over ten seeds
/// ranged from 2.2 to 12.8 ms; 400 req/s (0.2) keeps the queue short.
pub const RATE: f64 = 400.0;
/// The p90 latency (due time to redemption) the service should meet
/// at `RATE`.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Background drain workers: one core for the drain, one for the
/// generator. With two drain workers on two cores the generator waits
/// for a core and its redemption times swing by a quarter between runs
/// of the same seed.
const DRAIN_WORKERS: usize = 1;
/// Shard workers of each plan, for the same reason: with more than one,
/// every batch spawns that many scoped threads to cost the shards, and
/// they take the generator's core.
const SHARD_WORKERS: usize = 1;
/// Nonzeros of each resident tenant; tenant 0 is the hub.
const TENANT_NNZ: [usize; 16] = [
    40_000, 36_000, 32_000, 28_000, 24_000, 20_000, 18_000, 16_000, 14_000, 12_000, 10_000, 8_000,
    6_000, 5_000, 4_000, 3_000,
];
/// Nonzeros of each tenant that arrives during the run (a cache miss).
const LATE_NNZ: [usize; 4] = [30_000, 24_000, 36_000, 20_000];
const HUB_SHARE: f64 = 0.5;
const ZIPF_S: f64 = 1.0;
const SOLVE_SHARE: f64 = 0.1;
const CG_ITERS: usize = 4;
/// Cache-hit `prepare` calls per second.
const PREPARE_HITS_HZ: f64 = 20.0;
/// Per-lane admission quota: far above the queue depth at `RATE`, so a
/// refusal shows a fault, not the load.
const LANE_QUOTA: usize = 1_024;
/// How long after the last arrival outstanding requests may take before
/// they are redeemed with a blocking `wait` (a hung or failed request).
const DRAIN_GRACE_S: f64 = 30.0;
/// Tag offset separating request vectors from other seeded vectors.
const REQUEST_TAG: u64 = 1 << 32;

pub struct State {
    seed: u64,
    tenants: Vec<Csr>,
    late: Vec<Csr>,
    pub gen_s: f64,
}

fn tenant(seed: u64, k: usize, nnz: usize) -> Csr {
    let s = matrix_seed(seed, k as u64);
    if k.is_multiple_of(2) {
        gen::spd(nnz / 9, 9, 256, s)
    } else {
        gen::circuit(nnz / 5, 4, 32, 0.10, 4, s)
    }
}

fn engine() -> SpmvEngine {
    SpmvEngine::builder()
        .backend(BackendConfig::interleaved(4))
        .system(SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        })
        .exec_mode(ExecMode::Analytic)
        .shard_workers(SHARD_WORKERS)
        .build()
}

fn cg_opts() -> SolveOptions {
    SolveOptions {
        max_iters: CG_ITERS,
        tol: 0.0,
        damping: 1.0,
    }
}

/// A service with every resident tenant prepared and warmed by one
/// request each.
fn service(st: &State) -> (SpmvService, Vec<MatrixKey>) {
    let svc = SpmvService::builder(engine())
        .lane_quota(LANE_QUOTA)
        .drain_workers(DRAIN_WORKERS)
        .clock(Arc::new(WallClock::new()))
        .build();
    let keys: Vec<MatrixKey> = st.tenants.iter().map(|c| svc.prepare(c)).collect();
    for (key, csr) in keys.iter().zip(&st.tenants) {
        // A failure here shows again, counted, in the measured window.
        let _ = svc.run(*key, vec![1.0; csr.cols()]);
    }
    svc.reset_latency();
    (svc, keys)
}

pub fn setup(seed: u64) -> State {
    let ((tenants, late), gen_s) = timed(|| {
        let tenants: Vec<Csr> = TENANT_NNZ
            .iter()
            .enumerate()
            .map(|(k, &nnz)| tenant(seed, k, nnz))
            .collect();
        let late: Vec<Csr> = LATE_NNZ
            .iter()
            .enumerate()
            .map(|(k, &nnz)| tenant(seed, TENANT_NNZ.len() + k, nnz))
            .collect();
        (tenants, late)
    });
    let st = State {
        seed,
        tenants,
        late,
        gen_s,
    };
    drop(service(&st));
    st
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Spmv { tenant: usize },
    Solve { tenant: usize },
    PrepareHit { tenant: usize },
    PrepareMiss { late: usize },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    due_ns: u64,
    /// Request number: names the seeded vector of the request.
    idx: u64,
    kind: Kind,
}

/// The seeded open-loop schedule for `seconds`.
fn schedule(seed: u64, seconds: f64) -> Vec<Event> {
    let mut rng = SimRng::new(seed ^ 0x0005_EED0_FA11);
    let horizon = seconds * 1e9;
    // Zipf over the non-hub tenants, as a cumulative table.
    let weights: Vec<f64> = (1..TENANT_NNZ.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let pick = |rng: &mut SimRng| -> usize {
        if rng.gen_f64() < HUB_SHARE {
            return 0;
        }
        let u = rng.gen_f64();
        1 + cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
    };
    let mut events = Vec::new();
    let mut t = 0.0;
    let mut idx = 0u64;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / RATE * 1e9;
        if t >= horizon {
            break;
        }
        let tenant = pick(&mut rng);
        let kind = if rng.gen_f64() < SOLVE_SHARE {
            // CG needs an SPD tenant: the even-numbered ones.
            Kind::Solve {
                tenant: tenant & !1,
            }
        } else {
            Kind::Spmv { tenant }
        };
        events.push(Event {
            due_ns: t as u64,
            idx,
            kind,
        });
        idx += 1;
    }
    let hits = (seconds * PREPARE_HITS_HZ) as u64;
    for h in 0..hits {
        events.push(Event {
            due_ns: ((h as f64 + 0.5) / PREPARE_HITS_HZ * 1e9) as u64,
            idx: 0,
            kind: Kind::PrepareHit {
                tenant: h as usize % TENANT_NNZ.len(),
            },
        });
    }
    for late in 0..LATE_NNZ.len() {
        let at = (late as f64 + 0.5) / LATE_NNZ.len() as f64 * horizon;
        events.push(Event {
            due_ns: at as u64,
            idx: 0,
            kind: Kind::PrepareMiss { late },
        });
    }
    events.sort_by_key(|e| e.due_ns);
    events
}

struct Pending {
    ticket: Ticket,
    ev: Event,
}

enum Taken {
    Spmv(Completed),
    Solve(CompletedSolve),
}

/// What a redeemed request returned, kept for the replay check.
#[derive(Debug, Clone, Copy)]
enum Redeemed {
    Spmv {
        y: u64,
    },
    Solve {
        iterations: usize,
        residuals: u64,
        x: u64,
    },
}

fn ns(w: &Stopwatch) -> u64 {
    u64::try_from(w.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn stats_delta(a: ServiceStats, b: ServiceStats) -> ServiceStats {
    ServiceStats {
        plans_prepared: b.plans_prepared - a.plans_prepared,
        plan_cache_hits: b.plan_cache_hits - a.plan_cache_hits,
        submitted: b.submitted - a.submitted,
        rejected: b.rejected - a.rejected,
        completed: b.completed - a.completed,
        batches: b.batches - a.batches,
        evicted: b.evicted - a.evicted,
        solves_completed: b.solves_completed - a.solves_completed,
        failed: b.failed - a.failed,
        taken: b.taken - a.taken,
    }
}

pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer) -> Measured {
    let events = schedule(st.seed, seconds);
    let (svc, keys) = service(st);
    let before = svc.stats();
    let mut m = Measured::default();
    // The whole window is one group: its work over the CPU it took.
    let mut window = Group::default();
    let horizon_ns = (seconds * 1e9) as u64;
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut redeemed: Vec<(Event, Redeemed)> = Vec::new();
    let mut lag_ms = Vec::new();
    let mut next = 0;
    let grace_ns = horizon_ns + (DRAIN_GRACE_S * 1e9) as u64;
    let cpu_start = process_cpu_s();
    let clock = Stopwatch::start();
    loop {
        let mut progressed = false;
        while next < events.len() && events[next].due_ns <= ns(&clock) {
            let ev = events[next];
            next += 1;
            progressed = true;
            lag_ms.push(ns(&clock).saturating_sub(ev.due_ns) as f64 * 1e-6);
            match ev.kind {
                Kind::Spmv { tenant } | Kind::Solve { tenant } => {
                    let cols = st.tenants[tenant].cols();
                    let v = seeded_vector(st.seed, REQUEST_TAG + ev.idx, cols);
                    let span = tr.open("service.submit", ev.idx);
                    let r = match ev.kind {
                        Kind::Solve { .. } => {
                            svc.submit_solve(keys[tenant], SolveRequest::Cg { b: v }, cg_opts())
                        }
                        _ => svc.submit(keys[tenant], v),
                    };
                    tr.close(span, 1);
                    match r {
                        Ok(ticket) => outstanding.push(Pending { ticket, ev }),
                        Err(e) => {
                            m.check(false, || format!("request {}: refused: {e}", ev.idx));
                            window.op_ms.push(f64::INFINITY);
                        }
                    }
                }
                Kind::PrepareHit { tenant } => {
                    let span = tr.open("service.prepare_hit", 0);
                    let key = svc.prepare(&st.tenants[tenant]);
                    tr.close(span, 1);
                    m.check(key == keys[tenant], || {
                        format!("prepare of resident tenant {tenant} changed its key")
                    });
                }
                Kind::PrepareMiss { late } => {
                    let span = tr.open("service.prepare_miss", 0);
                    let key = svc.prepare(&st.late[late]);
                    tr.close(span, 1);
                    m.check(svc.contains(key), || {
                        format!("late tenant {late} is not resident after prepare")
                    });
                }
            }
        }
        let mut i = 0;
        while i < outstanding.len() {
            let p = &outstanding[i];
            let t0 = tr.enabled().then(|| tr.clock_ns());
            let taken = match p.ev.kind {
                Kind::Solve { .. } => svc.take_solve(p.ticket).map(Taken::Solve),
                _ => svc.take(p.ticket).map(Taken::Spmv),
            };
            let Some(taken) = taken else {
                i += 1;
                continue;
            };
            let now = ns(&clock);
            if let Some(t0) = t0 {
                tr.record("service.redeem", p.ev.idx, t0, tr.clock_ns(), 1);
            }
            m.attempted += 1;
            window
                .op_ms
                .push(now.saturating_sub(p.ev.due_ns) as f64 * 1e-6);
            let got = match taken {
                Taken::Spmv(c) => Redeemed::Spmv { y: digest(&c.y) },
                Taken::Solve(c) => Redeemed::Solve {
                    iterations: c.report.iterations,
                    residuals: digest(&c.report.residuals),
                    x: digest(&c.report.x),
                },
            };
            redeemed.push((p.ev, got));
            outstanding.swap_remove(i);
            progressed = true;
        }
        if next == events.len() && outstanding.is_empty() {
            break;
        }
        if next == events.len() && ns(&clock) > grace_ns {
            // Hung or failed requests: a blocking wait reports why.
            for p in outstanding.drain(..) {
                let err = match p.ev.kind {
                    Kind::Solve { .. } => svc.wait_solve(p.ticket).err(),
                    _ => svc.wait(p.ticket).err(),
                };
                m.check(false, || {
                    format!("request {} never redeemed: {err:?}", p.ev.idx)
                });
                window.op_ms.push(f64::INFINITY);
            }
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let window_s = clock.elapsed().as_secs_f64();
    let cpu_s = match (cpu_start, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    m.check(cpu_s > 0.0, || {
        "no process CPU time read from /proc/self/stat".to_string()
    });
    let stats = stats_delta(before, svc.stats());
    let latency = svc.latency();
    m.check(
        stats.failed == 0 && stats.evicted == 0 && stats.rejected == 0,
        || format!("service counted failures: {stats:?}"),
    );
    drop(svc);

    window.busy_s = cpu_s;
    for (ev, got) in &redeemed {
        let tenant = match ev.kind {
            Kind::Spmv { tenant } | Kind::Solve { tenant } => tenant,
            _ => continue,
        };
        let nnz = st.tenants[tenant].nnz() as u64;
        window.work_nnz += match got {
            Redeemed::Spmv { .. } => nnz,
            Redeemed::Solve { iterations, .. } => nnz * *iterations as u64,
        };
    }
    let requests = events
        .iter()
        .filter(|e| matches!(e.kind, Kind::Spmv { .. } | Kind::Solve { .. }))
        .count();
    m.meta.push(("offered_rate_rps", RATE.to_string()));
    m.meta.push(("drain_workers", DRAIN_WORKERS.to_string()));
    m.meta
        .push(("latency_limit_p90_ms", LATENCY_LIMIT_MS.to_string()));
    m.meta.push(("requests", requests.to_string()));
    m.meta.push(("window_s", window_s.to_string()));
    m.meta.push(("window_cpu_s", cpu_s.to_string()));
    m.meta.push((
        "window_wall_nnz_per_s",
        (window.work_nnz as f64 / window_s).to_string(),
    ));
    m.groups.push(window);
    let p90 = m.op_quantile(0.9);
    m.meta
        .push(("p90_within_limit", (p90 <= LATENCY_LIMIT_MS).to_string()));

    replay(st, &redeemed, &mut m);

    if tr.enabled() {
        let us = |name: &str| tr.ns_per_work(name) * 1e-3;
        m.layer("service.submit_us", us("service.submit"));
        m.layer("service.prepare_hit_us", us("service.prepare_hit"));
        m.layer("service.redeem_us", us("service.redeem"));
        m.layer(
            "system.prepare_ms.sharded4",
            tr.ns_per_work("service.prepare_miss") * 1e-6,
        );
        m.layer("service.publish_p50_us", latency.p50_ns as f64 * 1e-3);
        m.layer("service.publish_p99_us", latency.p99_ns as f64 * 1e-3);
        m.layer(
            "service.batch_size_mean",
            (stats.completed + stats.solves_completed) as f64 / stats.batches.max(1) as f64,
        );
        m.layer("service.plan_cache_hits", stats.plan_cache_hits as f64);
        m.layer("service.plans_prepared", stats.plans_prepared as f64);
        m.layer("service.rejected", stats.rejected as f64);
        m.layer("service.evicted", stats.evicted as f64);
        m.layer("service.failed", stats.failed as f64);
        m.layer("service.gen_lag_p99_ms", percentile(&lag_ms, 0.99));
        let iterations: usize = redeemed
            .iter()
            .map(|(_, r)| match r {
                Redeemed::Solve { iterations, .. } => *iterations,
                Redeemed::Spmv { .. } => 0,
            })
            .sum();
        m.layer("solve.iterations", iterations as f64);
        probe_kernels(st, &mut m);
    }
    m
}

/// Replays every redeemed request serially on a fresh plan of its
/// tenant: SpMV bytes must equal the service's and golden `Csr::spmv`;
/// CG must repeat the iteration count and residual trajectory. The
/// replays' simulated cost is the workload's exact simulated count.
fn replay(st: &State, redeemed: &[(Event, Redeemed)], m: &mut Measured) {
    let mut by_tenant: BTreeMap<usize, Vec<(Event, Redeemed)>> = BTreeMap::new();
    for (ev, got) in redeemed {
        if let Kind::Spmv { tenant } | Kind::Solve { tenant } = ev.kind {
            by_tenant.entry(tenant).or_default().push((*ev, *got));
        }
    }
    let jobs: Vec<(usize, Vec<(Event, Redeemed)>)> = by_tenant.into_iter().collect();
    let seed = st.seed;
    let results = nmpic_sim::pool::parallel_map_jobs(WORKERS, jobs, |(tenant, reqs)| {
        let csr = &st.tenants[tenant];
        let mut plan = engine().prepare(csr);
        let (mut cycles, mut bytes, mut bad) = (0u64, 0u64, Vec::new());
        for (ev, got) in &reqs {
            let v = seeded_vector(seed, REQUEST_TAG + ev.idx, csr.cols());
            let ok = match got {
                Redeemed::Spmv { y } => {
                    let r = plan.run(&v);
                    cycles += r.cycles;
                    bytes += r.offchip_bytes;
                    bits_equal(r.y(), &csr.spmv(&v)) && digest(r.y()) == *y
                }
                Redeemed::Solve {
                    iterations,
                    residuals,
                    x,
                } => {
                    let r = Solver::cg(&mut plan, &v, &cg_opts());
                    cycles += r.spmv_cycles;
                    bytes += r.offchip_bytes;
                    r.iterations == CG_ITERS
                        && r.iterations == *iterations
                        && digest(&r.residuals) == *residuals
                        && digest(&r.x) == *x
                }
            };
            if !ok {
                bad.push(ev.idx);
            }
        }
        let row = SimRow {
            matrix: format!("tenant{tenant:02}"),
            system: "sharded4.analytic.replay".to_string(),
            cycles,
            offchip_bytes: bytes,
            extra: vec![
                ("requests", reqs.len() as u64),
                ("request_digest", fnv(reqs.iter().map(|(e, _)| e.idx))),
            ],
        };
        (row, bad)
    });
    for (row, bad) in results {
        for idx in bad {
            m.failed += 1;
            eprintln!("MISMATCH: request {idx} differs from a serial replay on its tenant");
        }
        m.sim.push(row);
    }
}

fn probe_kernels(st: &State, m: &mut Measured) {
    let (mut golden_ns, mut fast_ns, mut nnz, mut sell_s) = (0.0, 0.0, 0.0, 0.0);
    for (k, csr) in st.tenants.iter().enumerate() {
        let x = seeded_vector(st.seed, k as u64, csr.cols());
        let (g, f, ok) = kernel_probe(csr, &x, 20);
        m.check(ok, || format!("tenant {k}: spmv_fast differs from spmv"));
        let n = csr.nnz() as f64;
        golden_ns += g * n;
        fast_ns += f * n;
        nnz += n;
        let (sell, s) = timed(|| Sell::from_csr_default(csr));
        std::hint::black_box(sell);
        sell_s += s;
    }
    m.layer("sparse.spmv_ns_per_nnz", golden_ns / nnz);
    m.layer("sparse.spmv_fast_ns_per_nnz", fast_ns / nnz);
    m.layer("sparse.sell_convert_s", sell_s);
    m.layer("sparse.gen_s", st.gen_s);
}
