//! `cg_analytic`: conjugate gradient in analytic mode on a large matrix.
//!
//! A seeded 500k-row SPD matrix (about 4.4M nonzeros) is prepared once
//! on sharded4 over four interleaved HBM channels in
//! `ExecMode::Analytic`. One pass runs CG for a fixed iteration count
//! (`tol = 0`) on each of three seeded right-hand sides, then one
//! `run_batch` of eight vectors on the same plan. Native `nmpic-sparse`
//! kernels, the `nmpic-model` cost model with its LLC replay, and the
//! solver do the work here; no DRAM or adapter cycle model runs.

use nmpic_bench::timing::Stopwatch;
use nmpic_mem::BackendConfig;
use nmpic_sparse::{gen, Csr, Sell};
use nmpic_system::{
    ExecMode, PartitionStrategy, SolveOptions, SolveReport, Solver, SpmvEngine, SpmvPlan,
    SystemKind,
};

use crate::common::{
    bits_equal, kernel_probe, matrix_seed, seeded_vector, timed, Measured, SimRow, WORKERS,
};
use crate::trace::Tracer;

const ROWS: usize = 500_000;
const NNZ_PER_ROW: usize = 9;
const BANDWIDTH: usize = 1_024;
/// CG iterations per solve (`tol = 0`, so every solve runs all of them).
const ITERS: usize = 8;
const RHS: u64 = 3;
const BATCH: u64 = 8;
/// Calls per host-time probe of `run_into` and the native kernels.
const PROBE_REPS: usize = 3;

/// Reference results, computed once outside any timed region.
struct Refs {
    batch: Vec<Vec<f64>>,
    solves: Vec<SolveReport>,
    prepare_s: f64,
}

pub struct State {
    csr: Csr,
    engine: SpmvEngine,
    plan: SpmvPlan,
    rhs: Vec<Vec<f64>>,
    xs: Vec<Vec<f64>>,
    refs: Option<Refs>,
    pub gen_s: f64,
}

fn engine() -> SpmvEngine {
    SpmvEngine::builder()
        .backend(BackendConfig::interleaved(4))
        .system(SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        })
        .exec_mode(ExecMode::Analytic)
        .shard_workers(WORKERS)
        .build()
}

fn opts() -> SolveOptions {
    SolveOptions {
        max_iters: ITERS,
        tol: 0.0,
        damping: 1.0,
    }
}

pub fn setup(seed: u64) -> State {
    let (csr, gen_s) = timed(|| gen::spd(ROWS, NNZ_PER_ROW, BANDWIDTH, matrix_seed(seed, 0)));
    let engine = engine();
    let mut plan = engine.prepare(&csr);
    let rhs: Vec<Vec<f64>> = (0..RHS)
        .map(|k| seeded_vector(seed, k, csr.rows()))
        .collect();
    let xs = (0..BATCH)
        .map(|k| seeded_vector(seed, 100 + k, csr.cols()))
        .collect();
    // Warm-up: one iteration's SpMV on the resident plan.
    let mut y = vec![0.0; csr.rows()];
    plan.run_into(&rhs[0], &mut y);
    State {
        csr,
        engine,
        plan,
        rhs,
        xs,
        refs: None,
        gen_s,
    }
}

fn refs(st: &State) -> Refs {
    let batch = st.xs.iter().map(|x| st.csr.spmv(x)).collect();
    let (mut fresh, prepare_s) = timed(|| st.engine.prepare(&st.csr));
    let solves = st
        .rhs
        .iter()
        .map(|b| Solver::cg(&mut fresh, b, &opts()))
        .collect();
    Refs {
        batch,
        solves,
        prepare_s,
    }
}

fn same_solve(got: &SolveReport, want: &SolveReport) -> bool {
    got.iterations == ITERS
        && got.iterations == want.iterations
        && bits_equal(&got.residuals, &want.residuals)
        && bits_equal(&got.x, &want.x)
}

pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer) -> Measured {
    let refs = match st.refs.take() {
        Some(r) => r,
        None => refs(st),
    };
    let nnz = st.csr.nnz() as u64;
    let mut m = Measured::default();
    let mut op = 0u64;
    let mut passes = 0u64;
    let clock = Stopwatch::start();
    loop {
        let mut rows = Vec::new();
        for (k, (b, want)) in st.rhs.iter().zip(&refs.solves).enumerate() {
            op += 1;
            let span = tr.open("solve.cg", op);
            let w = Stopwatch::start();
            let r = Solver::cg(&mut st.plan, b, &opts());
            let secs = w.elapsed().as_secs_f64();
            tr.close(span, r.iterations as u64);
            m.op(nnz * r.iterations as u64, secs);
            m.check(same_solve(&r, want), || {
                format!("cg b{k}: iterations or residual trajectory differ from a fresh plan")
            });
            rows.push(SimRow {
                matrix: "spd500k".to_string(),
                system: format!("sharded4.analytic.cg.b{k}"),
                cycles: r.spmv_cycles,
                offchip_bytes: r.offchip_bytes,
                extra: vec![
                    ("iterations", r.iterations as u64),
                    ("indir_cycles", r.indir_cycles),
                ],
            });
        }
        op += 1;
        let span = tr.open("system.run_batch", op);
        let w = Stopwatch::start();
        let r = st.plan.run_batch(&st.xs);
        let secs = w.elapsed().as_secs_f64();
        tr.close(span, nnz * BATCH);
        m.op(nnz * BATCH, secs);
        let ok = r.verified
            && r.ys.len() == refs.batch.len()
            && r.ys.iter().zip(&refs.batch).all(|(a, b)| bits_equal(a, b));
        m.check(ok, || "run_batch differs from golden Csr::spmv".to_string());
        rows.push(SimRow {
            matrix: "spd500k".to_string(),
            system: "sharded4.analytic.batch8".to_string(),
            cycles: r.cycles,
            offchip_bytes: r.offchip_bytes,
            extra: vec![
                ("indir_cycles", r.indir_cycles),
                ("ideal_bytes", r.ideal_bytes),
            ],
        });
        passes += 1;
        m.next_group();
        if m.sim.is_empty() {
            m.sim = rows;
        } else {
            let same = rows == m.sim;
            m.check(same, || {
                format!("pass {passes}: analytic counters differ from pass 1")
            });
        }
        if clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.meta.push(("passes", passes.to_string()));
    if tr.enabled() {
        traced_layers(st, &refs, &mut m, tr);
    }
    st.refs = Some(refs);
    m
}

fn traced_layers(st: &mut State, refs: &Refs, m: &mut Measured, tr: &mut Tracer) {
    let nnz = st.csr.nnz() as u64;
    let x = &st.xs[0];
    let mut y = vec![0.0; st.csr.rows()];
    for _ in 0..PROBE_REPS {
        let span = tr.open("system.run_into", 0);
        std::hint::black_box(st.plan.run_into(x, &mut y));
        tr.close(span, nnz);
    }
    m.check(bits_equal(&y, &refs.batch[0]), || {
        "run_into differs from golden Csr::spmv".to_string()
    });
    let (golden_ns, fast_ns, ok) = kernel_probe(&st.csr, x, PROBE_REPS);
    m.check(ok, || "spmv_fast differs from spmv".to_string());
    let run_into = tr.ns_per_work("system.run_into");
    let (cg_ns, iterations) = tr.totals("solve.cg");
    let (sell, sell_s) = timed(|| Sell::from_csr_default(&st.csr));
    std::hint::black_box(sell);
    m.layer("system.run_into_ns_per_nnz", run_into);
    m.layer(
        "system.run_batch_ns_per_nnz",
        tr.ns_per_work("system.run_batch"),
    );
    m.layer(
        "solve.iter_ms",
        cg_ns as f64 * 1e-6 / iterations.max(1) as f64,
    );
    m.layer("solve.iterations", (ITERS as u64 * RHS) as f64);
    m.layer("sparse.spmv_ns_per_nnz", golden_ns);
    m.layer("sparse.spmv_fast_ns_per_nnz", fast_ns);
    m.layer("model.analytic_est_ns_per_nnz", run_into - fast_ns);
    m.layer("system.prepare_ms.sharded4", refs.prepare_s * 1e3);
    m.layer("sparse.gen_s", st.gen_s);
    m.layer("sparse.sell_convert_s", sell_s);
}
