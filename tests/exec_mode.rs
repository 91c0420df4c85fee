//! Analytic execution mode + native kernel acceptance tests:
//!
//! 1. [`Csr::spmv_fast`] is byte-identical to the golden [`Csr::spmv`]
//!    at every worker count (1/2/4/8) on structured and hub/power-law
//!    matrices — row-blocked parallelism must not change the reduction
//!    order;
//! 2. an [`ExecMode::Analytic`] plan fills the same [`RunReport`]
//!    cost fields within the pinned relative tolerance
//!    (`nmpic::model::PINNED_REL_TOL`) of [`ExecMode::CycleAccurate`]
//!    across every backend × system, with bit-identical result vectors;
//! 3. a CG solve in analytic mode reproduces the cycle-accurate
//!    residual trajectory exactly — values come from `spmv_fast`, only
//!    the cost metrics are modeled;
//! 4. a sharded analytic plan prices itself once: every later call
//!    reports exactly what a fresh plan's first call does.

use nmpic::core::AdapterConfig;
use nmpic::mem::BackendConfig;
use nmpic::model::PINNED_REL_TOL;
use nmpic::sparse::gen::{banded_fem, circuit, spd, stencil27};
use nmpic::sparse::Csr;
use nmpic::system::{
    golden_x, ExecMode, PartitionStrategy, SolveOptions, Solver, SpmvEngine, SpmvPlan, SystemKind,
};

fn backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

fn systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
    ]
}

fn plan_for(system: &SystemKind, backend: &BackendConfig, mode: ExecMode, a: &Csr) -> SpmvPlan {
    SpmvEngine::builder()
        .backend(backend.clone())
        .system(system.clone())
        .exec_mode(mode)
        .build()
        .prepare(a)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rel_err(analytic: f64, cycle: f64) -> f64 {
    if cycle == 0.0 {
        if analytic == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (analytic - cycle).abs() / cycle
    }
}

// ---------------------------------------------------------------------
// 1. spmv_fast byte-identity at every worker count
// ---------------------------------------------------------------------

#[test]
fn spmv_fast_is_byte_identical_to_golden_at_every_worker_count() {
    let matrices: Vec<(&str, Csr)> = vec![
        ("banded_fem", banded_fem(700, 6, 48, 5)),
        ("stencil27", stencil27(9, 9, 9)),
        // Hub/power-law: a few rows gather from everywhere, so a
        // reduction-order slip shows up immediately in the low bits.
        ("circuit", circuit(700, 6, 64, 0.05, 8, 7)),
    ];
    for (name, a) in &matrices {
        let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
        let golden = a.spmv(&x);
        assert_eq!(
            bits(&golden),
            bits(&a.spmv_fast(&x)),
            "{name}: spmv_fast (default workers) diverged from golden"
        );
        for jobs in [1usize, 2, 4, 8] {
            let mut y = vec![0.0; a.rows()];
            a.spmv_fast_into_jobs(jobs, &x, &mut y);
            assert_eq!(
                bits(&golden),
                bits(&y),
                "{name}: spmv_fast at {jobs} workers diverged from golden"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. analytic cost metrics within the pinned tolerance
// ---------------------------------------------------------------------

#[test]
fn analytic_reports_match_cycle_accurate_within_pinned_tolerance() {
    let a = banded_fem(700, 6, 48, 5);
    let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
    for backend in backends() {
        for system in systems() {
            let cycle = plan_for(&system, &backend, ExecMode::CycleAccurate, &a).run(&x);
            let analytic = plan_for(&system, &backend, ExecMode::Analytic, &a).run(&x);
            let point = format!("{}/{}", cycle.label, backend.label());
            assert!(cycle.verified && analytic.verified, "{point}: unverified");
            assert_eq!(
                bits(&cycle.ys[0]),
                bits(&analytic.ys[0]),
                "{point}: result vectors must be bit-identical across modes"
            );
            for (what, e) in [
                (
                    "cycles",
                    rel_err(analytic.cycles as f64, cycle.cycles as f64),
                ),
                (
                    "offchip_bytes",
                    rel_err(analytic.offchip_bytes as f64, cycle.offchip_bytes as f64),
                ),
                ("gbps", rel_err(analytic.gbps(), cycle.gbps())),
            ] {
                assert!(
                    e <= PINNED_REL_TOL,
                    "{point}: {what} rel err {e:.3} exceeds pinned tolerance {PINNED_REL_TOL}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. CG in analytic mode: exact residual trajectory, modeled cost
// ---------------------------------------------------------------------

#[test]
fn analytic_cg_reproduces_the_cycle_accurate_residual_trajectory() {
    let a = spd(96, 6, 8, 42);
    assert!(a.is_symmetric());
    let b: Vec<f64> = (0..a.rows()).map(golden_x).collect();
    let opts = SolveOptions::default();
    for system in systems() {
        let backend = BackendConfig::hbm();
        let mut cycle_plan = plan_for(&system, &backend, ExecMode::CycleAccurate, &a);
        let mut analytic_plan = plan_for(&system, &backend, ExecMode::Analytic, &a);
        let cycle = Solver::cg(&mut cycle_plan, &b, &opts);
        let analytic = Solver::cg(&mut analytic_plan, &b, &opts);
        assert!(cycle.converged && analytic.converged, "{}", cycle.label);
        assert_eq!(
            cycle.iterations, analytic.iterations,
            "{}: iteration counts must match",
            cycle.label
        );
        assert_eq!(
            bits(&cycle.residuals),
            bits(&analytic.residuals),
            "{}: analytic CG must walk the exact cycle-accurate residual trajectory",
            cycle.label
        );
        assert_eq!(
            bits(&cycle.x),
            bits(&analytic.x),
            "{}: solutions must be bit-identical",
            cycle.label
        );
        // Cost is modeled, not stepped — but it must stay plausible.
        assert!(analytic.spmv_cycles > 0 && analytic.offchip_bytes > 0);
        let e = rel_err(analytic.spmv_cycles as f64, cycle.spmv_cycles as f64);
        assert!(
            e <= PINNED_REL_TOL,
            "{}: solve cycles rel err {e:.3} exceeds {PINNED_REL_TOL}",
            cycle.label
        );
    }
}

// ---------------------------------------------------------------------
// 4. the sharded analytic price is plan-resident and exact
// ---------------------------------------------------------------------

#[test]
fn sharded_analytic_price_is_stored_once_and_exact() {
    let big = banded_fem(300, 6, 24, 13);
    // Five rows over eight units: the partition trails empty shards.
    let tiny = banded_fem(5, 3, 4, 2);
    for backend in backends() {
        for units in [1usize, 2, 4, 8] {
            for a in [&big, &tiny] {
                let system = SystemKind::Sharded {
                    units,
                    strategy: PartitionStrategy::ByNnz,
                };
                let point = format!("{units} units, {} rows, {}", a.rows(), backend.label());
                let xs: Vec<Vec<f64>> = (0..3)
                    .map(|k| (0..a.cols()).map(|i| golden_x(i + 7 * k)).collect())
                    .collect();
                let fresh = |x: &[f64]| {
                    let mut y = vec![0.0; a.rows()];
                    plan_for(&system, &backend, ExecMode::Analytic, a).run_into(x, &mut y)
                };
                let want = fresh(&xs[0]);
                assert!(want.cycles > 0, "{point}: empty price");
                let mut plan = plan_for(&system, &backend, ExecMode::Analytic, a);
                let mut y = vec![0.0; a.rows()];
                for x in &xs {
                    assert_eq!(plan.run_into(x, &mut y), want, "{point}: run_into");
                    assert_eq!(bits(&y), bits(&a.spmv(x)), "{point}: run_into values");
                    assert_eq!(fresh(x), want, "{point}: price depends on x");
                }
                let one = plan.run(&xs[0]);
                let fresh_one = plan_for(&system, &backend, ExecMode::Analytic, a).run(&xs[0]);
                assert_eq!(
                    (one.cycles, one.indir_cycles, one.offchip_bytes),
                    (want.cycles, want.indir_cycles, want.offchip_bytes),
                    "{point}: run"
                );
                assert_eq!(
                    format!("{:?}", one.shards()),
                    format!("{:?}", fresh_one.shards()),
                    "{point}: ShardDetail of a reused plan"
                );
                let batch = plan.run_batch(&xs);
                assert!(batch.verified, "{point}: batch unverified");
                assert_eq!(
                    (batch.cycles, batch.indir_cycles, batch.offchip_bytes),
                    (
                        3 * want.cycles,
                        3 * want.indir_cycles,
                        3 * want.offchip_bytes
                    ),
                    "{point}: run_batch"
                );
                for (x, y) in xs.iter().zip(&batch.ys) {
                    assert_eq!(bits(y), bits(&a.spmv(x)), "{point}: batch values");
                }
            }
        }
    }
}
