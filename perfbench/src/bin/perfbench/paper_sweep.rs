//! `paper_sweep`: the cycle-accurate path behind Fig. 3 and Fig. 5.
//!
//! Four seeded matrices of about 100k nonzeros, two regular (banded FEM
//! like af_shell10, the HPCG 27-point stencil) and two irregular (a
//! circuit graph with hub columns like circuit5M_dc, a KKT system with
//! far coupling blocks like nlpkkt120). One pass runs, per matrix:
//! the indirect stream of its column indices through MLPnc and MLP256
//! on one HBM channel (`nmpic-core` unit over the `nmpic-mem` DRAM
//! model), then `prepare` plus a cold `run` on base, pack256 and
//! sharded4 over eight interleaved HBM channels, and on two matrices a
//! warm `run_batch` of four vectors on the pack256 plan. Passes repeat
//! until the time is up; every pass must reproduce the first one's
//! simulated counters exactly.

use std::collections::BTreeMap;

use nmpic_bench::timing::Stopwatch;
use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_mem::{BackendConfig, HbmStats};
use nmpic_sparse::{gen, Csr, Sell};
use nmpic_system::{ExecMode, PartitionStrategy, RunReport, SpmvEngine, SystemKind};

use crate::common::{
    bits_equal, kernel_probe, matrix_seed, seeded_vector, timed, Measured, SimRow, WORKERS,
};
use crate::trace::Tracer;

/// Vectors in the warm batch.
const BATCH: usize = 4;
/// Interleaved HBM channels behind the SpMV systems.
const SYSTEM_CHANNELS: usize = 8;

struct Matrix {
    name: &'static str,
    csr: Csr,
    indices: Vec<u32>,
    x: Vec<f64>,
    golden: Vec<f64>,
    /// Warm-batch vectors and their golden results (two matrices only).
    batch: Option<Batch>,
}

struct Batch {
    xs: Vec<Vec<f64>>,
    golden: Vec<Vec<f64>>,
}

pub struct State {
    matrices: Vec<Matrix>,
    streams: Vec<AdapterConfig>,
    systems: Vec<(&'static str, SpmvEngine)>,
    pub gen_s: f64,
}

fn matrices(seed: u64) -> Vec<(&'static str, Csr)> {
    vec![
        ("fem", gen::banded_fem(3_400, 35, 35, matrix_seed(seed, 0))),
        ("hpcg", gen::stencil27(16, 16, 16)),
        (
            "circuit",
            gen::circuit(20_000, 4, 32, 0.10, 4, matrix_seed(seed, 1)),
        ),
        ("kkt", gen::kkt(5_000, 27, 8, matrix_seed(seed, 2))),
    ]
}

pub fn setup(seed: u64) -> State {
    let (generated, gen_s) = timed(|| matrices(seed));
    let matrices = generated
        .into_iter()
        .enumerate()
        .map(|(k, (name, csr))| {
            let tag = k as u64 * 16;
            let x = seeded_vector(seed, tag, csr.cols());
            let golden = csr.spmv(&x);
            let batch = (name == "fem" || name == "circuit").then(|| {
                let xs: Vec<Vec<f64>> = (0..BATCH as u64)
                    .map(|b| seeded_vector(seed, tag + 1 + b, csr.cols()))
                    .collect();
                let golden = xs.iter().map(|x| csr.spmv(x)).collect();
                Batch { xs, golden }
            });
            Matrix {
                name,
                indices: csr.col_idx().to_vec(),
                csr,
                x,
                golden,
                batch,
            }
        })
        .collect();
    let engine = |system| {
        SpmvEngine::builder()
            .backend(BackendConfig::interleaved(SYSTEM_CHANNELS))
            .system(system)
            .exec_mode(ExecMode::CycleAccurate)
            .batch_capacity(BATCH)
            .shard_workers(WORKERS)
            .build()
    };
    State {
        matrices,
        streams: vec![AdapterConfig::mlp_nc(), AdapterConfig::mlp(256)],
        systems: vec![
            ("base", engine(SystemKind::Base)),
            ("pack256", engine(SystemKind::Pack(AdapterConfig::mlp(256)))),
            (
                "sharded4",
                engine(SystemKind::Sharded {
                    units: 4,
                    strategy: PartitionStrategy::ByNnz,
                }),
            ),
        ],
        gen_s,
    }
}

/// Simulated quantities the per-layer metrics are computed from; filled
/// from the first pass (every later pass repeats it exactly).
#[derive(Default)]
struct SimLayers {
    streams: BTreeMap<String, StreamSums>,
    /// Per system: cycles, off-chip bytes, ideal bytes.
    systems: BTreeMap<&'static str, (u64, u64, u64)>,
    shard_imbalance: Vec<f64>,
    shard_dram: Vec<(HbmStats, u64)>,
}

/// One stream variant's simulated results, summed over the matrices.
#[derive(Default)]
struct StreamSums {
    elements: u64,
    /// Coalesce rate weighted by elements.
    coalesce_elements: f64,
    payload_bytes: u64,
    cycles: u64,
    row_hit_rates: Vec<f64>,
    bus_utilizations: Vec<f64>,
}

fn system_row(matrix: &str, system: &str, r: &RunReport) -> SimRow {
    let mut extra = vec![
        ("vectors", r.vectors as u64),
        ("indir_cycles", r.indir_cycles),
        ("entries", r.entries),
        ("ideal_bytes", r.ideal_bytes),
    ];
    if let Some(d) = r.shards().and_then(|s| s.dram) {
        extra.extend([
            ("dram_reads", d.reads),
            ("dram_writes", d.writes),
            ("dram_row_hits", d.row_hits),
            ("dram_row_conflicts", d.row_conflicts),
            ("dram_bus_busy_cycles", d.bus_busy_cycles),
        ]);
    }
    SimRow {
        matrix: matrix.to_string(),
        system: system.to_string(),
        cycles: r.cycles,
        offchip_bytes: r.offchip_bytes,
        extra,
    }
}

/// One pass over every matrix and configuration.
fn pass(
    st: &State,
    m: &mut Measured,
    tr: &mut Tracer,
    op: &mut u64,
    layers: &mut SimLayers,
) -> Vec<SimRow> {
    let first = layers.systems.is_empty();
    let mut rows = Vec::new();
    for mat in &st.matrices {
        let nnz = mat.csr.nnz() as u64;
        for cfg in &st.streams {
            let v = cfg.variant_name();
            let span_name = format!("core.stream.{v}");
            let opts = StreamOptions::default();
            *op += 1;
            let span = tr.open(&span_name, *op);
            let w = Stopwatch::start();
            let r = run_indirect_stream(cfg, &mat.indices, mat.csr.cols(), &opts);
            let secs = w.elapsed().as_secs_f64();
            tr.close(span, r.elements);
            m.op(r.elements, secs);
            m.check(r.verified && r.elements == nnz, || {
                format!("{}/{v}: stream gather mismatch", mat.name)
            });
            let bytes = r.adapter.idx_bytes() + r.adapter.elem_bytes();
            rows.push(SimRow {
                matrix: mat.name.to_string(),
                system: v.clone(),
                cycles: r.cycles,
                offchip_bytes: bytes,
                extra: vec![
                    ("elements", r.elements),
                    ("payload_bytes", r.adapter.payload_bytes),
                    ("idx_wide_reads", r.adapter.idx_wide_reads),
                    ("elem_wide_reads", r.adapter.elem_wide_reads),
                ],
            });
            if first {
                let e = layers.streams.entry(v).or_default();
                e.elements += r.elements;
                e.coalesce_elements += r.coalesce_rate * r.elements as f64;
                e.payload_bytes += r.adapter.payload_bytes;
                e.cycles += r.cycles;
                e.row_hit_rates.push(r.row_hit_rate);
                e.bus_utilizations.push(r.bus_utilization);
            }
        }
        for (sys, engine) in &st.systems {
            *op += 1;
            let op_span = tr.open(&format!("system.op.{sys}"), *op);
            let w = Stopwatch::start();
            let span = tr.open(&format!("system.prepare.{sys}"), *op);
            let mut plan = engine.prepare(&mat.csr);
            tr.close(span, 1);
            let span = tr.open(&format!("system.run.{sys}"), *op);
            let r = plan.run(&mat.x);
            tr.close(span, nnz);
            let secs = w.elapsed().as_secs_f64();
            tr.close(op_span, nnz);
            m.op(nnz, secs);
            m.check(r.verified && bits_equal(r.y(), &mat.golden), || {
                format!("{}/{sys}: cold run differs from golden Csr::spmv", mat.name)
            });
            rows.push(system_row(mat.name, sys, &r));
            if first {
                let e = layers.systems.entry(sys).or_default();
                e.0 += r.cycles;
                e.1 += r.offchip_bytes;
                e.2 += r.ideal_bytes;
                if let Some(s) = r.shards() {
                    layers.shard_imbalance.push(s.cycle_imbalance);
                    if let Some(d) = s.dram {
                        layers.shard_dram.push((d, r.cycles));
                    }
                }
            }
            if let (true, Some(Batch { xs, golden })) = (*sys == "pack256", &mat.batch) {
                *op += 1;
                let work = nnz * BATCH as u64;
                let span = tr.open("system.run_batch.pack256", *op);
                let w = Stopwatch::start();
                let r = plan.run_batch(xs);
                let secs = w.elapsed().as_secs_f64();
                tr.close(span, work);
                m.op(work, secs);
                let ok = r.verified
                    && r.ys.len() == golden.len()
                    && r.ys.iter().zip(golden).all(|(a, b)| bits_equal(a, b));
                m.check(ok, || {
                    format!("{}/pack256: warm batch differs from golden", mat.name)
                });
                rows.push(system_row(mat.name, "pack256.batch4", &r));
            }
        }
    }
    rows
}

pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let mut layers = SimLayers::default();
    let mut op = 0u64;
    let mut passes = 0u64;
    let clock = Stopwatch::start();
    loop {
        let rows = pass(st, &mut m, tr, &mut op, &mut layers);
        passes += 1;
        m.next_group();
        if m.sim.is_empty() {
            m.sim = rows;
        } else {
            let same = rows == m.sim;
            m.check(same, || {
                format!("pass {passes}: simulated counters differ from pass 1")
            });
        }
        if clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.meta.push(("passes", passes.to_string()));
    if tr.enabled() {
        traced_layers(st, &mut m, tr, &layers, passes);
    }
    m
}

/// Simulated cycles per host second: every pass repeats the first
/// pass's `cycles`, and the spans cover `ns` over all `passes`.
fn per_wall_s(cycles: u64, passes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        (cycles * passes) as f64 / (ns as f64 * 1e-9)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn traced_layers(st: &State, m: &mut Measured, tr: &mut Tracer, layers: &SimLayers, passes: u64) {
    for (v, sums) in &layers.streams {
        let span = format!("core.stream.{v}");
        let (ns, _) = tr.totals(&span);
        m.layer(
            format!("core.stream_ns_per_elem.{v}"),
            tr.ns_per_work(&span),
        );
        m.layer(
            format!("core.sim_cycles_per_wall_s.{v}"),
            per_wall_s(sums.cycles, passes, ns),
        );
        m.layer(
            format!("core.coalesce_rate.{v}"),
            sums.coalesce_elements / sums.elements.max(1) as f64,
        );
        m.layer(
            format!("core.indir_gbps.{v}"),
            sums.payload_bytes as f64 / sums.cycles.max(1) as f64,
        );
        m.layer(format!("mem.row_hit_rate.{v}"), mean(&sums.row_hit_rates));
        m.layer(
            format!("mem.bus_utilization.{v}"),
            mean(&sums.bus_utilizations),
        );
    }
    let dram = HbmStats::sum(layers.shard_dram.iter().map(|(d, _)| *d));
    m.layer("mem.row_hit_rate.sharded4", dram.row_hit_rate());
    let bus: Vec<f64> = layers
        .shard_dram
        .iter()
        .map(|(d, cycles)| d.bus_utilization_over(*cycles, SYSTEM_CHANNELS))
        .collect();
    m.layer("mem.bus_utilization.sharded4", mean(&bus));
    for (sys, (cycles, bytes, ideal)) in &layers.systems {
        let run = format!("system.run.{sys}");
        let (ns, _) = tr.totals(&run);
        m.layer(format!("system.run_ns_per_nnz.{sys}"), tr.ns_per_work(&run));
        m.layer(
            format!("system.sim_cycles_per_wall_s.{sys}"),
            per_wall_s(*cycles, passes, ns),
        );
        m.layer(format!("system.sim_cycles.{sys}"), *cycles as f64);
        m.layer(
            format!("system.traffic_ratio.{sys}"),
            *bytes as f64 / (*ideal).max(1) as f64,
        );
        m.layer(
            format!("system.prepare_ms.{sys}"),
            tr.ns_per_work(&format!("system.prepare.{sys}")) * 1e-6,
        );
    }
    m.layer(
        "system.shard.cycle_imbalance",
        mean(&layers.shard_imbalance),
    );
    m.layer(
        "system.warm_batch_ns_per_nnz.pack256",
        tr.ns_per_work("system.run_batch.pack256"),
    );
    let (mut golden_ns, mut fast_ns, mut nnz) = (0.0, 0.0, 0.0);
    let mut sell_s = 0.0;
    for mat in &st.matrices {
        let (g, f, ok) = kernel_probe(&mat.csr, &mat.x, 20);
        m.check(ok, || format!("{}: spmv_fast differs from spmv", mat.name));
        let n = mat.csr.nnz() as f64;
        golden_ns += g * n;
        fast_ns += f * n;
        nnz += n;
        let span = tr.open("sparse.sell_convert", 0);
        let (sell, s) = timed(|| Sell::from_csr_default(&mat.csr));
        tr.close(span, mat.csr.nnz() as u64);
        std::hint::black_box(sell);
        sell_s += s;
    }
    m.layer("sparse.spmv_ns_per_nnz", golden_ns / nnz);
    m.layer("sparse.spmv_fast_ns_per_nnz", fast_ns / nnz);
    m.layer("sparse.sell_convert_s", sell_s);
    m.layer("sparse.gen_s", st.gen_s);
}
