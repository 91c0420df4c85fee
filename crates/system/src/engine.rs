//! The session API: build an engine once, prepare a plan per matrix,
//! run it against many vectors.
//!
//! The paper's value proposition is amortizing indirect-access cost
//! across an entire SpMV workload, so memory, backend and unit state are
//! built once per matrix, not once per SpMV. The session API splits the
//! lifecycle the way SparseP-style systems do:
//!
//! * [`SpmvEngine`] — immutable system choice: memory backend
//!   ([`BackendConfig`]) plus [`SystemKind`] (baseline LLC system,
//!   AXI-Pack system with a chosen adapter, or the sharded multi-unit
//!   engine).
//! * [`SpmvEngine::prepare`] → [`SpmvPlan`] — performs partitioning,
//!   format conversion and DRAM layout **once** per matrix. The matrix
//!   image stays resident in the plan's warm backend.
//! * [`SpmvPlan::run`] / [`SpmvPlan::run_batch`] — execute SpMVs against
//!   the warm state: only the vector region of memory is rewritten, the
//!   controller/unit state is reset to a deterministic cold start, and a
//!   unified [`RunReport`] comes back for every system kind. Batched runs
//!   amortize each tile's contiguous streams across the batch on the
//!   pack system and keep the LLC's matrix lines warm on the baseline.
//! * [`SpmvPlan::run_into`] — the solver hot path: the same execution
//!   into a caller-owned buffer, without verification.
//!
//! Each plan kind has exactly one execution routine covering both
//! [`ExecMode`]s; `run`, `run_batch` and `run_into` all go through it,
//! so their cycles, bytes and result bits agree by construction.
//!
//! # Example
//!
//! ```
//! use nmpic_core::AdapterConfig;
//! use nmpic_mem::BackendConfig;
//! use nmpic_sparse::gen::banded_fem;
//! use nmpic_system::{golden_x, SpmvEngine, SystemKind};
//!
//! let csr = banded_fem(128, 6, 16, 1);
//! let engine = SpmvEngine::builder()
//!     .backend(BackendConfig::hbm())
//!     .system(SystemKind::Pack(AdapterConfig::mlp(64)))
//!     .build();
//! let mut plan = engine.prepare(&csr);
//! let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
//! let one = plan.run(&x);
//! let batch = plan.run_batch(&[x.clone(), x]);
//! assert!(one.verified && batch.verified);
//! assert_eq!(batch.vectors, 2);
//! assert_eq!(one.y_bits(), batch.y_bits(), "plan reuse is deterministic");
//! ```

use std::fmt;
use std::str::FromStr;

use nmpic_core::{
    stream_memory_size, AdapterConfig, AdapterStats, IndirectStreamUnit, ScatterStats, ScatterUnit,
};
use nmpic_mem::{BackendConfig, Cache, ChannelPort, HbmStats, Memory, BLOCK_BYTES};
use nmpic_sim::stats::Extrema;
use nmpic_sparse::partition::{by_nnz, by_rows, Partition};
use nmpic_sparse::{Csr, Sell};

use crate::base::{
    base_ideal_bytes, base_memory_size, exec_base, layout_base, write_base_vector, BaseLayout,
};
use crate::pack::{
    exec_pack, layout_pack, pack_ideal_bytes, pack_plan_memory_size, row_map, write_pack_vector,
    PackLayout,
};
use crate::report::{bits_equal, IterReport, RunReport, ShardDetail};
use crate::shard::{
    exec_merged_writeback, exec_shard_gather, merge_order, PartitionStrategy, ShardReport,
};
use crate::{BaseConfig, PackConfig};

/// Which end-to-end system a [`SpmvEngine`] simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemKind {
    /// The baseline vector processor behind a 1 MiB LLC, running naive
    /// CSR SpMV with coupled indirect access.
    Base,
    /// The AXI-Pack system with the given adapter variant, running tiled
    /// SELL SpMV through the coalescing-enhanced adapter.
    Pack(AdapterConfig),
    /// The sharded multi-unit engine: `units` indexing/coalescing units
    /// over a row partition, results merged through one scatter unit.
    Sharded {
        /// Number of parallel units (K ≥ 1).
        units: usize,
        /// How rows are divided across units.
        strategy: PartitionStrategy,
    },
}

impl Default for SystemKind {
    /// The paper's headline system: pack with the MLP256 adapter.
    fn default() -> Self {
        SystemKind::Pack(AdapterConfig::mlp(256))
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::Base => write!(f, "base"),
            SystemKind::Pack(a) => write!(f, "{}", a.label()),
            SystemKind::Sharded { units, .. } => write!(f, "sharded{units}"),
        }
    }
}

/// Error returned when a system name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSystemError(String);

impl fmt::Display for ParseSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown system '{}': expected 'base', 'pack'/'pack0'/'packN'/'packseqN' \
             (N a power of two >= 8, e.g. pack256), or 'sharded'/'shardedK' (K units, \
             e.g. sharded4)",
            self.0
        )
    }
}

impl std::error::Error for ParseSystemError {}

impl FromStr for SystemKind {
    type Err = ParseSystemError;

    /// Parses `base`, `pack` (= pack256), `pack0`, `pack<N>`,
    /// `packseq<N>`, `sharded` (= one unit) or `sharded<K>` — mirroring
    /// the `hbmN` backend grammar so experiments can select a system via
    /// the `NMPIC_SYSTEM` environment knob.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let window = |digits: &str| -> Option<usize> {
            let w: usize = digits.parse().ok()?;
            (w.is_power_of_two() && w >= 8).then_some(w)
        };
        match t.as_str() {
            "base" => return Ok(SystemKind::Base),
            "pack" => return Ok(SystemKind::Pack(AdapterConfig::mlp(256))),
            "pack0" => return Ok(SystemKind::Pack(AdapterConfig::mlp_nc())),
            "sharded" => {
                return Ok(SystemKind::Sharded {
                    units: 1,
                    strategy: PartitionStrategy::default(),
                })
            }
            _ => {}
        }
        if let Some(digits) = t.strip_prefix("packseq") {
            if let Some(w) = window(digits) {
                return Ok(SystemKind::Pack(AdapterConfig::seq(w)));
            }
        } else if let Some(digits) = t.strip_prefix("pack") {
            if let Some(w) = window(digits) {
                return Ok(SystemKind::Pack(AdapterConfig::mlp(w)));
            }
        } else if let Some(digits) = t.strip_prefix("sharded") {
            if let Ok(units) = digits.parse::<usize>() {
                if units > 0 {
                    return Ok(SystemKind::Sharded {
                        units,
                        strategy: PartitionStrategy::default(),
                    });
                }
            }
        }
        Err(ParseSystemError(s.to_string()))
    }
}

/// How a [`SpmvPlan`] executes its runs.
///
/// Both modes fill the same [`RunReport`]/[`IterReport`] fields and
/// produce byte-identical result values; they differ in how the **cost
/// metrics** (cycles, indirect cycles, off-chip traffic) are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Step every controller queue, coalescer window and DRAM bank state
    /// machine one simulated cycle at a time — the reference mode.
    #[default]
    CycleAccurate,
    /// Replace per-cycle stepping with the closed-form traffic/latency
    /// model in [`nmpic_model::analytic`]; compute result values natively
    /// with [`Csr::spmv_fast`] (byte-identical to the golden kernel).
    /// Cost metrics agree with cycle-accurate mode within
    /// [`nmpic_model::analytic::PINNED_REL_TOL`]; wall-clock cost drops
    /// by orders of magnitude, unlocking million-row sweeps.
    Analytic,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::CycleAccurate => write!(f, "cycle"),
            ExecMode::Analytic => write!(f, "analytic"),
        }
    }
}

/// Error returned when an execution-mode name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExecModeError(String);

impl fmt::Display for ParseExecModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown execution mode '{}': expected 'cycle' or 'analytic'",
            self.0
        )
    }
}

impl std::error::Error for ParseExecModeError {}

impl FromStr for ExecMode {
    type Err = ParseExecModeError;

    /// Parses `cycle` or `analytic` (case-insensitive) — the grammar the
    /// `NMPIC_EXEC` environment knob uses.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cycle" => Ok(ExecMode::CycleAccurate),
            "analytic" => Ok(ExecMode::Analytic),
            _ => Err(ParseExecModeError(s.to_string())),
        }
    }
}

/// Builder for [`SpmvEngine`]. Obtain via [`SpmvEngine::builder`].
#[derive(Debug, Clone)]
pub struct SpmvEngineBuilder {
    backend: BackendConfig,
    system: SystemKind,
    exec_mode: ExecMode,
    base: BaseConfig,
    pack: PackConfig,
    sharded_adapter: AdapterConfig,
    batch_capacity: usize,
    shard_workers: Option<usize>,
}

impl Default for SpmvEngineBuilder {
    fn default() -> Self {
        Self {
            backend: BackendConfig::hbm(),
            system: SystemKind::default(),
            exec_mode: ExecMode::default(),
            base: BaseConfig::default(),
            pack: PackConfig::default(),
            sharded_adapter: AdapterConfig::mlp(256),
            batch_capacity: 1,
            shard_workers: None,
        }
    }
}

impl SpmvEngineBuilder {
    /// Selects the memory backend every plan of this engine runs against
    /// (default: one HBM2 channel).
    pub fn backend(mut self, backend: BackendConfig) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the system kind (default: pack with MLP256).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Selects the execution mode every plan of this engine runs in
    /// (default: [`ExecMode::CycleAccurate`]). [`ExecMode::Analytic`]
    /// trades pinned-tolerance cost metrics for orders-of-magnitude
    /// faster runs; result values stay byte-identical.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Overrides the baseline system's tuning (LLC geometry, VLSU rates).
    pub fn base_config(mut self, cfg: BaseConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Overrides the pack system's tuning (L2 size, compute rate).
    pub fn pack_config(mut self, cfg: PackConfig) -> Self {
        self.pack = cfg;
        self
    }

    /// Adapter variant instantiated per unit by
    /// [`SystemKind::Sharded`] plans (default: MLP256).
    pub fn sharded_adapter(mut self, adapter: AdapterConfig) -> Self {
        self.sharded_adapter = adapter;
        self
    }

    /// Maximum vectors of a batch resident in a pack plan's memory image
    /// at once (default 1, so single-vector plans pay no extra memory
    /// and keep the single-vector DRAM layout). Larger batches are
    /// processed in chunks of this size, so the amortization window is
    /// bounded by it — raise it to the intended batch width before
    /// calling [`SpmvPlan::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        self.batch_capacity = capacity;
        self
    }

    /// Number of worker threads [`SystemKind::Sharded`] plans use to run
    /// their per-shard unit simulations in parallel (each `CsrShard`'s
    /// unit runs on its own thread of the shared
    /// [`nmpic_sim::pool`] work pool; results merge in fixed shard
    /// order, byte-identical to serial execution). Default: the pool's
    /// `NMPIC_JOBS` policy. `1` forces serial execution on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shard_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one shard worker");
        self.shard_workers = Some(workers);
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> SpmvEngine {
        SpmvEngine {
            backend: self.backend,
            system: self.system,
            exec_mode: self.exec_mode,
            base: self.base,
            pack: self.pack,
            sharded_adapter: self.sharded_adapter,
            batch_capacity: self.batch_capacity,
            shard_workers: self.shard_workers,
        }
    }
}

/// A configured SpMV session: one memory backend plus one system kind.
/// [`SpmvEngine::prepare`] turns matrices into reusable [`SpmvPlan`]s.
#[derive(Debug, Clone)]
pub struct SpmvEngine {
    backend: BackendConfig,
    system: SystemKind,
    exec_mode: ExecMode,
    base: BaseConfig,
    pack: PackConfig,
    sharded_adapter: AdapterConfig,
    batch_capacity: usize,
    shard_workers: Option<usize>,
}

impl SpmvEngine {
    /// Starts building an engine (HBM backend, pack/MLP256 system by
    /// default).
    pub fn builder() -> SpmvEngineBuilder {
        SpmvEngineBuilder::default()
    }

    /// The engine's memory backend.
    pub fn backend(&self) -> &BackendConfig {
        &self.backend
    }

    /// The engine's system kind.
    pub fn system(&self) -> &SystemKind {
        &self.system
    }

    /// The engine's execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Prepares a plan for `csr`: partitioning (sharded), format
    /// conversion (pack converts to SELL), and DRAM layout of the matrix
    /// image all happen here, **once** — every subsequent
    /// [`SpmvPlan::run`] reuses the warm state and rewrites only the
    /// vector. An [`ExecMode::Analytic`] sharded plan is priced here
    /// instead of laid out: its cost does not depend on vector values,
    /// so its runs only execute the native kernel.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix.
    pub fn prepare(&self, csr: &Csr) -> SpmvPlan {
        match &self.system {
            SystemKind::Base => {
                let mut chan = self.backend.build(Memory::new(base_memory_size(csr)));
                let layout = layout_base(&mut *chan, csr);
                let llc = Cache::new(self.base.llc);
                SpmvPlan {
                    exec: self.exec_mode,
                    inner: PlanInner::Base(Box::new(BasePlan {
                        cfg: self.base.clone(),
                        backend: self.backend.clone(),
                        csr: csr.clone(),
                        chan,
                        layout,
                        llc,
                    })),
                }
            }
            SystemKind::Pack(_) => self.prepare_sell_owned(Sell::from_csr_default(csr)),
            SystemKind::Sharded { units, strategy } => self.prepare_sharded(csr, *units, *strategy),
        }
    }

    /// Prepares a pack plan directly from an already-converted SELL
    /// matrix (skipping the CSR→SELL conversion [`SpmvEngine::prepare`]
    /// would perform).
    ///
    /// # Panics
    ///
    /// Panics if the engine's system is not [`SystemKind::Pack`] — SELL
    /// is the pack system's format; the baseline and sharded systems
    /// execute CSR and must go through [`SpmvEngine::prepare`].
    pub fn prepare_sell(&self, sell: &Sell) -> SpmvPlan {
        self.prepare_sell_owned(sell.clone())
    }

    fn prepare_sell_owned(&self, sell: Sell) -> SpmvPlan {
        let SystemKind::Pack(adapter) = &self.system else {
            // nmpic-lint: allow(L2) — documented panic: prepare_sell advertises this misuse panic in its Panics section
            panic!(
                "prepare_sell is only valid for SystemKind::Pack; use prepare(&Csr) for `{}`",
                self.system
            );
        };
        let slots = self.batch_capacity;
        let mut chan = self
            .backend
            .build(Memory::new(pack_plan_memory_size(&sell, slots)));
        let layout = layout_pack(&mut *chan, &sell, slots);
        let row_of = row_map(&sell);
        let unit = IndirectStreamUnit::new(adapter.clone());
        SpmvPlan {
            exec: self.exec_mode,
            inner: PlanInner::Pack(Box::new(PackPlan {
                cfg: self.pack.clone(),
                adapter: adapter.clone(),
                backend: self.backend.clone(),
                sell,
                row_of,
                chan,
                layout,
                unit,
            })),
        }
    }

    fn prepare_sharded(&self, csr: &Csr, units: usize, strategy: PartitionStrategy) -> SpmvPlan {
        assert!(units > 0, "at least one unit");
        assert!(csr.rows() > 0 && csr.nnz() > 0, "empty matrix");
        let partition = match strategy {
            PartitionStrategy::ByNnz => by_nnz(csr, units),
            PartitionStrategy::ByRows => by_rows(csr, units),
        };
        let slots: Vec<ShardSlot> = (0..units)
            .map(|i| {
                let shard = partition.csr_shard(csr, i);
                let (idx_base, x_base) = unit_layout(shard.nnz());
                ShardSlot {
                    idx_base,
                    x_base,
                    row_start: shard.rows().start,
                    rows: shard.n_rows(),
                    nnz: shard.nnz() as u64,
                }
            })
            .collect();
        // An analytic plan is priced here, once, and builds none of the
        // simulated DRAM images it would never touch.
        let exec = match self.exec_mode {
            ExecMode::CycleAccurate => {
                ShardedExec::Cycle(Box::new(self.shard_sim(csr, &partition, &slots)))
            }
            ExecMode::Analytic => self.analytic_costs(csr, &partition, &slots),
        };
        SpmvPlan {
            exec: self.exec_mode,
            inner: PlanInner::Sharded(Box::new(ShardedPlan {
                adapter: self.sharded_adapter.clone(),
                backend: self.backend.clone(),
                units,
                csr: csr.clone(),
                partition,
                slots,
                workers: self.shard_workers,
                exec,
            })),
        }
    }

    /// Lays out every unit's memory image of a cycle-accurate sharded
    /// plan (index array written once, here) and the write-back path's
    /// merge-order index array.
    fn shard_sim(&self, csr: &Csr, partition: &Partition, slots: &[ShardSlot]) -> ShardSim {
        let per_unit_backend = self.backend.split(slots.len());
        let units = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let shard = partition.csr_shard(csr, i);
                let mut chan = per_unit_backend
                    .build(Memory::new(stream_memory_size(shard.nnz(), csr.cols())));
                chan.memory_mut()
                    .write_u32_slice(slot.idx_base, shard.col_idx());
                // Stream positions map to rows *local to the shard*, so a
                // worker thread can accumulate into its own buffer and the
                // merge can place it by `row_start` — the per-worker unit
                // state ownership the parallel executor relies on.
                let row_of = shard
                    .row_of_positions()
                    .iter()
                    // nmpic-lint: allow(L1) — in range: row_start ≤ every id in the (checked 32 b) position map, so the cast and subtraction cannot wrap
                    .map(|&r| r - slot.row_start as u32)
                    .collect();
                UnitSim {
                    chan,
                    unit: IndirectStreamUnit::new(self.sharded_adapter.clone()),
                    row_of,
                    local_y: vec![0.0; slot.rows],
                }
            })
            .collect();

        // The write-back port is one channel wide: splitting by the full
        // channel count leaves exactly one channel of the configured
        // kind. Its index array (the merge order) depends only on the
        // partition, so it is written once, here.
        let rows = csr.rows();
        let collect_backend = self.backend.split(self.backend.kind.channels());
        let mut collect_chan = collect_backend.build(Memory::new(stream_memory_size(rows, rows)));
        let merge_rows = merge_order(partition, slots.len());
        let mem = collect_chan.memory_mut();
        let collect_idx_base = mem.alloc_array(rows as u64, 4);
        let collect_res_base = mem.alloc_array(rows as u64, 8);
        mem.write_u32_slice(collect_idx_base, &merge_rows);
        ShardSim {
            units,
            collect_chan,
            scatter: ScatterUnit::new(self.sharded_adapter.clone()),
            collect_idx_base,
            collect_res_base,
            merge_rows,
            merge_bits: vec![0; rows],
            first: Vec::new(),
            first_scatter: ScatterStats::default(),
        }
    }

    /// Prices one vector of an analytic sharded plan: the per-shard
    /// gather costs (as [`ShardOut`]s) plus the collection cost. Costs
    /// do not depend on vector values, so one evaluation covers every
    /// vector of the plan's life.
    fn analytic_costs(&self, csr: &Csr, partition: &Partition, slots: &[ShardSlot]) -> ShardedExec {
        let unit_chan = nmpic_model::ChannelModel::of(&self.backend.split(slots.len()));
        let collect_chan =
            nmpic_model::ChannelModel::of(&self.backend.split(self.backend.kind.channels()));
        // Each shard's replay is independent; fan them across the same
        // workers the cycle-accurate gather uses.
        let jobs: Vec<(usize, &ShardSlot)> = slots.iter().enumerate().collect();
        let adapter = &self.sharded_adapter;
        let outs = nmpic_sim::pool::parallel_map_jobs(
            shard_workers(self.shard_workers),
            jobs,
            |(i, slot)| {
                if slot.nnz == 0 {
                    return ShardOut::default();
                }
                let cost = nmpic_model::shard_gather_cost(
                    adapter,
                    &unit_chan,
                    slot.idx_base,
                    slot.x_base,
                    partition.csr_shard(csr, i).col_idx(),
                );
                ShardOut {
                    cycles: cost.cycles.round() as u64,
                    payload_bytes: 8 * slot.nnz,
                    data_bytes: cost.offchip_bytes,
                    ..ShardOut::default()
                }
            },
        );
        let collect = nmpic_model::collect_cost(csr.rows(), &collect_chan);
        let gather = outs.iter().map(|o| o.cycles).max().unwrap_or(0);
        let per_vector = IterReport {
            cycles: gather + collect.cycles.round() as u64,
            indir_cycles: gather,
            offchip_bytes: outs.iter().map(|o| o.data_bytes).sum::<u64>() + collect.offchip_bytes,
        };
        ShardedExec::Analytic { per_vector, outs }
    }
}

struct BasePlan {
    cfg: BaseConfig,
    backend: BackendConfig,
    csr: Csr,
    chan: Box<dyn ChannelPort>,
    layout: BaseLayout,
    /// The plan-resident LLC: [`SpmvPlan::run`]/[`SpmvPlan::run_batch`]
    /// reset it to a cold start per call, [`SpmvPlan::run_into`] keeps
    /// the matrix lines warm across a solver's iterations and only
    /// invalidates the rewritten vector range. Plan-resident (rather
    /// than per-call) so the hot path reallocates nothing.
    llc: Cache,
}

impl BasePlan {
    /// Runs one SpMV per vector of `xs` into the matching `ys` buffer.
    /// Each vector rewrite invalidates the stale `x` lines of the LLC;
    /// the matrix lines stay warm (on a just-reset LLC the invalidation
    /// is a no-op).
    fn execute(&mut self, mode: ExecMode, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        let vec_lo = self.layout.vec_base;
        let vec_hi = vec_lo + 8 * self.csr.cols() as u64;
        let mut total = IterReport::default();
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.llc.invalidate_range(vec_lo, vec_hi);
            total.absorb(match mode {
                ExecMode::CycleAccurate => {
                    self.chan.reset_run_state();
                    write_base_vector(&mut *self.chan, &self.layout, x);
                    exec_base(
                        &mut *self.chan,
                        &self.csr,
                        &self.cfg,
                        &self.layout,
                        &mut self.llc,
                        x,
                        y,
                    )
                }
                ExecMode::Analytic => {
                    let l = &self.layout;
                    let cost = nmpic_model::base_cost(
                        &nmpic_model::BaseParams {
                            chunk: self.cfg.chunk,
                            llc_hit_latency: self.cfg.llc_hit_latency,
                            gather_issue_interval: self.cfg.gather_issue_interval,
                            macs_per_cycle: self.cfg.macs_per_cycle as u64,
                            row_overhead_cycles: self.cfg.row_overhead_cycles,
                            chan: nmpic_model::ChannelModel::of(&self.backend),
                        },
                        &nmpic_model::BaseAddrs {
                            ptr_base: l.ptr_base,
                            idx_base: l.idx_base,
                            val_base: l.val_base,
                            vec_base: l.vec_base,
                            res_base: l.res_base,
                        },
                        self.csr.row_ptr(),
                        self.csr.col_idx(),
                        &mut self.llc,
                    );
                    self.csr.spmv_fast_into(x, y);
                    IterReport::of(&cost)
                }
            });
        }
        total
    }
}

struct PackPlan {
    cfg: PackConfig,
    adapter: AdapterConfig,
    backend: BackendConfig,
    sell: Sell,
    row_of: Vec<u32>,
    chan: Box<dyn ChannelPort>,
    layout: PackLayout,
    unit: IndirectStreamUnit,
}

impl PackPlan {
    /// Runs `xs` in chunks of the plan's batch capacity: per chunk the
    /// vectors go to their resident slots and one tiled pass serves them
    /// all, fetching each tile's slice pointers and nonzeros once.
    fn execute(&mut self, mode: ExecMode, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        let capacity = self.layout.vec_bases.len();
        let mut total = IterReport::default();
        for (xs, ys) in xs.chunks(capacity).zip(ys.chunks_mut(capacity)) {
            total.absorb(match mode {
                ExecMode::CycleAccurate => {
                    self.chan.reset_run_state();
                    self.unit.reset();
                    for (slot, x) in xs.iter().enumerate() {
                        write_pack_vector(&mut *self.chan, &self.layout, slot, x);
                    }
                    exec_pack(
                        &mut *self.chan,
                        &mut self.unit,
                        &self.sell,
                        &self.cfg,
                        &self.layout,
                        &self.row_of,
                        xs,
                        ys,
                    )
                }
                ExecMode::Analytic => {
                    let vectors = xs.len();
                    let params = nmpic_model::PackParams {
                        tile_entries: self.cfg.tile_entries_batched(vectors).max(64),
                        ptr_count: self.sell.slice_ptr().len(),
                        rows: self.sell.rows(),
                        vectors,
                        compute_elems_per_cycle: self.cfg.compute_elems_per_cycle,
                        adapter: self.adapter.clone(),
                        chan: nmpic_model::ChannelModel::of(&self.backend),
                        idx_base: self.layout.idx_base,
                        vec_bases: self.layout.vec_bases[..vectors].to_vec(),
                    };
                    for (x, y) in xs.iter().zip(ys.iter_mut()) {
                        y.copy_from_slice(&self.sell.spmv(x));
                    }
                    IterReport::of(&nmpic_model::pack_cost(&params, self.sell.col_idx()))
                }
            });
        }
        total
    }
}

/// Where a shard unit's memory holds its index array and its copy of
/// `x`: the index array at 0, then `x`, block-aligned. Analytic pricing
/// reads the same addresses the simulated unit gathers from.
fn unit_layout(nnz: usize) -> (u64, u64) {
    (
        0,
        (4 * nnz.max(1) as u64).next_multiple_of(BLOCK_BYTES as u64),
    )
}

/// What both execution modes know of one shard.
struct ShardSlot {
    /// Index-array and `x` base addresses in the unit's memory.
    idx_base: u64,
    x_base: u64,
    /// First global row of the shard (merge offset for the worker's
    /// local accumulation buffer).
    row_start: usize,
    rows: usize,
    nnz: u64,
}

/// One unit's simulated state, owned by the worker thread that runs
/// its shard.
struct UnitSim {
    chan: Box<dyn ChannelPort>,
    unit: IndirectStreamUnit,
    /// Stream position → shard-local row.
    row_of: Vec<u32>,
    /// Worker-owned accumulation buffer, reused across runs so the
    /// solver hot path allocates nothing per iteration.
    local_y: Vec<f64>,
}

/// The simulated datapath of a cycle-accurate sharded plan: every
/// unit's DRAM image and the merged write-back path.
struct ShardSim {
    units: Vec<UnitSim>,
    collect_chan: Box<dyn ChannelPort>,
    scatter: ScatterUnit,
    collect_idx_base: u64,
    collect_res_base: u64,
    merge_rows: Vec<u32>,
    /// Merge-order result bits staged for the collection phase, reused
    /// across runs so the solver hot path allocates nothing per
    /// iteration.
    merge_bits: Vec<u64>,
    /// Per-shard outputs and scatter statistics of the first vector of
    /// the latest execution — the source of the report's
    /// [`ShardDetail`]. Gather timing and DRAM counters do not depend on
    /// vector values, so the first vector stands for the whole batch.
    first: Vec<ShardOut>,
    first_scatter: ScatterStats,
}

/// How a sharded plan executes, fixed at prepare.
enum ShardedExec {
    /// Step every unit and the write-back through simulated DRAM.
    Cycle(Box<ShardSim>),
    /// The plan's analytic price, computed once at prepare by
    /// [`SpmvEngine::analytic_costs`]: the cost of one vector and the
    /// per-shard outputs behind it. Nothing it depends on can change
    /// after prepare, so it is never invalidated.
    Analytic {
        per_vector: IterReport,
        outs: Vec<ShardOut>,
    },
}

struct ShardedPlan {
    adapter: AdapterConfig,
    backend: BackendConfig,
    units: usize,
    csr: Csr,
    partition: Partition,
    slots: Vec<ShardSlot>,
    /// Worker-thread override for the per-shard fan-out (`None` = the
    /// shared pool's `NMPIC_JOBS` policy; see [`shard_workers`]).
    workers: Option<usize>,
    exec: ShardedExec,
}

/// What one shard's worker thread hands back to the merge: everything the
/// report needs, computed entirely on state the worker owned exclusively
/// (the result rows themselves land in the unit's `local_y`).
#[derive(Clone, Copy, Default)]
struct ShardOut {
    cycles: u64,
    /// Gathered payload bytes (8 per nonzero).
    payload_bytes: u64,
    stats: AdapterStats,
    dram: Option<HbmStats>,
    data_bytes: u64,
}

/// Worker threads for a sharded plan's per-shard fan-out, shared by the
/// cycle-accurate gather and analytic pricing.
fn shard_workers(workers: Option<usize>) -> usize {
    workers.unwrap_or_else(nmpic_sim::pool::parallel_jobs)
}

impl ShardSim {
    /// The gather phase: every shard's unit simulation runs on its own
    /// worker thread. Each worker owns its unit exclusively (channel,
    /// unit, and a local accumulation buffer), so the simulations are
    /// bit-for-bit the same as a serial loop whatever the worker count.
    fn gather(
        &mut self,
        workers: usize,
        csr: &Csr,
        partition: &Partition,
        slots: &[ShardSlot],
        x: &[f64],
    ) -> Vec<ShardOut> {
        let jobs: Vec<(usize, &ShardSlot, &mut UnitSim)> = slots
            .iter()
            .zip(self.units.iter_mut())
            .enumerate()
            .map(|(i, (slot, sim))| (i, slot, sim))
            .collect();
        nmpic_sim::pool::parallel_map_jobs(workers, jobs, |(i, slot, sim)| {
            sim.local_y.fill(0.0);
            if slot.nnz == 0 {
                return ShardOut::default();
            }
            sim.chan.reset_run_state();
            sim.chan.memory_mut().write_f64_slice(slot.x_base, x);
            sim.unit.reset();
            let shard = partition.csr_shard(csr, i);
            let (cycles, stats, dram) = exec_shard_gather(
                &mut *sim.chan,
                &mut sim.unit,
                slot.idx_base,
                slot.x_base,
                shard.values(),
                &sim.row_of,
                &mut sim.local_y,
            );
            ShardOut {
                cycles,
                payload_bytes: stats.payload_bytes,
                stats,
                dram,
                data_bytes: sim.chan.data_bytes(),
            }
        })
    }

    /// The merged collection of one result vector through the scatter
    /// unit, staged through the plan-resident merge buffer. Returns the
    /// phase's cycles.
    fn write_back(&mut self, y: &[f64]) -> u64 {
        self.collect_chan.reset_run_state();
        self.scatter.reset();
        self.merge_bits.clear();
        self.merge_bits
            .extend(self.merge_rows.iter().map(|&r| y[r as usize].to_bits()));
        exec_merged_writeback(
            &mut *self.collect_chan,
            &mut self.scatter,
            self.collect_idx_base,
            self.collect_res_base,
            &self.merge_bits,
            y.len(),
        )
    }

    /// `true` iff the result array the latest write-back left in the
    /// collection channel's memory holds exactly the bits of `y`.
    fn written_back(&self, y: &[f64]) -> bool {
        let mem = self.collect_chan.memory();
        (0..y.len() as u64)
            .zip(y)
            .all(|(r, v)| mem.read_u64(self.collect_res_base + 8 * r) == v.to_bits())
    }
}

impl ShardedPlan {
    /// Runs one SpMV per vector. Cycle-accurate: every shard's gather
    /// (in parallel, on worker-owned units), the merge into `y` in fixed
    /// shard order, then the merged write-back phase; the cost is the
    /// slowest shard's gather plus the write-back. Analytic: the native
    /// kernel, plus the price computed at prepare — the cost does not
    /// depend on vector values, so one evaluation covers every vector
    /// of the plan's life.
    fn execute(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        let mut total = IterReport::default();
        let workers = shard_workers(self.workers);
        match &mut self.exec {
            ShardedExec::Cycle(sim) => {
                for (v, (x, y)) in xs.iter().zip(ys.iter_mut()).enumerate() {
                    let outs = sim.gather(workers, &self.csr, &self.partition, &self.slots, x);
                    let mut gather = 0u64;
                    let mut offchip = 0u64;
                    for ((slot, unit), out) in self.slots.iter().zip(&sim.units).zip(&outs) {
                        y[slot.row_start..slot.row_start + slot.rows]
                            .copy_from_slice(&unit.local_y);
                        gather = gather.max(out.cycles);
                        offchip += out.data_bytes;
                    }
                    let collect = sim.write_back(y);
                    total.absorb(IterReport {
                        cycles: gather + collect,
                        indir_cycles: gather,
                        offchip_bytes: offchip + sim.collect_chan.data_bytes(),
                    });
                    if v == 0 {
                        sim.first = outs;
                        sim.first_scatter = sim.scatter.stats();
                    }
                }
            }
            ShardedExec::Analytic { per_vector, .. } => {
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    self.csr.spmv_fast_into(x, y);
                    total.absorb(*per_vector);
                }
            }
        }
        total
    }

    /// `true` iff the latest cycle-accurate write-back left exactly the
    /// bits of `y` in DRAM; an analytic plan writes nothing back.
    fn written_back(&self, y: &[f64]) -> bool {
        match &self.exec {
            ShardedExec::Cycle(sim) => sim.written_back(y),
            ShardedExec::Analytic { .. } => false,
        }
    }

    /// The multi-unit detail of a run whose summed cost is `cost` over
    /// `vectors` vectors, with per-shard rows from the first vector (or
    /// the analytic price).
    fn detail(&self, cost: IterReport, vectors: usize) -> ShardDetail {
        let (outs, scatter) = match &self.exec {
            ShardedExec::Cycle(sim) => (&sim.first, sim.first_scatter),
            ShardedExec::Analytic { outs, .. } => (outs, ScatterStats::default()),
        };
        let mut cycle_ext = Extrema::new();
        let mut bus_ext = Extrema::new();
        let mut dram: Option<HbmStats> = None;
        let mut payload_bytes = 0u64;
        let mut per_shard = Vec::with_capacity(self.slots.len());
        for (i, (slot, out)) in self.slots.iter().zip(outs).enumerate() {
            cycle_ext.add(out.cycles as f64);
            if let Some(d) = out.dram {
                bus_ext.add(d.bus_busy_cycles as f64);
                dram = Some(dram.map_or(d, |acc| acc.merge(&d)));
            }
            payload_bytes += out.payload_bytes;
            per_shard.push(ShardReport {
                shard: i,
                rows: slot.rows,
                nnz: slot.nnz,
                cycles: out.cycles,
                indir_gbps: if out.cycles == 0 {
                    0.0
                } else {
                    out.payload_bytes as f64 / out.cycles as f64
                },
                adapter: out.stats,
                dram: out.dram,
            });
        }
        let gather_cycles = cost.indir_cycles;
        ShardDetail {
            units: self.units,
            gather_cycles,
            collect_cycles: cost.cycles - gather_cycles,
            aggregate_gbps: if gather_cycles == 0 {
                0.0
            } else {
                (payload_bytes * vectors as u64) as f64 / gather_cycles as f64
            },
            nnz_imbalance: self.partition.nnz_imbalance(),
            cycle_imbalance: cycle_ext.imbalance(),
            bus_imbalance: bus_ext.imbalance(),
            scatter,
            dram,
            per_shard,
        }
    }
}

enum PlanInner {
    Base(Box<BasePlan>),
    Pack(Box<PackPlan>),
    Sharded(Box<ShardedPlan>),
}

impl PlanInner {
    /// Forwards to the plan kind's one `execute`.
    fn dispatch(&mut self, mode: ExecMode, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        match self {
            PlanInner::Base(p) => p.execute(mode, xs, ys),
            PlanInner::Pack(p) => p.execute(mode, xs, ys),
            PlanInner::Sharded(p) => p.execute(xs, ys),
        }
    }
}

/// A prepared SpMV plan: matrix image resident in a warm backend,
/// partitioning/conversion done. Run it against as many vectors as the
/// workload brings.
pub struct SpmvPlan {
    exec: ExecMode,
    inner: PlanInner,
}

impl SpmvPlan {
    /// Executes one SpMV (`y = A·x`) against the warm plan state and
    /// returns the unified report.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix's column count, or on
    /// a cycle-budget overrun (model deadlock).
    pub fn run(&mut self, x: &[f64]) -> RunReport {
        self.run_vectors(&[x])
    }

    /// Executes a batch of SpMVs (one per vector of `xs`) and returns a
    /// single report with per-batch amortized stats. On the pack system
    /// each tile's slice pointers and nonzeros are fetched once for the
    /// whole batch (up to the engine's batch capacity per chunk); on the
    /// baseline the LLC's matrix lines stay warm across the batch. The
    /// sharded engine runs vectors back to back on warm units.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched vector lengths.
    pub fn run_batch(&mut self, xs: &[Vec<f64>]) -> RunReport {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        self.run_vectors(&refs)
    }

    /// Executes one SpMV (`y = A·x`) against the warm plan state,
    /// **writing the result into the caller's preallocated `y` buffer**
    /// — the zero-realloc hot path iterative solvers
    /// ([`crate::Solver`]) drive hundreds of times per system solve.
    ///
    /// Per call this rewrites only the vector region of the resident
    /// memory image and resets the controller/unit state; the matrix
    /// layout, partitioning and format conversion done by
    /// [`SpmvEngine::prepare`] are never repeated, and no result vector,
    /// accumulation buffer or cache structure is allocated (they are
    /// plan-resident and reused). On the baseline system the LLC keeps
    /// its **matrix** lines warm across calls and only the stale `x`
    /// range is invalidated ([`Cache::invalidate_range`]) — the same
    /// reuse pattern as a batched run, which is exactly what an
    /// `x ← f(A·x)` feedback loop produces.
    ///
    /// This is the same execution [`SpmvPlan::run`] performs, so the
    /// result bytes are identical (pinned by tests); unlike `run` this
    /// path performs **no golden-model verification** and returns the
    /// lean [`IterReport`] instead of a [`RunReport`] — a solver checks
    /// convergence, not per-iteration golden equality.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`, `y.len() != rows`, or on a
    /// cycle-budget overrun (model deadlock).
    pub fn run_into(&mut self, x: &[f64], y: &mut [f64]) -> IterReport {
        assert_eq!(x.len(), self.cols(), "vector length must equal cols");
        assert_eq!(y.len(), self.rows(), "result buffer length must equal rows");
        self.inner.dispatch(self.exec, &[x], &mut [y])
    }

    /// The plan's execution mode (inherited from the engine).
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// The plan's report label (`base`, `pack256`, `sharded x4 (...)`).
    pub fn label(&self) -> String {
        match &self.inner {
            PlanInner::Base(_) => "base".to_string(),
            PlanInner::Pack(p) => p.adapter.label(),
            PlanInner::Sharded(p) => format!(
                "sharded x{} ({}, {})",
                p.units,
                p.adapter.label(),
                p.backend.label()
            ),
        }
    }

    /// Rows of the prepared matrix.
    pub fn rows(&self) -> usize {
        match &self.inner {
            PlanInner::Base(p) => p.csr.rows(),
            PlanInner::Pack(p) => p.sell.rows(),
            PlanInner::Sharded(p) => p.csr.rows(),
        }
    }

    /// Columns of the prepared matrix (= required vector length).
    pub fn cols(&self) -> usize {
        match &self.inner {
            PlanInner::Base(p) => p.csr.cols(),
            PlanInner::Pack(p) => p.sell.cols(),
            PlanInner::Sharded(p) => p.csr.cols(),
        }
    }

    /// Stored nonzeros of the prepared matrix.
    pub fn nnz(&self) -> usize {
        match &self.inner {
            PlanInner::Base(p) => p.csr.nnz(),
            PlanInner::Pack(p) => p.sell.nnz(),
            PlanInner::Sharded(p) => p.csr.nnz(),
        }
    }

    /// Cold start, execution, golden verification, report. The LLC is
    /// reset so every run starts from the same deterministic state; the
    /// channels and units are reset inside the execution itself.
    fn run_vectors(&mut self, xs: &[&[f64]]) -> RunReport {
        assert!(!xs.is_empty(), "at least one vector");
        for x in xs {
            assert_eq!(x.len(), self.cols(), "vector length must equal cols");
        }
        if let PlanInner::Base(p) = &mut self.inner {
            p.llc.reset();
        }
        let mut ys = vec![vec![0.0f64; self.rows()]; xs.len()];
        let mut bufs: Vec<&mut [f64]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        let cost = self.inner.dispatch(self.exec, xs, &mut bufs);
        let n = xs.len() as u64;
        // Analytic values come from the golden kernels themselves, so
        // only simulated datapaths are checked against them.
        let verified = self.exec == ExecMode::Analytic || self.verify(xs, &ys);
        let (entries, ideal_bytes, shards) = match &self.inner {
            PlanInner::Base(p) => (p.csr.nnz(), base_ideal_bytes(&p.csr, n), None),
            PlanInner::Pack(p) => (p.sell.padded_len(), pack_ideal_bytes(&p.sell, n), None),
            PlanInner::Sharded(p) => (
                p.csr.nnz(),
                base_ideal_bytes(&p.csr, n),
                Some(p.detail(cost, xs.len())),
            ),
        };
        RunReport {
            label: self.label(),
            cycles: cost.cycles,
            vectors: xs.len(),
            indir_cycles: cost.indir_cycles,
            nnz: self.nnz() as u64,
            entries: entries as u64,
            offchip_bytes: cost.offchip_bytes,
            ideal_bytes,
            verified,
            ys,
            shards,
        }
    }

    /// `true` iff every result is bit-identical to the golden kernel of
    /// the plan's format (`Csr::spmv_fast`, byte-identical to
    /// `Csr::spmv`, for CSR systems; `Sell::spmv` for pack). The sharded
    /// system must also have written the last result to its DRAM result
    /// array; write-back addresses do not depend on vector values, so
    /// the last vector checks the write path for the whole batch.
    fn verify(&self, xs: &[&[f64]], ys: &[Vec<f64>]) -> bool {
        let golden = |x: &[f64]| match &self.inner {
            PlanInner::Base(p) => p.csr.spmv_fast(x),
            PlanInner::Pack(p) => p.sell.spmv(x),
            PlanInner::Sharded(p) => p.csr.spmv_fast(x),
        };
        let values_ok = xs.iter().zip(ys).all(|(x, y)| bits_equal(y, &golden(x)));
        match &self.inner {
            PlanInner::Sharded(p) => values_ok && ys.last().is_some_and(|y| p.written_back(y)),
            _ => values_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::golden_x;
    use nmpic_sparse::gen::banded_fem;

    fn x_for(csr: &Csr) -> Vec<f64> {
        (0..csr.cols()).map(golden_x).collect()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let e = SpmvEngine::builder().build();
        assert_eq!(e.backend().label(), "hbm");
        assert_eq!(e.system(), &SystemKind::Pack(AdapterConfig::mlp(256)));
        let e = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(4))
            .system(SystemKind::Base)
            .build();
        assert_eq!(e.backend().label(), "hbm x4");
        assert_eq!(e.system(), &SystemKind::Base);
    }

    #[test]
    fn every_kind_runs_and_verifies() {
        let csr = banded_fem(192, 6, 16, 2);
        let x = x_for(&csr);
        for system in [
            SystemKind::Base,
            SystemKind::Pack(AdapterConfig::mlp(64)),
            SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            },
        ] {
            let engine = SpmvEngine::builder().system(system.clone()).build();
            let mut plan = engine.prepare(&csr);
            let r = plan.run(&x);
            assert!(r.verified, "{system}: golden mismatch");
            assert!(r.cycles > 0);
            assert_eq!(r.vectors, 1);
            assert_eq!(r.ys.len(), 1);
            assert_eq!(
                r.shards.is_some(),
                matches!(system, SystemKind::Sharded { .. })
            );
        }
    }

    #[test]
    fn plan_runs_are_deterministic() {
        let csr = banded_fem(256, 8, 24, 7);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(256)))
            .build();
        let mut plan = engine.prepare(&csr);
        let a = plan.run(&x);
        let b = plan.run(&x);
        assert_eq!(a.cycles, b.cycles, "warm plan must not drift");
        assert_eq!(a.offchip_bytes, b.offchip_bytes);
        assert_eq!(a.y_bits(), b.y_bits());
    }

    #[test]
    fn batch_amortizes_contiguous_streams_on_pack() {
        let csr = banded_fem(1024, 10, 48, 9);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(256)))
            .batch_capacity(4)
            .build();
        let mut plan = engine.prepare(&csr);
        let single = plan.run(&x);
        let batch = plan.run_batch(&vec![x.clone(); 4]);
        assert!(single.verified && batch.verified);
        assert_eq!(batch.vectors, 4);
        for ybits in batch
            .ys
            .iter()
            .map(|y| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        {
            assert_eq!(ybits, single.y_bits(), "batch results must match run()");
        }
        assert!(
            batch.cycles_per_vector() < single.cycles_per_vector(),
            "B=4 must amortize: {:.0} vs {:.0} cycles/vector",
            batch.cycles_per_vector(),
            single.cycles_per_vector()
        );
        // Off-chip traffic amortizes too: the matrix streams moved once.
        assert!(
            (batch.offchip_bytes as f64) < 4.0 * single.offchip_bytes as f64,
            "batch traffic {} must undercut 4x single {}",
            batch.offchip_bytes,
            single.offchip_bytes
        );
    }

    #[test]
    fn batches_larger_than_capacity_chunk() {
        let csr = banded_fem(128, 6, 16, 3);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(64)))
            .batch_capacity(2)
            .build();
        let mut plan = engine.prepare(&csr);
        let r = plan.run_batch(&vec![x.clone(); 5]);
        assert!(r.verified);
        assert_eq!(r.vectors, 5);
        assert_eq!(r.ys.len(), 5);
    }

    /// The tentpole guarantee of the parallel shard executor: any worker
    /// count produces the exact serial result — same bytes, same cycle
    /// and traffic accounting, same per-shard detail — in both modes
    /// (analytic pricing fans out over the same workers as the gather).
    #[test]
    fn parallel_shard_execution_is_byte_identical_to_serial() {
        let csr = banded_fem(512, 8, 24, 11);
        let x = x_for(&csr);
        for mode in [ExecMode::CycleAccurate, ExecMode::Analytic] {
            let mut reference: Option<RunReport> = None;
            for workers in [1usize, 2, 4, 8] {
                let engine = SpmvEngine::builder()
                    .backend(BackendConfig::interleaved(4))
                    .system(SystemKind::Sharded {
                        units: 4,
                        strategy: PartitionStrategy::ByNnz,
                    })
                    .exec_mode(mode)
                    .shard_workers(workers)
                    .build();
                let mut plan = engine.prepare(&csr);
                let r = plan.run(&x);
                let at = format!("{mode}, {workers} workers");
                assert!(r.verified, "{at}: golden mismatch");
                match &reference {
                    None => reference = Some(r),
                    Some(serial) => {
                        assert_eq!(r.y_bits(), serial.y_bits(), "{at}");
                        assert_eq!(r.cycles, serial.cycles, "{at}");
                        assert_eq!(r.offchip_bytes, serial.offchip_bytes, "{at}");
                        assert_eq!(
                            format!("{:?}", r.shards().expect("sharded")),
                            format!("{:?}", serial.shards().expect("sharded")),
                            "{at}: per-shard detail drifted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard worker")]
    fn zero_shard_workers_panics() {
        let _ = SpmvEngine::builder().shard_workers(0);
    }

    #[test]
    #[should_panic(expected = "prepare_sell is only valid")]
    fn prepare_sell_rejects_non_pack() {
        let csr = banded_fem(64, 4, 8, 1);
        let sell = Sell::from_csr_default(&csr);
        let engine = SpmvEngine::builder().system(SystemKind::Base).build();
        let _ = engine.prepare_sell(&sell);
    }

    #[test]
    fn system_kind_parses_from_str() {
        assert_eq!("base".parse::<SystemKind>().unwrap(), SystemKind::Base);
        assert_eq!(
            "pack".parse::<SystemKind>().unwrap(),
            SystemKind::Pack(AdapterConfig::mlp(256))
        );
        assert_eq!(
            "pack0".parse::<SystemKind>().unwrap(),
            SystemKind::Pack(AdapterConfig::mlp_nc())
        );
        assert_eq!(
            "PACK64".parse::<SystemKind>().unwrap(),
            SystemKind::Pack(AdapterConfig::mlp(64))
        );
        assert_eq!(
            "packseq256".parse::<SystemKind>().unwrap(),
            SystemKind::Pack(AdapterConfig::seq(256))
        );
        assert_eq!(
            "sharded4".parse::<SystemKind>().unwrap(),
            SystemKind::Sharded {
                units: 4,
                strategy: PartitionStrategy::ByNnz
            }
        );
        assert_eq!(
            "sharded".parse::<SystemKind>().unwrap(),
            SystemKind::Sharded {
                units: 1,
                strategy: PartitionStrategy::ByNnz
            }
        );
        // Invalid windows and unit counts are rejected, not panicked on.
        for bad in ["pack48", "pack4", "sharded0", "dramsys", ""] {
            assert!(bad.parse::<SystemKind>().is_err(), "{bad}");
        }
        let err = "pack48".parse::<SystemKind>().unwrap_err();
        assert!(err.to_string().contains("pack48"));
    }

    #[test]
    fn labels_follow_convention() {
        let csr = banded_fem(64, 4, 8, 1);
        let engine = SpmvEngine::builder().system(SystemKind::Base).build();
        assert_eq!(engine.prepare(&csr).label(), "base");
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(64)))
            .build();
        assert_eq!(engine.prepare(&csr).label(), "pack64");
        let engine = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(8))
            .system(SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            })
            .build();
        assert_eq!(engine.prepare(&csr).label(), "sharded x2 (pack256, hbm x8)");
    }
}
