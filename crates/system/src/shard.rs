//! The sharded multi-unit SpMV engine: K parallel indexing/coalescing
//! units, one per shard of an nnz-balanced row partition.
//!
//! The paper replicates its near-memory unit per memory channel; the
//! single-unit harness in `nmpic-core` therefore under-reports what the
//! proposed organization can deliver on a multi-channel stack — one
//! adapter's 512 b upstream port caps delivered indirect bandwidth at
//! 64 GB/s no matter how many channels sit behind it. The sharded system
//! (built through [`crate::SpmvEngine`] with
//! [`crate::SystemKind::Sharded`]) removes that cap:
//!
//! 1. **Partition** — rows split K ways by
//!    [`nmpic_sparse::partition::by_nnz`] (prefix-sum nonzero balancing,
//!    SparseP-style) or [`nmpic_sparse::partition::by_rows`].
//! 2. **Gather + compute** — each shard gets its own
//!    [`IndirectStreamUnit`] bound to its slice of the memory system
//!    ([`nmpic_mem::BackendConfig::split`]), gathers `x[col]` for its
//!    portion of the index stream, and accumulates its rows of `y`. Units
//!    share nothing, so the phase's latency is the **slowest** shard's
//!    latency — the quantity the imbalance metrics explain.
//! 3. **Merged collection** — completed rows from all shards merge
//!    through a [`MergedCollector`] (round-robin
//!    [`nmpic_core::ShardArbiter`] order) into one [`ScatterUnit`] burst
//!    that writes the global result array with coalesced wide writes.
//!
//! The engine moves real data end to end: the merged result, and the
//! result array read back from the collection channel, must be
//! **byte-identical** to the golden [`nmpic_sparse::Csr::spmv`] (shards
//! accumulate in the same per-row order, so even floating-point rounding
//! matches).

use std::fmt;
use std::str::FromStr;

use nmpic_axi::{ElemSize, PackRequest, Packer, Unpacker};
use nmpic_core::{AdapterStats, IndirectStreamUnit, MergedCollector, ScatterRequest, ScatterUnit};
use nmpic_mem::{ChannelPort, HbmStats, BLOCK_BYTES};
use nmpic_sparse::partition::Partition;

/// How rows are divided across units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Nonzero-balanced prefix-sum split (the default; SparseP's lever).
    #[default]
    ByNnz,
    /// Equal row counts — the naive baseline, kept for comparison.
    ByRows,
}

impl fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionStrategy::ByNnz => write!(f, "nnz"),
            PartitionStrategy::ByRows => write!(f, "rows"),
        }
    }
}

/// Error returned when a partition-strategy name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePartitionError(String);

impl fmt::Display for ParsePartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown partition strategy '{}': expected 'nnz' (nonzero-balanced) or 'rows'",
            self.0
        )
    }
}

impl std::error::Error for ParsePartitionError {}

impl FromStr for PartitionStrategy {
    type Err = ParsePartitionError;

    /// Parses `nnz`/`by_nnz` or `rows`/`by_rows` (case-insensitive), so
    /// experiments can select the strategy via the `NMPIC_PARTITION`
    /// environment knob the same way `NMPIC_BACKEND`-style strings pick
    /// backends.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('-', "_").as_str() {
            "nnz" | "by_nnz" | "bynnz" => Ok(PartitionStrategy::ByNnz),
            "rows" | "by_rows" | "byrows" => Ok(PartitionStrategy::ByRows),
            _ => Err(ParsePartitionError(s.to_string())),
        }
    }
}

/// Per-shard measurement inside a [`crate::ShardDetail`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Rows owned by the shard.
    pub rows: usize,
    /// Stored nonzeros (= gathered elements) of the shard.
    pub nnz: u64,
    /// Cycles this shard's unit needed to drain its gather stream.
    pub cycles: u64,
    /// Delivered indirect bandwidth of this unit in GB/s at 1 GHz.
    pub indir_gbps: f64,
    /// Adapter statistics of this unit.
    pub adapter: AdapterStats,
    /// DRAM statistics of this unit's backend slice, when modelled.
    pub dram: Option<HbmStats>,
}

/// Builds the merged write-back row order for a partition: each shard
/// contributes its rows in ascending order, interleaved one 64 B line
/// (8 rows) per round-robin grant so the scatter unit's write warps keep
/// coalescing. Depends only on the partition, so prepared plans compute
/// it once.
pub(crate) fn merge_order(partition: &Partition, units: usize) -> Vec<u32> {
    let mut collector = MergedCollector::with_chunk(units, BLOCK_BYTES / 8);
    for i in 0..units {
        for row in partition.range(i) {
            let row = match u32::try_from(row) {
                Ok(r) => r,
                Err(_) => {
                    // nmpic-lint: allow(L2) — documented panic: merged write-back row ids are 32 b by the paper's index-width contract; a wrapped id would scatter y to the wrong line
                    panic!("row {row} does not fit the 32 b row-id width")
                }
            };
            collector.push(i, row, 0);
        }
    }
    collector.drain().into_iter().map(|(row, _)| row).collect()
}

/// Runs one shard's indirect gather on a **warm** channel/unit pair (the
/// caller resets both and writes `x` at `elem_base` beforehand; the index
/// array at `idx_base` was written at prepare time) and accumulates the
/// shard's rows of `y`. Returns `(cycles, adapter stats, dram stats)`.
pub(crate) fn exec_shard_gather(
    chan: &mut dyn ChannelPort,
    unit: &mut IndirectStreamUnit,
    idx_base: u64,
    elem_base: u64,
    values: &[f64],
    row_of_pos: &[u32],
    y: &mut [f64],
) -> (u64, AdapterStats, Option<HbmStats>) {
    let count = values.len() as u64;
    unit.begin(PackRequest::Indirect {
        idx_base,
        idx_size: ElemSize::B4,
        count,
        elem_base,
        elem_size: ElemSize::B8,
    })
    // nmpic-lint: allow(L2) — invariant: the caller resets the unit before each shard, and a reset unit always accepts a burst
    .expect("reset unit accepts a burst");

    let mut unpacker = Unpacker::new(ElemSize::B8);
    let mut pos = 0usize;
    let mut now = 0u64;
    let budget = 200_000 + count * 256;
    while !unit.is_done() {
        unit.tick(now, chan);
        chan.tick(now);
        while let Some(beat) = unit.pop_beat() {
            unpacker.push_beat(&beat);
            while let Some(bits) = unpacker.pop() {
                // The packer restores stream order, so position `pos`
                // pairs the gathered x element with its nonzero value;
                // per-row accumulation order equals `Csr::spmv`'s.
                y[row_of_pos[pos] as usize] += values[pos] * f64::from_bits(bits);
                pos += 1;
            }
        }
        now += 1;
        assert!(now < budget, "shard gather deadlock after {now} cycles");
    }
    assert_eq!(pos, values.len(), "every element delivered exactly once");
    (now, unit.stats(), chan.dram_stats())
}

/// Streams the merged result bits through a **warm** scatter unit (the
/// caller resets the channel and unit; the merge-order index array at
/// `idx_base` was written at prepare time) into the result array.
/// Returns the phase's cycles; the unit keeps its scatter statistics.
pub(crate) fn exec_merged_writeback(
    chan: &mut dyn ChannelPort,
    unit: &mut ScatterUnit,
    idx_base: u64,
    res_base: u64,
    bits_in_order: &[u64],
    rows: usize,
) -> u64 {
    unit.begin(ScatterRequest {
        idx_base,
        idx_size: ElemSize::B4,
        count: rows as u64,
        elem_base: res_base,
        elem_size: ElemSize::B8,
    })
    // nmpic-lint: allow(L2) — invariant: the caller resets the scatter unit before each write-back burst
    .expect("reset scatter unit");

    let mut packer = Packer::new(ElemSize::B8);
    let mut pending = bits_in_order.iter().copied();
    let mut exhausted = false;
    let mut staged = None;
    let mut now = 0u64;
    let budget = 200_000 + rows as u64 * 256;
    while !unit.is_done(&*chan) {
        if staged.is_none() {
            while packer.pending() < 8 && !exhausted {
                match pending.next() {
                    Some(bits) => packer.push(bits),
                    None => exhausted = true,
                }
            }
            staged = packer
                .pop_beat()
                .or_else(|| if exhausted { packer.flush() } else { None });
        }
        if let Some(beat) = staged.take() {
            if !unit.push_beat(&beat) {
                staged = Some(beat);
            }
        }
        unit.tick(now, chan);
        chan.tick(now);
        now += 1;
        assert!(
            now < budget,
            "merged collection deadlock after {now} cycles"
        );
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{golden_x, RunReport, ShardDetail, SpmvEngine, SystemKind};
    use nmpic_mem::BackendConfig;
    use nmpic_sparse::gen::{banded_fem, circuit};
    use nmpic_sparse::Csr;

    /// One cold sharded run over the golden vector: `units` MLP256 units
    /// on `backend`.
    fn run_on(
        csr: &Csr,
        units: usize,
        strategy: PartitionStrategy,
        backend: BackendConfig,
    ) -> RunReport {
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        SpmvEngine::builder()
            .backend(backend)
            .system(SystemKind::Sharded { units, strategy })
            .build()
            .prepare(csr)
            .run(&x)
    }

    /// The scaling-study configuration: nnz-balanced shards over an
    /// 8-channel interleaved HBM stack.
    fn run(csr: &Csr, units: usize) -> RunReport {
        run_on(
            csr,
            units,
            PartitionStrategy::ByNnz,
            BackendConfig::interleaved(8),
        )
    }

    fn detail(r: &RunReport) -> &ShardDetail {
        r.shards().expect("sharded plans carry detail")
    }

    #[test]
    fn sharded_result_is_byte_identical_across_unit_counts() {
        let csr = circuit(384, 4, 24, 0.1, 5, 11);
        let baseline = run(&csr, 1);
        assert!(baseline.verified);
        for units in [2, 3, 4, 8] {
            let r = run(&csr, units);
            assert!(r.verified, "x{units} failed golden verification");
            assert_eq!(r.y_bits(), baseline.y_bits(), "x{units} diverged");
        }
    }

    #[test]
    fn sharded_result_is_byte_identical_on_every_backend() {
        let csr = banded_fem(300, 8, 24, 13);
        let mut references: Option<Vec<u64>> = None;
        for backend in [
            BackendConfig::ideal(),
            BackendConfig::hbm(),
            BackendConfig::interleaved(4),
        ] {
            for units in [1usize, 4] {
                let r = run_on(&csr, units, PartitionStrategy::ByNnz, backend.clone());
                assert!(r.verified, "{} x{units}", backend.label());
                match &references {
                    Some(bits) => assert_eq!(&r.y_bits(), bits, "{}", backend.label()),
                    None => references = Some(r.y_bits()),
                }
            }
        }
    }

    #[test]
    fn more_units_cut_gather_latency_and_raise_aggregate_bandwidth() {
        let csr = banded_fem(2048, 10, 48, 3);
        let r1 = run(&csr, 1);
        let r4 = run(&csr, 4);
        assert!(r1.verified && r4.verified);
        let (d1, d4) = (detail(&r1), detail(&r4));
        assert!(
            d4.gather_cycles < d1.gather_cycles,
            "4 units must drain faster: {} vs {}",
            d4.gather_cycles,
            d1.gather_cycles
        );
        assert!(
            d4.aggregate_gbps > d1.aggregate_gbps,
            "aggregate bandwidth must rise: {:.1} vs {:.1}",
            d4.aggregate_gbps,
            d1.aggregate_gbps
        );
    }

    /// A deterministically skewed matrix: the first quarter of the rows
    /// are dense (64 nnz), the rest sparse (4 nnz) — the hub-and-spoke
    /// shape where equal-row splitting collapses.
    fn skewed(rows: usize) -> Csr {
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            let width = if r < rows / 4 { 64 } else { 4 };
            for j in 0..width {
                col_idx.push(((r * 31 + j * 7) % rows) as u32);
                values.push((r + j) as f64 * 0.25 - 1.0);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr::from_parts(rows, rows, row_ptr, col_idx, values).unwrap()
    }

    #[test]
    fn by_nnz_beats_by_rows_on_skewed_matrices() {
        let csr = skewed(512);
        let backend = BackendConfig::interleaved(8);
        let nnz = run_on(&csr, 4, PartitionStrategy::ByNnz, backend.clone());
        let rows = run_on(&csr, 4, PartitionStrategy::ByRows, backend);
        assert!(nnz.verified && rows.verified);
        let (nnz, rows) = (detail(&nnz), detail(&rows));
        // Equal rows put all dense rows in shard 0: imbalance ≈ 2.6.
        assert!(
            nnz.nnz_imbalance < 1.1 && rows.nnz_imbalance > 2.0,
            "nnz split must balance what row split cannot: {:.3} vs {:.3}",
            nnz.nnz_imbalance,
            rows.nnz_imbalance
        );
        assert!(
            (nnz.gather_cycles as f64) < 0.7 * rows.gather_cycles as f64,
            "balanced shards must drain clearly faster: {} vs {}",
            nnz.gather_cycles,
            rows.gather_cycles
        );
    }

    #[test]
    fn report_accounts_phases_and_stats() {
        let csr = banded_fem(256, 6, 16, 5);
        let r = run(&csr, 2);
        let d = detail(&r);
        assert_eq!(r.cycles, d.gather_cycles + d.collect_cycles);
        assert!(d.collect_cycles > 0);
        assert_eq!(r.nnz, csr.nnz() as u64);
        assert!(d.nnz_imbalance >= 1.0 && d.cycle_imbalance >= 1.0);
        assert_eq!(d.scatter.elements_in, csr.rows() as u64);
        assert!(d.scatter.coalesce_rate() > 2.0, "rows coalesce into lines");
        let dram = d.dram.expect("hbm-backed run has dram stats");
        assert!(dram.reads > 0);
        assert_eq!(d.per_shard.len(), 2);
        assert!(r.label.contains("sharded x2"));
    }

    #[test]
    fn empty_shards_are_tolerated() {
        // 8 units over 3 rows: most shards own nothing.
        let csr = banded_fem(3, 2, 4, 1);
        let r = run(&csr, 8);
        assert!(r.verified);
        assert_eq!(
            detail(&r).per_shard.iter().map(|s| s.nnz).sum::<u64>(),
            r.nnz
        );
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let csr = banded_fem(8, 2, 4, 1);
        let _ = run(&csr, 0);
    }

    #[test]
    fn partition_strategy_parses_from_str() {
        for ok in ["nnz", "by_nnz", "BY-NNZ", " bynnz "] {
            assert_eq!(
                ok.parse::<PartitionStrategy>().unwrap(),
                PartitionStrategy::ByNnz
            );
        }
        for ok in ["rows", "by_rows", "ByRows"] {
            assert_eq!(
                ok.parse::<PartitionStrategy>().unwrap(),
                PartitionStrategy::ByRows
            );
        }
        assert!("hash".parse::<PartitionStrategy>().is_err());
        let err = "hash".parse::<PartitionStrategy>().unwrap_err();
        assert!(err.to_string().contains("hash"));
    }
}
