//! Structural (event-free) traffic model of the request coalescer.
//!
//! [`CoalescerTrafficModel`] replays an element address stream through
//! the coalescer's *window/CSHR semantics only* — W-entry windows,
//! parallel hit check against one open tag, oldest-first re-tagging, and
//! cross-window tag carry — without queues, timers or per-cycle
//! stepping. It predicts how many wide DRAM requests the real
//! [`Coalescer`](crate::Coalescer) issues for the stream, which is the
//! x-gather traffic term the analytic execution mode in `nmpic-model`
//! needs: every wide request is one 64 B line of off-chip traffic.
//!
//! The model is exact on steady-state streams (the regulator's partial
//! windows and the watchdog change *when* requests issue, not *how
//! many*) and costs O(1) hash work per element instead of hundreds of
//! simulated cycles.

use nmpic_mem::block_addr;

use crate::config::{AdapterConfig, CoalescerMode};

/// Counters accumulated by a [`CoalescerTrafficModel`] replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounts {
    /// Elements pushed through the model.
    pub elements: u64,
    /// Wide (64 B) requests the coalescer would issue downstream.
    pub wide_requests: u64,
    /// Elements that merged into an already-open block (window hit or
    /// cross-window carry) instead of costing a new wide request.
    pub reused: u64,
}

impl TrafficCounts {
    /// Elements served per wide request — the paper's coalesce rate.
    /// `0.0` when nothing was requested.
    pub fn coalesce_rate(&self) -> f64 {
        if self.wide_requests == 0 {
            0.0
        } else {
            self.elements as f64 / self.wide_requests as f64
        }
    }
}

/// Streaming structural model of the coalescer's wide-request count.
///
/// Feed element byte addresses in stream order with
/// [`CoalescerTrafficModel::push`]; read the prediction from
/// [`CoalescerTrafficModel::counts`] at any point. Window state mirrors
/// the hardware: each window holds `W` elements, every element whose
/// block was already adopted in the current window (or is the tag
/// carried across the boundary in cross-window mode) coalesces for
/// free, and each newly adopted block costs exactly one wide request
/// when its tag eventually retires.
///
/// # Example
///
/// ```
/// use nmpic_core::{AdapterConfig, CoalescerTrafficModel};
///
/// let mut m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
/// for k in 0..16u64 {
///     m.push(k * 8); // two windows, both fully inside blocks 0 and 64
/// }
/// assert_eq!(m.counts().wide_requests, 2);
/// assert!(m.counts().coalesce_rate() > 7.9);
/// ```
#[derive(Debug, Clone)]
pub struct CoalescerTrafficModel {
    window: usize,
    coalescing: bool,
    cross_window: bool,
    /// Block tag the CSHR holds open across the next window boundary.
    carry: Option<u64>,
    /// Last block adopted in the current window (the tag that will be
    /// open at the boundary, when any adoption happened).
    last_adopted: Option<u64>,
    /// Blocks that coalesce for free in the current window: everything
    /// adopted here plus the carried tag.
    adopted: WindowSet,
    /// Elements consumed by the current window so far.
    fill: usize,
    counts: TrafficCounts,
}

impl CoalescerTrafficModel {
    /// Builds the model for an adapter configuration. `MLPnc`
    /// (no-coalescing) configurations degrade to one wide request per
    /// element, exactly like the real request generator's direct path.
    pub fn new(cfg: &AdapterConfig) -> Self {
        let window = cfg.window.max(1);
        let coalescing = cfg.mode != CoalescerMode::None;
        Self {
            window,
            coalescing,
            cross_window: cfg.cross_window,
            carry: None,
            last_adopted: None,
            // The direct (MLPnc) path never consults the set.
            adopted: WindowSet::new(if coalescing { window + 1 } else { 0 }),
            fill: 0,
            counts: TrafficCounts::default(),
        }
    }

    /// Feeds one element byte address in stream order.
    pub fn push(&mut self, addr: u64) {
        self.counts.elements += 1;
        if !self.coalescing {
            self.counts.wide_requests += 1;
            return;
        }
        if self.fill == 0 {
            // A fresh window opens with the whole window visible to the
            // watcher; the carried tag (if any) coalesces its matches
            // anywhere in the window before any new adoption.
            self.adopted.clear();
            if let Some(b) = self.carry {
                self.adopted.insert(b);
            }
        }
        let block = block_addr(addr);
        if self.adopted.insert(block) {
            // A new block adoption: one wide request when it retires.
            self.last_adopted = Some(block);
            self.counts.wide_requests += 1;
        } else {
            self.counts.reused += 1;
        }
        self.fill += 1;
        if self.fill == self.window {
            self.close_window();
        }
    }

    /// Feeds a whole slice of element addresses.
    pub fn push_all(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for a in addrs {
            self.push(a);
        }
    }

    /// The counters accumulated so far.
    pub fn counts(&self) -> TrafficCounts {
        self.counts
    }

    /// Ends the current (possibly partial) window, as the regulator's
    /// fill timeout does at a stream tail, and resets for a fresh burst
    /// while keeping the counters.
    pub fn flush(&mut self) {
        self.close_window();
        self.carry = None;
        self.last_adopted = None;
    }

    fn close_window(&mut self) {
        self.fill = 0;
        if self.cross_window {
            // The tag open at the boundary survives: the last adoption,
            // or the previous carry when this window adopted nothing.
            if let Some(b) = self.last_adopted.take() {
                self.carry = Some(b);
            }
        } else {
            // Ablation mode retires the CSHR at every window boundary.
            self.carry = None;
            self.last_adopted = None;
        }
    }
}

/// The set of block tags open in one coalescer window: an
/// open-addressing table with linear probing, sized so that one window's
/// members (at most `W` adoptions plus the carried tag) fill at most
/// half of it. A slot is occupied only when its stamp equals the current
/// generation, so [`WindowSet::clear`] is one increment rather than a
/// sweep over the table.
#[derive(Debug, Clone)]
struct WindowSet {
    /// `(block tag, generation stamp)` per slot.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top
    /// bits.
    shift: u32,
    /// Stamp of the live members; never 0, the stamp of a fresh slot.
    generation: u32,
}

impl WindowSet {
    /// A set for at most `members` distinct tags between clears.
    fn new(members: usize) -> Self {
        let len = (2 * members).next_power_of_two().max(2);
        Self {
            slots: vec![(0, 0); len],
            shift: 64 - len.trailing_zeros(),
            generation: 1,
        }
    }

    /// Empties the set in O(1). When the stamp would wrap, every slot is
    /// reset once so no stale stamp can alias the new generation.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    /// Adds `block`; `true` iff it was not yet a member.
    fn insert(&mut self, block: u64) -> bool {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing of the line number (tags are 64 B aligned).
        let mut i = ((block >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let (tag, stamp) = &mut self.slots[i & mask];
            if *stamp != self.generation {
                *tag = block;
                *stamp = self.generation;
                return true;
            }
            if *tag == block {
                return false;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(cfg: &AdapterConfig, addrs: &[u64]) -> TrafficCounts {
        let mut m = CoalescerTrafficModel::new(cfg);
        m.push_all(addrs.iter().copied());
        m.counts()
    }

    #[test]
    fn all_same_block_is_one_wide_request() {
        let c = count(
            &AdapterConfig::mlp(8),
            &(0..8u64).map(|s| s * 8).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 1);
        assert_eq!(c.reused, 7);
    }

    #[test]
    fn distinct_blocks_cost_one_each() {
        let c = count(
            &AdapterConfig::mlp(8),
            &(0..8u64).map(|s| s * 64).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 8);
        assert_eq!(c.reused, 0);
    }

    #[test]
    fn cross_window_carry_matches_real_coalescer_counts() {
        // The cycle-accurate coalescer's pinned behaviours
        // (`coalescer.rs` tests): 24 same-block requests over three
        // windows plus one foreign block → 2 wide requests with carry,
        // one per window boundary without.
        let mut addrs: Vec<u64> = (0..24u64).map(|s| (s % 8) * 8).collect();
        addrs.push(4096);
        let carry = count(&AdapterConfig::mlp(8), &addrs);
        assert_eq!(carry.wide_requests, 2);
        let mut no_carry_cfg = AdapterConfig::mlp(8);
        no_carry_cfg.cross_window = false;
        let same_block: Vec<u64> = (0..32u64).map(|s| (s % 8) * 8).collect();
        assert_eq!(count(&no_carry_cfg, &same_block).wide_requests, 4);
        assert_eq!(count(&AdapterConfig::mlp(8), &same_block).wide_requests, 1);
    }

    #[test]
    fn interleaved_blocks_dedup_within_window() {
        // Alternating between two far-apart blocks: each window of 8
        // holds 4 of each → 2 adoptions per window; the carry saves at
        // most the re-adoption of the boundary tag.
        let addrs: Vec<u64> = (0..16u64).map(|s| (s % 2) * 1024 + (s / 2) * 8).collect();
        let c = count(&AdapterConfig::mlp(8), &addrs);
        assert!(
            (2..=4).contains(&c.wide_requests),
            "wide {}",
            c.wide_requests
        );
    }

    #[test]
    fn nocoal_mode_is_one_request_per_element() {
        let c = count(
            &AdapterConfig::mlp_nc(),
            &(0..100u64).map(|s| (s % 4) * 8).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 100);
        assert_eq!(c.coalesce_rate(), 1.0);
    }

    #[test]
    fn flush_ends_the_carry() {
        let mut m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
        m.push_all((0..8u64).map(|s| s * 8));
        m.flush();
        m.push_all((0..8u64).map(|s| s * 8));
        // Two separate bursts to the same block: no carry across flush.
        assert_eq!(m.counts().wide_requests, 2);
    }

    /// The window set as first written: a SipHash `HashSet` cleared at
    /// every window. The differential tests hold the open-addressing
    /// set to its counts.
    struct ReferenceModel {
        window: usize,
        coalescing: bool,
        cross_window: bool,
        carry: Option<u64>,
        last_adopted: Option<u64>,
        adopted: std::collections::HashSet<u64>,
        fill: usize,
        counts: TrafficCounts,
    }

    impl ReferenceModel {
        fn new(cfg: &AdapterConfig) -> Self {
            Self {
                window: cfg.window.max(1),
                coalescing: cfg.mode != CoalescerMode::None,
                cross_window: cfg.cross_window,
                carry: None,
                last_adopted: None,
                adopted: std::collections::HashSet::new(),
                fill: 0,
                counts: TrafficCounts::default(),
            }
        }

        fn push(&mut self, addr: u64) {
            self.counts.elements += 1;
            if !self.coalescing {
                self.counts.wide_requests += 1;
                return;
            }
            if self.fill == 0 {
                self.adopted.clear();
                self.adopted.extend(self.carry);
            }
            let block = block_addr(addr);
            if self.adopted.contains(&block) {
                self.counts.reused += 1;
            } else {
                self.adopted.insert(block);
                self.last_adopted = Some(block);
                self.counts.wide_requests += 1;
            }
            self.fill += 1;
            if self.fill == self.window {
                self.close_window();
            }
        }

        fn flush(&mut self) {
            self.close_window();
            self.carry = None;
            self.last_adopted = None;
        }

        fn close_window(&mut self) {
            self.fill = 0;
            if self.cross_window {
                if let Some(b) = self.last_adopted.take() {
                    self.carry = Some(b);
                }
            } else {
                self.carry = None;
                self.last_adopted = None;
            }
        }
    }

    /// Seeded element address streams of the shapes SpMV gathers see.
    fn streams(seed: u64) -> Vec<(&'static str, Vec<u64>)> {
        const N: usize = 6_000;
        let mut rng = nmpic_sim::SimRng::new(seed);
        let uniform = (0..N).map(|_| 8 * rng.gen_u64(0, 50_000)).collect();
        let banded = (0..N as u64)
            .map(|i| 8 * (i / 4 + rng.gen_u64(0, 96)))
            .collect();
        let hubs = [3u64, 4_096, 40_000];
        let hub_heavy = (0..N)
            .map(|_| {
                if rng.gen_f64() < 0.5 {
                    8 * hubs[rng.gen_usize(0, hubs.len())]
                } else {
                    8 * rng.gen_u64(0, 50_000)
                }
            })
            .collect();
        let one_block = (0..N).map(|_| 0x4000 + 8 * rng.gen_u64(0, 8)).collect();
        let top = !63u64; // the highest block tag
        let near_max = (0..N)
            .map(|_| top - 64 * rng.gen_u64(0, 300) + 8 * rng.gen_u64(0, 8))
            .collect();
        vec![
            ("uniform", uniform),
            ("banded", banded),
            ("hub-heavy", hub_heavy),
            ("one-block", one_block),
            ("near-u64-max", near_max),
        ]
    }

    /// Every adapter shape the set must serve: W ∈ {1, 2, 8, 64, 256}
    /// with and without cross-window carry, plus MLPnc.
    fn configs() -> Vec<AdapterConfig> {
        let mut cfgs = vec![AdapterConfig::mlp_nc()];
        for w in [1usize, 2, 8, 64, 256] {
            for cross_window in [true, false] {
                let mut cfg = AdapterConfig::mlp(8);
                cfg.window = w;
                cfg.cross_window = cross_window;
                cfgs.push(cfg);
            }
        }
        cfgs
    }

    /// A model whose window set starts at stamp `generation`, so a
    /// replay drives the stamp through its wrap.
    fn with_generation(cfg: &AdapterConfig, generation: u32) -> CoalescerTrafficModel {
        let mut m = CoalescerTrafficModel::new(cfg);
        m.adopted.generation = generation;
        m
    }

    /// Replays `addrs` through both models, flushing both at the same
    /// seeded points (as `pack_cost` does at tile ends), and returns
    /// (model, reference) counts.
    fn replay(
        mut m: CoalescerTrafficModel,
        cfg: &AdapterConfig,
        addrs: &[u64],
        seed: u64,
    ) -> (TrafficCounts, TrafficCounts) {
        let mut reference = ReferenceModel::new(cfg);
        let mut rng = nmpic_sim::SimRng::new(seed);
        for &a in addrs {
            m.push(a);
            reference.push(a);
            if rng.gen_u64(0, 997) == 0 {
                m.flush();
                reference.flush();
            }
        }
        m.flush();
        reference.flush();
        (m.counts(), reference.counts)
    }

    #[test]
    fn window_set_counts_match_the_hash_set_reference() {
        for seed in [1u64, 2, 3] {
            for (shape, addrs) in streams(seed) {
                for cfg in configs() {
                    let (got, want) = replay(CoalescerTrafficModel::new(&cfg), &cfg, &addrs, seed);
                    assert_eq!(
                        got,
                        want,
                        "{shape}, seed {seed}, {} cross_window={}",
                        cfg.label(),
                        cfg.cross_window
                    );
                }
            }
        }
    }

    #[test]
    fn window_set_counts_survive_the_generation_wrap() {
        // A few windows in, the stamp wraps; counts must not notice.
        for (shape, addrs) in streams(9) {
            for cfg in configs() {
                let m = with_generation(&cfg, u32::MAX - 3);
                let (got, want) = replay(m, &cfg, &addrs, 9);
                assert_eq!(got, want, "{shape}, {}", cfg.label());
            }
        }
    }

    #[test]
    fn window_set_wrap_forgets_members_stamped_before_it() {
        // Members stamped 1 long ago must not come back when the
        // generation wraps round to 1.
        let mut set = WindowSet::new(4);
        assert!(set.insert(0) && set.insert(64));
        set.generation = u32::MAX;
        set.clear();
        assert_eq!(set.generation, 1);
        assert!(set.insert(0), "a stale stamp aliased the new generation");
        assert!(set.insert(64));
        assert!(!set.insert(0));
    }

    #[test]
    fn empty_stream_has_zero_rate() {
        let m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
        assert_eq!(m.counts().coalesce_rate(), 0.0);
    }
}
