//! Cached trial state: pattern lowerings and compiled trial plans.
//!
//! Every experiment reduces to running many retention trials at a fixed
//! condition. The window scan in [`crate::chip`] recomputes, per trial and
//! per candidate cell: the stored-bit polarity gate, the DPD stress
//! fraction (six `bit_at` evaluations), the effective μ/σ/z, and the
//! erf-backed `phi(z)`. None of that depends on the trial nonce — only the
//! uniform draws do. This module factors the invariant work out into two
//! cacheable tiers:
//!
//! * [`PatternLowering`] — keyed by *pattern only*. Packs the
//!   polarity-active cell ordinals and their quantized DPD stress levels
//!   (matches-of-4 ∈ 0..=4) into flat lanes. Temperature- and
//!   time-independent, so it survives the harness's per-trial thermal
//!   jitter and `advance` calls. It feeds the window scan (which then
//!   skips the polarity and stress work) and plan compilation.
//! * [`TrialPlan`] — keyed by `(pattern, interval, temp)`. Lowers the
//!   candidate window all the way to per-cell integer thresholds
//!   `ceil(phi(z) · 2⁵³)`, stored in index-sorted lanes that the
//!   bit-plane kernel ([`crate::batch`]) runs — no erf, no struct chasing,
//!   no VRT copy for non-VRT cells.
//!
//! A single trial whose condition is seen for the first time runs the
//! window scan (with a lowering once its pattern recurs); a recurring
//! condition compiles a plan on its second sighting, and every later
//! trial at it runs through the kernel as a batch of one. The multi-round
//! entry points compile unconditionally: asking for many rounds at one
//! condition is itself the recurrence signal.
//!
//! # Lifecycle
//!
//! compile → run rounds → evict. A plan reads only the chip's immutable
//! cell array, sort keys and config plus its own `(pattern, interval,
//! temp)`; VRT chain state is read live from the chip on every round, and
//! VRT-arrival cells are handled outside the plans. Nothing a clock step
//! or an arrival changes is baked into a plan, so plans live across
//! `advance` calls and leave the cache only through LRU eviction.
//!
//! # Determinism contract
//!
//! The kernel is **bit-identical** to the window scan. Per cell both
//! construct the same hash lane `stream([stream_base, TRIAL_DOMAIN, nonce,
//! cell.index])`, make the same draws in the same order (VRT observation
//! first, then the failure draw only when `z` is in band), and compute
//! μ, σ, z with the exact same floating-point expression order, so the
//! cached threshold decides exactly as `next_f64() < phi(z)` would in the
//! scan. Because every hash lane is keyed by its own (cell, nonce), lane
//! order is outcome-neutral; outcomes are sorted and VRT writes are
//! per-slot — hence identical at any thread count. See DESIGN.md
//! §"Compiled trial plans".

use std::sync::Arc;

use reaper_analysis::special::phi;
use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms};
use reaper_exec::num;

use crate::batch::u53_threshold;
use crate::cell::WeakCell;
use crate::chip::{candidate_window_end, Z_CUTOFF};
use crate::config::RetentionConfig;

/// Counters describing how trials were served; see
/// [`crate::SimulatedChip::plan_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Window-scan trials run without a lowering, reference trials
    /// ([`crate::SimulatedChip::retention_trial_reference`]) included.
    pub scalar_trials: u64,
    /// Window-scan trials fed by a [`PatternLowering`].
    pub lowered_trials: u64,
    /// Trials served by the bit-plane kernel on a compiled [`TrialPlan`].
    pub plan_trials: u64,
    /// Rounds evaluated through the bit-plane kernel. Every plan trial
    /// runs there, so this always equals `plan_trials`; kept so existing
    /// readers of the counter keep working.
    pub batch_rounds: u64,
    /// Pattern lowerings constructed (including prewarms).
    pub lowerings_built: u64,
    /// Trial plans compiled.
    pub plans_compiled: u64,
    /// Compiled plans dropped for a reason other than LRU eviction.
    /// Always 0: plans are pure functions of the immutable cell array and
    /// their condition, so no chip state change invalidates one. Kept so
    /// existing readers of the counter keep working.
    pub invalidations: u64,
}

/// Cache key for a compiled plan: the full trial condition. Interval and
/// temperature are keyed by their `f64` bit patterns — the plan caches
/// bit-exact `phi(z)` values, so "equal condition" must mean bit-equal
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    pattern: DataPattern,
    interval_bits: u64,
    temp_bits: u64,
}

impl PlanKey {
    pub(crate) fn new(pattern: DataPattern, interval: Ms, temp: Celsius) -> Self {
        Self {
            pattern,
            interval_bits: interval.as_ms().to_bits(),
            temp_bits: temp.degrees().to_bits(),
        }
    }
}

/// Per-trial scalar context shared by the window scan and the kernel:
/// everything a trial needs besides the cell lanes themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrialCtx {
    pub(crate) t_secs: f64,
    pub(crate) ms_scale: f64,
    pub(crate) ss_scale: f64,
    pub(crate) stream_base: u64,
    pub(crate) nonce: u64,
    pub(crate) now_ms: f64,
    pub(crate) low_mu_factor: f64,
}

/// Tier 1: pattern-dependent, condition-independent lowering. For one data
/// pattern, the ascending ordinals (into the μ-sorted cell array) of the
/// polarity-active cells and their quantized DPD stress levels.
///
/// Because the ordinals are ascending, the candidate window `[0, end)`
/// maps to a prefix of the lanes via one `partition_point`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PatternLowering {
    pub(crate) pattern: DataPattern,
    /// Ordinals of cells whose stored bit equals their vulnerable bit
    /// under `pattern` (the packed polarity lane), ascending.
    ord: Vec<u32>,
    /// `stress_matches` ∈ 0..=4 parallel to `ord` (the packed DPD lane);
    /// the stress fraction is `lvl / 4`.
    lvl: Vec<u8>,
}

impl PatternLowering {
    pub(crate) fn build(cells: &[WeakCell], pattern: DataPattern, geometry: ChipGeometry) -> Self {
        let mut ord = Vec::new();
        let mut lvl = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if cell.stored_bit(pattern, geometry) == cell.vulnerable_bit {
                ord.push(num::to_u32(i));
                lvl.push(cell.stress_matches(pattern, geometry));
            }
        }
        Self { pattern, ord, lvl }
    }

    /// Number of active lanes whose ordinal falls inside the candidate
    /// window `[0, end)`.
    pub(crate) fn active_prefix(&self, end: usize) -> usize {
        self.ord.partition_point(|&o| num::idx(o) < end)
    }

    /// Lane `j`: the cell's ordinal in the μ-sorted cell array and its DPD
    /// stress level (matches-of-4).
    pub(crate) fn lane(&self, j: usize) -> (usize, u8) {
        let ord = self.ord.get(j).expect("invariant: j < active_prefix <= ord.len()");
        let lvl = self.lvl.get(j).expect("invariant: lvl lane is parallel to ord");
        (num::idx(*ord), *lvl)
    }
}

/// Sentinel threshold: the cell cannot fail at this condition/state
/// (`z < −Z_CUTOFF`; the window scan performs no failure draw).
pub(crate) const CERTAIN_PASS: f64 = -1.0;
/// Sentinel threshold: the cell always fails at this condition/state
/// (`z > Z_CUTOFF`; the window scan performs no failure draw).
pub(crate) const CERTAIN_FAIL: f64 = 2.0;

/// The per-state failure threshold with sentinel encoding. In-band values
/// are `phi(z) ∈ (≈3.2e-5, ≈1−3.2e-5)`, so the sentinels are unambiguous.
fn threshold_of(z: f64) -> f64 {
    if z < -Z_CUTOFF {
        CERTAIN_PASS
    } else if z > Z_CUTOFF {
        CERTAIN_FAIL
    } else {
        phi(z)
    }
}

/// The compiled SoA lanes of a [`TrialPlan`].
///
/// Kept behind an `Arc` on the plan: the pooled fan-out under the kernel
/// (`reaper_exec::par_index_map_pooled`) hands work to persistent threads
/// that outlive the caller, and the workspace denies `unsafe_code`, so the
/// lanes must be shareable with a `'static` lifetime. The lanes are
/// immutable after compilation, so sharing them is free of aliasing
/// hazards.
///
/// Each lane class is sorted ascending by cell index, so the kernel
/// emits sorted rounds by merging the three classes instead of sorting.
/// Lane order is outcome-neutral: every hash lane is keyed by its own
/// (cell, nonce) and every VRT lane owns its chain slot.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct PlanLanes {
    /// Non-VRT cells with `z > Z_CUTOFF`: fail every round, no draw.
    pub(crate) certain: Vec<u64>,
    /// In-band non-VRT lanes (structure-of-arrays, index-aligned): the
    /// cell index and its threshold `phi(z)` rescaled to
    /// `ceil(phi(z) · 2⁵³)`, so `(next_u64() >> 11) < prob_thr_u[i]` iff
    /// `next_f64() < phi(z)`, exactly (see [`crate::batch::u53_threshold`]).
    pub(crate) prob_idx: Vec<u64>,
    pub(crate) prob_thr_u: Vec<u64>,
    /// VRT lanes: base_vrt slot, cell index, and per-cell `[high, low]`
    /// state thresholds (flattened pairs, sentinel-encoded).
    pub(crate) vrt_slot: Vec<u32>,
    pub(crate) vrt_idx: Vec<u64>,
    pub(crate) vrt_thr: Vec<f64>,
}

/// Tier 2: a fully compiled plan for one `(pattern, interval, temp)`.
///
/// Non-VRT cells are resolved at compile time into three classes: certain
/// pass (dropped — no lane, no draw, exactly like the window scan),
/// certain fail (index emitted verbatim each round), and in-band (one
/// uniform draw against the cached `phi(z)`). VRT cells keep both per-state
/// thresholds and are observed every round, exactly like the window scan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialPlan {
    pub(crate) key: PlanKey,
    /// Candidate-window bound the plan was compiled for (consistency
    /// checks; the lanes already encode it).
    end: usize,
    /// The immutable compiled lanes, shared with pooled fan-outs.
    pub(crate) lanes: Arc<PlanLanes>,
}

impl TrialPlan {
    /// Compiles the plan. When a [`PatternLowering`] for the same pattern
    /// is available its packed lanes shortcut the polarity/stress scan;
    /// with or without one the resulting plan is identical.
    pub(crate) fn compile(
        cfg: &RetentionConfig,
        cells: &[WeakCell],
        sort_keys: &[f64],
        lowering: Option<&PatternLowering>,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
    ) -> Self {
        let t = interval.as_secs();
        let ms_scale = cfg.mu_temp_scale(temp);
        let ss_scale = cfg.sigma_temp_scale(temp);
        let geometry = cfg.geometry;
        let end = candidate_window_end(sort_keys, t, ms_scale, ss_scale);

        let mut certain = Vec::new();
        let mut prob: Vec<(u64, u64)> = Vec::new();
        let mut vrt: Vec<(u64, u32, [f64; 2])> = Vec::new();
        let mut add = |cell: &WeakCell, lvl: u8| {
            let stress = f64::from(lvl) / 4.0;
            let sigma = cell.sigma0 as f64 * ss_scale;
            match cell.vrt_index {
                Some(slot) => {
                    let mu_high = cell.effective_mu(ms_scale, stress, 1.0);
                    let mu_low = cell.effective_mu(ms_scale, stress, cfg.vrt_low_mu_factor);
                    vrt.push((
                        cell.index,
                        slot,
                        [
                            threshold_of((t - mu_high) / sigma),
                            threshold_of((t - mu_low) / sigma),
                        ],
                    ));
                }
                None => {
                    let mu = cell.effective_mu(ms_scale, stress, 1.0);
                    let z = (t - mu) / sigma;
                    if z > Z_CUTOFF {
                        certain.push(cell.index);
                    } else if z >= -Z_CUTOFF {
                        prob.push((cell.index, u53_threshold(phi(z))));
                    }
                    // z < -Z_CUTOFF: certain pass, dropped — the scan
                    // opens a lane but draws nothing for these, so
                    // skipping the lane entirely changes no stream.
                }
            }
        };

        match lowering {
            Some(low) => {
                debug_assert!(low.pattern == pattern, "lowering pattern mismatch");
                for j in 0..low.active_prefix(end) {
                    let (ord, lvl) = low.lane(j);
                    let cell = cells
                        .get(ord)
                        .expect("invariant: lowering ordinals index the cell array it was built from");
                    add(cell, lvl);
                }
            }
            None => {
                for cell in cells.iter().take(end) {
                    if cell.stored_bit(pattern, geometry) == cell.vulnerable_bit {
                        add(cell, cell.stress_matches(pattern, geometry));
                    }
                }
            }
        }

        // Cells were visited in sort-key order; store each class by index.
        certain.sort_unstable();
        prob.sort_unstable_by_key(|&(idx, _)| idx);
        vrt.sort_unstable_by_key(|&(idx, ..)| idx);
        let (prob_idx, prob_thr_u) = prob.into_iter().unzip();
        let lanes = PlanLanes {
            certain,
            prob_idx,
            prob_thr_u,
            vrt_slot: vrt.iter().map(|&(_, slot, _)| slot).collect(),
            vrt_idx: vrt.iter().map(|&(idx, ..)| idx).collect(),
            vrt_thr: vrt.iter().flat_map(|&(.., thr)| thr).collect(),
        };
        Self {
            key: PlanKey::new(pattern, interval, temp),
            end,
            lanes: Arc::new(lanes),
        }
    }

    /// The lane invariants the kernel relies on: parallel lanes have equal
    /// lengths, the three lane classes fit inside the candidate window
    /// they partition, and each class is strictly ascending by cell index.
    /// Checked via `debug_assert!`.
    pub(crate) fn lanes_consistent(&self) -> bool {
        let lanes = &self.lanes;
        let n = lanes.prob_idx.len();
        let ascending = |v: &[u64]| v.is_sorted_by(|a, b| a < b);
        n == lanes.prob_thr_u.len()
            && lanes.vrt_slot.len() == lanes.vrt_idx.len()
            && lanes.vrt_thr.len() == lanes.vrt_slot.len() * 2
            && lanes.certain.len() + n + lanes.vrt_idx.len() <= self.end
            && ascending(&lanes.certain)
            && ascending(&lanes.prob_idx)
            && ascending(&lanes.vrt_idx)
    }
}

/// Compiled plans kept per chip.
const PLAN_CAP: usize = 16;
/// Pattern lowerings kept per chip.
const LOWERING_CAP: usize = 16;
/// First-sighting records kept per chip (second-sighting promotion).
const SEEN_CAP: usize = 64;

/// Per-chip cache of lowerings and compiled plans, plus the first-sighting
/// bookkeeping that promotes a recurring key on its second sighting. All
/// lookups are linear scans over short `Vec`s — deterministic iteration
/// order (lint rule D1) and faster than any map at these sizes. Recency is tracked with a logical tick, never
/// wall-clock time (lint rule D2).
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCache {
    tick: u64,
    plan_seen: Vec<(PlanKey, u64)>,
    plans: Vec<(u64, TrialPlan)>,
    pattern_seen: Vec<(DataPattern, u64)>,
    lowerings: Vec<(u64, PatternLowering)>,
    pub(crate) stats: PlanStats,
}

fn note_seen<K: PartialEq>(seen: &mut Vec<(K, u64)>, key: K, tick: u64) -> bool {
    if let Some(entry) = seen.iter_mut().find(|(k, _)| *k == key) {
        entry.1 = tick;
        return true;
    }
    if seen.len() >= SEEN_CAP {
        evict_min_tick(seen, |(_, tick)| *tick);
    }
    seen.push((key, tick));
    false
}

/// Evicts the entry with the smallest logical tick. Ties on equal ticks
/// break toward the lowest position — `min_by_key` keeps the first
/// minimum — i.e. the earliest-inserted entry goes first. One helper
/// serves both entry layouts (`(key, tick)` sighting lists and
/// `(tick, value)` cache lists) via `tick_of`, so the two tie-breaking
/// policies cannot drift apart.
fn evict_min_tick<T>(entries: &mut Vec<T>, tick_of: impl Fn(&T) -> u64) {
    if let Some(pos) = entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| tick_of(e))
        .map(|(i, _)| i)
    {
        entries.swap_remove(pos);
    }
}

impl PlanCache {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// True (and records the sighting) if this exact condition was seen
    /// before.
    pub(crate) fn note_plan_key(&mut self, key: PlanKey) -> bool {
        let tick = self.bump();
        note_seen(&mut self.plan_seen, key, tick)
    }

    /// True (and records the sighting) if this pattern was seen before.
    pub(crate) fn note_pattern(&mut self, pattern: DataPattern) -> bool {
        let tick = self.bump();
        note_seen(&mut self.pattern_seen, pattern, tick)
    }

    pub(crate) fn find_plan(&mut self, key: &PlanKey) -> Option<usize> {
        let pos = self.plans.iter().position(|(_, p)| p.key == *key)?;
        let tick = self.bump();
        self.plans
            .get_mut(pos)
            .expect("invariant: position() yields an in-bounds index")
            .0 = tick;
        Some(pos)
    }

    pub(crate) fn insert_plan(&mut self, plan: TrialPlan) -> usize {
        if self.plans.len() >= PLAN_CAP {
            evict_min_tick(&mut self.plans, |(tick, _)| *tick);
        }
        let tick = self.bump();
        self.plans.push((tick, plan));
        self.plans.len() - 1
    }

    pub(crate) fn plan_at(&self, i: usize) -> &TrialPlan {
        self.plans
            .get(i)
            .map(|(_, p)| p)
            .expect("invariant: plan indices come from find/insert with no eviction in between")
    }

    pub(crate) fn find_lowering(&mut self, pattern: DataPattern) -> Option<usize> {
        let pos = self
            .lowerings
            .iter()
            .position(|(_, l)| l.pattern == pattern)?;
        let tick = self.bump();
        self.lowerings
            .get_mut(pos)
            .expect("invariant: position() yields an in-bounds index")
            .0 = tick;
        Some(pos)
    }

    /// Borrow-only lookup for contexts that hold other borrows (plan
    /// compilation); does not touch recency.
    pub(crate) fn peek_lowering(&self, pattern: DataPattern) -> Option<&PatternLowering> {
        self.lowerings
            .iter()
            .find(|(_, l)| l.pattern == pattern)
            .map(|(_, l)| l)
    }

    pub(crate) fn insert_lowering(&mut self, lowering: PatternLowering) -> usize {
        if self.lowerings.len() >= LOWERING_CAP {
            evict_min_tick(&mut self.lowerings, |(tick, _)| *tick);
        }
        let tick = self.bump();
        self.lowerings.push((tick, lowering));
        self.lowerings.len() - 1
    }

    pub(crate) fn lowering_at(&self, i: usize) -> &PatternLowering {
        self.lowerings
            .get(i)
            .map(|(_, l)| l)
            .expect("invariant: lowering indices come from find/insert with no eviction in between")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::SimulatedChip;
    use reaper_dram_model::Vendor;

    fn quick_chip() -> SimulatedChip {
        let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16);
        SimulatedChip::new(cfg, 0xBC417)
    }

    #[test]
    fn threshold_sentinels_bracket_phi_range() {
        assert_eq!(threshold_of(-4.5), CERTAIN_PASS);
        assert_eq!(threshold_of(4.5), CERTAIN_FAIL);
        let t = threshold_of(0.0);
        assert!((t - 0.5).abs() < 1e-12);
        // boundary values stay in-band, matching the scan's strict compares
        assert!(threshold_of(-Z_CUTOFF) > 0.0 && threshold_of(-Z_CUTOFF) < 1.0);
        assert!(threshold_of(Z_CUTOFF) > 0.0 && threshold_of(Z_CUTOFF) < 1.0);
    }

    #[test]
    fn lowering_matches_per_cell_predicates() {
        let chip = quick_chip();
        let pattern = reaper_dram_model::DataPattern::checkerboard();
        let geometry = chip.geometry();
        let low = PatternLowering::build(chip.cells(), pattern, geometry);
        assert_eq!(low.ord.len(), low.lvl.len());
        let mut k = 0;
        for (i, cell) in chip.cells().iter().enumerate() {
            let active = cell.stored_bit(pattern, geometry) == cell.vulnerable_bit;
            if active {
                assert_eq!(num::idx(*low.ord.get(k).expect("lane")), i);
                assert_eq!(
                    *low.lvl.get(k).expect("lane"),
                    cell.stress_matches(pattern, geometry)
                );
                k += 1;
            }
        }
        assert_eq!(k, low.ord.len());
        // ordinals ascending => window prefix is exact
        let end = chip.cells().len() / 3;
        let n = low.active_prefix(end);
        assert!(low.ord.iter().take(n).all(|&o| num::idx(o) < end));
        assert!(low.ord.iter().skip(n).all(|&o| num::idx(o) >= end));
    }

    #[test]
    fn compile_with_and_without_lowering_is_identical() {
        let chip = quick_chip();
        let pattern = reaper_dram_model::DataPattern::row_stripe();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);
        let low = PatternLowering::build(chip.cells(), pattern, chip.geometry());
        let direct = TrialPlan::compile(
            chip.config(),
            chip.cells(),
            chip.sort_keys_for_tests(),
            None,
            pattern,
            interval,
            temp,
        );
        let via_lowering = TrialPlan::compile(
            chip.config(),
            chip.cells(),
            chip.sort_keys_for_tests(),
            Some(&low),
            pattern,
            interval,
            temp,
        );
        assert_eq!(direct, via_lowering);
        assert!(direct.lanes_consistent());
        // the three classes partition the polarity-active window
        let lanes = &direct.lanes;
        let n_lanes = lanes.certain.len() + lanes.prob_idx.len() + lanes.vrt_idx.len();
        assert!(n_lanes <= direct.end);
        assert!(!lanes.prob_idx.is_empty(), "expected in-band cells");
    }

    #[test]
    fn compiled_lane_classes_are_index_sorted() {
        // The kernel merges the three classes into sorted rounds, so each
        // must come out of compile strictly ascending by cell index —
        // although compile visits cells in sort-key order. Several
        // conditions, with and without a lowering, on a chip with VRT
        // cells so every class is populated.
        let chip = quick_chip();
        let mut populated = [false; 3];
        for (pattern, interval_ms, temp_c) in [
            (DataPattern::checkerboard(), 1024.0, 60.0),
            (DataPattern::solid1(), 2048.0, 70.0),
            (DataPattern::random(5), 4096.0, 75.0),
        ] {
            let low = PatternLowering::build(chip.cells(), pattern, chip.geometry());
            for lowering in [None, Some(&low)] {
                let plan = TrialPlan::compile(
                    chip.config(),
                    chip.cells(),
                    chip.sort_keys_for_tests(),
                    lowering,
                    pattern,
                    Ms::new(interval_ms),
                    Celsius::new(temp_c),
                );
                let lanes = &plan.lanes;
                for (class, idx) in [&lanes.certain, &lanes.prob_idx, &lanes.vrt_idx]
                    .into_iter()
                    .enumerate()
                {
                    assert!(
                        idx.windows(2).all(|w| w[0] < w[1]),
                        "lane class {class} not index-sorted at {interval_ms} ms / {temp_c} °C"
                    );
                    populated[class] |= idx.len() > 1;
                }
                assert!(plan.lanes_consistent());
            }
        }
        assert_eq!(populated, [true; 3], "every lane class must be exercised");
    }

    #[test]
    fn eviction_takes_min_tick_and_breaks_ties_by_insertion_order() {
        // Distinct ticks: the smallest goes, wherever it sits.
        let mut entries = vec![("b", 7u64), ("a", 3), ("c", 9)];
        evict_min_tick(&mut entries, |(_, tick)| *tick);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| *k).collect();
        assert!(!keys.contains(&"a"));
        assert_eq!(keys.len(), 2);

        // Tie on equal ticks: the earliest-inserted (lowest position)
        // minimum is evicted, not a later duplicate.
        let mut tied = vec![("first", 5u64), ("second", 5), ("newer", 9)];
        evict_min_tick(&mut tied, |(_, tick)| *tick);
        let keys: Vec<&str> = tied.iter().map(|(k, _)| *k).collect();
        assert!(!keys.contains(&"first"), "tie must evict the first minimum");
        assert!(keys.contains(&"second"));
        assert!(keys.contains(&"newer"));

        // Same policy through the (tick, value) layout used by the plan
        // and lowering caches.
        let mut front = vec![(4u64, "first"), (4, "second"), (8, "newer")];
        evict_min_tick(&mut front, |(tick, _)| *tick);
        let vals: Vec<&str> = front.iter().map(|(_, v)| *v).collect();
        assert!(!vals.contains(&"first"));
        assert_eq!(vals.len(), 2);

        // Empty list: a no-op, not a panic.
        let mut empty: Vec<(u64, u8)> = Vec::new();
        evict_min_tick(&mut empty, |(tick, _)| *tick);
        assert!(empty.is_empty());
    }

    #[test]
    fn cache_promotes_on_second_sighting_and_evicts_by_lru_only() {
        let mut cache = PlanCache::default();
        let key = PlanKey::new(
            reaper_dram_model::DataPattern::solid0(),
            Ms::new(512.0),
            Celsius::new(45.0),
        );
        assert!(!cache.note_plan_key(key));
        assert!(cache.note_plan_key(key));
        let pat = reaper_dram_model::DataPattern::solid1();
        assert!(!cache.note_pattern(pat));
        assert!(cache.note_pattern(pat));

        let chip = quick_chip();
        let plan = TrialPlan::compile(
            chip.config(),
            chip.cells(),
            chip.sort_keys_for_tests(),
            None,
            reaper_dram_model::DataPattern::solid0(),
            Ms::new(512.0),
            Celsius::new(45.0),
        );
        let low = PatternLowering::build(
            chip.cells(),
            reaper_dram_model::DataPattern::solid1(),
            chip.geometry(),
        );
        let pi = cache.insert_plan(plan);
        let li = cache.insert_lowering(low);
        assert!(cache.find_plan(&key).is_some());
        assert_eq!(cache.plan_at(pi).key, key);
        assert!(cache.find_lowering(pat).is_some());
        assert_eq!(cache.lowering_at(li).pattern, pat);

        // Plans leave only through LRU eviction: a plan hit when the cache
        // is full outlives the older entries, then goes once it is the
        // least recently used. Nothing invalidates it.
        let plan = cache.plan_at(pi).clone();
        for i in 0..2 * PLAN_CAP as u64 {
            if i == PLAN_CAP as u64 - 1 {
                assert!(
                    cache.find_plan(&key).is_some(),
                    "a recent hit is not the LRU entry"
                );
            }
            let key = PlanKey::new(DataPattern::random(i), Ms::new(512.0), Celsius::new(45.0));
            cache.insert_plan(TrialPlan {
                key,
                ..plan.clone()
            });
        }
        assert!(
            cache.find_plan(&key).is_none(),
            "evicted once least recently used"
        );
        assert!(cache.note_plan_key(key), "sightings persist");
        assert_eq!(cache.stats.invalidations, 0);
    }

    #[test]
    fn cache_caps_are_enforced() {
        let mut cache = PlanCache::default();
        for i in 0..(SEEN_CAP + 8) {
            let key = PlanKey::new(
                reaper_dram_model::DataPattern::random(i as u64),
                Ms::new(512.0),
                Celsius::new(45.0),
            );
            cache.note_plan_key(key);
        }
        assert_eq!(cache.plan_seen.len(), SEEN_CAP);

        let chip = quick_chip();
        for i in 0..(PLAN_CAP + 4) {
            let plan = TrialPlan::compile(
                chip.config(),
                chip.cells(),
                chip.sort_keys_for_tests(),
                None,
                reaper_dram_model::DataPattern::random(i as u64),
                Ms::new(512.0),
                Celsius::new(45.0),
            );
            cache.insert_plan(plan);
        }
        assert_eq!(cache.plans.len(), PLAN_CAP);
        for i in 0..(LOWERING_CAP + 4) {
            let low = PatternLowering::build(
                chip.cells(),
                reaper_dram_model::DataPattern::random(i as u64),
                chip.geometry(),
            );
            cache.insert_lowering(low);
        }
        assert_eq!(cache.lowerings.len(), LOWERING_CAP);
    }
}
