//! Compiled trial plans: a structure-of-arrays batch engine for the
//! retention-trial hot path.
//!
//! Every experiment reduces to running many retention trials at a fixed
//! condition. The scalar path in [`crate::chip::SimulatedChip::retention_trial`]
//! recomputes, per trial and per candidate cell: the stored-bit polarity
//! gate, the DPD stress fraction (six `bit_at` evaluations), the effective
//! μ/σ/z, and the erf-backed `phi(z)`. None of that depends on the trial
//! nonce — only the uniform draws do. This module factors the invariant
//! work out into two cacheable tiers:
//!
//! * [`PatternLowering`] — keyed by *pattern only*. Packs the
//!   polarity-active cell ordinals and their quantized DPD stress levels
//!   (matches-of-4 ∈ 0..=4) into flat lanes. Temperature- and
//!   time-independent, so it survives the harness's per-trial thermal
//!   jitter and `advance` calls.
//! * [`TrialPlan`] — keyed by `(pattern, interval, temp)`. Lowers the
//!   candidate window all the way to per-cell integer thresholds
//!   `ceil(phi(z) · 2⁵³)`; a round is then a branch-light linear scan that
//!   draws one 53-bit uniform per in-band cell and compares it against the
//!   cached threshold — no erf, no struct chasing, no VRT copy for non-VRT
//!   cells.
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
//! Both engines are **bit-identical** to the scalar path. Per cell they
//! construct the same hash lane `stream([stream_base, TRIAL_DOMAIN, nonce,
//! cell.index])`, make the same draws in the same order (VRT observation
//! first, then the failure draw only when `z` is in band), and compute
//! μ, σ, z with the exact same floating-point expression order, so the
//! cached threshold decides exactly as `next_f64() < phi(z)` would on the
//! scalar path. Outcomes are merged through `TrialOutcome::from_unsorted`
//! and per-slot VRT writes, both order-independent — hence identical at
//! any thread count. See DESIGN.md §"Compiled trial plans".

use std::sync::Arc;

use reaper_analysis::special::phi;
use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms};
use reaper_exec::num;
use reaper_exec::rng::stream;

use crate::batch::u53_threshold;
use crate::cell::WeakCell;
use crate::chip::{candidate_window_end, PAR_MIN_CELLS, TRIAL_DOMAIN, Z_CUTOFF};
use crate::config::RetentionConfig;
use crate::vrt::TwoStateVrt;

/// Which engine [`crate::SimulatedChip::retention_trial`] routes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialEngine {
    /// Adaptive: first sighting of a pattern (or full condition) runs the
    /// cheaper tier and records the key; a second sighting promotes it —
    /// recurring conditions get compiled plans, one-shot conditions never
    /// pay a compile they cannot amortize.
    #[default]
    Auto,
    /// Always the original scalar window scan (baseline / comparison).
    Scalar,
    /// Always the pattern-lowered scan (no per-condition plan).
    Lowered,
    /// Always compile (or fetch) a full `TrialPlan` for the condition.
    Compiled,
    /// Always compile a plan and serve trials through the bit-plane batch
    /// kernel ([`crate::batch`]): single trials run as batches of one,
    /// and the multi-round entry points evaluate up to
    /// [`crate::MAX_BATCH_ROUNDS`] rounds per cell per pass.
    Batch,
}

/// Counters describing how trials were routed; see
/// [`crate::SimulatedChip::plan_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Trials served by the scalar window scan.
    pub scalar_trials: u64,
    /// Trials served by a [`PatternLowering`].
    pub lowered_trials: u64,
    /// Trials served by a compiled [`TrialPlan`].
    pub plan_trials: u64,
    /// Rounds evaluated through the bit-plane batch kernel (a subset of
    /// `plan_trials`: every batched round also uses a compiled plan).
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

/// Per-trial scalar context threaded through the lowered engine: everything
/// a trial needs besides the cell lanes themselves.
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
    fn active_prefix(&self, end: usize) -> usize {
        self.ord.partition_point(|&o| num::idx(o) < end)
    }

    /// One trial through the lowered lanes. Draw-for-draw identical to the
    /// scalar window scan: polarity-inactive cells never open a hash lane
    /// there either, so skipping them changes no stream.
    pub(crate) fn run_trial(
        &self,
        cells: &[WeakCell],
        base_vrt: &[TwoStateVrt],
        end: usize,
        ctx: &TrialCtx,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        let n = self.active_prefix(end);
        let per_active = |j: usize| -> (Option<u64>, Option<(u32, TwoStateVrt)>) {
            let ord = self
                .ord
                .get(j)
                .expect("invariant: j < active_prefix <= ord.len()");
            let cell = cells
                .get(num::idx(*ord))
                .expect("invariant: lowering ordinals index the cell array it was built from");
            let mut lane = stream(&[ctx.stream_base, TRIAL_DOMAIN, ctx.nonce, cell.index]);
            let mut vrt_update = None;
            let vrt_factor = match cell.vrt_index {
                Some(i) => {
                    let mut vrt = *base_vrt
                        .get(num::idx(i))
                        .expect("invariant: vrt_index values are positions pushed into base_vrt");
                    let in_low = vrt.observe_at(ctx.now_ms, lane.next_f64());
                    vrt_update = Some((i, vrt));
                    if in_low {
                        ctx.low_mu_factor
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            let lvl = self
                .lvl
                .get(j)
                .expect("invariant: lvl lane is parallel to ord");
            let stress = f64::from(*lvl) / 4.0;
            let mu = cell.effective_mu(ctx.ms_scale, stress, vrt_factor);
            let sigma = cell.sigma0 as f64 * ctx.ss_scale;
            let z = (ctx.t_secs - mu) / sigma;
            if z < -Z_CUTOFF {
                return (None, vrt_update);
            }
            let fails = z > Z_CUTOFF || lane.next_f64() < phi(z);
            (fails.then_some(cell.index), vrt_update)
        };

        let mut failures = Vec::new();
        let mut vrt_updates = Vec::new();
        if n < PAR_MIN_CELLS || reaper_exec::thread_count() <= 1 {
            for j in 0..n {
                let (fail, update) = per_active(j);
                failures.extend(fail);
                vrt_updates.extend(update);
            }
        } else {
            let chunks = reaper_exec::par_index_map(n, 256, |range| {
                let mut fails = Vec::new();
                let mut updates = Vec::new();
                for j in range {
                    let (fail, update) = per_active(j);
                    fails.extend(fail);
                    updates.extend(update);
                }
                (fails, updates)
            });
            for (fails, updates) in chunks {
                failures.extend(fails);
                vrt_updates.extend(updates);
            }
        }
        (failures, vrt_updates)
    }
}

/// Sentinel threshold: the cell cannot fail at this condition/state
/// (`z < −Z_CUTOFF`; the scalar path performs no failure draw).
pub(crate) const CERTAIN_PASS: f64 = -1.0;
/// Sentinel threshold: the cell always fails at this condition/state
/// (`z > Z_CUTOFF`; the scalar path performs no failure draw).
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
/// Kept behind an `Arc` on the plan: the pooled fan-out under the round
/// scans (`reaper_exec::par_index_map_pooled`) hands work to persistent
/// threads that outlive the caller, and the workspace denies
/// `unsafe_code`, so the lanes must be shareable with a `'static`
/// lifetime. The lanes are immutable after compilation, so sharing them
/// is free of aliasing hazards; only the plan's bookkeeping (`fail_hint`)
/// lives outside the `Arc`.
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
/// pass (dropped — no lane, no draw, exactly like the scalar path),
/// certain fail (index appended verbatim each round), and in-band (one
/// uniform draw against the cached `phi(z)`). VRT cells keep both per-state
/// thresholds and are observed every round, exactly like the scalar path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialPlan {
    pub(crate) key: PlanKey,
    /// Candidate-window bound the plan was compiled for (consistency
    /// checks; the lanes already encode it).
    end: usize,
    /// The immutable compiled lanes, shared with pooled fan-outs.
    pub(crate) lanes: Arc<PlanLanes>,
    /// Failure count of this plan's most recent round — the capacity
    /// guess for the next round's failure vector. Seeded with the static
    /// `certain + in-band/8 + vrt` heuristic at compile time; reusing the
    /// previous round's actual count stops high-failure conditions from
    /// reallocating every round.
    fail_hint: usize,
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

        let mut lanes = PlanLanes::default();

        let mut add = |cell: &WeakCell, lvl: u8| {
            let stress = f64::from(lvl) / 4.0;
            let sigma = cell.sigma0 as f64 * ss_scale;
            match cell.vrt_index {
                Some(slot) => {
                    let mu_high = cell.effective_mu(ms_scale, stress, 1.0);
                    let mu_low = cell.effective_mu(ms_scale, stress, cfg.vrt_low_mu_factor);
                    lanes.vrt_slot.push(slot);
                    lanes.vrt_idx.push(cell.index);
                    lanes.vrt_thr.push(threshold_of((t - mu_high) / sigma));
                    lanes.vrt_thr.push(threshold_of((t - mu_low) / sigma));
                }
                None => {
                    let mu = cell.effective_mu(ms_scale, stress, 1.0);
                    let z = (t - mu) / sigma;
                    if z > Z_CUTOFF {
                        lanes.certain.push(cell.index);
                    } else if z >= -Z_CUTOFF {
                        lanes.prob_idx.push(cell.index);
                        lanes.prob_thr_u.push(u53_threshold(phi(z)));
                    }
                    // z < -Z_CUTOFF: certain pass, dropped — the scalar
                    // path opens a lane but draws nothing for these, so
                    // skipping the lane entirely changes no stream.
                }
            }
        };

        match lowering {
            Some(low) => {
                debug_assert!(low.pattern == pattern, "lowering pattern mismatch");
                let n = low.active_prefix(end);
                for (ord, lvl) in low.ord.iter().zip(&low.lvl).take(n) {
                    let cell = cells
                        .get(num::idx(*ord))
                        .expect("invariant: lowering ordinals index the cell array it was built from");
                    add(cell, *lvl);
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
        let fail_hint = lanes.certain.len() + lanes.prob_idx.len() / 8 + lanes.vrt_idx.len();
        Self {
            key: PlanKey::new(pattern, interval, temp),
            end,
            lanes: Arc::new(lanes),
            fail_hint,
        }
    }

    /// The lane-shape invariants the round loops rely on: parallel lanes
    /// have equal lengths and the three lane classes fit inside the
    /// candidate window they partition. Checked via `debug_assert!`.
    pub(crate) fn lanes_consistent(&self) -> bool {
        let lanes = &self.lanes;
        let n = lanes.prob_idx.len();
        n == lanes.prob_thr_u.len()
            && lanes.vrt_slot.len() == lanes.vrt_idx.len()
            && lanes.vrt_thr.len() == lanes.vrt_slot.len() * 2
            && lanes.certain.len() + n + lanes.vrt_idx.len() <= self.end
    }

    /// One round: extend with the certain failures, draw one uniform per
    /// in-band lane, then observe the VRT chains. Bit-identical to the
    /// scalar window scan at this condition.
    pub(crate) fn run_round(
        &mut self,
        base_vrt: &[TwoStateVrt],
        ctx: &TrialCtx,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        debug_assert!(self.lanes_consistent(), "plan SoA lanes out of sync");
        let lanes = &self.lanes;
        let mut failures = Vec::with_capacity(self.fail_hint + self.fail_hint / 8 + 4);
        failures.extend_from_slice(&lanes.certain);

        // In-band non-VRT lanes: the branch-light hot scan. One hash lane,
        // one draw, one compare per cell.
        let n = lanes.prob_idx.len();
        if n < PAR_MIN_CELLS || reaper_exec::thread_count() <= 1 {
            scan_prob_range(lanes, ctx, 0..n, &mut failures);
        } else {
            // Fan out through the persistent pool: the shared lanes ride
            // an Arc clone and the ctx a copy, satisfying the pool's
            // 'static bound without touching unsafe.
            let shared = Arc::clone(&self.lanes);
            let ctx_c = *ctx;
            let chunks = reaper_exec::par_index_map_pooled(
                n,
                256,
                Arc::new(move |range: core::ops::Range<usize>| {
                    let mut out = Vec::new();
                    scan_prob_range(&shared, &ctx_c, range, &mut out);
                    out
                }),
            );
            for chunk in chunks {
                failures.extend(chunk);
            }
        }

        // VRT lanes: the chain is observed (and its advanced copy merged
        // back by the caller) every round, exactly like the scalar path;
        // the state selects which precompiled threshold applies.
        let mut vrt_updates = Vec::with_capacity(lanes.vrt_slot.len());
        for ((slot, idx), pair) in lanes
            .vrt_slot
            .iter()
            .zip(&lanes.vrt_idx)
            .zip(lanes.vrt_thr.chunks_exact(2))
        {
            let [thr_high, thr_low]: [f64; 2] = pair
                .try_into()
                .expect("invariant: vrt_thr holds two thresholds per cell");
            let mut lane = stream(&[ctx.stream_base, TRIAL_DOMAIN, ctx.nonce, *idx]);
            let mut vrt = *base_vrt
                .get(num::idx(*slot))
                .expect("invariant: plan VRT slots are positions pushed into base_vrt");
            let in_low = vrt.observe_at(ctx.now_ms, lane.next_f64());
            vrt_updates.push((*slot, vrt));
            let thr = if in_low { thr_low } else { thr_high };
            // Certain-fail consumes no uniform (matching the scalar draw
            // count); only in-band thresholds draw.
            let fails = if thr.to_bits() == CERTAIN_FAIL.to_bits() {
                true
            } else {
                thr.to_bits() != CERTAIN_PASS.to_bits() && lane.next_f64() < thr
            };
            if fails {
                failures.push(*idx);
            }
        }
        self.fail_hint = failures.len();
        (failures, vrt_updates)
    }

    /// Records the failure count of a kernel-evaluated round so the next
    /// capacity guess tracks reality (the batch kernel sizes its own
    /// vectors from exact popcounts but keeps the hint warm for any
    /// single-round call that follows).
    pub(crate) fn note_round_failures(&mut self, count: usize) {
        self.fail_hint = count;
    }
}

/// The single-round in-band scan over `prob` lane range `range`,
/// appending failing cell indices to `out`. Free function (not a
/// closure) so the inline and pooled dispatch paths share one body.
fn scan_prob_range(
    lanes: &PlanLanes,
    ctx: &TrialCtx,
    range: core::ops::Range<usize>,
    out: &mut Vec<u64>,
) {
    let idx_lane = lanes
        .prob_idx
        .get(range.clone())
        .expect("invariant: scan ranges are within [0, len)");
    let thr_lane = lanes
        .prob_thr_u
        .get(range)
        .expect("invariant: prob lanes are index-aligned");
    for (&idx, &thr_u) in idx_lane.iter().zip(thr_lane) {
        let mut lane = stream(&[ctx.stream_base, TRIAL_DOMAIN, ctx.nonce, idx]);
        if (lane.next_u64() >> 11) < thr_u {
            out.push(idx);
        }
    }
}

/// Compiled plans kept per chip.
const PLAN_CAP: usize = 16;
/// Pattern lowerings kept per chip.
const LOWERING_CAP: usize = 16;
/// First-sighting records kept per chip (Auto promotion bookkeeping).
const SEEN_CAP: usize = 64;

/// Per-chip cache of lowerings and compiled plans, plus the Auto engine's
/// first-sighting bookkeeping. All lookups are linear scans over short
/// `Vec`s — deterministic iteration order (lint rule D1) and faster than
/// any map at these sizes. Recency is tracked with a logical tick, never
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

    /// Mutable plan access for round execution (`run_round`/`run_rounds`
    /// update the plan's failure-capacity hint as a side effect).
    pub(crate) fn plan_at_mut(&mut self, i: usize) -> &mut TrialPlan {
        self.plans
            .get_mut(i)
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
        // boundary values stay in-band, matching the scalar strict compares
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
        assert_eq!(cache.plan_at_mut(pi).key, key);
        assert!(cache.find_lowering(pat).is_some());
        assert_eq!(cache.lowering_at(li).pattern, pat);

        // Plans leave only through LRU eviction: a plan hit when the cache
        // is full outlives the older entries, then goes once it is the
        // least recently used. Nothing invalidates it.
        let plan = cache.plan_at_mut(pi).clone();
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
