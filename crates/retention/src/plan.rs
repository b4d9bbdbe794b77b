//! Cached trial state: pattern lowerings and compiled trial plans.
//!
//! Every experiment reduces to running many retention trials at a fixed
//! condition. The window scan in [`crate::chip`] recomputes, per trial and
//! per candidate cell: the stored-bit polarity gate, the DPD stress
//! fraction (five `bit_at` evaluations), the effective μ/σ/z, and
//! `phi(z)` for the failure decision (certified against a table, so the
//! erf-backed `phi` itself runs only for draws next to it). None of that
//! depends on the trial nonce — only the uniform draws do.
//!
//! This module factors the invariant work out into two cacheable tiers:
//!
//! * [`PatternLowering`] — keyed by *pattern only*. Packs the
//!   polarity-active cell ordinals and their quantized DPD stress levels
//!   (matches-of-4 ∈ 0..=4) into flat lanes. Temperature- and
//!   time-independent, so it survives the harness's per-trial thermal
//!   jitter and `advance` calls. It feeds the window scan (which then
//!   skips the polarity and stress work) and plan compilation. It covers
//!   only the cells the pattern's trial windows have reached: it is
//!   extended to a trial's window just before either reads it, so nothing
//!   is lowered ahead of use and a profiling job lowers ~750 cells of a
//!   ~6.3k-cell chip.
//! * [`TrialPlan`] — keyed by `(pattern, interval, temp)`. Lowers the
//!   trial window all the way to per-cell integer thresholds, certified
//!   floors `⌊(Φ̃(z) − ε) · 2⁵³⌋` from the Φ table
//!   ([`crate::cell::phi_floor_u53`]), stored in rank-keyed lanes (see
//!   `PlanLanes`) that the bit-plane kernel ([`crate::batch`]) runs — no
//!   erf at compile time or per draw, no struct chasing, no VRT copy for
//!   non-VRT cells.
//!
//! A single trial whose condition is seen for the first time runs the
//! window scan (with a lowering, built over its window, once its pattern
//! recurs); a recurring condition compiles a plan on its second sighting,
//! and every later trial at it runs through the kernel as a batch of one.
//! A condition with two or more trials in one call compiles at once:
//! asking for many rounds at one condition is itself the recurrence
//! signal.
//!
//! The scan and the compile walk the same [`LaneSource`]: every cell of
//! the window under one pattern, a pattern's lowering, or a pattern and
//! its inverse at once. The pair splits the cells between its members,
//! since each cell stores its vulnerable bit under exactly one of the
//! two, so one walk serves both trials or compiles both plans.
//!
//! # Lifecycle
//!
//! compile → run rounds → evict. A plan reads only the chip's immutable
//! cell array, window keys and config plus its own `(pattern, interval,
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
//! cached certified floor, with the exact threshold recomputed for draws
//! in its band, decides exactly as `next_f64() < phi(z)` would in the
//! scan. Because every hash lane is keyed by its own (cell, nonce), lane
//! order is outcome-neutral; failures are bits of a bitmap and VRT writes
//! are per-slot — hence identical at any thread count. See DESIGN.md
//! §"Compiled trial plans".

use reaper_analysis::special::phi;
use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms};
use reaper_exec::num;

use crate::batch::u53_threshold;
use crate::cell::{phi_floor_u53, WeakCell};
use crate::chip::{count_ranks, rank_words, set_rank, window_len, SimulatedChip, Window, Z_CUTOFF};
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
    /// Pattern lowerings constructed, each on a sighting of its pattern
    /// after the first. Extending one to a larger window does not count.
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
/// pattern, the ordinals (into the window-ordered cell array) of the
/// polarity-active cells and their quantized DPD stress levels, over the
/// cells the pattern's trial windows have reached so far.
///
/// A trial window is a prefix of each of the cell array's two segments
/// ([`crate::chip::window_ranges`]), so the lowering keeps one lane run
/// per segment and the end of the cells it has covered there.
/// [`PatternLowering::extend`] grows each run to the current trial's
/// window before the scan or a plan compile reads it: a profiling job
/// pays for the cells its trials reach, not for the whole chip. Because
/// each run's ordinals are ascending, a window range maps to one range of
/// the run's lanes via a `partition_point`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PatternLowering {
    pub(crate) pattern: DataPattern,
    /// One run per window segment: non-VRT cells, then VRT cells.
    runs: [LaneRun; 2],
}

/// The lanes of one window segment covered so far.
#[derive(Debug, Clone, PartialEq)]
struct LaneRun {
    /// Ordinals of covered cells whose stored bit equals their vulnerable
    /// bit under the pattern (the packed polarity lane), ascending.
    ord: Vec<u32>,
    /// `stress_matches` ∈ 0..=4 parallel to `ord` (the packed DPD lane);
    /// the stress fraction is `lvl / 4`.
    lvl: Vec<u8>,
    /// End (exclusive) of the cells covered: the run holds every active
    /// cell from the segment start up to here.
    end: usize,
}

impl PatternLowering {
    /// A lowering of `pattern` covering no cell yet, its runs starting at
    /// the segment starts of `window`.
    pub(crate) fn new(pattern: DataPattern, window: &Window) -> Self {
        Self {
            pattern,
            runs: window.clone().map(|cells| LaneRun {
                ord: Vec::new(),
                lvl: Vec::new(),
                end: cells.start,
            }),
        }
    }

    /// A lowering of `pattern` covering `window`.
    #[cfg(test)]
    pub(crate) fn covering(cells: &[WeakCell], pattern: DataPattern, geometry: ChipGeometry, window: &Window) -> Self {
        let mut lowering = Self::new(pattern, window);
        lowering.extend(cells, geometry, window);
        lowering
    }

    /// Grows each run to the end of `window`'s range in its segment. A
    /// window never starts past a run's segment start, and a run already
    /// covering its range is left alone.
    pub(crate) fn extend(&mut self, cells: &[WeakCell], geometry: ChipGeometry, window: &Window) {
        for (run, range) in self.runs.iter_mut().zip(window) {
            debug_assert!(
                range.start <= run.end,
                "a window range starts at its segment start"
            );
            let from = run.end;
            for (i, cell) in cells.get(from..range.end).into_iter().flatten().enumerate() {
                if let Some(level) = cell.active_stress(self.pattern, geometry) {
                    run.ord.push(num::to_u32(from + i));
                    run.lvl.push(level);
                }
            }
            run.end = run.end.max(range.end);
        }
    }

    /// The end of the cells covered in each segment.
    #[cfg(test)]
    pub(crate) fn covered_ends(&self) -> [usize; 2] {
        self.runs.each_ref().map(|run| run.end)
    }

    /// The lane ranges, one per run, whose ordinals fall inside the two
    /// cell ranges of `window`, which the lowering must cover.
    pub(crate) fn active_lanes(&self, window: &Window) -> Window {
        let mut lanes = window.clone();
        for (run, lanes) in self.runs.iter().zip(&mut lanes) {
            debug_assert!(lanes.end <= run.end, "extend the lowering to the window first");
            let below = |end: usize| run.ord.partition_point(|&o| num::idx(o) < end);
            *lanes = below(lanes.start)..below(lanes.end);
        }
        lanes
    }

    /// Lane `j` of run `segment`: the cell's ordinal in the window-ordered
    /// cell array and its DPD stress level (matches-of-4).
    pub(crate) fn lane(&self, segment: usize, j: usize) -> (usize, u8) {
        let run = self
            .runs
            .get(segment)
            .expect("invariant: a window has two segments");
        let ord = run.ord.get(j).expect("invariant: active lanes lie inside ord");
        let lvl = run.lvl.get(j).expect("invariant: lvl lane is parallel to ord");
        (num::idx(*ord), *lvl)
    }
}

/// Where a trial's polarity-active cells come from: the one lane source
/// the window scan and the plan compile walk. Each active cell comes with
/// its *target*, the index of the pattern it is active under in
/// [`LaneSource::patterns`]: always 0 but for a pair, whose cells each
/// store their vulnerable bit under exactly one member (1 for the
/// inverse).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneSource<'a> {
    /// Every cell of the window, gated by the pattern's polarity.
    Cells(DataPattern),
    /// The polarity-active cells of a lowering extended to the window.
    Lowered(&'a PatternLowering),
    /// Every cell of the window, for the pattern and its inverse.
    Pair(DataPattern),
}

impl LaneSource<'_> {
    /// The patterns whose trials the source serves, in target order.
    pub(crate) fn patterns(&self) -> impl Iterator<Item = DataPattern> {
        let (pattern, n) = match *self {
            Self::Cells(pattern) => (pattern, 1),
            Self::Lowered(low) => (low.pattern, 1),
            Self::Pair(pattern) => (pattern, 2),
        };
        [pattern, pattern.inverse()].into_iter().take(n)
    }

    /// Calls `visit(ordinal, DPD level, target)` on each active cell of
    /// `window`, in window order: over a lowering its lanes in the window,
    /// otherwise every cell, skipping the polarity-inactive ones. The
    /// source is matched once, outside the loops, so each source runs its
    /// own loop around `visit`.
    pub(crate) fn visit(
        self,
        cells: &[WeakCell],
        geometry: ChipGeometry,
        window: &Window,
        mut visit: impl FnMut(usize, u8, usize),
    ) {
        let cell = |ord: usize| cells.get(ord).expect("invariant: window ranges index the cell array");
        match self {
            Self::Cells(pattern) => {
                for ord in window.clone().into_iter().flatten() {
                    if let Some(lvl) = cell(ord).active_stress(pattern, geometry) {
                        visit(ord, lvl, 0);
                    }
                }
            }
            Self::Lowered(low) => {
                for (segment, lanes) in low.active_lanes(window).into_iter().enumerate() {
                    for j in lanes {
                        let (ord, lvl) = low.lane(segment, j);
                        visit(ord, lvl, 0);
                    }
                }
            }
            Self::Pair(pattern) => {
                for ord in window.clone().into_iter().flatten() {
                    let (inverse, lvl) = cell(ord).pair_stress(pattern, geometry);
                    visit(ord, lvl, usize::from(inverse));
                }
            }
        }
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

/// The compiled lanes of a [`TrialPlan`], in the chip's rank space: a
/// cell is named by the rank of its index among the chip's weak cells
/// (`index_rank`), and the chip's `by_rank` table turns a rank back into
/// the index where a lane hashes or a round is emitted.
///
/// The in-band and VRT lanes are sorted ascending by rank, which is index
/// order, so the kernel reads `by_rank` front to back. Lane order is
/// outcome-neutral: every hash lane is keyed by its own (cell, nonce),
/// every VRT lane owns its chain slot, and a round's failures are bits of
/// a bitmap.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct PlanLanes {
    /// Non-VRT cells with `z > Z_CUTOFF`, which fail every round with no
    /// draw: a bitmap with a bit per rank (`⌈cells/64⌉` words), ORed into
    /// every round as it is.
    pub(crate) certain: Vec<u64>,
    /// In-band non-VRT lanes (structure-of-arrays, parallel): the cell's
    /// rank and the certified floor of its threshold
    /// ([`crate::cell::phi_floor_u53`]): a 53-bit draw below the floor
    /// fails, one past its band passes, and one in the band is decided
    /// against `u53_threshold(phi(z))`, which the kernel recomputes
    /// ([`TrialPlan::exact_threshold`]).
    pub(crate) prob_rank: Vec<u32>,
    pub(crate) prob_lo: Vec<u64>,
    /// VRT lanes: base_vrt slot, cell rank, and per-cell `[high, low]`
    /// state thresholds (flattened pairs, sentinel-encoded).
    pub(crate) vrt_slot: Vec<u32>,
    pub(crate) vrt_rank: Vec<u32>,
    pub(crate) vrt_thr: Vec<f64>,
}

impl PlanLanes {
    /// Heap bytes held by each lane class: certain, in-band, VRT.
    #[cfg(test)]
    pub(crate) fn class_bytes(&self) -> [usize; 3] {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        [
            bytes(&self.certain),
            bytes(&self.prob_rank) + bytes(&self.prob_lo),
            bytes(&self.vrt_slot) + bytes(&self.vrt_rank) + bytes(&self.vrt_thr),
        ]
    }
}

/// Tier 2: a fully compiled plan for one `(pattern, interval, temp)`.
///
/// Non-VRT cells are resolved at compile time into three classes: certain
/// pass (dropped — no lane, no draw, exactly like the window scan),
/// certain fail (a rank bit set in every round), and in-band (one uniform
/// draw against the certified floor of `phi(z)`). VRT cells keep both per-state
/// thresholds and are observed every round, exactly like the window scan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialPlan {
    pub(crate) key: PlanKey,
    /// Number of cells in the trial window the plan was compiled for
    /// (consistency checks; the lanes already encode it).
    window_cells: usize,
    /// The immutable compiled lanes.
    pub(crate) lanes: PlanLanes,
}

impl TrialPlan {
    /// Compiles one plan per pattern of `source`, in target order, at
    /// `(interval, temp)` over `window`, the chip's trial window there
    /// ([`crate::chip::window_ranges`]), naming each cell by `index_rank`
    /// (parallel to `cells`). Non-VRT cells are resolved into their class
    /// here; VRT cells keep both per-state thresholds. A pattern's plan is
    /// the same from every source that serves it.
    pub(crate) fn compile(
        cfg: &RetentionConfig,
        cells: &[WeakCell],
        index_rank: &[u32],
        window: &Window,
        source: LaneSource<'_>,
        (interval, temp): (Ms, Celsius),
    ) -> Vec<Self> {
        let (t_secs, ms_scale, ss_scale) = (interval.as_secs(), cfg.mu_temp_scale(temp), cfg.sigma_temp_scale(temp));
        struct Classes {
            certain: Vec<u64>,
            prob: Vec<(u32, u64)>,
            vrt: Vec<(u32, u32, [f64; 2])>,
        }
        // The window's VRT range bounds the VRT lanes (see the scan).
        let [_, vrt_cells] = window;
        let mut classes: Vec<Classes> = source.patterns().map(|_| Classes {
            certain: vec![0; rank_words(cells.len())],
            prob: Vec::new(),
            vrt: Vec::with_capacity(vrt_cells.len()),
        }).collect();
        source.visit(cells, cfg.geometry, window, |ord, lvl, target| {
            let cell = cells.get(ord).expect("invariant: active ordinals index the cell array");
            let rank = *index_rank
                .get(ord)
                .expect("invariant: index_rank is parallel to the cell array");
            let class = classes
                .get_mut(target)
                .expect("invariant: a cell's target indexes the source's patterns");
            let z = |vrt_factor| cell.z_at(lvl, t_secs, ms_scale, ss_scale, vrt_factor);
            match cell.vrt_index {
                Some(slot) => {
                    let thr = [z(1.0), z(cfg.vrt_low_mu_factor)].map(threshold_of);
                    class.vrt.push((rank, slot, thr));
                }
                None => {
                    let z = z(1.0);
                    if z > Z_CUTOFF {
                        set_rank(&mut class.certain, rank);
                    } else if z >= -Z_CUTOFF {
                        class.prob.push((rank, phi_floor_u53(z)));
                    }
                    // z < -Z_CUTOFF: certain pass, dropped — the scan
                    // opens a lane but draws nothing for these, so
                    // skipping the lane entirely changes no stream.
                }
            }
        });

        // Cells were visited in window-key order; store the lanes by rank.
        // Each lane is collected from an exact-size iterator, so none holds
        // spare capacity (a standard-set cycle keeps 24 plans resident).
        let window_cells = window_len(window);
        let plans = classes.into_iter().zip(source.patterns()).map(|(mut class, pattern)| {
            class.prob.sort_unstable_by_key(|&(rank, _)| rank);
            class.vrt.sort_unstable_by_key(|&(rank, ..)| rank);
            let (prob, vrt) = (&class.prob, &class.vrt);
            let lanes = PlanLanes {
                certain: class.certain,
                prob_rank: prob.iter().map(|&(rank, _)| rank).collect(),
                prob_lo: prob.iter().map(|&(_, lo)| lo).collect(),
                vrt_slot: vrt.iter().map(|&(_, slot, _)| slot).collect(),
                vrt_rank: vrt.iter().map(|&(rank, ..)| rank).collect(),
                vrt_thr: vrt.iter().flat_map(|&(.., thr)| thr).collect(),
            };
            Self {
                key: PlanKey::new(pattern, interval, temp),
                window_cells,
                lanes,
            }
        });
        plans.collect()
    }

    /// A cache slot for the plan of `key`, reserved on the sighting that
    /// compiles it and filled ([`PlanCache::fill_plan`]) before it runs.
    /// Its lanes are empty: run unfilled, the kernel's bitmap-length
    /// assertion stops it.
    pub(crate) fn pending(key: PlanKey) -> Self {
        Self {
            key,
            window_cells: 0,
            lanes: PlanLanes::default(),
        }
    }

    /// The exact threshold `u53_threshold(phi(z))` of the in-band lane of
    /// `rank`, recomputed from its cell at `ctx`'s condition, which is the
    /// plan's: what the kernel decides a draw in the lane's band against.
    pub(crate) fn exact_threshold(&self, chip: &SimulatedChip, ctx: &TrialCtx, rank: u32) -> u64 {
        let cell = chip.cell_of_rank(rank);
        let lvl = cell
            .active_stress(self.key.pattern, chip.geometry())
            .expect("invariant: an in-band lane's cell is active under its plan's pattern");
        u53_threshold(phi(cell.z_at(lvl, ctx.t_secs, ctx.ms_scale, ctx.ss_scale, 1.0)))
    }

    /// The lane invariants the kernel relies on: parallel lanes have equal
    /// lengths, the three lane classes fit inside the trial window they
    /// partition, and the in-band and VRT lanes are strictly ascending by
    /// rank and inside the certain bitmap's ranks. Checked via
    /// `debug_assert!`.
    pub(crate) fn lanes_consistent(&self) -> bool {
        let lanes = &self.lanes;
        let n = lanes.prob_rank.len();
        let ranks = lanes.certain.len() * 64;
        let ranked = |v: &[u32]| v.is_sorted_by(|a, b| a < b) && v.last().is_none_or(|&r| num::idx(r) < ranks);
        n == lanes.prob_lo.len()
            && lanes.vrt_slot.len() == lanes.vrt_rank.len()
            && lanes.vrt_thr.len() == lanes.vrt_slot.len() * 2
            && count_ranks(&lanes.certain) + n + lanes.vrt_rank.len() <= self.window_cells
            && ranked(&lanes.prob_rank)
            && ranked(&lanes.vrt_rank)
    }
}

/// Compiled plans kept per chip: one cycle of
/// `DataPattern::standard_set` at one condition. The set recurs over 24
/// conditions — 4 fixed families × 2 polarities every iteration, plus
/// `walking1`'s 8 phases × 2 polarities every 8th (its random pair never
/// recurs) — so a loop over it compiles 24 plans. At 16 slots LRU evicted
/// every walking plan before its next sighting, and each recompile served
/// one trial.
const PLAN_CAP: usize = 32;
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

/// Whether a `(tick, value)` cache list holds a value that is `hit`; the
/// first such value is stamped with the next logical tick, as a use.
fn touch<T>(tick: &mut u64, entries: &mut [(u64, T)], hit: impl Fn(&T) -> bool) -> bool {
    let Some(entry) = entries.iter_mut().find(|(_, value)| hit(value)) else {
        return false;
    };
    *tick += 1;
    entry.0 = *tick;
    true
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

    /// Whether a plan for `key` is cached; a hit counts as a use.
    pub(crate) fn find_plan(&mut self, key: &PlanKey) -> bool {
        touch(&mut self.tick, &mut self.plans, |p| p.key == *key)
    }

    pub(crate) fn insert_plan(&mut self, plan: TrialPlan) {
        if self.plans.len() >= PLAN_CAP {
            evict_min_tick(&mut self.plans, |(tick, _)| *tick);
        }
        let tick = self.bump();
        self.plans.push((tick, plan));
    }

    /// The cached plan for `key`, without touching recency. Routes name
    /// plans by key, not by position: an insert between a trial's route
    /// and its run may move a plan, but cannot evict the one just used.
    pub(crate) fn plan(&self, key: &PlanKey) -> &TrialPlan {
        self.plans
            .iter()
            .map(|(_, p)| p)
            .find(|p| p.key == *key)
            .expect("invariant: a routed plan stays cached until its trial has run")
    }

    /// Puts the compiled `plan` in the slot reserved for its key
    /// ([`TrialPlan::pending`]), keeping the slot's recency.
    pub(crate) fn fill_plan(&mut self, plan: TrialPlan) {
        let slot = self
            .plans
            .iter_mut()
            .map(|(_, p)| p)
            .find(|p| p.key == plan.key)
            .expect("invariant: a plan is filled right after its slot is reserved");
        *slot = plan;
    }

    /// Whether a lowering of `pattern` is cached; a hit counts as a use.
    pub(crate) fn find_lowering(&mut self, pattern: DataPattern) -> bool {
        touch(&mut self.tick, &mut self.lowerings, |l| l.pattern == pattern)
    }

    /// The cached lowering of `pattern`, if any, without touching
    /// recency.
    pub(crate) fn lowering(&self, pattern: DataPattern) -> Option<&PatternLowering> {
        self.lowerings.iter().map(|(_, l)| l).find(|l| l.pattern == pattern)
    }

    /// [`PlanCache::lowering`], to extend it.
    pub(crate) fn lowering_mut(&mut self, pattern: DataPattern) -> Option<&mut PatternLowering> {
        self.lowerings
            .iter_mut()
            .map(|(_, l)| l)
            .find(|l| l.pattern == pattern)
    }

    pub(crate) fn insert_lowering(&mut self, lowering: PatternLowering) {
        if self.lowerings.len() >= LOWERING_CAP {
            evict_min_tick(&mut self.lowerings, |(tick, _)| *tick);
        }
        let tick = self.bump();
        self.lowerings.push((tick, lowering));
    }

    /// The cached lowerings, for in-crate tests.
    #[cfg(test)]
    pub(crate) fn lowerings(&self) -> impl Iterator<Item = &PatternLowering> {
        self.lowerings.iter().map(|(_, l)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{emit_ranks, SimulatedChip};
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
    fn extended_lowering_matches_per_cell_predicates() {
        // A lowering built over a short window and extended over a longer
        // one equals one built over the longer window, holds exactly the
        // active cells of the covered ranges, and maps each window range
        // to the lanes whose ordinals it holds.
        let chip = quick_chip();
        let pattern = DataPattern::checkerboard();
        let geometry = chip.geometry();
        let temp = Celsius::new(60.0);
        let short = chip.window(Ms::new(512.0), temp);
        let long = chip.window(Ms::new(2048.0), temp);
        assert!(short.iter().zip(&long).all(|(s, l)| s.end < l.end));
        let mut low = PatternLowering::covering(chip.cells(), pattern, geometry, &short);
        assert_eq!(low.covered_ends(), short.clone().map(|r| r.end));
        low.extend(chip.cells(), geometry, &long);
        assert_eq!(low, PatternLowering::covering(chip.cells(), pattern, geometry, &long));
        // Extending to a window the lowering already covers is a no-op.
        low.extend(chip.cells(), geometry, &short);
        assert_eq!(low.covered_ends(), long.clone().map(|r| r.end));

        let lanes = low.active_lanes(&long);
        for (segment, (cells, lanes)) in long.iter().zip(&lanes).enumerate() {
            let run = &low.runs[segment];
            assert_eq!(run.ord.len(), run.lvl.len());
            assert_eq!(*lanes, 0..run.ord.len());
            let mut k = 0;
            for i in cells.clone() {
                let cell = &chip.cells()[i];
                if cell.stored_bit(pattern, geometry) == cell.vulnerable_bit {
                    assert_eq!(low.lane(segment, k), (i, cell.stress_matches(pattern, geometry)));
                    k += 1;
                }
            }
            assert_eq!(k, run.ord.len());
        }
        // A shorter window maps to a prefix of each run.
        for (cells, lanes) in short.iter().zip(low.active_lanes(&short)) {
            assert_eq!(lanes.start, 0);
            let in_cells = |&o: &u32| cells.contains(&num::idx(o));
            let run = &low.runs[if cells.start == 0 { 0 } else { 1 }];
            assert_eq!(run.ord.iter().filter(|o| in_cells(o)).count(), lanes.len());
        }

        // Over each window, the three lane sources agree: the lowering
        // yields the all-cells lanes, and the pair sends each cell to the
        // member whose all-cells source holds it.
        let active = |source: LaneSource<'_>, window: &Window| {
            let mut lanes = Vec::new();
            source.visit(chip.cells(), geometry, window, |ord, lvl, target| lanes.push((ord, lvl, target)));
            lanes
        };
        for window in [&short, &long] {
            let cells = active(LaneSource::Cells(pattern), window);
            assert!(cells.iter().all(|&(.., target)| target == 0));
            assert_eq!(active(LaneSource::Lowered(&low), window), cells);
            let pair = active(LaneSource::Pair(pattern), window);
            for (target, member) in [pattern, pattern.inverse()].into_iter().enumerate() {
                let lanes: Vec<_> = pair
                    .iter()
                    .filter(|&&(.., t)| t == target)
                    .map(|&(ord, lvl, _)| (ord, lvl, 0))
                    .collect();
                assert_eq!(lanes, active(LaneSource::Cells(member), window), "target {target}");
            }
            assert_eq!(pair.len(), window_len(window), "every cell is active under one member");
        }
    }

    /// Compiles the plans of `source` at `(interval, temp)` on `chip`.
    fn compile_source(chip: &SimulatedChip, source: LaneSource<'_>, interval: Ms, temp: Celsius) -> Vec<TrialPlan> {
        let (index_rank, _) = chip.rank_tables_for_tests();
        let window = chip.window(interval, temp);
        TrialPlan::compile(chip.config(), chip.cells(), &index_rank, &window, source, (interval, temp))
    }

    /// Compiles the plan of `(pattern, interval, temp)` on `chip`, with or
    /// without a lowering.
    fn compile(
        chip: &SimulatedChip,
        lowering: Option<&PatternLowering>,
        (pattern, interval, temp): (DataPattern, Ms, Celsius),
    ) -> TrialPlan {
        let source = lowering.map_or(LaneSource::Cells(pattern), LaneSource::Lowered);
        let [plan] = <[TrialPlan; 1]>::try_from(compile_source(chip, source, interval, temp)).expect("one plan");
        plan
    }

    #[test]
    fn compile_with_and_without_lowering_is_identical() {
        let chip = quick_chip();
        let pattern = reaper_dram_model::DataPattern::row_stripe();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);
        let window = chip.window(interval, temp);
        let low = PatternLowering::covering(chip.cells(), pattern, chip.geometry(), &window);
        let direct = compile(&chip, None, (pattern, interval, temp));
        let via_lowering = compile(&chip, Some(&low), (pattern, interval, temp));
        assert_eq!(direct, via_lowering);
        assert!(direct.lanes_consistent());
        // the three classes partition the polarity-active window
        let lanes = &direct.lanes;
        let n_lanes = count_ranks(&lanes.certain) + lanes.prob_rank.len() + lanes.vrt_rank.len();
        assert!(n_lanes <= direct.window_cells);
        assert!(!lanes.prob_rank.is_empty(), "expected in-band cells");
    }

    #[test]
    fn pair_compile_equals_the_single_compiles_lane_for_lane() {
        // Every family, both members first, at conditions from a short
        // window to one past every VRT cell's reach: the pair walk sends
        // each cell to the member that activates it with that member's
        // stress, so both plans equal their single compiles.
        let chip = quick_chip();
        let mut lanes = 0;
        for (pattern, interval_ms, temp_c) in [
            (DataPattern::solid0(), 512.0, 45.0),
            (DataPattern::checkerboard().inverse(), 1024.0, 60.0),
            (DataPattern::row_stripe(), 2048.0, 70.0),
            (DataPattern::col_stripe(), 3072.0, 60.0),
            (DataPattern::walking1(5), 4096.0, 75.0),
            (DataPattern::random(0xF15), 2048.0, 45.0),
        ] {
            let (interval, temp) = (Ms::new(interval_ms), Celsius::new(temp_c));
            let plans = compile_source(&chip, LaneSource::Pair(pattern), interval, temp);
            let [plan, inverse] = <[TrialPlan; 2]>::try_from(plans).expect("a pair compiles two plans");
            assert_eq!(plan, compile(&chip, None, (pattern, interval, temp)), "{pattern}");
            let inverse_condition = (pattern.inverse(), interval, temp);
            assert_eq!(inverse, compile(&chip, None, inverse_condition), "~{pattern}");
            lanes += plan.lanes.prob_rank.len().min(inverse.lanes.prob_rank.len());
            lanes += plan.lanes.vrt_rank.len().min(inverse.lanes.vrt_rank.len());
        }
        assert!(lanes > 0, "both members must hold lanes");
    }

    #[test]
    fn compiled_lane_classes_are_rank_sorted_and_disjoint() {
        // The kernel reads `by_rank` front to back along the in-band and
        // VRT lanes, so each must come out of compile strictly ascending
        // by rank — although compile visits cells in window-key order —
        // and no rank may sit in two classes. Several conditions, with
        // and without a lowering, on a chip with VRT cells so every class
        // is populated.
        let chip = quick_chip();
        let by_rank = chip.rank_tables_for_tests().1;
        let mut populated = [false; 3];
        for (pattern, interval_ms, temp_c) in [
            (DataPattern::checkerboard(), 1024.0, 60.0),
            (DataPattern::solid1(), 2048.0, 70.0),
            (DataPattern::random(5), 4096.0, 75.0),
        ] {
            let (interval, temp) = (Ms::new(interval_ms), Celsius::new(temp_c));
            let window = chip.window(interval, temp);
            let low = PatternLowering::covering(chip.cells(), pattern, chip.geometry(), &window);
            for lowering in [None, Some(&low)] {
                let plan = compile(&chip, lowering, (pattern, interval, temp));
                let lanes = &plan.lanes;
                let mut certain = Vec::new();
                emit_ranks(&lanes.certain, &by_rank, &mut certain);
                let mut all = certain.clone();
                for (class, ranks) in [&lanes.prob_rank, &lanes.vrt_rank].into_iter().enumerate() {
                    assert!(
                        ranks.windows(2).all(|w| w[0] < w[1]),
                        "lane class {class} not rank-sorted at {interval_ms} ms / {temp_c} °C"
                    );
                    all.extend(ranks.iter().map(|&r| by_rank[r as usize]));
                    populated[class + 1] |= ranks.len() > 1;
                }
                populated[0] |= certain.len() > 1;
                let n = all.len();
                all.sort_unstable();
                all.dedup();
                assert_eq!(all.len(), n, "a cell sits in two lane classes");
                assert!(plan.lanes_consistent());
            }
        }
        assert_eq!(populated, [true; 3], "every lane class must be exercised");
    }

    #[test]
    fn plan_lane_bytes_match_the_rank_layout() {
        // Per class: the certain-fail bitmap holds ⌈cells/64⌉ words; an
        // in-band lane is a u32 rank and a u64 threshold (12 bytes); a VRT
        // lane a u32 slot, a u32 rank and two f64 thresholds (24 bytes).
        // No lane holds spare capacity.
        let chip = quick_chip();
        for (pattern, interval_ms) in [(DataPattern::checkerboard(), 1024.0), (DataPattern::solid0(), 3072.0)] {
            let plan = compile(&chip, None, (pattern, Ms::new(interval_ms), Celsius::new(60.0)));
            let lanes = &plan.lanes;
            let (prob, vrt) = (lanes.prob_rank.len(), lanes.vrt_rank.len());
            assert!(prob > 0 && vrt > 0 && count_ranks(&lanes.certain) > 0);
            assert_eq!(
                lanes.class_bytes(),
                [chip.cells().len().div_ceil(64) * 8, prob * 12, vrt * 24],
                "{pattern} at {interval_ms} ms"
            );
        }
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
        let plan = compile(
            &chip,
            None,
            (DataPattern::solid0(), Ms::new(512.0), Celsius::new(45.0)),
        );
        let low = PatternLowering::covering(
            chip.cells(),
            reaper_dram_model::DataPattern::solid1(),
            chip.geometry(),
            &chip.window(Ms::new(512.0), Celsius::new(45.0)),
        );
        cache.insert_plan(plan);
        cache.insert_lowering(low);
        assert!(cache.find_plan(&key));
        assert_eq!(cache.plan(&key).key, key);
        assert!(cache.find_lowering(pat));
        assert_eq!(cache.lowering(pat).map(|l| l.pattern), Some(pat));

        // Plans leave only through LRU eviction: a plan hit when the cache
        // is full outlives the older entries, then goes once it is the
        // least recently used. Nothing invalidates it.
        let plan = cache.plan(&key).clone();
        for i in 0..2 * PLAN_CAP as u64 {
            if i == PLAN_CAP as u64 - 1 {
                assert!(cache.find_plan(&key), "a recent hit is not the LRU entry");
            }
            let key = PlanKey::new(DataPattern::random(i), Ms::new(512.0), Celsius::new(45.0));
            cache.insert_plan(TrialPlan {
                key,
                ..plan.clone()
            });
        }
        assert!(!cache.find_plan(&key), "evicted once least recently used");
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
            let plan = compile(
                &chip,
                None,
                (DataPattern::random(i as u64), Ms::new(512.0), Celsius::new(45.0)),
            );
            cache.insert_plan(plan);
        }
        assert_eq!(cache.plans.len(), PLAN_CAP);
        for i in 0..(LOWERING_CAP + 4) {
            let low = PatternLowering::covering(
                chip.cells(),
                reaper_dram_model::DataPattern::random(i as u64),
                chip.geometry(),
                &chip.window(Ms::new(512.0), Celsius::new(45.0)),
            );
            cache.insert_lowering(low);
        }
        assert_eq!(cache.lowerings.len(), LOWERING_CAP);
    }
}
