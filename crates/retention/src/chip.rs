//! The simulated DRAM chip: weak-cell population synthesis and retention
//! trials.
//!
//! Trials run in the chip's rank space. Beside the window-ordered cell
//! array the chip keeps `index_rank` (each cell's rank among the weak
//! cells' indices) and `by_rank` (the indices ascending). The window scan
//! and the batch kernel record a failure as its cell's rank bit, and VRT
//! arrivals as bits of their ranks in `arrival_order`; `emit_ranks`
//! turns a bitmap into ascending indices. An outcome is therefore emitted
//! sorted, with no per-trial sort or merge. Every trial entry point but
//! the reference scan wraps one multi-trial body (`run_trials`), which
//! runs a call's trials grouped by condition and reports one outcome per
//! trial or, for a union, ORs their bitmaps and emits once.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use reaper_analysis::dist::{Exponential, LogNormal, Poisson};
use reaper_exec::cancel::CancelToken;
use reaper_exec::num;
use reaper_exec::rng::StreamPrefix;
use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms};

use crate::batch::MAX_BATCH_ROUNDS;
use crate::cell::{below_phi, phi_at_least, WeakCell, FULL_STRESS};
use crate::config::RetentionConfig;
use crate::plan::{LaneSource, PatternLowering, PlanCache, PlanKey, PlanStats, TrialCtx, TrialPlan};
use crate::vrt::{ArrivalCell, TwoStateVrt};

/// Hard clamp on per-cell σ (seconds). Fig. 6b: the overwhelming
/// majority of cells sit well under 200 ms. The cap bounds the σ any cell
/// can bring to a trial, so it sizes the window cuts in
/// [`window_ranges`]: the VRT segment's whole reach, and the non-VRT
/// segment's extra reach when σ scales faster than μ (`ss > ms`, below
/// the reference temperature).
const SIGMA_CAP_SECS: f64 = 0.35;

/// Smallest materialized base retention μ (seconds). Cells below this would
/// fail within the JEDEC 64 ms interval and are factory-repaired in real
/// devices.
const MU_MIN_SECS: f64 = 0.05;

/// Z-score window outside which a trial outcome is treated as certain
/// (|z| > 4 ⇒ p < 3.2e-5 or > 1 − 3.2e-5).
pub(crate) const Z_CUTOFF: f64 = 4.0;

/// Domain separator for per-(cell, trial) RNG lanes, so trial draws can
/// never collide with any other stream derived from the same chip seed.
pub(crate) const TRIAL_DOMAIN: u64 = 0x5245_4150_4552_0001; // "REAPER" 01

/// A trial window: two ranges of the cell array, a prefix of the non-VRT
/// segment followed by a prefix of the VRT segment (see
/// [`window_ranges`]).
pub(crate) type Window = [Range<usize>; 2];

/// The σ-cap cut in sort-key order: a cell whose worst-case effective μ
/// is at or past it stays more than `Z_CUTOFF`·σ_cap above the interval.
fn sigma_cap_cut(t_secs: f64, ms_scale: f64, ss_scale: f64) -> f64 {
    (t_secs + Z_CUTOFF * SIGMA_CAP_SECS * ss_scale) / ms_scale
}

/// The cells a trial at `(t_secs, ms_scale, ss_scale)` visits, as ranges
/// of the two-segment cell array whose VRT segment starts at `vrt_start`.
/// The single definition shared by the window scan, plan compilation and
/// [`SimulatedChip::candidate_window`], so the window math cannot drift
/// between them.
///
/// * **Non-VRT segment**, ordered by the live key `sort_key − Z_CUTOFF·σ0`.
///   A cell's worst-case z (full DPD stress) reaches `−Z_CUTOFF` only if
///   `ms·sort_key − Z_CUTOFF·σ0·ss ≤ t`, that is
///   `ms·live_key ≤ t + Z_CUTOFF·σ0·(ss − ms) ≤ t + Z_CUTOFF·σ_cap·max(0, ss − ms)`.
///   Every cell past that cut has z < `−Z_CUTOFF` at every stress level,
///   so the scan would open its hash lane and draw nothing: dropping it
///   changes no stream. A few ulps of the magnitudes involved absorb the
///   rounding of the keys, the cut and the scan's z.
/// * **VRT segment**, ordered by `sort_key` and cut by the σ-cap rule
///   [`sigma_cap_cut`]. A VRT cell in the window has its chain observed
///   and advanced, so the set of VRT cells a trial visits is part of its
///   outcome and keeps the σ-cap membership.
pub(crate) fn window_ranges(
    sort_keys: &[f64],
    vrt_start: usize,
    t_secs: f64,
    ms_scale: f64,
    ss_scale: f64,
) -> Window {
    let (plain, vrt) = sort_keys.split_at(vrt_start);
    let reach = Z_CUTOFF * SIGMA_CAP_SECS;
    let live_cut = (t_secs + reach * (ss_scale - ms_scale).max(0.0)) / ms_scale;
    let slack = 16.0 * f64::EPSILON * (live_cut + reach * (1.0 + ss_scale / ms_scale));
    let plain_end = plain.partition_point(|&k| k < live_cut + slack);
    let cap_cut = sigma_cap_cut(t_secs, ms_scale, ss_scale);
    let vrt_end = vrt_start + vrt.partition_point(|&k| k < cap_cut);
    [0..plain_end, vrt_start..vrt_end]
}

/// Number of cells in `window`.
pub(crate) fn window_len(window: &Window) -> usize {
    window.iter().map(ExactSizeIterator::len).sum()
}

/// The bits of a finite `key` as an unsigned integer that sorts as the
/// key does. `-0.0` is first normalized to `+0.0` (`key + 0.0`), so the
/// two zeros tie exactly as they do under `partial_cmp`.
fn order_bits(key: f64) -> u64 {
    let bits = (key + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Stable-sorts `(segment, key)` pairs ascending — `segment(item)` is the
/// primary key, `false` first — and applies the same permutation to
/// `keys` and `items`, in place. Byte-identical ordering to stable-sorting
/// `(segment, key, item)` triples by `(segment, key)` — equal pairs keep
/// their original relative order — without draining either buffer.
///
/// Each position packs into one `u128`, `(segment, order_bits(key),
/// position)`, so a plain unstable integer sort does the work of a
/// comparator sort; the position breaks ties, which keeps it stable.
/// Keys must not be NaN (they are finite products of finite cell
/// parameters).
fn stable_cosort_by_key<T>(keys: &mut [f64], items: &mut [T], segment: impl Fn(&T) -> bool) {
    debug_assert_eq!(keys.len(), items.len());
    debug_assert!(keys.iter().all(|k| !k.is_nan()), "sort keys must not be NaN");
    let mut packed: Vec<u128> = keys
        .iter()
        .zip(items.iter())
        .enumerate()
        .map(|(i, (&key, item))| {
            u128::from(segment(item)) << 96
                | u128::from(order_bits(key)) << 32
                | u128::from(num::to_u32(i))
        })
        .collect();
    packed.sort_unstable();
    #[allow(clippy::cast_possible_truncation)]
    // lint: allow(lossy-cast) the low 32 bits hold a position, packed from a u32 above
    let source = |p: &u128| num::idx(*p as u32);
    // Apply the permutation by cycle-chasing: positions below `i` already
    // hold their final element, so following the chain through them finds
    // where the element destined for `i` currently lives. Entry `i` is
    // rewritten to that position as the chase goes.
    for i in 0..packed.len() {
        let mut src = source(packed.get(i).expect("invariant: i < packed.len() by loop bound"));
        while src < i {
            src = source(
                packed
                    .get(src)
                    .expect("invariant: permutation entries are in-bounds indices"),
            );
        }
        *packed
            .get_mut(i)
            .expect("invariant: i < packed.len() by loop bound") = u128::from(num::to_u32(src));
        keys.swap(i, src);
        items.swap(i, src);
    }
}

/// A set of cell indices for one draw loop only (the synthesis of the
/// weak cells, or one batch of VRT arrivals): open addressing with linear
/// probing over a power-of-two table at most 2/3 full. One multiply and a
/// probe or two per insert, against a `BTreeSet`'s node walk and
/// allocation; dropped once the loop is done.
struct IndexTable {
    slots: Vec<u64>,
}

impl IndexTable {
    /// Marks a free slot. Cell indices lie below the geometry's density,
    /// so none equals it.
    const EMPTY: u64 = u64::MAX;

    /// A table with room for `n` indices.
    fn with_capacity(n: usize) -> Self {
        Self {
            slots: vec![Self::EMPTY; (n + n / 2 + 1).next_power_of_two()],
        }
    }

    /// Inserts `index`; returns false if it was already present.
    fn insert(&mut self, index: u64) -> bool {
        debug_assert!(index != Self::EMPTY, "cell indices lie below u64::MAX");
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the high bits of the product are well mixed.
        let mut slot = num::idx_u64(index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask;
        loop {
            let entry = self
                .slots
                .get_mut(slot)
                .expect("invariant: slot is masked to the table length");
            if *entry == Self::EMPTY {
                *entry = index;
                return true;
            }
            if *entry == index {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// The indices new VRT arrivals are drawn around: the weak cells' and
/// those of every arrival so far. The active arrivals' indices are the
/// chip's `arrival_order`; this set keeps the rest.
///
/// Pairwise disjoint, ascending, exactly sized runs: the weak cells'
/// indices, then the arrivals each step retires, which `reindex_arrivals`
/// meets in ascending order as it compacts `arrival_order`. The retired
/// runs are merged so that each is more than twice as long as the next,
/// which keeps their number logarithmic in the set's size; the weak cells'
/// run never takes part, so the merges copy retired arrivals only. A
/// hashed bitmap over every occupied index, active arrivals included, at 8
/// to 16 bits per index, answers nearly every draw, since the set covers a
/// tiny share of the chip: only a filter hit searches the runs and
/// `arrival_order`. The bitmap is a blocked Bloom filter, three bits of
/// one word per index, so a probe reads one word and a false hit is rare.
/// Built when the first arrival is drawn, so a chip profiled over too
/// short a span to draw one (a profiling job) never pays for it.
#[derive(Debug, Clone, Default)]
struct OccupiedIndices {
    runs: Vec<Vec<u64>>,
    /// The Bloom filter's words; sized by `reserve`.
    filter: Vec<u64>,
    /// Occupied indices: the runs', the active arrivals' and those marked
    /// for the batch being drawn.
    len: usize,
}

impl OccupiedIndices {
    /// The set over the weak cells' indices.
    fn build(cells: &[WeakCell]) -> Self {
        let mut base: Vec<u64> = cells.iter().map(|c| c.index).collect();
        base.sort_unstable();
        Self {
            len: base.len(),
            runs: vec![base],
            filter: Vec::new(),
        }
    }

    fn is_built(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Occupied indices, the batch being drawn included.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Makes room in the filter for `extra` more indices: a filter past 8
    /// bits per index is rebuilt at 16 from the runs and the `active`
    /// arrivals.
    fn reserve(&mut self, extra: usize, active: &[u64]) {
        let need = self.len + extra;
        if !self.filter.is_empty() && need * 8 <= self.filter.len() * 64 {
            return;
        }
        self.filter = vec![0; (need * 16).div_ceil(64)];
        for &index in self.runs.iter().flatten().chain(active) {
            let (word, mask) = self.probe(index);
            // lint: allow(panic) `probe` maps into the filter's length
            self.filter[word] |= mask;
        }
    }

    /// The filter word of `index` and the mask of its three bits there: a
    /// Fibonacci hash, mapped onto the words by its high half times the
    /// word count, and mixed once more for the bit positions.
    fn probe(&self, index: u64) -> (usize, u64) {
        let h = index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let product = u128::from(h) * u128::from(num::to_u64(self.filter.len()));
        #[allow(clippy::cast_possible_truncation)]
        // lint: allow(lossy-cast) the high half of a u64 × u64 product fits a u64
        let word = num::idx_u64((product >> 64) as u64);
        let g = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (word, 1 << (g >> 58) | 1 << (g >> 52 & 63) | 1 << (g >> 46 & 63))
    }

    /// Whether `index` is in a run or among the `active` arrivals. The
    /// batch being drawn is not searched: its draw loop keeps its own
    /// table.
    fn contains(&self, index: u64, active: &[u64]) -> bool {
        let (word, mask) = self.probe(index);
        // lint: allow(panic) `probe` maps into the filter's length
        self.filter[word] & mask == mask
            && (active.binary_search(&index).is_ok()
                || self.runs.iter().any(|r| r.binary_search(&index).is_ok()))
    }

    /// Marks an index of the batch being drawn in the filter. The filter
    /// must have room ([`OccupiedIndices::reserve`]).
    fn mark(&mut self, index: u64) {
        let (word, mask) = self.probe(index);
        // lint: allow(panic) `probe` maps into the filter's length
        self.filter[word] |= mask;
        self.len += 1;
    }

    /// Adds one step's retired arrivals as an ascending run, then merges
    /// the last two retired runs while the earlier is at most twice as
    /// long as the later.
    fn push_run(&mut self, run: Vec<u64>) {
        if run.is_empty() {
            return;
        }
        self.runs.push(run);
        while let [_, .., a, b] = self.runs.as_slice() {
            if a.len() > 2 * b.len() {
                break;
            }
            let b = self.runs.pop().expect("invariant: the slice pattern matched two runs");
            let a = self.runs.last_mut().expect("invariant: the slice pattern matched two runs");
            // A fresh, exactly sized run, not a `reserve` on `a`: a
            // reallocation that moves `a` copies it beside the old block.
            *a = merge_ascending(std::mem::take(a), &b);
        }
    }

    /// Runs ascending, runs and `active` arrivals pairwise disjoint, every
    /// index in the filter, and `len` their total. For `debug_assert!`.
    fn consistent(&self, active: &[u64]) -> bool {
        let mut all: Vec<u64> = self.runs.concat();
        all.extend_from_slice(active);
        let runs_sorted = self.runs.iter().all(|r| r.is_sorted_by(|a, b| a < b));
        let covered = all.iter().all(|&i| {
            let (word, mask) = self.probe(i);
            self.filter.get(word).is_some_and(|w| w & mask == mask)
        });
        all.sort_unstable();
        runs_sorted && covered && all.len() == self.len && all.is_sorted_by(|a, b| a < b)
    }
}

/// Merges two strictly ascending runs into one exactly sized ascending
/// run; an index in both appears once. `a` comes back as it is when `b`
/// is empty. Branch-free: the runs interleave at random, so a
/// data-dependent branch per index would mispredict about half the time.
fn merge_ascending(a: Vec<u64>, b: &[u64]) -> Vec<u64> {
    let ascending = |v: &[u64]| v.is_sorted_by(|x, y| x < y);
    debug_assert!(ascending(&a) && ascending(b), "merge_ascending requires strictly ascending runs");
    if b.is_empty() {
        return a;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // lint: allow(panic) i < a.len() and j < b.len() by the loop condition
        let (x, y) = (a[i], b[j]);
        merged.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    merged.extend(a.iter().skip(i));
    merged.extend(b.iter().skip(j));
    merged
}

/// The same-clock replay list: the low-state arrivals that can fail a
/// round at `key`. A round at the same clock changes no state, so a
/// repeat of the round at `key` only has to draw the discarded observe
/// values and the failure draws of the arrivals whose z is in band.
#[derive(Debug, Clone, Default)]
struct ArrivalReplay {
    /// The bits of `(clock, t_secs, ms_scale, ss_scale)` of the round that
    /// built the list; `None` before the first round.
    key: Option<[u64; 4]>,
    /// The ranks of the arrivals whose z is above the band, which fail
    /// every repeat without a draw, as a round's failure bitmap.
    certain: Vec<u64>,
    /// The arrivals whose z is in band, as `(draw position, rank, z)` in
    /// draw order.
    draws: Vec<(u32, u32, f64)>,
}

/// The set of cells that failed one retention trial, as sorted dense linear
/// indices into the chip's geometry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrialOutcome {
    failures: Vec<u64>,
}

impl TrialOutcome {
    /// Sorts and dedups `v`: the plain assembly the run merge is checked
    /// against.
    #[cfg(test)]
    fn from_unsorted(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        v.dedup();
        Self { failures: v }
    }

    /// The outcome of a trial, or of a union of same-clock trials, from
    /// its two failure bitmaps: `window` over the weak cells' ranks
    /// (`by_rank`) and `arrivals` over the active arrivals' ranks
    /// (`arrival_order`).
    fn from_rank_bits(window: &[u64], by_rank: &[u64], arrivals: &[u64], arrival_order: &[u64]) -> Self {
        let mut failures = Vec::with_capacity(count_ranks(window));
        emit_ranks(window, by_rank, &mut failures);
        Self::with_arrivals(failures, arrivals, arrival_order)
    }

    /// Merges the arrival failures of the `arrivals` bitmap into the
    /// ascending window failures `failures`. On a chip the two are
    /// disjoint, since arrival indices are drawn around the weak cells.
    fn with_arrivals(failures: Vec<u64>, arrivals: &[u64], arrival_order: &[u64]) -> Self {
        let mut run = Vec::with_capacity(count_ranks(arrivals));
        emit_ranks(arrivals, arrival_order, &mut run);
        Self {
            failures: merge_ascending(failures, &run),
        }
    }

    /// Number of failing cells.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// True if no cell failed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failing cell indices, sorted ascending.
    pub fn failures(&self) -> &[u64] {
        &self.failures
    }

    /// Whether `index` failed in this trial (binary search).
    pub fn contains(&self, index: u64) -> bool {
        self.failures.binary_search(&index).is_ok()
    }

    /// Consumes the outcome, returning the sorted index vector.
    pub fn into_vec(self) -> Vec<u64> {
        self.failures
    }
}

impl<'a> IntoIterator for &'a TrialOutcome {
    type Item = &'a u64;
    type IntoIter = core::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.failures.iter()
    }
}

/// The result of a cancellable trial run: the outcomes completed before
/// the stop, plus whether the run was cut short.
///
/// When `cancelled` is false the outcomes are the complete run. When true
/// they are a bit-identical prefix of what the uncancelled run would have
/// produced — see [`SimulatedChip::retention_trial_schedule`] for the
/// exact prefix guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialTrials {
    /// Completed trial outcomes, in the entry point's usual order.
    pub outcomes: Vec<TrialOutcome>,
    /// True if a [`CancelToken`] stopped the run at a batch boundary.
    pub cancelled: bool,
}

/// A simulated LPDDR4 chip with a synthetic weak-cell population.
///
/// Deterministic in `(config, seed)`. Wall-clock time is explicit: the test
/// harness advances it via [`SimulatedChip::advance`], and VRT processes
/// (state flips, new-failure arrivals) are evaluated lazily against it.
#[derive(Debug, Clone)]
pub struct SimulatedChip {
    cfg: RetentionConfig,
    /// Weak cells in two segments: non-VRT cells ascending by their live
    /// key `sort_key − Z_CUTOFF·σ0`, then VRT cells ascending by
    /// `sort_key` (worst-case effective μ at the reference temperature).
    /// See [`window_ranges`].
    cells: Vec<WeakCell>,
    /// Window keys parallel to `cells`.
    sort_keys: Vec<f64>,
    /// Parallel to `cells`: the rank of each cell's index among all the
    /// cells' indices. Trials record failures as bits of these ranks.
    /// Built with `by_rank` by the chip's first trial (`rank_cells`), so a
    /// chip that is only cloned, as a population's are, never holds them.
    index_rank: Vec<u32>,
    /// The cells' indices by rank, ascending: a failure bitmap's emission
    /// table.
    by_rank: Vec<u64>,
    /// The cells' ordinals by rank, inverting `index_rank`: the batch
    /// kernel's way from a lane back to its cell, for the rare draw its
    /// certified threshold cannot decide.
    rank_ord: Vec<u32>,
    /// Start of the VRT segment of `cells`.
    vrt_start: usize,
    /// Two-state processes for base cells with `vrt_index`.
    base_vrt: Vec<TwoStateVrt>,
    /// Active VRT-arrived failing cells (paper §5.3 steady-state
    /// accumulation) in draw order, the order their draws take on the
    /// sequential RNG.
    arrivals: Vec<ArrivalCell>,
    /// Parallel to `arrivals`: each arrival's rank in `arrival_order`.
    arrival_ranks: Vec<u32>,
    /// The active arrivals' cell indices, ascending; `arrival_round`
    /// emits its failures in this order.
    arrival_order: Vec<u64>,
    /// Clock of the last arrival round. Every round observes every active
    /// arrival, so each one that is not fresh was last observed then.
    arrival_clock_ms: f64,
    /// The same-clock replay list of the last arrival round.
    replay: ArrivalReplay,
    /// The occupied indices new VRT arrivals are drawn around.
    occupied: OccupiedIndices,
    now_ms: f64,
    last_arrival_ms: f64,
    /// Sequential generator for population synthesis and VRT arrivals
    /// (inherently ordered processes).
    rng: StdRng,
    /// Root of the per-(cell, trial) hash-derived RNG lanes used by
    /// [`SimulatedChip::retention_trial`]. Derived from the chip seed.
    stream_base: u64,
    /// Count of retention trials performed; each trial's draws live on
    /// lanes keyed by this nonce, so repeated identical trials still see
    /// fresh randomness.
    trial_nonce: u64,
    /// Pattern lowerings and compiled trial plans (see [`crate::plan`]).
    plan_cache: PlanCache,
    /// `run_trials`' `(group, position)` order, empty between calls: kept
    /// so that a call reuses the last one's allocation.
    trial_order: Vec<(usize, usize)>,
}

/// Sets the bit of `rank` in a failure bitmap.
pub(crate) fn set_rank(bits: &mut [u64], rank: u32) {
    let rank = num::idx(rank);
    *bits
        .get_mut(rank / 64)
        .expect("invariant: a bitmap has a bit per rank") |= 1 << (rank % 64);
}

/// Words of a bitmap with one bit per rank of `n` entries.
pub(crate) fn rank_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Number of set bits of a failure bitmap.
pub(crate) fn count_ranks(bits: &[u64]) -> usize {
    bits.iter().map(|w| num::idx(w.count_ones())).sum()
}

/// Appends `by_rank[rank]` for every rank set in `bits`, ascending: the
/// one emission of every trial path. Weak-cell bitmaps emit through the
/// chip's `by_rank`, arrival bitmaps through `arrival_order`; both are
/// ascending, so the output is sorted without a sort.
pub(crate) fn emit_ranks(bits: &[u64], by_rank: &[u64], out: &mut Vec<u64>) {
    for (ranks, &word) in by_rank.chunks(64).zip(bits) {
        let mut word = word;
        while word != 0 {
            out.push(
                *ranks
                    .get(num::idx(word.trailing_zeros()))
                    .expect("invariant: set bits are ranks below by_rank.len()"),
            );
            word &= word - 1;
        }
    }
}

/// The weak cells' rank tables: `index_rank[ord]` is the rank of cell
/// `ord`'s index among all the cells' indices, `by_rank` lists the
/// indices ascending, so `by_rank[index_rank[ord]] == cells[ord].index`,
/// and `rank_ord` the ordinals, so `rank_ord[index_rank[ord]] == ord`.
///
/// A counting sort into `n` buckets by the index's leading fraction
/// `⌊index · n / (max + 1)⌋`, which is monotone in the index, then a sort
/// of each bucket of two or more. Synthesis draws indices uniformly, so a
/// bucket holds about one cell and the tables cost a few passes over the
/// cells instead of a comparison sort of them all.
fn rank_tables(cells: &[WeakCell]) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    let n = cells.len();
    let top = cells.iter().map(|c| u128::from(c.index)).max().map_or(1, |max| max + 1);
    let scale = u64::try_from((u128::from(num::to_u64(n)) << 64) / top).unwrap_or(u64::MAX);
    // Below n, since index < top.
    let bucket = |c: &WeakCell| {
        #[allow(clippy::cast_possible_truncation)]
        // lint: allow(lossy-cast) the high half of a u64 × u64 product fits a u64
        let b = ((u128::from(c.index) * u128::from(scale)) >> 64) as u64;
        num::idx_u64(b)
    };
    // `ends[b + 1]` counts bucket b, then the prefix sums make `ends[b]`
    // its start, and the scatter moves each start to the bucket's end.
    let mut ends = vec![0u32; n + 1];
    for c in cells {
        // lint: allow(panic) buckets lie below n
        ends[bucket(c) + 1] += 1;
    }
    for b in 1..=n {
        // lint: allow(panic) b ≤ n < ends.len()
        ends[b] += ends[b - 1];
    }
    let mut sorted = vec![(0u64, 0u32); n];
    for (ord, c) in cells.iter().enumerate() {
        let end = ends.get_mut(bucket(c)).expect("invariant: buckets lie below n");
        // lint: allow(panic) a bucket's slots lie below n
        sorted[num::idx(*end)] = (c.index, num::to_u32(ord));
        *end += 1;
    }
    let mut start = 0;
    for &end in ends.iter().take(n) {
        let end = num::idx(end);
        if end - start > 1 {
            // lint: allow(panic) start ≤ end ≤ n: the bucket's slots
            sorted[start..end].sort_unstable();
        }
        start = end;
    }
    let mut index_rank = vec![0u32; n];
    for (rank, &(_, ord)) in sorted.iter().enumerate() {
        // lint: allow(panic) ordinals lie below n
        index_rank[num::idx(ord)] = num::to_u32(rank);
    }
    let rank_ord = sorted.iter().map(|&(_, ord)| ord).collect();
    (index_rank, sorted.into_iter().map(|(index, _)| index).collect(), rank_ord)
}

/// How a trial, or a group's trials, are served, resolved by
/// `route_trial`. Routes name their lowering and plan by pattern and key,
/// so a pair's two routes can both be resolved before either runs.
enum TrialRoute {
    /// The window scan over the trial window, fed by the pattern's cached
    /// lowering, already extended to the window, when `lowered`.
    Scan { lowered: bool, window: Window },
    /// The kernel on the cached plan of `key`. `compile` carries the
    /// window of a plan whose slot this sighting reserved
    /// ([`TrialPlan::pending`]), to be compiled before it runs.
    Plan { key: PlanKey, compile: Option<Window> },
}

/// Where the multi-trial body puts its trials' window failures.
enum Sink {
    /// One weak-cell bitmap that every trial ORs into: a union.
    Union(Vec<u64>),
    /// Each entry's failures, emitted, by entry position; `None` until
    /// the entry's trial has run.
    PerEntry(Vec<Option<Vec<u64>>>),
}

impl Sink {
    /// The bitmaps the next `k` trials write into, and their stride: trial
    /// `r` writes the `words` words at `r · stride`. The union's one
    /// bitmap has stride 0; otherwise `k` clear bitmaps in `trial_bits`
    /// have stride `words`.
    fn bits<'a>(&'a mut self, trial_bits: &'a mut Vec<u64>, k: usize, words: usize) -> (&'a mut [u64], usize) {
        match self {
            Self::Union(bits) => (bits, 0),
            Self::PerEntry(_) => {
                trial_bits.clear();
                trial_bits.resize(k * words, 0);
                (trial_bits, words)
            }
        }
    }

    /// Emits the bitmaps in `trial_bits` of the trials at `positions` into
    /// their slots; a union emits once, at the end.
    fn emit(&mut self, positions: impl Iterator<Item = usize>, trial_bits: &[u64], words: usize, by_rank: &[u64]) {
        if let Self::PerEntry(slots) = self {
            for (r, pos) in positions.enumerate() {
                let round = trial_bits
                    .get(r * words..(r + 1) * words)
                    .expect("invariant: `bits` laid out one bitmap per trial");
                let mut failures = Vec::with_capacity(count_ranks(round));
                emit_ranks(round, by_rank, &mut failures);
                *slots.get_mut(pos).expect("invariant: positions enumerate the entries") = Some(failures);
            }
        }
    }
}

impl SimulatedChip {
    /// Synthesizes a chip from `cfg`, deterministically in `seed`.
    ///
    /// Cell indices are drawn without replacement: a draw that collides
    /// with an earlier cell is redrawn on the spot, so every draw stays in
    /// the rng's order. Collisions are checked against a transient
    /// `IndexTable`; the occupied-index set, which VRT arrivals check, is
    /// built once, in bulk, when the first arrival is drawn.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`RetentionConfig::validate`].
    pub fn new(cfg: RetentionConfig, seed: u64) -> Self {
        // lint: allow(panic) documented `# Panics` contract of the constructor
        cfg.validate().expect("invalid retention config");
        let mut rng = StdRng::seed_from_u64(seed);

        let n_cells = num::idx_u64(
            Poisson::new(cfg.expected_weak_cells())
                .expect("invariant: validated config yields a positive lambda")
                .sample(&mut rng),
        );

        let sigma_dist = LogNormal::from_median(cfg.sigma_median_secs, cfg.sigma_log_sd)
            .expect("invariant: validated config yields finite positive sigma params");

        let density = cfg.geometry.density_bits();
        let mut drawn = IndexTable::with_capacity(n_cells);
        let mut cells = Vec::with_capacity(n_cells);
        let mut base_vrt = Vec::new();

        let u_min = (MU_MIN_SECS / cfg.mu_max_secs).powf(cfg.ber_exponent);
        for _ in 0..n_cells {
            let index = loop {
                let idx = rng.random_range(0..density);
                if drawn.insert(idx) {
                    break idx;
                }
            };
            // Inverse-CDF sample of the t^β tail on [MU_MIN, mu_max].
            let u: f64 = u_min + rng.random::<f64>() * (1.0 - u_min);
            let mu0 = cfg.mu_max_secs * u.powf(1.0 / cfg.ber_exponent);
            let sigma0 = sigma_dist.sample(&mut rng).min(SIGMA_CAP_SECS);
            let vrt_index = if rng.random::<f64>() < cfg.vrt_fraction {
                base_vrt.push(Self::vrt_chain(&cfg, 0.0));
                Some(num::to_u32(base_vrt.len() - 1))
            } else {
                None
            };
            cells.push(WeakCell {
                index,
                mu0: num::f32_narrow(mu0),
                sigma0: num::f32_narrow(sigma0),
                vulnerable_bit: rng.random(),
                dpd_strength: num::f32_narrow(rng.random::<f64>() * cfg.dpd_max_strength),
                dpd_signature: rng.random_range(0..16u8),
                vrt_index,
            });
        }

        drop(drawn);
        let mut chip = Self {
            sort_keys: Vec::new(),
            index_rank: Vec::new(),
            by_rank: Vec::new(),
            rank_ord: Vec::new(),
            vrt_start: 0,
            cells,
            base_vrt,
            arrivals: Vec::new(),
            arrival_ranks: Vec::new(),
            arrival_order: Vec::new(),
            arrival_clock_ms: 0.0,
            replay: ArrivalReplay::default(),
            occupied: OccupiedIndices::default(),
            now_ms: 0.0,
            last_arrival_ms: 0.0,
            rng,
            stream_base: seed,
            trial_nonce: 0,
            plan_cache: PlanCache::default(),
            trial_order: Vec::new(),
            cfg,
        };
        chip.rebuild_sort();
        chip
    }

    /// A duty-cycling chain in the high state at `now_ms`, with the dwell
    /// times every VRT cell shares: base cells and arrivals alike.
    fn vrt_chain(cfg: &RetentionConfig, now_ms: f64) -> TwoStateVrt {
        let cycle_ms = cfg.vrt_dwell_hours * 3.6e6;
        TwoStateVrt::new(
            (cycle_ms * cfg.vrt_low_duty).max(1.0),
            (cycle_ms * (1.0 - cfg.vrt_low_duty)).max(1.0),
            now_ms,
        )
    }

    fn sort_key_of(cfg: &RetentionConfig, cell: &WeakCell) -> f64 {
        let vrt_factor = if cell.vrt_index.is_some() {
            cfg.vrt_low_mu_factor
        } else {
            1.0
        };
        cell.mu0 as f64 * (1.0 - cell.dpd_strength as f64) * vrt_factor
    }

    /// A cell's key within its window segment: the live key
    /// `sort_key − Z_CUTOFF·σ0` for a non-VRT cell, `sort_key` for a VRT
    /// cell (see [`window_ranges`]).
    fn window_key_of(cfg: &RetentionConfig, cell: &WeakCell) -> f64 {
        let key = Self::sort_key_of(cfg, cell);
        match cell.vrt_index {
            Some(_) => key,
            None => key - Z_CUTOFF * cell.sigma0 as f64,
        }
    }

    fn rebuild_sort(&mut self) {
        // Reuse both existing buffers: refill the key vector in place and
        // co-sort it with the cell vector through one stable index
        // permutation, with the segment as the primary key, instead of
        // building the segments in fresh vectors.
        let cfg = &self.cfg;
        self.sort_keys.clear();
        self.sort_keys
            .extend(self.cells.iter().map(|c| Self::window_key_of(cfg, c)));
        stable_cosort_by_key(&mut self.sort_keys, &mut self.cells, |c| c.vrt_index.is_some());
        self.vrt_start = self.cells.partition_point(|c| c.vrt_index.is_none());
    }

    /// Builds the rank tables if no trial has yet.
    pub(crate) fn rank_cells(&mut self) {
        if self.by_rank.len() != self.cells.len() {
            (self.index_rank, self.by_rank, self.rank_ord) = rank_tables(&self.cells);
        }
    }

    /// The weak cells' indices by rank, ascending (`rank_cells` first).
    pub(crate) fn by_rank(&self) -> &[u64] {
        &self.by_rank
    }

    /// The cell of `rank` (`rank_cells` first).
    pub(crate) fn cell_of_rank(&self, rank: u32) -> &WeakCell {
        let ord = self
            .rank_ord
            .get(num::idx(rank))
            .expect("invariant: plan ranks lie below the chip's cell count");
        self.cells
            .get(num::idx(*ord))
            .expect("invariant: rank_ord holds ordinals of the cell array")
    }

    /// The trial window at `(interval, temp)`.
    pub(crate) fn window(&self, interval: Ms, temp: Celsius) -> Window {
        window_ranges(
            &self.sort_keys,
            self.vrt_start,
            interval.as_secs(),
            self.cfg.mu_temp_scale(temp),
            self.cfg.sigma_temp_scale(temp),
        )
    }

    /// The chip's configuration.
    pub fn config(&self) -> &RetentionConfig {
        &self.cfg
    }

    /// The modeled geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.cfg.geometry
    }

    /// All materialized base weak cells (unspecified order).
    pub fn cells(&self) -> &[WeakCell] {
        &self.cells
    }

    /// The base cells' VRT chain states, which the kernel reads live.
    pub(crate) fn base_vrt(&self) -> &[TwoStateVrt] {
        &self.base_vrt
    }

    /// Number of currently active VRT-arrival cells.
    pub fn arrival_count(&self) -> usize {
        self.arrivals.len()
    }

    /// Current simulated wall-clock time.
    pub fn now(&self) -> Ms {
        Ms::new(self.now_ms)
    }

    /// Advances the simulated wall clock by `dt`. Compiled plans stay
    /// cached: they read VRT chain state live and never see the clock.
    ///
    /// # Panics
    /// Panics if `dt` is negative.
    pub fn advance(&mut self, dt: Ms) {
        assert!(dt.as_ms() >= 0.0, "cannot advance time backwards");
        self.now_ms += dt.as_ms();
    }

    /// Converts a failing-cell BER: `count / represented_bits`.
    pub fn ber_of_count(&self, count: usize) -> f64 {
        count as f64 / self.cfg.represented_bits as f64
    }

    /// Performs one retention trial: the chip holds `pattern` with refresh
    /// disabled for `interval` at DRAM temperature `temp`, then reports the
    /// cells whose read-back differs from the written data.
    ///
    /// The simulated clock is *not* advanced; the test harness
    /// (`reaper-softmc`) owns time accounting. VRT arrivals are drawn for
    /// the wall-clock span since the last trial.
    ///
    /// A condition seen for the first time runs the window scan (fed by
    /// the pattern's lowering once the pattern recurs); its second
    /// sighting compiles a plan, and every trial on a cached plan runs
    /// through the bit-plane kernel as a batch of one: a union of one. All
    /// routes are bit-identical to [`SimulatedChip::retention_trial_reference`].
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
    ) -> TrialOutcome {
        assert!(interval.is_positive(), "retention interval must be positive");
        self.run_union(&[(pattern, interval, temp)])
    }

    /// [`SimulatedChip::retention_trial`] through the window scan without
    /// a lowering, always: the reference every other trial path is checked
    /// against. It consumes the same nonce and draws as the production
    /// trial, so the two can be interleaved on one chip, and it leaves the
    /// lowering and plan caches (sightings included) untouched; it counts
    /// as a scalar trial.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial_reference(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
    ) -> TrialOutcome {
        assert!(interval.is_positive(), "retention interval must be positive");
        self.process_arrivals(interval.as_secs(), temp);
        self.rank_cells();
        self.plan_cache.stats.scalar_trials += 1;
        let ctx = self.trial_ctx(interval, temp, self.trial_nonce);
        self.trial_nonce += 1;
        let mut window = vec![0; rank_words(self.cells.len())];
        let updates = self.scan_lanes(
            LaneSource::Cells(pattern),
            &self.window(interval, temp),
            &ctx,
            &mut window,
            0,
        );
        self.merge_vrt(updates);
        let mut arrivals = vec![0; rank_words(self.arrival_order.len())];
        self.arrival_round(ctx.t_secs, ctx.ms_scale, ctx.ss_scale, &mut arrivals);
        TrialOutcome::from_rank_bits(&window, &self.by_rank, &arrivals, &self.arrival_order)
    }

    /// One [`SimulatedChip::retention_trial`] per pattern, in order, at one
    /// clock and condition, returning the union of their failures: the
    /// cells that failed at least one of the trials. It is the multi-trial
    /// body with the union sink, so a pattern that recurs in `patterns`
    /// runs as one kernel group and the others route as single trials do.
    /// Bit-identical to merging the outcomes of a `retention_trial` loop
    /// over `patterns`, with the same nonces, VRT chains and sequential RNG
    /// after it; the caches and counters match the loop's too unless a
    /// pattern recurs, whose group compiles before its first trial, not on
    /// its second. The trials OR their failures into one weak-cell and one
    /// arrival bitmap, emitted once. An empty `patterns` runs nothing.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial_union(
        &mut self,
        patterns: &[DataPattern],
        interval: Ms,
        temp: Celsius,
    ) -> TrialOutcome {
        assert!(interval.is_positive(), "retention interval must be positive");
        let entries: Vec<_> = patterns.iter().map(|&p| (p, interval, temp)).collect();
        self.run_union(&entries)
    }

    /// The multi-trial body over `entries` with the union sink.
    fn run_union(&mut self, entries: &[(DataPattern, Ms, Celsius)]) -> TrialOutcome {
        let mut run = self.run_trials(entries, || false, true);
        run.outcomes
            .pop()
            .expect("invariant: the union sink yields one outcome")
    }

    /// The one body of every multi-trial entry point: one trial per
    /// `(pattern, interval, temp)` entry at the chip's clock, reported per
    /// entry or, with `union`, as one outcome ORed over them all.
    ///
    /// Every entry's nonce is reserved up front, in entry order, and the
    /// entries are grouped by exact condition, groups in first-seen order.
    /// A group of two or more is its own second sighting: it compiles its
    /// plan, or finds it cached, and runs kernel batches of up to
    /// [`MAX_BATCH_ROUNDS`] rounds. A group of one routes as a single trial
    /// (`route_trial`), paired (`run_pair`) with the next entry when that
    /// is its inverse at its condition, alone in its group too. The
    /// arrival rounds then replay on the sequential RNG in entry order.
    ///
    /// Outcome-safe: each (cell, nonce) draws from its own hash lane, so
    /// the order of the window trials matters only through VRT chains,
    /// which move only on their first observation at the clock. A group's
    /// pattern fixes which cells it activates and groups run in first-seen
    /// order, so the first group to observe a VRT cell holds its minimal
    /// activating nonce, routed groups of one included, as in a loop.
    ///
    /// `stop` is polled before every kernel batch and every routed trial or
    /// pair (a union never stops). A stopped run is cancelled: it returns
    /// the completed entry prefix, whose arrival rounds replay over exactly
    /// that prefix; completed trials past it are discarded.
    fn run_trials(
        &mut self,
        entries: &[(DataPattern, Ms, Celsius)],
        mut stop: impl FnMut() -> bool,
        union: bool,
    ) -> PartialTrials {
        for (_, interval, _) in entries {
            assert!(interval.is_positive(), "retention interval must be positive");
        }
        if let Some(&(_, interval, temp)) = entries.first() {
            // The clock stands still through the call: only this first
            // draw can add or retire arrivals, so their ranks hold still.
            self.process_arrivals(interval.as_secs(), temp);
        }
        self.rank_cells();
        let first_nonce = self.trial_nonce;
        self.trial_nonce += num::to_u64(entries.len());
        let words = rank_words(self.cells.len());
        let mut sink = if union {
            Sink::Union(vec![0; words])
        } else {
            Sink::PerEntry(vec![None; entries.len()])
        };

        // An entry's group is its condition's first position, so the sorted
        // `(group, position)` pairs run the groups in first-seen order.
        let key = |&(pattern, interval, temp): &(DataPattern, Ms, Celsius)| PlanKey::new(pattern, interval, temp);
        let mut order = std::mem::take(&mut self.trial_order);
        order.extend(
            (entries.iter().enumerate())
                .map(|(pos, e)| (entries.iter().position(|f| key(f) == key(e)).unwrap_or(pos), pos)),
        );
        order.sort_unstable();
        let mut groups = order.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut trial_bits = Vec::new();
        let mut cancelled = false;
        // The temperature scales of the last condition run, which the
        // arrival rounds reuse while their entries stay at its temperature.
        let mut scales = (None, 1.0, 1.0);
        'groups: while let Some(group) = groups.next() {
            let &[(first, _), ..] = group else {
                unreachable!("chunk_by yields nonempty runs")
            };
            let condition @ (pattern, interval, temp) = *entries.get(first).expect("invariant: groups are positions");
            // A lone entry pairs with the next if that is its inverse, alone too.
            let inverse = (pattern.inverse(), interval, temp);
            let lone_inverse = |next: &&[(usize, usize)]| {
                *next == [(first + 1, first + 1)] && entries.get(first + 1).map(key) == Some(key(&inverse))
            };
            let paired = group.len() == 1 && groups.next_if(lone_inverse).is_some();
            let ctx = self.trial_ctx(interval, temp, first_nonce + num::to_u64(first));
            scales = (Some(temp), ctx.ms_scale, ctx.ss_scale);
            for (k, chunk) in group.chunks(MAX_BATCH_ROUNDS).enumerate() {
                if stop() {
                    cancelled = true;
                    break 'groups;
                }
                // The group routes on its first batch; the rest run on its plan.
                let route = match k {
                    0 => self.route_trial(condition, group.len() > 1),
                    _ => TrialRoute::Plan {
                        key: key(&condition),
                        compile: None,
                    },
                };
                let positions = chunk.iter().map(|&(_, pos)| pos).chain(paired.then_some(first + 1));
                let (bits, stride) = sink.bits(&mut trial_bits, chunk.len() + usize::from(paired), words);
                if paired {
                    let second = self.route_trial(inverse, false);
                    self.run_pair(condition, [route, second], &ctx, bits, stride);
                } else {
                    let nonces = chunk.iter().map(|&(_, pos)| first_nonce + num::to_u64(pos));
                    self.run_trial(condition, route, &ctx, nonces, bits, stride);
                }
                sink.emit(positions, &trial_bits, words, &self.by_rank);
            }
        }
        order.clear();
        self.trial_order = order;

        // The arrival rounds, in entry order over the completed prefix.
        let mut arrived = vec![0; rank_words(self.arrival_order.len())];
        let mut round = |chip: &mut Self, (_, interval, temp): (DataPattern, Ms, Celsius), bits: &mut [u64]| {
            if scales.0 != Some(temp) {
                scales = (
                    Some(temp),
                    chip.cfg.mu_temp_scale(temp),
                    chip.cfg.sigma_temp_scale(temp),
                );
            }
            chip.arrival_round(interval.as_secs(), scales.1, scales.2, bits);
        };
        let outcomes = match sink {
            Sink::Union(window) => {
                debug_assert!(!cancelled, "a union never stops");
                for &entry in entries {
                    round(self, entry, &mut arrived);
                }
                let outcome = TrialOutcome::from_rank_bits(&window, &self.by_rank, &arrived, &self.arrival_order);
                vec![outcome]
            }
            Sink::PerEntry(slots) => (slots.into_iter().zip(entries))
                .map_while(|(slot, &entry)| {
                    let failures = slot?;
                    arrived.fill(0);
                    round(self, entry, &mut arrived);
                    Some(TrialOutcome::with_arrivals(failures, &arrived, &self.arrival_order))
                })
                .collect(),
        };
        PartialTrials { outcomes, cancelled }
    }

    /// Runs the trials of `condition` at `nonces` on their resolved
    /// `route`, ORing trial `r`'s window failures into the bitmap at
    /// `r · stride` in `bits` (see [`TrialPlan::run_rounds`]) and merging
    /// their VRT updates. A scan runs one trial, at `ctx.nonce`.
    fn run_trial(
        &mut self,
        condition: (DataPattern, Ms, Celsius),
        route: TrialRoute,
        ctx: &TrialCtx,
        nonces: impl ExactSizeIterator<Item = u64>,
        bits: &mut [u64],
        stride: usize,
    ) {
        let (pattern, ..) = condition;
        let updates = match route {
            TrialRoute::Plan { key, compile } => {
                if let Some(window) = compile {
                    self.fill_plans(condition, &window, false);
                }
                let stats = &mut self.plan_cache.stats;
                stats.plan_trials += num::to_u64(nonces.len());
                stats.batch_rounds += num::to_u64(nonces.len());
                self.plan_cache.plan(&key).run_rounds(self, ctx, nonces, bits, stride)
            }
            TrialRoute::Scan { lowered, window } => {
                debug_assert_eq!(nonces.len(), 1, "a scan runs one trial, at `ctx.nonce`");
                self.with_lanes(pattern, &window, lowered, |chip, source| {
                    chip.scan_lanes(source, &window, ctx, bits, stride)
                })
            }
        };
        self.merge_vrt(updates);
    }

    /// Runs the trials of `condition`'s pattern (nonce `ctx.nonce`) and of
    /// its inverse (the next nonce) on their resolved `routes`, into the
    /// bitmaps at 0 and `stride` in `bits`: one for both at stride 0. Two
    /// unlowered scans are one walk of the window, and two plans compiled
    /// on this sighting one compile walk, over [`LaneSource::Pair`]: each
    /// cell is decided or compiled under the member that activates it.
    /// Any other pair of routes runs one trial at a time.
    fn run_pair(
        &mut self,
        condition: (DataPattern, Ms, Celsius),
        routes: [TrialRoute; 2],
        ctx: &TrialCtx,
        bits: &mut [u64],
        stride: usize,
    ) {
        let (pattern, interval, temp) = condition;
        let [first, second] = match routes {
            [TrialRoute::Scan { lowered: false, window }, TrialRoute::Scan { lowered: false, .. }] => {
                let updates = self.scan_lanes(LaneSource::Pair(pattern), &window, ctx, bits, stride);
                self.merge_vrt(updates);
                return;
            }
            [TrialRoute::Plan { key: a, compile: Some(window) }, TrialRoute::Plan { key: b, compile: Some(_) }] => {
                self.fill_plans(condition, &window, true);
                [a, b].map(|key| TrialRoute::Plan { key, compile: None })
            }
            routes => routes,
        };
        self.run_trial(condition, first, ctx, std::iter::once(ctx.nonce), bits, stride);
        let next = TrialCtx {
            nonce: ctx.nonce + 1,
            ..*ctx
        };
        let bits = bits
            .get_mut(stride..)
            .expect("invariant: `bits` holds the inverse's bitmap at `stride`");
        self.run_trial(
            (pattern.inverse(), interval, temp),
            second,
            &next,
            std::iter::once(next.nonce),
            bits,
            stride,
        );
    }

    /// The per-trial context at `(interval, temp)` for trial `nonce`.
    fn trial_ctx(&self, interval: Ms, temp: Celsius, nonce: u64) -> TrialCtx {
        TrialCtx {
            t_secs: interval.as_secs(),
            ms_scale: self.cfg.mu_temp_scale(temp),
            ss_scale: self.cfg.sigma_temp_scale(temp),
            stream_base: self.stream_base,
            nonce,
            now_ms: self.now_ms,
            low_mu_factor: self.cfg.vrt_low_mu_factor,
        }
    }

    /// Writes advanced VRT chain states back. Each slot belongs to exactly
    /// one cell, so the order of the updates never matters.
    fn merge_vrt(&mut self, updates: Vec<(u32, TwoStateVrt)>) {
        for (i, state) in updates {
            // lint: allow(panic) indices originate from base_vrt positions
            self.base_vrt[num::idx(i)] = state;
        }
    }

    /// One round over the VRT-arrival cells: freshly arrived cells fail
    /// (that is their arrival event); established ones fail while in their
    /// low state. The draws live on the sequential RNG, so the batched
    /// entry points call this once per round *in nonce order* — the exact
    /// draw sequence a round-major trial loop makes.
    ///
    /// A round at the clock and condition of the previous one replays its
    /// list (`replay_round`); any other walks every arrival
    /// (`full_round`). Each failure sets the bit of its rank in
    /// `arrival_order` in `bits`, which has a bit per active arrival and
    /// may hold the failures of earlier same-clock rounds already: the
    /// caller emits the union once ([`emit_ranks`]).
    fn arrival_round(&mut self, t_secs: f64, ms_scale: f64, ss_scale: f64, bits: &mut [u64]) {
        debug_assert_eq!(bits.len(), rank_words(self.arrival_order.len()));
        let key = [self.now_ms, t_secs, ms_scale, ss_scale].map(f64::to_bits);
        if self.replay.key == Some(key) {
            self.replay_round(bits);
        } else {
            self.full_round(t_secs, ms_scale, ss_scale, bits);
            self.replay.key = Some(key);
        }
    }

    /// Walks every arrival in draw order. A fresh one fails and enters
    /// its low state; any other draws its observe value, which moves its
    /// state by the law of [`TwoStateVrt::observe_at`] over the time since
    /// the last round (the same for all of them), and in its low state
    /// draws its failure if its z is in band. Rebuilds the replay list.
    fn full_round(&mut self, t_secs: f64, ms_scale: f64, ss_scale: f64, bits: &mut [u64]) {
        let now_ms = self.now_ms;
        let dt = (now_ms - self.arrival_clock_ms).max(0.0);
        let from = Self::vrt_chain(&self.cfg, self.arrival_clock_ms).low_after(dt);
        self.arrival_clock_ms = now_ms;
        let rng = &mut self.rng;
        let ArrivalReplay { certain, draws, .. } = &mut self.replay;
        certain.clear();
        certain.resize(bits.len(), 0);
        draws.clear();
        for (pos, (a, &rank)) in self.arrivals.iter_mut().zip(&self.arrival_ranks).enumerate() {
            // `process_arrivals` retired every expired arrival at this clock.
            debug_assert!(a.is_active(now_ms), "arrivals hold active cells only");
            let fresh = a.fresh;
            if fresh {
                a.fresh = false;
                a.in_low = true;
            } else {
                let u = rng.random::<f64>();
                if dt > 0.0 {
                    // lint: allow(panic) a two-entry array indexed by a bool
                    a.in_low = u < from[usize::from(a.in_low)];
                }
            }
            a.observed(now_ms);
            if !a.in_low {
                continue;
            }
            let z = a.z_score(t_secs, ms_scale, ss_scale);
            if z > Z_CUTOFF {
                set_rank(certain, rank);
            } else if z > -Z_CUTOFF {
                draws.push((num::to_u32(pos), rank, z));
            }
            if fresh || z > Z_CUTOFF || (z > -Z_CUTOFF && below_phi(rng.random::<f64>(), z)) {
                set_rank(bits, rank);
            }
        }
    }

    /// Repeats the round that built the replay list: the clock has not
    /// moved, so no state changes and no arrival is fresh. The arrivals
    /// above the band fail as they did; every arrival still draws its
    /// observe value, which is discarded, and only the ones in band draw
    /// again, for their failure.
    fn replay_round(&mut self, bits: &mut [u64]) {
        debug_assert!(self.arrivals.iter().all(|a| !a.fresh && a.is_active(self.now_ms)));
        for (word, &certain) in bits.iter_mut().zip(&self.replay.certain) {
            *word |= certain;
        }
        // A local generator stays in registers through the skip loops.
        let mut rng = self.rng.clone();
        let mut next = 0;
        for &(pos, rank, z) in &self.replay.draws {
            let pos = num::idx(pos);
            // The observe draws of the arrivals up to and including this one.
            for _ in next..=pos {
                rng.next_u64();
            }
            next = pos + 1;
            if below_phi(rng.random::<f64>(), z) {
                set_rank(bits, rank);
            }
        }
        for _ in next..self.arrivals.len() {
            rng.next_u64();
        }
        self.rng = rng;
    }

    /// The window scan over the active cells of `source` in `window`:
    /// polarity, stress, μ, σ, z and the certified `u < phi(z)` compare
    /// ([`below_phi`]) per cell per trial. It serves single trials whose
    /// condition has no plan yet, and over [`LaneSource::Cells`] it is the
    /// reference the kernel is verified against. A lowering supplies the
    /// polarity-active cells and their stress levels, so the scan skips
    /// the rest; inactive cells never open a hash lane either way, so the
    /// lowering changes no stream. Over [`LaneSource::Pair`] the one walk
    /// serves the trials of the pattern (nonce `ctx.nonce`) and of its
    /// inverse (the next nonce).
    ///
    /// Every cell draws from its own (seed, trial, cell) hash lane, so
    /// the outcome is a pure function of that tuple — independent of
    /// evaluation order and therefore of thread count. Each failure sets
    /// the cell's rank bit in `bits` (ORed, so a union of trials can share
    /// one bitmap), which emits in index order without a sort; a pair's
    /// inverse writes the bitmap at `stride`. VRT cells
    /// are observed on a *copy* of their chain state; the returned updates
    /// are merged back by the caller (each vrt_index belongs to exactly
    /// one cell, so merges never conflict). It runs inline on the calling
    /// thread at every thread count: a window of a few thousand cells is
    /// tens of microseconds of work, too little to repay a per-trial
    /// fan-out (DESIGN.md §5b).
    fn scan_lanes(
        &self,
        source: LaneSource<'_>,
        window: &Window,
        ctx: &TrialCtx,
        bits: &mut [u64],
        stride: usize,
    ) -> Vec<(u32, TwoStateVrt)> {
        // The VRT range bounds the chain updates, so the vector never
        // regrows. A visited cell ORs its outcome into its rank bit: a
        // shift and an OR instead of a branch on a draw that goes either
        // way.
        let [_, vrt_cells] = window;
        let mut vrt_updates: Vec<(u32, TwoStateVrt)> = Vec::with_capacity(vrt_cells.len());
        // Each lane key is `[stream_base, TRIAL_DOMAIN, nonce, index]`:
        // the two trials' prefixes are hashed once, not once per cell.
        let trial = StreamPrefix::root().push(ctx.stream_base).push(TRIAL_DOMAIN);
        let [this_trial, next_trial] = [ctx.nonce, ctx.nonce + 1].map(|nonce| trial.push(nonce));
        source.visit(&self.cells, self.cfg.geometry, window, |ord, lvl, target| {
            let cell = self
                .cells
                .get(ord)
                .expect("invariant: active ordinals index the cell array");
            let open_lane = || if target == 0 { this_trial } else { next_trial }.push(cell.index).stream();
            // A VRT cell's first draw observes its chain; a non-VRT cell's
            // lane opens only for a failure draw, which most of the window
            // never makes (|z| > Z_CUTOFF).
            let (vrt_factor, mut lane) = match cell.vrt_index {
                Some(i) => {
                    let mut lane = open_lane();
                    let mut vrt = *self
                        .base_vrt
                        .get(num::idx(i))
                        .expect("invariant: vrt_index values are positions pushed into base_vrt");
                    let in_low = vrt.observe_at(ctx.now_ms, lane.next_f64());
                    vrt_updates.push((i, vrt));
                    (if in_low { ctx.low_mu_factor } else { 1.0 }, Some(lane))
                }
                None => (1.0, None),
            };
            let z = cell.z_at(lvl, ctx.t_secs, ctx.ms_scale, ctx.ss_scale, vrt_factor);
            if z < -Z_CUTOFF {
                return;
            }
            let fails = z > Z_CUTOFF || below_phi(lane.get_or_insert_with(open_lane).next_f64(), z);
            let rank = num::idx(
                *self
                    .index_rank
                    .get(ord)
                    .expect("invariant: index_rank is parallel to the cell array"),
            );
            *bits
                .get_mut(target * stride + rank / 64)
                .expect("invariant: the bitmap has a bit per cell") |= u64::from(fails) << (rank % 64);
        });
        vrt_updates
    }

    /// One reference-scan round at `ctx` (no lowering) with its VRT
    /// updates merged into the chip, for in-crate tests that check the
    /// kernel against the scan directly. Returns the sorted failures and
    /// the updates.
    #[cfg(test)]
    pub(crate) fn reference_round_for_tests(
        &mut self,
        pattern: DataPattern,
        window: &Window,
        ctx: &TrialCtx,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        self.rank_cells();
        let mut bits = vec![0; rank_words(self.cells.len())];
        let updates = self.scan_lanes(LaneSource::Cells(pattern), window, ctx, &mut bits, 0);
        self.merge_vrt(updates.clone());
        let mut failures = Vec::new();
        emit_ranks(&bits, &self.by_rank, &mut failures);
        (failures, updates)
    }

    /// The rank tables, for in-crate tests that run plans directly.
    #[cfg(test)]
    pub(crate) fn rank_tables_for_tests(&self) -> (Vec<u32>, Vec<u64>) {
        let (index_rank, by_rank, _) = rank_tables(&self.cells);
        (index_rank, by_rank)
    }

    /// Resolves how a trial is served: a cached plan, a plan compiled on
    /// this second sighting of the condition, or the window scan — fed by
    /// a lowering, extended to the trial window, when the pattern has one
    /// cached or is itself seen for the second time. A `group` of trials
    /// at one condition is its own second sighting, recorded even when its
    /// plan is cached, so it never scans.
    ///
    /// Every cache effect lands here, in the trial's turn: a plan compiled
    /// on this sighting gets its slot now ([`TrialPlan::pending`]), and a
    /// lowering built on it is cached now, so the sightings, LRU ticks and
    /// evictions are those of compiling or lowering on the spot;
    /// `run_trial` or `run_pair` fills the plan or extends the lowering.
    fn route_trial(&mut self, (pattern, interval, temp): (DataPattern, Ms, Celsius), group: bool) -> TrialRoute {
        let key = PlanKey::new(pattern, interval, temp);
        if group {
            self.plan_cache.note_plan_key(key);
        }
        if self.plan_cache.find_plan(&key) {
            return TrialRoute::Plan { key, compile: None };
        }
        if group || self.plan_cache.note_plan_key(key) {
            self.plan_cache.insert_plan(TrialPlan::pending(key));
            return TrialRoute::Plan {
                key,
                compile: Some(self.window(interval, temp)),
            };
        }

        // Pattern-only lanes survive the harness's per-trial temperature
        // jitter, which keeps most conditions from ever recurring.
        let window = self.window(interval, temp);
        let lowered = if self.plan_cache.find_lowering(pattern) {
            true
        } else if self.plan_cache.note_pattern(pattern) {
            self.plan_cache.insert_lowering(PatternLowering::new(pattern, &window));
            self.plan_cache.stats.lowerings_built += 1;
            true
        } else {
            false
        };
        if lowered {
            self.plan_cache.stats.lowered_trials += 1;
        } else {
            self.plan_cache.stats.scalar_trials += 1;
        }
        TrialRoute::Scan { lowered, window }
    }

    /// Calls `walk` on the lane source of `pattern`'s trial over
    /// `window`: the pattern's cached lowering when `lowered`, extended
    /// here to the window, the one place a lowering grows; otherwise, or
    /// once that lowering is evicted, every cell of the window, which
    /// makes the same draws.
    fn with_lanes<R>(
        &mut self,
        pattern: DataPattern,
        window: &Window,
        lowered: bool,
        walk: impl FnOnce(&Self, LaneSource<'_>) -> R,
    ) -> R {
        if let Some(low) = self.plan_cache.lowering_mut(pattern).filter(|_| lowered) {
            low.extend(&self.cells, self.cfg.geometry, window);
        }
        let lowering = self.plan_cache.lowering(pattern).filter(|_| lowered);
        walk(self, lowering.map_or(LaneSource::Cells(pattern), LaneSource::Lowered))
    }

    /// Compiles the plan of `condition` over its trial `window`, fed by the
    /// pattern's cached lowering if any, or with `pair` the plans of the
    /// pattern and its inverse in one walk, and fills their reserved cache
    /// slots ([`TrialPlan::pending`]).
    fn fill_plans(&mut self, (pattern, interval, temp): (DataPattern, Ms, Celsius), window: &Window, pair: bool) {
        let compile = |chip: &Self, source: LaneSource<'_>| {
            TrialPlan::compile(&chip.cfg, &chip.cells, &chip.index_rank, window, source, (interval, temp))
        };
        let plans = if pair {
            compile(self, LaneSource::Pair(pattern))
        } else {
            self.with_lanes(pattern, window, true, compile)
        };
        self.plan_cache.stats.plans_compiled += num::to_u64(plans.len());
        for plan in plans {
            self.plan_cache.fill_plan(plan);
        }
    }

    /// Runs `rounds` retention trials at one fixed condition, returning
    /// one outcome per round in nonce order: a one-group
    /// [`SimulatedChip::retention_trial_schedule`]. Two rounds or more
    /// compile the condition's plan on the spot and run kernel batches of
    /// up to [`MAX_BATCH_ROUNDS`]; one round routes as
    /// [`SimulatedChip::retention_trial`] does. Bit-identical to calling
    /// `retention_trial` `rounds` times; `rounds == 0` runs nothing.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial_rounds(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
        rounds: u32,
    ) -> Vec<TrialOutcome> {
        assert!(interval.is_positive(), "retention interval must be positive");
        let schedule = vec![(pattern, interval, temp); num::idx_u64(u64::from(rounds))];
        self.run_trials(&schedule, || false, false).outcomes
    }

    /// Runs a heterogeneous trial schedule: one trial per
    /// `(pattern, interval, temp)` entry, outcomes in schedule order,
    /// bit-identical to a [`SimulatedChip::retention_trial`] loop over the
    /// same entries. A condition that recurs in the schedule runs as
    /// kernel batches of up to [`MAX_BATCH_ROUNDS`]; the others route as
    /// single trials do.
    ///
    /// `cancel` is polled before every kernel batch and every routed trial
    /// or pair, never mid-batch. The outcomes returned are the longest
    /// *schedule prefix* whose entries all completed, bit-identical to that
    /// prefix of the uncancelled run; [`PartialTrials::cancelled`] reports
    /// an early stop. A cancelled run has reserved a nonce for every entry
    /// and may have skipped VRT updates, so its chip cannot continue a
    /// bit-identical sequence: racing callers discard it with the result.
    ///
    /// # Panics
    /// Panics if any interval is not positive.
    pub fn retention_trial_schedule(
        &mut self,
        schedule: &[(DataPattern, Ms, Celsius)],
        cancel: &CancelToken,
    ) -> PartialTrials {
        self.run_trials(schedule, || cancel.is_cancelled(), false)
    }

    /// Routing/compilation counters since chip construction.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_cache.stats
    }

    /// Number of cells a trial at `(interval, temp)` visits — the live
    /// window the scan and plan compile share: the non-VRT cells whose
    /// worst-case z can reach `−Z_CUTOFF`, plus the VRT cells within
    /// `Z_CUTOFF`·σ_cap of the interval (see [`window_ranges`]).
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn candidate_window(&self, interval: Ms, temp: Celsius) -> usize {
        assert!(interval.is_positive(), "interval must be positive");
        window_len(&self.window(interval, temp))
    }

    /// Draws Poisson VRT arrivals for the wall-clock span since the last
    /// check and retires expired ones.
    fn process_arrivals(&mut self, t_secs: f64, temp: Celsius) {
        let elapsed_hours = (self.now_ms - self.last_arrival_ms) / 3.6e6;
        self.last_arrival_ms = self.now_ms;
        if elapsed_hours <= 0.0 {
            // The previous call already retired arrivals at this same
            // clock, which never runs backwards.
            return;
        }
        let rate = self.cfg.vrt_arrival_rate_per_hour(t_secs, temp);
        let n = Poisson::new(rate * elapsed_hours)
            .expect("invariant: arrival rate and elapsed span are positive here")
            .sample(&mut self.rng);

        let sigma_dist = LogNormal::from_median(self.cfg.sigma_median_secs, self.cfg.sigma_log_sd)
            .expect("invariant: validated config yields finite positive sigma params");
        let lifetime = Exponential::from_mean(self.cfg.vrt_lifetime_hours * 3.6e6)
            .expect("invariant: validated config yields a positive VRT lifetime");
        let density = self.cfg.geometry.density_bits();
        let ms_scale = self.cfg.mu_temp_scale(temp);

        let n = num::idx_u64(n);
        if n > 0 {
            if !self.occupied.is_built() {
                self.occupied = OccupiedIndices::build(&self.cells);
            }
            self.occupied.reserve(n, &self.arrival_order);
        }
        // The batch's own indices are in the filter but not yet in
        // `arrival_order`.
        let mut batch = IndexTable::with_capacity(n);
        let first_new = self.arrivals.len();
        for _ in 0..n {
            let index = loop {
                let idx = self.rng.random_range(0..density);
                if !self.occupied.contains(idx, &self.arrival_order) && batch.insert(idx) {
                    self.occupied.mark(idx);
                    break idx;
                }
            };
            // The arrival's low-state μ lies comfortably inside the failing
            // range of the interval that exposed it (at trial temperature).
            let frac = 0.55 + 0.35 * self.rng.random::<f64>();
            let mu0 = (t_secs * frac) / ms_scale;
            let sigma0 = sigma_dist.sample(&mut self.rng).min(SIGMA_CAP_SECS);
            // A polarity draw, kept for the stream: an arrival fails
            // whatever pattern a trial writes.
            let _: bool = self.rng.random();
            let expires_at_ms = self.now_ms + lifetime.sample(&mut self.rng);
            self.arrivals.push(ArrivalCell::new(
                index,
                num::f32_narrow(mu0),
                num::f32_narrow(sigma0),
                expires_at_ms,
            ));
        }
        self.reindex_arrivals(first_new);
    }

    /// Retires expired arrivals and ranks the ones drawn since
    /// `first_new` (`arrivals[first_new..]`, which have no rank yet) in
    /// `arrival_order`. `arrivals` keeps draw order. Survivors keep their
    /// relative order in both lists, so the new index order is the old one
    /// filtered, merged with the sorted new batch, in place.
    fn reindex_arrivals(&mut self, first_new: usize) {
        const GONE: u32 = u32::MAX;
        let now_ms = self.now_ms;
        // One retain over both lists: a surviving old arrival keeps its
        // rank (re-aimed below) and marks it in `remap`, old rank → new
        // rank; a surviving new one joins the batch at its kept position.
        let mut remap = vec![GONE; self.arrival_order.len()];
        let mut fresh: Vec<(u64, usize)> = Vec::with_capacity(self.arrivals.len() - first_new);
        // New arrivals retired as soon as drawn (a zero lifetime).
        let mut retired_new: Vec<u64> = Vec::new();
        let ranks = &mut self.arrival_ranks;
        let (mut seen, mut kept_all) = (0, 0);
        self.arrivals.retain(|a| {
            let keep = a.is_active(now_ms);
            if keep {
                if seen < first_new {
                    let rank = *ranks.get(seen).expect("invariant: old arrivals have ranks");
                    *remap
                        .get_mut(num::idx(rank))
                        .expect("invariant: ranks lie below arrival_order.len()") = 0;
                    *ranks.get_mut(kept_all).expect("invariant: kept_all <= seen") = rank;
                } else {
                    fresh.push((a.index, kept_all));
                }
                kept_all += 1;
            } else if seen >= first_new {
                retired_new.push(a.index);
            }
            seen += 1;
            keep
        });
        ranks.truncate(kept_all - fresh.len());
        ranks.resize(kept_all, GONE);
        // Indices are unique, so the key alone orders the pairs.
        fresh.sort_unstable_by_key(|&(f, _)| f);
        let first_fresh = kept_all - fresh.len();
        // The retired arrivals leave `arrival_order` for the occupied set,
        // as one exactly sized run.
        let mut retired = Vec::with_capacity(remap.len() - first_fresh + retired_new.len());
        let (old_ranks, new_ranks) = ranks.split_at_mut(first_fresh);
        let order = &mut self.arrival_order;
        let mut rank_new = |pos: usize, rank: usize| {
            *new_ranks
                .get_mut(pos - first_fresh)
                .expect("invariant: new arrivals are kept after the old ones") = num::to_u32(rank);
        };

        // Ascending: compact the survivors to the front of `order`, and
        // give each survivor and new arrival its final rank — its compacted
        // position plus the entries of the other list below it.
        let (mut kept, mut k) = (0, 0);
        for (r, slot) in remap.iter_mut().enumerate() {
            let index = *order.get(r).expect("invariant: r < order.len()");
            if *slot == GONE {
                retired.push(index);
                continue;
            }
            while let Some(&(_, pos)) = fresh.get(k).filter(|&&(f, _)| f < index) {
                rank_new(pos, kept + k);
                k += 1;
            }
            *slot = num::to_u32(kept + k);
            *order.get_mut(kept).expect("invariant: kept <= r") = index;
            kept += 1;
        }
        for (k, &(_, pos)) in fresh.iter().enumerate().skip(k) {
            rank_new(pos, kept + k);
        }
        for rank in old_ranks.iter_mut() {
            *rank = *remap
                .get(num::idx(*rank))
                .expect("invariant: ranks lie below the old arrival_order.len()");
        }
        if !retired_new.is_empty() {
            retired.extend(retired_new);
            retired.sort_unstable();
        }
        self.occupied.push_run(retired);

        // Descending: merge the new batch in from the top, so every
        // survivor moves up to its final rank before anything lands on it.
        order.resize(kept + fresh.len(), 0);
        let mut k = fresh.len();
        for p in (0..kept).rev() {
            let index = *order.get(p).expect("invariant: p < kept");
            while let Some(&(f, _)) = k
                .checked_sub(1)
                .and_then(|top| fresh.get(top))
                .filter(|&&(f, _)| f > index)
            {
                *order.get_mut(p + k).expect("invariant: p + k < order.len()") = f;
                k -= 1;
            }
            *order.get_mut(p + k).expect("invariant: p + k < order.len()") = index;
        }
        for (slot, &(f, _)) in order.iter_mut().zip(fresh.iter().take(k)) {
            *slot = f;
        }
        debug_assert!(self.arrivals_consistent());
    }

    /// `arrival_order` holds exactly the active arrivals' indices,
    /// ascending, and `arrival_ranks` points each arrival at its own; the
    /// occupied set is consistent and holds every active arrival; and in
    /// debug builds every arrival that is not fresh was last observed at
    /// the arrival clock. Checked via `debug_assert!`.
    fn arrivals_consistent(&self) -> bool {
        #[cfg(debug_assertions)]
        let observed_at_clock = self
            .arrivals
            .iter()
            .all(|a| a.fresh || a.observed_at_ms.to_bits() == self.arrival_clock_ms.to_bits());
        #[cfg(not(debug_assertions))]
        let observed_at_clock = true;
        let occupied = self.occupied.consistent(&self.arrival_order);
        self.arrival_order.is_sorted_by(|a, b| a < b)
            && self.arrival_order.len() == self.arrivals.len()
            && self.arrival_ranks.len() == self.arrivals.len()
            && self
                .arrivals
                .iter()
                .zip(&self.arrival_ranks)
                .all(|(a, &r)| self.arrival_order.get(num::idx(r)) == Some(&a.index))
            && occupied
            && observed_at_clock
    }

    /// Analytic ground truth: all cells whose *worst-case* single-trial
    /// failure probability at `(interval, temp)` is at least `min_prob` —
    /// i.e. "all possible failing cells at the target conditions" in the
    /// paper's coverage definition (§1), with a probability floor.
    ///
    /// Includes currently-active VRT arrivals (their retention state is in
    /// the failing range right now).
    ///
    /// # Panics
    /// Panics if `interval` is not positive or `min_prob` is outside (0, 1].
    pub fn failing_set_worst_case(
        &self,
        interval: Ms,
        temp: Celsius,
        min_prob: f64,
    ) -> Vec<u64> {
        assert!(interval.is_positive(), "interval must be positive");
        assert!(
            min_prob > 0.0 && min_prob <= 1.0,
            "min_prob must be in (0, 1]"
        );
        let t = interval.as_secs();
        let ms_scale = self.cfg.mu_temp_scale(temp);
        let ss_scale = self.cfg.sigma_temp_scale(temp);
        let cut = sigma_cap_cut(t, ms_scale, ss_scale);

        // The σ-cap membership, whatever trial windows visit: a non-VRT
        // cell beyond the live window cannot fail a trial but can still
        // clear a small `min_prob`. A cell's window key is at most its
        // sort key (the non-VRT key subtracts `Z_CUTOFF`·σ0 ≥ 0, the VRT
        // key is the sort key), so every member lies in the key-sorted
        // prefix of its segment below the cut; the cells past it are not
        // visited. `phi_at_least` decides `worst_case_fail_probability ≥
        // min_prob` exactly, mostly without evaluating `phi`.
        let (plain, vrt) = self.sort_keys.split_at(self.vrt_start);
        let below_cut = |keys: &[f64]| keys.partition_point(|&k| k < cut);
        let candidates = self
            .cells
            .get(..below_cut(plain))
            .into_iter()
            .chain(self.cells.get(self.vrt_start..self.vrt_start + below_cut(vrt)))
            .flatten();
        let mut out: Vec<u64> = candidates
            .filter(|c| {
                if Self::sort_key_of(&self.cfg, c) >= cut {
                    return false;
                }
                let vrt_factor = if c.vrt_index.is_some() {
                    self.cfg.vrt_low_mu_factor
                } else {
                    1.0
                };
                phi_at_least(c.z_at(FULL_STRESS, t, ms_scale, ss_scale, vrt_factor), min_prob)
            })
            .map(|c| c.index)
            .collect();

        for a in &self.arrivals {
            if a.is_active(self.now_ms) && phi_at_least(a.z_score(t, ms_scale, ss_scale), min_prob) {
                out.push(a.index);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_dram_model::Vendor;
    use reaper_exec::rng::stream;
    use std::collections::HashSet;

    fn quick_cfg() -> RetentionConfig {
        // 1/8 capacity for fast tests.
        RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 8)
    }

    fn trial_union(
        chip: &mut SimulatedChip,
        interval: Ms,
        temp: Celsius,
        iterations: u64,
    ) -> HashSet<u64> {
        let mut set = HashSet::new();
        for it in 0..iterations {
            for p in DataPattern::standard_set(it) {
                set.extend(chip.retention_trial(p, interval, temp).into_vec());
            }
        }
        set
    }

    #[test]
    fn chip_is_deterministic_in_seed() {
        let a = SimulatedChip::new(quick_cfg(), 7);
        let b = SimulatedChip::new(quick_cfg(), 7);
        assert_eq!(a.cells().len(), b.cells().len());
        assert_eq!(a.cells(), b.cells());
        let c = SimulatedChip::new(quick_cfg(), 8);
        assert_ne!(a.cells(), c.cells());
    }

    #[test]
    fn population_size_tracks_expectation() {
        let cfg = quick_cfg();
        let expected = cfg.expected_weak_cells();
        let chip = SimulatedChip::new(cfg, 1);
        let n = chip.cells().len() as f64;
        assert!(
            (n - expected).abs() < 5.0 * expected.sqrt().max(1.0),
            "n = {n}, expected ≈ {expected}"
        );
    }

    #[test]
    fn trials_are_reproducible_for_same_seed_and_history() {
        let mut a = SimulatedChip::new(quick_cfg(), 3);
        let mut b = SimulatedChip::new(quick_cfg(), 3);
        let p = DataPattern::checkerboard();
        let out_a = a.retention_trial(p, Ms::new(1024.0), Celsius::new(60.0));
        let out_b = b.retention_trial(p, Ms::new(1024.0), Celsius::new(60.0));
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn failure_count_scales_with_interval() {
        let mut chip = SimulatedChip::new(quick_cfg(), 5);
        let t45 = Celsius::new(60.0);
        let n_512 = trial_union(&mut chip, Ms::new(512.0), t45, 4).len();
        let n_2048 = trial_union(&mut chip, Ms::new(2048.0), t45, 4).len();
        assert!(
            n_2048 as f64 > 5.0 * n_512.max(1) as f64,
            "512ms: {n_512}, 2048ms: {n_2048}"
        );
    }

    #[test]
    fn failure_count_scales_with_temperature() {
        let mut chip = SimulatedChip::new(quick_cfg(), 6);
        let n_cool = trial_union(&mut chip, Ms::new(1024.0), Celsius::new(60.0), 4).len();
        let n_hot = trial_union(&mut chip, Ms::new(1024.0), Celsius::new(70.0), 4).len();
        // Eq. 1: +10°C ≈ e^{2.0} ≈ 7.4x for Vendor B.
        let ratio = n_hot as f64 / n_cool.max(1) as f64;
        assert!((3.0..15.0).contains(&ratio), "cool {n_cool}, hot {n_hot}");
    }

    #[test]
    fn observation1_higher_interval_superset_statistically() {
        // Cells found at an interval are (overwhelmingly) found again at a
        // longer interval.
        let mut chip = SimulatedChip::new(quick_cfg(), 9);
        let t45 = Celsius::new(60.0);
        let low = trial_union(&mut chip, Ms::new(1024.0), t45, 8);
        let high = trial_union(&mut chip, Ms::new(1536.0), t45, 8);
        let repeat = low.intersection(&high).count();
        let frac = repeat as f64 / low.len().max(1) as f64;
        assert!(frac > 0.90, "repeat fraction {frac} ({repeat}/{})", low.len());
    }

    #[test]
    fn ground_truth_is_covered_by_exhaustive_profiling() {
        let mut chip = SimulatedChip::new(quick_cfg(), 10);
        let t45 = Celsius::new(60.0);
        let interval = Ms::new(1024.0);
        let gt: HashSet<u64> = chip
            .failing_set_worst_case(interval, t45, 0.5)
            .into_iter()
            .collect();
        // Profiling *above* target must find essentially all p>=0.5 cells.
        let found = trial_union(&mut chip, Ms::new(1536.0), t45, 16);
        let covered = gt.iter().filter(|i| found.contains(i)).count();
        let cov = covered as f64 / gt.len().max(1) as f64;
        assert!(cov > 0.98, "coverage {cov} ({covered}/{})", gt.len());
    }

    #[test]
    fn vrt_arrivals_accumulate_over_time() {
        let mut chip = SimulatedChip::new(quick_cfg(), 11);
        let t45 = Celsius::new(60.0);
        let interval = Ms::new(2048.0);
        // Simulate 20 hours of elapsed time in ten 2-hour steps.
        let mut total_arrivals = 0;
        for _ in 0..10 {
            chip.advance(Ms::from_hours(2.0));
            let _ = chip.retention_trial(DataPattern::random(1), interval, t45);
            total_arrivals = chip.arrival_count();
        }
        // Vendor B at 2048ms: ~180 cells/hr at full capacity, 1/8 here ≈
        // 22/hr ⇒ ~450 over 20h (minus departures).
        assert!(
            total_arrivals > 100,
            "expected substantial VRT arrivals, got {total_arrivals}"
        );
    }

    #[test]
    fn no_time_elapsed_no_arrivals() {
        let mut chip = SimulatedChip::new(quick_cfg(), 12);
        let _ = chip.retention_trial(
            DataPattern::random(1),
            Ms::new(2048.0),
            Celsius::new(60.0),
        );
        assert_eq!(chip.arrival_count(), 0);
    }

    #[test]
    fn trial_outcome_api() {
        let out = TrialOutcome::from_unsorted(vec![5, 1, 3, 3]);
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        assert!(out.contains(3));
        assert!(!out.contains(2));
        assert_eq!(out.failures(), &[1, 3, 5]);
        let v: Vec<u64> = (&out).into_iter().copied().collect();
        assert_eq!(v, vec![1, 3, 5]);
        assert_eq!(out.into_vec(), vec![1, 3, 5]);
        assert!(TrialOutcome::default().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn rank_bit_assembly_equals_from_unsorted(
            cells in proptest::collection::btree_set(0u64..400, 0..64),
            side in 0u64..u64::MAX,
            window_fails in 0u64..u64::MAX,
            arrival_fails in 0u64..u64::MAX,
        ) {
            // Disjoint weak-cell and arrival index sets, as on a chip (bit
            // `k` of `side` puts the k-th cell among the arrivals), each
            // with an arbitrary failure bitmap over its ranks: the
            // emissions and their back merge must equal a full sort of the
            // failing indices.
            let (mut by_rank, mut arrival_order) = (Vec::new(), Vec::new());
            for (k, cell) in cells.into_iter().enumerate() {
                if side >> k & 1 == 1 { arrival_order.push(cell) } else { by_rank.push(cell) }
            }
            fn fails(mask: u64, order: &[u64]) -> (u64, &[u64]) {
                (mask & 1u64.checked_shl(num::to_u32(order.len())).map_or(u64::MAX, |b| b - 1), order)
            }
            let (window, arrivals) = (fails(window_fails, &by_rank), fails(arrival_fails, &arrival_order));
            let failing = |(mask, order): (u64, &[u64])| -> Vec<u64> {
                order.iter().enumerate().filter(|(k, _)| mask >> k & 1 == 1).map(|(_, &i)| i).collect()
            };
            let want = TrialOutcome::from_unsorted([failing(window), failing(arrivals)].concat());
            let got = TrialOutcome::from_rank_bits(&[window.0], &by_rank, &[arrivals.0], &arrival_order);
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// `arrival_round` as a plain draw-order walk that pushes each failure
    /// as it is found, every arrival observed through a chain of its own
    /// that was last observed at the arrival clock: the same draws,
    /// failures in draw order.
    fn draw_order_round(chip: &mut SimulatedChip, t_secs: f64, ms_scale: f64, ss_scale: f64) -> Vec<u64> {
        let now_ms = chip.now_ms;
        let mut failed = Vec::new();
        for a in &mut chip.arrivals {
            if a.fresh {
                a.fresh = false;
                a.in_low = true;
                failed.push(a.index);
                continue;
            }
            let mut vrt = SimulatedChip::vrt_chain(&chip.cfg, chip.arrival_clock_ms);
            vrt.force_state(a.in_low, chip.arrival_clock_ms);
            a.in_low = vrt.observe(now_ms, &mut chip.rng);
            if a.in_low {
                let z = a.z_score(t_secs, ms_scale, ss_scale);
                if z > Z_CUTOFF || (z > -Z_CUTOFF && below_phi(chip.rng.random::<f64>(), z)) {
                    failed.push(a.index);
                }
            }
        }
        chip.arrival_clock_ms = now_ms;
        failed
    }

    #[test]
    fn rank_emission_is_the_sorted_draw_order_walk() {
        // Steps long against the 12 h mean lifetime retire arrivals while
        // new ones arrive; three rounds per step cover fresh arrivals,
        // established ones observed in their low state, a same-clock
        // replay and, on odd steps, a same-clock change of temperature
        // that rebuilds the replay list.
        let mut chip = SimulatedChip::new(quick_cfg(), 41);
        let interval = Ms::new(2048.0);
        let condition = |chip: &SimulatedChip, temp: f64| {
            let temp = Celsius::new(temp);
            (interval.as_secs(), chip.cfg.mu_temp_scale(temp), chip.cfg.sigma_temp_scale(temp))
        };
        // Arrivals drawn so far, expired ones included.
        let drawn = |chip: &SimulatedChip| chip.occupied.len().saturating_sub(chip.cells.len());
        let (mut expired, mut emitted, mut replayed) = (false, 0, 0);
        for step in 0..8 {
            chip.advance(Ms::from_hours(6.0));
            let before = drawn(&chip);
            chip.process_arrivals(interval.as_secs(), Celsius::new(60.0));
            assert!(drawn(&chip) > before, "every step draws new arrivals");
            expired |= drawn(&chip) > chip.arrivals.len();
            assert!(chip.arrivals_consistent());
            let temps = [60.0, 60.0, if step % 2 == 1 { 63.0 } else { 60.0 }];
            for temp in temps {
                let (t, ms, ss) = condition(&chip, temp);
                let mut reference = chip.clone();
                let mut want = draw_order_round(&mut reference, t, ms, ss);
                want.sort_unstable();
                let replays = chip.replay.key == Some([chip.now_ms, t, ms, ss].map(f64::to_bits));
                let mut bits = vec![0; rank_words(chip.arrival_order.len())];
                chip.arrival_round(t, ms, ss, &mut bits);
                let mut got = Vec::new();
                emit_ranks(&bits, &chip.arrival_order, &mut got);
                assert!(got.is_sorted_by(|a, b| a < b), "emission must be strictly ascending");
                assert_eq!(got, want);
                assert_eq!(chip.rng, reference.rng, "the same draws, in the same order");
                let states = |c: &SimulatedChip| c.arrivals.iter().map(|a| (a.in_low, a.fresh)).collect::<Vec<_>>();
                assert_eq!(states(&chip), states(&reference));
                assert!(chip.arrivals_consistent());
                emitted += got.len();
                replayed += usize::from(replays);
            }
        }
        assert!(expired, "the steps must retire arrivals");
        assert!(emitted > 0);
        assert_eq!(replayed, 12, "the repeats of a clock and condition replay");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn trial_rejects_zero_interval() {
        let mut chip = SimulatedChip::new(quick_cfg(), 13);
        chip.retention_trial(DataPattern::solid0(), Ms::ZERO, Celsius::new(60.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_rejects_negative() {
        let mut chip = SimulatedChip::new(quick_cfg(), 14);
        chip.advance(Ms::new(-1.0));
    }

    #[test]
    fn ber_of_count_uses_represented_bits() {
        let chip = SimulatedChip::new(quick_cfg(), 15);
        let bits = chip.config().represented_bits;
        assert!((chip.ber_of_count(bits as usize) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn by_rank_is_ascending_and_inverts_index_rank() {
        // A synthesized chip; indices near the top of the range, all in one
        // bucket; dense indices, one to a bucket; no cells.
        let mut chip = SimulatedChip::new(quick_cfg(), 18);
        let (mut huge, mut dense) = (chip.cells()[..100].to_vec(), chip.cells()[..100].to_vec());
        for (k, (top, low)) in huge.iter_mut().zip(&mut dense).enumerate() {
            top.index = u64::MAX - 7 * (k as u64 * 37 % 101);
            low.index = k as u64 * 37 % 101;
        }
        for cells in [chip.cells(), &huge[..], &dense[..], &[]] {
            let (index_rank, by_rank, rank_ord) = rank_tables(cells);
            assert_eq!(
                (index_rank.len(), by_rank.len(), rank_ord.len()),
                (cells.len(), cells.len(), cells.len())
            );
            assert!(by_rank.is_sorted_by(|a, b| a < b), "by_rank must be strictly ascending");
            for (ord, (cell, &rank)) in cells.iter().zip(&index_rank).enumerate() {
                assert_eq!(by_rank[rank as usize], cell.index);
                assert_eq!(rank_ord[rank as usize] as usize, ord);
            }
        }
        // The first trial builds the tables of the window-ordered cells.
        assert!(chip.by_rank.is_empty());
        let _ = chip.retention_trial(DataPattern::solid0(), Ms::new(1024.0), Celsius::new(60.0));
        assert_eq!(
            rank_tables(chip.cells()),
            (chip.index_rank.clone(), chip.by_rank.clone(), chip.rank_ord.clone())
        );
    }

    #[test]
    fn stable_cosort_matches_pair_sort_reference() {
        // Duplicate keys included, within and across segments: stability
        // must keep original order, and the segment must dominate the key.
        let ref_keys = [3.0, 1.0, 2.0, 1.0, 3.0, 0.5, 2.0, 1.0, 0.25];
        let ref_items: Vec<u64> = (0..ref_keys.len() as u64).collect();
        let segment = |item: &u64| item.is_multiple_of(3);

        let mut triples: Vec<(bool, f64, u64)> = ref_keys
            .iter()
            .copied()
            .zip(ref_items.iter().copied())
            .map(|(k, i)| (segment(&i), k, i))
            .collect();
        triples.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));

        let mut keys = ref_keys.to_vec();
        let mut items = ref_items;
        stable_cosort_by_key(&mut keys, &mut items, segment);

        let want_keys: Vec<f64> = triples.iter().map(|t| t.1).collect();
        let want_items: Vec<u64> = triples.iter().map(|t| t.2).collect();
        assert_eq!(keys, want_keys);
        assert_eq!(items, want_items);
        assert_eq!(items.partition_point(|i| !segment(i)), 6);

        // Signed keys and both zeros: `-0.0` ties with `0.0` and keeps
        // its original place, as under `partial_cmp`.
        let mut keys = vec![0.0, -1.5, -0.0, 2.0, -0.0, 0.0, -3.0];
        let mut items: Vec<u64> = (0..keys.len() as u64).collect();
        stable_cosort_by_key(&mut keys, &mut items, |_| false);
        assert_eq!(items, vec![6, 1, 0, 2, 4, 5, 3]);

        // Degenerate sizes.
        let mut k: Vec<f64> = vec![];
        let mut v: Vec<u64> = vec![];
        stable_cosort_by_key(&mut k, &mut v, segment);
        let mut k = vec![7.0];
        let mut v = vec![9u64];
        stable_cosort_by_key(&mut k, &mut v, segment);
        assert_eq!((k, v), (vec![7.0], vec![9]));
    }

    #[test]
    fn every_route_matches_the_reference_scan() {
        // Production trials walk scan → lowered scan → compile → plan hit
        // as conditions recur (the jittered temperatures only ever reach
        // the lowered scan); the reference always scans without a
        // lowering. Transcripts must agree across time advances.
        let run = |reference: bool| {
            let mut chip = SimulatedChip::new(quick_cfg(), 21);
            let mut transcript = Vec::new();
            for it in 0..3 {
                for p in DataPattern::standard_set(it) {
                    for temp in [60.0, 60.0 + 0.01 * it as f64] {
                        let temp = Celsius::new(temp);
                        let out = if reference {
                            chip.retention_trial_reference(p, Ms::new(1024.0), temp)
                        } else {
                            chip.retention_trial(p, Ms::new(1024.0), temp)
                        };
                        transcript.push(out.into_vec());
                    }
                }
                chip.advance(Ms::from_hours(1.0));
            }
            (transcript, chip.plan_stats())
        };
        let (want, reference_stats) = run(true);
        let (got, stats) = run(false);
        assert_eq!(got, want);
        assert_eq!(reference_stats.scalar_trials, want.len() as u64);
        assert_eq!(reference_stats.plans_compiled + reference_stats.lowerings_built, 0);
        assert!(stats.scalar_trials > 0 && stats.lowered_trials > 0 && stats.plan_trials > 0);
        assert_eq!(stats.batch_rounds, stats.plan_trials);
    }

    #[test]
    fn batched_rounds_match_sequential_trials() {
        // The multi-round entry point must replicate a retention_trial
        // loop bit-for-bit — across a time advance (VRT arrivals) and
        // across the 64-round plane boundary (a full batch plus a partial
        // one).
        let p = DataPattern::checkerboard();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);
        let rounds = MAX_BATCH_ROUNDS as u32 + 6;

        let mut reference = SimulatedChip::new(quick_cfg(), 31);
        reference.advance(Ms::from_hours(2.0));
        let want: Vec<TrialOutcome> = (0..rounds)
            .map(|_| reference.retention_trial_reference(p, interval, temp))
            .collect();

        let mut chip = SimulatedChip::new(quick_cfg(), 31);
        chip.advance(Ms::from_hours(2.0));
        assert_eq!(chip.retention_trial_rounds(p, interval, temp, rounds), want);
        let s = chip.plan_stats();
        assert_eq!((s.plans_compiled, s.plan_trials), (1, u64::from(rounds)));
        assert_eq!(s.batch_rounds, s.plan_trials);
        assert!(chip.retention_trial_rounds(p, interval, temp, 0).is_empty());
    }

    #[test]
    fn schedule_matches_sequential_trials() {
        // A heterogeneous schedule (rotating patterns, a second interval)
        // regrouped by condition must match the sequential loop exactly.
        let temp = Celsius::new(60.0);
        let mut schedule: Vec<(DataPattern, Ms, Celsius)> = Vec::new();
        for it in 0..3 {
            for p in DataPattern::standard_set(it) {
                schedule.push((p, Ms::new(1024.0), temp));
            }
            schedule.push((DataPattern::checkerboard(), Ms::new(1536.0), temp));
        }

        let mut reference = SimulatedChip::new(quick_cfg(), 32);
        reference.advance(Ms::from_hours(1.0));
        let want: Vec<TrialOutcome> = schedule
            .iter()
            .map(|&(p, i, c)| reference.retention_trial_reference(p, i, c))
            .collect();

        let mut chip = SimulatedChip::new(quick_cfg(), 32);
        chip.advance(Ms::from_hours(1.0));
        let got = chip.retention_trial_schedule(&schedule, &CancelToken::new());
        assert!(!got.cancelled);
        assert_eq!(got.outcomes, want);

        // Degenerate schedule.
        let mut chip = SimulatedChip::new(quick_cfg(), 32);
        let run = chip.retention_trial_schedule(&[], &CancelToken::new());
        assert!(run.outcomes.is_empty() && !run.cancelled);
    }

    /// A mix for the multi-trial body at two conditions: two fixed patterns
    /// recurring across the 64-round batch boundary at `a`, a random
    /// pattern/inverse pair seen once each at `a`, a pattern recurring at
    /// `b`, and three entries alone at their conditions that pair with no
    /// neighbour: a pattern, another, and that one's inverse at `a`.
    fn mixed_entries(a: (Ms, Celsius), b: (Ms, Celsius)) -> Vec<(DataPattern, Ms, Celsius)> {
        let random = DataPattern::random(0x0A5);
        let mut entries = Vec::new();
        for r in 0..MAX_BATCH_ROUNDS + 6 {
            entries.push((DataPattern::checkerboard(), a.0, a.1));
            entries.push((DataPattern::solid0(), a.0, a.1));
            if r == 9 {
                entries.extend([(random, a.0, a.1), (random.inverse(), a.0, a.1)]);
            }
            if r % 16 == 0 {
                entries.push((DataPattern::row_stripe(), b.0, b.1));
            }
        }
        let lone = DataPattern::random(0x0A6);
        entries.extend([
            (DataPattern::col_stripe(), b.0, b.1),
            (lone, b.0, b.1),
            (lone.inverse(), a.0, a.1),
        ]);
        entries
    }

    #[test]
    fn union_sink_matches_the_merged_reference_loop() {
        // With arrivals active, the union sink over two conditions equals
        // merging a reference loop over the same entries, and leaves the
        // chip where the loop leaves its clone.
        let (a, b) = (
            (Ms::new(2048.0), Celsius::new(60.0)),
            (Ms::new(1536.0), Celsius::new(63.0)),
        );
        let entries = mixed_entries(a, b);
        let mut chip = SimulatedChip::new(quick_cfg(), 35);
        chip.advance(Ms::from_hours(4.0));
        let mut reference = chip.clone();
        let mut want = Vec::new();
        for &(p, i, t) in &entries {
            want.extend(reference.retention_trial_reference(p, i, t).into_vec());
        }
        let got = chip.run_trials(&entries, || false, true);
        assert!(!got.cancelled && chip.arrival_count() > 0);
        assert_eq!(got.outcomes, vec![TrialOutcome::from_unsorted(want)]);
        assert_eq!(
            (&chip.base_vrt, chip.arrival_count()),
            (&reference.base_vrt, reference.arrival_count())
        );
        // The recurring conditions ran on their plans; the pair and the
        // three lone entries scanned.
        let s = chip.plan_stats();
        assert_eq!((s.plan_trials, s.scalar_trials, s.plans_compiled), (145, 5, 3));
        let (p, (i, t)) = (DataPattern::row_stripe(), b);
        assert_eq!(
            chip.retention_trial(p, i, t),
            reference.retention_trial_reference(p, i, t)
        );
    }

    #[test]
    fn schedule_pairs_keep_their_own_outcomes_on_every_route() {
        // A lone pattern/inverse pair in a per-entry schedule runs as a
        // pair on every route (one window walk, one compile walk, two
        // plans, two lowered scans) and each trial keeps its own outcome.
        let mut chip = SimulatedChip::new(quick_cfg(), 37);
        chip.advance(Ms::from_hours(4.0));
        let mut reference = chip.clone();
        let (interval, p) = (Ms::new(2048.0), DataPattern::walking1(3));
        for temp in [60.0, 60.0, 60.0, 60.25].map(Celsius::new) {
            let schedule = [(p, interval, temp), (p.inverse(), interval, temp)];
            let got = chip.retention_trial_schedule(&schedule, &CancelToken::new()).outcomes;
            let want: Vec<_> = schedule
                .iter()
                .map(|&(p, i, t)| reference.retention_trial_reference(p, i, t))
                .collect();
            assert!(want.iter().all(|o| !o.is_empty()), "both trials fail cells at {temp}");
            assert_eq!(got, want, "at {temp}");
        }
        let s = chip.plan_stats();
        assert_eq!(
            (s.scalar_trials, s.lowered_trials, s.plan_trials, s.plans_compiled),
            (2, 2, 4, 2)
        );
    }

    #[test]
    fn stopping_at_every_boundary_returns_a_bit_identical_prefix() {
        // The per-entry sink stopped before each of its kernel batches and
        // routed trials in turn: every run returns a prefix of the whole
        // run's outcomes, which grows with the boundary, and the whole run
        // matches the reference loop.
        let (a, b) = (
            (Ms::new(2048.0), Celsius::new(60.0)),
            (Ms::new(1536.0), Celsius::new(63.0)),
        );
        let entries = mixed_entries(a, b);
        let mut chip = SimulatedChip::new(RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32), 36);
        chip.advance(Ms::from_hours(6.0));
        let mut reference = chip.clone();
        let want: Vec<TrialOutcome> = entries
            .iter()
            .map(|&(p, i, t)| reference.retention_trial_reference(p, i, t))
            .collect();
        let mut polls = 0;
        let full = chip.clone().run_trials(
            &entries,
            || {
                polls += 1;
                false
            },
            false,
        );
        assert_eq!((full.outcomes.as_slice(), full.cancelled), (want.as_slice(), false));
        // Batches of 64 and 6 for each fixed pattern and of 5 at `b`, the
        // pair, and the three lone entries.
        assert_eq!(polls, 2 * 2 + 1 + 1 + 3);
        let mut last = 0;
        for boundary in 0..=polls {
            let mut seen = 0;
            let run = chip.clone().run_trials(
                &entries,
                || {
                    seen += 1;
                    seen > boundary
                },
                false,
            );
            let n = run.outcomes.len();
            assert_eq!(run.outcomes.as_slice(), &want[..n], "stopped at boundary {boundary}");
            assert_eq!(run.cancelled, boundary < polls);
            assert!(
                n >= last && (boundary > 0 || n == 0),
                "boundary {boundary}: {n} after {last}"
            );
            last = n;
        }
        assert_eq!(last, entries.len());
    }

    #[test]
    fn single_trials_compile_on_second_sighting() {
        let mut chip = SimulatedChip::new(quick_cfg(), 22);
        let p = DataPattern::checkerboard();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);

        // First sighting: nothing cached yet, trial runs the scan.
        let _ = chip.retention_trial(p, interval, temp);
        let s = chip.plan_stats();
        assert_eq!((s.scalar_trials, s.lowered_trials, s.plan_trials), (1, 0, 0));

        // Second sighting of the exact condition: compiled, and served by
        // the kernel as a batch of one.
        let _ = chip.retention_trial(p, interval, temp);
        let s = chip.plan_stats();
        assert_eq!(s.plans_compiled, 1);
        assert_eq!((s.plan_trials, s.batch_rounds), (1, 1));

        // Third: plan-cache hit, no recompile.
        let _ = chip.retention_trial(p, interval, temp);
        let s = chip.plan_stats();
        assert_eq!(s.plan_trials, 2);
        assert_eq!(s.plans_compiled, 1);

        // A time advance keeps the plan: the next trial is a cache hit,
        // not a recompile, and nothing is invalidated.
        chip.advance(Ms::from_hours(1.0));
        let _ = chip.retention_trial(p, interval, temp);
        let s = chip.plan_stats();
        assert_eq!(s.plan_trials, 3);
        assert_eq!(s.plans_compiled, 1);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn plan_cache_holds_one_standard_set_cycle() {
        // 24 iterations of the standard set at one condition: 4 fixed
        // families × 2 polarities recur every iteration and `walking1`'s
        // 8 phases × 2 every 8th, so each of the 24 recurring conditions
        // compiles once; the random pair never recurs. Fixed plans serve
        // iterations 1–23 (8 × 23) and walking plans iterations 8–23
        // (2 × 16).
        let mut chip = SimulatedChip::new(quick_cfg(), 25);
        let (interval, temp) = (Ms::new(1024.0), Celsius::new(60.0));
        for it in 0..24 {
            for p in DataPattern::standard_set(it) {
                let _ = chip.retention_trial(p, interval, temp);
            }
        }
        let s = chip.plan_stats();
        assert_eq!(s.plans_compiled, 24, "no recurring plan may be evicted");
        assert_eq!(s.plan_trials, 8 * 23 + 2 * 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]
        #[test]
        fn lowered_trials_match_the_reference_as_windows_grow_and_shrink(
            steps in proptest::collection::vec((1u32..17, 0usize..4, 0usize..6, 0u32..3), 8..40),
            seed in 0u64..1_000_000,
        ) {
            // Intervals of 256 to 4096 ms in 256 ms steps move each
            // pattern's window up and down, and four temperatures around
            // 60 °C jitter it. Six recurring patterns get lowerings that
            // are built, extended and reused, and an exact repeat compiles
            // a plan from an extended lowering. Zero to two hours between
            // trials bring VRT arrivals.
            let random = DataPattern::random(7);
            let patterns = [
                DataPattern::checkerboard(),
                DataPattern::checkerboard().inverse(),
                DataPattern::row_stripe(),
                DataPattern::solid1(),
                random,
                random.inverse(),
            ];
            let temps = [59.9, 60.0, 60.07, 61.0];
            let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
            let mut chip = SimulatedChip::new(cfg, seed);
            let mut reference = chip.clone();
            for (k, t, p, hours) in steps {
                let interval = Ms::new(256.0 * f64::from(k));
                let (temp, pattern) = (Celsius::new(temps[t]), patterns[p]);
                chip.advance(Ms::from_hours(f64::from(hours)));
                reference.advance(Ms::from_hours(f64::from(hours)));
                let got = chip.retention_trial(pattern, interval, temp);
                let want = reference.retention_trial_reference(pattern, interval, temp);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(&chip.base_vrt, &reference.base_vrt);
            }
            proptest::prop_assert_eq!(chip.arrival_count(), reference.arrival_count());
        }
    }

    #[test]
    fn a_profiling_job_lowers_no_cell_past_its_largest_window() {
        // The trial sequence of one example profiling job, which the
        // harness drives from outside this crate: Vendor B at 1/16
        // capacity, 4 rounds of the standard set at the 1,274 ms reach
        // interval, each trial at a DRAM temperature jittered by up to
        // ±0.1 °C around 60 °C, and the interval plus a pass on the clock
        // between trials.
        let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16);
        let mut chip = SimulatedChip::new(cfg, 0x10B);
        let interval = Ms::new(1274.0);
        let mut jitter = stream(&[0x10B]);
        // Per pattern: the largest window ends over all its trials, and
        // over the trials from its second on, which a lowering serves.
        let mut largest: Vec<(DataPattern, [usize; 2], [usize; 2])> = Vec::new();
        for it in 0..4 {
            for p in DataPattern::standard_set(it) {
                let temp = Celsius::new(60.0 + (jitter.next_f64() - 0.5) * 0.2);
                let ends = chip.window(interval, temp).map(|r| r.end);
                match largest.iter_mut().find(|(q, ..)| *q == p) {
                    Some((_, all, lowered)) => {
                        for (k, end) in ends.into_iter().enumerate() {
                            all[k] = all[k].max(end);
                            lowered[k] = lowered[k].max(end);
                        }
                    }
                    None => largest.push((p, ends, [0, chip.vrt_start])),
                }
                let _ = chip.retention_trial(p, interval, temp);
                chip.advance(interval + Ms::new(100.0));
            }
        }
        let lowerings: Vec<&PatternLowering> = chip.plan_cache.lowerings().collect();
        assert_eq!(lowerings.len(), 8, "the eight fixed patterns recur every round");
        for low in lowerings {
            let (_, all, lowered) = largest
                .iter()
                .find(|(p, ..)| *p == low.pattern)
                .expect("a lowering's pattern ran trials");
            let covered = low.covered_ends();
            assert_eq!(covered, *lowered, "{:?}", low.pattern);
            assert!(covered[0] <= all[0] && covered[1] <= all[1], "{:?}", low.pattern);
            assert!(
                window_len(&[0..covered[0], chip.vrt_start..covered[1]]) * 4 < chip.cells().len(),
                "a job's windows reach a small part of the chip"
            );
        }
    }

    #[test]
    fn candidate_window_grows_with_interval_and_temp() {
        let chip = SimulatedChip::new(quick_cfg(), 24);
        let w_short = chip.candidate_window(Ms::new(512.0), Celsius::new(60.0));
        let w_long = chip.candidate_window(Ms::new(2048.0), Celsius::new(60.0));
        let w_hot = chip.candidate_window(Ms::new(512.0), Celsius::new(70.0));
        assert!(w_short <= w_long);
        assert!(w_short <= w_hot);
        assert!(w_long <= chip.cells().len());
    }

    /// The σ-cap window cut of today's rule, written out independently of
    /// [`sigma_cap_cut`].
    fn cap_cut(chip: &SimulatedChip, interval: Ms, temp: Celsius) -> f64 {
        let cfg = chip.config();
        (interval.as_secs() + Z_CUTOFF * SIGMA_CAP_SECS * cfg.sigma_temp_scale(temp))
            / cfg.mu_temp_scale(temp)
    }

    #[test]
    fn live_window_drops_only_cells_that_cannot_fail() {
        // Three vendors at 1/16 and full capacity, 64 ms to 8 s, below, at
        // and above the reference temperature (below it σ scales faster
        // than μ, the `ss > ms` term of the live cut).
        let (mut dropped, mut live_cells, mut cap_cells) = (0usize, 0usize, 0usize);
        let mut sigma_faster = false;
        for vendor in Vendor::ALL {
            for den in [16, 1] {
                let cfg = RetentionConfig::for_vendor(vendor).with_capacity_scale(1, den);
                let chip = SimulatedChip::new(cfg.clone(), 0x5EC7 + den);
                let cells = chip.cells();
                assert!(cells.iter().take(chip.vrt_start).all(|c| c.vrt_index.is_none()));
                assert!(cells.iter().skip(chip.vrt_start).all(|c| c.vrt_index.is_some()));
                let ref_temp = cfg.ref_temp.degrees();
                for interval_ms in [64.0, 256.0, 1024.0, 2048.0, 4096.0, 8192.0] {
                    for temp_c in [ref_temp - 10.0, ref_temp, ref_temp + 10.0] {
                        let (interval, temp) = (Ms::new(interval_ms), Celsius::new(temp_c));
                        let (t, ms, ss) =
                            (interval.as_secs(), cfg.mu_temp_scale(temp), cfg.sigma_temp_scale(temp));
                        sigma_faster |= ss > ms;
                        let window = chip.window(interval, temp);
                        let [plain, vrt] = window.clone();
                        assert_eq!((plain.start, vrt.start), (0, chip.vrt_start));

                        // Every non-VRT cell past the live cut passes with no
                        // draw at every stress level, under the scan's exact z.
                        for cell in &cells[plain.end..chip.vrt_start] {
                            for lvl in 0..=4u8 {
                                let z = cell.z_at(lvl, t, ms, ss, 1.0);
                                assert!(
                                    z < -Z_CUTOFF,
                                    "{vendor:?} 1/{den} {interval_ms} ms {temp_c} °C: cell {} \
                                     outside the window has z = {z} at stress {lvl}/4",
                                    cell.index
                                );
                            }
                        }
                        dropped += chip.vrt_start - plain.end;

                        // The VRT cells in the window are exactly the σ-cap set.
                        let cut = cap_cut(&chip, interval, temp);
                        let in_rule = |c: &&WeakCell| SimulatedChip::sort_key_of(&cfg, c) < cut;
                        let mut want: Vec<u64> = cells
                            .iter()
                            .filter(|c| c.vrt_index.is_some())
                            .filter(in_rule)
                            .map(|c| c.index)
                            .collect();
                        let mut got: Vec<u64> = cells[vrt].iter().map(|c| c.index).collect();
                        want.sort_unstable();
                        got.sort_unstable();
                        assert_eq!(got, want, "{vendor:?} 1/{den} {interval_ms} ms {temp_c} °C");

                        live_cells += window_len(&window);
                        cap_cells += cells.iter().filter(in_rule).count();
                    }
                }
            }
        }
        assert!(sigma_faster, "the grid must cover ss > ms");
        assert!(dropped > 0 && live_cells < cap_cells, "the live window must be tighter");
    }

    #[test]
    fn failing_set_keeps_the_sigma_cap_membership() {
        // Brute force over every cell with today's σ-cap rule, arrivals
        // included. At a tiny `min_prob` it admits non-VRT cells outside
        // the live window, which no trial visits.
        let mut chip = SimulatedChip::new(quick_cfg(), 17);
        chip.advance(Ms::from_hours(6.0));
        let _ = chip.retention_trial(DataPattern::random(3), Ms::new(2048.0), Celsius::new(60.0));
        assert!(chip.arrival_count() > 0);
        let cfg = chip.config().clone();
        let mut beyond_live = 0;
        for (interval_ms, temp_c) in [(1024.0, 60.0), (2048.0, 50.0), (3072.0, 70.0)] {
            let (interval, temp) = (Ms::new(interval_ms), Celsius::new(temp_c));
            let (t, ms, ss) = (interval.as_secs(), cfg.mu_temp_scale(temp), cfg.sigma_temp_scale(temp));
            let cut = cap_cut(&chip, interval, temp);
            let live_end = chip.window(interval, temp)[0].end;
            for min_prob in [1e-9, 0.01, 0.5] {
                let mut want: Vec<u64> = chip
                    .cells()
                    .iter()
                    .filter(|c| {
                        let low = if c.vrt_index.is_some() { cfg.vrt_low_mu_factor } else { 1.0 };
                        SimulatedChip::sort_key_of(&cfg, c) < cut
                            && c.worst_case_fail_probability(t, ms, ss, low) >= min_prob
                    })
                    .map(|c| c.index)
                    .chain(
                        chip.arrivals
                            .iter()
                            .filter(|a| a.is_active(chip.now_ms))
                            .filter(|a| a.cell().worst_case_fail_probability(t, ms, ss, 1.0) >= min_prob)
                            .map(|a| a.index),
                    )
                    .collect();
                want.sort_unstable();
                want.dedup();
                let got = chip.failing_set_worst_case(interval, temp, min_prob);
                assert_eq!(got, want, "{interval_ms} ms {temp_c} °C min_prob {min_prob}");
                beyond_live += chip.cells()[live_end..chip.vrt_start]
                    .iter()
                    .filter(|c| got.binary_search(&c.index).is_ok())
                    .count();
            }
        }
        assert!(beyond_live > 0, "expected members outside the live window");
    }

    #[test]
    fn pattern_polarity_matters() {
        // solid0 and solid1 each expose only one polarity of cells; together
        // with the full standard set, both halves appear.
        let mut chip = SimulatedChip::new(quick_cfg(), 16);
        let t45 = Celsius::new(60.0);
        let interval = Ms::new(3000.0);
        let s0: HashSet<u64> = (0..4)
            .flat_map(|_| {
                chip.retention_trial(DataPattern::solid0(), interval, t45)
                    .into_vec()
            })
            .collect();
        let s1: HashSet<u64> = (0..4)
            .flat_map(|_| {
                chip.retention_trial(DataPattern::solid1(), interval, t45)
                    .into_vec()
            })
            .collect();
        assert!(!s0.is_empty() && !s1.is_empty());
        let overlap = s0.intersection(&s1).count();
        // Polarity-disjoint by construction.
        assert_eq!(overlap, 0, "s0 {} s1 {} overlap {overlap}", s0.len(), s1.len());
    }
}
