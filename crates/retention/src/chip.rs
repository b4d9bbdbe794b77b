//! The simulated DRAM chip: weak-cell population synthesis and retention
//! trials.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reaper_analysis::dist::{Exponential, LogNormal, Poisson};
use reaper_exec::cancel::CancelToken;
use reaper_exec::num;
use reaper_exec::rng::stream;
use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms};

use crate::batch::MAX_BATCH_ROUNDS;
use crate::cell::WeakCell;
use crate::config::RetentionConfig;
use crate::plan::{PatternLowering, PlanCache, PlanKey, PlanStats, TrialCtx, TrialPlan};
use crate::vrt::{ArrivalCell, TwoStateVrt};

/// Hard clamp on per-cell σ (seconds) so candidate windowing stays tight.
/// Fig. 6b: the overwhelming majority of cells sit well under 200 ms.
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

/// Below this many candidate cells a trial runs sequentially; the window
/// is too small to amortize thread spawn cost.
pub(crate) const PAR_MIN_CELLS: usize = 512;

/// Upper bound (exclusive) of the candidate window in sort-key order:
/// cells whose best-case (lowest) effective μ can come within
/// `Z_CUTOFF`·σ_cap of the trial interval. The single definition shared by
/// the trial path, the ground-truth path, and plan compilation, so the
/// window math cannot drift between them.
pub(crate) fn candidate_window_end(
    sort_keys: &[f64],
    t_secs: f64,
    ms_scale: f64,
    ss_scale: f64,
) -> usize {
    let cut = (t_secs + Z_CUTOFF * SIGMA_CAP_SECS * ss_scale) / ms_scale;
    sort_keys.partition_point(|&k| k < cut)
}

/// Stable-sorts `keys` ascending and applies the same permutation to
/// `items`, in place. Byte-identical ordering to stable-sorting `(key,
/// item)` pairs by key — equal keys keep their original relative order —
/// without draining either buffer.
///
/// # Panics
/// Panics if any key comparison is unordered (NaN keys).
fn stable_cosort_by_key<T>(keys: &mut [f64], items: &mut [T]) {
    debug_assert_eq!(keys.len(), items.len());
    let mut order: Vec<u32> = (0..num::to_u32(keys.len())).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (keys.get(num::idx(a)), keys.get(num::idx(b)));
        ka.partial_cmp(&kb)
            .expect("invariant: sort keys are finite products of finite cell params")
    });
    // Apply the permutation by cycle-chasing: positions below `i` already
    // hold their final element, so following the chain through them finds
    // where the element destined for `i` currently lives.
    for i in 0..order.len() {
        let mut src = num::idx(
            *order
                .get(i)
                .expect("invariant: i < order.len() by loop bound"),
        );
        while src < i {
            src = num::idx(
                *order
                    .get(src)
                    .expect("invariant: permutation entries are in-bounds indices"),
            );
        }
        *order
            .get_mut(i)
            .expect("invariant: i < order.len() by loop bound") = num::to_u32(src);
        keys.swap(i, src);
        items.swap(i, src);
    }
}

/// The set of cells that failed one retention trial, as sorted dense linear
/// indices into the chip's geometry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrialOutcome {
    failures: Vec<u64>,
}

impl TrialOutcome {
    fn from_unsorted(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        v.dedup();
        Self { failures: v }
    }

    /// Wraps an already sorted, duplicate-free index vector (the batch
    /// kernel emits rounds in this form) without re-sorting.
    fn from_sorted(v: Vec<u64>) -> Self {
        debug_assert!(
            // lint: allow(panic) windows(2) always yields 2-element slices
            v.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly ascending indices"
        );
        Self { failures: v }
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
    /// Weak cells sorted ascending by `sort_key` = worst-case effective μ at
    /// the reference temperature.
    cells: Vec<WeakCell>,
    /// Sort keys parallel to `cells`.
    sort_keys: Vec<f64>,
    /// Two-state processes for base cells with `vrt_index`.
    base_vrt: Vec<TwoStateVrt>,
    /// VRT-arrived failing cells (paper §5.3 steady-state accumulation).
    arrivals: Vec<ArrivalCell>,
    /// Occupied cell indices (weak cells plus VRT arrivals). Membership
    /// checks only, but kept ordered so `Clone`d chips compare cleanly.
    used: BTreeSet<u64>,
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
}

/// How one single trial is served, resolved by `route_trial`: the window
/// scan (with the cached lowering at this position, if any) or the
/// kernel on the cached plan at this position.
enum TrialRoute {
    Scan(Option<usize>),
    Plan(usize),
}

impl SimulatedChip {
    /// Synthesizes a chip from `cfg`, deterministically in `seed`.
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
        let mut used = BTreeSet::new();
        let mut cells = Vec::with_capacity(n_cells);
        let mut base_vrt = Vec::new();

        let u_min = (MU_MIN_SECS / cfg.mu_max_secs).powf(cfg.ber_exponent);
        for _ in 0..n_cells {
            let index = loop {
                let idx = rng.random_range(0..density);
                if used.insert(idx) {
                    break idx;
                }
            };
            // Inverse-CDF sample of the t^β tail on [MU_MIN, mu_max].
            let u: f64 = u_min + rng.random::<f64>() * (1.0 - u_min);
            let mu0 = cfg.mu_max_secs * u.powf(1.0 / cfg.ber_exponent);
            let sigma0 = sigma_dist.sample(&mut rng).min(SIGMA_CAP_SECS);
            let vrt_index = if rng.random::<f64>() < cfg.vrt_fraction {
                let cycle_ms = cfg.vrt_dwell_hours * 3.6e6;
                base_vrt.push(TwoStateVrt::new(
                    (cycle_ms * cfg.vrt_low_duty).max(1.0),
                    (cycle_ms * (1.0 - cfg.vrt_low_duty)).max(1.0),
                    0.0,
                ));
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

        let mut chip = Self {
            sort_keys: Vec::new(),
            cells,
            base_vrt,
            arrivals: Vec::new(),
            used,
            now_ms: 0.0,
            last_arrival_ms: 0.0,
            rng,
            stream_base: seed,
            trial_nonce: 0,
            plan_cache: PlanCache::default(),
            cfg,
        };
        chip.rebuild_sort();
        chip
    }

    fn sort_key_of(cfg: &RetentionConfig, cell: &WeakCell) -> f64 {
        let vrt_factor = if cell.vrt_index.is_some() {
            cfg.vrt_low_mu_factor
        } else {
            1.0
        };
        cell.mu0 as f64 * (1.0 - cell.dpd_strength as f64) * vrt_factor
    }

    fn rebuild_sort(&mut self) {
        // Reuse both existing buffers: refill the key vector in place and
        // co-sort it with the cell vector through one stable index
        // permutation, instead of draining into a transient pair vector
        // and re-collecting two fresh allocations.
        let cfg = &self.cfg;
        self.sort_keys.clear();
        self.sort_keys
            .extend(self.cells.iter().map(|c| Self::sort_key_of(cfg, c)));
        stable_cosort_by_key(&mut self.sort_keys, &mut self.cells);
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

    /// The sort-key vector parallel to [`SimulatedChip::cells`]; exposed
    /// for in-crate tests that compile plans directly.
    #[cfg(test)]
    pub(crate) fn sort_keys_for_tests(&self) -> &[f64] {
        &self.sort_keys
    }

    /// The VRT chain vector; exposed for in-crate tests that run plans
    /// directly.
    #[cfg(test)]
    pub(crate) fn base_vrt_for_tests(&self) -> &[TwoStateVrt] {
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
    /// through the bit-plane kernel as a batch of one. All routes are
    /// bit-identical to [`SimulatedChip::retention_trial_reference`].
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
    ) -> TrialOutcome {
        self.single_trial(pattern, interval, temp, true)
    }

    /// [`SimulatedChip::retention_trial`] through the window scan without
    /// a lowering, always: the reference every other trial path is checked
    /// against. It consumes the same nonce and draws as the production
    /// trial, so the two can be interleaved on one chip, and it leaves the
    /// lowering and plan caches (sightings included) untouched.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn retention_trial_reference(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
    ) -> TrialOutcome {
        self.single_trial(pattern, interval, temp, false)
    }

    /// The body of both single-trial entry points; `use_caches == false`
    /// forces the reference route.
    fn single_trial(
        &mut self,
        pattern: DataPattern,
        interval: Ms,
        temp: Celsius,
        use_caches: bool,
    ) -> TrialOutcome {
        assert!(interval.is_positive(), "retention interval must be positive");
        self.process_arrivals(interval.as_secs(), temp);
        let ctx = self.trial_ctx(interval, temp, self.trial_nonce);
        self.trial_nonce += 1;

        let route = if use_caches {
            self.route_trial(pattern, interval, temp)
        } else {
            self.plan_cache.stats.scalar_trials += 1;
            TrialRoute::Scan(None)
        };
        let (mut failures, vrt_updates) = match route {
            TrialRoute::Plan(i) => {
                let mut batch = self
                    .plan_cache
                    .plan_at(i)
                    .run_rounds(&self.base_vrt, &ctx, &[ctx.nonce]);
                let failures = batch
                    .rounds
                    .pop()
                    .expect("invariant: one nonce in yields one round out");
                (failures, batch.vrt_updates)
            }
            TrialRoute::Scan(lowering) => {
                let end =
                    candidate_window_end(&self.sort_keys, ctx.t_secs, ctx.ms_scale, ctx.ss_scale);
                let lowering = lowering.map(|i| self.plan_cache.lowering_at(i));
                self.scalar_window_scan(pattern, end, &ctx, lowering)
            }
        };
        self.merge_vrt(vrt_updates);
        self.arrival_round(ctx.t_secs, ctx.ms_scale, ctx.ss_scale, &mut failures);
        TrialOutcome::from_unsorted(failures)
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
    /// low state. The list is small and its draws live on the sequential
    /// RNG, so the batched entry points call this once per round *in nonce
    /// order* — the exact draw sequence a round-major trial loop makes.
    fn arrival_round(&mut self, t_secs: f64, ms_scale: f64, ss_scale: f64, failures: &mut Vec<u64>) {
        let now_ms = self.now_ms;
        let rng = &mut self.rng;
        for a in &mut self.arrivals {
            if !a.is_active(now_ms) {
                continue;
            }
            if a.fresh {
                a.fresh = false;
                a.vrt.force_state(true, now_ms);
                failures.push(a.cell.index);
                continue;
            }
            if a.vrt.observe(now_ms, rng) {
                let mu = a.cell.effective_mu(ms_scale, 1.0, 1.0);
                let sigma = a.cell.sigma0 as f64 * ss_scale;
                let z = (t_secs - mu) / sigma;
                if z > Z_CUTOFF
                    || (z > -Z_CUTOFF && rng.random::<f64>() < reaper_analysis::special::phi(z))
                {
                    failures.push(a.cell.index);
                }
            }
        }
    }

    /// The window scan over the candidate window `[0, end)`: polarity,
    /// stress, μ, σ, z and `phi(z)` per cell per trial. It serves single
    /// trials whose condition has no plan yet, and without a lowering it
    /// is the reference the kernel is verified against. A `lowering`
    /// (built for `pattern`) supplies the polarity-active cells and their
    /// stress levels, so the scan skips the rest; inactive cells never
    /// open a hash lane either way, so the lowering changes no stream.
    ///
    /// Every cell draws from its own (seed, trial, cell) hash lane, so
    /// the outcome is a pure function of that tuple — independent of
    /// evaluation order and therefore of thread count. VRT cells are
    /// observed on a *copy* of their chain state; the advanced states
    /// are merged back sequentially after the parallel region (each
    /// vrt_index belongs to exactly one cell, so merges never conflict).
    fn scalar_window_scan(
        &self,
        pattern: DataPattern,
        end: usize,
        ctx: &TrialCtx,
        lowering: Option<&PatternLowering>,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        let geometry = self.cfg.geometry;
        let cells = &self.cells;
        match lowering {
            Some(low) => self.scan_lanes(ctx, low.active_prefix(end), |j| {
                let (ord, lvl) = low.lane(j);
                let cell = cells
                    .get(ord)
                    .expect("invariant: lowering ordinals index the cell array it was built from");
                Some((cell, f64::from(lvl) / 4.0))
            }),
            None => {
                // lint: allow(panic) end comes from partition_point, always <= len
                let window = &cells[..end];
                self.scan_lanes(ctx, window.len(), |j| {
                    let cell = window.get(j).expect("invariant: j < window.len()");
                    (cell.stored_bit(pattern, geometry) == cell.vulnerable_bit)
                        .then(|| (cell, cell.stress_under(pattern, geometry)))
                })
            }
        }
    }

    /// The scan body over lanes `0..n`: `cell_at(j)` yields the j-th cell
    /// and its DPD stress fraction, or `None` for a polarity-inactive cell.
    /// Generic so each lane source compiles to its own branch-free loop.
    fn scan_lanes<'c>(
        &self,
        ctx: &TrialCtx,
        n: usize,
        cell_at: impl Fn(usize) -> Option<(&'c WeakCell, f64)> + Sync,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        let base_vrt = &self.base_vrt;
        let per_cell = |j: usize| -> (Option<u64>, Option<(u32, TwoStateVrt)>) {
            let Some((cell, stress)) = cell_at(j) else {
                return (None, None);
            };
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
            let mu = cell.effective_mu(ctx.ms_scale, stress, vrt_factor);
            let sigma = cell.sigma0 as f64 * ctx.ss_scale;
            let z = (ctx.t_secs - mu) / sigma;
            if z < -Z_CUTOFF {
                return (None, vrt_update);
            }
            let fails = z > Z_CUTOFF || lane.next_f64() < reaper_analysis::special::phi(z);
            (fails.then_some(cell.index), vrt_update)
        };

        let mut failures = Vec::new();
        let mut vrt_updates: Vec<(u32, TwoStateVrt)> = Vec::new();
        if n < PAR_MIN_CELLS || reaper_exec::thread_count() <= 1 {
            for j in 0..n {
                let (fail, update) = per_cell(j);
                failures.extend(fail);
                vrt_updates.extend(update);
            }
        } else {
            let chunks = reaper_exec::par_index_map(n, 256, |range| {
                let mut fails = Vec::new();
                let mut updates = Vec::new();
                for j in range {
                    let (fail, update) = per_cell(j);
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

    /// One reference-scan round at `ctx` (no lowering) with its VRT
    /// updates merged into the chip, for in-crate tests that check the
    /// kernel against the scan directly. Returns the sorted failures and
    /// the updates.
    #[cfg(test)]
    pub(crate) fn reference_round_for_tests(
        &mut self,
        pattern: DataPattern,
        end: usize,
        ctx: &TrialCtx,
    ) -> (Vec<u64>, Vec<(u32, TwoStateVrt)>) {
        let (failures, updates) = self.scalar_window_scan(pattern, end, ctx, None);
        self.merge_vrt(updates.clone());
        (TrialOutcome::from_unsorted(failures).into_vec(), updates)
    }

    /// Resolves how a single trial is served: a cached plan, a plan
    /// compiled on this second sighting of the condition, or the window
    /// scan — fed by a lowering when the pattern has one cached or is
    /// itself seen for the second time.
    fn route_trial(&mut self, pattern: DataPattern, interval: Ms, temp: Celsius) -> TrialRoute {
        let key = PlanKey::new(pattern, interval, temp);
        if let Some(i) = self.plan_cache.find_plan(&key) {
            self.count_plan_trials(1);
            return TrialRoute::Plan(i);
        }
        if self.plan_cache.note_plan_key(key) {
            let i = self.compile_plan(pattern, interval, temp);
            self.count_plan_trials(1);
            return TrialRoute::Plan(i);
        }

        // Pattern-only lanes survive the harness's per-trial temperature
        // jitter, which keeps most conditions from ever recurring.
        if let Some(i) = self.plan_cache.find_lowering(pattern) {
            self.plan_cache.stats.lowered_trials += 1;
            return TrialRoute::Scan(Some(i));
        }
        if self.plan_cache.note_pattern(pattern) {
            let lowering = PatternLowering::build(&self.cells, pattern, self.cfg.geometry);
            let i = self.plan_cache.insert_lowering(lowering);
            self.plan_cache.stats.lowerings_built += 1;
            self.plan_cache.stats.lowered_trials += 1;
            return TrialRoute::Scan(Some(i));
        }

        self.plan_cache.stats.scalar_trials += 1;
        TrialRoute::Scan(None)
    }

    /// Counts `k` trials served by the kernel on a compiled plan.
    fn count_plan_trials(&mut self, k: u64) {
        self.plan_cache.stats.plan_trials += k;
        self.plan_cache.stats.batch_rounds += k;
    }

    /// Compiles the plan for a condition and caches it, returning its
    /// cache position.
    fn compile_plan(&mut self, pattern: DataPattern, interval: Ms, temp: Celsius) -> usize {
        let plan = TrialPlan::compile(
            &self.cfg,
            &self.cells,
            &self.sort_keys,
            self.plan_cache.peek_lowering(pattern),
            pattern,
            interval,
            temp,
        );
        self.plan_cache.stats.plans_compiled += 1;
        self.plan_cache.insert_plan(plan)
    }

    /// Runs `rounds` retention trials at one fixed condition, returning
    /// one outcome per round in nonce order: a one-group
    /// [`SimulatedChip::retention_trial_schedule`], so the same nonces,
    /// the same kernel batches of up to [`MAX_BATCH_ROUNDS`] and the same
    /// arrival replay. Bit-identical to calling
    /// [`SimulatedChip::retention_trial`] `rounds` times; `rounds == 0`
    /// runs nothing.
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
        let run = self.retention_trial_schedule(&schedule, &CancelToken::new());
        debug_assert!(!run.cancelled, "a fresh token cannot be cancelled");
        run.outcomes
    }

    /// Runs a heterogeneous trial schedule through the batch kernel: one
    /// trial per `(pattern, interval, temp)` entry, outcomes in schedule
    /// order, bit-identical to a [`SimulatedChip::retention_trial`] loop
    /// over the same entries. Every condition gets a compiled plan, found
    /// or compiled on the spot.
    ///
    /// Entries are grouped by exact condition (first-seen order) and each
    /// group's trials run as batches of up to [`MAX_BATCH_ROUNDS`], keyed
    /// by their original schedule-position nonces. The regrouping is
    /// outcome-safe: per-(cell, nonce) hash lanes are order-independent; a
    /// VRT chain's state can only transition on its *first* observation at
    /// the current wall clock, and that observation carries the cell's
    /// globally minimal activating nonce in both orders (any group
    /// processed earlier that activated the cell would contain a smaller
    /// one); and arrival-cell draws are replayed on the sequential RNG in
    /// schedule order after all groups.
    ///
    /// `cancel` is polled at every kernel-batch boundary; cancellation
    /// never lands mid-batch. The returned outcomes are the longest
    /// *schedule prefix* whose entries all completed, bit-identical to the
    /// same prefix of the uncancelled run: per-(cell, nonce) kernel lanes
    /// are position-independent, and arrival draws are replayed on the
    /// sequential RNG in schedule order over exactly that prefix — the same
    /// draws, in the same order, that the uncancelled run would have made
    /// for it. Completed work from groups *past* the prefix is discarded.
    /// [`PartialTrials::cancelled`] reports whether the run stopped early.
    ///
    /// A cancelled run has still reserved a nonce for every entry and may
    /// have skipped VRT updates the abandoned batches would have applied,
    /// so the chip is *not* suitable for continuing a bit-identical
    /// sequence — racing callers discard a cancelled lane's chip along
    /// with its result, which is the intended use.
    ///
    /// # Panics
    /// Panics if any interval is not positive.
    pub fn retention_trial_schedule(
        &mut self,
        schedule: &[(DataPattern, Ms, Celsius)],
        cancel: &CancelToken,
    ) -> PartialTrials {
        let Some(&(_, first_interval, first_temp)) = schedule.first() else {
            return PartialTrials {
                outcomes: Vec::new(),
                cancelled: false,
            };
        };
        for (_, interval, _) in schedule {
            assert!(interval.is_positive(), "retention interval must be positive");
        }
        // The first condition drives the arrival draw, exactly as in a
        // sequential loop (later same-clock calls are retain-only no-ops).
        self.process_arrivals(first_interval.as_secs(), first_temp);

        let first_nonce = self.trial_nonce;
        self.trial_nonce += num::to_u64(schedule.len());

        // Group schedule positions by exact condition, first-seen order.
        struct Group {
            key: PlanKey,
            pattern: DataPattern,
            interval: Ms,
            temp: Celsius,
            positions: Vec<usize>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (pos, &(pattern, interval, temp)) in schedule.iter().enumerate() {
            let key = PlanKey::new(pattern, interval, temp);
            match groups.iter_mut().find(|g| g.key == key) {
                Some(g) => g.positions.push(pos),
                None => groups.push(Group {
                    key,
                    pattern,
                    interval,
                    temp,
                    positions: vec![pos],
                }),
            }
        }

        let mut failures_by_pos: Vec<Option<Vec<u64>>> = vec![None; schedule.len()];
        let mut cancelled = false;
        'groups: for g in &groups {
            // Per-round nonces come from the batch.
            let ctx = self.trial_ctx(g.interval, g.temp, 0);
            // Asking for a batch at a condition *is* the recurrence
            // signal single trials wait for, so compile unconditionally
            // (and record the sighting for later single trials).
            self.plan_cache.note_plan_key(g.key);
            let plan = match self.plan_cache.find_plan(&g.key) {
                Some(i) => i,
                None => self.compile_plan(g.pattern, g.interval, g.temp),
            };
            for chunk in g.positions.chunks(MAX_BATCH_ROUNDS) {
                if cancel.is_cancelled() {
                    cancelled = true;
                    break 'groups;
                }
                let nonces: Vec<u64> = chunk
                    .iter()
                    .map(|&pos| first_nonce + num::to_u64(pos))
                    .collect();
                let batch = self
                    .plan_cache
                    .plan_at(plan)
                    .run_rounds(&self.base_vrt, &ctx, &nonces);
                self.count_plan_trials(num::to_u64(chunk.len()));
                self.merge_vrt(batch.vrt_updates);
                for (&pos, fails) in chunk.iter().zip(batch.rounds) {
                    *failures_by_pos
                        .get_mut(pos)
                        .expect("invariant: positions enumerate the schedule") = Some(fails);
                }
            }
        }

        // The completed prefix: everything before the first unserved
        // position. Filled positions *past* that boundary came from groups
        // that finished before the cancel landed; the uncancelled run
        // would interleave their arrival draws with the missing entries',
        // so they cannot be returned bit-identically and are discarded.
        let completed = failures_by_pos
            .iter()
            .position(Option::is_none)
            .unwrap_or(schedule.len());

        // Replay arrivals on the sequential RNG in schedule order, over
        // exactly the completed prefix. Kernel rounds arrive sorted;
        // re-sort only when an arrival cell actually appended.
        let mut outcomes = Vec::with_capacity(completed);
        for (slot, &(_, interval, temp)) in failures_by_pos.iter_mut().zip(schedule).take(completed) {
            let mut failures = slot
                .take()
                .expect("invariant: positions before the prefix boundary are filled");
            let kernel_len = failures.len();
            self.arrival_round(
                interval.as_secs(),
                self.cfg.mu_temp_scale(temp),
                self.cfg.sigma_temp_scale(temp),
                &mut failures,
            );
            outcomes.push(if failures.len() == kernel_len {
                TrialOutcome::from_sorted(failures)
            } else {
                TrialOutcome::from_unsorted(failures)
            });
        }
        PartialTrials {
            outcomes,
            cancelled,
        }
    }

    /// Routing/compilation counters since chip construction.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_cache.stats
    }

    /// Builds pattern lowerings for `patterns` up front (idempotent). Call
    /// before a profiling loop whose patterns are known so the first
    /// iteration already runs on packed lanes; recurring patterns would
    /// otherwise only be promoted on their second sighting.
    pub fn prewarm_lowerings(&mut self, patterns: &[DataPattern]) {
        for &pattern in patterns {
            if self.plan_cache.find_lowering(pattern).is_none() {
                let lowering = PatternLowering::build(&self.cells, pattern, self.cfg.geometry);
                self.plan_cache.insert_lowering(lowering);
                self.plan_cache.stats.lowerings_built += 1;
            }
        }
    }

    /// Number of candidate cells a trial at `(interval, temp)` scans —
    /// the size of the sort-key window the scan and plan compile share.
    ///
    /// # Panics
    /// Panics if `interval` is not positive.
    pub fn candidate_window(&self, interval: Ms, temp: Celsius) -> usize {
        assert!(interval.is_positive(), "interval must be positive");
        let t = interval.as_secs();
        candidate_window_end(
            &self.sort_keys,
            t,
            self.cfg.mu_temp_scale(temp),
            self.cfg.sigma_temp_scale(temp),
        )
    }

    /// Draws Poisson VRT arrivals for the wall-clock span since the last
    /// check and retires expired ones.
    fn process_arrivals(&mut self, t_secs: f64, temp: Celsius) {
        let elapsed_hours = (self.now_ms - self.last_arrival_ms) / 3.6e6;
        self.last_arrival_ms = self.now_ms;
        if elapsed_hours <= 0.0 {
            self.arrivals.retain(|a| a.is_active(self.now_ms));
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

        for _ in 0..n {
            let index = loop {
                let idx = self.rng.random_range(0..density);
                if self.used.insert(idx) {
                    break idx;
                }
            };
            // The arrival's low-state μ lies comfortably inside the failing
            // range of the interval that exposed it (at trial temperature).
            let frac = 0.55 + 0.35 * self.rng.random::<f64>();
            let mu0 = (t_secs * frac) / ms_scale;
            let cycle_ms = self.cfg.vrt_dwell_hours * 3.6e6;
            self.arrivals.push(ArrivalCell {
                cell: WeakCell {
                    index,
                    mu0: num::f32_narrow(mu0),
                    sigma0: num::f32_narrow(sigma_dist.sample(&mut self.rng).min(SIGMA_CAP_SECS)),
                    vulnerable_bit: self.rng.random(),
                    dpd_strength: 0.0,
                    dpd_signature: 0,
                    vrt_index: None,
                },
                expires_at_ms: self.now_ms + lifetime.sample(&mut self.rng),
                arrived_at_ms: self.now_ms,
                vrt: TwoStateVrt::new(
                    (cycle_ms * self.cfg.vrt_low_duty).max(1.0),
                    (cycle_ms * (1.0 - self.cfg.vrt_low_duty)).max(1.0),
                    self.now_ms,
                ),
                fresh: true,
            });
        }
        self.arrivals.retain(|a| a.is_active(self.now_ms));
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
        let end = candidate_window_end(&self.sort_keys, t, ms_scale, ss_scale);

        // lint: allow(panic) end comes from partition_point, always <= len
        let mut out: Vec<u64> = self.cells[..end]
            .iter()
            .filter(|c| {
                let vrt_factor = if c.vrt_index.is_some() {
                    self.cfg.vrt_low_mu_factor
                } else {
                    1.0
                };
                c.worst_case_fail_probability(t, ms_scale, ss_scale, vrt_factor) >= min_prob
            })
            .map(|c| c.index)
            .collect();

        for a in &self.arrivals {
            if a.is_active(self.now_ms)
                && a.cell.worst_case_fail_probability(t, ms_scale, ss_scale, 1.0) >= min_prob
            {
                out.push(a.cell.index);
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
    fn stable_cosort_matches_pair_sort_reference() {
        // Duplicate keys included: stability must keep original order.
        let ref_keys = [3.0, 1.0, 2.0, 1.0, 3.0, 0.5, 2.0, 1.0];
        let ref_items: Vec<u64> = (0..ref_keys.len() as u64).collect();

        let mut paired: Vec<(f64, u64)> = ref_keys
            .iter()
            .copied()
            .zip(ref_items.iter().copied())
            .collect();
        paired.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

        let mut keys = ref_keys.to_vec();
        let mut items = ref_items;
        stable_cosort_by_key(&mut keys, &mut items);

        let (want_keys, want_items): (Vec<f64>, Vec<u64>) = paired.into_iter().unzip();
        assert_eq!(keys, want_keys);
        assert_eq!(items, want_items);

        // Degenerate sizes.
        let mut k: Vec<f64> = vec![];
        let mut v: Vec<u64> = vec![];
        stable_cosort_by_key(&mut k, &mut v);
        let mut k = vec![7.0];
        let mut v = vec![9u64];
        stable_cosort_by_key(&mut k, &mut v);
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
    fn prewarmed_lowering_serves_first_trial() {
        let mut chip = SimulatedChip::new(quick_cfg(), 23);
        let p = DataPattern::col_stripe();
        chip.prewarm_lowerings(&[p, p]);
        let s = chip.plan_stats();
        assert_eq!(s.lowerings_built, 1, "prewarm is idempotent");

        // Jittered temperature (fresh condition every trial, as under the
        // test harness): the plan tier never promotes, the lowering serves.
        for (i, temp) in [60.0, 60.01, 59.99].iter().enumerate() {
            let _ = chip.retention_trial(p, Ms::new(1024.0), Celsius::new(*temp));
            assert_eq!(chip.plan_stats().lowered_trials, i as u64 + 1);
        }
        assert_eq!(chip.plan_stats().scalar_trials, 0);
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
