//! The profilers: brute-force (Algorithm 1) and reach profiling.
//!
//! Both share one engine — reach profiling *is* Algorithm 1 executed at
//! reach conditions — which is exactly the paper's framing: brute-force
//! profiling is the degenerate reach point `(+0 ms, +0 °C)`.

use reaper_dram_model::{Celsius, DataPattern, Ms};
use reaper_exec::cancel::CancelToken;
use reaper_exec::num;
use reaper_retention::SimulatedChip;
use reaper_softmc::TestHarness;

use crate::conditions::{ReachConditions, TargetConditions};
use crate::profile::{merge_sorted_union, FailureProfile};

/// Which data patterns each profiling iteration writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternSet {
    /// The paper's standard set: six families and their inverses, with the
    /// random member reseeded every iteration (§3.2).
    Standard,
    /// Only the random pattern and its inverse, reseeded every iteration
    /// (the strongest single family per Fig. 5 / Observation 3).
    RandomOnly,
    /// A fixed explicit list (used by the Fig. 5 per-pattern study and by
    /// ablations).
    Fixed(Vec<DataPattern>),
}

impl PatternSet {
    /// The patterns to write on iteration `iteration`.
    pub fn for_iteration(&self, iteration: u64) -> Vec<DataPattern> {
        match self {
            PatternSet::Standard => DataPattern::standard_set(iteration),
            PatternSet::RandomOnly => {
                let p = DataPattern::random(0xAB50 ^ iteration);
                vec![p, p.inverse()]
            }
            PatternSet::Fixed(v) => v.clone(),
        }
    }

    /// Number of patterns written per iteration.
    pub fn patterns_per_iteration(&self) -> usize {
        match self {
            PatternSet::Standard => 12,
            PatternSet::RandomOnly => 2,
            PatternSet::Fixed(v) => v.len(),
        }
    }
}

/// Statistics for one profiling iteration (one pass over all patterns) —
/// the per-iteration series plotted in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationStats {
    /// Cells discovered this iteration that were never seen before.
    pub new_unique: usize,
    /// Cells discovered this iteration that were already in the profile.
    pub repeats: usize,
    /// Cumulative profile size after this iteration.
    pub cumulative: usize,
}

impl IterationStats {
    /// Total cells observed failing this iteration.
    pub fn found(&self) -> usize {
        self.new_unique + self.repeats
    }
}

/// The result of a profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingRun {
    /// Union of all observed failures.
    pub profile: FailureProfile,
    /// Simulated wall-clock time the run consumed (the paper's *runtime*
    /// metric).
    pub runtime: Ms,
    /// Per-iteration discovery statistics.
    pub iterations: Vec<IterationStats>,
    /// The absolute conditions profiling ran at.
    pub profiling_interval: Ms,
    /// The ambient temperature profiling ran at.
    pub profiling_ambient: Celsius,
}

impl ProfilingRun {
    /// Iterations executed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }
}

/// Incremental coverage / false-positive accounting against a fixed
/// ground truth — the bookkeeping [`Profiler::run_to_coverage`] and the
/// portfolio race lanes share. Feed it every *newly inserted* profile
/// cell via [`CoverageTracker::note_new`]; it maintains the covered
/// count, coverage ratio, and false-positive rate without rescanning the
/// profile.
#[derive(Debug, Clone)]
pub struct CoverageTracker<'a> {
    truth: &'a FailureProfile,
    covered: usize,
    inserted: usize,
}

impl<'a> CoverageTracker<'a> {
    /// Tracks coverage of `truth`. An empty truth (a chip too small, or an
    /// interval too short, to have a failing cell) counts as fully
    /// covered, as in [`crate::ProfileMetrics::evaluate`], so its goal
    /// count is 0.
    pub fn new(truth: &'a FailureProfile) -> Self {
        Self {
            truth,
            covered: 0,
            inserted: 0,
        }
    }

    /// The absolute covered-cell count equivalent to a fractional
    /// `coverage_goal` of the truth set (ceiling, so the goal is never
    /// met early by rounding).
    ///
    /// # Panics
    /// Panics if `coverage_goal` is outside `(0, 1]`.
    pub fn goal_count(&self, coverage_goal: f64) -> usize {
        assert!(
            coverage_goal > 0.0 && coverage_goal <= 1.0,
            "coverage goal must be in (0, 1]"
        );
        // lint: allow(lossy-cast) ceil of coverage_goal * len is a small non-negative count
        (coverage_goal * self.truth.len() as f64).ceil() as usize
    }

    /// Records one cell newly inserted into the profile. Callers must only
    /// report first insertions — repeats would double-count.
    pub fn note_new(&mut self, cell: u64) {
        self.inserted += 1;
        if self.truth.contains(cell) {
            self.covered += 1;
        }
    }

    /// Ground-truth cells found so far.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Fraction of the truth set found so far; 1 for an empty truth.
    pub fn coverage(&self) -> f64 {
        if self.truth.is_empty() {
            return 1.0;
        }
        self.covered as f64 / self.truth.len() as f64
    }

    /// Fraction of the profile that is *not* in the truth set (the paper's
    /// false-positive rate); 0 while the profile is empty.
    pub fn fpr(&self) -> f64 {
        if self.inserted == 0 {
            return 0.0;
        }
        (self.inserted - self.covered) as f64 / self.inserted as f64
    }
}

/// A configured profiler: Algorithm 1 at explicit absolute conditions.
///
/// Construct via [`Profiler::brute_force`] (profile at the target
/// conditions) or [`Profiler::reach`] (profile at target + reach offsets).
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    interval: Ms,
    ambient: Celsius,
    iterations: u32,
    patterns: PatternSet,
    restore_ambient: Option<Celsius>,
}

impl Profiler {
    /// Brute-force profiling (Algorithm 1): profile *at* the target
    /// conditions for `iterations` iterations.
    ///
    /// # Panics
    /// Panics if `iterations == 0`.
    pub fn brute_force(target: TargetConditions, iterations: u32, patterns: PatternSet) -> Self {
        Self::reach(target, ReachConditions::brute_force(), iterations, patterns)
    }

    /// Reach profiling: profile at `target + reach`.
    ///
    /// If the reach offset includes a temperature delta, the run will move
    /// the chamber there and restore the target ambient afterwards, charging
    /// both settling times (an honest account of what a thermal reach costs
    /// on real hardware).
    ///
    /// # Panics
    /// Panics if `iterations == 0`.
    pub fn reach(
        target: TargetConditions,
        reach: ReachConditions,
        iterations: u32,
        patterns: PatternSet,
    ) -> Self {
        assert!(iterations > 0, "at least one profiling iteration required");
        let (interval, ambient) = reach.apply_to(target);
        Self {
            interval,
            ambient,
            iterations,
            patterns,
            restore_ambient: if reach.delta_temp > 0.0 {
                Some(target.ambient)
            } else {
                None
            },
        }
    }

    /// The absolute profiling interval.
    pub fn interval(&self) -> Ms {
        self.interval
    }

    /// The absolute profiling ambient temperature.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Configured iteration count.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Executes the full profiling run on `harness`.
    ///
    /// This is the paper's Algorithm 1: for each iteration, for each data
    /// pattern, write the pattern, disable refresh for the profiling
    /// interval, re-enable refresh, and accumulate the observed failures.
    pub fn run(&self, harness: &mut TestHarness) -> ProfilingRun {
        let start = harness.elapsed();
        if harness.ambient_setpoint() != self.ambient {
            harness.set_ambient(self.ambient);
        }
        // The union accumulates as a sorted vector, merged per trial; the
        // profile is built from it once, at the end.
        let mut seen = Vec::new();
        let mut iterations = Vec::with_capacity(num::idx(self.iterations));
        for it in 0..self.iterations {
            let mut stats = IterationStats::default();
            for pattern in self.patterns.for_iteration(u64::from(it)) {
                let mut failures = harness.pattern_trial(pattern, self.interval).into_vec();
                let found = failures.len();
                let new_unique = merge_sorted_union(&mut seen, &mut failures);
                stats.new_unique += new_unique;
                stats.repeats += found - new_unique;
            }
            stats.cumulative = seen.len();
            iterations.push(stats);
        }
        let profile = FailureProfile::from_cells(seen);

        if let Some(restore) = self.restore_ambient {
            harness.set_ambient(restore);
        }

        ProfilingRun {
            profile,
            runtime: harness.elapsed() - start,
            iterations,
            profiling_interval: self.interval,
            profiling_ambient: self.ambient,
        }
    }

    /// Harness-free union profiling at one fixed condition, served by the
    /// chip's bit-plane batch kernel: `iterations` passes over `patterns`
    /// at exactly (`interval`, `dram_temp`), submitted as one trial
    /// schedule so each recurring condition runs up to
    /// [`reaper_retention::MAX_BATCH_ROUNDS`] rounds per kernel pass.
    /// Returns the union of all observed failures.
    ///
    /// Unlike [`Profiler::run`] this charges no simulated time and applies
    /// no thermal-chamber jitter — it is the fast path for callers that
    /// want the failure *union* at a known DRAM temperature (ground-truth
    /// construction, benchmarks), not Algorithm 1's runtime accounting.
    /// Per-trial draws are the chip's usual nonce-keyed lanes, so repeated
    /// identical trials still see fresh randomness.
    pub fn direct_union(
        chip: &mut SimulatedChip,
        interval: Ms,
        dram_temp: Celsius,
        iterations: u32,
        patterns: &PatternSet,
    ) -> FailureProfile {
        let mut schedule = Vec::new();
        for it in 0..iterations {
            for pattern in patterns.for_iteration(u64::from(it)) {
                schedule.push((pattern, interval, dram_temp));
            }
        }
        let mut seen = Vec::new();
        for outcome in chip.retention_trial_schedule(&schedule, &CancelToken::new()).outcomes {
            merge_sorted_union(&mut seen, &mut outcome.into_vec());
        }
        FailureProfile::from_cells(seen)
    }

    /// Runs until the profile covers at least `coverage_goal` of
    /// `ground_truth`, up to `max_iterations` iterations, checking after
    /// **every pattern pass** so runtime is measured at pattern granularity
    /// (the Fig. 10 "iterations required to achieve over 90 % coverage"
    /// analysis, without whole-iteration quantization).
    ///
    /// # Panics
    /// Panics if `ground_truth` is empty, `coverage_goal` is outside (0, 1],
    /// or `max_iterations == 0`.
    pub fn run_to_coverage(
        &self,
        harness: &mut TestHarness,
        ground_truth: &FailureProfile,
        coverage_goal: f64,
        max_iterations: u32,
    ) -> CoverageRun {
        assert!(!ground_truth.is_empty(), "ground truth must be nonempty");
        let mut tracker = CoverageTracker::new(ground_truth);
        let goal_count = tracker.goal_count(coverage_goal);
        assert!(max_iterations > 0, "need at least one iteration");

        let start = harness.elapsed();
        if harness.ambient_setpoint() != self.ambient {
            harness.set_ambient(self.ambient);
        }
        let mut profile = FailureProfile::new();
        let mut iterations = Vec::new();
        let mut met = false;
        let mut patterns_executed = 0u32;
        'outer: for it in 0..max_iterations {
            let mut stats = IterationStats::default();
            for pattern in self.patterns.for_iteration(u64::from(it)) {
                let outcome = harness.pattern_trial(pattern, self.interval);
                patterns_executed += 1;
                for &cell in outcome.failures() {
                    if profile.insert(cell) {
                        stats.new_unique += 1;
                        tracker.note_new(cell);
                    } else {
                        stats.repeats += 1;
                    }
                }
                if tracker.covered() >= goal_count {
                    met = true;
                    stats.cumulative = profile.len();
                    iterations.push(stats);
                    break 'outer;
                }
            }
            stats.cumulative = profile.len();
            iterations.push(stats);
        }

        if let Some(restore) = self.restore_ambient {
            harness.set_ambient(restore);
        }

        CoverageRun {
            run: ProfilingRun {
                profile,
                runtime: harness.elapsed() - start,
                iterations,
                profiling_interval: self.interval,
                profiling_ambient: self.ambient,
            },
            met,
            patterns_executed,
        }
    }
}

/// The result of [`Profiler::run_to_coverage`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageRun {
    /// The underlying profiling run (possibly ending mid-iteration).
    pub run: ProfilingRun,
    /// Whether the coverage goal was met within the iteration cap.
    pub met: bool,
    /// Pattern passes executed — the pattern-granular runtime unit
    /// (`runtime ≈ patterns_executed · (t_REFI + t_wr + t_rd)`, Eq. 9).
    pub patterns_executed: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_dram_model::Vendor;
    use reaper_retention::{RetentionConfig, SimulatedChip};

    fn harness(div: u64, seed: u64) -> TestHarness {
        let chip = SimulatedChip::new(
            RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, div),
            seed,
        );
        TestHarness::new(chip, Celsius::new(45.0), seed)
    }

    #[test]
    fn pattern_set_sizes() {
        assert_eq!(PatternSet::Standard.patterns_per_iteration(), 12);
        assert_eq!(PatternSet::Standard.for_iteration(3).len(), 12);
        let fixed = PatternSet::Fixed(vec![DataPattern::solid0()]);
        assert_eq!(fixed.patterns_per_iteration(), 1);
        assert_eq!(fixed.for_iteration(9), vec![DataPattern::solid0()]);
    }

    #[test]
    fn random_only_set_reseeds_each_iteration() {
        let set = PatternSet::RandomOnly;
        assert_eq!(set.patterns_per_iteration(), 2);
        let a = set.for_iteration(0);
        let b = set.for_iteration(1);
        assert_eq!(a.len(), 2);
        assert_eq!(a[1], a[0].inverse());
        assert_ne!(a[0].param(), b[0].param());
    }

    #[test]
    fn run_lowers_recurring_patterns_from_their_second_sighting() {
        let mut h = harness(32, 27);
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let _ = Profiler::brute_force(target, 2, PatternSet::Standard).run(&mut h);
        let stats = h.chip().plan_stats();
        // The chamber jitters every trial's temperature, so no condition
        // recurs: the 8 fixed patterns scan unlowered on iteration 0 and
        // on packed lanes from iteration 1.
        assert_eq!(stats.plan_trials, 0, "{stats:?}");
        assert!(stats.lowerings_built >= 8, "{stats:?}");
        assert!(stats.lowered_trials >= 8, "{stats:?}");
    }

    #[test]
    fn brute_force_run_finds_cells_and_charges_time() {
        let mut h = harness(16, 21);
        let target = TargetConditions::new(Ms::new(2048.0), Celsius::new(45.0));
        let run = Profiler::brute_force(target, 2, PatternSet::Standard).run(&mut h);
        assert!(!run.profile.is_empty());
        assert_eq!(run.iteration_count(), 2);
        // Eq. 9: runtime = (tREFI + rw) * Ndp * Nit
        let expected = (Ms::new(2048.0) + h.costs().pass_cost()) * 12.0 * 2.0;
        assert_eq!(run.runtime, expected);
        assert_eq!(run.profiling_interval, Ms::new(2048.0));
    }

    #[test]
    fn iteration_stats_are_consistent() {
        let mut h = harness(16, 22);
        let target = TargetConditions::new(Ms::new(2048.0), Celsius::new(45.0));
        let run = Profiler::brute_force(target, 3, PatternSet::Standard).run(&mut h);
        let total_unique: usize = run.iterations.iter().map(|s| s.new_unique).sum();
        assert_eq!(total_unique, run.profile.len());
        assert_eq!(
            run.iterations.last().unwrap().cumulative,
            run.profile.len()
        );
        // cumulative is nondecreasing
        let mut prev = 0;
        for s in &run.iterations {
            assert!(s.cumulative >= prev);
            prev = s.cumulative;
        }
    }

    #[test]
    fn reach_finds_superset_of_brute_force_statistically() {
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let mut h1 = harness(16, 23);
        let brute = Profiler::brute_force(target, 4, PatternSet::Standard).run(&mut h1);
        let mut h2 = harness(16, 23);
        let reach = Profiler::reach(
            target,
            ReachConditions::interval_offset(Ms::new(250.0)),
            4,
            PatternSet::Standard,
        )
        .run(&mut h2);
        assert!(
            reach.profile.len() > brute.profile.len(),
            "reach {} vs brute {}",
            reach.profile.len(),
            brute.profile.len()
        );
    }

    #[test]
    fn thermal_reach_restores_ambient() {
        let mut h = harness(32, 24);
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let p = Profiler::reach(
            target,
            ReachConditions::temp_offset(5.0),
            1,
            PatternSet::Standard,
        );
        assert_eq!(p.ambient(), Celsius::new(50.0));
        let _ = p.run(&mut h);
        assert_eq!(h.ambient_setpoint(), Celsius::new(45.0));
    }

    #[test]
    fn run_to_coverage_stops_early() {
        let mut h = harness(16, 25);
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        // Ground truth: high-probability failures at target.
        let gt = FailureProfile::from_cells(h.chip_mut().failing_set_worst_case(
            Ms::new(1024.0),
            target.dram_temp(),
            0.9,
        ));
        let profiler = Profiler::reach(
            target,
            ReachConditions::interval_offset(Ms::new(500.0)),
            1,
            PatternSet::Standard,
        );
        let goal = profiler.run_to_coverage(&mut h, &gt, 0.9, 20);
        assert!(goal.met, "goal not met in {} iterations", goal.run.iteration_count());
        assert!(goal.run.iteration_count() < 20);
        assert!(goal.patterns_executed >= 1);
        assert!(goal.patterns_executed <= 20 * 12);
    }

    #[test]
    fn direct_union_matches_sequential_trial_union() {
        // The batched direct path must produce exactly the union a plain
        // retention_trial loop at the same fixed condition produces.
        let mk = || {
            SimulatedChip::new(
                RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16),
                29,
            )
        };
        let interval = Ms::new(1536.0);
        let temp = Celsius::new(60.0);
        let patterns = PatternSet::Standard;

        let mut reference = mk();
        let mut want = FailureProfile::new();
        for it in 0..3u32 {
            for p in patterns.for_iteration(u64::from(it)) {
                for &cell in reference.retention_trial(p, interval, temp).failures() {
                    want.insert(cell);
                }
            }
        }

        let mut chip = mk();
        let got = Profiler::direct_union(&mut chip, interval, temp, 3, &patterns);
        assert_eq!(got, want);
        assert!(!got.is_empty());
        // All trials were served by the batch kernel.
        let stats = chip.plan_stats();
        assert_eq!(stats.batch_rounds, 3 * 12);
    }

    #[test]
    #[should_panic(expected = "at least one profiling iteration")]
    fn zero_iterations_rejected() {
        let target = TargetConditions::paper_example();
        Profiler::brute_force(target, 0, PatternSet::Standard);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn run_to_coverage_rejects_empty_gt() {
        let mut h = harness(64, 26);
        let target = TargetConditions::paper_example();
        let p = Profiler::brute_force(target, 1, PatternSet::Standard);
        p.run_to_coverage(&mut h, &FailureProfile::new(), 0.9, 1);
    }
}
