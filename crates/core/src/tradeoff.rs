//! The coverage / false-positive-rate / runtime tradeoff space (paper §6.1,
//! Figs. 9–10) and reach-condition selection (§6.1.2).
//!
//! For a grid of reach offsets (Δ refresh interval × Δ temperature), the
//! explorer measures, per the paper's methodology:
//!
//! * **coverage** and **false positive rate** of a fixed-iteration reach
//!   profile against the target's ground-truth failing set (Fig. 9),
//! * **runtime** as the number of iterations required to achieve a coverage
//!   goal (90 % in Fig. 10), converted to time by the Eq. 9 cost model and
//!   normalized to brute-force profiling at the target.

use reaper_dram_model::Ms;
use reaper_exec::num;
use reaper_retention::SimulatedChip;
use reaper_softmc::TestHarness;

use crate::conditions::{ReachConditions, TargetConditions};
use crate::metrics::ProfileMetrics;
use crate::profile::FailureProfile;
use crate::profiler::{PatternSet, Profiler};

/// How the target's ground-truth failing set is established.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroundTruth {
    /// The paper's approach: the union of many brute-force iterations at the
    /// target conditions.
    Empirical {
        /// Brute-force iterations to accumulate.
        iterations: u32,
    },
    /// Oracle access to the simulator: every cell whose worst-case failure
    /// probability at target conditions is at least `min_prob`.
    Analytic {
        /// Probability floor for membership.
        min_prob: f64,
    },
    /// The union of many profiling iterations at exact target conditions,
    /// served harness-free by the chip's bit-plane batch kernel
    /// ([`Profiler::direct_union`]). Much faster than `Empirical` but not
    /// draw-identical to it: no simulated time is charged and no thermal
    /// jitter is applied, so the trials all run at the precise target
    /// DRAM temperature.
    Direct {
        /// Profiling iterations to accumulate.
        iterations: u32,
    },
}

impl Default for GroundTruth {
    fn default() -> Self {
        GroundTruth::Empirical { iterations: 24 }
    }
}

/// Options for a tradeoff-space exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreOptions {
    /// Iterations per grid-point profile (the paper's Fig. 9 uses 16).
    pub profile_iterations: u32,
    /// Ground-truth construction.
    pub ground_truth: GroundTruth,
    /// Coverage goal for the runtime measurement (Fig. 10 uses 0.9).
    pub coverage_goal: f64,
    /// Iteration cap for the runtime measurement.
    pub max_runtime_iterations: u32,
    /// RNG seed for harness construction.
    pub seed: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            profile_iterations: 16,
            ground_truth: GroundTruth::default(),
            coverage_goal: 0.9,
            max_runtime_iterations: 96,
            seed: 0x5EED,
        }
    }
}

/// One measured point of the tradeoff space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The reach offset measured.
    pub reach: ReachConditions,
    /// Coverage of the target ground truth after `profile_iterations`.
    pub coverage: f64,
    /// False positive rate of the same profile.
    pub false_positive_rate: f64,
    /// Iterations needed to hit the coverage goal (capped).
    pub iterations_to_goal: u32,
    /// Pattern passes needed to hit the goal (pattern-granular runtime).
    pub patterns_to_goal: u32,
    /// Whether the goal was met within the cap.
    pub met_goal: bool,
    /// Eq. 9 runtime for `iterations_to_goal` at these conditions.
    pub runtime: Ms,
    /// Runtime normalized to the brute-force point (Fig. 10's contours).
    pub runtime_rel: f64,
}

impl TradeoffPoint {
    /// Brute-force speedup this point offers (`1 / runtime_rel`).
    pub fn speedup(&self) -> f64 {
        1.0 / self.runtime_rel
    }
}

/// A measured tradeoff space for one chip and target.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffAnalysis {
    /// The target conditions every point is evaluated against.
    pub target: TargetConditions,
    /// Measured grid points (row-major over the supplied delta lists).
    pub points: Vec<TradeoffPoint>,
    /// Size of the ground-truth failing set used.
    pub ground_truth_size: usize,
}

impl TradeoffAnalysis {
    /// Explores the tradeoff space of `chip` around `target` over the cross
    /// product of `deltas_interval` × `deltas_temp`.
    ///
    /// Every grid point starts from a clone of the pristine `chip`, so all
    /// points see an identical cell population (the paper's single
    /// "representative chip" methodology).
    ///
    /// # Panics
    /// Panics if either delta list is empty, or options are degenerate.
    pub fn explore(
        chip: &SimulatedChip,
        target: TargetConditions,
        deltas_interval: &[Ms],
        deltas_temp: &[f64],
        opts: ExploreOptions,
    ) -> Self {
        assert!(!deltas_interval.is_empty(), "need at least one interval delta");
        assert!(!deltas_temp.is_empty(), "need at least one temperature delta");
        assert!(opts.profile_iterations > 0, "need at least one iteration");

        // Build the recurring patterns' trial-plan lowerings once on the
        // pristine chip: the ground-truth run and every grid point profile
        // a clone of it, so the packed lanes are inherited instead of
        // being rebuilt per point. Outcome-neutral (every trial path is
        // bit-identical); it only moves shared work out of the fan-out.
        let mut base = chip.clone();
        base.prewarm_lowerings(&PatternSet::Standard.stable_patterns());
        let chip = &base;

        let ground_truth = Self::establish_ground_truth(chip, target, opts);
        assert!(
            !ground_truth.is_empty(),
            "no failing cells at target conditions; raise the interval or chip capacity"
        );

        // Brute-force reference runtime (denominator of Fig. 10's contours).
        let brute = Self::measure_point(
            chip,
            target,
            ReachConditions::brute_force(),
            &ground_truth,
            opts,
            None,
        );

        // Every grid point profiles an independent clone of the pristine
        // chip, so points can be measured in parallel; the row-major output
        // order is preserved by par_map.
        let grid: Vec<ReachConditions> = deltas_temp
            .iter()
            .flat_map(|&dt| deltas_interval.iter().map(move |&di| ReachConditions::new(di, dt)))
            .collect();
        let points = reaper_exec::par_map(&grid, |&reach| {
            if reach.is_brute_force() {
                brute
            } else {
                Self::measure_point(chip, target, reach, &ground_truth, opts, Some(brute.runtime))
            }
        });

        Self {
            target,
            points,
            ground_truth_size: ground_truth.len(),
        }
    }

    fn establish_ground_truth(
        chip: &SimulatedChip,
        target: TargetConditions,
        opts: ExploreOptions,
    ) -> FailureProfile {
        match opts.ground_truth {
            GroundTruth::Analytic { min_prob } => FailureProfile::from_cells(
                chip.clone()
                    .failing_set_worst_case(target.interval, target.dram_temp(), min_prob),
            ),
            GroundTruth::Empirical { iterations } => {
                let mut harness =
                    TestHarness::new(chip.clone(), target.ambient, opts.seed ^ 0x61);
                let run = Profiler::brute_force(target, iterations, PatternSet::Standard)
                    .run(&mut harness);
                run.profile
            }
            GroundTruth::Direct { iterations } => {
                let mut chip = chip.clone();
                Profiler::direct_union(
                    &mut chip,
                    target.interval,
                    target.dram_temp(),
                    iterations,
                    &PatternSet::Standard,
                )
            }
        }
    }

    fn measure_point(
        chip: &SimulatedChip,
        target: TargetConditions,
        reach: ReachConditions,
        ground_truth: &FailureProfile,
        opts: ExploreOptions,
        brute_runtime: Option<Ms>,
    ) -> TradeoffPoint {
        // Coverage / FPR at fixed iterations (Fig. 9).
        let mut harness = TestHarness::new(chip.clone(), target.ambient, opts.seed);
        let run = Profiler::reach(target, reach, opts.profile_iterations, PatternSet::Standard)
            .run(&mut harness);
        let metrics = ProfileMetrics::evaluate(&run.profile, ground_truth);

        // Runtime to the coverage goal (Fig. 10). The paper counts whole
        // iterations ("the number of profiling iterations required", Eq. 9's
        // N_dp x N_it product), so runtime is quantized at iterations even
        // though the goal check runs per pattern; `patterns_to_goal` is kept
        // as a finer-grained observable.
        let mut harness = TestHarness::new(chip.clone(), target.ambient, opts.seed ^ 0x10);
        let profiler = Profiler::reach(target, reach, 1, PatternSet::Standard);
        let goal = profiler.run_to_coverage(
            &mut harness,
            ground_truth,
            opts.coverage_goal,
            opts.max_runtime_iterations,
        );
        let met = goal.met;
        let iterations_to_goal = num::to_u32(goal.run.iteration_count());
        // Eq. 9 runtime at these conditions (excluding thermal settling,
        // matching the paper's iteration-count-based runtime accounting).
        let (interval, _) = reach.apply_to(target);
        let per_iteration = (interval + harness.costs().pass_cost())
            * PatternSet::Standard.patterns_per_iteration() as f64;
        let runtime = per_iteration * iterations_to_goal as f64;

        let runtime_rel = match brute_runtime {
            Some(b) if b.is_positive() => runtime / b,
            _ => 1.0,
        };

        TradeoffPoint {
            reach,
            coverage: metrics.coverage,
            false_positive_rate: metrics.false_positive_rate,
            iterations_to_goal,
            patterns_to_goal: goal.patterns_executed,
            met_goal: met,
            runtime,
            runtime_rel,
        }
    }

    /// §6.1.2's selection rule: among points meeting `min_coverage` and
    /// `max_fpr`, the one with the smallest relative runtime. Returns `None`
    /// if no point qualifies.
    pub fn select(&self, min_coverage: f64, max_fpr: f64) -> Option<&TradeoffPoint> {
        self.points
            .iter()
            .filter(|p| p.coverage >= min_coverage && p.false_positive_rate <= max_fpr && p.met_goal)
            .min_by(|a, b| {
                a.runtime_rel
                    .partial_cmp(&b.runtime_rel)
                    .expect("invariant: runtimes are finite ratios of positive durations")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_dram_model::{Celsius, Vendor};
    use reaper_retention::RetentionConfig;

    fn chip() -> SimulatedChip {
        SimulatedChip::new(
            RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16),
            77,
        )
    }

    fn quick_opts() -> ExploreOptions {
        ExploreOptions {
            profile_iterations: 6,
            ground_truth: GroundTruth::Empirical { iterations: 12 },
            coverage_goal: 0.9,
            max_runtime_iterations: 32,
            seed: 5,
        }
    }

    #[test]
    fn reach_trades_fpr_for_coverage_and_speed() {
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let analysis = TradeoffAnalysis::explore(
            &chip(),
            target,
            &[Ms::ZERO, Ms::new(250.0)],
            &[0.0],
            quick_opts(),
        );
        assert_eq!(analysis.points.len(), 2);
        let brute = &analysis.points[0];
        let reach = &analysis.points[1];
        assert!(brute.reach.is_brute_force());
        // Reach covers at least as much, with more false positives, faster.
        assert!(
            reach.coverage >= brute.coverage - 0.02,
            "reach {} vs brute {}",
            reach.coverage,
            brute.coverage
        );
        assert!(reach.false_positive_rate > brute.false_positive_rate);
        assert!(
            reach.runtime_rel < 1.0,
            "reach should be faster: rel {}",
            reach.runtime_rel
        );
        assert!(reach.speedup() > 1.0);
    }

    #[test]
    fn temperature_reach_behaves_like_interval_reach() {
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let analysis = TradeoffAnalysis::explore(
            &chip(),
            target,
            &[Ms::ZERO],
            &[0.0, 5.0],
            quick_opts(),
        );
        let brute = &analysis.points[0];
        let hot = &analysis.points[1];
        assert!(hot.coverage >= brute.coverage - 0.02);
        assert!(hot.false_positive_rate > brute.false_positive_rate);
    }

    #[test]
    fn select_respects_fpr_budget() {
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let analysis = TradeoffAnalysis::explore(
            &chip(),
            target,
            &[Ms::ZERO, Ms::new(250.0), Ms::new(750.0)],
            &[0.0],
            quick_opts(),
        );
        // With a generous budget some reach point must win.
        let picked = analysis.select(0.5, 0.95).expect("a point qualifies");
        assert!(picked.runtime_rel <= 1.0);
        // With an impossible coverage bar, nothing qualifies.
        assert!(analysis.select(1.01, 1.0).is_none());
    }

    #[test]
    fn analytic_ground_truth_works() {
        let target = TargetConditions::new(Ms::new(1536.0), Celsius::new(45.0));
        let mut opts = quick_opts();
        opts.ground_truth = GroundTruth::Analytic { min_prob: 0.5 };
        let analysis =
            TradeoffAnalysis::explore(&chip(), target, &[Ms::new(500.0)], &[0.0], opts);
        assert!(analysis.ground_truth_size > 0);
        assert!(analysis.points[0].coverage > 0.9);
    }

    #[test]
    fn direct_ground_truth_works() {
        let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
        let mut opts = quick_opts();
        opts.ground_truth = GroundTruth::Direct { iterations: 12 };
        let analysis =
            TradeoffAnalysis::explore(&chip(), target, &[Ms::new(500.0)], &[0.0], opts);
        assert!(analysis.ground_truth_size > 0);
        // Profiling well above target must cover most of the direct truth.
        assert!(
            analysis.points[0].coverage > 0.8,
            "coverage {}",
            analysis.points[0].coverage
        );
    }

    #[test]
    #[should_panic(expected = "at least one interval delta")]
    fn rejects_empty_grid() {
        let target = TargetConditions::paper_example();
        TradeoffAnalysis::explore(&chip(), target, &[], &[0.0], quick_opts());
    }
}
