//! The racing engine: run every candidate concurrently, cancel losers,
//! pick the winner by logical cost.
//!
//! # Race lifecycle
//!
//! Each candidate gets a *lane*: its own simulated chip (same config and
//! seed — every lane profiles the same hypothetical part), its own
//! [`CancelToken`], and a published logical-cost counter. Lanes run on
//! the pooled exec substrate via [`par_index_map_pooled`]; inside a lane,
//! iterations execute in chunks through the chip's cancellable batch
//! kernel, and after each kernel chunk the lane *walks* the outcomes one
//! pattern pass at a time, accounting logical cost and checking the
//! coverage/FPR target at pass granularity.
//!
//! A lane that meets the target posts its finish cost to the shared
//! board (an atomic running minimum) and sweeps the other lanes,
//! cancelling any whose published incurred cost already exceeds the
//! posted bound. Lanes also poll the board themselves — at chunk
//! boundaries (before spending kernel time) and during the accounting
//! walk — and self-cancel once their own incurred cost strictly exceeds
//! the board's best. Cancellation reaches a running kernel only at batch
//! boundaries (see `retention_trial_schedule`), so nothing
//! ever diverges mid-batch.
//!
//! # Why racing stays deterministic
//!
//! Every cancellation compares a lane's *incurred* cost (monotonically
//! increasing) against a *posted finish cost* (the board value only
//! decreases, and every posted value is ≥ the final best `B`). So a lane
//! whose final cost is ≤ `B` can never observe `incurred > board` — it
//! always finishes, at any thread count and under any scheduling. Lanes
//! with final cost > `B` may or may not be cancelled at runtime; the
//! outcome never depends on it, because the reported result is computed
//! *analytically* after the barrier:
//!
//! * **winner** = minimum `(finish cost, intrinsic sort key)` over lanes
//!   that met the target — all such minima provably finished;
//! * a non-winner lane is reported `Finished`/`Exhausted` with its full
//!   cost iff that full cost is ≤ `B` (such lanes provably finished and
//!   their data is available), and `Cancelled` otherwise, *charged* the
//!   first pass-boundary cost strictly exceeding `B` (pure arithmetic) —
//!   even if the runtime race happened to let it finish;
//! * if no lane meets the target nothing is ever posted, every lane
//!   finishes, and the fallback winner is the best `(coverage, cost,
//!   key)` — again analytic.
//!
//! Wall-clock time is never consulted; `RaceOutcome` is a pure function
//! of the [`Portfolio`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use reaper_core::{CoverageTracker, FailureProfile, IterationStats, PatternSet};
use reaper_dram_model::{Celsius, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_exec::{num, par_index_map_pooled};
use reaper_retention::{RetentionConfig, SimulatedChip};
use reaper_softmc::thermal::DRAM_OFFSET;

use crate::spec::{RaceTarget, Strategy, StrategySpec};

/// Iterations per kernel chunk: large enough that recurring patterns
/// batch across iterations inside one `run_rounds` call, small enough
/// that cancellation lands promptly. Fixed, so per-lane execution is
/// identical at every thread count.
const CHUNK_ITERATIONS: u32 = 4;

/// Probability floor for the analytic ground truth lanes race toward
/// (re-exported from the core request layer so both paths agree).
pub use reaper_core::TRUTH_MIN_PROB;

/// A configured portfolio race.
#[derive(Debug, Clone)]
pub struct Portfolio {
    vendor: Vendor,
    capacity_num: u64,
    capacity_den: u64,
    seed: u64,
    target: RaceTarget,
    patterns: PatternSet,
    candidates: Vec<StrategySpec>,
}

/// How a lane's race ended, in the analytic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStatus {
    /// This lane's result is the race result.
    Winner,
    /// Met the target, but at a cost no better than the winner's.
    Finished,
    /// Spent its whole iteration budget without meeting the target.
    Exhausted,
    /// Provably a loser: charged up to the first pass boundary past the
    /// winning cost, where the runtime race cancels it.
    Cancelled,
}

/// One lane's analytically-accounted race report.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// The candidate this lane ran.
    pub spec: StrategySpec,
    /// Its strategy family.
    pub strategy: Strategy,
    /// How the lane ended.
    pub status: LaneStatus,
    /// Logical cost charged to the lane (full cost for finished lanes,
    /// the abort-boundary cost for cancelled ones).
    pub charged: Ms,
    /// Ground-truth coverage at the lane's end, when it finished.
    pub coverage: Option<f64>,
    /// Pattern passes the lane completed, when it finished.
    pub passes: Option<u32>,
}

/// The race result: a pure function of the [`Portfolio`], independent of
/// thread count, launch order, and prior state.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceOutcome {
    /// The winning candidate.
    pub winner: StrategySpec,
    /// Its strategy family.
    pub winner_strategy: Strategy,
    /// The winner's own logical finish cost.
    pub winner_cost: Ms,
    /// Whether the winner actually met the coverage/FPR target (false
    /// only when every lane exhausted its budget).
    pub target_met: bool,
    /// Race makespan: the maximum cost charged to any lane — what the
    /// race costs end-to-end on parallel rigs, and the number the
    /// portfolio-vs-best-single gate holds ≤ 1.05× the winner's cost.
    pub makespan: Ms,
    /// Per-lane reports in canonical (intrinsic sort key) order.
    pub lanes: Vec<LaneReport>,
    /// The winner's failure profile at its finish point.
    pub profile: FailureProfile,
    /// The winner's per-iteration discovery series.
    pub iterations: Vec<IterationStats>,
    /// The winner's absolute profiling interval.
    pub profiling_interval: Ms,
    /// The winner's absolute profiling ambient.
    pub profiling_ambient: Celsius,
    /// The winner's final coverage of the ground truth.
    pub coverage: f64,
    /// The winner's final false-positive rate.
    pub fpr: f64,
    /// Size of the shared ground-truth failing set.
    pub truth_cells: usize,
}

impl RaceOutcome {
    /// Lanes reported [`LaneStatus::Cancelled`].
    pub fn cancelled_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.status == LaneStatus::Cancelled)
            .count()
    }
}

/// A candidate's solo (no racing, no cancellation) run summary — the
/// baseline the bench gates the race against.
#[derive(Debug, Clone, PartialEq)]
pub struct SoloRun {
    /// The candidate.
    pub spec: StrategySpec,
    /// Whether it met the target within its budget.
    pub met: bool,
    /// Its full logical cost (finish cost if met, budget-exhausted cost
    /// otherwise).
    pub cost: Ms,
    /// Final ground-truth coverage.
    pub coverage: f64,
    /// Final false-positive rate.
    pub fpr: f64,
    /// Pattern passes executed.
    pub passes: u32,
}

/// Shared race state: the posted-cost board plus one slot per candidate.
struct RaceBoard {
    /// Best posted finish cost, as non-negative IEEE-754 bits (ordering
    /// on the bits equals ordering on the values). Starts at +∞.
    best: AtomicU64,
    slots: Vec<LaneSlot>,
}

struct LaneSlot {
    token: CancelToken,
    /// The lane's incurred logical cost so far, as f64 bits. Monotone.
    incurred: AtomicU64,
}

impl RaceBoard {
    fn new(lanes: usize) -> Self {
        Self {
            best: AtomicU64::new(f64::INFINITY.to_bits()),
            slots: (0..lanes)
                .map(|_| LaneSlot {
                    token: CancelToken::new(),
                    incurred: AtomicU64::new(0f64.to_bits()),
                })
                .collect(),
        }
    }

    fn best(&self) -> f64 {
        f64::from_bits(self.best.load(Ordering::Acquire))
    }

    /// Posts a finish cost and cancels every other lane already known to
    /// have incurred strictly more. Any posted value is ≥ the final best,
    /// so a sweep can only hit lanes whose final cost exceeds it too.
    fn post(&self, me: usize, cost: Ms) {
        self.best.fetch_min(cost.as_ms().to_bits(), Ordering::AcqRel);
        for (i, slot) in self.slots.iter().enumerate() {
            if i != me && f64::from_bits(slot.incurred.load(Ordering::Acquire)) > cost.as_ms() {
                slot.token.cancel();
            }
        }
    }
}

/// What a lane hands back to the barrier. Costs and classifications are
/// recomputed analytically afterwards; only `finished == true` data is
/// trusted (an unfinished lane's fields describe a scheduling-dependent
/// partial run and are discarded).
struct LaneRun {
    finished: bool,
    met: bool,
    full_cost: Ms,
    coverage: f64,
    fpr: f64,
    passes: u32,
    profile: FailureProfile,
    iterations: Vec<IterationStats>,
    /// Chamber settle overhead (both directions), pure arithmetic reused
    /// by the analytic charge.
    settle_total: Ms,
    unit: Ms,
}

impl Portfolio {
    /// Configures a race over `candidates` on one simulated chip.
    ///
    /// # Panics
    /// Panics if `candidates` is empty, contains duplicates (by intrinsic
    /// sort key), the capacity scale is zero, or any candidate's reach
    /// would push the chamber past its reliable range.
    pub fn new(
        vendor: Vendor,
        capacity_num: u64,
        capacity_den: u64,
        seed: u64,
        target: RaceTarget,
        patterns: PatternSet,
        candidates: Vec<StrategySpec>,
    ) -> Self {
        assert!(capacity_num > 0 && capacity_den > 0, "capacity scale must be nonzero");
        assert!(!candidates.is_empty(), "a race needs at least one candidate");
        let mut keys: Vec<_> = candidates.iter().map(StrategySpec::sort_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            candidates.len(),
            "candidates must be distinct (by intrinsic sort key)"
        );
        for c in &candidates {
            let (_, ambient) = c.reach.apply_to(target.conditions);
            assert!(
                ambient.degrees() <= reaper_softmc::thermal::CHAMBER_MAX,
                "candidate reach {} exceeds the chamber maximum",
                c.reach
            );
        }
        Self {
            vendor,
            capacity_num,
            capacity_den,
            seed,
            target,
            patterns,
            candidates,
        }
    }

    /// The candidate set, in construction order.
    pub fn candidates(&self) -> &[StrategySpec] {
        &self.candidates
    }

    /// The race target.
    pub fn target(&self) -> RaceTarget {
        self.target
    }

    fn config(&self) -> RetentionConfig {
        RetentionConfig::for_vendor(self.vendor)
            .with_capacity_scale(self.capacity_num, self.capacity_den)
    }

    /// The shared ground truth every lane races toward: the analytic
    /// worst-case failing set at target conditions.
    pub fn ground_truth(&self) -> FailureProfile {
        let chip = SimulatedChip::new(self.config(), self.seed);
        FailureProfile::from_cells(chip.failing_set_worst_case(
            self.target.conditions.interval,
            self.target.conditions.dram_temp(),
            TRUTH_MIN_PROB,
        ))
    }

    /// Runs the race with candidates launched in construction order.
    pub fn run(&self) -> RaceOutcome {
        let order: Vec<usize> = (0..self.candidates.len()).collect();
        self.run_ordered(&order)
    }

    /// Runs the race with an explicit launch order (a permutation of
    /// candidate indices — this is the only influence priors have).
    ///
    /// # Panics
    /// Panics if `launch_order` is not a permutation of
    /// `0..candidates.len()`.
    pub fn run_ordered(&self, launch_order: &[usize]) -> RaceOutcome {
        let mut check: Vec<usize> = launch_order.to_vec();
        check.sort_unstable();
        assert_eq!(
            check,
            (0..self.candidates.len()).collect::<Vec<_>>(),
            "launch order must be a permutation of the candidate indices"
        );

        let truth = Arc::new(self.ground_truth());
        let board = Arc::new(RaceBoard::new(self.candidates.len()));
        let ctx = Arc::new(self.clone());
        let runs: Vec<(usize, LaneRun)> = par_index_map_pooled(launch_order.len(), {
            let order = launch_order.to_vec();
            let truth = Arc::clone(&truth);
            let board = Arc::clone(&board);
            Arc::new(move |pos: usize| {
                // lint: allow(panic) pos < len and order is a permutation
                let lane = order[pos];
                (lane, ctx.run_lane(lane, &truth, Some((&board, lane))))
            })
        });

        let mut by_lane: Vec<Option<LaneRun>> = (0..self.candidates.len()).map(|_| None).collect();
        for (lane, run) in runs {
            // lint: allow(panic) lane indices come from the permutation
            by_lane[lane] = Some(run);
        }
        let runs: Vec<LaneRun> = by_lane
            .into_iter()
            .map(|r| r.expect("invariant: every lane ran exactly once"))
            .collect();

        self.settle_outcome(&truth, runs)
    }

    /// Runs one candidate to completion with no race: the baseline cost
    /// the portfolio gate compares against.
    ///
    /// # Panics
    /// Panics if `candidate` is out of range.
    pub fn run_solo(&self, candidate: usize) -> SoloRun {
        assert!(candidate < self.candidates.len(), "candidate index out of range");
        let truth = self.ground_truth();
        let run = self.run_lane(candidate, &truth, None);
        debug_assert!(run.finished, "an unraced lane always finishes");
        SoloRun {
            // lint: allow(panic) bounds asserted above
            spec: self.candidates[candidate],
            met: run.met,
            cost: run.full_cost,
            coverage: run.coverage,
            fpr: run.fpr,
            passes: run.passes,
        }
    }

    /// Executes one lane: chunked cancellable kernel runs, pass-granular
    /// cost accounting, board protocol when racing (`shared` is `None`
    /// for solo runs).
    fn run_lane(
        &self,
        lane: usize,
        truth: &FailureProfile,
        shared: Option<(&RaceBoard, usize)>,
    ) -> LaneRun {
        // lint: allow(panic) callers pass in-range lane indices
        let spec = self.candidates[lane];
        let (interval, ambient) = spec.reach.apply_to(self.target.conditions);
        let dram_temp = ambient + DRAM_OFFSET;
        let unit = spec.unit_cost(self.target.conditions);
        let settle_total = if spec.reach.delta_temp > 0.0 {
            reaper_softmc::settle_cost(self.target.conditions.ambient, ambient, self.seed)
                + reaper_softmc::settle_cost(ambient, self.target.conditions.ambient, self.seed)
        } else {
            Ms::ZERO
        };
        let unfinished = |settle_total, unit| LaneRun {
            finished: false,
            met: false,
            full_cost: Ms::ZERO,
            coverage: 0.0,
            fpr: 0.0,
            passes: 0,
            profile: FailureProfile::new(),
            iterations: Vec::new(),
            settle_total,
            unit,
        };

        let token = shared.map_or_else(CancelToken::new, |(b, me)| {
            // lint: allow(panic) slots were sized to the candidate count
            let slot = &b.slots[me];
            slot.incurred.store(settle_total.as_ms().to_bits(), Ordering::Release);
            slot.token.clone()
        });

        let mut chip = SimulatedChip::new(self.config(), self.seed);
        let mut tracker = CoverageTracker::new(truth);
        let goal_count = tracker.goal_count(self.target.coverage_goal);
        let ppi = num::to_u32(self.patterns.patterns_per_iteration());

        let mut profile = FailureProfile::new();
        let mut iterations: Vec<IterationStats> = Vec::new();
        let mut stats = IterationStats::default();
        let mut passes = 0u32;
        let mut met = false;
        let mut it = 0u32;
        'race: while it < spec.max_iterations {
            // Chunk boundary: the cheap place to stop before spending
            // kernel time.
            if token.is_cancelled() {
                return unfinished(settle_total, unit);
            }
            if let Some((board, _)) = shared {
                let incurred = settle_total + unit * f64::from(passes);
                if incurred.as_ms() > board.best() {
                    token.cancel();
                    return unfinished(settle_total, unit);
                }
            }

            let chunk_end = (it + CHUNK_ITERATIONS).min(spec.max_iterations);
            let mut schedule = Vec::new();
            for i in it..chunk_end {
                for p in self.patterns.for_iteration(u64::from(i)) {
                    schedule.push((p, interval, dram_temp));
                }
            }
            let run = chip.retention_trial_schedule(&schedule, &token);

            // Pass-granular accounting walk over whatever completed.
            for outcome in &run.outcomes {
                passes += 1;
                for &cell in outcome.failures() {
                    if profile.insert(cell) {
                        stats.new_unique += 1;
                        tracker.note_new(cell);
                    } else {
                        stats.repeats += 1;
                    }
                }
                if passes.is_multiple_of(ppi) {
                    stats.cumulative = profile.len();
                    iterations.push(core::mem::take(&mut stats));
                }
                let cost_now = settle_total + unit * f64::from(passes);
                if let Some((board, me)) = shared {
                    // lint: allow(panic) slots were sized to the candidate count
                    board.slots[me]
                        .incurred
                        .store(cost_now.as_ms().to_bits(), Ordering::Release);
                }
                if tracker.covered() >= goal_count && tracker.fpr() <= self.target.max_fpr {
                    met = true;
                    if let Some((board, me)) = shared {
                        board.post(me, cost_now);
                    }
                    break 'race;
                }
                if let Some((board, _)) = shared {
                    if cost_now.as_ms() > board.best() {
                        token.cancel();
                        return unfinished(settle_total, unit);
                    }
                }
            }
            if run.cancelled {
                return unfinished(settle_total, unit);
            }
            it = chunk_end;
        }
        if !passes.is_multiple_of(ppi) {
            stats.cumulative = profile.len();
            iterations.push(stats);
        }

        LaneRun {
            finished: true,
            met,
            full_cost: settle_total + unit * f64::from(passes),
            coverage: tracker.coverage(),
            fpr: tracker.fpr(),
            passes,
            profile,
            iterations,
            settle_total,
            unit,
        }
    }

    /// Turns raw lane runs into the deterministic outcome (see the module
    /// docs for why this classification is scheduling-independent).
    fn settle_outcome(&self, truth: &FailureProfile, runs: Vec<LaneRun>) -> RaceOutcome {
        // The winning bound: minimum (cost, key) over lanes that met the
        // target. Every such minimum provably finished at runtime.
        let winner_met = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.finished && r.met)
            .min_by(|(i, a), (j, b)| {
                a.full_cost
                    .as_ms()
                    .total_cmp(&b.full_cost.as_ms())
                    // lint: allow(panic) i/j enumerate the candidate set
                    .then_with(|| self.candidates[*i].sort_key().cmp(&self.candidates[*j].sort_key()))
            })
            .map(|(i, _)| i);

        let (winner_idx, target_met) = match winner_met {
            Some(i) => (i, true),
            None => {
                // Nothing was ever posted, so nothing was ever cancelled
                // and every lane finished: pick the best fallback.
                let i = runs
                    .iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| {
                        a.coverage
                            .total_cmp(&b.coverage)
                            .then_with(|| b.full_cost.as_ms().total_cmp(&a.full_cost.as_ms()))
                            .then_with(|| {
                                // lint: allow(panic) i/j enumerate the candidate set
                                self.candidates[*j]
                                    .sort_key()
                                    // lint: allow(panic) i/j enumerate the candidate set
                                    .cmp(&self.candidates[*i].sort_key())
                            })
                    })
                    .map(|(i, _)| i)
                    .expect("invariant: a race has at least one candidate");
                (i, false)
            }
        };
        // lint: allow(panic) winner_idx comes from enumerating runs
        let b_final = runs[winner_idx].full_cost;

        let mut lanes: Vec<LaneReport> = runs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                // lint: allow(panic) i enumerates the candidate set
                let spec = self.candidates[i];
                let (status, charged, coverage, passes) = if i == winner_idx {
                    (LaneStatus::Winner, b_final, Some(r.coverage), Some(r.passes))
                } else if target_met
                    && (!r.finished || r.full_cost.as_ms() > b_final.as_ms())
                {
                    // Provably a loser at runtime (its full cost exceeds
                    // the bound), whether or not this particular race
                    // happened to cancel it.
                    (
                        LaneStatus::Cancelled,
                        charged_abort(r.settle_total, r.unit, b_final),
                        None,
                        None,
                    )
                } else {
                    debug_assert!(r.finished, "cost ≤ bound lanes always finish");
                    let status = if r.met { LaneStatus::Finished } else { LaneStatus::Exhausted };
                    (status, r.full_cost, Some(r.coverage), Some(r.passes))
                };
                LaneReport {
                    spec,
                    strategy: spec.strategy(),
                    status,
                    charged,
                    coverage,
                    passes,
                }
            })
            .collect();
        lanes.sort_by_key(|l| l.spec.sort_key());

        let makespan = lanes
            .iter()
            .map(|l| l.charged)
            .fold(Ms::ZERO, |acc, c| if c.as_ms() > acc.as_ms() { c } else { acc });

        // lint: allow(panic) winner_idx comes from enumerating runs
        let winner_run = &runs[winner_idx];
        // lint: allow(panic) winner_idx comes from enumerating runs
        let spec = self.candidates[winner_idx];
        let (profiling_interval, profiling_ambient) = spec.reach.apply_to(self.target.conditions);
        RaceOutcome {
            winner: spec,
            winner_strategy: spec.strategy(),
            winner_cost: b_final,
            target_met,
            makespan,
            lanes,
            profile: winner_run.profile.clone(),
            iterations: winner_run.iterations.clone(),
            profiling_interval,
            profiling_ambient,
            coverage: winner_run.coverage,
            fpr: winner_run.fpr,
            truth_cells: truth.len(),
        }
    }
}

/// The cost charged to a provably-losing lane: the first pass-boundary
/// cost strictly above the winning bound `b` (where the runtime race
/// cancels it), or `b` itself if even the chamber settle exceeds the
/// bound (the lane aborts mid-move). Pure arithmetic in the lane's
/// settle/unit costs — never a runtime observation.
fn charged_abort(settle_total: Ms, unit: Ms, b: Ms) -> Ms {
    if settle_total.as_ms() > b.as_ms() {
        return b;
    }
    let mut k = ((b.as_ms() - settle_total.as_ms()) / unit.as_ms()).floor() + 1.0;
    // Guard the floating-point edge where the computed boundary is not
    // strictly past the bound.
    while settle_total.as_ms() + k * unit.as_ms() <= b.as_ms() {
        k += 1.0;
    }
    settle_total + unit * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{default_candidates, RaceTarget};
    use reaper_core::{ReachConditions, TargetConditions};

    fn quick_portfolio(seed: u64) -> Portfolio {
        Portfolio::new(
            Vendor::B,
            1,
            64,
            seed,
            RaceTarget::new(
                TargetConditions::new(Ms::new(512.0), Celsius::new(45.0)),
                0.9,
                1.0,
            ),
            PatternSet::Standard,
            vec![
                StrategySpec::new(ReachConditions::brute_force(), 6),
                StrategySpec::new(ReachConditions::interval_offset(Ms::new(128.0)), 6),
                StrategySpec::new(ReachConditions::interval_offset(Ms::new(256.0)), 6),
            ],
        )
    }

    #[test]
    fn race_is_reproducible_and_winner_meets_target() {
        let p = quick_portfolio(7);
        let a = p.run();
        let b = p.run();
        assert_eq!(a, b, "back-to-back races must be identical");
        assert!(a.target_met);
        assert!(a.coverage >= 0.9);
        assert!(!a.profile.is_empty());
        assert!(a.makespan.as_ms() >= a.winner_cost.as_ms());
        assert_eq!(a.lanes.len(), 3);
    }

    #[test]
    fn launch_order_does_not_change_the_outcome() {
        let p = quick_portfolio(7);
        let natural = p.run();
        let reversed = p.run_ordered(&[2, 1, 0]);
        assert_eq!(natural, reversed);
    }

    #[test]
    fn winner_matches_the_best_solo_candidate() {
        let p = quick_portfolio(9);
        let race = p.run();
        let solos: Vec<SoloRun> = (0..3).map(|i| p.run_solo(i)).collect();
        let best = solos
            .iter()
            .filter(|s| s.met)
            .min_by(|a, b| {
                a.cost
                    .as_ms()
                    .total_cmp(&b.cost.as_ms())
                    .then_with(|| a.spec.sort_key().cmp(&b.spec.sort_key()))
            })
            .expect("invariant: some candidate meets the target in this fixture");
        assert_eq!(race.winner, best.spec);
        assert_eq!(race.winner_cost, best.cost);
        // The race's makespan never exceeds the bound by more than one
        // pass (plus an aborted settle can only charge the bound itself).
        let max_unit = solos
            .iter()
            .map(|s| s.spec.unit_cost(p.target().conditions).as_ms())
            .fold(0.0f64, f64::max);
        assert!(race.makespan.as_ms() <= best.cost.as_ms() + max_unit);
    }

    #[test]
    fn fallback_winner_when_no_candidate_meets_the_target() {
        // A 1-iteration budget at nearly-full coverage: nobody meets it.
        let p = Portfolio::new(
            Vendor::B,
            1,
            64,
            11,
            RaceTarget::new(
                TargetConditions::new(Ms::new(512.0), Celsius::new(45.0)),
                1.0,
                0.0,
            ),
            PatternSet::Standard,
            vec![
                StrategySpec::new(ReachConditions::brute_force(), 1),
                StrategySpec::new(ReachConditions::interval_offset(Ms::new(128.0)), 1),
            ],
        );
        let out = p.run();
        assert!(!out.target_met);
        assert_eq!(out.cancelled_lanes(), 0, "no post means no cancellation");
        assert_eq!(out, p.run());
        // Fallback prefers coverage; both lanes report full data.
        for lane in &out.lanes {
            assert!(lane.coverage.is_some());
        }
    }

    #[test]
    fn default_candidate_set_races_clean() {
        let target = RaceTarget::new(
            TargetConditions::new(Ms::new(512.0), Celsius::new(45.0)),
            0.85,
            1.0,
        );
        let p = Portfolio::new(
            Vendor::B,
            1,
            64,
            5,
            target,
            PatternSet::Standard,
            default_candidates(6),
        );
        let out = p.run();
        assert_eq!(out.lanes.len(), 7);
        // Canonical report order is the intrinsic key order.
        let keys: Vec<_> = out.lanes.iter().map(|l| l.spec.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(out, p.run());
    }

    #[test]
    fn charged_abort_lands_on_the_first_boundary_past_the_bound() {
        let unit = Ms::new(100.0);
        // Bound 450, no settle: first boundary past it is pass 5 = 500.
        assert_eq!(charged_abort(Ms::ZERO, unit, Ms::new(450.0)), Ms::new(500.0));
        // Exactly on a boundary: must go strictly past.
        assert_eq!(charged_abort(Ms::ZERO, unit, Ms::new(400.0)), Ms::new(500.0));
        // Settle alone exceeds the bound: charge the bound (aborted move).
        assert_eq!(
            charged_abort(Ms::new(900.0), unit, Ms::new(450.0)),
            Ms::new(450.0)
        );
        // Settle below the bound: boundaries are settle + k·unit.
        assert_eq!(
            charged_abort(Ms::new(50.0), unit, Ms::new(450.0)),
            Ms::new(550.0)
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_candidates_rejected() {
        let t = RaceTarget::new(TargetConditions::paper_example(), 0.9, 1.0);
        Portfolio::new(
            Vendor::B,
            1,
            64,
            1,
            t,
            PatternSet::Standard,
            vec![
                StrategySpec::new(ReachConditions::brute_force(), 4),
                StrategySpec::new(ReachConditions::brute_force(), 4),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_launch_order_rejected() {
        quick_portfolio(1).run_ordered(&[0, 0, 1]);
    }
}
