//! The racing determinism contract, property-tested: the portfolio's
//! winner and returned profile are byte-identical across thread counts
//! {1, 4}, candidate orderings, and prior states, and agree with a
//! sequential run-every-candidate reference. One plain test pins the
//! race's logical cost against its solo baselines at a fixed operating
//! point.

// Logical costs are sums of whole-millisecond pass costs, exact in f64,
// so the pinned figures compare with `==`.
#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::float_cmp
)]

use proptest::prelude::*;

use reaper_core::{PatternSet, ReachConditions, TargetConditions};
use reaper_dram_model::{Celsius, Ms, Vendor};
use reaper_exec::set_thread_count;
use reaper_portfolio::{
    Portfolio, PortfolioRequest, PriorStore, RaceOutcome, RaceTarget, SoloRun, Strategy,
    StrategySpec,
};

fn portfolio(seed: u64, coverage_goal: f64) -> Portfolio {
    Portfolio::new(
        Vendor::B,
        1,
        64,
        seed,
        RaceTarget::new(
            TargetConditions::new(Ms::new(512.0), Celsius::new(45.0)),
            coverage_goal,
            1.0,
        ),
        PatternSet::Standard,
        vec![
            StrategySpec::new(ReachConditions::brute_force(), 6),
            StrategySpec::new(ReachConditions::interval_offset(Ms::new(128.0)), 6),
            StrategySpec::new(ReachConditions::interval_offset(Ms::new(256.0)), 6),
            StrategySpec::new(ReachConditions::temp_offset(5.0), 6),
        ],
    )
}

/// Decodes `code` into a permutation of `0..n` (Lehmer-style), so any
/// u64 names a valid candidate ordering without needing a shuffle
/// strategy.
fn permutation(mut code: u64, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for remaining in (1..=n).rev() {
        let pick = usize::try_from(code % remaining as u64).expect("remaining ≤ n");
        code /= remaining as u64;
        out.push(pool.remove(pick));
    }
    out
}

/// Decodes `code` into an arbitrary prior state: up to 8 recorded wins
/// spread across the strategy families.
fn priors_from(mut code: u64) -> PriorStore {
    let mut store = PriorStore::new();
    let wins = code % 9;
    for _ in 0..wins {
        code = code.wrapping_mul(6364136223846793005).wrapping_add(1);
        let strategy = Strategy::ALL[usize::try_from(code % 4).expect("0..4 fits")];
        store.record_win(Vendor::B, strategy);
    }
    store
}

/// The cheapest candidate that met the target solo, ties broken by the
/// intrinsic key — the oracle a race can at most tie.
fn best_met_solo(solos: &[SoloRun]) -> Option<&SoloRun> {
    solos.iter().filter(|s| s.met).min_by(|a, b| {
        a.cost
            .as_ms()
            .total_cmp(&b.cost.as_ms())
            .then_with(|| a.spec.sort_key().cmp(&b.spec.sort_key()))
    })
}

/// Runs the race under an explicit thread count, restoring the default
/// afterwards even on panic.
fn race_at(threads: usize, p: &Portfolio, order: &[usize]) -> RaceOutcome {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_count(None);
        }
    }
    let _restore = Restore;
    set_thread_count(Some(threads));
    p.run_ordered(order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn race_outcome_is_invariant_to_threads_orderings_and_priors(
        seed in 1u64..64,
        order_code in any::<u64>(),
        prior_code in any::<u64>(),
    ) {
        let p = portfolio(seed, 0.9);
        let n = p.candidates().len();

        // Sequential run-all reference: every candidate solo, winner by
        // (met, cost, intrinsic key) — the race must agree exactly.
        let solos: Vec<SoloRun> = (0..n).map(|i| p.run_solo(i)).collect();
        let reference = p.run();

        if let Some(best) = best_met_solo(&solos) {
            prop_assert!(reference.target_met);
            prop_assert_eq!(reference.winner, best.spec);
            prop_assert_eq!(reference.winner_cost, best.cost);
        } else {
            prop_assert!(!reference.target_met);
        }

        let order = permutation(order_code, n);
        let priors = priors_from(prior_code);
        let prior_order = priors.launch_order(Vendor::B, p.candidates());

        for threads in [1usize, 4] {
            for launch in [&order, &prior_order] {
                let raced = race_at(threads, &p, launch);
                prop_assert_eq!(&raced, &reference,
                    "threads={} launch={:?}", threads, launch);
                prop_assert_eq!(
                    raced.profile.to_bytes(),
                    reference.profile.to_bytes(),
                    "profile bytes diverged at threads={}", threads
                );
            }
        }
    }

    #[test]
    fn unreachable_targets_still_race_deterministically(
        seed in 1u64..16,
        order_code in any::<u64>(),
    ) {
        // Perfect coverage at zero FPR within one iteration: nobody can
        // meet it, so the fallback path is exercised.
        let p = Portfolio::new(
            Vendor::B,
            1,
            64,
            seed,
            RaceTarget::new(
                TargetConditions::new(Ms::new(512.0), Celsius::new(45.0)),
                1.0,
                0.0,
            ),
            PatternSet::Standard,
            vec![
                StrategySpec::new(ReachConditions::brute_force(), 1),
                StrategySpec::new(ReachConditions::interval_offset(Ms::new(128.0)), 1),
                StrategySpec::new(ReachConditions::interval_offset(Ms::new(256.0)), 1),
            ],
        );
        let reference = p.run();
        prop_assert!(!reference.target_met);
        let order = permutation(order_code, 3);
        for threads in [1usize, 4] {
            let raced = race_at(threads, &p, &order);
            prop_assert_eq!(&raced, &reference);
        }
    }
}

#[test]
fn race_costs_at_most_five_percent_over_the_best_solo_and_far_below_the_grid() {
    // Standard patterns and a tight false-positive budget that the
    // aggressive reach lanes blow through within their first iteration,
    // so the brute-force control lane wins over many passes while the
    // race cancels the six losers at their pass boundaries. Every cost
    // is logical (`CostModel` pass accounting), so every number here is
    // a function of the seed.
    let mut request = PortfolioRequest::example(7);
    request.rounds = 40;
    request.capacity_den = 8;
    request.coverage_goal = 0.97;
    request.max_fpr = 0.5;
    let p = request.to_portfolio().expect("valid request");
    let n = p.candidates().len();

    let solos: Vec<SoloRun> = (0..n).map(|i| p.run_solo(i)).collect();
    let grid_ms: f64 = solos.iter().map(|s| s.cost.as_ms()).sum();
    let best = best_met_solo(&solos).expect("some candidate meets the target");

    let order: Vec<usize> = (0..n).collect();
    let race = race_at(1, &p, &order);
    for _ in 0..2 {
        assert_eq!(race_at(1, &p, &order), race, "race must repeat bit-identically");
    }
    let race_4t = race_at(4, &p, &order);
    assert_eq!(race_4t, race, "race outcome must be thread-count invariant");
    assert_eq!(race_4t.profile.to_bytes(), race.profile.to_bytes());

    let makespan_ms = race.makespan.as_ms();
    assert!(
        makespan_ms <= 1.05 * best.cost.as_ms(),
        "makespan {makespan_ms} ms exceeds 1.05x the best solo {} ms",
        best.cost.as_ms()
    );
    assert!(makespan_ms < grid_ms, "makespan {makespan_ms} ms >= grid {grid_ms} ms");

    // The numbers EXPERIMENTS.md quotes.
    assert_eq!(race.winner, best.spec);
    assert_eq!(makespan_ms, 14_252.0);
    assert_eq!(best.cost.as_ms(), 13_716.0);
    assert_eq!(grid_ms, 3_917_556.0);
    assert_eq!(race.cancelled_lanes(), 6);
}
