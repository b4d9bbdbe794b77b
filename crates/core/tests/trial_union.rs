//! `SimulatedChip::retention_trial_union` against the loop it replaces:
//! one `retention_trial` per pattern on a clone of the chip, each outcome
//! merged into the union with `merge_sorted_union`, as the Fig. 4
//! accumulation study and the profiler merge them.
//!
//! The chip is arrival-heavy (a full-capacity Vendor B chip at 3,072 ms,
//! thousands of active VRT arrivals), its clock moves by hours and by
//! nothing between unions, and the unions walk every trial route: the
//! window scan on first sightings, the lowered scan on jittered
//! temperatures, and compiled plans on recurring conditions.
//!
//! A union runs a pattern followed by its inverse as a pair: one window
//! walk when both are first sighted, one compile walk when both compile,
//! one trial at a time otherwise. The second test drives pairs through
//! each of those route combinations, and through unions whose patterns
//! do not pair. A pattern repeated within a union is a group that
//! compiles at once, so only there do the union's routing counters part
//! from the loop's, by exactly one trial moved from the scan to the plan.

use reaper_core::merge_sorted_union;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip};

#[test]
fn union_equals_the_merged_trial_loop_on_every_route() {
    let interval = Ms::new(3072.0);
    let mut chip = SimulatedChip::new(RetentionConfig::for_vendor(Vendor::B), 0x0411);
    let mut reference = chip.clone();
    for step in 0..6u64 {
        // Every third step repeats the clock: its unions draw no arrivals.
        let dt = Ms::from_hours(if step % 3 == 2 { 0.0 } else { 8.0 });
        chip.advance(dt);
        reference.advance(dt);
        for temp in [60.0, 60.0 + 0.01 * step as f64] {
            let temp = Celsius::new(temp);
            let patterns = DataPattern::standard_set(step);
            let got = chip.retention_trial_union(&patterns, interval, temp);
            let mut want = Vec::new();
            for &p in &patterns {
                merge_sorted_union(&mut want, &mut reference.retention_trial(p, interval, temp).into_vec());
            }
            assert_eq!(got.failures(), want.as_slice(), "step {step} at {temp}");
            assert_eq!(chip.plan_stats(), reference.plan_stats(), "step {step} at {temp}");
            assert_eq!(chip.arrival_count(), reference.arrival_count());
        }
    }
    let s = chip.plan_stats();
    assert!(
        s.scalar_trials > 0 && s.lowered_trials > 0 && s.plan_trials > 0,
        "every route must serve trials: {s:?}"
    );
    assert!(chip.arrival_count() > 1000, "arrival-heavy: {}", chip.arrival_count());

    // An empty union runs nothing, and the two chips stay in step.
    let (p, temp) = (DataPattern::checkerboard(), Celsius::new(60.0));
    assert!(chip.retention_trial_union(&[], interval, temp).is_empty());
    assert_eq!(chip.plan_stats(), reference.plan_stats());
    chip.advance(Ms::from_hours(1.0));
    reference.advance(Ms::from_hours(1.0));
    assert_eq!(
        chip.retention_trial(p, interval, temp),
        reference.retention_trial(p, interval, temp)
    );
}

/// Runs `patterns` as one union on `chip` and as a `retention_trial` loop
/// on `reference`, checks that the two agree on the failures, the routing
/// counters and the arrivals, and returns what the union added to the
/// counters: trials by the scan, the lowered scan and plans, and plans
/// compiled.
fn union_step(
    chip: &mut SimulatedChip,
    reference: &mut SimulatedChip,
    patterns: &[DataPattern],
    interval: Ms,
    temp: Celsius,
) -> [u64; 4] {
    let counters = |s: PlanStats| [s.scalar_trials, s.lowered_trials, s.plan_trials, s.plans_compiled];
    let before = counters(chip.plan_stats());
    let got = chip.retention_trial_union(patterns, interval, temp);
    let mut want = Vec::new();
    for &p in patterns {
        merge_sorted_union(&mut want, &mut reference.retention_trial(p, interval, temp).into_vec());
    }
    let label = format!("{patterns:?} at {temp}");
    assert_eq!(got.failures(), want.as_slice(), "{label}");
    assert_eq!(chip.plan_stats(), reference.plan_stats(), "{label}");
    assert_eq!(chip.arrival_count(), reference.arrival_count(), "{label}");
    let mut grown = counters(chip.plan_stats());
    for (count, before) in grown.iter_mut().zip(before) {
        *count -= before;
    }
    grown
}

#[test]
fn pairs_match_the_trial_loop_on_every_route_combination() {
    let interval = Ms::new(2048.0);
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 4);
    let mut chip = SimulatedChip::new(cfg, 0x9A15);
    let mut reference = chip.clone();
    let [t0, t1] = [Celsius::new(60.0), Celsius::new(60.25)];
    for step in 0..3u64 {
        // Hours between steps draw arrivals; the last step repeats the
        // clock.
        let dt = Ms::from_hours(if step == 2 { 0.0 } else { 6.0 });
        chip.advance(dt);
        reference.advance(dt);
        let mut run = |patterns: &[DataPattern], temp| union_step(&mut chip, &mut reference, patterns, interval, temp);
        // Patterns new to the chip at each step, so first sightings recur.
        let walk = DataPattern::walking1(step);
        let pair = [walk, walk.inverse()];

        // [scan, lowered, plan] trials and plans compiled. Both members
        // first sighted: one window walk.
        assert_eq!(run(&pair, t0), [2, 0, 0, 0], "step {step}");
        // Both second sighted: one compile walk, then two plan trials.
        assert_eq!(run(&pair, t0), [0, 0, 2, 2], "step {step}");
        // Both planned.
        assert_eq!(run(&pair, t0), [0, 0, 2, 0], "step {step}");
        // Both lowered: each pattern recurs at a jittered temperature.
        assert_eq!(run(&[walk.inverse(), walk], t1), [0, 2, 0, 0], "step {step}");
        // One member planned, the other compiled on this sighting.
        assert_eq!(run(&[walk.inverse()], t1), [0, 0, 1, 1], "step {step}");
        assert_eq!(run(&pair, t1), [0, 0, 2, 1], "step {step}");

        // One member planned, the other first sighted.
        let stripe = [DataPattern::checkerboard(), DataPattern::row_stripe(), DataPattern::col_stripe()]
            [usize::try_from(step).expect("three steps")];
        let temp = Celsius::new(50.0 + step as f64);
        assert_eq!(run(&[stripe], temp), [1, 0, 0, 0], "step {step}");
        assert_eq!(run(&[stripe], temp), [0, 0, 1, 1], "step {step}");
        assert_eq!(run(&[stripe, stripe.inverse()], temp), [1, 0, 1, 0], "step {step}");

        // One member lowered, the other first sighted.
        let random = DataPattern::random(step);
        assert_eq!(run(&[random.inverse()], t0), [1, 0, 0, 0], "step {step}");
        assert_eq!(run(&[random, random.inverse()], t1), [1, 1, 0, 0], "step {step}");

        // Unions that do not pair: a pattern followed by another, an odd
        // trailing pattern.
        let [first, second, odd, twice] = [100, 200, 300, 400].map(|seed| DataPattern::random(seed + step));
        assert_eq!(run(&[first, second], t0), [2, 0, 0, 0], "step {step}");
        assert_eq!(run(&[odd, odd.inverse(), second.inverse()], t0), [3, 0, 0, 0], "step {step}");

        // The same pattern twice is a group of two, which compiles before
        // its first trial and runs both on the plan, where the loop scans
        // the first and compiles on the second:
        // one trial moves from the scan to the plan, and no other counter
        // moves. It runs on clones, so the chips stay in step for the
        // unions above.
        let (mut union, mut looped) = (chip.clone(), reference.clone());
        let before = union.plan_stats();
        let got = union.retention_trial_union(&[twice, twice], interval, t1);
        let mut want = looped.retention_trial(twice, interval, t1).into_vec();
        merge_sorted_union(&mut want, &mut looped.retention_trial(twice, interval, t1).into_vec());
        assert_eq!(got.failures(), want.as_slice(), "step {step}");
        let grown = |[scalar, plan]: [u64; 2]| PlanStats {
            scalar_trials: before.scalar_trials + scalar,
            plan_trials: before.plan_trials + plan,
            batch_rounds: before.batch_rounds + plan,
            plans_compiled: before.plans_compiled + 1,
            ..before
        };
        assert_eq!(union.plan_stats(), grown([0, 2]), "step {step}");
        assert_eq!(looped.plan_stats(), grown([1, 1]), "step {step}");
        assert_eq!(union.arrival_count(), looped.arrival_count(), "step {step}");
        assert_eq!(
            union.retention_trial_reference(twice, interval, t1),
            looped.retention_trial_reference(twice, interval, t1),
            "step {step}"
        );
    }
    assert!(chip.arrival_count() > 0, "arrivals must take part");
}
