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

use reaper_core::merge_sorted_union;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip};

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
