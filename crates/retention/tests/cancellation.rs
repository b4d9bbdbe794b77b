//! Prefix bit-identity of the cancellable trial schedule: whatever a
//! cancelled run returns must be an exact prefix of the uncancelled run's
//! outcomes, and a pre-cancelled token must stop the run before any
//! kernel batch executes.

use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_retention::{RetentionConfig, SimulatedChip, MAX_BATCH_ROUNDS};

fn small_chip(seed: u64) -> SimulatedChip {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 64);
    SimulatedChip::new(cfg, seed)
}

/// `n` trials at one fixed condition, as a schedule.
fn fixed_schedule(n: usize) -> Vec<(DataPattern, Ms, Celsius)> {
    vec![(DataPattern::checkerboard(), Ms::new(2048.0), Celsius::new(45.0)); n]
}

#[test]
fn pre_cancelled_run_produces_nothing() {
    let mut chip = small_chip(7);
    let token = CancelToken::new();
    token.cancel();
    let run = chip.retention_trial_schedule(&fixed_schedule(12), &token);
    assert!(run.cancelled);
    assert!(run.outcomes.is_empty(), "no batch may run after a pre-cancel");
}

#[test]
fn mid_run_cancellation_returns_a_bit_identical_prefix_of_whole_batches() {
    // Reference: the full uncancelled run, three kernel batches long.
    let n = 2 * MAX_BATCH_ROUNDS + 8;
    let mut reference = small_chip(7);
    let full = reference.retention_trial_rounds(
        DataPattern::checkerboard(),
        Ms::new(2048.0),
        Celsius::new(45.0),
        u32::try_from(n).expect("small"),
    );
    assert_eq!(full.len(), n);

    // Cancelled run: a helper thread races the kernel; wherever the stop
    // lands, the result must be an exact prefix, in whole batches.
    let mut chip = small_chip(7);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || token.cancel())
    };
    let run = chip.retention_trial_schedule(&fixed_schedule(n), &token);
    canceller.join().expect("canceller thread");
    assert!(
        run.outcomes.len().is_multiple_of(MAX_BATCH_ROUNDS) || run.outcomes.len() == n,
        "cancellation lands on batch boundaries"
    );
    assert_eq!(
        run.outcomes.as_slice(),
        &full[..run.outcomes.len()],
        "cancelled outcomes must be a bit-identical prefix"
    );
    assert_eq!(run.cancelled, run.outcomes.len() < n);
}

#[test]
fn schedule_cancellation_returns_a_bit_identical_schedule_prefix() {
    // Two recurring conditions run as kernel groups, one across the batch
    // boundary; random patterns seen once route as single trials, a
    // pattern followed by its inverse as a pair.
    let (interval, temp) = (Ms::new(2048.0), Celsius::new(45.0));
    let mut schedule = Vec::new();
    for i in 0..MAX_BATCH_ROUNDS + 8 {
        let pattern = if i % 2 == 0 {
            DataPattern::checkerboard()
        } else {
            DataPattern::solid1()
        };
        schedule.push((pattern, interval, temp));
        if i % 8 == 3 {
            let random = DataPattern::random(i as u64);
            schedule.extend([(random, interval, temp), (random.inverse(), interval, temp)]);
        } else if i % 8 == 6 {
            schedule.push((DataPattern::random(1000 + i as u64), Ms::new(1536.0), temp));
        }
    }

    let mut reference = small_chip(11);
    reference.advance(Ms::from_hours(4.0));
    let full = reference.retention_trial_schedule(&schedule, &CancelToken::new()).outcomes;
    assert_eq!(full.len(), schedule.len());

    // A helper thread races the run after a seeded spin; wherever the
    // stop lands, the result must be an exact prefix.
    let mut spins = reaper_exec::rng::stream(&[0xCA7C]);
    for _ in 0..8 {
        let spin = spins.next_u64() % 40_000;
        let mut chip = small_chip(11);
        chip.advance(Ms::from_hours(4.0));
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                token.cancel();
            })
        };
        let run = chip.retention_trial_schedule(&schedule, &token);
        canceller.join().expect("canceller thread");
        assert_eq!(
            run.outcomes.as_slice(),
            &full[..run.outcomes.len()],
            "cancelled schedule outcomes must be a bit-identical prefix (spin {spin})"
        );
        assert_eq!(run.cancelled, run.outcomes.len() < schedule.len());
    }
}
