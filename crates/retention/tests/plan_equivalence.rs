//! Property test: the trial-plan engines are bit-identical to the scalar
//! path.
//!
//! Random (vendor, seed, trial script) triples are replayed on fresh chips
//! through every [`TrialEngine`] at 1 and 4 worker threads, and the full
//! outcome transcripts must be byte-equal to the scalar single-thread
//! reference. The same scripts are then replayed through the multi-round
//! batch entry point at batch caps 1, 7, and 64 — covering single-round
//! batches, partial planes, and full 64-bit planes — and must match the
//! same reference byte for byte. Scripts include repeated conditions (so
//! the Auto engine promotes through scalar → compile → cache-hit within
//! one run), occasional 60–70-round repeat bursts (so batched replays
//! cross the 64-round plane boundary mid-step), time advances (VRT chain
//! evolution + Poisson arrival merges, with compiled plans kept across
//! them), and condition changes (multiple live plans per chip).
//!
//! `reaper_exec::set_thread_count` mutates process-global state, so — per
//! the workspace convention — exactly one test in this binary touches it.
//! The schedule-equivalence test below runs at the default thread count.

use proptest::prelude::*;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip, TrialEngine};

const VENDORS: [Vendor; 3] = [Vendor::A, Vendor::B, Vendor::C];
const INTERVALS_MS: [f64; 4] = [512.0, 1024.0, 2048.0, 3000.0];
const TEMPS_C: [f64; 3] = [45.0, 60.0, 70.0];
/// Hours advanced before a step: 0 keeps the clock still, the others let
/// VRT chains and arrivals evolve under plans compiled before the step.
const ADVANCES_H: [f64; 3] = [0.0, 0.5, 2.0];
/// Batch caps replayed against the scalar reference: single-round
/// batches, a partial plane, and the full 64-bit plane.
const BATCH_CAPS: [usize; 3] = [1, 7, 64];

/// One trial-script step: indices into the tables above, plus a repeat
/// code (see [`repeats_of`]).
type Step = (u64, usize, usize, usize, u64);

fn pattern_of(code: u64) -> DataPattern {
    match code % 6 {
        0 => DataPattern::solid0(),
        1 => DataPattern::checkerboard(),
        2 => DataPattern::row_stripe(),
        3 => DataPattern::col_stripe(),
        4 => DataPattern::walking1((code / 6) % 8),
        _ => DataPattern::random(code),
    }
}

/// Maps a repeat code to a repeat count: mostly 1–2 (cheap, exercises
/// plan promotion), occasionally 60 or 66 — a near-full plane, and one
/// that forces a 64-cap batched replay to split the step across two
/// bit-planes.
fn repeats_of(code: u64) -> u64 {
    if code >= 10 {
        code * 6
    } else {
        1 + code % 2
    }
}

/// Decodes one step into its trial parameters, advancing the chip clock
/// first when the step asks for it.
fn apply_step(
    chip: &mut SimulatedChip,
    step: &Step,
) -> (DataPattern, Ms, Celsius, u64) {
    let &(pattern_code, interval_i, temp_i, advance_i, repeat_code) = step;
    // The generators bound every index, so the fallbacks never fire;
    // they just keep this helper panic-free outside a #[test] body.
    let hours = ADVANCES_H.get(advance_i).copied().unwrap_or(0.0);
    if hours > 0.0 {
        chip.advance(Ms::from_hours(hours));
    }
    let pattern = pattern_of(pattern_code);
    let interval = Ms::new(INTERVALS_MS.get(interval_i).copied().unwrap_or(1024.0));
    let temp = Celsius::new(TEMPS_C.get(temp_i).copied().unwrap_or(60.0));
    (pattern, interval, temp, repeats_of(repeat_code))
}

/// Replays `steps` on a fresh chip with the given engine and thread count,
/// returning the concatenated failure transcripts.
fn run_script(
    cfg: &RetentionConfig,
    seed: u64,
    engine: TrialEngine,
    threads: usize,
    steps: &[Step],
) -> Vec<Vec<u64>> {
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), seed);
    chip.set_trial_engine(engine);
    let mut transcript = Vec::new();
    for step in steps {
        let (pattern, interval, temp, repeats) = apply_step(&mut chip, step);
        for _ in 0..repeats {
            transcript.push(chip.retention_trial(pattern, interval, temp).into_vec());
        }
    }
    transcript
}

/// Replays `steps` on a fresh chip through the multi-round batch entry
/// point: each step's repeats are submitted as one
/// `retention_trial_batches` call with the given per-pass cap.
fn run_script_batched(
    cfg: &RetentionConfig,
    seed: u64,
    threads: usize,
    max_batch: usize,
    steps: &[Step],
) -> Vec<Vec<u64>> {
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), seed);
    let mut transcript = Vec::new();
    for step in steps {
        let (pattern, interval, temp, repeats) = apply_step(&mut chip, step);
        let rounds = u32::try_from(repeats).unwrap_or(u32::MAX);
        for outcome in chip.retention_trial_batches(pattern, interval, temp, rounds, max_batch) {
            transcript.push(outcome.into_vec());
        }
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_engine_matches_scalar_bit_for_bit(
        seed in 0u64..10_000,
        vendor_i in 0usize..3,
        steps in proptest::collection::vec(
            (0u64..24, 0usize..4, 0usize..3, 0usize..3, 0u64..12),
            3..8,
        ),
    ) {
        let cfg = RetentionConfig::for_vendor(VENDORS[vendor_i]).with_capacity_scale(1, 64);
        let reference = run_script(&cfg, seed, TrialEngine::Scalar, 1, &steps);
        prop_assert!(
            reference.iter().any(|t| !t.is_empty()),
            "degenerate script: no step produced failures"
        );
        for engine in [
            TrialEngine::Scalar,
            TrialEngine::Auto,
            TrialEngine::Lowered,
            TrialEngine::Compiled,
            TrialEngine::Batch,
        ] {
            for threads in [1usize, 4] {
                let got = run_script(&cfg, seed, engine, threads, &steps);
                prop_assert_eq!(
                    &got, &reference,
                    "transcript diverged: engine {:?}, {} thread(s), vendor {:?}, seed {}",
                    engine, threads, VENDORS[vendor_i], seed
                );
            }
        }
        for max_batch in BATCH_CAPS {
            for threads in [1usize, 4] {
                let got = run_script_batched(&cfg, seed, threads, max_batch, &steps);
                prop_assert_eq!(
                    &got, &reference,
                    "batched transcript diverged: cap {}, {} thread(s), vendor {:?}, seed {}",
                    max_batch, threads, VENDORS[vendor_i], seed
                );
            }
        }
        reaper_exec::set_thread_count(None);
    }
}

/// The heterogeneous-schedule entry point must match a sequential
/// `retention_trial` loop over the same entries, at every batch cap.
/// Runs at the default thread count (the proptest above owns this
/// binary's one `set_thread_count` slot).
#[test]
fn schedule_matches_sequential_loop() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
    let mut schedule = Vec::new();
    for rep in 0..3u64 {
        schedule.push((DataPattern::checkerboard(), Ms::new(1024.0), Celsius::new(60.0)));
        schedule.push((DataPattern::solid0(), Ms::new(2048.0), Celsius::new(60.0)));
        schedule.push((DataPattern::row_stripe(), Ms::new(1024.0), Celsius::new(75.0)));
        schedule.push((DataPattern::random(rep), Ms::new(1536.0), Celsius::new(60.0)));
        schedule.push((DataPattern::checkerboard(), Ms::new(1024.0), Celsius::new(60.0)));
    }

    let mut reference_chip = SimulatedChip::new(cfg.clone(), 4242);
    reference_chip.advance(Ms::from_hours(1.0));
    let reference: Vec<Vec<u64>> = schedule
        .iter()
        .map(|&(p, i, t)| reference_chip.retention_trial(p, i, t).into_vec())
        .collect();
    assert!(
        reference.iter().any(|t| !t.is_empty()),
        "degenerate schedule: no entry produced failures"
    );

    for max_batch in BATCH_CAPS {
        let mut chip = SimulatedChip::new(cfg.clone(), 4242);
        chip.advance(Ms::from_hours(1.0));
        let got: Vec<Vec<u64>> = chip
            .retention_trial_schedule(&schedule, max_batch)
            .into_iter()
            .map(|o| o.into_vec())
            .collect();
        assert_eq!(got, reference, "schedule diverged at cap {max_batch}");
    }
}

/// Compiled plans are never invalidated: a plan compiled before the first
/// clock step serves every trial through advances and VRT arrivals with
/// no recompile, byte-equal to a scalar replay of the same script.
#[test]
fn plans_survive_advances_and_arrivals() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
    let pattern = DataPattern::checkerboard();
    let (interval, temp) = (Ms::new(2048.0), Celsius::new(60.0));
    let run = |engine| {
        let mut chip = SimulatedChip::new(cfg.clone(), 4343);
        chip.set_trial_engine(engine);
        let mut transcript = vec![chip.retention_trial(pattern, interval, temp).into_vec()];
        while chip.arrival_count() == 0 {
            assert!(transcript.len() <= 64, "no VRT arrival after 64 advances");
            chip.advance(Ms::from_hours(8.0));
            transcript.push(chip.retention_trial(pattern, interval, temp).into_vec());
        }
        transcript.push(chip.retention_trial(pattern, interval, temp).into_vec());
        (transcript, chip.plan_stats())
    };
    let (transcript, stats) = run(TrialEngine::Compiled);
    assert_eq!(
        stats.plans_compiled, 1,
        "a clock step or an arrival recompiled the plan"
    );
    assert_eq!(stats.plan_trials, transcript.len() as u64);
    assert_eq!(stats.invalidations, 0);
    assert_eq!(transcript, run(TrialEngine::Scalar).0);
}
