//! Every trial path is bit-identical to the reference window scan.
//!
//! Two scripts are replayed on fresh chips through
//! `retention_trial_reference` at 1 and 4 worker threads, through the
//! production `retention_trial` at 1 and 4 threads, and through the
//! multi-round `retention_trial_rounds` form at 1 and 4 threads. Every
//! transcript must be byte-equal to the single-thread reference.
//!
//! * The steady-state script (`common`): a Vendor B chip at 1/8 capacity
//!   under one condition — warm-up trials that compile the plan, 12
//!   rounds, a one-hour `advance`, two more rounds. It also pins the plan
//!   count: none on the reference path, exactly one on the others.
//! * Random (vendor, seed, trial script) triples. Scripts include
//!   repeated conditions (so production trials walk scan → compile →
//!   cache hit within one run), occasional 60- and 66-round repeat bursts
//!   (so the rounds form fills a near-full 64-bit plane and crosses the
//!   plane boundary mid-step), time advances (VRT chain evolution +
//!   Poisson arrival merges, with compiled plans kept across them), and
//!   condition changes (multiple live plans per chip).
//!
//! `reaper_exec::set_thread_count` mutates process-global state, so — per
//! the workspace convention — exactly one test in this binary touches it
//! and runs both scripts. The other tests run at the default thread count.

// Test code may panic on failure; the random-script property is called
// from a `#[test]` rather than being one, so clippy's in-tests knobs miss it.
#![allow(clippy::indexing_slicing)]

mod common;

use proptest::prelude::*;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip, TrialOutcome};

use common::{run_steady_script, Path};

const VENDORS: [Vendor; 3] = [Vendor::A, Vendor::B, Vendor::C];
const INTERVALS_MS: [f64; 4] = [512.0, 1024.0, 2048.0, 3000.0];
const TEMPS_C: [f64; 3] = [45.0, 60.0, 70.0];
/// Hours advanced before a step: 0 keeps the clock still, the others let
/// VRT chains and arrivals evolve under plans compiled before the step.
const ADVANCES_H: [f64; 3] = [0.0, 0.5, 2.0];

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
/// that forces the rounds form to split the step across two bit-planes.
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

/// Replays `steps` on a fresh chip through `path` at the given thread
/// count, returning the concatenated failure transcripts.
fn run_script(
    cfg: &RetentionConfig,
    seed: u64,
    path: Path,
    threads: usize,
    steps: &[Step],
) -> Vec<Vec<u64>> {
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), seed);
    let mut transcript = Vec::new();
    for step in steps {
        let (pattern, interval, temp, repeats) = apply_step(&mut chip, step);
        match path {
            Path::Reference | Path::Single => {
                for _ in 0..repeats {
                    let outcome = match path {
                        Path::Reference => chip.retention_trial_reference(pattern, interval, temp),
                        _ => chip.retention_trial(pattern, interval, temp),
                    };
                    transcript.push(outcome.into_vec());
                }
            }
            Path::Rounds => {
                let rounds = u32::try_from(repeats).unwrap_or(u32::MAX);
                for outcome in chip.retention_trial_rounds(pattern, interval, temp, rounds) {
                    transcript.push(outcome.into_vec());
                }
            }
        }
    }
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Not a `#[test]` of its own: the thread-count test below runs it.
    fn random_scripts_match_the_reference(
        seed in 0u64..10_000,
        vendor_i in 0usize..3,
        steps in proptest::collection::vec(
            (0u64..24, 0usize..4, 0usize..3, 0usize..3, 0u64..12),
            3..8,
        ),
    ) {
        let cfg = RetentionConfig::for_vendor(VENDORS[vendor_i]).with_capacity_scale(1, 64);
        let reference = run_script(&cfg, seed, Path::Reference, 1, &steps);
        prop_assert!(
            reference.iter().any(|t| !t.is_empty()),
            "degenerate script: no step produced failures"
        );
        for path in Path::ALL {
            for threads in [1usize, 4] {
                let got = run_script(&cfg, seed, path, threads, &steps);
                prop_assert_eq!(
                    &got, &reference,
                    "transcript diverged: {:?} path, {} thread(s), vendor {:?}, seed {}",
                    path, threads, VENDORS[vendor_i], seed
                );
            }
        }
    }
}

/// The steady-state script on a 1/8-capacity Vendor B chip, 12 rounds:
/// every path at 1 and 4 threads replays the 1-thread reference, and only
/// the kernel paths compile a plan — exactly one, kept across the
/// `advance`.
fn steady_script_matches_the_reference() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 8);
    let reference = run_steady_script(&cfg, Path::Reference, 1, 12);
    assert!(
        reference.transcript.iter().any(|t| !t.is_empty()),
        "degenerate script: no trial produced failures"
    );
    for path in Path::ALL {
        for threads in [1usize, 4] {
            let run = run_steady_script(&cfg, path, threads, 12);
            assert_eq!(
                run.transcript, reference.transcript,
                "steady-state transcript diverged: {path:?} path, {threads} thread(s)"
            );
            let compiled = u64::from(path != Path::Reference);
            assert_eq!(
                run.stats.plans_compiled, compiled,
                "{path:?} path, {threads} thread(s): plans compiled"
            );
        }
    }
}

/// The one test in this binary that sets the worker thread count.
#[test]
fn every_path_matches_the_reference_bit_for_bit() {
    steady_script_matches_the_reference();
    random_scripts_match_the_reference();
    reaper_exec::set_thread_count(None);
}

/// The heterogeneous-schedule entry point must match a sequential
/// reference loop over the same entries. Runs at the default thread count
/// (`every_path_matches_the_reference_bit_for_bit` owns this binary's one
/// `set_thread_count` slot).
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
        .map(|&(p, i, t)| reference_chip.retention_trial_reference(p, i, t).into_vec())
        .collect();
    assert!(
        reference.iter().any(|t| !t.is_empty()),
        "degenerate schedule: no entry produced failures"
    );

    let mut chip = SimulatedChip::new(cfg, 4242);
    chip.advance(Ms::from_hours(1.0));
    let run = chip.retention_trial_schedule(&schedule, &CancelToken::new());
    assert!(!run.cancelled);
    let got: Vec<Vec<u64>> = run.outcomes.into_iter().map(|o| o.into_vec()).collect();
    assert_eq!(got, reference);
}

/// Advances a chip in 8 h steps, one reference trial per step, until a
/// VRT arrival is active, so the trials that follow merge arrival cells.
fn advance_until_arrival(
    chip: &mut SimulatedChip,
    pattern: DataPattern,
    interval: Ms,
    temp: Celsius,
) -> Vec<Vec<u64>> {
    let mut transcript = Vec::new();
    while chip.arrival_count() == 0 {
        assert!(transcript.len() < 64, "no VRT arrival after 64 advances");
        chip.advance(Ms::from_hours(8.0));
        transcript.push(chip.retention_trial_reference(pattern, interval, temp).into_vec());
    }
    transcript
}

/// Counter growth between two `plan_stats` snapshots.
fn stats_delta(before: PlanStats, after: PlanStats) -> [u64; 6] {
    [
        after.scalar_trials - before.scalar_trials,
        after.lowered_trials - before.lowered_trials,
        after.plan_trials - before.plan_trials,
        after.batch_rounds - before.batch_rounds,
        after.plans_compiled - before.plans_compiled,
        after.invalidations - before.invalidations,
    ]
}

/// Compiled plans are never invalidated: a plan compiled before the first
/// clock step serves every trial through advances and VRT arrivals with
/// no recompile, byte-equal to a reference replay of the same script.
#[test]
fn plans_survive_advances_and_arrivals() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
    let pattern = DataPattern::checkerboard();
    let (interval, temp) = (Ms::new(2048.0), Celsius::new(60.0));
    let run = |reference: bool| {
        let mut chip = SimulatedChip::new(cfg.clone(), 4343);
        let trial = |chip: &mut SimulatedChip| {
            if reference {
                chip.retention_trial_reference(pattern, interval, temp)
            } else {
                chip.retention_trial(pattern, interval, temp)
            }
        };
        // The rounds form compiles on first sight.
        let mut transcript: Vec<Vec<u64>> = if reference {
            vec![trial(&mut chip).into_vec()]
        } else {
            chip.retention_trial_rounds(pattern, interval, temp, 1)
                .into_iter()
                .map(|o| o.into_vec())
                .collect()
        };
        while chip.arrival_count() == 0 {
            assert!(transcript.len() <= 64, "no VRT arrival after 64 advances");
            chip.advance(Ms::from_hours(8.0));
            transcript.push(trial(&mut chip).into_vec());
        }
        transcript.push(trial(&mut chip).into_vec());
        (transcript, chip.plan_stats())
    };
    let (transcript, stats) = run(false);
    assert_eq!(
        stats.plans_compiled, 1,
        "a clock step or an arrival recompiled the plan"
    );
    assert_eq!(stats.plan_trials, transcript.len() as u64);
    assert_eq!(stats.invalidations, 0);
    assert_eq!(transcript, run(true).0);
}

/// Runs `route` on `chip` and the reference trials for `conditions` on
/// `reference`; the outcomes must match and `chip`'s counters must grow by
/// `delta` (scalar, lowered, plan, batch rounds, plans compiled,
/// invalidations).
fn check_route(
    label: &str,
    chip: &mut SimulatedChip,
    reference: &mut SimulatedChip,
    conditions: &[(DataPattern, Ms, Celsius)],
    delta: [u64; 6],
    route: impl FnOnce(&mut SimulatedChip) -> Vec<TrialOutcome>,
) {
    let before = chip.plan_stats();
    let got = route(chip);
    assert_eq!(stats_delta(before, chip.plan_stats()), delta, "{label}: counters");
    let want: Vec<TrialOutcome> = conditions
        .iter()
        .map(|&(p, i, t)| reference.retention_trial_reference(p, i, t))
        .collect();
    assert_eq!(got, want, "{label}: outcomes");
}

/// With VRT arrivals active, each production route — a first-sighting
/// scan, a plan compiled on second sighting, a cached-plan single trial,
/// a rounds call, and a lowered scan — equals the reference trial for
/// trial, and each lands on its documented `PlanStats` counter.
#[test]
fn every_route_matches_the_reference_with_arrivals_active() {
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32);
    let (p, q) = (DataPattern::checkerboard(), DataPattern::row_stripe());
    let interval = Ms::new(2048.0);
    let (temp, jittered) = (Celsius::new(60.0), Celsius::new(60.01));

    let mut reference = SimulatedChip::new(cfg.clone(), 4444);
    let mut chip = SimulatedChip::new(cfg, 4444);
    let prefix = advance_until_arrival(&mut reference, p, interval, temp);
    assert_eq!(advance_until_arrival(&mut chip, p, interval, temp), prefix);
    assert!(chip.arrival_count() > 0);

    let at = |pattern, temp| (pattern, interval, temp);
    let single = |chip: &mut SimulatedChip| vec![chip.retention_trial(p, interval, temp)];
    let (c, r) = (&mut chip, &mut reference);
    check_route("first sighting", c, r, &[at(p, temp)], [1, 0, 0, 0, 0, 0], single);
    check_route("second sighting", c, r, &[at(p, temp)], [0, 0, 1, 1, 1, 0], single);
    check_route("cached plan", c, r, &[at(p, temp)], [0, 0, 1, 1, 0, 0], single);
    check_route("rounds", c, r, &[at(p, temp); 70], [0, 0, 70, 70, 0, 0], |chip| {
        chip.retention_trial_rounds(p, interval, temp, 70)
    });
    // A recurring pattern under a jittered temperature never recurs as a
    // condition: its second sighting runs the lowered scan.
    check_route(
        "lowered",
        c,
        r,
        &[at(q, temp), at(q, jittered)],
        [1, 1, 0, 0, 0, 0],
        |chip| {
            vec![
                chip.retention_trial(q, interval, temp),
                chip.retention_trial(q, interval, jittered),
            ]
        },
    );
    assert!(chip.arrival_count() > 0, "arrivals stayed active throughout");
}
