//! The steady-state trial script shared by `plan_equivalence` (its
//! transcripts) and `thread_scaling` (its timing).
//!
//! Each run replays the same script on a fresh Vendor B chip: a
//! checkerboard at 1,024 ms and 60 °C DRAM, `WARMUP_ROUNDS` single
//! trials, the timed rounds, a one-hour `advance` that evolves VRT chains
//! and lands arrivals under the cached plan, then `POST_ADVANCE_ROUNDS`
//! single trials. Only the timed rounds are timed, so the one-time plan
//! compile (on the second warm-up trial) stays outside the timed region,
//! as the plan cache amortizes it across iteration loops.

// Each test binary that includes this module reads only part of a run.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use reaper_dram_model::{Celsius, DataPattern, Ms};
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip};

/// The representative Vendor B chip the figure harnesses use.
const B_CHIP_SEED: u64 = 0xBC417;
/// Single trials before the timed rounds: a condition's second sighting
/// compiles its plan.
const WARMUP_ROUNDS: u64 = 2;
/// Single trials after the `advance`, checking that the cached plan stays
/// bit-identical across a clock step.
const POST_ADVANCE_ROUNDS: u64 = 2;

/// How a script's trials are submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `retention_trial_reference`, one call per trial.
    Reference,
    /// `retention_trial`, one call per trial.
    Single,
    /// `retention_trial_rounds`, one call per step (the steady-state
    /// script's warm-up and post-advance trials are single trials).
    Rounds,
}

impl Path {
    pub const ALL: [Self; 3] = [Self::Reference, Self::Single, Self::Rounds];
}

/// One run of the steady-state script.
pub struct SteadyRun {
    /// Every trial's failing cells, in script order.
    pub transcript: Vec<Vec<u64>>,
    /// The chip's counters at the end of the script.
    pub stats: PlanStats,
    /// Wall time of the timed rounds alone.
    pub timed: Duration,
}

/// Runs the steady-state script with `timed_rounds` timed rounds through
/// `path` at `threads` worker threads.
pub fn run_steady_script(
    cfg: &RetentionConfig,
    path: Path,
    threads: usize,
    timed_rounds: u32,
) -> SteadyRun {
    let (pattern, interval, temp) = (
        DataPattern::checkerboard(),
        Ms::new(1024.0),
        Celsius::new(60.0),
    );
    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), B_CHIP_SEED);
    let trial = |chip: &mut SimulatedChip| {
        if path == Path::Reference {
            chip.retention_trial_reference(pattern, interval, temp)
        } else {
            chip.retention_trial(pattern, interval, temp)
        }
    };
    let mut transcript = Vec::new();
    for _ in 0..WARMUP_ROUNDS {
        transcript.push(trial(&mut chip).into_vec());
    }
    let start = Instant::now();
    if path == Path::Rounds {
        for outcome in chip.retention_trial_rounds(pattern, interval, temp, timed_rounds) {
            transcript.push(outcome.into_vec());
        }
    } else {
        for _ in 0..timed_rounds {
            transcript.push(trial(&mut chip).into_vec());
        }
    }
    let timed = start.elapsed();
    chip.advance(Ms::from_hours(1.0));
    for _ in 0..POST_ADVANCE_ROUNDS {
        transcript.push(trial(&mut chip).into_vec());
    }
    SteadyRun {
        transcript,
        stats: chip.plan_stats(),
        timed,
    }
}
