//! Integration: results are **bit-identical at any thread count**.
//!
//! The parallel substrate (`reaper-exec`) must be an implementation detail:
//! retention trials derive every random draw from a per-(seed, trial, cell)
//! hash lane rather than a shared sequential stream, so partitioning the
//! work across threads cannot change any outcome. These tests run the same
//! workloads at 1 and 4 workers and compare outputs byte for byte.
//!
//! All tests in this file share one process, and the thread-count override
//! is global, so each test serializes on `OVERRIDE_LOCK` and restores the
//! default before returning.

// Test helpers may unwrap freely: a failed unwrap IS the test failing
// (`clippy.toml` only exempts `#[test]` functions themselves).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Mutex;

use reaper::core::conditions::{ReachConditions, TargetConditions};
use reaper::core::profiler::{IterationStats, PatternSet, Profiler, ProfilingRun};
use reaper::core::ProfilingRequest;
use reaper::dram_model::{Celsius, Ms, Vendor};
use reaper::retention::{RetentionConfig, SimulatedChip};
use reaper::softmc::TestHarness;
use reaper_bench::{Scale, Table};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once at 1 worker and once at 4, restoring the default after.
fn at_thread_counts<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    reaper::exec::set_thread_count(Some(1));
    let sequential = f();
    reaper::exec::set_thread_count(Some(4));
    let parallel = f();
    reaper::exec::set_thread_count(None);
    (sequential, parallel)
}

fn profile_sweep() -> ProfilingRun {
    // 1/8 capacity: a candidate window about twice the example job's
    // 747 cells.
    let chip = SimulatedChip::new(
        RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 8),
        0xA11CE,
    );
    let mut harness = TestHarness::new(chip, Celsius::new(45.0), 0xA11CE);
    Profiler::reach(
        TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0)),
        ReachConditions::new(Ms::new(250.0), 5.0),
        3,
        PatternSet::Standard,
    )
    .run(&mut harness)
}

#[test]
fn profiling_sweep_is_bit_identical_across_thread_counts() {
    let (seq, par) = at_thread_counts(profile_sweep);
    assert_eq!(seq.profile, par.profile);
    assert_eq!(seq.runtime, par.runtime);
    assert_eq!(seq.iterations, par.iterations);
}

#[test]
fn example_jobs_are_bit_identical_across_thread_counts() {
    // Serve workers run jobs at the process's thread count; every trial
    // of an example job is a window scan over ~750 cells.
    let jobs = || -> Vec<(Vec<u8>, Vec<IterationStats>, usize)> {
        (0..4u64)
            .map(|seed| {
                let out = ProfilingRequest::example(seed).execute().unwrap();
                (out.run.profile.to_bytes(), out.run.iterations, out.truth_cells)
            })
            .collect()
    };
    let (seq, par) = at_thread_counts(jobs);
    assert_eq!(seq, par);
}

#[test]
fn raw_trials_are_bit_identical_across_thread_counts() {
    let run = || {
        let mut chip = SimulatedChip::new(
            RetentionConfig::for_vendor(Vendor::C).with_capacity_scale(1, 4),
            0xBEE,
        );
        let mut all = Vec::new();
        for iteration in 0..2u64 {
            for pattern in PatternSet::Standard.for_iteration(iteration) {
                for &iv in &[512.0, 1024.0, 2048.0, 4096.0] {
                    let out = chip.retention_trial(pattern, Ms::new(iv), Celsius::new(48.0));
                    all.push(out.into_vec());
                    chip.advance(Ms::new(iv));
                }
            }
        }
        all
    };
    let (seq, par) = at_thread_counts(run);
    assert_eq!(seq, par);
}

#[test]
fn bench_harness_output_is_bit_identical_across_thread_counts() {
    // fig02 exercises the full stack: population synthesis, per-chip
    // parallel fan-out, and parallel retention trials underneath.
    let (seq, par): (Table, Table) = at_thread_counts(|| reaper_bench::fig02::run(Scale::Quick));
    assert_eq!(seq.to_string(), par.to_string(), "fig02 table diverged");
}
