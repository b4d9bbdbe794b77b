//! Thread-parity gate for whole profiling jobs: 16
//! [`ProfilingRequest::example`] jobs at 4 worker threads must take at
//! most 1.25× their time at 1 thread. A serve worker runs its jobs at the
//! process's thread count, so a per-trial fan-out inside the job path
//! (spawning or handing off work on every one of a job's 48 trials)
//! shows up here as a 4-thread slowdown. Nothing on the job path fans
//! out, so the gate holds at any core count.
//!
//! Runs alternate 1 and 4 threads, best of 3 each, so a host-speed phase
//! hits both sides. Every run's outputs must equal the first 1-thread
//! run's before any timing is judged.
//!
//! Timed, so ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test --release -p reaper-core --test job_thread_parity -- --ignored
//! ```

#![allow(clippy::expect_used)]

use std::time::Instant;

use reaper_core::profiler::IterationStats;
use reaper_core::ProfilingRequest;
use reaper_exec::set_thread_count;

/// Example jobs per timed run.
const JOBS: u64 = 16;
/// Runs per thread count; the fastest counts.
const BEST_OF: usize = 3;
/// 4-thread wall time may be at most this multiple of 1-thread.
const MAX_RATIO: f64 = 1.25;

type JobOutputs = Vec<(Vec<u8>, Vec<IterationStats>, usize)>;

/// Runs the `JOBS` example jobs at `threads` threads: their outputs and
/// the wall time in milliseconds.
fn timed_jobs(threads: usize) -> (JobOutputs, f64) {
    set_thread_count(Some(threads));
    let start = Instant::now();
    let outputs = (0..JOBS)
        .map(|seed| {
            let out = ProfilingRequest::example(seed)
                .execute()
                .expect("invariant: the example request validates");
            (out.run.profile.to_bytes(), out.run.iterations, out.truth_cells)
        })
        .collect();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    set_thread_count(None);
    (outputs, ms)
}

#[test]
#[ignore = "timed gate; run in release with --ignored"]
fn example_jobs_at_four_threads_cost_what_they_cost_at_one() {
    let mut reference: Option<JobOutputs> = None;
    let (mut best_1t, mut best_4t) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BEST_OF {
        for threads in [1usize, 4] {
            let (outputs, ms) = timed_jobs(threads);
            let reference = reference.get_or_insert_with(|| outputs.clone());
            assert!(
                outputs == *reference,
                "example jobs at {threads} thread(s) diverged from the 1-thread reference"
            );
            let best = if threads == 1 { &mut best_1t } else { &mut best_4t };
            *best = best.min(ms);
        }
    }
    let ratio = best_4t / best_1t;
    assert!(
        ratio <= MAX_RATIO,
        "{JOBS} example jobs: {best_4t:.1} ms at 4 threads against {best_1t:.1} ms at 1 \
         ({ratio:.2}x, limit {MAX_RATIO}x)"
    );
}
