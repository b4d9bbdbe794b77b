//! The race's multicore wall-time gate: at the fixed operating point of
//! `determinism.rs`'s logical-cost test, the race at 4 threads must beat
//! the race at 1 thread on wall time. A host with fewer than 4 hardware
//! threads cannot express the lane parallelism, so there the gate is not
//! enforced. This lives in its own test binary so the timed races do not
//! share cores with the property sweep.

#![allow(clippy::expect_used)]

use std::time::Instant;

use reaper_exec::set_thread_count;
use reaper_portfolio::PortfolioRequest;

/// Timed repetitions per thread count; the minimum wall time counts.
const WALL_REPS: usize = 3;

/// The best wall time, in milliseconds, of `WALL_REPS` races at
/// `threads` threads.
fn best_wall_ms(request: &PortfolioRequest, threads: usize) -> f64 {
    set_thread_count(Some(threads));
    let mut best_ms = f64::INFINITY;
    for _ in 0..WALL_REPS {
        let start = Instant::now();
        request.execute().expect("valid request");
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    set_thread_count(None);
    best_ms
}

#[test]
fn race_at_four_threads_beats_one_thread_on_multicore_hosts() {
    let mut request = PortfolioRequest::example(7);
    request.rounds = 40;
    request.capacity_den = 8;
    request.coverage_goal = 0.97;
    request.max_fpr = 0.5;

    let wall_1t_ms = best_wall_ms(&request, 1);
    let wall_4t_ms = best_wall_ms(&request, 4);
    let speedup = wall_1t_ms / wall_4t_ms;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 4 {
        assert!(
            speedup > 1.0,
            "no wall-time speedup at 4 threads: {wall_1t_ms:.1} ms @1t, \
             {wall_4t_ms:.1} ms @4t ({speedup:.2}x) on a {cores}-core host"
        );
    }
}
