//! Thread-scaling gate for the bit-plane kernel: on the full-capacity
//! Vendor B chip, the `single` and `rounds` paths at 4 worker threads
//! must run at least 0.95× as many timed rounds per second as at 1
//! thread. It guards against a per-trial fan-out returning to the
//! kernel: a per-call `thread::scope` spawn once made 4 threads ~3×
//! slower than 1 on compiled plans, and a handoff to the compute pool
//! still cost the `single` path 10–30% on a 2-vCPU host. The kernel now
//! runs every batch on the calling thread, so 1 and 4 threads run the
//! same instructions; the tolerance absorbs timer noise.
//!
//! The steady-state script (`common`) runs with 256 timed rounds — four
//! full 64-round batches, long enough that the ratio is not at the mercy
//! of a ~3 ms timed region — through every path at 1 and 4 threads, best
//! of 2 runs each. Each repetition runs 1 thread and then 4 threads, so a
//! host-speed phase hits both sides alike. Every transcript must equal
//! the 1-thread reference before any timing is judged: a rate from a
//! diverging path means nothing.
//!
//! Timed, so ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test --release -p reaper-retention --test thread_scaling -- --ignored
//! ```

mod common;

use reaper_dram_model::Vendor;
use reaper_retention::RetentionConfig;

use common::{run_steady_script, Path, SteadyRun};

/// Timed rounds per run.
const TIMED_ROUNDS: u32 = 256;
/// Runs per configuration; the fastest counts.
const BEST_OF: usize = 2;
/// 4-thread throughput must be at least this fraction of 1-thread.
const GATE_TOLERANCE: f64 = 0.95;

fn rounds_per_sec(run: &SteadyRun) -> f64 {
    f64::from(TIMED_ROUNDS) / run.timed.as_secs_f64().max(1e-9)
}

#[test]
#[ignore = "timed gate; run in release with --ignored"]
fn kernel_paths_at_four_threads_keep_pace_with_one_thread() {
    let cfg = RetentionConfig::for_vendor(Vendor::B);
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut best_rates = Vec::new();
    for path in Path::ALL {
        // Best rounds/s at [1 thread, 4 threads].
        let mut best = [0.0f64; 2];
        for _ in 0..BEST_OF {
            for (slot, threads) in [1usize, 4].into_iter().enumerate() {
                let run = run_steady_script(&cfg, path, threads, TIMED_ROUNDS);
                let reference = reference.get_or_insert_with(|| run.transcript.clone());
                assert!(
                    run.transcript == *reference,
                    "{path:?} path at {threads} thread(s) diverged from the 1-thread reference"
                );
                best[slot] = best[slot].max(rounds_per_sec(&run));
            }
        }
        best_rates.push((path, best));
    }
    reaper_exec::set_thread_count(None);

    for (path, [one, four]) in best_rates {
        if path == Path::Reference {
            continue;
        }
        assert!(
            four >= one * GATE_TOLERANCE,
            "{path:?}: 4 threads ({four:.1} rounds/s) below 1 thread ({one:.1} rounds/s) \
             × {GATE_TOLERANCE} (ratio {:.2})",
            four / one.max(1e-9)
        );
    }
}
