//! Zero-dependency parallel execution substrate.
//!
//! The REAPER workloads are embarrassingly parallel across cells, chips,
//! grid points, and whole experiments, but the build environment cannot
//! pull `rayon` (no network path to crates.io). This crate provides the
//! small slice of rayon the workspace needs using only `std`:
//!
//! * [`par_map`] — order-preserving parallel map over a slice, on
//!   scoped threads spawned per call (coarse work: chips, grid points,
//!   whole experiments),
//! * [`par_index_map_pooled`] — parallel map over `0..len` on the
//!   persistent compute pool, for the portfolio race's lanes, which are
//!   too few and too short to amortize per-call spawns,
//! * [`pool`] — long-lived worker-pool primitives (bounded MPMC queue +
//!   joinable thread pool) for service-shaped workloads like
//!   `reaper-serve`, plus the compute pool under the pooled map,
//! * [`cancel`] — a cooperative, pure-compute cancellation flag polled at
//!   batch boundaries by racing computations (`reaper-portfolio`'s
//!   first-finisher-wins strategy races).
//!
//! Work distribution is an atomic chunk index: workers `fetch_add` to
//! claim the next chunk (the pooled map: the next index), so
//! load-imbalanced items (e.g. chips with very different weak-cell
//! counts) cannot stall the pool. Results are
//! reassembled in input order, and worker panics are propagated to the
//! caller after all threads have joined.
//!
//! Thread count resolution (first match wins):
//! 1. a process-wide override set via [`set_thread_count`],
//! 2. the `REAPER_THREADS` environment variable (read once),
//! 3. [`std::thread::available_parallelism`].
//!
//! Determinism: none of the entry points introduces ordering or timing
//! dependence — given pure per-item closures, output is identical at any
//! thread count. For Monte-Carlo loops, pair this with [`rng::stream`]
//! to give each (item, nonce) its own hash-derived RNG lane instead of
//! sharing one sequential generator.

// Deny-wall escapes (DESIGN.md §"Static analysis & determinism
// invariants"): `reaper-lint` enforces the finer-grained forms of these
// lints — P1 requires `invariant: `-prefixed expect messages and audits
// indexing in the hot-path crates, C1 bans bare casts there — with
// per-site `// lint: allow` markers. Clippy's blanket versions are
// allowed at the crate root so `-D warnings` stays green without
// annotating every audited site twice.
#![allow(clippy::expect_used, clippy::indexing_slicing)]
// Tests additionally assert exact float equality on purpose — bit-identical
// outputs are the determinism contract, and clippy.toml has no in-tests
// knob for these lints.
#![cfg_attr(test, allow(clippy::float_cmp))]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

pub mod cancel;
pub mod num;
pub mod pool;
pub mod rng;
pub mod sync;

/// Process-wide thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `REAPER_THREADS` parsed once; `None` when absent or unparsable.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Overrides the worker count for all subsequent parallel calls in this
/// process. `None` (or `Some(0)`) restores the default resolution
/// (`REAPER_THREADS`, then available parallelism).
pub fn set_thread_count(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count parallel calls will use right now.
pub fn thread_count() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    let env = ENV_THREADS.get_or_init(|| {
        std::env::var("REAPER_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    });
    if let Some(n) = *env {
        return n;
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Picks a chunk size that gives each worker several chunks to steal
/// (limits imbalance) without degenerating to per-item dispatch.
fn chunk_size_for(len: usize, workers: usize) -> usize {
    len.div_ceil(workers * 4).max(1)
}

/// Runs `worker(chunk_start, chunk_end)` over `[0, len)` split into
/// `chunk` -sized pieces claimed via an atomic index. Returns the pieces
/// sorted by `chunk_start`. Propagates the first worker panic.
fn run_chunks<R, F>(len: usize, chunk: usize, workers: usize, worker: F) -> Vec<(usize, R)>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let worker = &worker;
    let next = &next;
    let mut pieces: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        let end = (start + chunk).min(len);
                        // Catch so one panicking chunk doesn't abort the
                        // process via a poisoned scope; rethrown below.
                        match catch_unwind(AssertUnwindSafe(|| worker(start, end))) {
                            Ok(r) => local.push((start, r)),
                            Err(payload) => resume_unwind(payload),
                        }
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(payload) => panic = Some(payload),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        all
    });
    pieces.sort_unstable_by_key(|&(start, _)| start);
    pieces
}

/// Parallel map preserving input order: `out[i] == f(&items[i])`.
///
/// Panics in `f` are propagated to the caller (after all workers join),
/// matching the behavior of a sequential loop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = chunk_size_for(items.len(), workers);
    run_chunks(items.len(), chunk, workers, |start, end| {
        // lint: allow(panic) run_chunks yields start < end <= items.len()
        items[start..end].iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flat_map(|(_, piece)| piece)
    .collect()
}

/// Physical parallelism of the machine, resolved once. The pooled
/// dispatch width is clamped to this: oversubscribing a core with more
/// helpers than hardware threads only adds handoff latency, and on a
/// single-core host it makes "4 threads" literally the 1-thread code
/// path — which is the correct answer there.
fn physical_parallelism() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Parallel map over `0..len` on the process-wide persistent compute
/// pool: `out[i] == f(i)`. Each call of `f` is one claimed index, so a
/// few long, uneven items (the portfolio race's lanes) balance across
/// workers.
///
/// A scoped [`par_map`] call spawns and joins its workers: 112–201 µs
/// (median) for a 7-item map on 2 workers, measured on a shared 2-vCPU
/// host, against 4.3–5.6 µs through the pool, which only publishes the
/// work to threads that already exist. The caller participates in its
/// own map and waits only for the items helpers claimed.
///
/// The price of persistence is the `'static` bound: pool workers outlive
/// every caller, and the workspace denies `unsafe_code`, so borrowed
/// closures cannot cross into the pool. Callers wrap shared state in
/// `Arc` (hence `f: Arc<F>`).
///
/// Helper width is `min(thread_count(), physical parallelism)`; with one
/// effective worker the closure runs inline with zero synchronization.
/// Results are returned in input order and panics in `f` propagate to the
/// caller, exactly like [`par_map`].
pub fn par_index_map_pooled<R, F>(len: usize, f: Arc<F>) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    run_pooled_width(len, thread_count().min(physical_parallelism()), f)
}

/// [`par_index_map_pooled`] with an explicit dispatch width — the policy
/// knob factored out so unit tests can exercise multi-helper dispatch on
/// hosts whose physical parallelism would clamp the public path to 1.
pub(crate) fn run_pooled_width<R, F>(len: usize, width: usize, f: Arc<F>) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let workers = width.max(1).min(len);
    if workers <= 1 {
        return (0..len).map(|i| f(i)).collect();
    }
    let fan = Arc::new(pool::FanOut::new(len));
    let task: Arc<dyn Fn() + Send + Sync> = {
        let fan = Arc::clone(&fan);
        let f = Arc::clone(&f);
        Arc::new(move || fan.participate(f.as_ref()))
    };
    pool::ComputePool::global().offer_helpers(&task, workers - 1);
    fan.participate(f.as_ref());
    fan.wait_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: set_thread_count mutates process-global state, and cargo runs
    // #[test] fns of one binary concurrently — so exactly one test here
    // touches the override, and it restores the default before returning.

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |&x| x * 2 + 1);
        let expect: Vec<u64> = items.iter().map(|&x| x * 2 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "boom at 137")]
    fn par_map_propagates_panics() {
        let items: Vec<u64> = (0..1_000).collect();
        let _ = par_map(&items, |&x| {
            if x == 137 {
                panic!("boom at 137");
            }
            x
        });
    }

    #[test]
    fn pooled_map_matches_sequential_at_any_width() {
        let reference: Vec<u64> = (0..1_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(11))
            .collect();
        for width in [1, 2, 4, 8] {
            let out = run_pooled_width(
                1_000,
                width,
                Arc::new(|i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(11)),
            );
            assert_eq!(out, reference, "width {width}");
        }
    }

    #[test]
    fn pooled_public_api_maps_every_index_in_order() {
        let out = par_index_map_pooled(1_000, Arc::new(|i: usize| i));
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
        assert!(par_index_map_pooled(0, Arc::new(|i: usize| i)).is_empty());
    }

    #[test]
    #[should_panic(expected = "pooled boom at 512")]
    fn pooled_map_propagates_panics() {
        let _ = run_pooled_width(
            1_024,
            4,
            Arc::new(|i: usize| {
                assert!(i != 512, "pooled boom at 512");
                i
            }),
        );
    }

    #[test]
    fn thread_override_takes_effect_and_results_match() {
        let items: Vec<u64> = (0..2_048).collect();
        let at_default = par_map(&items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        set_thread_count(Some(1));
        assert_eq!(thread_count(), 1);
        let at_one = par_map(&items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        set_thread_count(Some(4));
        assert_eq!(thread_count(), 4);
        let at_four = par_map(&items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        set_thread_count(None);
        assert_eq!(at_default, at_one);
        assert_eq!(at_one, at_four);
        assert!(thread_count() >= 1);
    }
}
