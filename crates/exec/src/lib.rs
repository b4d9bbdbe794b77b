//! Zero-dependency parallel execution substrate.
//!
//! The REAPER workloads are embarrassingly parallel across cells, chips,
//! grid points, and whole experiments, but the build environment cannot
//! pull `rayon` (no network path to crates.io). This crate provides the
//! small slice of rayon the workspace needs using only `std`:
//!
//! * [`par_map`] — order-preserving parallel map over a slice,
//! * [`par_chunk_map`] — parallel map over contiguous chunks (amortizes
//!   per-item overhead on hot inner loops),
//! * [`par_map_mut`] — parallel in-place mutation of a slice,
//! * [`run_partitioned`] — low-level work-stealing loop for custom shapes,
//! * [`par_index_map_pooled`] — the persistent-pool variant of
//!   [`par_index_map`] for hot loops whose bodies are too short to
//!   amortize per-call `thread::scope` spawns (the retention batch
//!   kernel's fan-out),
//! * [`pool`] — long-lived worker-pool primitives (bounded MPMC queue +
//!   joinable thread pool + the process-wide compute pool) for
//!   service-shaped workloads like `reaper-serve` and for the pooled
//!   fork-join above,
//! * [`cancel`] — a cooperative, pure-compute cancellation flag polled at
//!   batch boundaries by racing computations (`reaper-portfolio`'s
//!   first-finisher-wins strategy races).
//!
//! Work distribution is an atomic chunk index: workers `fetch_add` to
//! claim the next chunk, so load-imbalanced items (e.g. chips with very
//! different weak-cell counts) cannot stall the pool. Results are
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
fn chunk_size_for(len: usize, workers: usize, min_chunk: usize) -> usize {
    let target_chunks = workers * 4;
    (len.div_ceil(target_chunks)).max(min_chunk).max(1)
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

/// Low-level entry point: partitions `[0, len)` into chunks of at least
/// `min_chunk`, runs `worker(start, end)` on the pool, and returns the
/// per-chunk results in input order.
pub fn run_partitioned<R, F>(len: usize, min_chunk: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = thread_count().min(len.div_ceil(min_chunk.max(1)));
    let chunk = chunk_size_for(len, workers, min_chunk);
    if workers <= 1 {
        return (0..len)
            .step_by(chunk)
            .map(|start| worker(start, (start + chunk).min(len)))
            .collect();
    }
    run_chunks(len, chunk, workers, worker)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
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
    let pieces = run_partitioned(items.len(), 1, |start, end| {
        // lint: allow(panic) run_partitioned yields start < end <= items.len()
        items[start..end].iter().map(&f).collect::<Vec<R>>()
    });
    pieces.into_iter().flatten().collect()
}

/// Parallel map over contiguous chunks of at least `min_chunk` items.
/// `f(chunk_start, chunk)` sees the absolute start index so callers can
/// derive per-item identities (e.g. RNG lanes). Chunk results are
/// returned in input order.
pub fn par_chunk_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    run_partitioned(items.len(), min_chunk, |start, end| {
        // lint: allow(panic) run_partitioned yields start < end <= items.len()
        f(start, &items[start..end])
    })
}

/// Parallel map over index ranges of `[0, len)` — the structure-of-arrays
/// counterpart of [`par_chunk_map`]. Where `par_chunk_map` hands each
/// worker a sub-slice of one item array, `par_index_map` hands it a
/// `start..end` range so the caller can slice *several* parallel lanes
/// (e.g. an index lane plus a threshold lane) with the same bounds.
/// Range results are returned in input order.
pub fn par_index_map<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(core::ops::Range<usize>) -> R + Sync,
{
    run_partitioned(len, min_chunk, |start, end| f(start..end))
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

/// Like [`par_index_map`], but dispatched through the process-wide
/// persistent [`pool::ComputePool`] instead of per-call `thread::scope`
/// spawns.
///
/// Scoped spawns cost tens of microseconds per call — acceptable for
/// coarse fan-outs (whole chips, grid points), ruinous for a hot loop
/// whose entire body is ~50 µs: `BENCH_trial.json` once recorded the
/// compiled-plan trial path running 3× *slower* at 4 threads than at 1 for
/// exactly this reason. Here the caller publishes the fan-out to threads
/// that already exist, participates in it itself, and waits only for
/// chunk completion — no spawn, no join.
///
/// The price of persistence is the `'static` bound: pool workers outlive
/// every caller, and the workspace denies `unsafe_code`, so borrowed
/// closures cannot cross into the pool. Callers wrap shared state in
/// `Arc` (hence `f: Arc<F>`). The scoped `par_map`/`par_chunk_map`/
/// `par_index_map` family remains the right tool for borrowed data on
/// coarse work.
///
/// Helper width is `min(thread_count(), physical parallelism)`; with one
/// effective worker the closure runs inline with zero synchronization.
/// Results are returned in input order and chunk panics propagate to the
/// caller, exactly like [`par_index_map`].
pub fn par_index_map_pooled<R, F>(len: usize, min_chunk: usize, f: Arc<F>) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(core::ops::Range<usize>) -> R + Send + Sync + 'static,
{
    run_pooled_width(len, min_chunk, thread_count().min(physical_parallelism()), f)
}

/// [`par_index_map_pooled`] with an explicit dispatch width — the policy
/// knob factored out so unit tests can exercise multi-helper dispatch on
/// hosts whose physical parallelism would clamp the public path to 1.
pub(crate) fn run_pooled_width<R, F>(len: usize, min_chunk: usize, width: usize, f: Arc<F>) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(core::ops::Range<usize>) -> R + Send + Sync + 'static,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = width.max(1).min(len.div_ceil(min_chunk.max(1)));
    let chunk = chunk_size_for(len, workers, min_chunk);
    if workers <= 1 {
        return (0..len)
            .step_by(chunk)
            .map(|start| f(start..(start + chunk).min(len)))
            .collect();
    }
    let fan = Arc::new(pool::FanOut::new(len, chunk));
    let task: Arc<dyn Fn() + Send + Sync> = {
        let fan = Arc::clone(&fan);
        let f = Arc::clone(&f);
        Arc::new(move || fan.participate(f.as_ref()))
    };
    pool::ComputePool::global().offer_helpers(&task, workers - 1);
    fan.participate(f.as_ref());
    fan.wait_results().into_iter().map(|(_, r)| r).collect()
}

/// Parallel in-place mutation: `f(i, &mut items[i])` for every index.
/// The slice is statically partitioned across workers via
/// `split_at_mut`, so no locking is involved.
pub fn par_map_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    if len == 0 {
        return;
    }
    let workers = thread_count().min(len);
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = len.div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        let mut rest = items;
        let mut start = 0;
        let mut handles = Vec::new();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let base = start;
            handles.push(scope.spawn(move || {
                for (i, item) in head.iter_mut().enumerate() {
                    f(base + i, item);
                }
            }));
            rest = tail;
            start += take;
        }
        let mut panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic = Some(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn par_chunk_map_covers_every_index_once() {
        let items: Vec<usize> = (0..5_000).collect();
        let chunks = par_chunk_map(&items, 64, |start, chunk| {
            assert_eq!(chunk[0], start, "chunk start index must be absolute");
            (start, chunk.len())
        });
        let mut expected_start = 0;
        for (start, len) in chunks {
            assert_eq!(start, expected_start);
            expected_start += len;
        }
        assert_eq!(expected_start, items.len());
    }

    #[test]
    fn par_index_map_covers_every_index_once_in_order() {
        let ranges = par_index_map(10_000, 128, |r| r);
        let mut expected_start = 0;
        for r in ranges {
            assert_eq!(r.start, expected_start);
            assert!(r.end > r.start);
            expected_start = r.end;
        }
        assert_eq!(expected_start, 10_000);
        assert!(par_index_map(0, 128, |r| r).is_empty());
    }

    #[test]
    fn par_map_mut_touches_every_element_exactly_once() {
        let mut items = vec![0u64; 4_321];
        let calls = AtomicU64::new(0);
        par_map_mut(&mut items, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x = i as u64 + 1;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 4_321);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
    }

    #[test]
    fn pooled_map_matches_sequential_at_any_width() {
        let reference: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(11))
            .collect();
        for width in [1, 2, 4, 8] {
            let pieces = run_pooled_width(
                10_000,
                64,
                width,
                Arc::new(|r: core::ops::Range<usize>| {
                    r.map(|i| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(11))
                        .collect::<Vec<u64>>()
                }),
            );
            let flat: Vec<u64> = pieces.into_iter().flatten().collect();
            assert_eq!(flat, reference, "width {width}");
        }
    }

    #[test]
    fn pooled_public_api_covers_every_index_in_order() {
        let ranges = par_index_map_pooled(10_000, 128, Arc::new(|r: core::ops::Range<usize>| r));
        let mut expected_start = 0;
        for r in ranges {
            assert_eq!(r.start, expected_start);
            assert!(r.end > r.start);
            expected_start = r.end;
        }
        assert_eq!(expected_start, 10_000);
        assert!(par_index_map_pooled(0, 128, Arc::new(|r: core::ops::Range<usize>| r)).is_empty());
    }

    #[test]
    #[should_panic(expected = "pooled boom at 512")]
    fn pooled_map_propagates_panics() {
        let _ = run_pooled_width(
            4_096,
            64,
            4,
            Arc::new(|r: core::ops::Range<usize>| {
                assert!(r.start != 512, "pooled boom at 512");
                r.len()
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
