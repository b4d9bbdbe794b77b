//! Long-lived worker-pool primitives: a bounded MPMC queue and a named
//! thread pool.
//!
//! [`crate::par_map`] is *fork-join*: it spawns scoped workers, drains
//! one slice, and returns. A service has the opposite shape — producers
//! and consumers run indefinitely and hand off heterogeneous jobs — so
//! this module adds the two pieces that shape needs, still
//! zero-dependency:
//!
//! * [`BoundedQueue`] — a `Mutex`+`Condvar` MPMC queue with a hard
//!   capacity (backpressure instead of unbounded memory growth) and
//!   close-then-drain shutdown semantics,
//! * [`WorkerPool`] — N detach-free threads running one worker function,
//!   joined (with panic propagation) on [`WorkerPool::join`].
//!
//! Built from the two, a crate-private `ComputePool` keeps helper threads
//! alive for the life of the process and serves
//! [`crate::par_index_map_pooled`]. Its one client is the portfolio
//! race's lanes: a scoped `par_map` call spawns and joins its workers,
//! 112–201 µs (median) for a 7-item map on 2 workers on a shared 2-vCPU
//! host, against 4.3–5.6 µs to hand the same items to threads that
//! already exist.
//!
//! Determinism note: queue *pop order* is necessarily scheduling-
//! dependent. Callers that need deterministic outputs must make each job
//! a pure function of its own identity (as `reaper-serve` does by keying
//! jobs on the canonical request hash) so that ordering only affects
//! timing, never results.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use crate::sync::lock;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should shed load or retry.
    Full,
    /// The queue was closed; no further items are accepted.
    Closed,
}

impl core::fmt::Display for PushError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue is full"),
            PushError::Closed => write!(f, "queue is closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
///
/// Closing the queue ([`BoundedQueue::close`]) rejects further pushes but
/// lets consumers drain what was already accepted: [`BoundedQueue::pop`]
/// keeps returning items until the queue is both closed *and* empty, then
/// returns `None`. That is exactly the graceful-shutdown contract a
/// service drain loop wants.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue accepting at most `capacity` in-flight items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` if there is room, without blocking.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item is dropped in both cases (the
    /// caller still owns its own copy of whatever identity it needs).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes fail from now on, blocked consumers wake,
    /// and already-queued items remain poppable (drain semantics).
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Items currently queued (a point-in-time snapshot).
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// True when no items are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A fixed-size pool of named worker threads all running one function.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (named `<name>-0` … `<name>-{n-1}`), each
    /// running `work(worker_index)` to completion. The worker function
    /// owns its exit condition — typically a [`BoundedQueue::pop`] loop
    /// that ends when the queue closes.
    ///
    /// # Panics
    /// Panics if `workers` is zero or the OS refuses to spawn a thread.
    pub fn spawn<F>(name: &str, workers: usize, work: F) -> Self
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        assert!(workers > 0, "worker pool needs at least one thread");
        let work = Arc::new(work);
        let handles = (0..workers)
            .map(|i| {
                let work = Arc::clone(&work);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || work(i))
                    .expect("invariant: spawning a named worker thread only fails on OS resource exhaustion")
            })
            .collect();
        Self { handles }
    }

    /// Number of threads in the pool.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True for a pool with no threads (cannot be constructed via
    /// [`WorkerPool::spawn`]; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to finish. If any worker panicked, the
    /// first panic payload is re-raised here (after all threads joined),
    /// matching the crate's fork-join entry points.
    pub fn join(self) {
        let mut panic = None;
        for h in self.handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// A pooled job: a helper thread pops one of these and runs it to
/// completion. Jobs must be `'static` because the workers outlive every
/// caller — the workspace denies `unsafe_code`, so there is no
/// borrowed-closure escape hatch; fan-outs share state via `Arc` instead.
type PoolTask = Arc<dyn Fn() + Send + Sync>;

/// Upper bound on persistent helper threads, far above any sane
/// `REAPER_THREADS`; a runaway override cannot spawn-bomb the process.
const MAX_POOL_WORKERS: usize = 32;

/// Pending-task capacity. A `Full` rejection is harmless for fan-outs —
/// the dispatching caller participates and completes every item itself —
/// so a modest bound suffices.
const POOL_QUEUE_CAP: usize = 1024;

/// The process-wide persistent compute pool.
///
/// Workers are spawned lazily (grow-only, up to [`MAX_POOL_WORKERS`]) the
/// first time a caller asks for helpers, then park on the task queue's
/// condvar between jobs for the life of the process. The task queue is
/// never closed: an idle pool costs a few parked threads, and the OS
/// reclaims them at process exit.
///
/// This is the substrate under `par_index_map_pooled` (crate root): the
/// caller always participates in its own fan-out, so even a saturated or
/// single-core pool makes forward progress with zero handoff.
pub(crate) struct ComputePool {
    tasks: BoundedQueue<PoolTask>,
    pools: Mutex<Vec<WorkerPool>>,
}

impl ComputePool {
    /// The process-wide pool (created empty on first use).
    pub(crate) fn global() -> &'static ComputePool {
        static POOL: OnceLock<ComputePool> = OnceLock::new();
        POOL.get_or_init(|| ComputePool {
            tasks: BoundedQueue::new(POOL_QUEUE_CAP),
            pools: Mutex::new(Vec::new()),
        })
    }

    /// Helper threads currently alive.
    #[cfg(test)]
    fn worker_count(&self) -> usize {
        lock(&self.pools).iter().map(WorkerPool::len).sum()
    }

    /// Grows the pool to at least `n` workers (capped at
    /// [`MAX_POOL_WORKERS`]); existing workers are never retired.
    fn ensure_workers(&'static self, n: usize) {
        let n = n.min(MAX_POOL_WORKERS);
        let mut pools = lock(&self.pools);
        let have: usize = pools.iter().map(WorkerPool::len).sum();
        if have >= n {
            return;
        }
        let tasks = &self.tasks;
        pools.push(WorkerPool::spawn("reaper-pool", n - have, move |_i| {
            while let Some(task) = tasks.pop() {
                // A fan-out participant captures its own panics per item;
                // this guard keeps any other unwinding job from killing a
                // worker that the whole process shares.
                let _ = catch_unwind(AssertUnwindSafe(|| task()));
            }
        }));
    }

    /// Offers `helpers` copies of `task` to the pool, spawning workers up
    /// to that many if needed. Best-effort: a full queue sheds the
    /// remainder silently, which fan-out callers tolerate by design
    /// (they run every unclaimed item themselves).
    pub(crate) fn offer_helpers(&'static self, task: &PoolTask, helpers: usize) {
        if helpers == 0 {
            return;
        }
        self.ensure_workers(helpers);
        for _ in 0..helpers {
            if self.tasks.try_push(Arc::clone(task)).is_err() {
                break;
            }
        }
    }
}

/// Completion state of one pooled fork-join fan-out.
struct FanState<R> {
    completed: usize,
    results: Vec<(usize, R)>,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// Shared state of one pooled fork-join fan-out over `[0, len)`.
///
/// Indices are claimed one at a time via `fetch_add`, but completion is
/// counted per index under a mutex so the *caller* can wait for helpers
/// it does not own (pool workers are never joined). Every claimed index
/// accounts exactly one completion — even a panicking one — so
/// [`FanOut::wait_results`] always terminates, including when no helper
/// ever picks the task up (the caller claims every index itself).
pub(crate) struct FanOut<R> {
    next: AtomicUsize,
    len: usize,
    state: Mutex<FanState<R>>,
    done: Condvar,
}

impl<R> FanOut<R> {
    pub(crate) fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            state: Mutex::new(FanState {
                completed: 0,
                results: Vec::with_capacity(len),
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Claims and runs indices until the range is exhausted. Called by the
    /// dispatching caller and by any pool worker that picked up the task.
    pub(crate) fn participate<F>(&self, f: &F)
    where
        F: Fn(usize) -> R,
    {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i)));
            let mut st = lock(&self.state);
            match outcome {
                Ok(r) => st.results.push((i, r)),
                Err(payload) => {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
            }
            st.completed += 1;
            let all_done = st.completed == self.len;
            drop(st);
            if all_done {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every index has completed, then returns the results
    /// in index order. Re-raises the first panic.
    pub(crate) fn wait_results(&self) -> Vec<R> {
        let mut st = lock(&self.state);
        while st.completed < self.len {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let panic = st.panic.take();
        let mut results = std::mem::take(&mut st.results);
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_single_consumer() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("room");
        }
        assert_eq!(q.len(), 5);
        let drained: Vec<i32> = (0..5).map(|_| q.pop().expect("queued")).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_and_closed_pushes_are_rejected() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("room");
        q.try_push(2).expect("room");
        assert_eq!(q.try_push(3), Err(PushError::Full));
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(4), Err(PushError::Closed));
        // Drain semantics: accepted items survive the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        // Give the consumer a chance to block, then close.
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("no panic"), None);
    }

    #[test]
    fn pool_consumes_everything_exactly_once() {
        let q = Arc::new(BoundedQueue::new(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let pool = {
            let q = Arc::clone(&q);
            let seen = Arc::clone(&seen);
            WorkerPool::spawn("test-worker", 4, move |_i| {
                while let Some(x) = q.pop() {
                    seen.fetch_add(x, Ordering::Relaxed);
                }
            })
        };
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        let mut expect = 0;
        for x in 1..=50usize {
            expect += x;
            while q.try_push(x).is_err() {
                thread::yield_now();
            }
        }
        q.close();
        pool.join();
        assert_eq!(seen.load(Ordering::Relaxed), expect);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker 2 exploded")]
    fn pool_join_propagates_worker_panics() {
        let pool = WorkerPool::spawn("panicky", 3, |i| {
            if i == 2 {
                panic!("worker 2 exploded");
            }
        });
        pool.join();
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<()>::new(0);
    }

    #[test]
    fn fan_out_completes_with_caller_alone() {
        // No helper ever shows up: the caller claims every index itself
        // and wait_results still terminates with full coverage, in order.
        let fan = FanOut::new(1_000);
        fan.participate(&|i: usize| i * 3);
        let out = fan.wait_results();
        assert_eq!(out, (0..1_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "index 128 exploded")]
    fn fan_out_propagates_panics() {
        let fan = FanOut::new(512);
        fan.participate(&|i: usize| {
            assert!(i != 128, "index 128 exploded");
            i
        });
        let _ = fan.wait_results();
    }

    #[test]
    fn compute_pool_helpers_survive_across_fan_outs() {
        let pool = ComputePool::global();
        for round in 0..3u64 {
            let fan = Arc::new(FanOut::new(4_096));
            let hits = Arc::new(AtomicUsize::new(0));
            let task: PoolTask = {
                let fan = Arc::clone(&fan);
                let hits = Arc::clone(&hits);
                Arc::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    fan.participate(&|i: usize| i as u64 + round);
                })
            };
            pool.offer_helpers(&task, 2);
            fan.participate(&|i: usize| i as u64 + round);
            let total: u64 = fan.wait_results().into_iter().sum();
            let expect: u64 = (0..4_096u64).map(|i| i + round).sum();
            assert_eq!(total, expect, "round {round}");
        }
        // Workers were spawned at most once and stayed parked between
        // rounds; the pool never shrinks.
        assert!(pool.worker_count() >= 1);
        assert!(pool.worker_count() <= MAX_POOL_WORKERS);
    }
}
