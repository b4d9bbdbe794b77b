//! Cancellation semantics through the pooled fan-out and the queue
//! primitives: a cancelled lane stops at the *next batch boundary it
//! checks*, never mid-batch, and everything it produced before the stop
//! is preserved. These are the exact guarantees `reaper-portfolio`'s
//! strategy races lean on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use reaper_exec::cancel::CancelToken;
use reaper_exec::par_index_map_pooled;
use reaper_exec::pool::BoundedQueue;

/// One simulated lane: runs up to `max_batches` batches, polling its
/// token at each batch boundary (i.e. before starting a batch). Returns
/// the per-batch results produced before the stop.
fn run_batches(token: &CancelToken, lane: usize, max_batches: usize) -> Vec<u64> {
    let mut produced = Vec::new();
    for batch in 0..max_batches {
        if token.is_cancelled() {
            break;
        }
        // The "kernel batch": pure compute, deterministic in (lane, batch).
        produced.push((lane as u64) << 32 | batch as u64);
    }
    produced
}

#[test]
fn pre_cancelled_lanes_produce_nothing_and_live_lanes_everything() {
    let tokens: Arc<Vec<CancelToken>> = Arc::new((0..16).map(|_| CancelToken::new()).collect());
    for (i, t) in tokens.iter().enumerate() {
        if i % 2 == 1 {
            t.cancel();
        }
    }
    let lanes = par_index_map_pooled(16, {
        let tokens = Arc::clone(&tokens);
        Arc::new(move |lane: usize| run_batches(&tokens[lane], lane, 8))
    });
    assert_eq!(lanes.len(), 16);
    for (lane, produced) in lanes.iter().enumerate() {
        if lane % 2 == 1 {
            assert!(produced.is_empty(), "cancelled lane {lane} produced work");
        } else {
            assert_eq!(produced.len(), 8, "live lane {lane} must finish");
        }
    }
}

#[test]
fn self_cancellation_lands_on_the_next_batch_boundary() {
    // Each lane cancels its own token after finishing batch 2: the flag
    // is only honored at the next boundary, so exactly batches 0..=2
    // survive — produced results are preserved, nothing is torn mid-batch.
    let results = par_index_map_pooled(
        8,
        Arc::new(|lane: usize| {
            let token = CancelToken::new();
            let mut produced = Vec::new();
            for batch in 0..10u64 {
                if token.is_cancelled() {
                    break;
                }
                produced.push(batch);
                if batch == 2 {
                    token.cancel();
                }
            }
            (lane, produced)
        }),
    );
    for (lane, produced) in results {
        assert_eq!(produced, vec![0, 1, 2], "lane {lane}");
    }
}

#[test]
fn external_cancellation_preserves_a_prefix_in_every_lane() {
    // A canceller races the pooled lanes. The stop *point* is
    // scheduling-dependent, but the contract is not: whatever a lane
    // returns must be an exact prefix of the uncancelled batch sequence,
    // and no lane may run past the cap.
    let token = CancelToken::new();
    let started = Arc::new(AtomicUsize::new(0));
    let canceller = {
        let token = token.clone();
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            while started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            token.cancel();
        })
    };
    let lanes = par_index_map_pooled(8, {
        let token = token.clone();
        let started = Arc::clone(&started);
        Arc::new(move |lane: usize| {
            started.fetch_add(1, Ordering::AcqRel);
            run_batches(&token, lane, 50_000)
        })
    });
    canceller.join().expect("canceller thread");
    for (lane, produced) in lanes.into_iter().enumerate() {
        assert!(produced.len() <= 50_000);
        let expect: Vec<u64> = (0..produced.len())
            .map(|b| (lane as u64) << 32 | b as u64)
            .collect();
        assert_eq!(produced, expect, "lane {lane} is not an exact prefix");
    }
}

#[test]
fn cancelled_workers_still_drain_a_closed_queue() {
    // Cancellation must never wedge the shutdown path: a worker that
    // stops *processing* when its token is cancelled still pops until
    // the close-then-drain contract hands it `None`.
    let queue = Arc::new(BoundedQueue::new(64));
    let token = CancelToken::new();
    token.cancel();
    for i in 0..40u64 {
        queue.try_push(i).expect("room");
    }
    queue.close();
    let processed = Arc::new(AtomicUsize::new(0));
    let drained = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let token = token.clone();
            let processed = Arc::clone(&processed);
            let drained = Arc::clone(&drained);
            std::thread::spawn(move || {
                while let Some(_item) = queue.pop() {
                    drained.fetch_add(1, Ordering::Relaxed);
                    if token.is_cancelled() {
                        continue; // discard, but keep draining
                    }
                    processed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("drain worker");
    }
    assert_eq!(drained.load(Ordering::Relaxed), 40, "every item drained");
    assert_eq!(processed.load(Ordering::Relaxed), 0, "nothing processed after cancel");
    assert!(queue.is_empty());
}

#[test]
fn late_cancellation_keeps_processed_prefix_and_drains_the_rest() {
    // Single consumer, deterministic: process 10 items, then the token
    // is cancelled mid-stream; the remaining 30 drain unprocessed.
    let queue = BoundedQueue::new(64);
    let token = CancelToken::new();
    for i in 0..40u64 {
        queue.try_push(i).expect("room");
    }
    queue.close();
    let mut processed = Vec::new();
    let mut drained = 0usize;
    while let Some(item) = queue.pop() {
        drained += 1;
        if token.is_cancelled() {
            continue;
        }
        processed.push(item);
        if processed.len() == 10 {
            token.cancel();
        }
    }
    assert_eq!(drained, 40);
    assert_eq!(processed, (0..10u64).collect::<Vec<_>>());
}
