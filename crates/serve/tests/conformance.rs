//! Protocol-conformance suite for the streaming-profile endpoints, at
//! one and four workers: the conditional-GET state machine
//! (200 → 304 → push → new ETag → 200), the `delta?since=` contract
//! (chain / 304 / 400 / full fallback after compaction), the chunked
//! watch long-poll, and the evicted-then-resubmitted regression (a
//! current ETag revalidates to 304 with zero recomputation, and a
//! matching recompute reattaches under the same ETag). The whole suite
//! runs under BOTH socket models — thread-per-connection and the
//! `poll(2)` event loop (unix) — which must be indistinguishable on
//! the wire.
//!
//! The protocol suite lives in ONE `#[test]` because
//! `reaper_exec::set_thread_count` is process-global and cargo runs the
//! `#[test]` fns of one binary concurrently. The delta-bandwidth test is
//! a second, single-worker `#[test]` whose byte counts are a pure
//! function of its seed.

// Test code may panic on failure; clippy's in-tests knobs do not cover
// non-`#[test]` helper fns in integration-test binaries.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use reaper_core::{FailureProfile, ProfilingRequest};
use reaper_exec::rng::SplitMix64;
use reaper_portfolio::{LaneStatus, PortfolioRequest, Strategy};
use reaper_serve::http;
use reaper_serve::json::Value;
use reaper_serve::{
    Client, ClientError, ConnectionModel, DeltaFetch, ProfileFetch, ProfileUpdate, Server,
    ServerConfig,
};
use reaper_retention::delta::ProfileDelta;

/// A job small enough to execute in well under a second on one core.
fn quick_request(seed: u64) -> ProfilingRequest {
    let mut r = ProfilingRequest::example(seed);
    r.capacity_den = 64;
    r.rounds = 2;
    r.target_interval_ms = 512.0;
    r.reach_delta_ms = 128.0;
    r
}

fn poll() -> Duration {
    Duration::from_millis(10)
}

/// One plain request outside the `Client` surface, for malformed-query
/// cases the client cannot emit.
fn raw_get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let head = format!(
        "GET {target} HTTP/1.1\r\nhost: conformance\r\ncontent-length: 0\r\n\
         connection: close\r\n\r\n"
    );
    reader
        .get_mut()
        .write_all(head.as_bytes())
        .expect("send request");
    let resp = http::read_response(&mut reader).expect("parse response");
    (resp.status, resp.body)
}

/// Adds one fresh cell to an encoded profile, returning the next
/// snapshot's bytes (what a re-profiling pass would push).
fn churned(bytes: &[u8], fresh_cell: u64) -> Vec<u8> {
    let profile = FailureProfile::from_bytes(bytes).expect("served bytes decode");
    let mut cells: Vec<u64> = profile.iter().collect();
    assert!(!cells.contains(&fresh_cell), "pick an unused cell");
    cells.push(fresh_cell);
    FailureProfile::from_cells(cells).to_bytes()
}

fn expect_status(result: Result<impl std::fmt::Debug, ClientError>, want: u16) {
    match result {
        Err(ClientError::Status(code, _)) => assert_eq!(code, want, "wrong status"),
        other => panic!("expected HTTP {want}, got {other:?}"),
    }
}

/// The conditional-GET machine, delta reads, and the watch long-poll
/// against one server.
fn streaming_protocol_roundtrip(workers: usize, connection_model: ConnectionModel) {
    let server = Server::start(ServerConfig {
        workers,
        queue_capacity: 8,
        compact_max_deltas: 3,
        connection_model,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    let seed = 5050 + u64::try_from(workers).expect("small");
    let receipt = client.submit(&quick_request(seed)).expect("submit");
    let job = receipt.job_id.clone();
    let epoch0 = client
        .wait_for_profile(&job, poll(), 1500)
        .expect("job finishes");

    // --- Conditional GET: 200 → 304 → push → stale 304 misses → 200. ---
    let etag0 = match client.profile_conditional(&job, None).expect("fetch") {
        ProfileFetch::Fresh { bytes, etag } => {
            assert_eq!(bytes, epoch0, "unconditional GET serves the head");
            etag
        }
        other => panic!("expected fresh bytes, got {other:?}"),
    };
    match client
        .profile_conditional(&job, Some(&etag0))
        .expect("revalidate")
    {
        ProfileFetch::NotModified { etag } => assert_eq!(etag, etag0),
        other => panic!("expected 304, got {other:?}"),
    }

    // `since == head` → 304; `since > head` → 400; missing `since` → 400.
    assert!(matches!(
        client.delta_since(&job, 0).expect("delta at head"),
        DeltaFetch::NotModified { .. }
    ));
    expect_status(client.delta_since(&job, 99), 400);
    let (code, _) = raw_get(addr, &format!("/v1/profiles/{job}/delta"));
    assert_eq!(code, 400, "delta without since must 400");

    // --- Watch + pushes: subscriber sees each epoch as one RPD1 chunk. ---
    let watcher = std::thread::spawn({
        let job = job.clone();
        move || Client::new(addr).watch(&job, Some(0), 5_000, 2)
    });
    std::thread::sleep(Duration::from_millis(100));

    let epoch1 = churned(&epoch0, 0xBEE0);
    let push1 = client.push_epoch(&job, &epoch1).expect("push epoch 1");
    assert!(push1.changed && !push1.compacted && push1.epoch == 1);
    assert_ne!(push1.etag, etag0, "a changed push must move the ETag");
    assert!(push1.delta_bytes > 0);
    let epoch2 = churned(&epoch1, 0xBEE1);
    let push2 = client.push_epoch(&job, &epoch2).expect("push epoch 2");
    assert_eq!(push2.epoch, 2);

    let events = watcher
        .join()
        .expect("watcher thread")
        .expect("watch stream");
    assert_eq!(events.len(), 2, "one event per pushed epoch");
    let mut current = FailureProfile::from_bytes(&epoch0).expect("decodes");
    for event in &events {
        let ProfileUpdate::Delta(message) = event else {
            panic!("expected RPD1 events from a live watch, got {event:?}");
        };
        let delta = ProfileDelta::from_bytes(message).expect("event decodes");
        current = current.apply_delta(&delta).expect("applies in order");
    }
    assert_eq!(
        current.to_bytes(),
        epoch2,
        "watch events must replay to the pushed head"
    );

    // --- Stale ETag re-fetches; fresh ETag revalidates. ---
    let etag2 = match client
        .profile_conditional(&job, Some(&etag0))
        .expect("stale revalidate")
    {
        ProfileFetch::Fresh { bytes, etag } => {
            assert_eq!(bytes, epoch2, "stale ETag must yield the new head");
            assert_eq!(etag, push2.etag);
            etag
        }
        other => panic!("expected fresh bytes after pushes, got {other:?}"),
    };
    assert!(matches!(
        client.profile_conditional(&job, Some(&etag2)),
        Ok(ProfileFetch::NotModified { .. })
    ));

    // An unchanged push consumes no epoch and keeps the ETag.
    let noop = client.push_epoch(&job, &epoch2).expect("no-op push");
    assert!(!noop.changed);
    assert_eq!((noop.epoch, &noop.etag), (2, &etag2));

    // --- Delta chain from 0, then compaction forces the full fallback. ---
    match client.delta_since(&job, 0).expect("chain") {
        DeltaFetch::Chain { bytes, epoch, etag } => {
            assert_eq!((epoch, &etag), (2, &etag2));
            let chain = ProfileDelta::decode_chain(&bytes).expect("chain decodes");
            assert_eq!(chain.len(), 2);
            let mut current = FailureProfile::from_bytes(&epoch0).expect("decodes");
            for delta in &chain {
                current = current.apply_delta(delta).expect("applies");
            }
            assert_eq!(current.to_bytes(), epoch2);
        }
        other => panic!("expected a delta chain, got {other:?}"),
    }
    let epoch3 = churned(&epoch2, 0xBEE2);
    let push3 = client.push_epoch(&job, &epoch3).expect("push epoch 3");
    assert!(
        push3.compacted,
        "third delta must hit the compact_max_deltas=3 budget"
    );
    match client.delta_since(&job, 0).expect("fallback") {
        DeltaFetch::Full { bytes, epoch, .. } => {
            assert_eq!(epoch, 3);
            assert_eq!(bytes, epoch3, "fallback serves the head encoding");
        }
        other => panic!("expected full fallback after compaction, got {other:?}"),
    }
    assert!(matches!(
        client.delta_since(&job, 3).expect("delta at new head"),
        DeltaFetch::NotModified { .. }
    ));

    // --- Watch from a compacted-away epoch falls back to one RPF1. ---
    let events = client.watch(&job, Some(0), 500, 4).expect("watch stream");
    assert!(
        matches!(events.as_slice(), [ProfileUpdate::Full(bytes)] if *bytes == epoch3),
        "gap-spanning watch must resync with exactly one full snapshot"
    );

    // --- Error surfaces + metrics exposition. ---
    expect_status(client.watch("0000000000000000", None, 100, 1), 404);
    let (code, _) = raw_get(addr, "/v1/profiles/not-an-id/delta?since=0");
    assert_eq!(code, 400, "malformed IDs must 400");
    let metrics = client.metrics_text().expect("metrics page");
    for series in [
        "reaper_delta_pushes_total 4",
        "reaper_delta_chains_total",
        "reaper_delta_full_fallbacks_total",
        "reaper_not_modified_total",
        "reaper_watch_events_total 3",
        "reaper_store_resident_profiles 1",
        "reaper_store_chunk_entries",
        "reaper_cache_evictions_total 0",
    ] {
        assert!(metrics.contains(series), "missing {series}\n{metrics}");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.delta_pushes, 4, "three changed pushes + one no-op");
    assert_eq!(snap.watch_events, 3);
    assert!(snap.not_modified >= 3);

    server.shutdown();
}

/// The evicted-then-resubmitted regression: a 304 must not require
/// resident bytes or a recompute, and a matching recompute reattaches
/// under the same ETag.
fn eviction_revalidation_regression(workers: usize, connection_model: ConnectionModel) {
    let (seed_a, seed_b) = (6060u64, 6061u64);
    let bytes_a = quick_request(seed_a)
        .execute()
        .expect("valid request")
        .run
        .profile
        .to_bytes();
    let bytes_b = quick_request(seed_b)
        .execute()
        .expect("valid request")
        .run
        .profile
        .to_bytes();
    // Each profile fits alone; the pair cannot both stay resident.
    let budget = bytes_a.len() + bytes_b.len() - 1;

    let server = Server::start(ServerConfig {
        workers,
        queue_capacity: 8,
        cache_budget_bytes: budget,
        connection_model,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr());

    let job_a = client.submit(&quick_request(seed_a)).expect("submit A").job_id;
    let served_a = client
        .wait_for_profile(&job_a, poll(), 1500)
        .expect("A finishes");
    assert_eq!(served_a, bytes_a);
    let etag_a = match client.profile_conditional(&job_a, None).expect("fetch A") {
        ProfileFetch::Fresh { etag, .. } => etag,
        other => panic!("expected fresh bytes, got {other:?}"),
    };

    // Completing B must evict A's bytes (A is colder).
    let job_b = client.submit(&quick_request(seed_b)).expect("submit B").job_id;
    client
        .wait_for_profile(&job_b, poll(), 1500)
        .expect("B finishes");
    expect_status(client.profile_bytes(&job_a), 410);
    let completed_before = server.metrics_snapshot().jobs_completed;

    // THE regression: a current ETag revalidates to 304 from metadata
    // alone — no resident bytes, no recompute.
    match client
        .profile_conditional(&job_a, Some(&etag_a))
        .expect("revalidate evicted A")
    {
        ProfileFetch::NotModified { etag } => assert_eq!(etag, etag_a),
        other => panic!("evicted + matching ETag must 304, got {other:?}"),
    }
    // The epoch cursor survives eviction too: since == head → 304.
    assert!(matches!(
        client.delta_since(&job_a, 0).expect("delta on evicted A"),
        DeltaFetch::NotModified { .. }
    ));
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.jobs_completed, completed_before,
        "revalidation must not recompute"
    );
    let metrics = client.metrics_text().expect("metrics page");
    assert!(
        !metrics.contains("reaper_cache_evictions_total 0"),
        "the eviction must be counted\n{metrics}"
    );

    // Resubmission recomputes (deterministically) and reattaches: same
    // bytes, same ETag.
    let resubmit = client.submit(&quick_request(seed_a)).expect("resubmit A");
    assert_eq!(resubmit.job_id, job_a);
    let again = client
        .wait_for_profile(&job_a, poll(), 1500)
        .expect("A recomputes");
    assert_eq!(again, bytes_a, "reattached bytes must be bit-identical");
    assert!(matches!(
        client.profile_conditional(&job_a, Some(&etag_a)),
        Ok(ProfileFetch::NotModified { .. })
    ));

    server.shutdown();
}

/// The portfolio job kind end to end: submit with `"kind":"portfolio"`,
/// read back bytes bit-identical to an in-process race, dedup on
/// resubmission, the `kind`-tagged status document, and the
/// per-strategy `reaper_portfolio_*` counters in canonical label order.
fn portfolio_race_conformance(workers: usize, connection_model: ConnectionModel) {
    let request = PortfolioRequest::example(4242);
    // In-process reference: the race is a pure function of the request,
    // so the served bytes must match it at every worker count and under
    // both socket models.
    let (race, outcome) = request.execute().expect("valid request");
    let expected = outcome.run.profile.to_bytes();

    let server = Server::start(ServerConfig {
        workers,
        queue_capacity: 8,
        connection_model,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr());

    let receipt = client.submit_portfolio(&request).expect("submit portfolio");
    assert!(!receipt.deduped);
    let bytes = client
        .wait_for_profile(&receipt.job_id, poll(), 1500)
        .expect("race finishes");
    assert_eq!(
        bytes, expected,
        "served race profile must be bit-identical to an in-process run"
    );

    let status = client.job_status(&receipt.job_id).expect("status");
    assert_eq!(status.get("kind").and_then(Value::as_str), Some("portfolio"));
    let summary = status.get("summary").expect("done job has a summary");
    assert_eq!(
        summary.get("cells").and_then(Value::as_u64),
        Some(u64::try_from(race.profile.len()).expect("small"))
    );

    // Identical resubmission dedups to the same content-addressed ID.
    let again = client.submit_portfolio(&request).expect("resubmit");
    assert!(again.deduped);
    assert_eq!(again.job_id, receipt.job_id);

    // Per-strategy counters, with labels in Strategy::ALL order.
    let metrics = client.metrics_text().expect("metrics page");
    for series in [
        "reaper_portfolio_races_total{strategy=\"brute_force\"} 1",
        "reaper_portfolio_races_total{strategy=\"delta_refw\"} 2",
        "reaper_portfolio_races_total{strategy=\"delta_t\"} 2",
        "reaper_portfolio_races_total{strategy=\"combined\"} 2",
    ] {
        assert!(metrics.contains(series), "missing {series}\n{metrics}");
    }
    let winner_series = format!(
        "reaper_portfolio_winner_total{{strategy=\"{}\"}} 1",
        race.winner_strategy.name()
    );
    assert!(metrics.contains(&winner_series), "missing {winner_series}\n{metrics}");
    for strategy in Strategy::ALL {
        let cancelled = race
            .lanes
            .iter()
            .filter(|l| l.spec.strategy() == strategy && l.status == LaneStatus::Cancelled)
            .count();
        let series = format!(
            "reaper_portfolio_cancelled_total{{strategy=\"{}\"}} {cancelled}",
            strategy.name()
        );
        assert!(metrics.contains(&series), "missing {series}\n{metrics}");
    }
    let races_pos = metrics
        .find("reaper_portfolio_races_total")
        .expect("races family");
    let cancelled_pos = metrics
        .find("reaper_portfolio_cancelled_total")
        .expect("cancelled family");
    let winner_pos = metrics
        .find("reaper_portfolio_winner_total")
        .expect("winner family");
    assert!(
        races_pos < cancelled_pos && cancelled_pos < winner_pos,
        "portfolio families must render in a fixed order"
    );

    server.shutdown();
}

#[test]
fn streaming_endpoints_conform_at_one_and_four_workers() {
    // Both socket models must satisfy the identical protocol contract;
    // the event-loop variant only exists on unix.
    let mut models = vec![ConnectionModel::ThreadPerConnection { max_threads: 32 }];
    if cfg!(unix) {
        models.push(ConnectionModel::EventLoop {
            max_connections: 128,
        });
    }
    for model in models {
        for workers in [1usize, 4] {
            streaming_protocol_roundtrip(workers, model);
            eviction_revalidation_regression(workers, model);
            portfolio_race_conformance(workers, model);
        }
    }
}

/// One churn step: remove `n/2` existing cells, add `n/2` fresh ones.
fn churn(cells: &mut BTreeSet<u64>, n: usize, rng: &mut SplitMix64) {
    let removes = n / 2;
    for _ in 0..removes {
        let len = cells.len();
        let pick = usize::try_from(rng.next_u64()).unwrap_or(usize::MAX) % len;
        let victim = *cells.iter().nth(pick).expect("nonempty set has an nth element");
        cells.remove(&victim);
    }
    let mut added = 0;
    while added < n - removes {
        if cells.insert(rng.next_u64() % 1_000_000_000) {
            added += 1;
        }
    }
}

#[test]
fn delta_fetches_stay_under_a_tenth_of_full_fetches_at_one_percent_churn() {
    // A subscriber that keeps up: after every re-profiling push it
    // fetches `delta?since=<prev>` and, for comparison, the full
    // profile. The chain must outlive the run, so this measures codec
    // bandwidth, not compaction resyncs.
    const EPOCHS: u64 = 20;
    const CELLS: usize = 20_000;
    const CHURN_CELLS: usize = CELLS / 100;
    let server = Server::start(ServerConfig {
        workers: 1,
        compact_max_deltas: usize::try_from(EPOCHS).expect("small") + 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr());
    let job = client.submit(&quick_request(7777)).expect("submit").job_id;
    client
        .wait_for_profile(&job, poll(), 1500)
        .expect("job finishes");

    // Re-base the log on a dense seeded snapshot so the churn rate is
    // exact and the full-profile size is realistic.
    let mut rng = SplitMix64::new(0x0DE17A);
    let mut cells: BTreeSet<u64> = BTreeSet::new();
    while cells.len() < CELLS {
        cells.insert(rng.next_u64() % 1_000_000_000);
    }
    let seed_push = client
        .push_epoch(&job, &FailureProfile::from_cells(cells.iter().copied()).to_bytes())
        .expect("seed push");
    let mut prev_epoch = seed_push.epoch;

    let mut delta_bytes = 0usize;
    let mut full_bytes = 0usize;
    for _ in 0..EPOCHS {
        churn(&mut cells, CHURN_CELLS, &mut rng);
        let push = client
            .push_epoch(&job, &FailureProfile::from_cells(cells.iter().copied()).to_bytes())
            .expect("push epoch");
        assert!(push.changed, "churned snapshot must move the head");
        match client.delta_since(&job, prev_epoch).expect("delta fetch") {
            DeltaFetch::Chain { bytes, epoch, .. } => {
                assert_eq!(epoch, push.epoch);
                delta_bytes += bytes.len();
            }
            other => panic!("tracking client must get a chain, got {other:?}"),
        }
        match client.profile_conditional(&job, None).expect("full fetch") {
            ProfileFetch::Fresh { bytes, .. } => full_bytes += bytes.len(),
            other => panic!("unconditional GET must serve bytes, got {other:?}"),
        }
        prev_epoch = push.epoch;
    }
    server.shutdown();

    // The bandwidth ceiling, then the exact totals EXPERIMENTS.md quotes
    // (every byte count is a deterministic function of the seed).
    assert!(
        delta_bytes * 10 < full_bytes,
        "delta GETs must stay under 10% of full GETs: {delta_bytes} vs {full_bytes}"
    );
    assert_eq!((delta_bytes, full_bytes), (15_838, 1_088_690));
}
