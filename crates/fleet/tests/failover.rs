//! Failover conformance, two scenarios on their own 4-shard fleets:
//!
//! * a single kill: kill the shard that owns a profile, observe the
//!   router shed with `503` + `retry-after`, restart the shard on a fresh
//!   port, replicate, and verify the profile comes back under its
//!   **original ETag** — a client holding it revalidates to `304` and the
//!   restarted shard recomputes nothing (a strict sequence, one test);
//! * rolling restarts under load: client threads drive a submit / delta /
//!   watch / read mix through the router while three shards restart in
//!   turn, and afterwards every profile read through the router equals
//!   the bytes computed directly through the library.

#![cfg(unix)]
// Test code may panic on failure.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use reaper_core::ProfilingRequest;
use reaper_exec::rng;
use reaper_serve::{Client, ClientError, ProfileFetch};

use common::{grow_profile, quick_request, start_fleet};

#[test]
fn killed_shard_sheds_then_recovers_with_original_etags() {
    let mut fleet = start_fleet(4);
    let router_addr = fleet.router_addr().expect("router address");
    let mut client = Client::new(router_addr);

    // Seed the fleet with completed jobs spread across shards.
    let seeds: Vec<u64> = (100..112).collect();
    let mut jobs = Vec::new();
    for seed in &seeds {
        let request = quick_request(*seed);
        let id = request.job_id();
        let receipt = client.submit(&request).expect("submit");
        jobs.push((id, receipt.job_id));
    }
    let mut baseline = Vec::new();
    for (_, job_id) in &jobs {
        let bytes = client
            .wait_for_profile(job_id, Duration::from_millis(10), 1_000)
            .expect("profile");
        let fetch = client
            .profile_conditional(job_id, None)
            .expect("conditional fetch");
        let ProfileFetch::Fresh { etag, .. } = fetch else {
            panic!("expected fresh fetch, got {fetch:?}");
        };
        baseline.push((bytes, etag));
    }

    // Replicate so every shard mirrors every profile.
    let stats = fleet.replicate_once();
    assert!(
        stats.installed_full > 0,
        "first replication tick must copy profiles between shards: {stats:?}"
    );
    let settle = fleet.replicate_once();
    assert_eq!(settle.installed_full, 0, "second tick must be a no-op: {settle:?}");
    assert_eq!(settle.applied_chains, 0, "second tick must be a no-op: {settle:?}");

    // Kill the shard that owns the first job.
    let (victim_id, victim_job) = (&jobs[0].0, jobs[0].1.clone());
    let victim = fleet.owner_of(*victim_id).expect("owner exists");
    assert!(fleet.kill_shard(victim), "victim shard was live");

    // The router sheds requests for that partition with a retryable 503.
    let shed = client.profile_bytes(&victim_job);
    match shed {
        Err(ClientError::Status(503, body)) => {
            assert!(body.contains("retry"), "503 body should invite a retry: {body}");
        }
        other => panic!("expected 503 while the owner is down, got {other:?}"),
    }

    // Restart on a fresh ephemeral port; the store starts empty, and
    // one replication tick restores the partition from the peers.
    let new_addr = fleet
        .restart_shard(victim)
        .expect("restart")
        .expect("shard index valid");
    let stats = fleet.replicate_once();
    assert!(
        stats.installed_full > 0,
        "restarted shard must re-pull its profiles: {stats:?}"
    );

    // The client's original ETag revalidates straight to 304 — through
    // the router, against the restarted shard, with zero recompute.
    for ((_, job_id), (bytes, etag)) in jobs.iter().zip(&baseline) {
        let fetch = client
            .profile_conditional(job_id, Some(etag))
            .expect("revalidate");
        match fetch {
            ProfileFetch::NotModified { etag: back } => assert_eq!(&back, etag),
            ProfileFetch::Fresh { bytes: fresh, etag: back } => {
                // A non-victim shard may serve fresh bytes; they must
                // still match the original ETag and bytes.
                assert_eq!(&back, etag, "ETag changed across failover");
                assert_eq!(&fresh, bytes, "bytes changed across failover");
            }
            other => panic!("unexpected fetch after failover: {other:?}"),
        }
    }

    // Zero recompute: the restarted shard completed no jobs.
    let mut direct = Client::new(new_addr);
    let metrics = direct.metrics_text().expect("shard metrics");
    assert!(
        metrics.contains("reaper_jobs_completed_total 0"),
        "restarted shard must not recompute profiles:\n{metrics}"
    );
    assert!(
        metrics.contains("reaper_fleet_replication_pulls_total"),
        "shard metrics must expose fleet counters:\n{metrics}"
    );

    // Router metrics recorded the failover.
    let mut router_client = Client::new(router_addr);
    let router_metrics = router_client.metrics_text().expect("router metrics");
    assert!(
        router_metrics.contains("reaper_fleet_info{role=\"router\"} 1"),
        "router identity missing:\n{router_metrics}"
    );
    let failovers = router_metrics
        .lines()
        .find_map(|l| l.strip_prefix("reaper_fleet_failovers_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("failover counter present");
    assert!(failovers >= 1, "router must count the shed as a failover");

    fleet.shutdown();
}

/// Jobs of the rolling-restart scenario.
const ROLLING_SEEDS: [u64; 8] = [101, 202, 303, 404, 505, 606, 707, 808];
/// Client threads driving the mixed load.
const CLIENT_THREADS: u64 = 4;
/// Load runs for four of these; a shard restarts after each of the
/// first three.
const QUARTER: Duration = Duration::from_millis(750);

/// Accepts a success or a failure a restart can cause, all retryable by
/// contract: a `503` shed while the owner is down, a `404` before
/// replication restores the job, a `202` for a job a racing submit
/// recreated on a restarted shard, and a response cut off by the kill.
/// Any other status fails the test.
fn allow_shed<T>(outcome: Result<T, ClientError>) {
    if let Err(e) = outcome {
        assert!(
            matches!(
                e,
                ClientError::Status(202 | 404 | 503, _)
                    | ClientError::Protocol(_)
                    | ClientError::Io(_)
            ),
            "request failed other than by a restart: {e:?}"
        );
    }
}

/// Raises its flag when dropped, so the client threads stop even when the
/// restart sequence panics (the scope would otherwise wait on them).
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One client thread's closed-loop mix until `stop`: per 32 requests, 2
/// submits (re-registrations, which dedup), 4 `delta?since=0` reads, 1
/// watch long-poll and 25 profile reads.
fn mixed_load(addr: SocketAddr, thread: u64, jobs: &[(String, Vec<u8>)], stop: &AtomicBool) {
    let mut client = Client::new(addr);
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let slot = rng::mix64(thread << 32 | i) % ROLLING_SEEDS.len() as u64;
        let slot = usize::try_from(slot).expect("slot < 8");
        let job_id = &jobs[slot].0;
        match i % 32 {
            // A submit racing a just-restarted shard may recreate the
            // job; the next replication tick reconverges it.
            0 | 1 => allow_shed(client.submit(&quick_request(ROLLING_SEEDS[slot]))),
            2..=5 => allow_shed(client.delta_since(job_id, 0)),
            6 => allow_shed(client.watch(job_id, Some(0), 25, 1)),
            _ => allow_shed(client.profile_bytes(job_id)),
        }
        i += 1;
    }
}

#[test]
fn rolling_restarts_under_load_keep_every_profile_byte_equal() {
    // Epoch 1 of each job, computed directly through the library: the
    // job's profile plus one pushed cell.
    let jobs: Vec<(String, Vec<u8>)> = ROLLING_SEEDS
        .iter()
        .map(|&seed| {
            let request = quick_request(seed);
            let outcome = request.execute().expect("direct execution");
            let job_id = ProfilingRequest::format_job_id(request.job_id());
            (job_id, grow_profile(&outcome.run.profile.to_bytes()))
        })
        .collect();

    let mut fleet = start_fleet(4);
    let addr = fleet.router_addr().expect("router address");
    let mut client = Client::new(addr);
    for (seed, (job_id, _)) in ROLLING_SEEDS.iter().zip(&jobs) {
        let receipt = client.submit(&quick_request(*seed)).expect("submit");
        assert_eq!(&receipt.job_id, job_id, "job IDs are content-addressed");
    }
    for (job_id, pushed) in &jobs {
        client
            .wait_for_profile(job_id, Duration::from_millis(10), 3_000)
            .expect("warm-up");
        assert_eq!(client.push_epoch(job_id, pushed).expect("push").epoch, 1);
    }
    fleet.replicate_once();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let (jobs, stop) = (&jobs, &stop);
            scope.spawn(move || mixed_load(addr, thread, jobs, stop));
        }
        let _stop = StopOnDrop(&stop);
        for victim in 0..3 {
            std::thread::sleep(QUARTER);
            assert!(fleet.kill_shard(victim), "shard {victim} was live");
            std::thread::sleep(Duration::from_millis(30));
            fleet
                .restart_shard(victim)
                .expect("restart shard")
                .expect("valid index");
            fleet.replicate_once();
        }
        std::thread::sleep(QUARTER);
    });

    fleet.replicate_once();
    for (job_id, pushed) in &jobs {
        let bytes = client
            .wait_for_profile(job_id, Duration::from_millis(10), 1_000)
            .expect("post-restart read");
        assert_eq!(&bytes, pushed, "byte equality broken for {job_id}");
    }
    fleet.shutdown();
}
