//! Fleet throughput gate: aggregate cache-hit read capacity of a 4-shard
//! fleet must be at least 2× a single `reaper-serve` node's.
//!
//! Both sides run the same request class — closed-loop `GET
//! /v1/profiles/{id}` reads of eight resident quick-job profiles from 4
//! client threads for a 3 s window. The single node serves every read;
//! in the fleet each read goes straight to the shard that owns the
//! profile, so the sum measures shard parallelism. A host with one
//! hardware thread cannot express that parallelism, so there the gate is
//! not enforced.
//!
//! Timed, so ignored by default; CI runs it in release:
//!
//! ```text
//! cargo test --release -p reaper-fleet --test throughput -- --ignored
//! ```

#![cfg(unix)]
// Test code may panic on failure.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use reaper_serve::{Client, Server, ServerConfig};

use common::{grow_profile, quick_request, start_fleet};

/// The resident profiles the reads cycle through.
const JOB_SEEDS: [u64; 8] = [101, 202, 303, 404, 505, 606, 707, 808];
/// Closed-loop client threads on each side.
const CLIENT_THREADS: usize = 4;
/// Shards in the fleet.
const SHARDS: usize = 4;
/// Length of each timed read window.
const WINDOW: Duration = Duration::from_secs(3);
/// Fleet capacity must be at least this multiple of the single node's.
const MIN_RATIO: f64 = 2.0;

/// Submits every quick job through `client` and waits for its profile,
/// returning each job's ID and profile bytes in `JOB_SEEDS` order.
fn submit_and_wait(client: &mut Client) -> Vec<(String, Vec<u8>)> {
    let ids: Vec<String> = JOB_SEEDS
        .iter()
        .map(|&seed| client.submit(&quick_request(seed)).expect("submit").job_id)
        .collect();
    ids.into_iter()
        .map(|id| {
            let bytes = client
                .wait_for_profile(&id, Duration::from_millis(10), 3_000)
                .expect("warm-up");
            (id, bytes)
        })
        .collect()
}

/// Closed-loop cache-hit reads for `WINDOW`: each client thread holds one
/// client per entry of `addrs` and cycles through `reads` (client index,
/// job ID) from its own offset. Returns requests per second.
fn closed_loop_reads(addrs: &[SocketAddr], reads: &[(usize, String)]) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for offset in 0..CLIENT_THREADS {
            let (stop, total) = (&stop, &total);
            scope.spawn(move || {
                let mut clients: Vec<Client> = addrs.iter().map(|&a| Client::new(a)).collect();
                let mut i = offset;
                while !stop.load(Ordering::Relaxed) {
                    let (client, job_id) = &reads[i % reads.len()];
                    let bytes = clients[*client].profile_bytes(job_id).expect("read");
                    assert!(bytes.is_some(), "profile {job_id} is resident");
                    i += 1;
                }
                total.fetch_add((i - offset) as u64, Ordering::Relaxed);
            });
        }
        while started.elapsed() < WINDOW {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// Single node: one client per thread, every read to the one server.
fn single_node_reads_per_sec() -> f64 {
    let server = Server::start(ServerConfig::default()).expect("bind single node");
    let addr = server.local_addr();
    let jobs = submit_and_wait(&mut Client::new(addr));
    let reads: Vec<(usize, String)> = jobs.into_iter().map(|(id, _)| (0, id)).collect();
    let rps = closed_loop_reads(&[addr], &reads);
    server.shutdown();
    rps
}

/// Fleet: jobs submitted through the router and pushed to epoch 1, the
/// fleet replicated, then each read sent directly to the owning shard,
/// one client per job per thread.
fn fleet_reads_per_sec() -> f64 {
    let fleet = start_fleet(SHARDS);
    let mut client = Client::new(fleet.router_addr().expect("router address"));
    let jobs = submit_and_wait(&mut client);
    for (id, bytes) in &jobs {
        let receipt = client
            .push_epoch(id, &grow_profile(bytes))
            .expect("push epoch");
        assert_eq!(receipt.epoch, 1);
    }
    fleet.replicate_once();
    let owners: Vec<SocketAddr> = JOB_SEEDS
        .iter()
        .map(|&seed| {
            let owner = fleet
                .owner_of(quick_request(seed).job_id())
                .expect("owner exists");
            fleet.shard_addr(owner).expect("owner is live")
        })
        .collect();
    let reads: Vec<(usize, String)> = jobs.into_iter().map(|(id, _)| id).enumerate().collect();
    let rps = closed_loop_reads(&owners, &reads);
    fleet.shutdown();
    rps
}

#[test]
#[ignore = "timed gate; run in release with --ignored"]
fn four_shards_serve_twice_the_cache_hit_reads_of_one_node() {
    let single = single_node_reads_per_sec();
    let fleet = fleet_reads_per_sec();
    let ratio = if single > 0.0 { fleet / single } else { 0.0 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 2 {
        assert!(
            ratio >= MIN_RATIO,
            "fleet {fleet:.0} req/s is {ratio:.2}x the single node's {single:.0} req/s \
             (< {MIN_RATIO}x) on a {cores}-core host"
        );
    }
}
