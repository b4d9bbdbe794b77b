//! Fleet byte-equality conformance: a fleet of any shard count must
//! serve profile bytes bit-identical to a direct library execution of
//! the same requests — submissions, reads, ETags, epoch pushes, and
//! delta chains all flow through the router unchanged.
//!
//! One `#[test]` (the fleet spins many servers; serial execution keeps
//! the socket/thread footprint bounded).

#![cfg(unix)]
// Test code may panic on failure.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use std::time::Duration;

use reaper_portfolio::PortfolioRequest;
use reaper_serve::{Client, DeltaFetch, ProfileFetch};

use common::{grow_profile, quick_request, start_fleet};

#[test]
fn fleet_bytes_match_direct_execution_at_any_shard_count() {
    const SEEDS: [u64; 6] = [11, 22, 33, 44, 55, 66];

    // Ground truth: direct library execution, no service in the path.
    let mut direct = Vec::new();
    for seed in SEEDS {
        let outcome = quick_request(seed).execute().expect("direct execution");
        direct.push(outcome.run.profile.to_bytes());
    }
    // A portfolio race routes by the same content-addressed ID scheme.
    let race_request = PortfolioRequest::example(77);
    let direct_race = race_request
        .execute()
        .expect("direct race")
        .1
        .run
        .profile
        .to_bytes();

    let mut etags_by_fleet: Vec<Vec<String>> = Vec::new();
    let mut delta_by_fleet: Vec<Vec<u8>> = Vec::new();
    for shards in [1usize, 4] {
        let fleet = start_fleet(shards);
        let addr = fleet.router_addr().expect("router address");
        let mut client = Client::new(addr);

        let mut job_ids = Vec::new();
        for seed in SEEDS {
            let receipt = client.submit(&quick_request(seed)).expect("submit via router");
            job_ids.push(receipt.job_id);
        }

        let mut etags = Vec::new();
        for (i, job_id) in job_ids.iter().enumerate() {
            let bytes = client
                .wait_for_profile(job_id, Duration::from_millis(10), 1_000)
                .expect("profile via router");
            assert_eq!(
                bytes, direct[i],
                "shards={shards} seed={} served bytes differ from direct execution",
                SEEDS[i]
            );
            match client
                .profile_conditional(job_id, None)
                .expect("conditional fetch")
            {
                ProfileFetch::Fresh { etag, .. } => etags.push(etag),
                other => panic!("expected fresh profile, got {other:?}"),
            }
        }

        // The portfolio job kind is fleet-routable too, with the same
        // byte-identity guarantee.
        let race_receipt = client
            .submit_portfolio(&race_request)
            .expect("submit race via router");
        let race_bytes = client
            .wait_for_profile(&race_receipt.job_id, Duration::from_millis(10), 1_000)
            .expect("race profile via router");
        assert_eq!(
            race_bytes, direct_race,
            "shards={shards} race bytes differ from direct execution"
        );

        // Push one epoch through the router and read the delta chain
        // back; the wire bytes must not depend on the shard count.
        let pushed = grow_profile(&direct[0]);
        let receipt = client
            .push_epoch(&job_ids[0], &pushed)
            .expect("push epoch via router");
        assert_eq!(receipt.epoch, 1);
        assert!(receipt.changed);
        match client.delta_since(&job_ids[0], 0).expect("delta via router") {
            DeltaFetch::Chain { bytes, epoch, .. } => {
                assert_eq!(epoch, 1);
                delta_by_fleet.push(bytes);
            }
            other => panic!("expected delta chain, got {other:?}"),
        }

        etags_by_fleet.push(etags);
        fleet.shutdown();
    }

    // ETags and delta wire bytes are fleet-size invariant too.
    assert_eq!(
        etags_by_fleet[0], etags_by_fleet[1],
        "ETags must be identical at 1 and 4 shards"
    );
    assert_eq!(
        delta_by_fleet[0], delta_by_fleet[1],
        "delta chains must be identical at 1 and 4 shards"
    );
}
