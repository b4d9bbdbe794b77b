//! Helpers shared by the fleet test binaries.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use reaper_core::{FailureProfile, ProfilingRequest};
use reaper_fleet::{Fleet, FleetConfig};

/// A job small enough to execute in well under a second on one core.
pub fn quick_request(seed: u64) -> ProfilingRequest {
    let mut r = ProfilingRequest::example(seed);
    r.capacity_den = 64;
    r.rounds = 2;
    r.target_interval_ms = 512.0;
    r.reach_delta_ms = 128.0;
    r
}

/// Adds one fresh cell to an encoded profile (a re-profiling push).
pub fn grow_profile(bytes: &[u8]) -> Vec<u8> {
    let profile = FailureProfile::from_bytes(bytes).expect("decode profile");
    let mut cells: Vec<u64> = profile.iter().collect();
    let fresh = cells.iter().max().copied().unwrap_or(0) + 1;
    cells.push(fresh);
    FailureProfile::from_cells(cells).to_bytes()
}

/// A fleet of `shards` shards that run one worker each.
pub fn start_fleet(shards: usize) -> Fleet {
    let mut config = FleetConfig {
        shards,
        ..FleetConfig::default()
    };
    config.shard_template.workers = 1;
    Fleet::start(config).expect("start fleet")
}
