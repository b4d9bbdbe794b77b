//! Byte-identity pin for whole profiling jobs.
//!
//! The digest below was recorded from the implementation before chip
//! synthesis, the window scan's Φ compare and the profiler's failure
//! union were rewritten for speed. Those rewrites are meant to be
//! output-identical; golden tables compare with a tolerance and cannot
//! prove that, so this test pins the exact bytes of
//! [`ProfilingRequest::execute`] over 48 seeds, with varied vendor,
//! capacity, interval reach and thermal reach: the RPF1 profile bytes,
//! the per-iteration discovery series, the simulated runtime and the
//! ground-truth size.
//!
//! A digest change means job outcomes changed, and with them every
//! cached profile the service has ever served.

#![allow(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]

use reaper_core::ProfilingRequest;
use reaper_dram_model::Vendor;

/// FNV-1a over bytes: a self-contained digest, so the pin does not move
/// if a workspace hash helper changes.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn request(seed: u64) -> ProfilingRequest {
    let mut req = ProfilingRequest::example(seed);
    req.vendor = [Vendor::A, Vendor::B, Vendor::C][(seed % 3) as usize];
    req.capacity_den = [16, 8, 32, 4][(seed % 4) as usize];
    req.reach_delta_ms = [0.0, 250.0, 500.0][(seed / 3 % 3) as usize];
    req.reach_delta_temp_c = [0.0, 5.0][(seed / 2 % 2) as usize];
    req.rounds = 2 + (seed % 3) as u32;
    req
}

#[test]
fn execute_outcomes_match_the_recorded_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut cells = 0usize;
    for seed in 0..48 {
        let out = request(seed)
            .execute()
            .expect("invariant: the request validates");
        fnv(&mut h, &out.run.profile.to_bytes());
        for it in &out.run.iterations {
            for n in [it.new_unique, it.repeats, it.cumulative] {
                fnv(&mut h, &(n as u64).to_le_bytes());
            }
        }
        fnv(&mut h, &out.run.runtime.as_ms().to_bits().to_le_bytes());
        fnv(&mut h, &(out.truth_cells as u64).to_le_bytes());
        cells += out.run.profile.len();
    }
    assert_eq!((cells, h), (88_673, 0xea1f5802eca5e159));
}
