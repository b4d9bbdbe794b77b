//! Byte-identity pin for the memory-system simulator.
//!
//! The digest below was recorded from the simulator that ticked every
//! cycle, before the event-driven loop replaced it. The two are meant to
//! be output-identical by construction; golden tables compare with a
//! tolerance and cannot prove that, so this test pins every `SimResult`
//! field (IPC bits, cycles and all seven command counters) over a sweep
//! of densities, refresh intervals, refresh modes, row policies and core
//! counts.
//!
//! A digest change means simulated performance moved: Fig. 13, the
//! refresh-mode ablation and every power figure downstream move with it.

#![allow(clippy::cast_possible_truncation)]

use reaper_dram_model::Ms;
use reaper_memsim::{simulate, Access, AccessTrace, SimConfig, SimResult};

/// FNV-1a over 64-bit words: a self-contained digest, so the pin does not
/// move if a workspace hash helper changes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &SimResult) {
        self.word(r.ipc.len() as u64);
        for ipc in &r.ipc {
            self.word(ipc.to_bits());
        }
        self.word(r.cycles);
        let s = r.stats;
        for counter in [
            s.activates,
            s.reads,
            s.writes,
            s.refreshes,
            s.per_bank_refreshes,
            s.row_hits,
            s.row_misses,
        ] {
            self.word(counter);
        }
    }
}

/// SplitMix64: the test's own seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A trace cycling through four 32-access phases: mixed traffic,
/// zero-gap load bursts, write-heavy stretches and sparse compute.
fn phased_trace(seed: u64, len: usize) -> AccessTrace {
    let mut rng = SplitMix(seed);
    AccessTrace::new(
        (0..len)
            .map(|i| {
                let r = rng.next();
                let phase = (i / 32) % 4;
                let gap = match phase {
                    0 => r % 40,
                    1 => 0,
                    2 => r % 8,
                    _ => 100 + r % 400,
                } as u32;
                let is_write = match phase {
                    1 => false,
                    2 => !(r >> 40).is_multiple_of(4),
                    _ => (r >> 40).is_multiple_of(4),
                };
                Access {
                    gap,
                    bank: ((r >> 16) % 8) as u8,
                    row: ((r >> 24) % 48) as u32,
                    is_write,
                }
            })
            .collect(),
    )
}

#[test]
fn sim_results_match_the_recorded_digest() {
    let traces: Vec<AccessTrace> = (0..4).map(|i| phased_trace(0x51A0 + i, 512)).collect();
    let mut h = Fnv::new();
    let mut runs = 0u64;
    for gbit in [8, 16, 32, 64] {
        for refresh in [None, Some(64.0), Some(512.0), Some(1280.0)] {
            // tREFI is 100k cycles at 512 ms and 250k at 1,280 ms: long
            // intervals run long enough for all-bank refreshes to land.
            let instructions = if refresh.is_some_and(|t| t >= 512.0) {
                320_000
            } else {
                40_000
            };
            for per_bank in [false, true] {
                for closed in [false, true] {
                    let mut cfg = SimConfig::lpddr4_3200(gbit, refresh.map(Ms::new));
                    if per_bank {
                        cfg = cfg.with_per_bank_refresh();
                    }
                    if closed {
                        cfg = cfg.with_closed_rows();
                    }
                    for cores in [1, 4] {
                        h.result(&simulate(&cfg, &traces[..cores], instructions));
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!((runs, h.0), (128, 0x726a_985f_5c8b_caa0));
}
