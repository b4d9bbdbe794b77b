//! Byte-identity pins for chip synthesis and single trials.
//!
//! The digests below were recorded from the implementation before the
//! synthesis collision table, the packed-key cell sort and the certified
//! Φ compare replaced their predecessors. Those changes are meant to be
//! output-identical by construction; golden tables compare with a
//! tolerance and cannot prove that, so these tests pin the exact bytes:
//!
//! * every synthesized cell, in the chip's cell-array order, for Vendors
//!   A/B/C at full and 1/16 capacity, plus a tiny geometry whose 1 Kb
//!   address space makes index collisions (and so the redraw path)
//!   certain;
//! * a transcript of single trials on one chip across clock steps, so the
//!   window scan, VRT arrivals and outcome assembly are pinned too.
//!
//! A digest change means synthesized chips or trial outcomes changed:
//! every golden table, profile and job ID downstream moves with them.

use reaper_dram_model::{Celsius, ChipGeometry, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip, WeakCell};

/// FNV-1a over 64-bit words: a self-contained digest, so the pin does not
/// move if a workspace hash helper changes.
#[derive(Clone, Copy)]
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

    fn cell(&mut self, c: &WeakCell) {
        self.word(c.index);
        self.word(u64::from(c.mu0.to_bits()));
        self.word(u64::from(c.sigma0.to_bits()));
        self.word(u64::from(c.vulnerable_bit));
        self.word(u64::from(c.dpd_strength.to_bits()));
        self.word(u64::from(c.dpd_signature));
        self.word(c.vrt_index.map_or(u64::MAX, u64::from));
    }
}

fn chip_digest(chip: &SimulatedChip) -> (usize, u64) {
    let mut h = Fnv::new();
    for c in chip.cells() {
        h.cell(c);
    }
    (chip.cells().len(), h.0)
}

/// 2 banks × 8 rows × 64 bits: about 200 weak cells in a 1,024-bit
/// address space, so roughly one draw in ten collides.
fn tiny_cfg() -> RetentionConfig {
    RetentionConfig::for_vendor(Vendor::B)
        .with_geometry(ChipGeometry::new(2, 8, 64))
        .with_represented_bits(34_000_000)
}

#[test]
fn synthesized_cells_match_the_recorded_digests() {
    let mut got = Vec::new();
    for vendor in Vendor::ALL {
        for den in [1, 16] {
            let cfg = RetentionConfig::for_vendor(vendor).with_capacity_scale(1, den);
            got.push(chip_digest(&SimulatedChip::new(cfg, 0x5EED_0000 + den)));
        }
    }
    for seed in 0..4 {
        let chip = SimulatedChip::new(tiny_cfg(), seed);
        let mut indices: Vec<u64> = chip.cells().iter().map(|c| c.index).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(
            indices.len(),
            chip.cells().len(),
            "indices must stay distinct"
        );
        got.push(chip_digest(&chip));
    }
    let want: [(usize, u64); 10] = [
        (69498, 0x1565573ca88b7904),
        (4215, 0xd72cb932196a3e33),
        (100082, 0xd18139505d68db14),
        (6101, 0x8d6794f4868f98c1),
        (145921, 0x683df72d7b24be64),
        (8934, 0x09cc70ba2a1c3670),
        (181, 0xa863c49de9769844),
        (197, 0xc4f0c01f74888910),
        (187, 0x7280182483d216e4),
        (176, 0xa2bc79adce1c8be4),
    ];
    assert_eq!(got, want);
}

#[test]
fn single_trial_transcript_matches_the_recorded_digest() {
    // Jittered temperatures keep most conditions one-shot (the window
    // scan, with and without a lowering); the back-to-back 60 °C trials
    // compile a plan on the second sighting and run it through the
    // kernel; clock steps bring VRT arrivals, whose tail the outcome
    // assembly merges in.
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16);
    let mut chip = SimulatedChip::new(cfg, 0x7A1A);
    let mut h = Fnv::new();
    let mut trials = 0u64;
    for step in 0..6u64 {
        chip.advance(Ms::from_hours(3.0));
        for p in DataPattern::standard_set(step) {
            for temp in [
                60.0,
                60.0,
                60.0 + 0.013 * (step as f64 + 1.0),
                70.0 - 0.007 * step as f64,
            ] {
                let interval = Ms::new(1024.0 + 512.0 * (step % 3) as f64);
                let out = chip.retention_trial(p, interval, Celsius::new(temp));
                h.word(out.len() as u64);
                for &i in out.failures() {
                    h.word(i);
                }
                trials += 1;
            }
        }
    }
    let stats = chip.plan_stats();
    assert!(stats.scalar_trials > 0 && stats.lowered_trials > 0 && stats.plan_trials > 0);
    assert!(
        chip.arrival_count() > 0,
        "the transcript must cover arrivals"
    );
    assert_eq!((trials, h.0), (288, 0x661442502672aa2f));
}
