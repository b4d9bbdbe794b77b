//! Shared helpers for the experiment harnesses.

use reaper_analysis::special::phi;
use reaper_core::{FailureProfile, PatternSet, Profiler};
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::num;
use reaper_retention::{ChipPopulation, RetentionConfig, SimulatedChip};
use reaper_softmc::TestHarness;

use crate::table::Scale;

/// DRAM-temperature offset (the chamber holds DRAM 15 °C above ambient).
pub fn dram_temp(ambient: Celsius) -> Celsius {
    ambient + reaper_softmc::thermal::DRAM_OFFSET
}

/// The "representative chip from Vendor B" the paper's Figs. 3, 6–10 use.
pub fn representative_chip(scale: Scale) -> SimulatedChip {
    let div = scale.pick(16, 2);
    SimulatedChip::new(
        RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, div),
        B_CHIP_SEED,
    )
}

/// Seed for the representative chip (fixed so all figures see the same
/// device, as in the paper).
const B_CHIP_SEED: u64 = 0xBC417;

/// A chip population standing in for the 368-chip study.
pub fn study_population(scale: Scale) -> ChipPopulation {
    match scale {
        Scale::Quick => ChipPopulation::sample_study(9, 368),
        Scale::Full => ChipPopulation::paper_study(8, 368),
    }
}

/// Union of `iterations` standard-set profiling iterations driven directly
/// on the chip (no harness time accounting) at the given conditions.
pub fn profile_union(
    chip: &mut SimulatedChip,
    interval: Ms,
    ambient: Celsius,
    iterations: u64,
) -> FailureProfile {
    // A fixed-condition round loop is exactly what the bit-plane batch
    // kernel exists for: the fixed patterns repeat `iterations` times, so
    // the whole loop is one union and each recurring condition runs up to
    // 64 rounds per kernel pass. Bit-identical to the former per-trial
    // loop over the same patterns.
    Profiler::direct_union(
        chip,
        interval,
        dram_temp(ambient),
        num::u64_to_u32(iterations),
        &PatternSet::Standard,
    )
}

/// Builds a harness around a chip clone at the given ambient.
pub fn harness_for(chip: &SimulatedChip, ambient: Celsius, seed: u64) -> TestHarness {
    TestHarness::new(chip.clone(), ambient, seed)
}

/// Empirically fitted per-cell failure-CDF parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFit {
    /// Interval (seconds) at which the cell fails 50 % of trials.
    pub mu: f64,
    /// CDF spread (seconds), estimated from the 16th–84th percentile span.
    pub sigma: f64,
    /// Normalized skew of the empirical CDF:
    /// `((t84 − t50) − (t50 − t16)) / σ`. A normal CDF (the paper's
    /// Fig. 6a claim) has asymmetry ≈ 0.
    pub asymmetry: f64,
}

/// Empirically estimates per-cell failure-CDF parameters (paper §5.5,
/// Figs. 6–8 methodology): run `trials` trials per interval grid point with
/// the random pattern and its inverse, count per-cell failures, and fit
/// each cell's empirical CDF by interpolating its 16/50/84 % crossings.
///
/// Only cells whose CDF is fully resolved inside the grid are returned, in
/// ascending cell-index order.
pub fn estimate_cell_fits(
    chip: &SimulatedChip,
    ambient: Celsius,
    intervals_s: &[f64],
    trials: u64,
) -> Vec<CellFit> {
    estimate_cell_fit_map(chip, ambient, intervals_s, trials)
        .into_values()
        .collect()
}

/// Like [`estimate_cell_fits`] but keyed by cell index, so callers can
/// track the *same* cells across conditions (Fig. 7's methodology).
///
/// The map is a `BTreeMap` on purpose: every float reduction downstream
/// (Fig. 6's mean asymmetry, the lognormal σ fit) folds over its iteration
/// order, and a hash map's per-instance seed would make those sums vary in
/// the last ulps from run to run.
pub fn estimate_cell_fit_map(
    chip: &SimulatedChip,
    ambient: Celsius,
    intervals_s: &[f64],
    trials: u64,
) -> std::collections::BTreeMap<u64, CellFit> {
    use std::collections::BTreeMap;
    let temp = dram_temp(ambient);
    let mut chip = chip.clone();
    let grid = intervals_s.len();
    // counts[row * grid + ii]: failures of the row's weak cell at interval
    // `ii`, rows in ascending cell-index order. Outcomes are sorted, so
    // one forward walk over the rows finds each failure's row; a binary
    // search per failure made Fig. 7's loop ~30 % slower, because the
    // failures are dense among the rows. A failing index outside the weak
    // cells — a VRT arrival, which needs simulated time to pass — is
    // counted in `arrivals`.
    let mut cells: Vec<u64> = chip.cells().iter().map(|c| c.index).collect();
    cells.sort_unstable();
    let mut counts = vec![0u32; cells.len() * grid];
    let mut arrivals: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    // Single trials on purpose: every trial uses a fresh random pattern,
    // so no condition ever recurs and neither cache tier is promoted —
    // each trial is the window scan after a few linear probes of per-chip
    // caches, while the rounds form here would pay a full compile per
    // trial for zero reuse.
    for (ii, &t) in intervals_s.iter().enumerate() {
        for trial in 0..trials {
            let p = if trial % 2 == 0 {
                DataPattern::random(trial)
            } else {
                DataPattern::random(trial - 1).inverse()
            };
            let outcome = chip.retention_trial(p, Ms::from_secs(t), temp);
            let mut row = 0;
            for &cell in outcome.failures() {
                while cells.get(row).is_some_and(|&c| c < cell) {
                    row += 1;
                }
                if cells.get(row) == Some(&cell) {
                    counts[row * grid + ii] += 1;
                } else {
                    arrivals.entry(cell).or_insert_with(|| vec![0; grid])[ii] += 1;
                }
            }
        }
    }

    let crossing = |fracs: &[f64], level: f64| -> Option<f64> {
        for i in 1..fracs.len() {
            if fracs[i - 1] < level && fracs[i] >= level {
                let t0 = intervals_s[i - 1];
                let t1 = intervals_s[i];
                let f0 = fracs[i - 1];
                let f1 = fracs[i];
                let w = if f1 > f0 { (level - f0) / (f1 - f0) } else { 0.0 };
                return Some(t0 + w * (t1 - t0));
            }
        }
        None
    };

    let mut fits = BTreeMap::new();
    let rows = cells.iter().zip(counts.chunks_exact(grid.max(1)));
    for (&cell, counts) in rows.chain(arrivals.iter().map(|(c, v)| (c, v.as_slice()))) {
        // Trials per point: each interval saw `trials` trials, but polarity
        // gating means a cell is only exposed on ~half of them.
        let max_count = counts.iter().copied().max().unwrap_or(0);
        if max_count == 0 {
            continue; // never failed
        }
        let max_count = f64::from(max_count);
        if max_count < trials as f64 * 0.35 {
            continue; // CDF never saturates inside the grid
        }
        let fracs: Vec<f64> = counts.iter().map(|&c| f64::from(c) / max_count).collect();
        let (Some(t16), Some(t50), Some(t84)) = (
            crossing(&fracs, 0.16),
            crossing(&fracs, 0.50),
            crossing(&fracs, 0.84),
        ) else {
            continue;
        };
        let sigma = ((t84 - t16) / 2.0).max(1e-4);
        let asymmetry = ((t84 - t50) - (t50 - t16)) / sigma;
        fits.insert(cell, CellFit { mu: t50, sigma, asymmetry });
    }
    fits
}

/// Theoretical normal CDF value, exposed for shape checks in experiments.
pub fn normal_cdf(z: f64) -> f64 {
    phi(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_chip_is_vendor_b() {
        let chip = representative_chip(Scale::Quick);
        assert_eq!(chip.config().vendor, Vendor::B);
    }

    #[test]
    fn profile_union_grows_with_iterations() {
        let mut chip = representative_chip(Scale::Quick);
        let one = profile_union(&mut chip, Ms::new(2048.0), Celsius::new(45.0), 1).len();
        // One iteration's 12 conditions are each seen once, so every
        // trial routes as a single trial to the window scan.
        let stats = chip.plan_stats();
        assert_eq!((stats.batch_rounds, stats.scalar_trials), (0, 12));
        let mut chip = representative_chip(Scale::Quick);
        let four = profile_union(&mut chip, Ms::new(2048.0), Celsius::new(45.0), 4).len();
        assert!(four >= one);
        assert!(one > 0);
    }

    #[test]
    fn cell_fit_order_is_deterministic_across_calls() {
        // Regression: the fit map used to be HashMap-backed, so
        // `into_values()` order — and every float reduction folded over it
        // downstream — varied with the map's per-instance hash seed.
        let chip = representative_chip(Scale::Quick);
        let intervals: Vec<f64> = (1..=12).map(|i| 0.1 + i as f64 * 0.25).collect();
        let a = estimate_cell_fits(&chip, Celsius::new(45.0), &intervals, 4);
        let b = estimate_cell_fits(&chip, Celsius::new(45.0), &intervals, 4);
        assert!(!a.is_empty(), "no cells fitted");
        assert_eq!(a, b, "fit order must not vary between identical calls");
        let map = estimate_cell_fit_map(&chip, Celsius::new(45.0), &intervals, 4);
        let keys: Vec<u64> = map.keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "fit map iterates in cell-index order");
    }

    #[test]
    fn cell_fit_map_matches_the_recorded_digest() {
        // Recorded from the per-failure BTreeMap counter that the flat
        // table replaced; golden tables compare at 0.1 % and cannot show
        // that the fits stayed bit-identical, so this pins every cell
        // with its μ, σ and asymmetry bits, at Fig. 7's grid.
        let chip = representative_chip(Scale::Quick);
        let intervals: Vec<f64> = (0..24).map(|i| 0.2 + i as f64 * 0.16).collect();
        let mut got = Vec::new();
        for ambient in [40.0, 55.0] {
            let map = estimate_cell_fit_map(&chip, Celsius::new(ambient), &intervals, 6);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (&cell, fit) in &map {
                for w in [cell, fit.mu.to_bits(), fit.sigma.to_bits(), fit.asymmetry.to_bits()] {
                    for b in w.to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            got.push((map.len(), h));
        }
        assert_eq!(
            got,
            [(1744, 0x564d_b248_2bb3_eb69), (6200, 0x8b2d_6054_dcd5_92f7)]
        );
    }

    #[test]
    fn cell_fits_recover_sane_parameters() {
        let chip = representative_chip(Scale::Quick);
        let intervals: Vec<f64> = (1..=30).map(|i| 0.1 + i as f64 * 0.13).collect();
        let fits = estimate_cell_fits(&chip, Celsius::new(45.0), &intervals, 8);
        assert!(!fits.is_empty(), "no cells fitted");
        for f in &fits {
            assert!(f.mu > 0.0 && f.mu < 4.5, "mu {}", f.mu);
            assert!(f.sigma > 0.0 && f.sigma < 1.0, "sigma {}", f.sigma);
        }
    }
}
