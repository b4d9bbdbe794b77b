//! Fig. 4 — steady-state new-failure accumulation rate vs. refresh
//! interval, per vendor, with power-law fits `y = a·x^b`.
//!
//! Methodology: per chip, discover the base failing set with a warm-up
//! profile, then measure newly discovered unique cells per hour over a
//! measurement window spread across simulated wall-clock time.

use reaper_analysis::fit::PowerLawFit;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip};

use crate::table::{fmt_f, Scale, Table};
use crate::util::{dram_temp, merge_sorted_union};

/// Runs the experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig. 4 — steady-state failure accumulation rate vs. interval, 45°C",
        &["vendor", "interval", "rate (cells/hour)", "fit"],
    );

    let ambient = Celsius::new(45.0);
    let temp = dram_temp(ambient);
    let intervals_s: &[f64] = &[1.024, 1.536, 2.048, 3.072];
    // The measurement window must be long enough (in wall-clock hours, at
    // fixed iteration count) that VRT arrivals dominate the residual
    // discovery of low-probability base cells — otherwise the fitted
    // exponent is dragged down by the straggler tail.
    let warmup_iters = scale.pick(12u64, 24u64);
    let measure_hours = scale.pick(96.0, 192.0);
    let measure_iters = scale.pick(12u64, 24u64);
    // Quick mode measures the representative vendor only; Full runs all
    // three (full-capacity chips make this the costliest characterization).
    let vendors: &[Vendor] = scale.pick(&[Vendor::B][..], &Vendor::ALL[..]);

    for &vendor in vendors {
        let mut points = Vec::new();
        for (k, &t_s) in intervals_s.iter().enumerate() {
            // Full capacity so low rates are measurable.
            let cfg = RetentionConfig::for_vendor(vendor);
            let mut chip = SimulatedChip::new(cfg, 0xF164 + k as u64);
            let interval = Ms::from_secs(t_s);

            // Warm-up: discover the base set without advancing time.
            let mut seen = Vec::new();
            for it in 0..warmup_iters {
                for p in DataPattern::standard_set(it) {
                    let outcome = chip.retention_trial(p, interval, temp);
                    merge_sorted_union(&mut seen, outcome.into_vec());
                }
            }
            // Measurement: spread iterations over wall-clock hours.
            let step = Ms::from_hours(measure_hours / measure_iters as f64);
            let mut new_cells = 0u64;
            for it in 0..measure_iters {
                chip.advance(step);
                for p in DataPattern::standard_set(warmup_iters + it) {
                    let outcome = chip.retention_trial(p, interval, temp);
                    new_cells += merge_sorted_union(&mut seen, outcome.into_vec());
                }
            }
            let rate = new_cells as f64 / measure_hours;
            points.push((t_s, rate.max(1e-3)));
            table.push_row(vec![
                vendor.to_string(),
                Ms::from_secs(t_s).to_string(),
                fmt_f(rate),
                String::new(),
            ]);
        }
        let fit = PowerLawFit::fit(&points)
            .expect("invariant: every point's rate is clamped to >= 1e-3 above");
        table.push_row(vec![
            vendor.to_string(),
            "fit".to_string(),
            String::new(),
            fit.to_string(),
        ]);
    }
    table.note("paper fits: polynomial y = a·x^b per vendor; §6.2.3 anchor A(1024ms) = 0.73 cells/hour (Vendor B, 2GB)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_grow_polynomially_with_interval() {
        let t = run(Scale::Quick);
        // For each vendor: rate at 3072ms must dwarf rate at 1024ms.
        for vendor_rows in t.rows.chunks(5) {
            let low: f64 = vendor_rows[0][2].parse().unwrap();
            let high: f64 = vendor_rows[3][2].parse().unwrap();
            assert!(
                high > 10.0 * low.max(0.05),
                "{}: {low} -> {high}",
                vendor_rows[0][0]
            );
            // Fitted exponent is large (paper: ~7.6-8.2).
            let fit = &vendor_rows[4][3];
            assert!(fit.contains("x^"), "fit row: {fit}");
        }
    }
}
