//! Fig. 4 — steady-state new-failure accumulation rate vs. refresh
//! interval, per vendor, with power-law fits `y = a·x^b`.
//!
//! Methodology: per chip, discover the base failing set with a warm-up
//! profile, then measure newly discovered unique cells per hour over a
//! measurement window spread across simulated wall-clock time.

use reaper_analysis::fit::PowerLawFit;
use reaper_core::merge_sorted_union;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip};

use crate::table::{fmt_f, Scale, Table};
use crate::util::dram_temp;

/// Runs the experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig. 4 — steady-state failure accumulation rate vs. interval, 45°C",
        &["vendor", "interval", "rate (cells/hour)", "fit"],
    );

    let ambient = Celsius::new(45.0);
    let temp = dram_temp(ambient);
    // Ascending: the last interval's chip costs the most.
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
        // One full-capacity chip per interval (so low rates are
        // measurable), each independent of the others: fan them out
        // longest interval first, since the 3,072 ms chip costs more than
        // the other three together and a worker claiming items in table
        // order would start it last. Rows keep table order.
        let by_cost: Vec<usize> = (0..intervals_s.len()).rev().collect();
        let mut rates = reaper_exec::par_map(&by_cost, |&k| {
            let chip = SimulatedChip::new(RetentionConfig::for_vendor(vendor), 0xF164 + k as u64);
            (k, accumulation_rate(chip, intervals_s[k], temp, warmup_iters, measure_iters, measure_hours))
        });
        rates.sort_by_key(|&(k, _)| k);
        let mut points = Vec::new();
        for (&t_s, (_, rate)) in intervals_s.iter().zip(rates) {
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

/// New cells per hour on a full-capacity `chip` profiled at `t_s`
/// seconds: a warm-up of `warmup_iters` standard-set iterations discovers
/// the base failing set without advancing time, then `measure_iters`
/// iterations spread over `measure_hours` count the cells new to it.
fn accumulation_rate(
    mut chip: SimulatedChip,
    t_s: f64,
    temp: Celsius,
    warmup_iters: u64,
    measure_iters: u64,
    measure_hours: f64,
) -> f64 {
    let interval = Ms::from_secs(t_s);
    // The warm-up runs at one clock, so its trials are one union: each
    // fixed pattern's iterations run as one kernel group. The measured
    // iterations each advance the clock and stay one union per step,
    // merged into `seen` once; the cells new to `seen` are the same as
    // merging trial by trial.
    let warmup: Vec<DataPattern> = (0..warmup_iters).flat_map(DataPattern::standard_set).collect();
    let mut seen = chip.retention_trial_union(&warmup, interval, temp).into_vec();
    // `seen` grows by about one cell per VRT arrival; reserving the
    // expected growth up front spares the multi-MB doubling copies, each
    // of which kept the old block resident next to the new.
    let arrivals = chip.config().vrt_arrival_rate_per_hour(t_s, temp) * measure_hours;
    seen.reserve(arrivals as usize + arrivals as usize / 4);
    let step_ms = Ms::from_hours(measure_hours / measure_iters as f64);
    let mut new_cells = 0usize;
    for it in 0..measure_iters {
        chip.advance(step_ms);
        new_cells += merge_sorted_union(&mut seen, &mut step_union(&mut chip, warmup_iters + it, interval, temp));
    }
    new_cells as f64 / measure_hours
}

/// The union of one standard-set iteration's trials, ascending.
fn step_union(chip: &mut SimulatedChip, iteration: u64, interval: Ms, temp: Celsius) -> Vec<u64> {
    chip.retention_trial_union(&DataPattern::standard_set(iteration), interval, temp)
        .into_vec()
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
