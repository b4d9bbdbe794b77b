//! The weak-cell model: per-cell retention parameters and data-pattern
//! dependence.
//!
//! A *weak cell* is a cell whose base retention μ (at the reference
//! temperature) is small enough to matter for any refresh interval the
//! experiments sweep. Strong cells — the overwhelming majority — never fail
//! in-range and are not materialized.

use reaper_dram_model::{ChipGeometry, DataPattern};
use reaper_analysis::special::phi;
use reaper_exec::num;

/// One weak cell's retention phenotype.
///
/// The failure probability of the cell on a retention trial of `t` seconds
/// is `Φ((t − μ_eff)/σ_eff)` (paper §5.5, Fig. 6a), where the effective
/// parameters fold in temperature scaling, data-pattern coupling, and VRT
/// state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    /// Dense linear cell index within the chip geometry.
    pub index: u64,
    /// Mean of the failure CDF in seconds, at the reference temperature,
    /// unstressed.
    pub mu0: f32,
    /// Standard deviation of the failure CDF in seconds at the reference
    /// temperature (lognormally distributed across cells, Fig. 6b).
    pub sigma0: f32,
    /// The stored value under which the cell leaks toward failure
    /// (true-cell vs. anti-cell orientation). Storing the opposite value
    /// cannot produce a retention failure in this cell.
    pub vulnerable_bit: bool,
    /// Fractional μ reduction when the cell's worst-case aggressor
    /// neighborhood is stored (data-pattern dependence, §2.3.2).
    pub dpd_strength: f32,
    /// 4-bit aggressor signature: the absolute data values of the
    /// (north, south, west, east) neighbors that maximally stress this cell.
    /// Bit i set means neighbor i stresses the cell when it stores 1.
    pub dpd_signature: u8,
    /// Index into the chip's base-VRT table if this cell exhibits VRT.
    pub vrt_index: Option<u32>,
}

impl WeakCell {
    /// Number of the four neighbors (0..=4) whose stored value under
    /// `pattern` matches this cell's aggressor signature. The quantized
    /// form of [`WeakCell::stress_under`]; pattern lowerings pack this
    /// into a one-byte DPD lane.
    pub fn stress_matches(&self, pattern: DataPattern, geometry: ChipGeometry) -> u8 {
        let row_bits = u64::from(geometry.row_bits());
        let total_rows = geometry.total_rows();
        let row = self.index / row_bits;
        let col = num::u64_to_u32(self.index % row_bits);

        let north = pattern.bit_at((row + total_rows - 1) % total_rows, col);
        let south = pattern.bit_at((row + 1) % total_rows, col);
        let west = pattern.bit_at(row, (col + geometry.row_bits() - 1) % geometry.row_bits());
        let east = pattern.bit_at(row, (col + 1) % geometry.row_bits());

        let neighbors = [north, south, west, east];
        let matches = neighbors
            .iter()
            .enumerate()
            .filter(|&(i, &bit)| bit == ((self.dpd_signature >> i) & 1 == 1))
            .count();
        u8::try_from(matches).expect("invariant: at most four neighbors can match")
    }

    /// DPD stress fraction in `[0, 1]` for this cell under `pattern`:
    /// the fraction of the four neighbors whose stored value matches the
    /// cell's aggressor signature.
    pub fn stress_under(&self, pattern: DataPattern, geometry: ChipGeometry) -> f64 {
        f64::from(self.stress_matches(pattern, geometry)) / 4.0
    }

    /// The bit this cell stores under `pattern`.
    pub fn stored_bit(&self, pattern: DataPattern, geometry: ChipGeometry) -> bool {
        let row_bits = u64::from(geometry.row_bits());
        pattern.bit_at(self.index / row_bits, num::u64_to_u32(self.index % row_bits))
    }

    /// Effective CDF mean in seconds given a temperature μ-scale factor, a
    /// stress fraction, and an optional VRT low-state μ factor.
    pub fn effective_mu(&self, mu_temp_scale: f64, stress: f64, vrt_factor: f64) -> f64 {
        self.mu0 as f64 * mu_temp_scale * (1.0 - self.dpd_strength as f64 * stress) * vrt_factor
    }

    /// Failure probability on a single retention trial of `t_secs` seconds.
    ///
    /// `mu_temp_scale`/`sigma_temp_scale` come from
    /// [`RetentionConfig::mu_temp_scale`]/[`sigma_temp_scale`];
    /// `stress ∈ [0,1]` is the DPD stress fraction; `vrt_factor` is 1.0 or
    /// the low-state μ factor.
    ///
    /// [`RetentionConfig::mu_temp_scale`]: crate::RetentionConfig::mu_temp_scale
    /// [`sigma_temp_scale`]: crate::RetentionConfig::sigma_temp_scale
    pub fn fail_probability(
        &self,
        t_secs: f64,
        mu_temp_scale: f64,
        sigma_temp_scale: f64,
        stress: f64,
        vrt_factor: f64,
    ) -> f64 {
        let mu = self.effective_mu(mu_temp_scale, stress, vrt_factor);
        let sigma = self.sigma0 as f64 * sigma_temp_scale;
        phi((t_secs - mu) / sigma)
    }

    /// Worst-case single-trial failure probability at the given temperature
    /// scales: vulnerable value stored, full aggressor stress, VRT low state
    /// if the cell has one (`vrt_factor` should then be the low-μ factor).
    pub fn worst_case_fail_probability(
        &self,
        t_secs: f64,
        mu_temp_scale: f64,
        sigma_temp_scale: f64,
        vrt_factor: f64,
    ) -> f64 {
        self.fail_probability(t_secs, mu_temp_scale, sigma_temp_scale, 1.0, vrt_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cell(mu0: f32) -> WeakCell {
        WeakCell {
            index: 12_345,
            mu0,
            sigma0: 0.1,
            vulnerable_bit: true,
            dpd_strength: 0.2,
            dpd_signature: 0b1111,
            vrt_index: None,
        }
    }

    #[test]
    fn fail_probability_is_normal_cdf() {
        let c = test_cell(2.0);
        // At t = mu (unstressed, no temp shift): p = 0.5
        let p = c.fail_probability(2.0, 1.0, 1.0, 0.0, 1.0);
        assert!((p - 0.5).abs() < 1e-9);
        // One sigma above: ~0.841
        let p = c.fail_probability(2.1, 1.0, 1.0, 0.0, 1.0);
        assert!((p - 0.8413).abs() < 1e-3);
        // Far below: ~0
        let p = c.fail_probability(1.0, 1.0, 1.0, 0.0, 1.0);
        assert!(p < 1e-9);
    }

    #[test]
    fn longer_interval_monotonically_riskier() {
        let c = test_cell(2.0);
        let mut prev = 0.0;
        for i in 1..40 {
            let t = i as f64 * 0.1;
            let p = c.fail_probability(t, 1.0, 1.0, 0.0, 1.0);
            assert!(p >= prev, "p({t}) = {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn stress_lowers_mu_and_raises_risk() {
        let c = test_cell(2.0);
        let relaxed = c.fail_probability(1.8, 1.0, 1.0, 0.0, 1.0);
        let stressed = c.fail_probability(1.8, 1.0, 1.0, 1.0, 1.0);
        assert!(stressed > relaxed);
        // full stress with strength 0.2: mu 2.0 -> 1.6
        assert!((c.effective_mu(1.0, 1.0, 1.0) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn vrt_low_state_raises_risk() {
        let c = test_cell(2.0);
        let high = c.fail_probability(1.5, 1.0, 1.0, 0.0, 1.0);
        let low = c.fail_probability(1.5, 1.0, 1.0, 0.0, 0.7);
        assert!(low > high);
    }

    #[test]
    fn temperature_scale_shifts_cdf() {
        let c = test_cell(2.0);
        let cold = c.fail_probability(1.5, 1.0, 1.0, 0.0, 1.0);
        let hot = c.fail_probability(1.5, 0.7, 0.8, 0.0, 1.0); // mu: 1.4
        assert!(hot > cold);
        assert!(hot > 0.5); // t above shifted mu
    }

    #[test]
    fn stress_under_solid_patterns() {
        use reaper_dram_model::ChipGeometry;
        let g = ChipGeometry::small();
        let mut c = test_cell(2.0);
        // signature all-ones: solid1 neighborhood fully stresses the cell
        c.dpd_signature = 0b1111;
        assert_eq!(c.stress_under(DataPattern::solid1(), g), 1.0);
        assert_eq!(c.stress_under(DataPattern::solid0(), g), 0.0);
        // signature 0b0011 (N,S stress on 1): solid1 gives 2/4
        c.dpd_signature = 0b0011;
        assert_eq!(c.stress_under(DataPattern::solid1(), g), 0.5);
        assert_eq!(c.stress_under(DataPattern::solid0(), g), 0.5);
    }

    #[test]
    fn stored_bit_follows_pattern() {
        use reaper_dram_model::ChipGeometry;
        let g = ChipGeometry::small();
        let c = test_cell(2.0);
        assert!(!c.stored_bit(DataPattern::solid0(), g));
        assert!(c.stored_bit(DataPattern::solid1(), g));
    }

    #[test]
    fn worst_case_dominates_any_stress() {
        let c = test_cell(2.0);
        let worst = c.worst_case_fail_probability(1.9, 1.0, 1.0, 1.0);
        for s in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(c.fail_probability(1.9, 1.0, 1.0, s, 1.0) <= worst + 1e-12);
        }
    }
}
