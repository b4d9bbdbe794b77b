//! The weak-cell model: per-cell retention parameters and data-pattern
//! dependence.
//!
//! A *weak cell* is a cell whose base retention μ (at the reference
//! temperature) is small enough to matter for any refresh interval the
//! experiments sweep. Strong cells — the overwhelming majority — never fail
//! in-range and are not materialized.

use std::sync::LazyLock;

use reaper_dram_model::{ChipGeometry, DataPattern};
use reaper_analysis::special::phi;
use reaper_exec::num;

use crate::batch::U53_SCALE;
use crate::chip::Z_CUTOFF;

/// Interpolation-table nodes per unit of z. The table covers the band
/// `|z| ≤ Z_CUTOFF` in which the scan makes a failure draw.
const PHI_TABLE_STEPS: f64 = 512.0;
/// Number of table intervals over `[−Z_CUTOFF, Z_CUTOFF]`.
const PHI_TABLE_LEN: usize = 4096;

/// The certification margin ε of [`below_phi`]: a strict bound on
/// `|phi_approx(z) − phi(z)|` over the table's range. Linear
/// interpolation at 1/512 spacing is off by at most `h²/8 · max|Φ''|
/// ≈ 1.2e-7`; the tests pin the bound with a Lipschitz sweep.
const PHI_EPS: f64 = 2e-6;

/// The DPD level (matches-of-4) of full aggressor stress, a stress
/// fraction of exactly 1: the worst case the ground truth and the
/// VRT arrivals, which have no DPD, are evaluated at.
pub(crate) const FULL_STRESS: u8 = 4;

/// `phi` at the table nodes `z_k = −Z_CUTOFF + k / PHI_TABLE_STEPS`.
static PHI_TABLE: LazyLock<Vec<f64>> = LazyLock::new(|| {
    (0..=PHI_TABLE_LEN)
        .map(|k| phi(k as f64 / PHI_TABLE_STEPS - Z_CUTOFF))
        .collect()
});

/// The table-interpolated `Φ̃(z)`, or `None` outside
/// `[−Z_CUTOFF, Z_CUTOFF]` (NaN included).
fn phi_approx(z: f64) -> Option<f64> {
    if !(-Z_CUTOFF..=Z_CUTOFF).contains(&z) {
        return None;
    }
    let x = (z + Z_CUTOFF) * PHI_TABLE_STEPS;
    #[allow(clippy::cast_possible_truncation)]
    // lint: allow(lossy-cast) x lies in [0, 4096]: its floor is a small non-negative integer
    let k = (x as usize).min(PHI_TABLE_LEN - 1);
    let (lo, hi) = match PHI_TABLE.get(k..=k + 1) {
        Some(&[lo, hi]) => (lo, hi),
        _ => return None,
    };
    Some(lo + (x - k as f64) * (hi - lo))
}

/// The failure decision `u < phi(z)` of one in-band draw, certified: it
/// compares `u` with the table value `Φ̃(z)` and evaluates `phi` only
/// when `u` lies within [`PHI_EPS`] of it. Since `|Φ̃(z) − phi(z)| <
/// PHI_EPS` on the table's range, `u < Φ̃(z) − ε` implies `u < phi(z)`
/// and `u > Φ̃(z) + ε` implies `u > phi(z)`: the answer is exactly
/// `u < phi(z)`, bit for bit, at a table lookup's cost for all but a
/// ~4e-6 fraction of draws. The crate's one `u < Φ(z)` decision.
pub(crate) fn below_phi(u: f64, z: f64) -> bool {
    // One compare away from the table value decides, as a value rather
    // than a branch on it: the draw falls on either side about equally.
    match phi_approx(z) {
        Some(approx) if (u - approx).abs() > PHI_EPS => u < approx,
        _ => u < phi(z),
    }
}

/// Width of the band of 53-bit draws, starting at a compiled lane's
/// certified floor ([`phi_floor_u53`]), that the floor cannot decide: at
/// least `⌈2·PHI_EPS·2⁵³⌉ + 3` (the cast truncates, hence `+ 4`).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
// lint: allow(lossy-cast) a positive constant near 3.6e10, far inside u64
pub(crate) const PHI_BAND_U53: u64 = (2.0 * PHI_EPS * U53_SCALE) as u64 + 4;

/// The certified floor `L = ⌊(Φ̃(z) − PHI_EPS)·2⁵³⌋` of an in-band
/// compiled lane, `|z| ≤ Z_CUTOFF`, against the exact threshold
/// `T = u53_threshold(phi(z))` of [`crate::batch::u53_threshold`]: a
/// 53-bit draw `d < L` is below `T` and one `d ≥ L + PHI_BAND_U53` is not,
/// so only a draw in the band between needs `T`, and with it `phi`.
///
/// Proof: `phi(z) > Φ̃(z) − ε`, and the margin between them, at least
/// `ε − 1.2e-7`, is ~1.7e10 units of 2⁻⁵³, far more than the under one
/// unit by which the subtraction and the floor can move `L`; so `L < T`.
/// And `T < phi(z)·2⁵³ + 1 < (Φ̃(z) + ε)·2⁵³ + 1 ≤ L + 2ε·2⁵³ + 3`,
/// counting a unit each for the floor and the rounding: `T < L + W`.
/// The crate's third certified compare, after [`below_phi`] and
/// [`phi_at_least`], and the plan compile's: it calls no `phi`.
pub(crate) fn phi_floor_u53(z: f64) -> u64 {
    let approx = phi_approx(z).expect("invariant: in-band lanes have |z| <= Z_CUTOFF");
    let floor = ((approx - PHI_EPS) * U53_SCALE).floor();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        // lint: allow(lossy-cast) Φ̃(z) − ε lies in (0, 1) on the band: the floor is integral and below 2^53
        floor as u64
    }
}

/// The ground-truth membership test `phi(z) >= p`, certified like
/// [`below_phi`]: in the table's band it compares `p` with `Φ̃(z) ± ε`;
/// past the band it uses `phi`'s monotonicity, since every `phi(z)` below
/// `−Z_CUTOFF` lies under `Φ̃(−Z_CUTOFF) + ε` (about 3.2e-5) and every one
/// above `Z_CUTOFF` over `Φ̃(Z_CUTOFF) − ε`. `phi` itself runs only when
/// `p` falls inside one of those margins, so the answer is exactly
/// `phi(z) >= p`, bit for bit.
pub(crate) fn phi_at_least(z: f64, p: f64) -> bool {
    let edge = |z: f64| phi_approx(z).expect("invariant: ±Z_CUTOFF lie on the table's range");
    match phi_approx(z) {
        Some(approx) if approx - PHI_EPS >= p => true,
        Some(approx) if approx + PHI_EPS < p => false,
        None if z < -Z_CUTOFF && p >= edge(-Z_CUTOFF) + PHI_EPS => false,
        None if z > Z_CUTOFF && p <= edge(Z_CUTOFF) - PHI_EPS => true,
        _ => phi(z) >= p,
    }
}

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
    /// The cell's row and column: one `index / row_bits` divmod.
    fn row_col(&self, geometry: ChipGeometry) -> (u64, u32) {
        let row_bits = u64::from(geometry.row_bits());
        (self.index / row_bits, num::u64_to_u32(self.index % row_bits))
    }

    /// Matches-of-4 of the neighbours' `stored` bits (north, south, west,
    /// east in bits 0–3, as [`DataPattern::neighbours_when`] packs them)
    /// against the aggressor signature.
    fn matches(&self, stored: u8) -> u8 {
        let mismatches = (stored ^ self.dpd_signature) & 0b1111;
        4 - u8::try_from(mismatches.count_ones()).expect("invariant: a 4-bit mask has at most 4 ones")
    }

    /// Number of the four neighbors (0..=4) whose stored value under
    /// `pattern` matches this cell's aggressor signature. The quantized
    /// form of [`WeakCell::stress_under`]; pattern lowerings pack this
    /// into a one-byte DPD lane.
    pub fn stress_matches(&self, pattern: DataPattern, geometry: ChipGeometry) -> u8 {
        let (row, col) = self.row_col(geometry);
        let stored = pattern
            .neighbours_when(geometry, row, col, pattern.bit_at(row, col))
            .expect("invariant: the cell stores the bit it stores");
        self.matches(stored)
    }

    /// DPD stress fraction in `[0, 1]` for this cell under `pattern`:
    /// the fraction of the four neighbors whose stored value matches the
    /// cell's aggressor signature.
    pub fn stress_under(&self, pattern: DataPattern, geometry: ChipGeometry) -> f64 {
        f64::from(self.stress_matches(pattern, geometry)) / 4.0
    }

    /// The bit this cell stores under `pattern`.
    pub fn stored_bit(&self, pattern: DataPattern, geometry: ChipGeometry) -> bool {
        let (row, col) = self.row_col(geometry);
        pattern.bit_at(row, col)
    }

    /// The polarity gate and DPD stress under `pattern` from one divmod
    /// and one resolution of the pattern's family
    /// ([`DataPattern::neighbours_when`]): [`WeakCell::stress_matches`]
    /// when the cell stores its vulnerable bit, `None` when it cannot
    /// fail. The window scan, pattern lowering and plan compile all gate
    /// cells through this.
    pub(crate) fn active_stress(&self, pattern: DataPattern, geometry: ChipGeometry) -> Option<u8> {
        let (row, col) = self.row_col(geometry);
        pattern
            .neighbours_when(geometry, row, col, self.vulnerable_bit)
            .map(|stored| self.matches(stored))
    }

    /// The member of the pair `(pattern, pattern.inverse())` that
    /// activates the cell (`true` for the inverse) and its DPD stress
    /// there, from one gather ([`DataPattern::neighbourhood`]): every
    /// cell stores its vulnerable bit under exactly one member, and the
    /// inverse stores the complement of all five bits, so its matches-of-4
    /// are those of the complemented neighbours.
    pub(crate) fn pair_stress(&self, pattern: DataPattern, geometry: ChipGeometry) -> (bool, u8) {
        let (row, col) = self.row_col(geometry);
        let (own, stored) = pattern.neighbourhood(geometry, row, col);
        let inverse = own != self.vulnerable_bit;
        (inverse, self.matches(stored ^ (u8::from(inverse) * 0b1111)))
    }

    /// Effective CDF mean in seconds given a temperature μ-scale factor, a
    /// stress fraction, and an optional VRT low-state μ factor.
    pub fn effective_mu(&self, mu_temp_scale: f64, stress: f64, vrt_factor: f64) -> f64 {
        self.mu0 as f64 * mu_temp_scale * (1.0 - self.dpd_strength as f64 * stress) * vrt_factor
    }

    /// The trial z-score `(t − μ_eff)/σ_eff` at `t_secs` seconds for a cell
    /// at DPD level `lvl` (matches-of-4, stress `lvl / 4`): the one
    /// expression the window scan, plan compilation, the kernel's band
    /// fallback, the VRT-arrival rounds and the ground truth share, so
    /// they agree bit for bit. [`FULL_STRESS`] is a stress of exactly 1.
    pub(crate) fn z_at(&self, lvl: u8, t_secs: f64, mu_temp_scale: f64, sigma_temp_scale: f64, vrt_factor: f64) -> f64 {
        self.z_score(t_secs, mu_temp_scale, sigma_temp_scale, f64::from(lvl) / 4.0, vrt_factor)
    }

    /// The z-score at a stress fraction, behind [`WeakCell::z_at`] and
    /// [`WeakCell::fail_probability`].
    fn z_score(
        &self,
        t_secs: f64,
        mu_temp_scale: f64,
        sigma_temp_scale: f64,
        stress: f64,
        vrt_factor: f64,
    ) -> f64 {
        let mu = self.effective_mu(mu_temp_scale, stress, vrt_factor);
        let sigma = self.sigma0 as f64 * sigma_temp_scale;
        (t_secs - mu) / sigma
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
        phi(self.z_score(t_secs, mu_temp_scale, sigma_temp_scale, stress, vrt_factor))
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
    fn phi_table_error_is_certified_below_eps() {
        // Sweep z over [−4, 4] with grid step δ = 2⁻¹⁹, a divisor of the
        // table spacing, so each grid interval lies inside one linear
        // piece and the finite differences are the pieces' exact slopes.
        // Any z lies within δ of a grid point g, so
        // |Φ̃(z) − phi(z)| ≤ |Φ̃(g) − phi(g)| + δ·(L_Φ̃ + L_phi): the bound
        // below then holds on the whole range, with a margin far above
        // the few ulps of rounding in either evaluation.
        let delta = 1.0 / f64::from(1u32 << 19);
        let (mut max_err, mut l_approx, mut l_phi) = (0.0f64, 0.0f64, 0.0f64);
        let mut prev: Option<(f64, f64)> = None;
        for k in 0..=(8u32 << 19) {
            let z = -Z_CUTOFF + f64::from(k) * delta;
            let exact = phi(z);
            let approx = phi_approx(z).expect("z lies on the table's range");
            max_err = max_err.max((approx - exact).abs());
            if let Some((prev_exact, prev_approx)) = prev {
                l_phi = l_phi.max((exact - prev_exact).abs() / delta);
                l_approx = l_approx.max((approx - prev_approx).abs() / delta);
            }
            prev = Some((exact, approx));
        }
        assert!(l_phi <= 0.4 && l_approx <= 0.4, "L_phi {l_phi}, L_approx {l_approx}");
        assert!(max_err < 1.2e-7, "interpolation error {max_err}");
        assert!(max_err + delta * (0.4 + 0.4) < PHI_EPS, "{max_err} + {delta}·0.8 ≥ ε");
    }

    #[test]
    fn below_phi_equals_the_exact_compare_next_to_the_table() {
        // Draws within ε/2 of Φ̃(z) take the fallback, draws 2ε away the
        // table compare; both must answer exactly `u < phi(z)`, as must
        // draws at phi(z) itself and one ulp either side.
        let mut fallbacks = 0;
        for k in 0..=16_000u32 {
            let z = -Z_CUTOFF + f64::from(k) * 5e-4;
            let approx = phi_approx(z).expect("z lies on the table's range");
            let exact = phi(z);
            let ulp = |x: f64, up: bool| f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 });
            for u in [
                approx - PHI_EPS / 2.0,
                approx + PHI_EPS / 2.0,
                approx,
                approx - 2.0 * PHI_EPS,
                approx + 2.0 * PHI_EPS,
                exact,
                ulp(exact, true),
                ulp(exact, false),
            ] {
                fallbacks += usize::from((u - approx).abs() <= PHI_EPS);
                assert_eq!(below_phi(u, z), u < exact, "z {z}, u {u}");
            }
        }
        assert!(fallbacks > 16_000 * 3);
        // Outside the table (and for NaN) the helper is `phi` itself.
        for z in [-4.5, 4.5, f64::NAN, f64::INFINITY] {
            for u in [0.0, 1e-6, 0.5, 1.0 - 1e-6] {
                assert_eq!(below_phi(u, z), u < phi(z), "z {z}, u {u}");
            }
        }
    }

    #[test]
    fn phi_at_least_equals_the_exact_compare() {
        // In the band: probabilities on and next to the table value and
        // to phi(z). Past it: the tails out to |z| = 40, against
        // probabilities at, inside and outside the tail margins.
        let ulp = |x: f64, up: bool| f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 });
        let (mut band, mut tails) = (0, 0);
        for k in 0..=16_000u32 {
            let z = -Z_CUTOFF + f64::from(k) * 5e-4;
            let approx = phi_approx(z).expect("z lies on the table's range");
            let exact = phi(z);
            for p in [
                approx - PHI_EPS / 2.0,
                approx + 2.0 * PHI_EPS,
                approx - 2.0 * PHI_EPS,
                exact,
                ulp(exact, true),
                ulp(exact, false),
            ] {
                assert_eq!(phi_at_least(z, p), phi(z) >= p, "z {z}, p {p}");
                band += 1;
            }
        }
        let edge = [phi(-Z_CUTOFF), phi(Z_CUTOFF)];
        for k in 1..=36_000u32 {
            let dz = f64::from(k) * 1e-3;
            for z in [-Z_CUTOFF - dz, Z_CUTOFF + dz] {
                for p in [1e-12, 1e-6, edge[0], edge[0] + 2.0 * PHI_EPS, 0.5, edge[1] - 2.0 * PHI_EPS, edge[1], 1.0] {
                    assert_eq!(phi_at_least(z, p), phi(z) >= p, "z {z}, p {p}");
                    tails += 1;
                }
            }
        }
        for z in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [1e-9, 0.5, 1.0] {
                assert_eq!(phi_at_least(z, p), phi(z) >= p, "z {z}, p {p}");
            }
        }
        assert!(band > 0 && tails > 0);
    }

    #[test]
    fn active_stress_matches_the_separate_gates() {
        // Corners and edges exercise the compare-based neighbour wrap.
        use reaper_dram_model::ChipGeometry;
        let g = ChipGeometry::new(2, 4, 16);
        let patterns = DataPattern::standard_set(3);
        for index in 0..g.density_bits() {
            for sig in [0b0000, 0b0101, 0b1011, 0b1111] {
                let mut c = test_cell(2.0);
                c.index = index;
                c.dpd_signature = sig;
                c.vulnerable_bit = index % 3 == 0;
                for &p in &patterns {
                    let row_bits = u64::from(g.row_bits());
                    let (row, col) = (index / row_bits, (index % row_bits) as u32);
                    let rows = g.total_rows();
                    let neighbours = [
                        p.bit_at((row + rows - 1) % rows, col),
                        p.bit_at((row + 1) % rows, col),
                        p.bit_at(row, (col + g.row_bits() - 1) % g.row_bits()),
                        p.bit_at(row, (col + 1) % g.row_bits()),
                    ];
                    let want = neighbours
                        .iter()
                        .enumerate()
                        .filter(|&(i, &bit)| bit == ((sig >> i) & 1 == 1))
                        .count() as u8;
                    assert_eq!(c.stress_matches(p, g), want);
                    assert_eq!(c.stored_bit(p, g), p.bit_at(row, col));
                    let active = p.bit_at(row, col) == c.vulnerable_bit;
                    assert_eq!(c.active_stress(p, g), active.then_some(want));
                }
            }
        }
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
