//! Retention-test data patterns.
//!
//! The paper profiles with "solid 1s and 0s, checkerboards, row/column
//! stripes, walking 1s/0s, random data, and their inverses" (§3.2), i.e.
//! six pattern families and their bitwise inverses per iteration. Each
//! pattern is a deterministic function from cell coordinates to the stored
//! bit, so simulated chips can evaluate data-pattern-dependence without
//! materializing terabits of state.

use crate::ChipGeometry;

/// The six pattern families of the paper's test set (§3.2, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternFamily {
    /// All cells store the same value.
    Solid,
    /// Alternating bits in both row and column direction.
    Checkerboard,
    /// Whole rows alternate between all-0 and all-1.
    RowStripe,
    /// Whole columns alternate between 0 and 1.
    ColStripe,
    /// A single set bit walks through a window of otherwise-clear bits.
    Walking,
    /// Pseudorandom data, deterministic in a seed.
    Random,
}

impl PatternFamily {
    /// All six families in canonical order.
    pub const ALL: [PatternFamily; 6] = [
        PatternFamily::Solid,
        PatternFamily::Checkerboard,
        PatternFamily::RowStripe,
        PatternFamily::ColStripe,
        PatternFamily::Walking,
        PatternFamily::Random,
    ];

    /// Short name for figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PatternFamily::Solid => "solid",
            PatternFamily::Checkerboard => "checkerboard",
            PatternFamily::RowStripe => "row_stripe",
            PatternFamily::ColStripe => "col_stripe",
            PatternFamily::Walking => "walking",
            PatternFamily::Random => "random",
        }
    }
}

impl core::fmt::Display for PatternFamily {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Period of the walking-1s/0s pattern window.
const WALK_PERIOD: u64 = 8;

/// A concrete data pattern: a family, an optional inversion, and a
/// family-specific parameter (walking phase or random seed).
///
/// # Example
/// ```
/// use reaper_dram_model::DataPattern;
///
/// let cb = DataPattern::checkerboard();
/// assert!(cb.bit_at(0, 0) != cb.bit_at(0, 1)); // alternates along a row
/// assert!(cb.bit_at(0, 0) != cb.bit_at(1, 0)); // and along a column
/// assert_eq!(cb.inverse().bit_at(0, 0), !cb.bit_at(0, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataPattern {
    family: PatternFamily,
    inverted: bool,
    /// Walking phase for `Walking`, RNG seed for `Random`, unused otherwise.
    param: u64,
}

impl DataPattern {
    /// Solid all-zeros pattern.
    pub fn solid0() -> Self {
        Self {
            family: PatternFamily::Solid,
            inverted: false,
            param: 0,
        }
    }

    /// Solid all-ones pattern (the inverse of [`DataPattern::solid0`]).
    pub fn solid1() -> Self {
        Self::solid0().inverse()
    }

    /// Checkerboard pattern.
    pub fn checkerboard() -> Self {
        Self {
            family: PatternFamily::Checkerboard,
            inverted: false,
            param: 0,
        }
    }

    /// Row-stripe pattern (even rows 0, odd rows 1).
    pub fn row_stripe() -> Self {
        Self {
            family: PatternFamily::RowStripe,
            inverted: false,
            param: 0,
        }
    }

    /// Column-stripe pattern (even columns 0, odd columns 1).
    pub fn col_stripe() -> Self {
        Self {
            family: PatternFamily::ColStripe,
            inverted: false,
            param: 0,
        }
    }

    /// Walking-1s pattern with the given phase: one set bit per
    /// 8-bit window, at a position shifted by `phase`.
    pub fn walking1(phase: u64) -> Self {
        Self {
            family: PatternFamily::Walking,
            inverted: false,
            param: phase,
        }
    }

    /// Walking-0s pattern (inverse of walking-1s) with the given phase.
    pub fn walking0(phase: u64) -> Self {
        Self::walking1(phase).inverse()
    }

    /// Pseudorandom pattern deterministic in `seed`.
    pub fn random(seed: u64) -> Self {
        Self {
            family: PatternFamily::Random,
            inverted: false,
            param: seed,
        }
    }

    /// The bitwise inverse of this pattern.
    pub fn inverse(self) -> Self {
        Self {
            inverted: !self.inverted,
            ..self
        }
    }

    /// The pattern family.
    pub fn family(self) -> PatternFamily {
        self.family
    }

    /// Whether the pattern is the inverted member of its pair.
    pub fn is_inverted(self) -> bool {
        self.inverted
    }

    /// Family-specific parameter (walking phase or random seed).
    pub fn param(self) -> u64 {
        self.param
    }

    /// The stored bit at global `row` (linear across banks) and `col`.
    pub fn bit_at(self, row: u64, col: u32) -> bool {
        base_bit(self.family, self.param, row, col) ^ self.inverted
    }

    /// The bits of the four neighbours of the cell at `(row, col)` of
    /// `geometry` when the cell itself stores `own`, else `None`: bit 0
    /// north, 1 south, 2 west, 3 east, wrapping around the chip's edges.
    /// The family is resolved once for all five bits, where five
    /// [`DataPattern::bit_at`] calls resolve it five times.
    ///
    /// # Example
    /// ```
    /// use reaper_dram_model::{ChipGeometry, DataPattern};
    ///
    /// let g = ChipGeometry::small();
    /// let cb = DataPattern::checkerboard();
    /// // (1, 1) stores 0 and all four neighbours store 1.
    /// assert_eq!(cb.neighbours_when(g, 1, 1, false), Some(0b1111));
    /// assert_eq!(cb.neighbours_when(g, 1, 1, true), None);
    /// ```
    pub fn neighbours_when(self, geometry: ChipGeometry, row: u64, col: u32, own: bool) -> Option<u8> {
        self.gather(geometry, row, col, Some(own)).map(|(_, around)| around)
    }

    /// The bit the cell at `(row, col)` of `geometry` stores and those of
    /// its four neighbours, packed as in [`DataPattern::neighbours_when`]:
    /// one gather serves both members of a pattern/inverse pair, since
    /// the inverse stores the complement of all five.
    ///
    /// # Example
    /// ```
    /// use reaper_dram_model::{ChipGeometry, DataPattern};
    ///
    /// let g = ChipGeometry::small();
    /// let cb = DataPattern::checkerboard();
    /// assert_eq!(cb.neighbourhood(g, 1, 1), (false, 0b1111));
    /// assert_eq!(cb.inverse().neighbourhood(g, 1, 1), (true, 0b0000));
    /// ```
    pub fn neighbourhood(self, geometry: ChipGeometry, row: u64, col: u32) -> (bool, u8) {
        // A gather with no required own bit always yields.
        self.gather(geometry, row, col, None).unwrap_or_default()
    }

    /// The cell's own bit and its neighbours' bits, or `None` when `own`
    /// names a bit the cell does not store. The family is resolved once
    /// for all five bits, where five [`DataPattern::bit_at`] calls
    /// resolve it five times.
    #[inline(always)]
    fn gather(self, geometry: ChipGeometry, row: u64, col: u32, own: Option<bool>) -> Option<(bool, u8)> {
        let p = self.param;
        let (g, r, c) = (geometry, row, col);
        // One arm per family, each with its own closure type, so
        // `gather_family` is compiled once per family with the family a
        // constant.
        match self.family {
            PatternFamily::Solid => self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::Solid, p, r, c)),
            PatternFamily::Checkerboard => {
                self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::Checkerboard, p, r, c))
            }
            PatternFamily::RowStripe => {
                self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::RowStripe, p, r, c))
            }
            PatternFamily::ColStripe => {
                self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::ColStripe, p, r, c))
            }
            PatternFamily::Walking => {
                self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::Walking, p, r, c))
            }
            PatternFamily::Random => self.gather_family(g, r, c, own, |r, c| base_bit(PatternFamily::Random, p, r, c)),
        }
    }

    /// [`DataPattern::gather`] over one family's `base` bit function.
    #[inline(always)]
    fn gather_family(
        self,
        geometry: ChipGeometry,
        row: u64,
        col: u32,
        own: Option<bool>,
        base: impl Fn(u64, u32) -> bool,
    ) -> Option<(bool, u8)> {
        let bit = |r, c| base(r, c) ^ self.inverted;
        let stored = bit(row, col);
        if own.is_some_and(|own| own != stored) {
            return None;
        }
        // Neighbours wrap by compare, not by modulo: `row` and `col` lie
        // inside the geometry.
        let (last_row, last_col) = (geometry.total_rows() - 1, geometry.row_bits() - 1);
        let north = bit(if row == 0 { last_row } else { row - 1 }, col);
        let south = bit(if row == last_row { 0 } else { row + 1 }, col);
        let west = bit(row, if col == 0 { last_col } else { col - 1 });
        let east = bit(row, if col == last_col { 0 } else { col + 1 });
        Some((stored, u8::from(north) | u8::from(south) << 1 | u8::from(west) << 2 | u8::from(east) << 3))
    }

    /// The paper's standard profiling set: six families and their inverses
    /// (12 patterns per iteration). The random member's seed varies with
    /// `iteration` so repeated iterations explore new random data, as a real
    /// profiler would.
    pub fn standard_set(iteration: u64) -> Vec<DataPattern> {
        let base = [
            DataPattern::solid0(),
            DataPattern::checkerboard(),
            DataPattern::row_stripe(),
            DataPattern::col_stripe(),
            DataPattern::walking1(iteration % WALK_PERIOD),
            DataPattern::random(0xC0FFEE ^ iteration),
        ];
        base.iter()
            .flat_map(|&p| [p, p.inverse()])
            .collect()
    }
}

impl core::fmt::Display for DataPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.inverted {
            write!(f, "~{}", self.family)
        } else {
            write!(f, "{}", self.family)
        }
    }
}

/// The bit `family` with parameter `param` stores at `(row, col)`,
/// before inversion.
#[inline(always)]
fn base_bit(family: PatternFamily, param: u64, row: u64, col: u32) -> bool {
    match family {
        PatternFamily::Solid => false,
        PatternFamily::Checkerboard => (row ^ col as u64) & 1 == 1,
        PatternFamily::RowStripe => row & 1 == 1,
        PatternFamily::ColStripe => col as u64 & 1 == 1,
        PatternFamily::Walking => (col as u64 + param).is_multiple_of(WALK_PERIOD),
        PatternFamily::Random => {
            splitmix64(param ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ col as u64) & 1 == 1
        }
    }
}

/// SplitMix64 hash — cheap, deterministic bit mixing for the random pattern.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_patterns() {
        let s0 = DataPattern::solid0();
        let s1 = DataPattern::solid1();
        for row in 0..4u64 {
            for col in 0..4u32 {
                assert!(!s0.bit_at(row, col));
                assert!(s1.bit_at(row, col));
            }
        }
    }

    #[test]
    fn checkerboard_alternates_both_axes() {
        let cb = DataPattern::checkerboard();
        assert_ne!(cb.bit_at(0, 0), cb.bit_at(0, 1));
        assert_ne!(cb.bit_at(0, 0), cb.bit_at(1, 0));
        assert_eq!(cb.bit_at(0, 0), cb.bit_at(1, 1));
    }

    #[test]
    fn stripes() {
        let rs = DataPattern::row_stripe();
        assert!(!rs.bit_at(0, 5));
        assert!(rs.bit_at(1, 5));
        assert!(rs.bit_at(1, 6)); // constant along a row

        let cs = DataPattern::col_stripe();
        assert!(!cs.bit_at(7, 0));
        assert!(cs.bit_at(7, 1));
        assert!(cs.bit_at(8, 1)); // constant along a column
    }

    #[test]
    fn neighbours_when_equals_five_bit_at_calls() {
        // Every cell of a small geometry with an odd row count, corners and
        // edges included, under every family and inverse.
        let g = ChipGeometry::new(3, 3, 8);
        let (rows, cols) = (g.total_rows(), g.row_bits());
        for p in DataPattern::standard_set(5) {
            for row in 0..rows {
                for col in 0..cols {
                    let own = p.bit_at(row, col);
                    let around = [
                        p.bit_at((row + rows - 1) % rows, col),
                        p.bit_at((row + 1) % rows, col),
                        p.bit_at(row, (col + cols - 1) % cols),
                        p.bit_at(row, (col + 1) % cols),
                    ];
                    let want = around.iter().enumerate().fold(0u8, |m, (i, &b)| m | u8::from(b) << i);
                    assert_eq!(p.neighbours_when(g, row, col, own), Some(want), "{p} at ({row}, {col})");
                    assert_eq!(p.neighbours_when(g, row, col, !own), None, "{p} at ({row}, {col})");
                    assert_eq!(p.neighbourhood(g, row, col), (own, want), "{p} at ({row}, {col})");
                    assert_eq!(p.inverse().neighbourhood(g, row, col), (!own, !want & 0b1111), "{p} at ({row}, {col})");
                }
            }
        }
    }

    #[test]
    fn walking_has_one_bit_per_window() {
        let w = DataPattern::walking1(0);
        let set: Vec<u32> = (0..16).filter(|&c| w.bit_at(0, c)).collect();
        assert_eq!(set, vec![0, 8]);
        let w3 = DataPattern::walking1(3);
        assert!(w3.bit_at(0, 5)); // (5 + 3) % 8 == 0
        assert!(!w3.bit_at(0, 0));
    }

    #[test]
    fn walking0_is_inverse_of_walking1() {
        let w1 = DataPattern::walking1(2);
        let w0 = DataPattern::walking0(2);
        for c in 0..32 {
            assert_eq!(w0.bit_at(0, c), !w1.bit_at(0, c));
        }
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = DataPattern::random(1);
        let b = DataPattern::random(1);
        let c = DataPattern::random(2);
        let bits_a: Vec<bool> = (0..64).map(|i| a.bit_at(3, i)).collect();
        let bits_b: Vec<bool> = (0..64).map(|i| b.bit_at(3, i)).collect();
        let bits_c: Vec<bool> = (0..64).map(|i| c.bit_at(3, i)).collect();
        assert_eq!(bits_a, bits_b);
        assert_ne!(bits_a, bits_c);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let p = DataPattern::random(99);
        let ones: usize = (0..64u64)
            .flat_map(|r| (0..64u32).map(move |c| (r, c)))
            .filter(|&(r, c)| p.bit_at(r, c))
            .count();
        let frac = ones as f64 / 4096.0;
        assert!((0.45..0.55).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn inverse_flips_every_bit() {
        for p in DataPattern::standard_set(0) {
            let q = p.inverse();
            for row in 0..8u64 {
                for col in 0..8u32 {
                    assert_eq!(q.bit_at(row, col), !p.bit_at(row, col), "{p} at {row},{col}");
                }
            }
        }
    }

    #[test]
    fn double_inverse_is_identity() {
        let p = DataPattern::checkerboard();
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn standard_set_is_six_families_and_inverses() {
        let set = DataPattern::standard_set(0);
        assert_eq!(set.len(), 12);
        let inverted = set.iter().filter(|p| p.is_inverted()).count();
        assert_eq!(inverted, 6);
        for fam in PatternFamily::ALL {
            assert_eq!(
                set.iter().filter(|p| p.family() == fam).count(),
                2,
                "family {fam}"
            );
        }
    }

    #[test]
    fn standard_set_random_seed_varies_by_iteration() {
        let s0 = DataPattern::standard_set(0);
        let s1 = DataPattern::standard_set(1);
        let r0 = s0.iter().find(|p| p.family() == PatternFamily::Random).unwrap();
        let r1 = s1.iter().find(|p| p.family() == PatternFamily::Random).unwrap();
        assert_ne!(r0.param(), r1.param());
    }

    #[test]
    fn display_marks_inversion() {
        assert_eq!(DataPattern::checkerboard().to_string(), "checkerboard");
        assert_eq!(DataPattern::checkerboard().inverse().to_string(), "~checkerboard");
    }
}
