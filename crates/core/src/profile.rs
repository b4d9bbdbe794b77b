//! Failure profiles: sets of failing-cell addresses with the set algebra
//! the paper's metrics need, plus the compact wire encoding `reaper-serve`
//! ships over HTTP.
//!
//! The sorted-delta varint machinery is shared with the `RPD1` streaming
//! delta codec and lives in [`reaper_retention::delta`]; this module
//! layers the `RPF1` full-profile framing and the profile-level
//! delta/apply API on top.

use std::collections::BTreeSet;

use reaper_exec::num;
use reaper_retention::delta::{
    self, push_varint, read_varint, varint_len, DeltaApplyError, ProfileDelta, VarintError,
};

/// Magic prefix of the binary profile encoding (`"RPF"` + version `1`).
pub const PROFILE_WIRE_MAGIC: [u8; 4] = *b"RPF1";

/// Decoding failure for [`FailureProfile::from_bytes`].
///
/// Corrupt input is an expected condition on a network boundary, so every
/// variant is a plain `Err` — decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileCodecError {
    /// Input shorter than the 4-byte magic.
    TooShort,
    /// Magic bytes do not spell `RPF1`.
    BadMagic,
    /// A varint ran past the end of the input.
    TruncatedVarint,
    /// A varint encoded more than 64 bits.
    VarintOverflow,
    /// A varint used more bytes than its minimal encoding; accepted
    /// profiles therefore have exactly one wire form per cell set.
    NonCanonicalVarint,
    /// A delta pushed the running address past `u64::MAX`.
    AddressOverflow,
    /// The declared cell count exceeds what the payload can hold.
    CountTooLarge,
    /// Bytes remained after the declared number of cells was decoded.
    TrailingBytes,
}

impl core::fmt::Display for ProfileCodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            Self::TooShort => "input shorter than the RPF1 magic",
            Self::BadMagic => "magic bytes are not RPF1",
            Self::TruncatedVarint => "varint truncated mid-value",
            Self::VarintOverflow => "varint encodes more than 64 bits",
            Self::NonCanonicalVarint => "varint is not minimally encoded",
            Self::AddressOverflow => "delta overflows the u64 address space",
            Self::CountTooLarge => "declared count exceeds payload capacity",
            Self::TrailingBytes => "trailing bytes after the last cell",
        };
        write!(f, "profile decode error: {what}")
    }
}

impl std::error::Error for ProfileCodecError {}

impl From<VarintError> for ProfileCodecError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => ProfileCodecError::TruncatedVarint,
            VarintError::Overflow => ProfileCodecError::VarintOverflow,
            VarintError::NonCanonical => ProfileCodecError::NonCanonicalVarint,
        }
    }
}

/// A retention-failure profile: the set of (linear) cell addresses observed
/// or predicted to fail at some conditions.
///
/// Backed by a [`BTreeSet`] so iteration is ordered and set algebra is
/// straightforward; profile sizes are thousands-to-millions of cells, far
/// below the full address space.
///
/// # Example
/// ```
/// use reaper_core::FailureProfile;
///
/// let mut p = FailureProfile::new();
/// p.insert(42);
/// p.extend([7, 42, 99]);
/// assert_eq!(p.len(), 3);
/// assert!(p.contains(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureProfile {
    cells: BTreeSet<u64>,
}

impl FailureProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from any collection of cell addresses.
    pub fn from_cells<I: IntoIterator<Item = u64>>(cells: I) -> Self {
        Self {
            cells: cells.into_iter().collect(),
        }
    }

    /// Number of cells in the profile.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `cell` is in the profile.
    pub fn contains(&self, cell: u64) -> bool {
        self.cells.contains(&cell)
    }

    /// Inserts one cell; returns true if it was new.
    pub fn insert(&mut self, cell: u64) -> bool {
        self.cells.insert(cell)
    }

    /// Merges `other` into `self`.
    pub fn union_with(&mut self, other: &FailureProfile) {
        self.cells.extend(other.cells.iter().copied());
    }

    /// Number of cells present in both profiles.
    pub fn intersection_count(&self, other: &FailureProfile) -> usize {
        if self.len() <= other.len() {
            self.cells.iter().filter(|c| other.contains(**c)).count()
        } else {
            other.cells.iter().filter(|c| self.contains(**c)).count()
        }
    }

    /// Number of cells in `self` but not in `other`.
    pub fn difference_count(&self, other: &FailureProfile) -> usize {
        self.len() - self.intersection_count(other)
    }

    /// Iterates over the cell addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().copied()
    }

    /// Encodes the profile into the compact sorted-delta varint wire form:
    /// `RPF1` magic, varint cell count, then per cell a varint delta from
    /// its predecessor (the first cell absolute, subsequent cells encoded
    /// as `cell − prev − 1`, exploiting strict ascending order).
    ///
    /// The encoding is canonical — equal profiles produce identical bytes
    /// — which is what lets `reaper-serve` treat profile bytes as
    /// content-addressed values and tests compare wire output against
    /// direct library calls byte-for-byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let count = reaper_exec::num::to_u64(self.cells.len());
        // Sized exactly, so neither dense (~1 byte a cell) nor sparse (up
        // to three) profiles reallocate or keep slack capacity.
        let len = PROFILE_WIRE_MAGIC.len()
            + varint_len(count)
            + self.wire_deltas().map(varint_len).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&PROFILE_WIRE_MAGIC);
        push_varint(&mut out, count);
        for delta in self.wire_deltas() {
            push_varint(&mut out, delta);
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// The per-cell values of the wire form: the first cell absolute,
    /// each later one as `cell − prev − 1`.
    fn wire_deltas(&self) -> impl Iterator<Item = u64> + '_ {
        let mut prev: Option<u64> = None;
        self.cells.iter().map(move |&cell| {
            // BTreeSet iteration is strictly ascending, so the -1 is safe.
            let delta = prev.map_or(cell, |p| cell - p - 1);
            prev = Some(cell);
            delta
        })
    }

    /// Decodes a profile from the [`FailureProfile::to_bytes`] wire form.
    ///
    /// # Errors
    /// Returns a [`ProfileCodecError`] on any malformed input — wrong
    /// magic, truncated or over-long varints, address overflow, or
    /// trailing garbage. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProfileCodecError> {
        let Some((magic, mut rest)) = bytes.split_first_chunk::<4>() else {
            return Err(ProfileCodecError::TooShort);
        };
        if *magic != PROFILE_WIRE_MAGIC {
            return Err(ProfileCodecError::BadMagic);
        }
        let count;
        (count, rest) = read_varint(rest)?;
        // Each cell takes at least one payload byte, so a count beyond the
        // remaining length is corrupt — reject before allocating.
        if count > reaper_exec::num::to_u64(rest.len()) {
            return Err(ProfileCodecError::CountTooLarge);
        }
        let mut cells = BTreeSet::new();
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let delta;
            (delta, rest) = read_varint(rest)?;
            let cell = match prev {
                None => delta,
                Some(p) => p
                    .checked_add(1)
                    .and_then(|p1| p1.checked_add(delta))
                    .ok_or(ProfileCodecError::AddressOverflow)?,
            };
            cells.insert(cell);
            prev = Some(cell);
        }
        if !rest.is_empty() {
            return Err(ProfileCodecError::TrailingBytes);
        }
        Ok(Self { cells })
    }

    /// The content hash of this profile's canonical `RPF1` encoding —
    /// the value `reaper-serve` derives ETags, delta `base_hash` /
    /// `result_hash` fields, and epoch-log identity from. Equal profiles
    /// hash equal by the canonicality of [`FailureProfile::to_bytes`].
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        delta::content_hash(&self.to_bytes())
    }

    /// Computes the `RPD1` delta that rewrites `self` (at `base_epoch`)
    /// into `next` (at `new_epoch`), with both endpoint content hashes
    /// bound into the header.
    #[must_use]
    pub fn delta_to(&self, next: &FailureProfile, base_epoch: u64, new_epoch: u64) -> ProfileDelta {
        ProfileDelta::compute(
            self.iter(),
            next.iter(),
            base_epoch,
            new_epoch,
            self.content_hash(),
            next.content_hash(),
        )
    }

    /// Applies a delta with full integrity checking: the delta's
    /// `base_hash` must match this profile, the set constraints must
    /// hold (added cells absent, removed cells present), and the result
    /// must hash to the delta's `result_hash` — so a successful apply
    /// guarantees the reconstructed encoding is byte-identical to the
    /// directly encoded profile the delta was computed from.
    ///
    /// # Errors
    /// [`DeltaApplyError`] naming the first violated check. Never
    /// panics, whatever the delta claims.
    pub fn apply_delta(&self, d: &ProfileDelta) -> Result<FailureProfile, DeltaApplyError> {
        let actual = self.content_hash();
        if d.base_hash != actual {
            return Err(DeltaApplyError::BaseHashMismatch {
                expected: d.base_hash,
                actual,
            });
        }
        let next = Self {
            cells: d.apply_to(&self.cells)?,
        };
        let result_actual = next.content_hash();
        if d.result_hash != result_actual {
            return Err(DeltaApplyError::ResultHashMismatch {
                expected: d.result_hash,
                actual: result_actual,
            });
        }
        Ok(next)
    }
}

/// Merges the ascending, duplicate-free `cells` (a trial's
/// `TrialOutcome::into_vec`) into the ascending, duplicate-free set
/// `seen`, in place, and returns how many of `cells` were new; `cells`
/// is left holding those new cells, ascending, its buffer reusable. The
/// accumulator behind [`crate::Profiler::run`] and the Fig. 4
/// accumulation study: build a [`FailureProfile`] from `seen` once, at
/// the end, instead of one `BTreeSet` insert per observed cell.
///
/// A branch-free forward pass over both sets, in two interleaved lanes,
/// compacts the new cells to the front of `cells`, in place. `seen` then
/// grows by exactly that many slots and is filled from the end, in one of
/// two ways:
///
/// * a few new cells (a warmed-up profile: a trial adds a few cells to a
///   set many times its size): each new cell's insertion point is a
///   binary search, and the run of old cells above it moves up in one
///   `copy_within`;
/// * many (Fig. 4's measurement steps add tens of thousands): a
///   branch-free linear merge from the back, which pays one compare per
///   moved cell instead of a binary search per new one: when
///   `fresh·log2(|seen|) > |seen|`.
pub fn merge_sorted_union(seen: &mut Vec<u64>, cells: &mut Vec<u64>) -> usize {
    let fresh = compact_new_cells(seen, cells);
    cells.truncate(fresh);

    let old = seen.len();
    seen.resize(old + cells.len(), 0);
    if back_merge_pays(old, cells.len()) {
        let (mut i, mut j) = (old, cells.len());
        while j > 0 {
            // lint: allow(panic) j ≥ 1, and i ≥ 1 where seen[i − 1] is read
            let take_old = i > 0 && seen[i - 1] > cells[j - 1];
            // lint: allow(panic) i + j − 1 < seen.len(); i ≥ 1 when `take_old`
            seen[i + j - 1] = if take_old { seen[i - 1] } else { cells[j - 1] };
            i -= usize::from(take_old);
            j -= usize::from(!take_old);
        }
        return cells.len();
    }
    let mut end = old;
    for (k, &cell) in cells.iter().enumerate().rev() {
        // lint: allow(panic) end <= the pre-resize length, inside seen
        let pos = seen[..end].partition_point(|&s| s < cell);
        seen.copy_within(pos..end, pos + k + 1);
        // lint: allow(panic) pos + k < end + k + 1 <= seen.len(): the slot the block move vacated
        seen[pos + k] = cell;
        end = pos;
    }
    cells.len()
}

/// Moves the cells of `cells` that are not in `seen` (both ascending and
/// duplicate-free) to the front of `cells`, in order, and returns how
/// many there are. The pass runs as two independent lanes, split at the
/// middle cell: each lane's next load waits on its previous compare, so
/// interleaving two lanes keeps two of those chains in flight (1.6–1.9×
/// one lane's speed on a fig04-sized step merge).
fn compact_new_cells(seen: &[u64], cells: &mut [u64]) -> usize {
    let half = cells.len() / 2;
    let Some(&pivot) = cells.get(half) else {
        return 0;
    };
    // Cells below the pivot can only be in `seen` below it, and the rest
    // only in `seen` from it on.
    let (seen_lo, seen_hi) = seen.split_at(seen.partition_point(|&s| s < pivot));
    let (lo, hi) = cells.split_at_mut(half);
    let (mut a, mut b) = (Lane::default(), Lane::default());
    while a.live(seen_lo, lo) && b.live(seen_hi, hi) {
        a.step(seen_lo, lo);
        b.step(seen_hi, hi);
    }
    while a.live(seen_lo, lo) {
        a.step(seen_lo, lo);
    }
    while b.live(seen_hi, hi) {
        b.step(seen_hi, hi);
    }
    let (new_lo, new_hi) = (a.finish(lo), b.finish(hi));
    cells.copy_within(half..half + new_hi, new_lo);
    new_lo + new_hi
}

/// One lane of [`compact_new_cells`]: cursors into its part of `seen` and
/// of `cells`, and the count of new cells moved to the part's front.
#[derive(Default)]
struct Lane {
    i: usize,
    j: usize,
    fresh: usize,
}

impl Lane {
    fn live(&self, seen: &[u64], cells: &[u64]) -> bool {
        self.i < seen.len() && self.j < cells.len()
    }

    /// One branch-free merge step; `live` must hold.
    #[inline(always)]
    fn step(&mut self, seen: &[u64], cells: &mut [u64]) {
        // lint: allow(panic) `live` holds: i < seen.len() and j < cells.len()
        let (s, c) = (seen[self.i], cells[self.j]);
        // `fresh <= j`, so this only overwrites cells already visited.
        // lint: allow(panic) fresh <= j < cells.len()
        cells[self.fresh] = c;
        self.fresh += usize::from(c < s);
        self.i += usize::from(s <= c);
        self.j += usize::from(c <= s);
    }

    /// Moves the unvisited cells, all new, after the new ones found, and
    /// returns the part's count of new cells.
    fn finish(&self, cells: &mut [u64]) -> usize {
        cells.copy_within(self.j.., self.fresh);
        self.fresh + cells.len() - self.j
    }
}

/// Whether [`merge_sorted_union`] merges `fresh` new cells into a set of
/// `old` by a linear pass from the back rather than a binary search per
/// new cell: when the searches' `fresh·log2(old)` steps exceed the `old`
/// compares of the pass (a search costs at least one step, so any cells
/// into a set of at most two take the pass). A flat `fresh·64 > old` rule
/// sent the few-cell merges of a warmed-up [`crate::Profiler::run`]
/// through the linear pass.
fn back_merge_pays(old: usize, fresh: usize) -> bool {
    fresh * num::idx(old.max(2).ilog2()) > old
}

impl Extend<u64> for FailureProfile {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.cells.extend(iter);
    }
}

impl FromIterator<u64> for FailureProfile {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_cells(iter)
    }
}

impl<'a> IntoIterator for &'a FailureProfile {
    type Item = &'a u64;
    type IntoIter = std::collections::btree_set::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sorted_union_matches_btreeset() {
        use reaper_exec::rng::stream;
        use std::collections::BTreeSet;
        // A sorted, duplicate-free draw of up to `max_len` cells from
        // `0..span`: small spans force repeats and interleaving across
        // calls, large ones give near-disjoint sets.
        let sorted_cells = |rng: &mut reaper_exec::rng::SplitMix64, span: u64, max_len: u64| {
            let len = rng.next_u64() % (max_len + 1);
            let set: BTreeSet<u64> = (0..len).map(|_| rng.next_u64() % span).collect();
            set.into_iter().collect::<Vec<u64>>()
        };
        for seed in 0..200u64 {
            let mut rng = stream(&[0x5EE7, seed]);
            let span = [1u64, 8, 64, 1 << 20][(seed % 4) as usize];
            let mut seen = Vec::new();
            let mut reference = BTreeSet::new();
            for call in 0..12u64 {
                let mut cells: Vec<u64> = match call % 4 {
                    0 => Vec::new(),
                    // Every other cell already seen: all repeats.
                    1 => reference.iter().copied().step_by(2).collect(),
                    // Disjoint: strictly above everything seen so far.
                    2 => {
                        let base = reference.last().map_or(0, |&m| m + 1);
                        sorted_cells(&mut rng, span, 16)
                            .iter()
                            .map(|c| c + base)
                            .collect()
                    }
                    // Interleaved with the existing set.
                    _ => sorted_cells(&mut rng, span, 48),
                };
                let want: Vec<u64> = cells.iter().copied().filter(|&c| reference.insert(c)).collect();
                assert_eq!(
                    merge_sorted_union(&mut seen, &mut cells),
                    want.len(),
                    "seed {seed} call {call}"
                );
                assert_eq!(cells, want, "seed {seed} call {call}: the new cells are left behind");
                let same = seen.iter().copied().eq(reference.iter().copied());
                assert!(same, "seed {seed} call {call}");
            }
        }

        // Checks one merge against a BTreeSet union.
        let check = |seen: Vec<u64>, cells: Vec<u64>, case: &str| {
            let mut reference: BTreeSet<u64> = seen.iter().copied().collect();
            let want: Vec<u64> = cells.iter().copied().filter(|&c| reference.insert(c)).collect();
            let (mut seen, mut cells) = (seen, cells);
            assert_eq!(merge_sorted_union(&mut seen, &mut cells), want.len(), "{case}");
            assert_eq!(cells, want, "{case}: the new cells are left behind");
            assert!(seen.iter().copied().eq(reference.iter().copied()), "{case}");
        };
        let evens = |n: u64| (0..n).map(|i| 2 * i).collect::<Vec<u64>>();
        let odds = |n: u64, step: u64| (0..n).map(|i| 2 * i * step + 1).collect::<Vec<u64>>();

        // An empty `seen` and empty `cells`.
        check(Vec::new(), vec![3, 5, 9], "empty seen");
        check(evens(8), Vec::new(), "no cells");
        // All cells new: interleaved, below, above and around the set.
        check(evens(64), odds(64, 1), "all new, interleaved");
        check((100..164).collect(), (0..50).collect(), "all new, below");
        check(evens(64), (1000..1100).collect(), "all new, above");
        check(vec![500, 501], [0, 1, 2, 999, 1000].to_vec(), "all new, around");
        // A few new cells, mixed with repeats, into a large set.
        let mut few = vec![7, 4096, 100_001];
        few.extend(evens(4096).into_iter().step_by(97));
        few.sort_unstable();
        check(evens(65_536), few, "a few new into a large set");
        // The crossover: 1,024 old cells (log2 = 10) take the searches up
        // to 102 new cells and the linear pass from 103.
        assert!(!back_merge_pays(1024, 102) && back_merge_pays(1024, 103));
        for fresh in [101, 102, 103, 104] {
            check(evens(1024), odds(fresh, 9), &format!("crossover at {fresh} new"));
        }
        assert!(back_merge_pays(0, 1) && back_merge_pays(2, 3) && !back_merge_pays(2, 2));
        assert!(!back_merge_pays(0, 0) && !back_merge_pays(1 << 20, 0));
    }

    #[test]
    fn encoded_profiles_carry_no_slack_capacity() {
        // Dense: consecutive cells encode at one byte each. Sparse: gaps
        // of ~2^20 take three bytes a cell, past any per-cell guess.
        let dense = FailureProfile::from_cells(0..5_000);
        let sparse = FailureProfile::from_cells((0..5_000u64).map(|i| i << 20));
        for p in [dense, sparse, FailureProfile::new()] {
            let bytes = p.to_bytes();
            assert_eq!(bytes.capacity(), bytes.len());
            assert_eq!(FailureProfile::from_bytes(&bytes), Ok(p));
        }
    }

    #[test]
    fn insert_and_dedup() {
        let mut p = FailureProfile::new();
        assert!(p.insert(1));
        assert!(!p.insert(1));
        p.extend([2, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = FailureProfile::from_cells([1, 2, 3, 4]);
        let b = FailureProfile::from_cells([3, 4, 5]);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(b.intersection_count(&a), 2);
        assert_eq!(a.difference_count(&b), 2);
        assert_eq!(b.difference_count(&a), 1);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn iteration_is_sorted() {
        let p = FailureProfile::from_cells([9, 1, 5]);
        let v: Vec<u64> = p.iter().collect();
        assert_eq!(v, vec![1, 5, 9]);
        let r: Vec<u64> = (&p).into_iter().copied().collect();
        assert_eq!(r, v);
    }

    #[test]
    fn from_iterator_collects() {
        let p: FailureProfile = (0..10u64).filter(|x| x % 2 == 0).collect();
        assert_eq!(p.len(), 5);
        assert!(p.contains(8));
        assert!(!p.contains(7));
    }

    #[test]
    fn codec_roundtrips_representative_shapes() {
        let shapes: Vec<FailureProfile> = vec![
            FailureProfile::new(),
            FailureProfile::from_cells([0]),
            FailureProfile::from_cells([u64::MAX]),
            FailureProfile::from_cells([0, u64::MAX]),
            (0..5_000u64).collect(),
            FailureProfile::from_cells([1, 128, 129, 1 << 40, (1 << 40) + 1]),
        ];
        for p in shapes {
            let bytes = p.to_bytes();
            assert_eq!(&bytes[..4], b"RPF1");
            let back = FailureProfile::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn codec_is_canonical_and_compact() {
        let a: FailureProfile = [9u64, 1, 5].into_iter().collect();
        let b: FailureProfile = [5u64, 9, 1].into_iter().collect();
        assert_eq!(a.to_bytes(), b.to_bytes());
        // Dense runs delta-encode to one byte per cell after the header.
        let dense: FailureProfile = (1000..2000u64).collect();
        assert!(dense.to_bytes().len() < 4 + 2 + 1000 + 8);
    }

    #[test]
    fn decode_rejects_corrupt_inputs_without_panicking() {
        use super::ProfileCodecError as E;
        assert_eq!(FailureProfile::from_bytes(b""), Err(E::TooShort));
        assert_eq!(FailureProfile::from_bytes(b"RPF"), Err(E::TooShort));
        assert_eq!(FailureProfile::from_bytes(b"RPF2\x00"), Err(E::BadMagic));
        // Declared count with no payload.
        assert_eq!(FailureProfile::from_bytes(b"RPF1\x05"), Err(E::CountTooLarge));
        // Truncated mid-varint (continuation bit set, no next byte).
        assert_eq!(
            FailureProfile::from_bytes(b"RPF1\x01\x80"),
            Err(E::TruncatedVarint)
        );
        // 11-byte varint overflows u64.
        let mut over = b"RPF1\x01".to_vec();
        over.extend_from_slice(&[0x80; 10]);
        over.push(0x01);
        assert_eq!(FailureProfile::from_bytes(&over), Err(E::VarintOverflow));
        // Second delta pushes past u64::MAX.
        let mut wrap = b"RPF1\x02".to_vec();
        push_varint(&mut wrap, u64::MAX);
        push_varint(&mut wrap, 0);
        assert_eq!(FailureProfile::from_bytes(&wrap), Err(E::AddressOverflow));
        // Trailing garbage after a valid body.
        let mut trail = FailureProfile::from_cells([3]).to_bytes();
        trail.push(0x00);
        assert_eq!(FailureProfile::from_bytes(&trail), Err(E::TrailingBytes));
    }

    #[test]
    fn delta_wrappers_roundtrip_with_hash_verification() {
        let base = FailureProfile::from_cells([1, 5, 9]);
        let next = FailureProfile::from_cells([1, 6, 9, 12]);
        let d = base.delta_to(&next, 0, 1);
        assert_eq!(d.base_hash, base.content_hash());
        assert_eq!(d.result_hash, next.content_hash());
        let applied = base.apply_delta(&d).expect("checked apply");
        assert_eq!(applied, next);
        assert_eq!(applied.to_bytes(), next.to_bytes());
        // Out-of-order replay: applying to the wrong base is caught by
        // the base hash before any set mutation is trusted.
        let err = next.apply_delta(&d).expect_err("wrong base");
        assert!(matches!(err, DeltaApplyError::BaseHashMismatch { .. }));
        // Tampered result hash is caught after apply.
        let mut forged = base.delta_to(&next, 0, 1);
        forged.result_hash ^= 1;
        assert!(matches!(
            base.apply_delta(&forged),
            Err(DeltaApplyError::ResultHashMismatch { .. })
        ));
    }

    #[test]
    fn truncating_any_prefix_of_a_valid_encoding_errors() {
        let p: FailureProfile = (0..64u64).map(|i| i * 977).collect();
        let bytes = p.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FailureProfile::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }
}
