//! The `RPD1` streaming-profile delta codec: one re-profiling epoch as
//! added/removed failing-cell sets against a base profile.
//!
//! At fleet scale a DIMM's retention profile is a stream of small
//! updates, not a one-shot blob — VRT churn and temperature drift change
//! a tiny fraction of cells per re-profiling epoch. This module is the
//! wire layer for that stream, reusing the sorted-delta varint machinery
//! the `RPF1` full-profile codec introduced (the varint helpers live
//! here now and `reaper_core::profile` delegates to them).
//!
//! ## Wire format
//!
//! | field | encoding |
//! |---|---|
//! | magic | 4 bytes `RPD1` |
//! | `base_epoch` | varint |
//! | `new_epoch` | varint, must be > `base_epoch` |
//! | `base_hash` | 8 bytes LE — content hash of the base `RPF1` bytes |
//! | `result_hash` | 8 bytes LE — content hash of the resulting `RPF1` bytes |
//! | `chunk_id` | 8 bytes LE — content hash of the payload below |
//! | `added_count` | varint |
//! | added cells | sorted-delta varints (first absolute, then `cell − prev − 1`) |
//! | `removed_count` | varint |
//! | removed cells | sorted-delta varints |
//!
//! The payload (everything from `added_count` on) carries no epoch or
//! base identity, so two DIMMs whose re-profiling epochs churned the
//! same cells produce byte-identical payloads with the same `chunk_id`
//! — which is what lets the serve-layer store deduplicate delta chunks
//! across a same-vendor fleet. The header binds a payload to one
//! specific transition (`base_hash` → `result_hash`), so replaying a
//! chunk out of order is detectable before any bytes are trusted.
//!
//! Decoding is hardened against hostile input: every malformed shape —
//! truncation, over-long varints, address overflow, inflated counts,
//! out-of-order epochs, overlapping sets, a chunk ID that does not hash
//! the payload — returns a [`DeltaCodecError`]; nothing panics. The
//! fuzz suite in `tests/delta_codec.rs` mutates valid encodings to hold
//! the line.

use std::collections::BTreeSet;

use reaper_exec::{num, rng};

/// Magic prefix of the delta encoding (`"RPD"` + version `1`).
pub const DELTA_WIRE_MAGIC: [u8; 4] = *b"RPD1";

/// Hash-domain seed for profile content hashes (full `RPF1` bytes).
const CONTENT_HASH_SEED: u64 = 0x5EED_C0DE_0001_F00D;
/// Hash-domain seed for delta chunk IDs (payload bytes).
const CHUNK_ID_SEED: u64 = 0x5EED_C0DE_0002_F00D;

/// Content-addresses an encoded profile: the hash every `base_hash` /
/// `result_hash` field and every profile ETag is derived from.
#[must_use]
pub fn content_hash(profile_bytes: &[u8]) -> u64 {
    rng::hash_bytes(CONTENT_HASH_SEED, profile_bytes)
}

/// Content-addresses a delta payload into its chunk ID.
#[must_use]
pub fn chunk_id_of(payload: &[u8]) -> u64 {
    rng::hash_bytes(CHUNK_ID_SEED, payload)
}

/// How reading one LEB128 varint can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended mid-value (continuation bit set on the last byte).
    Truncated,
    /// The value would not fit in 64 bits.
    Overflow,
    /// The value used more bytes than its minimal encoding. Rejected so
    /// every value has exactly one wire form — the property that lets
    /// chunk IDs content-address payloads and lets equal profiles be
    /// compared byte-for-byte.
    NonCanonical,
}

/// Appends `value` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = u8::try_from(value & 0x7F)
            .expect("invariant: a 7-bit mask always fits in u8");
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`push_varint`] appends for `value`.
pub fn varint_len(value: u64) -> usize {
    reaper_exec::num::idx((u64::BITS - (value | 1).leading_zeros()).div_ceil(7))
}

/// Reads one LEB128 varint from the front of `input`, returning the
/// value and the remaining bytes.
///
/// # Errors
/// [`VarintError`] on truncation or a value wider than 64 bits.
pub fn read_varint(input: &[u8]) -> Result<(u64, &[u8]), VarintError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut rest = input;
    loop {
        let Some((&byte, tail)) = rest.split_first() else {
            return Err(VarintError::Truncated);
        };
        rest = tail;
        let payload = u64::from(byte & 0x7F);
        // 10th byte (shift 63) may only carry the final bit.
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(VarintError::Overflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            // A terminating zero byte after a continuation byte means
            // the value had a shorter encoding.
            if payload == 0 && shift > 0 {
                return Err(VarintError::NonCanonical);
            }
            return Ok((value, rest));
        }
        shift += 7;
    }
}

/// Decoding failure for [`ProfileDelta::from_bytes`] and friends.
///
/// Deltas arrive over the network; every malformed shape is a plain
/// `Err` — decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCodecError {
    /// Input shorter than the fixed-size header fields.
    TooShort,
    /// Magic bytes do not spell `RPD1`.
    BadMagic,
    /// A varint ran past the end of the input.
    TruncatedVarint,
    /// A varint encoded more than 64 bits.
    VarintOverflow,
    /// A varint used more bytes than its minimal encoding.
    NonCanonicalVarint,
    /// A delta pushed the running address past `u64::MAX`.
    AddressOverflow,
    /// A declared cell count exceeds what the payload can hold.
    CountTooLarge,
    /// `new_epoch` is not strictly greater than `base_epoch`.
    EpochOrder,
    /// A cell appears in both the added and the removed set.
    AddedRemovedOverlap,
    /// The declared chunk ID does not hash the payload bytes.
    ChunkIdMismatch,
    /// Bytes remained after the declared counts were decoded.
    TrailingBytes,
}

impl core::fmt::Display for DeltaCodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            Self::TooShort => "input shorter than the RPD1 header",
            Self::BadMagic => "magic bytes are not RPD1",
            Self::TruncatedVarint => "varint truncated mid-value",
            Self::VarintOverflow => "varint encodes more than 64 bits",
            Self::NonCanonicalVarint => "varint is not minimally encoded",
            Self::AddressOverflow => "delta overflows the u64 address space",
            Self::CountTooLarge => "declared count exceeds payload capacity",
            Self::EpochOrder => "new_epoch must exceed base_epoch",
            Self::AddedRemovedOverlap => "a cell is both added and removed",
            Self::ChunkIdMismatch => "chunk ID does not hash the payload",
            Self::TrailingBytes => "trailing bytes after the last cell",
        };
        write!(f, "delta decode error: {what}")
    }
}

impl std::error::Error for DeltaCodecError {}

impl From<VarintError> for DeltaCodecError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => DeltaCodecError::TruncatedVarint,
            VarintError::Overflow => DeltaCodecError::VarintOverflow,
            VarintError::NonCanonical => DeltaCodecError::NonCanonicalVarint,
        }
    }
}

/// Why applying a structurally valid delta to a concrete base failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaApplyError {
    /// The delta's `base_hash` does not match the base it was applied to
    /// (out-of-order or cross-profile replay).
    BaseHashMismatch {
        /// Hash the delta was encoded against.
        expected: u64,
        /// Hash of the base actually supplied.
        actual: u64,
    },
    /// An added cell is already present in the base.
    AddedAlreadyPresent(u64),
    /// A removed cell is absent from the base.
    RemovedNotPresent(u64),
    /// The applied result does not hash to the delta's `result_hash`.
    ResultHashMismatch {
        /// Hash the delta promised.
        expected: u64,
        /// Hash of the bytes actually produced.
        actual: u64,
    },
}

impl core::fmt::Display for DeltaApplyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BaseHashMismatch { expected, actual } => write!(
                f,
                "delta apply error: base hash mismatch (delta encoded against \
                 {expected:016x}, applied to {actual:016x})"
            ),
            Self::AddedAlreadyPresent(cell) => {
                write!(f, "delta apply error: added cell {cell} already present")
            }
            Self::RemovedNotPresent(cell) => {
                write!(f, "delta apply error: removed cell {cell} not present")
            }
            Self::ResultHashMismatch { expected, actual } => write!(
                f,
                "delta apply error: result hash mismatch (expected \
                 {expected:016x}, got {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for DeltaApplyError {}

/// Encodes a strictly ascending cell list in sorted-delta varint form.
fn push_sorted_cells(out: &mut Vec<u8>, cells: &[u64]) {
    push_varint(out, num::to_u64(cells.len()));
    let mut prev: Option<u64> = None;
    for &cell in cells {
        match prev {
            None => push_varint(out, cell),
            // The list is strictly ascending by invariant, so -1 is safe.
            Some(p) => push_varint(out, cell - p - 1),
        }
        prev = Some(cell);
    }
}

/// Decodes one sorted-delta cell list, returning the cells (strictly
/// ascending by construction) and the remaining bytes.
fn read_sorted_cells(input: &[u8]) -> Result<(Vec<u64>, &[u8]), DeltaCodecError> {
    let (count, mut rest) = read_varint(input)?;
    // Each cell takes at least one payload byte, so a count beyond the
    // remaining length is corrupt — reject before allocating.
    if count > num::to_u64(rest.len()) {
        return Err(DeltaCodecError::CountTooLarge);
    }
    let mut cells = Vec::with_capacity(num::idx_u64(count));
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let delta;
        (delta, rest) = read_varint(rest)?;
        let cell = match prev {
            None => delta,
            Some(p) => p
                .checked_add(1)
                .and_then(|p1| p1.checked_add(delta))
                .ok_or(DeltaCodecError::AddressOverflow)?,
        };
        cells.push(cell);
        prev = Some(cell);
    }
    Ok((cells, rest))
}

/// Reads an 8-byte little-endian `u64` off the front of `input`.
fn read_u64_le(input: &[u8]) -> Result<(u64, &[u8]), DeltaCodecError> {
    let Some((word, rest)) = input.split_first_chunk::<8>() else {
        return Err(DeltaCodecError::TooShort);
    };
    Ok((u64::from_le_bytes(*word), rest))
}

/// Assembles one `RPD1` wire message from header fields and an already
/// encoded payload.
///
/// This is the reassembly path the serve-layer store uses: it keeps one
/// shared copy of each payload (content-addressed by `chunk_id`) and
/// re-binds it to per-profile headers when serving a delta chain.
/// [`ProfileDelta::to_bytes`] is implemented on top, so stored chunks
/// and freshly encoded deltas can never drift apart.
#[must_use]
pub fn encode_message(
    base_epoch: u64,
    new_epoch: u64,
    base_hash: u64,
    result_hash: u64,
    chunk_id: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 10 + 10 + 24 + payload.len());
    out.extend_from_slice(&DELTA_WIRE_MAGIC);
    push_varint(&mut out, base_epoch);
    push_varint(&mut out, new_epoch);
    out.extend_from_slice(&base_hash.to_le_bytes());
    out.extend_from_slice(&result_hash.to_le_bytes());
    out.extend_from_slice(&chunk_id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One re-profiling epoch: the failing-cell churn between two
/// consecutive profile snapshots, plus the header that binds it to a
/// specific `base_hash → result_hash` transition.
///
/// The added and removed lists are strictly ascending and disjoint —
/// invariants every constructor (compute or decode) enforces, which is
/// what makes the encoding canonical: equal deltas produce identical
/// bytes and therefore identical chunk IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDelta {
    /// Epoch of the base profile this delta applies on top of.
    pub base_epoch: u64,
    /// Epoch after applying (strictly greater than `base_epoch`).
    pub new_epoch: u64,
    /// Content hash of the base profile's full encoding.
    pub base_hash: u64,
    /// Content hash of the resulting profile's full encoding.
    pub result_hash: u64,
    added: Vec<u64>,
    removed: Vec<u64>,
}

impl ProfileDelta {
    /// Computes the delta between two sorted cell streams (ascending,
    /// duplicate-free — the iteration order of any `BTreeSet<u64>` or
    /// `FailureProfile`).
    pub fn compute<B, N>(
        base: B,
        next: N,
        base_epoch: u64,
        new_epoch: u64,
        base_hash: u64,
        result_hash: u64,
    ) -> Self
    where
        B: IntoIterator<Item = u64>,
        N: IntoIterator<Item = u64>,
    {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut b = base.into_iter().peekable();
        let mut n = next.into_iter().peekable();
        loop {
            match (b.peek().copied(), n.peek().copied()) {
                (None, None) => break,
                (Some(_), None) => removed.extend(b.by_ref()),
                (None, Some(_)) => added.extend(n.by_ref()),
                (Some(x), Some(y)) => {
                    if x == y {
                        b.next();
                        n.next();
                    } else if x < y {
                        removed.push(x);
                        b.next();
                    } else {
                        added.push(y);
                        n.next();
                    }
                }
            }
        }
        Self {
            base_epoch,
            new_epoch,
            base_hash,
            result_hash,
            added,
            removed,
        }
    }

    /// Cells present in the new epoch but not the base, ascending.
    pub fn added(&self) -> &[u64] {
        &self.added
    }

    /// Cells present in the base but not the new epoch, ascending.
    pub fn removed(&self) -> &[u64] {
        &self.removed
    }

    /// True when the epoch changed no cells.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total cells churned (added + removed).
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// The epoch- and base-independent payload bytes (added/removed
    /// sections); equal churn yields equal payloads across DIMMs.
    #[must_use]
    pub fn payload_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 2 * self.churn());
        push_sorted_cells(&mut out, &self.added);
        push_sorted_cells(&mut out, &self.removed);
        out
    }

    /// The content-addressed chunk ID of this delta's payload.
    #[must_use]
    pub fn chunk_id(&self) -> u64 {
        chunk_id_of(&self.payload_bytes())
    }

    /// Encodes the full `RPD1` wire message (header + payload).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload_bytes();
        encode_message(
            self.base_epoch,
            self.new_epoch,
            self.base_hash,
            self.result_hash,
            chunk_id_of(&payload),
            &payload,
        )
    }

    /// Decodes one `RPD1` message off the front of `bytes`, returning
    /// the delta and the unconsumed tail (messages self-delimit, so a
    /// chain is plain concatenation).
    ///
    /// # Errors
    /// [`DeltaCodecError`] on any malformed prefix. Never panics.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, &[u8]), DeltaCodecError> {
        let Some((magic, rest)) = bytes.split_first_chunk::<4>() else {
            return Err(DeltaCodecError::TooShort);
        };
        if *magic != DELTA_WIRE_MAGIC {
            return Err(DeltaCodecError::BadMagic);
        }
        let (base_epoch, rest) = read_varint(rest)?;
        let (new_epoch, rest) = read_varint(rest)?;
        if new_epoch <= base_epoch {
            return Err(DeltaCodecError::EpochOrder);
        }
        let (base_hash, rest) = read_u64_le(rest)?;
        let (result_hash, rest) = read_u64_le(rest)?;
        let (declared_chunk, rest) = read_u64_le(rest)?;
        let payload_start = rest;
        let (added, rest) = read_sorted_cells(rest)?;
        let (removed, rest) = read_sorted_cells(rest)?;
        // Both lists are strictly ascending; a single merge walk finds
        // any overlap without allocating.
        let mut a = added.iter().peekable();
        let mut r = removed.iter().peekable();
        while let (Some(&&x), Some(&&y)) = (a.peek(), r.peek()) {
            match x.cmp(&y) {
                core::cmp::Ordering::Equal => {
                    return Err(DeltaCodecError::AddedRemovedOverlap)
                }
                core::cmp::Ordering::Less => {
                    a.next();
                }
                core::cmp::Ordering::Greater => {
                    r.next();
                }
            }
        }
        let payload_len = payload_start.len() - rest.len();
        let payload = payload_start
            .get(..payload_len)
            .ok_or(DeltaCodecError::TooShort)?;
        if chunk_id_of(payload) != declared_chunk {
            return Err(DeltaCodecError::ChunkIdMismatch);
        }
        Ok((
            Self {
                base_epoch,
                new_epoch,
                base_hash,
                result_hash,
                added,
                removed,
            },
            rest,
        ))
    }

    /// Decodes exactly one `RPD1` message; trailing bytes are an error.
    ///
    /// # Errors
    /// [`DeltaCodecError`] on any malformed input. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DeltaCodecError> {
        let (delta, rest) = Self::decode_prefix(bytes)?;
        if !rest.is_empty() {
            return Err(DeltaCodecError::TrailingBytes);
        }
        Ok(delta)
    }

    /// Decodes a concatenated chain of `RPD1` messages (the
    /// `GET /v1/profiles/{id}/delta` response body). An empty input is
    /// an empty chain.
    ///
    /// # Errors
    /// [`DeltaCodecError`] on any malformed message. Never panics.
    pub fn decode_chain(bytes: &[u8]) -> Result<Vec<Self>, DeltaCodecError> {
        let mut chain = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let (delta, tail) = Self::decode_prefix(rest)?;
            chain.push(delta);
            rest = tail;
        }
        Ok(chain)
    }

    /// Applies the churn to a concrete cell set, enforcing the set
    /// constraints (added cells absent, removed cells present). Hash
    /// verification against encoded bytes is the caller's job — see
    /// `FailureProfile::apply_delta` in `reaper-core` for the fully
    /// checked path.
    ///
    /// # Errors
    /// [`DeltaApplyError`] naming the offending cell.
    pub fn apply_to(&self, base: &BTreeSet<u64>) -> Result<BTreeSet<u64>, DeltaApplyError> {
        let mut next = base.clone();
        for &cell in &self.removed {
            if !next.remove(&cell) {
                return Err(DeltaApplyError::RemovedNotPresent(cell));
            }
        }
        for &cell in &self.added {
            if !next.insert(cell) {
                return Err(DeltaApplyError::AddedAlreadyPresent(cell));
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cells: &[u64]) -> BTreeSet<u64> {
        cells.iter().copied().collect()
    }

    fn delta_between(base: &BTreeSet<u64>, next: &BTreeSet<u64>) -> ProfileDelta {
        ProfileDelta::compute(
            base.iter().copied(),
            next.iter().copied(),
            3,
            4,
            0x1111,
            0x2222,
        )
    }

    #[test]
    fn compute_apply_roundtrip() {
        let base = set(&[1, 5, 9, 100]);
        let next = set(&[1, 6, 9, 100, 200]);
        let d = delta_between(&base, &next);
        assert_eq!(d.added(), &[6, 200]);
        assert_eq!(d.removed(), &[5]);
        assert_eq!(d.churn(), 3);
        assert!(!d.is_noop());
        assert_eq!(d.apply_to(&base).expect("applies"), next);
    }

    #[test]
    fn wire_roundtrip_and_canonical_chunk_ids() {
        let base = set(&[2, 4, 8]);
        let next = set(&[2, 8, 16, u64::MAX]);
        let d = delta_between(&base, &next);
        let bytes = d.to_bytes();
        assert_eq!(bytes.get(..4), Some(&b"RPD1"[..]));
        let back = ProfileDelta::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, d);
        assert_eq!(back.chunk_id(), d.chunk_id());
        // Same churn under different headers shares the chunk ID.
        let other = ProfileDelta::compute(
            base.iter().copied(),
            next.iter().copied(),
            7,
            9,
            0xAAAA,
            0xBBBB,
        );
        assert_eq!(other.chunk_id(), d.chunk_id());
        assert_ne!(other.to_bytes(), d.to_bytes());
    }

    #[test]
    fn chains_self_delimit() {
        let a = delta_between(&set(&[1]), &set(&[1, 2]));
        let mut wire = a.to_bytes();
        let b = delta_between(&set(&[1, 2]), &set(&[2, 3]));
        wire.extend_from_slice(&b.to_bytes());
        let chain = ProfileDelta::decode_chain(&wire).expect("chain decodes");
        assert_eq!(chain, vec![a, b]);
        assert!(ProfileDelta::decode_chain(b"").expect("empty chain").is_empty());
    }

    #[test]
    fn apply_enforces_set_constraints() {
        let base = set(&[1, 2]);
        let d = delta_between(&set(&[1]), &set(&[1, 2]));
        assert_eq!(
            d.apply_to(&base),
            Err(DeltaApplyError::AddedAlreadyPresent(2))
        );
        let d = delta_between(&set(&[1, 9]), &set(&[1]));
        assert_eq!(d.apply_to(&base), Err(DeltaApplyError::RemovedNotPresent(9)));
    }

    #[test]
    fn decode_rejects_malformed_inputs_without_panicking() {
        use DeltaCodecError as E;
        assert_eq!(ProfileDelta::from_bytes(b""), Err(E::TooShort));
        assert_eq!(ProfileDelta::from_bytes(b"RPD"), Err(E::TooShort));
        assert_eq!(ProfileDelta::from_bytes(b"RPF1\x00\x01"), Err(E::BadMagic));

        let valid = delta_between(&set(&[1, 5]), &set(&[1, 7, 9])).to_bytes();
        // Every strict prefix must be rejected.
        for cut in 0..valid.len() {
            assert!(
                ProfileDelta::from_bytes(valid.get(..cut).expect("in range")).is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
        // Trailing garbage after a valid message.
        let mut trail = valid.clone();
        trail.push(0);
        assert_eq!(ProfileDelta::from_bytes(&trail), Err(E::TrailingBytes));
        // Payload tampering must trip the chunk-ID check.
        let mut tampered = valid.clone();
        if let Some(last) = tampered.last_mut() {
            *last ^= 0x01;
        }
        assert!(matches!(
            ProfileDelta::from_bytes(&tampered),
            Err(E::ChunkIdMismatch | E::TruncatedVarint | E::VarintOverflow | E::CountTooLarge)
        ));
        // Epoch order: new_epoch == base_epoch.
        let bad = encode_message(4, 4, 0, 0, chunk_id_of(b"\x00\x00"), b"\x00\x00");
        assert_eq!(ProfileDelta::from_bytes(&bad), Err(E::EpochOrder));
        // Overlapping added/removed sets.
        let mut payload = Vec::new();
        push_sorted_cells(&mut payload, &[5]);
        push_sorted_cells(&mut payload, &[5]);
        let bad = encode_message(0, 1, 0, 0, chunk_id_of(&payload), &payload);
        assert_eq!(ProfileDelta::from_bytes(&bad), Err(E::AddedRemovedOverlap));
        // 11-byte varint in the added list.
        let mut payload = vec![0x01];
        payload.extend_from_slice(&[0x80; 10]);
        payload.push(0x01);
        payload.push(0x00);
        let bad = encode_message(0, 1, 0, 0, chunk_id_of(&payload), &payload);
        assert_eq!(ProfileDelta::from_bytes(&bad), Err(E::VarintOverflow));
        // Address overflow: second added delta wraps past u64::MAX.
        let mut payload = vec![0x02];
        push_varint(&mut payload, u64::MAX);
        push_varint(&mut payload, 0);
        payload.push(0x00);
        let bad = encode_message(0, 1, 0, 0, chunk_id_of(&payload), &payload);
        assert_eq!(ProfileDelta::from_bytes(&bad), Err(E::AddressOverflow));
        // Declared count beyond the remaining payload.
        let payload = vec![0x20];
        let bad = encode_message(0, 1, 0, 0, chunk_id_of(&payload), &payload);
        assert_eq!(ProfileDelta::from_bytes(&bad), Err(E::CountTooLarge));
    }

    #[test]
    fn varint_len_matches_the_encoding() {
        for shift in 0..64 {
            for value in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1] {
                let mut out = Vec::new();
                push_varint(&mut out, value);
                assert_eq!(varint_len(value), out.len(), "value {value}");
            }
        }
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_layer_reports_truncation_and_overflow() {
        let mut out = Vec::new();
        push_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        let (v, rest) = read_varint(&out).expect("max decodes");
        assert_eq!(v, u64::MAX);
        assert!(rest.is_empty());
        assert_eq!(read_varint(&[0x80]), Err(VarintError::Truncated));
        let wide = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(read_varint(&wide), Err(VarintError::Overflow));
    }
}
