//! Bit-plane batch trial kernel: up to 64 rounds per cell per pass.
//!
//! The one kernel every trial on a compiled [`TrialPlan`] runs through:
//! a routed trial as a batch of one, and a group of same-condition
//! trials in one call in batches of up to 64. Running R rounds round-major
//! would re-stream the `prob_rank`/`prob_lo` lanes from memory R times and
//! pay the per-batch setup and merge R times. The kernel runs the loop nest
//! **cell-major** instead: each in-band lane is visited once per batch —
//! one index load, one threshold load — and the inner loop walks the (up
//! to 64) round nonces, recording outcomes as one `u64` **bit-plane** per
//! cell, bit *r* set iff the cell failed in round *r*. Each round owns a
//! failure bitmap in the chip's rank space (a bit per weak cell, by the
//! rank of its index): the plan's certain-fail bitmap is ORed into every
//! round, and each failing lane's plane is scattered into the rounds with
//! trailing-zeros iteration (the gsim2 word-packed SoA trick). The caller
//! emits a round once through the chip's rank table, so it comes out
//! sorted with no merge; a union's batch ORs its rounds straight into the
//! union's one bitmap, scattering every plane at stride 0. A batch of one
//! skips the planes' scatter: each lane ORs its 0-or-1 outcome into the
//! round as a value, with no branch on it.
//!
//! Two further per-draw savings fall out of the inversion:
//!
//! * **Shared hash prefixes.** Every lane key is
//!   `[stream_base, TRIAL_DOMAIN, nonce, index]`. The
//!   `(stream_base, TRIAL_DOMAIN)` prefix is hashed once per batch and
//!   each `nonce` extension once per batch (not once per cell) via
//!   [`StreamPrefix`]; the per-(cell, round) cost drops to one `push` +
//!   finalize (~7 multiplies) from the ~17 of hashing the full tuple.
//! * **Certified integer-domain compares.** The scan fails a cell iff
//!   `next_f64() < phi(z)`, which is `k < T` for the raw 53-bit draw
//!   `k = next_u64() >> 11` and `T = ceil(phi(z) · 2⁵³)`
//!   ([`u53_threshold`]). A plan stores no `T`, which would cost a `phi`
//!   per lane at compile time, but the certified floor
//!   `L = ⌊(Φ̃(z) − ε) · 2⁵³⌋` from the Φ table
//!   ([`crate::cell::phi_floor_u53`]): `k < L` fails, `k ≥ L + W` passes,
//!   and only a draw in the band between (about 4e-6 of them) makes the
//!   kernel recompute `T` from the cell, through the chip's rank →
//!   ordinal table.
//!
//! # Determinism contract
//!
//! Bit-identical to the window scan at any thread count and any batch
//! size: every (cell, round) pair opens the same hash lane and makes the
//! same draws in the same order (VRT observation first, failure draw only
//! in band). VRT chains are replayed sequentially per cell across the
//! batch carrying the advanced state — and since every round in a batch
//! shares one wall-clock `now_ms`, [`TwoStateVrt::observe_at`] advances
//! the chain on at most the first observation (dt > 0) and is a draw-
//! consuming no-op for the rest, exactly as a round-by-round scan would
//! behave. See DESIGN.md §"Compiled trial plans".
//!
//! A batch runs on the calling thread. Callers that run many trials at
//! once (experiments over chips, portfolio race lanes) parallelize above
//! the kernel, so a trial never leaves the thread that asked for it.

use reaper_exec::num;
use reaper_exec::rng::StreamPrefix;

use crate::cell::PHI_BAND_U53;
use crate::chip::{SimulatedChip, TRIAL_DOMAIN};
use crate::plan::{TrialCtx, TrialPlan, CERTAIN_FAIL, CERTAIN_PASS};
use crate::vrt::TwoStateVrt;

/// Maximum rounds per batch: one bit per round in a `u64` plane.
pub const MAX_BATCH_ROUNDS: usize = 64;

/// `2⁵³` as an (exactly representable) `f64`.
pub(crate) const U53_SCALE: f64 = 9_007_199_254_740_992.0;

/// Rescales an in-band probability threshold to the integer domain of the
/// generator's 53-bit draws: `(next_u64() >> 11) < u53_threshold(thr)` iff
/// `next_f64() < thr`, exactly.
///
/// Proof: `next_f64()` is `k · 2⁻⁵³` for the 53-bit integer draw `k`, and
/// the product is exact (k has ≤ 53 significant bits). So
/// `next_f64() < thr  ⇔  k < thr · 2⁵³  ⇔  k < ceil(thr · 2⁵³)` — the
/// last step because `k` is an integer (when `thr · 2⁵³` is itself an
/// integer the ceil is the identity and both strict compares agree).
/// In-band thresholds are `phi(z)` with `|z| ≤ Z_CUTOFF`, hence strictly
/// inside `(0, 1)`: the scaled value lies in `(0, 2⁵³]` and the cast is
/// exact.
pub(crate) fn u53_threshold(thr: f64) -> u64 {
    debug_assert!(
        thr > 0.0 && thr < 1.0,
        "u53_threshold is for in-band thresholds only, got {thr}"
    );
    let scaled = (thr * U53_SCALE).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        // lint: allow(lossy-cast) ceil of a value in (0, 2^53] is integral, fits u64 exactly
        scaled as u64
    }
}

impl TrialPlan {
    /// Evaluates one round per nonce in a single cell-major pass, ORing
    /// each round's failures into its bitmap: round `r` owns the `w` words
    /// at `r · stride` in `rounds`, a bit per rank of the chip's weak
    /// cells. A stride of 0 ORs every round into one bitmap (a union's
    /// sink); a stride of `w` gives each round its own. Returns the final
    /// VRT chain states, one per VRT lane: the union of what per-round
    /// merges would have produced, since later observations overwrite
    /// earlier ones slot-wise.
    ///
    /// `ctx.nonce` is ignored (each lane key takes its nonce from
    /// `nonces`); all rounds share `ctx.now_ms`; the chip's rank tables
    /// (built) turn a lane's rank into the index its hash lane is keyed
    /// by. Outcomes are bit-identical to running the window scan once per
    /// nonce in order, merging each round's VRT updates into the chip
    /// between calls.
    ///
    /// # Panics
    /// Panics if `nonces` is empty or longer than [`MAX_BATCH_ROUNDS`], if
    /// `stride` is neither 0 nor `w`, or if `rounds` is too short for the
    /// bitmaps that `stride` lays out.
    pub(crate) fn run_rounds(
        &self,
        chip: &SimulatedChip,
        ctx: &TrialCtx,
        nonces: impl ExactSizeIterator<Item = u64>,
        rounds: &mut [u64],
        stride: usize,
    ) -> Vec<(u32, TwoStateVrt)> {
        let k = nonces.len();
        assert!(
            (1..=MAX_BATCH_ROUNDS).contains(&k),
            "batch size must be in 1..={MAX_BATCH_ROUNDS}, got {k}"
        );
        debug_assert!(self.lanes_consistent(), "plan SoA lanes out of sync");
        let lanes = &self.lanes;
        let words = lanes.certain.len();
        assert!(
            stride == 0 || stride == words,
            "rounds share one bitmap or own one each"
        );
        let rounds = rounds
            .get_mut(..(k - 1) * stride + words)
            // lint: allow(panic) documented `# Panics`: `rounds` too short for its stride
            .expect("`rounds` holds the bitmaps `stride` lays out");

        // Certain-fail cells fail every round.
        for round in rounds.chunks_mut(words.max(1)) {
            for (word, &certain) in round.iter_mut().zip(&lanes.certain) {
                *word |= certain;
            }
        }

        // Hash the shared tuple prefix once per batch and each nonce
        // extension once per batch.
        let trial_prefix = StreamPrefix::root()
            .push(ctx.stream_base)
            .push(TRIAL_DOMAIN);
        let nonce_prefixes: Vec<StreamPrefix> = nonces.map(|nonce| trial_prefix.push(nonce)).collect();
        let by_rank = chip.by_rank();
        let index_of = |rank: u32| {
            *by_rank
                .get(num::idx(rank))
                .expect("invariant: plan ranks lie below the chip's cell count")
        };
        // A batch of one ORs each lane's outcome into its round as a
        // value: its plane is 0 or 1, and a branch on it would go either
        // way. Larger batches scatter a plane's set bits, at stride 0 all
        // into the one bitmap.
        let mut record = |plane: u64, rank: u32| {
            if k == 1 {
                let rank = num::idx(rank);
                *rounds
                    .get_mut(rank / 64)
                    .expect("invariant: plan ranks lie below the bitmap") |= plane << (rank % 64);
            } else {
                scatter_plane(plane, rank, stride, rounds);
            }
        };

        // In-band non-VRT lanes, cell-major, on the calling thread. A draw
        // in a lane's band is decided against its exact threshold,
        // recomputed from the cell. A batch of one has no rounds to run
        // abreast, so it draws four lanes abreast instead; larger batches
        // draw each lane's rounds four abreast (`prob_plane`).
        let exact = |rank: u32| move || self.exact_threshold(chip, ctx, rank);
        if let [np] = *nonce_prefixes {
            let mut single = |rank: u32, lo: u64, d: u64| {
                let (fails, band) = first_pass(d, lo);
                record(settle_band(u64::from(fails), u64::from(band), exact(rank), |_| d), rank);
            };
            let (ranks, los) = (lanes.prob_rank.chunks_exact(4), lanes.prob_lo.chunks_exact(4));
            let tail = ranks.remainder().iter().zip(los.remainder());
            for quad in ranks.zip(los) {
                let (&[r0, r1, r2, r3], &[l0, l1, l2, l3]) = quad else {
                    unreachable!("chunks_exact(4) yields 4-element slices")
                };
                let [d0, d1, d2, d3] = [r0, r1, r2, r3].map(|rank| draw(np, index_of(rank)));
                single(r0, l0, d0);
                single(r1, l1, d1);
                single(r2, l2, d2);
                single(r3, l3, d3);
            }
            for (&rank, &lo) in tail {
                single(rank, lo, draw(np, index_of(rank)));
            }
        } else {
            for (&rank, &lo) in lanes.prob_rank.iter().zip(&lanes.prob_lo) {
                let idx = index_of(rank);
                let (plane, band) = prob_plane(idx, lo, &nonce_prefixes);
                let plane = settle_band(plane, band, exact(rank), |r| {
                    draw(*nonce_prefixes.get(r).expect("invariant: band bits sit below the batch size"), idx)
                });
                record(plane, rank);
            }
        }

        // VRT lanes: sequential per-cell replay across the batch,
        // carrying the chain state from round to round. Draw order per
        // (cell, round) matches the window scan: observation first, then
        // the failure draw only for in-band thresholds.
        let mut vrt_updates = Vec::with_capacity(lanes.vrt_slot.len());
        for ((&slot, &rank), pair) in lanes
            .vrt_slot
            .iter()
            .zip(&lanes.vrt_rank)
            .zip(lanes.vrt_thr.chunks_exact(2))
        {
            let [thr_high, thr_low]: [f64; 2] = pair
                .try_into()
                .expect("invariant: vrt_thr holds two thresholds per cell");
            let mut vrt = *chip
                .base_vrt()
                .get(num::idx(slot))
                .expect("invariant: plan VRT slots are positions pushed into base_vrt");
            let idx = index_of(rank);
            let mut plane = 0u64;
            for (r, np) in nonce_prefixes.iter().enumerate() {
                let mut lane = np.push(idx).stream();
                let in_low = vrt.observe_at(ctx.now_ms, lane.next_f64());
                let thr = if in_low { thr_low } else { thr_high };
                // Certain-fail consumes no uniform, matching the scan's
                // draw count; only in-band thresholds draw.
                let fails = if thr.to_bits() == CERTAIN_FAIL.to_bits() {
                    true
                } else {
                    thr.to_bits() != CERTAIN_PASS.to_bits() && lane.next_f64() < thr
                };
                plane |= u64::from(fails) << r;
            }
            vrt_updates.push((slot, vrt));
            record(plane, rank);
        }
        vrt_updates
    }
}

/// The 53-bit failure draw of the cell at index `idx` in the round whose
/// nonce prefix is `np`: the first draw of its hash lane.
fn draw(np: StreamPrefix, idx: u64) -> u64 {
    np.push(idx).stream().next_u64() >> 11
}

/// The first-pass decision of a 53-bit draw `d` against an in-band lane's
/// certified floor `lo` ([`crate::cell::phi_floor_u53`]): whether it fails for
/// certain, and whether it falls in the band above the floor, which only
/// the exact threshold decides. A draw in the band does not fail here.
#[inline(always)]
fn first_pass(d: u64, lo: u64) -> (bool, bool) {
    (d < lo, d.wrapping_sub(lo) < PHI_BAND_U53)
}

/// The cell-major hot loop of one in-band non-VRT lane: its first-pass
/// bit-plane and the rounds whose draws fell in its band, one 53-bit draw
/// and two integer compares per round.
fn prob_plane(idx: u64, lo: u64, nonce_prefixes: &[StreamPrefix]) -> (u64, u64) {
    let (mut plane, mut band) = (0u64, 0u64);
    let mut mark = |d: u64, r: usize| {
        let (fails, in_band) = first_pass(d, lo);
        plane |= u64::from(fails) << r;
        band |= u64::from(in_band) << r;
    };
    // Four independent hash chains per step: one chain's ~7 serial
    // multiplies leave the multiplier idle most cycles, so the loop is
    // latency-bound without explicit interleaving.
    let mut chunks = nonce_prefixes.chunks_exact(4);
    let mut r = 0usize;
    for quad in chunks.by_ref() {
        let &[p0, p1, p2, p3] = quad else {
            unreachable!("chunks_exact(4) yields 4-element slices")
        };
        let (d0, d1, d2, d3) = (draw(p0, idx), draw(p1, idx), draw(p2, idx), draw(p3, idx));
        mark(d0, r);
        mark(d1, r + 1);
        mark(d2, r + 2);
        mark(d3, r + 3);
        r += 4;
    }
    for &np in chunks.remainder() {
        mark(draw(np, idx), r);
        r += 1;
    }
    (plane, band)
}

/// Decides the rounds of `band` (their draws fell in the lane's band, so
/// their `plane` bits are clear) against the lane's exact threshold,
/// computed only if `band` has a round: round `r` fails iff
/// `draw_of(r) < exact()`. About 4e-6 of draws land here.
fn settle_band(plane: u64, band: u64, exact: impl FnOnce() -> u64, draw_of: impl Fn(usize) -> u64) -> u64 {
    if band == 0 {
        return plane;
    }
    let exact = exact();
    let (mut plane, mut band) = (plane, band);
    while band != 0 {
        let r = num::idx(band.trailing_zeros());
        plane |= u64::from(draw_of(r) < exact) << r;
        band &= band - 1;
    }
    plane
}

/// Sets `rank`'s bit in the bitmap of every round whose bit is set in
/// one cell's bit-plane: round `r`'s bitmap starts at `r · stride`.
fn scatter_plane(plane: u64, rank: u32, stride: usize, rounds: &mut [u64]) {
    let rank = num::idx(rank);
    let (word, bit) = (rank / 64, 1u64 << (rank % 64));
    let mut plane = plane;
    while plane != 0 {
        let r = num::idx(plane.trailing_zeros());
        *rounds
            .get_mut(r * stride + word)
            .expect("invariant: plane bits sit below the batch size, ranks below the bitmap") |= bit;
        plane &= plane - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::phi_floor_u53;
    use crate::chip::{emit_ranks, SimulatedChip, Window, Z_CUTOFF};
    use crate::config::RetentionConfig;
    use crate::plan::{LaneSource, PatternLowering};
    use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
    use reaper_exec::rng::stream;

    #[test]
    fn u53_threshold_matches_float_compare_exactly() {
        use reaper_analysis::special::phi;
        let thresholds = [
            phi(-4.0),
            phi(-2.5),
            phi(-1e-9),
            phi(0.0),
            phi(1.0),
            phi(3.999),
            0.25,
            0.5,
            0.5 + f64::EPSILON,
            1.0 - f64::EPSILON,
            f64::EPSILON,
        ];
        for thr in thresholds {
            let thr_u = u53_threshold(thr);
            // Boundary draws around the cutover, where an off-by-one
            // would flip the outcome.
            let hi = (thr_u + 2).min((1u64 << 53) - 1);
            for k in thr_u.saturating_sub(2)..=hi {
                let float_side = (k as f64) * (1.0 / U53_SCALE) < thr;
                assert_eq!(k < thr_u, float_side, "thr {thr} k {k}");
            }
        }
        // Random draws through the real generator: the integer compare
        // and next_f64 must agree on every one.
        let mut rng = stream(&[0xBA7C4]);
        for thr in thresholds {
            let thr_u = u53_threshold(thr);
            for _ in 0..200 {
                let mut probe = rng;
                let k = rng.next_u64() >> 11;
                assert_eq!(k < thr_u, probe.next_f64() < thr, "thr {thr} k {k}");
            }
        }
    }

    /// A small chip with its rank tables built.
    #[test]
    fn certified_floor_decides_as_the_exact_threshold() {
        // On a dense grid over the band (both ends included) and at draws
        // on either side of the floor, the band's top and the exact
        // threshold T, the kernel's first pass plus its band fallback
        // answer exactly `d < T`; the band holds T.
        use reaper_analysis::special::phi;
        let steps = 1u32 << 14;
        let mut in_band = 0;
        for k in 0..=8 * steps {
            let z = -Z_CUTOFF + f64::from(k) / f64::from(steps);
            let lo = phi_floor_u53(z);
            let exact = u53_threshold(phi(z));
            assert!(lo < exact && exact < lo + PHI_BAND_U53, "z {z}: L {lo}, T {exact}");
            assert_eq!(first_pass(lo - 1, lo), (true, false), "z {z}");
            assert_eq!(first_pass(lo + PHI_BAND_U53, lo), (false, false), "z {z}");
            for d in [lo - 1, lo, lo + PHI_BAND_U53 - 1, lo + PHI_BAND_U53, exact - 1, exact] {
                let (fails, band) = first_pass(d, lo);
                in_band += usize::from(band);
                let plane = settle_band(u64::from(fails), u64::from(band), || exact, |r| {
                    assert_eq!(r, 0, "one round");
                    d
                });
                assert_eq!(plane == 1, d < exact, "z {z}, d {d}: L {lo}, T {exact}");
            }
        }
        assert_eq!(in_band, 4 * (8 * steps as usize + 1), "L, L + W − 1, T − 1 and T lie in the band");
    }

    /// A small chip with its rank tables built.
    fn quick_chip() -> SimulatedChip {
        let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16);
        let mut chip = SimulatedChip::new(cfg, 0xBC417);
        chip.rank_cells();
        chip
    }

    /// The pattern every plan here is compiled for.
    fn pattern() -> DataPattern {
        DataPattern::checkerboard()
    }

    /// The plan under test, its trial context, and the trial window the
    /// reference scan covers at the same condition.
    fn compiled_plan(chip: &SimulatedChip) -> (TrialPlan, TrialCtx, Window) {
        let pattern = pattern();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);
        let window = chip.window(interval, temp);
        let low = PatternLowering::covering(chip.cells(), pattern, chip.geometry(), &window);
        let plans = TrialPlan::compile(
            chip.config(),
            chip.cells(),
            &chip.rank_tables_for_tests().0,
            &window,
            LaneSource::Lowered(&low),
            (interval, temp),
        );
        let [plan] = <[TrialPlan; 1]>::try_from(plans).expect("one pattern compiles one plan");
        let ctx = TrialCtx {
            t_secs: interval.as_secs(),
            ms_scale: chip.config().mu_temp_scale(temp),
            ss_scale: chip.config().sigma_temp_scale(temp),
            stream_base: 0xFEED_F00D,
            nonce: 0,
            now_ms: 250.0,
            low_mu_factor: chip.config().vrt_low_mu_factor,
        };
        (plan, ctx, chip.window(interval, temp))
    }

    /// Runs one batch of `nonces` on `chip`'s chain states: each round's
    /// failures, emitted sorted, and the final VRT chain states.
    fn run_batch(
        plan: &TrialPlan,
        chip: &SimulatedChip,
        ctx: &TrialCtx,
        nonces: &[u64],
    ) -> (Vec<Vec<u64>>, Vec<(u32, TwoStateVrt)>) {
        let words = plan.lanes.certain.len();
        let mut bits = vec![0; nonces.len() * words];
        let updates = plan.run_rounds(chip, ctx, nonces.iter().copied(), &mut bits, words);
        let rounds = bits
            .chunks(words)
            .map(|round| {
                let mut failures = Vec::new();
                emit_ranks(round, chip.by_rank(), &mut failures);
                failures
            })
            .collect();
        (rounds, updates)
    }

    /// Replays `nonces` through the reference scan on a copy of `chip`,
    /// merging VRT updates between rounds: the sorted failures of every
    /// round, and the copy's final VRT chain states.
    fn reference_replay(
        chip: &SimulatedChip,
        ctx: &TrialCtx,
        window: &Window,
        nonces: &[u64],
    ) -> (Vec<Vec<u64>>, Vec<TwoStateVrt>) {
        let mut chip = chip.clone();
        let rounds = nonces
            .iter()
            .map(|&nonce| {
                let round_ctx = TrialCtx { nonce, ..*ctx };
                chip.reference_round_for_tests(pattern(), window, &round_ctx).0
            })
            .collect();
        (rounds, chip.base_vrt().to_vec())
    }

    #[test]
    fn batch_matches_sequential_reference_replay() {
        let chip = quick_chip();
        let (plan, ctx, window) = compiled_plan(&chip);
        let nonces: Vec<u64> = (40..47).collect();
        let (rounds, vrt_updates) = run_batch(&plan, &chip, &ctx, &nonces);
        let (want, base_vrt) = reference_replay(&chip, &ctx, &window, &nonces);
        assert_eq!(rounds, want);
        // Final chain states match the merged sequential replay.
        for (slot, state) in &vrt_updates {
            assert_eq!(base_vrt.get(num::idx(*slot)).expect("slot"), state);
        }
        assert_eq!(
            vrt_updates.len(),
            plan.lanes.vrt_slot.len(),
            "one final state per VRT lane"
        );
    }

    #[test]
    fn batch_of_one_equals_reference_scan() {
        let mut chip = quick_chip();
        let (plan, ctx, window) = compiled_plan(&chip);
        let (mut rounds, mut vrt_updates) = run_batch(&plan, &chip, &ctx, &[99]);
        let round_ctx = TrialCtx { nonce: 99, ..ctx };
        let (fails, mut updates) = chip.reference_round_for_tests(pattern(), &window, &round_ctx);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds.pop().expect("one round"), fails);
        // Plan lanes are rank-ordered, the scan walks window order: compare
        // the chain updates slot by slot.
        updates.sort_unstable_by_key(|&(slot, _)| slot);
        vrt_updates.sort_unstable_by_key(|&(slot, _)| slot);
        assert_eq!(vrt_updates, updates);
    }

    #[test]
    fn full_width_batch_covers_all_64_bits() {
        let chip = quick_chip();
        let (plan, ctx, window) = compiled_plan(&chip);
        let nonces: Vec<u64> = (1000..1064).collect();
        let (rounds, _) = run_batch(&plan, &chip, &ctx, &nonces);
        assert_eq!(rounds.len(), MAX_BATCH_ROUNDS);
        // Every round, the last one (bit 63) included, against a
        // sequential reference replay.
        let (want, _) = reference_replay(&chip, &ctx, &window, &nonces);
        assert_eq!(rounds, want);
        assert!(!want.last().expect("64 rounds").is_empty());
    }

    #[test]
    fn a_failing_draw_in_a_band_is_decided_exactly() {
        // The first nonce at which an in-band lane draws inside its band
        // and below its exact threshold: the round fails the cell only
        // through the band fallback. That round, alone, leading a batch
        // and inside a full one, matches the reference scan.
        let chip = quick_chip();
        let (plan, ctx, window) = compiled_plan(&chip);
        let by_rank = chip.by_rank();
        let trial_prefix = StreamPrefix::root().push(ctx.stream_base).push(TRIAL_DOMAIN);
        let lanes = &plan.lanes;
        let (nonce, rank) = (0..1u64 << 24)
            .find_map(|nonce| {
                let np = trial_prefix.push(nonce);
                lanes.prob_rank.iter().zip(&lanes.prob_lo).find_map(|(&rank, &lo)| {
                    let d = draw(np, by_rank[rank as usize]);
                    let fails_in_band = first_pass(d, lo) == (false, true)
                        && d < plan.exact_threshold(&chip, &ctx, rank);
                    fails_in_band.then_some((nonce, rank))
                })
            })
            .expect("a failing band draw within 2^24 nonces");
        let index = by_rank[rank as usize];
        for nonces in [vec![nonce], vec![nonce, nonce + 1, nonce + 2], (nonce..nonce + 64).collect()] {
            let (rounds, _) = run_batch(&plan, &chip, &ctx, &nonces);
            assert!(rounds[0].contains(&index), "the band draw fails its cell");
            let (want, _) = reference_replay(&chip, &ctx, &window, &nonces);
            assert_eq!(rounds, want, "{} rounds from nonce {nonce}", nonces.len());
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn rejects_oversized_batches() {
        let chip = quick_chip();
        let (plan, ctx, _) = compiled_plan(&chip);
        let nonces: Vec<u64> = (0..65).collect();
        let _ = run_batch(&plan, &chip, &ctx, &nonces);
    }
}

