//! Bit-plane batch trial kernel: up to 64 rounds per cell per pass.
//!
//! The one kernel every trial on a compiled [`TrialPlan`] runs through:
//! single trials as batches of one, and the multi-round and schedule
//! entry points in batches of up to 64. Running R rounds round-major
//! would re-stream the `prob_idx`/threshold lanes from memory R times and
//! pay the fan-out/merge overhead R times. The kernel runs the loop nest
//! **cell-major** instead: each in-band lane is visited once per batch —
//! one index load, one threshold load — and the inner loop walks the (up
//! to 64) round nonces, recording outcomes as one `u64` **bit-plane** per
//! cell, bit *r* set iff the cell failed in round *r*. The planes are then
//! expanded back into per-round failure vectors with popcount/
//! trailing-zeros iteration (the gsim2 word-packed SoA trick), walking
//! the three index-sorted lane classes in one merge so every round comes
//! out sorted.
//!
//! Two further per-draw savings fall out of the inversion:
//!
//! * **Shared hash prefixes.** Every lane key is
//!   `[stream_base, TRIAL_DOMAIN, nonce, index]`. The
//!   `(stream_base, TRIAL_DOMAIN)` prefix is hashed once per batch and
//!   each `nonce` extension once per batch (not once per cell) via
//!   [`StreamPrefix`]; the per-(cell, round) cost drops to one `push` +
//!   finalize (~7 multiplies) from the ~17 of hashing the full tuple.
//! * **Integer-domain compares.** The plan carries `prob_thr_u[i] =
//!   ceil(thr · 2⁵³)` ([`u53_threshold`]), so the kernel compares the raw
//!   53-bit draw `next_u64() >> 11` against it — exactly equivalent to
//!   `next_f64() < thr` (see the proof on [`u53_threshold`]) without the
//!   int→float convert in the hottest loop.
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

use std::sync::Arc;

use reaper_exec::num;
use reaper_exec::rng::StreamPrefix;

use crate::chip::{PAR_MIN_CELLS, TRIAL_DOMAIN};
use crate::plan::{PlanLanes, TrialCtx, TrialPlan, CERTAIN_FAIL, CERTAIN_PASS};
use crate::vrt::TwoStateVrt;

/// Maximum rounds per batch: one bit per round in a `u64` plane.
pub const MAX_BATCH_ROUNDS: usize = 64;

/// `2⁵³` as an (exactly representable) `f64`.
const U53_SCALE: f64 = 9_007_199_254_740_992.0;

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

/// The kernel's output for one batch of round nonces.
pub(crate) struct BatchRounds {
    /// Per-round failing cell indices, `rounds.len() == nonces.len()`, in
    /// nonce order. Each round is sorted ascending and duplicate-free
    /// (lane classes partition the window), so callers can build a
    /// [`crate::chip::TrialOutcome`] without re-sorting.
    pub(crate) rounds: Vec<Vec<u64>>,
    /// Final VRT chain states after the whole batch, one per plan VRT
    /// lane — the union of what per-round merges would have produced,
    /// since later observations overwrite earlier ones slot-wise.
    pub(crate) vrt_updates: Vec<(u32, TwoStateVrt)>,
}

impl TrialPlan {
    /// Evaluates one round per nonce in a single cell-major pass.
    ///
    /// `ctx.nonce` is ignored (each lane key takes its nonce from
    /// `nonces`); all rounds share `ctx.now_ms`. Outcomes are
    /// bit-identical to running the window scan once per nonce in order,
    /// merging each round's VRT updates into `base_vrt` between calls —
    /// except each round comes back already sorted ascending.
    ///
    /// # Panics
    /// Panics if `nonces` is empty or longer than [`MAX_BATCH_ROUNDS`].
    pub(crate) fn run_rounds(
        &self,
        base_vrt: &[TwoStateVrt],
        ctx: &TrialCtx,
        nonces: &[u64],
    ) -> BatchRounds {
        let k = nonces.len();
        assert!(
            (1..=MAX_BATCH_ROUNDS).contains(&k),
            "batch size must be in 1..={MAX_BATCH_ROUNDS}, got {k}"
        );
        debug_assert!(self.lanes_consistent(), "plan SoA lanes out of sync");

        // Hash the shared tuple prefix once per batch and each nonce
        // extension once per batch.
        let trial_prefix = StreamPrefix::root()
            .push(ctx.stream_base)
            .push(TRIAL_DOMAIN);
        let nonce_prefixes: Arc<[StreamPrefix]> =
            nonces.iter().map(|&nonce| trial_prefix.push(nonce)).collect();

        // In-band non-VRT lanes, cell-major. Parallel fan-out covers
        // cells × all k rounds at once: each chunk is k× the work of a
        // single-round chunk, so the pool's dispatch overhead amortizes.
        let lanes = Arc::clone(&self.lanes);
        let n = lanes.prob_idx.len();
        let planes: Vec<u64> = if n < PAR_MIN_CELLS || reaper_exec::thread_count() <= 1 {
            prob_planes(&lanes, &nonce_prefixes, 0..n)
        } else {
            let shared = Arc::clone(&lanes);
            let prefixes = Arc::clone(&nonce_prefixes);
            let chunks = reaper_exec::par_index_map_pooled(
                n,
                256,
                Arc::new(move |range: core::ops::Range<usize>| {
                    prob_planes(&shared, &prefixes, range)
                }),
            );
            let mut all = Vec::with_capacity(n);
            for chunk in chunks {
                all.extend(chunk);
            }
            all
        };

        // VRT lanes: sequential per-cell replay across the batch,
        // carrying the chain state from round to round. Draw order per
        // (cell, round) matches the window scan: observation first, then
        // the failure draw only for in-band thresholds.
        let mut vrt_planes = Vec::with_capacity(lanes.vrt_slot.len());
        let mut vrt_updates = Vec::with_capacity(lanes.vrt_slot.len());
        for ((slot, idx), pair) in lanes
            .vrt_slot
            .iter()
            .zip(&lanes.vrt_idx)
            .zip(lanes.vrt_thr.chunks_exact(2))
        {
            let [thr_high, thr_low]: [f64; 2] = pair
                .try_into()
                .expect("invariant: vrt_thr holds two thresholds per cell");
            let mut vrt = *base_vrt
                .get(num::idx(*slot))
                .expect("invariant: plan VRT slots are positions pushed into base_vrt");
            let mut plane = 0u64;
            for (r, np) in nonce_prefixes.iter().enumerate() {
                let mut lane = np.push(*idx).stream();
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
            vrt_updates.push((*slot, vrt));
            vrt_planes.push(plane);
        }

        // Size each round's vector from the mean failures per round (one
        // popcount per plane — a per-bit exact count would cost as much
        // as the expansion itself). Rounds are near-iid draws, so mean
        // plus a 1/8 margin almost always avoids regrowth, and a rare
        // outlier round just pays one amortized `Vec` doubling.
        let popcount = |v: &[u64]| -> usize { v.iter().map(|p| num::idx(p.count_ones())).sum() };
        let total = lanes.certain.len() * k + popcount(&planes) + popcount(&vrt_planes);
        let per_round = total / k + total / (k * 8) + 8;
        let mut rounds: Vec<Vec<u64>> =
            (0..k).map(|_| Vec::with_capacity(per_round)).collect();

        // Expand bit-planes into per-round failure vectors, sorted. The
        // lane classes partition the window (a cell appears in exactly
        // one of certain / prob / VRT) and each is index-sorted, so one
        // 3-way merge over them visits failing cells in ascending index
        // order and every round's expansion comes out sorted.
        let full_mask = if k == MAX_BATCH_ROUNDS {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };
        let mut certain = lanes.certain.iter().map(|&idx| (idx, full_mask)).peekable();
        let mut prob = lanes
            .prob_idx
            .iter()
            .copied()
            .zip(planes)
            .filter(|&(_, plane)| plane != 0)
            .peekable();
        let mut vrt = lanes
            .vrt_idx
            .iter()
            .copied()
            .zip(vrt_planes)
            .filter(|&(_, plane)| plane != 0)
            .peekable();
        loop {
            // Cell indices lie below the chip density, so `u64::MAX`
            // stands for an exhausted class.
            let head = |e: Option<&(u64, u64)>| e.map_or(u64::MAX, |&(idx, _)| idx);
            let (c, p, v) = (head(certain.peek()), head(prob.peek()), head(vrt.peek()));
            let next = if c <= p && c <= v {
                certain.next()
            } else if p <= v {
                prob.next()
            } else {
                vrt.next()
            };
            let Some((idx, plane)) = next else { break };
            expand_plane(plane, idx, &mut rounds);
        }

        BatchRounds {
            rounds,
            vrt_updates,
        }
    }
}

/// The cell-major hot loop over in-band non-VRT lane range `range`: one
/// bit-plane per lane, one 53-bit draw and one integer compare per
/// (cell, round). Free function so the inline and pooled dispatch paths
/// share one body.
fn prob_planes(
    lanes: &PlanLanes,
    nonce_prefixes: &[StreamPrefix],
    range: core::ops::Range<usize>,
) -> Vec<u64> {
    let idx_lane = lanes
        .prob_idx
        .get(range.clone())
        .expect("invariant: scan ranges are within [0, len)");
    let thr_lane = lanes
        .prob_thr_u
        .get(range)
        .expect("invariant: prob lanes are index-aligned");
    let mut out = Vec::with_capacity(idx_lane.len());
    for (&idx, &thr_u) in idx_lane.iter().zip(thr_lane) {
        let mut plane = 0u64;
        // Four independent hash chains per step: one chain's ~7 serial
        // multiplies leave the multiplier idle most cycles, so the loop
        // is latency-bound without explicit interleaving.
        let mut chunks = nonce_prefixes.chunks_exact(4);
        let mut r = 0usize;
        for quad in chunks.by_ref() {
            let &[p0, p1, p2, p3] = quad else {
                unreachable!("chunks_exact(4) yields 4-element slices")
            };
            let d0 = p0.push(idx).stream().next_u64() >> 11;
            let d1 = p1.push(idx).stream().next_u64() >> 11;
            let d2 = p2.push(idx).stream().next_u64() >> 11;
            let d3 = p3.push(idx).stream().next_u64() >> 11;
            plane |= u64::from(d0 < thr_u) << r;
            plane |= u64::from(d1 < thr_u) << (r + 1);
            plane |= u64::from(d2 < thr_u) << (r + 2);
            plane |= u64::from(d3 < thr_u) << (r + 3);
            r += 4;
        }
        for np in chunks.remainder() {
            let draw = np.push(idx).stream().next_u64() >> 11;
            plane |= u64::from(draw < thr_u) << r;
            r += 1;
        }
        out.push(plane);
    }
    out
}

/// Scatters one cell's bit-plane into the per-round failure vectors.
fn expand_plane(plane: u64, idx: u64, rounds: &mut [Vec<u64>]) {
    let mut bits = plane;
    while bits != 0 {
        let r = num::idx(bits.trailing_zeros());
        rounds
            .get_mut(r)
            .expect("invariant: plane bits sit below the batch size")
            .push(idx);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::SimulatedChip;
    use crate::config::RetentionConfig;
    use crate::plan::PatternLowering;
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

    fn quick_chip() -> SimulatedChip {
        let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 16);
        SimulatedChip::new(cfg, 0xBC417)
    }

    /// The pattern every plan here is compiled for.
    fn pattern() -> DataPattern {
        DataPattern::checkerboard()
    }

    /// The plan under test, its trial context, and the candidate window
    /// the reference scan covers at the same condition.
    fn compile_pair(chip: &SimulatedChip) -> (TrialPlan, TrialCtx, usize) {
        let pattern = pattern();
        let interval = Ms::new(1024.0);
        let temp = Celsius::new(60.0);
        let low = PatternLowering::build(chip.cells(), pattern, chip.geometry());
        let plan = TrialPlan::compile(
            chip.config(),
            chip.cells(),
            chip.sort_keys_for_tests(),
            Some(&low),
            pattern,
            interval,
            temp,
        );
        let ctx = TrialCtx {
            t_secs: interval.as_secs(),
            ms_scale: chip.config().mu_temp_scale(temp),
            ss_scale: chip.config().sigma_temp_scale(temp),
            stream_base: 0xFEED_F00D,
            nonce: 0,
            now_ms: 250.0,
            low_mu_factor: chip.config().vrt_low_mu_factor,
        };
        (plan, ctx, chip.candidate_window(interval, temp))
    }

    /// Replays `nonces` through the reference scan on a copy of `chip`,
    /// merging VRT updates between rounds: the sorted failures of every
    /// round, and the copy's final VRT chain states.
    fn reference_replay(
        chip: &SimulatedChip,
        ctx: &TrialCtx,
        end: usize,
        nonces: &[u64],
    ) -> (Vec<Vec<u64>>, Vec<TwoStateVrt>) {
        let mut chip = chip.clone();
        let rounds = nonces
            .iter()
            .map(|&nonce| {
                let round_ctx = TrialCtx { nonce, ..*ctx };
                chip.reference_round_for_tests(pattern(), end, &round_ctx).0
            })
            .collect();
        (rounds, chip.base_vrt_for_tests().to_vec())
    }

    #[test]
    fn batch_matches_sequential_reference_replay() {
        let chip = quick_chip();
        let (plan, ctx, end) = compile_pair(&chip);
        let nonces: Vec<u64> = (40..47).collect();
        let batch = plan.run_rounds(chip.base_vrt_for_tests(), &ctx, &nonces);
        let (want, base_vrt) = reference_replay(&chip, &ctx, end, &nonces);
        assert_eq!(batch.rounds, want);
        // Final chain states match the merged sequential replay.
        for (slot, state) in &batch.vrt_updates {
            assert_eq!(base_vrt.get(num::idx(*slot)).expect("slot"), state);
        }
        assert_eq!(
            batch.vrt_updates.len(),
            plan.lanes.vrt_slot.len(),
            "one final state per VRT lane"
        );
    }

    #[test]
    fn batch_of_one_equals_reference_scan() {
        let mut chip = quick_chip();
        let (plan, ctx, end) = compile_pair(&chip);
        let mut batch = plan.run_rounds(chip.base_vrt_for_tests(), &ctx, &[99]);
        let round_ctx = TrialCtx { nonce: 99, ..ctx };
        let (fails, mut updates) = chip.reference_round_for_tests(pattern(), end, &round_ctx);
        assert_eq!(batch.rounds.len(), 1);
        assert_eq!(batch.rounds.pop().expect("one round"), fails);
        // Plan lanes are index-ordered, the scan walks μ order: compare
        // the chain updates slot by slot.
        updates.sort_unstable_by_key(|&(slot, _)| slot);
        batch.vrt_updates.sort_unstable_by_key(|&(slot, _)| slot);
        assert_eq!(batch.vrt_updates, updates);
    }

    #[test]
    fn full_width_batch_covers_all_64_bits() {
        let chip = quick_chip();
        let (plan, ctx, end) = compile_pair(&chip);
        let nonces: Vec<u64> = (1000..1064).collect();
        let batch = plan.run_rounds(chip.base_vrt_for_tests(), &ctx, &nonces);
        assert_eq!(batch.rounds.len(), MAX_BATCH_ROUNDS);
        // Every round, the last one (bit 63) included, against a
        // sequential reference replay.
        let (want, _) = reference_replay(&chip, &ctx, end, &nonces);
        assert_eq!(batch.rounds, want);
        assert!(!want.last().expect("64 rounds").is_empty());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn rejects_oversized_batches() {
        let chip = quick_chip();
        let (plan, ctx, _) = compile_pair(&chip);
        let nonces: Vec<u64> = (0..65).collect();
        let _ = plan.run_rounds(chip.base_vrt_for_tests(), &ctx, &nonces);
    }
}

