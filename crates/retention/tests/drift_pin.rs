//! Byte-identity pin for the drift path: trials on a chip whose clock
//! keeps moving, so VRT arrivals pile up and expire between trials.
//!
//! The digest below was recorded from the implementation before VRT
//! arrival failures were emitted in cell-index order, before the plan
//! cache was sized to one standard-set cycle, and before fig04 unioned
//! each step. Those changes are meant to be output-identical by
//! construction; this test pins the exact bytes of an arrival-heavy run
//! (a full-capacity Vendor B chip at 3,072 ms, tens of thousands of
//! active arrivals by the end):
//!
//! * single trials on both routes of `retention_trial` — the window scan
//!   (one-shot random patterns, jittered temperatures) and the kernel on
//!   compiled plans (the fixed patterns, from their second sighting on);
//! * a `retention_trial_schedule` per clock step, which replays the
//!   arrival draws after its kernel batches;
//! * the active arrival count after every step and the final routing
//!   counters. The outcomes and arrival counts have a digest of their own,
//!   recorded before the lowerings became window-bounded; the full digest
//!   adds the counters. The run touches 13 exact conditions, fewer than the plan
//!   cache holds, so no plan is ever evicted and the counters do not
//!   depend on the cache size.
//!
//! A second test pins an arrival-stress script on a half-capacity chip,
//! recorded before the arrival store was rebuilt around a shared
//! observation clock and a same-clock replay list: clock advances of
//! zero, of under a millisecond and of many hours; temperature and
//! interval changes between trials at one clock; a trial schedule per
//! step plus a pre-cancelled one on a clone; and the worst-case failing
//! set and the active arrival count after every step.
//!
//! A digest change means trial outcomes on the drift path changed: fig03,
//! fig04 and fig05 move with them.

use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_exec::cancel::CancelToken;
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip, TrialOutcome};

/// FNV-1a over 64-bit words: a self-contained digest, so the pin does not
/// move if a workspace hash helper changes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &TrialOutcome) {
        self.word(out.len() as u64);
        for &i in out.failures() {
            self.word(i);
        }
    }

    fn stats(&mut self, s: &PlanStats) {
        for w in [
            s.scalar_trials,
            s.lowered_trials,
            s.plan_trials,
            s.batch_rounds,
            s.lowerings_built,
            s.plans_compiled,
            s.invalidations,
        ] {
            self.word(w);
        }
    }
}

#[test]
fn drift_transcript_matches_the_recorded_digest() {
    let interval = Ms::new(3072.0);
    let temp = Celsius::new(60.0);
    let mut chip = SimulatedChip::new(RetentionConfig::for_vendor(Vendor::B), 0xD21F_7000);
    let mut h = Fnv::new();
    let (mut trials, mut peak_arrivals) = (0u64, 0usize);
    for step in 0..6u64 {
        chip.advance(Ms::from_hours(8.0));
        // Four fixed families and one of two walking phases, both
        // polarities: from the second step on, each recurs at `temp` and
        // runs on a compiled plan.
        let fixed = [
            DataPattern::solid0(),
            DataPattern::checkerboard(),
            DataPattern::row_stripe(),
            DataPattern::col_stripe(),
            DataPattern::walking1(step % 2),
        ];
        for p in fixed.iter().flat_map(|&p| [p, p.inverse()]) {
            h.outcome(&chip.retention_trial(p, interval, temp));
            trials += 1;
        }
        // One-shot conditions run the window scan: a fresh random pattern
        // (no lowering) and a jittered temperature (a lowered scan once
        // the pattern has been seen twice).
        let random = DataPattern::random(0xD21F ^ step);
        for (p, t) in [
            (random, temp),
            (random.inverse(), temp),
            (DataPattern::checkerboard(), Celsius::new(60.0 + 0.01 * (step as f64 + 1.0))),
        ] {
            h.outcome(&chip.retention_trial(p, interval, t));
            trials += 1;
        }
        // A schedule at the same clock: kernel batches at two conditions,
        // then the arrival replay in schedule order.
        let schedule = [
            (DataPattern::checkerboard(), interval, temp),
            (DataPattern::row_stripe(), Ms::new(2048.0), temp),
            (DataPattern::checkerboard(), interval, temp),
            (DataPattern::row_stripe(), Ms::new(2048.0), temp),
            (DataPattern::checkerboard(), interval, temp),
        ];
        let run = chip.retention_trial_schedule(&schedule, &CancelToken::new());
        assert!(!run.cancelled);
        for out in &run.outcomes {
            h.outcome(out);
            trials += 1;
        }
        h.word(chip.arrival_count() as u64);
        peak_arrivals = peak_arrivals.max(chip.arrival_count());
    }
    // Outcomes and arrival counts alone: a change to how trials are
    // routed moves the counters hashed next, never this digest.
    let outcomes = h.0;
    let stats = chip.plan_stats();
    h.stats(&stats);
    assert!(stats.scalar_trials > 0 && stats.lowered_trials > 0 && stats.plan_trials > 0);
    assert!(peak_arrivals > 10_000, "the run must be arrival-heavy: {peak_arrivals}");
    assert_eq!((trials, outcomes), (108, 0xbccd_b80e_0f2e_8da4));
    assert_eq!(h.0, 0xc502_4d72_5f3b_8516);
}

#[test]
fn arrival_stress_transcript_matches_the_recorded_digest() {
    const HOUR: f64 = 3.6e6;
    let interval = Ms::new(3072.0);
    let temp = Celsius::new(60.0);
    let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 2);
    let mut chip = SimulatedChip::new(cfg, 0xA221_7000);
    let mut h = Fnv::new();
    let (mut trials, mut peak_arrivals) = (0u64, 0usize);
    let advances_ms = [
        0.0,
        8.0 * HOUR,
        0.0,
        0.4,
        3.0 * HOUR,
        0.25,
        0.0,
        20.0 * HOUR,
        0.9,
        6.0 * HOUR,
        0.0,
        14.0 * HOUR,
    ];
    for (step, &dt) in advances_ms.iter().enumerate() {
        chip.advance(Ms::new(dt));
        let step = step as u64;
        let checkerboard = DataPattern::checkerboard();
        // Rounds at one clock and one condition, then a temperature change
        // and an interval change at the same clock, then back.
        let single = [
            (checkerboard, interval, temp),
            (checkerboard.inverse(), interval, temp),
            (DataPattern::row_stripe(), interval, temp),
            (checkerboard, interval, Celsius::new(63.0)),
            (DataPattern::solid0(), interval, temp),
            (DataPattern::random(0xA221 ^ step), Ms::new(2048.0), temp),
            (DataPattern::solid1(), interval, temp),
        ];
        for (p, i, t) in single {
            h.outcome(&chip.retention_trial(p, i, t));
            trials += 1;
        }
        // A schedule at the same clock across three conditions. It ends
        // at the condition the next step starts with, so a replay that
        // outlived a clock advance would show.
        let schedule = [
            (checkerboard, interval, temp),
            (DataPattern::row_stripe(), Ms::new(2048.0), Celsius::new(57.0)),
            (DataPattern::solid1(), Ms::new(4096.0), temp),
            (checkerboard, interval, temp),
        ];
        let run = chip.retention_trial_schedule(&schedule, &CancelToken::new());
        assert!(!run.cancelled);
        for out in &run.outcomes {
            h.outcome(out);
            trials += 1;
        }
        // A clone a little later on the clock: a pre-cancelled schedule
        // draws its arrivals and runs no round, so the clone's next trial
        // meets them fresh. The original chip must not see any of it.
        let mut clone = chip.clone();
        clone.advance(Ms::from_hours(1.0));
        let token = CancelToken::new();
        token.cancel();
        let cancelled = clone.retention_trial_schedule(&schedule, &token);
        assert!(cancelled.cancelled && cancelled.outcomes.is_empty());
        h.word(clone.arrival_count() as u64);
        for t in [temp, Celsius::new(61.0)] {
            h.outcome(&clone.retention_trial(checkerboard, interval, t));
        }
        // Ground truth and the active arrival count.
        let truth = chip.failing_set_worst_case(interval, temp, 0.5);
        h.word(truth.len() as u64);
        for &i in &truth {
            h.word(i);
        }
        h.word(chip.arrival_count() as u64);
        peak_arrivals = peak_arrivals.max(chip.arrival_count());
    }
    assert!(peak_arrivals > 10_000, "the run must be arrival-heavy: {peak_arrivals}");
    assert_eq!((trials, h.0), (132, 0xaec4_9d3f_d9c8_e979));
}
