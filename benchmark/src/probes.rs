//! Direct calls into the retention, core and portfolio layers, timed
//! from outside: the per-layer numbers no workload window isolates.

use std::collections::BTreeMap;
use std::time::Instant;

use reaper_bench::util::dram_temp;
use reaper_core::FailureProfile;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{PlanStats, RetentionConfig, SimulatedChip};
use reaper_serve::JobRequest;

use crate::record::Measured;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workloads::service::{slot, Slot};
use crate::workloads::{finish_trace, us_since, Ctx, Outcome, Tally};

pub const PER_LAYER: [&str; 15] = [
    "retention.warm_trial_us",
    "retention.drift_trial_us",
    "retention.advance_us",
    "retention.scalar_trials",
    "retention.lowered_trials",
    "retention.plan_trials",
    "retention.plans_compiled",
    "retention.invalidations",
    "retention.plan_hit_frac",
    "retention.batch_rounds_per_s",
    "core.execute_ms",
    "portfolio.race_ms",
    "portfolio.cancelled_lanes",
    "core.encode_us",
    "core.decode_us",
];

/// fig04's Quick cell at 2048 ms: its chip seed, iteration counts and
/// the 96 h measurement window split into 8 h steps.
const FIG04_SEED: u64 = 0xF164 + 2;
const ITERATIONS: u64 = 12;
const STEP_HOURS: f64 = 8.0;
/// Rounds of the fixed-condition batch-kernel probe.
const BATCH_ROUNDS: u32 = 1024;
/// Leading `service_jobs` requests replayed by the core probe.
const CORE_REQUESTS: u64 = 64;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    reaper_exec::set_thread_count(Some(ctx.threads));
    metrics.extend(retention(&mut tr));
    metrics.extend(core(ctx.seed, &mut tr, &mut tally));
    finish_trace("probes", &tr);
    Outcome { tally, metrics }
}

/// Replays fig04's cell through `SimulatedChip`: 12 warm-up iterations
/// of the standard pattern set, then 12 that each follow an 8 h
/// `advance`, counting how each post-advance trial was served.
fn retention(tr: &mut Tracer) -> Vec<(String, Measured)> {
    let cfg = RetentionConfig::for_vendor(Vendor::B);
    let interval = Ms::from_secs(2.048);
    let temp = dram_temp(Celsius::new(45.0));
    let mut chip = SimulatedChip::new(cfg.clone(), FIG04_SEED);
    let (mut warm_us, mut drift_us, mut advance_us) =
        (Samples::default(), Samples::default(), Samples::default());
    let trial = |chip: &mut SimulatedChip, it: u64, tr: &mut Tracer, out: &mut Samples| {
        for p in DataPattern::standard_set(it) {
            let t0 = Instant::now();
            tr.span("retention_trial", "retention", |_| {
                chip.retention_trial(p, interval, temp)
            });
            out.push(us_since(t0));
        }
    };
    for it in 0..ITERATIONS {
        trial(&mut chip, it, tr, &mut warm_us);
    }
    let before = chip.plan_stats();
    for it in 0..ITERATIONS {
        let t0 = Instant::now();
        tr.span("advance", "retention", |_| {
            chip.advance(Ms::from_hours(STEP_HOURS))
        });
        advance_us.push(us_since(t0));
        trial(&mut chip, ITERATIONS + it, tr, &mut drift_us);
    }
    let drift = stats_since(&before, &chip.plan_stats());
    let trials = drift.scalar_trials + drift.lowered_trials + drift.plan_trials;
    let count = |v: u64| Measured::derived(v as f64, trials as usize);

    let mut fixed = SimulatedChip::new(cfg, FIG04_SEED);
    let pattern = DataPattern::checkerboard();
    // One warm call compiles the plan outside the timed region.
    fixed.retention_trial_rounds(pattern, interval, temp, 1);
    let t0 = Instant::now();
    tr.span("retention_trial_rounds", "retention", |_| {
        fixed.retention_trial_rounds(pattern, interval, temp, BATCH_ROUNDS)
    });
    let rounds_per_s = f64::from(BATCH_ROUNDS) / t0.elapsed().as_secs_f64();

    let values = [
        Measured::median(&warm_us),
        Measured::median(&drift_us),
        Measured::median(&advance_us),
        count(drift.scalar_trials),
        count(drift.lowered_trials),
        count(drift.plan_trials),
        count(drift.plans_compiled),
        count(drift.invalidations),
        Measured::derived(drift.plan_trials as f64 / trials as f64, trials as usize),
        Measured::derived(rounds_per_s, BATCH_ROUNDS as usize),
    ];
    PER_LAYER[..10]
        .iter()
        .map(|n| n.to_string())
        .zip(values)
        .collect()
}

fn stats_since(before: &PlanStats, after: &PlanStats) -> PlanStats {
    PlanStats {
        scalar_trials: after.scalar_trials - before.scalar_trials,
        lowered_trials: after.lowered_trials - before.lowered_trials,
        plan_trials: after.plan_trials - before.plan_trials,
        batch_rounds: after.batch_rounds - before.batch_rounds,
        lowerings_built: after.lowerings_built - before.lowerings_built,
        plans_compiled: after.plans_compiled - before.plans_compiled,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// Executes the leading `service_jobs` requests directly at one thread,
/// and round-trips each profile through the RPF1 codec.
fn core(seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Vec<(String, Measured)> {
    let (mut execute_ms, mut race_ms) = (Samples::default(), Samples::default());
    let (mut encode_us, mut decode_us) = (Samples::default(), Samples::default());
    let mut cancelled = 0usize;
    for k in 0..CORE_REQUESTS {
        // Resubmits repeat an earlier job: nothing new to execute.
        let Slot::Job(request) = slot(seed, k) else {
            continue;
        };
        let t0 = Instant::now();
        let profile = match &request {
            JobRequest::Profiling(r) => {
                let outcome = tr.span("execute", "core", |_| r.execute());
                execute_ms.push(us_since(t0) / 1e3);
                outcome.map(|o| o.run.profile)
            }
            JobRequest::Portfolio(r) => {
                let outcome = tr.span("race", "portfolio", |_| r.execute());
                race_ms.push(us_since(t0) / 1e3);
                outcome.map(|(race, o)| {
                    cancelled += race.cancelled_lanes();
                    o.run.profile
                })
            }
        };
        let Ok(profile) = profile else {
            tally.check(false, || format!("request {k} does not execute"));
            continue;
        };
        let t0 = Instant::now();
        let bytes = tr.span("encode", "core", |_| profile.to_bytes());
        encode_us.push(us_since(t0));
        let t0 = Instant::now();
        let back = tr.span("decode", "core", |_| FailureProfile::from_bytes(&bytes));
        decode_us.push(us_since(t0));
        tally.check(back.as_ref() == Ok(&profile), || {
            format!("request {k}: profile does not survive the RPF1 round trip")
        });
    }
    let values = [
        Measured::median(&execute_ms),
        Measured::median(&race_ms),
        Measured::derived(cancelled as f64 / race_ms.len() as f64, race_ms.len()),
        Measured::median(&encode_us),
        Measured::median(&decode_us),
    ];
    PER_LAYER[10..]
        .iter()
        .map(|n| n.to_string())
        .zip(values)
        .collect()
}
