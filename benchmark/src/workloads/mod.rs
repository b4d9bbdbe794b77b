//! The four named workloads and the set-up / window / check flow they
//! share.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::record::Measured;
use crate::stats::Samples;
use crate::trace::{self, Tracer};

pub mod fleet;
pub mod repro;
pub mod service;

/// End-to-end metrics every workload reports from its untraced run, in
/// `BENCHMARK.json` order. What "one operation" is differs by workload:
/// a pass over the experiments, a job, or a request.
pub const END_TO_END: [&str; 3] = ["setup_s", "latency_p50_ms", "peak_rss_mb"];

/// Per-layer metric reported by the workload whose untraced and traced
/// windows were both run.
pub const OVERHEAD: &str = "trace.overhead_frac";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReproDrift,
    ReproStatic,
    ServiceJobs,
    FleetMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReproDrift,
        Workload::ReproStatic,
        Workload::ServiceJobs,
        Workload::FleetMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproDrift => "repro_drift",
            Workload::ReproStatic => "repro_static",
            Workload::ServiceJobs => "service_jobs",
            Workload::FleetMixed => "fleet_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load threads and `reaper_exec` workers on a host with `cores`.
    /// The reproduction runs at one thread, the setting ROADMAP item 2
    /// states its target at; on a 2-vCPU host, two threads made a pass
    /// about 25% slower and doubled its run-to-run spread.
    pub fn threads(self, cores: usize) -> usize {
        match self {
            Workload::ReproDrift | Workload::ReproStatic => 1,
            Workload::ServiceJobs | Workload::FleetMixed => cores,
        }
    }

    /// Per-layer metrics this workload's traced window produces.
    #[cfg(test)]
    pub fn per_layer(self) -> Vec<String> {
        let fixed = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        match self {
            Workload::ReproDrift => repro::per_layer(true),
            Workload::ReproStatic => repro::per_layer(false),
            Workload::ServiceJobs => fixed(&service::PER_LAYER),
            Workload::FleetMixed => fixed(&fleet::PER_LAYER),
        }
    }

    pub fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::ReproDrift | Workload::ReproStatic => drive::<repro::Repro>(self, ctx),
            Workload::ServiceJobs => drive::<service::Service>(self, ctx),
            Workload::FleetMixed => drive::<fleet::FleetRun>(self, ctx),
        }
    }
}

/// How a child process runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: repeated set-up, one window, end-to-end metrics.
    Measure,
    /// One set-up, an untraced window first when `overhead` is set, then
    /// a traced window and per-layer metrics.
    Trace { overhead: bool },
}

#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    /// Load threads and `reaper_exec` workers ([`Workload::threads`]).
    pub threads: usize,
}

/// Operations and correctness checks of one run.
#[derive(Debug, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Tally {
    /// Counts one operation; a failed one is retryable load, not a wrong
    /// output.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one correctness check; a failure marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.correct = false;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
    }
}

/// What a child process hands back.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, Measured>,
}

/// A workload with its system under test set up.
pub trait Session: Sized {
    type Window;

    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;

    /// Everything before the timed window: start servers, warm jobs,
    /// load goldens.
    fn setup(workload: Workload, ctx: &Ctx, tally: &mut Tally) -> Self;

    /// Shuts down a set-up made only to time it.
    fn discard(self);

    /// Runs the timed window for `seconds`.
    fn window(&mut self, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Self::Window;

    /// Median latency of the window's operations, in milliseconds.
    fn latency_ms(window: &Self::Window) -> Measured;

    /// Per-layer metrics of a traced window; may run traced probes.
    fn per_layer(
        &mut self,
        window: &Self::Window,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Vec<(String, Measured)>;

    /// Correctness checks after the window, then shutdown.
    fn finish(self, tally: &mut Tally);
}

fn drive<S: Session>(workload: Workload, ctx: &Ctx) -> Outcome {
    reaper_exec::set_thread_count(Some(ctx.threads));
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    match ctx.mode {
        Mode::Measure => {
            let mut setups = Samples::default();
            let mut session = None;
            for _ in 0..S::SETUP_REPS {
                if let Some(old) = session.take() {
                    S::discard(old);
                }
                let t0 = Instant::now();
                session = Some(S::setup(workload, ctx, &mut tally));
                setups.push(t0.elapsed().as_secs_f64());
            }
            let mut session = session.expect("at least one set-up ran");
            let window = session.window(ctx.seconds, &mut Tracer::new(false), &mut tally);
            session.finish(&mut tally);
            let values = [
                Measured::median(&setups),
                S::latency_ms(&window),
                Measured::derived(peak_rss_mb(), 1),
            ];
            metrics.extend(END_TO_END.iter().map(|n| n.to_string()).zip(values));
        }
        Mode::Trace { overhead } => {
            let mut session = S::setup(workload, ctx, &mut tally);
            let untraced =
                overhead.then(|| session.window(ctx.seconds, &mut Tracer::new(false), &mut tally));
            let mut tr = Tracer::new(true);
            let window = session.window(ctx.seconds, &mut tr, &mut tally);
            metrics.extend(session.per_layer(&window, &mut tr, &mut tally));
            session.finish(&mut tally);
            if let Some(base) = untraced {
                // Same work with and without spans. Median latency rather
                // than throughput: the service's closed loop is too short
                // in a quarter window to compare rates.
                let (traced, plain) = (S::latency_ms(&window), S::latency_ms(&base));
                metrics.insert(
                    OVERHEAD.to_string(),
                    Measured::derived(traced.value / plain.value - 1.0, traced.n + plain.n),
                );
            }
            finish_trace(workload.name(), &tr);
        }
    }
    Outcome { tally, metrics }
}

/// Writes `target/benchmark/trace/<name>.json` and prints each layer's
/// self time.
pub fn finish_trace(name: &str, tr: &Tracer) {
    let path = Path::new("target/benchmark/trace").join(format!("{name}.json"));
    if let Err(e) = trace::write(&path, name, tr.spans()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!(
        "{name} trace: {} spans -> {}",
        tr.spans().len(),
        path.display()
    );
    for (layer, (self_ms, spans)) in trace::layer_self_ms(tr.spans()) {
        println!("{name} self_time {layer:<12} {self_ms:>12.3} ms  ({spans} spans)");
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The `i`-th draw of the stream `domain` under `seed`.
pub fn draw(seed: u64, domain: u64, i: u64) -> u64 {
    reaper_exec::rng::stream(&[seed, domain, i]).next_u64()
}

/// Puts `items` in the order the draw stream `key` picks.
pub fn shuffle<T>(items: &mut [T], key: &[u64]) {
    let mut draws = reaper_exec::rng::stream(key);
    for i in (1..items.len()).rev() {
        let j = (draws.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}
