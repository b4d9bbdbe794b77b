//! Microbenchmark for the retention-trial hot path at 1 and 4 worker
//! threads, one row per way a trial runs:
//!
//! * `reference` — `retention_trial_reference`, the window scan without a
//!   lowering;
//! * `single` — `retention_trial` on a cached plan: the bit-plane kernel
//!   as a batch of one;
//! * `rounds` — `retention_trial_rounds`: the kernel in 64-round batches.
//!
//! ```text
//! trial_bench [--smoke] [--json[=PATH]] [--rounds N] [--gate]
//! trial_bench                    # full-capacity run, writes BENCH_trial.json
//! trial_bench --smoke            # small chip, few rounds, equality check only
//! trial_bench --gate             # also fail if 4 threads < 1 thread on the
//!                                # single or rounds row (best-of-2 timing)
//! ```
//!
//! Every configuration replays the *same* round script on a fresh chip
//! (warmup rounds, timed rounds, a mid-script `advance` that evolves VRT
//! chains and lands arrivals under the cached plan, then post-advance
//! rounds), and the benchmark asserts all transcripts are byte-identical
//! to the single-thread reference before reporting any number — a
//! throughput figure from a diverging path would be meaningless. Timing
//! covers only the steady-state timed rounds, so the one-time plan
//! compile (on the second warmup trial) is excluded, matching how the
//! plan cache amortizes it across iteration loops.

// The terminal is this binary's output surface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use reaper_bench::util::dram_temp;
use reaper_dram_model::{Celsius, DataPattern, Ms, Vendor};
use reaper_retention::{RetentionConfig, SimulatedChip};

/// Prints to stdout, ignoring a closed pipe (`trial_bench | head` must
/// not panic on EPIPE).
macro_rules! emit {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

/// The representative Vendor B chip (same seed the figure harnesses use).
const B_CHIP_SEED: u64 = 0xBC417;
/// Warmup rounds before the timer starts: a condition's second sighting
/// compiles its plan, so the kernel rows pay the compile outside the
/// timed region.
const WARMUP_ROUNDS: u64 = 2;
/// Rounds run after the mid-script `advance`, checking that the cached
/// plan stays bit-identical across a clock step (never timed).
const POST_ADVANCE_ROUNDS: u64 = 2;

struct Config {
    smoke: bool,
    json_path: Option<String>,
    rounds: u64,
    gate: bool,
}

/// One way of running the script's trials; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Reference,
    Single,
    Rounds,
}

impl Path {
    const ALL: [Self; 3] = [Self::Reference, Self::Single, Self::Rounds];

    fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Single => "single",
            Self::Rounds => "rounds",
        }
    }
}

struct Measurement {
    path: Path,
    threads: usize,
    wall_ms: f64,
    rounds_per_sec: f64,
    transcript: Vec<Vec<u64>>,
    plans_compiled: u64,
    invalidations: u64,
    batch_rounds: u64,
}

/// Runs the full round script for one (path, threads) configuration on a
/// fresh chip and returns timing plus the complete outcome transcript.
fn run_config(cfg: &RetentionConfig, path: Path, threads: usize, rounds: u64) -> Measurement {
    let pattern = DataPattern::checkerboard();
    let interval = Ms::new(1024.0);
    let temp = dram_temp(Celsius::new(45.0));

    reaper_exec::set_thread_count(Some(threads));
    let mut chip = SimulatedChip::new(cfg.clone(), B_CHIP_SEED);
    let mut transcript = Vec::new();
    let trial = |chip: &mut SimulatedChip| {
        if path == Path::Reference {
            chip.retention_trial_reference(pattern, interval, temp)
        } else {
            chip.retention_trial(pattern, interval, temp)
        }
    };

    for _ in 0..WARMUP_ROUNDS {
        transcript.push(trial(&mut chip).into_vec());
    }
    let start = Instant::now();
    if path == Path::Rounds {
        // All timed rounds submitted at once, evaluated in 64-round
        // bit-plane passes.
        let n = reaper_exec::num::u64_to_u32(rounds);
        for outcome in chip.retention_trial_rounds(pattern, interval, temp, n) {
            transcript.push(outcome.into_vec());
        }
    } else {
        for _ in 0..rounds {
            transcript.push(trial(&mut chip).into_vec());
        }
    }
    let wall = start.elapsed();
    // Advance device time (VRT evolution + arrivals) under the cached
    // plan, then keep trialing. Untimed, but part of the equality
    // transcript.
    chip.advance(Ms::from_hours(1.0));
    for _ in 0..POST_ADVANCE_ROUNDS {
        transcript.push(trial(&mut chip).into_vec());
    }

    let wall_ms = wall.as_secs_f64() * 1e3;
    let stats = chip.plan_stats();
    Measurement {
        path,
        threads,
        wall_ms,
        rounds_per_sec: rounds as f64 / wall.as_secs_f64().max(1e-9),
        transcript,
        plans_compiled: stats.plans_compiled,
        invalidations: stats.invalidations,
        batch_rounds: stats.batch_rounds,
    }
}

fn json_report(cfg_label: &str, window: usize, rounds: u64, runs: &[Measurement]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"config\": \"{cfg_label}\",\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str("  \"pattern\": \"checkerboard\",\n");
    out.push_str("  \"interval_ms\": 1024.0,\n");
    out.push_str("  \"dram_temp_c\": 60.0,\n");
    out.push_str(&format!("  \"candidate_window_cells\": {window},\n"));
    out.push_str(&format!("  \"timed_rounds\": {rounds},\n"));
    let single_thread = |path: Path| {
        runs.iter()
            .find(|m| m.path == path && m.threads == 1)
            .map_or(0.0, |m| m.rounds_per_sec)
    };
    let reference = single_thread(Path::Reference);
    let single = single_thread(Path::Single);
    let batched = single_thread(Path::Rounds);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.push_str(&format!(
        "  \"single_speedup_vs_reference\": {:.2},\n",
        ratio(single, reference)
    ));
    out.push_str(&format!(
        "  \"rounds_speedup_vs_reference\": {:.2},\n",
        ratio(batched, reference)
    ));
    out.push_str(&format!(
        "  \"rounds_speedup_vs_single\": {:.2},\n",
        ratio(batched, single)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"rounds_per_sec\": {:.2}, \"plans_compiled\": {}, \"invalidations\": {}, \"batch_rounds\": {}}}{sep}\n",
            m.path.name(),
            m.threads,
            m.wall_ms,
            m.rounds_per_sec,
            m.plans_compiled,
            m.invalidations,
            m.batch_rounds,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config { smoke: false, json_path: None, rounds: 0, gate: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            cfg.smoke = true;
        } else if arg == "--gate" {
            cfg.gate = true;
        } else if arg == "--json" {
            cfg.json_path = Some("BENCH_trial.json".to_string());
        } else if let Some(path) = arg.strip_prefix("--json=") {
            cfg.json_path = Some(path.to_string());
        } else if arg == "--rounds" {
            let n = args.next().ok_or("--rounds needs a value")?;
            cfg.rounds = n.parse().map_err(|_| format!("bad --rounds value: {n}"))?;
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    if cfg.rounds == 0 {
        // Full mode times four full 64-round batches: long enough that the
        // 4t-vs-1t gate ratio is not at the mercy of a ~3 ms timed region.
        cfg.rounds = if cfg.smoke { 12 } else { 256 };
    }
    if !cfg.smoke && cfg.json_path.is_none() {
        cfg.json_path = Some("BENCH_trial.json".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("trial_bench: {msg}");
            eprintln!("usage: trial_bench [--smoke] [--json[=PATH]] [--rounds N] [--gate]");
            return ExitCode::FAILURE;
        }
    };

    // Full mode uses the unscaled Vendor B chip (the acceptance target);
    // smoke keeps CI fast with a 1/8-capacity device.
    let (chip_cfg, cfg_label) = if cfg.smoke {
        (
            RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 8),
            "vendor B, 1/8 capacity (smoke)",
        )
    } else {
        (RetentionConfig::for_vendor(Vendor::B), "vendor B, full capacity")
    };

    let window = SimulatedChip::new(chip_cfg.clone(), B_CHIP_SEED)
        .candidate_window(Ms::new(1024.0), dram_temp(Celsius::new(45.0)));
    emit!(
        "trial_bench: {} — checkerboard @ 1024ms / 60°C, {} candidate cells, {} timed rounds",
        cfg_label,
        window,
        cfg.rounds
    );

    let mut runs = Vec::new();
    for path in Path::ALL {
        for threads in [1usize, 4] {
            let mut m = run_config(&chip_cfg, path, threads, cfg.rounds);
            if cfg.gate {
                // Best-of-2: gate mode compares thread counts, so shave
                // one-off noise (page faults, pool spin-up) off each
                // configuration. Transcripts are deterministic, so either
                // run's copy is the same — keep the faster timing.
                let again = run_config(&chip_cfg, path, threads, cfg.rounds);
                if again.rounds_per_sec > m.rounds_per_sec {
                    m = again;
                }
            }
            emit!(
                "  {:>9}, {} thread(s): {:>9.1} rounds/sec  ({:.1} ms, {} plan(s) compiled, {} invalidation(s))",
                m.path.name(),
                m.threads,
                m.rounds_per_sec,
                m.wall_ms,
                m.plans_compiled,
                m.invalidations
            );
            runs.push(m);
        }
    }
    reaper_exec::set_thread_count(None);

    // Equality gate: every configuration must produce the exact transcript
    // the single-thread reference did.
    let Some((reference_run, rest)) = runs.split_first() else {
        eprintln!("trial_bench: no configurations ran");
        return ExitCode::FAILURE;
    };
    for m in rest {
        if m.transcript != reference_run.transcript {
            eprintln!(
                "trial_bench: MISMATCH — {} at {} thread(s) diverged from the reference",
                m.path.name(),
                m.threads
            );
            return ExitCode::FAILURE;
        }
    }
    emit!(
        "  equality: all {} configurations byte-identical across {} rounds each",
        runs.len(),
        reference_run.transcript.len()
    );

    if cfg.gate {
        // Thread-scaling gate: regression guard for the per-call
        // thread::scope spawn storm that once made 4 threads ~3× *slower*
        // than 1 on compiled plans. The pool clamps its width to physical
        // parallelism, so on a single-core runner 4t runs the same inline
        // code as 1t; the tolerance absorbs residual timer noise.
        const GATE_TOLERANCE: f64 = 0.95;
        for path in [Path::Single, Path::Rounds] {
            let at = |threads: usize| {
                runs.iter()
                    .find(|m| m.path == path && m.threads == threads)
                    .map_or(0.0, |m| m.rounds_per_sec)
            };
            let (one, four) = (at(1), at(4));
            if four < one * GATE_TOLERANCE {
                eprintln!(
                    "trial_bench: GATE FAILURE — {}: 4 threads ({four:.1} rounds/sec) \
                     is below 1 thread ({one:.1} rounds/sec) × {GATE_TOLERANCE}",
                    path.name()
                );
                return ExitCode::FAILURE;
            }
            emit!(
                "  gate: {} 4t/1t ratio {:.2} (>= {GATE_TOLERANCE})",
                path.name(),
                four / one.max(1e-9)
            );
        }
    }

    let report = json_report(cfg_label, window, cfg.rounds, &runs);
    if let Some(path) = &cfg.json_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("trial_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        emit!("  wrote {path}");
    }
    ExitCode::SUCCESS
}
