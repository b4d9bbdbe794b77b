//! The REAPER benchmark: four named workloads, their end-to-end metrics
//! with regression bounds, per-layer metrics from a traced run, and the
//! rule that compares two sets of runs. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare BASE.jsonl NEW.jsonl [--claim METRIC@WORKLOAD]
//! ```
//!
//! `run` starts each workload in a child process of this binary, so
//! memory and caches are per workload, prints every metric as
//! `workload metric value unit (n, q1–q3)`, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero if
//! a correctness check fails.

mod compare;
mod probes;
mod record;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use reaper_serve::json::{self, Value};

use record::Record;
use spec::Spec;
use workloads::{Ctx, Mode, Outcome, Workload, OVERHEAD};

/// Window of `--smoke` runs.
const SMOKE_SECONDS: f64 = 2.0;
/// Grace a child gets past its window before it is killed.
const CHILD_GRACE: Duration = Duration::from_secs(150);
/// Name of the probe child.
const PROBES: &str = "probes";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("child") => child(&args[1..]),
        _ => Err(
            "usage: reaper-benchmark run [--workload NAME]... [--seed N] [--seconds S] \
                  [--trace [0|1]] [--smoke] [--out PATH]\n       \
                  reaper-benchmark compare BASE NEW [--claim METRIC@WORKLOAD]"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("reaper-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}`; known: {}",
                    spec.workloads.join(", ")
                ))?;
                parsed.workloads.push(w);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.seconds = SMOKE_SECONDS,
            "--out" => parsed.out = Some(value("a path")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// `run`: one child per workload, or, traced, every workload's traced
/// quarter window plus the probes.
fn run(args: &[String]) -> Result<bool, String> {
    let spec = Spec::embedded();
    let args = parse_run(args, &spec)?;
    let multi = args.workloads.len() > 1;
    let mut records = Vec::new();
    if args.trace {
        let quarter = args.seconds / 4.0;
        for w in Workload::ALL {
            let overhead = args.workloads.contains(&w);
            records.push(spawn_child(
                w.name(),
                args.seed,
                quarter,
                Mode::Trace { overhead },
            )?);
        }
        records.push(spawn_child(
            PROBES,
            args.seed,
            quarter,
            Mode::Trace { overhead: false },
        )?);
    } else {
        for &w in &args.workloads {
            records.push(spawn_child(
                w.name(),
                args.seed,
                args.seconds,
                Mode::Measure,
            )?);
        }
    }

    let mut metrics = BTreeMap::new();
    for r in &records {
        for (name, m) in &r.metrics {
            let unit = spec.metric(name).map_or("?", |s| s.unit.as_str());
            let spread = if m.q1.is_nan() {
                String::new()
            } else {
                format!(", {:.6}–{:.6}", m.q1, m.q3)
            };
            println!(
                "{} {name} {:.6} {unit} (n={}{spread})",
                r.workload, m.value, m.n
            );
            // Per-workload metrics carry the workload's name only when
            // several workloads share the result line.
            let key = if multi && (!args.trace || name == OVERHEAD) {
                format!("{}.{name}", r.workload)
            } else {
                name.clone()
            };
            metrics.insert(
                key,
                json::obj([("value", json::num(m.value)), ("unit", json::str(unit))]),
            );
        }
    }
    let metrics_ok = check_metrics(&spec, &records, args.trace, &args.workloads);
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        for r in &records {
            writeln!(file, "{}", r.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
    }

    let correct = metrics_ok && records.iter().all(|r| r.correct);
    let line = json::obj([
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            json::uint(records.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", json::uint(records.iter().map(|r| r.failed).sum())),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.encode());
    Ok(correct)
}

/// Every run must emit exactly the registry's metrics, each with a
/// number: end-to-end per workload, per-layer across the traced children.
fn check_metrics(spec: &Spec, records: &[Record], trace: bool, selected: &[Workload]) -> bool {
    let mut problems = Vec::new();
    if trace {
        let mut emitted: Vec<&String> = records
            .iter()
            .flat_map(|r| r.metrics.keys())
            .filter(|n| *n != OVERHEAD)
            .collect();
        emitted.sort();
        let mut want: Vec<&String> = spec
            .per_layer
            .iter()
            .map(|m| &m.name)
            .filter(|n| *n != OVERHEAD)
            .collect();
        want.sort();
        if emitted != want {
            problems.push("per-layer metrics differ from BENCHMARK.json".to_string());
        }
        for w in selected {
            let has = records
                .iter()
                .any(|r| r.workload == w.name() && r.metrics.contains_key(OVERHEAD));
            if !has {
                problems.push(format!("{} reported no {OVERHEAD}", w.name()));
            }
        }
    } else {
        let mut want: Vec<&String> = spec.end_to_end.iter().map(|m| &m.name).collect();
        want.sort();
        for r in records {
            let emitted: Vec<&String> = r.metrics.keys().collect();
            if emitted != want {
                problems.push(format!(
                    "{} end-to-end metrics differ from BENCHMARK.json",
                    r.workload
                ));
            }
        }
    }
    // A value that could not be measured (too few samples for a tail, an
    // unreadable counter) would reach the result line as `null`.
    for r in records {
        for (name, m) in &r.metrics {
            if !m.value.is_finite() {
                problems.push(format!("{} measured no value for {name}", r.workload));
            }
        }
    }
    for p in &problems {
        eprintln!("reaper-benchmark: {p}");
    }
    problems.is_empty()
}

/// Runs one workload (or the probes) in a child process of this binary
/// and returns its record. Lines the child prints before its record are
/// passed through.
fn spawn_child(name: &str, seed: u64, seconds: f64, mode: Mode) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mode_arg = match mode {
        Mode::Measure => "measure",
        Mode::Trace { overhead: false } => "trace",
        Mode::Trace { overhead: true } => "trace-overhead",
    };
    let mut child = Command::new(exe)
        .args([
            "child",
            name,
            &seed.to_string(),
            &seconds.to_string(),
            mode_arg,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds) + CHILD_GRACE;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "the {name} child ran past its deadline and was stopped"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader.join().map_err(|_| "child output reader panicked")?;
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !status.success() {
        return Err(format!("the {name} child failed ({status})"));
    }
    Record::from_json(last).map_err(|e| format!("the {name} child's record: {e}"))
}

/// `child NAME SEED SECONDS MODE`: runs in the process `run` started.
fn child(args: &[String]) -> Result<bool, String> {
    let [name, seed, seconds, mode] = args else {
        return Err("child takes NAME SEED SECONDS MODE".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let seconds: f64 = seconds.parse().map_err(|_| "bad seconds")?;
    let mode = match mode.as_str() {
        "measure" => Mode::Measure,
        "trace" => Mode::Trace { overhead: false },
        "trace-overhead" => Mode::Trace { overhead: true },
        other => return Err(format!("unknown mode `{other}`")),
    };
    let workload = match name.as_str() {
        PROBES => None,
        other => Some(Workload::parse(other).ok_or(format!("unknown workload `{other}`"))?),
    };
    let ctx = Ctx {
        seed,
        seconds,
        mode,
        // The probes time single calls into each layer at one thread.
        threads: workload.map_or(1, |w| w.threads(cores())),
    };
    let Outcome { tally, metrics } = match workload {
        Some(w) => w.run(&ctx),
        None => probes::run(&ctx),
    };
    let record = Record {
        workload: name.clone(),
        seed,
        seconds,
        traced: mode != Mode::Measure,
        cores: cores(),
        threads: ctx.threads,
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    println!("{}", record.to_json());
    Ok(true)
}

/// `compare BASE NEW [--claim METRIC@WORKLOAD]`.
fn compare(args: &[String]) -> Result<bool, String> {
    let spec = Spec::embedded();
    let (files, rest) = args.split_at(args.len().min(2));
    let [base, new] = files else {
        return Err("compare takes BASE NEW [--claim METRIC@WORKLOAD]".to_string());
    };
    let claimed = match rest {
        [] => None,
        [flag, target] if flag == "--claim" => Some(
            target
                .split_once('@')
                .ok_or("--claim takes METRIC@WORKLOAD")?,
        ),
        _ => return Err("compare takes BASE NEW [--claim METRIC@WORKLOAD]".to_string()),
    };
    let load = |path: &str| -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(Record::from_json)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{path}: {e}"))
    };
    compare::run(&spec, &load(base)?, &load(new)?, claimed)
}
