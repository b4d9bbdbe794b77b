//! Experiment runner: regenerates any or all of the paper's tables and
//! figures, and machine-checks them against the conformance layers.
//!
//! ```text
//! experiments [--full] [--threads N] [name...]
//! experiments all                # every experiment at quick scale
//! experiments --full fig09 fig13
//! experiments --threads 4 all    # run experiments concurrently on 4 workers
//! experiments --check all        # diff tables against goldens/*.tsv
//! experiments --bless fig06      # re-record a golden after an intentional change
//! experiments --shape all        # paper-shape acceptance suite (Tier B)
//! experiments --list
//! ```
//!
//! Experiments run concurrently on the `reaper-exec` pool (thread count
//! from `--threads`, else `REAPER_THREADS`, else available parallelism),
//! but their tables are printed in selection order, and each table's
//! contents are bit-identical at any thread count — which is what makes
//! the golden-table regression of `--check` well-defined.

// The terminal is this binary's output surface: tables go to stdout (via
// a locked writer), progress and usage errors to stderr.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use reaper_bench::{all_experiments, Scale, Table};
use reaper_conformance::{all_shape_checks, bless_table, check_table, CheckOutcome};

/// Prints to stdout, ignoring a closed pipe (`experiments --list | head`
/// must not panic on EPIPE).
macro_rules! emit {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

/// One finished experiment, ready to print.
struct Completed {
    name: &'static str,
    table: Table,
    wall_ms: f64,
}

/// Printed, with exit status 1, for a missing selection or an unknown
/// option.
const USAGE: &str = "usage: experiments [--full] [--threads N] [--check|--bless|--shape] \
                     <name...|all>   (see --list)";

/// What to do with the generated tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// Print the tables (the historical behavior).
    #[default]
    Print,
    /// Diff each table against its recorded golden (Tier A).
    Check,
    /// Re-record each table as the new golden.
    Bless,
}

/// Runs the Tier B paper-shape acceptance checks selected by `names`.
fn run_shape(names: &[String], scale: Scale) -> ExitCode {
    let registry = all_shape_checks();
    let selected: Vec<_> = if names.iter().any(|n| n == "all") {
        registry
    } else {
        let mut picked = Vec::new();
        for name in names {
            match registry.iter().find(|(n, _)| n == name) {
                Some(&entry) => picked.push(entry),
                None => {
                    eprintln!("unknown shape check `{name}`; available:");
                    for (n, _) in &registry {
                        eprintln!("  {n}");
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    let start = Instant::now();
    let reports = reaper_exec::par_map(&selected, |&(_, check)| check(scale));
    let mut failed = 0usize;
    for r in &reports {
        emit!("{r}");
        if !r.passed {
            failed += 1;
        }
    }
    emit!(
        "  [{} shape check(s) in {:.1}ms, {failed} failed]",
        reports.len(),
        start.elapsed().as_secs_f64() * 1e3
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut mode = Mode::Print;
    let mut shape = false;
    let mut args_iter = args.iter().peekable();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--check" => mode = Mode::Check,
            "--bless" => mode = Mode::Bless,
            "--shape" => shape = true,
            "--threads" => {
                let Some(n) = args_iter.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
                reaper_exec::set_thread_count(Some(n));
            }
            "--list" => {
                for (name, _) in all_experiments() {
                    emit!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                if let Some(n) = other.strip_prefix("--threads=") {
                    match n.parse::<usize>() {
                        Ok(n) if n > 0 => reaper_exec::set_thread_count(Some(n)),
                        _ => {
                            eprintln!("--threads needs a positive integer");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if other.starts_with("--") {
                    // An unknown option must not fall through to the name
                    // list, where a trailing `all` would run everything.
                    eprintln!("unknown option `{other}`");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                } else {
                    names.push(other.to_string());
                }
            }
        }
    }
    if names.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if shape {
        if mode != Mode::Print {
            eprintln!("--shape cannot be combined with --check/--bless");
            return ExitCode::FAILURE;
        }
        return run_shape(&names, scale);
    }
    if mode != Mode::Print && scale != Scale::Quick {
        // Goldens pin the Quick-scale pinned-seed configuration; Full runs
        // are for reading, not regression pinning.
        eprintln!("goldens are recorded at Quick scale; drop --full for --check/--bless");
        return ExitCode::FAILURE;
    }

    let registry = all_experiments();
    let selected: Vec<_> = if names.iter().any(|n| n == "all") {
        registry
    } else {
        let mut picked = Vec::new();
        for name in &names {
            match registry.iter().find(|(n, _)| n == name) {
                Some(&entry) => picked.push(entry),
                None => {
                    eprintln!("unknown experiment `{name}` (see --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    let threads = reaper_exec::thread_count();
    let start_all = Instant::now();
    // Run the selected experiments concurrently; par_map returns results
    // in selection order, so the printed report is stable regardless of
    // completion order. Experiments fan their per-chip loops out through
    // nested scoped `par_map` calls, which spawn their own threads, so
    // nesting cannot deadlock and costs at worst mild oversubscription.
    let results: Vec<Completed> = reaper_exec::par_map(&selected, |&(name, runner)| {
        let start = Instant::now();
        let table = runner(scale);
        Completed {
            name,
            table,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    });
    let total_ms = start_all.elapsed().as_secs_f64() * 1e3;

    match mode {
        Mode::Print => {
            for r in &results {
                emit!("{}", r.table);
                emit!(
                    "  [{} completed in {:.1}ms at {scale:?} scale]\n",
                    r.name, r.wall_ms
                );
            }
        }
        Mode::Check => {
            let mut failed = 0usize;
            for r in &results {
                match check_table(r.name, &r.table) {
                    CheckOutcome::Match => {
                        emit!("check {:<16} OK ({:.1}ms)", r.name, r.wall_ms);
                    }
                    CheckOutcome::MissingGolden(path) => {
                        failed += 1;
                        emit!(
                            "check {:<16} MISSING golden {} — record it with `experiments --bless {}`",
                            r.name,
                            path.display(),
                            r.name
                        );
                    }
                    CheckOutcome::CorruptGolden(e) => {
                        failed += 1;
                        emit!("check {:<16} CORRUPT golden: {e}", r.name);
                    }
                    CheckOutcome::Mismatch(diffs) => {
                        failed += 1;
                        emit!("check {:<16} FAILED ({} mismatch(es)):", r.name, diffs.len());
                        for d in diffs.iter().take(20) {
                            emit!("    {d}");
                        }
                        if diffs.len() > 20 {
                            emit!("    ... and {} more", diffs.len() - 20);
                        }
                        emit!(
                            "    (intentional model change? re-record with `experiments --bless {}`)",
                            r.name
                        );
                    }
                }
            }
            emit!(
                "  [{} golden check(s) in {total_ms:.1}ms, {failed} failed]",
                results.len()
            );
            if failed > 0 {
                return ExitCode::FAILURE;
            }
        }
        Mode::Bless => {
            for r in &results {
                match bless_table(r.name, &r.table) {
                    Ok(path) => {
                        emit!("bless {:<16} -> {}", r.name, path.display());
                    }
                    Err(e) => {
                        eprintln!("bless {}: {e}", r.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    emit!(
        "  [{} experiment(s) in {:.1}ms wall, {threads} thread(s)]",
        results.len(),
        total_ms
    );
    ExitCode::SUCCESS
}
