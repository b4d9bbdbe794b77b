//! Error paths of the `experiments` binary: every malformed invocation
//! exits 1 with a message on stderr, before any experiment runs. An
//! unknown option in particular must not fall through to the name list,
//! where a trailing `all` would run all 20 experiments and exit 0.

// Test code may panic on failure.
#![allow(clippy::expect_used)]

use std::process::Command;

/// Runs `experiments` with `args` and asserts it failed the way a usage
/// error must: exit status 1 and something on stderr.
fn rejects(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary");
    assert_eq!(
        out.status.code(),
        Some(1),
        "`experiments {}` should exit 1; stdout:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !out.stderr.is_empty(),
        "`experiments {}` exited 1 without a message on stderr",
        args.join(" ")
    );
}

#[test]
fn usage_errors_exit_one_with_a_message() {
    rejects(&[]);
    rejects(&["--threads", "0", "headline"]);
    rejects(&["--threads=0", "headline"]);
    rejects(&["--threads"]);
    rejects(&["--threads", "x", "headline"]);
    rejects(&["no_such_experiment"]);
    rejects(&["--check", "--full", "headline"]);
    rejects(&["--shape", "--check", "all"]);
}

#[test]
fn unknown_options_are_rejected_not_ignored() {
    rejects(&["--bogus", "all"]);
    rejects(&["all", "--bogus"]);
    // `--json` is not an option (per-experiment wall time is the
    // benchmark's `bench.<exp>_ms`): a script passing it must fail loudly
    // rather than write nothing.
    rejects(&["--json", "all"]);
    rejects(&["--json=out.json", "all"]);
}
