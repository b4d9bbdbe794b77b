//! Fixture regression tests: each rule must flag its known-bad snippet
//! with the right `file:line:col` + rule ID, the clean fixture must pass,
//! and the live workspace must lint clean (the property CI enforces).

// Test helpers may expect() freely: a failed expect IS the test failing
// (`clippy.toml` only exempts `#[test]` functions themselves).
#![allow(clippy::expect_used)]

use std::path::Path;

use reaper_lint::callgraph::FileFacts;
use reaper_lint::{check_file, concurrency, find_workspace_root, lexer, run_workspace, Config};
use reaper_lint::{Diagnostic, FileClass, FileKind};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint.toml above crates/lint")
}

fn config() -> Config {
    let text = std::fs::read_to_string(workspace_root().join("lint.toml"))
        .expect("read lint.toml");
    Config::parse(&text).expect("parse lint.toml")
}

/// Lints a fixture as if it lived at `crates/<crate>/src/fixture.rs`.
fn lint_fixture(name: &str, crate_name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let class = FileClass {
        crate_name: crate_name.to_string(),
        kind: FileKind::LibSrc,
    };
    let rel = format!("crates/{crate_name}/src/fixture.rs");
    check_file(&rel, &source, &class, &config())
}

fn lines_of(diags: &[Diagnostic], rule_id: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule_id == rule_id)
        .map(|d| d.line)
        .collect()
}

#[test]
fn d1_flags_hash_containers_in_output_affecting_crate() {
    let diags = lint_fixture("d1_hash_order.rs", "bench");
    assert!(!diags.is_empty(), "D1 fixture produced no findings");
    assert!(diags.iter().all(|d| d.rule_id == "D1"), "{diags:?}");
    // `use` line, two construction sites, and the `HashSet` annotation.
    let lines = lines_of(&diags, "D1");
    assert!(lines.contains(&3), "use-line finding missing: {lines:?}");
    assert!(lines.contains(&6), "HashMap type finding missing: {lines:?}");
    assert!(lines.contains(&10), "HashSet finding missing: {lines:?}");
    // Exact position: `HashMap` inside the brace list on the use line.
    let first = &diags[0];
    assert_eq!((first.line, first.col), (3, 24), "{first}");
    let rendered = first.to_string();
    assert!(
        rendered.contains("crates/bench/src/fixture.rs:3:24"),
        "diagnostic must render file:line:col — got:\n{rendered}"
    );
    assert!(rendered.contains("error[D1/hash-order]"), "{rendered}");
}

#[test]
fn d1_ignores_crates_outside_the_configured_scope() {
    // `analysis` is not in the hash-order crate list.
    let diags = lint_fixture("d1_hash_order.rs", "analysis");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn d2_flags_wall_clock_and_ambient_entropy() {
    let diags = lint_fixture("d2_wall_clock.rs", "retention");
    assert!(diags.iter().all(|d| d.rule_id == "D2"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("SystemTime")),
        "SystemTime not flagged: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("Instant::now") && d.line == 6),
        "Instant::now not flagged on line 6: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("thread_rng") && d.line == 13),
        "thread_rng not flagged on line 13: {diags:?}"
    );
}

#[test]
fn p1_flags_undocumented_panics_in_library_code() {
    let diags = lint_fixture("p1_panic.rs", "core");
    assert!(diags.iter().all(|d| d.rule_id == "P1"), "{diags:?}");
    let lines = lines_of(&diags, "P1");
    assert_eq!(
        lines,
        vec![5, 6, 8, 10],
        "expected unwrap(5), bare expect(6), panic!(8), index(10): {diags:?}"
    );
}

#[test]
fn p1_index_audit_is_scoped_to_configured_crates() {
    // `bench` is not in the index-crates list, so only the unwrap, the
    // bare expect, and the panic! remain.
    let diags = lint_fixture("p1_panic.rs", "bench");
    assert_eq!(lines_of(&diags, "P1"), vec![5, 6, 8], "{diags:?}");
}

#[test]
fn c1_flags_bare_integer_casts() {
    let diags = lint_fixture("c1_lossy_cast.rs", "exec");
    assert!(diags.iter().all(|d| d.rule_id == "C1"), "{diags:?}");
    assert_eq!(lines_of(&diags, "C1"), vec![4, 9], "{diags:?}");
}

#[test]
fn c1_is_scoped_to_hot_path_crates() {
    let diags = lint_fixture("c1_lossy_cast.rs", "bench");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn bare_markers_are_detected_for_m0() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/m0_bare_marker.rs");
    let source = std::fs::read_to_string(path).expect("read fixture");
    let lexed = lexer::lex(&source);
    let bare: Vec<_> = lexed
        .markers
        .iter()
        .filter(|m| m.reason.is_empty())
        .collect();
    assert_eq!(bare.len(), 1, "{:?}", lexed.markers);
    assert_eq!(bare[0].rule, "panic");
    assert_eq!(bare[0].line, 4);
    // The bare marker still suppresses the P1 finding (run_workspace
    // reports the marker itself as M0 instead).
    let diags = lint_fixture("m0_bare_marker.rs", "core");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn clean_fixture_produces_no_findings() {
    let diags = lint_fixture("allowed_clean.rs", "core");
    assert!(diags.is_empty(), "{diags:?}");
}

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// Runs the L1–L4 analyzer on a fixture as if it were
/// `crates/serve/src/fixture.rs` (the `serve` crate is in the
/// `[rules.concurrency]` scope of the real `lint.toml`).
fn lint_concurrency_fixture(name: &str) -> Vec<Diagnostic> {
    let cfg = config();
    let facts = FileFacts::from_source(
        "crates/serve/src/fixture.rs",
        "serve",
        false,
        &fixture_source(name),
        &cfg.lock_helpers,
    );
    concurrency::check_files(vec![facts], &cfg)
}

#[test]
fn l1_flags_the_seeded_inversion_with_both_witness_paths() {
    let diags = lint_concurrency_fixture("l1_lock_order.rs");
    let l1: Vec<_> = diags.iter().filter(|d| d.rule_id == "L1").collect();
    assert_eq!(l1.len(), 1, "one cycle → one diagnostic: {diags:?}");
    let d = l1[0];
    assert!(
        d.message.contains("Shared.jobs") && d.message.contains("Shared.store"),
        "cycle must name both locks: {}",
        d.message
    );
    // Both paths of the inversion are witnessed as notes.
    assert_eq!(d.notes.len(), 2, "{:?}", d.notes);
    assert!(
        d.notes.iter().any(|n| n.contains("`submit`")),
        "jobs→store path missing: {:?}",
        d.notes
    );
    assert!(
        d.notes.iter().any(|n| n.contains("`evict`")),
        "store→jobs path missing: {:?}",
        d.notes
    );
    // rustc-style rendering with both paths visible.
    let rendered = d.to_string();
    assert!(rendered.contains("error[L1/lock-order]"), "{rendered}");
    assert!(
        rendered.contains("crates/serve/src/fixture.rs:12:"),
        "anchor at the second acquisition: {rendered}"
    );
    assert!(rendered.matches("= note:").count() == 2, "{rendered}");
}

#[test]
fn l2_flags_guards_held_across_blocking_operations() {
    let diags = lint_concurrency_fixture("l2_held_blocking.rs");
    let l2: Vec<_> = diags.iter().filter(|d| d.rule_id == "L2").collect();
    assert_eq!(l2.len(), 4, "wait, write, sleep, queue-pop: {diags:?}");
    assert!(
        l2.iter().any(|d| d.line == 30 && d.message.contains("Shared.jobs")
            && d.message.contains("wait")),
        "guard across condvar wait: {l2:?}"
    );
    assert!(
        l2.iter().any(|d| d.message.contains("write_all")),
        "guard across TcpStream write: {l2:?}"
    );
    assert!(
        l2.iter().any(|d| d.message.contains("thread::sleep")),
        "guard across sleep: {l2:?}"
    );
    assert!(
        l2.iter()
            .any(|d| d.message.contains("Queue::pop") && d.message.contains("blocks")),
        "transitively blocking first-party callee: {l2:?}"
    );
    // The queue's own wait (guard consumed, nothing else held) is fine.
    assert!(diags.iter().all(|d| d.rule_id == "L2"), "{diags:?}");
}

#[test]
fn l3_flags_if_guarded_wait_but_not_loop_forms() {
    let diags = lint_concurrency_fixture("l3_condvar_if.rs");
    let l3: Vec<_> = diags.iter().filter(|d| d.rule_id == "L3").collect();
    assert_eq!(l3.len(), 1, "{diags:?}");
    assert_eq!(l3[0].line, 12, "{l3:?}");
    assert!(l3[0].message.contains("predicate loop"), "{l3:?}");
}

#[test]
fn l4_flags_returned_and_stored_guards() {
    let diags = lint_concurrency_fixture("l4_guard_escape.rs");
    let l4: Vec<_> = diags.iter().filter(|d| d.rule_id == "L4").collect();
    assert_eq!(l4.len(), 2, "returned + stored: {diags:?}");
    assert!(
        l4.iter().any(|d| d.message.contains("`leak_guard`")
            && d.message.contains("returns a lock guard")),
        "{l4:?}"
    );
    assert!(
        l4.iter().any(|d| d.message.contains("stored beyond")),
        "{l4:?}"
    );
    // `fine` returns data, not the guard.
    assert!(!l4.iter().any(|d| d.message.contains("`fine`")), "{l4:?}");
}

#[test]
fn m1_temp_workspace_flags_only_the_stale_marker() {
    // A miniature workspace exercising the central marker accounting:
    // one marker suppresses a C1, one an L2, one suppresses nothing.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("m1_ws");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mk temp workspace");
    std::fs::write(
        root.join("lint.toml"),
        "[rules.lossy-cast]\ncrates = [\"demo\"]\n\n\
         [rules.concurrency]\ncrates = [\"demo\"]\n",
    )
    .expect("write lint.toml");
    std::fs::write(src_dir.join("lib.rs"), fixture_source("m1_stale_allow.rs"))
        .expect("write lib.rs");

    let report = run_workspace(&root).expect("scan temp workspace");
    assert!(report.bare_markers.is_empty(), "{:?}", report.bare_markers);
    let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(
        report.diagnostics.len(),
        1,
        "only the stale marker is a finding:\n{}",
        rendered.join("\n")
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.rule_id, "M1");
    assert_eq!(d.rule_name, "stale-allowance");
    assert_eq!(d.line, 15, "anchored at the stale marker: {d}");
    assert!(d.message.contains("lossy-cast"), "{d}");
}

#[test]
fn m1_flags_allow_files_entries_that_name_no_scanned_file() {
    // One `allow-files` entry excuses a live clock read; the other names
    // a file that is gone and must be reported against lint.toml.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("m1_allow_files_ws");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mk temp workspace");
    std::fs::write(
        root.join("lint.toml"),
        "# \"examples/deleted.rs\" is mentioned here too\n[rules.wall-clock]\n\
         allow-files = [\"crates/demo/src/lib.rs\", \"examples/deleted.rs\"]\n",
    )
    .expect("write lint.toml");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("write lib.rs");

    let report = run_workspace(&root).expect("scan temp workspace");
    let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(
        report.diagnostics.len(),
        1,
        "only the stale entry is a finding:\n{}",
        rendered.join("\n")
    );
    let d = &report.diagnostics[0];
    assert_eq!((d.rule_id, d.rule_name), ("M1", "stale-allowance"));
    assert_eq!((d.file.as_str(), d.line), ("lint.toml", 3), "{d}");
    assert!(d.message.contains("examples/deleted.rs"), "{d}");
}

#[test]
fn live_workspace_lock_graph_is_actually_populated() {
    // Guard against the analyzer silently resolving nothing: the real
    // serve/exec sources must yield the known lock identities.
    let cfg = config();
    let root = workspace_root();
    let mut files = Vec::new();
    for (rel, crate_name) in [
        ("crates/serve/src/server.rs", "serve"),
        ("crates/exec/src/pool.rs", "exec"),
    ] {
        let source = std::fs::read_to_string(root.join(rel)).expect("read live source");
        files.push(FileFacts::from_source(rel, crate_name, false, &source, &cfg.lock_helpers));
    }
    let ws = reaper_lint::callgraph::Workspace::build(files);
    let mut lock_ids = std::collections::BTreeSet::new();
    for gid in 0..ws.fn_count() {
        let f = ws.fn_facts(gid);
        for ev in &f.acquires {
            if let Some(id) = ws.lock_id(f, &ev.lock) {
                lock_ids.insert(id);
            }
        }
    }
    for expected in ["Shared.jobs", "Shared.store", "BoundedQueue.state", "FanOut.state"] {
        assert!(
            lock_ids.contains(expected),
            "`{expected}` not resolved; got {lock_ids:?}"
        );
    }
}

#[test]
fn live_workspace_lints_clean() {
    let report = run_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        report.files_checked > 100,
        "suspiciously few files scanned: {}",
        report.files_checked
    );
    let mut rendered = String::new();
    for d in report.diagnostics.iter().chain(&report.bare_markers) {
        rendered.push_str(&d.to_string());
        rendered.push('\n');
    }
    assert!(report.is_clean(), "workspace has findings:\n{rendered}");
}
