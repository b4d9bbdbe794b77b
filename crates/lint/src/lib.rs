//! `reaper-lint` — workspace-specific determinism and panic-safety lints.
//!
//! The REAPER reproduction's scientific claim rests on bit-identical
//! trials ([`reaper-exec`]'s contract) pinned by golden tables
//! (`reaper-conformance`). Those are *dynamic* guarantees: nothing stops a
//! future change from reintroducing hash-order iteration feeding an
//! output, a wall-clock read inside a trial, or a panic deep in a library
//! crate. This crate closes that gap statically with four rules clippy
//! cannot express (see [`rules`] and `DESIGN.md` §"Static analysis &
//! determinism invariants"):
//!
//! * **D1 `hash-order`** — no `HashMap`/`HashSet` in output-affecting
//!   crates,
//! * **D2 `wall-clock`** — no `SystemTime`/`Instant::now`/`thread_rng`
//!   outside sanctioned timing code,
//! * **P1 `panic`** — no undocumented `unwrap`/`expect`/`panic!`/indexing
//!   in library code,
//! * **C1 `lossy-cast`** — no bare `as` integer casts in hot-path crates.
//!
//! Rule scopes live in `lint.toml` at the workspace root; per-site
//! escapes are `// lint: allow(<rule>) <reason>` comments. The binary
//! cross-checks both the markers and `lint.toml`'s `allow-files`
//! entries, so a stale allowlist cannot accumulate.

// Deny-wall escapes (DESIGN.md §"Static analysis & determinism
// invariants"): `reaper-lint` enforces the finer-grained forms of these
// lints — P1 requires `invariant: `-prefixed expect messages and audits
// indexing in the hot-path crates, C1 bans bare casts there — with
// per-site `// lint: allow` markers. Clippy's blanket versions are
// allowed at the crate root so `-D warnings` stays green without
// annotating every audited site twice.
#![allow(clippy::indexing_slicing, clippy::cast_possible_truncation)]

pub mod ast;
pub mod callgraph;
pub mod concurrency;
pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::{check_file, Diagnostic, FileClass, FileKind};

/// Directories under the workspace root that are scanned for `.rs` files.
/// `vendor/` is deliberately excluded: those crates are offline stand-ins
/// emulating external APIs, not part of the reproduction's claim surface.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// A scan failure (I/O or config).
#[derive(Debug)]
pub struct ScanError(pub String);

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reaper-lint: {}", self.0)
    }
}

impl std::error::Error for ScanError {}

/// The outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, ordered by (file, line, col).
    pub diagnostics: Vec<Diagnostic>,
    /// Files inspected.
    pub files_checked: usize,
    /// `// lint: allow(...)` markers that carry no reason text — these are
    /// findings too: an unexplained escape defeats the audit trail.
    pub bare_markers: Vec<Diagnostic>,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.bare_markers.is_empty()
    }
}

/// Walks upward from `start` to the directory containing `lint.toml`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Classifies one workspace-relative path, or `None` if it is out of
/// scope (fixtures, non-Rust files).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") || rel.contains("/tests/fixtures/") {
        return None;
    }
    let mut parts = rel.split('/');
    let (crate_name, rest): (String, Vec<&str>) = match parts.next()? {
        "crates" => (parts.next()?.to_string(), parts.collect()),
        // Root façade package: `src/`, `tests/`, `examples/` at the top.
        top => (
            "reaper".to_string(),
            std::iter::once(top).chain(parts).collect(),
        ),
    };
    let kind = match rest.first().copied()? {
        "src" => {
            if rest.get(1).copied() == Some("bin") || rest.last().copied() == Some("main.rs") {
                FileKind::BinSrc
            } else {
                FileKind::LibSrc
            }
        }
        "tests" | "benches" | "examples" => FileKind::TestCode,
        _ => return None,
    };
    Some(FileClass { crate_name, kind })
}

/// Per-file state the workspace runner keeps for marker accounting.
struct ScannedFile {
    rel: String,
    markers: Vec<lexer::AllowMarker>,
    /// Source lines that fall inside `#[cfg(test)]` items.
    test_lines: BTreeSet<u32>,
    test_code: bool,
}

/// Lints every in-scope `.rs` file under `root`: the per-file rules
/// (D1/D2/P1/C1), the workspace-wide concurrency rules (L1–L4), and the
/// marker cross-checks (M0 bare, M1 stale). Suppression happens here,
/// centrally, so every `// lint: allow` marker's usage is accounted for
/// — a marker that no longer suppresses anything is itself a finding,
/// and so is a `lint.toml` `allow-files` entry that names no scanned
/// file.
pub fn run_workspace(root: &Path) -> Result<Report, ScanError> {
    let cfg_path = root.join("lint.toml");
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| ScanError(format!("cannot read {}: {e}", cfg_path.display())))?;
    let cfg = Config::parse(&cfg_text).map_err(|e| ScanError(e.to_string()))?;

    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files);
    }
    files.sort();

    let mut report = Report::default();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut scanned: Vec<ScannedFile> = Vec::new();
    let mut facts: Vec<callgraph::FileFacts> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(class) = classify(&rel) else { continue };
        let source = std::fs::read_to_string(&path)
            .map_err(|e| ScanError(format!("cannot read {rel}: {e}")))?;
        report.files_checked += 1;
        raw.extend(rules::check_file_raw(&rel, &source, &class, &cfg));

        let lexed = lexer::lex(&source);
        let mask = rules::test_region_mask(&lexed.tokens);
        let test_lines: BTreeSet<u32> = lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|&(_, &masked)| masked)
            .map(|(t, _)| t.line)
            .collect();
        let test_code = class.kind == FileKind::TestCode;
        facts.push(callgraph::FileFacts::from_source(
            &rel,
            &class.crate_name,
            test_code,
            &source,
            &cfg.lock_helpers,
        ));
        scanned.push(ScannedFile {
            rel,
            markers: lexed.markers,
            test_lines,
            test_code,
        });
    }
    raw.extend(concurrency::check_files(facts, &cfg));

    // Central suppression with usage accounting. Every covering marker
    // counts as used, even when several cover the same finding.
    let by_rel: BTreeMap<&str, usize> = scanned
        .iter()
        .enumerate()
        .map(|(i, s)| (s.rel.as_str(), i))
        .collect();
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    raw.retain(|d| {
        let Some(&fi) = by_rel.get(d.file.as_str()) else { return true };
        let mut suppressed = false;
        for (mi, m) in scanned[fi].markers.iter().enumerate() {
            if rules::marker_covers(m, d.rule_name, d.line) {
                used.insert((fi, mi));
                suppressed = true;
            }
        }
        !suppressed
    });
    report.diagnostics = raw;

    // Cross-check the escape hatch itself.
    for (fi, s) in scanned.iter().enumerate() {
        for (mi, m) in s.markers.iter().enumerate() {
            // M0: every marker needs a reason.
            if m.reason.is_empty() {
                report.bare_markers.push(Diagnostic {
                    rule_id: "M0",
                    rule_name: "bare-marker",
                    file: s.rel.clone(),
                    line: m.line,
                    col: 1,
                    message: format!("`lint: allow({})` without a reason", m.rule),
                    help: "append a justification after the closing parenthesis"
                        .to_string(),
                    notes: Vec::new(),
                });
                continue;
            }
            // M1: a reasoned marker that suppresses nothing is stale —
            // the code it excused is gone. Test code is exempt (rules
            // do not run there, so its markers are never "used").
            let in_test_region = s.test_lines.contains(&m.line)
                || s.test_lines.contains(&(m.line + 1));
            if used.contains(&(fi, mi)) || s.test_code || in_test_region {
                continue;
            }
            report.diagnostics.push(Diagnostic {
                rule_id: "M1",
                rule_name: "stale-allowance",
                file: s.rel.clone(),
                line: m.line,
                col: 1,
                message: format!(
                    "stale `lint: allow({})` — it no longer suppresses anything",
                    m.rule
                ),
                help: "delete the marker (or move it back next to the finding \
                       it excuses)"
                    .to_string(),
                notes: Vec::new(),
            });
        }
    }
    // M1 for the config too: an `allow-files` entry naming no scanned
    // file excuses nothing, and would silently exempt a file later
    // created at that path.
    for entry in &cfg.wall_clock_allow_files {
        if by_rel.contains_key(entry.as_str()) {
            continue;
        }
        let quoted = format!("\"{entry}\"");
        let line = cfg_text
            .lines()
            .position(|l| l.trim_start().starts_with("allow-files") && l.contains(&quoted))
            .map_or(1, |i| u32::try_from(i + 1).unwrap_or(u32::MAX));
        report.diagnostics.push(Diagnostic {
            rule_id: "M1",
            rule_name: "stale-allowance",
            file: "lint.toml".to_string(),
            line,
            col: 1,
            message: format!(
                "stale `[rules.wall-clock] allow-files` entry `{entry}` — no scanned \
                 file has that path"
            ),
            help: "delete the entry (or point it at the file's new path)".to_string(),
            notes: Vec::new(),
        });
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule_id).cmp(&(&b.file, b.line, b.col, b.rule_id)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        let lib = classify("crates/retention/src/chip.rs").expect("in scope");
        assert_eq!(lib.crate_name, "retention");
        assert_eq!(lib.kind, FileKind::LibSrc);

        let bin = classify("crates/conformance/src/bin/experiments.rs").expect("in scope");
        assert_eq!(bin.kind, FileKind::BinSrc);

        let bench = classify("crates/demo/benches/throughput.rs").expect("in scope");
        assert_eq!(bench.kind, FileKind::TestCode);

        let root = classify("src/lib.rs").expect("in scope");
        assert_eq!(root.crate_name, "reaper");
        assert_eq!(root.kind, FileKind::LibSrc);

        let root_test = classify("tests/determinism.rs").expect("in scope");
        assert_eq!(root_test.kind, FileKind::TestCode);

        assert!(classify("crates/lint/tests/fixtures/p1_unwrap.rs").is_none());
        assert!(classify("goldens/eq1.tsv").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn workspace_root_is_discoverable_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("lint.toml above crates/lint");
        assert!(root.join("Cargo.toml").is_file());
    }
}
