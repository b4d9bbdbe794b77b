#!/usr/bin/env bash
# Tier-1 verification gate plus an end-to-end smoke run.
#
#   scripts/verify.sh          # build + test + headline smoke
#
# Must pass before every merge; see ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline

echo "== static analysis: lint fixture + analyzer suites =="
cargo test -q --offline -p reaper-lint

echo "== static analysis: reaper-lint (D1/D2/P1/C1 + L1-L4 + M0/M1) =="
cargo run -q --offline -p reaper-lint
cargo run -q --offline -p reaper-lint -- --json=target/lint-report.json

echo "== static analysis: clippy deny-wall =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier-1: tests =="
cargo test -q --offline --workspace

echo "== bench-trial: every trial path vs. the reference scan (property + smoke) =="
cargo test --release -q --offline -p reaper-retention --test plan_equivalence
cargo run --release -q --offline -p reaper-bench --bin trial_bench -- --smoke

echo "== bench-trial: thread-scaling gate (single + rounds, 4t >= 1t) =="
cargo run --release -q --offline -p reaper-bench --bin trial_bench -- --gate --json=target/trial_gate.json

echo "== service: reaper-serve smoke (dedup + bit-identical bytes) =="
cargo test --release -q --offline -p reaper-serve --test smoke

echo "== service: bounded load run =="
cargo run --release -q --offline --example serve_loadgen -- --seconds 5 --threads 4

echo "== serve-delta: codec fuzz (RPF1 + RPD1 decoders never panic) =="
cargo test --release -q --offline -p reaper-core --test rpf1_fuzz
cargo test --release -q --offline -p reaper-retention --test delta_codec

echo "== serve-delta: epoch-log compaction equivalence (byte-identical prefixes) =="
cargo test --release -q --offline -p reaper-serve --test epoch_log

echo "== serve-delta: protocol conformance (ETag/304, delta, watch; 1 + 4 workers) =="
cargo test --release -q --offline -p reaper-serve --test conformance

echo "== serve-delta: bandwidth gate (delta GETs < 10% of full bytes at 1% churn) =="
cargo run --release -q --offline --example serve_delta_bench -- --epochs 20 --gate

echo "== fleet: rendezvous routing properties =="
cargo test --release -q --offline -p reaper-fleet --test routing

echo "== fleet: byte equality at 1 and 4 shards =="
cargo test --release -q --offline -p reaper-fleet --test byte_equality

echo "== fleet: failover conformance (503 -> restart -> 304, zero recompute) =="
cargo test --release -q --offline -p reaper-fleet --test failover

echo "== fleet: loadgen gate (aggregate throughput + connection ladder) =="
cargo run --release -q --offline --example fleet_loadgen -- --seconds 3 --gate

echo "== portfolio: race determinism (threads x orderings x priors) =="
cargo test --release -q --offline -p reaper-exec cancel
cargo test --release -q --offline -p reaper-portfolio

echo "== bench-portfolio: racing gate (<=1.05x best solo, < sequential grid) =="
cargo run --release -q --offline --example portfolio_bench -- --gate

echo "== benchmark: repro_drift + service_jobs smoke (goldens, byte-identical passes, direct job re-execution) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --workload repro_drift --workload service_jobs --smoke

echo "== smoke: headline experiment (quick scale) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- headline --quick

echo "== conformance: golden-table regression (Tier A) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- --check all

echo "== conformance: paper-shape acceptance (Tier B) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- --shape all

echo "verify: OK"
