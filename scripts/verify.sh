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

echo "== trial plans: every trial path vs. the reference scan (steady-state script + property), certified compile thresholds, pattern/inverse pairs on every route, byte-identity pins (drift_pin: drift run + arrival stress) =="
cargo test --release -q --offline -p reaper-retention --lib -- lowered_trials_match_the_reference_as_windows_grow_and_shrink a_profiling_job_lowers_no_cell_past_its_largest_window extended_lowering_matches_per_cell_predicates phi_at_least_equals_the_exact_compare by_rank_is_ascending_and_inverts_index_rank plan_lane_bytes_match_the_rank_layout certified_floor_decides_as_the_exact_threshold a_failing_draw_in_a_band_is_decided_exactly pair_compile_equals_the_single_compiles_lane_for_lane compile_with_and_without_lowering_is_identical
cargo test --release -q --offline -p reaper-core --test trial_union
cargo test --release -q --offline -p reaper-memsim --lib validation_rejects_refresh_a_bank_never_recovers_from
cargo test --release -q --offline -p reaper-retention --test plan_equivalence
cargo test --release -q --offline -p reaper-retention --test synthesis_pin
cargo test --release -q --offline -p reaper-retention --test drift_pin
cargo test --release -q --offline -p reaper-core --test execute_pin
cargo test --release -q --offline -p reaper-memsim --test sim_pin
cargo test --release -q --offline -p reaper-bench --lib cell_fit_map_matches_the_recorded_digest

echo "== trial plans: thread-scaling gate (single + rounds, 4t >= 0.95 x 1t) =="
cargo test --release -q --offline -p reaper-retention --test thread_scaling -- --ignored

echo "== profiling jobs: thread-parity gate (16 example jobs, 4t <= 1.25 x 1t) =="
cargo test --release -q --offline -p reaper-core --test job_thread_parity -- --ignored

echo "== service: reaper-serve smoke (dedup + bit-identical bytes) =="
cargo test --release -q --offline -p reaper-serve --test smoke

echo "== service: request space (every validated request executes; out-of-range bodies get a 400) =="
cargo test --release -q --offline -p reaper-serve --test request_space

echo "== service: codec fuzz (RPF1 + RPD1 decoders never panic) =="
cargo test --release -q --offline -p reaper-core --test rpf1_fuzz
cargo test --release -q --offline -p reaper-retention --test delta_codec

echo "== service: epoch-log compaction equivalence (byte-identical prefixes) =="
cargo test --release -q --offline -p reaper-serve --test epoch_log

echo "== service: protocol conformance (ETag/304, delta, watch; 1 + 4 workers) + delta bandwidth (< 10% of full bytes at 1% churn) =="
cargo test --release -q --offline -p reaper-serve --test conformance

echo "== service: connection ladder (event loop >= 4x thread-per-connection) =="
cargo test --release -q --offline -p reaper-serve --test connection_ladder

echo "== fleet: rendezvous routing properties =="
cargo test --release -q --offline -p reaper-fleet --test routing

echo "== fleet: byte equality at 1 and 4 shards =="
cargo test --release -q --offline -p reaper-fleet --test byte_equality

echo "== fleet: failover conformance (503 -> restart -> 304, zero recompute; rolling restarts under load, byte equality) =="
cargo test --release -q --offline -p reaper-fleet --test failover

echo "== fleet: throughput gate (4-shard cache-hit reads >= 2x one node, enforced on >= 2 cores) =="
cargo test --release -q --offline -p reaper-fleet --test throughput -- --ignored

echo "== portfolio: race determinism + logical cost (threads x orderings x priors; <=1.05x best solo, < sequential grid) =="
cargo test --release -q --offline -p reaper-exec cancel
cargo test --release -q --offline -p reaper-portfolio --lib --test determinism

echo "== portfolio: race wall-time speedup (4 threads vs 1, enforced on >= 4 cores) =="
cargo test --release -q --offline -p reaper-portfolio --test race_speedup

echo "== benchmark: four-workload smoke (goldens, byte-identical passes, direct job re-execution, fleet byte equality) =="
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --workload repro_drift --workload repro_static --workload service_jobs --workload fleet_mixed --smoke

echo "== smoke: headline experiment (quick scale) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- headline --quick

echo "== conformance: golden-table regression (Tier A) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- --check all

echo "== conformance: paper-shape acceptance (Tier B) =="
cargo run --release --offline -p reaper-conformance --bin experiments -- --shape all

echo "verify: OK"
