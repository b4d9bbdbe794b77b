//! **REAPER** — the Reach Profiler: the primary contribution of
//! *"The Reach Profiler (REAPER): Enabling the Mitigation of DRAM Retention
//! Failures via Profiling at Aggressive Conditions"* (ISCA 2017),
//! reproduced in Rust.
//!
//! DRAM cells must be refreshed every 64 ms only because a tiny worst-case
//! cell population requires it. Extending the refresh interval to a *target*
//! needs the set of cells that fail there — and finding that set is the
//! problem this crate solves. The key idea of **reach profiling** is to
//! profile at *reach conditions* (a longer refresh interval and/or higher
//! temperature than the target) where every failing cell is far more likely
//! to fail, trading a bounded false-positive rate for high coverage and a
//! 2.5× shorter profiling runtime.
//!
//! What lives here:
//!
//! * [`profile`] — failure profiles (sets of failing cells) and their
//!   algebra,
//! * [`conditions`] — target / reach condition types,
//! * [`profiler`] — Algorithm 1 (brute-force profiling) and the reach
//!   profiler built on the `reaper-softmc` harness,
//! * [`metrics`] — the paper's three key metrics: coverage, false positive
//!   rate, runtime (§1, §6.1),
//! * [`ecc`] — the UBER/RBER model (Eqs. 2–6) behind Table 1,
//! * [`longevity`] — profile longevity `T = (N − C)/A` (Eq. 7),
//! * [`overhead`] — the end-to-end profiling overhead model (Eqs. 8–9)
//!   behind Figs. 11–13,
//! * [`tradeoff`] — the coverage/FPR/runtime tradeoff-space exploration of
//!   Figs. 9–10 and reach-condition selection (§6.1.2),
//! * [`planner`] — per-chip characterization and analytic reach-condition
//!   recommendation (the §6.3 program),
//! * [`online`] — the long-running online profiling controller (§7.1),
//! * [`request`] — the canonical, hashable profiling-job form behind
//!   `reaper-serve`'s content-addressed result cache.
//!
//! # Example: profile a chip at reach conditions
//!
//! ```
//! use reaper_core::conditions::{ReachConditions, TargetConditions};
//! use reaper_core::profiler::{PatternSet, Profiler};
//! use reaper_dram_model::{Celsius, Ms, Vendor};
//! use reaper_retention::{RetentionConfig, SimulatedChip};
//! use reaper_softmc::TestHarness;
//!
//! let chip = SimulatedChip::new(
//!     RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 32),
//!     1,
//! );
//! let mut harness = TestHarness::new(chip, Celsius::new(45.0), 1);
//!
//! let target = TargetConditions::new(Ms::new(1024.0), Celsius::new(45.0));
//! // The paper's headline configuration: profile 250ms above target.
//! let reach = ReachConditions::interval_offset(Ms::new(250.0));
//!
//! let run = Profiler::reach(target, reach, 4, PatternSet::Standard)
//!     .run(&mut harness);
//! println!("found {} cells in {}", run.profile.len(), run.runtime);
//! ```

// Deny-wall escapes (DESIGN.md §"Static analysis & determinism
// invariants"): `reaper-lint` enforces the finer-grained forms of these
// lints — P1 requires `invariant: `-prefixed expect messages and audits
// indexing in the hot-path crates, C1 bans bare casts there — with
// per-site `// lint: allow` markers. Clippy's blanket versions are
// allowed at the crate root so `-D warnings` stays green without
// annotating every audited site twice.
#![allow(clippy::expect_used, clippy::indexing_slicing, clippy::cast_possible_truncation)]
// Tests additionally assert exact float equality on purpose — bit-identical
// outputs are the determinism contract, and clippy.toml has no in-tests
// knob for these lints.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod conditions;
pub mod ecc;
pub mod longevity;
pub mod metrics;
pub mod online;
pub mod overhead;
pub mod planner;
pub mod profile;
pub mod profiler;
pub mod request;
pub mod tradeoff;

pub use conditions::{ReachConditions, TargetConditions};
pub use ecc::EccStrength;
pub use metrics::ProfileMetrics;
pub use profile::{merge_sorted_union, FailureProfile, ProfileCodecError};
// The streaming-delta types appear in `FailureProfile`'s API
// (`delta_to` / `apply_delta`), so re-export them at the root alongside
// the profile they act on.
pub use reaper_retention::delta::{DeltaApplyError, DeltaCodecError, ProfileDelta};
pub use profiler::{CoverageTracker, IterationStats, PatternSet, Profiler, ProfilingRun};
pub use request::{
    validate_capacity, validate_intervals, validate_job_size, PatternSpec, ProfilingOutcome,
    ProfilingRequest, RequestError, JOB_COST_MIN_INTERVAL_MS, MAX_JOB_COST,
    MAX_PROFILED_INTERVAL_MS, MAX_ROUNDS, MIN_TARGET_INTERVAL_MS, TRUTH_MIN_PROB,
};
