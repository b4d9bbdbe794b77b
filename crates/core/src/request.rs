//! The canonical profiling-job request: one self-contained, hashable
//! description of a profiling run.
//!
//! `reaper-serve` needs three properties from a job description that the
//! builder-style library API does not give directly:
//!
//! 1. **Canonical bytes** — two requests describing the same job must
//!    serialize identically, so the service can content-address results
//!    ([`ProfilingRequest::canonical_bytes`]).
//! 2. **A deterministic job ID** — the splitmix64-chained hash of the
//!    canonical bytes ([`ProfilingRequest::job_id`]); identical
//!    submissions collide by construction and are deduplicated.
//! 3. **One execution path** — [`ProfilingRequest::execute`] is the same
//!    code whether called in-process or by a service worker, so a profile
//!    served over the wire is bit-identical to a direct library call at
//!    any thread count.

use reaper_dram_model::{Celsius, Ms, Vendor};
use reaper_exec::rng;
use reaper_retention::{RetentionConfig, SimulatedChip};
use reaper_softmc::{thermal, TestHarness};

use crate::conditions::{ReachConditions, TargetConditions};
use crate::metrics::ProfileMetrics;
use crate::profile::FailureProfile;
use crate::profiler::{PatternSet, Profiler, ProfilingRun};

/// Version byte of the canonical encoding; bump when fields change so old
/// job IDs cannot alias new requests.
const CANONICAL_VERSION: u8 = 1;

/// Probability floor used for the analytic ground truth a job's
/// coverage/FPR metrics are evaluated against (cells whose worst-case
/// single-trial failure probability at target conditions is ≥ 50 %).
pub const TRUTH_MIN_PROB: f64 = 0.5;

/// Which pattern family set a job profiles with (the wire-facing subset
/// of [`PatternSet`]; `Fixed` lists are a library-only concern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// The paper's standard six families and inverses (§3.2).
    Standard,
    /// Random pattern + inverse only (Fig. 5 / Observation 3).
    RandomOnly,
}

impl PatternSpec {
    /// Stable wire code of this variant.
    pub fn code(self) -> u8 {
        match self {
            PatternSpec::Standard => 0,
            PatternSpec::RandomOnly => 1,
        }
    }

    /// Stable wire name (`standard` / `random_only`).
    pub fn name(self) -> &'static str {
        match self {
            PatternSpec::Standard => "standard",
            PatternSpec::RandomOnly => "random_only",
        }
    }

    /// Parses the wire name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "standard" => Some(PatternSpec::Standard),
            "random_only" => Some(PatternSpec::RandomOnly),
            _ => None,
        }
    }

    /// The executable pattern set.
    pub fn to_pattern_set(self) -> PatternSet {
        match self {
            PatternSpec::Standard => PatternSet::Standard,
            PatternSpec::RandomOnly => PatternSet::RandomOnly,
        }
    }
}

/// A rejected [`ProfilingRequest`], with the offending constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError(pub String);

impl core::fmt::Display for RequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid profiling request: {}", self.0)
    }
}

impl std::error::Error for RequestError {}

/// A complete, canonicalizable profiling job: chip config, seed, target
/// and reach conditions, iteration count, and pattern set.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingRequest {
    /// DRAM vendor of the simulated chip.
    pub vendor: Vendor,
    /// Capacity scale numerator (`represented_bits × num / den`).
    pub capacity_num: u64,
    /// Capacity scale denominator.
    pub capacity_den: u64,
    /// Seed for the chip population, thermal chamber, and trial RNG lanes.
    pub seed: u64,
    /// Target refresh interval in milliseconds.
    pub target_interval_ms: f64,
    /// Target ambient temperature in °C.
    pub target_ambient_c: f64,
    /// Reach interval offset in milliseconds (0 = brute force).
    pub reach_delta_ms: f64,
    /// Reach ambient-temperature offset in °C (0 = no thermal reach).
    pub reach_delta_temp_c: f64,
    /// Profiling iterations (Algorithm 1 rounds).
    pub rounds: u32,
    /// Pattern families written each round.
    pub patterns: PatternSpec,
}

impl ProfilingRequest {
    /// A small, fast job at the paper's most-discussed operating point:
    /// Vendor B at 1/16 capacity, 1024 ms @ 45 °C target, the +250 ms
    /// headline reach, 4 rounds of the standard pattern set.
    pub fn example(seed: u64) -> Self {
        Self {
            vendor: Vendor::B,
            capacity_num: 1,
            capacity_den: 16,
            seed,
            target_interval_ms: 1024.0,
            target_ambient_c: 45.0,
            reach_delta_ms: 250.0,
            reach_delta_temp_c: 0.0,
            rounds: 4,
            patterns: PatternSpec::Standard,
        }
    }

    /// Checks every constraint the underlying simulator enforces by
    /// panic, so a validated request executes without panicking.
    ///
    /// # Errors
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), RequestError> {
        let err = |m: &str| Err(RequestError(m.to_string()));
        if self.capacity_num == 0 || self.capacity_den == 0 {
            return err("capacity_num and capacity_den must be nonzero");
        }
        if self.capacity_num > (1 << 20) || self.capacity_num > self.capacity_den * 64 {
            return err("capacity scale too large (num ≤ 2^20 and num/den ≤ 64)");
        }
        for (name, v) in [
            ("target_interval_ms", self.target_interval_ms),
            ("target_ambient_c", self.target_ambient_c),
            ("reach_delta_ms", self.reach_delta_ms),
            ("reach_delta_temp_c", self.reach_delta_temp_c),
        ] {
            if !v.is_finite() {
                return Err(RequestError(format!("{name} must be finite")));
            }
        }
        if self.target_interval_ms <= 0.0 {
            return err("target_interval_ms must be positive");
        }
        if self.reach_delta_ms < 0.0 || self.reach_delta_temp_c < 0.0 {
            return err("reach offsets must be non-negative");
        }
        let lo = thermal::CHAMBER_MIN;
        let hi = thermal::CHAMBER_MAX;
        if self.target_ambient_c < lo || self.target_ambient_c > hi {
            return Err(RequestError(format!(
                "target_ambient_c must be within the chamber range {lo}–{hi} °C"
            )));
        }
        if self.target_ambient_c + self.reach_delta_temp_c > hi {
            return Err(RequestError(format!(
                "target_ambient_c + reach_delta_temp_c exceeds the chamber maximum {hi} °C"
            )));
        }
        if self.rounds == 0 {
            return err("rounds must be at least 1");
        }
        Ok(())
    }

    /// The canonical byte encoding: a version byte followed by every field
    /// in declaration order, integers little-endian, floats as the IEEE-754
    /// bits of `value + 0.0` (normalizing `-0.0` to `+0.0` so numerically
    /// equal requests hash identically).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn f64_canon(v: f64) -> [u8; 8] {
            (v + 0.0).to_bits().to_le_bytes()
        }
        let mut out = Vec::with_capacity(64);
        out.push(CANONICAL_VERSION);
        out.push(match self.vendor {
            Vendor::A => 0,
            Vendor::B => 1,
            Vendor::C => 2,
        });
        out.extend_from_slice(&self.capacity_num.to_le_bytes());
        out.extend_from_slice(&self.capacity_den.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&f64_canon(self.target_interval_ms));
        out.extend_from_slice(&f64_canon(self.target_ambient_c));
        out.extend_from_slice(&f64_canon(self.reach_delta_ms));
        out.extend_from_slice(&f64_canon(self.reach_delta_temp_c));
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.push(self.patterns.code());
        out
    }

    /// Hash-domain seed for job IDs (see [`rng::hash_bytes`]).
    const JOB_ID_SEED: u64 = 0xC0FF_EE1D_5EED_F00D;

    /// The deterministic job ID: a splitmix64-chained hash of the
    /// canonical bytes ([`rng::hash_bytes`] under the job-ID domain
    /// seed; the algorithm and therefore every existing job ID are
    /// unchanged). Identical requests — same chip config, seed,
    /// conditions, rounds, patterns — always produce the same ID, which is
    /// what makes the service's result cache content-addressed.
    pub fn job_id(&self) -> u64 {
        rng::hash_bytes(Self::JOB_ID_SEED, &self.canonical_bytes())
    }

    /// Renders a job ID in the service's 16-hex-digit wire form.
    pub fn format_job_id(id: u64) -> String {
        format!("{id:016x}")
    }

    /// Parses the 16-hex-digit wire form of a job ID.
    pub fn parse_job_id(text: &str) -> Option<u64> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok()
    }

    /// Executes the job: builds the simulated chip and harness, runs
    /// Algorithm 1 at the requested reach conditions, and evaluates the
    /// result against the analytic ground truth at target conditions.
    ///
    /// The outcome is a pure function of the request — in particular it is
    /// independent of `REAPER_THREADS` (the parallel trial substrate is
    /// bit-identical at any worker count), which is the property the
    /// service's end-to-end determinism test pins.
    ///
    /// # Errors
    /// Returns the [`RequestError`] from [`ProfilingRequest::validate`];
    /// a validated request cannot fail.
    pub fn execute(&self) -> Result<ProfilingOutcome, RequestError> {
        self.validate()?;
        let cfg = RetentionConfig::for_vendor(self.vendor)
            .with_capacity_scale(self.capacity_num, self.capacity_den);
        cfg.validate().map_err(|m| RequestError(m.to_string()))?;
        let chip = SimulatedChip::new(cfg, self.seed);
        let target = TargetConditions::new(
            Ms::new(self.target_interval_ms),
            Celsius::new(self.target_ambient_c),
        );
        let reach = ReachConditions::new(Ms::new(self.reach_delta_ms), self.reach_delta_temp_c);
        let mut harness = TestHarness::new(chip, target.ambient, self.seed);
        // `Profiler::run` prewarms the chip's trial-plan lowerings for the
        // recurring patterns, so serve workers get the packed-lane fast
        // path without any per-worker setup — and since every trial path is
        // bit-identical, job IDs and cached profile bytes are unaffected.
        let run = Profiler::reach(target, reach, self.rounds, self.patterns.to_pattern_set())
            .run(&mut harness);
        let truth = FailureProfile::from_cells(harness.chip_mut().failing_set_worst_case(
            target.interval,
            target.dram_temp(),
            TRUTH_MIN_PROB,
        ));
        let metrics = ProfileMetrics::evaluate(&run.profile, &truth).with_runtime(run.runtime);
        Ok(ProfilingOutcome {
            run,
            metrics,
            truth_cells: truth.len(),
        })
    }
}

/// The result of executing a [`ProfilingRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingOutcome {
    /// The full profiling run (profile, simulated runtime, per-iteration
    /// stats).
    pub run: ProfilingRun,
    /// Coverage / FPR against the target-conditions ground truth, with the
    /// simulated runtime attached.
    pub metrics: ProfileMetrics,
    /// Size of the ground-truth failing set the metrics were evaluated
    /// against.
    pub truth_cells: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ProfilingRequest {
        let mut r = ProfilingRequest::example(7);
        r.capacity_den = 64;
        r.rounds = 2;
        r.target_interval_ms = 512.0;
        r.reach_delta_ms = 128.0;
        r
    }

    #[test]
    fn job_ids_are_stable_and_content_addressed() {
        let a = quick();
        let b = quick();
        assert_eq!(a.job_id(), b.job_id());
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        let mut c = quick();
        c.seed = 8;
        assert_ne!(a.job_id(), c.job_id());
        let mut d = quick();
        d.patterns = PatternSpec::RandomOnly;
        assert_ne!(a.job_id(), d.job_id());
        let mut e = quick();
        e.reach_delta_ms = 129.0;
        assert_ne!(a.job_id(), e.job_id());
    }

    #[test]
    fn negative_zero_hashes_like_positive_zero() {
        let a = quick();
        let mut b = quick();
        b.reach_delta_temp_c = -0.0;
        assert_eq!(a.job_id(), b.job_id());
        assert!(b.validate().is_ok());
    }

    #[test]
    fn job_id_wire_format_roundtrips() {
        let id = quick().job_id();
        let text = ProfilingRequest::format_job_id(id);
        assert_eq!(text.len(), 16);
        assert_eq!(ProfilingRequest::parse_job_id(&text), Some(id));
        assert_eq!(ProfilingRequest::parse_job_id("xyz"), None);
        assert_eq!(ProfilingRequest::parse_job_id(""), None);
    }

    type Mutator = Box<dyn Fn(&mut ProfilingRequest)>;

    #[test]
    fn validation_rejects_out_of_range_requests() {
        let ok = quick();
        assert!(ok.validate().is_ok());
        let cases: Vec<(&str, Mutator)> = vec![
            ("zero den", Box::new(|r| r.capacity_den = 0)),
            ("zero num", Box::new(|r| r.capacity_num = 0)),
            ("huge num", Box::new(|r| r.capacity_num = 1 << 21)),
            ("zero interval", Box::new(|r| r.target_interval_ms = 0.0)),
            ("nan interval", Box::new(|r| r.target_interval_ms = f64::NAN)),
            ("negative reach", Box::new(|r| r.reach_delta_ms = -1.0)),
            ("cold ambient", Box::new(|r| r.target_ambient_c = 20.0)),
            ("hot reach", Box::new(|r| r.reach_delta_temp_c = 30.0)),
            ("zero rounds", Box::new(|r| r.rounds = 0)),
        ];
        for (name, mutate) in cases {
            let mut r = quick();
            mutate(&mut r);
            assert!(r.validate().is_err(), "{name} accepted");
        }
    }

    #[test]
    fn execute_is_deterministic_and_matches_direct_library_use() {
        let req = quick();
        let a = req.execute().expect("valid request");
        let b = req.execute().expect("valid request");
        assert_eq!(a.run.profile, b.run.profile);
        assert_eq!(a.run.profile.to_bytes(), b.run.profile.to_bytes());
        assert!(!a.run.profile.is_empty());
        assert!(a.truth_cells > 0);
        assert!(a.metrics.coverage > 0.0);

        // The same job spelled out by hand through the library API.
        let cfg = RetentionConfig::for_vendor(Vendor::B).with_capacity_scale(1, 64);
        let chip = SimulatedChip::new(cfg, 7);
        let mut h = TestHarness::new(chip, Celsius::new(45.0), 7);
        let target = TargetConditions::new(Ms::new(512.0), Celsius::new(45.0));
        let direct = Profiler::reach(
            target,
            ReachConditions::interval_offset(Ms::new(128.0)),
            2,
            PatternSet::Standard,
        )
        .run(&mut h);
        assert_eq!(a.run.profile.to_bytes(), direct.profile.to_bytes());
        assert_eq!(a.run.runtime, direct.runtime);
    }

    #[test]
    fn execute_rejects_invalid_without_panicking() {
        let mut r = quick();
        r.rounds = 0;
        assert!(r.execute().is_err());
    }

    #[test]
    fn pattern_spec_wire_names_roundtrip() {
        for p in [PatternSpec::Standard, PatternSpec::RandomOnly] {
            assert_eq!(PatternSpec::parse(p.name()), Some(p));
        }
        assert_eq!(PatternSpec::parse("solid0"), None);
        assert_eq!(PatternSpec::Standard.to_pattern_set(), PatternSet::Standard);
        assert_eq!(
            PatternSpec::RandomOnly.to_pattern_set(),
            PatternSet::RandomOnly
        );
    }
}
