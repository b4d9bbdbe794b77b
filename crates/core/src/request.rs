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

/// The shortest target refresh interval a request may ask for, in
/// milliseconds. The model works in seconds, and a sub-millisecond
/// interval can round to a zero-length one there.
pub const MIN_TARGET_INTERVAL_MS: f64 = 1.0;

/// The longest refresh interval, in milliseconds, a request may profile
/// at (target plus reach offset): twice the longest interval any
/// experiment runs (4,096 ms). The weak-cell window and the simulated
/// time a job spans both grow with the interval, so an unbounded one lets
/// a validated request run for minutes or overflow the VRT arrival rate.
pub const MAX_PROFILED_INTERVAL_MS: f64 = 8192.0;

/// The most Algorithm 1 rounds a request may ask for: past the 40 the
/// longest race tests run, and far past the 4 of the example job.
pub const MAX_ROUNDS: u32 = 64;

/// The largest job a request may describe, as the chip's capacity (a
/// multiple of the vendor's chip) × the longest interval it profiles (ms,
/// at least [`JOB_COST_MIN_INTERVAL_MS`]) × its rounds: a full chip
/// profiled once at [`MAX_PROFILED_INTERVAL_MS`], or a 1/16 chip for 16
/// rounds. On a 2-vCPU host a full chip at 8,192 ms for one round ran
/// 1.2 s and peaked at 80 MB; a 1/16 chip at 8,192 ms for 8 rounds (cost
/// 4,096) ran 0.6 s.
pub const MAX_JOB_COST: f64 = 8192.0;

/// The interval, in ms, below which a job's cost stops shrinking with it:
/// a job synthesizes the whole chip whatever interval it profiles (a 16×
/// chip at 64 ms for one round ran 0.9 s and peaked at 89 MB).
pub const JOB_COST_MIN_INTERVAL_MS: f64 = 1024.0;

/// A job's cost, as [`MAX_JOB_COST`] counts it.
fn job_cost(num: u64, den: u64, longest_interval_ms: f64, rounds: u32) -> f64 {
    num as f64 / den as f64 * longest_interval_ms.max(JOB_COST_MIN_INTERVAL_MS) * f64::from(rounds)
}

/// Checks a job's rounds and size: at least one round and at most
/// [`MAX_ROUNDS`], and a cost of at most [`MAX_JOB_COST`], so one
/// validated request cannot hold a worker for hours or exhaust memory.
/// `longest_interval_ms` is the target plus the longest reach offset.
///
/// # Errors
/// Names the violated bound.
pub fn validate_job_size(
    num: u64,
    den: u64,
    longest_interval_ms: f64,
    rounds: u32,
) -> Result<(), RequestError> {
    if rounds == 0 {
        return Err(RequestError("rounds must be at least 1".to_string()));
    }
    if rounds > MAX_ROUNDS {
        return Err(RequestError(format!("rounds must be at most {MAX_ROUNDS}, got {rounds}")));
    }
    let cost = job_cost(num, den, longest_interval_ms, rounds);
    if cost > MAX_JOB_COST {
        return Err(RequestError(format!(
            "the job is too large: capacity × interval (ms, at least \
             {JOB_COST_MIN_INTERVAL_MS}) × rounds is {cost}, over the bound {MAX_JOB_COST}"
        )));
    }
    Ok(())
}

/// Checks a capacity scale `num / den` of `vendor`'s chip: both parts
/// nonzero, `num ≤ 2^20` and `num/den ≤ 64`, and at least one
/// represented bit left after scaling.
///
/// # Errors
/// Describes the first violated constraint.
pub fn validate_capacity(vendor: Vendor, num: u64, den: u64) -> Result<(), RequestError> {
    let err = |m: &str| Err(RequestError(m.to_string()));
    if num == 0 || den == 0 {
        return err("capacity_num and capacity_den must be nonzero");
    }
    if num > (1 << 20) || num > den.saturating_mul(64) {
        return err("capacity scale too large (num ≤ 2^20 and num/den ≤ 64)");
    }
    RetentionConfig::for_vendor(vendor)
        .with_capacity_scale(num, den)
        .validate()
        .map_err(|m| RequestError(m.to_string()))
}

/// Checks a finite target interval and the longest reach offset a
/// request profiles it with: the target is at least
/// [`MIN_TARGET_INTERVAL_MS`] and target plus offset at most
/// [`MAX_PROFILED_INTERVAL_MS`].
///
/// # Errors
/// Names the violated bound.
pub fn validate_intervals(target_ms: f64, max_offset_ms: f64) -> Result<(), RequestError> {
    if target_ms < MIN_TARGET_INTERVAL_MS {
        return Err(RequestError(format!(
            "target_interval_ms must be at least {MIN_TARGET_INTERVAL_MS} ms"
        )));
    }
    let longest = target_ms + max_offset_ms;
    if longest > MAX_PROFILED_INTERVAL_MS {
        return Err(RequestError(format!(
            "the profiled interval must be at most {MAX_PROFILED_INTERVAL_MS} ms, got {longest} ms"
        )));
    }
    Ok(())
}

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
        validate_capacity(self.vendor, self.capacity_num, self.capacity_den)?;
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
        if self.reach_delta_ms < 0.0 || self.reach_delta_temp_c < 0.0 {
            return err("reach offsets must be non-negative");
        }
        validate_intervals(self.target_interval_ms, self.reach_delta_ms)?;
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
        validate_job_size(
            self.capacity_num,
            self.capacity_den,
            self.target_interval_ms + self.reach_delta_ms,
            self.rounds,
        )
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
        let chip = SimulatedChip::new(cfg, self.seed);
        let target = TargetConditions::new(
            Ms::new(self.target_interval_ms),
            Celsius::new(self.target_ambient_c),
        );
        let reach = ReachConditions::new(Ms::new(self.reach_delta_ms), self.reach_delta_temp_c);
        let mut harness = TestHarness::new(chip, target.ambient, self.seed);
        // The chip lowers a pattern on its second sighting and only over
        // the cells its trial windows reach, and the ground truth walks
        // only the cells below its σ-cap cut, so the job pays for the
        // cells it can touch rather than the whole chip. Every trial path
        // is bit-identical, so job IDs and cached profile bytes are
        // unaffected.
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
            ("subnormal interval", Box::new(|r| r.target_interval_ms = 5e-324)),
            ("nan interval", Box::new(|r| r.target_interval_ms = f64::NAN)),
            ("negative reach", Box::new(|r| r.reach_delta_ms = -1.0)),
            ("no represented bits", Box::new(|r| r.capacity_den = u64::MAX)),
            ("huge interval", Box::new(|r| r.target_interval_ms = 1e308)),
            ("huge reach", Box::new(|r| r.reach_delta_ms = 1e308)),
            ("minutes-long job", Box::new(|r| r.target_interval_ms = 1e5)),
            ("reach past the bound", Box::new(|r| r.target_interval_ms = 8100.0)),
            ("cold ambient", Box::new(|r| r.target_ambient_c = 20.0)),
            ("hot reach", Box::new(|r| r.reach_delta_temp_c = 30.0)),
            ("zero rounds", Box::new(|r| r.rounds = 0)),
            ("too many rounds", Box::new(|r| r.rounds = MAX_ROUNDS + 1)),
            ("u32::MAX rounds", Box::new(|r| r.rounds = u32::MAX)),
            ("a full chip at 8 s for 2 rounds", Box::new(|r| {
                (r.capacity_den, r.target_interval_ms, r.rounds) = (1, 7000.0, 2);
            })),
            ("a 1/16 chip at 8 s for 17 rounds", Box::new(|r| {
                (r.capacity_den, r.target_interval_ms, r.rounds) = (16, 8064.0, 17);
            })),
            ("a 64x chip at a short interval", Box::new(|r| {
                (r.capacity_num, r.capacity_den, r.target_interval_ms) = (64, 1, 64.0);
            })),
        ];
        for (name, mutate) in cases {
            let mut r = quick();
            mutate(&mut r);
            assert!(r.validate().is_err(), "{name} accepted");
        }
        // The bounds themselves are accepted.
        let mut edge = quick();
        edge.target_interval_ms = MAX_PROFILED_INTERVAL_MS - edge.reach_delta_ms;
        assert!(edge.validate().is_ok());
        let mut rounds = quick();
        rounds.rounds = MAX_ROUNDS;
        assert!(rounds.validate().is_ok());
        let mut cost = quick();
        (cost.capacity_den, cost.target_interval_ms, cost.rounds) = (16, 8064.0, 16);
        assert_eq!(job_cost(1, 16, 8192.0, 16), MAX_JOB_COST);
        assert!(cost.validate().is_ok());
        // Below the floor, the interval no longer shrinks the cost.
        assert_eq!(job_cost(8, 1, 64.0, 1), MAX_JOB_COST);
        assert_eq!(job_cost(1, 8, 512.0, 40), job_cost(1, 8, 1024.0, 40));
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
