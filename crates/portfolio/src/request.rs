//! The canonical portfolio-race job: the racing counterpart of
//! `reaper_core::ProfilingRequest`, with the same three service-facing
//! properties — canonical bytes, a deterministic job ID in its own hash
//! domain, and one execution path shared by library callers and serve
//! workers.

use reaper_core::{
    validate_capacity, validate_intervals, validate_job_size, PatternSpec, ProfileMetrics,
    ProfilingOutcome, ProfilingRun, RequestError, TargetConditions,
};
use reaper_dram_model::{Celsius, Ms, Vendor};
use reaper_exec::rng;
use reaper_softmc::thermal;

use crate::priors::PriorStore;
use crate::race::{Portfolio, RaceOutcome};
use crate::spec::{default_candidates, RaceTarget};

/// Version byte of the canonical encoding. Starts at 2 so no portfolio
/// encoding can ever byte-collide with a v1 `ProfilingRequest`.
const CANONICAL_VERSION: u8 = 2;

/// A complete, canonicalizable portfolio race: chip config, seed, target
/// conditions, the coverage/FPR target, and the per-candidate iteration
/// budget. The candidate set is the fixed default portfolio
/// ([`default_candidates`]) so identical submissions stay
/// content-addressable.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioRequest {
    /// DRAM vendor of the simulated chip.
    pub vendor: Vendor,
    /// Capacity scale numerator.
    pub capacity_num: u64,
    /// Capacity scale denominator.
    pub capacity_den: u64,
    /// Seed for the chip population and trial RNG lanes.
    pub seed: u64,
    /// Target refresh interval in milliseconds.
    pub target_interval_ms: f64,
    /// Target ambient temperature in °C.
    pub target_ambient_c: f64,
    /// Ground-truth coverage every lane races toward, in (0, 1].
    pub coverage_goal: f64,
    /// Maximum tolerated false-positive rate, in [0, 1].
    pub max_fpr: f64,
    /// Iteration budget per candidate lane.
    pub rounds: u32,
    /// Pattern families written each round.
    pub patterns: PatternSpec,
}

impl PortfolioRequest {
    /// A small, fast race at the paper's operating point.
    pub fn example(seed: u64) -> Self {
        Self {
            vendor: Vendor::B,
            capacity_num: 1,
            capacity_den: 64,
            seed,
            target_interval_ms: 512.0,
            target_ambient_c: 45.0,
            coverage_goal: 0.9,
            max_fpr: 1.0,
            rounds: 6,
            patterns: PatternSpec::Standard,
        }
    }

    /// Checks every constraint the race engine enforces by panic, so a
    /// validated request executes without panicking. The hottest default
    /// candidate adds +10 °C, so the target ambient must leave that much
    /// chamber headroom; the longest adds +512 ms, so the target interval
    /// must leave that much below `reaper_core::MAX_PROFILED_INTERVAL_MS`.
    ///
    /// # Errors
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), RequestError> {
        let err = |m: &str| Err(RequestError(m.to_string()));
        validate_capacity(self.vendor, self.capacity_num, self.capacity_den)?;
        for (name, v) in [
            ("target_interval_ms", self.target_interval_ms),
            ("target_ambient_c", self.target_ambient_c),
            ("coverage_goal", self.coverage_goal),
            ("max_fpr", self.max_fpr),
        ] {
            if !v.is_finite() {
                return Err(RequestError(format!("{name} must be finite")));
            }
        }
        validate_intervals(self.target_interval_ms, MAX_CANDIDATE_DELTA_MS)?;
        if self.coverage_goal <= 0.0 || self.coverage_goal > 1.0 {
            return err("coverage_goal must be in (0, 1]");
        }
        if !(0.0..=1.0).contains(&self.max_fpr) {
            return err("max_fpr must be in [0, 1]");
        }
        let lo = thermal::CHAMBER_MIN;
        let hi = thermal::CHAMBER_MAX;
        if self.target_ambient_c < lo || self.target_ambient_c > hi {
            return Err(RequestError(format!(
                "target_ambient_c must be within the chamber range {lo}–{hi} °C"
            )));
        }
        if self.target_ambient_c + MAX_CANDIDATE_DELTA_T > hi {
            return Err(RequestError(format!(
                "target_ambient_c + the hottest candidate reach (+{MAX_CANDIDATE_DELTA_T} °C) \
                 exceeds the chamber maximum {hi} °C"
            )));
        }
        validate_job_size(
            self.capacity_num,
            self.capacity_den,
            self.target_interval_ms + MAX_CANDIDATE_DELTA_MS,
            self.rounds,
        )
    }

    /// The canonical byte encoding: a version byte followed by every
    /// field in declaration order, integers little-endian, floats as the
    /// IEEE-754 bits of `value + 0.0` (normalizing `-0.0`).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn f64_canon(v: f64) -> [u8; 8] {
            (v + 0.0).to_bits().to_le_bytes()
        }
        let mut out = Vec::with_capacity(72);
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
        out.extend_from_slice(&f64_canon(self.coverage_goal));
        out.extend_from_slice(&f64_canon(self.max_fpr));
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.push(self.patterns.code());
        out
    }

    /// Hash-domain seed for portfolio job IDs — distinct from
    /// `ProfilingRequest`'s domain so the two kinds can never collide
    /// even on identical canonical bytes.
    const JOB_ID_SEED: u64 = 0x5EED_0F0D_CA5C_ADE5;

    /// The deterministic job ID (splitmix64-chained hash of the
    /// canonical bytes under the portfolio domain seed).
    pub fn job_id(&self) -> u64 {
        rng::hash_bytes(Self::JOB_ID_SEED, &self.canonical_bytes())
    }

    /// The race this request describes.
    ///
    /// # Errors
    /// Returns the [`RequestError`] from [`PortfolioRequest::validate`].
    pub fn to_portfolio(&self) -> Result<Portfolio, RequestError> {
        self.validate()?;
        Ok(Portfolio::new(
            self.vendor,
            self.capacity_num,
            self.capacity_den,
            self.seed,
            RaceTarget::new(
                TargetConditions::new(
                    Ms::new(self.target_interval_ms),
                    Celsius::new(self.target_ambient_c),
                ),
                self.coverage_goal,
                self.max_fpr,
            ),
            self.patterns.to_pattern_set(),
            default_candidates(self.rounds),
        ))
    }

    /// Executes the race with `priors` choosing the launch order, and
    /// packages the winner as a [`ProfilingOutcome`] so the service's
    /// summary/profile store path is shared with plain profiling jobs.
    /// The outcome is a pure function of the request: priors and thread
    /// count only reorder scheduling, never results.
    ///
    /// # Errors
    /// Returns the [`RequestError`] from [`PortfolioRequest::validate`].
    pub fn execute_with_priors(
        &self,
        priors: &PriorStore,
    ) -> Result<(RaceOutcome, ProfilingOutcome), RequestError> {
        let portfolio = self.to_portfolio()?;
        let order = priors.launch_order(self.vendor, portfolio.candidates());
        let race = portfolio.run_ordered(&order);
        let truth = portfolio.ground_truth();
        let run = ProfilingRun {
            profile: race.profile.clone(),
            runtime: race.makespan,
            iterations: race.iterations.clone(),
            profiling_interval: race.profiling_interval,
            profiling_ambient: race.profiling_ambient,
        };
        let metrics = ProfileMetrics::evaluate(&run.profile, &truth).with_runtime(race.makespan);
        let outcome = ProfilingOutcome {
            run,
            metrics,
            truth_cells: truth.len(),
        };
        Ok((race, outcome))
    }

    /// [`PortfolioRequest::execute_with_priors`] with no prior state.
    ///
    /// # Errors
    /// Returns the [`RequestError`] from [`PortfolioRequest::validate`].
    pub fn execute(&self) -> Result<(RaceOutcome, ProfilingOutcome), RequestError> {
        self.execute_with_priors(&PriorStore::new())
    }
}

/// The largest temperature offset in the default candidate set.
const MAX_CANDIDATE_DELTA_T: f64 = 10.0;

/// The largest interval offset in the default candidate set, in ms.
const MAX_CANDIDATE_DELTA_MS: f64 = 512.0;

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_core::ProfilingRequest;

    #[test]
    fn job_ids_are_content_addressed_and_kind_separated() {
        let a = PortfolioRequest::example(7);
        let b = PortfolioRequest::example(7);
        assert_eq!(a.job_id(), b.job_id());
        let mut c = PortfolioRequest::example(7);
        c.coverage_goal = 0.95;
        assert_ne!(a.job_id(), c.job_id());
        // A profiling request can never alias a portfolio request: the
        // hash domains differ even if canonical bytes collided (and the
        // version bytes differ anyway).
        let p = ProfilingRequest::example(7);
        assert_ne!(a.job_id(), p.job_id());
        assert_ne!(a.canonical_bytes()[0], p.canonical_bytes()[0]);
    }

    type Mutation = Box<dyn Fn(&mut PortfolioRequest)>;

    #[test]
    fn validation_rejects_bad_requests() {
        assert!(PortfolioRequest::example(1).validate().is_ok());
        let cases: Vec<(&str, Mutation)> = vec![
            ("zero den", Box::new(|r| r.capacity_den = 0)),
            ("zero goal", Box::new(|r| r.coverage_goal = 0.0)),
            ("big goal", Box::new(|r| r.coverage_goal = 1.5)),
            ("negative fpr", Box::new(|r| r.max_fpr = -0.1)),
            ("no headroom", Box::new(|r| r.target_ambient_c = 50.0)),
            ("zero rounds", Box::new(|r| r.rounds = 0)),
            ("nan interval", Box::new(|r| r.target_interval_ms = f64::NAN)),
            ("huge interval", Box::new(|r| r.target_interval_ms = 1e308)),
            ("candidate past the bound", Box::new(|r| r.target_interval_ms = 7700.0)),
            ("no represented bits", Box::new(|r| r.capacity_den = u64::MAX)),
            ("too many rounds", Box::new(|r| r.rounds = reaper_core::MAX_ROUNDS + 1)),
            ("a full chip for 9 rounds", Box::new(|r| (r.capacity_den, r.rounds) = (1, 9))),
            ("a 64x chip", Box::new(|r| (r.capacity_num, r.capacity_den) = (64, 1))),
        ];
        for (name, mutate) in cases {
            let mut r = PortfolioRequest::example(1);
            mutate(&mut r);
            assert!(r.validate().is_err(), "{name} accepted");
        }
    }

    #[test]
    fn the_longest_candidate_offset_matches_the_default_set() {
        let longest = default_candidates(1)
            .iter()
            .map(|c| c.reach.delta_interval.as_ms())
            .fold(0.0, f64::max);
        assert_eq!(longest, MAX_CANDIDATE_DELTA_MS);
    }

    #[test]
    fn execute_is_deterministic_and_prior_invariant() {
        let req = PortfolioRequest::example(7);
        let (race_a, out_a) = req.execute().expect("valid request");
        let mut priors = PriorStore::new();
        priors.record_win(Vendor::B, crate::spec::Strategy::Combined);
        priors.record_win(Vendor::B, crate::spec::Strategy::DeltaTemp);
        let (race_b, out_b) = req.execute_with_priors(&priors).expect("valid request");
        assert_eq!(race_a, race_b);
        assert_eq!(out_a.run.profile.to_bytes(), out_b.run.profile.to_bytes());
        assert_eq!(out_a.metrics, out_b.metrics);
        assert_eq!(out_a.run.runtime, race_a.makespan);
        assert!(race_a.target_met);
    }

    #[test]
    fn a_race_toward_an_empty_ground_truth_executes() {
        // One represented bit: no weak cell, so nothing can fail.
        let mut r = PortfolioRequest::example(3);
        r.capacity_den = 1 << 34;
        assert!(r.validate().is_ok());
        let (race, out) = r.execute().expect("a validated request executes");
        assert_eq!(out.truth_cells, 0);
        assert!(race.target_met);
    }

    #[test]
    fn execute_rejects_invalid_without_panicking() {
        let mut r = PortfolioRequest::example(1);
        r.rounds = 0;
        assert!(r.execute().is_err());
    }
}
