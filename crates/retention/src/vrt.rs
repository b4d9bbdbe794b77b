//! Variable-retention-time (VRT) machinery.
//!
//! The paper characterizes VRT as *ubiquitous and unpredictable*: a cell's
//! retention time alternates between states with memoryless dwell times
//! (§2.3.1), producing (1) trial-to-trial inconsistency among known weak
//! cells and (2) a steady stream of *brand-new* failing cells that keeps the
//! failure profile decaying (§5.3, Figs. 3–4). Both effects are modeled
//! here:
//!
//! * [`TwoStateVrt`] — a continuous-time two-state Markov chain, advanced
//!   lazily with the closed-form transition probability, attached to ~2 % of
//!   base weak cells,
//! * [`ArrivalCell`] — a newly-arrived VRT failing cell (Poisson arrivals,
//!   rate `A(t) = a·t^b` per Fig. 4) with a finite active lifetime so the
//!   failing-set size stays stable (Fig. 3: accumulation ≈ departure).
//!   It holds no chain of its own: every arrival shares one pair of dwell
//!   times, and every arrival round observes every active arrival, so all
//!   of them but the fresh ones were last observed at the same clock. The
//!   chip keeps that clock and advances each arrival's state bit with the
//!   transition probabilities [`TwoStateVrt::low_after`] computes once per
//!   round.

use crate::cell::{WeakCell, FULL_STRESS};
use rand::Rng;

/// A continuous-time two-state retention process: the cell dwells in a
/// *high*-retention state and a *low*-retention state with exponential dwell
/// times; the low state multiplies the cell's μ by a factor < 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStateVrt {
    /// True if the cell is currently in the low-retention state.
    in_low: bool,
    /// Wall-clock time (ms) of the last state observation.
    last_update_ms: f64,
    /// Mean dwell time in the low state (ms).
    dwell_low_ms: f64,
    /// Mean dwell time in the high state (ms).
    dwell_high_ms: f64,
}

impl TwoStateVrt {
    /// Creates a process with the given mean dwell times, starting in the
    /// high state at time `now_ms`.
    ///
    /// # Panics
    /// Panics if either dwell time is not positive.
    pub fn new(dwell_low_ms: f64, dwell_high_ms: f64, now_ms: f64) -> Self {
        assert!(dwell_low_ms > 0.0, "dwell_low_ms must be positive");
        assert!(dwell_high_ms > 0.0, "dwell_high_ms must be positive");
        Self {
            in_low: false,
            last_update_ms: now_ms,
            dwell_low_ms,
            dwell_high_ms,
        }
    }

    /// Stationary probability of being in the low state.
    pub fn duty_low(&self) -> f64 {
        self.dwell_low_ms / (self.dwell_low_ms + self.dwell_high_ms)
    }

    /// Observes the state at wall-clock `now_ms`, advancing the chain with
    /// the exact two-state transition law:
    /// `P(low at t+Δ) = π_L + (s − π_L)·e^{−(λ₁+λ₂)Δ}` where `s` is the
    /// current indicator and `π_L` the stationary low probability.
    ///
    /// Returns whether the cell is in the low-retention state now.
    pub fn observe<R: Rng + ?Sized>(&mut self, now_ms: f64, rng: &mut R) -> bool {
        let u = rng.random::<f64>();
        self.observe_at(now_ms, u)
    }

    /// Like [`TwoStateVrt::observe`], but takes the uniform draw explicitly
    /// instead of a generator. This is what makes parallel trials
    /// deterministic: the caller derives `u` from a per-(cell, trial) hash
    /// stream, so the observed state is independent of evaluation order.
    ///
    /// `u` is ignored when no time has elapsed since the last observation.
    pub fn observe_at(&mut self, now_ms: f64, u: f64) -> bool {
        let dt = (now_ms - self.last_update_ms).max(0.0);
        if dt > 0.0 {
            let [from_high, from_low] = self.low_after(dt);
            self.in_low = u < if self.in_low { from_low } else { from_high };
            self.last_update_ms = now_ms;
        }
        self.in_low
    }

    /// The probability of the low state `dt` ms after an observation in
    /// the high state and in the low state, `[from_high, from_low]`: the
    /// transition law of [`TwoStateVrt::observe_at`], one `exp` for both.
    pub fn low_after(&self, dt: f64) -> [f64; 2] {
        let rate = 1.0 / self.dwell_low_ms + 1.0 / self.dwell_high_ms;
        let pi_low = self.duty_low();
        let decay = (-rate * dt).exp();
        [0.0, 1.0].map(|s| pi_low + (s - pi_low) * decay)
    }

    /// Forces the state and the time of the last observation.
    pub fn force_state(&mut self, in_low: bool, now_ms: f64) {
        self.in_low = in_low;
        self.last_update_ms = now_ms;
    }
}

/// A newly-arrived VRT failing cell (paper §5.3's "steady-state
/// accumulation" population).
///
/// Compact: the cell's index, μ and σ, its expiry and two state bits. An
/// arrival has no DPD and no base VRT chain, and it fails whatever pattern
/// a trial writes, so [`ArrivalCell::cell`] rebuilds the rest of its
/// [`WeakCell`]. Its duty cycling is a [`TwoStateVrt`] whose dwell times
/// every arrival shares and whose last observation is the chip's last
/// arrival round (see the module docs), so only the state bit is stored.
/// Built with [`ArrivalCell::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ArrivalCell {
    /// Dense linear cell index.
    pub index: u64,
    /// Base retention μ (seconds) at the reference temperature; it sits in
    /// the failing range of the interval that spawned the arrival.
    pub mu0: f32,
    /// Retention σ (seconds) at the reference temperature.
    pub sigma0: f32,
    /// Wall-clock ms at which the cell's retention state migrates back out
    /// of the failing range (departure process).
    pub expires_at_ms: f64,
    /// True while the duty-cycling process is in its low-retention state.
    pub in_low: bool,
    /// True until the first trial observes (and thereby "discovers") it.
    pub fresh: bool,
    /// Clock of the last round that observed the arrival, kept in debug
    /// builds only to check that it is the chip's arrival clock.
    #[cfg(debug_assertions)]
    pub(crate) observed_at_ms: f64,
}

impl ArrivalCell {
    /// A fresh arrival in the high state.
    pub fn new(index: u64, mu0: f32, sigma0: f32, expires_at_ms: f64) -> Self {
        Self {
            index,
            mu0,
            sigma0,
            expires_at_ms,
            in_low: false,
            fresh: true,
            #[cfg(debug_assertions)]
            observed_at_ms: f64::NAN,
        }
    }

    /// Whether the cell is still in its active (failing-capable) lifetime.
    pub fn is_active(&self, now_ms: f64) -> bool {
        now_ms < self.expires_at_ms
    }

    /// The arrival as a weak cell: no DPD and no base VRT chain. The
    /// polarity is not stored and reads as `false`.
    pub fn cell(&self) -> WeakCell {
        WeakCell {
            index: self.index,
            mu0: self.mu0,
            sigma0: self.sigma0,
            vulnerable_bit: false,
            dpd_strength: 0.0,
            dpd_signature: 0,
            vrt_index: None,
        }
    }

    /// The trial z-score in the low state: the cell's [`WeakCell::z_at`]
    /// at full stress and no VRT factor, the expression every arrival
    /// round and the ground truth share.
    pub(crate) fn z_score(&self, t_secs: f64, ms_scale: f64, ss_scale: f64) -> f64 {
        self.cell().z_at(FULL_STRESS, t_secs, ms_scale, ss_scale, 1.0)
    }

    /// Records an observation at `now_ms` (debug builds only).
    pub(crate) fn observed(&mut self, now_ms: f64) {
        #[cfg(debug_assertions)]
        {
            self.observed_at_ms = now_ms;
        }
        #[cfg(not(debug_assertions))]
        let _ = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn duty_cycle_matches_dwell_ratio() {
        let v = TwoStateVrt::new(100.0, 900.0, 0.0);
        assert!((v.duty_low() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn long_horizon_observation_reaches_stationarity() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lows = 0;
        let n = 20_000;
        for i in 0..n {
            let mut v = TwoStateVrt::new(100.0, 900.0, 0.0);
            // observe far beyond mixing time
            if v.observe(1e9 + i as f64, &mut rng) {
                lows += 1;
            }
        }
        let frac = lows as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "low fraction {frac}");
    }

    #[test]
    fn zero_elapsed_time_is_stable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = TwoStateVrt::new(10.0, 10.0, 5.0);
        v.force_state(true, 5.0);
        // No time elapsed: state must not change regardless of RNG.
        for _ in 0..100 {
            assert!(v.observe(5.0, &mut rng));
        }
    }

    #[test]
    fn short_horizon_tends_to_persist() {
        let mut rng = StdRng::seed_from_u64(2);
        // dwell times of 1 hour; observe after 1ms: should essentially
        // always stay in the current state.
        let mut stays = 0;
        for _ in 0..1000 {
            let mut v = TwoStateVrt::new(3.6e6, 3.6e6, 0.0);
            v.force_state(true, 0.0);
            if v.observe(1.0, &mut rng) {
                stays += 1;
            }
        }
        assert!(stays > 990, "stays = {stays}");
    }

    #[test]
    fn low_after_is_the_observe_law_from_each_state() {
        // The pair must equal what a chain in each state observes after
        // `dt`, bit for bit: observe with `u` just below and at `p`.
        let v = TwoStateVrt::new(720.0, 6480.0, 0.0);
        for dt in [0.25, 1.0, 3600.0, 8.0 * 3.6e6] {
            let p = v.low_after(dt);
            for (from_low, &p_low) in [false, true].into_iter().zip(&p) {
                let mut at = v;
                at.force_state(from_low, 0.0);
                assert!(at.observe_at(dt, p_low.next_down()));
                let mut at = v;
                at.force_state(from_low, 0.0);
                assert!(!at.observe_at(dt, p_low));
            }
            assert!(p[0] <= v.duty_low() && v.duty_low() <= p[1]);
        }
    }

    #[test]
    #[should_panic(expected = "dwell_low_ms")]
    fn rejects_nonpositive_dwell() {
        TwoStateVrt::new(0.0, 1.0, 0.0);
    }

    #[test]
    fn arrival_activity_window() {
        let cell = WeakCell {
            index: 0,
            mu0: 1.0,
            sigma0: 0.05,
            vulnerable_bit: false,
            dpd_strength: 0.0,
            dpd_signature: 0,
            vrt_index: None,
        };
        let a = ArrivalCell::new(cell.index, cell.mu0, cell.sigma0, 100.0);
        assert_eq!(a.cell(), cell);
        assert!(a.fresh && !a.in_low);
        assert!(a.is_active(50.0));
        assert!(!a.is_active(100.0));
        assert!(!a.is_active(150.0));
    }
}
