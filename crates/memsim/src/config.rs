//! Simulated system configuration (paper Table 2).

use reaper_dram_model::Ms;

use crate::timing::LpddrTimings;

/// Row-buffer management policy (paper Table 2: "open/closed row policy
/// for single/multi-core").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave the row open after an access (exploits locality; the paper's
    /// single-core setting).
    #[default]
    Open,
    /// Precharge immediately after each access (avoids conflict penalties;
    /// the paper's multi-core setting).
    Closed,
}

/// Refresh command granularity (LPDDR4 supports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// All-bank refresh (REFab): every `tREFI`, all banks block for
    /// `tRFCab`. The paper's evaluation mode.
    #[default]
    AllBank,
    /// Per-bank refresh (REFpb): banks refresh round-robin every
    /// `tREFI / banks`, each blocking only itself for `tRFCpb` (~half of
    /// `tRFCab`), letting the other banks keep serving requests.
    PerBank,
}

/// Configuration of the simulated system.
///
/// Defaults mirror the paper's Table 2: 4 cores, 3-wide issue, 128-entry
/// instruction window, 8 MSHRs/core, 64-entry read/write queues, FR-FCFS,
/// LPDDR4-3200 with 8 banks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Issue width of each core (instructions/cycle at 1:1 CPU:memory clock;
    /// the 4 GHz / 1.6 GHz ratio is folded into the width).
    pub issue_width: u32,
    /// Instruction-window (ROB) size limiting run-ahead past an outstanding
    /// load.
    pub window: u32,
    /// Miss-status-holding registers per core (outstanding misses).
    pub mshrs: u32,
    /// Read-queue capacity.
    pub read_queue: usize,
    /// Write-queue capacity.
    pub write_queue: usize,
    /// Write-queue drain watermark.
    pub write_drain_at: usize,
    /// DRAM banks per rank.
    pub banks: u8,
    /// DRAM timings.
    pub timings: LpddrTimings,
    /// Refresh window (the paper's "refresh interval"): `None` disables
    /// refresh entirely (Fig. 13's "no ref" bars).
    pub refresh_interval: Option<Ms>,
    /// Refresh command granularity.
    pub refresh_mode: RefreshMode,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
}

impl SimConfig {
    /// The paper's Table 2 system for a given chip density, at the given
    /// refresh interval (`None` = refresh disabled).
    pub fn lpddr4_3200(chip_gbit: u32, refresh_interval: Option<Ms>) -> Self {
        // 4 GHz cores, 3-wide ⇒ 7.5 instructions per 1.6 GHz memory cycle
        // peak; round to 7 (integer issue per memory cycle).
        Self {
            issue_width: 7,
            window: 128,
            mshrs: 8,
            read_queue: 64,
            write_queue: 64,
            write_drain_at: 48,
            banks: 8,
            timings: LpddrTimings::lpddr4_3200(chip_gbit),
            refresh_interval,
            refresh_mode: RefreshMode::AllBank,
            row_policy: RowPolicy::Open,
        }
    }

    /// Switches to the closed-row policy (Table 2's multi-core setting).
    pub fn with_closed_rows(mut self) -> Self {
        self.row_policy = RowPolicy::Closed;
        self
    }

    /// Switches to per-bank refresh (REFpb).
    pub fn with_per_bank_refresh(mut self) -> Self {
        self.refresh_mode = RefreshMode::PerBank;
        self
    }

    /// Cycles between two refresh commands: `tREFI` for REFab, `tREFI /
    /// banks` for REFpb (one bank per command, round robin). `None` with
    /// refresh disabled.
    ///
    /// # Panics
    /// Panics if the refresh interval is not positive.
    pub fn refresh_command_cycles(&self) -> Option<u64> {
        let t_refi = self.timings.t_refi_cycles(self.refresh_interval?.as_ms());
        Some(match self.refresh_mode {
            RefreshMode::AllBank => t_refi,
            RefreshMode::PerBank => t_refi / u64::from(self.banks),
        })
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.issue_width == 0 {
            return Err("issue_width must be nonzero");
        }
        if self.window == 0 {
            return Err("window must be nonzero");
        }
        if self.mshrs == 0 {
            return Err("mshrs must be nonzero");
        }
        if self.read_queue == 0 || self.write_queue == 0 {
            return Err("queues must be nonempty");
        }
        if self.write_drain_at >= self.write_queue {
            return Err("write_drain_at must be below write_queue capacity");
        }
        if self.banks == 0 {
            return Err("banks must be nonzero");
        }
        if let Some(r) = self.refresh_interval {
            if !r.is_positive() {
                return Err("refresh interval must be positive");
            }
        }
        // Each refresh blocks its bank for tRFC. A bank refreshed again
        // before that ends never serves a request, and a zero command
        // interval issues a refresh every cycle: `simulate` would run to
        // its cycle bound.
        if let Some(every) = self.refresh_command_cycles() {
            let (per_bank, t_rfc) = match self.refresh_mode {
                RefreshMode::AllBank => (every, self.timings.t_rfc_ab),
                RefreshMode::PerBank => (every * u64::from(self.banks), self.timings.t_rfc_pb),
            };
            if every == 0 || per_bank <= u64::from(t_rfc) {
                return Err("refresh interval too short: a bank is refreshed again before tRFC ends");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{CLOCK_HZ, REFRESHES_PER_WINDOW};

    #[test]
    fn table2_defaults_validate() {
        for gb in [8, 16, 32, 64] {
            SimConfig::lpddr4_3200(gb, Some(Ms::new(64.0)))
                .validate()
                .unwrap();
            SimConfig::lpddr4_3200(gb, None).validate().unwrap();
        }
    }

    #[test]
    fn row_policy_toggles() {
        let c = SimConfig::lpddr4_3200(8, None).with_closed_rows();
        assert_eq!(c.row_policy, RowPolicy::Closed);
        c.validate().unwrap();
        assert_eq!(SimConfig::lpddr4_3200(8, None).row_policy, RowPolicy::Open);
    }

    #[test]
    fn per_bank_mode_toggles() {
        let c = SimConfig::lpddr4_3200(8, Some(Ms::new(64.0))).with_per_bank_refresh();
        assert_eq!(c.refresh_mode, RefreshMode::PerBank);
        c.validate().unwrap();
        assert_eq!(
            SimConfig::lpddr4_3200(8, None).refresh_mode,
            RefreshMode::AllBank
        );
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = SimConfig::lpddr4_3200(8, None);
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::lpddr4_3200(8, None);
        c.write_drain_at = c.write_queue;
        assert!(c.validate().is_err());
        let mut c = SimConfig::lpddr4_3200(8, None);
        c.refresh_interval = Some(Ms::ZERO);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_refresh_a_bank_never_recovers_from() {
        // REFpb at 0.04 ms on 8 Gb: tREFI is 7 cycles, so the per-bank
        // command interval truncates to 0 and a refresh would issue every
        // cycle; `simulate` used to run to its cycle bound and panic.
        let c = SimConfig::lpddr4_3200(8, Some(Ms::new(0.04))).with_per_bank_refresh();
        assert_eq!(c.refresh_command_cycles(), Some(0));
        assert!(c.validate().is_err());
        // The bound in each mode: a bank refreshed every tRFC cycles is
        // rejected, the next command interval up is accepted.
        let with_refi = |t_refi: u64, per_bank: bool| {
            // Half a cycle past `t_refi`, so the cycle count truncates to it.
            let window = (t_refi as f64 + 0.5) * REFRESHES_PER_WINDOW as f64 / CLOCK_HZ * 1e3;
            let c = SimConfig::lpddr4_3200(8, Some(Ms::new(window)));
            if per_bank {
                c.with_per_bank_refresh()
            } else {
                c
            }
        };
        let timings = SimConfig::lpddr4_3200(8, None).timings;
        let (t_rfc_ab, t_rfc_pb) = (u64::from(timings.t_rfc_ab), u64::from(timings.t_rfc_pb));
        assert_eq!(with_refi(t_rfc_ab, false).refresh_command_cycles(), Some(t_rfc_ab));
        assert!(with_refi(t_rfc_ab, false).validate().is_err());
        assert!(with_refi(t_rfc_ab + 1, false).validate().is_ok());
        // REFpb: 8 banks, so a bank's refreshes are 8 command intervals apart.
        let every = t_rfc_pb / 8;
        assert_eq!(with_refi(8 * every, true).refresh_command_cycles(), Some(every));
        assert!(with_refi(8 * every, true).validate().is_err());
        assert!(with_refi(8 * (every + 1), true).validate().is_ok());
    }
}
