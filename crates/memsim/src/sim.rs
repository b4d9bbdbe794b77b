//! Top-level simulation driver and result types.

use crate::config::SimConfig;
use crate::controller::MemoryController;
use crate::cpu::Core;
use crate::trace::AccessTrace;

/// DRAM command counts accumulated over a simulation — the inputs to the
/// `reaper-power` DRAM power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommandStats {
    /// Row activations issued.
    pub activates: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// All-bank refresh commands (REFab) issued.
    pub refreshes: u64,
    /// Per-bank refresh commands (REFpb) issued.
    pub per_bank_refreshes: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required an activation.
    pub row_misses: u64,
}

impl CommandStats {
    /// Row-buffer hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The outcome of one multi-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-core IPC over each core's measured region.
    pub ipc: Vec<f64>,
    /// Total cycles simulated (until the last core finished).
    pub cycles: u64,
    /// DRAM command counts.
    pub stats: CommandStats,
}

impl SimResult {
    /// Sum of per-core IPCs (system throughput).
    pub fn total_ipc(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// Wall-clock seconds the simulated region represents.
    pub fn elapsed_secs(&self) -> f64 {
        self.cycles as f64 / crate::timing::CLOCK_HZ
    }
}

/// Most cores one simulation can run: request ids carry the core id in
/// their top byte.
const MAX_CORES: usize = 256;

/// Runs `traces` (one per core) on the configured system until every core
/// retires `instructions_per_core`, and reports per-core IPC plus DRAM
/// command counts.
///
/// The loop is event-driven but cycle-exact: after each simulated cycle it
/// jumps straight to the next cycle at which anything can happen — a
/// refresh, a read completion, a bank holding queued work becoming ready,
/// or a core reaching its next access, its window limit or its target.
/// In the cycles in between every computing core retires exactly
/// `issue_width` instructions and nothing else changes, so the results
/// equal those of ticking every cycle.
///
/// # Panics
/// Panics if `traces` is empty or has more than 256 entries (one per core
/// id), if a trace addresses a bank at or beyond `cfg.banks`, if
/// `instructions_per_core == 0`, if the config is invalid, or if a core
/// fails to finish within a generous cycle bound (indicating a scheduling
/// deadlock — a bug, not a configuration issue).
pub fn simulate(cfg: &SimConfig, traces: &[AccessTrace], instructions_per_core: u64) -> SimResult {
    assert!(!traces.is_empty(), "need at least one trace");
    assert!(
        traces.len() <= MAX_CORES,
        "at most {MAX_CORES} cores, got {}",
        traces.len()
    );
    assert!(instructions_per_core > 0, "need a nonzero instruction target");
    // lint: allow(panic) documented `# Panics` contract of the entry point
    cfg.validate().expect("invalid sim config");
    assert!(
        traces
            .iter()
            .all(|t| t.accesses().iter().all(|a| a.bank < cfg.banks)),
        "trace addresses a bank beyond the configured {} banks",
        cfg.banks
    );

    let mut mc = MemoryController::new(*cfg);
    let mut cores: Vec<Core> = traces
        .iter()
        .zip(0..=u8::MAX)
        .map(|(t, id)| Core::new(id, t.clone(), instructions_per_core))
        .collect();

    // Generous bound: even a fully serialized miss stream finishes well
    // inside ~2000 cycles per instruction.
    let max_cycles = instructions_per_core
        .saturating_mul(2000)
        .saturating_add(1_000_000);

    let mut completed = Vec::new();
    let mut now = 0u64;
    while now < max_cycles {
        mc.tick_into(now, &mut completed);
        for done in &completed {
            cores[done.core as usize].complete(done.id);
        }
        let mut all_done = true;
        for core in &mut cores {
            if core.finished_at().is_none() {
                core.tick(now, cfg, &mut mc);
                all_done &= core.finished_at().is_some();
            }
        }
        if all_done {
            break;
        }
        // Skip the cycles in which neither the controller nor any core
        // does more than retire plain instructions. Every core retires at
        // the same width, so the fewest cycles any core allows is the
        // least headroom over the width: one division, and none when the
        // next cycle is eventful or a core is about to act.
        let mut skip = mc.next_event().clamp(now + 1, max_cycles) - now - 1;
        if skip > 0 {
            let width = cfg.issue_width as u64;
            let headroom = cores
                .iter()
                .filter(|c| c.finished_at().is_none())
                .map(|c| c.headroom(cfg, &mc))
                .min()
                .unwrap_or(u64::MAX);
            skip = if headroom < width {
                0
            } else {
                skip.min(headroom / width)
            };
            for core in cores.iter_mut().filter(|c| c.finished_at().is_none()) {
                core.skip(skip, cfg);
            }
        }
        now += skip + 1;
    }

    let ipc: Vec<f64> = cores
        .iter()
        .map(|c| {
            c.ipc()
                // lint: allow(panic) documented `# Panics`: non-termination is a simulator bug
                .unwrap_or_else(|| panic!("core failed to finish within {max_cycles} cycles"))
        })
        .collect();

    SimResult {
        ipc,
        cycles: now.min(max_cycles),
        stats: *mc.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_dram_model::Ms;

    #[test]
    fn single_core_compute_bound() {
        let cfg = SimConfig::lpddr4_3200(8, None);
        let trace = AccessTrace::synthetic_uniform(10_000, 16, 0);
        let r = simulate(&cfg, &[trace], 100_000);
        assert!(r.ipc[0] > 6.0, "ipc {}", r.ipc[0]);
        assert!(r.total_ipc() == r.ipc[0]);
    }

    #[test]
    fn four_core_contention_lowers_ipc() {
        let cfg = SimConfig::lpddr4_3200(8, None);
        let solo = simulate(
            &cfg,
            &[AccessTrace::synthetic_uniform(20, 512, 0)],
            50_000,
        );
        let traces: Vec<AccessTrace> = (0..4)
            .map(|i| AccessTrace::synthetic_uniform(20, 512, i))
            .collect();
        let shared = simulate(&cfg, &traces, 50_000);
        assert_eq!(shared.ipc.len(), 4);
        assert!(
            shared.ipc[0] < solo.ipc[0],
            "shared {} vs solo {}",
            shared.ipc[0],
            solo.ipc[0]
        );
    }

    #[test]
    fn refresh_costs_performance_and_shows_in_stats() {
        let traces: Vec<AccessTrace> = (0..4)
            .map(|i| AccessTrace::synthetic_uniform(15, 512, i))
            .collect();
        let no_ref = simulate(&SimConfig::lpddr4_3200(64, None), &traces, 30_000);
        let with_ref = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(64.0))),
            &traces,
            30_000,
        );
        assert_eq!(no_ref.stats.refreshes, 0);
        assert!(with_ref.stats.refreshes > 0);
        assert!(
            with_ref.total_ipc() < no_ref.total_ipc() * 0.97,
            "refresh must cost >3%: {} vs {}",
            with_ref.total_ipc(),
            no_ref.total_ipc()
        );
    }

    #[test]
    fn longer_refresh_interval_recovers_performance() {
        let traces: Vec<AccessTrace> = (0..4)
            .map(|i| AccessTrace::synthetic_uniform(15, 512, i))
            .collect();
        let base = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(64.0))),
            &traces,
            30_000,
        );
        let extended = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(1024.0))),
            &traces,
            30_000,
        );
        let none = simulate(&SimConfig::lpddr4_3200(64, None), &traces, 30_000);
        assert!(extended.total_ipc() > base.total_ipc());
        assert!(none.total_ipc() >= extended.total_ipc() * 0.999);
    }

    #[test]
    fn larger_chips_pay_more_for_refresh() {
        let traces: Vec<AccessTrace> = (0..4)
            .map(|i| AccessTrace::synthetic_uniform(15, 512, i))
            .collect();
        let gain = |gb: u32| {
            let with_ref = simulate(
                &SimConfig::lpddr4_3200(gb, Some(Ms::new(64.0))),
                &traces,
                30_000,
            );
            let no_ref = simulate(&SimConfig::lpddr4_3200(gb, None), &traces, 30_000);
            no_ref.total_ipc() / with_ref.total_ipc()
        };
        let small = gain(8);
        let large = gain(64);
        assert!(
            large > small,
            "64Gb gain {large} must exceed 8Gb gain {small}"
        );
    }

    #[test]
    fn per_bank_refresh_outperforms_all_bank_under_load() {
        let traces: Vec<AccessTrace> = (0..4)
            .map(|i| AccessTrace::synthetic_uniform(12, 512, i))
            .collect();
        let ab = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(64.0))),
            &traces,
            30_000,
        );
        let pb = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(64.0))).with_per_bank_refresh(),
            &traces,
            30_000,
        );
        assert_eq!(pb.stats.refreshes, 0);
        assert!(pb.stats.per_bank_refreshes > 0);
        // REFpb blocks one bank at a time for half the duration: total
        // blocked bank-time matches REFab, but it overlaps with service on
        // the other 7 banks, so throughput improves.
        assert!(
            pb.total_ipc() > ab.total_ipc(),
            "per-bank {} vs all-bank {}",
            pb.total_ipc(),
            ab.total_ipc()
        );
    }

    #[test]
    fn command_stats_are_consistent() {
        let cfg = SimConfig::lpddr4_3200(8, Some(Ms::new(64.0)));
        let trace = AccessTrace::synthetic_uniform(50, 256, 3);
        let r = simulate(&cfg, &[trace], 20_000);
        let s = r.stats;
        assert_eq!(s.row_hits + s.row_misses, s.reads + s.writes);
        assert_eq!(s.activates, s.row_misses);
        assert!(s.row_hit_rate() >= 0.0 && s.row_hit_rate() <= 1.0);
        assert!(r.elapsed_secs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn rejects_empty_traces() {
        simulate(&SimConfig::lpddr4_3200(8, None), &[], 100);
    }

    #[test]
    #[should_panic(expected = "at most 256 cores, got 257")]
    fn rejects_more_cores_than_request_ids_can_tag() {
        // A 257th core would share core id 0 and its request ids.
        let traces = vec![AccessTrace::synthetic_uniform(10, 4, 0); MAX_CORES + 1];
        simulate(&SimConfig::lpddr4_3200(8, None), &traces, 100);
    }

    #[test]
    #[should_panic(expected = "beyond the configured 4 banks")]
    fn rejects_accesses_to_missing_banks() {
        let mut cfg = SimConfig::lpddr4_3200(8, None);
        cfg.banks = 4;
        // synthetic_uniform walks banks 0..8.
        simulate(&cfg, &[AccessTrace::synthetic_uniform(10, 8, 0)], 100);
    }

    #[test]
    fn runs_the_full_core_range() {
        let traces: Vec<AccessTrace> = (0..MAX_CORES as u64)
            .map(|i| AccessTrace::synthetic_uniform(400, 4, i))
            .collect();
        let r = simulate(&SimConfig::lpddr4_3200(8, None), &traces, 2_000);
        assert_eq!(r.ipc.len(), MAX_CORES);
        assert_eq!(
            r.stats.reads + r.stats.writes,
            r.stats.row_hits + r.stats.row_misses
        );
    }
}
