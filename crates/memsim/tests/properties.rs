//! Property-based tests of the memory-system simulator.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use proptest::prelude::*;
use reaper_dram_model::Ms;
use reaper_memsim::controller::MemoryController;
use reaper_memsim::cpu::Core;
use reaper_memsim::timing::{CLOCK_HZ, REFRESHES_PER_WINDOW};
use reaper_memsim::{simulate, Access, AccessTrace, RefreshMode, RowPolicy, SimConfig, SimResult};

fn any_trace(max_len: usize) -> impl Strategy<Value = AccessTrace> {
    proptest::collection::vec(
        (0u32..200, 0u8..8, 0u32..1000, any::<bool>()).prop_map(|(gap, bank, row, is_write)| {
            Access {
                gap,
                bank,
                row,
                is_write,
            }
        }),
        1..max_len,
    )
    .prop_map(AccessTrace::new)
}

/// The oracle: the simulator loop that ticks the controller and every
/// unfinished core on every cycle, written against the public
/// `MemoryController` and `Core` API. `simulate` skips the cycles in
/// which nothing can happen and must agree with it exactly.
fn every_cycle(cfg: &SimConfig, traces: &[AccessTrace], instructions: u64) -> SimResult {
    let mut mc = MemoryController::new(*cfg);
    let mut cores: Vec<Core> = (0u8..)
        .zip(traces)
        .map(|(id, t)| Core::new(id, t.clone(), instructions))
        .collect();
    let max_cycles = instructions.saturating_mul(2000).saturating_add(1_000_000);
    let mut now = 0u64;
    while now < max_cycles {
        for done in mc.tick(now) {
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
        now += 1;
    }
    SimResult {
        ipc: cores
            .iter()
            .map(|c| c.ipc().expect("core must finish"))
            .collect(),
        cycles: now.min(max_cycles),
        stats: *mc.stats(),
    }
}

/// A small random system. The refresh interval is a multiple of 2.5–40
/// `tRFC`s, so refreshes stay a bounded share of time yet land every few
/// hundred to few thousand cycles — inside the stretches `simulate`
/// skips.
fn any_config() -> impl Strategy<Value = SimConfig> {
    (
        (1u32..8, 4u32..129, 1u32..9, 1u8..9),
        (2usize..65, 2usize..65, 0usize..64),
        (
            0usize..4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            2.5f64..40.0,
        ),
    )
        .prop_map(
            |(
                (issue_width, window, mshrs, banks),
                (read_queue, write_queue, drain),
                (density, refresh, per_bank, closed, refi_in_rfcs),
            )| {
                let mut cfg = SimConfig::lpddr4_3200([8, 16, 32, 64][density], None);
                cfg.issue_width = issue_width;
                cfg.window = window;
                cfg.mshrs = mshrs;
                cfg.banks = banks;
                cfg.read_queue = read_queue;
                cfg.write_queue = write_queue;
                cfg.write_drain_at = 1 + drain % (write_queue - 1);
                if refresh {
                    let refi_cycles = f64::from(cfg.timings.t_rfc_ab) * refi_in_rfcs;
                    let window_ms = refi_cycles * REFRESHES_PER_WINDOW as f64 / CLOCK_HZ * 1e3;
                    cfg.refresh_interval = Some(Ms::new(window_ms));
                }
                if per_bank {
                    cfg.refresh_mode = RefreshMode::PerBank;
                }
                if closed {
                    cfg.row_policy = RowPolicy::Closed;
                }
                cfg
            },
        )
}

/// Random traces for up to four cores, with zero-gap bursts and
/// stretches of long gaps.
fn any_traces() -> impl Strategy<Value = Vec<AccessTrace>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u32..4, 0u32..300, 0u8..8, 0u32..64, any::<bool>()).prop_map(
                |(kind, gap, bank, row, is_write)| Access {
                    gap: if kind == 0 { 0 } else { gap >> (2 * kind) },
                    bank,
                    row,
                    is_write,
                },
            ),
            1..96,
        )
        .prop_map(AccessTrace::new),
        1..5,
    )
}

/// `trace` with every bank folded into `0..banks`.
fn fold_banks(trace: &AccessTrace, banks: u8) -> AccessTrace {
    AccessTrace::new(
        (0..trace.len())
            .map(|i| Access {
                bank: trace.access(i).bank % banks,
                ..trace.access(i)
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulate_matches_the_every_cycle_loop(
        cfg in any_config(),
        traces in any_traces(),
        instructions in 1_000u64..6_000,
    ) {
        let traces: Vec<AccessTrace> = traces.iter().map(|t| fold_banks(t, cfg.banks)).collect();
        let want = every_cycle(&cfg, &traces, instructions);
        let got = simulate(&cfg, &traces, instructions);
        prop_assert_eq!(got.cycles, want.cycles, "{:?}", cfg);
        prop_assert_eq!(got.stats, want.stats, "{:?}", cfg);
        let bits = |r: &SimResult| r.ipc.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ipc_never_exceeds_issue_width(trace in any_trace(64)) {
        let cfg = SimConfig::lpddr4_3200(8, Some(Ms::new(64.0)));
        let r = simulate(&cfg, &[trace], 5_000);
        prop_assert!(r.ipc[0] <= cfg.issue_width as f64 + 1e-9);
        prop_assert!(r.ipc[0] > 0.0);
    }

    #[test]
    fn command_stats_are_internally_consistent(trace in any_trace(64)) {
        let cfg = SimConfig::lpddr4_3200(16, Some(Ms::new(64.0)));
        let r = simulate(&cfg, &[trace], 5_000);
        let s = r.stats;
        prop_assert_eq!(s.row_hits + s.row_misses, s.reads + s.writes);
        prop_assert_eq!(s.activates, s.row_misses);
    }

    #[test]
    fn disabling_refresh_never_hurts(trace in any_trace(48)) {
        let with_ref = simulate(
            &SimConfig::lpddr4_3200(64, Some(Ms::new(64.0))),
            std::slice::from_ref(&trace),
            8_000,
        );
        let no_ref = simulate(
            &SimConfig::lpddr4_3200(64, None),
            std::slice::from_ref(&trace),
            8_000,
        );
        prop_assert!(no_ref.ipc[0] >= with_ref.ipc[0] * 0.999);
        prop_assert_eq!(no_ref.stats.refreshes, 0);
    }

    #[test]
    fn simulation_is_deterministic(trace in any_trace(48)) {
        let cfg = SimConfig::lpddr4_3200(8, Some(Ms::new(128.0)));
        let a = simulate(&cfg, std::slice::from_ref(&trace), 4_000);
        let b = simulate(&cfg, std::slice::from_ref(&trace), 4_000);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn data_bus_bandwidth_bounds_command_throughput(trace in any_trace(32)) {
        // Each burst occupies the shared bus for tBL cycles, so total
        // column accesses can never exceed cycles / tBL. (Note per-core IPC
        // may *rise* with a co-runner — FR-FCFS lets cores share row
        // activations constructively — so no per-core monotonicity holds.)
        let cfg = SimConfig::lpddr4_3200(8, None);
        let r = simulate(&cfg, &[trace.clone(), trace], 4_000);
        let bursts = r.stats.reads + r.stats.writes;
        let capacity = r.cycles / cfg.timings.t_bl as u64 + 1;
        prop_assert!(bursts <= capacity, "{bursts} bursts in {} cycles", r.cycles);
    }
}
