//! Cycle-level LPDDR4 memory-system simulator — the reproduction's
//! substitute for Ramulator (paper §7.2, Table 2).
//!
//! Simulates the paper's evaluated system: 4 cores (3-wide issue, 128-entry
//! instruction window, 8 MSHRs/core), a memory controller with 64-entry
//! read/write queues and FR-FCFS scheduling, and an LPDDR4-3200 rank of 8
//! banks with JEDEC timing, all-bank refresh whose `tRFC` scales with chip
//! density, and a configurable refresh interval.
//!
//! The model is deliberately at the fidelity Fig. 13 needs: performance
//! deltas across refresh intervals come from bank unavailability during
//! refresh (`tRFC` every `tREFI`), bandwidth contention, and row-buffer
//! locality — all of which are modeled to the cycle. Command counts are
//! reported for the `reaper-power` DRAM power model.
//!
//! [`simulate`] is event-driven. After each simulated cycle it computes
//! the next cycle at which the controller can act — a refresh falls due,
//! a read completes, or a bank holding queued work in the queue being
//! served becomes ready — and how long each core would only retire
//! `issue_width` plain instructions before reaching its next access, its
//! window limit or its instruction target. It credits the cycles in
//! between in one step and ticks the next eventful one. This is exact:
//! in a skipped cycle the controller would issue nothing, refresh nothing
//! and complete nothing, no core would enqueue, so every core sees the
//! same controller state cycle after cycle. Fig. 13's mixes visit about
//! one cycle in ten. `crates/memsim/tests/properties.rs` checks the
//! result against the every-cycle loop on random systems and traces.
//!
//! # Example
//!
//! ```
//! use reaper_memsim::{simulate, AccessTrace, SimConfig};
//! use reaper_dram_model::Ms;
//!
//! // A trivially memory-light trace: one access every 200 instructions.
//! let trace = AccessTrace::synthetic_uniform(200, 1000, 7);
//! let cfg = SimConfig::lpddr4_3200(8, Some(Ms::new(64.0)));
//! let result = simulate(&cfg, &[trace], 50_000);
//! assert!(result.ipc[0] > 0.5);
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

pub mod address;
pub mod config;
pub mod controller;
pub mod cpu;
pub mod sim;
pub mod timing;
pub mod trace;

pub use address::{AddressMapper, Interleave, MappedAddress};
pub use config::{RefreshMode, RowPolicy, SimConfig};
pub use sim::{simulate, CommandStats, SimResult};
pub use timing::{LpddrTimings, UnsupportedDensity};
pub use trace::{Access, AccessTrace};

/// Weighted speedup (paper §7.2, [Snavely & Tullsen ASPLOS'00]):
/// `Σ IPC_shared_i / IPC_alone_i`.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or any alone-IPC is
/// not positive.
pub fn weighted_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "core count mismatch");
    assert!(!shared.is_empty(), "need at least one core");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(a > 0.0, "alone IPC must be positive");
            s / a
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_identity() {
        let ipc = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&ipc, &ipc) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_degradation() {
        let shared = [0.5, 1.0];
        let alone = [1.0, 2.0];
        assert!((weighted_speedup(&shared, &alone) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn weighted_speedup_length_mismatch() {
        weighted_speedup(&[1.0], &[1.0, 2.0]);
    }
}
