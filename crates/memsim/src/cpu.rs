//! A simple out-of-order core model: issue-width-limited retirement with an
//! instruction window and MSHR-limited outstanding misses (paper Table 2:
//! 3-wide issue, 128-entry window, 8 MSHRs/core).

use crate::config::SimConfig;
use crate::controller::{MemoryController, QueuedRequest};
use crate::trace::{Access, AccessTrace};

/// Per-core simulation state.
#[derive(Debug, Clone)]
pub struct Core {
    id: u8,
    trace: AccessTrace,
    pos: usize,
    /// Instructions retired so far.
    retired: u64,
    /// Instruction index of the next memory access in the stream.
    next_access_at: u64,
    /// Outstanding load misses: (instruction index at issue, request id),
    /// oldest first — issue indices never decrease, and completions
    /// remove entries without reordering the rest.
    outstanding: Vec<(u64, u64)>,
    next_req_id: u64,
    /// Cycle at which `target` instructions were first reached.
    finished_at: Option<u64>,
    target: u64,
}

impl Core {
    /// Creates a core replaying `trace` until `target` instructions retire.
    ///
    /// # Panics
    /// Panics if `target == 0`.
    pub fn new(id: u8, trace: AccessTrace, target: u64) -> Self {
        assert!(target > 0, "target instruction count must be nonzero");
        let first_gap = trace.accesses()[0].gap as u64;
        Self {
            id,
            trace,
            pos: 0,
            retired: 0,
            next_access_at: first_gap,
            outstanding: Vec::new(),
            next_req_id: 0,
            finished_at: None,
            target,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycle the instruction target was reached, if it has been.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// IPC over the measured region, if finished.
    pub fn ipc(&self) -> Option<f64> {
        self.finished_at
            .map(|c| self.target as f64 / (c.max(1)) as f64)
    }

    /// Delivers a completed read back to the core.
    pub fn complete(&mut self, id: u64) {
        self.outstanding.retain(|&(_, rid)| rid != id);
    }

    /// The retirement ceiling imposed by the instruction window: the oldest
    /// outstanding miss pins the window.
    fn window_limit(&self, cfg: &SimConfig) -> u64 {
        self.outstanding
            .first()
            .map_or(u64::MAX, |&(instr, _)| instr + cfg.window as u64)
    }

    /// How many plain instructions this core would retire, from the next
    /// cycle on, before it reaches its next access, its window limit or
    /// the instruction before its target, if `mc` stayed as it is. It
    /// spends `headroom / issue_width` cycles retiring exactly
    /// `issue_width` a cycle; the cycle that reaches the target is left to
    /// [`Core::tick`], which records `finished_at`. `u64::MAX` if the core
    /// is stalled — its window is full, or its pending access is blocked
    /// by MSHRs or queue space — which lasts until the controller's state
    /// changes.
    pub(crate) fn headroom(&self, cfg: &SimConfig, mc: &MemoryController) -> u64 {
        let limit = self.window_limit(cfg);
        if self.retired >= limit {
            return u64::MAX;
        }
        if self.retired >= self.next_access_at {
            let blocked = if self.trace.accesses()[self.pos].is_write {
                !mc.can_accept_write()
            } else {
                self.outstanding.len() >= cfg.mshrs as usize || !mc.can_accept_read()
            };
            return if blocked { u64::MAX } else { 0 };
        }
        self.next_access_at.min(limit).min(self.target - 1) - self.retired
    }

    /// Accounts for `cycles` cycles in which [`Core::tick`] would only
    /// retire plain instructions, or nothing at all if the core is
    /// stalled. `cycles · issue_width` must not exceed [`Core::headroom`].
    pub(crate) fn skip(&mut self, cycles: u64, cfg: &SimConfig) {
        if self.retired < self.next_access_at.min(self.window_limit(cfg)) {
            self.retired += cycles * cfg.issue_width as u64;
        }
    }

    /// Advances one cycle: retires instructions and issues memory accesses.
    pub fn tick(&mut self, now: u64, cfg: &SimConfig, mc: &mut MemoryController) {
        let mut budget = cfg.issue_width as u64;
        while budget > 0 {
            let limit = self.window_limit(cfg);
            if self.retired >= limit {
                break; // window full behind an outstanding miss
            }
            if self.retired < self.next_access_at {
                // Retire plain instructions up to the next access, the
                // window limit, or the cycle budget.
                let n = budget
                    .min(self.next_access_at - self.retired)
                    .min(limit - self.retired);
                self.retired += n;
                budget -= n;
                continue;
            }
            // The next instruction is the memory access itself.
            let access: Access = self.trace.accesses()[self.pos];
            if access.is_write {
                if !mc.can_accept_write() {
                    break; // stall on write-queue backpressure
                }
                mc.enqueue_write(QueuedRequest {
                    core: self.id,
                    bank: access.bank,
                    row: access.row,
                    arrival: now,
                    id: self.alloc_id(),
                });
            } else {
                if self.outstanding.len() >= cfg.mshrs as usize || !mc.can_accept_read() {
                    break; // stall: no MSHR or queue space
                }
                let id = self.alloc_id();
                mc.enqueue_read(QueuedRequest {
                    core: self.id,
                    bank: access.bank,
                    row: access.row,
                    arrival: now,
                    id,
                });
                self.outstanding.push((self.retired, id));
            }
            self.retired += 1; // the access instruction itself
            budget -= 1;
            // Replay the trace cyclically.
            self.pos += 1;
            if self.pos == self.trace.len() {
                self.pos = 0;
            }
            self.next_access_at = self.retired + self.trace.accesses()[self.pos].gap as u64;
        }

        if self.finished_at.is_none() && self.retired >= self.target {
            self.finished_at = Some(now + 1);
        }
    }

    fn alloc_id(&mut self) -> u64 {
        // Ids are unique per (core, request): tag with the core id in the
        // high byte so ids never collide across cores.
        let id = (self.id as u64) << 56 | self.next_req_id;
        self.next_req_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn cfg() -> SimConfig {
        SimConfig::lpddr4_3200(8, None)
    }

    #[test]
    fn compute_only_region_retires_at_issue_width() {
        let cfg = cfg();
        let trace = AccessTrace::synthetic_uniform(1_000_000, 4, 0);
        let mut core = Core::new(0, trace, 700);
        let mut mc = MemoryController::new(cfg);
        for now in 0..200 {
            core.tick(now, &cfg, &mut mc);
        }
        // 7-wide: 100 cycles to retire 700.
        assert_eq!(core.finished_at(), Some(100));
        assert!((core.ipc().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_core_is_slower() {
        let cfg = cfg();
        let light = AccessTrace::synthetic_uniform(500, 64, 1);
        let heavy = AccessTrace::synthetic_uniform(5, 64, 1);
        let mut ipcs = Vec::new();
        for trace in [light, heavy] {
            let mut core = Core::new(0, trace, 20_000);
            let mut mc = MemoryController::new(cfg);
            for now in 0..2_000_000 {
                for done in mc.tick(now) {
                    core.complete(done.id);
                }
                core.tick(now, &cfg, &mut mc);
                if core.finished_at().is_some() {
                    break;
                }
            }
            ipcs.push(core.ipc().expect("must finish"));
        }
        assert!(
            ipcs[1] < ipcs[0] * 0.5,
            "heavy {} vs light {}",
            ipcs[1],
            ipcs[0]
        );
    }

    #[test]
    fn mshr_limit_bounds_outstanding() {
        let cfg = cfg();
        // All loads back to back: outstanding must never exceed 8.
        let trace = AccessTrace::new(
            (0..32)
                .map(|i| Access {
                    gap: 0,
                    bank: (i % 8) as u8,
                    row: i as u32 * 7,
                    is_write: false,
                })
                .collect(),
        );
        // All-load stream is data-bus-bound (tBL = 8 cycles per read), so a
        // 2000-load target needs ≥16k cycles; give generous headroom.
        let mut core = Core::new(0, trace, 2_000);
        let mut mc = MemoryController::new(cfg);
        for now in 0..200_000 {
            for done in mc.tick(now) {
                core.complete(done.id);
            }
            core.tick(now, &cfg, &mut mc);
            assert!(core.outstanding.len() <= cfg.mshrs as usize);
            if core.finished_at().is_some() {
                break;
            }
        }
        assert!(core.finished_at().is_some(), "core must make progress");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_target() {
        Core::new(0, AccessTrace::synthetic_uniform(1, 1, 0), 0);
    }
}
