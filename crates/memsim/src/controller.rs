//! The memory controller: FR-FCFS scheduling over banked LPDDR4 with
//! all-bank refresh.

use std::collections::VecDeque;

use crate::config::{RefreshMode, RowPolicy, SimConfig};
use crate::sim::CommandStats;

/// A queued memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Issuing core.
    pub core: u8,
    /// Target bank.
    pub bank: u8,
    /// Target row.
    pub row: u32,
    /// Enqueue cycle (FCFS tiebreak).
    pub arrival: u64,
    /// Caller-assigned identifier, echoed on completion.
    pub id: u64,
}

/// A completed read: data returned to `core` for request `id` at `done_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRead {
    /// Core that issued the read.
    pub core: u8,
    /// Request identifier.
    pub id: u64,
    /// Cycle the data burst finished.
    pub done_at: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u32>,
    ready_at: u64,
}

/// FR-FCFS memory controller over one LPDDR4 rank.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: SimConfig,
    banks: Vec<Bank>,
    read_queue: Vec<QueuedRequest>,
    write_queue: Vec<QueuedRequest>,
    /// Queued reads per bank, parallel to `banks`.
    reads_per_bank: Vec<u32>,
    /// Queued writes per bank, parallel to `banks`.
    writes_per_bank: Vec<u32>,
    /// Issued reads in issue order. Each completes at its data burst's
    /// end, and bursts are serialized on the bus, so completion times
    /// never decrease from front to back.
    in_flight: VecDeque<CompletedRead>,
    bus_free_at: u64,
    next_refresh_at: Option<u64>,
    refresh_interval_cycles: u64,
    next_refresh_bank: u8,
    stats: CommandStats,
}

impl MemoryController {
    /// Creates a controller for `cfg`.
    ///
    /// # Panics
    /// Panics if the config fails validation.
    pub fn new(cfg: SimConfig) -> Self {
        // lint: allow(panic) documented `# Panics` contract of the constructor
        cfg.validate().expect("invalid sim config");
        // Per-bank refresh: one bank refreshes every tREFI / banks.
        let refresh_interval_cycles = cfg.refresh_command_cycles().unwrap_or(0);
        Self {
            banks: vec![Bank::default(); cfg.banks as usize],
            read_queue: Vec::with_capacity(cfg.read_queue),
            write_queue: Vec::with_capacity(cfg.write_queue),
            reads_per_bank: vec![0; cfg.banks as usize],
            writes_per_bank: vec![0; cfg.banks as usize],
            in_flight: VecDeque::new(),
            bus_free_at: 0,
            next_refresh_at: cfg.refresh_interval.map(|_| refresh_interval_cycles),
            refresh_interval_cycles,
            next_refresh_bank: 0,
            stats: CommandStats::default(),
            cfg,
        }
    }

    /// True if the read queue has room.
    pub fn can_accept_read(&self) -> bool {
        self.read_queue.len() < self.cfg.read_queue
    }

    /// True if the write queue has room.
    pub fn can_accept_write(&self) -> bool {
        self.write_queue.len() < self.cfg.write_queue
    }

    /// Enqueues a read.
    ///
    /// # Panics
    /// Panics if the read queue is full (callers must check
    /// [`MemoryController::can_accept_read`]) or `req.bank` is not a bank
    /// of this rank.
    pub fn enqueue_read(&mut self, req: QueuedRequest) {
        assert!(self.can_accept_read(), "read queue full");
        self.reads_per_bank[req.bank as usize] += 1;
        self.read_queue.push(req);
    }

    /// Enqueues a posted write.
    ///
    /// # Panics
    /// Panics if the write queue is full or `req.bank` is not a bank of
    /// this rank.
    pub fn enqueue_write(&mut self, req: QueuedRequest) {
        assert!(self.can_accept_write(), "write queue full");
        self.writes_per_bank[req.bank as usize] += 1;
        self.write_queue.push(req);
    }

    /// Accumulated command statistics.
    pub fn stats(&self) -> &CommandStats {
        &self.stats
    }

    /// Outstanding queued requests (reads + writes), for drain checks.
    pub fn pending(&self) -> usize {
        self.read_queue.len() + self.write_queue.len()
    }

    /// Advances one cycle: handles refresh, issues at most one command
    /// (FR-FCFS), and returns reads whose data completed this cycle.
    pub fn tick(&mut self, now: u64) -> Vec<CompletedRead> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// [`MemoryController::tick`] into a caller-owned buffer, which is
    /// cleared first.
    pub(crate) fn tick_into(&mut self, now: u64, done: &mut Vec<CompletedRead>) {
        self.maybe_refresh(now);
        self.maybe_issue(now);

        done.clear();
        while let Some(c) = self.in_flight.front().copied() {
            if c.done_at > now {
                break;
            }
            done.push(c);
            self.in_flight.pop_front();
        }
    }

    /// The earliest cycle at which [`MemoryController::tick`] can change
    /// any state, provided nothing is enqueued first: the next refresh,
    /// the next read completion, or the cycle the first bank holding work
    /// in the queue the scheduler serves becomes ready. Every tick before
    /// it does nothing. May lie in the past when such a bank is already
    /// ready; `u64::MAX` if nothing is pending.
    pub(crate) fn next_event(&self) -> u64 {
        let mut at = self.next_refresh_at.unwrap_or(u64::MAX);
        if let Some(c) = self.in_flight.front() {
            at = at.min(c.done_at);
        }
        for (bank, &queued) in self.banks.iter().zip(self.served_per_bank()) {
            // `ready_at`, or `u64::MAX` for a bank without work. Branch-free
            // on purpose: whether a bank holds work follows the traffic, and
            // the mispredicted branches cost ~20 % of the simulation loop.
            at = at.min(bank.ready_at | u64::from(queued == 0).wrapping_neg());
        }
        at
    }

    /// True when the scheduler serves the write queue this cycle: it is
    /// past the drain mark, or it is the only queue with work.
    fn draining(&self) -> bool {
        self.write_queue.len() >= self.cfg.write_drain_at
            || (self.read_queue.is_empty() && !self.write_queue.is_empty())
    }

    /// Per-bank request counts of the queue the scheduler serves.
    fn served_per_bank(&self) -> &[u32] {
        if self.draining() {
            &self.writes_per_bank
        } else {
            &self.reads_per_bank
        }
    }

    fn maybe_refresh(&mut self, now: u64) {
        if let Some(due) = self.next_refresh_at {
            if now >= due {
                let t = &self.cfg.timings;
                match self.cfg.refresh_mode {
                    RefreshMode::AllBank => {
                        for bank in &mut self.banks {
                            // REFab precharges all banks and occupies them
                            // for tRFCab.
                            bank.open_row = None;
                            bank.ready_at = bank.ready_at.max(now) + t.t_rfc_ab as u64;
                        }
                        self.stats.refreshes += 1;
                    }
                    RefreshMode::PerBank => {
                        // REFpb: only the round-robin bank blocks, and only
                        // for tRFCpb.
                        let bank = &mut self.banks[self.next_refresh_bank as usize];
                        bank.open_row = None;
                        bank.ready_at = bank.ready_at.max(now) + t.t_rfc_pb as u64;
                        self.next_refresh_bank =
                            (self.next_refresh_bank + 1) % self.cfg.banks;
                        self.stats.per_bank_refreshes += 1;
                    }
                }
                self.next_refresh_at = Some(due + self.refresh_interval_cycles);
            }
        }
    }

    fn maybe_issue(&mut self, now: u64) {
        // No bank with work is ready: FR-FCFS would find no candidate, so
        // skip the queue scan. Branch-free, as in `next_event`.
        let any_ready = self
            .banks
            .iter()
            .zip(self.served_per_bank())
            .fold(false, |any, (bank, &queued)| {
                any | ((queued > 0) & (bank.ready_at <= now))
            });
        if !any_ready {
            return;
        }

        if self.draining() {
            if let Some(idx) = self.pick_fr_fcfs(&self.write_queue, now) {
                let req = self.write_queue.swap_remove(idx);
                self.writes_per_bank[req.bank as usize] -= 1;
                self.issue(req, now, true);
            }
        } else if let Some(idx) = self.pick_fr_fcfs(&self.read_queue, now) {
            let req = self.read_queue.swap_remove(idx);
            self.reads_per_bank[req.bank as usize] -= 1;
            let done = self.issue(req, now, false);
            self.in_flight.push_back(CompletedRead {
                core: req.core,
                id: req.id,
                done_at: done,
            });
        }
    }

    /// FR-FCFS: among requests whose bank is ready this cycle, prefer
    /// row-buffer hits (first-ready); tiebreak by arrival order (FCFS).
    fn pick_fr_fcfs(&self, queue: &[QueuedRequest], now: u64) -> Option<usize> {
        let mut best: Option<(bool, u64, usize)> = None; // (is_hit, arrival, idx)
        for (idx, req) in queue.iter().enumerate() {
            let bank = &self.banks[req.bank as usize];
            if bank.ready_at > now {
                continue;
            }
            let is_hit = bank.open_row == Some(req.row);
            let key = (is_hit, req.arrival, idx);
            best = match best {
                None => Some(key),
                Some(cur) => {
                    // Hits beat misses; earlier arrivals beat later.
                    let better = (key.0 && !cur.0) || (key.0 == cur.0 && key.1 < cur.1);
                    if better {
                        Some(key)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        best.map(|(_, _, idx)| idx)
    }

    /// Issues `req` on its bank; returns the data-completion cycle.
    fn issue(&mut self, req: QueuedRequest, now: u64, is_write: bool) -> u64 {
        let t = self.cfg.timings;
        let bank = &mut self.banks[req.bank as usize];
        debug_assert!(bank.ready_at <= now);

        let (col_ready, activated) = match bank.open_row {
            Some(r) if r == req.row => {
                self.stats.row_hits += 1;
                (now, false)
            }
            Some(_) => {
                self.stats.row_misses += 1;
                (now + (t.t_rp + t.t_rcd) as u64, true)
            }
            None => {
                self.stats.row_misses += 1;
                (now + t.t_rcd as u64, true)
            }
        };
        if activated {
            self.stats.activates += 1;
            bank.open_row = Some(req.row);
        }

        let access_latency = if is_write { t.t_wl } else { t.t_cl } as u64;
        let data_start = (col_ready + access_latency).max(self.bus_free_at);
        let data_end = data_start + t.t_bl as u64;
        self.bus_free_at = data_end;

        let recovery = if is_write { t.t_wr as u64 } else { 0 };
        // Fold tRAS: an activated row must stay open at least tRAS before
        // the next precharge; approximate by holding the bank busy.
        let ras_hold = if activated {
            col_ready + t.t_ras as u64
        } else {
            0
        };
        bank.ready_at = (data_end + recovery).max(ras_hold).max(now + t.t_ccd as u64);
        // Closed-row policy: precharge right after the access completes.
        if self.cfg.row_policy == RowPolicy::Closed {
            bank.open_row = None;
            bank.ready_at += t.t_rp as u64;
        }

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reaper_dram_model::Ms;

    fn cfg(refresh: Option<Ms>) -> SimConfig {
        SimConfig::lpddr4_3200(8, refresh)
    }

    fn req(id: u64, bank: u8, row: u32, arrival: u64) -> QueuedRequest {
        QueuedRequest {
            core: 0,
            bank,
            row,
            arrival,
            id,
        }
    }

    fn run_until_done(mc: &mut MemoryController, mut now: u64, expect: usize) -> Vec<CompletedRead> {
        let mut done = Vec::new();
        for _ in 0..1_000_000 {
            done.extend(mc.tick(now));
            if done.len() >= expect {
                break;
            }
            now += 1;
        }
        done
    }

    #[test]
    fn single_read_latency_is_act_plus_cl_plus_bl() {
        let mut mc = MemoryController::new(cfg(None));
        mc.enqueue_read(req(1, 0, 5, 0));
        let done = run_until_done(&mut mc, 0, 1);
        assert_eq!(done.len(), 1);
        let t = cfg(None).timings;
        // Closed bank: tRCD + tCL + tBL
        assert_eq!(done[0].done_at, (t.t_rcd + t.t_cl + t.t_bl) as u64);
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().activates, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut mc = MemoryController::new(cfg(None));
        mc.enqueue_read(req(1, 0, 5, 0));
        let first = run_until_done(&mut mc, 0, 1)[0].done_at;
        // Same row: hit.
        mc.enqueue_read(req(2, 0, 5, first));
        let hit = run_until_done(&mut mc, first, 1)[0].done_at - first;
        // Different row: miss (PRE + ACT).
        let base = first + hit + 200;
        mc.enqueue_read(req(3, 0, 9, base));
        let miss = run_until_done(&mut mc, base, 1)[0].done_at - base;
        assert!(hit < miss, "hit {hit} vs miss {miss}");
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 2);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut mc = MemoryController::new(cfg(None));
        mc.enqueue_read(req(1, 0, 5, 0));
        let first = run_until_done(&mut mc, 0, 1)[0].done_at;
        // Enqueue a miss (older) and a hit (newer) on the same bank.
        mc.enqueue_read(req(2, 0, 9, first + 1));
        mc.enqueue_read(req(3, 0, 5, first + 2));
        let done = run_until_done(&mut mc, first + 2, 2);
        // The hit (id 3) must complete first despite arriving later.
        assert_eq!(done[0].id, 3);
        assert_eq!(done[1].id, 2);
    }

    #[test]
    fn refresh_blocks_banks_periodically() {
        // Steady stream of row misses on one bank, fed as queue space
        // allows; ~130 cycles per miss * 200 misses spans several tREFIs.
        fn run(refresh: Option<Ms>) -> (u64, u64) {
            let mut mc = MemoryController::new(cfg(refresh));
            let total = 200u64;
            let mut sent = 0u64;
            let mut done = Vec::new();
            let mut now = 0u64;
            while done.len() < total as usize && now < 1_000_000 {
                while sent < total && mc.can_accept_read() {
                    mc.enqueue_read(req(sent, 0, sent as u32, now)); // distinct rows: all misses
                    sent += 1;
                }
                done.extend(mc.tick(now));
                now += 1;
            }
            (done.last().unwrap().done_at, mc.stats().refreshes)
        }
        let with_ref = run(Some(Ms::new(64.0)));
        let without_ref = run(None);
        assert!(with_ref.1 > 0, "refreshes must have been issued");
        assert_eq!(without_ref.1, 0);
        assert!(
            with_ref.0 > without_ref.0,
            "refresh must slow the stream: {} vs {}",
            with_ref.0,
            without_ref.0
        );
    }

    #[test]
    fn closed_row_policy_never_hits() {
        let mut mc = MemoryController::new(cfg(None).with_closed_rows());
        // Same row back to back: open policy would hit; closed cannot.
        mc.enqueue_read(req(1, 0, 5, 0));
        let first = run_until_done(&mut mc, 0, 1)[0].done_at;
        mc.enqueue_read(req(2, 0, 5, first + 200));
        let _ = run_until_done(&mut mc, first + 200, 1);
        assert_eq!(mc.stats().row_hits, 0);
        assert_eq!(mc.stats().row_misses, 2);
    }

    #[test]
    fn writes_are_drained_and_counted() {
        let mut mc = MemoryController::new(cfg(None));
        for i in 0..10u64 {
            mc.enqueue_write(req(i, (i % 8) as u8, 3, 0));
        }
        let mut now = 0;
        while mc.pending() > 0 && now < 100_000 {
            let _ = mc.tick(now);
            now += 1;
        }
        assert_eq!(mc.pending(), 0);
        assert_eq!(mc.stats().writes, 10);
        assert_eq!(mc.stats().reads, 0);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut mc = MemoryController::new(cfg(None));
        for i in 0..64u64 {
            assert!(mc.can_accept_read());
            mc.enqueue_read(req(i, 0, 0, 0));
        }
        assert!(!mc.can_accept_read());
    }

    #[test]
    #[should_panic(expected = "read queue full")]
    fn overfull_queue_panics() {
        let mut mc = MemoryController::new(cfg(None));
        for i in 0..65u64 {
            mc.enqueue_read(req(i, 0, 0, 0));
        }
    }
}
