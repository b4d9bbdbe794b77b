//! Memory access traces consumed by the simulator.
//!
//! Traces are finite and replayed cyclically, so workload generators (in
//! `reaper-workloads`) can produce compact representative streams.

/// One memory access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Instructions executed since the previous access (the access itself
    /// counts as one more instruction).
    pub gap: u32,
    /// DRAM bank the access maps to.
    pub bank: u8,
    /// DRAM row within the bank.
    pub row: u32,
    /// True for a store miss (posted write), false for a load miss.
    pub is_write: bool,
}

/// A finite, cyclically-replayed access trace for one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    accesses: Vec<Access>,
}

impl AccessTrace {
    /// Wraps an explicit access list.
    ///
    /// # Panics
    /// Panics if `accesses` is empty — a core with no memory accesses should
    /// simply not be simulated with a trace.
    pub fn new(accesses: Vec<Access>) -> Self {
        assert!(!accesses.is_empty(), "trace must contain at least one access");
        Self { accesses }
    }

    /// A synthetic trace with a fixed `gap` between accesses, walking rows
    /// sequentially — deterministic, for tests and doc examples. `seed`
    /// offsets the row walk so different cores do not alias.
    pub fn synthetic_uniform(gap: u32, len: usize, seed: u64) -> Self {
        assert!(len > 0, "trace must be nonempty");
        let accesses = (0..len)
            .map(|i| Access {
                gap,
                bank: ((i as u64 + seed) % 8) as u8,
                row: ((i as u64 * 13 + seed * 101) % 16_384) as u32,
                is_write: i % 4 == 3,
            })
            .collect();
        Self::new(accesses)
    }

    /// The access at position `i` modulo the trace length.
    pub fn access(&self, i: usize) -> Access {
        self.accesses[i % self.accesses.len()]
    }

    /// The accesses of one replay, in order.
    pub(crate) fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Trace length before replay.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Always false (constructor rejects empty traces).
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Average instructions per access — the inverse of the trace's
    /// misses-per-instruction intensity.
    pub fn mean_gap(&self) -> f64 {
        let total: u64 = self.accesses.iter().map(|a| a.gap as u64 + 1).sum();
        total as f64 / self.accesses.len() as f64
    }

    /// Fraction of consecutive same-bank accesses that hit the same row —
    /// a cheap row-locality figure for sanity checks.
    pub fn row_locality(&self) -> f64 {
        let mut same = 0usize;
        let mut pairs = 0usize;
        let mut last: [Option<u32>; 256] = [None; 256];
        for a in &self.accesses {
            if let Some(prev) = last[a.bank as usize] {
                pairs += 1;
                if prev == a.row {
                    same += 1;
                }
            }
            last[a.bank as usize] = Some(a.row);
        }
        if pairs == 0 {
            0.0
        } else {
            same as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_replay() {
        let t = AccessTrace::synthetic_uniform(10, 5, 0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.access(0), t.access(5));
        assert_eq!(t.access(3), t.access(13));
        assert!(!t.is_empty());
    }

    #[test]
    fn mean_gap_counts_the_access_instruction() {
        let t = AccessTrace::new(vec![
            Access { gap: 9, bank: 0, row: 0, is_write: false },
            Access { gap: 19, bank: 0, row: 0, is_write: false },
        ]);
        assert_eq!(t.mean_gap(), 15.0);
    }

    #[test]
    fn row_locality_bounds() {
        let hot = AccessTrace::new(vec![
            Access { gap: 1, bank: 0, row: 7, is_write: false };
            10
        ]);
        assert_eq!(hot.row_locality(), 1.0);
        let t = AccessTrace::synthetic_uniform(1, 100, 3);
        assert!(t.row_locality() < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn rejects_empty() {
        AccessTrace::new(vec![]);
    }
}
