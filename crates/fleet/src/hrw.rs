//! Rendezvous (highest-random-weight) placement of job IDs onto shards.
//!
//! Every `(shard, job)` pair gets a pseudo-random score; the job lives
//! on the highest-scoring shard. Two properties make this the right
//! scheme for a profile fleet:
//!
//! * **Determinism and order independence** — the score depends only on
//!   the shard *name* and the job ID, so every router instance (and
//!   every restart of one) computes the same placement regardless of
//!   the order shards were registered in. Ties break toward the
//!   lexicographically smallest name, never toward slice position.
//! * **Minimal disruption** — adding a shard moves exactly the keys the
//!   new shard now wins (≈ `1/(n+1)` of them); removing a shard moves
//!   only the removed shard's keys. No other key changes owner, so
//!   replicated stores stay warm through membership changes.
//!
//! Shard identity is the *name*, not the socket address: a shard that
//! restarts on a fresh ephemeral port keeps its partition.

use reaper_exec::rng;

/// Domain-separation seed for shard weights, so placement scores share
/// no structure with job IDs (which are themselves splitmix64 chains).
const SHARD_SEED: u64 = 0x5245_4150_4552_4653;

/// The per-shard weight seed derived from its name.
pub fn shard_seed(name: &str) -> u64 {
    rng::hash_bytes(SHARD_SEED, name.as_bytes())
}

/// The rendezvous score of one `(shard, job)` pair.
///
/// `job_id` goes through one extra mix so that job IDs differing in few
/// bits (consecutive seeds) still produce independent score columns.
pub fn score(shard_seed: u64, job_id: u64) -> u64 {
    rng::mix64(shard_seed ^ rng::mix64(job_id))
}

/// Picks the winning shard name for `job_id` from `(name, seed)` pairs
/// (seed as from [`shard_seed`]). Returns `None` for an empty shard
/// set. The result is independent of the slice order.
pub fn place(job_id: u64, shards: &[(String, u64)]) -> Option<&str> {
    let i = place_index(job_id, shards)?;
    shards.get(i).map(|(name, _)| name.as_str())
}

/// The position in `shards` of [`place`]'s winner.
pub fn place_index(job_id: u64, shards: &[(String, u64)]) -> Option<usize> {
    let mut best: Option<(usize, &str, u64)> = None;
    for (i, (name, seed)) in shards.iter().enumerate() {
        let s = score(*seed, job_id);
        let better = match best {
            None => true,
            Some((_, best_name, best_score)) => {
                s > best_score || (s == best_score && name.as_str() < best_name)
            }
        };
        if better {
            best = Some((i, name.as_str(), s));
        }
    }
    best.map(|(i, _, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_set(names: &[&str]) -> Vec<(String, u64)> {
        names
            .iter()
            .map(|n| ((*n).to_string(), shard_seed(n)))
            .collect()
    }

    #[test]
    fn placement_ignores_registration_order() {
        let forward = shard_set(&["shard-0", "shard-1", "shard-2", "shard-3"]);
        let reverse = shard_set(&["shard-3", "shard-2", "shard-1", "shard-0"]);
        for job in 0..512u64 {
            let id = rng::mix64(job);
            assert_eq!(place(id, &forward), place(id, &reverse));
        }
    }

    #[test]
    fn removal_moves_only_the_removed_shards_keys() {
        let full = shard_set(&["shard-0", "shard-1", "shard-2", "shard-3"]);
        let without_2: Vec<(String, u64)> = full
            .iter()
            .filter(|(n, _)| n != "shard-2")
            .cloned()
            .collect();
        for job in 0..512u64 {
            let id = rng::mix64(job);
            let before = place(id, &full).unwrap();
            let after = place(id, &without_2).unwrap();
            if before != "shard-2" {
                assert_eq!(before, after, "survivor keys must not move");
            }
        }
    }
}
