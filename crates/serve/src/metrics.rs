//! Service observability: lock-free counters, power-of-two latency
//! histograms, and a Prometheus text-format renderer.
//!
//! This is the *only* module in the workspace's library code that reads
//! wall-clock time, and only through [`now`] / [`elapsed_micros`]. The
//! determinism contract is untouched: profile bytes are a pure function
//! of the request; clocks feed nothing but these metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An opaque timing anchor for latency measurement.
///
/// Returns the current monotonic instant.
pub(crate) fn now() -> Instant {
    // lint: allow(wall-clock) service latency metrics only; profile bytes stay pure functions of the request
    Instant::now()
}

/// Whole microseconds since `start`, saturating at `u64::MAX`.
pub(crate) fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Number of histogram buckets: power-of-two boundaries 1 µs … 2^26 µs
/// (~67 s), plus a final +Inf bucket.
const BUCKETS: usize = 28;

/// A fixed-bucket latency histogram with power-of-two µs boundaries.
///
/// Bucket `i < 27` counts observations `≤ 2^i` µs; the last bucket is
/// +Inf. Cumulative counts (Prometheus `le` semantics) are computed at
/// render time.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn bucket_index(micros: u64) -> usize {
        // 0..=1 µs → bucket 0; 2^26 µs and above → the +Inf bucket.
        let clamped = micros.max(1);
        let bits = u64::BITS - clamped.leading_zeros() - 1;
        let idx = if clamped.is_power_of_two() { bits } else { bits + 1 };
        reaper_exec::num::idx(idx).min(BUCKETS - 1)
    }

    /// Records one observation of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        if let Some(bucket) = self.counts.get(Self::bucket_index(micros)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Renders this histogram in Prometheus exposition format.
    fn render(&self, name: &str, out: &mut String) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            if i == BUCKETS - 1 {
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            } else {
                let le = 1u64 << i;
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        let sum = self.sum_micros.load(Ordering::Relaxed);
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// All service counters and histograms, shared across connection and
/// worker threads.
#[derive(Default)]
pub struct ServiceMetrics {
    /// Jobs accepted by `POST /v1/jobs` (deduplicated submissions count
    /// toward `jobs_deduped`, not here).
    pub jobs_submitted: AtomicU64,
    /// Jobs whose execution finished successfully.
    pub jobs_completed: AtomicU64,
    /// Submissions answered from an existing job record without a new
    /// execution.
    pub jobs_deduped: AtomicU64,
    /// Jobs whose execution failed (validation race or worker panic).
    pub jobs_failed: AtomicU64,
    /// Profile reads served from the profile store.
    pub cache_hits: AtomicU64,
    /// Profile reads that found the job done but its bytes evicted.
    pub cache_misses: AtomicU64,
    /// Re-profiling snapshots accepted by `POST /v1/profiles/{id}/epochs`.
    pub delta_pushes: AtomicU64,
    /// `?since=` reads answered with an `RPD1` delta chain.
    pub delta_chains: AtomicU64,
    /// `?since=` reads that fell back to the full snapshot (compacted).
    pub delta_full_fallbacks: AtomicU64,
    /// Conditional reads short-circuited to `304 Not Modified`.
    pub not_modified: AtomicU64,
    /// Events pushed to watch subscribers.
    pub watch_events: AtomicU64,
    /// Time from submission to a worker picking the job up.
    pub queue_wait_micros: LatencyHistogram,
    /// Worker execution time per job.
    pub exec_micros: LatencyHistogram,
}

/// Point-in-time gauges owned by the profile store, passed into
/// [`ServiceMetrics::render`] by the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreGauges {
    /// Epoch logs (resident or metadata-only).
    pub profiles: usize,
    /// Logs whose head snapshot bytes are resident.
    pub resident: usize,
    /// Bytes pinned by snapshots and delta chunks.
    pub used_bytes: usize,
    /// Cumulative budget-pressure evictions.
    pub evictions: u64,
    /// Distinct delta payload chunks.
    pub chunk_entries: usize,
    /// Bytes held by delta payload chunks.
    pub chunk_bytes: usize,
    /// Cumulative cross-profile chunk dedup hits.
    pub chunk_dedup_hits: u64,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, for test assertions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_deduped: self.jobs_deduped.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            delta_pushes: self.delta_pushes.load(Ordering::Relaxed),
            delta_chains: self.delta_chains.load(Ordering::Relaxed),
            delta_full_fallbacks: self.delta_full_fallbacks.load(Ordering::Relaxed),
            not_modified: self.not_modified.load(Ordering::Relaxed),
            watch_events: self.watch_events.load(Ordering::Relaxed),
        }
    }

    /// Renders the full `/metrics` payload in Prometheus text format.
    /// Gauges the registry does not own (queue depth, store occupancy)
    /// are passed in by the server.
    pub fn render(&self, queue_depth: usize, store: &StoreGauges) -> String {
        let mut out = String::with_capacity(2048);
        let counters: [(&str, &AtomicU64); 11] = [
            ("reaper_jobs_submitted_total", &self.jobs_submitted),
            ("reaper_jobs_completed_total", &self.jobs_completed),
            ("reaper_jobs_deduped_total", &self.jobs_deduped),
            ("reaper_jobs_failed_total", &self.jobs_failed),
            ("reaper_cache_hits_total", &self.cache_hits),
            ("reaper_cache_misses_total", &self.cache_misses),
            ("reaper_delta_pushes_total", &self.delta_pushes),
            ("reaper_delta_chains_total", &self.delta_chains),
            ("reaper_delta_full_fallbacks_total", &self.delta_full_fallbacks),
            ("reaper_not_modified_total", &self.not_modified),
            ("reaper_watch_events_total", &self.watch_events),
        ];
        for (name, counter) in counters {
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", counter.load(Ordering::Relaxed)));
        }
        for (name, value) in [
            ("reaper_cache_evictions_total", store.evictions),
            ("reaper_store_chunk_dedup_hits_total", store.chunk_dedup_hits),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in [
            ("reaper_queue_depth", queue_depth),
            ("reaper_cache_entries", store.profiles),
            ("reaper_cache_used_bytes", store.used_bytes),
            ("reaper_store_resident_profiles", store.resident),
            ("reaper_store_chunk_entries", store.chunk_entries),
            ("reaper_store_chunk_bytes", store.chunk_bytes),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        self.queue_wait_micros
            .render("reaper_queue_wait_microseconds", &mut out);
        self.exec_micros
            .render("reaper_exec_microseconds", &mut out);
        out
    }
}

/// Number of portfolio strategy families
/// ([`reaper_portfolio::Strategy::ALL`]).
const STRATEGIES: usize = reaper_portfolio::Strategy::ALL.len();

/// Per-strategy portfolio-race counters, labelled by strategy family.
///
/// Label order in the rendered exposition is the fixed
/// [`reaper_portfolio::Strategy::ALL`] code order — never a map
/// iteration — so `/metrics` output is byte-deterministic (D1).
#[derive(Default)]
pub struct PortfolioMetrics {
    /// Lanes launched into a race, per strategy.
    races: [AtomicU64; STRATEGIES],
    /// Lanes cancelled as provable losers, per strategy.
    cancelled: [AtomicU64; STRATEGIES],
    /// Races won, per strategy.
    winner: [AtomicU64; STRATEGIES],
}

impl PortfolioMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fixed index of `strategy` within [`reaper_portfolio::Strategy::ALL`]
    /// (exhaustive match, so a new strategy family fails to compile here
    /// instead of silently miscounting).
    fn slot(strategy: reaper_portfolio::Strategy) -> usize {
        use reaper_portfolio::Strategy;
        match strategy {
            Strategy::BruteForce => 0,
            Strategy::DeltaRefw => 1,
            Strategy::DeltaTemp => 2,
            Strategy::Combined => 3,
        }
    }

    /// Counts one completed race from its outcome: every lane raced,
    /// every cancelled lane, and the winner.
    pub fn note_race(&self, race: &reaper_portfolio::RaceOutcome) {
        for lane in &race.lanes {
            let slot = Self::slot(lane.spec.strategy());
            if let Some(counter) = self.races.get(slot) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            if lane.status == reaper_portfolio::LaneStatus::Cancelled {
                if let Some(counter) = self.cancelled.get(slot) {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(counter) = self.winner.get(Self::slot(race.winner_strategy)) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total races won across all strategies (== races completed).
    pub fn races_won(&self) -> u64 {
        self.winner.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Renders the `reaper_portfolio_*` series in deterministic label
    /// order.
    pub fn render(&self, out: &mut String) {
        let families: [(&str, &[AtomicU64; STRATEGIES]); 3] = [
            ("reaper_portfolio_races_total", &self.races),
            ("reaper_portfolio_cancelled_total", &self.cancelled),
            ("reaper_portfolio_winner_total", &self.winner),
        ];
        for (name, counters) in families {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (strategy, counter) in reaper_portfolio::Strategy::ALL.iter().zip(counters) {
                out.push_str(&format!(
                    "{name}{{strategy=\"{}\"}} {}\n",
                    strategy.name(),
                    counter.load(Ordering::Relaxed)
                ));
            }
        }
    }
}

/// Where a process sits in the fleet topology, rendered into
/// `/healthz` and `/metrics` so operators (and the conformance tests)
/// can tell shards, routers, and standalone servers apart.
#[derive(Debug, Clone)]
pub struct FleetIdentity {
    /// `"standalone"`, `"shard"`, or `"router"`.
    pub role: &'static str,
    /// Shard index within the fleet; `None` for standalone servers.
    pub shard_id: Option<u64>,
}

impl FleetIdentity {
    /// The identity of a server not enrolled in any fleet.
    pub fn standalone() -> Self {
        Self {
            role: "standalone",
            shard_id: None,
        }
    }
}

/// Fleet-plane counters: proxying, replication, and failover activity.
/// Shared like [`ServiceMetrics`]; rendered by [`render_fleet`].
#[derive(Default)]
pub struct FleetMetrics {
    /// Requests this process forwarded to another fleet member.
    pub proxied_requests: AtomicU64,
    /// Replication pull rounds served or performed by this process.
    pub replication_pulls: AtomicU64,
    /// Reads answered by a non-primary replica after the primary failed.
    pub failovers: AtomicU64,
}

impl FleetMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Appends the `reaper_fleet_*` series to a `/metrics` payload. Label
/// order inside `reaper_fleet_info` is a fixed code-order sequence
/// (`role`, then `shard_id`) — D1-clean by construction.
pub fn render_fleet(
    identity: &FleetIdentity,
    store_epoch: u64,
    fleet: &FleetMetrics,
    out: &mut String,
) {
    out.push_str("# TYPE reaper_fleet_info gauge\n");
    match identity.shard_id {
        Some(id) => out.push_str(&format!(
            "reaper_fleet_info{{role=\"{}\",shard_id=\"{id}\"}} 1\n",
            identity.role
        )),
        None => out.push_str(&format!(
            "reaper_fleet_info{{role=\"{}\"}} 1\n",
            identity.role
        )),
    }
    out.push_str("# TYPE reaper_fleet_store_epoch gauge\n");
    out.push_str(&format!("reaper_fleet_store_epoch {store_epoch}\n"));
    let counters: [(&str, &AtomicU64); 3] = [
        (
            "reaper_fleet_proxied_requests_total",
            &fleet.proxied_requests,
        ),
        (
            "reaper_fleet_replication_pulls_total",
            &fleet.replication_pulls,
        ),
        ("reaper_fleet_failovers_total", &fleet.failovers),
    ];
    for (name, counter) in counters {
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {}\n", counter.load(Ordering::Relaxed)));
    }
}

/// A plain-old-data copy of the counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`ServiceMetrics::jobs_submitted`].
    pub jobs_submitted: u64,
    /// See [`ServiceMetrics::jobs_completed`].
    pub jobs_completed: u64,
    /// See [`ServiceMetrics::jobs_deduped`].
    pub jobs_deduped: u64,
    /// See [`ServiceMetrics::jobs_failed`].
    pub jobs_failed: u64,
    /// See [`ServiceMetrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServiceMetrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`ServiceMetrics::delta_pushes`].
    pub delta_pushes: u64,
    /// See [`ServiceMetrics::delta_chains`].
    pub delta_chains: u64,
    /// See [`ServiceMetrics::delta_full_fallbacks`].
    pub delta_full_fallbacks: u64,
    /// See [`ServiceMetrics::not_modified`].
    pub not_modified: u64,
    /// See [`ServiceMetrics::watch_events`].
    pub watch_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(5), 3);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_renders_cumulatively() {
        let h = LatencyHistogram::new();
        for micros in [1, 2, 2, 100, 1_000_000_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 5);
        let mut out = String::new();
        h.render("t", &mut out);
        assert!(out.contains("t_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("t_bucket{le=\"2\"} 3\n"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 5\n"));
        assert!(out.contains("t_count 5\n"));
        assert!(out.contains(&format!("t_sum {}\n", 1 + 2 + 2 + 100 + 1_000_000_000)));
    }

    #[test]
    fn render_exposes_every_required_series() {
        let m = ServiceMetrics::new();
        ServiceMetrics::inc(&m.jobs_submitted);
        ServiceMetrics::inc(&m.cache_hits);
        ServiceMetrics::inc(&m.delta_pushes);
        let gauges = StoreGauges {
            profiles: 2,
            resident: 1,
            used_bytes: 4096,
            evictions: 1,
            chunk_entries: 5,
            chunk_bytes: 640,
            chunk_dedup_hits: 4,
        };
        let text = m.render(3, &gauges);
        for series in [
            "reaper_jobs_submitted_total 1",
            "reaper_jobs_completed_total 0",
            "reaper_jobs_deduped_total 0",
            "reaper_jobs_failed_total 0",
            "reaper_cache_hits_total 1",
            "reaper_cache_misses_total 0",
            "reaper_delta_pushes_total 1",
            "reaper_delta_chains_total 0",
            "reaper_delta_full_fallbacks_total 0",
            "reaper_not_modified_total 0",
            "reaper_watch_events_total 0",
            "reaper_cache_evictions_total 1",
            "reaper_store_chunk_dedup_hits_total 4",
            "reaper_queue_depth 3",
            "reaper_cache_entries 2",
            "reaper_cache_used_bytes 4096",
            "reaper_store_resident_profiles 1",
            "reaper_store_chunk_entries 5",
            "reaper_store_chunk_bytes 640",
            "reaper_queue_wait_microseconds_count 0",
            "reaper_exec_microseconds_count 0",
        ] {
            assert!(text.contains(series), "missing series: {series}\n{text}");
        }
        let snap = m.snapshot();
        assert_eq!(snap.jobs_submitted, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.jobs_completed, 0);
        assert_eq!(snap.delta_pushes, 1);
    }

    #[test]
    fn fleet_series_render_in_deterministic_label_order() {
        let fleet = FleetMetrics::new();
        ServiceMetrics::inc(&fleet.proxied_requests);
        ServiceMetrics::inc(&fleet.proxied_requests);
        ServiceMetrics::inc(&fleet.failovers);
        let shard = FleetIdentity {
            role: "shard",
            shard_id: Some(3),
        };
        let mut out = String::new();
        render_fleet(&shard, 17, &fleet, &mut out);
        assert!(out.contains("reaper_fleet_info{role=\"shard\",shard_id=\"3\"} 1\n"));
        assert!(out.contains("reaper_fleet_store_epoch 17\n"));
        assert!(out.contains("reaper_fleet_proxied_requests_total 2\n"));
        assert!(out.contains("reaper_fleet_replication_pulls_total 0\n"));
        assert!(out.contains("reaper_fleet_failovers_total 1\n"));

        let mut solo = String::new();
        render_fleet(&FleetIdentity::standalone(), 0, &fleet, &mut solo);
        assert!(solo.contains("reaper_fleet_info{role=\"standalone\"} 1\n"));

        // Rendering twice yields byte-identical output (label order is a
        // code-order constant, not a map iteration).
        let mut again = String::new();
        render_fleet(&shard, 17, &fleet, &mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn portfolio_series_render_in_canonical_strategy_order() {
        let m = PortfolioMetrics::new();
        let (race, _) = reaper_portfolio::PortfolioRequest::example(3)
            .execute()
            .expect("example races");
        m.note_race(&race);
        assert_eq!(m.races_won(), 1);

        let mut out = String::new();
        m.render(&mut out);
        for family in [
            "reaper_portfolio_races_total",
            "reaper_portfolio_cancelled_total",
            "reaper_portfolio_winner_total",
        ] {
            // One line per strategy, in Strategy::ALL order — never a
            // map iteration order.
            let positions: Vec<usize> = reaper_portfolio::Strategy::ALL
                .iter()
                .map(|s| {
                    out.find(&format!("{family}{{strategy=\"{}\"}}", s.name()))
                        .unwrap_or_else(|| panic!("missing {family} for {}", s.name()))
                })
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "{family} labels out of canonical order\n{out}"
            );
        }
        // The default portfolio launches 1 brute-force + 2 Δrefw + 2 ΔT
        // + 2 combined lanes per race.
        assert!(out.contains("reaper_portfolio_races_total{strategy=\"brute_force\"} 1\n"));
        assert!(out.contains("reaper_portfolio_races_total{strategy=\"delta_refw\"} 2\n"));
        assert!(out.contains("reaper_portfolio_races_total{strategy=\"delta_t\"} 2\n"));
        assert!(out.contains("reaper_portfolio_races_total{strategy=\"combined\"} 2\n"));

        // Rendering twice yields byte-identical output.
        let mut again = String::new();
        m.render(&mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn elapsed_micros_is_monotone() {
        let start = now();
        let a = elapsed_micros(start);
        let b = elapsed_micros(start);
        assert!(b >= a);
    }
}
