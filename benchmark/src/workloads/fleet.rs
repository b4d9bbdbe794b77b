//! `fleet_mixed`: cache-hit traffic through the 4-shard router while
//! owners push new epochs and replication runs beside them.
//!
//! Compute is about zero here, so the router hop, HTTP, the profile
//! store and replication dominate. There are no shard restarts in the
//! window: failover is covered by `crates/fleet/tests/failover.rs`, and
//! restarts would make the failure share depend on timing.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use reaper_core::{FailureProfile, ProfilingRequest};
use reaper_fleet::{Fleet, FleetConfig, ReplicationStats};
use reaper_serve::{Client, DeltaFetch, ProfileFetch, ServerConfig};

use super::{draw, us_since, Ctx, Session, Tally, Workload};
use crate::record::Measured;
use crate::stats::{Histogram, Samples};
use crate::trace::Tracer;

pub const PER_LAYER: [&str; 11] = [
    "serve.read_us",
    "serve.delta_us",
    "serve.watch_us",
    "serve.push_us",
    "serve.delta_chain_frac",
    "fleet.router_hop_us",
    "fleet.replicate_ms",
    "fleet.installed_full",
    "fleet.applied_chains",
    "e2e.req_tail_us",
    "e2e.req_per_s",
];

const SHARDS: usize = 4;
/// Resident jobs the chip population folds onto.
const JOBS: u64 = 64;
/// Simulated chips whose Zipf-skewed ranks pick the job of each request.
const CHIP_POPULATION: u64 = 1_000_000;
const REPLICATE_EVERY: Duration = Duration::from_millis(250);
/// Router and direct reads alternated for the router-hop probe.
const HOP_PAIRS: usize = 1000;

const JOB_DOMAIN: u64 = 0xF1E0;
const OP_DOMAIN: u64 = 0xF1E1;

/// A job small enough that set-up stays short.
fn quick_request(seed: u64) -> ProfilingRequest {
    let mut r = ProfilingRequest::example(seed);
    r.capacity_den = 64;
    r.rounds = 2;
    r.target_interval_ms = 512.0;
    r.reach_delta_ms = 128.0;
    r
}

/// Log-uniform rank in `[1, CHIP_POPULATION]`: Zipf(s≈1) skew.
fn zipf_rank(x: u64) -> u64 {
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    let ln_n = (CHIP_POPULATION as f64).ln();
    ((u * ln_n).exp().floor() as u64).clamp(1, CHIP_POPULATION)
}

/// `bytes` with one more failing cell: a re-profiling push.
fn grow(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let profile = FailureProfile::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut cells: Vec<u64> = profile.iter().collect();
    cells.push(cells.iter().max().map_or(0, |m| m + 1));
    Ok(FailureProfile::from_cells(cells).to_bytes())
}

struct Job {
    id: u64,
    job_id: String,
    request: ProfilingRequest,
    /// The bytes of the epoch its owner pushed last.
    pushed: Vec<u8>,
}

pub struct FleetRun {
    fleet: Fleet,
    router: SocketAddr,
    jobs: Vec<Job>,
    seed: u64,
    threads: usize,
    windows: u64,
}

/// Request latencies by class. Histograms rather than raw samples: a
/// window serves hundreds of thousands of requests, and raw samples made
/// peak RSS follow throughput.
#[derive(Default)]
struct Classes {
    all: Histogram,
    delta: Histogram,
    watch: Histogram,
    push: Histogram,
    chains: u64,
    fulls: u64,
}

impl Classes {
    fn absorb(&mut self, other: &Classes) {
        self.all.merge(&other.all);
        self.delta.merge(&other.delta);
        self.watch.merge(&other.watch);
        self.push.merge(&other.push);
        self.chains += other.chains;
        self.fulls += other.fulls;
    }
}

pub struct Window {
    classes: Classes,
    elapsed_s: f64,
    replicate_ms: Samples,
    replication: ReplicationStats,
}

impl Session for FleetRun {
    type Window = Window;
    /// Tens of milliseconds each; repeats spread by a quarter or more as
    /// 20-odd threads start on two cores, so the median takes many.
    const SETUP_REPS: usize = 21;

    /// Starts 4 single-worker shards behind the router, completes the
    /// resident jobs, pushes one epoch each and replicates them.
    fn setup(_: Workload, ctx: &Ctx, _: &mut Tally) -> FleetRun {
        let mut config = FleetConfig {
            shards: SHARDS,
            ..FleetConfig::default()
        };
        config.shard_template = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let fleet = Fleet::start(config).expect("start the fleet on ephemeral ports");
        let router = fleet.router_addr().expect("router is running");
        let mut client = Client::new(router);
        let requests: Vec<ProfilingRequest> = (0..JOBS)
            .map(|i| quick_request(draw(ctx.seed, JOB_DOMAIN, i)))
            .collect();
        let job_ids: Vec<String> = requests
            .iter()
            .map(|r| client.submit(r).expect("submit a resident job").job_id)
            .collect();
        let jobs = requests
            .into_iter()
            .zip(job_ids)
            .map(|(request, job_id)| {
                let bytes = client
                    .wait_for_profile(&job_id, Duration::from_micros(300), 200_000)
                    .expect("resident job completes");
                let pushed = grow(&bytes).expect("served profile decodes");
                client.push_epoch(&job_id, &pushed).expect("push epoch 1");
                Job {
                    id: request.job_id(),
                    job_id,
                    request,
                    pushed,
                }
            })
            .collect();
        fleet.replicate_once();
        FleetRun {
            fleet,
            router,
            jobs,
            seed: ctx.seed,
            // Every client owns at least one job.
            threads: ctx.threads.min(JOBS as usize),
            windows: 0,
        }
    }

    fn discard(self) {
        self.fleet.shutdown();
    }

    /// `threads` closed-loop clients run the mix while this thread
    /// replicates every 250 ms.
    fn window(&mut self, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Window {
        self.windows += 1;
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut replicate_ms = Samples::default();
        let mut replication = ReplicationStats::default();
        let (threads, router, seed, window_no) =
            (self.threads, self.router, self.seed, self.windows);
        // Each client owns the jobs whose index it is congruent to and is
        // the only one pushing them.
        let mut owned: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); threads];
        for (i, job) in self.jobs.iter().enumerate() {
            owned[i % threads].push((i, job.pushed.clone()));
        }
        let jobs = &self.jobs;
        let fleet = &self.fleet;
        let results: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = owned
                .into_iter()
                .enumerate()
                .map(|(c, mine)| {
                    let stop = &stop;
                    let mut tr = tr.fork();
                    let stream = [seed, OP_DOMAIN, c as u64, window_no];
                    scope.spawn(move || {
                        let mut client = Client::new(router);
                        let mut ops = reaper_exec::rng::stream(&stream);
                        let mut mine = mine;
                        let mut etags: Vec<Option<String>> = vec![None; jobs.len()];
                        let mut classes = Classes::default();
                        let mut tally = Tally::default();
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let slot = (zipf_rank(ops.next_u64()) % JOBS) as usize;
                            let job = &jobs[slot];
                            let t0 = Instant::now();
                            // Per 32 operations: 24 conditional reads, 4
                            // deltas since epoch 0, 2 resubmits, 1 watch and
                            // 1 push of an owned job.
                            let ok = match i % 32 {
                                0..=23 => {
                                    let fetch = tr.span("read", "fleet", |_| {
                                        client.profile_conditional(
                                            &job.job_id,
                                            etags[slot].as_deref(),
                                        )
                                    });
                                    match fetch {
                                        Ok(ProfileFetch::Fresh { etag, .. }) => {
                                            etags[slot] = Some(etag);
                                            true
                                        }
                                        Ok(ProfileFetch::NotModified { .. }) => true,
                                        _ => false,
                                    }
                                }
                                24..=27 => {
                                    let fetch = tr.span("delta", "fleet", |_| {
                                        client.delta_since(&job.job_id, 0)
                                    });
                                    classes.delta.record(t0.elapsed());
                                    match fetch {
                                        Ok(DeltaFetch::Chain { .. }) => classes.chains += 1,
                                        Ok(DeltaFetch::Full { .. }) => classes.fulls += 1,
                                        _ => {}
                                    }
                                    matches!(
                                        fetch,
                                        Ok(DeltaFetch::Chain { .. } | DeltaFetch::Full { .. })
                                    )
                                }
                                28 | 29 => tr
                                    .span("resubmit", "fleet", |_| client.submit(&job.request))
                                    .is_ok(),
                                30 => {
                                    let events = tr.span("watch", "fleet", |_| {
                                        client.watch(&job.job_id, Some(0), 25, 1)
                                    });
                                    classes.watch.record(t0.elapsed());
                                    events.is_ok_and(|e| e.len() == 1)
                                }
                                _ => {
                                    let k = (i / 32) as usize % mine.len();
                                    let (own, bytes) = &mut mine[k];
                                    let next = tr.span("grow", "core", |_| grow(bytes));
                                    let pushed = next.and_then(|next| {
                                        let receipt = tr.span("push", "fleet", |_| {
                                            client.push_epoch(&jobs[*own].job_id, &next)
                                        });
                                        receipt.map(|_| next).map_err(|e| e.to_string())
                                    });
                                    classes.push.record(t0.elapsed());
                                    pushed.map(|next| *bytes = next).is_ok()
                                }
                            };
                            classes.all.record(t0.elapsed());
                            tally.op(ok);
                            i += 1;
                        }
                        (classes, tally, mine, tr)
                    })
                })
                .collect();
            let mut next_tick = start + REPLICATE_EVERY;
            while Instant::now() < deadline {
                thread::sleep(
                    next_tick
                        .min(deadline)
                        .saturating_duration_since(Instant::now()),
                );
                if Instant::now() >= next_tick && Instant::now() < deadline {
                    let t0 = Instant::now();
                    let stats = tr.span("replicate", "fleet", |_| fleet.replicate_once());
                    replicate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    replication.absorb(stats);
                    next_tick += REPLICATE_EVERY;
                }
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet client thread"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        let mut classes = Classes::default();
        for (c, t, mine, child) in results {
            classes.absorb(&c);
            tally.absorb(t);
            tr.absorb(child);
            for (i, bytes) in mine {
                self.jobs[i].pushed = bytes;
            }
        }
        Window {
            classes,
            elapsed_s,
            replicate_ms,
            replication,
        }
    }

    fn latency_ms(window: &Window) -> Measured {
        Measured::histogram(&window.classes.all, 1e6)
    }

    /// Adds the router-hop probe: reads of one job through the router
    /// alternated with reads from its owning shard.
    fn per_layer(
        &mut self,
        w: &Window,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Vec<(String, Measured)> {
        let job = &self.jobs[0];
        let owner = self
            .fleet
            .owner_of(job.id)
            .and_then(|s| self.fleet.shard_addr(s))
            .expect("the owning shard is live");
        let mut via_router = Client::new(self.router);
        let mut direct = Client::new(owner);
        let (mut routed_us, mut direct_us) = (Samples::default(), Samples::default());
        for _ in 0..HOP_PAIRS {
            for (client, samples, layer) in [
                (&mut via_router, &mut routed_us, "fleet"),
                (&mut direct, &mut direct_us, "serve"),
            ] {
                let t0 = Instant::now();
                let read = tr.span("read", layer, |_| client.profile_bytes(&job.job_id));
                samples.push(us_since(t0));
                tally.op(matches!(read, Ok(Some(_))));
            }
        }
        let c = &w.classes;
        let r = &w.replication;
        let values = [
            Measured::median(&direct_us),
            Measured::histogram(&c.delta, 1e3),
            Measured::histogram(&c.watch, 1e3),
            Measured::histogram(&c.push, 1e3),
            Measured::derived(
                c.chains as f64 / (c.chains + c.fulls) as f64,
                (c.chains + c.fulls) as usize,
            ),
            Measured::derived(routed_us.median() - direct_us.median(), HOP_PAIRS),
            Measured::median(&w.replicate_ms),
            Measured::derived(r.installed_full as f64, w.replicate_ms.len()),
            Measured::derived(r.applied_chains as f64, w.replicate_ms.len()),
            Measured::derived(c.all.tail_ns().map_or(f64::NAN, |ns| ns / 1e3), c.all.len()),
            Measured::derived(c.all.len() as f64 / w.elapsed_s, c.all.len()),
        ];
        PER_LAYER
            .iter()
            .map(|n| n.to_string())
            .zip(values)
            .collect()
    }

    /// After a last replication tick, every job read through the router
    /// and from every shard directly must equal what its owner pushed.
    fn finish(self, tally: &mut Tally) {
        self.fleet.replicate_once();
        let mut readers: Vec<(String, Client)> =
            vec![("router".to_string(), Client::new(self.router))];
        for s in 0..self.fleet.shard_count() {
            if let Some(addr) = self.fleet.shard_addr(s) {
                readers.push((format!("shard-{s}"), Client::new(addr)));
            }
        }
        for job in &self.jobs {
            for (name, client) in &mut readers {
                let read = client.profile_bytes(&job.job_id);
                tally.check(matches!(&read, Ok(Some(b)) if *b == job.pushed), || {
                    format!(
                        "{name}: job {} does not hold the last pushed bytes",
                        job.job_id
                    )
                });
            }
        }
        self.fleet.shutdown();
    }
}
