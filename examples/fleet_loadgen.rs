//! Closed-loop fleet load generator and gate.
//!
//! Three phases, one report (`--out BENCH_fleet.json`):
//!
//! 1. **Single-node baseline** — one `reaper-serve` instance under a
//!    closed-loop cache-hit read loop over a few resident profiles.
//! 2. **Fleet scenario** — N shards behind the router. The keyspace is
//!    a population of one million simulated chips whose access ranks
//!    are Zipf-skewed (log-uniform, s≈1) onto the resident profiles;
//!    client threads drive a closed-loop mix of submits (re-registration
//!    dedup), conditional profile reads, `delta?since=` catch-ups, and
//!    watch long-polls — while the main thread performs rolling shard
//!    restarts (kill → restart on a fresh port → replication tick).
//!    Byte-equality against direct library execution is asserted for
//!    every profile after the dust settles.
//! 3. **Concurrency ladder** — how many simultaneous connections a
//!    thread-per-connection server (64-thread cap) sustains versus the
//!    `poll(2)` event loop, by holding K open and probing the last one.
//!
//! `--gate` enforces the CI floor: fleet aggregate throughput ≥ 2× the
//! single-node cache-hit baseline (on multicore hosts — a single
//! hardware thread cannot express shard parallelism, so there the ratio
//! is recorded but not enforced), and the event loop sustaining ≥ 4×
//! the thread-per-connection connection count.
//!
//! ```text
//! cargo run --release --example fleet_loadgen -- --seconds 3 --gate
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::exit
)]

#[cfg(unix)]
fn main() {
    fleet_loadgen::run();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("fleet_loadgen requires the unix poll(2) event loop");
}

#[cfg(unix)]
mod fleet_loadgen {
    use std::io::{BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    use reaper_core::{FailureProfile, ProfilingRequest};
    use reaper_exec::rng;
    use reaper_fleet::{Fleet, FleetConfig};
    use reaper_serve::server::ConnectionModel;
    use reaper_serve::{http, json, Client, Server, ServerConfig};

    /// Simulated chip population whose ranks the Zipf mix draws from.
    const CHIP_POPULATION: u64 = 1_000_000;
    /// Resident profiles the population folds onto.
    const JOB_SEEDS: [u64; 8] = [101, 202, 303, 404, 505, 606, 707, 808];
    /// Thread cap for the thread-per-connection ladder run.
    const TPC_MAX_THREADS: usize = 64;
    /// Connection ladder rungs.
    const LADDER: [usize; 4] = [64, 128, 256, 512];

    /// A small job so warm-up completes in seconds.
    fn quick_request(seed: u64) -> ProfilingRequest {
        let mut r = ProfilingRequest::example(seed);
        r.capacity_den = 64;
        r.rounds = 2;
        r.target_interval_ms = 512.0;
        r.reach_delta_ms = 128.0;
        r
    }

    /// Adds one fresh cell to an encoded profile (a re-profiling push).
    fn grow_profile(bytes: &[u8]) -> Vec<u8> {
        let profile = FailureProfile::from_bytes(bytes).expect("decode profile");
        let mut cells: Vec<u64> = profile.iter().collect();
        let fresh = cells.iter().max().copied().unwrap_or(0) + 1;
        cells.push(fresh);
        FailureProfile::from_cells(cells).to_bytes()
    }

    /// Log-uniform rank in `[1, CHIP_POPULATION]` — Zipf(s≈1) access
    /// skew: rank 1 is drawn about 20× as often as rank one million.
    fn zipf_rank(x: u64) -> u64 {
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let ln_n = (CHIP_POPULATION as f64).ln();
        (u * ln_n).exp().floor().max(1.0).min(CHIP_POPULATION as f64) as u64
    }

    #[derive(Default)]
    struct Samples {
        micros: Vec<u64>,
    }

    impl Samples {
        fn record(&mut self, started_at: Instant) {
            let us = u64::try_from(started_at.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.micros.push(us);
        }

        fn merge(&mut self, other: Samples) {
            self.micros.extend(other.micros);
        }

        fn percentile(&self, p: f64) -> u64 {
            if self.micros.is_empty() {
                return 0;
            }
            let rank = ((self.micros.len() - 1) as f64 * p).round() as usize;
            self.micros[rank.min(self.micros.len() - 1)]
        }

        fn count(&self) -> usize {
            self.micros.len()
        }
    }

    struct Args {
        seconds: u64,
        threads: usize,
        shards: usize,
        out: Option<String>,
        gate: bool,
    }

    fn parse_args() -> Args {
        let mut args = Args {
            seconds: 3,
            threads: 4,
            shards: 4,
            out: None,
            gate: false,
        };
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--gate" => args.gate = true,
                "--seconds" => {
                    args.seconds = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seconds takes an integer");
                }
                "--threads" => {
                    args.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads takes an integer");
                }
                "--shards" => {
                    args.shards = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--shards takes an integer");
                }
                "--out" => args.out = it.next().cloned(),
                other => panic!(
                    "unknown flag {other}; usage: fleet_loadgen [--seconds N] [--threads N] \
                     [--shards N] [--out FILE] [--gate]"
                ),
            }
        }
        args.seconds = args.seconds.max(1);
        args.threads = args.threads.max(1);
        args.shards = args.shards.max(1);
        args
    }

    /// Phase 1: single-node closed-loop cache-hit reads, returning
    /// requests/second.
    fn single_node_baseline(seconds: u64, threads: usize) -> f64 {
        let server = Server::start(ServerConfig::default()).expect("bind baseline server");
        let addr = server.local_addr();
        let mut warm = Client::new(addr);
        let job_ids: Vec<String> = JOB_SEEDS
            .iter()
            .map(|&s| warm.submit(&quick_request(s)).expect("submit").job_id)
            .collect();
        for id in &job_ids {
            warm.wait_for_profile(id, Duration::from_millis(10), 3000)
                .expect("baseline warm-up");
        }

        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let total: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let stop = &stop;
                    let job_ids = &job_ids;
                    scope.spawn(move || {
                        let mut client = Client::new(addr);
                        let mut n = 0u64;
                        let mut i = t;
                        while !stop.load(Ordering::Relaxed) {
                            let id = &job_ids[i % job_ids.len()];
                            client
                                .profile_bytes(id)
                                .expect("baseline read")
                                .expect("resident");
                            n += 1;
                            i += 1;
                        }
                        n
                    })
                })
                .collect();
            while started.elapsed() < Duration::from_secs(seconds) {
                std::thread::sleep(Duration::from_millis(20));
            }
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        });
        let rps = total as f64 / started.elapsed().as_secs_f64();
        server.shutdown();
        rps
    }

    struct FleetOutcome {
        /// Aggregate cache-hit read capacity (direct per-shard reads,
        /// same request class as the single-node baseline).
        aggregate_rps: f64,
        submit: Samples,
        read: Samples,
        delta: Samples,
        watch: Samples,
        shed: u64,
        restarts: u64,
        elapsed: f64,
    }

    /// Aggregate cache-hit capacity: every thread reads profiles from
    /// the shard that **owns** them, directly — the same request class
    /// as the single-node baseline, summed across the fleet.
    fn aggregate_cache_hit(
        fleet: &Fleet,
        jobs: &[(u64, String)],
        seconds: u64,
        threads: usize,
    ) -> f64 {
        let routes: Vec<(SocketAddr, String)> = jobs
            .iter()
            .map(|(id, job_id)| {
                let owner = fleet.owner_of(*id).expect("owner exists");
                let addr = fleet.shard_addr(owner).expect("owner is live");
                (addr, job_id.clone())
            })
            .collect();
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let total: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let stop = &stop;
                    let routes = &routes;
                    scope.spawn(move || {
                        let mut clients: Vec<Client> =
                            routes.iter().map(|(addr, _)| Client::new(*addr)).collect();
                        let mut n = 0u64;
                        let mut i = t;
                        while !stop.load(Ordering::Relaxed) {
                            let slot = i % routes.len();
                            clients[slot]
                                .profile_bytes(&routes[slot].1)
                                .expect("aggregate read")
                                .expect("resident");
                            n += 1;
                            i += 1;
                        }
                        n
                    })
                })
                .collect();
            while started.elapsed() < Duration::from_secs(seconds) {
                std::thread::sleep(Duration::from_millis(20));
            }
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        });
        total as f64 / started.elapsed().as_secs_f64()
    }

    /// Phase 2: the fleet scenario. Returns the samples and asserts
    /// byte equality against `expected` (job_id → epoch-1 bytes) after
    /// the rolling restarts.
    fn fleet_scenario(
        args: &Args,
        expected: &[(String, Vec<u8>)],
    ) -> FleetOutcome {
        let mut config = FleetConfig {
            shards: args.shards,
            ..FleetConfig::default()
        };
        config.shard_template.workers = 1;
        let mut fleet = Fleet::start(config).expect("start fleet");
        let addr = fleet.router_addr().expect("router address");

        // Warm: submit all jobs, wait, push one epoch each so delta
        // reads have a chain to fetch, then replicate the fleet warm.
        let mut warm = Client::new(addr);
        for (i, seed) in JOB_SEEDS.iter().enumerate() {
            let receipt = warm.submit(&quick_request(*seed)).expect("submit");
            assert_eq!(receipt.job_id, expected[i].0, "job IDs are content-addressed");
        }
        for (job_id, pushed) in expected {
            warm.wait_for_profile(job_id, Duration::from_millis(10), 3000)
                .expect("fleet warm-up");
            let receipt = warm.push_epoch(job_id, pushed).expect("push epoch");
            assert_eq!(receipt.epoch, 1);
        }
        fleet.replicate_once();

        // Phase 2a: aggregate cache-hit capacity before the chaos.
        let jobs: Vec<(u64, String)> = JOB_SEEDS
            .iter()
            .zip(expected)
            .map(|(&seed, (job_id, _))| (quick_request(seed).job_id(), job_id.clone()))
            .collect();
        let aggregate_rps = aggregate_cache_hit(&fleet, &jobs, args.seconds, args.threads);

        let stop = AtomicBool::new(false);
        let shed = AtomicU64::new(0);
        let started = Instant::now();
        let deadline = Duration::from_secs(args.seconds);
        let (samples, restarts) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.threads)
                .map(|t| {
                    let stop = &stop;
                    let shed = &shed;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = Client::new(addr);
                        let mut submit = Samples::default();
                        let mut read = Samples::default();
                        let mut delta = Samples::default();
                        let mut watch = Samples::default();
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let draw = rng::mix64((t as u64) << 32 | i);
                            let rank = zipf_rank(draw);
                            let slot = (rank % JOB_SEEDS.len() as u64) as usize;
                            let (job_id, _) = &expected[slot];
                            // Mix per 32 draws: 2 submits, 4 deltas,
                            // 1 watch, 25 conditional reads.
                            let t0 = Instant::now();
                            let ok = match i % 32 {
                                // Re-registration normally dedups; a
                                // submit racing a just-restarted shard
                                // may recreate the job, which the next
                                // replication tick reconverges.
                                0 | 1 => client.submit(&quick_request(JOB_SEEDS[slot])).is_ok(),
                                2..=5 => client.delta_since(job_id, 0).is_ok(),
                                6 => client.watch(job_id, Some(0), 25, 1).is_ok(),
                                _ => matches!(client.profile_bytes(job_id), Ok(Some(_))),
                            };
                            if ok {
                                match i % 32 {
                                    0 | 1 => submit.record(t0),
                                    2..=5 => delta.record(t0),
                                    6 => watch.record(t0),
                                    _ => read.record(t0),
                                }
                            } else {
                                // Mid-restart shed (503/404): retryable
                                // by contract; count it, move on.
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            i += 1;
                        }
                        (submit, read, delta, watch)
                    })
                })
                .collect();

            // Rolling restarts from the main thread: at ~1/4, 2/4, 3/4
            // of the run, bounce one shard and re-replicate.
            let mut restarts = 0u64;
            let bounce_at: Vec<Duration> = (1..=3)
                .map(|q| Duration::from_millis(args.seconds * 1000 * q / 4))
                .collect();
            let mut next = 0usize;
            while started.elapsed() < deadline {
                if next < bounce_at.len()
                    && started.elapsed() >= bounce_at[next]
                    && args.shards > 1
                {
                    let victim = next % args.shards;
                    fleet.kill_shard(victim);
                    std::thread::sleep(Duration::from_millis(30));
                    fleet
                        .restart_shard(victim)
                        .expect("restart shard")
                        .expect("valid index");
                    fleet.replicate_once();
                    restarts += 1;
                    next += 1;
                } else {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            stop.store(true, Ordering::Relaxed);

            let mut submit = Samples::default();
            let mut read = Samples::default();
            let mut delta = Samples::default();
            let mut watch = Samples::default();
            for h in handles {
                let (s, r, d, w) = h.join().expect("worker thread");
                submit.merge(s);
                read.merge(r);
                delta.merge(d);
                watch.merge(w);
            }
            ((submit, read, delta, watch), restarts)
        });
        let elapsed = started.elapsed().as_secs_f64();

        // Byte equality after the rolling restarts: every profile,
        // through the router, must equal the direct-library bytes.
        fleet.replicate_once();
        let mut verify = Client::new(addr);
        for (job_id, pushed) in expected {
            let bytes = verify
                .wait_for_profile(job_id, Duration::from_millis(10), 1000)
                .expect("post-restart read");
            assert_eq!(&bytes, pushed, "byte equality broken for {job_id}");
        }

        fleet.shutdown();
        let (submit, read, delta, watch) = samples;
        FleetOutcome {
            aggregate_rps,
            submit,
            read,
            delta,
            watch,
            shed: shed.load(Ordering::Relaxed),
            restarts,
            elapsed,
        }
    }

    /// Opens `k` connections, then probes the last-opened one with a
    /// health check. A server past its concurrency limit has already
    /// shed that connection (`503` + close), so the probe fails.
    fn sustains(addr: SocketAddr, k: usize) -> bool {
        let mut conns = Vec::with_capacity(k);
        for _ in 0..k {
            let Ok(stream) = TcpStream::connect(addr) else {
                return false;
            };
            conns.push(stream);
        }
        let probe = conns.pop().expect("k >= 1");
        let _ = probe.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = probe.set_nodelay(true);
        let mut reader = BufReader::new(probe);
        if reader
            .get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: ladder\r\ncontent-length: 0\r\n\r\n")
            .is_err()
        {
            return false;
        }
        match http::read_response(&mut reader) {
            Ok(resp) => resp.status == 200,
            Err(_) => false,
        }
    }

    /// Phase 3: largest ladder rung each connection model sustains.
    fn concurrency_ladder(model: ConnectionModel) -> usize {
        let config = ServerConfig {
            connection_model: model,
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(config).expect("bind ladder server");
        let addr = server.local_addr();
        let mut best = 0;
        for k in LADDER {
            if sustains(addr, k) {
                best = k;
            } else {
                break;
            }
        }
        server.shutdown();
        best
    }

    pub fn run() {
        let args = parse_args();
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);

        // Ground truth (epoch 0 then the grown epoch 1) per job.
        let expected: Vec<(String, Vec<u8>)> = JOB_SEEDS
            .iter()
            .map(|&seed| {
                let request = quick_request(seed);
                let job_id = ProfilingRequest::format_job_id(request.job_id());
                let outcome = request.execute().expect("direct execution");
                let epoch1 = grow_profile(&outcome.run.profile.to_bytes());
                (job_id, epoch1)
            })
            .collect();

        println!("fleet_loadgen: phase 1/3 — single-node baseline ({}s)", args.seconds);
        let baseline_rps = single_node_baseline(args.seconds, args.threads);
        println!("  single-node cache-hit baseline: {baseline_rps:.0} req/s");

        println!(
            "fleet_loadgen: phase 2/3 — {} shards, {} threads, Zipf mix over {} chips, rolling restarts ({}s)",
            args.shards, args.threads, CHIP_POPULATION, args.seconds
        );
        let outcome = fleet_scenario(&args, &expected);
        let fleet_total = outcome.submit.count()
            + outcome.read.count()
            + outcome.delta.count()
            + outcome.watch.count();
        let mixed_rps = fleet_total as f64 / outcome.elapsed;
        println!(
            "  aggregate cache-hit capacity: {:.0} req/s across {} shards",
            outcome.aggregate_rps, args.shards
        );
        println!(
            "  mixed scenario: {fleet_total} ok requests in {:.2}s = {mixed_rps:.0} req/s ({} shed during {} restarts); byte equality held",
            outcome.elapsed, outcome.shed, outcome.restarts
        );

        println!("fleet_loadgen: phase 3/3 — concurrency ladder");
        let tpc = concurrency_ladder(ConnectionModel::ThreadPerConnection {
            max_threads: TPC_MAX_THREADS,
        });
        let eventloop = concurrency_ladder(ConnectionModel::EventLoop {
            max_connections: reaper_serve::server::DEFAULT_MAX_CONNECTIONS,
        });
        println!(
            "  thread-per-connection (cap {TPC_MAX_THREADS}) sustains {tpc}; event loop sustains {eventloop}"
        );

        let throughput_ratio = if baseline_rps > 0.0 {
            outcome.aggregate_rps / baseline_rps
        } else {
            0.0
        };
        let conn_ratio = if tpc > 0 {
            eventloop as f64 / tpc as f64
        } else {
            0.0
        };
        let multicore = cores >= 2;
        let throughput_ok = !multicore || throughput_ratio >= 2.0;
        let conn_ok = conn_ratio >= 4.0;

        let mut outcome = outcome;
        let mut classes = Vec::new();
        for (name, samples) in [
            ("submit_dedup", &mut outcome.submit),
            ("profile_read", &mut outcome.read),
            ("delta_read", &mut outcome.delta),
            ("watch_poll", &mut outcome.watch),
        ] {
            samples.micros.sort_unstable();
            classes.push(json::obj([
                ("class", json::str(name)),
                ("requests", json::uint(samples.count() as u64)),
                (
                    "req_per_s",
                    json::num(
                        ((samples.count() as f64 / outcome.elapsed) * 10.0).round() / 10.0,
                    ),
                ),
                ("p50_us", json::uint(samples.percentile(0.50))),
                ("p99_us", json::uint(samples.percentile(0.99))),
            ]));
        }

        let doc = json::obj([
            ("benchmark", json::str("fleet_loadgen")),
            ("cores", json::uint(cores as u64)),
            ("shards", json::uint(args.shards as u64)),
            ("threads", json::uint(args.threads as u64)),
            ("duration_s", json::num((outcome.elapsed * 100.0).round() / 100.0)),
            ("chip_population", json::uint(CHIP_POPULATION)),
            (
                "single_node_baseline_req_per_s",
                json::num((baseline_rps * 10.0).round() / 10.0),
            ),
            (
                "fleet_aggregate_cachehit_req_per_s",
                json::num((outcome.aggregate_rps * 10.0).round() / 10.0),
            ),
            (
                "fleet_mixed_req_per_s",
                json::num((mixed_rps * 10.0).round() / 10.0),
            ),
            (
                "throughput_ratio",
                json::num((throughput_ratio * 100.0).round() / 100.0),
            ),
            ("shed_requests", json::uint(outcome.shed)),
            ("rolling_restarts", json::uint(outcome.restarts)),
            ("byte_equality", json::Value::Bool(true)),
            ("classes", json::Value::Arr(classes)),
            (
                "concurrency",
                json::obj([
                    ("tpc_max_threads", json::uint(TPC_MAX_THREADS as u64)),
                    ("tpc_sustained", json::uint(tpc as u64)),
                    ("eventloop_sustained", json::uint(eventloop as u64)),
                    ("ratio", json::num((conn_ratio * 100.0).round() / 100.0)),
                ]),
            ),
            (
                "gate",
                json::obj([
                    ("requested", json::Value::Bool(args.gate)),
                    ("multicore", json::Value::Bool(multicore)),
                    (
                        "throughput_enforced",
                        json::Value::Bool(args.gate && multicore),
                    ),
                    ("throughput_ok", json::Value::Bool(throughput_ok)),
                    ("connection_ok", json::Value::Bool(conn_ok)),
                ]),
            ),
        ]);

        if let Some(path) = &args.out {
            std::fs::write(path, doc.encode() + "\n").expect("write --out file");
            println!("fleet_loadgen: wrote {path}");
        } else {
            println!("{}", doc.encode());
        }

        if args.gate {
            if multicore && !throughput_ok {
                eprintln!(
                    "GATE FAIL: fleet aggregate {:.0} req/s < 2x single-node baseline {baseline_rps:.0} req/s",
                    outcome.aggregate_rps
                );
                std::process::exit(1);
            }
            if !conn_ok {
                eprintln!(
                    "GATE FAIL: event loop sustains {eventloop} connections < 4x thread-per-connection {tpc}"
                );
                std::process::exit(1);
            }
            println!("fleet_loadgen: gates passed");
        }
    }
}
