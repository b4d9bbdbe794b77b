//! `service_jobs`: profiling and portfolio jobs through one in-process
//! `reaper-serve`, first as an open loop at a fixed rate, then as a
//! closed loop that finds the service's capacity.
//!
//! It is the only workload where the retention, core and portfolio
//! compute sits behind HTTP parse, queue wait, encode and store insert;
//! resubmits bypass the compute entirely.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use reaper_core::{FailureProfile, ProfilingRequest};
use reaper_portfolio::PortfolioRequest;
use reaper_serve::{Client, JobRequest, Server, ServerConfig};

use super::{draw, shuffle, us_since, Ctx, Session, Tally, Workload};
use crate::record::Measured;
use crate::stats::Samples;
use crate::trace::Tracer;

pub const PER_LAYER: [&str; 8] = [
    "serve.submit_us",
    "serve.polls_per_job",
    "serve.queue_wait_us",
    "serve.exec_ms",
    "serve.dedup_frac",
    "loadgen.late_tail_ms",
    "e2e.job_tail_ms",
    "e2e.job_capacity_per_s",
];

/// Open-loop arrival rate: a fifth of the closed-loop capacity on a quiet
/// 2-vCPU host (about 130 jobs/s). When contention from other tenants
/// halved that capacity, 50 jobs/s drove the service near saturation and
/// its median latency from 10 ms to over a second.
const RATE_PER_S: f64 = 25.0;
/// Share of the window spent in the open loop; the rest is closed loop.
/// Closed-loop capacity drifts by ±15% from one second to the next on a
/// shared 2-vCPU host, so it gets half the window to average over.
const OPEN_SHARE: f64 = 0.5;
/// Completion polling period.
const POLL: Duration = Duration::from_micros(300);
/// A job not done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Jobs re-executed directly after the window.
const SAMPLE: usize = 64;

const MIX_DOMAIN: u64 = 0x5E41;
const PROFILING_DOMAIN: u64 = 0x5E42;
const PORTFOLIO_DOMAIN: u64 = 0x5E43;
const RESUBMIT_DOMAIN: u64 = 0x5E44;
const CLOSED_DOMAIN: u64 = 0x5E45;
const SAMPLE_DOMAIN: u64 = 0x5E46;
const WARM_DOMAIN: u64 = 0x5E47;

/// One slot of the open-loop mix.
pub enum Slot {
    Job(JobRequest),
    /// Resubmit an earlier job; its draw picks which.
    Resubmit(u64),
}

/// The `k`-th open-loop request under `seed`. Each block of eight holds
/// exactly six unique profiling jobs, one unique portfolio race and one
/// resubmit, in a seeded order, so every seed has the same mix.
pub fn slot(seed: u64, k: u64) -> Slot {
    let mut block = [0u8, 0, 0, 0, 0, 0, 1, 2];
    shuffle(&mut block, &[seed, MIX_DOMAIN, k / 8]);
    match block[(k % 8) as usize] {
        0 => Slot::Job(profiling(draw(seed, PROFILING_DOMAIN, k))),
        1 => Slot::Job(JobRequest::Portfolio(PortfolioRequest::example(draw(
            seed,
            PORTFOLIO_DOMAIN,
            k,
        )))),
        _ => Slot::Resubmit(draw(seed, RESUBMIT_DOMAIN, k)),
    }
}

/// A unique profiling job: Vendor B at 1/16 capacity, 4 rounds.
fn profiling(chip_seed: u64) -> JobRequest {
    JobRequest::Profiling(ProfilingRequest::example(chip_seed))
}

/// The bytes a direct library call produces for `request`.
fn execute(request: &JobRequest) -> Result<Vec<u8>, String> {
    match request {
        JobRequest::Profiling(r) => r.execute().map(|o| o.run.profile.to_bytes()),
        JobRequest::Portfolio(r) => r.execute().map(|(_, o)| o.run.profile.to_bytes()),
    }
    .map_err(|e| e.to_string())
}

/// A completed job and the bytes the service returned.
struct Done {
    request: JobRequest,
    job_id: String,
    bytes: Vec<u8>,
}

pub struct Service {
    server: Server,
    addr: SocketAddr,
    seed: u64,
    threads: usize,
    /// Next open-loop slot and next closed-loop job, across windows.
    next_open: u64,
    next_closed: u64,
    /// Warm-up and open-loop jobs, and each closed-loop client's first
    /// [`SAMPLE`]: what resubmits and the final sample draw from.
    done: Vec<Done>,
}

pub struct Window {
    /// Open-loop job latencies.
    job_ms: Samples,
    late_ms: Samples,
    submit_us: Samples,
    polls: Samples,
    /// Closed-loop jobs completed and the seconds the closed loop ran.
    closed_jobs: usize,
    closed_s: f64,
    counters: ServerCounters,
}

impl Session for Service {
    type Window = Window;
    /// Tens of milliseconds each, with a wide spread between repeats.
    const SETUP_REPS: usize = 15;

    /// Starts the server with one worker per core and completes the
    /// unique jobs of one block of the mix (six profiling jobs, one race),
    /// the same for every seed, which later resubmits may target.
    fn setup(_: Workload, ctx: &Ctx, tally: &mut Tally) -> Service {
        let config = ServerConfig {
            workers: ctx.threads,
            ..ServerConfig::default()
        };
        let server = Server::start(config).expect("bind an ephemeral localhost port");
        let addr = server.local_addr();
        let mut session = Service {
            server,
            addr,
            seed: ctx.seed,
            threads: ctx.threads,
            next_open: 0,
            next_closed: 0,
            done: Vec::new(),
        };
        let mut client = Client::new(addr);
        let race = JobRequest::Portfolio(PortfolioRequest::example(draw(0, WARM_DOMAIN, 6)));
        let warm = (0..6).map(|i| profiling(draw(0, WARM_DOMAIN, i)));
        for request in warm.chain([race]) {
            let job = submit_and_wait(
                &mut client,
                request,
                &mut Tracer::new(false),
                tally,
                &mut Samples::default(),
            );
            session.done.push(job.expect("warm-up job completes"));
        }
        session
    }

    fn discard(self) {
        self.server.shutdown();
    }

    fn window(&mut self, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Window {
        let mut scrape = Client::new(self.addr);
        let before = ServerCounters::scrape(&mut scrape);
        let open = self.open_loop(seconds * OPEN_SHARE, tr, tally);
        let (closed_jobs, closed_s, closed_submit_us) =
            self.closed_loop(seconds * (1.0 - OPEN_SHARE), tr, tally);
        let after = ServerCounters::scrape(&mut scrape);
        let mut submit_us = open.submit_us;
        submit_us.extend(closed_submit_us);
        Window {
            job_ms: open.job_ms,
            late_ms: open.late_ms,
            submit_us,
            polls: open.polls,
            closed_jobs,
            closed_s,
            counters: after.minus(&before),
        }
    }

    fn latency_ms(window: &Window) -> Measured {
        Measured::median(&window.job_ms)
    }

    fn per_layer(&mut self, w: &Window, _: &mut Tracer, _: &mut Tally) -> Vec<(String, Measured)> {
        let c = &w.counters;
        let tail = |s: &Samples| s.tail().unwrap_or(f64::NAN);
        let jobs = (c.submitted + c.deduped) as usize;
        let values = [
            Measured::median(&w.submit_us),
            Measured::derived(mean(&w.polls), w.polls.len()),
            Measured::derived(
                c.queue_wait_sum / c.queue_wait_count,
                c.queue_wait_count as usize,
            ),
            Measured::derived(c.exec_sum / c.exec_count / 1e3, c.exec_count as usize),
            Measured::derived(c.deduped / (c.submitted + c.deduped), jobs),
            Measured::derived(tail(&w.late_ms), w.late_ms.len()),
            Measured::derived(tail(&w.job_ms), w.job_ms.len()),
            Measured::derived(w.closed_jobs as f64 / w.closed_s, w.closed_jobs),
        ];
        PER_LAYER
            .iter()
            .map(|n| n.to_string())
            .zip(values)
            .collect()
    }

    /// Re-executes a seeded sample of the kept jobs, of every kind,
    /// directly through the library: the service must have returned the
    /// same bytes.
    fn finish(self, tally: &mut Tally) {
        let mut order: Vec<usize> = (0..self.done.len()).collect();
        shuffle(&mut order, &[self.seed, SAMPLE_DOMAIN]);
        for &i in order.iter().take(SAMPLE) {
            let job = &self.done[i];
            let direct = execute(&job.request);
            tally.check(direct.as_ref() == Ok(&job.bytes), || {
                format!("job {} differs from direct execution", job.job_id)
            });
        }
        self.server.shutdown();
    }
}

struct OpenLoop {
    job_ms: Samples,
    late_ms: Samples,
    submit_us: Samples,
    polls: Samples,
}

/// A submitted open-loop job awaiting its bytes.
struct Pending {
    request: JobRequest,
    job_id: String,
    due: Instant,
    next_poll: Instant,
    polls: u32,
}

impl Service {
    /// One generator thread submits on a fixed schedule and polls the
    /// outstanding jobs in between; latency runs from each job's
    /// scheduled send time, so a stall also delays the jobs behind it.
    fn open_loop(&mut self, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> OpenLoop {
        let jobs = (seconds * RATE_PER_S).floor().max(1.0) as u64;
        let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
        let mut client = Client::new(self.addr);
        let mut out = OpenLoop {
            job_ms: Samples::default(),
            late_ms: Samples::default(),
            submit_us: Samples::default(),
            polls: Samples::default(),
        };
        let mut pending: Vec<Pending> = Vec::new();
        let start = Instant::now();
        let mut sent = 0u64;
        while sent < jobs || !pending.is_empty() {
            let now = Instant::now();
            let due = start + period * u32::try_from(sent).unwrap_or(u32::MAX);
            if sent < jobs && now >= due {
                out.late_ms.push((now - due).as_secs_f64() * 1e3);
                let request = match slot(self.seed, self.next_open) {
                    Slot::Job(r) => r,
                    Slot::Resubmit(pick) => self.done[(pick % self.done.len() as u64) as usize]
                        .request
                        .clone(),
                };
                self.next_open += 1;
                sent += 1;
                let t0 = Instant::now();
                let receipt = tr.span("submit", "serve", |_| client.submit_job(&request));
                out.submit_us.push(us_since(t0));
                match receipt {
                    Ok(r) => pending.push(Pending {
                        request,
                        job_id: r.job_id,
                        due,
                        next_poll: Instant::now(),
                        polls: 0,
                    }),
                    Err(e) => {
                        eprintln!("submit failed: {e}");
                        tally.op(false);
                    }
                }
                continue;
            }
            let mut i = 0;
            while i < pending.len() {
                let p = &mut pending[i];
                if Instant::now() < p.next_poll {
                    i += 1;
                    continue;
                }
                p.polls += 1;
                let fetched = tr.span("poll", "serve", |_| client.profile_bytes(&p.job_id));
                match fetched {
                    Ok(None) if p.due.elapsed() < JOB_TIMEOUT => {
                        p.next_poll = Instant::now() + POLL;
                        i += 1;
                    }
                    Ok(Some(bytes)) => {
                        out.job_ms.push(p.due.elapsed().as_secs_f64() * 1e3);
                        out.polls.push(f64::from(p.polls));
                        let p = pending.swap_remove(i);
                        self.done
                            .push(received(p.request, p.job_id, bytes, tr, tally));
                    }
                    other => {
                        eprintln!("job {} failed: {other:?}", p.job_id);
                        tally.op(false);
                        pending.swap_remove(i);
                    }
                }
            }
            let next_due =
                (sent < jobs).then(|| start + period * u32::try_from(sent).unwrap_or(u32::MAX));
            let wake = pending.iter().map(|p| p.next_poll).chain(next_due).min();
            if let Some(wake) = wake {
                let now = Instant::now();
                if wake > now {
                    thread::sleep(wake - now);
                }
            }
        }
        out
    }

    /// `threads` clients each submit a unique job and wait for its bytes,
    /// back to back, until `seconds` have passed. Returns the jobs
    /// completed, the seconds until the last one finished, and the submit
    /// latencies.
    fn closed_loop(
        &mut self,
        seconds: f64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> (usize, f64, Samples) {
        let next = AtomicU64::new(self.next_closed);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let (addr, seed) = (self.addr, self.seed);
        let results: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    let next = &next;
                    let mut tr = tr.fork();
                    scope.spawn(move || {
                        let mut client = Client::new(addr);
                        let mut tally = Tally::default();
                        let (mut done, mut completed) = (Vec::new(), 0);
                        let mut submit_us = Samples::default();
                        while Instant::now() < deadline {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let request = profiling(draw(seed, CLOSED_DOMAIN, k));
                            let job = tr.span("job", "loadgen", |tr| {
                                submit_and_wait(
                                    &mut client,
                                    request,
                                    tr,
                                    &mut tally,
                                    &mut submit_us,
                                )
                            });
                            completed += usize::from(job.is_some());
                            // Every body was decoded on arrival; only the
                            // first jobs are kept for the final sample, so
                            // peak RSS does not follow capacity.
                            if done.len() < SAMPLE {
                                done.extend(job);
                            }
                        }
                        (done, completed, tally, submit_us, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client thread"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        self.next_closed = next.into_inner();
        let mut submit_us = Samples::default();
        let mut completed = 0;
        for (done, n, t, s, child) in results {
            completed += n;
            self.done.extend(done);
            tally.absorb(t);
            submit_us.extend(s);
            tr.absorb(child);
        }
        (completed, elapsed, submit_us)
    }
}

/// Counts a completed job as one operation and the decode of its body as
/// one check.
fn received(
    request: JobRequest,
    job_id: String,
    bytes: Vec<u8>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Done {
    tally.op(true);
    let decoded = tr.span("decode", "core", |_| FailureProfile::from_bytes(&bytes));
    tally.check(decoded.is_ok(), || {
        format!("job {job_id}: body does not decode")
    });
    Done {
        request,
        job_id,
        bytes,
    }
}

/// Submits `request` and polls until its bytes arrive.
fn submit_and_wait(
    client: &mut Client,
    request: JobRequest,
    tr: &mut Tracer,
    tally: &mut Tally,
    submit_us: &mut Samples,
) -> Option<Done> {
    let t0 = Instant::now();
    let receipt = tr.span("submit", "serve", |_| client.submit_job(&request));
    submit_us.push(us_since(t0));
    let job_id = match receipt {
        Ok(r) => r.job_id,
        Err(e) => {
            eprintln!("submit failed: {e}");
            tally.op(false);
            return None;
        }
    };
    loop {
        match tr.span("poll", "serve", |_| client.profile_bytes(&job_id)) {
            Ok(None) if t0.elapsed() < JOB_TIMEOUT => thread::sleep(POLL),
            Ok(Some(bytes)) => return Some(received(request, job_id, bytes, tr, tally)),
            other => {
                eprintln!("job {job_id} failed: {other:?}");
                tally.op(false);
                return None;
            }
        }
    }
}

fn mean(s: &Samples) -> f64 {
    s.0.iter().sum::<f64>() / s.len() as f64
}

/// The `/metrics` counters the per-layer metrics difference.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    submitted: f64,
    deduped: f64,
    queue_wait_sum: f64,
    queue_wait_count: f64,
    exec_sum: f64,
    exec_count: f64,
}

impl ServerCounters {
    fn scrape(client: &mut Client) -> ServerCounters {
        let text = client.metrics_text().unwrap_or_default();
        let get = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
                .unwrap_or(f64::NAN)
        };
        ServerCounters {
            submitted: get("reaper_jobs_submitted_total"),
            deduped: get("reaper_jobs_deduped_total"),
            queue_wait_sum: get("reaper_queue_wait_microseconds_sum"),
            queue_wait_count: get("reaper_queue_wait_microseconds_count"),
            exec_sum: get("reaper_exec_microseconds_sum"),
            exec_count: get("reaper_exec_microseconds_count"),
        }
    }

    fn minus(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            submitted: self.submitted - before.submitted,
            deduped: self.deduped - before.deduped,
            queue_wait_sum: self.queue_wait_sum - before.queue_wait_sum,
            queue_wait_count: self.queue_wait_count - before.queue_wait_count,
            exec_sum: self.exec_sum - before.exec_sum,
            exec_count: self.exec_count - before.exec_count,
        }
    }
}
