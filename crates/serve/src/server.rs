//! The profiling service: accept loop, job queue, worker pool, and the
//! HTTP endpoint handlers.
//!
//! ## Determinism under concurrent clients
//!
//! Every job is a pure function of its [`ProfilingRequest`], and the job
//! ID is the hash of the request's canonical bytes — so scheduling
//! (which worker runs a job, in what order, at what thread count) can
//! only affect *when* a result appears, never *what* it is. Two clients
//! racing to submit the same request collide on the same ID; the first
//! enqueues the execution, the second is answered from the existing
//! record ("dedup"), and both read back the same bytes.
//!
//! ## Lock ordering
//!
//! `jobs` before `store`, everywhere. Handlers take at most both; the
//! worker takes them in the same order when publishing a result. The
//! watch sequence lock (`watch_seq`) is leaf-only: it is never held
//! while acquiring `jobs` or `store`.
//!
//! ## Streaming profiles
//!
//! Completed jobs seed one epoch log each in the [`crate::store`]
//! module's [`ProfileStore`]. Re-profiling pushes
//! (`POST /v1/profiles/{id}/epochs`) append `RPD1` deltas and advance
//! the head; readers catch up with `GET /v1/profiles/{id}/delta?since=`
//! or subscribe via the chunked `GET /v1/profiles/{id}/watch` long-poll,
//! woken by a `Condvar` the publishers signal. ETags are
//! `"<content-hash>-<epoch>"`, so `If-None-Match` revalidation works
//! even after the bytes were evicted — a 304 costs no recomputation.

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use reaper_core::{FailureProfile, ProfilingOutcome, ProfilingRequest};
use reaper_exec::pool::{BoundedQueue, PushError, WorkerPool};
use reaper_exec::sync::lock;
use reaper_portfolio::{PriorStore, RaceOutcome};
use reaper_retention::delta::{self, ProfileDelta};

use crate::api::{self, JobRequest, JobSummary};
use crate::http::{self, HttpError, Request, Response};
use crate::json::{self, Value};
use crate::metrics::{
    self, FleetIdentity, FleetMetrics, MetricsSnapshot, PortfolioMetrics, ServiceMetrics,
    StoreGauges,
};
use crate::store::{
    AppendError, DeltaQuery, FullQuery, HeadInfo, InsertOutcome, ProfileStore, StoreConfig,
    SyncApply,
};

/// Socket read timeout for keep-alive connections; bounds how long a
/// connection thread can ignore the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How the server multiplexes its sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionModel {
    /// The `poll(2)` readiness loop ([`crate::eventloop`]): one thread
    /// drives every connection, so the concurrency bound is file
    /// descriptors, not stacks. Unix only; other targets fall back to
    /// thread-per-connection.
    EventLoop {
        /// Most simultaneously registered sockets; further accepts wait
        /// in the listener backlog.
        max_connections: usize,
    },
    /// The original model: one blocking thread per connection.
    ThreadPerConnection {
        /// Connection-thread cap; accepts beyond it are shed with a
        /// `503` (previously unbounded, which is how a fleet-scale
        /// client crowd exhausts a shard's stacks).
        max_threads: usize,
    },
}

/// Default registered-socket cap for the event loop.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;
/// Default connection-thread cap for the blocking model.
pub const DEFAULT_MAX_CONN_THREADS: usize = 256;

impl Default for ConnectionModel {
    fn default() -> Self {
        #[cfg(unix)]
        {
            ConnectionModel::EventLoop {
                max_connections: DEFAULT_MAX_CONNECTIONS,
            }
        }
        #[cfg(not(unix))]
        {
            ConnectionModel::ThreadPerConnection {
                max_threads: DEFAULT_MAX_CONN_THREADS,
            }
        }
    }
}

/// Service configuration; `Default` gives an ephemeral-port localhost
/// server sized for tests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads; 0 means [`reaper_exec::thread_count`].
    pub workers: usize,
    /// Job-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Profile-store byte budget (snapshots + delta chunks).
    pub cache_budget_bytes: usize,
    /// Compact an epoch log once its chain holds this many deltas.
    pub compact_max_deltas: usize,
    /// Compact an epoch log once its chain payload exceeds this.
    pub compact_max_chain_bytes: usize,
    /// Socket multiplexing model.
    pub connection_model: ConnectionModel,
    /// Fleet shard index; `None` runs as a standalone server. Shown in
    /// `/healthz` and the `reaper_fleet_info` metric.
    pub shard_id: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let store = StoreConfig::default();
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_budget_bytes: store.budget_bytes,
            compact_max_deltas: store.compact_max_deltas,
            compact_max_chain_bytes: store.compact_max_chain_bytes,
            connection_model: ConnectionModel::default(),
            shard_id: None,
        }
    }
}

/// Lifecycle of a job record.
#[derive(Debug, Clone)]
enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; summary retained even if the profile bytes get evicted.
    Done(JobSummary),
    /// Execution failed (validation race or worker panic), with a reason.
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One job record, kept for the server's lifetime (records are a few
/// hundred bytes; the byte-heavy profile lives in the evictable cache).
struct JobRecord {
    request: JobRequest,
    status: JobStatus,
}

/// A queued unit of work.
struct JobTicket {
    id: u64,
    request: JobRequest,
    enqueued_at: std::time::Instant,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    shutdown: AtomicBool,
    queue: BoundedQueue<JobTicket>,
    jobs: Mutex<BTreeMap<u64, JobRecord>>,
    store: Mutex<ProfileStore>,
    metrics: ServiceMetrics,
    /// Per-strategy portfolio race counters.
    portfolio: PortfolioMetrics,
    /// Per-vendor strategy priors learned from completed portfolio
    /// races; workers snapshot the store before executing (priors only
    /// reorder lane launches — results stay pure functions of the
    /// request) and record the winner afterwards.
    priors: Mutex<PriorStore>,
    open_connections: AtomicUsize,
    /// Bumped on every publish (job completion or epoch push); watch
    /// handlers sleep on the condvar instead of busy-polling the store.
    watch_seq: Mutex<u64>,
    watch_cv: Condvar,
    /// Who this server is within a fleet (role + shard id).
    identity: FleetIdentity,
    /// Fleet-plane counters (replication pulls; the router owns the
    /// proxy/failover counters through [`crate::metrics::FleetMetrics`]).
    fleet: FleetMetrics,
}

impl Shared {
    /// Signals every watch subscriber that some profile advanced.
    fn notify_watchers(&self) {
        let mut seq = lock(&self.watch_seq);
        *seq = seq.wrapping_add(1);
        self.watch_cv.notify_all();
        drop(seq);
    }
}

/// A running profiling service; dropping it without calling
/// [`Server::shutdown`] leaks the listener thread for the process
/// lifetime, so tests should always shut down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Option<WorkerPool>,
}

impl Server {
    /// Binds the listener, spawns the worker pool and accept loop, and
    /// returns once the service is reachable.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            reaper_exec::thread_count()
        } else {
            config.workers
        };

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: BoundedQueue::new(config.queue_capacity),
            jobs: Mutex::new(BTreeMap::new()),
            store: Mutex::new(ProfileStore::new(StoreConfig {
                budget_bytes: config.cache_budget_bytes,
                compact_max_deltas: config.compact_max_deltas,
                compact_max_chain_bytes: config.compact_max_chain_bytes,
            })),
            metrics: ServiceMetrics::new(),
            portfolio: PortfolioMetrics::new(),
            priors: Mutex::new(PriorStore::new()),
            open_connections: AtomicUsize::new(0),
            watch_seq: Mutex::new(0),
            watch_cv: Condvar::new(),
            identity: match config.shard_id {
                Some(id) => FleetIdentity {
                    role: "shard",
                    shard_id: Some(id),
                },
                None => FleetIdentity::standalone(),
            },
            fleet: FleetMetrics::new(),
        });

        let pool = {
            let shared = Arc::clone(&shared);
            WorkerPool::spawn("reaper-serve-worker", workers, move |_i| {
                worker_loop(&shared);
            })
        };

        let accept_thread = spawn_accept(listener, &shared, config.connection_model)?;

        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            workers: Some(pool),
        })
    }

    /// A handle for fleet replication agents: apply a peer's profile
    /// state to this server's store without going through HTTP.
    pub fn sync_handle(&self) -> SyncHandle {
        SyncHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the service counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Graceful shutdown: stop accepting, close the queue (workers drain
    /// what was already accepted), join the accept loop and the pool, and
    /// wait bounded time for open connections to notice the flag.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Wake long-poll subscribers so they notice the flag promptly.
        self.shared.notify_watchers();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(pool) = self.workers.take() {
            pool.join();
        }
        // Connection threads poll the flag every READ_TIMEOUT; give them a
        // bounded number of ticks to finish in-flight responses.
        for _ in 0..100 {
            if self.shared.open_connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(READ_TIMEOUT / 4);
        }
    }
}

/// Spawns the socket-facing thread for the chosen connection model.
fn spawn_accept(
    listener: TcpListener,
    shared: &Arc<Shared>,
    model: ConnectionModel,
) -> std::io::Result<JoinHandle<()>> {
    match model {
        #[cfg(unix)]
        ConnectionModel::EventLoop { max_connections } => {
            let event_loop = crate::eventloop::EventLoop::new(listener, max_connections)?;
            let handler = Arc::new(ShardHandler {
                shared: Arc::clone(shared),
            });
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name("reaper-serve-accept".to_string())
                .spawn(move || event_loop.run(&handler, &shared.shutdown))
        }
        #[cfg(not(unix))]
        ConnectionModel::EventLoop { .. } => {
            // No poll(2) on this target: serve correctly anyway.
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name("reaper-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, DEFAULT_MAX_CONN_THREADS))
        }
        ConnectionModel::ThreadPerConnection { max_threads } => {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name("reaper-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, max_threads.max(1)))
        }
    }
}

/// Accepts connections until the shutdown flag is raised, spawning one
/// detached handler thread per connection, up to `max_threads`; beyond
/// that, connections are shed with a `503` instead of a silent hang.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, max_threads: usize) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.open_connections.load(Ordering::SeqCst) >= max_threads {
            let mut stream = stream;
            let response =
                Response::json(503, api::error_body("connection limit reached; retry"));
            let _ = http::write_response(&mut stream, &response, false);
            continue;
        }
        shared.open_connections.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("reaper-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.open_connections.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): drop the
            // connection rather than the whole service.
            shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    // See Client::connect: responses must not sit in Nagle's buffer
    // waiting for a delayed ACK.
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream);
    serve_blocking(reader, shared);
}

/// The blocking request loop over any buffered source that can hand the
/// raw socket back out (`get_mut`). Shared between thread-per-connection
/// service and the event loop's watch takeover (where the source is
/// residual pipelined bytes chained in front of the socket).
fn serve_blocking<R>(mut reader: BufReader<R>, shared: &Arc<Shared>)
where
    R: Read + AsSocket,
{
    loop {
        match http::read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive();
                match route(&request, shared) {
                    Routed::Plain(response) => {
                        if http::write_response(reader.get_mut().socket_mut(), &response, keep_alive)
                            .is_err()
                        {
                            return;
                        }
                    }
                    Routed::Watch(params) => {
                        if serve_watch(reader.get_mut().socket_mut(), &params, shared, keep_alive)
                            .is_err()
                        {
                            return;
                        }
                    }
                }
                if !keep_alive {
                    return;
                }
            }
            Err(HttpError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Extracts the writable socket from a blocking read source. The
/// takeover path reads from `residual-bytes ⊕ socket` but must write to
/// the socket itself.
trait AsSocket {
    fn socket_mut(&mut self) -> &mut TcpStream;
}

impl AsSocket for TcpStream {
    fn socket_mut(&mut self) -> &mut TcpStream {
        self
    }
}

#[cfg(unix)]
impl AsSocket for std::io::Chain<std::io::Cursor<Vec<u8>>, TcpStream> {
    fn socket_mut(&mut self) -> &mut TcpStream {
        self.get_mut().1
    }
}

/// [`crate::eventloop::Handler`] adapter: plain endpoints answer from
/// the loop thread; watch subscriptions (long-lived chunked streams that
/// would stall every other connection) take the socket over onto a
/// dedicated blocking thread.
#[cfg(unix)]
struct ShardHandler {
    shared: Arc<Shared>,
}

#[cfg(unix)]
impl crate::eventloop::Handler for ShardHandler {
    fn handle(&self, request: Request) -> crate::eventloop::Handled {
        match route(&request, &self.shared) {
            Routed::Plain(response) => crate::eventloop::Handled::Respond(response),
            Routed::Watch(params) => {
                let shared = Arc::clone(&self.shared);
                let keep_alive = request.keep_alive();
                crate::eventloop::Handled::TakeOver(Box::new(move |stream, residual| {
                    shared.open_connections.fetch_add(1, Ordering::SeqCst);
                    takeover_watch(stream, residual, &params, &shared, keep_alive);
                    shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                }))
            }
        }
    }
}

/// Runs a watch stream on its takeover thread, then — on keep-alive —
/// keeps serving the connection in blocking mode, replaying any
/// pipelined bytes the event loop had already read.
#[cfg(unix)]
fn takeover_watch(
    mut stream: TcpStream,
    residual: Vec<u8>,
    params: &WatchParams,
    shared: &Arc<Shared>,
    keep_alive: bool,
) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    if serve_watch(&mut stream, params, shared, keep_alive).is_err() || !keep_alive {
        return;
    }
    let reader = BufReader::new(std::io::Cursor::new(residual).chain(stream));
    serve_blocking(reader, shared);
}

/// How a routed request gets answered: a buffered response, or the
/// chunked watch stream that writes to the socket incrementally.
enum Routed {
    Plain(Response),
    Watch(WatchParams),
}

impl From<Response> for Routed {
    fn from(response: Response) -> Self {
        Routed::Plain(response)
    }
}

/// Validated parameters of a watch subscription.
struct WatchParams {
    id: u64,
    /// Epoch the subscriber has; `None` means "the head at subscribe
    /// time" (wait for whatever comes next).
    since: Option<u64>,
    /// Long-poll duration before an empty stream closes.
    timeout_ms: u64,
    /// Close the stream after this many events.
    max_events: u64,
}

/// Longest allowed watch long-poll; keeps connection threads bounded
/// relative to shutdown's drain loop.
const WATCH_TIMEOUT_CAP_MS: u64 = 30_000;
/// Watch long-poll used when the query string does not pick one.
const WATCH_TIMEOUT_DEFAULT_MS: u64 = 2_000;
/// Default cap on events per watch stream.
const WATCH_MAX_EVENTS_DEFAULT: u64 = 256;
/// Condvar wait granularity; bounds reaction time to shutdown.
const WATCH_TICK: Duration = Duration::from_millis(50);

/// Dispatches one request to its endpoint handler.
fn route(request: &Request, shared: &Arc<Shared>) -> Routed {
    match (request.method.as_str(), request.path()) {
        ("POST", "/v1/jobs") => submit_job(request, shared).into(),
        ("GET", "/healthz") => healthz(shared).into(),
        ("GET", "/metrics") => render_metrics(shared).into(),
        ("GET", "/v1/sync/manifest") => sync_manifest(shared).into(),
        ("POST", path) => {
            if let Some((id_text, "epochs")) = split_profile_path(path) {
                push_epoch(id_text, request, shared).into()
            } else {
                Response::json(404, api::error_body("no such resource")).into()
            }
        }
        ("GET", path) => {
            if let Some(id_text) = path.strip_prefix("/v1/jobs/") {
                job_status(id_text, shared).into()
            } else {
                match split_profile_path(path) {
                    Some((id_text, "")) => profile_bytes(id_text, request, shared).into(),
                    Some((id_text, "delta")) => delta_endpoint(id_text, request, shared).into(),
                    Some((id_text, "watch")) => watch_endpoint(id_text, request),
                    _ => Response::json(404, api::error_body("no such resource")).into(),
                }
            }
        }
        _ => Response::json(405, api::error_body("method not allowed")).into(),
    }
}

/// Splits `/v1/profiles/{id}[/action]` into `(id_text, action)`, with
/// `""` as the action for the bare profile path.
fn split_profile_path(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix("/v1/profiles/")?;
    match rest.split_once('/') {
        Some((id_text, action)) => Some((id_text, action)),
        None => Some((rest, "")),
    }
}

/// The strong ETag for a profile head: content hash + epoch. The hash
/// alone identifies the bytes; the epoch makes log rewinds (which cannot
/// happen, but cost nothing to guard) visible too.
fn etag_for(info: &HeadInfo) -> String {
    format!("\"{:016x}-{}\"", info.hash, info.epoch)
}

/// True when the request's `If-None-Match` matches `etag` (exact strong
/// compare over a comma-separated candidate list, plus `*`).
fn if_none_match(request: &Request, etag: &str) -> bool {
    request.header("if-none-match").is_some_and(|header| {
        header
            .split(',')
            .map(str::trim)
            .any(|candidate| candidate == etag || candidate == "*")
    })
}

/// `POST /v1/jobs`: parse, content-address, dedup-or-enqueue. Both job
/// kinds (profiling and portfolio) flow through the same record, queue,
/// and store machinery; only the worker's execution step dispatches.
fn submit_job(request: &Request, shared: &Arc<Shared>) -> Response {
    let job_request = match api::parse_job_body(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_body(&message)),
    };
    if let Err(e) = job_request.validate() {
        return Response::json(400, api::error_body(&e.to_string()));
    }
    let id = job_request.job_id();

    let mut jobs = lock(&shared.jobs);
    let deduped = jobs.contains_key(&id);
    if deduped {
        // Same canonical request already known: answer from the record.
        // If it finished but its bytes were evicted, re-enqueue so the
        // profile becomes readable again (still no duplicate record).
        ServiceMetrics::inc(&shared.metrics.jobs_deduped);
        let needs_requeue = matches!(
            jobs.get(&id).map(|r| &r.status),
            Some(JobStatus::Done(_))
        ) && !lock(&shared.store).is_resident(id);
        if needs_requeue {
            let ticket = JobTicket {
                id,
                request: job_request.clone(),
                enqueued_at: metrics::now(),
            };
            if shared.queue.try_push(ticket).is_ok() {
                if let Some(record) = jobs.get_mut(&id) {
                    record.status = JobStatus::Queued;
                }
            }
        }
    } else {
        let ticket = JobTicket {
            id,
            request: job_request.clone(),
            enqueued_at: metrics::now(),
        };
        match shared.queue.try_push(ticket) {
            Ok(()) => {
                jobs.insert(
                    id,
                    JobRecord {
                        request: job_request,
                        status: JobStatus::Queued,
                    },
                );
                ServiceMetrics::inc(&shared.metrics.jobs_submitted);
            }
            Err(PushError::Full) => {
                return Response::json(503, api::error_body("job queue is full; retry later"));
            }
            Err(PushError::Closed) => {
                return Response::json(503, api::error_body("service is shutting down"));
            }
        }
    }
    let status = jobs
        .get(&id)
        .map(|r| r.status.name())
        .unwrap_or("queued");
    let body = json::obj([
        ("job_id", json::str(ProfilingRequest::format_job_id(id))),
        ("status", json::str(status)),
        ("deduped", Value::Bool(deduped)),
    ]);
    drop(jobs);
    Response::json(200, body.encode())
}

/// `GET /v1/jobs/{id}`: job record status and summary.
fn job_status(id_text: &str, shared: &Arc<Shared>) -> Response {
    let Some(id) = ProfilingRequest::parse_job_id(id_text) else {
        return Response::json(400, api::error_body("job IDs are 16 hex digits"));
    };
    let jobs = lock(&shared.jobs);
    let Some(record) = jobs.get(&id) else {
        return Response::json(404, api::error_body("unknown job"));
    };
    let mut fields = vec![
        ("job_id", json::str(ProfilingRequest::format_job_id(id))),
        ("status", json::str(record.status.name())),
        ("kind", json::str(record.request.kind())),
        ("seed", json::uint(record.request.seed())),
        ("vendor", json::str(record.request.vendor().name())),
    ];
    match &record.status {
        JobStatus::Done(summary) => fields.push(("summary", summary.to_value())),
        JobStatus::Failed(reason) => fields.push(("reason", json::str(reason.clone()))),
        _ => {}
    }
    let body = json::obj(fields);
    drop(jobs);
    Response::json(200, body.encode())
}

/// Resolves `{id}` to a completed job, or the early response to send
/// instead (400/404/202/500).
fn completed_job_id(id_text: &str, shared: &Arc<Shared>) -> Result<u64, Response> {
    let Some(id) = ProfilingRequest::parse_job_id(id_text) else {
        return Err(Response::json(400, api::error_body("job IDs are 16 hex digits")));
    };
    let status = {
        let jobs = lock(&shared.jobs);
        match jobs.get(&id) {
            None => return Err(Response::json(404, api::error_body("unknown job"))),
            Some(record) => record.status.clone(),
        }
    };
    match status {
        JobStatus::Queued | JobStatus::Running => Err(Response::json(
            202,
            json::obj([
                ("job_id", json::str(ProfilingRequest::format_job_id(id))),
                ("status", json::str(status.name())),
            ])
            .encode(),
        )),
        JobStatus::Failed(reason) => Err(Response::json(500, api::error_body(&reason))),
        JobStatus::Done(_) => Ok(id),
    }
}

/// `GET /v1/profiles/{id}`: the encoded head profile (binary by
/// default, decoded cell list with `?format=json`), with strong-ETag
/// revalidation.
///
/// `If-None-Match` is checked against the head metadata *before*
/// residency, so a client holding the current ETag gets `304 Not
/// Modified` even when the bytes were evicted — and an
/// evicted-then-resubmitted job revalidates without waiting for (or
/// spending) the recompute.
fn profile_bytes(id_text: &str, request: &Request, shared: &Arc<Shared>) -> Response {
    let id = match completed_job_id(id_text, shared) {
        Ok(id) => id,
        Err(response) => return response,
    };
    let (info, fetched) = {
        let mut store = lock(&shared.store);
        let Some(info) = store.head_info(id) else {
            // Unreachable (Done ⇒ the worker seeded the log), but a
            // truthful answer exists.
            return Response::json(404, api::error_body("no profile log for this job"));
        };
        let etag = etag_for(&info);
        if if_none_match(request, &etag) {
            ServiceMetrics::inc(&shared.metrics.not_modified);
            return Response::bytes(304, Vec::new()).with_header("etag", etag);
        }
        (info, store.full_bytes(id))
    };
    let etag = etag_for(&info);
    let bytes = match fetched {
        FullQuery::Bytes(bytes) => bytes,
        FullQuery::Unknown | FullQuery::Evicted => {
            ServiceMetrics::inc(&shared.metrics.cache_misses);
            return Response::json(
                410,
                api::error_body("profile bytes were evicted; resubmit the job to recompute"),
            )
            .with_header("etag", etag);
        }
    };
    ServiceMetrics::inc(&shared.metrics.cache_hits);
    if request.query_has("format", "json") {
        match FailureProfile::from_bytes(&bytes) {
            Ok(profile) => {
                let cells: Vec<Value> = profile.iter().map(json::uint).collect();
                Response::json(
                    200,
                    json::obj([
                        ("job_id", json::str(ProfilingRequest::format_job_id(id))),
                        ("epoch", json::uint(info.epoch)),
                        ("cells", Value::Arr(cells)),
                    ])
                    .encode(),
                )
            }
            Err(e) => Response::json(500, api::error_body(&e.to_string())),
        }
    } else {
        Response::bytes(200, bytes.as_ref().clone())
            .with_header("etag", etag)
            .with_header("x-reaper-epoch", info.epoch.to_string())
    }
}

/// `POST /v1/profiles/{id}/epochs`: push a re-profiling snapshot (an
/// `RPF1` body). Appends a delta record and advances the head; an
/// unchanged snapshot consumes no epoch.
fn push_epoch(id_text: &str, request: &Request, shared: &Arc<Shared>) -> Response {
    let id = match completed_job_id(id_text, shared) {
        Ok(id) => id,
        Err(response) => return response,
    };
    let profile = match FailureProfile::from_bytes(&request.body) {
        Ok(profile) => profile,
        Err(e) => {
            return Response::json(
                400,
                api::error_body(&format!("body must be an RPF1 profile: {e}")),
            )
        }
    };
    let appended = lock(&shared.store).append_full(id, &profile);
    match appended {
        Ok(outcome) => {
            ServiceMetrics::inc(&shared.metrics.delta_pushes);
            if outcome.changed {
                shared.notify_watchers();
            }
            let etag = etag_for(&HeadInfo {
                epoch: outcome.epoch,
                hash: outcome.head_hash,
                resident: true,
            });
            Response::json(
                200,
                json::obj([
                    ("job_id", json::str(ProfilingRequest::format_job_id(id))),
                    ("epoch", json::uint(outcome.epoch)),
                    ("changed", Value::Bool(outcome.changed)),
                    ("compacted", Value::Bool(outcome.compacted)),
                    ("rebased", Value::Bool(outcome.rebased)),
                    ("chunk_deduped", Value::Bool(outcome.chunk_deduped)),
                    (
                        "delta_bytes",
                        json::uint(reaper_exec::num::to_u64(outcome.delta_bytes)),
                    ),
                ])
                .encode(),
            )
            .with_header("etag", etag)
        }
        Err(AppendError::UnknownProfile) => {
            Response::json(404, api::error_body("no profile log for this job"))
        }
    }
}

/// `GET /v1/profiles/{id}/delta?since=N`: the minimal update from epoch
/// `N` to the head — an `RPD1` chain when the log still covers `N`
/// (`x-reaper-delta: chain`), the full snapshot after compaction
/// (`x-reaper-delta: full`), or `304` when `N` is the head.
fn delta_endpoint(id_text: &str, request: &Request, shared: &Arc<Shared>) -> Response {
    let id = match completed_job_id(id_text, shared) {
        Ok(id) => id,
        Err(response) => return response,
    };
    let Some(since) = request.query_get("since").and_then(|s| s.parse::<u64>().ok()) else {
        return Response::json(
            400,
            api::error_body("`since=<epoch>` query parameter is required"),
        );
    };
    let (info, query) = {
        let mut store = lock(&shared.store);
        let Some(info) = store.head_info(id) else {
            return Response::json(404, api::error_body("no profile log for this job"));
        };
        (info, store.updates_since(id, since))
    };
    let etag = etag_for(&info);
    match query {
        DeltaQuery::Unknown => Response::json(404, api::error_body("no profile log for this job")),
        DeltaQuery::NotModified => {
            ServiceMetrics::inc(&shared.metrics.not_modified);
            Response::bytes(304, Vec::new()).with_header("etag", etag)
        }
        DeltaQuery::AheadOfHead => Response::json(
            400,
            api::error_body(&format!(
                "since={since} is beyond the head epoch {}",
                info.epoch
            )),
        ),
        DeltaQuery::Chain {
            head_epoch,
            messages,
        } => {
            ServiceMetrics::inc(&shared.metrics.delta_chains);
            let mut body = Vec::new();
            for message in messages {
                body.extend_from_slice(&message);
            }
            Response::bytes(200, body)
                .with_header("etag", etag)
                .with_header("x-reaper-delta", "chain".to_string())
                .with_header("x-reaper-epoch", head_epoch.to_string())
        }
        DeltaQuery::FullFallback { head_epoch, bytes } => {
            ServiceMetrics::inc(&shared.metrics.delta_full_fallbacks);
            Response::bytes(200, bytes.as_ref().clone())
                .with_header("etag", etag)
                .with_header("x-reaper-delta", "full".to_string())
                .with_header("x-reaper-epoch", head_epoch.to_string())
        }
        DeltaQuery::Evicted => Response::json(
            410,
            api::error_body("profile bytes were evicted; resubmit the job to recompute"),
        )
        .with_header("etag", etag),
    }
}

/// Parses `GET /v1/profiles/{id}/watch` into [`WatchParams`] (or the
/// error/`202` response to send instead).
fn watch_endpoint(id_text: &str, request: &Request) -> Routed {
    let Some(id) = ProfilingRequest::parse_job_id(id_text) else {
        return Response::json(400, api::error_body("job IDs are 16 hex digits")).into();
    };
    let parse_u64 = |key: &str| -> Result<Option<u64>, Response> {
        match request.query_get(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
                Response::json(400, api::error_body(&format!("`{key}` must be an integer")))
            }),
        }
    };
    let since = match parse_u64("since") {
        Ok(v) => v,
        Err(response) => return response.into(),
    };
    let timeout_ms = match parse_u64("timeout_ms") {
        Ok(v) => v.unwrap_or(WATCH_TIMEOUT_DEFAULT_MS).min(WATCH_TIMEOUT_CAP_MS),
        Err(response) => return response.into(),
    };
    let max_events = match parse_u64("max_events") {
        Ok(v) => v.unwrap_or(WATCH_MAX_EVENTS_DEFAULT).max(1),
        Err(response) => return response.into(),
    };
    Routed::Watch(WatchParams {
        id,
        since,
        timeout_ms,
        max_events,
    })
}

/// Streams a watch subscription: a chunked response where every chunk
/// is one self-describing wire message (`RPD1` delta or `RPF1` full
/// snapshot after compaction/eviction gaps). The stream closes at the
/// long-poll deadline, after `max_events` events, or at shutdown.
fn serve_watch(
    stream: &mut TcpStream,
    params: &WatchParams,
    shared: &Arc<Shared>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let start_info = lock(&shared.store).head_info(params.id);
    let Some(info) = start_info else {
        let response = Response::json(404, api::error_body("no profile log for this job"));
        return http::write_response(stream, &response, keep_alive);
    };
    let mut cursor = params.since.unwrap_or(info.epoch);
    http::write_chunked_head(
        stream,
        200,
        "application/octet-stream",
        &[
            ("etag", etag_for(&info)),
            ("x-reaper-epoch", cursor.to_string()),
        ],
        keep_alive,
    )?;

    let started = metrics::now();
    let deadline_micros = params.timeout_ms.saturating_mul(1000);
    let mut sent = 0u64;
    'stream: while sent < params.max_events && !shared.shutdown.load(Ordering::SeqCst) {
        let query = lock(&shared.store).updates_since(params.id, cursor);
        match query {
            DeltaQuery::Chain {
                head_epoch,
                messages,
            } => {
                for message in messages {
                    http::write_chunk(stream, &message)?;
                    ServiceMetrics::inc(&shared.metrics.watch_events);
                    sent += 1;
                    if sent >= params.max_events {
                        break;
                    }
                }
                cursor = head_epoch;
                continue;
            }
            DeltaQuery::FullFallback { head_epoch, bytes } => {
                http::write_chunk(stream, &bytes)?;
                ServiceMetrics::inc(&shared.metrics.watch_events);
                sent += 1;
                cursor = head_epoch;
                continue;
            }
            // A subscriber ahead of the head waits like one at the head:
            // the next push may catch the log up to (then past) it.
            DeltaQuery::NotModified | DeltaQuery::AheadOfHead => {}
            DeltaQuery::Unknown | DeltaQuery::Evicted => break 'stream,
        }
        // Nothing to send: sleep until a publisher bumps the sequence
        // or the long-poll deadline passes.
        let mut seq = lock(&shared.watch_seq);
        let observed = *seq;
        while *seq == observed {
            if metrics::elapsed_micros(started) >= deadline_micros
                || shared.shutdown.load(Ordering::SeqCst)
            {
                drop(seq);
                break 'stream;
            }
            seq = shared
                .watch_cv
                .wait_timeout(seq, WATCH_TICK)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(seq);
        if metrics::elapsed_micros(started) >= deadline_micros {
            break;
        }
    }
    http::finish_chunked(stream)
}

/// `GET /healthz`: liveness plus fleet identity (role, shard id when
/// sharded, and the store epoch total the replication agents compare).
fn healthz(shared: &Arc<Shared>) -> Response {
    let store_epoch = lock(&shared.store).epoch_total();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("role", json::str(shared.identity.role)),
    ];
    if let Some(id) = shared.identity.shard_id {
        fields.push(("shard_id", json::uint(id)));
    }
    fields.push(("store_epoch", json::uint(store_epoch)));
    Response::json(200, json::obj(fields).encode())
}

/// `GET /v1/sync/manifest`: every completed job's head coordinates —
/// what a replication agent needs to decide, per profile, between a
/// `delta?since=` pull and a full fetch. Entries carry the canonical
/// request body and summary so a replica can reconstruct the job record
/// without re-executing anything.
fn sync_manifest(shared: &Arc<Shared>) -> Response {
    // Lock order: jobs before store.
    let jobs = lock(&shared.jobs);
    let store = lock(&shared.store);
    let mut entries = Vec::new();
    for (id, record) in jobs.iter() {
        let JobStatus::Done(summary) = &record.status else {
            continue;
        };
        let Some(info) = store.head_info(*id) else {
            continue;
        };
        entries.push(json::obj([
            ("job_id", json::str(ProfilingRequest::format_job_id(*id))),
            ("epoch", json::uint(info.epoch)),
            ("hash", json::str(format!("{:016x}", info.hash))),
            ("resident", Value::Bool(info.resident)),
            ("request", api::job_body_value(&record.request)),
            ("summary", summary.to_value()),
        ]));
    }
    let store_epoch = store.epoch_total();
    drop(store);
    drop(jobs);
    let body = json::obj([
        ("store_epoch", json::uint(store_epoch)),
        ("entries", Value::Arr(entries)),
    ]);
    Response::json(200, body.encode())
}

/// `GET /metrics`: Prometheus text exposition.
fn render_metrics(shared: &Arc<Shared>) -> Response {
    let (gauges, store_epoch) = {
        let store = lock(&shared.store);
        (
            StoreGauges {
                profiles: store.len(),
                resident: store.resident_count(),
                used_bytes: store.used_bytes(),
                evictions: store.evictions(),
                chunk_entries: store.chunk_entries(),
                chunk_bytes: store.chunk_bytes(),
                chunk_dedup_hits: store.chunk_dedup_hits(),
            },
            store.epoch_total(),
        )
    };
    let mut text = shared.metrics.render(shared.queue.len(), &gauges);
    shared.portfolio.render(&mut text);
    metrics::render_fleet(&shared.identity, store_epoch, &shared.fleet, &mut text);
    Response::text(200, text)
}

/// Executes one ticket's request. Portfolio jobs race under a snapshot
/// of the prior store — priors reorder lane launches but never change
/// results, so execution stays a pure function of the request — and
/// return the race report alongside the profiling outcome.
fn execute_ticket(
    request: &JobRequest,
    priors: &PriorStore,
) -> Result<(ProfilingOutcome, Option<RaceOutcome>), reaper_core::RequestError> {
    match request {
        JobRequest::Profiling(r) => r.execute().map(|outcome| (outcome, None)),
        JobRequest::Portfolio(r) => r
            .execute_with_priors(priors)
            .map(|(race, outcome)| (outcome, Some(race))),
    }
}

/// One worker thread: drain the queue until it closes, executing each
/// ticket and publishing the result.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(ticket) = shared.queue.pop() {
        shared
            .metrics
            .queue_wait_micros
            .record(metrics::elapsed_micros(ticket.enqueued_at));
        set_status(shared, ticket.id, JobStatus::Running);

        let priors = lock(&shared.priors).clone();
        let started = metrics::now();
        let result = catch_unwind(AssertUnwindSafe(|| execute_ticket(&ticket.request, &priors)));
        shared
            .metrics
            .exec_micros
            .record(metrics::elapsed_micros(started));

        match result {
            Ok(Ok((outcome, race))) => {
                if let Some(race) = &race {
                    shared.portfolio.note_race(race);
                    lock(&shared.priors)
                        .record_win(ticket.request.vendor(), race.winner_strategy);
                }
                let encoded = Arc::new(outcome.run.profile.to_bytes());
                let summary = JobSummary::from_outcome(&outcome, &encoded);
                // Lock order: jobs before store.
                let mut jobs = lock(&shared.jobs);
                let mut store = lock(&shared.store);
                // A `StaleRecompute` outcome (the head moved past this
                // deterministic epoch-0 result while the bytes were
                // evicted) leaves the log non-resident on purpose:
                // clients re-enter through a fresh full push, which
                // re-bases the log.
                let inserted = store.insert_full(ticket.id, encoded);
                if let Some(record) = jobs.get_mut(&ticket.id) {
                    record.status = JobStatus::Done(summary);
                }
                drop(store);
                drop(jobs);
                if !matches!(inserted, InsertOutcome::StaleRecompute) {
                    shared.notify_watchers();
                }
                ServiceMetrics::inc(&shared.metrics.jobs_completed);
            }
            Ok(Err(e)) => {
                set_status(shared, ticket.id, JobStatus::Failed(e.to_string()));
                ServiceMetrics::inc(&shared.metrics.jobs_failed);
            }
            Err(_panic) => {
                set_status(
                    shared,
                    ticket.id,
                    JobStatus::Failed("job execution panicked".to_string()),
                );
                ServiceMetrics::inc(&shared.metrics.jobs_failed);
            }
        }
    }
}

fn set_status(shared: &Arc<Shared>, id: u64, status: JobStatus) {
    if let Some(record) = lock(&shared.jobs).get_mut(&id) {
        record.status = status;
    }
}

/// In-process handle used by fleet replication agents to mirror a
/// peer's profile state into this server's store.
///
/// Everything here is hash-verified before it lands: full installs
/// recompute the content hash of the bytes and compare against the
/// manifest's claim; delta chains go through
/// [`reaper_core::FailureProfile::apply_delta`], which verifies the
/// base and result hashes per link. A replica can therefore never
/// diverge silently — corruption degrades to `NeedFull`, and a full
/// re-fetch repairs it.
#[derive(Clone)]
pub struct SyncHandle {
    shared: Arc<Shared>,
}

impl SyncHandle {
    /// The head coordinates of one profile, if known.
    pub fn head_of(&self, id: u64) -> Option<HeadInfo> {
        lock(&self.shared.store).head_info(id)
    }

    /// Sum of head epochs across the store — the `store_epoch` gauge.
    pub fn store_epoch(&self) -> u64 {
        lock(&self.shared.store).epoch_total()
    }

    /// Counts one replication pull against this server's fleet metrics.
    pub fn note_replication_pull(&self) {
        ServiceMetrics::inc(&self.shared.fleet.replication_pulls);
    }

    /// Installs a peer's full snapshot at the peer's exact epoch,
    /// creating the job record if this replica has never seen the job.
    ///
    /// Verifies `expected_hash` against the actual bytes first; a
    /// mismatch returns [`SyncApply::NeedFull`] without touching the
    /// store. Preserving the peer's epoch (rather than restarting at 0)
    /// is what makes replica ETags byte-identical to the primary's — a
    /// client failing over revalidates with `If-None-Match` and pays
    /// zero recompute.
    pub fn install_full(
        &self,
        id: u64,
        epoch: u64,
        expected_hash: u64,
        bytes: Vec<u8>,
        request: &JobRequest,
        summary: JobSummary,
    ) -> SyncApply {
        if delta::content_hash(&bytes) != expected_hash {
            return SyncApply::NeedFull;
        }
        // Lock order: jobs before store.
        let mut jobs = lock(&self.shared.jobs);
        let mut store = lock(&self.shared.store);
        let record = jobs.entry(id).or_insert_with(|| JobRecord {
            request: request.clone(),
            status: JobStatus::Done(summary.clone()),
        });
        if !matches!(record.status, JobStatus::Done(_)) {
            record.status = JobStatus::Done(summary);
        }
        let applied = store.sync_install_full(id, epoch, Arc::new(bytes));
        drop(store);
        drop(jobs);
        if matches!(applied, SyncApply::Applied { .. }) {
            self.shared.notify_watchers();
        }
        applied
    }

    /// Applies an encoded `RPD1` delta chain (the `delta?since=` wire
    /// body) to a profile this replica already holds.
    ///
    /// Applies link by link under one store lock (pure computation — no
    /// I/O under the guard); the first link that fails hash
    /// verification or does not extend the local head aborts the chain
    /// with [`SyncApply::NeedFull`].
    pub fn apply_delta_chain(&self, id: u64, wire: &[u8]) -> SyncApply {
        let Ok(chain) = ProfileDelta::decode_chain(wire) else {
            return SyncApply::NeedFull;
        };
        if chain.is_empty() {
            return SyncApply::NoOp;
        }
        let mut outcome = SyncApply::NoOp;
        let mut advanced = false;
        {
            let mut store = lock(&self.shared.store);
            for d in &chain {
                match store.sync_apply_delta(id, d) {
                    SyncApply::Applied { epoch, hash } => {
                        outcome = SyncApply::Applied { epoch, hash };
                        advanced = true;
                    }
                    SyncApply::NoOp => {}
                    SyncApply::NeedFull => return SyncApply::NeedFull,
                }
            }
        }
        if advanced {
            self.shared.notify_watchers();
        }
        outcome
    }
}
