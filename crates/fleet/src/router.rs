//! The shard router: a non-blocking HTTP frontend that proxies the
//! `/v1/*` API onto the owning shard, so clients talk to a fleet
//! exactly as they talk to one server.
//!
//! ## Shape
//!
//! The frontend is the same `poll(2)` event loop the shards use
//! ([`reaper_serve::eventloop`]). A request's placement is decided on
//! the loop thread (pure hashing, no I/O), and the loop itself drives
//! the shard round-trip on a non-blocking upstream socket
//! ([`Handled::Forward`]), keeping up to the directory's `pool_idle`
//! keep-alive sockets per shard address:
//!
//! ```text
//! client ──► event loop ── place ──► Forward ──► shard socket
//!   ▲            │                                   │
//!   └── finish ◄─┴────────── response bytes ◄────────┘
//! ```
//!
//! A connection's reads pause while its request is out, so each client
//! connection has at most one shard request in flight and the in-flight
//! bound is the loop's `max_connections`.
//!
//! Watch subscriptions are long-lived chunked streams, so they leave
//! the loop: it hands the client socket to a relay thread that streams
//! the shard's chunked response through verbatim.
//!
//! ## Failover
//!
//! A shard round-trip that fails (connect refused, mid-response drop)
//! answers `503` with a `retry-after` hint and counts one failover; the
//! router itself stays up. When the shard restarts — typically on a
//! fresh ephemeral port — [`ShardDirectory::update_addr`] retargets its
//! connection pool, and since every forward reads the pool's address
//! the same requests succeed again at once. Placement is keyed by shard
//! *name* ([`crate::hrw`]), so a restart never moves the partition.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use reaper_core::ProfilingRequest;
use reaper_exec::sync::lock;
use reaper_serve::eventloop::{EventLoop, Forward, Handled, Handler};
use reaper_serve::http::{self, ClientResponse, Request, Response};
use reaper_serve::metrics::{render_fleet, FleetIdentity, FleetMetrics};
use reaper_serve::{api, json, ConnectionPool, ServiceMetrics};

use crate::hrw;

/// Live shard membership: each shard's name, placement seed and
/// connection pool.
///
/// Shared between the router (placement + upstream addresses) and the
/// replication agents (peer pulls), so one [`update_addr`] after a
/// shard restart repoints both.
///
/// [`update_addr`]: ShardDirectory::update_addr
pub struct ShardDirectory {
    state: Mutex<Members>,
    pool_idle: usize,
}

/// Shards in name order, so every iteration (placement scans, peer
/// pulls, metrics) sees them in one deterministic order.
struct Members {
    /// `(name, placement seed)`, built at registration.
    seeds: Vec<(String, u64)>,
    /// `pools[i]` reaches the shard `seeds[i]` names.
    pools: Vec<Arc<ConnectionPool>>,
}

impl ShardDirectory {
    /// Builds a directory from `(name, address)` pairs, keeping at most
    /// `pool_idle` warm connections per shard.
    pub fn new(shards: &[(String, SocketAddr)], pool_idle: usize) -> Self {
        let directory = Self {
            state: Mutex::new(Members {
                seeds: Vec::new(),
                pools: Vec::new(),
            }),
            pool_idle,
        };
        for (name, addr) in shards {
            directory.update_addr(name, *addr);
        }
        directory
    }

    /// Registers a shard or repoints an existing one (a restart on a
    /// fresh ephemeral port), dropping its pooled connections.
    pub fn update_addr(&self, name: &str, addr: SocketAddr) {
        let mut state = lock(&self.state);
        match state.seeds.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                if let Some(pool) = state.pools.get(i) {
                    pool.retarget(addr);
                }
            }
            Err(i) => {
                state
                    .seeds
                    .insert(i, (name.to_string(), hrw::shard_seed(name)));
                state
                    .pools
                    .insert(i, Arc::new(ConnectionPool::new(addr, self.pool_idle)));
            }
        }
    }

    /// The pool of the shard that owns `job_id`, per rendezvous
    /// placement.
    pub fn place(&self, job_id: u64) -> Option<Arc<ConnectionPool>> {
        let state = lock(&self.state);
        let i = hrw::place_index(job_id, &state.seeds)?;
        state.pools.get(i).map(Arc::clone)
    }

    /// The name of the shard that owns `job_id`.
    pub fn owner(&self, job_id: u64) -> Option<String> {
        let state = lock(&self.state);
        let i = hrw::place_index(job_id, &state.seeds)?;
        state.seeds.get(i).map(|(name, _)| name.clone())
    }

    /// Every shard's `(name, pool)`, in name order.
    pub fn pools(&self) -> Vec<(String, Arc<ConnectionPool>)> {
        let state = lock(&self.state);
        state
            .seeds
            .iter()
            .zip(&state.pools)
            .map(|((name, _), pool)| (name.clone(), Arc::clone(pool)))
            .collect()
    }

    /// Warm connections kept per shard.
    pub fn pool_idle(&self) -> usize {
        self.pool_idle
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        lock(&self.state).seeds.len()
    }

    /// True when no shard is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Router configuration; `Default` suits tests (ephemeral port).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Event-loop registered-socket cap; also the bound on shard
    /// requests in flight (at most one per connection).
    pub max_connections: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: reaper_serve::server::DEFAULT_MAX_CONNECTIONS,
        }
    }
}

struct RouterShared {
    shutdown: AtomicBool,
    directory: Arc<ShardDirectory>,
    identity: FleetIdentity,
    fleet: FleetMetrics,
}

/// A running shard router; shut it down explicitly like a [`Server`].
///
/// [`Server`]: reaper_serve::Server
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    loop_thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the frontend and spawns its event loop.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start(config: RouterConfig, directory: Arc<ShardDirectory>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let event_loop =
            EventLoop::new(listener, config.max_connections)?.upstream_idle(directory.pool_idle());
        let shared = Arc::new(RouterShared {
            shutdown: AtomicBool::new(false),
            directory,
            identity: FleetIdentity {
                role: "router",
                shard_id: None,
            },
            fleet: FleetMetrics::new(),
        });

        let loop_thread = {
            let handler = Arc::new(RouterHandler {
                shared: Arc::clone(&shared),
            });
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("reaper-fleet-router".to_string())
                .spawn(move || event_loop.run(&handler, &shared.shutdown))?
        };

        Ok(Self {
            shared,
            local_addr,
            loop_thread: Some(loop_thread),
        })
    }

    /// The bound frontend address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop the loop and join it.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

/// Classifies a request on the loop thread (no I/O).
struct RouterHandler {
    shared: Arc<RouterShared>,
}

impl Handler for RouterHandler {
    fn handle(&self, request: Request) -> Handled {
        match classify(&request) {
            Classified::Health => Handled::Respond(healthz(&self.shared)),
            Classified::Metrics => Handled::Respond(metrics_page(&self.shared)),
            Classified::Bad(response) => Handled::Respond(response),
            Classified::Proxy(job_id) => {
                let Some(pool) = self.shared.directory.place(job_id) else {
                    return Handled::Respond(shed("no shards registered"));
                };
                ServiceMetrics::inc(&self.shared.fleet.proxied_requests);
                let headers: Vec<(&str, &str)> = request
                    .headers
                    .iter()
                    .filter(|(name, _)| is_forwarded(name))
                    .map(|(n, v)| (n.as_str(), v.as_str()))
                    .collect();
                let shared = Arc::clone(&self.shared);
                Handled::Forward(Forward {
                    upstream: pool.addr(),
                    request: http::request_bytes(
                        &request.method,
                        &request.target,
                        &headers,
                        &request.body,
                    ),
                    finish: Box::new(move |answer| match answer {
                        Some(answer) => downstream_response(answer),
                        None => {
                            ServiceMetrics::inc(&shared.fleet.failovers);
                            shed("shard unavailable; retry")
                        }
                    }),
                })
            }
            Classified::WatchRelay(job_id) => {
                let shared = Arc::clone(&self.shared);
                let method = request.method.clone();
                let target = request.target.clone();
                Handled::TakeOver(Box::new(move |client, _residual| {
                    relay_watch(&shared, job_id, &method, &target, client);
                }))
            }
        }
    }
}

enum Classified {
    Health,
    Metrics,
    Proxy(u64),
    WatchRelay(u64),
    Bad(Response),
}

/// Maps a request to its disposition. Job-addressed endpoints route by
/// the ID in the path; submissions route by the content-addressed ID of
/// the parsed body — the same hash the shard will compute, which is
/// what makes fleet results bit-identical to single-node ones.
fn classify(request: &Request) -> Classified {
    let path = request.path();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Classified::Health,
        ("GET", "/metrics") => Classified::Metrics,
        ("POST", "/v1/jobs") => match api::parse_job_body(&request.body) {
            Ok(parsed) => Classified::Proxy(parsed.job_id()),
            Err(message) => Classified::Bad(Response::json(400, api::error_body(&message))),
        },
        _ => {
            let id_text = path
                .strip_prefix("/v1/jobs/")
                .or_else(|| {
                    path.strip_prefix("/v1/profiles/")
                        .map(|rest| rest.split_once('/').map_or(rest, |(id, _)| id))
                });
            match id_text.and_then(ProfilingRequest::parse_job_id) {
                Some(id) if path.ends_with("/watch") => Classified::WatchRelay(id),
                Some(id) => Classified::Proxy(id),
                None => Classified::Bad(Response::json(
                    404,
                    api::error_body("no such resource (fleet routes by job ID)"),
                )),
            }
        }
    }
}

/// True for the request headers the router forwards to the shard: the
/// conditional-GET family, so ETag revalidation works through the
/// proxy.
fn is_forwarded(name: &str) -> bool {
    name == "if-none-match"
}

/// A `503` with an explicit retry hint.
fn shed(reason: &str) -> Response {
    Response::json(503, api::error_body(reason)).with_header("retry-after", "1".to_string())
}

fn healthz(shared: &Arc<RouterShared>) -> Response {
    let body = json::obj([
        ("ok", json::Value::Bool(true)),
        ("role", json::str(shared.identity.role)),
        (
            "shards",
            json::uint(reaper_exec::num::to_u64(shared.directory.len())),
        ),
    ]);
    Response::json(200, body.encode())
}

fn metrics_page(shared: &Arc<RouterShared>) -> Response {
    let mut text = String::new();
    // The router holds no store; its epoch gauge is identically zero.
    render_fleet(&shared.identity, 0, &shared.fleet, &mut text);
    Response::text(200, text)
}

/// Re-frames a shard's response for the client, preserving the headers
/// the API contract depends on (`etag`, `x-reaper-epoch`,
/// `x-reaper-delta`) and the content type.
fn downstream_response(resp: ClientResponse) -> Response {
    let content_type = match resp.header("content-type") {
        Some(v) if v.starts_with("application/json") => "application/json",
        Some(v) if v.starts_with("text/plain") => "text/plain; version=0.0.4",
        _ => "application/octet-stream",
    };
    let extra_headers = ["etag", "x-reaper-epoch", "x-reaper-delta"]
        .into_iter()
        .filter_map(|name| Some((name, resp.header(name)?.to_string())))
        .collect();
    Response {
        status: resp.status,
        content_type,
        extra_headers,
        body: resp.body,
    }
}

/// Relays a watch subscription on its own thread: forwards the request
/// to the owning shard over a fresh connection (watch streams are
/// long-lived, so they never come from the pool) and copies the chunked
/// response through byte-for-byte until the shard closes it.
fn relay_watch(
    shared: &Arc<RouterShared>,
    job_id: u64,
    method: &str,
    target: &str,
    mut client: TcpStream,
) {
    let Some(pool) = shared.directory.place(job_id) else {
        let _ = http::write_response(&mut client, &shed("no shards registered"), false);
        return;
    };
    ServiceMetrics::inc(&shared.fleet.proxied_requests);
    let upstream = TcpStream::connect(pool.addr());
    let Ok(mut upstream) = upstream else {
        ServiceMetrics::inc(&shared.fleet.failovers);
        let _ = http::write_response(&mut client, &shed("shard unavailable; retry"), false);
        return;
    };
    let _ = upstream.set_nodelay(true);
    let head = http::request_bytes(method, target, &[("connection", "close")], &[]);
    if upstream.write_all(&head).is_err() {
        ServiceMetrics::inc(&shared.fleet.failovers);
        let _ = http::write_response(&mut client, &shed("shard unavailable; retry"), false);
        return;
    }
    // Verbatim relay: the shard speaks `connection: close`, so EOF is
    // the end of the stream for the client too.
    let mut buf = [0u8; 8 * 1024];
    loop {
        match upstream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let Some(chunk) = buf.get(..n) else { break };
                if client.write_all(chunk).is_err() {
                    break;
                }
            }
        }
    }
}
