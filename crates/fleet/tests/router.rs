//! The router's forward path on the fault side and under pipelining:
//!
//! * two reads pipelined in one write come back, both, in order;
//! * a shard that closes a kept-alive socket instead of answering the
//!   next request on it costs one redial, not an error;
//! * a shard that dies mid-response yields a retryable `503`, one
//!   failover, and a clean next read on a fresh socket.
//!
//! The fault cases run against scripted shards (a plain listener whose
//! connections follow a fixed script), wired with `ShardDirectory::new`
//! and `Router::start` exactly as the fleet wires real shards.

#![cfg(unix)]
// Test code may panic on failure.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use reaper_fleet::{Router, RouterConfig, ShardDirectory};
use reaper_serve::http::{self, ClientResponse, Response};
use reaper_serve::Client;

use common::{quick_request, start_fleet};

/// A shard stand-in: every accepted connection runs `script(index,
/// stream)` on its own thread, `index` counting connections from 0.
struct ScriptedShard {
    addr: SocketAddr,
    accepted: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl ScriptedShard {
    fn start(script: fn(usize, TcpStream)) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let accepted = Arc::clone(&accepted);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut scripts = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = stream.expect("accept");
                    let index = accepted.fetch_add(1, Ordering::SeqCst);
                    scripts.push(thread::spawn(move || script(index, stream)));
                }
                for script in scripts {
                    script.join().expect("script thread");
                }
            })
        };
        Self {
            addr,
            accepted,
            stop,
            acceptor,
        }
    }

    /// Connections accepted so far.
    fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins every script (each ends when its peer
    /// closes, so shut the router down first).
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.acceptor.join().expect("acceptor thread");
    }
}

/// A router in front of one shard named `shard-0`.
fn router_for(shard: SocketAddr) -> Router {
    let directory = Arc::new(ShardDirectory::new(&[("shard-0".to_string(), shard)], 4));
    Router::start(RouterConfig::default(), directory).expect("start router")
}

/// A well-formed profile path (the router routes by the job ID in it).
fn profile_path(id: u64) -> String {
    format!("/v1/profiles/{id:016x}")
}

/// Answers one request with `ok` over keep-alive.
fn answer_ok(stream: &mut TcpStream) {
    let response = Response::bytes(200, b"ok".to_vec());
    http::write_response(stream, &response, true).expect("answer");
}

/// Answers the connection's first request, then closes the socket as
/// soon as the next request arrives on it, unanswered.
fn answer_once_then_close(_index: usize, stream: TcpStream) {
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    if let Ok(Some(_)) = http::read_request(&mut reader) {
        answer_ok(&mut writer);
        let _ = http::read_request(&mut reader);
    }
}

/// The first connection gets a head that promises 10 body bytes and
/// half of them before the socket closes; later connections are
/// answered normally until their peer closes.
fn truncate_the_first_response(index: usize, stream: TcpStream) {
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    while let Ok(Some(_)) = http::read_request(&mut reader) {
        if index == 0 {
            writer
                .write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: application/octet-stream\r\n\
                      content-length: 10\r\nconnection: keep-alive\r\n\r\nRPF1x",
                )
                .expect("half a response");
            return;
        }
        answer_ok(&mut writer);
    }
}

/// Sends `request` on a raw client socket and reads one response.
fn exchange(stream: &TcpStream, reader: &mut BufReader<TcpStream>, request: &[u8]) -> ClientResponse {
    let mut writer = stream;
    writer.write_all(request).expect("send");
    http::read_response(reader).expect("response")
}

fn raw_client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

#[test]
fn pipelined_reads_are_answered_in_order() {
    let fleet = start_fleet(2);
    let router = fleet.router_addr().expect("router address");
    let mut client = Client::new(router);
    let mut jobs = Vec::new();
    for seed in [7_u64, 8] {
        let job_id = client.submit(&quick_request(seed)).expect("submit").job_id;
        let bytes = client
            .wait_for_profile(&job_id, Duration::from_millis(10), 1_000)
            .expect("profile");
        jobs.push((job_id, bytes));
    }

    // Both reads, and a local answer between them, in one write.
    let (stream, mut reader) = raw_client(router);
    let pipelined = format!(
        "GET /v1/profiles/{a} HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n\
         GET /v1/profiles/{b} HTTP/1.1\r\n\r\n",
        a = jobs[0].0,
        b = jobs[1].0,
    );
    let first = exchange(&stream, &mut reader, pipelined.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.body, jobs[0].1);
    let health = http::read_response(&mut reader).expect("second answer");
    assert_eq!(health.status, 200);
    assert!(String::from_utf8_lossy(&health.body).contains("\"role\":\"router\""));
    let third = http::read_response(&mut reader).expect("third answer");
    assert_eq!(third.status, 200);
    assert_eq!(third.body, jobs[1].1);

    fleet.shutdown();
}

#[test]
fn a_stale_kept_alive_shard_socket_is_redialled_once() {
    let shard = ScriptedShard::start(answer_once_then_close);
    let router = router_for(shard.addr);
    let mut client = Client::new(router.local_addr());

    for id in [1_u64, 2] {
        let (stream, mut reader) = raw_client(router.local_addr());
        let request = format!("GET {} HTTP/1.1\r\n\r\n", profile_path(id));
        let response = exchange(&stream, &mut reader, request.as_bytes());
        assert_eq!(response.status, 200, "read {id}");
        assert_eq!(response.body, b"ok");
    }
    // The second read went out on the first read's kept-alive socket,
    // which the shard closed unanswered: one redial, one more accept.
    assert_eq!(shard.accepted(), 2);
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(counter(&metrics, "reaper_fleet_failovers_total"), 0);
    assert_eq!(counter(&metrics, "reaper_fleet_proxied_requests_total"), 2);

    router.shutdown();
    shard.stop();
}

#[test]
fn a_shard_dying_mid_response_sheds_a_retryable_503() {
    let shard = ScriptedShard::start(truncate_the_first_response);
    let router = router_for(shard.addr);
    let mut client = Client::new(router.local_addr());
    let (stream, mut reader) = raw_client(router.local_addr());
    let request = format!("GET {} HTTP/1.1\r\n\r\n", profile_path(3));

    let shed = exchange(&stream, &mut reader, request.as_bytes());
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&shed.body).contains("retry"));
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(counter(&metrics, "reaper_fleet_failovers_total"), 1);

    // The client's connection survives; the next read goes out on a
    // fresh shard socket and succeeds.
    let next = exchange(&stream, &mut reader, request.as_bytes());
    assert_eq!(next.status, 200);
    assert_eq!(next.body, b"ok");
    assert_eq!(shard.accepted(), 2);
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(counter(&metrics, "reaper_fleet_failovers_total"), 1);

    router.shutdown();
    shard.stop();
}
