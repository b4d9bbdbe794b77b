//! Connection ladder: the `poll(2)` event loop must sustain at least 4×
//! as many simultaneous connections as the thread-per-connection model
//! capped at 64 threads.
//!
//! Each rung holds K connections open and probes the last one with a
//! health check; a server past its concurrency limit has already shed
//! that connection (`503` + close), so the probe fails. The ladder holds
//! up to 512 client sockets plus the server's side of each, so it sits in
//! its own test binary where no other test's sockets spend the fd budget.
//! At a 1,024-fd limit the event loop reaches the 256 rung (4×); CI raises
//! the limit so it reaches 512.

#![cfg(unix)]
// Test code may panic on failure.
#![allow(clippy::expect_used)]

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use reaper_serve::server::DEFAULT_MAX_CONNECTIONS;
use reaper_serve::{http, ConnectionModel, Server, ServerConfig};

/// Thread cap of the thread-per-connection server.
const TPC_MAX_THREADS: usize = 64;
/// Connection counts tried, in order, until one is not sustained.
const LADDER: [usize; 4] = [64, 128, 256, 512];

/// Opens `k` connections, then health-checks the last-opened one.
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
    http::read_response(&mut reader).is_ok_and(|resp| resp.status == 200)
}

/// The largest rung a one-worker server under `model` sustains (0 if
/// none).
fn largest_rung(model: ConnectionModel) -> usize {
    let server = Server::start(ServerConfig {
        connection_model: model,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind ladder server");
    let addr = server.local_addr();
    let best = LADDER
        .into_iter()
        .take_while(|&k| sustains(addr, k))
        .last()
        .unwrap_or(0);
    server.shutdown();
    best
}

#[test]
fn event_loop_sustains_four_times_the_threaded_models_connections() {
    let threaded = largest_rung(ConnectionModel::ThreadPerConnection {
        max_threads: TPC_MAX_THREADS,
    });
    let event_loop = largest_rung(ConnectionModel::EventLoop {
        max_connections: DEFAULT_MAX_CONNECTIONS,
    });
    assert!(
        threaded > 0 && event_loop >= 4 * threaded,
        "event loop sustains {event_loop} connections, thread-per-connection \
         (cap {TPC_MAX_THREADS}) sustains {threaded}: want >= 4x"
    );
}
