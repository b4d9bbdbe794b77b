//! A std-only client for the profiling service, used by the smoke test
//! and the load generator.
//!
//! One [`Client`] owns one keep-alive connection. Requests reconnect
//! once on transport error (the server may have reaped an idle
//! connection between requests), then give up.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use reaper_core::ProfilingRequest;
use reaper_exec::sync::lock;

use crate::api;
use crate::http::{self, ClientResponse};
use crate::json::{self, Value};

/// What a service interaction can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write).
    Io(io::Error),
    /// The response was not parseable HTTP or JSON.
    Protocol(String),
    /// The server answered with an unexpected status code.
    Status(u16, String),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Status(code, body) => {
                write!(f, "unexpected status {code}: {body}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The parsed result of a job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The content-addressed job ID (16 hex digits).
    pub job_id: String,
    /// Job status at submission time.
    pub status: String,
    /// True when this submission matched an existing record.
    pub deduped: bool,
}

/// Outcome of a conditional profile read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileFetch {
    /// The job is still queued or running (202).
    Pending,
    /// Fresh bytes with their strong ETag (200).
    Fresh {
        /// The encoded `RPF1` profile.
        bytes: Vec<u8>,
        /// The head's strong ETag.
        etag: String,
    },
    /// The caller's ETag still matches the head (304); no bytes moved.
    NotModified {
        /// The (unchanged) strong ETag.
        etag: String,
    },
}

/// Outcome of a `?since=` delta read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaFetch {
    /// `since` is already the head epoch (304).
    NotModified {
        /// The head's strong ETag.
        etag: String,
    },
    /// Concatenated `RPD1` messages covering `since → head`.
    Chain {
        /// The wire bytes (one `RPD1` message per epoch).
        bytes: Vec<u8>,
        /// Head epoch after applying the chain.
        epoch: u64,
        /// The head's strong ETag.
        etag: String,
    },
    /// The log compacted past `since`; a full `RPF1` snapshot instead.
    Full {
        /// The encoded head profile.
        bytes: Vec<u8>,
        /// Head epoch of the snapshot.
        epoch: u64,
        /// The head's strong ETag.
        etag: String,
    },
}

/// The parsed result of an epoch push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushReceipt {
    /// Head epoch after the push.
    pub epoch: u64,
    /// False when the snapshot matched the head (no epoch consumed).
    pub changed: bool,
    /// True when the push triggered log compaction.
    pub compacted: bool,
    /// True when the push re-based an evicted log.
    pub rebased: bool,
    /// True when the delta payload already existed in the chunk store.
    pub chunk_deduped: bool,
    /// Encoded delta message size, when a delta was appended.
    pub delta_bytes: u64,
    /// The head's strong ETag after the push.
    pub etag: String,
}

/// One event from a watch stream, classified by its leading magic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileUpdate {
    /// An `RPD1` delta message.
    Delta(Vec<u8>),
    /// An `RPF1` full snapshot (served across compaction gaps).
    Full(Vec<u8>),
}

/// A keep-alive HTTP client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// Creates a client for `addr`; connects lazily on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            // Request/response round-trips on one connection stall ~40 ms
            // under Nagle + delayed ACK; this is a latency-sensitive RPC
            // pattern, so disable coalescing.
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        // invariant: the branch above filled `conn`
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            None => Err(io::Error::other("connection vanished")),
        }
    }

    /// Sends one request, reconnecting once if the kept-alive connection
    /// turned out to be dead.
    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        self.request_with_headers(method, target, &[], body)
    }

    fn parse_json(resp: &ClientResponse) -> Result<Value, ClientError> {
        let text = core::str::from_utf8(&resp.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 body".to_string()))?;
        json::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn expect_status(resp: ClientResponse, want: u16) -> Result<ClientResponse, ClientError> {
        if resp.status == want {
            Ok(resp)
        } else {
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            Err(ClientError::Status(resp.status, body))
        }
    }

    /// Submits a plain profiling `request` via `POST /v1/jobs`.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn submit(&mut self, request: &ProfilingRequest) -> Result<SubmitReceipt, ClientError> {
        self.submit_job(&api::JobRequest::Profiling(request.clone()))
    }

    /// Submits a portfolio race via `POST /v1/jobs`
    /// (`"kind":"portfolio"`).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn submit_portfolio(
        &mut self,
        request: &reaper_portfolio::PortfolioRequest,
    ) -> Result<SubmitReceipt, ClientError> {
        self.submit_job(&api::JobRequest::Portfolio(request.clone()))
    }

    /// Submits a job of either kind via `POST /v1/jobs`.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn submit_job(&mut self, request: &api::JobRequest) -> Result<SubmitReceipt, ClientError> {
        let body = api::encode_job_body(request);
        let resp = self.request("POST", "/v1/jobs", body.as_bytes())?;
        let resp = Self::expect_status(resp, 200)?;
        let doc = Self::parse_json(&resp)?;
        let field = |key: &str| -> Result<String, ClientError> {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| ClientError::Protocol(format!("receipt missing `{key}`")))
        };
        Ok(SubmitReceipt {
            job_id: field("job_id")?,
            status: field("status")?,
            deduped: doc
                .get("deduped")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }

    /// Fetches the status document for `job_id` (`GET /v1/jobs/{id}`).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn job_status(&mut self, job_id: &str) -> Result<Value, ClientError> {
        let resp = self.request("GET", &format!("/v1/jobs/{job_id}"), &[])?;
        let resp = Self::expect_status(resp, 200)?;
        Self::parse_json(&resp)
    }

    /// Fetches the binary profile for `job_id`, or `None` while the job
    /// is still queued or running (202).
    ///
    /// # Errors
    /// [`ClientError`] on transport or protocol failure, and
    /// [`ClientError::Status`] for 4xx/5xx (including 410 after
    /// eviction).
    pub fn profile_bytes(&mut self, job_id: &str) -> Result<Option<Vec<u8>>, ClientError> {
        let resp = self.request("GET", &format!("/v1/profiles/{job_id}"), &[])?;
        match resp.status {
            200 => Ok(Some(resp.body)),
            202 => Ok(None),
            code => {
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                Err(ClientError::Status(code, body))
            }
        }
    }

    fn request_with_headers(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let had_conn = self.conn.is_some();
        match self.request_once(method, target, extra_headers, body) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conn = None;
                if had_conn {
                    self.request_once(method, target, extra_headers, body)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        roundtrip(self.connect()?, method, target, extra_headers, body)
    }

    fn require_etag(resp: &ClientResponse) -> Result<String, ClientError> {
        resp.header("etag")
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("response missing etag".to_string()))
    }

    /// Conditionally fetches the head profile: sends `If-None-Match`
    /// when `etag` is given and maps 200/202/304 to [`ProfileFetch`].
    ///
    /// # Errors
    /// [`ClientError`] on transport or protocol failure, and
    /// [`ClientError::Status`] for 4xx/5xx (including 410 after
    /// eviction).
    pub fn profile_conditional(
        &mut self,
        job_id: &str,
        etag: Option<&str>,
    ) -> Result<ProfileFetch, ClientError> {
        let target = format!("/v1/profiles/{job_id}");
        let headers: Vec<(&str, &str)> = match etag {
            Some(tag) => vec![("if-none-match", tag)],
            None => Vec::new(),
        };
        let resp = self.request_with_headers("GET", &target, &headers, &[])?;
        match resp.status {
            200 => {
                let etag = Self::require_etag(&resp)?;
                Ok(ProfileFetch::Fresh {
                    bytes: resp.body,
                    etag,
                })
            }
            202 => Ok(ProfileFetch::Pending),
            304 => {
                let etag = Self::require_etag(&resp)?;
                Ok(ProfileFetch::NotModified { etag })
            }
            code => {
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                Err(ClientError::Status(code, body))
            }
        }
    }

    /// Pushes a re-profiling snapshot (`RPF1` bytes) as the next epoch
    /// of `job_id`'s profile log.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn push_epoch(
        &mut self,
        job_id: &str,
        profile_bytes: &[u8],
    ) -> Result<PushReceipt, ClientError> {
        let target = format!("/v1/profiles/{job_id}/epochs");
        let resp = self.request_with_headers("POST", &target, &[], profile_bytes)?;
        let resp = Self::expect_status(resp, 200)?;
        let etag = Self::require_etag(&resp)?;
        let doc = Self::parse_json(&resp)?;
        let get_u64 = |key: &str| -> Result<u64, ClientError> {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("push receipt missing `{key}`")))
        };
        let get_bool = |key: &str| -> Result<bool, ClientError> {
            doc.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| ClientError::Protocol(format!("push receipt missing `{key}`")))
        };
        Ok(PushReceipt {
            epoch: get_u64("epoch")?,
            changed: get_bool("changed")?,
            compacted: get_bool("compacted")?,
            rebased: get_bool("rebased")?,
            chunk_deduped: get_bool("chunk_deduped")?,
            delta_bytes: get_u64("delta_bytes")?,
            etag,
        })
    }

    /// Fetches the minimal update from epoch `since` to the head
    /// (`GET /v1/profiles/{id}/delta?since=`).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or unexpected statuses
    /// (including 410 when the fallback bytes were evicted).
    pub fn delta_since(&mut self, job_id: &str, since: u64) -> Result<DeltaFetch, ClientError> {
        let target = format!("/v1/profiles/{job_id}/delta?since={since}");
        let resp = self.request_with_headers("GET", &target, &[], &[])?;
        match resp.status {
            200 => {
                let etag = Self::require_etag(&resp)?;
                let epoch = resp
                    .header("x-reaper-epoch")
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| {
                        ClientError::Protocol("delta response missing x-reaper-epoch".to_string())
                    })?;
                match resp.header("x-reaper-delta") {
                    Some("chain") => Ok(DeltaFetch::Chain {
                        bytes: resp.body,
                        epoch,
                        etag,
                    }),
                    Some("full") => Ok(DeltaFetch::Full {
                        bytes: resp.body,
                        epoch,
                        etag,
                    }),
                    other => Err(ClientError::Protocol(format!(
                        "unexpected x-reaper-delta: {other:?}"
                    ))),
                }
            }
            304 => {
                let etag = Self::require_etag(&resp)?;
                Ok(DeltaFetch::NotModified { etag })
            }
            code => {
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                Err(ClientError::Status(code, body))
            }
        }
    }

    /// Subscribes to `job_id`'s profile log via the chunked watch
    /// long-poll and collects the stream's events. Blocks until the
    /// server closes the stream (its long-poll deadline, `max_events`
    /// events, or shutdown).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn watch(
        &mut self,
        job_id: &str,
        since: Option<u64>,
        timeout_ms: u64,
        max_events: u64,
    ) -> Result<Vec<ProfileUpdate>, ClientError> {
        let mut target =
            format!("/v1/profiles/{job_id}/watch?timeout_ms={timeout_ms}&max_events={max_events}");
        if let Some(epoch) = since {
            target.push_str(&format!("&since={epoch}"));
        }
        let conn = self.connect()?;
        conn.get_mut()
            .write_all(&http::request_bytes("GET", &target, &[], &[]))?;
        conn.get_mut().flush()?;
        let (status, headers) =
            http::read_response_head(conn).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if status != 200 {
            // Error bodies are content-length framed; drain per headers.
            let length = headers
                .iter()
                .find(|(n, _)| n == "content-length")
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; length];
            std::io::Read::read_exact(conn, &mut body)?;
            return Err(ClientError::Status(
                status,
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        let chunked = headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        if !chunked {
            return Err(ClientError::Protocol(
                "watch response is not chunked".to_string(),
            ));
        }
        let mut events = Vec::new();
        loop {
            let chunk = http::read_chunk(conn).map_err(|e| ClientError::Protocol(e.to_string()))?;
            let Some(data) = chunk else { break };
            let event = match data.first_chunk::<4>() {
                Some(b"RPD1") => ProfileUpdate::Delta(data),
                Some(b"RPF1") => ProfileUpdate::Full(data),
                _ => {
                    return Err(ClientError::Protocol(
                        "watch event with unknown magic".to_string(),
                    ))
                }
            };
            events.push(event);
        }
        Ok(events)
    }

    /// Polls until the profile is available, sleeping `poll_interval`
    /// between attempts, for at most `max_polls` attempts.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when the poll budget runs out; otherwise
    /// as [`Client::profile_bytes`].
    pub fn wait_for_profile(
        &mut self,
        job_id: &str,
        poll_interval: Duration,
        max_polls: usize,
    ) -> Result<Vec<u8>, ClientError> {
        for _ in 0..max_polls {
            if let Some(bytes) = self.profile_bytes(job_id)? {
                return Ok(bytes);
            }
            thread::sleep(poll_interval);
        }
        Err(ClientError::Protocol(format!(
            "job {job_id} did not finish within {max_polls} polls"
        )))
    }

    /// Fetches the Prometheus metrics page as text.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let resp = self.request("GET", "/metrics", &[])?;
        let resp = Self::expect_status(resp, 200)?;
        String::from_utf8(resp.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 metrics body".to_string()))
    }

    /// Checks `GET /healthz`.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or non-200 responses.
    pub fn healthz(&mut self) -> Result<bool, ClientError> {
        let resp = self.request("GET", "/healthz", &[])?;
        let resp = Self::expect_status(resp, 200)?;
        let doc = Self::parse_json(&resp)?;
        Ok(doc.get("ok").and_then(Value::as_bool).unwrap_or(false))
    }
}

/// One request/response exchange on a blocking keep-alive connection.
fn roundtrip(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Result<ClientResponse, ClientError> {
    conn.get_mut()
        .write_all(&http::request_bytes(method, target, extra_headers, body))?;
    conn.get_mut().flush()?;
    http::read_response(conn).map_err(|e| ClientError::Protocol(e.to_string()))
}

/// A thread-safe pool of keep-alive connections to one target address.
///
/// Fleet replication checks a connection out per peer pull and returns
/// it on a keep-alive success, so round-trips skip the TCP handshake.
/// A pooled connection that turns out to be stale (the
/// shard reaped it while idle, or the shard restarted) fails its
/// round-trip; the pool then dials one fresh connection and retries the
/// request exactly once — errors on a fresh connection propagate.
///
/// Locking: the mutex guards only the idle list and target address;
/// it is never held across connect/read/write.
pub struct ConnectionPool {
    max_idle: usize,
    state: Mutex<PoolState>,
}

struct PoolState {
    addr: SocketAddr,
    idle: Vec<BufReader<TcpStream>>,
}

impl ConnectionPool {
    /// Creates a pool dialing `addr`, keeping at most `max_idle`
    /// connections warm (minimum 1).
    pub fn new(addr: SocketAddr, max_idle: usize) -> Self {
        Self {
            max_idle: max_idle.max(1),
            state: Mutex::new(PoolState {
                addr,
                idle: Vec::new(),
            }),
        }
    }

    /// The current target address.
    pub fn addr(&self) -> SocketAddr {
        lock(&self.state).addr
    }

    /// Repoints the pool at a new address (a shard restarted on a fresh
    /// ephemeral port) and drops every connection to the old one.
    pub fn retarget(&self, addr: SocketAddr) {
        let mut state = lock(&self.state);
        state.addr = addr;
        state.idle.clear();
    }

    /// Number of idle pooled connections.
    pub fn idle_count(&self) -> usize {
        lock(&self.state).idle.len()
    }

    fn checkout(&self) -> (SocketAddr, Option<BufReader<TcpStream>>) {
        let mut state = lock(&self.state);
        let conn = state.idle.pop();
        (state.addr, conn)
    }

    fn give_back(&self, addr: SocketAddr, conn: BufReader<TcpStream>) {
        let mut state = lock(&self.state);
        // A retarget while this connection was checked out makes it a
        // connection to the wrong server: drop it.
        if state.addr == addr && state.idle.len() < self.max_idle {
            state.idle.push(conn);
        }
    }

    fn dial(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Sends one request: over a pooled connection when one is idle
    /// (retrying once on a fresh dial if it proves stale), else over a
    /// fresh dial. Keep-alive successes return the connection to the
    /// pool.
    ///
    /// # Errors
    /// [`ClientError`] on connect failure or a transport/protocol
    /// failure on a *fresh* connection; stale-pooled failures are
    /// retried internally first.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let (addr, pooled) = self.checkout();
        if let Some(mut conn) = pooled {
            if let Ok(resp) = roundtrip(&mut conn, method, target, extra_headers, body) {
                self.finish(addr, conn, &resp);
                return Ok(resp);
            }
            // Stale pooled connection: fall through to one fresh dial.
        }
        let mut conn = Self::dial(addr)?;
        let resp = roundtrip(&mut conn, method, target, extra_headers, body)?;
        self.finish(addr, conn, &resp);
        Ok(resp)
    }

    fn finish(&self, addr: SocketAddr, conn: BufReader<TcpStream>, resp: &ClientResponse) {
        let close = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if !close {
            self.give_back(addr, conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted server: each accepted connection answers exactly one
    /// request (claiming keep-alive) then closes, so any pooled
    /// connection is stale by the time the client reuses it.
    fn one_shot_server(connections: usize) -> (SocketAddr, Arc<AtomicUsize>, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepted);
        let handle = thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                counter.fetch_add(1, Ordering::SeqCst);
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    stream.read_exact(&mut byte).unwrap();
                    head.push(byte[0]);
                }
                stream
                    .write_all(
                        b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nok",
                    )
                    .unwrap();
                // Dropping the stream closes it: the connection the
                // pool kept is now stale.
            }
        });
        (addr, accepted, handle)
    }

    #[test]
    fn pool_retries_once_on_stale_connection() {
        let (addr, accepted, handle) = one_shot_server(2);
        let pool = ConnectionPool::new(addr, 4);

        let resp = pool.request("GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(pool.idle_count(), 1, "keep-alive success returns to pool");

        // The server closed that socket after responding; the reuse
        // must detect the stale connection and retry on a fresh dial
        // instead of surfacing the transport error.
        let resp = pool.request("GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "stale reuse dialed a fresh connection"
        );

        handle.join().unwrap();
    }

    #[test]
    fn retarget_clears_pooled_connections() {
        let (addr, _accepted, handle) = one_shot_server(1);
        let pool = ConnectionPool::new(addr, 4);
        let resp = pool.request("GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(pool.idle_count(), 1);

        let (new_addr, new_accepted, new_handle) = one_shot_server(1);
        pool.retarget(new_addr);
        assert_eq!(pool.idle_count(), 0, "retarget drops old connections");
        let resp = pool.request("GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(new_accepted.load(Ordering::SeqCst), 1);

        handle.join().unwrap();
        new_handle.join().unwrap();
    }
}
