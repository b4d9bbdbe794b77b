//! A hand-rolled `poll(2)` readiness loop: one thread drives every
//! connected socket, so concurrency is bounded by file descriptors
//! instead of threads (the thread-per-connection model caps out at a
//! few hundred stacks; this loop holds thousands of keep-alive sockets
//! for the cost of a buffer each).
//!
//! ## Shape
//!
//! [`EventLoop::run`] owns the listener, every accepted connection and
//! every upstream socket it forwards on. Each readiness cycle it: polls
//! all registered descriptors, drops idle upstream sockets their peer
//! closed, accepts a burst of new connections, feeds readable client
//! sockets through the incremental parser
//! ([`crate::http::parse_request_bytes`]), advances in-flight upstream
//! exchanges, and flushes writable sockets. A [`Handler`] classifies
//! each parsed request:
//!
//! * [`Handled::Respond`] — synchronous answer; serialized into the
//!   connection's write buffer immediately (the shard server's only
//!   mode: every `/v1/*` route computes under short critical sections).
//! * [`Handled::Forward`] — relay the serialized request to another
//!   server (the fleet router's shard round-trip). The loop writes it on
//!   a non-blocking upstream socket, polls that socket beside the client
//!   connections, parses the answer incrementally
//!   ([`crate::http::parse_response_bytes`]) and passes it to the
//!   forward's `finish` callback, which builds the client's response.
//!   While a forward is out the connection's reads are paused, so a
//!   client gets strict request/response ordering; once it is answered,
//!   requests already buffered behind it are dispatched.
//! * [`Handled::TakeOver`] — the request needs a blocking stream (the
//!   chunked watch long-poll); the socket is handed to a dedicated
//!   thread along with any bytes already buffered past the request.
//!
//! ## Upstream sockets
//!
//! A keep-alive upstream socket goes back to a per-address idle list,
//! capped at [`EventLoop::upstream_idle`]. Idle sockets stay registered
//! for reads, so one whose peer closes (or speaks out of turn) is
//! dropped at once and a restarted upstream leaves nothing behind. An
//! idle socket that fails before its first response byte is redialled
//! once — [`crate::ConnectionPool`]'s stale-connection rule; any other
//! failure calls `finish(None)`. The dial is a `connect` bounded by
//! [`CONNECT_TIMEOUT`]: std has no non-blocking connect, and the fleet's
//! upstreams are loopback or LAN peers that accept or refuse at once.
//!
//! ## Concurrency discipline
//!
//! The loop takes no lock: every socket, buffer and idle list belongs
//! to its thread, and handlers run inline on it.
//!
//! ## The one `unsafe` block
//!
//! The workspace denies `unsafe_code`; the [`sys`] submodule carries
//! the single audited exception — the `poll(2)` FFI declaration and
//! call. `std` exposes no readiness API, and the no-new-dependencies
//! rule forbids `libc`/`mio`, so the binding lives here: one
//! `#[repr(C)]` struct matching `struct pollfd` and one foreign call
//! wrapped in a safe slice-based API.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::http::{self, ClientResponse, Request, Response};

/// The `poll(2)` binding: the workspace's single unsafe exception.
///
/// Layout facts this relies on (stable POSIX ABI, checked against the
/// kernel/glibc headers): `struct pollfd { int fd; short events; short
/// revents; }`, `nfds_t` is an unsigned integer wide enough for a file
/// descriptor count, and a millisecond timeout of −1 blocks forever.
pub mod sys {
    use std::io;

    /// Mirror of C `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to watch (negative = ignore this slot).
        pub fd: i32,
        /// Requested readiness events.
        pub events: i16,
        /// Kernel-reported readiness events.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (always reported, never requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always reported, never requested).
    pub const POLLHUP: i16 = 0x010;

    #[allow(unsafe_code)] // the workspace's single FFI exception; see module docs
    mod ffi {
        extern "C" {
            pub fn poll(fds: *mut super::PollFd, nfds: u64, timeout: i32) -> i32;
        }
    }

    /// Safe wrapper over `poll(2)`: waits up to `timeout_ms` for any of
    /// `fds` to become ready, returning how many are.
    ///
    /// # Errors
    /// The raw OS error, including `Interrupted` for `EINTR` (callers
    /// should retry).
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel writes only
        // `revents` within the `fds.len()` entries we declare.
        #[allow(unsafe_code)]
        let rc = unsafe { ffi::poll(fds.as_mut_ptr(), reaper_exec::num::to_u64(fds.len()), timeout_ms) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(usize::try_from(rc).unwrap_or(0))
    }
}

/// A takeover continuation: receives the raw socket (restored to
/// blocking mode) plus any bytes already read past the request.
pub type TakeoverFn = Box<dyn FnOnce(TcpStream, Vec<u8>) + Send + 'static>;

/// Builds the client's response from the upstream's answer, or from
/// `None` when the exchange failed (refused dial, transport error, a
/// truncated or malformed response).
pub type FinishFn = Box<dyn FnOnce(Option<ClientResponse>) -> Response + 'static>;

/// A request to relay to another server; see [`Handled::Forward`].
pub struct Forward {
    /// The server to send it to.
    pub upstream: SocketAddr,
    /// The whole serialized request ([`crate::http::request_bytes`]).
    pub request: Vec<u8>,
    /// Turns the upstream's answer into the client's response.
    pub finish: FinishFn,
}

/// What a [`Handler`] did with a parsed request.
pub enum Handled {
    /// Answer now; the loop serializes it into the write buffer.
    Respond(Response),
    /// Relay the request upstream on the loop; reads on this connection
    /// pause until `finish` has built the answer.
    Forward(Forward),
    /// Hand the raw socket plus residual bytes to the closure, on its
    /// own thread.
    TakeOver(TakeoverFn),
}

/// Request dispatcher plugged into an [`EventLoop`].
pub trait Handler: Send + Sync + 'static {
    /// Classify one request.
    fn handle(&self, request: Request) -> Handled;
}

/// One registered connection's state between readiness cycles.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a complete request.
    read_buf: Vec<u8>,
    /// Serialized responses not yet flushed to the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// The forwarded request in flight: stop parsing further requests.
    exchange: Option<Exchange>,
    /// Close once `write_buf` drains.
    close_after_write: bool,
    /// Peer sent EOF; close once pending work settles.
    peer_closed: bool,
    /// Transport error or protocol violation: close now.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            exchange: None,
            close_after_write: false,
            peer_closed: false,
            dead: false,
        }
    }

    /// True once nothing keeps this connection alive.
    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        let flushed = self.written >= self.write_buf.len();
        (self.close_after_write && flushed)
            || (self.peer_closed && flushed && self.exchange.is_none())
    }
}

/// One forwarded request in flight on an upstream socket.
struct Exchange {
    upstream: SocketAddr,
    stream: TcpStream,
    /// The serialized request, kept whole for a redial.
    request: Vec<u8>,
    /// Prefix of `request` already written.
    written: usize,
    /// Response bytes read so far.
    response: Vec<u8>,
    /// The socket came off the idle list, so one redial is allowed if
    /// it fails before its first response byte.
    reused: bool,
    /// The client's keep-alive disposition for this request.
    keep_alive: bool,
    finish: FinishFn,
}

/// The answer of a settled exchange, and whether its socket may serve
/// another request; `None` when the exchange failed.
type Outcome = Option<(ClientResponse, bool)>;

impl Exchange {
    /// Starts `forward` on an idle socket for its address, or a fresh
    /// dial. `Err` carries the client's response when no socket could
    /// take the request.
    fn start(forward: Forward, keep_alive: bool, upstreams: &mut Upstreams) -> Result<Self, Response> {
        let Forward {
            upstream,
            request,
            finish,
        } = forward;
        let (stream, reused) = match upstreams.checkout(upstream) {
            Some(stream) => (stream, true),
            None => match dial(upstream) {
                Ok(stream) => (stream, false),
                Err(_) => return Err(finish(None)),
            },
        };
        let mut exchange = Self {
            upstream,
            stream,
            request,
            written: 0,
            response: Vec::new(),
            reused,
            keep_alive,
            finish,
        };
        match exchange.advance(false) {
            None => Ok(exchange),
            Some(outcome) => Err(exchange.settle(outcome, upstreams)),
        }
    }

    /// Writes what remains of the request and, when `readable`, reads
    /// what the upstream sent. `None` while the exchange is in flight.
    /// A reused socket that fails before its first response byte is
    /// replaced by one fresh dial, and the request is sent again.
    fn advance(&mut self, mut readable: bool) -> Option<Outcome> {
        loop {
            match self.pump(readable) {
                Ok(progress) => return progress.map(Some),
                Err(()) if self.reused && self.response.is_empty() => {
                    let Ok(stream) = dial(self.upstream) else {
                        return Some(None);
                    };
                    self.stream = stream;
                    self.reused = false;
                    self.written = 0;
                    readable = false;
                }
                Err(()) => return Some(None),
            }
        }
    }

    /// One step on the current socket; `Err` when it failed.
    fn pump(&mut self, readable: bool) -> Result<Option<(ClientResponse, bool)>, ()> {
        write_pending(&self.stream, &self.request, &mut self.written)?;
        if self.written < self.request.len() || !readable {
            return Ok(None);
        }
        let state = read_available(&self.stream, &mut self.response);
        match http::parse_response_bytes(&self.response) {
            Ok(Some((response, consumed))) => {
                let reusable = state == ReadState::Open
                    && consumed == self.response.len()
                    && !response
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                Ok(Some((response, reusable)))
            }
            Ok(None) if state == ReadState::Open => Ok(None),
            _ => Err(()),
        }
    }

    /// Builds the client's response, returning a reusable socket to the
    /// idle list first.
    fn settle(self, outcome: Outcome, upstreams: &mut Upstreams) -> Response {
        match outcome {
            Some((response, reusable)) => {
                if reusable {
                    upstreams.give_back(self.upstream, self.stream);
                }
                (self.finish)(Some(response))
            }
            None => (self.finish)(None),
        }
    }
}

/// Idle keep-alive upstream sockets, per address.
struct Upstreams {
    idle: BTreeMap<SocketAddr, Vec<TcpStream>>,
    max_idle: usize,
}

impl Upstreams {
    fn checkout(&mut self, addr: SocketAddr) -> Option<TcpStream> {
        self.idle.get_mut(&addr)?.pop()
    }

    fn give_back(&mut self, addr: SocketAddr, stream: TcpStream) {
        let list = self.idle.entry(addr).or_default();
        if list.len() < self.max_idle {
            list.push(stream);
        }
    }

    /// Drops the idle socket at `index` (the peer closed it or sent
    /// bytes nobody asked for). Callers go from the highest index down,
    /// so the indices still to come keep their sockets.
    fn drop_idle(&mut self, addr: SocketAddr, index: usize) {
        if let Some(list) = self.idle.get_mut(&addr) {
            if index < list.len() {
                drop(list.swap_remove(index));
            }
            if list.is_empty() {
                self.idle.remove(&addr);
            }
        }
    }
}

/// What one poll slot watches.
#[derive(Clone, Copy)]
enum Slot {
    Client(u64),
    Upstream(u64),
    Idle(SocketAddr, usize),
}

/// Poll timeout per readiness cycle; bounds reaction time to the
/// shutdown flag exactly like the blocking model's `READ_TIMEOUT`.
const POLL_TICK_MS: i32 = 100;
/// Read granularity per readable socket per cycle.
const READ_CHUNK: usize = 8 * 1024;
/// The longest an upstream dial may hold the loop.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A non-blocking connection multiplexer. Construct with
/// [`EventLoop::new`], then consume it with [`EventLoop::run`] on a
/// dedicated thread.
pub struct EventLoop {
    listener: TcpListener,
    max_connections: usize,
    upstream_idle: usize,
}

impl EventLoop {
    /// Wraps a bound listener, switching it to non-blocking mode.
    ///
    /// # Errors
    /// Socket configuration failures.
    pub fn new(listener: TcpListener, max_connections: usize) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            max_connections: max_connections.max(1),
            upstream_idle: 0,
        })
    }

    /// Keeps up to `per_address` idle keep-alive sockets for each
    /// upstream address a [`Handled::Forward`] names (none by default).
    #[must_use]
    pub fn upstream_idle(mut self, per_address: usize) -> Self {
        self.upstream_idle = per_address;
        self
    }

    /// Runs the readiness loop until `shutdown` is raised (poking the
    /// listener with a throwaway connect makes it notice immediately)
    /// or the listener fails fatally. All connections close on return.
    pub fn run<H: Handler>(self, handler: &Arc<H>, shutdown: &AtomicBool) {
        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut upstreams = Upstreams {
            idle: BTreeMap::new(),
            max_idle: self.upstream_idle,
        };
        let mut next_token: u64 = 0;
        // Reused across cycles. Slot 0 is the listener (reads gated on
        // capacity); `slots[i]` names `fds[i + 1]`.
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut ready: Vec<(Slot, i16)> = Vec::new();

        while !shutdown.load(Ordering::SeqCst) {
            fds.clear();
            slots.clear();
            ready.clear();
            let accept_open = conns.len() < self.max_connections;
            fds.push(poll_slot(
                self.listener.as_raw_fd(),
                if accept_open { sys::POLLIN } else { 0 },
            ));
            for (token, conn) in &conns {
                let mut events = 0i16;
                if conn.exchange.is_none() && !conn.dead {
                    events |= sys::POLLIN;
                }
                if conn.written < conn.write_buf.len() {
                    events |= sys::POLLOUT;
                }
                fds.push(poll_slot(conn.stream.as_raw_fd(), events));
                slots.push(Slot::Client(*token));
                if let Some(exchange) = &conn.exchange {
                    let events = if exchange.written < exchange.request.len() {
                        sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    fds.push(poll_slot(exchange.stream.as_raw_fd(), events));
                    slots.push(Slot::Upstream(*token));
                }
            }
            for (addr, list) in &upstreams.idle {
                for (index, stream) in list.iter().enumerate() {
                    fds.push(poll_slot(stream.as_raw_fd(), sys::POLLIN));
                    slots.push(Slot::Idle(*addr, index));
                }
            }

            match sys::poll_fds(&mut fds, POLL_TICK_MS) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
            if shutdown.load(Ordering::SeqCst) {
                break;
            }

            let listener_ready = fds.first().is_some_and(|pfd| pfd.revents != 0);
            for (pfd, slot) in fds.iter().skip(1).zip(&slots) {
                if pfd.revents != 0 {
                    ready.push((*slot, pfd.revents));
                }
            }

            // Idle sockets first, before any checkout moves the lists.
            for (slot, _) in ready.iter().rev() {
                if let Slot::Idle(addr, index) = slot {
                    upstreams.drop_idle(*addr, *index);
                }
            }

            if listener_ready && accept_open {
                self.accept_burst(&mut conns, &mut next_token);
            }

            for &(slot, revents) in &ready {
                let takeover = match slot {
                    Slot::Client(token) => conns.get_mut(&token).and_then(|conn| {
                        on_client(conn, revents, handler, &mut upstreams)
                    }),
                    Slot::Upstream(token) => conns.get_mut(&token).and_then(|conn| {
                        on_upstream(conn, revents, handler, &mut upstreams)
                    }),
                    Slot::Idle(..) => None,
                };
                if let (Some(takeover), Slot::Client(token) | Slot::Upstream(token)) = (takeover, slot) {
                    if let Some(taken) = conns.remove(&token) {
                        hand_over(taken, takeover);
                    }
                }
            }

            conns.retain(|_, conn| !conn.finished());
        }
    }

    /// Accepts until `WouldBlock` or the connection cap.
    fn accept_burst(&self, conns: &mut BTreeMap<u64, Conn>, next_token: &mut u64) {
        while conns.len() < self.max_connections {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // See Client::connect: loopback keep-alive responses
                    // must not sit in Nagle's buffer.
                    let _ = stream.set_nodelay(true);
                    *next_token = next_token.wrapping_add(1);
                    conns.insert(*next_token, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

fn poll_slot(fd: i32, events: i16) -> sys::PollFd {
    sys::PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// A readable or writable client socket: read and dispatch, then flush.
fn on_client<H: Handler>(
    conn: &mut Conn,
    revents: i16,
    handler: &Arc<H>,
    upstreams: &mut Upstreams,
) -> Option<TakeoverFn> {
    if revents & (sys::POLLERR | sys::POLLHUP) != 0 && revents & sys::POLLIN == 0 {
        conn.dead = true;
        return None;
    }
    if revents & sys::POLLIN != 0 {
        match read_available(&conn.stream, &mut conn.read_buf) {
            ReadState::Open => {}
            ReadState::Eof => conn.peer_closed = true,
            ReadState::Failed => conn.dead = true,
        }
        let takeover = dispatch_requests(conn, handler, upstreams);
        if takeover.is_some() {
            return takeover;
        }
    }
    if revents & sys::POLLOUT != 0 {
        flush_writes(conn);
    }
    None
}

/// A ready upstream socket: advance its exchange, and once it settles
/// answer the client and dispatch whatever it pipelined meanwhile.
fn on_upstream<H: Handler>(
    conn: &mut Conn,
    revents: i16,
    handler: &Arc<H>,
    upstreams: &mut Upstreams,
) -> Option<TakeoverFn> {
    if conn.dead {
        return None;
    }
    let readable = revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0;
    let outcome = conn.exchange.as_mut()?.advance(readable)?;
    let exchange = conn.exchange.take()?;
    let keep_alive = exchange.keep_alive;
    let response = exchange.settle(outcome, upstreams);
    queue_response(conn, &response, keep_alive);
    dispatch_requests(conn, handler, upstreams)
}

/// Dials an upstream and makes the socket non-blocking.
fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// How a socket stood after [`read_available`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadState {
    Open,
    Eof,
    Failed,
}

/// Appends everything the socket has ready to `buf`.
fn read_available(stream: &TcpStream, buf: &mut Vec<u8>) -> ReadState {
    let mut scratch = [0u8; READ_CHUNK];
    loop {
        match (&*stream).read(&mut scratch) {
            Ok(0) => return ReadState::Eof,
            Ok(n) => {
                if let Some(chunk) = scratch.get(..n) {
                    buf.extend_from_slice(chunk);
                }
                if n < READ_CHUNK {
                    return ReadState::Open;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadState::Open,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadState::Failed,
        }
    }
}

/// Writes as much of `buf[*written..]` as the socket accepts right now;
/// `Err` when the socket failed.
fn write_pending(stream: &TcpStream, buf: &[u8], written: &mut usize) -> Result<(), ()> {
    while let Some(pending) = buf.get(*written..).filter(|rest| !rest.is_empty()) {
        match (&*stream).write(pending) {
            Ok(0) => return Err(()),
            Ok(n) => *written = written.saturating_add(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// Parses and dispatches every complete request in the buffer
/// (pipelining), stopping at an incomplete prefix, a forward in
/// flight, or a takeover, then flushes what was answered. Returns the
/// takeover closure when one fires.
fn dispatch_requests<H: Handler>(
    conn: &mut Conn,
    handler: &Arc<H>,
    upstreams: &mut Upstreams,
) -> Option<TakeoverFn> {
    while conn.exchange.is_none() && !conn.dead {
        match http::parse_request_bytes(&conn.read_buf) {
            Ok(None) => break,
            Ok(Some((request, consumed))) => {
                conn.read_buf.drain(..consumed);
                let keep = request.keep_alive();
                match handler.handle(request) {
                    Handled::Respond(response) => queue_response(conn, &response, keep),
                    Handled::Forward(forward) => match Exchange::start(forward, keep, upstreams) {
                        Ok(exchange) => conn.exchange = Some(exchange),
                        Err(response) => queue_response(conn, &response, keep),
                    },
                    Handled::TakeOver(f) => {
                        flush_writes(conn);
                        return Some(f);
                    }
                }
            }
            Err(err) => {
                // Mirror the blocking path's disposition — answer with
                // a 400 and close — but say why, since we can.
                let response = Response::json(
                    400,
                    crate::api::error_body(&err.to_string()),
                );
                queue_response(conn, &response, false);
                conn.read_buf.clear();
                break;
            }
        }
    }
    flush_writes(conn);
    None
}

/// Serializes a response onto the connection's write buffer.
fn queue_response(conn: &mut Conn, response: &Response, keep_alive: bool) {
    if http::write_response(&mut conn.write_buf, response, keep_alive).is_err() {
        // Unreachable (Vec writes are infallible), but stay honest.
        conn.dead = true;
    }
    if !keep_alive {
        conn.close_after_write = true;
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush_writes(conn: &mut Conn) {
    if write_pending(&conn.stream, &conn.write_buf, &mut conn.written).is_err() {
        conn.dead = true;
    } else if conn.written >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
    }
}

/// Restores blocking mode and hands the socket to the takeover closure
/// on its own named thread; the closure owns the connection's lifetime
/// (including any keep-alive continuation) from here. Answers the loop
/// had not flushed yet are written first, in blocking mode.
fn hand_over(conn: Conn, f: TakeoverFn) {
    let Conn {
        mut stream,
        read_buf,
        write_buf,
        written,
        ..
    } = conn;
    // Thread-spawn failure (fd/memory exhaustion) drops the connection,
    // never the loop.
    let _ = thread::Builder::new()
        .name("reaper-serve-takeover".to_string())
        .spawn(move || {
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            if let Some(unflushed) = write_buf.get(written..) {
                if stream.write_all(unflushed).is_err() {
                    return;
                }
            }
            f(stream, read_buf);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::BufReader;

    /// Echo-style handler: responds with the path, forwards `/forward/*`
    /// to `upstream`, takes over on `/takeover`.
    struct TestHandler {
        upstream: SocketAddr,
    }

    impl Handler for TestHandler {
        fn handle(&self, request: Request) -> Handled {
            match request.path() {
                "/takeover" => Handled::TakeOver(Box::new(|mut stream, residual| {
                    let body = format!("taken:{}", residual.len());
                    let response = Response::text(200, body);
                    let _ = http::write_response(&mut stream, &response, false);
                })),
                path if path.starts_with("/forward/") => Handled::Forward(Forward {
                    upstream: self.upstream,
                    request: http::request_bytes("GET", path, &[], &[]),
                    finish: Box::new(|answer| match answer {
                        Some(answer) => Response::bytes(answer.status, answer.body),
                        None => Response::text(503, "upstream failed".to_string()),
                    }),
                }),
                path => Handled::Respond(Response::text(200, format!("path:{path}"))),
            }
        }
    }

    /// An upstream that accepts one connection and answers every
    /// request on it with `upstream:<path>`, keep-alive, until EOF.
    fn one_connection_upstream() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let joiner = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            while let Ok(Some(request)) = http::read_request(&mut reader) {
                let response = Response::text(200, format!("upstream:{}", request.path()));
                if http::write_response(&mut writer, &response, true).is_err() {
                    break;
                }
            }
        });
        (addr, joiner)
    }

    fn start_loop(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let event_loop = EventLoop::new(listener, 64).expect("event loop").upstream_idle(2);
        let handler = Arc::new(TestHandler { upstream });
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let joiner = thread::spawn(move || event_loop.run(&handler, &flag));
        (addr, shutdown, joiner)
    }

    fn stop_loop(addr: SocketAddr, shutdown: &AtomicBool, joiner: thread::JoinHandle<()>) {
        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        joiner.join().expect("loop thread");
    }

    /// A client socket whose reads fail instead of hanging when an
    /// answer never comes.
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    #[test]
    fn serves_pipelined_forwarded_and_takeover_requests() {
        let (upstream, upstream_thread) = one_connection_upstream();
        let (addr, shutdown, joiner) = start_loop(upstream);

        // Keep-alive + pipelining: two requests in one write, two
        // responses in order on one socket.
        let (stream, mut reader) = connect(addr);
        (&stream)
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .expect("send");
        let first = read_response(&mut reader).expect("first");
        assert_eq!(first.body, b"path:/a");
        let second = read_response(&mut reader).expect("second");
        assert_eq!(second.body, b"path:/b");

        // Forwards pipelined with a local answer, in one write: each
        // request behind a forward is dispatched once the forward is
        // answered, and the second forward reuses the first's upstream
        // socket (the upstream serves one connection only).
        (&stream)
            .write_all(
                b"GET /forward/1 HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n\
                  GET /forward/2 HTTP/1.1\r\n\r\n",
            )
            .expect("send");
        for want in [&b"upstream:/forward/1"[..], b"path:/b", b"upstream:/forward/2"] {
            let response = read_response(&mut reader).expect("pipelined answer");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, want);
        }
        drop(reader);
        drop(stream);

        // Takeover: the closure owns the blocking socket and sees the
        // residual pipelined bytes.
        let (stream, mut reader) = connect(addr);
        (&stream)
            .write_all(b"GET /takeover HTTP/1.1\r\n\r\nXYZ")
            .expect("send");
        let taken = read_response(&mut reader).expect("taken");
        assert_eq!(taken.body, b"taken:3");
        drop(reader);
        drop(stream);

        // Malformed framing: a 400 with connection: close.
        let (stream, mut reader) = connect(addr);
        (&stream)
            .write_all(b"NOT-HTTP\r\n\r\n")
            .expect("send");
        let bad = read_response(&mut reader).expect("error response");
        assert_eq!(bad.status, 400);
        assert_eq!(bad.header("connection"), Some("close"));
        // ... and the server actually closes.
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty());

        // Shutdown drops the idle upstream socket, which ends the
        // upstream's one connection.
        stop_loop(addr, &shutdown, joiner);
        upstream_thread.join().expect("upstream thread");
    }

    #[test]
    fn a_refused_forward_is_finished_with_none() {
        let refused = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let (addr, shutdown, joiner) = start_loop(refused);
        let (stream, mut reader) = connect(addr);
        (&stream)
            .write_all(b"GET /forward/x HTTP/1.1\r\n\r\nGET /after HTTP/1.1\r\n\r\n")
            .expect("send");
        let failed = read_response(&mut reader).expect("failed forward");
        assert_eq!(failed.status, 503);
        let after = read_response(&mut reader).expect("next request");
        assert_eq!(after.body, b"path:/after");
        stop_loop(addr, &shutdown, joiner);
    }

    #[test]
    fn many_idle_connections_coexist_with_service() {
        let (addr, shutdown, joiner) = start_loop("127.0.0.1:9".parse().expect("addr"));

        // Park a crowd of idle keep-alive sockets, then verify a fresh
        // request still gets served promptly through the same loop.
        let parked: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let (stream, mut reader) = connect(addr);
        (&stream)
            .write_all(b"GET /live HTTP/1.1\r\n\r\n")
            .expect("send");
        let response = read_response(&mut reader).expect("response");
        assert_eq!(response.body, b"path:/live");
        drop(parked);

        stop_loop(addr, &shutdown, joiner);
    }
}
