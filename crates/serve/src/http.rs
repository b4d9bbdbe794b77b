//! A minimal HTTP/1.1 layer over `std::io`: enough of the protocol for
//! the profiling service and its client — request-line + header parsing,
//! `Content-Length` framing, keep-alive, and `Transfer-Encoding:
//! chunked` responses for the watch long-poll — and nothing else (no
//! TLS, no HTTP/2).
//!
//! The reader is written against `BufRead` so the server can *peek*
//! (`fill_buf`) before committing to a request: a read timeout while
//! idle between requests is a normal keep-alive lapse, while a timeout
//! mid-request is a protocol error.

use std::io::{self, BufRead, ErrorKind, Read, Write};

/// Longest accepted request line or single header line, in bytes.
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request/response body, in bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Largest accepted request head (request line + headers + blank line)
/// for the incremental byte-buffer parser used by the event loop.
const MAX_HEAD: usize = 64 * 1024;

/// Why reading an HTTP message failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer went idle past the socket read timeout *between*
    /// requests; the connection should be closed quietly.
    Timeout,
    /// The message violates the subset of HTTP/1.1 this module speaks.
    Malformed(&'static str),
    /// A line, header block, or body exceeded its size cap.
    TooLarge(&'static str),
    /// The underlying transport failed mid-message.
    Io(io::Error),
}

impl core::fmt::Display for HttpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HttpError::Timeout => write!(f, "idle timeout"),
            HttpError::Malformed(what) => write!(f, "malformed http message: {what}"),
            HttpError::TooLarge(what) => write!(f, "http message too large: {what}"),
            HttpError::Io(e) => write!(f, "http transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed request: method, target (path + optional query), lowercased
/// headers, body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, e.g. `/v1/jobs/abc?format=json`.
    pub target: String,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query string after `?`, if any.
    pub fn query(&self) -> Option<&str> {
        let (_, q) = self.target.split_once('?')?;
        Some(q)
    }

    /// True when the query string contains `key=value` as one `&`-separated
    /// component.
    pub fn query_has(&self, key: &str, value: &str) -> bool {
        self.query()
            .is_some_and(|q| q.split('&').any(|kv| kv.split_once('=') == Some((key, value))))
    }

    /// Value of the first `key=value` query component for `key`.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .find_map(|kv| match kv.split_once('=') {
                Some((k, v)) if k == key => Some(v),
                _ => None,
            })
    }

    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }

    /// True unless the client sent `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one CRLF- (or LF-) terminated line, stripped of its terminator.
fn read_line<R: BufRead>(reader: &mut R, what: &'static str) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = reader.by_ref().take(MAX_LINE).read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::Malformed("unexpected end of stream"));
    }
    if !line.ends_with('\n') {
        return Err(HttpError::TooLarge(what));
    }
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(line)
}

/// Lowercased `(name, value)` header pairs.
pub type Headers = Vec<(String, String)>;

/// Reads the header block up to and including the blank line.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<Headers, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, "header line")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// Reads the body its headers announce: a chunked stream drained whole,
/// or `Content-Length` bytes (none when the header is absent).
fn read_body<R: BufRead>(reader: &mut R, headers: &Headers) -> Result<Vec<u8>, HttpError> {
    if is_chunked(headers) {
        // Drain the whole chunked stream into one body (the incremental
        // reader for long-poll subscribers is `read_chunk`).
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(reader)? {
            if body.len() + chunk.len() > MAX_BODY {
                return Err(HttpError::TooLarge("chunked body"));
            }
            body.extend_from_slice(&chunk);
        }
        return Ok(body);
    }
    let mut body = vec![0u8; content_length(headers)?];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// True when the headers declare `Transfer-Encoding: chunked`.
fn is_chunked(headers: &Headers) -> bool {
    headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
}

/// The declared `Content-Length` (0 when absent), capped at `MAX_BODY`.
fn content_length(headers: &Headers) -> Result<usize, HttpError> {
    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("unparsable content-length"))?,
    };
    if length > MAX_BODY {
        return Err(HttpError::TooLarge("body"));
    }
    Ok(length)
}

/// Reads one `Transfer-Encoding: chunked` chunk: `Some(data)` for a data
/// chunk, `None` for the terminal zero-size chunk.
///
/// # Errors
/// [`HttpError`] for malformed chunk framing, oversized chunks, and
/// transport failures.
pub fn read_chunk<R: BufRead>(reader: &mut R) -> Result<Option<Vec<u8>>, HttpError> {
    let size_line = read_line(reader, "chunk size line")?;
    // Ignore chunk extensions after ';' (we never send them).
    let size_text = size_line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_text, 16)
        .map_err(|_| HttpError::Malformed("unparsable chunk size"))?;
    if size > MAX_BODY {
        return Err(HttpError::TooLarge("chunk"));
    }
    if size == 0 {
        // Terminal chunk: consume the (empty) trailer section.
        loop {
            let line = read_line(reader, "chunk trailer")?;
            if line.is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let sep = read_line(reader, "chunk separator")?;
    if !sep.is_empty() {
        return Err(HttpError::Malformed("chunk data not CRLF-terminated"));
    }
    Ok(Some(data))
}

/// Reads one request from a keep-alive connection.
///
/// Returns `Ok(None)` on clean EOF before any request byte (the client
/// closed between requests). A read timeout in the same position maps to
/// [`HttpError::Timeout`] so callers can poll a shutdown flag and come
/// back; any timeout *after* the first byte is a hard error.
///
/// # Errors
/// [`HttpError`] for timeouts, protocol violations, oversized messages,
/// and transport failures.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    // Peek before parsing so idle-timeout and clean-close are
    // distinguishable from a malformed request.
    match reader.fill_buf() {
        Ok([]) => return Ok(None),
        Ok(_) => {}
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Err(HttpError::Timeout);
        }
        Err(e) => return Err(HttpError::Io(e)),
    }

    let request_line = read_line(reader, "request line")?;
    let (method, target) = parse_request_line(&request_line)?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// Splits `METHOD TARGET HTTP/1.x` into its method and target tokens.
fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("request line without target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("request line without version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported http version"));
    }
    Ok((method, target))
}

/// Byte offset just past the head-terminating blank line, if the buffer
/// already holds one (accepts CRLF and bare-LF line endings).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    for (i, b) in buf.iter().enumerate() {
        if *b != b'\n' {
            continue;
        }
        let rest = buf.get(i + 1..).unwrap_or(&[]);
        if rest.starts_with(b"\r\n") {
            return Some(i + 3);
        }
        if rest.starts_with(b"\n") {
            return Some(i + 2);
        }
    }
    None
}

/// The head of one `Content-Length`-framed message at the front of a
/// byte buffer: its start line, its headers, and where its body lies.
struct BufferedHead {
    start_line: String,
    headers: Headers,
    body: core::ops::Range<usize>,
}

impl BufferedHead {
    /// Parses the head if the buffer holds all of it. Chunked bodies are
    /// refused: no peer of this service sends them on the buffered path,
    /// and rejecting the framing keeps the parser single-pass.
    fn parse(buf: &[u8], chunked: &'static str) -> Result<Option<Self>, HttpError> {
        let Some(head_end) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD {
                return Err(HttpError::TooLarge("message head"));
            }
            return Ok(None);
        };
        if head_end > MAX_HEAD {
            return Err(HttpError::TooLarge("message head"));
        }
        let mut head = buf.get(..head_end).unwrap_or(buf);
        let start_line = read_line(&mut head, "start line")?;
        let headers = read_headers(&mut head)?;
        if is_chunked(&headers) {
            return Err(HttpError::Malformed(chunked));
        }
        let length = content_length(&headers)?;
        Ok(Some(Self {
            start_line,
            headers,
            body: head_end..head_end.saturating_add(length),
        }))
    }

    /// The body bytes, once the buffer holds all of them.
    fn body<'a>(&self, buf: &'a [u8]) -> Option<&'a [u8]> {
        buf.get(self.body.clone())
    }
}

/// Incrementally parses one request out of a byte buffer — the
/// non-blocking event loop's entry point. The readiness loop appends
/// whatever the socket had ready and asks whether a complete message
/// has arrived yet.
///
/// Returns `Ok(None)` while the buffer holds only a request prefix,
/// and `Ok(Some((request, consumed)))` once a full message is present,
/// where `consumed` is the byte count to drain from the buffer's front
/// (pipelined requests may follow it). Chunked request bodies are not
/// accepted on this path.
///
/// # Errors
/// [`HttpError`] for protocol violations and oversized messages.
pub fn parse_request_bytes(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head) = BufferedHead::parse(buf, "chunked request body")? else {
        return Ok(None);
    };
    let (method, target) = parse_request_line(&head.start_line)?;
    let Some(body) = head.body(buf) else {
        // Head complete, body still in flight.
        return Ok(None);
    };
    let body = body.to_vec();
    Ok(Some((
        Request {
            method,
            target,
            headers: head.headers,
            body,
        },
        head.body.end,
    )))
}

/// Incrementally parses one `Content-Length`-framed response out of a
/// byte buffer — the sibling of [`parse_request_bytes`], used by the
/// event loop to read a forwarded request's answer off a non-blocking
/// upstream socket. A missing `Content-Length` means an empty body, as
/// in [`read_response`]; chunked responses are refused.
///
/// # Errors
/// [`HttpError`] for protocol violations and oversized messages.
pub fn parse_response_bytes(buf: &[u8]) -> Result<Option<(ClientResponse, usize)>, HttpError> {
    let Some(head) = BufferedHead::parse(buf, "chunked response body")? else {
        return Ok(None);
    };
    let status = parse_status_line(&head.start_line)?;
    let Some(body) = head.body(buf) else {
        return Ok(None);
    };
    let body = body.to_vec();
    Ok(Some((
        ClientResponse {
            status,
            headers: head.headers,
            body,
        },
        head.body.end,
    )))
}

/// Serializes one client request with `Content-Length` framing. Every
/// request this workspace sends — the [`crate::Client`], the
/// [`crate::ConnectionPool`] and the fleet router's forwards — is built
/// here, so the wire bytes cannot drift between them.
pub fn request_bytes(
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: reaper-serve\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    message
}

/// A response ready to serialize: status, content type, extra headers,
/// body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional `(name, value)` headers (e.g. `ETag`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A binary (`application/octet-stream`) response.
    pub fn bytes(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: "application/octet-stream",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Attaches an extra header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }
}

/// The standard reason phrase for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `response` with `Content-Length` framing and the given
/// connection disposition.
///
/// # Errors
/// Propagates transport write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    // One write for head + body: split writes interact badly with Nagle's
    // algorithm + delayed ACK (~40 ms stalls on loopback keep-alive).
    let mut message = head.into_bytes();
    message.extend_from_slice(&response.body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Writes the head of a `Transfer-Encoding: chunked` response; the body
/// follows as [`write_chunk`] calls closed by [`finish_chunked`].
///
/// # Errors
/// Propagates transport write failures.
pub fn write_chunked_head<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\n",
        status,
        reason(status),
        content_type,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

/// Writes one data chunk and flushes, so a long-poll subscriber sees the
/// event immediately.
///
/// # Errors
/// Propagates transport write failures.
pub fn write_chunk<W: Write>(writer: &mut W, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        // An empty data chunk would read as the stream terminator.
        return Ok(());
    }
    let mut message = format!("{:x}\r\n", data.len()).into_bytes();
    message.extend_from_slice(data);
    message.extend_from_slice(b"\r\n");
    writer.write_all(&message)?;
    writer.flush()
}

/// Terminates a chunked response (zero-size chunk, empty trailer).
///
/// # Errors
/// Propagates transport write failures.
pub fn finish_chunked<W: Write>(writer: &mut W) -> io::Result<()> {
    writer.write_all(b"0\r\n\r\n")?;
    writer.flush()
}

/// A response as seen by the client side: status, headers, body.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lowercased header pairs.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a response's status line and headers, leaving the body (if
/// any) unread — the entry point for incremental chunked consumption.
///
/// # Errors
/// [`HttpError`] for protocol violations, oversized messages, and
/// transport failures.
pub fn read_response_head<R: BufRead>(reader: &mut R) -> Result<(u16, Headers), HttpError> {
    let status_line = read_line(reader, "status line")?;
    let status = parse_status_line(&status_line)?;
    let headers = read_headers(reader)?;
    Ok((status, headers))
}

/// Splits `HTTP/1.x CODE REASON` into its status code.
fn parse_status_line(line: &str) -> Result<u16, HttpError> {
    let mut parts = line.split_ascii_whitespace();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported http version"));
    }
    parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(HttpError::Malformed("unparsable status code"))
}

/// Reads one response off a client connection (chunked bodies are
/// drained whole; use [`read_response_head`] + [`read_chunk`] to stream).
///
/// # Errors
/// [`HttpError`] for protocol violations, oversized messages, and
/// transport failures.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<ClientResponse, HttpError> {
    let (status, headers) = read_response_head(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_bytes(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = b"POST /v1/jobs?format=json&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse_bytes(raw).expect("valid").expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/jobs");
        assert_eq!(req.query(), Some("format=json&x=1"));
        assert!(req.query_has("format", "json"));
        assert!(!req.query_has("format", "bin"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_yields_none_and_garbage_errors() {
        assert!(parse_bytes(b"").expect("eof is clean").is_none());
        assert!(parse_bytes(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_bytes(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_bytes(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse_bytes(b"GET / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n").is_err());
        // Declared body longer than the stream.
        assert!(parse_bytes(b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").is_err());
    }

    #[test]
    fn size_caps_are_enforced() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
        assert!(matches!(
            parse_bytes(long_target.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
        let huge_body = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            parse_bytes(huge_body.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = parse_bytes(raw).expect("valid").expect("present");
        assert!(!req.keep_alive());
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let resp = Response::json(200, "{\"ok\":true}".to_string())
            .with_header("etag", "\"abc\"".to_string());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).expect("write to vec");
        let back = read_response(&mut BufReader::new(wire.as_slice())).expect("parse own output");
        assert_eq!(back.status, 200);
        assert_eq!(back.header("ETag"), Some("\"abc\""));
        assert_eq!(back.header("connection"), Some("keep-alive"));
        assert_eq!(back.body, b"{\"ok\":true}");
    }

    #[test]
    fn lf_only_lines_are_tolerated() {
        let raw = b"GET /healthz HTTP/1.1\nHost: h\n\n";
        let req = parse_bytes(raw).expect("valid").expect("present");
        assert_eq!(req.path(), "/healthz");
    }

    #[test]
    fn query_get_returns_the_first_matching_component() {
        let raw = b"GET /v1/profiles/x/delta?since=3&timeout_ms=50 HTTP/1.1\r\n\r\n";
        let req = parse_bytes(raw).expect("valid").expect("present");
        assert_eq!(req.query_get("since"), Some("3"));
        assert_eq!(req.query_get("timeout_ms"), Some("50"));
        assert_eq!(req.query_get("missing"), None);
    }

    #[test]
    fn chunked_stream_roundtrips_incrementally_and_whole() {
        let mut wire = Vec::new();
        write_chunked_head(
            &mut wire,
            200,
            "application/octet-stream",
            &[("x-reaper-epoch", "7".to_string())],
            true,
        )
        .expect("head to vec");
        write_chunk(&mut wire, b"first").expect("chunk");
        write_chunk(&mut wire, b"").expect("empty chunk is a no-op");
        write_chunk(&mut wire, b"second event").expect("chunk");
        finish_chunked(&mut wire).expect("terminator");

        // Incremental reader sees each event separately.
        let mut reader = BufReader::new(wire.as_slice());
        let (status, headers) = read_response_head(&mut reader).expect("head");
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v == "chunked"));
        assert!(headers.iter().any(|(n, v)| n == "x-reaper-epoch" && v == "7"));
        assert_eq!(read_chunk(&mut reader).expect("chunk"), Some(b"first".to_vec()));
        assert_eq!(
            read_chunk(&mut reader).expect("chunk"),
            Some(b"second event".to_vec())
        );
        assert_eq!(read_chunk(&mut reader).expect("terminator"), None);

        // Whole-body reader concatenates the stream.
        let back = read_response(&mut BufReader::new(wire.as_slice())).expect("parse");
        assert_eq!(back.body, b"firstsecond event");
    }

    #[test]
    fn incremental_parser_handles_prefixes_wholes_and_pipelines() {
        let raw: &[u8] =
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n";
        // Every strict prefix of the first message is "not yet".
        let first_len = raw.len() - b"GET /healthz HTTP/1.1\r\n\r\n".len();
        for cut in 0..first_len {
            let step = parse_request_bytes(&raw[..cut]).expect("prefix is clean");
            assert!(step.is_none(), "cut={cut} parsed early");
        }
        // The full buffer yields the first request and its exact length,
        // leaving the pipelined second request unconsumed.
        let (req, consumed) = parse_request_bytes(raw)
            .expect("valid")
            .expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"body");
        assert_eq!(consumed, first_len);
        let (next, consumed2) = parse_request_bytes(&raw[consumed..])
            .expect("valid")
            .expect("complete");
        assert_eq!(next.method, "GET");
        assert_eq!(next.path(), "/healthz");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incremental_parser_rejects_bad_framing() {
        assert!(parse_request_bytes(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_request_bytes(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_request_bytes(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        // Chunked request bodies are refused on the event-loop path.
        assert!(parse_request_bytes(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
        )
        .is_err());
        // An endless head trips the cap instead of buffering forever.
        let torrent = vec![b'x'; MAX_HEAD + 1];
        assert!(matches!(
            parse_request_bytes(&torrent),
            Err(HttpError::TooLarge(_))
        ));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            parse_request_bytes(huge.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn incremental_parser_tolerates_lf_only_terminators() {
        let raw = b"GET /metrics HTTP/1.1\nHost: h\n\n";
        let (req, consumed) = parse_request_bytes(raw)
            .expect("valid")
            .expect("complete");
        assert_eq!(req.path(), "/metrics");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn serialized_requests_parse_back_unchanged() {
        let body = b"{\"seed\":7}";
        let wire = request_bytes(
            "POST",
            "/v1/profiles/00ab/epochs?x=1",
            &[("if-none-match", "\"e1\""), ("x-extra", "v")],
            body,
        );
        let (req, consumed) = parse_request_bytes(&wire)
            .expect("valid")
            .expect("complete");
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/profiles/00ab/epochs?x=1");
        assert_eq!(req.body, body);
        let headers: Vec<(&str, &str)> = req
            .headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            headers,
            [
                ("host", "reaper-serve"),
                ("if-none-match", "\"e1\""),
                ("x-extra", "v"),
                ("content-length", "10"),
            ]
        );
        // The blocking reader sees the same request.
        let blocking = parse_bytes(&wire).expect("valid").expect("present");
        assert_eq!(blocking.target, req.target);
        assert_eq!(blocking.headers, req.headers);
        assert_eq!(blocking.body, req.body);
        // No body, no extra headers.
        let bare = request_bytes("GET", "/healthz", &[], &[]);
        assert_eq!(bare, b"GET /healthz HTTP/1.1\r\nhost: reaper-serve\r\ncontent-length: 0\r\n\r\n");
    }

    #[test]
    fn incremental_response_parser_handles_prefixes_and_framing() {
        let first = Response::bytes(200, b"RPF1body".to_vec())
            .with_header("etag", "\"h\"".to_string());
        let mut wire = Vec::new();
        write_response(&mut wire, &first, true).expect("write to vec");
        let first_len = wire.len();
        write_response(&mut wire, &Response::json(304, String::new()), false).expect("write");
        for cut in 0..first_len {
            let step = parse_response_bytes(&wire[..cut]).expect("prefix is clean");
            assert!(step.is_none(), "cut={cut} parsed early");
        }
        let (resp, consumed) = parse_response_bytes(&wire)
            .expect("valid")
            .expect("complete");
        assert_eq!(consumed, first_len);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("etag"), Some("\"h\""));
        assert_eq!(resp.body, b"RPF1body");
        // It agrees with the blocking reader.
        let blocking = read_response(&mut BufReader::new(wire.as_slice())).expect("parse");
        assert_eq!(blocking.headers, resp.headers);
        assert_eq!(blocking.body, resp.body);
        let (next, consumed2) = parse_response_bytes(&wire[consumed..])
            .expect("valid")
            .expect("complete");
        assert_eq!((next.status, next.header("connection")), (304, Some("close")));
        assert_eq!(consumed + consumed2, wire.len());

        assert!(parse_response_bytes(b"HTTP/2 200 OK\r\n\r\n").is_err());
        assert!(parse_response_bytes(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_response_bytes(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n"
        )
        .is_err());
        // A missing content-length frames an empty body.
        let (empty, n) = parse_response_bytes(b"HTTP/1.1 204 No Content\r\n\r\nX")
            .expect("valid")
            .expect("complete");
        assert!(empty.body.is_empty());
        assert_eq!(n, b"HTTP/1.1 204 No Content\r\n\r\n".len());
    }

    #[test]
    fn malformed_chunk_framing_is_rejected() {
        // Unparsable size line.
        let mut r = BufReader::new(&b"zz\r\ndata\r\n"[..]);
        assert!(read_chunk(&mut r).is_err());
        // Data not CRLF-terminated where the separator should be.
        let mut r = BufReader::new(&b"4\r\ndataX\r\n"[..]);
        assert!(read_chunk(&mut r).is_err());
        // Truncated data.
        let mut r = BufReader::new(&b"10\r\nshort"[..]);
        assert!(read_chunk(&mut r).is_err());
    }
}
