//! Minimal HTTP/1.1 wire handling, hand-rolled over [`std::io`]: the
//! server side's buffered request reader and response writer, and the
//! client side's [`read_response`] (load generator and router upstreams).
//!
//! The request reader is deliberately small — method/path/version request line,
//! `name: value` headers, and a `content-length`-delimited body are the
//! whole grammar (no chunked transfer, no continuation lines). It is
//! written against any [`Read`] source so the parser is unit-testable
//! without sockets, and it distinguishes the conditions the server's
//! keep-alive loop cares about: a clean close between requests, an idle
//! timeout (poll the drain flag and keep waiting), and a malformed
//! request (answer 400 and hang up).

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a response's status line + headers, as a client reads
/// them.
pub const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;

/// How long a request may dangle half-transmitted before the connection
/// is declared malformed. Bounds drain time: an in-flight request is
/// flushed, a trickling one is not waited on forever.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/ingest`.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The `content-length`-delimited body (empty without the header).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name` (ASCII case-insensitive lookup —
    /// names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the client asked for the connection to close after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        asks_close(&self.headers)
    }
}

/// Header `(name, value)` pairs, names lowercased, in arrival order.
type Headers = Vec<(String, String)>;

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

fn asks_close(headers: &[(String, String)]) -> bool {
    find_header(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// The declared body length; zero without the header.
fn content_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    find_header(headers, "content-length").map_or(Ok(0), |v| {
        v.parse()
            .map_err(|_| ReadError::Malformed(format!("bad content-length: {v:?}")))
    })
}

/// Why [`RequestReader::read_request`] (or [`read_response`]) returned
/// without a message.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection between messages — not an error.
    Closed,
    /// The read timed out with no request bytes pending: re-check the
    /// drain flag and call again.
    Idle,
    /// A protocol violation; the message is safe to echo in a 400 body.
    Malformed(String),
    /// Head or body exceeded the configured limits (413).
    TooLarge,
    /// A transport failure.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Idle => write!(f, "idle timeout"),
            ReadError::Malformed(msg) => write!(f, "malformed HTTP message: {msg}"),
            ReadError::TooLarge => write!(f, "request too large"),
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Appends one read's worth of bytes from `source` to `buf`.
fn fill(source: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 4096];
    let n = source.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// Length of the head (up to its blank line) and of the head plus that
/// blank line, tolerating bare-LF line endings.
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len().saturating_sub(1) {
        if buf[i] == b'\n' {
            if buf[i + 1] == b'\n' {
                return Some((i, i + 2));
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some((i, i + 3));
            }
        }
    }
    None
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Buffered HTTP/1.1 request reader over any [`Read`] source; leftover
/// bytes (pipelined requests) carry over between calls.
#[derive(Debug)]
pub struct RequestReader<R> {
    source: R,
    buf: Vec<u8>,
    max_body: usize,
}

impl<R: Read> RequestReader<R> {
    /// A reader rejecting bodies larger than `max_body` bytes.
    pub fn new(source: R, max_body: usize) -> Self {
        RequestReader {
            source,
            buf: Vec::new(),
            max_body,
        }
    }

    /// Blocks until `ready(buf)` returns a value, refilling from the
    /// source. `deadline` starts counting once any request byte exists.
    fn pump<T>(
        &mut self,
        started: &mut Option<Instant>,
        mut ready: impl FnMut(&[u8]) -> Option<T>,
        over_limit: impl Fn(&[u8]) -> bool,
    ) -> Result<T, ReadError> {
        loop {
            if let Some(found) = ready(&self.buf) {
                return Ok(found);
            }
            if over_limit(&self.buf) {
                return Err(ReadError::TooLarge);
            }
            if let Some(t0) = *started {
                if t0.elapsed() > REQUEST_DEADLINE {
                    return Err(ReadError::Malformed(
                        "request not completed within the deadline".into(),
                    ));
                }
            }
            match fill(&mut self.source, &mut self.buf) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() && started.is_none() {
                        ReadError::Closed
                    } else {
                        ReadError::Malformed("connection closed mid-request".into())
                    });
                }
                Ok(_) => {
                    started.get_or_insert_with(Instant::now);
                }
                Err(e) if is_timeout(&e) => {
                    if started.is_none() && self.buf.is_empty() {
                        return Err(ReadError::Idle);
                    }
                    // Mid-request: keep waiting until the deadline.
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }

    /// Reads one request. [`ReadError::Idle`] means no bytes arrived
    /// within the source's read timeout — poll your shutdown condition
    /// and call again; buffered partial state is preserved.
    pub fn read_request(&mut self) -> Result<Request, ReadError> {
        let mut started = (!self.buf.is_empty()).then(Instant::now);
        let (head_len, consumed) =
            self.pump(&mut started, head_end, |buf| buf.len() > MAX_HEAD_BYTES)?;
        // One read may carry the buffer past the cap and the blank line
        // with it.
        if head_len > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        let head = self.buf[..head_len].to_vec();
        self.buf.drain(..consumed);
        let (method, path, headers) = parse_head(&head)?;

        let length = content_length(&headers)?;
        if length > self.max_body {
            return Err(ReadError::TooLarge);
        }
        started.get_or_insert_with(Instant::now);
        self.pump(
            &mut started,
            |buf| (buf.len() >= length).then_some(()),
            |_| false,
        )?;
        let body = self.buf.drain(..length).collect();
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }
}

/// The head's first line and its parsed `name: value` headers (names
/// lowercased). A header value holding a control character other than
/// HTAB — a lone CR included — is malformed (RFC 9110 §5.5), so no
/// value can smuggle a line into a head it is echoed or forwarded into.
fn split_head(head: &[u8]) -> Result<(&str, Headers), ReadError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| ReadError::Malformed("head is not valid UTF-8".into()))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let first = lines.next().unwrap_or("");
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line: {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        if value.bytes().any(|b| (b < 0x20 && b != b'\t') || b == 0x7f) {
            return Err(ReadError::Malformed(format!(
                "control character in header {name:?}"
            )));
        }
        headers.push((name, value.trim().to_owned()));
    }
    Ok((first, headers))
}

fn parse_head(head: &[u8]) -> Result<(String, String, Headers), ReadError> {
    let (request_line, headers) = split_head(head)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed(format!(
            "bad request line: {request_line:?}"
        )));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "bad request line: {request_line:?}"
        )));
    }
    Ok((method.to_owned(), path.to_owned(), headers))
}

/// One response as a client reads it with [`read_response`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The `content-length`-delimited body (empty without the header).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value under `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the server announced it will close the connection.
    pub fn wants_close(&self) -> bool {
        asks_close(&self.headers)
    }
}

/// Reads one response from `source`: status line, headers and a
/// `content-length` body, the framing [`write_response`] produces.
/// `buf` carries bytes read past this response over to the next call.
///
/// # Errors
/// [`ReadError::Closed`] when the peer closed before sending a byte;
/// [`ReadError::Malformed`] for anything unparseable, a head over
/// 64 KiB, or a close mid-response; and
/// [`ReadError::Io`] for transport failures, timeouts included.
pub fn read_response(
    source: &mut impl Read,
    buf: &mut Vec<u8>,
) -> Result<ClientResponse, ReadError> {
    let too_large = || ReadError::Malformed("response head exceeds 64 KiB".into());
    let (head_len, consumed) = loop {
        if let Some(found) = head_end(buf) {
            break found;
        }
        if buf.len() > MAX_RESPONSE_HEAD_BYTES {
            return Err(too_large());
        }
        if fill(source, buf).map_err(ReadError::Io)? == 0 {
            return Err(if buf.is_empty() {
                ReadError::Closed
            } else {
                ReadError::Malformed("connection closed mid-response head".into())
            });
        }
    };
    if head_len > MAX_RESPONSE_HEAD_BYTES {
        return Err(too_large());
    }
    let (status_line, headers) = split_head(&buf[..head_len])?;
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ReadError::Malformed(format!("bad status line: {status_line:?}")))?;
    let length = content_length(&headers)?;
    buf.drain(..consumed);
    while buf.len() < length {
        if fill(source, buf).map_err(ReadError::Io)? == 0 {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body: buf.drain(..length).collect(),
    })
}

/// One response, written with an explicit `content-length` (the only
/// framing [`read_response`] understands too).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Echoed `x-request-id`, when the handler assigned one.
    pub request_id: Option<String>,
    /// Emitted as a `retry-after` header (seconds) — set on 503s where
    /// the client should back off rather than hammer a down worker.
    pub retry_after: Option<u64>,
    /// Whether to advertise (and then perform) `connection: close`.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            request_id: None,
            retry_after: None,
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            request_id: None,
            retry_after: None,
            close: false,
        }
    }
}

/// Reason phrase for the status codes the server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto `w` (status line, headers, blank line, body).
/// Head and body are encoded into one buffer and handed over in a single
/// `write_all`, so on a `TCP_NODELAY` socket an answer leaves as one
/// segment and wakes the client once.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = String::with_capacity(160 + resp.body.len());
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(id) = &resp.request_id {
        head.push_str("x-request-id: ");
        head.push_str(id);
        head.push_str("\r\n");
    }
    if let Some(seconds) = resp.retry_after {
        let _ = write!(head, "retry-after: {seconds}\r\n");
    }
    head.push_str(if resp.close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&resp.body);
    w.write_all(&wire)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(wire: &str) -> Result<Request, ReadError> {
        RequestReader::new(Cursor::new(wire.as_bytes().to_vec()), 1024).read_request()
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let req = read_one(
            "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nX-Request-Id: abc\r\n\
             Content-Length: 11\r\n\r\n{\"user\": 3}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/ingest");
        assert_eq!(req.header("x-request-id"), Some("abc"));
        assert_eq!(req.body, b"{\"user\": 3}");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_bare_lf_and_keepalive_pipelining() {
        let wire = "GET /healthz HTTP/1.1\n\nGET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = RequestReader::new(Cursor::new(wire.as_bytes().to_vec()), 1024);
        let first = reader.read_request().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = reader.read_request().unwrap();
        assert_eq!(second.path, "/readyz");
        assert!(second.wants_close());
        assert!(matches!(reader.read_request(), Err(ReadError::Closed)));
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            read_one("NOT A REQUEST\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read_one("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read_one("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(ReadError::TooLarge)
        ));
        // EOF mid-body is malformed, not a clean close.
        assert!(matches!(
            read_one("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Err(ReadError::Malformed(_))
        ));
        // The read that carries the buffer past the cap also carries the
        // blank line; the head is refused all the same.
        let long = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(read_one(&long), Err(ReadError::TooLarge)));
    }

    #[test]
    fn rejects_control_characters_in_header_values() {
        for wire in [
            "GET / HTTP/1.1\r\nx-request-id: a\rset-cookie: x\r\n\r\n",
            "GET / HTTP/1.1\r\nx-request-id: \rset-cookie: x\r\n\r\n",
            "GET / HTTP/1.1\r\nx-request-id: a\x00b\r\n\r\n",
            "GET / HTTP/1.1\r\nx-request-id: a\x7fb\r\n\r\n",
        ] {
            assert!(
                matches!(read_one(wire), Err(ReadError::Malformed(_))),
                "accepted {wire:?}"
            );
        }
        let req = read_one("GET / HTTP/1.1\r\nx-request-id: a\tb\r\n\r\n").unwrap();
        assert_eq!(req.header("x-request-id"), Some("a\tb"));
    }

    #[test]
    fn reads_written_responses_back_and_splits_their_errors() {
        let mut wire = Vec::new();
        let mut first = Response::text(200, "ok\n");
        first.request_id = Some("id-1".to_owned());
        write_response(&mut wire, &first).unwrap();
        let mut second = Response::json(503, "{}".to_owned());
        second.close = true;
        write_response(&mut wire, &second).unwrap();
        let (mut source, mut buf) = (Cursor::new(wire), Vec::new());
        let one = read_response(&mut source, &mut buf).unwrap();
        assert_eq!((one.status, one.body.as_slice()), (200, &b"ok\n"[..]));
        assert_eq!(one.header("X-Request-Id"), Some("id-1"));
        assert!(!one.wants_close());
        let two = read_response(&mut source, &mut buf).unwrap();
        assert_eq!((two.status, two.body.as_slice()), (503, &b"{}"[..]));
        assert!(two.wants_close());
        assert!(matches!(
            read_response(&mut source, &mut buf),
            Err(ReadError::Closed)
        ));

        let read = |wire: &[u8]| read_response(&mut Cursor::new(wire.to_vec()), &mut Vec::new());
        for bad in [
            &b"BLARG NOT HTTP\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\ncontent-le",
        ] {
            assert!(matches!(read(bad), Err(ReadError::Malformed(_))), "{bad:?}");
        }
        let huge = vec![b'x'; MAX_RESPONSE_HEAD_BYTES + 4096];
        assert!(matches!(read(&huge), Err(ReadError::Malformed(_))));
        let long = format!(
            "HTTP/1.1 200 OK\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_RESPONSE_HEAD_BYTES)
        );
        assert!(matches!(
            read(long.as_bytes()),
            Err(ReadError::Malformed(_))
        ));
    }

    /// A source that yields `WouldBlock` forever — the idle keep-alive
    /// connection.
    struct AlwaysBlocked;
    impl Read for AlwaysBlocked {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::from(io::ErrorKind::WouldBlock))
        }
    }

    #[test]
    fn idle_timeout_is_distinguished_from_close() {
        let mut reader = RequestReader::new(AlwaysBlocked, 1024);
        assert!(matches!(reader.read_request(), Err(ReadError::Idle)));
        // Still usable afterwards.
        assert!(matches!(reader.read_request(), Err(ReadError::Idle)));
    }

    #[test]
    fn retry_after_is_emitted_when_set() {
        let mut out = Vec::new();
        let mut resp = Response::json(503, "{\"error\":\"down\"}".to_owned());
        resp.retry_after = Some(2);
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
    }

    #[test]
    fn response_serializes_with_length_and_request_id() {
        let mut out = Vec::new();
        let mut resp = Response::json(200, "{\"ok\":true}".to_owned());
        resp.request_id = Some("req-7".to_owned());
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("x-request-id: req-7\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    /// A sink that counts the `write` calls it takes.
    #[derive(Default)]
    struct CountingWriter {
        wire: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        let mut resp = Response::json(200, "{\"ok\":true}".to_owned());
        resp.request_id = Some("req-8".to_owned());
        resp.retry_after = Some(1);
        let mut out = CountingWriter::default();
        write_response(&mut out, &resp).unwrap();
        assert_eq!(out.writes, 1);
        let mut plain = Vec::new();
        write_response(&mut plain, &resp).unwrap();
        assert_eq!(out.wire, plain);
        let text = String::from_utf8(plain).unwrap();
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }
}
