//! A dependency-free HTTP/1.1 subset: request parsing and response writing.
//!
//! The workspace builds offline — no tokio, no hyper — so the serving layer
//! hand-rolls the protocol over [`std::net::TcpStream`], the same way the
//! vendored shims hand-roll their upstream APIs.  The subset is exactly what
//! a JSON API needs: a request line, `\r\n`-terminated headers,
//! `Content-Length`-framed bodies, and keep-alive connections.  Everything
//! else (chunked encoding, continuations, upgrades) is rejected with a
//! structured error that the server maps to a `4xx` response.
//!
//! Parsing is defensive: header and body sizes are bounded
//! ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) so a hostile peer cannot balloon
//! memory, and a read timeout on an *idle* keep-alive connection surfaces as
//! [`HttpError::Idle`] so workers can poll their shutdown flag instead of
//! blocking forever.
//!
//! Two entry points share one parsing core:
//!
//! * [`RequestParser`] — a *push* parser for the event-driven server: feed
//!   it whatever bytes a non-blocking read produced, ask whether a complete
//!   request has been framed.  It never blocks and never touches a socket.
//! * [`read_request`] — the blocking *pull* wrapper over the same parser for
//!   synchronous callers (tests, simple clients).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased during parsing.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// An outgoing HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON everywhere except `/metrics`, which serves
    /// Prometheus text exposition, and `/v2/graph`'s DOT/Mermaid text).
    pub body: String,
    /// The `Content-Type` the wire advertises.  A `&'static str` because
    /// the service only ever serves the few fixed types below.
    pub content_type: &'static str,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition content type, used
    /// by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
        }
    }

    /// A plain-text response with the generic `text/plain` content type
    /// (used by `/v2/graph`'s DOT and Mermaid renderings).
    pub fn plain(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A structured JSON error body: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        xinsight_core::json::Json::Str(message.to_owned()).write(&mut body);
        body.push('}');
        Response {
            status,
            body,
            content_type: "application/json",
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending any request bytes —
    /// the clean end of a keep-alive session.
    Closed,
    /// A read timed out before any request bytes arrived; the connection is
    /// idle and still usable.  Workers use this to poll their shutdown flag.
    Idle,
    /// The peer sent bytes that are not a valid request (the message is for
    /// the `400` response body).
    Malformed(String),
    /// The head or body exceeded its size bound (maps to `431`/`413`).
    TooLarge(&'static str),
    /// The underlying socket failed mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Idle => write!(f, "connection idle"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Once a request's first byte has arrived, the rest of it must arrive
/// within this budget; transient socket-timeout ticks inside that window
/// are retried rather than dropping the connection.
pub const REQUEST_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// An incremental (push) HTTP/1.1 request parser.
///
/// The event-driven server owns one of these per connection: every
/// non-blocking read [`feed`](RequestParser::feed)s whatever bytes arrived,
/// then [`try_parse`](RequestParser::try_parse) either frames a complete
/// request, reports that more bytes are needed (`Ok(None)`), or rejects the
/// stream with a structured [`HttpError`].  Pipelined requests are
/// supported: bytes past the first complete request stay buffered for the
/// next `try_parse`.
///
/// The size bounds ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) are enforced
/// incrementally, so a hostile peer is rejected as soon as the bound is
/// exceeded — not once the full payload has been buffered.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a parsed request.
    /// Non-zero between requests means a *partial* request is in flight —
    /// the signal the event loop uses to arm its slow-loris deadline.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether no unconsumed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Attempts to frame one complete request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when the buffer holds only a prefix of a request;
    /// feeding more bytes and calling again resumes where it left off.  On
    /// `Ok(Some(_))` the request's bytes are consumed and any pipelined
    /// surplus remains buffered.  Errors are terminal for the connection.
    pub fn try_parse(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            // No blank line yet: either wait for more bytes or reject a
            // head that can no longer fit its bound.
            if self.buf.len() > MAX_HEAD_BYTES + 2 {
                return Err(HttpError::TooLarge("request head"));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES + 2 {
            return Err(HttpError::TooLarge("request head"));
        }
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| HttpError::Malformed("non-utf8 in request head".into()))?;
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let (method, path) = parse_request_line(lines.next().unwrap_or(""))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            headers.push(parse_header_line(line)?);
        }
        let request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
        };
        let length = body_length(&request)?;
        if self.buf.len() < head_len + length {
            return Ok(None); // body still arriving
        }
        let body = self.buf[head_len..head_len + length].to_vec();
        self.buf.drain(..head_len + length);
        Ok(Some(Request { body, ..request }))
    }
}

/// Byte offset one past the head terminator (the first empty line), or
/// `None` if the head is still incomplete.  Line framing is tolerant: lines
/// end at `\n`, an optional preceding `\r` is ignored.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, byte) in buf.iter().enumerate() {
        if *byte != b'\n' {
            continue;
        }
        let line = &buf[line_start..i];
        if line.is_empty() || line == b"\r" {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(HttpError::Malformed("bad request line".into())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    Ok((method.to_owned(), path.to_owned()))
}

fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed(format!("bad header line `{line}`")));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
}

/// Validates body framing headers and returns the declared body length.
fn body_length(request: &Request) -> Result<usize, HttpError> {
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; frame bodies with content-length".into(),
        ));
    }
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length `{v}`")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }
    Ok(length)
}

/// Reads one request from a buffered connection (blocking wrapper over
/// [`RequestParser`]).
///
/// Distinguishes the clean cases a keep-alive server must handle: EOF
/// before any bytes ([`HttpError::Closed`]), a read timeout before any
/// bytes ([`HttpError::Idle`]), and everything else as malformed/IO
/// errors.  After the first byte, short read timeouts (the caller's idle
/// poll tick) are retried until [`REQUEST_DEADLINE`], so a slow or lossy
/// peer mid-request is not mistaken for an idle one.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    let mut deadline: Option<std::time::Instant> = None;
    loop {
        if let Some(request) = parser.try_parse()? {
            return Ok(request);
        }
        let chunk_len = match reader.fill_buf() {
            Ok([]) => {
                return Err(if parser.is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof mid-request",
                    ))
                })
            }
            Ok(chunk) => {
                parser.feed(chunk);
                chunk.len()
            }
            Err(e) if is_timeout(&e) => {
                if parser.is_empty() {
                    return Err(HttpError::Idle);
                }
                match deadline {
                    // Mid-request stall: keep waiting until the deadline.
                    Some(d) if std::time::Instant::now() >= d => return Err(HttpError::Io(e)),
                    _ => continue,
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        reader.consume(chunk_len);
        deadline.get_or_insert_with(|| std::time::Instant::now() + REQUEST_DEADLINE);
    }
}

/// The reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response into the exact bytes the wire carries; `close`
/// controls the `Connection` header (and tells the peer whether another
/// request may follow).
///
/// Head and body share one buffer deliberately: two separate writes would
/// trip Nagle + delayed-ACK into ~40–200 ms stalls per response.  The
/// event-driven server stages this buffer on the connection and drains it
/// as the socket reports writability.
pub fn encode_response(response: &Response, close: bool) -> Vec<u8> {
    let mut message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    message.push_str(&response.body);
    message.into_bytes()
}

/// Writes a response in one blocking write (see [`encode_response`]).
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    stream.write_all(&encode_response(response, close))?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    /// Runs `parse` against raw bytes by pushing them through a real socket
    /// pair (the parser is typed against `BufReader<TcpStream>`).
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(raw).unwrap();
        drop(client); // EOF so body reads terminate deterministically
        let mut reader = BufReader::new(server);
        read_request(&mut reader)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_raw(b"POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_get_without_body_and_connection_close() {
        let req = parse_raw(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_an_error() {
        assert!(matches!(parse_raw(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn malformed_requests_are_structured() {
        assert!(matches!(
            parse_raw(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/9.9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_and_heads_are_rejected() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(huge.as_bytes()),
            Err(HttpError::TooLarge("request body"))
        ));
        let mut head = String::from("GET / HTTP/1.1\r\n");
        head.push_str(&format!("X-Big: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES)));
        assert!(matches!(
            parse_raw(head.as_bytes()),
            Err(HttpError::TooLarge("request head"))
        ));
    }

    #[test]
    fn response_writing_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        write_response(&mut server, &Response::json(200, "{\"ok\":true}"), true).unwrap();
        drop(server);
        let mut text = String::new();
        BufReader::new(client).read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_responses_escape_the_message() {
        let resp = Response::error(400, "bad \"thing\"\n");
        assert_eq!(resp.body, "{\"error\":\"bad \\\"thing\\\"\\n\"}");
    }

    const WIRE: &[u8] = b"POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";

    #[test]
    fn incremental_parser_frames_across_arbitrary_splits() {
        // Feeding the same request one byte at a time, or split at every
        // possible boundary, must frame the identical request.
        for split in 0..=WIRE.len() {
            let mut parser = RequestParser::new();
            parser.feed(&WIRE[..split]);
            let early = parser.try_parse().unwrap();
            if split < WIRE.len() {
                assert!(early.is_none(), "complete before byte {split}?");
                parser.feed(&WIRE[split..]);
            }
            let req = match early {
                Some(req) => req,
                None => parser.try_parse().unwrap().expect("complete"),
            };
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/explain");
            assert_eq!(req.header("host"), Some("x"));
            assert_eq!(req.body, b"body");
            assert!(parser.is_empty());
        }
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut parser = RequestParser::new();
        let mut wire = WIRE.to_vec();
        wire.extend_from_slice(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n");
        parser.feed(&wire);
        let first = parser.try_parse().unwrap().expect("first framed");
        assert_eq!(first.path, "/explain");
        assert!(!parser.is_empty(), "second request stays buffered");
        let second = parser.try_parse().unwrap().expect("second framed");
        assert_eq!(second.path, "/models");
        assert!(second.wants_close());
        assert!(parser.is_empty());
        assert!(parser.try_parse().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_rejects_bad_streams_like_the_blocking_path() {
        let cases: &[&[u8]] = &[
            b"NOT-HTTP\r\n\r\n",
            b"GET / HTTP/9.9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ];
        for raw in cases {
            let mut parser = RequestParser::new();
            parser.feed(raw);
            assert!(
                matches!(parser.try_parse(), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
        // Oversized head is rejected *before* the terminator arrives.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nX-Big: ");
        parser.feed(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        assert!(matches!(
            parser.try_parse(),
            Err(HttpError::TooLarge("request head"))
        ));
    }

    #[test]
    fn encode_response_matches_write_response_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let resp = Response::json(200, "{\"n\":1}");
        write_response(&mut server, &resp, false).unwrap();
        drop(server);
        let mut streamed = Vec::new();
        BufReader::new(client).read_to_end(&mut streamed).unwrap();
        assert_eq!(streamed, encode_response(&resp, false));
    }
}
