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
//! memory.
//!
//! [`RequestParser`] is a *push* parser for the event-driven server: feed it
//! whatever bytes a non-blocking read produced, ask whether a complete
//! request has been framed.  It never blocks and never touches a socket.
//! [`encode_response`] produces the bytes the server stages for writing.

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

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer sent bytes that are not a valid request (the message is for
    /// the `400` response body).
    Malformed(String),
    /// The head or body exceeded its size bound (maps to `431`/`413`).
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// Frames raw bytes delivered in one read: `Ok(None)` when they hold
    /// no complete request.
    fn parse_raw(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser.try_parse()
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse_raw(b"POST /v2/explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap()
                .expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v2/explain");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_get_without_body_and_connection_close() {
        let req = parse_raw(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_an_error() {
        // A peer that closes before sending a byte leaves nothing buffered
        // and no error: the event loop closes such a connection quietly.
        let mut parser = RequestParser::new();
        parser.feed(b"");
        assert!(parser.try_parse().unwrap().is_none());
        assert!(parser.is_empty());
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
        let encoded = encode_response(&Response::json(200, "{\"ok\":true}"), true);
        server.write_all(&encoded).unwrap();
        drop(server);
        let mut text = String::new();
        std::io::BufReader::new(client)
            .read_to_string(&mut text)
            .unwrap();
        assert_eq!(text.as_bytes(), encoded);
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

    const WIRE: &[u8] = b"POST /v2/explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";

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
            assert_eq!(req.path, "/v2/explain");
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
        assert_eq!(first.path, "/v2/explain");
        assert!(!parser.is_empty(), "second request stays buffered");
        let second = parser.try_parse().unwrap().expect("second framed");
        assert_eq!(second.path, "/models");
        assert!(second.wants_close());
        assert!(parser.is_empty());
        assert!(parser.try_parse().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_rejects_bad_streams_fed_byte_by_byte() {
        // Each stream waits for more bytes until its head is complete, then
        // fails exactly as when it arrives in one read.
        let cases: &[&[u8]] = &[
            b"NOT-HTTP\r\n\r\n",
            b"GET / HTTP/9.9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ];
        for raw in cases {
            let mut parser = RequestParser::new();
            let (last, prefix) = raw.split_last().unwrap();
            for byte in prefix {
                parser.feed(&[*byte]);
                assert!(parser.try_parse().unwrap().is_none());
            }
            parser.feed(&[*last]);
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
    fn encode_response_emits_the_exact_wire_bytes() {
        let resp = Response::json(200, "{\"n\":1}");
        assert_eq!(
            encode_response(&resp, false),
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\
              Connection: keep-alive\r\n\r\n{\"n\":1}"
        );
        assert_eq!(
            encode_response(&Response::text(503, "x"), true),
            b"HTTP/1.1 503 Service Unavailable\r\n\
              Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
              Content-Length: 1\r\nConnection: close\r\n\r\nx"
        );
    }
}
