//! A minimal blocking HTTP/1.1 client for the serving layer's own wire
//! format.
//!
//! Exists for the serving smoke test against the real `xinsight-serve`
//! binary and the integration tests — all of which need keep-alive
//! request/response exchanges against [`crate::server`] without any
//! external tooling (the build is offline; `curl` may not exist in the
//! container).  It speaks exactly the subset [`crate::http`] serves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use xinsight_data::{DataError, Result};

/// One keep-alive connection to the server.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A decoded response: status code and body text.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the service always sends JSON).
    pub body: String,
    /// Whether the server announced it will close the connection.
    pub closing: bool,
}

fn io_err(context: &str, e: std::io::Error) -> DataError {
    DataError::Serve(format!("{context}: {e}"))
}

/// Assembles a `POST /v2/explain` body from pre-serialized parts.
pub fn explain_v2_body(model: &str, query_json: &str, options_json: Option<&str>) -> String {
    let mut body = String::from("{\"model\":");
    xinsight_core::json::Json::Str(model.to_owned()).write(&mut body);
    body.push_str(",\"query\":");
    body.push_str(query_json);
    if let Some(options) = options_json {
        body.push_str(",\"options\":");
        body.push_str(options);
    }
    body.push('}');
    body
}

/// Assembles a `POST /v2/ingest` body from a model id and a pre-serialized
/// JSON array of row objects (e.g. `[{"Month":"May","DelayMinute":42}]`).
pub fn ingest_v2_body(model: &str, rows_json: &str) -> String {
    let mut body = String::from("{\"model\":");
    xinsight_core::json::Json::Str(model.to_owned()).write(&mut body);
    body.push_str(",\"rows\":");
    body.push_str(rows_json);
    body.push('}');
    body
}

/// Polls `GET /healthz` (reconnecting each attempt) until the server
/// answers `200` or `timeout` elapses.
///
/// The liveness endpoint never touches a model, so this readiness gate is
/// honest even while the server is busy fitting or answering — the CI
/// smoke test uses it instead of sleeping and hoping.
// thread::sleep allowed: readiness polling from a client-side helper; no
// server thread is ever parked here (see clippy.toml).
#[allow(clippy::disallowed_methods)]
pub fn wait_healthy(addr: SocketAddr, timeout: Duration) -> Result<()> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        // Anything short of a 200 — connection refused, 503 backpressure —
        // is retried until the deadline.
        let outcome = HttpClient::connect(addr).and_then(|mut c| c.get("/healthz"));
        match outcome {
            Ok(response) if response.status == 200 => return Ok(()),
            other => {
                if std::time::Instant::now() >= deadline {
                    let detail = match other {
                        Ok(response) => format!("last answer was {}", response.status),
                        Err(e) => e.to_string(),
                    };
                    return Err(DataError::Serve(format!(
                        "server at {addr} not healthy within {timeout:?}: {detail}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

impl HttpClient {
    /// Connects to a server address, with a generous request timeout so a
    /// wedged server fails tests instead of hanging them.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| io_err("set timeout", e))?;
        // Request/response round trips are latency-bound: never batch the
        // small request segments behind Nagle.
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("set nodelay", e))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone stream", e))?);
        Ok(HttpClient { stream, reader })
    }

    /// Issues a `GET` and reads the response.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issues a `POST` with a JSON body and reads the response.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Issues a `POST /v2/explain`, assembling the versioned body from the
    /// model id, the query's canonical JSON and an optional pre-serialized
    /// options object (e.g. `{"top_k":3}`).
    pub fn explain_v2(
        &mut self,
        model: &str,
        query_json: &str,
        options_json: Option<&str>,
    ) -> Result<ClientResponse> {
        let body = explain_v2_body(model, query_json, options_json);
        self.post("/v2/explain", &body)
    }

    /// Issues a `POST /v2/ingest`, appending rows (a pre-serialized JSON
    /// array of row objects) to the model's segmented store.
    pub fn ingest_v2(&mut self, model: &str, rows_json: &str) -> Result<ClientResponse> {
        let body = ingest_v2_body(model, rows_json);
        self.post("/v2/ingest", &body)
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<ClientResponse> {
        self.send(method, path, body.unwrap_or(""))?;
        self.recv()
    }

    /// Writes a request without waiting for the answer — the split half of
    /// [`HttpClient::recv`].  Open-loop load generation and the
    /// backpressure tests use this to put several requests in flight
    /// (against distinct connections) before collecting any responses.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<()> {
        // One buffer, one write — see `http::encode_response` on Nagle.
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: xinsight\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        message.push_str(body);
        self.stream
            .write_all(message.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| io_err("send request", e))
    }

    /// Reads one response off the connection — the counterpart of
    /// [`HttpClient::send`].
    pub fn recv(&mut self) -> Result<ClientResponse> {
        self.read_response()
    }

    fn read_line(&mut self) -> Result<String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| io_err("read response", e))?;
        if n == 0 {
            return Err(DataError::Serve("server closed the connection".into()));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| DataError::Serve(format!("bad status line `{status_line}`")))?;
        let mut length = 0usize;
        let mut closing = false;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(DataError::Serve(format!("bad response header `{line}`")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| DataError::Serve(format!("bad content-length `{value}`")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                closing = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| io_err("read body", e))?;
        let body = String::from_utf8(body)
            .map_err(|_| DataError::Serve("non-utf8 response body".into()))?;
        Ok(ClientResponse {
            status,
            body,
            closing,
        })
    }
}
