//! The load generator's side of the wire: a minimal keep-alive HTTP/1.1
//! client that can pipeline, and the `xinsight-serve` child process.

use crate::util::{Ctx, Res};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Encodes a request with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The reading half of a connection: frames responses in order.
pub struct Reader(BufReader<TcpStream>);

impl Reader {
    /// Reads one response into `body`, returning its status.
    pub fn recv(&mut self, body: &mut Vec<u8>) -> Res<u16> {
        let mut line = String::new();
        if self.0.read_line(&mut line).ctx("reading status line")? == 0 {
            return Err("connection closed by server".into());
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.0.read_line(&mut line).ctx("reading header")?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ctx("content-length")?;
                }
            }
        }
        body.clear();
        body.resize(length, 0);
        self.0.read_exact(body).ctx("reading body")?;
        Ok(status)
    }
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: Reader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let stream = TcpStream::connect(addr).ctx("connecting")?;
        stream.set_nodelay(true).ctx("TCP_NODELAY")?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .ctx("read timeout")?;
        let reader = Reader(BufReader::new(stream.try_clone().ctx("cloning socket")?));
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    pub fn send(&mut self, request: &[u8]) -> Res<()> {
        self.writer.write_all(request).ctx("sending request")
    }

    pub fn call(&mut self, request: &[u8], body: &mut Vec<u8>) -> Res<u16> {
        self.send(request)?;
        self.reader.recv(body)
    }

    /// Splits into a writer and a reader so one thread can send on a
    /// schedule while another collects the (in-order) responses.
    pub fn split(self) -> (TcpStream, Reader) {
        (self.writer, self.reader)
    }
}

/// A running `xinsight-serve` process.  Dropping it kills and reaps the
/// process, so no exit path of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    /// Held open so the server's exit banner never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server over a models directory and waits until
    /// `/healthz` answers.
    pub fn spawn(bin: &Path, models: &Path, cache_mb: usize, compact_after: usize) -> Res<Server> {
        let mut child = Command::new(bin)
            .arg("--models")
            .arg(models)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--cache-mb", &cache_mb.to_string()])
            .args(["--compact-after", &compact_after.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = match (read, addr) {
            (Ok(_), Some(addr)) => Server {
                child,
                _stdout: stdout,
                addr,
            },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no listening banner: {banner:?}"));
            }
        };
        server.wait_healthy()?;
        Ok(server)
    }

    // thread::sleep allowed: a client-side readiness poll (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    fn wait_healthy(&mut self) -> Res<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = self.request(&get("/healthz")) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a fresh connection.
    pub fn request(&self, request: &[u8]) -> Res<(u16, String)> {
        let mut conn = Conn::connect(self.addr)?;
        let mut body = Vec::new();
        let status = conn.call(request, &mut body)?;
        Ok((
            status,
            String::from_utf8(body).ctx("response is not UTF-8")?,
        ))
    }

    /// Scrapes `/metrics` into `name{labels} -> value`.
    pub fn scrape(&self) -> Res<BTreeMap<String, f64>> {
        let (status, text) = self.request(&get("/metrics"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    pub fn vm_hwm_mb(&self) -> Res<f64> {
        crate::util::vm_hwm_mb(&self.child.id().to_string())
    }

    /// CPU time (ns) the server has run so far, all threads.
    pub fn cpu_ns(&self) -> Res<u64> {
        crate::util::cpu_ns(Some(self.child.id()))
    }

    /// Graceful shutdown; the server must exit 0.
    // thread::sleep allowed: a client-side poll for the child's exit.
    #[allow(clippy::disallowed_methods)]
    pub fn shutdown(mut self) -> Res<()> {
        let _ = self.request(&post("/admin/shutdown", "{}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().ctx("waiting for server")? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("server did not shut down".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
