//! The load generator's HTTP/1.1 client: keep-alive connections that can
//! pipeline (write many requests, read the responses in order), plus the
//! `arbx serve` process handle every workload starts its nodes with.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use arbitrex_server::json::{self, Json};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Resp {
    pub status: u16,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Resp {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    pub fn json(&self) -> Result<Json, String> {
        json::parse(self.text())
    }
}

/// Wire bytes of one keep-alive request.
pub fn request_bytes(
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    let body = body.unwrap_or("");
    out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    out.into_bytes()
}

/// Parse one `Content-Length` response from the front of `buf`.
fn parse_response(buf: &[u8]) -> Result<Option<(Resp, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut headers = Vec::new();
    let mut length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().to_ascii_lowercase();
            let v = v.trim().to_string();
            if k == "content-length" {
                length = v.parse().map_err(|_| "bad content-length")?;
            }
            if k == "transfer-encoding" {
                return Err("chunked responses are not expected here".to_string());
            }
            headers.push((k, v));
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Some((
        Resp {
            status,
            headers,
            body,
        },
        total,
    )))
}

/// A keep-alive client connection with its own receive buffer, so it can
/// read with a timeout and resume mid-response.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn take_buffered(&mut self) -> io::Result<Option<Resp>> {
        match parse_response(&self.buf).map_err(io::Error::other)? {
            Some((resp, used)) => {
                self.buf.drain(..used);
                Ok(Some(resp))
            }
            None => Ok(None),
        }
    }

    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16384];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The next response, waiting at most `timeout` for more bytes.
    pub fn try_recv(&mut self, timeout: Duration) -> io::Result<Option<Resp>> {
        if let Some(resp) = self.take_buffered()? {
            return Ok(Some(resp));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(20))))?;
        if self.fill()? {
            return self.take_buffered();
        }
        Ok(None)
    }

    /// The next response, blocking (with a generous safety timeout).
    pub fn recv(&mut self) -> io::Result<Resp> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(resp) = self.try_recv(Duration::from_millis(200))? {
                return Ok(resp);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "no response in 30 s"));
            }
        }
    }

    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> io::Result<Resp> {
        self.send(&request_bytes(method, path, body, headers))?;
        self.recv()
    }
}

/// One request on a fresh connection.
pub fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Resp> {
    Conn::connect(addr)?.call(method, path, body, &[])
}

/// A node's `/metrics` document.
pub fn metrics(addr: &str) -> Result<Json, String> {
    let resp =
        call(addr, "GET", "/metrics", None).map_err(|e| format!("GET /metrics at {addr}: {e}"))?;
    resp.json()
}

/// A numeric member by dotted path (`telemetry.cache.cache_hits`); absent
/// members read 0.
pub fn num(doc: &Json, path: &str) -> f64 {
    let mut cur = doc;
    for key in path.split('.') {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// `after − before` of one counter summed over nodes' snapshots.
pub fn delta(before: &[Json], after: &[Json], path: &str) -> f64 {
    after.iter().map(|d| num(d, path)).sum::<f64>()
        - before.iter().map(|d| num(d, path)).sum::<f64>()
}

/// A running `arbx serve` process.
pub struct Node {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Launch to the `listening on` line.
    pub startup: Duration,
    /// Everything the server printed before it listened.
    pub banner: Vec<String>,
}

impl Node {
    pub fn start(arbx: &Path, args: &[String]) -> Result<Node, String> {
        let launched = Instant::now();
        let mut child = Command::new(arbx)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", arbx.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = Vec::new();
        loop {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "arbx serve {args:?} exited before listening: {banner:?}"
                ));
            }
            let line = line.trim_end().to_string();
            if let Some(rest) = line.strip_prefix("arbitrex-server listening on ") {
                let addr = rest.split(' ').next().unwrap_or("").to_string();
                banner.push(line);
                return Ok(Node {
                    child,
                    _stdout: stdout,
                    addr,
                    startup: launched.elapsed(),
                    banner,
                });
            }
            banner.push(line);
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// A field `key=value` from the recovery banner, if the node printed one.
    pub fn banner_field(&self, key: &str) -> Option<u64> {
        let pat = format!("{key}=");
        self.banner.iter().find_map(|l| {
            let at = l.find(&pat)? + pat.len();
            l[at..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse().ok())
        })
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
