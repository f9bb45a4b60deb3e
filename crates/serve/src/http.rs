//! Minimal HTTP/1.1 over [`std::net::TcpStream`]: exactly what the
//! daemon's JSON API needs, with hard limits on hostile input.
//!
//! Supported: `GET`/`POST`, `Content-Length` bodies, keep-alive with
//! `Connection: close` opt-out. Not supported (rejected cleanly):
//! chunked transfer encoding, `Expect: 100-continue`, upgrades.
//!
//! Requests are read with a short socket timeout in a loop so a worker
//! blocked on an idle keep-alive connection notices a server drain
//! quickly; a *started* request gets a grace deadline to finish arriving
//! before it counts as a slow-loris and the connection is dropped.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Maximum bytes of request line + headers.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum body bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// Every socket timeout the daemon and its client use, in one place.
/// The defaults are the values the constants used to hard-code; tests
/// shrink them to keep slow-loris scenarios fast.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Socket read timeout per poll; drain responsiveness bound.
    pub poll: Duration,
    /// How long a started request may take to finish arriving.
    pub request_deadline: Duration,
    /// Client side: how long to wait for a response before giving up.
    pub response_timeout: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            poll: Duration::from_millis(25),
            request_deadline: Duration::from_secs(5),
            response_timeout: Duration::from_secs(30),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed (or never sent anything) — not an error, just done.
    Closed,
    /// Server is draining and no request had started arriving.
    Draining,
    /// The head exceeded [`MAX_HEAD`] → respond 431.
    HeadTooLarge,
    /// The declared body exceeds [`MAX_BODY`] → respond 413.
    BodyTooLarge,
    /// Malformed request line / headers / Content-Length → respond 400.
    Malformed(&'static str),
    /// A started request did not finish inside [`Timing::request_deadline`].
    TimedOut,
    /// Transport error.
    Io(io::Error),
}

/// Read one request. `draining` aborts idle waits between requests (the
/// keep-alive case); a request whose first byte has arrived is always
/// read to completion (or its deadline).
///
/// The caller sets `stream`'s read timeout to [`Timing::poll`] once per
/// connection: each read then wakes at least that often to check the
/// drain flag and the request deadline.
pub fn read_request(
    stream: &mut TcpStream,
    draining: &AtomicBool,
    timing: &Timing,
) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut started_at: Option<Instant> = None;
    // Phase 1: accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadError::HeadTooLarge);
        }
        if let Some(t0) = started_at {
            if t0.elapsed() > timing.request_deadline {
                return Err(ReadError::TimedOut);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    ReadError::Closed
                } else {
                    ReadError::Malformed("connection closed mid-request")
                });
            }
            Ok(n) => {
                if started_at.is_none() {
                    started_at = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if started_at.is_none() && draining.load(Ordering::Relaxed) {
                    return Err(ReadError::Draining);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed("bad request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("bad request line"));
    }
    let path = target.split('?').next().unwrap_or("").to_string();
    if path.is_empty() || !path.starts_with('/') {
        return Err(ReadError::Malformed("bad request target"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed("chunked bodies not supported"));
    }
    let content_length = match header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed("bad Content-Length"))?,
    };
    if content_length > MAX_BODY {
        return Err(ReadError::BodyTooLarge);
    }
    // Phase 2: the body. Bytes already buffered past the head belong to it.
    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    let deadline = started_at.unwrap_or_else(Instant::now);
    while body.len() < content_length {
        if deadline.elapsed() > timing.request_deadline {
            return Err(ReadError::TimedOut);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_string(),
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one `application/json` response. `extra` headers are emitted
/// verbatim (e.g. `Retry-After`); `close` controls the `Connection`
/// header.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    respond_typed(stream, status, "application/json", extra, body, close)
}

/// [`respond`] with an explicit `Content-Type` — the `/metrics` endpoint
/// speaks Prometheus text exposition, not JSON.
pub fn respond_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write: head + body split across two segments trips Nagle vs
    // delayed-ACK (~40ms per response) on loopback keep-alive traffic.
    head.push_str(body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for s in [200, 400, 404, 405, 408, 413, 422, 431, 500, 503] {
            assert_ne!(reason(s), "Unknown", "{s}");
        }
    }
}
