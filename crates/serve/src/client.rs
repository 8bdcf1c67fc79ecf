//! A tiny blocking HTTP client — the mirror image of [`crate::http`],
//! used by the `serve` bin's client mode, the benchmark and the service
//! tests so nothing in the workspace needs `curl`.
//!
//! One request per connection, matching the server's
//! `Connection: close` contract.

use crate::json::parse_json;
use linvar_metrics::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed server response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Parsed JSON body (the whole API speaks JSON).
    pub body: Json,
    /// `Retry-After` seconds, when the server sent the header.
    pub retry_after: Option<u64>,
}

impl ClientResponse {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one request and reads the response. `timeout` bounds connect,
/// read, and write individually.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: Duration,
) -> Result<ClientResponse, String> {
    let sock_addr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let body_text = body.map(Json::render).unwrap_or_default();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body_text.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body_text.as_bytes()))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<ClientResponse, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header/body separator".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut retry_after = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse::<u64>().ok();
            }
        }
    }
    let body = parse_json(body.as_bytes()).map_err(|e| format!("response body: {e}"))?;
    Ok(ClientResponse {
        status,
        body,
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_retry_after() {
        let mut raw = Vec::new();
        crate::http::Response::error(429, "full")
            .with_retry_after(2)
            .write_to(&mut raw)
            .unwrap();
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(2));
        assert!(!resp.ok());
        use crate::json::JsonGet;
        assert_eq!(resp.body.get_str("error"), Some("full"));
    }
}
