//! A minimal HTTP/1.1 codec for the evaluation workloads.
//!
//! The paper's service-startup experiment measures end-to-end HTTP request
//! latency against freshly summoned unikernels (Figure 9a), and the
//! throughput experiment serves an HTTP persistent queue from disk (§4).
//! This module implements just enough of HTTP/1.1 — request line, headers,
//! `Content-Length` bodies — to drive those workloads realistically.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::{NetError, Result};
use std::collections::BTreeMap;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (GET, POST, …).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Body bytes: a view into the received buffer.
    pub body: FrameBuf,
}

impl HttpRequest {
    /// Build a GET request with a Host header.
    pub fn get(path: &str, host: &str) -> HttpRequest {
        let mut headers = BTreeMap::new();
        headers.insert("host".to_string(), host.to_string());
        HttpRequest {
            method: "GET".to_string(),
            path: path.to_string(),
            headers,
            body: FrameBuf::empty(),
        }
    }

    /// Build a POST request with a body.
    pub fn post(path: &str, host: &str, body: impl Into<FrameBuf>) -> HttpRequest {
        let body = body.into();
        let mut headers = BTreeMap::new();
        headers.insert("host".to_string(), host.to_string());
        headers.insert("content-length".to_string(), body.len().to_string());
        HttpRequest {
            method: "POST".to_string(),
            path: path.to_string(),
            headers,
            body,
        }
    }

    /// Serialise to wire bytes: the length is computed first, so the
    /// message is written once into a buffer of exactly that size.
    pub fn emit(&self) -> FrameBuf {
        let request_line = [
            self.method.as_bytes(),
            b" ",
            self.path.as_bytes(),
            b" HTTP/1.1\r\n",
        ];
        emit_message(&request_line, &self.headers, &self.body)
    }

    /// Parse from wire bytes. Returns `Ok(None)` if the buffer does not yet
    /// contain a complete request (headers plus declared body). The body is
    /// an O(1) view sharing `buf`'s allocation.
    pub fn parse(buf: &FrameBuf) -> Result<Option<HttpRequest>> {
        let Some((head, body_start)) = split_head(buf) else {
            return Ok(None);
        };
        let text = String::from_utf8_lossy(head);
        let mut lines = text.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or_default().to_string();
        let path = parts.next().unwrap_or_default().to_string();
        let version = parts.next().unwrap_or_default();
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(NetError::Malformed {
                layer: "http",
                what: format!("bad request line: {request_line:?}"),
            });
        }
        let headers = parse_headers(lines)?;
        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if buf.len() < body_start + content_length {
            return Ok(None);
        }
        Ok(Some(HttpRequest {
            method,
            path,
            headers,
            body: buf.slice(body_start..body_start + content_length),
        }))
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Body bytes: a view into the received buffer.
    pub body: FrameBuf,
}

impl HttpResponse {
    /// A 200 OK response with a body.
    pub fn ok(body: impl Into<FrameBuf>) -> HttpResponse {
        HttpResponse::with_status(200, "OK", body)
    }

    /// A 404 Not Found response.
    pub fn not_found() -> HttpResponse {
        HttpResponse::with_status(404, "Not Found", b"not found\n".to_vec())
    }

    /// A 503 Service Unavailable response (what a loaded Jitsu host returns
    /// when it cannot summon another unikernel).
    pub fn unavailable() -> HttpResponse {
        HttpResponse::with_status(503, "Service Unavailable", b"try another host\n".to_vec())
    }

    /// Build a response with an arbitrary status.
    pub fn with_status(status: u16, reason: &str, body: impl Into<FrameBuf>) -> HttpResponse {
        let body = body.into();
        let mut headers = BTreeMap::new();
        headers.insert("content-length".to_string(), body.len().to_string());
        headers.insert("connection".to_string(), "keep-alive".to_string());
        HttpResponse {
            status,
            reason: reason.to_string(),
            headers,
            body,
        }
    }

    /// Serialise to wire bytes: the length is computed first, so the
    /// message is written once into a buffer of exactly that size.
    pub fn emit(&self) -> FrameBuf {
        let (digits, start) = decimal(self.status);
        let status_line = [
            b"HTTP/1.1 ",
            &digits[start..],
            b" ",
            self.reason.as_bytes(),
            b"\r\n",
        ];
        emit_message(&status_line, &self.headers, &self.body)
    }

    /// Parse from wire bytes; `Ok(None)` when incomplete. The body is an
    /// O(1) view sharing `buf`'s allocation.
    pub fn parse(buf: &FrameBuf) -> Result<Option<HttpResponse>> {
        let Some((head, body_start)) = split_head(buf) else {
            return Ok(None);
        };
        let text = String::from_utf8_lossy(head);
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        let status: u16 =
            parts
                .next()
                .unwrap_or_default()
                .parse()
                .map_err(|_| NetError::Malformed {
                    layer: "http",
                    what: format!("bad status line: {status_line:?}"),
                })?;
        if !version.starts_with("HTTP/1.") {
            return Err(NetError::Malformed {
                layer: "http",
                what: format!("bad version in: {status_line:?}"),
            });
        }
        let reason = parts.next().unwrap_or_default().to_string();
        let headers = parse_headers(lines)?;
        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if buf.len() < body_start + content_length {
            return Ok(None);
        }
        Ok(Some(HttpResponse {
            status,
            reason,
            headers,
            body: buf.slice(body_start..body_start + content_length),
        }))
    }
}

/// The decimal digits of `n`, right-aligned in the returned array from the
/// returned index on.
fn decimal(mut n: u16) -> ([u8; 5], usize) {
    let mut digits = [b'0'; 5];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b"0123456789"[usize::from(n % 10)];
        n /= 10;
        if n == 0 {
            return (digits, start);
        }
    }
}

/// Write `first_line` (its pieces in order), the headers, the blank line
/// and the body into one buffer sized up front.
fn emit_message(
    first_line: &[&[u8]],
    headers: &BTreeMap<String, String>,
    body: &FrameBuf,
) -> FrameBuf {
    let first_line_len: usize = first_line.iter().map(|piece| piece.len()).sum();
    let headers_len: usize = headers
        .iter()
        .map(|(k, v)| k.len() + b": ".len() + v.len() + b"\r\n".len())
        .sum();
    let mut out =
        FrameBufMut::with_capacity(first_line_len + headers_len + b"\r\n".len() + body.len());
    for piece in first_line {
        out.extend_from_slice(piece);
    }
    for (k, v) in headers {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out.freeze()
}

/// Split a buffer at the `\r\n\r\n` header terminator, returning the header
/// block and the index where the body starts.
fn split_head(buf: &[u8]) -> Option<(&[u8], usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|idx| (&buf[..idx], idx + 4))
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<BTreeMap<String, String>> {
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| NetError::Malformed {
            layer: "http",
            what: format!("bad header line: {line:?}"),
        })?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(headers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::get("/photos/cat.jpg", "alice.family.name");
        let parsed = HttpRequest::parse(&req.emit()).unwrap().unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.headers["host"], "alice.family.name");
    }

    #[test]
    fn post_with_body_round_trip() {
        let req = HttpRequest::post("/queue", "q.local", b"item-1".to_vec());
        let emitted = req.emit();
        let parsed = HttpRequest::parse(&emitted).unwrap().unwrap();
        assert_eq!(parsed.body, b"item-1");
        assert!(parsed.body.shares_allocation(&emitted));
        assert_eq!(parsed.headers["content-length"], "6");
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::ok(b"<html>hello</html>".to_vec());
        let parsed = HttpResponse::parse(&resp.emit()).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.status, 200);
        let nf = HttpResponse::not_found();
        assert_eq!(
            HttpResponse::parse(&nf.emit()).unwrap().unwrap().status,
            404
        );
        let un = HttpResponse::unavailable();
        assert_eq!(
            HttpResponse::parse(&un.emit()).unwrap().unwrap().status,
            503
        );
    }

    #[test]
    fn incomplete_messages_return_none() {
        let req = HttpRequest::post("/q", "h", vec![0; 100]);
        let bytes = req.emit();
        // Headers not yet complete.
        assert_eq!(HttpRequest::parse(&bytes.slice(..10)).unwrap(), None);
        // Headers complete but body still streaming.
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(
            HttpRequest::parse(&bytes.slice(..head_end + 10)).unwrap(),
            None
        );
        // Same for responses.
        let resp = HttpResponse::ok(vec![0; 50]);
        let rbytes = resp.emit();
        assert_eq!(
            HttpResponse::parse(&rbytes.slice(..rbytes.len() - 1)).unwrap(),
            None
        );
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(HttpRequest::parse(&b"NOT A REQUEST\r\n\r\n".into()).is_err());
        assert!(HttpRequest::parse(&b"GET /x SPDY/9\r\n\r\n".into()).is_err());
        assert!(HttpRequest::parse(&b"GET / HTTP/1.1\r\nbadheader\r\n\r\n".into()).is_err());
        assert!(HttpResponse::parse(&b"HTTP/1.1 abc OK\r\n\r\n".into()).is_err());
        assert!(HttpResponse::parse(&b"ICY 200 OK\r\n\r\n".into()).is_err());
    }

    #[test]
    fn headers_are_case_insensitive() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nok";
        let parsed = HttpRequest::parse(&raw.into()).unwrap().unwrap();
        assert_eq!(parsed.headers["host"], "x");
        assert_eq!(parsed.body, b"ok");
    }
}
