//! A minimal HTTP/1.1 codec for the evaluation workloads.
//!
//! The paper's service-startup experiment measures end-to-end HTTP request
//! latency against freshly summoned unikernels (Figure 9a), and the
//! throughput experiment serves an HTTP persistent queue from disk (§4).
//! This module implements just enough of HTTP/1.1 — request line, headers,
//! `Content-Length` bodies — to drive those workloads realistically.
//!
//! A message is its head bytes, where its first-line fields lie in them,
//! and its body. A built head is written once; a parsed one is a view.

use crate::buf::{FrameBuf, FrameBufMut};
use crate::{NetError, Result};
use std::ops::Range;

/// A built response's headers, in name order as they always went out, up
/// to the Content-Length value.
const RESPONSE_HEADERS: &str = "\r\nconnection: keep-alive\r\ncontent-length: ";

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request line and headers, through the blank line.
    head: FrameBuf,
    /// Where the method lies in `head`.
    method: Range<usize>,
    /// Where the path lies in `head`.
    path: Range<usize>,
    /// Body bytes: a view into the received buffer.
    pub body: FrameBuf,
}

impl HttpRequest {
    /// Build a GET request with a Host header.
    pub fn get(path: &str, host: &str) -> HttpRequest {
        let (head, [method, _, path, ..]) =
            write_head(["GET", " ", path, " HTTP/1.1\r\nhost: ", host]);
        HttpRequest {
            head,
            method,
            path,
            body: FrameBuf::empty(),
        }
    }

    /// Build a POST request with a body.
    pub fn post(path: &str, host: &str, body: impl Into<FrameBuf>) -> HttpRequest {
        let body = body.into();
        let mut digits = [0; 20];
        let length = decimal(body.len(), &mut digits);
        // The headers go out in name order, as they always have.
        let (head, [method, _, path, ..]) = write_head([
            "POST",
            " ",
            path,
            " HTTP/1.1\r\ncontent-length: ",
            length,
            "\r\nhost: ",
            host,
        ]);
        HttpRequest {
            head,
            method,
            path,
            body,
        }
    }

    /// The method (GET, POST, …).
    pub fn method(&self) -> &str {
        field(&self.head, &self.method)
    }

    /// The request path.
    pub fn path(&self) -> &str {
        field(&self.head, &self.path)
    }

    /// The trimmed value of the last header called `name`, compared without
    /// regard to ASCII case. Decodes the head on every call.
    pub fn header(&self, name: &str) -> Option<&str> {
        last_header(&self.head, name)
    }

    /// Serialise to wire bytes: the head as written, then the body.
    pub fn emit(&self) -> FrameBuf {
        FrameBuf::concat(&[self.head.clone(), self.body.clone()])
    }

    /// Parse from wire bytes. Returns `Ok(None)` if the buffer does not yet
    /// contain a complete request (headers plus declared body). The head and
    /// body are O(1) views sharing `buf`'s allocation.
    pub fn parse(buf: &FrameBuf) -> Result<Option<HttpRequest>> {
        let Some(text) = head_text(buf)? else {
            return Ok(None);
        };
        let (line, _) = text.split_once("\r\n").unwrap_or_default();
        let mut tokens = line.split_whitespace();
        let method = tokens.next().unwrap_or_default();
        let path = tokens.next().unwrap_or_default();
        let version = tokens.next().unwrap_or_default();
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(malformed(format!("bad request line: {line:?}")));
        }
        let Some(body) = body_after(buf, text)? else {
            return Ok(None);
        };
        Ok(Some(HttpRequest {
            head: buf.slice(..text.len()),
            method: range_in(text, method),
            path: range_in(text, path),
            body,
        }))
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code, as the head was built or parsed with. `emit()` writes
    /// the head, not this field: setting it does not change the code sent.
    pub status: u16,
    /// The status line and headers, through the blank line.
    head: FrameBuf,
    /// Where the reason phrase lies in `head`.
    reason: Range<usize>,
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
        HttpResponse::with_status(404, "Not Found", b"not found\n")
    }

    /// A 503 Service Unavailable response (what a loaded Jitsu host returns
    /// when it cannot summon another unikernel).
    pub fn unavailable() -> HttpResponse {
        HttpResponse::with_status(503, "Service Unavailable", b"try another host\n")
    }

    /// Build a response with an arbitrary status.
    pub fn with_status(status: u16, reason: &str, body: impl Into<FrameBuf>) -> HttpResponse {
        let body = body.into();
        let mut code_digits = [0; 20];
        let code = decimal(status.into(), &mut code_digits);
        let mut length_digits = [0; 20];
        let length = decimal(body.len(), &mut length_digits);
        let (head, [_, _, _, reason, ..]) =
            write_head(["HTTP/1.1 ", code, " ", reason, RESPONSE_HEADERS, length]);
        HttpResponse {
            status,
            head,
            reason,
            body,
        }
    }

    /// The reason phrase.
    pub fn reason(&self) -> &str {
        field(&self.head, &self.reason)
    }

    /// As [`HttpRequest::header`].
    pub fn header(&self, name: &str) -> Option<&str> {
        last_header(&self.head, name)
    }

    /// Serialise to wire bytes: the head as written, then the body.
    pub fn emit(&self) -> FrameBuf {
        FrameBuf::concat(&[self.head.clone(), self.body.clone()])
    }

    /// Parse from wire bytes; `Ok(None)` when incomplete. The head and body
    /// are O(1) views sharing `buf`'s allocation.
    pub fn parse(buf: &FrameBuf) -> Result<Option<HttpResponse>> {
        let Some(text) = head_text(buf)? else {
            return Ok(None);
        };
        let (line, _) = text.split_once("\r\n").unwrap_or_default();
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        let code = parts.next().unwrap_or_default();
        // No reason phrase: the empty text at the end of the line.
        let reason = parts.next().unwrap_or(&line[line.len()..]);
        let Ok(status) = code.parse() else {
            return Err(malformed(format!("bad status line: {line:?}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(malformed(format!("bad version in: {line:?}")));
        }
        let Some(body) = body_after(buf, text)? else {
            return Ok(None);
        };
        Ok(Some(HttpResponse {
            status,
            head: buf.slice(..text.len()),
            reason: range_in(text, reason),
            body,
        }))
    }
}

/// Write `pieces` and the blank line that ends a head into one buffer sized
/// up front. Returns the head and where each piece lies in it.
fn write_head<const N: usize>(pieces: [&str; N]) -> (FrameBuf, [Range<usize>; N]) {
    let len: usize = pieces.iter().map(|piece| piece.len()).sum();
    let mut head = FrameBufMut::with_capacity(len + "\r\n\r\n".len());
    let ranges = pieces.map(|piece| {
        let start = head.len();
        head.extend_from_slice(piece.as_bytes());
        start..head.len()
    });
    head.extend_from_slice(b"\r\n\r\n");
    (head.freeze(), ranges)
}

/// The head at the front of `buf`, through its blank line, checked to be
/// UTF-8; `Ok(None)` until the blank line has arrived.
fn head_text(buf: &[u8]) -> Result<Option<&str>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    match std::str::from_utf8(&buf[..end + 4]) {
        Ok(text) => Ok(Some(text)),
        Err(e) => Err(malformed(format!("head is not UTF-8: {e}"))),
    }
}

/// The body after `head` in `buf`, as long as the last Content-Length says
/// (none, or not a number: empty); `Ok(None)` until all of it has arrived.
fn body_after(buf: &FrameBuf, head: &str) -> Result<Option<FrameBuf>> {
    let mut content_length = 0;
    for header in header_lines(head) {
        let (name, value) = header?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().unwrap_or(0);
        }
    }
    let end = head.len().saturating_add(content_length);
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some(buf.slice(head.len()..end)))
}

/// A head's header lines, split at the first colon into trimmed names and values.
fn header_lines(head: &str) -> impl Iterator<Item = Result<(&str, &str)>> {
    let lines = head.split("\r\n").skip(1).filter(|line| !line.is_empty());
    lines.map(|line| match line.split_once(':') {
        Some((name, value)) => Ok((name.trim(), value.trim())),
        None => Err(malformed(format!("bad header line: {line:?}"))),
    })
}

/// The value of the last header in `head` called `name`, in any ASCII case.
fn last_header<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    let text = std::str::from_utf8(head).ok()?;
    let named = header_lines(text).flatten();
    let (_, value) = named.filter(|(n, _)| n.eq_ignore_ascii_case(name)).last()?;
    Some(value)
}

/// The text at `range` in a head: only the field's own bytes are decoded.
/// `parse` checked the head is UTF-8 (a built one was written from `&str`s)
/// and cut `range` at character boundaries.
fn field<'a>(head: &'a [u8], range: &Range<usize>) -> &'a str {
    std::str::from_utf8(&head[range.clone()]).unwrap_or_default()
}

/// Where `part`, a slice of `text`, lies in it.
fn range_in(text: &str, part: &str) -> Range<usize> {
    let start = part.as_ptr() as usize - text.as_ptr() as usize;
    start..start + part.len()
}

fn malformed(what: String) -> NetError {
    NetError::Malformed {
        layer: "http",
        what,
    }
}

/// `n` in decimal, written into the end of `digits` (twenty hold any `usize`).
fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &str {
    let mut start = digits.len();
    while start == digits.len() || n > 0 {
        start -= 1;
        digits[start] = b"0123456789"[n % 10];
        n /= 10;
    }
    std::str::from_utf8(&digits[start..]).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(raw: &[u8]) -> Result<Option<HttpRequest>> {
        HttpRequest::parse(&raw.into())
    }

    fn response(raw: &[u8]) -> Result<Option<HttpResponse>> {
        HttpResponse::parse(&raw.into())
    }

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::get("/photos/cat.jpg", "alice.family.name");
        let emitted = req.emit();
        assert!(emitted.shares_allocation(&req.emit()), "the head, no copy");
        let parsed = request(&emitted).unwrap().unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.method(), "GET");
        assert_eq!(parsed.path(), "/photos/cat.jpg");
        assert_eq!(parsed.header("host"), Some("alice.family.name"));
    }

    #[test]
    fn post_with_body_round_trip() {
        let req = HttpRequest::post("/queue", "q.local", b"item-1".to_vec());
        let emitted = req.emit();
        let parsed = HttpRequest::parse(&emitted).unwrap().unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.header("content-length"), Some("6"));
        assert_eq!(parsed.body, b"item-1");
        assert!(parsed.body.shares_allocation(&emitted));
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::ok(b"<html>hello</html>".to_vec());
        let parsed = response(&resp.emit()).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.reason(), "OK");
        assert_eq!(parsed.header("Connection"), Some("keep-alive"));
        for (built, status) in [
            (HttpResponse::not_found(), 404),
            (HttpResponse::unavailable(), 503),
        ] {
            assert_eq!(response(&built.emit()).unwrap().unwrap().status, status);
        }
    }

    #[test]
    fn incomplete_messages_return_none() {
        let bytes = HttpRequest::post("/q", "h", vec![0; 100]).emit();
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        // Headers not yet complete, then the body still streaming.
        for cut in [10, head_end + 10] {
            assert_eq!(request(&bytes[..cut]).unwrap(), None);
        }
        let bytes = HttpResponse::ok(vec![0; 50]).emit();
        assert_eq!(response(&bytes[..bytes.len() - 1]).unwrap(), None);
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(request(b"NOT A REQUEST\r\n\r\n").is_err());
        assert!(request(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(request(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(response(b"ICY 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn a_head_that_is_not_utf8_is_malformed() {
        // It used to be decoded lossily, U+FFFD in place of each bad byte.
        let err = request(b"GET /caf\xe9 HTTP/1.1\r\n\r\n").unwrap_err();
        assert!(matches!(err, NetError::Malformed { layer: "http", .. }));
        assert!(response(b"HTTP/1.1 200 \xff\r\n\r\n").is_err());
        // Only the head is text: the body may hold any bytes.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe";
        assert_eq!(request(raw).unwrap().unwrap().body, b"\xff\xfe");
    }

    #[test]
    fn headers_are_case_insensitive() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nok";
        let parsed = request(raw).unwrap().unwrap();
        assert_eq!(parsed.header("host"), Some("x"));
        assert_eq!(parsed.header("HOST"), Some("x"));
        assert_eq!(parsed.body, b"ok");
    }

    #[test]
    fn the_last_duplicate_header_wins_and_values_are_trimmed() {
        let raw = b"GET / HTTP/1.1\r\nA:  1 \r\na:\t2 \r\nContent-Length: 1\r\ncontent-length: 3\r\n\r\nabc";
        let parsed = request(raw).unwrap().unwrap();
        assert_eq!(parsed.header("A"), Some("2"));
        assert_eq!(parsed.header("B"), None);
        assert_eq!(parsed.body, b"abc", "the last Content-Length counts");
    }

    #[test]
    fn request_line_tokens_split_on_whitespace() {
        let parsed = request(b" PUT \t/a HTTP/1.0 x\r\n\r\n").unwrap().unwrap();
        assert_eq!(parsed.method(), "PUT");
        assert_eq!(parsed.path(), "/a");
    }
}
