//! Hand-rolled HTTP/1.1 wire handling: incremental request parsing and
//! response encoding.
//!
//! The gateway speaks the small, boring subset of HTTP/1.1 that a sampling
//! frontend needs — request line + headers + `Content-Length` bodies on the
//! way in; fixed-length or `Transfer-Encoding: chunked` responses on the
//! way out; keep-alive connection reuse. Everything is bounded: header
//! block, header count, and body size all have hard caps so a misbehaving
//! client cannot balloon the server's memory.
//!
//! Parsing is **incremental and non-blocking by construction**: the
//! readiness-loop server appends whatever bytes the socket had into a
//! per-connection buffer and asks [`RequestParser::parse`] whether a
//! complete request is in there yet. The parser never does I/O, so the
//! same code is exercised byte-for-byte by unit tests, the event loop,
//! and any future transport.

use crate::json::Json;
use std::io::{self, Write};

/// Maximum bytes accepted for the request line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Terminating frame of a chunked response body (zero-length chunk, no
/// trailers).
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless a `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.0 (changes the keep-alive default).
    pub http10: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response
    /// (`Connection` header, falling back to the HTTP-version default).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.http10,
        }
    }

    /// The path split into non-empty `/`-separated segments.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why buffered bytes can never become a valid request.
///
/// Both variants are fatal to the connection; "not enough bytes yet" is
/// not an error but [`Parse::Incomplete`]. I/O-level conditions (EOF,
/// timeouts) are the transport's business, not the parser's — which is
/// also what keeps `WouldBlock`-vs-`TimedOut` platform drift out of the
/// parsing layer entirely (see [`is_idle_timeout`]).
#[derive(Debug)]
pub enum RequestError {
    /// The bytes on the wire are not a well-formed HTTP/1.x request.
    Malformed(&'static str),
    /// The request exceeded a size bound (header block or body).
    TooLarge(&'static str),
}

/// One [`RequestParser::parse`] verdict over a byte buffer.
#[derive(Debug)]
pub enum Parse {
    /// No complete request yet — read more bytes and parse again.
    Incomplete,
    /// A complete request occupying the first `consumed` buffer bytes
    /// (strip them before parsing the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request consumed, including any
        /// tolerated stray CRLFs before the request line.
        consumed: usize,
    },
}

/// Incremental HTTP/1.1 request parser.
///
/// Stateless between calls: feed it the connection's *entire* unconsumed
/// buffer each time. Cheap in practice — requests are small and the scan
/// restarts only while a request is still arriving.
#[derive(Debug, Clone, Copy)]
pub struct RequestParser {
    max_body: usize,
}

impl RequestParser {
    /// A parser that rejects bodies larger than `max_body` with
    /// [`RequestError::TooLarge`] (without ever buffering them).
    pub fn new(max_body: usize) -> Self {
        RequestParser { max_body }
    }

    /// Tries to parse one complete request from the front of `buf`.
    pub fn parse(&self, buf: &[u8]) -> Result<Parse, RequestError> {
        // Tolerate (bounded) stray CRLFs between keep-alive requests, as
        // RFC 9112 recommends.
        let start = buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        if start > 8 {
            return Err(RequestError::Malformed("empty request line"));
        }
        if start == buf.len() {
            return Ok(Parse::Incomplete);
        }

        // The header block ends at the first empty line.
        let Some(head_end) = find_head_end(&buf[start..]).map(|e| start + e) else {
            if buf.len() - start > MAX_HEADER_BYTES {
                return Err(RequestError::TooLarge("header block too large"));
            }
            return Ok(Parse::Incomplete);
        };
        if head_end - start > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("header block too large"));
        }
        let head = std::str::from_utf8(&buf[start..head_end])
            .map_err(|_| RequestError::Malformed("non-UTF-8 header bytes"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

        // Request line.
        let line = lines.next().unwrap_or("");
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let method = parts
            .next()
            .ok_or(RequestError::Malformed("missing method"))?
            .to_string();
        let target = parts
            .next()
            .ok_or(RequestError::Malformed("missing request target"))?;
        let version = parts
            .next()
            .ok_or(RequestError::Malformed("missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(RequestError::Malformed("malformed request line"));
        }
        let http10 = match version {
            "HTTP/1.1" => false,
            "HTTP/1.0" => true,
            _ => return Err(RequestError::Malformed("unsupported HTTP version")),
        };
        if !method.chars().all(|c| c.is_ascii_alphabetic()) {
            return Err(RequestError::Malformed("invalid method"));
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        if !path.starts_with('/') {
            return Err(RequestError::Malformed("request target must be a path"));
        }

        // Headers until the blank line.
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(RequestError::TooLarge("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(RequestError::Malformed("header without ':'"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(RequestError::Malformed("invalid header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
            http10,
        };
        if request
            .header("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Err(RequestError::Malformed(
                "chunked request bodies are not supported",
            ));
        }
        let length = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed("invalid Content-Length"))?,
        };
        if length > self.max_body {
            return Err(RequestError::TooLarge("request body too large"));
        }
        let body_end = head_end + length;
        if buf.len() < body_end {
            return Ok(Parse::Incomplete);
        }
        request.body = buf[head_end..body_end].to_vec();
        Ok(Parse::Complete {
            request,
            consumed: body_end,
        })
    }
}

/// Index just past the blank line terminating the header block, if one is
/// present. Lines are LF-terminated with an optional preceding CR.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let mut line_end = i;
        if line_end > line_start && buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        if line_end == line_start {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

/// Whether `e` is an idle-timeout condition on a socket.
///
/// Platforms disagree on what a timed-out or not-ready socket read/write
/// returns: Unix surfaces `WouldBlock` (EAGAIN), Windows `TimedOut`, and
/// non-blocking sockets report `WouldBlock` everywhere. Every timeout and
/// readiness decision in the gateway and its client goes through this one
/// predicate so keep-alive reaping and wedge-cancel-refund behave
/// identically on every platform.
pub fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A complete fixed-length response as bytes, for write-buffer queueing.
pub fn response_bytes(status: u16, content_type: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .expect("Vec writes are infallible");
    out.extend_from_slice(body);
    out
}

/// A JSON response as bytes.
pub fn json_bytes(status: u16, body: &Json, close: bool) -> Vec<u8> {
    response_bytes(status, "application/json", body.encode().as_bytes(), close)
}

/// A `{"error": message}` response as bytes.
pub fn error_bytes(status: u16, message: &str, close: bool) -> Vec<u8> {
    json_bytes(
        status,
        &Json::obj(vec![("error", Json::str(message))]),
        close,
    )
}

/// The response head opening a chunked body (streaming responses always
/// close the connection when done).
pub fn chunked_head(status: u16, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        status_reason(status),
        content_type,
    )
    .into_bytes()
}

/// Appends one chunk frame (size line + payload + CRLF) to `out`. `data`
/// must be non-empty — an empty chunk would terminate the body (that is
/// [`CHUNK_TERMINATOR`]'s job).
pub fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    debug_assert!(!data.is_empty(), "empty chunks terminate the stream");
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a buffer expected to hold exactly one complete request.
    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        match RequestParser::new(1024).parse(bytes)? {
            Parse::Complete { request, consumed } => {
                assert_eq!(consumed, bytes.len(), "whole buffer consumed");
                Ok(request)
            }
            Parse::Incomplete => panic!("complete request parsed as incomplete"),
        }
    }

    #[test]
    fn parses_a_get_request() {
        let req =
            parse(b"GET /v1/metrics?verbose=1 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/metrics");
        assert_eq!(req.path_segments(), vec!["v1", "metrics"]);
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req =
            parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":42}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"seed\":42}");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive());
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_keep = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_keep.keep_alive());
    }

    #[test]
    fn incremental_parsing_reports_incomplete_until_the_request_lands() {
        let parser = RequestParser::new(1024);
        let full = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":42}";
        // Every strict prefix is Incomplete, never an error.
        for cut in 0..full.len() {
            assert!(
                matches!(parser.parse(&full[..cut]), Ok(Parse::Incomplete)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let Ok(Parse::Complete { request, consumed }) = parser.parse(full) else {
            panic!("full request must parse");
        };
        assert_eq!(consumed, full.len());
        assert_eq!(request.body, b"{\"seed\":42}");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let parser = RequestParser::new(1024);
        let buf = b"GET /healthz HTTP/1.1\r\n\r\n\r\nDELETE /v1/jobs/3 HTTP/1.1\r\n\r\n".to_vec();
        let Ok(Parse::Complete { request, consumed }) = parser.parse(&buf) else {
            panic!("first request must parse");
        };
        assert_eq!(request.path, "/healthz");
        // The stray CRLF between requests is tolerated (charged to the
        // *second* request's consumption).
        let Ok(Parse::Complete { request, consumed }) = parser.parse(&buf[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(request.method, "DELETE");
        assert_eq!(request.path_segments(), vec!["v1", "jobs", "3"]);
        assert_eq!(consumed, buf.len() - 25, "second parse consumed the rest");
        // An empty buffer afterwards is simply incomplete; EOF handling is
        // the transport's job.
        assert!(matches!(parser.parse(b""), Ok(Parse::Incomplete)));
    }

    #[test]
    fn unbounded_stray_crlfs_are_rejected() {
        let parser = RequestParser::new(1024);
        assert!(matches!(
            parser.parse(&b"\r\n".repeat(8)),
            Err(RequestError::Malformed("empty request line"))
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for (bytes, what) in [
            (&b"GARBAGE\r\n\r\n"[..], "no target"),
            (b"GET /x HTTP/2\r\n\r\n", "bad version"),
            (b"GET x HTTP/1.1\r\n\r\n", "non-path target"),
            (b"G@T /x HTTP/1.1\r\n\r\n", "bad method"),
            (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", "bad header"),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                "bad length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "chunked body",
            ),
        ] {
            assert!(
                matches!(parse(bytes), Err(RequestError::Malformed(_))),
                "{what} should be malformed"
            );
        }
    }

    #[test]
    fn size_bounds_are_enforced() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(RequestError::TooLarge(_))
        ));
        let huge = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
        // The header cap fires even before the blank line arrives — an
        // attacker cannot stall a connection open by trickling an
        // endless header block.
        let unterminated = format!("GET /x HTTP/1.1\r\nA: {}", "y".repeat(MAX_HEADER_BYTES));
        assert!(matches!(
            RequestParser::new(1024).parse(unterminated.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
        let many = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "A: b\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(many.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_bodies_stay_incomplete_for_the_deadline_to_reap() {
        // A body that never finishes arriving is not a parse error — the
        // connection's whole-request deadline is what reaps it.
        assert!(matches!(
            RequestParser::new(1024).parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Ok(Parse::Incomplete)
        ));
    }

    #[test]
    fn timeout_kinds_are_classified_uniformly() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert!(is_idle_timeout(&io::Error::new(kind, "t")), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(!is_idle_timeout(&io::Error::new(kind, "t")), "{kind:?}");
        }
    }

    #[test]
    fn responses_have_the_expected_shape() {
        let out = json_bytes(200, &Json::obj(vec![("ok", Json::Bool(true))]), false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let out = error_bytes(404, "unknown job", true);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 23\r\nConnection: close\r\n\r\n{\"error\":\"unknown job\"}"
        );
    }

    #[test]
    fn chunked_writer_frames_chunks() {
        let mut out = chunked_head(200, "application/x-ndjson");
        encode_chunk(&mut out, b"{\"a\":1}\n");
        encode_chunk(&mut out, b"{\"b\":2}\n");
        out.extend_from_slice(CHUNK_TERMINATOR);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
             8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n"
        );
    }
}
