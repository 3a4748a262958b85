//! A minimal, hardened HTTP/1.1 request parser and response writer.
//!
//! Std-only, allocation-bounded, and total: [`parse_request`] either
//! returns a well-formed [`Request`] or a typed [`HttpError`] that maps
//! to a 4xx status — it never panics, whatever bytes arrive (the
//! property `tests/serve_http_proptests.rs` hammers with a
//! SplitMix64-driven corruptor). Limits follow common proxy defaults:
//! 8 KiB request line, 64 headers of 8 KiB each, 1 MiB body.

use std::sync::Arc;

/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted header count.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted single-header length in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted request-body length in bytes.
pub const MAX_BODY: usize = 1024 * 1024;
/// Maximum accepted head (request line + headers) length in bytes.
pub const MAX_HEAD: usize = MAX_REQUEST_LINE + MAX_HEADERS * MAX_HEADER_LINE;

/// Request method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// Any other syntactically valid token (the router answers 405).
    Other(String),
}

impl Method {
    fn from_token(tok: &str) -> Option<Method> {
        if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_uppercase()) {
            return None;
        }
        Some(match tok {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        })
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The raw request target as received (undecoded).
    pub target: String,
    /// Percent-decoded path segments (`/v1/x%20y` → `["v1", "x y"]`);
    /// empty segments from `//` or a trailing `/` are dropped.
    pub path: Vec<String>,
    /// Percent-decoded query parameters in arrival order.
    pub query: Vec<(String, String)>,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {}

/// A parse failure; [`HttpError::status`] gives the response code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The head never terminated within the size limits (torn request).
    Incomplete,
    /// Request line longer than [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// Request line not `METHOD SP TARGET SP HTTP/1.x`.
    MalformedRequestLine,
    /// Unsupported HTTP version.
    UnsupportedVersion,
    /// Method token contains invalid characters.
    BadMethod,
    /// More than [`MAX_HEADERS`] headers.
    TooManyHeaders,
    /// A header line longer than [`MAX_HEADER_LINE`].
    HeaderTooLong,
    /// A header line without a colon or with an empty/invalid name.
    MalformedHeader,
    /// The target does not start with `/`.
    BadTarget,
    /// Invalid percent-encoding or non-UTF-8 decoded bytes.
    BadPercentEncoding,
    /// Content-Length is not a valid integer.
    BadContentLength,
    /// Declared body exceeds [`MAX_BODY`].
    BodyTooLarge,
}

impl HttpError {
    /// The HTTP status this error maps to (always 4xx).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Incomplete => 400,
            HttpError::RequestLineTooLong => 414,
            HttpError::MalformedRequestLine => 400,
            HttpError::UnsupportedVersion => 400,
            HttpError::BadMethod => 400,
            HttpError::TooManyHeaders => 431,
            HttpError::HeaderTooLong => 431,
            HttpError::MalformedHeader => 400,
            HttpError::BadTarget => 400,
            HttpError::BadPercentEncoding => 400,
            HttpError::BadContentLength => 400,
            HttpError::BodyTooLarge => 413,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HttpError::Incomplete => "incomplete request",
            HttpError::RequestLineTooLong => "request line too long",
            HttpError::MalformedRequestLine => "malformed request line",
            HttpError::UnsupportedVersion => "unsupported HTTP version",
            HttpError::BadMethod => "invalid method token",
            HttpError::TooManyHeaders => "too many headers",
            HttpError::HeaderTooLong => "header line too long",
            HttpError::MalformedHeader => "malformed header",
            HttpError::BadTarget => "request target must start with '/'",
            HttpError::BadPercentEncoding => "invalid percent-encoding",
            HttpError::BadContentLength => "invalid content-length",
            HttpError::BodyTooLarge => "request body too large",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// Locate the end of the head: returns `(head_len, body_offset)`.
/// Accepts both CRLF and bare-LF line endings (lenient ingestion, same
/// spirit as the CSV readers).
pub(crate) fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    // First blank line wins, whichever flavor it is.
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // Line ended at i; check whether the next line is empty.
            let next = i + 1;
            if next < buf.len() && buf[next] == b'\n' {
                return Some((i, next + 1));
            }
            if next + 1 < buf.len() && buf[next] == b'\r' && buf[next + 1] == b'\n' {
                return Some((i, next + 2));
            }
        }
        i += 1;
    }
    None
}

fn split_lines(head: &[u8]) -> Vec<&[u8]> {
    let mut lines = Vec::new();
    let mut start = 0;
    for (i, &b) in head.iter().enumerate() {
        if b == b'\n' {
            let mut end = i;
            if end > start && head[end - 1] == b'\r' {
                end -= 1;
            }
            lines.push(&head[start..end]);
            start = i + 1;
        }
    }
    if start < head.len() {
        let mut end = head.len();
        if end > start && head[end - 1] == b'\r' {
            end -= 1;
        }
        lines.push(&head[start..end]);
    }
    lines
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-decode a component. `plus_as_space` applies the
/// form-encoding convention for query strings.
pub fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let (Some(&h), Some(&l)) = (bytes.get(i + 1), bytes.get(i + 2)) else {
                    return Err(HttpError::BadPercentEncoding);
                };
                let (Some(h), Some(l)) = (hex_val(h), hex_val(l)) else {
                    return Err(HttpError::BadPercentEncoding);
                };
                out.push((h << 4) | l);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b if b < 0x20 || b == 0x7f => return Err(HttpError::BadPercentEncoding),
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadPercentEncoding)
}

/// A request target's decoded path segments and query pairs.
type Target = (Vec<String>, Vec<(String, String)>);

fn parse_target(target: &str) -> Result<Target, HttpError> {
    if !target.starts_with('/') {
        return Err(HttpError::BadTarget);
    }
    let (path_part, query_part) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut path = Vec::new();
    for seg in path_part.split('/') {
        if seg.is_empty() {
            continue;
        }
        path.push(percent_decode(seg, false)?);
    }
    let mut query = Vec::new();
    if let Some(q) = query_part {
        for pair in q.split('&') {
            if pair.is_empty() {
                continue;
            }
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Parse a complete request from a byte buffer.
///
/// # Errors
///
/// A typed [`HttpError`]; [`HttpError::Incomplete`] when the buffer is a
/// truncated request (the server treats that as a 400 after its read
/// deadline, a caller feeding incremental reads as "need more bytes").
pub fn parse_request(buf: &[u8]) -> Result<Request, HttpError> {
    let (head_len, body_off) = match find_head_end(buf) {
        Some(x) => x,
        None => {
            // Distinguish "request line already over-long" from merely
            // truncated input so slowloris-style lines fail fast.
            let first_line_len = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
            if first_line_len > MAX_REQUEST_LINE {
                return Err(HttpError::RequestLineTooLong);
            }
            if buf.len() > MAX_HEAD {
                return Err(HttpError::TooManyHeaders);
            }
            return Err(HttpError::Incomplete);
        }
    };
    let lines = split_lines(&buf[..head_len]);
    let Some((request_line, header_lines)) = lines.split_first() else {
        return Err(HttpError::MalformedRequestLine);
    };
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::RequestLineTooLong);
    }
    let request_line =
        std::str::from_utf8(request_line).map_err(|_| HttpError::MalformedRequestLine)?;
    let mut parts = request_line.split(' ');
    let (Some(method_tok), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::MalformedRequestLine);
    };
    let method = Method::from_token(method_tok).ok_or(HttpError::BadMethod)?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion);
    }
    let (path, query) = parse_target(target)?;

    if header_lines.len() > MAX_HEADERS {
        return Err(HttpError::TooManyHeaders);
    }
    let mut headers = Vec::with_capacity(header_lines.len());
    for line in header_lines {
        if line.is_empty() {
            continue;
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(HttpError::HeaderTooLong);
        }
        let line = std::str::from_utf8(line).map_err(|_| HttpError::MalformedHeader)?;
        let (name, value) = line.split_once(':').ok_or(HttpError::MalformedHeader)?;
        let name = name.trim();
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(HttpError::MalformedHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength)?,
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::BodyTooLarge);
    }
    let body_bytes = &buf[body_off..];
    if body_bytes.len() < content_length {
        return Err(HttpError::Incomplete);
    }
    Ok(Request {
        method,
        target: target.to_string(),
        path,
        query,
        headers,
        body: body_bytes[..content_length].to_vec(),
    })
}

/// An outgoing response. Bodies are `Arc<str>` so cache hits share one
/// allocation across concurrent writers.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// JSON body.
    pub body: Arc<str>,
    /// Optional `retry-after` header value in seconds (overload sheds).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Response {
        Response {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// The structured error body `{"error":{"code":…,"message":…}}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = crate::json::Json::obj([(
            "error",
            crate::json::Json::obj([
                ("code", crate::json::Json::UInt(status as u64)),
                ("message", crate::json::Json::str(message)),
            ]),
        )])
        .render();
        Response::json(status, body)
    }

    /// A typed error body `{"error":{"code":…,"kind":…,"message":…}}` —
    /// the `kind` is a stable machine-readable word (`"overloaded"`,
    /// `"deadline"`, `"reload_failed"`) clients can branch on without
    /// parsing prose.
    pub(crate) fn error_kind(status: u16, kind: &str, message: &str) -> Response {
        let body = crate::json::Json::obj([(
            "error",
            crate::json::Json::obj([
                ("code", crate::json::Json::UInt(status as u64)),
                ("kind", crate::json::Json::str(kind)),
                ("message", crate::json::Json::str(message)),
            ]),
        )])
        .render();
        Response::json(status, body)
    }

    /// The overload-shed response: `503` with a `retry-after` hint so
    /// well-behaved clients back off instead of hammering.
    pub(crate) fn overloaded(retry_after_secs: u64, message: &str) -> Response {
        let mut resp = Response::error_kind(503, "overloaded", message);
        resp.retry_after = Some(retry_after_secs);
        resp
    }

    /// Serialize status line + headers + body to wire format.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let retry = self
            .retry_after
            .map(|secs| format!("retry-after: {secs}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{retry}connection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Canonical reason phrase for the statuses the server emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_get() {
        let req = parse_request(b"GET /v1/lanl/tbf?system=20&era=late HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, vec!["v1", "lanl", "tbf"]);
        assert_eq!(
            req.query,
            vec![
                ("system".to_string(), "20".to_string()),
                ("era".to_string(), "late".to_string())
            ]
        );
        assert_eq!(req.headers, vec![("host".to_string(), "x".to_string())]);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_percent_and_plus() {
        let req = parse_request(b"GET /v1/a%20b/tbf?k=v+w%21 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, vec!["v1", "a b", "tbf"]);
        assert_eq!(req.query, vec![("k".to_string(), "v w!".to_string())]);
    }

    #[test]
    fn body_respects_content_length() {
        let req = parse_request(b"POST /v1/reload HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdEXTRA")
            .unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.method, Method::Post);
    }

    #[test]
    fn malformed_inputs_yield_4xx() {
        let cases: Vec<(&[u8], HttpError)> = vec![
            (b"", HttpError::Incomplete),
            (b"GET / HTTP/1.1\r\n", HttpError::Incomplete),
            (b"\r\n\r\n", HttpError::MalformedRequestLine),
            (b"GET /\r\n\r\n", HttpError::MalformedRequestLine),
            (b"get / HTTP/1.1\r\n\r\n", HttpError::BadMethod),
            (b"GET / HTTP/2\r\n\r\n", HttpError::UnsupportedVersion),
            (b"GET x HTTP/1.1\r\n\r\n", HttpError::BadTarget),
            (b"GET /%zz HTTP/1.1\r\n\r\n", HttpError::BadPercentEncoding),
            (
                b"GET /%e2%28%a1 HTTP/1.1\r\n\r\n",
                HttpError::BadPercentEncoding,
            ),
            (
                b"GET / HTTP/1.1\r\nnocolon\r\n\r\n",
                HttpError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
                HttpError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\ncontent-length: two\r\n\r\n",
                HttpError::BadContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\ncontent-length: 99\r\n\r\nshort",
                HttpError::Incomplete,
            ),
        ];
        for (bytes, want) in cases {
            let got = parse_request(bytes).unwrap_err();
            assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(bytes));
            assert!((400..500).contains(&got.status()));
        }
    }

    #[test]
    fn oversized_inputs_fail_fast() {
        let long_line = [b'a'; MAX_REQUEST_LINE + 10];
        assert_eq!(
            parse_request(&long_line).unwrap_err(),
            HttpError::RequestLineTooLong
        );
        let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            many_headers.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        assert_eq!(
            parse_request(&many_headers).unwrap_err(),
            HttpError::TooManyHeaders
        );
        let mut big_body = b"POST / HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".to_vec();
        big_body.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            parse_request(&big_body).unwrap_err(),
            HttpError::BodyTooLarge
        );
    }

    #[test]
    fn bare_lf_is_tolerated() {
        let req = parse_request(b"GET /healthz HTTP/1.1\nhost: y\n\n").unwrap();
        assert_eq!(req.path, vec!["healthz"]);
        assert_eq!(req.headers, vec![("host".to_string(), "y".to_string())]);
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::error(404, "no such trace");
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-type: application/json"));
        assert!(!text.contains("retry-after"));
        assert!(text.ends_with("{\"error\":{\"code\":404,\"message\":\"no such trace\"}}"));
    }

    #[test]
    fn shed_response_carries_retry_after_and_kind() {
        let resp = Response::overloaded(2, "server overloaded; retry");
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        assert!(text.contains("\"kind\":\"overloaded\""), "{text}");
        let typed = Response::error_kind(408, "deadline", "request deadline exceeded");
        assert!(typed.body.contains("\"kind\":\"deadline\""));
        assert!(typed.retry_after.is_none());
    }
}
