//! HTTP/1.1 message types and wire parsing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Default cap on the request line + header block of one request. A
/// client streaming endless headers is answered with `431 Request Header
/// Fields Too Large` instead of growing server memory without bound.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct HttpRequest {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Protocol version token from the request line (e.g. `HTTP/1.1`).
    /// Empty when the client sent none; keep-alive negotiation treats
    /// only a literal `HTTP/1.0` as close-by-default.
    pub version: String,
}

impl HttpRequest {
    /// Header lookup (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Cookie value by name.
    pub fn cookie(&self, name: &str) -> Option<String> {
        let cookies = self.header("cookie")?;
        for part in cookies.split(';') {
            let part = part.trim();
            if let Some(eq) = part.find('=') {
                if part[..eq].eq_ignore_ascii_case(name) {
                    return Some(part[eq + 1..].to_string());
                }
            }
        }
        None
    }

    /// HTTP/1.1 persistent-connection negotiation: `HTTP/1.1` (and
    /// anything newer) defaults to keep-alive unless the client sent
    /// `Connection: close`; `HTTP/1.0` defaults to close unless the
    /// client sent `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.version.eq_ignore_ascii_case("HTTP/1.0") {
            conn.eq_ignore_ascii_case("keep-alive")
        } else {
            !conn.eq_ignore_ascii_case("close")
        }
    }

    /// Query + form-encoded body parameters combined.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut out = self.query.clone();
        let is_form = self
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("application/x-www-form-urlencoded"));
        if is_form {
            if let Ok(body) = std::str::from_utf8(&self.body) {
                out.extend(parse_query(body));
            }
        }
        out
    }
}

/// One segment of a response body. `Owned` bytes were built for this
/// response; `Shared` bytes are a refcounted view into a cache entry —
/// they travel to the socket by pointer (vectored write), never by copy.
#[derive(Debug, Clone)]
pub enum BodyChunk {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl BodyChunk {
    pub fn as_slice(&self) -> &[u8] {
        match self {
            BodyChunk::Owned(v) => v,
            BodyChunk::Shared(a) => a,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Zero-copy body continuation: the wire body is `body` followed by
    /// `chunks` in order. Shared chunks keep cached fragment bytes
    /// refcounted all the way to the vectored write.
    pub chunks: Vec<BodyChunk>,
}

impl HttpResponse {
    pub fn new(status: u16) -> HttpResponse {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            chunks: Vec::new(),
        }
    }

    pub fn html(status: u16, body: impl Into<String>) -> HttpResponse {
        let body: String = body.into();
        HttpResponse {
            status,
            headers: vec![("Content-Type".into(), "text/html; charset=utf-8".into())],
            body: body.into_bytes(),
            chunks: Vec::new(),
        }
    }

    /// Build an HTML response whose body is a sequence of chunks —
    /// cached fragments stay `Shared` (no copy), glue text is `Owned`.
    pub fn html_chunks(status: u16, chunks: Vec<BodyChunk>) -> HttpResponse {
        HttpResponse {
            status,
            headers: vec![("Content-Type".into(), "text/html; charset=utf-8".into())],
            body: Vec::new(),
            chunks,
        }
    }

    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> HttpResponse {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Set the body from a string (builder style).
    pub fn body_text(mut self, body: impl Into<String>) -> HttpResponse {
        self.body = body.into().into_bytes();
        self
    }

    pub fn find_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn status_text(status: u16) -> &'static str {
        match status {
            200 => "OK",
            302 => "Found",
            304 => "Not Modified",
            303 => "See Other",
            400 => "Bad Request",
            401 => "Unauthorized",
            404 => "Not Found",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Total body length on the wire (`body` + all `chunks`).
    pub fn content_len(&self) -> usize {
        self.body.len() + self.chunks.iter().map(|c| c.len()).sum::<usize>()
    }

    /// Serialize the status line + headers + `Content-Length` +
    /// `Connection` block (through the final `\r\n\r\n`).
    pub fn serialize_head(&self, keep_alive: bool) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                Self::status_text(self.status)
            )
            .as_bytes(),
        );
        for (n, v) in &self.headers {
            buf.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        buf.extend_from_slice(format!("Content-Length: {}\r\n", self.content_len()).as_bytes());
        if keep_alive {
            buf.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
        } else {
            buf.extend_from_slice(b"Connection: close\r\n\r\n");
        }
        buf
    }

    /// Consume the response into the ordered chunk list a vectored write
    /// puts on the wire: head, then `body` (if any), then `chunks` —
    /// shared fragments pass through by `Arc`, never copied.
    pub fn to_wire_chunks(self, keep_alive: bool) -> Vec<BodyChunk> {
        let mut out = Vec::with_capacity(2 + self.chunks.len());
        out.push(BodyChunk::Owned(self.serialize_head(keep_alive)));
        if !self.body.is_empty() {
            out.push(BodyChunk::Owned(self.body));
        }
        out.extend(self.chunks);
        out
    }

    /// Serialize onto the wire. Adds `Content-Length` and a `Connection`
    /// header matching `keep_alive`, so persistent connections advertise
    /// themselves correctly to the client.
    pub fn write_with_connection(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut buf = self.serialize_head(keep_alive);
        buf.reserve(self.content_len());
        buf.extend_from_slice(&self.body);
        for c in &self.chunks {
            buf.extend_from_slice(c.as_slice());
        }
        w.write_all(&buf)
    }

    /// Serialize onto the wire (adds Content-Length and Connection:
    /// close) — the one-shot compatibility path.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_with_connection(w, false)
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-decode one URL component. Operates byte-wise: a `%` followed
/// by anything other than two hex digits (including a multibyte UTF-8
/// character sliced mid-sequence, e.g. `%é`) is passed through as a
/// literal `%` instead of panicking on a char boundary.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => match (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `a=1&b=2` into decoded pairs.
pub fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.find('=') {
            Some(eq) => (percent_decode(&pair[..eq]), percent_decode(&pair[eq + 1..])),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Why a request could not be parsed off the wire.
#[derive(Debug)]
pub enum RequestError {
    /// The request line + header block exceeded the configured cap; the
    /// server answers `431` and closes.
    HeadersTooLarge,
    /// Transport or framing error (includes read timeouts).
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::HeadersTooLarge => write!(f, "request header block too large"),
            RequestError::Io(e) => write!(f, "request read failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Read one `\n`-terminated line into `out`, charging consumed bytes
/// against `budget`. A line that would exceed the budget — including a
/// single endless line with no newline at all — fails with
/// [`RequestError::HeadersTooLarge`] without buffering the excess.
/// Returns the number of bytes appended (0 ⇒ EOF before any byte).
fn read_line_bounded(
    r: &mut impl BufRead,
    out: &mut Vec<u8>,
    budget: &mut usize,
) -> Result<usize, RequestError> {
    let start = out.len();
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RequestError::Io(e)),
        };
        if available.is_empty() {
            return Ok(out.len() - start); // EOF
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos + 1 > *budget {
                    return Err(RequestError::HeadersTooLarge);
                }
                out.extend_from_slice(&available[..=pos]);
                r.consume(pos + 1);
                *budget -= pos + 1;
                return Ok(out.len() - start);
            }
            None => {
                let n = available.len();
                if n >= *budget {
                    return Err(RequestError::HeadersTooLarge);
                }
                out.extend_from_slice(available);
                r.consume(n);
                *budget -= n;
            }
        }
    }
}

/// Read one request from an existing buffered reader, leaving any
/// pipelined bytes of the *next* request untouched in the buffer — this
/// is the keep-alive entry point: one `BufReader` per connection, reused
/// across requests. The request line + header block is bounded by
/// `max_header_bytes`. Returns `None` on a cleanly closed connection
/// before any bytes.
pub fn read_request_from(
    reader: &mut impl BufRead,
    max_header_bytes: usize,
) -> Result<Option<HttpRequest>, RequestError> {
    let mut budget = max_header_bytes.max(64);
    let mut line = Vec::new();
    if read_line_bounded(reader, &mut line, &mut budget)? == 0 {
        return Ok(None);
    }
    let request_line = String::from_utf8_lossy(&line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/").to_string();
    let version = parts.next().unwrap_or("").to_string();
    if method.is_empty() {
        return Err(RequestError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty request line",
        )));
    }
    let (path, query) = match target.find('?') {
        Some(q) => (percent_decode(&target[..q]), parse_query(&target[q + 1..])),
        None => (percent_decode(&target), Vec::new()),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        if read_line_bounded(reader, &mut line, &mut budget)? == 0 {
            break;
        }
        let h = String::from_utf8_lossy(&line);
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(colon) = h.find(':') {
            let name = h[..colon].trim().to_string();
            let value = h[colon + 1..].trim().to_string();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    // bound request bodies to keep the simulated container safe
    let content_length = content_length.min(16 * 1024 * 1024);
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }
    Ok(Some(HttpRequest {
        method,
        path,
        query,
        headers,
        body,
        version,
    }))
}

/// Read one request from a stream (one-shot compatibility path: wraps
/// the stream in a private `BufReader`, so any pipelined bytes after the
/// first request are discarded with it). Returns `None` on a cleanly
/// closed connection before any bytes.
pub fn read_request(stream: &mut impl Read) -> io::Result<Option<HttpRequest>> {
    let mut reader = BufReader::new(stream);
    match read_request_from(&mut reader, MAX_HEADER_BYTES) {
        Ok(r) => Ok(r),
        Err(RequestError::HeadersTooLarge) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request header block too large",
        )),
        Err(RequestError::Io(e)) => Err(e),
    }
}

/// Result of one attempt to parse a request out of a connection buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A full request, plus how many buffer bytes it consumed (drain
    /// them; pipelined followers stay behind).
    Complete(HttpRequest, usize),
    /// Not enough bytes yet — park the connection and wait for more.
    Partial,
    /// The header block outgrew `max_header_bytes` without terminating:
    /// answer `431` and close.
    TooLarge,
}

/// Find the end of the header block (index one past the blank line),
/// tolerating bare-`\n` line endings like the reader-based parser does.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1..].starts_with(b"\r\n") {
                return Some(i + 3);
            }
            if buf[i + 1..].starts_with(b"\n") {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// Incremental, resumable request parsing over an accumulated byte
/// buffer — the event loops' entry point. Call after every read;
/// `Partial` means "wait for more bytes", never blocks, and charges the
/// caller nothing: the buffer itself is the only state.
pub fn parse_request_bytes(buf: &[u8], max_header_bytes: usize) -> io::Result<ParseOutcome> {
    let budget = max_header_bytes.max(64);
    let header_end = match find_header_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > budget {
                return Ok(ParseOutcome::TooLarge);
            }
            return Ok(ParseOutcome::Partial);
        }
    };
    if header_end > budget {
        return Ok(ParseOutcome::TooLarge);
    }
    let head = &buf[..header_end];
    let mut lines = head.split(|&b| b == b'\n');
    let request_line = String::from_utf8_lossy(lines.next().unwrap_or(b""));
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/").to_string();
    let version = parts.next().unwrap_or("").to_string();
    if method.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty request line",
        ));
    }
    let (path, query) = match target.find('?') {
        Some(q) => (percent_decode(&target[..q]), parse_query(&target[q + 1..])),
        None => (percent_decode(&target), Vec::new()),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let h = String::from_utf8_lossy(line);
        let h = h.trim_end();
        if h.is_empty() {
            continue;
        }
        if let Some(colon) = h.find(':') {
            let name = h[..colon].trim().to_string();
            let value = h[colon + 1..].trim().to_string();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    // bound request bodies to keep the simulated container safe
    let content_length = content_length.min(16 * 1024 * 1024);
    let total = header_end + content_length;
    if buf.len() < total {
        return Ok(ParseOutcome::Partial);
    }
    Ok(ParseOutcome::Complete(
        HttpRequest {
            method,
            path,
            query,
            headers,
            body: buf[header_end..total].to_vec(),
            version,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_with_query() {
        let raw =
            b"GET /shop/detail?item=5&kw=web+ml HTTP/1.1\r\nHost: x\r\nUser-Agent: test\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/shop/detail");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.query[0], ("item".into(), "5".into()));
        assert_eq!(req.query[1], ("kw".into(), "web ml".into()));
        assert_eq!(req.header("user-agent"), Some("test"));
    }

    #[test]
    fn parses_post_form_body() {
        let raw = b"POST /op HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 14\r\n\r\nname=Lap%20top";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        let params = req.params();
        assert_eq!(params[0], ("name".into(), "Lap top".into()));
    }

    #[test]
    fn cookie_lookup() {
        let raw = b"GET / HTTP/1.1\r\nCookie: a=1; WEBMLSESSION=sess-42; b=2\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.cookie("WEBMLSESSION").as_deref(), Some("sess-42"));
        assert_eq!(req.cookie("missing"), None);
    }

    #[test]
    fn empty_stream_is_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut &raw[..]).unwrap().is_none());
    }

    #[test]
    fn response_serialization() {
        let resp = HttpResponse::html(200, "<p>hi</p>").header("X-Test", "1");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 9\r\n"));
        assert!(s.contains("X-Test: 1\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("<p>hi</p>"));
    }

    #[test]
    fn response_keep_alive_serialization() {
        let resp = HttpResponse::html(200, "ok");
        let mut buf = Vec::new();
        resp.write_with_connection(&mut buf, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(!s.contains("Connection: close"));
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // truncated escapes at end of string
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn percent_decode_multibyte_after_percent_does_not_panic() {
        // `é` is two UTF-8 bytes; the old char-boundary slice panicked.
        assert_eq!(percent_decode("%é"), "%é");
        assert_eq!(percent_decode("x=%éy"), "x=%éy");
        assert_eq!(percent_decode("%€"), "%€"); // three-byte char
        assert_eq!(percent_decode("é%41"), "éA");
        // a sign is not a hex digit (u8::from_str_radix would accept "+5")
        assert_eq!(percent_decode("%+55"), "% 55");
    }

    #[test]
    fn keep_alive_negotiation() {
        let parse = |raw: &[u8]| read_request(&mut &raw[..]).unwrap().unwrap();
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn pipelined_requests_stay_in_the_buffer() {
        let raw: &[u8] = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let a = read_request_from(&mut reader, MAX_HEADER_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(a.path, "/a");
        let b = read_request_from(&mut reader, MAX_HEADER_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(b.path, "/b");
        assert!(read_request_from(&mut reader, MAX_HEADER_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_header_block_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10_000 {
            raw.extend_from_slice(format!("X-Flood-{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut reader = BufReader::new(&raw[..]);
        match read_request_from(&mut reader, MAX_HEADER_BYTES) {
            Err(RequestError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn single_endless_header_line_is_rejected() {
        // no newline at all: the bound must trip without buffering 1 MiB
        let mut raw = b"GET / HTTP/1.1\r\nX-Endless: ".to_vec();
        raw.extend_from_slice(&vec![b'a'; 1024 * 1024]);
        let mut reader = BufReader::new(&raw[..]);
        match read_request_from(&mut reader, MAX_HEADER_BYTES) {
            Err(RequestError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn parse_query_handles_flags() {
        let q = parse_query("a=1&flag&b=");
        assert_eq!(q.len(), 3);
        assert_eq!(q[1], ("flag".into(), String::new()));
    }

    #[test]
    fn incremental_parse_resumes_byte_by_byte() {
        let raw = b"POST /op?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // every strict prefix is Partial, the full buffer is Complete
        for cut in 0..raw.len() {
            match parse_request_bytes(&raw[..cut], MAX_HEADER_BYTES).unwrap() {
                ParseOutcome::Partial => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
        match parse_request_bytes(raw, MAX_HEADER_BYTES).unwrap() {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len());
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/op");
                assert_eq!(req.query[0], ("x".into(), "1".into()));
                assert_eq!(req.body, b"body");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_bytes() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match parse_request_bytes(raw, MAX_HEADER_BYTES).unwrap() {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.path, "/a");
                match parse_request_bytes(&raw[consumed..], MAX_HEADER_BYTES).unwrap() {
                    ParseOutcome::Complete(b, c2) => {
                        assert_eq!(b.path, "/b");
                        assert_eq!(consumed + c2, raw.len());
                    }
                    other => panic!("expected second Complete, got {other:?}"),
                }
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_caps_unterminated_headers() {
        // a drip-fed header that never terminates must trip the cap
        let mut raw = b"GET / HTTP/1.1\r\nX-Drip: ".to_vec();
        raw.extend_from_slice(&vec![b'a'; 4096]);
        match parse_request_bytes(&raw, 1024).unwrap() {
            ParseOutcome::TooLarge => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // terminated but oversized header block also trips
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..64 {
            raw.extend_from_slice(format!("X-F{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        match parse_request_bytes(&raw, 1024).unwrap() {
            ParseOutcome::TooLarge => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_tolerates_bare_newlines() {
        let raw = b"GET /n HTTP/1.1\nHost: x\n\n";
        match parse_request_bytes(raw, MAX_HEADER_BYTES).unwrap() {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.path, "/n");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(consumed, raw.len());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn chunked_response_serializes_like_flat() {
        let shared: Arc<[u8]> = Arc::from(&b"<p>frag</p>"[..]);
        let chunked = HttpResponse::html_chunks(
            200,
            vec![
                BodyChunk::Owned(b"<html>".to_vec()),
                BodyChunk::Shared(Arc::clone(&shared)),
                BodyChunk::Owned(b"</html>".to_vec()),
            ],
        );
        let flat = HttpResponse::html(200, "<html><p>frag</p></html>");
        assert_eq!(chunked.content_len(), flat.content_len());
        let mut a = Vec::new();
        chunked.write_with_connection(&mut a, true).unwrap();
        let mut b = Vec::new();
        flat.write_with_connection(&mut b, true).unwrap();
        assert_eq!(a, b, "chunked and flat bodies must serialize identically");
        // and the wire-chunk path preserves the shared Arc by pointer
        let chunked = HttpResponse::html_chunks(200, vec![BodyChunk::Shared(Arc::clone(&shared))]);
        let wire = chunked.to_wire_chunks(true);
        match &wire[1] {
            BodyChunk::Shared(a) => assert!(Arc::ptr_eq(a, &shared)),
            other => panic!("expected Shared chunk, got {other:?}"),
        }
    }
}
