//! The benchmark's own minimal keep-alive HTTP/1.1 client, plus the
//! per-connection browser state (session cookie, `ETag` store) and the
//! response checks. Not `httpd::client`: a product change must not be able
//! to move the load generator.

use crate::gen::{Catalog, Request};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SESSION_COOKIE: &str = "WEBMLSESSION";
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The parts of a response the benchmark looks at.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    pub etag: Option<String>,
    pub session: Option<String>,
    pub close: bool,
    pub content_length: usize,
    /// Bytes up to and including the blank line.
    pub head_len: usize,
}

fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (n, v) = line.split_once(':')?;
    n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
}

/// Parse a response head out of `buf`; `None` until the blank line arrived.
pub fn parse_head(buf: &[u8]) -> io::Result<Option<Head>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut head = Head {
        status,
        head_len: end + 4,
        ..Head::default()
    };
    for line in lines {
        if let Some(v) = header_value(line, "content-length") {
            head.content_length = v.parse().map_err(|_| bad("malformed Content-Length"))?;
        } else if let Some(v) = header_value(line, "etag") {
            head.etag = Some(v.to_string());
        } else if let Some(v) = header_value(line, "connection") {
            head.close = v.eq_ignore_ascii_case("close");
        } else if let Some(v) = header_value(line, "set-cookie") {
            head.session = v
                .split(';')
                .next()
                .and_then(|kv| kv.trim().strip_prefix(SESSION_COOKIE))
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_string);
        }
    }
    Ok(Some(head))
}

/// What one simulated browser remembers between requests.
pub struct Browser {
    conditional: bool,
    session: Option<String>,
    etags: HashMap<String, String>,
}

impl Browser {
    /// `conditional`: replay the last `ETag` per URL as `If-None-Match`.
    pub fn new(conditional: bool) -> Browser {
        Browser {
            conditional,
            session: None,
            etags: HashMap::new(),
        }
    }

    /// Serialize `req` with this browser's cookie and validator.
    pub fn encode(&self, req: &Request, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(req.wire_head().as_bytes());
        if let Some(sid) = &self.session {
            out.extend_from_slice(format!("Cookie: {SESSION_COOKIE}={sid}\r\n").as_bytes());
        }
        if self.conditional {
            if let Some(tag) = self.etags.get(&req.target) {
                out.extend_from_slice(format!("If-None-Match: {tag}\r\n").as_bytes());
            }
        }
        out.extend_from_slice(b"\r\n");
    }

    /// Absorb the response's cookie and validator, and judge it.
    pub fn accept(
        &mut self,
        req: &Request,
        head: &Head,
        body: &[u8],
        catalog: &Catalog,
    ) -> Verdict {
        if let Some(sid) = &head.session {
            self.session = Some(sid.clone());
        }
        let sent_validator = self.conditional && self.etags.contains_key(&req.target);
        if self.conditional && req.kind == crate::gen::Kind::Page {
            if let Some(tag) = &head.etag {
                self.etags.insert(req.target.clone(), tag.clone());
            }
        }
        let correct = match head.status {
            // a 304 nobody asked for, or for content this client just changed
            304 => sent_validator && !req.must_be_full && body.is_empty(),
            200 => {
                let title = format!("<title>{}</title>", catalog.pages[req.page].title);
                contains(body, title.as_bytes())
                    && req
                        .marker
                        .as_ref()
                        .is_none_or(|m| contains(body, m.as_bytes()))
            }
            _ => return Verdict::BadStatus,
        };
        if correct {
            Verdict::Correct
        } else {
            Verdict::BadContent
        }
    }
}

/// How a response fared against what its request must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// Neither 200 nor 304 (an error page, a 503 shed).
    BadStatus,
    /// Wrong page, missing write, or a 304 that should have been a 200.
    BadContent,
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One keep-alive connection; reconnects when the server closes it (the
/// server caps requests per connection).
pub struct Connection {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Connection {
    pub fn new(addr: SocketAddr) -> Connection {
        Connection {
            addr,
            stream: None,
            buf: Vec::with_capacity(128 * 1024),
        }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Send one request and read the whole response. Returns the head and
    /// the body (borrowed from the connection's buffer).
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<(Head, &[u8])> {
        let result = self.exchange_once(wire);
        match result {
            Ok(head) => {
                if head.close {
                    self.stream = None;
                }
                let body = &self.buf[head.head_len..head.head_len + head.content_length];
                Ok((head, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange_once(&mut self, wire: &[u8]) -> io::Result<Head> {
        self.connect()?.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(head) = parse_head(&self.buf)? {
                if self.buf.len() >= head.head_len + head.content_length {
                    return Ok(head);
                }
            }
            let n = self.connect()?.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Kind, PageInfo};

    fn catalog() -> Catalog {
        Catalog {
            pages: vec![PageInfo {
                url: "/sv/p".into(),
                title: "Page0_1".into(),
                params: vec![],
            }],
            ops: vec![],
            rows_per_entity: 100,
        }
    }

    fn page(must_be_full: bool, marker: Option<&str>) -> Request {
        Request {
            kind: Kind::Page,
            target: "/sv/p".into(),
            page: 0,
            marker: marker.map(str::to_string),
            must_be_full,
        }
    }

    #[test]
    fn parses_head_cookie_etag_and_waits_for_the_blank_line() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nETag: \"abc\"\r\nSet-Cookie: WEBMLSESSION=s-9; Path=/\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        assert_eq!(parse_head(&raw[..40]).unwrap(), None);
        let head = parse_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.etag.as_deref(), Some("\"abc\""));
        assert_eq!(head.session.as_deref(), Some("s-9"));
        assert!(head.close);
        assert_eq!(head.content_length, 5);
        assert_eq!(&raw[head.head_len..], b"hello");
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn browser_replays_cookie_and_validator() {
        let cat = catalog();
        let mut b = Browser::new(true);
        let req = page(false, None);
        let mut wire = Vec::new();
        b.encode(&req, &mut wire);
        assert!(!String::from_utf8_lossy(&wire).contains("If-None-Match"));
        let head = Head {
            status: 200,
            etag: Some("\"t1\"".into()),
            session: Some("s-1".into()),
            ..Head::default()
        };
        assert_eq!(
            b.accept(&req, &head, b"<title>Page0_1</title>", &cat),
            Verdict::Correct
        );
        b.encode(&req, &mut wire);
        let text = String::from_utf8_lossy(&wire).into_owned();
        assert!(text.contains("Cookie: WEBMLSESSION=s-1\r\n"));
        assert!(text.contains("If-None-Match: \"t1\"\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn verdicts() {
        let cat = catalog();
        let ok = Head {
            status: 200,
            ..Head::default()
        };
        let not_modified = Head {
            status: 304,
            ..Head::default()
        };
        let mut b = Browser::new(true);
        // wrong page, missing marker, error status
        let wrong_page = b.accept(&page(false, None), &ok, b"<title>Page0_10</title>", &cat);
        assert_eq!(wrong_page, Verdict::BadContent);
        let lost_write = b.accept(
            &page(false, Some("w0x1")),
            &ok,
            b"<title>Page0_1</title>",
            &cat,
        );
        assert_eq!(lost_write, Verdict::BadContent);
        let shed = Head {
            status: 503,
            ..Head::default()
        };
        assert_eq!(
            b.accept(&page(false, None), &shed, b"", &cat),
            Verdict::BadStatus
        );
        // a 304 nobody asked for
        assert_eq!(
            b.accept(&page(false, None), &not_modified, b"", &cat),
            Verdict::BadContent
        );
        // a 304 against a held validator is fine — unless the content changed
        let tagged = Head {
            status: 200,
            etag: Some("\"t\"".into()),
            ..Head::default()
        };
        let full = b.accept(&page(false, None), &tagged, b"<title>Page0_1</title>", &cat);
        assert_eq!(full, Verdict::Correct);
        assert_eq!(
            b.accept(&page(false, None), &not_modified, b"", &cat),
            Verdict::Correct
        );
        let stale = b.accept(&page(true, Some("w0x1")), &not_modified, b"", &cat);
        assert_eq!(stale, Verdict::BadContent);
    }
}
