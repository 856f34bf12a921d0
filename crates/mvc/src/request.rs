//! Transport-independent request/response types.
//!
//! The `httpd` crate adapts real HTTP traffic onto these; tests and
//! benches drive the controller directly with them.

use std::collections::BTreeMap;

/// A request entering the Controller.
#[derive(Debug, Clone, Default)]
pub struct WebRequest {
    /// Path without query string, e.g. `/acmdl/volume_page`.
    pub path: String,
    /// Decoded query/form parameters (sorted map: deterministic
    /// fingerprints for caching).
    pub params: BTreeMap<String, String>,
    /// Session cookie, if any.
    pub session: Option<String>,
    /// User-Agent header (drives §5 device adaptation).
    pub user_agent: String,
    /// `If-None-Match` header: the validator of a conditional GET. When
    /// it matches the page's current `ETag`, the controller answers
    /// `304 Not Modified` without computing the page.
    pub if_none_match: Option<String>,
}

impl WebRequest {
    pub fn get(path: impl Into<String>) -> WebRequest {
        WebRequest {
            path: path.into(),
            ..WebRequest::default()
        }
    }

    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> WebRequest {
        self.params.insert(name.into(), value.into());
        self
    }

    pub fn with_session(mut self, sid: impl Into<String>) -> WebRequest {
        self.session = Some(sid.into());
        self
    }

    pub fn with_user_agent(mut self, ua: impl Into<String>) -> WebRequest {
        self.user_agent = ua.into();
        self
    }

    pub fn with_if_none_match(mut self, etag: impl Into<String>) -> WebRequest {
        self.if_none_match = Some(etag.into());
        self
    }

    /// Stable fingerprint of the parameters (cache keys).
    pub fn params_fingerprint(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.params {
            s.push_str(k);
            s.push('=');
            s.push_str(v);
            s.push('&');
        }
        s
    }
}

/// The response leaving the Controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebResponse {
    pub status: u16,
    pub content_type: String,
    pub body: String,
    /// Session id to set as a cookie, if a new session was created.
    pub set_session: Option<String>,
    /// Strong entity tag derived from the page's dependency versions;
    /// `None` when conditional GET is disabled.
    pub etag: Option<String>,
}

impl WebResponse {
    pub fn html(body: String) -> WebResponse {
        WebResponse {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            body,
            set_session: None,
            etag: None,
        }
    }

    pub fn not_found(path: &str) -> WebResponse {
        WebResponse {
            status: 404,
            content_type: "text/html; charset=utf-8".into(),
            body: format!("<html><body><h1>404</h1><p>no mapping for {path}</p></body></html>"),
            set_session: None,
            etag: None,
        }
    }

    pub fn error(status: u16, message: &str) -> WebResponse {
        WebResponse {
            status,
            content_type: "text/html; charset=utf-8".into(),
            body: format!("<html><body><h1>{status}</h1><p>{message}</p></body></html>"),
            set_session: None,
            etag: None,
        }
    }
}

/// A [`WebResponse`] whose body is still a sequence of render chunks:
/// cache-resident fragments stay `Shared` (refcounted, uncopied) and the
/// serving tier assembles the wire bytes with a vectored write. This is
/// the zero-copy exit of the Controller; [`WebResponseParts::flatten`]
/// recovers the flat form for tests and non-HTTP callers.
#[derive(Debug, Clone)]
pub struct WebResponseParts {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<presentation::HtmlChunk>,
    /// Session id to set as a cookie, if a new session was created.
    pub set_session: Option<String>,
    /// Strong entity tag derived from the page's dependency versions;
    /// `None` when conditional GET is disabled.
    pub etag: Option<String>,
}

impl WebResponseParts {
    /// Wrap an already-flat body in a single owned chunk.
    pub fn from_flat(resp: WebResponse) -> WebResponseParts {
        WebResponseParts {
            status: resp.status,
            content_type: resp.content_type,
            body: vec![presentation::HtmlChunk::Owned(resp.body)],
            set_session: resp.set_session,
            etag: resp.etag,
        }
    }

    /// Total body length in bytes across all chunks.
    pub fn body_len(&self) -> usize {
        self.body.iter().map(|c| c.as_bytes().len()).sum()
    }

    /// Concatenate the chunks back into a flat [`WebResponse`] (copies —
    /// the compatibility path, not the serving path).
    pub fn flatten(self) -> WebResponse {
        let mut body = String::with_capacity(self.body_len());
        for chunk in self.body {
            match chunk {
                presentation::HtmlChunk::Owned(s) => body.push_str(&s),
                presentation::HtmlChunk::Shared(a) => body.push_str(&String::from_utf8_lossy(&a)),
            }
        }
        WebResponse {
            status: self.status,
            content_type: self.content_type,
            body,
            set_session: self.set_session,
            etag: self.etag,
        }
    }
}

/// Percent-encode a query-string component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    url_encode_into(&mut out, s);
    out
}

/// Percent-encode `s` straight onto `out`: unreserved bytes as they are,
/// space as `+`, every other byte as `%XX` — the allocation-free form
/// hrefs are written with. Each run of unreserved bytes is copied as one
/// slice; a run is ASCII, so its ends are character boundaries.
pub fn url_encode_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if matches!(b, b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~') {
            continue;
        }
        if run < i {
            out.push_str(&s[run..i]);
        }
        if b == b' ' {
            out.push('+');
        } else {
            out.push('%');
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        }
        run = i + 1;
    }
    if run < s.len() {
        out.push_str(&s[run..]);
    }
}

/// Decode a percent-encoded component.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // a malformed escape (short or not hex) passes through
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok());
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(v) => {
                        out.push(v);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Append `name=value`, percent-encoded, to a URL under construction:
/// `?` before the first parameter, `&` before every later one.
pub(crate) fn push_query_param(url: &mut String, first: &mut bool, name: &str, value: &str) {
    url.push(if std::mem::take(first) { '?' } else { '&' });
    url_encode_into(url, name);
    url.push('=');
    url_encode_into(url, value);
}

/// Build a URL with query parameters.
pub fn build_url(path: &str, params: &[(String, String)]) -> String {
    let mut url = String::with_capacity(path.len() + 16 * params.len());
    url.push_str(path);
    let mut first = true;
    for (k, v) in params {
        push_query_param(&mut url, &mut first, k, v);
    }
    url
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_independent() {
        let a = WebRequest::get("/x")
            .with_param("b", "2")
            .with_param("a", "1");
        let b = WebRequest::get("/x")
            .with_param("a", "1")
            .with_param("b", "2");
        assert_eq!(a.params_fingerprint(), b.params_fingerprint());
        assert_eq!(a.params_fingerprint(), "a=1&b=2&");
    }

    #[test]
    fn url_encode_decode_round_trip() {
        for s in ["hello world", "a=b&c", "100%", "héllo", "plain"] {
            assert_eq!(url_decode(&url_encode(s)), s);
        }
    }

    #[test]
    fn build_url_formats_query() {
        assert_eq!(build_url("/p", &[]), "/p");
        assert_eq!(build_url("/p", &[("a".into(), "1 2".into())]), "/p?a=1+2");
    }

    #[test]
    fn decode_tolerates_malformed_percent() {
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("abc%"), "abc%");
        assert_eq!(url_decode("abc%4"), "abc%4");
        assert_eq!(url_decode("%41%4"), "A%4");
        // a multi-byte character right after `%` is not an escape
        assert_eq!(url_decode("%é1"), "%é1");
        assert_eq!(url_decode("%aé"), "%aé");
        assert_eq!(url_decode("%C3%A9"), "é");
    }

    /// The byte-at-a-time encoder `url_encode_into` was before it copied
    /// runs: the reference the run-based form must match.
    fn url_encode_bytewise(s: &str) -> String {
        let mut out = String::new();
        for b in s.bytes() {
            match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    out.push(b as char)
                }
                b' ' => out.push('+'),
                _ => out.push_str(&format!("%{b:02X}")),
            }
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn run_encoding_matches_the_bytewise_reference(
            parts in proptest::collection::vec(0usize..13, 0..40)
        ) {
            const PIECES: [&str; 13] =
                ["&", "<", "\"", "%", "+", " ", "=", "ü", "✓", "a", "Zz09", "-_.~", "é "];
            let s: String = parts.iter().map(|&p| PIECES[p]).collect();
            let mut out = String::from("/p?q=");
            url_encode_into(&mut out, &s);
            proptest::prop_assert_eq!(out, format!("/p?q={}", url_encode_bytewise(&s)));
            proptest::prop_assert_eq!(url_decode(&url_encode(&s)), s);
        }
    }

    #[test]
    fn encode_into_appends_percent_escapes() {
        let mut out = String::from("/p?q=");
        url_encode_into(&mut out, "a b&c=100% é~");
        assert_eq!(out, "/p?q=a+b%26c%3D100%25+%C3%A9~");
        assert_eq!(url_encode("a b&c=100% é~"), "a+b%26c%3D100%25+%C3%A9~");
    }
}
