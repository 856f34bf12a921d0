//! HTML escaping for text written into markup.
//!
//! Every dynamic value the view writes — cell text, labels, titles,
//! template attribute values — goes through [`escape_html_into`], which
//! scans bytes and copies each run between two specials with one
//! `push_str`.

/// HTML-escape a text fragment.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_html_into(&mut out, s);
    out
}

/// HTML-escape `s` directly into `out`: `&`, `<`, `>` and `"` become
/// entities, and every run of other bytes is copied as one slice. The
/// specials are ASCII, so each run boundary is a character boundary.
pub fn escape_html_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-at-a-time escaper this module used before it copied runs:
    /// the reference the run-based form must match byte for byte.
    fn escape_html_charwise(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                _ => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_html_covers_specials() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape_html("plain"), "plain");
        assert_eq!(escape_html(""), "");
        assert_eq!(escape_html("&&"), "&amp;&amp;");
    }

    proptest::proptest! {
        #[test]
        fn run_escaping_matches_the_charwise_reference(
            parts in proptest::collection::vec(0usize..12, 0..40)
        ) {
            const PIECES: [&str; 12] =
                ["&", "<", ">", "\"", "%", "+", " ", "ü", "✓", "a", "Zz09", "'"];
            let s: String = parts.iter().map(|&p| PIECES[p]).collect();
            let mut out = String::from("prefix:");
            escape_html_into(&mut out, &s);
            proptest::prop_assert_eq!(out, format!("prefix:{}", escape_html_charwise(&s)));
        }
    }
}
