//! The device-independent content of a computed unit.
//!
//! The MVC runtime turns unit beans into [`UnitContent`]; the unit rules of
//! [`crate::rules`] turn `UnitContent` into markup. This is the custom-tag
//! boundary of §3: tags "transform the content stored in the unit beans
//! into HTML" without knowing how the beans were computed.

use std::borrow::Cow;

/// A `(label, value)` pair of a displayed instance.
pub type Field<'a> = (Cow<'a, str>, Cow<'a, str>);

/// A hyperlink produced by a unit row (href + anchor label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorRef<'a> {
    pub href: String,
    pub label: Cow<'a, str>,
}

/// One row of an index-like unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentRow<'a> {
    /// Displayed fields in order: (label, value).
    pub fields: Vec<Field<'a>>,
    /// Row anchor (index units link each row).
    pub anchor: Option<AnchorRef<'a>>,
    /// Checkbox value for multichoice rows.
    pub checkbox: Option<String>,
}

/// One row of a hierarchical index, with nested children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NestedRow<'a> {
    pub fields: Vec<Field<'a>>,
    pub anchor: Option<AnchorRef<'a>>,
    pub children: Vec<NestedRow<'a>>,
}

/// One input of a rendered form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormField<'a> {
    pub name: Cow<'a, str>,
    pub label: Cow<'a, str>,
    /// HTML input type (`text`, `number`, `checkbox`, ...).
    pub input_type: Cow<'a, str>,
    pub required: bool,
    /// Client-side validation pattern, emitted as a `pattern` attribute
    /// (§1: "client-side processing (like input validation) should be
    /// factored out of the code generation process").
    pub pattern: Option<Cow<'a, str>>,
}

/// The content of an entry unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormContent<'a> {
    /// Submit target URL.
    pub action: Cow<'a, str>,
    pub fields: Vec<FormField<'a>>,
    pub submit_label: Cow<'a, str>,
    /// Hidden parameters propagated with the form.
    pub hidden: Vec<Field<'a>>,
}

/// Scroller block-navigation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pager {
    pub prev: Option<String>,
    pub next: Option<String>,
    /// e.g. "11-20 of 134".
    pub position: String,
}

/// Kind-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentBody<'a> {
    /// Data unit: one instance as (label, value) pairs.
    Single(Vec<Field<'a>>),
    /// Index / multidata / multichoice / scroller rows.
    Rows(Vec<ContentRow<'a>>),
    /// Hierarchical index.
    Nested(Vec<NestedRow<'a>>),
    /// Entry unit form.
    Form(FormContent<'a>),
    /// Raw markup from a plug-in unit.
    Raw(Cow<'a, str>),
}

/// The complete renderable content of one computed unit.
///
/// Content borrows from what it presents — the unit descriptor and the
/// unit bean — so building it copies no label and no text value; only
/// hrefs, non-text values and the pager are minted per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitContent<'a> {
    /// Unit descriptor id.
    pub unit: Cow<'a, str>,
    /// WebML type name (drives unit-rule matching).
    pub unit_type: Cow<'a, str>,
    /// Displayed unit title (the unit's model name).
    pub title: Cow<'a, str>,
    pub body: ContentBody<'a>,
    pub pager: Option<Pager>,
    /// Unit-level action links (e.g. "edit" from a data unit).
    pub actions: Vec<AnchorRef<'a>>,
}

impl UnitContent<'_> {
    /// Number of instance rows (for stats and paging UIs).
    pub fn row_count(&self) -> usize {
        match &self.body {
            ContentBody::Single(_) => 1,
            ContentBody::Rows(r) => r.len(),
            ContentBody::Nested(r) => r.len(),
            ContentBody::Form(_) | ContentBody::Raw(_) => 0,
        }
    }
}

/// HTML-escape a text fragment.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_html_into(&mut out, s);
    out
}

/// HTML-escape `s` directly into `out` — the allocation-free form for
/// render loops that reuse one buffer across many values.
pub fn escape_html_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_by_body() {
        let single = UnitContent {
            unit: "u".into(),
            unit_type: "data".into(),
            title: "T".into(),
            body: ContentBody::Single(vec![("a".into(), "1".into())]),
            pager: None,
            actions: vec![],
        };
        assert_eq!(single.row_count(), 1);
        let rows = UnitContent {
            body: ContentBody::Rows(vec![ContentRow::default(), ContentRow::default()]),
            ..single.clone()
        };
        assert_eq!(rows.row_count(), 2);
        let form = UnitContent {
            body: ContentBody::Form(FormContent {
                action: "/x".into(),
                fields: vec![],
                submit_label: "Go".into(),
                hidden: vec![],
            }),
            ..single
        };
        assert_eq!(form.row_count(), 0);
    }

    #[test]
    fn escape_html_covers_specials() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape_html("plain"), "plain");
    }
}
