//! The View side: unit programs that write beans straight into the page.
//!
//! This is the job §3 assigns to custom tags: "transforming the content
//! stored in the unit beans into HTML". Everything about a unit's markup
//! that does not depend on data — its title, the targets, parameter names
//! and labels of its links, its entry form — is rendered once, when the
//! plan compiles the unit into a [`UnitProgram`]; the rule set contributes
//! the literal markup around the cells as a [`UnitSkin`] per unit type.
//! Per request a program only copies cells from the bean: escaped text,
//! integer oids, percent-encoded href parameters, and the scroller's
//! pager. Hrefs resolve the page's navigable links to the
//! controller-mapped URLs — templates never embed control logic (§3's
//! first key issue).

use crate::beans::{NestedBeanRow, Shape, UnitBean};
use crate::request::{url_encode, url_encode_into};
use crate::services::{block_offset, ParamMap};
use descriptors::{PageDescriptor, UnitDescriptor, UnitLinkSpec};
use presentation::{escape_html, escape_html_into, UnitSkin};
use relstore::Value;
use std::fmt::Write;
use std::sync::Arc;

#[cfg(test)]
mod oracle;

/// Where a link parameter's value comes from.
enum Source {
    Oid,
    /// A row property, by name: resolved to a position once per shape.
    Attribute(String),
    /// A constant, percent-encoded at compile time.
    Constant(String),
}

/// A navigable link leaving the unit, compiled.
struct Link {
    /// Target URL as the controller maps it, written as it is.
    target: String,
    /// Percent-encoded parameter names and their sources.
    params: Vec<(String, Source)>,
    /// The escaped label: the text of an anchor whose row shows nothing.
    label: String,
    /// The escaped label (target URL when the label is empty): the text
    /// of a data unit's action.
    action: String,
}

impl Link {
    fn compile(l: &UnitLinkSpec) -> Link {
        let params = l.params.iter().filter_map(|p| {
            let source = match p.source_kind.as_str() {
                "oid" => Source::Oid,
                "attribute" => Source::Attribute(p.source.clone()),
                "constant" => Source::Constant(url_encode(&p.source)),
                // fields flow through forms, session values never reach markup
                _ => return None,
            };
            Some((url_encode(&p.name), source))
        });
        let action = if l.label.is_empty() {
            &l.target_url
        } else {
            &l.label
        };
        Link {
            target: l.target_url.clone(),
            params: params.collect(),
            label: escape_html(&l.label),
            action: escape_html(action),
        }
    }

    /// Resolve the attribute parameters against one bean shape: once per
    /// unit render (or hierarchy level), not once per row.
    fn bind(&self, shape: &Shape) -> BoundLink<'_> {
        let attributes = self.params.iter().filter_map(|(_, source)| match source {
            Source::Attribute(name) => Some(shape.position(name)),
            _ => None,
        });
        BoundLink {
            link: self,
            attributes: attributes.collect(),
        }
    }
}

/// A link whose attribute parameters are cell positions (`None`: the
/// shape lacks the property), one per attribute parameter in order.
struct BoundLink<'p> {
    link: &'p Link,
    attributes: Vec<Option<usize>>,
}

impl BoundLink<'_> {
    /// Write the href of the link for one row: the target URL, then every
    /// parameter the row binds, percent-encoded in place.
    fn href(&self, shape: &Shape, row: &[Value], out: &mut String) {
        out.push_str(&self.link.target);
        let mut sep = '?';
        let mut attributes = self.attributes.iter();
        for (name, source) in &self.link.params {
            let mark = out.len();
            out.push(sep);
            out.push_str(name);
            out.push('=');
            let bound = match source {
                Source::Oid => shape.oid(row).map(|oid| write_int(out, oid)),
                Source::Attribute(_) => attributes
                    .next()
                    .and_then(|at| row.get((*at)?))
                    .map(|v| push_value(out, v, url_encode_into)),
                Source::Constant(encoded) => {
                    out.push_str(encoded);
                    Some(())
                }
            };
            match bound {
                Some(()) => sep = '&',
                None => out.truncate(mark),
            }
        }
    }
}

/// Write an integer's digits without a temporary `String`.
fn write_int(out: &mut String, i: impl std::fmt::Display) {
    let _ = write!(out, "{i}");
}

/// Write a value through `text` — the HTML escaper for a cell, the
/// percent-encoder for a URL parameter. Text and integers are written in
/// place; other values are rendered first.
fn push_value(out: &mut String, v: &Value, text: fn(&mut String, &str)) {
    match v {
        Value::Text(s) => text(out, s),
        Value::Integer(i) | Value::Timestamp(i) => write_int(out, i),
        Value::Null => {}
        other => text(out, &other.render()),
    }
}

/// The compiled view of one unit: everything its markup needs that does
/// not depend on data, rendered once at deploy. Rule-independent — one
/// program serves every rule set, each adding its [`UnitSkin`].
pub struct UnitProgram {
    /// `<h2 class="unit-title">…</h2>` and a newline; empty for an
    /// unnamed unit.
    title: String,
    /// Outgoing links in page order: the first anchors rows, all of them
    /// are a data unit's actions.
    links: Vec<Link>,
    /// Rows carry a selection checkbox.
    multichoice: bool,
    /// The block size of a scroller: its rows come with a pager.
    pager: Option<usize>,
    /// The whole form of an entry unit.
    form: String,
}

impl UnitProgram {
    /// Compile a unit: `links` are the navigable links leaving it, in
    /// page order, `page_url` the URL of its page.
    pub fn compile(desc: &UnitDescriptor, links: &[UnitLinkSpec], page_url: &str) -> UnitProgram {
        let mut title = String::new();
        if !desc.name.is_empty() {
            title.push_str("<h2 class=\"unit-title\">");
            escape_html_into(&mut title, &desc.name);
            title.push_str("</h2>\n");
        }
        UnitProgram {
            title,
            links: links.iter().map(Link::compile).collect(),
            multichoice: desc.unit_type == "multichoice",
            pager: desc.block_size.filter(|_| desc.unit_type == "scroller"),
            form: form(desc, links.first(), page_url),
        }
    }

    /// Write the unit's markup for `bean` onto `out` in the look of
    /// `skin`. `request` feeds the scroller's pager links so paging
    /// preserves page context — the one place markup embeds the raw
    /// request (the page plan keys such fragments on it).
    pub fn render(
        &self,
        skin: &UnitSkin,
        bean: &UnitBean,
        page_url: &str,
        request: &ParamMap,
        out: &mut String,
    ) {
        if skin.show_title {
            out.push_str(&self.title);
        }
        match bean {
            UnitBean::Single { shape, row } => {
                out.push_str("<table class=\"data-unit\">\n");
                let Some(row) = row else {
                    out.push_str("</table>\n");
                    return;
                };
                for &at in shape.shown() {
                    out.push_str("<tr><th>");
                    escape_html_into(out, &shape.names()[at]);
                    out.push_str(&skin.cell);
                    if let Some(v) = row.get(at) {
                        push_value(out, v, escape_html_into);
                    }
                    out.push_str("</td></tr>\n");
                }
                out.push_str("</table>\n");
                // unit-level actions: every outgoing link, parameterised
                // by the single instance
                if !self.links.is_empty() {
                    out.push_str("<div class=\"unit-actions\">");
                    for link in &self.links {
                        out.push_str(&skin.anchor);
                        link.bind(shape).href(shape, row, out);
                        out.push_str("\">");
                        out.push_str(&link.action);
                        out.push_str("</a> ");
                    }
                    out.push_str("</div>\n");
                }
            }
            UnitBean::Rows { shape, rows, total } => {
                out.push_str(&skin.list);
                let anchor = self.links.first().map(|l| l.bind(shape));
                for (i, row) in rows.iter().enumerate() {
                    out.push_str(if i % 2 == 1 { &skin.row_alt } else { &skin.row });
                    if self.multichoice {
                        if let Some(oid) = shape.oid(row) {
                            let _ = write!(
                                out,
                                "<input type=\"checkbox\" name=\"selection\" value=\"{oid}\"/>"
                            );
                        }
                    }
                    row_text(skin, shape, row, anchor.as_ref(), out);
                    out.push_str("</li>\n");
                }
                out.push_str("</ul>\n");
                if let Some(block) = self.pager {
                    pager(out, block, rows.len(), *total, page_url, request);
                }
            }
            UnitBean::Nested { shapes, rows } => self.nested(skin, shapes, rows, out),
            UnitBean::Form => out.push_str(&self.form),
            UnitBean::Raw(html) => out.push_str(html),
        }
    }

    /// A hierarchy level: every row's text, anchored on leaves only.
    fn nested(
        &self,
        skin: &UnitSkin,
        shapes: &[Arc<Shape>],
        rows: &[NestedBeanRow],
        out: &mut String,
    ) {
        let unshaped = Shape::default();
        let (shape, below) = match shapes.split_first() {
            Some((shape, below)) => (&**shape, below),
            None => (&unshaped, shapes),
        };
        let anchor = self.links.first().map(|l| l.bind(shape));
        out.push_str("<ul class=\"hierarchy-unit\">\n");
        for row in rows {
            out.push_str(&skin.nested_row);
            let leaf = row.children.is_empty();
            row_text(skin, shape, &row.row, anchor.as_ref().filter(|_| leaf), out);
            if !leaf {
                self.nested(skin, below, &row.children, out);
            }
            out.push_str("</li>\n");
        }
        out.push_str("</ul>\n");
    }
}

/// A row's displayed cells joined by ` — `, inside its anchor (labelled
/// by the link's own label when the cells render empty) or a span.
fn row_text(
    skin: &UnitSkin,
    shape: &Shape,
    row: &[Value],
    anchor: Option<&BoundLink<'_>>,
    out: &mut String,
) {
    match anchor {
        Some(a) => {
            out.push_str(&skin.anchor);
            a.href(shape, row, out);
            out.push_str("\">");
        }
        None => out.push_str(&skin.value),
    }
    let start = out.len();
    for (i, &at) in shape.shown().iter().enumerate() {
        if i > 0 {
            out.push_str(" — ");
        }
        if let Some(v) = row.get(at) {
            push_value(out, v, escape_html_into);
        }
    }
    match anchor {
        Some(a) => {
            if out.len() == start {
                out.push_str(&a.link.label);
            }
            out.push_str("</a>");
        }
        None => out.push_str("</span>"),
    }
}

/// The scroller's pager: the block shown is the block the service
/// computed, since both read `block_offset` through one helper.
fn pager(out: &mut String, block: usize, rows: usize, total: usize, url: &str, req: &ParamMap) {
    let offset = block_offset(req);
    let shown = offset.saturating_add(rows);
    out.push_str("<div class=\"pager\">");
    if offset > 0 {
        out.push_str("<a href=\"");
        pager_href(out, url, req, offset.saturating_sub(block));
        out.push_str("\">&lt; prev</a> ");
    }
    let _ = match total {
        0 => write!(out, "<span>0 of 0</span>"),
        _ => write!(
            out,
            "<span>{}-{shown} of {total}</span>",
            offset.saturating_add(1)
        ),
    };
    if shown < total {
        out.push_str(" <a href=\"");
        pager_href(out, url, req, offset.saturating_add(block));
        out.push_str("\">next &gt;</a>");
    }
    out.push_str("</div>\n");
}

/// A pager href: the page URL with every request parameter but
/// `block_offset`, then `block_offset` itself.
fn pager_href(out: &mut String, page_url: &str, request: &ParamMap, offset: usize) {
    out.push_str(page_url);
    let mut sep = '?';
    for (k, v) in request.iter().filter(|(k, _)| *k != "block_offset") {
        out.push(sep);
        sep = '&';
        url_encode_into(out, k);
        out.push('=');
        push_value(out, v, url_encode_into);
    }
    let _ = write!(out, "{sep}block_offset={offset}");
}

/// The markup of an entry unit: a form submitting to the first link's
/// target (the page itself without one), its fields named after the
/// link parameters they feed so the target receives them under the names
/// it expects, and the link's constant parameters as hidden inputs.
fn form(desc: &UnitDescriptor, primary: Option<&UnitLinkSpec>, page_url: &str) -> String {
    let mut out = String::from("<form class=\"entry-unit\" method=\"get\" action=\"");
    out.push_str(primary.map_or(page_url, |l| l.target_url.as_str()));
    out.push_str("\">\n");
    let params = primary.map_or(&[][..], |l| l.params.as_slice());
    for p in params.iter().filter(|p| p.source_kind == "constant") {
        out.push_str("<input type=\"hidden\" name=\"");
        escape_html_into(&mut out, &p.name);
        out.push_str("\" value=\"");
        escape_html_into(&mut out, &p.source);
        out.push_str("\"/>\n");
    }
    for f in &desc.fields {
        let name = params
            .iter()
            .find(|p| p.source_kind == "field" && p.source == f.name)
            .map_or(f.name.as_str(), |p| p.name.as_str());
        out.push_str("<label>");
        escape_html_into(&mut out, &f.name);
        out.push_str(" <input type=\"");
        out.push_str(match f.field_type.as_str() {
            "Integer" | "Float" => "number",
            "Boolean" => "checkbox",
            "Date" => "date",
            _ => "text",
        });
        out.push_str("\" name=\"");
        escape_html_into(&mut out, name);
        out.push('"');
        if f.required {
            out.push_str(" required");
        }
        if let Some(p) = &f.pattern {
            out.push_str(" pattern=\"");
            escape_html_into(&mut out, p);
            out.push('"');
        }
        out.push_str("/></label>\n");
    }
    out.push_str("<input type=\"submit\" value=\"");
    let submit = primary.map_or("", |l| l.label.as_str());
    escape_html_into(&mut out, if submit.is_empty() { "Submit" } else { submit });
    out.push_str("\"/>\n</form>\n");
    out
}

/// Global navigation of a site view — `landmarks` are its landmark pages
/// — as seen from the page `current`. Depends only on (site view, page),
/// so the page plan renders it once at deploy.
///
/// Renders into one reused buffer: every landmark appends in place via
/// [`presentation::escape_html_into`] instead of minting per-row `format!`
/// temporaries (the allocation-churn bug this renderer used to have).
pub fn navigation_html(landmarks: &[&PageDescriptor], current: &str) -> String {
    let mut out = String::from("<nav class=\"landmarks\">");
    for p in landmarks {
        if p.id == current {
            out.push_str("<span class=\"current\">");
            presentation::escape_html_into(&mut out, &p.name);
            out.push_str("</span> ");
        } else {
            out.push_str("<a href=\"");
            out.push_str(&p.url);
            out.push_str("\">");
            presentation::escape_html_into(&mut out, &p.name);
            out.push_str("</a> ");
        }
    }
    out.push_str("</nav>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beans::BeanRow;
    use descriptors::{FieldSpec, ParamBinding, QuerySpec};
    use presentation::RuleSet;

    fn page(links: Vec<UnitLinkSpec>) -> PageDescriptor {
        PageDescriptor {
            id: "page0".into(),
            name: "P".into(),
            site_view: "sv".into(),
            url: "/sv/p".into(),
            units: vec!["unit0".into()],
            edges: vec![],
            links,
            request_params: vec![],
            layout: "single-column".into(),
            template: "t.jsp".into(),
            landmark: false,
            protected: false,
        }
    }

    fn desc(unit_type: &str) -> UnitDescriptor {
        UnitDescriptor {
            id: "unit0".into(),
            name: "My unit".into(),
            unit_type: unit_type.into(),
            page: "page0".into(),
            entity_table: Some("t".into()),
            queries: vec![QuerySpec {
                name: "main".into(),
                sql: String::new(),
                inputs: vec![],
                bean: vec![],
            }],
            block_size: None,
            fields: vec![],
            optimized: false,
            service: String::new(),
            depends_on: vec![],
            cache: None,
        }
    }

    fn link(params: Vec<ParamBinding>) -> UnitLinkSpec {
        UnitLinkSpec {
            from: "unit0".into(),
            target_url: "/sv/detail".into(),
            label: "open".into(),
            params,
        }
    }

    fn param(name: &str, kind: &str, source: &str) -> ParamBinding {
        ParamBinding {
            name: name.into(),
            source_kind: kind.into(),
            source: source.into(),
        }
    }

    fn oid_param() -> ParamBinding {
        param("item", "oid", "")
    }

    fn shape() -> Arc<Shape> {
        Arc::new(Shape::new(["oid", "title"]))
    }

    fn row(oid: i64, title: &str) -> BeanRow {
        vec![Value::Integer(oid), Value::Text(title.into())]
    }

    fn rows(rows: Vec<BeanRow>, total: usize) -> UnitBean {
        UnitBean::Rows {
            shape: shape(),
            rows,
            total,
        }
    }

    /// Render `bean` as unit `d` of a page with `links`, in desktop look.
    fn render_with(
        d: &UnitDescriptor,
        links: &[UnitLinkSpec],
        bean: &UnitBean,
        request: &ParamMap,
    ) -> String {
        let skin = RuleSet::default_desktop("desktop").skin(&d.unit_type);
        let mut out = String::new();
        UnitProgram::compile(d, links, "/sv/p").render(&skin, bean, "/sv/p", request, &mut out);
        out
    }

    fn render(d: &UnitDescriptor, links: &[UnitLinkSpec], bean: &UnitBean) -> String {
        render_with(d, links, bean, &ParamMap::new())
    }

    #[test]
    fn index_rows_get_anchors_with_oid_and_zebra() {
        let p = page(vec![link(vec![oid_param()])]);
        let html = render(
            &desc("index"),
            &p.links,
            &rows(vec![row(1, "a"), row(2, "b"), row(3, "c")], 3),
        );
        assert_eq!(
            html,
            "<h2 class=\"unit-title\">My unit</h2>\n<ul class=\"index-unit\">\n\
             <li class=\"row\"><a class=\"unit-link\" href=\"/sv/detail?item=1\">a</a></li>\n\
             <li class=\"row alt\"><a class=\"unit-link\" href=\"/sv/detail?item=2\">b</a></li>\n\
             <li class=\"row\"><a class=\"unit-link\" href=\"/sv/detail?item=3\">c</a></li>\n\
             </ul>\n"
        );
    }

    #[test]
    fn rows_without_a_link_are_spans_and_join_their_cells() {
        let bean = UnitBean::Rows {
            shape: Arc::new(Shape::new(["title", "OID", "year"])),
            rows: vec![vec![
                Value::Text("A<b>".into()),
                Value::Integer(4),
                Value::Integer(2002),
            ]],
            total: 1,
        };
        let html = render(&desc("multidata"), &[], &bean);
        assert!(
            html.contains("<li class=\"row\"><span class=\"value\">A&lt;b&gt; — 2002</span></li>")
        );
    }

    #[test]
    fn multichoice_rows_get_checkboxes() {
        let html = render(&desc("multichoice"), &[], &rows(vec![row(5, "x")], 1));
        assert!(html.contains("<input type=\"checkbox\" name=\"selection\" value=\"5\"/>"));
        // no oid, no checkbox
        let bean = UnitBean::Rows {
            shape: shape(),
            rows: vec![vec![Value::Null, Value::Text("x".into())]],
            total: 1,
        };
        assert!(!render(&desc("multichoice"), &[], &bean).contains("checkbox"));
    }

    #[test]
    fn data_unit_shows_labels_and_exposes_actions() {
        let mut unlabelled = link(vec![oid_param()]);
        unlabelled.label = String::new();
        let p = page(vec![link(vec![oid_param()]), unlabelled]);
        let bean = UnitBean::Single {
            shape: shape(),
            row: Some(row(7, "TODS & co")),
        };
        let html = render(&desc("data"), &p.links, &bean);
        assert_eq!(
            html,
            "<h2 class=\"unit-title\">My unit</h2>\n<table class=\"data-unit\">\n\
             <tr><th>title</th><td class=\"value\">TODS &amp; co</td></tr>\n</table>\n\
             <div class=\"unit-actions\"><a class=\"unit-link\" href=\"/sv/detail?item=7\">open</a> \
             <a class=\"unit-link\" href=\"/sv/detail?item=7\">/sv/detail</a> </div>\n"
        );
        // no instance: an empty table and no actions
        let empty = UnitBean::Single {
            shape: shape(),
            row: None,
        };
        assert_eq!(
            render(&desc("data"), &p.links, &empty),
            "<h2 class=\"unit-title\">My unit</h2>\n<table class=\"data-unit\">\n</table>\n"
        );
    }

    #[test]
    fn hrefs_bind_attributes_and_constants_percent_encoded() {
        let p = page(vec![link(vec![
            param("q x", "attribute", "TITLE"),
            param("c", "constant", "a b&ü"),
            param("gone", "attribute", "missing"),
            param("f", "field", "keyword"),
            oid_param(),
        ])]);
        let html = render(&desc("index"), &p.links, &rows(vec![row(3, "100% <b>")], 1));
        assert!(
            html.contains("href=\"/sv/detail?q+x=100%25+%3Cb%3E&c=a+b%26%C3%BC&item=3\">"),
            "{html}"
        );
    }

    #[test]
    fn an_anchor_whose_row_shows_nothing_is_labelled_by_its_link() {
        let p = page(vec![link(vec![oid_param()])]);
        let html = render(&desc("index"), &p.links, &rows(vec![row(1, "")], 1));
        assert!(
            html.contains("href=\"/sv/detail?item=1\">open</a>"),
            "{html}"
        );
        let only_oid = UnitBean::Rows {
            shape: Arc::new(Shape::new(["oid"])),
            rows: vec![vec![Value::Integer(2)]],
            total: 1,
        };
        let html = render(&desc("index"), &p.links, &only_oid);
        assert!(
            html.contains("href=\"/sv/detail?item=2\">open</a>"),
            "{html}"
        );
    }

    #[test]
    fn hierarchy_anchors_on_leaves_only() {
        let p = page(vec![link(vec![oid_param()])]);
        let bean = UnitBean::Nested {
            shapes: vec![shape(), Arc::new(Shape::new(["name", "oid"]))],
            rows: vec![NestedBeanRow {
                row: row(1, "issue"),
                children: vec![NestedBeanRow {
                    row: vec![Value::Text("paper".into()), Value::Integer(2)],
                    children: vec![],
                }],
            }],
        };
        let html = render(&desc("hierarchy"), &p.links, &bean);
        assert_eq!(
            html,
            "<h2 class=\"unit-title\">My unit</h2>\n<ul class=\"hierarchy-unit\">\n\
             <li><span class=\"value\">issue</span><ul class=\"hierarchy-unit\">\n\
             <li><a class=\"unit-link\" href=\"/sv/detail?item=2\">paper</a></li>\n\
             </ul>\n</li>\n</ul>\n"
        );
    }

    #[test]
    fn form_fields_renamed_to_link_params() {
        let mut d = desc("entry");
        d.fields = vec![FieldSpec {
            name: "keyword".into(),
            field_type: "String".into(),
            required: true,
            pattern: Some(".{2,}\"".into()),
        }];
        let mut l = link(vec![
            param("kw", "field", "keyword"),
            param("volume", "constant", "7"),
        ]);
        l.label = String::new();
        let html = render(&d, &[l], &UnitBean::Form);
        assert_eq!(
            html,
            "<h2 class=\"unit-title\">My unit</h2>\n\
             <form class=\"entry-unit\" method=\"get\" action=\"/sv/detail\">\n\
             <input type=\"hidden\" name=\"volume\" value=\"7\"/>\n\
             <label>keyword <input type=\"text\" name=\"kw\" required pattern=\".{2,}&quot;\"/></label>\n\
             <input type=\"submit\" value=\"Submit\"/>\n</form>\n"
        );
        // no link: the form submits to its own page
        assert!(render(&d, &[], &UnitBean::Form).contains("action=\"/sv/p\""));
    }

    #[test]
    fn scroller_pager_links_preserve_params() {
        let mut d = desc("scroller");
        d.block_size = Some(10);
        let bean = rows((0..10).map(|i| row(i, "x")).collect(), 25);
        let mut params = ParamMap::new();
        params.insert("block_offset".into(), Value::Integer(10));
        params.insert("category".into(), Value::Text("note books".into()));
        let html = render_with(&d, &[], &bean, &params);
        assert!(html.ends_with(
            "<div class=\"pager\"><a href=\"/sv/p?category=note+books&block_offset=0\">&lt; prev</a> \
             <span>11-20 of 25</span> \
             <a href=\"/sv/p?category=note+books&block_offset=20\">next &gt;</a></div>\n"
        ));
        // the first block has no prev, the last no next, an empty one says so
        let first = render(&d, &[], &bean);
        assert!(first.contains("<div class=\"pager\"><span>1-10 of 25</span> <a href="));
        params.insert("block_offset".into(), Value::Integer(20));
        let last = render_with(&d, &[], &rows(vec![row(1, "x")], 21), &params);
        assert!(last.contains("&lt; prev</a> <span>21-21 of 21</span></div>"));
        let empty = render(&d, &[], &rows(vec![], 0));
        assert!(empty.ends_with("<div class=\"pager\"><span>0 of 0</span></div>\n"));
        // only scrollers page
        assert!(!render(&desc("index"), &[], &bean).contains("pager"));
    }

    #[test]
    fn raw_units_pass_through_under_their_title() {
        let html = render(&desc("plugin"), &[], &UnitBean::Raw("<custom/>".into()));
        assert_eq!(html, "<h2 class=\"unit-title\">My unit</h2>\n<custom/>");
        // a rule set that hides titles
        let skin = RuleSet::minimal_device("pda").skin("plugin");
        let mut out = String::new();
        UnitProgram::compile(&desc("plugin"), &[], "/sv/p").render(
            &skin,
            &UnitBean::Raw("<custom/>".into()),
            "/sv/p",
            &ParamMap::new(),
            &mut out,
        );
        assert_eq!(out, "<custom/>");
    }

    #[test]
    fn navigation_marks_current_page() {
        let mut p1 = page(vec![]);
        p1.landmark = true;
        let mut p2 = page(vec![]);
        p2.id = "page1".into();
        p2.name = "Other".into();
        p2.url = "/sv/other".into();
        p2.landmark = true;
        let nav = navigation_html(&[&p1, &p2], "page0");
        assert!(nav.contains("<span class=\"current\">P</span>"));
        assert!(nav.contains("<a href=\"/sv/other\">Other</a>"));
    }

    /// A listing unit allocates a constant number of times whatever its
    /// row count: each row is written straight from the bean into the
    /// (pre-sized) page, with no per-row field list, href or digits.
    #[test]
    fn listing_unit_allocations_do_not_grow_with_rows() {
        let d = desc("index");
        let p = page(vec![link(vec![
            oid_param(),
            param("t", "attribute", "name"),
        ])]);
        let program = UnitProgram::compile(&d, &p.links, &p.url);
        let skin = RuleSet::default_desktop("desktop").skin("index");
        let shape = Arc::new(Shape::new(["oid", "title", "name"]));
        let allocations = |n: i64| {
            let bean = UnitBean::Rows {
                shape: Arc::clone(&shape),
                rows: (0..n)
                    .map(|i| {
                        vec![
                            Value::Integer(1000 + i),
                            Value::Text(format!("Title <{i}>").into()),
                            Value::Text(format!("naïve & {i}").into()),
                        ]
                    })
                    .collect(),
                total: n as usize,
            };
            let request = ParamMap::new();
            let mut out = String::with_capacity(1 << 20);
            // warm-up outside the measured window (lazy runtime init)
            program.render(&skin, &bean, &p.url, &request, &mut out);
            let last = format!(
                "href=\"/sv/detail?item={}&t=na%C3%AFve+%26+{}\">Title &lt;{}&gt; — naïve &amp; {}</a>",
                999 + n,
                n - 1,
                n - 1,
                n - 1
            );
            assert!(out.contains(&last), "{out}");
            out.clear();
            let (allocs, ()) = crate::alloc_counter::allocations_during(|| {
                program.render(&skin, &bean, &p.url, &request, &mut out)
            });
            allocs
        };
        let (hundred, thousand) = (allocations(100), allocations(1000));
        assert_eq!(
            hundred, thousand,
            "100 rows allocate {hundred} times, 1,000 rows {thousand}: \
             per-row temporaries are back"
        );
        assert!(hundred <= 2, "{hundred} allocations per listing unit");
    }

    #[test]
    fn navigation_reuses_one_buffer_instead_of_per_row_temporaries() {
        // 32 landmark pages: the old renderer minted >=2 format!/escape
        // temporaries per landmark (>=64 allocations); the reused-buffer
        // form only pays for growth of the single output String.
        let landmarks = 32;
        let pages: Vec<PageDescriptor> = (0..landmarks)
            .map(|i| {
                let mut p = page(vec![]);
                p.id = format!("page{i}");
                p.name = format!("Page & {i}");
                p.url = format!("/sv/p{i}");
                p.landmark = true;
                p
            })
            .collect();
        let pages: Vec<&PageDescriptor> = pages.iter().collect();
        // warm-up outside the measured window (lazy runtime init)
        let warm = navigation_html(&pages, "page0");
        assert!(warm.contains("Page &amp; 31"));
        let (allocs, nav) =
            crate::alloc_counter::allocations_during(|| navigation_html(&pages, "page0"));
        assert_eq!(nav, warm);
        assert!(
            allocs < landmarks,
            "navigation_html allocated {allocs} times for {landmarks} landmarks \
             (per-row temporaries are back)"
        );
    }
}
