//! The View side: turning unit beans into [`presentation::UnitContent`].
//!
//! This is the job §3 assigns to custom tags: "transforming the content
//! stored in the unit beans into HTML". The conversion resolves the page's
//! navigable links into concrete hrefs (row anchors, form actions, pager
//! links) using the controller-mapped URLs — templates never embed control
//! logic (§3's first key issue).

use crate::beans::{BeanRow, NestedBeanRow, UnitBean};
use crate::request::push_query_param;
use crate::services::{block_offset, ParamMap};
use descriptors::{PageDescriptor, UnitDescriptor, UnitLinkSpec};
use presentation::{
    AnchorRef, ContentBody, ContentRow, Field, FormContent, FormField, NestedRow, Pager,
    UnitContent,
};
use relstore::Value;
use std::borrow::Cow;

#[cfg(test)]
mod oracle;

/// A value as displayed and as a URL parameter: text is borrowed as it
/// is, any other value is rendered.
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.render()),
    }
}

/// The href of a link for one row, written once: the target URL, then
/// every parameter the row binds — its oid, one of its attributes, or a
/// constant — percent-encoded in place.
fn row_href(link: &UnitLinkSpec, row: &BeanRow) -> String {
    // room for every `?name=value` with a short value: one allocation
    let room: usize = link.params.iter().map(|p| p.name.len() + 24).sum();
    let mut href = String::with_capacity(link.target_url.len() + room);
    href.push_str(&link.target_url);
    let mut first = true;
    for p in &link.params {
        let value = match p.source_kind.as_str() {
            "oid" => row.oid().map(|oid| Cow::Owned(oid.to_string())),
            "attribute" => row.get(&p.source).map(text),
            "constant" => Some(Cow::Borrowed(p.source.as_str())),
            _ => None,
        };
        if let Some(v) = value {
            push_query_param(&mut href, &mut first, &p.name, &v);
        }
    }
    href
}

/// The displayed `(label, value)` pairs of a row: every property but the
/// oid, borrowed from the bean.
fn fields(row: &BeanRow) -> Vec<Field<'_>> {
    let mut out = Vec::with_capacity(row.values.len());
    out.extend(
        row.values
            .iter()
            .filter(|(n, _)| !n.eq_ignore_ascii_case("oid"))
            .map(|(n, v)| (Cow::Borrowed(&**n), text(v))),
    );
    out
}

fn nested_rows<'a>(
    rows: &'a [NestedBeanRow],
    link: Option<&'a UnitLinkSpec>,
) -> Vec<NestedRow<'a>> {
    rows.iter()
        .map(|r| NestedRow {
            fields: fields(&r.row),
            anchor: link.filter(|_| r.children.is_empty()).map(|l| AnchorRef {
                href: row_href(l, &r.row),
                label: Cow::Borrowed(&l.label),
            }),
            children: nested_rows(&r.children, link),
        })
        .collect()
}

/// A scroller pager href: the page URL with every request parameter but
/// `block_offset`, then `block_offset` itself.
fn pager_href(page_url: &str, request_params: &ParamMap, offset: usize) -> String {
    let mut href = String::with_capacity(page_url.len() + 32);
    href.push_str(page_url);
    let mut first = true;
    for (k, v) in request_params {
        if k != "block_offset" {
            push_query_param(&mut href, &mut first, k, &text(v));
        }
    }
    push_query_param(&mut href, &mut first, "block_offset", &offset.to_string());
    href
}

/// Convert a computed bean into renderable content.
///
/// `links` are the navigable links leaving this unit, `page_url` the URL
/// of its page. `request_params` feeds the scroller's pager links so
/// paging preserves page context — the one place markup embeds the raw
/// request (the page plan keys such fragments on it). The content borrows
/// labels, titles and text values from `desc`, `links` and `bean`; it
/// mints only hrefs, rendered non-text values and the pager.
pub fn unit_content<'a>(
    desc: &'a UnitDescriptor,
    links: &'a [UnitLinkSpec],
    page_url: &'a str,
    bean: &'a UnitBean,
    request_params: &ParamMap,
) -> UnitContent<'a> {
    let primary = links.first();
    let mut actions = Vec::new();

    let body = match bean {
        UnitBean::Single(row) => {
            // unit-level actions: every outgoing link of a data unit,
            // parameterised by its single instance
            if let Some(r) = row {
                for l in links {
                    actions.push(AnchorRef {
                        href: row_href(l, r),
                        label: Cow::Borrowed(if l.label.is_empty() {
                            &l.target_url
                        } else {
                            &l.label
                        }),
                    });
                }
            }
            ContentBody::Single(row.as_ref().map(fields).unwrap_or_default())
        }
        UnitBean::Rows { rows, .. } => {
            let multichoice = desc.unit_type == "multichoice";
            ContentBody::Rows(
                rows.iter()
                    .map(|r| ContentRow {
                        fields: fields(r),
                        anchor: primary.map(|l| AnchorRef {
                            href: row_href(l, r),
                            label: Cow::Borrowed(&l.label),
                        }),
                        checkbox: if multichoice {
                            r.oid().map(|o| o.to_string())
                        } else {
                            None
                        },
                    })
                    .collect(),
            )
        }
        UnitBean::Nested(rows) => ContentBody::Nested(nested_rows(rows, primary)),
        UnitBean::Form => {
            let action = primary.map_or(page_url, |l| l.target_url.as_str());
            // fields named after the link parameters they feed, so the
            // target receives them under the names it expects
            let fields = desc
                .fields
                .iter()
                .map(|f| {
                    let name = primary
                        .and_then(|l| {
                            l.params
                                .iter()
                                .find(|p| p.source_kind == "field" && p.source == f.name)
                        })
                        .map_or(f.name.as_str(), |p| p.name.as_str());
                    FormField {
                        name: Cow::Borrowed(name),
                        label: Cow::Borrowed(&f.name),
                        input_type: Cow::Borrowed(match f.field_type.as_str() {
                            "Integer" | "Float" => "number",
                            "Boolean" => "checkbox",
                            "Date" => "date",
                            _ => "text",
                        }),
                        required: f.required,
                        pattern: f.pattern.as_deref().map(Cow::Borrowed),
                    }
                })
                .collect();
            // propagate constant link params as hidden inputs
            let hidden = primary
                .map(|l| {
                    l.params
                        .iter()
                        .filter(|p| p.source_kind == "constant")
                        .map(|p| {
                            (
                                Cow::Borrowed(p.name.as_str()),
                                Cow::Borrowed(p.source.as_str()),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            ContentBody::Form(FormContent {
                action: Cow::Borrowed(action),
                fields,
                submit_label: Cow::Borrowed(
                    primary
                        .map(|l| l.label.as_str())
                        .filter(|l| !l.is_empty())
                        .unwrap_or("Submit"),
                ),
                hidden,
            })
        }
        UnitBean::Raw(html) => ContentBody::Raw(Cow::Borrowed(html)),
    };

    // scroller pager: the block shown is the block the service computed
    let pager = match (bean, desc.block_size) {
        (UnitBean::Rows { rows, total }, Some(block)) if desc.unit_type == "scroller" => {
            let offset = block_offset(request_params);
            let shown = offset.saturating_add(rows.len());
            Some(Pager {
                prev: (offset > 0)
                    .then(|| pager_href(page_url, request_params, offset.saturating_sub(block))),
                next: (shown < *total)
                    .then(|| pager_href(page_url, request_params, offset.saturating_add(block))),
                position: if *total == 0 {
                    "0 of 0".into()
                } else {
                    format!("{}-{} of {}", offset.saturating_add(1), shown, total)
                },
            })
        }
        _ => None,
    };

    UnitContent {
        unit: Cow::Borrowed(&desc.id),
        unit_type: Cow::Borrowed(&desc.unit_type),
        title: Cow::Borrowed(&desc.name),
        body,
        pager,
        actions,
    }
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
    use descriptors::{FieldSpec, ParamBinding, QuerySpec};
    use std::sync::Arc;

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

    fn oid_param() -> ParamBinding {
        ParamBinding {
            name: "item".into(),
            source_kind: "oid".into(),
            source: String::new(),
        }
    }

    fn row(oid: i64, title: &str) -> BeanRow {
        BeanRow {
            values: vec![
                ("oid".into(), Value::Integer(oid)),
                ("title".into(), Value::Text(title.into())),
            ],
        }
    }

    #[test]
    fn index_rows_get_anchors_with_oid() {
        let d = desc("index");
        let p = page(vec![link(vec![oid_param()])]);
        let bean = UnitBean::Rows {
            rows: vec![row(1, "a"), row(2, "b")],
            total: 2,
        };
        let c = unit_content(&d, &p.links, &p.url, &bean, &ParamMap::new());
        let ContentBody::Rows(rows) = &c.body else {
            panic!()
        };
        assert_eq!(rows[0].anchor.as_ref().unwrap().href, "/sv/detail?item=1");
        assert_eq!(rows[1].anchor.as_ref().unwrap().href, "/sv/detail?item=2");
        // oid never shows as a field
        assert_eq!(rows[0].fields, vec![("title".into(), "a".into())]);
    }

    #[test]
    fn multichoice_rows_get_checkboxes() {
        let mut d = desc("multichoice");
        d.unit_type = "multichoice".into();
        let p = page(vec![]);
        let bean = UnitBean::Rows {
            rows: vec![row(5, "x")],
            total: 1,
        };
        let c = unit_content(&d, &p.links, &p.url, &bean, &ParamMap::new());
        let ContentBody::Rows(rows) = &c.body else {
            panic!()
        };
        assert_eq!(rows[0].checkbox.as_deref(), Some("5"));
    }

    #[test]
    fn data_unit_exposes_actions() {
        let d = desc("data");
        let p = page(vec![link(vec![oid_param()])]);
        let bean = UnitBean::Single(Some(row(7, "TODS")));
        let c = unit_content(&d, &p.links, &p.url, &bean, &ParamMap::new());
        assert_eq!(c.actions.len(), 1);
        assert_eq!(c.actions[0].href, "/sv/detail?item=7");
        let ContentBody::Single(fields) = &c.body else {
            panic!()
        };
        assert_eq!(fields.len(), 1);
    }

    #[test]
    fn hierarchy_anchors_on_leaves_only() {
        let d = desc("hierarchy");
        let p = page(vec![link(vec![oid_param()])]);
        let bean = UnitBean::Nested(vec![NestedBeanRow {
            row: row(1, "issue"),
            children: vec![NestedBeanRow {
                row: row(2, "paper"),
                children: vec![],
            }],
        }]);
        let c = unit_content(&d, &p.links, &p.url, &bean, &ParamMap::new());
        let ContentBody::Nested(rows) = &c.body else {
            panic!()
        };
        assert!(rows[0].anchor.is_none());
        assert_eq!(
            rows[0].children[0].anchor.as_ref().unwrap().href,
            "/sv/detail?item=2"
        );
    }

    #[test]
    fn form_fields_renamed_to_link_params() {
        let mut d = desc("entry");
        d.fields = vec![FieldSpec {
            name: "keyword".into(),
            field_type: "String".into(),
            required: true,
            pattern: None,
        }];
        let p = page(vec![link(vec![ParamBinding {
            name: "kw".into(),
            source_kind: "field".into(),
            source: "keyword".into(),
        }])]);
        let c = unit_content(&d, &p.links, &p.url, &UnitBean::Form, &ParamMap::new());
        let ContentBody::Form(f) = &c.body else {
            panic!()
        };
        assert_eq!(f.action, "/sv/detail");
        assert_eq!(f.fields[0].name, "kw");
        assert_eq!(f.fields[0].label, "keyword");
        assert!(f.fields[0].required);
    }

    #[test]
    fn scroller_pager_links_preserve_params() {
        let mut d = desc("scroller");
        d.block_size = Some(10);
        let p = page(vec![]);
        let bean = UnitBean::Rows {
            rows: (0..10).map(|i| row(i, "x")).collect(),
            total: 25,
        };
        let mut params = ParamMap::new();
        params.insert("block_offset".into(), Value::Integer(10));
        params.insert("category".into(), Value::Text("notebooks".into()));
        let c = unit_content(&d, &p.links, &p.url, &bean, &params);
        let pager = c.pager.unwrap();
        assert_eq!(pager.position, "11-20 of 25");
        assert!(pager.prev.unwrap().contains("block_offset=0"));
        let next = pager.next.unwrap();
        assert!(next.contains("block_offset=20"));
        assert!(next.contains("category=notebooks"));
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

    /// An uncached index unit copies no label and no text value: per row
    /// it allocates the fields `Vec`, the href, and the oid's digits.
    #[test]
    fn index_unit_allocates_only_fields_href_and_oid_per_row() {
        const ROWS: usize = 100;
        let d = desc("index");
        let p = page(vec![link(vec![oid_param()])]);
        let (title, name): (Arc<str>, Arc<str>) = ("title".into(), "name".into());
        let rows = (0..ROWS as i64)
            .map(|i| BeanRow {
                values: vec![
                    ("oid".into(), Value::Integer(1000 + i)),
                    (
                        Arc::clone(&title),
                        Value::Text(format!("Title <{i}>").into()),
                    ),
                    (
                        Arc::clone(&name),
                        Value::Text(format!("naïve & {i}").into()),
                    ),
                ],
            })
            .collect();
        let bean = UnitBean::Rows { rows, total: ROWS };
        let rules = presentation::RuleSet::default_desktop("desktop");
        let render = || {
            let content = unit_content(&d, &p.links, &p.url, &bean, &ParamMap::new());
            let mut html = String::new();
            rules.render_unit_into(&content, &mut html);
            html
        };
        // warm-up outside the measured window (lazy runtime init)
        let warm = render();
        assert!(
            warm.contains("href=\"/sv/detail?item=1099\">Title &lt;99&gt; — naïve &amp; 99</a>")
        );
        let (allocs, html) = crate::alloc_counter::allocations_during(render);
        assert_eq!(html, warm);
        let bound = 3 * ROWS + 32;
        assert!(
            allocs <= bound,
            "{allocs} allocations for {ROWS} rows (bound {bound}): \
             per-cell labels, values or href temporaries are back"
        );
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
