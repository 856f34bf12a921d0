//! The View side: turning unit beans into [`presentation::UnitContent`].
//!
//! This is the job §3 assigns to custom tags: "transforming the content
//! stored in the unit beans into HTML". The conversion resolves the page's
//! navigable links into concrete hrefs (row anchors, form actions, pager
//! links) using the controller-mapped URLs — templates never embed control
//! logic (§3's first key issue).

use crate::beans::{BeanRow, NestedBeanRow, UnitBean};
use crate::request::build_url;
use crate::services::ParamMap;
use descriptors::{PageDescriptor, ParamBinding, UnitDescriptor, UnitLinkSpec};
use presentation::{
    AnchorRef, ContentBody, ContentRow, FormContent, FormField, NestedRow, Pager, UnitContent,
};
use relstore::Value;

/// Resolve one link parameter against a row.
fn row_param(p: &ParamBinding, row: &BeanRow) -> Option<(String, String)> {
    match p.source_kind.as_str() {
        "oid" => row.oid().map(|oid| (p.name.clone(), oid.to_string())),
        "attribute" => row.get(&p.source).map(|v| (p.name.clone(), v.render())),
        "constant" => Some((p.name.clone(), p.source.clone())),
        _ => None,
    }
}

/// Build the href of a link for one row.
fn row_href(link: &UnitLinkSpec, row: &BeanRow) -> String {
    let params: Vec<(String, String)> = link
        .params
        .iter()
        .filter_map(|p| row_param(p, row))
        .collect();
    build_url(&link.target_url, &params)
}

fn display_pairs(row: &BeanRow) -> Vec<(String, String)> {
    row.values
        .iter()
        .filter(|(n, _)| !n.eq_ignore_ascii_case("oid"))
        .map(|(n, v)| (n.clone(), v.render()))
        .collect()
}

fn nested_rows(rows: &[NestedBeanRow], link: Option<&UnitLinkSpec>) -> Vec<NestedRow> {
    rows.iter()
        .map(|r| {
            let is_leaf = r.children.is_empty();
            NestedRow {
                fields: display_pairs(&r.row),
                anchor: match (is_leaf, link) {
                    (true, Some(l)) => Some(AnchorRef {
                        href: row_href(l, &r.row),
                        label: l.label.clone(),
                    }),
                    _ => None,
                },
                children: nested_rows(&r.children, link),
            }
        })
        .collect()
}

/// Convert a computed bean into renderable content.
///
/// `links` are the navigable links leaving this unit, `page_url` the URL
/// of its page. `request_params` feeds the scroller's pager links so
/// paging preserves page context — the one place markup embeds the raw
/// request (the page plan keys such fragments on it).
pub fn unit_content(
    desc: &UnitDescriptor,
    links: &[UnitLinkSpec],
    page_url: &str,
    bean: &UnitBean,
    request_params: &ParamMap,
) -> UnitContent {
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
                        label: if l.label.is_empty() {
                            l.target_url.clone()
                        } else {
                            l.label.clone()
                        },
                    });
                }
            }
            ContentBody::Single(row.as_ref().map(display_pairs).unwrap_or_default())
        }
        UnitBean::Rows { rows, .. } => {
            let multichoice = desc.unit_type == "multichoice";
            ContentBody::Rows(
                rows.iter()
                    .map(|r| ContentRow {
                        fields: display_pairs(r),
                        anchor: primary.map(|l| AnchorRef {
                            href: row_href(l, r),
                            label: l.label.clone(),
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
            let action = primary
                .map(|l| l.target_url.clone())
                .unwrap_or_else(|| page_url.to_string());
            // fields named after the link parameters they feed, so the
            // target receives them under the names it expects
            let mut fields = Vec::new();
            for f in &desc.fields {
                let param_name = primary
                    .and_then(|l| {
                        l.params
                            .iter()
                            .find(|p| p.source_kind == "field" && p.source == f.name)
                    })
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| f.name.clone());
                fields.push(FormField {
                    name: param_name,
                    label: f.name.clone(),
                    input_type: match f.field_type.as_str() {
                        "Integer" | "Float" => "number".into(),
                        "Boolean" => "checkbox".into(),
                        "Date" => "date".into(),
                        _ => "text".into(),
                    },
                    required: f.required,
                    pattern: f.pattern.clone(),
                });
            }
            // propagate constant/oid link params as hidden inputs
            let hidden: Vec<(String, String)> = primary
                .map(|l| {
                    l.params
                        .iter()
                        .filter_map(|p| match p.source_kind.as_str() {
                            "constant" => Some((p.name.clone(), p.source.clone())),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            ContentBody::Form(FormContent {
                action,
                fields,
                submit_label: primary
                    .map(|l| l.label.clone())
                    .filter(|l| !l.is_empty())
                    .unwrap_or_else(|| "Submit".into()),
                hidden,
            })
        }
        UnitBean::Raw(html) => ContentBody::Raw(html.clone()),
    };

    // scroller pager
    let pager = match (bean, desc.block_size) {
        (UnitBean::Rows { rows, total }, Some(block)) if desc.unit_type == "scroller" => {
            let offset = request_params
                .get("block_offset")
                .and_then(|v| match v {
                    Value::Integer(i) => Some(*i as usize),
                    Value::Text(s) => s.parse().ok(),
                    _ => None,
                })
                .unwrap_or(0);
            let mk = |off: usize| {
                let mut params: Vec<(String, String)> = request_params
                    .iter()
                    .filter(|(k, _)| k.as_str() != "block_offset")
                    .map(|(k, v)| (k.clone(), v.render()))
                    .collect();
                params.push(("block_offset".into(), off.to_string()));
                build_url(page_url, &params)
            };
            Some(Pager {
                prev: (offset > 0).then(|| mk(offset.saturating_sub(block))),
                next: (offset + rows.len() < *total).then(|| mk(offset + block)),
                position: if *total == 0 {
                    "0 of 0".into()
                } else {
                    format!("{}-{} of {}", offset + 1, offset + rows.len(), total)
                },
            })
        }
        _ => None,
    };

    UnitContent {
        unit: desc.id.clone(),
        unit_type: desc.unit_type.clone(),
        title: desc.name.clone(),
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
    use descriptors::{FieldSpec, QuerySpec};

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
        assert_eq!(rows[0].fields, vec![("title".to_string(), "a".to_string())]);
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
