//! The reference for the compiled render path: the owning `unit_content`
//! and `render_unit` this crate used before units were compiled into
//! programs, kept as they were (only positional bean rows are turned back
//! into `(name, value)` pairs), with their owning content types and URL
//! builder. The property below renders generated units through both paths
//! and requires the same bytes.

use crate::beans::{NestedBeanRow, Shape, UnitBean};
use crate::services::ParamMap;
use descriptors::{FieldSpec, ParamBinding, QuerySpec, UnitDescriptor, UnitLinkSpec};
use presentation::{escape_html, RuleSet, UnitRule};
use relstore::Value;
use std::fmt::Write;
use std::sync::Arc;

// ---- named rows, as beans held them -----------------------------------------

/// A bean row as `(property name, value)` pairs in shape order.
struct BeanRow {
    values: Vec<(String, Value)>,
}

impl BeanRow {
    fn named(shape: &Shape, row: &[Value]) -> BeanRow {
        BeanRow {
            values: shape
                .names()
                .iter()
                .zip(row)
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        }
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    fn oid(&self) -> Option<i64> {
        match self.get("oid") {
            Some(Value::Integer(i)) => Some(*i),
            _ => None,
        }
    }
}

// ---- the owning content types ---------------------------------------------

struct AnchorRef {
    href: String,
    label: String,
}

struct ContentRow {
    fields: Vec<(String, String)>,
    anchor: Option<AnchorRef>,
    checkbox: Option<String>,
}

struct NestedRow {
    fields: Vec<(String, String)>,
    anchor: Option<AnchorRef>,
    children: Vec<NestedRow>,
}

struct FormField {
    name: String,
    label: String,
    input_type: String,
    required: bool,
    pattern: Option<String>,
}

struct FormContent {
    action: String,
    fields: Vec<FormField>,
    submit_label: String,
    hidden: Vec<(String, String)>,
}

struct Pager {
    prev: Option<String>,
    next: Option<String>,
    position: String,
}

enum ContentBody {
    Single(Vec<(String, String)>),
    Rows(Vec<ContentRow>),
    Nested(Vec<NestedRow>),
    Form(FormContent),
    Raw(String),
}

struct UnitContent {
    unit_type: String,
    title: String,
    body: ContentBody,
    pager: Option<Pager>,
    actions: Vec<AnchorRef>,
}

// ---- the owning URL builder -----------------------------------------------

fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

fn build_url(path: &str, params: &[(String, String)]) -> String {
    if params.is_empty() {
        return path.to_string();
    }
    let qs: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}={}", url_encode(k), url_encode(v)))
        .collect();
    format!("{path}?{}", qs.join("&"))
}

// ---- the owning bean → content conversion ---------------------------------

fn row_param(p: &ParamBinding, row: &BeanRow) -> Option<(String, String)> {
    match p.source_kind.as_str() {
        "oid" => row.oid().map(|oid| (p.name.clone(), oid.to_string())),
        "attribute" => row.get(&p.source).map(|v| (p.name.clone(), v.render())),
        "constant" => Some((p.name.clone(), p.source.clone())),
        _ => None,
    }
}

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
        .map(|(n, v)| (n.to_string(), v.render()))
        .collect()
}

fn nested_rows(
    rows: &[NestedBeanRow],
    shapes: &[Arc<Shape>],
    link: Option<&UnitLinkSpec>,
) -> Vec<NestedRow> {
    rows.iter()
        .map(|r| {
            let is_leaf = r.children.is_empty();
            let row = BeanRow::named(&shapes[0], &r.row);
            NestedRow {
                fields: display_pairs(&row),
                anchor: match (is_leaf, link) {
                    (true, Some(l)) => Some(AnchorRef {
                        href: row_href(l, &row),
                        label: l.label.clone(),
                    }),
                    _ => None,
                },
                children: nested_rows(&r.children, &shapes[1..], link),
            }
        })
        .collect()
}

fn unit_content(
    desc: &UnitDescriptor,
    links: &[UnitLinkSpec],
    page_url: &str,
    bean: &UnitBean,
    request_params: &ParamMap,
) -> UnitContent {
    let primary = links.first();
    let mut actions = Vec::new();

    let body = match bean {
        UnitBean::Single { shape, row } => {
            let row = row.as_ref().map(|r| BeanRow::named(shape, r));
            if let Some(r) = &row {
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
        UnitBean::Rows { shape, rows, .. } => {
            let multichoice = desc.unit_type == "multichoice";
            ContentBody::Rows(
                rows.iter()
                    .map(|r| BeanRow::named(shape, r))
                    .map(|r| ContentRow {
                        fields: display_pairs(&r),
                        anchor: primary.map(|l| AnchorRef {
                            href: row_href(l, &r),
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
        UnitBean::Nested { shapes, rows } => {
            ContentBody::Nested(nested_rows(rows, shapes, primary))
        }
        UnitBean::Form => {
            let action = primary
                .map(|l| l.target_url.clone())
                .unwrap_or_else(|| page_url.to_string());
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

    let pager = match (bean, desc.block_size) {
        (UnitBean::Rows { rows, total, .. }, Some(block)) if desc.unit_type == "scroller" => {
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
        unit_type: desc.unit_type.clone(),
        title: desc.name.clone(),
        body,
        pager,
        actions,
    }
}

// ---- the owning unit rule renderer ----------------------------------------

fn render_unit(rules: &RuleSet, content: &UnitContent) -> String {
    let rule = rules
        .unit_rule_for(&content.unit_type)
        .cloned()
        .unwrap_or(UnitRule {
            matches_type: "*".into(),
            box_class: "unit".into(),
            show_title: true,
            zebra: false,
            mouse_over_effect: false,
            value_class: "value".into(),
            link_class: "unit-link".into(),
        });
    let mut out = String::new();
    if rule.show_title && !content.title.is_empty() {
        let _ = writeln!(
            out,
            "<h2 class=\"unit-title\">{}</h2>",
            escape_html(&content.title)
        );
    }
    let hover = if rule.mouse_over_effect {
        " onmouseover=\"this.className+=' hover'\" onmouseout=\"this.className=this.className.replace(' hover','')\""
    } else {
        ""
    };
    match &content.body {
        ContentBody::Single(fields) => {
            let _ = writeln!(out, "<table class=\"data-unit\">");
            for (label, value) in fields {
                let _ = writeln!(
                    out,
                    "<tr><th>{}</th><td class=\"{}\">{}</td></tr>",
                    escape_html(label),
                    rule.value_class,
                    escape_html(value)
                );
            }
            let _ = writeln!(out, "</table>");
        }
        ContentBody::Rows(rows) => {
            let _ = writeln!(out, "<ul class=\"{}-unit\">", content.unit_type);
            for (i, row) in rows.iter().enumerate() {
                let zebra = if rule.zebra && i % 2 == 1 { " alt" } else { "" };
                let _ = write!(out, "<li class=\"row{zebra}\"{hover}>");
                if let Some(cb) = &row.checkbox {
                    let _ = write!(
                        out,
                        "<input type=\"checkbox\" name=\"selection\" value=\"{}\"/>",
                        escape_html(cb)
                    );
                }
                let text = row
                    .fields
                    .iter()
                    .map(|(_, v)| escape_html(v))
                    .collect::<Vec<_>>()
                    .join(" — ");
                match &row.anchor {
                    Some(a) => {
                        let _ = write!(
                            out,
                            "<a class=\"{}\" href=\"{}\">{}</a>",
                            rule.link_class,
                            a.href,
                            if text.is_empty() {
                                escape_html(&a.label)
                            } else {
                                text
                            }
                        );
                    }
                    None => {
                        let _ = write!(out, "<span class=\"{}\">{text}</span>", rule.value_class);
                    }
                }
                let _ = writeln!(out, "</li>");
            }
            let _ = writeln!(out, "</ul>");
        }
        ContentBody::Nested(rows) => {
            render_nested(&mut out, rows, &rule, hover);
        }
        ContentBody::Form(form) => {
            let _ = writeln!(
                out,
                "<form class=\"entry-unit\" method=\"get\" action=\"{}\">",
                form.action
            );
            for (n, v) in &form.hidden {
                let _ = writeln!(
                    out,
                    "<input type=\"hidden\" name=\"{}\" value=\"{}\"/>",
                    escape_html(n),
                    escape_html(v)
                );
            }
            for f in &form.fields {
                let req = if f.required { " required" } else { "" };
                let pattern = f
                    .pattern
                    .as_ref()
                    .map(|p| format!(" pattern=\"{}\"", escape_html(p)))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "<label>{} <input type=\"{}\" name=\"{}\"{req}{pattern}/></label>",
                    escape_html(&f.label),
                    f.input_type,
                    escape_html(&f.name)
                );
            }
            let _ = writeln!(
                out,
                "<input type=\"submit\" value=\"{}\"/>",
                escape_html(&form.submit_label)
            );
            let _ = writeln!(out, "</form>");
        }
        ContentBody::Raw(html) => out.push_str(html),
    }
    if !content.actions.is_empty() {
        let _ = write!(out, "<div class=\"unit-actions\">");
        for a in &content.actions {
            let _ = write!(
                out,
                "<a class=\"{}\" href=\"{}\">{}</a> ",
                rule.link_class,
                a.href,
                escape_html(&a.label)
            );
        }
        let _ = writeln!(out, "</div>");
    }
    if let Some(p) = &content.pager {
        let _ = write!(out, "<div class=\"pager\">");
        if let Some(prev) = &p.prev {
            let _ = write!(out, "<a href=\"{prev}\">&lt; prev</a> ");
        }
        let _ = write!(out, "<span>{}</span>", escape_html(&p.position));
        if let Some(next) = &p.next {
            let _ = write!(out, " <a href=\"{next}\">next &gt;</a>");
        }
        let _ = writeln!(out, "</div>");
    }
    out
}

fn render_nested(out: &mut String, rows: &[NestedRow], rule: &UnitRule, hover: &str) {
    let _ = writeln!(out, "<ul class=\"hierarchy-unit\">");
    for row in rows {
        let text = row
            .fields
            .iter()
            .map(|(_, v)| escape_html(v))
            .collect::<Vec<_>>()
            .join(" — ");
        let _ = write!(out, "<li{hover}>");
        match &row.anchor {
            Some(a) => {
                let _ = write!(
                    out,
                    "<a class=\"{}\" href=\"{}\">{}</a>",
                    rule.link_class,
                    a.href,
                    if text.is_empty() {
                        escape_html(&a.label)
                    } else {
                        text
                    }
                );
            }
            None => {
                let _ = write!(out, "<span class=\"{}\">{text}</span>", rule.value_class);
            }
        }
        if !row.children.is_empty() {
            render_nested(out, &row.children, rule, hover);
        }
        let _ = writeln!(out, "</li>");
    }
    let _ = writeln!(out, "</ul>");
}

// ---- generated units -------------------------------------------------------

/// A small deterministic generator (splitmix64): one seed, one unit.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Text that escaping and URL encoding must both get right.
const TEXTS: &[&str] = &[
    "",
    "plain",
    "<b>bold</b>",
    "a & b",
    "say \"hi\"",
    "100% off",
    "naïve café ✓",
    "two words",
];
const PROPERTIES: &[&str] = &["title", "name", "Price", "note", "two words"];

/// What the generated units exercised, checked once all cases ran.
#[derive(Default)]
struct Coverage {
    kinds: [bool; 6],
    values: [bool; 4],
    special_text: bool,
    empty_text: bool,
    non_ascii: bool,
    single_empty_field: bool,
    multichoice: bool,
    nested_depth_2: bool,
    params: [bool; 3],
    param_specials: bool,
    rule_sets: [bool; 3],
}

impl Gen {
    fn value(&mut self, seen: &mut Coverage) -> Value {
        match self.below(4) {
            0 => {
                seen.values[0] = true;
                Value::Null
            }
            1 => {
                seen.values[1] = true;
                Value::Integer(self.below(2000) as i64 - 500)
            }
            2 => {
                seen.values[2] = true;
                Value::Real([0.5, -2.25, 1e3, 3.0][self.below(4)])
            }
            _ => {
                seen.values[3] = true;
                let t = self.pick(TEXTS);
                seen.special_text |= t.contains(['<', '>', '&', '"']);
                seen.empty_text |= t.is_empty();
                seen.non_ascii |= !t.is_ascii();
                Value::Text(t.into())
            }
        }
    }

    /// A bean shape: usually an `oid`, up to three properties (names may
    /// repeat), and now and then a second, upper-case `OID`.
    fn shape(&mut self) -> Arc<Shape> {
        let mut names = Vec::new();
        if self.chance(85) {
            names.push("oid");
        }
        for _ in 0..self.below(4) {
            names.push(self.pick(PROPERTIES));
        }
        if self.chance(15) {
            let at = self.below(names.len() + 1);
            names.insert(at, "OID");
        }
        Arc::new(Shape::new(names))
    }

    fn row(&mut self, shape: &Shape, seen: &mut Coverage) -> Vec<Value> {
        // every displayed cell empty: an anchor falls back to its label
        let blank = self.chance(10);
        shape
            .names()
            .iter()
            .map(|name| match &**name {
                "oid" if self.chance(95) => Value::Integer(self.below(500) as i64 + 1),
                "oid" => Value::Null,
                "OID" => Value::Integer(7),
                _ if blank => Value::Text("".into()),
                _ => self.value(seen),
            })
            .collect()
    }

    fn nested(
        &mut self,
        shapes: &[Arc<Shape>],
        depth: usize,
        seen: &mut Coverage,
    ) -> Vec<NestedBeanRow> {
        (0..self.below(4))
            .map(|_| NestedBeanRow {
                row: {
                    seen.nested_depth_2 |= depth == 2;
                    self.row(&shapes[depth], seen)
                },
                children: if depth < 2 && self.chance(50) {
                    self.nested(shapes, depth + 1, seen)
                } else {
                    Vec::new()
                },
            })
            .collect()
    }

    fn link(&mut self, seen: &mut Coverage) -> UnitLinkSpec {
        let params = (0..self.below(4))
            .map(|_| {
                let kind = self.pick(&["oid", "attribute", "constant", "field", "session"]);
                let source = match kind {
                    "attribute" => self.pick(&["title", "name", "Price", "missing"]),
                    "constant" => self.pick(&["fixed", "a b", "100%", "ü&x=y", ""]),
                    "field" => self.pick(&["keyword", "count"]),
                    _ => "",
                };
                let name = self.pick(&["item", "q x", "ü%", "block_offset"]);
                if let Some(i) = ["oid", "attribute", "constant"]
                    .iter()
                    .position(|k| *k == kind)
                {
                    seen.params[i] = true;
                }
                seen.param_specials |= kind == "constant" && !source.is_ascii();
                ParamBinding {
                    name: name.into(),
                    source_kind: kind.into(),
                    source: source.into(),
                }
            })
            .collect();
        UnitLinkSpec {
            from: "unit0".into(),
            target_url: self.pick(&["/sv/detail", "/sv/two words", "/op/do"]).into(),
            label: self.pick(&["open", "", "<go> & \"see\""]).into(),
            params,
        }
    }

    fn request(&mut self, seen: &mut Coverage) -> ParamMap {
        let mut params = ParamMap::new();
        for _ in 0..self.below(4) {
            let key = self.pick(&["block_offset", "q", "cat egory", "ü"]);
            let v = if key == "block_offset" {
                [
                    Value::Integer(0),
                    Value::Integer(10),
                    Value::Integer(25),
                    Value::Text("abc".into()),
                    Value::Text("7".into()),
                    Value::Real(1e3),
                ][self.below(6)]
                .clone()
            } else {
                self.value(seen)
            };
            params.insert(key.into(), v);
        }
        params
    }

    fn fields(&mut self) -> Vec<FieldSpec> {
        (0..self.below(4))
            .map(|_| FieldSpec {
                name: self.pick(&["keyword", "count", "naïve <f>"]).into(),
                field_type: self
                    .pick(&["String", "Integer", "Float", "Boolean", "Date", "Text"])
                    .into(),
                required: self.chance(50),
                pattern: self
                    .chance(40)
                    .then(|| self.pick(&[".{2,}", "[a-z]+\"&"]).into()),
            })
            .collect()
    }

    fn rules(&mut self, seen: &mut Coverage) -> RuleSet {
        let which = self.below(3);
        seen.rule_sets[which] = true;
        match which {
            0 => {
                let mut rs = RuleSet::default_desktop("desktop");
                rs.unit_rules[0].mouse_over_effect = self.chance(50);
                rs
            }
            1 => RuleSet::minimal_device("pda"),
            _ => {
                // no unit rule matches: the renderer's built-in fallback
                let mut rs = RuleSet::default_desktop("odd");
                rs.unit_rules[0].matches_type = "nothing-matches".into();
                rs
            }
        }
    }
}

/// One generated unit: descriptor, links, page URL, bean, request.
fn case(
    seed: u64,
    seen: &mut Coverage,
) -> (
    UnitDescriptor,
    Vec<UnitLinkSpec>,
    &'static str,
    UnitBean,
    ParamMap,
) {
    let mut g = Gen(seed);
    let kind = g.below(6);
    seen.kinds[kind] = true;
    let unit_type = match kind {
        0 | 1 => "data",
        2 => g.pick(&["index", "multidata", "multichoice", "scroller", "scroller"]),
        3 => "hierarchy",
        4 => "entry",
        _ => g.pick(&["plugin", "index"]),
    };
    seen.multichoice |= unit_type == "multichoice";
    let bean = match kind {
        0 => {
            let shape = g.shape();
            let row = Some(g.row(&shape, seen));
            UnitBean::Single { shape, row }
        }
        1 => UnitBean::Single {
            shape: g.shape(),
            row: None,
        },
        2 => {
            let shape = g.shape();
            let rows: Vec<Vec<Value>> = (0..g.below(7)).map(|_| g.row(&shape, seen)).collect();
            let total = rows.len() + g.below(3) * g.below(30);
            UnitBean::Rows { shape, rows, total }
        }
        3 => {
            let shapes = vec![g.shape(), g.shape(), g.shape()];
            let rows = g.nested(&shapes, 0, seen);
            UnitBean::Nested { shapes, rows }
        }
        4 => UnitBean::Form,
        _ => UnitBean::Raw(g.pick(&["<custom/>", "", "<p>a & b</p>"]).into()),
    };
    let links: Vec<UnitLinkSpec> = (0..g.below(3)).map(|_| g.link(seen)).collect();
    let desc = UnitDescriptor {
        id: "unit0".into(),
        name: g.pick(&["My unit", "", "A <b>&\"</b> ü"]).into(),
        unit_type: unit_type.into(),
        page: "page0".into(),
        entity_table: Some("t".into()),
        queries: vec![QuerySpec {
            name: "main".into(),
            sql: String::new(),
            inputs: vec![],
            bean: vec![],
        }],
        block_size: g.chance(85).then(|| [1, 5, 10][g.below(3)]),
        fields: g.fields(),
        optimized: false,
        service: String::new(),
        depends_on: vec![],
        cache: None,
    };
    if let (UnitBean::Rows { shape, rows, .. }, false) = (&bean, links.is_empty()) {
        // an anchored row whose only displayed field is empty
        seen.single_empty_field |= rows.iter().any(
            |r| matches!(shape.shown(), [at] if matches!(&r[*at], Value::Text(t) if t.is_empty())),
        );
    }
    let page_url = if g.chance(50) {
        "/sv/p"
    } else {
        "/sv/two words"
    };
    let request = g.request(seen);
    (desc, links, page_url, bean, request)
}

#[test]
fn unit_programs_match_the_owning_oracle() {
    let mut seen = Coverage::default();
    for seed in 0..2000u64 {
        let (desc, links, page_url, bean, request) = case(seed, &mut seen);
        let rules = Gen(seed ^ 0x5EED).rules(&mut seen);
        let expected = render_unit(
            &rules,
            &unit_content(&desc, &links, page_url, &bean, &request),
        );
        let mut got = String::new();
        super::UnitProgram::compile(&desc, &links, page_url).render(
            &rules.skin(&desc.unit_type),
            &bean,
            page_url,
            &request,
            &mut got,
        );
        assert_eq!(
            got, expected,
            "seed {seed}: {desc:?}\n{bean:?}\n{links:?}\n{request:?}"
        );
    }
    let Coverage {
        kinds,
        values,
        special_text,
        empty_text,
        non_ascii,
        single_empty_field,
        multichoice,
        nested_depth_2,
        params,
        param_specials,
        rule_sets,
    } = seen;
    assert!(kinds.iter().all(|&k| k), "bean kinds {kinds:?}");
    assert!(values.iter().all(|&v| v), "value kinds {values:?}");
    assert!(special_text && empty_text && non_ascii);
    assert!(single_empty_field && multichoice && nested_depth_2);
    assert!(params.iter().all(|&p| p) && param_specials, "{params:?}");
    assert!(rule_sets.iter().all(|&r| r), "{rule_sets:?}");
}
