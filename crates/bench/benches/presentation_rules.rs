//! E4 (§5, Fig. 7): compile-time vs runtime application of presentation
//! rules.
//!
//! "Applying the rules at compile time yields a set of page templates
//! embodying the final look and feel ... more efficient, because no
//! template transformation is required at runtime. Presentation rules can
//! be applied also at runtime ... more expensive in terms of execution
//! time ... but more flexible and may be very effective for multi-device
//! applications."
//!
//! Three series: (a) render a pre-styled template; (b) style + render per
//! request; (c) style + render per request with per-UA rule-set selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use presentation::{
    render_template_chunks, ContentBody, ContentRow, DeviceRegistry, HtmlChunk, RuleSet,
    StyledTemplate, TemplateSkeleton, UnitContent,
};
use std::hint::black_box;

fn skeleton(units: usize) -> TemplateSkeleton {
    let slots: Vec<(String, String)> = (0..units)
        .map(|i| {
            (
                format!("unit{i}"),
                ["data", "index", "entry"][i % 3].to_string(),
            )
        })
        .collect();
    TemplateSkeleton::grid("page0", "Bench Page", "two-columns", &slots, 2)
}

fn content(unit: &str) -> UnitContent<'_> {
    UnitContent {
        unit: unit.into(),
        unit_type: "index".into(),
        title: format!("Unit {unit}").into(),
        body: ContentBody::Rows(
            (0..12)
                .map(|i| ContentRow {
                    fields: vec![("name".into(), format!("Row {i} of {unit}").into())],
                    anchor: None,
                    checkbox: None,
                })
                .collect(),
        ),
        pager: None,
        actions: vec![],
    }
}

/// Render one page: every unit slot gets [`content`], written in place.
fn render(template: &StyledTemplate, rules: &RuleSet) -> Vec<HtmlChunk> {
    render_template_chunks(
        template,
        &mut |u, glue| {
            rules.render_unit_into(&content(u), glue);
            None
        },
        "<nav/>",
    )
}

fn bench(c: &mut Criterion) {
    let devices = DeviceRegistry::standard();
    let desktop_ua = "Mozilla/5.0 (X11; Linux x86_64)";
    let pda_ua = "PalmOS PDA Browser/1.0";

    let mut group = c.benchmark_group("E4_presentation");
    for units in [4usize, 8, 16] {
        let sk = skeleton(units);
        let rules = RuleSet::default_desktop("desktop");
        let compiled = rules.apply(&sk);

        // the rule application alone — the per-request cost runtime mode adds
        group.bench_with_input(
            BenchmarkId::new("apply_rules_only", units),
            &units,
            |b, _| b.iter(|| black_box(rules.apply(&sk))),
        );
        group.bench_with_input(
            BenchmarkId::new("compile_time_styling", units),
            &units,
            |b, _| b.iter(|| black_box(render(&compiled, &rules))),
        );
        group.bench_with_input(
            BenchmarkId::new("runtime_styling", units),
            &units,
            |b, _| {
                b.iter(|| {
                    let styled = rules.apply(&sk); // per-request transformation
                    black_box(render(&styled, &rules))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("runtime_multi_device", units),
            &units,
            |b, _| {
                let mut flip = false;
                b.iter(|| {
                    flip = !flip;
                    let ua = if flip { desktop_ua } else { pda_ua };
                    let rs = devices.select(ua).unwrap();
                    let styled = rs.apply(&sk);
                    black_box(render(&styled, rs))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
