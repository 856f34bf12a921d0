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
use descriptors::UnitDescriptor;
use mvc::{ParamMap, Shape, UnitBean, UnitProgram};
use presentation::{DeviceRegistry, HtmlChunk, PageRuns, RuleSet, TemplateSkeleton, UnitSkin};
use relstore::Value;
use std::hint::black_box;
use std::sync::Arc;

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

/// The plan position of a slot's unit.
fn slot(unit: &str) -> Option<usize> {
    unit.strip_prefix("unit")?.parse().ok()
}

/// Every unit is a 12-row index: its compiled program and its bean.
fn units(n: usize) -> Vec<(UnitProgram, UnitBean)> {
    (0..n)
        .map(|i| {
            let desc = UnitDescriptor {
                id: format!("unit{i}"),
                name: format!("Unit unit{i}"),
                unit_type: "index".into(),
                page: "page0".into(),
                entity_table: None,
                queries: vec![],
                block_size: None,
                fields: vec![],
                optimized: false,
                service: String::new(),
                depends_on: vec![],
                cache: None,
            };
            let bean = UnitBean::Rows {
                shape: Arc::new(Shape::new(["name"])),
                rows: (0..12)
                    .map(|r| vec![Value::Text(format!("Row {r} of unit{i}").into())])
                    .collect(),
                total: 12,
            };
            (UnitProgram::compile(&desc, &[], "/page0"), bean)
        })
        .collect()
}

/// Render one page: every unit slot runs its program, written in place.
fn render(runs: &PageRuns, skin: &UnitSkin, units: &[(UnitProgram, UnitBean)]) -> Vec<HtmlChunk> {
    let request = ParamMap::new();
    runs.render("<nav/>", |at, glue| {
        let (program, bean) = &units[at];
        program.render(skin, bean, "/page0", &request, glue);
        None
    })
}

/// Runtime styling: apply the rules to the skeleton and build the skin,
/// then render.
fn style_and_render(
    sk: &TemplateSkeleton,
    rules: &RuleSet,
    units: &[(UnitProgram, UnitBean)],
) -> Vec<HtmlChunk> {
    let runs = rules.runs(sk, slot).unwrap();
    render(&runs, &rules.skin("index"), units)
}

fn bench(c: &mut Criterion) {
    let devices = DeviceRegistry::standard();
    let desktop_ua = "Mozilla/5.0 (X11; Linux x86_64)";
    let pda_ua = "PalmOS PDA Browser/1.0";

    let mut group = c.benchmark_group("E4_presentation");
    for units in [4usize, 8, 16] {
        let sk = skeleton(units);
        let programs = self::units(units);
        let rules = RuleSet::default_desktop("desktop");
        // compile time: the flattened template and the skin, once
        let compiled = rules.runs(&sk, slot).unwrap();
        let skin = rules.skin("index");

        // the rule application alone — the per-request cost runtime mode adds
        group.bench_with_input(
            BenchmarkId::new("apply_rules_only", units),
            &units,
            |b, _| b.iter(|| black_box(rules.runs(&sk, slot))),
        );
        group.bench_with_input(
            BenchmarkId::new("compile_time_styling", units),
            &units,
            |b, _| b.iter(|| black_box(render(&compiled, &skin, &programs))),
        );
        group.bench_with_input(
            BenchmarkId::new("runtime_styling", units),
            &units,
            |b, _| {
                // per-request transformation
                b.iter(|| black_box(style_and_render(&sk, &rules, &programs)))
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
                    black_box(style_and_render(&sk, rs, &programs))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
