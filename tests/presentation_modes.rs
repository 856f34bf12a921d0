//! §5 presentation pipeline invariants at the application level.

use webml_ratio::mvc::{RuntimeOptions, StylingMode, WebRequest};
use webml_ratio::presentation::{DeviceRegistry, PageRule, RuleSet};
use webml_ratio::webratio::{fixtures, seed_data, synthesize, DeployOptions, SynthSpec};

/// Compile-time and runtime styling must render byte-identical pages for
/// the same device — the §5 trade-off is purely about *when* the
/// transformation runs.
#[test]
fn compile_time_and_runtime_styling_agree() {
    let spec = SynthSpec::scaled(10, 4);
    let mut bodies = Vec::new();
    for mode in [StylingMode::CompileTime, StylingMode::Runtime] {
        let app = synthesize(&spec);
        let d = app
            .deploy(RuntimeOptions {
                styling: mode,
                bean_cache: false,
                ..RuntimeOptions::default()
            })
            .unwrap();
        seed_data(&app, &d.db, 4, 1);
        let mut all = String::new();
        for p in &d.generated.descriptors.pages {
            let r = d.handle(&WebRequest::get(&p.url));
            assert_eq!(r.status, 200);
            all.push_str(&r.body);
        }
        bodies.push(all);
    }
    assert_eq!(bodies[0], bodies[1]);
}

/// Layout-specific page rules are selected by the page's layout category.
#[test]
fn layout_specific_page_rules_apply() {
    let app = fixtures::acm_library(); // Volume Page is two-columns
    let mut rules = RuleSet::default_desktop("custom");
    rules.page_rules.insert(
        0,
        PageRule {
            matches_layout: "two-columns".into(),
            css_href: "/static/two.css".into(),
            banner: "TWO COLUMN BANNER".into(),
            footer: String::new(),
            grid_class: "grid-2".into(),
            with_navigation: true,
        },
    );
    let mut devices = DeviceRegistry::new();
    devices.set_default(rules);
    let d = app
        .assemble(
            DeployOptions::default(),
            None,
            Some(&|parts| parts.devices = devices.clone()),
        )
        .unwrap();
    fixtures::seed_acm(&d.db, 1, 1, 1);

    let two_col = d.handle(&WebRequest::get("/acm_dl/volume_page").with_param("volume", "1"));
    assert!(two_col.body.contains("TWO COLUMN BANNER"));
    assert!(two_col.body.contains("grid-2"));

    // single-column pages fall back to the `*` rule
    let home = d.handle(&WebRequest::get("/acm_dl/volumes"));
    assert!(!home.body.contains("TWO COLUMN BANNER"));
    assert!(home.body.contains("WebML Application"));
}

/// Content is HTML-escaped everywhere user data flows into markup.
#[test]
fn injection_attempts_are_escaped() {
    let app = fixtures::bookstore();
    let d = app.deploy(RuntimeOptions::default()).unwrap();
    let op = d.generated.descriptors.operations[0].url.clone();
    let evil = "<script>alert('xss')</script>";
    let r = d.handle(
        &WebRequest::get(&op)
            .with_param("title", evil)
            .with_param("price", "1.0"),
    );
    assert_eq!(r.status, 200);
    assert!(
        !r.body.contains("<script>"),
        "unescaped injection:\n{}",
        r.body
    );
    assert!(r.body.contains("&lt;script&gt;"));
}

/// The generated CSS references exactly the classes the rendered markup
/// uses for every unit kind.
#[test]
fn stylesheet_covers_rendered_classes() {
    use webml_ratio::presentation::Stylesheet;
    let rules = RuleSet::default_desktop("check");
    let kinds = [
        "data",
        "index",
        "multidata",
        "multichoice",
        "scroller",
        "entry",
        "hierarchy",
    ];
    let css = Stylesheet::for_rule_set(&rules, &kinds).render();
    for k in kinds {
        assert!(
            css.contains(&format!(".unit-{k}")),
            "missing module for {k}"
        );
    }
    assert!(css.contains(".banner"));
    assert!(css.contains("nav.landmarks"));
}
