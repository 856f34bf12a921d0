//! Run the whole-application model checker over every shipped
//! application — the two paper fixtures and a mid-size synthetic model —
//! and print the reports. Exits non-zero if any application has
//! analysis errors, which makes this the "analyze smoke" step of
//! `verify.sh`.
//!
//! ```sh
//! cargo run --example analyze            # text reports
//! ANALYZE_JSON=1 cargo run --example analyze   # machine-readable
//! ```
//!
//! The tail of the run demonstrates what a *defective* model looks like:
//! a paramless link into a keyed detail page, the paper's canonical
//! modelling slip, reported with its witness path.

use webml_ratio::analyze::analyze_deployment;
use webml_ratio::webml::LinkEnd;
use webml_ratio::webratio::{fixtures, synthesize, Application, SynthSpec};

fn main() {
    let json = std::env::var("ANALYZE_JSON").is_ok();
    let apps: Vec<(&str, Application)> = vec![
        ("bookstore", fixtures::bookstore()),
        ("acm_library", fixtures::acm_library()),
        ("synth_40p", synthesize(&SynthSpec::scaled(40, 5))),
    ];

    let mut failed = false;
    for (name, app) in &apps {
        let t0 = std::time::Instant::now();
        let report = app.analyze_report();
        let elapsed = t0.elapsed();
        if json {
            println!("{}", report.render_json());
        } else {
            println!("{}", report.render_text(name));
            println!("  (analyzed in {elapsed:?})\n");
        }
        if report.has_errors() {
            failed = true;
        }
    }

    // distribution-safety smoke: the paper fixtures must be deployable —
    // zero errors — behind a read replica. (The synthetic apps stay out:
    // their operations are deliberately unlinked, which the per-app
    // analysis above already reports as AZ004.)
    for (name, app) in apps.iter().take(2) {
        let generated = app.generate().expect("generate");
        let report = analyze_deployment(
            &app.er,
            &app.mapping,
            &app.hypertext,
            &generated.descriptors,
            1,
        );
        if !json {
            println!("{}", report.render_text(&format!("{name} @ replicas=1")));
        }
        if report.has_errors() {
            failed = true;
        }
    }

    if !json {
        // what a distribution defect looks like: the page CreateBook
        // forwards to drops its protected site view's flag, so a
        // sessionless client can read a replica that lags its own write —
        // AZ404, which would deny the deploy at Gate::Deny before any
        // durable side effect
        let mut app = fixtures::bookstore();
        let (sv, _) = app.hypertext.site_view_by_name("Store").unwrap();
        app.hypertext.protect_site_view(sv);
        let mut generated = app.generate().expect("generate");
        for page in &mut generated.descriptors.pages {
            if page.name == "Books" {
                page.protected = false;
            }
        }
        let report = analyze_deployment(
            &app.er,
            &app.mapping,
            &app.hypertext,
            &generated.descriptors,
            1,
        );
        println!("--- for comparison: a seeded distribution defect ---");
        println!(
            "{}",
            report.render_text("bookstore+unprotected_forward @ replicas=1")
        );

        // what a defect looks like: break the bookstore on purpose
        let mut broken = fixtures::bookstore();
        let (sv, _) = broken.hypertext.site_view_by_name("Store").unwrap();
        let (books, _) = broken.hypertext.page_by_name(sv, "Books").unwrap();
        let (detail, _) = broken.hypertext.page_by_name(sv, "Book Detail").unwrap();
        let index = broken.hypertext.page(books).units[0];
        broken.hypertext.link_contextual(
            LinkEnd::Unit(index),
            LinkEnd::Page(detail),
            "bare",
            vec![],
        );
        println!("--- for comparison: a seeded defect ---");
        println!(
            "{}",
            broken.analyze_report().render_text("bookstore+defect")
        );
    }

    if failed {
        eprintln!("analysis errors found");
        std::process::exit(1);
    }
}
