//! Distribution-safety analysis, end to end: the AZ4xx passes behind the
//! `deploy_replicated` gate and the `analyze_distribution_total` metrics
//! family.

use std::time::Duration;

use webml_ratio::analyze;
use webml_ratio::repl::deploy_replicated;
use webml_ratio::wal::TempDir;
use webml_ratio::webml::{LinkEnd, LinkParam, OperationKind};
use webml_ratio::webratio::{fixtures, DeployError, DeployOptions, DurabilityConfig};

fn manual(dir: &TempDir) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir.path());
    d.group_commit_window = Duration::from_secs(3600);
    d
}

// ---- the deploy gate -------------------------------------------------------

#[test]
fn deny_gate_blocks_replicated_deploy_before_any_durable_side_effect() {
    // the canonical modelling slip (paramless route into a keyed page)
    // must deny a replicated deploy exactly like a plain checked one
    let mut app = fixtures::bookstore();
    let (sv, _) = app.hypertext.site_view_by_name("Store").unwrap();
    let (books, _) = app.hypertext.page_by_name(sv, "Books").unwrap();
    let (detail, _) = app.hypertext.page_by_name(sv, "Book Detail").unwrap();
    let index = app.hypertext.page(books).units[0];
    app.hypertext
        .link_contextual(LinkEnd::Unit(index), LinkEnd::Page(detail), "bare", vec![]);

    let dir = TempDir::new("dist-deny").unwrap();
    match deploy_replicated(
        &app,
        DeployOptions::default().with_replicas(1),
        &manual(&dir),
    ) {
        Err(DeployError::Analysis(report)) => {
            assert!(report.has_errors());
        }
        Err(other) => panic!("expected analysis denial, got {other}"),
        Ok(_) => panic!("expected analysis denial, deployment succeeded"),
    }
    // the gate ran before the leader touched durable storage
    let leftovers = std::fs::read_dir(dir.path())
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "denied deploy must leave no WAL artifacts");
}

#[test]
fn replicated_deploy_attaches_report_and_distribution_metrics() {
    // seed an AZ406: two deletes of book, one from the list and one from
    // the detail page of the one site view — contention the gate surfaces
    // as a warning, not a denial
    let mut app = fixtures::bookstore();
    let (sv, _) = app.hypertext.site_view_by_name("Store").unwrap();
    let (books, _) = app.hypertext.page_by_name(sv, "Books").unwrap();
    let (detail, _) = app.hypertext.page_by_name(sv, "Book Detail").unwrap();
    let book = app.er.entity_by_name("Book").unwrap().0;
    for (name, page) in [("DeleteBook", books), ("PurgeBook", detail)] {
        let unit = app.hypertext.page(page).units[0];
        let op = app.hypertext.add_operation(
            name,
            OperationKind::Delete { entity: book },
            vec!["oid".into()],
        );
        app.hypertext.link_contextual(
            LinkEnd::Unit(unit),
            LinkEnd::Operation(op),
            name,
            vec![LinkParam::oid("oid")],
        );
        app.hypertext.link_ok(op, LinkEnd::Page(books));
        app.hypertext.link_ko(op, LinkEnd::Page(books));
    }

    let dir = TempDir::new("dist-metrics").unwrap();
    let rd = deploy_replicated(
        &app,
        DeployOptions::default().with_replicas(1),
        &manual(&dir),
    )
    .expect("replicated deploy at Deny");

    let report = rd.leader.analysis.as_ref().expect("report attached");
    assert!(report.is_clean(), "{}", report.render_text("bookstore"));
    assert_eq!(
        report.codes(),
        vec![analyze::AZ406],
        "expected exactly the contention advisory:\n{}",
        report.render_text("bookstore")
    );

    let prom = rd.leader.obs.render_prometheus();
    assert!(prom.contains("analyze_runs_total 1"), "{prom}");
    assert!(
        prom.contains("analyze_distribution_total{code=\"AZ406\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("analyze_diagnostics_total{code=\"AZ406\",severity=\"warning\"} 1"),
        "{prom}"
    );
}

#[test]
fn single_node_topology_reduces_to_plain_analysis() {
    let app = fixtures::acm_library();
    let generated = app.generate().expect("generate");
    let plain = analyze::analyze(
        &app.er,
        &app.mapping,
        &app.hypertext,
        &generated.descriptors,
    );
    let dist = analyze::analyze_deployment(
        &app.er,
        &app.mapping,
        &app.hypertext,
        &generated.descriptors,
        0,
    );
    assert_eq!(plain.diagnostics, dist.diagnostics);
    assert!(
        dist.codes().iter().all(|c| !c.starts_with("AZ4")),
        "no AZ4xx without replicas"
    );
}
