//! Seeded-defect mutation matrix: one mutator per diagnostic code.
//!
//! The baseline "library" application is analyzer-clean. Each test applies
//! exactly one defect to the generated descriptor bundle (descriptors are
//! the deployed artifact — hand edits and merge accidents happen there)
//! and asserts the analyzer reports **exactly** the expected code. This
//! pins down both detection (the code fires) and precision (no cascade of
//! secondary findings drowns the root cause).

use std::collections::BTreeSet;

use analyze::{analyze, analyze_deployment, Report, Severity};
use descriptors::{CacheDescriptor, DescriptorSet, UnitLinkSpec};
use er::{AttrType, Attribute, ErModel, RelationalMapping};
use webml::{
    Audience, CacheSpec, Condition, Field, HypertextModel, LinkEnd, LinkParam, OperationKind,
};

/// The fixture under mutation: a two-entity site with every feature the
/// analyzer reasons about — a cached index, an entry form driving a create
/// operation, a keyed detail page, and a parameterless side page.
struct Fixture {
    er: ErModel,
    mapping: RelationalMapping,
    ht: HypertextModel,
    set: DescriptorSet,
}

/// Variant knobs for the distribution-pass mutators: a protected site
/// view (the RYW passes only reason about pages that *should* demand a
/// session) and a pair of delete operations (write-write contention bait).
#[derive(Default, Clone, Copy)]
struct Variant {
    protected: bool,
    deletes: bool,
}

fn library() -> Fixture {
    library_variant(Variant::default())
}

fn library_variant(v: Variant) -> Fixture {
    let mut er = ErModel::new();
    let book = er
        .add_entity(
            "Book",
            vec![
                Attribute::new("title", AttrType::String).required(),
                Attribute::new("price", AttrType::Float),
            ],
        )
        .unwrap();
    let archive = er
        .add_entity("Archive", vec![Attribute::new("name", AttrType::String)])
        .unwrap();

    let mut ht = HypertextModel::new();
    let sv = ht.add_site_view("main", Audience::default());
    let home = ht.add_page(sv, None, "Home");
    let detail = ht.add_page(sv, None, "Detail");
    let about = ht.add_page(sv, None, "About");
    ht.set_home(sv, home);
    ht.set_landmark(home);

    // cached index: the subject of the invalidation-soundness pass
    let index = ht.add_index_unit(home, "Books", book);
    ht.set_cache(index, CacheSpec::model_driven());
    // uncached unit over the second entity (over-invalidation bait)
    ht.add_multidata_unit(home, "Promo", archive);
    // entry form feeding the create operation
    let entry = ht.add_entry_unit(
        home,
        "NewBook",
        vec![
            Field::new("title", AttrType::String).required(),
            Field::new("price", AttrType::Float),
        ],
    );

    // keyed detail page: the subject of the dataflow pass
    let data = ht.add_data_unit(detail, "BookData", book);
    ht.add_condition(
        data,
        Condition::KeyEq {
            param: "book".into(),
        },
    );
    ht.link_contextual(
        LinkEnd::Unit(index),
        LinkEnd::Unit(data),
        "open",
        vec![LinkParam::oid("book")],
    );

    // parameterless side page, reached by a paramless contextual link
    ht.add_multidata_unit(about, "AboutList", book);
    ht.link_contextual(LinkEnd::Unit(index), LinkEnd::Page(about), "about", vec![]);

    let create = ht.add_operation(
        "CreateBook",
        OperationKind::Create { entity: book },
        vec!["title".into(), "price".into()],
    );
    ht.link_contextual(
        LinkEnd::Unit(entry),
        LinkEnd::Operation(create),
        "add",
        vec![
            LinkParam::field("title", "title"),
            LinkParam::field("price", "price"),
        ],
    );
    ht.link_ok(create, LinkEnd::Page(home));
    ht.link_ko(create, LinkEnd::Page(home));

    if v.deletes {
        // two non-create writers of the book table, invocable from two
        // different pages of the same site view
        let delete = ht.add_operation(
            "DeleteBook",
            OperationKind::Delete { entity: book },
            vec!["oid".into()],
        );
        ht.link_contextual(
            LinkEnd::Unit(index),
            LinkEnd::Operation(delete),
            "delete",
            vec![LinkParam::oid("oid")],
        );
        ht.link_ok(delete, LinkEnd::Page(home));
        ht.link_ko(delete, LinkEnd::Page(home));
        let purge = ht.add_operation(
            "PurgeBook",
            OperationKind::Delete { entity: book },
            vec!["oid".into()],
        );
        ht.link_contextual(
            LinkEnd::Unit(data),
            LinkEnd::Operation(purge),
            "purge",
            vec![LinkParam::oid("oid")],
        );
        ht.link_ok(purge, LinkEnd::Page(home));
        ht.link_ko(purge, LinkEnd::Page(home));
    }
    if v.protected {
        ht.protect_site_view(sv);
    }

    let mapping = RelationalMapping::derive(&er);
    let generated = codegen::generate(&er, &mapping, &ht).expect("library fixture generates");
    Fixture {
        er,
        mapping,
        ht,
        set: generated.descriptors,
    }
}

fn run(f: &Fixture) -> Report {
    analyze(&f.er, &f.mapping, &f.ht, &f.set)
}

/// Assert the report contains the expected code (at the expected
/// severity) and **no other code** — mutations must not cascade.
fn assert_exactly(f: &Fixture, code: &str, severity: Severity) {
    let report = run(f);
    let codes: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        BTreeSet::from([code]),
        "expected exactly {code}, got:\n{}",
        report.render_text("mutation")
    );
    assert!(
        report.diagnostics.iter().all(|d| d.severity == severity),
        "severity mismatch for {code}:\n{}",
        report.render_text("mutation")
    );
}

// ---- fixture navigation helpers -------------------------------------------

fn unit_id_by_name(set: &DescriptorSet, name: &str) -> String {
    set.units
        .iter()
        .find(|u| u.name == name)
        .unwrap_or_else(|| panic!("unit {name}"))
        .id
        .clone()
}

fn page_url_by_name(set: &DescriptorSet, name: &str) -> String {
    set.pages
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("page {name}"))
        .url
        .clone()
}

// ---- baseline --------------------------------------------------------------

#[test]
fn baseline_is_clean() {
    let f = library();
    let report = run(&f);
    assert!(
        report.is_clean(),
        "library baseline must be analyzer-clean:\n{}",
        report.render_text("baseline")
    );
    assert!(report.stats.pages >= 3 && report.stats.operations == 1);
}

// ---- AZ0xx: parameter-availability dataflow --------------------------------

#[test]
fn az001_param_missing_on_some_path() {
    // a second route into Detail that does not carry "book"
    let mut f = library();
    let from = unit_id_by_name(&f.set, "AboutList");
    let detail_url = page_url_by_name(&f.set, "Detail");
    let about = f.set.pages.iter_mut().find(|p| p.name == "About").unwrap();
    about.links.push(UnitLinkSpec {
        from,
        target_url: detail_url,
        label: "peek".into(),
        params: vec![],
    });
    assert_exactly(&f, analyze::AZ001, Severity::Error);
}

#[test]
fn az002_param_missing_on_every_path() {
    // strip the oid binding from the only route into Detail
    let mut f = library();
    let detail_url = page_url_by_name(&f.set, "Detail");
    let home = f.set.pages.iter_mut().find(|p| p.name == "Home").unwrap();
    let link = home
        .links
        .iter_mut()
        .find(|l| l.target_url == detail_url)
        .expect("open link");
    link.params.clear();
    assert_exactly(&f, analyze::AZ002, Severity::Error);
}

#[test]
fn az003_operation_input_unbound() {
    // the entry→operation link no longer binds "price"
    let mut f = library();
    let op_url = f.set.operations[0].url.clone();
    let home = f.set.pages.iter_mut().find(|p| p.name == "Home").unwrap();
    let link = home
        .links
        .iter_mut()
        .find(|l| l.target_url == op_url)
        .expect("add link");
    link.params.retain(|p| p.name != "price");
    assert_exactly(&f, analyze::AZ003, Severity::Error);
}

#[test]
fn az004_operation_not_invocable() {
    // drop the only link leading to the operation
    let mut f = library();
    let op_url = f.set.operations[0].url.clone();
    let home = f.set.pages.iter_mut().find(|p| p.name == "Home").unwrap();
    home.links.retain(|l| l.target_url != op_url);
    assert_exactly(&f, analyze::AZ004, Severity::Warning);
}

// ---- AZ1xx: cache-invalidation soundness -----------------------------------

#[test]
fn az101_depends_on_misses_read_set() {
    let mut f = library();
    let books = unit_id_by_name(&f.set, "Books");
    f.set.unit_mut(&books).unwrap().depends_on.clear();
    assert_exactly(&f, analyze::AZ101, Severity::Error);
}

#[test]
fn az102_operation_skips_written_table() {
    let mut f = library();
    f.set.operations[0].invalidates.clear();
    assert_exactly(&f, analyze::AZ102, Severity::Error);
}

#[test]
fn az103_over_invalidation() {
    // invalidate the archive table, which no cached unit reads
    let mut f = library();
    let promo = unit_id_by_name(&f.set, "Promo");
    let table = f
        .set
        .unit(&promo)
        .unwrap()
        .entity_table
        .clone()
        .expect("promo table");
    f.set.operations[0].invalidates.push(table);
    assert_exactly(&f, analyze::AZ103, Severity::Warning);
}

#[test]
fn az104_cache_with_no_expiry_policy() {
    let mut f = library();
    let books = unit_id_by_name(&f.set, "Books");
    f.set.unit_mut(&books).unwrap().cache = Some(CacheDescriptor {
        ttl_ms: None,
        invalidate_on_write: false,
    });
    assert_exactly(&f, analyze::AZ104, Severity::Error);
}

// ---- AZ2xx: descriptor/model cross-check -----------------------------------

#[test]
fn az201_orphan_descriptor() {
    let mut f = library();
    let mut orphan = f.set.units[0].clone();
    orphan.id = "unit99".into();
    orphan.name = "Ghost".into();
    f.set.units.push(orphan);
    assert_exactly(&f, analyze::AZ201, Severity::Error);
}

#[test]
fn az202_model_unit_without_descriptor() {
    let mut f = library();
    let promo = unit_id_by_name(&f.set, "Promo");
    f.set.units.retain(|u| u.id != promo);
    assert_exactly(&f, analyze::AZ202, Severity::Error);
}

#[test]
fn az203_dangling_link_target() {
    let mut f = library();
    let about_url = page_url_by_name(&f.set, "About");
    let home = f.set.pages.iter_mut().find(|p| p.name == "Home").unwrap();
    let link = home
        .links
        .iter_mut()
        .find(|l| l.target_url == about_url)
        .expect("about link");
    link.target_url = "/main/ghost".into();
    assert_exactly(&f, analyze::AZ203, Severity::Error);
}

#[test]
fn az204_controller_mapping_missing() {
    let mut f = library();
    let about_url = page_url_by_name(&f.set, "About");
    f.set.controller.mappings.retain(|m| m.path != about_url);
    assert_exactly(&f, analyze::AZ204, Severity::Error);
}

// ---- AZ4xx: distribution safety --------------------------------------------

/// Every distribution pass runs at one replica.
fn run_dist(f: &Fixture) -> Report {
    analyze_deployment(&f.er, &f.mapping, &f.ht, &f.set, 1)
}

/// Like [`assert_exactly`], against the topology-aware entry point.
fn assert_exactly_dist(f: &Fixture, code: &str, severity: Severity) {
    let report = run_dist(f);
    let codes: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        BTreeSet::from([code]),
        "expected exactly {code}, got:\n{}",
        report.render_text("mutation")
    );
    assert!(
        report.diagnostics.iter().all(|d| d.severity == severity),
        "severity mismatch for {code}:\n{}",
        report.render_text("mutation")
    );
}

#[test]
fn distribution_baselines_are_clean() {
    // (the `deletes` variant is deliberately absent: its second writer IS
    // the AZ406 defect under test)
    for v in [
        Variant::default(),
        Variant {
            protected: true,
            ..Variant::default()
        },
    ] {
        let f = library_variant(v);
        let report = run_dist(&f);
        assert!(
            report.diagnostics.is_empty(),
            "variant baseline must be silent under replicas:\n{}",
            report.render_text("baseline")
        );
    }
}

#[test]
fn az404_chain_target_loses_its_session_floor() {
    // the model says "main" needs auth; the Home descriptor drops the
    // flag — the page right after CreateBook reads book with no session,
    // so the router may serve it from a lagging replica
    let mut f = library_variant(Variant {
        protected: true,
        ..Variant::default()
    });
    f.set
        .pages
        .iter_mut()
        .find(|p| p.name == "Home")
        .unwrap()
        .protected = false;
    assert_exactly_dist(&f, analyze::AZ404, Severity::Error);
}

#[test]
fn az405_transitive_read_loses_its_session_floor() {
    // the chain target itself stays protected; Detail — one navigation
    // hop away — does not, and it reads the written table
    let mut f = library_variant(Variant {
        protected: true,
        ..Variant::default()
    });
    f.set
        .pages
        .iter_mut()
        .find(|p| p.name == "Detail")
        .unwrap()
        .protected = false;
    assert_exactly_dist(&f, analyze::AZ405, Severity::Warning);
}

#[test]
fn az406_two_writers_contend_on_one_table() {
    // DeleteBook (from Home) and PurgeBook (from Detail) both update the
    // book table from site view "main" — the later commit overwrites the
    // earlier one (last-writer-wins lost update)
    let f = library_variant(Variant {
        deletes: true,
        ..Variant::default()
    });
    assert_exactly_dist(&f, analyze::AZ406, Severity::Warning);
}

#[test]
fn interleaved_pass_families_stay_sorted_and_deduped() {
    // one deploy, error defects in two pass families: AZ102 (invalidation)
    // and AZ404 (distribution) must land in one stable, errors-first report
    let mut f = library_variant(Variant {
        protected: true,
        ..Variant::default()
    });
    f.set.operations[0].invalidates.clear();
    f.set
        .pages
        .iter_mut()
        .find(|p| p.name == "Home")
        .unwrap()
        .protected = false;

    let a = run_dist(&f);
    let b = run_dist(&f);
    assert_eq!(
        a.diagnostics, b.diagnostics,
        "repeated runs must render identically"
    );
    assert_eq!(a.codes(), vec![analyze::AZ102, analyze::AZ404]);
    // errors first, then code order — AZ1xx sorts ahead of AZ4xx
    assert!(a.diagnostics.iter().all(|d| d.severity == Severity::Error));
    assert_eq!(a.diagnostics[0].code, analyze::AZ102);
    assert_eq!(a.diagnostics.last().unwrap().code, analyze::AZ404);
    // dedup across families: no (code, location, message) repeats
    let mut seen = BTreeSet::new();
    for d in &a.diagnostics {
        assert!(
            seen.insert((d.code, d.location.clone(), d.message.clone())),
            "duplicate finding survived dedup: {d}"
        );
    }
}

// ---- report formats --------------------------------------------------------

#[test]
fn reports_render_both_formats() {
    let mut f = library();
    f.set.operations[0].invalidates.clear();
    let report = run(&f);
    let text = report.render_text("library");
    assert!(text.contains("AZ102"), "{text}");
    let json = report.render_json();
    assert!(json.contains("\"code\":\"AZ102\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
}
