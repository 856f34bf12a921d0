//! Integration tests of the §6 two-level cache semantics across
//! deployment configurations.

use std::sync::Arc;
use std::time::Duration;
use webml_ratio::mvc::{RuntimeOptions, WebRequest, WebResponse};
use webml_ratio::relstore::Params;
use webml_ratio::repl::{deploy_replicated, Replica};
use webml_ratio::webratio::{
    fixtures, seed_data, synthesize, Application, DeployOptions, Deployment, DurabilityConfig,
    SynthSpec,
};

fn options(bean: bool, fragment: bool, ttl: Duration) -> RuntimeOptions {
    RuntimeOptions {
        bean_cache: bean,
        fragment_cache: fragment,
        fragment_ttl: ttl,
        ..RuntimeOptions::default()
    }
}

/// With the bean cache on, reads after a write always see fresh data —
/// the §6 model-driven invalidation guarantee.
#[test]
fn bean_cache_is_never_stale() {
    let app = fixtures::bookstore();
    let d = app
        .deploy(options(true, false, Duration::from_secs(3600)))
        .unwrap();
    let home = d.home_url("store").unwrap();
    let op = d.generated.descriptors.operations[0].url.clone();
    for i in 0..30 {
        let title = format!("Volume {i}");
        let resp = d.handle(
            &WebRequest::get(&op)
                .with_param("title", &title)
                .with_param("price", "1.0"),
        );
        assert_eq!(resp.status, 200);
        let page = d.handle(&WebRequest::get(&home));
        assert!(page.body.contains(&title), "stale read after create #{i}");
    }
    // every create reached the cached list: patched in place or dropped
    let stats = d.controller.bean_cache().unwrap().stats();
    assert!(stats.invalidations + d.obs.maint.patches_applied.get() > 0);
}

/// The fragment cache alone — the §6 level that sees nothing but markup —
/// is fresh right after a write: the node's maintainer records the
/// write's version and the next read of a fragment it outdates finds it
/// stale, so no TTL has to expire first.
#[test]
fn fragment_cache_alone_is_fresh_after_a_write() {
    let app = fixtures::bookstore();
    let d = app
        .deploy(options(false, true, Duration::from_secs(3600)))
        .unwrap();
    let home = d.home_url("store").unwrap();
    let op = d.generated.descriptors.operations[0].url.clone();

    d.handle(&WebRequest::get(&home)); // prime fragments (empty list)
    d.handle(&WebRequest::get(&home));
    assert!(d.controller.fragment_cache().unwrap().stats().hits > 0);
    d.handle(
        &WebRequest::get(&op)
            .with_param("title", "Visible")
            .with_param("price", "2.0"),
    );
    let fresh = d.handle(&WebRequest::get(&home));
    assert!(fresh.body.contains("Visible"), "{}", fresh.body);
    // and a direct write, which no operation announces
    d.db.execute(
        "UPDATE book SET title = 'Retitled' WHERE oid = 1",
        &Params::new(),
    )
    .unwrap();
    let fresh = d.handle(&WebRequest::get(&home));
    assert!(fresh.body.contains("Retitled"), "{}", fresh.body);
}

/// Fragment hits spare markup generation but never spare data queries —
/// the quantitative version of the §6 claim.
#[test]
fn fragment_hits_do_not_spare_queries_bean_hits_do() {
    let app = fixtures::bookstore();

    // fragment only
    let d = app
        .deploy(options(false, true, Duration::from_secs(3600)))
        .unwrap();
    let home = d.home_url("store").unwrap();
    d.handle(&WebRequest::get(&home));
    let q0 = d.db.statements_executed();
    d.handle(&WebRequest::get(&home));
    let fragment_queries = d.db.statements_executed() - q0;
    assert!(fragment_queries > 0, "fragment cache spared queries?!");

    // bean only
    let d = app
        .deploy(options(true, false, Duration::from_secs(3600)))
        .unwrap();
    d.handle(&WebRequest::get(&home));
    let q0 = d.db.statements_executed();
    d.handle(&WebRequest::get(&home));
    let bean_queries = d.db.statements_executed() - q0;
    assert_eq!(
        bean_queries, 0,
        "bean cache must spare the cached unit's queries"
    );
}

/// All four configurations produce byte-identical page content for
/// read-only traffic (caches must be semantically transparent there).
#[test]
fn cache_configs_agree_on_read_only_content() {
    let mut bodies = Vec::new();
    for (bean, fragment) in [(false, false), (true, false), (false, true), (true, true)] {
        let app = fixtures::acm_library();
        let d = app
            .deploy(options(bean, fragment, Duration::from_secs(3600)))
            .unwrap();
        fixtures::seed_acm(&d.db, 2, 2, 2);
        let mut pages = String::new();
        for p in &d.generated.descriptors.pages {
            // request twice so cached paths are actually exercised
            d.handle(
                &WebRequest::get(&p.url)
                    .with_param("volume", "1")
                    .with_param("paper", "1")
                    .with_param("kw", "%1%"),
            );
            let resp = d.handle(
                &WebRequest::get(&p.url)
                    .with_param("volume", "1")
                    .with_param("paper", "1")
                    .with_param("kw", "%1%"),
            );
            assert_eq!(resp.status, 200);
            pages.push_str(&resp.body);
        }
        bodies.push(pages);
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));
}

/// One application under the write schedule of
/// [`assert_matches_cold_recompute`].
struct Subject {
    app: Application,
    /// Puts the same rows into a warm leader's and the reference's store.
    seed: fn(&Application, &Deployment),
    /// `(draw, draw)` → a request to a generated create operation.
    insert: fn(&Deployment, u64, u64) -> WebRequest,
    /// Table and text column the direct SQL writes hit.
    table: &'static str,
    column: &'static str,
    /// Pages compared after every step: each page plain and as the URL
    /// variants whose parameters no unit reads or an automatic link
    /// overrides — the variants share fragments, and must still be right.
    reads: fn(&Deployment) -> Vec<WebRequest>,
}

/// The two-page bookstore: a cached index and an entry unit on the home
/// page, an uncached key-probe data unit on the detail page.
fn bookstore() -> Subject {
    Subject {
        app: fixtures::bookstore(),
        seed: |_, _| {},
        insert: |d, a, b| {
            WebRequest::get(&d.generated.descriptors.operations[0].url)
                .with_param("title", format!("Book {}", a % 400))
                .with_param("price", format!("{}.5", b % 90 + 1))
        },
        table: "book",
        column: "title",
        reads: |d| {
            let home = d.home_url("store").unwrap();
            let detail = &d.generated.descriptors.pages[1].url;
            let mut reads = vec![
                WebRequest::get(&home),
                WebRequest::get(&home).with_param("oid", "3"),
            ];
            reads.extend(
                (1..=4).map(|oid| WebRequest::get(detail).with_param("oid", oid.to_string())),
            );
            reads
        },
    }
}

/// A small Acer-Euro-shape application: every page has an index whose
/// automatic links feed the selectors of data units, related indexes and
/// trees — so `?sel…=5` names a row the page does not show.
fn synthetic() -> Subject {
    Subject {
        app: synthesize(&SynthSpec::scaled(10, 6)),
        seed: |app, d| seed_data(app, &d.db, 12, 7),
        insert: |d, a, _| {
            WebRequest::get(&d.generated.descriptors.operations[0].url)
                .with_param("name", format!("Created {}", a % 400))
        },
        table: "entity0",
        column: "name",
        reads: |d| {
            let set = &d.generated.descriptors;
            let mut reads = Vec::new();
            for page in &set.pages {
                reads.push(WebRequest::get(&page.url));
                let inputs = page
                    .units
                    .iter()
                    .filter_map(|u| set.unit(u))
                    .flat_map(|u| u.queries.iter().flat_map(|q| q.inputs.iter()))
                    // bound by the unit services themselves, not by requests
                    .filter(|input| *input != "block_limit" && *input != "parent");
                reads.extend(inputs.map(|input| WebRequest::get(&page.url).with_param(input, "5")));
            }
            reads
        },
    }
}

/// The synthetic application with no unit tagged `cached`: no bean is
/// ever cached, and every fragment's dependencies come from the page plan
/// alone.
fn untagged() -> Subject {
    let spec = SynthSpec {
        cached_fraction: 0.0,
        ..SynthSpec::scaled(10, 6)
    };
    Subject {
        app: synthesize(&spec),
        ..synthetic()
    }
}

/// Drive one seeded write schedule (operation-driven inserts plus direct
/// SQL updates and deletes on the leader's store) against a warm
/// deployment and a cacheless single-node reference; after every step,
/// once the log (if any) is flushed and every replica has applied it, each
/// warm node must serve every page of `subject.reads` byte-identical to
/// the reference — and a client that revalidates its last copy of each
/// page must only ever be told `304` for bytes the reference serves.
/// `warm` is the deployment's front door (the router, when replicated).
fn assert_matches_cold_recompute(
    label: &str,
    subject: &Subject,
    leader: &Deployment,
    replicas: &[Arc<Replica>],
    warm: &dyn Fn(&WebRequest) -> WebResponse,
) {
    let seed: u64 = std::env::var("RELSTORE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC1D2_2003);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let cold = subject
        .app
        .deploy(options(false, false, Duration::from_secs(3600)))
        .unwrap();
    (subject.seed)(&subject.app, leader);
    (subject.seed)(&subject.app, &cold);
    let (table, column) = (subject.table, subject.column);
    // one client session, whose validators the ETags fold
    let reads = (subject.reads)(leader);
    let sid = warm(&reads[0])
        .set_session
        .expect("a first request mints a session");
    let reads: Vec<WebRequest> = reads.into_iter().map(|r| r.with_session(&sid)).collect();
    // the client's last copy of each page: (validator, body)
    let mut held: Vec<Option<(String, String)>> = vec![None; reads.len()];

    for step in 0..40u64 {
        match next() % 3 {
            0 => {
                // insert through the generated operation on both apps;
                // autoincrement keeps the oid spaces aligned
                let req = (subject.insert)(leader, next(), next());
                assert_eq!(warm(&req).status, 200);
                assert_eq!(cold.handle(&req).status, 200);
            }
            kind => {
                let sql = if kind == 1 {
                    // in-place edit of a (possibly absent) row — the patch path
                    format!(
                        "UPDATE {table} SET {column} = 'Rev {step}.{}' WHERE oid = {}",
                        next() % 100,
                        next() % 40 + 1
                    )
                } else {
                    format!("DELETE FROM {table} WHERE oid = {}", next() % 40 + 1)
                };
                leader.db.execute(&sql, &Params::new()).unwrap();
                cold.db.execute(&sql, &Params::new()).unwrap();
            }
        }
        if let Some(wal) = &leader.wal {
            wal.flush_and_notify();
            for r in replicas {
                assert_eq!(r.applied_lsn(), wal.appended_lsn(), "{} lags", r.name());
            }
        }
        // after every op each warm node must agree with cold recompute
        // (reads round-robin over the replicas)
        for (read, held) in reads.iter().zip(held.iter_mut()) {
            let c = cold.handle(read);
            let at = || {
                format!(
                    "{label}: {} {:?} at step {step} (seed {seed})",
                    read.path, read.params
                )
            };
            for _ in 0..replicas.len().max(1) {
                let w = warm(read);
                assert_eq!(w.status, 200);
                assert_eq!(
                    w.body,
                    c.body,
                    "warm cache diverged from recompute: {}",
                    at()
                );
                // revalidate the client's last copy
                let mut revalidate = read.clone();
                revalidate.if_none_match = held.as_ref().map(|(tag, _)| tag.clone());
                let r = warm(&revalidate);
                match r.status {
                    304 => {
                        let kept = &held.as_ref().expect("304 without a validator").1;
                        assert_eq!(kept, &c.body, "304 for stale bytes: {}", at());
                    }
                    200 => assert_eq!(r.body, c.body, "revalidation diverged: {}", at()),
                    other => panic!("status {other}: {}", at()),
                }
                if r.status == 200 {
                    *held = Some((r.etag.expect("conditional GET mints ETags"), r.body));
                }
            }
        }
    }
    // the schedule must actually exercise the warm path: beans of tagged
    // units were hit, changes were folded in place or counted as
    // fallbacks, URL variants shared fragments, writes outdated some, and
    // validators were honoured
    let maint = &leader.obs.maint;
    let tagged = leader
        .generated
        .descriptors
        .units
        .iter()
        .any(|u| u.cache.is_some());
    if tagged {
        assert!(
            leader.obs.bean_cache.hits.get() > 0,
            "{label}: schedule never hit a bean cache"
        );
        assert!(
            maint.patches_applied.get() + maint.fallbacks_total() > 0,
            "{label}: schedule never reached the maintenance layer"
        );
    } else {
        assert_eq!(
            leader.obs.bean_cache.hits.get(),
            0,
            "{label}: untagged bean hit"
        );
    }
    assert!(
        leader.obs.fragment_cache.hits.get() > 0 && maint.fragment_rerenders.get() > 0,
        "{label}: schedule never hit or re-rendered a fragment"
    );
    assert!(maint.http_304.get() > 0, "{label}: no validator ever held");
    for r in replicas {
        assert!(leader.obs.repl.reads_for(r.name()) > 0, "{} idle", r.name());
    }
}

/// A validator never names a write whose maintenance pass has not
/// finished. A pass records the write, then sweeps the caches; a page
/// served between the two comes from the unswept cache. The interleaving
/// is forced with channels: the write is recorded → the client revalidates
/// (the tag is derived and the page served) → the sweep runs → the client
/// revalidates again, and must now hold the written row.
#[test]
fn a_validator_never_names_an_unswept_write() {
    use std::sync::mpsc::channel;
    use webml_ratio::relstore::{ChangeRecord, Value};

    let app = fixtures::bookstore();
    let runtime = RuntimeOptions {
        conditional_get: true,
        ..options(true, false, Duration::from_secs(3600))
    };
    let d = app.deploy(runtime).unwrap();
    d.db.execute(
        "INSERT INTO book (title, price) VALUES ('Old title', 10.0)",
        &Params::new(),
    )
    .unwrap();
    let home = d.home_url("store").unwrap();
    let first = d.handle(&WebRequest::get(&home));
    let sid = first.set_session.clone().unwrap();
    // the client's copy of the page: (validator, body)
    let mut held = (first.etag.unwrap(), first.body);
    let revalidate = |held: &mut (String, String)| {
        let mut req = WebRequest::get(&home).with_session(&sid);
        req.if_none_match = Some(held.0.clone());
        let resp = d.handle(&req);
        if resp.status == 200 {
            *held = (resp.etag.unwrap(), resp.body);
        }
    };
    revalidate(&mut held); // the list's bean is cached

    // the write lands the way a replica applies a batch — store first,
    // then the maintenance pass — driven by hand through a second
    // maintainer over the node's caches, so the pass can stop after its
    // first step: recording the write
    let maint = d
        .controller
        .maintainer(Arc::clone(d.maintenance.as_ref().unwrap()));
    let rows =
        d.db.query("SELECT * FROM book WHERE oid = 1", &Params::new())
            .unwrap();
    let title = rows.columns().iter().position(|c| c == "title").unwrap();
    let mut row = rows.rows()[0].clone();
    row[title] = Value::Text("New title".into());
    let batch = [ChangeRecord::Update {
        table: "book".into(),
        row_id: 0,
        row,
    }];
    let lsn = d.db.lsn() + 1;
    d.db.apply_batch(lsn, &batch).unwrap();

    let (recorded_tx, recorded) = channel::<()>();
    let (served_tx, served) = channel::<()>();
    let (swept_tx, swept) = channel::<()>();
    std::thread::scope(|s| {
        let held = &mut held;
        let client = s.spawn(move || {
            recorded.recv().unwrap();
            revalidate(held);
            served_tx.send(()).unwrap();
            swept.recv().unwrap();
            revalidate(held);
        });
        d.controller
            .bean_cache()
            .unwrap()
            .versions()
            .record("book", Some(1), lsn);
        recorded_tx.send(()).unwrap();
        served.recv().unwrap();
        maint.apply(lsn, &batch);
        swept_tx.send(()).unwrap();
        client.join().unwrap();
    });
    assert!(
        held.1.contains("New title"),
        "the client holds stale bytes under a current validator: {}",
        held.1
    );
}

/// Where the warm deployment of the oracle keeps its data.
#[derive(Debug, Clone, Copy)]
enum Topology {
    /// `Application::deploy`: no log; the caches follow the store's own
    /// commits.
    Plain,
    /// `Application::deploy_durable`.
    Durable,
    /// A durable leader and this many replicas behind the router.
    Replicated(usize),
}

/// The maintenance path preserves the no-stale-bean property: under a
/// randomized write schedule a warm deployment — bean and fragment caches
/// and conditional GET on, every node's caches following its own store
/// through the one maintainer — serves pages byte-identical to a
/// cacheless deployment recomputing from scratch, and never validates
/// stale bytes: on a plain node, on a durable one, and on every replica
/// behind the router, for the bookstore and for a synthetic application
/// whose selectors are fed by automatic links. Override the schedule with
/// `RELSTORE_STRESS_SEED`.
#[test]
fn maintained_cache_matches_cold_recompute() {
    let arms: [(fn() -> Subject, Topology); 5] = [
        (bookstore, Topology::Plain),
        (bookstore, Topology::Durable),
        (bookstore, Topology::Replicated(2)),
        (synthetic, Topology::Plain),
        (synthetic, Topology::Durable),
    ];
    for (subject, topology) in arms {
        oracle_arm(subject(), topology);
    }
}

/// The same oracle where no unit is model-tagged `cached`: only the
/// fragment cache and conditional GET hold anything, so every fragment is
/// kept fresh by being checked on read against the dependencies the page
/// plan derives from its unit's queries, never by a model tag.
#[test]
fn untagged_fragments_match_cold_recompute() {
    for topology in [Topology::Plain, Topology::Durable] {
        oracle_arm(untagged(), topology);
    }
}

/// One arm of the oracle: `subject` deployed warm on `topology` —
/// bean and fragment caches and conditional GET on — against a cold
/// recompute.
fn oracle_arm(subject: Subject, topology: Topology) {
    let label = format!("{}, {topology:?}", subject.app.name);
    let dir = webml_ratio::wal::TempDir::new("maint-prop").unwrap();
    let mut durability = DurabilityConfig::new(dir.path());
    // the schedule alone flushes: no flusher thread mid-dispatch while
    // a step compares pages
    durability.group_commit_window = Duration::from_secs(3600);
    let runtime = RuntimeOptions {
        conditional_get: true,
        ..options(true, true, Duration::from_secs(3600))
    };
    match topology {
        Topology::Plain | Topology::Durable => {
            let warm = match topology {
                Topology::Plain => subject.app.deploy(runtime),
                _ => subject.app.deploy_durable(runtime, &durability),
            }
            .unwrap();
            assert_matches_cold_recompute(&label, &subject, &warm, &[], &|req| warm.handle(req));
        }
        Topology::Replicated(replicas) => {
            let mut deploy = DeployOptions::default().with_replicas(replicas);
            deploy.runtime = runtime;
            let rd = deploy_replicated(&subject.app, deploy, &durability).unwrap();
            assert_matches_cold_recompute(&label, &subject, &rd.leader, &rd.replicas, &|req| {
                rd.handle(req)
            });
        }
    }
}

/// TTL-based cache annotations expire as configured.
#[test]
fn ttl_annotated_units_expire() {
    use webml_ratio::webml::CacheSpec;
    let mut app = fixtures::bookstore();
    // find the index unit and re-tag it with a short TTL, no write
    // invalidation
    let (uid, _) = app
        .hypertext
        .units()
        .find(|(_, u)| u.name == "All books")
        .unwrap();
    app.hypertext
        .set_cache(uid, CacheSpec::ttl(Duration::from_millis(50)));
    let d = app
        .deploy(options(true, false, Duration::from_secs(1)))
        .unwrap();
    let home = d.home_url("store").unwrap();
    d.handle(&WebRequest::get(&home));
    d.handle(&WebRequest::get(&home));
    let s1 = d.controller.bean_cache().unwrap().stats();
    assert_eq!(s1.hits, 1);
    std::thread::sleep(Duration::from_millis(70));
    d.handle(&WebRequest::get(&home));
    let s2 = d.controller.bean_cache().unwrap().stats();
    assert_eq!(s2.expirations, 1, "TTL did not expire the bean");
}
