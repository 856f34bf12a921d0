//! End-to-end durability: a model-driven application deployed with the
//! write-ahead log underneath it, exercised over HTTP, crashed, and
//! recovered — plus the cache story on each node: the leader's caches
//! follow its own commits, a replica's follow the durable log.

use std::sync::Arc;
use std::time::Duration;
use webml_ratio::httpd::client;
use webml_ratio::mvc::{RuntimeOptions, WebRequest};
use webml_ratio::relstore::Params;
use webml_ratio::webratio::{fixtures, DurabilityConfig};

/// Manual-flush durability config: a huge group-commit window so the
/// tests control exactly when batches become durable.
fn manual(dir: &webml_ratio::wal::TempDir) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir.path());
    d.group_commit_window = Duration::from_secs(3600);
    d
}

/// Deploy → HTTP operation → crash → recover: the row created over HTTP
/// survives the crash, and `/metrics` exposes the wal counters.
#[test]
fn http_operations_survive_crash_and_recovery() {
    let dir = webml_ratio::wal::TempDir::new("e2e-durable").unwrap();
    let app = fixtures::bookstore();
    let durability = manual(&dir);

    // ---- first life: create a book over HTTP ----
    {
        let d = app
            .deploy_durable(RuntimeOptions::default(), &durability)
            .unwrap();
        let server = d.serve_traced(0, 2).unwrap();
        let addr = server.addr();

        let op_url = d.generated.descriptors.operations[0].url.clone();
        let resp =
            client::get(addr, &format!("{op_url}?title=Mission-critical&price=42.0")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(d.db.table_len("book").unwrap(), 1);

        // the web tier's /metrics surface carries the wal economics
        let metrics = String::from_utf8(client::get(addr, "/metrics").unwrap().body).unwrap();
        for name in [
            "wal_flushes",
            "wal_group_batch_size",
            "wal_bytes_written",
            "wal_recovery_micros",
        ] {
            assert!(metrics.contains(name), "/metrics lacks {name}:\n{metrics}");
        }

        let wal = Arc::clone(d.wal.as_ref().unwrap());
        wal.flush_and_notify(); // make the HTTP-created row durable
        wal.simulate_crash(); // ... and kill the log writer
        server.stop();
    }

    // ---- second life: everything durable is back ----
    let d = app
        .deploy_durable(RuntimeOptions::default(), &durability)
        .unwrap();
    let info = d.recovery.as_ref().unwrap();
    assert!(info.replayed_records >= 2, "DDL + insert must replay");
    assert!(info.tables_touched.contains("book"));
    assert_eq!(d.db.table_len("book").unwrap(), 1);
    let home = d.home_url("store").unwrap();
    let resp = d.handle(&WebRequest::get(&home));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("Mission-critical"));
}

/// Each node's caches follow the batches its store holds. A write applied
/// *behind the controller's back* (directly on the leader's database)
/// reaches the leader's bean cache before the call returns, as the store
/// already serves it; a replica, which follows the durable log, applies it
/// — store and caches — only once it is flushed.
#[test]
fn leader_caches_follow_commits_replicas_follow_the_durable_log() {
    let dir = webml_ratio::wal::TempDir::new("e2e-replica").unwrap();
    let app = fixtures::bookstore();
    let mut options = webml_ratio::webratio::DeployOptions::default().with_replicas(1);
    options.runtime.fragment_cache = false; // isolate the bean (second) level
    let rd = webml_ratio::repl::deploy_replicated(&app, options, &manual(&dir)).unwrap();
    let (leader, replica) = (&rd.leader, &rd.router.replicas()[0]);
    let wal = Arc::clone(leader.wal.as_ref().unwrap());
    let home = leader.home_url("store").unwrap();
    let insert = |title: &str| {
        leader
            .db
            .execute(
                "INSERT INTO book (title, price) VALUES (:t, :p)",
                &Params::new().bind("t", title).bind("p", 10.0),
            )
            .unwrap();
    };

    insert("First");
    wal.flush_and_notify();
    // Render once on each node: the index unit's bean is now cached.
    for node in [&leader.controller, &replica.controller] {
        assert!(node.handle(&WebRequest::get(&home)).body.contains("First"));
    }

    // A write the controller never sees, not yet durable.
    insert("Second");
    let r2 = leader.handle(&WebRequest::get(&home));
    assert!(
        r2.body.contains("Second"),
        "the leader's cache missed a commit its store serves: {}",
        r2.body
    );
    let r2 = replica.controller.handle(&WebRequest::get(&home));
    assert!(
        !r2.body.contains("Second"),
        "the replica applied the write before it was durable"
    );
    assert!(rd.replicas[0].applied_lsn() <= wal.durable_lsn());

    // Durable → shipped, applied, maintained; the next render is fresh.
    wal.flush_and_notify();
    let r3 = replica.controller.handle(&WebRequest::get(&home));
    assert!(r3.body.contains("Second"), "{}", r3.body);
    assert!(r3.body.contains("First"));
}

/// Dropping a deployment frees its store and stops its log. The cache
/// maintainer rides the node's commit stream, which the database's commit
/// sink is: were it to hold the database strongly, the store, the stream
/// (and the log, with its flusher thread) would keep each other alive
/// forever — on a durable replicated deployment and on a plain one alike.
#[test]
fn dropped_durable_deployment_frees_its_store_and_log() {
    let app = fixtures::bookstore();
    let dir = webml_ratio::wal::TempDir::new("e2e-drop").unwrap();
    let rd = webml_ratio::repl::deploy_replicated(
        &app,
        webml_ratio::webratio::DeployOptions::default().with_replicas(1),
        &manual(&dir),
    )
    .unwrap();
    let stores = [
        Arc::downgrade(&rd.leader.db),
        Arc::downgrade(rd.replicas[0].db()),
    ];
    let wal = Arc::downgrade(rd.leader.wal.as_ref().unwrap());
    drop(rd);
    assert!(wal.upgrade().is_none(), "log leaked");
    for db in stores {
        assert!(db.upgrade().is_none(), "replicated store leaked");
    }

    let d = app
        .deploy(RuntimeOptions {
            fragment_cache: true,
            conditional_get: true,
            ..RuntimeOptions::default()
        })
        .unwrap();
    let store = Arc::downgrade(&d.db);
    drop(d);
    assert!(store.upgrade().is_none(), "plain store leaked");
}
