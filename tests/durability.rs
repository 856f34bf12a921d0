//! End-to-end durability: a model-driven application deployed with the
//! write-ahead log underneath it, exercised over HTTP, crashed, and
//! recovered — plus the replica-style cache story: bean invalidation
//! driven by the *durable* change stream rather than the in-process
//! operation service.

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

/// The replica topology in miniature: a write applied *behind the
/// controller's back* (directly on the database, as a replicated write
/// would be) does not invalidate the bean cache until it is durable —
/// and does as soon as it is.
#[test]
fn bean_cache_invalidation_is_driven_by_the_durable_log() {
    let dir = webml_ratio::wal::TempDir::new("e2e-replica").unwrap();
    let app = fixtures::bookstore();
    let durability = manual(&dir);
    let d = app
        .deploy_durable(
            RuntimeOptions {
                fragment_cache: false, // isolate the bean (second) level
                ..RuntimeOptions::default()
            },
            &durability,
        )
        .unwrap();
    let wal = Arc::clone(d.wal.as_ref().unwrap());
    let home = d.home_url("store").unwrap();

    d.db.execute(
        "INSERT INTO book (title, price) VALUES (:t, :p)",
        &Params::new().bind("t", "First").bind("p", 10.0),
    )
    .unwrap();
    wal.flush_and_notify();

    // Render once: the index unit's bean is now cached.
    let r1 = d.handle(&WebRequest::get(&home));
    assert!(r1.body.contains("First"));

    // A write the controller never sees (replica-applied).
    d.db.execute(
        "INSERT INTO book (title, price) VALUES (:t, :p)",
        &Params::new().bind("t", "Second").bind("p", 20.0),
    )
    .unwrap();

    // Not durable yet → the cached bean must still be served (a crash
    // could still un-happen this write; dropping the bean would be wrong).
    let r2 = d.handle(&WebRequest::get(&home));
    assert!(
        !r2.body.contains("Second"),
        "bean invalidated before the write was durable"
    );

    // Durable → the log observer drops the bean; the next render is fresh.
    wal.flush_and_notify();
    let r3 = d.handle(&WebRequest::get(&home));
    assert!(r3.body.contains("Second"), "{}", r3.body);
    assert!(r3.body.contains("First"));
}

/// Dropping a durable deployment frees its store and stops its log. The
/// cache maintainer rides the log, which the database's commit sink owns:
/// were it to hold the database strongly, the three would keep each other
/// (and the flusher thread) alive forever.
#[test]
fn dropped_durable_deployment_frees_its_store_and_log() {
    let app = fixtures::bookstore();
    for incremental in [false, true] {
        let dir = webml_ratio::wal::TempDir::new("e2e-drop").unwrap();
        let mut durability = manual(&dir);
        durability.incremental_maintenance = incremental;
        let rd = webml_ratio::repl::deploy_replicated(
            &app,
            webml_ratio::webratio::DeployOptions::default().with_replicas(1),
            &durability,
        )
        .unwrap();
        let stores = [
            Arc::downgrade(&rd.leader.db),
            Arc::downgrade(rd.replicas[0].db()),
        ];
        let wal = Arc::downgrade(rd.leader.wal.as_ref().unwrap());
        drop(rd);
        assert!(wal.upgrade().is_none(), "log leaked ({incremental})");
        for db in stores {
            assert!(db.upgrade().is_none(), "store leaked ({incremental})");
        }
    }
}
