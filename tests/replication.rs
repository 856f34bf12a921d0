//! Replication, end to end: log-shipping replicas behind the router
//! (read-your-writes, staleness redirects), idempotent convergence under
//! duplicated/overlapping batch delivery, replica crash recovery from its
//! own snapshot + log catch-up.

use proptest::prelude::*;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use webml_ratio::mvc::{Controller, WebRequest};
use webml_ratio::relstore::{ChangeRecord, Database, Params, Value};
use webml_ratio::repl::{deploy_replicated, Replica};
use webml_ratio::wal::{ChangeStream, LogObserver, TempDir, Wal, WalConfig};
use webml_ratio::webratio::{fixtures, DeployOptions, DurabilityConfig};

/// Manual-flush durability: a huge group-commit window, so each test
/// decides exactly when batches become durable (= visible to replicas).
fn manual(dir: &TempDir) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir.path());
    d.group_commit_window = Duration::from_secs(3600);
    d
}

#[test]
fn router_reads_from_replicas_and_never_breaks_read_your_writes() {
    let dir = TempDir::new("repl-router").unwrap();
    let app = fixtures::bookstore();
    let rd = deploy_replicated(
        &app,
        DeployOptions::default().with_replicas(2),
        &manual(&dir),
    )
    .expect("replicated deploy");
    let wal = Arc::clone(rd.leader.wal.as_ref().unwrap());
    let repl = Arc::clone(&rd.leader.obs.repl);

    // schema (logged DDL) becomes durable → replicas bootstrap it
    wal.flush_and_notify();
    for r in &rd.replicas {
        assert!(r.applied_lsn() > 0, "replica missed the DDL batch");
        assert!(
            !r.db().table_names().is_empty(),
            "schema must arrive through the log stream"
        );
    }

    // an anonymous read is served by a replica, not the leader
    let home = rd.leader.home_url("store").unwrap();
    let r0 = rd.handle(&WebRequest::get(&home));
    assert_eq!(r0.status, 200, "{}", r0.body);
    let replica_reads: u64 = (0..2)
        .map(|i| repl.reads_for(&format!("replica-{i}")))
        .sum();
    assert_eq!(replica_reads, 1, "read should land on a replica");
    assert_eq!(repl.reads_for("leader"), 0);

    // a write routes to the leader and stamps the session's write LSN
    let op_url = rd.leader.generated.descriptors.operations[0].url.clone();
    let resp = rd.handle(
        &WebRequest::get(&op_url)
            .with_param("title", "Fresh ink")
            .with_param("price", "9.0"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let sid = resp.set_session.expect("operation starts a session");

    // the write is not durable yet, so both replicas lag the session's
    // floor: the read must redirect to the leader — and SEE the write
    let before = repl.stale_redirects.get();
    let r1 = rd.handle(&WebRequest::get(&home).with_session(&sid));
    assert!(
        r1.body.contains("Fresh ink"),
        "session read its own write nowhere: {}",
        r1.body
    );
    assert!(
        repl.stale_redirects.get() > before,
        "lagging replicas must redirect the session to the leader"
    );
    assert_eq!(repl.reads_for("leader"), 1);

    // once durable and applied, the same session reads from a replica
    wal.flush_and_notify();
    let replica_reads_before: u64 = (0..2)
        .map(|i| repl.reads_for(&format!("replica-{i}")))
        .sum();
    let r2 = rd.handle(&WebRequest::get(&home).with_session(&sid));
    assert!(r2.body.contains("Fresh ink"), "{}", r2.body);
    let replica_reads_after: u64 = (0..2)
        .map(|i| repl.reads_for(&format!("replica-{i}")))
        .sum();
    assert_eq!(replica_reads_after, replica_reads_before + 1);
    assert_eq!(repl.reads_for("leader"), 1, "no second leader read");

    // the whole story is observable
    let metrics = rd.leader.obs.render_prometheus();
    for family in [
        "repl_reads_total{target=\"replica-0\"}",
        "repl_applied_lsn{replica=\"replica-1\"}",
        "repl_lag_lsn{replica=\"replica-0\"}",
        "repl_stale_redirects_total",
    ] {
        assert!(metrics.contains(family), "/metrics lacks {family}");
    }
}

/// Replicas apply only what the leader has made durable: an operation
/// routed to the leader commits, reaches the leader's caches, and — until
/// the log is flushed — no replica has applied past the leader's durable
/// LSN, so a crash cannot leave a replica ahead of the recovered leader.
#[test]
fn replicas_never_apply_past_the_leaders_durable_lsn() {
    let dir = TempDir::new("repl-durable-only").unwrap();
    let app = fixtures::bookstore();
    let mut options = DeployOptions::default().with_replicas(2);
    options.runtime.fragment_cache = true;
    options.runtime.conditional_get = true;
    let rd = deploy_replicated(&app, options, &manual(&dir)).expect("replicated deploy");
    let wal = Arc::clone(rd.leader.wal.as_ref().unwrap());
    wal.flush_and_notify();

    let op_url = rd.leader.generated.descriptors.operations[0].url.clone();
    let resp = rd.handle(
        &WebRequest::get(&op_url)
            .with_param("title", "Unflushed")
            .with_param("price", "3.0"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("Unflushed"), "{}", resp.body);
    assert!(
        wal.appended_lsn() > wal.durable_lsn(),
        "nothing left to flush"
    );
    for r in &rd.replicas {
        assert!(
            r.applied_lsn() <= wal.durable_lsn(),
            "{} applied LSN {} past the leader's durable LSN {}",
            r.name(),
            r.applied_lsn(),
            wal.durable_lsn()
        );
    }

    wal.flush_and_notify();
    for r in &rd.replicas {
        assert_eq!(r.applied_lsn(), wal.durable_lsn(), "{} lags", r.name());
    }
}

#[test]
fn replica_crashes_mid_stream_and_recovers_from_snapshot_plus_catchup() {
    let dir = TempDir::new("repl-crash").unwrap();
    let app = fixtures::bookstore();
    let d = app
        .deploy_durable(Default::default(), &manual(&dir))
        .unwrap();
    let wal = Arc::clone(d.wal.as_ref().unwrap());
    let counters = Arc::clone(&d.obs.repl);

    for i in 0..3 {
        d.db.execute(
            "INSERT INTO book (title, price) VALUES (:t, :p)",
            &Params::new().bind("t", format!("early {i}")).bind("p", 5.0),
        )
        .unwrap();
    }
    wal.flush_and_notify();

    // first life: bootstrap a replica from the durable log, snapshot it
    let snap_path = Replica::snapshot_path(dir.path(), "r0");
    let mid_lsn = {
        let db = Arc::new(Database::new());
        let info = wal.recover_into(&db).unwrap();
        let replica = Replica::new("r0", db, info.last_lsn, Arc::clone(&counters));
        let lsn = replica.snapshot_to(&snap_path).unwrap();
        assert_eq!(lsn, info.last_lsn);
        lsn
        // replica dropped here = crash mid-stream, before the tail below
    };

    // the leader keeps writing past the replica's snapshot
    for i in 0..4 {
        d.db.execute(
            "INSERT INTO book (title, price) VALUES (:t, :p)",
            &Params::new().bind("t", format!("late {i}")).bind("p", 7.0),
        )
        .unwrap();
    }
    d.db.execute(
        "DELETE FROM book WHERE title = :t",
        &Params::new().bind("t", "early 1"),
    )
    .unwrap();
    wal.flush_and_notify();

    // second life: restore from the replica's OWN snapshot, then catch up
    // only the tail via replay_from — no full re-ship needed
    let (db2, restored_lsn) = Replica::restore_db(&snap_path).unwrap();
    assert_eq!(restored_lsn, mid_lsn);
    let revived = Replica::new("r0", db2, restored_lsn, Arc::clone(&counters));
    let caught_up = wal
        .replay_from(
            restored_lsn,
            Arc::clone(&revived) as Arc<dyn webml_ratio::wal::LogObserver>,
        )
        .unwrap();
    assert!(caught_up > mid_lsn, "tail batches must replay");
    assert_eq!(
        revived.db().dump(),
        d.db.dump(),
        "recovered replica must be byte-identical to the leader"
    );
}

/// A replica's LSN is the router's licence to serve a session that wrote
/// at that LSN, so it must be published only after the batch is in the
/// store *and* the replica's caches have followed it.
#[test]
fn replica_publishes_its_lsn_after_its_observers_ran() {
    struct Probe {
        replica: OnceLock<Arc<Replica>>,
        /// `(batch lsn, applied_lsn() and row count seen while observing)`
        seen: Mutex<Vec<(u64, u64, usize)>>,
    }
    impl LogObserver for Probe {
        fn on_durable(&self, lsn: u64, _: &[ChangeRecord]) {
            let replica = self.replica.get().unwrap();
            let rows = replica.db().table_len("t").unwrap();
            self.seen
                .lock()
                .unwrap()
                .push((lsn, replica.applied_lsn(), rows));
        }
    }

    let db = Arc::new(Database::new());
    db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
        .unwrap();
    let replica = Replica::new("r0", db, 3, Arc::new(webml_ratio::obs::ReplCounters::new()));
    let probe = Arc::new(Probe {
        replica: OnceLock::new(),
        seen: Mutex::new(Vec::new()),
    });
    let _ = probe.replica.set(Arc::clone(&replica));
    replica.attach_observer(Arc::clone(&probe) as Arc<dyn LogObserver>);

    let insert = ChangeRecord::Insert {
        table: "t".into(),
        row_id: 0,
        row: vec![Value::Integer(1), Value::Text("x".into())],
    };
    assert!(replica.apply_batch(7, std::slice::from_ref(&insert)));
    // while the observer ran the row was applied, the LSN still the old one
    assert_eq!(*probe.seen.lock().unwrap(), vec![(7, 3, 1)]);
    assert_eq!(replica.applied_lsn(), 7);
    // a duplicate batch reaches neither the store nor the observers
    assert!(!replica.apply_batch(7, &[insert]));
    assert_eq!(probe.seen.lock().unwrap().len(), 1);
}

/// Conditional GET on a replica: the replica's controller never sees the
/// operation (it ran on the leader), so its validators move only because
/// the applied batch stream bumps its version table.
#[test]
fn replica_etag_moves_with_the_applied_write() {
    let dir = TempDir::new("repl-etag").unwrap();
    let app = fixtures::bookstore();
    let mut options = DeployOptions::default().with_replicas(1);
    options.runtime.conditional_get = true;
    let rd = deploy_replicated(&app, options, &manual(&dir)).expect("replicated deploy");
    let wal = Arc::clone(rd.leader.wal.as_ref().unwrap());
    let repl = Arc::clone(&rd.leader.obs.repl);
    let home = rd.leader.home_url("store").unwrap();
    let op_url = rd.leader.generated.descriptors.operations[0].url.clone();
    let create = |title: &str, sid: Option<&str>| {
        let mut req = WebRequest::get(&op_url)
            .with_param("title", title)
            .with_param("price", "9.0");
        req.session = sid.map(str::to_string);
        let resp = rd.handle(&req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp
    };
    let sid = create("First print", None).set_session.expect("session");
    wal.flush_and_notify();

    // the replica serves the page with a validator, and honours it
    let get = |inm: Option<&str>| {
        let mut req = WebRequest::get(&home).with_session(&sid);
        req.if_none_match = inm.map(str::to_string);
        rd.handle(&req)
    };
    let r1 = get(None);
    assert_eq!(r1.status, 200);
    assert!(r1.body.contains("First print"));
    let etag1 = r1.etag.expect("conditional_get mints an ETag");
    assert_eq!(get(Some(&etag1)).status, 304);
    assert_eq!(repl.reads_for("replica-0"), 2);

    // the row changes on the leader; once the replica has applied it …
    create("Second print", Some(&sid));
    wal.flush_and_notify();
    assert_eq!(rd.replicas[0].applied_lsn(), wal.appended_lsn());

    // … the old validator must not answer 304 there
    let r2 = get(Some(&etag1));
    assert_eq!(
        repl.reads_for("replica-0"),
        3,
        "the replica serves the read"
    );
    assert_eq!(r2.status, 200, "stale 304 from the replica");
    assert!(r2.body.contains("Second print"), "{}", r2.body);
    let etag2 = r2.etag.expect("etag");
    assert_ne!(etag1, etag2, "validator must move with the applied write");
    assert_eq!(get(Some(&etag2)).status, 304);
}

/// One version on every node: a write's commit LSN is the same on the
/// leader and on every replica that applied it, so a validator minted on
/// one replica answers `304` on the other and on the leader once all have
/// applied the same LSN — and a write to the page's table moves it, to
/// one new tag, on every node.
#[test]
fn a_validator_minted_on_one_replica_validates_on_every_node() {
    let dir = TempDir::new("repl-etag-shared").unwrap();
    let app = fixtures::bookstore();
    let mut options = DeployOptions::default().with_replicas(2);
    options.runtime.conditional_get = true;
    let rd = deploy_replicated(&app, options, &manual(&dir)).expect("replicated deploy");
    let wal = Arc::clone(rd.leader.wal.as_ref().unwrap());
    let home = rd.leader.home_url("store").unwrap();
    let op_url = rd.leader.generated.descriptors.operations[0].url.clone();
    let create = |title: &str, sid: Option<&str>| {
        let mut req = WebRequest::get(&op_url)
            .with_param("title", title)
            .with_param("price", "9.0");
        req.session = sid.map(str::to_string);
        let resp = rd.handle(&req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp
    };
    let settle = || {
        wal.flush_and_notify();
        for r in &rd.replicas {
            assert_eq!(r.applied_lsn(), wal.appended_lsn(), "{} lags", r.name());
        }
    };
    let sid = create("First print", None).set_session.expect("session");
    settle();

    // leader, replica-0, replica-1 — asked directly, not via the router
    let nodes: Vec<&Controller> = std::iter::once(&*rd.leader.controller)
        .chain(rd.router.replicas().iter().map(|e| &*e.controller))
        .collect();
    let get = |node: &Controller, inm: Option<&str>| {
        let mut req = WebRequest::get(&home).with_session(&sid);
        req.if_none_match = inm.map(str::to_string);
        node.handle(&req)
    };
    let minted = get(nodes[1], None);
    assert_eq!(minted.status, 200);
    let tag = minted.etag.expect("conditional_get mints an ETag");
    for (i, node) in nodes.iter().enumerate() {
        let r = get(node, Some(&tag));
        assert_eq!(r.status, 304, "node {i} does not honour replica-0's tag");
        assert_eq!(r.etag.as_ref(), Some(&tag));
    }

    create("Second print", Some(&sid));
    settle();
    let mut moved: Option<String> = None;
    for (i, node) in nodes.iter().enumerate() {
        let r = get(node, Some(&tag));
        assert_eq!(r.status, 200, "stale 304 from node {i}");
        assert!(r.body.contains("Second print"), "{}", r.body);
        let now = r.etag.expect("etag");
        assert_ne!(now, tag);
        assert_eq!(moved.get_or_insert_with(|| now.clone()), &now, "node {i}");
    }
}

/// One random op applied through the leader's SQL front door.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1i64..8, 0i64..100).prop_map(|(k, v)| Op::Insert(k, v)),
        (1i64..8, 0i64..100).prop_map(|(k, v)| Op::Update(k, v)),
        (1i64..8).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Re-shipping the whole history — twice, plus an overlapping tail —
    /// leaves a replica byte-identical to one that saw each batch exactly
    /// once: LSN-idempotent apply makes delivery duplication harmless.
    #[test]
    fn duplicated_and_overlapping_batches_converge(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        split in 0usize..30,
    ) {
        let dir = TempDir::new("repl-converge").unwrap();
        let mut cfg = WalConfig::new(dir.path());
        cfg.group_commit_window = Duration::from_secs(3600);
        let wal = Wal::open(cfg, Arc::new(webml_ratio::obs::WalCounters::default())).unwrap();
        let db = Arc::new(Database::new());
        wal.recover_into(&db).unwrap();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn webml_ratio::relstore::CommitSink>, false);
        db.execute_script(
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT, k INTEGER, v INTEGER, PRIMARY KEY (oid))",
        ).unwrap();

        let split = split.min(ops.len());
        let mut mid_lsn = 0;
        for (i, op) in ops.iter().enumerate() {
            if i == split {
                wal.flush_and_notify();
                mid_lsn = wal.appended_lsn();
            }
            match op {
                Op::Insert(k, v) => db.execute(
                    "INSERT INTO t (k, v) VALUES (?, ?)",
                    &Params::positional([Value::Integer(*k), Value::Integer(*v)]),
                ),
                Op::Update(k, v) => db.execute(
                    "UPDATE t SET v = ? WHERE k = ?",
                    &Params::positional([Value::Integer(*v), Value::Integer(*k)]),
                ),
                Op::Delete(k) => db.execute(
                    "DELETE FROM t WHERE k = ?",
                    &Params::positional([Value::Integer(*k)]),
                ),
            }.unwrap();
        }
        wal.flush_and_notify();

        let counters = Arc::new(webml_ratio::obs::ReplCounters::new());
        // clean replica: every batch exactly once
        let clean = Replica::new("clean", Arc::new(Database::new()), 0, Arc::clone(&counters));
        wal.replay_from(0, Arc::clone(&clean) as Arc<dyn webml_ratio::wal::LogObserver>).unwrap();
        // messy replica: full history twice, then an overlapping tail
        let messy = Replica::new("messy", Arc::new(Database::new()), 0, Arc::clone(&counters));
        for from in [0, 0, mid_lsn] {
            wal.replay_from(from, Arc::clone(&messy) as Arc<dyn webml_ratio::wal::LogObserver>).unwrap();
        }

        prop_assert!(counters.batches_duplicate.get() > 0, "overlap must be exercised");
        prop_assert_eq!(clean.db().dump(), messy.db().dump());
        prop_assert_eq!(clean.db().dump(), db.dump());
    }
}
