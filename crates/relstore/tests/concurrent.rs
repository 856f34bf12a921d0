//! Concurrent-transaction semantics: transactions from many threads
//! interleave arbitrarily, yet the engine's write lock makes the history
//! equivalent to *some* serial application of exactly the committed
//! transactions — rollbacks leave no trace, invariants preserved inside
//! each transaction hold globally, and a commit sink observes one batch
//! per committed transaction in a single total order.

use relstore::{ChangeRecord, CommitSink, Database, Error, Params, Value};
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

// ---- seeded schedules on the exclusive path --------------------------------

const SUM: &str = "SELECT SUM(balance) AS total FROM account";

/// Seeded pseudo-random schedule stress: threads run a deterministic
/// (per-seed) mix of committed transfers, transfers rolled back after their
/// debit, full-sum autocommit reads and ledger inserts. Transfers run in
/// `Database::transaction`; a rollback is the closure returning `Err`.
/// Every interleaving must preserve the invariant sum over `account`, every
/// read must see it exactly, and the ledger must hold exactly the committed
/// inserts. Override the seed with `RELSTORE_STRESS_SEED` to explore
/// different schedules.
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
    let debit = "UPDATE account SET balance = balance - :a WHERE oid = :o";
    let credit = "UPDATE account SET balance = balance + :a WHERE oid = :o";

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
                        // transfer, committed
                        0 | 1 => {
                            let amount = (rng() % 9 + 1) as i64;
                            let from = (rng() % accounts as u64) as i64 + 1;
                            let to = (rng() % accounts as u64) as i64 + 1;
                            db.transaction(|tx| {
                                tx.execute(
                                    debit,
                                    &Params::new().bind("a", amount).bind("o", from),
                                )?;
                                tx.execute(credit, &Params::new().bind("a", amount).bind("o", to))?;
                                Ok(())
                            })
                            .unwrap();
                        }
                        // transfer rolled back after its debit: inside, the
                        // transaction sees its own debit and no one else's
                        2 => {
                            let amount = (rng() % 9 + 1) as i64;
                            let from = (rng() % accounts as u64) as i64 + 1;
                            let r = db.transaction(|tx| -> Result<(), Error> {
                                tx.execute(
                                    debit,
                                    &Params::new().bind("a", amount).bind("o", from),
                                )?;
                                let seen = int(tx.query(SUM, &Params::new())?.first("total"));
                                assert_eq!(
                                    seen,
                                    total - amount,
                                    "foreign write inside a transaction"
                                );
                                Err(Error::Transaction("deliberate rollback".into()))
                            });
                            assert!(r.is_err());
                        }
                        // full-sum autocommit read: always exact
                        3 => {
                            let rs = db.query(SUM, &Params::new()).unwrap();
                            assert_eq!(int(rs.first("total")), total, "torn read under stress");
                        }
                        // ledger insert (append-only table)
                        _ => {
                            let delta = (rng() % 100) as i64;
                            db.execute(
                                "INSERT INTO ledger (delta) VALUES (:d)",
                                &Params::new().bind("d", delta),
                            )
                            .unwrap();
                            committed_ledger.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }

    let rs = db.query(SUM, &Params::new()).unwrap();
    assert_eq!(int(rs.first("total")), total, "stress broke the invariant");
    let rs = db
        .query("SELECT COUNT(*) AS n FROM ledger", &Params::new())
        .unwrap();
    assert_eq!(
        int(rs.first("n")) as u64,
        committed_ledger.load(Ordering::Relaxed),
        "ledger rows != committed ledger inserts"
    );
    assert_eq!(db.table_len("account").unwrap(), accounts as usize);
}

// ---- replica apply ----------------------------------------------------------

/// A replica applies the leader's batches while readers serve pages from
/// it. Each batch here is one committed transfer — two `Update` records —
/// so a reader that ever sees the two rows out of balance saw half a
/// transaction. `apply_batch` takes the storage write lock once per
/// batch: no tear, and `lsn()` names the last batch applied.
#[test]
fn replica_readers_never_observe_half_a_batch() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE account (oid INTEGER PRIMARY KEY AUTOINCREMENT, balance INTEGER NOT NULL);
         INSERT INTO account (balance) VALUES (1000);
         INSERT INTO account (balance) VALUES (1000);",
    )
    .unwrap();
    let batches = 2_000i64;
    let row = |slot: usize, oid: i64, balance: i64| ChangeRecord::Update {
        table: "account".into(),
        row_id: slot,
        row: vec![Value::Integer(oid), Value::Integer(balance)],
    };
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(2));
    let reader = {
        let (db, done, start) = (Arc::clone(&db), Arc::clone(&done), Arc::clone(&start));
        thread::spawn(move || {
            let (mut reads, mut torn) = (0u64, 0u64);
            start.wait();
            loop {
                let finished = done.load(Ordering::Acquire);
                let rs = db.query(SUM, &Params::new()).unwrap();
                reads += 1;
                torn += u64::from(int(rs.first("total")) != 2000);
                if finished {
                    return (reads, torn);
                }
            }
        })
    };
    let first = db.lsn() + 1;
    start.wait();
    for i in 1..=batches {
        let lsn = first + i as u64;
        db.apply_batch(lsn, &[row(0, 1, 1000 - i), row(1, 2, 1000 + i)])
            .unwrap();
        assert_eq!(db.lsn(), lsn);
    }
    done.store(true, Ordering::Release);
    let (reads, torn) = reader.join().unwrap();
    assert_eq!(torn, 0, "{torn} of {reads} reads saw half a batch");
    let rs = db
        .query("SELECT balance FROM account ORDER BY oid", &Params::new())
        .unwrap();
    assert_eq!(int(rs.get(0, "balance")), 1000 - batches);
}
