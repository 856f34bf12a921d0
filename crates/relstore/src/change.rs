//! Committed-change records: the redo stream a durability subsystem (or a
//! replica) consumes.
//!
//! The engine keeps its *undo* log for rollback (see [`crate::storage`]);
//! a write-ahead log needs the opposite direction — the **redo** image of
//! every committed transaction. [`redo_from_undo`] derives that image at
//! commit time, while the storage write lock is still held, so the emitted
//! stream is totally ordered and consistent with commit order.
//!
//! The records are *physical*: they name the exact row slot ([`RowId`])
//! they touch and carry full row values, so replaying them with
//! [`crate::Database::apply_batch`] is idempotent — re-applying a record
//! converges to the same state, which is what makes fuzzy snapshots (taken
//! while the log keeps growing) safe.

use crate::storage::{Storage, UndoOp};
use crate::table::{Row, RowId};
use std::collections::HashMap;

/// One committed physical change, as published to a [`CommitSink`].
///
/// Table names are stored in their canonical (lower-case) form, matching
/// the storage map and the entity names that unit descriptors use for
/// cache invalidation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeRecord {
    /// A row now exists at `row_id` with these values.
    Insert {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// The row at `row_id` now has these values.
    Update {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// The row at `row_id` is gone. Carries the deleted row's last image
    /// so downstream consumers (incremental cache maintenance, oid-scoped
    /// invalidation) can tell *which* logical row vanished — `row_id` is a
    /// physical slot, not the oid.
    Delete {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// A schema change, as re-runnable SQL text.
    Ddl { sql: String },
}

impl ChangeRecord {
    /// The entity (table) this record touches, or `None` for DDL.
    pub fn table(&self) -> Option<&str> {
        match self {
            ChangeRecord::Insert { table, .. }
            | ChangeRecord::Update { table, .. }
            | ChangeRecord::Delete { table, .. } => Some(table),
            ChangeRecord::Ddl { .. } => None,
        }
    }
}

/// Where committed changes go. Installed on a [`crate::Database`] via
/// [`crate::Database::set_commit_sink`]; implemented by `wal::Wal`.
///
/// `on_commit` is called **with the storage write lock held**, immediately
/// after the transaction's mutations become visible, so implementations
/// must only do cheap in-memory work (append to a buffer) and return a
/// sequence number. If the sink was installed in *strict* mode the engine
/// calls [`CommitSink::wait_durable`] with that sequence number **after**
/// releasing the lock, which is what makes group commit effective: many
/// committers can wait for one flush together without serializing on the
/// database lock.
pub trait CommitSink: Send + Sync {
    /// Record one committed transaction; returns its log sequence number.
    fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64;

    /// Block until `lsn` is durable. Returns
    /// [`Error::Durability`](crate::Error::Durability) when the sink hit a
    /// real I/O failure and `lsn` can never become durable — the caller's
    /// commit was acknowledged in memory but its record is lost, and that
    /// must surface as an error, not a silent `Ok`. A *simulated* crash
    /// (fault injection) is not an error: a dead machine acks nothing.
    fn wait_durable(&self, lsn: u64) -> crate::Result<()>;
}

/// Derive the redo image of a committed transaction from its undo log.
///
/// Values are resolved *backwards*: the value a row had right after an
/// operation is the `old` image stored by the **next** operation on the
/// same slot, or — for the last operation — the slot's current row in
/// `storage`. This handles insert-then-update-then-delete chains, and a
/// delete whose freed slot a later insert reuses, without ever logging
/// intermediates that no longer exist.
///
/// Rows that vanished entirely (inserted and deleted in the same
/// transaction) still produce their `Insert`/`Delete` pair so that slot
/// allocation replays identically.
pub fn redo_from_undo(storage: &Storage, undo: &[UndoOp]) -> Vec<ChangeRecord> {
    let mut later_old: HashMap<(&str, RowId), &Row> = HashMap::new();
    let mut rev: Vec<ChangeRecord> = Vec::with_capacity(undo.len());
    for op in undo.iter().rev() {
        match op {
            UndoOp::Inserted { table, row_id } => {
                let row = later_old
                    .remove(&(table.as_str(), *row_id))
                    .cloned()
                    .or_else(|| current_row(storage, table, *row_id));
                if let Some(row) = row {
                    rev.push(ChangeRecord::Insert {
                        table: table.clone(),
                        row_id: *row_id,
                        row,
                    });
                }
            }
            UndoOp::Updated { table, row_id, old } => {
                let new = match later_old.insert((table.as_str(), *row_id), old) {
                    Some(next_old) => Some(next_old.clone()),
                    None => current_row(storage, table, *row_id),
                };
                if let Some(row) = new {
                    rev.push(ChangeRecord::Update {
                        table: table.clone(),
                        row_id: *row_id,
                        row,
                    });
                }
            }
            UndoOp::Deleted { table, row_id, row } => {
                later_old.insert((table.as_str(), *row_id), row);
                rev.push(ChangeRecord::Delete {
                    table: table.clone(),
                    row_id: *row_id,
                    row: row.clone(),
                });
            }
        }
    }
    rev.reverse();
    rev
}

fn current_row(storage: &Storage, table: &str, id: RowId) -> Option<Row> {
    storage.tables.get(table)?.get(id).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Params;
    use crate::Database;
    use crate::Value;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A sink that records everything it sees.
    #[derive(Default)]
    struct Capture {
        commits: Mutex<Vec<Vec<ChangeRecord>>>,
        next: Mutex<u64>,
    }

    impl CommitSink for Capture {
        fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64 {
            self.commits.lock().push(changes);
            let mut n = self.next.lock();
            *n += 1;
            *n
        }
        fn wait_durable(&self, _lsn: u64) -> crate::Result<()> {
            Ok(())
        }
    }

    fn db_with_sink() -> (Database, Arc<Capture>) {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT NOT NULL)",
        )
        .unwrap();
        let sink = Arc::new(Capture::default());
        db.set_commit_sink(sink.clone(), false);
        (db, sink)
    }

    #[test]
    fn autocommit_insert_emits_redo_with_assigned_values() {
        let (db, sink) = db_with_sink();
        db.execute("INSERT INTO t (v) VALUES ('a')", &Params::new())
            .unwrap();
        let commits = sink.commits.lock();
        assert_eq!(commits.len(), 1);
        match &commits[0][0] {
            ChangeRecord::Insert { table, row_id, row } => {
                assert_eq!(table, "t");
                assert_eq!(*row_id, 0);
                // auto-increment value is the *stored* value, not NULL
                assert_eq!(row[0], Value::Integer(1));
                assert_eq!(row[1], Value::Text("a".into()));
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn rolled_back_transaction_emits_nothing() {
        let (db, sink) = db_with_sink();
        let _ = db.transaction(|tx| -> crate::Result<()> {
            tx.execute("INSERT INTO t (v) VALUES ('x')", &Params::new())?;
            Err(crate::Error::Eval("revert".into()))
        });
        assert!(sink.commits.lock().is_empty());
    }

    #[test]
    fn insert_update_in_one_tx_resolves_values_backwards() {
        let (db, sink) = db_with_sink();
        db.transaction(|tx| {
            tx.execute("INSERT INTO t (v) VALUES ('first')", &Params::new())?;
            tx.execute("UPDATE t SET v = 'second' WHERE oid = 1", &Params::new())?;
            Ok(())
        })
        .unwrap();
        let commits = sink.commits.lock();
        assert_eq!(commits.len(), 1);
        let recs = &commits[0];
        assert_eq!(recs.len(), 2);
        // the Insert carries the pre-update value, the Update the final one
        match (&recs[0], &recs[1]) {
            (ChangeRecord::Insert { row, .. }, ChangeRecord::Update { row: new, .. }) => {
                assert_eq!(row[1], Value::Text("first".into()));
                assert_eq!(new[1], Value::Text("second".into()));
            }
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn insert_then_delete_in_one_tx_replays_slot_allocation() {
        let (db, sink) = db_with_sink();
        db.transaction(|tx| {
            tx.execute("INSERT INTO t (v) VALUES ('ghost')", &Params::new())?;
            tx.execute("DELETE FROM t WHERE v = 'ghost'", &Params::new())?;
            Ok(())
        })
        .unwrap();
        let commits = sink.commits.lock();
        let recs = &commits[0];
        assert_eq!(recs.len(), 2);
        match (&recs[0], &recs[1]) {
            (ChangeRecord::Insert { row, row_id, .. }, ChangeRecord::Delete { row_id: d, .. }) => {
                assert_eq!(row[1], Value::Text("ghost".into()));
                assert_eq!(row_id, d);
            }
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn ddl_emits_reexecutable_sql() {
        let (db, sink) = db_with_sink();
        db.execute_script("CREATE TABLE u (k INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("CREATE INDEX ix_v ON t (v)", &Params::new())
            .unwrap();
        db.execute("DROP TABLE u", &Params::new()).unwrap();
        let commits = sink.commits.lock();
        let sqls: Vec<&str> = commits
            .iter()
            .flat_map(|c| c.iter())
            .filter_map(|r| match r {
                ChangeRecord::Ddl { sql } => Some(sql.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(sqls.len(), 3);
        assert!(sqls[0].starts_with("CREATE TABLE u"));
        assert!(sqls[1].contains("CREATE INDEX ix_v ON t (v)"));
        assert!(sqls[2].contains("DROP TABLE u"));
        // the emitted DDL round-trips through a fresh database
        let fresh = Database::new();
        fresh
            .execute_script(
                "CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT NOT NULL)",
            )
            .unwrap();
        for sql in sqls {
            fresh.execute_script(sql).unwrap();
        }
    }

    #[test]
    fn transaction_commit_emits_once_rollback_never() {
        let (db, sink) = db_with_sink();
        db.transaction(|tx| {
            tx.execute("INSERT INTO t (v) VALUES ('a')", &Params::new())?;
            tx.execute("INSERT INTO t (v) VALUES ('b')", &Params::new())?;
            Ok(())
        })
        .unwrap();
        assert_eq!(sink.commits.lock().len(), 1);
        assert_eq!(sink.commits.lock()[0].len(), 2);
        let r = db.transaction(|tx| -> crate::Result<()> {
            tx.execute("INSERT INTO t (v) VALUES ('c')", &Params::new())?;
            Err(crate::Error::Eval("revert".into()))
        });
        assert!(r.is_err());
        assert_eq!(sink.commits.lock().len(), 1);
    }

    /// A transaction may delete a row and insert another into the slot the
    /// delete freed. Rolled back, the store is exactly as before and the old
    /// key probes to the old row; committed, its redo batch replays into a
    /// copy that is physically identical.
    #[test]
    fn delete_then_insert_into_the_freed_slot_rolls_back_and_replays() {
        fn swap(tx: &mut crate::Transaction<'_>) -> crate::Result<()> {
            tx.execute("DELETE FROM s WHERE k = 1", &Params::new())?;
            tx.execute("INSERT INTO s (k, v) VALUES (1, 'z')", &Params::new())?;
            Ok(())
        }
        let one = |db: &Database, sql: &str| db.query(sql, &Params::new()).unwrap();
        let db = Database::new();
        let sink = Arc::new(Capture::default());
        db.set_commit_sink(sink.clone(), false);
        db.execute_script(
            "CREATE TABLE s (k INTEGER PRIMARY KEY, v TEXT NOT NULL);
             CREATE INDEX ix_v ON s (v);
             INSERT INTO s (k, v) VALUES (1, 'a'), (2, 'b');",
        )
        .unwrap();
        let before = db.dump();
        let batches = sink.commits.lock().len();

        let r = db.transaction(|tx| -> crate::Result<()> {
            swap(tx)?;
            Err(crate::Error::Eval("revert".into()))
        });
        assert!(r.is_err());
        assert_eq!(db.dump(), before, "rollback left a trace");
        assert_eq!(sink.commits.lock().len(), batches);
        let rs = one(&db, "SELECT v FROM s WHERE k = 1");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("v"), Some(&Value::Text("a".into())));
        let rs = one(&db, "SELECT k FROM s WHERE v = 'a'");
        assert_eq!(rs.first("k"), Some(&Value::Integer(1)));
        assert!(one(&db, "SELECT k FROM s WHERE v = 'z'").is_empty());

        db.transaction(swap).unwrap();
        let commits = sink.commits.lock();
        match commits.last().unwrap().as_slice() {
            [ChangeRecord::Delete { row_id: freed, .. }, ChangeRecord::Insert { row_id, .. }] => {
                assert_eq!(freed, row_id, "the insert must reuse the freed slot")
            }
            other => panic!("unexpected records: {other:?}"),
        }
        let copy = Database::new();
        for (lsn, batch) in commits.iter().enumerate() {
            copy.apply_batch(lsn as u64 + 1, batch).unwrap();
        }
        assert_eq!(copy.lsn(), commits.len() as u64);
        assert_eq!(copy.dump(), db.dump());
        assert_eq!(
            one(&copy, "SELECT v FROM s WHERE k = 1").first("v"),
            Some(&Value::Text("z".into()))
        );
    }

    #[test]
    fn cascade_delete_emits_every_physical_change() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE parent (oid INTEGER PRIMARY KEY AUTOINCREMENT, n TEXT);
             CREATE TABLE child (oid INTEGER PRIMARY KEY AUTOINCREMENT, p INTEGER,
                 CONSTRAINT fk FOREIGN KEY (p) REFERENCES parent (oid) ON DELETE CASCADE);",
        )
        .unwrap();
        db.execute("INSERT INTO parent (n) VALUES ('x')", &Params::new())
            .unwrap();
        db.execute("INSERT INTO child (p) VALUES (1), (1)", &Params::new())
            .unwrap();
        let sink = Arc::new(Capture::default());
        db.set_commit_sink(sink.clone(), false);
        db.execute("DELETE FROM parent WHERE oid = 1", &Params::new())
            .unwrap();
        let commits = sink.commits.lock();
        assert_eq!(commits.len(), 1);
        let deletes = commits[0]
            .iter()
            .filter(|r| matches!(r, ChangeRecord::Delete { .. }))
            .count();
        assert_eq!(deletes, 3, "parent + 2 cascaded children: {:?}", commits[0]);
    }
}
