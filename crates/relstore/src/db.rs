//! The thread-safe database facade: statement execution, prepared
//! statements, and transactions.

use crate::change::{redo_from_undo, ChangeRecord, CommitSink};
use crate::error::{Error, Result};
use crate::exec::{run_select_with_stats, SelectStats};
use crate::expr::Params;
use crate::result::{ExecResult, ResultSet};
use crate::sql::ast::{Select, Statement};
use crate::sql::parser::{parse_script, parse_statement};
use crate::storage::{Storage, UndoLog};
use crate::table::Table;
use obs::DbCounters;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// An installed commit sink plus its durability contract.
struct CommitHook {
    sink: Arc<dyn CommitSink>,
    /// When true, DML calls block until the sink reports the commit
    /// durable (group commit: the wait happens *outside* the storage lock).
    strict: bool,
}

/// An in-memory relational database, safe to share across threads.
///
/// `Database` plays the role of the JDBC/ODBC data source in the WebRatio
/// architecture: generic unit services hand it the SQL text stored in their
/// descriptors together with bound parameters.
///
/// One plan cache backs [`Database::prepare`]: SQL text → parsed
/// statement, read under a shared lock. Deploy fills it up front with the
/// descriptor SQL ([`Database::pin_plan`]); everything else enters on its
/// first use.
///
/// All counters (prepares, plan-cache hits, statements, rows scanned) live
/// in an [`obs::DbCounters`] so a deployment can hand every tier one shared
/// [`obs::MetricsRegistry`].
///
/// Isolation is one storage `RwLock`: a SELECT runs under the read lock;
/// every autocommit statement and every [`Database::transaction`] closure
/// runs under the write lock, and the commit sink is called under that same
/// lock, so the order of the redo stream is the commit order.
///
/// [`Database::lsn`] names the state storage holds: the LSN of the last
/// commit applied to it, advanced under the write lock.
pub struct Database {
    storage: RwLock<Storage>,
    /// See [`Database::lsn`].
    lsn: AtomicU64,
    /// The plan cache.
    plans: RwLock<HashMap<String, Arc<Statement>>>,
    /// How many of `plans` entered through [`Database::pin_plan`].
    pinned: AtomicUsize,
    /// Shared observability counters (may be the registry's `db` block).
    counters: Arc<DbCounters>,
    /// Optional durability hook: receives the redo stream of every committed
    /// transaction, called while the storage write lock is still held.
    sink: RwLock<Option<CommitHook>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Self::with_counters(Arc::new(DbCounters::new()))
    }

    /// Build a database whose counters are shared with an external registry
    /// (typically `MetricsRegistry::db`).
    pub fn with_counters(counters: Arc<DbCounters>) -> Database {
        Database {
            storage: RwLock::new(Storage::default()),
            lsn: AtomicU64::new(0),
            plans: RwLock::new(HashMap::new()),
            pinned: AtomicUsize::new(0),
            counters,
            sink: RwLock::new(None),
        }
    }

    /// Install a [`CommitSink`] that receives the redo image of every
    /// committed transaction (DML) and every schema change (DDL).
    ///
    /// With `strict = true`, mutating calls additionally block — *after*
    /// releasing the storage lock — until the sink reports the commit
    /// durable; this is the group-commit handshake (many committers wait
    /// on one flush without serializing on the database lock).
    pub fn set_commit_sink(&self, sink: Arc<dyn CommitSink>, strict: bool) {
        *self.sink.write() = Some(CommitHook { sink, strict });
    }

    /// Remove the installed commit sink, if any.
    pub fn clear_commit_sink(&self) {
        *self.sink.write() = None;
    }

    /// The LSN of the last commit applied to storage: the sink's LSN for
    /// it, or, with no sink installed, the store's own count of commits
    /// (DDL included); on a replica or in recovery, the LSN of the last
    /// batch [`Database::apply_batch`] applied. It is advanced under the
    /// storage write lock, so a reader that loads `lsn()` and then queries
    /// sees every change up to it, and possibly more.
    pub fn lsn(&self) -> u64 {
        self.lsn.load(Ordering::Acquire)
    }

    /// Publish one commit. Caller holds the storage write lock, so the
    /// redo stream and [`Database::lsn`] agree with commit order. Returns
    /// `Some(lsn)` when the caller must wait for durability after
    /// releasing the lock (strict mode).
    fn publish_locked(&self, redo: impl FnOnce() -> Vec<ChangeRecord>) -> Option<u64> {
        let guard = self.sink.read();
        let (lsn, wait) = match guard.as_ref() {
            Some(hook) => {
                let changes = redo();
                if changes.is_empty() {
                    return None;
                }
                let lsn = hook.sink.on_commit(changes);
                (lsn, hook.strict.then_some(lsn))
            }
            None => (self.lsn.load(Ordering::Relaxed) + 1, None),
        };
        self.lsn.store(lsn, Ordering::Release);
        wait
    }

    /// Commit a transaction's mutations (see [`Database::publish_locked`]).
    fn commit_locked(&self, storage: &Storage, undo: &UndoLog) -> Option<u64> {
        if undo.is_empty() {
            return None;
        }
        let wait = self.publish_locked(|| redo_from_undo(storage, undo));
        self.counters.versions_live.set(storage.row_count() as i64);
        wait
    }

    /// Run `f` as one transaction under the storage write lock: commit
    /// what it recorded in the undo log when it returns `Ok`, restore the
    /// before-images when it returns `Err`. Autocommit statements and
    /// [`Database::transaction`] both come through here.
    fn write_txn<T>(&self, f: impl FnOnce(&mut Storage, &mut UndoLog) -> Result<T>) -> Result<T> {
        let (r, seq) = {
            let mut storage = self.storage.write();
            let mut undo = UndoLog::new();
            match f(&mut storage, &mut undo) {
                Ok(v) => {
                    let seq = self.commit_locked(&storage, &undo);
                    (Ok(v), seq)
                }
                Err(e) => {
                    storage.rollback(undo);
                    (Err(e), None)
                }
            }
        };
        self.wait_durable_opt(seq)?;
        r
    }

    /// Publish a schema change as one commit. Caller holds the storage
    /// write lock.
    pub(crate) fn emit_ddl_locked(&self, sql: String) -> Option<u64> {
        self.publish_locked(|| vec![ChangeRecord::Ddl { sql }])
    }

    /// Complete the strict-mode handshake started by `commit_locked`. Must
    /// be called *after* the storage lock is released. Propagates
    /// [`Error::Durability`] when the sink hit a real I/O failure: the
    /// caller's mutation is applied in memory but will not survive a
    /// restart, and acking it with `Ok` would be a lie.
    pub(crate) fn wait_durable_opt(&self, seq: Option<u64>) -> Result<()> {
        if let Some(lsn) = seq {
            let sink = {
                let guard = self.sink.read();
                guard.as_ref().map(|h| Arc::clone(&h.sink))
            };
            if let Some(sink) = sink {
                sink.wait_durable(lsn)?;
            }
        }
        Ok(())
    }

    /// The counters this database reports into.
    pub fn counters(&self) -> &Arc<DbCounters> {
        &self.counters
    }

    /// Total number of statements executed since creation.
    pub fn statements_executed(&self) -> u64 {
        self.counters.statements_executed.get()
    }

    /// The cached plan for `sql` (`true`), or a fresh parse — counted as a
    /// prepare — entered into the cache (`false`).
    fn cached_plan(&self, sql: &str) -> Result<(Arc<Statement>, bool)> {
        if let Some(s) = self.plans.read().get(sql) {
            return Ok((Arc::clone(s), true));
        }
        self.counters.prepares.inc();
        let stmt = Arc::new(parse_statement(sql)?);
        // if another thread won the parse race, share its plan
        let mut plans = self.plans.write();
        let shared = plans.entry(sql.to_string()).or_insert(stmt);
        Ok((Arc::clone(shared), false))
    }

    /// Parse (with caching) a SQL string into a shareable statement. A
    /// cache hit is recorded as a plan-cache hit, a parse as a prepare.
    pub fn prepare(&self, sql: &str) -> Result<Arc<Statement>> {
        let (stmt, hit) = self.cached_plan(sql)?;
        if hit {
            self.counters.plan_cache_hits.inc();
        }
        Ok(stmt)
    }

    /// Resolve `sql` once at deploy time and return the shared plan, so
    /// the prepare is never paid on a request.
    pub fn pin_plan(&self, sql: &str) -> Result<Arc<Statement>> {
        let (stmt, hit) = self.cached_plan(sql)?;
        if !hit {
            self.pinned.fetch_add(1, Ordering::Relaxed);
        }
        Ok(stmt)
    }

    /// Number of plans pinned at deploy time.
    pub fn pinned_plan_count(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Execute one statement in autocommit mode.
    pub fn execute(&self, sql: &str, params: &Params) -> Result<ExecResult> {
        let stmt = self.prepare(sql)?;
        self.execute_stmt(&stmt, params)
    }

    /// Execute a prepared statement in autocommit mode.
    pub fn execute_stmt(&self, stmt: &Statement, params: &Params) -> Result<ExecResult> {
        self.counters.statements_executed.inc();
        match stmt {
            Statement::Select(sel) => {
                let storage = self.storage.read();
                self.select(&storage, sel, params)
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                self.write_txn(|storage, undo| run_dml(storage, stmt, params, undo))
            }
            Statement::CreateTable(schema) => {
                let seq = {
                    let mut storage = self.storage.write();
                    storage.create_table(Table::new(schema.clone())?)?;
                    self.emit_ddl_locked(schema.to_create_sql())
                };
                self.wait_durable_opt(seq)?;
                Ok(ExecResult::Affected(0))
            }
            Statement::CreateIndex(ci) => {
                let seq = {
                    let mut storage = self.storage.write();
                    let table = storage.require_table_mut(&ci.table)?;
                    table.create_index(ci.name.clone(), &ci.columns, ci.unique)?;
                    self.emit_ddl_locked(format!(
                        "CREATE {}INDEX {} ON {} ({})",
                        if ci.unique { "UNIQUE " } else { "" },
                        ci.name,
                        ci.table,
                        ci.columns.join(", ")
                    ))
                };
                self.wait_durable_opt(seq)?;
                Ok(ExecResult::Affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                let seq = {
                    let mut storage = self.storage.write();
                    storage.drop_table(name, *if_exists)?;
                    self.emit_ddl_locked(if *if_exists {
                        format!("DROP TABLE IF EXISTS {name}")
                    } else {
                        format!("DROP TABLE {name}")
                    })
                };
                self.wait_durable_opt(seq)?;
                Ok(ExecResult::Affected(0))
            }
        }
    }

    /// Run a SELECT over `storage` and report its executor statistics into
    /// the shared counters: totals, access-path choices, and the per-query
    /// rows-scanned distribution.
    fn select(&self, storage: &Storage, sel: &Select, params: &Params) -> Result<ExecResult> {
        let mut stats = SelectStats::default();
        let rows = run_select_with_stats(storage, sel, params, &mut stats)?;
        let c = &self.counters;
        c.rows_scanned.add(stats.scanned);
        c.rows_scanned_per_query.observe(stats.scanned);
        c.index_probes.add(stats.index_probes);
        c.hash_joins.add(stats.hash_joins);
        c.topk_shortcuts.add(stats.topk_shortcuts);
        c.index_orders.add(stats.index_orders);
        c.scan_fallbacks.add(stats.scan_fallbacks);
        Ok(ExecResult::Rows(rows))
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&self, sql: &str, params: &Params) -> Result<ResultSet> {
        match self.execute(sql, params)? {
            ExecResult::Rows(r) => Ok(r),
            _ => Err(Error::Unsupported("query() on a non-SELECT".into())),
        }
    }

    /// Run a script of `;`-separated statements (DDL deployment).
    pub fn execute_script(&self, sql: &str) -> Result<usize> {
        let stmts = parse_script(sql)?;
        let n = stmts.len();
        for s in stmts {
            self.execute_stmt(&s, &Params::new())?;
        }
        Ok(n)
    }

    /// Run `f` inside an **exclusive** transaction: all mutations are
    /// rolled back if `f` returns an error, and committed as one redo batch
    /// if it returns `Ok`. The write lock is held for the duration, so the
    /// transaction is serializable and readers wait for it.
    pub fn transaction<T>(&self, f: impl FnOnce(&mut Transaction<'_>) -> Result<T>) -> Result<T> {
        self.write_txn(|storage, undo| {
            f(&mut Transaction {
                storage,
                undo,
                db: self,
            })
        })
    }

    /// Names of all tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.storage.read().table_names()
    }

    /// Live row count of a table.
    pub fn table_len(&self, name: &str) -> Result<usize> {
        Ok(self.storage.read().require_table(name)?.len())
    }

    /// Column names of a table in declaration order. Consumers of the
    /// change stream use this to map positional [`ChangeRecord`] row
    /// values back to named attributes (oid extraction, bean patching).
    pub fn table_columns(&self, name: &str) -> Result<Vec<String>> {
        let storage = self.storage.read();
        let t = storage.require_table(name)?;
        Ok(t.schema.columns.iter().map(|c| c.name.clone()).collect())
    }

    /// Does `table` already have an access path whose leading columns are
    /// exactly `columns`? True when a secondary index prefix-matches or the
    /// primary key starts with those columns. Deploy-time index derivation
    /// uses this to apply `CREATE INDEX` statements idempotently.
    pub fn has_index_on(&self, table: &str, columns: &[&str]) -> Result<bool> {
        let storage = self.storage.read();
        let t = storage.require_table(table)?;
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(t.schema.require_column(c)?);
        }
        let pk = &t.schema.primary_key;
        if pk.len() >= cols.len() && pk[..cols.len()] == *cols.as_slice() {
            return Ok(true);
        }
        Ok(t.find_index_on(&cols).is_some())
    }

    /// Register a table built programmatically (bypasses SQL).
    pub fn create_table(&self, table: Table) -> Result<()> {
        let seq = {
            let mut storage = self.storage.write();
            let sql = table.schema.to_create_sql();
            storage.create_table(table)?;
            self.emit_ddl_locked(sql)
        };
        self.wait_durable_opt(seq)?;
        Ok(())
    }

    /// Apply one committed batch *physically* — rows land in the exact
    /// slots its records name — and advance [`Database::lsn`] to `lsn`,
    /// all under one storage write lock: a reader sees the batch whole or
    /// not at all. Used by recovery and replica replay; never emits to the
    /// commit sink and is idempotent (re-applying a record converges to
    /// the same state, which makes fuzzy snapshots safe).
    pub fn apply_batch(&self, lsn: u64, records: &[ChangeRecord]) -> Result<()> {
        let mut storage = self.storage.write();
        for rec in records {
            apply_record(&mut storage, rec)?;
        }
        self.lsn.fetch_max(lsn, Ordering::Release);
        Ok(())
    }

    /// Clone every table under the storage **write** lock, invoking `mark`
    /// while the lock is held. A snapshotter passes a closure that reads the
    /// log's current append position, which pins the exact (tables, lsn)
    /// pair a fuzzy snapshot needs to be consistent.
    pub fn freeze_tables<T>(
        &self,
        mark: impl FnOnce() -> T,
    ) -> (std::collections::BTreeMap<String, Table>, T) {
        let storage = self.storage.write();
        let tables = storage.tables.clone();
        let m = mark();
        (tables, m)
    }

    /// Force a table's auto-increment counter to at least `v` (snapshot
    /// restore).
    pub fn set_auto_counter(&self, table: &str, v: i64) -> Result<()> {
        let mut storage = self.storage.write();
        storage.require_table_mut(table)?.set_next_auto(v);
        Ok(())
    }

    /// A physical dump of every table: `(row_id, row)` pairs plus the
    /// auto-increment high-water mark. Two databases with equal dumps are
    /// physically identical, which is the equality recovery tests need.
    pub fn dump(
        &self,
    ) -> std::collections::BTreeMap<String, (Vec<(crate::table::RowId, crate::table::Row)>, i64)>
    {
        let storage = self.storage.read();
        storage
            .tables
            .iter()
            .map(|(name, t)| {
                let rows: Vec<_> = t.iter().map(|(id, r)| (id, r.clone())).collect();
                (name.clone(), (rows, t.peek_auto()))
            })
            .collect()
    }
}

/// Run one INSERT/UPDATE/DELETE, recording it in `undo`; anything else is
/// refused (DDL never runs inside a transaction).
fn run_dml(
    storage: &mut Storage,
    stmt: &Statement,
    params: &Params,
    undo: &mut UndoLog,
) -> Result<ExecResult> {
    match stmt {
        Statement::Insert(ins) => storage
            .run_insert(ins, params, undo)
            .map(|(rows, key)| ExecResult::Inserted { rows, key }),
        Statement::Update(upd) => storage
            .run_update(upd, params, undo)
            .map(ExecResult::Affected),
        Statement::Delete(del) => storage
            .run_delete(del, params, undo)
            .map(ExecResult::Affected),
        _ => Err(Error::Transaction(
            "DDL is not allowed inside a transaction".into(),
        )),
    }
}

/// Apply one record of [`Database::apply_batch`].
fn apply_record(storage: &mut Storage, rec: &ChangeRecord) -> Result<()> {
    match rec {
        ChangeRecord::Insert { table, row_id, row }
        | ChangeRecord::Update { table, row_id, row } => storage
            .require_table_mut(table)?
            .insert_at(*row_id, row.clone()),
        ChangeRecord::Delete { table, row_id, .. } => {
            let _ = storage.require_table_mut(table)?.delete(*row_id); // already-gone is fine (idempotence)
            Ok(())
        }
        ChangeRecord::Ddl { sql } => match replay_ddl(storage, sql) {
            // Replaying DDL over a snapshot that already contains the
            // object (or no longer contains it) must converge, not fail.
            Err(Error::DuplicateTable(_))
            | Err(Error::DuplicateIndex(_))
            | Err(Error::UnknownTable(_)) => Ok(()),
            r => r,
        },
    }
}

/// Re-execute recorded DDL without emitting it again.
fn replay_ddl(storage: &mut Storage, sql: &str) -> Result<()> {
    match parse_statement(sql)? {
        Statement::CreateTable(schema) => storage.create_table(Table::new(schema)?),
        Statement::CreateIndex(ci) => {
            let table = storage.require_table_mut(&ci.table)?;
            table.create_index(ci.name, &ci.columns, ci.unique)
        }
        Statement::DropTable { name, if_exists } => storage.drop_table(&name, if_exists),
        _ => Err(Error::Unsupported(
            "only DDL can be replayed from a change record".into(),
        )),
    }
}

/// An open transaction. All statements executed through it share one undo
/// log; returning `Err` from the [`Database::transaction`] closure rolls
/// everything back.
pub struct Transaction<'a> {
    storage: &'a mut Storage,
    undo: &'a mut UndoLog,
    db: &'a Database,
}

impl Transaction<'_> {
    pub fn execute(&mut self, sql: &str, params: &Params) -> Result<ExecResult> {
        let stmt = self.db.prepare(sql)?;
        self.db.counters.statements_executed.inc();
        match stmt.as_ref() {
            // read-your-own-writes: the transaction holds the write lock
            Statement::Select(sel) => self.db.select(self.storage, sel, params),
            dml => run_dml(self.storage, dml, params, self.undo),
        }
    }

    pub fn query(&mut self, sql: &str, params: &Params) -> Result<ResultSet> {
        match self.execute(sql, params)? {
            ExecResult::Rows(r) => Ok(r),
            _ => Err(Error::Unsupported("query() on a non-SELECT".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE volume (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL, year INTEGER);
             CREATE TABLE issue (oid INTEGER PRIMARY KEY AUTOINCREMENT, number INTEGER NOT NULL,
                                 volume_oid INTEGER NOT NULL,
                                 CONSTRAINT fk_vol FOREIGN KEY (volume_oid) REFERENCES volume (oid) ON DELETE CASCADE);
             CREATE TABLE paper (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL,
                                 issue_oid INTEGER,
                                 CONSTRAINT fk_iss FOREIGN KEY (issue_oid) REFERENCES issue (oid) ON DELETE SET NULL);
             CREATE INDEX ix_issue_vol ON issue (volume_oid);",
        )
        .unwrap();
        db
    }

    fn seed(db: &Database) {
        db.execute(
            "INSERT INTO volume (title, year) VALUES ('TODS 27', 2002), ('TODS 26', 2001)",
            &Params::new(),
        )
        .unwrap();
        db.execute(
            "INSERT INTO issue (number, volume_oid) VALUES (1, 1), (2, 1), (1, 2)",
            &Params::new(),
        )
        .unwrap();
        db.execute(
            "INSERT INTO paper (title, issue_oid) VALUES ('WebML', 1), ('Araneus', 1), ('Strudel', 2), ('ADM', 3)",
            &Params::new(),
        )
        .unwrap();
    }

    #[test]
    fn basic_select_with_params() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT title FROM volume WHERE year = :y",
                &Params::new().bind("y", 2002),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("title"), Some(&Value::Text("TODS 27".into())));
    }

    #[test]
    fn join_with_index_probe() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT v.title, i.number, p.title AS paper FROM volume v \
                 INNER JOIN issue i ON i.volume_oid = v.oid \
                 INNER JOIN paper p ON p.issue_oid = i.oid \
                 WHERE v.oid = ? ORDER BY i.number, paper",
                &Params::positional([Value::Integer(1)]),
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.get(0, "paper"), Some(&Value::Text("Araneus".into())));
        assert_eq!(rs.get(2, "paper"), Some(&Value::Text("Strudel".into())));
    }

    #[test]
    fn left_join_null_extends() {
        let db = db();
        seed(&db);
        // volume 2 issue 1 has one paper; add an issue with none
        db.execute(
            "INSERT INTO issue (number, volume_oid) VALUES (9, 2)",
            &Params::new(),
        )
        .unwrap();
        let rs = db
            .query(
                "SELECT i.number, p.title FROM issue i LEFT JOIN paper p ON p.issue_oid = i.oid \
                 WHERE i.volume_oid = 2 ORDER BY i.number",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(1, "title"), Some(&Value::Null));
    }

    #[test]
    fn aggregates_and_group_by() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT i.oid, COUNT(*) AS n FROM issue i \
                 INNER JOIN paper p ON p.issue_oid = i.oid \
                 GROUP BY i.oid HAVING COUNT(*) >= 1 ORDER BY n DESC, i.oid",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.get(0, "n"), Some(&Value::Integer(2)));
    }

    #[test]
    fn aggregate_without_group_by() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT COUNT(*) AS n, MAX(year) AS y FROM volume",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(2)));
        assert_eq!(rs.first("y"), Some(&Value::Integer(2002)));
    }

    #[test]
    fn fk_violation_on_insert() {
        let db = db();
        seed(&db);
        let err = db
            .execute(
                "INSERT INTO issue (number, volume_oid) VALUES (1, 999)",
                &Params::new(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    }

    #[test]
    fn cascade_delete_and_set_null() {
        let db = db();
        seed(&db);
        // deleting volume 1 cascades to issues 1,2 and nulls papers 1..3
        let n = db
            .execute("DELETE FROM volume WHERE oid = 1", &Params::new())
            .unwrap()
            .affected();
        assert_eq!(n, 3); // volume + 2 issues
        assert_eq!(db.table_len("issue").unwrap(), 1);
        let rs = db
            .query(
                "SELECT title FROM paper WHERE issue_oid IS NULL ORDER BY title",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn update_with_expression() {
        let db = db();
        seed(&db);
        db.execute("UPDATE volume SET year = year + 1", &Params::new())
            .unwrap();
        let rs = db
            .query("SELECT MAX(year) AS y FROM volume", &Params::new())
            .unwrap();
        assert_eq!(rs.first("y"), Some(&Value::Integer(2003)));
    }

    #[test]
    fn transaction_rolls_back_on_error() {
        let db = db();
        seed(&db);
        let before = db.table_len("paper").unwrap();
        let r: Result<()> = db.transaction(|tx| {
            tx.execute("INSERT INTO paper (title) VALUES ('temp1')", &Params::new())?;
            tx.execute("INSERT INTO paper (title) VALUES ('temp2')", &Params::new())?;
            Err(Error::Eval("boom".into()))
        });
        assert!(r.is_err());
        assert_eq!(db.table_len("paper").unwrap(), before);
    }

    #[test]
    fn transaction_commits_on_ok() {
        let db = db();
        seed(&db);
        db.transaction(|tx| {
            tx.execute("INSERT INTO paper (title) VALUES ('kept')", &Params::new())?;
            Ok(())
        })
        .unwrap();
        let rs = db
            .query(
                "SELECT COUNT(*) AS n FROM paper WHERE title = 'kept'",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(1)));
    }

    #[test]
    fn transaction_rollback_undoes_cascades() {
        let db = db();
        seed(&db);
        let issues = db.table_len("issue").unwrap();
        let papers = db.table_len("paper").unwrap();
        let _ = db.transaction(|tx| -> Result<()> {
            tx.execute("DELETE FROM volume WHERE oid = 1", &Params::new())?;
            Err(Error::Eval("revert".into()))
        });
        assert_eq!(db.table_len("issue").unwrap(), issues);
        assert_eq!(db.table_len("paper").unwrap(), papers);
        assert_eq!(db.table_len("volume").unwrap(), 2);
        // the set-null side effects must also be restored
        let rs = db
            .query(
                "SELECT COUNT(*) AS n FROM paper WHERE issue_oid IS NULL",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(0)));
    }

    #[test]
    fn rollback_of_insert_frees_slot_and_indexes() {
        let db = db();
        seed(&db);
        let _ = db.transaction(|tx| -> Result<()> {
            tx.execute(
                "INSERT INTO issue (number, volume_oid) VALUES (7, 2)",
                &Params::new(),
            )?;
            Err(Error::Eval("revert".into()))
        });
        // the secondary index forgot the ghost
        let rs = db
            .query(
                "SELECT number FROM issue WHERE volume_oid = 2",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        // its slot is free again: the next insert takes it
        db.execute(
            "INSERT INTO issue (number, volume_oid) VALUES (8, 2)",
            &Params::new(),
        )
        .unwrap();
        let ids: Vec<_> = db.dump()["issue"].0.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn distinct_limit_offset() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT DISTINCT volume_oid FROM issue ORDER BY volume_oid",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        let rs = db
            .query(
                "SELECT oid FROM paper ORDER BY oid LIMIT 2 OFFSET 1",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.first("oid"), Some(&Value::Integer(2)));
    }

    #[test]
    fn like_search_unit_query() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT title FROM paper WHERE title LIKE :kw ORDER BY title",
                &Params::new().bind("kw", "%e%"),
            )
            .unwrap();
        // Araneus, Strudel, WebML
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn prepared_statement_cache_hits() {
        let db = db();
        seed(&db);
        let prepares_before = db.counters().prepares.get();
        let hits_before = db.counters().plan_cache_hits.get();
        let s1 = db.prepare("SELECT oid FROM volume").unwrap();
        let s2 = db.prepare("SELECT oid FROM volume").unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(db.counters().prepares.get(), prepares_before + 1);
        assert_eq!(db.counters().plan_cache_hits.get(), hits_before + 1);
    }

    #[test]
    fn pinned_plans_are_plan_cache_hits() {
        let db = db();
        seed(&db);
        let sql = "SELECT title FROM volume WHERE year = :y";
        let plan = db.pin_plan(sql).unwrap();
        assert_eq!(db.pinned_plan_count(), 1);
        // pin_plan is idempotent and returns the same Arc
        assert!(Arc::ptr_eq(&plan, &db.pin_plan(sql).unwrap()));
        // prepare() of pinned SQL is a plan-cache hit, not a re-parse
        let prepares = db.counters().prepares.get();
        let hits = db.counters().plan_cache_hits.get();
        assert!(Arc::ptr_eq(&plan, &db.prepare(sql).unwrap()));
        assert_eq!(db.counters().prepares.get(), prepares);
        assert_eq!(db.counters().plan_cache_hits.get(), hits + 1);
    }

    #[test]
    fn rows_scanned_counts_executor_work() {
        let db = db();
        seed(&db);
        let before = db.counters().rows_scanned.get();
        db.query("SELECT title FROM paper", &Params::new()).unwrap();
        let after = db.counters().rows_scanned.get();
        // full scan over 4 papers
        assert_eq!(after - before, 4);
        // an index probe examines fewer rows than a full cross product
        let before = db.counters().rows_scanned.get();
        db.query(
            "SELECT i.number FROM issue i WHERE i.volume_oid = 1",
            &Params::new(),
        )
        .unwrap();
        assert_eq!(db.counters().rows_scanned.get() - before, 2);
    }

    #[test]
    fn shared_counters_with_registry() {
        let registry = obs::MetricsRegistry::new();
        let db = Database::with_counters(Arc::clone(&registry.db));
        db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY)")
            .unwrap();
        db.query("SELECT * FROM t", &Params::new()).unwrap();
        assert!(registry.db.statements_executed.get() >= 2);
        assert!(registry.db.prepares.get() >= 1);
    }

    #[test]
    fn drop_and_recreate_table() {
        let db = db();
        db.execute("DROP TABLE paper", &Params::new()).unwrap();
        assert!(db.query("SELECT * FROM paper", &Params::new()).is_err());
        db.execute("DROP TABLE IF EXISTS paper", &Params::new())
            .unwrap();
        db.execute(
            "CREATE TABLE paper (oid INTEGER PRIMARY KEY)",
            &Params::new(),
        )
        .unwrap();
        assert_eq!(db.table_len("paper").unwrap(), 0);
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let rs = db
            .query("SELECT 1 + 1 AS two, 'x' AS s", &Params::new())
            .unwrap();
        assert_eq!(rs.first("two"), Some(&Value::Integer(2)));
        assert_eq!(rs.first("s"), Some(&Value::Text("x".into())));
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        let db = db();
        seed(&db);
        let rs = db
            .query(
                "SELECT title AS t, year FROM volume ORDER BY 2 DESC",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("t"), Some(&Value::Text("TODS 27".into())));
        let rs = db
            .query("SELECT title AS t FROM volume ORDER BY t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("t"), Some(&Value::Text("TODS 26".into())));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc as StdArc;
        let db = StdArc::new(db());
        seed(&db);
        let mut handles = Vec::new();
        for i in 0..4 {
            let db = StdArc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    if i == 0 {
                        db.execute(
                            "INSERT INTO paper (title) VALUES (:t)",
                            &Params::new().bind("t", format!("p{j}")),
                        )
                        .unwrap();
                    } else {
                        db.query("SELECT COUNT(*) AS n FROM paper", &Params::new())
                            .unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.table_len("paper").unwrap(), 54);
    }
}
