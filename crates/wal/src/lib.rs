//! # wal — the durability spine of the WebML/WebRatio reproduction
//!
//! The paper's runtime treats the relational store as an always-on data
//! source; this crate supplies the missing durability layer underneath it:
//!
//! * an **append-only, checksummed write-ahead log** of committed
//!   transactions (see [`record`] for the binary framing), fed by
//!   `relstore`'s commit hook ([`Wal`] implements
//!   [`relstore::CommitSink`]);
//! * **group commit**: committers append under a short lock and a flusher
//!   thread syncs once per window, so many HTTP workers share each fsync
//!   ([`log::LogWriter`]);
//! * **snapshots** + **recovery**: [`Wal::snapshot`] writes a fuzzy-safe
//!   image and compacts the log; [`Wal::recover_into`] rebuilds a fresh
//!   [`relstore::Database`] from snapshot + log tail;
//! * **deterministic fault injection** ([`fault`]): crash points
//!   before/mid/after flush plus torn-tail and checksum corruption, so the
//!   recovery invariant — *the recovered state is always a committed
//!   prefix* — is provable by property test;
//! * a **durable change stream** ([`Wal::replay_from`]): [`LogObserver`]s
//!   receive every batch *after* it is durable — which is what feeds
//!   replicas;
//! * a **local commit stream** ([`LocalStream`]): the commit sink in front
//!   of the log (or alone, on a node with none) that delivers each of the
//!   node's own commits to its cache maintainer
//!   (`webcache::LogDrivenMaintainer`) on the committing thread.
//!
//! Flush economics (flush count, batch-size histogram, bytes, recovery
//! time) are reported through [`obs::WalCounters`] and exported at
//! `/metrics`.

pub mod fault;
pub mod log;
pub mod record;
pub mod snapshot;

pub use fault::{CrashPlan, CrashPoint, TempDir};
pub use record::{scan_log, LogScan, ScanOutcome};
pub use snapshot::SnapshotData;

use crate::log::LogWriter;
use obs::WalCounters;
use parking_lot::RwLock;
use relstore::{ChangeRecord, CommitSink, Database};
use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one durable log directory.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and `wal.snap` (created if missing).
    pub dir: PathBuf,
    /// Group-commit window: how long the flusher sleeps between syncs.
    /// Larger windows amortize fsyncs across more committers at the cost
    /// of strict-commit latency.
    pub group_commit_window: Duration,
    /// Flush inline (without waiting for the window) once the buffer
    /// holds this many bytes.
    pub flush_watermark_bytes: usize,
    /// Deterministic crash injection (tests only; [`CrashPlan::none`] in
    /// production).
    pub crash_plan: CrashPlan,
}

impl WalConfig {
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            group_commit_window: Duration::from_millis(2),
            flush_watermark_bytes: 1 << 20,
            crash_plan: CrashPlan::none(),
        }
    }
}

/// Subscriber to a [`ChangeStream`], called one committed batch at a time
/// in LSN order: by the [`Wal`] *after* the batch is written + synced —
/// the stream a replica needs, because it never shows a change that could
/// still be lost — and by a [`LocalStream`] on the committing thread.
/// Must not call back into the stream.
pub trait LogObserver: Send + Sync {
    fn on_durable(&self, lsn: u64, changes: &[ChangeRecord]);
}

/// The committed batches a node's store holds, which its caches follow: a
/// node's [`LocalStream`] (its own commits) or a replica (the batches it
/// applied). Cache coherence is wired against this, so every node shares
/// one wiring.
pub trait ChangeStream {
    /// Subscribe to the stream. The observer sees only batches delivered
    /// *after* the attach.
    fn attach_observer(&self, o: Arc<dyn LogObserver>);
}

/// What recovery found and did.
#[derive(Debug)]
pub struct RecoveryInfo {
    /// LSN covered by the snapshot (0 when none was loaded).
    pub snapshot_lsn: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: usize,
    /// Highest LSN in the recovered state.
    pub last_lsn: u64,
    /// Entities (canonical table names) touched by replayed records —
    /// callers invalidate these in their caches.
    pub tables_touched: BTreeSet<String>,
    /// How the log scan ended (`TornTail`/`Corrupt` tails were truncated
    /// away at open).
    pub log_outcome: ScanOutcome,
}

/// An observer list and the one path batches take to it: the log's
/// (shared by the flusher thread and [`Wal::flush_and_notify`]) and each
/// [`LocalStream`]'s.
#[derive(Default)]
struct Dispatcher {
    observers: RwLock<Vec<Arc<dyn LogObserver>>>,
    /// Held across draining *and* delivering what was drained: otherwise
    /// a later batch can overtake an earlier one (a replica skips
    /// `lsn <= applied_lsn`, so an overtaken batch is lost), and a
    /// dispatch can find nothing to drain and return while an earlier
    /// batch is still on its way.
    dispatching: parking_lot::Mutex<()>,
}

impl Dispatcher {
    /// Drain and deliver in LSN order. On return every batch drained by
    /// any earlier dispatch has been delivered too.
    fn dispatch(&self, drain: impl FnOnce() -> log::DurableBatch) {
        let _in_order = self.dispatching.lock();
        let batch = drain();
        if batch.is_empty() {
            return;
        }
        let obs = self.observers.read().clone();
        for (lsn, changes) in &batch {
            for o in &obs {
                o.on_durable(*lsn, changes);
            }
        }
    }
}

/// The durability subsystem: log writer + snapshotter + recovery, exposed
/// to the engine as a [`CommitSink`] and to replicas as a stream of
/// [`LogObserver`] callbacks.
pub struct Wal {
    writer: Arc<LogWriter>,
    dispatcher: Arc<Dispatcher>,
    counters: Arc<WalCounters>,
    snap_path: PathBuf,
    /// Outcome of the open-time log scan (before repair truncation).
    open_outcome: ScanOutcome,
    flusher: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Wal {
    /// Open (or create) the log directory: scan the log, truncate any torn
    /// or corrupt tail, position the writer after the last good record,
    /// and start the group-commit flusher thread.
    pub fn open(config: WalConfig, counters: Arc<WalCounters>) -> io::Result<Arc<Wal>> {
        std::fs::create_dir_all(&config.dir)?;
        let log_path = config.dir.join("wal.log");
        let snap_path = config.dir.join("wal.snap");

        // scan + repair: keep only the checksummed good prefix
        let (start_lsn, open_outcome) = match std::fs::read(&log_path) {
            Ok(bytes) => {
                let scan = scan_log(&bytes);
                match scan.outcome {
                    ScanOutcome::BadHeader if bytes.is_empty() => {
                        // treat as a fresh log; LogWriter writes the header
                        let _ = std::fs::remove_file(&log_path);
                    }
                    ScanOutcome::BadHeader => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "wal.log exists but has no valid header",
                        ));
                    }
                    ScanOutcome::TornTail { .. } | ScanOutcome::Corrupt { .. } => {
                        fault::truncate_file(&log_path, scan.good_len as u64)?;
                    }
                    ScanOutcome::Clean => {}
                }
                let last = scan.records.last().map(|(l, _)| *l).unwrap_or(0);
                (last, scan.outcome)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, ScanOutcome::Clean),
            Err(e) => return Err(e),
        };
        let snap_lsn = snapshot::load_snapshot(&snap_path)?
            .map(|s| s.last_lsn)
            .unwrap_or(0);

        let writer = LogWriter::open(
            &log_path,
            start_lsn.max(snap_lsn),
            config.group_commit_window,
            config.flush_watermark_bytes,
            config.crash_plan,
            Arc::clone(&counters),
        )?;

        let dispatcher = Arc::new(Dispatcher::default());

        // group-commit flusher: syncs the buffer every window and feeds
        // durable batches to observers (outside the writer lock)
        let flusher = {
            let writer = Arc::clone(&writer);
            let dispatcher = Arc::clone(&dispatcher);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || loop {
                    // parks up to one window; wakes early on stop()
                    let keep_going = writer.park_flusher();
                    dispatcher.dispatch(|| writer.flush_now());
                    if !keep_going {
                        return;
                    }
                })?
        };

        Ok(Arc::new(Wal {
            writer,
            dispatcher,
            counters,
            snap_path,
            open_outcome,
            flusher: parking_lot::Mutex::new(Some(flusher)),
        }))
    }

    /// Attach `observer` *and* deterministically deliver the history it
    /// missed: every record with `lsn > from_lsn` still present in the
    /// log is replayed to the observer before any new batch can reach it.
    ///
    /// The observer list's write lock is held across the whole replay. A
    /// dispatcher reads the list (dropping the guard before it delivers)
    /// only once its batch is in the file, so a flushed batch is either
    /// found by the replay or delivered to the list that already holds
    /// `observer` — it cannot sneak past. Caveats the caller owns:
    ///
    /// * records compacted away by a snapshot are no longer in the log —
    ///   a from-scratch replica bootstraps via [`Wal::recover_into`] (or
    ///   its own snapshot) first, then calls this with the recovered LSN;
    /// * batches flushed between the log read and future dispatches may
    ///   be delivered twice — consumers dedupe by LSN (replica apply is
    ///   idempotent and skips `lsn <= applied_lsn`).
    ///
    /// Returns the highest LSN replayed (`from_lsn` when none was).
    pub fn replay_from(&self, from_lsn: u64, observer: Arc<dyn LogObserver>) -> io::Result<u64> {
        let mut obs = self.dispatcher.observers.write();
        let bytes = std::fs::read(self.writer.path())?;
        let scan = scan_log(&bytes);
        let mut last = from_lsn;
        for (lsn, changes) in &scan.records {
            if *lsn > from_lsn {
                observer.on_durable(*lsn, changes);
                last = *lsn;
            }
        }
        obs.push(observer);
        Ok(last)
    }

    /// Rebuild `db` (which must be fresh/empty) from snapshot + log tail.
    /// Call *before* installing this `Wal` as the database's commit sink,
    /// so replay is not re-logged.
    pub fn recover_into(&self, db: &Database) -> io::Result<RecoveryInfo> {
        let started = Instant::now();
        let snap = snapshot::load_snapshot(&self.snap_path)?;
        let snapshot_lsn = match &snap {
            Some(s) => {
                s.restore_into(db)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                s.last_lsn
            }
            None => 0,
        };
        let bytes = std::fs::read(self.writer.path())?;
        let scan = scan_log(&bytes);
        let mut replayed = 0usize;
        let mut tables_touched = BTreeSet::new();
        let mut last_lsn = snapshot_lsn;
        for (lsn, changes) in &scan.records {
            if *lsn <= snapshot_lsn {
                continue;
            }
            db.apply_batch(*lsn, changes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            tables_touched.extend(changes.iter().filter_map(|c| c.table()).map(str::to_string));
            replayed += 1;
            last_lsn = (*lsn).max(last_lsn);
        }
        self.counters
            .recovery_micros
            .observe_us(started.elapsed().as_micros() as u64);
        Ok(RecoveryInfo {
            snapshot_lsn,
            replayed_records: replayed,
            last_lsn,
            tables_touched,
            log_outcome: self.open_outcome.clone(),
        })
    }

    /// Write a snapshot of `db` and compact the log to the records beyond
    /// it. Fuzzy-safe: the `(tables, lsn)` pair is pinned under the
    /// database write lock, and commits keep flowing the whole time.
    /// Returns the snapshot's covering LSN.
    pub fn snapshot(&self, db: &Database) -> io::Result<u64> {
        // make sure everything already committed is on disk first, so the
        // snapshot never covers records the log does not have
        self.flush_and_notify();
        let (tables, lsn) = db.freeze_tables(|| self.writer.appended_lsn());
        let snap = SnapshotData::from_frozen(&tables, lsn);
        let bytes = snapshot::write_snapshot(&self.snap_path, &snap)?;
        self.counters.snapshots.inc();
        self.counters.bytes_written.add(bytes);
        // anything <= lsn is covered by the snapshot; drop it from the log
        self.writer.compact_through(lsn)?;
        Ok(lsn)
    }

    /// Synchronously flush the group-commit buffer and dispatch observer
    /// callbacks for the batches made durable.
    pub fn flush_and_notify(&self) {
        self.dispatcher.dispatch(|| self.writer.flush_now());
    }

    /// Simulate power loss *now*: the unflushed buffer is dropped and the
    /// writer stops touching the file. Recovery from the on-disk bytes is
    /// exactly what a real crash would see.
    pub fn simulate_crash(&self) {
        self.writer.simulate_crash();
    }

    /// Did a (simulated) crash occur?
    pub fn crashed(&self) -> bool {
        self.writer.crashed()
    }

    /// The first *real* write/sync failure, if one has poisoned the log
    /// writer (also counted in `wal_flush_errors`). Non-strict deployments
    /// should check this: their commits no longer reach stable storage.
    pub fn io_error(&self) -> Option<String> {
        self.writer.io_error()
    }

    /// Highest LSN appended (not necessarily durable).
    pub fn appended_lsn(&self) -> u64 {
        self.writer.appended_lsn()
    }

    /// Highest LSN written + synced.
    pub fn durable_lsn(&self) -> u64 {
        self.writer.durable_lsn()
    }

    /// The counters this subsystem reports into.
    pub fn counters(&self) -> &Arc<WalCounters> {
        &self.counters
    }

    /// Path of the log file (tests damage it deliberately).
    pub fn log_path(&self) -> &std::path::Path {
        self.writer.path()
    }

    /// Stop the flusher thread after a final flush. Called automatically
    /// on drop.
    pub fn stop(&self) {
        self.writer.stop();
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.stop();
    }
}

impl CommitSink for Wal {
    fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64 {
        self.writer.append(Arc::new(changes))
    }

    fn wait_durable(&self, lsn: u64) -> relstore::Result<()> {
        self.writer
            .wait_durable(lsn)
            .map_err(relstore::Error::Durability)
    }
}

/// The local commit stream: the [`CommitSink`] of a node that takes
/// writes, in front of its [`Wal`] or, on a node with no log, alone.
///
/// [`on_commit`](CommitSink::on_commit) runs under the storage lock: it
/// hands the batch to the log (or numbers it itself) and queues it,
/// shared rather than copied. The stream is installed strict, so the
/// database calls [`wait_durable`](CommitSink::wait_durable) once it has
/// released the lock; there the queued batches are delivered in LSN order
/// to the stream's observers — the node's cache maintainer — and only
/// then, when `strict`, is the fsync awaited. A commit therefore returns
/// only after its own batch and every earlier one were delivered,
/// whichever committer drained them. Replicas ship from the log, which
/// hands out only fsynced batches; this stream feeds the node's own
/// caches, which die with its memory. The default stream stands alone
/// from LSN 0.
#[derive(Default)]
pub struct LocalStream {
    wal: Option<Arc<Wal>>,
    strict: bool,
    /// The last LSN a log-less stream handed out.
    lsn: AtomicU64,
    queue: parking_lot::Mutex<log::DurableBatch>,
    dispatcher: Dispatcher,
}

impl LocalStream {
    /// In front of `wal`. `strict`: a commit also waits for its fsync.
    pub fn over(wal: Arc<Wal>, strict: bool) -> Arc<LocalStream> {
        Arc::new(LocalStream {
            wal: Some(wal),
            strict,
            ..LocalStream::default()
        })
    }

    /// Alone, on a node with no log: commits are numbered after `lsn`,
    /// the store's LSN at install.
    pub fn standalone(lsn: u64) -> Arc<LocalStream> {
        Arc::new(LocalStream {
            lsn: AtomicU64::new(lsn),
            ..LocalStream::default()
        })
    }
}

impl CommitSink for LocalStream {
    fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64 {
        let changes = Arc::new(changes);
        let lsn = match &self.wal {
            Some(wal) => wal.writer.append(Arc::clone(&changes)),
            // under the storage lock: commits arrive one at a time
            None => self.lsn.fetch_add(1, Ordering::Relaxed) + 1,
        };
        self.queue.lock().push((lsn, changes));
        lsn
    }

    fn wait_durable(&self, lsn: u64) -> relstore::Result<()> {
        self.dispatcher
            .dispatch(|| std::mem::take(&mut *self.queue.lock()));
        match &self.wal {
            Some(wal) if self.strict => wal.wait_durable(lsn),
            _ => Ok(()),
        }
    }
}

impl ChangeStream for LocalStream {
    /// The observer sees the batches delivered after the attach.
    fn attach_observer(&self, o: Arc<dyn LogObserver>) {
        self.dispatcher.observers.write().push(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Params;

    fn config(dir: &TempDir) -> WalConfig {
        let mut c = WalConfig::new(dir.path());
        c.group_commit_window = Duration::from_millis(1);
        c
    }

    fn open(dir: &TempDir) -> Arc<Wal> {
        Wal::open(config(dir), Arc::new(WalCounters::new())).unwrap()
    }

    fn durable_db(wal: &Arc<Wal>) -> Database {
        let db = Database::new();
        db.set_commit_sink(Arc::clone(wal) as Arc<dyn CommitSink>, true);
        db
    }

    #[test]
    fn commit_recover_round_trip() {
        let dir = TempDir::new("wal-rt").unwrap();
        let before = {
            let wal = open(&dir);
            let db = durable_db(&wal);
            db.execute_script(
                "CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT NOT NULL)",
            )
            .unwrap();
            db.execute("INSERT INTO t (v) VALUES ('a'), ('b')", &Params::new())
                .unwrap();
            db.execute("UPDATE t SET v = 'B' WHERE oid = 2", &Params::new())
                .unwrap();
            db.execute("DELETE FROM t WHERE oid = 1", &Params::new())
                .unwrap();
            wal.stop();
            db.dump()
        };
        // "restart": reopen the directory, recover into a fresh database
        let wal = open(&dir);
        let db = Database::new();
        let info = wal.recover_into(&db).unwrap();
        assert_eq!(db.dump(), before);
        assert_eq!(info.snapshot_lsn, 0);
        assert!(info.replayed_records >= 4);
        assert!(info.tables_touched.contains("t"));
        assert_eq!(info.log_outcome, ScanOutcome::Clean);
        assert!(wal.counters().recovery_micros.count() >= 1);
    }

    #[test]
    fn snapshot_compacts_log_and_recovery_uses_tail() {
        let dir = TempDir::new("wal-snap").unwrap();
        let before = {
            let wal = open(&dir);
            let db = durable_db(&wal);
            db.execute_script(
                "CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT NOT NULL)",
            )
            .unwrap();
            for i in 0..10 {
                db.execute(
                    "INSERT INTO t (v) VALUES (:v)",
                    &Params::new().bind("v", format!("v{i}")),
                )
                .unwrap();
            }
            let snap_lsn = wal.snapshot(&db).unwrap();
            assert!(snap_lsn >= 11);
            // post-snapshot traffic lands in the compacted log
            db.execute("INSERT INTO t (v) VALUES ('tail')", &Params::new())
                .unwrap();
            wal.stop();
            // the log now holds only the tail record(s)
            let scan = scan_log(&std::fs::read(wal.log_path()).unwrap());
            assert!(
                scan.records.len() <= 2,
                "log not compacted: {}",
                scan.records.len()
            );
            db.dump()
        };
        let wal = open(&dir);
        let db = Database::new();
        let info = wal.recover_into(&db).unwrap();
        assert!(info.snapshot_lsn >= 11);
        assert!(info.replayed_records >= 1);
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn observers_see_only_durable_batches() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct Seen(Mutex<Vec<(u64, usize)>>);
        impl LogObserver for Seen {
            fn on_durable(&self, lsn: u64, changes: &[ChangeRecord]) {
                self.0.lock().push((lsn, changes.len()));
            }
        }
        let dir = TempDir::new("wal-obs").unwrap();
        let mut cfg = config(&dir);
        cfg.group_commit_window = Duration::from_secs(3600); // manual flushes only
        let wal = Wal::open(cfg, Arc::new(WalCounters::new())).unwrap();
        let seen = Arc::new(Seen::default());
        wal.replay_from(0, Arc::clone(&seen) as Arc<dyn LogObserver>)
            .unwrap();
        let db = Database::new();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
        db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t (v) VALUES ('x')", &Params::new())
            .unwrap();
        // nothing durable yet → nothing observed
        assert!(seen.0.lock().is_empty());
        wal.flush_and_notify();
        let events = seen.0.lock().clone();
        assert_eq!(events.len(), 2); // DDL + insert, in commit order
        assert_eq!(events[0].0, 1);
        assert_eq!(events[1].0, 2);
        wal.stop();
    }

    #[test]
    fn stop_dispatches_pending_batches_to_observers() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct Seen(Mutex<Vec<u64>>);
        impl LogObserver for Seen {
            fn on_durable(&self, lsn: u64, _changes: &[ChangeRecord]) {
                self.0.lock().push(lsn);
            }
        }
        let dir = TempDir::new("wal-stopdisp").unwrap();
        let mut cfg = config(&dir);
        // one-hour window: only stop()'s internal flush can cover these
        cfg.group_commit_window = Duration::from_secs(3600);
        let wal = Wal::open(cfg, Arc::new(WalCounters::new())).unwrap();
        let seen = Arc::new(Seen::default());
        wal.replay_from(0, Arc::clone(&seen) as Arc<dyn LogObserver>)
            .unwrap();
        let db = Database::new();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
        db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t (v) VALUES ('x')", &Params::new())
            .unwrap();
        wal.stop();
        // the batches flushed by stop() still reached the observers —
        // log-driven invalidation must never miss a durable batch
        assert_eq!(*seen.0.lock(), vec![1, 2]);
    }

    #[test]
    fn replay_from_closes_the_attach_after_flush_window() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct Seen(Mutex<Vec<u64>>);
        impl LogObserver for Seen {
            fn on_durable(&self, lsn: u64, _changes: &[ChangeRecord]) {
                self.0.lock().push(lsn);
            }
        }
        let dir = TempDir::new("wal-replay").unwrap();
        let mut cfg = config(&dir);
        cfg.group_commit_window = Duration::from_secs(3600); // manual flushes only
        let wal = Wal::open(cfg, Arc::new(WalCounters::new())).unwrap();
        let db = Database::new();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
        db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t (v) VALUES ('early')", &Params::new())
            .unwrap();
        // the history (LSNs 1, 2) is durable BEFORE anyone subscribes
        wal.flush_and_notify();

        // a subscriber caught up to LSN 2 is replayed nothing
        let late = Arc::new(Seen::default());
        let caught_up = wal
            .replay_from(2, Arc::clone(&late) as Arc<dyn LogObserver>)
            .unwrap();
        assert_eq!(caught_up, 2);
        db.execute("INSERT INTO t (v) VALUES ('tail')", &Params::new())
            .unwrap();
        wal.flush_and_notify();
        assert_eq!(*late.0.lock(), vec![3], "replayed past its LSN");

        // replay_from(0) delivers the missed prefix, then streams live
        let replica = Arc::new(Seen::default());
        let caught_up = wal
            .replay_from(0, Arc::clone(&replica) as Arc<dyn LogObserver>)
            .unwrap();
        assert_eq!(caught_up, 3);
        assert_eq!(*replica.0.lock(), vec![1, 2, 3]);
        db.execute("INSERT INTO t (v) VALUES ('live')", &Params::new())
            .unwrap();
        wal.flush_and_notify();
        assert_eq!(*replica.0.lock(), vec![1, 2, 3, 4]);

        // a partially caught-up replica resumes exactly past its LSN
        let resumed = Arc::new(Seen::default());
        let last = wal
            .replay_from(2, Arc::clone(&resumed) as Arc<dyn LogObserver>)
            .unwrap();
        assert_eq!(last, 4);
        assert_eq!(*resumed.0.lock(), vec![3, 4]);
        wal.stop();
    }

    #[test]
    fn real_flush_failure_propagates_to_strict_commits() {
        let dir = TempDir::new("wal-eio").unwrap();
        let mut cfg = config(&dir);
        cfg.crash_plan = CrashPlan::io_error_at(1);
        let counters = Arc::new(WalCounters::new());
        let wal = Wal::open(cfg, Arc::clone(&counters)).unwrap();
        let db = durable_db(&wal); // strict commits
        let err = db
            .execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT)")
            .unwrap_err();
        assert!(
            matches!(err, relstore::Error::Durability(_)),
            "expected Durability error, got {err:?}"
        );
        assert!(wal.io_error().unwrap().contains("injected write failure"));
        assert_eq!(counters.flush_errors.get(), 1);
        wal.stop();
    }

    #[test]
    fn simulated_crash_drops_unflushed_commits() {
        let dir = TempDir::new("wal-crash").unwrap();
        let mut cfg = config(&dir);
        cfg.group_commit_window = Duration::from_secs(3600);
        let wal = Wal::open(cfg, Arc::new(WalCounters::new())).unwrap();
        let db = Database::new();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
        db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
            .unwrap();
        db.execute("INSERT INTO t (v) VALUES ('durable')", &Params::new())
            .unwrap();
        wal.flush_and_notify();
        db.execute("INSERT INTO t (v) VALUES ('lost')", &Params::new())
            .unwrap();
        wal.simulate_crash(); // before the second flush
        wal.stop();
        let wal = open(&dir);
        let db2 = Database::new();
        wal.recover_into(&db2).unwrap();
        assert_eq!(db2.table_len("t").unwrap(), 1);
        let rs = db2.query("SELECT v FROM t", &Params::new()).unwrap();
        assert_eq!(
            rs.first("v"),
            Some(&relstore::Value::Text("durable".into()))
        );
    }

    #[test]
    fn reopen_continues_lsns_after_recovery() {
        let dir = TempDir::new("wal-lsn").unwrap();
        {
            let wal = open(&dir);
            let db = durable_db(&wal);
            db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
                .unwrap();
            db.execute("INSERT INTO t (v) VALUES ('one')", &Params::new())
                .unwrap();
            wal.stop();
        }
        let wal = open(&dir);
        let db = Database::new();
        let info = wal.recover_into(&db).unwrap();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, true);
        db.execute("INSERT INTO t (v) VALUES ('two')", &Params::new())
            .unwrap();
        assert!(wal.appended_lsn() > info.last_lsn);
        wal.stop();
        // final state survives another round trip
        let wal = open(&dir);
        let db2 = Database::new();
        wal.recover_into(&db2).unwrap();
        assert_eq!(db2.table_len("t").unwrap(), 2);
    }
}
