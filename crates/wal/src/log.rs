//! The group-commit log writer.
//!
//! Committers append encoded redo records to an in-memory buffer under a
//! short mutex hold (this happens inside `Database`'s storage lock, so it
//! must stay cheap — appending never does I/O; even a full watermark only
//! *wakes* the flusher) and receive an LSN. A background flusher wakes
//! every `window` (or early, on a watermark request) and writes + syncs
//! the whole buffer in one physical flush; strict-mode committers block in
//! [`LogWriter::wait_durable`] on a condvar until their LSN is covered.
//! Many committers therefore share one sync — the classic group-commit
//! amortization — and the batch size per flush is recorded in
//! `obs::WalCounters::group_batch_size`.
//!
//! Every flushed batch is queued for observer dispatch and drained by
//! [`LogWriter::flush_now`]; internal flush paths (watermark, compaction,
//! [`LogWriter::stop`]) can therefore never lose a batch an observer
//! should have seen.
//!
//! Crash points from [`crate::fault::CrashPlan`] trip inside the flush path
//! (see [`CrashPoint`]): the writer marks itself crashed, stops touching
//! the file, and wakes all waiters, simulating power loss at that exact
//! instant without killing the test process.

use crate::fault::{CrashPlan, CrashPoint};
use crate::record::{append_record, LOG_MAGIC};
use obs::WalCounters;
use relstore::ChangeRecord;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One flushed batch, as handed to observers: `(lsn, changes)` per
/// committed transaction, in commit order.
pub type DurableBatch = Vec<(u64, Arc<Vec<ChangeRecord>>)>;

struct WriterState {
    file: Option<File>,
    /// Encoded records not yet flushed.
    buf: Vec<u8>,
    /// Offset in `buf` where the most recently appended record starts
    /// (the record a `MidRecord` crash tears).
    last_record_start: usize,
    /// The buffered batches (shared with the committer), for observer
    /// dispatch once flushed.
    pending: Vec<(u64, Arc<Vec<ChangeRecord>>)>,
    /// Batches already flushed (durable) but not yet drained by a
    /// dispatcher via [`LogWriter::flush_now`]. Every internal flush path
    /// (watermark, compaction, stop) queues here, so no durable batch can
    /// ever miss observer dispatch.
    dispatch: DurableBatch,
    /// Set by the watermark path in [`LogWriter::append`]: asks the
    /// flusher thread to flush ahead of its window (append itself must
    /// never do I/O — it runs under the database storage lock).
    flush_due: bool,
    /// First *real* write/sync failure, verbatim. Once set, the writer is
    /// poisoned: strict committers get an `Err` from
    /// [`LogWriter::wait_durable`] instead of a silent ack.
    io_error: Option<String>,
    next_lsn: u64,
    /// Highest LSN appended to the buffer (≥ durable_lsn).
    appended_lsn: u64,
    /// Highest LSN written + synced to the file.
    durable_lsn: u64,
    /// Count of non-empty physical flushes so far (crash plans index this).
    flush_ordinal: u64,
    crash_plan: CrashPlan,
    crashed: bool,
    stopping: bool,
}

/// Append-only log file with group commit and simulated crash points.
pub struct LogWriter {
    state: Mutex<WriterState>,
    cond: Condvar,
    path: PathBuf,
    counters: Arc<WalCounters>,
    window: Duration,
    watermark: usize,
}

impl LogWriter {
    /// Open (creating or repairing as needed is the caller's job — the file
    /// must exist and start with a valid header) and position after
    /// `start_lsn`.
    pub fn open(
        path: &Path,
        start_lsn: u64,
        window: Duration,
        watermark: usize,
        crash_plan: CrashPlan,
        counters: Arc<WalCounters>,
    ) -> io::Result<Arc<LogWriter>> {
        if !path.exists() {
            let mut f = File::create(path)?;
            f.write_all(LOG_MAGIC)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Arc::new(LogWriter {
            state: Mutex::new(WriterState {
                file: Some(file),
                buf: Vec::new(),
                last_record_start: 0,
                pending: Vec::new(),
                dispatch: Vec::new(),
                flush_due: false,
                io_error: None,
                next_lsn: start_lsn + 1,
                appended_lsn: start_lsn,
                durable_lsn: start_lsn,
                flush_ordinal: 0,
                crash_plan,
                crashed: false,
                stopping: false,
            }),
            cond: Condvar::new(),
            path: path.to_path_buf(),
            counters,
            window,
            watermark,
        }))
    }

    /// Append one committed transaction's redo image; returns its LSN.
    /// Cheap (no I/O, no copy of `changes`) — called with the database
    /// storage lock held.
    pub fn append(&self, changes: Arc<Vec<ChangeRecord>>) -> u64 {
        let mut s = self.state.lock().unwrap();
        let lsn = s.next_lsn;
        s.next_lsn += 1;
        s.appended_lsn = lsn;
        if s.crashed {
            // the "machine" is down: accept and drop, like writes after
            // power loss
            return lsn;
        }
        s.last_record_start = s.buf.len();
        let mut buf = std::mem::take(&mut s.buf);
        append_record(&mut buf, lsn, &changes);
        s.buf = buf;
        s.pending.push((lsn, changes));
        self.counters.records_appended.inc();
        if s.buf.len() >= self.watermark && !s.flush_due {
            // No I/O here — the storage write lock is held. Ask the
            // flusher thread to run ahead of its window instead.
            s.flush_due = true;
            self.cond.notify_all();
        }
        lsn
    }

    /// Flush the buffer now and drain *every* durable batch — including
    /// ones flushed internally by the watermark/compaction/stop paths —
    /// for observer dispatch outside the lock. Callers (the flusher
    /// thread, `Wal::flush_and_notify`) own dispatching what they drain.
    pub fn flush_now(&self) -> DurableBatch {
        let mut s = self.state.lock().unwrap();
        self.flush_locked(&mut s);
        std::mem::take(&mut s.dispatch)
    }

    /// Write + sync the buffer and queue the flushed batch on
    /// `s.dispatch`. Never hands batches to the caller directly, so no
    /// internal flush path can drop them on the floor.
    fn flush_locked(&self, s: &mut WriterState) {
        s.flush_due = false;
        if s.crashed || s.buf.is_empty() {
            return;
        }
        let ordinal = s.flush_ordinal + 1;
        if s.crash_plan.fails_at(ordinal) {
            // injected kernel failure (EIO/ENOSPC stand-in) — takes the
            // same loud path a real write_all/sync_data error takes below
            let e = io::Error::other("injected write failure");
            self.fail_io(s, &e);
            return;
        }
        match s.crash_plan.trips_at(ordinal) {
            Some(CrashPoint::BeforeFlush) => {
                // power dies before any byte reaches the disk
                self.die(s);
                return;
            }
            Some(CrashPoint::MidRecord) => {
                // a prefix of the batch hits the disk; the final record is
                // torn halfway through
                let tail = s.buf.len() - s.last_record_start;
                let torn = s.last_record_start + (tail / 2).max(1);
                if let Some(f) = s.file.as_mut() {
                    let _ = f.write_all(&s.buf[..torn]);
                    let _ = f.sync_data();
                }
                self.die(s);
                return;
            }
            Some(CrashPoint::AfterFlush) => {
                // the batch is fully durable; the machine dies right after
                if let Some(f) = s.file.as_mut() {
                    let _ = f.write_all(&s.buf);
                    let _ = f.sync_data();
                }
                self.die(s);
                return;
            }
            None => {}
        }
        let file = match s.file.as_mut() {
            Some(f) => f,
            None => return,
        };
        if let Err(e) = file.write_all(&s.buf).and_then(|_| file.sync_data()) {
            self.fail_io(s, &e);
            return;
        }
        self.counters.flushes.inc();
        self.counters.bytes_written.add(s.buf.len() as u64);
        self.counters
            .group_batch_size
            .observe(s.pending.len() as u64);
        s.flush_ordinal = ordinal;
        s.durable_lsn = s.appended_lsn;
        s.buf.clear();
        s.last_record_start = 0;
        let batch = std::mem::take(&mut s.pending);
        s.dispatch.extend(batch);
        self.cond.notify_all();
    }

    fn die(&self, s: &mut WriterState) {
        s.crashed = true;
        s.flush_due = false;
        s.buf.clear();
        s.pending.clear();
        // `s.dispatch` is deliberately left intact: those batches were
        // already written + synced, so observers must still hear them.
        s.file = None;
        self.cond.notify_all();
    }

    /// A *real* write/sync failure — unlike an injected power-loss crash,
    /// which is absorbed silently by design (a dead machine acks nothing),
    /// this poisons the writer: the error is counted in
    /// `wal_flush_errors`, stored, and surfaced to every strict committer
    /// through [`LogWriter::wait_durable`].
    fn fail_io(&self, s: &mut WriterState, e: &io::Error) {
        s.io_error = Some(e.to_string());
        self.counters.flush_errors.inc();
        self.die(s);
    }

    /// Force the simulated machine down, dropping any unflushed buffer
    /// (equivalent to a `BeforeFlush` crash right now).
    pub fn simulate_crash(&self) {
        let mut s = self.state.lock().unwrap();
        self.die(&mut s);
    }

    /// Block until `lsn` is durable — or the writer crashed or is stopping,
    /// in which case waiting any longer is pointless.
    ///
    /// Returns `Err` when a *real* write/sync failure (not an injected
    /// power-loss crash) means `lsn` will never become durable: the ack
    /// the committer is waiting for would be a lie.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), String> {
        let mut s = self.state.lock().unwrap();
        while s.durable_lsn < lsn && !s.crashed && !s.stopping {
            let (guard, _timeout) = self
                .cond
                .wait_timeout(s, self.window.max(Duration::from_millis(1)))
                .unwrap();
            s = guard;
        }
        match &s.io_error {
            Some(e) if s.durable_lsn < lsn => Err(format!("wal flush failed: {e}")),
            _ => Ok(()),
        }
    }

    /// The first real write/sync failure, if one has poisoned the writer.
    pub fn io_error(&self) -> Option<String> {
        self.state.lock().unwrap().io_error.clone()
    }

    /// Highest LSN handed out (appended, not necessarily durable).
    pub fn appended_lsn(&self) -> u64 {
        self.state.lock().unwrap().appended_lsn
    }

    /// Highest LSN written + synced.
    pub fn durable_lsn(&self) -> u64 {
        self.state.lock().unwrap().durable_lsn
    }

    /// Number of non-empty physical flushes so far.
    pub fn flush_ordinal(&self) -> u64 {
        self.state.lock().unwrap().flush_ordinal
    }

    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drop every durable record with `lsn <= through` by rewriting the
    /// file (log compaction after a snapshot). The buffer must have been
    /// flushed first; records above `through` are preserved byte-exact.
    pub fn compact_through(&self, through: u64) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Ok(());
        }
        // Any batch flushed here lands on `s.dispatch`; wake the flusher
        // so observers hear about it promptly once we release the lock.
        self.flush_locked(&mut s);
        self.cond.notify_all();
        let bytes = std::fs::read(&self.path)?;
        let scan = crate::record::scan_log(&bytes);
        let mut out = LOG_MAGIC.to_vec();
        for (lsn, changes) in &scan.records {
            if *lsn > through {
                append_record(&mut out, *lsn, changes);
            }
        }
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        s.file = Some(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Tell the flusher loop (and all waiters) to wind down. Any batch
    /// flushed here is queued on the dispatch queue; the flusher's final
    /// [`LogWriter::flush_now`] drains and dispatches it before exiting.
    pub fn stop(&self) {
        let mut s = self.state.lock().unwrap();
        s.stopping = true;
        self.flush_locked(&mut s);
        self.cond.notify_all();
    }

    pub fn stopping(&self) -> bool {
        self.state.lock().unwrap().stopping
    }

    /// Park the flusher thread for up to one group-commit window. Wakes
    /// early when [`LogWriter::stop`] is called (the condvar doubles as
    /// the shutdown signal) and skips parking entirely when work is
    /// already waiting — a watermark flush request from
    /// [`LogWriter::append`] or queued-but-undispatched batches. Returns
    /// `false` once stopping.
    pub fn park_flusher(&self) -> bool {
        let deadline = Instant::now() + self.window.max(Duration::from_millis(1));
        let mut s = self.state.lock().unwrap();
        loop {
            if s.stopping {
                return false;
            }
            // the condvar also carries every flush's "durable" broadcast;
            // only the reasons above and the deadline end the park, or a
            // manual-flush deployment would flush behind its owner's back
            let left = deadline.saturating_duration_since(Instant::now());
            if s.flush_due || !s.dispatch.is_empty() || left.is_zero() {
                return true;
            }
            s = self.cond.wait_timeout(s, left).unwrap().0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TempDir;
    use crate::record::{scan_log, ScanOutcome};

    fn changes(n: i64) -> Arc<Vec<ChangeRecord>> {
        Arc::new(vec![ChangeRecord::Insert {
            table: "t".into(),
            row_id: n as usize,
            row: vec![relstore::Value::Integer(n)],
        }])
    }

    fn writer(dir: &TempDir, plan: CrashPlan) -> Arc<LogWriter> {
        LogWriter::open(
            &dir.path().join("wal.log"),
            0,
            Duration::from_millis(1),
            usize::MAX,
            plan,
            Arc::new(WalCounters::new()),
        )
        .unwrap()
    }

    #[test]
    fn append_flush_scan_round_trip() {
        let dir = TempDir::new("log-rt").unwrap();
        let w = writer(&dir, CrashPlan::none());
        assert_eq!(w.append(changes(1)), 1);
        assert_eq!(w.append(changes(2)), 2);
        let batch = w.flush_now();
        assert_eq!(batch.len(), 2);
        assert_eq!(w.durable_lsn(), 2);
        assert_eq!(w.flush_ordinal(), 1);
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].0, 2);
    }

    #[test]
    fn empty_flush_is_not_counted() {
        let dir = TempDir::new("log-empty").unwrap();
        let w = writer(&dir, CrashPlan::none());
        assert!(w.flush_now().is_empty());
        assert_eq!(w.flush_ordinal(), 0);
    }

    #[test]
    fn before_flush_crash_loses_the_batch() {
        let dir = TempDir::new("log-bf").unwrap();
        let w = writer(&dir, CrashPlan::at(CrashPoint::BeforeFlush, 2));
        w.append(changes(1));
        w.flush_now(); // ordinal 1: survives
        w.append(changes(2));
        w.append(changes(3));
        assert!(w.flush_now().is_empty()); // ordinal 2: dies first
        assert!(w.crashed());
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn mid_record_crash_tears_only_the_last_record() {
        let dir = TempDir::new("log-mid").unwrap();
        let w = writer(&dir, CrashPlan::at(CrashPoint::MidRecord, 1));
        w.append(changes(1));
        w.append(changes(2));
        w.append(changes(3));
        w.flush_now();
        assert!(w.crashed());
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert!(matches!(scan.outcome, ScanOutcome::TornTail { .. }));
        assert_eq!(scan.records.len(), 2); // first two intact, third torn
    }

    #[test]
    fn after_flush_crash_keeps_the_batch() {
        let dir = TempDir::new("log-af").unwrap();
        let w = writer(&dir, CrashPlan::at(CrashPoint::AfterFlush, 1));
        w.append(changes(1));
        w.append(changes(2));
        w.flush_now();
        assert!(w.crashed());
        // appends after the crash are accepted and dropped
        w.append(changes(3));
        w.flush_now();
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn watermark_wakes_the_flusher_instead_of_flushing_inline() {
        let dir = TempDir::new("log-wm").unwrap();
        // One-hour window: only the watermark wake-up can explain a
        // prompt flush.
        let w = LogWriter::open(
            &dir.path().join("wal.log"),
            0,
            Duration::from_secs(3600),
            1, // any byte requests a flush
            CrashPlan::none(),
            Arc::new(WalCounters::new()),
        )
        .unwrap();
        let wf = Arc::clone(&w);
        let flusher = std::thread::spawn(move || loop {
            let keep_going = wf.park_flusher();
            wf.flush_now();
            if !keep_going {
                return;
            }
        });
        let lsn = w.append(changes(1));
        // append itself did no I/O — durability arrives via the flusher
        w.wait_durable(lsn).unwrap();
        assert_eq!(w.durable_lsn(), 1);
        assert_eq!(w.flush_ordinal(), 1);
        w.stop();
        flusher.join().unwrap();
    }

    #[test]
    fn internal_flush_paths_queue_batches_for_dispatch() {
        // stop() flushes internally; the batch must still be drainable —
        // this is what feeds LogObservers (replica-style invalidation)
        let dir = TempDir::new("log-dispatch").unwrap();
        let w = writer(&dir, CrashPlan::none());
        w.append(changes(1));
        w.append(changes(2));
        w.stop();
        let batch = w.flush_now(); // drains what stop() queued
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1].0, 2);

        // compact_through flushes internally too
        let dir = TempDir::new("log-dispatch2").unwrap();
        let w = writer(&dir, CrashPlan::none());
        w.append(changes(1));
        w.compact_through(0).unwrap();
        let batch = w.flush_now();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn wait_durable_returns_after_crash() {
        let dir = TempDir::new("log-wait").unwrap();
        let w = writer(&dir, CrashPlan::at(CrashPoint::BeforeFlush, 1));
        let lsn = w.append(changes(1));
        w.flush_now(); // crashes

        // must not hang; a simulated power loss is not an I/O error
        assert!(w.wait_durable(lsn).is_ok());
        assert!(w.crashed());
        assert!(w.io_error().is_none());
    }

    #[test]
    fn real_write_failure_is_loud() {
        let dir = TempDir::new("log-eio").unwrap();
        let counters = Arc::new(WalCounters::new());
        let w = LogWriter::open(
            &dir.path().join("wal.log"),
            0,
            Duration::from_millis(1),
            usize::MAX,
            CrashPlan::io_error_at(1),
            Arc::clone(&counters),
        )
        .unwrap();
        let lsn = w.append(changes(1));
        assert!(w.flush_now().is_empty()); // the write "fails"

        // poisoned: the failure is counted, stored, and propagated
        assert_eq!(counters.flush_errors.get(), 1);
        assert!(w.io_error().unwrap().contains("injected write failure"));
        let err = w.wait_durable(lsn).unwrap_err();
        assert!(err.contains("wal flush failed"), "err: {err}");
        // an LSN that was already durable before the failure stays Ok
        assert!(w.wait_durable(0).is_ok());
    }

    #[test]
    fn compaction_drops_covered_records_and_keeps_tail() {
        let dir = TempDir::new("log-compact").unwrap();
        let w = writer(&dir, CrashPlan::none());
        for i in 1..=4 {
            w.append(changes(i));
        }
        w.flush_now();
        w.compact_through(2).unwrap();
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        let lsns: Vec<u64> = scan.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![3, 4]);
        // appending after compaction still works
        w.append(changes(5));
        w.flush_now();
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.records.len(), 3);
    }

    #[test]
    fn group_commit_across_threads_shares_flushes() {
        let dir = TempDir::new("log-group").unwrap();
        let counters = Arc::new(WalCounters::new());
        let w = LogWriter::open(
            &dir.path().join("wal.log"),
            0,
            Duration::from_millis(2),
            usize::MAX,
            CrashPlan::none(),
            Arc::clone(&counters),
        )
        .unwrap();
        // background flusher stand-in
        let wf = Arc::clone(&w);
        let flusher = std::thread::spawn(move || {
            while !wf.stopping() {
                std::thread::sleep(Duration::from_millis(1));
                wf.flush_now();
            }
        });
        let mut handles = Vec::new();
        for t in 0..4 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let lsn = w.append(changes(t * 100 + i));
                    w.wait_durable(lsn).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        w.stop();
        flusher.join().unwrap();
        assert_eq!(w.durable_lsn(), 100);
        let flushes = counters.flushes.get();
        assert!((1..=100).contains(&flushes));
        assert_eq!(counters.records_appended.get(), 100);
        // batch-size histogram accounts for every record
        assert_eq!(counters.group_batch_size.sum(), 100);
        let scan = scan_log(&std::fs::read(w.path()).unwrap());
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.records.len(), 100);
    }
}
