//! Draining the writer and calling the observers is one critical section:
//! a barrier returns only once every batch committed before it was
//! *delivered*, whoever drained it, and batches never overtake each other
//! (a replica skips `lsn <= applied_lsn`: an overtaken batch is lost).

use relstore::{ChangeRecord, CommitSink, Database, Params};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wal::{ChangeStream, LogObserver, TempDir, Wal, WalConfig};

/// Announces each delivery, then holds it open until released.
struct Gated {
    entered: Mutex<Sender<u64>>,
    release: Mutex<Receiver<()>>,
    delivered: Mutex<Vec<u64>>,
}

impl LogObserver for Gated {
    fn on_durable(&self, lsn: u64, _changes: &[ChangeRecord]) {
        self.entered.lock().unwrap().send(lsn).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        self.delivered.lock().unwrap().push(lsn);
    }
}

#[test]
fn barriers_wait_for_delivery_and_batches_never_overtake() {
    let dir = TempDir::new("wal-barrier-order").unwrap();
    let mut cfg = WalConfig::new(dir.path());
    cfg.group_commit_window = Duration::from_secs(3600); // manual flushes only
    let wal = Wal::open(cfg, Arc::new(obs::WalCounters::new())).unwrap();
    let db = Database::new();
    db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
    db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
        .unwrap();
    wal.flush_and_notify(); // LSN 1, before the observer attaches

    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gated = Arc::new(Gated {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
        delivered: Mutex::new(Vec::new()),
    });
    wal.attach_observer(Arc::clone(&gated) as Arc<dyn LogObserver>);
    let insert = || db.execute("INSERT INTO t (v) VALUES ('x')", &Params::new());
    insert().unwrap();

    std::thread::scope(|s| {
        // A drains LSN 2 and is held inside the observer
        s.spawn(|| wal.flush_and_notify());
        assert_eq!(entered.recv().unwrap(), 2);

        // B, a committer's barrier, finds nothing left to drain and must
        // still not return before LSN 2 has been delivered
        let (done_tx, done) = channel();
        let (wal, gated) = (&wal, &gated);
        s.spawn(move || {
            wal.notify_buffered();
            let _ = done_tx.send(gated.delivered.lock().unwrap().contains(&2));
        });
        let early = done.recv_timeout(Duration::from_millis(300));

        // C drains LSN 3: it must not reach the observer before LSN 2 is
        // through
        insert().unwrap();
        s.spawn(|| wal.notify_buffered());
        let overtook = entered.recv_timeout(Duration::from_millis(300));

        release.send(()).unwrap();
        release.send(()).unwrap();
        assert!(early.is_err(), "barrier returned with LSN 2 undelivered");
        assert!(overtook.is_err(), "LSN 3 entered the observer during LSN 2");
        assert!(done.recv().unwrap(), "barrier returned before delivery");
    });
    assert_eq!(*gated.delivered.lock().unwrap(), [2, 3]);
    wal.stop();
}
