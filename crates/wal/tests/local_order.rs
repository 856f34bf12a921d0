//! The local commit stream drains its queue and calls the observers in
//! one critical section: a commit returns only once every batch committed
//! before it was *delivered*, whichever committer drained it, and batches
//! never overtake each other (a maintainer records versions that only
//! move forward, so an overtaken batch's sweep would go unrecorded).

use relstore::{ChangeRecord, CommitSink, Database, Params};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wal::{ChangeStream, LocalStream, LogObserver};

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

/// Opens every gate when dropped — also when an assertion unwinds the
/// test — so no committer stays parked in the observer.
struct OpenAll<'a>(&'a Sender<()>);

impl Drop for OpenAll<'_> {
    fn drop(&mut self) {
        for _ in 0..3 {
            let _ = self.0.send(());
        }
    }
}

#[test]
fn commits_return_after_delivery_and_batches_never_overtake() {
    let stream = LocalStream::standalone(0);
    let db = Database::new();
    db.set_commit_sink(Arc::clone(&stream) as Arc<dyn CommitSink>, true);
    db.execute_script("CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
        .unwrap(); // LSN 1, before the observer attaches

    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gated = Arc::new(Gated {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
        delivered: Mutex::new(Vec::new()),
    });
    stream.attach_observer(Arc::clone(&gated) as Arc<dyn LogObserver>);
    // (the LSN a committer's batch got, what was delivered when it returned)
    let (done_tx, done) = channel::<(u64, Vec<u64>)>();
    let committed = |lsn: u64| {
        while db.lsn() < lsn {
            std::thread::yield_now();
        }
    };

    std::thread::scope(|s| {
        let _open = OpenAll(&release);
        let commit = |lsn: u64| {
            let (db, gated, done_tx) = (&db, &gated, done_tx.clone());
            s.spawn(move || {
                db.execute("INSERT INTO t (v) VALUES ('x')", &Params::new())
                    .unwrap();
                let seen = gated.delivered.lock().unwrap().clone();
                done_tx.send((lsn, seen)).unwrap();
            });
        };
        // A commits LSN 2 and is held inside the observer
        commit(2);
        assert_eq!(entered.recv().unwrap(), 2);

        // B and C commit LSNs 3 and 4 behind it: neither batch may reach
        // the observer during LSN 2, and neither committer may return
        commit(3);
        committed(3);
        commit(4);
        committed(4);
        let overtook = entered.recv_timeout(Duration::from_millis(300));
        assert!(overtook.is_err(), "a later batch entered during LSN 2");
        assert!(done.try_recv().is_err(), "a commit returned undelivered");

        // LSN 2 through: A returns; whoever drains next delivers 3, then 4
        release.send(()).unwrap();
        assert_eq!(done.recv().unwrap(), (2, vec![2]));
        assert_eq!(entered.recv().unwrap(), 3);
        let early = done.recv_timeout(Duration::from_millis(300));
        assert!(early.is_err(), "a commit returned with LSN 3 undelivered");
        release.send(()).unwrap();
        assert_eq!(entered.recv().unwrap(), 4);
        release.send(()).unwrap();
    });
    let mut returns: Vec<(u64, Vec<u64>)> = done.try_iter().collect();
    returns.sort();
    for (lsn, seen) in returns {
        let earlier: Vec<u64> = (2..=lsn).collect();
        assert!(
            earlier.iter().all(|l| seen.contains(l)),
            "commit of LSN {lsn} returned having seen only {seen:?} delivered"
        );
    }
    assert_eq!(*gated.delivered.lock().unwrap(), [2, 3, 4]);
}
