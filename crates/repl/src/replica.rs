//! A log-shipping read replica: its own [`Database`], fed by the leader's
//! durable batch stream, applying idempotently in LSN order.

use parking_lot::RwLock;
use relstore::{ChangeRecord, Database};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wal::{LogObserver, SnapshotData};

/// One read replica. Owns a full copy of the data tier, tracks the last
/// LSN it has applied, and re-emits each applied batch to its own
/// observers ([`wal::ChangeStream`]) — which is how the replica
/// controller's caches are maintained, the paper's §6 invalidation per
/// replica.
///
/// Apply is **idempotent**: a batch with `lsn <= applied_lsn` is counted
/// as a duplicate and skipped, so reconnect replays (`Wal::replay_from`
/// overlapping the live stream) converge instead of corrupting state.
pub struct Replica {
    name: String,
    db: Arc<Database>,
    applied: AtomicU64,
    gauges: Arc<obs::ReplicaGauges>,
    counters: Arc<obs::ReplCounters>,
    observers: RwLock<Vec<Arc<dyn LogObserver>>>,
}

impl Replica {
    /// Wrap `db` (already bootstrapped to `applied_lsn`; 0 for empty) as
    /// a replica named `name` in the registry's gauge families.
    pub fn new(
        name: impl Into<String>,
        db: Arc<Database>,
        applied_lsn: u64,
        counters: Arc<obs::ReplCounters>,
    ) -> Arc<Replica> {
        let name = name.into();
        let gauges = counters.replica_gauges(&name);
        gauges.applied_lsn.set(applied_lsn as i64);
        Arc::new(Replica {
            name,
            db,
            applied: AtomicU64::new(applied_lsn),
            gauges,
            counters,
            observers: RwLock::new(Vec::new()),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Last LSN fully applied (readers at or below this are satisfied).
    pub fn applied_lsn(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Refresh this replica's lag gauge against the leader's LSN.
    pub fn refresh_lag(&self, leader_lsn: u64) {
        let lag = leader_lsn.saturating_sub(self.applied_lsn());
        self.gauges.lag_lsn.set(lag as i64);
    }

    /// Apply one durable batch: store (the whole batch under one storage
    /// write lock, so no reader sees half of it), then observers (cache
    /// maintenance), and only then publish the LSN — the router reads
    /// `applied_lsn` as "this replica may serve a session that wrote at
    /// that LSN", which must not hold while a pre-write bean is still
    /// cached. Returns `false` (and counts a duplicate) when the batch
    /// was already applied. Panics if the change stream diverges from the
    /// replica's state — with idempotent physical replay that indicates a
    /// torn transport, not a data race.
    pub fn apply_batch(&self, lsn: u64, changes: &[ChangeRecord]) -> bool {
        if lsn <= self.applied.load(Ordering::SeqCst) {
            self.counters.batches_duplicate.inc();
            return false;
        }
        self.db
            .apply_batch(lsn, changes)
            .unwrap_or_else(|e| panic!("replica {} diverged applying lsn {lsn}: {e}", self.name));
        for o in self.observers.read().iter() {
            o.on_durable(lsn, changes);
        }
        self.applied.store(lsn, Ordering::SeqCst);
        self.gauges.applied_lsn.set(lsn as i64);
        self.counters.batches_applied.inc();
        true
    }

    /// Write this replica's own recovery snapshot (applied LSN + tables),
    /// so a crashed replica restarts from local state and only replays
    /// the tail via `Wal::replay_from(applied_lsn, ...)`.
    pub fn snapshot_to(&self, path: &Path) -> io::Result<u64> {
        let (tables, lsn) = self.db.freeze_tables(|| self.applied_lsn());
        let snap = SnapshotData::from_frozen(&tables, lsn);
        wal::snapshot::write_snapshot(path, &snap)?;
        Ok(lsn)
    }

    /// Restore a replica database from [`Replica::snapshot_to`] output:
    /// returns the fresh database and the LSN it is caught up to (0 when
    /// no snapshot exists yet).
    pub fn restore_db(path: &Path) -> io::Result<(Arc<Database>, u64)> {
        let db = Arc::new(Database::new());
        let lsn = match wal::snapshot::load_snapshot(path)? {
            Some(snap) => {
                let lsn = snap.last_lsn;
                snap.restore_into(&db)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                lsn
            }
            None => 0,
        };
        Ok((db, lsn))
    }

    /// Default snapshot path for replica `name` under `dir`.
    pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.snap"))
    }
}

impl wal::ChangeStream for Replica {
    /// Observers run after a batch is applied to the store and before its
    /// LSN is published.
    fn attach_observer(&self, o: Arc<dyn LogObserver>) {
        self.observers.write().push(o);
    }
}

/// Direct (unserialized) observer wiring, for tests that want to bypass
/// the frame transport. Production wiring goes through
/// [`crate::ShippingObserver`] + [`crate::InProcessLink`].
impl LogObserver for Replica {
    fn on_durable(&self, lsn: u64, changes: &[ChangeRecord]) {
        self.apply_batch(lsn, changes);
    }
}
