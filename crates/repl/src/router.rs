//! The routing tier: writes to the leader, reads to caught-up replicas.
//!
//! Staleness contract (monotonic enough for a web session, DDIA ch. 5):
//!
//! * **read-your-writes** — after an operation commits on the leader, the
//!   session's `__last_write_lsn` var records the leader's append LSN;
//!   a later read is served by a replica only if that replica's
//!   `applied_lsn` has reached it, else the leader serves the read and
//!   `repl_stale_redirects_total` counts the redirect;
//! * **bounded staleness** — replicas apply only durable batches, so a
//!   replica read is at most one group-commit window plus apply latency
//!   behind the leader, and never behind the session's own writes.
//!
//! The session store is shared (`webratio::NodeSpec::sessions`), so
//! the LSN watermark written on the leader is visible to every replica
//! controller resolving the same cookie.

use mvc::{Controller, WebRequest, WebResponse};
use relstore::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::Replica;

/// Reserved session variable holding the session's last write LSN.
pub const LAST_WRITE_VAR: &str = "__last_write_lsn";

/// One replica endpoint: the apply loop plus a controller over its store.
pub struct ReplicaEndpoint {
    pub replica: Arc<Replica>,
    pub controller: Arc<Controller>,
}

/// The request router in front of `mvc`.
pub struct Router {
    leader: Arc<Controller>,
    wal: Arc<wal::Wal>,
    replicas: Vec<ReplicaEndpoint>,
    counters: Arc<obs::ReplCounters>,
    rr: AtomicUsize,
}

impl Router {
    pub fn new(
        leader: Arc<Controller>,
        wal: Arc<wal::Wal>,
        replicas: Vec<ReplicaEndpoint>,
        counters: Arc<obs::ReplCounters>,
    ) -> Router {
        Router {
            leader,
            wal,
            replicas,
            counters,
            rr: AtomicUsize::new(0),
        }
    }

    pub fn leader(&self) -> &Arc<Controller> {
        &self.leader
    }

    pub fn replicas(&self) -> &[ReplicaEndpoint] {
        &self.replicas
    }

    /// Refresh every replica's lag gauge against the leader's append LSN.
    pub fn refresh_lag(&self) {
        let leader_lsn = self.wal.appended_lsn();
        for ep in &self.replicas {
            ep.replica.refresh_lag(leader_lsn);
        }
    }

    /// Is `path` a write (operation chain) under the leader's descriptor
    /// set? Unknown paths count as reads; the leader serves their 404.
    fn is_write(&self, path: &str) -> bool {
        self.leader.is_operation(path)
    }

    /// The LSN this session must not read below (its last write), from
    /// the shared session store. 0 for fresh/anonymous sessions.
    fn session_floor(&self, req: &WebRequest) -> u64 {
        let Some(sid) = req.session.as_deref() else {
            return 0;
        };
        let Some(session) = self.leader.sessions.get(sid) else {
            return 0;
        };
        let guard = session.lock();
        match guard.vars.get(LAST_WRITE_VAR) {
            Some(Value::Integer(lsn)) => *lsn as u64,
            _ => 0,
        }
    }

    /// Record the session's new write watermark after a leader write.
    fn record_write(&self, sid: &str, lsn: u64) {
        if let Some(session) = self.leader.sessions.get(sid) {
            session
                .lock()
                .vars
                .insert(LAST_WRITE_VAR.to_string(), Value::Integer(lsn as i64));
        }
    }

    /// Service one request: operations on the leader (recording the
    /// session's write LSN), page reads on the first caught-up replica in
    /// round-robin order, falling back to the leader when every replica
    /// lags the session's own writes.
    pub fn handle(&self, req: &WebRequest) -> WebResponse {
        if self.is_write(&req.path) {
            let resp = self.leader.handle(req);
            // the append LSN covers this operation's commits; non-strict
            // commits may not be durable yet, which is exactly why a
            // replica (which only sees durable batches) must catch up to
            // it before serving this session again
            let lsn = self.wal.appended_lsn();
            if let Some(sid) = resp.set_session.as_deref().or(req.session.as_deref()) {
                self.record_write(sid, lsn);
            }
            self.refresh_lag();
            return resp;
        }

        let floor = self.session_floor(req);
        if !self.replicas.is_empty() {
            let start = self.rr.fetch_add(1, Ordering::Relaxed);
            for k in 0..self.replicas.len() {
                let ep = &self.replicas[(start + k) % self.replicas.len()];
                if ep.replica.applied_lsn() >= floor {
                    self.counters.record_read(ep.replica.name());
                    return ep.controller.handle(req);
                }
            }
            // every replica lags this session's last write
            self.counters.stale_redirects.inc();
        }
        self.counters.record_read("leader");
        self.leader.handle(req)
    }
}
