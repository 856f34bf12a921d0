//! One version: the commit LSN.
//!
//! Every node applies the same committed batches in LSN order — the leader
//! its own commits, a replica the shipped log — so "how new is this?" has
//! one answer on every node: the log position of the write (DDIA ch. 5).
//! The [`VersionTable`] records, per node, the LSN of the last write to
//! each entity and row and of the last schema change; a cached value
//! carries the LSN it was computed at ([`Provenance`]). The same numbers
//! decide whether a cache put is stale, whether a maintenance pass must
//! visit a bean, whether a cached fragment may still be served, and what
//! a page's `ETag` says.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a cached value was computed from: an LSN whose state it reflects
/// (or a later one), and the entities whose writes can change it. A pair
/// in `rows` narrows its entity to that one row.
#[derive(Debug, Clone, Copy)]
pub struct Provenance<'a> {
    pub lsn: u64,
    pub entities: &'a [String],
    pub rows: &'a [(String, i64)],
}

/// LSNs of the writes to one entity.
#[derive(Debug, Default)]
struct Writes {
    /// The last write to any row.
    last: u64,
    /// The last write whose row could not be named: it may have changed
    /// any row.
    blind: u64,
    /// The last write to each named row.
    rows: HashMap<i64, u64>,
}

#[derive(Debug, Default)]
struct Log {
    entities: HashMap<String, Writes>,
    ddl: u64,
}

impl Log {
    fn entity(&self, entity: &str) -> u64 {
        self.ddl
            .max(self.entities.get(entity).map_or(0, |w| w.last))
    }

    fn row(&self, entity: &str, oid: i64) -> u64 {
        let row = self
            .entities
            .get(entity)
            .map_or(0, |w| w.blind.max(w.rows.get(&oid).copied().unwrap_or(0)));
        self.ddl.max(row)
    }
}

/// A node's record of which commit last wrote each entity and row, plus
/// the LSN through which its caches are maintained.
///
/// The one writer, the log-driven maintainer,
/// [`record`](VersionTable::record)s each write of a batch *before* it
/// visits a bean stripe, and a cache put checks
/// [`outdates`](VersionTable::outdates) under its stripe lock. A bean put
/// that misses a write either sees it recorded and is refused, or lands
/// before the maintainer reaches its stripe and is patched or dropped. A
/// fragment is checked again each time it is read, so markup that missed
/// a write is never served after the write is recorded.
#[derive(Debug, Default)]
pub struct VersionTable {
    /// The store's LSN when the table was created: the node cannot say
    /// when an entity it has seen no write to was last written, only that
    /// it was no later than this.
    boot: u64,
    log: RwLock<Log>,
    /// See [`VersionTable::settled`].
    settled: AtomicU64,
}

impl VersionTable {
    pub fn new(boot: u64) -> VersionTable {
        VersionTable {
            boot,
            settled: AtomicU64::new(boot),
            ..VersionTable::default()
        }
    }

    /// Record a write to `entity` at `lsn`: to row `oid`, or — `None` — to
    /// a row that cannot be named. Versions only move forward.
    pub fn record(&self, entity: &str, oid: Option<i64>, lsn: u64) {
        let mut log = self.log.write();
        let writes = match log.entities.get_mut(entity) {
            Some(w) => w,
            None => log.entities.entry(entity.to_string()).or_default(),
        };
        writes.last = writes.last.max(lsn);
        let slot = match oid {
            Some(oid) => writes.rows.entry(oid).or_default(),
            None => &mut writes.blind,
        };
        *slot = (*slot).max(lsn);
    }

    /// Record a schema change at `lsn`: it moves every version.
    pub fn record_ddl(&self, lsn: u64) {
        let mut log = self.log.write();
        log.ddl = log.ddl.max(lsn);
    }

    /// Version of `entity`: the LSN of its last write, never older than
    /// the last schema change or the table's boot LSN.
    pub fn entity(&self, entity: &str) -> u64 {
        self.boot.max(self.log.read().entity(entity))
    }

    /// Version of one row of `entity`: like [`VersionTable::entity`], but
    /// writes to other named rows do not move it.
    pub fn row(&self, entity: &str, oid: i64) -> u64 {
        self.boot.max(self.log.read().row(entity, oid))
    }

    /// The put rule: has a write newer than `from.lsn` been recorded to
    /// anything `from` depends on, or a schema change?
    pub fn outdates(&self, from: &Provenance<'_>) -> bool {
        let log = self.log.read();
        log.ddl > from.lsn
            || from.entities.iter().any(|e| log.entity(e) > from.lsn)
            || from.rows.iter().any(|(e, oid)| log.row(e, *oid) > from.lsn)
    }

    /// Declare every batch up to `lsn` maintained: each write in it has
    /// been recorded and every cache entry it made stale patched or
    /// dropped.
    pub fn settle(&self, lsn: u64) {
        self.settled.fetch_max(lsn, Ordering::Release);
    }

    /// The LSN through which this node's caches are maintained. Markup
    /// rendered from beans read after loading it reflects at least that
    /// state, which is the stamp a fragment put carries — a bean read from
    /// the cache may predate the store's [`lsn`](relstore::Database::lsn).
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on<'a>(lsn: u64, entities: &'a [String], rows: &'a [(String, i64)]) -> Provenance<'a> {
        Provenance {
            lsn,
            entities,
            rows,
        }
    }

    #[test]
    fn versions_are_the_lsns_of_the_last_writes() {
        let v = VersionTable::new(10);
        // nothing recorded: the boot LSN, the latest the node can vouch for
        assert_eq!((v.entity("paper"), v.row("paper", 1)), (10, 10));
        v.record("paper", Some(1), 12);
        v.record("paper", Some(2), 11); // late delivery never moves back
        assert_eq!(v.entity("paper"), 12);
        assert_eq!(
            (v.row("paper", 1), v.row("paper", 2), v.row("paper", 3)),
            (12, 11, 10)
        );
        // a write whose row is unknown may have touched any row
        v.record("paper", None, 13);
        assert_eq!((v.row("paper", 1), v.row("paper", 3)), (13, 13));
        assert_eq!(v.entity("author"), 10);
        // a schema change moves everything
        v.record_ddl(20);
        assert_eq!((v.entity("author"), v.row("paper", 1)), (20, 20));
    }

    #[test]
    fn a_put_loses_to_a_newer_write_to_what_it_read() {
        let v = VersionTable::new(0);
        let paper = ["paper".to_string()];
        let row7 = [("paper".to_string(), 7)];
        v.record("paper", Some(3), 5);
        assert!(v.outdates(&on(4, &paper, &[])));
        assert!(!v.outdates(&on(5, &paper, &[])));
        // a row-scoped value ignores writes to other rows …
        assert!(!v.outdates(&on(4, &[], &row7)));
        // … but not its own row, nor a write whose row is unknown
        v.record("paper", Some(7), 6);
        assert!(v.outdates(&on(5, &[], &row7)));
        v.record("paper", None, 8);
        assert!(v.outdates(&on(7, &[], &row7)));
        // a schema change outdates even a value that depends on nothing
        v.record_ddl(9);
        assert!(v.outdates(&on(8, &[], &[])));
        assert!(!v.outdates(&on(9, &paper, &row7)));
    }

    #[test]
    fn settled_only_moves_forward() {
        let v = VersionTable::new(4);
        assert_eq!(v.settled(), 4);
        v.settle(9);
        v.settle(6);
        assert_eq!(v.settled(), 9);
    }
}
