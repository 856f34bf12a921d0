//! Incremental cache maintenance driven by the node's change stream.
//!
//! §6's model-driven invalidation is an *in-process* call: the operation
//! service knows which entities it touched and invalidates the bean cache
//! directly. That breaks down the moment the deployment scales past one
//! process — a cache next to replica B never hears about writes applied
//! on primary A — and it misses every write that bypasses an operation.
//! Deriving the same events from the **committed change stream** closes
//! both gaps: the entity names in change records are the canonical table
//! names, exactly the dependency tags unit descriptors attach to cached
//! beans. Every node follows the batches its own store holds: a node that
//! takes writes its own commits (`wal::LocalStream`), a replica the
//! batches it applied.
//!
//! Dropping every bean of the touched entity is the floor, not the goal.
//! For read-mostly applications it is pure waste — an `INSERT INTO paper`
//! need not evict the cached author index of every other author; it can
//! be *folded into* the dependent beans in place.
//!
//! This module is the maintenance layer that decides, per `(change
//! record, cached bean)` pair, whether the change is **patchable**
//! (applied in place: a row folded into an index-unit row list, a data
//! unit's attributes overwritten, a Top-K window repaired) or
//! **unpatchable** (fallback: drop that one bean and count why). The
//! decision is compiled once at deploy time from the unit's generated SQL
//! — the same closed query grammar codegen emits — into a
//! [`MaintenancePlan`]; at run time [`LogDrivenMaintainer`] consumes the
//! node's [`wal::LogObserver`] stream and walks only the beans whose
//! entity the batch touched. A bean without a plan is dropped: a change
//! drops the whole-entity dependents plus the beans scoped to exactly
//! that row, and the whole entity when the row's oid cannot be resolved.
//!
//! The bean-value semantics (how a row delta projects into a cached bean)
//! live behind the [`Patcher`] trait, implemented by the MVC tier for its
//! `UnitBean`; this crate stays value-agnostic like the cache itself.
//!
//! Fragments need no maintenance: each batch's LSN is recorded in the
//! caches' [`VersionTable`] before any bean is visited, and a fragment is
//! checked against that table when it is read
//! ([`crate::FragmentCache::get`]), so a commit never looks for the
//! fragments it makes stale. Cache puts, fragment reads and the
//! controller's `ETag`s all read the same table.

use crate::bean::{BeanCache, BeanKey, Patch, PatchEffect};
use crate::version::VersionTable;
use obs::MaintCounters;
use parking_lot::RwLock;
use relstore::{ChangeRecord, Database, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Unit shapes — the deploy-time input
// ---------------------------------------------------------------------------

/// Everything the planner needs to know about one unit, decoupled from the
/// descriptor types so this crate does not depend on `descriptors`.
#[derive(Debug, Clone, Default)]
pub struct UnitShape {
    pub unit_id: String,
    pub page: String,
    /// `data`, `index`, `multidata`, `multichoice`, `scroller`,
    /// `hierarchy`, `entry`, …
    pub unit_kind: String,
    pub entity_table: Option<String>,
    /// The unit's main query, in the generated grammar.
    pub sql: String,
    /// Bean shape `(property name, result column)`; empty = identity.
    pub bean_columns: Vec<(String, String)>,
    /// Entities the unit depends on (canonical lower-case table names).
    pub depends_on: Vec<String>,
    /// Whether the unit's beans are cached at all.
    pub cached: bool,
}

// ---------------------------------------------------------------------------
// SQL shape recognizer
// ---------------------------------------------------------------------------

/// What a row set's `ORDER BY` clause lets the patcher conclude about
/// row positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOrder {
    /// No `ORDER BY`: the scan order is insertion order, which attribute
    /// updates cannot disturb — patch in place, but insert positions are
    /// unknowable.
    Insertion,
    /// `ORDER BY t.oid` ascending: insert positions are computable from
    /// the cached oids, and updates never move a row.
    Oid,
    /// `ORDER BY t.<col>` ascending over some other column: an update
    /// keeps its position iff the order key is unchanged; inserts still
    /// need a store-side comparison.
    Column(String),
    /// Anything else (multi-column, `DESC`, expressions): position
    /// reasoning is off the table entirely.
    Opaque,
}

/// The recognized shape of a maintainable query: one table, equality
/// conjuncts over named parameters, optional `ORDER BY`/`LIMIT`.
#[derive(Debug, Clone)]
struct QueryShape {
    table: String,
    /// Projected column names, `t.` prefix stripped, in order.
    projection: Vec<String>,
    /// Equality conjuncts `(column, parameter)`.
    filters: Vec<(String, String)>,
    /// What the `ORDER BY` clause implies for row positions.
    order: RowOrder,
    /// Literal `LIMIT k` (no offset): a Top-K window.
    limit: Option<usize>,
}

fn ident(s: &str) -> Option<&str> {
    let s = s.trim();
    (!s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'))
    .then_some(s)
}

/// Strip the single-alias prefix `t.` from a column reference.
fn alias_col(s: &str) -> Option<&str> {
    ident(s)?.strip_prefix("t.").filter(|c| !c.contains('.'))
}

/// Recognize `sql` against the generated grammar. `Err` carries the
/// stable fallback reason tag.
fn recognize(sql: &str) -> Result<QueryShape, &'static str> {
    let sql = sql.trim();
    let up = sql.to_ascii_uppercase();
    if !up.starts_with("SELECT ") {
        return Err("shape");
    }
    if up.contains(" JOIN ") {
        return Err("join");
    }
    if up.contains(" LIKE ") {
        return Err("like-predicate");
    }
    if up.contains(" OR ") {
        return Err("disjunction");
    }
    let from = up.find(" FROM ").ok_or("shape")?;
    let mut projection = Vec::new();
    for col in sql["SELECT ".len()..from].split(',') {
        projection.push(alias_col(col).ok_or("projection")?.to_string());
    }
    let rest = &sql[from + " FROM ".len()..];
    let up_rest = &up[from + " FROM ".len()..];
    let where_pos = up_rest.find(" WHERE ");
    let order_pos = up_rest.find(" ORDER BY ");
    let limit_pos = up_rest.find(" LIMIT ");
    let clause_end =
        |starts: &[Option<usize>]| starts.iter().flatten().copied().min().unwrap_or(rest.len());

    // FROM <table> t
    let from_end = clause_end(&[where_pos, order_pos, limit_pos]);
    let mut words = rest[..from_end].split_whitespace();
    let table = ident(words.next().ok_or("shape")?).ok_or("shape")?;
    if words.next() != Some("t") || words.next().is_some() {
        return Err("alias");
    }

    // WHERE t.col = :param [AND ...]
    let mut filters = Vec::new();
    if let Some(w) = where_pos {
        let end = clause_end(&[order_pos, limit_pos]);
        let clause = &rest[w + " WHERE ".len()..end];
        let up_clause = &up_rest[w + " WHERE ".len()..end];
        if up_clause.contains('<') || up_clause.contains('>') || up_clause.contains("!=") {
            return Err("non-equality");
        }
        let mut at = 0;
        let mut parts = Vec::new();
        let mut search = 0;
        while let Some(p) = up_clause[search..].find(" AND ") {
            parts.push(&clause[at..search + p]);
            at = search + p + " AND ".len();
            search = at;
        }
        parts.push(&clause[at..]);
        for part in parts {
            let (lhs, rhs) = part.split_once('=').ok_or("non-equality")?;
            let col = alias_col(lhs).ok_or("predicate")?;
            let param = rhs
                .trim()
                .strip_prefix(':')
                .and_then(ident)
                .ok_or("predicate")?;
            filters.push((col.to_string(), param.to_string()));
        }
    }

    // ORDER BY t.col [ASC] — anything richer defeats position reasoning
    let mut order = RowOrder::Insertion;
    if let Some(o) = order_pos {
        let end = clause_end(&[limit_pos.filter(|l| *l > o)]);
        let clause = rest[o + " ORDER BY ".len()..end].trim();
        let col = clause
            .strip_suffix(" ASC")
            .or_else(|| clause.strip_suffix(" asc"))
            .unwrap_or(clause);
        order = match alias_col(col) {
            Some("oid") => RowOrder::Oid,
            Some(c) => RowOrder::Column(c.to_string()),
            None => RowOrder::Opaque,
        };
    }

    // LIMIT k (literal, no offset) → Top-K; anything else is a block
    // query whose window shifts under writes.
    let mut limit = None;
    if let Some(l) = limit_pos {
        let clause = rest[l + " LIMIT ".len()..].trim();
        if clause.to_ascii_uppercase().contains("OFFSET") {
            return Err("block-window");
        }
        limit = Some(clause.parse::<usize>().map_err(|_| "param-limit")?);
    }

    Ok(QueryShape {
        table: table.to_string(),
        projection,
        filters,
        order,
        limit,
    })
}

// ---------------------------------------------------------------------------
// Strategies and the maintenance plan
// ---------------------------------------------------------------------------

/// How durable changes fold into one unit's cached beans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Data unit probing its table by primary key (`WHERE t.oid = :p`):
    /// a change affects exactly the bean whose key parameter equals the
    /// changed row's oid — overwrite attributes, fill, or empty it.
    KeyProbe { param: String },
    /// Index-family unit over a single table with equality filters: fold
    /// row inserts/updates/deletes into the cached row list. `order`
    /// bounds what the patcher may do without consulting the store;
    /// `limit` is a Top-K window repaired in place while it stays full
    /// enough.
    RowSet {
        filters: Vec<(String, String)>,
        order: RowOrder,
        limit: Option<usize>,
    },
    /// Not maintainable — drop the bean and recompute on next read.
    /// `reason` is the stable tag reported as
    /// `cache_patch_fallbacks_total{reason}`.
    Fallback { reason: &'static str },
}

impl Strategy {
    /// Short human tag for reports (`analyze`, plan dumps).
    pub fn describe(&self) -> String {
        match self {
            Strategy::KeyProbe { param } => format!("key-probe(:{param})"),
            Strategy::RowSet {
                filters,
                order,
                limit,
            } => {
                let mut s = format!("row-set({} filters", filters.len());
                match order {
                    RowOrder::Insertion => {}
                    RowOrder::Oid => s.push_str(", oid-ordered"),
                    RowOrder::Column(c) => s.push_str(&format!(", ordered-by({c})")),
                    RowOrder::Opaque => s.push_str(", opaque-order"),
                }
                if let Some(k) = limit {
                    s.push_str(&format!(", top-{k}"));
                }
                s.push(')');
                s
            }
            Strategy::Fallback { reason } => format!("fallback({reason})"),
        }
    }
}

/// One unit's compiled maintenance plan.
#[derive(Debug, Clone)]
pub struct UnitPlan {
    pub unit_id: String,
    /// The single table the unit's query reads (empty for fallback-only
    /// plans whose SQL was not recognizable).
    pub table: String,
    /// Bean row shape `(property name, table column)`. The names are
    /// minted once per plan and shared by every row a patch projects.
    pub projection: Vec<(Arc<str>, String)>,
    pub strategy: Strategy,
}

/// Classify one unit shape into its plan.
fn classify(u: &UnitShape) -> UnitPlan {
    let fallback = |table: String, reason: &'static str| UnitPlan {
        unit_id: u.unit_id.clone(),
        table,
        projection: Vec::new(),
        strategy: Strategy::Fallback { reason },
    };
    let entity = u.entity_table.clone().unwrap_or_default();
    match u.unit_kind.as_str() {
        "data" | "index" | "multidata" | "multichoice" => {}
        "scroller" => return fallback(entity, "block-window"),
        "hierarchy" => return fallback(entity, "hierarchy"),
        _ => return fallback(entity, "unsupported-kind"),
    }
    let shape = match recognize(&u.sql) {
        Ok(s) => s,
        Err(reason) => return fallback(entity, reason),
    };
    let projection: Vec<(Arc<str>, String)> = if u.bean_columns.is_empty() {
        shape
            .projection
            .iter()
            .map(|c| (Arc::from(c.as_str()), c.clone()))
            .collect()
    } else {
        u.bean_columns
            .iter()
            .map(|(name, col)| (Arc::from(name.as_str()), col.clone()))
            .collect()
    };
    let strategy = if u.unit_kind == "data" {
        match shape.filters.as_slice() {
            [(col, param)] if col == "oid" => Strategy::KeyProbe {
                param: param.clone(),
            },
            [] => Strategy::Fallback {
                reason: "single-scan",
            },
            _ => Strategy::Fallback {
                reason: "single-predicate",
            },
        }
    } else {
        Strategy::RowSet {
            filters: shape.filters,
            order: shape.order,
            limit: shape.limit,
        }
    };
    UnitPlan {
        unit_id: u.unit_id.clone(),
        table: shape.table,
        projection,
        strategy,
    }
}

/// The table `sql` reads when it is in the generated single-table
/// grammar, and — for a pure primary-key probe (`… FROM x t WHERE t.oid =
/// :p`) — the probing parameter's name. The page plan derives a unit's
/// cache dependencies from it: a probe's bean and fragments depend on one
/// row, not the whole table.
pub fn query_scope(sql: &str) -> Option<(String, Option<String>)> {
    let shape = recognize(sql).ok()?;
    let probe = match shape.filters.as_slice() {
        [(col, param)] if col == "oid" => Some(param.clone()),
        _ => None,
    };
    Some((shape.table, probe))
}

/// The deploy-time compilation of every cached unit's maintenance
/// strategy.
#[derive(Debug, Default)]
pub struct MaintenancePlan {
    plans: HashMap<String, UnitPlan>,
}

impl MaintenancePlan {
    pub fn build(units: &[UnitShape]) -> MaintenancePlan {
        let plans = units
            .iter()
            .filter(|u| u.cached)
            .map(|u| (u.unit_id.clone(), classify(u)))
            .collect();
        MaintenancePlan { plans }
    }

    pub fn unit(&self, id: &str) -> Option<&UnitPlan> {
        self.plans.get(id)
    }

    /// `(unit id, strategy description)` per cached unit, sorted — the
    /// analyzer's maintenance advisory feeds off this.
    pub fn summary(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .plans
            .values()
            .map(|p| (p.unit_id.clone(), p.strategy.describe()))
            .collect();
        v.sort();
        v
    }
}

// ---------------------------------------------------------------------------
// Table catalog and row deltas
// ---------------------------------------------------------------------------

/// table → column names, for turning a positional [`ChangeRecord`] row
/// into named attributes (and finding the `oid`).
#[derive(Debug, Clone, Default)]
pub struct TableCatalog {
    columns: HashMap<String, Vec<String>>,
}

impl TableCatalog {
    pub fn new() -> TableCatalog {
        TableCatalog::default()
    }

    pub fn add(&mut self, table: impl Into<String>, columns: Vec<String>) {
        self.columns.insert(table.into(), columns);
    }

    /// Snapshot the live schema.
    pub fn from_database(db: &Database) -> TableCatalog {
        let mut c = TableCatalog::new();
        for t in db.table_names() {
            if let Ok(cols) = db.table_columns(&t) {
                c.add(t, cols);
            }
        }
        c
    }

    pub fn columns(&self, table: &str) -> Option<&[String]> {
        self.columns.get(table).map(|v| v.as_slice())
    }

    /// Resolve a change record into a row delta; `None` when the table is
    /// unknown or the row has no integer `oid` (the caller falls back to
    /// whole-entity invalidation).
    pub fn delta<'a>(&'a self, change: &'a ChangeRecord) -> Option<RowDelta<'a>> {
        let (table, row, op) = match change {
            ChangeRecord::Insert { table, row, .. } => (table, row, DeltaOp::Insert),
            ChangeRecord::Update { table, row, .. } => (table, row, DeltaOp::Update),
            ChangeRecord::Delete { table, row, .. } => (table, row, DeltaOp::Delete),
            ChangeRecord::Ddl { .. } => return None,
        };
        let columns = self.columns.get(table)?;
        let oid_pos = columns.iter().position(|c| c == "oid")?;
        let oid = match row.get(oid_pos) {
            Some(Value::Integer(i)) => *i,
            _ => return None,
        };
        Some(RowDelta {
            table,
            op,
            oid,
            columns,
            row,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    Insert,
    Update,
    Delete,
}

/// One row-level change, with named-column access.
#[derive(Debug, Clone, Copy)]
pub struct RowDelta<'a> {
    pub table: &'a str,
    pub op: DeltaOp,
    pub oid: i64,
    columns: &'a [String],
    row: &'a [Value],
}

impl<'a> RowDelta<'a> {
    pub fn get(&self, col: &str) -> Option<&'a Value> {
        let i = self
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(col))?;
        self.row.get(i)
    }
}

// ---------------------------------------------------------------------------
// The patcher boundary
// ---------------------------------------------------------------------------

/// Outcome of folding one row delta into one cached bean value.
#[derive(Debug, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The delta was applied to the bean.
    Patched,
    /// The delta cannot affect this bean; leave it cached as-is.
    Unchanged,
    /// The delta's effect cannot be computed from the cached value alone;
    /// the maintainer drops the bean and counts the reason.
    Unpatchable(&'static str),
}

/// Value-type-specific patch semantics (implemented by the MVC tier for
/// its unit beans).
pub trait Patcher<V>: Send + Sync {
    /// Fold `delta` into `bean`. `key_params` are the bean key's
    /// parameters parsed back from its fingerprint (`name → rendered
    /// value`). Decide from the value first: `bean` may change only when
    /// the answer is [`PatchOutcome::Patched`] (patch in place through
    /// `Arc::make_mut`, which copies only a bean a reader still holds).
    fn apply(
        &self,
        plan: &UnitPlan,
        key_params: &BTreeMap<String, String>,
        bean: &mut Arc<V>,
        delta: &RowDelta<'_>,
    ) -> PatchOutcome;
}

/// Does a bean-key fingerprint bind `param` to the row `oid`? Compares
/// numerically, so a `paper=05` binding still matches oid 5.
fn fingerprint_binds_oid(fp: &str, param: &str, oid: i64) -> bool {
    fp.split('&').any(|seg| {
        seg.strip_prefix(param)
            .and_then(|r| r.strip_prefix('='))
            .is_some_and(|v| v.parse::<i64>() == Ok(oid))
    })
}

/// Parse a bean-key fingerprint (`k=v&k2=v2&…`, [`BeanKey::params`]) back
/// into a parameter map. Values are the `Value::render` strings.
pub fn parse_fingerprint(fp: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for seg in fp.split('&') {
        if let Some((k, v)) = seg.split_once('=') {
            out.insert(k.to_string(), v.to_string());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The maintainer
// ---------------------------------------------------------------------------

/// A bean cache and the patcher that folds row deltas into its values.
type Beans<V> = (Arc<BeanCache<V>>, Arc<dyn Patcher<V>>);

/// Consumes a node's change stream and keeps its caches coherent
/// incrementally: each write's LSN is recorded in the version table first;
/// then beans are patched in place where the plan allows, dropped (and
/// counted) where it does not; last, the batch is declared settled.
/// Fragments are checked against the recorded versions when they are
/// read, so the maintainer never visits them. The bean cache may be
/// absent: a node with only fragments or conditional GET still needs its
/// versions recorded and settled.
///
/// Attach with `wal::ChangeStream::attach_observer` to the stream of the
/// batches the node's store holds: on a node that takes writes its
/// `wal::LocalStream`, which delivers each commit on the committing
/// thread before the commit returns; on a replica the batches it applied.
/// The caches never run ahead of the store they front.
pub struct LogDrivenMaintainer<V> {
    beans: Option<Beans<V>>,
    plan: Arc<MaintenancePlan>,
    catalog: RwLock<TableCatalog>,
    db: Weak<Database>,
    versions: Arc<VersionTable>,
    counters: Arc<MaintCounters>,
}

impl<V> LogDrivenMaintainer<V> {
    /// Record each batch in `versions` and settle it; add the bean cache
    /// with [`with_beans`](Self::with_beans). The plan may be shared by
    /// every node of a deployment.
    pub fn new(
        versions: Arc<VersionTable>,
        plan: impl Into<Arc<MaintenancePlan>>,
        catalog: TableCatalog,
        counters: Arc<MaintCounters>,
    ) -> LogDrivenMaintainer<V> {
        LogDrivenMaintainer {
            beans: None,
            plan: plan.into(),
            catalog: RwLock::new(catalog),
            db: Weak::new(),
            versions,
            counters,
        }
    }

    /// Also maintain a bean cache, patching its beans with `patcher`. Its
    /// puts must check against the same version table.
    pub fn with_beans(mut self, cache: Arc<BeanCache<V>>, patcher: Arc<dyn Patcher<V>>) -> Self {
        assert!(
            Arc::ptr_eq(cache.versions(), &self.versions),
            "the caches and the maintainer must share one version table"
        );
        self.beans = Some((cache, patcher));
        self
    }

    /// Remember the database so DDL records refresh the table catalog.
    /// Weakly: the database's commit sink owns the stream that owns this
    /// observer, so a strong handle would close a cycle and leak all three.
    pub fn with_database(mut self, db: &Arc<Database>) -> Self {
        self.db = Arc::downgrade(db);
        self
    }

    pub fn counters(&self) -> Arc<MaintCounters> {
        Arc::clone(&self.counters)
    }

    /// Apply the batch committed at `lsn`. Public so recovery/replay paths
    /// can drive it directly.
    pub fn apply(&self, lsn: u64, changes: &[ChangeRecord]) {
        let start = Instant::now();
        for c in changes {
            let Some(table) = c.table() else {
                // a schema change, the one record without a table: no
                // plan survives it, and recording it outdates every
                // fragment
                self.versions.record_ddl(lsn);
                if let Some((cache, _)) = &self.beans {
                    cache.clear();
                }
                self.counters.record_fallback("ddl");
                if let Some(db) = self.db.upgrade() {
                    *self.catalog.write() = TableCatalog::from_database(&db);
                }
                continue;
            };
            let catalog = self.catalog.read();
            let delta = catalog.delta(c);
            self.versions.record(table, delta.map(|d| d.oid), lsn);
            let Some((cache, patcher)) = &self.beans else {
                continue;
            };
            match delta {
                Some(delta) => {
                    // row-scoped beans of other rows are provably
                    // unaffected; only whole-entity dependents and
                    // this row's beans need a patch decision
                    for key in cache.keys_for_row(table, delta.oid) {
                        self.maintain_key(cache, &**patcher, &key, table, &delta, lsn);
                    }
                }
                None => {
                    // no oid → can't reason per row; coarse drop
                    cache.invalidate_entity(table);
                    self.counters.record_fallback("no-oid");
                }
            }
        }
        self.versions.settle(lsn);
        self.counters
            .apply_micros
            .observe(start.elapsed().as_micros() as u64);
    }

    fn maintain_key(
        &self,
        cache: &BeanCache<V>,
        patcher: &dyn Patcher<V>,
        key: &BeanKey,
        table: &str,
        delta: &RowDelta<'_>,
        lsn: u64,
    ) {
        // drop the bean computed before `lsn`, counting why
        let drop_key = |reason| {
            if cache.patch(key, lsn, |_| Patch::Drop) == Some(PatchEffect::Dropped) {
                self.counters.record_fallback(reason);
            }
        };
        let Some(plan) = self.plan.unit(&key.unit) else {
            // cached bean without a plan (a hand-registered service)
            return drop_key("no-plan");
        };
        if let Strategy::Fallback { reason } = plan.strategy {
            return drop_key(reason);
        }
        if plan.table != table {
            // the bean declares a dependency beyond its own query's table
            // (cross-entity coupling the plan cannot see through)
            return drop_key("foreign-dep");
        }
        if let Strategy::KeyProbe { param } = &plan.strategy {
            // precision: a probe bean is affected only by its own row —
            // checked on the raw fingerprint so the hundreds of sibling
            // keys per write never pay for a parse
            if !fingerprint_binds_oid(&key.params, param, delta.oid) {
                return;
            }
        }
        let params = parse_fingerprint(&key.params);
        let mut reason = None;
        let effect = cache.patch(key, lsn, |bean| {
            match patcher.apply(plan, &params, bean, delta) {
                PatchOutcome::Patched => Patch::Updated,
                PatchOutcome::Unchanged => Patch::Keep,
                PatchOutcome::Unpatchable(why) => {
                    reason = Some(why);
                    Patch::Drop
                }
            }
        });
        match (effect, reason) {
            (Some(PatchEffect::Updated), _) => self.counters.patches_applied.inc(),
            (Some(PatchEffect::Dropped), Some(why)) => self.counters.record_fallback(why),
            _ => {}
        }
    }
}

impl<V: Send + Sync> wal::LogObserver for LogDrivenMaintainer<V> {
    fn on_durable(&self, lsn: u64, changes: &[ChangeRecord]) {
        self.apply(lsn, changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Provenance;

    fn shape(kind: &str, sql: &str) -> UnitShape {
        UnitShape {
            unit_id: "u".into(),
            page: "p".into(),
            unit_kind: kind.into(),
            entity_table: Some("paper".into()),
            sql: sql.into(),
            bean_columns: vec![],
            depends_on: vec!["paper".into()],
            cached: true,
        }
    }

    #[test]
    fn recognizer_classifies_the_generated_grammar() {
        let p = classify(&shape(
            "data",
            "SELECT t.oid, t.title FROM paper t WHERE t.oid = :item",
        ));
        assert_eq!(p.table, "paper");
        assert_eq!(
            p.strategy,
            Strategy::KeyProbe {
                param: "item".into()
            }
        );
        assert_eq!(
            p.projection,
            vec![
                (Arc::from("oid"), "oid".to_string()),
                (Arc::from("title"), "title".to_string())
            ]
        );

        let p = classify(&shape(
            "index",
            "SELECT t.oid, t.title FROM paper t WHERE t.issue_oid = :issue ORDER BY t.oid",
        ));
        assert_eq!(
            p.strategy,
            Strategy::RowSet {
                filters: vec![("issue_oid".into(), "issue".into())],
                order: RowOrder::Oid,
                limit: None,
            }
        );

        let p = classify(&shape(
            "index",
            "SELECT t.oid, t.title FROM paper t ORDER BY t.oid LIMIT 10",
        ));
        assert_eq!(
            p.strategy,
            Strategy::RowSet {
                filters: vec![],
                order: RowOrder::Oid,
                limit: Some(10),
            }
        );
    }

    #[test]
    fn recognizer_rejects_unmaintainable_shapes() {
        let reason = |kind: &str, sql: &str| match classify(&shape(kind, sql)).strategy {
            Strategy::Fallback { reason } => reason,
            other => panic!("expected fallback, got {other:?}"),
        };
        assert_eq!(
            reason(
                "index",
                "SELECT t.oid, j0.name FROM paper t INNER JOIN author j0 ON t.author_oid = j0.oid"
            ),
            "join"
        );
        assert_eq!(
            reason("index", "SELECT t.oid FROM paper t WHERE t.title LIKE :q"),
            "like-predicate"
        );
        assert_eq!(
            reason(
                "scroller",
                "SELECT t.oid FROM paper t ORDER BY t.oid LIMIT :block_limit OFFSET :block_offset"
            ),
            "block-window"
        );
        assert_eq!(
            reason("data", "SELECT t.oid, t.title FROM paper t"),
            "single-scan"
        );
        assert_eq!(
            reason("hierarchy", "SELECT t.oid FROM paper t"),
            "hierarchy"
        );
        assert_eq!(
            reason("index", "SELECT t.oid FROM paper t WHERE t.n > :x"),
            "non-equality"
        );
    }

    #[test]
    fn query_scope_names_the_table_and_a_pure_probe() {
        assert_eq!(
            query_scope("SELECT t.oid, t.title FROM paper t WHERE t.oid = :item"),
            Some(("paper".to_string(), Some("item".to_string())))
        );
        assert_eq!(
            query_scope("SELECT t.oid FROM paper t WHERE t.issue_oid = :issue"),
            Some(("paper".to_string(), None))
        );
        assert_eq!(query_scope("SELECT 1"), None);
    }

    #[test]
    fn fingerprint_round_trips() {
        let m = parse_fingerprint("a=x&b=2&");
        assert_eq!(m.get("a").map(String::as_str), Some("x"));
        assert_eq!(m.get("b").map(String::as_str), Some("2"));
        assert!(parse_fingerprint("").is_empty());
    }

    // -- the empty plan: the maintainer as the row-granular invalidator --

    struct NeverPatches;

    impl Patcher<String> for NeverPatches {
        fn apply(
            &self,
            _: &UnitPlan,
            _: &BTreeMap<String, String>,
            _: &mut Arc<String>,
            _: &RowDelta<'_>,
        ) -> PatchOutcome {
            unreachable!("an empty plan never consults the patcher")
        }
    }

    /// Whole-entity index beans over `book` and `author`, plus one
    /// row-scoped data bean for each of book 1 and book 2, all computed
    /// at `lsn`.
    fn warm_cache_at(lsn: u64) -> Arc<BeanCache<String>> {
        let cache = Arc::new(BeanCache::new(16));
        for (unit, entity) in [("BookIndex", "book"), ("AuthorIndex", "author")] {
            put(&cache, BeanKey::new(unit, "-"), lsn, &[entity.into()], &[]);
        }
        for oid in [1, 2] {
            let key = BeanKey::new("BookData", format!("item={oid}&"));
            put(&cache, key, lsn, &[], &[("book".into(), oid)]);
        }
        cache
    }

    fn put(c: &BeanCache<String>, key: BeanKey, lsn: u64, e: &[String], rows: &[(String, i64)]) {
        let from = Provenance {
            lsn,
            entities: e,
            rows,
        };
        c.put(key, "rows".into(), from, None);
    }

    fn warm_cache() -> Arc<BeanCache<String>> {
        warm_cache_at(0)
    }

    fn maintainer(
        cache: &Arc<BeanCache<String>>,
        plan: MaintenancePlan,
        catalog: TableCatalog,
    ) -> LogDrivenMaintainer<String> {
        LogDrivenMaintainer::new(
            Arc::clone(cache.versions()),
            plan,
            catalog,
            Arc::new(MaintCounters::new()),
        )
        .with_beans(Arc::clone(cache), Arc::new(NeverPatches))
    }

    fn drop_only(
        cache: &Arc<BeanCache<String>>,
        catalog: TableCatalog,
    ) -> LogDrivenMaintainer<String> {
        maintainer(cache, MaintenancePlan::default(), catalog)
    }

    fn cached(cache: &BeanCache<String>) -> Vec<String> {
        let mut keys = cache.keys_for_row("book", 1);
        keys.extend(cache.keys_for_row("book", 2));
        keys.extend(cache.keys_for_row("author", 0));
        keys.sort();
        keys.dedup();
        keys.iter()
            .map(|k| format!("{}?{}", k.unit, k.params))
            .collect()
    }

    fn book_update(oid: i64) -> ChangeRecord {
        ChangeRecord::Update {
            table: "book".into(),
            row_id: 0,
            row: vec![Value::Integer(oid), Value::Text("WebML 2e".into())],
        }
    }

    #[test]
    fn empty_plan_drops_the_changed_rows_dependents_only() {
        let cache = warm_cache();
        let mut catalog = TableCatalog::new();
        catalog.add("book", vec!["oid".into(), "t".into()]);
        let maint = drop_only(&cache, catalog);
        maint.apply(5, &[book_update(1), book_update(1)]);
        // the written row's bean and the whole-entity index are gone; the
        // unrelated row and the unrelated entity survive
        assert_eq!(cached(&cache), ["AuthorIndex?-", "BookData?item=2&"]);
        // each bean dropped once, despite two changes
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(maint.counters().fallback_counts(), [("no-plan".into(), 2)]);
        // the versions move to the batch's LSN, row-precisely
        let v = cache.versions();
        assert_eq!(
            (v.entity("book"), v.row("book", 1), v.row("book", 2)),
            (5, 5, 0)
        );
        assert_eq!((v.entity("author"), v.settled()), (0, 5));
    }

    /// A bean computed at the batch's LSN or later already shows the
    /// batch: neither a drop-only nor a patching plan touches it.
    #[test]
    fn beans_computed_at_the_batch_are_passed_by() {
        let cache = warm_cache_at(7);
        // an older bean, which the batch does make stale
        put(
            &cache,
            BeanKey::new("BookIndex", "old"),
            6,
            &["book".into()],
            &[],
        );
        let mut catalog = TableCatalog::new();
        catalog.add("book", vec!["oid".into(), "t".into()]);
        // `BookData` has a key-probe plan; `NeverPatches` panics if asked
        let plan = MaintenancePlan::build(&[UnitShape {
            unit_id: "BookData".into(),
            unit_kind: "data".into(),
            entity_table: Some("book".into()),
            sql: "SELECT t.oid, t.t FROM book t WHERE t.oid = :item".into(),
            depends_on: vec!["book".into()],
            cached: true,
            ..UnitShape::default()
        }]);
        let maint = maintainer(&cache, plan, catalog);
        maint.apply(7, &[book_update(1)]);
        let kept = [
            "AuthorIndex?-",
            "BookData?item=1&",
            "BookData?item=2&",
            "BookIndex?-",
        ];
        assert_eq!(cached(&cache), kept);
        assert_eq!(maint.counters().fallback_counts(), [("no-plan".into(), 1)]);
        assert_eq!(maint.counters().patches_applied.get(), 0);
    }

    #[test]
    fn unresolvable_oid_falls_back_to_the_whole_entity() {
        let cache = warm_cache();
        // a catalog that does not know `book` cannot name the row
        let maint = drop_only(&cache, TableCatalog::new());
        maint.apply(1, &[book_update(1)]);
        assert_eq!(cached(&cache), ["AuthorIndex?-"]);
        assert_eq!(maint.counters().fallback_counts(), [("no-oid".into(), 1)]);
    }

    #[test]
    fn only_durable_batches_reach_the_cache() {
        use relstore::{CommitSink, Params};
        use wal::{TempDir, Wal, WalConfig};

        let dir = TempDir::new("maint-durable").unwrap();
        let mut cfg = WalConfig::new(dir.path());
        cfg.group_commit_window = std::time::Duration::from_secs(3600); // manual flush
        let wal = Wal::open(cfg, Arc::new(obs::WalCounters::new())).unwrap();
        let db = Database::new();
        db.set_commit_sink(Arc::clone(&wal) as Arc<dyn CommitSink>, false);
        db.execute_script("CREATE TABLE book (oid INTEGER PRIMARY KEY AUTOINCREMENT, t TEXT)")
            .unwrap();
        wal.flush_and_notify();
        let cache = warm_cache();
        let maint = drop_only(&cache, TableCatalog::from_database(&db));
        wal.replay_from(wal.durable_lsn(), Arc::new(maint)).unwrap();
        let insert = || {
            db.execute("INSERT INTO book (t) VALUES ('WebML')", &Params::new())
                .unwrap()
        };

        insert();
        // committed but not yet durable → the cache is untouched
        assert_eq!(cached(&cache).len(), 4);
        wal.flush_and_notify();
        // durable → the dependents of book 1, the inserted row, are gone
        assert_eq!(cached(&cache), ["AuthorIndex?-", "BookData?item=2&"]);
        // a batch lost before its flush never drops anything
        insert();
        wal.simulate_crash();
        wal.flush_and_notify();
        assert_eq!(cached(&cache).len(), 2);
        wal.stop();
    }

    /// A commit does no fragment work: `apply` leaves a warm fragment
    /// cache's entries and counters as they were. The fragment over the
    /// written row is found stale when it is next read; a sibling row's
    /// probe fragment still hits.
    #[test]
    fn apply_leaves_fragments_to_be_checked_when_read() {
        use crate::fragment::{FragmentCache, FragmentKey, Lookup};
        use std::time::Duration;

        let cache = warm_cache();
        let fragments = FragmentCache::with_stats(
            16,
            Duration::from_secs(3600),
            crate::CacheStats::default(),
            Arc::clone(cache.versions()),
        );
        let key = |oid: i64| FragmentKey::new("book.jsp", "BookData", format!("item={oid}&"));
        let row = |oid: i64| [("book".to_string(), oid)];
        for oid in [1, 2] {
            let from = Provenance {
                lsn: 0,
                entities: &[],
                rows: &row(oid),
            };
            fragments
                .put(key(oid), format!("<p>{oid}</p>"), from)
                .unwrap();
        }
        let before = fragments.stats();
        let mut catalog = TableCatalog::new();
        catalog.add("book", vec!["oid".into(), "t".into()]);
        drop_only(&cache, catalog).apply(5, &[book_update(1)]);
        assert_eq!(fragments.len(), 2);
        assert_eq!(fragments.stats(), before);
        assert!(matches!(
            fragments.get(&key(1), &[], &row(1)),
            Lookup::Stale
        ));
        let sibling = fragments.get(&key(2), &[], &row(2)).hit();
        assert_eq!(sibling.as_deref(), Some(&b"<p>2</p>"[..]));
    }

    #[test]
    fn catalog_extracts_oid_deltas() {
        let mut cat = TableCatalog::new();
        cat.add("paper", vec!["oid".into(), "title".into()]);
        let c = ChangeRecord::Update {
            table: "paper".into(),
            row_id: 3,
            row: vec![Value::Integer(41), Value::Text("CIDR".into())],
        };
        let d = cat.delta(&c).unwrap();
        assert_eq!(d.oid, 41);
        assert_eq!(d.op, DeltaOp::Update);
        assert_eq!(d.get("title"), Some(&Value::Text("CIDR".into())));
        assert_eq!(d.get("TITLE"), Some(&Value::Text("CIDR".into())));
        assert_eq!(d.get("missing"), None);
        // unknown table → None → caller falls back
        let c2 = ChangeRecord::Insert {
            table: "nope".into(),
            row_id: 0,
            row: vec![],
        };
        assert!(cat.delta(&c2).is_none());
    }
}
