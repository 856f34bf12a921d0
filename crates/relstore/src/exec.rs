//! SELECT execution. Every statement runs one pipeline:
//!
//! 1. **access** — the base table's row ids, from an index probe, a walk of
//!    a secondary index in `ORDER BY` order, or a full scan;
//! 2. **join** — each join extends the id combos (index probe, hash join or
//!    scan) and keeps those its `ON` condition accepts;
//! 3. **filter** — the residual `WHERE`;
//! 4. **order ids** — a sort (or a bounded Top-K heap) over the combos,
//!    comparing keys read in place from the stored rows; only real
//!    expressions are evaluated into a key buffer;
//! 5. **window** — `OFFSET`/`LIMIT` cut the ordered ids;
//! 6. **project** — output rows are built for the surviving ids only, and a
//!    stored text cell is shared, not copied.
//!
//! `DISTINCT` and grouped statements project before the window, because
//! which rows survive depends on the projected values.

use crate::error::{Error, Result};
use crate::expr::{contains_aggregate, eval, is_aggregate, Binding, EvalCtx, Params};
use crate::result::ResultSet;
use crate::sql::ast::*;
use crate::storage::Storage;
use crate::table::{Index, Row, RowId, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The join product so far, flattened: `width` row ids per combo, one per
/// source joined so far (`None` on the null-extended side of a LEFT JOIN).
struct Combos {
    ids: Vec<Option<RowId>>,
    width: usize,
}

impl Combos {
    fn len(&self) -> usize {
        self.ids.len() / self.width
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn get(&self, i: usize) -> &[Option<RowId>] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Option<RowId>> {
        self.ids.chunks_exact(self.width)
    }

    /// Keep the combos `keep` accepts, in order, compacting in place.
    fn retain(&mut self, mut keep: impl FnMut(&[Option<RowId>]) -> Result<bool>) -> Result<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.get(i))? {
                self.ids.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.ids.truncate(kept * w);
        Ok(())
    }
}

struct Source<'a> {
    binding: String,
    table: &'a Table,
}

/// Executor work statistics for one SELECT: how the planner answered each
/// table access, and how many candidate rows it examined doing so. These
/// are the figures behind the `db_*` planner counters in the observability
/// registry — they measure work done, not rows returned.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelectStats {
    /// Candidate rows examined: base-scan/probe results, hash-build
    /// passes, and join candidates fed to the ON filter.
    pub scanned: u64,
    /// Accesses answered through a PK or secondary index probe (one per
    /// probed prefix combo on joins, one per query on the base table).
    pub index_probes: u64,
    /// Joins executed with a build/probe hash table instead of the
    /// nested-loop scan fallback.
    pub hash_joins: u64,
    /// ORDER BY + LIMIT orderings answered by the bounded Top-K heap
    /// instead of a full sort.
    pub topk_shortcuts: u64,
    /// ORDER BY statements whose base table was walked in the order of a
    /// secondary index on exactly the ORDER BY columns, instead of scanned
    /// and sorted.
    pub index_orders: u64,
    /// Table accesses that fell back to a full scan (no usable index, no
    /// hashable equi-conjunct, no index order).
    pub scan_fallbacks: u64,
}

impl SelectStats {
    /// Fold another query's stats into this accumulator.
    pub fn absorb(&mut self, other: &SelectStats) {
        self.scanned += other.scanned;
        self.index_probes += other.index_probes;
        self.hash_joins += other.hash_joins;
        self.topk_shortcuts += other.topk_shortcuts;
        self.index_orders += other.index_orders;
        self.scan_fallbacks += other.scan_fallbacks;
    }
}

/// Execute a SELECT and report executor statistics (rows scanned,
/// access-path choices, Top-K shortcuts, index orders) into `stats`.
pub fn run_select_with_stats(
    storage: &Storage,
    sel: &Select,
    params: &Params,
    stats: &mut SelectStats,
) -> Result<ResultSet> {
    let Some(from) = &sel.from else {
        return select_without_from(sel, params);
    };
    let mut sources: Vec<Source<'_>> = Vec::with_capacity(1 + from.joins.len());
    sources.push(Source {
        binding: from.base.binding().to_string(),
        table: storage.require_table(&from.base.table)?,
    });
    for j in &from.joins {
        sources.push(Source {
            binding: j.table.binding().to_string(),
            table: storage.require_table(&j.table.table)?,
        });
    }
    let q = Query {
        sel,
        sources: &sources,
        params,
        window: Window::of(sel, params)?,
    };
    let items = expand_items(sel, &sources)?;
    let names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let grouped = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));
    let plan = (!grouped).then(|| PlainPlan::new(sel, &items, &names, &sources));

    // 1. access
    let where_conjuncts = sel
        .where_clause
        .as_ref()
        .map(|w| conjuncts(w))
        .unwrap_or_default();
    let ordering = plan
        .as_ref()
        .and_then(|p| p.ordering_index(sources[0].table, &sel.order_by));
    let (ids, index_ordered) = base_access(&sources[0], &where_conjuncts, ordering, params, stats)?;
    stats.scanned += ids.len() as u64;
    let mut combos = Combos { ids, width: 1 };

    // 2. join, left to right
    let mut bindings = Vec::with_capacity(sources.len());
    for (j, join) in from.joins.iter().enumerate() {
        if combos.is_empty() {
            // inner and left joins both preserve emptiness
            break;
        }
        combos = q.join(j, join, &combos, &mut bindings, stats)?;
    }

    // 3. filter
    if let Some(w) = &sel.where_clause {
        combos.retain(|combo| {
            bind(&mut bindings, &sources, combo);
            let ctx = EvalCtx {
                bindings: &bindings,
                params,
            };
            Ok(eval(w, &ctx)?.is_truthy())
        })?;
    }

    // 4–6. order, window, project
    match plan {
        Some(plan) => q.plain(names, &plan, &combos, index_ordered, &mut bindings, stats),
        None => q.grouped(names, &items, &combos, stats),
    }
}

/// `SELECT` without `FROM`: a single constant row.
fn select_without_from(sel: &Select, params: &Params) -> Result<ResultSet> {
    let bindings: [Binding<'_>; 0] = [];
    let ctx = EvalCtx {
        bindings: &bindings,
        params,
    };
    let mut names = Vec::new();
    let mut row = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| format!("col{}", i + 1)));
                row.push(eval(expr, &ctx)?);
            }
            _ => return Err(Error::Unsupported("wildcard without FROM".into())),
        }
    }
    Ok(ResultSet::new(names, vec![row]))
}

/// `OFFSET` and `LIMIT`: row-independent, so evaluated once, up front.
#[derive(Clone, Copy)]
struct Window {
    offset: usize,
    limit: Option<usize>,
}

impl Window {
    fn of(sel: &Select, params: &Params) -> Result<Window> {
        let empty: [Binding<'_>; 0] = [];
        let ctx = EvalCtx {
            bindings: &empty,
            params,
        };
        Ok(Window {
            offset: match &sel.offset {
                Some(e) => eval_usize(e, &ctx, "OFFSET")?,
                None => 0,
            },
            limit: match &sel.limit {
                Some(e) => Some(eval_usize(e, &ctx, "LIMIT")?),
                None => None,
            },
        })
    }

    /// How many leading rows in order can reach the window (the Top-K
    /// bound); `None` without a LIMIT.
    fn end(self) -> Option<usize> {
        self.limit.map(|l| l.saturating_add(self.offset))
    }

    /// The window's positions among `n` ordered rows.
    fn range(self, n: usize) -> Range<usize> {
        let start = self.offset.min(n);
        start..self.end().map_or(n, |e| e.min(n))
    }

    /// Cut ordered rows to the window.
    fn cut(self, mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let r = self.range(rows.len());
        rows.truncate(r.end);
        rows.drain(..r.start);
        rows
    }
}

/// One statement's sources, parameters and window, shared by its
/// pipeline steps.
struct Query<'a> {
    sel: &'a Select,
    sources: &'a [Source<'a>],
    params: &'a Params,
    window: Window,
}

impl<'a> Query<'a> {
    /// Extend every combo by the rows of join `j` its ON condition accepts.
    /// One access path serves the whole prefix set: index nested-loop when
    /// a covering index exists, a build/probe hash table for plain
    /// equi-conjuncts, and one shared scan id-list otherwise.
    fn join(
        &self,
        j: usize,
        join: &'a Join,
        combos: &Combos,
        bindings: &mut Vec<Binding<'a>>,
        stats: &mut SelectStats,
    ) -> Result<Combos> {
        let cur = &self.sources[j + 1];
        let prev = &self.sources[..j + 1];
        let on_conjuncts = conjuncts(&join.on);
        let prev_names: Vec<&str> = prev.iter().map(|s| s.binding.as_str()).collect();
        let probes = extract_probes(cur, &on_conjuncts, &prev_names);
        let probe_cols: Vec<usize> = probes.iter().map(|(c, _)| *c).collect();
        let step = JoinStep {
            on: &join.on,
            left: join.kind == JoinKind::Left,
            sources: &self.sources[..j + 2],
            params: self.params,
        };
        let mut next = Combos {
            ids: Vec::with_capacity(combos.ids.len() + combos.len()),
            width: combos.width + 1,
        };
        if !probes.is_empty() && has_covering_index(cur.table, &probe_cols) {
            let mut key = Vec::with_capacity(probes.len());
            for combo in combos.iter() {
                bind(bindings, prev, combo);
                let ctx = EvalCtx {
                    bindings,
                    params: self.params,
                };
                stats.index_probes += 1;
                let cands =
                    try_index_probe(cur.table, &probes, &ctx, &mut key)?.unwrap_or_default();
                step.extend(&mut next, combo, cands, bindings, &mut stats.scanned)?;
            }
        } else if !probes.is_empty() {
            stats.hash_joins += 1;
            let lists = hash_join_candidates(
                cur,
                &probes,
                prev,
                combos,
                self.params,
                bindings,
                &mut stats.scanned,
            )?;
            for (combo, cands) in combos.iter().zip(&lists) {
                step.extend(&mut next, combo, cands, bindings, &mut stats.scanned)?;
            }
        } else {
            stats.scan_fallbacks += 1;
            let ids: Vec<RowId> = cur.table.iter().map(|(id, _)| id).collect();
            for combo in combos.iter() {
                step.extend(&mut next, combo, &ids, bindings, &mut stats.scanned)?;
            }
        }
        Ok(next)
    }

    /// Steps 4–6 of an ungrouped statement: order the combo ids, cut them
    /// to the window, project the survivors. `index_ordered` says access
    /// already produced them in ORDER BY order.
    fn plain(
        &self,
        names: Vec<String>,
        plan: &PlainPlan<'_>,
        combos: &Combos,
        index_ordered: bool,
        bindings: &mut Vec<Binding<'a>>,
        stats: &mut SelectStats,
    ) -> Result<ResultSet> {
        let n = combos.len();
        let order: Vec<usize> = if index_ordered {
            (0..n).collect()
        } else {
            let computed = self.computed_keys(plan, combos, bindings)?;
            let (computed, stride, keys, sources) = (
                &computed[..],
                plan.computed.len(),
                &plan.keys[..],
                self.sources,
            );
            let key = move |i: usize, k: usize| match keys[k] {
                SortKey::Slot(s, c) => slot(sources, combos.get(i), s, c),
                SortKey::Computed(at) => &computed[i * stride + at],
            };
            self.order_positions(n, key, stats)
        };
        if self.sel.distinct {
            let rows = dedupe(self.project(&plan.fetches, combos, &order, bindings)?);
            let matched = rows.len();
            return Ok(ResultSet::windowed(names, self.window.cut(rows), matched));
        }
        let picks = &order[self.window.range(order.len())];
        if picks.is_empty() && n > 0 {
            self.check_references(&plan.fetches, bindings)?;
        }
        let rows = self.project(&plan.fetches, combos, picks, bindings)?;
        Ok(ResultSet::windowed(names, rows, n))
    }

    /// Steps 4–6 of a grouped statement: project one row per group, then
    /// order, dedupe and window those rows.
    fn grouped(
        &self,
        names: Vec<String>,
        items: &[(String, Cow<'_, Expr>)],
        combos: &Combos,
        stats: &mut SelectStats,
    ) -> Result<ResultSet> {
        let (mut rows, computed) = self.project_grouped(items, &names, combos)?;
        let n = rows.len();
        let (computed, stride) = (&computed[..], self.sel.order_by.len());
        let order = self.order_positions(n, move |i, k| &computed[i * stride + k], stats);
        let mut rows: Vec<Vec<Value>> = order
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect();
        let matched = if self.sel.distinct {
            rows = dedupe(rows);
            rows.len()
        } else {
            n
        };
        Ok(ResultSet::windowed(names, self.window.cut(rows), matched))
    }

    /// Positions `0..n` in ORDER BY order, `key(i, k)` being row `i`'s
    /// `k`-th key, ties in position order — exactly a stable sort. Without
    /// DISTINCT (which dedupes after ordering, so needs every row) only
    /// the rows the window can reach are wanted, and when those are fewer
    /// than `n` a bounded heap selects them.
    fn order_positions<'v>(
        &self,
        n: usize,
        key: impl Fn(usize, usize) -> &'v Value,
        stats: &mut SelectStats,
    ) -> Vec<usize> {
        let order_by = &self.sel.order_by;
        if order_by.is_empty() {
            return (0..n).collect();
        }
        let cmp = |a: usize, b: usize| -> Ordering {
            for (k, item) in order_by.iter().enumerate() {
                let ord = key(a, k).total_cmp(key(b, k));
                let ord = if item.ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        };
        match self.window.end() {
            Some(k) if k < n && !self.sel.distinct => {
                stats.topk_shortcuts += 1;
                top_k_indices(n, k, &cmp)
            }
            _ => {
                let mut idx: Vec<usize> = (0..n).collect();
                // the position tie-break makes the order total: unstable is exact
                idx.sort_unstable_by(|&a, &b| cmp(a, b));
                idx
            }
        }
    }

    /// The key buffer: `plan.computed.len()` values per combo, for the
    /// ORDER BY keys that are not stored columns.
    fn computed_keys(
        &self,
        plan: &PlainPlan<'_>,
        combos: &Combos,
        bindings: &mut Vec<Binding<'a>>,
    ) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(combos.len() * plan.computed.len());
        if plan.computed.is_empty() {
            return Ok(out);
        }
        for combo in combos.iter() {
            bind(bindings, self.sources, combo);
            let ctx = EvalCtx {
                bindings,
                params: self.params,
            };
            for k in &plan.computed {
                out.push(match *k {
                    Computed::Eval(e) => eval(e, &ctx)?,
                    Computed::BadOrdinal(i) => {
                        return Err(Error::Eval(format!("ORDER BY ordinal {i} out of range")))
                    }
                });
            }
        }
        Ok(out)
    }

    /// Output rows for the combos at `picks`, in that order. A stored
    /// cell is cloned, which for text is a reference-count bump.
    fn project(
        &self,
        fetches: &[Fetch<'_>],
        combos: &Combos,
        picks: &[usize],
        bindings: &mut Vec<Binding<'a>>,
    ) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::with_capacity(picks.len());
        for &i in picks {
            let combo = combos.get(i);
            bind(bindings, self.sources, combo);
            let ctx = EvalCtx {
                bindings,
                params: self.params,
            };
            let mut row = Vec::with_capacity(fetches.len());
            for f in fetches {
                row.push(match *f {
                    Fetch::Slot(s, c) => slot(self.sources, combo, s, c).clone(),
                    Fetch::Eval(e) => eval(e, &ctx)?,
                });
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Raise the error that projecting any row would raise for a name the
    /// select list references — an unknown or ambiguous column, a missing
    /// parameter — without evaluating a row. A statement whose window cut
    /// every row of a non-empty result reports it like one that projected.
    fn check_references(
        &self,
        fetches: &[Fetch<'_>],
        bindings: &mut Vec<Binding<'a>>,
    ) -> Result<()> {
        bind(bindings, self.sources, &vec![None; self.sources.len()]);
        let ctx = EvalCtx {
            bindings,
            params: self.params,
        };
        for f in fetches {
            let Fetch::Eval(e) = f else { continue };
            let mut found = Ok(());
            e.walk(&mut |n| {
                if found.is_ok() {
                    found = match n {
                        Expr::Column { table, name } => {
                            ctx.column(table.as_deref(), name).map(drop)
                        }
                        Expr::Param(i) => ctx.params.get_positional(*i).map(drop),
                        Expr::NamedParam(p) => ctx.params.get_named(p).map(drop),
                        _ => Ok(()),
                    };
                }
            });
            found?;
        }
        Ok(())
    }

    /// One output row per group (HAVING applied), plus its ORDER BY keys:
    /// `order_by.len()` values per row.
    fn project_grouped(
        &self,
        items: &[(String, Cow<'_, Expr>)],
        names: &[String],
        combos: &Combos,
    ) -> Result<(Vec<Vec<Value>>, Vec<Value>)> {
        let (sel, sources, params) = (self.sel, self.sources, self.params);
        let mut bindings = Vec::with_capacity(sources.len());
        // Partition combos into groups by the GROUP BY key (implicit single
        // group when GROUP BY is absent but aggregates are present).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if sel.group_by.is_empty() {
            groups.push((0..combos.len()).collect());
        } else {
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for (i, combo) in combos.iter().enumerate() {
                bind(&mut bindings, sources, combo);
                let ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                let key = sel
                    .group_by
                    .iter()
                    .map(|e| eval(e, &ctx))
                    .collect::<Result<Vec<_>>>()?;
                match index.get(&key) {
                    Some(&g) => groups[g].push(i),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![i]);
                    }
                }
            }
        }

        // every key of a group is computed: aggregates are rewritten first
        let mut rows = Vec::with_capacity(groups.len());
        let mut computed = Vec::with_capacity(groups.len() * sel.order_by.len());
        for group in &groups {
            let rewrite = |e: &Expr| rewrite_aggregates(e, sources, combos, group, params);
            // the group's first row binds its non-aggregate columns (an
            // implicit group over empty input binds none)
            match group.first() {
                Some(&i) => bind(&mut bindings, sources, combos.get(i)),
                None => bindings.clear(),
            }
            let ctx = EvalCtx {
                bindings: &bindings,
                params,
            };
            if let Some(h) = &sel.having {
                if !eval(&rewrite(h)?, &ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut row = Vec::with_capacity(items.len());
            for (_, e) in items {
                row.push(eval(&rewrite(e)?, &ctx)?);
            }
            for o in &sel.order_by {
                computed.push(order_key(&rewrite(&o.expr)?, names, &row, &ctx)?);
            }
            rows.push(row);
        }
        Ok((rows, computed))
    }
}

/// The ON condition of one join, applied to candidate rows.
struct JoinStep<'a> {
    on: &'a Expr,
    left: bool,
    /// The sources joined through this one.
    sources: &'a [Source<'a>],
    params: &'a Params,
}

impl<'a> JoinStep<'a> {
    /// Append `combo` extended by each candidate the ON condition accepts,
    /// or by a NULL row when a LEFT JOIN accepts none.
    fn extend(
        &self,
        next: &mut Combos,
        combo: &[Option<RowId>],
        cands: &[RowId],
        bindings: &mut Vec<Binding<'a>>,
        scanned: &mut u64,
    ) -> Result<()> {
        *scanned += cands.len() as u64;
        let mut matched = false;
        for &cand in cands {
            let start = next.ids.len();
            next.ids.extend_from_slice(combo);
            next.ids.push(Some(cand));
            bind(bindings, self.sources, &next.ids[start..]);
            let ctx = EvalCtx {
                bindings,
                params: self.params,
            };
            if eval(self.on, &ctx)?.is_truthy() {
                matched = true;
            } else {
                next.ids.truncate(start);
            }
        }
        if !matched && self.left {
            next.ids.extend_from_slice(combo);
            next.ids.push(None);
        }
        Ok(())
    }
}

/// Indices of the `k` smallest rows under `cmp`, in sorted order, selected
/// with a bounded binary max-heap (`O(n log k)` instead of `O(n log n)`).
/// `cmp` must be a total order (the caller ties on the original index), so
/// the result equals `sort-then-truncate` exactly.
fn top_k_indices(n: usize, k: usize, cmp: &dyn Fn(usize, usize) -> Ordering) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    // max-heap: the root is the worst row currently kept
    let mut heap: Vec<usize> = Vec::with_capacity(k);
    for i in 0..n {
        if heap.len() < k {
            heap.push(i);
            let mut c = heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if cmp(heap[c], heap[p]) == Ordering::Greater {
                    heap.swap(c, p);
                    c = p;
                } else {
                    break;
                }
            }
        } else if cmp(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < heap.len() && cmp(heap[l], heap[m]) == Ordering::Greater {
                    m = l;
                }
                if r < heap.len() && cmp(heap[r], heap[m]) == Ordering::Greater {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    heap.sort_by(|&a, &b| cmp(a, b));
    heap
}

/// DISTINCT over ordered rows: the first occurrence wins.
fn dedupe(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let first: Vec<bool> = {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
        rows.iter().map(|r| seen.insert(r)).collect()
    };
    let mut first = first.into_iter();
    rows.retain(|_| first.next().unwrap_or(false));
    rows
}

fn eval_usize(e: &Expr, ctx: &EvalCtx<'_>, what: &str) -> Result<usize> {
    match eval(e, ctx)? {
        Value::Integer(i) if i >= 0 => Ok(i as usize),
        other => Err(Error::Eval(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Point `out` at the rows of one combo, reusing its allocation.
fn bind<'a>(out: &mut Vec<Binding<'a>>, sources: &'a [Source<'a>], combo: &[Option<RowId>]) {
    out.clear();
    out.extend(sources.iter().zip(combo).map(|(s, id)| Binding {
        name: &s.binding,
        schema: &s.table.schema,
        row: id.and_then(|id| s.table.get(id)),
    }));
}

static NULL: Value = Value::Null;

/// The stored value of column `c` of source `s` in one combo (NULL on the
/// null-extended side of a LEFT JOIN), borrowed from the table.
fn slot<'a>(sources: &[Source<'a>], combo: &[Option<RowId>], s: usize, c: usize) -> &'a Value {
    match combo[s].and_then(|id| sources[s].table.get(id)) {
        Some(row) => &row[c],
        None => &NULL,
    }
}

/// Split an expression into AND-ed conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Does `e` reference any column of the given binding set?
fn references_binding(e: &Expr, names: &[&str]) -> bool {
    let mut hit = false;
    e.walk(&mut |n| {
        if let Expr::Column { table, name: _ } = n {
            match table {
                Some(t) => {
                    if names.iter().any(|b| b.eq_ignore_ascii_case(t)) {
                        hit = true;
                    }
                }
                // unqualified columns could belong to anything: be
                // conservative and treat them as referencing the binding
                None => hit = true,
            }
        }
    });
    hit
}

/// From conjuncts, extract equality probes `cur.col = <expr independent of
/// cur>` usable for an index lookup on `cur`.
fn extract_probes<'e>(
    cur: &Source<'_>,
    conjs: &[&'e Expr],
    other_names: &[&str],
) -> Vec<(usize, &'e Expr)> {
    let mut probes = Vec::new();
    for c in conjs {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { table, name } = col_side.as_ref() else {
                continue;
            };
            // the column must belong to `cur`
            let belongs = match table {
                Some(t) => t.eq_ignore_ascii_case(&cur.binding),
                None => cur.table.schema.column_index(name).is_some() && !other_names.is_empty(),
            };
            if !belongs {
                continue;
            }
            let Some(col_idx) = cur.table.schema.column_index(name) else {
                continue;
            };
            // the value side must not reference `cur`
            if references_binding(val_side, &[&cur.binding]) {
                continue;
            }
            // if the value side has unqualified columns they must be
            // resolvable from the other bindings — `references_binding`
            // above is conservative, so double-check for pure literals and
            // params when there are no other bindings
            if other_names.is_empty() && references_binding(val_side, &[]) {
                continue;
            }
            probes.push((col_idx, val_side.as_ref()));
            break;
        }
    }
    probes
}

/// Would [`try_index_probe`] find a usable index for equality probes on
/// exactly these columns? (PK fully bound, or a secondary index whose
/// every column is bound.)
fn has_covering_index(table: &Table, probe_cols: &[usize]) -> bool {
    let pk = &table.schema.primary_key;
    if !pk.is_empty() && pk.iter().all(|c| probe_cols.contains(c)) {
        return true;
    }
    table
        .indexes()
        .iter()
        .any(|ix| ix.columns.iter().all(|c| probe_cols.contains(c)))
}

/// Hash equi-join between the prefix combos and `cur`: one pass over the
/// table, one key evaluation per combo, candidates grouped per combo. The
/// build side is the smaller of the two inputs; either direction produces
/// candidate lists in table-scan order, so results are identical to the
/// nested-loop fallback. Keys are coerced to the joined column types
/// (mirroring [`try_index_probe`]); NULL or uncoercible keys never match,
/// like `=` under SQL three-valued logic. Over-inclusive matches are
/// filtered by the caller's full ON evaluation.
fn hash_join_candidates<'a>(
    cur: &Source<'_>,
    probes: &[(usize, &Expr)],
    prev_sources: &'a [Source<'a>],
    combos: &Combos,
    params: &Params,
    bindings: &mut Vec<Binding<'a>>,
    scanned: &mut u64,
) -> Result<Vec<Vec<RowId>>> {
    let col_types: Vec<DataType> = probes
        .iter()
        .map(|(c, _)| cur.table.schema.columns[*c].data_type)
        .collect();
    // Probe key for one prefix combo; None ⇒ can never match.
    let mut combo_key = |combo: &[Option<RowId>]| -> Result<Option<Vec<Value>>> {
        bind(bindings, prev_sources, combo);
        let ctx = EvalCtx { bindings, params };
        let mut key = Vec::with_capacity(probes.len());
        for ((_, e), ty) in probes.iter().zip(&col_types) {
            let v = eval(e, &ctx)?;
            if v.is_null() {
                return Ok(None);
            }
            match v.coerce(*ty) {
                Ok(cv) => key.push(cv),
                // a key that cannot coerce to the column type can never
                // equal a stored value of that type
                Err(_) => return Ok(None),
            }
        }
        Ok(Some(key))
    };
    // Build key for one stored row; None ⇒ holds a NULL join column.
    let row_key = |row: &Row| -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(probes.len());
        for (c, _) in probes {
            let v = &row[*c];
            if v.is_null() {
                return None;
            }
            key.push(v.clone());
        }
        Some(key)
    };
    // Either direction makes exactly one pass over the table.
    *scanned += cur.table.len() as u64;
    let mut out: Vec<Vec<RowId>> = vec![Vec::new(); combos.len()];
    if combos.len() < cur.table.len() {
        // build over the smaller prefix side, stream the table past it
        let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(combos.len());
        for (i, combo) in combos.iter().enumerate() {
            if let Some(key) = combo_key(combo)? {
                by_key.entry(key).or_default().push(i);
            }
        }
        for (id, row) in cur.table.iter() {
            if let Some(key) = row_key(row) {
                if let Some(targets) = by_key.get(&key) {
                    for &i in targets {
                        out[i].push(id);
                    }
                }
            }
        }
    } else {
        // build over the table, probe once per prefix combo
        let mut by_key: HashMap<Vec<Value>, Vec<RowId>> =
            HashMap::with_capacity(cur.table.len().min(1024));
        for (id, row) in cur.table.iter() {
            if let Some(key) = row_key(row) {
                by_key.entry(key).or_default().push(id);
            }
        }
        for (i, combo) in combos.iter().enumerate() {
            if let Some(key) = combo_key(combo)? {
                if let Some(ids) = by_key.get(&key) {
                    out[i] = ids.clone();
                }
            }
        }
    }
    Ok(out)
}

/// The base table's row ids, and whether they come in ORDER BY order: an
/// index probe when WHERE binds an index, else a walk of `ordering` (the
/// index on exactly the ORDER BY columns, and their direction) when there
/// is one, else a full scan in slot order.
fn base_access(
    base: &Source<'_>,
    where_conjuncts: &[&Expr],
    ordering: Option<(&Index, bool)>,
    params: &Params,
    stats: &mut SelectStats,
) -> Result<(Vec<Option<RowId>>, bool)> {
    // for the base table, unqualified columns in WHERE do belong to it when
    // it is the only source; extract_probes handles qualification, so try
    // both qualified and unqualified forms here
    let mut probes = Vec::new();
    for c in where_conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { table, name } = col_side.as_ref() else {
                continue;
            };
            let belongs = match table {
                Some(t) => t.eq_ignore_ascii_case(&base.binding),
                None => base.table.schema.column_index(name).is_some(),
            };
            if !belongs {
                continue;
            }
            let Some(col_idx) = base.table.schema.column_index(name) else {
                continue;
            };
            // value side must be row-independent: literals/params/functions
            if references_any_column(val_side) {
                continue;
            }
            probes.push((col_idx, val_side.as_ref()));
            break;
        }
    }
    if !probes.is_empty() {
        let bindings: [Binding<'_>; 0] = [];
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        if let Some(ids) = try_index_probe(base.table, &probes, &ctx, &mut Vec::new())? {
            stats.index_probes += 1;
            return Ok((ids.iter().map(|&id| Some(id)).collect(), false));
        }
    }
    let mut ids = Vec::with_capacity(base.table.len());
    match ordering {
        Some((ix, ascending)) => {
            stats.index_orders += 1;
            let mut walk = |bucket: &[RowId]| ids.extend(bucket.iter().map(|&id| Some(id)));
            if ascending {
                ix.buckets().for_each(&mut walk);
            } else {
                ix.buckets().rev().for_each(&mut walk);
            }
        }
        None => {
            stats.scan_fallbacks += 1;
            ids.extend(base.table.iter().map(|(id, _)| Some(id)));
        }
    }
    Ok((ids, ordering.is_some()))
}

fn references_any_column(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |n| {
        if matches!(n, Expr::Column { .. }) {
            hit = true;
        }
    });
    hit
}

/// Attempt a PK or secondary-index probe with the extracted equalities,
/// building the key in `key` (a buffer reused across probes). Returns
/// `None` when no usable index exists.
fn try_index_probe<'t>(
    table: &'t Table,
    probes: &[(usize, &Expr)],
    ctx: &EvalCtx<'_>,
    key: &mut Vec<Value>,
) -> Result<Option<&'t [RowId]>> {
    let mut fill = |columns: &[usize]| -> Result<()> {
        key.clear();
        for c in columns {
            let (_, e) = probes
                .iter()
                .find(|(p, _)| p == c)
                .expect("column is probed");
            key.push(eval(e, ctx)?.coerce(table.schema.columns[*c].data_type)?);
        }
        Ok(())
    };
    let bound = |columns: &[usize]| columns.iter().all(|c| probes.iter().any(|(p, _)| p == c));
    // primary key: all PK columns must be bound
    let pk = &table.schema.primary_key;
    if !pk.is_empty() && bound(pk) {
        fill(pk)?;
        return Ok(Some(table.lookup_pk(key)));
    }
    // secondary index: one whose every column is bound
    if let Some(ix) = table.indexes().iter().find(|ix| bound(&ix.columns)) {
        fill(&ix.columns)?;
        return Ok(Some(ix.lookup(key)));
    }
    Ok(None)
}

// ---- projection ---------------------------------------------------------

/// Expand wildcards into concrete output column names + expressions.
fn expand_items<'e>(
    sel: &'e Select,
    sources: &[Source<'_>],
) -> Result<Vec<(String, Cow<'e, Expr>)>> {
    let mut out = Vec::new();
    let columns_of = |s: &Source<'_>, out: &mut Vec<(String, Cow<'e, Expr>)>| {
        for c in &s.table.schema.columns {
            out.push((
                c.name.clone(),
                Cow::Owned(Expr::Column {
                    table: Some(s.binding.clone()),
                    name: c.name.clone(),
                }),
            ));
        }
    };
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for s in sources {
                    columns_of(s, &mut out);
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let s = sources
                    .iter()
                    .find(|s| s.binding.eq_ignore_ascii_case(t))
                    .ok_or_else(|| Error::UnknownTable(t.clone()))?;
                columns_of(s, &mut out);
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                out.push((name, Cow::Borrowed(expr)));
            }
        }
    }
    Ok(out)
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_lowercase(),
        _ => "expr".to_string(),
    }
}

/// Resolve an ORDER BY expression of a grouped statement to a key value,
/// honouring select-list aliases and 1-based ordinals.
fn order_key(item: &Expr, names: &[String], out_row: &[Value], ctx: &EvalCtx<'_>) -> Result<Value> {
    match item {
        Expr::Literal(Value::Integer(i)) => {
            let idx = *i as usize;
            if idx >= 1 && idx <= out_row.len() {
                Ok(out_row[idx - 1].clone())
            } else {
                Err(Error::Eval(format!("ORDER BY ordinal {i} out of range")))
            }
        }
        Expr::Column { table: None, name } => {
            if let Some(pos) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                Ok(out_row[pos].clone())
            } else {
                eval(item, ctx)
            }
        }
        _ => eval(item, ctx),
    }
}

/// How an ungrouped statement reads its output values and its ORDER BY
/// keys, resolved once per statement.
struct PlainPlan<'e> {
    /// One per output column.
    fetches: Vec<Fetch<'e>>,
    /// One per ORDER BY item.
    keys: Vec<SortKey>,
    /// The keys evaluated into the key buffer, `computed.len()` per row.
    computed: Vec<Computed<'e>>,
}

impl<'e> PlainPlan<'e> {
    /// Resolve every output column and ORDER BY key: an alias or ordinal
    /// names an output column (the rule of [`order_key`]); a stored column
    /// is read in place; anything else is evaluated per row.
    fn new(
        sel: &'e Select,
        items: &'e [(String, Cow<'e, Expr>)],
        names: &[String],
        sources: &[Source<'_>],
    ) -> PlainPlan<'e> {
        let fetches: Vec<Fetch<'e>> = items.iter().map(|(_, e)| fetch_of(e, sources)).collect();
        let mut keys = Vec::with_capacity(sel.order_by.len());
        let mut computed = Vec::new();
        for o in &sel.order_by {
            let named = match &o.expr {
                Expr::Literal(Value::Integer(i)) => Some(
                    usize::try_from(*i)
                        .ok()
                        .filter(|&i| i >= 1 && i <= names.len())
                        .map(|i| i - 1)
                        .ok_or(*i),
                ),
                Expr::Column { table: None, name } => names
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(name))
                    .map(Ok),
                _ => None,
            };
            let key = match named {
                Some(Ok(pos)) => fetches[pos],
                Some(Err(ordinal)) => {
                    computed.push(Computed::BadOrdinal(ordinal));
                    keys.push(SortKey::Computed(computed.len() - 1));
                    continue;
                }
                None => fetch_of(&o.expr, sources),
            };
            keys.push(match key {
                Fetch::Slot(s, c) => SortKey::Slot(s, c),
                Fetch::Eval(e) => {
                    computed.push(Computed::Eval(e));
                    SortKey::Computed(computed.len() - 1)
                }
            });
        }
        PlainPlan {
            fetches,
            keys,
            computed,
        }
    }

    /// The secondary index of the base table whose columns are exactly the
    /// ORDER BY columns, all keys running in one direction (returned
    /// beside it). Walking it visits the base rows in the order the sort
    /// would put them: NULLs first, and each key's slots ascending — the
    /// stable sort's tie-break.
    fn ordering_index<'t>(
        &self,
        base: &'t Table,
        order_by: &[OrderItem],
    ) -> Option<(&'t Index, bool)> {
        let ascending = order_by.first()?.ascending;
        if order_by.iter().any(|o| o.ascending != ascending) {
            return None;
        }
        let on_keys = |ix: &&Index| {
            ix.columns.len() == self.keys.len()
                && ix
                    .columns
                    .iter()
                    .zip(&self.keys)
                    .all(|(&c, k)| matches!(*k, SortKey::Slot(0, kc) if kc == c))
        };
        base.indexes()
            .iter()
            .find(on_keys)
            .map(|ix| (ix, ascending))
    }
}

/// Where a row's ORDER BY key is read from.
#[derive(Clone, Copy)]
enum SortKey {
    /// A stored column `(source, column)`: compared in place.
    Slot(usize, usize),
    /// The row's key buffer, at this offset.
    Computed(usize),
}

/// How a key-buffer entry is computed.
#[derive(Clone, Copy)]
enum Computed<'e> {
    Eval(&'e Expr),
    /// An ordinal that names no output column: an error on any row.
    BadOrdinal(i64),
}

/// Where one projected value comes from, decided once per statement.
#[derive(Clone, Copy)]
enum Fetch<'e> {
    /// A plain column of one source: read from the stored row.
    Slot(usize, usize),
    /// A real expression (or a reference that does not resolve, so the
    /// per-row evaluation reports the same error it always did).
    Eval(&'e Expr),
}

/// Resolve a column reference to its `(source, column)` slot exactly as
/// [`EvalCtx::column`] would; `None` when that lookup would fail.
fn resolve_column(
    sources: &[Source<'_>],
    table: Option<&str>,
    name: &str,
) -> Option<(usize, usize)> {
    match table {
        Some(t) => {
            let s = sources
                .iter()
                .position(|s| s.binding.eq_ignore_ascii_case(t))?;
            Some((s, sources[s].table.schema.column_index(name)?))
        }
        None => {
            let mut found = None;
            for (s, src) in sources.iter().enumerate() {
                if let Some(c) = src.table.schema.column_index(name) {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some((s, c));
                }
            }
            found
        }
    }
}

fn fetch_of<'e>(e: &'e Expr, sources: &[Source<'_>]) -> Fetch<'e> {
    match e {
        Expr::Column { table, name } => match resolve_column(sources, table.as_deref(), name) {
            Some((s, c)) => Fetch::Slot(s, c),
            None => Fetch::Eval(e),
        },
        _ => Fetch::Eval(e),
    }
}

/// Replace every aggregate call in `e` with its value over `group` (combo
/// positions).
fn rewrite_aggregates(
    e: &Expr,
    sources: &[Source<'_>],
    combos: &Combos,
    group: &[usize],
    params: &Params,
) -> Result<Expr> {
    let rec = |e: &Expr| rewrite_aggregates(e, sources, combos, group, params);
    Ok(match e {
        Expr::Function { name, args, star } if is_aggregate(name) => Expr::Literal(
            compute_aggregate(name, args, *star, sources, combos, group, params)?,
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rec(expr)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rec(left)?),
            op: *op,
            right: Box::new(rec(right)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rec(expr)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rec(expr)?),
            pattern: Box::new(rec(pattern)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rec(expr)?),
            list: list.iter().map(rec).collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(rec(expr)?),
            lo: Box::new(rec(lo)?),
            hi: Box::new(rec(hi)?),
            negated: *negated,
        },
        Expr::Function { name, args, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(rec).collect::<Result<Vec<_>>>()?,
            star: *star,
        },
        other => other.clone(),
    })
}

fn compute_aggregate(
    name: &str,
    args: &[Expr],
    star: bool,
    sources: &[Source<'_>],
    combos: &Combos,
    group: &[usize],
    params: &Params,
) -> Result<Value> {
    if name == "COUNT" && star {
        return Ok(Value::Integer(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| Error::Eval(format!("{name} requires an argument")))?;
    let mut vals: Vec<Value> = Vec::with_capacity(group.len());
    let mut bindings = Vec::with_capacity(sources.len());
    for &i in group {
        bind(&mut bindings, sources, combos.get(i));
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        let v = eval(arg, &ctx)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    match name {
        "COUNT" => Ok(Value::Integer(vals.len() as i64)),
        "MIN" => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
        "MAX" => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
        "SUM" | "AVG" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = vals.iter().all(|v| matches!(v, Value::Integer(_)));
            let n = vals.len() as f64;
            let sum: f64 = vals
                .iter()
                .map(|v| match v {
                    Value::Integer(i) => Ok(*i as f64),
                    Value::Real(r) => Ok(*r),
                    other => Err(Error::Eval(format!("{name} of non-number {other:?}"))),
                })
                .collect::<Result<Vec<f64>>>()?
                .iter()
                .sum();
            if name == "SUM" {
                if all_int {
                    Ok(Value::Integer(sum as i64))
                } else {
                    Ok(Value::Real(sum))
                }
            } else {
                Ok(Value::Real(sum / n))
            }
        }
        other => Err(Error::Unsupported(format!("aggregate {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use crate::alloc_counter::allocations_during;
    use crate::{Database, Params, Value};

    /// `rows` items with two text columns, names in a scrambled order.
    fn items(rows: usize, name_index: bool) -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, \
             note TEXT, price REAL);",
        )
        .unwrap();
        if name_index {
            db.execute_script("CREATE INDEX ix_item_name ON item (name);")
                .unwrap();
        }
        for i in 0..rows {
            db.execute(
                "INSERT INTO item (name, note, price) VALUES (:n, :d, :p)",
                &Params::new()
                    .bind("n", format!("Item {:04}", (i * 37) % rows))
                    .bind("d", format!("note {i}"))
                    .bind("p", i as f64 / 4.0),
            )
            .unwrap();
        }
        db
    }

    /// A single-table `SELECT … ORDER BY name` allocates one output row
    /// per returned row: sort keys are compared in place, text cells are
    /// shared, and there is no per-row combo, binding or key vector —
    /// whether the rows are sorted or walked in index order.
    #[test]
    fn ordered_scan_allocates_one_output_row_per_returned_row() {
        const ROWS: usize = 100;
        for name_index in [false, true] {
            let db = items(ROWS, name_index);
            let sql = "SELECT t.oid, t.name, t.note, t.price FROM item t ORDER BY name";
            let params = Params::new();
            // warm-up outside the measured window: parse + plan cache
            let warm = db.query(sql, &params).unwrap();
            let (allocs, rs) = allocations_during(|| db.query(sql, &params).unwrap());
            assert_eq!(rs, warm);
            assert_eq!(rs.len(), ROWS);
            assert_eq!(rs.get(0, "name"), Some(&Value::Text("Item 0000".into())));
            assert_eq!(rs.get(99, "name"), Some(&Value::Text("Item 0099".into())));
            let bound = ROWS + 64;
            assert!(
                allocs <= bound,
                "{allocs} allocations for {ROWS} rows (bound {bound}, index {name_index}): \
                 per-row combos, bindings, sort-key or text copies are back"
            );
        }
    }

    /// `ORDER BY … LIMIT 10 OFFSET 20` projects the 10 rows it returns and
    /// nothing else, however large the table.
    #[test]
    fn ordered_window_allocates_for_its_window_only() {
        for rows in [100, 1_000] {
            for name_index in [false, true] {
                let db = items(rows, name_index);
                let sql = "SELECT t.oid, t.name, t.note FROM item t ORDER BY t.name \
                           LIMIT 10 OFFSET 20";
                let params = Params::new();
                let warm = db.query(sql, &params).unwrap();
                let (allocs, rs) = allocations_during(|| db.query(sql, &params).unwrap());
                assert_eq!(rs, warm);
                assert_eq!((rs.len(), rs.matched()), (10, rows));
                assert_eq!(rs.get(0, "name"), Some(&Value::Text("Item 0020".into())));
                let bound = 10 + 64;
                assert!(
                    allocs <= bound,
                    "{allocs} allocations for a 10-row window of {rows} rows (bound {bound}, \
                     index {name_index}): rows outside the window are projected again"
                );
            }
        }
    }
}
