//! SELECT execution: scans, index probes, hash joins, grouping, ordering
//! with Top-K pushdown.

use crate::error::{Error, Result};
use crate::expr::{contains_aggregate, eval, is_aggregate, Binding, EvalCtx, Params};
use crate::result::ResultSet;
use crate::sql::ast::*;
use crate::storage::Storage;
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// One position in the join product: a row id per table binding (None for
/// the null-extended side of a LEFT JOIN).
type Combo = Vec<Option<RowId>>;

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
    /// Table accesses that fell back to a full scan (no usable index, no
    /// hashable equi-conjunct).
    pub scan_fallbacks: u64,
}

impl SelectStats {
    /// Fold another query's stats into this accumulator.
    pub fn absorb(&mut self, other: &SelectStats) {
        self.scanned += other.scanned;
        self.index_probes += other.index_probes;
        self.hash_joins += other.hash_joins;
        self.topk_shortcuts += other.topk_shortcuts;
        self.scan_fallbacks += other.scan_fallbacks;
    }
}

/// Execute a SELECT and report executor statistics (rows scanned,
/// access-path choices, Top-K shortcuts) into `stats`.
pub fn run_select_with_stats(
    storage: &Storage,
    sel: &Select,
    params: &Params,
    stats: &mut SelectStats,
) -> Result<ResultSet> {
    // SELECT without FROM: a single constant row.
    let Some(from) = &sel.from else {
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
        return Ok(ResultSet::new(names, vec![row]));
    };

    // Resolve sources.
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

    // Split WHERE into conjuncts for pushdown.
    let where_conjuncts = sel
        .where_clause
        .as_ref()
        .map(|w| conjuncts(w))
        .unwrap_or_default();

    // Base scan: try an index probe from WHERE conjuncts that bind base
    // columns to row-independent expressions.
    let base_ids = probe_or_scan(&sources[0], &where_conjuncts, params, stats)?;
    stats.scanned += base_ids.len() as u64;

    // Build the join product left to right. Per join, pick one access
    // path for the whole prefix set: index nested-loop when a covering
    // index exists, a build/probe hash table for plain equi-conjuncts,
    // and a single hoisted scan id-list otherwise (shared across combos
    // instead of re-collected per prefix).
    let mut combos: Vec<Combo> = base_ids.into_iter().map(|id| vec![Some(id)]).collect();
    for (jpos, join) in from.joins.iter().enumerate() {
        if combos.is_empty() {
            // inner and left joins both preserve emptiness
            break;
        }
        let cur = &sources[jpos + 1];
        let prev_sources = &sources[..jpos + 1];
        let on_conjuncts = conjuncts(&join.on);
        let prev_names: Vec<&str> = prev_sources.iter().map(|s| s.binding.as_str()).collect();
        let probes = extract_probes(cur, &on_conjuncts, &prev_names);
        let probe_cols: Vec<usize> = probes.iter().map(|(c, _)| *c).collect();

        enum JoinPlan {
            /// One candidate list per prefix combo (index probe / hash join).
            PerCombo(Vec<Vec<RowId>>),
            /// One shared candidate list (full-scan fallback).
            Scan(Vec<RowId>),
        }

        let plan = if !probes.is_empty() && has_covering_index(cur.table, &probe_cols) {
            let mut lists = Vec::with_capacity(combos.len());
            for combo in &combos {
                let bindings = make_bindings(prev_sources, combo);
                let ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                stats.index_probes += 1;
                lists.push(try_index_probe(cur.table, &probes, &ctx)?.unwrap_or_default());
            }
            JoinPlan::PerCombo(lists)
        } else if !probes.is_empty() {
            stats.hash_joins += 1;
            JoinPlan::PerCombo(hash_join_candidates(
                cur,
                &probes,
                prev_sources,
                &combos,
                params,
                &mut stats.scanned,
            )?)
        } else {
            stats.scan_fallbacks += 1;
            JoinPlan::Scan(cur.table.iter().map(|(id, _)| id).collect())
        };

        let mut next: Vec<Combo> = Vec::new();
        let sources_through = &sources[..jpos + 2];
        let mut extend = |combo: &Combo, cands: &[RowId]| -> Result<()> {
            stats.scanned += cands.len() as u64;
            let mut matched = false;
            for &cand in cands {
                let mut extended = combo.clone();
                extended.push(Some(cand));
                let ok = {
                    let bindings = make_bindings(sources_through, &extended);
                    let ctx = EvalCtx {
                        bindings: &bindings,
                        params,
                    };
                    eval(&join.on, &ctx)?.is_truthy()
                };
                if ok {
                    matched = true;
                    next.push(extended);
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let mut extended = combo.clone();
                extended.push(None);
                next.push(extended);
            }
            Ok(())
        };
        match plan {
            JoinPlan::PerCombo(lists) => {
                for (combo, cands) in combos.iter().zip(&lists) {
                    extend(combo, cands)?;
                }
            }
            JoinPlan::Scan(ids) => {
                for combo in &combos {
                    extend(combo, &ids)?;
                }
            }
        }
        combos = next;
    }

    // Residual WHERE filter.
    if let Some(w) = &sel.where_clause {
        let mut filtered = Vec::with_capacity(combos.len());
        for combo in combos {
            let keep = {
                let bindings = make_bindings(&sources, &combo);
                let ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                eval(w, &ctx)?.is_truthy()
            };
            if keep {
                filtered.push(combo);
            }
        }
        combos = filtered;
    }

    let grouped = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));

    let Projection {
        names,
        rows: mut out_rows,
        keys,
        computed,
        stride,
    } = if grouped {
        project_grouped(sel, &sources, combos, params)?
    } else {
        project_plain(sel, &sources, &combos, params)?
    };

    // LIMIT / OFFSET are row-independent, so evaluate them up front: when
    // ORDER BY is present they bound the Top-K heap below.
    let empty: [Binding<'_>; 0] = [];
    let const_ctx = EvalCtx {
        bindings: &empty,
        params,
    };
    let offset = match &sel.offset {
        Some(e) => eval_usize(e, &const_ctx, "OFFSET")?,
        None => 0,
    };
    let limit = match &sel.limit {
        Some(e) => Some(eval_usize(e, &const_ctx, "LIMIT")?),
        None => None,
    };

    // Comparator shared by the full sort and the Top-K heap: the ORDER BY
    // spec first, then the original row position — which makes the heap
    // selection exactly equivalent to a stable sort followed by a slice.
    // Keys that name an output column are compared where they stand.
    let key = |row: usize, k: usize| -> &Value {
        match keys[k] {
            SortKey::Output(pos) => &out_rows[row][pos],
            SortKey::Computed(at) => &computed[row * stride + at],
        }
    };
    let cmp_rows = |a: usize, b: usize| -> std::cmp::Ordering {
        for (k, item) in sel.order_by.iter().enumerate() {
            let ord = key(a, k).total_cmp(key(b, k));
            let ord = if item.ascending { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    };

    // Top-K pushdown: with ORDER BY + a constant LIMIT (and no DISTINCT,
    // which dedupes *after* ordering here), only the first
    // `offset + limit` rows in sort order can survive — select them with
    // a bounded heap, O(n log k), instead of sorting everything.
    if !sel.order_by.is_empty() && !sel.distinct {
        if let Some(l) = limit {
            let k = l.saturating_add(offset);
            if k < out_rows.len() {
                stats.topk_shortcuts += 1;
                let top = top_k_indices(out_rows.len(), k, &cmp_rows);
                let mut selected: Vec<Vec<Value>> = top
                    .into_iter()
                    .map(|i| std::mem::take(&mut out_rows[i]))
                    .collect();
                selected.drain(..offset.min(selected.len()));
                return Ok(ResultSet::new(names, selected));
            }
        }
    }

    // ORDER BY using the precomputed keys (full, stable sort).
    if !sel.order_by.is_empty() {
        let mut idx: Vec<usize> = (0..out_rows.len()).collect();
        idx.sort_by(|&a, &b| cmp_rows(a, b));
        let mut reordered = Vec::with_capacity(out_rows.len());
        for i in idx {
            reordered.push(std::mem::take(&mut out_rows[i]));
        }
        out_rows = reordered;
    }

    // DISTINCT: first occurrence wins, decided on borrowed rows.
    if sel.distinct {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(out_rows.len());
        let first: Vec<bool> = out_rows.iter().map(|r| seen.insert(r)).collect();
        let mut first = first.into_iter();
        out_rows.retain(|_| first.next().unwrap_or(false));
    }

    // LIMIT / OFFSET.
    if offset > 0 {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(l) = limit {
        out_rows.truncate(l);
    }

    Ok(ResultSet::new(names, out_rows))
}

/// Indices of the `k` smallest rows under `cmp`, in sorted order, selected
/// with a bounded binary max-heap (`O(n log k)` instead of `O(n log n)`).
/// `cmp` must be a total order (the caller ties on the original index), so
/// the result equals `sort-then-truncate` exactly.
fn top_k_indices(
    n: usize,
    k: usize,
    cmp: &dyn Fn(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    use std::cmp::Ordering;
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

fn eval_usize(e: &Expr, ctx: &EvalCtx<'_>, what: &str) -> Result<usize> {
    match eval(e, ctx)? {
        Value::Integer(i) if i >= 0 => Ok(i as usize),
        other => Err(Error::Eval(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn make_bindings<'a>(sources: &'a [Source<'a>], combo: &'a Combo) -> Vec<Binding<'a>> {
    sources
        .iter()
        .zip(combo.iter())
        .map(|(s, id)| Binding {
            name: &s.binding,
            schema: &s.table.schema,
            row: id.and_then(|id| s.table.get(id)),
        })
        .collect()
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
fn hash_join_candidates(
    cur: &Source<'_>,
    probes: &[(usize, &Expr)],
    prev_sources: &[Source<'_>],
    combos: &[Combo],
    params: &Params,
    scanned: &mut u64,
) -> Result<Vec<Vec<RowId>>> {
    let col_types: Vec<DataType> = probes
        .iter()
        .map(|(c, _)| cur.table.schema.columns[*c].data_type)
        .collect();
    // Probe key for one prefix combo; None ⇒ can never match.
    let combo_key = |combo: &Combo| -> Result<Option<Vec<Value>>> {
        let bindings = make_bindings(prev_sources, combo);
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
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

/// Base-table scan with optional WHERE-driven probe (no previous bindings).
fn probe_or_scan(
    base: &Source<'_>,
    where_conjuncts: &[&Expr],
    params: &Params,
    stats: &mut SelectStats,
) -> Result<Vec<RowId>> {
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
        if let Some(ids) = try_index_probe(base.table, &probes, &ctx)? {
            stats.index_probes += 1;
            return Ok(ids);
        }
    }
    stats.scan_fallbacks += 1;
    Ok(base.table.iter().map(|(id, _)| id).collect())
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

/// Attempt a PK or secondary-index probe with the extracted equalities.
/// Returns `None` when no usable index exists.
fn try_index_probe(
    table: &Table,
    probes: &[(usize, &Expr)],
    ctx: &EvalCtx<'_>,
) -> Result<Option<Vec<RowId>>> {
    // primary key: all PK columns must be bound
    let pk = &table.schema.primary_key;
    if !pk.is_empty() && pk.iter().all(|c| probes.iter().any(|(p, _)| p == c)) {
        let mut key = Vec::with_capacity(pk.len());
        for c in pk {
            let (_, e) = probes.iter().find(|(p, _)| p == c).unwrap();
            let col_type = table.schema.columns[*c].data_type;
            key.push(eval(e, ctx)?.coerce(col_type)?);
        }
        return Ok(Some(
            table
                .get_by_pk(&key)
                .map(|(id, _)| id)
                .into_iter()
                .collect(),
        ));
    }
    // secondary index: find one whose full prefix is covered
    for ix in table.indexes() {
        let covered: Vec<&(usize, &Expr)> = ix
            .columns
            .iter()
            .map_while(|c| probes.iter().find(|(p, _)| p == c))
            .collect();
        if covered.len() == ix.columns.len() {
            let mut key = Vec::with_capacity(covered.len());
            for (c, e) in &covered {
                let col_type = table.schema.columns[*c].data_type;
                key.push(eval(e, ctx)?.coerce(col_type)?);
            }
            return Ok(Some(ix.lookup(&key).to_vec()));
        }
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

/// Resolve an ORDER BY expression to a key value, honouring select-list
/// aliases and 1-based ordinals.
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

/// Projected rows, plus where each row's ORDER BY keys live.
struct Projection {
    names: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// One entry per ORDER BY item.
    keys: Vec<SortKey>,
    /// The keys not read from the output row: `stride` values per row.
    computed: Vec<Value>,
    stride: usize,
}

/// Where an ORDER BY key of a row is found.
#[derive(Clone, Copy)]
enum SortKey {
    /// In the output row, at this position (alias, ordinal, or the
    /// projected column itself): compared in place.
    Output(usize),
    /// In the row's block of [`Projection::computed`], at this offset.
    Computed(usize),
}

/// Where one projected value or computed sort key comes from, decided
/// once per statement.
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

/// The value of a slot in one join combo (NULL on the null-extended side
/// of a LEFT JOIN).
fn read_slot(sources: &[Source<'_>], combo: &Combo, s: usize, c: usize) -> Value {
    combo[s]
        .and_then(|id| sources[s].table.get(id))
        .map_or(Value::Null, |row| row[c].clone())
}

fn project_plain(
    sel: &Select,
    sources: &[Source<'_>],
    combos: &[Combo],
    params: &Params,
) -> Result<Projection> {
    let items = expand_items(sel, sources)?;
    let names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let fetches: Vec<Fetch<'_>> = items.iter().map(|(_, e)| fetch_of(e, sources)).collect();

    // Resolve every ORDER BY key once: output positions first (the alias
    // and ordinal rules of `order_key`), then the projected column itself.
    let mut keys = Vec::with_capacity(sel.order_by.len());
    let mut key_fetches = Vec::new();
    for o in &sel.order_by {
        let pos = match &o.expr {
            Expr::Literal(Value::Integer(i)) => usize::try_from(*i)
                .ok()
                .filter(|&i| i >= 1 && i <= names.len())
                .map(|i| i - 1),
            Expr::Column { table: None, name } => {
                names.iter().position(|n| n.eq_ignore_ascii_case(name))
            }
            _ => None,
        };
        let fetch = fetch_of(&o.expr, sources);
        let pos = pos.or_else(|| match fetch {
            Fetch::Slot(s, c) => fetches
                .iter()
                .position(|f| matches!(*f, Fetch::Slot(fs, fc) if fs == s && fc == c)),
            Fetch::Eval(_) => None,
        });
        keys.push(match pos {
            Some(p) => SortKey::Output(p),
            None => {
                key_fetches.push(fetch);
                SortKey::Computed(key_fetches.len() - 1)
            }
        });
    }
    let needs_bindings = fetches
        .iter()
        .chain(&key_fetches)
        .any(|f| matches!(f, Fetch::Eval(_)));

    let stride = key_fetches.len();
    let mut rows = Vec::with_capacity(combos.len());
    let mut computed = Vec::with_capacity(combos.len() * stride);
    for combo in combos {
        let bindings = if needs_bindings {
            make_bindings(sources, combo)
        } else {
            Vec::new()
        };
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        let mut row = Vec::with_capacity(fetches.len());
        for f in &fetches {
            row.push(match f {
                Fetch::Slot(s, c) => read_slot(sources, combo, *s, *c),
                Fetch::Eval(e) => eval(e, &ctx)?,
            });
        }
        for f in &key_fetches {
            computed.push(match f {
                Fetch::Slot(s, c) => read_slot(sources, combo, *s, *c),
                Fetch::Eval(e) => order_key(e, &names, &row, &ctx)?,
            });
        }
        rows.push(row);
    }
    Ok(Projection {
        names,
        rows,
        keys,
        computed,
        stride,
    })
}

/// Replace every aggregate call in `e` with its value over `group`.
fn rewrite_aggregates(
    e: &Expr,
    sources: &[Source<'_>],
    group: &[Combo],
    params: &Params,
) -> Result<Expr> {
    Ok(match e {
        Expr::Function { name, args, star } if is_aggregate(name) => Expr::Literal(
            compute_aggregate(name, args, *star, sources, group, params)?,
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_aggregates(expr, sources, group, params)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_aggregates(left, sources, group, params)?),
            op: *op,
            right: Box::new(rewrite_aggregates(right, sources, group, params)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_aggregates(expr, sources, group, params)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_aggregates(expr, sources, group, params)?),
            pattern: Box::new(rewrite_aggregates(pattern, sources, group, params)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggregates(expr, sources, group, params)?),
            list: list
                .iter()
                .map(|i| rewrite_aggregates(i, sources, group, params))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggregates(expr, sources, group, params)?),
            lo: Box::new(rewrite_aggregates(lo, sources, group, params)?),
            hi: Box::new(rewrite_aggregates(hi, sources, group, params)?),
            negated: *negated,
        },
        Expr::Function { name, args, star } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_aggregates(a, sources, group, params))
                .collect::<Result<Vec<_>>>()?,
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
    group: &[Combo],
    params: &Params,
) -> Result<Value> {
    if name == "COUNT" && star {
        return Ok(Value::Integer(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| Error::Eval(format!("{name} requires an argument")))?;
    let mut vals: Vec<Value> = Vec::with_capacity(group.len());
    for combo in group {
        let bindings = make_bindings(sources, combo);
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

fn project_grouped(
    sel: &Select,
    sources: &[Source<'_>],
    combos: Vec<Combo>,
    params: &Params,
) -> Result<Projection> {
    let items = expand_items(sel, sources)?;
    let names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();

    // Partition combos into groups by the GROUP BY key (implicit single
    // group when GROUP BY is absent but aggregates are present).
    let mut groups: Vec<(Vec<Value>, Vec<Combo>)> = Vec::new();
    if sel.group_by.is_empty() {
        groups.push((Vec::new(), combos));
    } else {
        let mut index: std::collections::HashMap<Vec<Value>, usize> =
            std::collections::HashMap::new();
        for combo in combos {
            let key = {
                let bindings = make_bindings(sources, &combo);
                let ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                sel.group_by
                    .iter()
                    .map(|e| eval(e, &ctx))
                    .collect::<Result<Vec<_>>>()?
            };
            match index.get(&key) {
                Some(&i) => groups[i].1.push(combo),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![combo]));
                }
            }
        }
    }

    // every key of a group is computed: aggregates are rewritten first
    let stride = sel.order_by.len();
    let mut rows = Vec::with_capacity(groups.len());
    let mut computed = Vec::with_capacity(groups.len() * stride);
    for (_, group) in &groups {
        if group.is_empty() {
            // implicit group over empty input: aggregates still produce a row
            if !sel.group_by.is_empty() {
                continue;
            }
        }
        // HAVING
        if let Some(h) = &sel.having {
            let rewritten = rewrite_aggregates(h, sources, group, params)?;
            let keep = {
                let first = group.first();
                let bindings = first.map(|c| make_bindings(sources, c)).unwrap_or_default();
                let ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                eval(&rewritten, &ctx)?.is_truthy()
            };
            if !keep {
                continue;
            }
        }
        let first = group.first();
        let bindings = first.map(|c| make_bindings(sources, c)).unwrap_or_default();
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        let mut row = Vec::with_capacity(items.len());
        for (_, e) in &items {
            let rewritten = rewrite_aggregates(e, sources, group, params)?;
            row.push(eval(&rewritten, &ctx)?);
        }
        for o in &sel.order_by {
            let rewritten = rewrite_aggregates(&o.expr, sources, group, params)?;
            computed.push(order_key(&rewritten, &names, &row, &ctx)?);
        }
        rows.push(row);
    }
    Ok(Projection {
        names,
        rows,
        keys: (0..stride).map(SortKey::Computed).collect(),
        computed,
        stride,
    })
}

#[cfg(test)]
mod tests {
    use crate::alloc_counter::allocations_during;
    use crate::{Database, Params, Value};

    /// A single-table `SELECT … ORDER BY name` copies each cell once. Per
    /// row it allocates the join combo, the output row and one clone per
    /// text cell — no per-row bindings, no key vector, no key clone.
    #[test]
    fn ordered_scan_allocates_only_combo_row_and_text_cells_per_row() {
        const ROWS: usize = 100;
        const TEXT_COLUMNS: usize = 2;
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, \
             note TEXT, price REAL);",
        )
        .unwrap();
        for i in 0..ROWS {
            db.execute(
                "INSERT INTO item (name, note, price) VALUES (:n, :d, :p)",
                &Params::new()
                    .bind("n", format!("Item {:03}", (i * 37) % ROWS))
                    .bind("d", format!("note {i}"))
                    .bind("p", i as f64 / 4.0),
            )
            .unwrap();
        }
        let sql = "SELECT t.oid, t.name, t.note, t.price FROM item t ORDER BY name";
        let params = Params::new();
        // warm-up outside the measured window: parse + plan cache
        let warm = db.query(sql, &params).unwrap();
        let (allocs, rs) = allocations_during(|| db.query(sql, &params).unwrap());
        assert_eq!(rs, warm);
        assert_eq!(rs.len(), ROWS);
        assert_eq!(rs.get(0, "name"), Some(&Value::Text("Item 000".into())));
        assert_eq!(rs.get(99, "name"), Some(&Value::Text("Item 099".into())));
        let bound = ROWS * (2 + TEXT_COLUMNS) + 64;
        assert!(
            allocs <= bound,
            "{allocs} allocations for {ROWS} rows (bound {bound}): \
             per-row bindings or sort-key copies are back"
        );
    }
}
