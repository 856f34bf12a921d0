//! Passes 6–7 — distribution safety under read replicas.
//!
//! Log-shipping replicas reintroduced failure classes the model-level
//! analyzer could not see: post-operation reads served replica-side
//! without a read-your-writes floor, and write-write contention between
//! operations of one site view. Both are *derivable from the models plus
//! the replica count*, so they belong in the deploy gate, not in
//! production logs. Both passes run only when `replicas ≥ 1`:
//!
//! * **Pass 6 — read-your-writes coverage** (`AZ404`/`AZ405`): the
//!   router's session floor only covers requests that carry a session. A
//!   page whose descriptor drops its site view's protection is served to
//!   sessionless clients — if such a page sits on an operation's OK/KO
//!   chain and reads the operation's write-set, the user who just wrote
//!   can be routed to a replica that has not applied the write (`AZ404`
//!   error); pages only transitively reachable from the chain get the
//!   advisory form (`AZ405`).
//! * **Pass 7 — conflict hotspots** (`AZ406`): two non-create operations
//!   reachable from the same site view that update the same table race on
//!   a non-disjoint key space. Every write holds the storage write lock, so
//!   neither request fails: the later commit silently overwrites the
//!   earlier one (last-writer-wins — a lost update).

use crate::diag::{Diagnostic, AZ404, AZ405, AZ406};
use crate::ir::{EdgeKind, NavIr, NodeKind};
use codegen::{operation_id, page_id, QueryGen};
use descriptors::DescriptorSet;
use er::{ErModel, RelationalMapping};
use std::collections::{BTreeSet, HashMap, VecDeque};
use webml::{HypertextModel, OperationKind};

/// Run the distribution passes for a deploy with `replicas` read
/// replicas; a single store (`replicas == 0`) has nothing to check.
pub fn check(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    set: &DescriptorSet,
    ir: &NavIr,
    replicas: usize,
) -> Vec<Diagnostic> {
    if replicas == 0 {
        return Vec::new();
    }
    let mut out = ryw_coverage(er, mapping, ht, set, ir);
    out.extend(conflict_hotspots(er, mapping, ht, set, ir));
    out
}

/// Pass 6: pages on (or reachable from) an operation's OK/KO chains that
/// read the operation's write-set must keep the session floor — a page
/// whose descriptor drops its site view's protection is served to
/// sessionless clients and can read a replica that lags the write.
fn ryw_coverage(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    set: &DescriptorSet,
    ir: &NavIr,
) -> Vec<Diagnostic> {
    let qg = QueryGen::new(er, mapping);
    let mut out = Vec::new();

    // per page node: tables its units read (recomputed from the model,
    // like the invalidation pass — the descriptor's claim is under test)
    let mut reads: HashMap<usize, BTreeSet<String>> = HashMap::new();
    for (_uid, unit) in ht.units() {
        let Some(node) = ir.node_by_id(&page_id(unit.page)) else {
            continue;
        };
        reads.entry(node).or_default().extend(
            qg.unit_dependencies(unit)
                .into_iter()
                .map(|t| t.to_lowercase()),
        );
    }

    // per page node: does its descriptor drop the model's protection?
    let mut unprotected_drift: HashMap<usize, bool> = HashMap::new();
    for (pid, page) in ht.pages() {
        let Some(node) = ir.node_by_id(&page_id(pid)) else {
            continue;
        };
        let model_protected = ht.site_view(page.site_view).protected;
        let desc_protected = set
            .page(&ir.nodes[node].id)
            .map(|p| p.protected)
            .unwrap_or(model_protected);
        unprotected_drift.insert(node, model_protected && !desc_protected);
    }

    for (oid, op) in ht.operations() {
        let Ok((_, _, write_set)) = qg.operation_sql(op) else {
            continue;
        };
        let write_set: BTreeSet<String> = write_set.into_iter().map(|t| t.to_lowercase()).collect();
        if write_set.is_empty() {
            continue;
        }
        let Some(op_node) = ir.node_by_id(&operation_id(oid)) else {
            continue;
        };
        let chain_targets: BTreeSet<usize> = ir
            .edges
            .iter()
            .filter(|e| {
                e.from == op_node && matches!(e.kind, EdgeKind::OkChain | EdgeKind::KoChain)
            })
            .map(|e| e.to)
            .filter(|&n| ir.nodes[n].kind == NodeKind::Page)
            .collect();

        let offends = |node: usize| {
            unprotected_drift.get(&node).copied().unwrap_or(false)
                && reads.get(&node).is_some_and(|r| !r.is_disjoint(&write_set))
        };
        let hazard = |node: usize| {
            let touched: Vec<&str> = reads
                .get(&node)
                .map(|r| r.intersection(&write_set).map(String::as_str).collect())
                .unwrap_or_default();
            format!(
                "operation \"{}\" writes table(s) {}; this page reads them but its descriptor \
                 drops the site view's protection, so a sessionless client has no \
                 read-your-writes floor and may be served a lagging replica",
                ir.nodes[op_node].name,
                touched
                    .iter()
                    .map(|t| format!("\"{t}\""))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        };

        // direct chain targets are errors; only when the chain itself is
        // safe do we look further (nearest-hazard rule: no cascades)
        let direct: Vec<usize> = chain_targets
            .iter()
            .copied()
            .filter(|&n| offends(n))
            .collect();
        if !direct.is_empty() {
            for n in direct {
                out.push(
                    Diagnostic::error(AZ404, &ir.nodes[n].location, hazard(n)).with_witness(
                        format!("OK/KO of {} → {}", ir.nodes[op_node].name, ir.nodes[n].name),
                    ),
                );
            }
            continue;
        }

        // BFS over user navigation from the chain targets
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = chain_targets.iter().copied().collect();
        let mut seen: BTreeSet<usize> = chain_targets.clone();
        while let Some(n) = queue.pop_front() {
            for e in ir.edges.iter().filter(|e| {
                e.from == n
                    && e.kind == EdgeKind::Navigation
                    && ir.nodes[e.to].kind == NodeKind::Page
            }) {
                if seen.insert(e.to) {
                    parent.insert(e.to, n);
                    queue.push_back(e.to);
                }
            }
        }
        for &n in seen.iter().filter(|n| !chain_targets.contains(n)) {
            if !offends(n) {
                continue;
            }
            let mut path = vec![ir.nodes[n].name.clone()];
            let mut cur = n;
            while let Some(&p) = parent.get(&cur) {
                path.push(ir.nodes[p].name.clone());
                cur = p;
            }
            path.push(format!("OK/KO of {}", ir.nodes[op_node].name));
            path.reverse();
            out.push(
                Diagnostic::warning(AZ405, &ir.nodes[n].location, hazard(n))
                    .with_witness(path.join(" → ")),
            );
        }
    }
    out
}

/// Pass 7: non-create operations of one site view updating the same table
/// contend on a non-disjoint key space (creates mint fresh surrogates, so
/// their key spaces are disjoint by construction).
fn conflict_hotspots(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    set: &DescriptorSet,
    ir: &NavIr,
) -> Vec<Diagnostic> {
    let qg = QueryGen::new(er, mapping);

    struct Writer {
        name: String,
        table: String,
        site_views: BTreeSet<String>,
    }
    let mut writers: Vec<Writer> = Vec::new();
    for (oid, op) in ht.operations() {
        if matches!(op.kind, OperationKind::Create { .. }) {
            continue;
        }
        let Ok((_, Some(table), _)) = qg.operation_sql(op) else {
            continue;
        };
        let Some(op_node) = ir.node_by_id(&operation_id(oid)) else {
            continue;
        };
        // site views the operation is invocable from: source pages of its
        // incoming navigation edges
        let site_views: BTreeSet<String> = ir.in_edges[op_node]
            .iter()
            .filter(|&&e| ir.edges[e].kind == EdgeKind::Navigation)
            .map(|&e| ir.edges[e].from)
            .filter(|&n| ir.nodes[n].kind == NodeKind::Page)
            .filter_map(|n| set.page(&ir.nodes[n].id).map(|p| p.site_view.clone()))
            .collect();
        if site_views.is_empty() {
            continue;
        }
        writers.push(Writer {
            name: ir.nodes[op_node].name.clone(),
            table: table.to_lowercase(),
            site_views,
        });
    }

    let mut out = Vec::new();
    for i in 0..writers.len() {
        for j in i + 1..writers.len() {
            let (a, b) = (&writers[i], &writers[j]);
            if a.table != b.table {
                continue;
            }
            let Some(sv) = a.site_views.intersection(&b.site_views).next() else {
                continue;
            };
            out.push(Diagnostic::warning(
                AZ406,
                sv,
                format!(
                    "operations \"{}\" and \"{}\" both update table \"{}\" and are reachable \
                     from site view \"{}\": concurrent submissions race on the same rows \
                     and the last writer silently overwrites the other (lost update)",
                    a.name, b.name, a.table, sv,
                ),
            ));
        }
    }
    out
}
