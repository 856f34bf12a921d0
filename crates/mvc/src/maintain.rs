//! Unit-bean patch semantics for the incremental maintenance layer.
//!
//! `webcache::maintain` decides *which* cached beans a committed change may
//! affect and whether the plan says they are patchable; this module knows
//! *how* a row delta folds into a [`UnitBean`]:
//!
//! - **key probes** (data units on `t.oid = :p`): overwrite the single
//!   row's attributes, fill an empty bean on insert, empty it on delete;
//! - **row sets** (index-family units): insert/update/delete the one row
//!   in the cached row list, re-evaluating the unit's equality predicate
//!   against the bean key's own parameters; under a non-oid `ORDER BY`
//!   an update that changes the order key would move the row, so it
//!   falls back (`reorder`) instead of patching at a stale position;
//! - **Top-K windows** (`LIMIT k`): repaired in place while the repair is
//!   provably complete — a delete that shrinks a full window needs rows
//!   the cache never held, so it falls back (`topk-refill`).
//!
//! Anything the cached value alone cannot answer returns
//! [`PatchOutcome::Unpatchable`] with a stable reason tag; the maintainer
//! drops that bean and counts it, which is exactly PR 7's behavior — the
//! maintenance layer only ever *improves* on invalidation, never serves
//! content invalidation would not have served.

use crate::beans::{BeanRow, Shape, UnitBean};
use relstore::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use webcache::{DeltaOp, PatchOutcome, Patcher, RowDelta, RowOrder, Strategy, UnitPlan};

/// Project the changed row into the unit's bean row: one cell per
/// projected property, in projection order.
fn project(plan: &UnitPlan, delta: &RowDelta<'_>) -> BeanRow {
    plan.projection
        .iter()
        .map(|(_, col)| delta.get(col).cloned().unwrap_or(Value::Null))
        .collect()
}

/// The shape of the patched bean: the cached bean's own when its
/// properties are the plan's projection (so projected rows line up with
/// its cells), a fresh one from the projection for a bean that holds no
/// row yet. `None`: the two disagree (a custom service packed the bean).
fn patch_shape(plan: &UnitPlan, shape: &Arc<Shape>, rowless: bool) -> Option<Arc<Shape>> {
    let projected = || plan.projection.iter().map(|(name, _)| &**name);
    if shape.names().iter().map(|n| &**n).eq(projected()) {
        Some(Arc::clone(shape))
    } else if rowless {
        Some(Arc::new(Shape::new(projected())))
    } else {
        None
    }
}

/// Evaluate the unit's equality conjuncts against the changed row, using
/// the bean key's parameter renderings. `None` = cannot evaluate (missing
/// column or unbound parameter).
fn matches_filters(
    filters: &[(String, String)],
    key_params: &BTreeMap<String, String>,
    delta: &RowDelta<'_>,
) -> Option<bool> {
    for (col, param) in filters {
        let wanted = key_params.get(param)?;
        let have = delta.get(col)?;
        if matches!(have, Value::Null) || have.render() != *wanted {
            return Some(false);
        }
    }
    Some(true)
}

/// How one row delta changes a cached row list.
enum RowEdit {
    Replace(usize, BeanRow),
    Remove(usize),
    /// Insert at a position, then cut the list back to the Top-K window.
    Insert(usize, BeanRow, Option<usize>),
}

/// The [`Patcher`] for MVC unit beans.
pub struct UnitBeanPatcher;

impl UnitBeanPatcher {
    /// Decide how `delta` changes the cached row list: the patched bean's
    /// shape and the edit, or the verdict when there is nothing to apply.
    #[allow(clippy::too_many_arguments)]
    fn row_edit(
        &self,
        plan: &UnitPlan,
        filters: &[(String, String)],
        order: &RowOrder,
        limit: Option<usize>,
        key_params: &BTreeMap<String, String>,
        shape: &Arc<Shape>,
        rows: &[BeanRow],
        delta: &RowDelta<'_>,
    ) -> Result<(Arc<Shape>, RowEdit), PatchOutcome> {
        let Some(shape) = patch_shape(plan, shape, rows.is_empty()) else {
            return Err(PatchOutcome::Unpatchable("bean-shape"));
        };
        // membership reasoning needs every cached row's oid
        if rows.iter().any(|r| shape.oid(r).is_none()) {
            return Err(PatchOutcome::Unpatchable("no-row-oid"));
        }
        let pos = rows.iter().position(|r| shape.oid(r) == Some(delta.oid));
        // a delete that shrinks a *full* Top-K window exposes a slot only
        // the store can refill
        let refill = limit.is_some_and(|k| rows.len() >= k);
        let edit = match delta.op {
            DeltaOp::Delete => match pos {
                Some(_) if refill => return Err(PatchOutcome::Unpatchable("topk-refill")),
                Some(p) => RowEdit::Remove(p),
                None => return Err(PatchOutcome::Unchanged),
            },
            DeltaOp::Insert | DeltaOp::Update => {
                let is_member = match matches_filters(filters, key_params, delta) {
                    Some(b) => b,
                    None => return Err(PatchOutcome::Unpatchable("unbound-param")),
                };
                match (pos, is_member) {
                    (Some(p), true) => {
                        // under a non-oid ordering, the row keeps its
                        // position only if its order key is unchanged
                        match order {
                            RowOrder::Column(col) => {
                                let prop = plan.projection.iter().position(|(_, c)| c == col);
                                let moved = match (prop, delta.get(col)) {
                                    (Some(prop), Some(new_key)) => {
                                        rows[p].get(prop) != Some(new_key)
                                    }
                                    // order key not observable → assume moved
                                    _ => true,
                                };
                                if moved {
                                    return Err(PatchOutcome::Unpatchable("reorder"));
                                }
                            }
                            RowOrder::Opaque => return Err(PatchOutcome::Unpatchable("reorder")),
                            RowOrder::Insertion | RowOrder::Oid => {}
                        }
                        RowEdit::Replace(p, project(plan, delta))
                    }
                    // the row no longer satisfies the predicate
                    (Some(_), false) if refill => {
                        return Err(PatchOutcome::Unpatchable("topk-refill"))
                    }
                    (Some(p), false) => RowEdit::Remove(p),
                    (None, true) => {
                        // a new member: its position is only computable
                        // under the engine-stable oid order
                        if *order != RowOrder::Oid {
                            return Err(PatchOutcome::Unpatchable("insert-order"));
                        }
                        let at = rows
                            .iter()
                            .position(|r| shape.oid(r).is_some_and(|o| o > delta.oid))
                            .unwrap_or(rows.len());
                        if refill && at == rows.len() {
                            // beyond the full window: invisible
                            return Err(PatchOutcome::Unchanged);
                        }
                        RowEdit::Insert(at, project(plan, delta), limit)
                    }
                    (None, false) => return Err(PatchOutcome::Unchanged),
                }
            }
        };
        Ok((shape, edit))
    }
}

impl Patcher<UnitBean> for UnitBeanPatcher {
    fn apply(
        &self,
        plan: &UnitPlan,
        key_params: &BTreeMap<String, String>,
        bean: &mut Arc<UnitBean>,
        delta: &RowDelta<'_>,
    ) -> PatchOutcome {
        match (&plan.strategy, &**bean) {
            // the maintainer already verified the key parameter equals the
            // changed row's oid, so the delta *is* this bean's row
            (Strategy::KeyProbe { .. }, UnitBean::Single { shape, row }) => {
                let Some(shape) = patch_shape(plan, shape, row.is_none()) else {
                    return PatchOutcome::Unpatchable("bean-shape");
                };
                let row = match delta.op {
                    DeltaOp::Delete => None,
                    DeltaOp::Insert | DeltaOp::Update => Some(project(plan, delta)),
                };
                *bean = Arc::new(UnitBean::Single { shape, row });
                PatchOutcome::Patched
            }
            (
                Strategy::RowSet {
                    filters,
                    order,
                    limit,
                },
                UnitBean::Rows { shape, rows, .. },
            ) => {
                let (patched, edit) = match self
                    .row_edit(plan, filters, order, *limit, key_params, shape, rows, delta)
                {
                    Ok(decided) => decided,
                    Err(verdict) => return verdict,
                };
                // in place: a copy only while a reader holds the bean
                if let UnitBean::Rows { shape, rows, total } = Arc::make_mut(bean) {
                    *shape = patched;
                    match edit {
                        RowEdit::Replace(at, row) => rows[at] = row,
                        RowEdit::Remove(at) => {
                            rows.remove(at);
                        }
                        RowEdit::Insert(at, row, window) => {
                            rows.insert(at, row);
                            rows.truncate(window.unwrap_or(usize::MAX));
                        }
                    }
                    *total = rows.len();
                }
                PatchOutcome::Patched
            }
            (Strategy::Fallback { reason }, _) => PatchOutcome::Unpatchable(reason),
            // plan and cached value disagree on shape (custom service)
            _ => PatchOutcome::Unpatchable("bean-shape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache::{MaintenancePlan, TableCatalog, UnitShape};

    fn index_plan(sql: &str) -> UnitPlan {
        let plan = MaintenancePlan::build(&[UnitShape {
            unit_id: "idx".into(),
            page: "p".into(),
            unit_kind: "index".into(),
            entity_table: Some("paper".into()),
            sql: sql.into(),
            bean_columns: vec![],
            depends_on: vec!["paper".into()],
            cached: true,
        }]);
        plan.unit("idx").unwrap().clone()
    }

    fn shape() -> Arc<Shape> {
        Arc::new(Shape::new(["oid", "title"]))
    }

    fn row(oid: i64, title: &str) -> BeanRow {
        vec![Value::Integer(oid), Value::Text(title.into())]
    }

    fn rows(rows: Vec<BeanRow>) -> UnitBean {
        let total = rows.len();
        UnitBean::Rows {
            shape: shape(),
            rows,
            total,
        }
    }

    fn oids(rows: &[BeanRow]) -> Vec<i64> {
        rows.iter().map(|r| shape().oid(r).unwrap()).collect()
    }

    /// Patch a copy of `bean`: the patched bean, or the verdict — which
    /// must leave the copy as it was.
    fn patched(
        plan: &UnitPlan,
        params: &BTreeMap<String, String>,
        bean: &UnitBean,
        delta: &RowDelta<'_>,
    ) -> Result<UnitBean, PatchOutcome> {
        let mut copy = Arc::new(bean.clone());
        match UnitBeanPatcher.apply(plan, params, &mut copy, delta) {
            PatchOutcome::Patched => Ok(Arc::unwrap_or_clone(copy)),
            verdict => {
                assert_eq!(*copy, *bean, "{verdict:?} changed the bean");
                Err(verdict)
            }
        }
    }

    fn catalog() -> TableCatalog {
        let mut c = TableCatalog::new();
        c.add(
            "paper",
            vec![
                "oid".to_string(),
                "title".to_string(),
                "issue_oid".to_string(),
            ],
        );
        c
    }

    #[test]
    fn insert_folds_into_oid_ordered_row_set() {
        let plan = index_plan(
            "SELECT t.oid, t.title FROM paper t WHERE t.issue_oid = :issue ORDER BY t.oid",
        );
        let cat = catalog();
        let change = relstore::ChangeRecord::Insert {
            table: "paper".into(),
            row_id: 9,
            row: vec![
                Value::Integer(2),
                Value::Text("Mid".into()),
                Value::Integer(7),
            ],
        };
        let delta = cat.delta(&change).unwrap();
        let bean = rows(vec![row(1, "A"), row(3, "C")]);
        let mut params = BTreeMap::new();
        params.insert("issue".to_string(), "7".to_string());
        let Ok(UnitBean::Rows { shape, rows, total }) = patched(&plan, &params, &bean, &delta)
        else {
            panic!("expected patch");
        };
        assert_eq!(total, 3);
        assert_eq!(oids(&rows), vec![1, 2, 3]);
        assert_eq!(
            shape.get(&rows[1], "title"),
            Some(&Value::Text("Mid".into()))
        );

        // a row of another issue leaves the bean untouched
        let other = relstore::ChangeRecord::Insert {
            table: "paper".into(),
            row_id: 10,
            row: vec![
                Value::Integer(4),
                Value::Text("Other".into()),
                Value::Integer(8),
            ],
        };
        let delta = cat.delta(&other).unwrap();
        assert_eq!(
            patched(&plan, &params, &bean, &delta),
            Err(PatchOutcome::Unchanged)
        );
    }

    #[test]
    fn update_moves_rows_across_the_predicate() {
        let plan = index_plan(
            "SELECT t.oid, t.title FROM paper t WHERE t.issue_oid = :issue ORDER BY t.oid",
        );
        let cat = catalog();
        let bean = rows(vec![row(1, "A"), row(2, "B")]);
        let mut params = BTreeMap::new();
        params.insert("issue".to_string(), "7".to_string());
        // row 2 reassigned to another issue → removed from this bean
        let change = relstore::ChangeRecord::Update {
            table: "paper".into(),
            row_id: 1,
            row: vec![
                Value::Integer(2),
                Value::Text("B2".into()),
                Value::Integer(8),
            ],
        };
        let delta = cat.delta(&change).unwrap();
        let Ok(UnitBean::Rows { rows, total, .. }) = patched(&plan, &params, &bean, &delta) else {
            panic!("expected patch");
        };
        assert_eq!(total, 1);
        assert_eq!(oids(&rows), vec![1]);
    }

    #[test]
    fn delete_removes_member_rows() {
        let plan = index_plan("SELECT t.oid, t.title FROM paper t ORDER BY t.oid");
        let cat = catalog();
        let bean = rows(vec![row(1, "A"), row(2, "B")]);
        let change = relstore::ChangeRecord::Delete {
            table: "paper".into(),
            row_id: 0,
            row: vec![Value::Integer(1), Value::Text("A".into()), Value::Null],
        };
        let delta = cat.delta(&change).unwrap();
        let Ok(UnitBean::Rows { rows, total, .. }) =
            patched(&plan, &BTreeMap::new(), &bean, &delta)
        else {
            panic!("expected patch");
        };
        assert_eq!((rows.len(), total), (1, 1));
    }

    #[test]
    fn topk_repairs_in_place_until_a_full_window_shrinks() {
        let plan = index_plan("SELECT t.oid, t.title FROM paper t ORDER BY t.oid LIMIT 2");
        let cat = catalog();
        let full = rows(vec![row(2, "B"), row(4, "D")]);
        // an insert into a full window displaces the tail
        let change = relstore::ChangeRecord::Insert {
            table: "paper".into(),
            row_id: 5,
            row: vec![Value::Integer(3), Value::Text("C".into()), Value::Null],
        };
        let delta = cat.delta(&change).unwrap();
        let Ok(UnitBean::Rows { rows, .. }) = patched(&plan, &BTreeMap::new(), &full, &delta)
        else {
            panic!("expected patch");
        };
        assert_eq!(oids(&rows), vec![2, 3]);
        // an insert beyond the full window is invisible
        let beyond = relstore::ChangeRecord::Insert {
            table: "paper".into(),
            row_id: 6,
            row: vec![Value::Integer(9), Value::Text("Z".into()), Value::Null],
        };
        let delta = cat.delta(&beyond).unwrap();
        assert_eq!(
            patched(&plan, &BTreeMap::new(), &full, &delta),
            Err(PatchOutcome::Unchanged)
        );
        // deleting from a full window needs a refill → bounded fallback
        let gone = relstore::ChangeRecord::Delete {
            table: "paper".into(),
            row_id: 1,
            row: vec![Value::Integer(2), Value::Text("B".into()), Value::Null],
        };
        let delta = cat.delta(&gone).unwrap();
        assert_eq!(
            patched(&plan, &BTreeMap::new(), &full, &delta),
            Err(PatchOutcome::Unpatchable("topk-refill"))
        );
    }

    #[test]
    fn key_probe_overwrites_fills_and_empties() {
        let shapes = vec![UnitShape {
            unit_id: "d".into(),
            page: "p".into(),
            unit_kind: "data".into(),
            entity_table: Some("paper".into()),
            sql: "SELECT t.oid, t.title FROM paper t WHERE t.oid = :item".into(),
            bean_columns: vec![],
            depends_on: vec!["paper".into()],
            cached: true,
        }];
        let plan = MaintenancePlan::build(&shapes);
        let plan = plan.unit("d").unwrap();
        let cat = catalog();
        let change = relstore::ChangeRecord::Update {
            table: "paper".into(),
            row_id: 0,
            row: vec![
                Value::Integer(5),
                Value::Text("New title".into()),
                Value::Null,
            ],
        };
        let delta = cat.delta(&change).unwrap();
        let bean = UnitBean::Single {
            shape: shape(),
            row: Some(row(5, "Old title")),
        };
        let Ok(UnitBean::Single {
            shape: new_shape,
            row: Some(r),
        }) = patched(plan, &BTreeMap::new(), &bean, &delta)
        else {
            panic!("expected patch");
        };
        assert_eq!(
            new_shape.get(&r, "title"),
            Some(&Value::Text("New title".into()))
        );
        let gone = relstore::ChangeRecord::Delete {
            table: "paper".into(),
            row_id: 0,
            row: vec![Value::Integer(5), Value::Null, Value::Null],
        };
        let delta = cat.delta(&gone).unwrap();
        assert!(matches!(
            patched(plan, &BTreeMap::new(), &bean, &delta),
            Ok(UnitBean::Single { row: None, .. })
        ));
        // a bean packed under other property names is not the plan's
        let foreign = UnitBean::Single {
            shape: Arc::new(Shape::new(["oid", "heading"])),
            row: Some(row(5, "Old title")),
        };
        assert_eq!(
            patched(plan, &BTreeMap::new(), &foreign, &delta),
            Err(PatchOutcome::Unpatchable("bean-shape"))
        );
    }

    /// A patch edits the cached bean in place, and copies it first only
    /// while a reader still holds it: that reader keeps the bytes it read.
    #[test]
    fn a_patch_copies_only_a_bean_a_reader_holds() {
        let plan = index_plan("SELECT t.oid, t.title FROM paper t ORDER BY t.oid");
        let cat = catalog();
        let change = relstore::ChangeRecord::Update {
            table: "paper".into(),
            row_id: 0,
            row: vec![Value::Integer(2), Value::Text("B2".into()), Value::Null],
        };
        let delta = cat.delta(&change).unwrap();
        let mut cached = Arc::new(rows(vec![row(1, "A"), row(2, "B")]));
        let before = Arc::as_ptr(&cached);
        let verdict = UnitBeanPatcher.apply(&plan, &BTreeMap::new(), &mut cached, &delta);
        assert_eq!(verdict, PatchOutcome::Patched);
        assert_eq!(Arc::as_ptr(&cached), before, "an unshared bean was copied");

        let reader = Arc::clone(&cached);
        let change = relstore::ChangeRecord::Delete {
            table: "paper".into(),
            row_id: 0,
            row: vec![Value::Integer(1), Value::Text("A".into()), Value::Null],
        };
        let delta = cat.delta(&change).unwrap();
        let verdict = UnitBeanPatcher.apply(&plan, &BTreeMap::new(), &mut cached, &delta);
        assert_eq!(verdict, PatchOutcome::Patched);
        assert_eq!(*reader, rows(vec![row(1, "A"), row(2, "B2")]));
        assert_eq!(*cached, rows(vec![row(2, "B2")]));
    }
}
