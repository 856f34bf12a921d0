//! Pass 8 — incremental-maintenance coverage (`AZ5xx`).
//!
//! The maintenance layer (`webcache::LogDrivenMaintainer`)
//! patches cached beans in place only when a unit's query shape is
//! recognizable (single-table probe or filtered row set). Everything else
//! silently degrades to drop-and-recompute — correct, but it forfeits the
//! optimisation the cache descriptor asked for. This pass runs the *same*
//! classifier the runtime uses ([`webcache::MaintenancePlan`]) at deploy
//! time, so the report says up front which cached units will fall back,
//! and why.

use crate::diag::{Diagnostic, AZ501, AZ502};
use descriptors::DescriptorSet;
use webcache::{MaintenancePlan, Strategy, UnitShape};

/// Lower the descriptor bundle into the classifier's unit shapes — the
/// ones the runtime builds its plan from (see [`plan_for`]), so
/// deploy-time verdicts match runtime behaviour.
pub fn unit_shapes(set: &DescriptorSet) -> Vec<UnitShape> {
    set.units
        .iter()
        .map(|u| {
            let main = u.main_query();
            UnitShape {
                unit_id: u.id.clone(),
                page: u.page.clone(),
                unit_kind: u.unit_type.clone(),
                entity_table: u.entity_table.clone(),
                sql: main.map(|q| q.sql.clone()).unwrap_or_default(),
                bean_columns: main
                    .map(|q| {
                        q.bean
                            .iter()
                            .map(|b| (b.name.clone(), b.column.clone()))
                            .collect()
                    })
                    .unwrap_or_default(),
                depends_on: u.depends_on.clone(),
                cached: u.cache.is_some(),
            }
        })
        .collect()
}

/// Build the maintenance plan the runtime would use for this bundle.
pub fn plan_for(set: &DescriptorSet) -> MaintenancePlan {
    MaintenancePlan::build(&unit_shapes(set))
}

/// Per-cached-unit maintenance verdicts, sorted by unit id: the strategy
/// description the runtime classifier assigned (`probe key …`,
/// `row set …`, `fallback: …`).
pub fn summary(set: &DescriptorSet) -> Vec<(String, String)> {
    plan_for(set).summary()
}

/// Unit kinds the maintenance layer never patches (their beans are not
/// flat row sets the log stream can fold into).
fn kind_is_unsupported(kind: &str) -> bool {
    matches!(kind, "scroller" | "hierarchy" | "entry" | "multientry")
}

/// Emit AZ501/AZ502 advisories for cached units whose beans the
/// maintenance layer cannot patch in place.
pub fn check(set: &DescriptorSet) -> Vec<Diagnostic> {
    let shapes = unit_shapes(set);
    let plan = MaintenancePlan::build(&shapes);
    let mut out = Vec::new();
    for shape in shapes.iter().filter(|s| s.cached) {
        let Some(unit_plan) = plan.unit(&shape.unit_id) else {
            continue;
        };
        if let Strategy::Fallback { reason } = &unit_plan.strategy {
            let location = format!("{}/{}", shape.page, shape.unit_id);
            if kind_is_unsupported(&shape.unit_kind) {
                out.push(Diagnostic::warning(
                    AZ502,
                    location,
                    format!(
                        "cached {} unit is outside the maintenance layer's \
                         patchable kinds ({reason}): every dependent write \
                         drops and recomputes its bean",
                        shape.unit_kind
                    ),
                ));
            } else {
                out.push(Diagnostic::warning(
                    AZ501,
                    location,
                    format!(
                        "cached unit's query shape is not incrementally \
                         maintainable ({reason}): every dependent write \
                         drops and recomputes its bean"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use descriptors::{BeanProperty, CacheDescriptor, QuerySpec, UnitDescriptor};

    fn unit(id: &str, kind: &str, sql: &str, cached: bool) -> UnitDescriptor {
        UnitDescriptor {
            id: id.into(),
            name: id.into(),
            unit_type: kind.into(),
            page: "page0".into(),
            entity_table: Some("book".into()),
            queries: vec![QuerySpec {
                name: "main".into(),
                sql: sql.into(),
                inputs: vec!["item".into()],
                bean: vec![BeanProperty {
                    name: "title".into(),
                    column: "title".into(),
                    attr_type: "string".into(),
                }],
            }],
            block_size: None,
            fields: vec![],
            optimized: false,
            service: String::new(),
            depends_on: vec!["book".into()],
            cache: cached.then_some(CacheDescriptor {
                ttl_ms: None,
                invalidate_on_write: true,
            }),
        }
    }

    fn set(units: Vec<UnitDescriptor>) -> DescriptorSet {
        DescriptorSet {
            units,
            pages: vec![],
            operations: vec![],
            controller: Default::default(),
        }
    }

    #[test]
    fn patchable_units_raise_no_advisory() {
        let s = set(vec![
            unit(
                "u_data",
                "data",
                "SELECT t.oid, t.title FROM book t WHERE t.oid = :item",
                true,
            ),
            unit(
                "u_index",
                "index",
                "SELECT t.oid, t.title FROM book t ORDER BY t.oid",
                true,
            ),
        ]);
        assert!(check(&s).is_empty(), "{:?}", check(&s));
        let sum = summary(&s);
        assert_eq!(sum.len(), 2);
        assert!(sum.iter().all(|(_, d)| !d.starts_with("fallback")));
    }

    #[test]
    fn unmaintainable_shape_is_az501_only_when_cached() {
        let join = "SELECT t.oid, j0.name FROM book t JOIN author j0 ON j0.oid = t.author_oid";
        let cached = set(vec![unit("u_join", "index", join, true)]);
        let diags = check(&cached);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, AZ501);
        assert!(diags[0].location.contains("u_join"));
        // uncached units cost nothing to recompute lazily: no advisory
        let uncached = set(vec![unit("u_join", "index", join, false)]);
        assert!(check(&uncached).is_empty());
    }

    #[test]
    fn unsupported_kind_is_az502() {
        let s = set(vec![unit(
            "u_scroll",
            "scroller",
            "SELECT t.oid, t.title FROM book t ORDER BY t.oid",
            true,
        )]);
        let diags = check(&s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, AZ502);
        assert!(diags[0].message.contains("scroller"));
    }
}
