//! The single generic page service.
//!
//! §3: "The page service is a business function supporting the computation
//! of a page. It exposes a single function computePage(), invoked to carry
//! out the parameter propagation and unit computation process. The page
//! service updates the state objects in the Model: at the end of the page
//! service execution, all the JavaBeans storing the result of the data
//! retrieval queries of the page units (called unit beans) are available
//! to the View."
//!
//! §4 replaces one such class per page with this single implementation,
//! parametric in the page's deploy-time [`PagePlan`]. §6's bean cache
//! slots in here: cached units skip their queries entirely.

use crate::beans::UnitBean;
use crate::error::{MvcError, Result};
use crate::plan::{ComputedUnit, PagePlan};
use crate::services::ParamMap;
use relstore::Database;
use std::sync::Arc;
use std::time::Duration;
use webcache::{BeanCache, BeanKey, Provenance};

/// Outcome of computing a page: one computed unit per plan step, in plan
/// order, plus cache telemetry.
#[derive(Debug, Clone, Default)]
pub struct PageResult {
    pub units: Vec<ComputedUnit>,
    /// Units served from the bean cache.
    pub cache_hits: usize,
    /// Units computed against the database.
    pub computed: usize,
}

/// The content of a unit whose selector context is unavailable.
fn empty_bean(desc: &descriptors::UnitDescriptor) -> UnitBean {
    match desc.unit_type.as_str() {
        "data" => UnitBean::Single {
            shape: Arc::default(),
            row: None,
        },
        "hierarchy" => UnitBean::Nested {
            shapes: Vec::new(),
            rows: Vec::new(),
        },
        "entry" => UnitBean::Form,
        _ => UnitBean::Rows {
            shape: Arc::default(),
            rows: Vec::new(),
            total: 0,
        },
    }
}

/// Everything a page computation needs besides the page's plan — the
/// business-tier environment the controller (or an app-server clone)
/// assembles once and reuses per request.
pub struct PageEnv<'a> {
    pub db: &'a Database,
    pub bean_cache: Option<&'a BeanCache<UnitBean>>,
    /// Shared metrics registry; `None` disables per-unit histograms.
    pub metrics: Option<&'a obs::MetricsRegistry>,
}

/// Compute every unit of the page in plan order (already topological),
/// propagating parameters along the page's dataflow edges. Each unit runs
/// inside a `unit:<id>` span (its `sql` child is opened by the unit
/// service), and per-unit-kind service time is recorded into the shared
/// registry's histograms.
pub fn compute_page(
    env: &PageEnv<'_>,
    plan: &PagePlan,
    request_params: &ParamMap,
    session_vars: &ParamMap,
    ctx: &mut obs::RequestContext,
) -> Result<PageResult> {
    let PageEnv {
        db,
        bean_cache,
        metrics,
    } = *env;
    if let Some(id) = &plan.dangling_unit {
        return Err(MvcError::MissingDescriptor(id.clone()));
    }
    let mut result = PageResult {
        units: Vec::with_capacity(plan.units.len()),
        ..PageResult::default()
    };
    for step in &plan.units {
        let desc = &step.desc;
        let token = ctx.enter(step.unit_span.as_str());
        let observe = |ctx: &mut obs::RequestContext| {
            let dur = ctx.exit(token);
            if let Some(m) = metrics {
                m.unit_histogram(&desc.unit_type).observe_us(dur);
            }
        };
        let (params, key) = step.bind(request_params, session_vars, &result.units);
        let oid = step.probed_oid(&params);

        // §6 bean cache: keyed on the parameters the unit actually consumes
        let cached = bean_cache
            .filter(|_| desc.cache.is_some())
            .map(|cache| (cache, BeanKey::new(desc.id.clone(), key.clone())));
        if let Some((cache, bean_key)) = &cached {
            if let Some(bean) = cache.get(bean_key) {
                result.cache_hits += 1;
                result.units.push(ComputedUnit { bean, key, oid });
                observe(ctx);
                continue;
            }
        }

        let Some(service) = &step.service else {
            ctx.exit(token);
            return Err(MvcError::NoService(desc.service.clone()));
        };
        // read before the query: the bean shows this commit or a later one
        let lsn = db.lsn();
        // WebML semantics: a unit whose input context is missing (empty
        // source unit, absent request parameter) publishes no content
        // rather than failing the page
        let bean = match service.compute_traced(desc, &params, db, ctx) {
            Ok(b) => b,
            Err(MvcError::MissingParameter { .. }) => empty_bean(desc),
            Err(e) => {
                ctx.exit(token);
                return Err(e);
            }
        };
        result.computed += 1;
        let bean = match cached {
            Some((cache, bean_key)) => {
                let ttl = desc
                    .cache
                    .as_ref()
                    .and_then(|c| c.ttl_ms)
                    .map(Duration::from_millis);
                // A pure oid probe (`WHERE t.oid = :p`) touches exactly one
                // row, so the bean is scoped to it: log-driven maintenance
                // of another row then leaves it alone.
                let (entities, row) = step.dependencies(oid);
                let from = Provenance {
                    lsn,
                    entities,
                    rows: row.as_slice(),
                };
                cache.put(bean_key, bean, from, ttl)
            }
            None => Arc::new(bean),
        };
        result.units.push(ComputedUnit { bean, key, oid });
        observe(ctx);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SitePlan;
    use crate::services::ServiceRegistry;
    use descriptors::{
        CacheDescriptor, ControllerConfig, DescriptorSet, PageDescriptor, ParamBinding, QuerySpec,
        TransportEdge, UnitDescriptor,
    };
    use relstore::{Params, Value};

    /// Plan `set` and compute its first page.
    fn compute_page0(
        set: &DescriptorSet,
        request: &ParamMap,
        session: &ParamMap,
        db: &Database,
        bean_cache: Option<&BeanCache<UnitBean>>,
    ) -> PageResult {
        let site = SitePlan::build(set.clone(), &ServiceRegistry::standard());
        let env = PageEnv {
            db,
            bean_cache,
            metrics: None,
        };
        let mut ctx = obs::RequestContext::detached();
        compute_page(&env, &site.pages[0], request, session, &mut ctx).unwrap()
    }

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE volume (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT);
             CREATE TABLE issue (oid INTEGER PRIMARY KEY AUTOINCREMENT, number INTEGER, volume_oid INTEGER);",
        )
        .unwrap();
        db.execute(
            "INSERT INTO volume (title) VALUES ('V1'), ('V2')",
            &Params::new(),
        )
        .unwrap();
        db.execute(
            "INSERT INTO issue (number, volume_oid) VALUES (1, 1), (2, 1), (1, 2)",
            &Params::new(),
        )
        .unwrap();
        db
    }

    fn unit(id: &str, unit_type: &str, sql: &str, inputs: &[&str]) -> UnitDescriptor {
        UnitDescriptor {
            id: id.into(),
            name: id.into(),
            unit_type: unit_type.into(),
            page: "page0".into(),
            entity_table: Some("volume".into()),
            queries: vec![QuerySpec {
                name: "main".into(),
                sql: sql.into(),
                inputs: inputs.iter().map(|s| s.to_string()).collect(),
                bean: vec![],
            }],
            block_size: None,
            fields: vec![],
            optimized: false,
            service: String::new(),
            depends_on: vec!["volume".into()],
            cache: None,
        }
    }

    fn page_with_edge() -> DescriptorSet {
        let u1 = unit(
            "unit0",
            "data",
            "SELECT t.oid, t.title FROM volume t WHERE t.oid = :volume",
            &["volume"],
        );
        let mut u2 = unit(
            "unit1",
            "index",
            "SELECT t.oid, t.number FROM issue t WHERE t.volume_oid = :volume ORDER BY t.number",
            &["volume"],
        );
        u2.entity_table = Some("issue".into());
        u2.depends_on = vec!["issue".into()];
        let page = PageDescriptor {
            id: "page0".into(),
            name: "P".into(),
            site_view: "sv".into(),
            url: "/sv/p".into(),
            units: vec!["unit0".into(), "unit1".into()],
            edges: vec![TransportEdge {
                from: "unit0".into(),
                to: "unit1".into(),
                params: vec![ParamBinding {
                    name: "volume".into(),
                    source_kind: "oid".into(),
                    source: String::new(),
                }],
                automatic: false,
            }],
            links: vec![],
            request_params: vec!["volume".into()],
            layout: "single-column".into(),
            template: "t.jsp".into(),
            landmark: false,
            protected: false,
        };
        DescriptorSet {
            units: vec![u1, u2],
            pages: vec![page],
            operations: vec![],
            controller: ControllerConfig::default(),
        }
    }

    #[test]
    fn parameter_propagation_along_edges() {
        let db = db();
        let set = page_with_edge();
        let mut params = ParamMap::new();
        params.insert("volume".into(), Value::Integer(1));
        let r = compute_page0(&set, &params, &ParamMap::new(), &db, None);
        assert_eq!(r.units.len(), 2);
        assert_eq!(r.units[1].bean.row_count(), 2); // volume 1 has 2 issues
        assert_eq!(r.computed, 2);
    }

    #[test]
    fn bean_cache_skips_queries_on_hit() {
        let db = db();
        let mut set = page_with_edge();
        for u in &mut set.units {
            u.cache = Some(CacheDescriptor {
                ttl_ms: None,
                invalidate_on_write: true,
            });
        }
        let cache: BeanCache<UnitBean> = BeanCache::new(64);
        let mut params = ParamMap::new();
        params.insert("volume".into(), Value::Integer(1));
        let before = db.statements_executed();
        let r1 = compute_page0(&set, &params, &ParamMap::new(), &db, Some(&cache));
        assert_eq!(r1.cache_hits, 0);
        let mid = db.statements_executed();
        assert!(mid > before);
        let r2 = compute_page0(&set, &params, &ParamMap::new(), &db, Some(&cache));
        assert_eq!(r2.cache_hits, 2);
        assert_eq!(r2.computed, 0);
        // no new queries: the whole point of the business-tier cache (§6)
        assert_eq!(db.statements_executed(), mid);
        assert_eq!(r2.units[1].bean.row_count(), 2);
    }

    #[test]
    fn cache_keys_distinguish_parameters() {
        let db = db();
        let mut set = page_with_edge();
        for u in &mut set.units {
            u.cache = Some(CacheDescriptor {
                ttl_ms: None,
                invalidate_on_write: true,
            });
        }
        let cache: BeanCache<UnitBean> = BeanCache::new(64);
        for volume in [1i64, 2, 1, 2] {
            let mut params = ParamMap::new();
            params.insert("volume".into(), Value::Integer(volume));
            let r = compute_page0(&set, &params, &ParamMap::new(), &db, Some(&cache));
            let expected = if volume == 1 { 2 } else { 1 };
            assert_eq!(r.units[1].bean.row_count(), expected);
        }
        let s = cache.stats();
        assert_eq!(s.hits, 4); // second pass over both volumes
    }

    #[test]
    fn entity_invalidation_forces_recompute() {
        let db = db();
        let mut set = page_with_edge();
        for u in &mut set.units {
            u.cache = Some(CacheDescriptor {
                ttl_ms: None,
                invalidate_on_write: true,
            });
        }
        let cache: BeanCache<UnitBean> = BeanCache::new(64);
        let mut params = ParamMap::new();
        params.insert("volume".into(), Value::Integer(1));
        compute_page0(&set, &params, &ParamMap::new(), &db, Some(&cache));
        // a write to issue invalidates the index unit's bean but not the
        // volume data unit's
        db.execute(
            "INSERT INTO issue (number, volume_oid) VALUES (3, 1)",
            &Params::new(),
        )
        .unwrap();
        cache.invalidate_entity("issue");
        let r = compute_page0(&set, &params, &ParamMap::new(), &db, Some(&cache));
        assert_eq!(r.cache_hits, 1); // volume data still cached
        assert_eq!(r.computed, 1); // index recomputed
        assert_eq!(r.units[1].bean.row_count(), 3); // fresh content
    }

    #[test]
    fn session_vars_are_visible_with_prefix() {
        let db = db();
        let u = unit(
            "unit0",
            "data",
            "SELECT t.oid, t.title FROM volume t WHERE t.oid = :session_favourite",
            &["session_favourite"],
        );
        let page = PageDescriptor {
            id: "page0".into(),
            name: "P".into(),
            site_view: "sv".into(),
            url: "/sv/p".into(),
            units: vec!["unit0".into()],
            edges: vec![],
            links: vec![],
            request_params: vec![],
            layout: "single-column".into(),
            template: "t.jsp".into(),
            landmark: false,
            protected: false,
        };
        let set = DescriptorSet {
            units: vec![u],
            pages: vec![page],
            operations: vec![],
            controller: ControllerConfig::default(),
        };
        let mut session = ParamMap::new();
        session.insert("favourite".into(), Value::Integer(2));
        let r = compute_page0(&set, &ParamMap::new(), &session, &db, None);
        assert_eq!(r.units[0].bean.propagated_oid(), Some(2));
    }
}
