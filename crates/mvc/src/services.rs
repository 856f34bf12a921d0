//! Generic unit services — Fig. 5.
//!
//! "For each type of unit, a single generic service is designed, which
//! factors out the commonalities of unit-specific services. This generic
//! service is parametric with respect to the features of individual
//! units." Eleven dedicated classes replace thousands; each interprets a
//! [`UnitDescriptor`] at runtime.
//!
//! The registry also hosts **plug-in units** (§7) and **user-supplied
//! service overrides** (§6: "each descriptor refers to the business
//! component to use for filling the content of a unit; this component can
//! be completely overridden by a user-supplied one").

use crate::beans::{BeanRow, NestedBeanRow, Shape, UnitBean};
use crate::error::{MvcError, Result};
use descriptors::{QuerySpec, UnitDescriptor};
use relstore::{Database, Params, ResultSet, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Parameters flowing into a unit or operation computation.
pub type ParamMap = BTreeMap<String, Value>;

/// Stable `k=v&…` fingerprint of parameters in the order given (sorted by
/// name for a [`ParamMap`]) — the `params` of bean and fragment keys.
pub fn fingerprint<'a>(params: impl IntoIterator<Item = (&'a String, &'a Value)>) -> String {
    let mut s = String::new();
    for (k, v) in params {
        s.push_str(k);
        s.push('=');
        s.push_str(&v.render());
        s.push('&');
    }
    s
}

/// A business component computing one kind of unit.
pub trait UnitService: Send + Sync {
    fn compute(&self, desc: &UnitDescriptor, params: &ParamMap, db: &Database) -> Result<UnitBean>;

    /// Compute with request tracing: the default implementation wraps
    /// [`UnitService::compute`] in a `sql` span, since the generic services
    /// are query-dominated. Services that do no database work (or that want
    /// finer-grained spans) can override this; plug-ins that ignore tracing
    /// keep working unchanged.
    fn compute_traced(
        &self,
        desc: &UnitDescriptor,
        params: &ParamMap,
        db: &Database,
        ctx: &mut obs::RequestContext,
    ) -> Result<UnitBean> {
        let token = ctx.enter("sql");
        let r = self.compute(desc, params, db);
        ctx.exit(token);
        r
    }
}

/// Bind a query's named inputs from the parameter map.
fn bind(q: &QuerySpec, params: &ParamMap, unit: &str) -> Result<Params> {
    let mut out = Params::new();
    for input in &q.inputs {
        match params.get(input) {
            Some(v) => out.set(input.clone(), v.clone()),
            None => {
                return Err(MvcError::MissingParameter {
                    unit: unit.to_string(),
                    param: input.clone(),
                })
            }
        }
    }
    Ok(out)
}

/// Pack the first `take` rows of a result set into positional bean rows
/// following the descriptor's bean declaration (all result columns when
/// it is empty). The shape is minted on the first call and kept in
/// `shape`, so every result set of one query — each level of a hierarchy
/// — shares one. Cells move from the result into the rows; a cell is
/// cloned only for a column that feeds more than one property.
fn pack(
    rs: ResultSet,
    q: &QuerySpec,
    take: usize,
    shape: &mut Option<Arc<Shape>>,
) -> (Arc<Shape>, Vec<BeanRow>) {
    let columns: Vec<Option<usize>> = if q.bean.is_empty() {
        (0..rs.columns().len()).map(Some).collect()
    } else {
        q.bean.iter().map(|p| rs.column_index(&p.column)).collect()
    };
    let shape = shape.get_or_insert_with(|| {
        Arc::new(if q.bean.is_empty() {
            Shape::new(rs.columns().iter().map(String::as_str))
        } else {
            Shape::new(q.bean.iter().map(|p| p.name.as_str()))
        })
    });
    // the last property a column feeds takes the cell, earlier ones clone
    let moves: Vec<bool> = columns
        .iter()
        .enumerate()
        .map(|(i, pos)| !columns[i + 1..].contains(pos))
        .collect();
    let rows = rs
        .into_rows()
        .into_iter()
        .take(take)
        .map(|mut row| {
            columns
                .iter()
                .zip(&moves)
                .map(|(pos, &moves)| match *pos {
                    Some(c) if moves => std::mem::replace(&mut row[c], Value::Null),
                    Some(c) => row[c].clone(),
                    None => Value::Null,
                })
                .collect()
        })
        .collect();
    (Arc::clone(shape), rows)
}

/// The scroller block a request asks for: `block_offset` as a
/// non-negative integer, 0 when it is absent, negative or not an integer.
/// The scroller service and its pager read it through this one function,
/// so they always agree on which block is shown.
pub(crate) fn block_offset(params: &ParamMap) -> usize {
    match params.get("block_offset") {
        Some(Value::Integer(i)) => usize::try_from(*i).unwrap_or(0),
        Some(Value::Text(s)) => s.parse().unwrap_or(0),
        _ => 0,
    }
}

/// A row count as a SQL `LIMIT`/`OFFSET` value, saturating.
fn sql_count(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

fn main_query(desc: &UnitDescriptor) -> Result<&QuerySpec> {
    desc.main_query()
        .ok_or_else(|| MvcError::MissingDescriptor(format!("{}: main query", desc.id)))
}

/// Generic service for data units: a single instance.
pub struct GenericDataService;

impl UnitService for GenericDataService {
    fn compute(&self, desc: &UnitDescriptor, params: &ParamMap, db: &Database) -> Result<UnitBean> {
        let q = main_query(desc)?;
        let rs = db.query(&q.sql, &bind(q, params, &desc.id)?)?;
        let (shape, mut rows) = pack(rs, q, 1, &mut None);
        Ok(UnitBean::Single {
            shape,
            row: rows.pop(),
        })
    }
}

/// Generic service for index, multidata, and multichoice units: all
/// matching rows.
pub struct GenericIndexService;

impl UnitService for GenericIndexService {
    fn compute(&self, desc: &UnitDescriptor, params: &ParamMap, db: &Database) -> Result<UnitBean> {
        let q = main_query(desc)?;
        let rs = db.query(&q.sql, &bind(q, params, &desc.id)?)?;
        let (shape, rows) = pack(rs, q, usize::MAX, &mut None);
        let total = rows.len();
        Ok(UnitBean::Rows { shape, rows, total })
    }
}

/// Generic service for scroller units: one block of rows plus the total.
pub struct GenericScrollerService;

impl UnitService for GenericScrollerService {
    fn compute(&self, desc: &UnitDescriptor, params: &ParamMap, db: &Database) -> Result<UnitBean> {
        let q = main_query(desc)?;
        let block = desc.block_size.unwrap_or(10).max(1);
        // the statement returns just the block; the rows it matched
        // without the window are the pager's total
        let mut effective = params.clone();
        effective.insert("block_limit".into(), Value::Integer(sql_count(block)));
        effective.insert(
            "block_offset".into(),
            Value::Integer(sql_count(block_offset(params))),
        );
        let rs = db.query(&q.sql, &bind(q, &effective, &desc.id)?)?;
        let total = rs.matched();
        let (shape, rows) = pack(rs, q, block, &mut None);
        Ok(UnitBean::Rows { shape, rows, total })
    }
}

/// Generic service for hierarchical indexes: one query per level,
/// recursively keyed by the parent oid.
pub struct GenericHierarchyService;

impl GenericHierarchyService {
    /// The rows of `levels[0]` under `parent_params`, each nesting its
    /// children from the levels below; `shapes[d]` is the shape of level
    /// `d`, minted by its first result set.
    fn level(
        &self,
        desc: &UnitDescriptor,
        levels: &[&QuerySpec],
        shapes: &mut [Option<Arc<Shape>>],
        parent_params: &ParamMap,
        db: &Database,
    ) -> Result<Vec<NestedBeanRow>> {
        let (Some((q, below)), Some((shape, below_shapes))) =
            (levels.split_first(), shapes.split_first_mut())
        else {
            return Ok(Vec::new());
        };
        let rs = db.query(&q.sql, &bind(q, parent_params, &desc.id)?)?;
        let (shape, rows) = pack(rs, q, usize::MAX, shape);
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let children = if below.is_empty() {
                Vec::new()
            } else {
                let mut child_params = ParamMap::new();
                if let Some(oid) = shape.oid(&row) {
                    child_params.insert("parent".into(), Value::Integer(oid));
                }
                self.level(desc, below, below_shapes, &child_params, db)?
            };
            out.push(NestedBeanRow { row, children });
        }
        Ok(out)
    }
}

impl UnitService for GenericHierarchyService {
    fn compute(&self, desc: &UnitDescriptor, params: &ParamMap, db: &Database) -> Result<UnitBean> {
        // the queries named `level0`, `level1`, … up to the first gap,
        // resolved once per computation rather than once per parent row
        let mut levels = Vec::new();
        loop {
            let name = format!("level{}", levels.len());
            match desc.queries.iter().find(|q| q.name == name) {
                Some(q) => levels.push(q),
                None => break,
            }
        }
        let mut shapes = vec![None; levels.len()];
        let rows = self.level(desc, &levels, &mut shapes, params, db)?;
        Ok(UnitBean::Nested {
            shapes: shapes.into_iter().map_while(|s| s).collect(),
            rows,
        })
    }
}

/// Generic service for entry units: no database work.
pub struct GenericEntryService;

impl UnitService for GenericEntryService {
    fn compute(&self, _: &UnitDescriptor, _: &ParamMap, _: &Database) -> Result<UnitBean> {
        Ok(UnitBean::Form)
    }

    fn compute_traced(
        &self,
        desc: &UnitDescriptor,
        params: &ParamMap,
        db: &Database,
        _ctx: &mut obs::RequestContext,
    ) -> Result<UnitBean> {
        // entry units issue no queries — no `sql` span
        self.compute(desc, params, db)
    }
}

/// The service registry: resolves the business component named in a
/// descriptor, supporting overrides and plug-ins.
pub struct ServiceRegistry {
    by_name: HashMap<String, Arc<dyn UnitService>>,
    /// Fallback per unit type when the descriptor names an unknown
    /// component.
    by_type: HashMap<String, Arc<dyn UnitService>>,
}

impl ServiceRegistry {
    /// Registry with the standard generic services registered under both
    /// their component names and their unit types.
    pub fn standard() -> ServiceRegistry {
        let mut r = ServiceRegistry {
            by_name: HashMap::new(),
            by_type: HashMap::new(),
        };
        let data: Arc<dyn UnitService> = Arc::new(GenericDataService);
        let index: Arc<dyn UnitService> = Arc::new(GenericIndexService);
        let scroller: Arc<dyn UnitService> = Arc::new(GenericScrollerService);
        let hierarchy: Arc<dyn UnitService> = Arc::new(GenericHierarchyService);
        let entry: Arc<dyn UnitService> = Arc::new(GenericEntryService);
        r.register("GenericDataService", "data", Arc::clone(&data));
        r.register("GenericIndexService", "index", Arc::clone(&index));
        r.register("GenericMultidataService", "multidata", Arc::clone(&index));
        r.register(
            "GenericMultichoiceService",
            "multichoice",
            Arc::clone(&index),
        );
        r.register("GenericScrollerService", "scroller", scroller);
        r.register("GenericHierarchyService", "hierarchy", hierarchy);
        r.register("GenericEntryService", "entry", entry);
        r
    }

    /// Register a service under a component name and unit type.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        unit_type: impl Into<String>,
        service: Arc<dyn UnitService>,
    ) {
        self.by_name.insert(name.into(), Arc::clone(&service));
        self.by_type.insert(unit_type.into(), service);
    }

    /// Register a user override by component name only (§6).
    pub fn register_override(&mut self, name: impl Into<String>, service: Arc<dyn UnitService>) {
        self.by_name.insert(name.into(), service);
    }

    /// Resolve the component for a descriptor: by component name first,
    /// then by unit type.
    pub fn resolve(&self, desc: &UnitDescriptor) -> Result<Arc<dyn UnitService>> {
        self.by_name
            .get(&desc.service)
            .or_else(|| self.by_type.get(&desc.unit_type))
            .cloned()
            .ok_or_else(|| MvcError::NoService(desc.service.clone()))
    }

    /// Number of distinct registered service components (the "11 unit
    /// services" count of §8).
    pub fn service_count(&self) -> usize {
        self.by_name.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use descriptors::BeanProperty;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE volume (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL);
             CREATE TABLE issue (oid INTEGER PRIMARY KEY AUTOINCREMENT, number INTEGER, volume_oid INTEGER);
             CREATE INDEX ix ON issue (volume_oid);",
        )
        .unwrap();
        for i in 1..=3 {
            db.execute(
                "INSERT INTO volume (title) VALUES (:t)",
                &Params::new().bind("t", format!("Vol {i}")),
            )
            .unwrap();
        }
        for v in 1..=3i64 {
            for n in 1..=2i64 {
                db.execute(
                    "INSERT INTO issue (number, volume_oid) VALUES (:n, :v)",
                    &Params::new().bind("n", n).bind("v", v),
                )
                .unwrap();
            }
        }
        db
    }

    fn desc(id: &str, unit_type: &str, service: &str, queries: Vec<QuerySpec>) -> UnitDescriptor {
        UnitDescriptor {
            id: id.into(),
            name: id.into(),
            unit_type: unit_type.into(),
            page: "page0".into(),
            entity_table: Some("volume".into()),
            queries,
            block_size: None,
            fields: vec![],
            optimized: false,
            service: service.into(),
            depends_on: vec!["volume".into()],
            cache: None,
        }
    }

    fn q(name: &str, sql: &str, inputs: &[&str]) -> QuerySpec {
        QuerySpec {
            name: name.into(),
            sql: sql.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            bean: vec![],
        }
    }

    #[test]
    fn data_service_returns_single() {
        let db = db();
        let d = desc(
            "u1",
            "data",
            "GenericDataService",
            vec![q(
                "main",
                "SELECT t.oid, t.title FROM volume t WHERE t.oid = :oid",
                &["oid"],
            )],
        );
        let mut p = ParamMap::new();
        p.insert("oid".into(), Value::Integer(2));
        let b = GenericDataService.compute(&d, &p, &db).unwrap();
        let UnitBean::Single {
            shape,
            row: Some(row),
        } = b
        else {
            panic!("expected single row")
        };
        assert_eq!(shape.get(&row, "title"), Some(&Value::Text("Vol 2".into())));
    }

    #[test]
    fn data_service_empty_on_no_match() {
        let db = db();
        let d = desc(
            "u1",
            "data",
            "GenericDataService",
            vec![q(
                "main",
                "SELECT t.oid FROM volume t WHERE t.oid = :oid",
                &["oid"],
            )],
        );
        let mut p = ParamMap::new();
        p.insert("oid".into(), Value::Integer(99));
        assert!(matches!(
            GenericDataService.compute(&d, &p, &db).unwrap(),
            UnitBean::Single { row: None, .. }
        ));
    }

    #[test]
    fn missing_parameter_is_reported() {
        let db = db();
        let d = desc(
            "u1",
            "data",
            "GenericDataService",
            vec![q(
                "main",
                "SELECT t.oid FROM volume t WHERE t.oid = :oid",
                &["oid"],
            )],
        );
        let err = GenericDataService
            .compute(&d, &ParamMap::new(), &db)
            .unwrap_err();
        assert!(matches!(err, MvcError::MissingParameter { .. }));
    }

    #[test]
    fn index_service_returns_all_rows() {
        let db = db();
        let d = desc(
            "u2",
            "index",
            "GenericIndexService",
            vec![q(
                "main",
                "SELECT t.oid, t.title FROM volume t ORDER BY t.oid",
                &[],
            )],
        );
        let b = GenericIndexService
            .compute(&d, &ParamMap::new(), &db)
            .unwrap();
        let UnitBean::Rows { rows, total, .. } = b else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(total, 3);
    }

    #[test]
    fn scroller_slices_blocks() {
        let db = db();
        let mut d = desc(
            "u3",
            "scroller",
            "GenericScrollerService",
            vec![q(
                "main",
                "SELECT t.oid FROM issue t ORDER BY t.oid LIMIT :block_limit OFFSET :block_offset",
                &["block_limit", "block_offset"],
            )],
        );
        d.block_size = Some(4);
        let mut p = ParamMap::new();
        p.insert("block_offset".into(), Value::Integer(4));
        let b = GenericScrollerService.compute(&d, &p, &db).unwrap();
        let UnitBean::Rows { shape, rows, total } = b else {
            panic!()
        };
        assert_eq!(total, 6);
        assert_eq!(rows.len(), 2); // last block of 6 with offset 4
        assert_eq!(shape.oid(&rows[0]), Some(5));
    }

    /// A scroller over `table` in blocks of `block`, asked for the block
    /// at `offset` (no `block_offset` parameter when `None`): the oids it
    /// shows and its total.
    fn scroll(
        db: &Database,
        table: &str,
        block: usize,
        offset: Option<Value>,
    ) -> (Vec<i64>, usize) {
        let mut d = desc(
            "u3",
            "scroller",
            "GenericScrollerService",
            vec![q(
                "main",
                &format!(
                    "SELECT t.oid, t.* FROM {table} t ORDER BY t.oid \
                     LIMIT :block_limit OFFSET :block_offset"
                ),
                &["block_limit", "block_offset"],
            )],
        );
        d.block_size = Some(block);
        let mut p = ParamMap::new();
        if let Some(offset) = offset {
            p.insert("block_offset".into(), offset);
        }
        let UnitBean::Rows { shape, rows, total } =
            GenericScrollerService.compute(&d, &p, db).unwrap()
        else {
            panic!("a scroller computes rows")
        };
        (rows.iter().filter_map(|r| shape.oid(r)).collect(), total)
    }

    #[test]
    fn scroller_offset_past_the_end_shows_no_rows_and_the_true_total() {
        let db = db();
        for offset in [
            Value::Integer(6),
            Value::Integer(1_000),
            Value::Integer(i64::MAX),
            Value::Text(usize::MAX.to_string().into()),
        ] {
            assert_eq!(
                scroll(&db, "issue", 4, Some(offset.clone())),
                (vec![], 6),
                "{offset:?}"
            );
        }
    }

    #[test]
    fn scroller_reads_negative_and_garbage_offsets_as_the_first_block() {
        let db = db();
        let first = (vec![1, 2, 3, 4], 6);
        assert_eq!(scroll(&db, "issue", 4, None), first);
        for offset in [
            Value::Integer(-4),
            Value::Integer(i64::MIN),
            Value::Text("abc".into()),
            Value::Text("-3".into()),
            Value::Real(4.0),
            Value::Null,
        ] {
            assert_eq!(
                scroll(&db, "issue", 4, Some(offset.clone())),
                first,
                "{offset:?}"
            );
        }
    }

    /// A 100-row scroller in blocks of 10 asks the store for its block:
    /// it projects and packs the 10 rows it shows, not the 90 it skips.
    #[test]
    fn scroller_allocates_for_its_shown_rows_only() {
        const ROWS: usize = 100;
        const BLOCK: usize = 10;
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL, \
             note TEXT);",
        )
        .unwrap();
        for i in 0..ROWS {
            db.execute(
                "INSERT INTO item (title, note) VALUES (:t, :n)",
                &Params::new()
                    .bind("t", format!("Item {i}"))
                    .bind("n", format!("note {i}")),
            )
            .unwrap();
        }
        let offset = Some(Value::Integer(40));
        // warm-up outside the measured window: parse + plan cache
        let warm = scroll(&db, "item", BLOCK, offset.clone());
        let (allocs, shown) =
            crate::alloc_counter::allocations_during(|| scroll(&db, "item", BLOCK, offset));
        assert_eq!(shown, warm);
        assert_eq!(shown, ((41..=50).collect(), ROWS));
        let bound = 3 * BLOCK + 64;
        assert!(
            allocs <= bound,
            "{allocs} allocations for a {BLOCK}-row block of {ROWS} rows (bound {bound}): \
             the scroller projects rows it does not show"
        );
    }

    #[test]
    fn hierarchy_nests_children() {
        let db = db();
        let d = desc(
            "u4",
            "hierarchy",
            "GenericHierarchyService",
            vec![
                q(
                    "level0",
                    "SELECT t.oid, t.title FROM volume t ORDER BY t.oid",
                    &[],
                ),
                q(
                    "level1",
                    "SELECT t.oid, t.number FROM issue t WHERE t.volume_oid = :parent ORDER BY t.oid",
                    &["parent"],
                ),
            ],
        );
        let b = GenericHierarchyService
            .compute(&d, &ParamMap::new(), &db)
            .unwrap();
        let UnitBean::Nested { shapes, rows } = b else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].children.len(), 2);
        assert_eq!(
            shapes[1].get(&rows[0].children[0].row, "number"),
            Some(&Value::Integer(1))
        );
        // one shape per level, shared by the children of every parent
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].names().len(), 2);
    }

    #[test]
    fn bean_shape_renames_columns() {
        let db = db();
        let d = desc(
            "u5",
            "data",
            "GenericDataService",
            vec![QuerySpec {
                name: "main".into(),
                sql: "SELECT t.oid, t.title FROM volume t WHERE t.oid = :oid".into(),
                inputs: vec!["oid".into()],
                bean: vec![BeanProperty {
                    name: "displayTitle".into(),
                    column: "title".into(),
                    attr_type: "String".into(),
                }],
            }],
        );
        let mut p = ParamMap::new();
        p.insert("oid".into(), Value::Integer(1));
        let UnitBean::Single {
            shape,
            row: Some(row),
        } = GenericDataService.compute(&d, &p, &db).unwrap()
        else {
            panic!()
        };
        assert_eq!(row.len(), 1);
        assert_eq!(
            shape.get(&row, "displayTitle"),
            Some(&Value::Text("Vol 1".into()))
        );
    }

    #[test]
    fn one_column_may_feed_two_properties() {
        let db = db();
        let prop = |name: &str, column: &str| BeanProperty {
            name: name.into(),
            column: column.into(),
            attr_type: "String".into(),
        };
        let d = desc(
            "u6",
            "index",
            "GenericIndexService",
            vec![QuerySpec {
                name: "main".into(),
                sql: "SELECT t.oid, t.title FROM volume t ORDER BY t.oid".into(),
                inputs: vec![],
                bean: vec![
                    prop("heading", "title"),
                    prop("oid", "oid"),
                    prop("caption", "title"),
                    prop("missing", "nope"),
                ],
            }],
        );
        let UnitBean::Rows { shape, rows, total } = GenericIndexService
            .compute(&d, &ParamMap::new(), &db)
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(total, 3);
        let vol = Value::Text("Vol 3".into());
        assert_eq!(shape.get(&rows[2], "heading"), Some(&vol));
        assert_eq!(shape.get(&rows[2], "caption"), Some(&vol));
        assert_eq!(shape.oid(&rows[2]), Some(3));
        assert_eq!(shape.get(&rows[2], "missing"), Some(&Value::Null));
        // the names live once, in the shape: a row is its cells
        assert_eq!(shape.shown(), &[0, 2, 3]);
        assert!(rows.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn block_offset_reads_negative_and_non_integers_as_zero() {
        for (raw, want) in [
            (Value::Integer(20), 20),
            (Value::Integer(-10), 0),
            (Value::Text("abc".into()), 0),
            (Value::Real(1e3), 0),
            (Value::Null, 0),
        ] {
            let mut p = ParamMap::new();
            p.insert("block_offset".into(), raw.clone());
            assert_eq!(block_offset(&p), want, "{raw:?}");
        }
        assert_eq!(block_offset(&ParamMap::new()), 0);
    }

    #[test]
    fn registry_resolves_and_overrides() {
        let mut r = ServiceRegistry::standard();
        let d = desc("u", "index", "GenericIndexService", vec![]);
        assert!(r.resolve(&d).is_ok());
        // unknown component name falls back to the unit type
        let d2 = desc("u", "index", "SomethingElse", vec![]);
        assert!(r.resolve(&d2).is_ok());
        // user override (§6)
        struct Custom;
        impl UnitService for Custom {
            fn compute(&self, _: &UnitDescriptor, _: &ParamMap, _: &Database) -> Result<UnitBean> {
                Ok(UnitBean::Raw("<custom/>".into()))
            }
        }
        r.register_override("MyTunedService", Arc::new(Custom));
        let d3 = desc("u", "index", "MyTunedService", vec![]);
        let db = db();
        assert_eq!(
            r.resolve(&d3)
                .unwrap()
                .compute(&d3, &ParamMap::new(), &db)
                .unwrap(),
            UnitBean::Raw("<custom/>".into())
        );
        // unknown type + unknown name fails
        let d4 = desc("u", "weird", "Nope", vec![]);
        assert!(matches!(r.resolve(&d4), Err(MvcError::NoService(_))));
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let mut a = ParamMap::new();
        a.insert("b".into(), Value::Integer(2));
        a.insert("a".into(), Value::Text("x".into()));
        assert_eq!(fingerprint(&a), "a=x&b=2&");
    }
}
