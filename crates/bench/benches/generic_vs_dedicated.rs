//! E3 (Fig. 5, §4): does replacing thousands of dedicated unit services
//! with one generic, descriptor-driven service per unit *type* cost
//! anything at runtime?
//!
//! The dedicated baseline is what a hand-coded unit service compiles to:
//! the SQL is a constant, the binding code is monomorphic, the bean shape
//! is hardwired. The generic service interprets the descriptor on every
//! call. The paper's bet is that the interpretation overhead is noise
//! compared to query execution — this bench verifies that.

use criterion::{criterion_group, criterion_main, Criterion};
use descriptors::{QuerySpec, UnitDescriptor};
use mvc::{BeanRow, ParamMap, ServiceRegistry, Shape, UnitBean};
use relstore::{Database, Params, Value};
use std::hint::black_box;
use std::sync::Arc;

fn database(rows: i64, counters: Arc<obs::DbCounters>) -> Database {
    let db = Database::with_counters(counters);
    db.execute_script(
        "CREATE TABLE product (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, price REAL, category_oid INTEGER);
         CREATE INDEX ix_cat ON product (category_oid);",
    )
    .unwrap();
    for i in 0..rows {
        db.execute(
            "INSERT INTO product (name, price, category_oid) VALUES (:n, :p, :c)",
            &Params::new()
                .bind("n", format!("Product {i}"))
                .bind("p", (i % 90) as f64 + 0.99)
                .bind("c", i % 10),
        )
        .unwrap();
    }
    db
}

fn descriptor() -> UnitDescriptor {
    UnitDescriptor {
        id: "unit0".into(),
        name: "Products by category".into(),
        unit_type: "index".into(),
        page: "page0".into(),
        entity_table: Some("product".into()),
        queries: vec![QuerySpec {
            name: "main".into(),
            sql: "SELECT t.oid, t.name, t.price FROM product t WHERE t.category_oid = :cat ORDER BY t.name"
                .into(),
            inputs: vec!["cat".into()],
            bean: vec![],
        }],
        block_size: None,
        fields: vec![],
        optimized: false,
        service: "GenericIndexService".into(),
        depends_on: vec!["product".into()],
        cache: None,
    }
}

/// The hand-written "dedicated service": everything the descriptor would
/// say is inlined as constants and monomorphic code.
fn dedicated_compute(db: &Database, cat: i64) -> UnitBean {
    const SQL: &str =
        "SELECT t.oid, t.name, t.price FROM product t WHERE t.category_oid = :cat ORDER BY t.name";
    let rs = db.query(SQL, &Params::new().bind("cat", cat)).unwrap();
    let oid_c = rs.column_index("oid").unwrap();
    let name_c = rs.column_index("name").unwrap();
    let price_c = rs.column_index("price").unwrap();
    let shape = Arc::new(Shape::new(["oid", "name", "price"]));
    let rows: Vec<BeanRow> = rs
        .into_rows()
        .into_iter()
        .map(|mut r| {
            vec![
                std::mem::replace(&mut r[oid_c], Value::Null),
                std::mem::replace(&mut r[name_c], Value::Null),
                std::mem::replace(&mut r[price_c], Value::Null),
            ]
        })
        .collect();
    let total = rows.len();
    UnitBean::Rows { shape, rows, total }
}

fn bench(c: &mut Criterion) {
    // Both paths report into the same observability registry, so the plan
    // cache economics of the run are visible after the measurement.
    let reg = obs::MetricsRegistry::new();
    let db = database(1000, Arc::clone(&reg.db));
    let desc = descriptor();
    // deploy-time plan pinning: the shared query plan is resolved once
    db.pin_plan(&desc.queries[0].sql).unwrap();
    let registry = ServiceRegistry::standard();
    let service = registry.resolve(&desc).unwrap();
    let mut params = ParamMap::new();
    params.insert("cat".into(), Value::Integer(3));

    // sanity: both paths produce the same bean
    let generic = service.compute(&desc, &params, &db).unwrap();
    let dedicated = dedicated_compute(&db, 3);
    assert_eq!(generic, dedicated);

    let mut group = c.benchmark_group("E3_generic_vs_dedicated");
    group.bench_function("dedicated_unit_service", |b| {
        b.iter(|| black_box(dedicated_compute(&db, black_box(3))))
    });
    group.bench_function("generic_unit_service", |b| {
        b.iter(|| black_box(service.compute(&desc, &params, &db).unwrap()))
    });
    // registry lookup included (what the page service actually does)
    group.bench_function("generic_with_registry_resolve", |b| {
        b.iter(|| {
            let s = registry.resolve(&desc).unwrap();
            black_box(s.compute(&desc, &params, &db).unwrap())
        })
    });
    group.finish();

    eprintln!(
        "[obs] E3: prepares={} plan_cache_hits={} statements={} rows_scanned={}",
        reg.db.prepares.get(),
        reg.db.plan_cache_hits.get(),
        reg.db.statements_executed.get(),
        reg.db.rows_scanned.get(),
    );
    assert!(
        reg.db.plan_cache_hits.get() > reg.db.prepares.get(),
        "pinned plan should spare almost every prepare"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
