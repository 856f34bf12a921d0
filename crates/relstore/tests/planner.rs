//! Planner-path tests: hash joins for unindexed equi-joins, bounded
//! Top-K for `ORDER BY` + `LIMIT`, and the access-path counters that
//! report which path answered each query.

use proptest::prelude::*;
use relstore::{Database, Params, Value};

fn db_orders() -> Database {
    let db = Database::new();
    // `customer_ref` is deliberately NOT the PK and has NO index: joins on
    // it exercise the hash-join path, not the index-probe path.
    db.execute_script(
        "CREATE TABLE customer (oid INTEGER PRIMARY KEY AUTOINCREMENT, code INTEGER, name TEXT NOT NULL);
         CREATE TABLE orders (oid INTEGER PRIMARY KEY AUTOINCREMENT, customer_ref INTEGER, total REAL);",
    )
    .unwrap();
    db
}

fn ints(rs: &relstore::ResultSet, col: &str) -> Vec<i64> {
    (0..rs.len())
        .map(|i| match rs.get(i, col) {
            Some(Value::Integer(n)) => *n,
            other => panic!("{col}[{i}] = {other:?}"),
        })
        .collect()
}

// ---- hash join --------------------------------------------------------------

#[test]
fn hash_join_matches_filtered_cross_product() {
    let db = db_orders();
    for (code, name) in [(10, "ada"), (20, "bob"), (30, "cyd"), (10, "dup")] {
        db.execute(
            "INSERT INTO customer (code, name) VALUES (:c, :n)",
            &Params::new().bind("c", code).bind("n", name),
        )
        .unwrap();
    }
    for (cref, total) in [(10, 5.0), (10, 7.0), (20, 11.0), (99, 13.0)] {
        db.execute(
            "INSERT INTO orders (customer_ref, total) VALUES (:c, :t)",
            &Params::new().bind("c", cref).bind("t", total),
        )
        .unwrap();
    }
    let joined = db
        .query(
            "SELECT c.name, o.total FROM customer c \
             INNER JOIN orders o ON o.customer_ref = c.code \
             ORDER BY c.name, o.total",
            &Params::new(),
        )
        .unwrap();
    // ada and dup share code 10 (2 orders each), bob has one, cyd none,
    // order 99 matches nobody
    assert_eq!(joined.len(), 5);
    let names: Vec<String> = (0..joined.len())
        .map(|i| match joined.get(i, "name") {
            Some(Value::Text(t)) => t.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(names, ["ada", "ada", "bob", "dup", "dup"]);
    assert!(db.counters().hash_joins.get() >= 1, "hash join must engage");
}

#[test]
fn hash_join_skips_null_keys() {
    let db = db_orders();
    db.execute(
        "INSERT INTO customer (code, name) VALUES (NULL, 'nullc'), (1, 'one')",
        &Params::new(),
    )
    .unwrap();
    db.execute(
        "INSERT INTO orders (customer_ref, total) VALUES (NULL, 1.0), (1, 2.0)",
        &Params::new(),
    )
    .unwrap();
    // SQL: NULL = NULL is not true — only the (1, one) pair joins
    let rs = db
        .query(
            "SELECT c.name FROM customer c INNER JOIN orders o ON o.customer_ref = c.code",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.first("name"), Some(&Value::Text("one".into())));
    // LEFT JOIN keeps the null-keyed customer with a null extension
    let rs = db
        .query(
            "SELECT c.name, o.total FROM customer c LEFT JOIN orders o ON o.customer_ref = c.code \
             ORDER BY c.name",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get(0, "name"), Some(&Value::Text("nullc".into())));
    assert_eq!(rs.get(0, "total"), Some(&Value::Null));
}

#[test]
fn join_on_indexed_column_prefers_index_probe() {
    let db = db_orders();
    db.execute_script("CREATE INDEX ix_orders_cref ON orders (customer_ref);")
        .unwrap();
    db.execute(
        "INSERT INTO customer (code, name) VALUES (1, 'ada')",
        &Params::new(),
    )
    .unwrap();
    db.execute(
        "INSERT INTO orders (customer_ref, total) VALUES (1, 5.0)",
        &Params::new(),
    )
    .unwrap();
    let before = db.counters().hash_joins.get();
    let rs = db
        .query(
            "SELECT o.total FROM customer c INNER JOIN orders o ON o.customer_ref = c.code",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(db.counters().hash_joins.get(), before, "index beats hash");
    assert!(db.counters().index_probes.get() >= 1);
}

// ---- Top-K ------------------------------------------------------------------

fn db_seq(n: i64) -> Database {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER);")
        .unwrap();
    for i in 0..n {
        db.execute(
            "INSERT INTO t (k, v) VALUES (:k, :v)",
            &Params::new().bind("k", i).bind("v", (i * 7919) % 101),
        )
        .unwrap();
    }
    db
}

#[test]
fn topk_with_ordinal_order_by() {
    let db = db_seq(50);
    let rs = db
        .query(
            "SELECT v, k FROM t ORDER BY 1 DESC, 2 LIMIT 3",
            &Params::new(),
        )
        .unwrap();
    let full = db
        .query("SELECT v, k FROM t ORDER BY 1 DESC, 2", &Params::new())
        .unwrap();
    assert_eq!(ints(&rs, "v"), ints(&full, "v")[..3]);
    assert_eq!(ints(&rs, "k"), ints(&full, "k")[..3]);
    assert!(db.counters().topk_shortcuts.get() >= 1, "Top-K must engage");
}

#[test]
fn topk_with_alias_order_by() {
    let db = db_seq(40);
    let rs = db
        .query(
            "SELECT v AS score FROM t ORDER BY score DESC LIMIT 5",
            &Params::new(),
        )
        .unwrap();
    let full = db
        .query(
            "SELECT v AS score FROM t ORDER BY score DESC",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(ints(&rs, "score"), ints(&full, "score")[..5]);
}

#[test]
fn topk_null_ordering_matches_full_sort() {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER);")
        .unwrap();
    for i in 0..20i64 {
        if i % 3 == 0 {
            db.execute(
                "INSERT INTO t (k, v) VALUES (:k, NULL)",
                &Params::new().bind("k", i),
            )
            .unwrap();
        } else {
            db.execute(
                "INSERT INTO t (k, v) VALUES (:k, :v)",
                &Params::new().bind("k", i).bind("v", 100 - i),
            )
            .unwrap();
        }
    }
    for dir in ["ASC", "DESC"] {
        let top = db
            .query(
                &format!("SELECT k, v FROM t ORDER BY v {dir}, k LIMIT 4"),
                &Params::new(),
            )
            .unwrap();
        let full = db
            .query(
                &format!("SELECT k, v FROM t ORDER BY v {dir}, k"),
                &Params::new(),
            )
            .unwrap();
        assert_eq!(ints(&top, "k"), ints(&full, "k")[..4], "dir={dir}");
    }
}

#[test]
fn offset_beyond_result_yields_empty() {
    let db = db_seq(10);
    let rs = db
        .query(
            "SELECT k FROM t ORDER BY k LIMIT 5 OFFSET 10",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 0);
    let rs = db
        .query(
            "SELECT k FROM t ORDER BY k LIMIT 5 OFFSET 1000",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 0);
}

#[test]
fn limit_zero_yields_empty() {
    let db = db_seq(10);
    let rs = db
        .query("SELECT k FROM t ORDER BY k DESC LIMIT 0", &Params::new())
        .unwrap();
    assert_eq!(rs.len(), 0);
    let rs = db
        .query(
            "SELECT k FROM t ORDER BY k LIMIT 0 OFFSET 3",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 0);
}

#[test]
fn topk_is_stable_like_full_sort() {
    // many duplicate keys: the bounded heap must keep the same rows a
    // stable full sort keeps
    let db = Database::new();
    db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER);")
        .unwrap();
    for i in 0..30i64 {
        db.execute(
            "INSERT INTO t (k, g) VALUES (:k, :g)",
            &Params::new().bind("k", i).bind("g", i % 3),
        )
        .unwrap();
    }
    let top = db
        .query(
            "SELECT k, g FROM t ORDER BY g LIMIT 7 OFFSET 2",
            &Params::new(),
        )
        .unwrap();
    let full = db
        .query("SELECT k, g FROM t ORDER BY g", &Params::new())
        .unwrap();
    assert_eq!(ints(&top, "k"), ints(&full, "k")[2..9]);
}

// ---- property: Top-K ≡ sort-then-slice ≡ a model ordering --------------------

/// How each ORDER BY form of the property below is resolved, and the key
/// it sorts by, computed from an inserted `(k, v, s)` row.
type ModelKey = (Option<i64>, Option<String>);
type KeyOf = fn(i64, Option<i64>, &Option<String>) -> ModelKey;
const ORDER_KEYS: [(&str, KeyOf); 7] = [
    // an alias, and the ordinal of the same output column
    ("w", |_, v, _| (v.map(|v| v * 2), None)),
    ("1", |_, v, _| (v.map(|v| v * 2), None)),
    // the projected column, bare and qualified
    ("s", |_, _, s| (None, s.clone())),
    ("t.s", |_, _, s| (None, s.clone())),
    // a column that is not projected, bare and qualified
    ("v", |_, v, _| (v, None)),
    ("t.v", |_, v, _| (v, None)),
    // an expression
    ("v - k", |k, v, _| (v.map(|v| v - k), None)),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Top-K selection equals a full sort followed by a slice, and both
    /// equal a stable ordering computed here from the inserted rows — for
    /// every way an ORDER BY key resolves (alias, ordinal, projected
    /// column, column not projected, expression), with an expression item
    /// beside a column item, with and without DISTINCT.
    #[test]
    fn topk_equals_sort_then_slice(
        vals in proptest::collection::vec(
            (proptest::option::of(0i64..20), proptest::option::of("[ab]{0,2}")),
            0..40,
        ),
        limit in 0usize..12,
        offset in 0usize..12,
        desc in any::<bool>(),
        key in 0usize..ORDER_KEYS.len(),
        distinct in any::<bool>(),
    ) {
        let db = Database::new();
        db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, s TEXT);").unwrap();
        for (i, (v, s)) in vals.iter().enumerate() {
            db.execute(
                "INSERT INTO t (k, v, s) VALUES (:k, :v, :s)",
                &Params::new()
                    .bind("k", i as i64)
                    .bind("v", v.map_or(Value::Null, Value::Integer))
                    .bind("s", s.clone().map_or(Value::Null, Value::Text)),
            )
            .unwrap();
        }
        let (order, model_key) = ORDER_KEYS[key];
        let dir = if desc { "DESC" } else { "ASC" };
        let select = if distinct { "SELECT DISTINCT" } else { "SELECT" };
        let sql = format!("{select} v * 2 AS w, s FROM t ORDER BY {order} {dir}");
        let top = db
            .query(&format!("{sql} LIMIT {limit} OFFSET {offset}"), &Params::new())
            .unwrap();
        let full = db.query(&sql, &Params::new()).unwrap();

        // the model: stable sort by key, project, dedupe, slice
        let mut order_of: Vec<usize> = (0..vals.len()).collect();
        order_of.sort_by(|&a, &b| {
            let ka = model_key(a as i64, vals[a].0, &vals[a].1);
            let kb = model_key(b as i64, vals[b].0, &vals[b].1);
            if desc { kb.cmp(&ka) } else { ka.cmp(&kb) }
        });
        let mut expected: Vec<Vec<Value>> = order_of
            .iter()
            .map(|&i| {
                vec![
                    vals[i].0.map_or(Value::Null, |v| Value::Integer(v * 2)),
                    vals[i].1.clone().map_or(Value::Null, Value::Text),
                ]
            })
            .collect();
        if distinct {
            let mut seen = Vec::new();
            expected.retain(|r| {
                let first = !seen.contains(r);
                seen.push(r.clone());
                first
            });
        }
        prop_assert_eq!(full.rows(), &expected[..]);
        let sliced: Vec<Vec<Value>> = expected.into_iter().skip(offset).take(limit).collect();
        prop_assert_eq!(top.rows(), &sliced[..]);
    }
}

// ---- counters ---------------------------------------------------------------

#[test]
fn scan_fallback_counter_fires_on_unindexed_filter() {
    let db = db_seq(5);
    let before = db.counters().scan_fallbacks.get();
    db.query("SELECT k FROM t WHERE v > 3", &Params::new())
        .unwrap();
    assert!(db.counters().scan_fallbacks.get() > before);
}

#[test]
fn fk_checks_agree_with_and_without_index() {
    // same scenario twice: cascade + restrict must behave identically
    // whether the FK column is indexed (index probe) or not (scan)
    let run = |indexed: bool| -> (usize, usize) {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE parent (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT);
             CREATE TABLE child (oid INTEGER PRIMARY KEY AUTOINCREMENT, parent_oid INTEGER,
                                 CONSTRAINT fk FOREIGN KEY (parent_oid) REFERENCES parent (oid) ON DELETE CASCADE);",
        )
        .unwrap();
        if indexed {
            db.execute_script("CREATE INDEX ix_child_parent ON child (parent_oid);")
                .unwrap();
        }
        db.execute(
            "INSERT INTO parent (name) VALUES ('a'), ('b')",
            &Params::new(),
        )
        .unwrap();
        db.execute(
            "INSERT INTO child (parent_oid) VALUES (1), (1), (2)",
            &Params::new(),
        )
        .unwrap();
        // insert referencing a missing parent must fail either way
        assert!(db
            .execute("INSERT INTO child (parent_oid) VALUES (99)", &Params::new())
            .is_err());
        db.execute("DELETE FROM parent WHERE oid = 1", &Params::new())
            .unwrap();
        (
            db.table_len("parent").unwrap(),
            db.table_len("child").unwrap(),
        )
    };
    assert_eq!(run(false), run(true));
    assert_eq!(run(true), (1, 1));
}
