//! Planner-path tests: hash joins for unindexed equi-joins, bounded
//! Top-K for `ORDER BY` + `LIMIT`, index-ordered scans in place of a sort,
//! and the access-path counters that report which path answered each
//! query.

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
            Some(Value::Text(t)) => t.to_string(),
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

// ---- property: index order ≡ Top-K ≡ sort-then-slice ≡ a model ordering -----

/// How each ORDER BY form of the property below is resolved, the key it
/// sorts by (computed from a stored `(k, v, s)` row), and the columns of
/// the index that answers it in key order, when one can.
type ModelKey = (Option<i64>, Option<String>);
type KeyOf = fn(i64, Option<i64>, &Option<String>) -> ModelKey;
const ORDER_KEYS: [(&str, KeyOf, Option<&str>); 8] = [
    // an alias, and the ordinal of the same output column (an expression)
    ("w", |_, v, _| (v.map(|v| v * 2), None), None),
    ("1", |_, v, _| (v.map(|v| v * 2), None), None),
    // the projected column, bare and qualified
    ("s", |_, _, s| (None, s.clone()), Some("s")),
    ("t.s", |_, _, s| (None, s.clone()), Some("s")),
    // a column that is not projected, bare and qualified
    ("v", |_, v, _| (v, None), Some("v")),
    ("t.v", |_, v, _| (v, None), Some("v")),
    // an expression
    ("v - k", |k, v, _| (v.map(|v| v - k), None), None),
    // two columns, both in the statement's direction
    ("t.v, s", |_, v, s| (v, s.clone()), Some("v, s")),
];

/// `(k, v, s)` of every stored row of `t`, in scan (slot) order.
fn stored_rows(db: &Database) -> Vec<(i64, Option<i64>, Option<String>)> {
    db.dump()["t"]
        .0
        .iter()
        .map(|(_, row)| match &row[..] {
            [Value::Integer(k), v, s] => (
                *k,
                match v {
                    Value::Integer(v) => Some(*v),
                    _ => None,
                },
                match s {
                    Value::Text(s) => Some(s.to_string()),
                    _ => None,
                },
            ),
            other => panic!("unexpected row {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// An index walk, Top-K selection and a full sort followed by a slice
    /// all equal a stable ordering computed here from the stored rows, ties
    /// in scan order — for every way an ORDER BY key resolves (alias,
    /// ordinal, projected column, column not projected, expression, two
    /// columns), ASC and DESC, with and without DISTINCT, over no join, an
    /// inner join and a left join. Rows are inserted, updated and deleted
    /// in random interleavings, so freed slots are reused and scan order is
    /// not key order; keys repeat and may be NULL. When an index exists on
    /// exactly the ORDER BY columns it must answer the order (counted, and
    /// not as a scan fallback); otherwise the rows are scanned and sorted.
    #[test]
    fn topk_equals_sort_then_slice(
        ops in proptest::collection::vec(
            (
                0u8..4,
                proptest::option::of(0i64..8),
                proptest::option::of("[ab]{0,2}"),
                0usize..64,
            ),
            0..48,
        ),
        links in proptest::collection::vec(0i64..16, 0..12),
        limit in 0usize..12,
        offset in 0usize..12,
        desc in any::<bool>(),
        key in 0usize..ORDER_KEYS.len(),
        distinct in any::<bool>(),
        join in 0usize..3,
        indexed in any::<bool>(),
        index_late in any::<bool>(),
    ) {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, s TEXT);
             CREATE TABLE u (uid INTEGER PRIMARY KEY, tk INTEGER);",
        )
        .unwrap();
        let (order, model_key, index_columns) = ORDER_KEYS[key];
        // without an index on the ORDER BY columns, an index elsewhere must
        // not be taken for one
        let index = format!("CREATE INDEX ix_t ON t ({});", index_columns.unwrap_or("s"));
        if indexed && !index_late {
            db.execute_script(&index).unwrap();
        }
        let (mut live, mut next_k) = (Vec::new(), 0i64);
        for (op, v, s, pick) in &ops {
            let row = Params::new()
                .bind("v", v.map_or(Value::Null, Value::Integer))
                .bind("s", s.clone().map_or(Value::Null, Value::from));
            match (op, live.len()) {
                (0 | 1, _) | (_, 0) => {
                    db.execute("INSERT INTO t (k, v, s) VALUES (:k, :v, :s)", &row.bind("k", next_k))
                        .unwrap();
                    live.push(next_k);
                    next_k += 1;
                }
                (2, n) => {
                    db.execute("UPDATE t SET v = :v, s = :s WHERE k = :k", &row.bind("k", live[pick % n]))
                        .unwrap();
                }
                (_, n) => {
                    let k = live.swap_remove(pick % n);
                    db.execute("DELETE FROM t WHERE k = :k", &Params::new().bind("k", k))
                        .unwrap();
                }
            }
        }
        if indexed && index_late {
            db.execute_script(&index).unwrap();
        }
        for (uid, tk) in links.iter().enumerate() {
            db.execute(
                "INSERT INTO u (uid, tk) VALUES (:u, :t)",
                &Params::new().bind("u", uid as i64).bind("t", *tk),
            )
            .unwrap();
        }

        let dir = if desc { "DESC" } else { "ASC" };
        let order_sql: Vec<String> = order.split(", ").map(|k| format!("{k} {dir}")).collect();
        let select = if distinct { "SELECT DISTINCT" } else { "SELECT" };
        let (uid, from) = match join {
            0 => ("", "t"),
            1 => (", u.uid", "t INNER JOIN u ON u.tk = t.k"),
            _ => (", u.uid", "t LEFT JOIN u ON u.tk = t.k"),
        };
        let sql = format!(
            "{select} v * 2 AS w, s{uid} FROM {from} ORDER BY {}",
            order_sql.join(", ")
        );
        let (orders, fallbacks) = (db.counters().index_orders.get(), db.counters().scan_fallbacks.get());
        let top = db
            .query(&format!("{sql} LIMIT {limit} OFFSET {offset}"), &Params::new())
            .unwrap();
        let full = db.query(&sql, &Params::new()).unwrap();
        let engaged = indexed && index_columns.is_some();
        prop_assert_eq!(db.counters().index_orders.get() - orders, if engaged { 2 } else { 0 });
        prop_assert_eq!(db.counters().scan_fallbacks.get() - fallbacks, if engaged { 0 } else { 2 });

        // the model: stable sort of the stored rows by key, join, project,
        // dedupe, slice
        let stored = stored_rows(&db);
        let mut order_of: Vec<usize> = (0..stored.len()).collect();
        order_of.sort_by(|&a, &b| {
            let ka = model_key(stored[a].0, stored[a].1, &stored[a].2);
            let kb = model_key(stored[b].0, stored[b].1, &stored[b].2);
            if desc { kb.cmp(&ka) } else { ka.cmp(&kb) }
        });
        let mut expected: Vec<Vec<Value>> = Vec::new();
        for &i in &order_of {
            let (k, v, s) = &stored[i];
            let projected = vec![
                v.map_or(Value::Null, |v| Value::Integer(v * 2)),
                s.clone().map_or(Value::Null, Value::from),
            ];
            if join == 0 {
                expected.push(projected);
                continue;
            }
            let matches: Vec<i64> = (0..links.len() as i64).filter(|&u| links[u as usize] == *k).collect();
            if matches.is_empty() && join == 2 {
                expected.push([&projected[..], &[Value::Null]].concat());
            }
            for u in matches {
                expected.push([&projected[..], &[Value::Integer(u)]].concat());
            }
        }
        if distinct {
            let mut seen = Vec::new();
            expected.retain(|r| {
                let first = !seen.contains(r);
                seen.push(r.clone());
                first
            });
        }
        prop_assert_eq!(full.rows(), &expected[..]);
        prop_assert_eq!(top.matched(), expected.len());
        let sliced: Vec<Vec<Value>> = expected.into_iter().skip(offset).take(limit).collect();
        prop_assert_eq!(top.rows(), &sliced[..]);
    }
}

/// An index answers the order only when its columns are exactly the ORDER
/// BY keys, every key a column of the base table, all in one direction,
/// and no WHERE probe picked the base rows; otherwise the rows are sorted
/// and the result is the one an unindexed table gives.
#[test]
fn index_order_needs_exactly_the_base_keys_in_one_direction() {
    let setup = |indexed: bool| {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, s TEXT);
             CREATE TABLE u (uid INTEGER PRIMARY KEY, tk INTEGER);",
        )
        .unwrap();
        if indexed {
            db.execute_script("CREATE INDEX ix_t_v_s ON t (v, s); CREATE INDEX ix_t_v ON t (v);")
                .unwrap();
        }
        for k in 0..12i64 {
            db.execute(
                "INSERT INTO t (k, v, s) VALUES (:k, :v, :s)",
                &Params::new()
                    .bind("k", k)
                    .bind("v", k % 3)
                    .bind("s", ["x", "y"][(k % 2) as usize]),
            )
            .unwrap();
            db.execute(
                "INSERT INTO u (uid, tk) VALUES (:u, :t)",
                &Params::new().bind("u", k).bind("t", 11 - k),
            )
            .unwrap();
        }
        db
    };
    let (plain, indexed) = (setup(false), setup(true));
    for (sql, engages) in [
        ("SELECT k FROM t ORDER BY v, s", true),
        ("SELECT k FROM t ORDER BY v DESC, s DESC LIMIT 5", true),
        ("SELECT k FROM t ORDER BY v", true),
        ("SELECT k FROM t ORDER BY v ASC, s DESC", false),
        ("SELECT k FROM t ORDER BY s, v", false),
        ("SELECT k FROM t ORDER BY v, s, k", false),
        (
            "SELECT t.k FROM t INNER JOIN u ON u.tk = t.k ORDER BY u.tk",
            false,
        ),
        ("SELECT k FROM t WHERE v = 1 ORDER BY v, s", false),
    ] {
        let before = indexed.counters().index_orders.get();
        let rs = indexed.query(sql, &Params::new()).unwrap();
        let used = indexed.counters().index_orders.get() - before;
        assert_eq!(used, u64::from(engages), "{sql}");
        assert_eq!(rs, plain.query(sql, &Params::new()).unwrap(), "{sql}");
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
