//! Property-based tests of the storage engine against simple oracles.

use proptest::prelude::*;
use relstore::{Column, DataType, Database, Params, TableSchema, Value};

// ---- LIKE matcher vs a reference implementation ---------------------------

/// Reference LIKE: dynamic programming over chars (case-insensitive).
fn like_oracle(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        if p[j - 1] == '%' {
            dp[0][j] = dp[0][j - 1];
        }
    }
    for i in 1..=t.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i][j - 1] || dp[i - 1][j],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && t[i - 1] == c,
            };
        }
    }
    dp[t.len()][p.len()]
}

proptest! {
    #[test]
    fn like_matches_oracle(
        text in "[a-c%_]{0,8}",
        pattern in "[a-c%_]{0,6}",
    ) {
        prop_assert_eq!(
            relstore::expr::like_match(&text, &pattern),
            like_oracle(&text, &pattern),
            "text={:?} pattern={:?}", text, pattern
        );
    }

    #[test]
    fn like_percent_matches_everything(text in ".{0,20}") {
        prop_assert!(relstore::expr::like_match(&text, "%"));
    }
}

// ---- Value ordering is a total order ---------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        (-1e12f64..1e12f64).prop_map(Value::Real),
        "[a-z]{0,6}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

proptest! {
    #[test]
    fn value_order_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // antisymmetry
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // transitivity (for the sortable subset)
        if ab != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // sorting never panics
        let mut v = [a, b, c];
        v.sort();
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let b = a.clone();
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        prop_assert_eq!(h1.finish(), h2.finish());
    }
}

// ---- CREATE TABLE round trip -----------------------------------------------

fn arb_schema() -> impl Strategy<Value = TableSchema> {
    let col_type = prop_oneof![
        Just(DataType::Integer),
        Just(DataType::Real),
        Just(DataType::Text),
        Just(DataType::Boolean),
        Just(DataType::Timestamp),
    ];
    proptest::collection::vec(("[a-z][a-z0-9]{0,6}", col_type, any::<bool>()), 1..6).prop_map(
        |cols| {
            let mut schema = TableSchema::new("t");
            let mut seen = std::collections::HashSet::new();
            for (name, dt, not_null) in cols {
                if !seen.insert(name.clone()) {
                    continue;
                }
                let mut c = Column::new(name, dt);
                if not_null {
                    c = c.not_null();
                }
                schema = schema.column(c);
            }
            let first = schema.columns[0].name.clone();
            schema.primary_key(&[first.as_str()])
        },
    )
}

proptest! {
    #[test]
    fn create_table_sql_round_trips(schema in arb_schema()) {
        let sql = schema.to_create_sql();
        let stmt = relstore::parse_statement(&sql).unwrap();
        let relstore::Statement::CreateTable(parsed) = stmt else {
            return Err(TestCaseError::fail("not a CREATE TABLE"));
        };
        prop_assert_eq!(parsed, schema);
    }
}

// ---- model-based CRUD against a Vec oracle ---------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    DeleteWhereKeyLt(i64),
    UpdateScore(i64, i64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0i64..50, "[a-z]{1,4}").prop_map(|(k, s)| Op::Insert(k, s)),
            (0i64..50).prop_map(Op::DeleteWhereKeyLt),
            (0i64..50, 0i64..100).prop_map(|(k, v)| Op::UpdateScore(k, v)),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn crud_matches_vec_oracle(ops in arb_ops()) {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, name TEXT NOT NULL, score INTEGER);
             CREATE INDEX ix_score ON t (score);",
        )
        .unwrap();
        // oracle: (k, name, score)
        let mut oracle: Vec<(i64, String, i64)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(k, name) => {
                    let res = db.execute(
                        "INSERT INTO t (k, name, score) VALUES (:k, :n, 0)",
                        &Params::new().bind("k", *k).bind("n", name.clone()),
                    );
                    let dup = oracle.iter().any(|(ok, ..)| ok == k);
                    if dup {
                        prop_assert!(res.is_err(), "duplicate key accepted");
                    } else {
                        prop_assert!(res.is_ok());
                        oracle.push((*k, name.clone(), 0));
                    }
                }
                Op::DeleteWhereKeyLt(k) => {
                    let n = db
                        .execute(
                            "DELETE FROM t WHERE k < :k",
                            &Params::new().bind("k", *k),
                        )
                        .unwrap()
                        .affected();
                    let before = oracle.len();
                    oracle.retain(|(ok, ..)| ok >= k);
                    prop_assert_eq!(n, before - oracle.len());
                }
                Op::UpdateScore(k, v) => {
                    let n = db
                        .execute(
                            "UPDATE t SET score = :v WHERE k = :k",
                            &Params::new().bind("k", *k).bind("v", *v),
                        )
                        .unwrap()
                        .affected();
                    let mut hits = 0;
                    for row in oracle.iter_mut() {
                        if row.0 == *k {
                            row.2 = *v;
                            hits += 1;
                        }
                    }
                    prop_assert_eq!(n, hits);
                }
            }
        }
        // final state identical, in key order
        let rs = db
            .query("SELECT k, name, score FROM t ORDER BY k", &Params::new())
            .unwrap();
        oracle.sort_by_key(|(k, ..)| *k);
        prop_assert_eq!(rs.len(), oracle.len());
        for (i, (k, name, score)) in oracle.iter().enumerate() {
            prop_assert_eq!(rs.get(i, "k"), Some(&Value::Integer(*k)));
            prop_assert_eq!(rs.get(i, "name"), Some(&Value::Text(name.as_str().into())));
            prop_assert_eq!(rs.get(i, "score"), Some(&Value::Integer(*score)));
        }
        // index probe agrees with scan for every distinct score
        for (_, _, score) in &oracle {
            let probed = db
                .query(
                    "SELECT COUNT(*) AS n FROM t WHERE score = :s",
                    &Params::new().bind("s", *score),
                )
                .unwrap();
            let expected = oracle.iter().filter(|(.., s)| s == score).count() as i64;
            prop_assert_eq!(probed.first("n"), Some(&Value::Integer(expected)));
        }
    }

    #[test]
    fn limit_offset_windows_correctly(
        n in 0usize..30,
        limit in 0usize..10,
        offset in 0usize..35,
    ) {
        let db = Database::new();
        db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY);").unwrap();
        for i in 0..n {
            db.execute(
                "INSERT INTO t (k) VALUES (:k)",
                &Params::new().bind("k", i as i64),
            )
            .unwrap();
        }
        let rs = db
            .query(
                &format!("SELECT k FROM t ORDER BY k LIMIT {limit} OFFSET {offset}"),
                &Params::new(),
            )
            .unwrap();
        let expected: Vec<i64> = (0..n as i64).skip(offset).take(limit).collect();
        prop_assert_eq!(rs.len(), expected.len());
        for (i, k) in expected.iter().enumerate() {
            prop_assert_eq!(rs.get(i, "k"), Some(&Value::Integer(*k)));
        }
    }

    #[test]
    fn transactions_are_all_or_nothing(rows in 1usize..10, fail_at in 0usize..10) {
        let db = Database::new();
        db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY);").unwrap();
        let result: relstore::Result<()> = db.transaction(|tx| {
            for i in 0..rows {
                if i == fail_at {
                    return Err(relstore::Error::Eval("injected".into()));
                }
                tx.execute(
                    "INSERT INTO t (k) VALUES (:k)",
                    &Params::new().bind("k", i as i64),
                )?;
            }
            Ok(())
        });
        let len = db.table_len("t").unwrap();
        if result.is_ok() {
            prop_assert_eq!(len, rows);
        } else {
            prop_assert_eq!(len, 0);
        }
    }
}
