//! SQL conformance battery: small focused cases across the supported
//! subset, including the awkward corners the generated queries can hit.

use relstore::{Database, Error, Params, Value};

fn db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE dept (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL);
         CREATE TABLE emp (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL,
             salary REAL, active BOOLEAN DEFAULT TRUE, dept_oid INTEGER,
             CONSTRAINT fk_dept FOREIGN KEY (dept_oid) REFERENCES dept (oid));
         CREATE INDEX ix_emp_dept ON emp (dept_oid);
         CREATE UNIQUE INDEX ux_dept_name ON dept (name);",
    )
    .unwrap();
    for d in ["Sales", "Engineering", "Marketing"] {
        db.execute(
            "INSERT INTO dept (name) VALUES (:n)",
            &Params::new().bind("n", d),
        )
        .unwrap();
    }
    let rows = [
        ("Ada", 120.0, true, 2),
        ("Grace", 130.0, true, 2),
        ("Edsger", 110.0, false, 2),
        ("Tim", 90.0, true, 1),
        ("Vint", 95.0, true, 1),
        ("Don", 150.0, true, 3),
    ];
    for (n, s, a, d) in rows {
        db.execute(
            "INSERT INTO emp (name, salary, active, dept_oid) VALUES (:n, :s, :a, :d)",
            &Params::new()
                .bind("n", n)
                .bind("s", s)
                .bind("a", a)
                .bind("d", d as i64),
        )
        .unwrap();
    }
    db
}

#[test]
fn unique_index_via_sql_enforced() {
    let db = db();
    let err = db
        .execute("INSERT INTO dept (name) VALUES ('Sales')", &Params::new())
        .unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }));
}

#[test]
fn fk_restrict_refuses_delete_of_referenced_row() {
    let db = db();
    let err = db
        .execute("DELETE FROM dept WHERE oid = 2", &Params::new())
        .unwrap_err();
    assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    // unreferenced rows may go... all depts are referenced here, so detach
    db.execute(
        "UPDATE emp SET dept_oid = NULL WHERE dept_oid = 3",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(
        db.execute("DELETE FROM dept WHERE oid = 3", &Params::new())
            .unwrap()
            .affected(),
        1
    );
}

#[test]
fn boolean_defaults_and_filters() {
    let db = db();
    db.execute(
        "INSERT INTO emp (name, salary) VALUES ('Default', 1.0)",
        &Params::new(),
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT COUNT(*) AS n FROM emp WHERE active = TRUE",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("n"), Some(&Value::Integer(6))); // 5 seeded + default
}

#[test]
fn group_by_text_keys_with_having_and_aliases() {
    let db = db();
    let rs = db
        .query(
            "SELECT d.name AS dept, COUNT(*) AS headcount, AVG(e.salary) AS avg_sal \
             FROM emp e INNER JOIN dept d ON d.oid = e.dept_oid \
             GROUP BY d.name HAVING COUNT(*) >= 2 ORDER BY headcount DESC, dept",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get(0, "dept"), Some(&Value::Text("Engineering".into())));
    assert_eq!(rs.get(0, "headcount"), Some(&Value::Integer(3)));
    assert_eq!(rs.get(0, "avg_sal"), Some(&Value::Real(120.0)));
    assert_eq!(rs.get(1, "dept"), Some(&Value::Text("Sales".into())));
}

#[test]
fn aggregates_on_empty_input() {
    let db = db();
    let rs = db
        .query(
            "SELECT COUNT(*) AS n, SUM(salary) AS s, MIN(salary) AS mn, AVG(salary) AS a \
             FROM emp WHERE salary > 10000",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("n"), Some(&Value::Integer(0)));
    assert_eq!(rs.first("s"), Some(&Value::Null));
    assert_eq!(rs.first("mn"), Some(&Value::Null));
    assert_eq!(rs.first("a"), Some(&Value::Null));
}

#[test]
fn count_ignores_nulls_but_count_star_does_not() {
    let db = db();
    db.execute(
        "INSERT INTO emp (name, salary) VALUES ('NoSalary', NULL)",
        &Params::new(),
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT COUNT(*) AS stars, COUNT(salary) AS sals FROM emp",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("stars"), Some(&Value::Integer(7)));
    assert_eq!(rs.first("sals"), Some(&Value::Integer(6)));
}

#[test]
fn in_list_and_between_and_not() {
    let db = db();
    let rs = db
        .query(
            "SELECT name FROM emp WHERE dept_oid IN (1, 3) AND salary BETWEEN 90 AND 100 \
             ORDER BY name",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 2); // Tim, Vint
    let rs = db
        .query(
            "SELECT COUNT(*) AS n FROM emp WHERE name NOT LIKE '%a%'",
            &Params::new(),
        )
        .unwrap();
    // Ada/Grace contain 'a'; LIKE is case-insensitive so Ada matches too
    assert_eq!(rs.first("n"), Some(&Value::Integer(4)));
}

#[test]
fn expressions_and_concat_in_projection() {
    let db = db();
    let rs = db
        .query(
            "SELECT name || ' (' || salary || ')' AS label, salary * 1.1 AS raised \
             FROM emp WHERE oid = 1",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("label"), Some(&Value::Text("Ada (120.0)".into())));
    assert_eq!(rs.first("raised"), Some(&Value::Real(132.0)));
}

#[test]
fn update_with_in_subcondition_and_arithmetic() {
    let db = db();
    let n = db
        .execute(
            "UPDATE emp SET salary = salary + 10 WHERE dept_oid IN (1, 2)",
            &Params::new(),
        )
        .unwrap()
        .affected();
    assert_eq!(n, 5);
    let rs = db
        .query("SELECT salary FROM emp WHERE name = 'Tim'", &Params::new())
        .unwrap();
    assert_eq!(rs.first("salary"), Some(&Value::Real(100.0)));
}

#[test]
fn self_join_with_aliases() {
    let db = db();
    // colleagues in the same department, strictly ordered to avoid dupes
    let rs = db
        .query(
            "SELECT a.name AS x, b.name AS y FROM emp a \
             INNER JOIN emp b ON b.dept_oid = a.dept_oid \
             WHERE a.oid < b.oid ORDER BY x, y",
            &Params::new(),
        )
        .unwrap();
    // Engineering: C(3,2)=3 pairs; Sales: 1 pair; Marketing: 0
    assert_eq!(rs.len(), 4);
}

#[test]
fn left_join_counts_unmatched() {
    let db = db();
    db.execute("INSERT INTO dept (name) VALUES ('Empty')", &Params::new())
        .unwrap();
    let rs = db
        .query(
            "SELECT d.name, COUNT(e.oid) AS n FROM dept d \
             LEFT JOIN emp e ON e.dept_oid = d.oid \
             GROUP BY d.name ORDER BY n DESC, d.name",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    let empty_row = (0..rs.len())
        .find(|&i| rs.get(i, "name") == Some(&Value::Text("Empty".into())))
        .unwrap();
    assert_eq!(rs.get(empty_row, "n"), Some(&Value::Integer(0)));
}

#[test]
fn distinct_on_expressions() {
    let db = db();
    let rs = db
        .query(
            "SELECT DISTINCT active FROM emp ORDER BY active",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn scalar_functions_in_where() {
    let db = db();
    let rs = db
        .query(
            "SELECT name FROM emp WHERE UPPER(name) = 'ADA'",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    let rs = db
        .query(
            "SELECT name FROM emp WHERE LENGTH(name) <= 3 ORDER BY name",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 3); // Ada, Don, Tim
}

#[test]
fn type_mismatch_on_insert_reported() {
    let db = db();
    let err = db
        .execute(
            "INSERT INTO emp (name, salary) VALUES ('X', 'not-a-number')",
            &Params::new(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::TypeMismatch { .. }));
}

#[test]
fn unknown_references_are_precise_errors() {
    let db = db();
    assert!(matches!(
        db.query("SELECT * FROM ghost", &Params::new()).unwrap_err(),
        Error::UnknownTable(_)
    ));
    assert!(matches!(
        db.query("SELECT ghost FROM emp", &Params::new())
            .unwrap_err(),
        Error::UnknownColumn(_)
    ));
    assert!(matches!(
        db.query("SELECT name FROM emp WHERE oid = :missing", &Params::new())
            .unwrap_err(),
        Error::Parameter(_)
    ));
}

#[test]
fn order_by_multiple_keys_mixed_direction() {
    let db = db();
    let rs = db
        .query(
            "SELECT name, dept_oid FROM emp ORDER BY dept_oid DESC, name ASC",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.get(0, "name"), Some(&Value::Text("Don".into())));
    assert_eq!(rs.get(1, "name"), Some(&Value::Text("Ada".into())));
}

#[test]
fn limit_zero_and_huge_offset() {
    let db = db();
    assert_eq!(
        db.query("SELECT oid FROM emp LIMIT 0", &Params::new())
            .unwrap()
            .len(),
        0
    );
    assert_eq!(
        db.query("SELECT oid FROM emp LIMIT 10 OFFSET 100", &Params::new())
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn mysql_style_limit_comma() {
    let db = db();
    let rs = db
        .query(
            "SELECT oid FROM emp ORDER BY oid LIMIT 2, 3",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.first("oid"), Some(&Value::Integer(3)));
}

#[test]
fn qualified_wildcard_in_join() {
    let db = db();
    let rs = db
        .query(
            "SELECT e.*, d.name AS dept_name FROM emp e \
             INNER JOIN dept d ON d.oid = e.dept_oid WHERE e.oid = 1",
            &Params::new(),
        )
        .unwrap();
    assert!(rs.column_index("salary").is_some());
    assert_eq!(
        rs.first("dept_name"),
        Some(&Value::Text("Engineering".into()))
    );
}

#[test]
fn is_null_and_coalesce() {
    let db = db();
    db.execute(
        "INSERT INTO emp (name, salary) VALUES ('NullSal', NULL)",
        &Params::new(),
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT COALESCE(salary, 0) AS s FROM emp WHERE salary IS NULL",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("s"), Some(&Value::Integer(0)));
    let rs = db
        .query(
            "SELECT COUNT(*) AS n FROM emp WHERE salary IS NOT NULL",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.first("n"), Some(&Value::Integer(6)));
}

#[test]
fn drop_table_referenced_semantics() {
    let db = db();
    // our engine allows dropping (constraints live on the referencing
    // table); after dropping dept, emp inserts with dept_oid fail cleanly
    db.execute("DROP TABLE dept", &Params::new()).unwrap();
    let err = db
        .execute(
            "INSERT INTO emp (name, dept_oid) VALUES ('Orphan', 1)",
            &Params::new(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::UnknownTable(_)));
}

#[test]
fn comments_in_optimized_queries_are_tolerated() {
    // the §6 workflow appends /* hand-tuned */ markers to SQL
    let db = db();
    let rs = db
        .query(
            "SELECT oid FROM emp /* hand-tuned: forced index */ WHERE oid = 1 -- trailing",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
}

fn texts(rs: &relstore::ResultSet, col: &str) -> Vec<Option<String>> {
    (0..rs.len())
        .map(|i| match rs.get(i, col) {
            Some(Value::Text(t)) => Some(t.to_string()),
            Some(Value::Null) => None,
            other => panic!("{col}[{i}] = {other:?}"),
        })
        .collect()
}

#[test]
fn order_by_resolution_honours_aliases_before_columns() {
    let db = db();
    // each alias shadows the *other* column's name: ORDER BY names the
    // output column, not the table column
    let rs = db
        .query(
            "SELECT name AS salary, salary AS name FROM emp ORDER BY salary",
            &Params::new(),
        )
        .unwrap();
    let by_name = ["Ada", "Don", "Edsger", "Grace", "Tim", "Vint"];
    assert_eq!(texts(&rs, "salary"), by_name.map(|n| Some(n.to_string())));
    let rs = db
        .query(
            "SELECT name AS salary, salary AS name FROM emp ORDER BY name",
            &Params::new(),
        )
        .unwrap();
    let by_salary = ["Tim", "Vint", "Edsger", "Ada", "Grace", "Don"];
    assert_eq!(texts(&rs, "salary"), by_salary.map(|n| Some(n.to_string())));
    // a qualified reference is always the table column
    let rs = db
        .query(
            "SELECT e.name AS salary FROM emp e ORDER BY e.salary DESC",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.get(0, "salary"), Some(&Value::Text("Don".into())));
}

#[test]
fn order_by_resolution_errors_are_unchanged() {
    let db = db();
    for ordinal in [0, 3] {
        let err = db
            .query(
                &format!("SELECT name, salary FROM emp ORDER BY {ordinal}"),
                &Params::new(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Eval(m) if *m == format!("ORDER BY ordinal {ordinal} out of range")),
            "{err:?}"
        );
    }
    let joined = "FROM emp e INNER JOIN dept d ON d.oid = e.dept_oid";
    for sql in [
        format!("SELECT name {joined}"),
        format!("SELECT e.name AS who {joined} ORDER BY name"),
    ] {
        let err = db.query(&sql, &Params::new()).unwrap_err();
        assert!(
            matches!(&err, Error::UnknownColumn(m) if m == "name is ambiguous"),
            "{sql}: {err:?}"
        );
    }
    let err = db
        .query("SELECT name FROM emp ORDER BY ghost", &Params::new())
        .unwrap_err();
    assert!(matches!(err, Error::UnknownColumn(_)), "{err:?}");
    // resolution failures surface per row, as they always did: a
    // statement that produces no rows reports none
    assert!(db
        .query(
            "SELECT name FROM emp WHERE oid = 99 ORDER BY 7",
            &Params::new()
        )
        .is_ok());
}

#[test]
fn left_join_null_extension_is_projected_and_ordered() {
    let db = db();
    db.execute("INSERT INTO dept (name) VALUES ('Empty')", &Params::new())
        .unwrap();
    // the null-extended `e.name` is both an output column and the first
    // key; NULL sorts first. `e.salary` orders without being projected.
    let rs = db
        .query(
            "SELECT d.name AS dept, e.name FROM dept d \
             LEFT JOIN emp e ON e.dept_oid = d.oid \
             ORDER BY e.name, e.salary DESC, d.name",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(rs.len(), 7);
    assert_eq!(rs.get(0, "dept"), Some(&Value::Text("Empty".into())));
    assert_eq!(rs.get(0, "name"), Some(&Value::Null));
    assert_eq!(rs.get(1, "name"), Some(&Value::Text("Ada".into())));
    let rs = db
        .query(
            "SELECT d.name AS dept FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid \
             ORDER BY e.salary DESC, dept",
            &Params::new(),
        )
        .unwrap();
    let depts = texts(&rs, "dept");
    assert_eq!(depts.first(), Some(&Some("Marketing".to_string())));
    assert_eq!(depts.last(), Some(&Some("Empty".to_string())));
}

#[test]
fn matched_counts_the_rows_a_statement_returns_without_its_window() {
    let db = db();
    let bases = [
        "SELECT oid, name FROM emp ORDER BY name",
        "SELECT oid FROM emp",
        // a residual WHERE (no index answers `salary > 100`)
        "SELECT name FROM emp WHERE salary > 100 ORDER BY salary DESC",
        // an empty result
        "SELECT name FROM emp WHERE oid = 99 ORDER BY name",
        "SELECT e.name, d.name AS dept FROM emp e \
         INNER JOIN dept d ON d.oid = e.dept_oid ORDER BY d.name, e.name",
        "SELECT DISTINCT dept_oid FROM emp ORDER BY dept_oid",
        "SELECT DISTINCT active FROM emp",
        "SELECT dept_oid, COUNT(*) AS n FROM emp GROUP BY dept_oid ORDER BY n DESC, dept_oid",
    ];
    let windows: [(&str, usize, Option<usize>); 6] = [
        ("LIMIT 0", 0, Some(0)),
        ("LIMIT 2", 0, Some(2)),
        ("LIMIT 2 OFFSET 1", 1, Some(2)),
        ("LIMIT 10 OFFSET 100", 100, Some(10)),
        ("LIMIT 100 OFFSET 2", 2, Some(100)),
        ("LIMIT 1, 100", 1, Some(100)),
    ];
    for base in bases {
        let full = db.query(base, &Params::new()).unwrap();
        assert_eq!(full.matched(), full.len(), "{base}");
        for (window, offset, limit) in windows {
            let sql = format!("{base} {window}");
            let rs = db.query(&sql, &Params::new()).unwrap();
            assert_eq!(rs.matched(), full.len(), "{sql}");
            let expected: Vec<Vec<Value>> = full
                .rows()
                .iter()
                .skip(offset)
                .take(limit.unwrap_or(usize::MAX))
                .cloned()
                .collect();
            assert_eq!(rs.rows(), &expected[..], "{sql}");
        }
    }
}

#[test]
fn reference_errors_survive_a_window_that_cuts_every_row() {
    let db = db();
    let joined = "FROM emp e INNER JOIN dept d ON d.oid = e.dept_oid";
    for window in ["", "LIMIT 0", "LIMIT 3 OFFSET 100"] {
        let failures = [
            format!("SELECT ghost FROM emp ORDER BY oid {window}"),
            format!("SELECT UPPER(ghost) AS g FROM emp ORDER BY oid {window}"),
            format!("SELECT x.name || '!' AS n FROM emp ORDER BY oid {window}"),
            format!("SELECT name || '!' AS n {joined} ORDER BY e.oid {window}"),
            format!("SELECT name FROM emp ORDER BY 3 {window}"),
            format!("SELECT :missing AS p FROM emp ORDER BY oid {window}"),
        ];
        for sql in &failures {
            let err = db.query(sql, &Params::new()).unwrap_err();
            assert!(
                matches!(
                    &err,
                    Error::UnknownColumn(_) | Error::UnknownTable(_) | Error::Parameter(_)
                ) || matches!(&err, Error::Eval(m) if m == "ORDER BY ordinal 3 out of range"),
                "{sql}: {err:?}"
            );
            // the same statement over an empty result reports nothing
            let empty = sql.replace("ORDER BY", "WHERE 1 = 0 ORDER BY");
            assert!(db.query(&empty, &Params::new()).is_ok(), "{empty}");
        }
        let err = db
            .query(
                &format!("SELECT name || '!' AS n {joined} ORDER BY e.oid {window}"),
                &Params::new(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::UnknownColumn(m) if m == "name is ambiguous"),
            "{window}: {err:?}"
        );
    }
}

/// The one deliberate change of projecting after the window: a value error
/// in a projected expression of a row the window cuts is not raised. Sort
/// keys are still evaluated on every row, and `DISTINCT` still projects
/// every row before its window.
#[test]
fn value_errors_of_rows_outside_the_window_are_not_raised() {
    let db = db();
    // `10 / (oid - 1)` divides by zero on oid 1 only
    let sql = "SELECT oid, 10 / (oid - 1) AS x FROM emp ORDER BY oid";
    let err = db.query(sql, &Params::new()).unwrap_err();
    assert!(
        matches!(&err, Error::Eval(m) if m == "division by zero"),
        "{err:?}"
    );
    let rs = db
        .query(&format!("{sql} LIMIT 10 OFFSET 1"), &Params::new())
        .unwrap();
    assert_eq!((rs.len(), rs.matched()), (5, 6));
    assert_eq!(rs.get(0, "x"), Some(&Value::Integer(10)));
    for still_raised in [
        "SELECT oid FROM emp ORDER BY 10 / (oid - 1) LIMIT 1 OFFSET 3",
        "SELECT oid, 10 / (oid - 1) AS x FROM emp ORDER BY x LIMIT 1 OFFSET 3",
        "SELECT DISTINCT 10 / (oid - 1) AS x FROM emp LIMIT 1 OFFSET 3",
    ] {
        assert!(
            db.query(still_raised, &Params::new()).is_err(),
            "{still_raised}"
        );
    }
}
