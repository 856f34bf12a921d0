//! Tabular query results.

use crate::value::Value;

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A SELECT produced rows.
    Rows(ResultSet),
    /// An UPDATE/DELETE/DDL statement affected this many rows (0 for
    /// DDL).
    Affected(usize),
    /// An INSERT added `rows` rows; `key` is the last one's integer
    /// primary key (the oid it minted), when its table has one.
    Inserted { rows: usize, key: Option<i64> },
}

impl ExecResult {
    /// Unwrap as a result set, panicking on DML (test helper).
    pub fn rows(self) -> ResultSet {
        match self {
            ExecResult::Rows(r) => r,
            ExecResult::Affected(n) | ExecResult::Inserted { rows: n, .. } => {
                panic!("expected rows, got {n} affected")
            }
        }
    }

    pub fn affected(self) -> usize {
        match self {
            ExecResult::Affected(n) | ExecResult::Inserted { rows: n, .. } => n,
            ExecResult::Rows(r) => r.len(),
        }
    }

    /// The key an INSERT minted for its last row.
    pub fn inserted_key(&self) -> Option<i64> {
        match self {
            ExecResult::Inserted { key, .. } => *key,
            ExecResult::Rows(_) | ExecResult::Affected(_) => None,
        }
    }
}

/// Column-named rows returned by a SELECT — the engine's analogue of a JDBC
/// result set, and the payload from which unit beans are built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// See [`ResultSet::matched`].
    matched: usize,
}

impl ResultSet {
    /// A result set that is all the rows its statement matched.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Value>>) -> ResultSet {
        let matched = rows.len();
        ResultSet::windowed(columns, rows, matched)
    }

    /// The `OFFSET`/`LIMIT` window of a result that matched `matched` rows.
    pub(crate) fn windowed(
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
        matched: usize,
    ) -> ResultSet {
        ResultSet {
            columns,
            rows,
            matched,
        }
    }

    /// How many rows the statement would return without its `OFFSET` and
    /// `LIMIT` (after `DISTINCT` and grouping) — the total a pager shows.
    pub fn matched(&self) -> usize {
        self.matched
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Value at (row, column-name); `None` when either is missing.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(c))
    }

    /// First row's value for `column` — the common case for data units.
    pub fn first(&self, column: &str) -> Option<&Value> {
        self.get(0, column)
    }

    /// Iterate rows as `(column, value)` pair lists (used by bean packing).
    pub fn iter_named(&self) -> impl Iterator<Item = Vec<(&str, &Value)>> {
        self.rows.iter().map(move |row| {
            self.columns
                .iter()
                .map(|c| c.as_str())
                .zip(row.iter())
                .collect()
        })
    }

    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_case_insensitive() {
        let rs = ResultSet::new(
            vec!["oid".into(), "Title".into()],
            vec![vec![Value::Integer(1), Value::Text("TODS".into())]],
        );
        assert_eq!(rs.get(0, "TITLE"), Some(&Value::Text("TODS".into())));
        assert_eq!(rs.first("oid"), Some(&Value::Integer(1)));
        assert_eq!(rs.get(1, "oid"), None);
        assert_eq!(rs.get(0, "nope"), None);
    }

    #[test]
    fn iter_named_pairs() {
        let rs = ResultSet::new(
            vec!["a".into()],
            vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
        );
        let all: Vec<_> = rs.iter_named().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1][0], ("a", &Value::Integer(2)));
    }
}
