//! # relstore — the data tier of the WebML/WebRatio reproduction
//!
//! An in-memory relational database engine with a SQL subset, playing the
//! role of the "JDBC or ODBC compliant data source" in the paper's
//! architecture (CIDR 2003, §1). Generated unit descriptors carry SQL text;
//! the generic unit services of the MVC runtime prepare and execute those
//! statements here with bound parameters.
//!
//! Supported SQL:
//!
//! * `SELECT` with `DISTINCT`, expressions, `FROM` with `INNER`/`LEFT JOIN`,
//!   `WHERE`, `GROUP BY`/`HAVING` with `COUNT/SUM/AVG/MIN/MAX`, `ORDER BY`
//!   (expressions, aliases, ordinals), `LIMIT`/`OFFSET`;
//! * `INSERT` (multi-row), `UPDATE`, `DELETE` with foreign-key enforcement
//!   (`RESTRICT`, `CASCADE`, `SET NULL`);
//! * `CREATE TABLE` (PK, FK, defaults, `AUTOINCREMENT`), `CREATE [UNIQUE]
//!   INDEX`, `DROP TABLE`;
//! * positional (`?`) and named (`:name`) parameters — the generated unit
//!   queries use named parameters matching WebML link parameters.
//!
//! Execution uses primary-key and secondary B-tree indexes for equality
//! probes (base-table WHERE pushdown and join acceleration), a build/probe
//! hash join for unindexed equi-join conjuncts, a walk of the secondary
//! index whose columns are exactly the `ORDER BY` columns in place of a
//! sort, and a bounded Top-K heap for `ORDER BY` + `LIMIT`; everything else
//! is a scan + filter, which is the right trade-off for the unit-query
//! workload this engine serves. Rows are ordered and cut to `OFFSET` /
//! `LIMIT` as row ids; only the rows a statement returns are projected.
//! [`exec::SelectStats`] reports which path answered each query.
//!
//! ```
//! use relstore::{Database, Params, Value};
//!
//! let db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE volume (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL);",
//! ).unwrap();
//! db.execute("INSERT INTO volume (title) VALUES ('TODS 27')", &Params::new()).unwrap();
//! let rs = db.query(
//!     "SELECT title FROM volume WHERE oid = :id",
//!     &Params::new().bind("id", 1),
//! ).unwrap();
//! assert_eq!(rs.first("title"), Some(&Value::Text("TODS 27".into())));
//! ```

pub mod change;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod result;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod table;
pub mod value;

pub use change::{redo_from_undo, ChangeRecord, CommitSink};
pub use db::{Database, Transaction};
pub use error::{Error, Result};
pub use exec::SelectStats;
pub use expr::Params;
pub use result::{ExecResult, ResultSet};
pub use schema::{Column, ForeignKey, ReferentialAction, TableSchema};
pub use sql::ast::Statement;
pub use sql::parser::{parse_script, parse_statement};
pub use table::{Row, RowId, Table};
pub use value::{DataType, Value};

/// A counting [`std::alloc::GlobalAlloc`] for the unit-test binary only:
/// executor tests assert how many heap allocations a statement makes per
/// row, which pins the mechanism without timing noise.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-init: reading the counter inside `alloc` never allocates
        static COUNT: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Heap allocations performed on the current thread while running `f`.
    /// Per-thread, so parallel tests do not pollute each other's counts.
    pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
        let before = COUNT.try_with(Cell::get).unwrap_or(0);
        let out = f();
        let after = COUNT.try_with(Cell::get).unwrap_or(0);
        (after.saturating_sub(before), out)
    }
}
