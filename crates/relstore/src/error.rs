//! Error type shared by every layer of the engine.

use std::fmt;

/// Any failure produced while parsing, planning, or executing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexical or syntactic error in the SQL text, with a byte offset.
    Syntax { message: String, offset: usize },
    /// Reference to a table that does not exist.
    UnknownTable(String),
    /// Reference to a column that does not exist or is ambiguous.
    UnknownColumn(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// An index with this name already exists.
    DuplicateIndex(String),
    /// Primary-key or unique-index violation.
    UniqueViolation { table: String, column: String },
    /// Foreign-key violation on insert/update/delete.
    ForeignKeyViolation { table: String, constraint: String },
    /// NOT NULL constraint violation.
    NullViolation { table: String, column: String },
    /// A value could not be coerced to the column type.
    TypeMismatch { expected: String, got: String },
    /// Wrong number or kind of bound parameters.
    Parameter(String),
    /// Statement is valid SQL but not supported by this engine.
    Unsupported(String),
    /// Attempt to use a transaction handle in an invalid state.
    Transaction(String),
    /// The commit sink (write-ahead log) failed to make a committed
    /// transaction durable — the mutation is visible in memory but its
    /// redo record never reached stable storage.
    Durability(String),
    /// Generic evaluation failure (division by zero, bad LIKE pattern, ...).
    Eval(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { message, offset } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            Error::UnknownTable(t) => write!(f, "unknown table: {t}"),
            Error::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            Error::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            Error::DuplicateIndex(i) => write!(f, "index already exists: {i}"),
            Error::UniqueViolation { table, column } => {
                write!(f, "unique violation on {table}.{column}")
            }
            Error::ForeignKeyViolation { table, constraint } => {
                write!(f, "foreign key violation on {table} ({constraint})")
            }
            Error::NullViolation { table, column } => {
                write!(f, "null violation on {table}.{column}")
            }
            Error::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            Error::Parameter(m) => write!(f, "parameter error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Transaction(m) => write!(f, "transaction error: {m}"),
            Error::Durability(m) => write!(f, "durability error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
