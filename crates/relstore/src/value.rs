//! The dynamic value system: column types and runtime values.
//!
//! The engine is dynamically typed at the storage layer (every cell is a
//! [`Value`]) but statically checked against the declared [`DataType`] of a
//! column when rows are written.

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INTEGER`).
    Integer,
    /// 64-bit IEEE float (`REAL`).
    Real,
    /// UTF-8 string (`TEXT` / `VARCHAR`).
    Text,
    /// Boolean (`BOOLEAN`).
    Boolean,
    /// Milliseconds since the Unix epoch (`TIMESTAMP`).
    Timestamp,
    /// Raw bytes (`BLOB`) — used for marshalled beans.
    Blob,
}

impl DataType {
    /// SQL spelling used by the DDL generator.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Integer => "INTEGER",
            DataType::Real => "REAL",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Blob => "BLOB",
        }
    }

    /// Parse a SQL type name (case-insensitive, with common synonyms).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => Some(DataType::Integer),
            "REAL" | "FLOAT" | "DOUBLE" | "DECIMAL" | "NUMERIC" => Some(DataType::Real),
            "TEXT" | "VARCHAR" | "CHAR" | "CLOB" | "STRING" => Some(DataType::Text),
            "BOOLEAN" | "BOOL" => Some(DataType::Boolean),
            "TIMESTAMP" | "DATETIME" | "DATE" => Some(DataType::Timestamp),
            "BLOB" | "BINARY" | "VARBINARY" => Some(DataType::Blob),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A runtime value stored in a cell or produced by an expression.
///
/// Text is a shared `Arc<str>`: projecting, packing, caching and logging a
/// stored text cell bumps a reference count instead of copying the string.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Integer(i64),
    Real(f64),
    Text(Arc<str>),
    Boolean(bool),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
    Blob(Vec<u8>),
}

impl Value {
    /// `true` iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Real(_) => Some(DataType::Real),
            Value::Text(_) => Some(DataType::Text),
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Blob(_) => Some(DataType::Blob),
        }
    }

    /// Coerce this value to the given column type, or fail with
    /// [`Error::TypeMismatch`]. `Null` coerces to any type.
    ///
    /// Coercions mirror what a JDBC driver would do for generated queries:
    /// integers widen to reals, integers/reals/booleans render to text,
    /// numeric strings parse to numbers, integers serve as timestamps.
    pub fn coerce(self, target: DataType) -> Result<Value> {
        let mismatch = |got: &Value| Error::TypeMismatch {
            expected: target.sql_name().to_string(),
            got: got
                .data_type()
                .map(|t| t.sql_name().to_string())
                .unwrap_or_else(|| "NULL".to_string()),
        };
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Integer(_), DataType::Integer) => Ok(v),
            (Value::Integer(i), DataType::Real) => Ok(Value::Real(i as f64)),
            (Value::Integer(i), DataType::Timestamp) => Ok(Value::Timestamp(i)),
            (Value::Integer(i), DataType::Text) => Ok(Value::Text(i.to_string().into())),
            (Value::Integer(i), DataType::Boolean) => Ok(Value::Boolean(i != 0)),
            (v @ Value::Real(_), DataType::Real) => Ok(v),
            (Value::Real(r), DataType::Integer) if r.fract() == 0.0 => Ok(Value::Integer(r as i64)),
            (Value::Real(r), DataType::Text) => Ok(Value::Text(format_real(r).into())),
            (v @ Value::Text(_), DataType::Text) => Ok(v),
            (Value::Text(s), DataType::Integer) => s
                .trim()
                .parse::<i64>()
                .map(Value::Integer)
                .map_err(|_| mismatch(&Value::Text(s))),
            (Value::Text(s), DataType::Real) => s
                .trim()
                .parse::<f64>()
                .map(Value::Real)
                .map_err(|_| mismatch(&Value::Text(s))),
            (Value::Text(s), DataType::Boolean) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Ok(Value::Boolean(true)),
                "false" | "f" | "0" | "no" => Ok(Value::Boolean(false)),
                _ => Err(mismatch(&Value::Text(s))),
            },
            (Value::Text(s), DataType::Timestamp) => s
                .trim()
                .parse::<i64>()
                .map(Value::Timestamp)
                .map_err(|_| mismatch(&Value::Text(s))),
            (v @ Value::Boolean(_), DataType::Boolean) => Ok(v),
            (Value::Boolean(b), DataType::Integer) => Ok(Value::Integer(b as i64)),
            (Value::Boolean(b), DataType::Text) => Ok(Value::Text(b.to_string().into())),
            (v @ Value::Timestamp(_), DataType::Timestamp) => Ok(v),
            (Value::Timestamp(t), DataType::Integer) => Ok(Value::Integer(t)),
            (Value::Timestamp(t), DataType::Text) => Ok(Value::Text(t.to_string().into())),
            (v @ Value::Blob(_), DataType::Blob) => Ok(v),
            (v, _) => Err(mismatch(&v)),
        }
    }

    /// Truthiness used by WHERE clauses (SQL three-valued logic collapses
    /// `NULL` to "not true").
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Boolean(b) => *b,
            Value::Integer(i) => *i != 0,
            Value::Null => false,
            _ => false,
        }
    }

    /// Render the value the way the generated markup layer expects.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Integer(i) => i.to_string(),
            Value::Real(r) => format_real(*r),
            Value::Text(s) => s.to_string(),
            Value::Boolean(b) => b.to_string(),
            Value::Timestamp(t) => t.to_string(),
            Value::Blob(b) => format!("<blob {} bytes>", b.len()),
        }
    }

    /// SQL literal syntax for this value (used when inlining defaults in DDL).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Real(r) => format_real(*r),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Timestamp(t) => t.to_string(),
            Value::Blob(b) => {
                let mut out = String::with_capacity(3 + b.len() * 2);
                out.push_str("X'");
                for byte in b {
                    out.push_str(&format!("{byte:02X}"));
                }
                out.push('\'');
                out
            }
        }
    }

    /// Total ordering used by ORDER BY and B-tree indexes.
    ///
    /// `Null` sorts first; cross-type numeric comparisons are performed on
    /// `f64`; any other cross-type comparison falls back to a stable order
    /// over the type tag so sorting never panics.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Integer(a), Real(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Real(a), Integer(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Integer(a), Timestamp(b)) | (Timestamp(a), Integer(b)) => a.cmp(b),
            (Real(a), Timestamp(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Timestamp(a), Real(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Blob(a), Blob(b)) => a.cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// SQL equality (used by `=`); `NULL = x` is never equal.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }
}

fn format_real(r: f64) -> String {
    if r.fract() == 0.0 && r.abs() < 1e15 {
        format!("{r:.1}")
    } else {
        format!("{r}")
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        // the numeric family (Integer/Real/Timestamp) compares numerically
        // and never reaches the rank fallback against itself
        Value::Integer(_) | Value::Real(_) | Value::Timestamp(_) => 1,
        Value::Text(_) => 3,
        Value::Boolean(_) => 4,
        Value::Blob(_) => 5,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && !(self.is_null() ^ other.is_null())
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Integers and equal-valued reals must hash alike because they
            // compare equal under total_cmp.
            Value::Integer(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Real(r) => {
                1u8.hash(state);
                r.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Boolean(b) => {
                4u8.hash(state);
                b.hash(state);
            }
            // timestamps compare numerically with integers/reals, so they
            // must hash in the same family
            Value::Timestamp(t) => {
                1u8.hash(state);
                (*t as f64).to_bits().hash(state);
            }
            Value::Blob(b) => {
                6u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coerce_widens_integer_to_real() {
        assert_eq!(
            Value::Integer(3).coerce(DataType::Real).unwrap(),
            Value::Real(3.0)
        );
    }

    #[test]
    fn coerce_null_to_anything() {
        for t in [
            DataType::Integer,
            DataType::Real,
            DataType::Text,
            DataType::Boolean,
            DataType::Timestamp,
            DataType::Blob,
        ] {
            assert_eq!(Value::Null.coerce(t).unwrap(), Value::Null);
        }
    }

    #[test]
    fn coerce_text_to_integer_parses() {
        assert_eq!(
            Value::Text(" 42 ".into())
                .coerce(DataType::Integer)
                .unwrap(),
            Value::Integer(42)
        );
    }

    #[test]
    fn coerce_bad_text_fails() {
        assert!(Value::Text("abc".into()).coerce(DataType::Integer).is_err());
    }

    #[test]
    fn coerce_blob_only_to_blob() {
        assert!(Value::Blob(vec![1]).coerce(DataType::Text).is_err());
        assert!(Value::Blob(vec![1]).coerce(DataType::Blob).is_ok());
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Integer(1), Value::Null, Value::Integer(0)];
        v.sort();
        assert_eq!(v[0], Value::Null);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            Value::Integer(2).total_cmp(&Value::Real(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Real(2.0).total_cmp(&Value::Integer(2)),
            Ordering::Equal
        );
    }

    #[test]
    fn sql_eq_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(1)), Some(true));
    }

    #[test]
    fn int_and_real_hash_alike_when_equal() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Integer(7)), h(&Value::Real(7.0)));
    }

    #[test]
    fn sql_literal_escapes_quotes() {
        assert_eq!(Value::Text("O'Hara".into()).to_sql_literal(), "'O''Hara'");
    }

    #[test]
    fn data_type_parse_synonyms() {
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("BIGINT"), Some(DataType::Integer));
        assert_eq!(DataType::parse("nope"), None);
    }

    #[test]
    fn render_real_trims() {
        assert_eq!(Value::Real(3.0).render(), "3.0");
        assert_eq!(Value::Real(3.25).render(), "3.25");
    }
}
