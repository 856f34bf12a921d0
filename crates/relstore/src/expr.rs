//! Expression evaluation over row contexts.

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::table::Row;
use crate::value::Value;
use std::collections::HashMap;

/// Bound statement parameters: positional (`?`) and named (`:name`).
#[derive(Debug, Clone, Default)]
pub struct Params {
    positional: Vec<Value>,
    named: HashMap<String, Value>,
}

impl Params {
    pub fn new() -> Params {
        Params::default()
    }

    /// Build from positional values only.
    pub fn positional(values: impl IntoIterator<Item = Value>) -> Params {
        Params {
            positional: values.into_iter().collect(),
            named: HashMap::new(),
        }
    }

    /// Add the next positional parameter.
    pub fn push(mut self, v: impl Into<Value>) -> Params {
        self.positional.push(v.into());
        self
    }

    /// Bind a named parameter.
    pub fn bind(mut self, name: impl Into<String>, v: impl Into<Value>) -> Params {
        self.named.insert(name.into(), v.into());
        self
    }

    /// Insert a named binding in place (non-builder form).
    pub fn set(&mut self, name: impl Into<String>, v: impl Into<Value>) {
        self.named.insert(name.into(), v.into());
    }

    pub fn get_positional(&self, i: usize) -> Result<&Value> {
        self.positional
            .get(i)
            .ok_or_else(|| Error::Parameter(format!("missing positional parameter #{}", i + 1)))
    }

    pub fn get_named(&self, name: &str) -> Result<&Value> {
        self.named
            .get(name)
            .ok_or_else(|| Error::Parameter(format!("missing named parameter :{name}")))
    }

    /// Names of all bound named parameters (used by descriptor validation).
    pub fn named_keys(&self) -> impl Iterator<Item = &str> {
        self.named.keys().map(|s| s.as_str())
    }
}

/// One table binding visible to an expression: the name it is known by in
/// the query, its schema, and the current row (None for the null-extended
/// side of a LEFT JOIN).
pub struct Binding<'a> {
    pub name: &'a str,
    pub schema: &'a TableSchema,
    pub row: Option<&'a Row>,
}

/// Evaluation context: the visible bindings plus bound parameters.
pub struct EvalCtx<'a> {
    pub bindings: &'a [Binding<'a>],
    pub params: &'a Params,
}

impl<'a> EvalCtx<'a> {
    /// Resolve a (possibly qualified) column reference to its value.
    pub fn column(&self, table: Option<&str>, name: &str) -> Result<Value> {
        match table {
            Some(t) => {
                for b in self.bindings {
                    if b.name.eq_ignore_ascii_case(t) {
                        let i = b.schema.require_column(name)?;
                        return Ok(b.row.map(|r| r[i].clone()).unwrap_or(Value::Null));
                    }
                }
                Err(Error::UnknownTable(t.to_string()))
            }
            None => {
                let mut found: Option<Value> = None;
                for b in self.bindings {
                    if let Some(i) = b.schema.column_index(name) {
                        if found.is_some() {
                            return Err(Error::UnknownColumn(format!("{name} is ambiguous")));
                        }
                        found = Some(b.row.map(|r| r[i].clone()).unwrap_or(Value::Null));
                    }
                }
                found.ok_or_else(|| Error::UnknownColumn(name.to_string()))
            }
        }
    }
}

/// Evaluate a scalar (non-aggregate) expression.
pub fn eval(expr: &Expr, ctx: &EvalCtx<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => ctx.column(table.as_deref(), name),
        Expr::Param(i) => ctx.params.get_positional(*i).cloned(),
        Expr::NamedParam(n) => ctx.params.get_named(n).cloned(),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Integer(i) => Ok(Value::Integer(-i)),
                    Value::Real(r) => Ok(Value::Real(-r)),
                    other => Err(Error::Eval(format!("cannot negate {other:?}"))),
                },
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    v => Ok(Value::Boolean(!v.is_truthy())),
                },
            }
        }
        Expr::Binary { left, op, right } => {
            // AND / OR get three-valued logic with short-circuiting
            match op {
                BinaryOp::And => {
                    let l = eval(left, ctx)?;
                    if !l.is_null() && !l.is_truthy() {
                        return Ok(Value::Boolean(false));
                    }
                    let r = eval(right, ctx)?;
                    if !r.is_null() && !r.is_truthy() {
                        return Ok(Value::Boolean(false));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Boolean(true))
                }
                BinaryOp::Or => {
                    let l = eval(left, ctx)?;
                    if !l.is_null() && l.is_truthy() {
                        return Ok(Value::Boolean(true));
                    }
                    let r = eval(right, ctx)?;
                    if !r.is_null() && r.is_truthy() {
                        return Ok(Value::Boolean(true));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Boolean(false))
                }
                _ => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    eval_binary(*op, l, r)
                }
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Boolean(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (v, p) => {
                    let m = like_match(&v.render(), &p.render());
                    Ok(Value::Boolean(m != *negated))
                }
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, ctx)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Boolean(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(lo, ctx)?;
            let hi = eval(hi, ctx)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(Value::Boolean(inside != *negated))
        }
        Expr::Function { name, args, star } => eval_scalar_function(name, args, *star, ctx),
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.total_cmp(&r);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Boolean(b))
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{}{}", l.render(), r.render()).into()))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Integer(a), Value::Integer(b)) => {
                    let a = *a;
                    let b = *b;
                    match op {
                        Add => Ok(Value::Integer(a.wrapping_add(b))),
                        Sub => Ok(Value::Integer(a.wrapping_sub(b))),
                        Mul => Ok(Value::Integer(a.wrapping_mul(b))),
                        Div => {
                            if b == 0 {
                                Err(Error::Eval("division by zero".into()))
                            } else {
                                Ok(Value::Integer(a / b))
                            }
                        }
                        Mod => {
                            if b == 0 {
                                Err(Error::Eval("modulo by zero".into()))
                            } else {
                                Ok(Value::Integer(a % b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                _ => {
                    let a = as_f64(&l)?;
                    let b = as_f64(&r)?;
                    match op {
                        Add => Ok(Value::Real(a + b)),
                        Sub => Ok(Value::Real(a - b)),
                        Mul => Ok(Value::Real(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(Error::Eval("division by zero".into()))
                            } else {
                                Ok(Value::Real(a / b))
                            }
                        }
                        Mod => {
                            if b == 0.0 {
                                Err(Error::Eval("modulo by zero".into()))
                            } else {
                                Ok(Value::Real(a % b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        And | Or => unreachable!("handled by caller"),
    }
}

fn as_f64(v: &Value) -> Result<f64> {
    match v {
        Value::Integer(i) => Ok(*i as f64),
        Value::Real(r) => Ok(*r),
        Value::Timestamp(t) => Ok(*t as f64),
        other => Err(Error::Eval(format!("not numeric: {other:?}"))),
    }
}

/// Names of the supported aggregate functions.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// Does this expression (transitively) contain an aggregate call?
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if let Expr::Function { name, .. } = e {
            if is_aggregate(name) {
                found = true;
            }
        }
    });
    found
}

fn eval_scalar_function(name: &str, args: &[Expr], star: bool, ctx: &EvalCtx<'_>) -> Result<Value> {
    if is_aggregate(name) {
        return Err(Error::Eval(format!(
            "aggregate {name} used outside GROUP BY context"
        )));
    }
    if star {
        return Err(Error::Eval(format!("{name}(*) is not a function")));
    }
    let vals: Vec<Value> = args
        .iter()
        .map(|a| eval(a, ctx))
        .collect::<Result<Vec<_>>>()?;
    let arg = |i: usize| -> Result<&Value> {
        vals.get(i)
            .ok_or_else(|| Error::Eval(format!("{name}: missing argument #{i}")))
    };
    match name {
        "UPPER" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Text(v.render().to_uppercase().into()),
        }),
        "LOWER" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Text(v.render().to_lowercase().into()),
        }),
        "LENGTH" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Integer(v.render().chars().count() as i64),
        }),
        "ABS" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => Ok(Value::Integer(i.abs())),
            Value::Real(r) => Ok(Value::Real(r.abs())),
            other => Err(Error::Eval(format!("ABS of non-number {other:?}"))),
        },
        "COALESCE" => {
            for v in &vals {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "SUBSTR" | "SUBSTRING" => {
            let s = match arg(0)? {
                Value::Null => return Ok(Value::Null),
                v => v.render(),
            };
            let start = match arg(1)? {
                Value::Integer(i) => (*i).max(1) as usize - 1,
                _ => return Err(Error::Eval("SUBSTR start must be integer".into())),
            };
            let chars: Vec<char> = s.chars().collect();
            let len = match vals.get(2) {
                Some(Value::Integer(l)) => (*l).max(0) as usize,
                Some(_) => return Err(Error::Eval("SUBSTR length must be integer".into())),
                None => chars.len().saturating_sub(start),
            };
            Ok(Value::Text(
                chars
                    .iter()
                    .skip(start)
                    .take(len)
                    .collect::<String>()
                    .into(),
            ))
        }
        "TRIM" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Text(v.render().trim().into()),
        }),
        other => Err(Error::Unsupported(format!("function {other}"))),
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character.
/// Matching is case-insensitive, mirroring the collation typically used for
/// generated search units.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // skip consecutive %
                let rest = &p[1..];
                (0..=t.len()).any(|k| rec(&t[k..], rest))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => {
                !t.is_empty() && t[0].to_lowercase().eq(c.to_lowercase()) && rec(&t[1..], &p[1..])
            }
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .column(Column::new("a", DataType::Integer))
            .column(Column::new("b", DataType::Text))
    }

    fn eval_str(src: &str, row: &Row, schema: &TableSchema, params: &Params) -> Result<Value> {
        // parse through a dummy SELECT so we reuse the expression parser
        let stmt = crate::sql::parser::parse_statement(&format!("SELECT {src}")).unwrap();
        let crate::sql::ast::Statement::Select(sel) = stmt else {
            panic!()
        };
        let crate::sql::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        let bindings = [Binding {
            name: "t",
            schema,
            row: Some(row),
        }];
        eval(
            expr,
            &EvalCtx {
                bindings: &bindings,
                params,
            },
        )
    }

    #[test]
    fn arithmetic_and_precedence() {
        let s = schema();
        let row = vec![Value::Integer(10), Value::Text("x".into())];
        let p = Params::new();
        assert_eq!(
            eval_str("a + 2 * 3", &row, &s, &p).unwrap(),
            Value::Integer(16)
        );
        assert_eq!(
            eval_str("(a + 2) * 3", &row, &s, &p).unwrap(),
            Value::Integer(36)
        );
        assert_eq!(eval_str("a / 4", &row, &s, &p).unwrap(), Value::Integer(2));
        assert_eq!(eval_str("a / 4.0", &row, &s, &p).unwrap(), Value::Real(2.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let s = schema();
        let row = vec![Value::Integer(1), Value::Null];
        assert!(eval_str("a / 0", &row, &s, &Params::new()).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let row = vec![Value::Null, Value::Text("x".into())];
        let p = Params::new();
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL
        assert_eq!(
            eval_str("a = 1 AND 1 = 2", &row, &s, &p).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            eval_str("a = 1 OR 1 = 1", &row, &s, &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_str("a = 1 AND 1 = 1", &row, &s, &p).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Database Systems", "%base%"));
        assert!(like_match("Database", "D_tabase"));
        assert!(!like_match("Database", "D_abase"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        // case-insensitive
        assert!(like_match("WebML", "webml"));
    }

    #[test]
    fn in_list_with_null_is_unknown() {
        let s = schema();
        let row = vec![Value::Integer(5), Value::Null];
        let p = Params::new();
        assert_eq!(
            eval_str("a IN (1, 2, NULL)", &row, &s, &p).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_str("a IN (5, NULL)", &row, &s, &p).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn named_and_positional_params() {
        let s = schema();
        let row = vec![Value::Integer(5), Value::Null];
        let p = Params::positional([Value::Integer(5)]).bind("lo", 1);
        assert_eq!(
            eval_str("a = ? AND a > :lo", &row, &s, &p).unwrap(),
            Value::Boolean(true)
        );
        assert!(eval_str("a = :missing", &row, &s, &p).is_err());
    }

    #[test]
    fn scalar_functions() {
        let s = schema();
        let row = vec![Value::Integer(-3), Value::Text("WebML".into())];
        let p = Params::new();
        assert_eq!(
            eval_str("UPPER(b)", &row, &s, &p).unwrap(),
            Value::Text("WEBML".into())
        );
        assert_eq!(eval_str("ABS(a)", &row, &s, &p).unwrap(), Value::Integer(3));
        assert_eq!(
            eval_str("LENGTH(b)", &row, &s, &p).unwrap(),
            Value::Integer(5)
        );
        assert_eq!(
            eval_str("COALESCE(NULL, b)", &row, &s, &p).unwrap(),
            Value::Text("WebML".into())
        );
        assert_eq!(
            eval_str("SUBSTR(b, 4)", &row, &s, &p).unwrap(),
            Value::Text("ML".into())
        );
        assert_eq!(
            eval_str("SUBSTR(b, 1, 3)", &row, &s, &p).unwrap(),
            Value::Text("Web".into())
        );
    }

    #[test]
    fn ambiguous_unqualified_column_is_error() {
        let s1 = schema();
        let s2 = schema();
        let r1 = vec![Value::Integer(1), Value::Null];
        let r2 = vec![Value::Integer(2), Value::Null];
        let bindings = [
            Binding {
                name: "x",
                schema: &s1,
                row: Some(&r1),
            },
            Binding {
                name: "y",
                schema: &s2,
                row: Some(&r2),
            },
        ];
        let ctx = EvalCtx {
            bindings: &bindings,
            params: &Params::new(),
        };
        assert!(ctx.column(None, "a").is_err());
        assert_eq!(ctx.column(Some("y"), "a").unwrap(), Value::Integer(2));
    }

    #[test]
    fn left_join_null_extension() {
        let s = schema();
        let bindings = [Binding {
            name: "t",
            schema: &s,
            row: None,
        }];
        let ctx = EvalCtx {
            bindings: &bindings,
            params: &Params::new(),
        };
        assert_eq!(ctx.column(Some("t"), "a").unwrap(), Value::Null);
    }

    #[test]
    fn contains_aggregate_detection() {
        let stmt = crate::sql::parser::parse_statement("SELECT COUNT(*) + 1, a FROM t").unwrap();
        let crate::sql::ast::Statement::Select(sel) = stmt else {
            panic!()
        };
        let crate::sql::ast::SelectItem::Expr { expr: e0, .. } = &sel.items[0] else {
            panic!()
        };
        let crate::sql::ast::SelectItem::Expr { expr: e1, .. } = &sel.items[1] else {
            panic!()
        };
        assert!(contains_aggregate(e0));
        assert!(!contains_aggregate(e1));
    }
}
