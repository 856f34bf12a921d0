//! Abstract syntax tree for the supported SQL subset.

use crate::schema::TableSchema;
use crate::value::Value;

/// One parsed statement.
///
/// `Select` dominates the size, but statements are parsed once and cached
/// behind `Arc` (see `Database::prepare`), so boxing buys nothing.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Statement {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateTable(TableSchema),
    CreateIndex(CreateIndex),
    DropTable { name: String, if_exists: bool },
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// FROM clause: first table plus zero or more joins.
    pub from: Option<FromClause>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// expression with optional alias
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<Join>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is known by in the query (alias wins).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Expr,
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// `INSERT INTO t (cols) VALUES (...), (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Explicit column list; empty means "all columns in schema order".
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// Column reference, optionally qualified: `t.col` or `col`.
    Column {
        table: Option<String>,
        name: String,
    },
    /// Positional parameter `?` with its 0-based position.
    Param(usize),
    /// Named parameter `:name`.
    NamedParam(String),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
        negated: bool,
    },
    /// Aggregate or scalar function call; `COUNT(*)` has `star = true`.
    Function {
        name: String,
        args: Vec<Expr>,
        star: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Walk the expression tree, calling `f` on every node.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Number of positional parameters referenced (max index + 1).
    pub fn positional_param_count(&self) -> usize {
        let mut max = 0usize;
        self.walk(&mut |e| {
            if let Expr::Param(i) = e {
                max = max.max(i + 1);
            }
        });
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinaryOp::And,
            right: Box::new(Expr::IsNull {
                expr: Box::new(Expr::Param(2)),
                negated: false,
            }),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4);
        assert_eq!(e.positional_param_count(), 3);
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef {
            table: "volume".into(),
            alias: Some("v".into()),
        };
        assert_eq!(t.binding(), "v");
    }
}
