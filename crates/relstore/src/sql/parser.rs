//! Recursive-descent parser for the SQL subset the WebML code generator
//! emits: SELECT (joins, WHERE, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET),
//! INSERT, UPDATE, DELETE, CREATE TABLE / INDEX, DROP TABLE and the three
//! transaction statements.

use super::ast::*;
use super::lexer::{tokenize, Token, TokenKind};
use crate::error::{Error, Result};
use crate::schema::{Column, ForeignKey, ReferentialAction, TableSchema};
use crate::value::{DataType, Value};

/// Parse a single statement (a trailing semicolon is allowed).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src)?;
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(src: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat_kind(&TokenKind::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_positional: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
            next_positional: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Syntax {
            message: msg.into(),
            offset: self.offset(),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_kind(&mut self, k: &TokenKind) -> bool {
        if self.peek() == k {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, k: TokenKind) -> Result<()> {
        if self.eat_kind(&k) {
            Ok(())
        } else {
            Err(self.err(format!("expected {k:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    /// Identifier (plain or quoted). Keywords are accepted as identifiers
    /// where an identifier is required, mirroring permissive SQL dialects.
    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::QuotedIdent(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_kw("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else if self.eat_kw("UPDATE") {
            self.update()
        } else if self.eat_kw("DELETE") {
            self.delete()
        } else if self.eat_kw("CREATE") {
            self.create()
        } else if self.eat_kw("DROP") {
            self.drop_table()
        } else {
            Err(self.err(format!("expected statement, found {:?}", self.peek())))
        }
    }

    // ---- SELECT ---------------------------------------------------------

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        if distinct {
            // ALL after DISTINCT would be contradictory; plain ALL is a no-op
        } else {
            self.eat_kw("ALL");
        }
        let mut items = vec![self.select_item()?];
        while self.eat_kind(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        let from = if self.eat_kw("FROM") {
            Some(self.from_clause()?)
        } else {
            None
        };
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_kind(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, ascending });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.expr()?);
            if self.eat_kind(&TokenKind::Comma) {
                // MySQL style: LIMIT offset, count
                offset = limit.take();
                limit = Some(self.expr()?);
            }
        }
        if self.eat_kw("OFFSET") {
            offset = Some(self.expr()?);
        }
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    #[allow(clippy::if_same_then_else)]
    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // t.* lookahead
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
                && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.identifier()?)
        } else if matches!(self.peek(), TokenKind::Ident(s) if !is_clause_keyword(s)) {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    #[allow(clippy::if_same_then_else)]
    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.identifier()?;
        let alias = if self.eat_kw("AS") {
            Some(self.identifier()?)
        } else if matches!(self.peek(), TokenKind::Ident(s)
            if !is_clause_keyword(s) && !is_join_keyword(s) && !s.eq_ignore_ascii_case("ON"))
        {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&mut self) -> Result<FromClause> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("JOIN") {
                JoinKind::Inner
            } else if self.eat_kind(&TokenKind::Comma) {
                // comma join: cross join with ON folded into WHERE by the
                // executor; we require an explicit ON-free join here and
                // treat it as INNER with a TRUE condition.
                let table = self.table_ref()?;
                joins.push(Join {
                    kind: JoinKind::Inner,
                    table,
                    on: Expr::Literal(Value::Boolean(true)),
                });
                continue;
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push(Join { kind, table, on });
        }
        Ok(FromClause { base, joins })
    }

    // ---- DML ------------------------------------------------------------

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.eat_kind(&TokenKind::LParen) {
            loop {
                columns.push(self.identifier()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(TokenKind::LParen)?;
            let mut row = Vec::new();
            if !self.eat_kind(&TokenKind::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(TokenKind::RParen)?;
            }
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.identifier()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_kind(TokenKind::Eq)?;
            let val = self.expr()?;
            assignments.push((col, val));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    // ---- DDL ------------------------------------------------------------

    fn create(&mut self) -> Result<Statement> {
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.identifier()?;
            self.expect_kw("ON")?;
            let table = self.identifier()?;
            self.expect_kind(TokenKind::LParen)?;
            let mut columns = vec![self.identifier()?];
            while self.eat_kind(&TokenKind::Comma) {
                columns.push(self.identifier()?);
            }
            self.expect_kind(TokenKind::RParen)?;
            return Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                columns,
                unique,
            }));
        }
        if unique {
            return Err(self.err("expected INDEX after CREATE UNIQUE"));
        }
        self.expect_kw("TABLE")?;
        let name = self.identifier()?;
        self.expect_kind(TokenKind::LParen)?;
        let mut schema = TableSchema::new(name);
        let mut pk_names: Vec<String> = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_kind(TokenKind::LParen)?;
                loop {
                    pk_names.push(self.identifier()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(TokenKind::RParen)?;
            } else if self.peek().is_kw("CONSTRAINT") || self.peek().is_kw("FOREIGN") {
                let fk = self.foreign_key(&schema)?;
                schema.foreign_keys.push(fk);
            } else {
                let col = self.column_def(&mut pk_names)?;
                schema.columns.push(col);
            }
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(TokenKind::RParen)?;
        let names: Vec<&str> = pk_names.iter().map(|s| s.as_str()).collect();
        schema = schema.primary_key(&names);
        if schema.primary_key.len() != pk_names.len() {
            return Err(self.err("PRIMARY KEY names unknown column"));
        }
        Ok(Statement::CreateTable(schema))
    }

    fn foreign_key(&mut self, schema: &TableSchema) -> Result<ForeignKey> {
        let name = if self.eat_kw("CONSTRAINT") {
            self.identifier()?
        } else {
            format!("fk_{}_{}", schema.name, schema.foreign_keys.len())
        };
        self.expect_kw("FOREIGN")?;
        self.expect_kw("KEY")?;
        self.expect_kind(TokenKind::LParen)?;
        let mut columns = vec![self.identifier()?];
        while self.eat_kind(&TokenKind::Comma) {
            columns.push(self.identifier()?);
        }
        self.expect_kind(TokenKind::RParen)?;
        self.expect_kw("REFERENCES")?;
        let referenced_table = self.identifier()?;
        self.expect_kind(TokenKind::LParen)?;
        let mut referenced_columns = vec![self.identifier()?];
        while self.eat_kind(&TokenKind::Comma) {
            referenced_columns.push(self.identifier()?);
        }
        self.expect_kind(TokenKind::RParen)?;
        let mut on_delete = ReferentialAction::Restrict;
        if self.eat_kw("ON") {
            self.expect_kw("DELETE")?;
            if self.eat_kw("CASCADE") {
                on_delete = ReferentialAction::Cascade;
            } else if self.eat_kw("SET") {
                self.expect_kw("NULL")?;
                on_delete = ReferentialAction::SetNull;
            } else if self.eat_kw("RESTRICT") {
                on_delete = ReferentialAction::Restrict;
            } else {
                return Err(self.err("expected CASCADE, SET NULL or RESTRICT"));
            }
        }
        Ok(ForeignKey {
            name,
            columns,
            referenced_table,
            referenced_columns,
            on_delete,
        })
    }

    fn column_def(&mut self, pk_names: &mut Vec<String>) -> Result<Column> {
        let name = self.identifier()?;
        let type_name = self.identifier()?;
        let data_type = DataType::parse(&type_name)
            .ok_or_else(|| self.err(format!("unknown type {type_name}")))?;
        // optional (n) / (p, s) precision which we accept and ignore
        if self.eat_kind(&TokenKind::LParen) {
            loop {
                match self.advance() {
                    TokenKind::Integer(_) => {}
                    other => return Err(self.err(format!("expected length, found {other:?}"))),
                }
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen)?;
        }
        let mut col = Column::new(name.clone(), data_type);
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                col.nullable = false;
            } else if self.eat_kw("NULL") {
                col.nullable = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                pk_names.push(name.clone());
                col.nullable = false;
            } else if self.eat_kw("AUTOINCREMENT") || self.eat_kw("AUTO_INCREMENT") {
                col.auto_increment = true;
            } else if self.eat_kw("DEFAULT") {
                let e = self.primary_expr()?;
                match e {
                    Expr::Literal(v) => col.default = Some(v),
                    Expr::Unary {
                        op: UnaryOp::Neg,
                        expr,
                    } => match *expr {
                        Expr::Literal(Value::Integer(i)) => col.default = Some(Value::Integer(-i)),
                        Expr::Literal(Value::Real(r)) => col.default = Some(Value::Real(-r)),
                        _ => return Err(self.err("DEFAULT must be a literal")),
                    },
                    _ => return Err(self.err("DEFAULT must be a literal")),
                }
            } else {
                break;
            }
        }
        Ok(col)
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let e = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.peek().is_kw("NOT");
        if negated {
            // lookahead: NOT LIKE / NOT IN / NOT BETWEEN
            let next = self.tokens.get(self.pos + 1).map(|t| t.kind.clone());
            let follows = matches!(&next, Some(TokenKind::Ident(s))
                if s.eq_ignore_ascii_case("LIKE")
                    || s.eq_ignore_ascii_case("IN")
                    || s.eq_ignore_ascii_case("BETWEEN"));
            if follows {
                self.advance();
            } else {
                return Ok(left);
            }
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_kind(TokenKind::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_kind(&TokenKind::Comma) {
                list.push(self.expr()?);
            }
            self.expect_kind(TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(self.err("dangling NOT"));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                TokenKind::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            let e = self.unary()?;
            Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e),
            })
        } else if self.eat_kind(&TokenKind::Plus) {
            self.unary()
        } else {
            self.primary_expr()
        }
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.advance() {
            TokenKind::Integer(i) => Ok(Expr::Literal(Value::Integer(i))),
            TokenKind::Real(r) => Ok(Expr::Literal(Value::Real(r))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Text(s.into()))),
            TokenKind::Question => {
                let i = self.next_positional;
                self.next_positional += 1;
                Ok(Expr::Param(i))
            }
            TokenKind::NamedParam(n) => Ok(Expr::NamedParam(n)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect_kind(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if is_clause_keyword(&name) || is_join_keyword(&name) {
                    return Err(Error::Syntax {
                        message: format!("unexpected keyword {name} in expression"),
                        offset: self.tokens[self.pos.saturating_sub(1)].offset,
                    });
                }
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Boolean(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Boolean(false)));
                }
                if self.eat_kind(&TokenKind::LParen) {
                    // function call
                    if self.eat_kind(&TokenKind::Star) {
                        self.expect_kind(TokenKind::RParen)?;
                        return Ok(Expr::Function {
                            name: name.to_ascii_uppercase(),
                            args: Vec::new(),
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat_kind(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_kind(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect_kind(TokenKind::RParen)?;
                    }
                    return Ok(Expr::Function {
                        name: name.to_ascii_uppercase(),
                        args,
                        star: false,
                    });
                }
                if self.eat_kind(&TokenKind::Dot) {
                    let col = self.identifier()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            TokenKind::QuotedIdent(name) => {
                if self.eat_kind(&TokenKind::Dot) {
                    let col = self.identifier()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "AND", "OR", "NOT",
        "UNION", "AS", "ASC", "DESC", "SET", "VALUES",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

fn is_join_keyword(s: &str) -> bool {
    const KW: &[&str] = &["JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CROSS"];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generated_unit_query() {
        // the style of query the WebML codegen produces for an index unit
        let s = parse_statement(
            "SELECT i.oid, i.number, i.year FROM issue i \
             WHERE i.volume_oid = :volume AND i.year >= 1990 \
             ORDER BY i.number DESC LIMIT 20 OFFSET 5",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("not a select")
        };
        assert_eq!(sel.items.len(), 3);
        assert!(sel.where_clause.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].ascending);
        assert!(sel.limit.is_some() && sel.offset.is_some());
    }

    #[test]
    fn parses_join_chain() {
        let s = parse_statement(
            "SELECT v.title, p.title FROM volume v \
             INNER JOIN issue i ON i.volume_oid = v.oid \
             LEFT JOIN paper p ON p.issue_oid = i.oid",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let from = sel.from.unwrap();
        assert_eq!(from.joins.len(), 2);
        assert_eq!(from.joins[0].kind, JoinKind::Inner);
        assert_eq!(from.joins[1].kind, JoinKind::Left);
    }

    #[test]
    fn parses_insert_multiple_rows() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert_eq!(ins.columns, vec!["a", "b"]);
        assert_eq!(ins.rows.len(), 2);
    }

    #[test]
    fn parses_update_and_delete() {
        let s = parse_statement("UPDATE t SET a = a + 1, b = ? WHERE oid = :id").unwrap();
        let Statement::Update(u) = s else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        let s = parse_statement("DELETE FROM t WHERE oid IN (1, 2, 3)").unwrap();
        assert!(matches!(s, Statement::Delete(_)));
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let s = parse_statement(
            "CREATE TABLE paper (\
               oid INTEGER NOT NULL AUTOINCREMENT,\
               title VARCHAR(255) NOT NULL,\
               pages INTEGER DEFAULT 0,\
               issue_oid INTEGER,\
               PRIMARY KEY (oid),\
               CONSTRAINT fk_issue FOREIGN KEY (issue_oid) REFERENCES issue (oid) ON DELETE CASCADE)",
        )
        .unwrap();
        let Statement::CreateTable(t) = s else {
            panic!()
        };
        assert_eq!(t.columns.len(), 4);
        assert!(t.columns[0].auto_increment);
        assert_eq!(t.primary_key, vec![0]);
        assert_eq!(t.foreign_keys.len(), 1);
        assert_eq!(t.foreign_keys[0].on_delete, ReferentialAction::Cascade);
        assert_eq!(t.columns[2].default, Some(Value::Integer(0)));
    }

    #[test]
    fn create_table_round_trips_through_to_create_sql() {
        let sql = "CREATE TABLE t (a INTEGER NOT NULL, b TEXT, PRIMARY KEY (a))";
        let Statement::CreateTable(t) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let Statement::CreateTable(t2) = parse_statement(&t.to_create_sql()).unwrap() else {
            panic!()
        };
        assert_eq!(t, t2);
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let s = parse_statement(
            "SELECT issue_oid, COUNT(*) AS n, MAX(pages) FROM paper \
             GROUP BY issue_oid HAVING COUNT(*) > 2 ORDER BY n",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
    }

    #[test]
    fn positional_params_number_left_to_right() {
        let s = parse_statement("SELECT * FROM t WHERE a = ? AND b = ? AND c = ?").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.where_clause.unwrap().positional_param_count(), 3);
    }

    #[test]
    fn parses_like_in_between_not_variants() {
        for q in [
            "SELECT * FROM t WHERE a LIKE '%x%'",
            "SELECT * FROM t WHERE a NOT LIKE '%x%'",
            "SELECT * FROM t WHERE a IN (1,2)",
            "SELECT * FROM t WHERE a NOT IN (1,2)",
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2",
            "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2",
            "SELECT * FROM t WHERE a IS NULL",
            "SELECT * FROM t WHERE a IS NOT NULL",
        ] {
            parse_statement(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn parses_script() {
        let stmts = parse_script(
            "CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);\nINSERT INTO a VALUES (1);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("INSERT INTO t").is_err());
    }

    #[test]
    fn parses_distinct_and_wildcards() {
        let s = parse_statement("SELECT DISTINCT t.*, x FROM t").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.distinct);
        assert!(matches!(sel.items[0], SelectItem::QualifiedWildcard(_)));
    }

    #[test]
    fn parses_drop_table() {
        assert_eq!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                name: "t".into(),
                if_exists: true
            }
        );
    }

    #[test]
    fn concat_operator() {
        let s = parse_statement("SELECT first || ' ' || last FROM person").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::Concat,
                ..
            }
        ));
    }
}
