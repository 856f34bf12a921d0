//! The mutable heart of the engine: the table map plus DML execution with
//! foreign-key enforcement and an undo log for transactions.

use crate::error::{Error, Result};
use crate::expr::{eval, Binding, EvalCtx, Params};
use crate::sql::ast::{Delete, Expr, Insert, Update};
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use std::collections::BTreeMap;

/// All tables of one database.
#[derive(Debug, Default, Clone)]
pub struct Storage {
    pub(crate) tables: BTreeMap<String, Table>,
}

/// One reversible mutation, recorded newest-last.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted: undo by deleting it.
    Inserted { table: String, row_id: RowId },
    /// A row was deleted: undo by re-inserting its values at its old slot.
    Deleted {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// A row was updated in place: undo by restoring the old values.
    Updated {
        table: String,
        row_id: RowId,
        old: Row,
    },
}

/// Undo log captured by a transaction; empty in autocommit mode.
pub type UndoLog = Vec<UndoOp>;

/// Coerce an FK probe key to the column types of `table` at `cols`.
/// `None` when a component cannot be coerced — the caller falls back to
/// the scan path, whose `sql_eq` rejects incomparable values itself.
fn coerce_key(table: &Table, cols: &[usize], key: &[Value]) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(key.len());
    for (v, &c) in key.iter().zip(cols) {
        out.push(v.clone().coerce(table.schema.columns[c].data_type).ok()?);
    }
    Some(out)
}

impl Storage {
    pub fn require_table(&self, name: &str) -> Result<&Table> {
        // table names are case-insensitive
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    pub fn require_table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = table.schema.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::DuplicateTable(table.schema.name.clone()));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.remove(&key).is_none() && !if_exists {
            return Err(Error::UnknownTable(name.to_string()));
        }
        Ok(())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .values()
            .map(|t| t.schema.name.clone())
            .collect()
    }

    // ---- foreign keys ----------------------------------------------------

    /// Check every FK of `table_name` against the row stored in slot `id`.
    fn check_outgoing_fks(&self, table_name: &str, id: RowId) -> Result<()> {
        let table = self.require_table(table_name)?;
        let Some(row) = table.get(id) else {
            return Ok(());
        };
        for fk in &table.schema.foreign_keys {
            let mut key = Vec::with_capacity(fk.columns.len());
            let mut any_null = false;
            for c in &fk.columns {
                let i = table.schema.require_column(c)?;
                if row[i].is_null() {
                    any_null = true;
                }
                key.push(row[i].clone());
            }
            if any_null {
                continue; // SQL semantics: NULL FK components opt out
            }
            let referenced = self.require_table(&fk.referenced_table)?;
            if !self.referenced_row_exists(referenced, &fk.referenced_columns, &key)? {
                return Err(Error::ForeignKeyViolation {
                    table: table.schema.name.clone(),
                    constraint: fk.name.clone(),
                });
            }
        }
        Ok(())
    }

    fn referenced_row_exists(
        &self,
        referenced: &Table,
        ref_cols: &[String],
        key: &[Value],
    ) -> Result<bool> {
        // fast path: the referenced columns are the primary key
        let pk_names = referenced.schema.primary_key_names();
        if pk_names.len() == ref_cols.len()
            && pk_names
                .iter()
                .zip(ref_cols)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            // coerce key components to the referenced column types so that
            // e.g. Integer/Text comparisons behave
            let mut coerced = Vec::with_capacity(key.len());
            for (v, c) in key.iter().zip(&referenced.schema.primary_key) {
                coerced.push(v.clone().coerce(referenced.schema.columns[*c].data_type)?);
            }
            return Ok(referenced.get_by_pk(&coerced).is_some());
        }
        let mut idxs = Vec::with_capacity(ref_cols.len());
        for c in ref_cols {
            idxs.push(referenced.schema.require_column(c)?);
        }
        // secondary-index path: an index whose columns are exactly the
        // referenced columns answers the existence probe directly (the
        // deploy-time derivation creates these for every role traversal)
        if let Some(ix) = referenced.find_index_on(&idxs) {
            if ix.columns.len() == idxs.len() {
                if let Some(coerced) = coerce_key(referenced, &idxs, key) {
                    return Ok(!ix.lookup(&coerced).is_empty());
                }
            }
        }
        // slow path: scan
        Ok(referenced.iter().any(|(_, row)| {
            idxs.iter()
                .zip(key)
                .all(|(&i, v)| row[i].sql_eq(v) == Some(true))
        }))
    }

    /// Rows in other tables that reference `(table, row)` through some FK.
    /// Returns `(referencing_table, fk_index, row_ids)` triples.
    fn referencing_rows(
        &self,
        table_name: &str,
        row: &Row,
    ) -> Result<Vec<(String, usize, Vec<RowId>)>> {
        let target = self.require_table(table_name)?;
        let mut out = Vec::new();
        for other in self.tables.values() {
            for (fk_i, fk) in other.schema.foreign_keys.iter().enumerate() {
                if !fk
                    .referenced_table
                    .eq_ignore_ascii_case(&target.schema.name)
                {
                    continue;
                }
                // the referenced values of this row
                let mut ref_vals = Vec::with_capacity(fk.referenced_columns.len());
                for c in &fk.referenced_columns {
                    let i = target.schema.require_column(c)?;
                    ref_vals.push(row[i].clone());
                }
                let mut col_idxs = Vec::with_capacity(fk.columns.len());
                for c in &fk.columns {
                    col_idxs.push(other.schema.require_column(c)?);
                }
                // index path: probe the FK columns instead of scanning the
                // referencing table (NULL components can never match, so
                // they are only valid on the scan path, which rejects them
                // through sql_eq)
                let by_index = if ref_vals.iter().any(|v| matches!(v, Value::Null)) {
                    None
                } else {
                    other
                        .find_index_on(&col_idxs)
                        .filter(|ix| ix.columns.len() == col_idxs.len())
                        .and_then(|ix| {
                            coerce_key(other, &col_idxs, &ref_vals)
                                .map(|key| ix.lookup(&key).to_vec())
                        })
                };
                let hits: Vec<RowId> = match by_index {
                    Some(ids) => ids,
                    None => other
                        .iter()
                        .filter(|(_, r)| {
                            col_idxs
                                .iter()
                                .zip(&ref_vals)
                                .all(|(&i, v)| r[i].sql_eq(v) == Some(true))
                        })
                        .map(|(id, _)| id)
                        .collect(),
                };
                if !hits.is_empty() {
                    out.push((other.schema.name.clone(), fk_i, hits));
                }
            }
        }
        Ok(out)
    }

    // ---- DML --------------------------------------------------------------

    /// Execute INSERT; returns the number of rows inserted and the last
    /// one's integer primary key, when the table has a one-column one.
    pub fn run_insert(
        &mut self,
        ins: &Insert,
        params: &Params,
        undo: &mut UndoLog,
    ) -> Result<(usize, Option<i64>)> {
        let table = self.require_table(&ins.table)?;
        let schema = table.schema.clone();
        let n_cols = schema.columns.len();
        // map provided columns to schema positions
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..n_cols).collect()
        } else {
            let mut v = Vec::with_capacity(ins.columns.len());
            for c in &ins.columns {
                v.push(schema.require_column(c)?);
            }
            v
        };
        let empty: [Binding<'_>; 0] = [];
        let eval_ctx = EvalCtx {
            bindings: &empty,
            params,
        };
        let mut count = 0;
        let mut key = None;
        for row_exprs in &ins.rows {
            if row_exprs.len() != positions.len() {
                return Err(Error::Parameter(format!(
                    "INSERT supplies {} values for {} columns",
                    row_exprs.len(),
                    positions.len()
                )));
            }
            let mut row: Row = vec![Value::Null; n_cols];
            for (pos, e) in positions.iter().zip(row_exprs) {
                row[*pos] = eval(e, &eval_ctx)?;
            }
            let table = self.require_table_mut(&ins.table)?;
            let id = table.insert(row)?;
            // FK check after defaults/auto-increment are applied
            if let Err(e) = self.check_outgoing_fks(&ins.table, id) {
                self.require_table_mut(&ins.table)?.delete(id);
                return Err(e);
            }
            undo.push(UndoOp::Inserted {
                table: ins.table.to_ascii_lowercase(),
                row_id: id,
            });
            count += 1;
            key = match schema.primary_key.as_slice() {
                [pk] => match self.require_table(&ins.table)?.get(id).map(|r| &r[*pk]) {
                    Some(Value::Integer(k)) => Some(*k),
                    _ => None,
                },
                _ => None,
            };
        }
        Ok((count, key))
    }

    /// Execute UPDATE; returns number of rows changed.
    pub fn run_update(
        &mut self,
        upd: &Update,
        params: &Params,
        undo: &mut UndoLog,
    ) -> Result<usize> {
        let table = self.require_table(&upd.table)?;
        let schema = table.schema.clone();
        let binding_name = schema.name.clone();
        // resolve assignment targets
        let mut targets = Vec::with_capacity(upd.assignments.len());
        for (c, e) in &upd.assignments {
            targets.push((schema.require_column(c)?, e));
        }
        // select affected rows first, then mutate
        let mut affected: Vec<(RowId, Row)> = Vec::new();
        for (id, row) in table.iter() {
            let keep = match &upd.where_clause {
                Some(w) => {
                    let bindings = [Binding {
                        name: &binding_name,
                        schema: &schema,
                        row: Some(row),
                    }];
                    let eval_ctx = EvalCtx {
                        bindings: &bindings,
                        params,
                    };
                    eval(w, &eval_ctx)?.is_truthy()
                }
                None => true,
            };
            if keep {
                affected.push((id, row.clone()));
            }
        }
        let mut count = 0;
        for (id, old_row) in affected {
            let mut new_row = old_row.clone();
            {
                let bindings = [Binding {
                    name: &binding_name,
                    schema: &schema,
                    row: Some(&old_row),
                }];
                let eval_ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                for (pos, e) in &targets {
                    new_row[*pos] = eval(e, &eval_ctx)?;
                }
            }
            // if the row's referenced-key columns change, enforce RESTRICT
            let pk_changed = schema
                .primary_key
                .iter()
                .any(|&i| old_row[i].sql_eq(&new_row[i]) != Some(true));
            if pk_changed && !self.referencing_rows(&upd.table, &old_row)?.is_empty() {
                return Err(Error::ForeignKeyViolation {
                    table: upd.table.clone(),
                    constraint: "update of referenced key".into(),
                });
            }
            let table = self.require_table_mut(&upd.table)?;
            let old = table.update(id, new_row)?;
            if let Err(e) = self.check_outgoing_fks(&upd.table, id) {
                // restore the row this statement just replaced
                self.require_table_mut(&upd.table)?.insert_at(id, old)?;
                return Err(e);
            }
            undo.push(UndoOp::Updated {
                table: upd.table.to_ascii_lowercase(),
                row_id: id,
                old,
            });
            count += 1;
        }
        Ok(count)
    }

    /// Execute DELETE; returns number of rows removed (including cascades).
    pub fn run_delete(
        &mut self,
        del: &Delete,
        params: &Params,
        undo: &mut UndoLog,
    ) -> Result<usize> {
        let table = self.require_table(&del.table)?;
        let schema = table.schema.clone();
        let binding_name = schema.name.clone();
        let mut victims: Vec<RowId> = Vec::new();
        for (id, row) in table.iter() {
            let keep = match &del.where_clause {
                Some(w) => {
                    let bindings = [Binding {
                        name: &binding_name,
                        schema: &schema,
                        row: Some(row),
                    }];
                    let eval_ctx = EvalCtx {
                        bindings: &bindings,
                        params,
                    };
                    eval(w, &eval_ctx)?.is_truthy()
                }
                None => true,
            };
            if keep {
                victims.push(id);
            }
        }
        let mut count = 0;
        for id in victims {
            count += self.delete_row(&del.table, id, undo)?;
        }
        Ok(count)
    }

    /// Delete one row honouring referential actions; counts cascaded rows.
    pub fn delete_row(&mut self, table_name: &str, id: RowId, undo: &mut UndoLog) -> Result<usize> {
        let Some(row) = self.require_table(table_name)?.get(id).cloned() else {
            return Ok(0); // already gone via an earlier cascade
        };
        let mut count = 0;
        let refs = self.referencing_rows(table_name, &row)?;
        for (ref_table, fk_i, ids) in refs {
            let action = {
                let t = self.require_table(&ref_table)?;
                t.schema.foreign_keys[fk_i].on_delete
            };
            match action {
                crate::schema::ReferentialAction::Restrict => {
                    let t = self.require_table(&ref_table)?;
                    return Err(Error::ForeignKeyViolation {
                        table: ref_table.clone(),
                        constraint: t.schema.foreign_keys[fk_i].name.clone(),
                    });
                }
                crate::schema::ReferentialAction::Cascade => {
                    for rid in ids {
                        count += self.delete_row(&ref_table, rid, undo)?;
                    }
                }
                crate::schema::ReferentialAction::SetNull => {
                    let (cols, nullable_ok) = {
                        let t = self.require_table(&ref_table)?;
                        let fk = &t.schema.foreign_keys[fk_i];
                        let mut cols = Vec::new();
                        let mut ok = true;
                        for c in &fk.columns {
                            let i = t.schema.require_column(c)?;
                            if !t.schema.columns[i].nullable {
                                ok = false;
                            }
                            cols.push(i);
                        }
                        (cols, ok)
                    };
                    if !nullable_ok {
                        return Err(Error::ForeignKeyViolation {
                            table: ref_table.clone(),
                            constraint: "SET NULL on NOT NULL column".into(),
                        });
                    }
                    for rid in ids {
                        let t = self.require_table_mut(&ref_table)?;
                        if let Some(r) = t.get(rid).cloned() {
                            let mut new_r = r.clone();
                            for &c in &cols {
                                new_r[c] = Value::Null;
                            }
                            let old = t.update(rid, new_r)?;
                            undo.push(UndoOp::Updated {
                                table: ref_table.to_ascii_lowercase(),
                                row_id: rid,
                                old,
                            });
                        }
                    }
                }
            }
        }
        self.require_table_mut(table_name)?.delete(id);
        undo.push(UndoOp::Deleted {
            table: table_name.to_ascii_lowercase(),
            row_id: id,
            row,
        });
        count += 1;
        Ok(count)
    }

    // ---- rollback ----------------------------------------------------------

    /// Undo a failed statement or transaction: restore the before-images
    /// the undo log recorded, newest first. An insert is deleted; an update
    /// or delete puts the old row back in its slot.
    pub fn rollback(&mut self, undo: UndoLog) {
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Inserted { table, row_id } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.delete(row_id);
                    }
                }
                UndoOp::Updated {
                    table,
                    row_id,
                    old: row,
                }
                | UndoOp::Deleted { table, row_id, row } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        // a before-image was a stored row of this table, so
                        // its arity always fits
                        let _ = t.insert_at(row_id, row);
                    }
                }
            }
        }
    }

    /// Stored rows across all tables (the `db_versions_live` gauge).
    pub fn row_count(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Evaluate a constant expression (used by DDL paths needing literals).
    pub fn eval_const(&self, e: &Expr, params: &Params) -> Result<Value> {
        let empty: [Binding<'_>; 0] = [];
        eval(
            e,
            &EvalCtx {
                bindings: &empty,
                params,
            },
        )
    }
}
