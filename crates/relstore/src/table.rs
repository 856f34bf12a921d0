//! Row storage for one table, with primary-key and secondary indexes.
//!
//! A table is a vector of row slots, each holding at most one row. A
//! `RowId` names a slot and is stable for the lifetime of its row, which
//! lets indexes, the undo log and the redo stream refer to rows cheaply. A
//! delete frees its slot at once, so the next insert — even one in the same
//! transaction — may reuse it. Index buckets hold exactly the slots whose
//! row carries the key, in slot order, so a probe answers without
//! re-reading the rows it names.
//!
//! Isolation is the database's storage lock, not the table's business:
//! readers hold it shared, and every write holds it exclusively.

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// Stable identifier of a row slot within one table.
pub type RowId = usize;

/// A stored row: one `Value` per column, in schema order.
pub type Row = Vec<Value>;

/// Add `id` to a bucket kept in slot order.
fn bucket_add(bucket: &mut Vec<RowId>, id: RowId) {
    if let Err(pos) = bucket.binary_search(&id) {
        bucket.insert(pos, id);
    }
}

/// Remove `id` from a bucket kept in slot order; true when it emptied.
fn bucket_remove(bucket: &mut Vec<RowId>, id: RowId) -> bool {
    if let Ok(pos) = bucket.binary_search(&id) {
        bucket.remove(pos);
    }
    bucket.is_empty()
}

/// A secondary index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Column positions in the table schema, in index order.
    pub columns: Vec<usize>,
    pub unique: bool,
    /// Ordered map from composite key to the slots whose row carries it.
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    /// The composite key of `row` under this index.
    pub fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Slots whose row carries `key` in the indexed columns, in slot order.
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Every bucket in key order (`NULL` keys first), each in slot order.
    /// Walked forwards this is exactly a stable sort of the table's rows by
    /// the indexed columns; walked backwards, bucket by bucket, it is the
    /// stable descending sort.
    pub(crate) fn buckets(&self) -> impl DoubleEndedIterator<Item = &[RowId]> {
        self.map.values().map(Vec::as_slice)
    }

    /// Number of distinct keys (used by the planner's cost heuristic).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Move slot `id` from `old`'s key to `new`'s (either side `None` for
    /// an insert or a delete); an unchanged key keeps its bucket.
    fn rekey(&mut self, id: RowId, old: Option<&Row>, new: Option<&Row>) {
        let (old, new) = (old.map(|r| self.key_of(r)), new.map(|r| self.key_of(r)));
        if old == new {
            return;
        }
        if let Some(key) = old {
            if self.map.get_mut(&key).is_some_and(|b| bucket_remove(b, id)) {
                self.map.remove(&key);
            }
        }
        if let Some(key) = new {
            bucket_add(self.map.entry(key).or_default(), id);
        }
    }
}

/// One table: schema + row slots + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    /// Row slots; `None` is a free slot.
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    /// Number of occupied slots (what `len()` reports).
    live: usize,
    /// Primary-key index (present iff the schema declares a PK).
    pk_index: Option<HashMap<Vec<Value>, Vec<RowId>>>,
    indexes: Vec<Index>,
    next_auto: i64,
}

impl Table {
    pub fn new(schema: TableSchema) -> Result<Table> {
        schema.validate()?;
        let pk_index = if schema.primary_key.is_empty() {
            None
        } else {
            Some(HashMap::new())
        };
        Ok(Table {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_index,
            indexes: Vec::new(),
            next_auto: 1,
        })
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value the next auto-increment insert would receive.
    pub fn peek_auto(&self) -> i64 {
        self.next_auto
    }

    /// Iterate over `(RowId, &Row)` for every stored row, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|r| (id, r)))
    }

    /// Fetch a row by id (None if the slot is free or out of range).
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id)?.as_ref()
    }

    /// Exact-match lookup through the primary-key index.
    pub fn get_by_pk(&self, key: &[Value]) -> Option<(RowId, &Row)> {
        let id = *self.lookup_pk(key).first()?;
        Some((id, self.get(id)?))
    }

    /// The slot holding primary key `key`, as a slice of at most one.
    pub(crate) fn lookup_pk(&self, key: &[Value]) -> &[RowId] {
        self.pk_index
            .as_ref()
            .and_then(|m| m.get(key))
            .map_or(&[], Vec::as_slice)
    }

    /// The secondary indexes of this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index whose leading columns are exactly `columns` (a prefix
    /// match is enough for an equality probe on the prefix).
    pub fn find_index_on(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.columns.len() >= columns.len() && ix.columns[..columns.len()] == *columns)
    }

    /// Create a secondary index and populate it from the stored rows.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column_names: &[String],
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(Error::DuplicateIndex(name));
        }
        let mut columns = Vec::with_capacity(column_names.len());
        for c in column_names {
            columns.push(self.schema.require_column(c)?);
        }
        let mut ix = Index {
            name,
            columns,
            unique,
            map: BTreeMap::new(),
        };
        for (id, row) in self.iter() {
            let bucket = ix.map.entry(ix.key_of(row)).or_default();
            if unique && !bucket.is_empty() {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    column: column_names.join(","),
                });
            }
            bucket.push(id); // slot order: iter() ascends
        }
        self.indexes.push(ix);
        Ok(())
    }

    fn pk_key(&self, row: &Row) -> Option<Vec<Value>> {
        if self.schema.primary_key.is_empty() {
            None
        } else {
            Some(
                self.schema
                    .primary_key
                    .iter()
                    .map(|&i| row[i].clone())
                    .collect(),
            )
        }
    }

    /// Validate NOT NULL + apply defaults + auto-increment. `row` must have
    /// one entry per column.
    fn prepare_row(&mut self, mut row: Row) -> Result<Row> {
        for (i, col) in self.schema.columns.iter().enumerate() {
            if row[i].is_null() {
                if col.auto_increment {
                    row[i] = Value::Integer(self.next_auto);
                    self.next_auto += 1;
                    continue;
                }
                if let Some(d) = &col.default {
                    row[i] = d.clone();
                }
            }
            if row[i].is_null() && !col.nullable {
                return Err(Error::NullViolation {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                });
            }
            if !row[i].is_null() {
                row[i] = std::mem::replace(&mut row[i], Value::Null).coerce(col.data_type)?;
            }
        }
        self.bump_auto_past(&row);
        Ok(row)
    }

    /// Keep the auto counter ahead of explicitly supplied keys.
    fn bump_auto_past(&mut self, row: &Row) {
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.auto_increment {
                if let Value::Integer(v) = row[i] {
                    if v >= self.next_auto {
                        self.next_auto = v + 1;
                    }
                }
            }
        }
    }

    fn arity_check(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.columns.len() {
            return Err(Error::Parameter(format!(
                "row arity {} != {} columns of {}",
                row.len(),
                self.schema.columns.len(),
                self.schema.name
            )));
        }
        Ok(())
    }

    /// Primary-key and unique-index checks for storing `row`, ignoring
    /// the slot `skip` (the row an update replaces).
    fn check_constraints(&self, row: &Row, skip: Option<RowId>) -> Result<()> {
        let taken = |ids: &[RowId]| ids.iter().any(|&id| Some(id) != skip);
        if let Some(key) = self.pk_key(row) {
            let column = || self.schema.primary_key_names().join(",");
            if key.iter().any(Value::is_null) {
                return Err(Error::NullViolation {
                    table: self.schema.name.clone(),
                    column: column(),
                });
            }
            if self
                .pk_index
                .as_ref()
                .and_then(|m| m.get(&key))
                .is_some_and(|ids| taken(ids))
            {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    column: column(),
                });
            }
        }
        for ix in &self.indexes {
            if ix.unique && taken(ix.lookup(&ix.key_of(row))) {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    column: ix.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Move slot `id` in every index from `old`'s keys to `new`'s.
    fn reindex(&mut self, id: RowId, old: Option<&Row>, new: Option<&Row>) {
        let (old_pk, new_pk) = (
            old.and_then(|r| self.pk_key(r)),
            new.and_then(|r| self.pk_key(r)),
        );
        if old_pk != new_pk {
            if let Some(map) = self.pk_index.as_mut() {
                if let Some(key) = old_pk {
                    if map.get_mut(&key).is_some_and(|b| bucket_remove(b, id)) {
                        map.remove(&key);
                    }
                }
                if let Some(key) = new_pk {
                    bucket_add(map.entry(key).or_default(), id);
                }
            }
        }
        for ix in &mut self.indexes {
            ix.rekey(id, old, new);
        }
    }

    /// Store `row` in slot `id`, replacing any occupant; returns it.
    fn place(&mut self, id: RowId, row: Row) -> Option<Row> {
        if self.slots.len() <= id {
            self.slots.resize(id + 1, None);
        }
        let old = self.slots[id].take();
        self.reindex(id, old.as_ref(), Some(&row));
        self.slots[id] = Some(row);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Insert a row: defaults, auto-increment and constraints apply.
    /// Returns its slot, reusing a freed one when there is any.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.arity_check(&row)?;
        let row = self.prepare_row(row)?;
        self.check_constraints(&row, None)?;
        let id = self.free.pop().unwrap_or(self.slots.len());
        self.place(id, row);
        Ok(id)
    }

    /// Replace the row in slot `id`, maintaining all indexes. Returns the
    /// old row.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        self.arity_check(&new_row)?;
        if self.get(id).is_none() {
            return Err(Error::Eval(format!(
                "row {id} not found in {}",
                self.schema.name
            )));
        }
        let new_row = self.prepare_row(new_row)?;
        self.check_constraints(&new_row, Some(id))?;
        Ok(self.place(id, new_row).expect("slot checked occupied"))
    }

    /// Remove the row in slot `id` and free the slot; returns the row.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let old = self.slots.get_mut(id)?.take()?;
        self.reindex(id, Some(&old), None);
        self.free.push(id);
        self.live -= 1;
        Some(old)
    }

    /// Physically place `row` at slot `id`, maintaining every index.
    ///
    /// This is the recovery/undo path: the row carries values that were
    /// already validated when it was first written, so constraints are
    /// **not** re-checked, defaults are not applied, and the slot is taken
    /// verbatim (replacing any row already there — which makes log replay
    /// idempotent). The auto-increment counter is bumped past any explicit
    /// key values, like [`Table::insert`] does.
    pub fn insert_at(&mut self, id: RowId, row: Row) -> Result<()> {
        self.arity_check(&row)?;
        self.bump_auto_past(&row);
        if self.get(id).is_none() {
            // a vacant slot may be on the free list; an occupied one never is
            self.free.retain(|&f| f != id);
        }
        self.place(id, row);
        Ok(())
    }

    /// Force the auto-increment counter (snapshot restore); never lowers it.
    pub fn set_next_auto(&mut self, v: i64) {
        if v > self.next_auto {
            self.next_auto = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            TableSchema::new("t")
                .column(Column::new("oid", DataType::Integer).not_null().auto())
                .column(Column::new("name", DataType::Text).not_null())
                .column(Column::new("score", DataType::Integer).with_default(Value::Integer(0)))
                .primary_key(&["oid"]),
        )
        .unwrap()
    }

    fn row(name: &str) -> Row {
        vec![Value::Null, Value::Text(name.into()), Value::Null]
    }

    #[test]
    fn auto_increment_assigns_sequential_keys() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        t.insert(row("b")).unwrap();
        let (_, r) = t.get_by_pk(&[Value::Integer(2)]).unwrap();
        assert_eq!(r[1], Value::Text("b".into()));
    }

    #[test]
    fn default_applied_when_null() {
        let mut t = table();
        let id = t.insert(row("a")).unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Integer(0));
    }

    #[test]
    fn explicit_pk_bumps_auto_counter() {
        let mut t = table();
        t.insert(vec![Value::Integer(10), "x".into(), Value::Null])
            .unwrap();
        let id = t.insert(row("y")).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(11));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.insert(vec![Value::Integer(1), "x".into(), Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Integer(1), "y".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::NullViolation { .. }));
    }

    #[test]
    fn delete_frees_slot_and_index() {
        let mut t = table();
        let id = t.insert(row("a")).unwrap();
        assert_eq!(t.len(), 1);
        t.delete(id).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get_by_pk(&[Value::Integer(1)]).is_none());
        // slot is recycled
        let id2 = t.insert(row("b")).unwrap();
        assert_eq!(id, id2);
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let a = t.insert(row("dup")).unwrap();
        let b = t.insert(row("dup")).unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        let hits = ix.lookup(&[Value::Text("dup".into())]);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&a) && hits.contains(&b));
        t.delete(a);
        let ix = t.find_index_on(&[1]).unwrap();
        assert_eq!(ix.lookup(&[Value::Text("dup".into())]), &[b]);
    }

    #[test]
    fn unique_index_rejected_on_duplicate() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        t.insert(row("a")).unwrap();
        assert!(t.create_index("u", &["name".into()], true).is_err());
    }

    #[test]
    fn update_maintains_pk_and_secondary_indexes() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let id = t.insert(row("old")).unwrap();
        t.update(id, vec![Value::Integer(1), "new".into(), Value::Integer(5)])
            .unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        assert!(ix.lookup(&[Value::Text("old".into())]).is_empty());
        assert_eq!(ix.lookup(&[Value::Text("new".into())]), &[id]);
    }

    #[test]
    fn update_pk_collision_rejected() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        let b = t.insert(row("b")).unwrap();
        let err = t
            .update(b, vec![Value::Integer(1), "b".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn index_buckets_stay_in_slot_order() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let a = t.insert(row("x")).unwrap();
        let b = t.insert(row("y")).unwrap();
        let c = t.insert(row("x")).unwrap();
        // b joins the "x" bucket between a and c, whatever the write order
        t.update(b, vec![Value::Integer(2), "x".into(), Value::Null])
            .unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        assert_eq!(ix.lookup(&[Value::Text("x".into())]), &[a, b, c]);
        assert!(ix.lookup(&[Value::Text("y".into())]).is_empty());
        assert_eq!(ix.distinct_keys(), 1);
    }

    #[test]
    fn insert_at_places_row_and_maintains_indexes() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        // place a row physically at slot 5, leaving holes
        t.insert_at(5, vec![Value::Integer(9), "p".into(), Value::Integer(1)])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_by_pk(&[Value::Integer(9)]).unwrap().0, 5);
        let ix = t.find_index_on(&[1]).unwrap();
        assert_eq!(ix.lookup(&[Value::Text("p".into())]), &[5]);
        // auto counter is bumped past the explicit key
        let id = t.insert(row("next")).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(10));
        // re-applying the same physical insert is idempotent
        t.insert_at(5, vec![Value::Integer(9), "p".into(), Value::Integer(1)])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(ix_len(&t), 2);
    }

    fn ix_len(t: &Table) -> usize {
        let ix = t.find_index_on(&[1]).unwrap();
        ix.lookup(&[Value::Text("p".into())]).len() + ix.lookup(&[Value::Text("next".into())]).len()
    }

    #[test]
    fn insert_at_reclaims_freed_slot() {
        let mut t = table();
        let a = t.insert(row("a")).unwrap();
        t.delete(a).unwrap();
        // restore physically (the rollback path)
        t.insert_at(a, vec![Value::Integer(1), "a".into(), Value::Integer(0)])
            .unwrap();
        assert_eq!(t.len(), 1);
        // the slot is no longer on the free list: a new insert appends
        let b = t.insert(row("b")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn coercion_happens_on_insert() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Null, "a".into(), Value::Text("7".into())])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Integer(7));
    }
}
