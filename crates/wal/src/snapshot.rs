//! Snapshot files: a CRC-checked physical image of every table at a known
//! LSN, so recovery replays only the log *tail* instead of history from
//! the beginning of time.
//!
//! Snapshots are **fuzzy-safe by construction**: the `(tables, last_lsn)`
//! pair is captured atomically under the database write lock
//! ([`relstore::Database::freeze_tables`]), and log replay is physical and
//! idempotent, so a snapshot taken while the log keeps growing still
//! recovers exactly — records at or below `last_lsn` are skipped, records
//! above it re-apply cleanly.
//!
//! ```text
//! file  := b"WRSNAP\x01\0"  last_lsn:u64  ntables:u32  table*  crc:u32
//! table := create_sql  nindexes:u32 (name unique:u8 ncols:u32 col*)*
//!          next_auto:u64  nrows:u32 (row_id:u64 row)*
//! ```
//!
//! The trailing CRC covers everything after the magic. A torn or corrupt
//! snapshot loads as `None` and recovery falls back to full log replay —
//! snapshot writes go through a tmp file + rename, so the previous
//! snapshot survives a crash mid-write.

use crate::record::{crc32, decode_row, put_bytes, put_row, put_u32, put_u64};
use relstore::{ChangeRecord, Database, Row, RowId, Table};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Magic + format version of a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"WRSNAP\x01\0";

/// The physical image of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnap {
    /// Re-runnable DDL reconstructing schema + constraints.
    pub create_sql: String,
    /// Secondary indexes: `(name, unique, column names)`.
    pub indexes: Vec<(String, bool, Vec<String>)>,
    /// Auto-increment high-water mark.
    pub next_auto: i64,
    /// Live rows with their exact slot ids.
    pub rows: Vec<(RowId, Row)>,
}

/// A whole-database image at `last_lsn`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Every committed transaction with `lsn <= last_lsn` is reflected.
    pub last_lsn: u64,
    /// Tables keyed by canonical (lower-case) name.
    pub tables: BTreeMap<String, TableSnap>,
}

impl SnapshotData {
    /// Build the image from tables frozen under the database write lock.
    pub fn from_frozen(tables: &BTreeMap<String, Table>, last_lsn: u64) -> SnapshotData {
        let mut out = BTreeMap::new();
        for (name, t) in tables {
            let col_name = |i: usize| t.schema.columns[i].name.clone();
            out.insert(
                name.clone(),
                TableSnap {
                    create_sql: t.schema.to_create_sql(),
                    indexes: t
                        .indexes()
                        .iter()
                        .map(|ix| {
                            (
                                ix.name.clone(),
                                ix.unique,
                                ix.columns.iter().map(|&c| col_name(c)).collect(),
                            )
                        })
                        .collect(),
                    next_auto: t.peek_auto(),
                    rows: t.iter().map(|(id, r)| (id, r.clone())).collect(),
                },
            );
        }
        SnapshotData {
            last_lsn,
            tables: out,
        }
    }

    /// Restore this image into a fresh database (schema, indexes, rows in
    /// their exact slots, auto-increment counters) as one batch at
    /// `last_lsn`.
    pub fn restore_into(&self, db: &Database) -> relstore::Result<()> {
        let mut batch = Vec::new();
        for (name, snap) in &self.tables {
            batch.push(ChangeRecord::Ddl {
                sql: snap.create_sql.clone(),
            });
            for (ix_name, unique, cols) in &snap.indexes {
                batch.push(ChangeRecord::Ddl {
                    sql: format!(
                        "CREATE {}INDEX {} ON {} ({})",
                        if *unique { "UNIQUE " } else { "" },
                        ix_name,
                        name,
                        cols.join(", ")
                    ),
                });
            }
            batch.extend(snap.rows.iter().map(|(row_id, row)| ChangeRecord::Insert {
                table: name.clone(),
                row_id: *row_id,
                row: row.clone(),
            }));
        }
        db.apply_batch(self.last_lsn, &batch)?;
        for (name, snap) in &self.tables {
            db.set_auto_counter(name, snap.next_auto)?;
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(4096);
        put_u64(&mut body, self.last_lsn);
        put_u32(&mut body, self.tables.len() as u32);
        for (name, snap) in &self.tables {
            put_bytes(&mut body, name.as_bytes());
            put_bytes(&mut body, snap.create_sql.as_bytes());
            put_u32(&mut body, snap.indexes.len() as u32);
            for (name, unique, cols) in &snap.indexes {
                put_bytes(&mut body, name.as_bytes());
                body.push(*unique as u8);
                put_u32(&mut body, cols.len() as u32);
                for c in cols {
                    put_bytes(&mut body, c.as_bytes());
                }
            }
            put_u64(&mut body, snap.next_auto as u64);
            put_u32(&mut body, snap.rows.len() as u32);
            for (row_id, row) in &snap.rows {
                put_u64(&mut body, *row_id as u64);
                put_row(&mut body, row);
            }
        }
        let mut out = SNAP_MAGIC.to_vec();
        let crc = crc32(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<SnapshotData> {
        if bytes.len() < SNAP_MAGIC.len() + 4 || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return None;
        }
        let body = &bytes[SNAP_MAGIC.len()..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return None;
        }
        let mut pos = 0usize;
        let u32_at = |pos: &mut usize| -> Option<u32> {
            let v = u32::from_le_bytes(body.get(*pos..*pos + 4)?.try_into().unwrap());
            *pos += 4;
            Some(v)
        };
        let u64_at = |pos: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(body.get(*pos..*pos + 8)?.try_into().unwrap());
            *pos += 8;
            Some(v)
        };
        let str_at = |pos: &mut usize| -> Option<String> {
            let n = u32_at(pos)? as usize;
            let s = body.get(*pos..*pos + n)?;
            *pos += n;
            String::from_utf8(s.to_vec()).ok()
        };
        let last_lsn = u64_at(&mut pos)?;
        let ntables = u32_at(&mut pos)? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..ntables {
            let table_name = str_at(&mut pos)?;
            let create_sql = str_at(&mut pos)?;
            let nix = u32_at(&mut pos)? as usize;
            let mut indexes = Vec::with_capacity(nix);
            for _ in 0..nix {
                let name = str_at(&mut pos)?;
                let unique = *body.get(pos)? != 0;
                pos += 1;
                let ncols = u32_at(&mut pos)? as usize;
                let mut cols = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    cols.push(str_at(&mut pos)?);
                }
                indexes.push((name, unique, cols));
            }
            let next_auto = u64_at(&mut pos)? as i64;
            let nrows = u32_at(&mut pos)? as usize;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let row_id = u64_at(&mut pos)? as usize;
                let row = decode_row(body, &mut pos)?;
                rows.push((row_id, row));
            }
            tables.insert(
                table_name,
                TableSnap {
                    create_sql,
                    indexes,
                    next_auto,
                    rows,
                },
            );
        }
        if pos != body.len() {
            return None;
        }
        Some(SnapshotData { last_lsn, tables })
    }
}

/// Atomically (tmp + rename) write a snapshot file.
pub fn write_snapshot(path: &Path, snap: &SnapshotData) -> io::Result<u64> {
    let bytes = snap.encode();
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Load a snapshot, returning `None` when the file is absent, torn, or
/// fails its checksum (recovery then falls back to full log replay).
pub fn load_snapshot(path: &Path) -> io::Result<Option<SnapshotData>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(SnapshotData::decode(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_byte, TempDir};
    use relstore::Params;

    fn seeded_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE book (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL, price REAL);
             CREATE TABLE author (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL);
             CREATE INDEX ix_title ON book (title);",
        )
        .unwrap();
        db.execute(
            "INSERT INTO book (title, price) VALUES ('WebML', 30.0), ('Araneus', NULL)",
            &Params::new(),
        )
        .unwrap();
        db.execute("INSERT INTO author (name) VALUES ('Ceri')", &Params::new())
            .unwrap();
        // leave a hole so slot ids are not dense
        db.execute("DELETE FROM book WHERE oid = 1", &Params::new())
            .unwrap();
        db
    }

    #[test]
    fn snapshot_round_trips_schema_rows_and_counters() {
        let dir = TempDir::new("snap-rt").unwrap();
        let db = seeded_db();
        let (tables, _) = db.freeze_tables(|| ());
        let snap = SnapshotData::from_frozen(&tables, 17);
        let path = dir.path().join("wal.snap");
        write_snapshot(&path, &snap).unwrap();
        let loaded = load_snapshot(&path).unwrap().expect("snapshot loads");
        assert_eq!(loaded, snap);
        let fresh = Database::new();
        loaded.restore_into(&fresh).unwrap();
        assert_eq!(fresh.dump(), db.dump());
        // auto-increment continues where the original left off
        fresh
            .execute(
                "INSERT INTO book (title) VALUES ('Strudel')",
                &Params::new(),
            )
            .unwrap();
        let rs = fresh
            .query(
                "SELECT oid FROM book WHERE title = 'Strudel'",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("oid"), Some(&relstore::Value::Integer(3)));
        // the secondary index survived
        let (tables, _) = fresh.freeze_tables(|| ());
        assert_eq!(tables["book"].indexes().len(), 1);
    }

    #[test]
    fn corrupt_snapshot_loads_as_none() {
        let dir = TempDir::new("snap-bad").unwrap();
        let db = seeded_db();
        let (tables, _) = db.freeze_tables(|| ());
        let path = dir.path().join("wal.snap");
        write_snapshot(&path, &SnapshotData::from_frozen(&tables, 5)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        corrupt_byte(&path, len / 2).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), None);
        // missing file is also None, not an error
        assert_eq!(load_snapshot(&dir.path().join("nope")).unwrap(), None);
    }
}
