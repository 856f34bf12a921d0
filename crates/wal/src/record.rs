//! Binary framing of the write-ahead log.
//!
//! ```text
//! file   := HEADER record*
//! HEADER := b"WRWAL\x01\0\0"                       (8 bytes)
//! record := len:u32  lsn:u64  crc:u32  payload     (crc = CRC-32 of payload)
//! payload:= count:u32  change*                     (len = payload length)
//! ```
//!
//! Everything is little-endian. A record is the redo image of exactly one
//! committed transaction; `lsn` values are strictly increasing. The CRC
//! covers only the payload, so a torn tail (partial final record, the
//! normal crash artefact of an append-only file) and a corrupted record
//! are both detected by [`scan_log`], which reports the byte offset where
//! the good prefix ends so recovery can truncate the file there.

use relstore::{ChangeRecord, Row, Value};

/// Magic + format version, written once at file creation.
pub const LOG_MAGIC: &[u8; 8] = b"WRWAL\x01\0\0";

/// Fixed bytes of a record frame before the payload.
pub const RECORD_HEADER_LEN: usize = 4 + 8 + 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Integer(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
        Value::Real(r) => {
            buf.push(2);
            put_u64(buf, r.to_bits());
        }
        Value::Text(s) => {
            buf.push(3);
            put_bytes(buf, s.as_bytes());
        }
        Value::Boolean(b) => {
            buf.push(4);
            buf.push(*b as u8);
        }
        Value::Timestamp(t) => {
            buf.push(5);
            put_u64(buf, *t as u64);
        }
        Value::Blob(b) => {
            buf.push(6);
            put_bytes(buf, b);
        }
    }
}

pub fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn put_change(buf: &mut Vec<u8>, c: &ChangeRecord) {
    match c {
        ChangeRecord::Insert { table, row_id, row } => {
            buf.push(0);
            put_bytes(buf, table.as_bytes());
            put_u64(buf, *row_id as u64);
            put_row(buf, row);
        }
        ChangeRecord::Update { table, row_id, row } => {
            buf.push(1);
            put_bytes(buf, table.as_bytes());
            put_u64(buf, *row_id as u64);
            put_row(buf, row);
        }
        ChangeRecord::Delete { table, row_id, row } => {
            buf.push(2);
            put_bytes(buf, table.as_bytes());
            put_u64(buf, *row_id as u64);
            put_row(buf, row);
        }
        ChangeRecord::Ddl { sql } => {
            buf.push(3);
            put_bytes(buf, sql.as_bytes());
        }
    }
}

/// Append one framed record (the redo image of one committed transaction)
/// to `buf`. Returns the number of bytes appended.
pub fn append_record(buf: &mut Vec<u8>, lsn: u64, changes: &[ChangeRecord]) -> usize {
    let mut payload = Vec::with_capacity(64 * changes.len() + 8);
    put_u32(&mut payload, changes.len() as u32);
    for c in changes {
        put_change(&mut payload, c);
    }
    let start = buf.len();
    put_u32(buf, payload.len() as u32);
    put_u64(buf, lsn);
    put_u32(buf, crc32(&payload));
    buf.extend_from_slice(&payload);
    buf.len() - start
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Option<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Null,
            1 => Value::Integer(self.u64()? as i64),
            2 => Value::Real(f64::from_bits(self.u64()?)),
            3 => Value::Text(std::str::from_utf8(self.bytes()?).ok()?.into()),
            4 => Value::Boolean(self.u8()? != 0),
            5 => Value::Timestamp(self.u64()? as i64),
            6 => Value::Blob(self.bytes()?.to_vec()),
            _ => return None,
        })
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row)
    }

    fn change(&mut self) -> Option<ChangeRecord> {
        Some(match self.u8()? {
            0 => ChangeRecord::Insert {
                table: self.string()?,
                row_id: self.u64()? as usize,
                row: self.row()?,
            },
            1 => ChangeRecord::Update {
                table: self.string()?,
                row_id: self.u64()? as usize,
                row: self.row()?,
            },
            2 => ChangeRecord::Delete {
                table: self.string()?,
                row_id: self.u64()? as usize,
                row: self.row()?,
            },
            3 => ChangeRecord::Ddl {
                sql: self.string()?,
            },
            _ => return None,
        })
    }
}

/// Decode a row from an encoded buffer (shared with the snapshot format).
pub fn decode_row(data: &[u8], pos: &mut usize) -> Option<Row> {
    let mut c = Cursor { data, pos: *pos };
    let row = c.row()?;
    *pos = c.pos;
    Some(row)
}

/// How a log scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Every byte of the file parsed and checksummed clean.
    Clean,
    /// The final record was incomplete (normal crash artefact): the file
    /// ends mid-record at `at` bytes into it.
    TornTail { at: usize },
    /// A record failed its CRC or was structurally invalid at offset `at`.
    Corrupt { at: usize },
    /// The file header was missing or wrong.
    BadHeader,
}

/// The result of scanning a log file image.
#[derive(Debug)]
pub struct LogScan {
    /// Every intact record, in file order: `(lsn, changes)`.
    pub records: Vec<(u64, Vec<ChangeRecord>)>,
    /// Length of the good prefix in bytes — recovery truncates here.
    pub good_len: usize,
    pub outcome: ScanOutcome,
}

/// Scan a full log image, stopping at the first torn or corrupt record.
pub fn scan_log(bytes: &[u8]) -> LogScan {
    if bytes.len() < LOG_MAGIC.len() || &bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
        return LogScan {
            records: Vec::new(),
            good_len: 0,
            outcome: ScanOutcome::BadHeader,
        };
    }
    let mut records = Vec::new();
    let mut pos = LOG_MAGIC.len();
    loop {
        if pos == bytes.len() {
            return LogScan {
                records,
                good_len: pos,
                outcome: ScanOutcome::Clean,
            };
        }
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            return LogScan {
                records,
                good_len: pos,
                outcome: ScanOutcome::TornTail { at: pos },
            };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let lsn = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        if rest.len() < RECORD_HEADER_LEN + len {
            return LogScan {
                records,
                good_len: pos,
                outcome: ScanOutcome::TornTail { at: pos },
            };
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return LogScan {
                records,
                good_len: pos,
                outcome: ScanOutcome::Corrupt { at: pos },
            };
        }
        let mut c = Cursor {
            data: payload,
            pos: 0,
        };
        let n = match c.u32() {
            Some(n) => n as usize,
            None => {
                return LogScan {
                    records,
                    good_len: pos,
                    outcome: ScanOutcome::Corrupt { at: pos },
                }
            }
        };
        let mut changes = Vec::with_capacity(n);
        let mut ok = true;
        for _ in 0..n {
            match c.change() {
                Some(ch) => changes.push(ch),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || c.pos != payload.len() {
            return LogScan {
                records,
                good_len: pos,
                outcome: ScanOutcome::Corrupt { at: pos },
            };
        }
        records.push((lsn, changes));
        pos += RECORD_HEADER_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_changes() -> Vec<ChangeRecord> {
        vec![
            ChangeRecord::Insert {
                table: "book".into(),
                row_id: 3,
                row: vec![
                    Value::Integer(42),
                    Value::Text("WebML".into()),
                    Value::Real(19.5),
                    Value::Null,
                    Value::Boolean(true),
                    Value::Timestamp(1_700_000_000_000),
                    Value::Blob(vec![1, 2, 3]),
                ],
            },
            ChangeRecord::Update {
                table: "book".into(),
                row_id: 3,
                row: vec![Value::Integer(42)],
            },
            ChangeRecord::Delete {
                table: "author".into(),
                row_id: 9,
                row: vec![Value::Integer(9), Value::Text("Ceri".into())],
            },
            ChangeRecord::Ddl {
                sql: "CREATE TABLE t (oid INTEGER PRIMARY KEY)".into(),
            },
        ]
    }

    fn log_with(records: &[(u64, Vec<ChangeRecord>)]) -> Vec<u8> {
        let mut buf = LOG_MAGIC.to_vec();
        for (lsn, changes) in records {
            append_record(&mut buf, *lsn, changes);
        }
        buf
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32(IEEE) of "123456789" is 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trip_all_value_kinds() {
        let changes = sample_changes();
        let buf = log_with(&[(7, changes.clone())]);
        let scan = scan_log(&buf);
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.good_len, buf.len());
        assert_eq!(scan.records, vec![(7, changes)]);
    }

    #[test]
    fn multiple_records_in_order() {
        let a = vec![ChangeRecord::Delete {
            table: "t".into(),
            row_id: 0,
            row: vec![Value::Integer(1)],
        }];
        let b = vec![ChangeRecord::Ddl {
            sql: "DROP TABLE t".into(),
        }];
        let buf = log_with(&[(1, a.clone()), (2, b.clone())]);
        let scan = scan_log(&buf);
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], (1, a));
        assert_eq!(scan.records[1], (2, b));
    }

    #[test]
    fn torn_tail_keeps_good_prefix() {
        let changes = sample_changes();
        let full = log_with(&[(1, changes.clone()), (2, changes.clone())]);
        let one = log_with(&[(1, changes.clone())]);
        // cut the second record anywhere: header-only, mid-payload, 1 byte short
        for cut in [one.len() + 3, one.len() + 20, full.len() - 1] {
            let scan = scan_log(&full[..cut]);
            assert_eq!(scan.outcome, ScanOutcome::TornTail { at: one.len() });
            assert_eq!(scan.good_len, one.len());
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_payload_detected_by_crc() {
        let changes = sample_changes();
        let mut buf = log_with(&[(1, changes.clone()), (2, changes)]);
        let one_len = log_with(&[(1, sample_changes())]).len();
        // flip a byte inside the second record's payload
        let idx = one_len + RECORD_HEADER_LEN + 5;
        buf[idx] ^= 0xFF;
        let scan = scan_log(&buf);
        assert_eq!(scan.outcome, ScanOutcome::Corrupt { at: one_len });
        assert_eq!(scan.good_len, one_len);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn bad_header_yields_nothing() {
        let scan = scan_log(b"NOTALOG!");
        assert_eq!(scan.outcome, ScanOutcome::BadHeader);
        assert!(scan.records.is_empty());
        let scan = scan_log(b"");
        assert_eq!(scan.outcome, ScanOutcome::BadHeader);
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = scan_log(LOG_MAGIC);
        assert_eq!(scan.outcome, ScanOutcome::Clean);
        assert!(scan.records.is_empty());
        assert_eq!(scan.good_len, LOG_MAGIC.len());
    }
}
