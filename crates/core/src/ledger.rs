//! Durable market ledger: an append-only write-ahead log of market
//! events, periodic snapshots of broker account state, and crash
//! recovery.
//!
//! Arbitrage-freeness is an invariant over a buyer's *entire purchase
//! history*, so the broker's balances, charged bitmaps, and entropy
//! anchors must survive a process crash. The ledger records every
//! committed market event **before** it is applied in memory
//! (append-then-apply): after a crash, [`recover_dir`] reloads the last
//! snapshot and replays the tail of the log, and the broker re-prices
//! each logged purchase to verify the recomputed price is bitwise
//! identical to the logged one — the determinism won by the exact
//! pricing pipeline doubles as a recovery invariant.
//!
//! ## On-disk format
//!
//! `ledger.log` is the magic `QIRWAL01` followed by framed records:
//!
//! ```text
//! | u32 LE payload len | u64 LE checksum | payload |
//! ```
//!
//! The checksum is a splitmix64 word-fold over the payload (the same
//! hashing style as `normal_form`'s plan fingerprints). A payload is
//! `u64 LE seq | u8 tag | body`; sequence numbers start at 1 and
//! increase by exactly 1, so a gap is corruption, not a tear. Floats are
//! stored as `f64::to_bits` — the logged price is authoritative and
//! bit-exact.
//!
//! `snapshot.bin` is `QIRSNP01` plus one checksummed frame holding a
//! [`SnapshotState`]. Snapshots and log compaction are written to a temp
//! file and atomically renamed, so the snapshot is never torn; any
//! damage to it is a hard [`LedgerError::Corrupt`].
//!
//! ## Recovery semantics
//!
//! * A **torn tail** — an incomplete header, a frame running past EOF,
//!   or a checksum mismatch on the physically last record — is the
//!   expected residue of a crash mid-append: recovery truncates the file
//!   at the tear and continues.
//! * A **mid-log corruption** — a bad checksum or undecodable payload
//!   with later records present, a sequence gap, bad magic — cannot be
//!   produced by a crash of this writer and hard-fails with a typed
//!   [`LedgerError::Corrupt`].
//!
//! Crash points are injected through [`crate::fault`]: the
//! `LEDGER_APPEND`/`LEDGER_SNAPSHOT` failpoints abort between records,
//! and the byte-granular crash budget (`fault::arm_ledger_crash`) cuts
//! an append mid-write at an exact byte offset, simulating the process
//! dying inside `write(2)`.

use crate::fault;
use crate::telemetry::{Stage, Telemetry};
use qirana_sqlengine::fingerprint::mix64;
use qirana_sqlengine::{CellWrite, Value};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening `ledger.log`.
pub const LOG_MAGIC: [u8; 8] = *b"QIRWAL01";
/// Magic bytes opening `snapshot.bin`.
pub const SNAP_MAGIC: [u8; 8] = *b"QIRSNP01";
/// Bytes of a record frame header: `u32` length + `u64` checksum.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a single record payload; anything larger is rejected
/// at encode time and treated as corruption when read.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

const LOG_FILE: &str = "ledger.log";
const LOG_TMP_FILE: &str = "ledger.log.tmp";
const SNAP_FILE: &str = "snapshot.bin";
const SNAP_TMP_FILE: &str = "snapshot.bin.tmp";
const LOCK_FILE: &str = "ledger.lock";

/// Where and how the ledger persists. Every append is `fdatasync`ed
/// before it returns.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Directory holding `ledger.log` and `snapshot.bin`.
    pub dir: PathBuf,
    /// Take a snapshot (and compact the log) after this many applied
    /// events; `0` disables snapshots entirely (pure WAL).
    pub snapshot_every: u64,
}

impl LedgerConfig {
    /// A config with the default snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LedgerConfig {
            dir: dir.into(),
            snapshot_every: 256,
        }
    }

    /// Builder: set the snapshot cadence (`0` = never snapshot).
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Path of the write-ahead log.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAP_FILE)
    }

    fn log_tmp_path(&self) -> PathBuf {
        self.dir.join(LOG_TMP_FILE)
    }

    fn snapshot_tmp_path(&self) -> PathBuf {
        self.dir.join(SNAP_TMP_FILE)
    }
}

/// Typed ledger failures.
#[derive(Debug)]
pub enum LedgerError {
    /// An OS-level I/O failure on `path`.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The log or snapshot is damaged in a way a crash of this writer
    /// cannot produce (mid-log checksum mismatch, sequence gap, bad
    /// magic, undecodable payload, torn snapshot).
    Corrupt { offset: u64, detail: String },
    /// A single record payload exceeded [`MAX_RECORD_LEN`].
    RecordTooLarge { len: u64 },
    /// The recovered snapshot does not fit the database it is being
    /// restored into (table/row shape mismatch).
    StateMismatch { detail: String },
    /// Replaying a logged event reproduced a different result than the
    /// log records — the determinism invariant is broken.
    ReplayDiverged { seq: u64, detail: String },
    /// A previous append failed mid-write; the in-memory ledger no
    /// longer knows what is on disk and refuses further appends. Reopen
    /// through recovery.
    Poisoned,
    /// The armed crash budget cut this append after `written` bytes — a
    /// simulated torn write.
    Crashed { written: u64 },
    /// A `fault` failpoint fired on the append/snapshot path.
    Injected(fault::InjectedFault),
    /// Another live writer holds the directory's exclusive lock. Two
    /// writers interleaving appends would corrupt the sequence stream,
    /// so the second opener is refused instead.
    Locked { path: PathBuf, holder: String },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io { path, source } => {
                write!(f, "ledger I/O error on {}: {}", path.display(), source)
            }
            LedgerError::Corrupt { offset, detail } => {
                write!(f, "ledger corrupt at byte {offset}: {detail}")
            }
            LedgerError::RecordTooLarge { len } => {
                write!(f, "ledger record too large: {len} bytes")
            }
            LedgerError::StateMismatch { detail } => {
                write!(f, "snapshot does not match the database: {detail}")
            }
            LedgerError::ReplayDiverged { seq, detail } => {
                write!(f, "replay diverged at seq {seq}: {detail}")
            }
            LedgerError::Poisoned => {
                write!(
                    f,
                    "ledger poisoned by a failed append; recover before continuing"
                )
            }
            LedgerError::Crashed { written } => {
                write!(f, "simulated crash cut an append after {written} bytes")
            }
            LedgerError::Injected(e) => write!(f, "{e}"),
            LedgerError::Locked { path, holder } => {
                write!(
                    f,
                    "ledger directory is locked by another writer (holder {holder:?}): {}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LedgerError::Io { source, .. } => Some(source),
            LedgerError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

fn io_at(path: PathBuf, source: std::io::Error) -> LedgerError {
    LedgerError::Io { path, source }
}

/// A committed market event, exactly as the broker applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// A buyer's purchase: the authoritative price and resulting balance
    /// (both bit-exact).
    PurchaseCommitted {
        buyer: String,
        sql: String,
        price: f64,
        total_paid: f64,
    },
    /// A seller update as the exact cell writes it applies; a SQL
    /// `UPDATE` is planned into writes before it is logged.
    WritesCommitted { writes: Vec<CellWrite> },
    /// Marker: a snapshot covering every event with `seq <= seq` exists
    /// on disk; written just before log compaction.
    SnapshotTaken { seq: u64 },
}

// ---------------------------------------------------------------------
// Checksum — splitmix64 word-fold, the `normal_form` hashing style.
// ---------------------------------------------------------------------

/// splitmix64: the golden-ratio step, then [`mix64`].
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Streaming splitmix64 checksum over a record payload: the payload is
/// folded in 8-byte little-endian words, and the tail carries its own
/// length in the top byte so `"a"` and `"a\0"` hash differently.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h: u64 = 0x1ED6_E2C0_FFEE_5EED;
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(w));
    }
    let rem = chunks.remainder();
    let mut tail = (rem.len() as u64 + 1) << 56;
    for (i, &b) in rem.iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    mix(h ^ tail)
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            put_i64(buf, *i);
        }
        Value::Float(x) => {
            put_u8(buf, 3);
            put_u64(buf, x.to_bits());
        }
        Value::Date(d) => {
            put_u8(buf, 4);
            put_i32(buf, *d);
        }
        Value::Str(s) => {
            put_u8(buf, 5);
            put_str(buf, s);
        }
    }
}

fn put_write(buf: &mut Vec<u8>, w: &CellWrite) {
    put_u64(buf, w.table as u64);
    put_u64(buf, w.row as u64);
    put_u64(buf, w.col as u64);
    put_value(buf, &w.value);
}

const TAG_PURCHASE: u8 = 1;
const TAG_WRITES: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;

fn encode_payload(seq: u64, ev: &LedgerEvent) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    put_u64(&mut b, seq);
    match ev {
        LedgerEvent::PurchaseCommitted {
            buyer,
            sql,
            price,
            total_paid,
        } => {
            put_u8(&mut b, TAG_PURCHASE);
            put_str(&mut b, buyer);
            put_str(&mut b, sql);
            put_u64(&mut b, price.to_bits());
            put_u64(&mut b, total_paid.to_bits());
        }
        LedgerEvent::WritesCommitted { writes } => {
            put_u8(&mut b, TAG_WRITES);
            put_u64(&mut b, writes.len() as u64);
            for w in writes {
                put_write(&mut b, w);
            }
        }
        LedgerEvent::SnapshotTaken { seq } => {
            put_u8(&mut b, TAG_SNAPSHOT);
            put_u64(&mut b, *seq);
        }
    }
    b
}

/// Encodes one framed record (`len | checksum | payload`) exactly as it
/// appears in the log. Public so tests and harnesses can compute frame
/// boundaries for crafting crash points.
pub fn encode_record(seq: u64, ev: &LedgerEvent) -> Result<Vec<u8>, LedgerError> {
    let payload = encode_payload(seq, ev);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_LEN)
        .ok_or(LedgerError::RecordTooLarge {
            len: payload.len() as u64,
        })?;
    let mut rec = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut rec, len);
    put_u64(&mut rec, checksum(&payload));
    rec.extend_from_slice(&payload);
    Ok(rec)
}

// ---------------------------------------------------------------------
// Binary decoding
// ---------------------------------------------------------------------

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.b.len() - self.pos < n {
            return Err(format!("payload ends early at byte {}", self.pos));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(w))
    }

    fn i64(&mut self) -> Result<i64, String> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(w))
    }

    fn i32(&mut self) -> Result<i32, String> {
        let mut w = [0u8; 4];
        w.copy_from_slice(self.take(4)?);
        Ok(i32::from_le_bytes(w))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "length overflows usize".to_string())
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.usize()?;
        let s = self.take(n)?;
        std::str::from_utf8(s)
            .map(str::to_string)
            .map_err(|_| "invalid UTF-8 in string".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(format!("bad bool byte {b}")),
            },
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::Date(self.i32()?)),
            5 => Ok(Value::Str(Arc::from(self.str()?.as_str()))),
            t => Err(format!("unknown value tag {t}")),
        }
    }

    fn write(&mut self) -> Result<CellWrite, String> {
        Ok(CellWrite {
            table: self.usize()?,
            row: self.usize()?,
            col: self.usize()?,
            value: self.value()?,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// Decodes one record payload back into `(seq, event)`.
pub fn decode_payload(payload: &[u8]) -> Result<(u64, LedgerEvent), String> {
    let mut c = Cur::new(payload);
    let seq = c.u64()?;
    let ev = match c.u8()? {
        TAG_PURCHASE => LedgerEvent::PurchaseCommitted {
            buyer: c.str()?,
            sql: c.str()?,
            price: f64::from_bits(c.u64()?),
            total_paid: f64::from_bits(c.u64()?),
        },
        TAG_WRITES => {
            let n = c.usize()?;
            let mut writes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                writes.push(c.write()?);
            }
            LedgerEvent::WritesCommitted { writes }
        }
        TAG_SNAPSHOT => LedgerEvent::SnapshotTaken { seq: c.u64()? },
        t => return Err(format!("unknown event tag {t}")),
    };
    if !c.done() {
        return Err("trailing bytes in record payload".to_string());
    }
    Ok((seq, ev))
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One buyer's durable account state.
#[derive(Debug, Clone, PartialEq)]
pub struct BuyerSnapshot {
    pub name: String,
    /// Balance, bit-exact.
    pub paid: f64,
    /// Coverage-family charged bitmap (empty for entropy-family
    /// configurations).
    pub charged: Vec<bool>,
    /// Purchase history as SQL text; re-prepared on restore.
    pub history: Vec<String>,
}

/// Everything needed to rebuild broker state without replaying the
/// events the snapshot covers. Entropy factors are *not* stored: they
/// are a deterministic function of the database and weights and are
/// recomputed on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// Last event sequence number the snapshot covers.
    pub seq: u64,
    /// Pricing-cache generation at that point.
    pub generation: u64,
    /// Row data per table, in schema order. Updates are cell-level, so
    /// row counts always match the genesis database.
    pub tables: Vec<Vec<Vec<Value>>>,
    /// Buyer accounts, sorted by name for deterministic bytes.
    pub buyers: Vec<BuyerSnapshot>,
}

fn encode_snapshot(s: &SnapshotState) -> Vec<u8> {
    let mut b = Vec::with_capacity(1024);
    put_u64(&mut b, s.seq);
    put_u64(&mut b, s.generation);
    put_u64(&mut b, s.tables.len() as u64);
    for rows in &s.tables {
        put_u64(&mut b, rows.len() as u64);
        for row in rows {
            put_u64(&mut b, row.len() as u64);
            for v in row {
                put_value(&mut b, v);
            }
        }
    }
    put_u64(&mut b, s.buyers.len() as u64);
    for buyer in &s.buyers {
        put_str(&mut b, &buyer.name);
        put_u64(&mut b, buyer.paid.to_bits());
        put_u64(&mut b, buyer.charged.len() as u64);
        for &c in &buyer.charged {
            put_u8(&mut b, u8::from(c));
        }
        put_u64(&mut b, buyer.history.len() as u64);
        for h in &buyer.history {
            put_str(&mut b, h);
        }
    }
    b
}

fn decode_snapshot(payload: &[u8]) -> Result<SnapshotState, String> {
    let mut c = Cur::new(payload);
    let seq = c.u64()?;
    let generation = c.u64()?;
    let nt = c.usize()?;
    let mut tables = Vec::with_capacity(nt.min(1 << 12));
    for _ in 0..nt {
        let nr = c.usize()?;
        let mut rows = Vec::with_capacity(nr.min(1 << 20));
        for _ in 0..nr {
            let nc = c.usize()?;
            let mut row = Vec::with_capacity(nc.min(1 << 12));
            for _ in 0..nc {
                row.push(c.value()?);
            }
            rows.push(row);
        }
        tables.push(rows);
    }
    let nb = c.usize()?;
    let mut buyers = Vec::with_capacity(nb.min(1 << 16));
    for _ in 0..nb {
        let name = c.str()?;
        let paid = f64::from_bits(c.u64()?);
        let ncov = c.usize()?;
        let mut charged = Vec::with_capacity(ncov.min(1 << 24));
        for _ in 0..ncov {
            charged.push(match c.u8()? {
                0 => false,
                1 => true,
                b => return Err(format!("bad charged byte {b}")),
            });
        }
        let nh = c.usize()?;
        let mut history = Vec::with_capacity(nh.min(1 << 16));
        for _ in 0..nh {
            history.push(c.str()?);
        }
        buyers.push(BuyerSnapshot {
            name,
            paid,
            charged,
            history,
        });
    }
    if !c.done() {
        return Err("trailing bytes in snapshot payload".to_string());
    }
    Ok(SnapshotState {
        seq,
        generation,
        tables,
        buyers,
    })
}

fn read_snapshot(path: &Path) -> Result<Option<SnapshotState>, LedgerError> {
    if !path.exists() {
        return Ok(None);
    }
    let bytes = fs::read(path).map_err(|e| io_at(path.to_path_buf(), e))?;
    let corrupt = |detail: &str| LedgerError::Corrupt {
        offset: 0,
        detail: format!("snapshot: {detail}"),
    };
    if bytes.len() < 8 + HEADER_LEN {
        return Err(corrupt(
            "file shorter than its header (snapshots are written atomically, so a short file is corruption, not a tear)",
        ));
    }
    if bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut w4 = [0u8; 4];
    w4.copy_from_slice(&bytes[8..12]);
    let len = u32::from_le_bytes(w4) as usize;
    let mut w8 = [0u8; 8];
    w8.copy_from_slice(&bytes[12..20]);
    let sum = u64::from_le_bytes(w8);
    if bytes.len() != 8 + HEADER_LEN + len {
        return Err(corrupt("length field does not match file size"));
    }
    let payload = &bytes[8 + HEADER_LEN..];
    if checksum(payload) != sum {
        return Err(corrupt("checksum mismatch"));
    }
    decode_snapshot(payload)
        .map(Some)
        .map_err(|detail| corrupt(&detail))
}

// ---------------------------------------------------------------------
// Log scanning
// ---------------------------------------------------------------------

/// One record located in a scanned log.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    pub seq: u64,
    /// Byte offset of the frame start (the `len` field).
    pub offset: u64,
    /// Byte offset just past the frame.
    pub end: u64,
    pub event: LedgerEvent,
}

/// Result of walking a log image.
#[derive(Debug)]
pub struct LogScan {
    pub records: Vec<ScannedRecord>,
    /// `Some(t)`: a torn tail begins at byte `t` and should be truncated.
    pub truncate_to: Option<u64>,
}

/// Walks a full log image (including magic), separating clean records
/// from a torn tail and hard-failing on mid-log corruption. Public so
/// the crash-matrix harness can map byte offsets to record boundaries.
pub fn scan_log(bytes: &[u8]) -> Result<LogScan, LedgerError> {
    if bytes.is_empty() {
        return Ok(LogScan {
            records: Vec::new(),
            truncate_to: None,
        });
    }
    if bytes.len() < LOG_MAGIC.len() {
        // A crash during creation tore the magic itself.
        return Ok(LogScan {
            records: Vec::new(),
            truncate_to: Some(0),
        });
    }
    if bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
        return Err(LedgerError::Corrupt {
            offset: 0,
            detail: "bad ledger magic".to_string(),
        });
    }
    let mut records: Vec<ScannedRecord> = Vec::new();
    let mut off = LOG_MAGIC.len();
    let mut truncate_to = None;
    while off < bytes.len() {
        if bytes.len() - off < HEADER_LEN {
            truncate_to = Some(off as u64);
            break;
        }
        let mut w4 = [0u8; 4];
        w4.copy_from_slice(&bytes[off..off + 4]);
        let len = u32::from_le_bytes(w4);
        let mut w8 = [0u8; 8];
        w8.copy_from_slice(&bytes[off + 4..off + HEADER_LEN]);
        let sum = u64::from_le_bytes(w8);
        if len > MAX_RECORD_LEN {
            return Err(LedgerError::Corrupt {
                offset: off as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD_LEN}-byte bound"),
            });
        }
        let end = off + HEADER_LEN + len as usize;
        if end > bytes.len() {
            // The frame runs past EOF: torn write of the payload (or of
            // the length field itself).
            truncate_to = Some(off as u64);
            break;
        }
        let payload = &bytes[off + HEADER_LEN..end];
        if checksum(payload) != sum {
            if end == bytes.len() {
                // Physically last record: torn write caught by checksum.
                truncate_to = Some(off as u64);
                break;
            }
            return Err(LedgerError::Corrupt {
                offset: off as u64,
                detail: "record checksum mismatch with later records present".to_string(),
            });
        }
        match decode_payload(payload) {
            Ok((seq, event)) => {
                if let Some(last) = records.last() {
                    if seq != last.seq + 1 {
                        return Err(LedgerError::Corrupt {
                            offset: off as u64,
                            detail: format!("sequence gap: {} follows {}", seq, last.seq),
                        });
                    }
                }
                records.push(ScannedRecord {
                    seq,
                    offset: off as u64,
                    end: end as u64,
                    event,
                });
            }
            // A checksummed-but-undecodable payload cannot be a tear:
            // the checksum covers the whole payload.
            Err(detail) => {
                return Err(LedgerError::Corrupt {
                    offset: off as u64,
                    detail,
                });
            }
        }
        off = end;
    }
    Ok(LogScan {
        records,
        truncate_to,
    })
}

// ---------------------------------------------------------------------
// Exclusive-writer lock
// ---------------------------------------------------------------------

/// Whether `pid` names a live process. Linux-first: `/proc/<pid>`
/// existence. On a platform without `/proc` the answer is conservatively
/// "alive" — a genuinely stale lock there needs manual removal, which is
/// strictly safer than two writers interleaving appends.
fn pid_alive(pid: u32) -> bool {
    if !Path::new("/proc").exists() {
        return true;
    }
    Path::new("/proc").join(pid.to_string()).exists()
}

/// RAII exclusive-writer lock on a ledger directory.
///
/// The WAL format assumes a single appender — two handles on the same
/// `ledger.log` would interleave records and shear the sequence stream —
/// but nothing used to enforce that across processes. The lock is a
/// `create_new` (`O_EXCL`) file holding the owner's PID: atomic on every
/// filesystem worth running a market on, and self-describing when it
/// leaks. A lock whose recorded PID no longer runs is *stale* (the owner
/// crashed without `Drop`) and is broken exactly once per acquire
/// attempt; a live or unreadable holder refuses the open with
/// [`LedgerError::Locked`].
#[derive(Debug)]
struct LedgerLock {
    path: PathBuf,
}

impl LedgerLock {
    fn acquire(dir: &Path) -> Result<Self, LedgerError> {
        let path = dir.join(LOCK_FILE);
        let mut reclaimed = false;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    // Best-effort identity stamp: a failed write leaves an
                    // empty lock, which is still an exclusive lock — it
                    // just reads as an unknown (hence live) holder.
                    let _ = f.write_all(std::process::id().to_string().as_bytes());
                    let _ = f.sync_all();
                    return Ok(LedgerLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .unwrap_or_default()
                        .trim()
                        .to_string();
                    let stale = !reclaimed
                        && holder
                            .parse::<u32>()
                            .is_ok_and(|pid| pid != std::process::id() && !pid_alive(pid));
                    if stale {
                        // The owner died without releasing; break the lock
                        // and race for it once. Losing the race means a
                        // live writer won it — Locked is then correct.
                        reclaimed = true;
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    return Err(LedgerError::Locked { path, holder });
                }
                Err(e) => return Err(io_at(path, e)),
            }
        }
    }
}

impl Drop for LedgerLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------
// The ledger proper
// ---------------------------------------------------------------------

/// An open append handle on a market's write-ahead log.
pub struct Ledger {
    cfg: LedgerConfig,
    log: File,
    next_seq: u64,
    records_since_snapshot: u64,
    poisoned: bool,
    telemetry: Telemetry,
    /// Held for the handle's whole lifetime; releases on drop.
    _lock: LedgerLock,
}

impl fmt::Debug for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ledger")
            .field("dir", &self.cfg.dir)
            .field("next_seq", &self.next_seq)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Ledger {
    /// Starts a **fresh** market ledger in `cfg.dir`, truncating any
    /// previous log and deleting any previous snapshot. Use
    /// [`recover_dir`] to resume an existing market.
    pub fn create(cfg: LedgerConfig) -> Result<Self, LedgerError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_at(cfg.dir.clone(), e))?;
        // Lock before touching any file: losing the race must not
        // truncate a log another writer is mid-append on.
        let lock = LedgerLock::acquire(&cfg.dir)?;
        for stale in [
            cfg.snapshot_path(),
            cfg.snapshot_tmp_path(),
            cfg.log_tmp_path(),
        ] {
            if stale.exists() {
                fs::remove_file(&stale).map_err(|e| io_at(stale.clone(), e))?;
            }
        }
        let path = cfg.log_path();
        let mut log = File::create(&path).map_err(|e| io_at(path.clone(), e))?;
        // The magic is part of the append stream, so the crash budget
        // covers it too: a budget under 8 bytes dies during creation.
        if let Some(n) = fault::ledger_write_quota(LOG_MAGIC.len()) {
            if n < LOG_MAGIC.len() {
                let _ = log.write_all(&LOG_MAGIC[..n]);
                let _ = log.sync_data();
                return Err(LedgerError::Crashed { written: n as u64 });
            }
        }
        log.write_all(&LOG_MAGIC)
            .map_err(|e| io_at(path.clone(), e))?;
        log.sync_all().map_err(|e| io_at(path, e))?;
        Ok(Ledger {
            cfg,
            log,
            next_seq: 1,
            records_since_snapshot: 0,
            poisoned: false,
            telemetry: Telemetry::disabled(),
            _lock: lock,
        })
    }

    /// Attaches a telemetry handle: append/fsync latency histograms and
    /// snapshot/compaction counters flow into its sink. The broker wires
    /// this from its engine options on [`create`](Ledger::create) and
    /// recovery; a detached ledger stays silent.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sequence number the next appended event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended event (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Whether a failed append has poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Events applied since the last snapshot (or since creation).
    pub fn records_since_snapshot(&self) -> u64 {
        self.records_since_snapshot
    }

    /// Whether the configured snapshot cadence is due.
    pub fn should_snapshot(&self) -> bool {
        self.cfg.snapshot_every > 0 && self.records_since_snapshot >= self.cfg.snapshot_every
    }

    /// Appends one event, returning its sequence number. The record is
    /// written and `fdatasync`ed when this returns — callers apply
    /// the event to in-memory state only afterwards (append-then-apply).
    pub fn append(&mut self, ev: &LedgerEvent) -> Result<u64, LedgerError> {
        if self.poisoned {
            return Err(LedgerError::Poisoned);
        }
        fault::check(fault::LEDGER_APPEND).map_err(LedgerError::Injected)?;
        let span = self.telemetry.span(Stage::LedgerAppend);
        let seq = self.next_seq;
        let rec = encode_record(seq, ev)?;
        span.count("bytes", rec.len() as u64);
        if let Some(n) = fault::ledger_write_quota(rec.len()) {
            if n < rec.len() {
                // Simulated crash mid-write: the first `n` bytes reach
                // the log, then the "process dies". The handle poisons
                // itself so the session cannot outlive its own crash.
                self.poisoned = true;
                if n > 0 {
                    let _ = self.log.write_all(&rec[..n]);
                }
                let _ = self.log.sync_data();
                return Err(LedgerError::Crashed { written: n as u64 });
            }
        }
        if let Err(e) = self.log.write_all(&rec) {
            // A partial real write leaves unknown bytes on disk.
            self.poisoned = true;
            return Err(io_at(self.cfg.log_path(), e));
        }
        self.sync()?;
        self.next_seq += 1;
        if !matches!(ev, LedgerEvent::SnapshotTaken { .. }) {
            self.records_since_snapshot += 1;
        }
        self.telemetry.counter_add("ledger_appends_total", 1);
        Ok(seq)
    }

    fn sync(&mut self) -> Result<(), LedgerError> {
        let _span = self.telemetry.span(Stage::LedgerFsync);
        let out = self
            .log
            .sync_data()
            .map_err(|e| io_at(self.cfg.log_path(), e));
        if out.is_ok() {
            self.telemetry.counter_add("ledger_fsyncs_total", 1);
        }
        out
    }

    /// Writes `snap` atomically, appends the `SnapshotTaken` marker, and
    /// compacts the log down to that marker. Every intermediate crash
    /// state is recoverable: the snapshot file only ever changes by
    /// atomic rename, and the pre-compaction log remains a superset of
    /// what the snapshot covers.
    pub fn snapshot_and_compact(&mut self, snap: &SnapshotState) -> Result<(), LedgerError> {
        if self.poisoned {
            return Err(LedgerError::Poisoned);
        }
        fault::check(fault::LEDGER_SNAPSHOT).map_err(LedgerError::Injected)?;
        let payload = encode_snapshot(snap);
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or(LedgerError::RecordTooLarge {
                len: payload.len() as u64,
            })?;
        let mut bytes = Vec::with_capacity(8 + HEADER_LEN + payload.len());
        bytes.extend_from_slice(&SNAP_MAGIC);
        put_u32(&mut bytes, len);
        put_u64(&mut bytes, checksum(&payload));
        bytes.extend_from_slice(&payload);
        write_atomic(
            &self.cfg.snapshot_tmp_path(),
            &self.cfg.snapshot_path(),
            &bytes,
        )?;

        // The marker goes through the normal append path so failpoints
        // and crash budgets see it.
        let marker = LedgerEvent::SnapshotTaken { seq: snap.seq };
        let marker_seq = self.append(&marker)?;

        // Compact: the new log is the magic plus the marker record,
        // swapped in by atomic rename. Compaction bytes are a rewrite,
        // not part of the append stream, so they do not consume the
        // crash budget.
        let mut log_bytes = Vec::new();
        log_bytes.extend_from_slice(&LOG_MAGIC);
        log_bytes.extend_from_slice(&encode_record(marker_seq, &marker)?);
        write_atomic(&self.cfg.log_tmp_path(), &self.cfg.log_path(), &log_bytes)?;
        // The old handle points at the unlinked pre-compaction inode.
        let path = self.cfg.log_path();
        self.log = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_at(path, e))?;
        self.records_since_snapshot = 0;
        self.telemetry.counter_add("ledger_snapshots_total", 1);
        self.telemetry.counter_add("ledger_compactions_total", 1);
        Ok(())
    }
}

fn write_atomic(tmp: &Path, dst: &Path, bytes: &[u8]) -> Result<(), LedgerError> {
    let mut f = File::create(tmp).map_err(|e| io_at(tmp.to_path_buf(), e))?;
    f.write_all(bytes)
        .map_err(|e| io_at(tmp.to_path_buf(), e))?;
    f.sync_all().map_err(|e| io_at(tmp.to_path_buf(), e))?;
    fs::rename(tmp, dst).map_err(|e| io_at(dst.to_path_buf(), e))?;
    // Make the rename itself durable where the platform allows it.
    if let Some(parent) = dst.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What [`recover_dir`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The last snapshot, if one exists.
    pub snapshot: Option<SnapshotState>,
    /// Events after the snapshot, in sequence order, to be replayed.
    pub events: Vec<(u64, LedgerEvent)>,
    /// `Some(offset)`: a torn tail was truncated at this byte offset.
    pub truncated_at: Option<u64>,
}

/// Opens an existing market directory: loads the snapshot, scans the
/// log, truncates any torn tail, and returns a clean append handle plus
/// everything the broker must replay. Hard-fails with
/// [`LedgerError::Corrupt`] on damage a crash cannot explain.
pub fn recover_dir(cfg: &LedgerConfig) -> Result<(Ledger, Recovered), LedgerError> {
    fs::create_dir_all(&cfg.dir).map_err(|e| io_at(cfg.dir.clone(), e))?;
    // Lock before any file surgery (tmp removal, tail truncation): the
    // directory may belong to a live writer.
    let lock = LedgerLock::acquire(&cfg.dir)?;
    // Temp files are residue of a crash mid-snapshot/compaction; the
    // rename never happened, so they are dead weight.
    for stale in [cfg.snapshot_tmp_path(), cfg.log_tmp_path()] {
        if stale.exists() {
            fs::remove_file(&stale).map_err(|e| io_at(stale.clone(), e))?;
        }
    }
    let snapshot = read_snapshot(&cfg.snapshot_path())?;
    let snap_seq = snapshot.as_ref().map_or(0, |s| s.seq);

    let log_path = cfg.log_path();
    let bytes = if log_path.exists() {
        fs::read(&log_path).map_err(|e| io_at(log_path.clone(), e))?
    } else {
        Vec::new()
    };
    let scan = scan_log(&bytes)?;

    if let Some(first) = scan.records.first() {
        let covered = first.seq == 1 || first.seq <= snap_seq + 1;
        if !covered {
            return Err(LedgerError::Corrupt {
                offset: first.offset,
                detail: format!(
                    "log starts at seq {} but the snapshot only covers up to seq {snap_seq}",
                    first.seq
                ),
            });
        }
    }

    let events: Vec<(u64, LedgerEvent)> = scan
        .records
        .iter()
        .filter(|r| r.seq > snap_seq)
        .map(|r| (r.seq, r.event.clone()))
        .collect();
    let last_seq = scan.records.last().map_or(0, |r| r.seq);
    let next_seq = last_seq.max(snap_seq) + 1;
    let records_since_snapshot = events
        .iter()
        .filter(|(_, e)| !matches!(e, LedgerEvent::SnapshotTaken { .. }))
        .count() as u64;

    // Physical fix-ups: restore the torn file to its clean prefix.
    let truncated_at = if bytes.len() < LOG_MAGIC.len() {
        let had_partial = !bytes.is_empty();
        let mut f = File::create(&log_path).map_err(|e| io_at(log_path.clone(), e))?;
        f.write_all(&LOG_MAGIC)
            .map_err(|e| io_at(log_path.clone(), e))?;
        f.sync_all().map_err(|e| io_at(log_path.clone(), e))?;
        if had_partial {
            Some(0)
        } else {
            None
        }
    } else if let Some(t) = scan.truncate_to {
        let f = OpenOptions::new()
            .write(true)
            .open(&log_path)
            .map_err(|e| io_at(log_path.clone(), e))?;
        f.set_len(t).map_err(|e| io_at(log_path.clone(), e))?;
        f.sync_all().map_err(|e| io_at(log_path.clone(), e))?;
        Some(t)
    } else {
        None
    };

    let log = OpenOptions::new()
        .append(true)
        .open(&log_path)
        .map_err(|e| io_at(log_path, e))?;
    Ok((
        Ledger {
            cfg: cfg.clone(),
            log,
            next_seq,
            records_since_snapshot,
            poisoned: false,
            telemetry: Telemetry::disabled(),
            _lock: lock,
        },
        Recovered {
            snapshot,
            events,
            truncated_at,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("qirana-ledger-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn ev_purchase(buyer: &str, price: f64, total: f64) -> LedgerEvent {
        LedgerEvent::PurchaseCommitted {
            buyer: buyer.to_string(),
            sql: format!("SELECT count(*) FROM T -- {buyer}"),
            price,
            total_paid: total,
        }
    }

    #[test]
    fn checksum_is_stable_and_length_tagged() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b"a"), checksum(b"a\0"), "tail length is hashed");
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"12345678"), checksum(b"123456789"));
    }

    /// The checksum is part of the on-disk record format: these values
    /// must never change, or every existing log fails its frame check.
    /// Covers the empty payload, a tail-only one, one whole word, and a
    /// word plus a tail.
    #[test]
    fn checksum_values_are_pinned() {
        assert_eq!(checksum(b""), 0xee91_9ff2_f932_c062);
        assert_eq!(checksum(b"qirana!"), 0x5204_127b_c6d5_ab93);
        assert_eq!(checksum(b"qirana!!"), 0x7de6_60e5_06e9_c4a6);
        assert_eq!(checksum(b"qirana!!!"), 0xf076_44eb_ebe6_3acd);
    }

    #[test]
    fn event_roundtrip_all_variants() {
        let events = [
            ev_purchase("alice", 12.5, 40.25),
            LedgerEvent::WritesCommitted {
                writes: vec![
                    CellWrite {
                        table: 0,
                        row: 1,
                        col: 2,
                        value: Value::Null,
                    },
                    CellWrite {
                        table: 1,
                        row: 0,
                        col: 0,
                        value: Value::Bool(true),
                    },
                    CellWrite {
                        table: 2,
                        row: 9,
                        col: 1,
                        value: Value::Int(-7),
                    },
                    CellWrite {
                        table: 0,
                        row: 3,
                        col: 3,
                        value: Value::Float(-0.0),
                    },
                    CellWrite {
                        table: 0,
                        row: 4,
                        col: 2,
                        value: Value::Date(19000),
                    },
                    CellWrite {
                        table: 1,
                        row: 5,
                        col: 0,
                        value: Value::str("héllo"),
                    },
                ],
            },
            LedgerEvent::SnapshotTaken { seq: 41 },
        ];
        for (i, ev) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            let rec = encode_record(seq, ev).unwrap();
            let payload = &rec[HEADER_LEN..];
            let (got_seq, got) = decode_payload(payload).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(&got, ev);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut rec = encode_record(1, &ev_purchase("a", 1.0, 1.0)).unwrap();
        rec.push(0);
        assert!(decode_payload(&rec[HEADER_LEN..]).is_err());
        let mut payload = encode_payload(2, &LedgerEvent::SnapshotTaken { seq: 1 });
        payload[8] = 99; // event tag
        assert!(decode_payload(&payload).is_err());
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = SnapshotState {
            seq: 17,
            generation: 4,
            tables: vec![
                vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(2), Value::Null],
                ],
                vec![],
            ],
            buyers: vec![
                BuyerSnapshot {
                    name: "alice".to_string(),
                    paid: 13.75,
                    charged: vec![true, false, true],
                    history: vec!["SELECT 1".to_string(), "SELECT 2".to_string()],
                },
                BuyerSnapshot {
                    name: "bob".to_string(),
                    paid: 0.0,
                    charged: vec![],
                    history: vec![],
                },
            ],
        };
        let payload = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&payload).unwrap(), snap);
    }

    #[test]
    fn append_then_recover_replays_in_order() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("replay")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        assert_eq!(led.append(&ev_purchase("a", 1.0, 1.0)).unwrap(), 1);
        assert_eq!(
            led.append(&LedgerEvent::WritesCommitted { writes: vec![] })
                .unwrap(),
            2
        );
        assert_eq!(led.append(&ev_purchase("b", 2.0, 2.0)).unwrap(), 3);
        assert_eq!(led.last_seq(), 3);
        drop(led);

        let (led, rec) = recover_dir(&cfg).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.truncated_at.is_none());
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].0, 1);
        assert_eq!(rec.events[2].0, 3);
        assert_eq!(led.next_seq(), 4);
        assert_eq!(led.records_since_snapshot(), 3);
    }

    #[test]
    fn recover_missing_and_empty_dirs_are_fresh() {
        let cfg = LedgerConfig::new(tmpdir("fresh"));
        let (led, rec) = recover_dir(&cfg).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.events.is_empty());
        assert!(rec.truncated_at.is_none());
        assert_eq!(led.next_seq(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_reusable() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("tear")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        led.append(&ev_purchase("b", 2.0, 2.0)).unwrap();
        led.append(&ev_purchase("c", 3.0, 3.0)).unwrap();
        drop(led);

        let full = fs::read(cfg.log_path()).unwrap();
        let scan = scan_log(&full).unwrap();
        // Keep through the end of record 2, then cut mid-way through
        // record 3's payload.
        let keep = scan.records[1].end;
        fs::write(cfg.log_path(), &full[..keep as usize + 5]).unwrap();

        let (mut led, rec) = recover_dir(&cfg).unwrap();
        assert_eq!(rec.truncated_at, Some(keep));
        assert_eq!(rec.events.len(), 2);
        assert_eq!(fs::read(cfg.log_path()).unwrap().len() as u64, keep);
        // The recovered handle appends cleanly after the tear.
        assert_eq!(led.append(&ev_purchase("d", 4.0, 4.0)).unwrap(), 3);
        drop(led);
        let (_, rec2) = recover_dir(&cfg).unwrap();
        assert_eq!(rec2.events.len(), 3);
        assert!(rec2.truncated_at.is_none());
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("corrupt")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        led.append(&ev_purchase("b", 2.0, 2.0)).unwrap();
        led.append(&ev_purchase("c", 3.0, 3.0)).unwrap();
        drop(led);

        let mut bytes = fs::read(cfg.log_path()).unwrap();
        let scan = scan_log(&bytes).unwrap();
        let mid_payload = scan.records[0].offset as usize + HEADER_LEN + 9;
        bytes[mid_payload] ^= 0xFF;
        fs::write(cfg.log_path(), &bytes).unwrap();

        let err = recover_dir(&cfg).unwrap_err();
        assert!(
            matches!(err, LedgerError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let cfg = LedgerConfig::new(tmpdir("gap"));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&LOG_MAGIC);
        bytes.extend_from_slice(&encode_record(1, &ev_purchase("a", 1.0, 1.0)).unwrap());
        bytes.extend_from_slice(&encode_record(3, &ev_purchase("b", 2.0, 2.0)).unwrap());
        fs::write(cfg.log_path(), &bytes).unwrap();
        let err = recover_dir(&cfg).unwrap_err();
        assert!(matches!(err, LedgerError::Corrupt { .. }));
    }

    #[test]
    fn crash_budget_tears_at_exact_byte_and_poisons() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("crash")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        let first = led.append(&ev_purchase("a", 1.0, 1.0));
        assert!(first.is_ok());
        let log_len = fs::metadata(cfg.log_path()).unwrap().len();

        // Allow 5 more bytes, then die.
        fault::arm_ledger_crash(5);
        let err = led.append(&ev_purchase("b", 2.0, 2.0)).unwrap_err();
        assert!(matches!(err, LedgerError::Crashed { written: 5 }));
        assert!(led.is_poisoned());
        assert!(matches!(
            led.append(&ev_purchase("c", 3.0, 3.0)).unwrap_err(),
            LedgerError::Poisoned
        ));
        fault::reset();
        assert_eq!(fs::metadata(cfg.log_path()).unwrap().len(), log_len + 5);

        // A poisoned handle still holds the writer lock; release it
        // before recovering, as a restarted process implicitly would.
        drop(led);
        let (_, rec) = recover_dir(&cfg).unwrap();
        assert_eq!(rec.events.len(), 1, "torn second record dropped");
        assert_eq!(rec.truncated_at, Some(log_len));
    }

    #[test]
    fn append_failpoint_aborts_between_records() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("failpoint")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        fault::arm(fault::LEDGER_APPEND, fault::Trigger::Once);
        let err = led.append(&ev_purchase("b", 2.0, 2.0)).unwrap_err();
        assert!(matches!(err, LedgerError::Injected(_)));
        // A failpoint abort is *before* any bytes: the handle stays clean.
        assert!(!led.is_poisoned());
        led.append(&ev_purchase("b", 2.0, 2.0)).unwrap();
        fault::reset();
    }

    #[test]
    fn snapshot_and_compact_shrinks_log_and_recovers() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("compact")).with_snapshot_every(0);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        for i in 0..6 {
            led.append(&ev_purchase("a", i as f64, i as f64)).unwrap();
        }
        let pre = fs::metadata(cfg.log_path()).unwrap().len();
        let snap = SnapshotState {
            seq: led.last_seq(),
            generation: 2,
            tables: vec![vec![vec![Value::Int(5)]]],
            buyers: vec![BuyerSnapshot {
                name: "a".to_string(),
                paid: 15.0,
                charged: vec![],
                history: (0..6).map(|i| format!("q{i}")).collect(),
            }],
        };
        led.snapshot_and_compact(&snap).unwrap();
        let post = fs::metadata(cfg.log_path()).unwrap().len();
        assert!(
            post < pre,
            "compaction must shrink the log ({pre} -> {post})"
        );
        assert_eq!(led.records_since_snapshot(), 0);

        // Post-snapshot traffic lands after the marker.
        led.append(&ev_purchase("b", 9.0, 9.0)).unwrap();
        drop(led);

        let (led, rec) = recover_dir(&cfg).unwrap();
        let got = rec.snapshot.expect("snapshot present");
        assert_eq!(got, snap);
        // Marker (seq 7) and the post-snapshot purchase (seq 8) replay.
        assert_eq!(rec.events.len(), 2);
        assert!(matches!(
            rec.events[0].1,
            LedgerEvent::SnapshotTaken { seq: 6 }
        ));
        assert!(matches!(
            rec.events[1].1,
            LedgerEvent::PurchaseCommitted { .. }
        ));
        assert_eq!(led.next_seq(), 9);
    }

    #[test]
    fn create_truncates_a_previous_market() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let dir = tmpdir("truncate");
        let cfg = LedgerConfig::new(&dir);
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        led.snapshot_and_compact(&SnapshotState {
            seq: 1,
            generation: 1,
            tables: vec![],
            buyers: vec![],
        })
        .unwrap();
        drop(led);
        assert!(cfg.snapshot_path().exists());

        let led = Ledger::create(cfg.clone()).unwrap();
        assert_eq!(led.next_seq(), 1);
        assert!(!cfg.snapshot_path().exists(), "old snapshot deleted");
        drop(led);
        let (_, rec) = recover_dir(&cfg).unwrap();
        assert!(rec.events.is_empty());
        assert!(rec.snapshot.is_none());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("snapcorrupt"));
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        led.snapshot_and_compact(&SnapshotState {
            seq: 1,
            generation: 1,
            tables: vec![],
            buyers: vec![],
        })
        .unwrap();
        drop(led);
        let mut bytes = fs::read(cfg.snapshot_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(cfg.snapshot_path(), &bytes).unwrap();
        assert!(matches!(
            recover_dir(&cfg).unwrap_err(),
            LedgerError::Corrupt { .. }
        ));
    }

    #[test]
    fn stale_tmp_files_are_cleared_on_recovery() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("staletmp"));
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        drop(led);
        fs::write(cfg.dir.join(SNAP_TMP_FILE), b"half a snapshot").unwrap();
        fs::write(cfg.dir.join(LOG_TMP_FILE), b"half a log").unwrap();
        let (_, rec) = recover_dir(&cfg).unwrap();
        assert_eq!(rec.events.len(), 1);
        assert!(!cfg.dir.join(SNAP_TMP_FILE).exists());
        assert!(!cfg.dir.join(LOG_TMP_FILE).exists());
    }

    #[test]
    fn second_open_of_a_live_directory_is_locked() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("locked"));
        let led = Ledger::create(cfg.clone()).unwrap();
        // Same process counts as a live holder: two in-process handles
        // would interleave appends just as badly as two processes.
        assert!(
            matches!(Ledger::create(cfg.clone()), Err(LedgerError::Locked { .. })),
            "create over a live ledger must refuse"
        );
        assert!(
            matches!(recover_dir(&cfg), Err(LedgerError::Locked { .. })),
            "recover over a live ledger must refuse"
        );
        drop(led);
        // Drop released the lock; the directory opens again.
        let (_, rec) = recover_dir(&cfg).unwrap();
        assert_eq!(rec.events.len(), 0);
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_reclaimed() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("stalelock"));
        let mut led = Ledger::create(cfg.clone()).unwrap();
        led.append(&ev_purchase("a", 1.0, 1.0)).unwrap();
        drop(led);
        // A killed process leaves its lockfile behind; pid 999999999 is
        // far above any real pid_max, so the holder is provably dead.
        fs::write(cfg.dir.join(LOCK_FILE), b"999999999").unwrap();
        let (_, rec) = recover_dir(&cfg).expect("stale lock must be reclaimed");
        assert_eq!(rec.events.len(), 1);
    }

    #[test]
    fn foreign_live_lock_is_refused() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("livelock"));
        fs::create_dir_all(&cfg.dir).unwrap();
        // Pid 1 is always alive.
        fs::write(cfg.dir.join(LOCK_FILE), b"1").unwrap();
        match Ledger::create(cfg.clone()) {
            Err(LedgerError::Locked { holder, .. }) => assert_eq!(holder, "1"),
            other => panic!("expected Locked, got {other:?}"),
        }
        // The refused open must not have removed the foreign lock.
        assert!(cfg.dir.join(LOCK_FILE).exists());
    }

    #[test]
    fn unparsable_lock_is_refused_not_reclaimed() {
        let _guard = fault::serialize_tests();
        fault::reset();
        let cfg = LedgerConfig::new(tmpdir("garbagelock"));
        fs::create_dir_all(&cfg.dir).unwrap();
        fs::write(cfg.dir.join(LOCK_FILE), b"not-a-pid").unwrap();
        assert!(
            matches!(recover_dir(&cfg), Err(LedgerError::Locked { .. })),
            "an unreadable holder is conservatively treated as alive"
        );
        assert!(cfg.dir.join(LOCK_FILE).exists());
    }
}
