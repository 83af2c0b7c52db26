//! Temp-file spill substrate for out-of-core execution.
//!
//! When a query's tracked memory approaches its budget, the executor's
//! spill-capable operators (`bdcc-exec`'s hash-join build and radix
//! aggregation) *freeze* resident partitions: they serialize the
//! partition's batches through a [`SpillWriter`] into a real temp file
//! and drop the in-memory copy. On *restore* the partition's batches are
//! read back **in exactly the order they were written** — which, by the
//! executor's freeze discipline, is the original input stream order — so
//! spilled execution stays byte-identical to in-memory execution.
//!
//! This module is mechanism only; *when* to freeze is the
//! `bdcc-exec::broker::MemoryBroker`'s policy call. The contract pinned
//! here:
//!
//! * **Serialization is exact.** Every column round-trips bit-for-bit:
//!   integer-backed columns (with their `Int`-vs-`Date` logical type) use
//!   the same frame-of-reference + bit-packing codec as the block
//!   encodings ([`PackedInts`], with a raw fallback for full-range
//!   deltas), floats round-trip through their IEEE bit pattern (NaN
//!   payloads included), strings byte-for-byte.
//! * **A string column is two bulk regions**, the layout the column holds
//!   in memory ([`StrVec`]): after the tag, the value count `n` and the
//!   byte count `b` (both `u64`), come `n + 1` little-endian `u32`
//!   offsets and then the `b` bytes of UTF-8 they index — written with
//!   two `write_all`s, read with two `read_exact`s, no loop over values.
//!   On read both counts are checked against the entry's row count and
//!   the bytes the file still holds *before* either region is allocated,
//!   and the regions are validated once (`StrVec::from_parts`: valid
//!   UTF-8; offsets from 0, ascending, ending at `b`, each on a character
//!   boundary) — a damaged file is a typed error, after which reading a
//!   value is a plain slice.
//! * **Order is preserved.** A [`SpillReader`] yields entries in write
//!   order; nothing is reordered, deduplicated, or compacted.
//! * **Spill I/O is metered.** Every byte written and every byte read
//!   back is recorded against the query's [`IoTracker`] (under per-file
//!   write/read keys), so `EXPLAIN ANALYZE` and the device cost model see
//!   spill traffic like any other I/O. Writes and first reads are
//!   sequential appends/scans by construction; re-restores of the same
//!   partition charge no new bytes (the tracker's once-per-query
//!   buffer-pool semantics), but still count accesses.
//! * **Cleanup is RAII — cancellation included.** [`SpillWriter`] and
//!   [`SpillHandle`] unlink their temp file on drop. A query that errors,
//!   exceeds its deadline, or is cancelled unwinds its operator tree, and
//!   the unwind drops the handles — no leaked files, verified by
//!   [`live_spill_files`] (a process-wide registry of not-yet-unlinked
//!   spill paths that tests assert drains to empty).
//!
//! Files live in `BDCC_SPILL_DIR` when set, else the OS temp dir.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::column::{Column, StrVec};
use crate::encode::PackedInts;
use crate::error::{Result, StorageError};
use crate::io::IoTracker;
use crate::value::DataType;

// ---------------------------------------------------------------------------
// Live-file registry
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<HashSet<PathBuf>> {
    static LIVE: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Number of spill files currently on disk (process-wide). Tests assert
/// this returns to its baseline after every query — including queries
/// that were cancelled or failed mid-spill.
pub fn live_spill_files() -> usize {
    registry().lock().expect("spill registry poisoned").len()
}

fn register(path: &Path) {
    registry().lock().expect("spill registry poisoned").insert(path.to_path_buf());
}

fn unlink(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    registry().lock().expect("spill registry poisoned").remove(path);
}

/// Directory spill files are created in: `BDCC_SPILL_DIR` or the OS
/// temp dir.
pub fn spill_dir() -> PathBuf {
    match std::env::var_os("BDCC_SPILL_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir(),
    }
}

fn fresh_path(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    spill_dir().join(format!("bdcc-spill-{}-{label}-{n}.tmp", std::process::id()))
}

/// Stable I/O-tracker key for a spill path (FNV-1a over the path bytes).
/// The write stream records under `key`, the read stream under `key + 1`,
/// so written and restored bytes are both charged exactly once per query.
fn path_key(path: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & !1
}

fn ioerr(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Primitive wire helpers
// ---------------------------------------------------------------------------

struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_all(bytes).map_err(ioerr)?;
        self.written += bytes.len() as u64;
        Ok(())
    }
    fn u8(&mut self, v: u8) -> Result<()> {
        self.put(&[v])
    }
    fn u32(&mut self, v: u32) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn i64(&mut self, v: i64) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
}

struct CountingReader<R> {
    inner: R,
    consumed: u64,
}

impl<R: Read> CountingReader<R> {
    fn take(&mut self, buf: &mut [u8]) -> Result<()> {
        self.inner.read_exact(buf).map_err(ioerr)?;
        self.consumed += buf.len() as u64;
        Ok(())
    }
    fn u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.take(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn i64(&mut self) -> Result<i64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }
}

// Column tags.
const TAG_I64_FOR: u8 = 0;
const TAG_I64_RAW: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;

fn write_column<W: Write>(w: &mut CountingWriter<W>, col: &Column) -> Result<()> {
    match col {
        Column::I64 { values, logical } => {
            let logical_tag = if *logical == DataType::Date { 1u8 } else { 0u8 };
            // Frame-of-reference + bit-packing, the block codec's integer
            // scheme: deltas from the minimum, wrapping arithmetic so a
            // full-range `max - min` still round-trips — but a ≥ 64-bit
            // delta range means packing cannot narrow anything, so fall
            // back to raw values.
            let min = values.iter().copied().min().unwrap_or(0);
            let deltas: Vec<u64> = values.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
            let width = PackedInts::bits_for(deltas.iter().copied().max().unwrap_or(0));
            if width >= 64 {
                w.u8(TAG_I64_RAW)?;
                w.u8(logical_tag)?;
                w.u64(values.len() as u64)?;
                for &v in values {
                    w.i64(v)?;
                }
            } else {
                let packed = PackedInts::pack(&deltas, width);
                w.u8(TAG_I64_FOR)?;
                w.u8(logical_tag)?;
                w.i64(min)?;
                w.u8(width)?;
                w.u64(values.len() as u64)?;
                w.u64(packed.words().len() as u64)?;
                for &word in packed.words() {
                    w.u64(word)?;
                }
            }
        }
        Column::F64(values) => {
            w.u8(TAG_F64)?;
            w.u64(values.len() as u64)?;
            for &v in values {
                w.u64(v.to_bits())?;
            }
        }
        Column::Str(values) => {
            // Two bulk regions, as the column holds them: the `len + 1`
            // offsets, then the buffer they index.
            let (bytes, offsets) = values.parts();
            w.u8(TAG_STR)?;
            w.u64(values.len() as u64)?;
            w.u64(bytes.len() as u64)?;
            w.put(&offsets.iter().flat_map(|o| o.to_le_bytes()).collect::<Vec<u8>>())?;
            w.put(bytes.as_bytes())?;
        }
    }
    Ok(())
}

fn corrupt(what: impl std::fmt::Display) -> StorageError {
    StorageError::Io(format!("corrupt spill file: {what}"))
}

/// Decode one column of exactly `rows` values. Nothing read from the file
/// is trusted: `rows` was bounded by the caller against the handle's row
/// count, and every length is checked against it and against `left`, the
/// bytes the file still holds, before anything is allocated.
fn read_column<R: Read>(r: &mut CountingReader<R>, rows: usize, left: u64) -> Result<Column> {
    let logical_of = |tag: u8| if tag == 1 { DataType::Date } else { DataType::Int };
    // A column's stated length, stored at `bytes_each` bytes or more a value.
    let check_len = |len: u64, bytes_each: u64| {
        if len != rows as u64 {
            Err(corrupt(format_args!("column of {len} values in an entry of {rows} rows")))
        } else if len.checked_mul(bytes_each).is_none_or(|bytes| bytes > left) {
            Err(corrupt(format_args!("{len} values do not fit the remaining {left} bytes")))
        } else {
            Ok(())
        }
    };
    match r.u8()? {
        TAG_I64_FOR => {
            let logical = logical_of(r.u8()?);
            let min = r.i64()?;
            let width = r.u8()?;
            check_len(r.u64()?, 0)?;
            let nwords = r.u64()?;
            if width >= 64
                || nwords != (rows as u64 * width as u64).div_ceil(64)
                || nwords * 8 > left
            {
                return Err(corrupt(format_args!("{nwords} words of {rows} × {width} bits")));
            }
            let mut words = Vec::with_capacity(nwords as usize);
            for _ in 0..nwords {
                words.push(r.u64()?);
            }
            let packed = PackedInts::from_parts(width, rows, words);
            let values = (0..rows).map(|i| min.wrapping_add(packed.get(i) as i64)).collect();
            Ok(Column::I64 { values, logical })
        }
        TAG_I64_RAW => {
            let logical = logical_of(r.u8()?);
            check_len(r.u64()?, 8)?;
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(r.i64()?);
            }
            Ok(Column::I64 { values, logical })
        }
        TAG_F64 => {
            check_len(r.u64()?, 8)?;
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(f64::from_bits(r.u64()?));
            }
            Ok(Column::F64(values))
        }
        TAG_STR => {
            check_len(r.u64()?, 4)?;
            let bytes = r.u64()?;
            let offsets = (rows as u64 + 1) * 4;
            if bytes.checked_add(offsets).is_none_or(|both| both > left) {
                return Err(corrupt(format_args!("{bytes} string bytes, {left} left")));
            }
            let mut region = vec![0u8; offsets as usize];
            r.take(&mut region)?;
            let offsets = region
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect();
            let mut region = vec![0u8; bytes as usize];
            r.take(&mut region)?;
            Ok(Column::Str(StrVec::from_parts(region, offsets).map_err(corrupt)?))
        }
        tag => Err(corrupt(format_args!("unknown column tag {tag}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer / handle / reader
// ---------------------------------------------------------------------------

/// Append-only writer for one spill file. Each [`write_columns`] call
/// appends one *entry* (a batch's columns); [`finish`] seals the file
/// into a [`SpillHandle`]. Dropping an unfinished writer unlinks the
/// file (a query that dies mid-freeze leaks nothing).
///
/// [`write_columns`]: Self::write_columns
/// [`finish`]: Self::finish
pub struct SpillWriter {
    out: CountingWriter<BufWriter<File>>,
    /// `Some` until `finish` — `Drop` unlinks while this is `Some`.
    path: Option<PathBuf>,
    io: IoTracker,
    key: u64,
    entries: u64,
    rows: u64,
}

impl SpillWriter {
    /// Create a fresh temp spill file; `label` tags the file name for
    /// debuggability (e.g. `"join-build"` / `"agg-p3"`).
    pub fn create(label: &str, io: &IoTracker) -> Result<SpillWriter> {
        let path = fresh_path(label);
        let file = File::create(&path).map_err(ioerr)?;
        register(&path);
        let key = path_key(&path);
        Ok(SpillWriter {
            out: CountingWriter { inner: BufWriter::new(file), written: 0 },
            path: Some(path),
            io: io.clone(),
            key,
            entries: 0,
            rows: 0,
        })
    }

    /// Append one entry. Returns the entry's on-disk byte size (metered
    /// against the query's `IoTracker` under the file's write key).
    pub fn write_columns(&mut self, cols: &[Column]) -> Result<u64> {
        let start = self.out.written;
        self.out.u32(cols.len() as u32)?;
        let rows = cols.first().map(|c| c.len()).unwrap_or(0);
        self.out.u64(rows as u64)?;
        for col in cols {
            debug_assert_eq!(col.len(), rows, "spill entry columns must align");
            write_column(&mut self.out, col)?;
        }
        let end = self.out.written;
        if end > start {
            self.io.record_span(self.key, start, end - 1);
        }
        self.entries += 1;
        self.rows += rows as u64;
        Ok(end - start)
    }

    /// Total bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.out.written
    }

    /// Entries appended so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total rows across all entries.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the file. The returned handle owns the temp file
    /// (unlinks it on drop) and can open any number of sequential readers.
    pub fn finish(mut self) -> Result<SpillHandle> {
        self.out.inner.flush().map_err(ioerr)?;
        let path = self.path.take().expect("finish called once");
        Ok(SpillHandle {
            path,
            io: self.io.clone(),
            key: self.key,
            bytes: self.out.written,
            entries: self.entries,
            rows: self.rows,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            unlink(path);
        }
    }
}

/// A sealed spill file: metadata plus RAII ownership of the temp file.
/// Dropping the handle unlinks the file — this is the cancellation
/// cleanup path (an unwinding operator tree drops its handles).
pub struct SpillHandle {
    path: PathBuf,
    io: IoTracker,
    key: u64,
    bytes: u64,
    entries: u64,
    rows: u64,
}

impl SpillHandle {
    /// On-disk size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of entries (batches) in the file.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total rows across all entries.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Open a sequential reader over the file's entries (write order).
    /// Restored bytes are metered under the file's read key.
    pub fn open(&self) -> Result<SpillReader> {
        let file = File::open(&self.path).map_err(ioerr)?;
        Ok(SpillReader {
            input: CountingReader { inner: BufReader::new(file), consumed: 0 },
            io: self.io.clone(),
            key: self.key | 1,
            remaining: self.entries,
            bytes: self.bytes,
            rows_left: self.rows,
            arity: None,
        })
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        unlink(&self.path);
    }
}

/// Sequential reader over a spill file's entries, in write order.
pub struct SpillReader {
    input: CountingReader<BufReader<File>>,
    io: IoTracker,
    key: u64,
    remaining: u64,
    /// What the handle knows about the file, which the reader holds the
    /// file's contents to: its size, the rows not yet read, and (from the
    /// first entry on) the column count every entry shares.
    bytes: u64,
    rows_left: u64,
    arity: Option<usize>,
}

impl SpillReader {
    /// The next entry's columns, or `None` past the last entry. A file
    /// that was truncated or altered after it was written is a
    /// [`StorageError`], never a panic: every column comes back with the
    /// entry's row count, and no length found in the file is allocated
    /// for before it is checked against the handle's size and row count.
    pub fn next_columns(&mut self) -> Result<Option<Vec<Column>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let start = self.input.consumed;
        let ncols = self.input.u32()? as usize;
        let rows = self.input.u64()?;
        let left = self.bytes.saturating_sub(self.input.consumed);
        // A column is at least a tag and a length.
        if *self.arity.get_or_insert(ncols) != ncols || ncols as u64 * 9 > left {
            return Err(corrupt(format_args!("entry of {ncols} columns")));
        }
        if rows > self.rows_left {
            return Err(corrupt(format_args!("entry of {rows} rows, {} left", self.rows_left)));
        }
        self.rows_left -= rows;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let left = self.bytes.saturating_sub(self.input.consumed);
            cols.push(read_column(&mut self.input, rows as usize, left)?);
        }
        let end = self.input.consumed;
        if end > start {
            self.io.record_span(self.key, start, end - 1);
        }
        Ok(Some(cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test here: they all create spill files, and one
    /// asserts on the process-wide [`live_spill_files`] count.
    fn spill_test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn columns() -> Vec<Column> {
        vec![
            Column::from_i64(vec![5, -3, 1 << 40, 5, 0]),
            Column::from_dates(vec![9131, 9132, 9131, 10000, 0]),
            Column::from_f64(vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-300]),
            Column::from_strings(vec![
                "".into(),
                "alpha".into(),
                "βeta".into(),
                "x".repeat(300),
                "end".into(),
            ]),
        ]
    }

    #[test]
    fn round_trips_every_type_bit_exactly() {
        let _spill = spill_test_guard();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        let cols = columns();
        w.write_columns(&cols).unwrap();
        // A second entry with different shapes, including the raw-i64
        // fallback (full-range deltas) and empty columns.
        let extreme = vec![
            Column::from_i64(vec![i64::MIN, i64::MAX, 0]),
            Column::from_dates(vec![1, 2, 3]),
            Column::from_f64(vec![0.0; 3]),
            Column::from_strings(vec!["a".into(), "".into(), "b".into()]),
        ];
        w.write_columns(&extreme).unwrap();
        let empty: Vec<Column> = cols.iter().map(|c| Column::empty(c.data_type())).collect();
        w.write_columns(&empty).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.entries(), 3);
        assert_eq!(h.rows(), 8);

        let mut r = h.open().unwrap();
        let got = r.next_columns().unwrap().unwrap();
        // Bit-exactness for floats: compare bit patterns (NaN != NaN).
        assert_eq!(got.len(), cols.len());
        assert_eq!(got[0], cols[0]);
        assert_eq!(got[1], cols[1]);
        assert_eq!(got[1].data_type(), DataType::Date, "logical type survives");
        let (a, b) = (got[2].as_f64().unwrap(), cols[2].as_f64().unwrap());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(got[3], cols[3]);
        assert_eq!(r.next_columns().unwrap().unwrap(), extreme);
        let empty = r.next_columns().unwrap().unwrap();
        assert_eq!(empty[0].len(), 0);
        assert!(r.next_columns().unwrap().is_none());
    }

    #[test]
    fn rereads_yield_identical_entries() {
        let _spill = spill_test_guard();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        let h = w.finish().unwrap();
        let a = h.open().unwrap().next_columns().unwrap().unwrap();
        let b = h.open().unwrap().next_columns().unwrap().unwrap();
        assert_eq!(a[0], b[0]);
        assert_eq!(a[3], b[3]);
    }

    #[test]
    fn spill_io_is_metered_once_per_direction() {
        let _spill = spill_test_guard();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        let written = w.bytes();
        assert!(written > 0);
        assert_eq!(io.stats().bytes_read, written, "write bytes metered");
        let h = w.finish().unwrap();
        let mut r = h.open().unwrap();
        while r.next_columns().unwrap().is_some() {}
        assert_eq!(io.stats().bytes_read, 2 * written, "restore bytes metered");
        // A re-restore charges no *new* bytes (buffer-pool semantics).
        let mut r = h.open().unwrap();
        while r.next_columns().unwrap().is_some() {}
        assert_eq!(io.stats().bytes_read, 2 * written);
    }

    /// Read every entry; `Ok` only if each came back well-formed.
    fn read_all(h: &SpillHandle) -> Result<u64> {
        let mut reader = h.open()?;
        let mut rows = 0u64;
        while let Some(cols) = reader.next_columns()? {
            let n = cols.first().map_or(0, |c| c.len());
            assert!(cols.iter().all(|c| c.len() == n), "columns of one entry must align");
            rows += n as u64;
        }
        assert!(rows <= h.rows(), "no more rows than were written");
        Ok(rows)
    }

    #[test]
    fn damaged_files_are_typed_errors_never_panics() {
        let _spill = spill_test_guard();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        // Every codec: packed and constant (0-bit) ints, dates, the raw
        // fallback, floats, strings.
        let first = w.write_columns(&columns()).unwrap();
        let second = w
            .write_columns(&[
                Column::from_i64(vec![i64::MIN, i64::MAX]),
                Column::from_dates(vec![7, 7]),
                Column::from_f64(vec![0.5, -1.0]),
                Column::from_strings(vec!["q".into(), "".into()]),
            ])
            .unwrap();
        w.write_columns(&columns()).unwrap();
        let h = w.finish().unwrap();
        let bytes = std::fs::read(&h.path).unwrap();
        assert_eq!(bytes.len() as u64, h.bytes());
        assert_eq!(read_all(&h), Ok(12));

        // Truncated anywhere: the missing tail is an error, whatever the
        // cut separates.
        for cut in 0..bytes.len() {
            std::fs::write(&h.path, &bytes[..cut]).unwrap();
            assert!(read_all(&h).is_err(), "cut at {cut}");
        }
        // Any single bit of the first two entries flipped: an error, or
        // entries that are still well-formed (a flipped value bit).
        let mut damaged = bytes.clone();
        let mut rejected = 0;
        for bit in 0..(first + second) as usize * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&h.path, &damaged).unwrap();
            rejected += read_all(&h).is_err() as usize;
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(rejected > 0, "header bits must be checked");
    }

    /// A one-column string entry as the writer lays it out — column count,
    /// rows, tag, value count, byte count, offsets, bytes — with every
    /// field under the caller's control.
    fn str_entry(rows: u64, nbytes: u64, offsets: &[u32], bytes: &[u8]) -> Vec<u8> {
        let mut out = 1u32.to_le_bytes().to_vec();
        out.extend(rows.to_le_bytes());
        out.push(TAG_STR);
        out.extend(rows.to_le_bytes());
        out.extend(nbytes.to_le_bytes());
        out.extend(offsets.iter().flat_map(|o| o.to_le_bytes()));
        out.extend(bytes);
        out
    }

    #[test]
    fn hostile_string_regions_are_typed_errors() {
        let _spill = spill_test_guard();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        let good = Column::from_strings(vec!["aé".into(), "b".into(), "".into()]);
        w.write_columns(std::slice::from_ref(&good)).unwrap();
        let h = w.finish().unwrap();
        let text = "aéb".as_bytes();
        // The writer's layout is the one `str_entry` spells out.
        let valid = str_entry(3, 4, &[0, 3, 4, 4], text);
        assert_eq!(std::fs::read(&h.path).unwrap(), valid);
        assert_eq!(h.open().unwrap().next_columns().unwrap().unwrap(), vec![good]);

        let corrupt_cases: [(&str, Vec<u8>); 7] = [
            ("offsets not ascending", str_entry(3, 4, &[0, 4, 3, 4], text)),
            ("an offset past the buffer", str_entry(3, 4, &[0, 3, 4, 9], text)),
            ("offsets not from zero", str_entry(3, 4, &[1, 3, 4, 4], text)),
            ("an offset inside a character", str_entry(3, 4, &[0, 2, 4, 4], text)),
            ("invalid UTF-8", str_entry(3, 4, &[0, 3, 4, 4], &[b'a', 0xc3, 0x28, b'b'])),
            // Lengths no file of this size can back: rejected before any
            // buffer of that size is asked for.
            ("more bytes than the file holds", str_entry(3, 1 << 40, &[0, 3, 4, 4], text)),
            ("a byte count that overflows", str_entry(3, u64::MAX, &[0, 3, 4, 4], text)),
        ];
        for (what, bytes) in corrupt_cases {
            std::fs::write(&h.path, &bytes).unwrap();
            match h.open().unwrap().next_columns() {
                Err(StorageError::Io(msg)) => assert!(msg.contains("corrupt"), "{what}: {msg}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        // A region cut short — inside the offsets, inside the bytes.
        for cut in [valid.len() - 1, valid.len() - text.len() - 1, 30] {
            std::fs::write(&h.path, &valid[..cut]).unwrap();
            assert!(matches!(h.open().unwrap().next_columns(), Err(StorageError::Io(_))), "{cut}");
        }
    }

    #[test]
    fn files_unlink_on_drop_and_on_unfinished_writer() {
        let _spill = spill_test_guard();
        let base = live_spill_files();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        assert_eq!(live_spill_files(), base + 1);
        let h = w.finish().unwrap();
        assert_eq!(live_spill_files(), base + 1);
        drop(h);
        assert_eq!(live_spill_files(), base, "handle drop unlinks");
        // Unfinished writer (mid-freeze failure / cancellation): same.
        let w = SpillWriter::create("test", &io).unwrap();
        assert_eq!(live_spill_files(), base + 1);
        drop(w);
        assert_eq!(live_spill_files(), base, "writer drop unlinks");
    }
}
