//! Per-block lightweight column encodings.
//!
//! BDCC clustering deliberately produces blocks that are locally sorted and
//! dimensionally homogeneous — exactly the shape where lightweight columnar
//! codecs pay off. This module adds three of them, chosen **per block** at
//! table build time, next to the existing [`crate::block::ColumnBlockStats`]
//! MinMax metadata (the encodings share the same block grid):
//!
//! * [`BlockEncoding::DictStr`] — block-local **dictionary** for strings: the
//!   sorted distinct values (a [`StrVec`], like any string column) plus a
//!   bit-packed code vector; decoding gathers the dictionary through the
//!   codes straight into the output buffer, no `String` per row. Equality/range
//!   predicates can be answered on codes after translating the constant once
//!   per block; a constant absent from the dict kills the whole block.
//! * [`BlockEncoding::ForI64`] — **frame-of-reference + bit-packing** for
//!   integer-backed columns: the block minimum plus the narrowest uniform bit
//!   width covering `max - min`. Great on BDCC's clustered key/date columns.
//! * [`BlockEncoding::RleI64`] — **run-length** for the low-cardinality runs
//!   BDCC clustering naturally produces: run values + exclusive end offsets.
//! * [`BlockEncoding::ForF64`] — a decimal-scaled frame-of-reference variant
//!   for the `f64` DECIMAL stand-ins: values are multiplied by a small power
//!   of ten, verified **bit-exact** per value, and stored like `ForI64`.
//!
//! # Encoding-selection contract
//!
//! For every block each applicable codec's size is estimated and the
//! smallest is kept **only if it is strictly smaller than raw**
//! ([`BlockEncoding::Raw`] otherwise — the scan then reads the raw column
//! slice for that block). [`ColumnEncoding::build`] returns `None` when no
//! block of the column wins, so wholly incompressible columns cost nothing.
//!
//! A string block's dictionary is built by hashing, not by sorting the
//! block: one pass gives every value a first-seen id (an open-addressed
//! table keyed by the value's length, first 8 and last 8 bytes, each match
//! confirmed by a full compare), the pass stops as soon as the distinct
//! values alone reach the raw size (the block is raw then whatever its
//! codes cost), and otherwise only the distinct values are sorted and the
//! ids remapped to their ranks. Dictionary, codes, size and the raw
//! decision are exactly those of sorting the whole block. At SF 0.05 on 2
//! shared cores (best of five per column) this took the encodings of
//! LINEITEM's five string columns from 82–83 to 19–20 ms and ORDERS' four
//! from 22–23 to 4 ms, every column faster, clustered or not.
//!
//! # Exactness contract
//!
//! Decoding any encoded block reproduces the raw column slice **exactly**:
//! `i64` values round-trip by construction, strings byte-for-byte, and
//! `ForF64` is only chosen when every scaled value round-trips to the
//! identical IEEE bit pattern (`to_bits()` equality; `-0.0` and non-finite
//! values therefore fall back to raw). This is what lets the execution layer
//! evaluate predicates on encoded data and still produce byte-identical
//! query results (see `bdcc-exec`'s late-materialization scan kernels).

use std::ops::Range;

use crate::column::{Column, StrVec};
use crate::value::DataType;

// ---------------------------------------------------------------------------
// PackedInts
// ---------------------------------------------------------------------------

/// Bit-packed unsigned integers with one uniform width per vector.
///
/// `width == 0` stores nothing (every value is 0); widths up to 63 pack
/// little-endian into `u64` words, values straddling word boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInts {
    width: u8,
    len: usize,
    words: Vec<u64>,
}

impl PackedInts {
    /// Narrowest width (bits) that can hold `range` (0 for a zero range).
    pub fn bits_for(range: u64) -> u8 {
        (u64::BITS - range.leading_zeros()) as u8
    }

    /// Pack `values` at `width` bits each. Every value must fit.
    pub fn pack(values: impl ExactSizeIterator<Item = u64>, width: u8) -> PackedInts {
        assert!(width < 64, "64-bit packing never wins over raw");
        let len = values.len();
        if width == 0 {
            debug_assert!(values.into_iter().all(|v| v == 0));
            return PackedInts { width, len, words: Vec::new() };
        }
        let mask = (1u64 << width) - 1;
        let nwords = (len * width as usize).div_ceil(64);
        let mut words = vec![0u64; nwords];
        for (i, v) in values.enumerate() {
            debug_assert!(v <= mask, "value {v} exceeds {width}-bit width");
            let bit = i * width as usize;
            let (word, off) = (bit / 64, bit % 64);
            words[word] |= (v & mask) << off;
            if off + width as usize > 64 {
                words[word + 1] |= (v & mask) >> (64 - off);
            }
        }
        PackedInts { width, len, words }
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        if self.width == 0 {
            return 0;
        }
        let w = self.width as usize;
        let mask = (1u64 << w) - 1;
        let bit = i * w;
        let (word, off) = (bit / 64, bit % 64);
        let mut v = self.words[word] >> off;
        if off + w > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        v & mask
    }

    /// Values `rows`, in order, unpacked with the width and mask hoisted
    /// and no branch on whether a value straddles two words.
    pub fn unpacked(&self, rows: Range<usize>) -> impl Iterator<Item = u64> + Clone + '_ {
        let (width, words) = (self.width as usize, &self.words[..]);
        let mask = (1u64 << width) - 1;
        rows.map(move |i| {
            let (word, off) = (i * width / 64, i * width % 64);
            let next = words.get(word + 1).copied().unwrap_or(0) as u128;
            let pair = words.get(word).copied().unwrap_or(0) as u128 | next << 64;
            (pair >> off) as u64 & mask
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Packed payload size in bytes (the size estimate the codec selection
    /// uses, not the in-memory `Vec` capacity).
    pub fn byte_size(&self) -> usize {
        (self.len * self.width as usize).div_ceil(8)
    }

    /// The packed `u64` words, for serialization (the spill file format
    /// writes these verbatim and rebuilds with [`PackedInts::from_parts`]).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from serialized parts. `words` must be exactly the word
    /// count [`pack`](Self::pack) would produce for `(len, width)`.
    pub fn from_parts(width: u8, len: usize, words: Vec<u64>) -> PackedInts {
        debug_assert!(width < 64);
        debug_assert_eq!(words.len(), (len * width as usize).div_ceil(64));
        PackedInts { width, len, words }
    }
}

// ---------------------------------------------------------------------------
// Block codecs
// ---------------------------------------------------------------------------

/// The encoding chosen for one block of one column.
#[derive(Debug, Clone)]
pub enum BlockEncoding {
    /// Encoding did not pay for this block; scans read the raw column slice.
    Raw,
    /// Frame-of-reference: `value[i] = min ⊞ packed[i]` (wrapping add, so a
    /// full-range `max - min` that overflows `i64` still round-trips).
    ForI64 { min: i64, packed: PackedInts },
    /// Run-length: `values[r]` repeats up to the in-block exclusive end
    /// offset `ends[r]` (`ends` is strictly increasing, last = block rows).
    RleI64 { values: Vec<i64>, ends: Vec<u32> },
    /// Block-local dictionary: `dict` holds the sorted distinct strings,
    /// `codes[i]` indexes into it.
    DictStr { dict: StrVec, codes: PackedInts },
    /// Decimal-scaled frame-of-reference for floats:
    /// `value[i] = ((min + packed[i]) as f64) / scale`, bit-exact verified
    /// per value at build time.
    ForF64 { min: i64, scale: f64, packed: PackedInts },
}

impl BlockEncoding {
    /// Short codec tag for annotations (`raw`/`for`/`rle`/`dict`/`forf`).
    pub fn tag(&self) -> &'static str {
        match self {
            BlockEncoding::Raw => "raw",
            BlockEncoding::ForI64 { .. } => "for",
            BlockEncoding::RleI64 { .. } => "rle",
            BlockEncoding::DictStr { .. } => "dict",
            BlockEncoding::ForF64 { .. } => "forf",
        }
    }

    /// Decode `rows` values of this block into a fresh column, or `None`
    /// for [`BlockEncoding::Raw`] (the caller slices the raw column).
    /// `logical` restores the Int-vs-Date logical type of `i64` codecs.
    pub fn decode(&self, rows: usize, logical: DataType) -> Option<Column> {
        let int_col = |values: Vec<i64>| {
            if logical == DataType::Date {
                Column::from_dates(values)
            } else {
                Column::from_i64(values)
            }
        };
        match self {
            BlockEncoding::Raw => None,
            BlockEncoding::ForI64 { min, packed } => {
                debug_assert_eq!(packed.len(), rows);
                let values = packed.unpacked(0..rows).map(|d| min.wrapping_add(d as i64)).collect();
                Some(int_col(values))
            }
            BlockEncoding::RleI64 { values, ends } => {
                let mut out = Vec::with_capacity(rows);
                let mut start = 0u32;
                for (&v, &end) in values.iter().zip(ends) {
                    out.extend(std::iter::repeat_n(v, (end - start) as usize));
                    start = end;
                }
                debug_assert_eq!(out.len(), rows);
                Some(int_col(out))
            }
            BlockEncoding::DictStr { dict, codes } => {
                debug_assert_eq!(codes.len(), rows);
                Some(Column::Str(dict.gather(codes.unpacked(0..rows).map(|c| c as usize))))
            }
            BlockEncoding::ForF64 { min, scale, packed } => {
                debug_assert_eq!(packed.len(), rows);
                let values = (packed.unpacked(0..rows))
                    .map(|d| (min.wrapping_add(d as i64)) as f64 / scale)
                    .collect();
                Some(Column::from_f64(values))
            }
        }
    }
}

/// Estimated payload bytes of `n` values packed at `width` bits plus a
/// per-block header of `header` bytes.
fn packed_size(n: usize, width: u8, header: usize) -> usize {
    header + (n * width as usize).div_ceil(8)
}

/// Raw size estimate of the strings `values`: the same `len + 1` model
/// `Column::avg_width` uses.
fn raw_str_size<'a>(values: impl Iterator<Item = &'a str>) -> usize {
    values.map(|s| s.len() + 1).sum()
}

fn encode_i64_block(values: &[i64]) -> (BlockEncoding, usize) {
    let n = values.len();
    let raw = n * 8;
    let (mut min, mut max) = (values[0], values[0]);
    let mut runs = 1usize;
    for w in values.windows(2) {
        if w[1] != w[0] {
            runs += 1;
        }
    }
    for &v in &values[1..] {
        min = min.min(v);
        max = max.max(v);
    }
    let width = PackedInts::bits_for(max.wrapping_sub(min) as u64);
    // FOR header: 8-byte min + 1-byte width.
    let for_size = if width < 64 { packed_size(n, width, 9) } else { usize::MAX };
    // RLE: 8-byte value + 4-byte end offset per run.
    let rle_size = if n <= u32::MAX as usize { runs * 12 } else { usize::MAX };
    let best = for_size.min(rle_size);
    if best >= raw {
        return (BlockEncoding::Raw, raw);
    }
    if rle_size < for_size {
        let mut vals = Vec::with_capacity(runs);
        let mut ends = Vec::with_capacity(runs);
        for (i, &v) in values.iter().enumerate() {
            if i == 0 || v != values[i - 1] {
                vals.push(v);
                ends.push(0);
            }
            *ends.last_mut().expect("run started") = (i + 1) as u32;
        }
        (BlockEncoding::RleI64 { values: vals, ends }, rle_size)
    } else {
        let deltas = values.iter().map(|&v| v.wrapping_sub(min) as u64);
        (BlockEncoding::ForI64 { min, packed: PackedInts::pack(deltas, width) }, for_size)
    }
}

/// A string's fingerprint — its length, first 8 and last 8 bytes — mixed
/// into a hash whose top bits pick a slot. Equal fingerprints do not imply
/// equal strings; the table confirms every match with a full compare.
fn fingerprint_hash(s: &str) -> u64 {
    let b = s.as_bytes();
    let n = b.len();
    let (head, tail) = match (b.first_chunk::<8>(), b.last_chunk::<8>()) {
        (Some(head), Some(tail)) => (u64::from_le_bytes(*head), u64::from_le_bytes(*tail)),
        // Shorter than 8 bytes: the whole string is both ends.
        _ => {
            let v = b.iter().rev().fold(0u64, |v, &byte| v << 8 | byte as u64);
            (v, v)
        }
    };
    (head ^ tail.rotate_left(29) ^ (n as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Encode rows `[start, end)` of a string column; also returns the block's
/// raw size. The dictionary is built by hashing (see the module docs, and
/// Abadi et al., SIGMOD 2006, for block dictionaries built that way).
fn encode_str_block(values: &StrVec, start: usize, end: usize) -> (BlockEncoding, usize, usize) {
    const EMPTY: u32 = u32::MAX;
    let n = end - start;
    let raw = raw_str_size(values.iter_range(start..end));
    // Load at most one half; `n ≥ 1`, so the shift stays below 64.
    let slots_len = (2 * n).next_power_of_two();
    let shift = u64::BITS - slots_len.trailing_zeros();
    let mut slots = vec![EMPTY; slots_len];
    let mut distinct: Vec<&str> = Vec::new();
    // Dict header: 4-byte entry count + the distinct strings themselves.
    let mut header = 4;
    let mut ids = Vec::with_capacity(n);
    for s in values.iter_range(start..end) {
        let mut slot = (fingerprint_hash(s) >> shift) as usize;
        let id = loop {
            match slots[slot] {
                EMPTY => {
                    header += s.len() + 1;
                    if header >= raw {
                        return (BlockEncoding::Raw, raw, raw);
                    }
                    slots[slot] = distinct.len() as u32;
                    distinct.push(s);
                    break slots[slot];
                }
                id if distinct[id as usize] == s => break id,
                _ => slot = (slot + 1) & (slots_len - 1),
            }
        };
        ids.push(id);
    }
    let width = PackedInts::bits_for(distinct.len().saturating_sub(1) as u64);
    let dict_size = packed_size(n, width, header);
    if dict_size >= raw {
        return (BlockEncoding::Raw, raw, raw);
    }
    let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
    order.sort_unstable_by_key(|&id| distinct[id as usize]);
    let mut rank = vec![0u64; distinct.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u64;
    }
    let codes = ids.iter().map(|&id| rank[id as usize]);
    let dict = order.iter().map(|&id| distinct[id as usize]).collect();
    (BlockEncoding::DictStr { dict, codes: PackedInts::pack(codes, width) }, dict_size, raw)
}

/// Scale every value by `scale` to an integer, or `None` if any value does
/// not round-trip to the identical bit pattern.
fn scale_exact(values: &[f64], scale: f64) -> Option<Vec<i64>> {
    const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53: exact i64↔f64 range
    values
        .iter()
        .map(|&v| {
            let s = (v * scale).round();
            if s.is_nan() || s.abs() >= LIMIT {
                return None; // non-finite, NaN, or too large to be exact
            }
            let i = s as i64;
            if (i as f64 / scale).to_bits() == v.to_bits() {
                Some(i)
            } else {
                None
            }
        })
        .collect()
}

fn encode_f64_block(values: &[f64]) -> (BlockEncoding, usize) {
    let n = values.len();
    let raw = n * 8;
    let mut best: Option<(BlockEncoding, usize)> = None;
    // TPC-H DECIMAL(15,2) stand-ins: try whole numbers, then cents.
    for scale in [1.0f64, 100.0] {
        let Some(ints) = scale_exact(values, scale) else { continue };
        let (mut min, mut max) = (ints[0], ints[0]);
        for &v in &ints[1..] {
            min = min.min(v);
            max = max.max(v);
        }
        let width = PackedInts::bits_for(max.wrapping_sub(min) as u64);
        if width == 64 {
            continue;
        }
        // Header: 8-byte min + 8-byte scale + 1-byte width.
        let size = packed_size(n, width, 17);
        if best.as_ref().is_none_or(|(_, b)| size < *b) {
            let deltas = ints.iter().map(|&v| v.wrapping_sub(min) as u64);
            best = Some((
                BlockEncoding::ForF64 { min, scale, packed: PackedInts::pack(deltas, width) },
                size,
            ));
        }
    }
    match best {
        Some((enc, size)) if size < raw => (enc, size),
        _ => (BlockEncoding::Raw, raw),
    }
}

// ---------------------------------------------------------------------------
// ColumnEncoding
// ---------------------------------------------------------------------------

/// The chosen per-block encodings of one column, sharing the block grid of
/// the column's [`crate::block::ColumnBlockStats`].
#[derive(Debug, Clone)]
pub struct ColumnEncoding {
    /// Rows per block (same grid as the MinMax stats).
    pub block_rows: usize,
    /// Logical type restored on decode (`Int` vs `Date` for `i64` codecs).
    pub logical: DataType,
    /// One codec per block; [`BlockEncoding::Raw`] where encoding lost.
    pub blocks: Vec<BlockEncoding>,
    /// Estimated encoded bytes of the whole column (raw blocks at raw size).
    pub encoded_bytes: u64,
    /// Estimated raw bytes of the whole column (same model as `avg_width`).
    pub raw_bytes: u64,
}

impl ColumnEncoding {
    /// Choose a codec per block. Returns `None` when no block wins over raw
    /// (including empty columns), so incompressible columns carry nothing.
    pub fn build(column: &Column, block_rows: usize) -> Option<ColumnEncoding> {
        assert!(block_rows > 0, "block_rows must be positive");
        let n = column.len();
        if n == 0 {
            return None;
        }
        let nblocks = n.div_ceil(block_rows);
        let mut blocks = Vec::with_capacity(nblocks);
        let (mut encoded_bytes, mut raw_bytes) = (0u64, 0u64);
        let mut any = false;
        for b in 0..nblocks {
            let (start, end) = (b * block_rows, ((b + 1) * block_rows).min(n));
            let (enc, size, raw) = match column {
                Column::I64 { values, .. } => {
                    let (enc, size) = encode_i64_block(&values[start..end]);
                    (enc, size, (end - start) * 8)
                }
                Column::F64(values) => {
                    let (enc, size) = encode_f64_block(&values[start..end]);
                    (enc, size, (end - start) * 8)
                }
                Column::Str(values) => encode_str_block(values, start, end),
            };
            any |= !matches!(enc, BlockEncoding::Raw);
            encoded_bytes += size as u64;
            raw_bytes += raw as u64;
            blocks.push(enc);
        }
        if !any {
            return None;
        }
        Some(ColumnEncoding {
            block_rows,
            logical: column.data_type(),
            blocks,
            encoded_bytes,
            raw_bytes,
        })
    }

    /// The codec of block `b`.
    pub fn block(&self, b: usize) -> &BlockEncoding {
        &self.blocks[b]
    }

    /// Estimated encoded bytes per row.
    pub fn avg_encoded_width(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / rows as f64
        }
    }

    /// Compact per-codec block counts, e.g. `"for:10,rle:2,raw:1"`,
    /// insertion-ordered by first appearance.
    pub fn codec_summary(&self) -> String {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for b in &self.blocks {
            let tag = b.tag();
            match counts.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, n)) => *n += 1,
                None => counts.push((tag, 1)),
            }
        }
        counts.iter().map(|(t, n)| format!("{t}:{n}")).collect::<Vec<_>>().join(",")
    }

    /// Decode rows `[start, end)` from the encodings, reading `raw` for
    /// [`BlockEncoding::Raw`] blocks. The round-trip contract: the result
    /// always equals `raw.slice(start, end)` exactly.
    pub fn decode_range(&self, raw: &Column, start: usize, end: usize) -> Column {
        let mut out: Option<Column> = None;
        let n = raw.len();
        let mut row = start;
        while row < end {
            let b = row / self.block_rows;
            let (bs, be) = (b * self.block_rows, ((b + 1) * self.block_rows).min(n));
            let (s, e) = (row.max(bs), end.min(be));
            let piece = match self.blocks[b].decode(be - bs, self.logical) {
                Some(block) => block.slice(s - bs, e - bs),
                None => raw.slice(s, e),
            };
            match &mut out {
                Some(acc) => acc.append(&piece).expect("same type across blocks"),
                None => out = Some(piece),
            }
            row = e;
        }
        out.unwrap_or_else(|| raw.slice(0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    #[test]
    fn packed_ints_round_trip_across_word_boundaries() {
        for width in [1u8, 3, 7, 13, 31, 63] {
            let mask = (1u64 << width) - 1;
            let values: Vec<u64> =
                (0..200u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) & mask).collect();
            let packed = PackedInts::pack(values.iter().copied(), width);
            assert_eq!(packed.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "width {width} index {i}");
            }
            for (lo, hi) in [(0, 200), (1, 2), (63, 130), (199, 200), (7, 7)] {
                let got: Vec<u64> = packed.unpacked(lo..hi).collect();
                assert_eq!(got, values[lo..hi], "width {width} rows {lo}..{hi}");
            }
        }
    }

    #[test]
    fn zero_width_stores_nothing() {
        let packed = PackedInts::pack([0, 0, 0].into_iter(), 0);
        assert_eq!(packed.byte_size(), 0);
        assert_eq!(packed.get(2), 0);
        assert_eq!(PackedInts::bits_for(0), 0);
        assert_eq!(PackedInts::bits_for(1), 1);
        assert_eq!(PackedInts::bits_for(255), 8);
        assert_eq!(PackedInts::bits_for(256), 9);
        assert_eq!(PackedInts::bits_for(u64::MAX), 64);
    }

    #[test]
    fn clustered_ints_pick_for() {
        let values: Vec<i64> = (1000..1512).collect();
        let col = Column::from_i64(values.clone());
        let enc = ColumnEncoding::build(&col, 4096).expect("FOR wins");
        assert!(matches!(enc.blocks[0], BlockEncoding::ForI64 { .. }));
        assert!(enc.encoded_bytes < enc.raw_bytes);
        assert_eq!(enc.decode_range(&col, 0, values.len()), col);
        assert_eq!(enc.decode_range(&col, 100, 300), col.slice(100, 300));
    }

    #[test]
    fn constant_runs_pick_rle() {
        let mut values = vec![7i64; 300];
        values.extend(vec![9i64; 212]);
        let col = Column::from_i64(values.clone());
        let enc = ColumnEncoding::build(&col, 4096).expect("RLE wins");
        match &enc.blocks[0] {
            BlockEncoding::RleI64 { values: v, ends } => {
                assert_eq!(v, &vec![7, 9]);
                assert_eq!(ends, &vec![300, 512]);
            }
            other => panic!("expected RLE, got {other:?}"),
        }
        assert_eq!(enc.decode_range(&col, 250, 350), col.slice(250, 350));
    }

    #[test]
    fn date_logical_type_survives_decode() {
        let col = Column::from_dates((9000..9500).collect());
        let enc = ColumnEncoding::build(&col, 4096).expect("FOR wins");
        let dec = enc.decode_range(&col, 0, 500);
        assert_eq!(dec.datum(0), Datum::Date(9000));
        assert_eq!(dec, col);
    }

    #[test]
    fn random_ints_fall_back_to_raw() {
        // Full-width noise: neither FOR nor RLE can win.
        let values: Vec<i64> =
            (0..512u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) as i64).collect();
        let col = Column::from_i64(values);
        assert!(ColumnEncoding::build(&col, 4096).is_none());
    }

    #[test]
    fn low_cardinality_strings_pick_dict() {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        let values: Vec<String> = (0..512).map(|i| modes[i % 4].to_string()).collect();
        let col = Column::from_strings(values);
        let enc = ColumnEncoding::build(&col, 4096).expect("dict wins");
        match &enc.blocks[0] {
            BlockEncoding::DictStr { dict, codes } => {
                assert_eq!(dict.iter().collect::<Vec<_>>(), ["AIR", "RAIL", "SHIP", "TRUCK"]);
                assert_eq!(codes.width(), 2);
            }
            other => panic!("expected dict, got {other:?}"),
        }
        assert_eq!(enc.decode_range(&col, 3, 400), col.slice(3, 400));
    }

    #[test]
    fn all_unique_strings_fall_back_to_raw() {
        let values: Vec<String> = (0..256).map(|i| format!("unique-value-{i:05}")).collect();
        let col = Column::from_strings(values);
        assert!(ColumnEncoding::build(&col, 4096).is_none());
    }

    /// The sort-based block dictionary the hashed one replaced: the oracle.
    fn sorted_dict_block(
        values: &StrVec,
        start: usize,
        end: usize,
    ) -> (BlockEncoding, usize, usize) {
        let block = || values.iter_range(start..end);
        let raw = raw_str_size(block());
        let mut dict: Vec<&str> = block().collect();
        dict.sort_unstable();
        dict.dedup();
        let width = PackedInts::bits_for(dict.len().saturating_sub(1) as u64);
        let dict_size = packed_size(end - start, width, 4 + raw_str_size(dict.iter().copied()));
        if dict_size >= raw {
            return (BlockEncoding::Raw, raw, raw);
        }
        let codes: Vec<u64> = block()
            .map(|v| dict.binary_search(&v).expect("value in its own dict") as u64)
            .collect();
        let dict = dict.into_iter().collect();
        (
            BlockEncoding::DictStr { dict, codes: PackedInts::pack(codes.into_iter(), width) },
            dict_size,
            raw,
        )
    }

    fn assert_same_block(values: &[&str], what: &str) {
        let col: StrVec = values.iter().collect();
        let (got, want) =
            (encode_str_block(&col, 0, values.len()), sorted_dict_block(&col, 0, values.len()));
        assert_eq!((got.1, got.2), (want.1, want.2), "{what}: size or raw size");
        match (&got.0, &want.0) {
            (BlockEncoding::Raw, BlockEncoding::Raw) => {}
            (
                BlockEncoding::DictStr { dict, codes },
                BlockEncoding::DictStr { dict: want_dict, codes: want_codes },
            ) => {
                assert_eq!(dict, want_dict, "{what}: dictionary");
                assert_eq!(codes, want_codes, "{what}: codes");
            }
            (got, want) => {
                panic!("{what}: {} where the sorted dictionary chose {}", got.tag(), want.tag())
            }
        }
    }

    #[test]
    fn hashed_dictionaries_are_the_sorted_ones() {
        // Values sharing length, first 8 and last 8 bytes: equal
        // fingerprints, different strings.
        let twins = ["abcdefgh-1-stuvwxyz", "abcdefgh-2-stuvwxyz", "abcdefgh-3-stuvwxyz"];
        let cases: Vec<(&str, Vec<&str>)> = vec![
            ("empty strings", vec!["", "", "a", "", "a"]),
            ("multi-byte UTF-8", vec!["é", "日本語", "e", "é", "日本", "日本語", "ü"]),
            ("all equal", vec!["same value"; 300]),
            ("fingerprint twins", (0..300).map(|i| twins[i * 7 % 3]).collect()),
            ("twins all distinct", twins.to_vec()),
            ("low cardinality", (0..500).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect()),
        ];
        for (what, values) in &cases {
            assert_same_block(values, what);
        }
        // All unique: raw, found before the pass ends.
        let unique: Vec<String> = (0..256).map(|i| format!("unique-value-{i:05}")).collect();
        assert_same_block(&unique.iter().map(String::as_str).collect::<Vec<_>>(), "all unique");
    }

    #[test]
    fn hashed_dictionary_turns_raw_exactly_where_the_sorted_one_does() {
        // Blocks of `n - 1` values cycling over `k` distinct ones, then one
        // new value of `len` bytes; the sweep must contain blocks that only
        // their last value turns raw (it widens the codes). A new value
        // adds its `len + 1` to the header and the raw size alike, so the
        // header alone reaches the raw size on a last value only in blocks
        // already raw without it — the all-unique case above.
        let pool: Vec<String> = (0..8).map(|i| format!("v{i}")).collect();
        let mut turned_raw_by_last = 0;
        for k in 1..=8 {
            for n in 2..48 {
                for len in 0..6 {
                    let last = "z".repeat(len);
                    let mut values: Vec<&str> = (0..n - 1).map(|i| pool[i % k].as_str()).collect();
                    values.push(&last);
                    assert_same_block(&values, &format!("k {k}, n {n}, last of {len} bytes"));
                    let col: StrVec = values.iter().collect();
                    let is_raw =
                        |end| matches!(sorted_dict_block(&col, 0, end).0, BlockEncoding::Raw);
                    if !is_raw(n - 1) && is_raw(n) {
                        turned_raw_by_last += 1;
                    }
                }
            }
        }
        assert!(turned_raw_by_last > 0, "no block of the sweep turns raw on its last value");
    }

    #[test]
    fn single_value_blocks_degenerate_cleanly() {
        let col = Column::from_i64(vec![42]);
        // One row: RLE is 12 bytes vs 8 raw, FOR is 9 — both lose.
        assert!(ColumnEncoding::build(&col, 4096).is_none());
        let col = Column::from_strings(vec!["hello-world-string".into()]);
        assert!(ColumnEncoding::build(&col, 4096).is_none());
    }

    #[test]
    fn decimal_floats_encode_bit_exact() {
        let values: Vec<f64> = (0..512).map(|i| (i % 90000) as f64 / 100.0 + 900.0).collect();
        let col = Column::from_f64(values.clone());
        let enc = ColumnEncoding::build(&col, 4096).expect("forf wins");
        assert!(matches!(enc.blocks[0], BlockEncoding::ForF64 { .. }));
        let dec = enc.decode_range(&col, 0, 512);
        let (a, b) = (dec.as_f64().unwrap(), col.as_f64().unwrap());
        for i in 0..512 {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn inexact_floats_fall_back_to_raw() {
        let values: Vec<f64> = (0..64).map(|i| 0.1 + i as f64 * 0.001).collect();
        let col = Column::from_f64(values);
        assert!(ColumnEncoding::build(&col, 4096).is_none());
        // NaN / infinity never encode.
        let col = Column::from_f64(vec![f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert!(ColumnEncoding::build(&col, 4096).is_none());
    }

    #[test]
    fn multi_block_columns_choose_per_block() {
        // Block 0: two wide-apart runs (RLE beats FOR's 20-bit width).
        // Block 1: full-width noise (raw).
        let mut values = vec![5i64; 4];
        values.extend(vec![1_000_000i64; 4]);
        values.extend((0..8u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) as i64));
        let col = Column::from_i64(values);
        let enc = ColumnEncoding::build(&col, 8).expect("block 0 wins");
        assert!(matches!(enc.blocks[0], BlockEncoding::RleI64 { .. }));
        assert!(matches!(enc.blocks[1], BlockEncoding::Raw));
        assert_eq!(enc.codec_summary(), "rle:1,raw:1");
        assert_eq!(enc.decode_range(&col, 4, 12), col.slice(4, 12));
    }
}
