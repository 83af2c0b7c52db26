//! Typed column vectors.
//!
//! A [`Column`] is the unit of storage and of data exchange between
//! operators: a contiguous, homogeneously typed vector. Integer-backed types
//! (`Int`, `Date`) share the `I64` representation but remember their logical
//! type so schema information survives through the executor.
//!
//! # String layout
//!
//! A string column is a [`StrVec`]: one contiguous UTF-8 buffer holding
//! every value back to back, plus `len + 1` `u32` offsets — value `i` is
//! `bytes[offsets[i]..offsets[i + 1]]`. There is no allocation per value:
//! a slice is two bulk copies (a byte range and an offset range), a gather
//! is one sizing pass and one copy pass, an append is an `extend`. The form
//! is always *canonical* — `offsets[0] == 0` and the last offset is the
//! buffer length — so two columns holding the same values compare equal
//! whichever way they were built, and `PartialEq` is a plain comparison.
//! Offset arithmetic is checked: a column whose bytes would pass
//! `u32::MAX` panics, it never wraps. Callers see `&str`s ([`StrVec::get`],
//! [`StrVec::iter`]). Two byte-level readers see the regions themselves
//! through [`StrVec::parts`]: the spill codec, which writes them verbatim
//! and rebuilds with the crate-private `StrVec::from_parts` (validating
//! everything a file could get wrong, once), and the executor's group-key
//! codec, which loads a key's bytes a word at a time. Only this module
//! writes them.
//!
//! The *byte model* is not the layout: [`Column::avg_width`] charges a
//! string `len + 1` bytes (the value and one length byte), exactly what it
//! charged when a string was a heap allocation of its own. Tracked memory,
//! spill decisions and the I/O cost model are computed from that model, so
//! they — and every plan, design and spill decision derived from them — are
//! the same as before the layout changed; only the cost of computing it
//! went from a walk over every value to a division.

use std::ops::{Index, Range};

use crate::error::{Result, StorageError};
use crate::value::{DataType, Datum};

/// A vector of UTF-8 strings in one buffer (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct StrVec {
    bytes: String,
    /// `len + 1` ascending positions in `bytes`, first 0, last `bytes.len()`.
    offsets: Vec<u32>,
}

impl Default for StrVec {
    fn default() -> StrVec {
        StrVec::new()
    }
}

/// The offset `len` bytes past `end`, or a panic — never a wrapped offset.
fn advance(end: u32, len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .and_then(|len| end.checked_add(len))
        .expect("string column exceeds u32::MAX bytes")
}

impl StrVec {
    /// An empty vector.
    pub fn new() -> StrVec {
        StrVec::with_capacity(0, 0)
    }

    /// An empty vector with room for `rows` values of `bytes` bytes in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> StrVec {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrVec { bytes: String::with_capacity(bytes), offsets }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of all values.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The value at `i`. Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.iter_range(0..self.len())
    }

    /// The values of rows `rows`, in order.
    pub fn iter_range(&self, rows: Range<usize>) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.offsets[rows.start..=rows.end]
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, value: &str) {
        let end = advance(self.offsets[self.len()], value.len());
        self.bytes.push_str(value);
        self.offsets.push(end);
    }

    /// The values at `indices`, in that order (repeats and any order
    /// allowed): one pass to size the buffer, one to fill it.
    pub fn gather<I: Iterator<Item = usize> + Clone>(&self, indices: I) -> StrVec {
        let (mut rows, mut bytes) = (0, 0);
        for i in indices.clone() {
            rows += 1;
            bytes += self.get(i).len();
        }
        let mut out = StrVec::with_capacity(rows, bytes);
        for i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Append values `[start, end)` of `other`: one byte range, one offset
    /// range rebased onto this buffer's end.
    pub fn append_range(&mut self, other: &StrVec, start: usize, end: usize) {
        let (from, to) = (other.offsets[start], other.offsets[end]);
        let base = self.offsets[self.len()];
        advance(base, (to - from) as usize);
        self.bytes.push_str(&other.bytes[from as usize..to as usize]);
        self.offsets.extend(other.offsets[start + 1..=end].iter().map(|&o| o - from + base));
    }

    /// The two regions (see the module docs): the buffer and the `len + 1`
    /// offsets into it, value `i` at `offsets[i]..offsets[i + 1]`.
    pub fn parts(&self) -> (&str, &[u32]) {
        (&self.bytes, &self.offsets)
    }

    /// Rebuild from the two regions as read from a file, trusting nothing:
    /// the buffer must be UTF-8 and the offsets canonical — starting at 0,
    /// ascending, ending at the buffer's length, each on a character
    /// boundary.
    pub(crate) fn from_parts(bytes: Vec<u8>, offsets: Vec<u32>) -> Result<StrVec> {
        let invalid = |what: String| StorageError::Invalid(format!("string column: {what}"));
        let bytes = String::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
        if offsets.first() != Some(&0) || offsets.last().map(|&o| o as usize) != Some(bytes.len()) {
            return Err(invalid(format!("offsets do not span the {} byte buffer", bytes.len())));
        }
        let ascending = offsets.windows(2).all(|w| w[0] <= w[1]);
        if !ascending || !offsets.iter().all(|&o| bytes.is_char_boundary(o as usize)) {
            return Err(invalid("offsets are not ascending character boundaries".into()));
        }
        Ok(StrVec { bytes, offsets })
    }
}

impl Index<usize> for StrVec {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrVec {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> StrVec {
        let iter = iter.into_iter();
        let mut out = StrVec::with_capacity(iter.size_hint().0, 0);
        for s in iter {
            out.push(s.as_ref());
        }
        out
    }
}

/// A typed vector of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer-backed values; `logical` distinguishes `Int` from `Date`.
    I64 { values: Vec<i64>, logical: DataType },
    /// 64-bit floats.
    F64(Vec<f64>),
    /// UTF-8 strings, one buffer for all of them.
    Str(StrVec),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Column {
        match dt {
            DataType::Int | DataType::Date => Column::I64 { values: Vec::new(), logical: dt },
            DataType::Float => Column::F64(Vec::new()),
            DataType::Str => Column::Str(StrVec::new()),
        }
    }

    /// Integer column with logical type `Int`.
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column::I64 { values, logical: DataType::Int }
    }

    /// Integer-backed column with logical type `Date`.
    pub fn from_dates(values: Vec<i64>) -> Column {
        Column::I64 { values, logical: DataType::Date }
    }

    /// Float column.
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column::F64(values)
    }

    /// String column from owned strings (a convenience for literals and
    /// tests; bulk producers build a [`StrVec`] directly).
    pub fn from_strings(values: Vec<String>) -> Column {
        Column::Str(values.into_iter().collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I64 { values, .. } => values.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::I64 { logical, .. } => *logical,
            Column::F64(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Borrow the `i64` payload of an integer-backed column.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::I64 { values, .. } => Ok(values),
            other => Err(StorageError::TypeMismatch {
                expected: "i64",
                actual: other.data_type().name(),
            }),
        }
    }

    /// Borrow the `f64` payload.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::F64(values) => Ok(values),
            other => Err(StorageError::TypeMismatch {
                expected: "f64",
                actual: other.data_type().name(),
            }),
        }
    }

    /// Borrow the string payload.
    pub fn as_str(&self) -> Result<&StrVec> {
        match self {
            Column::Str(values) => Ok(values),
            other => Err(StorageError::TypeMismatch {
                expected: "str",
                actual: other.data_type().name(),
            }),
        }
    }

    /// The value at `row` as an owned [`Datum`].
    pub fn datum(&self, row: usize) -> Datum {
        match self {
            Column::I64 { values, logical: DataType::Date } => Datum::Date(values[row]),
            Column::I64 { values, .. } => Datum::Int(values[row]),
            Column::F64(values) => Datum::Float(values[row]),
            Column::Str(values) => Datum::Str(values[row].to_string()),
        }
    }

    /// Gather rows by index into a new column. Indices must be in range.
    pub fn gather(&self, indices: &[usize]) -> Column {
        self.gather_impl(indices.iter().copied())
    }

    /// Gather rows by `u32` index into a new column — the row-id width the
    /// executor's join indexes and partition scatters use, saving a
    /// per-match widening pass. Indices must be in range.
    pub fn gather_u32(&self, indices: &[u32]) -> Column {
        self.gather_impl(indices.iter().map(|&i| i as usize))
    }

    fn gather_impl<I: Iterator<Item = usize> + Clone>(&self, indices: I) -> Column {
        match self {
            Column::I64 { values, logical } => {
                Column::I64 { values: indices.map(|i| values[i]).collect(), logical: *logical }
            }
            Column::F64(values) => Column::F64(indices.map(|i| values[i]).collect()),
            Column::Str(values) => Column::Str(values.gather(indices)),
        }
    }

    /// Keep only rows whose `keep` flag is set. `keep.len()` must equal
    /// `self.len()`.
    pub fn filter(&self, keep: &[bool]) -> Column {
        debug_assert_eq!(keep.len(), self.len());
        match self {
            Column::I64 { values, logical } => Column::I64 {
                values: values.iter().zip(keep).filter_map(|(v, &k)| k.then_some(*v)).collect(),
                logical: *logical,
            },
            Column::F64(values) => {
                Column::F64(values.iter().zip(keep).filter_map(|(v, &k)| k.then_some(*v)).collect())
            }
            Column::Str(values) => Column::Str(
                values.gather(keep.iter().enumerate().filter_map(|(i, &k)| k.then_some(i))),
            ),
        }
    }

    /// Copy rows `[start, end)` into a new column.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let mut out = Column::empty(self.data_type());
        out.append_range(self, start, end).expect("a column appends to its own type");
        out
    }

    /// Append all rows of `other` (same *logical* type) to `self` —
    /// `Int` and `Date` share the `I64` representation but do not merge.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        self.append_range(other, 0, other.len())
    }

    /// Append rows `[start, end)` of `other` (same logical type) to `self`
    /// without an intermediate slice.
    pub fn append_range(&mut self, other: &Column, start: usize, end: usize) -> Result<()> {
        match (self, other) {
            (Column::I64 { values: a, logical: la }, Column::I64 { values: b, logical: lb }) => {
                if la != lb {
                    return Err(StorageError::TypeMismatch {
                        expected: la.name(),
                        actual: lb.name(),
                    });
                }
                a.extend_from_slice(&b[start..end]);
                Ok(())
            }
            (Column::F64(a), Column::F64(b)) => {
                a.extend_from_slice(&b[start..end]);
                Ok(())
            }
            (Column::Str(a), Column::Str(b)) => {
                a.append_range(b, start, end);
                Ok(())
            }
            (a, b) => Err(StorageError::TypeMismatch {
                expected: a.data_type().name(),
                actual: b.data_type().name(),
            }),
        }
    }

    /// Push a single [`Datum`] (must match the column type).
    pub fn push(&mut self, d: Datum) -> Result<()> {
        match (self, d) {
            (Column::I64 { values, .. }, Datum::Int(v) | Datum::Date(v)) => {
                values.push(v);
                Ok(())
            }
            (Column::F64(values), Datum::Float(v)) => {
                values.push(v);
                Ok(())
            }
            (Column::Str(values), Datum::Str(v)) => {
                values.push(&v);
                Ok(())
            }
            (col, d) => Err(StorageError::TypeMismatch {
                expected: col.data_type().name(),
                actual: d.data_type().name(),
            }),
        }
    }

    /// Average stored width in bytes (exact for fixed-width types, measured
    /// for strings). Used by the I/O cost model; strings add one length byte.
    pub fn avg_width(&self) -> f64 {
        match self {
            Column::I64 { .. } | Column::F64(_) => 8.0,
            Column::Str(values) if values.is_empty() => 1.0,
            Column::Str(values) => (values.byte_len() + values.len()) as f64 / values.len() as f64,
        }
    }
}

/// Incremental builder used by data generators: pushes datums of one type
/// and finishes into a [`Column`].
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    /// A builder for the given type, pre-sized for `capacity` rows.
    pub fn with_capacity(dt: DataType, capacity: usize) -> ColumnBuilder {
        let column = match dt {
            DataType::Int | DataType::Date => {
                Column::I64 { values: Vec::with_capacity(capacity), logical: dt }
            }
            DataType::Float => Column::F64(Vec::with_capacity(capacity)),
            DataType::Str => Column::Str(StrVec::with_capacity(capacity, 0)),
        };
        ColumnBuilder { column }
    }

    /// Push an `i64` (valid for `Int` and `Date` columns).
    pub fn push_i64(&mut self, v: i64) {
        match &mut self.column {
            Column::I64 { values, .. } => values.push(v),
            _ => panic!("push_i64 on non-integer column"),
        }
    }

    /// Push an `f64`.
    pub fn push_f64(&mut self, v: f64) {
        match &mut self.column {
            Column::F64(values) => values.push(v),
            _ => panic!("push_f64 on non-float column"),
        }
    }

    /// Push a string.
    pub fn push_str(&mut self, v: &str) {
        match &mut self.column {
            Column::Str(values) => values.push(v),
            _ => panic!("push_str on non-string column"),
        }
    }

    /// Finish and return the built column.
    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_filter() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 0, 0]), Column::from_i64(vec![40, 10, 10]));
        assert_eq!(c.filter(&[true, false, true, false]), Column::from_i64(vec![10, 30]));
    }

    #[test]
    fn gather_u32_matches_gather() {
        let c = Column::from_strings(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(c.gather_u32(&[2, 0, 2]), c.gather(&[2, 0, 2]));
        let d = Column::from_dates(vec![5, 6]);
        assert_eq!(d.gather_u32(&[1]).data_type(), DataType::Date);
        assert_eq!(Column::from_f64(vec![1.5, 2.5]).gather_u32(&[1]), Column::from_f64(vec![2.5]));
    }

    #[test]
    fn date_columns_keep_logical_type() {
        let c = Column::from_dates(vec![1, 2]);
        assert_eq!(c.data_type(), DataType::Date);
        assert_eq!(c.datum(0), Datum::Date(1));
        assert_eq!(c.slice(1, 2).data_type(), DataType::Date);
        assert_eq!(c.gather(&[0]).data_type(), DataType::Date);
    }

    #[test]
    fn append_type_checks() {
        let mut a = Column::from_i64(vec![1]);
        assert!(a.append(&Column::from_i64(vec![2])).is_ok());
        assert_eq!(a.len(), 2);
        assert!(a.append(&Column::from_f64(vec![1.0])).is_err());
        // Int and Date share the i64 representation but must not merge.
        assert!(a.append(&Column::from_dates(vec![3])).is_err());
        assert_eq!(a.len(), 2);
        let mut d = Column::from_dates(vec![4]);
        assert!(d.append(&Column::from_i64(vec![5])).is_err());
        assert!(d.append(&Column::from_dates(vec![6])).is_ok());
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn push_datum() {
        let mut c = Column::empty(DataType::Str);
        c.push(Datum::Str("a".into())).unwrap();
        assert!(c.push(Datum::Int(1)).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn builder_round_trip() {
        let mut b = ColumnBuilder::with_capacity(DataType::Float, 2);
        b.push_f64(1.5);
        b.push_f64(-2.5);
        let c = b.finish();
        assert_eq!(c.as_f64().unwrap(), &[1.5, -2.5]);
    }

    #[test]
    fn avg_width_strings() {
        let c = Column::from_strings(vec!["ab".into(), "abcd".into()]);
        // (2+1 + 4+1) / 2 = 4
        assert!((c.avg_width() - 4.0).abs() < 1e-9);
        assert_eq!(Column::from_i64(vec![1]).avg_width(), 8.0);
    }

    #[test]
    fn slice_copies_range() {
        let c = Column::from_strings(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(c.slice(1, 3), Column::from_strings(vec!["b".into(), "c".into()]));
    }

    #[test]
    fn offsets_are_checked_never_wrapped() {
        // A synthetic end offset near the top of the range: the last bytes
        // that fit are accepted, one more is a panic, not a wrapped offset.
        assert_eq!(advance(u32::MAX - 3, 3), u32::MAX);
        assert!(std::panic::catch_unwind(|| advance(u32::MAX - 3, 4)).is_err());
        assert!(std::panic::catch_unwind(|| advance(0, u32::MAX as usize + 1)).is_err());
    }

    #[test]
    fn from_parts_accepts_only_the_canonical_form() {
        let ok =
            |bytes: &[u8], offsets: &[u32]| StrVec::from_parts(bytes.to_vec(), offsets.to_vec());
        let v = ok("aéb".as_bytes(), &[0, 3, 4, 4]).unwrap();
        assert_eq!(v.iter().collect::<Vec<_>>(), ["aé", "b", ""]);
        assert_eq!(ok(b"", &[0]).unwrap(), StrVec::new());
        for (bytes, offsets) in [
            ("aéb".as_bytes(), &[0u32, 4, 3, 4][..]),    // not ascending
            ("aéb".as_bytes(), &[0, 3, 4, 9]),           // past the buffer
            ("aéb".as_bytes(), &[0, 3, 3]),              // short of the buffer
            ("aéb".as_bytes(), &[1, 3, 4]),              // not from zero
            ("aéb".as_bytes(), &[0, 2, 4]),              // inside the two-byte é
            (&[b'a', 0xc3, 0x28, b'b'][..], &[0, 1, 4]), // not UTF-8
            (b"", &[]),                                  // no offsets at all
        ] {
            assert!(matches!(ok(bytes, offsets), Err(StorageError::Invalid(_))), "{offsets:?}");
        }
    }

    #[test]
    fn accessors_type_check() {
        let c = Column::from_i64(vec![1]);
        assert!(c.as_i64().is_ok());
        assert!(c.as_f64().is_err());
        assert!(c.as_str().is_err());
    }
}
