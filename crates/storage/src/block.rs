//! Per-block column statistics (MinMax indices).
//!
//! Vectorwise maintains automatic MinMax indices on every column (ref [8] of
//! the paper); the evaluation relies on them for *correlated* selection
//! pushdown (e.g. `l_shipdate` predicates prune blocks because LINEITEM is
//! BDCC-clustered on the correlated `o_orderdate`). We reproduce the
//! mechanism: every stored column keeps min/max per fixed-size row block,
//! and scans skip blocks whose range cannot satisfy a predicate.

use crate::column::Column;
use crate::value::Datum;

/// Rows per statistics block. 4096 rows of an 8-byte column is exactly one
/// 32 KB page, so block granularity and page granularity coincide for the
/// densest fixed-width columns.
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

/// Min/max of one block of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    pub min: Datum,
    pub max: Datum,
}

impl BlockStats {
    /// Could a value `v` with `v OP ...` satisfied inside `[min, max]`?
    /// Conservative: `true` means "cannot exclude".
    pub fn may_contain_range(&self, lo: Option<&Datum>, hi: Option<&Datum>) -> bool {
        if let Some(lo) = lo {
            if self.max.total_cmp(lo) == std::cmp::Ordering::Less {
                return false;
            }
        }
        if let Some(hi) = hi {
            if self.min.total_cmp(hi) == std::cmp::Ordering::Greater {
                return false;
            }
        }
        true
    }
}

/// MinMax statistics for one column: one [`BlockStats`] per block of
/// `block_rows` rows.
#[derive(Debug, Clone)]
pub struct ColumnBlockStats {
    pub block_rows: usize,
    pub blocks: Vec<BlockStats>,
}

impl ColumnBlockStats {
    /// Compute stats for `column` with the given block size.
    pub fn build(column: &Column, block_rows: usize) -> ColumnBlockStats {
        assert!(block_rows > 0, "block_rows must be positive");
        let n = column.len();
        let nblocks = n.div_ceil(block_rows);
        let mut blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let start = b * block_rows;
            let end = (start + block_rows).min(n);
            blocks.push(block_min_max(column, start, end));
        }
        ColumnBlockStats { block_rows, blocks }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the column was empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block index covering `row`.
    pub fn block_of_row(&self, row: usize) -> usize {
        row / self.block_rows
    }

    /// Row range `[start, end)` of block `b`, clamped to `total_rows`.
    pub fn rows_of_block(&self, b: usize, total_rows: usize) -> (usize, usize) {
        let start = b * self.block_rows;
        let end = (start + self.block_rows).min(total_rows);
        (start, end)
    }
}

fn block_min_max(column: &Column, start: usize, end: usize) -> BlockStats {
    debug_assert!(start < end);
    match column {
        Column::I64 { values, logical } => {
            let mut min = values[start];
            let mut max = values[start];
            for &v in &values[start + 1..end] {
                min = min.min(v);
                max = max.max(v);
            }
            if logical.is_integer_backed() && *logical == crate::value::DataType::Date {
                BlockStats { min: Datum::Date(min), max: Datum::Date(max) }
            } else {
                BlockStats { min: Datum::Int(min), max: Datum::Int(max) }
            }
        }
        // Ordered by `total_cmp`, as pruning and the interpreter compare:
        // NaN above +∞, −0.0 below 0.0.
        Column::F64(values) => {
            let mut min = values[start];
            let mut max = values[start];
            for &v in &values[start + 1..end] {
                if v.total_cmp(&min).is_lt() {
                    min = v;
                }
                if v.total_cmp(&max).is_gt() {
                    max = v;
                }
            }
            BlockStats { min: Datum::Float(min), max: Datum::Float(max) }
        }
        Column::Str(values) => {
            let mut min = &values[start];
            let mut max = &values[start];
            for v in values.iter_range(start + 1..end) {
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
            BlockStats { min: Datum::Str(min.to_string()), max: Datum::Str(max.to_string()) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_covers_partial_last_block() {
        let c = Column::from_i64((0..10).collect());
        let s = ColumnBlockStats::build(&c, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.blocks[0], BlockStats { min: Datum::Int(0), max: Datum::Int(3) });
        assert_eq!(s.blocks[2], BlockStats { min: Datum::Int(8), max: Datum::Int(9) });
        assert_eq!(s.rows_of_block(2, 10), (8, 10));
        assert_eq!(s.block_of_row(9), 2);
    }

    #[test]
    fn range_pruning_is_conservative() {
        let b = BlockStats { min: Datum::Int(10), max: Datum::Int(20) };
        // predicate value >= 25 → min..max entirely below → prune
        assert!(!b.may_contain_range(Some(&Datum::Int(25)), None));
        // predicate value <= 5 → prune
        assert!(!b.may_contain_range(None, Some(&Datum::Int(5))));
        // overlapping range → keep
        assert!(b.may_contain_range(Some(&Datum::Int(15)), Some(&Datum::Int(30))));
        // unbounded → keep
        assert!(b.may_contain_range(None, None));
        // boundary inclusive
        assert!(b.may_contain_range(Some(&Datum::Int(20)), None));
        assert!(b.may_contain_range(None, Some(&Datum::Int(10))));
    }

    #[test]
    fn date_blocks_keep_date_type() {
        let c = Column::from_dates(vec![5, 1, 9]);
        let s = ColumnBlockStats::build(&c, 8);
        assert_eq!(s.blocks[0].min, Datum::Date(1));
        assert_eq!(s.blocks[0].max, Datum::Date(9));
    }

    #[test]
    fn string_blocks() {
        let c = Column::from_strings(vec!["pear".into(), "apple".into(), "melon".into()]);
        let s = ColumnBlockStats::build(&c, 1024);
        assert_eq!(s.blocks[0].min, Datum::Str("apple".into()));
        assert_eq!(s.blocks[0].max, Datum::Str("pear".into()));
    }

    #[test]
    fn float_blocks() {
        let c = Column::from_f64(vec![2.5, -1.0, 0.0]);
        let s = ColumnBlockStats::build(&c, 2);
        assert_eq!(s.blocks[0].min, Datum::Float(-1.0));
        assert_eq!(s.blocks[1].min, Datum::Float(0.0));
    }

    #[test]
    fn float_blocks_follow_total_cmp() {
        let bits = |d: &Datum| match d {
            Datum::Float(f) => f.to_bits(),
            other => panic!("{other:?} is not a float"),
        };
        let c = Column::from_f64(vec![
            1.0,
            f64::NAN,
            2.0,
            1.5,
            f64::NAN,
            -5.0,
            2.0,
            1.5,
            0.0,
            -0.0,
            0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::NAN,
            1.0,
        ]);
        let s = ColumnBlockStats::build(&c, 4);
        let want = [(1.0, f64::NAN), (-5.0, f64::NAN), (-0.0, 0.0), (-f64::NAN, f64::INFINITY)];
        for (b, (min, max)) in s.blocks.iter().zip(want) {
            assert_eq!((bits(&b.min), bits(&b.max)), (min.to_bits(), max.to_bits()), "{b:?}");
        }
        // A block holding a NaN may contain `f > 5.0`; one holding −5.0
        // may contain `f < 0.0`.
        assert!(s.blocks[0].may_contain_range(Some(&Datum::Float(5.0)), None));
        assert!(s.blocks[1].may_contain_range(None, Some(&Datum::Float(0.0))));
        assert!(s.blocks[2].may_contain_range(None, Some(&Datum::Float(-0.0))));
    }
}
