//! Compression-aware predicate kernels for scans.
//!
//! When a table carries block encodings (see `bdcc_storage::encode`), a
//! [`ScanKernel`] evaluates the scan's sargable predicates directly on the
//! encoded blocks instead of slicing raw columns first. The one leaf
//! [`Scan`](crate::ops::scan::Scan) calls it for every statistics block —
//! or piece of one — that a run touches and MinMax pruning leaves:
//!
//! * **Dictionary blocks** — the predicate is evaluated once per distinct
//!   dictionary entry; rows then compare bit-packed codes against the match
//!   set. A constant absent from a block's dict kills the whole block
//!   without touching a single row (the *dict-miss* skip).
//! * **FOR blocks** — pruned via the block's MinMax stats without
//!   unpacking when the predicate's range covers the whole block; otherwise
//!   values unpack on the fly (`min + delta`).
//! * **RLE blocks** — the predicate runs once per run, and the verdict is
//!   painted over the run's row span.
//! * **Constant blocks** (`min == max` in the MinMax stats) decide in O(1)
//!   whatever their physical encoding, including raw.
//!
//! Rows surviving all predicates are **materialized late**: the scan
//! copies the projection from the resident raw columns only for those rows
//! — by range while every block of the run passes whole
//! ([`BlockVerdict::All`]), by row index from the first block that keeps
//! only some ([`BlockVerdict::Rows`]) — so downstream operators never see
//! encoded data and results are byte-identical to the raw path.
//!
//! # Fallback contract
//!
//! [`ScanKernel::try_new`] returns `None` — and the scan assembles the
//! run's surviving ranges and applies the compiled residual — unless the
//! table has encodings *and every* predicate is kernel-supported with
//! exactly the residual expression's semantics: `i64` comparisons on
//! integer-backed columns, string comparisons and `LIKE` on string columns,
//! `IN` with the residual's datum filtering. Predicates that would make the
//! residual *error* (e.g. `LIKE` on an integer column, a float-typed
//! constant against a string column) are unsupported, so the error still
//! surfaces through the fallback path. Float-column predicates always fall
//! back.

use bdcc_storage::{BlockEncoding, BlockStats, DataType, Datum, StoredTable};

use crate::error::Result;
use crate::expr::LikePattern;
use crate::pred::{ColPredicate, PredKind};

/// Outcome of evaluating one block (or a sub-range of one) against every
/// predicate of a scan.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockVerdict {
    /// Eliminated from metadata alone — a dictionary miss or a constant
    /// block's stats — without evaluating any row.
    SkipNoRows,
    /// Every row was eliminated by per-row evaluation.
    Skip,
    /// Every row of the range survives: slice, no gather needed.
    All,
    /// The surviving absolute row indices (strictly increasing, a proper
    /// non-empty subset of the range).
    Rows(Vec<usize>),
}

/// Compiled predicate tests over one scan's predicate list. Built once per
/// scan; [`eval_block`](Self::eval_block) runs once per surviving block.
pub struct ScanKernel {
    /// `(column index, compiled test)` in the scan's predicate order.
    preds: Vec<(usize, PredTest)>,
}

enum PredTest {
    Int(IntTest),
    Str(StrTest),
}

pub(crate) enum IntTest {
    Eq(i64),
    Ne(i64),
    /// Normalized inclusive bounds; `lo > hi` matches nothing.
    Range {
        lo: i64,
        hi: i64,
    },
    /// Sorted distinct list (the residual's `IN` set after `as_int`).
    In(Vec<i64>),
}

pub(crate) enum StrTest {
    Eq(String),
    Ne(String),
    Range {
        lo: Option<(String, bool)>,
        hi: Option<(String, bool)>,
    },
    /// Sorted distinct list (the residual's `IN` set after `as_str`).
    In(Vec<String>),
    Like(LikePattern),
    NotLike(LikePattern),
}

pub(crate) fn int_test(t: &IntTest, v: i64) -> bool {
    match t {
        IntTest::Eq(c) => v == *c,
        IntTest::Ne(c) => v != *c,
        IntTest::Range { lo, hi } => *lo <= v && v <= *hi,
        IntTest::In(set) => set.binary_search(&v).is_ok(),
    }
}

pub(crate) fn str_test(t: &StrTest, s: &str) -> bool {
    match t {
        StrTest::Eq(c) => s == c,
        StrTest::Ne(c) => s != c,
        StrTest::Range { lo, hi } => {
            if let Some((b, inclusive)) = lo {
                if !(if *inclusive { s >= b.as_str() } else { s > b.as_str() }) {
                    return false;
                }
            }
            if let Some((b, inclusive)) = hi {
                if !(if *inclusive { s <= b.as_str() } else { s < b.as_str() }) {
                    return false;
                }
            }
            true
        }
        StrTest::In(set) => set.binary_search_by(|e| e.as_str().cmp(s)).is_ok(),
        StrTest::Like(p) => p.matches(s),
        StrTest::NotLike(p) => !p.matches(s),
    }
}

/// `Some(v)` only for the datums the residual's `i64` comparison accepts.
fn int_const(d: &Datum) -> Option<i64> {
    match d {
        Datum::Int(v) | Datum::Date(v) => Some(*v),
        _ => None,
    }
}

pub(crate) fn compile_int(kind: &PredKind) -> Option<IntTest> {
    Some(match kind {
        PredKind::Eq(d) => IntTest::Eq(int_const(d)?),
        PredKind::Ne(d) => IntTest::Ne(int_const(d)?),
        PredKind::Range { lo, lo_inclusive, hi, hi_inclusive } => {
            // Normalize to inclusive bounds. `col > i64::MAX` (and the
            // `< i64::MIN` mirror) matches nothing; an empty IN set
            // represents that exactly.
            let lo = match lo {
                None => i64::MIN,
                Some(d) => {
                    let v = int_const(d)?;
                    if *lo_inclusive {
                        v
                    } else {
                        match v.checked_add(1) {
                            Some(x) => x,
                            None => return Some(IntTest::In(Vec::new())),
                        }
                    }
                }
            };
            let hi = match hi {
                None => i64::MAX,
                Some(d) => {
                    let v = int_const(d)?;
                    if *hi_inclusive {
                        v
                    } else {
                        match v.checked_sub(1) {
                            Some(x) => x,
                            None => return Some(IntTest::In(Vec::new())),
                        }
                    }
                }
            };
            IntTest::Range { lo, hi }
        }
        PredKind::In(vals) => {
            let mut set: Vec<i64> = vals.iter().filter_map(int_const).collect();
            set.sort_unstable();
            set.dedup();
            IntTest::In(set)
        }
        // `LIKE` on an integer column errors in the residual (`as_str` on
        // an i64 column); stay on the fallback so the error surfaces.
        PredKind::Like(_) | PredKind::NotLike(_) => return None,
    })
}

pub(crate) fn compile_str(kind: &PredKind) -> Option<StrTest> {
    let str_const = |d: &Datum| match d {
        Datum::Str(s) => Some(s.clone()),
        _ => None, // non-string constant vs string column errors in the residual
    };
    Some(match kind {
        PredKind::Eq(d) => StrTest::Eq(str_const(d)?),
        PredKind::Ne(d) => StrTest::Ne(str_const(d)?),
        PredKind::Range { lo, lo_inclusive, hi, hi_inclusive } => {
            let lo = match lo {
                None => None,
                Some(d) => Some((str_const(d)?, *lo_inclusive)),
            };
            let hi = match hi {
                None => None,
                Some(d) => Some((str_const(d)?, *hi_inclusive)),
            };
            StrTest::Range { lo, hi }
        }
        PredKind::In(vals) => {
            let mut set: Vec<String> =
                vals.iter().filter_map(|d| d.as_str().map(str::to_string)).collect();
            set.sort_unstable();
            set.dedup();
            StrTest::In(set)
        }
        PredKind::Like(p) => StrTest::Like(p.clone()),
        PredKind::NotLike(p) => StrTest::NotLike(p.clone()),
    })
}

/// What the block's MinMax stats alone decide about a test.
enum StatVerdict {
    AllTrue,
    AllFalse,
    Unknown,
}

fn stats_verdict(test: &PredTest, stats: &BlockStats) -> StatVerdict {
    match test {
        PredTest::Int(t) => {
            let (Some(min), Some(max)) = (stats.min.as_int(), stats.max.as_int()) else {
                return StatVerdict::Unknown;
            };
            if min == max {
                // Constant block: one evaluation decides every row.
                return if int_test(t, min) { StatVerdict::AllTrue } else { StatVerdict::AllFalse };
            }
            match t {
                IntTest::Range { lo, hi } if *lo <= min && max <= *hi => StatVerdict::AllTrue,
                IntTest::Ne(c) if *c < min || *c > max => StatVerdict::AllTrue,
                _ => StatVerdict::Unknown,
            }
        }
        PredTest::Str(t) => {
            let (Datum::Str(min), Datum::Str(max)) = (&stats.min, &stats.max) else {
                return StatVerdict::Unknown;
            };
            if min == max {
                return if str_test(t, min) { StatVerdict::AllTrue } else { StatVerdict::AllFalse };
            }
            match t {
                StrTest::Range { lo, hi } => {
                    let lo_ok = match lo {
                        None => true,
                        Some((b, true)) => min.as_str() >= b.as_str(),
                        Some((b, false)) => min.as_str() > b.as_str(),
                    };
                    let hi_ok = match hi {
                        None => true,
                        Some((b, true)) => max.as_str() <= b.as_str(),
                        Some((b, false)) => max.as_str() < b.as_str(),
                    };
                    if lo_ok && hi_ok {
                        StatVerdict::AllTrue
                    } else {
                        StatVerdict::Unknown
                    }
                }
                StrTest::Ne(c) if c.as_str() < min.as_str() || c.as_str() > max.as_str() => {
                    StatVerdict::AllTrue
                }
                _ => StatVerdict::Unknown,
            }
        }
    }
}

impl ScanKernel {
    /// Compile the scan's predicates, or `None` when the scan must stay on
    /// the raw slice-then-residual path (no encodings, no predicates, or
    /// any predicate outside the supported matrix — see module docs).
    pub fn try_new(table: &StoredTable, preds: &[(usize, ColPredicate)]) -> Option<ScanKernel> {
        if preds.is_empty() || !table.has_encodings() {
            return None;
        }
        let mut compiled = Vec::with_capacity(preds.len());
        for (col, p) in preds {
            let test = match table.schema().columns[*col].data_type {
                DataType::Int | DataType::Date => PredTest::Int(compile_int(&p.kind)?),
                DataType::Str => PredTest::Str(compile_str(&p.kind)?),
                DataType::Float => return None,
            };
            compiled.push((*col, test));
        }
        Some(ScanKernel { preds: compiled })
    }

    /// Evaluate all predicates over rows `[lo, hi)` of `block` (whose first
    /// row is `block_start`), consulting each predicate column's MinMax
    /// stats for the block first.
    ///
    /// The returned verdict selects exactly the rows the residual
    /// expression would keep.
    pub fn eval_block(
        &self,
        table: &StoredTable,
        block: usize,
        block_start: usize,
        lo: usize,
        hi: usize,
    ) -> Result<BlockVerdict> {
        debug_assert!(lo < hi && lo >= block_start);
        let n = hi - lo;
        // `None` = every row still passing (no mask allocated yet).
        let mut mask: Option<Vec<bool>> = None;
        for (col, test) in &self.preds {
            match stats_verdict(test, &table.block_stats(*col)?.blocks[block]) {
                StatVerdict::AllTrue => continue,
                StatVerdict::AllFalse => return Ok(BlockVerdict::SkipNoRows),
                StatVerdict::Unknown => {}
            }
            let encoding = table.encoding(*col).map(|e| e.block(block));
            match (test, encoding) {
                (PredTest::Str(t), Some(BlockEncoding::DictStr { dict, codes })) => {
                    // Evaluate once per distinct value, then compare codes.
                    let dmatch: Vec<bool> = dict.iter().map(|s| str_test(t, s)).collect();
                    let hits = dmatch.iter().filter(|&&m| m).count();
                    if hits == 0 {
                        return Ok(BlockVerdict::SkipNoRows); // dict miss
                    }
                    if hits == dict.len() {
                        continue;
                    }
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    for (j, mv) in m.iter_mut().enumerate() {
                        if *mv {
                            *mv = dmatch[codes.get(lo - block_start + j) as usize];
                        }
                    }
                }
                (PredTest::Int(t), Some(BlockEncoding::ForI64 { min, packed })) => {
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    for (j, mv) in m.iter_mut().enumerate() {
                        if *mv {
                            let v = min.wrapping_add(packed.get(lo - block_start + j) as i64);
                            *mv = int_test(t, v);
                        }
                    }
                }
                (PredTest::Int(t), Some(BlockEncoding::RleI64 { values, ends })) => {
                    // One evaluation per run, painted over the overlap with
                    // the requested range (offsets are block-local).
                    let (rlo, rhi) = (lo - block_start, hi - block_start);
                    let mut run_start = 0usize;
                    for (v, &end) in values.iter().zip(ends) {
                        let run_end = end as usize;
                        if run_end > rlo && run_start < rhi && !int_test(t, *v) {
                            let m = mask.get_or_insert_with(|| vec![true; n]);
                            for mv in &mut m[run_start.max(rlo) - rlo..run_end.min(rhi) - rlo] {
                                *mv = false;
                            }
                        }
                        run_start = run_end;
                        if run_start >= rhi {
                            break;
                        }
                    }
                }
                // Raw blocks (and the impossible codec/type pairings the
                // compiler can't see are unreachable): direct typed loops
                // with the residual's exact comparison semantics.
                (PredTest::Int(t), _) => {
                    let values = table.column(*col)?.as_i64()?;
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    for (j, mv) in m.iter_mut().enumerate() {
                        if *mv {
                            *mv = int_test(t, values[lo + j]);
                        }
                    }
                }
                (PredTest::Str(t), _) => {
                    let values = table.column(*col)?.as_str()?;
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    for (j, mv) in m.iter_mut().enumerate() {
                        if *mv {
                            *mv = str_test(t, &values[lo + j]);
                        }
                    }
                }
            }
            if let Some(m) = &mask {
                if !m.iter().any(|&k| k) {
                    return Ok(BlockVerdict::Skip);
                }
            }
        }
        Ok(match mask {
            None => BlockVerdict::All,
            Some(m) => {
                let rows: Vec<usize> =
                    m.iter().enumerate().filter(|&(_, &k)| k).map(|(j, _)| lo + j).collect();
                if rows.len() == n {
                    BlockVerdict::All
                } else {
                    BlockVerdict::Rows(rows)
                }
            }
        })
    }
}

/// Run `build` with the process-wide encode switch pinned to `enabled`,
/// serialised against every other unit test that pins it — a table built
/// here is encoded (or raw) whatever its neighbours are doing.
#[cfg(test)]
pub(crate) fn build_with_encoding<T>(enabled: bool, build: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _pin = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    bdcc_storage::set_encode_enabled(Some(enabled));
    let out = build();
    bdcc_storage::set_encode_enabled(None);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_storage::{Column, StoredTable};
    use std::sync::Arc;

    fn encoded_table() -> Arc<StoredTable> {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        Arc::new(build_with_encoding(true, || {
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    (
                        "mode".into(),
                        Column::from_strings((0..16).map(|i| modes[i % 4].into()).collect()),
                    ),
                    ("k".into(), Column::from_i64((100..116).collect())),
                ],
                8,
            )
            .unwrap()
        }))
    }

    fn preds_of(table: &StoredTable, preds: Vec<ColPredicate>) -> Vec<(usize, ColPredicate)> {
        preds.into_iter().map(|p| (table.column_index(&p.column).unwrap(), p.clone())).collect()
    }

    #[test]
    fn dict_miss_skips_without_rows() {
        let t = encoded_table();
        // "FOB" is lexicographically inside [AIR, TRUCK] so MinMax cannot
        // prune it, but it is absent from the dict.
        let preds = preds_of(&t, vec![ColPredicate::eq("mode", Datum::Str("FOB".into()))]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::SkipNoRows);
    }

    #[test]
    fn dict_eq_selects_exact_rows() {
        let t = encoded_table();
        let preds = preds_of(&t, vec![ColPredicate::eq("mode", Datum::Str("RAIL".into()))]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::Rows(vec![1, 5]));
        // Sub-range of the block (scatter-scan shape).
        let v = kernel.eval_block(&t, 0, 0, 4, 8).unwrap();
        assert_eq!(v, BlockVerdict::Rows(vec![5]));
    }

    #[test]
    fn for_range_all_true_shortcut() {
        let t = encoded_table();
        let preds = preds_of(&t, vec![ColPredicate::between("k", 0i64, 1000i64)]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::All);
    }

    #[test]
    fn for_values_unpack_on_partial_overlap() {
        let t = encoded_table();
        let preds = preds_of(&t, vec![ColPredicate::ge("k", 106i64)]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
        // Block 0 holds k = 100..108; only rows 6, 7 survive.
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::Rows(vec![6, 7]));
    }

    #[test]
    fn unsupported_predicates_fall_back() {
        let t = encoded_table();
        // Float constant against an int column → residual semantics differ.
        let preds = preds_of(&t, vec![ColPredicate::eq("k", 105.0f64)]);
        assert!(ScanKernel::try_new(&t, &preds).is_none());
        // LIKE on an int column errors in the residual.
        let preds = preds_of(&t, vec![ColPredicate::like("k", LikePattern::Contains("x".into()))]);
        assert!(ScanKernel::try_new(&t, &preds).is_none());
        // No predicates → nothing to accelerate.
        assert!(ScanKernel::try_new(&t, &[]).is_none());
    }

    #[test]
    fn unencoded_tables_fall_back() {
        let t = build_with_encoding(false, || {
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![("k".into(), Column::from_i64((0..16).collect()))],
                8,
            )
            .unwrap()
        });
        let preds = preds_of(&t, vec![ColPredicate::eq("k", 3i64)]);
        assert!(ScanKernel::try_new(&t, &preds).is_none());
    }

    #[test]
    fn rle_runs_evaluate_once_per_run() {
        let mut values = vec![3i64; 1000];
        values.extend(vec![900_000i64; 1000]);
        values.extend(vec![5i64; 48]);
        let t = build_with_encoding(true, || {
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![("k".into(), Column::from_i64(values))],
                4096,
            )
            .unwrap()
        });
        assert!(matches!(
            t.encoding(0).unwrap().block(0),
            bdcc_storage::BlockEncoding::RleI64 { .. }
        ));
        let preds =
            preds_of(&t, vec![ColPredicate::in_list("k", vec![Datum::Int(5), Datum::Int(3)])]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
        match kernel.eval_block(&t, 0, 0, 0, 2048).unwrap() {
            BlockVerdict::Rows(rows) => {
                assert_eq!(rows.len(), 1048);
                assert_eq!(rows[0], 0);
                assert_eq!(rows[1000], 2000);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn exclusive_int_bounds_normalize() {
        let t = IntTest::Range { lo: 5, hi: 9 };
        assert!(!int_test(&t, 4));
        assert!(int_test(&t, 5));
        assert!(int_test(&t, 9));
        assert!(!int_test(&t, 10));
        // col > i64::MAX is impossible.
        let k = compile_int(&PredKind::Range {
            lo: Some(Datum::Int(i64::MAX)),
            lo_inclusive: false,
            hi: None,
            hi_inclusive: true,
        })
        .unwrap();
        assert!(!int_test(&k, i64::MAX));
        assert!(!int_test(&k, 0));
    }
}
