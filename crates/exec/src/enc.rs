//! Compression-aware predicate kernels for scans.
//!
//! Every scan evaluates its sargable predicates through one [`ScanKernel`],
//! whatever the table's storage: the one leaf
//! [`Scan`](crate::ops::scan::Scan) asks it about every statistics block —
//! or piece of one — that a run touches, and the kernel answers from the
//! cheapest evidence first:
//!
//! * **MinMax pruning** — a block whose MinMax range cannot satisfy some
//!   predicate is [`BlockVerdict::Pruned`] (Vectorwise's automatic MinMax
//!   indices), checked over all predicates before anything else.
//! * **Constant blocks** (`min == max` in the MinMax stats) decide in O(1)
//!   whatever their physical encoding, including raw; so does a range that
//!   covers the whole block.
//! * **Dictionary blocks** — the predicate is evaluated once per distinct
//!   dictionary entry and scan, however many runs or morsels read pieces of
//!   the block; rows then compare bit-packed codes against the match set.
//!   A constant absent from a block's dict kills the whole block without
//!   touching a single row (the *dict-miss* skip).
//! * **FOR blocks** — values unpack on the fly (`min + delta`).
//! * **RLE blocks** — the predicate runs once per run, and the verdict is
//!   painted over the run's row span.
//! * **Raw blocks** and float columns — typed loops over the resident raw
//!   values.
//!
//! Rows surviving all predicates are **materialized late**: the scan
//! copies the projection from the resident raw columns only for those rows
//! — a passing block ([`BlockVerdict::All`]) as one range, a block that
//! keeps some rows in long stretches ([`BlockVerdict::Runs`]) range by
//! range, scattered survivors ([`BlockVerdict::Rows`]) by row index — so
//! downstream operators never see encoded data or predicate-only columns.
//!
//! # One compiler, every scan
//!
//! `compile` is the one place a column predicate becomes a test for a
//! column type; the scan kernel, plan-time restriction (`restrict.rs`) and
//! the residual kernels (`kernel.rs`) all call it. A test selects exactly
//! the rows `ColPredicate::to_expr` keeps under `Expr::eval_bool`:
//!
//! * integer-backed columns compare as `i64`; against a `Float` constant
//!   the interpreter promotes the column to `f64`, and since that
//!   promotion is monotone the test is the same `i64` range, its bounds
//!   found once by binary search — a range whose bounds differ in kind
//!   keeps each bound's own comparison, and nothing int-to-int goes
//!   through `f64`;
//! * float columns compare by `f64::total_cmp` (NaN above +∞, −0.0 below
//!   0.0, integer constants promoted): as the same `i64` tests over each
//!   value's `float_key`, an order-preserving bijection;
//! * string columns compare as `&str`, `LIKE` through the matcher compiled
//!   once, `IN` over the list's strings only.
//!
//! Where the interpreter raises a type error — `LIKE` on a number, `IN`
//! over a float column, a string constant against a number — `compile`
//! returns `None`, and building the scan fails with [`ExecError::Type`].

use std::sync::OnceLock;

use bdcc_storage::{BlockEncoding, BlockStats, DataType, Datum, StoredTable};

use crate::error::{ExecError, Result};
use crate::expr::LikeMatcher;
use crate::pred::{ColPredicate, PredKind};

/// Outcome of evaluating one block (or a sub-range of one) against every
/// predicate of a scan.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockVerdict {
    /// Excluded by some predicate's MinMax value range
    /// ([`ColPredicate::value_range`]).
    Pruned,
    /// Eliminated from metadata alone — a dictionary miss or a constant
    /// block's stats — without evaluating any row.
    SkipNoRows,
    /// Every row was eliminated by per-row evaluation.
    Skip,
    /// Every row of the range survives: slice, no gather needed.
    All,
    /// The surviving absolute row indices (strictly increasing, a proper
    /// non-empty subset of the range), when they are scattered: their
    /// stretches of consecutive rows average under [`MIN_MEAN_RANGE`].
    Rows(Vec<usize>),
    /// The same survivors in longer stretches, as absolute half-open
    /// `(start, end)` row ranges, ascending and never adjacent.
    Runs(Vec<(usize, usize)>),
}

/// The mean length, in rows, of a block's stretches of survivors from
/// which they are copied range by range ([`BlockVerdict::Runs`]) rather
/// than gathered ([`BlockVerdict::Rows`]): measured on Q01's six projected
/// columns (two short strings, four floats) over 4096-row blocks, a gather
/// costs 25–35 ns a row whatever the ranges, a range copy 36 ns at a mean
/// of 2 rows, 25 at 3 and 14 at 6.
pub(crate) const MIN_MEAN_RANGE: usize = 3;

/// Compiled predicate tests over one scan's predicate list. Built once per
/// scan; [`eval_block`](Self::eval_block) runs once per block or piece of
/// one that a run touches.
pub struct ScanKernel {
    /// In the scan's predicate order.
    preds: Vec<ScanPred>,
}

struct ScanPred {
    col: usize,
    /// The value range MinMax pruning tests ([`ColPredicate::value_range`]).
    range: (Option<Datum>, Option<Datum>),
    test: ColTest,
    /// String tests: one per block, filled by the first piece of it.
    dicts: Vec<OnceLock<DictMatch>>,
}

/// Which entries of a block's dictionary pass a string test, and how many.
type DictMatch = (Vec<bool>, usize);

/// One column predicate compiled for one column type by [`compile`].
pub(crate) enum ColTest {
    /// Over the values of an integer-backed column.
    Int(IntTest),
    /// Over the [`float_key`]s of a float column's values.
    Float(IntTest),
    Str(StrTest),
}

pub(crate) enum IntTest {
    /// Inclusive bounds.
    Range { lo: i64, hi: i64 },
    /// Outside inclusive bounds `lo <= hi` (`<>`).
    Outside { lo: i64, hi: i64 },
    /// Sorted distinct list (the interpreter's `IN` set after `as_int`); an
    /// empty one matches nothing.
    In(Vec<i64>),
}

pub(crate) enum StrTest {
    Eq(String),
    Ne(String),
    Range {
        lo: Option<(String, bool)>,
        hi: Option<(String, bool)>,
    },
    /// Sorted distinct list (the interpreter's `IN` set after `as_str`).
    In(Vec<String>),
    Like(LikeMatcher),
    NotLike(LikeMatcher),
}

pub(crate) fn int_test(t: &IntTest, v: i64) -> bool {
    match t {
        IntTest::Range { lo, hi } => *lo <= v && v <= *hi,
        IntTest::Outside { lo, hi } => v < *lo || *hi < v,
        IntTest::In(set) => set.binary_search(&v).is_ok(),
    }
}

pub(crate) fn str_test(t: &StrTest, s: &str) -> bool {
    #[cfg(test)]
    tests::STR_TESTS.with(|n| n.set(n.get() + 1));
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
        StrTest::Like(m) => m.matches(s),
        StrTest::NotLike(m) => !m.matches(s),
    }
}

/// `f64::total_cmp`'s order as an `i64`: `float_key(a).cmp(&float_key(b))`
/// is `a.total_cmp(&b)`, and distinct bit patterns get distinct keys.
pub(crate) fn float_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Compile `kind` for a column of type `dt`: the test keeps exactly the
/// rows the interpreter keeps (module docs); `None` where the interpreter
/// raises a type error instead.
pub(crate) fn compile(kind: &PredKind, dt: DataType) -> Option<ColTest> {
    if dt == DataType::Str {
        return compile_str(kind).map(ColTest::Str);
    }
    let at_least = |d: &Datum, strict: bool| least_passing(d, strict, dt);
    let test = match kind {
        PredKind::Eq(d) => int_range(at_least(d, false)?, at_least(d, true)? - 1),
        PredKind::Ne(d) => match int_range(at_least(d, false)?, at_least(d, true)? - 1) {
            IntTest::Range { lo, hi } => IntTest::Outside { lo, hi },
            _ => IntTest::Range { lo: i64::MIN, hi: i64::MAX },
        },
        PredKind::Range { lo, lo_inclusive, hi, hi_inclusive } => {
            let lo = match lo {
                None => i64::MIN.into(),
                Some(d) => at_least(d, !lo_inclusive)?,
            };
            let hi = match hi {
                None => i64::MAX.into(),
                Some(d) => at_least(d, *hi_inclusive)? - 1,
            };
            int_range(lo, hi)
        }
        PredKind::In(vals) if dt != DataType::Float => {
            let mut set: Vec<i64> = vals.iter().filter_map(Datum::as_int).collect();
            set.sort_unstable();
            set.dedup();
            IntTest::In(set)
        }
        PredKind::In(_) | PredKind::Like(_) | PredKind::NotLike(_) => return None,
    };
    Some(if dt == DataType::Float { ColTest::Float(test) } else { ColTest::Int(test) })
}

/// The test `lo <= v <= hi`, matching nothing when `lo > hi`.
fn int_range(lo: i128, hi: i128) -> IntTest {
    match (i64::try_from(lo), i64::try_from(hi)) {
        (Ok(lo), Ok(hi)) if lo <= hi => IntTest::Range { lo, hi },
        _ => IntTest::In(Vec::new()),
    }
}

/// The least test value of a `dt` column that is `>= d` (`> d` when
/// `strict`) under the interpreter's comparison — the value of an
/// integer-backed column, the [`float_key`] of a float — or one past
/// `i64::MAX` when none is; `None` for a string constant.
fn least_passing(d: &Datum, strict: bool, dt: DataType) -> Option<i128> {
    let key = |f: f64| i128::from(float_key(f)) + i128::from(strict);
    Some(match (dt, d) {
        (DataType::Float, Datum::Float(f)) => key(*f),
        (DataType::Float, Datum::Int(c) | Datum::Date(c)) => key(*c as f64),
        (_, Datum::Int(c) | Datum::Date(c)) => i128::from(*c) + i128::from(strict),
        // `v as f64` is monotone in `v`: binary search for the first `v`
        // whose promotion reaches the constant's key.
        (_, Datum::Float(f)) => {
            let (k, mut lo, mut hi) = (key(*f), i128::from(i64::MIN) - 1, i128::from(i64::MAX) + 1);
            while hi - lo > 1 {
                let mid = (lo + hi).div_euclid(2);
                if i128::from(float_key(mid as i64 as f64)) >= k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        }
        (_, Datum::Str(_)) => return None,
    })
}

fn compile_str(kind: &PredKind) -> Option<StrTest> {
    let str_const = |d: &Datum| match d {
        Datum::Str(s) => Some(s.clone()),
        _ => None, // a non-string constant vs a string column is a type error
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
        PredKind::Like(p) => StrTest::Like(p.matcher()),
        PredKind::NotLike(p) => StrTest::NotLike(p.matcher()),
    })
}

/// The error for a predicate [`compile`] rejects.
pub(crate) fn ill_typed(p: &ColPredicate, dt: DataType) -> ExecError {
    ExecError::Type(format!("{:?} on {} ({} column)", p.kind, p.column, dt.name()))
}

/// What the block's MinMax stats alone decide about a test.
enum StatVerdict {
    AllTrue,
    AllFalse,
    Unknown,
}

fn stats_verdict(test: &ColTest, stats: &BlockStats) -> StatVerdict {
    let (t, min, max) = match (test, &stats.min, &stats.max) {
        (ColTest::Int(t), Datum::Int(a) | Datum::Date(a), Datum::Int(b) | Datum::Date(b)) => {
            (t, *a, *b)
        }
        (ColTest::Float(t), Datum::Float(a), Datum::Float(b)) => (t, float_key(*a), float_key(*b)),
        (ColTest::Str(t), Datum::Str(min), Datum::Str(max)) => {
            return str_stats_verdict(t, min, max)
        }
        _ => return StatVerdict::Unknown,
    };
    if min == max {
        // Constant block: one evaluation decides every row.
        return if int_test(t, min) { StatVerdict::AllTrue } else { StatVerdict::AllFalse };
    }
    match t {
        IntTest::Range { lo, hi } if *lo <= min && max <= *hi => StatVerdict::AllTrue,
        IntTest::Outside { lo, hi } if *hi < min || max < *lo => StatVerdict::AllTrue,
        _ => StatVerdict::Unknown,
    }
}

fn str_stats_verdict(t: &StrTest, min: &str, max: &str) -> StatVerdict {
    if min == max {
        return if str_test(t, min) { StatVerdict::AllTrue } else { StatVerdict::AllFalse };
    }
    match t {
        StrTest::Range { lo, hi } => {
            let lo_ok = match lo {
                None => true,
                Some((b, true)) => min >= b.as_str(),
                Some((b, false)) => min > b.as_str(),
            };
            let hi_ok = match hi {
                None => true,
                Some((b, true)) => max <= b.as_str(),
                Some((b, false)) => max < b.as_str(),
            };
            if lo_ok && hi_ok {
                StatVerdict::AllTrue
            } else {
                StatVerdict::Unknown
            }
        }
        StrTest::Ne(c) if c.as_str() < min || c.as_str() > max => StatVerdict::AllTrue,
        _ => StatVerdict::Unknown,
    }
}

/// `mask[j] &= t(values[j])`, the test dispatched once for the whole piece:
/// a range, or its complement, tests every row without a branch.
fn and_int(mask: &mut [bool], t: &IntTest, values: impl Iterator<Item = i64>) {
    let rows = mask.iter_mut().zip(values);
    match t {
        IntTest::Range { lo, hi } => rows.for_each(|(m, v)| *m &= *lo <= v && v <= *hi),
        IntTest::Outside { lo, hi } => rows.for_each(|(m, v)| *m &= v < *lo || *hi < v),
        IntTest::In(set) => rows.for_each(|(m, v)| *m = *m && set.binary_search(&v).is_ok()),
    }
}

/// [`and_int`] over the values' [`float_key`]s. Kept out of line: inlined
/// into [`ScanKernel::eval_block`], its loop made the dictionary blocks'
/// loop there 10–15 % slower (Q19's LINEITEM scan, measured).
#[inline(never)]
fn and_float(mask: &mut [bool], t: &IntTest, values: &[f64]) {
    and_int(mask, t, values.iter().map(|&v| float_key(v)))
}

impl ScanKernel {
    /// Compile the scan's predicates; a predicate the interpreter would
    /// reject for its column's type is an [`ExecError::Type`].
    pub fn new(table: &StoredTable, preds: &[(usize, ColPredicate)]) -> Result<ScanKernel> {
        let preds = preds.iter().map(|(col, p)| {
            let dt = table.schema().columns[*col].data_type;
            let test = compile(&p.kind, dt).ok_or_else(|| ill_typed(p, dt))?;
            let slots = if dt == DataType::Str { table.block_count() } else { 0 };
            let dicts = (0..slots).map(|_| OnceLock::new()).collect();
            Ok(ScanPred { col: *col, range: p.value_range(), test, dicts })
        });
        Ok(ScanKernel { preds: preds.collect::<Result<_>>()? })
    }

    /// Evaluate all predicates over rows `[lo, hi)` of `block` (whose first
    /// row is `block_start`): MinMax pruning over every predicate first,
    /// then each predicate's stats, encoding or values.
    ///
    /// The returned verdict selects exactly the rows the interpreter
    /// would keep.
    pub fn eval_block(
        &self,
        table: &StoredTable,
        block: usize,
        block_start: usize,
        lo: usize,
        hi: usize,
    ) -> Result<BlockVerdict> {
        debug_assert!(lo < hi && lo >= block_start);
        for p in &self.preds {
            let stats = &table.block_stats(p.col)?.blocks[block];
            if !stats.may_contain_range(p.range.0.as_ref(), p.range.1.as_ref()) {
                return Ok(BlockVerdict::Pruned);
            }
        }
        let n = hi - lo;
        let rows = lo - block_start..hi - block_start;
        // `None` = every row still passing (no mask allocated yet).
        let mut mask: Option<Vec<bool>> = None;
        for p in &self.preds {
            match stats_verdict(&p.test, &table.block_stats(p.col)?.blocks[block]) {
                StatVerdict::AllTrue => continue,
                StatVerdict::AllFalse => return Ok(BlockVerdict::SkipNoRows),
                StatVerdict::Unknown => {}
            }
            let encoding = table.encoding(p.col).map(|e| e.block(block));
            match (&p.test, encoding) {
                (ColTest::Str(t), Some(BlockEncoding::DictStr { dict, codes })) => {
                    // Evaluate once per distinct value and scan, then
                    // compare codes.
                    let (passes, hits) = p.dicts[block].get_or_init(|| {
                        let passes: Vec<bool> = dict.iter().map(|s| str_test(t, s)).collect();
                        let hits = passes.iter().filter(|&&m| m).count();
                        (passes, hits)
                    });
                    if *hits == 0 {
                        return Ok(BlockVerdict::SkipNoRows); // dict miss
                    }
                    if *hits == dict.len() {
                        continue;
                    }
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    let codes = codes.unpacked(rows.clone());
                    m.iter_mut().zip(codes).for_each(|(mv, c)| *mv &= passes[c as usize]);
                }
                (ColTest::Int(t), Some(BlockEncoding::ForI64 { min, packed })) => {
                    let deltas = packed.unpacked(rows.clone());
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    and_int(m, t, deltas.map(|d| min.wrapping_add(d as i64)));
                }
                (ColTest::Int(t), Some(BlockEncoding::RleI64 { values, ends })) => {
                    // One evaluation per run, painted over the overlap with
                    // the requested range (offsets are block-local).
                    let (rlo, rhi) = (rows.start, rows.end);
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
                // Raw blocks, and every float block: typed loops over the
                // resident raw values.
                (ColTest::Int(t), _) => {
                    let values = &table.column(p.col)?.as_i64()?[lo..hi];
                    and_int(mask.get_or_insert_with(|| vec![true; n]), t, values.iter().copied());
                }
                (ColTest::Float(t), _) => {
                    let values = &table.column(p.col)?.as_f64()?[lo..hi];
                    and_float(mask.get_or_insert_with(|| vec![true; n]), t, values);
                }
                (ColTest::Str(t), _) => {
                    let values = table.column(p.col)?.as_str()?;
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
                let kept = m.iter().filter(|&&k| k).count();
                // Every stretch of survivors starts and ends at a flip of
                // the mask or at an end of the range.
                let flips = m.iter().zip(&m[1..]).filter(|(a, b)| a != b).count();
                let stretches = (flips + m[0] as usize + m[n - 1] as usize) / 2;
                if kept == n {
                    BlockVerdict::All
                } else if kept >= stretches * MIN_MEAN_RANGE {
                    // A stretch is two scans: for its first row, then its end.
                    let (mut runs, mut j) = (Vec::with_capacity(stretches), 0);
                    while let Some(s) = m[j..].iter().position(|&k| k) {
                        let start = j + s;
                        j = m[start..].iter().position(|&k| !k).map_or(n, |e| start + e);
                        runs.push((lo + start, lo + j));
                    }
                    BlockVerdict::Runs(runs)
                } else {
                    // Every row is written and only a survivor advances the
                    // cursor: no branch on the scattered mask.
                    let (mut rows, mut c) = (vec![0; kept + 1], 0);
                    for (row, &k) in (lo..hi).zip(&m) {
                        rows[c] = row;
                        c += k as usize;
                    }
                    rows.truncate(kept);
                    BlockVerdict::Rows(rows)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LikePattern;
    use bdcc_storage::{Column, StoredTable};
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// String-test evaluations on this thread.
        pub(super) static STR_TESTS: Cell<usize> = const { Cell::new(0) };
    }

    fn encoded_table() -> Arc<StoredTable> {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        Arc::new(
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
            .unwrap(),
        )
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
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::SkipNoRows);
    }

    #[test]
    fn dict_eq_selects_exact_rows() {
        let t = encoded_table();
        let preds = preds_of(&t, vec![ColPredicate::eq("mode", Datum::Str("RAIL".into()))]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
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
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::All);
    }

    #[test]
    fn for_values_unpack_on_partial_overlap() {
        let t = encoded_table();
        let preds = preds_of(&t, vec![ColPredicate::ge("k", 106i64)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        // Block 0 holds k = 100..108; only rows 6, 7 survive.
        let v = kernel.eval_block(&t, 0, 0, 0, 8).unwrap();
        assert_eq!(v, BlockVerdict::Rows(vec![6, 7]));
    }

    #[test]
    fn float_constants_compile_and_ill_typed_predicates_are_type_errors() {
        let t = encoded_table();
        // A float constant against an int column promotes, as the
        // interpreter does: `k = 105.0` keeps k = 105, `k < 102.5` k ≤ 102.
        let preds = preds_of(&t, vec![ColPredicate::eq("k", 105.0f64)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        assert_eq!(kernel.eval_block(&t, 0, 0, 0, 8).unwrap(), BlockVerdict::Rows(vec![5]));
        let preds = preds_of(&t, vec![ColPredicate::lt("k", 102.5f64)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        assert_eq!(kernel.eval_block(&t, 0, 0, 0, 8).unwrap(), BlockVerdict::Runs(vec![(0, 3)]));
        // LIKE on an int column, a string constant against it: the
        // interpreter's type errors, raised when the scan is built.
        for p in
            [ColPredicate::like("k", LikePattern::Contains("x".into())), ColPredicate::eq("k", "x")]
        {
            let preds = preds_of(&t, vec![p]);
            assert!(matches!(ScanKernel::new(&t, &preds), Err(ExecError::Type(_))));
        }
        // No predicates: every block passes.
        let kernel = ScanKernel::new(&t, &[]).unwrap();
        assert_eq!(kernel.eval_block(&t, 1, 8, 9, 16).unwrap(), BlockVerdict::All);
    }

    #[test]
    fn unencoded_tables_run_the_kernel() {
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![
                ("k".into(), Column::from_i64((0..16).collect())),
                ("f".into(), Column::from_f64((0..16).map(|i| i as f64 / 4.0).collect())),
            ],
            8,
        )
        .unwrap()
        .without_encodings();
        assert!(t.encoding(0).is_none() && t.encoding(1).is_none());
        let preds = preds_of(&t, vec![ColPredicate::eq("k", 3i64)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        assert_eq!(kernel.eval_block(&t, 0, 0, 0, 8).unwrap(), BlockVerdict::Rows(vec![3]));
        // MinMax pruning is the kernel's first verdict.
        assert_eq!(kernel.eval_block(&t, 1, 8, 8, 16).unwrap(), BlockVerdict::Pruned);
        // f = k / 4 on raw float values: f > 0.5 and f <= 3.0 keeps 3..=12.
        let preds = preds_of(&t, vec![ColPredicate::gt("f", 0.5f64), ColPredicate::le("f", 3i64)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        assert_eq!(kernel.eval_block(&t, 0, 0, 0, 8).unwrap(), BlockVerdict::Runs(vec![(3, 8)]));
        assert_eq!(kernel.eval_block(&t, 1, 8, 8, 16).unwrap(), BlockVerdict::Runs(vec![(8, 13)]));
    }

    #[test]
    fn float_blocks_take_the_stats_shortcuts() {
        // Block 0 is constant −0.0, block 1 spans [1.0, 2.0].
        let f = vec![-0.0, -0.0, -0.0, -0.0, 1.0, 1.5, 2.0, 1.25];
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![("f".into(), Column::from_f64(f))],
            4,
        )
        .unwrap();
        let verdict = |p: ColPredicate, block: usize| {
            let kernel = ScanKernel::new(&t, &preds_of(&t, vec![p])).unwrap();
            kernel.eval_block(&t, block, block * 4, block * 4, block * 4 + 4).unwrap()
        };
        // −0.0 sorts below 0.0 under `total_cmp`.
        assert_eq!(verdict(ColPredicate::lt("f", 0.0f64), 0), BlockVerdict::All);
        assert_eq!(verdict(ColPredicate::eq("f", 0.0f64), 0), BlockVerdict::Pruned);
        assert_eq!(verdict(ColPredicate::ne("f", -0.0f64), 0), BlockVerdict::SkipNoRows);
        assert_eq!(verdict(ColPredicate::ne("f", 0i64), 0), BlockVerdict::All);
        assert_eq!(verdict(ColPredicate::between("f", 1i64, 2.0f64), 1), BlockVerdict::All);
        assert_eq!(verdict(ColPredicate::ne("f", 3.0f64), 1), BlockVerdict::All);
        // MinMax pruning treats bounds as inclusive; the rows decide.
        assert_eq!(verdict(ColPredicate::gt("f", 2.5f64), 1), BlockVerdict::Pruned);
        assert_eq!(verdict(ColPredicate::gt("f", 2.0f64), 1), BlockVerdict::Skip);
    }

    #[test]
    fn int_columns_against_float_constants_promote_exactly() {
        // Beyond 2^53 neighbouring integers share one `f64`: 2^53 + 1
        // promotes to 2^53, so it equals the float constant 2^53 and is
        // not above it, while as an integer it is above 2^53.
        let big = 1i64 << 53;
        let test = |kind: PredKind| match compile(&kind, DataType::Int) {
            Some(ColTest::Int(t)) => t,
            _ => panic!("{kind:?} must compile to an int test"),
        };
        let eq = test(PredKind::Eq(Datum::Float(big as f64)));
        assert!(int_test(&eq, big) && int_test(&eq, big + 1) && !int_test(&eq, big - 1));
        let above = |lo: Datum| PredKind::Range {
            lo: Some(lo),
            lo_inclusive: false,
            hi: None,
            hi_inclusive: true,
        };
        assert!(!int_test(&test(above(Datum::Float(big as f64))), big + 1));
        assert!(int_test(&test(above(Datum::Int(big))), big + 1));
        // NaN sorts above every promoted integer, ∞ too; −0.0 below 0.
        assert!(!int_test(&test(above(Datum::Float(f64::NAN))), i64::MAX));
        assert!(int_test(&test(above(Datum::Float(-0.0))), 0));
        assert!(!int_test(&test(above(Datum::Float(f64::INFINITY))), i64::MAX));
        // Mixed bounds keep their own comparisons: 2^53 < k < 2^53 + 4.0
        // (the float bound promotes k, and 2^53 + 3 rounds to 2^53 + 4).
        let mixed = test(PredKind::Range {
            lo: Some(Datum::Int(big)),
            lo_inclusive: false,
            hi: Some(Datum::Float(big as f64 + 4.0)),
            hi_inclusive: false,
        });
        let kept: Vec<i64> = (big - 2..big + 8).filter(|&v| int_test(&mixed, v)).collect();
        assert_eq!(kept, [big + 1, big + 2]);
        // IN over a float column and a string against a number are errors.
        assert!(compile(&PredKind::In(vec![Datum::Float(1.0)]), DataType::Float).is_none());
        assert!(compile(&PredKind::Eq(Datum::Str("1".into())), DataType::Float).is_none());
    }

    #[test]
    fn rle_runs_evaluate_once_per_run() {
        let mut values = vec![3i64; 1000];
        values.extend(vec![900_000i64; 1000]);
        values.extend(vec![5i64; 48]);
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![("k".into(), Column::from_i64(values))],
            4096,
        )
        .unwrap();
        assert!(matches!(
            t.encoding(0).unwrap().block(0),
            bdcc_storage::BlockEncoding::RleI64 { .. }
        ));
        let preds =
            preds_of(&t, vec![ColPredicate::in_list("k", vec![Datum::Int(5), Datum::Int(3)])]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        match kernel.eval_block(&t, 0, 0, 0, 2048).unwrap() {
            BlockVerdict::Runs(runs) => assert_eq!(runs, [(0, 1000), (2000, 2048)]),
            other => panic!("expected runs, got {other:?}"),
        }
    }

    #[test]
    fn exclusive_int_bounds_normalize() {
        let int = |kind: PredKind| match compile(&kind, DataType::Int) {
            Some(ColTest::Int(t)) => t,
            _ => panic!("{kind:?} must compile to an int test"),
        };
        let t = int(PredKind::Range {
            lo: Some(Datum::Int(4)),
            lo_inclusive: false,
            hi: Some(Datum::Int(10)),
            hi_inclusive: false,
        });
        assert!(matches!(t, IntTest::Range { lo: 5, hi: 9 }));
        // col > i64::MAX is impossible.
        let k = int(PredKind::Range {
            lo: Some(Datum::Int(i64::MAX)),
            lo_inclusive: false,
            hi: None,
            hi_inclusive: true,
        });
        assert!(!int_test(&k, i64::MAX));
        assert!(!int_test(&k, 0));
    }

    #[test]
    fn a_dictionary_is_evaluated_once_per_scan_whatever_reaches_it() {
        // 4 096 distinct comments, each twice: one dictionary block of
        // 8 192 rows.
        let comment = |i: usize| format!("c{:04} {}", i % 4096, ["ab", "ba"][i % 4096 % 2]);
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![("c".into(), Column::from_strings((0..8192).map(comment).collect()))],
            8192,
        )
        .unwrap();
        match t.encoding(0).map(|e| e.block(0)) {
            Some(BlockEncoding::DictStr { dict, .. }) => assert_eq!(dict.len(), 4096),
            _ => panic!("the block must be dictionary-encoded"),
        }
        let a_then_b = LikePattern::ContainsSeq("a".into(), "b".into());
        let preds = preds_of(&t, vec![ColPredicate::not_like("c", a_then_b)]);
        let kernel = ScanKernel::new(&t, &preds).unwrap();
        STR_TESTS.with(|n| n.set(0));
        // 64 one-row runs into the block, as 64 selected groups would read
        // it: every other comment contains "a…b".
        for row in (0..64).map(|k| k * 127) {
            let want = if row % 2 == 0 { BlockVerdict::Skip } else { BlockVerdict::All };
            assert_eq!(kernel.eval_block(&t, 0, 0, row, row + 1).unwrap(), want, "row {row}");
        }
        let evaluated = STR_TESTS.with(Cell::get);
        assert!(evaluated <= 4096, "{evaluated} evaluations for one 4 096-entry dictionary");
    }
}
