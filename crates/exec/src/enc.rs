//! Compression-aware predicate kernels for scans.
//!
//! When a table carries block encodings (see `bdcc_storage::encode`), a
//! [`ScanKernel`] evaluates the scan's sargable predicates directly on the
//! encoded blocks instead of slicing raw columns first. The one leaf
//! [`Scan`](crate::ops::scan::Scan) calls it for every statistics block —
//! or piece of one — that a run touches and MinMax pruning leaves:
//!
//! * **Dictionary blocks** — the predicate is evaluated once per distinct
//!   dictionary entry and scan, however many runs or morsels read pieces of
//!   the block; rows then compare bit-packed codes against the match set.
//!   A constant absent from a block's dict kills the whole block without
//!   touching a single row (the *dict-miss* skip).
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
//! — a passing block ([`BlockVerdict::All`]) as one range, a block that
//! keeps some rows in long stretches ([`BlockVerdict::Runs`]) range by
//! range, scattered survivors ([`BlockVerdict::Rows`]) by row index — so
//! downstream operators never see encoded data and results are
//! byte-identical to the raw path.
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

use std::sync::OnceLock;

use std::ops::Range;

use bdcc_storage::{BlockEncoding, BlockStats, DataType, Datum, PackedInts, StoredTable};

use crate::error::Result;
use crate::expr::LikeMatcher;
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
/// scan; [`eval_block`](Self::eval_block) runs once per surviving block or
/// piece of one.
pub struct ScanKernel {
    /// `(column index, compiled test)` in the scan's predicate order.
    preds: Vec<(usize, PredTest)>,
    /// Per string predicate, one per block, filled by the first piece of it.
    dicts: Vec<Vec<OnceLock<DictMatch>>>,
}

/// Which entries of a block's dictionary pass a string test, and how many.
type DictMatch = (Vec<bool>, usize);

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
    Like(LikeMatcher),
    NotLike(LikeMatcher),
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
        PredKind::Like(p) => StrTest::Like(p.matcher()),
        PredKind::NotLike(p) => StrTest::NotLike(p.matcher()),
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
        let mut dicts = Vec::with_capacity(preds.len());
        for (col, p) in preds {
            let (test, slots) = match table.schema().columns[*col].data_type {
                DataType::Int | DataType::Date => (PredTest::Int(compile_int(&p.kind)?), 0),
                DataType::Str => (PredTest::Str(compile_str(&p.kind)?), table.block_count()),
                DataType::Float => return None,
            };
            compiled.push((*col, test));
            dicts.push((0..slots).map(|_| OnceLock::new()).collect());
        }
        Some(ScanKernel { preds: compiled, dicts })
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
        for ((col, test), dicts) in self.preds.iter().zip(&self.dicts) {
            match stats_verdict(test, &table.block_stats(*col)?.blocks[block]) {
                StatVerdict::AllTrue => continue,
                StatVerdict::AllFalse => return Ok(BlockVerdict::SkipNoRows),
                StatVerdict::Unknown => {}
            }
            let encoding = table.encoding(*col).map(|e| e.block(block));
            match (test, encoding) {
                (PredTest::Str(t), Some(BlockEncoding::DictStr { dict, codes })) => {
                    // Evaluate once per distinct value and scan, then
                    // compare codes.
                    let (passes, hits) = dicts[block].get_or_init(|| {
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
                    let codes = unpacked(codes, lo - block_start..hi - block_start);
                    m.iter_mut().zip(codes).for_each(|(mv, c)| *mv &= passes[c as usize]);
                }
                (PredTest::Int(t), Some(BlockEncoding::ForI64 { min, packed })) => {
                    let m = mask.get_or_insert_with(|| vec![true; n]);
                    let deltas = unpacked(packed, lo - block_start..hi - block_start);
                    let values = deltas.map(|d| min.wrapping_add(d as i64));
                    match t {
                        // A range tests every row without a branch.
                        IntTest::Range { lo, hi } => {
                            m.iter_mut().zip(values).for_each(|(mv, v)| *mv &= *lo <= v && v <= *hi)
                        }
                        _ => {
                            m.iter_mut().zip(values).for_each(|(mv, v)| *mv = *mv && int_test(t, v))
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

/// Values `rows` of a bit-packed vector (frame-of-reference deltas,
/// dictionary codes), in order, unpacked with the width and mask hoisted
/// and no branch on whether a value straddles two words.
fn unpacked(packed: &PackedInts, rows: Range<usize>) -> impl Iterator<Item = u64> + '_ {
    let (width, words) = (packed.width() as usize, packed.words());
    let mask = (1u64 << width) - 1;
    rows.map(move |i| {
        let (word, off) = (i * width / 64, i * width % 64);
        let next = words.get(word + 1).copied().unwrap_or(0) as u128;
        let pair = words.get(word).copied().unwrap_or(0) as u128 | next << 64;
        (pair >> off) as u64 & mask
    })
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
            BlockVerdict::Runs(runs) => assert_eq!(runs, [(0, 1000), (2000, 2048)]),
            other => panic!("expected runs, got {other:?}"),
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

    #[test]
    fn a_dictionary_is_evaluated_once_per_scan_whatever_reaches_it() {
        // 4 096 distinct comments, each twice: one dictionary block of
        // 8 192 rows.
        let comment = |i: usize| format!("c{:04} {}", i % 4096, ["ab", "ba"][i % 4096 % 2]);
        let t = build_with_encoding(true, || {
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![("c".into(), Column::from_strings((0..8192).map(comment).collect()))],
                8192,
            )
            .unwrap()
        });
        match t.encoding(0).map(|e| e.block(0)) {
            Some(BlockEncoding::DictStr { dict, .. }) => assert_eq!(dict.len(), 4096),
            _ => panic!("the block must be dictionary-encoded"),
        }
        let a_then_b = LikePattern::ContainsSeq("a".into(), "b".into());
        let preds = preds_of(&t, vec![ColPredicate::not_like("c", a_then_b)]);
        let kernel = ScanKernel::try_new(&t, &preds).expect("supported");
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
