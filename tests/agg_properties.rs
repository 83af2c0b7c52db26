//! Property tests of the aggregation paths: random batches × random group
//! keys × every aggregate kind (Sum/Avg/Min/Max/Count/CountDistinct,
//! including the Neumaier-compensated float Sum/Avg), checked against a
//! naive HashMap reference, with three-way equivalence across execution
//! strategies:
//!
//! * **serial** (`HashAggregate`) must match the naive reference — values
//!   and first-seen group order;
//! * **radix-partitioned** (`ParallelAggregate` under an active broker —
//!   `SpillMode::Force`, so every partition also round-trips a spill
//!   file) must be **bit-identical** to serial, floats included — each
//!   group's rows fold in serial stream order inside its one partition;
//! * **parallel-partial** (no broker) must match serial exactly on group
//!   keys, group order and integer aggregates, and to ~1 ulp on
//!   compensated float sums (partials associate differently).
//!
//! Thread counts {1, 2, 4} and tiny morsels (`BDCC_MORSEL_ROWS`, default
//! 16, over 8-row storage blocks) force many-morsel fan-outs on
//! laptop-sized inputs.
//!
//! The second half drives the operators over hand-built batch streams
//! against a second naive reference over `Datum` rows: float keys grouped
//! by bit pattern, `Date` keys and string / date extrema keeping their
//! types, empty batches, the global zero row, streaming and sandwich
//! aggregation against hash aggregation on runs straddling batch
//! boundaries, and integer `SUM` overflow on every path.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::agg::{HashAggregate, SandwichAggregate, StreamingAggregate};
use bdcc::exec::ops::scan::{Scan, ScanBlueprint};
use bdcc::exec::ops::{collect, BoxedOp, Operator};
use bdcc::exec::parallel::{FragmentBlueprint, ParallelAggregate};
use bdcc::exec::{
    AggFunc, AggSpec, ExecError, Expr, MemoryBroker, MemoryTracker, ParallelConfig, SpillMode,
};
use bdcc::storage::{Column, DataType, Datum, StoredTable};
use bdcc_storage::IoTracker;

/// Morsel size under test (`BDCC_MORSEL_ROWS`, default 16): small enough
/// that even a 30-row random input splits into several morsels.
fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// One random input row: integer group key, string-group selector, and an
/// integer measure (the float measure derives from it).
type Row = (i64, i64, i64);

/// The float measure of a row: an inexact decimal scale so float sums
/// actually exercise rounding (and the compensation), plus sign changes
/// for cancellation.
fn fval(v: i64) -> f64 {
    v as f64 * 0.1 - 0.55
}

fn build_table(rows: &[Row]) -> Arc<StoredTable> {
    let g: Vec<i64> = rows.iter().map(|r| r.0).collect();
    let s: Vec<String> = rows.iter().map(|r| format!("s{}", r.1)).collect();
    let v: Vec<i64> = rows.iter().map(|r| r.2).collect();
    let f: Vec<f64> = rows.iter().map(|r| fval(r.2)).collect();
    Arc::new(
        StoredTable::from_columns_with_block_rows(
            "t",
            vec![
                ("g".into(), Column::from_i64(g)),
                ("s".into(), Column::from_strings(s)),
                ("v".into(), Column::from_i64(v)),
                ("f".into(), Column::from_f64(f)),
            ],
            8, // tiny MinMax blocks → many morsels at tiny morsel sizes
        )
        .unwrap(),
    )
}

/// Every aggregate kind over the two measures.
fn all_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, Expr::col("v"), "sum_v"),
        AggSpec::new(AggFunc::Sum, Expr::col("f"), "sum_f"),
        AggSpec::new(AggFunc::Avg, Expr::col("f"), "avg_f"),
        AggSpec::new(AggFunc::Min, Expr::col("v"), "min_v"),
        AggSpec::new(AggFunc::Max, Expr::col("f"), "max_f"),
        AggSpec::new(AggFunc::Count, Expr::lit(1), "cnt"),
        AggSpec::new(AggFunc::CountDistinct, Expr::col("v"), "nd_v"),
    ]
}

const COLS: [&str; 4] = ["g", "s", "v", "f"];

fn serial(t: &Arc<StoredTable>, group_by: &[&str]) -> Batch {
    let scan: BoxedOp =
        Box::new(Scan::blocks(Arc::clone(t), IoTracker::new(), &COLS, vec![]).unwrap());
    collect(Box::new(HashAggregate::new(scan, group_by, all_aggs(), MemoryTracker::new()).unwrap()))
        .unwrap()
}

fn parallel(t: &Arc<StoredTable>, group_by: &[&str], threads: usize, radix: bool) -> Batch {
    try_parallel(t, &COLS, group_by, all_aggs(), threads, radix).unwrap()
}

fn try_parallel(
    t: &Arc<StoredTable>,
    cols: &[&str],
    group_by: &[&str],
    aggs: Vec<AggSpec>,
    threads: usize,
    radix: bool,
) -> Result<Batch, ExecError> {
    let bp = ScanBlueprint::blocks(Arc::clone(t), cols, vec![])?;
    let cfg = ParallelConfig { threads, morsel_rows: test_morsel_rows() };
    let tracker = MemoryTracker::new();
    // The operator's one strategy rule: an active broker means radix.
    let broker = if radix {
        MemoryBroker::with_mode(SpillMode::Force, &tracker, None)
    } else {
        MemoryBroker::none()
    };
    collect(Box::new(
        ParallelAggregate::new(
            FragmentBlueprint { scan: bp, steps: vec![] },
            group_by,
            aggs,
            IoTracker::new(),
            cfg,
            tracker,
        )
        .unwrap()
        .with_broker(broker),
    ))
}

/// Naive reference state for one group.
#[derive(Default)]
struct RefState {
    sum_v: i64,
    sum_f: f64,
    n: u64,
    min_v: Option<i64>,
    max_f: Option<f64>,
    distinct: HashSet<i64>,
}

/// Naive reference: plain HashMap + first-seen order, scalar arithmetic.
fn reference<K: std::hash::Hash + Eq + Clone>(
    rows: &[Row],
    key_of: impl Fn(&Row) -> K,
) -> (Vec<K>, HashMap<K, RefState>) {
    let mut order = Vec::new();
    let mut states: HashMap<K, RefState> = HashMap::new();
    for r in rows {
        let k = key_of(r);
        let st = states.entry(k.clone()).or_insert_with(|| {
            order.push(k.clone());
            RefState::default()
        });
        st.sum_v += r.2;
        st.sum_f += fval(r.2);
        st.n += 1;
        st.min_v = Some(st.min_v.map_or(r.2, |m| m.min(r.2)));
        st.max_f = Some(st.max_f.map_or(fval(r.2), |m: f64| m.max(fval(r.2))));
        st.distinct.insert(r.2);
    }
    (order, states)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Assert `got` (group key columns first, then `all_aggs()` outputs)
/// matches the naive reference values in first-seen order.
fn assert_matches_reference<K: std::hash::Hash + Eq>(
    got: &Batch,
    key_cols: usize,
    order: &[K],
    states: &HashMap<K, RefState>,
    row_key: impl Fn(&Batch, usize) -> K,
) {
    assert_eq!(got.rows(), order.len(), "group count");
    let a = key_cols; // first aggregate column
    for (i, k) in order.iter().enumerate() {
        assert!(row_key(got, i) == *k, "group {i} out of first-seen order");
        let st = &states[k];
        assert_eq!(got.columns[a].as_i64().unwrap()[i], st.sum_v, "sum_v of group {i}");
        assert!(close(got.columns[a + 1].as_f64().unwrap()[i], st.sum_f), "sum_f of group {i}");
        assert!(
            close(got.columns[a + 2].as_f64().unwrap()[i], st.sum_f / st.n as f64),
            "avg_f of group {i}"
        );
        assert_eq!(got.columns[a + 3].as_i64().unwrap()[i], st.min_v.unwrap(), "min_v");
        assert_eq!(got.columns[a + 4].as_f64().unwrap()[i], st.max_f.unwrap(), "max_f");
        assert_eq!(got.columns[a + 5].as_i64().unwrap()[i], st.n as i64, "cnt");
        assert_eq!(got.columns[a + 6].as_i64().unwrap()[i], st.distinct.len() as i64, "nd_v");
    }
}

/// Partial-merge outputs may differ from serial by ~1 ulp on the
/// compensated float sum columns (different association); everything else
/// — group keys, group order, integer aggregates, min/max — must be
/// exactly equal.
fn assert_equivalent_modulo_float_ulp(serial: &Batch, partial: &Batch) {
    assert_eq!(serial.rows(), partial.rows());
    assert_eq!(serial.columns.len(), partial.columns.len());
    for (c, (s, p)) in serial.columns.iter().zip(&partial.columns).enumerate() {
        match (s.as_f64(), p.as_f64()) {
            (Ok(sv), Ok(pv)) => {
                for (i, (a, b)) in sv.iter().zip(pv).enumerate() {
                    assert!(close(*a, *b), "col {c} row {i}: {a} vs {b}");
                }
            }
            _ => assert_eq!(s, p, "col {c} must match exactly"),
        }
    }
}

proptest! {
    /// Integer group keys: serial == naive reference; radix is
    /// bit-identical to serial; parallel-partial matches modulo float
    /// association — across threads {1, 2, 4}.
    #[test]
    fn aggregation_strategies_agree_on_int_keys(
        rows in prop::collection::vec((0i64..15, 0i64..4, -50i64..50), 1..200),
    ) {
        let t = build_table(&rows);
        let s = serial(&t, &["g"]);
        let (order, states) = reference(&rows, |r| r.0);
        assert_matches_reference(&s, 1, &order, &states, |b, i| {
            b.columns[0].as_i64().unwrap()[i]
        });
        for threads in [1usize, 2, 4] {
            let radix = parallel(&t, &["g"], threads, true);
            prop_assert_eq!(&s, &radix, "radix must be bit-identical ({} threads)", threads);
            let partial = parallel(&t, &["g"], threads, false);
            assert_equivalent_modulo_float_ulp(&s, &partial);
        }
    }

    /// Composite (string, int) group keys route through the shared key
    /// codec; same three-way equivalence.
    #[test]
    fn aggregation_strategies_agree_on_composite_keys(
        rows in prop::collection::vec((0i64..6, 0i64..5, -50i64..50), 1..160),
        threads in 2usize..5,
    ) {
        let t = build_table(&rows);
        let s = serial(&t, &["s", "g"]);
        let (order, states) = reference(&rows, |r| (format!("s{}", r.1), r.0));
        assert_matches_reference(&s, 2, &order, &states, |b, i| {
            (
                b.columns[0].as_str().unwrap()[i].to_string(),
                b.columns[1].as_i64().unwrap()[i],
            )
        });
        let radix = parallel(&t, &["s", "g"], threads, true);
        prop_assert_eq!(&s, &radix, "radix must be bit-identical ({} threads)", threads);
        let partial = parallel(&t, &["s", "g"], threads, false);
        assert_equivalent_modulo_float_ulp(&s, &partial);
    }

    /// Degenerate key distributions: a single group (everything collides
    /// into one partition) and all-distinct groups (per-row groups, the
    /// radix sweet spot).
    #[test]
    fn degenerate_group_distributions(
        n in 1usize..120,
        measure in -30i64..30,
        distinct in any::<bool>(),
        threads in 2usize..5,
    ) {
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| (if distinct { i } else { 7 }, i % 3, measure + i % 11))
            .collect();
        let t = build_table(&rows);
        let s = serial(&t, &["g"]);
        let radix = parallel(&t, &["g"], threads, true);
        prop_assert_eq!(&s, &radix);
        let partial = parallel(&t, &["g"], threads, false);
        assert_equivalent_modulo_float_ulp(&s, &partial);
    }
}

// ---------------------------------------------------------------------
// Operators over hand-built batch streams, against a naive reference over
// `Datum` rows.
// ---------------------------------------------------------------------

/// Named columns of one logical input.
type Cols = Vec<(&'static str, Column)>;

/// A source replaying prepared batches.
struct Batches {
    schema: OpSchema,
    batches: std::vec::IntoIter<Batch>,
}

impl Operator for Batches {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }
    fn next(&mut self) -> bdcc::exec::Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

/// `cols` cut into batches of `chunk` rows, with an empty batch after each
/// batch whose index is in `empty_after`.
fn source(cols: &Cols, chunk: usize, empty_after: &[usize]) -> BoxedOp {
    let schema: OpSchema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
    let cut = |a: usize, b: usize| Batch::new(cols.iter().map(|(_, c)| c.slice(a, b)).collect());
    let rows = cols[0].1.len();
    let mut batches = Vec::new();
    for (i, start) in (0..rows).step_by(chunk).enumerate() {
        batches.push(cut(start, (start + chunk).min(rows)));
        if empty_after.contains(&i) {
            batches.push(cut(0, 0));
        }
    }
    Box::new(Batches { schema, batches: batches.into_iter() })
}

fn hash_agg(input: BoxedOp, group_by: &[&str], aggs: Vec<AggSpec>) -> Batch {
    collect(Box::new(HashAggregate::new(input, group_by, aggs, MemoryTracker::new()).unwrap()))
        .unwrap()
}

/// A float datum compares by bit pattern (NaN keys) or closely (sums);
/// everything else exactly, logical type included.
fn same(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Float(x), Datum::Float(y)) => x.to_bits() == y.to_bits() || close(*x, *y),
        _ => a == b,
    }
}

/// Naive aggregation of `cols` grouped by the columns `keys`, computing
/// `(function, input column)` per entry of `aggs`: one `Datum` row per
/// group — keys then aggregates — in first-seen order. Float keys group by
/// bit pattern; sums are plain scalar sums.
fn naive(cols: &Cols, keys: &[usize], aggs: &[(AggFunc, usize)]) -> Vec<Vec<Datum>> {
    #[derive(Default)]
    struct St {
        sum_i: i64,
        sum_f: f64,
        n: u64,
        min: Option<Datum>,
        max: Option<Datum>,
        seen: HashSet<i64>,
    }
    let ident = |d: &Datum| match d {
        Datum::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let mut order: Vec<Vec<Datum>> = Vec::new();
    let mut states: HashMap<Vec<String>, Vec<St>> = HashMap::new();
    for row in 0..cols[0].1.len() {
        let key: Vec<Datum> = keys.iter().map(|&k| cols[k].1.datum(row)).collect();
        let sts = states.entry(key.iter().map(ident).collect()).or_insert_with(|| {
            order.push(key.clone());
            aggs.iter().map(|_| St::default()).collect()
        });
        for (st, &(_, c)) in sts.iter_mut().zip(aggs) {
            let v = cols[c].1.datum(row);
            match &v {
                Datum::Int(i) | Datum::Date(i) => {
                    st.sum_i += i;
                    st.sum_f += *i as f64;
                    st.seen.insert(*i);
                }
                Datum::Float(f) => st.sum_f += f,
                Datum::Str(_) => {}
            }
            st.n += 1;
            if st.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                st.min = Some(v.clone());
            }
            if st.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                st.max = Some(v);
            }
        }
    }
    order
        .into_iter()
        .map(|key| {
            let sts = &states[&key.iter().map(ident).collect::<Vec<_>>()];
            let outs = sts.iter().zip(aggs).map(|(st, &(f, c))| match f {
                AggFunc::Sum if cols[c].1.data_type() == DataType::Float => Datum::Float(st.sum_f),
                AggFunc::Sum => Datum::Int(st.sum_i),
                AggFunc::Avg => Datum::Float(st.sum_f / st.n as f64),
                AggFunc::Min => st.min.clone().unwrap(),
                AggFunc::Max => st.max.clone().unwrap(),
                AggFunc::Count => Datum::Int(st.n as i64),
                AggFunc::CountDistinct => Datum::Int(st.seen.len() as i64),
            });
            key.iter().cloned().chain(outs).collect()
        })
        .collect()
}

/// `HashAggregate` over `cols` at several batch sizes must match the naive
/// reference row for row (first-seen order) and keep the declared types.
fn assert_hash_matches_naive(cols: &Cols, keys: &[usize], aggs: &[(AggFunc, usize)]) -> Batch {
    let group_by: Vec<&str> = keys.iter().map(|&k| cols[k].0).collect();
    let specs: Vec<AggSpec> = aggs
        .iter()
        .enumerate()
        .map(|(i, &(f, c))| AggSpec::new(f, Expr::col(cols[c].0), &format!("a{i}")))
        .collect();
    let want = naive(cols, keys, aggs);
    let mut first: Option<Batch> = None;
    for chunk in [1, 3, 4096] {
        let got = hash_agg(source(cols, chunk, &[]), &group_by, specs.clone());
        assert_eq!(got.rows(), want.len(), "group count (chunk {chunk})");
        for (i, w) in want.iter().enumerate() {
            let g = got.row(i);
            assert!(
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)),
                "row {i} (chunk {chunk}): got {g:?}, want {w:?}"
            );
        }
        // Batch boundaries never change a bit of the result.
        if let Some(f) = &first {
            assert_eq!(format!("{f:?}"), format!("{got:?}"), "chunk {chunk}");
        }
        first.get_or_insert(got);
    }
    first.unwrap()
}

#[test]
fn float_keys_group_by_bit_pattern() {
    let nan_a = f64::from_bits(0x7ff8_0000_0000_0000);
    let nan_b = f64::from_bits(0x7ff8_0000_0000_0001);
    let k = vec![0.0, -0.0, nan_a, 1.5, nan_b, 0.0, nan_a, -0.0, nan_b, 1.5, 0.0];
    let v: Vec<i64> = (1..=k.len() as i64).collect();
    let cols: Cols = vec![
        ("k", Column::from_f64(k)),
        ("v", Column::from_i64(v.clone())),
        ("f", Column::from_f64(v.iter().map(|&v| fval(v)).collect())),
    ];
    let out = assert_hash_matches_naive(
        &cols,
        &[0],
        &[(AggFunc::Sum, 1), (AggFunc::Sum, 2), (AggFunc::Count, 1), (AggFunc::Max, 2)],
    );
    // 0.0, -0.0, two NaN payloads and 1.5: five groups, keys bit-exact.
    let bits: Vec<u64> = out.columns[0].as_f64().unwrap().iter().map(|f| f.to_bits()).collect();
    let want =
        [0.0f64.to_bits(), (-0.0f64).to_bits(), nan_a.to_bits(), 1.5f64.to_bits(), nan_b.to_bits()];
    assert_eq!(bits, want);
}

#[test]
fn date_keys_and_typed_extrema_keep_their_types() {
    let cols: Cols = vec![
        ("d", Column::from_dates(vec![9131, 9000, 9131, -5, 9000, 9131])),
        (
            "s",
            Column::from_strings(
                ["pear", "apple", "fig", "kiwi", "", "zebra"].map(String::from).to_vec(),
            ),
        ),
        ("ship", Column::from_dates(vec![3, 1, 2, 8, 7, -1])),
        ("v", Column::from_i64(vec![4, 5, 6, 7, 8, 9])),
    ];
    let aggs = [
        (AggFunc::Min, 1),
        (AggFunc::Max, 1),
        (AggFunc::Min, 2),
        (AggFunc::Max, 2),
        (AggFunc::Sum, 2),
        (AggFunc::CountDistinct, 3),
    ];
    let out = assert_hash_matches_naive(&cols, &[0], &aggs);
    let types: Vec<DataType> = out.columns.iter().map(|c| c.data_type()).collect();
    use DataType::*;
    assert_eq!(types, [Date, Str, Str, Date, Date, Int, Int]);
    // Composite (string, date) key, extrema over the other columns.
    assert_hash_matches_naive(&cols, &[1, 0], &[(AggFunc::Max, 2), (AggFunc::Min, 3)]);
}

#[test]
fn empty_batches_mid_stream_change_nothing() {
    let rows: Vec<Row> = (0..40).map(|i| (i % 5, i % 3, i - 20)).collect();
    let cols: Cols = vec![
        ("g", Column::from_i64(rows.iter().map(|r| r.0).collect())),
        ("s", Column::from_strings(rows.iter().map(|r| format!("s{}", r.1)).collect())),
        ("v", Column::from_i64(rows.iter().map(|r| r.2).collect())),
        ("f", Column::from_f64(rows.iter().map(|r| fval(r.2)).collect())),
    ];
    for group_by in [vec!["g"], vec!["s", "g"], vec![]] {
        let plain = hash_agg(source(&cols, 7, &[]), &group_by, all_aggs());
        let holes = hash_agg(source(&cols, 7, &[0, 2, 5]), &group_by, all_aggs());
        assert_eq!(plain, holes, "group by {group_by:?}");
    }
}

#[test]
fn global_aggregate_over_empty_input_yields_the_zero_row() {
    let cols: Cols = vec![
        ("v", Column::from_i64(vec![])),
        ("f", Column::from_f64(vec![])),
        ("s", Column::from_strings(vec![])),
        ("d", Column::from_dates(vec![])),
    ];
    let aggs = || {
        let mut aggs = all_aggs();
        aggs.push(AggSpec::new(AggFunc::Max, Expr::col("s"), "max_s"));
        aggs.push(AggSpec::new(AggFunc::Min, Expr::col("d"), "min_d"));
        aggs
    };
    use Datum::*;
    let zero = vec![
        Int(0),
        Float(0.0),
        Float(0.0),
        Int(0),
        Float(0.0),
        Int(0),
        Int(0),
        Str(String::new()),
        Date(0),
    ];
    // No batch at all, and one empty batch.
    let schema: OpSchema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
    let empty = Batch::new(cols.iter().map(|(_, c)| c.clone()).collect());
    for batches in [vec![], vec![empty]] {
        let input = Batches { schema: schema.clone(), batches: batches.into_iter() };
        let out = hash_agg(Box::new(input), &[], aggs());
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), zero);
    }
    // A grouped aggregate over empty input has no groups.
    assert_eq!(hash_agg(source(&cols, 4, &[]), &["d"], aggs()).rows(), 0);
}

proptest! {
    /// Sorted input whose runs straddle batch boundaries: streaming
    /// aggregation is bit-identical to hash aggregation at every batch
    /// size, on an integer key and on a composite (string, float) key.
    #[test]
    fn streaming_matches_hash_on_sorted_input(
        runs in prop::collection::vec((1usize..9, -40i64..40), 1..40),
    ) {
        let mut k = Vec::new();
        let mut v = Vec::new();
        for (key, &(len, measure)) in runs.iter().enumerate() {
            for j in 0..len {
                k.push(key as i64);
                v.push(measure + j as i64);
            }
        }
        let cols: Cols = vec![
            ("g", Column::from_i64(k.clone())),
            ("s", Column::from_strings(k.iter().map(|k| format!("s{:03}", k / 3)).collect())),
            ("x", Column::from_f64(k.iter().map(|&k| if k % 3 == 0 { -0.0 } else { k as f64 }).collect())),
            ("v", Column::from_i64(v.clone())),
            ("f", Column::from_f64(v.iter().map(|&v| fval(v)).collect())),
        ];
        for group_by in [vec!["g"], vec!["s", "x"]] {
            let want = hash_agg(source(&cols, 4096, &[]), &group_by, all_aggs());
            for chunk in [1, 2, 3, 7, 64, 4096] {
                let input = source(&cols, chunk, &[1]);
                let got = collect(Box::new(
                    StreamingAggregate::new(input, &group_by, all_aggs()).unwrap(),
                ))
                .unwrap();
                prop_assert_eq!(&want, &got, "group by {:?}, batches of {}", &group_by, chunk);
            }
        }
    }

    /// Pre-grouped input (contiguous partitions, keys unordered inside
    /// them) whose partitions straddle batch boundaries: sandwich
    /// aggregation is bit-identical to hash aggregation at every batch
    /// size and never holds more groups than the largest partition has.
    #[test]
    fn sandwich_matches_hash_on_pregrouped_input(
        parts in prop::collection::vec((1usize..20, 1i64..6), 1..16),
        seed in 0i64..1000,
    ) {
        let mut p = Vec::new();
        let mut k = Vec::new();
        let mut v = Vec::new();
        for (part, &(len, distinct)) in parts.iter().enumerate() {
            for j in 0..len as i64 {
                p.push(part as i64);
                // The key determines its partition.
                k.push(part as i64 * 10 + (j * 7 + seed) % distinct);
                v.push(seed % 17 + j - 8);
            }
        }
        let cols: Cols = vec![
            ("g", Column::from_i64(k)),
            ("v", Column::from_i64(v.clone())),
            ("f", Column::from_f64(v.iter().map(|&v| fval(v)).collect())),
            ("__gk", Column::from_i64(p)),
        ];
        let want = hash_agg(source(&cols, 4096, &[]), &["g"], all_aggs());
        let largest = parts.iter().map(|&(len, distinct)| len.min(distinct as usize)).max().unwrap();
        for chunk in [1, 2, 5, 16, 4096] {
            let mut op = SandwichAggregate::new(
                source(&cols, chunk, &[0]),
                &["g"],
                all_aggs(),
                vec![3],
                MemoryTracker::new(),
            )
            .unwrap();
            let mut got: Option<Batch> = None;
            while let Some(b) = op.next().unwrap() {
                match &mut got {
                    Some(g) => g.append(&b).unwrap(),
                    None => got = Some(b),
                }
            }
            prop_assert_eq!(Some(&want), got.as_ref(), "batches of {}", chunk);
            prop_assert_eq!(op.max_partition_groups, largest, "batches of {}", chunk);
        }
    }
}

/// Integer `SUM` leaving the 64-bit range is a typed error — not a panic
/// (debug) or a wrapped value (release) — on the serial path, in the
/// partial-merge fold (no single morsel overflows; the merge does) and in
/// a radix partition; a sum that lands exactly on the bound is fine.
#[test]
fn integer_sum_overflow_is_a_typed_error_on_every_path() {
    let table = |first: i64, last: i64| {
        // 33 rows of one group over 8-row blocks: three or more morsels,
        // the extremes in the first and the last.
        let mut v = vec![0i64; 33];
        v[0] = first;
        v[32] = last;
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("g".into(), Column::from_i64(vec![7; 33])),
                    ("v".into(), Column::from_i64(v)),
                ],
                8,
            )
            .unwrap(),
        )
    };
    let aggs = || vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")];
    let run = |t: &Arc<StoredTable>, path: usize| -> Result<Batch, ExecError> {
        match path {
            0 => {
                let scan: BoxedOp = Box::new(
                    Scan::blocks(Arc::clone(t), IoTracker::new(), &["g", "v"], vec![]).unwrap(),
                );
                collect(Box::new(
                    HashAggregate::new(scan, &["g"], aggs(), MemoryTracker::new()).unwrap(),
                ))
            }
            1 => try_parallel(t, &["g", "v"], &["g"], aggs(), 2, false),
            _ => try_parallel(t, &["g", "v"], &["g"], aggs(), 2, true),
        }
    };
    for path in 0..3 {
        for (first, last) in [(i64::MAX, 1), (i64::MIN, -1)] {
            let err = run(&table(first, last), path).expect_err("sum must overflow");
            assert!(matches!(err, ExecError::Overflow(_)), "path {path}: {err:?}");
        }
        let out = run(&table(i64::MAX - 1, 1), path).unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap(), &[i64::MAX], "path {path}");
    }
}
