//! Property tests of the aggregation paths: random batches × random group
//! keys × every aggregate kind (Sum/Avg/Min/Max/Count/CountDistinct,
//! including the Neumaier-compensated float Sum/Avg), checked against a
//! naive HashMap reference, with three-way equivalence across execution
//! strategies:
//!
//! * **serial** (`HashAggregate`) must match the naive reference — values
//!   and first-seen group order;
//! * **spilled** (`HashAggregate` under `SpillMode::Force`, so the
//!   table takes no group and every row round-trips a spill file) must be
//!   **bit-identical** to serial, floats included — each group's rows fold
//!   in serial stream order inside its one leaf;
//! * **parallel-partial** (`ParallelAggregate`) must match serial exactly
//!   on group keys, group order and integer aggregates, and to ~1 ulp on
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
//! boundaries, and integer `SUM` and input-arithmetic overflow on every
//! path.
//!
//! The last part checks the group table against an oracle that shares no
//! code with it — a row-at-a-time `BTreeMap` fold — over the keys its key
//! words find hardest, serially, through `ParallelAggregate`'s merge and
//! under `SpillMode::Force`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::agg::HashAggregate;
use bdcc::exec::ops::scan::{Scan, ScanBlueprint};
use bdcc::exec::ops::{collect, BoxedOp, OpEnv, Operator};
use bdcc::exec::parallel::{FragmentBlueprint, ParallelAggregate};
use bdcc::exec::{
    AggFunc, AggSpec, ExecError, Expr, Governor, MemoryTracker, ParallelConfig, SpillMode,
};
use bdcc::storage::{Column, DataType, Datum, StoredTable};
use bdcc_storage::IoTracker;

/// Morsel size under test (`BDCC_MORSEL_ROWS`, default 16): small enough
/// that even a 30-row random input splits into several morsels.
fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// An unprofiled operator's environment under spill `mode` and `budget`.
fn env_under(mode: SpillMode, budget: Option<u64>) -> OpEnv {
    let tracker = MemoryTracker::new();
    let mut governor = Governor::none();
    governor.set_spill(mode);
    if let Some(bytes) = budget {
        governor.set_budget(bytes, &tracker);
    }
    OpEnv { governor, ..OpEnv::new(IoTracker::new(), tracker) }
}

/// An unprofiled, ungoverned operator's environment.
fn env() -> OpEnv {
    OpEnv::new(IoTracker::new(), MemoryTracker::new())
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
    try_serial(t, &COLS, group_by, all_aggs(), false).unwrap()
}

fn spilled(t: &Arc<StoredTable>, group_by: &[&str]) -> Batch {
    try_serial(t, &COLS, group_by, all_aggs(), true).unwrap()
}

fn parallel(t: &Arc<StoredTable>, group_by: &[&str], threads: usize) -> Batch {
    try_parallel(t, &COLS, group_by, all_aggs(), threads).unwrap()
}

/// `HashAggregate` over a block scan of `t`; with `spill`, under
/// `SpillMode::Force`, so every group's rows go through a spill file.
fn try_serial(
    t: &Arc<StoredTable>,
    cols: &[&str],
    group_by: &[&str],
    aggs: Vec<AggSpec>,
    spill: bool,
) -> Result<Batch, ExecError> {
    let scan: BoxedOp = Box::new(Scan::blocks(Arc::clone(t), env(), cols, vec![])?);
    let mode = if spill { SpillMode::Force } else { SpillMode::Off };
    collect(Box::new(HashAggregate::new(scan, group_by, aggs, env_under(mode, None))?))
}

fn try_parallel(
    t: &Arc<StoredTable>,
    cols: &[&str],
    group_by: &[&str],
    aggs: Vec<AggSpec>,
    threads: usize,
) -> Result<Batch, ExecError> {
    let bp = ScanBlueprint::blocks(Arc::clone(t), cols, vec![])?;
    let cfg = ParallelConfig { threads, morsel_rows: test_morsel_rows() };
    let morsels = bp.morsels(cfg.morsel_rows);
    let fragment = FragmentBlueprint { scan: bp, steps: vec![] };
    collect(Box::new(ParallelAggregate::new(fragment, morsels, group_by, aggs, threads, env())?))
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
    /// Integer group keys: serial == naive reference; spilled is
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
        prop_assert_eq!(&s, &spilled(&t, &["g"]), "spilled must be bit-identical");
        for threads in [1usize, 2, 4] {
            let partial = parallel(&t, &["g"], threads);
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
        prop_assert_eq!(&s, &spilled(&t, &["s", "g"]), "spilled must be bit-identical");
        let partial = parallel(&t, &["s", "g"], threads);
        assert_equivalent_modulo_float_ulp(&s, &partial);
    }

    /// Degenerate key distributions: a single group (everything collides
    /// into one partition) and all-distinct groups (per-row groups, every
    /// partition full).
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
        prop_assert_eq!(&s, &spilled(&t, &["g"]));
        let partial = parallel(&t, &["g"], threads);
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
    collect(Box::new(HashAggregate::new(input, group_by, aggs, env()).unwrap())).unwrap()
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
        for (group_by, runs) in [(vec!["g"], vec![0]), (vec!["s", "x"], vec![1, 2])] {
            let want = hash_agg(source(&cols, 4096, &[]), &group_by, all_aggs());
            for chunk in [1, 2, 3, 7, 64, 4096] {
                let (got, _) = run_aggregate(source(&cols, chunk, &[1]), &group_by, runs.clone());
                prop_assert_eq!(&want, &got, "group by {:?}, batches of {}", &group_by, chunk);
            }
        }
    }

    /// Pre-grouped input (contiguous partitions, keys unordered inside
    /// them) whose partitions straddle batch boundaries: sandwich
    /// aggregation — the partition column as the run column — is
    /// bit-identical to hash aggregation at every batch size. A flush holds
    /// the open partition's groups plus one batch's at most; over one-row
    /// batches, exactly one partition's.
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
            let (got, flushes) = run_aggregate(source(&cols, chunk, &[0]), &["g"], vec![3]);
            prop_assert_eq!(&want, &got, "batches of {}", chunk);
            let most = flushes.into_iter().max().unwrap();
            prop_assert!(most <= largest + chunk, "batches of {}: {} groups", chunk, most);
            if chunk == 1 {
                prop_assert_eq!(most, largest);
            }
        }
    }
}

/// The serial aggregate flushing on `runs`: its output, and the group
/// count of every flush.
fn run_aggregate(input: BoxedOp, group_by: &[&str], runs: Vec<usize>) -> (Batch, Vec<usize>) {
    let op = HashAggregate::new(input, group_by, all_aggs(), env()).unwrap();
    let mut op = op.with_runs(runs);
    let mut out = Batch::new(op.schema().iter().map(|m| Column::empty(m.data_type)).collect());
    let mut flushes = Vec::new();
    while let Some(b) = op.next().unwrap() {
        flushes.push(b.rows());
        out.append(&b).unwrap();
    }
    (out, flushes)
}

/// Integer `SUM` leaving the 64-bit range is a typed error — not a panic
/// (debug) or a wrapped value (release) — on the serial path, in the
/// partial-merge fold (no single morsel overflows; the merge does) and in
/// a spilled leaf; a sum that lands exactly on the bound is fine.
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
            0 => try_serial(t, &["g", "v"], &["g"], aggs(), false),
            1 => try_parallel(t, &["g", "v"], &["g"], aggs(), 2),
            _ => try_serial(t, &["g", "v"], &["g"], aggs(), true),
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

/// Arithmetic in an aggregate input leaving the 64-bit range is a typed
/// error on every path, as `SUM` is: the compiled input program checks
/// `+`, `-` and `*` as the interpreter does.
#[test]
fn input_arithmetic_overflow_is_a_typed_error_on_every_path() {
    let t = Arc::new(
        StoredTable::from_columns_with_block_rows(
            "t",
            vec![
                ("g".into(), Column::from_i64(vec![1, 2, 3, 1, 2, 3, 1, 2, 3])),
                ("v".into(), Column::from_i64(vec![0, 0, 0, 0, i64::MAX, 0, i64::MIN, 0, 5])),
            ],
            4,
        )
        .unwrap(),
    );
    let cases = [
        Expr::col("v").add(Expr::lit(1)),
        Expr::col("v").sub(Expr::lit(1)),
        Expr::col("v").mul(Expr::lit(-1)),
    ];
    for (i, input) in cases.into_iter().enumerate() {
        let aggs = || vec![AggSpec::new(AggFunc::Sum, input.clone(), "s")];
        for path in 0..3 {
            let out = match path {
                0 => try_serial(&t, &["g", "v"], &["g"], aggs(), false),
                1 => try_parallel(&t, &["g", "v"], &["g"], aggs(), 2),
                _ => try_serial(&t, &["g", "v"], &["g"], aggs(), true),
            };
            // `v + 1` overflows at MAX, `v - 1` and `v * -1` at MIN.
            let err = out.expect_err("input must overflow");
            assert!(matches!(err, ExecError::Overflow(_)), "case {i}, path {path}: {err:?}");
        }
    }
}

// ---------------------------------------------------------------------
// The group table against an oracle that shares no code with it.
// ---------------------------------------------------------------------

/// String keys for the first string column: either side of the 7-byte
/// inline limit (0, 7, 8, 9, 16, 100 bytes), multi-byte UTF-8, halves that
/// concatenate like the second column's (`"ab"`+`"c"`, `"a"`+`"bc"`), and
/// two 16-byte strings whose long-string key words collide
/// (`bdcc_exec::hash`'s unit tests pin that collision).
fn hard_strings() -> Vec<String> {
    let mut v: Vec<String> = [
        "",
        "a",
        "ab",
        "abcdefg",
        "abcdefgh",
        "abcdefghi",
        "abcdefghijklmnop",
        "\0",
        "é",
        "ééé",
        "ééééé",
        "日本語",
        "special requests",
        "specabacfeque$a'",
    ]
    .map(String::from)
    .to_vec();
    v.push("x".repeat(100));
    v.push("x".repeat(99) + "y");
    v
}

const SECOND_STRINGS: [&str; 4] = ["c", "bc", "", "\0"];

/// `0.0` next to `-0.0`, NaNs of three payloads, an infinity.
fn hard_floats() -> [f64; 7] {
    let nan = |bits: u64| f64::from_bits(bits);
    [
        0.0,
        -0.0,
        nan(0x7ff8_0000_0000_0000),
        nan(0x7ff8_0000_0000_0001),
        nan(0xfff8_0000_0000_0002),
        1.5,
        f64::INFINITY,
    ]
}

const HARD_INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 7];

/// One key or aggregate cell as the oracle sees it: integers by value,
/// floats by bit pattern, strings by content.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Int(i64),
    Bits(u64),
    Text(String),
}

fn cell(c: &Column, row: usize) -> Cell {
    match c {
        Column::I64 { values, .. } => Cell::Int(values[row]),
        Column::F64(values) => Cell::Bits(values[row].to_bits()),
        Column::Str(values) => Cell::Text(values[row].to_string()),
    }
}

/// Row-at-a-time fold into a `BTreeMap`: per group (first-seen order) its
/// keys, then `COUNT(*)`, `SUM(v)`, `MIN(v)`, `MAX(s)`.
fn oracle(cols: &Cols, keys: &[usize]) -> Vec<Vec<Cell>> {
    let col = |name: &str| &cols.iter().find(|(n, _)| *n == name).unwrap().1;
    let (v, s) = (col("v").as_i64().unwrap(), col("s").as_str().unwrap());
    let mut groups: BTreeMap<Vec<Cell>, (usize, i64, i64, i64, String)> = BTreeMap::new();
    for row in 0..v.len() {
        let key: Vec<Cell> = keys.iter().map(|&k| cell(&cols[k].1, row)).collect();
        let st = groups.entry(key).or_insert((row, 0, 0, v[row], s[row].to_string()));
        st.1 += 1;
        st.2 += v[row];
        st.3 = st.3.min(v[row]);
        if s[row] > *st.4 {
            st.4 = s[row].to_string();
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_by_key(|(_, st)| st.0);
    let aggs = |st: (usize, i64, i64, i64, String)| {
        [Cell::Int(st.1), Cell::Int(st.2), Cell::Int(st.3), Cell::Text(st.4)]
    };
    groups.into_iter().map(|(key, st)| key.into_iter().chain(aggs(st)).collect()).collect()
}

proptest! {
    /// `HashAggregate` serially and under `SpillMode::Force`, and
    /// `ParallelAggregate` (per-morsel tables merged) at 2 and 4 threads,
    /// each equal to the oracle cell for cell and in first-seen group order,
    /// with every key column keeping its type (a `Date` key next to an
    /// `Int` one).
    #[test]
    fn group_table_matches_a_btreemap_fold_on_hard_keys(
        picks in prop::collection::vec((0usize..1 << 16, 0usize..1 << 16, -20i64..20), 1..160),
    ) {
        let (strs, floats) = (hard_strings(), hard_floats());
        // The composite look-alikes and the colliding pair always occur.
        let mut rows: Vec<(String, &str, f64, i64, i64, i64)> = vec![
            ("ab".into(), "c", 0.0, 0, 0, 1),
            ("a".into(), "bc", -0.0, 0, 0, 2),
            ("special requests".into(), "c", floats[2], 1, 1, 3),
            ("specabacfeque$a'".into(), "c", floats[3], 1, 1, 4),
        ];
        for &(a, b, v) in &picks {
            rows.push((
                strs[a % strs.len()].clone(),
                SECOND_STRINGS[(a >> 5) % SECOND_STRINGS.len()],
                floats[b % floats.len()],
                HARD_INTS[(b >> 3) % HARD_INTS.len()],
                HARD_INTS[(b >> 7) % HARD_INTS.len()],
                v,
            ));
        }
        let cols: Cols = vec![
            ("s", Column::from_strings(rows.iter().map(|r| r.0.clone()).collect())),
            ("t", Column::from_strings(rows.iter().map(|r| r.1.to_string()).collect())),
            ("f", Column::from_f64(rows.iter().map(|r| r.2).collect())),
            ("i", Column::from_i64(rows.iter().map(|r| r.3).collect())),
            ("d", Column::from_dates(rows.iter().map(|r| r.4).collect())),
            ("v", Column::from_i64(rows.iter().map(|r| r.5).collect())),
        ];
        let table = Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                cols.iter().map(|(n, c)| (n.to_string(), c.clone())).collect(),
                8,
            )
            .unwrap(),
        );
        let aggs = || {
            vec![
                AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
                AggSpec::new(AggFunc::Sum, Expr::col("v"), "sum_v"),
                AggSpec::new(AggFunc::Min, Expr::col("v"), "min_v"),
                AggSpec::new(AggFunc::Max, Expr::col("s"), "max_s"),
            ]
        };
        let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        let group_bys: [&[usize]; 6] = [&[0, 1], &[1, 0], &[2], &[3, 4], &[0], &[0, 2, 3, 4, 1]];
        for keys in group_bys {
            let group_by: Vec<&str> = keys.iter().map(|&k| names[k]).collect();
            let want = oracle(&cols, keys);
            let runs = [
                ("serial", try_serial(&table, &names, &group_by, aggs(), false)),
                ("forced spill", try_serial(&table, &names, &group_by, aggs(), true)),
                ("2 threads", try_parallel(&table, &names, &group_by, aggs(), 2)),
                ("4 threads", try_parallel(&table, &names, &group_by, aggs(), 4)),
            ];
            for (path, got) in runs {
                let got = got.unwrap();
                for (k, &c) in keys.iter().enumerate() {
                    prop_assert_eq!(got.columns[k].data_type(), cols[c].1.data_type());
                }
                let got: Vec<Vec<Cell>> = (0..got.rows())
                    .map(|r| got.columns.iter().map(|c| cell(c, r)).collect())
                    .collect();
                prop_assert_eq!(&got, &want, "{} grouped by {:?}", path, &group_by);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The fused float sums and the shared row count against an oracle that
// shares no code with them.
// ---------------------------------------------------------------------

/// Float inputs that stress a compensated sum: signed zeros, NaNs of three
/// payloads, infinities of both signs, subnormals, and magnitudes near
/// `f64::MAX` that cancel (or overflow) against each other.
fn hard_summands() -> [f64; 16] {
    let nan = |bits: u64| f64::from_bits(bits);
    [
        0.0,
        -0.0,
        0.1,
        -1.5,
        3.0e15,
        1e308,
        -1e308,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        nan(0x7ff8_0000_0000_0000),
        nan(0x7ff8_0000_0000_0001),
        nan(0xfff8_0000_0000_0002),
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 3.0,
        1e-300,
    ]
}

/// Integers whose `f64` images round: either side of 2^53.
const NEAR_2_53: [i64; 7] =
    [(1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 53) + 7, -(1 << 53) - 3, 1, -1];

/// A float state as the oracle keeps it: the running sum and the rounding
/// error collected beside it (Neumaier's `sum` and `c`).
#[derive(Clone, Copy)]
struct Comp {
    sum: f64,
    c: f64,
}

impl Comp {
    const ZERO: Comp = Comp { sum: 0.0, c: 0.0 };

    /// One step of Neumaier's algorithm, operands in the order the
    /// algorithm states them (the order decides which NaN payload wins).
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.c += (self.sum - t) + v;
        } else {
            self.c += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Another fold of the same group folded in: its sum, then its error.
    fn absorb(&mut self, other: Comp) {
        self.add(other.sum);
        self.add(other.c);
    }

    fn total(self) -> f64 {
        self.sum + self.c
    }
}

/// One group of the oracle: first-seen row, row count, one state per
/// float input.
#[derive(Clone)]
struct FoldState {
    first: usize,
    n: i64,
    states: Vec<Comp>,
}

/// Row-at-a-time fold of rows `rows` of the inputs (`inputs[j][row]` into
/// state `j`) by group key, groups in first-seen order.
fn fold_rows(keys: &[i64], inputs: &[Vec<f64>], rows: Range<usize>) -> Vec<(i64, FoldState)> {
    let mut groups: BTreeMap<i64, FoldState> = BTreeMap::new();
    for row in rows {
        let st = groups.entry(keys[row]).or_insert(FoldState {
            first: row,
            n: 0,
            states: vec![Comp::ZERO; inputs.len()],
        });
        st.n += 1;
        for (s, input) in st.states.iter_mut().zip(inputs) {
            s.add(input[row]);
        }
    }
    let mut groups: Vec<(i64, FoldState)> = groups.into_iter().collect();
    groups.sort_by_key(|(_, st)| st.first);
    groups
}

/// The partial-merge fold: one fold per morsel of `morsel` rows, merged in
/// morsel order — a group new to the merged fold takes the morsel's state
/// as it stands, a known one absorbs it.
fn fold_morsels(keys: &[i64], inputs: &[Vec<f64>], morsel: usize) -> Vec<(i64, FoldState)> {
    let mut merged: Vec<(i64, FoldState)> = Vec::new();
    for start in (0..keys.len()).step_by(morsel) {
        for (key, st) in fold_rows(keys, inputs, start..(start + morsel).min(keys.len())) {
            match merged.iter_mut().find(|(k, _)| *k == key) {
                None => merged.push((key, st)),
                Some((_, mine)) => {
                    mine.n += st.n;
                    mine.states.iter_mut().zip(st.states).for_each(|(m, s)| m.absorb(s));
                }
            }
        }
    }
    merged
}

/// What an aggregate over the oracle's inputs outputs per group.
#[derive(Clone, Copy, Debug)]
enum Out {
    /// `SUM` of float input `j`.
    Sum(usize),
    /// `AVG` of float input `j`.
    Avg(usize),
    Count,
}

/// A float's bits — any NaN's as one: Rust leaves the payload of a NaN
/// that arithmetic produces unspecified (the compiler may commute the
/// operands of `+`, and which operand's payload survives follows).
fn bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// The oracle's rows: the key, then per output its [`bits`] (`COUNT` as
/// is).
fn oracle_rows(groups: &[(i64, FoldState)], outs: &[Out]) -> Vec<Vec<u64>> {
    let row = |(key, st): &(i64, FoldState)| {
        let cells = outs.iter().map(|o| match *o {
            Out::Sum(j) => bits(st.states[j].total()),
            Out::Avg(j) => bits(st.states[j].total() / st.n as f64),
            Out::Count => st.n as u64,
        });
        std::iter::once(*key as u64).chain(cells).collect()
    };
    groups.iter().map(row).collect()
}

/// An output batch as the oracle writes it: integers as they are, floats
/// by their [`bits`].
fn bits_rows(b: &Batch) -> Vec<Vec<u64>> {
    let cell = |c: &Column, r: usize| match c {
        Column::I64 { values, .. } => values[r] as u64,
        Column::F64(values) => bits(values[r]),
        Column::Str(_) => panic!("no string outputs here"),
    };
    (0..b.rows()).map(|r| b.columns.iter().map(|c| cell(c, r)).collect()).collect()
}

/// Rows per parallel fragment: `ParallelAggregate` cuts its 8-row
/// storage blocks into morsels of the fewest whole blocks holding
/// `BDCC_MORSEL_ROWS` rows.
fn morsel_span() -> usize {
    test_morsel_rows().div_ceil(8).max(1) * 8
}

proptest! {
    /// Every float `SUM` / `AVG` and `COUNT`, one group-by at a time, bit
    /// for bit equal to the row-at-a-time Neumaier fold: serially (also
    /// flushing on a run column, so groups fold in several tables), under
    /// `SpillMode::Force` and under a budget that stops the table after a
    /// few groups (resident rows fold beside spilled ones), and — against
    /// the per-morsel fold merged in morsel order — through
    /// `ParallelAggregate` at 2 and 4 threads.
    #[test]
    fn fused_float_sums_match_a_row_at_a_time_neumaier_fold(
        picks in prop::collection::vec((0usize..1 << 16, 0u64..24), 1..200),
    ) {
        let hard = hard_summands();
        // Rows sorted by run `r`, the group key's high part: no group
        // spans two runs.
        let mut rows: Vec<(i64, [f64; 4], i64)> = picks
            .iter()
            .map(|&(p, g)| {
                let f = |s: usize| hard[(p >> s) % hard.len()];
                (g as i64, [f(0), f(4), f(8), f(12)], NEAR_2_53[p % NEAR_2_53.len()])
            })
            .collect();
        rows.sort_by_key(|r| r.0 / 6);
        let keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let floats: Vec<Vec<f64>> = (0..4).map(|j| rows.iter().map(|r| r.1[j]).collect()).collect();
        let ints: Vec<i64> = rows.iter().map(|r| r.2).collect();
        let mut cols: Cols = vec![
            ("g", Column::from_i64(keys.clone())),
            ("r", Column::from_i64(keys.iter().map(|k| k / 6).collect())),
            ("i", Column::from_i64(ints.clone())),
        ];
        let names = ["f0", "f1", "f2", "f3"];
        for (name, f) in names.iter().zip(&floats) {
            cols.push((name, Column::from_f64(f.clone())));
        }
        let table = Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                cols.iter().map(|(n, c)| (n.to_string(), c.clone())).collect(),
                8,
            )
            .unwrap(),
        );
        // The oracle's inputs: the four float columns, then `i` as floats.
        let mut inputs = floats.clone();
        inputs.push(ints.iter().map(|&v| v as f64).collect());
        // Nine float states and a count; COUNT alone; AVG alone.
        let mut wide: Vec<(AggFunc, &str, Out)> = Vec::new();
        for (j, name) in names.iter().enumerate() {
            wide.push((AggFunc::Sum, name, Out::Sum(j)));
            wide.push((AggFunc::Avg, name, Out::Avg(j)));
        }
        wide.push((AggFunc::Avg, "i", Out::Avg(4)));
        wide.push((AggFunc::Count, "g", Out::Count));
        let shapes: [Vec<(AggFunc, &str, Out)>; 3] = [
            wide,
            vec![(AggFunc::Count, "g", Out::Count)],
            vec![(AggFunc::Avg, "i", Out::Avg(4)), (AggFunc::Avg, "f2", Out::Avg(2))],
        ];
        let all: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        for shape in &shapes {
            let specs = || -> Vec<AggSpec> {
                shape.iter().enumerate().map(|(i, &(f, c, _))| {
                    AggSpec::new(f, Expr::col(c), &format!("a{i}"))
                }).collect()
            };
            let outs: Vec<Out> = shape.iter().map(|s| s.2).collect();
            let want = oracle_rows(&fold_rows(&keys, &inputs, 0..keys.len()), &outs);
            let scan = || -> BoxedOp {
                Box::new(Scan::blocks(Arc::clone(&table), env(), &all, vec![]).unwrap())
            };
            let budget = env_under(SpillMode::Auto, Some(2048));
            let budgeted = HashAggregate::new(scan(), &["g"], specs(), budget).unwrap();
            let runs = HashAggregate::new(scan(), &["g"], specs(), env())
                .unwrap()
                .with_runs(vec![1]);
            let serial_paths = [
                ("serial", try_serial(&table, &all, &["g"], specs(), false).unwrap()),
                ("forced spill", try_serial(&table, &all, &["g"], specs(), true).unwrap()),
                ("budget", collect(Box::new(budgeted)).unwrap()),
                ("run column", collect(Box::new(runs)).unwrap()),
            ];
            for (path, got) in serial_paths {
                prop_assert_eq!(bits_rows(&got), want.clone(), "{} over {:?}", path, &outs);
            }
            let merged = oracle_rows(&fold_morsels(&keys, &inputs, morsel_span()), &outs);
            for threads in [2, 4] {
                let got = try_parallel(&table, &all, &["g"], specs(), threads).unwrap();
                prop_assert_eq!(bits_rows(&got), merged.clone(), "{} threads over {:?}", threads, &outs);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The group table's directories: a single integer-backed key column goes
// direct while its keys fit the slots hashing would hold, re-bases when a
// key leaves the range, and re-files its groups into hashed slots when
// one does not fit.
// ---------------------------------------------------------------------

/// Key sequences that drive the table through every directory change.
fn mode_switch_keys() -> Vec<(&'static str, Vec<i64>)> {
    let n = 600i64;
    vec![
        // Dense, each key twice, up to the top of the `i64` range.
        ("ascending", (0..n).map(|r| i64::MAX - 1000 + r / 2).collect()),
        // Dense, each key three times, down to the bottom: every new key
        // is below the directory's range.
        ("descending", (0..n).map(|r| i64::MIN + 1000 - r / 3).collect()),
        // Two interleaved runs ~1 800 apart: hashed until the directory
        // has grown past their range, then direct.
        ("alternating", (0..n).map(|r| if r % 2 == 0 { -r } else { 1200 - r }).collect()),
        // Dense, widening both ways: 0, -1, 1, -2, 2, ...
        ("both ways", (0..n).map(|r| if r % 2 == 0 { r / 2 } else { -(r / 2) - 1 }).collect()),
        // Interleaved runs 2^40 apart: never direct.
        ("far apart", (0..n).map(|r| if r % 2 == 0 { r } else { (1 << 40) + r }).collect()),
        // Dense, then one key far below in the middle of a batch: the
        // groups are re-filed into hashed slots, and stay there.
        ("outlier", (0..n).map(|r| if r == 301 { i64::MIN } else { r / 2 }).collect()),
    ]
}

#[test]
fn group_table_directory_switches_keep_every_result() {
    let aggs = || {
        vec![
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::Sum, Expr::col("v"), "sum_v"),
            AggSpec::new(AggFunc::Min, Expr::col("v"), "min_v"),
            AggSpec::new(AggFunc::Max, Expr::col("s"), "max_s"),
        ]
    };
    let cells = |b: &Batch| -> Vec<Vec<Cell>> {
        (0..b.rows()).map(|r| b.columns.iter().map(|c| cell(c, r)).collect()).collect()
    };
    for (pattern, keys) in mode_switch_keys() {
        for logical in [DataType::Int, DataType::Date] {
            let n = keys.len();
            let key = match logical {
                DataType::Date => Column::from_dates(keys.clone()),
                _ => Column::from_i64(keys.clone()),
            };
            let cols: Cols = vec![
                ("k", key),
                // A run column the key determines: a key's rows share a run.
                ("r", Column::from_i64(keys.iter().map(|k| k.div_euclid(50)).collect())),
                ("v", Column::from_i64((0..n as i64).map(|i| i % 7 - 3).collect())),
                ("s", Column::from_strings((0..n).map(|i| format!("s{}", i % 5)).collect())),
            ];
            let want = oracle(&cols, &[0]);
            let table = Arc::new(
                StoredTable::from_columns_with_block_rows(
                    "t",
                    cols.iter().map(|(n, c)| (n.to_string(), c.clone())).collect(),
                    8,
                )
                .unwrap(),
            );
            let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
            let mut runs = vec![
                ("serial", try_serial(&table, &names, &["k"], aggs(), false).unwrap()),
                ("forced spill", try_serial(&table, &names, &["k"], aggs(), true).unwrap()),
                ("2 threads", try_parallel(&table, &names, &["k"], aggs(), 2).unwrap()),
                ("4 threads", try_parallel(&table, &names, &["k"], aggs(), 4).unwrap()),
            ];
            for chunk in [1, 64, 1000] {
                let op = HashAggregate::new(source(&cols, chunk, &[]), &["k"], aggs(), env());
                runs.push(("batches", collect(Box::new(op.unwrap())).unwrap()));
                let op = HashAggregate::new(source(&cols, chunk, &[]), &["k"], aggs(), env());
                runs.push((
                    "run flushes",
                    collect(Box::new(op.unwrap().with_runs(vec![1]))).unwrap(),
                ));
            }
            for (path, got) in runs {
                assert_eq!(got.columns[0].data_type(), logical, "{pattern} {path}");
                // Rows in first-seen group order, cell for cell.
                assert_eq!(cells(&got), want, "{pattern} {logical:?} {path}");
            }
        }
    }
}
