//! Property tests of the flat allocation-free join index (`exec::hash`)
//! through the `HashJoin` operator: every join flavor must agree with a
//! naive nested-loop reference on random data, and the hash-partitioned
//! parallel build must be **byte-identical** to the serial one.
//!
//! Semi / anti joins index whichever side ends first; the second half of
//! this file drives both outcomes over the same reference, batch for
//! batch, and against the forced-spill path — which is always the right
//! build.

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::join::{HashJoin, JoinType};
use bdcc::exec::ops::{collect, Operator};
use bdcc::exec::{
    canonical_rows, CancelToken, ExecError, Expr, Governor, MemoryBroker, MemoryTracker, OpMetrics,
    ParallelConfig, SpillMode,
};
use bdcc::storage::{live_spill_files, Column, DataType, IoTracker};

/// Chunked in-memory source of `(key, value)` rows.
struct Source {
    schema: OpSchema,
    batches: std::vec::IntoIter<Batch>,
}

impl Source {
    fn new(names: (&str, &str), rows: &[(i64, i64)], chunk: usize) -> Source {
        let schema =
            vec![ColMeta::new(names.0, DataType::Int), ColMeta::new(names.1, DataType::Int)];
        let batches: Vec<Batch> = rows
            .chunks(chunk.max(1))
            .map(|c| {
                Batch::new(vec![
                    Column::from_i64(c.iter().map(|r| r.0).collect()),
                    Column::from_i64(c.iter().map(|r| r.1).collect()),
                ])
            })
            .collect();
        Source { schema, batches: batches.into_iter() }
    }
}

impl Operator for Source {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }
    fn next(&mut self) -> Result<Option<Batch>, bdcc::exec::ExecError> {
        Ok(self.batches.next())
    }
}

fn one_thread() -> ParallelConfig {
    ParallelConfig::with_threads(1)
}

fn run_join(
    left: &[(i64, i64)],
    right: &[(i64, i64)],
    jt: JoinType,
    residual: bool,
    parallel: ParallelConfig,
) -> Batch {
    let residual = residual.then(|| Expr::col("lv").le(Expr::col("rv")));
    let j = HashJoin::new(
        Box::new(Source::new(("lk", "lv"), left, 7)),
        Box::new(Source::new(("rk", "rv"), right, 5)),
        &[("lk", "rk")],
        jt,
        residual,
        MemoryTracker::new(),
    )
    .unwrap()
    .with_parallel(parallel);
    collect(Box::new(j)).unwrap()
}

/// Nested-loop reference: the same join semantics, computed row by row.
fn reference(left: &[(i64, i64)], right: &[(i64, i64)], jt: JoinType, residual: bool) -> Batch {
    let pair_passes = |l: &(i64, i64), r: &(i64, i64)| l.0 == r.0 && (!residual || l.1 <= r.1);
    let mut cols: Vec<Vec<i64>> = match jt {
        JoinType::Inner => vec![vec![]; 4],
        JoinType::LeftOuter => vec![vec![]; 5],
        JoinType::Semi | JoinType::Anti => vec![vec![]; 2],
    };
    for l in left {
        let matches: Vec<&(i64, i64)> = right.iter().filter(|r| pair_passes(l, r)).collect();
        match jt {
            JoinType::Inner => {
                for r in &matches {
                    cols[0].push(l.0);
                    cols[1].push(l.1);
                    cols[2].push(r.0);
                    cols[3].push(r.1);
                }
            }
            JoinType::LeftOuter => {
                if matches.is_empty() {
                    // Defaulted right columns + __matched = 0.
                    for (c, v) in [l.0, l.1, 0, 0, 0].into_iter().enumerate() {
                        cols[c].push(v);
                    }
                } else {
                    for r in &matches {
                        for (c, v) in [l.0, l.1, r.0, r.1, 1].into_iter().enumerate() {
                            cols[c].push(v);
                        }
                    }
                }
            }
            JoinType::Semi => {
                if !matches.is_empty() {
                    cols[0].push(l.0);
                    cols[1].push(l.1);
                }
            }
            JoinType::Anti => {
                if matches.is_empty() {
                    cols[0].push(l.0);
                    cols[1].push(l.1);
                }
            }
        }
    }
    Batch::new(cols.into_iter().map(Column::from_i64).collect())
}

const ALL_TYPES: [JoinType; 4] =
    [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti];

proptest! {
    /// Flat-table join == nested-loop reference, with and without a
    /// residual predicate, for every join flavor.
    #[test]
    fn flat_join_matches_nested_loop_reference(
        left in prop::collection::vec((0i64..12, -20i64..20), 1..50),
        right in prop::collection::vec((0i64..12, -20i64..20), 1..40),
        residual in any::<bool>(),
    ) {
        for jt in ALL_TYPES {
            let got = run_join(&left, &right, jt, residual, one_thread());
            let want = reference(&left, &right, jt, residual);
            prop_assert_eq!(
                canonical_rows(&got),
                canonical_rows(&want),
                "{:?} residual={}", jt, residual
            );
        }
    }

    /// The hash-partitioned parallel build returns matches in the same
    /// order as the serial build — results are byte-identical, not just
    /// set-equal.
    #[test]
    fn partitioned_build_is_byte_identical(
        left in prop::collection::vec((0i64..8, -20i64..20), 1..60),
        right in prop::collection::vec((0i64..8, -20i64..20), 2..60),
        threads in 2usize..6,
    ) {
        // morsel_rows = 1 forces partitioning at any size.
        let cfg = ParallelConfig { threads, morsel_rows: 1 };
        for jt in ALL_TYPES {
            let serial = run_join(&left, &right, jt, false, one_thread());
            let parallel = run_join(&left, &right, jt, false, cfg.clone());
            prop_assert_eq!(&serial, &parallel, "{:?} threads={}", jt, threads);
        }
    }

    /// The morsel-parallel probe (rounds of left batches split into
    /// row-range probe morsels, match lists concatenated in morsel order)
    /// is **byte-identical** to the serial probe for every join flavor,
    /// with and without a residual predicate — residuals are evaluated
    /// per probe morsel, Semi/Anti without residual take the existence
    /// fast path, and none of it may change a single byte.
    #[test]
    fn parallel_probe_is_byte_identical(
        left in prop::collection::vec((0i64..10, -20i64..20), 1..120),
        right in prop::collection::vec((0i64..10, -20i64..20), 1..50),
        residual in any::<bool>(),
        threads in 2usize..6,
    ) {
        // Tiny morsels: every 7-row left batch splits into several probe
        // morsels and probe rounds span multiple batches.
        let cfg = ParallelConfig { threads, morsel_rows: 3 };
        for jt in ALL_TYPES {
            let serial = run_join(&left, &right, jt, residual, one_thread());
            let parallel = run_join(&left, &right, jt, residual, cfg.clone());
            prop_assert_eq!(
                &serial, &parallel,
                "{:?} residual={} threads={}", jt, residual, threads
            );
        }
    }

    /// Degenerate shapes: empty sides, all-equal keys (one fat chain).
    #[test]
    fn degenerate_key_distributions(
        n_left in 0usize..30,
        n_right in 0usize..30,
        key in -3i64..3,
    ) {
        let left: Vec<(i64, i64)> = (0..n_left as i64).map(|i| (key, i)).collect();
        let right: Vec<(i64, i64)> = (0..n_right as i64).map(|i| (key, -i)).collect();
        for jt in ALL_TYPES {
            let got = run_join(&left, &right, jt, false, one_thread());
            let want = reference(&left, &right, jt, false);
            prop_assert_eq!(canonical_rows(&got), canonical_rows(&want), "{:?}", jt);
        }
    }
}

// ---------------------------------------------------------------------------
// Semi / anti joins: the side that ends first is the one indexed.

/// A `(key, second key, value)` row.
type Row = (i64, i64, i64);

/// Chunked source of [`Row`]s named `<side>k`, `<side>k2`, `<side>v`; trips
/// `cancel_after.1` once it has handed out `cancel_after.0` batches.
struct Wide {
    schema: OpSchema,
    batches: std::vec::IntoIter<Batch>,
    cancel_after: Option<(usize, CancelToken)>,
}

fn wide_batch<'a>(rows: impl Iterator<Item = &'a Row> + Clone) -> Batch {
    Batch::new(vec![
        Column::from_i64(rows.clone().map(|r| r.0).collect()),
        Column::from_i64(rows.clone().map(|r| r.1).collect()),
        Column::from_i64(rows.map(|r| r.2).collect()),
    ])
}

impl Wide {
    fn new(side: &str, rows: &[Row], chunk: usize) -> Wide {
        let schema = ["k", "k2", "v"]
            .iter()
            .map(|c| ColMeta::new(format!("{side}{c}"), DataType::Int))
            .collect();
        let batches: Vec<Batch> = rows.chunks(chunk.max(1)).map(|c| wide_batch(c.iter())).collect();
        Wide { schema, batches: batches.into_iter(), cancel_after: None }
    }
}

impl Operator for Wide {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }
    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        if let Some((left, token)) = &mut self.cancel_after {
            match left {
                0 => token.cancel(),
                n => *n -= 1,
            }
        }
        Ok(self.batches.next())
    }
}

/// One semi / anti join input: rows, batch sizes, key width, residual.
#[derive(Debug, Clone)]
struct Case {
    left: Vec<Row>,
    right: Vec<Row>,
    chunks: (usize, usize),
    two_keys: bool,
    residual: bool,
}

impl Case {
    fn join(&self, jt: JoinType, tracker: &std::sync::Arc<MemoryTracker>) -> HashJoin {
        let on: &[(&str, &str)] =
            if self.two_keys { &[("lk", "rk"), ("lk2", "rk2")] } else { &[("lk", "rk")] };
        HashJoin::new(
            Box::new(Wide::new("l", &self.left, self.chunks.0)),
            Box::new(Wide::new("r", &self.right, self.chunks.1)),
            on,
            jt,
            self.residual.then(|| Expr::col("lv").le(Expr::col("rv"))),
            std::sync::Arc::clone(tracker),
        )
        .unwrap()
    }

    /// Nested loops, one output batch per left batch with a survivor.
    fn reference(&self, jt: JoinType) -> Vec<Batch> {
        let passes = |l: &Row, r: &Row| {
            l.0 == r.0 && (!self.two_keys || l.1 == r.1) && (!self.residual || l.2 <= r.2)
        };
        let kept = |l: &&Row| self.right.iter().any(|r| passes(l, r)) == (jt == JoinType::Semi);
        self.left
            .chunks(self.chunks.0.max(1))
            .map(|chunk| wide_batch(chunk.iter().filter(kept)))
            .filter(|b| b.rows() > 0)
            .collect()
    }
}

fn batches(mut op: HashJoin) -> Vec<Batch> {
    std::iter::from_fn(|| op.next().unwrap()).collect()
}

fn annotation(m: &OpMetrics, key: &str) -> Option<String> {
    m.annotations().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Every way to run `case`: serial, widths 1 / 4 over 48-row morsels, and
/// forced out of core (always the spilled right build) — each must equal
/// the reference batch for batch. Returns the serial run's `build=`.
fn check_case(case: &Case, jt: JoinType) -> String {
    // `live_spill_files` is process-wide: one spilling case at a time.
    static SPILLS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _spills = SPILLS.lock().unwrap_or_else(|e| e.into_inner());
    let want = case.reference(jt);
    let metrics = OpMetrics::new();
    let tracker = MemoryTracker::new();
    let serial = batches(case.join(jt, &tracker).with_metrics(Some(metrics.clone())));
    assert_eq!(serial, want, "{jt:?} serial {case:?}");
    assert_eq!(tracker.current(), 0, "{jt:?} {case:?}: dropped join must release its bytes");
    for threads in [1, 4] {
        let cfg = ParallelConfig { threads, morsel_rows: 48 };
        let got = batches(case.join(jt, &MemoryTracker::new()).with_parallel(cfg));
        assert_eq!(got, want, "{jt:?} width {threads} {case:?}");
    }
    let (forced, tracker) = (OpMetrics::new(), MemoryTracker::new());
    let broker = MemoryBroker::with_mode(SpillMode::Force, &tracker, None);
    let spilled = batches(
        case.join(jt, &tracker)
            .with_metrics(Some(forced.clone()))
            .with_broker(broker, IoTracker::new()),
    );
    assert_eq!(spilled, want, "{jt:?} forced spill {case:?}");
    // (An empty right side never sees a batch to spill.)
    let spill_mode = (!case.right.is_empty()).then_some("build-broker");
    assert_eq!(annotation(&forced, "spill_mode").as_deref(), spill_mode, "{case:?}");
    assert_eq!(live_spill_files(), 0, "{jt:?} {case:?}: spill files must unlink");
    assert_eq!(tracker.current(), 0);
    annotation(&metrics, "build").expect("a profiled join says which side it indexed")
}

/// `n` rows over `keys` distinct keys (so the left side carries duplicates
/// whenever `n > keys`), second key in `0..3`, distinct values.
fn rows(n: i64, keys: i64, salt: i64) -> Vec<Row> {
    (0..n).map(|i| ((i * 7 + salt) % keys, i % 3, (i * 13 + salt) % 29)).collect()
}

#[test]
fn semi_anti_index_the_side_that_ends_first() {
    // (left rows, right rows, left chunk, right chunk, expected `build=`;
    // `None` where the tie-break decides and only the output is pinned).
    let shapes: [(i64, i64, usize, usize, Option<&str>); 8] = [
        (12, 300, 7, 5, Some("left(12)")), // left ends first, duplicate left keys
        (300, 12, 7, 5, Some("right(12)")), // right ends first
        (40, 300, 1, 16, Some("left(40)")), // many tiny left batches
        (64, 64, 8, 8, None),              // equal row counts
        (0, 50, 7, 5, Some("left(0)")),    // empty left
        (50, 0, 7, 5, Some("right(0)")),   // empty right
        (0, 0, 7, 5, Some("right(0)")),    // both empty
        (5, 5000, 5, 512, Some("left(5)")), // long stream past a tiny table
    ];
    for (nl, nr, lc, rc, build) in shapes {
        for two_keys in [false, true] {
            for residual in [false, true] {
                let case = Case {
                    left: rows(nl, 9, 1),
                    right: rows(nr, 11, 4),
                    chunks: (lc, rc),
                    two_keys,
                    residual,
                };
                for jt in [JoinType::Semi, JoinType::Anti] {
                    let got = check_case(&case, jt);
                    if let Some(build) = build {
                        assert_eq!(got, build, "{jt:?} {case:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn cancel_between_streamed_batches_releases_every_byte() {
    // 5 left rows end the race after two right batches; the token trips
    // once the right has handed out ten, i.e. while it streams past the
    // indexed left side.
    let case = Case {
        left: rows(5, 9, 1),
        right: rows(400, 11, 4),
        chunks: (5, 5),
        two_keys: false,
        residual: true,
    };
    let tracker = MemoryTracker::new();
    let token = CancelToken::new();
    let mut governor = Governor::none();
    governor.set_cancel(token.clone(), &tracker);
    let mut right = Wide::new("r", &case.right, 5);
    right.cancel_after = Some((10, token));
    let mut join = HashJoin::new(
        Box::new(Wide::new("l", &case.left, 5)),
        Box::new(right),
        &[("lk", "rk")],
        JoinType::Semi,
        Some(Expr::col("lv").le(Expr::col("rv"))),
        std::sync::Arc::clone(&tracker),
    )
    .unwrap()
    .with_governor(governor);
    let cancelled = join.next();
    assert!(matches!(cancelled, Err(ExecError::Cancelled)), "{cancelled:?}");
    assert!(tracker.peak() > 0, "the indexed left side was tracked");
    drop(join);
    assert_eq!(tracker.current(), 0, "a cancelled join releases every tracked byte");
}

proptest! {
    /// Random semi / anti joins — duplicate keys on both sides, either
    /// side the shorter one, one or two key columns, with and without a
    /// residual over both sides, batch sizes down to one row — equal the
    /// nested-loop reference batch for batch on every path.
    #[test]
    fn semi_anti_match_reference_on_either_build_side(
        left in prop::collection::vec((0i64..6, -9i64..9), 0..40),
        right in prop::collection::vec((0i64..6, -9i64..9), 0..120),
        chunks in (1usize..9, 1usize..33),
        two_keys in any::<bool>(),
        residual in any::<bool>(),
    ) {
        let widen = |rows: &[(i64, i64)]| -> Vec<Row> {
            rows.iter().map(|&(k, v)| (k, v.rem_euclid(2), v)).collect()
        };
        let case = Case { left: widen(&left), right: widen(&right), chunks, two_keys, residual };
        for jt in [JoinType::Semi, JoinType::Anti] {
            check_case(&case, jt);
        }
    }
}
