//! Property tests of the flat allocation-free join index (`exec::hash`)
//! through the `HashJoin` operator: every join flavor must agree with a
//! naive nested-loop reference on random data.
//!
//! Semi / anti joins index whichever side ends first; the second part of
//! this file drives both outcomes over the same reference, batch for
//! batch, and against the forced-spill path — which is always the right
//! build.
//!
//! The last part checks the grouped (sandwich) join — the right side
//! indexed one group at a time while the left streams — against a nested
//! loop restricted to equal group keys, for every join type, and that it
//! never concatenates the left or holds more than one right group.

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::join::{HashJoin, JoinType, MATCHED_COLUMN};
use bdcc::exec::ops::merge_join::MergeJoin;
use bdcc::exec::ops::{collect, BoxedOp, OpEnv, Operator};
use bdcc::exec::{
    canonical_rows, CancelToken, ExecError, Expr, Governor, JoinIndex, MemoryTracker, Needed,
    OpMetrics, SpillMode,
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

fn run_join(left: &[(i64, i64)], right: &[(i64, i64)], jt: JoinType, residual: bool) -> Batch {
    let residual = residual.then(|| Expr::col("lv").le(Expr::col("rv")));
    let j = HashJoin::new(
        Box::new(Source::new(("lk", "lv"), left, 7)),
        Box::new(Source::new(("rk", "rv"), right, 5)),
        &[("lk", "rk")],
        jt,
        residual,
        &Needed::default(),
        OpEnv::new(IoTracker::new(), MemoryTracker::new()),
    )
    .unwrap();
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
            let got = run_join(&left, &right, jt, residual);
            let want = reference(&left, &right, jt, residual);
            prop_assert_eq!(
                canonical_rows(&got),
                canonical_rows(&want),
                "{:?} residual={}", jt, residual
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
            let got = run_join(&left, &right, jt, false);
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
    fn join(&self, jt: JoinType, env: OpEnv) -> HashJoin {
        let on: &[(&str, &str)] =
            if self.two_keys { &[("lk", "rk"), ("lk2", "rk2")] } else { &[("lk", "rk")] };
        HashJoin::new(
            Box::new(Wide::new("l", &self.left, self.chunks.0)),
            Box::new(Wide::new("r", &self.right, self.chunks.1)),
            on,
            jt,
            self.residual.then(|| Expr::col("lv").le(Expr::col("rv"))),
            &Needed::default(),
            env,
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

/// `live_spill_files` is process-wide: one spilling case at a time.
static SPILLS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn batches(mut op: BoxedOp) -> Vec<Batch> {
    std::iter::from_fn(|| op.next().unwrap()).collect()
}

fn annotation(m: &OpMetrics, key: &str) -> Option<String> {
    m.annotations().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Both ways to run `case`: in memory and forced out of core (always the
/// spilled right build) — each must equal the reference batch for batch.
/// Returns the in-memory run's `build=`.
fn check_case(case: &Case, jt: JoinType) -> String {
    let _spills = SPILLS.lock().unwrap_or_else(|e| e.into_inner());
    let want = case.reference(jt);
    let metrics = OpMetrics::new();
    let tracker = MemoryTracker::new();
    let env =
        OpEnv { metrics: Some(metrics.clone()), ..OpEnv::new(IoTracker::new(), tracker.clone()) };
    let got = batches(Box::new(case.join(jt, env)));
    assert_eq!(got, want, "{jt:?} in memory {case:?}");
    assert_eq!(tracker.current(), 0, "{jt:?} {case:?}: dropped join must release its bytes");
    let (forced, tracker) = (OpMetrics::new(), MemoryTracker::new());
    let mut governor = Governor::none();
    governor.set_spill(SpillMode::Force);
    let env = OpEnv {
        metrics: Some(forced.clone()),
        governor,
        ..OpEnv::new(IoTracker::new(), tracker.clone())
    };
    let spilled = batches(Box::new(case.join(jt, env)));
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
        &Needed::default(),
        OpEnv { governor, ..OpEnv::new(IoTracker::new(), tracker.clone()) },
    )
    .unwrap();
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

// ---------------------------------------------------------------------------
// Grouped joins: one right group indexed at a time, the left streamed.

/// A residual of a grouped case: over both sides (the pair path), or over
/// the right side alone (a sargable kernel leaf).
#[derive(Debug, Clone, Copy)]
enum Residual {
    LeftAtMostRight,
    RightAtLeast(i64),
}

impl Residual {
    fn expr(self) -> Expr {
        match self {
            Residual::LeftAtMostRight => Expr::col("lv").le(Expr::col("rv")),
            Residual::RightAtLeast(c) => Expr::col("rv").ge(Expr::lit(c)),
        }
    }

    fn passes(self, l: &Row, r: &Row) -> bool {
        match self {
            Residual::LeftAtMostRight => l.2 <= r.2,
            Residual::RightAtLeast(c) => r.2 >= c,
        }
    }
}

/// A grouped join input: [`Row`]s of `(join key, group key, value)`, both
/// sides ascending in group key, left values distinct (they name the left
/// row), and the batch sizes of both sides.
#[derive(Debug, Clone)]
struct GroupedCase {
    left: Vec<Row>,
    right: Vec<Row>,
    chunks: (usize, usize),
}

impl GroupedCase {
    fn new(left: Vec<Row>, right: Vec<Row>, chunks: (usize, usize)) -> GroupedCase {
        GroupedCase { left, right, chunks }
    }

    /// `left` and `right` from `(join key, group key)` pairs, values
    /// numbering the rows (right values from 100).
    fn numbered(left: &[(i64, i64)], right: &[(i64, i64)], chunks: (usize, usize)) -> GroupedCase {
        let number = |rows: &[(i64, i64)], base: i64| -> Vec<Row> {
            rows.iter().zip(base..).map(|(&(k, g), v)| (k, g, v)).collect()
        };
        GroupedCase::new(number(left, 0), number(right, 100), chunks)
    }

    /// The residuals every case runs under: none, the pair one, and a
    /// right-side one at the median right value.
    fn residuals(&self) -> Vec<Option<Residual>> {
        let mut values: Vec<i64> = self.right.iter().map(|r| r.2).collect();
        values.sort_unstable();
        let median = values.get(values.len() / 2).copied().unwrap_or(0);
        vec![None, Some(Residual::LeftAtMostRight), Some(Residual::RightAtLeast(median))]
    }

    /// The nested loop over equal group keys, right group key dropped, row
    /// by row: per left batch and, inside it, per group — a left outer
    /// join's unmatched rows after that piece's pairs.
    fn reference(&self, jt: JoinType, residual: Option<Residual>) -> Vec<Vec<i64>> {
        let passes = |l: &Row, r: &Row| {
            l.0 == r.0 && l.1 == r.1 && residual.is_none_or(|res| res.passes(l, r))
        };
        let mut out = Vec::new();
        for batch in self.left.chunks(self.chunks.0) {
            for piece in batch.chunk_by(|a, b| a.1 == b.1) {
                let mut unmatched = Vec::new();
                for l in piece {
                    let matches: Vec<&Row> = self.right.iter().filter(|r| passes(l, r)).collect();
                    let left = vec![l.0, l.1, l.2];
                    match jt {
                        JoinType::Inner => {
                            out.extend(matches.iter().map(|r| [&left[..], &[r.0, r.2]].concat()))
                        }
                        JoinType::LeftOuter => {
                            out.extend(
                                matches.iter().map(|r| [&left[..], &[r.0, r.2, 1]].concat()),
                            );
                            if matches.is_empty() {
                                unmatched.push([&left[..], &[0, 0, 0]].concat());
                            }
                        }
                        JoinType::Semi | JoinType::Anti => {
                            if matches.is_empty() == (jt == JoinType::Anti) {
                                out.push(left);
                            }
                        }
                    }
                }
                out.extend(unmatched);
            }
        }
        out
    }

    /// The most a grouped join may track: the largest right group's
    /// payload (group key dropped) plus its index.
    fn largest_group_bytes(&self) -> u64 {
        let group = |rows: &[Row]| {
            let keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
            let values = Column::from_i64(rows.iter().map(|r| r.2).collect());
            let index = JoinIndex::build(&[&keys]).estimated_bytes();
            Batch::new(vec![Column::from_i64(keys), values]).estimated_bytes() + index
        };
        self.right.chunk_by(|a, b| a.1 == b.1).map(group).max().unwrap_or(0)
    }
}

/// Run `case` as a grouped join of every type, under every residual: the
/// output rows equal the reference in order; no output batch spans two
/// left batches (the left is never concatenated); the tracked peak stays
/// within one right group; and the decision log counts the groups both
/// sides have.
fn check_grouped(case: &GroupedCase) {
    let groups =
        |rows: &[Row]| -> Vec<i64> { rows.chunk_by(|a, b| a.1 == b.1).map(|g| g[0].1).collect() };
    let (lgroups, rgroups) = (groups(&case.left), groups(&case.right));
    let shared = lgroups.iter().filter(|g| rgroups.contains(g)).count();
    let batch_of: std::collections::HashMap<i64, usize> =
        case.left.iter().enumerate().map(|(i, l)| (l.2, i / case.chunks.0)).collect();
    for jt in ALL_TYPES {
        for residual in case.residuals() {
            let want = case.reference(jt, residual);
            let (tracker, metrics) = (MemoryTracker::new(), OpMetrics::new());
            let at = format!("{jt:?} {residual:?} {case:?}");
            let join = HashJoin::grouped(
                (Box::new(Wide::new("l", &case.left, case.chunks.0)), vec![1]),
                (Box::new(Wide::new("r", &case.right, case.chunks.1)), vec![1]),
                &[("lk", "rk")],
                jt,
                residual.map(Residual::expr),
                &Needed::default(),
                OpEnv {
                    metrics: Some(metrics.clone()),
                    ..OpEnv::new(IoTracker::new(), tracker.clone())
                },
            )
            .unwrap();
            let out = batches(Box::new(join));
            let mut got = Vec::new();
            for b in &out {
                let cols: Vec<&[i64]> = b.columns.iter().map(|c| c.as_i64().unwrap()).collect();
                let rows: Vec<Vec<i64>> =
                    (0..b.rows()).map(|r| cols.iter().map(|c| c[r]).collect()).collect();
                let spans: Vec<usize> = rows.iter().map(|r| batch_of[&r[2]]).collect();
                assert!(spans.windows(2).all(|w| w[0] == w[1]), "spans left batches: {at}");
                got.extend(rows);
            }
            assert_eq!(got, want, "{at}");
            assert!(tracker.peak() <= case.largest_group_bytes(), "peak: {at}");
            assert!(shared == 0 || tracker.peak() > 0, "a joined group is tracked: {at}");
            assert_eq!(tracker.current(), 0, "{at}");
            let joined = annotation(&metrics, "groups_joined").map(|n| n.parse::<usize>());
            assert_eq!(joined, Some(Ok(shared)), "{at}");
        }
    }
}

#[test]
fn grouped_join_matches_the_group_restricted_nested_loop() {
    // The inputs of the retired sandwich join's unit tests, as `(join key,
    // group key, value)`: matches within groups, a left group with no
    // right peer, skewed group streams, a memory-bounded 100-row join,
    // and the two residual kernels' 120 × 90 input.
    let ranged = |n: i64, f: fn(i64) -> Row| -> Vec<Row> { (0..n).map(f).collect() };
    let cases = [
        GroupedCase::new(
            vec![(1, 0, 100), (2, 0, 101), (3, 1, 102), (4, 2, 103)],
            vec![(1, 0, 7), (2, 0, 8), (3, 1, 9), (5, 2, 5)],
            (4, 4),
        ),
        GroupedCase::new(vec![(1, 0, 1), (2, 2, 2)], vec![(1, 1, 9), (2, 2, 9)], (4, 4)),
        GroupedCase::new(vec![(1, 0, 1), (1, 0, 2)], vec![(1, 0, 9)], (4, 4)),
        GroupedCase::new(
            ranged(100, |i| (i, i / 10, 1000 + i)),
            ranged(100, |i| (i, i / 10, i)),
            (7, 7),
        ),
        GroupedCase::new(
            ranged(120, |i| (i % 17, i / 12, 1000 + i)),
            ranged(90, |i| (i % 17, i / 9, 2000 + i)),
            (7, 7),
        ),
        // The group reader's stream: groups spanning and splitting
        // two-row batches.
        GroupedCase::new(
            ranged(6, |i| (i % 3, i / 2, i)),
            vec![(1, 0, 10), (2, 0, 20), (3, 1, 30), (4, 1, 40), (5, 2, 50)],
            (2, 2),
        ),
    ];
    for case in &cases {
        check_grouped(case);
    }
}

#[test]
fn grouped_join_handles_one_sided_and_missing_groups() {
    // Left-only groups at the start (0), middle (5) and end (8, 9);
    // right-only ones in between (2, 7); group 6 on neither side; then the
    // same streams swapped, and each against an empty side.
    let side = |groups: &[i64], per: i64| -> Vec<(i64, i64)> {
        groups.iter().flat_map(|&g| (0..per).map(move |i| ((g + i) % 3, g))).collect()
    };
    let (a, b) = (side(&[0, 1, 3, 4, 5, 8, 9], 4), side(&[1, 2, 3, 4, 7], 3));
    for chunks in [(1, 1), (3, 5), (5, 2), (64, 64)] {
        check_grouped(&GroupedCase::numbered(&a, &b, chunks));
        check_grouped(&GroupedCase::numbered(&b, &a, chunks));
        check_grouped(&GroupedCase::numbered(&a, &[], chunks));
        check_grouped(&GroupedCase::numbered(&[], &b, chunks));
    }
    check_grouped(&GroupedCase::numbered(&[], &[], (4, 4)));
}

#[test]
fn grouped_join_streams_many_small_and_one_huge_group() {
    // 200 one-row groups on each side (every other one shares its key).
    let left: Vec<(i64, i64)> = (0..200).map(|g| (g % 2, g)).collect();
    let right: Vec<(i64, i64)> = (0..200).map(|g| (0, g)).collect();
    check_grouped(&GroupedCase::numbered(&left, &right, (16, 7)));
    // One 20 000-row left group against a 3-row right group: streamed
    // batch by batch past a three-row index.
    let left: Vec<(i64, i64)> = (0..20_000).map(|i| (i % 5, 0)).collect();
    check_grouped(&GroupedCase::numbered(&left, &[(0, 0), (1, 0), (2, 0)], (4096, 2)));
}

proptest! {
    /// Random grouped inputs — one-sided groups anywhere, duplicate keys,
    /// batches down to one row — equal the nested loop on every path.
    #[test]
    fn grouped_join_matches_reference_on_random_groups(
        mut left in prop::collection::vec((0i64..4, 0i64..6), 0..40),
        mut right in prop::collection::vec((0i64..4, 0i64..6), 0..40),
        chunks in (1usize..9, 1usize..9),
    ) {
        left.sort_by_key(|r| r.1);
        right.sort_by_key(|r| r.1);
        check_grouped(&GroupedCase::numbered(&left, &right, chunks));
    }
}

// ---------------------------------------------------------------------------
// Pruned output: a join given the columns read above it emits exactly those
// (module docs of `ops::join`), and its build holds only what it reads.

/// How a pruning case runs: in memory, grouped on column 1 of each side
/// (the sandwich join), forced out of core, or as a merge join over inputs
/// ordered on the key (inner, without a residual).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Flat,
    Sandwich,
    Forced,
    Merge,
}

/// `left ⋈ right` on `lk = rk` along `path`, emitting what `emit` names,
/// with the tracker it charges.
fn pruning_join(
    (left, right): (&[Row], &[Row]),
    path: Path,
    jt: JoinType,
    residual: Option<&Expr>,
    emit: &Needed,
) -> (BoxedOp, std::sync::Arc<MemoryTracker>) {
    let tracker = MemoryTracker::new();
    if path == Path::Merge {
        assert!(jt == JoinType::Inner && residual.is_none(), "a merge join is inner, unfiltered");
        let by_key = |rows: &[Row]| {
            let mut rows = rows.to_vec();
            rows.sort_by_key(|r| r.0);
            rows
        };
        let (l, r) = (Wide::new("l", &by_key(left), 7), Wide::new("r", &by_key(right), 5));
        let join = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk"), emit).unwrap();
        return (Box::new(join), tracker);
    }
    let mut governor = Governor::none();
    if path == Path::Forced {
        governor.set_spill(SpillMode::Force);
    }
    let env = OpEnv { governor, ..OpEnv::new(IoTracker::new(), tracker.clone()) };
    let groups = if path == Path::Sandwich { vec![1] } else { vec![] };
    let join = HashJoin::grouped(
        (Box::new(Wide::new("l", left, 7)), groups.clone()),
        (Box::new(Wide::new("r", right, 5)), groups),
        &[("lk", "rk")],
        jt,
        residual.cloned(),
        emit,
        env,
    )
    .unwrap();
    (Box::new(join), tracker)
}

/// Every join type along every hash path, with no residual, one over both
/// sides and one over the build side alone, and the merge join, emitting
/// each subset of its full output's columns: the output is the full
/// join's restricted to that subset (and `__matched`), batch for batch and
/// bit for bit — or, when the subset is empty, to the first left column,
/// which keeps the rows counted. In memory, a hash join's build tracks
/// exactly its kept payload (the emitted build columns and those the
/// residual reads) plus its index.
#[test]
fn a_join_emits_exactly_the_columns_read_above() {
    let mut left = rows(60, 9, 1);
    let mut right = rows(20, 11, 4);
    left.sort_by_key(|r| r.1);
    right.sort_by_key(|r| r.1);
    let residuals =
        [None, Some(Expr::col("lv").le(Expr::col("rv"))), Some(Expr::col("rv").ge(Expr::lit(9)))];
    let _spills = SPILLS.lock().unwrap_or_else(|e| e.into_inner());
    for path in [Path::Flat, Path::Sandwich, Path::Forced, Path::Merge] {
        let (types, residuals) = match path {
            Path::Merge => (&[JoinType::Inner][..], &residuals[..1]),
            _ => (&ALL_TYPES[..], &residuals[..]),
        };
        for &jt in types {
            for residual in residuals {
                let at = |emit: &Needed| format!("{path:?} {jt:?} {residual:?} {emit:?}");
                let (full, _) =
                    pruning_join((&left, &right), path, jt, residual.as_ref(), &Needed::default());
                let schema = full.schema().clone();
                let full = batches(full);
                let names: Vec<&str> = schema.iter().map(|m| m.name.as_str()).collect();
                let columns: Vec<&str> =
                    names.iter().copied().filter(|n| *n != MATCHED_COLUMN).collect();
                for mask in 0..1u32 << columns.len() {
                    let kept: Vec<&str> = (0..columns.len())
                        .filter(|b| mask >> b & 1 == 1)
                        .map(|b| columns[b])
                        .collect();
                    let emit = Needed::only(kept.iter().copied());
                    let (join, tracker) =
                        pruning_join((&left, &right), path, jt, residual.as_ref(), &emit);
                    let mut keep: Vec<usize> = (0..names.len())
                        .filter(|&c| emit.contains(names[c]) || names[c] == MATCHED_COLUMN)
                        .collect();
                    if keep.is_empty() {
                        keep.push(0);
                    }
                    let want: Vec<Batch> = full
                        .iter()
                        .map(|b| Batch::new(keep.iter().map(|&c| b.columns[c].clone()).collect()))
                        .collect();
                    assert_eq!(batches(join), want, "{}", at(&emit));
                    assert_eq!(tracker.current(), 0, "{}", at(&emit));
                    if matches!(path, Path::Forced | Path::Merge) {
                        continue;
                    }
                    // The build payload: the emitted right columns, then
                    // those only the residual reads.
                    let mut payload: Vec<&str> =
                        kept.iter().copied().filter(|n| n.starts_with('r')).collect();
                    // (Both residuals read `rv` of the build side.)
                    if residual.is_some() && !payload.contains(&"rv") {
                        payload.push("rv");
                    }
                    let build = |rows: &[Row]| {
                        let keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
                        8 * (rows.len() * payload.len()) as u64
                            + JoinIndex::build(&[&keys]).estimated_bytes()
                    };
                    let want = match path {
                        Path::Sandwich => right
                            .chunk_by(|a, b| a.1 == b.1)
                            .filter(|g| left.iter().any(|l| l.1 == g[0].1))
                            .map(build)
                            .max()
                            .unwrap_or(0),
                        _ => build(&right),
                    };
                    assert_eq!(tracker.peak(), want, "tracked build: {}", at(&emit));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The key word and the directory: `JoinIndex` on its own against a nested
// loop, in each of its forms — a single column or several packed into one
// word, under a direct or a hashed directory, and keys too wide to pack.

/// Key columns, one `Vec` per column.
type KeyCols = Vec<Vec<i64>>;

/// The hashed directory's length for `n` build rows.
fn hashed_len(n: usize) -> usize {
    (n.max(4) * 2).next_power_of_two()
}

/// Index `build`, probe it with `probe` through every entry point, and
/// check each against a nested loop: pairs in probe order with build rows
/// ascending, existence, and the per-key lookups. The index never holds
/// more than the hashed layout with one word per key column would.
fn check_index(build: &KeyCols, probe: &KeyCols) -> JoinIndex {
    let bcols: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
    let pcols: Vec<&[i64]> = probe.iter().map(Vec::as_slice).collect();
    let (n, m) = (build[0].len(), probe[0].len());
    let row = |cols: &KeyCols, r: usize| cols.iter().map(|c| c[r]).collect::<Vec<i64>>();
    let (mut want_l, mut want_r) = (Vec::new(), Vec::new());
    for p in 0..m {
        for b in 0..n {
            if row(probe, p) == row(build, b) {
                want_l.push(p);
                want_r.push(b as u32);
            }
        }
    }
    let idx = JoinIndex::build(&bcols);
    let (mut lidx, mut ridx, mut exists) = (Vec::new(), Vec::new(), Vec::new());
    idx.probe_pairs(&pcols, &mut lidx, &mut ridx);
    idx.probe_exists(&pcols, &mut exists);
    assert_eq!((&lidx, &ridx), (&want_l, &want_r), "pairs");
    let mut want_exists = want_l.clone();
    want_exists.dedup();
    assert_eq!(exists, want_exists, "exists");
    for p in 0..m {
        let mut one = Vec::new();
        idx.for_each_match(&row(probe, p), |b| one.push(b));
        let want: Vec<u32> = (0..lidx.len()).filter(|&i| lidx[i] == p).map(|i| ridx[i]).collect();
        assert_eq!(one, want, "matches of probe row {p}");
        assert_eq!(idx.has_match(&row(probe, p)), !want.is_empty());
    }
    let hashed = 4 * hashed_len(n) + 4 * n + 8 * n * build.len();
    assert!(idx.estimated_bytes() <= hashed as u64, "{} > {hashed}", idx.estimated_bytes());
    assert_eq!(idx.len(), n);
    idx
}

/// Probe values for a build column: all of its values, one either side of
/// its range, and the `i64` extremes.
fn probe_values(col: &[i64]) -> Vec<i64> {
    let (lo, hi) = (col.iter().min().copied(), col.iter().max().copied());
    let mut v = col.to_vec();
    v.extend(lo.map(|lo| lo.wrapping_sub(1)));
    v.extend(hi.map(|hi| hi.wrapping_add(1)));
    v.extend([i64::MIN, i64::MAX, 0, -1]);
    v
}

/// A probe of every build row, plus rows where each column in turn takes
/// each of its [`probe_values`] while the others keep a build row's values:
/// a value outside the build's range in one column of a composite key.
fn probe_for(build: &KeyCols) -> KeyCols {
    let mut probe = build.clone();
    let n = build[0].len();
    for (c, col) in build.iter().enumerate() {
        for (i, v) in probe_values(col).into_iter().enumerate() {
            for (d, out) in probe.iter_mut().enumerate() {
                out.push(if d == c {
                    v
                } else if n > 0 {
                    build[d][i % n]
                } else {
                    v
                });
            }
        }
    }
    probe
}

#[test]
fn key_words_at_the_i64_extremes_and_over_negative_ranges() {
    let cases: Vec<KeyCols> = vec![
        vec![vec![i64::MIN, i64::MAX, 0, i64::MIN, -1]],
        vec![vec![i64::MIN, i64::MIN + 1, i64::MIN + 3, i64::MIN]],
        vec![vec![i64::MAX, i64::MAX - 2, i64::MAX]],
        vec![(-100..-50).collect()],
        vec![(-30..30).rev().collect()],
        vec![vec![-5, -3, -5, -1], vec![i64::MIN, i64::MIN + 1, i64::MIN, i64::MIN]],
        vec![vec![i64::MAX, i64::MAX - 1], vec![-7, -9]],
        vec![vec![i64::MIN, i64::MAX], vec![0, 1]],
    ];
    for build in &cases {
        check_index(build, &probe_for(build));
    }
    // A negative single-column range goes direct; extremes in one column
    // hash.
    assert!(check_index(&cases[3], &probe_for(&cases[3])).is_direct());
    assert!(check_index(&cases[1], &probe_for(&cases[1])).is_direct());
    assert!(!check_index(&cases[0], &probe_for(&cases[0])).is_direct());
}

#[test]
fn a_probe_value_outside_one_columns_range_matches_nothing() {
    // Two 2-bit columns: without the out-of-range bit, (4, 0) would pack
    // to (0, 1)'s word and (0, -1) to a word past the top of the range.
    let a: Vec<i64> = (0..16).map(|i| i % 4).collect();
    let b: Vec<i64> = (0..16).map(|i| i / 4).collect();
    let build = vec![a, b];
    let probe = vec![vec![4, 0, -1, 3, 0, 8, 3], vec![0, -1, 0, 4, 4, 3, 3]];
    let idx = check_index(&build, &probe);
    assert!(idx.is_direct());
    let mut lidx = Vec::new();
    idx.probe_exists(&[&probe[0], &probe[1]], &mut lidx);
    assert_eq!(lidx, vec![6]);
    check_index(&build, &probe_for(&build));
}

#[test]
fn word_ranges_at_the_hashed_directorys_length_and_one_past_it() {
    for n in [1usize, 3, 4, 5, 100, 1000] {
        let len = hashed_len(n) as i64;
        for (extra, direct) in [(0, true), (1, false)] {
            // Single column: `n` keys from `base` to `base + len - 1 + extra`.
            for base in [-len / 2, 0, 1 << 40, i64::MIN] {
                let mut col: Vec<i64> = (0..n as i64).map(|i| base + i).collect();
                *col.last_mut().unwrap() = base + len - 1 + extra;
                if n == 1 {
                    col[0] = base;
                    if extra == 0 {
                        continue;
                    }
                    col.push(base + len);
                }
                let build = vec![col];
                let idx = check_index(&build, &probe_for(&build));
                assert_eq!(idx.is_direct(), direct, "n {n} base {base} extra {extra}");
            }
            // Two columns whose packed words span `len` (+ extra) words: the
            // low column takes 4 bits, the high one the rest.
            if len >= 16 {
                let top = (len - 1) >> 4;
                let mut a: Vec<i64> = (0..n as i64).map(|i| i % 16).collect();
                let mut b: Vec<i64> = (0..n as i64).map(|i| (i / 16) % (top + 1)).collect();
                (a[0], b[0]) = (0, 0);
                (a[1], b[1]) = (15, top);
                if extra == 1 {
                    (a[2], b[2]) = (0, top + 1);
                }
                let build = vec![a, b];
                let idx = check_index(&build, &probe_for(&build));
                assert_eq!(idx.is_direct(), direct, "two columns, n {n} extra {extra}");
            }
        }
    }
}

#[test]
fn duplicate_keys_walk_their_chains_in_build_order() {
    for build in [
        vec![vec![3, 1, 3, 3, 2, 1, 3]],
        vec![(0..50).map(|i| (i * 7) % 5).collect()],
        vec![(0..50).map(|i| ((i * 7) % 5) << 30).collect()],
        vec![vec![1, 2, 1, 1], vec![9, 9, 9, 9]],
        vec![vec![1, 2, 1, 1], vec![0, i64::MAX, 0, 0]],
        vec![vec![i64::MIN, 2, i64::MIN, 2], vec![i64::MAX, 0, i64::MAX, 0]],
    ] {
        check_index(&build, &probe_for(&build));
    }
}

#[test]
fn empty_builds_match_nothing() {
    for k in 1..=3 {
        let build: KeyCols = vec![Vec::new(); k];
        let probe: KeyCols = (0..k).map(|_| vec![0, -1, 1, i64::MIN, i64::MAX]).collect();
        let idx = check_index(&build, &probe);
        assert!(idx.is_empty());
    }
}

#[test]
fn key_widths_of_63_bits_pack_and_of_64_do_not() {
    // 31 + 32 bits pack into one word an entry; 31 + 33 keep both values.
    for (wide, words) in [(32, 1), (33, 2)] {
        let n = 64usize;
        let a: Vec<i64> = (0..n as i64).map(|i| (i * 0x1234_5677) & ((1 << 31) - 1)).collect();
        let mut b: Vec<i64> =
            (0..n as i64).map(|i| (i * 0x7654_3211) & ((1 << wide) - 1)).collect();
        let (mut a, b0) = (a, -(1i64 << 20));
        (a[0], b[0]) = (0, b0);
        (a[1], b[1]) = ((1 << 31) - 1, b0 + (1 << wide) - 1);
        let build = vec![a, b];
        let idx = check_index(&build, &probe_for(&build));
        assert!(!idx.is_direct());
        let want = 4 * hashed_len(n) + 4 * n + 8 * n * words;
        assert_eq!(idx.estimated_bytes(), want as u64, "{wide}-bit second column");
    }
}

proptest! {
    /// Random builds — one to three columns, each a random offset and
    /// span, dense or sparse, with duplicates — probed with every build row
    /// and values either side of each column's range.
    #[test]
    fn join_index_matches_a_nested_loop(
        cols in prop::collection::vec((0usize..7, 0usize..7), 1..4),
        picks in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        const BASES: [i64; 7] = [i64::MIN, -1 << 40, -1000, 0, 7, 1 << 50, i64::MAX - 64];
        const SPANS: [u64; 7] = [1, 3, 16, 64, 1 << 20, 1 << 62, u64::MAX];
        let build: KeyCols = cols
            .iter()
            .enumerate()
            .map(|(c, &(b, s))| {
                let (base, span) = (BASES[b], SPANS[s]);
                picks.iter().map(|&p| base.wrapping_add(((p >> (c * 7)) % span) as i64)).collect()
            })
            .collect();
        check_index(&build, &probe_for(&build));
    }
}
