//! Property tests of the flat allocation-free join index (`exec::hash`)
//! through the `HashJoin` operator: every join flavor must agree with a
//! naive nested-loop reference on random data, and the hash-partitioned
//! parallel build must be **byte-identical** to the serial one.

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::join::{HashJoin, JoinType};
use bdcc::exec::ops::{collect, Operator};
use bdcc::exec::{canonical_rows, Expr, MemoryTracker, ParallelConfig};
use bdcc::storage::{Column, DataType};

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
