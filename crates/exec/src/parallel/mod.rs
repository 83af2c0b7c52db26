//! # Morsel-driven parallel execution
//!
//! The paper's host system, Vectorwise, is a parallel vectorized engine;
//! this subsystem gives the reproduction the same property without any
//! dependency beyond `std` threads. The design follows the morsel-driven
//! model (Leis et al., SIGMOD 2014) specialized to BDCC storage:
//!
//! ## The morsel model
//!
//! A leaf [`Scan`] reads an ordered list of **runs** — the selected
//! count-table groups of a BDCC table in the planner's scatter order
//! (`T_COUNT` group ranges are disjoint row ranges, the natural parallelism
//! unit of the paper's storage layout), or the MinMax blocks of a
//! Plain / PK table — emits at most one batch per run and never lets a
//! batch cross one. A scan **morsel** is a contiguous range of run indices
//! ([`morsel::split_runs`]: whole runs, coalesced up to the row budget), so
//! morsel boundaries are batch boundaries of the inline walk.
//!
//! One **persistent, process-wide [worker pool](pool::WorkerPool)** of
//! `std` threads (`bdcc-pool`, whose module docs hold the contracts)
//! executes per-morsel operator fragments — scan, then any filter/project
//! steps, then (when the plan shape allows) a per-worker *partial
//! aggregate*. The pool's workers are created once (warmed by
//! [`QueryContext::with_parallel`]) and parked between fan-outs, so an
//! aggregation fan-out costs queue operations, not thread create/join;
//! nested fan-outs are deadlock-free because a blocked fan-out lends its
//! calling thread to the pool. The leaf scan itself streams: wider than
//! one thread and longer than one morsel, [`Scan`] submits its morsels to
//! the same pool through a **bounded reorder buffer**
//! ([`pool::OrderedStream`]), so downstream
//! operators consume batches while workers are still scanning and peak
//! memory stays O(threads × morsel) instead of O(table); at one thread or
//! one morsel the same operator walks its runs on the calling thread.
//!
//! Those two leaf fan-outs are all of it: everything above a leaf — join
//! builds and probes, sorts, every other aggregate — runs on the calling
//! thread, as at width 1.
//!
//! ## Merge contracts
//!
//! Partial results are merged **in morsel order**, never in completion
//! order:
//!
//! * leaf streams concatenate ordered ([`pool::OrderedStream`]),
//!   reproducing the inline walk's batch stream *exactly* — every
//!   downstream serial operator therefore behaves identically to serial
//!   execution;
//! * partial hash-aggregation states fold left-to-right
//!   ([`ParallelAggregate`]), reproducing the serial first-seen group
//!   order and exact integer aggregates; float Sum/Avg use
//!   Neumaier-compensated accumulation on both the serial and parallel
//!   paths, so both land within ~1 ulp of the true sum and agree after
//!   [`canonical_rows`](crate::run::canonical_rows) rounding.
//!
//! The result: for every plan, parallel execution returns results
//! identical to serial execution (verified for all 22 TPC-H queries under
//! all three schemes by `tests/parallel_equivalence.rs`).
//!
//! Per-morsel partials have nothing to shed, so under an active
//! [`MemoryBroker`](crate::broker::MemoryBroker) the planner builds no
//! [`ParallelAggregate`]: the serial
//! [`HashAggregate`](crate::ops::agg::HashAggregate) above the streaming
//! scan is the aggregate that spills.
//!
//! ## Opting in
//!
//! Width is a value: every [`QueryContext`] carries a [`ParallelConfig`],
//! and `threads: 1` — what [`QueryContext::new`] installs — is serial
//! execution. [`QueryContext::with_parallel`] installs a wider one; every
//! leaf [`Scan`] then streams when it is longer than one morsel, and the
//! planner swaps eligible leaf aggregates for [`ParallelAggregate`]
//! (broker inert). The rest of the operator tree is the serial one.
//! The two fields of the config are the whole configuration: nothing in
//! the environment changes what a given [`ParallelConfig`] does.
//!
//! [`Scan`]: crate::ops::scan::Scan
//! [`QueryContext`]: crate::planner::QueryContext
//! [`QueryContext::new`]: crate::planner::QueryContext::new
//! [`QueryContext::with_parallel`]: crate::planner::QueryContext::with_parallel

pub mod morsel;

/// The shared worker pool, re-exported where the executor's callers look
/// for it.
pub mod pool {
    pub use bdcc_pool::{OrderedStream, PoolStats, WorkerPool};
}

use std::sync::Arc;

use bdcc_obs::{OpMetrics, SpanTimer};
use bdcc_storage::IoTracker;

use crate::batch::{Batch, OpSchema};
use crate::error::Result;
use crate::expr::Expr;
use crate::govern::Governor;
use crate::memory::MemoryTracker;
use crate::ops::agg::{AggSpec, PartialAgg};
use crate::ops::scan::{Scan, ScanBlueprint};
use crate::ops::transform::{Filter, Project};
use crate::ops::{BoxedOp, Operator};

pub use morsel::Morsel;

/// Default morsel size in rows (two MinMax blocks): small enough that a
/// laptop-scale table yields many times more morsels than workers (the
/// slack that keeps every worker busy to the end of a fan-out), large
/// enough that per-morsel setup is noise.
pub const DEFAULT_MORSEL_ROWS: usize = 8192;

/// Parallel execution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (1 = serial execution, the planner changes nothing).
    pub threads: usize,
    /// Target rows per morsel.
    pub morsel_rows: usize,
}

impl ParallelConfig {
    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig { threads: threads.max(1), morsel_rows: DEFAULT_MORSEL_ROWS }
    }

    /// Is splitting a `rows`-row leaf worth the fan-out?
    pub(crate) fn worth_splitting(&self, rows: usize) -> bool {
        self.threads > 1 && rows > self.morsel_rows
    }
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// A serial operator step applied on top of a leaf scan inside a parallel
/// fragment (each worker replays the steps over its morsel's stream).
pub enum FragmentStep {
    Filter(Expr),
    Project(Vec<(Expr, String)>),
}

/// A leaf scan plus the filter/project steps between it and the fragment
/// boundary — everything a worker needs to rebuild its slice of the plan.
pub struct FragmentBlueprint {
    pub scan: Arc<ScanBlueprint>,
    pub steps: Vec<FragmentStep>,
}

impl FragmentBlueprint {
    /// Build the fragment operator over one morsel of the leaf's runs.
    pub fn build(&self, io: &IoTracker, morsel: Morsel) -> Result<BoxedOp> {
        let mut op: BoxedOp = Box::new(Scan::over(Arc::clone(&self.scan), io.clone(), morsel));
        for step in &self.steps {
            op = match step {
                FragmentStep::Filter(e) => Box::new(Filter::new(op, e.clone())?),
                FragmentStep::Project(exprs) => Box::new(Project::new(op, exprs.clone())?),
            };
        }
        Ok(op)
    }
}

/// Book one finished morsel task of `rows` rows, timed by `span`, on an
/// operator's metric block (both `None` unprofiled: a no-op).
pub(crate) fn note_morsel(metrics: &Option<Arc<OpMetrics>>, span: Option<SpanTimer>, rows: u64) {
    if let (Some(m), Some(span)) = (metrics, span) {
        m.morsels.add(1);
        m.morsel_rows.add(rows);
        m.morsel_nanos.record(span.elapsed_nanos());
    }
}

/// Morsel-parallel partial-merge aggregation over a scan fragment: each
/// worker runs scan→filter→project over its morsels and accumulates a
/// [`PartialAgg`]; partials fold in morsel order and flush once (the
/// module docs explain why this reproduces serial results). Nothing here can be shed:
/// per-morsel partials re-materialize the groups they see, so peak state is
/// O(groups × morsels sharing a group), and a caller who needs bounded peak
/// memory sets a budget
/// ([`QueryContext::with_memory_budget`](crate::planner::QueryContext::with_memory_budget)),
/// under which the planner builds the spilling
/// [`HashAggregate`](crate::ops::agg::HashAggregate) instead.
pub struct ParallelAggregate {
    fragment: FragmentBlueprint,
    /// An empty partial: every morsel's starts as a copy of it.
    empty: PartialAgg,
    io: IoTracker,
    cfg: ParallelConfig,
    tracker: Arc<MemoryTracker>,
    done: bool,
    /// Profiling hook (planner-installed): morsel counts/latencies from
    /// the fan-out workers. `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query limits, polled once per fan-out task. Inert by default.
    governor: Governor,
}

impl ParallelAggregate {
    pub fn new(
        fragment: FragmentBlueprint,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        io: IoTracker,
        cfg: ParallelConfig,
        tracker: Arc<MemoryTracker>,
    ) -> Result<ParallelAggregate> {
        let empty = PartialAgg::new(fragment.build(&io, 0..0)?.schema(), group_by, &aggs)?;
        Ok(ParallelAggregate {
            fragment,
            empty,
            io,
            cfg,
            tracker,
            done: false,
            metrics: None,
            governor: Governor::none(),
        })
    }

    /// Attach the profiling metric block (planner-installed).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> ParallelAggregate {
        self.metrics = metrics;
        self
    }

    /// Attach the query's governor (planner-installed).
    pub fn with_governor(mut self, governor: Governor) -> ParallelAggregate {
        self.governor = governor;
        self
    }

    /// Aggregate one morsel into a fresh partial (the partial-merge
    /// worker body). Also returns the morsel's row count (profiling).
    fn morsel_partial(&self, morsel: &Morsel) -> Result<(PartialAgg, u64)> {
        let mut op = self.fragment.build(&self.io, morsel.clone())?;
        let mut p = self.empty.clone();
        let mut rows = 0u64;
        while let Some(b) = op.next()? {
            rows += b.rows() as u64;
            p.consume(&b)?;
        }
        Ok((p, rows))
    }
}

impl Operator for ParallelAggregate {
    fn schema(&self) -> &OpSchema {
        self.empty.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let morsels = self.fragment.scan.morsels(self.cfg.morsel_rows);
        let mut partials = pool::WorkerPool::shared().scope_run(
            self.cfg.threads,
            morsels.len(),
            "agg-partial",
            |i| -> Result<PartialAgg> {
                self.governor.check("agg-partial")?;
                let span = self.metrics.as_ref().map(|_| SpanTimer::start());
                let (p, rows) = self.morsel_partial(&morsels[i])?;
                note_morsel(&self.metrics, span, rows);
                Ok(p)
            },
        )?;
        if partials.is_empty() {
            // No morsels: the global aggregate's zero row.
            partials.push(self.empty.clone());
        }
        let bytes: u64 = partials.iter().map(|p| p.estimated_bytes()).sum();
        let _mem = self.tracker.register(bytes);
        // Fold in morsel order (module docs) and flush once.
        let mut partials = partials.into_iter();
        let mut acc = partials.next().expect("at least the empty partial");
        for p in partials {
            acc.merge(p)?;
        }
        Ok(Some(acc.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::agg::{AggFunc, HashAggregate};
    use crate::ops::collect;
    use crate::pred::ColPredicate;
    use bdcc_storage::{Column, StoredTable};

    fn table(rows: usize) -> Arc<StoredTable> {
        let k: Vec<i64> = (0..rows as i64).collect();
        let g: Vec<i64> = (0..rows as i64).map(|i| i % 7).collect();
        let f: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.37).collect();
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("k".into(), Column::from_i64(k)),
                    ("g".into(), Column::from_i64(g)),
                    ("f".into(), Column::from_f64(f)),
                ],
                16,
            )
            .unwrap(),
        )
    }

    fn blueprint(t: &Arc<StoredTable>, preds: Vec<ColPredicate>) -> Arc<ScanBlueprint> {
        ScanBlueprint::blocks(Arc::clone(t), &["k", "g", "f"], preds).unwrap()
    }

    #[test]
    fn parallel_aggregate_matches_hash_aggregate() {
        let t = table(2000);
        let io = IoTracker::new();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col("k"), "sk"),
            AggSpec::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggSpec::new(AggFunc::Avg, Expr::col("f"), "af"),
            AggSpec::new(AggFunc::Min, Expr::col("k"), "mn"),
            AggSpec::new(AggFunc::Max, Expr::col("k"), "mx"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::CountDistinct, Expr::col("g"), "nd"),
        ];
        let serial_in: BoxedOp =
            Box::new(Scan::blocks(Arc::clone(&t), io.clone(), &["k", "g", "f"], vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(serial_in, &["g"], aggs.clone(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 48 };
        let par = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: blueprint(&t, vec![]), steps: vec![] },
                &["g"],
                aggs,
                io,
                cfg,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        // Integer aggregates, group keys and group order are exact; float
        // Sum/Avg are only promised to ~1 ulp (different accumulation
        // association), so compare through the canonical rounding the
        // cross-scheme tests use rather than bitwise.
        assert_eq!(crate::run::canonical_rows(&serial), crate::run::canonical_rows(&par));
        assert_eq!(serial.rows(), par.rows());
        assert_eq!(serial.columns[0], par.columns[0], "group keys and order must be exact");
    }

    #[test]
    fn parallel_global_aggregate_over_empty_selection_yields_zero_row() {
        let t = table(100);
        let io = IoTracker::new();
        let aggs = vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
        let cfg = ParallelConfig { threads: 2, morsel_rows: 16 };
        let bp = blueprint(&t, vec![ColPredicate::eq("k", 1_000_000i64)]);
        let par = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: bp, steps: vec![] },
                &[],
                aggs,
                io,
                cfg,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        assert_eq!(par.rows(), 1);
        assert_eq!(par.columns[0].as_i64().unwrap(), &[0]);
    }

    #[test]
    fn fragment_steps_apply_per_worker() {
        let t = table(600);
        let io = IoTracker::new();
        let steps = vec![
            FragmentStep::Filter(Expr::col("k").lt(Expr::lit(300))),
            FragmentStep::Project(vec![(Expr::col("g"), "g".into())]),
        ];
        let cfg = ParallelConfig { threads: 3, morsel_rows: 32 };
        let par = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: blueprint(&t, vec![]), steps },
                &["g"],
                vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")],
                io,
                cfg,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        // 300 rows over 7 groups: sizes 43 except g ∈ {0,1,2} get 43 and
        // the count sums to 300.
        let total: i64 = par.columns[1].as_i64().unwrap().iter().sum();
        assert_eq!(total, 300);
        assert_eq!(par.rows(), 7);
    }
}
