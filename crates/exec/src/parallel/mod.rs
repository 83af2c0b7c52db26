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
//! ([`morsel::split_runs`]: whole runs, coalesced up to the row budget,
//! never cut inside a co-cluster — adjacent runs with equal group keys),
//! so morsel boundaries are batch boundaries of the inline walk.
//!
//! ## The one fan-out
//!
//! Everything parallel in the executor is one primitive, `FanOut`: it
//! runs a [`FragmentBlueprint`] — the leaf scan, then any filter/project
//! steps — over each morsel on the **persistent, process-wide
//! [worker pool](pool::WorkerPool)** (`bdcc-pool`, whose module docs hold
//! the contracts), folds the morsel's batches into one value, keeps that
//! value charged to the operator's memory tracker while it is in flight,
//! and releases the values **in morsel order** through a bounded reorder
//! buffer ([`pool::OrderedStream`], two morsels per thread). A morsel's
//! storage reads are logged on a deferred I/O tracker and booked as its
//! value is released, so I/O counts do not depend on how workers
//! interleave. Its one worker body polls the governor once per morsel and
//! books the morsel metrics; the site label (`agg-partial`,
//! `agg-co-cluster`) names the fan-out in both. What fans out is an
//! aggregate directly over a leaf fragment, never a leaf on its own:
//!
//! * [`ParallelAggregate`] (a hash aggregate) folds a morsel into a
//!   [`PartialAgg`] and merges the partials in morsel order as they arrive;
//! * [`CoClusterAggregate`] (a sandwich aggregate, ref \[3\]) folds a
//!   morsel — whole co-clusters — into a `PartialAgg` and finishes it on
//!   the worker; the consumer hands the finished groups on in morsel order
//!   with no merge, holding O(threads × morsel output).
//!
//! Whether an aggregate fans out is `ParallelConfig::split`: wider than one
//! thread and more than one morsel. Every scan anywhere else — under a
//! join, under a streaming aggregate, at the root — walks its runs on the
//! calling thread, as does everything above a leaf aggregate: join builds
//! and probes, sorts, every other aggregate.
//!
//! ## Merge contracts
//!
//! Results are released **in morsel order**, never in completion order:
//!
//! * partial hash-aggregation states fold left-to-right
//!   ([`ParallelAggregate`]), reproducing the serial first-seen group
//!   order and exact integer aggregates; float Sum/Avg use
//!   Neumaier-compensated accumulation on both the serial and parallel
//!   paths, so both land within ~1 ulp of the true sum and agree after
//!   [`canonical_rows`](crate::run::canonical_rows) rounding;
//! * finished co-clusters concatenate ([`CoClusterAggregate`]): the
//!   group-by determines the co-cluster, so no group spans two morsels,
//!   and each group folds the same rows in the same order as the serial
//!   per-co-cluster flush — the rows, their order and every sum are the
//!   serial ones, bit for bit.
//!
//! The result: for every plan, parallel execution returns results
//! identical to serial execution (verified for all 22 TPC-H queries under
//! all three schemes by `tests/parallel_equivalence.rs`).
//!
//! Per-morsel results have nothing to shed, so when the query spills
//! ([`Governor::spills`](crate::govern::Governor::spills)) nothing fans
//! out: the serial [`HashAggregate`](crate::ops::agg::HashAggregate) over
//! an inline leaf is the aggregate that spills.
//!
//! ## Opting in
//!
//! Width is a value: every [`QueryContext`] carries a [`ParallelConfig`],
//! and `threads: 1` — what [`QueryContext::new`] installs — is serial
//! execution (the context clamps `threads: 0` to it).
//! [`QueryContext::with_parallel`] installs a wider one; the planner then
//! swaps each eligible leaf aggregate whose scan makes more than one morsel
//! for its fan-out when the query does not spill. The rest of the operator
//! tree is the serial one. Nothing in the environment or in the query's
//! limits changes what a given [`ParallelConfig`] does.
//!
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

use bdcc_obs::SpanTimer;
use bdcc_storage::IoTracker;

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::Governor;
use crate::memory::MemoryGuard;
use crate::ops::agg::{AggSpec, PartialAgg};
use crate::ops::scan::{Scan, ScanBlueprint};
use crate::ops::transform::{Filter, Project};
use crate::ops::{BoxedOp, OpEnv, Operator};

pub use morsel::Morsel;

/// Default morsel size in rows (two MinMax blocks): small enough that a
/// laptop-scale table yields many times more morsels than workers (the
/// slack that keeps every worker busy to the end of a fan-out), large
/// enough that per-morsel setup is noise.
pub const DEFAULT_MORSEL_ROWS: usize = 8192;

/// Morsels a fan-out keeps alive per thread — running, finished and
/// waiting for their turn, or held by the consumer: enough slack that
/// workers rarely wait on the consumer, small enough that peak memory stays
/// O(threads × morsel).
const WINDOW_PER_THREAD: usize = 2;

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

    /// The morsels a leaf aggregate's fan-out over `scan` runs, or `None`
    /// when the aggregate runs serially over its scan walked inline: at one
    /// thread, or when the runs make one morsel.
    pub(crate) fn split(&self, scan: &ScanBlueprint) -> Option<Vec<Morsel>> {
        if self.threads <= 1 {
            return None;
        }
        let morsels = scan.morsels(self.morsel_rows);
        (morsels.len() > 1).then_some(morsels)
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
#[derive(Clone)]
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
    /// Build the fragment operator over one morsel of the leaf's runs; its
    /// scan reads through `env.io` and books the blocks it skips on
    /// `env.metrics`. The fan-out polls the governor once per morsel, so
    /// the scan does not poll it per batch.
    pub(crate) fn build(&self, env: &OpEnv, morsel: Morsel) -> Result<BoxedOp> {
        let env = OpEnv { governor: Governor::none(), ..env.clone() };
        let mut op: BoxedOp = Box::new(Scan::over(Arc::clone(&self.scan), env, morsel));
        for step in &self.steps {
            op = match step {
                FragmentStep::Filter(e) => Box::new(Filter::new(op, e.clone())?),
                FragmentStep::Project(exprs) => Box::new(Project::new(op, exprs.clone())?),
            };
        }
        Ok(op)
    }
}

/// What a worker folds one morsel's batches into.
pub(crate) trait MorselFold: Clone + Send + Sync + 'static {
    /// What the consumer receives for a morsel.
    type Done: Send + 'static;
    fn fold(&mut self, batch: Batch) -> Result<()>;
    /// The morsel's value once its last batch is folded, and the bytes it
    /// holds, charged while it is in flight.
    fn done(self) -> (Self::Done, u64);
}

impl MorselFold for PartialAgg {
    type Done = PartialAgg;

    fn fold(&mut self, batch: Batch) -> Result<()> {
        self.consume(&batch)
    }

    fn done(self) -> (PartialAgg, u64) {
        let bytes = self.estimated_bytes();
        (self, bytes)
    }
}

/// A sandwich aggregate's morsel: whole co-clusters, so its groups are
/// final once its last batch is folded.
#[derive(Clone)]
pub(crate) struct CoClusters(PartialAgg);

impl MorselFold for CoClusters {
    type Done = Batch;

    fn fold(&mut self, batch: Batch) -> Result<()> {
        self.0.consume(&batch)
    }

    fn done(mut self) -> (Batch, u64) {
        let out = self.0.finish();
        let bytes = out.estimated_bytes();
        (out, bytes)
    }
}

/// The executor's one fan-out (see the [module docs](self)): each pool task
/// builds the fragment over one morsel and folds its batches into a copy of
/// `empty`, then finishes it ([`MorselFold::done`]); [`recv`](Self::recv)
/// returns the finished values in morsel order, each with the registration
/// on `env.tracker` that keeps it charged until the consumer drops it. Workers book block skips, morsel counts and
/// latencies on `env.metrics`, the consumer the reorder buffer's occupancy,
/// and `env.governor` is polled once per morsel, so cancellation stops a
/// fan-out within one morsel. Nothing runs before the first `recv`.
pub(crate) struct FanOut<T: MorselFold> {
    fragment: Arc<FragmentBlueprint>,
    morsels: Vec<Morsel>,
    empty: T,
    env: OpEnv,
    threads: usize,
    /// Names the fan-out in governor checkpoints and worker panics.
    site: &'static str,
    stream: Option<pool::OrderedStream<Released<T>, ExecError>>,
}

/// A finished morsel as its worker hands it over: the value, its
/// registration, and its deferred storage reads.
type Released<T> = (<T as MorselFold>::Done, MemoryGuard, IoTracker);

impl<T: MorselFold> FanOut<T> {
    pub(crate) fn new(
        fragment: Arc<FragmentBlueprint>,
        morsels: Vec<Morsel>,
        empty: T,
        env: OpEnv,
        threads: usize,
        site: &'static str,
    ) -> FanOut<T> {
        FanOut { fragment, morsels, empty, env, threads, site, stream: None }
    }

    /// The next morsel's value in morsel order, `None` after the last.
    pub(crate) fn recv(&mut self) -> Result<Option<(T::Done, MemoryGuard)>> {
        if self.stream.is_none() {
            self.stream = Some(self.spawn());
        }
        let stream = self.stream.as_mut().expect("spawned above");
        if let Some(m) = &self.env.metrics {
            m.occupancy_hwm.record(stream.buffered() as u64);
        }
        Ok(stream.recv()?.map(|(value, mem, io)| {
            io.replay_into(&self.env.io);
            (value, mem)
        }))
    }

    fn spawn(&mut self) -> pool::OrderedStream<Released<T>, ExecError> {
        let (fragment, morsels) = (Arc::clone(&self.fragment), std::mem::take(&mut self.morsels));
        let (empty, env, site) = (self.empty.clone(), self.env.clone(), self.site);
        let window = self.threads * WINDOW_PER_THREAD;
        pool::OrderedStream::spawn(self.threads, morsels.len(), window, site, move |i| {
            env.governor.check(site)?;
            let span = env.metrics.as_ref().map(|_| SpanTimer::start());
            let io = IoTracker::deferred();
            let mut op =
                fragment.build(&OpEnv { io: io.clone(), ..env.clone() }, morsels[i].clone())?;
            let (mut out, mut rows) = (empty.clone(), 0u64);
            while let Some(b) = op.next()? {
                rows += b.rows() as u64;
                out.fold(b)?;
            }
            if let (Some(m), Some(span)) = (&env.metrics, span) {
                m.morsels.add(1);
                m.morsel_rows.add(rows);
                m.morsel_nanos.record(span.elapsed_nanos());
            }
            let (out, bytes) = out.done();
            Ok((out, env.tracker.register(bytes), io))
        })
    }
}

/// Morsel-parallel partial-merge aggregation over a scan fragment: each
/// morsel folds into a [`PartialAgg`] on the pool, and the partials merge
/// in morsel order as they arrive and flush once (the module docs explain
/// why this reproduces serial results). Tracked state is the running merge
/// plus the fan-out's window of partials. Nothing here can be shed:
/// per-morsel partials re-materialize the groups they see, and a caller
/// who needs bounded peak memory sets a budget
/// ([`QueryContext::with_memory_budget`](crate::planner::QueryContext::with_memory_budget)),
/// under which the planner builds the spilling
/// [`HashAggregate`](crate::ops::agg::HashAggregate) instead.
pub struct ParallelAggregate {
    partials: FanOut<PartialAgg>,
    /// An empty partial: the output schema, and the zero row of a global
    /// aggregate over no morsels.
    empty: PartialAgg,
    done: bool,
}

impl ParallelAggregate {
    /// The aggregate over `morsels` of `fragment` (what
    /// `ParallelConfig::split` made of its scan), `threads` wide.
    pub fn new(
        fragment: FragmentBlueprint,
        morsels: Vec<Morsel>,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        threads: usize,
        env: OpEnv,
    ) -> Result<ParallelAggregate> {
        let schema = fragment.build(&env, 0..0)?.schema().clone();
        let empty = PartialAgg::new(&schema, group_by, &aggs)?;
        let fragment = Arc::new(fragment);
        let partials = FanOut::new(fragment, morsels, empty.clone(), env, threads, "agg-partial");
        Ok(ParallelAggregate { partials, empty, done: false })
    }
}

impl Operator for ParallelAggregate {
    fn schema(&self) -> &OpSchema {
        self.empty.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if std::mem::replace(&mut self.done, true) {
            return Ok(None);
        }
        // The first partial starts the merge and keeps its registration,
        // resized as the merge grows; each later one stays charged until
        // it has been merged.
        let mut merged: Option<(PartialAgg, MemoryGuard)> = None;
        while let Some((p, guard)) = self.partials.recv()? {
            match &mut merged {
                None => merged = Some((p, guard)),
                Some((acc, mem)) => {
                    acc.merge(p)?;
                    mem.resize(acc.estimated_bytes());
                }
            }
        }
        // No morsels: the global aggregate's zero row.
        let Some((mut acc, _mem)) = merged else { return Ok(Some(self.empty.clone().finish())) };
        Ok(Some(acc.finish()))
    }
}

/// Morsel-parallel sandwich aggregation over a scan fragment whose group-by
/// determines the co-cluster: each morsel (whole co-clusters,
/// [`morsel::split_runs`]) folds into a [`PartialAgg`] that its worker
/// finishes, and the finished groups are handed on in morsel order with no
/// merge — exactly the serial per-co-cluster flush (module docs). Tracked
/// state is the fan-out's window of finished outputs, the one handed out
/// last included until the next call.
pub struct CoClusterAggregate {
    outputs: FanOut<CoClusters>,
    schema: OpSchema,
    mem: Option<MemoryGuard>,
}

impl CoClusterAggregate {
    /// The aggregate over `morsels` of `fragment` (what
    /// `ParallelConfig::split` made of its co-cluster ordered scan),
    /// `threads` wide.
    pub fn new(
        fragment: FragmentBlueprint,
        morsels: Vec<Morsel>,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        threads: usize,
        env: OpEnv,
    ) -> Result<CoClusterAggregate> {
        let empty = PartialAgg::new(fragment.build(&env, 0..0)?.schema(), group_by, &aggs)?;
        let schema = empty.schema().clone();
        let fragment = Arc::new(fragment);
        let empty = CoClusters(empty);
        let outputs = FanOut::new(fragment, morsels, empty, env, threads, "agg-co-cluster");
        Ok(CoClusterAggregate { outputs, schema, mem: None })
    }
}

impl Operator for CoClusterAggregate {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.mem = None;
        while let Some((out, guard)) = self.outputs.recv()? {
            if out.rows() > 0 {
                self.mem = Some(guard);
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryTracker;
    use crate::ops::agg::{AggFunc, HashAggregate};
    use crate::ops::collect;
    use crate::ops::scan::Run;
    use crate::pred::ColPredicate;
    use bdcc_storage::{Column, IoTracker, StoredTable};

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

    /// The partial-merge aggregate over every morsel of `fragment` at
    /// `cfg`, however few.
    fn partial_merge(
        fragment: FragmentBlueprint,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        cfg: &ParallelConfig,
        env: OpEnv,
    ) -> ParallelAggregate {
        let morsels = fragment.scan.morsels(cfg.morsel_rows);
        ParallelAggregate::new(fragment, morsels, group_by, aggs, cfg.threads, env).unwrap()
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
        let env = OpEnv::new(io, MemoryTracker::new());
        let serial_in: BoxedOp =
            Box::new(Scan::blocks(Arc::clone(&t), env.clone(), &["k", "g", "f"], vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(serial_in, &["g"], aggs.clone(), env.clone()).unwrap(),
        ))
        .unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 48 };
        let fragment = FragmentBlueprint { scan: blueprint(&t, vec![]), steps: vec![] };
        let par = collect(Box::new(partial_merge(fragment, &["g"], aggs, &cfg, env))).unwrap();
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
        let fragment = FragmentBlueprint { scan: bp, steps: vec![] };
        let env = OpEnv::new(io, MemoryTracker::new());
        let par = collect(Box::new(partial_merge(fragment, &[], aggs, &cfg, env))).unwrap();
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
        let fragment = FragmentBlueprint { scan: blueprint(&t, vec![]), steps };
        let count = vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
        let env = OpEnv::new(io, MemoryTracker::new());
        let par = collect(Box::new(partial_merge(fragment, &["g"], count, &cfg, env))).unwrap();
        // 300 rows over 7 groups: sizes 43 except g ∈ {0,1,2} get 43 and
        // the count sums to 300.
        let total: i64 = par.columns[1].as_i64().unwrap().iter().sum();
        assert_eq!(total, 300);
        assert_eq!(par.rows(), 7);
    }

    #[test]
    fn partial_merge_holds_a_window_of_partials() {
        // g = row % 7 repeats in every 32-row morsel: every partial holds
        // all seven groups, and so does the merge — one partial's bytes.
        let t = table(2000);
        let cfg = ParallelConfig { threads: 2, morsel_rows: 32 };
        let bp = blueprint(&t, vec![]);
        let morsels = bp.morsels(cfg.morsel_rows).len() as u64;
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col("k"), "sk"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ];
        let mut one = PartialAgg::new(bp.schema(), &["g"], &aggs).unwrap();
        let first =
            Scan::over(Arc::clone(&bp), OpEnv::new(IoTracker::new(), MemoryTracker::new()), 0..2);
        one.consume(&collect(Box::new(first)).unwrap()).unwrap();
        let partial = one.estimated_bytes();
        let window = (cfg.threads * WINDOW_PER_THREAD) as u64;
        assert!(morsels > 4 * window, "{morsels} morsels");

        let tracker = MemoryTracker::new();
        let fragment = FragmentBlueprint { scan: bp, steps: vec![] };
        let env = OpEnv::new(IoTracker::new(), tracker.clone());
        let agg = partial_merge(fragment, &["g"], aggs, &cfg, env);
        assert_eq!(collect(Box::new(agg)).unwrap().rows(), 7);
        assert!(
            tracker.peak() <= (window + 1) * partial,
            "peak {} over {} partials of {partial} bytes",
            tracker.peak(),
            window + 1
        );
        assert_eq!(tracker.current(), 0);
    }

    // --- morsel walks replay the inline walk --------------------------------

    /// Every batch of the scan over `blueprint`, walked morsel by morsel at
    /// `morsel_rows` (`usize::MAX`: one morsel, the inline walk), in order.
    fn batches_at(blueprint: &Arc<ScanBlueprint>, morsel_rows: usize) -> Vec<Batch> {
        let morsels = blueprint.morsels(morsel_rows);
        let env = OpEnv::new(IoTracker::new(), MemoryTracker::new());
        let walk = |m: Morsel| {
            let mut scan = Scan::over(Arc::clone(blueprint), env.clone(), m);
            std::iter::from_fn(move || scan.next().unwrap())
        };
        morsels.into_iter().flat_map(walk).collect()
    }

    #[test]
    fn morsel_walks_replay_the_inline_batch_stream() {
        let plain = ScanBlueprint::blocks(table(1000), &["k", "g", "f"], vec![]).unwrap();
        assert_eq!(batches_at(&plain, usize::MAX), batches_at(&plain, 64));
        let preds = vec![ColPredicate::ge("k", 100i64), ColPredicate::le("k", 399i64)];
        let pruned = ScanBlueprint::blocks(table(500), &["k", "f"], preds).unwrap();
        let inline = batches_at(&pruned, usize::MAX);
        assert_eq!(inline.iter().map(Batch::rows).sum::<usize>(), 300);
        assert_eq!(inline, batches_at(&pruned, 32));
    }

    #[test]
    fn one_oversized_morsel_walks_inline() {
        // Wider than one thread and bigger than a morsel, yet a single
        // morsel (a tiny run, then an oversized one that closes it): no
        // fan-out, and the inline leaf polls the governor per batch.
        let runs = vec![
            Run { start: 0, count: 1, keys: vec![] },
            Run { start: 1, count: 99, keys: vec![] },
        ];
        let blueprint = ScanBlueprint::new(table(100), &["k"], vec![], &[], runs).unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8 };
        assert_eq!(blueprint.morsels(cfg.morsel_rows), vec![0..2]);
        assert_eq!(cfg.split(&blueprint), None);
        let governed = |governor: Governor| {
            let env = OpEnv::new(IoTracker::new(), MemoryTracker::new());
            Scan::over(Arc::clone(&blueprint), OpEnv { governor, ..env }, 0..2)
        };

        let tracker = MemoryTracker::new();
        let token = bdcc_pool::CancelToken::new();
        let mut governor = Governor::none();
        governor.set_cancel(token.clone(), &tracker);
        let mut scan = governed(governor);
        assert_eq!(scan.next().unwrap().expect("first run").rows(), 1);
        token.cancel();
        assert_eq!(scan.next(), Err(ExecError::Cancelled), "the second batch is never read");

        // The checkpoint is the inline leaf's: an injected fault names it.
        let plan = bdcc_pool::FaultPlan::parse("err=1.0,seed=9").unwrap();
        let mut governor = Governor::none();
        governor.set_injector(Arc::new(bdcc_pool::FaultInjector::new(plan)), &tracker);
        match governed(governor).next() {
            Err(ExecError::Injected(msg)) => assert!(msg.contains("scan-batch"), "{msg}"),
            other => panic!("expected an injected error at scan-batch, got {other:?}"),
        }
    }

    // --- the co-cluster fan-out is the serial sandwich aggregate -------------

    /// `table(rows)` as co-clusters of `k / 40` (uneven: every fifth is
    /// split into two runs), each run keyed by its co-cluster.
    fn co_clusters(rows: usize) -> Arc<ScanBlueprint> {
        let mut runs = Vec::new();
        for start in (0..rows).step_by(40) {
            let (count, key) = ((rows - start).min(40), vec![(start / 40) as i64]);
            let cut = if start % 200 == 0 { count / 3 } else { count };
            runs.push(Run { start, count: cut, keys: key.clone() });
            runs.push(Run { start: start + cut, count: count - cut, keys: key });
        }
        let names = ["__gk".to_string()];
        ScanBlueprint::new(table(rows), &["k", "g", "f"], vec![], &names, runs).unwrap()
    }

    #[test]
    fn co_cluster_fan_out_is_the_serial_sandwich_aggregate_bit_for_bit() {
        // Group by (co-cluster, g): about six rows a group, float sums that
        // associate per group, and a filter between scan and aggregate.
        let bp = co_clusters(2000);
        let steps = vec![
            FragmentStep::Filter(Expr::col("k").ne(Expr::lit(41))),
            FragmentStep::Project(vec![
                (Expr::col("__gk"), "c".into()),
                (Expr::col("g"), "g".into()),
                (Expr::col("f").mul(Expr::lit(1.37)), "f".into()),
            ]),
        ];
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggSpec::new(AggFunc::Avg, Expr::col("f"), "af"),
            AggSpec::new(AggFunc::Min, Expr::col("f"), "mn"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ];
        let env = || OpEnv::new(IoTracker::new(), MemoryTracker::new());
        let fragment = || FragmentBlueprint { scan: Arc::clone(&bp), steps: steps.clone() };
        let inline = fragment().build(&env(), 0..bp.runs().len()).unwrap();
        let serial = HashAggregate::new(inline, &["c", "g"], aggs.clone(), env()).unwrap();
        let serial = collect(Box::new(serial.with_runs(vec![0]))).unwrap();
        assert_eq!(serial.rows(), 50 * 7);
        for threads in [2, 4] {
            let morsels = bp.morsels(32);
            assert_eq!(morsels.len(), 50, "one co-cluster a morsel");
            let (gb, aggs) = (["c", "g"], aggs.clone());
            let agg = CoClusterAggregate::new(fragment(), morsels, &gb, aggs, threads, env());
            let fanned = collect(Box::new(agg.unwrap())).unwrap();
            assert_eq!(format!("{serial:?}"), format!("{fanned:?}"), "{threads} threads");
        }
    }
}
