//! # Morsel-driven parallel execution
//!
//! The paper's host system, Vectorwise, is a parallel vectorized engine;
//! this subsystem gives the reproduction the same property without any
//! dependency beyond `std` threads. The design follows the morsel-driven
//! model (Leis et al., SIGMOD 2014) specialized to BDCC storage:
//!
//! ## The morsel model
//!
//! Leaf scans are split into **morsels** — contiguous slices aligned with
//! the serial scan's natural batch boundaries:
//!
//! * **Plain/PK scans** split on MinMax *block* ranges
//!   ([`morsel::split_blocks`]), because the serial [`PlainScan`] emits
//!   one batch per surviving block.
//! * **BDCC scatter-scans** split on ranges of selected count-table
//!   *groups* in the planner's scatter order ([`morsel::split_groups`]),
//!   because the serial [`BdccScan`] emits one batch per group and never
//!   lets a batch cross a group boundary. `T_COUNT` group ranges are
//!   disjoint row ranges, making them the natural parallelism unit of the
//!   paper's storage layout.
//!
//! One **persistent, process-wide [work-stealing pool](pool)** of `std`
//! threads executes per-morsel operator fragments — scan, then any
//! filter/project steps, then (when the plan shape allows) a per-worker
//! *partial aggregate*. The pool's workers are created once (warmed by
//! [`QueryContext::with_parallel`]) and parked between fan-outs, so a
//! probe round, a radix phase or a sort-run batch costs queue operations,
//! not thread create/join; nested fan-outs are deadlock-free because a
//! blocked fan-out lends its calling thread to the pool ([`pool`]
//! documents the lending rule). Leaf scans additionally stream:
//! [`ParallelScan`] submits its morsels to the same pool through a
//! **bounded reorder buffer** ([`pool::OrderedStream`]), so downstream
//! operators consume batches while workers are still scanning and peak
//! memory stays O(threads × morsel) instead of O(table).
//!
//! Probe-heavy operators morselize *rows* rather than blocks or groups:
//! the join probe splits each round of probe batches into contiguous row
//! ranges ([`morsel::split_rows`]), workers probe the shared immutable
//! [`JoinIndex`](crate::hash::JoinIndex) concurrently, and per-morsel
//! match lists concatenate in morsel order
//! ([`merge::concat_match_lists`]).
//!
//! ## Merge contracts
//!
//! Partial results are merged **in morsel order**, never in completion
//! order ([`merge`]):
//!
//! * leaf streams concatenate ordered, reproducing the serial batch
//!   stream *exactly* — every downstream serial operator therefore
//!   behaves identically to serial execution;
//! * partial hash-aggregation states fold left-to-right, reproducing the
//!   serial first-seen group order and exact integer aggregates;
//!   float Sum/Avg use Neumaier-compensated accumulation on both the
//!   serial and parallel paths, so both land within ~1 ulp of the true
//!   sum and agree after [`canonical_rows`](crate::run::canonical_rows)
//!   rounding;
//! * radix-partitioned aggregation (fine-grained group-bys) scatters rows
//!   by group-key hash so each group lives in exactly one worker-local
//!   table; partitions consume their rows in morsel order and the
//!   disjoint outputs reorder by recorded first-seen position
//!   ([`merge::concat_radix_partitions`]) — byte-identical to serial,
//!   floats included;
//! * sorted per-morsel streams merge stably with morsel-index
//!   tie-breaking ([`merge::merge_sorted`]) — the contract [`ParallelSort`]
//!   uses to reproduce a serial stable sort of the concatenated input;
//! * hash-join build rows partition by key hash in chunk order
//!   ([`partition`]), so every partition's chains stay in ascending
//!   build-row order and partitioned probes ([`crate::hash::JoinIndex`])
//!   match the serial probe order exactly.
//!
//! The result: for every plan, parallel execution returns results
//! identical to serial execution (verified for all 22 TPC-H queries under
//! all three schemes by `tests/parallel_equivalence.rs`).
//!
//! ## Opting in
//!
//! Parallelism is off by default — [`QueryContext::new`] plans serially.
//! [`QueryContext::with_parallel`] installs a [`ParallelConfig`]; the
//! planner then swaps eligible leaves for [`ParallelScan`], eligible
//! aggregates for [`ParallelAggregate`], sorts for [`ParallelSort`], and
//! hands the config to both hash-join variants so big build sides use the
//! hash-partitioned parallel build and big probe rounds fan out to
//! probe-morsel workers, leaving the rest of the operator tree serial.
//! The three fields of the config are the whole configuration: nothing in
//! the environment changes what a given [`ParallelConfig`] does.
//!
//! [`PlainScan`]: crate::ops::scan::PlainScan
//! [`BdccScan`]: crate::ops::bdcc_scan::BdccScan
//! [`QueryContext::new`]: crate::planner::QueryContext::new
//! [`QueryContext::with_parallel`]: crate::planner::QueryContext::with_parallel

pub mod merge;
pub mod morsel;
pub mod partition;
pub mod pool;
pub mod sort;
mod spill;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bdcc_obs::{OpMetrics, SpanTimer};
use bdcc_storage::{Column, IoTracker};

use crate::batch::{Batch, OpSchema};
use crate::broker::MemoryBroker;
use crate::error::Result;
use crate::expr::Expr;
use crate::govern::Governor;
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::agg::{AggSpec, PartialAgg};
use crate::ops::transform::{Filter, Project};
use crate::ops::{BoxedOp, Operator};

pub use morsel::{Morsel, ScanBlueprint, ScanKind};
pub use sort::ParallelSort;

/// Default morsel size in rows (two MinMax blocks): small enough that a
/// laptop-scale table yields many times more morsels than workers (the
/// slack work stealing needs), large enough that per-morsel setup is
/// noise.
pub const DEFAULT_MORSEL_ROWS: usize = 8192;

/// Parallel execution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (1 = serial execution, the planner changes nothing).
    pub threads: usize,
    /// Target rows per morsel.
    pub morsel_rows: usize,
    /// [`ParallelAggregate`] strategy pin: `Some(true)` forces the
    /// radix-partitioned path, `Some(false)` forces the partial-merge
    /// path, `None` lets the operator's group-cardinality probe decide
    /// per query. [`with_threads`](Self::with_threads) and `default()`
    /// leave it `None`; the equivalence suites and the aggregation
    /// benches set it to cover each path.
    pub agg_radix: Option<bool>,
}

impl ParallelConfig {
    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads: threads.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            agg_radix: None,
        }
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
            agg_radix: None,
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
    pub scan: ScanBlueprint,
    pub steps: Vec<FragmentStep>,
}

impl FragmentBlueprint {
    /// Build the fragment operator over one morsel (or the whole leaf).
    pub fn build(&self, io: &IoTracker, morsel: Option<&Morsel>) -> Result<BoxedOp> {
        self.build_with_metrics(io, morsel, None)
    }

    /// [`build`](Self::build) with operator metrics attached to the leaf
    /// scan, so block-skip counters aggregate across the fragment's morsels.
    pub fn build_with_metrics(
        &self,
        io: &IoTracker,
        morsel: Option<&Morsel>,
        metrics: Option<Arc<OpMetrics>>,
    ) -> Result<BoxedOp> {
        let mut op = self.scan.build_with_metrics(io, morsel, metrics)?;
        for step in &self.steps {
            op = match step {
                FragmentStep::Filter(e) => Box::new(Filter::new(op, e.clone())?),
                FragmentStep::Project(exprs) => Box::new(Project::new(op, exprs.clone())?),
            };
        }
        Ok(op)
    }
}

/// In-flight morsel budget of a streaming scan, in units of `threads`:
/// enough slack that workers rarely park on the reorder buffer, small
/// enough that peak memory stays O(threads × morsel).
const STREAM_CAP_PER_THREAD: usize = 2;

/// How a [`ParallelScan`] is executing.
enum ScanExec {
    /// First `next()` not called yet.
    Idle,
    /// One worker's worth of work (threads == 1 or a single morsel): the
    /// whole-leaf serial operator, streamed batch by batch.
    Serial(BoxedOp),
    /// Streaming fan-out: workers push `(morsel, batches)` through the
    /// bounded reorder buffer; `current` drains the released morsel's
    /// batches while `mem` keeps them registered.
    Streaming {
        stream: pool::OrderedStream<(Vec<Batch>, MemoryGuard)>,
        current: std::vec::IntoIter<Batch>,
        mem: Option<MemoryGuard>,
    },
}

/// Morsel-parallel leaf scan: workers scan disjoint morsels, and the
/// operator releases the per-morsel batch lists in morsel order — an exact
/// reproduction of the serial scan's batch stream, so it can stand in for
/// a [`PlainScan`]/[`BdccScan`] under *any* serial operator tree.
///
/// Execution is **streaming**: pool workers publish finished morsels into
/// a bounded reorder buffer ([`pool::OrderedStream`]) that never has more
/// than O(`threads`) morsels in flight (backpressure by submission
/// gating — a stalled consumer parks no worker), so downstream operators
/// start consuming while the scan is still running and peak tracked
/// memory is O(threads × morsel) instead of O(table). Each in-flight
/// morsel's batches are registered with the memory tracker by the worker
/// that produced them and released when the consumer moves past the
/// morsel.
///
/// [`PlainScan`]: crate::ops::scan::PlainScan
/// [`BdccScan`]: crate::ops::bdcc_scan::BdccScan
pub struct ParallelScan {
    fragment: Arc<FragmentBlueprint>,
    io: IoTracker,
    cfg: ParallelConfig,
    tracker: Arc<MemoryTracker>,
    schema: OpSchema,
    exec: ScanExec,
    /// Profiling hook (planner-installed): morsel counts/latencies from
    /// the workers, reorder-buffer occupancy from the consumer, and the
    /// chosen execution path as an annotation. `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query limits checked by every producer before it scans its
    /// morsel, so cancellation stops a streaming fan-out within one
    /// morsel. Inert by default.
    governor: Governor,
}

impl ParallelScan {
    pub fn new(
        scan: ScanBlueprint,
        io: IoTracker,
        cfg: ParallelConfig,
        tracker: Arc<MemoryTracker>,
    ) -> Result<ParallelScan> {
        let fragment = Arc::new(FragmentBlueprint { scan, steps: Vec::new() });
        // Building (not running) the whole-leaf operator is cheap and
        // yields the schema.
        let schema = fragment.build(&io, None)?.schema().clone();
        Ok(ParallelScan {
            fragment,
            io,
            cfg,
            tracker,
            schema,
            exec: ScanExec::Idle,
            metrics: None,
            governor: Governor::none(),
        })
    }

    /// Attach the profiling metric block (planner-installed).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> ParallelScan {
        self.metrics = metrics;
        self
    }

    /// Attach the query's governor (planner-installed).
    pub fn with_governor(mut self, governor: Governor) -> ParallelScan {
        self.governor = governor;
        self
    }

    /// Start executing: fan out to the streaming workers, or fall back to
    /// the serial whole-leaf operator when there is nothing to fan out.
    fn start(&mut self) -> Result<()> {
        let morsels = self.fragment.scan.morsels(self.cfg.morsel_rows);
        if self.cfg.threads <= 1 || morsels.len() <= 1 {
            if let Some(m) = &self.metrics {
                m.annotate("path", "serial");
            }
            self.exec = ScanExec::Serial(self.fragment.build_with_metrics(
                &self.io,
                None,
                self.metrics.clone(),
            )?);
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.annotate("path", "streaming");
        }
        let fragment = Arc::clone(&self.fragment);
        let io = self.io.clone();
        let tracker = Arc::clone(&self.tracker);
        let metrics = self.metrics.clone();
        let governor = self.governor.clone();
        let ntasks = morsels.len();
        let cap = self.cfg.threads * STREAM_CAP_PER_THREAD;
        let stream = pool::OrderedStream::spawn_labeled(
            self.cfg.threads,
            ntasks,
            cap,
            Some("scan-morsel"),
            move |i| {
                // One governor poll per morsel: a cancelled/over-deadline
                // query stops this producer before it scans another morsel.
                governor.check("scan-morsel")?;
                let span = metrics.as_ref().map(|_| SpanTimer::start());
                let mut op =
                    fragment.build_with_metrics(&io, Some(&morsels[i]), metrics.clone())?;
                let mut out = Vec::new();
                let mut rows = 0u64;
                while let Some(b) = op.next()? {
                    rows += b.rows() as u64;
                    out.push(b);
                }
                if let (Some(m), Some(span)) = (&metrics, span) {
                    m.morsels.add(1);
                    m.morsel_rows.add(rows);
                    m.morsel_nanos.record(span.elapsed_nanos());
                }
                // Charge the morsel while it sits in the reorder buffer (and
                // until the consumer finishes draining it); with the in-flight
                // cap this is what keeps peak O(threads × morsel).
                let bytes: u64 = out.iter().map(|b| b.estimated_bytes()).sum();
                Ok((out, tracker.register(bytes)))
            },
        );
        self.exec = ScanExec::Streaming { stream, current: Vec::new().into_iter(), mem: None };
        Ok(())
    }
}

impl Operator for ParallelScan {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            match &mut self.exec {
                ScanExec::Idle => self.start()?,
                ScanExec::Serial(op) => return op.next(),
                ScanExec::Streaming { stream, current, mem } => {
                    if let Some(b) = current.next() {
                        return Ok(Some(b));
                    }
                    *mem = None; // previous morsel fully drained
                    if let Some(m) = &self.metrics {
                        m.occupancy_hwm.record(stream.buffered() as u64);
                    }
                    match stream.recv()? {
                        Some((batches, guard)) => {
                            *current = batches.into_iter();
                            *mem = Some(guard);
                        }
                        None => return Ok(None),
                    }
                }
            }
        }
    }
}

/// How many input rows per distinct group (measured on the sample
/// morsels) still favour the partial-merge path: below one group per
/// `RADIX_GROUP_RATIO` rows, per-worker partial tables stay small and
/// partitioning the input is pure overhead; at or above it, groups are
/// fine-grained enough that radix partitioning *can* pay (subject to the
/// duplication test below).
const RADIX_GROUP_RATIO: u64 = 8;

/// Minimum estimated cross-morsel duplication factor (×10: 20 = 2.0) for
/// the radix path. Duplication — how many morsels the average group
/// appears in — is what partials actually pay for (each appearance is
/// one more partial-table entry plus one more single-threaded merge
/// fold); a clustered input (keys confined to adjacent morsels) or a
/// per-row-unique key has duplication ≈ 1, and there partials hold
/// ~O(groups) total with a trivial merge while radix would still copy
/// the whole input — so radix must see real duplication to win.
const RADIX_MIN_DUPLICATION_X10: u64 = 20;

/// Morsel-parallel aggregation over a scan fragment, with two execution
/// strategies:
///
/// * **Partial-merge** — each worker runs scan→filter→project over its
///   morsels and accumulates a [`PartialAgg`]; partials fold in morsel
///   order and flush once ([`merge`] explains why this reproduces serial
///   results). Ideal for coarse group-bys (Q1's four groups), where every
///   partial stays tiny.
/// * **Radix-partitioned** — for fine-grained group-bys (Q18-style
///   `GROUP BY o_orderkey`), partial tables are the problem: every
///   morsel's partial re-materializes the groups it sees, so the fold
///   holds up to O(groups × morsels-sharing-a-group) states and merges
///   them all single-threaded. Instead, workers hash-partition each
///   morsel's rows by group key (the top bits of the shared key codec —
///   [`partition`] documents the routing contract) and one aggregation
///   task per partition consumes its rows *in morsel order*; every group
///   then lives in exactly one worker-local table (peak table memory
///   O(groups) total, not per worker), and the cross-worker merge
///   disappears — disjoint partition outputs reorder by recorded
///   first-seen position ([`merge::concat_radix_partitions`]),
///   **byte-identical** to serial execution, floats included.
///
/// The strategy comes from [`ParallelConfig::agg_radix`] when pinned,
/// otherwise from a two-sample probe
/// ([`choose_radix`](Self::choose_radix)): radix needs fine-grained
/// density (≥ 1 group per [`RADIX_GROUP_RATIO`] rows), a fan-out worth
/// partitioning (≥ 2× threads morsels), *and* real cross-morsel
/// duplication (capture–recapture estimate ≥
/// [`RADIX_MIN_DUPLICATION_X10`]/10 — clustered or per-row-unique keys
/// stay on partials, which already hold ~O(groups) there). The probe's
/// sampled morsels are cached and reused by whichever strategy wins, so
/// nothing is scanned twice.
pub struct ParallelAggregate {
    fragment: FragmentBlueprint,
    group_by: Vec<String>,
    aggs: Vec<AggSpec>,
    io: IoTracker,
    cfg: ParallelConfig,
    tracker: Arc<MemoryTracker>,
    child_schema: OpSchema,
    schema: OpSchema,
    done: bool,
    /// Profiling hook (planner-installed): morsel counts/latencies from
    /// the fan-out workers plus the strategy decision (and the probe's
    /// estimates) as annotations. `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query limits, polled once per fan-out task. Inert by default.
    governor: Governor,
    /// Pressure oracle for out-of-core execution: when active, the radix
    /// path runs its broker-governed variant ([`spill`]) that freezes
    /// partitions to temp files under pressure. Inert by default, which
    /// keeps the in-memory paths structurally unchanged.
    broker: MemoryBroker,
}

/// One morsel's radix-partitioned input: per partition, the gathered
/// sub-batches plus each row's pre-gather position within the morsel
/// (made global by adding the morsel's base offset in phase 2). The
/// memory guard keeps the partitioned rows charged to the tracker until
/// every partition task has consumed them.
struct MorselPartitions {
    parts: PartitionedBatches,
    rows: u64,
    _mem: MemoryGuard,
}

/// Per-partition lists of `(gathered sub-batch, morsel-local row ids)`.
type PartitionedBatches = Vec<Vec<(Batch, Vec<u64>)>>;

/// Outcome of the strategy choice: the decision, plus the batches of any
/// morsels the cardinality heuristic already scanned (keyed by morsel
/// index), so the winning strategy consumes them instead of scanning
/// those morsels twice.
struct Probe {
    radix: bool,
    cached: HashMap<usize, Vec<Batch>>,
    /// Keeps the cached sample batches charged to the memory tracker
    /// (like every other materialization in this subsystem) until the
    /// winning strategy has consumed them.
    cache_mem: Option<MemoryGuard>,
}

impl Probe {
    fn decided(radix: bool) -> Probe {
        Probe { radix, cached: HashMap::new(), cache_mem: None }
    }
}

/// The phase-1 worker kernel: scatter one morsel's batch stream into
/// per-partition gathered sub-batches plus each row's morsel-local
/// position. Returns `(per-partition batches, morsel rows, byte
/// estimate)`.
fn partition_morsel_stream(
    group_cols: &[usize],
    bits: u32,
    mut next: impl FnMut() -> Result<Option<Batch>>,
) -> Result<(PartitionedBatches, u64, u64)> {
    let mut parts: PartitionedBatches = vec![Vec::new(); partition::partition_count(bits)];
    let mut local = 0u64;
    let mut bytes = 0u64;
    while let Some(b) = next()? {
        let cols: Vec<&Column> = group_cols.iter().map(|&c| &b.columns[c]).collect();
        let routed = partition::partition_rows_of_batch(&cols, b.rows(), bits);
        for (p, rows) in routed.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let ids: Vec<u64> = rows.iter().map(|&r| local + r as u64).collect();
            let gathered = Batch::new(b.columns.iter().map(|c| c.gather(&rows)).collect());
            bytes += gathered.estimated_bytes() + ids.len() as u64 * 8;
            parts[p].push((gathered, ids));
        }
        local += b.rows() as u64;
    }
    Ok((parts, local, bytes))
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
        let child_schema = fragment.build(&io, None)?.schema().clone();
        let schema = PartialAgg::new(&child_schema, group_by, &aggs)?.schema().clone();
        Ok(ParallelAggregate {
            fragment,
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggs,
            io,
            cfg,
            tracker,
            child_schema,
            schema,
            done: false,
            metrics: None,
            governor: Governor::none(),
            broker: MemoryBroker::none(),
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

    /// Attach the query's memory broker (planner-installed); an active
    /// broker routes fine-grained aggregations through the spill-capable
    /// radix variant.
    pub fn with_broker(mut self, broker: MemoryBroker) -> ParallelAggregate {
        self.broker = broker;
        self
    }

    fn fresh_partial(&self) -> Result<PartialAgg> {
        let gb: Vec<&str> = self.group_by.iter().map(|s| s.as_str()).collect();
        PartialAgg::new(&self.child_schema, &gb, &self.aggs)
    }

    /// Column indices of the group-by keys in the fragment's output.
    fn group_col_indices(&self) -> Result<Vec<usize>> {
        self.group_by
            .iter()
            .map(|g| {
                crate::batch::schema_index(&self.child_schema, g)
                    .ok_or_else(|| crate::error::ExecError::UnknownColumn(g.clone()))
            })
            .collect()
    }

    /// Aggregate one morsel into a fresh partial (the partial-merge
    /// worker body). Also returns the morsel's row count (profiling).
    fn morsel_partial(&self, morsel: &Morsel) -> Result<(PartialAgg, u64)> {
        let mut op = self.fragment.build(&self.io, Some(morsel))?;
        let mut p = self.fresh_partial()?;
        let mut rows = 0u64;
        while let Some(b) = op.next()? {
            rows += b.rows() as u64;
            p.consume(&b)?;
        }
        Ok((p, rows))
    }

    /// Scan one morsel, returning its batches, the set of distinct
    /// group-key hashes, and the row count (the heuristic's sample
    /// kernel; batches are cached for reuse, so the sample is never
    /// scanned or I/O-charged twice).
    fn scan_morsel_keyed(
        &self,
        morsel: &Morsel,
        group_cols: &[usize],
    ) -> Result<(Vec<Batch>, HashSet<u64, crate::hash::FxBuildHasher>, u64)> {
        let mut op = self.fragment.build(&self.io, Some(morsel))?;
        let mut batches = Vec::new();
        let mut rows = 0u64;
        let mut distinct: HashSet<u64, crate::hash::FxBuildHasher> = HashSet::default();
        let mut hashes = Vec::new();
        while let Some(b) = op.next()? {
            let cols: Vec<&Column> = group_cols.iter().map(|&c| &b.columns[c]).collect();
            crate::hash::hash_group_rows(&cols, 0..b.rows(), &mut hashes);
            distinct.extend(&hashes);
            rows += b.rows() as u64;
            batches.push(b);
        }
        Ok((batches, distinct, rows))
    }

    /// Pick the strategy. When the heuristic runs it scans two sample
    /// morsels (the first and a middle one) exactly once each — their
    /// batches ride along in `Probe::cached` for the winning strategy —
    /// and goes radix only when both tests pass:
    ///
    /// * **density** — at least one distinct group per
    ///   [`RADIX_GROUP_RATIO`] sampled rows (coarse group-bys keep tiny
    ///   partials; partitioning them is pure overhead);
    /// * **duplication** — the average group must appear in ≥
    ///   [`RADIX_MIN_DUPLICATION_X10`]/10 morsels, estimated by
    ///   capture–recapture over the two samples (global groups ≈
    ///   |A|·|B| / |A∩B|; duplication ≈ morsels × avg sample distinct /
    ///   global). Clustered inputs (keys confined to adjacent morsels —
    ///   zero overlap between distant samples) and per-row-unique keys
    ///   both estimate duplication ≈ 1: partials already hold ~O(groups)
    ///   total there and radix's partitioned input copy would only add
    ///   memory, so both stay on the partial-merge path.
    fn choose_radix(&self, morsels: &[Morsel]) -> Result<Probe> {
        let decided_by = |why: &str| {
            if let Some(m) = &self.metrics {
                m.annotate("strategy_source", why);
            }
        };
        // A global aggregate has one group — nothing to partition — and a
        // single morsel has no fan-out to route.
        if self.group_by.is_empty() || morsels.len() <= 1 {
            decided_by("shape");
            return Ok(Probe::decided(false));
        }
        if let Some(force) = self.cfg.agg_radix {
            decided_by("pinned");
            return Ok(Probe::decided(force));
        }
        // An active broker prefers radix outright: only the radix path
        // can freeze state to temp files, while a partial-merge fold of
        // fine-grained groups has nothing sheddable and would ride
        // straight into BudgetExceeded. The per-query cost of routing a
        // coarse group-by through radix is the partitioned input copy —
        // which the broker can spill — so under a budget the spillable
        // shape wins (the `agg_radix` pin above still overrides).
        if self.broker.is_active() {
            decided_by("broker");
            return Ok(Probe::decided(true));
        }
        // Radix trades a partitioned copy of the input for
        // exactly-one-table-per-group state; with only a handful of
        // morsels the partial path duplicates little, so the copy cannot
        // pay for itself whatever the cardinality — stay on partials.
        if morsels.len() < self.cfg.threads.max(2) * 2 {
            decided_by("shape");
            return Ok(Probe::decided(false));
        }
        decided_by("probe");
        let group_cols = self.group_col_indices()?;
        let mid = morsels.len() / 2;
        let (b0, h0, r0) = self.scan_morsel_keyed(&morsels[0], &group_cols)?;
        let (bm, hm, rm) = self.scan_morsel_keyed(&morsels[mid], &group_cols)?;
        let rows = r0 + rm;
        let overlap = h0.intersection(&hm).count() as u64;
        let union = (h0.len() + hm.len()) as u64 - overlap;
        let fine = rows > 0 && union * RADIX_GROUP_RATIO >= rows;
        // Capture–recapture (Lincoln–Petersen): zero overlap means the
        // samples share no groups — clustered or unique keys — and the
        // estimate degenerates to "no duplication".
        let duplicated = overlap > 0 && {
            let est_global = (h0.len() as u64 * hm.len() as u64) / overlap;
            let avg_sample = (h0.len() + hm.len()) as u64 / 2;
            if let Some(m) = &self.metrics {
                m.annotate("probe_est_groups", est_global.max(1).to_string());
            }
            morsels.len() as u64 * avg_sample * 10 >= est_global.max(1) * RADIX_MIN_DUPLICATION_X10
        };
        if let Some(m) = &self.metrics {
            m.annotate("probe_rows", rows.to_string());
            m.annotate("probe_sample_groups", union.to_string());
            m.annotate("probe_overlap", overlap.to_string());
        }
        let bytes: u64 = b0.iter().chain(&bm).map(|b| b.estimated_bytes()).sum();
        let cached = HashMap::from([(0, b0), (mid, bm)]);
        Ok(Probe {
            radix: fine && duplicated,
            cached,
            cache_mem: Some(self.tracker.register(bytes)),
        })
    }

    /// The radix-partitioned execution. Phase 1: workers scan morsels and
    /// scatter each batch's rows into `2^bits` partitions by group-key
    /// hash, remembering every row's position in its morsel (`cached`
    /// holds morsels the probe already scanned). Phase 2: one task per
    /// partition folds that partition's sub-batches **in morsel order**
    /// into a single table, recording each group's global first-row
    /// position. The disjoint partition outputs then reorder by those
    /// positions — the serial output, byte for byte.
    fn run_radix(&self, morsels: &[Morsel], cached: HashMap<usize, Vec<Batch>>) -> Result<Batch> {
        let bits = partition::partition_bits_for(self.cfg.threads);
        let nparts = partition::partition_count(bits);
        let group_cols = self.group_col_indices()?;

        // Phase 1 — partition the input. The gathered sub-batches are the
        // radix trade-off: the needed columns materialize once (charged
        // to the tracker per morsel), in exchange for per-group state
        // existing exactly once in phase 2.
        let cached = std::sync::Mutex::new(cached);
        let phase1: Vec<MorselPartitions> =
            pool::run_tasks_labeled(self.cfg.threads, morsels.len(), "agg-radix-p1", |i| {
                self.governor.check("agg-radix-p1")?;
                let span = self.metrics.as_ref().map(|_| SpanTimer::start());
                let hit = cached.lock().expect("probe cache poisoned").remove(&i);
                let (parts, rows, bytes) = match hit {
                    Some(batches) => {
                        let mut it = batches.into_iter();
                        partition_morsel_stream(&group_cols, bits, || Ok(it.next()))?
                    }
                    None => {
                        let mut op = self.fragment.build(&self.io, Some(&morsels[i]))?;
                        partition_morsel_stream(&group_cols, bits, || op.next())?
                    }
                };
                if let (Some(m), Some(span)) = (&self.metrics, span) {
                    m.morsels.add(1);
                    m.morsel_rows.add(rows);
                    m.morsel_nanos.record(span.elapsed_nanos());
                }
                Ok(MorselPartitions { parts, rows, _mem: self.tracker.register(bytes) })
            })?;

        // Morsel base offsets: `run_tasks` returned in morsel order, so
        // prefix sums place every morsel-local row id in the one global
        // stream-position space the first-seen ranks live in.
        let mut bases = Vec::with_capacity(phase1.len());
        let mut acc = 0u64;
        for m in &phase1 {
            bases.push(acc);
            acc += m.rows;
        }

        // Phase 2 — one aggregation task per partition, each charging its
        // table to the tracker while it exists.
        let finished = pool::run_tasks_labeled(self.cfg.threads, nparts, "agg-radix-p2", |p| {
            self.governor.check("agg-radix-p2")?;
            let mut part = self.fresh_partial()?;
            for (m, mp) in phase1.iter().enumerate() {
                for (batch, ids) in &mp.parts[p] {
                    part.consume_indexed(batch, ids, bases[m])?;
                }
            }
            let mem = self.tracker.register(part.estimated_bytes());
            Ok((part.finish_ordered(), mem))
        })?;
        drop(phase1);
        let (outs, _mems): (Vec<_>, Vec<_>) = finished.into_iter().unzip();
        merge::concat_radix_partitions(outs)
    }
}

impl Operator for ParallelAggregate {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let morsels = self.fragment.scan.morsels(self.cfg.morsel_rows);
        let mut probe =
            if morsels.is_empty() { Probe::decided(false) } else { self.choose_radix(&morsels)? };
        if let Some(m) = &self.metrics {
            m.annotate("strategy", if probe.radix { "radix" } else { "partial-merge" });
        }
        // Held across the fan-out: the cached sample batches stay charged
        // until consumed (dropping at scope end slightly over-reports the
        // tail, never under-reports).
        let _cache_mem = probe.cache_mem.take();
        if probe.radix {
            // The broker-governed variant freezes/restores partitions
            // under pressure; without a broker the in-memory path runs
            // untouched.
            if self.broker.is_active() {
                return Ok(Some(self.run_radix_spill(&morsels, probe.cached)?));
            }
            return Ok(Some(self.run_radix(&morsels, probe.cached)?));
        }
        // Partial-merge fan-out; morsels the probe already scanned are
        // aggregated from their cached batches (the results are
        // identical — a partial is a pure fold of the morsel's stream).
        let cached = std::sync::Mutex::new(probe.cached);
        let mut partials =
            pool::run_tasks_labeled(self.cfg.threads, morsels.len(), "agg-partial", |i| {
                self.governor.check("agg-partial")?;
                let span = self.metrics.as_ref().map(|_| SpanTimer::start());
                // Bind the cache hit outside the match: a scrutinee temporary
                // would hold the lock across the whole aggregation arm.
                let hit = cached.lock().expect("probe cache poisoned").remove(&i);
                let (p, rows) = match hit {
                    Some(batches) => {
                        let mut p = self.fresh_partial()?;
                        let mut rows = 0u64;
                        for b in &batches {
                            rows += b.rows() as u64;
                            p.consume(b)?;
                        }
                        (p, rows)
                    }
                    None => self.morsel_partial(&morsels[i])?,
                };
                if let (Some(m), Some(span)) = (&self.metrics, span) {
                    m.morsels.add(1);
                    m.morsel_rows.add(rows);
                    m.morsel_nanos.record(span.elapsed_nanos());
                }
                Ok(p)
            })?;
        if partials.is_empty() {
            partials.push(self.fresh_partial()?);
        }
        let bytes: u64 = partials.iter().map(|p| p.estimated_bytes()).sum();
        let _mem = self.tracker.register(bytes);
        let out = merge::merge_partial_aggs(partials)?;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::agg::{AggFunc, HashAggregate};
    use crate::ops::collect;
    use crate::ops::scan::PlainScan;
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

    fn blueprint(t: &Arc<StoredTable>, preds: Vec<ColPredicate>) -> ScanBlueprint {
        ScanBlueprint {
            table: Arc::clone(t),
            columns: vec!["k".into(), "g".into(), "f".into()],
            predicates: preds,
            kind: ScanKind::Plain,
        }
    }

    #[test]
    fn parallel_scan_replays_serial_stream() {
        let t = table(1000);
        let io = IoTracker::new();
        let serial = collect(Box::new(
            PlainScan::new(Arc::clone(&t), io.clone(), &["k", "g", "f"], vec![]).unwrap(),
        ))
        .unwrap();
        let cfg = ParallelConfig { threads: 3, morsel_rows: 64, agg_radix: None };
        let par = collect(Box::new(
            ParallelScan::new(blueprint(&t, vec![]), io, cfg, MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_scan_with_predicates_matches() {
        let t = table(500);
        let io = IoTracker::new();
        let preds = vec![ColPredicate::ge("k", 100i64), ColPredicate::le("k", 399i64)];
        let serial = collect(Box::new(
            PlainScan::new(Arc::clone(&t), io.clone(), &["k", "f"], preds.clone()).unwrap(),
        ))
        .unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 32, agg_radix: None };
        let bp = ScanBlueprint {
            table: Arc::clone(&t),
            columns: vec!["k".into(), "f".into()],
            predicates: preds,
            kind: ScanKind::Plain,
        };
        let par = collect(Box::new(ParallelScan::new(bp, io, cfg, MemoryTracker::new()).unwrap()))
            .unwrap();
        assert_eq!(serial, par);
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
            Box::new(PlainScan::new(Arc::clone(&t), io.clone(), &["k", "g", "f"], vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(serial_in, &["g"], aggs.clone(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 48, agg_radix: None };
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
    fn radix_aggregate_is_bit_identical_to_serial() {
        // Forced radix path vs the serial HashAggregate: *bit*-identical,
        // floats included — each group's rows fold in serial stream order
        // inside its one partition, so even compensated float sums see
        // the exact serial accumulation sequence (a stronger promise than
        // the partial-merge path's ~1 ulp).
        let t = table(3000);
        let io = IoTracker::new();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggSpec::new(AggFunc::Avg, Expr::col("f"), "af"),
            AggSpec::new(AggFunc::Sum, Expr::col("g"), "sg"),
            AggSpec::new(AggFunc::Min, Expr::col("f"), "mn"),
            AggSpec::new(AggFunc::Max, Expr::col("k"), "mx"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ];
        let serial_in: BoxedOp =
            Box::new(PlainScan::new(Arc::clone(&t), io.clone(), &["k", "g", "f"], vec![]).unwrap());
        // Group by "k": every row its own group — the radix sweet spot.
        let serial = collect(Box::new(
            HashAggregate::new(serial_in, &["k"], aggs.clone(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        for threads in [2, 3, 4] {
            let cfg = ParallelConfig { threads, morsel_rows: 64, agg_radix: Some(true) };
            let par = collect(Box::new(
                ParallelAggregate::new(
                    FragmentBlueprint { scan: blueprint(&t, vec![]), steps: vec![] },
                    &["k"],
                    aggs.clone(),
                    io.clone(),
                    cfg,
                    MemoryTracker::new(),
                )
                .unwrap(),
            ))
            .unwrap();
            assert_eq!(serial, par, "threads={threads}: radix must be bit-identical");
        }
    }

    #[test]
    fn heuristic_routes_by_density_and_cross_morsel_duplication() {
        // Four key shapes over one 2000-row table (16-row blocks):
        //  * "scat"  — 250 groups, 8 scattered occurrences each: fine AND
        //    duplicated → radix;
        //  * "g"     — 7 groups: duplicated but coarse → partials;
        //  * "uniq"  — per-row-unique keys: fine but zero duplication
        //    (partials already hold O(groups) total) → partials;
        //  * "clus"  — per-4-row groups in clustered order: fine density
        //    but keys never span distant morsels → partials.
        let rows = 2000usize;
        let mk_col = |f: &dyn Fn(i64) -> i64| (0..rows as i64).map(f).collect::<Vec<_>>();
        let t = Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("scat".into(), Column::from_i64(mk_col(&|i| (i * 13) % 250))),
                    ("g".into(), Column::from_i64(mk_col(&|i| i % 7))),
                    ("uniq".into(), Column::from_i64(mk_col(&|i| i))),
                    ("clus".into(), Column::from_i64(mk_col(&|i| i / 4))),
                ],
                16,
            )
            .unwrap(),
        );
        let io = IoTracker::new();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 64, agg_radix: None };
        let mk = |group: &str, cfg: &ParallelConfig| {
            let bp = ScanBlueprint {
                table: Arc::clone(&t),
                columns: vec!["scat".into(), "g".into(), "uniq".into(), "clus".into()],
                predicates: vec![],
                kind: ScanKind::Plain,
            };
            ParallelAggregate::new(
                FragmentBlueprint { scan: bp, steps: vec![] },
                &[group],
                vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")],
                io.clone(),
                cfg.clone(),
                MemoryTracker::new(),
            )
            .unwrap()
        };
        let probe_of = |group: &str, cfg: &ParallelConfig| {
            let agg = mk(group, cfg);
            let morsels = agg.fragment.scan.morsels(cfg.morsel_rows);
            agg.choose_radix(&morsels).unwrap()
        };
        let probe = probe_of("scat", &cfg);
        assert!(probe.radix, "scattered fine-grained groups must go radix");
        assert_eq!(probe.cached.len(), 2, "both sampled morsels must be reused");
        assert!(!probe_of("g", &cfg).radix, "coarse groups must stay on partials");
        assert!(!probe_of("uniq", &cfg).radix, "unique keys duplicate nothing — partials");
        assert!(!probe_of("clus", &cfg).radix, "clustered keys duplicate nothing — partials");
        // A handful of morsels (< 2× threads) cannot amortize the radix
        // input copy, whatever the cardinality: 512-row morsels split the
        // table into ~4 morsels and the probe keeps partials.
        let few = ParallelConfig { threads: 4, morsel_rows: 512, agg_radix: None };
        assert!(!probe_of("scat", &few).radix, "too few morsels must keep partials");
        // And the auto paths still answer correctly.
        assert_eq!(collect(Box::new(mk("scat", &cfg))).unwrap().rows(), 250);
        assert_eq!(collect(Box::new(mk("g", &cfg))).unwrap().rows(), 7);
        assert_eq!(collect(Box::new(mk("uniq", &cfg))).unwrap().rows(), 2000);
    }

    #[test]
    fn radix_aggregate_with_string_and_float_group_keys() {
        // Mixed-type group keys route through the shared codec; radix
        // must stay bit-identical to serial with strings and float keys.
        let rows = 1200usize;
        let s: Vec<String> = (0..rows).map(|i| format!("c{}", i % 97)).collect();
        let f: Vec<f64> = (0..rows).map(|i| ((i % 89) as f64) * 0.5).collect();
        let v: Vec<i64> = (0..rows as i64).collect();
        let t = Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("s".into(), Column::from_strings(s)),
                    ("f".into(), Column::from_f64(f)),
                    ("v".into(), Column::from_i64(v)),
                ],
                32,
            )
            .unwrap(),
        );
        let io = IoTracker::new();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col("v"), "sv"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ];
        let serial_in: BoxedOp =
            Box::new(PlainScan::new(Arc::clone(&t), io.clone(), &["s", "f", "v"], vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(serial_in, &["s", "f"], aggs.clone(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        let bp = ScanBlueprint {
            table: Arc::clone(&t),
            columns: vec!["s".into(), "f".into(), "v".into()],
            predicates: vec![],
            kind: ScanKind::Plain,
        };
        let cfg = ParallelConfig { threads: 4, morsel_rows: 64, agg_radix: Some(true) };
        let par = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: bp, steps: vec![] },
                &["s", "f"],
                aggs,
                io,
                cfg,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_global_aggregate_over_empty_selection_yields_zero_row() {
        let t = table(100);
        let io = IoTracker::new();
        let aggs = vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
        let cfg = ParallelConfig { threads: 2, morsel_rows: 16, agg_radix: None };
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
        let cfg = ParallelConfig { threads: 3, morsel_rows: 32, agg_radix: None };
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
