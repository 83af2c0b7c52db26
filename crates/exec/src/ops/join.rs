//! Hash join (inner, left-outer, semi, anti) with optional residual
//! predicate.
//!
//! One side is fully materialized and indexed by an allocation-free flat
//! [`JoinIndex`] keyed on the integer join columns; its size is registered
//! with the memory tracker — this is the memory the sandwich variant saves
//! (Figure 3). Inner and left-outer joins index the **right** child, as
//! written: their output can be as large as the right side, so a flipped
//! join would have to hold matched right rows until the left has ended.
//! **Semi / anti** joins emit a subset of their left rows in left order
//! whichever side is indexed, so they decide while running: they pull from
//! whichever child has produced fewer rows until one ends, and index that
//! one — no estimate; the loser has buffered at most the winner's rows plus
//! a batch, so the join holds O(2 · min(left, right)). If the right ends
//! first the buffered left batches are the first probe rounds. If the left
//! ends first every right batch probes the indexed left (`flipped`) to mark
//! the left rows it matches, and each original left batch is emitted
//! filtered by its marks — the rows, order and batch boundaries of the
//! right build. Under an active broker the race registers what it buffers,
//! and a pending batch over the high-water mark — the very first under
//! `BDCC_SPILL=force` — sends it to the spilled right build.
//!
//! Under a [`ParallelConfig`] the index build is hash-partitioned across
//! workers (see [`crate::parallel::partition`]) and the **probe** fans out
//! too: rounds of probe batches split into row-range probe morsels,
//! workers run the probe kernel over the shared immutable index, and
//! per-morsel match lists concatenate in morsel order — both
//! byte-identical to serial. Semi/Anti probes of a right build without a
//! residual use a first-hit existence probe and never gather pair columns.
//! Left-outer joins emit unmatched left rows with defaulted right columns
//! plus a `__matched` 0/1 column (the engine has no NULLs;
//! `COUNT(right.col)` compiles to `SUM(__matched)`).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use bdcc_obs::{OpMetrics, SpanTimer};
use bdcc_storage::{Column, DataType, IoTracker};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::broker::MemoryBroker;
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::Governor;
use crate::hash::JoinIndex;
use crate::kernel::{PairFilter, SelVec};
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, Operator};
use crate::parallel::morsel::split_rows;
use crate::parallel::{merge, pool, ParallelConfig};

#[path = "join_spill.rs"]
mod spill;

use spill::Build;

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Left outer with defaulted right columns and a `__matched` flag.
    LeftOuter,
    /// Emit left rows with at least one (residual-passing) match.
    Semi,
    /// Emit left rows with no (residual-passing) match.
    Anti,
}

/// The `__matched` column name appended by left-outer joins.
pub const MATCHED_COLUMN: &str = "__matched";

/// Materialized build side.
struct BuildSide {
    columns: Vec<Column>,
    index: JoinIndex,
    mem: MemoryGuard,
}

impl BuildSide {
    /// Index `columns` on `keys` and register the hash-table memory:
    /// materialized payload + the index's flat arrays (buckets, chains,
    /// packed keys, partition row ids).
    fn index(
        payload: Batch,
        keys: &[usize],
        cfg: &ParallelConfig,
        tracker: &Arc<MemoryTracker>,
    ) -> Result<BuildSide> {
        let key_cols: Vec<&[i64]> = keys
            .iter()
            .map(|&k| payload.columns[k].as_i64())
            .collect::<std::result::Result<_, _>>()?;
        let index = JoinIndex::build(&key_cols, cfg)?;
        let mem = tracker.register(payload.estimated_bytes() + index.estimated_bytes());
        Ok(BuildSide { columns: payload.columns, index, mem })
    }
}

/// Hash join operator.
pub struct HashJoin {
    left: BoxedOp,
    right: Option<BoxedOp>,
    join_type: JoinType,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Residual over (left ++ right) columns, compiled (see
    /// [`crate::kernel`]): evaluates on the candidate pair selection,
    /// gathering only referenced columns, and shrinks the match lists
    /// *before* the output gathers.
    residual: Option<PairFilter>,
    schema: OpSchema,
    /// Build-side column types (empty payloads to append to, left-outer
    /// defaults).
    right_types: Vec<DataType>,
    build: Option<Build>,
    tracker: Arc<MemoryTracker>,
    /// Memory broker (planner-installed). When active, an over-budget
    /// build side freezes its largest hash partitions to spill files and
    /// probes them one restored leaf at a time — see [`crate::broker`].
    broker: MemoryBroker,
    /// Meters spill file writes/reads (planner-installed with the broker;
    /// inert stand-alone tracker by default).
    spill_io: IoTracker,
    /// Wider than one thread, big build sides are indexed with the
    /// hash-partitioned parallel build and big probe rounds fan out as
    /// probe morsels across workers. One thread (the default) is the
    /// serial join.
    parallel: ParallelConfig,
    /// Batches of the probing side the race buffered: the first rounds.
    pending: VecDeque<Batch>,
    /// Probed-but-unemitted output batches (a parallel probe round
    /// produces one output batch per probed left batch).
    out: VecDeque<Batch>,
    /// Profiling hook (planner-installed): build-side size and
    /// partitioned-vs-single annotation, probe-morsel counts/latencies.
    /// `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query governance checkpoint, polled once per probe round
    /// (inert by default).
    governor: Governor,
}

impl HashJoin {
    /// Join `left` and `right` on equality of the named key columns.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        on: &[(&str, &str)],
        join_type: JoinType,
        residual: Option<Expr>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<HashJoin> {
        let lschema = left.schema().clone();
        let rschema = right.schema().clone();
        let mut left_keys = Vec::with_capacity(on.len());
        let mut right_keys = Vec::with_capacity(on.len());
        for (l, r) in on {
            left_keys.push(
                crate::batch::schema_index(&lschema, l)
                    .ok_or_else(|| ExecError::UnknownColumn((*l).to_string()))?,
            );
            right_keys.push(
                crate::batch::schema_index(&rschema, r)
                    .ok_or_else(|| ExecError::UnknownColumn((*r).to_string()))?,
            );
        }
        let mut combined = lschema.clone();
        combined.extend(rschema.iter().cloned());
        let residual = match residual {
            Some(e) => Some(PairFilter::new(&e.bind(&combined)?, &combined)),
            None => None,
        };
        let schema = match join_type {
            JoinType::Inner => combined,
            JoinType::LeftOuter => {
                let mut s = combined;
                s.push(ColMeta::new(MATCHED_COLUMN, DataType::Int));
                s
            }
            JoinType::Semi | JoinType::Anti => lschema,
        };
        let right_types = rschema.iter().map(|m| m.data_type).collect();
        Ok(HashJoin {
            left,
            right: Some(right),
            join_type,
            left_keys,
            right_keys,
            residual,
            schema,
            right_types,
            build: None,
            tracker,
            broker: MemoryBroker::none(),
            spill_io: IoTracker::new(),
            parallel: ParallelConfig::with_threads(1),
            pending: VecDeque::new(),
            out: VecDeque::new(),
            metrics: None,
            governor: Governor::none(),
        })
    }

    /// Set the width of the hash-partitioned index build and the
    /// morsel-parallel probe (planner-installed; results stay
    /// byte-identical at every width).
    pub fn with_parallel(mut self, cfg: ParallelConfig) -> HashJoin {
        self.parallel = cfg;
        self
    }

    /// Attach the profiling metric block (planner-installed).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> HashJoin {
        self.metrics = metrics;
        self
    }

    /// Attach the per-query governor (planner-installed); probe rounds
    /// become cancellation/deadline/budget checkpoints.
    pub fn with_governor(mut self, governor: Governor) -> HashJoin {
        self.governor = governor;
        self
    }

    /// Attach the memory broker and the spill I/O meter
    /// (planner-installed). Under an active broker an over-budget build
    /// side spills — results stay byte-identical.
    pub fn with_broker(mut self, broker: MemoryBroker, io: IoTracker) -> HashJoin {
        self.broker = broker;
        self.spill_io = io;
        self
    }

    /// Zero rows of the build side's column types.
    fn empty_build(&self) -> Batch {
        Batch::new(self.right_types.iter().map(|&dt| Column::empty(dt)).collect())
    }

    fn build_side(&mut self) -> Result<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut right = self.right.take().expect("build side consumed once");
        // Semi / anti joins race their children (module docs); for the
        // others this loop only ever pulls the right.
        let races = !emits_right(self.join_type);
        let mut payload = self.empty_build();
        let (mut lrows, mut lbytes) = (0usize, 0u64);
        // Under an active broker what the drain holds is registered as it
        // arrives so pressure is visible; the moment a pending batch would
        // push tracked memory past the high-water mark, the build switches
        // to the partitioned spill drain (`join_spill`) over the right rows
        // so far. An inactive broker never fires.
        let mut drain_mem = self.broker.is_active().then(|| self.tracker.register(0));
        let left_ended = loop {
            let pull_left = races && lrows < payload.rows();
            let pulled = if pull_left { self.left.next()? } else { right.next()? };
            let Some(batch) = pulled else { break pull_left };
            if self.broker.should_spill(batch.estimated_bytes()) {
                // The partitions register what they hold from here on.
                drop(drain_mem);
                // (A left batch that trips it is the first probe round.)
                let (first, held) =
                    if pull_left { (self.empty_build(), Some(batch)) } else { (batch, None) };
                self.pending.extend(held);
                let spilled = self.build_spilled(right, payload, first)?;
                self.build = Some(Build::Spilled(spilled));
                return Ok(());
            }
            if pull_left {
                lrows += batch.rows();
                lbytes += batch.estimated_bytes();
                self.pending.push_back(batch);
            } else {
                payload.append(&batch)?;
            }
            if let Some(g) = &mut drain_mem {
                g.resize(payload.estimated_bytes() + lbytes);
            }
        };
        drop(drain_mem);
        if let (true, Some(m)) = (races, &self.metrics) {
            m.annotate("race", format!("left={lrows} right={}", payload.rows()));
        }
        if !left_ended {
            let side = BuildSide::index(payload, &self.right_keys, &self.parallel, &self.tracker)?;
            self.annotate_build("right", &side);
            self.build = Some(Build::Mem(side));
            return Ok(());
        }
        let batch_rows: Vec<u32> = self.pending.iter().map(|b| b.rows() as u32).collect();
        let mut left = Batch::new(self.schema.iter().map(|m| Column::empty(m.data_type)).collect());
        self.pending.drain(..).try_for_each(|b| left.append(&b))?;
        let mut side = BuildSide::index(left, &self.left_keys, &self.parallel, &self.tracker)?;
        side.mem.grow(lrows as u64);
        self.annotate_build("left", &side);
        let mut marks = vec![false; lrows];
        self.pending.push_back(payload);
        self.right = Some(right);
        let mut streamed = 0usize;
        loop {
            let round = self.fill_round()?;
            if round.is_empty() {
                break;
            }
            self.governor.check("probe-round")?;
            streamed += round.iter().map(Batch::rows).sum::<usize>();
            for (_, (_, matched)) in self.probe_pieces(&round, &side, true)? {
                matched.into_iter().for_each(|l| marks[l as usize] = true);
            }
        }
        if let Some(m) = &self.metrics {
            m.annotate("streamed", streamed.to_string());
        }
        let (semi, mut at) = (self.join_type == JoinType::Semi, 0u32);
        for rows in batch_rows {
            let keep: Vec<u32> = (at..at + rows).filter(|&r| marks[r as usize] == semi).collect();
            let kept = side.columns.iter().map(|c| c.gather_u32(&keep)).collect();
            self.out.push_back(Batch::new(kept));
            at += rows;
        }
        self.build = Some(Build::Left);
        Ok(())
    }

    /// The join slice of the decision log: the side indexed and its rows
    /// (`race`: where a semi / anti join's children stood when one ended).
    fn annotate_build(&self, which: &str, side: &BuildSide) {
        let Some(m) = &self.metrics else { return };
        let rows = side.index.len();
        m.annotate("build_rows", rows.to_string());
        m.annotate("build", format!("{which}({rows})"));
    }
}

impl HashJoin {
    /// Pull the next round of probe batches — what the race buffered
    /// first, then the probing child (the right one, still held, past a
    /// left build): exactly one batch for a serial probe (the
    /// one-batch-at-a-time pipeline), or roughly `threads × morsel_rows`
    /// rows for a parallel probe — enough work for the fan-out while
    /// keeping probe-side buffering O(threads × morsel).
    fn fill_round(&mut self) -> Result<Vec<Batch>> {
        let cfg = &self.parallel;
        let mut target = if cfg.threads > 1 { cfg.threads * cfg.morsel_rows } else { 1 };
        if matches!(self.build, Some(Build::Spilled(_))) {
            // A spilled build restores every file leaf once per round:
            // bigger rounds amortize the restores while probe-side
            // buffering stays bounded.
            target = target.max(8192);
        }
        let child = self.right.as_mut().unwrap_or(&mut self.left);
        let mut round = Vec::new();
        let mut rows = 0usize;
        while rows < target {
            let next = self.pending.pop_front().map_or_else(|| child.next(), |b| Ok(Some(b)))?;
            let Some(b) = next else { break };
            rows += b.rows();
            round.push(b);
        }
        Ok(round)
    }

    /// Probe one round — serially batch-at-a-time, or (for a big-enough
    /// round under a parallel config) fanned out as `(batch, row range)`
    /// probe morsels. Per-morsel match lists concatenate in morsel order,
    /// and the per-batch output assembly (the column gathers) fans out as
    /// pool tasks as well, appending outputs in batch order — so each
    /// batch's output is byte-identical to the serial probe's.
    fn probe_round(&self, round: Vec<Batch>) -> Result<Vec<Batch>> {
        self.governor.check("probe-round")?;
        let build = match self.build.as_ref().expect("built") {
            Build::Mem(b) => b,
            Build::Spilled(s) => return self.probe_round_spilled(s, &round),
            Build::Left => unreachable!("a left build probes inside `build_side`"),
        };
        let cfg = &self.parallel;
        let mut pieces = self.probe_pieces(&round, build, false)?.into_iter().peekable();
        if !cfg.worth_splitting(round.iter().map(|b| b.rows()).sum()) {
            let finish = |(mut left, (_, (lidx, ridx))): (Batch, ProbePiece)| {
                let right = gather_pairs(build, self.join_type, &ridx);
                // Every row matched exactly once, in order (a foreign key
                // to an unfiltered table): the left columns pass through.
                if self.join_type == JoinType::Inner && lidx.iter().copied().eq(0..left.rows()) {
                    left.columns.extend(right);
                    return Ok(left);
                }
                finish_batch(&left, self.join_type, &self.right_types, &lidx, right)
            };
            return round.into_iter().zip(pieces).map(finish).collect();
        }
        let round = &round;
        // Pieces come back in batch-major, range-ascending order whatever
        // the task boundaries were; group them per batch, then
        // fan the per-batch output assembly (match-list concat + column
        // gathers) out as pool tasks too — the gathers are the dominant
        // cost of a residual-free inner join round, and each batch's
        // assembly is independent. `run_tasks` returns in batch order, so
        // the appended outputs are byte-identical to the serial probe's.
        let mut grouped: Vec<Mutex<Vec<MatchLists>>> = Vec::with_capacity(round.len());
        for bi in 0..round.len() {
            let mut lists = Vec::new();
            while pieces.peek().is_some_and(|(pbi, _)| *pbi == bi) {
                lists.push(pieces.next().expect("peeked").1);
            }
            grouped.push(Mutex::new(lists));
        }
        let (right_types, join_type) = (&self.right_types, self.join_type);
        pool::run_tasks_labeled(cfg.threads, round.len(), "join-assemble", |bi| {
            // Each gather task *takes* its batch's match lists (tasks are
            // per-batch, so the one lock is uncontended and the lists are
            // never copied).
            let lists = std::mem::take(&mut *grouped[bi].lock().expect("match lists poisoned"));
            let (lidx, ridx) = merge::concat_match_lists(lists);
            finish_batch(
                &round[bi],
                join_type,
                right_types,
                &lidx,
                gather_pairs(build, join_type, &ridx),
            )
        })
    }

    /// The probe kernel over a whole round, as pieces in batch-major,
    /// range-ascending order: one piece per batch serially, or — for a
    /// big-enough round under a parallel config — `(batch, row range)`
    /// probe morsels fanned out across workers (`flipped`: right batches
    /// against an indexed left side, see [`probe_range`]).
    fn probe_pieces(
        &self,
        round: &[Batch],
        build: &BuildSide,
        flipped: bool,
    ) -> Result<Vec<ProbePiece>> {
        let cfg = &self.parallel;
        let probe_keys = if flipped { &self.right_keys } else { &self.left_keys };
        let (join_type, residual) = (self.join_type, self.residual.as_ref());
        let probe = |bi: usize, range: Range<usize>| {
            probe_range(&round[bi], build, probe_keys, join_type, residual, range, flipped)
                .map(|lists| (bi, lists))
        };
        if !cfg.worth_splitting(round.iter().map(|b| b.rows()).sum()) {
            return (0..round.len()).map(|bi| probe(bi, 0..round[bi].rows())).collect();
        }
        // Batch-major (batch, row range) probe pieces, coalesced into
        // tasks of roughly one morsel of rows: a run of tiny batches (a
        // selective filter upstream) shares one task instead of paying a
        // queue op and a fan-out slot per batch.
        let mut tasks: Vec<Vec<(usize, Range<usize>)>> = Vec::new();
        let mut cur: Vec<(usize, Range<usize>)> = Vec::new();
        let mut cur_rows = 0usize;
        for (bi, batch) in round.iter().enumerate() {
            for r in split_rows(batch.rows(), cfg.morsel_rows) {
                cur_rows += r.len();
                cur.push((bi, r));
                if cur_rows >= cfg.morsel_rows {
                    tasks.push(std::mem::take(&mut cur));
                    cur_rows = 0;
                }
            }
        }
        if !cur.is_empty() {
            tasks.push(cur);
        }
        // The closure captures only `Sync` plan data, not `self` (the
        // child operators are not shareable).
        let metrics = self.metrics.as_ref();
        let per: Vec<Vec<ProbePiece>> =
            pool::run_tasks_labeled(cfg.threads, tasks.len(), "join-probe", |t| {
                let span = metrics.map(|_| SpanTimer::start());
                let pieces: Result<Vec<ProbePiece>> =
                    tasks[t].iter().map(|(bi, range)| probe(*bi, range.clone())).collect();
                if let (Some(m), Some(span)) = (metrics, span) {
                    m.morsels.add(1);
                    m.morsel_rows.add(tasks[t].iter().map(|(_, r)| r.len() as u64).sum());
                    m.morsel_nanos.record(span.elapsed_nanos());
                }
                pieces
            })?;
        Ok(per.into_iter().flatten().collect())
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.build_side()?;
        loop {
            while let Some(b) = self.out.pop_front() {
                if b.rows() > 0 {
                    return Ok(Some(b));
                }
            }
            let round = match self.build {
                Some(Build::Left) => Vec::new(),
                _ => self.fill_round()?,
            };
            if round.is_empty() {
                if let (Some(pf), Some(m)) = (&self.residual, &self.metrics) {
                    pf.annotate(m);
                }
                return Ok(None);
            }
            let outs = self.probe_round(round)?;
            self.out.extend(outs);
        }
    }
}

/// Match lists of one probe piece or batch: `(left rows, build rows)`,
/// post-residual, in probe order.
type MatchLists = (Vec<usize>, Vec<u32>);

/// One probe piece: the originating batch index in the round plus the
/// piece's (post-residual) match lists.
type ProbePiece = (usize, MatchLists);

/// Do we need full `(left, right)` pair lists, or only per-row existence?
/// Semi/Anti without a residual only ask *whether* a row matches.
fn needs_pairs(join_type: JoinType, has_residual: bool) -> bool {
    !matches!(join_type, JoinType::Semi | JoinType::Anti) || has_residual
}

/// Probe rows `range` of `probe` against the build index and return the
/// match lists `(probe rows, build rows)` with the residual already
/// applied — the per-morsel probe kernel (also the whole-batch kernel when
/// `range` spans the batch). `flipped`: the build is the join's **left**
/// side and `probe` a right batch — the residual reads its pair-schema
/// columns from the swapped sides and every matching build row is listed.
///
/// Otherwise Semi/Anti without a residual take the existence fast path: a
/// first-hit [`JoinIndex::has_match`] per row, no pair lists and **no
/// column gathers** — `ridx` comes back empty and `lidx` lists the matched
/// rows.
fn probe_range(
    probe: &Batch,
    build: &BuildSide,
    probe_keys: &[usize],
    join_type: JoinType,
    residual: Option<&PairFilter>,
    range: Range<usize>,
    flipped: bool,
) -> Result<(Vec<usize>, Vec<u32>)> {
    let key_cols: Vec<&[i64]> = probe_keys
        .iter()
        .map(|&k| probe.columns[k].as_i64())
        .collect::<std::result::Result<_, _>>()?;
    if !flipped && !needs_pairs(join_type, residual.is_some()) {
        let mut lidx = Vec::new();
        build.index.probe_exists(&key_cols, range, &mut lidx);
        return Ok((lidx, Vec::new()));
    }
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<u32> = Vec::new();
    build.index.probe_pairs(&key_cols, range, &mut lidx, &mut ridx);
    if let Some(pf) = residual {
        // Only the residual's referenced columns are gathered for the
        // candidate pairs of this morsel, and the match lists shrink
        // before the output gathers. Survivors keep probe order. The pair
        // schema is (left ++ right) whichever side probes.
        let (probe_base, build_base) =
            if flipped { (build.columns.len(), 0) } else { (0, probe.arity()) };
        let sel = pf.select_pairs(lidx.len(), |c| {
            Ok(if (probe_base..probe_base + probe.arity()).contains(&c) {
                probe.columns[c - probe_base].gather(&lidx)
            } else {
                build.columns[c - build_base].gather_u32(&ridx)
            })
        })?;
        if let SelVec::Rows(rows) = sel {
            lidx = rows.iter().map(|&i| lidx[i as usize]).collect();
            ridx = rows.iter().map(|&i| ridx[i as usize]).collect();
        }
    }
    Ok((lidx, ridx))
}

/// Does the output carry build-side columns? Semi/Anti emit left rows
/// only — the match list alone decides which survive.
fn emits_right(join_type: JoinType) -> bool {
    !matches!(join_type, JoinType::Semi | JoinType::Anti)
}

/// The build columns of the matched pairs `ridx`, aligned with the match
/// list — what [`finish_batch`] appends to the left columns (nothing for
/// Semi/Anti).
fn gather_pairs(build: &BuildSide, join_type: JoinType, ridx: &[u32]) -> Vec<Column> {
    if !emits_right(join_type) {
        return Vec::new();
    }
    build.columns.iter().map(|c| c.gather_u32(ridx)).collect()
}

/// Assemble a left batch's output from its (post-residual) matched left
/// rows `lidx` and the already-gathered build columns of those pairs
/// (`right`, see [`gather_pairs`]; `right_types` are their types).
fn finish_batch(
    left: &Batch,
    join_type: JoinType,
    right_types: &[DataType],
    lidx: &[usize],
    right: Vec<Column>,
) -> Result<Batch> {
    let rows = left.rows();
    let matched = || {
        let mut matched = vec![false; rows];
        for &l in lidx {
            matched[l] = true;
        }
        matched
    };
    if !emits_right(join_type) {
        let keep: Vec<bool> = match join_type {
            JoinType::Semi => matched(),
            _ => matched().iter().map(|&m| !m).collect(),
        };
        return Ok(left.filter(&keep));
    }
    let mut out = left.gather(lidx);
    out.columns.extend(right);
    if join_type == JoinType::LeftOuter {
        // Matched pairs with flag 1, then the unmatched left rows with
        // defaulted right columns and flag 0.
        out.columns.push(Column::from_i64(vec![1; lidx.len()]));
        let matched = matched();
        let unmatched: Vec<usize> = (0..rows).filter(|&r| !matched[r]).collect();
        if !unmatched.is_empty() {
            let mut rest = left.gather(&unmatched);
            rest.columns.extend(right_types.iter().map(|&dt| default_column(dt, unmatched.len())));
            rest.columns.push(Column::from_i64(vec![0; unmatched.len()]));
            out.append(&rest)?;
        }
    }
    Ok(out)
}

fn default_column(dt: DataType, n: usize) -> Column {
    match dt {
        DataType::Int => Column::from_i64(vec![0; n]),
        DataType::Date => Column::from_dates(vec![0; n]),
        DataType::Float => Column::from_f64(vec![0.0; n]),
        DataType::Str => Column::Str(std::iter::repeat_n("", n).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;

    struct Source {
        schema: OpSchema,
        batches: Vec<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>) -> Source {
            let schema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let batch = Batch::new(cols.into_iter().map(|(_, c)| c).collect());
            Source { schema, batches: vec![batch] }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.pop())
        }
    }

    fn orders() -> Source {
        Source::new(vec![
            ("o_orderkey", Column::from_i64(vec![1, 2, 3, 4])),
            ("o_custkey", Column::from_i64(vec![10, 20, 10, 30])),
        ])
    }

    fn customers() -> Source {
        Source::new(vec![
            ("c_custkey", Column::from_i64(vec![10, 20])),
            ("c_name", Column::from_strings(vec!["alice".into(), "bob".into()])),
        ])
    }

    #[test]
    fn inner_join_matches_pairs() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3); // orders 1,2,3 match; 4 has no customer
        let keys = out.columns[0].as_i64().unwrap();
        assert_eq!(keys, &[1, 2, 3]);
        assert_eq!(&out.columns[3].as_str().unwrap()[0], "alice");
        assert!(t.peak() > 0, "build side must be tracked");
        assert_eq!(t.current(), 0, "memory released after drop");
    }

    #[test]
    fn inner_join_passes_fully_matched_left_batches_through() {
        // Every row of the first left batch matches exactly one right row
        // (left columns reused); the second holds a row without a match
        // (gathered). Same output as a gather either way.
        let left = vec![(10, 1), (20, 2), (10, 3), (30, 4), (20, 5), (40, 6)];
        let right = vec![(10, 100), (20, 200), (30, 300)];
        let j = HashJoin::new(
            Box::new(Chunked::new(&left, ("lk", "lv"), 3)),
            Box::new(Chunked::new(&right, ("rk", "rv"), 2)),
            &[("lk", "rk")],
            JoinType::Inner,
            None,
            MemoryTracker::new(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(out.columns[3].as_i64().unwrap(), &[100, 200, 100, 300, 200]);
    }

    #[test]
    fn semi_and_anti() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Semi,
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.arity(), 2); // left columns only

        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            None,
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[4]);
    }

    #[test]
    fn left_outer_flags_unmatched() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(customers()),
            Box::new(Source::new(vec![
                ("o_custkey", Column::from_i64(vec![10, 10])),
                ("o_orderkey", Column::from_i64(vec![100, 101])),
            ])),
            &[("c_custkey", "o_custkey")],
            JoinType::LeftOuter,
            None,
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // alice matches twice, bob zero times (defaulted + flag 0).
        assert_eq!(out.rows(), 3);
        let matched = out.columns.last().unwrap().as_i64().unwrap();
        assert_eq!(matched.iter().sum::<i64>(), 2);
    }

    #[test]
    fn residual_restricts_matches() {
        let t = MemoryTracker::new();
        // Join orders to customers but require o_orderkey >= 3.
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            Some(Expr::col("o_orderkey").ge(Expr::lit(3))),
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[3]);
    }

    #[test]
    fn anti_with_residual_is_not_exists() {
        let t = MemoryTracker::new();
        // NOT EXISTS (customer with same key and name 'alice').
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            Some(Expr::col("c_name").eq(Expr::lit("alice"))),
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // Orders 2 (bob) and 4 (no customer) survive.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2, 4]);
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        // Tiny morsel budget forces the partitioned build even at this
        // scale; every join flavor must match the serial output exactly.
        let cfg = ParallelConfig { threads: 4, morsel_rows: 1 };
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            let serial = collect(Box::new(
                HashJoin::new(
                    Box::new(orders()),
                    Box::new(customers()),
                    &[("o_custkey", "c_custkey")],
                    jt,
                    None,
                    MemoryTracker::new(),
                )
                .unwrap(),
            ))
            .unwrap();
            let parallel = collect(Box::new(
                HashJoin::new(
                    Box::new(orders()),
                    Box::new(customers()),
                    &[("o_custkey", "c_custkey")],
                    jt,
                    None,
                    MemoryTracker::new(),
                )
                .unwrap()
                .with_parallel(cfg.clone()),
            ))
            .unwrap();
            assert_eq!(serial, parallel, "{jt:?}");
        }
    }

    /// Multi-batch chunked source for probe-round tests.
    struct Chunked {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Chunked {
        fn new(rows: &[(i64, i64)], names: (&str, &str), chunk: usize) -> Chunked {
            let schema =
                vec![ColMeta::new(names.0, DataType::Int), ColMeta::new(names.1, DataType::Int)];
            let batches: Vec<Batch> = rows
                .chunks(chunk)
                .map(|c| {
                    Batch::new(vec![
                        Column::from_i64(c.iter().map(|r| r.0).collect()),
                        Column::from_i64(c.iter().map(|r| r.1).collect()),
                    ])
                })
                .collect();
            Chunked { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Chunked {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    #[test]
    fn parallel_probe_rounds_are_byte_identical() {
        // Many small left batches force multi-batch probe rounds, and
        // morsel_rows 8 splits batches into several probe morsels; with
        // and without a residual, every flavor must equal serial exactly.
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8 };
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for residual in [false, true] {
                let res =
                    residual.then(|| Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1020))));
                let serial = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res.clone(),
                        MemoryTracker::new(),
                    )
                    .unwrap(),
                ))
                .unwrap();
                let parallel = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res,
                        MemoryTracker::new(),
                    )
                    .unwrap()
                    .with_parallel(cfg.clone()),
                ))
                .unwrap();
                assert_eq!(serial, parallel, "{jt:?} residual={residual}");
            }
        }
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        // Sargable residual (kernel leaf) and non-sargable residual
        // (fallback over the pair selection). The reference shares nothing
        // with the pair filter: the inner join *without* the residual,
        // its pairs filtered by the interpreter, each flavor then derived
        // by hand (`lv` identifies a left row; left batches hold 13).
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let residuals: Vec<Expr> = vec![
            Expr::col("rv").ge(Expr::lit(1030)),
            Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1020))),
        ];
        let serial = ParallelConfig::with_threads(1);
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8 };
        let run = |jt: JoinType, res: Option<Expr>, parallel: ParallelConfig| {
            let join = HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                jt,
                res,
                MemoryTracker::new(),
            )
            .unwrap()
            .with_parallel(parallel);
            let schema = join.schema().clone();
            (collect(Box::new(join)).unwrap(), schema)
        };
        let rows = |b: &Batch| -> Vec<Vec<i64>> {
            (0..b.rows())
                .map(|r| b.columns.iter().map(|c| c.as_i64().unwrap()[r]).collect())
                .collect()
        };
        let (all_pairs, pair_schema) = run(JoinType::Inner, None, serial.clone());
        for res in &residuals {
            let keep = res.bind(&pair_schema).unwrap().eval_bool(&all_pairs).unwrap();
            let pairs = rows(&all_pairs.filter(&keep));
            let matched = |l: &(i64, i64)| pairs.iter().any(|p| p[1] == l.1);
            for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
                let expected: Vec<Vec<i64>> = match jt {
                    JoinType::Inner => pairs.clone(),
                    JoinType::Semi | JoinType::Anti => left
                        .iter()
                        .filter(|l| matched(l) == (jt == JoinType::Semi))
                        .map(|l| vec![l.0, l.1])
                        .collect(),
                    // Per left batch: its surviving pairs flagged 1, then
                    // its unmatched rows with defaulted right columns.
                    JoinType::LeftOuter => left
                        .chunks(13)
                        .flat_map(|chunk| {
                            let (lo, hi) = (chunk[0].1, chunk[chunk.len() - 1].1);
                            let hits = pairs.iter().filter(move |p| (lo..=hi).contains(&p[1]));
                            let hits = hits.map(|p| [p.as_slice(), &[1]].concat());
                            let misses = chunk.iter().filter(|l| !matched(l));
                            hits.chain(misses.map(|l| vec![l.0, l.1, 0, 0, 0])).collect::<Vec<_>>()
                        })
                        .collect(),
                };
                for parallel in [serial.clone(), cfg.clone()] {
                    let (got, _) = run(jt, Some(res.clone()), parallel);
                    assert_eq!(rows(&got), expected, "{jt:?} {res:?}");
                }
            }
        }
    }

    #[test]
    fn spilled_build_is_byte_identical_for_every_flavor() {
        use crate::broker::SpillMode;
        use bdcc_storage::live_spill_files;
        let _spill = crate::broker::spill_test_guard();
        // Build side big enough to scatter across many partitions; left
        // side chunked so multiple probe rounds hit the restored leaves.
        let left: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, i)).collect();
        let right: Vec<(i64, i64)> = (0..300).map(|i| (i % 53, 1000 + i)).collect();
        let base = live_spill_files();
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for residual in [false, true] {
                let res =
                    residual.then(|| Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1150))));
                let serial = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res.clone(),
                        MemoryTracker::new(),
                    )
                    .unwrap(),
                ))
                .unwrap();
                // Force: everything freezes. Tiny auto budget: freeze +
                // recursive split on restore (4 KB budget → 2 KB leaves).
                let brokers: Vec<(&str, SpillMode, Option<u64>)> = vec![
                    ("force", SpillMode::Force, None),
                    ("tiny-auto", SpillMode::Auto, Some(4096)),
                ];
                for (name, mode, budget) in brokers {
                    let tracker = MemoryTracker::new();
                    let io = IoTracker::new();
                    let spilled = collect(Box::new(
                        HashJoin::new(
                            Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                            Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                            &[("lk", "rk")],
                            jt,
                            res.clone(),
                            Arc::clone(&tracker),
                        )
                        .unwrap()
                        .with_broker(MemoryBroker::with_mode(mode, &tracker, budget), io.clone()),
                    ))
                    .unwrap();
                    assert_eq!(serial, spilled, "{jt:?} residual={residual} {name}");
                    assert_eq!(
                        live_spill_files(),
                        base,
                        "{jt:?} residual={residual} {name}: temp files must unlink"
                    );
                    assert_eq!(tracker.current(), 0, "{name}: memory must release");
                    assert!(
                        io.stats().bytes_read > 0,
                        "{jt:?} {name}: spill traffic must be metered"
                    );
                }
            }
        }
    }

    #[test]
    fn spilled_build_under_parallel_probe_matches() {
        use crate::broker::SpillMode;
        let _spill = crate::broker::spill_test_guard();
        // Broker + parallel config: the spilled probe path is serial but
        // must still be byte-identical to the parallel in-memory one.
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8 };
        let serial = collect(Box::new(
            HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                JoinType::Inner,
                None,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        let tracker = MemoryTracker::new();
        let spilled = collect(Box::new(
            HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                JoinType::Inner,
                None,
                Arc::clone(&tracker),
            )
            .unwrap()
            .with_parallel(cfg)
            .with_broker(
                MemoryBroker::with_mode(SpillMode::Force, &tracker, None),
                IoTracker::new(),
            ),
        ))
        .unwrap();
        assert_eq!(serial, spilled);
    }

    #[test]
    fn roomy_auto_budget_never_spills() {
        use crate::broker::SpillMode;
        use bdcc_storage::live_spill_files;
        let _spill = crate::broker::spill_test_guard();
        let tracker = MemoryTracker::new();
        let io = IoTracker::new();
        let base = live_spill_files();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            Arc::clone(&tracker),
        )
        .unwrap()
        .with_broker(MemoryBroker::with_mode(SpillMode::Auto, &tracker, Some(1 << 30)), io.clone());
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(live_spill_files(), base);
        assert_eq!(io.stats().bytes_read, 0, "no spill traffic under a roomy budget");
    }

    #[test]
    fn unknown_key_rejected() {
        let t = MemoryTracker::new();
        assert!(HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("nope", "c_custkey")],
            JoinType::Inner,
            None,
            t,
        )
        .is_err());
    }
}
