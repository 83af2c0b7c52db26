//! The leaf scan: one operator for every scheme and every width.
//!
//! A [`Scan`] reads a stored table as an ordered list of **runs** — row
//! ranges, each with the values of the group-key columns to append (the
//! paper's scatter scan over `T_COUNT` ranges). What differs between the
//! schemes is only which runs the planner hands it:
//!
//! * **BDCC** — the *selected* count-table groups (bin-range restrictions
//!   already applied: selection pushdown and propagation happen at plan
//!   time) in the requested major-minor order, each carrying one key per
//!   requested dimension use, which downstream sandwich operators align on;
//! * **Plain / PK** — the table's MinMax statistics blocks in storage order
//!   with no keys ([`ScanBlueprint::blocks`]): a full scan is the same loop
//!   over the ranges the statistics already define.
//!
//! Per run the scan
//!
//! * skips every statistics block the run touches whose MinMax range cannot
//!   satisfy the sargable predicates (Vectorwise's automatic MinMax indices,
//!   ref [8]; inside BDCC groups this is *correlated* pushdown, e.g.
//!   `l_shipdate` thanks to `o_orderdate` locality),
//! * evaluates the predicates on the surviving blocks — on the encoded
//!   blocks through a [`ScanKernel`] when the table has them and every
//!   predicate is supported, else through the compiled residual
//!   ([`FilterProgram`]) over projection ++ predicate-only columns,
//! * emits **at most one batch, never crossing the run**, projection first,
//!   then the run's keys as constant columns.
//!
//! I/O accounting: every block piece that is *read* contributes the bytes of
//! the projected and predicate columns it covers (one span per contiguous
//! surviving range — a random seek per discontinuity, then sequential: the
//! access pattern Algorithm 1 sized the groups for); pruned blocks and
//! unselected groups cost nothing — precisely the effect Figure 2
//! attributes to selection pushdown.
//!
//! Width is how the runs are walked, not a second operator: at
//! `threads: 1`, or when the runs make a single morsel, [`Scan`] walks them
//! on the calling thread and polls the query's governor before every batch;
//! otherwise it hands run ranges ([`Morsel`]s) to the shared pool through a
//! bounded reorder buffer and releases their batches in run order. A batch
//! never crosses a run and a morsel never splits one, so both walks emit
//! the same batch stream.

use std::sync::Arc;

use bdcc_obs::{OpMetrics, SpanTimer};
use bdcc_storage::{Column, DataType, IoTracker, StoredTable};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::enc::{BlockVerdict, ScanKernel};
use crate::error::{ExecError, Result};
use crate::govern::Governor;
use crate::kernel::FilterProgram;
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::Operator;
use crate::parallel::morsel::{split_runs, Morsel};
use crate::parallel::{note_morsel, pool, ParallelConfig};
use crate::pred::{predicates_to_expr, ColPredicate};

/// One row range of the stored table, read as a unit: a selected
/// count-table group of a BDCC table, or one statistics block of a
/// Plain / PK table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub start: usize,
    pub count: usize,
    /// One value per emitted group-key column (the negotiated prefix bits
    /// of the corresponding dimension use); empty for a key-less scan.
    pub keys: Vec<i64>,
}

/// What a leaf scan reads, resolved once: column indices, the read set
/// with its I/O keys and widths, both compiled predicate forms, the output
/// schema and the ordered runs. Shared (`Sync`, behind an `Arc`) by every
/// walker over it — the planner's leaf, its streaming workers and the
/// per-morsel fragments of a parallel aggregate — so a morsel costs an
/// `Arc` clone, not a second compilation.
pub struct ScanBlueprint {
    table: Arc<StoredTable>,
    /// Sargable predicates (block pruning + residual).
    predicates: Vec<(usize, ColPredicate)>,
    /// Every column the scan physically reads as `(index, I/O key, stored
    /// bytes per row)`: the projection in output order, then the predicate
    /// columns outside it (read for evaluation only, deduplicated, in
    /// stable order).
    read_set: Vec<(usize, u64, f64)>,
    /// How many leading columns of the read set are emitted.
    projected: usize,
    /// Residual filter compiled against the read set (see
    /// [`crate::kernel`]); `None` when there are no predicates.
    program: Option<FilterProgram>,
    /// Compression-aware predicate kernel; `Some` only when the table is
    /// block-encoded and every predicate is kernel-supported.
    kernel: Option<ScanKernel>,
    /// Projection, then the group-key columns.
    schema: OpSchema,
    runs: Vec<Run>,
}

impl ScanBlueprint {
    /// A scan emitting `columns` (by name) plus one `Int` column per name in
    /// `key_names`, over `runs` in the given order. Predicate columns join
    /// the read set; they are not emitted unless projected.
    pub fn new<S: AsRef<str>>(
        table: Arc<StoredTable>,
        columns: &[S],
        predicates: Vec<ColPredicate>,
        key_names: &[String],
        runs: Vec<Run>,
    ) -> Result<Arc<ScanBlueprint>> {
        if let Some(r) = runs
            .iter()
            .find(|r| r.start + r.count > table.rows() || r.keys.len() != key_names.len())
        {
            return Err(ExecError::Plan(format!(
                "run {r:?} does not fit {} ({} rows, {} keys)",
                table.name(),
                table.rows(),
                key_names.len()
            )));
        }
        let read = |idx: usize| (idx, table.io_key(idx), table.io_width(idx));
        let mut read_set = Vec::with_capacity(columns.len() + predicates.len());
        let mut schema = Vec::with_capacity(columns.len() + key_names.len());
        for name in columns {
            let idx = table.column_index(name.as_ref())?;
            read_set.push(read(idx));
            schema.push(ColMeta::new(name.as_ref(), table.schema().columns[idx].data_type));
        }
        let projected = read_set.len();
        let mut preds = Vec::with_capacity(predicates.len());
        for p in &predicates {
            preds.push((table.column_index(&p.column)?, p.clone()));
        }
        // The residual is evaluated over projection ++ predicate columns.
        let mut eval_schema = schema.clone();
        for (idx, p) in &preds {
            if !eval_schema.iter().any(|m| m.name == p.column) {
                read_set.push(read(*idx));
                eval_schema.push(ColMeta::new(&p.column, table.schema().columns[*idx].data_type));
            }
        }
        let program = match predicates_to_expr(&predicates) {
            Some(e) => Some(FilterProgram::compile(&e.bind(&eval_schema)?, &eval_schema)),
            None => None,
        };
        schema.extend(key_names.iter().map(|name| ColMeta::new(name.clone(), DataType::Int)));
        let kernel = ScanKernel::try_new(&table, &preds);
        Ok(Arc::new(ScanBlueprint {
            table,
            predicates: preds,
            read_set,
            projected,
            program,
            kernel,
            schema,
            runs,
        }))
    }

    /// The key-less scan of a whole table (Plain and PK schemes): its runs
    /// are the MinMax statistics blocks, in storage order.
    pub fn blocks<S: AsRef<str>>(
        table: Arc<StoredTable>,
        columns: &[S],
        predicates: Vec<ColPredicate>,
    ) -> Result<Arc<ScanBlueprint>> {
        let runs = (0..table.block_count())
            .map(|b| {
                let (start, end) = table.block_range_rows(b, b + 1);
                Run { start, count: end - start, keys: Vec::new() }
            })
            .collect();
        ScanBlueprint::new(table, columns, predicates, &[], runs)
    }

    pub fn table(&self) -> &Arc<StoredTable> {
        &self.table
    }

    /// The runs in output order. A walk over any contiguous index range of
    /// them yields exactly the corresponding sub-stream of the whole scan,
    /// so ordered concatenation over a partition of the indices reproduces
    /// it batch for batch.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Indices of every column the scan reads (projection ∪ predicates).
    pub fn read_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.read_set.iter().map(|r| r.0)
    }

    /// Rows the scan would read if nothing were pruned (the weight used to
    /// decide whether going parallel is worth it).
    pub fn total_rows(&self) -> usize {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Partition the runs into morsels of roughly `morsel_rows` rows.
    pub fn morsels(&self, morsel_rows: usize) -> Vec<Morsel> {
        split_runs(&self.runs, morsel_rows)
    }

    fn charge_io(&self, io: &IoTracker, start_row: usize, end_row: usize) {
        for &(_, key, width) in &self.read_set {
            let first = (start_row as f64 * width) as u64;
            let last = ((end_row as f64 * width) as u64).saturating_sub(1).max(first);
            io.record_span(key, first, last);
        }
    }

    /// Read one run: prune and evaluate block by block, then assemble the
    /// survivors into at most one batch. `ranges` is the walker's scratch
    /// buffer for the run's surviving row ranges.
    fn read_run(
        &self,
        run: &Run,
        io: &IoTracker,
        metrics: Option<&OpMetrics>,
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<Option<Batch>> {
        if run.count == 0 {
            return Ok(None);
        }
        let (start, end) = (run.start, run.start + run.count);
        let grid = self.table.block_stats(0)?;
        ranges.clear();
        // Surviving rows are kept as ranges (copied by range) until a block
        // keeps only some of its rows; from there on as row indices
        // (gathered), so a fully passing run never builds an index list.
        let mut picked: Vec<usize> = Vec::new();
        'blocks: for b in grid.block_of_row(start)..=grid.block_of_row(end - 1) {
            let (block_start, block_end) = grid.rows_of_block(b, self.table.rows());
            let (s, e) = (block_start.max(start), block_end.min(end));
            for (col, pred) in &self.predicates {
                if !pred.block_may_match(&self.table.block_stats(*col)?.blocks[b]) {
                    if let Some(m) = metrics {
                        m.blocks_skipped.add(1);
                    }
                    continue 'blocks;
                }
            }
            let Some(kernel) = &self.kernel else {
                push_range(ranges, s, e);
                continue;
            };
            // Compression-aware path: predicates run on the encoded block;
            // the projection materializes late, only for survivors, from the
            // resident raw columns. Predicate-only columns are never
            // assembled.
            let verdict = kernel.eval_block(&self.table, b, block_start, s, e)?;
            if verdict == BlockVerdict::SkipNoRows {
                // Decided from metadata: the block's rows were never read.
                if let Some(m) = metrics {
                    m.enc_skipped.add(1);
                }
                continue;
            }
            self.charge_io(io, s, e);
            match verdict {
                BlockVerdict::SkipNoRows | BlockVerdict::Skip => {}
                BlockVerdict::All if picked.is_empty() => push_range(ranges, s, e),
                BlockVerdict::All => picked.extend(s..e),
                BlockVerdict::Rows(idx) => {
                    if picked.is_empty() && ranges.is_empty() {
                        picked = idx;
                    } else {
                        picked.extend(ranges.drain(..).flat_map(|(s, e)| s..e));
                        picked.extend(idx);
                    }
                }
            }
        }
        if ranges.is_empty() && picked.is_empty() {
            return Ok(None);
        }
        // The raw path reads what pruning left, one span per contiguous
        // range, and assembles the predicate-only columns too.
        let assembled = match &self.kernel {
            Some(_) => self.projected,
            None => {
                ranges.iter().for_each(|&(s, e)| self.charge_io(io, s, e));
                self.read_set.len()
            }
        };
        let mut columns = Vec::with_capacity(assembled + run.keys.len());
        for &(col, ..) in &self.read_set[..assembled] {
            let src = self.table.column(col)?;
            columns.push(match ranges.split_first() {
                None => src.gather(&picked),
                Some((&(s, e), rest)) => {
                    let mut out = src.slice(s, e);
                    for &(s, e) in rest {
                        out.append_range(src, s, e)?;
                    }
                    out
                }
            });
        }
        let mut batch = Batch::new(columns);
        if let (None, Some(program)) = (&self.kernel, &self.program) {
            let sel = program.select(&batch)?;
            if sel.is_empty() {
                return Ok(None);
            }
            // An all-pass selection moves the assembled columns through
            // unchanged; predicate-only columns drop without a copy of the
            // survivors.
            batch = sel.take(batch);
            batch.columns.truncate(self.projected);
        }
        let n = batch.rows();
        if n == 0 {
            return Ok(None);
        }
        batch.columns.extend(run.keys.iter().map(|&k| Column::from_i64(vec![k; n])));
        Ok(Some(batch))
    }
}

/// Extend the last surviving range when `[s, e)` continues it.
fn push_range(ranges: &mut Vec<(usize, usize)>, s: usize, e: usize) {
    match ranges.last_mut() {
        Some((_, end)) if *end == s => *end = e,
        _ => ranges.push((s, e)),
    }
}

/// In-flight morsel budget of a streaming scan, in units of `threads`:
/// enough slack that workers rarely park on the reorder buffer, small
/// enough that peak memory stays O(threads × morsel).
const STREAM_CAP_PER_THREAD: usize = 2;

/// Finished morsels in run order: each one's batches and the registration
/// that keeps them charged until the consumer has drained them.
type MorselStream = pool::OrderedStream<(Vec<Batch>, MemoryGuard)>;

/// How a [`Scan`] walks its runs.
enum Walk {
    /// Runs `[next, end)` on the calling thread.
    Inline { next: usize, end: usize },
    /// Morsels on the pool (spawned by the first `next()`): workers push
    /// `(morsel, batches)` through the bounded reorder buffer; `current`
    /// drains the released morsel's batches while `mem` keeps them
    /// registered.
    Streaming {
        morsels: Vec<Morsel>,
        threads: usize,
        tracker: Arc<MemoryTracker>,
        stream: Option<MorselStream>,
        current: std::vec::IntoIter<Batch>,
        mem: Option<MemoryGuard>,
    },
}

/// The leaf scan operator (see the [module docs](self)).
///
/// Streaming keeps at most O(`threads`) morsels in flight (backpressure by
/// submission gating — a stalled consumer parks no worker), so downstream
/// operators start consuming while the scan is still running and peak
/// tracked memory is O(threads × morsel) instead of O(table). Each
/// in-flight morsel's batches are registered with the memory tracker by the
/// worker that produced them and released when the consumer moves past the
/// morsel.
pub struct Scan {
    blueprint: Arc<ScanBlueprint>,
    io: IoTracker,
    /// Profiling hook (planner-installed): block-skip counters from every
    /// walker, morsel counts / latencies from the workers, reorder-buffer
    /// occupancy from the consumer, the path and the residual's kernel
    /// statistics as annotations. `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query limits: an inline walk polls them before every batch, a
    /// streaming producer before every morsel, so cancellation stops the
    /// scan within one batch / one morsel. Inert by default.
    governor: Governor,
    walk: Walk,
    /// Scratch for [`ScanBlueprint::read_run`].
    ranges: Vec<(usize, usize)>,
}

impl Scan {
    /// The whole scan at the width of `cfg`: streamed through the pool when
    /// wider than one thread and more than one morsel, inline otherwise.
    pub fn new(
        blueprint: Arc<ScanBlueprint>,
        io: IoTracker,
        cfg: &ParallelConfig,
        tracker: Arc<MemoryTracker>,
    ) -> Scan {
        let morsels = if cfg.threads > 1 { blueprint.morsels(cfg.morsel_rows) } else { Vec::new() };
        if morsels.len() <= 1 {
            let runs = 0..blueprint.runs.len();
            return Scan::over(blueprint, io, runs);
        }
        let walk = Walk::Streaming {
            morsels,
            threads: cfg.threads,
            tracker,
            stream: None,
            current: Vec::new().into_iter(),
            mem: None,
        };
        Scan::walking(blueprint, io, walk)
    }

    /// An inline walk over runs `[runs.start, runs.end)` — what a worker
    /// builds for its morsel.
    pub fn over(blueprint: Arc<ScanBlueprint>, io: IoTracker, runs: Morsel) -> Scan {
        let end = runs.end.min(blueprint.runs.len());
        let walk = Walk::Inline { next: runs.start.min(end), end };
        Scan::walking(blueprint, io, walk)
    }

    fn walking(blueprint: Arc<ScanBlueprint>, io: IoTracker, walk: Walk) -> Scan {
        Scan { blueprint, io, metrics: None, governor: Governor::none(), walk, ranges: Vec::new() }
    }

    /// The key-less inline scan of a whole table, block by block.
    pub fn blocks<S: AsRef<str>>(
        table: Arc<StoredTable>,
        io: IoTracker,
        columns: &[S],
        predicates: Vec<ColPredicate>,
    ) -> Result<Scan> {
        let blueprint = ScanBlueprint::blocks(table, columns, predicates)?;
        let runs = 0..blueprint.runs.len();
        Ok(Scan::over(blueprint, io, runs))
    }

    /// Attach the profiling metric block (planner-installed) and log the
    /// path this scan takes.
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> Scan {
        if let Some(m) = &metrics {
            let inline = matches!(self.walk, Walk::Inline { .. });
            m.annotate("path", if inline { "serial" } else { "streaming" });
        }
        self.metrics = metrics;
        self
    }

    /// Attach the query's governor (planner-installed).
    pub fn with_governor(mut self, governor: Governor) -> Scan {
        self.governor = governor;
        self
    }
}

/// Fan `morsels` out: each pool task walks one morsel inline and publishes
/// its batches at the morsel's position in the stream.
fn spawn_stream(
    blueprint: &Arc<ScanBlueprint>,
    io: &IoTracker,
    metrics: &Option<Arc<OpMetrics>>,
    governor: &Governor,
    morsels: Vec<Morsel>,
    threads: usize,
    tracker: &Arc<MemoryTracker>,
) -> MorselStream {
    let (blueprint, io, metrics) = (Arc::clone(blueprint), io.clone(), metrics.clone());
    let (governor, tracker) = (governor.clone(), Arc::clone(tracker));
    pool::OrderedStream::spawn_labeled(
        threads,
        morsels.len(),
        threads * STREAM_CAP_PER_THREAD,
        Some("scan-morsel"),
        move |i| {
            // One governor poll per morsel: a cancelled/over-deadline
            // query stops this producer before it scans another morsel.
            governor.check("scan-morsel")?;
            let span = metrics.as_ref().map(|_| SpanTimer::start());
            let mut op = Scan::over(Arc::clone(&blueprint), io.clone(), morsels[i].clone());
            op.metrics = metrics.clone();
            let mut out = Vec::new();
            let mut rows = 0u64;
            while let Some(b) = op.next()? {
                rows += b.rows() as u64;
                out.push(b);
            }
            note_morsel(&metrics, span, rows);
            // Charge the morsel while it sits in the reorder buffer (and
            // until the consumer finishes draining it); with the in-flight
            // cap this is what keeps peak O(threads × morsel).
            let bytes: u64 = out.iter().map(|b| b.estimated_bytes()).sum();
            Ok((out, tracker.register(bytes)))
        },
    )
}

impl Operator for Scan {
    fn schema(&self) -> &OpSchema {
        &self.blueprint.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        match &mut self.walk {
            Walk::Inline { next, end } => {
                // Inline leaves are where an otherwise-unparallel plan
                // spends its time — poll the governor per batch there.
                self.governor.check("scan-batch")?;
                while *next < *end {
                    let run = &self.blueprint.runs[*next];
                    *next += 1;
                    let metrics = self.metrics.as_deref();
                    if let Some(batch) =
                        self.blueprint.read_run(run, &self.io, metrics, &mut self.ranges)?
                    {
                        return Ok(Some(batch));
                    }
                }
                if let (Some(m), Some(p)) = (&self.metrics, &self.blueprint.program) {
                    p.annotate(m);
                }
                Ok(None)
            }
            Walk::Streaming { morsels, threads, tracker, stream, current, mem } => loop {
                if let Some(b) = current.next() {
                    return Ok(Some(b));
                }
                *mem = None; // previous morsel fully drained
                let stream = stream.get_or_insert_with(|| {
                    let (io, morsels) = (&self.io, std::mem::take(morsels));
                    let (metrics, governor) = (&self.metrics, &self.governor);
                    spawn_stream(&self.blueprint, io, metrics, governor, morsels, *threads, tracker)
                });
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
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::{Datum, TableBuilder};
    use proptest::prelude::*;

    /// 12 rows in 3 blocks of 4 (`k` = row, `v` = 10 · row).
    fn table() -> Arc<StoredTable> {
        let k: Vec<i64> = (0..12).collect();
        let v: Vec<i64> = (0..12).map(|i| i * 10).collect();
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![("k".into(), Column::from_i64(k)), ("v".into(), Column::from_i64(v))],
                4,
            )
            .unwrap(),
        )
    }

    /// A sorted table of 16 rows in blocks of 4: key = row/4 (4 groups of 4).
    fn grouped_table() -> Arc<StoredTable> {
        let k: Vec<i64> = (0..16).map(|i| i / 4).collect();
        let v: Vec<i64> = (0..16).collect();
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t_bdcc",
                vec![("k".into(), Column::from_i64(k)), ("v".into(), Column::from_i64(v))],
                4,
            )
            .unwrap(),
        )
    }

    /// The given 4-row groups of [`grouped_table`], each keyed by its number.
    fn groups(sel: &[usize]) -> Vec<Run> {
        sel.iter().map(|&g| Run { start: g * 4, count: 4, keys: vec![g as i64] }).collect()
    }

    /// An inline scan of `runs`, emitting one key column per run key.
    fn scan_runs(
        table: &Arc<StoredTable>,
        io: &IoTracker,
        columns: &[&str],
        predicates: Vec<ColPredicate>,
        runs: Vec<Run>,
    ) -> Scan {
        let keys = runs.first().map_or(0, |r| r.keys.len());
        let names: Vec<String> = (0..keys).map(|i| format!("__gk{i}")).collect();
        let n = runs.len();
        let blueprint =
            ScanBlueprint::new(Arc::clone(table), columns, predicates, &names, runs).unwrap();
        Scan::over(blueprint, io.clone(), 0..n)
    }

    fn block_scan(columns: &[&str], predicates: Vec<ColPredicate>) -> Result<Scan> {
        Scan::blocks(table(), IoTracker::new(), columns, predicates)
    }

    #[test]
    fn full_scan_returns_everything() {
        let io = IoTracker::new();
        let scan = Scan::blocks(table(), io.clone(), &["k", "v"], vec![]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 12);
        assert!(io.stats().bytes_read > 0);
    }

    #[test]
    fn block_skipping_reduces_io() {
        let io_full = IoTracker::new();
        let scan = Scan::blocks(table(), io_full.clone(), &["k"], vec![]).unwrap();
        collect(Box::new(scan)).unwrap();

        let io_pruned = IoTracker::new();
        // k >= 8 → only the last block qualifies.
        let preds = vec![ColPredicate::ge("k", 8i64)];
        let scan = Scan::blocks(table(), io_pruned.clone(), &["k"], preds).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[8, 9, 10, 11]);
        assert!(io_pruned.stats().bytes_read < io_full.stats().bytes_read);
    }

    #[test]
    fn residual_filters_within_blocks() {
        let scan = block_scan(&["v"], vec![ColPredicate::between("k", 2i64, 5i64)]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[20, 30, 40, 50]);
    }

    #[test]
    fn predicate_on_unprojected_column() {
        let scan = block_scan(&["v"], vec![ColPredicate::eq("k", 7i64)]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[70]);
        assert_eq!(out.arity(), 1);
    }

    #[test]
    fn empty_result_when_nothing_matches() {
        let scan = block_scan(&["k"], vec![ColPredicate::eq("k", 999i64)]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn unknown_columns_and_misfit_runs_rejected() {
        assert!(block_scan(&["zzz"], vec![]).is_err());
        assert!(block_scan(&["k"], vec![ColPredicate::eq("missing", 1i64)]).is_err());
        // A run past the table's end, and a run with a key nobody named.
        let run = |start, keys| vec![Run { start, count: 4, keys }];
        assert!(ScanBlueprint::new(table(), &["k"], vec![], &[], run(10, vec![])).is_err());
        assert!(ScanBlueprint::new(table(), &["k"], vec![], &[], run(0, vec![1])).is_err());
    }

    #[test]
    fn string_block_stats_prune() {
        let t = Arc::new(
            StoredTable::from_columns_with_block_rows(
                "s",
                vec![(
                    "name".into(),
                    Column::from_strings(
                        ["apple", "avocado", "banana", "cherry", "melon", "peach", "pear", "plum"]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    ),
                )],
                4,
            )
            .unwrap(),
        );
        let preds = vec![ColPredicate::eq("name", Datum::Str("pear".into()))];
        let scan = Scan::blocks(t, IoTracker::new(), &["name"], preds).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0], Column::from_strings(vec!["pear".into()]));
    }

    #[test]
    fn run_range_partitions_tile_the_scan() {
        let io = IoTracker::new();
        let blueprint = ScanBlueprint::blocks(table(), &["k"], vec![]).unwrap();
        let over =
            |runs| collect(Box::new(Scan::over(Arc::clone(&blueprint), io.clone(), runs))).unwrap();
        let full = over(0..3);
        // Split into [0,1) ++ [1,3): concatenation equals the full scan.
        let (a, b) = (over(0..1), over(1..3));
        let mut joined = a.columns[0].as_i64().unwrap().to_vec();
        joined.extend_from_slice(b.columns[0].as_i64().unwrap());
        assert_eq!(joined, full.columns[0].as_i64().unwrap());
        // Out-of-range partitions are empty, not errors.
        assert_eq!(over(7..9).rows(), 0);
    }

    #[test]
    fn scan_selected_groups_in_given_order() {
        let scan = scan_runs(&grouped_table(), &IoTracker::new(), &["v"], vec![], groups(&[2, 0]));
        let out = collect(Box::new(scan)).unwrap();
        // Group 2 rows first, then group 0 (scatter order).
        assert_eq!(out.columns[0].as_i64().unwrap(), &[8, 9, 10, 11, 0, 1, 2, 3]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn batches_never_cross_runs() {
        let all = groups(&[0, 1, 2, 3]);
        let mut scan = scan_runs(&grouped_table(), &IoTracker::new(), &["v"], vec![], all);
        let mut batches = 0;
        while let Some(b) = scan.next().unwrap() {
            batches += 1;
            let gk = b.columns[1].as_i64().unwrap();
            assert!(gk.iter().all(|&g| g == gk[0]), "batch spans groups");
        }
        assert_eq!(batches, 4);
    }

    #[test]
    fn group_skipping_reduces_io() {
        let keyless = |sel: &[usize]| -> Vec<Run> {
            groups(sel).into_iter().map(|r| Run { keys: vec![], ..r }).collect()
        };
        let io_all = IoTracker::new();
        let scan = scan_runs(&grouped_table(), &io_all, &["v"], vec![], keyless(&[0, 1, 2, 3]));
        collect(Box::new(scan)).unwrap();

        let io_sel = IoTracker::new();
        let scan = scan_runs(&grouped_table(), &io_sel, &["v"], vec![], keyless(&[1]));
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 4);
        assert!(io_sel.stats().bytes_read <= io_all.stats().bytes_read);
    }

    #[test]
    fn minmax_inside_groups() {
        // v >= 14 within all groups: only the last block of group 3 matches.
        let preds = vec![ColPredicate::ge("v", 14i64)];
        let all = groups(&[0, 1, 2, 3]);
        let scan = scan_runs(&grouped_table(), &IoTracker::new(), &["v"], preds, all);
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[14, 15]);
    }

    #[test]
    fn multiple_group_keys() {
        let g = vec![Run { start: 0, count: 4, keys: vec![7, 9] }];
        let scan = scan_runs(&grouped_table(), &IoTracker::new(), &["v"], vec![], g);
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.arity(), 3);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[7, 7, 7, 7]);
        assert_eq!(out.columns[2].as_i64().unwrap(), &[9, 9, 9, 9]);
    }

    #[test]
    fn empty_run_list_terminates() {
        let scan = scan_runs(&grouped_table(), &IoTracker::new(), &["v"], vec![], vec![]);
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 0);
    }

    /// `rows` rows in `block_rows`-row blocks: an int, a float, a
    /// low-cardinality string and a payload column (`v` = 10 · row) —
    /// encoded (dictionary / packed blocks) or raw.
    fn residual_table(encoded: bool, rows: usize, block_rows: usize) -> Arc<StoredTable> {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        let n = rows as i64;
        Arc::new(crate::enc::build_with_encoding(encoded, || {
            StoredTable::from_columns_with_block_rows(
                "r",
                vec![
                    ("k".into(), Column::from_i64((0..n).map(|i| (i * 7) % 64).collect())),
                    ("f".into(), Column::from_f64((0..n).map(|i| i as f64 * 0.5).collect())),
                    (
                        "s".into(),
                        Column::from_strings((0..rows).map(|i| modes[i % 4].into()).collect()),
                    ),
                    ("v".into(), Column::from_i64((0..n).map(|i| i * 10).collect())),
                ],
                block_rows,
            )
            .unwrap()
        }))
    }

    /// The residual cases every scan must get right: `(name, table is
    /// encoded, predicates, whether the encoded-block kernel takes them)`.
    /// Encoded int/string predicates run on the blocks and materialise the
    /// projection late; floats and raw tables go through the compiled
    /// residual over projection ++ predicate-only columns.
    fn residual_cases() -> Vec<(&'static str, bool, Vec<ColPredicate>, bool)> {
        let int_str =
            || vec![ColPredicate::between("k", 10i64, 50i64), ColPredicate::eq("s", "RAIL")];
        vec![
            ("encoded int+str", true, int_str(), true),
            ("raw int+str", false, int_str(), false),
            ("encoded float", true, vec![ColPredicate::ge("f", 11.25f64)], false),
            (
                "encoded float+int",
                true,
                vec![ColPredicate::lt("f", 20.0f64), ColPredicate::ge("k", 32i64)],
                false,
            ),
        ]
    }

    /// What a scan of `runs` projecting `v` under `preds` must return,
    /// computed without any scan residual: the same runs are read with
    /// every column and no predicate, the interpreter filters that, and the
    /// predicate columns drop out (the keys stay).
    fn hand_filtered(t: &Arc<StoredTable>, preds: &[ColPredicate], runs: &[Run]) -> Batch {
        let reference =
            scan_runs(t, &IoTracker::new(), &["v", "k", "f", "s"], vec![], runs.to_vec());
        let schema = reference.schema().clone();
        let all = collect(Box::new(reference)).unwrap();
        let residual = predicates_to_expr(preds).unwrap().bind(&schema).unwrap();
        let mut out = all.filter(&residual.eval_bool(&all).unwrap());
        out.columns.drain(1..4);
        out
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        // The 8-row blocks themselves, and six-row keyed groups that
        // straddle them, read in scatter order.
        let blocks: Vec<Run> =
            (0..8).map(|b| Run { start: b * 8, count: 8, keys: vec![] }).collect();
        let scattered: Vec<Run> = [7usize, 0, 4, 9]
            .iter()
            .map(|&g| Run { start: g * 6, count: 6, keys: vec![g as i64] })
            .collect();
        for (name, encoded, preds, late) in residual_cases() {
            let t = residual_table(encoded, 64, 8);
            for runs in [&blocks, &scattered] {
                let scan = scan_runs(&t, &IoTracker::new(), &["v"], preds.clone(), runs.clone());
                assert_eq!(scan.blueprint.kernel.is_some(), late, "{name}: wrong residual path");
                let got = collect(Box::new(scan)).unwrap();
                let want = hand_filtered(&t, &preds, runs);
                let kept: usize = runs.iter().map(|r| r.count).sum();
                assert!(0 < want.rows() && want.rows() < kept, "{name}: residual must cut");
                assert_eq!(got, want, "{name}");
            }
        }
    }

    #[test]
    fn table_builder_smoke() {
        let t = TableBuilder::new("x").column("a", Column::from_i64(vec![1])).build().unwrap();
        assert_eq!(t.rows(), 1);
    }

    // --- width: streaming replays the inline walk --------------------------

    fn wide_table(rows: usize) -> Arc<StoredTable> {
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

    /// Every batch of the scan at width `cfg`, in order.
    fn batches_at(blueprint: &Arc<ScanBlueprint>, cfg: &ParallelConfig) -> Vec<Batch> {
        let mut scan =
            Scan::new(Arc::clone(blueprint), IoTracker::new(), cfg, MemoryTracker::new());
        std::iter::from_fn(|| scan.next().unwrap()).collect()
    }

    #[test]
    fn streaming_replays_the_inline_batch_stream() {
        let serial = ParallelConfig { threads: 1, morsel_rows: 64 };
        let plain = ScanBlueprint::blocks(wide_table(1000), &["k", "g", "f"], vec![]).unwrap();
        assert_eq!(
            batches_at(&plain, &serial),
            batches_at(&plain, &ParallelConfig { threads: 3, morsel_rows: 64 })
        );
        let preds = vec![ColPredicate::ge("k", 100i64), ColPredicate::le("k", 399i64)];
        let pruned = ScanBlueprint::blocks(wide_table(500), &["k", "f"], preds).unwrap();
        let inline = batches_at(&pruned, &serial);
        assert_eq!(inline.iter().map(Batch::rows).sum::<usize>(), 300);
        assert_eq!(inline, batches_at(&pruned, &ParallelConfig { threads: 4, morsel_rows: 32 }));
    }

    #[test]
    fn one_oversized_morsel_polls_the_governor_per_batch() {
        // Wider than one thread and bigger than a morsel, yet a single
        // morsel (a tiny run, then an oversized one that closes it): the
        // scan walks inline and must poll like any other inline leaf.
        let runs = vec![
            Run { start: 0, count: 1, keys: vec![] },
            Run { start: 1, count: 99, keys: vec![] },
        ];
        let blueprint = ScanBlueprint::new(wide_table(100), &["k"], vec![], &[], runs).unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8 };
        assert_eq!(blueprint.morsels(cfg.morsel_rows), vec![0..2]);
        let governed = |governor: Governor| {
            Scan::new(Arc::clone(&blueprint), IoTracker::new(), &cfg, MemoryTracker::new())
                .with_governor(governor)
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

    // --- any partition into runs reads the same rows ------------------------

    /// FNV-1a over every batch (row count, then the `v` values) of every
    /// block-partition scan the property below has run.
    static BLOCK_STREAMS: std::sync::Mutex<(usize, u64)> =
        std::sync::Mutex::new((0, 0xcbf29ce484222325));

    /// [`BLOCK_STREAMS`] after all cases, recorded at commit `c05293c` from
    /// the block-at-a-time scan this operator replaced, over the same
    /// generated inputs.
    const PARENT_BLOCK_STREAMS: u64 = 0x0214_e4b0_a7b9_ab7f;

    proptest! {
        /// For random tables (encoded and raw), predicates and cut points: a
        /// key-less scan over *any* partition of `0..rows` into runs returns
        /// the rows the interpreter keeps, no batch crossing a run; over the
        /// block partition it returns them batch for batch as the plain scan
        /// it replaced did — one batch per block with a survivor.
        #[test]
        fn any_partition_into_runs_reads_the_filtered_rows(
            (rows, block_rows, encoded) in (1usize..150, 1usize..20, any::<bool>()),
            (lo, width, mode) in (0i64..64, 0i64..80, 0usize..7),
            mut cuts in prop::collection::vec(0usize..150, 0..10),
        ) {
            let t = residual_table(encoded, rows, block_rows);
            // An int range that may pass nothing, something or everything,
            // and (modes 0..5) a string equality — mode 4 is inside every
            // block's MinMax range but in no dictionary.
            let mut preds = vec![ColPredicate::between("k", lo, lo + width - 8)];
            if let Some(s) = ["AIR", "RAIL", "TRUCK", "SHIP", "CANOE"].get(mode) {
                preds.push(ColPredicate::eq("s", *s));
            }
            let whole = [Run { start: 0, count: rows, keys: vec![] }];
            let want = hand_filtered(&t, &preds, &whole);
            let want = want.columns[0].as_i64().unwrap();

            cuts.retain(|&c| c <= rows);
            cuts.extend([0, rows]);
            cuts.sort_unstable();
            let runs: Vec<Run> = cuts
                .windows(2)
                .map(|w| Run { start: w[0], count: w[1] - w[0], keys: vec![] })
                .collect();
            let mut scan = scan_runs(&t, &IoTracker::new(), &["v"], preds.clone(), runs.clone());
            let mut got = Vec::new();
            while let Some(b) = scan.next().unwrap() {
                let v = b.columns[0].as_i64().unwrap();
                let row = |v: i64| (v / 10) as usize;
                let home = runs.iter().find(|r| (r.start..r.start + r.count).contains(&row(v[0])));
                let home = home.expect("a batch starts inside a run");
                prop_assert!(row(v[v.len() - 1]) < home.start + home.count, "batch crosses a run");
                got.extend_from_slice(v);
            }
            prop_assert_eq!(&got, want);

            let mut scan = Scan::blocks(Arc::clone(&t), IoTracker::new(), &["v"], preds).unwrap();
            let mut per_block: Vec<Vec<i64>> = vec![Vec::new(); rows.div_ceil(block_rows)];
            want.iter().for_each(|&v| per_block[(v / 10) as usize / block_rows].push(v));
            per_block.retain(|b| !b.is_empty());
            let mut streams = BLOCK_STREAMS.lock().unwrap();
            let mut fold = |x: u64| streams.1 = (streams.1 ^ x).wrapping_mul(0x100000001b3);
            let mut batches = Vec::new();
            while let Some(b) = scan.next().unwrap() {
                let v = b.columns[0].as_i64().unwrap().to_vec();
                fold(v.len() as u64);
                v.iter().for_each(|&x| fold(x as u64));
                batches.push(v);
            }
            prop_assert_eq!(batches, per_block);
            streams.0 += 1;
            if streams.0 == proptest::CASES {
                prop_assert_eq!(streams.1, PARENT_BLOCK_STREAMS, "fingerprint {:#x}", streams.1);
            }
        }
    }
}
