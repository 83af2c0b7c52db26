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
//! Per run the scan asks its one [`ScanKernel`] about every statistics
//! block, or piece of one, the run touches — encoded or raw, whatever the
//! predicates' column types — and
//!
//! * skips a block whose MinMax range cannot satisfy the sargable
//!   predicates (Vectorwise's automatic MinMax indices, ref \[8\]; inside
//!   BDCC groups this is *correlated* pushdown, e.g. `l_shipdate` thanks to
//!   `o_orderdate` locality), or that its stats or dictionaries rule out,
//! * keeps the rows the kernel finds passing on the others, reading
//!   predicate-only columns for evaluation only,
//! * emits **at most one batch, never crossing the run**, projection first,
//!   then the run's keys as constant columns; the survivors are copied
//!   range by range — a passing block is one range, a block that keeps
//!   some rows one per stretch of consecutive survivors — or gathered row
//!   by row where the stretches are too short (`enc::MIN_MEAN_RANGE`).
//!
//! I/O accounting: every block piece that is *read* contributes the bytes of
//! the projected and predicate columns it covers (one span per piece — a
//! random seek per discontinuity, then sequential: the access pattern
//! Algorithm 1 sized the groups for); blocks pruned or skipped from their
//! metadata and unselected groups cost nothing — precisely the effect Figure 2
//! attributes to selection pushdown.
//!
//! A [`Scan`] walks a range of its runs on the calling thread and polls the
//! query's governor before every batch. It knows nothing of width: the
//! executor's one fan-out ([`crate::parallel`]) runs one `Scan` per morsel —
//! a range of runs ([`Morsel`]) — on the shared pool and releases their
//! batches in run order, and [`parallel::leaf_scan`](crate::parallel::leaf_scan)
//! decides between the two. A batch never crosses a run and a morsel never
//! splits one, so both walks emit the same batch stream.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{Column, DataType, IoTracker, StoredTable, StrVec};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::enc::{BlockVerdict, ScanKernel};
use crate::error::{ExecError, Result};
use crate::ops::{OpEnv, Operator};
use crate::parallel::morsel::{split_runs, Morsel};
use crate::pred::ColPredicate;

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
/// with its I/O keys and widths, the compiled predicate kernel, the output
/// schema and the ordered runs. Shared (`Sync`, behind an `Arc`) by every
/// walker over it — the planner's leaf, its streaming workers and the
/// per-morsel fragments of a parallel aggregate — so a morsel costs an
/// `Arc` clone, not a second compilation.
pub struct ScanBlueprint {
    table: Arc<StoredTable>,
    /// Every column the scan physically reads as `(index, I/O key, stored
    /// bytes per row)`: the projection in output order, then the predicate
    /// columns outside it (read for evaluation only, deduplicated, in
    /// stable order).
    read_set: Vec<(usize, u64, f64)>,
    /// How many leading columns of the read set are emitted.
    projected: usize,
    /// The sargable predicates, compiled: MinMax pruning and evaluation of
    /// every block piece a run reads.
    kernel: ScanKernel,
    /// Projection, then the group-key columns.
    schema: OpSchema,
    runs: Vec<Run>,
}

impl ScanBlueprint {
    /// A scan emitting `columns` (by name) plus one `Int` column per name in
    /// `key_names`, over `runs` in the given order. Predicate columns join
    /// the read set; they are not emitted unless projected. A predicate the
    /// interpreter would reject for its column's type is an
    /// [`ExecError::Type`].
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
        for p in predicates {
            let idx = table.column_index(&p.column)?;
            if !read_set.iter().any(|r| r.0 == idx) {
                read_set.push(read(idx));
            }
            preds.push((idx, p));
        }
        schema.extend(key_names.iter().map(|name| ColMeta::new(name.clone(), DataType::Int)));
        let kernel = ScanKernel::new(&table, &preds)?;
        Ok(Arc::new(ScanBlueprint { table, read_set, projected, kernel, schema, runs }))
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

    /// The projection, then the group-key columns.
    pub fn schema(&self) -> &OpSchema {
        &self.schema
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

    /// Read one run: ask the kernel about it block by block, then assemble
    /// the survivors into at most one batch. `ranges` and `rows` are the
    /// walker's scratch buffers for the run's survivors.
    fn read_run(
        &self,
        run: &Run,
        io: &IoTracker,
        metrics: Option<&OpMetrics>,
        (ranges, rows): (&mut Vec<(usize, usize)>, &mut Vec<usize>),
    ) -> Result<Option<Batch>> {
        if run.count == 0 {
            return Ok(None);
        }
        let (start, end) = (run.start, run.start + run.count);
        let grid = self.table.block_stats(0)?;
        // Survivors are kept as row ranges, adjacent ones merged — a passing
        // block is one range, a block that keeps some rows one range per
        // stretch of consecutive survivors — until a block's stretches are
        // too short to copy range by range; from there on they are row
        // indices, gathered.
        ranges.clear();
        rows.clear();
        for b in grid.block_of_row(start)..=grid.block_of_row(end - 1) {
            let (block_start, block_end) = grid.rows_of_block(b, self.table.rows());
            let (s, e) = (block_start.max(start), block_end.min(end));
            // The projection materializes late, only for survivors, from
            // the resident raw columns; predicate-only columns are never
            // assembled.
            let verdict = self.kernel.eval_block(&self.table, b, block_start, s, e)?;
            match (&verdict, metrics) {
                // Decided from metadata: the block's rows are never read.
                (BlockVerdict::Pruned, Some(m)) => m.blocks_skipped.add(1),
                (BlockVerdict::SkipNoRows, Some(m)) => m.enc_skipped.add(1),
                (BlockVerdict::Pruned | BlockVerdict::SkipNoRows, None) => {}
                _ => self.charge_io(io, s, e),
            }
            match verdict {
                BlockVerdict::Pruned | BlockVerdict::SkipNoRows | BlockVerdict::Skip => {}
                BlockVerdict::All if rows.is_empty() => push_range(ranges, s, e),
                BlockVerdict::All => rows.extend(s..e),
                BlockVerdict::Runs(runs) if rows.is_empty() => {
                    runs.iter().for_each(|&(s, e)| push_range(ranges, s, e))
                }
                BlockVerdict::Runs(runs) => rows.extend(runs.iter().flat_map(|&(s, e)| s..e)),
                BlockVerdict::Rows(idx) => {
                    rows.extend(ranges.drain(..).flat_map(|(s, e)| s..e));
                    rows.extend(idx);
                }
            }
        }
        if ranges.is_empty() && rows.is_empty() {
            return Ok(None);
        }
        let n: usize = ranges.iter().map(|(s, e)| e - s).sum();
        let mut columns = Vec::with_capacity(self.projected + run.keys.len());
        for &(col, ..) in &self.read_set[..self.projected] {
            let src = self.table.column(col)?;
            columns.push(if rows.is_empty() {
                copy_ranges(src, ranges, n)?
            } else {
                src.gather(rows)
            });
        }
        let mut batch = Batch::new(columns);
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

/// Rows `ranges` (`rows` of them) of `src`, copied range by range into a
/// column allocated once at its final size.
fn copy_ranges(src: &Column, ranges: &[(usize, usize)], rows: usize) -> Result<Column> {
    let mut out = match src {
        Column::I64 { logical, .. } => {
            Column::I64 { values: Vec::with_capacity(rows), logical: *logical }
        }
        Column::F64(_) => Column::F64(Vec::with_capacity(rows)),
        Column::Str(v) => {
            let offsets = v.parts().1;
            let bytes = ranges.iter().map(|&(s, e)| (offsets[e] - offsets[s]) as usize).sum();
            Column::Str(StrVec::with_capacity(rows, bytes))
        }
    };
    for &(s, e) in ranges {
        out.append_range(src, s, e)?;
    }
    Ok(out)
}

/// The leaf scan operator (see the [module docs](self)): runs
/// `[next, end)` of its blueprint, walked on the calling thread. Reads
/// through `env.io`, books block skips on `env.metrics`, and polls
/// `env.governor` before every batch, so cancellation stops the scan within
/// one batch.
pub struct Scan {
    blueprint: Arc<ScanBlueprint>,
    env: OpEnv,
    next: usize,
    end: usize,
    /// Scratch for [`ScanBlueprint::read_run`]: survivor ranges, and their
    /// rows when gathered.
    ranges: Vec<(usize, usize)>,
    rows: Vec<usize>,
}

impl Scan {
    /// A walk over runs `[runs.start, runs.end)`: the whole leaf, or what a
    /// worker builds for its morsel.
    pub fn over(blueprint: Arc<ScanBlueprint>, env: OpEnv, runs: Morsel) -> Scan {
        let end = runs.end.min(blueprint.runs.len());
        let next = runs.start.min(end);
        Scan { blueprint, env, next, end, ranges: Vec::new(), rows: Vec::new() }
    }

    /// The key-less scan of a whole table, block by block.
    pub fn blocks<S: AsRef<str>>(
        table: Arc<StoredTable>,
        env: OpEnv,
        columns: &[S],
        predicates: Vec<ColPredicate>,
    ) -> Result<Scan> {
        let blueprint = ScanBlueprint::blocks(table, columns, predicates)?;
        let runs = 0..blueprint.runs.len();
        Ok(Scan::over(blueprint, env, runs))
    }
}

impl Operator for Scan {
    fn schema(&self) -> &OpSchema {
        &self.blueprint.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        // Inline leaves are where an otherwise-unparallel plan spends its
        // time — poll the governor per batch there.
        self.env.governor.check("scan-batch")?;
        while self.next < self.end {
            let run = &self.blueprint.runs[self.next];
            self.next += 1;
            let metrics = self.env.metrics.as_deref();
            let scratch = (&mut self.ranges, &mut self.rows);
            if let Some(batch) = self.blueprint.read_run(run, &self.env.io, metrics, scratch)? {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::memory::MemoryTracker;
    use crate::ops::collect;
    use crate::parallel::{leaf_scan, ParallelConfig};
    use bdcc_storage::{Datum, TableBuilder};
    use proptest::prelude::*;

    /// 12 rows in 3 encoded blocks of 4 (`k` = row, `v` = 10 · row).
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

    /// An unprofiled, ungoverned scan's environment over `io`.
    fn env(io: &IoTracker) -> OpEnv {
        OpEnv::new(io.clone(), MemoryTracker::new())
    }

    /// A sorted table of 16 rows in encoded blocks of 4: key = row/4 (4
    /// groups of 4).
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
        Scan::over(blueprint, env(io), 0..n)
    }

    fn block_scan(columns: &[&str], predicates: Vec<ColPredicate>) -> Result<Scan> {
        Scan::blocks(table(), env(&IoTracker::new()), columns, predicates)
    }

    #[test]
    fn full_scan_returns_everything() {
        let io = IoTracker::new();
        let scan = Scan::blocks(table(), env(&io), &["k", "v"], vec![]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 12);
        assert!(io.stats().bytes_read > 0);
    }

    #[test]
    fn block_skipping_reduces_io() {
        let t = table();
        let io_full = IoTracker::new();
        let scan = Scan::blocks(Arc::clone(&t), env(&io_full), &["k"], vec![]).unwrap();
        collect(Box::new(scan)).unwrap();

        let io_pruned = IoTracker::new();
        // k >= 8 → only the last block qualifies.
        let preds = vec![ColPredicate::ge("k", 8i64)];
        let scan = Scan::blocks(t, env(&io_pruned), &["k"], preds).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[8, 9, 10, 11]);
        assert!(io_pruned.stats().bytes_read < io_full.stats().bytes_read);
    }

    #[test]
    fn predicates_filter_within_blocks() {
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
        let scan = Scan::blocks(t, env(&IoTracker::new()), &["name"], preds).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0], Column::from_strings(vec!["pear".into()]));
    }

    #[test]
    fn run_range_partitions_tile_the_scan() {
        let io = IoTracker::new();
        let blueprint = ScanBlueprint::blocks(table(), &["k"], vec![]).unwrap();
        let over =
            |runs| collect(Box::new(Scan::over(Arc::clone(&blueprint), env(&io), runs))).unwrap();
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
        let t = grouped_table();
        let io_all = IoTracker::new();
        let scan = scan_runs(&t, &io_all, &["v"], vec![], keyless(&[0, 1, 2, 3]));
        collect(Box::new(scan)).unwrap();

        let io_sel = IoTracker::new();
        let scan = scan_runs(&t, &io_sel, &["v"], vec![], keyless(&[1]));
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
    fn filter_table(encoded: bool, rows: usize, block_rows: usize) -> Arc<StoredTable> {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        let n = rows as i64;
        let t = StoredTable::from_columns_with_block_rows(
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
        .unwrap();
        Arc::new(if encoded { t } else { t.without_encodings() })
    }

    /// The filter cases every scan must get right: `(name, table is
    /// encoded, predicates)`. All of them run through the one kernel, on
    /// encoded blocks or raw values, and materialise the projection late.
    fn filter_cases() -> Vec<(&'static str, bool, Vec<ColPredicate>)> {
        let int_str =
            || vec![ColPredicate::between("k", 10i64, 50i64), ColPredicate::eq("s", "RAIL")];
        let float_int = || vec![ColPredicate::lt("f", 20.0f64), ColPredicate::ge("k", 32i64)];
        vec![
            ("encoded int+str", true, int_str()),
            ("raw int+str", false, int_str()),
            ("encoded float", true, vec![ColPredicate::ge("f", 11.25f64)]),
            ("encoded float+int", true, float_int()),
            ("raw float+int", false, float_int()),
        ]
    }

    /// What a scan of `runs` projecting `v` under `preds` must return,
    /// computed without any scan predicate: the same runs are read with
    /// every column and no predicate, the interpreter filters that, and the
    /// predicate columns drop out (the keys stay).
    fn hand_filtered(t: &Arc<StoredTable>, preds: &[ColPredicate], runs: &[Run]) -> Batch {
        let reference =
            scan_runs(t, &IoTracker::new(), &["v", "k", "f", "s"], vec![], runs.to_vec());
        let schema = reference.schema().clone();
        let all = collect(Box::new(reference)).unwrap();
        let filter = preds.iter().map(ColPredicate::to_expr).reduce(Expr::and).unwrap();
        let mut out = all.filter(&filter.bind(&schema).unwrap().eval_bool(&all).unwrap());
        out.columns.drain(1..4);
        out
    }

    #[test]
    fn scan_kernel_matches_interpreter() {
        // The 8-row blocks themselves, and six-row keyed groups that
        // straddle them, read in scatter order.
        let blocks: Vec<Run> =
            (0..8).map(|b| Run { start: b * 8, count: 8, keys: vec![] }).collect();
        let scattered: Vec<Run> = [7usize, 0, 4, 9]
            .iter()
            .map(|&g| Run { start: g * 6, count: 6, keys: vec![g as i64] })
            .collect();
        for (name, encoded, preds) in filter_cases() {
            let t = filter_table(encoded, 64, 8);
            for runs in [&blocks, &scattered] {
                let scan = scan_runs(&t, &IoTracker::new(), &["v"], preds.clone(), runs.clone());
                let got = collect(Box::new(scan)).unwrap();
                let want = hand_filtered(&t, &preds, runs);
                let kept: usize = runs.iter().map(|r| r.count).sum();
                assert!(0 < want.rows() && want.rows() < kept, "{name}: the predicates must cut");
                assert_eq!(got, want, "{name}");
            }
        }
    }

    #[test]
    fn table_builder_smoke() {
        let t = TableBuilder::new("x").column("a", Column::from_i64(vec![1])).build().unwrap();
        assert_eq!(t.rows(), 1);
    }

    /// Every batch of the leaf over `blueprint` at width `cfg`, in order.
    fn batches_at(blueprint: &Arc<ScanBlueprint>, cfg: &ParallelConfig) -> Vec<Batch> {
        let mut scan = leaf_scan(Arc::clone(blueprint), cfg, env(&IoTracker::new()));
        std::iter::from_fn(|| scan.next().unwrap()).collect()
    }

    // --- survivors: copied by range or gathered -----------------------------

    /// Which rows of a 16-row block pass `p = 1` (and `q = 'yes'`), one
    /// pattern per block:
    /// all, all but one, every other, three scattered, none, and
    /// stretches of 2, 3 and 4 passing rows between single failures.
    const SURVIVOR_BLOCKS: [fn(usize) -> bool; 8] = [
        |_| true,
        |r| r != 7,
        |r| r % 2 == 0,
        |r| [2, 9, 13].contains(&r),
        |_| false,
        |r| r % 3 != 2,
        |r| r % 4 != 3,
        |r| r % 5 != 4,
    ];

    fn yes_no(pass: bool) -> String {
        if pass { "yes" } else { "no" }.to_string()
    }

    #[test]
    fn survivors_copied_by_range_or_gathered_equal_the_filter() {
        use crate::enc::MIN_MEAN_RANGE;
        let n = 16 * SURVIVOR_BLOCKS.len();
        let pass: Vec<bool> = (0..n).map(|r| SURVIVOR_BLOCKS[r / 16](r % 16)).collect();
        let words = ["", "a", "bcdefgh", "ijklmnopq", "é", "日本語"];
        let cols = vec![
            ("p".to_string(), Column::from_i64(pass.iter().map(|&p| p as i64).collect())),
            ("q".to_string(), Column::from_strings(pass.iter().map(|&p| yes_no(p)).collect())),
            ("v".to_string(), Column::from_i64((0..n as i64).map(|i| i * 10).collect())),
            ("f".to_string(), Column::from_f64((0..n).map(|i| i as f64 * 0.25).collect())),
            ("s".to_string(), Column::from_strings((0..n).map(|i| words[i % 6].into()).collect())),
        ];
        let t = Arc::new(StoredTable::from_columns_with_block_rows("t", cols.clone(), 16).unwrap());
        let codec = |col: usize| t.encoding(col).map(|e| e.block(2).tag());
        assert_eq!((codec(0), codec(1)), (Some("for"), Some("dict")));
        let want: Vec<Column> = cols[2..].iter().map(|(_, c)| c.filter(&pass)).collect();
        // Blocks on either side of the cut-off: a block's survivors make
        // stretches of `mean` rows on average.
        let means: Vec<f64> = (0..SURVIVOR_BLOCKS.len())
            .map(|b| {
                let kept = pass[b * 16..b * 16 + 16].iter().filter(|&&p| p).count();
                let starts =
                    (0..16).filter(|&r| pass[b * 16 + r] && (r == 0 || !pass[b * 16 + r - 1]));
                kept as f64 / starts.count().max(1) as f64
            })
            .collect();
        assert!(means.iter().any(|&m| m > 0.0 && m < MIN_MEAN_RANGE as f64));
        assert!(means.iter().any(|&m| m >= MIN_MEAN_RANGE as f64));

        let concat = |batches: Vec<Batch>| -> Vec<Column> {
            let mut out: Vec<Column> =
                cols[2..].iter().map(|(_, c)| Column::empty(c.data_type())).collect();
            for b in batches {
                out.iter_mut().zip(&b.columns).for_each(|(o, c)| o.append(c).unwrap());
            }
            out
        };
        // On frame-of-reference codes and on dictionary codes; runs of one
        // block, runs straddling blocks, one run over all.
        let preds = [ColPredicate::eq("p", 1i64), ColPredicate::eq("q", yes_no(true))];
        for (pred, run_rows) in preds.iter().flat_map(|p| [16, 24, 5, n].map(|r| (p, r))) {
            let runs: Vec<Run> = (0..n)
                .step_by(run_rows)
                .map(|start| Run { start, count: run_rows.min(n - start), keys: vec![] })
                .collect();
            let bp =
                ScanBlueprint::new(Arc::clone(&t), &["v", "f", "s"], vec![pred.clone()], &[], runs)
                    .unwrap();
            // Inline, and streamed in morsels whose edges cut the blocks.
            for cfg in [
                ParallelConfig { threads: 1, morsel_rows: 64 },
                ParallelConfig { threads: 2, morsel_rows: 20 },
            ] {
                let got = concat(batches_at(&bp, &cfg));
                assert_eq!(got, want, "{pred:?}, runs of {run_rows} rows at {cfg:?}");
            }
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
            let t = filter_table(encoded, rows, block_rows);
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

            let io = IoTracker::new();
            let mut scan = Scan::blocks(Arc::clone(&t), env(&io), &["v"], preds).unwrap();
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
