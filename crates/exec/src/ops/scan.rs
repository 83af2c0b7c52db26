//! Plain table scan with MinMax block skipping.
//!
//! The baseline access path of all three schemes: iterate the table's
//! statistics blocks, skip blocks that cannot satisfy the sargable
//! predicates (Vectorwise's automatic MinMax indices, ref [8]), read the
//! surviving blocks, and apply the exact residual filter row-wise.
//!
//! I/O accounting: every *read* block contributes the pages of the
//! projected and predicate columns it covers; skipped blocks cost nothing —
//! this is precisely the effect Figure 2 attributes to selection pushdown.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{IoTracker, StoredTable};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::enc::{BlockVerdict, ScanKernel};
use crate::error::Result;
use crate::kernel::FilterProgram;
use crate::ops::Operator;
use crate::pred::{predicates_to_expr, ColPredicate};

/// Drop the trailing residual-only columns without cloning the kept ones.
fn truncate_cols(mut b: Batch, n: usize) -> Batch {
    b.columns.truncate(n);
    b
}

/// Scan over a stored table.
pub struct PlainScan {
    table: Arc<StoredTable>,
    io: IoTracker,
    /// Column indices to read (projection), in output order.
    projection: Vec<usize>,
    /// Sargable predicates (block pruning + residual).
    predicates: Vec<(usize, ColPredicate)>,
    /// Predicate columns not in the projection, read for residual
    /// evaluation only (deduplicated, in stable order).
    extra_cols: Vec<usize>,
    /// Residual filter compiled against projection ++ extra columns (see
    /// [`crate::kernel`]); `None` when there are no predicates.
    program: Option<FilterProgram>,
    /// Compression-aware predicate kernel; `Some` only when the table is
    /// block-encoded and every predicate is kernel-supported.
    kernel: Option<ScanKernel>,
    metrics: Option<Arc<OpMetrics>>,
    schema: OpSchema,
    next_block: usize,
    /// One past the last block to read (block-range partition view).
    end_block: usize,
}

impl PlainScan {
    /// Create a scan reading `columns` (by name) under `predicates`.
    /// Predicate columns are automatically added to the read set; they are
    /// still excluded from the output unless projected.
    pub fn new(
        table: Arc<StoredTable>,
        io: IoTracker,
        columns: &[&str],
        predicates: Vec<ColPredicate>,
    ) -> Result<PlainScan> {
        let end = table.block_count();
        PlainScan::with_block_range(table, io, columns, predicates, 0..end)
    }

    /// Partition entry point for the morsel scheduler: a scan restricted to
    /// statistics blocks `[blocks.start, blocks.end)`. Reading a table as
    /// the ordered concatenation of disjoint block ranges yields exactly
    /// the batch stream of a full scan.
    pub fn with_block_range(
        table: Arc<StoredTable>,
        io: IoTracker,
        columns: &[&str],
        predicates: Vec<ColPredicate>,
        blocks: std::ops::Range<usize>,
    ) -> Result<PlainScan> {
        // The physical read set = projection ∪ predicate columns; output
        // only the projection. To keep the operator simple we read (and
        // charge I/O for) predicate columns but emit projection columns.
        let mut projection = Vec::with_capacity(columns.len());
        let mut schema = Vec::with_capacity(columns.len());
        for &name in columns {
            let idx = table.column_index(name)?;
            projection.push(idx);
            schema.push(ColMeta::new(name, table.schema().columns[idx].data_type));
        }
        let mut preds = Vec::with_capacity(predicates.len());
        for p in &predicates {
            preds.push((table.column_index(&p.column)?, p.clone()));
        }
        // Residual is evaluated over projection ∪ predicate columns.
        let mut eval_schema = schema.clone();
        let mut extra_cols = Vec::new();
        for (idx, p) in &preds {
            if !eval_schema.iter().any(|m| m.name == p.column) {
                extra_cols.push(*idx);
                eval_schema.push(ColMeta::new(&p.column, table.schema().columns[*idx].data_type));
            }
        }
        let program = match predicates_to_expr(&predicates) {
            Some(e) => Some(FilterProgram::compile(&e.bind(&eval_schema)?, &eval_schema)),
            None => None,
        };
        let end_block = blocks.end.min(table.block_count());
        let kernel = ScanKernel::try_new(&table, &preds);
        Ok(PlainScan {
            table,
            io,
            projection,
            predicates: preds,
            extra_cols,
            program,
            kernel,
            metrics: None,
            schema,
            next_block: blocks.start.min(end_block),
            end_block,
        })
    }

    /// Attach operator metrics (block-skip counters) to this scan.
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> PlainScan {
        self.metrics = metrics;
        self
    }

    /// All columns this scan physically reads (projection ∪ predicates).
    fn read_set(&self) -> Vec<usize> {
        let mut set = self.projection.clone();
        for idx in &self.extra_cols {
            if !set.contains(idx) {
                set.push(*idx);
            }
        }
        set
    }

    fn charge_io(&self, start_row: usize, end_row: usize) {
        for &col in &self.read_set() {
            let width = self.table.io_width(col);
            let first = (start_row as f64 * width) as u64;
            let last = ((end_row as f64 * width) as u64).saturating_sub(1).max(first);
            self.io.record_span(self.table.io_key(col), first, last);
        }
    }
}

impl Operator for PlainScan {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let rows = self.table.rows();
        if rows == 0 {
            return Ok(None);
        }
        let stats0 = self.table.block_stats(0)?;
        // Resolve each predicate column's statistics once per scan, not once
        // per (block, predicate) pair.
        let mut pred_stats = Vec::with_capacity(self.predicates.len());
        for (col, _) in &self.predicates {
            pred_stats.push(self.table.block_stats(*col)?);
        }
        while self.next_block < self.end_block {
            let b = self.next_block;
            self.next_block += 1;
            // MinMax pruning over all predicate columns.
            let mut skip = false;
            for (i, (_, pred)) in self.predicates.iter().enumerate() {
                if !pred.block_may_match(&pred_stats[i].blocks[b]) {
                    skip = true;
                    break;
                }
            }
            if skip {
                if let Some(m) = &self.metrics {
                    m.blocks_skipped.add(1);
                }
                continue;
            }
            let (start, end) = stats0.rows_of_block(b, rows);
            if let Some(kernel) = &self.kernel {
                // Compression-aware path: predicates run on encoded blocks;
                // the projection materializes late, only for survivors, from
                // the resident raw columns. Extra predicate columns are
                // never assembled.
                let verdict = kernel.eval_block(&self.table, b, start, start, end, &pred_stats)?;
                if matches!(verdict, BlockVerdict::SkipNoRows) {
                    if let Some(m) = &self.metrics {
                        m.enc_skipped.add(1);
                    }
                    continue;
                }
                self.charge_io(start, end);
                let batch = match verdict {
                    BlockVerdict::SkipNoRows => unreachable!(),
                    BlockVerdict::Skip => continue,
                    BlockVerdict::All => {
                        let mut columns = Vec::with_capacity(self.projection.len());
                        for &col in &self.projection {
                            columns.push(self.table.column(col)?.slice(start, end));
                        }
                        Batch::new(columns)
                    }
                    BlockVerdict::Rows(idx) => {
                        let mut columns = Vec::with_capacity(self.projection.len());
                        for &col in &self.projection {
                            columns.push(self.table.column(col)?.gather(&idx));
                        }
                        Batch::new(columns)
                    }
                };
                if batch.rows() > 0 {
                    return Ok(Some(batch));
                }
                continue;
            }
            self.charge_io(start, end);
            // Assemble projection ∪ predicate columns for residual eval.
            let mut columns = Vec::with_capacity(self.projection.len() + self.extra_cols.len());
            for &col in &self.projection {
                columns.push(self.table.column(col)?.slice(start, end));
            }
            for &idx in &self.extra_cols {
                columns.push(self.table.column(idx)?.slice(start, end));
            }
            let full = Batch::new(columns);
            let batch = match &self.program {
                Some(program) => {
                    let sel = program.select(&full)?;
                    if sel.is_empty() {
                        continue;
                    }
                    // An all-pass selection moves the slices through
                    // unchanged; extras drop without cloning survivors.
                    truncate_cols(sel.take(full), self.projection.len())
                }
                None => truncate_cols(full, self.projection.len()),
            };
            if batch.rows() > 0 {
                return Ok(Some(batch));
            }
        }
        if let (Some(m), Some(p)) = (&self.metrics, &self.program) {
            p.annotate(m);
        }
        Ok(None)
    }
}

/// Convenience: scan the whole table with no predicates.
pub fn full_scan(table: Arc<StoredTable>, io: IoTracker, columns: &[&str]) -> Result<PlainScan> {
    PlainScan::new(table, io, columns, Vec::new())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::{Column, Datum, TableBuilder};

    fn table() -> Arc<StoredTable> {
        // 3 blocks of 4 rows (block_rows = 4).
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

    #[test]
    fn full_scan_returns_everything() {
        let io = IoTracker::new();
        let scan = full_scan(table(), io.clone(), &["k", "v"]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 12);
        assert!(io.stats().bytes_read > 0);
    }

    #[test]
    fn block_skipping_reduces_io() {
        let io_full = IoTracker::new();
        let scan = full_scan(table(), io_full.clone(), &["k"]).unwrap();
        collect(Box::new(scan)).unwrap();

        let io_pruned = IoTracker::new();
        // k >= 8 → only the last block qualifies.
        let scan =
            PlainScan::new(table(), io_pruned.clone(), &["k"], vec![ColPredicate::ge("k", 8i64)])
                .unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[8, 9, 10, 11]);
        assert!(io_pruned.stats().bytes_read < io_full.stats().bytes_read);
    }

    #[test]
    fn residual_filters_within_blocks() {
        let io = IoTracker::new();
        let scan =
            PlainScan::new(table(), io, &["v"], vec![ColPredicate::between("k", 2i64, 5i64)])
                .unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[20, 30, 40, 50]);
    }

    #[test]
    fn predicate_on_unprojected_column() {
        let io = IoTracker::new();
        let scan = PlainScan::new(table(), io, &["v"], vec![ColPredicate::eq("k", 7i64)]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[70]);
        assert_eq!(out.arity(), 1);
    }

    #[test]
    fn empty_result_when_nothing_matches() {
        let io = IoTracker::new();
        let scan =
            PlainScan::new(table(), io, &["k"], vec![ColPredicate::eq("k", 999i64)]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn unknown_column_rejected() {
        let io = IoTracker::new();
        assert!(PlainScan::new(table(), io, &["zzz"], vec![]).is_err());
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
        let io = IoTracker::new();
        let scan = PlainScan::new(
            t,
            io,
            &["name"],
            vec![ColPredicate::eq("name", Datum::Str("pear".into()))],
        )
        .unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0], Column::from_strings(vec!["pear".into()]));
    }

    #[test]
    fn builder_rejects_unknown_predicate_column() {
        let io = IoTracker::new();
        assert!(
            PlainScan::new(table(), io, &["k"], vec![ColPredicate::eq("missing", 1i64)]).is_err()
        );
    }

    #[test]
    fn block_range_partitions_tile_the_scan() {
        let io = IoTracker::new();
        let full = collect(Box::new(full_scan(table(), io.clone(), &["k"]).unwrap())).unwrap();
        // Split into [0,1) ++ [1,3): concatenation equals the full scan.
        let a = collect(Box::new(
            PlainScan::with_block_range(table(), io.clone(), &["k"], vec![], 0..1).unwrap(),
        ))
        .unwrap();
        let b = collect(Box::new(
            PlainScan::with_block_range(table(), io.clone(), &["k"], vec![], 1..3).unwrap(),
        ))
        .unwrap();
        let mut joined = a.columns[0].as_i64().unwrap().to_vec();
        joined.extend_from_slice(b.columns[0].as_i64().unwrap());
        assert_eq!(joined, full.columns[0].as_i64().unwrap());
        // Out-of-range partitions are empty, not errors.
        let e = collect(Box::new(
            PlainScan::with_block_range(table(), io, &["k"], vec![], 7..9).unwrap(),
        ))
        .unwrap();
        assert_eq!(e.rows(), 0);
    }

    /// 64 rows in 8-row blocks: an int, a float, a low-cardinality string
    /// and a payload column — encoded (dictionary / packed blocks) or raw.
    pub(crate) fn residual_table(encoded: bool) -> Arc<StoredTable> {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        Arc::new(crate::enc::build_with_encoding(encoded, || {
            StoredTable::from_columns_with_block_rows(
                "r",
                vec![
                    ("k".into(), Column::from_i64((0..64).map(|i| (i * 7) % 64).collect())),
                    ("f".into(), Column::from_f64((0..64).map(|i| i as f64 * 0.5).collect())),
                    (
                        "s".into(),
                        Column::from_strings((0..64).map(|i| modes[i % 4].into()).collect()),
                    ),
                    ("v".into(), Column::from_i64((0..64).map(|i| i * 10).collect())),
                ],
                8,
            )
            .unwrap()
        }))
    }

    /// The residual cases every scan must get right: `(name, table is
    /// encoded, predicates, whether the encoded-block kernel takes them)`.
    /// Encoded int/string predicates run on the blocks and materialise the
    /// projection late; floats and raw tables go through the compiled
    /// residual over projection ++ predicate-only columns.
    pub(crate) fn residual_cases() -> Vec<(&'static str, bool, Vec<ColPredicate>, bool)> {
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

    /// What a scan projecting `v` under `preds` must return, computed
    /// without any scan residual: `all` holds `v`, then the predicate
    /// columns (names in `schema`), then `tail` trailing columns to keep;
    /// the interpreter filters it and the predicate columns drop out.
    pub(crate) fn hand_filtered(
        all: Batch,
        schema: &OpSchema,
        preds: &[ColPredicate],
        tail: usize,
    ) -> Batch {
        let residual = predicates_to_expr(preds).unwrap().bind(schema).unwrap();
        let keep = residual.eval_bool(&all).unwrap();
        assert!(keep.iter().any(|&k| k) && !keep.iter().all(|&k| k), "residual must cut");
        let mut out = all.filter(&keep);
        out.columns.drain(1..out.columns.len() - tail);
        out
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        for (name, encoded, preds, late) in residual_cases() {
            let t = residual_table(encoded);
            let scan = PlainScan::new(Arc::clone(&t), IoTracker::new(), &["v"], preds.clone());
            let scan = scan.unwrap();
            assert_eq!(scan.kernel.is_some(), late, "{name}: wrong residual path");
            let got = collect(Box::new(scan)).unwrap();
            let reference = full_scan(t, IoTracker::new(), &["v", "k", "f", "s"]).unwrap();
            let schema = reference.schema().clone();
            let want = hand_filtered(collect(Box::new(reference)).unwrap(), &schema, &preds, 0);
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn table_builder_smoke() {
        let t = TableBuilder::new("x").column("a", Column::from_i64(vec![1])).build().unwrap();
        assert_eq!(t.rows(), 1);
    }
}
