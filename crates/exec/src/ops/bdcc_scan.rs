//! The BDCC scatter-scan.
//!
//! Reads a BDCC table group-at-a-time through its count table. The planner
//! passes the *selected* groups (bin-range restrictions already applied —
//! selection pushdown and propagation happen at plan time) in the requested
//! major-minor order; the scan:
//!
//! * reads each group's row range (one random seek per discontinuity, then
//!   sequential — the access pattern Algorithm 1 sized the groups for),
//! * still applies MinMax block skipping *within* groups (correlated
//!   pushdown, e.g. `l_shipdate` thanks to `o_orderdate` locality),
//! * appends one group-identifier column per requested dimension use, which
//!   downstream sandwich operators align on,
//! * never lets a batch cross a group boundary.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{DataType, IoTracker, StoredTable};

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

/// One selected group in output order: its row range in the stored table
/// plus the values of the emitted group-key columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    pub start: usize,
    pub count: usize,
    /// One value per requested group-key column (negotiated prefix bits of
    /// the corresponding dimension use).
    pub group_keys: Vec<i64>,
}

impl GroupSpec {
    /// Rows this group covers — the weight the morsel scheduler balances.
    pub fn rows(&self) -> usize {
        self.count
    }
}

/// Scatter-scan over a clustered table.
pub struct BdccScan {
    table: Arc<StoredTable>,
    io: IoTracker,
    projection: Vec<usize>,
    predicates: Vec<(usize, ColPredicate)>,
    extra_cols: Vec<usize>,
    /// Residual filter compiled against projection ++ extra columns (see
    /// [`crate::kernel`]); `None` when there are no predicates.
    program: Option<FilterProgram>,
    /// Compression-aware predicate kernel; `Some` only when the table is
    /// block-encoded and every predicate is kernel-supported.
    kernel: Option<ScanKernel>,
    metrics: Option<Arc<OpMetrics>>,
    /// Names of the emitted group-key columns (appended after projection).
    schema: OpSchema,
    groups: Vec<GroupSpec>,
    next_group: usize,
}

impl BdccScan {
    /// Create a scatter-scan emitting `columns` plus one group-key column
    /// per name in `group_key_names`, over the pre-selected `groups`.
    pub fn new(
        table: Arc<StoredTable>,
        io: IoTracker,
        columns: &[&str],
        predicates: Vec<ColPredicate>,
        group_key_names: &[String],
        groups: Vec<GroupSpec>,
    ) -> Result<BdccScan> {
        let mut projection = Vec::with_capacity(columns.len());
        let mut schema = Vec::with_capacity(columns.len() + group_key_names.len());
        for &name in columns {
            let idx = table.column_index(name)?;
            projection.push(idx);
            schema.push(ColMeta::new(name, table.schema().columns[idx].data_type));
        }
        let mut preds = Vec::with_capacity(predicates.len());
        for p in &predicates {
            preds.push((table.column_index(&p.column)?, p.clone()));
        }
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
        for name in group_key_names {
            schema.push(ColMeta::new(name.clone(), DataType::Int));
        }
        let kernel = ScanKernel::try_new(&table, &preds);
        Ok(BdccScan {
            table,
            io,
            projection,
            predicates: preds,
            extra_cols,
            program,
            kernel,
            metrics: None,
            schema,
            groups,
            next_group: 0,
        })
    }

    /// Attach operator metrics (block-skip counters) to this scan.
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> BdccScan {
        self.metrics = metrics;
        self
    }

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

    /// Number of group-key columns this scan appends.
    pub fn group_key_count(&self) -> usize {
        self.schema.len() - self.projection.len()
    }

    /// Partition entry point for the morsel scheduler: the selected groups
    /// in output order. A scatter-scan over any contiguous index range of
    /// these groups (constructed via [`BdccScan::new`] with the sliced
    /// list) yields exactly the corresponding sub-stream of this scan, so
    /// ordered concatenation over a partition of the ranges reproduces the
    /// full scan batch-for-batch.
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }
}

impl Operator for BdccScan {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let rows = self.table.rows();
        let stats0 = if rows > 0 { Some(self.table.block_stats(0)?) } else { None };
        // Resolve each predicate column's statistics once per call, not once
        // per (block, predicate) pair.
        let mut pred_stats = Vec::with_capacity(self.predicates.len());
        if rows > 0 {
            for (col, _) in &self.predicates {
                pred_stats.push(self.table.block_stats(*col)?);
            }
        }
        while self.next_group < self.groups.len() {
            let g = self.groups[self.next_group].clone();
            self.next_group += 1;
            if g.count == 0 {
                continue;
            }
            let (gstart, gend) = (g.start, g.start + g.count);
            if let (Some(stats0), Some(kernel)) = (&stats0, &self.kernel) {
                // Compression-aware path: predicates run per block on the
                // encoded data; the projection materializes late with one
                // gather over the group's surviving rows. Extra predicate
                // columns are never assembled.
                let first_block = stats0.block_of_row(gstart);
                let last_block = stats0.block_of_row(gend - 1);
                let mut rows_idx: Vec<usize> = Vec::new();
                'kblocks: for b in first_block..=last_block {
                    let (bs, be) = stats0.rows_of_block(b, rows);
                    let s = bs.max(gstart);
                    let e = be.min(gend);
                    if s >= e {
                        continue;
                    }
                    for (i, (_, pred)) in self.predicates.iter().enumerate() {
                        if !pred.block_may_match(&pred_stats[i].blocks[b]) {
                            if let Some(m) = &self.metrics {
                                m.blocks_skipped.add(1);
                            }
                            continue 'kblocks;
                        }
                    }
                    match kernel.eval_block(&self.table, b, bs, s, e, &pred_stats)? {
                        BlockVerdict::SkipNoRows => {
                            if let Some(m) = &self.metrics {
                                m.enc_skipped.add(1);
                            }
                        }
                        BlockVerdict::Skip => self.charge_io(s, e),
                        BlockVerdict::All => {
                            self.charge_io(s, e);
                            rows_idx.extend(s..e);
                        }
                        BlockVerdict::Rows(idx) => {
                            self.charge_io(s, e);
                            rows_idx.extend(idx);
                        }
                    }
                }
                if rows_idx.is_empty() {
                    continue;
                }
                let mut batch = Batch::new(
                    self.projection
                        .iter()
                        .map(|&col| Ok(self.table.column(col)?.gather(&rows_idx)))
                        .collect::<Result<Vec<_>>>()?,
                );
                if batch.rows() == 0 {
                    continue;
                }
                let n = batch.rows();
                for &gk in &g.group_keys {
                    batch.columns.push(bdcc_storage::Column::from_i64(vec![gk; n]));
                }
                return Ok(Some(batch));
            }
            // MinMax pruning over the blocks the group spans: collect the
            // surviving sub-ranges.
            let mut survivors: Vec<(usize, usize)> = Vec::new();
            if let Some(stats0) = &stats0 {
                let first_block = stats0.block_of_row(gstart);
                let last_block = stats0.block_of_row(gend - 1);
                'blocks: for b in first_block..=last_block {
                    let (bs, be) = stats0.rows_of_block(b, self.table.rows());
                    let s = bs.max(gstart);
                    let e = be.min(gend);
                    if s >= e {
                        continue;
                    }
                    for (i, (_, pred)) in self.predicates.iter().enumerate() {
                        if !pred.block_may_match(&pred_stats[i].blocks[b]) {
                            if let Some(m) = &self.metrics {
                                m.blocks_skipped.add(1);
                            }
                            continue 'blocks;
                        }
                    }
                    match survivors.last_mut() {
                        Some((_, pe)) if *pe == s => *pe = e,
                        _ => survivors.push((s, e)),
                    }
                }
            }
            if survivors.is_empty() {
                continue;
            }
            // Assemble the group's surviving rows.
            let mut columns: Vec<bdcc_storage::Column> = Vec::new();
            for &col in self.projection.iter().chain(&self.extra_cols) {
                let src = self.table.column(col)?;
                let mut out = src.slice(survivors[0].0, survivors[0].1);
                for &(s, e) in &survivors[1..] {
                    out.append_range(src, s, e)?;
                }
                columns.push(out);
            }
            for &(s, e) in &survivors {
                self.charge_io(s, e);
            }
            let full = Batch::new(columns);
            let mut batch = match &self.program {
                Some(program) => {
                    let sel = program.select(&full)?;
                    if sel.is_empty() {
                        continue;
                    }
                    // An all-pass selection moves the assembled columns
                    // through unchanged; extras drop without cloning.
                    truncate_cols(sel.take(full), self.projection.len())
                }
                None => truncate_cols(full, self.projection.len()),
            };
            if batch.rows() == 0 {
                continue;
            }
            // Append the group-key columns (constant within the group).
            let n = batch.rows();
            for &gk in &g.group_keys {
                batch.columns.push(bdcc_storage::Column::from_i64(vec![gk; n]));
            }
            return Ok(Some(batch));
        }
        if let (Some(m), Some(p)) = (&self.metrics, &self.program) {
            p.annotate(m);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::Column;

    /// A sorted table of 16 rows: key = row/4 (4 groups of 4).
    fn table() -> Arc<StoredTable> {
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

    fn groups(sel: &[usize]) -> Vec<GroupSpec> {
        sel.iter()
            .map(|&g| GroupSpec { start: g * 4, count: 4, group_keys: vec![g as i64] })
            .collect()
    }

    #[test]
    fn scan_selected_groups_in_given_order() {
        let io = IoTracker::new();
        let scan =
            BdccScan::new(table(), io, &["v"], vec![], &["__gk0".into()], groups(&[2, 0])).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        // Group 2 rows first, then group 0 (scatter order).
        assert_eq!(out.columns[0].as_i64().unwrap(), &[8, 9, 10, 11, 0, 1, 2, 3]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn batches_never_cross_groups() {
        let io = IoTracker::new();
        let mut scan =
            BdccScan::new(table(), io, &["v"], vec![], &["__gk0".into()], groups(&[0, 1, 2, 3]))
                .unwrap();
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
        let io_all = IoTracker::new();
        let scan =
            BdccScan::new(table(), io_all.clone(), &["v"], vec![], &[], groups(&[0, 1, 2, 3]))
                .unwrap();
        collect(Box::new(scan)).unwrap();

        let io_sel = IoTracker::new();
        let scan =
            BdccScan::new(table(), io_sel.clone(), &["v"], vec![], &[], groups(&[1])).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 4);
        assert!(io_sel.stats().bytes_read <= io_all.stats().bytes_read);
    }

    #[test]
    fn minmax_inside_groups() {
        let io = IoTracker::new();
        // v >= 14 within all groups: only the last block of group 3 matches.
        let scan = BdccScan::new(
            table(),
            io,
            &["v"],
            vec![ColPredicate::ge("v", 14i64)],
            &[],
            groups(&[0, 1, 2, 3]),
        )
        .unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[14, 15]);
    }

    #[test]
    fn multiple_group_keys() {
        let io = IoTracker::new();
        let g = vec![GroupSpec { start: 0, count: 4, group_keys: vec![7, 9] }];
        let scan = BdccScan::new(table(), io, &["v"], vec![], &["__gk0".into(), "__gk1".into()], g)
            .unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.arity(), 3);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[7, 7, 7, 7]);
        assert_eq!(out.columns[2].as_i64().unwrap(), &[9, 9, 9, 9]);
    }

    #[test]
    fn empty_group_list_terminates() {
        let io = IoTracker::new();
        let scan = BdccScan::new(table(), io, &["v"], vec![], &[], vec![]).unwrap();
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        use crate::ops::scan::tests::{hand_filtered, residual_cases, residual_table};
        // Six-row groups straddle the 8-row blocks, read in scatter order.
        let groups: Vec<GroupSpec> = [7usize, 0, 4, 9]
            .iter()
            .map(|&g| GroupSpec { start: g * 6, count: 6, group_keys: vec![g as i64] })
            .collect();
        let gk = ["__gk0".to_string()];
        for (name, encoded, preds, late) in residual_cases() {
            let t = residual_table(encoded);
            let scan = BdccScan::new(
                Arc::clone(&t),
                IoTracker::new(),
                &["v"],
                preds.clone(),
                &gk,
                groups.clone(),
            )
            .unwrap();
            assert_eq!(scan.kernel.is_some(), late, "{name}: wrong residual path");
            let got = collect(Box::new(scan)).unwrap();
            let reference = BdccScan::new(
                t,
                IoTracker::new(),
                &["v", "k", "f", "s"],
                vec![],
                &gk,
                groups.clone(),
            )
            .unwrap();
            let schema = reference.schema().clone();
            let want = hand_filtered(collect(Box::new(reference)).unwrap(), &schema, &preds, 1);
            assert_eq!(got, want, "{name}");
        }
    }
}
