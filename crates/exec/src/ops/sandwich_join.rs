//! Sandwich hash join (ref [3]): group-at-a-time join over co-clustered
//! inputs.
//!
//! Both inputs arrive *pre-grouped* on the shared dimension bits (the
//! group-key columns appended by the BDCC scatter-scan, in the same
//! negotiated major order on both sides). The join then merges group
//! streams: groups with equal keys are hash-joined against each other
//! through the flat allocation-free [`JoinIndex`]; the table only ever
//! holds **one group** of the build side, so memory is bounded by the
//! largest co-cluster instead of the whole input — the effect Figure 3
//! measures. The group merge *is* the partition-wise short-circuit of the
//! parallel join design: both sides are already co-partitioned on the
//! dimension bits, so each group joins only against its peer group, and
//! under a [`ParallelConfig`] it decides *per group* which work fans out:
//! skipped groups cost nothing, small groups stay serial, and only
//! oversized groups split their build into hash partitions and their
//! probe into row-range morsels (byte-identical to the serial pass).

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::Column;

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::Governor;
use crate::hash::JoinIndex;
use crate::kernel::{PairFilter, SelVec};
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, Operator};
use crate::parallel::ParallelConfig;

/// Streams `(group key tuple, group rows)` from an operator whose output is
/// grouped by the given key columns (consecutive equal-key rows form a
/// group; groups may span batches, batches may contain several groups).
pub struct GroupReader {
    input: BoxedOp,
    key_cols: Vec<usize>,
    /// Held-back batch remainder that starts the next group.
    pending: Option<Batch>,
}

impl GroupReader {
    pub fn new(input: BoxedOp, key_cols: Vec<usize>) -> GroupReader {
        GroupReader { input, key_cols, pending: None }
    }

    pub fn schema(&self) -> &OpSchema {
        self.input.schema()
    }

    fn key_of(&self, batch: &Batch, row: usize) -> Result<Vec<i64>> {
        self.key_cols.iter().map(|&c| Ok(batch.columns[c].as_i64()?[row])).collect()
    }

    /// Next group: its key and all its rows.
    pub fn next_group(&mut self) -> Result<Option<(Vec<i64>, Batch)>> {
        // Seed with pending or a fresh batch.
        let mut acc = match self.pending.take() {
            Some(b) => b,
            None => match self.input.next()? {
                Some(b) => b,
                None => return Ok(None),
            },
        };
        let key = self.key_of(&acc, 0)?;
        // If the seed batch contains a key change, split it.
        if let Some(split) = self.find_split(&acc, &key)? {
            let head = slice_batch(&acc, 0, split);
            self.pending = Some(slice_batch(&acc, split, acc.rows()));
            return Ok(Some((key, head)));
        }
        // Otherwise keep accumulating batches until the key changes.
        loop {
            match self.input.next()? {
                None => return Ok(Some((key, acc))),
                Some(b) => {
                    if self.key_of(&b, 0)? != key {
                        self.pending = Some(b);
                        return Ok(Some((key, acc)));
                    }
                    match self.find_split(&b, &key)? {
                        Some(split) => {
                            append_batch(&mut acc, &slice_batch(&b, 0, split))?;
                            self.pending = Some(slice_batch(&b, split, b.rows()));
                            return Ok(Some((key, acc)));
                        }
                        None => append_batch(&mut acc, &b)?,
                    }
                }
            }
        }
    }

    /// First row index whose key differs from `key`, if any.
    fn find_split(&self, batch: &Batch, key: &[i64]) -> Result<Option<usize>> {
        let cols: Vec<&[i64]> = self
            .key_cols
            .iter()
            .map(|&c| batch.columns[c].as_i64())
            .collect::<std::result::Result<_, _>>()?;
        'rows: for row in 0..batch.rows() {
            for (c, col) in cols.iter().enumerate() {
                if col[row] != key[c] {
                    return Ok(Some(row));
                }
            }
            continue 'rows;
        }
        Ok(None)
    }
}

fn slice_batch(b: &Batch, start: usize, end: usize) -> Batch {
    Batch::new(b.columns.iter().map(|c| c.slice(start, end)).collect())
}

fn append_batch(dst: &mut Batch, src: &Batch) -> Result<()> {
    for (d, s) in dst.columns.iter_mut().zip(&src.columns) {
        d.append(s)?;
    }
    Ok(())
}

/// Inner sandwich hash join.
///
/// Output schema: left columns ++ right columns *minus the right group-key
/// columns* (they duplicate the left's). Output remains grouped by the left
/// group-key columns, enabling further sandwiches on key prefixes.
pub struct SandwichHashJoin {
    left: GroupReader,
    right: GroupReader,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Compiled residual (see [`crate::kernel`]): shrinks the pair match
    /// lists before the output gathers, touching only referenced columns.
    residual: Option<PairFilter>,
    schema: OpSchema,
    /// Right column indices kept in the output (group keys dropped).
    right_kept: Vec<usize>,
    tracker: Arc<MemoryTracker>,
    /// Wider than one thread, oversized groups build their index
    /// hash-partitioned and probe in row-range morsels.
    parallel: ParallelConfig,
    mem: Option<MemoryGuard>,
    /// Largest per-group build size seen (diagnostics).
    pub max_group_build_rows: usize,
    lgroup: Option<(Vec<i64>, Batch)>,
    rgroup: Option<(Vec<i64>, Batch)>,
    started: bool,
    done: bool,
    /// Profiling hook (planner-installed): group-merge outcomes — joined
    /// groups vs one-sided short-circuits — flushed as annotations when
    /// the merge ends (or the operator drops early under a `Limit`).
    metrics: Option<Arc<OpMetrics>>,
    groups_joined: u64,
    groups_left_only: u64,
    groups_right_only: u64,
    /// Per-query governance checkpoint, polled once per merged group
    /// (inert by default).
    governor: Governor,
}

impl SandwichHashJoin {
    /// `on`: equi-join columns (in addition to group alignment).
    /// `left_group_cols` / `right_group_cols`: the aligned group-key column
    /// indices, same length, same negotiated order.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        on: &[(&str, &str)],
        left_group_cols: Vec<usize>,
        right_group_cols: Vec<usize>,
        residual: Option<Expr>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<SandwichHashJoin> {
        if left_group_cols.len() != right_group_cols.len() || left_group_cols.is_empty() {
            return Err(ExecError::Plan("sandwich join needs aligned group keys".into()));
        }
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
        let right_kept: Vec<usize> =
            (0..rschema.len()).filter(|i| !right_group_cols.contains(i)).collect();
        let mut schema = lschema.clone();
        for &i in &right_kept {
            schema.push(rschema[i].clone());
        }
        // Residual sees left ++ kept right columns.
        let residual = match residual {
            Some(e) => Some(PairFilter::new(&e.bind(&schema)?, &schema)),
            None => None,
        };
        Ok(SandwichHashJoin {
            left: GroupReader::new(left, left_group_cols),
            right: GroupReader::new(right, right_group_cols),
            left_keys,
            right_keys,
            residual,
            schema,
            right_kept,
            tracker,
            parallel: ParallelConfig::with_threads(1),
            mem: None,
            max_group_build_rows: 0,
            lgroup: None,
            rgroup: None,
            started: false,
            done: false,
            metrics: None,
            groups_joined: 0,
            groups_left_only: 0,
            groups_right_only: 0,
            governor: Governor::none(),
        })
    }

    /// Set the width of the per-group build and probe for oversized
    /// groups (planner-installed; results stay byte-identical at every
    /// width).
    pub fn with_parallel(mut self, cfg: ParallelConfig) -> SandwichHashJoin {
        self.parallel = cfg;
        self
    }

    /// Attach the profiling metric block (planner-installed).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> SandwichHashJoin {
        self.metrics = metrics;
        self
    }

    /// Attach the per-query governor (planner-installed); every merged
    /// group becomes a cancellation/deadline/budget checkpoint.
    pub fn with_governor(mut self, governor: Governor) -> SandwichHashJoin {
        self.governor = governor;
        self
    }

    /// Write the group-merge tallies as annotations. Idempotent
    /// (`annotate` replaces), called when the merge exhausts and again
    /// from `Drop` so an early-terminated query (a `Limit` upstream)
    /// still reports the groups it actually processed.
    fn flush_annotations(&self) {
        if let Some(m) = &self.metrics {
            m.annotate("groups_joined", self.groups_joined.to_string());
            m.annotate("groups_left_only", self.groups_left_only.to_string());
            m.annotate("groups_right_only", self.groups_right_only.to_string());
            m.annotate("max_group_build_rows", self.max_group_build_rows.to_string());
            if let Some(pf) = &self.residual {
                pf.annotate(m);
            }
        }
    }
}

impl Drop for SandwichHashJoin {
    fn drop(&mut self) {
        self.flush_annotations();
    }
}

impl Operator for SandwichHashJoin {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            self.lgroup = self.left.next_group()?;
            self.rgroup = self.right.next_group()?;
        }
        // Merge group streams; the *right* side is the build side.
        loop {
            self.governor.check("sandwich-group")?;
            let cmp = match (&self.lgroup, &self.rgroup) {
                (Some((lk, _)), Some((rk, _))) => lk.cmp(rk),
                _ => {
                    self.done = true;
                    self.mem = None;
                    self.flush_annotations();
                    return Ok(None);
                }
            };
            match cmp {
                std::cmp::Ordering::Less => {
                    self.groups_left_only += 1;
                    self.lgroup = self.left.next_group()?;
                }
                std::cmp::Ordering::Greater => {
                    self.groups_right_only += 1;
                    self.rgroup = self.right.next_group()?;
                }
                std::cmp::Ordering::Equal => {
                    self.groups_joined += 1;
                    let (_, lrows) = self.lgroup.as_ref().expect("checked");
                    let (_, rrows) = self.rgroup.as_ref().expect("checked");
                    // Build on the right group only — the sandwich. Charge
                    // the group payload plus the flat table join_groups is
                    // about to build (same cost model as HashJoin's).
                    let bytes = rrows.estimated_bytes()
                        + crate::hash::estimated_table_bytes(rrows.rows(), self.right_keys.len());
                    match &mut self.mem {
                        Some(m) => m.resize(bytes),
                        None => self.mem = Some(self.tracker.register(bytes)),
                    }
                    self.max_group_build_rows = self.max_group_build_rows.max(rrows.rows());
                    let out = join_groups(
                        lrows,
                        rrows,
                        &self.left_keys,
                        &self.right_keys,
                        &self.right_kept,
                        self.residual.as_ref(),
                        &self.parallel,
                    )?;
                    self.lgroup = self.left.next_group()?;
                    self.rgroup = self.right.next_group()?;
                    if out.rows() > 0 {
                        return Ok(Some(out));
                    }
                }
            }
        }
    }
}

fn join_groups(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    right_kept: &[usize],
    residual: Option<&PairFilter>,
    parallel: &ParallelConfig,
) -> Result<Batch> {
    let rkey_cols: Vec<&[i64]> = right_keys
        .iter()
        .map(|&k| right.columns[k].as_i64())
        .collect::<std::result::Result<_, _>>()?;
    // One group at a time: most groups are far below a morsel and build
    // serially; `JoinIndex::build` partitions only an oversized group.
    let index = JoinIndex::build(&rkey_cols, parallel)?;
    let lkey_cols: Vec<&[i64]> = left_keys
        .iter()
        .map(|&k| left.columns[k].as_i64())
        .collect::<std::result::Result<_, _>>()?;
    // Same per-group gate on the probe side: only a probe group bigger
    // than a morsel fans out to row-range probe morsels.
    let (mut lidx, mut ridx) = index.probe_pairs_parallel(&lkey_cols, left.rows(), parallel)?;
    if let Some(pf) = residual {
        // The residual runs on the pair selection, gathering only its
        // referenced columns; the match lists shrink before the full
        // output gathers below.
        let left_arity = left.arity();
        let sel = pf.select_pairs(lidx.len(), |c| {
            Ok(if c < left_arity {
                left.columns[c].gather(&lidx)
            } else {
                right.columns[right_kept[c - left_arity]].gather_u32(&ridx)
            })
        })?;
        if let SelVec::Rows(rows) = sel {
            lidx = rows.iter().map(|&i| lidx[i as usize]).collect();
            ridx = rows.iter().map(|&i| ridx[i as usize]).collect();
        }
    }
    let mut cols: Vec<Column> = left.columns.iter().map(|c| c.gather(&lidx)).collect();
    for &i in right_kept {
        cols.push(right.columns[i].gather_u32(&ridx));
    }
    Ok(Batch::new(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColMeta;
    use crate::ops::collect;
    use bdcc_storage::DataType;

    struct Source {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Source {
        /// Columns: key, value, gk — pre-grouped by gk.
        fn grouped(names: (&str, &str, &str), rows: Vec<(i64, i64, i64)>, chunk: usize) -> Source {
            let schema = vec![
                ColMeta::new(names.0, DataType::Int),
                ColMeta::new(names.1, DataType::Int),
                ColMeta::new(names.2, DataType::Int),
            ];
            let batches: Vec<Batch> = rows
                .chunks(chunk)
                .map(|c| {
                    Batch::new(vec![
                        Column::from_i64(c.iter().map(|r| r.0).collect()),
                        Column::from_i64(c.iter().map(|r| r.1).collect()),
                        Column::from_i64(c.iter().map(|r| r.2).collect()),
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
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    #[test]
    fn group_reader_splits_and_accumulates() {
        let src = Source::grouped(
            ("k", "v", "g"),
            vec![(1, 10, 0), (2, 20, 0), (3, 30, 1), (4, 40, 1), (5, 50, 2)],
            2, // batches of 2 rows: groups span and split batches
        );
        let mut r = GroupReader::new(Box::new(src), vec![2]);
        let (k, b) = r.next_group().unwrap().unwrap();
        assert_eq!(k, vec![0]);
        assert_eq!(b.rows(), 2);
        let (k, b) = r.next_group().unwrap().unwrap();
        assert_eq!(k, vec![1]);
        assert_eq!(b.columns[0].as_i64().unwrap(), &[3, 4]);
        let (k, b) = r.next_group().unwrap().unwrap();
        assert_eq!(k, vec![2]);
        assert_eq!(b.rows(), 1);
        assert!(r.next_group().unwrap().is_none());
    }

    #[test]
    fn sandwich_join_matches_within_groups() {
        // Left: orders (orderkey, custkey, gk=nation bits).
        let left = Source::grouped(
            ("o_key", "o_cust", "__gk0"),
            vec![(100, 1, 0), (101, 2, 0), (102, 3, 1), (103, 4, 2)],
            4,
        );
        // Right: customers (custkey, nationkey, gk).
        let right = Source::grouped(
            ("c_cust", "c_nat", "__gk0r"),
            vec![(1, 7, 0), (2, 8, 0), (3, 9, 1), (5, 5, 2)],
            4,
        );
        let t = MemoryTracker::new();
        let j = SandwichHashJoin::new(
            Box::new(left),
            Box::new(right),
            &[("o_cust", "c_cust")],
            vec![2],
            vec![2],
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // Orders 100,101 (group 0) and 102 (group 1) match; 103's customer 4
        // is absent.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[100, 101, 102]);
        // Right gk column dropped: schema = o_key,o_cust,__gk0,c_cust,c_nat.
        assert_eq!(out.arity(), 5);
        // Peak memory = largest group (2 rows), far below total (4 rows).
        assert!(t.peak() > 0);
    }

    #[test]
    fn memory_is_bounded_by_largest_group() {
        // One big left group, many small right groups.
        let rows_r: Vec<(i64, i64, i64)> = (0..100).map(|i| (i, i, i / 10)).collect();
        let rows_l: Vec<(i64, i64, i64)> = (0..100).map(|i| (1000 + i, i, i / 10)).collect();
        let left = Source::grouped(("lk", "lc", "g"), rows_l, 7);
        let right = Source::grouped(("rc", "rv", "g"), rows_r.clone(), 7);
        let t_sandwich = MemoryTracker::new();
        let j = SandwichHashJoin::new(
            Box::new(left),
            Box::new(right),
            &[("lc", "rc")],
            vec![2],
            vec![2],
            None,
            t_sandwich.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 100);

        // Compare with a full hash join of the same data.
        let left = Source::grouped(
            ("lk", "lc", "g"),
            (0..100).map(|i| (1000 + i, i, i / 10)).collect(),
            7,
        );
        let right = Source::grouped(("rc", "rv", "g"), rows_r, 7);
        let t_hash = MemoryTracker::new();
        let j = crate::ops::join::HashJoin::new(
            Box::new(left),
            Box::new(right),
            &[("lc", "rc")],
            crate::ops::join::JoinType::Inner,
            None,
            t_hash.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 100);
        assert!(
            t_sandwich.peak() * 5 < t_hash.peak(),
            "sandwich peak {} should be far below hash peak {}",
            t_sandwich.peak(),
            t_hash.peak()
        );
    }

    #[test]
    fn skew_between_group_streams() {
        // Left has groups 0,2; right has 1,2 → only group 2 joins.
        let left = Source::grouped(("lk", "lc", "g"), vec![(1, 1, 0), (2, 2, 2)], 4);
        let right = Source::grouped(("rc", "rv", "g"), vec![(1, 9, 1), (2, 9, 2)], 4);
        let t = MemoryTracker::new();
        let j = SandwichHashJoin::new(
            Box::new(left),
            Box::new(right),
            &[("lc", "rc")],
            vec![2],
            vec![2],
            None,
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        // Sargable and non-sargable residuals against a reference that
        // shares nothing with the pair filter: the same join *without* the
        // residual, its output filtered by the interpreter.
        let rows_l: Vec<(i64, i64, i64)> = (0..120).map(|i| (1000 + i, i % 17, i / 12)).collect();
        let rows_r: Vec<(i64, i64, i64)> = (0..90).map(|i| (i % 17, 2000 + i, i / 9)).collect();
        let residuals: Vec<Expr> = vec![
            Expr::col("rv").ge(Expr::lit(2030)),
            Expr::col("lk").ge(Expr::col("rv").sub(Expr::lit(990))),
        ];
        let run = |res: Option<Expr>| {
            let left = Source::grouped(("lk", "lc", "g"), rows_l.clone(), 7);
            let right = Source::grouped(("rc", "rv", "g"), rows_r.clone(), 7);
            let join = SandwichHashJoin::new(
                Box::new(left),
                Box::new(right),
                &[("lc", "rc")],
                vec![2],
                vec![2],
                res,
                MemoryTracker::new(),
            )
            .unwrap();
            let schema = join.schema().clone();
            (collect(Box::new(join)).unwrap(), schema)
        };
        let (all_pairs, schema) = run(None);
        for res in &residuals {
            let keep = res.bind(&schema).unwrap().eval_bool(&all_pairs).unwrap();
            assert!(keep.iter().any(|&k| k) && !keep.iter().all(|&k| k), "{res:?} must cut");
            assert_eq!(run(Some(res.clone())).0, all_pairs.filter(&keep), "{res:?}");
        }
    }

    #[test]
    fn residual_applies_per_pair() {
        let left = Source::grouped(("lk", "lc", "g"), vec![(1, 1, 0), (2, 1, 0)], 4);
        let right = Source::grouped(("rc", "rv", "g"), vec![(1, 9, 0)], 4);
        let t = MemoryTracker::new();
        let j = SandwichHashJoin::new(
            Box::new(left),
            Box::new(right),
            &[("lc", "rc")],
            vec![2],
            vec![2],
            Some(Expr::col("lk").ge(Expr::lit(2))),
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2]);
    }
}
