//! Morsel-parallel sort: per-run stable sorts on workers, stable k-way
//! merge.
//!
//! The input stream is chopped into runs of roughly `morsel_rows` rows
//! (batch-aligned); workers sort the runs concurrently with the same
//! comparator the serial [`Sort`] uses, and [`merge_sorted`] merges them
//! stably with run-index tie-breaking. A stable per-run sort + a stable
//! merge that prefers earlier runs is exactly a stable sort of the
//! concatenated input, so the output is **byte-identical** to the serial
//! operator's — the merge contract promised by [`crate::parallel::merge`].
//!
//! [`Sort`]: crate::ops::sort::Sort

use std::sync::Arc;

use bdcc_storage::{Column, StrVec};

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::memory::MemoryTracker;
use crate::ops::sort::{cmp_rows, SortKey};
use crate::ops::{BoxedOp, Operator};
use crate::parallel::{merge::merge_sorted, pool, ParallelConfig};

/// Parallel materializing sort (with optional limit → top-N), the
/// [`ParallelConfig`]-gated replacement for [`Sort`].
///
/// [`Sort`]: crate::ops::sort::Sort
pub struct ParallelSort {
    input: Option<BoxedOp>,
    keys: Vec<(usize, bool)>,
    limit: Option<usize>,
    schema: OpSchema,
    cfg: ParallelConfig,
    tracker: Arc<MemoryTracker>,
    output: Option<Batch>,
    done: bool,
}

impl ParallelSort {
    pub fn new(
        input: BoxedOp,
        keys: &[SortKey],
        limit: Option<usize>,
        cfg: ParallelConfig,
        tracker: Arc<MemoryTracker>,
    ) -> Result<ParallelSort> {
        let schema = input.schema().clone();
        let mut resolved = Vec::with_capacity(keys.len());
        for k in keys {
            let idx = crate::batch::schema_index(&schema, &k.column)
                .ok_or_else(|| ExecError::UnknownColumn(k.column.clone()))?;
            resolved.push((idx, k.ascending));
        }
        Ok(ParallelSort {
            input: Some(input),
            keys: resolved,
            limit,
            schema,
            cfg,
            tracker,
            output: None,
            done: false,
        })
    }

    /// Drain the input into runs of at least `morsel_rows` rows (closing a
    /// run only on batch boundaries keeps runs contiguous input slices).
    fn collect_runs(&mut self) -> Result<Vec<Batch>> {
        let mut input = self.input.take().expect("sort input consumed once");
        let mut runs: Vec<Batch> = Vec::new();
        let mut acc: Option<Batch> = None;
        while let Some(b) = input.next()? {
            match &mut acc {
                None => acc = Some(b),
                Some(a) => {
                    for (d, s) in a.columns.iter_mut().zip(&b.columns) {
                        d.append(s)?;
                    }
                }
            }
            if acc.as_ref().map(|a| a.rows()).unwrap_or(0) >= self.cfg.morsel_rows {
                runs.push(acc.take().expect("just filled"));
            }
        }
        if let Some(a) = acc {
            runs.push(a);
        }
        Ok(runs)
    }
}

/// Stable sort of one run by the resolved keys (the serial [`Sort`]
/// comparator, [`cmp_rows`]). Free function so workers capture only the
/// keys, not the (non-`Sync`) operator.
///
/// [`Sort`]: crate::ops::sort::Sort
fn sort_run(run: &Batch, keys: &[(usize, bool)]) -> Batch {
    let mut perm: Vec<usize> = (0..run.rows()).collect();
    perm.sort_by(|&a, &b| cmp_rows(keys, run, a, run, b));
    run.gather(&perm)
}

impl Operator for ParallelSort {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if self.output.is_none() {
            let runs = self.collect_runs()?;
            // Charge the materialized input up front (mirroring the serial
            // Sort, so serial/parallel peaks compare apples-to-apples)…
            let bytes: u64 = runs.iter().map(|b| b.estimated_bytes()).sum();
            let mut mem = self.tracker.register(bytes);
            let keys = &self.keys;
            let sorted: Vec<Batch> =
                pool::run_tasks_labeled(self.cfg.threads, runs.len(), "sort-run", |i| {
                    Ok(sort_run(&runs[i], keys))
                })?;
            // …then the unsorted runs are dead: drop them before the merge
            // so only the sorted copies stay resident, and resize the
            // charge to that live set (held through merge + gather).
            drop(runs);
            mem.resize(sorted.iter().map(|b| b.estimated_bytes()).sum());
            let mut coords = merge_sorted(&sorted, |x, i, y, j| cmp_rows(keys, x, i, y, j));
            if let Some(l) = self.limit {
                coords.truncate(l);
            }
            let cols: Vec<Column> = (0..self.schema.len())
                .map(|c| gather_streams(&sorted, &coords, c, &self.schema))
                .collect();
            self.output = Some(Batch::new(cols));
        }
        self.done = true;
        Ok(self.output.take())
    }
}

/// Gather column `col` across sorted streams at `(stream, row)`
/// coordinates — the cross-stream counterpart of [`Column::gather`].
fn gather_streams(
    streams: &[Batch],
    coords: &[(usize, usize)],
    col: usize,
    schema: &OpSchema,
) -> Column {
    let dt = schema[col].data_type;
    if streams.is_empty() {
        return Column::empty(dt);
    }
    match &streams[0].columns[col] {
        Column::I64 { logical, .. } => {
            let parts: Vec<&[i64]> =
                streams.iter().map(|b| b.columns[col].as_i64().expect("typed")).collect();
            Column::I64 {
                values: coords.iter().map(|&(s, r)| parts[s][r]).collect(),
                logical: *logical,
            }
        }
        Column::F64(_) => {
            let parts: Vec<&[f64]> =
                streams.iter().map(|b| b.columns[col].as_f64().expect("typed")).collect();
            Column::F64(coords.iter().map(|&(s, r)| parts[s][r]).collect())
        }
        Column::Str(_) => {
            let parts: Vec<&StrVec> =
                streams.iter().map(|b| b.columns[col].as_str().expect("typed")).collect();
            Column::Str(coords.iter().map(|&(s, r)| &parts[s][r]).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColMeta;
    use crate::ops::collect;
    use crate::ops::sort::Sort;
    use bdcc_storage::DataType;

    struct Source {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>, chunk: usize) -> Source {
            let schema: OpSchema =
                cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let n = cols[0].1.len();
            let mut batches = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                batches.push(Batch::new(cols.iter().map(|(_, c)| c.slice(start, end)).collect()));
                start = end;
            }
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

    fn dataset(n: i64) -> Vec<(&'static str, Column)> {
        // Heavily tied sort key + distinct payload: stability is visible.
        let k: Vec<i64> = (0..n).map(|i| (i * 7919) % 13).collect();
        let f: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.5).collect();
        let s: Vec<String> = (0..n).map(|i| format!("r{i:05}")).collect();
        vec![("k", Column::from_i64(k)), ("f", Column::from_f64(f)), ("s", Column::from_strings(s))]
    }

    fn both(
        keys: &[SortKey],
        limit: Option<usize>,
        n: i64,
        chunk: usize,
        cfg: ParallelConfig,
    ) -> (Batch, Batch) {
        let t = MemoryTracker::new();
        let serial = collect(Box::new(
            Sort::new(Box::new(Source::new(dataset(n), chunk)), keys, limit, t.clone()).unwrap(),
        ))
        .unwrap();
        let parallel = collect(Box::new(
            ParallelSort::new(Box::new(Source::new(dataset(n), chunk)), keys, limit, cfg, t)
                .unwrap(),
        ))
        .unwrap();
        (serial, parallel)
    }

    #[test]
    fn parallel_sort_is_byte_identical_to_serial() {
        let cfg = ParallelConfig { threads: 4, morsel_rows: 64 };
        let (s, p) = both(&[SortKey::asc("k")], None, 1000, 37, cfg);
        assert_eq!(s, p);
    }

    #[test]
    fn multi_key_desc_and_limit_match() {
        let cfg = ParallelConfig { threads: 3, morsel_rows: 32 };
        let (s, p) = both(&[SortKey::desc("k"), SortKey::asc("s")], Some(17), 500, 19, cfg);
        assert_eq!(s, p);
        assert_eq!(p.rows(), 17);
    }

    #[test]
    fn tie_heavy_input_keeps_stability() {
        // All keys equal: output must be the input order exactly.
        let cfg = ParallelConfig { threads: 4, morsel_rows: 16 };
        let t = MemoryTracker::new();
        let cols = vec![
            ("k", Column::from_i64(vec![1; 200])),
            ("s", Column::from_strings((0..200).map(|i| format!("{i:03}")).collect())),
        ];
        let p = collect(Box::new(
            ParallelSort::new(Box::new(Source::new(cols, 7)), &[SortKey::asc("k")], None, cfg, t)
                .unwrap(),
        ))
        .unwrap();
        let s: Vec<&str> = p.columns[1].as_str().unwrap().iter().collect();
        assert!(s.windows(2).all(|w| w[0] < w[1]), "stable sort must keep input order on ties");
    }

    #[test]
    fn empty_input_yields_empty_typed_batch() {
        let cfg = ParallelConfig { threads: 2, morsel_rows: 16 };
        let t = MemoryTracker::new();
        let src = Source {
            schema: vec![ColMeta::new("k", DataType::Int), ColMeta::new("s", DataType::Str)],
            batches: Vec::new().into_iter(),
        };
        let mut op = ParallelSort::new(Box::new(src), &[SortKey::asc("k")], None, cfg, t).unwrap();
        let out = op.next().unwrap().unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(out.arity(), 2);
        assert_eq!(out.columns[1].data_type(), DataType::Str);
        assert!(op.next().unwrap().is_none());
    }

    #[test]
    fn date_columns_keep_logical_type() {
        let cfg = ParallelConfig { threads: 2, morsel_rows: 8 };
        let t = MemoryTracker::new();
        let cols = vec![("d", Column::from_dates((0..40).rev().collect()))];
        let p = collect(Box::new(
            ParallelSort::new(Box::new(Source::new(cols, 5)), &[SortKey::asc("d")], None, cfg, t)
                .unwrap(),
        ))
        .unwrap();
        assert_eq!(p.columns[0].data_type(), DataType::Date);
        assert_eq!(p.columns[0].as_i64().unwrap()[0], 0);
    }
}
