//! Sort, top-N and limit.

use std::sync::Arc;

use bdcc_storage::Column;

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::memory::MemoryTracker;
use crate::ops::{BoxedOp, Operator};

/// A sort key: column name and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    pub column: String,
    pub ascending: bool,
}

impl SortKey {
    pub fn asc(column: &str) -> SortKey {
        SortKey { column: column.to_string(), ascending: true }
    }
    pub fn desc(column: &str) -> SortKey {
        SortKey { column: column.to_string(), ascending: false }
    }
}

/// Full materializing sort (with optional limit → top-N) — the sort at
/// every width.
pub struct Sort {
    input: Option<BoxedOp>,
    keys: Vec<(usize, bool)>,
    limit: Option<usize>,
    schema: OpSchema,
    tracker: Arc<MemoryTracker>,
    output: Option<Batch>,
    done: bool,
}

impl Sort {
    pub fn new(
        input: BoxedOp,
        keys: &[SortKey],
        limit: Option<usize>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<Sort> {
        let schema = input.schema().clone();
        let mut resolved = Vec::with_capacity(keys.len());
        for k in keys {
            let idx = crate::batch::schema_index(&schema, &k.column)
                .ok_or_else(|| ExecError::UnknownColumn(k.column.clone()))?;
            resolved.push((idx, k.ascending));
        }
        Ok(Sort {
            input: Some(input),
            keys: resolved,
            limit,
            schema,
            tracker,
            output: None,
            done: false,
        })
    }
}

impl Operator for Sort {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if self.output.is_none() {
            let mut input = self.input.take().expect("sort input consumed once");
            let mut cols: Vec<Column> =
                self.schema.iter().map(|m| Column::empty(m.data_type)).collect();
            while let Some(b) = input.next()? {
                for (d, s) in cols.iter_mut().zip(&b.columns) {
                    d.append(s)?;
                }
            }
            let all = Batch::new(cols);
            let _mem = self.tracker.register(all.estimated_bytes());
            let n = all.rows();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.sort_by(|&a, &b| cmp_rows(&self.keys, &all, a, b));
            if let Some(l) = self.limit {
                perm.truncate(l);
            }
            self.output = Some(all.gather(&perm));
        }
        self.done = true;
        Ok(self.output.take())
    }
}

/// Compare rows `a` and `b` of `batch` under the resolved sort keys
/// `(column index, ascending)` — **the** sort order of this engine.
fn cmp_rows(keys: &[(usize, bool)], batch: &Batch, a: usize, b: usize) -> std::cmp::Ordering {
    for &(c, asc) in keys {
        let ord = cmp_values(&batch.columns[c], a, b);
        let ord = if asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Compare rows `a` and `b` of `col` without allocating datums.
fn cmp_values(col: &Column, a: usize, b: usize) -> std::cmp::Ordering {
    match col {
        Column::I64 { values, .. } => values[a].cmp(&values[b]),
        Column::F64(values) => values[a].total_cmp(&values[b]),
        Column::Str(values) => values[a].cmp(&values[b]),
    }
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
        fn ints(vals: Vec<i64>, chunk: usize) -> Source {
            let schema = vec![ColMeta::new("v", DataType::Int)];
            let batches: Vec<Batch> = vals
                .chunks(chunk)
                .map(|c| Batch::new(vec![Column::from_i64(c.to_vec())]))
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
    fn sort_ascending_and_descending() {
        let t = MemoryTracker::new();
        let s = Sort::new(
            Box::new(Source::ints(vec![3, 1, 2], 2)),
            &[SortKey::asc("v")],
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(s)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);

        let s = Sort::new(Box::new(Source::ints(vec![3, 1, 2], 2)), &[SortKey::desc("v")], None, t)
            .unwrap();
        let out = collect(Box::new(s)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn top_n() {
        let t = MemoryTracker::new();
        let s = Sort::new(
            Box::new(Source::ints(vec![5, 9, 1, 7, 3], 2)),
            &[SortKey::desc("v")],
            Some(2),
            t,
        )
        .unwrap();
        let out = collect(Box::new(s)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[9, 7]);
    }

    #[test]
    fn multi_key_sort() {
        let schema = vec![ColMeta::new("a", DataType::Int), ColMeta::new("b", DataType::Str)];
        let batch = Batch::new(vec![
            Column::from_i64(vec![1, 2, 1]),
            Column::from_strings(vec!["x".into(), "y".into(), "a".into()]),
        ]);
        let src = Source { schema, batches: vec![batch].into_iter() };
        let t = MemoryTracker::new();
        let s =
            Sort::new(Box::new(src), &[SortKey::asc("a"), SortKey::desc("b")], None, t).unwrap();
        let out = collect(Box::new(s)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 1, 2]);
        assert_eq!(out.columns[1].as_str().unwrap().iter().collect::<Vec<_>>(), ["x", "a", "y"]);
    }
}
