//! Merge join for PK-ordered inputs.
//!
//! The PK storage scheme's signature optimization (Section IV): when both
//! inputs arrive sorted on the join key (LINEITEM–ORDERS on `orderkey`,
//! PARTSUPP–PART on `partkey`), the join needs no hash table at all —
//! which is exactly why the paper's Figure 3 shows the PK scheme's memory
//! win on the big join, and why BDCC must compensate elsewhere.

use std::ops::Range;

use bdcc_storage::Column;

use crate::batch::{Batch, OpSchema, BATCH_ROWS};
use crate::error::{ExecError, Result};
use crate::ops::{BoxedOp, Operator};

/// Inner merge join on one integer key per side; inputs must be sorted
/// ascending on their key.
///
/// Output rows are the left key runs in order, each crossed with its right
/// group. Matches are *accumulated* — as row indices into the current left
/// batch and into `rstore`, where the matched right groups are laid end to
/// end — and gathered once per [`BATCH_ROWS`] rows or per left input batch,
/// whichever comes first, so the operators above see full batches instead of
/// one batch per key run.
pub struct MergeJoin {
    left: BoxedOp,
    right: BoxedOp,
    left_key: usize,
    right_key: usize,
    schema: OpSchema,
    lbuf: Option<Batch>,
    lpos: usize,
    rbuf: Option<Batch>,
    rpos: usize,
    /// The right rows the pending output pairs with, group after group.
    rstore: Vec<Column>,
    /// The current right group — its key and its rows in `rstore` — kept
    /// for left runs of the same key that continue in the next batch.
    rgroup: Option<(i64, Range<usize>)>,
    /// Pending output: row `lidx[i]` of `lbuf` beside row `ridx[i]` of
    /// `rstore`.
    lidx: Vec<u32>,
    ridx: Vec<u32>,
    done: bool,
}

impl MergeJoin {
    pub fn new(left: BoxedOp, right: BoxedOp, on: (&str, &str)) -> Result<MergeJoin> {
        let lschema = left.schema().clone();
        let rschema = right.schema().clone();
        let left_key = crate::batch::schema_index(&lschema, on.0)
            .ok_or_else(|| ExecError::UnknownColumn(on.0.to_string()))?;
        let right_key = crate::batch::schema_index(&rschema, on.1)
            .ok_or_else(|| ExecError::UnknownColumn(on.1.to_string()))?;
        let rstore = rschema.iter().map(|m| Column::empty(m.data_type)).collect();
        let mut schema = lschema;
        schema.extend(rschema);
        Ok(MergeJoin {
            left,
            right,
            left_key,
            right_key,
            schema,
            lbuf: None,
            lpos: 0,
            rbuf: None,
            rpos: 0,
            rstore,
            rgroup: None,
            lidx: Vec::new(),
            ridx: Vec::new(),
            done: false,
        })
    }

    /// Current left key, refilling the buffer as needed.
    fn left_peek(&mut self) -> Result<Option<i64>> {
        loop {
            if let Some(b) = &self.lbuf {
                if self.lpos < b.rows() {
                    return Ok(Some(b.columns[self.left_key].as_i64()?[self.lpos]));
                }
            }
            match self.left.next()? {
                Some(b) => {
                    self.lbuf = Some(b);
                    self.lpos = 0;
                }
                None => return Ok(None),
            }
        }
    }

    fn right_peek(&mut self) -> Result<Option<i64>> {
        loop {
            if let Some(b) = &self.rbuf {
                if self.rpos < b.rows() {
                    return Ok(Some(b.columns[self.right_key].as_i64()?[self.rpos]));
                }
            }
            match self.right.next()? {
                Some(b) => {
                    self.rbuf = Some(b);
                    self.rpos = 0;
                }
                None => return Ok(None),
            }
        }
    }

    /// Append all right rows with key `k` to `rstore` as the current group.
    fn fill_right_group(&mut self, k: i64) -> Result<()> {
        let first = self.rstore[0].len();
        while self.right_peek()? == Some(k) {
            // Take the run of equal keys within the current buffer.
            let b = self.rbuf.as_ref().expect("peek filled buffer");
            let keys = b.columns[self.right_key].as_i64()?;
            let start = self.rpos;
            let end = start + keys[start..].iter().take_while(|&&rk| rk == k).count();
            for (dst, src) in self.rstore.iter_mut().zip(&b.columns) {
                dst.append_range(src, start, end)?;
            }
            self.rpos = end;
        }
        self.rgroup = Some((k, first..self.rstore[0].len()));
        Ok(())
    }

    /// Gather the pending output, and drop every right group but the
    /// current one from `rstore`.
    fn flush(&mut self) -> Batch {
        let b = self.lbuf.as_ref().expect("pending rows index a left batch");
        let mut cols: Vec<Column> = b.columns.iter().map(|c| c.gather_u32(&self.lidx)).collect();
        cols.extend(self.rstore.iter().map(|c| c.gather_u32(&self.ridx)));
        self.lidx.clear();
        self.ridx.clear();
        if let Some((_, rows)) = &mut self.rgroup {
            for c in &mut self.rstore {
                *c = c.slice(rows.start, rows.end);
            }
            *rows = 0..rows.len();
        }
        Batch::new(cols)
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        loop {
            // Pending rows index the current left batch: they leave before
            // it is replaced, or as soon as they fill a batch.
            let left_spent = self.lbuf.as_ref().is_none_or(|b| self.lpos >= b.rows());
            if self.lidx.len() >= BATCH_ROWS || (left_spent && !self.lidx.is_empty()) {
                return Ok(Some(self.flush()));
            }
            let Some(lk) = self.left_peek()? else {
                self.done = true;
                return Ok(None);
            };
            // Reuse the buffered right group if the key matches (left dups).
            if !matches!(&self.rgroup, Some((k, _)) if *k == lk) {
                // Advance right until key >= lk.
                while self.right_peek()?.is_some_and(|rk| rk < lk) {
                    self.rpos += 1;
                }
                if self.right_peek()? == Some(lk) {
                    self.fill_right_group(lk)?;
                }
            }
            // The left run of this key within this batch, crossed with the
            // right group — or skipped, if the right side has no such key.
            let b = self.lbuf.as_ref().expect("peeked");
            let keys = b.columns[self.left_key].as_i64()?;
            let start = self.lpos;
            self.lpos += keys[start..].iter().take_while(|&&k| k == lk).count();
            if let Some((_, group)) = self.rgroup.as_ref().filter(|(k, _)| *k == lk) {
                for l in start..self.lpos {
                    self.lidx.extend(std::iter::repeat_n(l as u32, group.len()));
                    self.ridx.extend(group.clone().map(|r| r as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColMeta;
    use crate::ops::collect;

    struct Sorted {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Sorted {
        fn new(name: &str, keys: Vec<i64>, chunk: usize) -> Sorted {
            let schema = vec![ColMeta::new(name, bdcc_storage::DataType::Int)];
            let batches: Vec<Batch> = keys
                .chunks(chunk)
                .map(|c| Batch::new(vec![Column::from_i64(c.to_vec())]))
                .collect();
            Sorted { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Sorted {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    #[test]
    fn one_to_many_merge() {
        let l = Sorted::new("lk", vec![1, 1, 2, 4, 4, 4], 2);
        let r = Sorted::new("rk", vec![1, 2, 3, 4], 3);
        let j = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk")).unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 1, 2, 4, 4, 4]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[1, 1, 2, 4, 4, 4]);
    }

    #[test]
    fn many_to_many_merge() {
        let l = Sorted::new("lk", vec![5, 5], 10);
        let r = Sorted::new("rk", vec![5, 5, 5], 2); // group spans batches
        let j = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk")).unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 6);
    }

    #[test]
    fn key_runs_accumulate_into_full_batches() {
        // 10 000 one-row key runs on the left, every other key on the
        // right, two right rows each: one output batch per left batch, in
        // the row order a batch per key run produced.
        let keys: Vec<i64> = (0..10_000).collect();
        let right: Vec<i64> = keys.iter().filter(|k| *k % 2 == 0).flat_map(|&k| [k, k]).collect();
        let l = Sorted::new("lk", keys, BATCH_ROWS);
        let r = Sorted::new("rk", right.clone(), 1000);
        let mut j = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk")).unwrap();
        let mut batches = Vec::new();
        while let Some(b) = j.next().unwrap() {
            assert_eq!(b.columns[0], b.columns[1]);
            batches.push(b);
        }
        assert!(j.next().unwrap().is_none(), "stays exhausted");
        assert_eq!(batches.len(), 10_000usize.div_ceil(BATCH_ROWS));
        let out: Vec<i64> =
            batches.iter().flat_map(|b| b.columns[0].as_i64().unwrap().to_vec()).collect();
        assert_eq!(out, right);
    }

    #[test]
    fn disjoint_keys_empty_result() {
        let l = Sorted::new("lk", vec![1, 3, 5], 2);
        let r = Sorted::new("rk", vec![2, 4, 6], 2);
        let j = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk")).unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn left_run_spanning_batches_reuses_right_group() {
        let l = Sorted::new("lk", vec![7, 7, 7], 1); // one row per batch
        let r = Sorted::new("rk", vec![7, 7], 10);
        let j = MergeJoin::new(Box::new(l), Box::new(r), ("lk", "rk")).unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 6);
    }
}
