//! Column batches exchanged between operators.
//!
//! The executor is vectorized: operators pull [`Batch`]es of up to
//! [`BATCH_ROWS`] rows. A batch is a set of equally long [`Column`]s whose
//! names and types are described once per operator by its [`OpSchema`].

use bdcc_storage::{Column, DataType, Datum};

/// Target rows per batch.
pub const BATCH_ROWS: usize = 4096;

/// Description of one output column of an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColMeta {
    pub name: String,
    pub data_type: DataType,
}

impl ColMeta {
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColMeta {
        ColMeta { name: name.into(), data_type }
    }
}

/// An operator's output schema.
pub type OpSchema = Vec<ColMeta>;

/// Index of a named column in a schema.
pub fn schema_index(schema: &[ColMeta], name: &str) -> Option<usize> {
    schema.iter().position(|c| c.name == name)
}

/// A set of equally long columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub columns: Vec<Column>,
}

impl Batch {
    /// A batch from columns (all must have the same length).
    pub fn new(columns: Vec<Column>) -> Batch {
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Batch { columns }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Keep only flagged rows.
    pub fn filter(&self, keep: &[bool]) -> Batch {
        Batch { columns: self.columns.iter().map(|c| c.filter(keep)).collect() }
    }

    /// Gather rows by index.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch { columns: self.columns.iter().map(|c| c.gather(indices)).collect() }
    }

    /// Gather rows by `u32` index — the selection-vector entry point
    /// ([`crate::kernel::SelVec::take`] uses this for partial selections;
    /// an all-rows selection returns the batch without copying).
    pub fn gather_u32(&self, indices: &[u32]) -> Batch {
        Batch { columns: self.columns.iter().map(|c| c.gather_u32(indices)).collect() }
    }

    /// Append all rows of `other` (same column types, in order).
    pub fn append(&mut self, other: &Batch) -> Result<(), bdcc_storage::StorageError> {
        self.columns.iter_mut().zip(&other.columns).try_for_each(|(d, s)| d.append(s))
    }

    /// One row as datums (diagnostics/tests).
    pub fn row(&self, r: usize) -> Vec<Datum> {
        self.columns.iter().map(|c| c.datum(r)).collect()
    }

    /// Rough in-memory size of the batch payload in bytes.
    pub fn estimated_bytes(&self) -> u64 {
        self.columns.iter().map(|c| (c.len() as f64 * c.avg_width()) as u64).sum()
    }
}

/// Accumulates rows and re-chunks them into `BATCH_ROWS`-sized batches.
/// Used by operators whose natural output granularity differs from the
/// input batching (joins, group flushes).
#[derive(Debug)]
pub struct BatchAssembler {
    schema_types: Vec<DataType>,
    pending: Vec<Column>,
}

impl BatchAssembler {
    /// An assembler producing batches with the given column types.
    pub fn new(schema_types: Vec<DataType>) -> BatchAssembler {
        let pending = schema_types.iter().map(|&dt| Column::empty(dt)).collect();
        BatchAssembler { schema_types, pending }
    }

    /// Append a batch of rows.
    pub fn push(&mut self, batch: &Batch) {
        for (dst, src) in self.pending.iter_mut().zip(&batch.columns) {
            dst.append(src).expect("assembler column types match");
        }
    }

    /// Rows currently buffered.
    pub fn pending_rows(&self) -> usize {
        self.pending.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Take a full batch if at least `BATCH_ROWS` rows are buffered.
    pub fn take_full(&mut self) -> Option<Batch> {
        if self.pending_rows() >= BATCH_ROWS {
            Some(self.take_up_to(BATCH_ROWS))
        } else {
            None
        }
    }

    /// Drain whatever is left (the final, possibly short, batch).
    pub fn take_rest(&mut self) -> Option<Batch> {
        if self.pending_rows() == 0 {
            None
        } else {
            let n = self.pending_rows();
            Some(self.take_up_to(n))
        }
    }

    fn take_up_to(&mut self, n: usize) -> Batch {
        let mut out = Vec::with_capacity(self.pending.len());
        for (i, col) in self.pending.iter_mut().enumerate() {
            let taken = col.slice(0, n);
            let rest = col.slice(n, col.len());
            out.push(taken);
            *col = rest;
            debug_assert_eq!(out[i].data_type(), self.schema_types[i]);
        }
        Batch::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_basics() {
        let b = Batch::new(vec![
            Column::from_i64(vec![1, 2, 3]),
            Column::from_strings(vec!["a".into(), "b".into(), "c".into()]),
        ]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.arity(), 2);
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.rows(), 2);
        assert_eq!(f.row(1), vec![Datum::Int(3), Datum::Str("c".into())]);
        let g = b.gather(&[2, 2]);
        assert_eq!(g.columns[0].as_i64().unwrap(), &[3, 3]);
    }

    #[test]
    fn assembler_rechunks() {
        let mut a = BatchAssembler::new(vec![DataType::Int]);
        let small = Batch::new(vec![Column::from_i64((0..100).collect())]);
        for _ in 0..50 {
            a.push(&small);
        }
        // 5000 rows buffered → one full batch of BATCH_ROWS.
        let full = a.take_full().unwrap();
        assert_eq!(full.rows(), BATCH_ROWS);
        assert!(a.take_full().is_none());
        let rest = a.take_rest().unwrap();
        assert_eq!(rest.rows(), 5000 - BATCH_ROWS);
        assert!(a.take_rest().is_none());
        // Values survive in order.
        assert_eq!(full.columns[0].as_i64().unwrap()[0], 0);
        assert_eq!(full.columns[0].as_i64().unwrap()[100], 0);
    }

    #[test]
    fn schema_index_lookup() {
        let s = vec![ColMeta::new("a", DataType::Int), ColMeta::new("b", DataType::Str)];
        assert_eq!(schema_index(&s, "b"), Some(1));
        assert_eq!(schema_index(&s, "z"), None);
    }
}
