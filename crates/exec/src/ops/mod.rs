//! Physical operators.
//!
//! Pull-based, vectorized: `next()` yields [`Batch`]es until `None`. The
//! operator set mirrors what the paper's evaluation exercises in
//! Vectorwise: one leaf scan over an ordered list of row ranges with MinMax
//! block skipping inside each (the BDCC scatter-scan over selected groups;
//! a plain scan is the same walk over the statistics blocks), hash / merge
//! joins, the *sandwich* variants of join and aggregation (group-at-a-time
//! execution over co-clustered inputs, ref [3]), plus the usual filter /
//! project / sort / limit plumbing.

pub mod agg;
pub mod join;
pub mod merge_join;
pub mod sandwich_join;
pub mod scan;
pub mod sort;
pub mod transform;

use crate::batch::{Batch, OpSchema};
use crate::error::Result;

/// A pull-based physical operator.
pub trait Operator: Send {
    /// Output schema (stable across the operator's lifetime).
    fn schema(&self) -> &OpSchema;
    /// The next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>>;
}

/// Boxed operator, the unit the planner composes.
pub type BoxedOp = Box<dyn Operator>;

/// Drain an operator into a single materialized batch (tests/harness).
pub fn collect(mut op: BoxedOp) -> Result<Batch> {
    use bdcc_storage::Column;
    let mut cols: Vec<Column> = op.schema().iter().map(|m| Column::empty(m.data_type)).collect();
    while let Some(batch) = op.next()? {
        for (dst, src) in cols.iter_mut().zip(&batch.columns) {
            dst.append(src)?;
        }
    }
    Ok(Batch::new(cols))
}
