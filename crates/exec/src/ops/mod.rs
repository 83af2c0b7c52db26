//! Physical operators.
//!
//! Pull-based, vectorized: `next()` yields [`Batch`]es until `None`. The
//! operator set mirrors what the paper's evaluation exercises in
//! Vectorwise: one leaf scan over an ordered list of row ranges with MinMax
//! block skipping inside each (the BDCC scatter-scan over selected groups;
//! a plain scan is the same walk over the statistics blocks), hash / merge
//! joins and hash aggregation, plus the usual filter / project / sort /
//! limit plumbing. The *sandwich* operators of ref \[3\] are not separate
//! operators: they are the hash join and the hash aggregate run one
//! co-cluster at a time over co-clustered inputs (`HashJoin::grouped`,
//! `HashAggregate::with_runs`).

pub mod agg;
pub mod join;
pub mod merge_join;
pub mod scan;
pub mod sort;
pub mod transform;

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::IoTracker;

use crate::batch::{Batch, OpSchema};
use crate::error::Result;
use crate::govern::Governor;
use crate::memory::MemoryTracker;

/// A pull-based physical operator.
pub trait Operator: Send {
    /// Output schema (stable across the operator's lifetime).
    fn schema(&self) -> &OpSchema;
    /// The next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>>;
}

/// Boxed operator, the unit the planner composes.
pub type BoxedOp = Box<dyn Operator>;

/// What an operator reads through, is charged to, reports on and answers
/// to: one value the planner builds per operator and hands to the leaf
/// scan, the hash join, the hash aggregate and the morsel fan-out alike.
#[derive(Clone)]
pub struct OpEnv {
    /// Storage reads, and spill file writes and reads.
    pub io: IoTracker,
    /// What the operator holds is registered here (a fan-out: every
    /// morsel's folded value while it is in flight).
    pub tracker: Arc<MemoryTracker>,
    /// Profiling hook (planner-installed). `None` costs nothing.
    pub metrics: Option<Arc<OpMetrics>>,
    /// The query's limits and spill mode (see [`crate::govern`]): polled
    /// at the operator's checkpoints, asked before state grows. Inert by
    /// default.
    pub governor: Governor,
}

impl OpEnv {
    /// Unprofiled and ungoverned.
    pub fn new(io: IoTracker, tracker: Arc<MemoryTracker>) -> OpEnv {
        OpEnv { io, tracker, metrics: None, governor: Governor::none() }
    }
}

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
