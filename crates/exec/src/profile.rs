//! Per-operator execution profiling (`EXPLAIN ANALYZE`).
//!
//! The planner builds an [`OpProf`] tree alongside the physical operator
//! tree when the context carries a [`Profiler`] — per query, through
//! [`QueryContext::with_profiling`] (what `explain_analyze` and the
//! scoreboard's traced passes call); nothing in the environment turns it
//! on. Each plan operator gets:
//!
//! * a live [`OpMetrics`] block (relaxed atomics, per-thread histogram
//!   shards — see `bdcc-obs` for the overhead contract);
//! * a [`MemoryTracker::child_of`] tracker, so the operator's peak is
//!   visible while every byte still forwards to the query-level total;
//! * for leaves that read storage, an [`IoTracker::child`] that
//!   attributes I/O to the scan while forwarding spans to (and taking
//!   its access classification from) the query-level tracker.
//!
//! Row/batch/time observation happens at the *edges* of the tree: the
//! planner boxes every parent→child edge in a [`ProfiledOp`] whose
//! `next` wraps the child's with a monotonic span and books the returned
//! batch as the child's output and the parent's input. Operators stay
//! oblivious to their own wall time; what they contribute directly are
//! morsel counts and strategy annotations at the decision points that
//! were previously silent (radix vs partial-merge aggregation,
//! partitioned vs single join build, sandwich group short-circuits,
//! streaming-scan path and buffer occupancy).
//!
//! Profiling never changes results: trackers forward to the same roots,
//! wrappers pass batches through untouched, and a disabled profiler
//! allocates nothing and wraps nothing — `tests/profile_invariants.rs`
//! pins both properties.
//!
//! [`QueryContext::with_profiling`]: crate::planner::QueryContext::with_profiling

use std::sync::{Arc, Mutex};

use bdcc_obs::{OpMetrics, ProfileNode, QueryProfile, SpanTimer};
use bdcc_storage::{IoStats, IoTracker};

use crate::batch::{Batch, OpSchema};
use crate::error::Result;
use crate::memory::MemoryTracker;
use crate::ops::{BoxedOp, Operator};

/// Live profile node for one plan operator: its metric block, its child
/// memory tracker, its I/O attribution (leaves only), and the child
/// nodes — the tree the planner mirrors off the physical plan.
#[derive(Debug)]
pub struct OpProf {
    /// Operator label, e.g. `Aggregate(parallel)` or `Scan(lineitem)`.
    pub label: String,
    pub metrics: Arc<OpMetrics>,
    /// Child of the query tracker: operator peak, forwarded to the query
    /// total (so per-operator peak ≤ query peak holds structurally).
    pub tracker: Arc<MemoryTracker>,
    /// Child of the query I/O tracker (scan leaves and fragment-fused
    /// aggregates; `None` for operators that never touch storage).
    pub io: Option<IoTracker>,
    pub children: Vec<Arc<OpProf>>,
}

impl OpProf {
    /// Freeze the live readings into a [`ProfileNode`] subtree.
    pub fn freeze(&self) -> ProfileNode {
        let children = self.children.iter().map(|c| c.freeze()).collect();
        let mut node = ProfileNode::from_metrics(self.label.clone(), &self.metrics, children);
        node.peak_memory = self.tracker.peak();
        if let Some(io) = &self.io {
            let stats = io.stats();
            node.io_bytes = stats.bytes_read;
            node.io_random_seeks = stats.random_seeks;
            node.io_sequential = stats.sequential_accesses;
        }
        node
    }
}

/// The per-query profile collector: a shared slot the planner stores the
/// root [`OpProf`] into and the runner harvests after execution.
/// `Clone` shares the slot (it rides inside the cloneable `QueryContext`).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    root: Arc<Mutex<Option<Arc<OpProf>>>>,
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Install the root node (called by `plan_query` once the tree is
    /// built; replanning with the same context replaces it).
    pub fn set_root(&self, root: Arc<OpProf>) {
        *self.root.lock().expect("profiler root poisoned") = Some(root);
    }

    pub fn root(&self) -> Option<Arc<OpProf>> {
        self.root.lock().expect("profiler root poisoned").clone()
    }

    /// Harvest the finished query into a [`QueryProfile`]. The caller
    /// supplies the query-level roll-ups (wall time, tracker peak, I/O
    /// stats, pool-counter deltas) — the profiler only owns the tree.
    /// `None` when no plan was profiled.
    pub fn finalize(
        &self,
        wall_nanos: u64,
        peak_memory: u64,
        io: &IoStats,
        pool: Vec<(String, u64)>,
    ) -> Option<QueryProfile> {
        let root = self.root()?;
        Some(QueryProfile {
            root: root.freeze(),
            wall_nanos,
            peak_memory,
            io_bytes: io.bytes_read,
            io_random_seeks: io.random_seeks,
            io_sequential: io.sequential_accesses,
            pool,
        })
    }
}

/// The parent→child edge wrapper: times the child's `next` calls and
/// books every returned batch as the child's output and the parent's
/// input (the root edge has no parent). Batches pass through untouched.
pub struct ProfiledOp {
    inner: BoxedOp,
    own: Arc<OpMetrics>,
    parent: Option<Arc<OpMetrics>>,
}

impl ProfiledOp {
    /// Wrap `inner`, boxed and ready to splice into the operator tree.
    pub fn boxed(inner: BoxedOp, own: Arc<OpMetrics>, parent: Option<Arc<OpMetrics>>) -> BoxedOp {
        Box::new(ProfiledOp { inner, own, parent })
    }
}

impl Operator for ProfiledOp {
    fn schema(&self) -> &OpSchema {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let span = SpanTimer::start();
        let out = self.inner.next();
        let nanos = span.elapsed_nanos();
        self.own.wall_nanos.add(nanos);
        self.own.next_nanos.record(nanos);
        if let Ok(Some(batch)) = &out {
            let rows = batch.rows() as u64;
            self.own.batches_out.add(1);
            self.own.rows_out.add(rows);
            if let Some(parent) = &self.parent {
                parent.batches_in.add(1);
                parent.rows_in.add(rows);
            }
        }
        out
    }
}

/// Box `op` in the [`ProfiledOp`] edge between `child` and `parent`
/// profile nodes; identity when the subtree is unprofiled.
pub fn wrap_edge(
    op: BoxedOp,
    child: &Option<Arc<OpProf>>,
    parent: &Option<Arc<OpProf>>,
) -> BoxedOp {
    match child {
        Some(c) => ProfiledOp::boxed(
            op,
            Arc::clone(&c.metrics),
            parent.as_ref().map(|p| Arc::clone(&p.metrics)),
        ),
        None => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::Column;

    struct TwoBatches {
        schema: OpSchema,
        left: usize,
    }

    impl Operator for TwoBatches {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            if self.left == 0 {
                return Ok(None);
            }
            self.left -= 1;
            Ok(Some(Batch::new(vec![Column::from_i64(vec![1, 2, 3])])))
        }
    }

    fn two_batches() -> BoxedOp {
        let schema = vec![crate::batch::ColMeta::new("x", bdcc_storage::DataType::Int)];
        Box::new(TwoBatches { schema, left: 2 })
    }

    #[test]
    fn edge_books_child_out_and_parent_in() {
        let child = OpMetrics::new();
        let parent = OpMetrics::new();
        let wrapped =
            ProfiledOp::boxed(two_batches(), Arc::clone(&child), Some(Arc::clone(&parent)));
        let out = collect(wrapped).unwrap();
        assert_eq!(out.rows(), 6);
        assert_eq!(child.batches_out.get(), 2);
        assert_eq!(child.rows_out.get(), 6);
        assert_eq!(parent.batches_in.get(), 2);
        assert_eq!(parent.rows_in.get(), 6);
        // Three next() calls (two batches + the terminal None) were timed.
        assert_eq!(child.next_nanos.count(), 3);
    }

    #[test]
    fn freeze_copies_tracker_and_io_readings() {
        let query_tracker = MemoryTracker::new();
        let query_io = IoTracker::new();
        let prof = OpProf {
            label: "Scan(t)".into(),
            metrics: OpMetrics::new(),
            tracker: MemoryTracker::child_of(&query_tracker),
            io: Some(query_io.child()),
            children: vec![],
        };
        let _g = prof.tracker.register(512);
        prof.io.as_ref().unwrap().record_span(1, 0, 4095);
        let node = prof.freeze();
        assert_eq!(node.peak_memory, 512);
        assert_eq!(node.io_bytes, 4096);
        // Both readings forwarded to the query-level roots too.
        assert_eq!(query_tracker.peak(), 512);
        assert_eq!(query_io.stats().bytes_read, 4096);
    }

    #[test]
    fn finalize_requires_a_root() {
        let p = Profiler::new();
        assert!(p.finalize(1, 2, &IoStats::default(), vec![]).is_none());
        p.set_root(Arc::new(OpProf {
            label: "Limit".into(),
            metrics: OpMetrics::new(),
            tracker: MemoryTracker::new(),
            io: None,
            children: vec![],
        }));
        let q = p.finalize(7, 9, &IoStats::default(), vec![("jobs".into(), 3)]).unwrap();
        assert_eq!(q.wall_nanos, 7);
        assert_eq!(q.peak_memory, 9);
        assert_eq!(q.pool, vec![("jobs".to_string(), 3)]);
        assert_eq!(q.root.label, "Limit");
    }
}
