//! Query-memory accounting.
//!
//! Figure 3 of the paper compares *memory usage* per query across the
//! Plain/PK/BDCC schemes: the dominant consumers are hash-join build tables
//! and aggregation hash tables. Operators register their materializations
//! with a shared [`MemoryTracker`]; the tracker keeps the running total and
//! the peak, which is what the figure reports.
//!
//! The tracker is thread-shared (atomics behind an `Arc`): streaming
//! parallel operators register from *worker* threads and release from the
//! *consumer* — a streaming [`Scan`](crate::ops::scan::Scan) worker
//! registers each morsel's batches as it publishes them into the reorder
//! buffer and hands the [`MemoryGuard`] across the channel, so the guard
//! drops (and the bytes release) only once the consumer moves past the
//! morsel. With the scan's bounded in-flight cap, tracked peak for a scan
//! is O(threads × morsel) rather than O(table), which is exactly what
//! `tests/parallel_equivalence.rs` asserts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared memory accounting for one query execution.
///
/// Trackers form an optional tree: profiling gives every plan operator a
/// [`child_of`](Self::child_of) tracker whose grow/shrink forwards to the
/// query-level parent, so the query total is unchanged while each
/// operator also sees its own current/peak. Per-operator peak ≤ query
/// peak holds structurally: every child byte is a parent byte.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    current: AtomicU64,
    peak: AtomicU64,
    parent: Option<Arc<MemoryTracker>>,
}

impl MemoryTracker {
    /// A fresh tracker.
    pub fn new() -> Arc<MemoryTracker> {
        Arc::new(MemoryTracker::default())
    }

    /// A tracker that also forwards every grow/shrink to `parent`
    /// (recursively, if `parent` itself has a parent).
    pub fn child_of(parent: &Arc<MemoryTracker>) -> Arc<MemoryTracker> {
        Arc::new(MemoryTracker {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            parent: Some(Arc::clone(parent)),
        })
    }

    /// Register `bytes` of newly materialized state; returns a guard that
    /// releases them when dropped.
    pub fn register(self: &Arc<Self>, bytes: u64) -> MemoryGuard {
        self.grow(bytes);
        MemoryGuard { tracker: Arc::clone(self), bytes }
    }

    /// Grow the current usage (use [`register`](Self::register) when the
    /// lifetime maps to a scope).
    pub fn grow(&self, bytes: u64) {
        // Parent first (and `shrink` releases it last): a byte is then the
        // parent's for as long as it is the child's, so child peak ≤ parent
        // peak also holds when threads grow and shrink one child at once.
        if let Some(parent) = &self.parent {
            parent.grow(bytes);
        }
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Shrink the current usage. Saturates at zero rather than wrapping:
    /// a release larger than the current total would otherwise poison
    /// every later reading with a number near `u64::MAX`. The
    /// `debug_assert` makes the double-release loud in debug builds.
    pub fn shrink(&self, bytes: u64) {
        let prev = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_sub(bytes)))
            .unwrap_or(0);
        debug_assert!(
            prev >= bytes,
            "MemoryTracker::shrink({bytes}) exceeds current {prev} — double release?"
        );
        if let Some(parent) = &self.parent {
            parent.shrink(bytes);
        }
    }

    /// Current bytes registered.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak bytes since creation (or the last [`reset`](Self::reset)).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset both counters (between queries).
    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// RAII guard for a tracked allocation. Its `bytes` can be grown while the
/// owning state grows (e.g. a hash table being built).
#[derive(Debug)]
pub struct MemoryGuard {
    tracker: Arc<MemoryTracker>,
    bytes: u64,
}

impl MemoryGuard {
    /// Grow this allocation by `more` bytes.
    pub fn grow(&mut self, more: u64) {
        self.bytes += more;
        self.tracker.grow(more);
    }

    /// Replace the tracked size (e.g. when rebuilding per group).
    pub fn resize(&mut self, bytes: u64) {
        if bytes > self.bytes {
            self.tracker.grow(bytes - self.bytes);
        } else {
            self.tracker.shrink(self.bytes - bytes);
        }
        self.bytes = bytes;
    }

    /// Currently tracked bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemoryGuard {
    fn drop(&mut self) {
        self.tracker.shrink(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_maximum() {
        let t = MemoryTracker::new();
        {
            let _a = t.register(100);
            {
                let _b = t.register(50);
                assert_eq!(t.current(), 150);
            }
            assert_eq!(t.current(), 100);
        }
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 150);
    }

    #[test]
    fn guard_grow_and_resize() {
        let t = MemoryTracker::new();
        let mut g = t.register(10);
        g.grow(30);
        assert_eq!(t.current(), 40);
        g.resize(5);
        assert_eq!(t.current(), 5);
        assert_eq!(t.peak(), 40);
        drop(g);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn child_forwards_to_parent() {
        let query = MemoryTracker::new();
        let op_a = MemoryTracker::child_of(&query);
        let op_b = MemoryTracker::child_of(&query);
        let ga = op_a.register(100);
        {
            let _gb = op_b.register(60);
            assert_eq!(query.current(), 160);
        }
        drop(ga);
        assert_eq!(query.current(), 0);
        assert_eq!(query.peak(), 160);
        // Each operator sees only its own allocations…
        assert_eq!(op_a.peak(), 100);
        assert_eq!(op_b.peak(), 60);
        // …and can never exceed the query peak.
        assert!(op_a.peak() <= query.peak() && op_b.peak() <= query.peak());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn shrink_saturates_instead_of_wrapping() {
        let t = MemoryTracker::new();
        t.grow(10);
        t.shrink(25);
        assert_eq!(t.current(), 0, "over-release must saturate, not wrap");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn shrink_underflow_is_loud_in_debug() {
        let t = MemoryTracker::new();
        t.grow(10);
        t.shrink(25);
    }

    #[test]
    fn reset_clears_counters() {
        let t = MemoryTracker::new();
        t.grow(42);
        t.reset();
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 0);
    }
}
