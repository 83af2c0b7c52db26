//! I/O accounting and the device cost model.
//!
//! The paper's Algorithm 1 tunes the count-table granularity against the
//! *efficient random access size* `AR`: the request size at which random
//! reads approach sequential throughput (§III — "a few MB for magnetic
//! disks, for Flash devices just 32KB"). Our tables live in memory, so we
//! model the disk instead of touching one: scans report the byte spans of
//! each column they read, and the tracker keeps, per column, the set of
//! read intervals. Every byte is charged **once per query** (a warm buffer
//! pool within one cold run) and every discontinuity counts as a seek, so:
//!
//! * selection pushdown (skipping blocks/groups) directly reduces bytes,
//! * scatter-scan reordering costs seeks but never re-reads,
//! * [`DeviceProfile::estimate_seconds`] converts both into a cold-read
//!   time estimate.
//!
//! Byte granularity rather than page granularity keeps the model faithful
//! at laptop scale factors, where BDCC groups are far smaller than the
//! 32 KB pages the paper's SF100 groups were tuned to (at SF100 the two
//! coincide, since Algorithm 1 sizes groups to at least `AR`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Logical page size in bytes (the paper's evaluation uses 32 KB pages);
/// the default access range `AR` that Algorithm 1 sizes groups against.
pub const PAGE_SIZE: usize = 32 * 1024;

/// Whether an access continued the previous run or seeked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Sequential,
    Random,
}

/// Device characteristics used to turn byte counts into time estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Sequential throughput in bytes/second.
    pub seq_bytes_per_sec: f64,
    /// Cost of one random seek in seconds.
    pub seek_seconds: f64,
    /// Efficient random access size `AR` in bytes: a random read of at
    /// least this size runs at ~sequential efficiency.
    pub efficient_random_access: usize,
}

impl DeviceProfile {
    /// The paper's SSD RAID: 1 GB/s sequential, AR = 32 KB (flash, per
    /// ref \[5\]). The seek cost is *defined by AR*: a random read of AR
    /// bytes achieves ~80% of sequential throughput, i.e.
    /// `seek = 0.25 · AR / seq_rate` ≈ 8 µs.
    pub fn ssd_raid() -> DeviceProfile {
        DeviceProfile::from_ar(1_000_000_000.0, 32 * 1024)
    }

    /// A magnetic disk: 150 MB/s sequential, AR = 2 MB (seek ≈ 3.3 ms by
    /// the same 80%-efficiency definition).
    pub fn magnetic() -> DeviceProfile {
        DeviceProfile::from_ar(150_000_000.0, 2 * 1024 * 1024)
    }

    /// Build a profile from sequential rate and efficient random access
    /// size, deriving the seek cost from the paper's AR definition
    /// ("random reads approach the efficiency of sequential reads … e.g.
    /// such that throughput is 80% of sequential throughput").
    pub fn from_ar(seq_bytes_per_sec: f64, ar: usize) -> DeviceProfile {
        DeviceProfile {
            seq_bytes_per_sec,
            seek_seconds: 0.25 * ar as f64 / seq_bytes_per_sec,
            efficient_random_access: ar,
        }
    }

    /// Estimated seconds to read `stats` cold from this device.
    pub fn estimate_seconds(&self, stats: &IoStats) -> f64 {
        stats.bytes_read as f64 / self.seq_bytes_per_sec
            + stats.random_seeks as f64 * self.seek_seconds
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::ssd_raid()
    }
}

/// Aggregated access counts for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Distinct bytes read across all columns.
    pub bytes_read: u64,
    /// Accesses that started with a seek (first access of each column
    /// included).
    pub random_seeks: u64,
    /// Accesses that continued the previous run.
    pub sequential_accesses: u64,
}

impl IoStats {
    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.bytes_read += other.bytes_read;
        self.random_seeks += other.random_seeks;
        self.sequential_accesses += other.sequential_accesses;
    }
}

#[derive(Debug, Default)]
struct ColumnState {
    /// Sorted, disjoint byte intervals `[lo, hi]` already read.
    intervals: Vec<(u64, u64)>,
    /// Byte position after the most recent access.
    cursor: u64,
    touched: bool,
}

impl ColumnState {
    /// Insert `[lo, hi]`, returning the number of newly read bytes.
    fn insert(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        // Find overlap window. `saturating_add` on both bounds: an interval
        // (or request) ending at `u64::MAX` must not wrap to 0 and be
        // skipped (or terminate the scan early) — it is adjacent to nothing
        // above it, which saturation models exactly.
        let start = self.intervals.partition_point(|&(_, ihi)| ihi.saturating_add(1) < lo);
        let mut new_lo = lo;
        let mut new_hi = hi;
        let mut covered: u64 = 0;
        let mut end = start;
        while end < self.intervals.len() && self.intervals[end].0 <= hi.saturating_add(1) {
            let (ilo, ihi) = self.intervals[end];
            // Bytes of [lo, hi] already covered by this interval.
            let olo = ilo.max(lo);
            let ohi = ihi.min(hi);
            if olo <= ohi {
                covered += ohi - olo + 1;
            }
            new_lo = new_lo.min(ilo);
            new_hi = new_hi.max(ihi);
            end += 1;
        }
        let added = (hi - lo + 1) - covered;
        self.intervals.splice(start..end, [(new_lo, new_hi)]);
        added
    }
}

/// Aggregate counters, kept in atomics so concurrent scan workers update
/// them lock-free and [`IoTracker::stats`] never contends with readers.
#[derive(Debug, Default)]
struct AtomicStats {
    bytes_read: AtomicU64,
    random_seeks: AtomicU64,
    sequential_accesses: AtomicU64,
}

#[derive(Debug, Default)]
struct TrackerInner {
    /// Per-column interval state, **sorted by column key** so
    /// [`IoTracker::record_span`] can binary-search under the mutex
    /// instead of scanning every column (queries over wide schemes and
    /// spill files can accumulate thousands of keys).
    columns: Vec<(u64, ColumnState)>,
}

/// Shared, thread-safe I/O accounting for one query execution. Cloning is
/// cheap and clones share state. The per-column interval sets (which
/// deduplicate re-reads) live under a mutex; the aggregate counters are
/// atomics.
///
/// The sequential/random *classification* uses one cursor per column, so
/// it depends on the order spans arrive in. Work running concurrently
/// records on [`deferred`](Self::deferred) trackers instead, replayed in a
/// fixed order, so the counts do not depend on how workers interleave.
#[derive(Debug, Clone, Default)]
pub struct IoTracker {
    stats: Arc<AtomicStats>,
    inner: Arc<Mutex<TrackerInner>>,
    /// When set, every recorded span is forwarded to this tracker and the
    /// *parent's* classification is the one returned (see [`child`]).
    ///
    /// [`child`]: Self::child
    parent: Option<Box<IoTracker>>,
    /// A deferred tracker's spans, `[column key, first byte, last byte]`
    /// in record order.
    log: Option<Arc<Mutex<Vec<[u64; 3]>>>>,
}

impl IoTracker {
    /// A fresh tracker with zeroed counters.
    pub fn new() -> IoTracker {
        IoTracker::default()
    }

    /// A tracker that records into its own counters *and* forwards every
    /// span to `self` (recursively, if `self` is itself a child), so I/O
    /// can be attributed per-operator while the query-level interval sets
    /// stay authoritative. [`record_span`](Self::record_span) on a child
    /// returns the *root* tracker's classification, so code paths that
    /// branch on [`AccessKind`] behave identically whether they record
    /// into the query tracker or a per-operator child.
    pub fn child(&self) -> IoTracker {
        IoTracker {
            stats: Arc::default(),
            inner: Arc::default(),
            parent: Some(Box::new(self.clone())),
            log: None,
        }
    }

    /// A tracker that only logs the spans recorded on it, unclassified
    /// (each answered as [`AccessKind::Random`]), until
    /// [`replay_into`](Self::replay_into) books them on another: a morsel's
    /// reads, booked in morsel order however the workers ran.
    pub fn deferred() -> IoTracker {
        IoTracker { log: Some(Arc::default()), ..IoTracker::default() }
    }

    /// Record every span logged on this deferred tracker on `target`, in
    /// record order, and empty the log.
    pub fn replay_into(&self, target: &IoTracker) {
        let log = self.log.as_ref().expect("a deferred tracker");
        let spans = std::mem::take(&mut *log.lock().expect("io log poisoned"));
        for [key, first, last] in spans {
            target.record_span(key, first, last);
        }
    }

    /// Record a read of bytes `[first_byte, last_byte]` of the column
    /// identified by `column_key` (any stable hash of table+column).
    /// Returns the access classification.
    pub fn record_span(&self, column_key: u64, first_byte: u64, last_byte: u64) -> AccessKind {
        debug_assert!(first_byte <= last_byte);
        if let Some(log) = &self.log {
            log.lock().expect("io log poisoned").push([column_key, first_byte, last_byte]);
            return AccessKind::Random;
        }
        let mut inner = self.inner.lock().expect("io tracker poisoned");
        // `columns` stays sorted by key: O(log n) lookup while holding the
        // mutex, with a sorted insert on first touch of a column.
        let idx = match inner.columns.binary_search_by_key(&column_key, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                inner.columns.insert(i, (column_key, ColumnState::default()));
                i
            }
        };
        let state = &mut inner.columns[idx].1;
        let added = state.insert(first_byte, last_byte);
        // Sequential = forward continuation from the head (possibly
        // overlapping the last span), or a read fully served from already-
        // read bytes (buffer pool, no physical I/O). Everything else —
        // forward jumps, backward jumps with new bytes, and the first
        // access of a column — seeks.
        let forward_continuation = state.touched
            && first_byte <= state.cursor.saturating_add(1)
            && last_byte > state.cursor;
        let kind = if forward_continuation || (state.touched && added == 0) {
            AccessKind::Sequential
        } else {
            AccessKind::Random
        };
        state.cursor = last_byte;
        state.touched = true;
        drop(inner);
        self.stats.bytes_read.fetch_add(added, Ordering::Relaxed);
        match kind {
            AccessKind::Sequential => {
                self.stats.sequential_accesses.fetch_add(1, Ordering::Relaxed)
            }
            AccessKind::Random => self.stats.random_seeks.fetch_add(1, Ordering::Relaxed),
        };
        match &self.parent {
            Some(parent) => parent.record_span(column_key, first_byte, last_byte),
            None => kind,
        }
    }

    /// Snapshot of the counters so far.
    pub fn stats(&self) -> IoStats {
        IoStats {
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            random_seeks: self.stats.random_seeks.load(Ordering::Relaxed),
            sequential_accesses: self.stats.sequential_accesses.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters and interval sets (between queries).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("io tracker poisoned");
        inner.columns.clear();
        drop(inner);
        self.stats.bytes_read.store(0, Ordering::Relaxed);
        self.stats.random_seeks.store(0, Ordering::Relaxed);
        self.stats.sequential_accesses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_bytes_charged_once() {
        let t = IoTracker::new();
        assert_eq!(t.record_span(1, 0, 99), AccessKind::Random);
        assert_eq!(t.record_span(1, 100, 199), AccessKind::Sequential);
        assert_eq!(t.stats().bytes_read, 200);
        // Overlapping forward re-read adds only the new tail.
        assert_eq!(t.record_span(1, 150, 249), AccessKind::Sequential);
        assert_eq!(t.stats().bytes_read, 250);
        // Fully covered re-read is free.
        t.record_span(1, 0, 249);
        assert_eq!(t.stats().bytes_read, 250);
    }

    #[test]
    fn scatter_order_reads_each_byte_once() {
        let t = IoTracker::new();
        // Groups read out of order: every byte still counted once, but the
        // backward jump costs a seek.
        assert_eq!(t.record_span(1, 200, 299), AccessKind::Random);
        assert_eq!(t.record_span(1, 0, 99), AccessKind::Random);
        assert_eq!(t.record_span(1, 100, 199), AccessKind::Sequential);
        let s = t.stats();
        assert_eq!(s.bytes_read, 300);
        assert_eq!(s.random_seeks, 2);
        assert_eq!(s.sequential_accesses, 1);
    }

    #[test]
    fn columns_are_tracked_independently() {
        let t = IoTracker::new();
        t.record_span(1, 0, 9);
        assert_eq!(t.record_span(2, 0, 9), AccessKind::Random);
        assert_eq!(t.record_span(1, 10, 19), AccessKind::Sequential);
        assert_eq!(t.stats().bytes_read, 30);
    }

    #[test]
    fn reset_clears_everything() {
        let t = IoTracker::new();
        t.record_span(1, 0, 9);
        t.reset();
        assert_eq!(t.stats(), IoStats::default());
        assert_eq!(t.record_span(1, 10, 10), AccessKind::Random);
    }

    #[test]
    fn deferred_spans_replay_as_a_serial_walk_books_them() {
        // Two morsels over one column, read out of order (the second
        // first), then replayed in morsel order: the counts of one walk.
        let spans = [(0, 99), (100, 199), (200, 299), (300, 399)];
        let serial = IoTracker::new();
        for &(a, b) in &spans {
            serial.record_span(1, a, b);
        }
        let morsels = [IoTracker::deferred(), IoTracker::deferred()];
        for m in [1, 0] {
            for &(a, b) in &spans[2 * m..2 * m + 2] {
                morsels[m].record_span(1, a, b);
            }
        }
        assert_eq!(morsels[0].stats(), IoStats::default(), "a deferred tracker only logs");
        let query = IoTracker::new();
        morsels.iter().for_each(|m| m.replay_into(&query));
        assert_eq!(query.stats(), serial.stats());
        assert_eq!(query.stats().random_seeks, 1);
        morsels[0].replay_into(&query);
        assert_eq!(query.stats(), serial.stats(), "a replay empties the log");
    }

    #[test]
    fn child_attributes_and_forwards() {
        let query = IoTracker::new();
        // The query tracker has seen the column's prefix already…
        query.record_span(1, 0, 99);
        let scan = query.child();
        // …so the child's first span, while locally a cold first access,
        // must classify exactly as the query tracker would (sequential
        // continuation), keeping profiled behavior byte-identical.
        assert_eq!(scan.record_span(1, 100, 199), AccessKind::Sequential);
        // The child attributes its own bytes; the query stays deduped.
        assert_eq!(scan.stats().bytes_read, 100);
        assert_eq!(query.stats().bytes_read, 200);
        // A re-read through another child adds nothing at query level.
        let scan2 = query.child();
        scan2.record_span(1, 0, 199);
        assert_eq!(scan2.stats().bytes_read, 200);
        assert_eq!(query.stats().bytes_read, 200);
    }

    #[test]
    fn interval_merging() {
        let mut c = ColumnState::default();
        assert_eq!(c.insert(10, 19), 10);
        assert_eq!(c.insert(30, 39), 10);
        assert_eq!(c.insert(15, 34), 10); // bridges the two
        assert_eq!(c.intervals, vec![(10, 39)]);
        assert_eq!(c.insert(0, 50), 21);
        assert_eq!(c.intervals, vec![(0, 50)]);
        assert_eq!(c.insert(20, 30), 0);
    }

    #[test]
    fn interval_at_u64_max_does_not_overflow() {
        // An interval ending at `u64::MAX` used to overflow `ihi + 1` in
        // the partition-point closure; both bounds now saturate.
        let mut c = ColumnState::default();
        assert_eq!(c.insert(u64::MAX - 9, u64::MAX), 10);
        // Re-reading the tail is free, and the adjacency probe below the
        // top interval must still find it (no wrap to 0).
        assert_eq!(c.insert(u64::MAX, u64::MAX), 0);
        assert_eq!(c.insert(u64::MAX - 19, u64::MAX - 10), 10);
        assert_eq!(c.intervals, vec![(u64::MAX - 19, u64::MAX)]);
        // A request ending at `u64::MAX` merges with everything it touches.
        let mut c = ColumnState::default();
        c.insert(0, 9);
        assert_eq!(c.insert(5, u64::MAX), u64::MAX - 9);
        assert_eq!(c.intervals, vec![(0, u64::MAX)]);
        // Through the tracker: the whole-address-space span charges once.
        let t = IoTracker::new();
        assert_eq!(t.record_span(1, u64::MAX - 1, u64::MAX), AccessKind::Random);
        assert_eq!(t.record_span(1, u64::MAX - 1, u64::MAX), AccessKind::Sequential);
        assert_eq!(t.stats().bytes_read, 2);
    }

    #[test]
    fn many_columns_stay_sorted_and_deduped() {
        // Regression for the linear `position` scan: keys arrive in a
        // scrambled order and the map must stay sorted (the invariant the
        // O(log n) lookup depends on) while every span still dedupes into
        // the right column's interval set.
        let t = IoTracker::new();
        let n = 4096u64;
        for i in 0..n {
            let key = (i * 2654435761) % n; // scrambled arrival order
            t.record_span(key, 0, 7);
            t.record_span(key, 0, 7); // re-read: must hit the same state
        }
        let inner = t.inner.lock().unwrap();
        assert_eq!(inner.columns.len(), n as usize);
        assert!(
            inner.columns.windows(2).all(|w| w[0].0 < w[1].0),
            "columns must stay sorted by key for binary search"
        );
        drop(inner);
        assert_eq!(t.stats().bytes_read, n * 8, "each column's bytes charged exactly once");
    }

    #[test]
    fn pages_and_estimates() {
        let mut stats = IoStats { bytes_read: PAGE_SIZE as u64 + 1, ..IoStats::default() };
        stats.random_seeks = 10;
        let d = DeviceProfile::ssd_raid();
        let secs = d.estimate_seconds(&stats);
        let expected = (PAGE_SIZE as f64 + 1.0) / 1e9 + 10.0 * d.seek_seconds;
        assert!((secs - expected).abs() < 1e-12);
        // AR-consistency: an AR-sized random read runs at 80% efficiency.
        let ar_read = IoStats {
            bytes_read: d.efficient_random_access as u64,
            random_seeks: 1,
            sequential_accesses: 0,
        };
        let seq_time = d.efficient_random_access as f64 / d.seq_bytes_per_sec;
        assert!((d.estimate_seconds(&ar_read) / seq_time - 1.25).abs() < 1e-9);
        assert!(DeviceProfile::magnetic().estimate_seconds(&stats) > secs);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IoStats { bytes_read: 1, random_seeks: 0, sequential_accesses: 1 };
        a.merge(&IoStats { bytes_read: 2, random_seeks: 2, sequential_accesses: 0 });
        assert_eq!(a, IoStats { bytes_read: 3, random_seeks: 2, sequential_accesses: 1 });
    }
}
