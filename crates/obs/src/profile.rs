//! The query-profile data model: live per-operator metric blocks
//! ([`OpMetrics`]), the frozen per-operator tree they are harvested into
//! ([`ProfileNode`]), and the query-level roll-up ([`QueryProfile`]) with
//! its two renderers — the human-readable `EXPLAIN ANALYZE` tree and the
//! stable JSON export.
//!
//! This crate deliberately knows nothing about operators, trackers or
//! pools: the executor owns the live handles (memory tracker, I/O
//! tracker, pool-stats deltas) and copies their final readings into
//! [`ProfileNode`]/[`QueryProfile`] when a query finishes.

use std::sync::{Arc, Mutex};

use crate::json::{Arr, Obj};
use crate::metrics::{Counter, LogHistogram, MaxGauge};

/// Live metric block for one plan operator, shared between the operator
/// and the edge wrappers that observe its inputs and output.
///
/// All fields are relaxed atomics (see the crate overhead contract);
/// `annotations` is the one mutex-guarded member, written only at
/// strategy-decision points (once or twice per operator per query), never
/// in a hot loop.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Wall nanoseconds spent inside this operator's `next` calls,
    /// including its children (exclusive time is derived at render).
    pub wall_nanos: Counter,
    /// Batches / rows pulled from all children.
    pub batches_in: Counter,
    pub rows_in: Counter,
    /// Batches / rows returned to the parent.
    pub batches_out: Counter,
    pub rows_out: Counter,
    /// Morsels executed on the worker pool for this operator, and the
    /// rows those morsels covered.
    pub morsels: Counter,
    pub morsel_rows: Counter,
    /// High-water mark of the streaming reorder buffer (batches), for
    /// operators that use one.
    pub occupancy_hwm: MaxGauge,
    /// Scan blocks skipped by MinMax pruning.
    pub blocks_skipped: Counter,
    /// Scan blocks the encoded-path kernel eliminated without evaluating a
    /// single row (dictionary miss or constant-block stats).
    pub enc_skipped: Counter,
    /// Out-of-core activity (spill-capable operators of a query that
    /// spills): partitions frozen to temp files, bytes written to them,
    /// and bytes read back during restore.
    pub spill_partitions: Counter,
    pub spill_bytes: Counter,
    pub spill_restore_bytes: Counter,
    /// Latency distribution of this operator's `next` calls.
    pub next_nanos: LogHistogram,
    /// Latency distribution of this operator's pool morsels.
    pub morsel_nanos: LogHistogram,
    annotations: Mutex<Vec<(String, String)>>,
}

impl OpMetrics {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record a strategy decision or estimate (e.g. `spill=no`,
    /// `est_groups_per_morsel=3.1`). Re-annotating a key replaces its
    /// value; first-insertion order is preserved.
    pub fn annotate(&self, key: &str, value: impl Into<String>) {
        let value = value.into();
        let mut anns = self.annotations.lock().unwrap();
        if let Some(slot) = anns.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            anns.push((key.to_string(), value));
        }
    }

    pub fn annotations(&self) -> Vec<(String, String)> {
        self.annotations.lock().unwrap().clone()
    }
}

/// Frozen measurements of one operator, plus its children: one node of
/// the `EXPLAIN ANALYZE` tree.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Operator label, e.g. `Aggregate(parallel)` or `Scan(lineitem)`.
    pub label: String,
    pub wall_nanos: u64,
    pub batches_in: u64,
    pub rows_in: u64,
    pub batches_out: u64,
    pub rows_out: u64,
    pub morsels: u64,
    pub morsel_rows: u64,
    pub occupancy_hwm: u64,
    /// Scan blocks skipped by MinMax pruning / by the encoded-path kernel
    /// without row evaluation (dict miss, constant-block stats).
    pub blocks_skipped: u64,
    pub enc_skipped: u64,
    /// Out-of-core activity: partitions frozen to temp files, bytes
    /// written, bytes restored.
    pub spill_partitions: u64,
    pub spill_bytes: u64,
    pub spill_restore_bytes: u64,
    /// Peak memory tracked by this operator's (and its descendants')
    /// allocations, bytes.
    pub peak_memory: u64,
    /// I/O attributed to this subtree (normally only `Scan` leaves are
    /// nonzero).
    pub io_bytes: u64,
    pub io_random_seeks: u64,
    pub io_sequential: u64,
    /// Strategy decisions and estimates, in decision order.
    pub annotations: Vec<(String, String)>,
    /// `next` latency histogram: `(inclusive upper bound nanos, count)`.
    pub next_nanos: Vec<(u64, u64)>,
    /// Morsel latency histogram, same encoding.
    pub morsel_nanos: Vec<(u64, u64)>,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Copy the final readings of a live metric block into a frozen node.
    /// The caller supplies tracker-derived values (`peak_memory`, I/O)
    /// since this crate holds no tracker handles.
    pub fn from_metrics(label: String, m: &OpMetrics, children: Vec<ProfileNode>) -> Self {
        Self {
            label,
            wall_nanos: m.wall_nanos.get(),
            batches_in: m.batches_in.get(),
            rows_in: m.rows_in.get(),
            batches_out: m.batches_out.get(),
            rows_out: m.rows_out.get(),
            morsels: m.morsels.get(),
            morsel_rows: m.morsel_rows.get(),
            occupancy_hwm: m.occupancy_hwm.get(),
            blocks_skipped: m.blocks_skipped.get(),
            enc_skipped: m.enc_skipped.get(),
            spill_partitions: m.spill_partitions.get(),
            spill_bytes: m.spill_bytes.get(),
            spill_restore_bytes: m.spill_restore_bytes.get(),
            peak_memory: 0,
            io_bytes: 0,
            io_random_seeks: 0,
            io_sequential: 0,
            annotations: m.annotations(),
            next_nanos: m.next_nanos.snapshot(),
            morsel_nanos: m.morsel_nanos.snapshot(),
            children,
        }
    }

    /// Wall nanoseconds minus the children's wall nanoseconds: time
    /// attributable to this operator alone. Saturating, because with
    /// pipelined parallel children the inclusive times of parent and
    /// child overlap.
    pub fn exclusive_nanos(&self) -> u64 {
        self.wall_nanos.saturating_sub(self.children.iter().map(|c| c.wall_nanos).sum())
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        let (branch, cont) = if root {
            ("", "")
        } else if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&self.label);
        out.push_str(&format!(
            "  time={:.3}ms ({:.3}ms self)",
            self.wall_nanos as f64 / 1e6,
            self.exclusive_nanos() as f64 / 1e6
        ));
        out.push_str(&format!(
            "  rows={}\u{2192}{} batches={}\u{2192}{}",
            self.rows_in, self.rows_out, self.batches_in, self.batches_out
        ));
        if self.morsels > 0 {
            out.push_str(&format!("  morsels={} ({} rows)", self.morsels, self.morsel_rows));
        }
        if self.occupancy_hwm > 0 {
            out.push_str(&format!("  stream_hwm={}", self.occupancy_hwm));
        }
        if self.blocks_skipped > 0 || self.enc_skipped > 0 {
            out.push_str(&format!(
                "  skipped={} (enc {})",
                self.blocks_skipped + self.enc_skipped,
                self.enc_skipped
            ));
        }
        if self.spill_partitions > 0 {
            out.push_str(&format!(
                "  spilled={} parts ({} out, {} back)",
                self.spill_partitions,
                human_bytes(self.spill_bytes),
                human_bytes(self.spill_restore_bytes)
            ));
        }
        if self.peak_memory > 0 {
            out.push_str(&format!("  mem={}", human_bytes(self.peak_memory)));
        }
        if self.io_bytes > 0 {
            out.push_str(&format!(
                "  io={} ({} seq, {} rand)",
                human_bytes(self.io_bytes),
                self.io_sequential,
                self.io_random_seeks
            ));
        }
        if !self.annotations.is_empty() {
            let anns: Vec<String> =
                self.annotations.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("  [{}]", anns.join(" ")));
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{cont}");
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    /// Stable JSON: fixed key order, histograms as `[upper, count]`
    /// pairs, children recursively.
    pub fn to_json(&self) -> String {
        let mut children = Arr::new();
        for c in &self.children {
            children.push_raw(&c.to_json());
        }
        let mut anns = Obj::new();
        for (k, v) in &self.annotations {
            anns = anns.str(k, v);
        }
        Obj::new()
            .str("op", &self.label)
            .u64("wall_nanos", self.wall_nanos)
            .u64("self_nanos", self.exclusive_nanos())
            .u64("rows_in", self.rows_in)
            .u64("rows_out", self.rows_out)
            .u64("batches_in", self.batches_in)
            .u64("batches_out", self.batches_out)
            .u64("morsels", self.morsels)
            .u64("morsel_rows", self.morsel_rows)
            .u64("stream_hwm", self.occupancy_hwm)
            .u64("blocks_skipped", self.blocks_skipped)
            .u64("enc_skipped", self.enc_skipped)
            .u64("spill_partitions", self.spill_partitions)
            .u64("spill_bytes", self.spill_bytes)
            .u64("spill_restore_bytes", self.spill_restore_bytes)
            .u64("peak_memory", self.peak_memory)
            .u64("io_bytes", self.io_bytes)
            .u64("io_sequential", self.io_sequential)
            .u64("io_random_seeks", self.io_random_seeks)
            .raw("annotations", &anns.finish())
            .raw("next_nanos_hist", &hist_json(&self.next_nanos))
            .raw("morsel_nanos_hist", &hist_json(&self.morsel_nanos))
            .raw("children", &children.finish())
            .finish()
    }

    /// Depth-first walk over the tree (self included).
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a ProfileNode)) {
        visit(self);
        for c in &self.children {
            c.walk(visit);
        }
    }
}

/// A complete query profile: the operator tree plus query-level roll-ups
/// and pool telemetry, as collected by the executor's `QueryContext`.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    pub root: ProfileNode,
    /// End-to-end wall nanoseconds (plan + execute + collect).
    pub wall_nanos: u64,
    /// Query-level peak tracked memory, bytes.
    pub peak_memory: u64,
    /// Query-level I/O model counters.
    pub io_bytes: u64,
    pub io_random_seeks: u64,
    pub io_sequential: u64,
    /// Worker-pool telemetry for the query's span, as `(counter, delta)`
    /// pairs — e.g. `("jobs", 420)`, `("parks", 17)`.
    pub pool: Vec<(String, u64)>,
}

impl QueryProfile {
    /// Render the human-readable `EXPLAIN ANALYZE` tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query: time={:.3}ms mem={} io={} ({} seq, {} rand)\n",
            self.wall_nanos as f64 / 1e6,
            human_bytes(self.peak_memory),
            human_bytes(self.io_bytes),
            self.io_sequential,
            self.io_random_seeks
        ));
        if !self.pool.is_empty() {
            let cells: Vec<String> = self.pool.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("pool: {}\n", cells.join(" ")));
        }
        self.root.render_into(&mut out, "", true, true);
        out
    }

    /// Stable JSON export (same data as [`render`](Self::render)).
    pub fn to_json(&self) -> String {
        let mut pool = Obj::new();
        for (k, v) in &self.pool {
            pool = pool.u64(k, *v);
        }
        Obj::new()
            .u64("wall_nanos", self.wall_nanos)
            .u64("peak_memory", self.peak_memory)
            .u64("io_bytes", self.io_bytes)
            .u64("io_sequential", self.io_sequential)
            .u64("io_random_seeks", self.io_random_seeks)
            .raw("pool", &pool.finish())
            .raw("plan", &self.root.to_json())
            .finish()
    }
}

fn hist_json(hist: &[(u64, u64)]) -> String {
    let mut arr = Arr::new();
    for &(upper, count) in hist {
        arr.push_raw(&format!("[{upper},{count}]"));
    }
    arr.finish()
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, rows_out: u64) -> ProfileNode {
        ProfileNode { label: label.to_string(), rows_out, ..Default::default() }
    }

    #[test]
    fn annotate_replaces_and_preserves_order() {
        let m = OpMetrics::new();
        m.annotate("strategy", "radix");
        m.annotate("est", "3.5");
        m.annotate("strategy", "partial-merge");
        assert_eq!(
            m.annotations(),
            vec![
                ("strategy".to_string(), "partial-merge".to_string()),
                ("est".to_string(), "3.5".to_string()),
            ]
        );
    }

    #[test]
    fn render_draws_tree_branches() {
        let profile = QueryProfile {
            root: ProfileNode {
                label: "Join(hash)".into(),
                wall_nanos: 2_000_000,
                children: vec![leaf("Scan(a)", 10), leaf("Scan(b)", 20)],
                ..Default::default()
            },
            wall_nanos: 2_500_000,
            ..Default::default()
        };
        let text = profile.render();
        assert!(text.contains("Join(hash)"));
        assert!(text.contains("├─ Scan(a)"));
        assert!(text.contains("└─ Scan(b)"));
    }

    #[test]
    fn json_export_is_stable() {
        let profile = QueryProfile {
            root: ProfileNode {
                label: "Scan(t)".into(),
                rows_out: 5,
                annotations: vec![("path".into(), "serial".into())],
                ..Default::default()
            },
            ..Default::default()
        };
        let a = profile.to_json();
        let b = profile.to_json();
        assert_eq!(a, b);
        assert!(a.contains(r#""op":"Scan(t)""#));
        assert!(a.contains(r#""annotations":{"path":"serial"}"#));
    }

    #[test]
    fn exclusive_time_saturates() {
        let mut n = leaf("X", 0);
        n.wall_nanos = 10;
        n.children = vec![ProfileNode { wall_nanos: 25, ..leaf("Y", 0) }];
        assert_eq!(n.exclusive_nanos(), 0);
    }
}
