//! Roll an operator profile up into the fixed layer list.
//!
//! A layer is an engine module; the profile tree labels each operator, so
//! a node's self time (its wall minus its children's wall) is booked to
//! the layer its label names. `Aggregate(parallel)` is a fused leaf: the
//! scan, filter and projection its workers replay per morsel are inside
//! its self time, and stay in `agg`.

use crate::engine::ProfileNode;

/// The self-time metric of each layer, in reporting order.
pub const TIME_LAYERS: [&str; 9] = [
    "scan_self_ms",
    "filter_self_ms",
    "join_hash_self_ms",
    "join_sandwich_self_ms",
    "join_merge_self_ms",
    "agg_self_ms",
    "sort_self_ms",
    "project_self_ms",
    "other_self_ms",
];

const SCAN: usize = 0;
const FILTER: usize = 1;
const JOIN_HASH: usize = 2;
const JOIN_SANDWICH: usize = 3;
const JOIN_MERGE: usize = 4;
const AGG: usize = 5;
const SORT: usize = 6;
const PROJECT: usize = 7;
const OTHER: usize = 8;

/// Counts read off the profile, in reporting order.
pub const COUNTS: [&str; 18] = [
    "scan_rows_out",
    "blocks_skipped",
    "enc_skipped",
    "filter_rows_in",
    "filter_rows_out",
    "joins_hash",
    "joins_sandwich",
    "joins_merge",
    "join_rows_in",
    "join_rows_out",
    "aggs_hash",
    "aggs_streaming",
    "aggs_sandwich",
    "aggs_parallel",
    "morsels",
    "spill_partitions",
    "spill_bytes_written",
    "spill_restore_bytes",
];

/// One operation's (or, summed, one pass's) layer breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layers {
    /// Self nanoseconds per [`TIME_LAYERS`] entry.
    pub self_ns: [u64; TIME_LAYERS.len()],
    /// Per [`COUNTS`] entry.
    pub counts: [u64; COUNTS.len()],
    /// Wall nanoseconds of the profiled plan root.
    pub root_ns: u64,
    /// Nanoseconds pool morsels ran for, read off the log-bucketed morsel
    /// histogram with every bucket counted at its middle.
    pub morsel_busy_ns: u64,
}

impl Layers {
    pub fn of(root: &ProfileNode) -> Layers {
        let mut l = Layers { root_ns: root.wall_nanos, ..Layers::default() };
        l.visit(root);
        l
    }

    fn count(&mut self, name: &str, n: u64) {
        let i = COUNTS.iter().position(|c| *c == name).expect("a name from COUNTS");
        self.counts[i] += n;
    }

    fn visit(&mut self, node: &ProfileNode) {
        let children: u64 = node.children.iter().map(|c| c.wall_nanos).sum();
        let self_ns = node.wall_nanos.saturating_sub(children);
        let label = node.label.as_str();
        let layer = if label.starts_with("Scan(") {
            self.count("scan_rows_out", node.rows_out);
            SCAN
        } else if label == "Filter" {
            self.count("filter_rows_in", node.rows_in);
            self.count("filter_rows_out", node.rows_out);
            FILTER
        } else if let Some(strategy) = label.strip_prefix("Join(") {
            self.count("join_rows_in", node.rows_in);
            self.count("join_rows_out", node.rows_out);
            match strategy {
                "sandwich)" => {
                    self.count("joins_sandwich", 1);
                    JOIN_SANDWICH
                }
                "merge)" => {
                    self.count("joins_merge", 1);
                    JOIN_MERGE
                }
                _ => {
                    self.count("joins_hash", 1);
                    JOIN_HASH
                }
            }
        } else if let Some(strategy) = label.strip_prefix("Aggregate(") {
            self.count(
                match strategy {
                    "streaming)" => "aggs_streaming",
                    "sandwich)" => "aggs_sandwich",
                    "parallel)" => "aggs_parallel",
                    _ => "aggs_hash",
                },
                1,
            );
            AGG
        } else if label.starts_with("Sort(") {
            SORT
        } else if label == "Project" {
            PROJECT
        } else {
            OTHER
        };
        self.self_ns[layer] += self_ns;
        self.count("blocks_skipped", node.blocks_skipped);
        self.count("enc_skipped", node.enc_skipped);
        self.count("morsels", node.morsels);
        self.count("spill_partitions", node.spill_partitions);
        self.count("spill_bytes_written", node.spill_bytes);
        self.count("spill_restore_bytes", node.spill_restore_bytes);
        // The morsel histogram's bucket `[2^(b-1), 2^b)` reports its upper
        // bound `2^b - 1`; three quarters of `2^b` is the bucket's middle.
        self.morsel_busy_ns += node
            .morsel_nanos
            .iter()
            .map(|&(upper, n)| (upper.saturating_add(1) / 4).saturating_mul(3).saturating_mul(n))
            .sum::<u64>();
        for c in &node.children {
            self.visit(c);
        }
    }

    pub fn add(&mut self, other: &Layers) {
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        self.root_ns += other.root_ns;
        self.morsel_busy_ns += other.morsel_busy_ns;
    }

    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}
