//! The metric tables: names, units and directions, in the order they are
//! printed. `BENCHMARK.json` at the repository root lists the same
//! metrics; the bounds here are the ones `--repeat` checks against.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the earlier value by which a later one may be worse.
    pub bound: f64,
}

/// Lower is better for all five.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "pass_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "query_geomean_ms", unit: "ms", bound: 0.20 },
    EndToEnd { name: "latency_p90_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "peak_mem_mb", unit: "MB", bound: 0.06 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count made by the program: must repeat exactly on the serial
    /// workloads.
    pub exact: bool,
}

/// A time, or a count that depends on timing or on how many passes ran.
const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: false }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: true }
}

/// Layer by layer, in the order of the README's table.
pub const PER_LAYER: [PerLayer; 60] = [
    // tpch::gen
    time("gen_s", "s"),
    count("gen_rows", "rows"),
    // core::autodesign / core::bdcc_table / exec::scheme
    time("design_s", "s"),
    time("build_plain_s", "s"),
    time("build_pk_s", "s"),
    time("build_bdcc_s", "s"),
    time("sizing_s", "s"),
    time("reference_s", "s"),
    // storage::encode
    count("stored_bytes_per_row", "B/row"),
    // exec::planner + scalar pre-phases
    time("unattributed_ms", "ms"),
    // ops::scan / ops::bdcc_scan / restrict / storage::io
    time("scan_self_ms", "ms"),
    count("scan_rows_out", "rows"),
    count("blocks_skipped", "count"),
    count("enc_skipped", "count"),
    count("scan_io_bytes", "B"),
    count("io_random_seeks", "count"),
    count("est_io_s", "s"),
    // kernel / expr
    time("filter_self_ms", "ms"),
    count("filter_rows_in", "rows"),
    count("filter_rows_out", "rows"),
    // ops::join, ops::sandwich_join, ops::merge_join, hash
    time("join_hash_self_ms", "ms"),
    time("join_sandwich_self_ms", "ms"),
    time("join_merge_self_ms", "ms"),
    count("joins_hash", "count"),
    count("joins_sandwich", "count"),
    count("joins_merge", "count"),
    count("join_rows_in", "rows"),
    count("join_rows_out", "rows"),
    // ops::agg
    time("agg_self_ms", "ms"),
    count("aggs_hash", "count"),
    count("aggs_streaming", "count"),
    count("aggs_sandwich", "count"),
    count("aggs_parallel", "count"),
    // ops::sort, ops::transform
    time("sort_self_ms", "ms"),
    time("project_self_ms", "ms"),
    time("other_self_ms", "ms"),
    // parallel + pool
    count("morsels", "count"),
    time("pool_jobs", "count"),
    time("pool_steals", "count"),
    time("pool_parks", "count"),
    time("pool_lent_jobs", "count"),
    time("busy_share", "share"),
    // broker + storage::spill
    count("spill_partitions", "count"),
    count("spill_bytes_written", "B"),
    count("spill_restore_bytes", "B"),
    count("live_spill_files", "count"),
    time("budget_headroom_share", "share"),
    // serve + govern
    time("queue_wait_p50_ms", "ms"),
    time("queue_wait_p90_ms", "ms"),
    time("exec_p50_ms", "ms"),
    time("serve_rejected", "count"),
    time("serve_completed", "count"),
    time("serve_failed", "count"),
    time("serve_tracked_bytes_after", "B"),
    // the benchmark's own tracing
    time("untraced_pass_ms", "ms"),
    time("traced_pass_ms", "ms"),
    time("trace_overhead_ratio", "ratio"),
    time("layer_sum_gap_max_share", "share"),
    count("count_drift", "count"),
    time("traced_passes", "count"),
];
