//! E-PROBE — join-probe throughput: the serial probe loop vs. the
//! morsel-parallel probe, and the pre-fix Semi/Anti gather-and-discard
//! probe vs. the first-hit existence probe. Mirrors `join_speedup`: scale
//! factor from `BDCC_SF` (default 0.02), thread counts from `BDCC_THREADS`
//! (comma separated, default `1,4`). Prints a table and, last, one JSON
//! line (`{"bench":"join_probe",...}`) recorded as `BENCH_probe.json` so
//! the probe-side perf trajectory is machine-readable across PRs.
//!
//! The workload is the dominant TPC-H probe: LINEITEM (always the probe
//! side) probing an index built over ORDERS' `o_orderkey` — every probe
//! row matches, so pair-list and gather costs are fully exercised.

use std::time::Instant;

use bdcc_bench::{
    generate_db, print_table, r3, scale_factor, semi_probe_direct, semi_probe_gather_baseline,
    BenchReport,
};
use bdcc_exec::hash::JoinIndex;
use bdcc_exec::ParallelConfig;
use bdcc_obs::json::Obj;
use bdcc_storage::Column;

fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f(); // warm up
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn mrows_per_s(rows: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        rows as f64 / secs / 1e6
    } else {
        0.0
    }
}

fn main() {
    let sf = scale_factor();
    let threads: Vec<usize> = std::env::var("BDCC_THREADS")
        .unwrap_or_else(|_| "1,4".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("E-PROBE — join probe throughput (SF {sf}, {cores} core(s) available)");
    let db = generate_db(sf);
    let li = db.stored_by_name("lineitem").expect("lineitem stored").clone();
    let ord = db.stored_by_name("orders").expect("orders stored").clone();
    let col = |t: &std::sync::Arc<bdcc_storage::StoredTable>, n: &str| -> Column {
        t.column_by_name(n).expect("column").as_ref().clone()
    };
    let build_keys = col(&ord, "o_orderkey").as_i64().expect("ints").to_vec();
    let probe_keys = col(&li, "l_orderkey").as_i64().expect("ints").to_vec();
    // Payloads for the Semi/Anti baseline's wasteful pair gather: a
    // realistic handful of probe- and build-side columns.
    let left_payload: Vec<Column> = ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"]
        .iter()
        .map(|n| col(&li, n))
        .collect();
    let right_payload: Vec<Column> =
        ["o_custkey", "o_totalprice", "o_orderdate"].iter().map(|n| col(&ord, n)).collect();
    let rows = probe_keys.len();
    let reps = 10;

    let probe_cols: Vec<&[i64]> = vec![&probe_keys];
    let mut table_rows = Vec::new();
    let mut report =
        BenchReport::new("join_probe").f64("sf", sf).usize("rows", rows).usize("cores", cores);
    let mut record = |variant: &str, t: usize, secs: f64, base_s: f64, rows: usize| {
        table_rows.push(vec![
            variant.to_string(),
            t.to_string(),
            format!("{:.2}", secs * 1000.0),
            format!("{:.2}", mrows_per_s(rows, secs)),
            format!("{:.2}x", base_s / secs),
        ]);
        report.result(
            Obj::new()
                .str("variant", variant)
                .usize("threads", t)
                .f64("probe_ms", r3(secs * 1000.0))
                .f64("mrows_per_s", r3(mrows_per_s(rows, secs)))
                .f64("speedup", r3(base_s / secs)),
        );
    };

    let serial = ParallelConfig::with_threads(1);
    // --- Inner-style pair probe: serial loop vs morsel-parallel ----------
    for (name, parallel_build) in [("serial_build", false), ("partitioned_build", true)] {
        // Force a genuinely partitioned index for the "partitioned" rows
        // even when BDCC_THREADS lists only 1 (CI's serial matrix cell) —
        // a threads=1 config would silently build serial and the variant
        // label would lie. Likewise shrink the morsel gate below the
        // build side: at smoke scale factors ORDERS is smaller than the
        // default morsel and the build would silently stay serial.
        let build_threads = threads.iter().copied().max().unwrap_or(4).max(2);
        let mut cfg_build = ParallelConfig::with_threads(build_threads);
        cfg_build.morsel_rows = cfg_build.morsel_rows.min(build_keys.len() / 2).max(1);
        let build_cfg = if parallel_build { &cfg_build } else { &serial };
        let idx = JoinIndex::build(&[&build_keys], build_cfg).expect("build");
        assert_eq!(
            idx.partition_count() > 1,
            parallel_build,
            "index partitioning must match the reported variant"
        );
        let serial_s =
            timed(reps, || idx.probe_pairs_parallel(&probe_cols, rows, &serial).expect("probe"));
        record(&format!("pairs_{name}_serial"), 1, serial_s, serial_s, rows);
        for &t in &threads {
            if t <= 1 {
                continue;
            }
            let cfg = ParallelConfig::with_threads(t);
            let s =
                timed(reps, || idx.probe_pairs_parallel(&probe_cols, rows, &cfg).expect("probe"));
            record(&format!("pairs_{name}_parallel_{t}t"), t, s, serial_s, rows);
        }
    }

    // --- Semi/Anti probe: gather-and-discard baseline vs existence ------
    let idx = JoinIndex::build(&[&build_keys], &serial).expect("build");
    let base_s = timed(reps, || {
        semi_probe_gather_baseline(&idx, &probe_cols, &left_payload, &right_payload)
    });
    record("semi_gather_baseline", 1, base_s, base_s, rows);
    let direct_s = timed(reps, || semi_probe_direct(&idx, &probe_cols));
    record("semi_exists_direct", 1, direct_s, base_s, rows);

    let _ = record; // end the closure's borrows of the table and report
    print_table(&["variant", "threads", "ms", "Mrows/s", "speedup"], &table_rows);
    report.print();
}
