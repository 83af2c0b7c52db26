//! E-JOIN — join-build throughput: the seed's `HashMap<Vec<i64>, Vec<u32>>`
//! baseline vs. the flat allocation-free [`JoinIndex`], serial and
//! hash-partitioned parallel. Scale factor from
//! `BDCC_SF` (default 0.01), thread counts from `BDCC_THREADS` (comma
//! separated, default `1,4`). Prints a table and, last, one JSON line
//! (`{"bench":"join_build",...}`) so the perf trajectory is machine-readable
//! across PRs.
//!
//! Build inputs are real TPC-H columns: LINEITEM's `l_orderkey` (the
//! single-`u64` fast path) and `(l_orderkey, l_partkey)` (the packed
//! multi-column path). Probe throughput is measured over the same columns.

use std::time::Instant;

use bdcc_bench::{
    baseline_join_build, generate_db, print_table, probe_all, r3, scale_factor, BenchReport,
};
use bdcc_exec::hash::JoinIndex;
use bdcc_exec::ParallelConfig;
use bdcc_obs::json::Obj;

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
    println!("E-JOIN — join build throughput (SF {sf}, {cores} core(s) available)");
    let db = generate_db(sf);
    let li = db.stored_by_name("lineitem").expect("lineitem stored").clone();
    let okey = li.column_by_name("l_orderkey").expect("col").as_i64().expect("ints").to_vec();
    let pkey = li.column_by_name("l_partkey").expect("col").as_i64().expect("ints").to_vec();
    let rows = okey.len();
    let reps = 10;

    let key_sets: Vec<(&str, Vec<&[i64]>)> =
        vec![("l_orderkey", vec![&okey]), ("l_orderkey,l_partkey", vec![&okey, &pkey])];

    let serial = ParallelConfig::with_threads(1);
    let mut table_rows = Vec::new();
    let mut report =
        BenchReport::new("join_build").f64("sf", sf).usize("rows", rows).usize("cores", cores);
    for (name, key_cols) in &key_sets {
        // Build throughput.
        let base_s = timed(reps, || baseline_join_build(key_cols));
        let flat_s = timed(reps, || JoinIndex::build(key_cols, &serial).expect("build"));
        let mut variants = vec![
            ("hashmap_baseline".to_string(), base_s, 1usize),
            ("flat_serial".to_string(), flat_s, 1usize),
        ];
        for &t in &threads {
            if t <= 1 {
                continue;
            }
            let cfg = ParallelConfig::with_threads(t);
            let s = timed(reps, || JoinIndex::build(key_cols, &cfg).expect("build"));
            variants.push((format!("flat_parallel_{t}t"), s, t));
        }
        // Probe throughput of the flat index (self-probe counts matches).
        let idx = JoinIndex::build(key_cols, &serial).expect("build");
        let probe_s = timed(reps, || probe_all(&idx, key_cols));
        for (variant, secs, t) in &variants {
            table_rows.push(vec![
                name.to_string(),
                variant.clone(),
                t.to_string(),
                format!("{:.2}", secs * 1000.0),
                format!("{:.2}", mrows_per_s(rows, *secs)),
                format!("{:.2}x", base_s / secs),
            ]);
            report.result(
                Obj::new()
                    .str("keys", name)
                    .str("variant", variant)
                    .usize("threads", *t)
                    .f64("build_ms", r3(secs * 1000.0))
                    .f64("mrows_per_s", r3(mrows_per_s(rows, *secs)))
                    .f64("speedup_vs_baseline", r3(base_s / secs)),
            );
        }
        table_rows.push(vec![
            name.to_string(),
            "flat_probe".into(),
            "1".into(),
            format!("{:.2}", probe_s * 1000.0),
            format!("{:.2}", mrows_per_s(rows, probe_s)),
            "-".into(),
        ]);
        report.result(
            Obj::new()
                .str("keys", name)
                .str("variant", "flat_probe")
                .usize("threads", 1)
                .f64("build_ms", r3(probe_s * 1000.0))
                .f64("mrows_per_s", r3(mrows_per_s(rows, probe_s))),
        );
    }
    print_table(&["keys", "variant", "threads", "ms", "Mrows/s", "vs baseline"], &table_rows);
    report.print();
}
