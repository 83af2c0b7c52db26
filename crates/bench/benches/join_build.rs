//! Criterion bench for the join-index build: the seed's
//! `HashMap<Vec<i64>, Vec<u32>>` baseline vs. the flat allocation-free
//! [`JoinIndex`] (serial and 4-thread partitioned), plus the probe path,
//! over TPC-H LINEITEM join keys. The companion binary `join_speedup`
//! prints the same comparison as a throughput table with JSON output.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bdcc_bench::{baseline_join_build, probe_all};
use bdcc_exec::hash::JoinIndex;
use bdcc_exec::ParallelConfig;
use bdcc_tpch::{generate, GenConfig};

fn bench_join_build(c: &mut Criterion) {
    let db = generate(&GenConfig::new(0.01));
    let li = db.stored_by_name("lineitem").expect("lineitem").clone();
    let okey = li.column_by_name("l_orderkey").expect("col").as_i64().expect("ints").to_vec();
    let pkey = li.column_by_name("l_partkey").expect("col").as_i64().expect("ints").to_vec();

    let serial = ParallelConfig::with_threads(1);
    for (name, key_cols) in
        [("1key", vec![okey.as_slice()]), ("2key", vec![okey.as_slice(), pkey.as_slice()])]
    {
        c.bench_function(&format!("join_build_hashmap_baseline_{name}"), |b| {
            b.iter(|| black_box(baseline_join_build(&key_cols).len()))
        });
        c.bench_function(&format!("join_build_flat_serial_{name}"), |b| {
            b.iter(|| black_box(JoinIndex::build(&key_cols, &serial).expect("build").len()))
        });
        let cfg = ParallelConfig::with_threads(4);
        c.bench_function(&format!("join_build_flat_parallel4_{name}"), |b| {
            b.iter(|| black_box(JoinIndex::build(&key_cols, &cfg).expect("build").len()))
        });
        let idx = JoinIndex::build(&key_cols, &serial).expect("build");
        c.bench_function(&format!("join_probe_flat_{name}"), |b| {
            b.iter(|| black_box(probe_all(&idx, &key_cols)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join_build
}
criterion_main!(benches);
