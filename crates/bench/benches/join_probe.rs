//! Criterion bench for the join probe: serial pair probe vs. the
//! morsel-parallel probe (over serial and partitioned indexes), and the
//! pre-fix Semi/Anti gather-and-discard probe vs. the first-hit existence
//! probe, over the dominant TPC-H probe pair (LINEITEM probing ORDERS'
//! `o_orderkey`). The companion binary `probe_speedup` prints the same
//! comparison as a throughput table with JSON output.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bdcc_bench::{semi_probe_direct, semi_probe_gather_baseline};
use bdcc_exec::hash::JoinIndex;
use bdcc_exec::ParallelConfig;
use bdcc_storage::Column;
use bdcc_tpch::{generate, GenConfig};

fn bench_join_probe(c: &mut Criterion) {
    let db = generate(&GenConfig::new(0.01));
    let li = db.stored_by_name("lineitem").expect("lineitem").clone();
    let ord = db.stored_by_name("orders").expect("orders").clone();
    let col = |t: &std::sync::Arc<bdcc_storage::StoredTable>, n: &str| -> Column {
        t.column_by_name(n).expect("column").as_ref().clone()
    };
    let build_keys = col(&ord, "o_orderkey").as_i64().expect("ints").to_vec();
    let probe_keys = col(&li, "l_orderkey").as_i64().expect("ints").to_vec();
    let left_payload: Vec<Column> = ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"]
        .iter()
        .map(|n| col(&li, n))
        .collect();
    let right_payload: Vec<Column> =
        ["o_custkey", "o_totalprice", "o_orderdate"].iter().map(|n| col(&ord, n)).collect();
    let rows = probe_keys.len();
    let probe_cols: Vec<&[i64]> = vec![probe_keys.as_slice()];

    let serial = ParallelConfig::with_threads(1);
    let cfg = ParallelConfig::with_threads(4);
    for (name, build_cfg) in [("serial_idx", &serial), ("partitioned_idx", &cfg)] {
        let idx = JoinIndex::build(&[&build_keys], build_cfg).expect("build");
        c.bench_function(&format!("join_probe_pairs_serial_{name}"), |b| {
            b.iter(|| {
                black_box(idx.probe_pairs_parallel(&probe_cols, rows, &serial).unwrap().0.len())
            })
        });
        c.bench_function(&format!("join_probe_pairs_parallel4_{name}"), |b| {
            b.iter(|| black_box(idx.probe_pairs_parallel(&probe_cols, rows, &cfg).unwrap().0.len()))
        });
    }

    let idx = JoinIndex::build(&[&build_keys], &serial).expect("build");
    c.bench_function("join_probe_semi_gather_baseline", |b| {
        b.iter(|| {
            black_box(semi_probe_gather_baseline(&idx, &probe_cols, &left_payload, &right_payload))
        })
    });
    c.bench_function("join_probe_semi_exists_direct", |b| {
        b.iter(|| black_box(semi_probe_direct(&idx, &probe_cols)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join_probe
}
criterion_main!(benches);
