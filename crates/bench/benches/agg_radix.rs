//! Criterion bench for the aggregation strategies: serial
//! `HashAggregate` vs. morsel-parallel partial-merge vs. radix-partitioned
//! aggregation, over the fine-grained scattered group-by
//! (`GROUP BY l_partkey`) and the coarse Q1-style group-by radix exists
//! to not regress. The companion binary `agg_speedup` prints the same
//! comparison as a throughput/memory table with JSON output (recorded as
//! `BENCH_agg.json`).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bdcc_exec::ops::agg::HashAggregate;
use bdcc_exec::ops::scan::PlainScan;
use bdcc_exec::ops::{collect, BoxedOp};
use bdcc_exec::parallel::{FragmentBlueprint, ParallelAggregate, ScanBlueprint, ScanKind};
use bdcc_exec::{AggFunc, AggSpec, Expr, MemoryTracker, ParallelConfig};
use bdcc_storage::{IoTracker, StoredTable};
use bdcc_tpch::{generate, GenConfig};

const SCAN_COLS: [&str; 4] = ["l_partkey", "l_returnflag", "l_quantity", "l_extendedprice"];

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev"),
        AggSpec::new(AggFunc::Avg, Expr::col("l_quantity"), "aq"),
        AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
    ]
}

fn serial(li: &Arc<StoredTable>, group_by: &[&str]) -> usize {
    let scan: BoxedOp =
        Box::new(PlainScan::new(Arc::clone(li), IoTracker::new(), &SCAN_COLS, vec![]).unwrap());
    collect(Box::new(HashAggregate::new(scan, group_by, aggs(), MemoryTracker::new()).unwrap()))
        .unwrap()
        .rows()
}

fn parallel(li: &Arc<StoredTable>, group_by: &[&str], radix: bool) -> usize {
    let bp = ScanBlueprint {
        table: Arc::clone(li),
        columns: SCAN_COLS.iter().map(|c| c.to_string()).collect(),
        predicates: vec![],
        kind: ScanKind::Plain,
    };
    let cfg = ParallelConfig { threads: 4, morsel_rows: 8192, agg_radix: Some(radix) };
    collect(Box::new(
        ParallelAggregate::new(
            FragmentBlueprint { scan: bp, steps: vec![] },
            group_by,
            aggs(),
            IoTracker::new(),
            cfg,
            MemoryTracker::new(),
        )
        .unwrap(),
    ))
    .unwrap()
    .rows()
}

fn bench_agg_radix(c: &mut Criterion) {
    let db = generate(&GenConfig::new(0.01));
    let li = db.stored_by_name("lineitem").expect("lineitem").clone();
    for (name, group_by) in
        [("fine_partkey", vec!["l_partkey"]), ("coarse_returnflag", vec!["l_returnflag"])]
    {
        c.bench_function(&format!("agg_{name}_serial"), |b| {
            b.iter(|| black_box(serial(&li, &group_by)))
        });
        c.bench_function(&format!("agg_{name}_partial_merge_4t"), |b| {
            b.iter(|| black_box(parallel(&li, &group_by, false)))
        });
        c.bench_function(&format!("agg_{name}_radix_4t"), |b| {
            b.iter(|| black_box(parallel(&li, &group_by, true)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_agg_radix
}
criterion_main!(benches);
