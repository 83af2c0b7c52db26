//! Microbenchmarks of the BDCC primitives: bit scatter/gather, bin lookup,
//! mask assignment, count-table construction and histogram cascade; and of
//! the hash join's index and the aggregation group table on the build and
//! probe shapes of TPC-H Q09, Q18 and Q21 at SF 0.05, with keys as dense as
//! `bdcc-tpch` writes them.
//!
//! Each join shape times its build, then three probes that split a probe
//! row's cost: `exists` (key word, directory load and the first key of the
//! chain), `pairs` (the whole chain walk and the match lists) and
//! `assemble` (gathering one payload column of each side over the match
//! lists).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdcc_catalog::TableId;
use bdcc_core::{
    assign_masks, create_dimension, gather_bits, scatter_bits, BinningConfig, CountTable, DimId,
    GranularityHistograms, InterleaveStrategy, KeyValue, UseBits,
};
use bdcc_exec::batch::{Batch, ColMeta};
use bdcc_exec::ops::agg::PartialAgg;
use bdcc_exec::{AggFunc, AggSpec, Expr, JoinIndex};
use bdcc_storage::{Column, Datum};

fn bench_micro(c: &mut Criterion) {
    c.bench_function("scatter_gather_roundtrip", |b| {
        let mask = 0b1000100010001000100u64;
        b.iter(|| {
            let v = scatter_bits(black_box(0b10110), 5, mask);
            gather_bits(v, mask)
        })
    });

    let uses = vec![
        UseBits { dim_bits: 13, fk_group: Some(0) },
        UseBits { dim_bits: 5, fk_group: Some(0) },
        UseBits { dim_bits: 5, fk_group: Some(1) },
        UseBits { dim_bits: 13, fk_group: Some(2) },
    ];
    c.bench_function("assign_masks_lineitem", |b| {
        b.iter(|| assign_masks(black_box(&uses), InterleaveStrategy::RoundRobinPerUse))
    });

    let dim = create_dimension(
        DimId(0),
        "D",
        TableId(0),
        vec!["k".into()],
        (0..8192).map(|v| (KeyValue::single(Datum::Int(v)), 1)).collect(),
        &BinningConfig::default(),
    )
    .unwrap();
    c.bench_function("bin_lookup_8k_bins", |b| {
        let kv = KeyValue::single(Datum::Int(4242));
        b.iter(|| dim.bin_of(black_box(&kv)))
    });

    let keys: Vec<u64> = (0..100_000u64).map(|i| (i * 37) % 4096).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    c.bench_function("count_table_100k_rows", |b| {
        b.iter(|| CountTable::from_sorted_keys(black_box(&sorted), 12, 8).unwrap())
    });
    c.bench_function("histogram_cascade_100k_rows", |b| {
        b.iter(|| GranularityHistograms::from_sorted_keys(black_box(&sorted), 12))
    });
}

/// A deterministic stream of pseudo-random `u64`s (xorshift64*).
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Build `build`'s key columns, probe them with `probe`'s, and time each
/// step under `name/`.
fn join_shape(c: &mut Criterion, name: &str, build: &[Vec<i64>], probe: &[Vec<i64>]) {
    let bcols: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
    let pcols: Vec<&[i64]> = probe.iter().map(Vec::as_slice).collect();
    c.bench_function(&format!("{name}/build"), |b| b.iter(|| JoinIndex::build(black_box(&bcols))));
    let index = JoinIndex::build(&bcols);
    c.bench_function(&format!("{name}/exists"), |b| {
        b.iter(|| {
            let mut lidx = Vec::new();
            index.probe_exists(black_box(&pcols), &mut lidx);
            lidx.len()
        })
    });
    c.bench_function(&format!("{name}/pairs"), |b| {
        b.iter(|| {
            let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
            index.probe_pairs(black_box(&pcols), &mut lidx, &mut ridx);
            lidx.len()
        })
    });
    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
    index.probe_pairs(&pcols, &mut lidx, &mut ridx);
    let (lpay, rpay) = (Column::from_i64(probe[0].clone()), Column::from_i64(build[0].clone()));
    c.bench_function(&format!("{name}/assemble"), |b| {
        b.iter(|| (lpay.gather(black_box(&lidx)), rpay.gather_u32(black_box(&ridx))))
    });
}

/// The join and group-by shapes of Q09, Q18 and Q21 at SF 0.05: PART
/// 10 000 rows, SUPPLIER 500, PARTSUPP 40 000, ORDERS 75 000, LINEITEM
/// 300 528, keys dense from 1.
fn bench_join_and_group(c: &mut Criterion) {
    let (parts, supps, orders, lines) = (10_000i64, 500i64, 75_000i64, 300_528usize);
    let mut rng = stream(19920101);
    let mut uniform = |n: i64, rows: usize| -> Vec<i64> {
        (0..rows).map(|_| 1 + (rng() % n as u64) as i64).collect()
    };
    // Q09: LINEITEM ⋈ the 2 233 PART rows whose name holds 'green'.
    let green: Vec<i64> = (0..2_233).map(|i| 1 + i * parts / 2_233).collect();
    join_shape(c, "q09_part_2233_x_300528", &[green], &[uniform(parts, lines)]);
    // Q09: 67 146 joined rows ⋈ PARTSUPP on (ps_partkey, ps_suppkey), the
    // suppliers of a part as dbgen spreads them.
    let ps: Vec<(i64, i64)> = (0..parts * 4)
        .map(|i| {
            let p = 1 + i / 4;
            (p, (p + (i % 4) * (supps / 4 + (p - 1) / supps)) % supps + 1)
        })
        .collect();
    let picks = uniform(parts * 4, 67_146);
    let probe = vec![
        picks.iter().map(|&i| ps[i as usize - 1].0).collect(),
        picks.iter().map(|&i| ps[i as usize - 1].1).collect(),
    ];
    let build = vec![ps.iter().map(|r| r.0).collect(), ps.iter().map(|r| r.1).collect()];
    join_shape(c, "q09_partsupp_40000_x_67146", &build, &probe);
    // Q09: the same rows ⋈ ORDERS on o_orderkey.
    join_shape(
        c,
        "q09_orders_75000_x_67146",
        &[(1..=orders).collect()],
        &[uniform(orders, 67_146)],
    );
    // Q21: 189 817 LINEITEM rows ⋈ SUPPLIER on s_suppkey.
    join_shape(
        c,
        "q21_supplier_500_x_189817",
        &[(1..=supps).collect()],
        &[uniform(supps, 189_817)],
    );
    // Q18: GROUP BY l_orderkey, one to seven lines an order, in order.
    let mut keys = Vec::with_capacity(lines);
    for o in 1..=orders {
        let n = 1 + rng() % 7;
        keys.extend((0..n).map(|_| o));
    }
    keys.resize(lines, orders);
    let schema = [ColMeta::new("l_orderkey", bdcc_storage::DataType::Int)];
    let count = [AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
    let empty = PartialAgg::new(&schema, &["l_orderkey"], &count).unwrap();
    let batches: Vec<Batch> =
        keys.chunks(1024).map(|k| Batch::new(vec![Column::from_i64(k.to_vec())])).collect();
    c.bench_function("q18_group_by_l_orderkey_300528", |b| {
        b.iter(|| {
            let mut agg = empty.clone();
            batches.iter().for_each(|batch| agg.consume(black_box(batch)).unwrap());
            agg.finish().rows()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_micro, bench_join_and_group
}
criterion_main!(benches);
