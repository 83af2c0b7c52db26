//! Criterion bench for E7: Algorithm 1 — full self-tuned clustering of the
//! TPC-H LINEITEM table (bit assignment, path resolution, sort,
//! histograms, count table).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdcc_core::{cluster_table, create_dimensions, derive_design, DesignConfig};
use bdcc_tpch::{generate, GenConfig};

fn bench_selftune(c: &mut Criterion) {
    let cfg = DesignConfig::default();
    let db = generate(&GenConfig::new(0.005));
    let design = derive_design(db.catalog(), &cfg).unwrap();
    let dims = create_dimensions(&db, &design, &cfg.binning).unwrap();
    let li = db.catalog().table_id("lineitem").unwrap();
    let specs: Vec<_> = design.uses[&li].iter().map(|u| (u.dim, u.path.clone())).collect();
    c.bench_function("algorithm1_cluster_lineitem_sf0.005", |b| {
        b.iter(|| cluster_table(black_box(&db), li, &specs, &dims, &cfg.selftune).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_selftune
}
criterion_main!(benches);
