//! A table build and a gather fan out on scoped threads, never on the
//! query pool: after both, the shared pool has spawned no worker and run
//! no job. (Nothing else in this test binary touches the pool.)

use bdcc_pool::WorkerPool;
use bdcc_storage::{apply_permutation, Column, TableBuilder};

#[test]
fn building_and_permuting_a_table_spawns_no_pool_worker() {
    let rows = 10_000;
    let table = TableBuilder::new("t")
        .column("k", Column::from_i64((0..rows).collect()))
        .column("f", Column::from_f64((0..rows).map(|i| i as f64 / 4.0).collect()))
        .column("s", Column::from_strings((0..rows).map(|i| format!("s{}", i % 97)).collect()))
        .build()
        .expect("a well-formed table builds");
    let perm: Vec<usize> = (0..rows as usize).rev().collect();
    let columns: Vec<&Column> =
        (0..table.arity()).map(|i| table.column(i).expect("in range").as_ref()).collect();
    let permuted = apply_permutation(columns, &perm);
    assert_eq!(permuted[0].as_i64().expect("k is an integer column")[0], rows - 1);
    let stats = WorkerPool::shared().stats();
    assert_eq!((stats.threads_spawned_total, stats.jobs), (0, 0), "{stats:?}");
}
