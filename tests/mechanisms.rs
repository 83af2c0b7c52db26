//! Integration tests of the paper's three claimed mechanisms, end to end
//! on generated TPC-H data:
//!
//! 1. selection pushdown + propagation reduce bytes read,
//! 2. sandwich operators reduce peak query memory,
//! 3. the automatic design is robust: every query runs, and correlated
//!    (hierarchical) dimensions don't break the self-tuning.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{QueryContext, SpillMode};

fn setup() -> (f64, Arc<SchemeDb>, Arc<SchemeDb>) {
    setup_at(0.005)
}

fn setup_at(sf: f64) -> (f64, Arc<SchemeDb>, Arc<SchemeDb>) {
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let plain = Arc::new(plain_scheme(&db));
    let bdcc = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).unwrap());
    (sf, plain, bdcc)
}

fn run(sdb: &Arc<SchemeDb>, sf: f64, id: usize) -> (u64, u64) {
    let q = all_queries().into_iter().find(|q| q.id == id).unwrap();
    // The mechanisms are claims about in-memory execution: under a
    // process-wide `BDCC_SPILL=force` Plain's hash builds would sit on
    // disk (tiny peak) and spill traffic would count as bytes read.
    let qc = QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Off);
    let ctx = QueryCtx::new(qc, sf);
    (q.run)(&ctx).unwrap();
    (ctx.qc.io.stats().bytes_read, ctx.qc.tracker.peak())
}

#[test]
fn pushdown_reduces_bytes_on_selective_star_joins() {
    let (sf, plain, bdcc) = setup();
    // Q5 (region + year) and Q7 (nation pair + ship years): selection
    // propagation prunes whole co-clusters of LINEITEM and ORDERS.
    for id in [5, 7] {
        let (pb, _) = run(&plain, sf, id);
        let (bb, _) = run(&bdcc, sf, id);
        assert!(
            (bb as f64) < 0.7 * pb as f64,
            "Q{id}: BDCC should read <70% of Plain's bytes ({bb} vs {pb})"
        );
    }
}

#[test]
fn q1_full_scan_sees_no_pushdown_win() {
    // The paper: "In Q01 there is no significant acceleration to be
    // achieved with indexing methods as it is a 95%-97% full scan".
    let (sf, plain, bdcc) = setup();
    let (pb, _) = run(&plain, sf, 1);
    let (bb, _) = run(&bdcc, sf, 1);
    let ratio = bb as f64 / pb as f64;
    assert!((0.85..=1.2).contains(&ratio), "Q1 bytes ratio {ratio} should be ~1");
}

#[test]
fn sandwich_operators_reduce_memory() {
    // SF 0.02: below it Q14's PART build is too small for the grouping to
    // show (1.5× at SF 0.01, 3.0× here, 6.9× at SF 0.5).
    let (sf, plain, bdcc) = setup_at(0.02);
    // Q3 and Q12 (joins to ORDERS), Q14 (join to PART), Q18 (big
    // aggregation): the paper's memory-reduction cases. Q4 (semi join) left
    // this list: its memory was Plain's hash table over every late
    // LINEITEM, and a semi join now indexes whichever side ends first — the
    // date-restricted ORDERS — on every scheme, so there is nothing left
    // for co-clustering to save (`semi_anti_joins_index_the_smaller_side`).
    for id in [3, 12, 14, 18] {
        let (_, pm) = run(&plain, sf, id);
        let (_, bm) = run(&bdcc, sf, id);
        assert!(
            bm * 2 <= pm,
            "Q{id}: BDCC peak memory {bm} should be at most half of Plain's {pm}"
        );
    }
}

#[test]
fn semi_anti_joins_index_the_smaller_side() {
    // Q4 (ORDERS ⋉ LINEITEM), Q21 (l1 ⋉ l2, l1 ▷ l3) and Q22 (CUSTOMER ▷
    // ORDERS) used to build a hash table over their whole right side on
    // every scheme. Pinned: peak tracked bytes at SF 0.005 when `HashJoin`
    // always indexed its right child (commit 21fda71); racing the two
    // children and indexing the one that ends first must stay at or under
    // a fifth of each.
    let sf = 0.005;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db)), [949_586, 2_313_540, 216_054]),
        ("pk", Arc::new(pk_scheme(&db).unwrap()), [949_586, 2_208_492, 216_054]),
        (
            "bdcc",
            Arc::new(bdcc_scheme(&db, &DesignConfig::default()).unwrap()),
            [442_036, 2_317_868, 216_054],
        ),
    ];
    for (name, sdb, right_build_peaks) in &schemes {
        for (id, before) in [4, 21, 22].into_iter().zip(right_build_peaks) {
            let (_, peak) = run(sdb, sf, id);
            assert!(
                peak * 5 <= *before,
                "Q{id} on {name}: peak {peak} B should be at most a fifth of {before} B"
            );
        }
    }
}

#[test]
fn correlated_shipdate_pruning_via_orderdate_clustering() {
    // Q6 selects on l_shipdate, which is not a dimension — the win comes
    // from MinMax blocks over the date-clustered layout (the paper's
    // Q6/Q12/Q20 observation).
    let (sf, plain, bdcc) = setup();
    let (pb, _) = run(&plain, sf, 6);
    let (bb, _) = run(&bdcc, sf, 6);
    assert!(
        (bb as f64) < pb as f64,
        "Q6: clustered layout should prune shipdate blocks ({bb} vs {pb})"
    );
}

#[test]
fn design_is_robust_across_the_full_query_set() {
    // "one BDCC schema without replication is sufficient": every query
    // must run on the automatic design without falling back to errors.
    let (sf, _, bdcc) = setup();
    for q in all_queries() {
        let ctx = QueryCtx::new(QueryContext::new(Arc::clone(&bdcc)), sf);
        (q.run)(&ctx).unwrap_or_else(|e| panic!("{} failed on BDCC: {e}", q.name));
    }
}

#[test]
fn bdcc_tables_store_each_row_once_in_key_order() {
    // Every BDCC table stores exactly its source rows, and its count-table
    // groups tile it in key order. D_NATION's compound key (regionkey,
    // nationkey) is the paper's hierarchical-dimension example: it must
    // not stop the big tables from clustering.
    let sf = 0.005;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let sdb = bdcc_scheme(&db, &DesignConfig::default()).unwrap();
    let schema = sdb.bdcc.as_ref().unwrap();
    for (tid, bt) in &schema.tables {
        let name = db.catalog().table_name(*tid);
        let original = db.stored(*tid).unwrap().rows();
        assert_eq!(bt.table.rows(), original, "{name}: every source row stored once");
        assert_eq!(bt.count.total_rows(), original, "{name}: count table must cover all rows");
        let mut start = 0;
        for g in &bt.count.groups {
            assert_eq!(g.start, start, "{name}: group {:#x} out of tile order", g.key);
            start += g.count;
        }
        if original > 10_000 {
            assert!(bt.granularity > 0, "{name}: large tables must actually cluster");
        }
    }
}

#[test]
fn equi_depth_binning_beats_equi_width_under_skew() {
    // The ablation DESIGN.md calls out: frequency-balanced binning keeps
    // group sizes even when the dimension values are skewed.
    use bdcc::core::{create_dimension, BinningConfig, DimId, KeyValue};
    use bdcc::storage::Datum;
    // Zipf-ish skew: value v appears ~ 1000/v times.
    let mut values = Vec::new();
    for v in 1i64..=100 {
        for _ in 0..(1000 / v) {
            values.push((KeyValue::single(Datum::Int(v)), 1u64));
        }
    }
    let mk = |strategy| {
        create_dimension(
            DimId(0),
            "D",
            bdcc::catalog::TableId(0),
            vec!["k".into()],
            values.clone(),
            &BinningConfig { max_bits: 3, strategy },
        )
        .unwrap()
    };
    let depth = mk(BinningStrategy::EquiDepth);
    let width = mk(BinningStrategy::EquiWidthByValue);
    let imbalance = |d: &bdcc::core::Dimension| {
        let max = d.bins.iter().map(|b| b.weight).max().unwrap() as f64;
        let avg = d.bins.iter().map(|b| b.weight).sum::<u64>() as f64 / d.bin_count() as f64;
        max / avg
    };
    assert!(
        imbalance(&depth) < imbalance(&width),
        "equi-depth {:.2} should be more balanced than equi-width {:.2}",
        imbalance(&depth),
        imbalance(&width)
    );
}
