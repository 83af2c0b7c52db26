//! Lifecycle guarantees of the persistent worker pool under real query
//! plans (unit-level contracts — panic/error propagation, cancel-on-drop,
//! in-flight bounds — live next to the pool in `bdcc-pool`):
//!
//! * **Fan-outs under joins terminate**: a leaf aggregate's fan-out may
//!   run inside a join's build or probe input — Q18's sandwich aggregate
//!   over LINEITEM under its joins on BDCC, its partial-merge one on
//!   Plain. At 4 workers and tiny morsels the join-heavy queries here
//!   prove these shapes complete and stay byte-equivalent to serial
//!   execution.
//! * **No OS thread after warm-up**: across a multi-query, multi-scheme,
//!   multi-config run, the pool's monotone spawn counter must not move
//!   once the widest fan-out has been seen — the persistent-pool
//!   guarantee that replaced spawn-per-fan-out.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::parallel::pool::WorkerPool;
use bdcc_exec::{ParallelConfig, SpillMode};

fn schemes() -> (f64, Vec<Arc<SchemeDb>>) {
    let sf = 0.002;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let plain = Arc::new(plain_scheme(&db));
    let pk = Arc::new(pk_scheme(&db).expect("pk scheme"));
    let bdcc = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"));
    (sf, vec![plain, pk, bdcc])
}

/// Pin 4 workers and tiny morsels regardless of the CI matrix env: the
/// point is the nested shape, which needs real fan-outs.
fn nested_cfg(morsel_rows: usize) -> ParallelConfig {
    ParallelConfig { threads: WIDEST, morsel_rows }
}

/// This binary's widest query fan-out. Set-up runs on scoped threads, so
/// no test here grows the shared pool past it.
const WIDEST: usize = 4;

/// Grow the shared pool to [`WIDEST`], whichever test warmed it first.
fn warm_to_widest_fan_out() {
    WorkerPool::shared().ensure_workers(WIDEST);
}

#[test]
fn nested_fan_outs_inside_streaming_scans_complete_and_match_serial() {
    let (sf, sdbs) = schemes();
    // Join-heavy queries: hash joins (inner, semi, anti, outer) and — on
    // the BDCC scheme — sandwich joins over inline scans, with leaf
    // aggregates fanning out below them. 48-row morsels make every
    // fanned-out leaf many-morsel.
    let heavy = [3usize, 10, 18, 21];
    let mut failures = Vec::new();
    for q in all_queries().into_iter().filter(|q| heavy.contains(&q.id)) {
        for sdb in &sdbs {
            let serial = (q.run)(&QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf));
            let parallel = (q.run)(&QueryCtx::new(
                QueryContext::with_parallel(Arc::clone(sdb), nested_cfg(48)),
                sf,
            ));
            match (serial, parallel) {
                (Ok(s), Ok(p)) => {
                    if canonical_rows(&s) != canonical_rows(&p) {
                        failures.push(format!("{} on {}", q.name, sdb.scheme.name()));
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    failures.push(format!("{} on {}: {e}", q.name, sdb.scheme.name()))
                }
            }
        }
    }
    assert!(failures.is_empty(), "nested fan-out disagreement: {}", failures.join(", "));
}

#[test]
fn no_os_thread_is_created_after_warmup_across_queries() {
    let (sf, sdbs) = schemes();
    // Warm-up: one parallel query at the widest width this test uses.
    let q3 = all_queries().into_iter().find(|q| q.id == 3).expect("q3");
    let warm_ctx =
        QueryCtx::new(QueryContext::with_parallel(Arc::clone(&sdbs[0]), nested_cfg(256)), sf);
    (q3.run)(&warm_ctx).expect("warm-up query");
    warm_to_widest_fan_out();
    let warm = WorkerPool::shared().stats().threads_spawned_total;
    assert_eq!(warm, WIDEST, "the pool grows to the widest fan-out and no further");

    // Multi-query run: several queries × all schemes × several configs,
    // none wider than the warm-up. Every fan-out — partial-merge and
    // co-cluster aggregations — must reuse the parked workers.
    let mix = [1usize, 3, 6, 10, 18];
    for (i, q) in all_queries().into_iter().filter(|q| mix.contains(&q.id)).enumerate() {
        for sdb in &sdbs {
            let cfg = ParallelConfig {
                threads: 2 + (i % 3), // 2..=4
                morsel_rows: if i % 2 == 0 { 256 } else { 64 },
            };
            // Forced spill runs spilling hash aggregates; off, partial-merge.
            let spill = if i % 2 == 0 { SpillMode::Force } else { SpillMode::Off };
            let ctx = QueryCtx::new(
                QueryContext::with_parallel(Arc::clone(sdb), cfg).with_spill(spill),
                sf,
            );
            (q.run)(&ctx).expect("query under warm pool");
        }
    }
    let after = WorkerPool::shared().stats().threads_spawned_total;
    assert_eq!(after, warm, "a warm pool must not create OS threads mid-run");
}

#[test]
fn cancel_and_drop_mid_stream_release_all_memory_without_new_threads() {
    use bdcc_exec::{
        aggregate, join, plan_query, AggFunc, AggSpec, CancelToken, ExecError, Expr, PlanBuilder,
    };

    let sf = 0.004;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let sdb = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"));

    // A join probing with a sandwich aggregate that fans out by co-cluster
    // (LINEITEM grouped by l_orderkey, as in Q18): dropping or cancelling
    // the root mid-pull leaves morsel producers in flight on the shared
    // pool.
    let nested_plan = || {
        let pb = PlanBuilder::new();
        let revenue = AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev");
        let lineitem = pb.scan("lineitem", &["l_orderkey", "l_extendedprice"], Vec::new());
        join(
            aggregate(lineitem, &["l_orderkey"], vec![revenue]),
            pb.scan("orders", &["o_orderkey", "o_custkey"], Vec::new()),
            &[("l_orderkey", "o_orderkey")],
            None,
        )
    };

    // Warm-up at the widest width used below, then pin the baseline.
    let warm_ctx = QueryContext::with_parallel(Arc::clone(&sdb), nested_cfg(48));
    let mut op = plan_query(&warm_ctx, &nested_plan()).expect("plan");
    while op.next().expect("warm-up").is_some() {}
    drop(op);
    warm_to_widest_fan_out();
    let spawned = WorkerPool::shared().stats().threads_spawned_total;
    assert_eq!(spawned, WIDEST, "the pool grows to the widest fan-out and no further");

    // (a) Drop mid-stream: pull one batch, then drop the whole operator
    // tree while scan producers still hold in-flight morsels. The PR 5
    // cancel-on-drop machinery must drain them and the RAII memory
    // guards must release every tracked byte.
    let ctx = QueryContext::with_parallel(Arc::clone(&sdb), nested_cfg(48));
    let mut op = plan_query(&ctx, &nested_plan()).expect("plan");
    assert!(op.next().expect("first batch").is_some(), "join must yield rows");
    drop(op);
    assert_eq!(ctx.tracker.current(), 0, "drop mid-stream must release all tracked bytes");

    // (b) Cancel mid-stream: same shape, token tripped between batches;
    // the unwind is typed and equally leak-free.
    let token = CancelToken::new();
    let ctx =
        QueryContext::with_parallel(Arc::clone(&sdb), nested_cfg(48)).with_cancel(token.clone());
    let mut op = plan_query(&ctx, &nested_plan()).expect("plan");
    assert!(op.next().expect("first batch").is_some());
    token.cancel();
    let err = loop {
        match op.next() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("cancelled query must not complete normally"),
            Err(e) => break e,
        }
    };
    assert_eq!(err, ExecError::Cancelled);
    drop(op);
    assert_eq!(ctx.tracker.current(), 0, "cancel must release all tracked bytes");

    assert_eq!(
        WorkerPool::shared().stats().threads_spawned_total,
        spawned,
        "neither drop nor cancel may create OS threads"
    );
}
