//! Spill-mode equivalence suite: join-heavy and fine-grained-aggregate
//! queries across schemes × thread counts × spill modes (off / auto /
//! force — the same knob `BDCC_SPILL` sets process-wide) must produce
//! **byte-identical** results, drain every spill temp file (including
//! when queries die mid-flight to deadlines, cancellation, or injected
//! faults), and keep tracked memory within the query budget when one is
//! set.

use std::sync::Arc;
use std::time::Duration;

use bdcc_catalog::{Catalog, ColumnDef, Database, TableDef};
use bdcc_core::DesignConfig;
use bdcc_exec::run::{canonical_rows, run_measured};
use bdcc_exec::{
    aggregate, bdcc_scheme, join_full, pk_scheme, plain_scheme, AggFunc, AggSpec, Expr, JoinType,
    Node, ParallelConfig, PlanBuilder, QueryContext, SchemeDb, SpillMode,
};
use bdcc_pool::{CancelToken, FaultInjector, FaultPlan};
use bdcc_storage::{live_spill_files, Column, DataType, StoredTable, TableBuilder};

const N_CUST: i64 = 512;
const N_ORDERS: i64 = 20_000;

fn build_db() -> Database {
    let mut cat = Catalog::new();
    let int = |n: &str| ColumnDef { name: n.to_string(), data_type: DataType::Int };
    cat.create_table(TableDef {
        name: "customer".into(),
        columns: vec![int("c_key"), int("c_nation"), int("c_score")],
        primary_key: vec!["c_key".into()],
    })
    .unwrap();
    cat.create_table(TableDef {
        name: "orders".into(),
        columns: vec![int("o_key"), int("o_cust"), int("o_day"), int("o_amount")],
        primary_key: vec!["o_key".into()],
    })
    .unwrap();
    cat.create_foreign_key("FK_O_C", "orders", &["o_cust"], "customer", &["c_key"]).unwrap();
    cat.create_index("c_n", "customer", &["c_nation"]).unwrap();
    cat.create_index("o_c", "orders", &["o_cust"]).unwrap();

    let mut db = Database::new(cat);
    let attach = |db: &mut Database, t: StoredTable| {
        let id = db.catalog().table_id(t.name()).unwrap();
        db.attach(id, Arc::new(t));
    };
    attach(
        &mut db,
        TableBuilder::new("customer")
            .column("c_key", Column::from_i64((0..N_CUST).collect()))
            .column("c_nation", Column::from_i64((0..N_CUST).map(|k| k % 16).collect()))
            .column("c_score", Column::from_i64((0..N_CUST).map(|k| k * 7 % 100).collect()))
            .build()
            .unwrap(),
    );
    // Fine (512-row) blocks: morsels — and with them the streaming
    // scan's unspillable buffer floor — can shrink when a budget is set.
    attach(
        &mut db,
        StoredTable::from_columns_with_block_rows(
            "orders",
            vec![
                ("o_key".into(), Column::from_i64((0..N_ORDERS).collect())),
                (
                    "o_cust".into(),
                    Column::from_i64((0..N_ORDERS).map(|k| k * 31 % N_CUST).collect()),
                ),
                ("o_day".into(), Column::from_i64((0..N_ORDERS).map(|k| k * 13 % 365).collect())),
                ("o_amount".into(), Column::from_i64((0..N_ORDERS).map(|k| k % 1000).collect())),
            ],
            512,
        )
        .unwrap(),
    );
    db
}

fn schemes() -> Vec<(&'static str, Arc<SchemeDb>)> {
    let db = build_db();
    let mut cfg = DesignConfig::default();
    cfg.selftune.ar_bytes = 256;
    vec![
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).unwrap())),
        ("bdcc", Arc::new(bdcc_scheme(&db, &cfg).unwrap())),
    ]
}

/// Join-heavy: the build side is the 20 000-row orders table (no FK
/// hint, so every scheme hash-joins) feeding a fine aggregate — under
/// pressure both the join build and the radix aggregation spill.
fn join_heavy() -> Node {
    let b = PlanBuilder::new();
    let customer = b.scan("customer", &["c_key", "c_score"], vec![]);
    let orders = b.scan("orders", &["o_cust", "o_amount", "o_day"], vec![]);
    let j = join_full(
        customer,
        orders,
        &[("c_key", "o_cust")],
        JoinType::Inner,
        None,
        Some(Expr::col("o_amount").ge(Expr::col("o_day").sub(Expr::lit(300)))),
    );
    aggregate(
        j,
        &["c_key"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "amt"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ],
    )
}

/// A semi join whose left side (512 customers) ends long before its right
/// (20 000 orders): in memory it indexes the customers and streams the
/// orders past them; under an active broker the first pending batch sends
/// it through the spilled right build instead — same rows either way.
fn semi_heavy() -> Node {
    let b = PlanBuilder::new();
    let customer = b.scan("customer", &["c_key", "c_nation", "c_score"], vec![]);
    let orders = b.scan("orders", &["o_cust", "o_amount", "o_day"], vec![]);
    join_full(
        customer,
        orders,
        &[("c_key", "o_cust")],
        JoinType::Semi,
        None,
        Some(Expr::col("o_amount").ge(Expr::col("c_score").add(Expr::lit(880)))),
    )
}

/// Fine-grained aggregation: one group per order row — the radix
/// aggregate's sweet spot, and all 20 000 groups must survive spilling.
fn fine_agg() -> Node {
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_key", "o_amount", "o_day"], vec![]);
    aggregate(
        orders,
        &["o_key"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s"),
            AggSpec::new(AggFunc::Avg, Expr::col("o_day"), "a"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ],
    )
}

/// Held by every test here: they all spill, and most assert on the
/// process-wide [`live_spill_files`] count, which a neighbour's temp
/// files would otherwise show up in.
fn spill_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn ctx(sdb: &Arc<SchemeDb>, threads: usize) -> QueryContext {
    if threads > 1 {
        QueryContext::with_parallel(Arc::clone(sdb), ParallelConfig::with_threads(threads))
    } else {
        QueryContext::new(Arc::clone(sdb))
    }
}

#[test]
fn spill_modes_are_byte_identical_across_schemes_and_threads() {
    let _spill = spill_test_guard();
    let schemes = schemes();
    let base_files = live_spill_files();
    let queries =
        [("join_heavy", join_heavy()), ("semi_heavy", semi_heavy()), ("fine_agg", fine_agg())];
    for (query_name, query) in queries {
        let mut canonical: Option<Vec<String>> = None;
        for (scheme_name, sdb) in &schemes {
            for threads in [1, 4] {
                // Reference: spilling off.
                let (want, _) =
                    run_measured(&ctx(sdb, threads).with_spill(SpillMode::Off), &query).unwrap();
                for mode in [SpillMode::Auto, SpillMode::Force] {
                    let (got, _) = run_measured(&ctx(sdb, threads).with_spill(mode), &query)
                        .unwrap_or_else(|e| {
                            panic!("{query_name}/{scheme_name}/{threads}t/{mode:?}: {e}")
                        });
                    assert_eq!(
                        want, got,
                        "{query_name}/{scheme_name}/{threads}t/{mode:?}: must be byte-identical"
                    );
                    assert_eq!(
                        live_spill_files(),
                        base_files,
                        "{query_name}/{scheme_name}/{threads}t/{mode:?}: temp files must drain"
                    );
                }
                // Cross-scheme/thread agreement (row order is canonical).
                let rows = canonical_rows(&want);
                match &canonical {
                    None => canonical = Some(rows),
                    Some(expect) => {
                        assert_eq!(expect, &rows, "{query_name}/{scheme_name}/{threads}t")
                    }
                }
            }
        }
    }
}

#[test]
fn spilling_completes_within_half_the_unspilled_peak() {
    let _spill = spill_test_guard();
    let schemes = schemes();
    let (_, plain) = &schemes[0];
    for (query_name, query) in [("join_heavy", join_heavy()), ("fine_agg", fine_agg())] {
        for threads in [1, 4] {
            let (want, off) =
                run_measured(&ctx(plain, threads).with_spill(SpillMode::Off), &query).unwrap();
            assert!(off.peak_memory > 0, "{query_name}: reference peak must be tracked");
            let budget = off.peak_memory / 2;
            let c = ctx(plain, threads).with_memory_budget(budget).with_spill(SpillMode::Auto);
            let io = c.io.clone();
            let (got, on) = run_measured(&c, &query).unwrap_or_else(|e| {
                panic!("{query_name}/{threads}t: must finish within budget {budget}: {e}")
            });
            assert_eq!(want, got, "{query_name}/{threads}t: spilled result differs");
            assert!(
                on.peak_memory <= budget,
                "{query_name}/{threads}t: tracked peak {} must fit budget {}",
                on.peak_memory,
                budget
            );
            assert!(
                io.stats().bytes_read > off.io.bytes_read,
                "{query_name}/{threads}t: spill traffic must be metered through the IoTracker"
            );
        }
    }
}

#[test]
fn budget_exceeded_survives_only_for_truly_oversized_queries() {
    let _spill = spill_test_guard();
    // The aggregate above a join is not a leaf fragment, so it runs as
    // an in-memory hash aggregate whose state (512 groups) cannot spill:
    // a 1 KB budget still dies with a budget error even in auto mode —
    // BudgetExceeded remains the backstop for truly oversized queries.
    let schemes = schemes();
    let (_, plain) = &schemes[0];
    let err = run_measured(
        &ctx(plain, 1).with_memory_budget(1024).with_spill(SpillMode::Auto),
        &join_heavy(),
    )
    .unwrap_err();
    let msg = format!("{err}").to_lowercase();
    assert!(msg.contains("budget"), "expected a budget error, got: {err}");
    assert_eq!(live_spill_files(), 0, "failed queries must drain their spill files");
}

#[test]
fn deadline_and_cancel_mid_spill_drain_all_temp_files() {
    let _spill = spill_test_guard();
    let schemes = schemes();
    let (_, plain) = &schemes[0];
    let base_files = live_spill_files();
    let reference =
        run_measured(&ctx(plain, 1).with_spill(SpillMode::Off), &join_heavy()).unwrap().0;
    // Deadline sweep: some deadlines trip mid-spill, some let the query
    // finish — in every case the temp files must be gone, and a
    // completed run must still be byte-identical.
    for micros in [0u64, 200, 1_000, 5_000, 50_000, 1_000_000] {
        let c =
            ctx(plain, 1).with_deadline(Duration::from_micros(micros)).with_spill(SpillMode::Force);
        let tracker = Arc::clone(&c.tracker);
        match run_measured(&c, &join_heavy()) {
            Ok((out, _)) => assert_eq!(reference, out, "deadline {micros}µs"),
            Err(e) => {
                let msg = format!("{e}").to_lowercase();
                assert!(
                    msg.contains("deadline") || msg.contains("cancel"),
                    "deadline {micros}µs: unexpected error {e}"
                );
            }
        }
        assert_eq!(live_spill_files(), base_files, "deadline {micros}µs: leaked spill files");
        assert_eq!(tracker.current(), 0, "deadline {micros}µs: leaked tracked bytes");
    }
    // Pre-tripped cancellation dies at the first checkpoint.
    let token = CancelToken::new();
    token.cancel();
    let c = ctx(plain, 1).with_cancel(token).with_spill(SpillMode::Force);
    assert!(run_measured(&c, &join_heavy()).is_err());
    assert_eq!(live_spill_files(), base_files, "cancelled query leaked spill files");
}

#[test]
fn injected_faults_mid_spill_drain_all_temp_files() {
    let _spill = spill_test_guard();
    let schemes = schemes();
    let (_, plain) = &schemes[0];
    let base_files = live_spill_files();
    let reference =
        run_measured(&ctx(plain, 1).with_spill(SpillMode::Off), &join_heavy()).unwrap().0;
    let plan = FaultPlan::parse("err=0.05,seed=1723").unwrap();
    let injector = Arc::new(FaultInjector::new(plan));
    let mut failures = 0;
    for i in 0..20 {
        let c =
            ctx(plain, 1).with_fault_injector(Arc::clone(&injector)).with_spill(SpillMode::Force);
        let tracker = Arc::clone(&c.tracker);
        match run_measured(&c, &join_heavy()) {
            Ok((out, _)) => assert_eq!(reference, out, "faulted-but-completed run differs"),
            Err(_) => failures += 1,
        }
        assert_eq!(live_spill_files(), base_files, "faulted query leaked spill files");
        assert_eq!(tracker.current(), 0, "faulted run {i} leaked tracked bytes");
    }
    assert!(failures > 0, "5% error injection over 20 spilling runs should fail at least once");
}
