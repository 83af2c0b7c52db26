//! Spill-mode equivalence suite: join-heavy and fine-grained-aggregate
//! queries across schemes × thread counts × spill modes (off / auto /
//! force — the same knob `BDCC_SPILL` sets process-wide) must produce
//! **byte-identical** results, drain every spill temp file (including
//! when queries die mid-flight to deadlines, cancellation, or injected
//! faults — in every phase of the grace-hash join), keep tracked memory
//! within the query budget when one is set, and read every spilled byte
//! back once: each build leaf is restored and indexed exactly once.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bdcc_catalog::{Catalog, ColumnDef, Database, TableDef};
use bdcc_core::DesignConfig;
use bdcc_exec::run::{canonical_rows, run_measured};
use bdcc_exec::{
    aggregate, bdcc_scheme, explain_analyze, join_full, pk_scheme, plain_scheme, plan_query,
    AggFunc, AggSpec, ColPredicate, ExecError, Expr, JoinType, Node, ParallelConfig, PlanBuilder,
    ProfileNode, QueryContext, QueryProfile, SchemeDb, SpillMode,
};
use bdcc_pool::{CancelToken, FaultInjector, FaultPlan};
use bdcc_storage::{live_spill_files, Column, DataType, IoStats, StoredTable, TableBuilder};

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
/// hint, so every scheme hash-joins) feeding a 512-group aggregate — under
/// pressure both the join build and the aggregate above it spill.
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
/// orders past them; when the query spills the first pending batch sends
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

/// A left-outer join building all 20 000 orders: the orders of the first
/// 20 days of a year (many small probe batches) against every order of the
/// same customer — 39 matches each in build order, none when the residual
/// rejects them all.
fn left_outer_heavy() -> Node {
    let b = PlanBuilder::new();
    let early = b.scan_as(
        "orders",
        "e",
        &["o_key", "o_cust", "o_amount"],
        vec![ColPredicate::lt("o_day", 20)],
    );
    let orders = b.scan("orders", &["o_key", "o_cust", "o_day"], vec![]);
    join_full(
        early,
        orders,
        &[("e_cust", "o_cust")],
        JoinType::LeftOuter,
        None,
        Some(Expr::col("e_amount").ge(Expr::col("o_day").mul(Expr::lit(3)))),
    )
}

/// A semi or anti join whose left side (the orders of the first 100 days)
/// ends first: in memory it indexes the left, when the query spills every
/// order is the spilled build. A left row survives on its own twin, which
/// passes the residual or not.
fn twin_join(join_type: JoinType) -> Node {
    let b = PlanBuilder::new();
    let early = b.scan_as(
        "orders",
        "e",
        &["o_key", "o_cust", "o_day"],
        vec![ColPredicate::lt("o_day", 100)],
    );
    let orders = b.scan("orders", &["o_key", "o_amount"], vec![]);
    join_full(
        early,
        orders,
        &[("e_key", "o_key")],
        join_type,
        None,
        Some(Expr::col("o_amount").gt(Expr::col("e_day").mul(Expr::lit(5)))),
    )
}

/// Fine-grained aggregation: one group per order row — the aggregate's
/// table is the peak, and all 20 000 groups must survive spilling.
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

/// A fine aggregate above a join: `orders ⋈ customer` (no FK hint, so a
/// hash join indexing the 512 customers on Plain and BDCC) grouped by
/// `o_key` — 20 000 groups whose table, not the join, is the peak.
fn join_fine_agg() -> Node {
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_key", "o_cust", "o_amount"], vec![]);
    let customer = b.scan("customer", &["c_key"], vec![]);
    let j = join_full(orders, customer, &[("o_cust", "c_key")], JoinType::Inner, None, None);
    aggregate(
        j,
        &["o_key"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "amt"),
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
    let queries = [
        ("join_heavy", join_heavy()),
        ("semi_heavy", semi_heavy()),
        ("fine_agg", fine_agg()),
        ("join_fine_agg", join_fine_agg()),
    ];
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

/// The aggregate above a join spills by itself: under half its unspilled
/// peak, on Plain and BDCC at widths 1 and 4 (PK's orders arrive in `o_key`
/// order, so it streams this aggregate), it finishes byte-identical within
/// the budget, its own profile node books the spill, and nothing is left
/// behind.
#[test]
fn an_aggregate_above_a_join_spills_within_half_its_peak() {
    let _spill = spill_test_guard();
    let base_files = live_spill_files();
    let query = join_fine_agg();
    for (scheme_name, sdb) in schemes().iter().filter(|(name, _)| *name != "pk") {
        for threads in [1, 4] {
            let case = format!("{scheme_name}/{threads}t");
            let (want, off) =
                run_measured(&ctx(sdb, threads).with_spill(SpillMode::Off), &query).unwrap();
            let budget = off.peak_memory / 2;
            let c = ctx(sdb, threads).with_memory_budget(budget).with_spill(SpillMode::Auto);
            let tracker = Arc::clone(&c.tracker);
            let analyzed = explain_analyze(&c, &query).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(want, analyzed.batch, "{case}: must be byte-identical");
            let peak = analyzed.measurement.peak_memory;
            assert!(peak <= budget, "{case}: peak {peak} over budget {budget}");
            let mut aggs = Vec::new();
            analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                if node.label.starts_with("Aggregate(") {
                    aggs.push((node.label.clone(), node.spill_bytes));
                }
            });
            let [(label, spilled)] = &aggs[..] else { panic!("{case}: one aggregate: {aggs:?}") };
            assert_eq!((label.as_str(), *spilled > 0), ("Aggregate(hash)", true), "{case}");
            assert_eq!((live_spill_files(), tracker.current()), (base_files, 0), "{case}");
        }
    }
}

#[test]
fn budget_exceeded_survives_only_for_truly_oversized_queries() {
    let _spill = spill_test_guard();
    // A 1 KB budget is below one batch. The spilled join build routes each
    // 512-row orders batch (12 288 bytes) into its partitions, and they
    // freeze only when the next batch asks for room — after the scan's
    // checkpoint has seen them resident. So even in auto mode the query
    // dies with a budget error before the aggregate sees a row:
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

    // Inside the grace-hash join, whose probe side is 40 batches: every
    // checkpoint also sleeps 0.5 ms, so deadlines 5 ms apart trip a few
    // checkpoints apart — in every phase — and the join's profile says
    // which phase each one hit.
    let plan = left_outer_heavy();
    let reference = run_measured(&ctx(plain, 1).with_spill(SpillMode::Off), &plan).unwrap().0;
    let analyzed = explain_analyze(&ctx(plain, 1), &plan).unwrap();
    let probe_rows = hash_join(&analyzed.profile).children[0].rows_out;
    let slow = Arc::new(FaultInjector::new(FaultPlan::parse("delay=1.0,delay_us=500").unwrap()));
    let mut phases = BTreeSet::new();
    for millis in (0..).step_by(5) {
        let c = ctx(plain, 1)
            .with_fault_injector(Arc::clone(&slow))
            .with_deadline(Duration::from_millis(millis))
            .with_spill(SpillMode::Force)
            .with_profiling();
        let tracker = Arc::clone(&c.tracker);
        let outcome = run_measured(&c, &plan);
        assert_eq!(live_spill_files(), base_files, "deadline {millis} ms: leaked spill files");
        assert_eq!(tracker.current(), 0, "deadline {millis} ms: leaked tracked bytes");
        match outcome {
            Ok((out, _)) => {
                assert_eq!(reference, out, "deadline {millis} ms");
                break;
            }
            Err(e) => assert_eq!(e, ExecError::DeadlineExceeded, "deadline {millis} ms"),
        }
        phases.insert(grace_phase(&c, probe_rows));
    }
    assert!(phases.contains("probe-partition") && phases.contains("merge"), "{phases:?}");

    // Cancelled between two batches of the output merge.
    let token = CancelToken::new();
    let c = ctx(plain, 1).with_cancel(token.clone()).with_spill(SpillMode::Force);
    let mut root = plan_query(&c, &plan).unwrap();
    assert!(root.next().unwrap().is_some());
    token.cancel();
    assert_eq!(root.next().unwrap_err(), ExecError::Cancelled);
    drop(root);
    assert_eq!((live_spill_files(), c.tracker.current()), (base_files, 0), "cancelled mid-merge");
}

/// Which phase of a spilled hash join a failed run stopped in, read off its
/// profile: the build drain, partitioning the probe side (`probe_rows` not
/// all pulled yet), the leaves, or the output merge (some output emitted).
fn grace_phase(c: &QueryContext, probe_rows: u64) -> &'static str {
    let profiler = c.profiler.as_ref().expect("a profiled context");
    let join = hash_join(&profiler.finalize(0, 0, &IoStats::default(), Vec::new()).unwrap());
    match (annotation(&join, "build"), annotation(&join, "restores")) {
        (None, _) => "build",
        (Some(_), None) if join.children[0].rows_out < probe_rows => "probe-partition",
        (Some(_), None) => "leaves",
        (Some(_), Some(_)) if join.batches_out == 0 => "merge-open",
        (Some(_), Some(_)) => "merge",
    }
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

    // Inside the grace-hash join: one seeded run per seed, serial, so each
    // fault lands on the same checkpoint every time — over these seeds, in
    // every phase. Each is a typed error that drains everything.
    let plan = left_outer_heavy();
    let reference = run_measured(&ctx(plain, 1).with_spill(SpillMode::Off), &plan).unwrap().0;
    let mut sites = BTreeSet::new();
    for seed in 0..40 {
        let faults = FaultPlan::parse(&format!("err=0.01,seed={seed}")).unwrap();
        let c = ctx(plain, 1)
            .with_fault_injector(Arc::new(FaultInjector::new(faults)))
            .with_spill(SpillMode::Force);
        let tracker = Arc::clone(&c.tracker);
        match run_measured(&c, &plan) {
            Ok((out, _)) => assert_eq!(reference, out, "seed {seed}: completed run differs"),
            Err(ExecError::Injected(msg)) => {
                sites.insert(msg.rsplit(' ').next().unwrap_or_default().to_string());
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
        assert_eq!(live_spill_files(), base_files, "seed {seed}: leaked spill files");
        assert_eq!(tracker.current(), 0, "seed {seed}: leaked tracked bytes");
    }
    let inside = ["probe-partition", "join-merge"];
    assert!(inside.iter().all(|site| sites.contains(*site)), "faults hit {sites:?}");
}

/// The one hash join of a plan's profile.
fn hash_join(profile: &QueryProfile) -> ProfileNode {
    let mut joins = Vec::new();
    profile.root.walk(&mut |node: &ProfileNode| {
        if node.label == "Join(hash)" {
            joins.push(node.clone());
        }
    });
    assert_eq!(joins.len(), 1, "one hash join");
    joins.pop().unwrap()
}

fn annotation<'a>(node: &'a ProfileNode, key: &str) -> Option<&'a str> {
    node.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// `name(n)` → `n`.
fn count_in(value: &str, name: &str) -> u64 {
    let inner = value.strip_prefix(name).and_then(|v| v.strip_prefix('(')?.strip_suffix(')'));
    inner.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("{value}: not {name}(n)"))
}

/// Every join type through the grace-hash spilled join, under half and a
/// quarter of its unspilled peak and forced, at widths 1 and 4: the result
/// is byte-identical to the unspilled run, the spilled bytes are read back
/// once (not once per probe round), and each build leaf is restored and
/// indexed exactly once — the probe side is partitioned beside it, and the
/// tracked peak fits the budget. (Nothing fans out in a query that spills,
/// so nothing unspillable is in flight at width 4 either.)
#[test]
fn spilled_joins_of_every_type_restore_each_leaf_once() {
    let _spill = spill_test_guard();
    let schemes = schemes();
    let (_, plain) = &schemes[0];
    let base_files = live_spill_files();
    let queries = [
        ("inner", join_heavy()),
        ("left_outer", left_outer_heavy()),
        ("semi", twin_join(JoinType::Semi)),
        ("anti", twin_join(JoinType::Anti)),
    ];
    for (query_name, query) in queries {
        for threads in [1, 4] {
            let (want, off) =
                run_measured(&ctx(plain, threads).with_spill(SpillMode::Off), &query).unwrap();
            let runs = [
                ("peak/2", Some(off.peak_memory / 2), SpillMode::Auto),
                ("peak/4", Some(off.peak_memory / 4), SpillMode::Auto),
                ("force", None, SpillMode::Force),
            ];
            for (run, budget, mode) in runs {
                let case = format!("{query_name}/{threads}t/{run}");
                let mut c = ctx(plain, threads).with_spill(mode);
                if let Some(budget) = budget {
                    c = c.with_memory_budget(budget);
                }
                let analyzed =
                    explain_analyze(&c, &query).unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(want, analyzed.batch, "{case}: must be byte-identical");
                assert_eq!(live_spill_files(), base_files, "{case}: temp files must drain");
                let peak = analyzed.measurement.peak_memory;
                let fits = budget.is_none_or(|b| peak <= b);
                assert!(fits, "{case}: peak {peak} over {budget:?}");
                let (mut written, mut restored) = (0, 0);
                analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                    written += node.spill_bytes;
                    restored += node.spill_restore_bytes;
                });
                assert!(written > 0, "{case}: the join must spill");
                assert!(
                    restored * 2 <= written * 3,
                    "{case}: {restored} bytes restored for {written} written"
                );
                let join = hash_join(&analyzed.profile);
                let get =
                    |key| annotation(&join, key).unwrap_or_else(|| panic!("{case}: no {key}="));
                let leaves = count_in(get("build"), "spilled");
                assert_eq!(count_in(get("probe"), "partitioned"), leaves, "{case}");
                let restores: u64 = get("restores").parse().unwrap();
                assert_eq!(restores, leaves, "{case}: every leaf indexed exactly once");
            }
        }
    }
}
