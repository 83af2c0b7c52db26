//! Planner integration tests over a small hand-built star schema:
//! verifies the per-scheme plan *behaviour* (pushdown, propagation,
//! sandwiching, merge joins, streaming aggregation) through the observable
//! counters rather than by inspecting operator trees.

use std::sync::Arc;

use bdcc_catalog::{Catalog, ColumnDef, Database, TableDef};
use bdcc_core::DesignConfig;
use bdcc_exec::run::{canonical_rows, explain_analyze, run_measured};
use bdcc_exec::{
    aggregate, bdcc_scheme, filter, join, join_full, pk_scheme, plain_scheme, sort, AggFunc,
    AggSpec, ColPredicate, Datum, Expr, FkSide, JoinType, Node, ParallelConfig, PlanBuilder,
    ProfileNode, QueryContext, Scheme, SchemeDb, SortKey, SpillMode,
};
use bdcc_storage::{Column, DataType, StoredTable, TableBuilder};

/// Schema: region(4) ← nation(16) ← customer(512) ← orders(8192), with a
/// local date-ish dimension on orders.
fn build_db() -> Database {
    let mut cat = Catalog::new();
    let int = |n: &str| ColumnDef { name: n.to_string(), data_type: DataType::Int };
    cat.create_table(TableDef {
        name: "region".into(),
        columns: vec![int("r_key"), int("r_zone")],
        primary_key: vec!["r_key".into()],
    })
    .unwrap();
    cat.create_table(TableDef {
        name: "nation".into(),
        columns: vec![int("n_key"), int("n_region")],
        primary_key: vec!["n_key".into()],
    })
    .unwrap();
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
    cat.create_foreign_key("FK_N_R", "nation", &["n_region"], "region", &["r_key"]).unwrap();
    cat.create_foreign_key("FK_C_N", "customer", &["c_nation"], "nation", &["n_key"]).unwrap();
    cat.create_foreign_key("FK_O_C", "orders", &["o_cust"], "customer", &["c_key"]).unwrap();
    // Hints: compound nation dimension (region major), day dimension,
    // FK hints for propagation.
    cat.create_index("nation_idx", "nation", &["n_region", "n_key"]).unwrap();
    cat.create_index("day_idx", "orders", &["o_day"]).unwrap();
    cat.create_index("c_n", "customer", &["c_nation"]).unwrap();
    cat.create_index("o_c", "orders", &["o_cust"]).unwrap();

    let mut db = Database::new(cat);
    let attach = |db: &mut Database, t: StoredTable| {
        let id = db.catalog().table_id(t.name()).unwrap();
        db.attach(id, Arc::new(t));
    };
    attach(
        &mut db,
        TableBuilder::new("region")
            .column("r_key", Column::from_i64((0..4).collect()))
            .column("r_zone", Column::from_i64(vec![0, 0, 1, 1]))
            .build()
            .unwrap(),
    );
    attach(
        &mut db,
        TableBuilder::new("nation")
            .column("n_key", Column::from_i64((0..16).collect()))
            .column("n_region", Column::from_i64((0..16).map(|k| k / 4).collect()))
            .build()
            .unwrap(),
    );
    let n_cust = 512i64;
    attach(
        &mut db,
        TableBuilder::new("customer")
            .column("c_key", Column::from_i64((0..n_cust).collect()))
            .column("c_nation", Column::from_i64((0..n_cust).map(|k| k % 16).collect()))
            .column("c_score", Column::from_i64((0..n_cust).map(|k| k * 7 % 100).collect()))
            .build()
            .unwrap(),
    );
    let n_orders = 8192i64;
    attach(
        &mut db,
        TableBuilder::new("orders")
            .column("o_key", Column::from_i64((0..n_orders).collect()))
            .column("o_cust", Column::from_i64((0..n_orders).map(|k| k * 31 % n_cust).collect()))
            .column("o_day", Column::from_i64((0..n_orders).map(|k| k * 13 % 365).collect()))
            .column("o_amount", Column::from_i64((0..n_orders).map(|k| k % 1000).collect()))
            .build()
            .unwrap(),
    );
    db
}

fn schemes() -> (Arc<SchemeDb>, Arc<SchemeDb>, Arc<SchemeDb>) {
    let db = build_db();
    let mut cfg = DesignConfig::default();
    // Small tables: force fine clustering so groups exist.
    cfg.selftune.ar_bytes = 256;
    (
        Arc::new(plain_scheme(&db)),
        Arc::new(pk_scheme(&db).unwrap()),
        Arc::new(bdcc_scheme(&db, &cfg).unwrap()),
    )
}

/// A star query: orders of zone-0 customers in the first quarter.
fn star_query() -> Node {
    let b = PlanBuilder::new();
    let region = b.scan("region", &["r_key"], vec![ColPredicate::eq("r_zone", 0i64)]);
    let nation = b.scan("nation", &["n_key", "n_region"], vec![]);
    let customer = b.scan("customer", &["c_key", "c_nation"], vec![]);
    let orders =
        b.scan("orders", &["o_key", "o_cust", "o_amount"], vec![ColPredicate::lt("o_day", 90i64)]);
    let nr = join(nation, region, &[("n_region", "r_key")], Some(("FK_N_R", FkSide::Left)));
    let cn = join(customer, nr, &[("c_nation", "n_key")], Some(("FK_C_N", FkSide::Left)));
    let oc = join(orders, cn, &[("o_cust", "c_key")], Some(("FK_O_C", FkSide::Left)));
    aggregate(oc, &["n_region"], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "total")])
}

#[test]
fn star_query_agrees_and_bdcc_reads_less() {
    let (plain, pk, bdcc) = schemes();
    let mut results = Vec::new();
    let mut bytes = Vec::new();
    for sdb in [&plain, &pk, &bdcc] {
        // Storage bytes only: spilled bytes read back would count too.
        let ctx = QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Off);
        let (out, m) = run_measured(&ctx, &star_query()).unwrap();
        results.push(canonical_rows(&out));
        bytes.push(m.io.bytes_read);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
    assert_eq!(results[0].len(), 2, "two zone-0 regions");
    // Zone selects 1/2 of regions, day selects ~1/4 of orders: the
    // propagated restriction must cut orders bytes well below plain.
    assert!(
        bytes[2] * 2 < bytes[0],
        "BDCC {} bytes should be well under Plain {}",
        bytes[2],
        bytes[0]
    );
}

#[test]
fn sandwich_join_bounds_memory_on_bdcc() {
    let (plain, _, bdcc) = schemes();
    let b = PlanBuilder::new();
    // Full join orders ⋈ customer with a wide aggregate: plain builds a
    // hash table of all customers; BDCC sandwiches on the shared nation
    // dimension.
    let mk = || {
        let b2 = PlanBuilder::new();
        let orders = b2.scan("orders", &["o_cust", "o_amount"], vec![]);
        let customer = b2.scan("customer", &["c_key", "c_score"], vec![]);
        let j = join(orders, customer, &[("o_cust", "c_key")], Some(("FK_O_C", FkSide::Left)));
        aggregate(j, &["c_score"], vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")])
    };
    let _ = b;
    let pctx = QueryContext::new(Arc::clone(&plain));
    let (pout, pm) = run_measured(&pctx, &mk()).unwrap();
    let bctx = QueryContext::new(Arc::clone(&bdcc));
    let (bout, bm) = run_measured(&bctx, &mk()).unwrap();
    assert_eq!(canonical_rows(&pout), canonical_rows(&bout));
    assert!(
        bm.peak_memory * 2 < pm.peak_memory,
        "sandwich peak {} should be far below hash peak {}",
        bm.peak_memory,
        pm.peak_memory
    );
}

#[test]
fn pk_scheme_uses_merge_join_order() {
    // orders ⋈ customer on the right-side PK: under PK both inputs are
    // sorted, and the merge join needs (and registers) no build memory.
    let (_, pk, _) = schemes();
    let b = PlanBuilder::new();
    let customer = b.scan("customer", &["c_key", "c_score"], vec![]);
    let orders = b.scan("orders", &["o_key", "o_cust"], vec![]);
    // customer.c_key is the PK order of customer; orders.o_key of orders.
    let plan = join(customer, orders, &[("c_key", "o_key")], None);
    let ctx = QueryContext::new(Arc::clone(&pk));
    let (out, m) = run_measured(&ctx, &plan).unwrap();
    assert_eq!(out.rows(), 512); // keys 0..512 match
    assert_eq!(m.peak_memory, 0, "merge join must not build a hash table");
}

#[test]
fn streaming_aggregate_on_pk_order() {
    let (plain, pk, _) = schemes();
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_key", "o_amount"], vec![]);
    let plan =
        aggregate(orders, &["o_key"], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")]);
    let (out, m) = run_measured(&QueryContext::new(Arc::clone(&pk)), &plan).unwrap();
    assert_eq!(out.rows(), 8192);
    // Streaming flushes once per batch; hashing holds every group.
    let (_, hashed) = run_measured(&QueryContext::new(Arc::clone(&plain)), &plan).unwrap();
    assert!(
        0 < m.peak_memory && m.peak_memory * 4 < hashed.peak_memory,
        "streaming peak {} should be a fraction of the hash peak {}",
        m.peak_memory,
        hashed.peak_memory
    );
}

#[test]
fn semi_and_anti_joins_agree_across_schemes() {
    let (plain, pk, bdcc) = schemes();
    let mk = |jt: JoinType| {
        let b = PlanBuilder::new();
        let customer = b.scan("customer", &["c_key"], vec![]);
        let orders = b.scan("orders", &["o_cust"], vec![ColPredicate::ge("o_amount", 990i64)]);
        let j = join_full(
            customer,
            orders,
            &[("c_key", "o_cust")],
            jt,
            Some(("FK_O_C", FkSide::Right)),
            None,
        );
        sort(
            aggregate(j, &[], vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")]),
            vec![SortKey::asc("n")],
            None,
        )
    };
    for jt in [JoinType::Semi, JoinType::Anti] {
        let mut all = Vec::new();
        for sdb in [&plain, &pk, &bdcc] {
            let ctx = QueryContext::new(Arc::clone(sdb));
            let (out, _) = run_measured(&ctx, &mk(jt)).unwrap();
            all.push(canonical_rows(&out));
        }
        assert_eq!(all[0], all[1], "{jt:?}");
        assert_eq!(all[0], all[2], "{jt:?}");
    }
}

#[test]
fn filters_and_residuals_preserve_grouping() {
    // A filter between the scan and the sandwich join must not break
    // group alignment.
    let (plain, _, bdcc) = schemes();
    let mk = || {
        let b = PlanBuilder::new();
        let orders = filter(
            b.scan("orders", &["o_cust", "o_amount", "o_day"], vec![]),
            Expr::col("o_amount").gt(Expr::col("o_day")),
        );
        let customer = b.scan("customer", &["c_key", "c_nation"], vec![]);
        let j = join(orders, customer, &[("o_cust", "c_key")], Some(("FK_O_C", FkSide::Left)));
        aggregate(j, &["c_nation"], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")])
    };
    let pctx = QueryContext::new(Arc::clone(&plain));
    let (pout, _) = run_measured(&pctx, &mk()).unwrap();
    let bctx = QueryContext::new(Arc::clone(&bdcc));
    let (bout, _) = run_measured(&bctx, &mk()).unwrap();
    assert_eq!(canonical_rows(&pout), canonical_rows(&bout));
}

#[test]
fn propagation_requires_join_edges() {
    // Without the nation join in the query, a region predicate must not
    // restrict orders (the restriction walks the query's join graph) —
    // the query must still be answered correctly.
    let (plain, _, bdcc) = schemes();
    let mk = || {
        let b = PlanBuilder::new();
        // Region scanned but joined to nothing relevant — degenerate but
        // legal: cross-check via a join on constant keys.
        let orders =
            b.scan("orders", &["o_key", "o_amount"], vec![ColPredicate::lt("o_day", 10i64)]);
        aggregate(orders, &[], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")])
    };
    for sdb in [&plain, &bdcc] {
        let ctx = QueryContext::new(Arc::clone(sdb));
        let (out, _) = run_measured(&ctx, &mk()).unwrap();
        assert_eq!(out.rows(), 1);
    }
}

#[test]
fn scheme_names_and_enum() {
    assert_eq!(Scheme::Plain.name(), "Plain");
    assert_eq!(Scheme::Pk.name(), "PK");
    assert_eq!(Scheme::Bdcc.name(), "BDCC");
}

#[test]
fn unknown_fk_name_falls_back_to_hash_join() {
    // A join tagged with a non-existent FK must still plan (hash join).
    let (_, _, bdcc) = schemes();
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_cust"], vec![]);
    let customer = b.scan("customer", &["c_key"], vec![]);
    let plan = join(orders, customer, &[("o_cust", "c_key")], Some(("FK_NOPE", FkSide::Left)));
    let ctx = QueryContext::new(Arc::clone(&bdcc));
    let (out, _) = run_measured(&ctx, &plan).unwrap();
    assert_eq!(out.rows(), 8192);
}

#[test]
fn sort_limit_and_datum_roundtrip() {
    let (plain, _, _) = schemes();
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_key", "o_amount"], vec![]);
    let plan = sort(orders, vec![SortKey::desc("o_amount"), SortKey::asc("o_key")], Some(3));
    let ctx = QueryContext::new(Arc::clone(&plain));
    let (out, _) = run_measured(&ctx, &plan).unwrap();
    assert_eq!(out.rows(), 3);
    let amounts = out.columns[1].as_i64().unwrap();
    assert_eq!(amounts, &[999, 999, 999]);
    assert_eq!(out.columns[0].datum(0), Datum::Int(999));
}

// ---------------------------------------------------------------------
// Width is a value, and a query that spills plans the aggregate that can.
// ---------------------------------------------------------------------

/// The Plain scheme with `orders` rebuilt over 256-row blocks, so a
/// budget-clamped morsel size actually yields several morsels.
fn fine_block_plain() -> Arc<SchemeDb> {
    let mut db = build_db();
    let id = db.catalog().table_id("orders").unwrap();
    let coarse = Arc::clone(db.stored(id).unwrap());
    let cols = ["o_key", "o_cust", "o_day", "o_amount"]
        .iter()
        .map(|c| (c.to_string(), coarse.column_by_name(c).unwrap().as_ref().clone()))
        .collect();
    db.attach(
        id,
        Arc::new(StoredTable::from_columns_with_block_rows("orders", cols, 256).unwrap()),
    );
    Arc::new(plain_scheme(&db))
}

/// `GROUP BY o_key` straight over the scan: one group per row, a leaf
/// fragment.
fn leaf_group_by() -> Node {
    let orders = PlanBuilder::new().scan("orders", &["o_key", "o_amount"], vec![]);
    aggregate(orders, &["o_key"], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")])
}

fn join_group_by() -> Node {
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_cust", "o_amount"], vec![]);
    let customer = b.scan("customer", &["c_key", "c_nation"], vec![]);
    let j = join(orders, customer, &[("o_cust", "c_key")], Some(("FK_O_C", FkSide::Left)));
    aggregate(j, &["c_nation"], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")])
}

/// Operator labels of the profile tree, pre-order.
fn labels(root: &ProfileNode) -> Vec<String> {
    let mut out = Vec::new();
    root.walk(&mut |n: &ProfileNode| out.push(n.label.clone()));
    out
}

/// The one node labelled `label`, with its `key` annotation.
fn node_and_log<'a>(root: &'a ProfileNode, label: &str, key: &str) -> (&'a ProfileNode, &'a str) {
    let mut hits = Vec::new();
    root.walk(&mut |n: &ProfileNode| {
        if n.label == label {
            hits.push(n);
        }
    });
    assert_eq!(hits.len(), 1, "expected one {label} in {:?}", labels(root));
    let log = hits[0].annotations.iter().find(|(k, _)| k == key);
    (hits[0], log.map_or("", |(_, v)| v.as_str()))
}

#[test]
fn one_thread_is_the_serial_context() {
    // `new` and `with_parallel(threads: 1)` are one configuration: same
    // operators, same bytes — in memory and under forced spill.
    let (plain, pk, bdcc) = schemes();
    let sorted = sort(
        PlanBuilder::new().scan("orders", &["o_key", "o_amount"], vec![]),
        vec![SortKey::desc("o_amount"), SortKey::asc("o_key")],
        Some(20),
    );
    let plans = [("leaf", leaf_group_by()), ("join", join_group_by()), ("sort", sorted)];
    for sdb in [&plain, &pk, &bdcc] {
        for spill in [SpillMode::Off, SpillMode::Force] {
            for (name, plan) in &plans {
                let a = QueryContext::new(Arc::clone(sdb)).with_spill(spill);
                let b =
                    QueryContext::with_parallel(Arc::clone(sdb), ParallelConfig::with_threads(1))
                        .with_spill(spill);
                assert_eq!(a.parallel, b.parallel);
                let (a, b) =
                    (explain_analyze(&a, plan).unwrap(), explain_analyze(&b, plan).unwrap());
                let case = format!("{name} on {} ({spill:?})", sdb.scheme.name());
                assert_eq!(labels(&a.profile.root), labels(&b.profile.root), "{case}");
                assert_eq!(a.batch, b.batch, "{case}");
            }
        }
    }
}

#[test]
fn a_budget_plans_a_spilling_hash_aggregate_at_every_width() {
    let sdb = fine_block_plain();
    let plan = leaf_group_by();
    let free = QueryContext::new(Arc::clone(&sdb)).with_spill(SpillMode::Off);
    let (want, free) = run_measured(&free, &plan).unwrap();
    let budget = free.peak_memory / 2;
    for threads in [1, 4] {
        // The budget makes the query spill, and that alone selects the
        // operator: partials have nothing to shed.
        let ctx =
            QueryContext::with_parallel(Arc::clone(&sdb), ParallelConfig::with_threads(threads))
                .with_memory_budget(budget);
        let got = explain_analyze(&ctx, &plan).unwrap();
        let (agg, log) = node_and_log(&got.profile.root, "Aggregate(hash)", "spill");
        assert!(log.starts_with("after(") && agg.spill_bytes > 0, "{threads}t: {log}");
        assert_eq!(want, got.batch, "{threads}t: budgeted result must be byte-identical");
        let peak = got.measurement.peak_memory;
        assert!(peak <= budget, "{threads}t: peak {peak} must fit budget {budget}");
    }
}

#[test]
fn a_broker_plans_no_partial_aggregate_and_spills_only_group_bys() {
    let sdb = fine_block_plain();
    let orders = PlanBuilder::new().scan("orders", &["o_amount"], vec![]);
    let global =
        aggregate(orders, &[], vec![AggSpec::new(AggFunc::Sum, Expr::col("o_amount"), "s")]);
    for threads in [1, 4] {
        let cfg = ParallelConfig { threads, morsel_rows: 256 };
        let ctx =
            |spill| QueryContext::with_parallel(Arc::clone(&sdb), cfg.clone()).with_spill(spill);
        // A global aggregate has one group: nothing to spill.
        let got = explain_analyze(&ctx(SpillMode::Force), &global).unwrap();
        assert_eq!(node_and_log(&got.profile.root, "Aggregate(hash)", "spill").1, "no");
        // A group-by spills every group when forced to.
        let got = explain_analyze(&ctx(SpillMode::Force), &leaf_group_by()).unwrap();
        let (_, log) = node_and_log(&got.profile.root, "Aggregate(hash)", "spill");
        assert_eq!(log, "after(0 rows, 0 groups resident) leaves=8");
        assert_eq!(got.batch.rows(), 8192);
        // When the query does not spill, four threads aggregate partials, and the
        // hash aggregate logs no decision.
        let label = if threads > 1 { "Aggregate(parallel)" } else { "Aggregate(hash)" };
        let got = explain_analyze(&ctx(SpillMode::Off), &leaf_group_by()).unwrap();
        assert_eq!(node_and_log(&got.profile.root, label, "spill").1, "");
    }
}

#[test]
fn a_one_morsel_leaf_aggregates_in_one_table() {
    // Customer is one 512-row block: longer than a 256-row morsel, yet one
    // morsel, so its scan walks inline — and the group-by over it is the
    // hash aggregate, not a partial merge of a single partial.
    let (plain, ..) = schemes();
    let customer = PlanBuilder::new().scan("customer", &["c_nation", "c_score"], vec![]);
    let plan = aggregate(
        customer,
        &["c_nation"],
        vec![AggSpec::new(AggFunc::Sum, Expr::col("c_score"), "s")],
    );
    let cfg = ParallelConfig { threads: 4, morsel_rows: 256 };
    let ctx = QueryContext::with_parallel(Arc::clone(&plain), cfg).with_spill(SpillMode::Off);
    let got = explain_analyze(&ctx, &plan).unwrap();
    assert_eq!(labels(&got.profile.root), ["Aggregate(hash)", "Scan(customer)"]);
    let serial = QueryContext::new(plain).with_spill(SpillMode::Off);
    assert_eq!(got.batch, explain_analyze(&serial, &plan).unwrap().batch);
}

#[test]
fn a_zero_width_runs_serially_under_a_budget() {
    // `threads: 0` is clamped to one thread where the context takes it, so
    // a budget's morsel limit never divides by it.
    let sdb = fine_block_plain();
    let zero = ParallelConfig { threads: 0, morsel_rows: 256 };
    let ctx = QueryContext::with_parallel(Arc::clone(&sdb), zero).with_memory_budget(1 << 20);
    assert_eq!(ctx.parallel, ParallelConfig { threads: 1, morsel_rows: 256 });
    let serial = QueryContext::new(sdb).with_memory_budget(1 << 20);
    let (want, got) =
        (run_measured(&serial, &leaf_group_by()), run_measured(&ctx, &leaf_group_by()));
    assert_eq!(want.unwrap().0, got.unwrap().0);
}

#[test]
fn a_pinned_spill_mode_holds_whichever_comes_first() {
    // `with_spill` pins the query's mode whatever `BDCC_SPILL` says, and a
    // budget set after it keeps that mode.
    let sdb = fine_block_plain();
    let ctx = || QueryContext::new(Arc::clone(&sdb));
    let off = ctx().with_spill(SpillMode::Off).with_memory_budget(1 << 20);
    assert_eq!(off.governor.spill_mode(), SpillMode::Off);
    assert!(!off.governor.spills());
    for budget in [1 << 16, 1 << 20] {
        for mode in [SpillMode::Auto, SpillMode::Force] {
            let pinned_first = ctx().with_spill(mode).with_memory_budget(budget);
            let budget_first = ctx().with_memory_budget(budget).with_spill(mode);
            assert_eq!(
                pinned_first.governor.spill_mode(),
                mode,
                "{mode:?} then a budget of {budget}"
            );
            assert_eq!(
                budget_first.governor.spill_mode(),
                mode,
                "a budget of {budget} then {mode:?}"
            );
            assert_eq!(pinned_first.parallel, budget_first.parallel);
        }
    }
}

#[test]
fn a_profiled_root_records_planning_time() {
    // EXPLAIN ANALYZE puts planning on the root: restriction (BDCC only)
    // and the property pass with the build, in milliseconds.
    let (plain, _, bdcc) = schemes();
    for sdb in [&plain, &bdcc] {
        let got = explain_analyze(&QueryContext::new(Arc::clone(sdb)), &star_query()).unwrap();
        let root = &got.profile.root;
        let ms = |key: &str| -> f64 {
            let log = root.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
            let parsed = log.and_then(|v| v.parse().ok());
            parsed.unwrap_or_else(|| panic!("{key}={log:?} on {}", sdb.scheme.name()))
        };
        assert!(ms("plan.restrict_ms") >= 0.0 && ms("plan.build_ms") > 0.0);
        let mut timed = 0;
        root.walk(&mut |n: &ProfileNode| {
            timed += n.annotations.iter().any(|(k, _)| k.starts_with("plan.")) as usize;
        });
        assert_eq!(timed, 1, "only the root records planning time");
    }
}
