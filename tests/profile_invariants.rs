//! The observability layer's contract, tested across an execution-config
//! matrix: profiling must *observe, never participate*. For every
//! thread-count × morsel-size × spill-mode configuration, a
//! profiled run returns byte-identical results to an unprofiled run of
//! the same context, and the collected [`QueryProfile`] obeys the
//! conservation laws the edge-wrapper design promises:
//!
//! * a parent's rows/batches **in** equal the sum of its children's
//!   rows/batches **out** (every batch crosses exactly one plan edge);
//! * a scan's morsel row count sums to its output rows, and a parallel
//!   aggregate's to its fragment's rows on either strategy (each pool
//!   morsel is booked exactly once);
//! * no operator's peak tracked memory exceeds the query peak (operator
//!   trackers are children of the query tracker);
//! * the root's output is the result batch;
//! * the aggregation strategy is recorded: partial-merge without a
//!   broker, radix under forced spill;
//! * every hash join records which side it indexed, over exactly the rows
//!   that child produced.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{
    aggregate, canonical_rows, explain_analyze, join, run_plan, sort, AggFunc, AggSpec, Expr,
    FkSide, Node, ParallelConfig, PlanBuilder, ProfileNode, QueryContext, QueryProfile, SortKey,
    SpillMode,
};

fn scheme_db() -> Arc<SchemeDb> {
    let db = bdcc::tpch::generate(&GenConfig::new(0.002));
    Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))
}

/// Join + aggregation + top-N: scan, hash/sandwich join, hash aggregate
/// and sort all appear in the profile tree.
fn join_agg_plan() -> Node {
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_orderkey", "o_orderpriority"], vec![]);
    let lineitem = b.scan("lineitem", &["l_orderkey", "l_quantity", "l_extendedprice"], vec![]);
    let lo =
        join(lineitem, orders, &[("l_orderkey", "o_orderkey")], Some(("FK_L_O", FkSide::Left)));
    let agg = aggregate(
        lo,
        &["o_orderpriority"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "revenue"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ],
    );
    sort(agg, vec![SortKey::desc("revenue")], Some(3))
}

/// Aggregation straight over a scan — the shape the planner collapses
/// into a [`ParallelAggregate`] fragment, where the strategy annotation
/// and the per-morsel counters apply.
fn scan_agg_plan() -> Node {
    let b = PlanBuilder::new();
    let lineitem = b.scan("lineitem", &["l_partkey", "l_quantity"], vec![]);
    aggregate(
        lineitem,
        &["l_partkey"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("l_quantity"), "sq"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
        ],
    )
}

/// Every execution configuration under test: width 1 and 4 over two
/// morsel sizes, each in memory and forced out of core (which is also
/// what selects the aggregation strategy).
fn configs() -> Vec<(ParallelConfig, SpillMode)> {
    let mut out = Vec::new();
    for morsel_rows in [256usize, 48] {
        for threads in [1, 4] {
            for spill in [SpillMode::Off, SpillMode::Force] {
                out.push((ParallelConfig { threads, morsel_rows }, spill));
            }
        }
    }
    out
}

fn context(sdb: &Arc<SchemeDb>, (cfg, spill): &(ParallelConfig, SpillMode)) -> QueryContext {
    QueryContext::with_parallel(Arc::clone(sdb), cfg.clone()).with_spill(*spill)
}

/// The conservation laws, checked over the whole tree.
fn check_tree(profile: &QueryProfile) {
    profile.root.walk(&mut |node: &ProfileNode| {
        if !node.children.is_empty() {
            let rows: u64 = node.children.iter().map(|c| c.rows_out).sum();
            let batches: u64 = node.children.iter().map(|c| c.batches_out).sum();
            assert_eq!(node.rows_in, rows, "{}: rows in ≠ Σ children rows out", node.label);
            assert_eq!(node.batches_in, batches, "{}: batches in ≠ Σ children out", node.label);
        }
        if node.label.starts_with("Scan") && node.morsels > 0 {
            assert_eq!(
                node.morsel_rows, node.rows_out,
                "{}: morsel rows must sum to scan output rows",
                node.label
            );
        }
        assert!(
            node.peak_memory <= profile.peak_memory,
            "{}: operator peak {} above query peak {}",
            node.label,
            node.peak_memory,
            profile.peak_memory
        );
    });
}

#[test]
fn profiled_runs_are_identical_and_profiles_conserve() {
    let sdb = scheme_db();
    for (name, plan) in [("join_agg", join_agg_plan()), ("scan_agg", scan_agg_plan())] {
        for cfg in configs() {
            let ctx = context(&sdb, &cfg);
            let plain = run_plan(&ctx, &plan).expect("unprofiled run");
            let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
            // Byte-identical, not merely equivalent: the full debug
            // rendering includes every column value bit-for-bit.
            assert_eq!(
                format!("{plain:?}"),
                format!("{:?}", analyzed.batch),
                "{name} under {cfg:?}: profiling changed the result"
            );
            assert_eq!(canonical_rows(&plain), canonical_rows(&analyzed.batch));

            let profile = &analyzed.profile;
            assert_eq!(
                profile.root.rows_out as usize,
                analyzed.batch.rows(),
                "{name} under {cfg:?}: root rows out must be the result rows"
            );
            check_tree(profile);
        }
    }
}

#[test]
fn aggregation_strategy_is_recorded_and_books_every_fragment_row() {
    let sdb = scheme_db();
    let plan = scan_agg_plan();
    for (spill, expect) in [(SpillMode::Off, "partial-merge"), (SpillMode::Force, "radix")] {
        let cfg = ParallelConfig { threads: 4, morsel_rows: 256 };
        let ctx = context(&sdb, &(cfg, spill));
        let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
        // Every fragment row is counted into exactly one group's `n`.
        let counts = analyzed.batch.columns[2].as_i64().expect("count column");
        let fragment_rows = counts.iter().sum::<i64>() as u64;
        assert!(fragment_rows > 10_000, "lineitem at SF 0.002, got {fragment_rows}");
        let mut seen = 0;
        analyzed.profile.root.walk(&mut |node: &ProfileNode| {
            if node.label.starts_with("Aggregate(parallel)") {
                seen += 1;
                let strategy = node.annotations.iter().find(|(n, _)| n == "strategy");
                assert_eq!(
                    strategy.map(|(_, v)| v.as_str()),
                    Some(expect),
                    "{spill:?} must decide the strategy"
                );
                assert!(node.morsels > 1, "{expect}: the fan-out must book its morsels");
                assert_eq!(
                    node.morsel_rows, fragment_rows,
                    "{expect}: morsel rows must sum to the fragment's rows"
                );
            }
        });
        assert_eq!(seen, 1, "the plan must contain one parallel aggregate");
    }
}

/// Without `with_profiling`, a context carries no profiler — the
/// disabled path allocates nothing and wraps nothing.
#[test]
fn profiling_is_off_by_default() {
    let sdb = scheme_db();
    assert!(QueryContext::new(Arc::clone(&sdb)).profiler.is_none());
    assert!(QueryContext::new(sdb).with_profiling().profiler.is_some());
}

/// The scan decision log: every BDCC scan of Q3 reports how many
/// count-table groups it reads, and each use the date / segment predicates
/// restrict reports its surviving bins and the host that decided; a Plain
/// scan of the same plan carries neither.
#[test]
fn bdcc_scans_log_their_group_selection() {
    let sf = 0.002;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let bdcc = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"));
    let q3 = all_queries().into_iter().find(|q| q.id == 3).expect("Q3");
    let ctx = QueryCtx::recording(QueryContext::new(Arc::clone(&bdcc)), sf);
    (q3.run)(&ctx).expect("Q3 runs");
    let plan = ctx.take_plans().pop().expect("Q3 is one plan");

    let scan_logs = |sdb: Arc<SchemeDb>| {
        let analyzed = explain_analyze(&QueryContext::new(sdb), &plan).expect("explain analyze");
        let mut logs: Vec<(String, Vec<(String, String)>)> = Vec::new();
        analyzed.profile.root.walk(&mut |node: &ProfileNode| {
            if node.label.starts_with("Scan(") {
                let log = node
                    .annotations
                    .iter()
                    .filter(|(k, _)| k == "groups" || k.starts_with("restrict."));
                logs.push((node.label.clone(), log.cloned().collect()));
            }
        });
        (logs, analyzed.profile.render())
    };

    let (logs, rendered) = scan_logs(bdcc);
    assert_eq!(logs.len(), 3, "customer, orders, lineitem: {logs:?}");
    for (label, log) in &logs {
        let groups = log.iter().find(|(k, _)| k == "groups").map(|(_, v)| v.as_str());
        let (selected, total) = groups
            .and_then(|v| v.split_once('/'))
            .unwrap_or_else(|| panic!("{label}: groups = selected/total, got {log:?}"));
        let (selected, total): (usize, usize) = (selected.parse().unwrap(), total.parse().unwrap());
        assert!(selected <= total && total > 0, "{label}: {selected}/{total}");
    }
    let of = |table: &str| &logs.iter().find(|(l, _)| l == &format!("Scan({table})")).unwrap().1;
    // `o_orderdate < date` restricts D_DATE on its host and, propagated
    // over FK_L_O, on LINEITEM.
    for table in ["orders", "lineitem"] {
        let date = of(table).iter().find(|(k, _)| k == "restrict.D_DATE");
        let (_, v) = date.unwrap_or_else(|| panic!("{table}: no restrict.D_DATE in {logs:?}"));
        assert!(v.ends_with(" via orders"), "{table}: {v}");
        let (surviving, bins) = v.trim_end_matches(" via orders").split_once('/').unwrap();
        let (surviving, bins): (u64, u64) = (surviving.parse().unwrap(), bins.parse().unwrap());
        assert!(0 < surviving && surviving < bins, "{table}: {v}");
    }
    assert!(rendered.contains("restrict.D_DATE="), "EXPLAIN ANALYZE prints the log:\n{rendered}");

    let (logs, _) = scan_logs(Arc::new(plain_scheme(&db)));
    assert_eq!(logs.len(), 3);
    assert!(logs.iter().all(|(_, log)| log.is_empty()), "a Plain scan selects no groups: {logs:?}");
}

/// The join slice of the decision log: every `Join(hash)` of Q21 and Q22
/// names the side it indexed, `build_rows` / `build=side(n)` are that
/// child's rows, a left build streamed exactly the right child's rows, and
/// Q21's two top joins (`l1 ⋉ l2`, `l1 ▷ l3`: a few filtered rows against
/// all of LINEITEM) index their left side on every scheme.
#[test]
fn hash_joins_log_the_side_they_indexed() {
    let sf = 0.005;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).expect("pk scheme"))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    for (scheme, sdb) in &schemes {
        // In memory whatever `BDCC_SPILL` says: a spilled build logs
        // `build=spilled(leaves)` instead.
        let qc = || QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Off);
        for id in [21, 22] {
            let q = all_queries().into_iter().find(|q| q.id == id).expect("query");
            let ctx = QueryCtx::recording(qc(), sf);
            (q.run)(&ctx).expect("query runs");
            let plan = ctx.take_plans().pop().expect("the last plan holds the joins");
            let analyzed = explain_analyze(&qc(), &plan).expect("explain analyze");
            check_tree(&analyzed.profile);
            let mut raced = Vec::new();
            analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                if node.label != "Join(hash)" {
                    return;
                }
                let at = format!("Q{id} on {scheme}: {:?}", node.annotations);
                let get = |key: &str| {
                    node.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
                };
                let build = get("build").unwrap_or_else(|| panic!("no build= — {at}"));
                let (side, rows) = build.trim_end_matches(')').split_once('(').expect("side(n)");
                let indexed = &node.children[usize::from(side == "right")];
                assert!(side == "left" || side == "right", "{at}");
                assert_eq!(rows.parse::<u64>().ok(), Some(indexed.rows_out), "{at}");
                assert_eq!(get("build_rows"), Some(rows), "{at}");
                let streamed = get("streamed").map(|v| v.parse::<u64>().expect("a count"));
                let expect = (side == "left").then_some(node.children[1].rows_out);
                assert_eq!(streamed, expect, "{at}");
                if get("race").is_some() {
                    raced.push(side.to_string());
                }
            });
            match id {
                21 => assert_eq!(raced, ["left", "left"], "Q21 on {scheme}"),
                _ => assert_eq!(raced.len(), 1, "Q22 on {scheme} has one anti join"),
            }
        }
    }
}
