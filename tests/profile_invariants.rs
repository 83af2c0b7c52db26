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
//!   aggregate's to its fragment's rows (each pool morsel is booked exactly
//!   once);
//! * no operator's peak tracked memory exceeds the query peak (operator
//!   trackers are children of the query tracker);
//! * the root's output is the result batch;
//! * the aggregation strategy is recorded: a leaf aggregate is
//!   partial-merge when the query does not spill and the one hash table
//!   under forced spill; every hash aggregate of a query that spills logs
//!   whether and when it spilled, and on BDCC every aggregate its sandwich
//!   keys or why it has none;
//! * every hash join records which side it indexed, over exactly the rows
//!   that child produced; a spilled one how many leaves it split into and
//!   that it restored each of them once.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{
    aggregate, canonical_rows, explain_analyze, join, join_full, run_plan, sort, AggFunc, AggSpec,
    Expr, FkSide, JoinType, Node, ParallelConfig, PlanBuilder, ProfileNode, QueryContext,
    QueryProfile, SortKey, SpillMode,
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
/// into a `ParallelAggregate` fragment when the query does not spill, where the
/// per-morsel counters apply.
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
    // In memory the leaf aggregate is partial-merge over the fragment;
    // forced out of core it is the hash aggregate above the scan, which
    // stops taking groups before its first batch.
    let cases = [(SpillMode::Off, "Aggregate(parallel)"), (SpillMode::Force, "Aggregate(hash)")];
    for (spill, label) in cases {
        let cfg = ParallelConfig { threads: 4, morsel_rows: 256 };
        let ctx = context(&sdb, &(cfg, spill));
        let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
        // Every fragment row is counted into exactly one group's `n`.
        let counts = analyzed.batch.columns[2].as_i64().expect("count column");
        let fragment_rows = counts.iter().sum::<i64>() as u64;
        assert!(fragment_rows > 10_000, "lineitem at SF 0.002, got {fragment_rows}");
        let mut seen = 0;
        analyzed.profile.root.walk(&mut |node: &ProfileNode| {
            if !node.label.starts_with("Aggregate(") {
                return;
            }
            seen += 1;
            assert_eq!(node.label, label, "{spill:?} must decide the strategy");
            let spill_log = annotation(node, "spill");
            if spill == SpillMode::Off {
                assert!(node.morsels > 1, "{label}: the fan-out must book its morsels");
                assert_eq!(
                    node.morsel_rows, fragment_rows,
                    "{label}: morsel rows must sum to the fragment's rows"
                );
                assert_eq!(spill_log, None, "a query that does not spill logs no spill decision");
            } else {
                assert_eq!(node.rows_in, fragment_rows, "{label}: every scan row reaches it");
                assert_eq!(spill_log, Some("after(0 rows, 0 groups resident) leaves=8"));
                assert!(node.spill_bytes > 0 && node.spill_restore_bytes == node.spill_bytes);
            }
        });
        assert_eq!(seen, 1, "the plan must contain one aggregate");
    }
}

fn annotation<'a>(node: &'a ProfileNode, key: &str) -> Option<&'a str> {
    node.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Is `log` a hash aggregate's spill decision: `no`, or
/// `after(<rows> rows, <groups> groups resident) leaves=<n>`?
fn is_spill_decision(log: &str) -> bool {
    let after = || {
        let rest = log.strip_prefix("after(")?;
        let (rows, rest) = rest.split_once(" rows, ")?;
        let (groups, leaves) = rest.split_once(" groups resident) leaves=")?;
        [rows, groups, leaves].iter().all(|n| n.parse::<u64>().is_ok()).then_some(())
    };
    log == "no" || after().is_some()
}

/// The aggregate slice of the decision log, over the 22 queries forced out
/// of core: every `Aggregate(hash)` says whether and when it spilled; on
/// BDCC every `Aggregate(sandwich)` names its group keys and every other
/// aggregate the first sandwich check that failed; on Plain no aggregate
/// carries a sandwich log. Prints how often each reason occurs on BDCC.
#[test]
fn aggregates_log_their_spill_and_sandwich_decisions() {
    const REASONS: [&str; 3] = ["global", "no-instance", "not-determined"];
    let sf = 0.002;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    for (scheme, sdb) in &schemes {
        let qc = || QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Force);
        let mut histogram = std::collections::BTreeMap::<String, usize>::new();
        for q in all_queries() {
            let ctx = QueryCtx::recording(qc(), sf);
            (q.run)(&ctx).expect("query runs");
            for plan in ctx.take_plans() {
                let analyzed = explain_analyze(&qc(), &plan).expect("explain analyze");
                analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                    if !node.label.starts_with("Aggregate(") {
                        return;
                    }
                    let at =
                        format!("Q{:02} on {scheme}: {} {:?}", q.id, node.label, node.annotations);
                    let spill = annotation(node, "spill");
                    let hashed = node.label == "Aggregate(hash)";
                    assert_eq!(
                        spill.is_some(),
                        hashed,
                        "a spill log on each hash aggregate — {at}"
                    );
                    assert!(spill.is_none_or(is_spill_decision), "{at}");
                    let sandwich = annotation(node, "sandwich");
                    match (*scheme, node.label.as_str(), sandwich) {
                        ("bdcc", "Aggregate(sandwich)", Some(keys)) => {
                            assert!(keys.contains(" keys ("), "{at}");
                            *histogram.entry("sandwich".into()).or_default() += 1;
                        }
                        ("bdcc", _, Some(log)) => {
                            let why = log.strip_prefix("no(").and_then(|v| v.strip_suffix(')'));
                            assert!(why.is_some_and(|w| REASONS.contains(&w)), "{at}");
                            *histogram.entry(log.to_string()).or_default() += 1;
                        }
                        ("plain", _, None) => {}
                        _ => panic!("wrong sandwich log — {at}"),
                    }
                });
            }
        }
        if *scheme == "bdcc" {
            println!("BDCC aggregates by sandwich decision: {histogram:?}");
            assert!(histogram.contains_key("sandwich") && histogram.len() > 1, "{histogram:?}");
        }
    }
}

/// The operators a co-clustering bounds never spill: over the 22 queries
/// on BDCC forced out of core, every `Join(sandwich)` and
/// `Aggregate(sandwich)` books no spill file or byte and logs no spill
/// decision — whatever the mode, they hold one co-cluster at a time.
#[test]
fn sandwich_operators_book_no_spill_under_force() {
    let sf = 0.002;
    let sdb = scheme_db();
    let qc = || QueryContext::new(Arc::clone(&sdb)).with_spill(SpillMode::Force);
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    for q in all_queries() {
        let ctx = QueryCtx::recording(qc(), sf);
        (q.run)(&ctx).expect("query runs");
        for plan in ctx.take_plans() {
            let analyzed = explain_analyze(&qc(), &plan).expect("explain analyze");
            analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                if !node.label.ends_with("(sandwich)") {
                    return;
                }
                let at = format!("Q{:02}: {} {:?}", q.id, node.label, node.annotations);
                assert_eq!((node.spill_partitions, node.spill_bytes), (0, 0), "{at}");
                assert_eq!(annotation(node, "spill"), None, "{at}");
                assert_eq!(annotation(node, "spill_mode"), None, "{at}");
                *seen.entry(node.label.clone()).or_default() += 1;
            });
        }
    }
    let labels: Vec<&str> = seen.keys().map(String::as_str).collect();
    assert_eq!(labels, ["Aggregate(sandwich)", "Join(sandwich)"], "{seen:?}");
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

/// The spilled slice of the join log: forced out of core, ORDERS ⋈ LINEITEM
/// (LINEITEM, several batches, is the build) keeps `build=spilled(leaves)`
/// and adds `probe=partitioned(n)` and `restores=k` — one probe partition
/// per leaf and every leaf restored once, not once per probe round.
#[test]
fn a_spilled_hash_join_logs_linear_restores() {
    let sdb = scheme_db();
    let b = PlanBuilder::new();
    let orders = b.scan("orders", &["o_orderkey", "o_orderdate"], vec![]);
    let lineitem = b.scan("lineitem", &["l_orderkey", "l_quantity"], vec![]);
    let plan =
        join_full(orders, lineitem, &[("o_orderkey", "l_orderkey")], JoinType::Inner, None, None);
    let analyzed = explain_analyze(&QueryContext::new(sdb).with_spill(SpillMode::Force), &plan)
        .expect("explain analyze");
    check_tree(&analyzed.profile);
    let mut logs = Vec::new();
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        if node.label == "Join(hash)" {
            logs.push((node.annotations.clone(), node.children[1].rows_out));
        }
    });
    let [(log, build_rows)] = logs.as_slice() else { panic!("one hash join: {logs:?}") };
    let get = |key: &str| {
        let value = log.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        value.unwrap_or_else(|| panic!("no {key}= in {log:?}"))
    };
    let count = |key: &str, name: &str| -> u64 {
        let value = get(key);
        let inner = value.strip_prefix(name).and_then(|v| v.strip_prefix('(')?.strip_suffix(')'));
        inner.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("{key}={value}"))
    };
    let leaves = count("build", "spilled");
    assert_eq!(leaves, 16, "no budget: one leaf per top-level partition");
    assert_eq!(get("build_rows").parse::<u64>().ok(), Some(*build_rows));
    assert_eq!(count("probe", "partitioned"), leaves);
    assert_eq!(get("restores").parse::<u64>().ok(), Some(leaves), "each leaf restored once");
    let rendered = analyzed.profile.render();
    assert!(rendered.contains("restores=16"), "EXPLAIN ANALYZE prints it:\n{rendered}");
}

/// The sandwich slice of the decision log, over the 22 queries at SF 0.005:
/// on BDCC every `Join(hash)` names the one reason it is no sandwich — the
/// first check of the planner's that failed, from a closed set — and every
/// `Join(sandwich)` its group keys with their bits; on Plain and PK no join
/// carries either. Prints how often each reason occurs on BDCC.
#[test]
fn bdcc_joins_log_why_they_are_no_sandwich() {
    const REASONS: [&str; 4] =
        ["join-type", "no-fk", "no-shared-instance", "requested-not-two-sided"];
    let sf = 0.005;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).expect("pk scheme"))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    for (scheme, sdb) in &schemes {
        let mut histogram = std::collections::BTreeMap::<String, usize>::new();
        for q in all_queries() {
            let ctx = QueryCtx::recording(QueryContext::new(Arc::clone(sdb)), sf);
            (q.run)(&ctx).expect("query runs");
            for plan in ctx.take_plans() {
                let analyzed = explain_analyze(&QueryContext::new(Arc::clone(sdb)), &plan)
                    .expect("explain analyze");
                analyzed.profile.root.walk(&mut |node: &ProfileNode| {
                    if !node.label.starts_with("Join(") {
                        return;
                    }
                    let at =
                        format!("Q{:02} on {scheme}: {} {:?}", q.id, node.label, node.annotations);
                    let logs: Vec<&str> = (node.annotations.iter())
                        .filter(|(k, _)| k == "sandwich")
                        .map(|(_, v)| v.as_str())
                        .collect();
                    match (*scheme, node.label.as_str()) {
                        ("bdcc", "Join(hash)") => {
                            let [log] = logs[..] else { panic!("one reason — {at}") };
                            let why = log.strip_prefix("no(").and_then(|v| v.strip_suffix(')'));
                            assert!(why.is_some_and(|w| REASONS.contains(&w)), "{at}");
                            *histogram.entry(log.to_string()).or_default() += 1;
                        }
                        ("bdcc", "Join(sandwich)") => {
                            let [log] = logs[..] else { panic!("one key list — {at}") };
                            let (n, keys) = log.split_once(" keys (").expect("<n> keys (…)");
                            let n: usize = n.parse().expect("a key count");
                            assert_eq!(
                                keys.matches('/').count(),
                                n,
                                "one bit count per key — {at}"
                            );
                            *histogram.entry("sandwich".into()).or_default() += 1;
                        }
                        _ => assert!(logs.is_empty(), "{at}"),
                    }
                });
            }
        }
        if *scheme == "bdcc" {
            println!("BDCC joins by sandwich decision: {histogram:?}");
            assert!(histogram.contains_key("sandwich") && histogram.len() > 1, "{histogram:?}");
        }
    }
}
