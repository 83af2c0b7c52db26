//! The parallel-execution counterpart of `cross_scheme.rs`: every TPC-H
//! query must return **identical** results under morsel-driven parallel
//! execution and serial execution, for each of the three storage schemes.
//! The morsel size is forced far below the defaults so that every table
//! splits into many morsels and both fan-outs (the sandwich aggregate's
//! co-cluster concat, the hash aggregate's partial fold) actually run.
//! Only an aggregate directly over a leaf fans out; every scan walks
//! inline and everything above — joins and sorts included — runs as at
//! width 1, and `no_join_fans_out` pins that no join, nor a scan below
//! one, books a morsel.
//!
//! The worker count honours `BDCC_THREADS` (default 4) and the morsel
//! size honours `BDCC_MORSEL_ROWS` (default 256) so CI can run the same
//! suite across a threads × morsel-size matrix in release mode.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::ops::agg::HashAggregate;
use bdcc_exec::ops::collect;
use bdcc_exec::ops::scan::{Run, Scan, ScanBlueprint};
use bdcc_exec::parallel::morsel::split_runs;
use bdcc_exec::parallel::{CoClusterAggregate, FragmentBlueprint, ParallelAggregate};
use bdcc_exec::{
    explain_analyze, AggFunc, AggSpec, Expr, Governor, MemoryTracker, OpEnv, OpMetrics,
    ParallelConfig, ProfileNode, QueryContext, SpillMode,
};
use bdcc_storage::IoTracker;

/// An unprofiled, ungoverned operator's environment charging `tracker`.
fn env(tracker: &Arc<MemoryTracker>) -> OpEnv {
    OpEnv::new(IoTracker::new(), Arc::clone(tracker))
}

/// Worker count under test: `BDCC_THREADS`, default 4 (1 exercises the
/// serial planning paths end to end).
fn test_threads() -> usize {
    std::env::var("BDCC_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// Morsel size under test: `BDCC_MORSEL_ROWS`, default 256 — small enough
/// that even SF 0.002 tables split into dozens of morsels (CI also runs a
/// tiny-morsel configuration to stress morsel splitting).
fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

fn schemes() -> (f64, Vec<Arc<SchemeDb>>) {
    let sf = 0.002;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let plain = Arc::new(plain_scheme(&db));
    let pk = Arc::new(pk_scheme(&db).expect("pk scheme"));
    let bdcc = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"));
    (sf, vec![plain, pk, bdcc])
}

/// Row-wise comparison of two canonical row sets that treats float fields
/// numerically: serial and parallel compensated sums are each within ~1 ulp
/// of the true value but associate differently, and a 1-ulp difference can
/// flip the last printed digit exactly on a decimal rounding boundary. A
/// tiny relative tolerance keeps the suite from ever failing on such a
/// boundary artifact while still catching any real divergence.
fn rows_equivalent(a: &[String], b: &[String]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        let (fa, fb): (Vec<&str>, Vec<&str>) = (ra.split('|').collect(), rb.split('|').collect());
        fa.len() == fb.len()
            && fa.iter().zip(&fb).all(|(x, y)| {
                if x == y {
                    return true;
                }
                match (x.parse::<f64>(), y.parse::<f64>()) {
                    (Ok(vx), Ok(vy)) => (vx - vy).abs() <= 1e-9 * vx.abs().max(vy.abs()).max(1.0),
                    _ => false,
                }
            })
    })
}

#[test]
fn all_queries_parallel_equals_serial_on_all_schemes() {
    let (sf, sdbs) = schemes();
    let mut failures = Vec::new();
    for q in all_queries() {
        for sdb in &sdbs {
            let serial = match (q.run)(&QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf)) {
                Ok(s) => canonical_rows(&s),
                Err(e) => {
                    failures.push(format!(
                        "{} serial failed on {}: {e}",
                        q.name,
                        sdb.scheme.name()
                    ));
                    continue;
                }
            };
            // Both sides of the engine's one strategy switch: in memory
            // (partial-merge aggregation, resident join builds) and forced
            // out of core (spilling hash aggregates and join builds). Each
            // must reproduce serial execution.
            for spill in [SpillMode::Off, SpillMode::Force] {
                let par_cfg =
                    ParallelConfig { threads: test_threads(), morsel_rows: test_morsel_rows() };
                let par_ctx = QueryCtx::new(
                    QueryContext::with_parallel(Arc::clone(sdb), par_cfg).with_spill(spill),
                    sf,
                );
                match (q.run)(&par_ctx) {
                    Ok(p) => {
                        let p = canonical_rows(&p);
                        if !rows_equivalent(&serial, &p) {
                            failures.push(format!(
                                "{} on {} (spill={spill:?}): serial {} rows vs parallel {} \
                                 rows; first diff: {:?} vs {:?}",
                                q.name,
                                sdb.scheme.name(),
                                serial.len(),
                                p.len(),
                                serial.iter().find(|r| !p.contains(r)),
                                p.iter().find(|r| !serial.contains(r)),
                            ));
                        }
                    }
                    Err(e) => failures.push(format!(
                        "{} parallel failed on {} (spill={spill:?}): {e}",
                        q.name,
                        sdb.scheme.name()
                    )),
                }
            }
        }
    }
    assert!(failures.is_empty(), "parallel/serial disagreement:\n{}", failures.join("\n"));
}

#[test]
fn tiny_morsels_force_many_scan_morsels() {
    // 32-row morsels split every scan into many morsels; join- and
    // sort-heavy queries (inner, semi, anti and left outer joins) must
    // still match serial execution exactly.
    let (sf, sdbs) = schemes();
    let par_cfg = ParallelConfig { threads: test_threads().max(2), morsel_rows: 32 };
    let heavy = [2usize, 3, 4, 10, 13, 18, 21, 22];
    let mut failures = Vec::new();
    for q in all_queries().into_iter().filter(|q| heavy.contains(&q.id)) {
        for sdb in &sdbs {
            let serial = (q.run)(&QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf));
            let parallel = (q.run)(&QueryCtx::new(
                QueryContext::with_parallel(Arc::clone(sdb), par_cfg.clone()),
                sf,
            ));
            match (serial, parallel) {
                (Ok(s), Ok(p)) => {
                    let (s, p) = (canonical_rows(&s), canonical_rows(&p));
                    if !rows_equivalent(&s, &p) {
                        failures.push(format!("{} on {}", q.name, sdb.scheme.name()));
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    failures.push(format!("{} on {}: {e}", q.name, sdb.scheme.name()))
                }
            }
        }
    }
    assert!(failures.is_empty(), "tiny-morsel disagreement: {}", failures.join(", "));
}

/// Visit every node of `node`'s tree with whether a `Join…` sits above it.
fn walk_below_joins(node: &ProfileNode, below: bool, visit: &mut dyn FnMut(&ProfileNode, bool)) {
    visit(node, below);
    let below = below || node.label.starts_with("Join");
    node.children.iter().for_each(|c| walk_below_joins(c, below, visit));
}

#[test]
fn no_join_fans_out() {
    // A join probes on the calling thread at every width, over scans that
    // walk inline: at 4 threads and 32-row morsels no `Join…` profile node
    // and no `Scan(…)` below one books a morsel, on any scheme. What fans
    // out is an aggregate directly over a leaf: Q18's over LINEITEM on
    // Plain, and on BDCC Q13's and Q18's `Aggregate(sandwich)` over ORDERS
    // and LINEITEM, a co-cluster at a time. (PK streams Q18's, and Q13's
    // ORDERS is one MinMax block — one morsel — at this scale.) Q03, Q04,
    // Q13, Q18 and Q21 hold inner, semi, left outer and anti joins; spill
    // is off so every hash join probes in memory.
    let (sf, sdbs) = schemes();
    let cfg = ParallelConfig { threads: 4, morsel_rows: 32 };
    let picked = [3usize, 4, 13, 18, 21];
    for sdb in &sdbs {
        let qc =
            || QueryContext::with_parallel(Arc::clone(sdb), cfg.clone()).with_spill(SpillMode::Off);
        let mut morsels = 0;
        for q in all_queries().into_iter().filter(|q| picked.contains(&q.id)) {
            let ctx = QueryCtx::recording(qc(), sf);
            (q.run)(&ctx).expect("query runs");
            let (mut joins, mut sandwich_morsels) = (0, 0);
            for plan in ctx.take_plans() {
                let analyzed = explain_analyze(&qc(), &plan).expect("explain analyze");
                walk_below_joins(&analyzed.profile.root, false, &mut |node, below_join| {
                    morsels += node.morsels;
                    let at = format!("{} on {}: {}", q.name, sdb.scheme.name(), node.label);
                    if node.label.starts_with("Join") {
                        joins += 1;
                        assert_eq!(node.morsels, 0, "{at} fanned out");
                    }
                    if below_join && node.label.starts_with("Scan(") {
                        assert_eq!(node.morsels, 0, "{at} below a join fanned out");
                    }
                    if node.label == "Aggregate(sandwich)" {
                        sandwich_morsels += node.morsels;
                    }
                });
            }
            assert!(joins > 0, "{} on {} plans a join", q.name, sdb.scheme.name());
            if sdb.scheme == Scheme::Bdcc && [13, 18].contains(&q.id) {
                assert!(sandwich_morsels > 0, "{}'s sandwich aggregate fans out", q.name);
            }
        }
        if sdb.scheme != Scheme::Pk {
            assert!(morsels > 0, "no leaf aggregate fanned out on {}", sdb.scheme.name());
        }
    }
}

#[test]
fn co_cluster_fan_out_memory_stays_co_cluster_bounded() {
    // A sandwich aggregate over LINEITEM, co-clustered on l_orderkey / 64
    // (one run a co-cluster) and grouped by l_orderkey, fanned out: each
    // morsel's finished groups stay charged until the consumer moves on,
    // so the tracked peak is O(threads × largest morsel output) — whole
    // co-clusters up to the morsel size — not the whole output.
    let db = bdcc::tpch::generate(&GenConfig::new(0.005));
    let li = db.stored_by_name("lineitem").expect("lineitem stored");
    let keys = li.column_by_name("l_orderkey").expect("l_orderkey");
    let keys = keys.as_i64().expect("int keys");
    let mut runs: Vec<Run> = Vec::new();
    for (row, &k) in keys.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if run.keys[0] == k / 64 => run.count += 1,
            _ => runs.push(Run { start: row, count: 1, keys: vec![k / 64] }),
        }
    }
    assert!(runs.windows(2).all(|w| w[0].keys < w[1].keys), "lineitem is in l_orderkey order");
    let cols = ["l_orderkey", "l_quantity", "l_extendedprice"];
    let names = ["__gk".to_string()];
    let blueprint = ScanBlueprint::new(Arc::clone(li), &cols, vec![], &names, runs).unwrap();
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, Expr::col("l_quantity"), "q"),
        AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev"),
        AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
    ];
    let whole = 0..blueprint.runs().len();
    let inline = Box::new(Scan::over(Arc::clone(&blueprint), env(&MemoryTracker::new()), whole));
    let serial =
        HashAggregate::new(inline, &["l_orderkey"], aggs.clone(), env(&MemoryTracker::new()));
    let serial = collect(Box::new(serial.unwrap().with_runs(vec![3]))).unwrap();
    let output_bytes = serial.estimated_bytes();
    // Clamp the worker count: the in-flight cap grows with threads
    // (O(threads) morsels) while the morsel count is fixed, so an
    // unclamped BDCC_THREADS (say 16) would make the "far below the whole
    // output" half of the assertion meaningless, not wrong.
    let threads = test_threads().clamp(2, 4);
    let morsel_rows = 256;
    let morsels = blueprint.morsels(morsel_rows);
    assert!(morsels.len() >= 32, "need many morsels for the bound to mean anything");
    // A morsel closes once it holds `morsel_rows`, so it holds fewer rows
    // than that plus its last co-cluster; each row makes at most a group.
    let largest_run = blueprint.runs().iter().map(|r| r.count).max().unwrap();
    let per_group = output_bytes / serial.rows() as u64;
    let largest_output = (morsel_rows + largest_run) as u64 * per_group;
    let tracker = MemoryTracker::new();
    let fragment = FragmentBlueprint { scan: Arc::clone(&blueprint), steps: vec![] };
    let agg =
        CoClusterAggregate::new(fragment, morsels, &["l_orderkey"], aggs, threads, env(&tracker));
    let fanned = collect(Box::new(agg.unwrap())).unwrap();
    assert_eq!(serial, fanned, "the fan-out must be the serial sandwich aggregate");
    assert!(tracker.peak() > 0, "finished morsels must be charged while in flight");
    // Two morsels a thread in flight, and the one handed out last.
    let bound = (2 * threads as u64 + 1) * largest_output;
    assert!(
        tracker.peak() <= bound && tracker.peak() * 4 <= output_bytes,
        "peak {} exceeds the co-cluster bound {bound} (output {output_bytes})",
        tracker.peak(),
    );
    assert_eq!(tracker.current(), 0);
}

#[test]
fn budgeted_hash_aggregation_fits_half_the_partial_merge_peak() {
    // The high-cardinality group-by matrix: per-key groups (one group per
    // ORDERS key / per PART key) over LINEITEM rebuilt with small blocks
    // and a *shuffled* row order, so group keys scatter across morsels —
    // the workload where every morsel's partial re-materializes most
    // groups it touches and the partial fold holds ~O(rows) states. What
    // a caller can rely on there: set a budget of half that peak, and the
    // aggregate the planner builds under it — one hash table over the scan
    // walked inline, spilling as needed — finishes byte-identical to
    // serial with its tracked peak inside the budget; so it does under a
    // budget of half its own unbudgeted peak, where it must spill.
    let db = bdcc::tpch::generate(&GenConfig::new(0.005));
    let li = db.stored_by_name("lineitem").expect("lineitem stored");
    let rows = li.rows();
    // Deterministic shuffle: a multiplicative permutation (stride coprime
    // to the row count).
    let stride = (0..).map(|k| rows / 2 + 17 + k).find(|s| gcd(*s, rows) == 1).unwrap();
    let perm: Vec<usize> = (0..rows).map(|i| (i * stride) % rows).collect();
    let cols = ["l_orderkey", "l_partkey", "l_extendedprice", "l_quantity"];
    let named: Vec<(String, Column)> = cols
        .iter()
        .map(|c| (c.to_string(), li.column_by_name(c).expect("column").gather(&perm)))
        .collect();
    let small = Arc::new(
        StoredTable::from_columns_with_block_rows("lineitem", named, 256).expect("rebuild"),
    );
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev"),
        AggSpec::new(AggFunc::Avg, Expr::col("l_quantity"), "aq"),
        AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
    ];
    let blueprint = || ScanBlueprint::blocks(Arc::clone(&small), &cols, vec![]).unwrap();
    let run_partial = |group: &str, cfg: &ParallelConfig| {
        let tracker = MemoryTracker::new();
        let scan = blueprint();
        let morsels = scan.morsels(cfg.morsel_rows);
        let fragment = FragmentBlueprint { scan, steps: vec![] };
        let agg = ParallelAggregate::new(
            fragment,
            morsels,
            &[group],
            aggs.clone(),
            cfg.threads,
            env(&tracker),
        );
        let out = collect(Box::new(agg.unwrap())).unwrap();
        (out, tracker.peak())
    };
    // The hash aggregate over the inline scan, under `budget`: its output,
    // tracked peak and spilled bytes.
    let run_hash = |group: &str, budget: Option<u64>| {
        let tracker = MemoryTracker::new();
        let mut governor = Governor::none();
        governor.set_spill(SpillMode::Auto);
        if let Some(b) = budget {
            governor.set_budget(b, &tracker);
        }
        let runs = 0..small.block_count();
        let scan = Box::new(Scan::over(blueprint(), env(&tracker), runs));
        let metrics = OpMetrics::new();
        let agg_env = OpEnv { metrics: Some(Arc::clone(&metrics)), governor, ..env(&tracker) };
        let out =
            collect(Box::new(HashAggregate::new(scan, &[group], aggs.clone(), agg_env).unwrap()))
                .unwrap();
        (out, tracker.peak(), metrics.spill_bytes.get())
    };
    for group in ["l_orderkey", "l_partkey"] {
        let serial_env = env(&MemoryTracker::new());
        let scan =
            Box::new(Scan::blocks(Arc::clone(&small), serial_env.clone(), &cols, vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(scan, &[group], aggs.clone(), serial_env).unwrap(),
        ))
        .unwrap();
        assert!(serial.rows() > 500, "need a fine-grained group-by, got {}", serial.rows());
        let fits = |budget: u64, case: String| {
            let (out, peak, spilled) = run_hash(group, Some(budget));
            assert_eq!(serial, out, "{case}: must be byte-identical to serial");
            assert!(peak <= budget, "{case}: peak {peak} over {budget} ({} groups)", serial.rows());
            spilled
        };
        for threads in [2, 4] {
            let cfg = ParallelConfig { threads, morsel_rows: 256 };
            let (partial_out, partial_peak) = run_partial(group, &cfg);
            assert!(
                rows_equivalent(&canonical_rows(&serial), &canonical_rows(&partial_out)),
                "partial-merge must agree with serial ({group}, {threads} threads)"
            );
            fits(partial_peak / 2, format!("{group}, {threads} threads, partial peak / 2"));
        }
        // The scan buffers nothing, so half the aggregate's own peak is
        // half its table: it must spill.
        let (_, own_peak, _) = run_hash(group, None);
        let spilled = fits(own_peak / 2, format!("{group}, own peak / 2"));
        assert!(spilled > 0, "{group}: half its own peak must spill");
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[test]
fn single_thread_config_plans_serially_and_agrees() {
    // threads = 1 must take the serial paths (`ParallelConfig::split`
    // makes no morsels) and still produce the same answers.
    let (sf, sdbs) = schemes();
    let cfg = ParallelConfig { threads: 1, morsel_rows: 256 };
    let q6 = all_queries().into_iter().find(|q| q.id == 6).unwrap();
    for sdb in &sdbs {
        let serial = (q6.run)(&QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf)).unwrap();
        let one =
            (q6.run)(&QueryCtx::new(QueryContext::with_parallel(Arc::clone(sdb), cfg.clone()), sf))
                .unwrap();
        assert_eq!(canonical_rows(&serial), canonical_rows(&one));
    }
}

// --- morsel-splitting edge cases over the public API ----------------------

/// Contiguous key-less runs of the given sizes.
fn runs(sizes: &[usize]) -> Vec<Run> {
    let mut start = 0;
    sizes
        .iter()
        .map(|&count| {
            let run = Run { start, count, keys: vec![] };
            start += count;
            run
        })
        .collect()
}

#[test]
fn morsel_splitting_handles_uneven_groups() {
    // Wildly uneven run sizes: a huge run stays whole (runs are
    // indivisible), tiny ones coalesce, order and coverage are preserved.
    let runs = runs(&[3, 1, 1, 5000, 2, 900, 1, 1, 1, 1]);
    let morsels = split_runs(&runs, 1000);
    let covered: Vec<usize> = morsels.iter().cloned().flatten().collect();
    assert_eq!(covered, (0..runs.len()).collect::<Vec<_>>(), "must tile all runs in order");
    // The oversized run closes its morsel immediately; the tail of tiny
    // runs never reaches the budget and coalesces into the final morsel.
    assert_eq!(morsels, vec![0..4, 4..10]);
}

#[test]
fn morsel_splitting_one_row_and_empty() {
    // Empty table: no morsels, parallel scan degenerates gracefully.
    assert!(split_runs(&[], 1024).is_empty());
    // One-row table — one group or one block: exactly one morsel covering it.
    assert_eq!(split_runs(&runs(&[1]), 1024), vec![0..1]);
}
