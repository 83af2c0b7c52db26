//! The parallel-execution counterpart of `cross_scheme.rs`: every TPC-H
//! query must return **identical** results under morsel-driven parallel
//! execution and serial execution, for each of the three storage schemes.
//! The morsel size is forced far below the defaults so that every table
//! splits into many morsels and all the merge paths (ordered concat,
//! partial-aggregate fold, partitioned join build, per-run sort + stable
//! k-way merge) actually run: with threads > 1 the planner swaps every
//! `Sort` for a `ParallelSort` and every big-enough hash-join build for
//! the hash-partitioned parallel build.
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
use bdcc_exec::parallel::{FragmentBlueprint, ParallelAggregate};
use bdcc_exec::{
    AggFunc, AggSpec, Expr, MemoryBroker, MemoryTracker, ParallelConfig, QueryContext, SpillMode,
};
use bdcc_storage::IoTracker;

/// Worker count under test: `BDCC_THREADS`, default 4 (1 exercises the
/// serial planning paths end to end).
fn test_threads() -> usize {
    std::env::var("BDCC_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// Morsel size under test: `BDCC_MORSEL_ROWS`, default 256 — small enough
/// that even SF 0.002 tables split into dozens of morsels and every join
/// build side beyond it goes partitioned (CI also runs a tiny-morsel
/// configuration to stress probe-morsel splitting).
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
            // out of core (radix aggregation, spilled builds). Each must
            // reproduce serial execution.
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
fn tiny_morsels_force_partitioned_joins_and_many_sort_runs() {
    // 32-row morsels push essentially every hash-join build through the
    // partitioned path and split every sort into many runs; join- and
    // sort-heavy queries must still match serial execution exactly.
    let (sf, sdbs) = schemes();
    let par_cfg = ParallelConfig { threads: test_threads().max(2), morsel_rows: 32 };
    let heavy = [2usize, 3, 10, 13, 18, 21];
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

#[test]
fn probe_morsel_matrix_agrees_with_serial() {
    // The parallel-probe matrix: tiny probe morsels × worker counts
    // {1, BDCC_THREADS} × all three schemes, over the join-heavy queries
    // (probe rounds split into many row-range morsels; Semi/Anti take the
    // existence fast path; the sandwich join fans out oversized groups).
    let (sf, sdbs) = schemes();
    let heavy = [3usize, 4, 10, 18, 21, 22]; // inner, semi, anti, outer probes
    let mut failures = Vec::new();
    for threads in [1, test_threads().max(2)] {
        for morsel_rows in [16, 64] {
            let cfg = ParallelConfig { threads, morsel_rows };
            for q in all_queries().into_iter().filter(|q| heavy.contains(&q.id)) {
                for sdb in &sdbs {
                    let serial = (q.run)(&QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf));
                    let parallel = (q.run)(&QueryCtx::new(
                        QueryContext::with_parallel(Arc::clone(sdb), cfg.clone()),
                        sf,
                    ));
                    match (serial, parallel) {
                        (Ok(s), Ok(p)) => {
                            let (s, p) = (canonical_rows(&s), canonical_rows(&p));
                            if !rows_equivalent(&s, &p) {
                                failures.push(format!(
                                    "{} on {} ({threads}t, {morsel_rows}-row morsels)",
                                    q.name,
                                    sdb.scheme.name()
                                ));
                            }
                        }
                        (Err(e), _) | (_, Err(e)) => failures.push(format!(
                            "{} on {} ({threads}t, {morsel_rows}-row morsels): {e}",
                            q.name,
                            sdb.scheme.name()
                        )),
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "probe-morsel disagreement: {}", failures.join(", "));
}

#[test]
fn streaming_scan_memory_stays_morsel_bounded() {
    // Scan the largest generated table (LINEITEM) through the streaming
    // Scan: the bounded reorder buffer must keep peak *tracked*
    // memory at O(threads × morsel), not O(table) — the whole point of
    // replacing the eager materialization.
    let db = bdcc::tpch::generate(&GenConfig::new(0.005));
    let li = db.stored_by_name("lineitem").expect("lineitem stored");
    // Rebuild with small blocks so the table splits into many morsels
    // (morsels take whole MinMax blocks).
    let named: Vec<(String, Column)> = li
        .schema()
        .columns
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.clone(), li.column(i).unwrap().as_ref().clone()))
        .collect();
    let cols: Vec<String> = named.iter().map(|(n, _)| n.clone()).collect();
    let small = Arc::new(
        StoredTable::from_columns_with_block_rows("lineitem", named, 256).expect("rebuild"),
    );
    let blueprint = ScanBlueprint::blocks(Arc::clone(&small), &cols, vec![]).expect("blueprint");
    let whole = 0..blueprint.runs().len();
    let serial =
        collect(Box::new(Scan::over(Arc::clone(&blueprint), IoTracker::new(), whole))).unwrap();
    let table_bytes = serial.estimated_bytes();
    // Clamp the worker count: the in-flight cap grows with threads
    // (O(threads) morsels) while the table's morsel count is fixed, so an
    // unclamped BDCC_THREADS (say 16) would make the "far below the whole
    // table" half of the assertion meaningless, not wrong.
    let threads = test_threads().clamp(2, 4);
    let morsel_rows = 256;
    let cfg = ParallelConfig { threads, morsel_rows };
    let tracker = MemoryTracker::new();
    let streamed =
        collect(Box::new(Scan::new(blueprint, IoTracker::new(), &cfg, tracker.clone()))).unwrap();
    assert_eq!(serial, streamed, "streaming scan must replay the serial stream");
    let morsels = small.rows().div_ceil(morsel_rows);
    assert!(morsels >= 32, "need many morsels for the bound to mean anything, got {morsels}");
    assert!(tracker.peak() > 0, "streaming scan must register in-flight morsels");
    // In-flight cap is O(threads) morsels; allow generous slack (guards
    // release as the consumer drains, estimates are approximate) while
    // still ruling out whole-table materialization.
    let per_morsel = table_bytes / morsels as u64;
    let bound = (4 * threads as u64 + 4) * per_morsel;
    assert!(
        tracker.peak() <= bound && tracker.peak() * 4 <= table_bytes,
        "peak {} exceeds morsel bound {} (table {}, {} morsels)",
        tracker.peak(),
        bound,
        table_bytes,
        morsels
    );
}

#[test]
fn budgeted_radix_aggregation_fits_half_the_partial_merge_peak() {
    // The high-cardinality group-by matrix: per-key groups (one group per
    // ORDERS key / per PART key) over LINEITEM rebuilt with small blocks
    // and a *shuffled* row order, so group keys scatter across morsels —
    // the workload where every morsel's partial re-materializes most
    // groups it touches and the partial fold holds ~O(rows) states. What
    // a caller can rely on there: set a budget of half that peak, and the
    // aggregation (now radix, spilling as needed) finishes byte-identical
    // to serial with its tracked peak inside the budget.
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
    let run_parallel = |group: &str, threads: usize, budget: Option<u64>| {
        let tracker = MemoryTracker::new();
        let broker = match budget {
            Some(b) => MemoryBroker::with_mode(SpillMode::Auto, &tracker, Some(b)),
            None => MemoryBroker::none(),
        };
        let out = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: blueprint(), steps: vec![] },
                &[group],
                aggs.clone(),
                IoTracker::new(),
                ParallelConfig { threads, morsel_rows: 256 },
                tracker.clone(),
            )
            .unwrap()
            .with_broker(broker),
        ))
        .unwrap();
        (out, tracker.peak())
    };
    for group in ["l_orderkey", "l_partkey"] {
        let scan =
            Box::new(Scan::blocks(Arc::clone(&small), IoTracker::new(), &cols, vec![]).unwrap());
        let serial = collect(Box::new(
            HashAggregate::new(scan, &[group], aggs.clone(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap();
        assert!(serial.rows() > 500, "need a fine-grained group-by, got {}", serial.rows());
        for threads in [2, 4] {
            let (partial_out, partial_peak) = run_parallel(group, threads, None);
            assert!(
                rows_equivalent(&canonical_rows(&serial), &canonical_rows(&partial_out)),
                "partial-merge must agree with serial ({group}, {threads} threads)"
            );
            let budget = partial_peak / 2;
            let (radix_out, radix_peak) = run_parallel(group, threads, Some(budget));
            assert_eq!(
                serial, radix_out,
                "radix must be byte-identical to serial ({group}, {threads} threads)"
            );
            assert!(
                radix_peak <= budget,
                "radix peak {radix_peak} must fit half the partial-merge peak {partial_peak} \
                 ({group}, {threads} threads, {} groups)",
                serial.rows()
            );
        }
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
    // threads = 1 must take the serial paths (worth_splitting is false)
    // and still produce the same answers.
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
