//! Concurrent serving throughput and latency: N closed-loop clients
//! submitting TPC-H queries to one [`Server`], with and without fault
//! injection.
//!
//! For each client count (default `1,8,64`; `BDCC_SERVE_CLIENTS`) the
//! harness measures throughput and p50/p99 submit-to-result latency, and
//! checks every successfully completed query byte-identical (canonical
//! rows) to a serial reference run. Roughly every 16th query carries a
//! deliberately impossible limit — an already-expired deadline or a 1-byte
//! memory budget — proving typed per-query failure under load. With
//! `BDCC_INJECT` set (e.g. `delay=0.05,err=0.02,panic=0.005,seed=42`) the
//! same plan runs under injected delays, simulated errors and worker
//! panics at both pool-job and operator checkpoints: the process must
//! survive, faulted queries must fail typed, and the *non-faulted* ones
//! must still match the reference exactly. Prints a table and, last, one
//! JSON line.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdcc_bench::{build_schemes, generate_db, print_table, r3, scale_factor, BenchReport};
use bdcc_core::DesignConfig;
use bdcc_exec::{canonical_rows, ParallelConfig, QueryOptions, ServeError, Server, ServerConfig};
use bdcc_obs::json::Obj;
use bdcc_obs::LogHistogram;
use bdcc_pool::{inject, FaultInjector, FaultPlan};
use bdcc_tpch::{all_queries, QueryCtx};

/// Queries served: a scan-heavy, a join-heavy, a selective and a
/// two-sided-join query — enough plan diversity to exercise every
/// governed fan-out shape without a long CI run.
const QUERY_MIX: [usize; 4] = [1, 3, 6, 12];

/// Latency percentile from a log-histogram snapshot (upper-bound buckets).
fn percentile(h: &LogHistogram, p: f64) -> u64 {
    let snap = h.snapshot();
    let total: u64 = snap.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * p).ceil() as u64;
    let mut seen = 0;
    for (upper, n) in snap {
        seen += n;
        if seen >= rank {
            return upper;
        }
    }
    u64::MAX
}

fn main() {
    let sf = scale_factor();
    let clients_axis: Vec<usize> = std::env::var("BDCC_SERVE_CLIENTS")
        .unwrap_or_else(|_| "1,8,64".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let per_client: usize =
        std::env::var("BDCC_SERVE_QPC").ok().and_then(|v| v.parse().ok()).unwrap_or(4);

    // Fault injection: BDCC_INJECT installs the same injector at pool-job
    // boundaries (process-global, before the served run) and at operator
    // checkpoints (via the server config).
    let injector = match FaultPlan::from_env() {
        Ok(plan) => plan.map(|plan| Arc::new(FaultInjector::new(plan))),
        Err(e) => panic!("bad BDCC_INJECT: {e}"),
    };
    if injector.is_some() {
        // Injected panics are expected, contained, and re-surfaced typed;
        // keep stderr readable for everything else.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let t = std::thread::current();
            let name = t.name().unwrap_or("");
            if name.starts_with("bdcc-session") || name.starts_with("bdcc-worker") {
                return;
            }
            default_hook(info);
        }));
    }

    println!(
        "E-SERVE — concurrent serving under admission control (SF {sf}, injection {})",
        if injector.is_some() { "ON" } else { "off" }
    );
    let db = generate_db(sf);
    let schemes = build_schemes(&db, &DesignConfig::default());
    let sdb = schemes.last().expect("bdcc scheme").clone();
    let queries: Vec<_> = all_queries().into_iter().filter(|q| QUERY_MIX.contains(&q.id)).collect();

    // Serial reference: canonical rows per query, computed without any
    // server, governor or injector in the loop.
    let reference: HashMap<usize, Vec<String>> = queries
        .iter()
        .map(|q| {
            let ctx = QueryCtx::new(bdcc_exec::QueryContext::new(Arc::clone(&sdb)), sf);
            (q.id, canonical_rows(&(q.run)(&ctx).expect("reference run")))
        })
        .collect();
    // Neither set-up (scoped threads) nor the serial reference runs a pool
    // job, so the pool-job injector rolls only at the served run's morsels.
    if let Some(inj) = &injector {
        inject::install_global(Arc::clone(inj));
    }

    let mut rows = Vec::new();
    let mut report = BenchReport::new("serve")
        .f64("sf", sf)
        .usize("per_client", per_client)
        .str("inject", &std::env::var("BDCC_INJECT").unwrap_or_default());
    let mut total_mismatches = 0usize;

    for &clients in &clients_axis {
        let cfg = ServerConfig {
            max_concurrent: 4,
            queue_depth: 32,
            default_deadline: Some(Duration::from_secs(60)),
            default_budget: None,
            parallel: Some(ParallelConfig::with_threads(4)),
            injector: injector.clone(),
        };
        let server = Arc::new(Server::new(Arc::clone(&sdb), cfg));
        let latency = Arc::new(LogHistogram::new());
        let start = Instant::now();

        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = Arc::clone(&server);
                let latency = Arc::clone(&latency);
                let runs: Vec<(usize, bdcc_tpch::Query)> = all_queries()
                    .into_iter()
                    .filter(|q| QUERY_MIX.contains(&q.id))
                    .map(|q| (q.id, q))
                    .collect();
                std::thread::spawn(move || {
                    let mut outcomes: Vec<(usize, Option<Vec<String>>)> = Vec::new();
                    let mut retries = 0u64;
                    for i in 0..per_client {
                        let (qid, q) = &runs[(c + i) % runs.len()];
                        let seq = c * per_client + i;
                        // Every 16th query gets an impossible limit: typed
                        // per-query failure under load, peers unaffected.
                        let opts = match seq % 16 {
                            15 if seq % 32 == 15 => {
                                QueryOptions { deadline: Some(Duration::ZERO), budget: None }
                            }
                            15 => QueryOptions { deadline: None, budget: Some(1) },
                            _ => QueryOptions::default(),
                        };
                        let run = q.run;
                        let submitted = Instant::now();
                        let handle = loop {
                            match server.submit_with(opts.clone(), move |qc| {
                                let ctx = QueryCtx::new(qc.clone(), sf);
                                run(&ctx)
                            }) {
                                Ok(h) => break h,
                                Err(ServeError::Overloaded { .. }) => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        };
                        let result = handle.wait();
                        latency.record(submitted.elapsed().as_nanos() as u64);
                        match result {
                            Ok(out) => outcomes.push((*qid, Some(canonical_rows(&out.batch)))),
                            // Every failure must be typed — reaching here
                            // without a panic of our own *is* the check.
                            Err(
                                ServeError::Exec(_)
                                | ServeError::Panicked(_)
                                | ServeError::Overloaded { .. }
                                | ServeError::ShuttingDown,
                            ) => outcomes.push((*qid, None)),
                        }
                    }
                    (outcomes, retries)
                })
            })
            .collect();

        let mut completed = 0u64;
        let mut faulted = 0u64;
        let mut mismatches = 0usize;
        let mut retries = 0u64;
        for h in handles {
            let (outcomes, r) = h.join().expect("client thread");
            retries += r;
            for (qid, rows) in outcomes {
                match rows {
                    Some(rows) => {
                        completed += 1;
                        if rows != reference[&qid] {
                            mismatches += 1;
                        }
                    }
                    None => faulted += 1,
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let m = server.metrics();
        let (p50, p99) =
            (percentile(&latency, 0.50) as f64 / 1e6, percentile(&latency, 0.99) as f64 / 1e6);
        let qps = completed as f64 / elapsed;
        total_mismatches += mismatches;

        rows.push(vec![
            clients.to_string(),
            completed.to_string(),
            faulted.to_string(),
            retries.to_string(),
            format!("{:.1}", qps),
            format!("{:.2}", p50),
            format!("{:.2}", p99),
            mismatches.to_string(),
        ]);
        report.result(
            Obj::new()
                .usize("clients", clients)
                .u64("completed", completed)
                .u64("faulted", faulted)
                .u64("overload_retries", retries)
                .u64("rejected", m.rejected.get())
                .u64("cancelled", m.cancelled.get())
                .u64("deadline_exceeded", m.deadline_exceeded.get())
                .u64("budget_exceeded", m.budget_exceeded.get())
                .u64("injected", m.injected.get())
                .u64("panicked", m.panicked.get())
                .f64("qps", r3(qps))
                .f64("p50_ms", r3(p50))
                .f64("p99_ms", r3(p99))
                .usize("mismatches", mismatches),
        );
        // Every admitted query reached a terminal state and all memory
        // was released — the leak-freedom part of the serving contract.
        assert_eq!(m.finished(), m.admitted.get(), "admitted queries must all finish");
        assert_eq!(server.memory().current(), 0, "serving must release all tracked bytes");
    }

    print_table(
        &["clients", "completed", "faulted", "retries", "qps", "p50 ms", "p99 ms", "mismatch"],
        &rows,
    );
    assert_eq!(total_mismatches, 0, "completed queries must be byte-identical to serial");
    report.print();
}
