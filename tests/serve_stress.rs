//! Robustness of the concurrent serving layer: admission control under
//! overload, per-query deadlines/budgets/cancellation, panic containment
//! and fault-injection survival — every failure typed, every byte
//! released, the process and the worker pool alive throughout.
//!
//! The injector here is installed per-server (operator checkpoints), not
//! process-global: these tests share their process with the rest of the
//! workspace test binary, and a global injector would fire inside
//! unrelated tests' pool jobs.

use std::sync::Arc;
use std::time::Duration;

use bdcc::prelude::*;
use bdcc_exec::parallel::pool::WorkerPool;
use bdcc_exec::{
    canonical_rows, run_plan, ExecError, ParallelConfig, PlanBuilder, QueryContext, QueryOptions,
    ServeError, Server, ServerConfig,
};
use bdcc_pool::{FaultInjector, FaultPlan};

fn bdcc_sdb(sf: f64) -> Arc<SchemeDb> {
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))
}

fn parallel_cfg() -> Option<ParallelConfig> {
    Some(ParallelConfig { threads: 4, morsel_rows: 64 })
}

fn query(id: usize) -> bdcc_tpch::Query {
    all_queries().into_iter().find(|q| q.id == id).expect("known query")
}

/// Serial canonical reference for one query.
fn reference(sdb: &Arc<SchemeDb>, sf: f64, id: usize) -> Vec<String> {
    let ctx = QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf);
    canonical_rows(&(query(id).run)(&ctx).expect("serial reference"))
}

#[test]
fn overload_is_typed_and_admitted_queries_all_finish() {
    let sf = 0.002;
    let sdb = bdcc_sdb(sf);
    let server = Arc::new(Server::new(
        Arc::clone(&sdb),
        ServerConfig {
            max_concurrent: 2,
            queue_depth: 2,
            parallel: parallel_cfg(),
            ..ServerConfig::default()
        },
    ));
    let expect = Arc::new(reference(&sdb, sf, 3));
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let server = Arc::clone(&server);
            let expect = Arc::clone(&expect);
            std::thread::spawn(move || {
                let run = query(3).run;
                match server.submit(move |qc| run(&QueryCtx::new(qc.clone(), sf))) {
                    Ok(h) => {
                        let out = h.wait().expect("admitted query completes");
                        assert_eq!(canonical_rows(&out.batch), *expect);
                        true
                    }
                    Err(ServeError::Overloaded { queued, depth, .. }) => {
                        assert!(queued >= depth, "bounced only at capacity");
                        false
                    }
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            })
        })
        .collect();
    let admitted = clients.into_iter().map(|c| c.join().expect("client")).filter(|&a| a).count();
    let m = server.metrics();
    assert_eq!(m.admitted.get(), admitted as u64);
    assert_eq!(m.admitted.get() + m.rejected.get(), 16);
    assert_eq!(m.finished(), m.admitted.get());
    assert_eq!(server.memory().current(), 0);
}

#[test]
fn cancel_mid_run_releases_memory_and_spawns_no_threads() {
    let sf = 0.004;
    let sdb = bdcc_sdb(sf);
    let server = Server::new(
        Arc::clone(&sdb),
        ServerConfig { max_concurrent: 2, parallel: parallel_cfg(), ..ServerConfig::default() },
    );
    // Warm-up through the server so the pool is at width before the
    // spawn-counter baseline is taken.
    let warm = query(3).run;
    server.submit(move |qc| warm(&QueryCtx::new(qc.clone(), sf))).unwrap().wait().unwrap();
    let spawned_before = WorkerPool::shared().stats().threads_spawned_total;

    // The job reruns a join-heavy query until a governance checkpoint
    // trips — guaranteed to be *mid-execution* when cancel() lands.
    let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let s2 = Arc::clone(&started);
    let run = query(3).run;
    let handle = server
        .submit(move |qc| {
            let ctx = QueryCtx::new(qc.clone(), sf);
            loop {
                run(&ctx)?;
                s2.store(true, std::sync::atomic::Ordering::Release);
            }
        })
        .unwrap();
    while !started.load(std::sync::atomic::Ordering::Acquire) {
        std::thread::yield_now();
    }
    handle.cancel();
    // In-flight morsels unwind; the typed reason survives the fan-out.
    match handle.wait() {
        Err(ServeError::Exec(ExecError::Cancelled)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(server.metrics().cancelled.get(), 1);
    assert_eq!(server.memory().current(), 0, "cancel must release every tracked byte");
    assert_eq!(
        WorkerPool::shared().stats().threads_spawned_total,
        spawned_before,
        "cancellation must not cost OS threads"
    );
    // The pool and the session both serve the next query normally.
    let again = query(6).run;
    let out =
        server.submit(move |qc| again(&QueryCtx::new(qc.clone(), sf))).unwrap().wait().unwrap();
    assert_eq!(canonical_rows(&out.batch), reference(&sdb, sf, 6));
}

#[test]
fn budget_fails_only_the_greedy_query() {
    let sf = 0.002;
    let sdb = bdcc_sdb(sf);
    let server = Server::new(
        Arc::clone(&sdb),
        ServerConfig { max_concurrent: 2, parallel: parallel_cfg(), ..ServerConfig::default() },
    );
    // Q18 materializes a large build side — 1 byte of budget cannot hold.
    let greedy = query(18).run;
    let starved = server
        .submit_with(QueryOptions { deadline: None, budget: Some(1) }, move |qc| {
            greedy(&QueryCtx::new(qc.clone(), sf))
        })
        .unwrap();
    // A budget-free peer in the same server must be unaffected.
    let peer = query(6).run;
    let fine = server.submit(move |qc| peer(&QueryCtx::new(qc.clone(), sf))).unwrap();
    match starved.wait() {
        Err(ServeError::Exec(ExecError::BudgetExceeded { used, budget })) => {
            assert_eq!(budget, 1);
            assert!(used > 1);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let out = fine.wait().expect("peer unaffected by sibling's budget");
    assert_eq!(canonical_rows(&out.batch), reference(&sdb, sf, 6));
    assert_eq!(server.metrics().budget_exceeded.get(), 1);
    assert_eq!(server.memory().current(), 0);
}

#[test]
fn expired_deadline_is_typed_even_when_queued() {
    let sf = 0.002;
    let sdb = bdcc_sdb(sf);
    let server = Server::new(
        Arc::clone(&sdb),
        ServerConfig {
            max_concurrent: 1,
            default_deadline: Some(Duration::ZERO),
            parallel: parallel_cfg(),
            ..ServerConfig::default()
        },
    );
    // The deadline is fixed at submit time and charges queue wait, so an
    // already-expired deadline fails at the first checkpoint.
    let h = server.submit_plan(PlanBuilder::new().scan("orders", &["o_orderkey"], Vec::new()));
    match h.unwrap().wait() {
        Err(ServeError::Exec(ExecError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Overriding per query lifts the server default.
    let h = server
        .submit_with(
            QueryOptions { deadline: Some(Duration::from_secs(60)), budget: None },
            move |qc| run_plan(qc, &PlanBuilder::new().scan("orders", &["o_orderkey"], Vec::new())),
        )
        .unwrap();
    assert!(h.wait().is_ok());
}

#[test]
fn fault_injection_stress_survives_with_typed_failures() {
    let sf = 0.002;
    let sdb = bdcc_sdb(sf);
    // Aggressive mix: ~5% errors, ~1% panics, ~5% delays per checkpoint.
    let plan = FaultPlan::parse("delay=0.05,delay_us=100,err=0.05,panic=0.01,seed=7").unwrap();
    let injector = Arc::new(FaultInjector::new(plan));
    let server = Arc::new(Server::new(
        Arc::clone(&sdb),
        ServerConfig {
            max_concurrent: 4,
            queue_depth: 64,
            parallel: parallel_cfg(),
            injector: Some(Arc::clone(&injector)),
            ..ServerConfig::default()
        },
    ));
    // Suppress the default panic printer for expected injected panics on
    // session/worker threads only (hook is process-wide; scope it).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let t = std::thread::current();
        let name = t.name().unwrap_or("");
        if name.starts_with("bdcc-session") || name.starts_with("bdcc-worker") {
            return;
        }
        default_hook(info);
    }));

    let mix = [1usize, 3, 6, 12];
    let refs: Vec<(usize, Vec<String>)> =
        mix.iter().map(|&id| (id, reference(&sdb, sf, id))).collect();
    let refs = Arc::new(refs);
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let server = Arc::clone(&server);
            let refs = Arc::clone(&refs);
            std::thread::spawn(move || {
                let (mut ok, mut faulted) = (0u32, 0u32);
                for i in 0..6 {
                    let (qid, expect) = &refs[(c + i) % refs.len()];
                    let run = query(*qid).run;
                    let handle = loop {
                        match server.submit(move |qc| run(&QueryCtx::new(qc.clone(), sf))) {
                            Ok(h) => break h,
                            Err(ServeError::Overloaded { .. }) => {
                                std::thread::sleep(Duration::from_millis(1))
                            }
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                    };
                    match handle.wait() {
                        // Non-faulted queries stay byte-identical under fire.
                        Ok(out) => {
                            assert_eq!(&canonical_rows(&out.batch), expect, "q{qid}");
                            ok += 1;
                        }
                        // Faults must arrive typed, never as aborts or hangs.
                        Err(ServeError::Exec(_) | ServeError::Panicked(_)) => faulted += 1,
                        Err(other) => panic!("untyped failure: {other}"),
                    }
                }
                (ok, faulted)
            })
        })
        .collect();
    let (mut ok, mut faulted) = (0u32, 0u32);
    for c in clients {
        let (o, f) = c.join().expect("client must not die");
        ok += o;
        faulted += f;
    }
    let _ = std::panic::take_hook(); // restore default printing
    let (delays, errors, panics) = injector.counts();
    assert_eq!(ok + faulted, 48);
    assert!(
        errors + panics > 0,
        "stress must actually inject (delays {delays}, errors {errors}, panics {panics})"
    );
    let m = server.metrics();
    assert_eq!(m.finished(), m.admitted.get(), "every admitted query reached a terminal state");
    assert_eq!(server.memory().current(), 0, "all tracked bytes released under injection");
    // The server still works once the storm passes.
    let run = query(6).run;
    let out = server.submit(move |qc| run(&QueryCtx::new(qc.clone(), sf))).unwrap().wait();
    match out {
        Ok(out) => assert_eq!(canonical_rows(&out.batch), refs[2].1),
        // The per-server injector is still installed, so even this query
        // may fault — but only ever typed.
        Err(ServeError::Exec(_) | ServeError::Panicked(_)) => {}
        Err(other) => panic!("untyped failure after storm: {other}"),
    }
}
