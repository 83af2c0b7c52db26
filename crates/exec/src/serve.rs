//! Robust concurrent query serving: admission control, deadlines,
//! cooperative cancellation, and per-query memory budgets over the
//! shared execution engine.
//!
//! A [`Server`] owns `max_concurrent` session threads that execute
//! queries against one shared [`SchemeDb`], all fan-out riding the same
//! process-wide persistent [`WorkerPool`](crate::parallel::pool::WorkerPool).
//! Clients call [`Server::submit`] from any thread and get a
//! [`QueryHandle`] to wait on (or cancel). The contract:
//!
//! * **Admission control.** At most `max_concurrent` queries execute at
//!   once; at most `queue_depth` more wait in the admission queue. A
//!   submission past both bounds is bounced *immediately* with
//!   [`ServeError::Overloaded`] — overload produces typed backpressure,
//!   never unbounded queueing or process death.
//! * **Deadlines charge queue wait.** A deadline is fixed at *submit*
//!   time (`Instant::now() + deadline`), so time spent waiting for
//!   admission counts against it; an expired query fails with
//!   [`ExecError::DeadlineExceeded`] at its first checkpoint instead of
//!   occupying a session.
//! * **Cooperative cancellation.** Every handle carries a
//!   [`CancelToken`] threaded through the query's
//!   [`Governor`](crate::govern::Governor). [`QueryHandle::cancel`]
//!   trips it; every morsel loop, probe round, streaming-scan producer
//!   and root-batch pull checks it, so the query unwinds mid-fan-out
//!   within one morsel and the pool's cancel-on-drop machinery reclaims
//!   in-flight work. RAII [`MemoryGuard`](crate::memory::MemoryGuard)s
//!   release every tracked byte on the way out.
//! * **Memory budgets are per-query.** Each query runs on a tracker
//!   that is a [`MemoryTracker::child_of`] the server's root, so the
//!   server can observe aggregate pressure while a budget violation
//!   fails *only* the over-budget query
//!   ([`ExecError::BudgetExceeded`]) — its peers and the process keep
//!   running.
//! * **Panics are contained.** A worker panic (real or injected)
//!   unwinds the one query, is caught at the session boundary, and
//!   surfaces as [`ServeError::Panicked`] with the pool's labeled
//!   payload; the session thread and the worker pool stay live for the
//!   next query.
//!
//! Fault injection (see [`bdcc_pool::inject`]) plugs in via
//! [`ServerConfig::injector`]: the injector is consulted at every
//! governor checkpoint (delays, typed simulated errors, panics), which
//! is how the stress suite proves the guarantees above hold under fire.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdcc_obs::ServeMetrics;
use bdcc_pool::{CancelToken, FaultInjector};

use crate::batch::Batch;
use crate::error::{ExecError, Result};
use crate::memory::MemoryTracker;
use crate::parallel::ParallelConfig;
use crate::plan::Node;
use crate::planner::QueryContext;
use crate::run::run_plan;
use crate::scheme::SchemeDb;

/// A unit of server work: any closure from the per-query context to a
/// result batch (a raw plan via [`Server::submit_plan`], a TPC-H query
/// function, ...). The closure must route execution through the given
/// context so governance checkpoints see the query.
pub type QueryJob = Box<dyn FnOnce(&QueryContext) -> Result<Batch> + Send + 'static>;

/// Serving limits. `Default` is a small interactive endpoint: 4
/// sessions, 16 queued, no deadline, no budget, serial plans.
#[derive(Clone)]
pub struct ServerConfig {
    /// Session threads — queries executing at once.
    pub max_concurrent: usize,
    /// Bound on the admission queue; submissions past it are bounced
    /// with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Deadline applied to every query that does not override it.
    pub default_deadline: Option<Duration>,
    /// Memory budget (bytes of tracked operator state) applied to every
    /// query that does not override it.
    pub default_budget: Option<u64>,
    /// Parallel config installed on every query context (`None` is one
    /// thread: serial plans; fan-out shares the process-wide pool).
    pub parallel: Option<ParallelConfig>,
    /// Fault injector consulted at every governance checkpoint of every
    /// query (the stress harness; `None` in production).
    pub injector: Option<Arc<FaultInjector>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_concurrent: 4,
            queue_depth: 16,
            default_deadline: None,
            default_budget: None,
            parallel: None,
            injector: None,
        }
    }
}

/// Per-submission overrides of the server defaults.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Deadline relative to submission (overrides the server default).
    pub deadline: Option<Duration>,
    /// Memory budget in bytes (overrides the server default).
    pub budget: Option<u64>,
}

/// Typed serving failures. Execution failures (including cancellation,
/// deadline, budget and injected faults) arrive as `Exec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission queue at capacity; resubmit later.
    Overloaded { running: usize, queued: usize, depth: usize },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The query failed with a typed execution error.
    Exec(ExecError),
    /// The query's execution panicked; the panic was contained to this
    /// query (payload carries the pool's labeled message when the panic
    /// happened inside a labeled pool job).
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { running, queued, depth } => {
                write!(f, "server overloaded: {running} running, {queued}/{depth} queued")
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Exec(e) => write!(f, "query failed: {e}"),
            ServeError::Panicked(m) => write!(f, "query panicked: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed query: its result plus serving measurements.
#[derive(Debug, PartialEq)]
pub struct QueryOutcome {
    pub batch: Batch,
    /// Time between admission and execution start.
    pub queue_wait: Duration,
    /// Execution wall time.
    pub exec: Duration,
    /// Peak tracked operator memory of this query alone.
    pub peak_memory: u64,
}

/// What a session publishes when a query reaches a terminal state.
type TicketResult = std::result::Result<QueryOutcome, ServeError>;

/// Client ↔ session rendezvous for one query.
struct TicketShared {
    state: Mutex<Option<TicketResult>>,
    cond: Condvar,
    cancel: CancelToken,
}

impl TicketShared {
    fn complete(&self, result: TicketResult) {
        let mut state = self.state.lock().expect("ticket state poisoned");
        *state = Some(result);
        self.cond.notify_all();
    }
}

/// Client-side handle to a submitted query: wait for the outcome or
/// cancel it (from any thread, at any point — queued or mid-fan-out).
pub struct QueryHandle {
    shared: Arc<TicketShared>,
}

impl QueryHandle {
    /// Trip the query's cancel token. Idempotent; if the query already
    /// reached a terminal state this is a no-op. A queued query fails at
    /// its first checkpoint without doing work; a running query unwinds
    /// at the next morsel boundary.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// A clone of the query's cancel token (e.g. to hand to a watchdog).
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Block until the query reaches a terminal state.
    pub fn wait(self) -> TicketResult {
        let mut state = self.shared.state.lock().expect("ticket state poisoned");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.shared.cond.wait(state).expect("ticket state poisoned");
        }
    }
}

/// One admitted query waiting for a session.
struct Ticket {
    job: QueryJob,
    shared: Arc<TicketShared>,
    deadline: Option<Instant>,
    budget: Option<u64>,
    enqueued: Instant,
}

struct ServeState {
    queue: VecDeque<Ticket>,
    running: usize,
    shutdown: bool,
}

struct ServerShared {
    sdb: Arc<SchemeDb>,
    cfg: ServerConfig,
    /// `cfg.parallel` as the width every query context gets.
    parallel: ParallelConfig,
    /// Parent of every query's tracker: aggregate memory pressure.
    mem_root: Arc<MemoryTracker>,
    metrics: Arc<ServeMetrics>,
    state: Mutex<ServeState>,
    cond: Condvar,
}

/// Concurrent query endpoint; see the [module docs](self) for the
/// admission/cancellation/budget contract.
pub struct Server {
    shared: Arc<ServerShared>,
    sessions: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server with `cfg.max_concurrent` session threads over the
    /// shared database.
    pub fn new(sdb: Arc<SchemeDb>, cfg: ServerConfig) -> Server {
        let max_concurrent = cfg.max_concurrent.max(1);
        let parallel = cfg.parallel.clone().unwrap_or_else(|| ParallelConfig::with_threads(1));
        if parallel.threads > 1 {
            crate::parallel::pool::WorkerPool::shared().ensure_workers(parallel.threads);
        }
        let shared = Arc::new(ServerShared {
            sdb,
            cfg,
            parallel,
            mem_root: MemoryTracker::new(),
            metrics: Arc::new(ServeMetrics::new()),
            state: Mutex::new(ServeState { queue: VecDeque::new(), running: 0, shutdown: false }),
            cond: Condvar::new(),
        });
        let sessions = (0..max_concurrent)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bdcc-session-{i}"))
                    .spawn(move || session_loop(&shared))
                    .expect("spawn session thread")
            })
            .collect();
        Server { shared, sessions }
    }

    /// Submit a query job with the server's default limits.
    pub fn submit<F>(&self, job: F) -> std::result::Result<QueryHandle, ServeError>
    where
        F: FnOnce(&QueryContext) -> Result<Batch> + Send + 'static,
    {
        self.submit_with(QueryOptions::default(), job)
    }

    /// Submit a logical plan (convenience over [`submit`](Self::submit)).
    pub fn submit_plan(&self, plan: Node) -> std::result::Result<QueryHandle, ServeError> {
        self.submit(move |ctx| run_plan(ctx, &plan))
    }

    /// Submit with per-query deadline/budget overrides. Admission is
    /// decided under the state lock: either the query enters the bounded
    /// queue or the caller gets `Overloaded` *now* — submission never
    /// blocks on execution.
    pub fn submit_with<F>(
        &self,
        opts: QueryOptions,
        job: F,
    ) -> std::result::Result<QueryHandle, ServeError>
    where
        F: FnOnce(&QueryContext) -> Result<Batch> + Send + 'static,
    {
        let m = &self.shared.metrics;
        m.submitted.add(1);
        let deadline =
            opts.deadline.or(self.shared.cfg.default_deadline).map(|d| Instant::now() + d);
        let budget = opts.budget.or(self.shared.cfg.default_budget);
        let shared = Arc::new(TicketShared {
            state: Mutex::new(None),
            cond: Condvar::new(),
            cancel: CancelToken::new(),
        });
        let ticket = Ticket {
            job: Box::new(job),
            shared: Arc::clone(&shared),
            deadline,
            budget,
            enqueued: Instant::now(),
        };
        {
            let mut st = self.shared.state.lock().expect("server state poisoned");
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.cfg.queue_depth {
                m.rejected.add(1);
                return Err(ServeError::Overloaded {
                    running: st.running,
                    queued: st.queue.len(),
                    depth: self.shared.cfg.queue_depth,
                });
            }
            st.queue.push_back(ticket);
        }
        m.admitted.add(1);
        self.shared.cond.notify_one();
        Ok(QueryHandle { shared })
    }

    /// Serving telemetry (monotone counters; safe to read any time).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Aggregate tracked memory across all in-flight queries.
    pub fn memory(&self) -> &Arc<MemoryTracker> {
        &self.shared.mem_root
    }

    /// `(running, queued)` snapshot.
    pub fn load(&self) -> (usize, usize) {
        let st = self.shared.state.lock().expect("server state poisoned");
        (st.running, st.queue.len())
    }
}

impl Drop for Server {
    /// Drain: stop admitting, bounce queued queries with `ShuttingDown`,
    /// let running queries finish, join every session thread.
    fn drop(&mut self) {
        let drained: Vec<Ticket> = {
            let mut st = self.shared.state.lock().expect("server state poisoned");
            st.shutdown = true;
            st.queue.drain(..).collect()
        };
        for t in drained {
            t.shared.complete(Err(ServeError::ShuttingDown));
        }
        self.shared.cond.notify_all();
        for s in self.sessions.drain(..) {
            let _ = s.join();
        }
    }
}

/// One session thread: pop tickets until shutdown.
fn session_loop(shared: &ServerShared) {
    let mut st = shared.state.lock().expect("server state poisoned");
    loop {
        if let Some(ticket) = st.queue.pop_front() {
            st.running += 1;
            drop(st);
            run_ticket(shared, ticket);
            st = shared.state.lock().expect("server state poisoned");
            st.running -= 1;
            continue;
        }
        if st.shutdown {
            return;
        }
        st = shared.cond.wait(st).expect("server state poisoned");
    }
}

/// Execute one admitted query and publish its terminal state. Panics are
/// contained here: the catch_unwind boundary drops the whole operator
/// tree (releasing tracked memory and cancelling in-flight pool work via
/// the PR 5 drop machinery) before the session takes its next ticket.
fn run_ticket(shared: &ServerShared, ticket: Ticket) {
    let m = &shared.metrics;
    let queue_wait = ticket.enqueued.elapsed();
    m.queue_wait_nanos.record(queue_wait.as_nanos() as u64);
    let mut ctx = QueryContext::for_query(
        Arc::clone(&shared.sdb),
        MemoryTracker::child_of(&shared.mem_root),
        shared.parallel.clone(),
    )
    .with_cancel(ticket.shared.cancel.clone());
    if let Some(at) = ticket.deadline {
        ctx = ctx.with_deadline_at(at);
    }
    if let Some(bytes) = ticket.budget {
        ctx = ctx.with_memory_budget(bytes);
    }
    if let Some(inj) = &shared.cfg.injector {
        ctx = ctx.with_fault_injector(Arc::clone(inj));
    }
    let start = Instant::now();
    let executed = catch_unwind(AssertUnwindSafe(|| (ticket.job)(&ctx)));
    let exec = start.elapsed();
    m.exec_nanos.record(exec.as_nanos() as u64);
    let peak_memory = ctx.tracker.peak();
    debug_assert_eq!(
        ctx.tracker.current(),
        0,
        "query finished with tracked bytes still registered"
    );
    let result = match executed {
        Ok(Ok(batch)) => {
            m.completed.add(1);
            Ok(QueryOutcome { batch, queue_wait, exec, peak_memory })
        }
        Ok(Err(e)) => {
            match &e {
                ExecError::Cancelled => m.cancelled.add(1),
                ExecError::DeadlineExceeded => m.deadline_exceeded.add(1),
                ExecError::BudgetExceeded { .. } => m.budget_exceeded.add(1),
                ExecError::Injected(_) => m.injected.add(1),
                _ => m.failed.add(1),
            }
            Err(ServeError::Exec(e))
        }
        Err(payload) => {
            m.panicked.add(1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ServeError::Panicked(msg))
        }
    };
    ticket.shared.complete(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::scheme::plain_scheme;
    use bdcc_catalog::{Catalog, ColumnDef, Database, TableDef};
    use bdcc_storage::{Column, DataType, TableBuilder};

    /// A one-table database big enough that a scan does real work.
    fn tiny_db(rows: i64) -> Arc<SchemeDb> {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(TableDef {
                name: "t".into(),
                columns: vec![
                    ColumnDef { name: "k".into(), data_type: DataType::Int },
                    ColumnDef { name: "v".into(), data_type: DataType::Int },
                ],
                primary_key: vec!["k".into()],
            })
            .unwrap();
        let mut db = Database::new(cat);
        db.attach(
            t,
            Arc::new(
                TableBuilder::new("t")
                    .column("k", Column::from_i64((0..rows).collect()))
                    .column("v", Column::from_i64((0..rows).map(|i| i * 2).collect()))
                    .build()
                    .unwrap(),
            ),
        );
        Arc::new(plain_scheme(&db))
    }

    fn scan_plan() -> Node {
        PlanBuilder::new().scan("t", &["k", "v"], Vec::new())
    }

    #[test]
    fn serves_a_query_to_completion() {
        let server = Server::new(tiny_db(100), ServerConfig::default());
        let out = server.submit_plan(scan_plan()).unwrap().wait().unwrap();
        assert_eq!(out.batch.rows(), 100);
        assert_eq!(server.metrics().completed.get(), 1);
        assert_eq!(server.memory().current(), 0);
    }

    #[test]
    fn overload_is_bounced_typed() {
        // One session blocked on a slow job, depth-1 queue: the third
        // submission must bounce immediately with Overloaded.
        let cfg = ServerConfig { max_concurrent: 1, queue_depth: 1, ..ServerConfig::default() };
        let server = Server::new(tiny_db(10), cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let running = server
            .submit(move |_ctx| {
                let (lock, cond) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
                Ok(Batch::new(vec![Column::from_i64(vec![1])]))
            })
            .unwrap();
        // Wait until the slow job occupies the one session.
        while server.load().0 == 0 {
            std::thread::yield_now();
        }
        let queued = server.submit_plan(scan_plan()).unwrap();
        match server.submit_plan(scan_plan()) {
            Err(ServeError::Overloaded { queued: q, depth, .. }) => {
                assert_eq!((q, depth), (1, 1));
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(server.metrics().rejected.get(), 1);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        running.wait().unwrap();
        queued.wait().unwrap();
    }

    #[test]
    fn cancelled_while_queued_never_runs() {
        let cfg = ServerConfig { max_concurrent: 1, queue_depth: 4, ..ServerConfig::default() };
        let server = Server::new(tiny_db(10), cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let running = server
            .submit(move |_ctx| {
                let (lock, cond) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
                Ok(Batch::new(vec![Column::from_i64(vec![1])]))
            })
            .unwrap();
        while server.load().0 == 0 {
            std::thread::yield_now();
        }
        let victim = server.submit_plan(scan_plan()).unwrap();
        victim.cancel();
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert_eq!(victim.wait(), Err(ServeError::Exec(ExecError::Cancelled)));
        running.wait().unwrap();
        assert_eq!(server.metrics().cancelled.get(), 1);
    }

    #[test]
    fn expired_deadline_fails_typed() {
        let server = Server::new(tiny_db(100), ServerConfig::default());
        let opts = QueryOptions { deadline: Some(Duration::ZERO), budget: None };
        let h = server.submit_with(opts, |ctx| run_plan(ctx, &scan_plan())).unwrap();
        assert_eq!(h.wait(), Err(ServeError::Exec(ExecError::DeadlineExceeded)));
        assert_eq!(server.metrics().deadline_exceeded.get(), 1);
    }

    #[test]
    fn panic_is_contained_to_one_query() {
        let server = Server::new(tiny_db(100), ServerConfig::default());
        let boom = server.submit(|_ctx| -> Result<Batch> { panic!("session goes boom") });
        match boom.unwrap().wait() {
            Err(ServeError::Panicked(m)) => assert!(m.contains("boom")),
            other => panic!("expected Panicked, got {:?}", other.map(|_| ())),
        }
        // The session survives and serves the next query.
        let out = server.submit_plan(scan_plan()).unwrap().wait().unwrap();
        assert_eq!(out.batch.rows(), 100);
        assert_eq!(server.metrics().panicked.get(), 1);
    }

    #[test]
    fn shutdown_bounces_queued_queries() {
        let cfg = ServerConfig { max_concurrent: 1, queue_depth: 4, ..ServerConfig::default() };
        let server = Server::new(tiny_db(10), cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let running = server
            .submit(move |_ctx| {
                let (lock, cond) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cond.wait(open).unwrap();
                }
                Ok(Batch::new(vec![Column::from_i64(vec![1])]))
            })
            .unwrap();
        while server.load().0 == 0 {
            std::thread::yield_now();
        }
        let queued = server.submit_plan(scan_plan()).unwrap();
        // Drop drains the queue *before* joining sessions, so the queued
        // query is bounced while the running one still blocks the only
        // session; the checker then opens the gate so the join finishes.
        let g3 = Arc::clone(&gate);
        let checker = std::thread::spawn(move || {
            assert_eq!(queued.wait(), Err(ServeError::ShuttingDown));
            *g3.0.lock().unwrap() = true;
            g3.1.notify_all();
        });
        drop(server);
        running.wait().unwrap();
        checker.join().unwrap();
    }
}
