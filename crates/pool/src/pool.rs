//! The persistent work-stealing worker pool.
//!
//! ## Architecture
//!
//! A [`WorkerPool`] owns a set of long-lived worker threads that park on a
//! condition variable when idle. Work arrives as index-addressed **jobs**
//! in two kinds of queues:
//!
//! * an **injector** — the FIFO entry point for streaming work
//!   ([`OrderedStream`] submits one job per in-flight morsel here);
//! * **per-worker deques** — blocking fan-outs ([`WorkerPool::scope_run`])
//!   seed their task indices round-robin across a window of worker deques
//!   (neighbouring, usually similarly sized morsels spread across
//!   workers). A worker pops from the *front* of its own deque and, when
//!   empty, takes from the injector or steals from the *back* of a
//!   victim's deque — the classic discipline, implemented with mutexed
//!   deques, which is plenty at morsel granularity (a task is thousands
//!   of rows; queue operations are a rounding error next to task bodies).
//!
//! Workers are spawned lazily ([`WorkerPool::ensure_workers`]) and only
//! ever *grow* to the largest width any caller asked for; after that
//! warm-up no OS thread is ever created again ([`WorkerPool::stats`]
//! exposes the monotone spawn counter that pins this in tests). Sharing
//! cuts the other way too: every fan-out carries a **claim gate** capping
//! its concurrent task bodies at the width it asked for, so a narrow
//! fan-out stays narrow even when a wider warm-up left extra workers
//! idle — stealing never runs a fan-out wider than its configuration.
//! Dropping a pool shuts it down gracefully: workers finish the queued
//! jobs, park out, and are joined.
//!
//! ## Blocking fan-outs and the thread-lending rule
//!
//! [`scope_run`](WorkerPool::scope_run) runs `task(0..ntasks)` and blocks
//! until every task finished, returning results **in task order** —
//! whatever order workers finished in — the property every merge in the
//! execution subsystem relies on for determinism. While it waits, the
//! calling thread is **lent to the pool**: it first drains its own
//! scope's unstarted tasks, then runs any other queued job, and only
//! parks when there is nothing runnable anywhere. Lending is what makes
//! *nested* fan-outs deadlock-free: a task that itself calls `scope_run`
//! (a probe round issued while a streaming scan's producers are live, an
//! oversized sandwich group inside a probe) always has at least one
//! thread — its own caller — making progress on its sub-tasks, so a
//! bottom-most scope can always finish, unwinding the whole stack of
//! waiters. (Each *blocked* scope therefore keeps exactly its caller
//! busy; no thread ever sleeps while runnable work exists.)
//!
//! Error/panic contract: the first task error — in task
//! order — is returned after every claimed task ran or was skipped; once
//! any task errs, workers stop *starting* this scope's tasks. A panicking
//! task is re-raised on the calling thread after the scope drains.
//!
//! Because scope tasks may borrow the caller's stack (the closure is not
//! `'static`), scope jobs are type-erased behind raw pointers; safety
//! rests on `scope_run` not returning until every job of the scope has
//! been popped and retired, which the completion counter enforces.
//!
//! ## Streaming fan-outs
//!
//! [`OrderedStream`] is the streaming shape: `task(0..ntasks)` with a
//! **bounded reorder buffer**. At most `cap` tasks are ever submitted
//! beyond the consumer's position — backpressure by *submission gating*
//! rather than by parking producers, so a stalled consumer costs the pool
//! nothing: workers run other jobs instead of sleeping on a full buffer.
//! [`recv`](OrderedStream::recv) releases results strictly in task order
//! and tops the window back up; dropping the stream cancels all unstarted
//! work, waits for in-flight tasks to retire, and leaves the pool ready
//! for the next query. Consumers must not call `recv` from inside a pool
//! task (a consumer does not lend its thread; every current operator
//! drives streams from plan-driver threads).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A failure originating in the pool machinery itself rather than in a
/// task body: a panicking streaming task surfaced as an error at its
/// index, or (unreachable in practice) a dropped task slot. Callers embed
/// it in their own error type via `From<PoolFailure>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolFailure(pub String);

impl fmt::Display for PoolFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PoolFailure {}

/// A unit of queued work: which runner, which task index.
struct Job {
    runner: Arc<dyn JobRunner>,
    index: usize,
}

/// Bounds one fan-out's concurrent task bodies to the width it asked for:
/// seeding only `width` deques is not enough on a shared pool, because
/// idle workers of a wider warm-up would steal past it. Claims are taken
/// under the queues lock (job selection), released when the body retires.
struct ClaimGate {
    active: AtomicUsize,
    limit: usize,
}

impl ClaimGate {
    fn new(limit: usize) -> ClaimGate {
        ClaimGate { active: AtomicUsize::new(0), limit: limit.max(1) }
    }

    fn try_claim(&self) -> bool {
        self.active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                (a < self.limit).then_some(a + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Type-erased executable work. Implemented by the (unsafe, borrowed)
/// scope core and the ('static, Arc'd) stream job.
trait JobRunner: Send + Sync {
    /// Reserve one concurrency slot of this job's fan-out. Called under
    /// the queues lock while selecting a job; a `false` leaves the job
    /// queued for later (its fan-out is already running `width` bodies —
    /// stealing must not run a fan-out wider than it asked for).
    /// [`run`](Self::run) releases the slot when the body retires.
    fn try_claim(&self) -> bool;
    fn run(&self, index: usize);
}

/// Scan a deque in pop order and take the first job whose fan-out has a
/// free concurrency slot (claimed as part of the removal — callers run
/// what they take). All jobs of one fan-out share one gate, so after a
/// runner denies a claim its remaining jobs are skipped by pointer
/// identity — a saturated 2500-morsel scope costs the scan one CAS plus
/// cheap pointer compares, not one CAS per queued job.
fn take_claimable(d: &mut VecDeque<Job>, from_front: bool) -> Option<Job> {
    let mut denied: Vec<*const ()> = Vec::new();
    let mut check = |j: &Job| {
        let key = Arc::as_ptr(&j.runner) as *const ();
        if denied.contains(&key) {
            return false;
        }
        let ok = j.runner.try_claim();
        if !ok {
            denied.push(key);
        }
        ok
    };
    let idx = if from_front {
        (0..d.len()).find(|&i| check(&d[i]))
    } else {
        (0..d.len()).rev().find(|&i| check(&d[i]))
    }?;
    d.remove(idx)
}

/// The queues, guarded by one mutex: at morsel granularity a fan-out
/// performs a handful of queue operations per task body of thousands of
/// rows, so a single lock is simpler than per-queue locks and just as
/// invisible in profiles.
struct Queues {
    injector: VecDeque<Job>,
    locals: Vec<VecDeque<Job>>,
    shutdown: bool,
    /// Telemetry (see [`PoolStats`]). Plain fields, not atomics: every
    /// pop, push and park already holds this mutex, so counting here is
    /// free — no new synchronization on any path.
    counters: PoolCounters,
}

/// The mutable telemetry counters inside [`Queues`].
#[derive(Debug, Default)]
struct PoolCounters {
    jobs: u64,
    steals: u64,
    parks: u64,
    lends: u64,
    lent_jobs: u64,
    queue_depth_hwm: u64,
    worker_jobs: Vec<u64>,
}

impl Queues {
    /// Record the current total queue depth into the high-water mark;
    /// called after pushes (scope seeding, stream submission).
    fn note_depth(&mut self) {
        let depth =
            (self.injector.len() + self.locals.iter().map(|d| d.len()).sum::<usize>()) as u64;
        self.counters.queue_depth_hwm = self.counters.queue_depth_hwm.max(depth);
    }

    /// Worker `me`'s pop order: own front, injector, steal a victim's
    /// back — skipping jobs whose fan-out is at its concurrency limit.
    fn pop_for(&mut self, me: usize) -> Option<Job> {
        if let Some(j) = take_claimable(&mut self.locals[me], true) {
            self.counters.jobs += 1;
            self.counters.worker_jobs[me] += 1;
            return Some(j);
        }
        if let Some(j) = take_claimable(&mut self.injector, true) {
            self.counters.jobs += 1;
            self.counters.worker_jobs[me] += 1;
            return Some(j);
        }
        let n = self.locals.len();
        for v in (me + 1..n).chain(0..me) {
            if let Some(j) = take_claimable(&mut self.locals[v], false) {
                self.counters.jobs += 1;
                self.counters.steals += 1;
                self.counters.worker_jobs[me] += 1;
                return Some(j);
            }
        }
        None
    }

    /// A lent (non-worker) thread's pop order: injector, then steal.
    fn pop_any(&mut self) -> Option<Job> {
        if let Some(j) = take_claimable(&mut self.injector, true) {
            self.counters.jobs += 1;
            self.counters.lent_jobs += 1;
            return Some(j);
        }
        for d in &mut self.locals {
            if let Some(j) = take_claimable(d, false) {
                self.counters.jobs += 1;
                self.counters.steals += 1;
                self.counters.lent_jobs += 1;
                return Some(j);
            }
        }
        None
    }

    /// Remove a claimable queued job belonging to `runner`, if any — the
    /// lent caller's own-scope-first preference. One claim decides the
    /// whole scan: every job of the runner shares the same gate, so the
    /// first match either claims or nothing here is claimable.
    fn pop_matching(&mut self, runner: &Arc<dyn JobRunner>) -> Option<Job> {
        let hit = |j: &Job| Arc::ptr_eq(&j.runner, runner);
        let taken = 'found: {
            if let Some(p) = self.injector.iter().position(hit) {
                break 'found runner.try_claim().then(|| self.injector.remove(p)).flatten();
            }
            for d in &mut self.locals {
                if let Some(p) = d.iter().position(hit) {
                    break 'found runner.try_claim().then(|| d.remove(p)).flatten();
                }
            }
            None
        };
        if taken.is_some() {
            self.counters.jobs += 1;
            self.counters.lent_jobs += 1;
        }
        taken
    }
}

struct PoolShared {
    queues: Mutex<Queues>,
    /// Woken on every job push *and* every job retirement: idle workers
    /// wait here for work, lent callers wait here for either more work or
    /// their scope's completion.
    work_cond: Condvar,
    /// Monotone count of OS threads this pool ever spawned (the warm-up
    /// invariant [`WorkerPool::stats`] exposes).
    spawned_total: AtomicUsize,
    /// Rotates the round-robin seed start so concurrent scopes don't all
    /// pile onto worker 0.
    seed_cursor: AtomicUsize,
}

impl PoolShared {
    /// Notify after a job retired or was pushed. The empty critical
    /// section is deliberate: a waiter checks its predicate *under* the
    /// queues lock before sleeping, so acquiring the lock here ensures the
    /// notification cannot slip between that check and the sleep.
    fn notify(&self) {
        drop(self.queues.lock().expect("pool queues poisoned"));
        self.work_cond.notify_all();
    }
}

/// Aggregate pool counters (see [`WorkerPool::stats`]). All counters are
/// process-lifetime monotone; use [`since`](PoolStats::since) to window
/// them over one query or benchmark phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Live worker threads.
    pub workers: usize,
    /// OS threads ever spawned by this pool — monotone; constant after
    /// warm-up is the persistent-pool guarantee.
    pub threads_spawned_total: usize,
    /// Job bodies taken from the queues (all paths: own deque, injector,
    /// steals, lent threads).
    pub jobs: u64,
    /// Jobs taken from a deque the taker does not own.
    pub steals: u64,
    /// Times a thread went to sleep on the work condvar (idle workers and
    /// blocked scope callers with nothing runnable).
    pub parks: u64,
    /// Thread-lending events: times a blocked `scope_run` caller entered
    /// the lent-thread loop.
    pub lends: u64,
    /// Jobs executed by lent (non-worker) threads.
    pub lent_jobs: u64,
    /// High-water mark of total queued (not yet taken) jobs.
    pub queue_depth_hwm: u64,
    /// Jobs taken by each worker, indexed like the worker deques.
    pub worker_jobs: Vec<u64>,
}

impl PoolStats {
    /// Counter deltas since `base` (an earlier snapshot of the same
    /// pool): the telemetry window for one query. `workers`,
    /// `threads_spawned_total` and `queue_depth_hwm` keep their current
    /// values — the first two describe pool shape, and the high-water
    /// mark is a lifetime maximum that cannot be windowed.
    pub fn since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            workers: self.workers,
            threads_spawned_total: self.threads_spawned_total,
            jobs: self.jobs.saturating_sub(base.jobs),
            steals: self.steals.saturating_sub(base.steals),
            parks: self.parks.saturating_sub(base.parks),
            lends: self.lends.saturating_sub(base.lends),
            lent_jobs: self.lent_jobs.saturating_sub(base.lent_jobs),
            queue_depth_hwm: self.queue_depth_hwm,
            worker_jobs: self
                .worker_jobs
                .iter()
                .enumerate()
                .map(|(i, &j)| j.saturating_sub(base.worker_jobs.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// A long-lived set of parked worker threads. See the [module docs](self)
/// for the architecture and the thread-lending contract.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

static SHARED: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// A pool with `workers` threads (more are spawned on demand by
    /// [`ensure_workers`](Self::ensure_workers)).
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                queues: Mutex::new(Queues {
                    injector: VecDeque::new(),
                    locals: Vec::new(),
                    shutdown: false,
                    counters: PoolCounters::default(),
                }),
                work_cond: Condvar::new(),
                spawned_total: AtomicUsize::new(0),
                seed_cursor: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide shared pool every production fan-out routes
    /// through — created empty on first touch, grown lazily to the widest
    /// fan-out ever requested, never dropped (workers park between
    /// queries; parked threads do not keep the process alive).
    pub fn shared() -> &'static WorkerPool {
        SHARED.get_or_init(|| WorkerPool::new(0))
    }

    /// Grow the worker set to at least `n` threads. Existing workers are
    /// never dropped or re-created — after the widest caller has been
    /// seen once, this is a no-op (`stats().threads_spawned_total` stays
    /// constant).
    pub fn ensure_workers(&self, n: usize) {
        let mut q = self.shared.queues.lock().expect("pool queues poisoned");
        let mut handles = self.handles.lock().expect("pool handles poisoned");
        while q.locals.len() < n {
            let me = q.locals.len();
            q.locals.push(VecDeque::new());
            q.counters.worker_jobs.push(0);
            self.shared.spawned_total.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let h = std::thread::Builder::new()
                .name(format!("bdcc-worker-{me}"))
                .spawn(move || worker_loop(&shared, me))
                .expect("spawn pool worker");
            handles.push(h);
        }
    }

    /// Snapshot of the pool's telemetry: thread counts plus the
    /// scheduling counters (jobs, steals, parks, lends, queue depth).
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queues.lock().expect("pool queues poisoned");
        PoolStats {
            workers: q.locals.len(),
            threads_spawned_total: self.shared.spawned_total.load(Ordering::Relaxed),
            jobs: q.counters.jobs,
            steals: q.counters.steals,
            parks: q.counters.parks,
            lends: q.counters.lends,
            lent_jobs: q.counters.lent_jobs,
            queue_depth_hwm: q.counters.queue_depth_hwm,
            worker_jobs: q.counters.worker_jobs.clone(),
        }
    }

    /// Run `task(0..ntasks)` across up to `width` workers plus the lent
    /// calling thread, blocking until every task finished; results return
    /// in task order. `width <= 1` or `ntasks <= 1` runs inline on the
    /// caller with zero pool interaction. See the [module docs](self) for
    /// the full error/panic contract and the lending rule.
    pub fn scope_run<T, E, F>(&self, width: usize, ntasks: usize, task: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<PoolFailure>,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.scope_run_labeled(width, ntasks, None, task)
    }

    /// [`scope_run`](Self::scope_run) with a static job label. The label
    /// names the fan-out site in re-raised panic payloads (`pool job
    /// 'join-probe' panicked: ...`), so a worker panic during a
    /// many-client serving run identifies the operator that died instead
    /// of an anonymous task index. Unlabeled scopes re-raise the original
    /// payload untouched.
    pub fn scope_run_labeled<T, E, F>(
        &self,
        width: usize,
        ntasks: usize,
        label: Option<&'static str>,
        task: F,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<PoolFailure>,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if width <= 1 || ntasks <= 1 {
            return (0..ntasks).map(&task).collect();
        }
        self.ensure_workers(width.min(ntasks));
        let slots: Vec<Mutex<Option<Result<T, E>>>> =
            (0..ntasks).map(|_| Mutex::new(None)).collect();
        // SAFETY: the raw pointers into `task` and `slots` stored in the
        // erased core are dereferenced only inside `ScopeCore::run`, and
        // `drain_scope` below does not return until `remaining` hit zero —
        // i.e. every job of this scope has been popped and retired — so
        // the borrows outlive every dereference.
        let data = ScopeData { task: &task as *const F, slots: slots.as_ptr() };
        let core: Arc<ScopeCore> = Arc::new(ScopeCore {
            run_one: run_one_impl::<T, E, F>,
            data: &data as *const ScopeData<T, E, F> as *const (),
            remaining: AtomicUsize::new(ntasks),
            gate: ClaimGate::new(width),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
            label,
        });
        {
            let mut q = self.shared.queues.lock().expect("pool queues poisoned");
            let n = q.locals.len().max(1);
            let w = width.min(n);
            let start = self.shared.seed_cursor.fetch_add(1, Ordering::Relaxed);
            for t in 0..ntasks {
                let runner: Arc<dyn JobRunner> = Arc::clone(&core) as Arc<dyn JobRunner>;
                q.locals[(start + t % w) % n].push_back(Job { runner, index: t });
            }
            q.note_depth();
        }
        self.shared.work_cond.notify_all();
        self.drain_scope(&core);
        if let Some(p) = core.panic.lock().expect("scope panic slot poisoned").take() {
            resume_unwind(p);
        }
        collect_results(slots)
    }

    /// The lent-thread loop: until `core`'s scope completes, run its own
    /// queued tasks first, then any other claimable queued job, and park
    /// only when nothing anywhere is runnable (woken by every job push
    /// and every retirement — either may complete the scope or free a
    /// concurrency slot).
    fn drain_scope(&self, core: &Arc<ScopeCore>) {
        let own: Arc<dyn JobRunner> = Arc::clone(core) as Arc<dyn JobRunner>;
        {
            let mut q = self.shared.queues.lock().expect("pool queues poisoned");
            q.counters.lends += 1;
        }
        loop {
            if core.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            let job = {
                let mut q = self.shared.queues.lock().expect("pool queues poisoned");
                if core.remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                match q.pop_matching(&own).or_else(|| q.pop_any()) {
                    Some(j) => Some(j),
                    None => {
                        q.counters.parks += 1;
                        drop(self.shared.work_cond.wait(q).expect("pool queues poisoned"));
                        None
                    }
                }
            };
            if let Some(j) = job {
                j.runner.run(j.index);
                drop(j);
                self.shared.notify();
            }
        }
    }

    /// Enqueue one streaming job on the injector.
    fn submit(&self, runner: Arc<dyn JobRunner>, index: usize) {
        {
            let mut q = self.shared.queues.lock().expect("pool queues poisoned");
            q.injector.push_back(Job { runner, index });
            q.note_depth();
        }
        self.work_cond_notify();
    }

    fn work_cond_notify(&self) {
        self.shared.work_cond.notify_all();
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: flag, wake everyone, join. Workers drain any
    /// queued jobs before exiting (at drop time those can only be
    /// cancelled stream no-ops — blocking scopes cannot outlive their
    /// callers, and a caller blocks in `scope_run`).
    fn drop(&mut self) {
        {
            let mut q = self.shared.queues.lock().expect("pool queues poisoned");
            q.shutdown = true;
        }
        self.shared.work_cond.notify_all();
        for h in self.handles.get_mut().expect("pool handles poisoned").drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        let job = {
            let mut q = shared.queues.lock().expect("pool queues poisoned");
            loop {
                if let Some(j) = q.pop_for(me) {
                    break Some(j);
                }
                if q.shutdown {
                    break None;
                }
                q.counters.parks += 1;
                q = shared.work_cond.wait(q).expect("pool queues poisoned");
            }
        };
        match job {
            Some(j) => {
                j.runner.run(j.index);
                drop(j);
                shared.notify();
            }
            None => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking scopes (borrowed, type-erased)
// ---------------------------------------------------------------------------

/// The borrowed ends of one scope, monomorphized per `(T, E, F)`; lives on
/// the `scope_run` stack frame and is reached only through [`ScopeCore`].
struct ScopeData<T, E, F> {
    task: *const F,
    slots: *const Mutex<Option<Result<T, E>>>,
}

/// Runs task `i` of the scope `data` points at, storing the result in its
/// slot; returns whether it was an error (the short-circuit signal).
///
/// # Safety
/// `data` must point at a live `ScopeData<T, E, F>` whose `task` and
/// `slots` borrows are still valid, and `i` must be in bounds of `slots`.
unsafe fn run_one_impl<T, E, F>(data: *const (), i: usize) -> bool
where
    F: Fn(usize) -> Result<T, E>,
{
    let d = &*(data as *const ScopeData<T, E, F>);
    let r = (*d.task)(i);
    let is_err = r.is_err();
    *(*d.slots.add(i)).lock().expect("slot poisoned") = Some(r);
    is_err
}

/// The type-erased shared state of one blocking scope. `Send`/`Sync` are
/// asserted manually: the raw pointers reach only `Sync` data (`F: Sync`,
/// slots behind mutexes), and `scope_run` keeps the pointees alive until
/// the last job retired.
struct ScopeCore {
    run_one: unsafe fn(*const (), usize) -> bool,
    data: *const (),
    /// Jobs not yet retired (run, skipped or panicked). Zero ⇒ the caller
    /// may reclaim the borrowed task and slots.
    remaining: AtomicUsize,
    /// At most `width` bodies of this scope execute concurrently.
    gate: ClaimGate,
    /// Set on first error or panic: later jobs of this scope are skipped
    /// instead of run (the fan-out's query is already doomed).
    failed: AtomicBool,
    /// First panic payload, re-raised on the calling thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Fan-out site name, prefixed onto re-raised panic payloads; `None`
    /// re-raises the original payload untouched.
    label: Option<&'static str>,
}

/// Render a caught panic payload for embedding in a labeled message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

unsafe impl Send for ScopeCore {}
unsafe impl Sync for ScopeCore {}

impl JobRunner for ScopeCore {
    fn try_claim(&self) -> bool {
        self.gate.try_claim()
    }

    fn run(&self, index: usize) {
        if !self.failed.load(Ordering::Relaxed) {
            // SAFETY: scope_run guarantees the pointees outlive this call
            // (it blocks until `remaining` reaches zero, which happens
            // strictly after this body).
            match catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = crate::inject::global() {
                    inj.job_boundary(self.label.unwrap_or("scope-job"));
                }
                unsafe { (self.run_one)(self.data, index) }
            })) {
                Ok(is_err) => {
                    if is_err {
                        self.failed.store(true, Ordering::Relaxed);
                    }
                }
                Err(payload) => {
                    let mut slot = self.panic.lock().expect("scope panic slot poisoned");
                    if slot.is_none() {
                        // A labeled scope re-raises a message naming the
                        // fan-out site; an unlabeled one re-raises the
                        // caller's original payload untouched.
                        *slot = Some(match self.label {
                            Some(l) => Box::new(format!(
                                "pool job '{l}' panicked: {}",
                                panic_message(payload.as_ref())
                            )),
                            None => payload,
                        });
                    }
                    self.failed.store(true, Ordering::Relaxed);
                }
            }
        }
        self.gate.release();
        self.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Turn a fan-out's result slots into the caller-facing `Result`:
/// propagate the first *actual* error in task order (slots skipped after
/// the short-circuit are not themselves the failure), otherwise unwrap
/// every slot.
fn collect_results<T, E>(slots: Vec<Mutex<Option<Result<T, E>>>>) -> Result<Vec<T>, E>
where
    E: From<PoolFailure>,
{
    let mut results: Vec<Option<Result<T, E>>> =
        slots.into_iter().map(|s| s.into_inner().expect("slot poisoned")).collect();
    if let Some(pos) = results.iter().position(|r| matches!(r, Some(Err(_)))) {
        match results.swap_remove(pos) {
            Some(Err(e)) => return Err(e),
            _ => unreachable!("position matched an error"),
        }
    }
    results
        .into_iter()
        .map(|r| match r {
            Some(Ok(v)) => Ok(v),
            Some(Err(_)) => unreachable!("first error already propagated"),
            None => Err(E::from(PoolFailure("worker pool dropped a task".into()))),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ordered streams ('static, submission-gated)
// ---------------------------------------------------------------------------

/// Shared state of one streaming fan-out.
struct StreamState<T, E> {
    /// Completed results awaiting release, keyed by task index. Occupancy
    /// is bounded by `cap` through the submission window: `submitted`
    /// never runs more than `cap` ahead of the consumer's next index
    /// (the initial window is `cap` and each release submits one more).
    buffer: HashMap<usize, Result<T, E>>,
    /// Tasks handed to the pool so far (an ascending prefix `0..submitted`).
    submitted: usize,
    /// Tasks currently executing a body (drop waits for these to retire).
    running: usize,
    /// Consumer gone (drop) — unstarted jobs become no-ops.
    cancelled: bool,
    /// A task failed — the consumer hits the error at its index and no
    /// further tasks are submitted; already-submitted ones still run (the
    /// consumer may need their predecessors' results first).
    failed: bool,
}

struct StreamShared<T, E> {
    state: Mutex<StreamState<T, E>>,
    cond: Condvar,
    task: Box<dyn Fn(usize) -> Result<T, E> + Send + Sync>,
}

/// One stream's pool-facing job (a single instance shared by every
/// submission): runs `task(index)` and publishes into the reorder buffer.
struct StreamJob<T, E> {
    shared: Arc<StreamShared<T, E>>,
    /// At most `threads` bodies of this stream execute concurrently,
    /// whatever the warm pool's width.
    gate: ClaimGate,
    /// Fan-out site name included in panic-derived [`PoolFailure`]s.
    label: Option<&'static str>,
}

impl<T, E> JobRunner for StreamJob<T, E>
where
    T: Send + 'static,
    E: Send + From<PoolFailure> + 'static,
{
    fn try_claim(&self) -> bool {
        self.gate.try_claim()
    }

    fn run(&self, index: usize) {
        {
            let mut st = self.shared.state.lock().expect("stream state poisoned");
            if st.cancelled {
                // Cancelled before starting: retire without running. The
                // notify below lets a Drop waiting on `running` recheck.
                self.gate.release();
                self.shared.cond.notify_all();
                return;
            }
            st.running += 1;
        }
        // A panicking task must still publish *something*, or the consumer
        // would wait on its index forever. Surface it as an error at the
        // task's index instead.
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = crate::inject::global() {
                inj.job_boundary(self.label.unwrap_or("stream-job"));
            }
            (self.shared.task)(index)
        }))
        .unwrap_or_else(|p| {
            let msg = panic_message(p.as_ref());
            Err(E::from(PoolFailure(match self.label {
                Some(l) => format!("streaming worker '{l}' panicked: {msg}"),
                None => format!("streaming worker panicked: {msg}"),
            })))
        });
        let r = {
            let mut st = self.shared.state.lock().expect("stream state poisoned");
            if !st.cancelled {
                if r.is_err() {
                    st.failed = true;
                }
                st.buffer.insert(index, r);
                None
            } else {
                Some(r)
            }
        };
        // A result produced after cancellation must drop *before* this
        // body retires: Drop waits on `running == 0` as its "no task code
        // executing, every tracked byte released" guarantee, and a
        // descheduled worker still holding the result would break it.
        drop(r);
        let mut st = self.shared.state.lock().expect("stream state poisoned");
        st.running -= 1;
        self.gate.release();
        self.shared.cond.notify_all();
    }
}

/// Streaming ordered fan-out over the shared [`WorkerPool`]: tasks
/// `0..ntasks` are submitted to the pool at most `cap` ahead of the
/// consumer, the consumer pulls results **in task order**, and at most
/// `cap` results are in flight (submitted but unreleased) at once. See the
/// [module docs](self) for the backpressure and cancellation contract.
pub struct OrderedStream<T, E> {
    shared: Arc<StreamShared<T, E>>,
    /// The one job runner every submission of this stream reuses.
    runner: Arc<dyn JobRunner>,
    pool: &'static WorkerPool,
    ntasks: usize,
    /// Next task index to release; `ntasks` once exhausted or failed.
    next: usize,
}

impl<T, E> OrderedStream<T, E>
where
    T: Send + 'static,
    E: Send + From<PoolFailure> + 'static,
{
    /// Start the stream on the shared pool, which is grown to at least
    /// `threads` workers. `cap` is clamped to at least `threads` (a
    /// smaller cap could not even keep one result per worker in flight).
    pub fn spawn<F>(threads: usize, ntasks: usize, cap: usize, task: F) -> OrderedStream<T, E>
    where
        F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
    {
        OrderedStream::spawn_labeled(threads, ntasks, cap, None, task)
    }

    /// [`spawn`](Self::spawn) with a static job label naming the fan-out
    /// site in panic-derived [`PoolFailure`] messages.
    pub fn spawn_labeled<F>(
        threads: usize,
        ntasks: usize,
        cap: usize,
        label: Option<&'static str>,
        task: F,
    ) -> OrderedStream<T, E>
    where
        F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
    {
        let threads = threads.min(ntasks).max(1);
        let pool = WorkerPool::shared();
        pool.ensure_workers(threads);
        let cap = cap.max(threads);
        let shared = Arc::new(StreamShared {
            state: Mutex::new(StreamState {
                buffer: HashMap::new(),
                submitted: 0,
                running: 0,
                cancelled: false,
                failed: false,
            }),
            cond: Condvar::new(),
            task: Box::new(task),
        });
        let runner: Arc<dyn JobRunner> = Arc::new(StreamJob {
            shared: Arc::clone(&shared),
            gate: ClaimGate::new(threads),
            label,
        });
        let stream = OrderedStream { shared, runner, pool, ntasks, next: 0 };
        let initial = cap.min(ntasks);
        stream.shared.state.lock().expect("stream state poisoned").submitted = initial;
        for i in 0..initial {
            stream.pool.submit(Arc::clone(&stream.runner), i);
        }
        stream
    }

    /// Completed-but-unreleased results currently in the reorder buffer —
    /// an occupancy probe for stream telemetry (a consumer that samples
    /// this at every [`recv`](Self::recv) sees how far the producers run
    /// ahead of it within the `cap` window).
    pub fn buffered(&self) -> usize {
        self.shared.state.lock().expect("stream state poisoned").buffer.len()
    }

    /// The next task's result, in task order; blocks until a worker
    /// publishes it. `Ok(None)` after the last task; a task error is
    /// returned at its index and ends the stream (a *panicking* task is
    /// published as a [`PoolFailure`]-derived error at its index).
    /// Releasing a result opens one submission slot, which is handed to
    /// the pool before returning.
    pub fn recv(&mut self) -> Result<Option<T>, E> {
        if self.next >= self.ntasks {
            return Ok(None);
        }
        let i = self.next;
        let result = {
            let mut st = self.shared.state.lock().expect("stream state poisoned");
            loop {
                if let Some(r) = st.buffer.remove(&i) {
                    break r;
                }
                st = self.shared.cond.wait(st).expect("stream state poisoned");
            }
        };
        match result {
            Ok(v) => {
                self.next += 1;
                let to_submit = {
                    let mut st = self.shared.state.lock().expect("stream state poisoned");
                    if st.submitted < self.ntasks && !st.failed {
                        st.submitted += 1;
                        Some(st.submitted - 1)
                    } else {
                        None
                    }
                };
                if let Some(s) = to_submit {
                    self.pool.submit(Arc::clone(&self.runner), s);
                }
                Ok(Some(v))
            }
            Err(e) => {
                self.next = self.ntasks; // terminal
                Err(e)
            }
        }
    }
}

impl<T, E> Drop for OrderedStream<T, E> {
    /// Cancel-on-drop: unstarted jobs become no-ops, buffered results are
    /// released immediately, and the drop blocks until in-flight task
    /// bodies retire — after this returns, no task code of this stream is
    /// executing (the guarantee memory accounting relies on).
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("stream state poisoned");
        st.cancelled = true;
        st.buffer.clear();
        while st.running > 0 {
            st = self.shared.cond.wait(st).expect("stream state poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, PartialEq, Eq)]
    struct TestErr(String);

    impl From<PoolFailure> for TestErr {
        fn from(f: PoolFailure) -> TestErr {
            TestErr(f.0)
        }
    }

    type R<T> = Result<T, TestErr>;

    #[test]
    fn scope_results_arrive_in_task_order() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.scope_run(4, 33, |i| R::Ok(i * 2)).unwrap();
        assert_eq!(out, (0..33).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let out: Vec<usize> = pool
            .scope_run(3, 100, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                R::Ok(i)
            })
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn scope_propagates_first_error_in_task_order() {
        let pool = WorkerPool::new(3);
        let r: R<Vec<usize>> =
            pool.scope_run(
                3,
                20,
                |i| {
                    if i == 7 {
                        Err(TestErr(format!("boom {i}")))
                    } else {
                        Ok(i)
                    }
                },
            );
        assert_eq!(r.unwrap_err(), TestErr("boom 7".into()));
    }

    #[test]
    fn scope_propagates_panics() {
        let pool = WorkerPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _: Vec<usize> = pool
                .scope_run(4, 16, |i| {
                    if i == 5 {
                        panic!("task exploded");
                    }
                    R::Ok(i)
                })
                .unwrap();
        }));
        let payload = r.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().expect("payload preserved");
        assert_eq!(*msg, "task exploded");
        // The pool survives a panicking scope.
        let out: Vec<usize> = pool.scope_run(4, 8, R::Ok).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Outer tasks occupy every worker; inner scopes can only finish
        // because blocked callers lend themselves to the pool.
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool
            .scope_run(4, 8, |i| {
                let inner: Vec<usize> = pool.scope_run(4, 8, |j| R::Ok(i * 100 + j))?;
                R::Ok(inner.into_iter().sum())
            })
            .unwrap();
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn deeply_nested_scopes_on_a_tiny_pool() {
        let pool = WorkerPool::new(2);
        let out: Vec<usize> = pool
            .scope_run(2, 4, |a| {
                let mid: Vec<usize> = pool.scope_run(2, 4, |b| {
                    let leaf: Vec<usize> = pool.scope_run(2, 4, |c| R::Ok(a + b + c))?;
                    R::Ok(leaf.into_iter().sum())
                })?;
                R::Ok(mid.into_iter().sum())
            })
            .unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn pool_drop_joins_workers_gracefully() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.scope_run(4, 32, R::Ok).unwrap();
        assert_eq!(out.len(), 32);
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.threads_spawned_total, 4);
        drop(pool); // must not hang
    }

    #[test]
    fn workers_grow_once_and_never_again() {
        let pool = WorkerPool::new(0);
        let _: Vec<usize> = pool.scope_run(4, 16, R::Ok).unwrap();
        assert_eq!(pool.stats().threads_spawned_total, 4);
        for _ in 0..20 {
            let _: Vec<usize> = pool.scope_run(4, 16, R::Ok).unwrap();
            let _: Vec<usize> = pool.scope_run(2, 64, R::Ok).unwrap();
        }
        assert_eq!(pool.stats().threads_spawned_total, 4, "warm pool must not spawn");
        let _: Vec<usize> = pool.scope_run(6, 12, R::Ok).unwrap();
        assert_eq!(pool.stats().threads_spawned_total, 6, "wider fan-out grows the pool once");
    }

    #[test]
    fn telemetry_counts_jobs_and_multi_worker_fanout() {
        let pool = WorkerPool::new(4);
        let base = pool.stats();
        let _: Vec<usize> = pool
            .scope_run(4, 64, |i| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                R::Ok(i)
            })
            .unwrap();
        let d = pool.stats().since(&base);
        // Every task body was taken through a counted pop path.
        assert_eq!(d.jobs, 64);
        // The blocked caller lent itself at least once.
        assert!(d.lends >= 1);
        // Seeding 64 jobs left a nonzero queue depth behind.
        assert!(d.queue_depth_hwm >= 1);
        // Worker jobs + lent jobs account for every job.
        assert_eq!(d.worker_jobs.iter().sum::<u64>() + d.lent_jobs, d.jobs);
        // A warm-pool fan-out must actually spread across workers —
        // relaxed on single-core machines, where the OS may legitimately
        // run the whole scope on whichever thread it wakes first.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores > 1 {
            let active = d.worker_jobs.iter().filter(|&&j| j > 0).count();
            assert!(
                active >= 2,
                "warm-pool fan-out ran on {active} worker(s): {:?}",
                d.worker_jobs
            );
        }
    }

    #[test]
    fn fan_out_width_bounds_concurrency_on_a_wider_pool() {
        // 6 idle workers, width-2 fan-out: the claim gate must keep the
        // stealing workers from running the scope wider than asked.
        let pool = WorkerPool::new(6);
        let active = AtomicUsize::new(0);
        let high = AtomicUsize::new(0);
        let _: Vec<usize> = pool
            .scope_run(2, 48, |i| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                high.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                active.fetch_sub(1, Ordering::SeqCst);
                R::Ok(i)
            })
            .unwrap();
        assert!(
            high.load(Ordering::SeqCst) <= 2,
            "width-2 scope ran {} bodies concurrently",
            high.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn stream_width_bounds_concurrency_on_a_wider_pool() {
        // The shared pool may be warmed wide by other tests; a threads-2
        // stream must still run at most 2 bodies at once (its submission
        // window of `cap` jobs does not widen execution).
        WorkerPool::shared().ensure_workers(6);
        let active = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (a, h) = (Arc::clone(&active), Arc::clone(&high));
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(2, 40, 8, move |i| {
            let now = a.fetch_add(1, Ordering::SeqCst) + 1;
            h.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            a.fetch_sub(1, Ordering::SeqCst);
            Ok(i)
        });
        let mut n = 0;
        while s.recv().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 40);
        assert!(
            high.load(Ordering::SeqCst) <= 2,
            "threads-2 stream ran {} bodies concurrently",
            high.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn borrowed_captures_survive_the_scope() {
        // Tasks borrow a caller-stack buffer; the completion counter must
        // keep scope_run blocked until the last borrow ended.
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..10_000).collect();
        let chunks = 16;
        let per = data.len() / chunks;
        let sums: Vec<u64> = pool
            .scope_run(4, chunks, |i| R::Ok(data[i * per..(i + 1) * per].iter().sum()))
            .unwrap();
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn stream_yields_results_in_task_order_and_bounds_flight() {
        let outstanding = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (o, h) = (Arc::clone(&outstanding), Arc::clone(&high));
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(4, 40, 4, move |i| {
            let now = o.fetch_add(1, Ordering::SeqCst) + 1;
            h.fetch_max(now, Ordering::SeqCst);
            Ok(i)
        });
        let mut got = Vec::new();
        while let Some(v) = s.recv().unwrap() {
            outstanding.fetch_sub(1, Ordering::SeqCst);
            got.push(v);
        }
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        // +1 slack: the consumer's decrement lands after recv returns, so
        // a task released by that recv can start (and count) first — a
        // measurement race, not a cap leak.
        assert!(
            high.load(Ordering::SeqCst) <= 5,
            "in-flight {} exceeded cap",
            high.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn stream_drop_cancels_unstarted_work() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(2, 1000, 2, move |i| {
            r.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            Ok(i)
        });
        assert_eq!(s.recv().unwrap(), Some(0));
        drop(s);
        let after_drop = ran.load(Ordering::SeqCst);
        assert!(after_drop < 1000, "drop must cancel unstarted tasks, ran {after_drop}");
        // No task body is running after drop returns, and none start later.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ran.load(Ordering::SeqCst), after_drop, "tasks ran after cancellation");
    }

    #[test]
    fn stream_drop_releases_every_result_before_returning() {
        // Regression: a worker whose result landed after cancellation
        // used to retire from `running` *before* dropping it, so
        // OrderedStream::drop could return while a descheduled worker
        // still held the payload — and anything its destructor releases
        // (tracked memory, spill files) leaked past the drop.
        struct Payload {
            freed: Arc<AtomicUsize>,
        }
        impl Drop for Payload {
            fn drop(&mut self) {
                self.freed.fetch_add(1, Ordering::SeqCst);
            }
        }
        for round in 0..30 {
            let made = Arc::new(AtomicUsize::new(0));
            let freed = Arc::new(AtomicUsize::new(0));
            let (m, f) = (Arc::clone(&made), Arc::clone(&freed));
            let mut s: OrderedStream<Payload, TestErr> =
                OrderedStream::spawn(4, 64, 8, move |_| {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    m.fetch_add(1, Ordering::SeqCst);
                    Ok(Payload { freed: Arc::clone(&f) })
                });
            drop(s.recv().unwrap().expect("first result"));
            drop(s);
            assert_eq!(
                made.load(Ordering::SeqCst),
                freed.load(Ordering::SeqCst),
                "round {round}: every produced payload must drop before the stream's Drop returns"
            );
        }
    }

    #[test]
    fn scope_inside_stream_consumer_does_not_deadlock() {
        // The nested shape a streaming scan + HashJoin produce: a streaming
        // fan-out is live while its consumer issues blocking fan-outs.
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(4, 30, 8, Ok);
        let pool = WorkerPool::shared();
        let mut total = 0usize;
        while let Some(v) = s.recv().unwrap() {
            let part: Vec<usize> = pool.scope_run(4, 6, |j| R::Ok(v * 10 + j)).unwrap();
            total += part.into_iter().sum::<usize>();
        }
        let expect: usize = (0..30).map(|v| (0..6).map(|j| v * 10 + j).sum::<usize>()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn labeled_scope_panic_names_the_fanout_site() {
        let pool = WorkerPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _: Vec<usize> = pool
                .scope_run_labeled(4, 16, Some("probe-round"), |i| {
                    if i == 3 {
                        panic!("index died");
                    }
                    R::Ok(i)
                })
                .unwrap();
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("labeled payload is a String");
        assert_eq!(msg, "pool job 'probe-round' panicked: index died");
    }

    #[test]
    fn labeled_stream_panic_names_the_fanout_site() {
        let mut s: OrderedStream<usize, TestErr> =
            OrderedStream::spawn_labeled(2, 8, 4, Some("scan-morsel"), |i| {
                if i == 0 {
                    panic!("morsel died");
                }
                Ok(i)
            });
        let err = loop {
            match s.recv() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("stream must surface the panic"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.0, "streaming worker 'scan-morsel' panicked: morsel died");
    }
}
