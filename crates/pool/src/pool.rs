//! The persistent worker pool that runs queries' fan-outs.
//!
//! ## Architecture
//!
//! A [`WorkerPool`] owns a set of long-lived worker threads that park on a
//! condition variable when idle. Work arrives as index-addressed **jobs**
//! in **one FIFO queue** behind one mutex: a streaming fan-out
//! ([`OrderedStream`]) submits one job per in-flight morsel to the back.
//! A worker takes the first *claimable* job from the front. One lock is
//! plenty at morsel granularity: a task is thousands of rows, and queue
//! operations are a rounding error next to task bodies.
//!
//! Every fan-out carries a **claim gate** capping its concurrent task
//! bodies at the width it asked for, so a narrow fan-out stays narrow even
//! when a wider warm-up left extra workers idle. A job is claimable when
//! its gate has a free slot; a worker skips the jobs of a saturated
//! fan-out (after one denied claim, by pointer identity) and runs the
//! first job behind them whose fan-out has room.
//!
//! Workers are spawned lazily ([`WorkerPool::ensure_workers`]) and only
//! ever *grow* to the largest width any caller asked for; after that
//! warm-up no OS thread is ever created again ([`WorkerPool::stats`]
//! exposes the monotone spawn counter that pins this in tests).
//! Dropping a pool shuts it down gracefully: workers finish the queued
//! jobs, park out, and are joined.
//!
//! Set-up does not run here: its fan-outs borrow the caller's data and run
//! on scoped threads ([`crate::scoped`]), so a serial process never spawns
//! a worker.
//!
//! ## Streaming fan-outs
//!
//! [`OrderedStream`] runs `task(0..ntasks)` with a **bounded reorder
//! buffer**. At most `cap` tasks are ever submitted beyond the
//! consumer's position — backpressure by *submission gating*
//! rather than by parking producers, so a stalled consumer costs the pool
//! nothing: workers run other jobs instead of sleeping on a full buffer.
//! [`recv`](OrderedStream::recv) releases results strictly in task order;
//! the result it returned keeps its slot until the consumer comes back for
//! the next one, so the window bounds what the consumer holds too. Dropping
//! the stream cancels all unstarted work, waits for in-flight tasks to
//! retire, and leaves the pool ready for the next query. A panicking task
//! is published as an error at its index, naming the fan-out site
//! (`streaming worker 'agg-partial' panicked: ...`). Consumers must not
//! call `recv` from inside a pool task (a waiting consumer runs no jobs;
//! every current operator drives streams from plan-driver threads).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A failure originating in the pool machinery itself rather than in a
/// task body: a panicking streaming task, surfaced as an error at its
/// index. Callers embed it in their own error type via
/// `From<PoolFailure>`.
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
/// on a shared pool warmed wider, idle workers would otherwise take every
/// queued job of a narrow fan-out at once. Claims are taken under the
/// queues lock (job selection), released when the body retires.
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

/// Type-erased executable work: one stream's job, whatever its result
/// types.
trait JobRunner: Send + Sync {
    /// Reserve one concurrency slot of this job's fan-out. Called under
    /// the queues lock while selecting a job; a `false` leaves the job
    /// queued for later (its fan-out is already running `width` bodies).
    /// [`run`](Self::run) releases the slot when the body retires.
    fn try_claim(&self) -> bool;
    fn run(&self, index: usize);
}

/// Take the first queued job whose fan-out has a free concurrency slot
/// (claimed as part of the removal — callers run what they take). All
/// jobs of one fan-out share one gate, so after a runner denies a claim
/// its remaining jobs are skipped by pointer identity — a saturated
/// 2500-morsel fan-out costs the scan one CAS plus cheap pointer compares,
/// not one CAS per queued job.
fn take_claimable(jobs: &mut VecDeque<Job>) -> Option<Job> {
    let mut denied: Vec<*const ()> = Vec::new();
    let idx = jobs.iter().position(|j| {
        let key = Arc::as_ptr(&j.runner) as *const ();
        if denied.contains(&key) {
            return false;
        }
        let ok = j.runner.try_claim();
        if !ok {
            denied.push(key);
        }
        ok
    })?;
    jobs.remove(idx)
}

/// The job queue, guarded by one mutex: at morsel granularity a fan-out
/// performs a handful of queue operations per task body of thousands of
/// rows, so a single FIFO behind a single lock is as invisible in profiles
/// as anything finer.
struct Queues {
    jobs: VecDeque<Job>,
    /// Worker threads spawned so far (the pool only grows).
    workers: usize,
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
    parks: u64,
    queue_depth_hwm: u64,
    worker_jobs: Vec<u64>,
}

impl Queues {
    /// Worker `me`'s pop: the first claimable job.
    fn pop_for(&mut self, me: usize) -> Option<Job> {
        let j = take_claimable(&mut self.jobs)?;
        self.counters.jobs += 1;
        self.counters.worker_jobs[me] += 1;
        Some(j)
    }
}

struct PoolShared {
    queues: Mutex<Queues>,
    /// Woken on every job push *and* every job retirement: idle workers
    /// wait here for work, and a retirement frees a claim-gate slot that
    /// may make a denied job claimable.
    work_cond: Condvar,
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
    /// Job bodies taken from the queue.
    pub jobs: u64,
    /// Always 0: the pool has one shared queue and nothing to steal from.
    /// Kept because the scoreboard's `pool_steals` column reads it.
    pub steals: u64,
    /// Times an idle worker went to sleep on the work condvar.
    pub parks: u64,
    /// Always 0: only workers run jobs, nothing lends a thread to the
    /// pool. Kept because the scoreboard's `pool_lent_jobs` column reads
    /// it.
    pub lent_jobs: u64,
    /// High-water mark of total queued (not yet taken) jobs.
    pub queue_depth_hwm: u64,
    /// Jobs taken by each worker, indexed by worker number.
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
            steals: 0,
            parks: self.parks.saturating_sub(base.parks),
            lent_jobs: 0,
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
/// for the architecture.
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
                    jobs: VecDeque::new(),
                    workers: 0,
                    shutdown: false,
                    counters: PoolCounters::default(),
                }),
                work_cond: Condvar::new(),
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
        while q.workers < n {
            let me = q.workers;
            q.workers += 1;
            q.counters.worker_jobs.push(0);
            let shared = Arc::clone(&self.shared);
            let h = std::thread::Builder::new()
                .name(format!("bdcc-worker-{me}"))
                .spawn(move || worker_loop(&shared, me))
                .expect("spawn pool worker");
            handles.push(h);
        }
    }

    /// Snapshot of the pool's telemetry: thread counts plus the
    /// scheduling counters (jobs, parks, queue depth). Workers are
    /// never dropped while the pool lives, so the spawn total is the
    /// worker count.
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queues.lock().expect("pool queues poisoned");
        PoolStats {
            workers: q.workers,
            threads_spawned_total: q.workers,
            jobs: q.counters.jobs,
            steals: 0,
            parks: q.counters.parks,
            lent_jobs: 0,
            queue_depth_hwm: q.counters.queue_depth_hwm,
            worker_jobs: q.counters.worker_jobs.clone(),
        }
    }

    /// Enqueue one streaming job at the back of the queue and record the
    /// depth's high-water mark.
    fn submit(&self, runner: Arc<dyn JobRunner>, index: usize) {
        let mut q = self.shared.queues.lock().expect("pool queues poisoned");
        q.jobs.push_back(Job { runner, index });
        q.counters.queue_depth_hwm = q.counters.queue_depth_hwm.max(q.jobs.len() as u64);
        drop(q);
        self.shared.work_cond.notify_all();
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: flag, wake everyone, join. Workers drain any
    /// queued jobs before exiting (at drop time those can only be
    /// cancelled stream no-ops: a stream borrows the pool for `'static`).
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

/// Render a caught panic payload for embedding in a labeled message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

// ---------------------------------------------------------------------------
// Ordered streams ('static, submission-gated)
// ---------------------------------------------------------------------------

/// Shared state of one streaming fan-out.
struct StreamState<T, E> {
    /// Completed results awaiting release, keyed by task index. Occupancy
    /// is bounded by `cap` through the submission window: `submitted`
    /// never runs more than `cap` ahead of the consumer's next index
    /// (the initial window is `cap`, and the `recv` after a release
    /// submits one more).
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
    label: &'static str,
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
                inj.job_boundary(self.label);
            }
            (self.shared.task)(index)
        }))
        .unwrap_or_else(|p| {
            let msg = panic_message(p.as_ref());
            Err(E::from(PoolFailure(format!("streaming worker '{}' panicked: {msg}", self.label))))
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
/// `cap` results are alive at once — submitted and not yet released, or the
/// last one released, until the next [`recv`](Self::recv). See the
/// [module docs](self) for the backpressure and cancellation contract.
pub struct OrderedStream<T, E> {
    shared: Arc<StreamShared<T, E>>,
    /// The one job runner every submission of this stream reuses.
    runner: Arc<dyn JobRunner>,
    pool: &'static WorkerPool,
    ntasks: usize,
    /// Next task index to release; `ntasks` once exhausted or failed.
    next: usize,
    /// The consumer holds a released result whose slot the next `recv`
    /// hands to a new task.
    owed: bool,
}

impl<T, E> OrderedStream<T, E>
where
    T: Send + 'static,
    E: Send + From<PoolFailure> + 'static,
{
    /// Start the stream on the shared pool, which is grown to at least
    /// `threads` workers. `cap` is clamped to at least `threads` (a
    /// smaller cap could not even keep one result per worker in flight).
    /// `label` names the fan-out site in panic-derived [`PoolFailure`]
    /// messages.
    pub fn spawn<F>(
        threads: usize,
        ntasks: usize,
        cap: usize,
        label: &'static str,
        task: F,
    ) -> OrderedStream<T, E>
    where
        F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
    {
        OrderedStream::spawn_on(WorkerPool::shared(), threads, ntasks, cap, label, task)
    }

    /// [`spawn`](Self::spawn) on `pool`.
    fn spawn_on<F>(
        pool: &'static WorkerPool,
        threads: usize,
        ntasks: usize,
        cap: usize,
        label: &'static str,
        task: F,
    ) -> OrderedStream<T, E>
    where
        F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
    {
        let threads = threads.min(ntasks).max(1);
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
        let stream = OrderedStream { shared, runner, pool, ntasks, next: 0, owed: false };
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
    /// The consumer is done with the result the previous call returned:
    /// its slot goes to a new task first.
    pub fn recv(&mut self) -> Result<Option<T>, E> {
        if std::mem::take(&mut self.owed) {
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
        }
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
                self.owed = true;
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
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[derive(Debug, PartialEq, Eq)]
    struct TestErr(String);

    impl From<PoolFailure> for TestErr {
        fn from(f: PoolFailure) -> TestErr {
            TestErr(f.0)
        }
    }

    type R<T> = Result<T, TestErr>;

    /// A pool of the test's own, so its counters and width are the test's.
    fn own_pool(workers: usize) -> &'static WorkerPool {
        Box::leak(Box::new(WorkerPool::new(workers)))
    }

    /// Every result of `s`, in task order.
    fn drain<T: Send + 'static>(mut s: OrderedStream<T, TestErr>) -> R<Vec<T>> {
        let mut out = Vec::new();
        while let Some(v) = s.recv()? {
            out.push(v);
        }
        Ok(out)
    }

    /// A two-party meeting point that gives up after `timeout`: `meet`
    /// returns whether a partner arrived.
    struct Rendezvous {
        /// (meetings completed, a party is waiting)
        state: Mutex<(u64, bool)>,
        cond: Condvar,
    }

    impl Rendezvous {
        fn meet(&self, timeout: Duration) -> bool {
            let mut st = self.state.lock().unwrap();
            if st.1 {
                *st = (st.0 + 1, false);
                self.cond.notify_all();
                return true;
            }
            st.1 = true;
            let met = st.0;
            let (mut st, _) = self.cond.wait_timeout_while(st, timeout, |s| s.0 == met).unwrap();
            if st.0 == met {
                st.1 = false;
                return false;
            }
            true
        }
    }

    #[test]
    fn saturated_fan_out_never_blocks_the_queue() {
        // A width-2 stream of 40 jobs holds both of its slots until the
        // second stream is drained, so its other 38 jobs sit denied at the
        // front of the queue. Every job of the second stream needs a
        // partner running at the same time: it finishes only if the two
        // idle workers take its jobs past the denied ones.
        let pool = own_pool(4);
        let started = Arc::new(AtomicUsize::new(0));
        let second_done = Arc::new(AtomicBool::new(false));
        let (st, done) = (Arc::clone(&started), Arc::clone(&second_done));
        let first = OrderedStream::spawn_on(pool, 2, 40, 40, "saturated", move |i| {
            st.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while !done.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(2));
            }
            R::Ok(i)
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let meeting = Arc::new(Rendezvous { state: Mutex::new((0, false)), cond: Condvar::new() });
        let second = drain(OrderedStream::spawn_on(pool, 2, 8, 8, "test", move |i| {
            if meeting.meet(Duration::from_secs(5)) {
                Ok(i)
            } else {
                Err(TestErr(format!("job {i} found no partner")))
            }
        }));
        let first_started = started.load(Ordering::SeqCst);
        second_done.store(true, Ordering::SeqCst);
        assert_eq!(second, Ok((0..8).collect::<Vec<_>>()));
        assert!(first_started < 40, "the saturated stream ran to its end first");
        assert_eq!(drain(first), Ok((0..40).collect::<Vec<_>>()));
    }

    #[test]
    fn pool_drop_joins_workers_gracefully() {
        let pool = WorkerPool::new(4);
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.threads_spawned_total, 4);
        drop(pool); // must not hang
    }

    #[test]
    fn workers_grow_once_and_never_again() {
        let pool = own_pool(0);
        drain(OrderedStream::spawn_on(pool, 4, 16, 4, "test", R::Ok)).unwrap();
        assert_eq!(pool.stats().threads_spawned_total, 4);
        for _ in 0..20 {
            drain(OrderedStream::spawn_on(pool, 4, 16, 4, "test", R::Ok)).unwrap();
            drain(OrderedStream::spawn_on(pool, 2, 64, 2, "test", R::Ok)).unwrap();
        }
        assert_eq!(pool.stats().threads_spawned_total, 4, "warm pool must not spawn");
        drain(OrderedStream::spawn_on(pool, 6, 12, 6, "test", R::Ok)).unwrap();
        assert_eq!(pool.stats().threads_spawned_total, 6, "wider fan-out grows the pool once");
    }

    #[test]
    fn telemetry_counts_jobs_and_multi_worker_fanout() {
        let pool = own_pool(4);
        let base = pool.stats();
        let out = drain(OrderedStream::spawn_on(pool, 4, 64, 64, "test", |i| {
            std::thread::sleep(Duration::from_micros(50));
            R::Ok(i)
        }))
        .unwrap();
        assert_eq!(out.len(), 64);
        let d = pool.stats().since(&base);
        // Every task body was taken through the counted pop.
        assert_eq!(d.jobs, 64);
        // Submitting 64 jobs left a nonzero queue depth behind.
        assert!(d.queue_depth_hwm >= 1);
        // Workers run every job: nothing steals or lends.
        assert_eq!(d.worker_jobs.iter().sum::<u64>(), d.jobs);
        assert_eq!((d.steals, d.lent_jobs), (0, 0));
        // A warm-pool fan-out must actually spread across workers —
        // relaxed on single-core machines, where the OS may legitimately
        // run the whole stream on whichever worker it wakes first.
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
        // 6 idle workers, a threads-2 stream: the claim gate must keep the
        // idle workers from running it wider than asked (its submission
        // window of `cap` jobs does not widen execution).
        let pool = own_pool(6);
        let active = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (a, h) = (Arc::clone(&active), Arc::clone(&high));
        let out = drain(OrderedStream::spawn_on(pool, 2, 48, 8, "test", move |i| {
            let now = a.fetch_add(1, Ordering::SeqCst) + 1;
            h.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            a.fetch_sub(1, Ordering::SeqCst);
            R::Ok(i)
        }))
        .unwrap();
        assert_eq!(out.len(), 48);
        let high = high.load(Ordering::SeqCst);
        assert!(high <= 2, "threads-2 stream ran {high} bodies concurrently");
    }

    #[test]
    fn stream_yields_results_in_task_order_and_bounds_flight() {
        let outstanding = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (o, h) = (Arc::clone(&outstanding), Arc::clone(&high));
        let mut s: OrderedStream<usize, TestErr> =
            OrderedStream::spawn(4, 40, 4, "test", move |i| {
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
        // The consumer's decrement lands before its next recv hands the
        // released slot to a new task: the count never passes the cap.
        assert!(
            high.load(Ordering::SeqCst) <= 4,
            "in-flight {} exceeded cap",
            high.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn stream_propagates_error_at_its_index() {
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(3, 10, 4, "test", |i| {
            if i == 5 {
                Err(TestErr("boom".into()))
            } else {
                Ok(i)
            }
        });
        for want in 0..5 {
            assert_eq!(s.recv().unwrap(), Some(want));
        }
        assert_eq!(s.recv(), Err(TestErr("boom".into())), "task 5's error surfaces at index 5");
        assert!(s.recv().unwrap().is_none(), "stream is terminal after an error");
    }

    #[test]
    fn zero_task_stream_is_immediately_done() {
        let mut s: OrderedStream<usize, TestErr> = OrderedStream::spawn(4, 0, 4, "test", Ok);
        assert!(s.recv().unwrap().is_none());
    }

    #[test]
    fn stream_drop_cancels_unstarted_work() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let mut s: OrderedStream<usize, TestErr> =
            OrderedStream::spawn(2, 1000, 2, "test", move |i| {
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
                OrderedStream::spawn(4, 64, 8, "test", move |_| {
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
    fn labeled_stream_panic_names_the_fanout_site() {
        let mut s: OrderedStream<usize, TestErr> =
            OrderedStream::spawn(2, 8, 4, "agg-partial", |i| {
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
        assert_eq!(err.0, "streaming worker 'agg-partial' panicked: morsel died");
    }
}
