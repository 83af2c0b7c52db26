//! The execution subsystem's façade over the persistent worker pool.
//!
//! ## Ownership
//!
//! All parallel operator fragments run on **one process-wide, long-lived
//! [`WorkerPool`]** (re-exported from `bdcc-pool`, the bottom of the
//! workspace dependency graph — schema clustering shares the same pool).
//! Nothing in this crate ever spawns a thread: [`QueryContext::with_parallel`]
//! warms the shared pool to the configured width once, and every fan-out
//! after that — join build, probe rounds, probe output assembly, sandwich
//! oversized groups, both radix-aggregation phases, partial-merge
//! aggregation, sort runs, build-side partitioning, streaming scans —
//! reuses the same parked workers. The pool only ever grows to the widest
//! `ParallelConfig::threads` seen; after warm-up no OS thread is created
//! again (`WorkerPool::stats` pins this in tests), so a fan-out costs
//! queue operations, not thread create/join (the scoreboard's `pool_*`
//! counters are the ongoing record).
//!
//! ## The two execution shapes
//!
//! * [`run_tasks`] — the *blocking* fan-out: `task(0..ntasks)` across up
//!   to `threads` workers, results returned **in task order** whatever
//!   order workers finished in — the property every merge in this
//!   subsystem relies on for determinism. `threads == 1` or
//!   `ntasks <= 1` runs inline on the caller with zero pool interaction.
//!   The first task error (in task order) propagates after the fan-out
//!   drains, later tasks are skipped once one fails, and a panicking
//!   task re-raises on the caller.
//!
//! * [`OrderedStream`] — the *streaming* fan-out with a **bounded reorder
//!   buffer**: at most `cap` tasks are submitted beyond the consumer's
//!   position, [`recv`](OrderedStream::recv) releases results strictly in
//!   task order, and backpressure works by *submission gating* (a stalled
//!   consumer parks no worker — the pool runs other queries' jobs
//!   instead). At most `cap` results are in flight, which is what bounds
//!   a streaming scan's memory at O(workers × morsel) instead of
//!   O(table). Dropping the stream cancels unstarted work, waits for
//!   in-flight task bodies to retire (no task code runs after drop
//!   returns — the guarantee memory accounting relies on), and leaves the
//!   pool ready for the next query.
//!
//! ## Lending, or why nested fan-outs cannot deadlock
//!
//! While [`run_tasks`] waits, the calling thread is **lent to the pool**:
//! it drains its own scope's unstarted tasks first, then any other queued
//! job, and parks only when nothing is runnable. A fan-out issued from
//! inside another fan-out — a probe round while a streaming scan's
//! producers are live, an oversized sandwich group inside a probe round,
//! radix phase 2 behind phase 1 — therefore always has at least its own
//! caller making progress, so the bottom-most scope finishes and unwinds
//! the waiters above it. The one rule operators must keep (and all
//! current ones do): [`OrderedStream::recv`] is a pure wait, so it must
//! be called from plan-driver threads, never from inside a pool task.
//!
//! [`QueryContext::with_parallel`]: crate::planner::QueryContext::with_parallel

use crate::error::Result;

pub use bdcc_pool::{PoolStats, WorkerPool};

/// Run `task(0..ntasks)` on up to `threads` shared-pool workers (plus the
/// lent calling thread), returning the results in task order. The thin
/// blocking façade over [`WorkerPool::scope_run`] — see the [module
/// docs](self) for the full contract.
pub fn run_tasks<T, F>(threads: usize, ntasks: usize, task: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let width = threads.min(ntasks);
    if width <= 1 {
        // Serial fast path: inline on the caller, zero pool interaction.
        return (0..ntasks).map(&task).collect();
    }
    WorkerPool::shared().scope_run(width, ntasks, task)
}

/// [`run_tasks`] with a static label naming the fan-out site in
/// re-raised panic payloads (`pool job 'join-probe' panicked: ...`) —
/// what identifies the dead operator when a worker panics during a
/// many-client serving run.
pub fn run_tasks_labeled<T, F>(
    threads: usize,
    ntasks: usize,
    label: &'static str,
    task: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let width = threads.min(ntasks);
    if width <= 1 {
        return (0..ntasks).map(&task).collect();
    }
    WorkerPool::shared().scope_run_labeled(width, ntasks, Some(label), task)
}

/// Streaming ordered fan-out on the shared pool, specialized to the
/// executor's error type. See the [module docs](self) and
/// [`bdcc_pool::OrderedStream`] for the contract.
pub type OrderedStream<T> = bdcc_pool::OrderedStream<T, crate::error::ExecError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_arrive_in_task_order() {
        let out = run_tasks(4, 17, |i| Ok(i * i)).unwrap();
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_tasks(8, 100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(i)
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = run_tasks(4, 0, Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = run_tasks(1, 5, |i| Ok(i + 1)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_task_runs_inline_whatever_the_width() {
        // ntasks <= 1 must not touch the pool at all: before any warm-up
        // in this process it would otherwise spawn workers for nothing.
        let out = run_tasks(8, 1, |i| Ok(i + 41)).unwrap();
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn errors_propagate() {
        let r: Result<Vec<usize>> =
            run_tasks(
                3,
                10,
                |i| {
                    if i == 7 {
                        Err(ExecError::Internal("boom".into()))
                    } else {
                        Ok(i)
                    }
                },
            );
        assert!(matches!(r, Err(ExecError::Internal(ref m)) if m == "boom"));
    }

    #[test]
    fn error_short_circuits_remaining_tasks() {
        // The first body to start fails; every other body waits for it to
        // get that far (whichever task that is — waiting on task 0 by
        // index could fill both slots with waiters). So nothing completes
        // before the failure, at most one other body is in flight when it
        // returns, and what else runs must start between that return and
        // the scope being flagged — a few instructions, not a sleep.
        let executed = AtomicUsize::new(0);
        let failing = AtomicBool::new(false);
        let r: Result<Vec<usize>> = run_tasks(2, 64, |i| {
            if executed.fetch_add(1, Ordering::SeqCst) == 0 {
                failing.store(true, Ordering::SeqCst);
                return Err(ExecError::Internal("boom".into()));
            }
            while !failing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(i)
        });
        assert!(matches!(r, Err(ExecError::Internal(ref m)) if m == "boom"));
        assert!(
            executed.load(Ordering::SeqCst) < 32,
            "short-circuit did not stop the fan-out: {} tasks ran",
            executed.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn panicking_task_propagates_to_the_caller() {
        let r = std::panic::catch_unwind(|| {
            let _ = run_tasks(4, 8, |i| {
                if i == 3 {
                    panic!("morsel exploded");
                }
                Ok(i)
            });
        });
        assert!(r.is_err(), "scope panic must re-raise on the caller");
        // The shared pool survives and stays usable.
        let out = run_tasks(4, 8, Ok).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn nested_fan_outs_do_not_deadlock() {
        // Every outer task issues an inner fan-out of the same width on
        // the same shared pool — the shape a probe round inside a
        // streaming scan produces. Lending the blocked callers is what
        // keeps this from deadlocking.
        let out = run_tasks(4, 8, |i| {
            let inner = run_tasks(4, 6, |j| Ok(i * 10 + j))?;
            Ok(inner.into_iter().sum::<usize>())
        })
        .unwrap();
        let expect: Vec<usize> =
            (0..8).map(|i| (0..6).map(|j| i * 10 + j).sum::<usize>()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn warm_pool_never_spawns_again() {
        // Warm to this test binary's widest fan-out, then hammer the pool
        // with mixed-width fan-outs: the spawn counter must not move.
        let _ = run_tasks(8, 16, Ok).unwrap();
        let warm = WorkerPool::shared().stats().threads_spawned_total;
        for round in 0..25 {
            let _ = run_tasks(4, 32, Ok).unwrap();
            let _ = run_tasks(2 + round % 7, 16, Ok).unwrap();
            let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 12, 8, Ok);
            while s.recv().unwrap().is_some() {}
        }
        assert_eq!(
            WorkerPool::shared().stats().threads_spawned_total,
            warm,
            "a warm pool must not create OS threads"
        );
    }

    #[test]
    fn stream_yields_results_in_task_order() {
        let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 23, 8, |i| Ok(i * 3));
        let mut got = Vec::new();
        while let Some(v) = s.recv().unwrap() {
            got.push(v);
        }
        assert_eq!(got, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        assert!(s.recv().unwrap().is_none(), "exhausted stream stays exhausted");
    }

    #[test]
    fn stream_bounds_in_flight_results() {
        // Track how many results exist (produced - consumed) at once; with
        // cap 4 the high-water must stay at cap (+ nothing racing past the
        // submission gate) even though the consumer is slow.
        let outstanding = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (o, h) = (Arc::clone(&outstanding), Arc::clone(&high));
        let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 40, 4, move |i| {
            let now = o.fetch_add(1, Ordering::SeqCst) + 1;
            h.fetch_max(now, Ordering::SeqCst);
            Ok(i)
        });
        let mut n = 0;
        while let Some(_v) = s.recv().unwrap() {
            outstanding.fetch_sub(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            n += 1;
        }
        assert_eq!(n, 40);
        // +1 slack: the consumer's decrement happens after recv() returns,
        // so a task submitted by that very recv() can start (and count)
        // before the decrement lands — a measurement race, not a cap leak.
        assert!(
            high.load(Ordering::SeqCst) <= 5,
            "in-flight results exceeded the cap: {}",
            high.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn stream_propagates_error_at_its_index() {
        let mut s: OrderedStream<usize> = OrderedStream::spawn(3, 10, 4, |i| {
            if i == 5 {
                Err(ExecError::Internal("boom".into()))
            } else {
                Ok(i)
            }
        });
        for want in 0..5 {
            assert_eq!(s.recv().unwrap(), Some(want));
        }
        assert!(s.recv().is_err(), "task 5's error must surface at index 5");
        assert!(s.recv().unwrap().is_none(), "stream is terminal after an error");
    }

    #[test]
    fn stream_surfaces_worker_panics_as_errors() {
        // A panicking task must not hang the consumer: it publishes an
        // error at its index and the stream ends there.
        let mut s: OrderedStream<usize> = OrderedStream::spawn(3, 8, 4, |i| {
            if i == 4 {
                panic!("morsel exploded");
            }
            Ok(i)
        });
        for want in 0..4 {
            assert_eq!(s.recv().unwrap(), Some(want));
        }
        match s.recv() {
            Err(ExecError::Internal(m)) => {
                assert!(m.contains("panicked"), "unexpected message: {m}")
            }
            other => panic!("expected a panic-derived error, got {other:?}"),
        }
        assert!(s.recv().unwrap().is_none(), "stream is terminal after a panic");
    }

    #[test]
    fn dropping_a_stream_midway_cancels_outstanding_work() {
        // Consume a few results, then drop: unstarted tasks are cancelled,
        // in-flight task bodies retire before drop returns, and the pool
        // stays usable.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 500, 4, move |i| {
            r.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(100));
            Ok(i)
        });
        assert_eq!(s.recv().unwrap(), Some(0));
        assert_eq!(s.recv().unwrap(), Some(1));
        drop(s);
        assert!(
            ran.load(Ordering::SeqCst) < 500,
            "drop must cancel the unstarted tail of the stream"
        );
        let out = run_tasks(4, 8, Ok).unwrap();
        assert_eq!(out.len(), 8, "pool must stay usable after a cancelled stream");
    }

    #[test]
    fn zero_task_stream_is_immediately_done() {
        let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 0, 4, Ok);
        assert!(s.recv().unwrap().is_none());
    }

    #[test]
    fn uneven_task_durations_balance() {
        // Long tasks at the front of one deque; stealing must keep every
        // task accounted for.
        let out = run_tasks(4, 32, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Ok(i)
        })
        .unwrap();
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn stream_with_nested_blocking_fan_out_per_morsel() {
        // The full nested shape: a live streaming fan-out whose consumer
        // issues a blocking fan-out per released morsel (exactly what a
        // parallel probe over a streaming scan does).
        let mut s: OrderedStream<usize> = OrderedStream::spawn(4, 20, 8, Ok);
        let mut total = 0usize;
        while let Some(v) = s.recv().unwrap() {
            let part = run_tasks(4, 5, |j| Ok(v * 100 + j)).unwrap();
            total += part.into_iter().sum::<usize>();
        }
        let expect: usize = (0..20).map(|v| (0..5).map(|j| v * 100 + j).sum::<usize>()).sum();
        assert_eq!(total, expect);
    }
}
