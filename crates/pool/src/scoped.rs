//! The set-up fan-out: `task(0..ntasks)` on scoped threads.
//!
//! Generation, the PK build and the BDCC build (schema design's one task
//! per table, every table build's and gather's one task per column) run
//! once per process, own the machine while they do, and may borrow the
//! caller's data. [`scoped`] runs them on `std::thread::scope` threads
//! that live for one call, so they are not jobs of the query pool
//! ([`crate::WorkerPool`]) and the fault injector does not roll at them.
//!
//! Every thread, the caller included, claims the next task index from one
//! counter until none is left or a task failed. A nested call (a table's
//! columns inside schema design's tables) starts threads of its own, so
//! the widths multiply; both are bounded by their task counts, a table
//! count and a column count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool::panic_message;

/// Run `task(0..ntasks)` at `available_parallelism().min(ntasks)` threads
/// and return the results in task order. The first error in task order
/// is returned, and no task starts after one failed, so the error is the
/// one a serial loop would return. A panicking task is re-raised on the
/// caller as a message naming `label` (`fan-out 'table-build' panicked:
/// ...`). At width 1 the tasks run inline on the caller.
pub fn scoped<T, E, F>(ntasks: usize, label: &'static str, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    fan_out(width, ntasks, label, task)
}

/// [`scoped`] at `width` threads (the caller and `width - 1` more).
fn fan_out<T, E, F>(width: usize, ntasks: usize, label: &'static str, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let width = width.min(ntasks);
    if width <= 1 {
        return (0..ntasks).map(task).collect();
    }
    // Both atomics publish nothing but themselves (results come back
    // through the joins), so `Relaxed` is enough. Indices are claimed in
    // order and every claimed task runs, so the tasks that ran are a
    // prefix of `0..ntasks`.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // The lowest-indexed panic: its task index and message.
    let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let take = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                Ok(r) => {
                    failed.fetch_or(r.is_err(), Ordering::Relaxed);
                    done.push((i, r));
                }
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    let mut first = panicked.lock().expect("a panic slot is set whole");
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        *first = Some((i, panic_message(payload.as_ref())));
                    }
                }
            }
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(take)).collect();
        let mut done = take();
        for h in helpers {
            done.extend(h.join().expect("a fan-out thread catches its tasks' panics"));
        }
        done
    });
    if let Some((_, msg)) = panicked.into_inner().expect("a panic slot is set whole") {
        resume_unwind(Box::new(format!("fan-out '{label}' panicked: {msg}")));
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    type R<T> = Result<T, String>;

    #[test]
    fn results_arrive_in_task_order() {
        let out: Vec<usize> = fan_out(4, 33, "test", |i| R::Ok(i * 2)).unwrap();
        assert_eq!(out, (0..33).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out: Vec<usize> = fan_out(3, 100, "test", |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            R::Ok(i)
        })
        .unwrap();
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn the_first_error_in_task_order_is_returned() {
        // Task 12 may fail first in time; task 7 is first in task order,
        // and every index below the highest claimed one runs.
        let r: R<Vec<usize>> = fan_out(3, 20, "test", |i| {
            if i == 7 || i == 12 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "boom 7");
    }

    #[test]
    fn an_error_stops_new_tasks() {
        // The first body to start fails; every other body waits for it to
        // get that far (whichever task that is). So at most one other body
        // is in flight when it returns, and what else starts must start
        // between that return and the flag being set — a few
        // instructions, not a sleep.
        let executed = AtomicUsize::new(0);
        let failing = AtomicBool::new(false);
        let r: R<Vec<usize>> = fan_out(2, 64, "test", |i| {
            if executed.fetch_add(1, Ordering::SeqCst) == 0 {
                failing.store(true, Ordering::SeqCst);
                return Err("boom".into());
            }
            while !failing.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(i)
        });
        assert_eq!(r.unwrap_err(), "boom");
        let ran = executed.load(Ordering::SeqCst);
        assert!(ran < 32, "the error did not stop the fan-out: {ran} tasks ran");
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = fan_out(4, 0, "test", R::Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn width_one_or_one_task_runs_inline() {
        let caller = std::thread::current().id();
        let on_caller = |i: usize| {
            assert_eq!(std::thread::current().id(), caller, "task {i} left the caller");
            R::Ok(i + 1)
        };
        assert_eq!(fan_out(1, 5, "test", on_caller).unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(fan_out(8, 1, "test", on_caller).unwrap(), vec![1]);
    }

    #[test]
    fn a_panic_is_re_raised_with_the_site_label() {
        let r = catch_unwind(|| {
            let _ = fan_out(4, 16, "table-build", |i| {
                if i == 3 {
                    panic!("index died");
                }
                R::Ok(i)
            });
        });
        let payload = r.expect_err("the panic reaches the caller");
        let msg = payload.downcast_ref::<String>().expect("the re-raised payload is a String");
        assert_eq!(msg, "fan-out 'table-build' panicked: index died");
    }

    #[test]
    fn nested_fan_outs_complete() {
        let out: Vec<usize> = fan_out(4, 8, "outer", |i| {
            let inner: Vec<usize> = fan_out(4, 8, "inner", |j| R::Ok(i * 100 + j))?;
            R::Ok(inner.into_iter().sum())
        })
        .unwrap();
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn tasks_borrow_the_callers_data() {
        let data: Vec<u64> = (0..10_000).collect();
        let per = data.len() / 16;
        let sums: Vec<u64> =
            fan_out(4, 16, "test", |i| R::Ok(data[i * per..(i + 1) * per].iter().sum())).unwrap();
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
