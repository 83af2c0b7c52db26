//! # bdcc-pool — the persistent worker pool
//!
//! One long-lived set of parked worker threads shared by everything in
//! the workspace that fans work out: BDCC schema clustering
//! (`bdcc-core::autodesign`) and the whole morsel-driven execution
//! subsystem (`bdcc-exec::parallel`). Before this crate, every fan-out
//! paid thread create/join (`std::thread::scope` per call, roughly tens
//! of microseconds per round); now the only threads ever spawned live in
//! [`pool`], are created once on first demand, and are reused by every
//! subsequent fan-out of any width.
//!
//! The crate is intentionally at the bottom of the workspace dependency
//! graph (no dependencies, generic over the caller's error type), so both
//! the clustering layer and the executor route through the *same* shared
//! pool — see [`WorkerPool::shared`].
//!
//! The two execution shapes, their contracts and the thread-lending rule
//! that makes nested fan-outs deadlock-free are documented on [`pool`].
//!
//! Robustness plumbing lives beside the pool: [`cancel`] provides the
//! cooperative [`CancelToken`] the serving layer threads through query
//! execution, and [`inject`] the opt-in [`FaultInjector`] consulted at
//! pool-job boundaries when a process explicitly installs one.

pub mod cancel;
pub mod inject;
pub mod pool;

pub use cancel::{CancelReason, CancelToken};
pub use inject::{Fault, FaultInjector, FaultPlan};
pub use pool::{OrderedStream, PoolFailure, PoolStats, WorkerPool};
