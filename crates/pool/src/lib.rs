//! # bdcc-pool — the worker pool and the set-up fan-out
//!
//! Everything in the workspace that fans work out goes through this
//! crate, in one of two shapes:
//!
//! * [`scoped`] — set-up's fan-out (`bdcc-core::autodesign`'s one task per
//!   table, `bdcc-storage`'s one task per column in every table build and
//!   gather): scoped threads that live for one call and may borrow the
//!   caller's data.
//! * [`OrderedStream`] — a query's morsel fan-out (`bdcc-exec::parallel`)
//!   on one long-lived set of parked worker threads, [`WorkerPool`],
//!   created once on first demand and reused by every later query of any
//!   width.
//!
//! The crate has no dependencies and is generic over the caller's error
//! type. The pool's queue, claim gates and stream are documented on [`pool`].
//!
//! Robustness plumbing lives beside the pool: [`cancel`] provides the
//! cooperative [`CancelToken`] the serving layer threads through query
//! execution, and [`inject`] the opt-in [`FaultInjector`] consulted at
//! pool-job boundaries when a process explicitly installs one.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod inject;
pub mod pool;
mod scoped;

pub use cancel::{CancelReason, CancelToken};
pub use inject::{Fault, FaultInjector, FaultPlan};
pub use pool::{OrderedStream, PoolFailure, PoolStats, WorkerPool};
pub use scoped::scoped;
