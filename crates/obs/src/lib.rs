//! # bdcc-obs — low-overhead observability core for the BDCC engine
//!
//! The execution engine (`bdcc-exec`) reproduces the paper's evaluation
//! numbers, but until this crate existed it reported only end-to-end wall
//! clock. `bdcc-obs` is the instrumentation substrate underneath the
//! engine's `EXPLAIN ANALYZE`: metric primitives, the [`profile`] data
//! model that per-operator measurements are collected into, and the
//! dependency-free [`json`] builder its stable export (and the bench
//! harness) is rendered with.
//!
//! Like `bdcc-pool`, this crate sits at the bottom of the workspace and
//! depends on nothing, so every layer — pool, storage, executor, bench —
//! can record into it without dependency cycles.
//!
//! ## Overhead contract
//!
//! Profiling must never perturb the execution it measures:
//!
//! * **Disabled means absent.** When profiling is off, no metric object
//!   is allocated and no instrumented wrapper is installed; the engine
//!   runs the exact same code as before this crate existed. There is no
//!   "disabled counter" that still costs an atomic — the cost of
//!   disabled profiling is zero by construction.
//! * **Enabled means relaxed atomics.** [`metrics::Counter`] and
//!   [`metrics::MaxGauge`] are single relaxed atomic operations.
//!   Operators touch them once per *batch* or once per *morsel*, never
//!   per row.
//! * **Hot loops never touch a shared lock.** [`metrics::LogHistogram`]
//!   records into per-thread buffers (see below); its only lock is taken
//!   once per thread per histogram, on first use, to register the
//!   thread's buffer for later aggregation.
//! * **Results are byte-identical.** Instrumentation observes; it never
//!   feeds back into planning or scheduling. The engine's equivalence
//!   suite asserts profiled and unprofiled runs produce identical
//!   batches.
//!
//! ## Per-thread buffer contract
//!
//! A [`metrics::LogHistogram`] is a set of *shards*, one per recording
//! thread. A thread-local cache maps histogram identity to the calling
//! thread's shard: the fast path (cache hit) is a relaxed increment of a
//! plain `AtomicU64` bucket that no other thread writes, i.e. an
//! uncontended store. Only the first record from a new thread takes the
//! registry mutex to publish its shard. [`metrics::LogHistogram::snapshot`]
//! sums the shards; because counts are monotone, a snapshot taken while
//! workers are still recording is a consistent lower bound, and one taken
//! after the pool has quiesced (the engine always does) is exact.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod serve;

pub use metrics::{Counter, LogHistogram, MaxGauge, SpanTimer};
pub use profile::{OpMetrics, ProfileNode, QueryProfile};
pub use serve::ServeMetrics;
