//! Query execution and measurement.
//!
//! Figure 2 reports cold execution time and Figure 3 peak query memory;
//! [`run_measured`] executes a plan and returns both, plus the I/O-model
//! counters (pages, seeks, estimated cold-read seconds).

use std::time::Instant;

use bdcc_obs::QueryProfile;
use bdcc_storage::{DeviceProfile, IoStats};

use crate::batch::Batch;
use crate::error::{ExecError, Result};
use crate::ops::collect;
use crate::parallel::pool::{PoolStats, WorkerPool};
use crate::plan::Node;
use crate::planner::{plan_query, QueryContext};

/// Measurements of one query execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall-clock execution time in seconds (in-memory engine).
    pub seconds: f64,
    /// Peak tracked operator memory in bytes.
    pub peak_memory: u64,
    /// I/O-model counters.
    pub io: IoStats,
    /// Estimated cold-read seconds on the paper's SSD RAID profile.
    pub est_io_seconds: f64,
    /// Result rows.
    pub rows: usize,
}

/// Execute one plan, returning the materialized result.
pub fn run_plan(ctx: &QueryContext, plan: &Node) -> Result<Batch> {
    let op = plan_query(ctx, plan)?;
    collect(op)
}

/// Execute one plan with timing, memory and I/O measurement. Counters are
/// reset first, so one `QueryContext` can be reused across queries.
pub fn run_measured(ctx: &QueryContext, plan: &Node) -> Result<(Batch, Measurement)> {
    ctx.tracker.reset();
    ctx.io.reset();
    let start = Instant::now();
    let batch = run_plan(ctx, plan)?;
    let seconds = start.elapsed().as_secs_f64();
    let io = ctx.io.stats();
    let m = Measurement {
        seconds,
        peak_memory: ctx.tracker.peak(),
        io,
        est_io_seconds: DeviceProfile::ssd_raid().estimate_seconds(&io),
        rows: batch.rows(),
    };
    Ok((batch, m))
}

/// `EXPLAIN ANALYZE` output: the query result plus the measurement and
/// the per-operator profile (render with [`QueryProfile::render`], export
/// with [`QueryProfile::to_json`]).
#[derive(Debug)]
pub struct Analyzed {
    pub batch: Batch,
    pub measurement: Measurement,
    pub profile: QueryProfile,
}

/// Execute `plan` with per-operator profiling and return the annotated
/// profile alongside the result. Profiling rides on a clone of `ctx`
/// (same database, same parallel config) with a fresh
/// [`Profiler`](crate::Profiler); the result batch is byte-identical to an
/// unprofiled [`run_plan`] of the same plan.
pub fn explain_analyze(ctx: &QueryContext, plan: &Node) -> Result<Analyzed> {
    let ctx = ctx.clone().with_profiling();
    let pool_base = WorkerPool::shared().stats();
    let (batch, measurement) = run_measured(&ctx, plan)?;
    let pool = WorkerPool::shared().stats().since(&pool_base);
    let profiler = ctx.profiler.as_ref().ok_or_else(|| {
        ExecError::Internal("explain_analyze ran without a profiler installed".into())
    })?;
    let profile = profiler
        .finalize(
            (measurement.seconds * 1e9) as u64,
            measurement.peak_memory,
            &measurement.io,
            pool_pairs(&pool),
        )
        .ok_or_else(|| ExecError::Internal("plan_query collected no profile".into()))?;
    Ok(Analyzed { batch, measurement, profile })
}

/// Pool-counter deltas as the `(name, value)` pairs the profile renders.
fn pool_pairs(p: &PoolStats) -> Vec<(String, u64)> {
    vec![
        ("workers".into(), p.workers as u64),
        ("jobs".into(), p.jobs),
        ("parks".into(), p.parks),
        ("lends".into(), p.lends),
        ("lent_jobs".into(), p.lent_jobs),
        ("queue_depth_hwm".into(), p.queue_depth_hwm),
    ]
}

/// Render result rows as strings for cross-scheme comparison: rows
/// formatted then sorted, floats rounded to 2 decimals so accumulation
/// order differences do not produce false mismatches.
pub fn canonical_rows(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = (0..batch.rows())
        .map(|r| {
            batch
                .row(r)
                .iter()
                .map(|d| match d {
                    bdcc_storage::Datum::Float(f) => format!("{f:.5e}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}
