//! The engine adapter: the only file of the benchmark that names a
//! `bdcc_*` crate. Everything else measures through the functions and
//! re-exports below, so a later API-collapsing change knows the exact
//! surface the ruler stands on and has one file to edit.
//!
//! Engine symbols used (nothing from `bdcc_bench`):
//!
//! * `bdcc_tpch`: `generate`, `GenConfig { scale_factor, seed }`,
//!   `all_queries`, `Query { id, run }`, `QueryCtx::new`.
//! * `bdcc_core`: `DesignConfig::default`, `derive_design`.
//! * `bdcc_catalog`: `Database` (`catalog`, `total_rows`).
//! * `bdcc_exec`: `plain_scheme`, `pk_scheme`, `bdcc_scheme`, `SchemeDb`
//!   (`db.stored_by_name`), `QueryContext` (`new`, `with_parallel`,
//!   `with_profiling`, `with_memory_budget`, `with_spill`, fields
//!   `tracker`, `io`, `profiler`), `Profiler::root`, `OpProf::freeze`,
//!   `MemoryTracker::{peak, current}`, `ParallelConfig::with_threads`,
//!   `SpillMode::{Auto, Off}`, `run::run_plan`, `canonical_rows`, `Batch`
//!   (`rows`, `row`), `Datum`, `Result`, the plan algebra of the two spill plans
//!   (`PlanBuilder::{new, scan}`, `join_full`, `aggregate`, `AggSpec::new`,
//!   `AggFunc`, `Expr::{col, lit}`, `JoinType::Inner`, `Node`), and the
//!   serving layer (`Server::{new, submit, metrics, memory}`,
//!   `ServerConfig`, `QueryHandle::wait`, `QueryOutcome { batch,
//!   queue_wait, exec, peak_memory }`).
//! * `bdcc_exec::parallel::pool::WorkerPool::shared().stats()` and
//!   `PoolStats::since` (`jobs`, `steals`, `parks`, `lent_jobs`).
//! * `bdcc_storage`: `IoStats { bytes_read, random_seeks,
//!   sequential_accesses }`, `IoTracker::stats`,
//!   `DeviceProfile::ssd_raid().estimate_seconds`, `live_spill_files`,
//!   `StoredTable` (`rows`, `schema().columns[i].avg_width`, `encoding(i)
//!   .encoded_bytes`).
//! * `bdcc_obs`: `ProfileNode` (fields `label`, `wall_nanos`, `rows_in`,
//!   `rows_out`, `morsels`, `blocks_skipped`, `enc_skipped`,
//!   `spill_partitions`, `spill_bytes`, `spill_restore_bytes`,
//!   `morsel_nanos`, `children`), `ServeMetrics::pairs`, `json::{Obj, Arr}`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bdcc_catalog::Database;
use bdcc_core::{derive_design, DesignConfig};
use bdcc_exec::parallel::pool::WorkerPool;
use bdcc_exec::run::run_plan;
use bdcc_exec::{
    aggregate, bdcc_scheme, canonical_rows, join_full, pk_scheme, plain_scheme, AggFunc, AggSpec,
    Batch, Datum, Expr, JoinType, Node, ParallelConfig, PlanBuilder, QueryContext, SchemeDb,
    Server, ServerConfig, SpillMode,
};
use bdcc_storage::{DeviceProfile, IoStats};
use bdcc_tpch::{all_queries, GenConfig, QueryCtx};

pub use bdcc_obs::json::{Arr, Obj};
pub use bdcc_obs::ProfileNode;
pub use bdcc_storage::live_spill_files;

/// The three storage schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    Plain,
    Pk,
    Bdcc,
}

impl SchemeKind {
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Plain => "plain",
            SchemeKind::Pk => "pk",
            SchemeKind::Bdcc => "bdcc",
        }
    }
}

/// A generated TPC-H database (no scheme applied yet).
pub struct Generated {
    db: Database,
}

impl Generated {
    pub fn total_rows(&self) -> u64 {
        self.db.total_rows() as u64
    }
}

/// `bdcc_tpch::generate` at `sf` from `seed`.
pub fn generate(sf: f64, seed: u64) -> Generated {
    Generated { db: bdcc_tpch::generate(&GenConfig { scale_factor: sf, seed }) }
}

/// Wall seconds of Algorithm 2's design derivation alone (`derive_design`
/// over the catalog); `bdcc_scheme` runs it again inside `build`.
pub fn design_seconds(g: &Generated) -> Result<f64, String> {
    let t = Instant::now();
    let design =
        derive_design(g.db.catalog(), &DesignConfig::default()).map_err(|e| e.to_string())?;
    std::hint::black_box(&design);
    Ok(t.elapsed().as_secs_f64())
}

/// A physical database under one scheme, shareable across threads.
#[derive(Clone)]
pub struct Scheme {
    sdb: Arc<SchemeDb>,
}

/// Build one storage scheme (BDCC design = `DesignConfig::default()`).
pub fn build(g: &Generated, kind: SchemeKind) -> Result<Scheme, String> {
    let sdb = match kind {
        SchemeKind::Plain => plain_scheme(&g.db),
        SchemeKind::Pk => pk_scheme(&g.db).map_err(|e| e.to_string())?,
        SchemeKind::Bdcc => {
            bdcc_scheme(&g.db, &DesignConfig::default()).map_err(|e| e.to_string())?
        }
    };
    Ok(Scheme { sdb: Arc::new(sdb) })
}

impl Scheme {
    /// Stored bytes per LINEITEM row under the `avg_width` byte model,
    /// with the per-block encodings the table build chose.
    pub fn lineitem_bytes_per_row(&self) -> f64 {
        let Ok(t) = self.sdb.db.stored_by_name("lineitem") else { return 0.0 };
        let rows = t.rows() as f64;
        let mut bytes = 0u64;
        for (i, m) in t.schema().columns.iter().enumerate() {
            bytes += match t.encoding(i) {
                Some(e) => e.encoded_bytes,
                None => (m.avg_width * rows) as u64,
            };
        }
        bytes as f64 / rows.max(1.0)
    }
}

/// I/O-model counters of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub bytes: u64,
    pub random_seeks: u64,
    pub est_seconds: f64,
}

impl Io {
    fn from_stats(s: &IoStats) -> Io {
        Io {
            bytes: s.bytes_read,
            random_seeks: s.random_seeks,
            est_seconds: DeviceProfile::ssd_raid().estimate_seconds(s),
        }
    }
}

/// What one operation returned and cost, as its client saw it.
pub struct Outcome {
    /// Client-observed wall nanoseconds (context creation, planning,
    /// every phase, result materialisation; for served queries also the
    /// queue wait).
    pub wall_ns: u64,
    pub peak_bytes: u64,
    pub io: Io,
    /// Result rows rendered for comparison (see [`RowForm`]).
    pub rows: Vec<String>,
    /// The operator profile of the last plan the operation ran, when the
    /// operation was traced.
    pub profile: Option<ProfileNode>,
    /// Serving layer only: admission-queue wait and execution time.
    pub queue_wait_ns: u64,
    pub exec_ns: u64,
}

/// How result rows are rendered before comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowForm {
    /// `canonical_rows`: sorted, floats to six significant digits — equal
    /// across schemes and thread counts.
    Canonical,
    /// Row order kept and floats by bit pattern: byte-identity.
    Exact,
}

fn render(batch: &Batch, form: RowForm) -> Vec<String> {
    match form {
        RowForm::Canonical => canonical_rows(batch),
        RowForm::Exact => (0..batch.rows())
            .map(|r| {
                batch
                    .row(r)
                    .iter()
                    .map(|d| match d {
                        Datum::Float(f) => format!("{:016x}", f.to_bits()),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect(),
    }
}

fn frozen_profile(ctx: &QueryContext) -> Option<ProfileNode> {
    ctx.profiler.as_ref().and_then(|p| p.root()).map(|r| r.freeze())
}

type QueryFn = fn(&QueryCtx) -> bdcc_exec::Result<Batch>;

fn query_fn(query: usize) -> Result<QueryFn, String> {
    all_queries()
        .into_iter()
        .find(|q| q.id == query)
        .map(|q| q.run)
        .ok_or_else(|| format!("no TPC-H query {query}"))
}

/// One of the 22 TPC-H queries on `scheme`, serial (`threads` ≤ 1) or
/// with `ParallelConfig::with_threads(threads)`.
pub fn run_query(
    scheme: &Scheme,
    query: usize,
    sf: f64,
    threads: usize,
    traced: bool,
) -> Result<Outcome, String> {
    let run = query_fn(query)?;
    let t = Instant::now();
    let mut qc = if threads > 1 {
        QueryContext::with_parallel(Arc::clone(&scheme.sdb), ParallelConfig::with_threads(threads))
    } else {
        QueryContext::new(Arc::clone(&scheme.sdb))
    };
    if traced {
        qc = qc.with_profiling();
    }
    let ctx = QueryCtx::new(qc, sf);
    let batch = run(&ctx).map_err(|e| format!("Q{query:02}: {e}"))?;
    let wall_ns = t.elapsed().as_nanos() as u64;
    Ok(Outcome {
        wall_ns,
        peak_bytes: ctx.qc.tracker.peak(),
        io: Io::from_stats(&ctx.qc.io.stats()),
        rows: render(&batch, RowForm::Canonical),
        profile: frozen_profile(&ctx.qc),
        queue_wait_ns: 0,
        exec_ns: wall_ns,
    })
}

/// The two out-of-core plans (copied from the `spill_speedup` bin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPlan {
    /// ORDERS ⋈ LINEITEM with the LINEITEM side as the hash build (no FK
    /// hint, so the grace-hash-capable path is taken), grouped coarsely
    /// by order date: the join build is the memory hog.
    JoinGroupBy,
    /// One group per order over LINEITEM: the aggregation state itself
    /// is the peak, so the budget forces the radix aggregate to spill.
    FineAgg,
}

impl SpillPlan {
    pub fn name(self) -> &'static str {
        match self {
            SpillPlan::JoinGroupBy => "join_groupby",
            SpillPlan::FineAgg => "fine_agg",
        }
    }

    fn node(self) -> Node {
        let b = PlanBuilder::new();
        match self {
            SpillPlan::JoinGroupBy => {
                let orders = b.scan("orders", &["o_orderkey", "o_orderdate"], vec![]);
                let lineitem =
                    b.scan("lineitem", &["l_orderkey", "l_extendedprice", "l_quantity"], vec![]);
                let j = join_full(
                    orders,
                    lineitem,
                    &[("o_orderkey", "l_orderkey")],
                    JoinType::Inner,
                    None,
                    None,
                );
                aggregate(
                    j,
                    &["o_orderdate"],
                    vec![
                        AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "revenue"),
                        AggSpec::new(AggFunc::Sum, Expr::col("l_quantity"), "qty"),
                        AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
                    ],
                )
            }
            SpillPlan::FineAgg => {
                let li =
                    b.scan("lineitem", &["l_orderkey", "l_extendedprice", "l_discount"], vec![]);
                aggregate(
                    li,
                    &["l_orderkey"],
                    vec![
                        AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "price"),
                        AggSpec::new(AggFunc::Avg, Expr::col("l_discount"), "disc"),
                        AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
                    ],
                )
            }
        }
    }
}

/// Run a spill plan serially: unconstrained with spilling off
/// (`budget` = `None`), or under `budget` bytes with `SpillMode::Auto`.
pub fn run_spill_plan(
    scheme: &Scheme,
    plan: SpillPlan,
    budget: Option<u64>,
    traced: bool,
) -> Result<Outcome, String> {
    let node = plan.node();
    let t = Instant::now();
    let mut ctx = QueryContext::new(Arc::clone(&scheme.sdb));
    ctx = match budget {
        Some(b) => ctx.with_memory_budget(b).with_spill(SpillMode::Auto),
        None => ctx.with_spill(SpillMode::Off),
    };
    if traced {
        ctx = ctx.with_profiling();
    }
    let batch = run_plan(&ctx, &node).map_err(|e| format!("{}: {e}", plan.name()))?;
    let wall_ns = t.elapsed().as_nanos() as u64;
    Ok(Outcome {
        wall_ns,
        peak_bytes: ctx.tracker.peak(),
        io: Io::from_stats(&ctx.io.stats()),
        rows: render(&batch, RowForm::Exact),
        profile: frozen_profile(&ctx),
        queue_wait_ns: 0,
        exec_ns: wall_ns,
    })
}

/// Worker-pool counters (process-lifetime monotone; subtract two
/// snapshots to window them).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub jobs: u64,
    pub steals: u64,
    pub parks: u64,
    pub lent_jobs: u64,
}

impl PoolCounters {
    pub fn now() -> PoolCounters {
        let s = WorkerPool::shared().stats();
        PoolCounters { jobs: s.jobs, steals: s.steals, parks: s.parks, lent_jobs: s.lent_jobs }
    }

    pub fn since(self, base: PoolCounters) -> PoolCounters {
        PoolCounters {
            jobs: self.jobs.saturating_sub(base.jobs),
            steals: self.steals.saturating_sub(base.steals),
            parks: self.parks.saturating_sub(base.parks),
            lent_jobs: self.lent_jobs.saturating_sub(base.lent_jobs),
        }
    }
}

/// One `serve::Server` over a scheme: `max_concurrent` sessions,
/// `queue_depth` waiting, serial plans, no deadline, budget or injector.
pub struct Serving {
    server: Server,
    sf: f64,
}

impl Serving {
    pub fn start(scheme: &Scheme, sf: f64, max_concurrent: usize, queue_depth: usize) -> Serving {
        let cfg = ServerConfig {
            max_concurrent,
            queue_depth,
            default_deadline: None,
            default_budget: None,
            parallel: None,
            injector: None,
        };
        Serving { server: Server::new(Arc::clone(&scheme.sdb), cfg), sf }
    }

    /// Submit one TPC-H query and wait for it: one closed-loop client
    /// request. A refusal (`Overloaded`) is an error like any other.
    pub fn run_query(&self, query: usize, traced: bool) -> Result<Outcome, String> {
        let (run, sf) = (query_fn(query)?, self.sf);
        let slot: Arc<Mutex<(Io, Option<ProfileNode>)>> = Arc::default();
        let slot_in = Arc::clone(&slot);
        let t = Instant::now();
        let handle = self
            .server
            .submit(move |qc| {
                let qc = if traced { qc.clone().with_profiling() } else { qc.clone() };
                let ctx = QueryCtx::new(qc, sf);
                let out = run(&ctx);
                *slot_in.lock().expect("serve slot poisoned") =
                    (Io::from_stats(&ctx.qc.io.stats()), frozen_profile(&ctx.qc));
                out
            })
            .map_err(|e| format!("Q{query:02}: {e}"))?;
        let out = handle.wait().map_err(|e| format!("Q{query:02}: {e}"))?;
        let wall_ns = t.elapsed().as_nanos() as u64;
        let (io, profile) = std::mem::take(&mut *slot.lock().expect("serve slot poisoned"));
        Ok(Outcome {
            wall_ns,
            peak_bytes: out.peak_memory,
            io,
            rows: render(&out.batch, RowForm::Canonical),
            profile,
            queue_wait_ns: out.queue_wait.as_nanos() as u64,
            exec_ns: out.exec.as_nanos() as u64,
        })
    }

    /// `ServeMetrics` tallies (`submitted`, `admitted`, `rejected`,
    /// `completed`, `cancelled`, ... in the engine's stable order).
    pub fn tallies(&self) -> Vec<(&'static str, u64)> {
        self.server.metrics().pairs()
    }

    /// Tracked bytes still registered across all queries (0 when idle).
    pub fn tracked_bytes(&self) -> u64 {
        self.server.memory().current()
    }
}
