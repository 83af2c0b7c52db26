//! The per-scheme physical planner.
//!
//! One logical plan, three physical strategies:
//!
//! * **Plain** — block scans (MinMax pruning), hash joins, hash
//!   aggregation.
//! * **PK** — block scans over PK-sorted tables; merge joins when both
//!   inputs arrive ordered on the join key (LINEITEM–ORDERS,
//!   PARTSUPP–PART); streaming aggregation when the input order covers the
//!   group-by keys.
//! * **BDCC** — scatter scans over the selected count-table groups
//!   (selection pushdown + propagation computed by [`crate::restrict`]),
//!   **sandwich joins** for foreign-key joins whose sides share a
//!   dimension instance (`P(U_left) = FK · P(U_right)`), and **sandwich
//!   aggregation** when the group-by keys functionally determine a
//!   dimension use of the input.
//!
//! Sandwich planning works by *instance negotiation*: bottom-up, each
//! subtree advertises the dimension instances it could stream grouped-by
//! ([`avail`]); top-down, parents request a grouping order; scatter scans
//! satisfy any requested order (that is what makes them scatter scans).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bdcc_catalog::{ForeignKey, TableId};
use bdcc_core::BdccTable;
use bdcc_pool::{CancelToken, FaultInjector};
use bdcc_storage::IoTracker;

use crate::batch::schema_index;
use crate::broker::{MemoryBroker, SpillMode};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::{GovernedOp, Governor};
use crate::memory::MemoryTracker;
use crate::ops::agg::HashAggregate;
use crate::ops::join::{HashJoin, JoinType};
use crate::ops::merge_join::MergeJoin;
use crate::ops::scan::{Run, Scan, ScanBlueprint};
use crate::ops::sort::{Limit, Sort};
use crate::ops::transform::{Filter, Project};
use crate::ops::BoxedOp;
use crate::parallel::{
    FragmentBlueprint, FragmentStep, ParallelAggregate, ParallelConfig, DEFAULT_MORSEL_ROWS,
};
use crate::plan::{alias_column, FkSide, Node};
use crate::profile::{wrap_edge, OpProf, Profiler};
use crate::restrict::{compute_restrictions, ranges_overlap, Restrictions};
use crate::scheme::{Scheme, SchemeDb};
use bdcc_obs::OpMetrics;

/// Everything a query execution needs.
#[derive(Clone)]
pub struct QueryContext {
    pub sdb: Arc<SchemeDb>,
    pub tracker: Arc<MemoryTracker>,
    pub io: IoTracker,
    /// Execution width and morsel size. `threads: 1` (what
    /// [`new`](Self::new) installs) is serial execution; wider, leaf scans
    /// stream their morsels through the pool and the planner swaps
    /// eligible leaf aggregations for morsel-parallel partial-merge while
    /// the broker is inert. Everything above a leaf runs on the calling
    /// thread at every width.
    pub parallel: ParallelConfig,
    /// When set, the planner mirrors the operator tree with per-operator
    /// metric blocks, child memory/I/O trackers and edge wrappers (see
    /// [`crate::profile`]); results stay byte-identical. `None` (the
    /// default; [`with_profiling`](Self::with_profiling) sets it)
    /// allocates and wraps nothing.
    pub profiler: Option<Profiler>,
    /// Per-query limits (cancellation, deadline, memory budget, fault
    /// injection) checked at every morsel-grained checkpoint; inert by
    /// default (see [`crate::govern`]). Installed by the
    /// `with_cancel`/`with_deadline`/`with_memory_budget`/
    /// `with_fault_injector` builder methods — the serving layer's hook
    /// into execution.
    pub governor: Governor,
    /// Pressure oracle for spill-capable operators (hash join, hash
    /// aggregate): active once a memory budget is set (mode
    /// `auto`) or under `force` (`BDCC_SPILL=force`, or
    /// [`with_spill`](Self::with_spill) for one query); inert otherwise,
    /// leaving operators on their pure in-memory paths (see
    /// [`crate::broker`]).
    pub broker: MemoryBroker,
}

impl QueryContext {
    pub fn new(sdb: Arc<SchemeDb>) -> QueryContext {
        let serial = ParallelConfig { threads: 1, morsel_rows: DEFAULT_MORSEL_ROWS };
        QueryContext::for_query(sdb, MemoryTracker::new(), serial)
    }

    /// The one place a context's defaults are spelled out: no profiler,
    /// no limits, the process's spill mode with no budget. The public
    /// constructors and the serving layer (which supplies a per-query
    /// child `tracker`) all start here.
    pub(crate) fn for_query(
        sdb: Arc<SchemeDb>,
        tracker: Arc<MemoryTracker>,
        parallel: ParallelConfig,
    ) -> QueryContext {
        QueryContext {
            sdb,
            broker: MemoryBroker::from_env(&tracker, None),
            tracker,
            io: IoTracker::new(),
            parallel,
            profiler: None,
            governor: Governor::none(),
        }
    }

    /// A context that executes with morsel-driven parallelism. Warms the
    /// process-wide persistent [`WorkerPool`](crate::parallel::pool::WorkerPool)
    /// to the configured width up front, so no fan-out of this (or any
    /// later) query ever creates an OS thread — every parallel operator
    /// the planner installs runs on the same parked worker set.
    pub fn with_parallel(sdb: Arc<SchemeDb>, parallel: ParallelConfig) -> QueryContext {
        // threads == 1 plans serially and every fan-out inlines — don't
        // park a worker thread nothing will ever use.
        if parallel.threads > 1 {
            crate::parallel::pool::WorkerPool::shared().ensure_workers(parallel.threads);
        }
        QueryContext::for_query(sdb, MemoryTracker::new(), parallel)
    }

    /// Enable per-operator profiling on this context (what
    /// [`explain_analyze`](crate::run::explain_analyze) uses). The next
    /// `plan_query` builds the profile tree alongside the plan.
    pub fn with_profiling(mut self) -> QueryContext {
        self.profiler = Some(Profiler::new());
        self
    }

    /// Thread an externally held [`CancelToken`] through execution:
    /// every morsel loop, probe round and streaming-scan producer checks
    /// it, so `cancel()` unwinds the query mid-fan-out within one morsel
    /// (typed as [`ExecError::Cancelled`]) and RAII guards release every
    /// tracked byte.
    pub fn with_cancel(mut self, token: CancelToken) -> QueryContext {
        let tracker = Arc::clone(&self.tracker);
        self.governor.set_cancel(token, &tracker);
        self
    }

    /// Fail the query with [`ExecError::DeadlineExceeded`] once
    /// execution runs past `timeout` from now.
    pub fn with_deadline(self, timeout: Duration) -> QueryContext {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Deadline as an absolute instant (lets a server charge queue wait
    /// time against the deadline, not just execution time).
    pub fn with_deadline_at(mut self, at: Instant) -> QueryContext {
        let tracker = Arc::clone(&self.tracker);
        self.governor.set_deadline(at, &tracker);
        self
    }

    /// Fail the query with [`ExecError::BudgetExceeded`] when its
    /// tracked memory (this context's `tracker`) exceeds `bytes` —
    /// graceful per-query degradation instead of process death.
    pub fn with_memory_budget(mut self, bytes: u64) -> QueryContext {
        let tracker = Arc::clone(&self.tracker);
        self.governor.set_budget(bytes, &tracker);
        // A budget activates the broker (unless BDCC_SPILL=off): hash joins
        // and hash aggregates now spill under pressure and BudgetExceeded
        // is reserved for queries spilling cannot save.
        self.broker = MemoryBroker::from_env(&self.tracker, Some(bytes));
        self.clamp_morsels_to_budget();
        self
    }

    /// Shrink morsels so the fixed buffer floor that cannot spill (a
    /// streaming scan's ≈ `threads × stream-cap × morsel bytes`) scales
    /// with the budget instead of dwarfing it. Morsel size never changes
    /// results, only granularity.
    fn clamp_morsels_to_budget(&mut self) {
        let Some(budget) = self.governor.budget() else { return };
        if !self.broker.is_active() {
            return;
        }
        // ~64 B/row estimate, 2-deep stream buffers per thread; keep at
        // least 256-row morsels so fan-out overhead stays sane.
        let cfg = &mut self.parallel;
        let cap = (budget / (cfg.threads as u64 * 2 * 64)).max(256) as usize;
        cfg.morsel_rows = cfg.morsel_rows.min(cap);
    }

    /// Pin this query's spill mode explicitly, overriding `BDCC_SPILL`
    /// (tests; also lets a caller force out-of-core execution for a
    /// single query). Call after `with_memory_budget` — the broker's
    /// `auto` thresholds derive from the budget in force at this point.
    pub fn with_spill(mut self, mode: SpillMode) -> QueryContext {
        self.broker = MemoryBroker::with_mode(mode, &self.tracker, self.governor.budget());
        self.clamp_morsels_to_budget();
        self
    }

    /// Consult `injector` at every checkpoint (delays, simulated I/O
    /// errors typed as [`ExecError::Injected`], worker panics).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> QueryContext {
        let tracker = Arc::clone(&self.tracker);
        self.governor.set_injector(injector, &tracker);
        self
    }
}

/// Static encoding annotations for a profiled scan (EXPLAIN ANALYZE): the
/// codec mix of every read-set column plus encoded-vs-raw byte totals. A
/// no-op for unencoded tables.
fn annotate_encodings(metrics: &OpMetrics, blueprint: &ScanBlueprint) {
    let table = blueprint.table();
    if !table.has_encodings() {
        return;
    }
    let (mut enc_bytes, mut raw_bytes) = (0u64, 0u64);
    for idx in blueprint.read_columns() {
        if let Some(enc) = table.encoding(idx) {
            let name = &table.schema().columns[idx].name;
            metrics.annotate(&format!("enc.{name}"), enc.codec_summary());
            enc_bytes += enc.encoded_bytes;
            raw_bytes += enc.raw_bytes;
        }
    }
    if raw_bytes > 0 {
        metrics.annotate("enc_bytes", enc_bytes.to_string());
        metrics.annotate("raw_bytes", raw_bytes.to_string());
    }
}

/// Plan a logical tree into a physical operator under the context's scheme.
pub fn plan_query(ctx: &QueryContext, node: &Node) -> Result<BoxedOp> {
    let restrictions = if ctx.sdb.scheme == Scheme::Bdcc {
        compute_restrictions(node, &ctx.sdb)?
    } else {
        Restrictions::new()
    };
    let planner = Planner { ctx, restrictions };
    let out = planner.build(node, &[])?;
    let op = if let (Some(profiler), Some(root)) = (&ctx.profiler, &out.prof) {
        profiler.set_root(Arc::clone(root));
        // The root edge wrapper (no parent) books the query's output rows
        // and the root operator's wall time.
        wrap_edge(out.op, &out.prof, &None)
    } else {
        out.op
    };
    // Governed queries poll limits before every root batch too, so even
    // a fully serial plan observes cancellation at batch granularity.
    // Ungoverned plans are structurally unchanged.
    if ctx.governor.is_active() {
        return Ok(Box::new(GovernedOp::new(op, ctx.governor.clone(), "plan-root")));
    }
    Ok(op)
}

/// One `(scan, dimension use)` occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstAlias {
    scan_id: usize,
    use_idx: usize,
}

/// An equivalence class of dimension-use occurrences unified by foreign-key
/// joins, with the negotiated prefix bits.
#[derive(Debug, Clone)]
struct InstSet {
    aliases: Vec<InstAlias>,
    bits: u32,
}

impl InstSet {
    fn alias_for(&self, scan_ids: &[usize]) -> Option<InstAlias> {
        self.aliases.iter().copied().find(|a| scan_ids.contains(&a.scan_id))
    }
}

/// Physical subtree plus the positions of the requested group-key columns
/// and (under profiling) the subtree's profile node.
struct PhysOut {
    op: BoxedOp,
    gk_cols: Vec<usize>,
    prof: Option<Arc<OpProf>>,
}

struct Planner<'a> {
    ctx: &'a QueryContext,
    restrictions: Restrictions,
}

impl<'a> Planner<'a> {
    fn catalog(&self) -> &bdcc_catalog::Catalog {
        self.ctx.sdb.db.catalog()
    }

    // -----------------------------------------------------------------
    // Profile-tree construction (no-ops when the context has no profiler).
    // -----------------------------------------------------------------

    /// Profile node for the operator being built: a fresh metric block, a
    /// child tracker of the query tracker, optional I/O attribution, and
    /// the already-built children. `None` when profiling is off.
    fn prof_node(
        &self,
        label: String,
        children: Vec<Option<Arc<OpProf>>>,
        io: Option<IoTracker>,
    ) -> Option<Arc<OpProf>> {
        self.ctx.profiler.as_ref()?;
        Some(Arc::new(OpProf {
            label,
            metrics: OpMetrics::new(),
            tracker: MemoryTracker::child_of(&self.ctx.tracker),
            io,
            children: children.into_iter().flatten().collect(),
        }))
    }

    /// The tracker the operator should charge: its profile node's child
    /// tracker (forwards to the query total) or the query tracker itself.
    fn op_tracker(&self, prof: &Option<Arc<OpProf>>) -> Arc<MemoryTracker> {
        match prof {
            Some(p) => Arc::clone(&p.tracker),
            None => Arc::clone(&self.ctx.tracker),
        }
    }

    /// A child I/O tracker for a storage-reading leaf, when profiling.
    fn scan_io(&self) -> Option<IoTracker> {
        self.ctx.profiler.as_ref().map(|_| self.ctx.io.child())
    }

    fn clustered(&self, table: TableId) -> Option<&BdccTable> {
        self.ctx.sdb.bdcc.as_ref().and_then(|s| s.tables.get(&table))
    }

    fn fk_by_name(&self, name: &str) -> Option<&ForeignKey> {
        self.catalog().fks().iter().find(|f| f.name == name)
    }

    // -----------------------------------------------------------------
    // Availability analysis (bottom-up).
    // -----------------------------------------------------------------

    /// Dimension instances this subtree can stream grouped-by.
    fn avail(&self, node: &Node) -> Vec<InstSet> {
        if self.ctx.sdb.scheme != Scheme::Bdcc {
            return Vec::new();
        }
        match node {
            Node::Scan { scan_id, table, .. } => {
                let Ok(tid) = self.catalog().table_id(table) else { return Vec::new() };
                let Some(bt) = self.clustered(tid) else { return Vec::new() };
                (0..bt.uses.len())
                    .filter_map(|u| {
                        let bits = bt.use_bits_at_granularity(u);
                        (bits > 0).then(|| InstSet {
                            aliases: vec![InstAlias { scan_id: *scan_id, use_idx: u }],
                            bits,
                        })
                    })
                    .collect()
            }
            Node::Filter { input, .. } | Node::Project { input, .. } => self.avail(input),
            Node::Join { left, right, join_type, fk, .. } => {
                let la = self.avail(left);
                match join_type {
                    JoinType::Inner => {
                        let ra = self.avail(right);
                        let mut merged = Vec::new();
                        let mut used_left: Vec<usize> = Vec::new();
                        if let Some((fk_name, side)) = fk {
                            if let Some(f) = self.fk_by_name(fk_name) {
                                // Normalize: `src` side references `dst`.
                                let (src_av, dst_av, src_is_left) = match side {
                                    FkSide::Left => (&la, &ra, true),
                                    FkSide::Right => (&ra, &la, false),
                                };
                                for (si, ss) in src_av.iter().enumerate() {
                                    for ds in dst_av.iter() {
                                        if self.sets_match(ss, ds, f, node) {
                                            let mut aliases = ss.aliases.clone();
                                            aliases.extend(ds.aliases.iter().copied());
                                            merged.push(InstSet {
                                                aliases,
                                                bits: ss.bits.min(ds.bits),
                                            });
                                            if src_is_left {
                                                used_left.push(si);
                                            }
                                            break;
                                        }
                                    }
                                }
                                if !src_is_left {
                                    // Mark left sets that merged.
                                    for (li, ls) in la.iter().enumerate() {
                                        if merged.iter().any(|m| {
                                            ls.aliases.iter().any(|a| m.aliases.contains(a))
                                        }) {
                                            used_left.push(li);
                                        }
                                    }
                                }
                            }
                        }
                        // Left (probe-side) grouping survives a hash join.
                        for (li, ls) in la.into_iter().enumerate() {
                            if !used_left.contains(&li) {
                                merged.push(ls);
                            }
                        }
                        merged
                    }
                    // Semi/anti joins keep the left rows (and order).
                    JoinType::Semi | JoinType::Anti => la,
                    JoinType::LeftOuter => Vec::new(),
                }
            }
            Node::Aggregate { .. } | Node::Sort { .. } | Node::Limit { .. } => Vec::new(),
        }
    }

    /// Do two instance sets refer to the same dimension instance across
    /// foreign key `f`? True iff some alias on the referencing side has
    /// path `[f] ++ path` of some alias on the referenced side.
    fn sets_match(&self, src: &InstSet, dst: &InstSet, f: &ForeignKey, node: &Node) -> bool {
        let tables = self.scan_tables(node);
        for sa in &src.aliases {
            let Some(&st) = tables.iter().find(|(id, _)| *id == sa.scan_id).map(|(_, t)| t) else {
                continue;
            };
            if st != f.from_table {
                continue;
            }
            let Some(sbt) = self.clustered(st) else { continue };
            let su = &sbt.uses[sa.use_idx];
            if su.path.first() != Some(&f.id) {
                continue;
            }
            for da in &dst.aliases {
                let Some(&dt) = tables.iter().find(|(id, _)| *id == da.scan_id).map(|(_, t)| t)
                else {
                    continue;
                };
                if dt != f.to_table {
                    continue;
                }
                let Some(dbt) = self.clustered(dt) else { continue };
                let du = &dbt.uses[da.use_idx];
                if su.dim == du.dim && su.path[1..] == du.path[..] {
                    return true;
                }
            }
        }
        false
    }

    /// `(scan_id, table)` pairs in a subtree.
    fn scan_tables(&self, node: &Node) -> Vec<(usize, TableId)> {
        let mut out = Vec::new();
        node.visit_scans(&mut |id, table, _| {
            if let Ok(t) = self.catalog().table_id(table) {
                out.push((id, t));
            }
        });
        out
    }

    // -----------------------------------------------------------------
    // Ordering analysis (for the PK scheme).
    // -----------------------------------------------------------------

    /// Column ordering of the subtree's output (empty = unordered).
    fn col_order(&self, node: &Node) -> Vec<String> {
        match node {
            Node::Scan { table, alias, .. } => {
                if self.ctx.sdb.scheme != Scheme::Pk {
                    return Vec::new();
                }
                let Ok(tid) = self.catalog().table_id(table) else { return Vec::new() };
                let pk = &self.catalog().table(tid).primary_key;
                pk.iter()
                    .map(|c| match alias {
                        Some(a) => alias_column(a, c),
                        None => c.clone(),
                    })
                    .collect()
            }
            Node::Filter { input, .. } => self.col_order(input),
            Node::Project { input, exprs } => {
                let inner = self.col_order(input);
                // Longest prefix of the order that survives the projection
                // as plain column references.
                let mut out = Vec::new();
                for c in inner {
                    let kept = exprs.iter().find(|(e, _)| matches!(e, Expr::Col(n) if n == &c));
                    match kept {
                        Some((_, name)) => out.push(name.clone()),
                        None => break,
                    }
                }
                out
            }
            Node::Join { left, join_type, .. } => match join_type {
                JoinType::Inner | JoinType::Semi | JoinType::Anti => self.col_order(left),
                JoinType::LeftOuter => Vec::new(),
            },
            Node::Sort { keys, .. } => {
                keys.iter().take_while(|k| k.ascending).map(|k| k.column.clone()).collect()
            }
            Node::Aggregate { .. } | Node::Limit { .. } => Vec::new(),
        }
    }

    // -----------------------------------------------------------------
    // Physical build (top-down, with requested grouping).
    // -----------------------------------------------------------------

    fn build(&self, node: &Node, requested: &[InstSet]) -> Result<PhysOut> {
        match node {
            Node::Scan { scan_id, table, columns, predicates, alias } => {
                self.build_scan(*scan_id, table, columns, predicates, alias.as_deref(), requested)
            }
            Node::Filter { input, predicate } => {
                let child = self.build(input, requested)?;
                let prof = self.prof_node("Filter".into(), vec![child.prof.clone()], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Filter::new(cop, predicate.clone())?
                    .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)));
                Ok(PhysOut { op: Box::new(op), gk_cols: child.gk_cols, prof })
            }
            Node::Project { input, exprs } => {
                let child = self.build(input, requested)?;
                let child_schema = child.op.schema().clone();
                let mut all: Vec<(Expr, String)> = exprs.clone();
                let base = all.len();
                let mut gk_cols = Vec::with_capacity(child.gk_cols.len());
                for (i, &gc) in child.gk_cols.iter().enumerate() {
                    let name = child_schema[gc].name.clone();
                    all.push((Expr::col(&name), name));
                    gk_cols.push(base + i);
                }
                let prof = self.prof_node("Project".into(), vec![child.prof.clone()], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Project::new(cop, all)?;
                Ok(PhysOut { op: Box::new(op), gk_cols, prof })
            }
            Node::Join { left, right, on, join_type, fk, residual } => {
                self.build_join(node, left, right, on, *join_type, fk.as_ref(), residual, requested)
            }
            Node::Aggregate { input, group_by, aggs } => {
                debug_assert!(requested.is_empty(), "nothing groups through an aggregate");
                self.build_aggregate(input, group_by, aggs)
            }
            Node::Sort { input, keys, limit } => {
                let child = self.build(input, &[])?;
                // One sort at every width: TPC-H sorts run over aggregated
                // rows, too few to pay for a fan-out.
                let prof = self.prof_node("Sort(serial)".into(), vec![child.prof.clone()], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Sort::new(cop, keys, *limit, self.op_tracker(&prof))?;
                Ok(PhysOut { op: Box::new(op), gk_cols: vec![], prof })
            }
            Node::Limit { input, n } => {
                let child = self.build(input, &[])?;
                let prof = self.prof_node("Limit".into(), vec![child.prof.clone()], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                Ok(PhysOut { op: Box::new(Limit::new(cop, *n)), gk_cols: vec![], prof })
            }
        }
    }

    /// Everything the leaf scan (and, under parallel execution, each of its
    /// morsels) reads: on a clustered BDCC table the pre-selected groups in
    /// scatter order with one key per requested instance, anywhere else the
    /// table's statistics blocks.
    fn scan_blueprint(
        &self,
        scan_id: usize,
        table: &str,
        columns: &[String],
        predicates: &[crate::pred::ColPredicate],
        requested: &[InstSet],
    ) -> Result<Arc<ScanBlueprint>> {
        let tid = self.catalog().table_id(table)?;
        let stored = self
            .ctx
            .sdb
            .db
            .stored(tid)
            .ok_or_else(|| ExecError::Plan(format!("no storage for {table}")))?
            .clone();
        match (self.ctx.sdb.scheme, self.clustered(tid)) {
            (Scheme::Bdcc, Some(bt)) => {
                // Group selection: every restricted use must admit the
                // group's bin prefix.
                type ActiveUse<'r> = (usize, &'r [(u64, u64)], u32);
                let mut active: Vec<ActiveUse> = Vec::new();
                let schema = self.ctx.sdb.bdcc.as_ref().expect("bdcc scheme");
                for (use_idx, u) in bt.uses.iter().enumerate() {
                    if let Some(ranges) = self.restrictions.get(&(scan_id, use_idx)) {
                        let dim_bits = schema.dimension(u.dim).bits();
                        let avail_bits = bt.use_bits_at_granularity(use_idx);
                        let shift = dim_bits - avail_bits;
                        active.push((use_idx, ranges, shift));
                    }
                }
                let mut selected: Vec<(u64, &bdcc_core::GroupEntry)> = Vec::new();
                'groups: for g in bt.count.iter() {
                    for (use_idx, ranges, shift) in &active {
                        let prefix = bt.group_bin_prefix(*use_idx, g.key);
                        // The group's prefix covers the full-granularity
                        // bin interval [prefix<<shift, (prefix+1)<<shift).
                        let lo = prefix << shift;
                        let hi = (prefix << shift) + ((1u64 << shift) - 1);
                        if !ranges_overlap(ranges, lo, hi) {
                            continue 'groups;
                        }
                    }
                    selected.push((g.key, g));
                }
                // Requested group keys per group, in requested order.
                let mut runs: Vec<Run> = Vec::with_capacity(selected.len());
                let mut names = Vec::with_capacity(requested.len());
                let scan_ids = [scan_id];
                let mut req_uses: Vec<(usize, u32)> = Vec::with_capacity(requested.len());
                for set in requested {
                    let a = set.alias_for(&scan_ids).ok_or_else(|| {
                        ExecError::Plan(format!("requested instance not available on {table}"))
                    })?;
                    names.push(format!("__gk_{}_{}", scan_id, a.use_idx));
                    req_uses.push((a.use_idx, set.bits));
                }
                for (key, g) in &selected {
                    let keys = req_uses
                        .iter()
                        .map(|&(u, bits)| {
                            let own = bt.use_bits_at_granularity(u);
                            let full = bt.group_bin_prefix(u, *key);
                            (full >> (own - bits)) as i64
                        })
                        .collect();
                    runs.push(Run { start: g.start, count: g.count, keys });
                }
                if !requested.is_empty() {
                    // Scatter order: requested keys major-to-minor.
                    runs.sort_by(|a, b| a.keys.cmp(&b.keys));
                }
                ScanBlueprint::new(stored, columns, predicates.to_vec(), &names, runs)
            }
            _ if !requested.is_empty() => {
                Err(ExecError::Plan(format!("grouping requested from unclustered table {table}")))
            }
            _ => ScanBlueprint::blocks(stored, columns, predicates.to_vec()),
        }
    }

    /// The scan decision log of a profiled BDCC scan (EXPLAIN ANALYZE): how
    /// many count-table groups it reads of how many, and per restricted use
    /// how many of the dimension's bins survived plan-time restriction and
    /// which host table decided. A use index is appended where a table uses
    /// one dimension over several paths.
    fn annotate_group_selection(
        &self,
        metrics: &OpMetrics,
        scan_id: usize,
        table: &str,
        blueprint: &ScanBlueprint,
    ) {
        // (No clustered table, no groups: the runs are statistics blocks.)
        let Some(schema) = &self.ctx.sdb.bdcc else { return };
        let Some(bt) = self.catalog().table_id(table).ok().and_then(|t| schema.table(t)) else {
            return;
        };
        let selected = blueprint.runs().len();
        metrics.annotate("groups", format!("{selected}/{}", bt.count.group_count()));
        for (use_idx, u) in bt.uses.iter().enumerate() {
            let Some(ranges) = self.restrictions.get(&(scan_id, use_idx)) else { continue };
            let dim = schema.dimension(u.dim);
            let shared = bt.uses.iter().filter(|o| o.dim == u.dim).count() > 1;
            let key = if shared {
                format!("restrict.{}[{use_idx}]", dim.name)
            } else {
                format!("restrict.{}", dim.name)
            };
            let surviving: u64 = ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum();
            let host = self.catalog().table_name(dim.table);
            metrics.annotate(&key, format!("{surviving}/{} via {host}", dim.bin_count()));
        }
    }

    /// Build the leaf scan operator: one [`Scan`] on every scheme, walking
    /// its runs inline or streaming them at the context's width.
    fn build_scan(
        &self,
        scan_id: usize,
        table: &str,
        columns: &[String],
        predicates: &[crate::pred::ColPredicate],
        alias: Option<&str>,
        requested: &[InstSet],
    ) -> Result<PhysOut> {
        let blueprint = self.scan_blueprint(scan_id, table, columns, predicates, requested)?;
        let base = columns.len();
        let gk_cols: Vec<usize> = (0..requested.len()).map(|i| base + i).collect();
        // Profiling gives the scan its own I/O attribution (a child of
        // the query tracker, so query totals and access classification
        // are unchanged) and a per-operator memory tracker.
        let io_child = self.scan_io();
        let prof = self.prof_node(format!("Scan({table})"), vec![], io_child.clone());
        let io = io_child.unwrap_or_else(|| self.ctx.io.clone());
        if let Some(p) = &prof {
            annotate_encodings(&p.metrics, &blueprint);
            self.annotate_group_selection(&p.metrics, scan_id, table, &blueprint);
        }
        let op: BoxedOp = Box::new(
            Scan::new(blueprint, io, &self.ctx.parallel, self.op_tracker(&prof))
                .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)))
                .with_governor(self.ctx.governor.clone()),
        );
        // Alias: rename base columns, keep group keys. The rename rides
        // inside the scan's profile node — it is part of the access path,
        // not a plan operator.
        match alias {
            None => Ok(PhysOut { op, gk_cols, prof }),
            Some(a) => {
                let schema = op.schema().clone();
                let exprs: Vec<(Expr, String)> = schema
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        let name = if gk_cols.contains(&i) {
                            m.name.clone()
                        } else {
                            alias_column(a, &m.name)
                        };
                        (Expr::ColIdx(i), name)
                    })
                    .collect();
                let p = Project::new(op, exprs)?;
                Ok(PhysOut { op: Box::new(p), gk_cols, prof })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_join(
        &self,
        node: &Node,
        left: &Node,
        right: &Node,
        on: &[(String, String)],
        join_type: JoinType,
        fk: Option<&(String, FkSide)>,
        residual: &Option<Expr>,
        requested: &[InstSet],
    ) -> Result<PhysOut> {
        let on_refs: Vec<(&str, &str)> = on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
        let left_ids = left.scan_ids();

        // --- BDCC: a sandwich join, or the reason there is none ----------
        let sandwich = (self.ctx.sdb.scheme == Scheme::Bdcc)
            .then(|| self.sandwich_keys(node, left, right, join_type, fk, requested));
        if let Some(Ok(keys)) = &sandwich {
            let lout = self.build(left, keys)?;
            let rout = self.build(right, keys)?;
            let prof = self.prof_node(
                "Join(sandwich)".into(),
                vec![lout.prof.clone(), rout.prof.clone()],
                None,
            );
            if let Some(p) = &prof {
                p.metrics.annotate("sandwich", self.describe_keys(keys, node));
            }
            let lop = wrap_edge(lout.op, &lout.prof, &prof);
            let rop = wrap_edge(rout.op, &rout.prof, &prof);
            // The hash join, indexing one right co-cluster at a time.
            let groups = (lout.gk_cols.clone(), rout.gk_cols);
            let j = HashJoin::grouped(
                lop,
                rop,
                &on_refs,
                groups,
                join_type,
                residual.clone(),
                self.op_tracker(&prof),
            )?
            .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)))
            .with_governor(self.ctx.governor.clone());
            // Output keeps the left columns at unchanged positions;
            // requested = the first `requested.len()` sandwich keys.
            let gk_cols = lout.gk_cols[..requested.len()].to_vec();
            return Ok(PhysOut { op: Box::new(j), gk_cols, prof });
        }

        // --- PK: merge join when both sides are ordered on the key -------
        if self.ctx.sdb.scheme == Scheme::Pk
            && join_type == JoinType::Inner
            && on.len() == 1
            && residual.is_none()
            && requested.is_empty()
        {
            let lord = self.col_order(left);
            let rord = self.col_order(right);
            if lord.first().map(|c| c.as_str()) == Some(on[0].0.as_str())
                && rord.first().map(|c| c.as_str()) == Some(on[0].1.as_str())
            {
                let lout = self.build(left, &[])?;
                let rout = self.build(right, &[])?;
                let prof = self.prof_node(
                    "Join(merge)".into(),
                    vec![lout.prof.clone(), rout.prof.clone()],
                    None,
                );
                let lop = wrap_edge(lout.op, &lout.prof, &prof);
                let rop = wrap_edge(rout.op, &rout.prof, &prof);
                let j = MergeJoin::new(lop, rop, (&on[0].0, &on[0].1))?;
                return Ok(PhysOut { op: Box::new(j), gk_cols: vec![], prof });
            }
        }

        // --- Fallback: hash join; left-side grouping passes through ------
        let left_req: Vec<InstSet> = requested.to_vec();
        for r in &left_req {
            if r.alias_for(&left_ids).is_none() {
                return Err(ExecError::Plan(
                    "requested grouping not available through hash join".into(),
                ));
            }
        }
        let lout = self.build(left, &left_req)?;
        let rout = self.build(right, &[])?;
        let prof =
            self.prof_node("Join(hash)".into(), vec![lout.prof.clone(), rout.prof.clone()], None);
        if let (Some(Err(why)), Some(p)) = (&sandwich, &prof) {
            p.metrics.annotate("sandwich", format!("no({why})"));
        }
        let lop = wrap_edge(lout.op, &lout.prof, &prof);
        let rop = wrap_edge(rout.op, &rout.prof, &prof);
        let j =
            HashJoin::new(lop, rop, &on_refs, join_type, residual.clone(), self.op_tracker(&prof))?
                .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)))
                .with_governor(self.ctx.governor.clone())
                .with_broker(self.ctx.broker.clone(), self.ctx.io.clone());
        Ok(PhysOut { op: Box::new(j), gk_cols: lout.gk_cols, prof })
    }

    /// The group keys a BDCC sandwich join would align its children on —
    /// requested ones first, resolved to the sets the foreign key merges,
    /// then the other shared instances — or the first check that failed,
    /// which the decision log reports on the hash join planned instead.
    fn sandwich_keys(
        &self,
        node: &Node,
        left: &Node,
        right: &Node,
        join_type: JoinType,
        fk: Option<&(String, FkSide)>,
        requested: &[InstSet],
    ) -> std::result::Result<Vec<InstSet>, &'static str> {
        if join_type != JoinType::Inner {
            return Err("join-type");
        }
        let Some((f, side)) = fk.and_then(|(name, side)| Some((self.fk_by_name(name)?, side)))
        else {
            return Err("no-fk");
        };
        let (la, ra) = (self.avail(left), self.avail(right));
        let (src_av, dst_av) = match side {
            FkSide::Left => (&la, &ra),
            FkSide::Right => (&ra, &la),
        };
        // Shared sets: one alias on each side, matched over f.
        let mut shared: Vec<InstSet> = Vec::new();
        for ss in src_av {
            if let Some(ds) = dst_av.iter().find(|ds| self.sets_match(ss, ds, f, node)) {
                let mut aliases = ss.aliases.clone();
                aliases.extend(ds.aliases.iter().copied());
                shared.push(InstSet { aliases, bits: ss.bits.min(ds.bits) });
            }
        }
        if shared.is_empty() {
            return Err("no-shared-instance");
        }
        let merged =
            |r: &InstSet| shared.iter().find(|s| r.aliases.iter().any(|a| s.aliases.contains(a)));
        let mut keys: Vec<InstSet> = Vec::new();
        for r in requested {
            let m = merged(r).ok_or("requested-not-two-sided")?;
            keys.push(InstSet { aliases: m.aliases.clone(), bits: r.bits.min(m.bits) });
        }
        let (left_ids, right_ids) = (left.scan_ids(), right.scan_ids());
        let two_sided =
            |s: &InstSet| s.alias_for(&left_ids).is_some() && s.alias_for(&right_ids).is_some();
        for s in &shared {
            let already = keys.iter().any(|k| s.aliases.iter().any(|a| k.aliases.contains(a)));
            if !already && two_sided(s) {
                keys.push(s.clone());
            }
        }
        if keys.is_empty() || !keys.iter().all(two_sided) {
            return Err("keys-not-two-sided");
        }
        Ok(keys)
    }

    /// A sandwich join's decision log: its group keys, each as the
    /// dimension it clusters on and the prefix bits it aligns.
    fn describe_keys(&self, keys: &[InstSet], node: &Node) -> String {
        let tables = self.scan_tables(node);
        let dim = |a: &InstAlias| {
            let (_, t) = tables.iter().find(|(id, _)| *id == a.scan_id)?;
            let u = &self.clustered(*t)?.uses[a.use_idx];
            Some(self.ctx.sdb.bdcc.as_ref()?.dimension(u.dim).name.clone())
        };
        let each = keys.iter().map(|k| {
            let name = k.aliases.first().and_then(dim).unwrap_or_else(|| "?".into());
            format!("{name}/{}", k.bits)
        });
        format!("{} keys ({})", keys.len(), each.collect::<Vec<_>>().join(", "))
    }

    fn build_aggregate(
        &self,
        input: &Node,
        group_by: &[String],
        aggs: &[crate::ops::agg::AggSpec],
    ) -> Result<PhysOut> {
        let gb_refs: Vec<&str> = group_by.iter().map(|s| s.as_str()).collect();

        // Strategy precedence: the two *memory-bounded* strategies —
        // sandwich (BDCC, on the instances the group-by keys determine) and
        // streaming (input ordered on the keys, e.g. PK) — hold at most one
        // co-cluster's (or one run's) groups, which neither partials (shared
        // groups once per morsel) nor one table over the whole input can
        // beat. Leaf scans below them still stream their morsels.
        let sandwich =
            (self.ctx.sdb.scheme == Scheme::Bdcc).then(|| self.sandwich_instances(input, group_by));
        let order = self.col_order(input);
        let streams = !group_by.is_empty()
            && group_by.len() <= order.len()
            && order[..group_by.len()].iter().all(|c| group_by.contains(c));
        let bounded = streams || matches!(sandwich, Some(Ok(_)));
        // The decision log: the sandwich's keys, or why there is none.
        let log_sandwich = |prof: &Option<Arc<OpProf>>| {
            if let (Some(decision), Some(p)) = (&sandwich, prof) {
                let log = match decision {
                    Ok(keys) => self.describe_keys(keys, input),
                    Err(why) => format!("no({why})"),
                };
                p.metrics.annotate("sandwich", log);
            }
        };

        // Parallel: a single-scan fragment (scan → filter/project chain)
        // aggregates morsel-wise — identical results to the hash aggregate
        // it replaces — when the leaf is worth splitting across the
        // context's threads and the broker is inert: partials cannot
        // spill, the hash aggregate can.
        let cfg = &self.ctx.parallel;
        // (Lowering the fragment selects BDCC groups — skip it when the
        // answer is already no.)
        let fragment = match !bounded && cfg.threads > 1 && !self.ctx.broker.is_active() {
            true => self.leaf_fragment(input)?,
            false => None,
        };
        if let Some(fragment) = fragment.filter(|f| cfg.worth_splitting(f.scan.total_rows())) {
            // The fragment fuses scan → filter/project into the
            // aggregate's workers, so this node is also a leaf: it gets
            // the scan's I/O attribution.
            let io_child = self.scan_io();
            let prof = self.prof_node("Aggregate(parallel)".into(), vec![], io_child.clone());
            if let Some(p) = &prof {
                p.metrics.annotate("fragment", fragment.scan.table().name());
            }
            log_sandwich(&prof);
            let op = ParallelAggregate::new(
                fragment,
                &gb_refs,
                aggs.to_vec(),
                io_child.unwrap_or_else(|| self.ctx.io.clone()),
                cfg.clone(),
                self.op_tracker(&prof),
            )?
            .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)))
            .with_governor(self.ctx.governor.clone());
            return Ok(PhysOut { op: Box::new(op), gk_cols: vec![], prof });
        }

        // Everything else is the one serial aggregate, flushing when its
        // run columns change: the sandwich's group keys, the streamed
        // group-by keys, or none — one table over the whole input, which
        // under an active broker spills the groups it has no room for.
        let requested = match &sandwich {
            Some(Ok(determined)) => determined.as_slice(),
            _ => &[],
        };
        let child = self.build(input, requested)?;
        let (label, runs): (&str, Vec<usize>) = match (requested.is_empty(), streams) {
            (false, _) => ("Aggregate(sandwich)", child.gk_cols),
            (true, true) => {
                let schema = child.op.schema();
                (
                    "Aggregate(streaming)",
                    gb_refs.iter().filter_map(|g| schema_index(schema, g)).collect(),
                )
            }
            (true, false) => ("Aggregate(hash)", Vec::new()),
        };
        let prof = self.prof_node(label.into(), vec![child.prof.clone()], None);
        log_sandwich(&prof);
        let cop = wrap_edge(child.op, &child.prof, &prof);
        let broker = if runs.is_empty() { self.ctx.broker.clone() } else { MemoryBroker::none() };
        let op = HashAggregate::new(cop, &gb_refs, aggs.to_vec(), self.op_tracker(&prof))?
            .with_runs(runs)
            .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)))
            .with_governor(self.ctx.governor.clone())
            .with_broker(broker, self.ctx.io.clone());
        Ok(PhysOut { op: Box::new(op), gk_cols: vec![], prof })
    }

    /// The instances a BDCC sandwich aggregate would stream `input` grouped
    /// on — those the group-by keys determine — or the first check that
    /// failed: no group-by, nothing `input` can stream grouped, or nothing
    /// the keys determine.
    fn sandwich_instances(
        &self,
        input: &Node,
        group_by: &[String],
    ) -> std::result::Result<Vec<InstSet>, &'static str> {
        if group_by.is_empty() {
            return Err("global");
        }
        let av = self.avail(input);
        if av.is_empty() {
            return Err("no-instance");
        }
        let determined: Vec<InstSet> =
            av.into_iter().filter(|s| self.determined_by(s, input, group_by)).collect();
        if determined.is_empty() {
            return Err("not-determined");
        }
        Ok(determined)
    }

    /// When `node` is a filter/project chain over a single scan, lower it
    /// into a [`FragmentBlueprint`] workers can replay per morsel (no
    /// requested instances — the parallel aggregate needs no grouping from
    /// the scan). Returns `None` for any other shape.
    fn leaf_fragment(&self, node: &Node) -> Result<Option<FragmentBlueprint>> {
        // Walk down to the scan, remembering the wrappers top-down.
        let mut wrappers: Vec<&Node> = Vec::new();
        let mut cur = node;
        let (scan_id, table, columns, predicates, alias) = loop {
            match cur {
                Node::Scan { scan_id, table, columns, predicates, alias } => {
                    break (*scan_id, table, columns, predicates, alias)
                }
                Node::Filter { input, .. } | Node::Project { input, .. } => {
                    wrappers.push(cur);
                    cur = input;
                }
                _ => return Ok(None),
            }
        };
        let blueprint = self.scan_blueprint(scan_id, table, columns, predicates, &[])?;
        let mut steps = Vec::new();
        // The alias projection the serial path applies directly above the
        // scan.
        if let Some(a) = alias {
            let exprs: Vec<(Expr, String)> = columns
                .iter()
                .enumerate()
                .map(|(i, c)| (Expr::ColIdx(i), alias_column(a, c)))
                .collect();
            steps.push(FragmentStep::Project(exprs));
        }
        // Then the wrappers, innermost first.
        for w in wrappers.iter().rev() {
            match w {
                Node::Filter { predicate, .. } => {
                    steps.push(FragmentStep::Filter(predicate.clone()))
                }
                Node::Project { exprs, .. } => steps.push(FragmentStep::Project(exprs.clone())),
                _ => unreachable!("only filter/project wrappers collected"),
            }
        }
        Ok(Some(FragmentBlueprint { scan: blueprint, steps }))
    }

    /// Do the group-by keys functionally determine instance `set` in
    /// `input`? True when some alias `(scan S of table T, use U)` satisfies:
    /// the head of `U`'s path is a foreign key whose source columns are all
    /// in the group-by set (an FK value determines everything it
    /// references), or `U` is local and its dimension key ⊆ group-by.
    fn determined_by(&self, set: &InstSet, input: &Node, group_by: &[String]) -> bool {
        let tables = self.scan_tables(input);
        for a in &set.aliases {
            let Some(&t) = tables.iter().find(|(id, _)| *id == a.scan_id).map(|(_, t)| t) else {
                continue;
            };
            let Some(bt) = self.clustered(t) else { continue };
            let u = &bt.uses[a.use_idx];
            let determining_cols: Vec<String> = match u.path.first() {
                Some(&fk) => self.catalog().fk(fk).from_columns.clone(),
                None => {
                    let schema = self.ctx.sdb.bdcc.as_ref().expect("bdcc");
                    schema.dimension(u.dim).key.clone()
                }
            };
            if determining_cols.iter().all(|c| group_by.contains(c)) {
                return true;
            }
        }
        false
    }
}
