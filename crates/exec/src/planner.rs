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
//! Both rest on one *physical-property pass*. Before anything is built,
//! `Planner::derive` walks the logical tree once, bottom-up, and records
//! per node, in a `Props` tree that mirrors the plan:
//!
//! * its instance **classes** (BDCC): sets of `(scan, dimension use)`
//!   aliases that name one dimension instance, so the subtree can stream
//!   grouped by the class's leading bits. A clustered scan has one class
//!   per use; a foreign key unifies a class of its referencing side with
//!   the first class of the referenced side that reaches the same
//!   dimension over the rest of the path. Filters and projections pass
//!   classes up; an inner join passes up the classes its foreign key
//!   unified and the left classes that unified with none; semi and anti
//!   joins pass up the left side's; left outer joins, aggregates, sorts
//!   and limits pass up none.
//! * its column **order** (PK): a PK scan streams in key order; filters,
//!   and the left side of inner, semi and anti joins, keep it; a
//!   projection keeps its prefix of plain column references; a sort gives
//!   its ascending prefix; nothing else streams ordered.
//!
//! `Planner::build` then plans top-down and only reads the properties: a
//! join is a sandwich on the classes its foreign key unified (the ones its
//! parent requested first), a merge join when both sides' orders lead
//! with the key; an aggregate is a sandwich on the input classes its
//! group-by determines, or streams when the input order covers the
//! group-by. Scatter scans satisfy any requested grouping (that is what
//! makes them scatter scans).
//!
//! `build` also hands each node the **needed-column set**, the columns read
//! above it (`Node::input_needs`): the root passes its whole output; a
//! projection or an aggregate passes what its expressions, group keys and
//! inputs name; a filter, a sort and a join pass what is read above plus
//! their predicate, sort keys, or join keys and residual. A hash join emits
//! only the needed columns and the group-key columns it passes up.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdcc_catalog::{ForeignKey, TableId};
use bdcc_core::{BdccTable, DimensionUse};
use bdcc_pool::{CancelToken, FaultInjector};
use bdcc_storage::IoTracker;

use crate::batch::{schema_index, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::{spill_mode, GovernedOp, Governor, SpillMode};
use crate::memory::MemoryTracker;
use crate::ops::agg::HashAggregate;
use crate::ops::join::{HashJoin, JoinType};
use crate::ops::merge_join::MergeJoin;
use crate::ops::scan::{Run, Scan, ScanBlueprint};
use crate::ops::sort::Sort;
use crate::ops::transform::{Filter, Project};
use crate::ops::{BoxedOp, OpEnv, Operator};
use crate::parallel::{
    CoClusterAggregate, FragmentBlueprint, FragmentStep, ParallelAggregate, ParallelConfig,
    DEFAULT_MORSEL_ROWS,
};
use crate::plan::{alias_column, FkSide, Needed, Node};
use crate::profile::{wrap_edge, OpProf, Profiler};
use crate::restrict::{compute_restrictions, ranges_overlap, BinRanges, Restrictions};
use crate::scheme::{Scheme, SchemeDb};
use bdcc_obs::OpMetrics;

/// Everything a query execution needs.
#[derive(Clone)]
pub struct QueryContext {
    pub sdb: Arc<SchemeDb>,
    pub tracker: Arc<MemoryTracker>,
    pub io: IoTracker,
    /// Execution width and morsel size. `threads: 1` (what
    /// [`new`](Self::new) installs) is serial execution; wider, while the
    /// query does not spill, the planner fans out each aggregate directly
    /// over a leaf by morsel — partial-merge for a hash aggregate, by
    /// co-cluster for a sandwich one. Every scan anywhere else, and
    /// everything above a leaf aggregate, runs on the calling thread at
    /// every width.
    pub parallel: ParallelConfig,
    /// When set, the planner mirrors the operator tree with per-operator
    /// metric blocks, child memory/I/O trackers and edge wrappers (see
    /// [`crate::profile`]); results stay byte-identical. `None` (the
    /// default; [`with_profiling`](Self::with_profiling) sets it)
    /// allocates and wraps nothing.
    pub profiler: Option<Profiler>,
    /// Per-query limits (cancellation, deadline, memory budget, fault
    /// injection) checked at every morsel-grained checkpoint, and the
    /// spill mode the spill-capable operators (hash join, hash aggregate)
    /// ask under the budget; no limit by default (see [`crate::govern`]).
    /// Installed by the `with_cancel`/`with_deadline`/`with_memory_budget`/
    /// `with_spill`/`with_fault_injector` builder methods — the serving
    /// layer's hook into execution. The spill mode starts as the process's
    /// (`BDCC_SPILL`), read once when the context is made.
    pub governor: Governor,
}

impl QueryContext {
    pub fn new(sdb: Arc<SchemeDb>) -> QueryContext {
        let serial = ParallelConfig { threads: 1, morsel_rows: DEFAULT_MORSEL_ROWS };
        QueryContext::for_query(sdb, MemoryTracker::new(), serial)
    }

    /// The one place a context's defaults are spelled out: no profiler,
    /// no limits, the process's spill mode with no budget, and at least
    /// one thread (`threads: 0` is serial, as it always planned). The
    /// public constructors and the serving layer (which supplies a
    /// per-query child `tracker`) all start here.
    pub(crate) fn for_query(
        sdb: Arc<SchemeDb>,
        tracker: Arc<MemoryTracker>,
        parallel: ParallelConfig,
    ) -> QueryContext {
        let mut governor = Governor::none();
        governor.set_spill(spill_mode());
        QueryContext {
            sdb,
            tracker,
            io: IoTracker::new(),
            parallel: ParallelConfig { threads: parallel.threads.max(1), ..parallel },
            profiler: None,
            governor,
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
    /// graceful per-query degradation instead of process death. Unless
    /// the spill mode is `Off`, hash joins and hash aggregates now spill
    /// under pressure and `BudgetExceeded` is reserved for queries
    /// spilling cannot save.
    pub fn with_memory_budget(mut self, bytes: u64) -> QueryContext {
        let tracker = Arc::clone(&self.tracker);
        self.governor.set_budget(bytes, &tracker);
        self
    }

    /// Pin this query's spill mode explicitly, overriding `BDCC_SPILL`
    /// (tests; also lets a caller force out-of-core execution for a
    /// single query). Order against `with_memory_budget` does not matter.
    pub fn with_spill(mut self, mode: SpillMode) -> QueryContext {
        self.governor.set_spill(mode);
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
/// Under profiling, the root's profile node records how long planning
/// took: `plan.restrict_ms` for BDCC's restriction, `plan.build_ms` for the
/// property pass and the build.
pub fn plan_query(ctx: &QueryContext, node: &Node) -> Result<BoxedOp> {
    let start = Instant::now();
    let restrictions = if ctx.sdb.scheme == Scheme::Bdcc {
        compute_restrictions(node, &ctx.sdb)?
    } else {
        Restrictions::new()
    };
    let restricted = Instant::now();
    let planner = Planner { ctx, restrictions };
    let out = planner.build(node, &planner.derive(node), &[], &Needed::default())?;
    let op = if let (Some(profiler), Some(root)) = (&ctx.profiler, &out.prof) {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        root.metrics.annotate("plan.restrict_ms", ms(restricted - start));
        root.metrics.annotate("plan.build_ms", ms(restricted.elapsed()));
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
    table: TableId,
    use_idx: usize,
}

/// An instance class: dimension-use occurrences unified by foreign-key
/// joins, with the prefix bits they share.
#[derive(Debug, Clone)]
struct InstSet {
    aliases: Vec<InstAlias>,
    bits: u32,
}

impl InstSet {
    fn overlaps(&self, other: &InstSet) -> bool {
        self.aliases.iter().any(|a| other.aliases.contains(a))
    }
}

/// The physical properties of one plan node, derived once by
/// [`Planner::derive`] in a tree that mirrors the plan (`children` in the
/// node's input order).
struct Props {
    /// The instance classes the node can stream grouped by (BDCC).
    classes: Vec<InstSet>,
    /// The column order the node streams sorted by (`None`: unordered),
    /// shared with the nodes that pass it up.
    order: Option<Rc<[String]>>,
    /// A BDCC inner join whose declared foreign key resolves: how many
    /// leading `classes` that key unified across the two sides.
    unified: Option<usize>,
    children: Vec<Props>,
}

impl Props {
    fn order(&self) -> &[String] {
        self.order.as_deref().unwrap_or_default()
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
    /// the already-built children. `None` (and nothing allocated) when
    /// profiling is off.
    fn prof_node(
        &self,
        label: impl std::fmt::Display,
        children: &[&Option<Arc<OpProf>>],
        io: Option<IoTracker>,
    ) -> Option<Arc<OpProf>> {
        self.ctx.profiler.as_ref()?;
        Some(Arc::new(OpProf {
            label: label.to_string(),
            metrics: OpMetrics::new(),
            tracker: MemoryTracker::child_of(&self.ctx.tracker),
            io,
            children: children.iter().filter_map(|&c| c.clone()).collect(),
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

    /// The environment of the operator being built: its profile node's
    /// tracker and metrics, the query's governor, and the query's I/O
    /// tracker — or, for a storage-reading leaf under profiling, its own
    /// (`io_child`).
    fn op_env(&self, prof: &Option<Arc<OpProf>>, io_child: Option<IoTracker>) -> OpEnv {
        OpEnv {
            io: io_child.unwrap_or_else(|| self.ctx.io.clone()),
            tracker: self.op_tracker(prof),
            metrics: prof.as_ref().map(|p| Arc::clone(&p.metrics)),
            governor: self.ctx.governor.clone(),
        }
    }

    /// A child I/O tracker for a storage-reading leaf, when profiling.
    fn scan_io(&self) -> Option<IoTracker> {
        self.ctx.profiler.as_ref().map(|_| self.ctx.io.child())
    }

    fn clustered(&self, table: TableId) -> Option<&BdccTable> {
        self.ctx.sdb.bdcc.as_ref().and_then(|s| s.tables.get(&table))
    }

    /// The dimension use an alias names (aliases come from clustered scans).
    fn dim_use(&self, a: InstAlias) -> &DimensionUse {
        &self.clustered(a.table).expect("aliases name clustered tables").uses[a.use_idx]
    }

    // -----------------------------------------------------------------
    // The physical-property pass (bottom-up, once per plan).
    // -----------------------------------------------------------------

    /// The properties of `node` and, in its `children`, of every node
    /// below it: the one analysis `build` reads.
    fn derive(&self, node: &Node) -> Props {
        let children = match node {
            Node::Scan { .. } => Vec::new(),
            Node::Join { left, right, .. } => vec![self.derive(left), self.derive(right)],
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Sort { input, .. } => vec![self.derive(input)],
        };
        let (mut classes, mut order, mut unified) = (Vec::new(), None, None);
        match (node, &children[..]) {
            (Node::Scan { scan_id, table, alias, .. }, _)
                if self.ctx.sdb.scheme != Scheme::Plain =>
            {
                let Ok(table_id) = self.catalog().table_id(table) else {
                    return Props { classes, order, unified, children };
                };
                // A clustered BDCC scan has one class per use with bits at
                // the table's granularity.
                if let (Scheme::Bdcc, Some(bt)) = (self.ctx.sdb.scheme, self.clustered(table_id)) {
                    let class = |use_idx| {
                        let aliases =
                            vec![InstAlias { scan_id: *scan_id, table: table_id, use_idx }];
                        InstSet { aliases, bits: bt.use_bits_at_granularity(use_idx) }
                    };
                    classes = (0..bt.uses.len()).map(class).filter(|c| c.bits > 0).collect();
                }
                // A PK scan streams in primary-key order.
                if self.ctx.sdb.scheme == Scheme::Pk {
                    let pk = &self.catalog().table(table_id).primary_key;
                    let named =
                        |c| alias.as_ref().map_or_else(|| String::clone(c), |a| alias_column(a, c));
                    order = Some(pk.iter().map(named).collect());
                }
            }
            (Node::Filter { .. }, [input]) => {
                (classes, order) = (input.classes.clone(), input.order.clone());
            }
            (Node::Project { exprs, .. }, [input]) => {
                classes = input.classes.clone();
                // The longest prefix of the order that survives the
                // projection as plain column references.
                let renamed = |c: &String| {
                    let kept = exprs.iter().find(|(e, _)| matches!(e, Expr::Col(n) if n == c));
                    kept.map(|(_, name)| name.clone())
                };
                order = input.order.as_ref().map(|o| o.iter().map_while(renamed).collect());
            }
            (Node::Join { join_type, fk, .. }, [left, right]) => match join_type {
                JoinType::Inner => {
                    (classes, unified) = self.inner_join_classes(fk.as_ref(), left, right);
                    order = left.order.clone();
                }
                // Semi/anti joins keep the left rows (and order).
                JoinType::Semi | JoinType::Anti => {
                    (classes, order) = (left.classes.clone(), left.order.clone());
                }
                JoinType::LeftOuter => {}
            },
            (Node::Sort { keys, .. }, _) => {
                order = Some(
                    keys.iter().take_while(|k| k.ascending).map(|k| k.column.clone()).collect(),
                );
            }
            // Plain scans, aggregates and limits stream neither grouped nor
            // ordered.
            _ => {}
        }
        Props { classes, order, unified, children }
    }

    /// An inner join's classes and how many of them its foreign key
    /// unified (`None` when no declared key resolves). Each class of the
    /// referencing side unifies with the first class of the referenced
    /// side it matches; those come first, then the left (probe-side)
    /// classes that unified with none, whose grouping survives a hash join.
    fn inner_join_classes(
        &self,
        fk: Option<&(String, FkSide)>,
        left: &Props,
        right: &Props,
    ) -> (Vec<InstSet>, Option<usize>) {
        // Only BDCC scans have classes for a foreign key to unify.
        let fk = fk.filter(|_| self.ctx.sdb.scheme == Scheme::Bdcc);
        let resolve = |name: &String| self.catalog().fks().iter().find(|f| &f.name == name);
        let Some((f, side)) = fk.and_then(|(name, side)| Some((resolve(name)?, *side))) else {
            return (left.classes.clone(), None);
        };
        let (src, dst) = match side {
            FkSide::Left => (&left.classes, &right.classes),
            FkSide::Right => (&right.classes, &left.classes),
        };
        let mut classes = Vec::new();
        for s in src {
            if let Some(d) = dst.iter().find(|d| self.sets_match(s, d, f)) {
                let aliases = [&s.aliases[..], &d.aliases[..]].concat();
                classes.push(InstSet { aliases, bits: s.bits.min(d.bits) });
            }
        }
        let unified = classes.len();
        // A left class that took part in a unification is consumed by it.
        for l in &left.classes {
            if !classes[..unified].iter().any(|c| l.overlaps(c)) {
                classes.push(l.clone());
            }
        }
        (classes, Some(unified))
    }

    /// Do two classes refer to the same dimension instance across foreign
    /// key `f`? True iff some alias on the referencing side has path
    /// `[f] ++ path` of some alias on the referenced side.
    fn sets_match(&self, src: &InstSet, dst: &InstSet, f: &ForeignKey) -> bool {
        src.aliases.iter().filter(|s| s.table == f.from_table).any(|&s| {
            let su = self.dim_use(s);
            su.path.first() == Some(&f.id)
                && dst.aliases.iter().filter(|d| d.table == f.to_table).any(|&d| {
                    let du = self.dim_use(d);
                    su.dim == du.dim && su.path[1..] == du.path[..]
                })
        })
    }

    // -----------------------------------------------------------------
    // Physical build (top-down, with requested grouping).
    // -----------------------------------------------------------------

    fn build(
        &self,
        node: &Node,
        props: &Props,
        requested: &[InstSet],
        needed: &Needed,
    ) -> Result<PhysOut> {
        let inputs = node.input_needs(needed);
        match node {
            Node::Scan { scan_id, table, columns, predicates, alias } => {
                self.build_scan(*scan_id, table, columns, predicates, alias.as_deref(), requested)
            }
            Node::Filter { input, predicate } => {
                let child = self.build(input, &props.children[0], requested, &inputs)?;
                let prof = self.prof_node("Filter", &[&child.prof], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Filter::new(cop, predicate.clone())?
                    .with_metrics(prof.as_ref().map(|p| Arc::clone(&p.metrics)));
                Ok(PhysOut { op: Box::new(op), gk_cols: child.gk_cols, prof })
            }
            Node::Project { input, exprs } => {
                let child = self.build(input, &props.children[0], requested, &inputs)?;
                let child_schema = child.op.schema().clone();
                let mut all: Vec<(Expr, String)> = exprs.clone();
                let base = all.len();
                let mut gk_cols = Vec::with_capacity(child.gk_cols.len());
                for (i, &gc) in child.gk_cols.iter().enumerate() {
                    let name = child_schema[gc].name.clone();
                    all.push((Expr::col(&name), name));
                    gk_cols.push(base + i);
                }
                let prof = self.prof_node("Project", &[&child.prof], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Project::new(cop, all)?;
                Ok(PhysOut { op: Box::new(op), gk_cols, prof })
            }
            Node::Join { .. } => self.build_join(node, props, requested, needed),
            Node::Aggregate { input, group_by, aggs } => {
                debug_assert!(requested.is_empty(), "nothing groups through an aggregate");
                self.build_aggregate(input, &props.children[0], group_by, aggs, &inputs)
            }
            Node::Sort { input, keys, limit } => {
                let child = self.build(input, &props.children[0], &[], &inputs)?;
                // One sort at every width: TPC-H sorts run over aggregated
                // rows, too few to pay for a fan-out.
                let prof = self.prof_node("Sort(serial)", &[&child.prof], None);
                let cop = wrap_edge(child.op, &child.prof, &prof);
                let op = Sort::new(cop, keys, *limit, self.op_tracker(&prof))?;
                Ok(PhysOut { op: Box::new(op), gk_cols: vec![], prof })
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
                // The requested uses, in requested order.
                let mut names = Vec::with_capacity(requested.len());
                let mut req_uses: Vec<(usize, u32)> = Vec::with_capacity(requested.len());
                for set in requested {
                    let a = set.aliases.iter().find(|a| a.scan_id == scan_id).ok_or_else(|| {
                        ExecError::Plan(format!("requested instance not available on {table}"))
                    })?;
                    names.push(format!("__gk_{}_{}", scan_id, a.use_idx));
                    req_uses.push((a.use_idx, set.bits));
                }
                // Group selection: every restricted use must admit the
                // group's bin prefix.
                let schema = self.ctx.sdb.bdcc.as_ref().expect("bdcc scheme");
                let active: Vec<(usize, &BinRanges, u32)> = (bt.uses.iter().enumerate())
                    .filter_map(|(use_idx, u)| {
                        let ranges = self.restrictions.get(&(scan_id, use_idx))?;
                        let shift =
                            schema.dimension(u.dim).bits() - bt.use_bits_at_granularity(use_idx);
                        Some((use_idx, ranges, shift))
                    })
                    .collect();
                let mut runs: Vec<Run> = Vec::new();
                'groups: for g in bt.count.iter() {
                    for &(use_idx, ranges, shift) in &active {
                        let prefix = bt.group_bin_prefix(use_idx, g.key);
                        // The group's prefix covers the full-granularity
                        // bin interval [prefix<<shift, (prefix+1)<<shift).
                        let lo = prefix << shift;
                        let hi = (prefix << shift) + ((1u64 << shift) - 1);
                        if !ranges_overlap(ranges, lo, hi) {
                            continue 'groups;
                        }
                    }
                    // One key per requested use: its bin prefix at the
                    // requested bits.
                    let keys = (req_uses.iter())
                        .map(|&(u, bits)| {
                            let own = bt.use_bits_at_granularity(u);
                            (bt.group_bin_prefix(u, g.key) >> (own - bits)) as i64
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

    /// Build the leaf scan operator, the same on every scheme and at every
    /// width: a [`Scan`] walking all its runs on the calling thread.
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
        let prof = self.prof_node(format_args!("Scan({table})"), &[], io_child.clone());
        if let Some(p) = &prof {
            annotate_encodings(&p.metrics, &blueprint);
            self.annotate_group_selection(&p.metrics, scan_id, table, &blueprint);
        }
        let runs = 0..blueprint.runs().len();
        let op: BoxedOp = Box::new(Scan::over(blueprint, self.op_env(&prof, io_child), runs));
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

    fn build_join(
        &self,
        node: &Node,
        props: &Props,
        requested: &[InstSet],
        needed: &Needed,
    ) -> Result<PhysOut> {
        let Node::Join { left, right, on, join_type, residual, .. } = node else {
            unreachable!("build_join plans joins")
        };
        let inputs = node.input_needs(needed);
        let positions = |schema: &OpSchema, names: Vec<String>| -> Vec<usize> {
            names.iter().map(|n| schema_index(schema, n).expect("emitted")).collect()
        };
        let [lprops, rprops] = &props.children[..] else { unreachable!("a join has two inputs") };
        let on_refs: Vec<(&str, &str)> = on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();

        // --- BDCC: a sandwich join, or the reason there is none ----------
        let sandwich = (self.ctx.sdb.scheme == Scheme::Bdcc)
            .then(|| sandwich_keys(props, *join_type, requested));
        if let Some(Ok(keys)) = &sandwich {
            let lout = self.build(left, lprops, keys, &inputs)?;
            let rout = self.build(right, rprops, keys, &inputs)?;
            let prof = self.prof_node("Join(sandwich)", &[&lout.prof, &rout.prof], None);
            if let Some(p) = &prof {
                p.metrics.annotate("sandwich", self.describe_keys(keys));
            }
            // Requested = the first `requested.len()` sandwich keys.
            let (emit, gk_names) = emitted(needed, &lout, requested.len());
            let lop = (wrap_edge(lout.op, &lout.prof, &prof), lout.gk_cols);
            let rop = (wrap_edge(rout.op, &rout.prof, &prof), rout.gk_cols);
            // The hash join, indexing one right co-cluster at a time.
            let env = self.op_env(&prof, None);
            let (jt, res) = (*join_type, residual.clone());
            let j = HashJoin::grouped(lop, rop, &on_refs, jt, res, &emit, env)?;
            let gk_cols = positions(j.schema(), gk_names);
            return Ok(PhysOut { op: Box::new(j), gk_cols, prof });
        }

        // --- PK: merge join when both sides are ordered on the key -------
        let leads = |p: &Props, col: &str| p.order().first().is_some_and(|c| c == col);
        if self.ctx.sdb.scheme == Scheme::Pk
            && *join_type == JoinType::Inner
            && on.len() == 1
            && residual.is_none()
            && requested.is_empty()
            && leads(lprops, &on[0].0)
            && leads(rprops, &on[0].1)
        {
            let lout = self.build(left, lprops, &[], &inputs)?;
            let rout = self.build(right, rprops, &[], &inputs)?;
            let prof = self.prof_node("Join(merge)", &[&lout.prof, &rout.prof], None);
            let lop = wrap_edge(lout.op, &lout.prof, &prof);
            let rop = wrap_edge(rout.op, &rout.prof, &prof);
            let j = MergeJoin::new(lop, rop, (&on[0].0, &on[0].1), needed)?;
            return Ok(PhysOut { op: Box::new(j), gk_cols: vec![], prof });
        }

        // --- Fallback: hash join; left-side grouping passes through ------
        let lout = self.build(left, lprops, requested, &inputs)?;
        let rout = self.build(right, rprops, &[], &inputs)?;
        let prof = self.prof_node("Join(hash)", &[&lout.prof, &rout.prof], None);
        if let (Some(Err(why)), Some(p)) = (&sandwich, &prof) {
            p.metrics.annotate("sandwich", format!("no({why})"));
        }
        let (emit, gk_names) = emitted(needed, &lout, requested.len());
        let lop = wrap_edge(lout.op, &lout.prof, &prof);
        let rop = wrap_edge(rout.op, &rout.prof, &prof);
        let env = self.op_env(&prof, None);
        let j = HashJoin::new(lop, rop, &on_refs, *join_type, residual.clone(), &emit, env)?;
        let gk_cols = positions(j.schema(), gk_names);
        Ok(PhysOut { op: Box::new(j), gk_cols, prof })
    }

    /// A sandwich join's decision log: its group keys, each as the
    /// dimension it clusters on and the prefix bits it aligns.
    fn describe_keys(&self, keys: &[InstSet]) -> String {
        let schema = self.ctx.sdb.bdcc.as_ref().expect("sandwiches are planned on BDCC");
        let each = keys.iter().map(|k| {
            let dim = schema.dimension(self.dim_use(k.aliases[0]).dim);
            format!("{}/{}", dim.name, k.bits)
        });
        format!("{} keys ({})", keys.len(), each.collect::<Vec<_>>().join(", "))
    }

    fn build_aggregate(
        &self,
        input: &Node,
        input_props: &Props,
        group_by: &[String],
        aggs: &[crate::ops::agg::AggSpec],
        needed: &Needed,
    ) -> Result<PhysOut> {
        let gb_refs: Vec<&str> = group_by.iter().map(|s| s.as_str()).collect();

        // Strategy precedence: the two *memory-bounded* strategies —
        // sandwich (BDCC, on the instances the group-by keys determine) and
        // streaming (input ordered on the keys, e.g. PK) — hold at most one
        // co-cluster's (or one run's) groups, which neither partials (shared
        // groups once per morsel) nor one table over the whole input can
        // beat. A sandwich one over a leaf still fans out, by co-cluster;
        // a streaming one runs serially over its inline scan.
        let sandwich = (self.ctx.sdb.scheme == Scheme::Bdcc)
            .then(|| self.sandwich_instances(input_props, group_by));
        let requested = match &sandwich {
            Some(Ok(determined)) => determined.as_slice(),
            _ => &[],
        };
        let order = input_props.order();
        let streams = !group_by.is_empty()
            && group_by.len() <= order.len()
            && order[..group_by.len()].iter().all(|c| group_by.contains(c));
        // The decision log: the sandwich's keys, or why there is none.
        let log_sandwich = |prof: &Option<Arc<OpProf>>| {
            if let (Some(decision), Some(p)) = (&sandwich, prof) {
                let log = match decision {
                    Ok(keys) => self.describe_keys(keys),
                    Err(why) => format!("no({why})"),
                };
                p.metrics.annotate("sandwich", log);
            }
        };

        // Parallel: a single-scan fragment (scan → filter/project chain)
        // aggregates morsel-wise — identical results to the serial
        // aggregate it replaces — when `ParallelConfig::split` makes more
        // than one morsel of its scan and the query does not spill:
        // per-morsel results cannot spill, the hash aggregate can. A hash
        // aggregate merges its partials, a sandwich one concatenates its
        // finished co-clusters.
        let cfg = &self.ctx.parallel;
        // (Lowering the fragment selects BDCC groups — skip it when the
        // answer is already no.)
        let fan_out = cfg.threads > 1 && !self.ctx.governor.spills();
        let fragment = match fan_out && (!requested.is_empty() || !streams) {
            true => self.leaf_fragment(input, requested)?,
            false => None,
        };
        if let Some((morsels, (scan_id, table, fragment))) =
            fragment.and_then(|f| Some((cfg.split(&f.2.scan)?, f)))
        {
            // The fragment fuses scan → filter/project into the
            // aggregate's workers, so this node is also a leaf: it gets
            // the scan's I/O attribution and decision log.
            let io_child = self.scan_io();
            let label =
                if requested.is_empty() { "Aggregate(parallel)" } else { "Aggregate(sandwich)" };
            let prof = self.prof_node(label, &[], io_child.clone());
            if let Some(p) = &prof {
                p.metrics.annotate("fragment", table);
                annotate_encodings(&p.metrics, &fragment.scan);
                self.annotate_group_selection(&p.metrics, scan_id, table, &fragment.scan);
            }
            log_sandwich(&prof);
            let (env, aggs, threads) = (self.op_env(&prof, io_child), aggs.to_vec(), cfg.threads);
            let op: BoxedOp = if requested.is_empty() {
                Box::new(ParallelAggregate::new(fragment, morsels, &gb_refs, aggs, threads, env)?)
            } else {
                Box::new(CoClusterAggregate::new(fragment, morsels, &gb_refs, aggs, threads, env)?)
            };
            return Ok(PhysOut { op, gk_cols: vec![], prof });
        }

        // Everything else is the one serial aggregate, flushing when its
        // run columns change: the sandwich's group keys, the streamed
        // group-by keys, or none — one table over the whole input, which,
        // in a query that spills, spills the groups it has no room for (a
        // run-flushing one never spills).
        let child = self.build(input, input_props, requested, needed)?;
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
        let prof = self.prof_node(label, &[&child.prof], None);
        log_sandwich(&prof);
        let cop = wrap_edge(child.op, &child.prof, &prof);
        let env = self.op_env(&prof, None);
        let op = HashAggregate::new(cop, &gb_refs, aggs.to_vec(), env)?.with_runs(runs);
        Ok(PhysOut { op: Box::new(op), gk_cols: vec![], prof })
    }

    /// The classes a BDCC sandwich aggregate would stream its input grouped
    /// on — those the group-by keys determine — or the first check that
    /// failed: no group-by, nothing the input can stream grouped, or
    /// nothing the keys determine.
    fn sandwich_instances(
        &self,
        input: &Props,
        group_by: &[String],
    ) -> std::result::Result<Vec<InstSet>, &'static str> {
        if group_by.is_empty() {
            return Err("global");
        }
        if input.classes.is_empty() {
            return Err("no-instance");
        }
        let determined: Vec<InstSet> =
            input.classes.iter().filter(|s| self.determined_by(s, group_by)).cloned().collect();
        if determined.is_empty() {
            return Err("not-determined");
        }
        Ok(determined)
    }

    /// When `node` is a filter/project chain over a single scan, lower it
    /// into a [`FragmentBlueprint`] workers can replay per morsel, its
    /// scan grouped on `requested` (a sandwich's co-clusters; none for a
    /// hash aggregate), and return it with the scan's id and table.
    /// Returns `None` for any other shape.
    fn leaf_fragment<'n>(
        &self,
        node: &'n Node,
        requested: &[InstSet],
    ) -> Result<Option<(usize, &'n str, FragmentBlueprint)>> {
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
        let blueprint = self.scan_blueprint(scan_id, table, columns, predicates, requested)?;
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
        Ok(Some((scan_id, table, FragmentBlueprint { scan: blueprint, steps })))
    }

    /// Do the group-by keys functionally determine class `set`? True when
    /// some alias `(scan S of table T, use U)` satisfies: the head of
    /// `U`'s path is a foreign key whose source columns are all in the
    /// group-by set (an FK value determines everything it references), or
    /// `U` is local and its dimension key ⊆ group-by.
    fn determined_by(&self, set: &InstSet, group_by: &[String]) -> bool {
        set.aliases.iter().any(|&a| {
            let u = self.dim_use(a);
            let determining_cols = match u.path.first() {
                Some(&fk) => &self.catalog().fk(fk).from_columns,
                None => &self.ctx.sdb.bdcc.as_ref().expect("bdcc").dimension(u.dim).key,
            };
            determining_cols.iter().all(|c| group_by.contains(c))
        })
    }
}

/// What a hash join over `left` emits: the columns read above it, and the
/// first `passed` of the left group-key columns, whose names come back too.
fn emitted(needed: &Needed, left: &PhysOut, passed: usize) -> (Needed, Vec<String>) {
    let schema = left.op.schema();
    let names: Vec<String> =
        left.gk_cols[..passed].iter().map(|&c| schema[c].name.clone()).collect();
    (needed.with(names.iter().cloned()), names)
}

/// The group keys a BDCC sandwich join would align its children on —
/// requested ones first, resolved to the classes the join's foreign key
/// unified, then the other unified classes — or the first check that
/// failed, which the decision log reports on the hash join planned
/// instead. A unified class holds aliases of both sides, so every key
/// does.
fn sandwich_keys(
    join: &Props,
    join_type: JoinType,
    requested: &[InstSet],
) -> std::result::Result<Vec<InstSet>, &'static str> {
    if join_type != JoinType::Inner {
        return Err("join-type");
    }
    let Some(unified) = join.unified else { return Err("no-fk") };
    let shared = &join.classes[..unified];
    if shared.is_empty() {
        return Err("no-shared-instance");
    }
    let mut keys: Vec<InstSet> = Vec::new();
    for r in requested {
        let m = shared.iter().find(|s| r.overlaps(s)).ok_or("requested-not-two-sided")?;
        keys.push(InstSet { aliases: m.aliases.clone(), bits: r.bits.min(m.bits) });
    }
    for s in shared {
        if !keys.iter().any(|k| s.overlaps(k)) {
            keys.push(s.clone());
        }
    }
    Ok(keys)
}
