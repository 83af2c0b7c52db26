//! Selection-vector expression kernels for predicate evaluation.
//!
//! The seed interpreter ([`Expr::eval`]) materializes a full intermediate
//! [`Column`] per tree node and a `Vec<bool>` per conjunct, and `And`/`Or`
//! eagerly evaluate both sides over every row. For the filter and join
//! hot loops this module compiles a *bound* predicate tree once into a
//! [`FilterProgram`]: a chain of type-specialized conjunct kernels that
//! shrink a [`SelVec`] (a vector of surviving row indexes) in tight
//! branch-predictable loops, so later conjuncts only visit survivors and
//! nothing boolean is ever materialized.
//!
//! # The SelVec / ordering / fallback contract
//!
//! * **Selections, not masks.** A [`SelVec`] is either `All(n)` — every
//!   row of an `n`-row batch survives, represented without allocating —
//!   or `Rows(v)` with `v` strictly increasing. `All` is what makes the
//!   all-rows-pass fast path zero-copy: [`SelVec::take`] returns the
//!   input batch unchanged.
//! * **Conjunct chaining.** A top-level `And` chain becomes a sequence of
//!   conjunct kernels; each shrinks the selection in turn and the chain
//!   stops early once it is empty. A column-vs-literal leaf (compare,
//!   `IN`, `LIKE`) compiles through `enc::compile`, the one column
//!   predicate compiler the scan kernel and plan-time restriction use
//!   too: `i64`/date ranges, `IN` via sorted-slice binary search, float
//!   compares with the interpreter's exact `f64::total_cmp` promotion,
//!   string compares / `IN` over `&str` without cloning, `LIKE` through
//!   the `expr::LikeMatcher` compiled with the conjunct. Int-column-vs-
//!   int-column compares (`l_commitdate < l_receiptdate`) have their own
//!   kernel. `Or` unions and `Not` complements sub-program selections
//!   *within* the incoming selection.
//! * **Fallback.** Any non-sargable conjunct (arithmetic, `CASE`,
//!   `YEAR(..)`, type mismatches that must error) falls back to the
//!   interpreter — evaluated only over the surviving selection by
//!   gathering the conjunct's referenced columns into a mini-batch — so
//!   a program always compiles and results are **byte-identical to the
//!   interpreter by construction** for well-typed predicates. The one
//!   deliberate divergence: once a selection is empty (or an `Or`
//!   already covers it) remaining conjuncts are skipped, so a type
//!   *error* that the eager interpreter would raise in a later conjunct
//!   is not raised here.
//! * **Fixed order.** [`FilterProgram::compile`] orders the chain once,
//!   by a static cost per conjunct kind (a stable sort, so equal costs
//!   keep their authored order): integer leaves first, then float, string
//!   and `LIKE` leaves, interpreter fallbacks last — commutative by the
//!   pointwise `And` semantics, so a cheap `l_shipdate` range runs before
//!   `LIKE '%green%'` from the first batch on, whatever the authored
//!   order. Nothing is re-ordered while the program runs. A type error
//!   that a skipped conjunct would have raised therefore depends on this
//!   fixed order only, never on which batches came before. Each conjunct
//!   counts the rows it sees and keeps, for the `kernel_sel` annotation.
//! * **One path.** Every residual site (`Filter` and the `HashJoin` pair
//!   residual, grouped or not) always holds a compiled program; nothing
//!   selects the interpreter instead. A scan holds no program: its
//!   sargable predicates run in the scan kernel (`enc.rs`).
//!   [`Expr::eval_bool`] remains the fallback for non-sargable conjuncts
//!   above and the oracle the tests call directly
//!   (`tests/kernel_equivalence.rs`, the operators' residual tests).

use std::cell::Cell;

use bdcc_obs::OpMetrics;
use bdcc_storage::{Column, DataType, Datum};

use crate::batch::{Batch, ColMeta};
use crate::enc::{compile, float_key, int_test, str_test, ColTest, IntTest, StrTest};
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::pred::PredKind;

// ---------------------------------------------------------------------------
// Selection vectors.

/// Surviving rows of a batch: the whole batch, or sorted row indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelVec {
    /// Every row of an `n`-row batch survives (no allocation).
    All(usize),
    /// Surviving row indexes, strictly increasing.
    Rows(Vec<u32>),
}

impl SelVec {
    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(n) => *n,
            SelVec::Rows(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does this selection keep every input row without materializing?
    pub fn keeps_all(&self) -> bool {
        matches!(self, SelVec::All(_))
    }

    /// Materialize the surviving rows of `batch`. `All` returns the input
    /// batch unchanged — the zero-copy fast path.
    pub fn take(&self, batch: Batch) -> Batch {
        match self {
            SelVec::All(_) => batch,
            SelVec::Rows(v) => batch.gather_u32(v),
        }
    }

    /// The surviving indexes as a fresh `Vec<u32>` (`All` enumerates).
    pub fn to_rows(&self) -> Vec<u32> {
        match self {
            SelVec::All(n) => (0..*n as u32).collect(),
            SelVec::Rows(v) => v.clone(),
        }
    }
}

/// `keep` as a selection; an all-true mask becomes `All` (zero-copy).
pub fn sel_from_bools(keep: &[bool]) -> SelVec {
    if keep.iter().all(|&k| k) {
        SelVec::All(keep.len())
    } else {
        SelVec::Rows(keep.iter().enumerate().filter_map(|(i, &k)| k.then_some(i as u32)).collect())
    }
}

/// Union of two selections over the same batch (inputs sorted, output
/// sorted).
fn union(a: SelVec, b: SelVec) -> SelVec {
    match (a, b) {
        (SelVec::All(n), _) | (_, SelVec::All(n)) => SelVec::All(n),
        (SelVec::Rows(x), SelVec::Rows(y)) => {
            let mut out = Vec::with_capacity(x.len().max(y.len()));
            let (mut i, mut j) = (0, 0);
            while i < x.len() && j < y.len() {
                match x[i].cmp(&y[j]) {
                    std::cmp::Ordering::Less => {
                        out.push(x[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(y[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(x[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&x[i..]);
            out.extend_from_slice(&y[j..]);
            SelVec::Rows(out)
        }
    }
}

/// Rows of `sel` *not* in `inner` (`inner` ⊆ `sel`, both sorted).
fn complement(sel: SelVec, inner: SelVec) -> SelVec {
    match (sel, inner) {
        (_, SelVec::All(_)) => SelVec::Rows(Vec::new()),
        (SelVec::All(n), SelVec::Rows(r)) => {
            let mut out = Vec::with_capacity(n - r.len());
            let mut j = 0;
            for i in 0..n as u32 {
                if j < r.len() && r[j] == i {
                    j += 1;
                } else {
                    out.push(i);
                }
            }
            SelVec::Rows(out)
        }
        (SelVec::Rows(v), SelVec::Rows(r)) => {
            let mut out = Vec::with_capacity(v.len() - r.len());
            let mut j = 0;
            for &i in &v {
                if j < r.len() && r[j] == i {
                    j += 1;
                } else {
                    out.push(i);
                }
            }
            SelVec::Rows(out)
        }
    }
}

/// Shrink `sel` by a per-row predicate. The `All` arm scans for the first
/// failing row before allocating anything, so an all-pass conjunct stays
/// allocation-free.
fn shrink(sel: SelVec, mut pass: impl FnMut(usize) -> bool) -> SelVec {
    match sel {
        SelVec::All(n) => {
            let mut i = 0;
            while i < n && pass(i) {
                i += 1;
            }
            if i == n {
                return SelVec::All(n);
            }
            let mut rows: Vec<u32> = (0..i as u32).collect();
            for j in i + 1..n {
                if pass(j) {
                    rows.push(j as u32);
                }
            }
            SelVec::Rows(rows)
        }
        SelVec::Rows(mut v) => {
            v.retain(|&i| pass(i as usize));
            SelVec::Rows(v)
        }
    }
}

// ---------------------------------------------------------------------------
// Expression utilities.

/// Column indexes a bound expression references, sorted and deduplicated.
pub fn referenced_columns(e: &Expr) -> Vec<usize> {
    let mut v = Vec::new();
    e.visit_columns(&mut |c| v.extend(if let Expr::ColIdx(i) = c { Some(*i) } else { None }));
    v.sort_unstable();
    v.dedup();
    v
}

/// Rewrite `ColIdx(i)` to the position of `i` in `cols` (which must
/// contain every referenced index).
fn remap_columns(e: &Expr, cols: &[usize]) -> Expr {
    let map = |i: &usize| cols.binary_search(i).expect("referenced column in map");
    let remapped = e.map_columns(&mut |c| match c {
        Expr::ColIdx(i) => Ok(Expr::ColIdx(map(i))),
        _ => Ok(c.clone()),
    });
    remapped.expect("remapping never fails")
}

fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(a, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        _ => out.push(e),
    }
}

fn split_or<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Or(a, b) => {
            split_or(a, out);
            split_or(b, out);
        }
        _ => out.push(e),
    }
}

// ---------------------------------------------------------------------------
// Conjunct kernels.

enum ConjKind {
    /// Constant predicate (a literal conjunct): keep everything or nothing.
    Const(bool),
    /// Column vs literal(s): the `enc::compile` test of a compare, `IN`
    /// or `LIKE` for the column's type.
    Test { col: usize, test: ColTest },
    /// Integer-backed column vs column (`l_commitdate < l_receiptdate`).
    IntCols { a: usize, b: usize, op: CmpOp },
    /// Disjunction: union of sub-program selections over the input
    /// selection.
    Or(Vec<FilterProgram>),
    /// Complement of the sub-program's selection within the input.
    Not(Box<FilterProgram>),
    /// Non-sargable leftover: interpreter over the selection only (its
    /// referenced columns gathered into a mini-batch).
    Fallback { orig: Expr, remapped: Expr, cols: Vec<usize> },
}

struct Conjunct {
    kind: ConjKind,
    /// Static cost weight: the chain runs cheapest first.
    cost: f64,
    /// Observed rows entering / surviving this conjunct.
    rows_in: Cell<u64>,
    rows_out: Cell<u64>,
}

fn cmp_pass(op: CmpOp) -> impl Fn(std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    move |o| match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

fn pred_kind_of(op: CmpOp, d: &Datum) -> PredKind {
    match op {
        CmpOp::Eq => PredKind::Eq(d.clone()),
        CmpOp::Ne => PredKind::Ne(d.clone()),
        CmpOp::Lt => PredKind::Range {
            lo: None,
            lo_inclusive: false,
            hi: Some(d.clone()),
            hi_inclusive: false,
        },
        CmpOp::Le => PredKind::Range {
            lo: None,
            lo_inclusive: false,
            hi: Some(d.clone()),
            hi_inclusive: true,
        },
        CmpOp::Gt => PredKind::Range {
            lo: Some(d.clone()),
            lo_inclusive: false,
            hi: None,
            hi_inclusive: false,
        },
        CmpOp::Ge => PredKind::Range {
            lo: Some(d.clone()),
            lo_inclusive: true,
            hi: None,
            hi_inclusive: false,
        },
    }
}

fn is_int_backed(dt: DataType) -> bool {
    matches!(dt, DataType::Int | DataType::Date)
}

/// Compile a column-vs-literal leaf; `None` → fall back (every shape whose
/// interpreter evaluation errors, so the error still surfaces).
fn compile_leaf(col: &Expr, kind: PredKind, schema: &[ColMeta]) -> Option<ConjKind> {
    let Expr::ColIdx(col) = col else { return None };
    let test = compile(&kind, schema.get(*col)?.data_type)?;
    Some(ConjKind::Test { col: *col, test })
}

impl Conjunct {
    fn compile(e: &Expr, schema: &[ColMeta]) -> Conjunct {
        let kind = Self::compile_kind(e, schema);
        let cost = Self::cost_of(&kind);
        Conjunct { kind, cost, rows_in: Cell::new(0), rows_out: Cell::new(0) }
    }

    fn compile_kind(e: &Expr, schema: &[ColMeta]) -> ConjKind {
        let kernel = match e {
            Expr::Lit(d) => d.as_int().map(|v| ConjKind::Const(v != 0)),
            // A bare column as a predicate is `col != 0` in `eval_bool`.
            Expr::ColIdx(i) if schema.get(*i).is_some_and(|m| is_int_backed(m.data_type)) => {
                compile_leaf(e, PredKind::Ne(Datum::Int(0)), schema)
            }
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (col, Expr::Lit(d)) => compile_leaf(col, pred_kind_of(*op, d), schema),
                (Expr::Lit(d), col) => compile_leaf(col, pred_kind_of(flip(*op), d), schema),
                (Expr::ColIdx(i), Expr::ColIdx(j)) => {
                    let (ti, tj) =
                        (schema.get(*i).map(|m| m.data_type), schema.get(*j).map(|m| m.data_type));
                    match (ti, tj) {
                        (Some(x), Some(y)) if is_int_backed(x) && is_int_backed(y) => {
                            Some(ConjKind::IntCols { a: *i, b: *j, op: *op })
                        }
                        _ => None,
                    }
                }
                _ => None,
            },
            Expr::InList(a, list) => compile_leaf(a, PredKind::In(list.clone()), schema),
            Expr::Like(a, p) => compile_leaf(a, PredKind::Like(p.clone()), schema),
            Expr::NotLike(a, p) => compile_leaf(a, PredKind::NotLike(p.clone()), schema),
            Expr::Not(inner) => {
                Some(ConjKind::Not(Box::new(FilterProgram::compile(inner, schema))))
            }
            Expr::Or(..) => {
                let mut arms = Vec::new();
                split_or(e, &mut arms);
                Some(ConjKind::Or(arms.iter().map(|a| FilterProgram::compile(a, schema)).collect()))
            }
            _ => None,
        };
        kernel.unwrap_or_else(|| {
            let cols = referenced_columns(e);
            let remapped = remap_columns(e, &cols);
            ConjKind::Fallback { orig: e.clone(), remapped, cols }
        })
    }

    fn cost_of(kind: &ConjKind) -> f64 {
        match kind {
            ConjKind::Const(_) => 0.25,
            ConjKind::Test { test, .. } => match test {
                ColTest::Int(IntTest::In(_)) => 2.0,
                ColTest::Int(_) => 1.0,
                ColTest::Float(_) => 1.5,
                ColTest::Str(StrTest::Like(_) | StrTest::NotLike(_)) => 8.0,
                ColTest::Str(StrTest::In(_)) => 5.0,
                ColTest::Str(_) => 4.0,
            },
            ConjKind::IntCols { .. } => 1.2,
            ConjKind::Or(arms) => 1.0 + arms.iter().map(FilterProgram::total_cost).sum::<f64>(),
            ConjKind::Not(p) => 0.5 + p.total_cost(),
            ConjKind::Fallback { .. } => 16.0,
        }
    }

    /// `(kernel leaves, fallback leaves)` under this conjunct.
    fn leaf_counts(&self) -> (usize, usize) {
        match &self.kind {
            ConjKind::Or(arms) => arms.iter().fold((0, 0), |(k, f), p| {
                let (pk, pf) = p.leaf_counts();
                (k + pk, f + pf)
            }),
            ConjKind::Not(p) => p.leaf_counts(),
            ConjKind::Fallback { .. } => (0, 1),
            _ => (1, 0),
        }
    }

    fn apply(&self, batch: &Batch, sel: SelVec) -> Result<SelVec> {
        match &self.kind {
            ConjKind::Const(true) => Ok(sel),
            ConjKind::Const(false) => Ok(SelVec::Rows(Vec::new())),
            ConjKind::Test { col, test } => {
                let col = &batch.columns[*col];
                Ok(match test {
                    ColTest::Int(t) => {
                        let vals = col.as_i64()?;
                        shrink(sel, |i| int_test(t, vals[i]))
                    }
                    ColTest::Float(t) => {
                        let vals = col.as_f64()?;
                        shrink(sel, |i| int_test(t, float_key(vals[i])))
                    }
                    ColTest::Str(t) => {
                        let vals = col.as_str()?;
                        shrink(sel, |i| str_test(t, &vals[i]))
                    }
                })
            }
            ConjKind::IntCols { a, b, op } => {
                let x = batch.columns[*a].as_i64()?;
                let y = batch.columns[*b].as_i64()?;
                let pass = cmp_pass(*op);
                Ok(shrink(sel, |i| pass(x[i].cmp(&y[i]))))
            }
            ConjKind::Or(arms) => {
                let mut acc: Option<SelVec> = None;
                for p in arms {
                    let covered = acc.as_ref().is_some_and(|a| a.len() == sel.len());
                    if covered {
                        break; // the union already covers the input
                    }
                    let r = p.run(batch, sel.clone())?;
                    acc = Some(match acc {
                        None => r,
                        Some(a) => union(a, r),
                    });
                }
                Ok(acc.unwrap_or_else(|| SelVec::Rows(Vec::new())))
            }
            ConjKind::Not(p) => {
                let inner = p.run(batch, sel.clone())?;
                Ok(complement(sel, inner))
            }
            ConjKind::Fallback { orig, remapped, cols } => match sel {
                // Over the whole batch the interpreter references the
                // batch columns directly — no gather needed.
                SelVec::All(_) => Ok(sel_from_bools(&orig.eval_bool(batch)?)),
                SelVec::Rows(mut v) => {
                    if v.is_empty() {
                        return Ok(SelVec::Rows(v));
                    }
                    if cols.is_empty() {
                        // Constant-valued (but non-literal) conjunct:
                        // evaluate over the batch once and intersect.
                        let keep = orig.eval_bool(batch)?;
                        v.retain(|&i| keep[i as usize]);
                        return Ok(SelVec::Rows(v));
                    }
                    let mini =
                        Batch::new(cols.iter().map(|&c| batch.columns[c].gather_u32(&v)).collect());
                    let keep = remapped.eval_bool(&mini)?;
                    let rows = v.iter().zip(&keep).filter_map(|(&i, &k)| k.then_some(i)).collect();
                    Ok(SelVec::Rows(rows))
                }
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled program.

/// A bound predicate compiled into a chain of selection-shrinking
/// conjunct kernels in a fixed order. See the module docs for the
/// contract. Cheap to build (once per operator).
pub struct FilterProgram {
    /// Conjuncts in authored order.
    conjuncts: Vec<Conjunct>,
    /// Evaluation order (indexes into `conjuncts`), cheapest first.
    order: Vec<u32>,
}

impl FilterProgram {
    /// Compile a *bound* predicate. Never fails: unsupported conjuncts
    /// become interpreter fallbacks.
    pub fn compile(expr: &Expr, schema: &[ColMeta]) -> FilterProgram {
        let mut leaves = Vec::new();
        split_and(expr, &mut leaves);
        let conjuncts: Vec<Conjunct> =
            leaves.iter().map(|e| Conjunct::compile(e, schema)).collect();
        let mut order: Vec<u32> = (0..conjuncts.len() as u32).collect();
        order.sort_by(|&a, &b| conjuncts[a as usize].cost.total_cmp(&conjuncts[b as usize].cost));
        FilterProgram { conjuncts, order }
    }

    /// Surviving rows of `batch`.
    pub fn select(&self, batch: &Batch) -> Result<SelVec> {
        self.run(batch, SelVec::All(batch.rows()))
    }

    /// [`select`](Self::select) with an explicit row count, for batches
    /// that may have zero columns (a residual referencing none).
    pub fn select_rows(&self, batch: &Batch, rows: usize) -> Result<SelVec> {
        self.run(batch, SelVec::All(rows))
    }

    fn run(&self, batch: &Batch, mut sel: SelVec) -> Result<SelVec> {
        for &ci in &self.order {
            if sel.is_empty() {
                break;
            }
            let c = &self.conjuncts[ci as usize];
            let rows_in = sel.len() as u64;
            sel = c.apply(batch, sel)?;
            c.rows_in.set(c.rows_in.get() + rows_in);
            c.rows_out.set(c.rows_out.get() + sel.len() as u64);
        }
        Ok(sel)
    }

    fn total_cost(&self) -> f64 {
        self.conjuncts.iter().map(|c| c.cost).sum()
    }

    /// `(kernel leaves, fallback leaves)` across the whole program.
    pub fn leaf_counts(&self) -> (usize, usize) {
        self.conjuncts.iter().fold((0, 0), |(k, f), c| {
            let (ck, cf) = c.leaf_counts();
            (k + ck, f + cf)
        })
    }

    /// EXPLAIN ANALYZE annotations: kernel-vs-fallback leaf counts, the
    /// compiled conjunct order, and per-conjunct observed selectivity (in
    /// authored order). Idempotent (`annotate` replaces).
    pub fn annotate(&self, m: &OpMetrics) {
        let (k, f) = self.leaf_counts();
        m.annotate("kernel", format!("{k}k+{f}f"));
        if self.conjuncts.len() > 1 {
            m.annotate(
                "kernel_order",
                self.order.iter().map(u32::to_string).collect::<Vec<_>>().join(","),
            );
        }
        let sels: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| {
                let rin = c.rows_in.get();
                if rin == 0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", c.rows_out.get() as f64 / rin as f64)
                }
            })
            .collect();
        m.annotate("kernel_sel", sels.join(","));
    }
}

// ---------------------------------------------------------------------------
// Join-residual programs: evaluate on the pair selection *before*
// gathering output columns.

/// A residual filter over join match pairs. Only the residual's
/// *referenced* columns are gathered (for candidate pairs), the program
/// shrinks the pair selection, and only surviving pairs ever gather the
/// full output — late materialization extended to joins.
pub struct PairFilter {
    /// Referenced pair-schema column indexes, sorted.
    cols: Vec<usize>,
    program: FilterProgram,
}

impl PairFilter {
    /// `expr` must be bound against the pair schema.
    pub fn new(expr: &Expr, schema: &[ColMeta]) -> PairFilter {
        let cols = referenced_columns(expr);
        let remapped = remap_columns(expr, &cols);
        let mini_schema: Vec<ColMeta> = cols.iter().map(|&c| schema[c].clone()).collect();
        PairFilter { program: FilterProgram::compile(&remapped, &mini_schema), cols }
    }

    /// Surviving pairs out of `pairs` candidates; `gather(c)` materializes
    /// pair-schema column `c` for all candidates (called only for the
    /// residual's referenced columns).
    pub fn select_pairs(
        &self,
        pairs: usize,
        mut gather: impl FnMut(usize) -> Result<Column>,
    ) -> Result<SelVec> {
        if pairs == 0 {
            return Ok(SelVec::All(0));
        }
        let cols = self.cols.iter().map(|&c| gather(c)).collect::<Result<Vec<_>>>()?;
        self.program.select_rows(&Batch::new(cols), pairs)
    }

    /// See [`FilterProgram::annotate`].
    pub fn annotate(&self, m: &OpMetrics) {
        self.program.annotate(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LikePattern;
    use bdcc_storage::parse_date;

    fn schema() -> Vec<ColMeta> {
        vec![
            ColMeta::new("a", DataType::Int),
            ColMeta::new("f", DataType::Float),
            ColMeta::new("s", DataType::Str),
            ColMeta::new("d", DataType::Date),
            ColMeta::new("b", DataType::Int),
        ]
    }

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_i64(vec![1, 2, 3, 4, 5, 6]),
            Column::from_f64(vec![0.5, 1.5, f64::NAN, -0.0, 2.5, 100.0]),
            Column::from_strings(vec![
                "PROMO anodized".into(),
                "small BRASS".into(),
                "green".into(),
                "".into(),
                "dark green".into(),
                "PROMO green".into(),
            ]),
            Column::from_dates(vec![
                parse_date("1994-01-01").unwrap(),
                parse_date("1994-06-15").unwrap(),
                parse_date("1995-01-01").unwrap(),
                parse_date("1995-06-15").unwrap(),
                parse_date("1996-01-01").unwrap(),
                parse_date("1996-06-15").unwrap(),
            ]),
            Column::from_i64(vec![0, 1, 0, 1, 0, 1]),
        ])
    }

    fn check(e: Expr) {
        let bound = e.bind(&schema()).unwrap();
        let b = batch();
        let keep = bound.eval_bool(&b).unwrap();
        let program = FilterProgram::compile(&bound, &schema());
        let sel = program.select(&b).unwrap();
        assert_eq!(sel, sel_from_bools(&keep), "kernel != interpreter for {bound:?}");
        // The selected batch must equal the mask-filtered batch
        // (bit-compare via Debug: NaN == NaN must hold here).
        assert_eq!(format!("{:?}", sel.take(b.clone())), format!("{:?}", b.filter(&keep)));
    }

    #[test]
    fn kernels_match_interpreter() {
        use Expr as E;
        check(E::col("a").ge(E::lit(3)));
        check(E::lit(3).ge(E::col("a"))); // mirrored literal
        check(E::col("a").ge(E::lit(2)).and(E::col("a").lt(E::lit(5))));
        check(E::col("d").ge(E::lit(Datum::Date(parse_date("1995-01-01").unwrap()))));
        check(E::col("f").gt(E::lit(1.0)));
        check(E::col("f").le(E::lit(1.0))); // NaN: total_cmp order
        check(E::col("a").lt(E::lit(2.5))); // int col vs float literal
        check(E::col("s").eq(E::lit("green")));
        check(E::col("s").like(LikePattern::Contains("green".into())));
        check(E::col("s").not_like(LikePattern::StartsWith("PROMO".into())));
        check(E::col("a").in_list(vec![Datum::Int(1), Datum::Int(5), Datum::Int(9)]));
        check(E::col("s").in_list(vec![Datum::Str("green".into()), Datum::Str("x".into())]));
        check(E::col("a").lt(E::col("b"))); // col vs col
        check(E::col("b")); // bare 0/1 column
        check(E::lit(1).and(E::col("a").gt(E::lit(2))));
        check(E::lit(0).or(E::col("a").gt(E::lit(2))));
        check(E::col("a").le(E::lit(2)).or(E::col("s").eq(E::lit("green"))));
        check(E::col("a").gt(E::lit(3)).not());
        check(
            E::col("a")
                .gt(E::lit(1))
                .and(E::col("s").like(LikePattern::Contains("green".into())))
                .and(E::col("f").lt(E::lit(50.0))),
        );
        // Non-sargable fallbacks.
        check(E::col("a").add(E::lit(1)).gt(E::lit(4)));
        check(E::col("d").year().eq(E::lit(1995)));
        check(E::col("a").gt(E::lit(2)).and(E::col("a").mul(E::lit(2)).le(E::lit(10))));
    }

    #[test]
    fn empty_batch_and_degenerate_selections() {
        let empty = Batch::new(vec![
            Column::from_i64(vec![]),
            Column::from_f64(vec![]),
            Column::from_strings(vec![]),
            Column::from_dates(vec![]),
            Column::from_i64(vec![]),
        ]);
        let e = Expr::col("a").gt(Expr::lit(0)).bind(&schema()).unwrap();
        let p = FilterProgram::compile(&e, &schema());
        assert_eq!(p.select(&empty).unwrap(), SelVec::All(0));
        // All-false first conjunct short-circuits the chain.
        let e = Expr::lit(0).and(Expr::col("a").gt(Expr::lit(0))).bind(&schema()).unwrap();
        let p = FilterProgram::compile(&e, &schema());
        assert_eq!(p.select(&batch()).unwrap(), SelVec::Rows(vec![]));
    }

    #[test]
    fn all_pass_stays_zero_copy() {
        let e = Expr::col("a").ge(Expr::lit(0)).bind(&schema()).unwrap();
        let p = FilterProgram::compile(&e, &schema());
        let sel = p.select(&batch()).unwrap();
        assert!(sel.keeps_all());
    }

    #[test]
    fn cheap_int_leaf_runs_first_from_the_first_batch() {
        // An expensive LIKE authored before a cheap int range: the
        // compiled order runs the int leaf first from the first batch on,
        // with no warm-up, and the LIKE sees only its survivors.
        let e = Expr::col("s")
            .like(LikePattern::Contains("e".into()))
            .and(Expr::col("a").gt(Expr::lit(5)))
            .bind(&schema())
            .unwrap();
        let p = FilterProgram::compile(&e, &schema());
        assert_eq!(p.order, vec![1, 0], "the int conjunct must run first");
        let b = batch();
        assert_eq!(p.select(&b).unwrap(), sel_from_bools(&e.eval_bool(&b).unwrap()));
        let rows = |c: &Conjunct| (c.rows_in.get(), c.rows_out.get());
        assert_eq!(rows(&p.conjuncts[1]), (6, 1));
        assert_eq!(rows(&p.conjuncts[0]), (1, 1));
    }

    #[test]
    fn union_and_complement_algebra() {
        let u = union(SelVec::Rows(vec![0, 2, 4]), SelVec::Rows(vec![1, 2, 5]));
        assert_eq!(u, SelVec::Rows(vec![0, 1, 2, 4, 5]));
        assert_eq!(union(SelVec::All(6), SelVec::Rows(vec![1])), SelVec::All(6));
        let c = complement(SelVec::All(5), SelVec::Rows(vec![1, 3]));
        assert_eq!(c, SelVec::Rows(vec![0, 2, 4]));
        let c = complement(SelVec::Rows(vec![1, 3, 4]), SelVec::Rows(vec![3]));
        assert_eq!(c, SelVec::Rows(vec![1, 4]));
        assert_eq!(complement(SelVec::All(4), SelVec::All(4)), SelVec::Rows(vec![]));
    }

    #[test]
    fn pair_filter_gathers_only_referenced_columns() {
        let e = Expr::col("a").gt(Expr::lit(2)).bind(&schema()).unwrap();
        let pf = PairFilter::new(&e, &schema());
        let mut gathered = Vec::new();
        let sel = pf
            .select_pairs(6, |c| {
                gathered.push(c);
                Ok(batch().columns[c].clone())
            })
            .unwrap();
        assert_eq!(gathered, vec![0], "only column 0 is referenced");
        assert_eq!(sel, SelVec::Rows(vec![2, 3, 4, 5]));
    }
}
