//! Selection-vector expression kernels for predicate evaluation.
//!
//! The seed interpreter ([`Expr::eval`]) materializes a full intermediate
//! [`Column`] per tree node and a `Vec<bool>` per conjunct, and `And`/`Or`
//! eagerly evaluate both sides over every row. For the scan/filter/join
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
//!   stops early once it is empty. Supported leaf shapes compile to
//!   typed kernels reusing the scalar tests of [`crate::enc`] (the PR 7
//!   encoded-block machinery): `i64`/date compare-to-literal and
//!   between-ranges, `IN` via sorted-slice binary search, string
//!   compares / `IN` / `LIKE` over `&str` without cloning, float
//!   compares with the interpreter's exact `f64::total_cmp` promotion,
//!   and int-column-vs-int-column compares (`l_commitdate <
//!   l_receiptdate`). `Or` unions and `Not` complements sub-program
//!   selections *within* the incoming selection.
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
//! * **Adaptive ordering.** Each conjunct tracks observed rows-in /
//!   rows-out with relaxed atomics (programs are shared across probe
//!   morsel workers). After [`WARMUP_ROWS`] rows the chain is permuted
//!   once, greatest observed drop-rate-per-unit-cost first — commutative
//!   by the pointwise `And` semantics — so a cheap `l_shipdate` range
//!   runs before `LIKE '%green%'` regardless of authoring order. The
//!   permutation never changes results, only evaluation order.
//! * **One path.** Every residual site (`Filter`, the leaf `Scan`'s
//!   residual — compiled once per scan and shared by all of its morsels —
//!   and the `HashJoin` / `SandwichHashJoin` pair residuals) always holds
//!   a compiled program; nothing selects the interpreter instead.
//!   [`Expr::eval_bool`] remains the fallback for
//!   non-sargable conjuncts above, the plan-time evaluator in
//!   `restrict.rs`, and the oracle the tests call directly
//!   (`tests/kernel_equivalence.rs`, the operators' residual tests).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bdcc_obs::OpMetrics;
use bdcc_storage::{Column, DataType, Datum};

use crate::batch::{Batch, ColMeta};
use crate::enc::{compile_int, compile_str, int_test, str_test, IntTest, StrTest};
use crate::error::{ExecError, Result};
use crate::expr::{CmpOp, Expr};
use crate::pred::PredKind;

/// Rows a program observes before permuting its conjunct chain.
pub const WARMUP_ROWS: u64 = 1024;

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
    fn walk(e: &Expr, out: &mut Vec<usize>) {
        match e {
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::ColIdx(i) => out.push(*i),
            Expr::Arith(_, a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Not(a)
            | Expr::Like(a, _)
            | Expr::NotLike(a, _)
            | Expr::InList(a, _)
            | Expr::Year(a)
            | Expr::Prefix(a, _) => walk(a, out),
            Expr::If(c, t, f) => {
                walk(c, out);
                walk(t, out);
                walk(f, out);
            }
        }
    }
    let mut v = Vec::new();
    walk(e, &mut v);
    v.sort_unstable();
    v.dedup();
    v
}

/// Rewrite `ColIdx(i)` to the position of `i` in `cols` (which must
/// contain every referenced index).
fn remap_columns(e: &Expr, cols: &[usize]) -> Expr {
    let map = |i: &usize| cols.binary_search(i).expect("referenced column in map");
    match e {
        Expr::Col(n) => Expr::Col(n.clone()),
        Expr::ColIdx(i) => Expr::ColIdx(map(i)),
        Expr::Lit(d) => Expr::Lit(d.clone()),
        Expr::Arith(op, a, b) => {
            Expr::Arith(*op, Box::new(remap_columns(a, cols)), Box::new(remap_columns(b, cols)))
        }
        Expr::Cmp(op, a, b) => {
            Expr::Cmp(*op, Box::new(remap_columns(a, cols)), Box::new(remap_columns(b, cols)))
        }
        Expr::And(a, b) => {
            Expr::And(Box::new(remap_columns(a, cols)), Box::new(remap_columns(b, cols)))
        }
        Expr::Or(a, b) => {
            Expr::Or(Box::new(remap_columns(a, cols)), Box::new(remap_columns(b, cols)))
        }
        Expr::Not(a) => Expr::Not(Box::new(remap_columns(a, cols))),
        Expr::If(c, t, f) => Expr::If(
            Box::new(remap_columns(c, cols)),
            Box::new(remap_columns(t, cols)),
            Box::new(remap_columns(f, cols)),
        ),
        Expr::Like(a, p) => Expr::Like(Box::new(remap_columns(a, cols)), p.clone()),
        Expr::NotLike(a, p) => Expr::NotLike(Box::new(remap_columns(a, cols)), p.clone()),
        Expr::InList(a, vals) => Expr::InList(Box::new(remap_columns(a, cols)), vals.clone()),
        Expr::Year(a) => Expr::Year(Box::new(remap_columns(a, cols))),
        Expr::Prefix(a, n) => Expr::Prefix(Box::new(remap_columns(a, cols)), *n),
    }
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
    /// Integer-backed column vs compiled scalar test (compare-to-literal,
    /// between-range, `IN` by binary search) — reuses `enc::IntTest`.
    Int { col: usize, test: IntTest },
    /// String column vs compiled test (`&str` compares, no cloning).
    Str { col: usize, test: StrTest },
    /// Float-promoted compare-to-literal with the interpreter's exact
    /// `f64::total_cmp` semantics (covers Float columns and Int-vs-Float
    /// literal promotions).
    Float { col: usize, op: CmpOp, lit: f64 },
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
    /// Static cost weight for the adaptive reorderer.
    cost: f64,
    /// Observed rows entering / surviving this conjunct (relaxed; shared
    /// across probe-morsel workers).
    rows_in: AtomicU64,
    rows_out: AtomicU64,
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

/// Compile a `col <op> literal` leaf; `None` → fall back (including every
/// shape whose interpreter evaluation errors, so the error still
/// surfaces).
fn compile_cmp_leaf(op: CmpOp, col: usize, lit: &Datum, schema: &[ColMeta]) -> Option<ConjKind> {
    let dt = schema.get(col)?.data_type;
    match (dt, lit) {
        (DataType::Int | DataType::Date, Datum::Int(_) | Datum::Date(_)) => {
            compile_int(&pred_kind_of(op, lit)).map(|test| ConjKind::Int { col, test })
        }
        (DataType::Str, Datum::Str(_)) => {
            compile_str(&pred_kind_of(op, lit)).map(|test| ConjKind::Str { col, test })
        }
        // Any numeric pairing involving a float promotes both sides to
        // f64 and compares via `total_cmp` — exactly `expr::eval_cmp`.
        (DataType::Float, Datum::Int(v) | Datum::Date(v)) => {
            Some(ConjKind::Float { col, op, lit: *v as f64 })
        }
        (DataType::Int | DataType::Date | DataType::Float, Datum::Float(f)) => {
            Some(ConjKind::Float { col, op, lit: *f })
        }
        // String/numeric mixes error in the interpreter (`to_f64` over a
        // string column): fall back so the error surfaces.
        _ => None,
    }
}

impl Conjunct {
    fn compile(e: &Expr, schema: &[ColMeta]) -> Conjunct {
        let kind = Self::compile_kind(e, schema);
        let cost = Self::cost_of(&kind);
        Conjunct { kind, cost, rows_in: AtomicU64::new(0), rows_out: AtomicU64::new(0) }
    }

    fn compile_kind(e: &Expr, schema: &[ColMeta]) -> ConjKind {
        let kernel = match e {
            Expr::Lit(d) => d.as_int().map(|v| ConjKind::Const(v != 0)),
            // A bare column as a predicate is `col != 0` in `eval_bool`.
            Expr::ColIdx(i) if schema.get(*i).is_some_and(|m| is_int_backed(m.data_type)) => {
                Some(ConjKind::Int { col: *i, test: IntTest::Ne(0) })
            }
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::ColIdx(i), Expr::Lit(d)) => compile_cmp_leaf(*op, *i, d, schema),
                (Expr::Lit(d), Expr::ColIdx(i)) => compile_cmp_leaf(flip(*op), *i, d, schema),
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
            Expr::InList(a, list) => match a.as_ref() {
                Expr::ColIdx(i) => match schema.get(*i).map(|m| m.data_type) {
                    Some(DataType::Int) | Some(DataType::Date) => {
                        compile_int(&PredKind::In(list.clone()))
                            .map(|test| ConjKind::Int { col: *i, test })
                    }
                    Some(DataType::Str) => compile_str(&PredKind::In(list.clone()))
                        .map(|test| ConjKind::Str { col: *i, test }),
                    // IN over a float column errors in the interpreter.
                    _ => None,
                },
                _ => None,
            },
            Expr::Like(a, p) => match a.as_ref() {
                Expr::ColIdx(i) if schema.get(*i).map(|m| m.data_type) == Some(DataType::Str) => {
                    Some(ConjKind::Str { col: *i, test: StrTest::Like(p.clone()) })
                }
                _ => None,
            },
            Expr::NotLike(a, p) => match a.as_ref() {
                Expr::ColIdx(i) if schema.get(*i).map(|m| m.data_type) == Some(DataType::Str) => {
                    Some(ConjKind::Str { col: *i, test: StrTest::NotLike(p.clone()) })
                }
                _ => None,
            },
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
            ConjKind::Int { test: IntTest::In(_), .. } => 2.0,
            ConjKind::Int { .. } => 1.0,
            ConjKind::IntCols { .. } => 1.2,
            ConjKind::Float { .. } => 1.5,
            ConjKind::Str { test, .. } => match test {
                StrTest::Like(_) | StrTest::NotLike(_) => 8.0,
                StrTest::In(_) => 5.0,
                _ => 4.0,
            },
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
            ConjKind::Int { col, test } => {
                let vals = batch.columns[*col].as_i64()?;
                Ok(shrink(sel, |i| int_test(test, vals[i])))
            }
            ConjKind::Str { col, test } => {
                let vals = batch.columns[*col].as_str()?;
                Ok(shrink(sel, |i| str_test(test, &vals[i])))
            }
            ConjKind::Float { col, op, lit } => {
                let pass = cmp_pass(*op);
                match &batch.columns[*col] {
                    Column::F64(vals) => Ok(shrink(sel, |i| pass(vals[i].total_cmp(lit)))),
                    Column::I64 { values, .. } => {
                        Ok(shrink(sel, |i| pass((values[i] as f64).total_cmp(lit))))
                    }
                    Column::Str(_) => {
                        Err(ExecError::Internal("float kernel over a string column".into()))
                    }
                }
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
/// conjunct kernels with adaptive ordering. See the module docs for the
/// contract. Cheap to build (once per operator), `Sync` (shared across
/// probe-morsel workers).
pub struct FilterProgram {
    conjuncts: Vec<Conjunct>,
    /// Evaluation order (indexes into `conjuncts`); permuted once after
    /// warmup by observed drop-rate-per-cost, descending.
    order: Mutex<Vec<u32>>,
    warmed: AtomicBool,
    rows_seen: AtomicU64,
}

impl FilterProgram {
    /// Compile a *bound* predicate. Never fails: unsupported conjuncts
    /// become interpreter fallbacks.
    pub fn compile(expr: &Expr, schema: &[ColMeta]) -> FilterProgram {
        let mut leaves = Vec::new();
        split_and(expr, &mut leaves);
        let conjuncts: Vec<Conjunct> =
            leaves.iter().map(|e| Conjunct::compile(e, schema)).collect();
        let order = (0..conjuncts.len() as u32).collect();
        FilterProgram {
            conjuncts,
            order: Mutex::new(order),
            warmed: AtomicBool::new(false),
            rows_seen: AtomicU64::new(0),
        }
    }

    /// Surviving rows of `batch` (counts `batch.rows()` toward warmup).
    pub fn select(&self, batch: &Batch) -> Result<SelVec> {
        self.run(batch, SelVec::All(batch.rows()))
    }

    /// [`select`](Self::select) with an explicit row count, for batches
    /// that may have zero columns (a residual referencing none).
    pub fn select_rows(&self, batch: &Batch, rows: usize) -> Result<SelVec> {
        self.run(batch, SelVec::All(rows))
    }

    fn run(&self, batch: &Batch, mut sel: SelVec) -> Result<SelVec> {
        let n0 = sel.len() as u64;
        let order = self.order.lock().expect("order lock").clone();
        for &ci in &order {
            if sel.is_empty() {
                break;
            }
            let c = &self.conjuncts[ci as usize];
            let rows_in = sel.len() as u64;
            sel = c.apply(batch, sel)?;
            c.rows_in.fetch_add(rows_in, Ordering::Relaxed);
            c.rows_out.fetch_add(sel.len() as u64, Ordering::Relaxed);
        }
        self.maybe_reorder(n0);
        Ok(sel)
    }

    /// Permute the chain once after warmup: greatest observed
    /// drop-rate-per-unit-cost first, original order breaking ties (so
    /// the permutation is deterministic for a given workload).
    fn maybe_reorder(&self, rows: u64) {
        if self.conjuncts.len() < 2 {
            return;
        }
        let seen = self.rows_seen.fetch_add(rows, Ordering::Relaxed) + rows;
        if seen < WARMUP_ROWS || self.warmed.swap(true, Ordering::Relaxed) {
            return;
        }
        let rank = |i: u32| -> f64 {
            let c = &self.conjuncts[i as usize];
            let rin = c.rows_in.load(Ordering::Relaxed);
            let sel =
                if rin == 0 { 1.0 } else { c.rows_out.load(Ordering::Relaxed) as f64 / rin as f64 };
            (1.0 - sel) / c.cost
        };
        let mut order: Vec<u32> = (0..self.conjuncts.len() as u32).collect();
        order.sort_by(|&a, &b| {
            rank(b).partial_cmp(&rank(a)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        *self.order.lock().expect("order lock") = order;
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
    /// chosen conjunct order, and per-conjunct observed selectivity (in
    /// authored order). Idempotent (`annotate` replaces).
    pub fn annotate(&self, m: &OpMetrics) {
        let (k, f) = self.leaf_counts();
        m.annotate("kernel", format!("{k}k+{f}f"));
        if self.conjuncts.len() > 1 {
            let order = self.order.lock().expect("order lock").clone();
            m.annotate(
                "kernel_order",
                order.iter().map(u32::to_string).collect::<Vec<_>>().join(","),
            );
        }
        let sels: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| {
                let rin = c.rows_in.load(Ordering::Relaxed);
                if rin == 0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", c.rows_out.load(Ordering::Relaxed) as f64 / rin as f64)
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
    fn adaptive_reorder_moves_selective_conjunct_first() {
        // Expensive-but-unselective LIKE authored before a selective int
        // range: after warmup the order must flip — and results must not
        // change.
        let e = Expr::col("s")
            .like(LikePattern::Contains("e".into()))
            .and(Expr::col("a").gt(Expr::lit(5)))
            .bind(&schema())
            .unwrap();
        let p = FilterProgram::compile(&e, &schema());
        let b = batch();
        let before = p.select(&b).unwrap();
        // Push past warmup.
        for _ in 0..((WARMUP_ROWS as usize / b.rows()) + 1) {
            p.select(&b).unwrap();
        }
        let order = p.order.lock().unwrap().clone();
        assert_eq!(order, vec![1, 0], "selective int conjunct should run first");
        assert_eq!(p.select(&b).unwrap(), before);
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
