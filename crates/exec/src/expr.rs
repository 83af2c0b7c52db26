//! Scalar expressions over batches.
//!
//! Expressions are resolved against an operator schema (columns referenced
//! by name, bound to indices at plan time) and evaluate vectorized over a
//! whole [`Batch`]. Booleans are represented as `Int` columns of 0/1, with
//! [`Expr::eval_bool`] as the predicate entry point.

use std::borrow::Cow;

use bdcc_storage::{year_of, Column, DataType, Datum};

use crate::batch::{schema_index, Batch, ColMeta};
use crate::error::{ExecError, Result};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Simplified LIKE patterns (all the 22 TPC-H queries need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikePattern {
    /// `'PROMO%'`
    StartsWith(String),
    /// `'%BRASS'`
    EndsWith(String),
    /// `'%green%'`
    Contains(String),
    /// `'%word1%word2%'` — both present, in order (Q13's
    /// `'%special%requests%'`).
    ContainsSeq(String, String),
}

impl LikePattern {
    /// Compile the pattern once — per conjunct, scan kernel or evaluated
    /// batch, never per row.
    pub(crate) fn matcher(&self) -> LikeMatcher {
        match self {
            LikePattern::StartsWith(p) => LikeMatcher::Prefix(Needle::new(p)),
            LikePattern::EndsWith(p) => LikeMatcher::Suffix(Needle::new(p)),
            LikePattern::Contains(p) => LikeMatcher::Infix(Needle::new(p)),
            LikePattern::ContainsSeq(a, b) => LikeMatcher::Seq(Needle::new(a), Needle::new(b)),
        }
    }
}

/// A [`LikePattern`] compiled once: its literals as bytes, each with a
/// Horspool skip table (Horspool, "Practical fast searching in strings",
/// 1980). Matching on bytes is exact for UTF-8: a valid needle matches a
/// valid haystack only at a character boundary.
#[derive(Debug, Clone)]
pub(crate) enum LikeMatcher {
    Prefix(Needle),
    Suffix(Needle),
    Infix(Needle),
    /// The second literal searched after the first's leftmost occurrence.
    Seq(Needle, Needle),
}

impl LikeMatcher {
    /// Does `s` match the pattern?
    #[inline]
    pub(crate) fn matches(&self, s: &str) -> bool {
        let s = s.as_bytes();
        match self {
            LikeMatcher::Prefix(p) => s.starts_with(&p.bytes),
            LikeMatcher::Suffix(p) => s.ends_with(&p.bytes),
            LikeMatcher::Infix(n) => n.find(s).is_some(),
            LikeMatcher::Seq(a, b) => {
                a.find(s).is_some_and(|i| b.find(&s[i + a.bytes.len()..]).is_some())
            }
        }
    }
}

/// One literal and its Horspool table.
#[derive(Debug, Clone)]
pub(crate) struct Needle {
    bytes: Box<[u8]>,
    /// How far the window moves when its last byte is `b`: from `b`'s last
    /// occurrence before the literal's end to that end, else the literal's
    /// length; capped at 255, which only shortens a shift.
    skip: Box<[u8; 256]>,
}

impl Needle {
    fn new(lit: &str) -> Needle {
        let n = lit.len();
        let mut skip = Box::new([n.min(255) as u8; 256]);
        for (i, &b) in lit.as_bytes().iter().enumerate().take(n.saturating_sub(1)) {
            skip[b as usize] = (n - 1 - i).min(255) as u8;
        }
        Needle { bytes: lit.as_bytes().into(), skip }
    }

    /// Where the leftmost occurrence in `hay` starts.
    #[inline]
    fn find(&self, hay: &[u8]) -> Option<usize> {
        let Some((&last, head)) = self.bytes.split_last() else { return Some(0) };
        let n = self.bytes.len();
        let mut i = 0;
        while i + n <= hay.len() {
            let b = hay[i + n - 1];
            if b == last && hay[i..i + n - 1] == *head {
                return Some(i);
            }
            i += self.skip[b as usize] as usize;
        }
        None
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name (resolved against the input schema at
    /// evaluation time via [`Expr::bind`]).
    Col(String),
    /// Resolved column index (produced by [`Expr::bind`]).
    ColIdx(usize),
    /// Literal value.
    Lit(Datum),
    /// Arithmetic on numeric columns (Int op Int → Int except Div → Float;
    /// anything involving Float → Float).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Comparison producing a 0/1 Int column.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical connectives over 0/1 Int columns.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// String LIKE.
    Like(Box<Expr>, LikePattern),
    NotLike(Box<Expr>, LikePattern),
    /// `expr IN (list)`.
    InList(Box<Expr>, Vec<Datum>),
    /// `EXTRACT(YEAR FROM date_expr)`.
    Year(Box<Expr>),
    /// `SUBSTRING(s, 1, n)` (1-based prefix, all TPC-H needs).
    Prefix(Box<Expr>, usize),
}

#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }
    pub fn lit(d: impl Into<Datum>) -> Expr {
        Expr::Lit(d.into())
    }
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, self, rhs)
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, self, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, self, rhs)
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, self, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, self, rhs)
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, self, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn year(self) -> Expr {
        Expr::Year(Box::new(self))
    }
    pub fn like(self, p: LikePattern) -> Expr {
        Expr::Like(Box::new(self), p)
    }
    pub fn not_like(self, p: LikePattern) -> Expr {
        Expr::NotLike(Box::new(self), p)
    }
    pub fn in_list(self, vals: Vec<Datum>) -> Expr {
        Expr::InList(Box::new(self), vals)
    }
    pub fn prefix(self, n: usize) -> Expr {
        Expr::Prefix(Box::new(self), n)
    }
    pub fn if_else(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    /// Call `f` on every column reference ([`Expr::Col`] or
    /// [`Expr::ColIdx`]) in the tree, left to right.
    pub(crate) fn visit_columns(&self, f: &mut impl FnMut(&Expr)) {
        let _ = self.map_columns(&mut |c| {
            f(c);
            Ok(c.clone())
        });
    }

    /// The tree with every column reference `c` replaced by `f(c)`.
    /// `IN` lists come out sorted (see [`bind`](Self::bind)); a sorted list
    /// stays as it is.
    pub(crate) fn map_columns(&self, f: &mut impl FnMut(&Expr) -> Result<Expr>) -> Result<Expr> {
        let mut m = |e: &Expr| e.map_columns(&mut *f).map(Box::new);
        Ok(match self {
            Expr::Col(_) | Expr::ColIdx(_) => return f(self),
            Expr::Lit(d) => Expr::Lit(d.clone()),
            Expr::Arith(op, a, b) => Expr::Arith(*op, m(a)?, m(b)?),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, m(a)?, m(b)?),
            Expr::And(a, b) => Expr::And(m(a)?, m(b)?),
            Expr::Or(a, b) => Expr::Or(m(a)?, m(b)?),
            Expr::Not(a) => Expr::Not(m(a)?),
            Expr::If(c, t, e) => Expr::If(m(c)?, m(t)?, m(e)?),
            Expr::Like(a, p) => Expr::Like(m(a)?, p.clone()),
            Expr::NotLike(a, p) => Expr::NotLike(m(a)?, p.clone()),
            Expr::InList(a, vals) => {
                // Sorted by comparison class (integer-backed, float,
                // string) and by value within each class, so
                // `eval_in_list`'s typed projections come out pre-sorted
                // and every batch probes by binary search. No dedup:
                // cross-class "equal" literals (`Int(1)` vs `Float(1.0)`)
                // must both survive.
                let mut sorted = vals.clone();
                sorted.sort_by(in_list_order);
                Expr::InList(m(a)?, sorted)
            }
            Expr::Year(a) => Expr::Year(m(a)?),
            Expr::Prefix(a, n) => Expr::Prefix(m(a)?, *n),
        })
    }

    /// Resolve all [`Expr::Col`] references to indices in `schema`; the
    /// literal list of an `IN` is sorted once here.
    pub fn bind(&self, schema: &[ColMeta]) -> Result<Expr> {
        self.map_columns(&mut |c| match c {
            Expr::Col(name) => schema_index(schema, name)
                .map(Expr::ColIdx)
                .ok_or_else(|| ExecError::UnknownColumn(name.clone())),
            _ => Ok(c.clone()),
        })
    }

    /// The output type of this (bound) expression given `schema`.
    pub fn data_type(&self, schema: &[ColMeta]) -> Result<DataType> {
        Ok(match self {
            Expr::Col(name) => {
                let i = schema_index(schema, name)
                    .ok_or_else(|| ExecError::UnknownColumn(name.clone()))?;
                schema[i].data_type
            }
            Expr::ColIdx(i) => schema[*i].data_type,
            Expr::Lit(d) => d.data_type(),
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.data_type(schema)?, b.data_type(schema)?);
                if *op == ArithOp::Div || ta == DataType::Float || tb == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::Like(..)
            | Expr::NotLike(..)
            | Expr::InList(..) => DataType::Int,
            // `eval_if` promotes to `Float` when either branch is float.
            Expr::If(_, t, e) => match (t.data_type(schema)?, e.data_type(schema)?) {
                (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                (tt, _) => tt,
            },
            Expr::Year(_) => DataType::Int,
            Expr::Prefix(..) => DataType::Str,
        })
    }

    /// Evaluate a bound expression over a batch.
    pub fn eval(&self, batch: &Batch) -> Result<Column> {
        let n = batch.rows();
        Ok(match self {
            Expr::Col(name) => return Err(ExecError::Internal(format!("unbound column {name}"))),
            Expr::ColIdx(i) => batch.columns[*i].clone(),
            Expr::Lit(d) => broadcast(d, n),
            Expr::Arith(op, a, b) => {
                let (x, y) = (a.operand(batch)?, b.operand(batch)?);
                eval_arith(*op, &x, &y)?
            }
            Expr::Cmp(op, a, b) => {
                let (x, y) = (a.operand(batch)?, b.operand(batch)?);
                bools_to_column(&eval_cmp(*op, &x, &y)?)
            }
            Expr::And(a, b) => {
                let (x, y) = (a.eval_bool(batch)?, b.eval_bool(batch)?);
                bools_to_column(&x.iter().zip(&y).map(|(&p, &q)| p && q).collect::<Vec<_>>())
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.eval_bool(batch)?, b.eval_bool(batch)?);
                bools_to_column(&x.iter().zip(&y).map(|(&p, &q)| p || q).collect::<Vec<_>>())
            }
            Expr::Not(a) => {
                let x = a.eval_bool(batch)?;
                bools_to_column(&x.iter().map(|&p| !p).collect::<Vec<_>>())
            }
            Expr::If(c, t, e) => {
                let cond = c.eval_bool(batch)?;
                let tv = t.eval(batch)?;
                let ev = e.eval(batch)?;
                eval_if(&cond, &tv, &ev)?
            }
            Expr::Like(a, p) | Expr::NotLike(a, p) => {
                let (col, m) = (a.operand(batch)?, p.matcher());
                let want = matches!(self, Expr::Like(..));
                let Column::Str(values) = col.as_ref() else {
                    return Err(ExecError::Type("LIKE over a non-string column".into()));
                };
                bools_to_column(&values.iter().map(|s| m.matches(s) == want).collect::<Vec<_>>())
            }
            Expr::InList(a, list) => {
                let col = a.eval(batch)?;
                eval_in_list(&col, list)?
            }
            Expr::Year(a) => {
                let col = a.eval(batch)?;
                let days = col.as_i64()?;
                Column::from_i64(days.iter().map(|&d| year_of(d)).collect())
            }
            Expr::Prefix(a, len) => {
                let col = a.eval(batch)?;
                let vals = col.as_str()?;
                let end = |s: &str| s.char_indices().nth(*len).map_or(s.len(), |(i, _)| i);
                Column::Str(vals.iter().map(|s| &s[..end(s)]).collect())
            }
        })
    }

    /// [`eval`](Self::eval) for an operand that is only read: a column
    /// reference is borrowed from the batch instead of copied.
    fn operand<'a>(&self, batch: &'a Batch) -> Result<Cow<'a, Column>> {
        match self {
            Expr::ColIdx(i) => Ok(Cow::Borrowed(&batch.columns[*i])),
            other => other.eval(batch).map(Cow::Owned),
        }
    }

    /// Evaluate as a boolean vector (expression must produce 0/1 ints).
    pub fn eval_bool(&self, batch: &Batch) -> Result<Vec<bool>> {
        let col = self.eval(batch)?;
        Ok(col.as_i64()?.iter().map(|&v| v != 0).collect())
    }
}

fn broadcast(d: &Datum, n: usize) -> Column {
    match d {
        Datum::Int(v) => Column::from_i64(vec![*v; n]),
        Datum::Date(v) => Column::from_dates(vec![*v; n]),
        Datum::Float(v) => Column::from_f64(vec![*v; n]),
        Datum::Str(s) => Column::Str(std::iter::repeat_n(s, n).collect()),
    }
}

fn bools_to_column(b: &[bool]) -> Column {
    Column::from_i64(b.iter().map(|&p| p as i64).collect())
}

fn eval_arith(op: ArithOp, a: &Column, b: &Column) -> Result<Column> {
    // Division and any float operand promote to float.
    let float = op == ArithOp::Div || [a, b].iter().any(|c| c.data_type() == DataType::Float);
    arith(op, float, Arg::Col(a), Arg::Col(b), a.len())
}

/// An arithmetic argument: a column, or a literal kept scalar.
enum Arg<'a> {
    Col(&'a Column),
    Lit(&'a Datum),
}

/// One value per row, or one for every row.
enum Operand<'a, T: Clone> {
    Vals(Cow<'a, [T]>),
    Lit(T),
}

/// `f` over `n` rows of two operands.
fn zip_map<T: Copy, U>(
    x: &Operand<T>,
    y: &Operand<T>,
    n: usize,
    f: impl FnMut(T, T) -> U,
) -> Vec<U> {
    let mut f = f;
    match (x, y) {
        (Operand::Vals(a), Operand::Vals(b)) => {
            a.iter().zip(b.iter()).map(|(&p, &q)| f(p, q)).collect()
        }
        (Operand::Vals(a), Operand::Lit(q)) => a.iter().map(|&p| f(p, *q)).collect(),
        (Operand::Lit(p), Operand::Vals(b)) => b.iter().map(|&q| f(*p, q)).collect(),
        (Operand::Lit(p), Operand::Lit(q)) => (0..n).map(|_| f(*p, *q)).collect(),
    }
}

/// `x op y` over `n` rows, in floats or in integers checked for overflow
/// ([`ExecError::Overflow`], as integer `SUM` is): the typed loops under
/// the interpreter's arithmetic and the compiled programs' alike.
fn arith(op: ArithOp, float: bool, x: Arg, y: Arg, n: usize) -> Result<Column> {
    if float {
        let floats = |a| match a {
            Arg::Col(c) => to_f64(c).map(Operand::Vals),
            Arg::Lit(d) => Ok(Operand::Lit(d.as_float().unwrap_or_default())),
        };
        let (x, y) = (floats(x)?, floats(y)?);
        return Ok(Column::from_f64(match op {
            ArithOp::Add => zip_map(&x, &y, n, |p, q| p + q),
            ArithOp::Sub => zip_map(&x, &y, n, |p, q| p - q),
            ArithOp::Mul => zip_map(&x, &y, n, |p, q| p * q),
            ArithOp::Div => zip_map(&x, &y, n, |p, q| p / q),
        }));
    }
    let ints = |a| match a {
        Arg::Col(c) => Ok::<_, ExecError>(Operand::Vals(Cow::Borrowed(c.as_i64()?))),
        Arg::Lit(d) => Ok(Operand::Lit(d.as_int().unwrap_or_default())),
    };
    let (x, y, mut overflow) = (ints(x)?, ints(y)?, false);
    let mut checked = |(v, o): (i64, bool)| {
        overflow |= o;
        v
    };
    let out = match op {
        ArithOp::Add => zip_map(&x, &y, n, |p, q| checked(p.overflowing_add(q))),
        ArithOp::Sub => zip_map(&x, &y, n, |p, q| checked(p.overflowing_sub(q))),
        ArithOp::Mul => zip_map(&x, &y, n, |p, q| checked(p.overflowing_mul(q))),
        ArithOp::Div => unreachable!("integer division promoted to float"),
    };
    if overflow {
        return Err(ExecError::Overflow(format!("integer {op:?} exceeds the 64-bit range")));
    }
    Ok(Column::from_i64(out))
}

/// Bound expressions compiled once for evaluation over many batches (the
/// aggregate inputs). A bare column is borrowed from the batch; an `Arith`
/// node over numeric operands is one typed loop, its literals kept scalar;
/// a step that occurs twice is evaluated once per batch; anything else is a
/// [`Expr::eval`] step. Compiled steps compute what `Expr::eval` does, bit
/// for bit: the same float operations in the same order, the same checked
/// integer arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct ExprProgram {
    /// Evaluated in order, each into its own column.
    steps: Vec<Step>,
    /// Per expression, where its value is; `None` for one nobody reads.
    outputs: Vec<Option<Src>>,
}

#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Operator, whether in floats, operands.
    Arith(ArithOp, bool, Src, Src),
    Eval(Expr),
}

#[derive(Debug, Clone, PartialEq)]
enum Src {
    Col(usize),
    Step(usize),
    Lit(Datum),
}

impl ExprProgram {
    /// Compile bound expressions over `schema` (`None`: a value nobody
    /// reads, such as `COUNT`'s).
    pub(crate) fn compile(exprs: &[Option<&Expr>], schema: &[ColMeta]) -> Result<ExprProgram> {
        let mut p = ExprProgram { steps: Vec::new(), outputs: Vec::new() };
        for e in exprs {
            let src = match e {
                // A literal's column is the interpreter's broadcast.
                Some(e @ Expr::Lit(_)) => Some(p.push(Step::Eval((*e).clone()))),
                Some(e) => Some(p.operand(e, schema)?),
                None => None,
            };
            p.outputs.push(src);
        }
        Ok(p)
    }

    fn operand(&mut self, e: &Expr, schema: &[ColMeta]) -> Result<Src> {
        let numeric = |e: &Expr| e.data_type(schema).map(|t| t != DataType::Str);
        let step = match e {
            Expr::ColIdx(i) => return Ok(Src::Col(*i)),
            Expr::Lit(d) if d.as_float().is_some() => return Ok(Src::Lit(d.clone())),
            Expr::Arith(op, a, b) if numeric(a)? && numeric(b)? => {
                let float = e.data_type(schema)? == DataType::Float;
                Step::Arith(*op, float, self.operand(a, schema)?, self.operand(b, schema)?)
            }
            _ => Step::Eval(e.clone()),
        };
        Ok(self.push(step))
    }

    /// `step`'s place, the existing one if an equal step was compiled.
    fn push(&mut self, step: Step) -> Src {
        Src::Step(self.steps.iter().position(|s| *s == step).unwrap_or_else(|| {
            self.steps.push(step);
            self.steps.len() - 1
        }))
    }

    /// Evaluate every step over `batch`, in order: the columns
    /// [`values`](Self::values) hands out.
    pub(crate) fn run(&self, batch: &Batch) -> Result<Vec<Column>> {
        let mut cols = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let col = match step {
                Step::Eval(e) => e.eval(batch)?,
                Step::Arith(op, float, a, b) => {
                    let (x, y) = (Self::arg(a, batch, &cols), Self::arg(b, batch, &cols));
                    arith(*op, *float, x, y, batch.rows())?
                }
            };
            cols.push(col);
        }
        Ok(cols)
    }

    /// Every expression's column, given the steps' columns over `batch`.
    pub(crate) fn values<'a>(
        &self,
        batch: &'a Batch,
        steps: &'a [Column],
    ) -> Vec<Option<&'a Column>> {
        self.outputs.iter().map(|s| s.as_ref().map(|s| Self::column(s, batch, steps))).collect()
    }

    fn arg<'a>(s: &'a Src, batch: &'a Batch, steps: &'a [Column]) -> Arg<'a> {
        match s {
            Src::Lit(d) => Arg::Lit(d),
            s => Arg::Col(Self::column(s, batch, steps)),
        }
    }

    fn column<'a>(s: &Src, batch: &'a Batch, steps: &'a [Column]) -> &'a Column {
        match s {
            Src::Col(i) => &batch.columns[*i],
            Src::Step(k) => &steps[*k],
            Src::Lit(_) => unreachable!("a literal operand is kept scalar"),
        }
    }
}

fn to_f64(c: &Column) -> Result<Cow<'_, [f64]>> {
    Ok(match c {
        Column::F64(v) => Cow::Borrowed(v.as_slice()),
        Column::I64 { values, .. } => values.iter().map(|&v| v as f64).collect(),
        Column::Str(_) => {
            return Err(ExecError::Type("cannot use a string column in arithmetic".into()))
        }
    })
}

fn eval_cmp(op: CmpOp, a: &Column, b: &Column) -> Result<Vec<bool>> {
    use std::cmp::Ordering::*;
    let pass = |o: std::cmp::Ordering| match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    };
    match (a, b) {
        (Column::I64 { values: x, .. }, Column::I64 { values: y, .. }) => {
            Ok(x.iter().zip(y).map(|(p, q)| pass(p.cmp(q))).collect())
        }
        (Column::Str(x), Column::Str(y)) => {
            Ok(x.iter().zip(y.iter()).map(|(p, q)| pass(p.cmp(q))).collect())
        }
        _ => {
            let x = to_f64(a)?;
            let y = to_f64(b)?;
            Ok(x.iter().zip(y.iter()).map(|(p, q)| pass(p.total_cmp(q))).collect())
        }
    }
}

fn eval_if(cond: &[bool], t: &Column, e: &Column) -> Result<Column> {
    match (t, e) {
        (Column::I64 { values: x, logical }, Column::I64 { values: y, .. }) => Ok(Column::I64 {
            values: cond.iter().enumerate().map(|(i, &c)| if c { x[i] } else { y[i] }).collect(),
            logical: *logical,
        }),
        (Column::Str(x), Column::Str(y)) => Ok(Column::Str(
            cond.iter().enumerate().map(|(i, &c)| if c { &x[i] } else { &y[i] }).collect(),
        )),
        _ => {
            let x = to_f64(t)?;
            let y = to_f64(e)?;
            Ok(Column::from_f64(
                cond.iter().enumerate().map(|(i, &c)| if c { x[i] } else { y[i] }).collect(),
            ))
        }
    }
}

/// IN-list literal order: comparison class first (integer-backed values
/// interleave whatever their `Int`/`Date` tag, since they project onto one
/// `i64` probe set), value within the class. [`Expr::bind`] sorts by this
/// key so [`eval_in_list`]'s per-class projections are already sorted.
fn in_list_order(a: &Datum, b: &Datum) -> std::cmp::Ordering {
    fn class(d: &Datum) -> u8 {
        match d {
            Datum::Int(_) | Datum::Date(_) => 0,
            Datum::Float(_) => 1,
            Datum::Str(_) => 2,
        }
    }
    class(a).cmp(&class(b)).then_with(|| match (a, b) {
        (Datum::Int(x) | Datum::Date(x), Datum::Int(y) | Datum::Date(y)) => x.cmp(y),
        (Datum::Float(x), Datum::Float(y)) => x.total_cmp(y),
        (Datum::Str(x), Datum::Str(y)) => x.cmp(y),
        _ => unreachable!("same class"),
    })
}

fn eval_in_list(col: &Column, list: &[Datum]) -> Result<Column> {
    // The typed probe sets are sorted already when the expression went
    // through `bind` (the common path); re-sort defensively for directly
    // constructed lists — membership is order-insensitive either way.
    match col {
        Column::I64 { values, .. } => {
            let mut set: Vec<i64> = list.iter().filter_map(|d| d.as_int()).collect();
            if !set.windows(2).all(|w| w[0] <= w[1]) {
                set.sort_unstable();
            }
            Ok(bools_to_column(
                &values.iter().map(|v| set.binary_search(v).is_ok()).collect::<Vec<_>>(),
            ))
        }
        Column::Str(values) => {
            let mut set: Vec<&str> = list.iter().filter_map(|d| d.as_str()).collect();
            if !set.windows(2).all(|w| w[0] <= w[1]) {
                set.sort_unstable();
            }
            Ok(bools_to_column(
                &values.iter().map(|v| set.binary_search(&v).is_ok()).collect::<Vec<_>>(),
            ))
        }
        Column::F64(_) => Err(ExecError::Type("IN over float columns is not supported".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_storage::parse_date;

    fn schema() -> Vec<ColMeta> {
        vec![
            ColMeta::new("a", DataType::Int),
            ColMeta::new("b", DataType::Float),
            ColMeta::new("s", DataType::Str),
            ColMeta::new("d", DataType::Date),
        ]
    }

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_i64(vec![1, 2, 3]),
            Column::from_f64(vec![0.5, 1.5, 2.5]),
            Column::from_strings(vec![
                "PROMO anodized".into(),
                "small BRASS".into(),
                "green".into(),
            ]),
            Column::from_dates(vec![
                parse_date("1994-01-01").unwrap(),
                parse_date("1995-06-15").unwrap(),
                parse_date("1996-12-31").unwrap(),
            ]),
        ])
    }

    fn eval(e: Expr) -> Column {
        e.bind(&schema()).unwrap().eval(&batch()).unwrap()
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(eval(Expr::col("a").add(Expr::lit(10))).as_i64().unwrap(), &[11, 12, 13]);
        let f = eval(Expr::col("a").mul(Expr::col("b")));
        assert_eq!(f.as_f64().unwrap(), &[0.5, 3.0, 7.5]);
        let d = eval(Expr::col("a").div(Expr::lit(2)));
        assert_eq!(d.as_f64().unwrap(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::col("a").ge(Expr::lit(2)).and(Expr::col("b").lt(Expr::lit(2.0)));
        assert_eq!(eval(e).as_i64().unwrap(), &[0, 1, 0]);
        let e = Expr::col("a").eq(Expr::lit(1)).or(Expr::col("a").eq(Expr::lit(3)));
        assert_eq!(eval(e).as_i64().unwrap(), &[1, 0, 1]);
        assert_eq!(eval(Expr::col("a").lt(Expr::lit(3)).not()).as_i64().unwrap(), &[0, 0, 1]);
    }

    #[test]
    fn like_patterns() {
        assert!(LikePattern::StartsWith("PROMO".into()).matcher().matches("PROMO x"));
        assert!(LikePattern::EndsWith("BRASS".into()).matcher().matches("small BRASS"));
        assert!(LikePattern::Contains("green".into()).matcher().matches("dark green metal"));
        let seq = LikePattern::ContainsSeq("special".into(), "requests".into()).matcher();
        assert!(seq.matches("very special and unusual requests here"));
        assert!(!seq.matches("requests that are special")); // order matters
        let e = Expr::col("s").like(LikePattern::StartsWith("PROMO".into()));
        assert_eq!(eval(e).as_i64().unwrap(), &[1, 0, 0]);
    }

    #[test]
    fn year_and_date_cmp() {
        let e = Expr::col("d").year();
        assert_eq!(eval(e).as_i64().unwrap(), &[1994, 1995, 1996]);
        let e = Expr::col("d").ge(Expr::lit(Datum::Date(parse_date("1995-01-01").unwrap())));
        assert_eq!(eval(e).as_i64().unwrap(), &[0, 1, 1]);
    }

    #[test]
    fn case_when() {
        let e = Expr::if_else(Expr::col("a").eq(Expr::lit(2)), Expr::col("b"), Expr::lit(0.0));
        assert_eq!(eval(e).as_f64().unwrap(), &[0.0, 1.5, 0.0]);
    }

    #[test]
    fn in_list_and_prefix() {
        let e = Expr::col("a").in_list(vec![Datum::Int(1), Datum::Int(3)]);
        assert_eq!(eval(e).as_i64().unwrap(), &[1, 0, 1]);
        let e = Expr::col("s").prefix(5);
        assert_eq!(&eval(e).as_str().unwrap()[0], "PROMO");
    }

    /// Every expression's value through a compiled program, bound over
    /// `schema`, as `Debug` text (floats bit for bit, NaN included).
    fn compiled(exprs: &[Expr], schema: &[ColMeta], b: &Batch) -> Result<Vec<String>> {
        let bound: Vec<Expr> = exprs.iter().map(|e| e.bind(schema).unwrap()).collect();
        let inputs: Vec<Option<&Expr>> = bound.iter().map(Some).collect();
        let program = ExprProgram::compile(&inputs, schema)?;
        let steps = program.run(b)?;
        Ok(program.values(b, &steps).iter().map(|c| format!("{:?}", c.unwrap())).collect())
    }

    #[test]
    fn compiled_programs_match_the_interpreter() {
        use Expr as E;
        let disc_price = E::col("b").mul(E::lit(1.0).sub(E::col("b")));
        let exprs = [
            E::col("a"),
            E::col("s"),
            disc_price.clone(),
            disc_price.clone().mul(E::lit(1.0).add(E::col("b"))),
            disc_price,
            E::col("a").mul(E::lit(3)).sub(E::col("a")),
            E::col("a").div(E::lit(2)),
            E::lit(2).sub(E::col("a")).add(E::lit(0.5)),
            E::col("d").add(E::lit(1)),
            E::col("d").sub(E::col("a")).mul(E::col("b")),
            E::lit(7),
            E::lit(1.5).mul(E::lit(2)),
            E::col("d").year().add(E::col("a")),
            E::if_else(E::col("a").gt(E::lit(1)), E::col("b"), E::lit(-0.0)),
        ];
        let want: Vec<String> = (exprs.iter())
            .map(|e| format!("{:?}", e.bind(&schema()).unwrap().eval(&batch()).unwrap()))
            .collect();
        assert_eq!(compiled(&exprs, &schema(), &batch()).unwrap(), want);
        // A string operand errors as the interpreter does.
        let bad = [E::col("s").add(E::lit(1))];
        assert!(compiled(&bad, &schema(), &batch()).is_err());
        assert!(bad[0].bind(&schema()).unwrap().eval(&batch()).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error_on_both_paths() {
        use Expr as E;
        let schema = [ColMeta::new("x", DataType::Int), ColMeta::new("y", DataType::Int)];
        let (max, min) = (i64::MAX, i64::MIN);
        let cases = [
            (max, 1, E::col("x").add(E::lit(1))),
            (max, 1, E::col("x").add(E::col("y"))),
            (min, 1, E::col("x").sub(E::lit(1))),
            (min, 1, E::lit(0).sub(E::col("x"))),
            (min, -1, E::col("x").mul(E::lit(-1))),
            (min, -1, E::col("y").mul(E::col("x"))),
        ];
        for (x, y, e) in cases {
            let b = Batch::new(vec![Column::from_i64(vec![0, x]), Column::from_i64(vec![1, y])]);
            let interpreted = e.bind(&schema).unwrap().eval(&b);
            assert!(matches!(interpreted, Err(ExecError::Overflow(_))), "{e:?}: {interpreted:?}");
            let program = compiled(std::slice::from_ref(&e), &schema, &b);
            assert!(matches!(program, Err(ExecError::Overflow(_))), "{e:?}: {program:?}");
        }
        // One short of the edge both paths compute the same value.
        let b = Batch::new(vec![Column::from_i64(vec![max - 1]), Column::from_i64(vec![min + 1])]);
        let exprs =
            [E::col("x").add(E::lit(1)), E::col("y").sub(E::lit(1)), E::col("y").mul(E::lit(-1))];
        let want: Vec<String> =
            [max, min, max].iter().map(|&v| format!("{:?}", Column::from_i64(vec![v]))).collect();
        assert_eq!(compiled(&exprs, &schema, &b).unwrap(), want);
        for (e, want) in exprs.iter().zip(&want) {
            assert_eq!(&format!("{:?}", e.bind(&schema).unwrap().eval(&b).unwrap()), want);
        }
    }

    #[test]
    fn bind_rejects_unknown_columns() {
        assert!(Expr::col("zzz").bind(&schema()).is_err());
    }

    #[test]
    fn data_type_inference() {
        let s = schema();
        assert_eq!(Expr::col("a").data_type(&s).unwrap(), DataType::Int);
        assert_eq!(Expr::col("a").div(Expr::lit(2)).data_type(&s).unwrap(), DataType::Float);
        assert_eq!(Expr::col("a").eq(Expr::lit(2)).data_type(&s).unwrap(), DataType::Int);
        assert_eq!(Expr::col("s").prefix(2).data_type(&s).unwrap(), DataType::Str);
        // An `If` whose else-branch is float evaluates to a float column.
        let mixed = Expr::if_else(Expr::col("a").eq(Expr::lit(1)), Expr::lit(1), Expr::lit(2.5));
        assert_eq!(mixed.data_type(&s).unwrap(), DataType::Float);
        let b = batch();
        assert_eq!(mixed.bind(&s).unwrap().eval(&b).unwrap().data_type(), DataType::Float);
        let ints = Expr::if_else(Expr::col("a").eq(Expr::lit(1)), Expr::lit(1), Expr::lit(2));
        assert_eq!(ints.data_type(&s).unwrap(), DataType::Int);
    }
}
