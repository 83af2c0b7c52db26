//! Scalar expressions over batches.
//!
//! Expressions are resolved against an operator schema (columns referenced
//! by name, bound to indices at plan time) and evaluate vectorized over a
//! whole [`Batch`]. Booleans are represented as `Int` columns of 0/1, with
//! [`eval_bool`] as the predicate entry point.

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
    /// Does `s` match the pattern?
    pub fn matches(&self, s: &str) -> bool {
        match self {
            LikePattern::StartsWith(p) => s.starts_with(p.as_str()),
            LikePattern::EndsWith(p) => s.ends_with(p.as_str()),
            LikePattern::Contains(p) => s.contains(p.as_str()),
            LikePattern::ContainsSeq(a, b) => match s.find(a.as_str()) {
                Some(i) => s[i + a.len()..].contains(b.as_str()),
                None => false,
            },
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name (resolved against the input schema at
    /// evaluation time via [`bind`]).
    Col(String),
    /// Resolved column index (produced by [`bind`]).
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

    /// Resolve all [`Expr::Col`] references to indices in `schema`.
    pub fn bind(&self, schema: &[ColMeta]) -> Result<Expr> {
        Ok(match self {
            Expr::Col(name) => Expr::ColIdx(
                schema_index(schema, name).ok_or_else(|| ExecError::UnknownColumn(name.clone()))?,
            ),
            Expr::ColIdx(i) => Expr::ColIdx(*i),
            Expr::Lit(d) => Expr::Lit(d.clone()),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Or(a, b) => Expr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(a) => Expr::Not(Box::new(a.bind(schema)?)),
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.bind(schema)?),
                Box::new(t.bind(schema)?),
                Box::new(e.bind(schema)?),
            ),
            Expr::Like(a, p) => Expr::Like(Box::new(a.bind(schema)?), p.clone()),
            Expr::NotLike(a, p) => Expr::NotLike(Box::new(a.bind(schema)?), p.clone()),
            Expr::InList(a, vals) => {
                // Sort the literal list once at bind time, grouped by
                // comparison class (integer-backed, float, string) and by
                // value within each class, so `eval_in_list`'s typed
                // projections come out pre-sorted and every batch probes
                // by binary search. No dedup: cross-class "equal"
                // literals (`Int(1)` vs `Float(1.0)`) must both survive.
                let mut sorted = vals.clone();
                sorted.sort_by(in_list_order);
                Expr::InList(Box::new(a.bind(schema)?), sorted)
            }
            Expr::Year(a) => Expr::Year(Box::new(a.bind(schema)?)),
            Expr::Prefix(a, n) => Expr::Prefix(Box::new(a.bind(schema)?), *n),
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
            Expr::If(_, t, _) => t.data_type(schema)?,
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
            Expr::Like(a, p) => {
                let col = a.eval(batch)?;
                let vals = col.as_str()?;
                bools_to_column(&vals.iter().map(|s| p.matches(s)).collect::<Vec<_>>())
            }
            Expr::NotLike(a, p) => {
                let col = a.eval(batch)?;
                let vals = col.as_str()?;
                bools_to_column(&vals.iter().map(|s| !p.matches(s)).collect::<Vec<_>>())
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
    use ArithOp::*;
    // Division and any float operand promote to float.
    let float = op == Div || a.data_type() == DataType::Float || b.data_type() == DataType::Float;
    if float {
        let x = to_f64(a)?;
        let y = to_f64(b)?;
        let out: Vec<f64> = x
            .iter()
            .zip(y.iter())
            .map(|(&p, &q)| match op {
                Add => p + q,
                Sub => p - q,
                Mul => p * q,
                Div => p / q,
            })
            .collect();
        Ok(Column::from_f64(out))
    } else {
        let x = a.as_i64()?;
        let y = b.as_i64()?;
        let out: Vec<i64> = x
            .iter()
            .zip(y)
            .map(|(&p, &q)| match op {
                Add => p + q,
                Sub => p - q,
                Mul => p * q,
                Div => unreachable!("integer division promoted to float"),
            })
            .collect();
        Ok(Column::from_i64(out))
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
        assert!(LikePattern::StartsWith("PROMO".into()).matches("PROMO x"));
        assert!(LikePattern::EndsWith("BRASS".into()).matches("small BRASS"));
        assert!(LikePattern::Contains("green".into()).matches("dark green metal"));
        let seq = LikePattern::ContainsSeq("special".into(), "requests".into());
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
    }
}
