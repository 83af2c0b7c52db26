//! Sargable scan predicates.
//!
//! Predicates attached to scan nodes are simple enough to be analyzed for
//! *pushdown*: min/max block skipping (all schemes) and BDCC bin-range
//! restriction (BDCC scheme), and to be evaluated by the scan itself:
//! `enc::compile` turns each into a typed test for its column, which the
//! scan kernel runs block by block and plan-time restriction row by row.
//! [`ColPredicate::to_expr`] is the same predicate for the interpreter,
//! which the tests use as the oracle. Anything not expressible here goes
//! into a plain `Filter` node and is evaluated after the scan.

use bdcc_storage::Datum;

use crate::expr::{CmpOp, Expr, LikePattern};

/// A predicate on a single column of a base table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColPredicate {
    pub column: String,
    pub kind: PredKind,
}

/// The supported sargable forms.
#[derive(Debug, Clone, PartialEq)]
pub enum PredKind {
    /// `col = v`
    Eq(Datum),
    /// `lo ≤/< col ≤/< hi` (either bound optional).
    Range { lo: Option<Datum>, lo_inclusive: bool, hi: Option<Datum>, hi_inclusive: bool },
    /// `col IN (...)`.
    In(Vec<Datum>),
    /// `col LIKE pattern` (block skipping only for `StartsWith`).
    Like(LikePattern),
    /// `col NOT LIKE pattern` (no pushdown).
    NotLike(LikePattern),
    /// `col <> v` (no pushdown).
    Ne(Datum),
}

impl ColPredicate {
    /// `col = v`.
    pub fn eq(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate { column: column.to_string(), kind: PredKind::Eq(v.into()) }
    }

    /// `col >= v` / `col > v`.
    pub fn ge(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: Some(v.into()),
                lo_inclusive: true,
                hi: None,
                hi_inclusive: true,
            },
        }
    }
    pub fn gt(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: Some(v.into()),
                lo_inclusive: false,
                hi: None,
                hi_inclusive: true,
            },
        }
    }

    /// `col <= v` / `col < v`.
    pub fn le(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: None,
                lo_inclusive: true,
                hi: Some(v.into()),
                hi_inclusive: true,
            },
        }
    }
    pub fn lt(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: None,
                lo_inclusive: true,
                hi: Some(v.into()),
                hi_inclusive: false,
            },
        }
    }

    /// `lo <= col < hi` (TPC-H's ubiquitous date window).
    pub fn range(
        column: &str,
        lo: impl Into<Datum>,
        hi_exclusive: impl Into<Datum>,
    ) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: Some(lo.into()),
                lo_inclusive: true,
                hi: Some(hi_exclusive.into()),
                hi_inclusive: false,
            },
        }
    }

    /// `lo <= col <= hi`.
    pub fn between(column: &str, lo: impl Into<Datum>, hi: impl Into<Datum>) -> ColPredicate {
        ColPredicate {
            column: column.to_string(),
            kind: PredKind::Range {
                lo: Some(lo.into()),
                lo_inclusive: true,
                hi: Some(hi.into()),
                hi_inclusive: true,
            },
        }
    }

    /// `col IN (...)`.
    pub fn in_list(column: &str, vals: Vec<Datum>) -> ColPredicate {
        ColPredicate { column: column.to_string(), kind: PredKind::In(vals) }
    }

    /// `col LIKE p`.
    pub fn like(column: &str, p: LikePattern) -> ColPredicate {
        ColPredicate { column: column.to_string(), kind: PredKind::Like(p) }
    }

    /// `col NOT LIKE p`.
    pub fn not_like(column: &str, p: LikePattern) -> ColPredicate {
        ColPredicate { column: column.to_string(), kind: PredKind::NotLike(p) }
    }

    /// `col <> v`.
    pub fn ne(column: &str, v: impl Into<Datum>) -> ColPredicate {
        ColPredicate { column: column.to_string(), kind: PredKind::Ne(v.into()) }
    }

    /// The value range `(lo, hi)` this predicate confines the column to,
    /// for conservative MinMax / bin pruning (bounds treated as inclusive).
    pub fn value_range(&self) -> (Option<Datum>, Option<Datum>) {
        match &self.kind {
            PredKind::Eq(v) => (Some(v.clone()), Some(v.clone())),
            PredKind::Range { lo, hi, .. } => (lo.clone(), hi.clone()),
            PredKind::In(vals) => {
                let lo = vals.iter().cloned().min_by(|a, b| a.total_cmp(b));
                let hi = vals.iter().cloned().max_by(|a, b| a.total_cmp(b));
                (lo, hi)
            }
            PredKind::Like(LikePattern::StartsWith(p)) => {
                // 'abc%' confines the string to ["abc", "abd") — we use the
                // inclusive envelope ["abc", "abc\u{10FFFF}"].
                let lo = Datum::Str(p.clone());
                let hi = Datum::Str(format!("{p}\u{10FFFF}"));
                (Some(lo), Some(hi))
            }
            PredKind::Like(_) | PredKind::NotLike(_) | PredKind::Ne(_) => (None, None),
        }
    }

    /// The exact row-wise filter expression for this predicate.
    pub fn to_expr(&self) -> Expr {
        let col = Expr::col(&self.column);
        match &self.kind {
            PredKind::Eq(v) => col.eq(Expr::Lit(v.clone())),
            PredKind::Range { lo, lo_inclusive, hi, hi_inclusive } => {
                let mut e: Option<Expr> = None;
                if let Some(lo) = lo {
                    let op = if *lo_inclusive { CmpOp::Ge } else { CmpOp::Gt };
                    e = Some(Expr::cmp(op, Expr::col(&self.column), Expr::Lit(lo.clone())));
                }
                if let Some(hi) = hi {
                    let op = if *hi_inclusive { CmpOp::Le } else { CmpOp::Lt };
                    let h = Expr::cmp(op, Expr::col(&self.column), Expr::Lit(hi.clone()));
                    e = Some(match e {
                        Some(prev) => prev.and(h),
                        None => h,
                    });
                }
                e.unwrap_or_else(|| Expr::lit(1))
            }
            PredKind::In(vals) => col.in_list(vals.clone()),
            PredKind::Like(p) => col.like(p.clone()),
            PredKind::NotLike(p) => col.not_like(p.clone()),
            PredKind::Ne(v) => col.ne(Expr::Lit(v.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_storage::{parse_date, Column};

    #[test]
    fn value_ranges() {
        let p = ColPredicate::eq("a", 5i64);
        assert_eq!(p.value_range(), (Some(Datum::Int(5)), Some(Datum::Int(5))));
        let p = ColPredicate::range("d", Datum::Date(10), Datum::Date(20));
        assert_eq!(p.value_range().0, Some(Datum::Date(10)));
        let p = ColPredicate::in_list("a", vec![Datum::Int(9), Datum::Int(2), Datum::Int(5)]);
        assert_eq!(p.value_range(), (Some(Datum::Int(2)), Some(Datum::Int(9))));
        let p = ColPredicate::ne("a", 5i64);
        assert_eq!(p.value_range(), (None, None));
    }

    #[test]
    fn residual_expressions_match_exactly() {
        use crate::batch::{Batch, ColMeta};
        use bdcc_storage::DataType;
        let schema = vec![ColMeta::new("d", DataType::Date)];
        let batch = Batch::new(vec![Column::from_dates(vec![
            parse_date("1994-12-31").unwrap(),
            parse_date("1995-01-01").unwrap(),
            parse_date("1996-01-01").unwrap(),
        ])]);
        // [1995-01-01, 1996-01-01) keeps only the middle row.
        let p = ColPredicate::range(
            "d",
            Datum::Date(parse_date("1995-01-01").unwrap()),
            Datum::Date(parse_date("1996-01-01").unwrap()),
        );
        let keep = p.to_expr().bind(&schema).unwrap().eval_bool(&batch).unwrap();
        assert_eq!(keep, vec![false, true, false]);
    }
}
