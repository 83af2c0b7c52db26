//! The 22 TPC-H queries as logical plans.
//!
//! Each query is a function from a [`QueryCtx`] to a result batch. Most
//! queries are a single plan; the four with scalar subqueries (Q11, Q15,
//! Q17 via a correlated average folded into the plan, Q22) run a small
//! first phase and inject the scalar as a literal — the standard
//! decorrelation an optimizer would perform. Validation parameters follow
//! the TPC-H specification's reference query set.

use std::sync::Mutex;

use bdcc_exec::run::run_plan;
use bdcc_exec::{Batch, Expr, Node, QueryContext, Result};
use bdcc_storage::{parse_date, Datum};

mod q01;
mod q02;
mod q03;
mod q04;
mod q05;
mod q06;
mod q07;
mod q08;
mod q09;
mod q10;
mod q11;
mod q12;
mod q13;
mod q14;
mod q15;
mod q16;
mod q17;
mod q18;
mod q19;
mod q20;
mod q21;
mod q22;

/// Execution context handed to each query.
pub struct QueryCtx {
    pub qc: QueryContext,
    /// Scale factor (Q11's HAVING fraction is `0.0001 / SF`).
    pub sf: f64,
    /// Every plan handed to [`run`](Self::run), when recording.
    plans: Option<Mutex<Vec<Node>>>,
}

impl QueryCtx {
    pub fn new(qc: QueryContext, sf: f64) -> QueryCtx {
        QueryCtx { qc, sf, plans: None }
    }

    /// A context that also keeps every logical plan its queries execute
    /// (two-phase queries hand over more than one), so a test can check
    /// what the planner derives from the real query set against a
    /// reference.
    pub fn recording(qc: QueryContext, sf: f64) -> QueryCtx {
        QueryCtx { qc, sf, plans: Some(Mutex::new(Vec::new())) }
    }

    /// The plans recorded so far, in execution order.
    pub fn take_plans(&self) -> Vec<Node> {
        match &self.plans {
            Some(plans) => std::mem::take(&mut plans.lock().expect("no query panicked mid-run")),
            None => Vec::new(),
        }
    }

    /// Execute one plan to completion.
    pub fn run(&self, plan: &Node) -> Result<Batch> {
        if let Some(plans) = &self.plans {
            plans.lock().expect("no query panicked mid-run").push(plan.clone());
        }
        run_plan(&self.qc, plan)
    }

    /// Execute a plan expected to yield a single scalar (row 0, col 0).
    pub fn scalar_f64(&self, plan: &Node) -> Result<f64> {
        let b = self.run(plan)?;
        if b.rows() == 0 {
            return Ok(0.0);
        }
        Ok(b.columns[0].datum(0).as_float().unwrap_or(0.0))
    }
}

/// One registered query.
pub struct Query {
    pub id: usize,
    pub name: &'static str,
    pub run: fn(&QueryCtx) -> Result<Batch>,
}

/// All 22 queries in order.
pub fn all_queries() -> Vec<Query> {
    vec![
        Query { id: 1, name: "Q01 pricing summary", run: q01::run },
        Query { id: 2, name: "Q02 minimum cost supplier", run: q02::run },
        Query { id: 3, name: "Q03 shipping priority", run: q03::run },
        Query { id: 4, name: "Q04 order priority checking", run: q04::run },
        Query { id: 5, name: "Q05 local supplier volume", run: q05::run },
        Query { id: 6, name: "Q06 forecasting revenue change", run: q06::run },
        Query { id: 7, name: "Q07 volume shipping", run: q07::run },
        Query { id: 8, name: "Q08 national market share", run: q08::run },
        Query { id: 9, name: "Q09 product type profit", run: q09::run },
        Query { id: 10, name: "Q10 returned item reporting", run: q10::run },
        Query { id: 11, name: "Q11 important stock identification", run: q11::run },
        Query { id: 12, name: "Q12 shipping modes and order priority", run: q12::run },
        Query { id: 13, name: "Q13 customer distribution", run: q13::run },
        Query { id: 14, name: "Q14 promotion effect", run: q14::run },
        Query { id: 15, name: "Q15 top supplier", run: q15::run },
        Query { id: 16, name: "Q16 parts/supplier relationship", run: q16::run },
        Query { id: 17, name: "Q17 small-quantity-order revenue", run: q17::run },
        Query { id: 18, name: "Q18 large volume customer", run: q18::run },
        Query { id: 19, name: "Q19 discounted revenue", run: q19::run },
        Query { id: 20, name: "Q20 potential part promotion", run: q20::run },
        Query { id: 21, name: "Q21 suppliers who kept orders waiting", run: q21::run },
        Query { id: 22, name: "Q22 global sales opportunity", run: q22::run },
    ]
}

// --- shared helpers --------------------------------------------------------

/// Date literal. The query definitions feed this compile-time-constant
/// strings, so a parse failure here is a programming error in a query —
/// the typed [`bdcc_storage::StorageError::InvalidDate`] from `parse_date`
/// surfaces in the panic message rather than a bare `expect`.
pub(crate) fn date(s: &str) -> Datum {
    Datum::Date(parse_date(s).unwrap_or_else(|e| panic!("bad query date literal: {e}")))
}

/// `l_extendedprice * (1 - l_discount)` — the ubiquitous revenue term.
pub(crate) fn revenue_expr() -> Expr {
    Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")))
}
