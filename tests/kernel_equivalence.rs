//! Kernel-vs-interpreter equivalence for the selection-vector expression
//! engine (`bdcc_exec::kernel`).
//!
//! The compiled filter pipelines — fused typed conjunct kernels, adaptive
//! conjunct reordering, the interpreter fallback over gathered survivors —
//! may only change *how* a predicate is evaluated, never which rows pass:
//!
//! 1. A randomized oracle drives well-typed predicate trees (comparisons,
//!    BETWEEN, IN, LIKE, column-column, non-sargable arithmetic, And/Or/
//!    Not nesting) over batches with the nasty inputs (NaN, ±∞, -0.0,
//!    empty strings, empty and single-row batches) and asserts the
//!    compiled program's selection is **bit-identical** to
//!    `Expr::eval_bool`, including the filtered batch payloads.
//! 2. One compiled program streamed across enough batches to trip the
//!    adaptive reorder warmup must stay exact after permuting its order.
//! 3. `EXPLAIN ANALYZE` must annotate compiled filters with the leaf
//!    mix, per-conjunct selectivities and the chosen order.
//!
//! There is no interpreter-everywhere mode to compare whole queries
//! against: the operators' own tests check each residual site against a
//! hand-applied `Expr::eval_bool`, and the 22-query suites compare the
//! engine across schemes, thread counts and encodings.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::kernel::sel_from_bools;
use bdcc_exec::{
    explain_analyze, filter, Batch, ColMeta, Datum, Expr, FilterProgram, LikePattern, PlanBuilder,
    ProfileNode, QueryContext,
};
use bdcc_storage::{Column, DataType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn oracle_schema() -> Vec<ColMeta> {
    vec![
        ColMeta::new("a", DataType::Int),
        ColMeta::new("f", DataType::Float),
        ColMeta::new("s", DataType::Str),
        ColMeta::new("d", DataType::Date),
        ColMeta::new("b", DataType::Int),
    ]
}

const STRINGS: [&str; 6] =
    ["", "PROMO anodized", "small BRASS", "MEDIUM POLISHED", "promo#2", "zinc"];

fn random_batch(rng: &mut StdRng, rows: usize) -> Batch {
    let f: Vec<f64> = (0..rows)
        .map(|_| match rng.random_range(0u32..16) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => rng.random_range(-400i64..400) as f64 / 8.0,
        })
        .collect();
    Batch::new(vec![
        Column::from_i64((0..rows).map(|_| rng.random_range(-20i64..20)).collect()),
        Column::from_f64(f),
        Column::from_strings(
            (0..rows).map(|_| STRINGS[rng.random_range(0..STRINGS.len())].to_string()).collect(),
        ),
        Column::from_dates((0..rows).map(|_| rng.random_range(8000i64..8200)).collect()),
        Column::from_i64((0..rows).map(|_| rng.random_range(-20i64..20)).collect()),
    ])
}

fn random_cmp(rng: &mut StdRng, a: Expr, b: Expr) -> Expr {
    match rng.random_range(0u32..6) {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    }
}

fn random_leaf(rng: &mut StdRng) -> Expr {
    match rng.random_range(0u32..10) {
        0 => {
            let lit = Expr::lit(rng.random_range(-25i64..25));
            random_cmp(rng, Expr::col("a"), lit)
        }
        1 => {
            let lit = Expr::Lit(Datum::Date(rng.random_range(7990i64..8210)));
            random_cmp(rng, Expr::col("d"), lit)
        }
        2 => {
            let lit = Expr::lit(rng.random_range(-200i64..200) as f64 / 4.0);
            random_cmp(rng, Expr::col("f"), lit)
        }
        3 => {
            let lo = rng.random_range(-20i64..10);
            let hi = lo + rng.random_range(0i64..15);
            Expr::col("a").ge(Expr::lit(lo)).and(Expr::col("a").le(Expr::lit(hi)))
        }
        4 => Expr::col("a").in_list(
            (0..rng.random_range(1usize..6))
                .map(|_| Datum::Int(rng.random_range(-25i64..25)))
                .collect(),
        ),
        // Mixed-type IN list: the non-string literal is simply never a
        // member for a string column, not an error.
        5 => Expr::col("s").in_list(vec![
            Datum::Str(STRINGS[rng.random_range(0..STRINGS.len())].into()),
            Datum::Str("zinc".into()),
            Datum::Int(3),
        ]),
        6 => {
            let p = match rng.random_range(0u32..4) {
                0 => LikePattern::StartsWith("PROMO".into()),
                1 => LikePattern::EndsWith("ed".into()),
                2 => LikePattern::Contains("o".into()),
                _ => LikePattern::ContainsSeq("o".into(), "ed".into()),
            };
            if rng.random_bool(0.5) {
                Expr::col("s").like(p)
            } else {
                Expr::col("s").not_like(p)
            }
        }
        7 => random_cmp(rng, Expr::col("a"), Expr::col("b")),
        // Non-sargable arithmetic: compiles to the interpreter fallback
        // conjunct, evaluated over gathered survivors only.
        8 => {
            let shifted = Expr::col("a").add(Expr::lit(rng.random_range(-5i64..5)));
            let lit = Expr::lit(rng.random_range(-25i64..25));
            random_cmp(rng, shifted, lit)
        }
        _ => {
            let lit = Expr::lit(STRINGS[rng.random_range(0..STRINGS.len())]);
            random_cmp(rng, Expr::col("s"), lit)
        }
    }
}

fn random_pred(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_bool(0.4) {
        return random_leaf(rng);
    }
    match rng.random_range(0u32..4) {
        0 | 1 => random_pred(rng, depth - 1).and(random_pred(rng, depth - 1)),
        2 => random_pred(rng, depth - 1).or(random_pred(rng, depth - 1)),
        _ => random_pred(rng, depth - 1).not(),
    }
}

/// Randomized oracle: for every generated predicate and batch, the
/// compiled program must select exactly the rows `eval_bool` keeps, and
/// `SelVec::take` must reproduce `Batch::filter` bit-for-bit (compared
/// via `Debug` so NaN payloads count as equal to themselves).
#[test]
fn random_predicates_match_the_interpreter() {
    let schema = oracle_schema();
    let mut rng = StdRng::seed_from_u64(0xBDCC_0010);
    for case in 0..500 {
        let rows = match case % 7 {
            0 => 0,
            1 => 1,
            _ => rng.random_range(2usize..200),
        };
        let batch = random_batch(&mut rng, rows);
        let expr = random_pred(&mut rng, 3).bind(&schema).expect("well-typed");
        let program = FilterProgram::compile(&expr, &schema);
        let keep = expr.eval_bool(&batch).expect("well-typed eval");
        let sel = program.select(&batch).expect("kernel eval");
        assert_eq!(
            sel.to_rows(),
            sel_from_bools(&keep).to_rows(),
            "case {case}: selection mismatch for {expr:?}"
        );
        assert_eq!(
            format!("{:?}", sel.take(batch.clone())),
            format!("{:?}", batch.filter(&keep)),
            "case {case}: filtered payload mismatch for {expr:?}"
        );
    }
}

/// One long-lived program past its reorder warmup: the permuted conjunct
/// order must never change what is selected.
#[test]
fn adaptive_reorder_stays_exact_across_batches() {
    let schema = oracle_schema();
    // Expensive selective LIKE first in authored order: the reorderer has
    // something to gain by permuting, and statistics accumulate across
    // conjuncts with very different costs.
    let expr = Expr::col("s")
        .like(LikePattern::Contains("o".into()))
        .and(Expr::col("a").ge(Expr::lit(-5)))
        .and(Expr::col("f").lt(Expr::lit(20.0)))
        .bind(&schema)
        .expect("bound");
    let program = FilterProgram::compile(&expr, &schema);
    let mut rng = StdRng::seed_from_u64(0xBDCC_0011);
    // 40 × 128 rows ≫ the 1024-row warmup.
    for batch_no in 0..40 {
        let batch = random_batch(&mut rng, 128);
        let keep = expr.eval_bool(&batch).expect("eval");
        let sel = program.select(&batch).expect("kernel");
        assert_eq!(
            sel.to_rows(),
            sel_from_bools(&keep).to_rows(),
            "batch {batch_no} diverged after reordering"
        );
    }
}

/// EXPLAIN ANALYZE: a multi-conjunct filter must surface the kernel
/// annotations — leaf mix, per-conjunct selectivity, chosen order.
#[test]
fn explain_analyze_annotates_compiled_filters() {
    let db = bdcc::tpch::generate(&GenConfig::new(0.002));
    let sdb = Arc::new(plain_scheme(&db));
    let plan = filter(
        PlanBuilder::new().scan(
            "lineitem",
            &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
            vec![],
        ),
        Expr::col("l_shipdate")
            .ge(Expr::lit(bdcc_storage::parse_date("1994-01-01").unwrap()))
            .and(
                Expr::col("l_shipdate")
                    .lt(Expr::lit(bdcc_storage::parse_date("1995-01-01").unwrap())),
            )
            .and(Expr::col("l_discount").ge(Expr::lit(0.05)))
            .and(Expr::col("l_discount").le(Expr::lit(0.07)))
            .and(Expr::col("l_quantity").lt(Expr::lit(24.0))),
    );
    let ctx = QueryContext::new(sdb);
    let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
    let (mut saw_kernel, mut saw_sel, mut saw_order) = (false, false, false);
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        for (k, v) in &node.annotations {
            saw_kernel |= k == "kernel" && v.contains('k');
            saw_sel |= k == "kernel_sel";
            saw_order |= k == "kernel_order";
        }
    });
    assert!(saw_kernel, "filter must annotate its kernel/fallback leaf mix");
    assert!(saw_sel, "filter must annotate per-conjunct selectivities");
    assert!(saw_order, "multi-conjunct filter must annotate its chosen order");
    let rendered = analyzed.profile.render();
    assert!(rendered.contains("kernel"), "render must show kernel annotations:\n{rendered}");
}
