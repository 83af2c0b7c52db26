//! Q11 — important stock identification in GERMANY: the scalar total is
//! computed first and injected as a literal threshold (decorrelation).

use bdcc_exec::{
    aggregate, filter, join, sort, AggFunc, AggSpec, Batch, ColPredicate, Datum, Expr, FkSide,
    Node, PlanBuilder, Result, SortKey,
};

use super::QueryCtx;

/// GERMANY's PARTSUPP rows, with the PARTSUPP columns `columns`.
fn german_partsupp(b: &PlanBuilder, columns: &[&str]) -> Node {
    let nation = b.scan(
        "nation",
        &["n_nationkey"],
        vec![ColPredicate::eq("n_name", Datum::Str("GERMANY".into()))],
    );
    let supplier = b.scan("supplier", &["s_suppkey", "s_nationkey"], vec![]);
    let partsupp = b.scan("partsupp", columns, vec![]);
    let sn =
        join(supplier, nation, &[("s_nationkey", "n_nationkey")], Some(("FK_S_N", FkSide::Left)));
    join(partsupp, sn, &[("ps_suppkey", "s_suppkey")], Some(("FK_PS_S", FkSide::Left)))
}

pub fn run(ctx: &QueryCtx) -> Result<Batch> {
    let value = Expr::col("ps_supplycost").mul(Expr::col("ps_availqty"));
    // Phase 1: total German stock value.
    let b = PlanBuilder::new();
    let total_plan = aggregate(
        german_partsupp(&b, &["ps_suppkey", "ps_availqty", "ps_supplycost"]),
        &[],
        vec![AggSpec::new(AggFunc::Sum, value.clone(), "total")],
    );
    let total = ctx.scalar_f64(&total_plan)?;
    let threshold = total * 0.0001 / ctx.sf;

    // Phase 2: per-part value above the threshold.
    let b = PlanBuilder::new();
    let agg = aggregate(
        german_partsupp(&b, &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"]),
        &["ps_partkey"],
        vec![AggSpec::new(AggFunc::Sum, value, "value")],
    );
    let keep = filter(agg, Expr::col("value").gt(Expr::lit(threshold)));
    let plan = sort(keep, vec![SortKey::desc("value")], None);
    ctx.run(&plan)
}
