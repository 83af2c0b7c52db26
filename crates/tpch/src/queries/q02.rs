//! Q2 — minimum cost supplier: the correlated MIN subquery is lowered to
//! an aggregate-then-rejoin on `ps_partkey` with an equality filter on the
//! supply cost.

use bdcc_exec::{
    aggregate, filter, join, sort, AggFunc, AggSpec, Batch, ColPredicate, Datum, Expr, FkSide,
    LikePattern, PlanBuilder, Result, SortKey,
};

use super::QueryCtx;

pub fn run(ctx: &QueryCtx) -> Result<Batch> {
    let b = PlanBuilder::new();
    // EUROPE's suppliers: the scanned supplier and nation columns.
    let europe_suppliers = |b: &PlanBuilder, supplier_cols: &[&str], nation_cols: &[&str]| {
        let region = b.scan(
            "region",
            &["r_regionkey"],
            vec![ColPredicate::eq("r_name", Datum::Str("EUROPE".into()))],
        );
        let nation = b.scan("nation", nation_cols, vec![]);
        let nr =
            join(nation, region, &[("n_regionkey", "r_regionkey")], Some(("FK_N_R", FkSide::Left)));
        let supplier = b.scan("supplier", supplier_cols, vec![]);
        join(supplier, nr, &[("s_nationkey", "n_nationkey")], Some(("FK_S_N", FkSide::Left)))
    };

    // Subquery: minimum supply cost per part among EUROPE suppliers.
    let ps_min = b.scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"], vec![]);
    let ps_min = join(
        ps_min,
        europe_suppliers(&b, &["s_suppkey", "s_nationkey"], &["n_nationkey", "n_regionkey"]),
        &[("ps_suppkey", "s_suppkey")],
        Some(("FK_PS_S", FkSide::Left)),
    );
    let min_cost = aggregate(
        ps_min,
        &["ps_partkey"],
        vec![AggSpec::new(AggFunc::Min, Expr::col("ps_supplycost"), "min_cost")],
    );
    let min_cost = bdcc_exec::project(
        min_cost,
        vec![(Expr::col("ps_partkey"), "mc_partkey"), (Expr::col("min_cost"), "min_cost")],
    );

    // Main block.
    let part = b.scan(
        "part",
        &["p_partkey", "p_mfgr"],
        vec![
            ColPredicate::eq("p_size", 15i64),
            ColPredicate::like("p_type", LikePattern::EndsWith("BRASS".into())),
        ],
    );
    let ps = b.scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"], vec![]);
    let ps_part = join(ps, part, &[("ps_partkey", "p_partkey")], Some(("FK_PS_P", FkSide::Left)));
    let full = join(
        ps_part,
        europe_suppliers(
            &b,
            &[
                "s_suppkey",
                "s_name",
                "s_address",
                "s_nationkey",
                "s_phone",
                "s_acctbal",
                "s_comment",
            ],
            &["n_nationkey", "n_name", "n_regionkey"],
        ),
        &[("ps_suppkey", "s_suppkey")],
        Some(("FK_PS_S", FkSide::Left)),
    );
    let with_min = join(full, min_cost, &[("ps_partkey", "mc_partkey")], None);
    let best = filter(with_min, Expr::col("ps_supplycost").eq(Expr::col("min_cost")));
    let out = bdcc_exec::project(
        best,
        vec![
            (Expr::col("s_acctbal"), "s_acctbal"),
            (Expr::col("s_name"), "s_name"),
            (Expr::col("n_name"), "n_name"),
            (Expr::col("p_partkey"), "p_partkey"),
            (Expr::col("p_mfgr"), "p_mfgr"),
            (Expr::col("s_address"), "s_address"),
            (Expr::col("s_phone"), "s_phone"),
            (Expr::col("s_comment"), "s_comment"),
        ],
    );
    let plan = sort(
        out,
        vec![
            SortKey::desc("s_acctbal"),
            SortKey::asc("n_name"),
            SortKey::asc("s_name"),
            SortKey::asc("p_partkey"),
        ],
        Some(100),
    );
    ctx.run(&plan)
}
