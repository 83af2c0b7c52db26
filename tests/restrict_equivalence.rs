//! Plan-time restriction must select exactly the count-table groups the
//! previous evaluation selected.
//!
//! [`oracle`] is that evaluation (commit `8fb683d`'s `restrict.rs`) kept as
//! the reference: a full row mask per caller, the qualifying keys sorted and
//! deduplicated, every distinct key binned with `Dimension::bin_of`. It
//! shares nothing with the engine's walk — predicates go through the
//! expression interpreter, foreign keys through a hash map built here, bins
//! through the dimension rather than the build-time row→bin index.
//!
//! Compared per scan, as *selected group sets*: on all 22 TPC-H queries
//! (every plan of the two-phase ones), on a randomised star schema
//! (random dimension keys; random int / string / `LIKE` / float predicates
//! on the host; a referenced table masked by a random predicate), and on
//! the edge cases: a predicate every row passes, one no row passes, a
//! semi-join chain deeper than the reduction follows, and a host large
//! enough for the analytic `bin_range` branch.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use bdcc::catalog::{Catalog, ColumnDef, Database, TableDef};
use bdcc::core::{DesignConfig, SelfTuneConfig};
use bdcc::exec::restrict::{compute_restrictions, Restrictions};
use bdcc::exec::{
    bdcc_scheme, explain_analyze, join, ColPredicate, FkSide, LikePattern, Node, PlanBuilder,
    QueryContext, SchemeDb,
};
use bdcc::storage::{Column, DataType, Datum, TableBuilder};
use bdcc::tpch::{all_queries, GenConfig, QueryCtx};

mod oracle {
    use std::collections::HashMap;

    use bdcc::catalog::{FkId, TableId};
    use bdcc::core::{Dimension, KeyValue};
    use bdcc::exec::restrict::{bins_to_ranges, normalize_ranges, Restrictions};
    use bdcc::exec::{Batch, ColMeta, ColPredicate, FkSide, Node, SchemeDb};

    const ROW_EVAL_LIMIT: usize = 1 << 17;

    struct Edge {
        fk: FkId,
        referencing: Vec<usize>,
        referenced: Vec<usize>,
    }

    struct Scan {
        id: usize,
        table: TableId,
        predicates: Vec<ColPredicate>,
    }

    pub fn restrictions(plan: &Node, sdb: &SchemeDb) -> Restrictions {
        let schema = sdb.bdcc.as_ref().expect("a BDCC scheme");
        let (mut scans, mut edges) = (Vec::new(), Vec::new());
        collect(plan, sdb, &mut scans, &mut edges);
        let mut out = Restrictions::new();
        for scan in &scans {
            let Some(bt) = schema.tables.get(&scan.table) else { continue };
            'uses: for (use_idx, u) in bt.uses.iter().enumerate() {
                let mut cur = vec![scan.id];
                for &fk in &u.path {
                    let target = sdb.db.catalog().fk(fk).to_table;
                    let mut next = Vec::new();
                    for e in &edges {
                        if e.fk == fk && e.referencing.iter().any(|s| cur.contains(s)) {
                            for &rs in &e.referenced {
                                if scans.iter().any(|s| s.id == rs && s.table == target) {
                                    next.push(rs);
                                }
                            }
                        }
                    }
                    if next.is_empty() {
                        continue 'uses;
                    }
                    cur = next;
                }
                let mut union: Vec<(u64, u64)> = Vec::new();
                for &host_id in &cur {
                    let host = scans.iter().find(|s| s.id == host_id).expect("known scan");
                    match allowed_bins(host, schema.dimension(u.dim), &scans, &edges, sdb) {
                        Some(ranges) => union.extend(ranges),
                        None => continue 'uses,
                    }
                }
                out.insert((scan.id, use_idx), normalize_ranges(union));
            }
        }
        out
    }

    fn allowed_bins(
        host_scan: &Scan,
        dim: &Dimension,
        scans: &[Scan],
        edges: &[Edge],
        sdb: &SchemeDb,
    ) -> Option<Vec<(u64, u64)>> {
        let host = sdb.db.stored(host_scan.table).expect("host storage");
        let has_semi = edges.iter().any(|e| e.referencing.contains(&host_scan.id));
        if host_scan.predicates.is_empty() && !has_semi {
            return None;
        }
        if host.rows() <= ROW_EVAL_LIMIT {
            let mask = qualifying_rows(host_scan, scans, edges, sdb, 0);
            if mask.iter().all(|&m| m) {
                return None;
            }
            let key_cols: Vec<_> =
                dim.key.iter().map(|k| host.column_by_name(k).expect("key column")).collect();
            let mut keys: Vec<KeyValue> = (0..mask.len())
                .filter(|&row| mask[row])
                .map(|row| KeyValue(key_cols.iter().map(|c| c.datum(row)).collect()))
                .collect();
            keys.sort_unstable_by(KeyValue::full_cmp);
            keys.dedup_by(|a, b| a.full_cmp(b).is_eq());
            let mut bins: Vec<u64> = keys.iter().map(|k| dim.bin_of(k)).collect();
            bins.sort_unstable();
            bins.dedup();
            Some(bins_to_ranges(&bins))
        } else {
            let (mut lo, mut hi): (Option<KeyValue>, Option<KeyValue>) = (None, None);
            let mut restricted = false;
            for p in host_scan.predicates.iter().filter(|p| p.column == dim.key[0]) {
                let (plo, phi) = p.value_range();
                if let Some(v) = plo {
                    restricted = true;
                    let kv = KeyValue(vec![v]);
                    lo = Some(match lo.take() {
                        Some(cur) if cur.prefix_cmp(&kv).is_ge() => cur,
                        _ => kv,
                    });
                }
                if let Some(v) = phi {
                    restricted = true;
                    let kv = KeyValue(vec![v]);
                    hi = Some(match hi.take() {
                        Some(cur) if cur.prefix_cmp(&kv).is_le() => cur,
                        _ => kv,
                    });
                }
            }
            if !restricted {
                return None;
            }
            Some(dim.bin_range(lo.as_ref(), hi.as_ref()).map_or(vec![], |r| vec![r]))
        }
    }

    fn qualifying_rows(
        scan: &Scan,
        scans: &[Scan],
        edges: &[Edge],
        sdb: &SchemeDb,
        depth: usize,
    ) -> Vec<bool> {
        let stored = sdb.db.stored(scan.table).expect("storage");
        let mut mask = vec![true; stored.rows()];
        if stored.rows() == 0 || depth > 4 {
            return mask;
        }
        for p in &scan.predicates {
            let idx = stored.column_index(&p.column).expect("predicate column");
            let dt = stored.schema().columns[idx].data_type;
            let batch = Batch::new(vec![(**stored.column(idx).expect("column")).clone()]);
            let bound = p.to_expr().bind(&[ColMeta::new(&p.column, dt)]).expect("bind");
            for (m, k) in mask.iter_mut().zip(bound.eval_bool(&batch).expect("eval")) {
                *m = *m && k;
            }
        }
        for e in edges.iter().filter(|e| e.referencing.contains(&scan.id)) {
            let fk = sdb.db.catalog().fk(e.fk);
            if fk.from_table != scan.table {
                continue;
            }
            for &ref_id in &e.referenced {
                let Some(ref_scan) = scans.iter().find(|s| s.id == ref_id) else { continue };
                if ref_scan.table != fk.to_table {
                    continue;
                }
                let ref_stored = sdb.db.stored(ref_scan.table).expect("storage");
                if ref_stored.rows() > ROW_EVAL_LIMIT {
                    continue;
                }
                let ref_mask = qualifying_rows(ref_scan, scans, edges, sdb, depth + 1);
                if ref_mask.iter().all(|&m| m) {
                    continue;
                }
                let ints = |table: &bdcc::storage::StoredTable, cols: &[String]| -> Vec<Vec<i64>> {
                    let cols: Vec<&[i64]> = cols
                        .iter()
                        .map(|c| table.column_by_name(c).expect("fk column").as_i64().expect("int"))
                        .collect();
                    (0..table.rows()).map(|r| cols.iter().map(|c| c[r]).collect()).collect()
                };
                let index: HashMap<Vec<i64>, usize> = ints(ref_stored, &fk.to_columns)
                    .into_iter()
                    .enumerate()
                    .map(|(row, key)| (key, row))
                    .collect();
                for (m, key) in mask.iter_mut().zip(ints(stored, &fk.from_columns)) {
                    *m = *m && ref_mask[index[&key]];
                }
            }
        }
        mask
    }

    fn collect(node: &Node, sdb: &SchemeDb, scans: &mut Vec<Scan>, edges: &mut Vec<Edge>) {
        match node {
            Node::Scan { scan_id, table, predicates, .. } => scans.push(Scan {
                id: *scan_id,
                table: sdb.db.catalog().table_id(table).expect("table"),
                predicates: predicates.clone(),
            }),
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. } => collect(input, sdb, scans, edges),
            Node::Join { left, right, fk, .. } => {
                collect(left, sdb, scans, edges);
                collect(right, sdb, scans, edges);
                let Some((name, side)) = fk else { return };
                let Some(fk) = sdb.db.catalog().fks().iter().find(|f| &f.name == name) else {
                    return;
                };
                let (referencing, referenced) = match side {
                    FkSide::Left => (left.scan_ids(), right.scan_ids()),
                    FkSide::Right => (right.scan_ids(), left.scan_ids()),
                };
                edges.push(Edge { fk: fk.id, referencing, referenced });
            }
        }
    }
}

/// Per scan of a clustered table: the keys of the count-table groups whose
/// bin prefix, for every restricted use, intersects the allowed ranges.
fn selected_groups(plan: &Node, sdb: &SchemeDb, r: &Restrictions) -> BTreeMap<usize, Vec<u64>> {
    let schema = sdb.bdcc.as_ref().expect("a BDCC scheme");
    let mut out = BTreeMap::new();
    plan.visit_scans(&mut |scan_id, table, _| {
        let tid = sdb.db.catalog().table_id(table).expect("table");
        let Some(bt) = schema.table(tid) else { return };
        let keys = bt
            .count
            .iter()
            .filter(|g| {
                bt.uses.iter().enumerate().all(|(use_idx, u)| {
                    let Some(ranges) = r.get(&(scan_id, use_idx)) else { return true };
                    let shift =
                        schema.dimension(u.dim).bits() - bt.use_bits_at_granularity(use_idx);
                    let lo = bt.group_bin_prefix(use_idx, g.key) << shift;
                    let hi = lo + ((1u64 << shift) - 1);
                    ranges.iter().any(|&(rlo, rhi)| rlo <= hi && lo <= rhi)
                })
            })
            .map(|g| g.key)
            .collect();
        out.insert(scan_id, keys);
    });
    out
}

/// The engine and the oracle agree on `plan`: identical ranges wherever
/// both restrict a use, identical selected groups on every scan. Returns
/// the engine's restrictions and that selection.
fn assert_same_selection(
    plan: &Node,
    sdb: &SchemeDb,
    what: &str,
) -> (Restrictions, BTreeMap<usize, Vec<u64>>) {
    let got = compute_restrictions(plan, sdb).expect("restrictions");
    let want = oracle::restrictions(plan, sdb);
    for (key, ranges) in &got {
        // The engine reports a use as unrestricted when every occupied bin
        // survives; where it does restrict, the ranges are the oracle's.
        assert_eq!(Some(ranges), want.get(key), "{what}: ranges of (scan, use) {key:?}");
    }
    let groups = selected_groups(plan, sdb, &got);
    assert_eq!(groups, selected_groups(plan, sdb, &want), "{what}: selected groups");
    (got, groups)
}

/// `(table, "selected/total")` of every profiled BDCC scan of `plan`.
fn profiled_group_counts(plan: &Node, sdb: &Arc<SchemeDb>) -> Vec<(String, String)> {
    let analyzed = explain_analyze(&QueryContext::new(Arc::clone(sdb)), plan).expect("analyze");
    let mut out = Vec::new();
    analyzed.profile.root.walk(&mut |n| {
        if let Some((_, v)) = n.annotations.iter().find(|(k, _)| k == "groups") {
            out.push((n.label.clone(), v.clone()));
        }
    });
    out
}

#[test]
fn all_22_queries_select_the_reference_groups() {
    let sf = 0.01;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let sdb = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"));
    let schema = sdb.bdcc.as_ref().expect("bdcc");
    let (mut restricted_uses, mut pruned_scans, mut profiled_scans) = (0, 0, 0);
    for q in all_queries() {
        let ctx = QueryCtx::recording(QueryContext::new(Arc::clone(&sdb)), sf);
        (q.run)(&ctx).unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
        let plans = ctx.take_plans();
        assert!(!plans.is_empty(), "{} recorded no plan", q.name);
        for plan in &plans {
            let (got, groups) = assert_same_selection(plan, &sdb, q.name);
            restricted_uses += got.len();
            // The planner's own selection (what the scan decision log
            // reports) is that selection too.
            let mut expect: Vec<(String, String)> = Vec::new();
            plan.visit_scans(&mut |scan_id, table, _| {
                let tid = sdb.db.catalog().table_id(table).expect("table");
                if let Some(bt) = schema.table(tid) {
                    let total = bt.count.group_count();
                    pruned_scans += usize::from(groups[&scan_id].len() < total);
                    expect.push((
                        format!("Scan({table})"),
                        format!("{}/{total}", groups[&scan_id].len()),
                    ));
                }
            });
            // (A scan fused into a parallel aggregate has no node of its own.)
            for logged in profiled_group_counts(plan, &sdb) {
                profiled_scans += 1;
                let at = expect.iter().position(|e| *e == logged);
                let at = at.unwrap_or_else(|| panic!("{}: {logged:?} not in {expect:?}", q.name));
                expect.swap_remove(at);
            }
        }
    }
    assert!(restricted_uses > 20, "the query set restricts many uses ({restricted_uses})");
    assert!(pruned_scans > 10, "and restriction prunes groups ({pruned_scans} scans)");
    assert!(profiled_scans > 40, "scan decision log checked on {profiled_scans} scans");
}

// ---------------------------------------------------------------------------
// A hand-built star: fact → host → grp, one dimension on `host.h_dim`.
// ---------------------------------------------------------------------------

const WORDS: [&str; 5] = [
    "alpha special",
    "beta requests",
    "gamma special requests",
    "delta",
    "special then requests later",
];

fn int(name: &str) -> ColumnDef {
    ColumnDef { name: name.to_string(), data_type: DataType::Int }
}

/// Every table's groups count: a tiny `AR` keeps the full granularity, so
/// a wrong bin set shows as a wrong group set.
fn fine_grained() -> DesignConfig {
    DesignConfig {
        selftune: SelfTuneConfig { ar_bytes: 1, ..Default::default() },
        ..Default::default()
    }
}

/// `fact(f_id, f_host)` → `host(h_id, h_dim, h_num, h_str, h_flt, h_grp)` →
/// `grp(g_id, g_val)`; `host` hosts a dimension on `h_dim`, `fact` imports
/// it over its foreign key. Non-key host columns are fixed functions of the
/// row, so a case is its dimension keys and the referenced values.
fn star(dim_keys: &[i64], grp_vals: &[i64]) -> Arc<SchemeDb> {
    star_with_fact_rows(dim_keys, grp_vals, 4 * dim_keys.len() as i64)
}

fn star_with_fact_rows(dim_keys: &[i64], grp_vals: &[i64], fact_rows: i64) -> Arc<SchemeDb> {
    let mut cat = Catalog::new();
    let grp = cat
        .create_table(TableDef {
            name: "grp".into(),
            columns: vec![int("g_id"), int("g_val")],
            primary_key: vec!["g_id".into()],
        })
        .unwrap();
    let host = cat
        .create_table(TableDef {
            name: "host".into(),
            columns: vec![
                int("h_id"),
                int("h_dim"),
                int("h_num"),
                ColumnDef { name: "h_str".into(), data_type: DataType::Str },
                ColumnDef { name: "h_flt".into(), data_type: DataType::Float },
                int("h_grp"),
            ],
            primary_key: vec!["h_id".into()],
        })
        .unwrap();
    let fact = cat
        .create_table(TableDef {
            name: "fact".into(),
            columns: vec![int("f_id"), int("f_host")],
            primary_key: vec!["f_id".into()],
        })
        .unwrap();
    cat.create_foreign_key("FK_H_G", "host", &["h_grp"], "grp", &["g_id"]).unwrap();
    cat.create_foreign_key("FK_F_H", "fact", &["f_host"], "host", &["h_id"]).unwrap();
    cat.create_index("dim_idx", "host", &["h_dim"]).unwrap();
    cat.create_index("f_h_idx", "fact", &["f_host"]).unwrap();

    let n = dim_keys.len() as i64;
    let g = grp_vals.len() as i64;
    let mut db = Database::new(cat);
    db.attach(
        grp,
        Arc::new(
            TableBuilder::new("grp")
                .column("g_id", Column::from_i64((0..g).collect()))
                .column("g_val", Column::from_i64(grp_vals.to_vec()))
                .build()
                .unwrap(),
        ),
    );
    let row = |i: i64| (i, dim_keys[i as usize]);
    db.attach(
        host,
        Arc::new(
            TableBuilder::new("host")
                .column("h_id", Column::from_i64((0..n).collect()))
                .column("h_dim", Column::from_i64(dim_keys.to_vec()))
                .column(
                    "h_num",
                    Column::from_i64(
                        (0..n).map(row).map(|(i, k)| (i * 37 + k * 11) % 100).collect(),
                    ),
                )
                .column(
                    "h_str",
                    Column::from_strings(
                        (0..n)
                            .map(row)
                            .map(|(i, k)| WORDS[((i + k) % 5) as usize].to_string())
                            .collect(),
                    ),
                )
                .column(
                    "h_flt",
                    Column::from_f64((0..n).map(|i| ((i * 13) % 100) as f64).collect()),
                )
                .column(
                    "h_grp",
                    Column::from_i64((0..n).map(row).map(|(i, k)| (i * 7 + k) % g).collect()),
                )
                .build()
                .unwrap(),
        ),
    );
    db.attach(
        fact,
        Arc::new(
            TableBuilder::new("fact")
                .column("f_id", Column::from_i64((0..fact_rows).collect()))
                .column("f_host", Column::from_i64((0..fact_rows).map(|i| (i * 5) % n).collect()))
                .build()
                .unwrap(),
        ),
    );
    Arc::new(bdcc_scheme(&db, &fine_grained()).expect("bdcc scheme"))
}

fn group_count(sdb: &SchemeDb, table: &str) -> usize {
    let tid = sdb.db.catalog().table_id(table).expect("table");
    sdb.bdcc.as_ref().expect("bdcc").table(tid).expect("clustered").count.group_count()
}

/// `fact ⋈ host ⋈ grp` along both foreign keys.
fn star_plan(host_preds: Vec<ColPredicate>, grp_preds: Vec<ColPredicate>) -> Node {
    let b = PlanBuilder::new();
    let fact = b.scan("fact", &["f_id", "f_host"], vec![]);
    let host = b.scan("host", &["h_id", "h_grp"], host_preds);
    let grp = b.scan("grp", &["g_id"], grp_preds);
    let fh = join(fact, host, &[("f_host", "h_id")], Some(("FK_F_H", FkSide::Left)));
    join(fh, grp, &[("h_grp", "g_id")], Some(("FK_H_G", FkSide::Left)))
}

fn string_predicate(pick: usize) -> ColPredicate {
    match pick {
        0 => ColPredicate::like("h_str", LikePattern::Contains("special".into())),
        1 => ColPredicate::not_like(
            "h_str",
            LikePattern::ContainsSeq("special".into(), "requests".into()),
        ),
        2 => ColPredicate::eq("h_str", "delta"),
        3 => ColPredicate::ne("h_str", "delta"),
        4 => ColPredicate::in_list(
            "h_str",
            vec![Datum::Str(WORDS[0].into()), Datum::Str(WORDS[1].into())],
        ),
        _ => ColPredicate::like("h_str", LikePattern::StartsWith("gam".into())),
    }
}

proptest! {
    #[test]
    fn random_hosts_select_the_reference_groups(
        dim_keys in prop::collection::vec(0i64..40, 40..300),
        grp_vals in prop::collection::vec(0i64..10, 1..12),
        p_key in prop::option::of((0i64..40, 0i64..40)),
        p_num in prop::option::of((0i64..100, 0i64..100)),
        p_str in prop::option::of(0usize..6),
        p_flt in prop::option::of(0i64..100),
        p_grp in prop::option::of(0i64..10),
    ) {
        let sdb = star(&dim_keys, &grp_vals);
        let mut host_preds = Vec::new();
        if let Some((a, b)) = p_key {
            host_preds.push(ColPredicate::between("h_dim", a.min(b), a.max(b)));
        }
        if let Some((a, b)) = p_num {
            host_preds.push(if a % 3 == 0 {
                ColPredicate::in_list("h_num", vec![Datum::Int(a), Datum::Int(b)])
            } else {
                ColPredicate::between("h_num", a.min(b), a.max(b))
            });
        }
        host_preds.extend(p_str.map(string_predicate));
        // Float comparisons have no flat test: the interpreter fallback.
        host_preds.extend(p_flt.map(|v| ColPredicate::lt("h_flt", v as f64)));
        let grp_preds: Vec<ColPredicate> =
            p_grp.map(|v| ColPredicate::ge("g_val", v)).into_iter().collect();
        let plan = star_plan(host_preds, grp_preds);
        assert_same_selection(&plan, &sdb, "random star");
    }
}

#[test]
fn all_pass_is_unrestricted_and_none_pass_selects_nothing() {
    let dim_keys: Vec<i64> = (0..200).map(|i| (i * 7) % 32).collect();
    let sdb = star(&dim_keys, &[1, 2, 3]);
    // Every row passes (predicates present, nothing pruned): unrestricted.
    let plan =
        star_plan(vec![ColPredicate::ge("h_num", 0i64)], vec![ColPredicate::ge("g_val", 0i64)]);
    let (got, groups) = assert_same_selection(&plan, &sdb, "all pass");
    assert!(got.is_empty(), "nothing to prune must come back unrestricted: {got:?}");
    let total: usize = groups.values().map(Vec::len).sum();
    assert!(total > 32, "the star keeps its full granularity ({total} groups)");
    // All rows but one pass and its bin keeps other survivors: the walk
    // finds a survivor in every occupied bin, which is unrestricted too.
    let plan = star_plan(vec![ColPredicate::ne("h_id", 0i64)], vec![]);
    let (got, _) = assert_same_selection(&plan, &sdb, "all bins survive");
    assert!(got.is_empty(), "{got:?}");
    // No row passes: an empty range list on host and fact, zero groups.
    for (host_preds, grp_preds) in [
        (vec![ColPredicate::lt("h_num", 0i64)], vec![]),
        (vec![], vec![ColPredicate::gt("g_val", 99i64)]),
        (vec![ColPredicate::lt("h_flt", -1.0)], vec![]),
    ] {
        let plan = star_plan(host_preds, grp_preds);
        let (got, groups) = assert_same_selection(&plan, &sdb, "none pass");
        assert_eq!(got.len(), 2, "fact and host are both restricted: {got:?}");
        assert!(got.values().all(Vec::is_empty));
        assert!(groups[&0].is_empty() && groups[&1].is_empty(), "{groups:?}");
    }
}

/// A left outer join whose preserved side carries no predicate restricts
/// the other side by that side's own predicates only (Q13's shape).
#[test]
fn outer_join_reduces_by_own_predicates_only() {
    let dim_keys: Vec<i64> = (0..200).map(|i| (i * 7) % 32).collect();
    let sdb = star(&dim_keys, &[1, 2, 3]);
    let b = PlanBuilder::new();
    let host = b.scan("host", &["h_id", "h_grp"], vec![ColPredicate::lt("h_dim", 8i64)]);
    let grp = b.scan("grp", &["g_id"], vec![]);
    let plan = bdcc::exec::join_full(
        grp,
        host,
        &[("g_id", "h_grp")],
        bdcc::exec::JoinType::LeftOuter,
        Some(("FK_H_G", FkSide::Right)),
        None,
    );
    let (got, groups) = assert_same_selection(&plan, &sdb, "outer join");
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(groups[&0].len() < group_count(&sdb, "host"));
}

/// `fact → c0 → c1 → … → c5`: the reduction follows joins four deep below
/// the host `c0`, so a predicate on `c4` restricts and one on `c5` does not.
#[test]
fn reduction_depth_is_capped_like_the_reference() {
    let mut cat = Catalog::new();
    let mut ids = Vec::new();
    for t in 0..6 {
        let name = format!("c{t}");
        let mut columns = vec![int(&format!("c{t}_id")), int(&format!("c{t}_val"))];
        if t < 5 {
            columns.push(int(&format!("c{t}_next")));
        }
        ids.push(
            cat.create_table(TableDef { name, columns, primary_key: vec![format!("c{t}_id")] })
                .unwrap(),
        );
    }
    let fact = cat
        .create_table(TableDef {
            name: "fact".into(),
            columns: vec![int("f_id"), int("f_c0")],
            primary_key: vec!["f_id".into()],
        })
        .unwrap();
    for t in 0..5 {
        let (from, to) = (format!("c{t}"), format!("c{}", t + 1));
        let (next, id) = (format!("c{t}_next"), format!("c{}_id", t + 1));
        cat.create_foreign_key(&format!("FK_{t}"), &from, &[next.as_str()], &to, &[id.as_str()])
            .unwrap();
    }
    cat.create_foreign_key("FK_F", "fact", &["f_c0"], "c0", &["c0_id"]).unwrap();
    cat.create_index("dim_idx", "c0", &["c0_val"]).unwrap();
    cat.create_index("f_idx", "fact", &["f_c0"]).unwrap();
    let mut db = Database::new(cat);
    for (t, id) in ids.iter().enumerate() {
        let rows: i64 = if t == 0 { 64 } else { 8 };
        let mut b = TableBuilder::new(&format!("c{t}"))
            .column(&format!("c{t}_id"), Column::from_i64((0..rows).collect()))
            .column(&format!("c{t}_val"), Column::from_i64((0..rows).collect()));
        if t < 5 {
            b = b.column(
                &format!("c{t}_next"),
                Column::from_i64((0..rows).map(|i| i % 8).collect()),
            );
        }
        db.attach(*id, Arc::new(b.build().unwrap()));
    }
    db.attach(
        fact,
        Arc::new(
            TableBuilder::new("fact")
                .column("f_id", Column::from_i64((0..512).collect()))
                .column("f_c0", Column::from_i64((0..512).map(|i| i % 64).collect()))
                .build()
                .unwrap(),
        ),
    );
    let sdb = bdcc_scheme(&db, &fine_grained()).expect("bdcc scheme");

    let chain = |filtered: usize| {
        let b = PlanBuilder::new();
        let mut plan = b.scan("fact", &["f_id", "f_c0"], vec![]);
        let mut left_key = "f_c0".to_string();
        for t in 0..6 {
            let preds = if t == filtered {
                vec![ColPredicate::lt(&format!("c{t}_val"), 2i64)]
            } else {
                vec![]
            };
            let next = format!("c{t}_next");
            let id = format!("c{t}_id");
            let cols: Vec<&str> = if t < 5 { vec![&id, &next] } else { vec![&id] };
            let scan = b.scan(&format!("c{t}"), &cols, preds);
            let fk = if t == 0 { "FK_F".to_string() } else { format!("FK_{}", t - 1) };
            plan = join(
                plan,
                scan,
                &[(left_key.as_str(), id.as_str())],
                Some((fk.as_str(), FkSide::Left)),
            );
            left_key = next;
        }
        plan
    };
    let (got, groups) = assert_same_selection(&chain(4), &sdb, "predicate four joins below");
    assert!(!got.is_empty(), "a predicate on c4 reaches the host");
    assert!(groups[&0].len() < 64, "{groups:?}");
    let (got, _) = assert_same_selection(&chain(5), &sdb, "predicate five joins below");
    assert!(got.is_empty(), "a predicate on c5 is beyond the cap: {got:?}");
}

/// A host above `ROW_EVAL_LIMIT` (2^17 rows) is not walked: sargable
/// predicates on the dimension key map to a bin range, anything else
/// leaves the use unrestricted.
#[test]
fn large_hosts_take_the_analytic_branch() {
    let rows: i64 = (1 << 17) + 512;
    let dim_keys: Vec<i64> = (0..rows).map(|i| (i * 31) % 997).collect();
    let sdb = star_with_fact_rows(&dim_keys, &[1, 2, 3], 4096);
    let plan = star_plan(vec![ColPredicate::between("h_dim", 100i64, 180i64)], vec![]);
    let (got, groups) = assert_same_selection(&plan, &sdb, "key range on a large host");
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got.values().all(|r| r.len() == 1), "one contiguous bin range: {got:?}");
    assert!(groups[&1].len() < group_count(&sdb, "host"));
    // Neither a non-key predicate nor a reduction through grp is evaluated.
    let plan =
        star_plan(vec![ColPredicate::lt("h_num", 5i64)], vec![ColPredicate::gt("g_val", 2i64)]);
    let (got, _) = assert_same_selection(&plan, &sdb, "non-key predicate on a large host");
    assert!(got.is_empty(), "{got:?}");
}
