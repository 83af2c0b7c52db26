//! Plan-time selection pushdown and propagation for the BDCC scheme.
//!
//! For every scan of a clustered table and every dimension use of that
//! table, this module derives the set of *allowed bin numbers* implied by
//! the query's predicates:
//!
//! 1. The use's dimension path is matched against the query's join edges
//!    (a restriction may only propagate from the dimension host to a fact
//!    table if the query actually joins along every foreign key of the
//!    path — Section II's selection-propagation condition).
//! 2. Predicates on the host scan (and semi-join reductions through
//!    further joins *below* the host, e.g. REGION restricting NATION — the
//!    paper's compound-key trick) are evaluated at plan time over the host
//!    table, which is small, yielding the qualifying host rows and hence
//!    the qualifying bins. For large hosts (ORDERS as the D_DATE host) the
//!    sargable predicates on the dimension key are translated analytically
//!    via [`Dimension::bin_range`].
//!
//! The resulting bin sets are compressed into ranges; the physical scan
//!    then selects only count-table groups whose bin prefix intersects.

use std::collections::HashMap;

use bdcc_catalog::{FkId, TableId};
use bdcc_core::{Dimension, KeyValue};
use bdcc_storage::{Column, DataType, StoredTable};

use crate::batch::{Batch, ColMeta};
use crate::enc::{compile_int, compile_str, int_test, str_test};
use crate::error::Result;
use crate::plan::{FkSide, Node};
use crate::pred::{predicates_to_expr, ColPredicate};
use crate::scheme::SchemeDb;

/// Allowed bin ranges (inclusive, at full dimension granularity) per
/// `(scan_id, use_idx)`. Absent key = unrestricted.
pub type Restrictions = HashMap<(usize, usize), Vec<(u64, u64)>>;

/// A join edge extracted from the plan: the foreign key plus the scan ids
/// on the referencing and referenced sides.
#[derive(Debug, Clone)]
struct JoinEdge {
    fk: FkId,
    referencing_scans: Vec<usize>,
    referenced_scans: Vec<usize>,
}

/// Per-scan info extracted from the plan.
#[derive(Debug, Clone)]
struct ScanInfo {
    scan_id: usize,
    table: TableId,
    predicates: Vec<ColPredicate>,
}

/// Hosts larger than this are handled analytically instead of row-wise.
const ROW_EVAL_LIMIT: usize = 1 << 17;

/// Compute all bin restrictions for a query under the BDCC scheme.
pub fn compute_restrictions(plan: &Node, sdb: &SchemeDb) -> Result<Restrictions> {
    let schema = match &sdb.bdcc {
        Some(s) => s,
        None => return Ok(Restrictions::new()),
    };
    let mut scans = Vec::new();
    let mut edges = Vec::new();
    collect(plan, sdb, &mut scans, &mut edges)?;
    let mut out = Restrictions::new();
    for scan in &scans {
        let Some(bt) = schema.tables.get(&scan.table) else { continue };
        for (use_idx, u) in bt.uses.iter().enumerate() {
            let dim = schema.dimension(u.dim);
            // Walk the dimension path along the query's join edges.
            let mut cur: Vec<usize> = vec![scan.scan_id];
            let mut connected = true;
            for &fk in &u.path {
                let mut next = Vec::new();
                for e in &edges {
                    if e.fk == fk && e.referencing_scans.iter().any(|s| cur.contains(s)) {
                        let target = sdb.db.catalog().fk(fk).to_table;
                        for &rs in &e.referenced_scans {
                            if scans.iter().any(|s| s.scan_id == rs && s.table == target) {
                                next.push(rs);
                            }
                        }
                    }
                }
                if next.is_empty() {
                    connected = false;
                    break;
                }
                cur = next;
            }
            if !connected {
                continue;
            }
            // `cur` now holds host-table scans; union their allowed bins.
            let mut union: Option<Vec<(u64, u64)>> = None;
            let mut any_restriction = true;
            for &host_id in &cur {
                let host_scan = scans.iter().find(|s| s.scan_id == host_id).expect("known scan");
                match allowed_bins(host_scan, dim, &scans, &edges, sdb)? {
                    Some(ranges) => {
                        let merged = match union.take() {
                            None => ranges,
                            Some(mut acc) => {
                                acc.extend(ranges);
                                normalize_ranges(acc)
                            }
                        };
                        union = Some(merged);
                    }
                    None => {
                        // One unrestricted host occurrence makes the whole
                        // use unrestricted.
                        any_restriction = false;
                        break;
                    }
                }
            }
            if any_restriction {
                if let Some(ranges) = union {
                    out.insert((scan.scan_id, use_idx), ranges);
                }
            }
        }
    }
    Ok(out)
}

/// Allowed bins of `dim` given the host scan's predicates (plus semi-join
/// reductions through joins below the host). `None` = unrestricted.
fn allowed_bins(
    host_scan: &ScanInfo,
    dim: &Dimension,
    scans: &[ScanInfo],
    edges: &[JoinEdge],
    sdb: &SchemeDb,
) -> Result<Option<Vec<(u64, u64)>>> {
    let host = sdb.db.stored(host_scan.table).expect("host storage attached").clone();
    // Does anything restrict the host at all?
    let has_own_preds = !host_scan.predicates.is_empty();
    let has_semi = edges.iter().any(|e| e.referencing_scans.contains(&host_scan.scan_id));
    if !has_own_preds && !has_semi {
        return Ok(None);
    }
    if host.rows() <= ROW_EVAL_LIMIT {
        // Row-wise: evaluate the full reduction, collect qualifying bins.
        let mask = qualifying_rows(host_scan, &host, scans, edges, sdb, 0)?;
        if mask.iter().all(|&m| m) {
            return Ok(None);
        }
        let key_cols: Vec<&Column> = dim
            .key
            .iter()
            .map(|k| host.column_by_name(k).map(|c| &**c))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Bin each distinct qualifying key once: a large host repeats its
        // dimension key heavily (75 k ORDERS rows carry ~2.4 k order
        // dates), and binning is a binary search over datums.
        let qualifying = (0..mask.len()).filter(|&row| mask[row]);
        let key_of = |row: usize| KeyValue(key_cols.iter().map(|c| c.datum(row)).collect());
        let keys: Vec<KeyValue> = if let [Column::I64 { values, .. }] = key_cols[..] {
            // One integer-backed key column — the shape every large host
            // has — dedups on the raw values, before any key tuple exists.
            let mut keyed: Vec<(i64, usize)> = qualifying.map(|row| (values[row], row)).collect();
            keyed.sort_unstable();
            keyed.dedup_by_key(|k| k.0);
            keyed.into_iter().map(|k| key_of(k.1)).collect()
        } else {
            let mut keys: Vec<KeyValue> = qualifying.map(key_of).collect();
            keys.sort_unstable_by(KeyValue::full_cmp);
            keys.dedup_by(|a, b| a.full_cmp(b).is_eq());
            keys
        };
        let mut bins: Vec<u64> = keys.iter().map(|k| dim.bin_of(k)).collect();
        bins.sort_unstable();
        bins.dedup();
        Ok(Some(bins_to_ranges(&bins)))
    } else {
        // Analytic: intersect sargable ranges on the dimension key prefix.
        let mut lo: Option<KeyValue> = None;
        let mut hi: Option<KeyValue> = None;
        let mut restricted = false;
        for p in &host_scan.predicates {
            if p.column == dim.key[0] {
                let (plo, phi) = p.value_range();
                if let Some(v) = plo {
                    restricted = true;
                    let kv = KeyValue(vec![v]);
                    lo = Some(match lo.take() {
                        None => kv,
                        Some(cur) => {
                            if cur.prefix_cmp(&kv) == std::cmp::Ordering::Less {
                                kv
                            } else {
                                cur
                            }
                        }
                    });
                }
                if let Some(v) = phi {
                    restricted = true;
                    let kv = KeyValue(vec![v]);
                    hi = Some(match hi.take() {
                        None => kv,
                        Some(cur) => {
                            if cur.prefix_cmp(&kv) == std::cmp::Ordering::Greater {
                                kv
                            } else {
                                cur
                            }
                        }
                    });
                }
            }
        }
        if !restricted {
            return Ok(None);
        }
        Ok(dim.bin_range(lo.as_ref(), hi.as_ref()).map(|(a, b)| vec![(a, b)]).or(Some(vec![])))
    }
}

/// Boolean mask of host rows passing the scan's own predicates and all
/// semi-join reductions through join edges where the host references a
/// further (small) table.
fn qualifying_rows(
    scan: &ScanInfo,
    stored: &StoredTable,
    scans: &[ScanInfo],
    edges: &[JoinEdge],
    sdb: &SchemeDb,
    depth: usize,
) -> Result<Vec<bool>> {
    let rows = stored.rows();
    let mut mask = vec![true; rows];
    if rows == 0 || depth > 4 {
        return Ok(mask);
    }
    // Own predicates, evaluated one predicate at a time over the stored
    // columns *borrowed in place* — a plan-time reduction must not copy a
    // host column per qualifying pass. Each sargable predicate compiles to
    // the same flat test the scan residual kernels use; shapes the tests
    // cannot express (float comparisons, type mismatches) fall back to the
    // expression interpreter over just that predicate's column.
    for p in &scan.predicates {
        let idx = stored.column_index(&p.column)?;
        let col = stored.column(idx)?;
        let dt = stored.schema().columns[idx].data_type;
        let mut applied = false;
        match dt {
            DataType::Int | DataType::Date => {
                if let Some(t) = compile_int(&p.kind) {
                    for (m, v) in mask.iter_mut().zip(col.as_i64()?) {
                        *m = *m && int_test(&t, *v);
                    }
                    applied = true;
                }
            }
            DataType::Str => {
                if let Some(t) = compile_str(&p.kind) {
                    for (m, v) in mask.iter_mut().zip(col.as_str()?) {
                        *m = *m && str_test(&t, v);
                    }
                    applied = true;
                }
            }
            DataType::Float => {}
        }
        if !applied {
            let expr = predicates_to_expr(std::slice::from_ref(p)).expect("one predicate");
            let metas = vec![ColMeta::new(&p.column, dt)];
            let batch = Batch::new(vec![(**col).clone()]);
            let keep = expr.bind(&metas)?.eval_bool(&batch)?;
            for (m, k) in mask.iter_mut().zip(&keep) {
                *m = *m && *k;
            }
        }
    }
    // Semi-join reductions: host references another scanned table.
    for e in edges {
        if !e.referencing_scans.contains(&scan.scan_id) {
            continue;
        }
        let fk = sdb.db.catalog().fk(e.fk);
        if fk.from_table != scan.table {
            continue;
        }
        for &ref_id in &e.referenced_scans {
            let Some(ref_scan) = scans.iter().find(|s| s.scan_id == ref_id) else { continue };
            if ref_scan.table != fk.to_table {
                continue;
            }
            let ref_stored = sdb.db.stored(ref_scan.table).expect("attached");
            if ref_stored.rows() > ROW_EVAL_LIMIT {
                continue;
            }
            let ref_mask = qualifying_rows(ref_scan, ref_stored, scans, edges, sdb, depth + 1)?;
            if ref_mask.iter().all(|&m| m) {
                continue;
            }
            // Reduce host rows through the FK lookup.
            let host_rows = bdcc_core::resolve_host_rows(&sdb.db, scan.table, &[e.fk])?;
            for (m, &target) in mask.iter_mut().zip(&host_rows) {
                *m = *m && ref_mask[target as usize];
            }
        }
    }
    Ok(mask)
}

/// Sorted distinct bins → inclusive ranges.
pub fn bins_to_ranges(bins: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &b in bins {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == b => *hi = b,
            _ => out.push((b, b)),
        }
    }
    out
}

/// Sort and merge overlapping/adjacent ranges.
pub fn normalize_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Is `v` inside any range?
pub fn ranges_contain(ranges: &[(u64, u64)], v: u64) -> bool {
    ranges
        .binary_search_by(|&(lo, hi)| {
            if v < lo {
                std::cmp::Ordering::Greater
            } else if v > hi {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .is_ok()
}

fn collect(
    node: &Node,
    sdb: &SchemeDb,
    scans: &mut Vec<ScanInfo>,
    edges: &mut Vec<JoinEdge>,
) -> Result<()> {
    match node {
        Node::Scan { scan_id, table, predicates, .. } => {
            let id = sdb.db.catalog().table_id(table)?;
            scans.push(ScanInfo { scan_id: *scan_id, table: id, predicates: predicates.clone() });
        }
        Node::Filter { input, .. }
        | Node::Project { input, .. }
        | Node::Aggregate { input, .. }
        | Node::Sort { input, .. }
        | Node::Limit { input, .. } => collect(input, sdb, scans, edges)?,
        Node::Join { left, right, fk, .. } => {
            collect(left, sdb, scans, edges)?;
            collect(right, sdb, scans, edges)?;
            if let Some((name, side)) = fk {
                let fk_id = sdb.db.catalog().fks().iter().find(|f| &f.name == name).map(|f| f.id);
                if let Some(fk_id) = fk_id {
                    let (l, r) = (left.scan_ids(), right.scan_ids());
                    let (referencing, referenced) = match side {
                        FkSide::Left => (l, r),
                        FkSide::Right => (r, l),
                    };
                    edges.push(JoinEdge {
                        fk: fk_id,
                        referencing_scans: referencing,
                        referenced_scans: referenced,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_compression() {
        assert_eq!(bins_to_ranges(&[1, 2, 3, 7, 9, 10]), vec![(1, 3), (7, 7), (9, 10)]);
        assert_eq!(bins_to_ranges(&[]), vec![]);
        assert_eq!(
            normalize_ranges(vec![(5, 8), (0, 2), (3, 4), (10, 11)]),
            vec![(0, 8), (10, 11)]
        );
    }

    #[test]
    fn range_membership() {
        let rs = vec![(1, 3), (7, 7), (9, 10)];
        assert!(ranges_contain(&rs, 2));
        assert!(ranges_contain(&rs, 7));
        assert!(!ranges_contain(&rs, 5));
        assert!(!ranges_contain(&rs, 11));
        assert!(!ranges_contain(&[], 0));
    }
}
