//! Plan-time selection pushdown and propagation for the BDCC scheme.
//!
//! **The rule.** A scan of a clustered table may skip every count-table
//! group whose bin prefix, for some dimension use, holds no surviving host
//! row. So for each `(scan, use)` the planner needs exactly one thing:
//! *the set of the dimension's bins that hold at least one qualifying host
//! row* — not which rows qualify, nor how many.
//!
//! 1. The use's dimension path is matched against the query's join edges
//!    (a restriction may only propagate from the dimension host to a fact
//!    table if the query actually joins along every foreign key of the
//!    path — Section II's selection-propagation condition). A join is an
//!    edge only where it drops the referencing rows that reference no
//!    survivor: inner and semi joins, and anti and left outer joins whose
//!    referencing side is the right one — their left side is preserved.
//! 2. A host row qualifies when it passes the host scan's own predicates
//!    and, for every join *below* the host that follows one of its foreign
//!    keys (REGION restricting NATION — the paper's compound-key trick),
//!    references a qualifying row of that table, recursively.
//!
//! **What is build time.** Which bin a host row falls in and which row a
//! foreign key references are facts of the stored data:
//! [`bdcc_scheme`](crate::scheme::bdcc_scheme) computes both once, over the
//! clustered row order, into the [`PlanIndex`](crate::scheme::PlanIndex).
//! Plan time looks them up; it builds no hash map over a table, creates no
//! key tuple and sorts nothing.
//!
//! **What is per plan.** One `Reduction` per [`compute_restrictions`]
//! call memoises each host scan's surviving bins and each referenced
//! table's row mask, so every `(scan, use)` pair and every recursive step
//! that reaches them shares one evaluation (LINEITEM's and ORDERS' `D_DATE`
//! uses reduce the ORDERS host once). Predicates compile through
//! [`enc::compile`](crate::enc) to the typed tests the scan kernel runs —
//! integer, float and string columns alike — and test the stored column in
//! place; a predicate the interpreter would reject for its column's type
//! is an [`ExecError::Type`].
//!
//! **Why the walk short-circuits.** The host is walked once, row by row,
//! and a row whose bin already has a survivor is skipped untested: the
//! answer is per bin, so a second survivor buys nothing. A predicate that
//! cannot prune (Q13's `NOT LIKE`, which 99 % of ORDERS pass) therefore
//! costs about one test per bin instead of one per row; a selective one
//! pays only for the rows of the bins it empties. When every occupied bin
//! survives the use comes back unrestricted.
//!
//! **What `ROW_EVAL_LIMIT` decides.** Hosts above it are not walked (nor
//! indexed): the sargable predicates on the dimension key are translated
//! analytically via [`Dimension::bin_range`]. Referenced tables above it
//! do not reduce their referrers.
//!
//! The surviving bins are compressed into ranges; the physical scan then
//! selects only count-table groups whose bin prefix intersects
//! ([`ranges_overlap`]).

use std::collections::HashMap;
use std::rc::Rc;

use bdcc_catalog::{FkId, TableId};
use bdcc_core::{DimId, Dimension, KeyValue};
use bdcc_storage::{StoredTable, StrVec};

use crate::enc::{compile, float_key, ill_typed, int_test, str_test, ColTest, IntTest, StrTest};
use crate::error::{ExecError, Result};
use crate::ops::join::JoinType;
use crate::plan::{FkSide, Node};
use crate::pred::ColPredicate;
use crate::scheme::SchemeDb;

/// Inclusive bin ranges at full dimension granularity, sorted and disjoint.
pub type BinRanges = Vec<(u64, u64)>;

/// Allowed bin ranges per `(scan_id, use_idx)`. Absent key = unrestricted.
pub type Restrictions = HashMap<(usize, usize), BinRanges>;

/// A join edge extracted from the plan: the foreign key plus the scan ids
/// on the referencing and referenced sides.
#[derive(Debug)]
struct JoinEdge {
    fk: FkId,
    referencing_scans: Vec<usize>,
    referenced_scans: Vec<usize>,
}

/// Per-scan info extracted from the plan.
#[derive(Debug)]
struct ScanInfo<'p> {
    scan_id: usize,
    table: TableId,
    predicates: &'p [ColPredicate],
}

/// Tables larger than this are handled analytically (hosts) or not at all
/// (referenced tables) instead of row-wise.
pub(crate) const ROW_EVAL_LIMIT: usize = 1 << 17;

/// Semi-join reductions are followed at most this many joins below a host.
const MAX_DEPTH: usize = 4;

/// Compute all bin restrictions for a query under the BDCC scheme.
pub fn compute_restrictions(plan: &Node, sdb: &SchemeDb) -> Result<Restrictions> {
    let Some(schema) = &sdb.bdcc else { return Ok(Restrictions::new()) };
    let mut scans = Vec::new();
    let mut edges = Vec::new();
    collect(plan, sdb, &mut scans, &mut edges)?;
    let mut reduction = Reduction {
        sdb,
        scans: &scans,
        edges: &edges,
        hosts: HashMap::new(),
        masks: HashMap::new(),
    };
    let mut out = Restrictions::new();
    for scan in &scans {
        let Some(bt) = schema.tables.get(&scan.table) else { continue };
        for (use_idx, u) in bt.uses.iter().enumerate() {
            let dim = schema.dimension(u.dim);
            // The union over the host occurrences the path reaches; one
            // unrestricted occurrence makes the whole use unrestricted.
            let hosts = reduction.path_hosts(scan.scan_id, &u.path);
            let mut union = BinRanges::new();
            let mut restricted = !hosts.is_empty();
            for host_id in hosts {
                match reduction.allowed_bins(host_id, dim)? {
                    Some(ranges) => union.extend_from_slice(ranges),
                    None => {
                        restricted = false;
                        break;
                    }
                }
            }
            if restricted {
                out.insert((scan.scan_id, use_idx), normalize_ranges(union));
            }
        }
    }
    Ok(out)
}

/// One predicate of a scan, bound to the stored column it tests.
enum RowTest<'a> {
    Int(IntTest, &'a [i64]),
    Float(IntTest, &'a [f64]),
    Str(StrTest, &'a StrVec),
}

/// Everything that decides whether a row of one scan qualifies: its own
/// predicates, then each semi-join reduction as `(referenced row of every
/// row, mask of the referenced table)`.
struct RowFilter<'a> {
    tests: Vec<RowTest<'a>>,
    semis: Vec<(&'a [u32], Rc<[bool]>)>,
}

impl RowFilter<'_> {
    fn passes_everything(&self) -> bool {
        self.tests.is_empty() && self.semis.is_empty()
    }

    fn passes(&self, row: usize) -> bool {
        self.tests.iter().all(|t| match t {
            RowTest::Int(t, values) => int_test(t, values[row]),
            RowTest::Float(t, values) => int_test(t, float_key(values[row])),
            RowTest::Str(t, values) => str_test(t, &values[row]),
        }) && self.semis.iter().all(|(target, mask)| mask[target[row] as usize])
    }
}

/// The per-plan memo: every host scan is reduced once per dimension and
/// every referenced table masked once (per depth it is reached at),
/// whichever `(scan, use)` pairs and recursive steps ask.
struct Reduction<'a> {
    sdb: &'a SchemeDb,
    scans: &'a [ScanInfo<'a>],
    edges: &'a [JoinEdge],
    /// Allowed bin ranges per `(host scan, dimension)`; `None` =
    /// unrestricted.
    hosts: HashMap<(usize, DimId), Option<BinRanges>>,
    /// Qualifying rows per `(referenced scan, depth)`; `None` = all.
    masks: HashMap<(usize, usize), Option<Rc<[bool]>>>,
}

impl<'a> Reduction<'a> {
    fn scan(&self, scan_id: usize) -> Option<&'a ScanInfo<'a>> {
        self.scans.iter().find(|s| s.scan_id == scan_id)
    }

    fn stored(&self, table: TableId) -> Result<&'a StoredTable> {
        self.sdb.db.stored(table).map(|t| &**t).ok_or_else(|| {
            ExecError::Plan(format!("no storage for {}", self.sdb.db.catalog().table_name(table)))
        })
    }

    /// The host-table scans `path` leads to from `scan_id` along the
    /// query's join edges; empty when the query does not join along it.
    fn path_hosts(&self, scan_id: usize, path: &[FkId]) -> Vec<usize> {
        let mut cur = vec![scan_id];
        for &fk in path {
            let target = self.sdb.db.catalog().fk(fk).to_table;
            let mut next = Vec::new();
            for e in self.edges {
                if e.fk == fk && e.referencing_scans.iter().any(|s| cur.contains(s)) {
                    next.extend(
                        e.referenced_scans
                            .iter()
                            .copied()
                            .filter(|&rs| self.scan(rs).is_some_and(|s| s.table == target)),
                    );
                }
            }
            cur = next;
        }
        cur
    }

    /// Allowed bins of `dim` given the host scan's predicates (plus
    /// semi-join reductions through joins below the host). `None` =
    /// unrestricted.
    fn allowed_bins(&mut self, host_id: usize, dim: &Dimension) -> Result<Option<&[(u64, u64)]>> {
        let key = (host_id, dim.id);
        if !self.hosts.contains_key(&key) {
            let host = self.scan(host_id).expect("path_hosts returns known scans");
            let ranges = if self.stored(host.table)?.rows() <= ROW_EVAL_LIMIT {
                self.walk_host(host, dim)?
            } else {
                key_range_bins(host.predicates, dim)
            };
            self.hosts.insert(key, ranges);
        }
        Ok(self.hosts[&key].as_deref())
    }

    /// Row-wise: the bins of `dim` holding a qualifying row of `host`.
    fn walk_host(&mut self, host: &ScanInfo<'a>, dim: &Dimension) -> Result<Option<BinRanges>> {
        let filter = self.row_filter(host, 0)?;
        if filter.passes_everything() {
            return Ok(None);
        }
        let bins = self.sdb.plan_index.host_bins(dim.id).ok_or_else(|| {
            ExecError::Plan(format!("no plan index for the host rows of {}", dim.name))
        })?;
        let survivors =
            surviving_bins(&bins.row_bin, dim.bin_count(), bins.occupied, |row| filter.passes(row));
        Ok(survivors.map(|bins| bins_to_ranges(&bins)))
    }

    /// Compile `scan`'s own predicates over its stored columns (borrowed in
    /// place) and gather the masks of the tables it references through
    /// joined foreign keys.
    fn row_filter(&mut self, scan: &ScanInfo<'a>, depth: usize) -> Result<RowFilter<'a>> {
        let stored = self.stored(scan.table)?;
        let mut tests = Vec::with_capacity(scan.predicates.len());
        for p in scan.predicates {
            let idx = stored.column_index(&p.column)?;
            let col = stored.column(idx)?;
            let dt = stored.schema().columns[idx].data_type;
            tests.push(match compile(&p.kind, dt).ok_or_else(|| ill_typed(p, dt))? {
                ColTest::Int(t) => RowTest::Int(t, col.as_i64()?),
                ColTest::Float(t) => RowTest::Float(t, col.as_f64()?),
                ColTest::Str(t) => RowTest::Str(t, col.as_str()?),
            });
        }
        let mut semis = Vec::new();
        let edges = self.edges;
        for e in edges.iter().filter(|e| e.referencing_scans.contains(&scan.scan_id)) {
            let fk = self.sdb.db.catalog().fk(e.fk);
            if fk.from_table != scan.table {
                continue;
            }
            for &ref_id in &e.referenced_scans {
                let Some(ref_scan) = self.scan(ref_id).filter(|s| s.table == fk.to_table) else {
                    continue;
                };
                let Some(mask) = self.ref_mask(ref_scan, depth + 1)? else { continue };
                let target = self.sdb.plan_index.fk_rows(e.fk).ok_or_else(|| {
                    ExecError::Plan(format!("no plan index for foreign key {}", fk.name))
                })?;
                semis.push((target, mask));
            }
        }
        Ok(RowFilter { tests, semis })
    }

    /// Which rows of a referenced table qualify; `None` when all do (or
    /// the table is too large, or too far below the host, to evaluate).
    fn ref_mask(&mut self, scan: &ScanInfo<'a>, depth: usize) -> Result<Option<Rc<[bool]>>> {
        let key = (scan.scan_id, depth);
        if let Some(mask) = self.masks.get(&key) {
            return Ok(mask.clone());
        }
        let rows = self.stored(scan.table)?.rows();
        let mask = if rows > ROW_EVAL_LIMIT || depth > MAX_DEPTH {
            None
        } else {
            let filter = self.row_filter(scan, depth)?;
            let mask: Rc<[bool]> = (0..rows).map(|row| filter.passes(row)).collect();
            mask.contains(&false).then_some(mask)
        };
        self.masks.insert(key, mask.clone());
        Ok(mask)
    }
}

/// The bins (ascending) that hold at least one row that `passes`, walking
/// the rows once and never testing a row whose bin already has a survivor.
/// `None` when all `occupied` bins survive, i.e. nothing can be pruned.
fn surviving_bins(
    row_bin: &[u64],
    bin_count: usize,
    occupied: usize,
    mut passes: impl FnMut(usize) -> bool,
) -> Option<Vec<u64>> {
    let mut alive = vec![false; bin_count];
    let mut dead = occupied;
    for (row, &bin) in row_bin.iter().enumerate() {
        if dead == 0 {
            break;
        }
        if !alive[bin as usize] && passes(row) {
            alive[bin as usize] = true;
            dead -= 1;
        }
    }
    (dead > 0).then(|| (0..bin_count as u64).filter(|&b| alive[b as usize]).collect())
}

/// Analytic: intersect the sargable ranges on the dimension key's leading
/// column and map the result to its contiguous bin range.
fn key_range_bins(predicates: &[ColPredicate], dim: &Dimension) -> Option<BinRanges> {
    let mut lo: Option<KeyValue> = None;
    let mut hi: Option<KeyValue> = None;
    for p in predicates.iter().filter(|p| p.column == dim.key[0]) {
        let (plo, phi) = p.value_range();
        if let Some(kv) = plo.map(KeyValue::single) {
            if lo.as_ref().is_none_or(|cur| cur.prefix_cmp(&kv).is_lt()) {
                lo = Some(kv);
            }
        }
        if let Some(kv) = phi.map(KeyValue::single) {
            if hi.as_ref().is_none_or(|cur| cur.prefix_cmp(&kv).is_gt()) {
                hi = Some(kv);
            }
        }
    }
    if lo.is_none() && hi.is_none() {
        return None;
    }
    Some(dim.bin_range(lo.as_ref(), hi.as_ref()).into_iter().collect())
}

/// Sorted distinct bins → inclusive ranges.
pub fn bins_to_ranges(bins: &[u64]) -> BinRanges {
    let mut out = BinRanges::new();
    for &b in bins {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == b => *hi = b,
            _ => out.push((b, b)),
        }
    }
    out
}

/// Sort and merge overlapping/adjacent ranges.
pub fn normalize_ranges(mut ranges: BinRanges) -> BinRanges {
    ranges.sort_unstable();
    let mut out = BinRanges::new();
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Does `[lo, hi]` intersect any of the normalised (sorted, disjoint)
/// `ranges`?
pub fn ranges_overlap(ranges: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    // The first range ending at or after `lo` is the only candidate: those
    // before it end below `lo`, those after it start even further right.
    let first = ranges.partition_point(|&(_, rhi)| rhi < lo);
    ranges.get(first).is_some_and(|&(rlo, _)| rlo <= hi)
}

fn collect<'p>(
    node: &'p Node,
    sdb: &SchemeDb,
    scans: &mut Vec<ScanInfo<'p>>,
    edges: &mut Vec<JoinEdge>,
) -> Result<()> {
    match node {
        Node::Scan { scan_id, table, predicates, .. } => {
            let id = sdb.db.catalog().table_id(table)?;
            scans.push(ScanInfo { scan_id: *scan_id, table: id, predicates });
        }
        Node::Filter { input, .. }
        | Node::Project { input, .. }
        | Node::Aggregate { input, .. }
        | Node::Sort { input, .. } => collect(input, sdb, scans, edges)?,
        Node::Join { left, right, fk, join_type, .. } => {
            collect(left, sdb, scans, edges)?;
            collect(right, sdb, scans, edges)?;
            // Restricting the referencing side to rows that reference a
            // survivor drops only rows the join drops too: on inner and
            // semi joins either side may reference, on anti and left outer
            // joins only the right one — their left side is preserved.
            let fk = fk.as_ref().filter(|(_, side)| {
                matches!(join_type, JoinType::Inner | JoinType::Semi) || *side == FkSide::Right
            });
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
    fn range_overlap_matches_the_linear_scan() {
        let rs = vec![(1, 3), (7, 7), (9, 10)];
        for lo in 0..13 {
            for hi in lo..13 {
                let linear = rs.iter().any(|&(rlo, rhi)| rlo <= hi && lo <= rhi);
                assert_eq!(ranges_overlap(&rs, lo, hi), linear, "[{lo}, {hi}]");
            }
        }
        assert!(!ranges_overlap(&[], 0, u64::MAX));
    }

    /// The walk stops paying for a bin once it has a survivor: a predicate
    /// only row 0 fails costs one extra test in row 0's bin and one test
    /// in every other bin, not one per row.
    #[test]
    fn walk_tests_about_one_row_per_bin_when_nothing_is_pruned() {
        let (rows, bins) = (10_000usize, 16usize);
        let row_bin: Vec<u64> = (0..rows).map(|r| (r * bins / rows) as u64).collect();
        let rows_in_first_bin = row_bin.iter().filter(|&&b| b == 0).count();
        let mut evaluations = 0usize;
        let survivors = surviving_bins(&row_bin, bins, bins, |row| {
            evaluations += 1;
            row != 0
        });
        assert_eq!(survivors, None, "every bin keeps a survivor: unrestricted");
        assert!(evaluations <= rows_in_first_bin + bins, "{evaluations} evaluations");
        assert_eq!(evaluations, bins + 1);

        // A predicate that empties bin 3 pays for every row of bin 3 only.
        let mut evaluations = 0usize;
        let survivors = surviving_bins(&row_bin, bins, bins, |row| {
            evaluations += 1;
            row_bin[row] != 3
        });
        let expect: Vec<u64> = (0..bins as u64).filter(|&b| b != 3).collect();
        assert_eq!(survivors, Some(expect));
        assert_eq!(evaluations, (bins - 1) + rows / bins);
    }

    #[test]
    fn walk_edge_cases() {
        // No row passes: an empty bin list (zero groups), not "unrestricted".
        assert_eq!(surviving_bins(&[0, 1, 1], 2, 2, |_| false), Some(vec![]));
        // A bin that holds no row (2) neither survives nor blocks the
        // all-occupied-bins-survive verdict.
        assert_eq!(surviving_bins(&[0, 1, 3], 4, 3, |_| true), None);
        assert_eq!(surviving_bins(&[0, 1, 3], 4, 3, |row| row != 1), Some(vec![0, 3]));
        // An empty host restricts nothing.
        assert_eq!(surviving_bins(&[], 4, 0, |_| false), None);
    }
}
