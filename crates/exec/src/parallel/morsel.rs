//! Morsels: the work units of parallel execution.
//!
//! A morsel is a contiguous slice of a leaf scan — a range of MinMax
//! *blocks* for plain/PK scans, a range of selected count-table *groups*
//! for BDCC scatter-scans (groups are the paper's natural parallelism
//! unit: disjoint row ranges, pre-ordered by the planner's scatter
//! order). Both choices align morsel boundaries with the serial scan's
//! batch boundaries, which is what makes *ordered concatenation of
//! per-morsel streams reproduce the serial batch stream exactly* — the
//! correctness contract everything in [`crate::parallel`] rests on.

use std::ops::Range;
use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{IoTracker, StoredTable};

use crate::error::Result;
use crate::ops::bdcc_scan::{BdccScan, GroupSpec};
use crate::ops::scan::PlainScan;
use crate::ops::BoxedOp;
use crate::pred::ColPredicate;

/// One unit of scan work: an index range into the leaf's blocks or groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Morsel {
    /// MinMax statistics blocks `[start, end)` of a plain scan.
    Blocks(Range<usize>),
    /// Selected-group indices `[start, end)` of a scatter-scan (indices
    /// into the planner's ordered group list, not group keys).
    Groups(Range<usize>),
}

/// Split `nblocks` blocks of `block_rows` rows into morsels of at least
/// `morsel_rows` rows (whole blocks only — morsel boundaries must coincide
/// with block boundaries). Empty input yields no morsels.
pub fn split_blocks(nblocks: usize, block_rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    if nblocks == 0 {
        return Vec::new();
    }
    let per = morsel_rows.div_ceil(block_rows.max(1)).max(1);
    (0..nblocks).step_by(per).map(|lo| Morsel::Blocks(lo..(lo + per).min(nblocks))).collect()
}

/// Split `rows` already-materialized rows (a probe batch, a group's rows)
/// into contiguous ranges of at most `morsel_rows` rows — the probe-side
/// counterpart of [`split_blocks`]/[`split_groups`]: ranges tile `0..rows`
/// in order, so per-range results concatenated in range order reproduce a
/// serial row loop exactly.
pub fn split_rows(rows: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    (0..rows).step_by(step).map(|lo| lo..(lo + step).min(rows)).collect()
}

/// Split an ordered group list into morsels of roughly `morsel_rows` rows.
/// Groups are indivisible (a batch never crosses a group boundary), so a
/// single over-sized group becomes its own morsel; tiny groups coalesce
/// until the row budget fills. Preserves order and tiles the list:
/// every group lands in exactly one morsel.
pub fn split_groups(groups: &[GroupSpec], morsel_rows: usize) -> Vec<Morsel> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut acc = 0usize;
    for (i, g) in groups.iter().enumerate() {
        acc += g.rows();
        if acc >= morsel_rows.max(1) {
            out.push(Morsel::Groups(start..i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < groups.len() {
        out.push(Morsel::Groups(start..groups.len()));
    }
    out
}

/// Everything needed to (re)build a leaf scan operator, either whole or
/// restricted to one morsel — the planner emits one blueprint per leaf,
/// and workers instantiate per-morsel scans from it concurrently (it is
/// `Sync`: an [`Arc<StoredTable>`] plus owned plan data).
pub struct ScanBlueprint {
    pub table: Arc<StoredTable>,
    pub columns: Vec<String>,
    pub predicates: Vec<ColPredicate>,
    pub kind: ScanKind,
}

/// The access-path-specific half of a [`ScanBlueprint`].
pub enum ScanKind {
    /// Plain scan (Plain and PK schemes): morsels are block ranges.
    Plain,
    /// BDCC scatter-scan: the planner's selected groups in scatter order,
    /// plus the emitted group-key column names; morsels are group ranges.
    Bdcc { group_key_names: Vec<String>, groups: Vec<GroupSpec> },
}

impl ScanBlueprint {
    /// Rows this scan would read if run whole (pre-pruning weight used to
    /// decide whether going parallel is worth it).
    pub fn total_rows(&self) -> usize {
        match &self.kind {
            ScanKind::Plain => self.table.rows(),
            ScanKind::Bdcc { groups, .. } => groups.iter().map(|g| g.rows()).sum(),
        }
    }

    /// Partition this scan into morsels of roughly `morsel_rows` rows.
    pub fn morsels(&self, morsel_rows: usize) -> Vec<Morsel> {
        match &self.kind {
            ScanKind::Plain => {
                split_blocks(self.table.block_count(), self.table.block_rows(), morsel_rows)
            }
            ScanKind::Bdcc { groups, .. } => split_groups(groups, morsel_rows),
        }
    }

    /// Build the scan operator for one morsel (or the whole scan when
    /// `morsel` is `None`). Workers call this concurrently.
    pub fn build(&self, io: &IoTracker, morsel: Option<&Morsel>) -> Result<BoxedOp> {
        self.build_with_metrics(io, morsel, None)
    }

    /// [`build`](Self::build) with operator metrics attached to the scan, so
    /// block-skip counters (MinMax pruning, encoded-path eliminations)
    /// aggregate across the morsels of one profiled leaf.
    pub fn build_with_metrics(
        &self,
        io: &IoTracker,
        morsel: Option<&Morsel>,
        metrics: Option<Arc<OpMetrics>>,
    ) -> Result<BoxedOp> {
        let cols: Vec<&str> = self.columns.iter().map(|s| s.as_str()).collect();
        match (&self.kind, morsel) {
            (ScanKind::Plain, None) => Ok(Box::new(
                PlainScan::new(
                    Arc::clone(&self.table),
                    io.clone(),
                    &cols,
                    self.predicates.clone(),
                )?
                .with_metrics(metrics),
            )),
            (ScanKind::Plain, Some(Morsel::Blocks(r))) => Ok(Box::new(
                PlainScan::with_block_range(
                    Arc::clone(&self.table),
                    io.clone(),
                    &cols,
                    self.predicates.clone(),
                    r.clone(),
                )?
                .with_metrics(metrics),
            )),
            (ScanKind::Bdcc { group_key_names, groups }, m) => {
                let subset = match m {
                    None => groups.clone(),
                    Some(Morsel::Groups(r)) => groups[r.clone()].to_vec(),
                    Some(Morsel::Blocks(_)) => {
                        return Err(crate::error::ExecError::Internal(
                            "block morsel on a scatter-scan".into(),
                        ))
                    }
                };
                Ok(Box::new(
                    BdccScan::new(
                        Arc::clone(&self.table),
                        io.clone(),
                        &cols,
                        self.predicates.clone(),
                        group_key_names,
                        subset,
                    )?
                    .with_metrics(metrics),
                ))
            }
            (ScanKind::Plain, Some(Morsel::Groups(_))) => {
                Err(crate::error::ExecError::Internal("group morsel on a plain scan".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(start: usize, count: usize) -> GroupSpec {
        GroupSpec { start, count, group_keys: vec![] }
    }

    #[test]
    fn blocks_split_into_aligned_ranges() {
        // 10 blocks of 4 rows, 8-row morsels → 2 blocks per morsel.
        let m = split_blocks(10, 4, 8);
        assert_eq!(m.len(), 5);
        assert_eq!(m[0], Morsel::Blocks(0..2));
        assert_eq!(m[4], Morsel::Blocks(8..10));
        // Morsel smaller than a block still takes whole blocks.
        let m = split_blocks(3, 4096, 100);
        assert_eq!(m.len(), 3);
        // Everything fits one morsel.
        assert_eq!(split_blocks(3, 4, 1000), vec![Morsel::Blocks(0..3)]);
    }

    #[test]
    fn empty_table_yields_no_morsels() {
        assert!(split_blocks(0, 4096, 1024).is_empty());
        assert!(split_groups(&[], 1024).is_empty());
    }

    #[test]
    fn uneven_groups_tile_without_splitting_any_group() {
        // Sizes 1, 7, 2, 100, 1, 1 with a 8-row budget: the 100-row group
        // must not be split, tiny neighbours coalesce.
        let groups: Vec<GroupSpec> = [1, 7, 2, 100, 1, 1]
            .iter()
            .scan(0, |s, &c| {
                let g = group(*s, c);
                *s += c;
                Some(g)
            })
            .collect();
        let m = split_groups(&groups, 8);
        assert_eq!(
            m,
            vec![
                Morsel::Groups(0..2), // 1 + 7 = 8
                Morsel::Groups(2..4), // 2 + 100 (oversized group closes the morsel)
                Morsel::Groups(4..6), // trailing remainder
            ]
        );
        // Every group appears exactly once, in order.
        let covered: Vec<usize> = m
            .iter()
            .flat_map(|m| match m {
                Morsel::Groups(r) => r.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(covered, (0..groups.len()).collect::<Vec<_>>());
    }

    #[test]
    fn one_row_table_is_one_morsel() {
        assert_eq!(split_blocks(1, 4096, 4096), vec![Morsel::Blocks(0..1)]);
        assert_eq!(split_groups(&[group(0, 1)], 4096), vec![Morsel::Groups(0..1)]);
    }

    #[test]
    fn zero_row_groups_coalesce() {
        let groups = vec![group(0, 0), group(0, 0), group(0, 5)];
        let m = split_groups(&groups, 4);
        assert_eq!(m, vec![Morsel::Groups(0..3)]);
    }
}
