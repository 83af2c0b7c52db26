//! Morsels: the work units of parallel execution.
//!
//! A leaf scan reads an ordered list of runs ([`Run`]: the selected
//! count-table groups of a BDCC table in the planner's scatter order — the
//! paper's natural parallelism unit, disjoint row ranges — or the MinMax
//! blocks of a Plain / PK table), and a scan morsel is a contiguous range
//! of run indices. A batch never crosses a run and a morsel never splits
//! one, so morsel boundaries are batch boundaries of the inline walk, which
//! is what makes *ordered concatenation of per-morsel streams reproduce the
//! inline batch stream exactly* — the correctness contract everything in
//! [`crate::parallel`] rests on.

use std::ops::Range;

use crate::ops::scan::Run;

/// One unit of scan work: run indices `[start, end)` of the leaf's run list
/// (positions in the planner's ordered list, not group keys).
pub type Morsel = Range<usize>;

/// Split an ordered run list into morsels of roughly `morsel_rows` rows.
/// Runs are indivisible (a batch never crosses a run boundary), so a single
/// over-sized run becomes its own morsel; small runs coalesce until the row
/// budget fills — uniform blocks of `b` rows therefore tile into morsels of
/// `⌈morsel_rows / b⌉` whole blocks. Preserves order and tiles the list:
/// every run lands in exactly one morsel.
pub fn split_runs(runs: &[Run], morsel_rows: usize) -> Vec<Morsel> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut acc = 0usize;
    for (i, run) in runs.iter().enumerate() {
        acc += run.count;
        if acc >= morsel_rows.max(1) {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < runs.len() {
        out.push(start..runs.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Contiguous key-less runs of the given sizes.
    fn runs(sizes: &[usize]) -> Vec<Run> {
        let mut start = 0;
        sizes
            .iter()
            .map(|&count| {
                let run = Run { start, count, keys: vec![] };
                start += count;
                run
            })
            .collect()
    }

    #[test]
    fn uniform_blocks_split_into_aligned_ranges() {
        // 10 blocks of 4 rows, 8-row morsels → 2 blocks per morsel.
        let m = split_runs(&runs(&[4; 10]), 8);
        assert_eq!(m.len(), 5);
        assert_eq!(m[0], 0..2);
        assert_eq!(m[4], 8..10);
        // 7-row morsels still take ⌈7 / 4⌉ = 2 whole blocks, and a short
        // last block rides in the trailing morsel.
        assert_eq!(split_runs(&runs(&[4, 4, 4, 4, 1]), 7), vec![0..2, 2..4, 4..5]);
        // Morsel smaller than a block still takes whole blocks.
        assert_eq!(split_runs(&runs(&[4096; 3]), 100).len(), 3);
        // Everything fits one morsel.
        assert_eq!(split_runs(&runs(&[4; 3]), 1000), vec![0..3]);
    }

    #[test]
    fn empty_table_yields_no_morsels() {
        assert!(split_runs(&[], 1024).is_empty());
    }

    #[test]
    fn uneven_runs_tile_without_splitting_any_run() {
        // Sizes 1, 7, 2, 100, 1, 1 with a 8-row budget: the 100-row run
        // must not be split, tiny neighbours coalesce.
        let m = split_runs(&runs(&[1, 7, 2, 100, 1, 1]), 8);
        assert_eq!(
            m,
            vec![
                0..2, // 1 + 7 = 8
                2..4, // 2 + 100 (oversized run closes the morsel)
                4..6, // trailing remainder
            ]
        );
        // Every run appears exactly once, in order.
        let covered: Vec<usize> = m.into_iter().flatten().collect();
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn one_row_table_is_one_morsel() {
        assert_eq!(split_runs(&runs(&[1]), 4096), vec![0..1]);
    }

    #[test]
    fn zero_row_runs_coalesce() {
        assert_eq!(split_runs(&runs(&[0, 0, 5]), 4), vec![0..3]);
    }
}
