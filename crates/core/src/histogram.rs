//! Logarithmic group-size histograms per count-table granularity.
//!
//! During bulk-load BDCC piggy-backs an aggregation that, "for each of the
//! d·b possible count-table bit granularities", builds "a logarithmic group
//! size histogram (entry x counts groups of size [2^(x−1), 2^x))". These
//! histograms let Algorithm 1 pick a granularity whose groups stay above
//! the efficient random access size even when correlated or hierarchical
//! dimensions produce far fewer groups than 2^(d·b) ("puff pastry").
//!
//! All `B + 1` histograms come from one pass over the sorted keys. Where
//! two neighbouring keys first differ in bit `p`, the boundary between them
//! closes a group at every granularity `g ≥ B − p` and at no coarser one,
//! so the pass keeps one open-group start per granularity and closes the
//! affected ones at each boundary. That is the same number of group closes
//! a level-by-level cascade performs, without materialising a run vector
//! per level.

/// Group-size statistics for every granularity `0..=total_bits`.
#[derive(Debug, Clone)]
pub struct GranularityHistograms {
    pub total_bits: u32,
    /// `hist[g][x]` counts groups at granularity `g` of size in
    /// `[2^(x−1), 2^x)`; `x = floor(log2 s) + 1` for group size `s ≥ 1`.
    pub hist: Vec<Vec<u64>>,
    /// Number of groups at each granularity.
    pub group_counts: Vec<u64>,
}

impl GranularityHistograms {
    /// Build every granularity's histogram from the sorted clustering keys
    /// in one pass (`keys` must be sorted ascending and `total_bits` wide;
    /// see the module docs). `hist[g]` ends at its largest occupied bucket.
    pub fn from_sorted_keys(keys: &[u64], total_bits: u32) -> GranularityHistograms {
        let levels = total_bits as usize + 1;
        let mut hist = vec![Vec::new(); levels];
        let mut group_counts = vec![0u64; levels];
        // Row where the open group of each granularity started.
        let mut open = vec![0usize; levels];
        let mut close = |g: usize, end: usize| {
            let bucket = log_bucket((end - open[g]) as u64);
            let h: &mut Vec<u64> = &mut hist[g];
            if h.len() <= bucket {
                h.resize(bucket + 1, 0);
            }
            h[bucket] += 1;
            group_counts[g] += 1;
            open[g] = end;
        };
        for (i, w) in keys.windows(2).enumerate() {
            let diff = w[0] ^ w[1];
            if diff != 0 {
                let p = u64::BITS - 1 - diff.leading_zeros();
                for g in total_bits.saturating_sub(p) as usize..levels {
                    close(g, i + 1);
                }
            }
        }
        if !keys.is_empty() {
            for g in 0..levels {
                close(g, keys.len());
            }
        }
        GranularityHistograms { total_bits, hist, group_counts }
    }

    /// Fraction of groups at granularity `g` holding at least `min_rows`
    /// rows, computed from the log histogram (conservatively: a bucket
    /// counts as "above" only if its *lower* edge `2^(x−1)` is ≥ min_rows).
    pub fn fraction_at_least(&self, g: u32, min_rows: u64) -> f64 {
        let h = &self.hist[g as usize];
        let total: u64 = h.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = h
            .iter()
            .enumerate()
            .filter(|&(x, _)| bucket_lower_edge(x) >= min_rows)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / total as f64
    }

    /// Number of groups at granularity `g`.
    pub fn groups_at(&self, g: u32) -> u64 {
        self.group_counts[g as usize]
    }
}

/// Histogram bucket of a group of size `s ≥ 1`: `x` with
/// `s ∈ [2^(x−1), 2^x)`.
pub fn log_bucket(s: u64) -> usize {
    debug_assert!(s >= 1);
    (64 - s.leading_zeros()) as usize
}

/// Lower edge `2^(x−1)` of bucket `x` (bucket 0 is unused and returns 0).
pub fn bucket_lower_edge(x: usize) -> u64 {
    if x == 0 {
        0
    } else {
        1u64 << (x - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_paper_definition() {
        assert_eq!(log_bucket(1), 1); // [1, 2)
        assert_eq!(log_bucket(2), 2); // [2, 4)
        assert_eq!(log_bucket(3), 2);
        assert_eq!(log_bucket(4), 3); // [4, 8)
        assert_eq!(bucket_lower_edge(1), 1);
        assert_eq!(bucket_lower_edge(3), 4);
    }

    #[test]
    fn cascade_counts_groups_per_granularity() {
        // 2-bit keys: 0,0,1,2,2,2,3 → groups at g=2: sizes 2,1,3,1.
        let keys = [0u64, 0, 1, 2, 2, 2, 3];
        let h = GranularityHistograms::from_sorted_keys(&keys, 2);
        assert_eq!(h.groups_at(2), 4);
        // g=1: keys>>1: 0,0,0,1,1,1,1 → 2 groups (3 and 4 rows).
        assert_eq!(h.groups_at(1), 2);
        assert_eq!(h.hist[1][2], 1); // size 3 ∈ [2,4)
        assert_eq!(h.hist[1][3], 1); // size 4 ∈ [4,8)
                                     // g=0: one group of 7.
        assert_eq!(h.groups_at(0), 1);
        assert_eq!(h.hist[0][3], 1);
    }

    #[test]
    fn missing_groups_from_correlation_are_visible() {
        // Puff pastry: 4-bit space but only 2 distinct keys occur.
        let keys = [0b0000u64, 0b0000, 0b1111, 0b1111];
        let h = GranularityHistograms::from_sorted_keys(&keys, 4);
        assert_eq!(h.groups_at(4), 2); // far fewer than 2^4
        assert_eq!(h.groups_at(1), 2);
        assert_eq!(h.groups_at(0), 1);
    }

    #[test]
    fn fraction_at_least_is_conservative() {
        let keys = [0u64, 0, 0, 0, 1, 2, 2, 3, 3, 3, 3, 3];
        // g=2 groups: 4,1,2,5.
        let h = GranularityHistograms::from_sorted_keys(&keys, 2);
        // min_rows=2: buckets with lower edge >=2: size 4 (bucket 3, edge 4),
        // size 2 (bucket 2, edge 2), size 5 (bucket 3). Size-1 group excluded.
        assert!((h.fraction_at_least(2, 2) - 0.75).abs() < 1e-9);
        assert_eq!(h.fraction_at_least(2, 1), 1.0);
        // Empty input.
        let e = GranularityHistograms::from_sorted_keys(&[], 2);
        assert_eq!(e.fraction_at_least(2, 1), 0.0);
    }

    #[test]
    fn total_rows_conserved_across_granularities() {
        let keys: Vec<u64> = (0..100).map(|i| i % 8).collect::<Vec<_>>();
        let mut sorted = keys.clone();
        sorted.sort();
        let h = GranularityHistograms::from_sorted_keys(&sorted, 3);
        for g in 0..=3 {
            let rows: u64 = h.hist[g as usize].iter().sum::<u64>();
            // groups ≤ rows and group count matches histogram mass
            assert_eq!(rows, h.groups_at(g));
        }
    }
}
