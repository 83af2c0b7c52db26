//! Dimension creation: frequency-balanced binning (ref \[4\] of the paper).
//!
//! Algorithm 2(ii) creates each dimension from "a histogram on the union of
//! all tables Ti joined over dimension path Pi, projecting only the
//! dimension keys": i.e. each key value is weighted by how many tuples —
//! across *all* use sites — reference it. Equi-depth binning over that
//! weighted multiset balances group sizes under skew; equi-width binning is
//! provided as the ablation baseline.

use std::cmp::Ordering;

use bdcc_catalog::TableId;
#[cfg(test)]
use bdcc_storage::Datum;

use crate::dimension::{bits_for_bins, BinEntry, DimId, Dimension, KeyValue};
use crate::error::{BdccError, Result};

/// How bin boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinningStrategy {
    /// Balance the total *weight* (referencing tuples) per bin — the
    /// paper's frequency-based algorithm (ref \[4\]); robust to skew.
    EquiDepth,
    /// Split the distinct values into equally many per bin regardless of
    /// weight (ablation baseline; degrades under skew).
    EquiWidthByValue,
}

/// Dimension-creation parameters.
#[derive(Debug, Clone, Copy)]
pub struct BinningConfig {
    /// Granularity cap: `bits(D) ≤ max_bits` (the paper uses 13).
    pub max_bits: u32,
    pub strategy: BinningStrategy,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig { max_bits: 13, strategy: BinningStrategy::EquiDepth }
    }
}

/// Build a dimension from a weighted multiset of key values.
///
/// `values` need not be sorted or deduplicated; weights of equal values are
/// summed. The resulting dimension has at most `2^max_bits` bins, each a
/// consecutive value range (Definition 1(ii)–(iii)), and every input value
/// is covered (surjectivity).
pub fn create_dimension(
    id: DimId,
    name: &str,
    table: TableId,
    key: Vec<String>,
    mut values: Vec<(KeyValue, u64)>,
    config: &BinningConfig,
) -> Result<Dimension> {
    if values.is_empty() {
        return Err(BdccError::Invalid(format!("dimension {name} has no key values to bin")));
    }
    // Sort and merge duplicates.
    values.sort_by(|a, b| a.0.full_cmp(&b.0));
    let mut distinct: Vec<(KeyValue, u64)> = Vec::with_capacity(values.len());
    for (v, w) in values {
        match distinct.last_mut() {
            Some((lv, lw)) if lv.full_cmp(&v) == Ordering::Equal => *lw += w,
            _ => distinct.push((v, w)),
        }
    }
    let max_bins = 1usize << config.max_bits.min(20);
    let target_bins = distinct.len().min(max_bins);
    let bins = match config.strategy {
        BinningStrategy::EquiDepth => equi_depth(&distinct, target_bins),
        BinningStrategy::EquiWidthByValue => equi_width(&distinct, target_bins),
    };
    Ok(Dimension { id, name: name.to_string(), table, key, bins })
}

fn equi_depth(distinct: &[(KeyValue, u64)], target_bins: usize) -> Vec<BinEntry> {
    let total: u128 = distinct.iter().map(|(_, w)| *w as u128).sum();
    let mut bins = Vec::with_capacity(target_bins);
    let mut acc: u128 = 0; // weight already placed into closed bins
    let mut in_bin: u64 = 0; // weight in the currently open bin
    let mut bin_values: usize = 0;
    for (i, (v, w)) in distinct.iter().enumerate() {
        in_bin += w;
        bin_values += 1;
        let is_last_value = i == distinct.len() - 1;
        // Close the current bin once the cumulative weight reaches the next
        // equi-depth quantile; the final bin always swallows the remainder.
        let quantile_reached =
            (acc + in_bin as u128) * target_bins as u128 >= total * (bins.len() as u128 + 1);
        let may_close = bins.len() + 1 < target_bins;
        if is_last_value || (quantile_reached && may_close) {
            bins.push(BinEntry { upper: v.clone(), weight: in_bin, unique: bin_values == 1 });
            acc += in_bin as u128;
            in_bin = 0;
            bin_values = 0;
        }
    }
    bins
}

fn equi_width(distinct: &[(KeyValue, u64)], target_bins: usize) -> Vec<BinEntry> {
    let per_bin = distinct.len().div_ceil(target_bins);
    let mut bins = Vec::with_capacity(target_bins);
    for chunk in distinct.chunks(per_bin) {
        let weight = chunk.iter().map(|(_, w)| w).sum();
        bins.push(BinEntry {
            upper: chunk.last().expect("non-empty chunk").0.clone(),
            weight,
            unique: chunk.len() == 1,
        });
    }
    bins
}

/// `bits(D)` the created dimension would have for `ndv` distinct values
/// under `config` — used by design previews that have statistics but no
/// data (paper-scale reproduction of the Section IV dimension table).
pub fn bits_for_ndv(ndv: usize, config: &BinningConfig) -> u32 {
    bits_for_bins(ndv).min(config.max_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(v: i64) -> KeyValue {
        KeyValue::single(Datum::Int(v))
    }

    fn make(values: Vec<(i64, u64)>, strategy: BinningStrategy, max_bits: u32) -> Dimension {
        create_dimension(
            DimId(0),
            "D",
            TableId(0),
            vec!["k".into()],
            values.into_iter().map(|(v, w)| (kv(v), w)).collect(),
            &BinningConfig { max_bits, strategy },
        )
        .unwrap()
    }

    #[test]
    fn all_distinct_values_get_own_bins_when_they_fit() {
        let d = make((0..25).map(|v| (v, 1)).collect(), BinningStrategy::EquiDepth, 13);
        assert_eq!(d.bin_count(), 25);
        assert_eq!(d.bits(), 5); // D_NATION: 25 nations → 5 bits
        assert!(d.bins.iter().all(|b| b.unique));
    }

    #[test]
    fn bit_cap_limits_bins() {
        let d = make((0..100).map(|v| (v, 1)).collect(), BinningStrategy::EquiDepth, 3);
        assert!(d.bin_count() <= 8);
        assert!(d.bits() <= 3);
        // Every value still maps somewhere and ordering is kept.
        assert_eq!(d.bin_of(&kv(0)), 0);
        assert_eq!(d.bin_of(&kv(99)) as usize, d.bin_count() - 1);
    }

    #[test]
    fn equi_depth_balances_skewed_weights() {
        // One heavy value and many light ones.
        let mut values = vec![(0i64, 1000u64)];
        values.extend((1..101).map(|v| (v, 10)));
        let d = make(values, BinningStrategy::EquiDepth, 2); // ≤ 4 bins
        assert!(d.bin_count() <= 4);
        let weights: Vec<u64> = d.bins.iter().map(|b| b.weight).collect();
        let total: u64 = weights.iter().sum();
        assert_eq!(total, 2000);
        // The heavy value sits alone-ish: no bin should carry more than the
        // heavy value plus a modest share of the rest.
        assert!(weights[0] <= 1250, "heavy bin too large: {weights:?}");
    }

    #[test]
    fn equi_width_ignores_weights() {
        let mut values = vec![(0i64, 1000u64)];
        values.extend((1..8).map(|v| (v, 1)));
        let d = make(values, BinningStrategy::EquiWidthByValue, 2);
        assert_eq!(d.bin_count(), 4);
        // 8 distinct values / 4 bins = 2 values per bin regardless of skew.
        assert_eq!(d.bins[0].upper, kv(1));
    }

    #[test]
    fn duplicate_values_merge() {
        let d = make(vec![(5, 1), (5, 2), (7, 1)], BinningStrategy::EquiDepth, 13);
        assert_eq!(d.bin_count(), 2);
        assert_eq!(d.bins[0].weight, 3);
    }

    #[test]
    fn empty_input_is_an_error() {
        let r = create_dimension(
            DimId(0),
            "D",
            TableId(0),
            vec!["k".into()],
            vec![],
            &BinningConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn ndv_preview_matches_paper() {
        let c = BinningConfig::default();
        assert_eq!(bits_for_ndv(25, &c), 5); // D_NATION
        assert_eq!(bits_for_ndv(20_000_000, &c), 13); // D_PART at SF100, capped
        assert_eq!(bits_for_ndv(2406, &c), 12); // D_DATE (paper rounds to 13)
    }

    #[test]
    fn bins_cover_and_order() {
        let d = make(vec![(3, 5), (9, 2), (1, 1), (7, 4)], BinningStrategy::EquiDepth, 13);
        // Sorted boundaries.
        for w in d.bins.windows(2) {
            assert_eq!(w[0].upper.full_cmp(&w[1].upper), Ordering::Less);
        }
        // Surjective: every input value has a bin and the mapping respects order.
        let bins: Vec<u64> = [1, 3, 7, 9].iter().map(|&v| d.bin_of(&kv(v))).collect();
        let mut sorted = bins.clone();
        sorted.sort();
        assert_eq!(bins, sorted);
    }
}
