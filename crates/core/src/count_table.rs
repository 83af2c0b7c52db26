//! The count table `T_COUNT(_bdcc_, count)` (Definition 4).
//!
//! A BDCC table is stored sorted on `_bdcc_`; the count table records, per
//! distinct clustering-key value at the chosen granularity `b`, the run of
//! rows holding it. The groups tile the stored table in key order, each
//! row in exactly one group; the scatter-scan computes its offsets from
//! here.

use crate::error::{BdccError, Result};

/// One group: a maximal run of rows sharing the (truncated) clustering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEntry {
    /// Truncated clustering key (top `granularity` bits of `_bdcc_`).
    pub key: u64,
    /// First row of the group in the stored table.
    pub start: usize,
    /// Number of rows.
    pub count: usize,
}

/// The metadata table counting the frequency of each `_bdcc_` value at
/// granularity `b ≤ B`.
#[derive(Debug, Clone)]
pub struct CountTable {
    /// Count-table granularity `b`.
    pub granularity: u32,
    /// Full clustering-key width `B` of the stored `_bdcc_` column.
    pub total_bits: u32,
    /// Groups ordered by `key`, hence by table position.
    pub groups: Vec<GroupEntry>,
}

impl CountTable {
    /// Build from the sorted full-granularity keys by counting consecutive
    /// tuples with equal `_bdcc_ >> (B − b)` — the "single ordered
    /// aggregation" of Algorithm 1(iv).
    pub fn from_sorted_keys(keys: &[u64], total_bits: u32, granularity: u32) -> Result<CountTable> {
        if granularity > total_bits {
            return Err(BdccError::Invalid(format!(
                "granularity {granularity} exceeds total bits {total_bits}"
            )));
        }
        let shift = total_bits - granularity;
        let mut groups: Vec<GroupEntry> = Vec::new();
        for (row, &k) in keys.iter().enumerate() {
            let g = k >> shift;
            match groups.last_mut() {
                Some(entry) if entry.key == g => entry.count += 1,
                _ => groups.push(GroupEntry { key: g, start: row, count: 1 }),
            }
        }
        // Sorted input ⇒ sorted groups; verify in debug builds.
        debug_assert!(groups.windows(2).all(|w| w[0].key < w[1].key));
        Ok(CountTable { granularity, total_bits, groups })
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total rows covered (each row exactly once).
    pub fn total_rows(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// The group with exactly this key, if present.
    pub fn find(&self, key: u64) -> Option<&GroupEntry> {
        self.groups.binary_search_by_key(&key, |g| g.key).ok().map(|i| &self.groups[i])
    }

    /// Iterate all groups.
    pub fn iter(&self) -> impl Iterator<Item = &GroupEntry> {
        self.groups.iter()
    }

    /// Largest group size in rows.
    pub fn max_group_rows(&self) -> usize {
        self.groups.iter().map(|g| g.count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_consecutive_runs_at_reduced_granularity() {
        // 4-bit keys; granularity 2 groups by the top 2 bits.
        let keys = [0b0000u64, 0b0001, 0b0100, 0b0101, 0b0111, 0b1100];
        let ct = CountTable::from_sorted_keys(&keys, 4, 2).unwrap();
        assert_eq!(ct.group_count(), 3);
        assert_eq!(ct.groups[0], GroupEntry { key: 0b00, start: 0, count: 2 });
        assert_eq!(ct.groups[1], GroupEntry { key: 0b01, start: 2, count: 3 });
        assert_eq!(ct.groups[2], GroupEntry { key: 0b11, start: 5, count: 1 });
        assert_eq!(ct.total_rows(), 6);
        assert_eq!(ct.max_group_rows(), 3);
    }

    #[test]
    fn full_granularity_keeps_distinct_keys() {
        let keys = [1u64, 1, 2, 5];
        let ct = CountTable::from_sorted_keys(&keys, 3, 3).unwrap();
        assert_eq!(ct.group_count(), 3);
        assert_eq!(ct.find(1).unwrap().count, 2);
        assert_eq!(ct.find(5).unwrap().start, 3);
        assert!(ct.find(4).is_none());
    }

    #[test]
    fn granularity_zero_is_one_group() {
        let keys = [3u64, 9, 12];
        let ct = CountTable::from_sorted_keys(&keys, 4, 0).unwrap();
        assert_eq!(ct.group_count(), 1);
        assert_eq!(ct.groups[0].count, 3);
    }

    #[test]
    fn invalid_granularity_rejected() {
        assert!(CountTable::from_sorted_keys(&[0], 2, 3).is_err());
    }

    #[test]
    fn empty_table_yields_empty_count() {
        let ct = CountTable::from_sorted_keys(&[], 4, 2).unwrap();
        assert_eq!(ct.group_count(), 0);
        assert_eq!(ct.total_rows(), 0);
    }
}
