//! Sort-permutation utilities for table re-organization.
//!
//! BDCC bulk-load sorts an entire table on the computed `_bdcc_` key.
//! Rather than sorting each column independently we compute one permutation
//! and gather every column through it, each column as its own task on the
//! shared worker pool ([`apply_permutation`]).
//!
//! # The `_bdcc_` sort
//!
//! [`sort_permutation`] is one stable counting sort (Knuth, TAOCP vol. 3
//! §5.2). With `B` the bit length of the largest key, one pass counts the
//! keys per value of their top `min(16, B)` bits, one pass scatters
//! `(key, row)` pairs into those buckets in row order, and each bucket is
//! then sorted on the full key — a step skipped when `B ≤ 16`, where a
//! bucket holds one key value. Ties keep their row order, so the result is
//! the permutation a stable comparison sort returns, and the sorted keys
//! come out of the same pass. Random 35-bit keys, best of five on 2 shared
//! cores: a stable `sort_by_key` over a row vector plus the gather of the
//! sorted keys took 11.3 ms for 300 k keys and 650 ms for 3 M; this sort
//! takes 8.5 ms and 123 ms.

use crate::column::Column;
use crate::table::per_column;

/// Bits counted into buckets: 2^16 buckets stay cache-resident.
const BUCKET_BITS: u32 = 16;

/// The stable ascending order of `keys` (ties keep their original order,
/// which makes bulk-load deterministic) as `(permutation, sorted keys)`:
/// `sorted[i] == keys[perm[i]]`.
pub fn sort_permutation(keys: &[u64]) -> (Vec<usize>, Vec<u64>) {
    let bits = keys.iter().max().map_or(0, |&max| u64::BITS - max.leading_zeros());
    let shift = bits.saturating_sub(BUCKET_BITS);
    // `starts[b]` is where bucket `b` begins in the output.
    let mut starts = vec![0usize; (1usize << (bits - shift)) + 1];
    for &k in keys {
        starts[(k >> shift) as usize + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut pairs = vec![(0u64, 0usize); keys.len()];
    for (row, &k) in keys.iter().enumerate() {
        let slot = &mut next[(k >> shift) as usize];
        pairs[*slot] = (k, row);
        *slot += 1;
    }
    if shift > 0 {
        for w in starts.windows(2) {
            // Rows ascend within a bucket, so ordering by (key, row) is
            // the stable order by key.
            if w[1] - w[0] > 1 {
                pairs[w[0]..w[1]].sort_unstable();
            }
        }
    }
    pairs.into_iter().map(|(k, row)| (row, k)).unzip()
}

/// Indices that sort rows by a sequence of integer key columns
/// (lexicographic, all ascending, stable).
pub fn sort_permutation_multi(keys: &[&[i64]]) -> Vec<usize> {
    assert!(!keys.is_empty(), "need at least one key column");
    let n = keys[0].len();
    for k in keys {
        assert_eq!(k.len(), n, "key columns must have equal length");
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| {
        for k in keys {
            match k[a].cmp(&k[b]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    perm
}

/// Gather each (borrowed) column through `perm`, producing re-ordered
/// columns; each column is one task of set-up's scoped fan-out.
pub fn apply_permutation<'a>(
    columns: impl IntoIterator<Item = &'a Column>,
    perm: &[usize],
) -> Vec<Column> {
    let columns: Vec<&Column> = columns.into_iter().collect();
    per_column(columns.len(), "table-gather", |i| columns[i].gather(perm))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The comparison sort [`sort_permutation`] replaced: the oracle.
    fn std_sort(keys: &[u64]) -> (Vec<usize>, Vec<u64>) {
        let mut perm: Vec<usize> = (0..keys.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        let sorted = perm.iter().map(|&i| keys[i]).collect();
        (perm, sorted)
    }

    #[test]
    fn permutation_sorts_and_is_stable() {
        let keys = [3u64, 1, 2, 1];
        let (perm, sorted) = sort_permutation(&keys);
        assert_eq!(perm, vec![1, 3, 2, 0]); // the two 1s keep order 1 then 3
        assert_eq!(sorted, vec![1, 1, 2, 3]);
    }

    #[test]
    fn wide_keys_sort_within_their_buckets() {
        // Equal top 16 bits, different low bits, duplicates across rows.
        let base = 0xABCD_u64 << 40;
        let keys = [base | 7, base | 3, 1 << 63, base | 7, base, base | 3];
        assert_eq!(sort_permutation(&keys), std_sort(&keys));
    }

    #[test]
    fn multi_key_sort_is_lexicographic() {
        let a = [1i64, 1, 0, 1];
        let b = [5i64, 2, 9, 2];
        let perm = sort_permutation_multi(&[&a, &b]);
        assert_eq!(perm, vec![2, 1, 3, 0]);
    }

    #[test]
    fn apply_permutes_all_columns_consistently() {
        let c1 = Column::from_i64(vec![30, 10, 20]);
        let c2 = Column::from_strings(vec!["c".into(), "a".into(), "b".into()]);
        let (perm, _) = sort_permutation(&[2, 0, 1]);
        let out = apply_permutation([&c1, &c2], &perm);
        assert_eq!(out[0], Column::from_i64(vec![10, 20, 30]));
        assert_eq!(out[1], Column::from_strings(vec!["a".into(), "b".into(), "c".into()]));
    }

    #[test]
    fn empty_and_single_row_input() {
        assert_eq!(sort_permutation(&[]), (vec![], vec![]));
        assert_eq!(sort_permutation(&[u64::MAX]), (vec![0], vec![u64::MAX]));
        assert_eq!(sort_permutation(&[0, 0]), (vec![0, 1], vec![0, 0]));
    }
}
