//! Sort-permutation utilities for table re-organization.
//!
//! BDCC bulk-load sorts an entire table on the computed `_bdcc_` key.
//! Rather than sorting each column independently we compute one permutation
//! and gather every column through it.

use crate::column::Column;

/// Indices that sort `keys` ascending; ties keep their original order
/// (stable), which makes bulk-load deterministic.
pub fn sort_permutation(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| keys[i]);
    perm
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
/// columns.
pub fn apply_permutation<'a>(
    columns: impl IntoIterator<Item = &'a Column>,
    perm: &[usize],
) -> Vec<Column> {
    columns.into_iter().map(|c| c.gather(perm)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_sorts_and_is_stable() {
        let keys = [3u64, 1, 2, 1];
        let perm = sort_permutation(&keys);
        assert_eq!(perm, vec![1, 3, 2, 0]); // the two 1s keep order 1 then 3
        let sorted: Vec<u64> = perm.iter().map(|&i| keys[i]).collect();
        assert_eq!(sorted, vec![1, 1, 2, 3]);
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
        let perm = sort_permutation(&[2, 0, 1]);
        let out = apply_permutation([&c1, &c2], &perm);
        assert_eq!(out[0], Column::from_i64(vec![10, 20, 30]));
        assert_eq!(out[1], Column::from_strings(vec!["a".into(), "b".into(), "c".into()]));
    }

    #[test]
    fn empty_input() {
        assert!(sort_permutation(&[]).is_empty());
    }
}
