//! Merging per-morsel partial results back into one stream.
//!
//! Three merge contracts, all **order-deterministic**: given the same
//! morsel list, the merged output is identical whatever order workers
//! finished in, because every merge folds partials in *morsel order* (or,
//! for radix partitions, by recorded stream position).
//!
//! * [`concat_match_lists`] — join probe: per-morsel match lists
//!   concatenated in morsel order list pairs exactly as one serial probe
//!   loop over the round would.
//! * [`merge_partial_aggs`] — hash-aggregation: per-morsel
//!   [`PartialAgg`] states folded left-to-right; group *first-seen order*
//!   and every integer aggregate match serial execution exactly, and
//!   compensated float sums keep Sum/Avg within ~1 ulp of it.
//! * [`concat_radix_partitions`] — radix-partitioned aggregation:
//!   disjoint per-partition outputs reordered by each group's recorded
//!   global first-row position — byte-identical to the serial aggregate,
//!   floats included (each group folds its rows in serial stream order
//!   inside its one partition).

use crate::batch::Batch;
use crate::error::Result;
use crate::ops::agg::PartialAgg;

/// Concatenate per-morsel join match lists (`(probe row, build row)`
/// pairs) in morsel order. Probe morsels are contiguous row ranges handed
/// out in ascending order ([`crate::parallel::morsel::split_rows`]), so
/// the concatenation lists pairs in exactly the order one serial probe
/// loop over all rows would — the contract that keeps the parallel join
/// probe byte-identical to the serial one. Existence-mode probes
/// (Semi/Anti without residual) carry matched probe rows in the first
/// list and leave the second empty.
pub fn concat_match_lists(per_morsel: Vec<(Vec<usize>, Vec<u32>)>) -> (Vec<usize>, Vec<u32>) {
    let pairs: usize = per_morsel.iter().map(|(l, _)| l.len()).sum();
    let mut lidx = Vec::with_capacity(pairs);
    let mut ridx = Vec::with_capacity(pairs);
    for (l, r) in per_morsel {
        lidx.extend(l);
        ridx.extend(r);
    }
    (lidx, ridx)
}

/// Fold per-morsel partial aggregation states (in morsel order) and finish
/// into the final output batch. An empty partial list is an error — a
/// zero-morsel fan-out must contribute one fresh (empty) partial so the
/// global-aggregation zero row can be produced (see
/// [`ParallelAggregate`](crate::parallel::ParallelAggregate)).
pub fn merge_partial_aggs(mut partials: Vec<PartialAgg>) -> Result<Batch> {
    if partials.is_empty() {
        return Err(crate::error::ExecError::Internal(
            "merge_partial_aggs needs at least one partial state".into(),
        ));
    }
    let mut acc = partials.remove(0);
    for p in partials {
        acc.merge(p)?;
    }
    Ok(acc.finish())
}

/// Reassemble radix-partitioned aggregation outputs into the serial
/// first-seen group order. Each partition contributes `(batch, ranks)` —
/// its groups in partition-local first-seen order plus each group's
/// **global** first-row position ([`PartialAgg::finish_ordered`]). Groups
/// are disjoint across partitions and ranks are distinct (a rank is the
/// position of a specific input row), so sorting the concatenation by
/// rank is a permutation with no ties — the output is exactly the batch a
/// serial [`HashAggregate`](crate::ops::agg::HashAggregate) over the
/// unpartitioned stream would emit, byte for byte (including float
/// aggregates: each group's rows fold in original stream order inside
/// its one partition, so even compensated sums see the serial
/// accumulation sequence).
pub fn concat_radix_partitions(parts: Vec<(Batch, Vec<u64>)>) -> Result<Batch> {
    let mut parts = parts.into_iter();
    let (mut all, mut ranks) = parts.next().ok_or_else(|| {
        crate::error::ExecError::Internal(
            "concat_radix_partitions needs at least one partition".into(),
        )
    })?;
    for (b, r) in parts {
        all.append(&b)?;
        ranks.extend(r);
    }
    let mut perm: Vec<usize> = (0..ranks.len()).collect();
    perm.sort_unstable_by_key(|&i| ranks[i]);
    Ok(Batch::new(all.columns.iter().map(|c| c.gather(&perm)).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_storage::Column;

    fn batch(vals: &[i64]) -> Batch {
        Batch::new(vec![Column::from_i64(vals.to_vec())])
    }

    #[test]
    fn radix_concat_restores_global_first_seen_order() {
        // Partition 0 holds groups first seen at rows 4 and 0; partition
        // 1 at rows 2 and 1; partition 2 is empty. The concatenation must
        // interleave them back into 0, 1, 2, 4.
        let parts = vec![
            (batch(&[40, 10]), vec![4, 0]),
            (batch(&[20, 30]), vec![2, 1]),
            (batch(&[]), vec![]),
        ];
        let out = concat_radix_partitions(parts).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[10, 30, 20, 40]);
    }
}
