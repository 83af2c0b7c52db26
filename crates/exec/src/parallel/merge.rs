//! Merging per-morsel partial results back into one stream.
//!
//! Two merge contracts, both **order-deterministic**: given the same
//! morsel list, the merged output is identical whatever order workers
//! finished in, because every merge folds partials in *morsel order*.
//!
//! * [`concat_match_lists`] — join probe: per-morsel match lists
//!   concatenated in morsel order list pairs exactly as one serial probe
//!   loop over the round would.
//! * [`merge_partial_aggs`] — hash-aggregation: per-morsel
//!   [`PartialAgg`] states folded left-to-right; group *first-seen order*
//!   and every integer aggregate match serial execution exactly, and
//!   compensated float sums keep Sum/Avg within ~1 ulp of it.

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
