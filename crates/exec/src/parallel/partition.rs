//! Hash-partitioning rows by key hash — the **shared routing contract**
//! of the parallel join build, the partitioned join probe, and
//! radix-partitioned aggregation.
//!
//! All three consumers split work into `2^bits` partitions selected by
//! the **top `bits` of one shared key hash** ([`partition_of`]), with the
//! bit count derived from the worker count by one shared helper
//! ([`partition_bits_for`] / [`bits_for_partition_count`] /
//! [`partition_count`]). Sharing the derivation and the routing function
//! is what makes the three paths composable:
//!
//! * **Join build** ([`crate::hash::JoinIndex::build`]): build rows
//!   scatter into per-partition [`JoinTable`]s by the top bits of the
//!   join-key hash ([`crate::hash::hash_row`]). Workers consume
//!   morsel-sized chunks of the build side and split each chunk's row ids
//!   ([`hash_partition_rows`]); per-chunk partition lists concatenate
//!   **in chunk order**, so every partition's row list is ascending — the
//!   order-deterministic merge contract of the rest of
//!   [`crate::parallel`], and the property that keeps partitioned probes
//!   byte-identical to serial ones (chains built from ascending rows stay
//!   ascending).
//! * **Join probe**: every probe computes the same key hash once and
//!   routes to the one owning partition through the same
//!   [`partition_of`]; a probe touches exactly one table, so concurrent
//!   probe morsels never contend, and `bits == 0` (an unpartitioned,
//!   serially built index) routes everything to the sole table.
//! * **Radix aggregation** ([`crate::parallel::ParallelAggregate`]):
//!   input rows scatter by the top bits of the *group-key* hash
//!   ([`crate::hash::hash_group_rows`], [`partition_rows_of_batch`]) so
//!   each distinct group lands wholly in one partition and one worker's
//!   table — the group-side analogue of the build scatter, with the same
//!   guarantee (equal keys never split across partitions) carried by the
//!   same top-bit routing.
//!
//! [`JoinTable`]: crate::hash::JoinTable

use bdcc_storage::Column;

use crate::error::Result;
use crate::hash::{hash_group_rows, hash_row};
use crate::parallel::{pool, ParallelConfig};

/// Partition count for a worker count: the next power of two at or above
/// `threads` (at least 2), so the top `bits` of the hash select a
/// partition with no modulo. The one `threads → bits` derivation shared
/// by the join build and radix aggregation (probes reuse the bit count
/// the build stored).
pub fn partition_bits_for(threads: usize) -> u32 {
    bits_for_partition_count(threads.max(2))
}

/// Bits needed for (at least) `nparts` partitions: non-powers-of-two
/// round **up** to the next power of two (a top-bits router cannot
/// address a non-power-of-two table count), and `nparts <= 1` is the
/// unpartitioned case (`bits == 0`, everything routes to partition 0).
pub fn bits_for_partition_count(nparts: usize) -> u32 {
    if nparts <= 1 {
        0
    } else {
        nparts.next_power_of_two().trailing_zeros()
    }
}

/// The number of partitions a `bits`-bit routing addresses (`2^bits`;
/// 1 when unpartitioned). Inverse of [`bits_for_partition_count`] on
/// powers of two.
pub fn partition_count(bits: u32) -> usize {
    1usize << bits
}

/// The partition owning hash `h` under a `2^bits` partitioning: the top
/// `bits` of the hash (partition 0 when unpartitioned, `bits == 0` — a
/// 64-bit shift would be UB-adjacent, not "whole hash"). Build and probe
/// must agree on this routing — the partitioned
/// [`crate::hash::JoinIndex`] probes through the same function the build
/// scattered with, so a probe touches exactly one partition and workers
/// probing disjoint morsels never contend on a table.
#[inline(always)]
pub fn partition_of(h: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (h >> (64 - bits)) as usize
    }
}

/// Extra hash bits consumed per recursive split of an oversized spill
/// partition (16 sub-partitions per split) by the partition-spill core
/// (`crate::spill`) — join build and radix aggregation alike.
pub(crate) const RECURSE_BITS: u32 = 4;

/// Deepest total bit budget for spill recursion. At 32 bits a "partition"
/// is a 1-in-4-billion hash slice; if it still exceeds the restore limit
/// the data is one giant key (recursion cannot split it further) and the
/// leaf loads whole anyway — the governor's budget check stays the
/// backstop for truly irreducible state.
pub(crate) const MAX_TOTAL_BITS: u32 = 32;

/// The sub-partition of hash `h` once its top `used_bits` are spent: the
/// [`RECURSE_BITS`] bits immediately below them — disjoint from every
/// ancestor's routing bits, so recursion refines partitions, and equal
/// keys (one hash) always land in one sub-partition.
#[inline]
pub(crate) fn sub_partition_of(h: u64, used_bits: u32) -> usize {
    ((h << used_bits) >> (64 - RECURSE_BITS)) as usize
}

/// Split all rows of `key_cols` into `2^bits` partitions by the top hash
/// bits of their key. Chunks of `cfg.morsel_rows` rows are partitioned by
/// workers concurrently; each returned partition lists its row ids in
/// ascending order.
pub fn hash_partition_rows(
    key_cols: &[&[i64]],
    bits: u32,
    cfg: &ParallelConfig,
) -> Result<Vec<Vec<u32>>> {
    let nparts = partition_count(bits);
    let rows = key_cols.first().map(|c| c.len()).unwrap_or(0);
    let chunk = cfg.morsel_rows.max(1);
    let starts: Vec<usize> = (0..rows).step_by(chunk).collect();
    let per_chunk: Vec<Vec<Vec<u32>>> =
        pool::run_tasks_labeled(cfg.threads, starts.len(), "build-partition", |i| {
            let lo = starts[i];
            let hi = (lo + chunk).min(rows);
            let mut parts: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            for r in lo..hi {
                let p = partition_of(hash_row(key_cols, r), bits);
                parts[p].push(r as u32);
            }
            Ok(parts)
        })?;
    // Ordered merge: chunk order == ascending row order per partition.
    let mut merged: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    for chunk_parts in per_chunk {
        for (p, ids) in chunk_parts.into_iter().enumerate() {
            merged[p].extend(ids);
        }
    }
    Ok(merged)
}

/// Split one batch's rows into `2^bits` partitions by the top bits of
/// their **group-key** hash ([`hash_group_rows`] over `group_cols` —
/// the same codec the aggregation group table files its keys under).
/// Returns per-partition row-index lists, each ascending, jointly tiling
/// `0..batch_rows`; rows with equal group keys always land in one
/// partition, which is what lets radix aggregation keep every group in
/// exactly one worker-local table.
pub fn partition_rows_of_batch(group_cols: &[&Column], rows: usize, bits: u32) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); partition_count(bits)];
    let mut hashes = Vec::new();
    hash_group_rows(group_cols, 0..rows, &mut hashes);
    for (r, &h) in hashes.iter().enumerate() {
        parts[partition_of(h, bits)].push(r);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_tile_rows_in_ascending_order() {
        let keys: Vec<i64> = (0..5000).map(|i| i * 37 % 211).collect();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 256 };
        let bits = partition_bits_for(cfg.threads);
        let parts = hash_partition_rows(&[&keys], bits, &cfg).unwrap();
        assert_eq!(parts.len(), 4);
        let mut all: Vec<u32> = Vec::new();
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "partition rows must ascend");
            all.extend(p);
        }
        all.sort_unstable();
        assert_eq!(all, (0..5000u32).collect::<Vec<_>>(), "partitions must tile all rows");
    }

    #[test]
    fn equal_keys_land_in_one_partition() {
        let keys: Vec<i64> = (0..1000).map(|i| i % 10).collect();
        let cfg = ParallelConfig { threads: 8, morsel_rows: 64 };
        let bits = partition_bits_for(cfg.threads);
        let parts = hash_partition_rows(&[&keys], bits, &cfg).unwrap();
        for k in 0..10i64 {
            let holders: Vec<usize> = parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|&r| keys[r as usize] == k))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "key {k} split across partitions {holders:?}");
        }
    }

    #[test]
    fn partition_of_handles_unpartitioned_and_tops_out() {
        assert_eq!(partition_of(u64::MAX, 0), 0, "bits = 0 routes to the sole table");
        assert_eq!(partition_of(0, 0), 0);
        assert_eq!(partition_of(u64::MAX, 2), 3);
        assert_eq!(partition_of(1u64 << 62, 2), 1);
        assert_eq!(partition_of(0, 2), 0);
    }

    #[test]
    fn recursion_bits_are_disjoint_from_every_ancestors() {
        // Which hash bits does a routing function read? Flip each in turn.
        let reads = |route: &dyn Fn(u64) -> usize| -> u64 {
            let mut mask = 0u64;
            for h in [0u64, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
                for bit in 0..64 {
                    if route(h) != route(h ^ (1 << bit)) {
                        mask |= 1 << bit;
                    }
                }
            }
            mask
        };
        // Every top-level fan-out in use: the join's 4 bits, the
        // aggregate's thread-derived 3..=8.
        for top in 1..=8u32 {
            let mut ancestors = reads(&|h| partition_of(h, top));
            assert_eq!(ancestors.count_ones(), top);
            let mut used = top;
            while used + RECURSE_BITS <= MAX_TOTAL_BITS {
                let child = reads(&|h| sub_partition_of(h, used));
                assert_eq!(child.count_ones(), RECURSE_BITS, "top={top} used={used}");
                assert_eq!(child & ancestors, 0, "top={top} used={used}: bits reused");
                // Refinement: parent path + child index is the routing a
                // flat partitioning on `used + RECURSE_BITS` bits gives.
                for h in [1u64, u64::MAX / 7, 0xDEAD_BEEF_0BAD_F00D] {
                    assert_eq!(
                        partition_of(h, used + RECURSE_BITS),
                        (partition_of(h, used) << RECURSE_BITS) | sub_partition_of(h, used)
                    );
                }
                ancestors |= child;
                used += RECURSE_BITS;
            }
        }
    }

    #[test]
    fn partition_bits_round_up() {
        assert_eq!(partition_bits_for(1), 1);
        assert_eq!(partition_bits_for(2), 1);
        assert_eq!(partition_bits_for(3), 2);
        assert_eq!(partition_bits_for(4), 2);
        assert_eq!(partition_bits_for(5), 3);
        assert_eq!(partition_bits_for(8), 3);
    }

    #[test]
    fn count_and_bits_helpers_agree_on_edges() {
        // bits == 0: the unpartitioned case — one table, everything
        // routes to it.
        assert_eq!(partition_count(0), 1);
        assert_eq!(bits_for_partition_count(0), 0);
        assert_eq!(bits_for_partition_count(1), 0);
        // Non-powers-of-two round up, never down (a top-bits router
        // cannot address 3 or 6 tables).
        assert_eq!(bits_for_partition_count(3), 2);
        assert_eq!(bits_for_partition_count(5), 3);
        assert_eq!(bits_for_partition_count(6), 3);
        assert_eq!(bits_for_partition_count(7), 3);
        // Round trip on powers of two.
        for bits in 0..10u32 {
            assert_eq!(bits_for_partition_count(partition_count(bits)), bits);
        }
        // partition_of stays in range for every (bits, hash) combination
        // the helpers can produce.
        for threads in 1..12usize {
            let bits = partition_bits_for(threads);
            for h in [0u64, 1, u64::MAX, u64::MAX / 3] {
                assert!(partition_of(h, bits) < partition_count(bits));
            }
        }
    }

    #[test]
    fn batch_rows_partition_by_group_key() {
        // Mixed int + string group key: equal keys land in one partition,
        // per-partition lists ascend and jointly tile the batch.
        let ints = Column::from_i64((0..300).map(|i| i % 7).collect());
        let strs = Column::from_strings((0..300).map(|i| format!("s{}", i % 5)).collect());
        let cols: Vec<&Column> = vec![&ints, &strs];
        let bits = 2;
        let parts = partition_rows_of_batch(&cols, 300, bits);
        assert_eq!(parts.len(), 4);
        let mut all: Vec<usize> = Vec::new();
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "partition rows must ascend");
            all.extend(p);
        }
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
        // 35 distinct (int, str) keys; each must live in exactly one
        // partition.
        let key_of = |r: &usize| (r % 7, r % 5);
        for i in 0..7 {
            for s in 0..5 {
                let holders =
                    parts.iter().filter(|p| p.iter().any(|r| key_of(r) == (i, s))).count();
                assert_eq!(holders, 1, "key ({i},{s}) split across partitions");
            }
        }
        // bits == 0 degenerates to one partition holding everything.
        let one = partition_rows_of_batch(&cols, 300, 0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 300);
    }

    #[test]
    fn empty_input_yields_empty_partitions() {
        let keys: Vec<i64> = vec![];
        let cfg = ParallelConfig { threads: 2, morsel_rows: 16 };
        let parts = hash_partition_rows(&[&keys], 1, &cfg).unwrap();
        assert!(parts.iter().all(|p| p.is_empty()));
    }
}
