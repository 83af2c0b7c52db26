//! What [`HashJoin`] does with a build side that does not fit its budget.
//!
//! The build drains into a [`PartitionSpill`](crate::spill) (16-way on the
//! join-key hash), which owns pressure, freezing, recursion, accounting and
//! file lifetime. This file adds the join's own policy and its use of a
//! leaf:
//!
//! * Once anything froze, **everything** freezes at the end of the drain:
//!   probing then holds exactly one restored leaf (payload + index) at a
//!   time, which is what keeps the query inside its budget — a partially
//!   resident build would pay resident payloads *and* their indexes on top
//!   of every restore. Leaves are sized for payload × 2, because restoring
//!   one also builds its [`JoinIndex`](crate::hash::JoinIndex), whose flat
//!   arrays cost the same order as the payload.
//! * A resident leaf is indexed once; a file leaf is read back (build-stream
//!   order) and indexed once per probe round, and the **whole** round runs
//!   against it. Equal keys hash to exactly one leaf, so each probe row
//!   matches in at most one leaf and per-leaf match fragments are disjoint;
//!   a stable merge on the left row id reassembles each batch's matches in
//!   exactly the serial probe order, and `finish_batch` assembles the
//!   output — byte-identical, spilled or not.

use bdcc_storage::Column;

use crate::batch::Batch;
use crate::error::Result;
use crate::ops::BoxedOp;
use crate::parallel::ParallelConfig;
use crate::spill::{Leaf, PartitionSpill, Shape};

use super::{emits_right, finish_batch, gather_pairs, probe_range, BuildSide, HashJoin};

/// Top-level spill partition fan-out: 2^4 = 16 partitions.
const JOIN_BITS: u32 = 4;

/// The join's build side: fully resident, or partitioned with some
/// partitions frozen to spill files.
pub(super) enum Build {
    Mem(BuildSide),
    Spilled(SpilledBuild),
    /// Semi / anti, the left ended first: `build_side` did all of it.
    Left,
}

/// A finalized spilled build: a flat list of leaves, each small enough to
/// index within the broker's restore limit.
pub(super) struct SpilledBuild {
    leaves: Vec<JoinLeaf>,
}

enum JoinLeaf {
    Indexed(BuildSide),
    OnDisk(Leaf),
}

/// Per-(batch, leaf) match fragment: matched left rows plus the right
/// pair columns gathered while the leaf was indexed.
struct Fragment {
    lidx: Vec<usize>,
    right: Vec<Column>,
}

impl HashJoin {
    /// Partitioned drain, entered the moment the in-memory drain sees
    /// pressure: `seed` holds the rows drained so far (stream order, no
    /// longer registered) and `first` is the pending batch that tripped
    /// the high-water mark.
    pub(super) fn build_spilled(
        &mut self,
        mut right: BoxedOp,
        seed: Batch,
        first: Batch,
    ) -> Result<SpilledBuild> {
        if let Some(m) = &self.metrics {
            m.annotate("spill_mode", "build-broker");
        }
        let shape = Shape {
            keys: self.right_keys.clone(),
            bits: JOIN_BITS,
            leaf_factor: 2,
            label: "join-build",
        };
        let mut spill = PartitionSpill::new(
            shape,
            self.broker.clone(),
            self.governor.clone(),
            &self.tracker,
            self.spill_io.clone(),
            self.metrics.clone(),
        );
        spill.scatter(&seed)?;
        drop(seed);
        let mut next = Some(first);
        while let Some(batch) = next {
            spill.make_room(batch.estimated_bytes())?;
            spill.scatter(&batch)?;
            next = right.next()?;
        }
        // If pressure never froze anything every leaf stays resident.
        if spill.any_frozen() {
            spill.freeze_all()?;
        }
        let mut leaves = Vec::new();
        let mut rows = 0u64;
        spill.for_each_leaf(|leaf| {
            rows += leaf.rows();
            leaves.push(if leaf.is_resident() {
                JoinLeaf::Indexed(self.index_leaf(&leaf)?)
            } else {
                JoinLeaf::OnDisk(leaf)
            });
            Ok(())
        })?;
        if let Some(m) = &self.metrics {
            m.annotate("build_rows", rows.to_string());
            m.annotate("build", format!("spilled({})", leaves.len()));
        }
        Ok(SpilledBuild { leaves })
    }

    /// Concatenate a leaf's chunks and index them. A leaf fits the
    /// restore limit by construction: one serial table.
    fn index_leaf(&self, leaf: &Leaf) -> Result<BuildSide> {
        let mut payload = self.empty_build();
        leaf.for_each_chunk(|chunk| Ok(payload.append(chunk)?))?;
        BuildSide::index(payload, &self.right_keys, &ParallelConfig::with_threads(1), &self.tracker)
    }

    /// Probe a round against a spilled build, one leaf at a time; merge
    /// the per-leaf fragments back into serial probe order per batch.
    pub(super) fn probe_round_spilled(
        &self,
        build: &SpilledBuild,
        round: &[Batch],
    ) -> Result<Vec<Batch>> {
        let mut frags: Vec<Vec<Fragment>> = round.iter().map(|_| Vec::new()).collect();
        for leaf in &build.leaves {
            let restored;
            let side = match leaf {
                JoinLeaf::Indexed(side) => side,
                JoinLeaf::OnDisk(leaf) => {
                    restored = self.index_leaf(leaf)?;
                    &restored
                }
            };
            for (batch, frags) in round.iter().zip(&mut frags) {
                let (lidx, ridx) = probe_range(
                    batch,
                    side,
                    &self.left_keys,
                    self.join_type,
                    self.residual.as_ref(),
                    0..batch.rows(),
                    false,
                )?;
                if !lidx.is_empty() {
                    let right = gather_pairs(side, self.join_type, &ridx);
                    frags.push(Fragment { lidx, right });
                }
            }
        }
        round
            .iter()
            .zip(frags)
            .map(|(batch, frags)| self.merge_leaf_fragments(batch, frags))
            .collect()
    }

    /// Reassemble one batch's match lists from its per-leaf fragments.
    ///
    /// Each probe row's key lives in exactly one leaf, so fragment
    /// `lidx` sets are disjoint: a stable sort on the left row id
    /// interleaves the fragments into exactly the serial probe order
    /// (ties within a row stay in the leaf's chain order, which matches
    /// the full index's because partitioning preserves relative build
    /// order among equal keys).
    fn merge_leaf_fragments(&self, left: &Batch, frags: Vec<Fragment>) -> Result<Batch> {
        let mut all_l: Vec<usize> = Vec::new();
        let mut pairs = self.empty_build();
        for f in frags {
            all_l.extend(f.lidx);
            pairs.append(&Batch::new(f.right))?;
        }
        if !emits_right(self.join_type) {
            // Only the set of matched rows decides survivors: order and
            // duplicates are moot.
            return finish_batch(left, self.join_type, &self.right_types, &all_l, Vec::new());
        }
        let mut order: Vec<usize> = (0..all_l.len()).collect();
        order.sort_by_key(|&i| all_l[i]); // stable: in-frag chain order kept
        let lidx: Vec<usize> = order.iter().map(|&i| all_l[i]).collect();
        finish_batch(left, self.join_type, &self.right_types, &lidx, pairs.gather(&order).columns)
    }
}
