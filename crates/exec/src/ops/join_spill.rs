//! What [`HashJoin`] does with a build side that does not fit its budget: a
//! grace hash join (Kitsuregawa et al. 1983; Shapiro 1986) over the
//! partition-spill core (`crate::spill`), which owns pressure, freezing,
//! recursion, accounting and file lifetime for all three of its file sets —
//! build leaves, probe partitions and output fragments. Every byte written
//! is read back once.
//!
//! 1. **Build.** The right side drains 16-way on the join-key hash. If
//!    pressure never froze anything the leaves are concatenated and indexed
//!    as one in-memory build (a partition keeps equal keys in build order,
//!    so chains — and the output — are the unpartitioned join's). Once
//!    anything froze, **everything** freezes: the build is a list of file
//!    leaves, each sized within the governor's restore limit for what a
//!    restored leaf holds once indexed — its payload without the key-only
//!    columns, plus the index — each knowing its hash slice.
//! 2. **Probe partitioning.** Every left batch — first those the race
//!    buffered — gets its left row ids as a trailing `i64` column and goes
//!    through a second core keyed on the left join columns, one partition
//!    per build leaf ([`Fanout::Pairs`]): a row lands beside the leaf that
//!    holds its key, however deep that leaf was split. A row whose key no
//!    leaf holds cannot match and lands beside some leaf, where an outer or
//!    anti join emits it unmatched.
//! 3. **Leaves.** For each probe partition: its build leaf is restored and
//!    indexed **once**, the partition's chunks stream past the index, and
//!    each chunk's output — [`finish_batch`] over the chunk, row ids
//!    included — goes, in probe order, to that leaf's partition of a third
//!    core. Semi / anti chunks ask only which rows matched (no pair
//!    gathers).
//! 4. **Merge.** A left batch's rows were scattered whole, so each leaf
//!    holds at most one fragment of each batch, and fragments come back in
//!    left-batch order. [`Merge`] reads every leaf's fragments in step and
//!    puts each batch's pieces back in row-id order (left-outer: matched
//!    pairs first, as `finish_batch` emits them) with a stable counting
//!    sort — a row's matches sit in one leaf in chain order, which
//!    partitioning preserves. Rows, order and batch boundaries are the
//!    in-memory join's.
//!
//! The build spilled, so memory is short: probe chunks and fragments go to
//! their files as made. Held at once: partitioning, one left batch; per
//! leaf, the restored leaf, its index, one probe chunk and its fragment;
//! merging, one fragment per leaf and one output batch.

use std::collections::VecDeque;

use bdcc_storage::Column;

use crate::batch::Batch;
use crate::error::Result;
use crate::govern::Governor;
use crate::hash::JoinIndex;
use crate::ops::BoxedOp;
use crate::spill::{Fanout, Leaf, LeafChunks, PartitionSpill, Route, Shape};

use super::{finish_batch, gather_pairs, pick, probe_batch, BuildSide, HashJoin, JoinType};

/// Top-level spill partition fan-out: 2^4 = 16 partitions.
const JOIN_BITS: u32 = 4;

/// The join's build side.
pub(super) enum Build {
    /// Indexed in memory: probe rounds stream past it.
    Mem(BuildSide),
    /// Spilled: the grace join has run, its output is being merged.
    Merge(Merge),
    /// Semi / anti, the left ended first: `build_side` did all of it, and
    /// these are the left batches it kept.
    Left(VecDeque<Batch>),
}

impl HashJoin {
    fn core(
        &self,
        keys: &[usize],
        fanout: Fanout,
        leaf_bytes: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
        label: &'static str,
    ) -> PartitionSpill {
        let leaf_bytes = Box::new(leaf_bytes);
        PartitionSpill::new(Shape { keys: keys.to_vec(), fanout, leaf_bytes, label }, &self.env)
    }

    /// Partitioned drain, entered the moment the in-memory drain sees
    /// pressure: `seed` holds the rows drained so far (stream order, no
    /// longer registered) and `first` is the pending batch that tripped
    /// the high-water mark.
    pub(super) fn build_spilled(
        &mut self,
        mut right: BoxedOp,
        seed: Batch,
        first: Batch,
    ) -> Result<Build> {
        if let Some(m) = &self.env.metrics {
            m.annotate("spill_mode", "build-broker");
        }
        // A restored leaf is indexed and drops its key-only columns (8 B a
        // row each).
        let (dropped, keys) =
            ((self.right_read.len() - self.payload_cols) as u64, self.right_keys.len());
        let leaf_bytes = move |bytes: u64, rows: u64| {
            bytes.saturating_sub(8 * dropped * rows) + JoinIndex::max_bytes(rows, keys)
        };
        let mut spill =
            self.core(&self.right_keys, Fanout::Bits(JOIN_BITS), leaf_bytes, "join-build");
        spill.scatter(&seed)?;
        drop(seed);
        let mut next = Some(first);
        while let Some(batch) = next {
            spill.make_room(batch.estimated_bytes())?;
            spill.scatter(&batch)?;
            next = right.next()?.map(|b| pick(b, &self.right_read));
        }
        if !spill.any_frozen() {
            let mut payload = self.empty_build();
            spill.for_each_leaf(|leaf| leaf.for_each_chunk(|chunk| Ok(payload.append(&chunk)?)))?;
            let side =
                BuildSide::index(payload, &self.right_keys, self.payload_cols, &self.env.tracker)?;
            self.annotate_build("right", &side);
            return Ok(Build::Mem(side));
        }
        spill.freeze_all()?;
        let mut leaves = Vec::new();
        spill.for_each_leaf(|leaf| {
            leaves.push(leaf);
            Ok(())
        })?;
        if let Some(m) = &self.env.metrics {
            m.annotate("build_rows", leaves.iter().map(Leaf::rows).sum::<u64>().to_string());
            m.annotate("build", format!("spilled({})", leaves.len()));
        }
        self.grace(leaves).map(Build::Merge)
    }

    /// Phases 2 and 3 of the [module docs](self) over the build's file
    /// leaves; returns phase 4.
    fn grace(&mut self, leaves: Vec<Leaf>) -> Result<Merge> {
        let routes: Vec<Route> = leaves.iter().map(Leaf::route).collect();
        let partitions = routes.len();
        let mut probe =
            self.core(&self.left_keys, Fanout::Pairs(routes.clone()), |_, _| 0, "join-probe");
        let mut ends = Vec::new();
        let mut next_id = 0i64;
        while let Some(mut batch) =
            self.pending.pop_front().map_or_else(|| self.left.next(), |b| Ok(Some(b)))?
        {
            self.env.governor.check("probe-partition")?;
            let rows = batch.rows() as i64;
            batch.columns.push(Column::from_i64((next_id..next_id + rows).collect()));
            next_id += rows;
            ends.push(next_id);
            probe.scatter(&batch)?;
            probe.freeze_all()?;
        }

        let mut out = self.core(&[], Fanout::Pairs(routes), |_, _| 0, "join-out");
        let mut builds = leaves.into_iter().enumerate();
        let mut restores = 0usize;
        let (join_type, residual) = (self.join_type, self.residual.as_ref());
        // The output's left columns, then the row ids.
        let left_cols = [&self.left_out[..], &[self.left.schema().len()]].concat();
        let right_types = &self.right_types[..self.right_out];
        probe.for_each_leaf(|rows| {
            let (k, build) = builds
                .find(|(_, b)| b.route() == rows.route())
                .expect("every probe partition pairs with a build leaf");
            let side = self.index_leaf(build)?;
            restores += 1;
            rows.for_each_chunk(|mut chunk| {
                let ids = chunk.columns.pop().expect("probe chunks carry their row ids");
                let (lidx, ridx) =
                    probe_batch(&chunk, &side, &self.left_keys, join_type, residual, false)?;
                chunk.columns.push(ids);
                let right = gather_pairs(&side, self.right_out, &ridx);
                let fragment =
                    finish_batch(&chunk, &left_cols, join_type, right_types, &lidx, right)?;
                if fragment.rows() > 0 {
                    out.push(k, fragment)?;
                    out.freeze_all()?;
                }
                Ok(())
            })
        })?;
        if let Some(m) = &self.env.metrics {
            m.annotate("probe", format!("partitioned({partitions})"));
            m.annotate("restores", restores.to_string());
        }

        let mut heads = Vec::new();
        out.for_each_leaf(|leaf| {
            let mut chunks = leaf.into_chunks()?;
            let head = chunks.next()?;
            heads.push((chunks, head));
            Ok(())
        })?;
        Ok(Merge {
            heads,
            ends: ends.into_iter(),
            start: 0,
            rowid: self.left_out.len(),
            matched_first: join_type == JoinType::LeftOuter,
            governor: self.env.governor.clone(),
        })
    }

    /// Read a leaf back and index it.
    fn index_leaf(&self, leaf: Leaf) -> Result<BuildSide> {
        let mut payload = self.empty_build();
        leaf.for_each_chunk(|chunk| Ok(payload.append(&chunk)?))?;
        BuildSide::index(payload, &self.right_keys, self.payload_cols, &self.env.tracker)
    }
}

/// Phase 4: every leaf's output fragments, read in step, reassembled one
/// left batch at a time.
pub(super) struct Merge {
    /// Per fragment leaf: its cursor and the next fragment it holds.
    heads: Vec<(LeafChunks, Option<Batch>)>,
    /// Each left batch's end row id, in left order.
    ends: std::vec::IntoIter<i64>,
    /// The first row id of the next left batch.
    start: i64,
    /// Where a fragment carries its row ids: right after the left columns.
    rowid: usize,
    /// Left outer: a batch's matched pairs come before its unmatched rows.
    matched_first: bool,
    governor: Governor,
}

impl Merge {
    /// The output of the next left batch that has any, or `None` past the
    /// last.
    pub(super) fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(end) = self.ends.next() {
            let start = std::mem::replace(&mut self.start, end);
            self.governor.check("join-merge")?;
            let mut pieces: Option<Batch> = None;
            for (chunks, head) in &mut self.heads {
                while let Some(fragment) = head.take() {
                    if fragment.columns[self.rowid].as_i64()?[0] >= end {
                        *head = Some(fragment);
                        break;
                    }
                    match &mut pieces {
                        Some(all) => all.append(&fragment)?,
                        None => pieces = Some(fragment),
                    }
                    *head = chunks.next()?;
                }
            }
            if let Some(all) = pieces {
                return self.in_serial_order(all, start, end).map(Some);
            }
        }
        Ok(None)
    }

    /// One batch's fragments (left rows `start..end`), concatenated leaf by
    /// leaf, in the serial join's row order and without their row ids.
    fn in_serial_order(&self, mut all: Batch, start: i64, end: i64) -> Result<Batch> {
        let order = {
            let ids = all.columns[self.rowid].as_i64()?;
            let flags = match self.matched_first {
                true => Some(all.columns.last().expect("the match flag").as_i64()?),
                false => None,
            };
            // A row's place: its row id, unmatched rows after every pair.
            let span = (end - start) as usize;
            let unmatched = |i: usize| flags.is_some_and(|f| f[i] == 0);
            let slot = |i: usize| (ids[i] - start) as usize + if unmatched(i) { span } else { 0 };
            let rows = all.rows();
            (!(1..rows).all(|i| slot(i - 1) <= slot(i))).then(|| {
                // Counting sort on the slot: stable, so a row's matches keep
                // their chain order.
                let mut next = vec![0usize; 2 * span + 1];
                (0..rows).for_each(|i| next[slot(i) + 1] += 1);
                (1..next.len()).for_each(|s| next[s] += next[s - 1]);
                let mut order = vec![0usize; rows];
                for i in 0..rows {
                    order[next[slot(i)]] = i;
                    next[slot(i)] += 1;
                }
                order
            })
        };
        if let Some(order) = order {
            all = all.gather(&order);
        }
        all.columns.remove(self.rowid);
        Ok(all)
    }
}
