//! Spill-capable grace-hash build for [`HashJoin`] under an active
//! [`MemoryBroker`](crate::broker::MemoryBroker).
//!
//! When the broker reports pressure mid-drain, the build side switches
//! to a 16-way hash-partitioned drain: each pending batch is scattered
//! by key hash, and the **largest resident partitions freeze** — their
//! accumulated rows are written to a spill file and later rows for that
//! partition stream straight to disk. At drain end, frozen files whose
//! estimated in-memory size exceeds the broker's restore limit are
//! **split recursively** on deeper hash bits (4 bits per level) until
//! every leaf fits; still-resident partitions become ordinary in-memory
//! leaves with their own [`JoinIndex`].
//!
//! Probing restores one file leaf at a time (governor checkpoint
//! `join-spill-restore`): the leaf's rows are read back in original
//! build-stream order, indexed, and the **whole** probe batch runs
//! against the leaf index. Equal keys hash to exactly one leaf, so each
//! probe row matches in at most one leaf and per-leaf match fragments
//! are disjoint; a stable merge on the left row id reassembles each
//! batch's output in exactly the serial probe order — byte-identical,
//! spilled or not. Semi/anti unite per-leaf match lists into one
//! matched-flag set; left-outer ORs matched flags across leaves before
//! defaulting the unmatched rows.
//!
//! All spill writes and restores are metered through the join's
//! [`IoTracker`] (restores of the same file charge bytes once), and
//! every file unlinks on drop — including mid-query cancellation,
//! because handles live inside the operator tree.

use bdcc_storage::{Column, SpillHandle, SpillWriter};

use crate::batch::Batch;
use crate::error::Result;
use crate::hash::{hash_group_rows, JoinIndex};
use crate::memory::MemoryGuard;
use crate::ops::BoxedOp;
use crate::parallel::partition::{
    partition_rows_of_batch, sub_partition_of, MAX_TOTAL_BITS, RECURSE_BITS,
};
use crate::parallel::ParallelConfig;

use super::{default_column, needs_pairs, probe_range, BuildSide, HashJoin, JoinType};

/// Top-level spill partition fan-out: 2^4 = 16 partitions.
const JOIN_BITS: u32 = 4;

/// The join's build side: fully resident, or partitioned with some
/// partitions frozen to spill files.
pub(super) enum Build {
    Mem(BuildSide),
    Spilled(SpilledBuild),
}

/// A finalized spilled build: a flat list of leaves, each either an
/// indexed in-memory partition or a spill file small enough to restore
/// within the broker's limit.
pub(super) struct SpilledBuild {
    leaves: Vec<Leaf>,
}

enum Leaf {
    Mem(BuildSide),
    File { handle: SpillHandle },
}

/// One partition mid-drain.
enum PartState {
    Resident { columns: Vec<Column>, bytes: u64 },
    Frozen { writer: SpillWriter, mem_bytes: u64 },
}

/// Estimated in-memory bytes of a column set (same payload formula the
/// in-memory build registers).
pub(super) fn est_cols(cols: &[Column]) -> u64 {
    cols.iter().map(|c| (c.len() as f64 * c.avg_width()) as u64).sum()
}

/// Per-(batch, leaf) match fragment: matched left rows plus the right
/// pair columns gathered while the leaf was resident.
struct Fragment {
    lidx: Vec<usize>,
    right: Vec<Column>,
}

impl HashJoin {
    fn note_spill(&self, parts: u64, out: u64, back: u64) {
        if let Some(m) = &self.metrics {
            if parts > 0 {
                m.spill_partitions.add(parts);
            }
            if out > 0 {
                m.spill_bytes.add(out);
            }
            if back > 0 {
                m.spill_restore_bytes.add(back);
            }
        }
    }

    /// Scatter one build batch across the partitions, appending to
    /// resident ones and streaming straight to disk for frozen ones.
    /// Row order within each partition follows the build stream.
    fn scatter(&self, batch: &Batch, parts: &mut [PartState], resident: &mut u64) -> Result<()> {
        let keys: Vec<&Column> = self.right_keys.iter().map(|&k| &batch.columns[k]).collect();
        let ids = partition_rows_of_batch(&keys, batch.rows(), JOIN_BITS);
        for (part, ids) in parts.iter_mut().zip(&ids) {
            if ids.is_empty() {
                continue;
            }
            let cols: Vec<Column> = batch.columns.iter().map(|c| c.gather(ids)).collect();
            let bytes = est_cols(&cols);
            match part {
                PartState::Resident { columns, bytes: pb } => {
                    for (dst, src) in columns.iter_mut().zip(&cols) {
                        dst.append(src)?;
                    }
                    *pb += bytes;
                    *resident += bytes;
                }
                PartState::Frozen { writer, mem_bytes } => {
                    writer.write_columns(&cols)?;
                    *mem_bytes += bytes;
                }
            }
        }
        Ok(())
    }

    /// Freeze the largest resident partitions until at least `target`
    /// bytes are released (or everything nonempty is frozen).
    fn freeze_parts(&self, parts: &mut [PartState], target: u64, resident: &mut u64) -> Result<()> {
        let mut order: Vec<(u64, usize)> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PartState::Resident { bytes, .. } if *bytes > 0 => Some((*bytes, i)),
                _ => None,
            })
            .collect();
        order.sort_by_key(|&(bytes, _)| std::cmp::Reverse(bytes));
        let mut released = 0u64;
        for (bytes, i) in order {
            if released >= target {
                break;
            }
            let PartState::Resident { columns, .. } = &mut parts[i] else { unreachable!() };
            let mut writer = SpillWriter::create("join-build", &self.spill_io)?;
            writer.write_columns(columns)?;
            self.note_spill(1, writer.bytes(), 0);
            parts[i] = PartState::Frozen { writer, mem_bytes: bytes };
            released += bytes;
            *resident -= bytes;
        }
        Ok(())
    }

    /// Partitioned drain, entered the moment the in-memory drain sees
    /// pressure: `seed` holds the rows drained so far (stream order) and
    /// `first` is the pending batch that tripped the high-water mark.
    pub(super) fn build_spilled(
        &mut self,
        mut right: BoxedOp,
        seed: Vec<Column>,
        mut guard: MemoryGuard,
        first: Batch,
    ) -> Result<SpilledBuild> {
        if let Some(m) = &self.metrics {
            m.annotate("spill_mode", "build-broker");
        }
        let nparts = 1usize << JOIN_BITS;
        let mut parts: Vec<PartState> = (0..nparts)
            .map(|_| PartState::Resident {
                columns: self.right_types.iter().map(|&dt| Column::empty(dt)).collect(),
                bytes: 0,
            })
            .collect();
        let mut resident = 0u64;
        let seed = Batch::new(seed);
        if seed.rows() > 0 {
            self.scatter(&seed, &mut parts, &mut resident)?;
        }
        drop(seed);
        guard.resize(resident);
        let mut pending = Some(first);
        loop {
            let batch = match pending.take() {
                Some(b) => b,
                None => match right.next()? {
                    Some(b) => b,
                    None => break,
                },
            };
            let bytes = est_cols(&batch.columns);
            if self.broker.should_spill(bytes) {
                self.freeze_parts(
                    &mut parts,
                    self.broker.release_target().max(bytes),
                    &mut resident,
                )?;
                guard.resize(resident);
            }
            self.scatter(&batch, &mut parts, &mut resident)?;
            guard.resize(resident);
        }
        // Finalize. Once anything froze, freeze *everything*: probing
        // then holds exactly one restored leaf (payload + index) at a
        // time, which is what keeps the query inside its budget — a
        // partially resident build would pay resident payloads *and*
        // their indexes on top of every restore. (If pressure never
        // fired mid-drain we never got here, so the common in-memory
        // case is untouched.) Then writers become files and oversized
        // files split until they fit the broker's restore limit.
        if parts.iter().any(|p| matches!(p, PartState::Frozen { .. })) {
            self.freeze_parts(&mut parts, u64::MAX, &mut resident)?;
            guard.resize(resident);
        }
        let mut leaves = Vec::new();
        let mut rows = 0u64;
        for part in parts {
            match part {
                PartState::Resident { columns, bytes } => {
                    if columns.first().map_or(0, |c| c.len()) == 0 {
                        continue;
                    }
                    rows += columns.first().map_or(0, |c| c.len()) as u64;
                    leaves.push(Leaf::Mem(self.index_leaf(columns, bytes)?));
                }
                PartState::Frozen { writer, mem_bytes } => {
                    let handle = writer.finish()?;
                    rows += handle.rows();
                    self.split_oversized(handle, mem_bytes, JOIN_BITS, &mut leaves)?;
                }
            }
        }
        guard.resize(0);
        if let Some(m) = &self.metrics {
            m.annotate("build_rows", rows.to_string());
            m.annotate("build", format!("spilled({})", leaves.len()));
        }
        Ok(SpilledBuild { leaves })
    }

    /// Build a leaf's [`JoinIndex`] and register its memory.
    fn index_leaf(&self, columns: Vec<Column>, bytes: u64) -> Result<BuildSide> {
        let key_cols: Vec<&[i64]> = self
            .right_keys
            .iter()
            .map(|&k| columns[k].as_i64())
            .collect::<std::result::Result<_, _>>()?;
        // A leaf fits the restore limit by construction: one serial table.
        let index = JoinIndex::build(&key_cols, &ParallelConfig::with_threads(1))?;
        let mem = self.tracker.register(bytes + index.estimated_bytes());
        drop(key_cols);
        Ok(BuildSide { columns, index, _mem: mem })
    }

    /// Recursively split a spill file on deeper hash bits until its
    /// estimated restore size fits the broker's limit. Entries scatter
    /// stably, so each sub-leaf keeps original build-stream order.
    ///
    /// The payload is doubled before comparing against the limit:
    /// restoring a leaf also builds its [`JoinIndex`], whose flat arrays
    /// cost the same order as the payload itself.
    fn split_oversized(
        &self,
        handle: SpillHandle,
        mem_bytes: u64,
        used_bits: u32,
        leaves: &mut Vec<Leaf>,
    ) -> Result<()> {
        if mem_bytes.saturating_mul(2) <= self.broker.restore_limit()
            || used_bits + RECURSE_BITS > MAX_TOTAL_BITS
        {
            leaves.push(Leaf::File { handle });
            return Ok(());
        }
        self.governor.check("join-spill-restore")?;
        let n = 1usize << RECURSE_BITS;
        let mut subs: Vec<Option<(SpillWriter, u64)>> = (0..n).map(|_| None).collect();
        let file_bytes = handle.bytes();
        let mut reader = handle.open()?;
        let mut hashes = Vec::new();
        while let Some(cols) = reader.next_columns()? {
            let rows = cols.first().map_or(0, |c| c.len());
            let keys: Vec<&Column> = self.right_keys.iter().map(|&k| &cols[k]).collect();
            hash_group_rows(&keys, 0..rows, &mut hashes);
            drop(keys);
            let mut ids: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (row, &h) in hashes.iter().enumerate() {
                ids[sub_partition_of(h, used_bits)].push(row);
            }
            for (si, ids) in ids.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                if subs[si].is_none() {
                    subs[si] = Some((SpillWriter::create("join-rec", &self.spill_io)?, 0));
                }
                let (w, mb) = subs[si].as_mut().expect("just created");
                let gathered: Vec<Column> = cols.iter().map(|c| c.gather(ids)).collect();
                w.write_columns(&gathered)?;
                *mb += est_cols(&gathered);
            }
        }
        drop(reader);
        drop(handle); // parent file unlinks here
        self.note_spill(1, 0, file_bytes);
        for (w, mb) in subs.into_iter().flatten() {
            self.note_spill(0, w.bytes(), 0);
            let h = w.finish()?;
            self.split_oversized(h, mb, used_bits + RECURSE_BITS, leaves)?;
        }
        Ok(())
    }

    /// Restore one file leaf: read rows back (build-stream order), index,
    /// register memory for the leaf's lifetime.
    fn restore_leaf(&self, handle: &SpillHandle) -> Result<BuildSide> {
        self.governor.check("join-spill-restore")?;
        let mut columns: Vec<Column> =
            self.right_types.iter().map(|&dt| Column::empty(dt)).collect();
        let mut reader = handle.open()?;
        while let Some(cols) = reader.next_columns()? {
            for (dst, src) in columns.iter_mut().zip(&cols) {
                dst.append(src)?;
            }
        }
        self.note_spill(0, 0, handle.bytes());
        let bytes = est_cols(&columns);
        self.index_leaf(columns, bytes)
    }

    /// Probe a round against a spilled build, one leaf at a time; merge
    /// the per-leaf fragments back into serial probe order per batch.
    pub(super) fn probe_round_spilled(
        &self,
        build: &SpilledBuild,
        round: &[Batch],
    ) -> Result<Vec<Batch>> {
        let pairs = needs_pairs(self.join_type, self.residual.is_some());
        let mut frags: Vec<Vec<Fragment>> = round.iter().map(|_| Vec::new()).collect();
        for leaf in &build.leaves {
            let restored;
            let side = match leaf {
                Leaf::Mem(b) => b,
                Leaf::File { handle } => {
                    restored = self.restore_leaf(handle)?;
                    &restored
                }
            };
            for (bi, batch) in round.iter().enumerate() {
                let (lidx, ridx) = probe_range(
                    batch,
                    side,
                    &self.left_keys,
                    self.join_type,
                    self.residual.as_ref(),
                    0..batch.rows(),
                )?;
                if lidx.is_empty() {
                    continue;
                }
                let right = if pairs {
                    side.columns.iter().map(|c| c.gather_u32(&ridx)).collect()
                } else {
                    Vec::new()
                };
                frags[bi].push(Fragment { lidx, right });
            }
        }
        round
            .iter()
            .zip(frags)
            .map(|(batch, frags)| self.merge_leaf_fragments(batch, frags))
            .collect()
    }

    /// Reassemble one batch's output from its per-leaf fragments.
    ///
    /// Each probe row's key lives in exactly one leaf, so fragment
    /// `lidx` sets are disjoint: a stable sort on the left row id
    /// interleaves the fragments into exactly the serial probe order
    /// (ties within a row stay in the leaf's chain order, which matches
    /// the full index's because partitioning preserves relative build
    /// order among equal keys).
    fn merge_leaf_fragments(&self, left: &Batch, frags: Vec<Fragment>) -> Result<Batch> {
        if matches!(self.join_type, JoinType::Semi | JoinType::Anti) {
            // Union of matched rows across leaves: only the matched-flag
            // set decides survivors, so order and dupes are moot.
            let rows = left.rows();
            let mut matched = vec![false; rows];
            for l in frags.into_iter().flat_map(|f| f.lidx) {
                matched[l] = true;
            }
            let keep: Vec<bool> = match self.join_type {
                JoinType::Semi => matched,
                _ => matched.iter().map(|&m| !m).collect(),
            };
            return Ok(left.filter(&keep));
        }
        let total: usize = frags.iter().map(|f| f.lidx.len()).sum();
        let mut all_l: Vec<usize> = Vec::with_capacity(total);
        let mut rcols: Vec<Column> = self.right_types.iter().map(|&dt| Column::empty(dt)).collect();
        for f in frags {
            all_l.extend(f.lidx);
            for (dst, src) in rcols.iter_mut().zip(&f.right) {
                dst.append(src)?;
            }
        }
        let mut order: Vec<usize> = (0..all_l.len()).collect();
        order.sort_by_key(|&i| all_l[i]); // stable: in-frag chain order kept
        let lidx: Vec<usize> = order.iter().map(|&i| all_l[i]).collect();
        let mut cols: Vec<Column> = left.columns.iter().map(|c| c.gather(&lidx)).collect();
        for rc in &rcols {
            cols.push(rc.gather(&order));
        }
        match self.join_type {
            JoinType::Inner => Ok(Batch::new(cols)),
            JoinType::LeftOuter => {
                cols.push(Column::from_i64(vec![1; lidx.len()]));
                let mut out = Batch::new(cols);
                let rows = left.rows();
                let mut matched = vec![false; rows];
                for &l in &lidx {
                    matched[l] = true;
                }
                let unmatched: Vec<usize> = (0..rows).filter(|&r| !matched[r]).collect();
                if !unmatched.is_empty() {
                    let mut ucols: Vec<Column> =
                        left.columns.iter().map(|c| c.gather(&unmatched)).collect();
                    for &dt in self.right_types.iter().take(self.right_arity) {
                        ucols.push(default_column(dt, unmatched.len()));
                    }
                    ucols.push(Column::from_i64(vec![0; unmatched.len()]));
                    let ub = Batch::new(ucols);
                    for (dst, src) in out.columns.iter_mut().zip(&ub.columns) {
                        dst.append(src)?;
                    }
                }
                Ok(out)
            }
            JoinType::Semi | JoinType::Anti => unreachable!("handled above"),
        }
    }
}
