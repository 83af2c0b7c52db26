//! The partition-spill core: the one implementation of the
//! [`broker`](crate::broker) pressure / freeze / restore / cleanup
//! contract, shared by the hash-join build (`ops/join_spill.rs`) and radix
//! aggregation (`parallel/spill.rs`), and the only place in this crate
//! that creates spill files.
//!
//! A [`PartitionSpill`] holds `2^bits` partitions of column chunks routed
//! by the top bits of the [`hash_group_rows`] hash over the caller's key
//! columns. What it guarantees, whichever operator drives it:
//!
//! * **Order.** [`make_room`](PartitionSpill::make_room) asks the broker
//!   and, under pressure, freezes resident partitions **largest first**
//!   (ties: lowest index) until the release target — at least the pending
//!   bytes — is shed. A frozen partition's later chunks append to its file.
//! * **Stability.** A partition's chunks replay in push order whether it
//!   stayed resident, froze mid-stream, or was re-scattered: a frozen
//!   partition whose estimated footprint (× the caller's leaf factor)
//!   exceeds the broker's restore limit is never loaded whole but split on
//!   the next [`RECURSE_BITS`] of the same hash, chunk by chunk, until
//!   every [`Leaf`] fits or [`MAX_TOTAL_BITS`] are spent (one giant key:
//!   the governor's budget check is the backstop). Equal keys share a
//!   hash, so every key lives in exactly one leaf.
//! * **Accounting.** Every file created, every byte written (freezes,
//!   appends to a frozen partition, recursion sub-files) and every byte
//!   read back is booked on the operator's `spill_partitions` /
//!   `spill_bytes` / `spill_restore_bytes` where it happens; reads go
//!   through [`Leaf::for_each_chunk`], the one governor checkpoint of the
//!   restore side. Resident bytes are registered with the query's tracker
//!   per partition and travel with a resident leaf.
//! * **Lifetime.** Files belong to RAII handles inside the core or its
//!   leaves: a recursed parent unlinks before any child is read, and
//!   dropping the core or a leaf at any point — a governor trip, a failed
//!   write, a cancelled query — unlinks every file and releases every
//!   tracked byte.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{Column, IoTracker, SpillHandle, SpillWriter};

use crate::batch::Batch;
use crate::broker::MemoryBroker;
use crate::error::Result;
use crate::govern::Governor;
use crate::hash::hash_group_rows;
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::parallel::partition::{
    partition_rows_of_batch, sub_partition_of, MAX_TOTAL_BITS, RECURSE_BITS,
};

/// What differs between the core's callers.
pub(crate) struct Shape {
    /// Chunk column indices of the routing key.
    pub keys: Vec<usize>,
    /// Top-level fan-out: `2^bits` partitions.
    pub bits: u32,
    /// A leaf's in-memory footprint as a multiple of its payload estimate
    /// (what the caller builds over a restored leaf counts against the
    /// restore limit too).
    pub leaf_factor: u64,
    /// Names the temp files and the governor checkpoint.
    pub label: &'static str,
}

/// Where spill traffic is booked and restores are checkpointed.
#[derive(Clone)]
struct Meter {
    metrics: Option<Arc<OpMetrics>>,
    governor: Governor,
    label: &'static str,
}

impl Meter {
    fn note_spill(&self, files: u64, written: u64, restored: u64) {
        if let Some(m) = &self.metrics {
            m.spill_partitions.add(files);
            m.spill_bytes.add(written);
            m.spill_restore_bytes.add(restored);
        }
    }
}

/// One partition while chunks are still arriving.
enum PartState {
    Resident {
        chunks: Vec<Batch>,
        mem: MemoryGuard,
    },
    /// `mem_bytes` estimates what the file would occupy restored.
    Frozen {
        writer: SpillWriter,
        mem_bytes: u64,
    },
}

/// Split `batch` by the top `bits` of its key hash into the non-empty
/// per-partition sub-batches, rows in batch order.
pub(crate) fn scatter_batch<'a>(
    batch: &'a Batch,
    keys: &[usize],
    bits: u32,
) -> impl Iterator<Item = (usize, Batch)> + 'a {
    let key_cols: Vec<&Column> = keys.iter().map(|&k| &batch.columns[k]).collect();
    let routed = partition_rows_of_batch(&key_cols, batch.rows(), bits);
    let gathered = move |(p, rows): (usize, Vec<usize>)| (p, batch.gather(&rows));
    routed.into_iter().enumerate().filter(|(_, rows)| !rows.is_empty()).map(gathered)
}

/// See the [module docs](self).
pub(crate) struct PartitionSpill {
    shape: Shape,
    broker: MemoryBroker,
    io: IoTracker,
    meter: Meter,
    parts: Vec<PartState>,
}

impl PartitionSpill {
    pub(crate) fn new(
        shape: Shape,
        broker: MemoryBroker,
        governor: Governor,
        tracker: &Arc<MemoryTracker>,
        io: IoTracker,
        metrics: Option<Arc<OpMetrics>>,
    ) -> PartitionSpill {
        let parts = (0..1usize << shape.bits)
            .map(|_| PartState::Resident { chunks: Vec::new(), mem: tracker.register(0) })
            .collect();
        let meter = Meter { metrics, governor, label: shape.label };
        PartitionSpill { shape, broker, io, meter, parts }
    }

    /// Before holding `pending` more bytes: if the broker reports
    /// pressure, freeze down to its release target, and by at least
    /// `pending`.
    pub(crate) fn make_room(&mut self, pending: u64) -> Result<()> {
        if self.broker.should_spill(pending) {
            self.freeze(self.broker.release_target().max(pending))?;
        }
        Ok(())
    }

    /// Route `batch`'s rows to their partitions.
    pub(crate) fn scatter(&mut self, batch: &Batch) -> Result<()> {
        scatter_batch(batch, &self.shape.keys, self.shape.bits)
            .try_for_each(|(p, chunk)| self.push(p, chunk))
    }

    /// Append `chunk`, already routed, to partition `p`.
    pub(crate) fn push(&mut self, p: usize, chunk: Batch) -> Result<()> {
        let bytes = chunk.estimated_bytes();
        match &mut self.parts[p] {
            PartState::Resident { chunks, mem } => {
                mem.grow(bytes);
                chunks.push(chunk);
            }
            PartState::Frozen { writer, mem_bytes } => {
                let written = writer.write_columns(&chunk.columns)?;
                *mem_bytes += bytes;
                self.meter.note_spill(0, written, 0);
            }
        }
        Ok(())
    }

    pub(crate) fn any_frozen(&self) -> bool {
        self.parts.iter().any(|p| matches!(p, PartState::Frozen { .. }))
    }

    pub(crate) fn freeze_all(&mut self) -> Result<()> {
        self.freeze(u64::MAX)
    }

    /// Freeze resident partitions, largest first, until `target`
    /// estimated bytes are released or nothing resident is left.
    fn freeze(&mut self, target: u64) -> Result<()> {
        let mut order: Vec<(u64, usize)> = self
            .parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PartState::Resident { chunks, mem } if !chunks.is_empty() => Some((mem.bytes(), i)),
                _ => None,
            })
            .collect();
        order.sort_by_key(|&(bytes, _)| std::cmp::Reverse(bytes));
        let mut released = 0u64;
        for (bytes, i) in order {
            if released >= target {
                break;
            }
            let PartState::Resident { chunks, .. } = &self.parts[i] else {
                unreachable!("selected above")
            };
            let mut writer = SpillWriter::create(self.shape.label, &self.io)?;
            let mut written = 0u64;
            for chunk in chunks {
                written += writer.write_columns(&chunk.columns)?;
            }
            // Replacing the state drops the chunks and their guard.
            self.parts[i] = PartState::Frozen { writer, mem_bytes: bytes };
            self.meter.note_spill(1, written, 0);
            released += bytes;
        }
        Ok(())
    }

    /// Hand every non-empty partition to `f` as one or more leaves, in
    /// partition order; a frozen partition is first split until its
    /// leaves fit the restore limit.
    pub(crate) fn for_each_leaf(mut self, mut f: impl FnMut(Leaf) -> Result<()>) -> Result<()> {
        for part in std::mem::take(&mut self.parts) {
            match part {
                PartState::Resident { chunks, mem } => {
                    if !chunks.is_empty() {
                        f(self.leaf(Chunks::Resident { chunks, _mem: mem }))?;
                    }
                }
                PartState::Frozen { writer, mem_bytes } => {
                    self.split(writer.finish()?, mem_bytes, self.shape.bits, &mut f)?
                }
            }
        }
        Ok(())
    }

    fn leaf(&self, chunks: Chunks) -> Leaf {
        Leaf { chunks, meter: self.meter.clone() }
    }

    /// Emit `handle` as a leaf if it fits, else re-scatter its chunks on
    /// the next [`RECURSE_BITS`] below the `used_bits` already spent —
    /// one streamed chunk resident at a time — and split each sub-file.
    fn split(
        &self,
        handle: SpillHandle,
        mem_bytes: u64,
        used_bits: u32,
        f: &mut dyn FnMut(Leaf) -> Result<()>,
    ) -> Result<()> {
        let parent = self.leaf(Chunks::File(handle));
        if mem_bytes.saturating_mul(self.shape.leaf_factor) <= self.broker.restore_limit()
            || used_bits + RECURSE_BITS > MAX_TOTAL_BITS
        {
            return f(parent);
        }
        let mut subs: Vec<Option<(SpillWriter, u64)>> =
            (0..1usize << RECURSE_BITS).map(|_| None).collect();
        let mut hashes = Vec::new();
        parent.for_each_chunk(|chunk| {
            let keys: Vec<&Column> = self.shape.keys.iter().map(|&k| &chunk.columns[k]).collect();
            hash_group_rows(&keys, 0..chunk.rows(), &mut hashes);
            let mut routed: Vec<Vec<usize>> = vec![Vec::new(); subs.len()];
            for (row, &h) in hashes.iter().enumerate() {
                routed[sub_partition_of(h, used_bits)].push(row);
            }
            for (sub, rows) in subs.iter_mut().zip(routed) {
                if rows.is_empty() {
                    continue;
                }
                if sub.is_none() {
                    *sub = Some((SpillWriter::create(self.shape.label, &self.io)?, 0));
                }
                let (writer, sub_mem) = sub.as_mut().expect("just created");
                let gathered = chunk.gather(&rows);
                let written = writer.write_columns(&gathered.columns)?;
                *sub_mem += gathered.estimated_bytes();
                self.meter.note_spill(0, written, 0);
            }
            Ok(())
        })?;
        drop(parent); // unlinks before any child is read
        self.meter.note_spill(1, 0, 0);
        for (writer, sub_mem) in subs.into_iter().flatten() {
            self.split(writer.finish()?, sub_mem, used_bits + RECURSE_BITS, f)?;
        }
        Ok(())
    }
}

enum Chunks {
    Resident { chunks: Vec<Batch>, _mem: MemoryGuard },
    File(SpillHandle),
}

/// One partition (or sub-partition) whose footprint fits the restore
/// limit: chunks still in memory, or a spill file. Dropping it releases
/// the memory or unlinks the file.
pub(crate) struct Leaf {
    chunks: Chunks,
    meter: Meter,
}

impl Leaf {
    pub(crate) fn is_resident(&self) -> bool {
        matches!(self.chunks, Chunks::Resident { .. })
    }

    pub(crate) fn rows(&self) -> u64 {
        match &self.chunks {
            Chunks::Resident { chunks, .. } => chunks.iter().map(|c| c.rows() as u64).sum(),
            Chunks::File(handle) => handle.rows(),
        }
    }

    /// Replay the leaf's chunks in push order. A file leaf can be read
    /// any number of times; every read books its bytes as restored.
    pub(crate) fn for_each_chunk(&self, mut f: impl FnMut(&Batch) -> Result<()>) -> Result<()> {
        self.meter.governor.check(self.meter.label)?;
        match &self.chunks {
            Chunks::Resident { chunks, .. } => chunks.iter().try_for_each(f),
            Chunks::File(handle) => {
                let mut reader = handle.open()?;
                while let Some(columns) = reader.next_columns()? {
                    f(&Batch::new(columns))?;
                }
                self.meter.note_spill(0, 0, handle.bytes());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use bdcc_pool::CancelToken;
    use bdcc_storage::live_spill_files;

    use super::*;
    use crate::broker::{spill_test_guard, SpillMode};
    use crate::error::ExecError;
    use crate::parallel::partition::partition_of;

    const BITS: u32 = 2;

    struct Rig {
        tracker: Arc<MemoryTracker>,
        io: IoTracker,
        metrics: Arc<OpMetrics>,
        token: CancelToken,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                tracker: MemoryTracker::new(),
                io: IoTracker::new(),
                metrics: OpMetrics::new(),
                token: CancelToken::new(),
            }
        }

        /// A core keyed on columns 0 and 1 under `mode` / `budget`.
        fn core(&self, mode: SpillMode, budget: Option<u64>, leaf_factor: u64) -> PartitionSpill {
            let mut governor = Governor::none();
            governor.set_cancel(self.token.clone(), &self.tracker);
            PartitionSpill::new(
                Shape { keys: vec![0, 1], bits: BITS, leaf_factor, label: "test" },
                MemoryBroker::with_mode(mode, &self.tracker, budget),
                governor,
                &self.tracker,
                self.io.clone(),
                Some(Arc::clone(&self.metrics)),
            )
        }

        fn booked(&self) -> (u64, u64, u64) {
            let m = &self.metrics;
            (m.spill_partitions.get(), m.spill_bytes.get(), m.spill_restore_bytes.get())
        }
    }

    /// `(int key, string key, stream position)` rows in batches of `per`.
    fn stream(rows: i64, per: usize, key: impl Fn(i64) -> i64) -> Vec<Batch> {
        let seq: Vec<i64> = (0..rows).collect();
        seq.chunks(per)
            .map(|c| {
                Batch::new(vec![
                    Column::from_i64(c.iter().map(|&i| key(i)).collect()),
                    Column::from_strings(c.iter().map(|&i| format!("s{}", key(i) % 5)).collect()),
                    Column::from_i64(c.to_vec()),
                ])
            })
            .collect()
    }

    fn drain(spill: &mut PartitionSpill, input: &[Batch]) {
        for batch in input {
            spill.make_room(batch.estimated_bytes()).unwrap();
            spill.scatter(batch).unwrap();
        }
    }

    fn leaves_of(spill: PartitionSpill) -> Vec<Leaf> {
        let mut leaves = Vec::new();
        let keep = |leaf| {
            leaves.push(leaf);
            Ok(())
        };
        spill.for_each_leaf(keep).unwrap();
        leaves
    }

    /// The stream positions a leaf replays, in replay order.
    fn positions(leaf: &Leaf) -> Vec<i64> {
        let mut seen = Vec::new();
        let note = |c: &Batch| {
            seen.extend_from_slice(c.columns[2].as_i64()?);
            Ok(())
        };
        leaf.for_each_chunk(note).unwrap();
        assert_eq!(seen.len() as u64, leaf.rows());
        seen
    }

    fn file_bytes(leaf: &Leaf) -> u64 {
        match &leaf.chunks {
            Chunks::File(handle) => handle.bytes(),
            Chunks::Resident { .. } => 0,
        }
    }

    fn frozen(spill: &PartitionSpill) -> Vec<bool> {
        spill.parts.iter().map(|p| matches!(p, PartState::Frozen { .. })).collect()
    }

    #[test]
    fn freeze_is_largest_first_and_stops_at_the_target() {
        let _spill = spill_test_guard();
        let rig = Rig::new();
        let mut spill = rig.core(SpillMode::Auto, Some(6000), 1);
        let ints = |rows: i64| {
            let col = || Column::from_i64((0..rows).collect());
            Batch::new(vec![col(), col(), col()])
        };
        // 2400, 7200, 4800 and 4800 bytes: 19 200 tracked, over the 4500
        // high-water mark; low water is 3000.
        for (p, rows) in [(0, 100), (1, 300), (2, 200), (3, 200)] {
            spill.push(p, ints(rows)).unwrap();
        }
        assert_eq!(rig.tracker.current(), 19_200);
        spill.freeze(4801).unwrap();
        assert_eq!(frozen(&spill), [false, true, false, false], "the largest alone covers it");
        spill.freeze(4801).unwrap();
        assert_eq!(frozen(&spill), [false, true, true, true], "ties go to the lower index");
        assert_eq!(rig.tracker.current(), 2400);
        // Under the high-water mark nothing freezes; a pending chunk that
        // crosses it sheds at least its own size.
        spill.make_room(2000).unwrap();
        assert!(!frozen(&spill)[0]);
        spill.make_room(2200).unwrap();
        assert_eq!(frozen(&spill), [true; 4]);
        assert_eq!(rig.tracker.current(), 0);
        assert_eq!(rig.booked().0, 4);
        // An empty partition has nothing to freeze.
        let mut spill = rig.core(SpillMode::Force, None, 1);
        spill.push(2, ints(10)).unwrap();
        spill.freeze_all().unwrap();
        assert_eq!(frozen(&spill), [false, false, true, false]);
    }

    #[test]
    fn chunks_replay_in_push_order_resident_frozen_or_recursed() {
        let _spill = spill_test_guard();
        let base = live_spill_files();
        let input = stream(3000, 64, |i| (i * 13) % 977);
        let all = input.iter().skip(1).fold(input[0].clone(), |mut all, b| {
            all.append(b).unwrap();
            all
        });
        let mut hashes = Vec::new();
        hash_group_rows(&[&all.columns[0], &all.columns[1]], 0..all.rows(), &mut hashes);
        // (mode, budget, leaves that stayed resident, recursion expected)
        let cases = [
            (SpillMode::Auto, Some(1u64 << 30), true, false),
            (SpillMode::Force, None, false, false),
            (SpillMode::Auto, Some(4096), false, true),
        ];
        for (mode, budget, resident, recursed) in cases {
            let rig = Rig::new();
            let mut spill = rig.core(mode, budget, 1);
            drain(&mut spill, &input);
            if !resident {
                assert!(spill.any_frozen());
                spill.freeze_all().unwrap();
            }
            let leaves = leaves_of(spill);
            assert!(leaves.iter().all(|l| l.is_resident() == resident), "{mode:?}");
            assert_eq!(leaves.len() > 1 << BITS, recursed, "{mode:?}: {} leaves", leaves.len());
            let mut covered = 0;
            for leaf in &leaves {
                let got = positions(leaf);
                // The leaf is the slice of the stream that shares its
                // first row's route, at whatever depth the leaf sits.
                let first = hashes[got[0] as usize];
                let depth = (BITS..=MAX_TOTAL_BITS).step_by(RECURSE_BITS as usize).find(|&d| {
                    let want = (0..all.rows() as i64)
                        .filter(|&r| partition_of(hashes[r as usize], d) == partition_of(first, d));
                    want.eq(got.iter().copied())
                });
                assert!(depth.is_some(), "{mode:?}: a leaf is not a route's rows in stream order");
                covered += got.len();
            }
            assert_eq!(covered, all.rows(), "{mode:?}: leaves tile the stream");
            drop(leaves);
            assert_eq!(live_spill_files(), base, "{mode:?}");
            assert_eq!(rig.tracker.current(), 0, "{mode:?}");
        }
    }

    #[test]
    fn every_byte_is_booked_where_it_is_written_and_read() {
        let _spill = spill_test_guard();
        let rig = Rig::new();
        // Freezes on the second batch, keeps appending to the frozen
        // partitions, and recurses on restore (2 KB restore limit).
        let mut spill = rig.core(SpillMode::Auto, Some(4096), 2);
        drain(&mut spill, &stream(3000, 64, |i| i));
        spill.freeze_all().unwrap();
        let leaves = leaves_of(spill);
        // The I/O tracker meters every file byte once per direction,
        // whoever books what: all files written (W) plus the recursed
        // parents read back (P). Every file is a parent or a leaf, so with
        // the leaves' sizes (L): W = P + L and io = W + P.
        let io = rig.io.stats().bytes_read;
        let l: u64 = leaves.iter().map(file_bytes).sum();
        let (files, written, restored) = rig.booked();
        assert!(leaves.len() > 1 << BITS && files > 1 << BITS, "the run must recurse");
        assert_eq!(written, (io + l) / 2, "bytes written, appends and sub-files included");
        assert_eq!(restored, (io - l) / 2, "bytes of every recursed parent");
        // Each read of a leaf books the leaf's file; the device pays once.
        for _ in 0..2 {
            leaves.iter().for_each(|leaf| assert!(!positions(leaf).is_empty()));
        }
        assert_eq!(rig.booked(), (files, written, restored + 2 * l));
        assert_eq!(rig.io.stats().bytes_read, io + l);
    }

    #[test]
    fn one_giant_key_recurses_to_the_bit_budget_and_yields_one_leaf() {
        let _spill = spill_test_guard();
        let rig = Rig::new();
        let mut spill = rig.core(SpillMode::Auto, Some(1024), 1);
        drain(&mut spill, &stream(500, 50, |_| 42));
        spill.freeze_all().unwrap();
        let leaves = leaves_of(spill);
        assert_eq!(leaves.len(), 1);
        assert_eq!(positions(&leaves[0]), (0..500).collect::<Vec<_>>());
        // One freeze, then a split per level until the bits run out.
        assert_eq!(rig.booked().0, 1 + ((MAX_TOTAL_BITS - BITS) / RECURSE_BITS) as u64);
    }

    #[test]
    fn a_drop_or_a_governor_trip_leaves_no_file_and_no_tracked_byte() {
        let _spill = spill_test_guard();
        let base = live_spill_files();
        let input = stream(2000, 100, |i| i);
        // Dropped mid-stream: some partitions frozen, some resident.
        let rig = Rig::new();
        let mut spill = rig.core(SpillMode::Auto, Some(16_384), 1);
        drain(&mut spill, &input);
        let states = frozen(&spill);
        assert!(states.contains(&true) && states.contains(&false), "{states:?}");
        assert!(live_spill_files() > base && rig.tracker.current() > 0);
        drop(spill);
        assert_eq!((live_spill_files(), rig.tracker.current()), (base, 0));
        // Cancelled on the first leaf, while its siblings and the other
        // frozen partitions are open files: the next read trips.
        let rig = Rig::new();
        let mut spill = rig.core(SpillMode::Auto, Some(1024), 1);
        drain(&mut spill, &input);
        spill.freeze_all().unwrap();
        let mut open_at_cancel = 0;
        let tripped = spill.for_each_leaf(|_| {
            if !rig.token.is_cancelled() {
                open_at_cancel = live_spill_files() - base;
                rig.token.cancel();
            }
            Ok(())
        });
        assert_eq!(tripped, Err(ExecError::Cancelled));
        assert!(open_at_cancel > 1 << BITS, "{open_at_cancel} files open");
        assert_eq!((live_spill_files(), rig.tracker.current()), (base, 0));
    }
}
