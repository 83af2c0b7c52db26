//! The partition-spill core: the one implementation of the
//! [`governor`](crate::govern)'s pressure / freeze / restore / cleanup
//! contract, shared by the grace-hash join (`ops/join_spill.rs`: its build,
//! probe and output files) and the hybrid hash aggregate (`ops/agg.rs`: the
//! rows of the groups its table no longer takes), and the only place in
//! this crate that creates or reads spill files.
//!
//! A [`PartitionSpill`] holds partitions of column chunks routed by the
//! [`hash_group_rows`] hash over the caller's key columns — `2^bits` of
//! them on its top bits ([`partition_of`]), or one per [`Route`] of another
//! core's leaves ([`Fanout`]). Equal keys share a hash, so they never split
//! across partitions. What it guarantees, whichever operator drives it:
//!
//! * **Order.** [`make_room`](PartitionSpill::make_room) asks the governor
//!   and, under pressure, freezes resident partitions **largest first**
//!   (ties: lowest index) until the release target — at least the pending
//!   bytes — is shed. A frozen partition's later chunks append to its file.
//!   [`make_room_for`](PartitionSpill::make_room_for) also freezes the
//!   chunk's own partition when holding it would still cross the budget, so
//!   a chunk larger than what is left goes straight to its file.
//! * **Stability.** A partition's chunks replay in push order whether it
//!   stayed resident, froze mid-stream, or was re-scattered: a frozen
//!   partition whose restored footprint (as the caller estimates it)
//!   exceeds the governor's restore limit is never loaded whole but split on
//!   the next bits of the same hash — as many as the overshoot needs, at
//!   most [`RECURSE_BITS`] — chunk by chunk, until
//!   every [`Leaf`] fits or [`MAX_TOTAL_BITS`] are spent (one giant key:
//!   the governor's budget check is the backstop). Equal keys share a
//!   hash, so every key lives in exactly one leaf.
//! * **Accounting.** Every file created, every byte written (freezes,
//!   appends to a frozen partition, recursion sub-files) and every byte
//!   read back is booked on the operator's `spill_partitions` /
//!   `spill_bytes` / `spill_restore_bytes` where it happens. A leaf is read
//!   once, by [`Leaf::for_each_chunk`] or [`Leaf::into_chunks`] (leaves in
//!   step); opening it is the restore side's one governor checkpoint and
//!   books its file, so every file set — a join's build leaves, probe
//!   partitions and fragments too — restores what it wrote, plus recursed
//!   parents. Resident bytes are registered with the query's tracker per
//!   partition and travel with a resident leaf.
//! * **Pairing.** Every leaf knows its [`Route`], the slice of hash space
//!   its rows come from; a core over another core's routes
//!   ([`Fanout::Pairs`]) lands a second input on the same key values beside
//!   the first one's leaves, recursion included, without splitting it.
//! * **Lifetime.** Files belong to RAII handles inside the core or its
//!   leaves: a recursed parent unlinks before any child is read, and
//!   dropping the core or a leaf at any point — a governor trip, a failed
//!   write, a cancelled query — unlinks every file and releases every
//!   tracked byte.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::{Column, IoTracker, SpillHandle, SpillReader, SpillWriter};

use crate::batch::Batch;
use crate::error::Result;
use crate::govern::Governor;
use crate::hash::hash_group_rows;
use crate::memory::MemoryGuard;
use crate::ops::OpEnv;

/// The most hash bits one recursive split of an oversized partition
/// consumes (16 sub-partitions).
const RECURSE_BITS: u32 = 4;

/// Deepest total bit budget for recursion: a 1-in-4-billion hash slice
/// still over the restore limit is one giant key, and loads whole.
const MAX_TOTAL_BITS: u32 = 32;

/// The partition owning hash `h` under a `2^bits` partitioning: the top
/// `bits` of the hash (partition 0 when `bits == 0`, not a 64-bit shift).
#[inline(always)]
fn partition_of(h: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (h >> (64 - bits)) as usize
    }
}

/// The sub-partition of hash `h` once its top `used_bits` are spent: the
/// `bits` bits immediately below them — disjoint from every ancestor's
/// routing bits, so recursion refines partitions, and equal keys (one
/// hash) always land in one sub-partition.
#[inline]
fn sub_partition_of(h: u64, used_bits: u32, bits: u32) -> usize {
    ((h << used_bits) >> (64 - bits)) as usize
}

/// Split rows `0..rows` of `key_cols` into `2^bits` partitions by the top
/// bits of their key hash: per-partition row lists, each ascending, jointly
/// tiling the rows.
fn partition_rows_of_batch(key_cols: &[&Column], rows: usize, bits: u32) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); 1 << bits];
    let mut hashes = Vec::new();
    hash_group_rows(key_cols, 0..rows, &mut hashes);
    for (r, &h) in hashes.iter().enumerate() {
        parts[partition_of(h, bits)].push(r);
    }
    parts
}

/// What differs between the core's callers.
pub(crate) struct Shape {
    /// Chunk column indices of the routing key.
    pub keys: Vec<usize>,
    /// The top-level partitions and how rows are routed to them.
    pub fanout: Fanout,
    /// A restored leaf's in-memory footprint from its payload estimate and
    /// rows (what the caller builds over a restored leaf counts against the
    /// restore limit too, what it drops once built does not); 0 for a leaf
    /// that is only ever streamed, which never splits.
    pub leaf_bytes: Box<dyn Fn(u64, u64) -> u64 + Send + Sync>,
    /// Names the temp files and the governor checkpoint.
    pub label: &'static str,
}

/// A core's top-level partitions.
pub(crate) enum Fanout {
    /// `2^bits` partitions on the top `bits` of the key hash.
    Bits(u32),
    /// One partition per route — the leaves another core handed out, in
    /// that order. A row goes to the route holding its hash; a row no route
    /// holds (its key is in none of those leaves) goes to the nearest route
    /// below it, the first if there is none.
    Pairs(Vec<Route>),
}

/// The slice of hash space a leaf's rows come from: every hash whose top
/// `bits` are `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    bits: u32,
    index: u64,
}

impl Route {
    /// The smallest hash the route holds.
    fn start(self) -> u64 {
        self.index.checked_shl(64 - self.bits).unwrap_or(0)
    }
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
    io: IoTracker,
    /// Books spill traffic; its governor answers the pressure questions.
    meter: Meter,
    parts: Vec<PartState>,
}

impl PartitionSpill {
    /// A core for the operator whose environment is `env`: its partitions
    /// register on `env.tracker`, its files are metered on `env.io`, and
    /// `env.governor` decides when to freeze and how much to restore.
    pub(crate) fn new(shape: Shape, env: &OpEnv) -> PartitionSpill {
        let count = match &shape.fanout {
            Fanout::Bits(bits) => 1usize << bits,
            Fanout::Pairs(routes) => routes.len(),
        };
        let parts = (0..count)
            .map(|_| PartState::Resident { chunks: Vec::new(), mem: env.tracker.register(0) })
            .collect();
        let (metrics, governor) = (env.metrics.clone(), env.governor.clone());
        let meter = Meter { metrics, governor, label: shape.label };
        PartitionSpill { shape, io: env.io.clone(), meter, parts }
    }

    /// Before holding `pending` more bytes: if the governor reports
    /// pressure, freeze down to its release target, and by at least
    /// `pending`.
    pub(crate) fn make_room(&mut self, pending: u64) -> Result<()> {
        let governor = &self.meter.governor;
        if governor.should_spill(pending) {
            self.freeze(governor.release_target().max(pending))?;
        }
        Ok(())
    }

    /// [`make_room`](Self::make_room) for `pending` bytes bound for
    /// partition `p`; if holding them would still take the query over its
    /// budget, `p` freezes too, so they go straight to its file.
    pub(crate) fn make_room_for(&mut self, p: usize, pending: u64) -> Result<()> {
        self.make_room(pending)?;
        let resident = matches!(self.parts[p], PartState::Resident { .. });
        if resident && self.meter.governor.over_budget(pending) {
            self.freeze_part(p)?;
        }
        Ok(())
    }

    /// Route `batch`'s rows to their partitions.
    pub(crate) fn scatter(&mut self, batch: &Batch) -> Result<()> {
        let keys: Vec<&Column> = self.shape.keys.iter().map(|&k| &batch.columns[k]).collect();
        let routed = match &self.shape.fanout {
            Fanout::Bits(bits) => partition_rows_of_batch(&keys, batch.rows(), *bits),
            Fanout::Pairs(routes) => {
                let mut hashes = Vec::new();
                hash_group_rows(&keys, 0..batch.rows(), &mut hashes);
                let mut routed = vec![Vec::new(); routes.len()];
                for (row, &h) in hashes.iter().enumerate() {
                    routed[routes.partition_point(|r| r.start() <= h).saturating_sub(1)].push(row);
                }
                routed
            }
        };
        for (p, rows) in routed.into_iter().enumerate() {
            if !rows.is_empty() {
                self.push(p, batch.gather(&rows))?;
            }
        }
        Ok(())
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
            self.freeze_part(i)?;
            released += bytes;
        }
        Ok(())
    }

    /// Write resident partition `i`'s chunks to a new file and keep
    /// appending there.
    fn freeze_part(&mut self, i: usize) -> Result<()> {
        let PartState::Resident { chunks, mem } = &self.parts[i] else {
            unreachable!("only a resident partition freezes")
        };
        let mut writer = SpillWriter::create(self.shape.label, &self.io)?;
        let mut written = 0u64;
        for chunk in chunks {
            written += writer.write_columns(&chunk.columns)?;
        }
        // Replacing the state drops the chunks and their guard.
        self.parts[i] = PartState::Frozen { writer, mem_bytes: mem.bytes() };
        self.meter.note_spill(1, written, 0);
        Ok(())
    }

    /// Hand every non-empty partition to `f` as one or more leaves, in
    /// partition order — ascending hash slices; a frozen partition is first
    /// split until its leaves fit the restore limit.
    pub(crate) fn for_each_leaf(mut self, mut f: impl FnMut(Leaf) -> Result<()>) -> Result<()> {
        for (p, part) in std::mem::take(&mut self.parts).into_iter().enumerate() {
            let route = match &self.shape.fanout {
                Fanout::Bits(bits) => Route { bits: *bits, index: p as u64 },
                Fanout::Pairs(routes) => routes[p],
            };
            match part {
                PartState::Resident { chunks, mem } => {
                    if !chunks.is_empty() {
                        f(self.leaf(Chunks::Resident { chunks, _mem: mem }, route))?;
                    }
                }
                PartState::Frozen { writer, mem_bytes } => {
                    self.split(writer.finish()?, mem_bytes, route, &mut f)?
                }
            }
        }
        Ok(())
    }

    fn leaf(&self, chunks: Chunks, route: Route) -> Leaf {
        Leaf { chunks, route, meter: self.meter.clone() }
    }

    /// Emit `handle` as a leaf if it fits, else re-scatter its chunks on
    /// the next bits below the bits `route` already spent — one streamed
    /// chunk resident at a time — and split each sub-file. A split takes
    /// `⌈log2(footprint / restore limit)⌉` bits, 1 to [`RECURSE_BITS`]: as
    /// many sub-partitions as the footprint needs to fit, when evenly
    /// spread.
    fn split(
        &self,
        handle: SpillHandle,
        mem_bytes: u64,
        route: Route,
        f: &mut dyn FnMut(Leaf) -> Result<()>,
    ) -> Result<()> {
        let footprint = (self.shape.leaf_bytes)(mem_bytes, handle.rows());
        let parent = self.leaf(Chunks::File(handle), route);
        let limit = self.meter.governor.restore_limit();
        // ⌈log2(footprint / limit)⌉, from the rounded-up quotient.
        let bits = 64 - footprint.div_ceil(limit).saturating_sub(1).leading_zeros();
        let bits = bits.clamp(1, RECURSE_BITS);
        if footprint <= limit || route.bits + bits > MAX_TOTAL_BITS {
            return f(parent);
        }
        let mut subs: Vec<Option<(SpillWriter, u64)>> = (0..1usize << bits).map(|_| None).collect();
        let mut hashes = Vec::new();
        // Reading the parent consumes it: it unlinks before any child is read.
        parent.for_each_chunk(|chunk| {
            let keys: Vec<&Column> = self.shape.keys.iter().map(|&k| &chunk.columns[k]).collect();
            hash_group_rows(&keys, 0..chunk.rows(), &mut hashes);
            let mut routed: Vec<Vec<usize>> = vec![Vec::new(); subs.len()];
            for (row, &h) in hashes.iter().enumerate() {
                routed[sub_partition_of(h, route.bits, bits)].push(row);
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
        self.meter.note_spill(1, 0, 0);
        for (sub, state) in subs.into_iter().enumerate() {
            if let Some((writer, sub_mem)) = state {
                let index = (route.index << bits) | sub as u64;
                let child = Route { bits: route.bits + bits, index };
                self.split(writer.finish()?, sub_mem, child, f)?;
            }
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
    route: Route,
    meter: Meter,
}

impl Leaf {
    pub(crate) fn rows(&self) -> u64 {
        match &self.chunks {
            Chunks::Resident { chunks, .. } => chunks.iter().map(|c| c.rows() as u64).sum(),
            Chunks::File(handle) => handle.rows(),
        }
    }

    /// The hash slice the leaf's rows come from.
    pub(crate) fn route(&self) -> Route {
        self.route
    }

    /// Start reading the leaf back, once: the restore side's governor
    /// checkpoint, and a file leaf's bytes are booked as restored. The
    /// cursor holds the leaf's memory or file until it is dropped.
    pub(crate) fn into_chunks(self) -> Result<LeafChunks> {
        self.meter.governor.check(self.meter.label)?;
        Ok(match self.chunks {
            Chunks::Resident { chunks, _mem } => {
                LeafChunks::Resident { chunks: chunks.into_iter(), _mem }
            }
            Chunks::File(file) => {
                let reader = file.open()?;
                self.meter.note_spill(0, 0, file.bytes());
                LeafChunks::File { reader, _file: file }
            }
        })
    }

    /// Replay the leaf's chunks in push order.
    pub(crate) fn for_each_chunk(self, mut f: impl FnMut(Batch) -> Result<()>) -> Result<()> {
        let mut chunks = self.into_chunks()?;
        while let Some(chunk) = chunks.next()? {
            f(chunk)?;
        }
        Ok(())
    }
}

/// A leaf being read: its chunks one at a time, in push order, for a
/// caller that reads several leaves in step.
pub(crate) enum LeafChunks {
    Resident { chunks: std::vec::IntoIter<Batch>, _mem: MemoryGuard },
    File { reader: SpillReader, _file: SpillHandle },
}

impl LeafChunks {
    pub(crate) fn next(&mut self) -> Result<Option<Batch>> {
        Ok(match self {
            LeafChunks::Resident { chunks, .. } => chunks.next(),
            LeafChunks::File { reader, .. } => reader.next_columns()?.map(Batch::new),
        })
    }
}

/// Serialises the unit tests that spill or assert on the process-wide
/// `bdcc_storage::live_spill_files()` count: held for the whole test, so
/// one test's temp files are never another's "leak".
#[cfg(test)]
pub(crate) fn spill_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed spill test poisons the lock; the rest must still run.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use bdcc_pool::CancelToken;
    use bdcc_storage::live_spill_files;

    use super::*;
    use crate::error::ExecError;
    use crate::govern::SpillMode;
    use crate::memory::MemoryTracker;

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
            self.core_over(Fanout::Bits(BITS), mode, budget, leaf_factor)
        }

        fn core_over(
            &self,
            fanout: Fanout,
            mode: SpillMode,
            budget: Option<u64>,
            leaf_factor: u64,
        ) -> PartitionSpill {
            let mut governor = Governor::none();
            governor.set_cancel(self.token.clone(), &self.tracker);
            governor.set_spill(mode);
            if let Some(bytes) = budget {
                governor.set_budget(bytes, &self.tracker);
            }
            let env = OpEnv {
                metrics: Some(Arc::clone(&self.metrics)),
                governor,
                ..OpEnv::new(self.io.clone(), Arc::clone(&self.tracker))
            };
            PartitionSpill::new(
                Shape {
                    keys: vec![0, 1],
                    fanout,
                    leaf_bytes: Box::new(move |bytes, _| bytes * leaf_factor),
                    label: "test",
                },
                &env,
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
    fn positions(leaf: Leaf) -> Vec<i64> {
        let rows = leaf.rows();
        let mut seen = Vec::new();
        let note = |c: Batch| {
            seen.extend_from_slice(c.columns[2].as_i64()?);
            Ok(())
        };
        leaf.for_each_chunk(note).unwrap();
        assert_eq!(seen.len() as u64, rows);
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
    fn partition_of_handles_unpartitioned_and_tops_out() {
        assert_eq!(partition_of(u64::MAX, 0), 0, "bits = 0 routes to the sole partition");
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
        // Every top-level fan-out up to 8 bits (the join uses 4, the
        // aggregate 3).
        for top in 1..=8u32 {
            let mut ancestors = reads(&|h| partition_of(h, top));
            assert_eq!(ancestors.count_ones(), top);
            let mut used = top;
            while used + RECURSE_BITS <= MAX_TOTAL_BITS {
                let child = reads(&|h| sub_partition_of(h, used, RECURSE_BITS));
                assert_eq!(child.count_ones(), RECURSE_BITS, "top={top} used={used}");
                assert_eq!(child & ancestors, 0, "top={top} used={used}: bits reused");
                // Refinement: parent path + child index is the routing a
                // flat partitioning on `used + RECURSE_BITS` bits gives.
                for h in [1u64, u64::MAX / 7, 0xDEAD_BEEF_0BAD_F00D] {
                    assert_eq!(
                        partition_of(h, used + RECURSE_BITS),
                        (partition_of(h, used) << RECURSE_BITS)
                            | sub_partition_of(h, used, RECURSE_BITS)
                    );
                }
                ancestors |= child;
                used += RECURSE_BITS;
            }
        }
    }

    #[test]
    fn batch_rows_partition_by_key() {
        // Mixed int + string key: equal keys land in one partition,
        // per-partition lists ascend and jointly tile the batch.
        let ints = Column::from_i64((0..300).map(|i| i % 7).collect());
        let strs = Column::from_strings((0..300).map(|i| format!("s{}", i % 5)).collect());
        let cols: Vec<&Column> = vec![&ints, &strs];
        let parts = partition_rows_of_batch(&cols, 300, 2);
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
    fn a_chunk_over_the_budget_goes_straight_to_its_file() {
        let _spill = spill_test_guard();
        let rig = Rig::new();
        let ints = |rows: i64| Batch::new(vec![Column::from_i64((0..rows).collect()); 3]);
        // Budget 6000: 2400 bytes fit and stay resident; 7200 do not fit
        // even once everything resident froze, so their (empty) partition
        // freezes too and holds nothing.
        let mut spill = rig.core(SpillMode::Auto, Some(6000), 1);
        spill.make_room_for(0, 2400).unwrap();
        spill.push(0, ints(100)).unwrap();
        assert_eq!(frozen(&spill), [false; 4]);
        assert_eq!(rig.tracker.current(), 2400);
        spill.make_room_for(1, 7200).unwrap();
        spill.push(1, ints(300)).unwrap();
        assert_eq!(frozen(&spill), [true, true, false, false]);
        assert_eq!(rig.tracker.current(), 0);
        // Under `Force` with no budget a chunk is held until the next
        // `make_room`, as `push` alone always does.
        let mut spill = rig.core(SpillMode::Force, None, 1);
        spill.make_room_for(3, 7200).unwrap();
        spill.push(3, ints(300)).unwrap();
        assert_eq!(frozen(&spill), [false; 4]);
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
            let is_resident = |l: &Leaf| matches!(l.chunks, Chunks::Resident { .. });
            assert!(leaves.iter().all(|l| is_resident(l) == resident), "{mode:?}");
            assert_eq!(leaves.len() > 1 << BITS, recursed, "{mode:?}: {} leaves", leaves.len());
            let starts: Vec<u64> = leaves.iter().map(|l| l.route().start()).collect();
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "{mode:?}: routes ascend");
            let mut covered = 0;
            for leaf in leaves {
                let Route { bits, index } = leaf.route();
                let got = positions(leaf);
                // The leaf is its route's slice of the stream, in stream
                // order, at whatever depth the leaf sits.
                let want = (0..all.rows() as i64)
                    .filter(|&r| partition_of(hashes[r as usize], bits) as u64 == index);
                assert!(want.eq(got.iter().copied()), "{mode:?}: not its route's rows in order");
                covered += got.len();
            }
            assert_eq!(covered, all.rows(), "{mode:?}: leaves tile the stream");
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
        // Reading a leaf back books its file as restored.
        leaves.into_iter().for_each(|leaf| assert!(!positions(leaf).is_empty()));
        assert_eq!(rig.booked(), (files, written, restored + l));
        assert_eq!(rig.io.stats().bytes_read, io + l);
    }

    #[test]
    fn a_paired_core_routes_rows_beside_the_leaves_they_can_match() {
        let _spill = spill_test_guard();
        let base = live_spill_files();
        let rig = Rig::new();
        // The first input recurses: its leaves sit at several depths.
        let mut first = rig.core(SpillMode::Auto, Some(4096), 2);
        drain(&mut first, &stream(3000, 64, |i| (i * 13) % 977));
        first.freeze_all().unwrap();
        let leaves = leaves_of(first);
        let routes: Vec<Route> = leaves.iter().map(Leaf::route).collect();
        assert!(routes.iter().any(|r| r.bits > BITS), "the first input must recurse");
        // The second input: the same keys (each lands beside its leaf) and
        // keys the first never saw (they land beside some leaf).
        let keys_of = |leaf: Leaf| -> Vec<i64> {
            let mut keys = Vec::new();
            let note = |c: Batch| {
                keys.extend_from_slice(c.columns[0].as_i64()?);
                Ok(())
            };
            leaf.for_each_chunk(note).unwrap();
            keys
        };
        let held: Vec<Vec<i64>> = leaves.into_iter().map(keys_of).collect();
        let mut second = rig.core_over(Fanout::Pairs(routes.clone()), SpillMode::Force, None, 0);
        drain(&mut second, &stream(4000, 100, |i| (i * 7) % 2000));
        second.freeze_all().unwrap();
        let mut seen = 0;
        for leaf in leaves_of(second) {
            let p = routes.iter().position(|&r| r == leaf.route()).expect("one of the routes");
            for key in keys_of(leaf) {
                seen += 1;
                let owner = held.iter().position(|keys| keys.contains(&key));
                assert!(owner.is_none_or(|owner| owner == p), "key {key} left its leaf");
            }
        }
        assert_eq!(seen, 4000, "every row lands in exactly one partition");
        assert_eq!((live_spill_files(), rig.tracker.current()), (base, 0));
    }

    #[test]
    fn a_split_takes_only_the_bits_the_overshoot_needs() {
        let _spill = spill_test_guard();
        let base = live_spill_files();
        // One frozen partition of 1000 distinct keys, 24 000 bytes, against
        // restore limits of half the budget: just over it (1.01×), 3.5×
        // and 10.9× over (16 sub-partitions at most).
        let ints = Batch::new(vec![Column::from_i64((0..1000).collect()); 3]);
        for (budget, bits) in [(47_400, 1), (13_716, 2), (4_400, RECURSE_BITS)] {
            let rig = Rig::new();
            let mut spill = rig.core(SpillMode::Auto, Some(budget), 1);
            spill.push(0, ints.clone()).unwrap();
            spill.freeze_all().unwrap();
            let routes: Vec<Route> = leaves_of(spill).iter().map(Leaf::route).collect();
            let want: Vec<Route> =
                (0..1 << bits).map(|index| Route { bits: BITS + bits, index }).collect();
            assert_eq!(routes, want, "budget {budget}: {} sub-partitions", 1 << bits);
            assert_eq!(rig.booked().0, 2, "budget {budget}: one freeze, one split");
        }
        assert_eq!(live_spill_files(), base);
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
        assert_eq!(positions(leaves.into_iter().next().unwrap()), (0..500).collect::<Vec<_>>());
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
