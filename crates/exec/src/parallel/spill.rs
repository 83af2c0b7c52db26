//! Radix-partitioned aggregation: the grace-hash side of the
//! [`MemoryBroker`](crate::broker::MemoryBroker) contract, and the path
//! [`ParallelAggregate`] runs whenever that broker is active.
//!
//! Per-morsel partials (the other path) re-materialize every group a
//! morsel sees, hold O(groups × morsels sharing a group) states and have
//! nothing to shed. Radix aggregation instead scatters rows by the top
//! bits of the group-key hash ([`partition`] documents the routing
//! contract) so each group lives in exactly one table, and everything it
//! holds can move to disk:
//!
//! **Phase 1** scans morsels in *chunks* (parallel within a chunk, chunks
//! in morsel order), gathering each batch's rows into per-partition
//! sub-batches that remember every row's global stream position. Before
//! every chunk the broker is consulted — under pressure the largest
//! resident partitions **freeze**: their `(sub-batch, global row ids)`
//! entries serialize to a temp file via [`bdcc_storage::spill`] (ids ride
//! along as a trailing `i64` column) and the memory releases. A frozen
//! partition's later entries append straight to its file, so every
//! partition's entry sequence — resident or spilled — stays in global
//! morsel order.
//!
//! **Phase 2** works partition-at-a-time: resident partitions fold their
//! entries into one table; frozen partitions **restore** by streaming
//! their file back entry-by-entry into the partition's table. A frozen
//! partition whose estimated in-memory footprint exceeds the broker's
//! [`restore_limit`](crate::broker::MemoryBroker::restore_limit) is never
//! loaded whole: it *recurses* — its entries re-scatter on the next
//! [`RECURSE_BITS`] of the same group hash into sub-files (one streamed
//! entry resident at a time), and each sub-partition restores (or
//! recurses) independently.
//!
//! **Merge contract.** Every group lives in exactly one (sub-)partition,
//! rows carry their global stream position, each partition consumes its
//! rows in ascending global order (morsel order, preserved by freeze
//! files and by the stable recursion scatter) — so even compensated float
//! sums see the exact serial accumulation sequence — and the disjoint
//! outputs reorder by first-seen rank
//! ([`merge::concat_radix_partitions`](super::merge::concat_radix_partitions)):
//! **byte-identical** to serial execution, floats included.

use bdcc_obs::SpanTimer;
use bdcc_storage::{Column, SpillHandle, SpillWriter};

use crate::batch::Batch;
use crate::error::{ExecError, Result};
use crate::hash::hash_group_rows;
use crate::memory::MemoryGuard;
use crate::ops::BoxedOp;
use crate::parallel::partition::{self, sub_partition_of, MAX_TOTAL_BITS, RECURSE_BITS};
use crate::parallel::{note_morsel, pool, Morsel, ParallelAggregate};

/// Per-partition lists of `(gathered sub-batch, morsel-local row ids)`.
type PartitionedBatches = Vec<Vec<(Batch, Vec<u64>)>>;

/// The phase-1 worker kernel: scatter one morsel's batch stream (`op`)
/// into per-partition gathered sub-batches plus each row's morsel-local
/// position. Returns `(per-partition batches, morsel rows, byte
/// estimate)`.
fn partition_morsel_stream(
    group_cols: &[usize],
    bits: u32,
    mut op: BoxedOp,
) -> Result<(PartitionedBatches, u64, u64)> {
    let mut parts: PartitionedBatches = vec![Vec::new(); partition::partition_count(bits)];
    let mut local = 0u64;
    let mut bytes = 0u64;
    while let Some(b) = op.next()? {
        let cols: Vec<&Column> = group_cols.iter().map(|&c| &b.columns[c]).collect();
        let routed = partition::partition_rows_of_batch(&cols, b.rows(), bits);
        for (p, rows) in routed.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let ids: Vec<u64> = rows.iter().map(|&r| local + r as u64).collect();
            let gathered = Batch::new(b.columns.iter().map(|c| c.gather(&rows)).collect());
            bytes += gathered.estimated_bytes() + ids.len() as u64 * 8;
            parts[p].push((gathered, ids));
        }
        local += b.rows() as u64;
    }
    Ok((parts, local, bytes))
}

/// One partition's accumulation state during chunked phase 1.
enum PartState {
    /// Entries held in memory (`bytes` = estimated footprint).
    Resident { entries: Vec<(Batch, Vec<u64>)>, bytes: u64 },
    /// Frozen to a temp file; later entries append to the writer.
    /// `mem_bytes` estimates what the file would occupy restored.
    Frozen { writer: SpillWriter, mem_bytes: u64 },
}

/// Serialize one entry: the gathered sub-batch's columns plus the rows'
/// global stream positions as a trailing integer column.
fn entry_columns(batch: Batch, ids: &[u64]) -> Vec<Column> {
    let mut cols = batch.columns;
    cols.push(Column::from_i64(ids.iter().map(|&v| v as i64).collect()));
    cols
}

/// Inverse of [`entry_columns`].
fn decode_entry(mut cols: Vec<Column>) -> Result<(Batch, Vec<u64>)> {
    let ids_col = cols.pop().expect("spill entry has an ids column");
    let ids: Vec<u64> = ids_col.as_i64()?.iter().map(|&v| v as u64).collect();
    Ok((Batch::new(cols), ids))
}

impl ParallelAggregate {
    /// Record spill traffic on the operator's metric block (no-op
    /// unprofiled).
    fn note_spill(&self, frozen_parts: u64, written: u64, restored: u64) {
        if let Some(m) = &self.metrics {
            m.spill_partitions.add(frozen_parts);
            m.spill_bytes.add(written);
            m.spill_restore_bytes.add(restored);
        }
    }

    /// Append one globalized entry to its partition, spilling directly if
    /// the partition is already frozen. `resident` tracks the total
    /// resident estimate mirrored into `guard`.
    fn append_entry(
        &self,
        part: &mut PartState,
        batch: Batch,
        ids: Vec<u64>,
        resident: &mut u64,
        guard: &mut MemoryGuard,
    ) -> Result<()> {
        let est = batch.estimated_bytes() + ids.len() as u64 * 8;
        match part {
            PartState::Resident { entries, bytes } => {
                entries.push((batch, ids));
                *bytes += est;
                *resident += est;
                guard.grow(est);
            }
            PartState::Frozen { writer, mem_bytes } => {
                let written = writer.write_columns(&entry_columns(batch, &ids))?;
                *mem_bytes += est;
                self.note_spill(0, written, 0);
            }
        }
        Ok(())
    }

    /// Freeze resident partitions, largest first, until at least
    /// `target` estimated bytes are released (or nothing resident is
    /// left). Returns the bytes actually released.
    fn freeze_partitions(
        &self,
        parts: &mut [PartState],
        target: u64,
        resident: &mut u64,
        guard: &mut MemoryGuard,
    ) -> Result<u64> {
        let mut order: Vec<(u64, usize)> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PartState::Resident { entries, bytes } if !entries.is_empty() => Some((*bytes, i)),
                _ => None,
            })
            .collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let mut released = 0u64;
        for (bytes, i) in order {
            if released >= target {
                break;
            }
            let PartState::Resident { entries, .. } = &mut parts[i] else {
                unreachable!("selected above")
            };
            let mut writer = SpillWriter::create("agg", &self.io)?;
            let mut written = 0u64;
            for (batch, ids) in entries.drain(..) {
                written += writer.write_columns(&entry_columns(batch, &ids))?;
            }
            parts[i] = PartState::Frozen { writer, mem_bytes: bytes };
            self.note_spill(1, written, 0);
            released += bytes;
            *resident = resident.saturating_sub(bytes);
            guard.resize(*resident);
        }
        Ok(released)
    }

    /// Column indices of the group-by keys in the fragment's output.
    fn group_col_indices(&self) -> Result<Vec<usize>> {
        self.group_by
            .iter()
            .map(|g| {
                crate::batch::schema_index(&self.child_schema, g)
                    .ok_or_else(|| ExecError::UnknownColumn(g.clone()))
            })
            .collect()
    }

    /// The radix execution (see the [module docs](self)).
    pub(super) fn run_radix_spill(&self, morsels: &[Morsel]) -> Result<Batch> {
        // Two extra bits over the thread-derived count: smaller
        // partitions mean more freeze granularity and less recursion,
        // for a fixed per-chunk scatter cost.
        let bits = (partition::partition_bits_for(self.cfg.threads) + 2).min(8);
        let nparts = partition::partition_count(bits);
        let group_cols = self.group_col_indices()?;

        // Chunked phase 1. Chunks complete in morsel order, so the
        // running `base` globalizes every morsel-local row id and frozen
        // files receive entries in global stream order.
        let mut parts: Vec<PartState> =
            (0..nparts).map(|_| PartState::Resident { entries: Vec::new(), bytes: 0 }).collect();
        let mut resident = 0u64;
        let mut guard = self.tracker.register(0);
        let mut base = 0u64;
        let chunk = self.cfg.threads.max(1) * 2;
        let mut max_chunk_bytes = 0u64;
        let mut mi = 0usize;
        while mi < morsels.len() {
            let hi = (mi + chunk).min(morsels.len());
            // Make room for the incoming chunk *before* scattering it,
            // taking the largest chunk seen so far as the pending estimate
            // (the first chunk estimates 0 — nothing is resident yet
            // either).
            if self.broker.should_spill(max_chunk_bytes) {
                self.freeze_partitions(
                    &mut parts,
                    self.broker.release_target(),
                    &mut resident,
                    &mut guard,
                )?;
            }
            let chunk_parts: Vec<(PartitionedBatches, u64, u64)> =
                pool::run_tasks_labeled(self.cfg.threads, hi - mi, "agg-radix-p1", |k| {
                    self.governor.check("agg-radix-p1")?;
                    let span = self.metrics.as_ref().map(|_| SpanTimer::start());
                    let op = self.fragment.build(&self.io, Some(&morsels[mi + k]))?;
                    let (parts, rows, bytes) = partition_morsel_stream(&group_cols, bits, op)?;
                    note_morsel(&self.metrics, span, rows);
                    Ok((parts, rows, bytes))
                })?;
            let mut chunk_bytes = 0u64;
            for (mparts, rows, bytes) in chunk_parts {
                chunk_bytes += bytes;
                for (p, entries) in mparts.into_iter().enumerate() {
                    for (batch, local_ids) in entries {
                        let ids: Vec<u64> = local_ids.iter().map(|v| v + base).collect();
                        self.append_entry(&mut parts[p], batch, ids, &mut resident, &mut guard)?;
                    }
                }
                base += rows;
            }
            max_chunk_bytes = max_chunk_bytes.max(chunk_bytes);
            mi = hi;
        }

        // Phase 2 — partition at a time, keeping at most one partition's
        // input plus its table resident (fan-out parallelism is traded
        // here for the bounded-memory guarantee; phase 1 above still runs
        // fully parallel).
        let mut outs: Vec<(Batch, Vec<u64>)> = Vec::new();
        for state in parts {
            self.governor.check("agg-radix-p2")?;
            match state {
                PartState::Resident { entries, bytes } => {
                    if entries.is_empty() {
                        continue;
                    }
                    let mut part = self.fresh_partial()?;
                    for (batch, ids) in &entries {
                        part.consume_indexed(batch, ids)?;
                    }
                    let _mem = self.tracker.register(part.estimated_bytes());
                    outs.push(part.finish_ordered());
                    resident = resident.saturating_sub(bytes);
                    guard.resize(resident);
                }
                PartState::Frozen { writer, mem_bytes } => {
                    let handle = writer.finish()?;
                    self.restore_partition(&group_cols, handle, mem_bytes, bits, &mut outs)?;
                }
            }
        }
        if outs.is_empty() {
            // Zero input rows: a grouped aggregate yields zero groups.
            let empty = self.fresh_partial()?;
            outs.push(empty.finish_ordered());
        }
        super::merge::concat_radix_partitions(outs)
    }

    /// Restore one frozen partition: recurse on deeper hash bits while
    /// its estimated footprint exceeds the broker's restore limit,
    /// otherwise stream its entries into the partition table. The parent
    /// temp file unlinks (RAII) as soon as its entries are re-scattered.
    fn restore_partition(
        &self,
        group_cols: &[usize],
        handle: SpillHandle,
        mem_bytes: u64,
        used_bits: u32,
        outs: &mut Vec<(Batch, Vec<u64>)>,
    ) -> Result<()> {
        self.governor.check("agg-spill-restore")?;
        let file_bytes = handle.bytes();
        if mem_bytes > self.broker.restore_limit() && used_bits + RECURSE_BITS <= MAX_TOTAL_BITS {
            // Too big to sit in memory whole: re-scatter on the next
            // RECURSE_BITS of the group hash, one streamed entry
            // resident at a time.
            let mut subs: Vec<Option<(SpillWriter, u64)>> =
                (0..partition::partition_count(RECURSE_BITS)).map(|_| None).collect();
            let mut reader = handle.open()?;
            let mut hashes = Vec::new();
            while let Some(cols) = reader.next_columns()? {
                let (batch, ids) = decode_entry(cols)?;
                let gcols: Vec<&Column> = group_cols.iter().map(|&c| &batch.columns[c]).collect();
                hash_group_rows(&gcols, 0..batch.rows(), &mut hashes);
                let mut routed: Vec<Vec<usize>> = vec![Vec::new(); subs.len()];
                for (r, &h) in hashes.iter().enumerate() {
                    routed[sub_partition_of(h, used_bits)].push(r);
                }
                for (s, rows) in routed.into_iter().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    let sub_ids: Vec<u64> = rows.iter().map(|&r| ids[r]).collect();
                    let gathered =
                        Batch::new(batch.columns.iter().map(|c| c.gather(&rows)).collect());
                    let est = gathered.estimated_bytes() + sub_ids.len() as u64 * 8;
                    if subs[s].is_none() {
                        subs[s] = Some((SpillWriter::create("agg-rec", &self.io)?, 0));
                    }
                    let (writer, sub_mem) = subs[s].as_mut().expect("just created");
                    let written = writer.write_columns(&entry_columns(gathered, &sub_ids))?;
                    *sub_mem += est;
                    self.note_spill(0, written, 0);
                }
            }
            drop(reader);
            drop(handle); // parent file unlinks before children restore
            self.note_spill(1, 0, file_bytes);
            for sub in subs.into_iter().flatten() {
                let (writer, sub_mem) = sub;
                let sub_handle = writer.finish()?;
                self.restore_partition(
                    group_cols,
                    sub_handle,
                    sub_mem,
                    used_bits + RECURSE_BITS,
                    outs,
                )?;
            }
            return Ok(());
        }
        // Leaf: stream the file's entries — global stream order — into
        // this partition's one table.
        let mut part = self.fresh_partial()?;
        let mut reader = handle.open()?;
        let mut mem = self.tracker.register(0);
        while let Some(cols) = reader.next_columns()? {
            let (batch, ids) = decode_entry(cols)?;
            part.consume_indexed(&batch, &ids)?;
            mem.resize(part.estimated_bytes());
        }
        self.note_spill(0, 0, file_bytes);
        if part.estimated_bytes() > 0 || handle.rows() > 0 {
            outs.push(part.finish_ordered());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bdcc_storage::{live_spill_files, Column, IoTracker, StoredTable};

    use crate::broker::{MemoryBroker, SpillMode};
    use crate::expr::Expr;
    use crate::memory::MemoryTracker;
    use crate::ops::agg::{AggFunc, AggSpec, HashAggregate};
    use crate::ops::scan::PlainScan;
    use crate::ops::{collect, BoxedOp};
    use crate::parallel::{
        FragmentBlueprint, ParallelAggregate, ParallelConfig, ScanBlueprint, ScanKind,
    };

    const COLS: [&str; 6] = ["k", "u", "g", "f", "h", "s"];

    /// Group-by sets every broker mode below runs: a scattered int + string
    /// key, a per-row-unique key (every row its own group), and a string +
    /// float key (mixed types through the shared key codec).
    const GROUP_BYS: [&[&str]; 3] = [&["k", "s"], &["u"], &["s", "h"]];

    fn table(rows: usize) -> Arc<StoredTable> {
        let ints = |f: &dyn Fn(i64) -> i64| Column::from_i64((0..rows as i64).map(f).collect());
        let f: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.37 - 100.0).collect();
        let h: Vec<f64> = (0..rows).map(|i| ((i % 89) as f64) * 0.5).collect();
        let s: Vec<String> = (0..rows).map(|i| format!("tag{}", i % 11)).collect();
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("k".into(), ints(&|i| (i * 13) % 977)),
                    ("u".into(), ints(&|i| i)),
                    ("g".into(), ints(&|i| i % 7)),
                    ("f".into(), Column::from_f64(f)),
                    ("h".into(), Column::from_f64(h)),
                    ("s".into(), Column::from_strings(s)),
                ],
                32,
            )
            .unwrap(),
        )
    }

    fn aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggSpec::new(AggFunc::Avg, Expr::col("f"), "af"),
            AggSpec::new(AggFunc::Min, Expr::col("f"), "mn"),
            AggSpec::new(AggFunc::Max, Expr::col("u"), "mx"),
            AggSpec::new(AggFunc::Sum, Expr::col("g"), "sg"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::CountDistinct, Expr::col("k"), "nd"),
        ]
    }

    fn serial(t: &Arc<StoredTable>, group_by: &[&str]) -> crate::batch::Batch {
        let io = IoTracker::new();
        let op: BoxedOp = Box::new(PlainScan::new(Arc::clone(t), io, &COLS, vec![]).unwrap());
        collect(Box::new(HashAggregate::new(op, group_by, aggs(), MemoryTracker::new()).unwrap()))
            .unwrap()
    }

    /// Radix under `broker_of`'s broker vs the serial `HashAggregate`:
    /// *bit*-identical, floats included — a stronger promise than the
    /// partial-merge path's ~1 ulp.
    fn spilled(t: &Arc<StoredTable>, broker_of: impl Fn(&Arc<MemoryTracker>) -> MemoryBroker) {
        let _spill = crate::broker::spill_test_guard();
        let base = live_spill_files();
        for group_by in GROUP_BYS {
            let want = serial(t, group_by);
            for threads in [2, 3, 4] {
                let tracker = MemoryTracker::new();
                let bp = ScanBlueprint {
                    table: Arc::clone(t),
                    columns: COLS.iter().map(|c| c.to_string()).collect(),
                    predicates: vec![],
                    kind: ScanKind::Plain,
                };
                let agg = ParallelAggregate::new(
                    FragmentBlueprint { scan: bp, steps: vec![] },
                    group_by,
                    aggs(),
                    IoTracker::new(),
                    ParallelConfig { threads, morsel_rows: 64 },
                    Arc::clone(&tracker),
                )
                .unwrap()
                .with_broker(broker_of(&tracker));
                let got = collect(Box::new(agg)).unwrap();
                let case = format!("{group_by:?} threads={threads}");
                assert_eq!(want, got, "{case}: radix agg must be bit-identical");
                assert_eq!(live_spill_files(), base, "{case}: temp files must unlink");
                assert_eq!(tracker.current(), 0, "{case}: memory must release");
            }
        }
    }

    #[test]
    fn forced_spill_is_bit_identical_to_serial() {
        spilled(&table(3000), |t| MemoryBroker::with_mode(SpillMode::Force, t, None));
    }

    #[test]
    fn tiny_budget_recursion_is_bit_identical_to_serial() {
        // A 4 KB budget forces pressure after nearly every chunk and a
        // 2 KB restore limit forces recursion on restore (no governor is
        // attached, so nothing trips — this exercises pure broker
        // mechanics at maximum stress).
        spilled(&table(3000), |t| MemoryBroker::with_mode(SpillMode::Auto, t, Some(4096)));
    }

    #[test]
    fn auto_under_roomy_budget_stays_resident_and_identical() {
        spilled(&table(2000), |t| MemoryBroker::with_mode(SpillMode::Auto, t, Some(1 << 30)));
    }
}
