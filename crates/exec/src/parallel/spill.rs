//! Radix-partitioned aggregation: the path [`ParallelAggregate`] runs
//! whenever the query's [`MemoryBroker`](crate::broker::MemoryBroker) is
//! active.
//!
//! Per-morsel partials (the other path) re-materialize every group a
//! morsel sees, hold O(groups × morsels sharing a group) states and have
//! nothing to shed. Radix aggregation instead scatters rows by the top
//! bits of the group-key hash ([`partition`] documents the routing
//! contract) into a [`PartitionSpill`](crate::spill), so each group lives
//! in exactly one partition and everything held can move to disk — the
//! core's module docs carry the freeze / recursion / accounting contract.
//!
//! **Phase 1** scans morsels in *chunks* (parallel within a chunk, chunks
//! in morsel order): workers gather each batch's rows into per-partition
//! sub-batches whose trailing `i64` column remembers every row's position
//! in the stream. Before every chunk the core makes room for it; pushes
//! happen in morsel order, so every partition's chunk sequence — resident
//! or spilled — stays in global stream order.
//!
//! **Phase 2** folds one leaf at a time into one table, keeping at most
//! one leaf's input plus its table resident (fan-out parallelism is
//! traded here for the bounded-memory guarantee).
//!
//! **Merge contract.** Every group lives in exactly one leaf, rows carry
//! their global stream position, each leaf replays its rows in ascending
//! global order — so even compensated float sums see the exact serial
//! accumulation sequence — and the disjoint outputs reorder by first-seen
//! rank
//! ([`merge::concat_radix_partitions`](super::merge::concat_radix_partitions)):
//! **byte-identical** to serial execution, floats included.

use bdcc_obs::SpanTimer;
use bdcc_storage::Column;

use crate::batch::Batch;
use crate::error::{ExecError, Result};
use crate::ops::BoxedOp;
use crate::parallel::partition;
use crate::parallel::{note_morsel, pool, Morsel, ParallelAggregate};
use crate::spill::{scatter_batch, PartitionSpill, Shape};

/// Routed sub-batches `(partition, rows)` in stream order.
type Routed = Vec<(usize, Batch)>;

/// The phase-1 worker kernel: scatter one morsel's batch stream (`op`)
/// into routed sub-batches, each with its rows' morsel-local positions as
/// a trailing column. Returns `(routed sub-batches in stream order,
/// morsel rows, byte estimate)`.
fn partition_morsel_stream(
    group_cols: &[usize],
    bits: u32,
    mut op: BoxedOp,
) -> Result<(Routed, i64, u64)> {
    let mut routed = Vec::new();
    let mut local = 0i64;
    let mut bytes = 0u64;
    while let Some(mut b) = op.next()? {
        let rows = b.rows() as i64;
        b.columns.push(Column::from_i64((local..local + rows).collect()));
        for (p, chunk) in scatter_batch(&b, group_cols, bits) {
            bytes += chunk.estimated_bytes();
            routed.push((p, chunk));
        }
        local += rows;
    }
    Ok((routed, local, bytes))
}

/// Turn a chunk's morsel-local row positions into global ones.
fn globalize(chunk: &mut Batch, base: i64) {
    if let Some(Column::I64 { values, .. }) = chunk.columns.last_mut() {
        values.iter_mut().for_each(|v| *v += base);
    }
}

impl ParallelAggregate {
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
        let group_cols = self.group_col_indices()?;
        // The aggregate builds one table over a leaf, never a copy of it.
        let shape = Shape { keys: group_cols.clone(), bits, leaf_factor: 1, label: "agg" };
        let mut spill = PartitionSpill::new(
            shape,
            self.broker.clone(),
            self.governor.clone(),
            &self.tracker,
            self.io.clone(),
            self.metrics.clone(),
        );

        // Chunks complete in morsel order, so the running `base`
        // globalizes every morsel-local row position.
        let mut base = 0i64;
        let mut max_chunk_bytes = 0u64;
        for chunk in morsels.chunks(self.cfg.threads.max(1) * 2) {
            // Make room for the incoming chunk *before* scattering it,
            // taking the largest chunk seen so far as the pending estimate
            // (the first chunk estimates 0 — nothing is resident yet
            // either).
            spill.make_room(max_chunk_bytes)?;
            let scattered =
                pool::run_tasks_labeled(self.cfg.threads, chunk.len(), "agg-radix-p1", |k| {
                    self.governor.check("agg-radix-p1")?;
                    let span = self.metrics.as_ref().map(|_| SpanTimer::start());
                    let op = self.fragment.build(&self.io, chunk[k].clone())?;
                    let (routed, rows, bytes) = partition_morsel_stream(&group_cols, bits, op)?;
                    note_morsel(&self.metrics, span, rows as u64);
                    Ok((routed, rows, bytes))
                })?;
            let mut chunk_bytes = 0u64;
            for (routed, rows, bytes) in scattered {
                chunk_bytes += bytes;
                for (p, mut sub) in routed {
                    globalize(&mut sub, base);
                    spill.push(p, sub)?;
                }
                base += rows;
            }
            max_chunk_bytes = max_chunk_bytes.max(chunk_bytes);
        }

        let mut outs: Vec<(Batch, Vec<u64>)> = Vec::new();
        spill.for_each_leaf(|leaf| {
            let mut part = self.fresh_partial()?;
            let mut mem = self.tracker.register(0);
            leaf.for_each_chunk(|chunk| {
                let ids = chunk.columns.last().expect("chunks carry a position column").as_i64()?;
                let ids: Vec<u64> = ids.iter().map(|&v| v as u64).collect();
                // The trailing column is past every bound input index.
                part.consume_indexed(chunk, &ids)?;
                mem.resize(part.estimated_bytes());
                Ok(())
            })?;
            outs.push(part.finish_ordered());
            Ok(())
        })?;
        if outs.is_empty() {
            // Zero input rows: a grouped aggregate yields zero groups.
            let empty = self.fresh_partial()?;
            outs.push(empty.finish_ordered());
        }
        super::merge::concat_radix_partitions(outs)
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
    use crate::ops::scan::{Scan, ScanBlueprint};
    use crate::ops::{collect, BoxedOp};
    use crate::parallel::{FragmentBlueprint, ParallelAggregate, ParallelConfig};

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
        let op: BoxedOp = Box::new(Scan::blocks(Arc::clone(t), io, &COLS, vec![]).unwrap());
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
                let bp = ScanBlueprint::blocks(Arc::clone(t), &COLS, vec![]).unwrap();
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
