//! Hash join (inner, left-outer, semi, anti) with optional residual
//! predicate.
//!
//! One side is fully materialized and indexed by an allocation-free flat
//! [`JoinIndex`] keyed on the integer join columns; its size is registered
//! with the memory tracker — this is the memory the sandwich variant saves
//! (Figure 3). Inner and left-outer joins index the **right** child, as
//! written: their output can be as large as the right side, so a flipped
//! join would have to hold matched right rows until the left has ended.
//! **Semi / anti** joins emit a subset of their left rows in left order
//! whichever side is indexed, so they decide while running: they pull from
//! whichever child has produced fewer rows until one ends, and index that
//! one — no estimate; the loser has buffered at most the winner's rows plus
//! a batch, so the join holds O(2 · min(left, right)). If the right ends
//! first the buffered left batches are the first probe rounds. If the left
//! ends first every right batch probes the indexed left (`flipped`) to mark
//! the left rows it matches, and each original left batch is emitted
//! filtered by its marks — the rows, order and batch boundaries of the
//! right build. When the query spills (`Governor::spills`) the race
//! registers what it buffers, and a pending batch over the governor's
//! high-water mark — the very first under `BDCC_SPILL=force` — sends it to
//! the spilled right build.
//!
//! **Only what is read above.** The planner hands a join the columns read
//! above it (`plan::Needed`), and its output carries only those of either
//! side (and `__matched`; one read by nothing keeps its first left column,
//! so its rows still count). A right batch is cut to the columns the join
//! reads as it arrives. The build payload keeps those it emits and those
//! its residual reads; a key read by nothing else goes once the index
//! holds its words, so a semi / anti build without a residual holds no
//! payload — late materialization (Abadi et al., ICDE 2007).
//!
//! Build and probe run on the calling thread at every width: each probe
//! round is one batch. Semi/Anti probes of a right build without a
//! residual use a first-hit existence probe and never gather pair columns.
//! Left-outer joins emit unmatched left rows with defaulted right columns
//! plus a `__matched` 0/1 column (the engine has no NULLs;
//! `COUNT(right.col)` compiles to `SUM(__matched)`).
//!
//! **Grouped mode** ([`HashJoin::grouped`]) is the sandwich join of ref
//! \[3\]: both children arrive grouped on aligned group-key columns (a BDCC
//! scatter scan's keys, in the same negotiated major-minor order on both
//! sides), and the right side is indexed **one group at a time** — read up
//! to its first key change, the rest held; its group-key columns dropped,
//! since they repeat the left's; indexed by the same `BuildSide::index` —
//! so the table holds one co-cluster, never the whole side: the memory
//! Figure 3 measures. The left streams and is never concatenated: a batch
//! is cut where its group key changes, and each piece is a probe round
//! against its peer group like any other. A piece whose group has no right
//! peer is finished with empty match lists, and a join that emits matches
//! only stops pulling once the right has no groups left. Equal keys meet
//! only inside equal groups, so an inner, semi or anti join emits the rows,
//! in order, of the ungrouped join whose keys are extended by the group-key
//! pairs (a left outer join lists each piece's unmatched rows after its
//! pairs, as it does per batch). A group is bounded by its co-cluster, so
//! grouped mode never races and never spills.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use bdcc_storage::{Column, DataType};

use crate::batch::{schema_index, Batch, ColMeta, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::hash::JoinIndex;
use crate::kernel::{referenced_columns, PairFilter, SelVec};
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, OpEnv, Operator};
use crate::plan::Needed;

#[path = "join_spill.rs"]
mod spill;

use spill::Build;

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Left outer with defaulted right columns and a `__matched` flag.
    LeftOuter,
    /// Emit left rows with at least one (residual-passing) match.
    Semi,
    /// Emit left rows with no (residual-passing) match.
    Anti,
}

/// The `__matched` column name appended by left-outer joins.
pub const MATCHED_COLUMN: &str = "__matched";

/// Materialized build side.
struct BuildSide {
    columns: Vec<Column>,
    index: JoinIndex,
    mem: MemoryGuard,
}

impl BuildSide {
    /// Index `payload` on `keys`, keep its first `keep` columns (the index
    /// holds the key words, so a key read by nothing else goes) and
    /// register the hash-table memory: the kept payload + the index's flat
    /// arrays (directory, chains, key words).
    fn index(
        mut payload: Batch,
        keys: &[usize],
        keep: usize,
        tracker: &Arc<MemoryTracker>,
    ) -> Result<BuildSide> {
        let key_cols: Vec<&[i64]> = keys
            .iter()
            .map(|&k| payload.columns[k].as_i64())
            .collect::<std::result::Result<_, _>>()?;
        let index = JoinIndex::build(&key_cols);
        payload.columns.truncate(keep);
        let mem = tracker.register(payload.estimated_bytes() + index.estimated_bytes());
        Ok(BuildSide { columns: payload.columns, index, mem })
    }
}

/// The columns `cols` of `batch`, moved out in that order (each at most
/// once).
fn pick(batch: Batch, cols: &[usize]) -> Batch {
    let mut all: Vec<Option<Column>> = batch.columns.into_iter().map(Some).collect();
    Batch::new(cols.iter().map(|&c| all[c].take().expect("each column once")).collect())
}

/// Hash join operator.
pub struct HashJoin {
    left: BoxedOp,
    right: Option<BoxedOp>,
    join_type: JoinType,
    left_keys: Vec<usize>,
    /// Positions in a right batch as the join reads it (`right_read`).
    right_keys: Vec<usize>,
    /// The right child's columns the join reads, in the order a read right
    /// batch holds them: those emitted, then those only the residual reads
    /// (together: the build payload), then keys read by nothing else.
    right_read: Vec<usize>,
    /// How many leading `right_read` columns the build payload keeps, and
    /// how many of those the output carries.
    payload_cols: usize,
    right_out: usize,
    /// The left columns the output carries.
    left_out: Vec<usize>,
    /// Residual over (left ++ read right) columns, compiled (see
    /// [`crate::kernel`]): evaluates on the candidate pair selection,
    /// gathering only referenced columns, and shrinks the match lists
    /// *before* the output gathers.
    residual: Option<PairFilter>,
    schema: OpSchema,
    /// The types of the read right columns (empty payloads to append to;
    /// the first `right_out`: left-outer defaults).
    right_types: Vec<DataType>,
    build: Option<Build>,
    /// The build side registers on `env.tracker`, the decision log (the
    /// side indexed and its rows) goes to `env.metrics`, and
    /// `env.governor` is polled once per probe round and, grouped, once
    /// per right group. When it spills, an over-budget build side freezes
    /// its largest hash partitions to spill files metered on `env.io`,
    /// and the join runs as a grace hash join, one restored leaf at a
    /// time — see `join_spill.rs`.
    env: OpEnv,
    /// Batches of the probing side the race buffered: the first rounds.
    pending: VecDeque<Batch>,
    /// Grouped mode (module docs): the group merge over the right child.
    groups: Option<Groups>,
}

/// A grouped join's right side, read one group at a time, and the
/// group-merge tallies its decision log reports.
#[derive(Default)]
struct Groups {
    /// The aligned group-key columns of the left and right child.
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
    /// Right rows read past the current group: the rest of the batch its
    /// key changed in.
    held: Option<Batch>,
    /// The current right group's key, and its payload until it is indexed
    /// (into `HashJoin::build`).
    current: Option<(Vec<i64>, Option<Batch>)>,
    /// The right has no groups left.
    ended: bool,
    /// The group key of the last left round (a group can span rounds).
    left_key: Vec<i64>,
    joined: u64,
    left_only: u64,
    right_only: u64,
    max_build_rows: usize,
}

impl HashJoin {
    /// Join `left` and `right` on equality of the named key columns. The
    /// output carries the columns of either side that `emit` names (module
    /// docs).
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        on: &[(&str, &str)],
        join_type: JoinType,
        residual: Option<Expr>,
        emit: &Needed,
        env: OpEnv,
    ) -> Result<HashJoin> {
        HashJoin::grouped((left, vec![]), (right, vec![]), on, join_type, residual, emit, env)
    }

    /// The sandwich join (module docs): [`new`](Self::new) over children
    /// grouped on their aligned group-key columns, in the same negotiated
    /// order (none: ungrouped). The output drops the right group-key
    /// columns.
    pub fn grouped(
        (left, left_cols): (BoxedOp, Vec<usize>),
        (right, right_cols): (BoxedOp, Vec<usize>),
        on: &[(&str, &str)],
        join_type: JoinType,
        residual: Option<Expr>,
        emit: &Needed,
        env: OpEnv,
    ) -> Result<HashJoin> {
        if left_cols.len() != right_cols.len() {
            return Err(ExecError::Plan("a grouped join needs aligned group keys".into()));
        }
        let (lschema, rschema) = (left.schema().clone(), right.schema().clone());
        let find = |schema: &OpSchema, name: &str| {
            schema_index(schema, name).ok_or_else(|| ExecError::UnknownColumn(name.to_string()))
        };
        let left_keys = on.iter().map(|(l, _)| find(&lschema, l)).collect::<Result<Vec<_>>>()?;
        let keys = on.iter().map(|(_, r)| find(&rschema, r)).collect::<Result<Vec<_>>>()?;
        // The right columns read (module docs): those emitted, those only
        // the residual reads, then keys read by nothing else.
        let full: OpSchema = lschema.iter().chain(&rschema).cloned().collect();
        let bound = residual.as_ref().map(|e| e.bind(&full)).transpose()?;
        let by_residual = bound.as_ref().map(referenced_columns).unwrap_or_default();
        let by_residual = by_residual.iter().filter_map(|&c| c.checked_sub(lschema.len()));
        let emitted = |c: &usize| {
            emits_right(join_type) && !right_cols.contains(c) && emit.contains(&rschema[*c].name)
        };
        let mut right_read: Vec<usize> = (0..rschema.len()).filter(emitted).collect();
        let right_out = right_read.len();
        right_read.extend(by_residual.filter(|c| !emitted(c)));
        let payload_cols = right_read.len();
        let key_only: BTreeSet<usize> =
            keys.iter().copied().filter(|k| !right_read.contains(k)).collect();
        right_read.extend(key_only);
        let at = |k: &usize| right_read.iter().position(|c| c == k).expect("keys are read");
        let right_keys = keys.iter().map(at).collect();
        let combined: OpSchema =
            lschema.iter().chain(right_read.iter().map(|&c| &rschema[c])).cloned().collect();
        let residual = residual.map(|e| e.bind(&combined)).transpose()?;
        let residual = residual.map(|e| PairFilter::new(&e, &combined));
        let mut left_out: Vec<usize> =
            (0..lschema.len()).filter(|&c| emit.contains(&lschema[c].name)).collect();
        if left_out.is_empty() && right_out == 0 && join_type != JoinType::LeftOuter {
            // No column is read above, but its rows are counted.
            left_out.extend((!lschema.is_empty()).then_some(0));
        }
        let mut schema: OpSchema = left_out.iter().map(|&c| lschema[c].clone()).collect();
        schema.extend(combined[lschema.len()..][..right_out].iter().cloned());
        if join_type == JoinType::LeftOuter {
            schema.push(ColMeta::new(MATCHED_COLUMN, DataType::Int));
        }
        let right_types = combined[lschema.len()..].iter().map(|m| m.data_type).collect();
        let groups =
            (!left_cols.is_empty()).then(|| Groups { left_cols, right_cols, ..Groups::default() });
        Ok(HashJoin {
            left,
            right: Some(right),
            join_type,
            left_keys,
            right_keys,
            right_read,
            payload_cols,
            right_out,
            left_out,
            residual,
            schema,
            right_types,
            build: None,
            env,
            pending: VecDeque::new(),
            groups,
        })
    }

    /// Zero rows of the build side's column types.
    fn empty_build(&self) -> Batch {
        Batch::new(self.right_types.iter().map(|&dt| Column::empty(dt)).collect())
    }

    fn build_side(&mut self) -> Result<()> {
        // (A grouped join indexes one right group at a time as rounds ask.)
        if self.build.is_some() || self.groups.is_some() {
            return Ok(());
        }
        let mut right = self.right.take().expect("build side consumed once");
        // Semi / anti joins race their children (module docs); for the
        // others this loop only ever pulls the right.
        let races = !emits_right(self.join_type);
        let mut payload = self.empty_build();
        let (mut lrows, mut lbytes) = (0usize, 0u64);
        // When the query spills, what the drain holds is registered as it
        // arrives so pressure is visible; the moment a pending batch would
        // push tracked memory past the high-water mark, the build switches
        // to the partitioned spill drain (`join_spill`) over the right rows
        // so far. A query that does not spill never fires.
        let mut drain_mem = self.env.governor.spills().then(|| self.env.tracker.register(0));
        let left_ended = loop {
            let pull_left = races && lrows < payload.rows();
            let pulled = match pull_left {
                true => self.left.next()?,
                false => right.next()?.map(|b| pick(b, &self.right_read)),
            };
            let Some(batch) = pulled else { break pull_left };
            if self.env.governor.should_spill(batch.estimated_bytes()) {
                // The partitions register what they hold from here on.
                drop(drain_mem);
                // (A left batch that trips it is the first probe round.)
                let (first, held) =
                    if pull_left { (self.empty_build(), Some(batch)) } else { (batch, None) };
                self.pending.extend(held);
                self.build = Some(self.build_spilled(right, payload, first)?);
                return Ok(());
            }
            if pull_left {
                lrows += batch.rows();
                lbytes += batch.estimated_bytes();
                self.pending.push_back(batch);
            } else {
                payload.append(&batch)?;
            }
            if let Some(g) = &mut drain_mem {
                g.resize(payload.estimated_bytes() + lbytes);
            }
        };
        drop(drain_mem);
        if let (true, Some(m)) = (races, &self.env.metrics) {
            m.annotate("race", format!("left={lrows} right={}", payload.rows()));
        }
        if !left_ended {
            let side =
                BuildSide::index(payload, &self.right_keys, self.payload_cols, &self.env.tracker)?;
            self.annotate_build("right", &side);
            self.build = Some(Build::Mem(side));
            return Ok(());
        }
        let batch_rows: Vec<u32> = self.pending.iter().map(|b| b.rows() as u32).collect();
        let lschema = self.left.schema();
        let mut left = Batch::new(lschema.iter().map(|m| Column::empty(m.data_type)).collect());
        self.pending.drain(..).try_for_each(|b| left.append(&b))?;
        let mut side = BuildSide::index(left, &self.left_keys, lschema.len(), &self.env.tracker)?;
        side.mem.grow(lrows as u64);
        self.annotate_build("left", &side);
        let mut marks = vec![false; lrows];
        let (mut streamed, mut next) = (0usize, Some(payload));
        while let Some(batch) = next {
            self.env.governor.check("probe-round")?;
            streamed += batch.rows();
            let residual = self.residual.as_ref();
            let (_, matched) =
                probe_batch(&batch, &side, &self.right_keys, self.join_type, residual, true)?;
            matched.into_iter().for_each(|l| marks[l as usize] = true);
            next = right.next()?.map(|b| pick(b, &self.right_read));
        }
        if let Some(m) = &self.env.metrics {
            m.annotate("streamed", streamed.to_string());
        }
        let (semi, mut at) = (self.join_type == JoinType::Semi, 0u32);
        let mut out = VecDeque::with_capacity(batch_rows.len());
        for rows in batch_rows {
            let keep: Vec<u32> = (at..at + rows).filter(|&r| marks[r as usize] == semi).collect();
            let kept = self.left_out.iter().map(|&c| side.columns[c].gather_u32(&keep));
            out.push_back(Batch::new(kept.collect()));
            at += rows;
        }
        self.build = Some(Build::Left(out));
        Ok(())
    }

    /// The join slice of the decision log: the side indexed and its rows
    /// (`race`: where a semi / anti join's children stood when one ended).
    fn annotate_build(&self, which: &str, side: &BuildSide) {
        let Some(m) = &self.env.metrics else { return };
        let rows = side.index.len();
        m.annotate("build_rows", rows.to_string());
        m.annotate("build", format!("{which}({rows})"));
    }

    /// Grouped mode: probe `round` — rows of one left group — against its
    /// right peer group, or, without one, finish it with empty match lists.
    /// Nothing once no later left row can match and unmatched rows are not
    /// emitted.
    fn probe_group(&mut self, round: Batch) -> Result<Option<Batch>> {
        let g = self.groups.as_mut().expect("a grouped join");
        let key = first_key(&round, &g.left_cols)?;
        let new_group = std::mem::replace(&mut g.left_key, key.clone()) != key;
        if self.seek_group(&key)? {
            return self.probe_round(round).map(Some);
        }
        let g = self.groups.as_mut().expect("a grouped join");
        if g.ended && matches!(self.join_type, JoinType::Inner | JoinType::Semi) {
            return Ok(None);
        }
        g.left_only += u64::from(new_group);
        let types = &self.right_types[..self.right_out];
        let right = types.iter().map(|&dt| Column::empty(dt)).collect();
        finish_batch(&round, &self.left_out, self.join_type, types, &[], right).map(Some)
    }

    /// Move the right side to the first group whose key is not below `key`
    /// and, when it is `key`'s, index it (once) as the build. Passing a
    /// group drops its index first, so one group is held at a time.
    fn seek_group(&mut self, key: &[i64]) -> Result<bool> {
        loop {
            let g = self.groups.as_mut().expect("a grouped join");
            match &mut g.current {
                Some((k, _)) if k.as_slice() > key => return Ok(false),
                Some((k, rows)) if k.as_slice() == key => {
                    let Some(payload) = rows.take() else { return Ok(true) };
                    g.joined += 1;
                    g.max_build_rows = g.max_build_rows.max(payload.rows());
                    let (keys, keep) = (&self.right_keys, self.payload_cols);
                    let side = BuildSide::index(payload, keys, keep, &self.env.tracker)?;
                    self.build = Some(Build::Mem(side));
                    return Ok(true);
                }
                Some((_, rows)) => g.right_only += u64::from(rows.is_some()),
                None if g.ended => return Ok(false),
                None => {}
            }
            self.build = None;
            self.env.governor.check("sandwich-group")?;
            let next = self.next_right_group()?;
            let g = self.groups.as_mut().expect("a grouped join");
            g.ended = next.is_none();
            g.current = next.map(|(k, rows)| (k, Some(rows)));
        }
    }

    /// The next right group's key and rows minus the group-key columns:
    /// the build drain, stopped at the first key change with the rest held.
    fn next_right_group(&mut self) -> Result<Option<(Vec<i64>, Batch)>> {
        let mut payload = self.empty_build();
        let (Some(right), Some(g)) = (&mut self.right, &mut self.groups) else {
            unreachable!("a grouped join holds its right child")
        };
        let mut key = None;
        while let Some(mut batch) = g.held.take().map_or_else(|| right.next(), |b| Ok(Some(b)))? {
            if batch.rows() == 0 {
                continue;
            }
            if key.is_none() {
                key = Some(first_key(&batch, &g.right_cols)?);
            }
            let end = group_end(&batch, &g.right_cols, key.as_deref().expect("set above"))?;
            if end < batch.rows() {
                g.held = Some(batch.slice(end, batch.rows()));
                batch = batch.slice(0, end);
            }
            payload.append(&pick(batch, &self.right_read))?;
            if g.held.is_some() {
                break;
            }
        }
        Ok(key.map(|k| (k, payload)))
    }

    /// The end of the decision log, written when the join ends or is
    /// dropped early (`annotate` replaces): the residual's selectivity and
    /// a grouped join's group merge — groups joined, groups of one side
    /// only, and the largest group it indexed.
    fn flush_annotations(&self) {
        let Some(m) = &self.env.metrics else { return };
        if let Some(pf) = &self.residual {
            pf.annotate(m);
        }
        if let Some(g) = &self.groups {
            m.annotate("groups_joined", g.joined.to_string());
            m.annotate("groups_left_only", g.left_only.to_string());
            m.annotate("groups_right_only", g.right_only.to_string());
            m.annotate("max_group_build_rows", g.max_build_rows.to_string());
        }
    }
}

impl Drop for HashJoin {
    fn drop(&mut self) {
        self.flush_annotations();
    }
}

/// The first row's values of the group-key columns `cols`.
fn first_key(batch: &Batch, cols: &[usize]) -> Result<Vec<i64>> {
    cols.iter().map(|&c| Ok(batch.columns[c].as_i64()?[0])).collect()
}

/// The first row of `batch` whose group key is not `key`, or its row count.
fn group_end(batch: &Batch, cols: &[usize], key: &[i64]) -> Result<usize> {
    let cols: Vec<&[i64]> =
        cols.iter().map(|&c| batch.columns[c].as_i64()).collect::<std::result::Result<_, _>>()?;
    let differs = |r: usize| cols.iter().zip(key).any(|(c, k)| c[r] != *k);
    Ok((0..batch.rows()).find(|&r| differs(r)).unwrap_or(batch.rows()))
}

impl HashJoin {
    /// Pull the next probe round: one left batch, what the race buffered
    /// first. A grouped join's round holds one left group's rows: a batch
    /// is cut where its group key changes, and the rest is the next round.
    fn fill_round(&mut self) -> Result<Option<Batch>> {
        loop {
            let next =
                self.pending.pop_front().map_or_else(|| self.left.next(), |b| Ok(Some(b)))?;
            let Some(b) = next else { return Ok(None) };
            let Some(g) = &self.groups else { return Ok(Some(b)) };
            if b.rows() == 0 {
                continue;
            }
            let end = group_end(&b, &g.left_cols, &first_key(&b, &g.left_cols)?)?;
            if end < b.rows() {
                self.pending.push_front(b.slice(end, b.rows()));
                return Ok(Some(b.slice(0, end)));
            }
            return Ok(Some(b));
        }
    }

    /// Probe one left batch against the in-memory build and assemble its
    /// output.
    fn probe_round(&self, left: Batch) -> Result<Batch> {
        self.env.governor.check("probe-round")?;
        let Some(Build::Mem(build)) = &self.build else {
            unreachable!("a left build probes inside `build_side`, a spilled one merges")
        };
        let (join_type, residual) = (self.join_type, self.residual.as_ref());
        let (lidx, ridx) = probe_batch(&left, build, &self.left_keys, join_type, residual, false)?;
        let right = gather_pairs(build, self.right_out, &ridx);
        // Every row matched exactly once, in order (a foreign key to an
        // unfiltered table): the left columns pass through.
        if join_type == JoinType::Inner && lidx.iter().copied().eq(0..left.rows()) {
            let mut out = pick(left, &self.left_out);
            out.columns.extend(right);
            return Ok(out);
        }
        let types = &self.right_types[..self.right_out];
        finish_batch(&left, &self.left_out, join_type, types, &lidx, right)
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.build_side()?;
        loop {
            let out = match &mut self.build {
                Some(Build::Merge(merge)) => merge.next_batch()?,
                Some(Build::Left(out)) => out.pop_front(),
                _ => match self.fill_round()? {
                    None => None,
                    Some(round) if self.groups.is_some() => self.probe_group(round)?,
                    Some(round) => Some(self.probe_round(round)?),
                },
            };
            let Some(out) = out else {
                if self.groups.is_some() {
                    // The last group goes as each group before it did, and
                    // before what is above the join builds on its output.
                    self.build = None;
                }
                self.flush_annotations();
                return Ok(None);
            };
            if out.rows() > 0 {
                return Ok(Some(out));
            }
        }
    }
}

/// Probe every row of `probe` against the build index and return the
/// match lists `(probe rows, build rows)` with the residual already
/// applied — the probe kernel. `flipped`: the build is the join's **left**
/// side and `probe` a right batch — the residual reads its pair-schema
/// columns from the swapped sides and every matching build row is listed.
///
/// Otherwise Semi/Anti without a residual take the existence fast path: a
/// first-hit [`JoinIndex::has_match`] per row, no pair lists and **no
/// column gathers** — `ridx` comes back empty and `lidx` lists the matched
/// rows.
fn probe_batch(
    probe: &Batch,
    build: &BuildSide,
    probe_keys: &[usize],
    join_type: JoinType,
    residual: Option<&PairFilter>,
    flipped: bool,
) -> Result<(Vec<usize>, Vec<u32>)> {
    let key_cols: Vec<&[i64]> = probe_keys
        .iter()
        .map(|&k| probe.columns[k].as_i64())
        .collect::<std::result::Result<_, _>>()?;
    // Semi/Anti without a residual only ask *whether* a row matches.
    if !flipped && !emits_right(join_type) && residual.is_none() {
        let mut lidx = Vec::new();
        build.index.probe_exists(&key_cols, &mut lidx);
        return Ok((lidx, Vec::new()));
    }
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<u32> = Vec::new();
    build.index.probe_pairs(&key_cols, &mut lidx, &mut ridx);
    if let Some(pf) = residual {
        // Only the residual's referenced columns are gathered for the
        // candidate pairs of this batch, and the match lists shrink
        // before the output gathers. Survivors keep probe order. The pair
        // schema is (left ++ right) whichever side probes.
        let (probe_base, build_base) =
            if flipped { (build.columns.len(), 0) } else { (0, probe.arity()) };
        let sel = pf.select_pairs(lidx.len(), |c| {
            Ok(if (probe_base..probe_base + probe.arity()).contains(&c) {
                probe.columns[c - probe_base].gather(&lidx)
            } else {
                build.columns[c - build_base].gather_u32(&ridx)
            })
        })?;
        if let SelVec::Rows(rows) = sel {
            lidx = rows.iter().map(|&i| lidx[i as usize]).collect();
            ridx = rows.iter().map(|&i| ridx[i as usize]).collect();
        }
    }
    Ok((lidx, ridx))
}

/// Does the output carry build-side columns? Semi/Anti emit left rows
/// only — the match list alone decides which survive.
fn emits_right(join_type: JoinType) -> bool {
    !matches!(join_type, JoinType::Semi | JoinType::Anti)
}

/// The first `emitted` build columns of the matched pairs `ridx`, aligned
/// with the match list — what [`finish_batch`] appends to the left columns
/// (nothing for Semi/Anti).
fn gather_pairs(build: &BuildSide, emitted: usize, ridx: &[u32]) -> Vec<Column> {
    build.columns[..emitted].iter().map(|c| c.gather_u32(ridx)).collect()
}

/// Assemble a left batch's output — its columns `left_cols` — from its
/// (post-residual) matched left rows `lidx` and the already-gathered build
/// columns of those pairs (`right`, see [`gather_pairs`]; `right_types` are
/// their types).
fn finish_batch(
    left: &Batch,
    left_cols: &[usize],
    join_type: JoinType,
    right_types: &[DataType],
    lidx: &[usize],
    right: Vec<Column>,
) -> Result<Batch> {
    let rows = left.rows();
    let side = |f: &dyn Fn(&Column) -> Column| {
        Batch::new(left_cols.iter().map(|&c| f(&left.columns[c])).collect())
    };
    let matched = || {
        let mut matched = vec![false; rows];
        for &l in lidx {
            matched[l] = true;
        }
        matched
    };
    if !emits_right(join_type) {
        let keep: Vec<bool> = match join_type {
            JoinType::Semi => matched(),
            _ => matched().iter().map(|&m| !m).collect(),
        };
        return Ok(side(&|c| c.filter(&keep)));
    }
    let mut out = side(&|c| c.gather(lidx));
    out.columns.extend(right);
    if join_type == JoinType::LeftOuter {
        // Matched pairs with flag 1, then the unmatched left rows with
        // defaulted right columns and flag 0.
        out.columns.push(Column::from_i64(vec![1; lidx.len()]));
        let matched = matched();
        let unmatched: Vec<usize> = (0..rows).filter(|&r| !matched[r]).collect();
        if !unmatched.is_empty() {
            let mut rest = side(&|c| c.gather(&unmatched));
            rest.columns.extend(right_types.iter().map(|&dt| default_column(dt, unmatched.len())));
            rest.columns.push(Column::from_i64(vec![0; unmatched.len()]));
            out.append(&rest)?;
        }
    }
    Ok(out)
}

fn default_column(dt: DataType, n: usize) -> Column {
    match dt {
        DataType::Int => Column::from_i64(vec![0; n]),
        DataType::Date => Column::from_dates(vec![0; n]),
        DataType::Float => Column::from_f64(vec![0.0; n]),
        DataType::Str => Column::Str(std::iter::repeat_n("", n).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Governor, SpillMode};
    use crate::ops::collect;
    use bdcc_storage::IoTracker;

    /// An unprofiled, ungoverned join's environment charging `tracker`.
    fn env(tracker: &Arc<MemoryTracker>) -> OpEnv {
        OpEnv::new(IoTracker::new(), Arc::clone(tracker))
    }

    /// A join's environment under spill `mode` and `budget`, charging
    /// `tracker` and metering spill files on `io`.
    fn spilling(
        mode: SpillMode,
        budget: Option<u64>,
        tracker: &Arc<MemoryTracker>,
        io: &IoTracker,
    ) -> OpEnv {
        let mut governor = Governor::none();
        governor.set_spill(mode);
        if let Some(bytes) = budget {
            governor.set_budget(bytes, tracker);
        }
        OpEnv { governor, ..OpEnv::new(io.clone(), Arc::clone(tracker)) }
    }

    struct Source {
        schema: OpSchema,
        batches: Vec<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>) -> Source {
            let schema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let batch = Batch::new(cols.into_iter().map(|(_, c)| c).collect());
            Source { schema, batches: vec![batch] }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.pop())
        }
    }

    fn orders() -> Source {
        Source::new(vec![
            ("o_orderkey", Column::from_i64(vec![1, 2, 3, 4])),
            ("o_custkey", Column::from_i64(vec![10, 20, 10, 30])),
        ])
    }

    fn customers() -> Source {
        Source::new(vec![
            ("c_custkey", Column::from_i64(vec![10, 20])),
            ("c_name", Column::from_strings(vec!["alice".into(), "bob".into()])),
        ])
    }

    #[test]
    fn inner_join_matches_pairs() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3); // orders 1,2,3 match; 4 has no customer
        let keys = out.columns[0].as_i64().unwrap();
        assert_eq!(keys, &[1, 2, 3]);
        assert_eq!(&out.columns[3].as_str().unwrap()[0], "alice");
        assert!(t.peak() > 0, "build side must be tracked");
        assert_eq!(t.current(), 0, "memory released after drop");
    }

    #[test]
    fn inner_join_passes_fully_matched_left_batches_through() {
        // Every row of the first left batch matches exactly one right row
        // (left columns reused); the second holds a row without a match
        // (gathered). Same output as a gather either way.
        let left = vec![(10, 1), (20, 2), (10, 3), (30, 4), (20, 5), (40, 6)];
        let right = vec![(10, 100), (20, 200), (30, 300)];
        let j = HashJoin::new(
            Box::new(Chunked::new(&left, ("lk", "lv"), 3)),
            Box::new(Chunked::new(&right, ("rk", "rv"), 2)),
            &[("lk", "rk")],
            JoinType::Inner,
            None,
            &Needed::default(),
            env(&MemoryTracker::new()),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(out.columns[3].as_i64().unwrap(), &[100, 200, 100, 300, 200]);
    }

    #[test]
    fn semi_and_anti() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Semi,
            None,
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.arity(), 2); // left columns only

        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            None,
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[4]);
    }

    #[test]
    fn left_outer_flags_unmatched() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(customers()),
            Box::new(Source::new(vec![
                ("o_custkey", Column::from_i64(vec![10, 10])),
                ("o_orderkey", Column::from_i64(vec![100, 101])),
            ])),
            &[("c_custkey", "o_custkey")],
            JoinType::LeftOuter,
            None,
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // alice matches twice, bob zero times (defaulted + flag 0).
        assert_eq!(out.rows(), 3);
        let matched = out.columns.last().unwrap().as_i64().unwrap();
        assert_eq!(matched.iter().sum::<i64>(), 2);
    }

    #[test]
    fn residual_restricts_matches() {
        let t = MemoryTracker::new();
        // Join orders to customers but require o_orderkey >= 3.
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            Some(Expr::col("o_orderkey").ge(Expr::lit(3))),
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[3]);
    }

    #[test]
    fn anti_with_residual_is_not_exists() {
        let t = MemoryTracker::new();
        // NOT EXISTS (customer with same key and name 'alice').
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            Some(Expr::col("c_name").eq(Expr::lit("alice"))),
            &Needed::default(),
            env(&t),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // Orders 2 (bob) and 4 (no customer) survive.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2, 4]);
    }

    /// Multi-batch chunked source for probe-round tests.
    struct Chunked {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Chunked {
        fn new(rows: &[(i64, i64)], names: (&str, &str), chunk: usize) -> Chunked {
            let schema =
                vec![ColMeta::new(names.0, DataType::Int), ColMeta::new(names.1, DataType::Int)];
            let batches: Vec<Batch> = rows
                .chunks(chunk)
                .map(|c| {
                    Batch::new(vec![
                        Column::from_i64(c.iter().map(|r| r.0).collect()),
                        Column::from_i64(c.iter().map(|r| r.1).collect()),
                    ])
                })
                .collect();
            Chunked { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Chunked {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        // Sargable residual (kernel leaf) and non-sargable residual
        // (fallback over the pair selection). The reference shares nothing
        // with the pair filter: the inner join *without* the residual,
        // its pairs filtered by the interpreter, each flavor then derived
        // by hand (`lv` identifies a left row; left batches hold 13).
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let residuals: Vec<Expr> = vec![
            Expr::col("rv").ge(Expr::lit(1030)),
            Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1020))),
        ];
        let run = |jt: JoinType, res: Option<Expr>| {
            let join = HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                jt,
                res,
                &Needed::default(),
                env(&MemoryTracker::new()),
            )
            .unwrap();
            let schema = join.schema().clone();
            (collect(Box::new(join)).unwrap(), schema)
        };
        let rows = |b: &Batch| -> Vec<Vec<i64>> {
            (0..b.rows())
                .map(|r| b.columns.iter().map(|c| c.as_i64().unwrap()[r]).collect())
                .collect()
        };
        let (all_pairs, pair_schema) = run(JoinType::Inner, None);
        for res in &residuals {
            let keep = res.bind(&pair_schema).unwrap().eval_bool(&all_pairs).unwrap();
            let pairs = rows(&all_pairs.filter(&keep));
            let matched = |l: &(i64, i64)| pairs.iter().any(|p| p[1] == l.1);
            for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
                let expected: Vec<Vec<i64>> = match jt {
                    JoinType::Inner => pairs.clone(),
                    JoinType::Semi | JoinType::Anti => left
                        .iter()
                        .filter(|l| matched(l) == (jt == JoinType::Semi))
                        .map(|l| vec![l.0, l.1])
                        .collect(),
                    // Per left batch: its surviving pairs flagged 1, then
                    // its unmatched rows with defaulted right columns.
                    JoinType::LeftOuter => left
                        .chunks(13)
                        .flat_map(|chunk| {
                            let (lo, hi) = (chunk[0].1, chunk[chunk.len() - 1].1);
                            let hits = pairs.iter().filter(move |p| (lo..=hi).contains(&p[1]));
                            let hits = hits.map(|p| [p.as_slice(), &[1]].concat());
                            let misses = chunk.iter().filter(|l| !matched(l));
                            hits.chain(misses.map(|l| vec![l.0, l.1, 0, 0, 0])).collect::<Vec<_>>()
                        })
                        .collect(),
                };
                let (got, _) = run(jt, Some(res.clone()));
                assert_eq!(rows(&got), expected, "{jt:?} {res:?}");
            }
        }
    }

    #[test]
    fn spilled_build_is_byte_identical_for_every_flavor() {
        use bdcc_storage::live_spill_files;
        let _spill = crate::spill::spill_test_guard();
        // Build side big enough to scatter across many partitions; left
        // side chunked so every leaf's fragments span many left batches.
        let left: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, i)).collect();
        let right: Vec<(i64, i64)> = (0..300).map(|i| (i % 53, 1000 + i)).collect();
        let base = live_spill_files();
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for residual in [false, true] {
                let res =
                    residual.then(|| Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1150))));
                let serial = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res.clone(),
                        &Needed::default(),
                        env(&MemoryTracker::new()),
                    )
                    .unwrap(),
                ))
                .unwrap();
                // Force: everything freezes. Tiny auto budget: freeze +
                // recursive split on restore (2 KB budget → 1 KB leaves;
                // a semi / anti build holds only its 2 400 key bytes).
                let modes: Vec<(&str, SpillMode, Option<u64>)> = vec![
                    ("force", SpillMode::Force, None),
                    ("tiny-auto", SpillMode::Auto, Some(2048)),
                ];
                for (name, mode, budget) in modes {
                    let tracker = MemoryTracker::new();
                    let io = IoTracker::new();
                    let spilled = collect(Box::new(
                        HashJoin::new(
                            Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                            Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                            &[("lk", "rk")],
                            jt,
                            res.clone(),
                            &Needed::default(),
                            spilling(mode, budget, &tracker, &io),
                        )
                        .unwrap(),
                    ))
                    .unwrap();
                    assert_eq!(serial, spilled, "{jt:?} residual={residual} {name}");
                    assert_eq!(
                        live_spill_files(),
                        base,
                        "{jt:?} residual={residual} {name}: temp files must unlink"
                    );
                    assert_eq!(tracker.current(), 0, "{name}: memory must release");
                    assert!(
                        io.stats().bytes_read > 0,
                        "{jt:?} {name}: spill traffic must be metered"
                    );
                }
            }
        }
    }

    #[test]
    fn roomy_auto_budget_never_spills() {
        use bdcc_storage::live_spill_files;
        let _spill = crate::spill::spill_test_guard();
        let tracker = MemoryTracker::new();
        let io = IoTracker::new();
        let base = live_spill_files();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            &Needed::default(),
            spilling(SpillMode::Auto, Some(1 << 30), &tracker, &io),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(live_spill_files(), base);
        assert_eq!(io.stats().bytes_read, 0, "no spill traffic under a roomy budget");
    }

    #[test]
    fn unknown_key_rejected() {
        let t = MemoryTracker::new();
        assert!(HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("nope", "c_custkey")],
            JoinType::Inner,
            None,
            &Needed::default(),
            env(&t),
        )
        .is_err());
    }
}
