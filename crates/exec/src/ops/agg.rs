//! Aggregation: hash, streaming, and sandwich variants over one columnar
//! group table.
//!
//! * [`HashAggregate`] — the baseline: one group table over the whole
//!   input; its size is what Figure 3 charges the Plain scheme for.
//! * [`StreamingAggregate`] — input already sorted on the group-by keys
//!   (the PK scheme's Q18); the table holds one batch's groups at most.
//! * [`SandwichAggregate`] — input pre-grouped on dimension bits that the
//!   group-by keys *functionally determine* (ref [3]): the table is
//!   flushed at every partition boundary, so it only ever holds one
//!   co-cluster's worth of groups.
//!
//! ## The group table
//!
//! All three keep their state in a [`PartialAgg`] (on its own, the unit of
//! morsel-parallel aggregation), which takes a batch — or a row range of
//! one — through three column-wise steps, none allocating per row:
//!
//! 1. **Hash** the group columns column-at-a-time into one `u64` per row
//!    ([`hash_group_rows`], the codec radix routing and spilling share).
//! 2. **Resolve** every row to a dense `u32` group id through one
//!    open-addressed directory (`GroupTable`). Keys live in per-column
//!    vectors indexed by group id, so a key is copied — a string cloned —
//!    only when its group is first seen; with no group columns every row
//!    is group 0. Ids ascend in first-seen order, so the key vectors are
//!    the output's key columns as they stand.
//! 3. **Accumulate** into struct-of-arrays state (`Acc`: per aggregate one
//!    vector per state component, indexed by group id), one typed loop per
//!    aggregate over `(row, group id)`. `COUNT` reads no input.
//!
//! A group still folds its rows in stream order, so every result —
//! Neumaier-compensated float sums included — is bit for bit that of a
//! row-at-a-time fold. Integer sums are overflow-checked
//! ([`ExecError::Overflow`]). Floats group by exact bit pattern (enough for
//! values never arithmetically re-derived, e.g. `c_acctbal`): `0.0` and
//! `-0.0` are two groups, as are NaNs of different payloads.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use bdcc_storage::{Column, DataType};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::hash::{hash_group_rows, FxBuildHasher};
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, Operator};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Avg,
    Min,
    Max,
    Count,
    /// COUNT(DISTINCT expr) over integer-backed expressions.
    CountDistinct,
}

/// One output aggregate: function, input expression, output name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Expr,
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: Expr, name: &str) -> AggSpec {
        AggSpec { func, input, name: name.to_string() }
    }
}

/// Do row `i` of `a` and row `j` of `b` hold the same group-key value?
/// Floats compare by bit pattern, matching the hash codec.
fn cell_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a, b) {
        (Column::I64 { values: a, .. }, Column::I64 { values: b, .. }) => a[i] == b[j],
        (Column::F64(a), Column::F64(b)) => a[i].to_bits() == b[j].to_bits(),
        (Column::Str(a), Column::Str(b)) => a[i] == b[j],
        _ => false,
    }
}

/// Free-slot marker of the group directory.
const EMPTY: u32 = u32::MAX;

/// The groups seen so far: dense ids in first-seen order, keys in per-column
/// vectors, one open-addressed (linear-probing) directory from hash to id.
struct GroupTable {
    /// One column per group-by key, indexed by group id — typed like the
    /// input columns, so a flush hands them out as the output's key columns.
    keys: Vec<Column>,
    /// Every group's key hash: a probe compares it before the key, and
    /// growing the directory re-files groups without rehashing keys.
    hashes: Vec<u64>,
    /// Group ids, [`EMPTY`] where free; a power of two, at most half full.
    slots: Vec<u32>,
}

impl GroupTable {
    fn new(key_schema: &[ColMeta]) -> GroupTable {
        GroupTable {
            keys: key_schema.iter().map(|c| Column::empty(c.data_type)).collect(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Does row `row` of `cols` carry group `gid`'s key?
    fn key_eq(&self, gid: usize, cols: &[&Column], row: usize) -> bool {
        self.keys.iter().zip(cols).all(|(k, c)| cell_eq(k, gid, c, row))
    }

    /// Append to `gids` the group id of every row in `rows` of `cols`
    /// (`hashes[i]` hashes row `rows.start + i`), creating groups — ids
    /// ascending — as keys first appear and reporting those rows to `on_new`.
    fn resolve(
        &mut self,
        cols: &[&Column],
        rows: Range<usize>,
        hashes: &[u64],
        gids: &mut Vec<u32>,
        mut on_new: impl FnMut(usize),
    ) {
        if cols.is_empty() {
            // A global aggregate: one group, no key to look up.
            if self.hashes.is_empty() && !rows.is_empty() {
                self.hashes.push(0);
                on_new(rows.start);
            }
            gids.resize(gids.len() + rows.len(), 0);
            return;
        }
        for (row, &h) in rows.zip(hashes) {
            let mask = self.slots.len() - 1;
            let mut slot = h as usize & mask;
            let gid = loop {
                let g = self.slots[slot];
                if g == EMPTY {
                    on_new(row);
                    break self.insert(slot, h, cols, row);
                }
                if self.hashes[g as usize] == h && self.key_eq(g as usize, cols, row) {
                    break g;
                }
                slot = (slot + 1) & mask;
            };
            gids.push(gid);
        }
    }

    /// File a new group under free slot `slot`, its key copied from `row`.
    fn insert(&mut self, slot: usize, h: u64, cols: &[&Column], row: usize) -> u32 {
        let gid = self.hashes.len() as u32;
        assert!(gid != EMPTY, "group table holds at most u32::MAX - 1 groups");
        self.slots[slot] = gid;
        self.hashes.push(h);
        for (k, c) in self.keys.iter_mut().zip(cols) {
            k.append_range(c, row, row + 1).expect("group columns keep their declared types");
        }
        if self.hashes.len() * 2 > self.slots.len() {
            self.grow();
        }
        gid
    }

    /// Double the directory, re-filing every group by its stored hash.
    fn grow(&mut self) {
        let nslots = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(nslots, EMPTY);
        let mask = nslots - 1;
        for (gid, &h) in self.hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = gid as u32;
        }
    }

    /// Empty the table, returning the key columns (group-id order).
    fn take_keys(&mut self) -> Vec<Column> {
        self.hashes.clear();
        self.slots.fill(EMPTY);
        self.keys.iter_mut().map(|k| std::mem::replace(k, Column::empty(k.data_type()))).collect()
    }
}

/// Neumaier-compensated float sums, one per group: `c` accumulates the
/// rounding error of every `sum += v`. Makes a total accurate to ~1 ulp of
/// the true value regardless of accumulation order, which is what lets
/// morsel-parallel partial aggregates merge without observable drift from
/// the serial result.
#[derive(Default)]
struct FloatSums {
    sum: Vec<f64>,
    c: Vec<f64>,
}

impl FloatSums {
    fn add_to(&mut self, g: usize, v: f64) {
        let (sum, c) = (&mut self.sum[g], &mut self.c[g]);
        let t = *sum + v;
        *c += if sum.abs() >= v.abs() { (*sum - t) + v } else { (v - t) + *sum };
        *sum = t;
    }

    fn add(&mut self, vals: impl Iterator<Item = f64>, gids: &[u32], groups: usize) {
        self.sum.resize(groups, 0.0);
        self.c.resize(groups, 0.0);
        for (v, &g) in vals.zip(gids) {
            self.add_to(g as usize, v);
        }
    }

    /// Fold `other`'s group `i` into group `map[i]`; a group new to this
    /// side (one past the end) takes `other`'s state as it stands.
    fn merge(&mut self, other: &FloatSums, map: &[u32]) {
        for (i, &g) in map.iter().enumerate() {
            if g as usize == self.sum.len() {
                self.sum.push(other.sum[i]);
                self.c.push(other.c[i]);
            } else {
                self.add_to(g as usize, other.sum[i]);
                self.add_to(g as usize, other.c[i]);
            }
        }
    }

    fn totals(&self) -> impl Iterator<Item = f64> + '_ {
        self.sum.iter().zip(&self.c).map(|(s, c)| s + c)
    }
}

/// `sums[g] += v` for every `(v, g)` pair in one overflow-checked pass:
/// integer `SUM`'s update (a batch's values) and merge (another table's
/// sums), and the merge of row counts.
fn add_ints(sums: &mut Vec<i64>, vals: &[i64], gids: &[u32], groups: usize) -> Result<()> {
    sums.resize(groups, 0);
    let mut overflow = false;
    for (&v, &g) in vals.iter().zip(gids) {
        let (s, o) = sums[g as usize].overflowing_add(v);
        sums[g as usize] = s;
        overflow |= o;
    }
    if overflow {
        return Err(ExecError::Overflow("integer SUM exceeds the 64-bit range".into()));
    }
    Ok(())
}

fn count_rows(n: &mut Vec<i64>, gids: &[u32], groups: usize) {
    n.resize(groups, 0);
    for &g in gids {
        n[g as usize] += 1;
    }
}

/// Fold `(v, g)` pairs into per-group extrema (`want`: how a better value
/// compares to the incumbent). A pair whose `g` is one past the end opens
/// that group with `v` — new ids ascend in order of first appearance, in a
/// batch's rows as in another table's groups.
fn fold_extrema<'a, T: ToOwned + ?Sized + 'a>(
    best: &mut Vec<T::Owned>,
    vals: impl Iterator<Item = &'a T>,
    gids: &[u32],
    want: Ordering,
    cmp: impl Fn(&T, &T) -> Ordering,
) {
    for (v, &g) in vals.zip(gids) {
        match best.get_mut(g as usize) {
            Some(b) if cmp(v, (*b).borrow()) == want => v.clone_into(b),
            Some(_) => {}
            None => best.push(v.to_owned()),
        }
    }
}

/// Running state of one aggregate for every group: struct-of-arrays,
/// indexed by group id.
enum Acc {
    SumI(Vec<i64>),
    SumF(FloatSums),
    /// Sums and row counts.
    Avg(FloatSums, Vec<i64>),
    /// Best values, typed like the input, and how a better one compares to
    /// the incumbent: `Less` for MIN, `Greater` for MAX.
    Extrema(Column, Ordering),
    /// The same over strings: a group's best value is replaced in place,
    /// which one shared buffer cannot do.
    StrExtrema(Vec<String>, Ordering),
    Count(Vec<i64>),
    Distinct(Vec<HashSet<i64, FxBuildHasher>>),
}

fn input_mismatch() -> ExecError {
    ExecError::Type("aggregate input is not of its declared type".into())
}

impl Acc {
    fn new(func: AggFunc, dt: DataType) -> Acc {
        match func {
            AggFunc::Sum if dt == DataType::Float => Acc::SumF(FloatSums::default()),
            AggFunc::Sum => Acc::SumI(Vec::new()),
            AggFunc::Avg => Acc::Avg(FloatSums::default(), Vec::new()),
            AggFunc::Min | AggFunc::Max => {
                let want = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
                match dt {
                    DataType::Str => Acc::StrExtrema(Vec::new(), want),
                    _ => Acc::Extrema(Column::empty(dt), want),
                }
            }
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::CountDistinct => Acc::Distinct(Vec::new()),
        }
    }

    /// Fold rows `start..start + gids.len()` of `input` into the groups
    /// `gids` names; `groups` is the table's group count, which sizes the
    /// state of groups this batch created.
    fn update(
        &mut self,
        input: Option<&Column>,
        start: usize,
        gids: &[u32],
        groups: usize,
    ) -> Result<()> {
        match (self, input) {
            (Acc::Count(n), _) => count_rows(n, gids, groups),
            (Acc::SumI(sum), Some(Column::I64 { values, .. })) => {
                add_ints(sum, &values[start..], gids, groups)?
            }
            (Acc::SumF(sums), Some(Column::F64(values))) => {
                sums.add(values[start..].iter().copied(), gids, groups)
            }
            (Acc::Avg(sums, n), Some(Column::F64(values))) => {
                sums.add(values[start..].iter().copied(), gids, groups);
                count_rows(n, gids, groups);
            }
            (Acc::Avg(sums, n), Some(Column::I64 { values, .. })) => {
                sums.add(values[start..].iter().map(|&v| v as f64), gids, groups);
                count_rows(n, gids, groups);
            }
            (Acc::Extrema(best, want), Some(col)) => match (best, col) {
                (Column::I64 { values: best, .. }, Column::I64 { values, .. }) => {
                    fold_extrema(best, values[start..].iter(), gids, *want, i64::cmp)
                }
                (Column::F64(best), Column::F64(v)) => {
                    fold_extrema(best, v[start..].iter(), gids, *want, f64::total_cmp)
                }
                _ => return Err(input_mismatch()),
            },
            (Acc::StrExtrema(best, want), Some(Column::Str(v))) => {
                fold_extrema(best, v.iter_range(start..v.len()), gids, *want, str::cmp)
            }
            (Acc::Distinct(sets), Some(Column::I64 { values, .. })) => {
                sets.resize_with(groups, HashSet::default);
                for (&v, &g) in values[start..].iter().zip(gids) {
                    sets[g as usize].insert(v);
                }
            }
            _ => return Err(input_mismatch()),
        }
        Ok(())
    }

    /// Fold another table's state of the same aggregate into this one:
    /// `other`'s group `i` is group `map[i]` here (the merge contract of
    /// morsel-parallel partial aggregation). Exact for every function
    /// except float sums, where the compensated representation keeps the
    /// merged total within ~1 ulp of the serial result.
    fn merge(&mut self, other: &Acc, map: &[u32], groups: usize) -> Result<()> {
        match (self, other) {
            (Acc::SumI(a), Acc::SumI(b)) | (Acc::Count(a), Acc::Count(b)) => {
                add_ints(a, b, map, groups)?
            }
            (Acc::SumF(a), Acc::SumF(b)) => a.merge(b, map),
            (Acc::Avg(a, an), Acc::Avg(b, bn)) => {
                a.merge(b, map);
                add_ints(an, bn, map, groups)?;
            }
            // The other side's extrema are just more values to fold.
            (mine @ Acc::Extrema(..), Acc::Extrema(best, _)) => {
                mine.update(Some(best), 0, map, groups)?
            }
            (Acc::StrExtrema(mine, want), Acc::StrExtrema(best, _)) => {
                fold_extrema(mine, best.iter().map(String::as_str), map, *want, str::cmp)
            }
            (Acc::Distinct(a), Acc::Distinct(b)) => {
                a.resize_with(groups, HashSet::default);
                for (set, &g) in b.iter().zip(map) {
                    a[g as usize].extend(set);
                }
            }
            _ => panic!("merging mismatched aggregate states"),
        }
        Ok(())
    }

    /// The aggregate's output column (group-id order).
    fn finish(self) -> Column {
        match self {
            Acc::SumI(v) | Acc::Count(v) => Column::from_i64(v),
            Acc::SumF(sums) => Column::from_f64(sums.totals().collect()),
            Acc::Avg(sums, n) => {
                Column::from_f64(sums.totals().zip(&n).map(|(t, &n)| t / n as f64).collect())
            }
            Acc::Extrema(best, _) => best,
            Acc::StrExtrema(best, _) => Column::Str(best.iter().collect()),
            Acc::Distinct(sets) => Column::from_i64(sets.iter().map(|s| s.len() as i64).collect()),
        }
    }
}

/// Output type of an aggregate over an input of type `dt`.
fn agg_output_type(func: AggFunc, dt: DataType) -> DataType {
    match func {
        AggFunc::Sum if dt != DataType::Float => DataType::Int,
        AggFunc::Sum | AggFunc::Avg => DataType::Float,
        AggFunc::Min | AggFunc::Max => dt,
        AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
    }
}

/// Grouping + accumulation over batches (see the module docs): the state
/// of every aggregation operator here and, on its own, the unit of
/// morsel-parallel aggregation. Each worker consumes its morsel's batches
/// into a `PartialAgg`; folding the partials *in morsel order*
/// ([`crate::parallel::merge`]) and finishing yields exactly what a serial
/// [`HashAggregate`] over the concatenated stream would produce.
pub struct PartialAgg {
    schema: OpSchema,
    group_cols: Vec<usize>,
    /// Per aggregate: function, input type, bound input expression.
    aggs: Vec<(AggFunc, DataType, Expr)>,
    table: GroupTable,
    /// One accumulator per aggregate, each covering every group.
    accs: Vec<Acc>,
    /// Per group: the global input position of its first row — a running
    /// row counter on the plain [`consume`](Self::consume) path (the serial
    /// stream position), caller-supplied under
    /// [`consume_indexed`](Self::consume_indexed).
    first_seen: Vec<u64>,
    /// Rows consumed so far (the id space of `first_seen` without ids).
    rows_seen: u64,
    /// Per-batch scratch, reused: row hashes and resolved group ids.
    hashes: Vec<u64>,
    gids: Vec<u32>,
}

impl PartialAgg {
    /// State for aggregating `aggs` grouped by `group_by` over inputs with
    /// `input_schema`.
    pub fn new(
        input_schema: &[ColMeta],
        group_by: &[&str],
        aggs: &[AggSpec],
    ) -> Result<PartialAgg> {
        let mut group_cols = Vec::with_capacity(group_by.len());
        let mut schema = Vec::new();
        for &g in group_by {
            let idx = crate::batch::schema_index(input_schema, g)
                .ok_or_else(|| ExecError::UnknownColumn(g.to_string()))?;
            group_cols.push(idx);
            schema.push(input_schema[idx].clone());
        }
        let table = GroupTable::new(&schema);
        let mut bound = Vec::with_capacity(aggs.len());
        for a in aggs {
            let dt = a.input.data_type(input_schema)?;
            bound.push((a.func, dt, a.input.bind(input_schema)?));
            schema.push(ColMeta::new(&a.name, agg_output_type(a.func, dt)));
        }
        Ok(PartialAgg {
            schema,
            group_cols,
            accs: bound.iter().map(|(f, dt, _)| Acc::new(*f, *dt)).collect(),
            aggs: bound,
            table,
            first_seen: Vec::new(),
            rows_seen: 0,
            hashes: Vec::new(),
            gids: Vec::new(),
        })
    }

    /// Output schema (group keys then aggregates).
    pub fn schema(&self) -> &OpSchema {
        &self.schema
    }

    /// Evaluate every aggregate's input over `batch` (`None` for `COUNT`,
    /// which reads none) — once per batch, whatever ranges of it are then
    /// consumed.
    fn eval_inputs(&self, batch: &Batch) -> Result<Vec<Option<Column>>> {
        self.aggs
            .iter()
            .map(|(f, _, e)| if *f == AggFunc::Count { Ok(None) } else { e.eval(batch).map(Some) })
            .collect()
    }

    fn group_columns<'a>(&self, batch: &'a Batch) -> Vec<&'a Column> {
        self.group_cols.iter().map(|&c| &batch.columns[c]).collect()
    }

    /// Accumulate one batch.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        let inputs = self.eval_inputs(batch)?;
        self.consume_range(batch, &inputs, 0..batch.rows(), None)
    }

    /// Accumulate one batch whose rows carry explicit global stream
    /// positions (`ids[row]`) — the radix-partitioned consume: a
    /// partition sees only its gathered slice of the input but remembers
    /// where each group first appeared in the *whole* stream, so ranks
    /// stay comparable across partitions.
    pub fn consume_indexed(&mut self, batch: &Batch, ids: &[u64]) -> Result<()> {
        debug_assert_eq!(ids.len(), batch.rows());
        let inputs = self.eval_inputs(batch)?;
        self.consume_range(batch, &inputs, 0..batch.rows(), Some(ids))
    }

    /// Fold rows `rows` of `batch` — whose aggregate inputs are `inputs`
    /// ([`eval_inputs`](Self::eval_inputs)) — into the table.
    fn consume_range(
        &mut self,
        batch: &Batch,
        inputs: &[Option<Column>],
        rows: Range<usize>,
        ids: Option<&[u64]>,
    ) -> Result<()> {
        let cols = self.group_columns(batch);
        if !cols.is_empty() {
            hash_group_rows(&cols, rows.clone(), &mut self.hashes);
        }
        self.gids.clear();
        let (first_seen, rows_seen, start) = (&mut self.first_seen, self.rows_seen, rows.start);
        self.table.resolve(&cols, rows.clone(), &self.hashes, &mut self.gids, |row| {
            first_seen.push(match ids {
                Some(ids) => ids[row],
                None => rows_seen + (row - start) as u64,
            })
        });
        for (acc, input) in self.accs.iter_mut().zip(inputs) {
            acc.update(input.as_ref(), start, &self.gids, self.table.len())?;
        }
        self.rows_seen += rows.len() as u64;
        Ok(())
    }

    /// Estimated bytes of accumulated state (memory accounting): per
    /// group, 32 plus the first group's key and state widths (8 per
    /// integer-backed key, length + 8 per string, 16 per aggregate and per
    /// distinct value).
    pub fn estimated_bytes(&self) -> u64 {
        if self.table.len() == 0 {
            return 0;
        }
        let key = self.table.keys.iter().map(|k| match k {
            Column::Str(v) => v[0].len() as u64 + 8,
            _ => 8,
        });
        let states = self.accs.iter().map(|a| match a {
            Acc::Distinct(sets) => 16 + sets[0].len() as u64 * 16,
            _ => 16,
        });
        self.table.len() as u64 * (32 + key.sum::<u64>() + states.sum::<u64>())
    }

    /// Drain all groups into one output batch (first-seen order), leaving
    /// the state empty.
    fn flush(&mut self) -> Batch {
        let mut cols = self.table.take_keys();
        for (acc, (f, dt, _)) in self.accs.iter_mut().zip(&self.aggs) {
            cols.push(std::mem::replace(acc, Acc::new(*f, *dt)).finish());
        }
        self.first_seen.clear();
        Batch::new(cols)
    }

    /// [`flush`](Self::flush) at the end of the input: a *global*
    /// aggregation (no group-by) over empty input still yields one row,
    /// every aggregate's zero state (COUNT() = 0, SUM() = 0, ...).
    pub fn finish(&mut self) -> Batch {
        if self.table.len() > 0 || !self.group_cols.is_empty() {
            return self.flush();
        }
        let zeros = self.aggs.iter().map(|(f, dt, _)| match agg_output_type(*f, *dt) {
            DataType::Int => Column::from_i64(vec![0]),
            DataType::Date => Column::from_dates(vec![0]),
            DataType::Float => Column::from_f64(vec![0.0]),
            DataType::Str => Column::from_strings(vec![String::new()]),
        });
        Batch::new(zeros.collect())
    }

    /// Fold `other` (same grouping and aggregates) into this partial.
    /// Groups unseen here are appended in `other`'s order, so folding
    /// per-morsel partials in morsel order reproduces the serial
    /// first-seen group order exactly.
    pub fn merge(&mut self, other: PartialAgg) -> Result<()> {
        // The other table's key columns are just rows to resolve here,
        // their stored hashes included.
        let cols: Vec<&Column> = other.table.keys.iter().collect();
        self.gids.clear();
        let first_seen = &mut self.first_seen;
        // Partials each count rows from 0, so merged ranks are only
        // ordinal per-partial; the partial-merge path orders by fold
        // position, never by these ranks.
        self.table.resolve(&cols, 0..other.table.len(), &other.table.hashes, &mut self.gids, |g| {
            first_seen.push(other.first_seen[g])
        });
        for (mine, theirs) in self.accs.iter_mut().zip(&other.accs) {
            mine.merge(theirs, &self.gids, self.table.len())?;
        }
        Ok(())
    }

    /// Finish into `(output batch, first-seen rank per output row)` — the
    /// radix-partition finish. Sorting the concatenated partition outputs
    /// by these ranks reproduces the serial first-seen group order byte
    /// for byte ([`crate::parallel::merge::concat_radix_partitions`]).
    pub fn finish_ordered(mut self) -> (Batch, Vec<u64>) {
        let ranks = std::mem::take(&mut self.first_seen);
        (self.flush(), ranks)
    }
}

/// Whole-input hash aggregation.
pub struct HashAggregate {
    input: BoxedOp,
    core: PartialAgg,
    tracker: Arc<MemoryTracker>,
    done: bool,
}

impl HashAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<HashAggregate> {
        let core = PartialAgg::new(input.schema(), group_by, &aggs)?;
        Ok(HashAggregate { input, core, tracker, done: false })
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &OpSchema {
        self.core.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let mut mem = self.tracker.register(0);
        while let Some(batch) = self.input.next()? {
            self.core.consume(&batch)?;
            mem.resize(self.core.estimated_bytes());
        }
        self.done = true;
        Ok(Some(self.core.finish()))
    }
}

/// Streaming aggregation over key-sorted input. Equal keys are adjacent,
/// so every group a batch touches is complete once the batch's *last* run
/// begins: each batch is consumed in at most two ranges with one flush
/// between them, and only that last, still open group is carried over.
pub struct StreamingAggregate {
    input: BoxedOp,
    core: PartialAgg,
    done: bool,
}

impl StreamingAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
    ) -> Result<StreamingAggregate> {
        let core = PartialAgg::new(input.schema(), group_by, &aggs)?;
        Ok(StreamingAggregate { input, core, done: false })
    }
}

impl Operator for StreamingAggregate {
    fn schema(&self) -> &OpSchema {
        self.core.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        while let Some(batch) = self.input.next()? {
            let n = batch.rows();
            if n == 0 {
                continue;
            }
            let inputs = self.core.eval_inputs(&batch)?;
            // Find where the batch's last run starts.
            let keys = self.core.group_columns(&batch);
            let mut last = n - 1;
            while last > 0 && keys.iter().all(|k| cell_eq(k, last - 1, k, last)) {
                last -= 1;
            }
            // Rows before it close every group they touch, the carried one
            // included; a one-run batch closes it only by starting a new key.
            let mut out = None;
            if last > 0 {
                self.core.consume_range(&batch, &inputs, 0..last, None)?;
                out = Some(self.core.flush());
            } else if let Some(open) = self.core.table.len().checked_sub(1) {
                if !self.core.table.key_eq(open, &keys, 0) {
                    out = Some(self.core.flush());
                }
            }
            self.core.consume_range(&batch, &inputs, last..n, None)?;
            if out.is_some() {
                return Ok(out);
            }
        }
        self.done = true;
        let out = self.core.flush();
        Ok((out.rows() > 0).then_some(out))
    }
}

/// Sandwich aggregation: like hash aggregation, but the table flushes at
/// every boundary of the `partition_cols` (the dimension group-key columns
/// the group-by keys determine). The partition columns are *not* part of
/// the output.
pub struct SandwichAggregate {
    input: BoxedOp,
    core: PartialAgg,
    partition_cols: Vec<usize>,
    /// Partition values of the last row consumed (empty before the first).
    current_partition: Vec<i64>,
    mem: MemoryGuard,
    /// Largest per-partition table size seen (diagnostics).
    pub max_partition_groups: usize,
    done: bool,
}

impl SandwichAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        partition_cols: Vec<usize>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<SandwichAggregate> {
        if partition_cols.is_empty() {
            return Err(ExecError::Plan("sandwich aggregation needs partition columns".into()));
        }
        let core = PartialAgg::new(input.schema(), group_by, &aggs)?;
        Ok(SandwichAggregate {
            input,
            core,
            partition_cols,
            current_partition: Vec::new(),
            mem: tracker.register(0),
            max_partition_groups: 0,
            done: false,
        })
    }
}

impl Operator for SandwichAggregate {
    fn schema(&self) -> &OpSchema {
        self.core.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        while let Some(batch) = self.input.next()? {
            let n = batch.rows();
            if n == 0 {
                continue;
            }
            let inputs = self.core.eval_inputs(&batch)?;
            let parts: Vec<&[i64]> = self
                .partition_cols
                .iter()
                .map(|&c| batch.columns[c].as_i64())
                .collect::<std::result::Result<_, _>>()?;
            // Split the batch where adjacent rows (the first against the
            // previous batch's last) disagree on a partition column, and
            // flush the table at every such boundary.
            let mut start = 0;
            let mut flushed: Option<Batch> = None;
            for row in 0..n {
                let boundary = match row {
                    0 => parts.iter().zip(&self.current_partition).any(|(p, &cur)| p[0] != cur),
                    _ => parts.iter().any(|p| p[row] != p[row - 1]),
                };
                if !boundary {
                    continue;
                }
                self.core.consume_range(&batch, &inputs, start..row, None)?;
                start = row;
                self.max_partition_groups = self.max_partition_groups.max(self.core.table.len());
                let out = self.core.flush();
                match &mut flushed {
                    Some(f) => f.append(&out)?,
                    None => flushed = Some(out),
                }
            }
            self.core.consume_range(&batch, &inputs, start..n, None)?;
            self.current_partition.clear();
            self.current_partition.extend(parts.iter().map(|p| p[n - 1]));
            self.mem.resize(self.core.estimated_bytes());
            if flushed.is_some() {
                return Ok(flushed);
            }
        }
        self.done = true;
        self.max_partition_groups = self.max_partition_groups.max(self.core.table.len());
        let out = self.core.flush();
        self.mem.resize(0);
        Ok((out.rows() > 0).then_some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;

    struct Source {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>, chunk: usize) -> Source {
            let schema: OpSchema =
                cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let n = cols[0].1.len();
            let mut batches = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                batches.push(Batch::new(cols.iter().map(|(_, c)| c.slice(start, end)).collect()));
                start = end;
            }
            Source { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    fn lineitems() -> Vec<(&'static str, Column)> {
        vec![
            ("flag", Column::from_strings(vec!["A".into(), "B".into(), "A".into(), "A".into()])),
            ("qty", Column::from_i64(vec![10, 20, 30, 40])),
            ("price", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
        ]
    }

    #[test]
    fn hash_aggregate_groups_and_sums() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(lineitems(), 2)),
            &["flag"],
            vec![
                AggSpec::new(AggFunc::Sum, Expr::col("qty"), "sum_qty"),
                AggSpec::new(AggFunc::Avg, Expr::col("price"), "avg_price"),
                AggSpec::new(AggFunc::Count, Expr::lit(1), "cnt"),
            ],
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 2);
        let flags = out.columns[0].as_str().unwrap();
        let a = flags.iter().position(|f| f == "A").unwrap();
        let b = flags.iter().position(|f| f == "B").unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap()[a], 80);
        assert_eq!(out.columns[1].as_i64().unwrap()[b], 20);
        assert!((out.columns[2].as_f64().unwrap()[a] - (1.0 + 3.0 + 4.0) / 3.0).abs() < 1e-9);
        assert_eq!(out.columns[3].as_i64().unwrap()[b], 1);
        assert!(t.peak() > 0);
    }

    #[test]
    fn global_aggregate_without_groups() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(lineitems(), 4)),
            &[],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("price"), "rev")],
            t,
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 1);
        assert!((out.columns[0].as_f64().unwrap()[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_count_distinct() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(
                vec![
                    ("g", Column::from_i64(vec![1, 1, 1, 2])),
                    ("v", Column::from_i64(vec![5, 5, 9, 7])),
                ],
                4,
            )),
            &["g"],
            vec![
                AggSpec::new(AggFunc::Min, Expr::col("v"), "mn"),
                AggSpec::new(AggFunc::Max, Expr::col("v"), "mx"),
                AggSpec::new(AggFunc::CountDistinct, Expr::col("v"), "nd"),
            ],
            t,
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        let g = out.columns[0].as_i64().unwrap();
        let i = g.iter().position(|&x| x == 1).unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap()[i], 5);
        assert_eq!(out.columns[2].as_i64().unwrap()[i], 9);
        assert_eq!(out.columns[3].as_i64().unwrap()[i], 2);
    }

    #[test]
    fn streaming_aggregate_on_sorted_input() {
        let src = Source::new(
            vec![
                ("k", Column::from_i64(vec![1, 1, 2, 2, 2, 3])),
                ("v", Column::from_i64(vec![1, 2, 3, 4, 5, 6])),
            ],
            2, // runs span batches
        );
        let agg = StreamingAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[3, 12, 6]);
    }

    #[test]
    fn sandwich_aggregate_flushes_per_partition() {
        // Partition column __gk determines the group key's high part.
        let src = Source::new(
            vec![
                ("k", Column::from_i64(vec![10, 11, 10, 20, 21, 20])),
                ("v", Column::from_i64(vec![1, 2, 3, 4, 5, 6])),
                ("__gk", Column::from_i64(vec![0, 0, 0, 1, 1, 1])),
            ],
            2,
        );
        let t = MemoryTracker::new();
        let agg = SandwichAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
            vec![2],
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 4);
        // Keys 10,11 flushed first (partition 0), then 20,21.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[10, 11, 20, 21]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[4, 2, 10, 5]);
    }

    #[test]
    fn sandwich_agg_uses_less_memory_than_hash() {
        // 1000 distinct keys spread over 100 partitions.
        let n = 1000;
        let k: Vec<i64> = (0..n).collect();
        let gk: Vec<i64> = (0..n).map(|i| i / 10).collect();
        let v: Vec<i64> = vec![1; n as usize];
        let mk = |t: Arc<MemoryTracker>, sandwich: bool| -> u64 {
            let src = Source::new(
                vec![
                    ("k", Column::from_i64(k.clone())),
                    ("v", Column::from_i64(v.clone())),
                    ("__gk", Column::from_i64(gk.clone())),
                ],
                128,
            );
            let aggs = vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")];
            let op: BoxedOp = if sandwich {
                Box::new(
                    SandwichAggregate::new(Box::new(src), &["k"], aggs, vec![2], t.clone())
                        .unwrap(),
                )
            } else {
                Box::new(HashAggregate::new(Box::new(src), &["k"], aggs, t.clone()).unwrap())
            };
            let out = collect(op).unwrap();
            assert_eq!(out.rows(), 1000);
            t.peak()
        };
        let sandwich_peak = mk(MemoryTracker::new(), true);
        let hash_peak = mk(MemoryTracker::new(), false);
        assert!(sandwich_peak * 10 < hash_peak, "sandwich {sandwich_peak} vs hash {hash_peak}");
    }
}
