//! Aggregation over one columnar group table.
//!
//! The serial operator, [`HashAggregate`], flushes its table whenever its
//! *run columns* change, and that is the only difference between the three
//! strategies the planner names:
//!
//! * **hash** — no run columns: one table over the whole input; its size
//!   is what Figure 3 charges the Plain scheme for;
//! * **streaming** — input already sorted on the group-by keys (the PK
//!   scheme's Q18), which are the run columns: the table holds the open
//!   group and one batch's groups at most;
//! * **sandwich** — input pre-grouped on dimension bits that the group-by
//!   keys *functionally determine* (ref \[3\]), whose group-key columns are
//!   the run columns: the table holds one co-cluster's groups and one
//!   batch's at most.
//!
//! ## The group table
//!
//! The operator keeps its state in a [`PartialAgg`] (on its own, the unit of
//! morsel-parallel aggregation), which takes a batch — or a row range of
//! one — through four column-wise steps, none allocating per row:
//!
//! 1. **Evaluate** the aggregate inputs through an `ExprProgram` compiled
//!    once: bare columns borrowed, arithmetic in typed loops with scalar
//!    literals, a shared subexpression (Q01's `disc_price`) computed once.
//! 2. **Encode** the group columns into one `u64` *key word* per column and
//!    row (`group_key_words`, the only pass over key strings, which reads
//!    them from the column's buffer and offsets): an integer's value, a
//!    float's bits, a string of up to 7 bytes inline, a longer one as a
//!    marked hash; and one hash per row over the words (the hash spill
//!    routing shares; an integer key hashes as in a join).
//! 3. **Resolve** every row to a dense `u32` group id through one
//!    directory (`GroupTable`). Hashed, the row's hash picks an
//!    open-addressed slot, the row's words are compared with the group's
//!    there, and only while some group's key holds a long string's word
//!    are strings compared too. One integer-backed key column goes direct
//!    when the directory grows and the keys seen so far span no more than
//!    its slots: a row's group is `ids[word − lo]`, with no hash or compare
//!    (Abadi et al., SIGMOD 2006, group on codes). A later key outside that
//!    range re-bases the directory in place, the keys centred, when every
//!    key still fits, and otherwise re-files the groups into hashed slots,
//!    once, for good; a flush clears only its groups' entries. Groups keep their words
//!    row-major and their string keys' values, copied once, when the group
//!    appears; with no group columns every row is group 0. Ids ascend in
//!    first-seen order, so a flush decodes the words into the output's
//!    integer and float key columns and hands over the string ones as
//!    they stand.
//! 4. **Accumulate.** Every group has one row count, kept when a `COUNT`
//!    or an `AVG` reads it (a `COUNT` is that count, an `AVG` its sum over
//!    it). Every float `SUM` and `AVG` is a Neumaier-compensated sum in one
//!    fused state (`FloatSums`: per group a `[sum, error]` pair per such
//!    aggregate, side by side), and one row loop folds a batch's rows into
//!    all of them — an integer `AVG` input converted to floats first. The
//!    other aggregates (`Acc`: integer `SUM`, extrema, `COUNT(DISTINCT)`)
//!    keep one vector per group and fold in one typed loop each over
//!    `(row, group id)`. Merging another table adds its counts once and
//!    folds its float states, sum then error, state by state.
//!
//! A group still folds its rows in stream order, so every result —
//! Neumaier-compensated float sums included — is bit for bit that of a
//! row-at-a-time fold. Integer sums are overflow-checked
//! ([`ExecError::Overflow`]), as is integer arithmetic in the inputs.
//! Floats group by exact bit pattern (enough for values never
//! arithmetically re-derived, e.g. `c_acctbal`): `0.0` and `-0.0` are two
//! groups, as are NaNs of different payloads.
//!
//! ## Spilling
//!
//! When the query spills ([`Governor::spills`]) a hash aggregate — a
//! group-by, no run columns — is a hybrid hash aggregation (Shapiro 1986).
//! Before each batch, until it has spilled, it asks the governor about the
//! largest table growth one batch has caused so far (0 before the first
//! batch, so `SpillMode::Force` spills every group). Once the governor
//! reports pressure the table keeps the groups it holds and takes no new
//! one:
//!
//! * a row of a resident group still folds into the table, in stream
//!   order — with no copy when every row of the batch is resident;
//! * a row of a new group goes, its stream position as a trailing `i64`
//!   column, to the partition-spill core (`crate::spill`): 8 partitions on
//!   the top bits of the group-key hash, room made before each chunk.
//!
//! At the end the resident table finishes first; then each leaf of the core
//! folds into the same, emptied table, one leaf at a time, its rows in
//! stream order; and the outputs are put back in first-seen group order by
//! the stream position of each group's first row. Every group folds all its
//! rows, in stream order, in exactly one table, so the result is
//! byte-identical to the in-memory aggregate, floats included. Streaming
//! and sandwich aggregates (bounded by a run) and global aggregates (one
//! group) stay in memory, whatever the mode; a streaming or sandwich one
//! does not log a spill decision either.
//!
//! [`Governor::spills`]: crate::govern::Governor::spills

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Range;

use bdcc_storage::{Column, DataType, StrVec};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::{Expr, ExprProgram};
use crate::hash::{group_key_words, min_max, FxBuildHasher, LONG_STR};
use crate::memory::MemoryGuard;
use crate::ops::{BoxedOp, OpEnv, Operator};
use crate::spill::{scatter_batch, Fanout, PartitionSpill, Shape};

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

/// Free-slot marker of the group directory, and the group id of a row whose
/// key has no group ([`GroupTable::lookup`]).
const EMPTY: u32 = u32::MAX;

/// Top-level partitions of a spilling aggregate: 2^3 = 8.
const SPILL_BITS: u32 = 3;

/// Rows to resolve against a [`GroupTable`]: `k` key words a row (the
/// `hash.rs` codec), their hashes, and the string key columns' values,
/// row `i` at `start + i` — a batch's rows or another table's groups.
struct Keys<'a> {
    words: &'a [u64],
    hashes: &'a [u64],
    strs: &'a [&'a StrVec],
    start: usize,
}

/// The groups seen so far: dense ids in first-seen order, key words in one
/// row-major vector, and one directory from key to id — open-addressed
/// (linear probing) on the hash, or, for one integer-backed key column
/// whose keys fit it, indexed by the key word itself (module docs).
#[derive(Clone)]
struct GroupTable {
    /// Every key column's type, in group-by order.
    types: Vec<DataType>,
    /// Key words, `types.len()` per group: what a probe compares, and
    /// every integer-backed and float key as it is output.
    words: Vec<u64>,
    /// The string key columns: position in the key and values by group id
    /// — the output, and what confirms a long string's word.
    strs: Vec<(usize, StrVec)>,
    /// Every group's key hash.
    hashes: Vec<u64>,
    /// Does any group's key hold a long string's word? Only then does a
    /// probe confirm strings: short strings are equal when their words are.
    long: bool,
    /// Group ids, [`EMPTY`] where free; a power of two, at most half full.
    slots: Vec<u32>,
    /// `Some(lo)` while the directory is direct: group `g` sits in slot
    /// `word(g) − lo`.
    lo: Option<u64>,
    /// Set once the groups were re-filed into hashed slots because a key
    /// fell outside what a direct directory could hold: it stays hashed.
    sparse: bool,
}

/// [`GroupTable::find`]'s miss for a key outside the direct directory.
const OUTSIDE: usize = usize::MAX;

impl GroupTable {
    fn new(key_schema: &[ColMeta]) -> GroupTable {
        let types: Vec<DataType> = key_schema.iter().map(|c| c.data_type).collect();
        let strs = (0..types.len()).filter(|&c| types[c] == DataType::Str);
        // Only a single integer-backed key column may go direct.
        let sparse = !matches!(types[..], [DataType::Int | DataType::Date]);
        GroupTable {
            strs: strs.map(|c| (c, StrVec::new())).collect(),
            types,
            words: Vec::new(),
            hashes: Vec::new(),
            long: false,
            slots: vec![EMPTY; 16],
            lo: None,
            sparse,
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Row `i`'s group id, or the free slot its key would be filed under
    /// ([`OUTSIDE`] when a direct directory has none): directly by its
    /// word, or by the hash, then the `k` words, then — only for a group
    /// whose key holds a long string — the strings.
    #[inline(always)]
    fn find(&self, keys: &Keys, i: usize) -> std::result::Result<u32, usize> {
        if let Some(lo) = self.lo {
            let slot = keys.words[i].wrapping_sub(lo) as usize;
            return match self.slots.get(slot) {
                Some(&g) if g != EMPTY => Ok(g),
                Some(_) => Err(slot),
                None => Err(OUTSIDE),
            };
        }
        let (h, k) = (keys.hashes[i], self.types.len());
        let key = &keys.words[i * k..][..k];
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let g = self.slots[slot];
            if g == EMPTY {
                return Err(slot);
            }
            let mine = &self.words[g as usize * k..][..k];
            if mine.iter().zip(key).all(|(a, b)| a == b)
                && (!self.long || self.same_strs(g as usize, keys, i))
            {
                return Ok(g);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Does group `g` hold row `i`'s long strings (whose words match)?
    #[inline(never)]
    fn same_strs(&self, g: usize, keys: &Keys, i: usize) -> bool {
        let key = &keys.words[i * self.types.len()..];
        self.strs.iter().zip(keys.strs).all(|((c, mine), theirs)| {
            key[*c] & LONG_STR == 0 || mine.get(g) == theirs.get(keys.start + i)
        })
    }

    /// Append to `gids` the group id of every row of `keys`, creating
    /// groups — ids ascending — as keys first appear and reporting those
    /// rows to `on_new`; `rows` rows with no key column (a global
    /// aggregate: one group).
    fn resolve(
        &mut self,
        keys: &Keys,
        rows: usize,
        gids: &mut Vec<u32>,
        mut on_new: impl FnMut(usize),
    ) {
        if self.types.is_empty() {
            if self.hashes.is_empty() && rows > 0 {
                self.hashes.push(0);
                on_new(0);
            }
            gids.resize(gids.len() + rows, 0);
            return;
        }
        for i in 0..keys.hashes.len() {
            gids.push(match self.find(keys, i) {
                Ok(g) => g,
                Err(slot) => {
                    on_new(i);
                    self.insert(slot, keys, i)
                }
            });
        }
    }

    /// [`resolve`](Self::resolve) without creating groups: a row whose key
    /// has none gets [`EMPTY`].
    fn lookup(&self, keys: &Keys, gids: &mut Vec<u32>) {
        gids.extend((0..keys.hashes.len()).map(|i| self.find(keys, i).unwrap_or(EMPTY)));
    }

    /// File a new group under free slot `slot`, its key copied from row `i`.
    fn insert(&mut self, slot: usize, keys: &Keys, i: usize) -> u32 {
        let gid = self.hashes.len() as u32;
        assert!(gid != EMPTY, "group table holds at most u32::MAX - 1 groups");
        self.hashes.push(keys.hashes[i]);
        let k = self.types.len();
        let key = &keys.words[i * k..i * k + k];
        self.words.extend_from_slice(key);
        self.long |= self.strs.iter().any(|(c, _)| key[*c] & LONG_STR != 0);
        for ((_, mine), theirs) in self.strs.iter_mut().zip(keys.strs) {
            mine.push(theirs.get(keys.start + i));
        }
        if slot == OUTSIDE {
            self.refile(self.slots.len());
        } else {
            self.slots[slot] = gid;
        }
        if self.hashes.len() * 2 > self.slots.len() {
            self.refile(self.slots.len() * 2);
        }
        gid
    }

    /// Re-file every group into `n` slots: direct if the keys span fewer —
    /// centred, so that keys arriving on either side find free slots — and
    /// hashed otherwise, for good once a direct directory could not hold a
    /// key.
    fn refile(&mut self, n: usize) {
        self.clear();
        self.slots.resize(n, EMPTY);
        if !self.sparse {
            let (min, max) = min_max(self.words.iter().map(|&w| w as i64));
            let span = max.wrapping_sub(min) as u64;
            let lo =
                (span < n as u64).then(|| (min as u64).wrapping_sub((n as u64 - 1 - span) / 2));
            self.sparse = self.lo.is_some() && lo.is_none();
            self.lo = lo;
        }
        let mask = n - 1;
        for gid in 0..self.len() {
            let mut slot = match self.lo {
                Some(lo) => self.words[gid].wrapping_sub(lo) as usize,
                None => self.hashes[gid] as usize & mask,
            };
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = gid as u32;
        }
    }

    /// Free every group's slot: a direct directory clears only its groups'
    /// entries (the last group's may lie outside it), a hashed one all.
    fn clear(&mut self) {
        match self.lo {
            Some(lo) => {
                for &w in &self.words {
                    if let Some(s) = self.slots.get_mut(w.wrapping_sub(lo) as usize) {
                        *s = EMPTY;
                    }
                }
            }
            None => self.slots.fill(EMPTY),
        }
    }

    /// Empty the table, returning the key columns (group-id order): words
    /// decoded, strings handed over.
    fn take_keys(&mut self) -> Vec<Column> {
        let k = self.types.len();
        let mut cols: Vec<Column> = (self.types.iter().enumerate())
            .map(|(c, &dt)| {
                let words = self.words.iter().skip(c).step_by(k);
                match dt {
                    DataType::Float => Column::F64(words.map(|&w| f64::from_bits(w)).collect()),
                    DataType::Str => Column::empty(dt),
                    _ => Column::I64 { values: words.map(|&w| w as i64).collect(), logical: dt },
                }
            })
            .collect();
        for (c, v) in &mut self.strs {
            cols[*c] = Column::Str(std::mem::take(v));
        }
        self.clear();
        self.words.clear();
        self.hashes.clear();
        self.long = false;
        cols
    }
}

/// One Neumaier step: `sum += v`, with the rounding error of the addition
/// accumulated in `c`. A compensated total is accurate to ~1 ulp of the true
/// value regardless of accumulation order, which is what lets
/// morsel-parallel partial aggregates merge without observable drift from
/// the serial result.
#[inline(always)]
fn neumaier([sum, c]: &mut [f64; 2], v: f64) {
    let t = *sum + v;
    *c += if sum.abs() >= v.abs() { (*sum - t) + v } else { (v - t) + *sum };
    *sum = t;
}

/// Every float `SUM` / `AVG` state of every group, fused: per group
/// `width` `[sum, c]` pairs side by side, state `j` being the `j`-th float
/// aggregate. One row loop folds a batch into all of them.
#[derive(Clone, Default)]
struct FloatSums {
    width: usize,
    state: Vec<[f64; 2]>,
}

impl FloatSums {
    /// Fold value `i` of every input — `inputs[j]` into state `j` — into
    /// group `gids[i]`, row after row; `groups` sizes the state of groups
    /// the rows created.
    fn add(&mut self, inputs: &[&[f64]], gids: &[u32], groups: usize) {
        let w = self.width;
        if w == 0 {
            return;
        }
        self.state.resize(groups * w, [0.0; 2]);
        for (i, &g) in gids.iter().enumerate() {
            let states = &mut self.state[g as usize * w..][..w];
            for (st, v) in states.iter_mut().zip(inputs) {
                neumaier(st, v[i]);
            }
        }
    }

    /// Fold `other`'s group `i` into group `map[i]`, its sum and then its
    /// compensation into each state; a group new to this side (one past
    /// the end) takes `other`'s states as they stand.
    fn merge(&mut self, other: &FloatSums, map: &[u32]) {
        let w = self.width;
        if w == 0 {
            return;
        }
        for (theirs, &g) in other.state.chunks_exact(w).zip(map) {
            let g = g as usize;
            if g * w == self.state.len() {
                self.state.extend_from_slice(theirs);
            } else {
                for (st, [sum, c]) in self.state[g * w..][..w].iter_mut().zip(theirs) {
                    neumaier(st, *sum);
                    neumaier(st, *c);
                }
            }
        }
    }

    /// State `j`'s compensated total of every group.
    fn totals(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        self.state.iter().skip(j).step_by(self.width).map(|[sum, c]| sum + c)
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
/// indexed by group id. Float sums and row counts live in the
/// [`PartialAgg`], shared by every aggregate that reads them.
#[derive(Clone)]
enum Acc {
    SumI(Vec<i64>),
    /// Float `SUM` and `AVG`: the index of the aggregate's state in the
    /// fused [`FloatSums`]; `AVG` divides it by the group's row count.
    SumF(usize),
    Avg(usize),
    /// Best values, typed like the input, and how a better one compares to
    /// the incumbent: `Less` for MIN, `Greater` for MAX.
    Extrema(Column, Ordering),
    /// The same over strings: a group's best value is replaced in place,
    /// which one shared buffer cannot do.
    StrExtrema(Vec<String>, Ordering),
    /// The group's row count, as it stands.
    Count,
    Distinct(Vec<HashSet<i64, FxBuildHasher>>),
}

fn input_mismatch() -> ExecError {
    ExecError::Type("aggregate input is not of its declared type".into())
}

impl Acc {
    /// The state of `func` over inputs of type `dt`; `floats` counts the
    /// float states handed out so far.
    fn new(func: AggFunc, dt: DataType, floats: &mut usize) -> Acc {
        let mut float = || {
            *floats += 1;
            *floats - 1
        };
        match func {
            AggFunc::Sum if dt == DataType::Float => Acc::SumF(float()),
            AggFunc::Sum => Acc::SumI(Vec::new()),
            AggFunc::Avg => Acc::Avg(float()),
            AggFunc::Min | AggFunc::Max => {
                let want = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
                match dt {
                    DataType::Str => Acc::StrExtrema(Vec::new(), want),
                    _ => Acc::Extrema(Column::empty(dt), want),
                }
            }
            AggFunc::Count => Acc::Count,
            AggFunc::CountDistinct => Acc::Distinct(Vec::new()),
        }
    }

    /// Fold rows `start..start + gids.len()` of `input` into the groups
    /// `gids` names; `groups` is the table's group count, which sizes the
    /// state of groups this batch created. Float sums and counts are the
    /// partial's, folded beside this.
    fn update(
        &mut self,
        input: Option<&Column>,
        start: usize,
        gids: &[u32],
        groups: usize,
    ) -> Result<()> {
        match (self, input) {
            (Acc::SumF(_) | Acc::Avg(_) | Acc::Count, _) => {}
            (Acc::SumI(sum), Some(Column::I64 { values, .. })) => {
                add_ints(sum, &values[start..], gids, groups)?
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
    /// morsel-parallel partial aggregation). Exact for every function;
    /// float sums and counts merge in the partial.
    fn merge(&mut self, other: &Acc, map: &[u32], groups: usize) -> Result<()> {
        match (self, other) {
            (Acc::SumF(_), Acc::SumF(_))
            | (Acc::Avg(_), Acc::Avg(_))
            | (Acc::Count, Acc::Count) => {}
            (Acc::SumI(a), Acc::SumI(b)) => add_ints(a, b, map, groups)?,
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

    /// The aggregate's output column (group-id order), given the partial's
    /// float sums and row counts.
    fn finish(self, floats: &FloatSums, counts: &[i64]) -> Column {
        match self {
            Acc::SumI(v) => Column::from_i64(v),
            Acc::Count => Column::from_i64(counts.to_vec()),
            Acc::SumF(j) => Column::from_f64(floats.totals(j).collect()),
            Acc::Avg(j) => {
                Column::from_f64(floats.totals(j).zip(counts).map(|(t, &n)| t / n as f64).collect())
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
/// ([`ParallelAggregate`](crate::parallel::ParallelAggregate)) and finishing yields exactly what a serial
/// [`HashAggregate`] over the concatenated stream would produce.
#[derive(Clone)]
pub struct PartialAgg {
    schema: OpSchema,
    group_cols: Vec<usize>,
    /// Per aggregate: function and input type.
    aggs: Vec<(AggFunc, DataType)>,
    /// Every aggregate's input, compiled (none for `COUNT`).
    inputs: ExprProgram,
    table: GroupTable,
    /// One accumulator per aggregate, each covering every group.
    accs: Vec<Acc>,
    /// Every float `SUM` / `AVG` state, fused.
    floats: FloatSums,
    /// Every group's row count, kept when a `COUNT` or an `AVG` reads it.
    counts: Option<Vec<i64>>,
    /// Per group: the global input position of its first row — a running
    /// row counter on the plain [`consume`](Self::consume) path (the serial
    /// stream position), caller-supplied under
    /// [`consume_indexed`](Self::consume_indexed).
    first_seen: Vec<u64>,
    /// Rows consumed so far (the id space of `first_seen` without ids).
    rows_seen: u64,
    /// Per-batch scratch, reused: key words, row hashes, group ids, and
    /// the integer inputs of `AVG`s as floats.
    words: Vec<u64>,
    hashes: Vec<u64>,
    gids: Vec<u32>,
    as_floats: Vec<Vec<f64>>,
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
        let (mut typed, mut bound) = (Vec::new(), Vec::new());
        for a in aggs {
            let dt = a.input.data_type(input_schema)?;
            typed.push((a.func, dt));
            bound.push((a.func != AggFunc::Count).then(|| a.input.bind(input_schema)).transpose()?);
            schema.push(ColMeta::new(&a.name, agg_output_type(a.func, dt)));
        }
        let bound: Vec<Option<&Expr>> = bound.iter().map(Option::as_ref).collect();
        let mut width = 0;
        let accs: Vec<Acc> = typed.iter().map(|&(f, dt)| Acc::new(f, dt, &mut width)).collect();
        let counted = accs.iter().any(|a| matches!(a, Acc::Count | Acc::Avg(_)));
        Ok(PartialAgg {
            schema,
            group_cols,
            accs,
            floats: FloatSums { width, state: Vec::new() },
            counts: counted.then(Vec::new),
            aggs: typed,
            inputs: ExprProgram::compile(&bound, input_schema)?,
            table,
            first_seen: Vec::new(),
            rows_seen: 0,
            words: Vec::new(),
            hashes: Vec::new(),
            gids: Vec::new(),
            as_floats: vec![Vec::new(); width],
        })
    }

    /// Output schema (group keys then aggregates).
    pub fn schema(&self) -> &OpSchema {
        &self.schema
    }

    /// Accumulate one batch.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        self.consume_indexed(batch, None)
    }

    /// [`consume`](Self::consume), the rows at explicit global stream
    /// positions (`ids[row]`) when given — a spilled leaf's consume: the
    /// leaf holds only its slice of the input but remembers where each group
    /// first appeared in the *whole* stream, so ranks stay comparable across
    /// leaves.
    fn consume_indexed(&mut self, batch: &Batch, ids: Option<&[i64]>) -> Result<()> {
        let steps = self.inputs.run(batch)?;
        let inputs = self.inputs.values(batch, &steps);
        self.consume_range(batch, &inputs, 0..batch.rows(), ids)
    }

    /// Key words and hashes of rows `rows` of `batch` into the scratch, and
    /// the batch's string key columns.
    fn keys_of<'a>(&mut self, batch: &'a Batch, rows: Range<usize>) -> Result<Vec<&'a StrVec>> {
        let cols: Vec<&Column> = self.group_cols.iter().map(|&c| &batch.columns[c]).collect();
        if !cols.is_empty() {
            group_key_words(&cols, rows, &mut self.words, &mut self.hashes);
        }
        self.table.strs.iter().map(|(c, _)| Ok(cols[*c].as_str()?)).collect()
    }

    /// Fold rows `rows` of `batch` — whose aggregate inputs are `inputs`
    /// ([`ExprProgram::values`]) — into the table.
    fn consume_range(
        &mut self,
        batch: &Batch,
        inputs: &[Option<&Column>],
        rows: Range<usize>,
        ids: Option<&[i64]>,
    ) -> Result<()> {
        let strs = self.keys_of(batch, rows.clone())?;
        let keys =
            Keys { words: &self.words, hashes: &self.hashes, strs: &strs, start: rows.start };
        self.gids.clear();
        let (first_seen, rows_seen, start) = (&mut self.first_seen, self.rows_seen, rows.start);
        self.table.resolve(&keys, rows.len(), &mut self.gids, |i| {
            first_seen.push(match ids {
                Some(ids) => ids[start + i] as u64,
                None => rows_seen + i as u64,
            })
        });
        self.rows_seen += rows.len() as u64;
        self.fold(inputs, start)
    }

    /// Fold the aggregate inputs' rows `start..start + gids.len()` into the
    /// groups `self.gids` names: row counts, every float sum in one row
    /// loop, then each other aggregate.
    fn fold(&mut self, inputs: &[Option<&Column>], start: usize) -> Result<()> {
        let (gids, groups) = (&self.gids, self.table.len());
        if let Some(counts) = &mut self.counts {
            counts.resize(groups, 0);
            gids.iter().for_each(|&g| counts[g as usize] += 1);
        }
        let floats = self.accs.iter().zip(inputs);
        let floats = floats.filter(|(a, _)| matches!(a, Acc::SumF(_) | Acc::Avg(_)));
        let mut values = Vec::with_capacity(self.floats.width);
        for ((_, input), buf) in floats.zip(&mut self.as_floats) {
            values.push(match input {
                Some(Column::F64(v)) => &v[start..],
                Some(Column::I64 { values: v, .. }) => {
                    buf.clear();
                    buf.extend(v[start..start + gids.len()].iter().map(|&v| v as f64));
                    &buf[..]
                }
                _ => return Err(input_mismatch()),
            });
        }
        self.floats.add(&values, gids, groups);
        for (acc, input) in self.accs.iter_mut().zip(inputs) {
            acc.update(*input, start, gids, groups)?;
        }
        Ok(())
    }

    /// Fold the rows of `batch` (aggregate inputs `inputs`) whose groups the
    /// table holds, in stream order, creating none; return the other rows.
    fn consume_resident(
        &mut self,
        batch: &Batch,
        inputs: &[Option<&Column>],
    ) -> Result<Vec<usize>> {
        let n = batch.rows();
        let strs = self.keys_of(batch, 0..n)?;
        let keys = Keys { words: &self.words, hashes: &self.hashes, strs: &strs, start: 0 };
        self.gids.clear();
        self.table.lookup(&keys, &mut self.gids);
        self.rows_seen += n as u64;
        let (new, resident): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&r| self.gids[r] == EMPTY);
        if resident.is_empty() {
            return Ok(new);
        }
        if new.is_empty() {
            self.fold(inputs, 0)?;
        } else {
            // The inputs of the resident rows, gathered.
            self.gids.retain(|&g| g != EMPTY);
            let gathered: Vec<Option<Column>> =
                inputs.iter().map(|c| c.map(|c| c.gather(&resident))).collect();
            let gathered: Vec<Option<&Column>> = gathered.iter().map(Option::as_ref).collect();
            self.fold(&gathered, 0)?;
        }
        Ok(new)
    }

    /// Estimated bytes of accumulated state (memory accounting): per
    /// group, 32 plus the first group's key and state widths (8 per
    /// integer-backed key, length + 8 per string, 16 per aggregate and per
    /// distinct value).
    pub fn estimated_bytes(&self) -> u64 {
        if self.table.len() == 0 {
            return 0;
        }
        let strs = self.table.strs.iter().map(|(_, v)| v.get(0).len() as u64 + 8);
        let key = strs.sum::<u64>() + 8 * (self.table.types.len() - self.table.strs.len()) as u64;
        let states = self.accs.iter().map(|a| match a {
            Acc::Distinct(sets) => 16 + sets[0].len() as u64 * 16,
            _ => 16,
        });
        self.table.len() as u64 * (32 + key + states.sum::<u64>())
    }

    /// Drain all groups into one output batch (first-seen order), leaving
    /// the state empty.
    fn flush(&mut self) -> Batch {
        let mut cols = self.table.take_keys();
        let counts = self.counts.as_mut().map(std::mem::take).unwrap_or_default();
        let mut width = 0;
        for (acc, &(f, dt)) in self.accs.iter_mut().zip(&self.aggs) {
            let acc = std::mem::replace(acc, Acc::new(f, dt, &mut width));
            cols.push(acc.finish(&self.floats, &counts));
        }
        self.floats.state.clear();
        self.first_seen.clear();
        Batch::new(cols)
    }

    /// `flush` at the end of the input: a *global* aggregation (no
    /// group-by) over empty input still yields one row, every aggregate's
    /// zero state (COUNT() = 0, SUM() = 0, ...).
    pub fn finish(&mut self) -> Batch {
        if self.table.len() > 0 || !self.group_cols.is_empty() {
            return self.flush();
        }
        let zeros = self.aggs.iter().map(|&(f, dt)| match agg_output_type(f, dt) {
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
        // The other table's groups are just rows to resolve here, their
        // key words and hashes included.
        let strs: Vec<&StrVec> = other.table.strs.iter().map(|(_, v)| v).collect();
        let keys =
            Keys { words: &other.table.words, hashes: &other.table.hashes, strs: &strs, start: 0 };
        self.gids.clear();
        let first_seen = &mut self.first_seen;
        // Partials each count rows from 0, so merged ranks are only
        // ordinal per-partial; the partial-merge path orders by fold
        // position, never by these ranks.
        self.table.resolve(&keys, other.table.len(), &mut self.gids, |g| {
            first_seen.push(other.first_seen[g])
        });
        let groups = self.table.len();
        if let (Some(mine), Some(theirs)) = (&mut self.counts, &other.counts) {
            add_ints(mine, theirs, &self.gids, groups)?;
        }
        self.floats.merge(&other.floats, &self.gids);
        for (mine, theirs) in self.accs.iter_mut().zip(&other.accs) {
            mine.merge(theirs, &self.gids, groups)?;
        }
        Ok(())
    }

    /// Finish into `(output batch, first-seen rank per output row)`,
    /// leaving the state empty: the finish of a spilling aggregate's
    /// resident table and of each leaf.
    fn finish_ordered(&mut self) -> (Batch, Vec<u64>) {
        let ranks = std::mem::take(&mut self.first_seen);
        (self.flush(), ranks)
    }
}

/// Serial aggregation: one group table, flushed whenever the **run
/// columns** change. With none the whole input is one run (hash
/// aggregation), which spills when the query does (module docs). Over
/// input ordered on the group-by keys they are those keys (streaming), and
/// over BDCC input grouped on dimension bits the group-by keys determine
/// they are its group-key columns (sandwich, ref \[3\]) — either way the
/// table holds the open run's groups and one batch's at most. A group never
/// spans runs, so flushing decides when groups leave, never their values or
/// their first-seen order.
pub struct HashAggregate {
    input: BoxedOp,
    core: PartialAgg,
    run_cols: Vec<usize>,
    /// The open run: its run-column values (one row each), empty before
    /// the first row.
    open: Vec<Column>,
    /// The table registers on `env.tracker`; `env.governor` answers the
    /// spill questions and is checked as each spilled leaf opens; spill
    /// files are metered on `env.io`, and spill traffic and the decision
    /// log go to `env.metrics`.
    env: OpEnv,
    mem: MemoryGuard,
    /// The largest table growth one batch has caused so far: what the
    /// governor is asked about before the next.
    growth: u64,
    /// Once the table takes no new group: the core holding the other rows,
    /// and how many rows the table had folded by then.
    spill: Option<(PartitionSpill, u64)>,
    done: bool,
}

impl HashAggregate {
    /// Aggregate the whole input as one run.
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        env: OpEnv,
    ) -> Result<HashAggregate> {
        let core = PartialAgg::new(input.schema(), group_by, &aggs)?;
        let mem = env.tracker.register(0);
        Ok(HashAggregate {
            input,
            core,
            run_cols: Vec::new(),
            open: Vec::new(),
            env,
            mem,
            growth: 0,
            spill: None,
            done: false,
        })
    }

    /// Flush the table whenever the input columns `run_cols` change; no
    /// group may span two runs.
    pub fn with_runs(mut self, run_cols: Vec<usize>) -> HashAggregate {
        self.run_cols = run_cols;
        self
    }

    /// Is the spill path live: the query spills and no run columns bound
    /// the table? A streaming or sandwich aggregate never spills, nor logs
    /// a spill decision.
    fn may_spill(&self) -> bool {
        self.run_cols.is_empty() && self.env.governor.spills()
    }

    /// Stop taking groups if the governor reports pressure: a group-by
    /// with no run columns opens its spill core.
    fn maybe_spill(&mut self) {
        let grouped = !self.core.group_cols.is_empty();
        if self.spill.is_none()
            && grouped
            && self.may_spill()
            && self.env.governor.should_spill(self.growth)
        {
            let shape = Shape {
                keys: self.core.group_cols.clone(),
                fanout: Fanout::Bits(SPILL_BITS),
                leaf_factor: 1,
                label: "agg",
            };
            self.spill = Some((PartitionSpill::new(shape, &self.env), self.core.rows_seen));
        }
    }

    /// Route the rows `new` of a batch whose other rows a table that takes
    /// no new group has just folded to the spill core.
    fn spill_rows(&mut self, batch: Batch, new: Vec<usize>) -> Result<()> {
        self.mem.resize(self.core.estimated_bytes());
        if new.is_empty() {
            return Ok(());
        }
        let base = (self.core.rows_seen - batch.rows() as u64) as i64;
        let mut rows = if new.len() == batch.rows() { batch } else { batch.gather(&new) };
        rows.columns.push(Column::from_i64(new.iter().map(|&r| base + r as i64).collect()));
        let (spill, _) = self.spill.as_mut().expect("spilling");
        // Chunk by chunk: a whole batch scattered at once can overshoot the
        // budget before its room is made.
        for (p, chunk) in scatter_batch(&rows, &self.core.group_cols, SPILL_BITS) {
            spill.make_room_for(p, chunk.estimated_bytes())?;
            spill.push(p, chunk)?;
        }
        Ok(())
    }

    /// The output of a spilled aggregate: the resident table's groups and
    /// each leaf's through the same table, sorted by rank. Groups are
    /// disjoint and a rank is one input row's stream position, so the sort
    /// has no ties and restores the first-seen order.
    fn finish_spilled(&mut self, spill: PartitionSpill, rows: u64) -> Result<Batch> {
        let resident = self.core.table.len();
        let (mut out, mut ranks) = self.core.finish_ordered();
        self.mem.resize(0);
        let (core, mem, mut leaves) = (&mut self.core, &mut self.mem, 0);
        spill.for_each_leaf(|leaf| {
            leaf.for_each_chunk(|chunk| {
                let ids = chunk.columns.last().expect("chunks carry stream positions").as_i64()?;
                // The trailing column is past every bound input index.
                core.consume_indexed(&chunk, Some(ids))?;
                mem.resize(core.estimated_bytes());
                Ok(())
            })?;
            let (batch, leaf_ranks) = core.finish_ordered();
            mem.resize(0);
            out.append(&batch)?;
            ranks.extend(leaf_ranks);
            leaves += 1;
            Ok(())
        })?;
        if let Some(m) = &self.env.metrics {
            let resident = format!("{rows} rows, {resident} groups resident");
            m.annotate("spill", format!("after({resident}) leaves={leaves}"));
        }
        let mut perm: Vec<usize> = (0..ranks.len()).collect();
        perm.sort_unstable_by_key(|&i| ranks[i]);
        Ok(out.gather(&perm))
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
        while let Some(batch) = self.input.next()? {
            let n = batch.rows();
            if n == 0 {
                continue;
            }
            let steps = self.core.inputs.run(&batch)?;
            let inputs = self.core.inputs.values(&batch, &steps);
            self.maybe_spill();
            if self.spill.is_some() {
                let new = self.core.consume_resident(&batch, &inputs)?;
                self.spill_rows(batch, new)?;
                continue;
            }
            // Find where the batch's last run starts.
            let runs: Vec<&Column> = self.run_cols.iter().map(|&c| &batch.columns[c]).collect();
            let mut last = if runs.is_empty() { 0 } else { n - 1 };
            while last > 0 && runs.iter().all(|k| cell_eq(k, last - 1, k, last)) {
                last -= 1;
            }
            // Rows before it close every run they touch, the carried one
            // included; a one-run batch closes it only by starting a new one.
            let mut out = None;
            if last > 0 {
                self.core.consume_range(&batch, &inputs, 0..last, None)?;
                out = Some(self.core.flush());
            } else if !runs.iter().zip(&self.open).all(|(k, open)| cell_eq(open, 0, k, 0)) {
                out = Some(self.core.flush());
            }
            self.core.consume_range(&batch, &inputs, last..n, None)?;
            self.open = runs.iter().map(|k| k.slice(n - 1, n)).collect();
            let bytes = self.core.estimated_bytes();
            self.growth = self.growth.max(bytes.saturating_sub(self.mem.bytes()));
            self.mem.resize(bytes);
            if out.is_some() {
                return Ok(out);
            }
        }
        self.done = true;
        let out = match self.spill.take() {
            Some((spill, rows)) => self.finish_spilled(spill, rows)?,
            None => {
                if let (true, Some(m)) = (self.may_spill(), &self.env.metrics) {
                    m.annotate("spill", "no");
                }
                self.core.finish()
            }
        };
        self.mem.resize(0);
        Ok((out.rows() > 0).then_some(out))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::govern::{Governor, SpillMode};
    use crate::memory::MemoryTracker;
    use crate::ops::collect;
    use bdcc_obs::OpMetrics;
    use bdcc_storage::IoTracker;

    /// An unprofiled, ungoverned aggregate's environment charging `tracker`.
    fn env(tracker: &Arc<MemoryTracker>) -> OpEnv {
        OpEnv::new(IoTracker::new(), Arc::clone(tracker))
    }

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
            env(&t),
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
            env(&t),
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
            env(&t),
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
        let agg = HashAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
            env(&MemoryTracker::new()),
        )
        .unwrap()
        .with_runs(vec![0]);
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
        let agg = HashAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
            env(&t),
        )
        .unwrap()
        .with_runs(vec![2]);
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
            let runs = if sandwich { vec![2] } else { vec![] };
            let op = HashAggregate::new(Box::new(src), &["k"], aggs, env(&t)).unwrap();
            let op: BoxedOp = Box::new(op.with_runs(runs));
            let out = collect(op).unwrap();
            assert_eq!(out.rows(), 1000);
            t.peak()
        };
        let sandwich_peak = mk(MemoryTracker::new(), true);
        let hash_peak = mk(MemoryTracker::new(), false);
        assert!(sandwich_peak * 10 < hash_peak, "sandwich {sandwich_peak} vs hash {hash_peak}");
    }

    /// Seven columns: a scattered int key `k`, a per-row-unique `u`, ints
    /// `g`, floats `f` and `h`, strings `s`, and `r`, whose 64-row batches
    /// cycle through new keys, only the first batch's keys, and half each.
    fn wide(rows: usize) -> Vec<(&'static str, Column)> {
        let ints = |f: &dyn Fn(i64) -> i64| Column::from_i64((0..rows as i64).map(f).collect());
        let r = |i: i64| match (i / 64) % 3 {
            1 => i % 64,
            2 if i % 2 == 0 => i % 64,
            _ => i,
        };
        vec![
            ("k", ints(&|i| (i * 13) % 977)),
            ("u", ints(&|i| i)),
            ("g", ints(&|i| i % 7)),
            ("f", Column::from_f64((0..rows).map(|i| i as f64 * 0.37 - 100.0).collect())),
            ("h", Column::from_f64((0..rows).map(|i| (i % 89) as f64 * 0.5).collect())),
            ("s", Column::from_strings((0..rows).map(|i| format!("tag{}", i % 11)).collect())),
            ("r", ints(&r)),
        ]
    }

    fn every_agg() -> Vec<AggSpec> {
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

    /// Group-by sets every spill mode below runs: a scattered int + string
    /// key, a per-row-unique key (every row its own group), a string + float
    /// key (mixed types through the shared key codec), and `r`.
    const GROUP_BYS: [&[&str]; 4] = [&["k", "s"], &["u"], &["s", "h"], &["r"]];

    /// A hash aggregate over 64-row batches under spill `mode` and `budget`
    /// vs one in memory: *bit*-identical, floats included, with every temp
    /// file unlinked and every tracked byte released. Returns each run's
    /// decision log.
    fn spilled(rows: usize, mode: SpillMode, budget: Option<u64>) -> Vec<String> {
        let _spill = crate::spill::spill_test_guard();
        let base = bdcc_storage::live_spill_files();
        let mut logs = Vec::new();
        for group_by in GROUP_BYS {
            let agg = |env| {
                let src = Box::new(Source::new(wide(rows), 64));
                HashAggregate::new(src, group_by, every_agg(), env).unwrap()
            };
            let want = collect(Box::new(agg(env(&MemoryTracker::new())))).unwrap();
            let (tracker, metrics) = (MemoryTracker::new(), OpMetrics::new());
            let mut governor = Governor::none();
            governor.set_spill(mode);
            if let Some(bytes) = budget {
                governor.set_budget(bytes, &tracker);
            }
            let metrics_on = Some(Arc::clone(&metrics));
            let got =
                collect(Box::new(agg(OpEnv { metrics: metrics_on, governor, ..env(&tracker) })))
                    .unwrap();
            assert_eq!(want, got, "{group_by:?}: must be bit-identical");
            assert_eq!(bdcc_storage::live_spill_files(), base, "{group_by:?}: files must unlink");
            assert_eq!(tracker.current(), 0, "{group_by:?}: memory must release");
            let log = metrics.annotations().into_iter().find(|(k, _)| k == "spill");
            logs.push(log.expect("a spilling query logs its decision").1);
        }
        logs
    }

    #[test]
    fn forced_spill_is_bit_identical_and_spills_every_group() {
        for log in spilled(3000, SpillMode::Force, None) {
            assert_eq!(log, "after(0 rows, 0 groups resident) leaves=8");
        }
    }

    #[test]
    fn tiny_budget_recursion_is_bit_identical() {
        // A 4 KB budget stops the table after its first batch, and a 2 KB
        // restore limit splits every partition further: spill mechanics at
        // maximum stress, inside the budget's hard check.
        for log in spilled(3000, SpillMode::Auto, Some(4096)) {
            let leaves: usize = log.rsplit('=').next().unwrap().parse().unwrap();
            assert!(log.starts_with("after(64 rows, 64 groups resident)") && leaves > 8, "{log}");
        }
    }

    #[test]
    fn roomy_budget_stays_resident_and_identical() {
        assert!(spilled(2000, SpillMode::Auto, Some(1 << 30)).iter().all(|log| log == "no"));
    }

    #[test]
    fn group_directory_goes_direct_re_bases_and_re_files_once() {
        let schema = [ColMeta::new("k", DataType::Int)];
        let count = [AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
        let mut p = PartialAgg::new(&schema, &["k"], &count).unwrap();
        let feed = |p: &mut PartialAgg, keys: Vec<i64>| {
            p.consume(&Batch::new(vec![Column::from_i64(keys)])).unwrap();
            (p.table.lo.map(|lo| lo as i64), p.table.sparse, p.table.slots.len())
        };
        // Eight groups fit the first 16 hashed slots; the ninth grows the
        // directory to 32, and keys 0..=8 fit it, centred.
        assert_eq!(feed(&mut p, (0..8).collect()), (None, false, 16));
        assert_eq!(feed(&mut p, vec![8]), (Some(-11), false, 32));
        // Keys on either side of the range fill its free slots; one past
        // them re-bases it, centred again.
        assert_eq!(feed(&mut p, vec![-11, 19]), (Some(-11), false, 32));
        assert_eq!(feed(&mut p, vec![-12]), (Some(-12), false, 32));
        // Doubling keeps it direct; a key the range cannot hold re-files
        // every group into hashed slots, for good.
        assert_eq!(feed(&mut p, (9..15).collect()), (Some(-28), false, 64));
        assert_eq!(feed(&mut p, vec![1000]), (None, true, 64));
        let out = p.finish();
        assert_eq!(out.rows(), 19);
        assert_eq!(feed(&mut p, (0..40).collect()), (None, true, 128));
        // A flush clears only the groups' entries of a direct directory,
        // and the next key re-bases it.
        let mut p = PartialAgg::new(&schema, &["k"], &count).unwrap();
        assert_eq!(feed(&mut p, (100..200).collect()), (Some(5), false, 256));
        p.finish();
        assert!(p.table.slots.iter().all(|&g| g == EMPTY));
        assert_eq!(feed(&mut p, vec![1000, 990]), (Some(873), false, 256));
        // Composite and string keys always hash.
        let schema = [ColMeta::new("k", DataType::Int), ColMeta::new("j", DataType::Int)];
        assert!(PartialAgg::new(&schema, &["k", "j"], &count).unwrap().table.sparse);
        let schema = [ColMeta::new("k", DataType::Str)];
        assert!(PartialAgg::new(&schema, &["k"], &count).unwrap().table.sparse);
    }
}
