//! # Allocation-free join index
//!
//! The shared hashing substrate of both hash-join variants (and, via
//! [`hash_group_rows`], of the aggregation group table and everything that
//! routes rows by group key). It replaces the seed's
//! `HashMap<Vec<i64>, Vec<u32>>` build — one `Vec<i64>` key allocation and
//! one `Vec<u32>` row list per distinct key, all hashed with SipHash —
//! with a flat structure that performs **zero per-row heap allocations**
//! on build or probe.
//!
//! ## Table layout
//!
//! A [`JoinTable`] is three parallel flat arrays plus a bucket directory:
//!
//! ```text
//! buckets: [u32; 2^b]   head entry per bucket (EMPTY = u32::MAX)
//! next:    [u32; n]     bucket chain: entry -> next entry with same bucket
//! keys:    [i64; n * K] the K key columns, packed row-major
//! rows:    [u32; n]     build-row id per entry (absent on the serial
//!                       fast path, where entry == row)
//! ```
//!
//! Bucket chains are threaded through `next` — the classic "array hash
//! join" layout — so rows with equal keys need no per-key list: they
//! simply share a chain. Entries are inserted in **reverse** row order at
//! chain heads, so every chain walks in ascending build-row order; probes
//! therefore yield matches in exactly the order the seed's
//! `Vec<u32>` row lists did, keeping results byte-identical.
//!
//! ## Hashing
//!
//! Keys are hashed with the multiplicative FxHash round
//! (`h = (rotl(h,5) ^ v) * K`, [`FxHasher`]'s core) over the packed
//! `[i64; K]` key — a single multiply for the common one-column `u64`
//! fast path — followed by one avalanche multiply so that the *low* bits
//! (bucket index) and the *high* bits (partition index) are both usable.
//!
//! ## Single-key probes
//!
//! One `i64` key against an unpartitioned index (entry == build row) is the
//! common probe shape and takes two passes, with no packed key, slice
//! compare or partition routing per row: every row's chain head, keeping
//! rows whose bucket is occupied without a branch (a big side streamed past
//! a small table finds half its buckets empty, which mispredicts on every
//! other row when fused with the chain walk), then those chains in row order
//! — the generic loop's chains, so the same matches in the same order.
//!
//! ## Parallel partitioned build
//!
//! [`JoinIndex::build`] with a [`ParallelConfig`] splits the build input
//! into morsel-sized row chunks, workers hash-partition each chunk by the
//! key's top hash bits ([`crate::parallel::partition`]), per-partition row
//! lists concatenate in chunk order (ascending row ids — the
//! order-deterministic merge contract), and each worker then builds its
//! partition's [`JoinTable`] locally. Probes compute the same hash once
//! and route to the owning partition. Because a key's rows all land in one
//! partition and chains stay ascending, the partitioned index returns
//! matches in the same order as the serial one: parallel and serial
//! execution remain byte-identical.

use std::hash::{BuildHasherDefault, Hasher};

use crate::error::Result;
use crate::parallel::{partition, pool, ParallelConfig};

/// The FxHash multiplier (a.k.a. the Firefox/rustc hash constant).
const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Chain/bucket terminator.
const EMPTY: u32 = u32::MAX;

/// One FxHash round: fold `v` into `h`.
#[inline(always)]
fn fx_round(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(FX_K)
}

/// Final avalanche: the raw multiplicative hash mixes *up* (high bits are
/// strong, low bits weak); one xor-shift + multiply makes the low bits —
/// which index the bucket directory — depend on every key bit.
#[inline(always)]
fn avalanche(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Hash a packed multi-column integer key.
#[inline]
pub fn hash_key(key: &[i64]) -> u64 {
    let mut h = 0u64;
    for &v in key {
        h = fx_round(h, v as u64);
    }
    avalanche(h)
}

/// Hash row `row` of a set of key columns (same value as [`hash_key`] over
/// the packed key, without materializing it).
#[inline]
pub fn hash_row(key_cols: &[&[i64]], row: usize) -> u64 {
    let mut h = 0u64;
    for c in key_cols {
        h = fx_round(h, c[row] as u64);
    }
    avalanche(h)
}

/// A [`Hasher`] running the FxHash rounds — drop-in replacement for
/// SipHash in `HashMap`/`HashSet` on hot paths that hash small integer or
/// short composite keys (`COUNT(DISTINCT)` sets).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.hash = fx_round(self.hash, u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Zero-padded little-endian word, assembled bytewise: a
            // variable-length copy into a buffer costs a call per string.
            let v = rest.iter().rev().fold(0u64, |v, &b| (v << 8) | b as u64);
            self.hash = fx_round(self.hash, v);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.hash = fx_round(self.hash, i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = fx_round(self.hash, i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = fx_round(self.hash, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.hash = fx_round(self.hash, i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        avalanche(self.hash)
    }
}

/// `BuildHasher` plugging [`FxHasher`] into std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash rows `rows` of a set of **group-key columns**, one hash per row
/// into `out` (cleared first) — the aggregation-side key codec, and the
/// only implementation of it. Integer-backed columns feed their value,
/// floats their bit pattern (groups compare floats bitwise), strings their
/// bytes plus a `0xff` terminator (so `("ab", "c")` and `("a", "bc")`
/// differ), all through the same FxHash rounds + avalanche as the join-key
/// codec ([`hash_key`]/[`hash_row`]).
///
/// The fold runs **column-at-a-time** — one typed loop per column over the
/// whole range, no per-row dispatch — and **ints-then-strings**:
/// integer-backed columns in order, then string columns in order, no
/// length prefixes. The aggregation group table
/// ([`crate::ops::agg`]) files every group under this hash, and radix
/// partition routing ([`crate::parallel::partition`]) and both spill
/// recursions call the same function, so a group's partition, its
/// sub-partition on recursion and its table slot all derive from one
/// value.
pub fn hash_group_rows(
    group_cols: &[&bdcc_storage::Column],
    rows: std::ops::Range<usize>,
    out: &mut Vec<u64>,
) {
    use bdcc_storage::Column;
    out.clear();
    out.resize(rows.len(), 0);
    for c in group_cols {
        match c {
            Column::I64 { values, .. } => {
                for (h, &v) in out.iter_mut().zip(&values[rows.clone()]) {
                    *h = fx_round(*h, v as u64);
                }
            }
            Column::F64(values) => {
                for (h, v) in out.iter_mut().zip(&values[rows.clone()]) {
                    *h = fx_round(*h, v.to_bits());
                }
            }
            Column::Str(_) => {}
        }
    }
    for c in group_cols {
        if let Column::Str(values) = c {
            for (h, s) in out.iter_mut().zip(values.iter_range(rows.clone())) {
                let mut fx = FxHasher { hash: *h };
                fx.write(s.as_bytes());
                fx.write_u8(0xff);
                *h = fx.hash;
            }
        }
    }
    for h in out.iter_mut() {
        *h = avalanche(*h);
    }
}

/// One flat open-addressed-directory + chained-entry hash table (see the
/// module doc for the layout). Covers either the whole build side (serial)
/// or one hash partition of it (parallel).
pub struct JoinTable {
    buckets: Vec<u32>,
    next: Vec<u32>,
    /// Packed keys, `key_width` values per entry.
    keys: Vec<i64>,
    /// Build-row id per entry; `None` on the serial fast path where the
    /// entry index *is* the row id.
    rows: Option<Vec<u32>>,
    key_width: usize,
    mask: u64,
}

impl JoinTable {
    /// Build over `row_ids` (must be ascending; `None` = all rows
    /// `0..len`). Takes the id list by value — the partitioned build hands
    /// each table its partition's list without copying. Exactly three
    /// allocations, none per-row.
    pub fn build(key_cols: &[&[i64]], row_ids: Option<Vec<u32>>) -> JoinTable {
        let key_width = key_cols.len().max(1);
        let n = match &row_ids {
            Some(ids) => ids.len(),
            None => key_cols.first().map(|c| c.len()).unwrap_or(0),
        };
        // Pack the keys row-major (the partition scatter: a sequential
        // gather per key column into one flat buffer).
        let mut keys = Vec::with_capacity(n * key_cols.len());
        match &row_ids {
            Some(ids) => {
                for &r in ids {
                    for c in key_cols {
                        keys.push(c[r as usize]);
                    }
                }
            }
            None => {
                for r in 0..n {
                    for c in key_cols {
                        keys.push(c[r]);
                    }
                }
            }
        }
        // Power-of-two directory at load factor <= 0.5.
        let nbuckets = (n.max(4) * 2).next_power_of_two();
        let mask = nbuckets as u64 - 1;
        let mut buckets = vec![EMPTY; nbuckets];
        let mut next = vec![EMPTY; n];
        // Insert entries in reverse so each chain (head insertion) walks
        // in ascending entry — and therefore ascending row — order.
        for e in (0..n).rev() {
            let h = hash_key(&keys[e * key_width..(e + 1) * key_width]);
            let b = (h & mask) as usize;
            next[e] = buckets[b];
            buckets[b] = e as u32;
        }
        JoinTable { buckets, next, keys, rows: row_ids, key_width, mask }
    }

    /// Entries in this table.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Walk all build rows whose key equals `key` (pre-hashed to `h`), in
    /// ascending build-row order.
    #[inline]
    pub fn probe<F: FnMut(u32)>(&self, h: u64, key: &[i64], f: &mut F) {
        let mut e = self.buckets[(h & self.mask) as usize];
        while e != EMPTY {
            let i = e as usize;
            let base = i * self.key_width;
            if &self.keys[base..base + self.key_width] == key {
                f(match &self.rows {
                    Some(rows) => rows[i],
                    None => e,
                });
            }
            e = self.next[i];
        }
    }

    /// Does any build row carry `key` (pre-hashed to `h`)? Stops at the
    /// first chain hit — the Semi/Anti probe fast path, which needs only
    /// existence, not the match list.
    #[inline]
    pub fn contains(&self, h: u64, key: &[i64]) -> bool {
        let mut e = self.buckets[(h & self.mask) as usize];
        while e != EMPTY {
            let i = e as usize;
            let base = i * self.key_width;
            if &self.keys[base..base + self.key_width] == key {
                return true;
            }
            e = self.next[i];
        }
        false
    }

    /// Bytes held by the flat arrays (memory-tracker accounting).
    pub fn estimated_bytes(&self) -> u64 {
        (self.buckets.len() * 4
            + self.next.len() * 4
            + self.keys.len() * 8
            + self.rows.as_ref().map(|r| r.len() * 4).unwrap_or(0)) as u64
    }
}

/// Bytes a serial [`JoinTable`] over `rows` rows of `key_width` key
/// columns would hold — for operators that must account for a build
/// *before* running it (the sandwich join registers each group's table
/// with the memory tracker up front). Matches [`JoinTable::estimated_bytes`]
/// for an unpartitioned build.
pub fn estimated_table_bytes(rows: usize, key_width: usize) -> u64 {
    let nbuckets = (rows.max(4) * 2).next_power_of_two();
    (nbuckets * 4 + rows * 4 + rows * key_width.max(1) * 8) as u64
}

/// The build-side index of a hash join: one [`JoinTable`] (serial) or one
/// per hash partition (parallel partitioned build).
pub struct JoinIndex {
    tables: Vec<JoinTable>,
    /// Top hash bits selecting the partition (0 = unpartitioned).
    partition_bits: u32,
    key_width: usize,
}

impl JoinIndex {
    /// Build the index over the build side's key columns. Wider than one
    /// thread and over more than one morsel of rows, the build is
    /// hash-partitioned and each partition's table is built by a worker;
    /// otherwise one table is built serially. Both forms return matches in
    /// identical order.
    pub fn build(key_cols: &[&[i64]], cfg: &ParallelConfig) -> Result<JoinIndex> {
        let n = key_cols.first().map(|c| c.len()).unwrap_or(0);
        let key_width = key_cols.len().max(1);
        if !cfg.worth_splitting(n) {
            return Ok(JoinIndex {
                tables: vec![JoinTable::build(key_cols, None)],
                partition_bits: 0,
                key_width,
            });
        }
        let bits = partition::partition_bits_for(cfg.threads);
        // Mutex-wrapped so each worker can *take* its partition's
        // row-id list (tasks are per-partition, so the one lock per
        // table build is noise and the list is never copied).
        let parts: Vec<std::sync::Mutex<Vec<u32>>> =
            partition::hash_partition_rows(key_cols, bits, cfg)?
                .into_iter()
                .map(std::sync::Mutex::new)
                .collect();
        let tables = pool::run_tasks_labeled(cfg.threads, parts.len(), "join-build", |p| {
            let ids = std::mem::take(&mut *parts[p].lock().expect("partition poisoned"));
            Ok(JoinTable::build(key_cols, Some(ids)))
        })?;
        Ok(JoinIndex { tables, partition_bits: bits, key_width })
    }

    /// The table owning hash `h`: the partition the build scattered `h`'s
    /// keys into (same routing as [`partition::partition_of`], which maps
    /// the unpartitioned case to the sole table — a probe touches exactly
    /// one partition, so concurrent probe morsels never contend).
    #[inline]
    fn table_for(&self, h: u64) -> &JoinTable {
        &self.tables[partition::partition_of(h, self.partition_bits)]
    }

    /// Call `f` with every build row whose key equals `key`, in ascending
    /// build-row order.
    #[inline]
    pub fn for_each_match<F: FnMut(u32)>(&self, key: &[i64], mut f: F) {
        debug_assert_eq!(key.len(), self.key_width);
        let h = hash_key(key);
        self.table_for(h).probe(h, key, &mut f);
    }

    /// Does any build row carry `key`? First-hit short-circuit — the
    /// existence probe Semi/Anti joins without a residual use.
    #[inline]
    pub fn has_match(&self, key: &[i64]) -> bool {
        debug_assert_eq!(key.len(), self.key_width);
        let h = hash_key(key);
        self.table_for(h).contains(h, key)
    }

    /// The single-key probe (see the module docs): for one `i64` key column
    /// against an unpartitioned index, call `hit(row, build row)` for the
    /// matches of every row of `range`, in probe order, moving on to the
    /// next row when it returns `false`. `false` for any other shape.
    fn probe_single_key(
        &self,
        key_cols: &[&[i64]],
        range: std::ops::Range<usize>,
        mut hit: impl FnMut(usize, u32) -> bool,
    ) -> bool {
        let ([table], [col]) = (self.tables.as_slice(), key_cols) else { return false };
        if table.rows.is_some() {
            return false;
        }
        // Branch-free: `n` only advances past a row whose bucket is occupied.
        let mut heads = vec![(0, EMPTY); range.len() + 1];
        let mut n = 0;
        for row in range {
            heads[n] = (row, table.buckets[(hash_key(&[col[row]]) & table.mask) as usize]);
            n += (heads[n].1 != EMPTY) as usize;
        }
        for &(row, mut e) in &heads[..n] {
            while e != EMPTY && (table.keys[e as usize] != col[row] || hit(row, e)) {
                e = table.next[e as usize];
            }
        }
        true
    }

    /// Collect every `(probe row, build row)` match pair for rows
    /// `range` of the probe key columns, in probe-row order (build rows
    /// ascending within a probe row) — the order a serial probe loop
    /// yields. One reusable key buffer (or chain-head list); no other
    /// allocations beyond the output lists.
    pub fn probe_pairs(
        &self,
        key_cols: &[&[i64]],
        range: std::ops::Range<usize>,
        lidx: &mut Vec<usize>,
        ridx: &mut Vec<u32>,
    ) {
        let pair = |row, e| {
            lidx.push(row);
            ridx.push(e);
            true
        };
        if self.probe_single_key(key_cols, range.clone(), pair) {
            return;
        }
        let mut key = Vec::with_capacity(key_cols.len());
        for row in range {
            key.clear();
            key.extend(key_cols.iter().map(|c| c[row]));
            self.for_each_match(&key, |m| {
                lidx.push(row);
                ridx.push(m);
            });
        }
    }

    /// Existence-only sibling of [`probe_pairs`](Self::probe_pairs):
    /// append to `lidx` every probe row in `range` with at least one
    /// match (first-hit short-circuit per row, no pair lists) — the
    /// Semi/Anti probe kernel.
    pub fn probe_exists(
        &self,
        key_cols: &[&[i64]],
        range: std::ops::Range<usize>,
        lidx: &mut Vec<usize>,
    ) {
        let first = |row, _| {
            lidx.push(row);
            false
        };
        if self.probe_single_key(key_cols, range.clone(), first) {
            return;
        }
        let mut key = Vec::with_capacity(key_cols.len());
        for row in range {
            key.clear();
            key.extend(key_cols.iter().map(|c| c[row]));
            if self.has_match(&key) {
                lidx.push(row);
            }
        }
    }

    /// [`probe_pairs`](Self::probe_pairs) over all `rows`, fanned out to
    /// workers in morsel-sized row ranges when `cfg` makes the input worth
    /// splitting; per-morsel match lists concatenate in morsel order, so
    /// the result is byte-identical to the serial probe.
    pub fn probe_pairs_parallel(
        &self,
        key_cols: &[&[i64]],
        rows: usize,
        cfg: &ParallelConfig,
    ) -> Result<(Vec<usize>, Vec<u32>)> {
        if !cfg.worth_splitting(rows) {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            self.probe_pairs(key_cols, 0..rows, &mut l, &mut r);
            return Ok((l, r));
        }
        let ranges = crate::parallel::morsel::split_rows(rows, cfg.morsel_rows);
        let per = pool::run_tasks_labeled(cfg.threads, ranges.len(), "join-probe-pairs", |i| {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            self.probe_pairs(key_cols, ranges[i].clone(), &mut l, &mut r);
            Ok((l, r))
        })?;
        Ok(crate::parallel::merge::concat_match_lists(per))
    }

    /// Total entries across partitions (== build rows).
    pub fn len(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// True when no build rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of hash partitions (1 = serial build).
    pub fn partition_count(&self) -> usize {
        self.tables.len()
    }

    /// Bytes held by all partitions' flat arrays.
    pub fn estimated_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.estimated_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_thread() -> ParallelConfig {
        ParallelConfig::with_threads(1)
    }

    fn matches(idx: &JoinIndex, key: &[i64]) -> Vec<u32> {
        let mut out = Vec::new();
        idx.for_each_match(key, |r| out.push(r));
        out
    }

    #[test]
    fn single_column_lookup_in_row_order() {
        let keys: Vec<i64> = vec![5, 3, 5, 7, 3, 5];
        let idx = JoinIndex::build(&[&keys], &one_thread()).unwrap();
        assert_eq!(matches(&idx, &[5]), vec![0, 2, 5]);
        assert_eq!(matches(&idx, &[3]), vec![1, 4]);
        assert_eq!(matches(&idx, &[7]), vec![3]);
        assert_eq!(matches(&idx, &[9]), Vec::<u32>::new());
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.partition_count(), 1);
    }

    #[test]
    fn multi_column_keys_distinguish_rows() {
        let a: Vec<i64> = vec![1, 1, 2, 1];
        let b: Vec<i64> = vec![10, 20, 10, 10];
        let idx = JoinIndex::build(&[&a, &b], &one_thread()).unwrap();
        assert_eq!(matches(&idx, &[1, 10]), vec![0, 3]);
        assert_eq!(matches(&idx, &[1, 20]), vec![1]);
        assert_eq!(matches(&idx, &[2, 10]), vec![2]);
        assert_eq!(matches(&idx, &[2, 20]), Vec::<u32>::new());
    }

    #[test]
    fn empty_build_side() {
        let keys: Vec<i64> = vec![];
        let idx = JoinIndex::build(&[&keys], &one_thread()).unwrap();
        assert!(idx.is_empty());
        assert_eq!(matches(&idx, &[1]), Vec::<u32>::new());
    }

    #[test]
    fn dense_sequential_keys_spread_over_buckets() {
        // Sequential keys are the worst case for a raw multiplicative
        // hash's low bits; the avalanche must keep chains short.
        let keys: Vec<i64> = (0..4096).collect();
        let t = JoinTable::build(&[&keys], None);
        let mut max_chain = 0usize;
        for &head in &t.buckets {
            let mut len = 0;
            let mut e = head;
            while e != EMPTY {
                len += 1;
                e = t.next[e as usize];
            }
            max_chain = max_chain.max(len);
        }
        assert!(max_chain <= 8, "degenerate chain of length {max_chain}");
    }

    #[test]
    fn parallel_build_matches_serial_order() {
        let n = 10_000i64;
        let keys: Vec<i64> = (0..n).map(|i| i % 997).collect();
        let serial = JoinIndex::build(&[&keys], &one_thread()).unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 512 };
        let parallel = JoinIndex::build(&[&keys], &cfg).unwrap();
        assert!(parallel.partition_count() > 1, "build must have partitioned");
        assert_eq!(parallel.len(), serial.len());
        for k in 0..997 {
            assert_eq!(matches(&parallel, &[k]), matches(&serial, &[k]), "key {k}");
        }
    }

    #[test]
    fn one_thread_config_builds_serially() {
        let keys: Vec<i64> = (0..1000).collect();
        let cfg = ParallelConfig { threads: 1, morsel_rows: 16 };
        let idx = JoinIndex::build(&[&keys], &cfg).unwrap();
        assert_eq!(idx.partition_count(), 1);
    }

    #[test]
    fn has_match_agrees_with_for_each_match() {
        let keys: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let idx = JoinIndex::build(&[&keys], &one_thread()).unwrap();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 64 };
        let part = JoinIndex::build(&[&keys], &cfg).unwrap();
        for k in -5..45 {
            let hits = !matches(&idx, &[k]).is_empty();
            assert_eq!(idx.has_match(&[k]), hits, "serial key {k}");
            assert_eq!(part.has_match(&[k]), hits, "partitioned key {k}");
        }
    }

    #[test]
    fn probe_pairs_parallel_is_byte_identical_to_serial() {
        let build_keys: Vec<i64> = (0..3000).map(|i| i % 101).collect();
        let probe_keys: Vec<i64> = (0..5000).map(|i| (i * 7) % 150).collect();
        let idx = JoinIndex::build(&[&build_keys], &one_thread()).unwrap();
        let serial =
            idx.probe_pairs_parallel(&[&probe_keys], probe_keys.len(), &one_thread()).unwrap();
        for threads in [2, 4] {
            let cfg = ParallelConfig { threads, morsel_rows: 128 };
            let par = idx.probe_pairs_parallel(&[&probe_keys], probe_keys.len(), &cfg).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
        // And a partitioned index probed in parallel morsels.
        let cfg = ParallelConfig { threads: 4, morsel_rows: 128 };
        let part = JoinIndex::build(&[&build_keys], &cfg).unwrap();
        let par = part.probe_pairs_parallel(&[&probe_keys], probe_keys.len(), &cfg).unwrap();
        assert_eq!(serial, par, "partitioned index, parallel probe");
    }

    #[test]
    fn fx_hasher_hashes_composite_std_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<(Vec<i64>, String), usize, FxBuildHasher> = HashMap::default();
        m.insert((vec![1, 2], "a".into()), 1);
        m.insert((vec![1, 2], "b".into()), 2);
        m.insert((vec![2, 1], "a".into()), 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m[&(vec![1, 2], "a".to_string())], 1);
    }

    /// The group-key codec one row at a time, straight through the
    /// [`Hasher`] interface — the definition [`hash_group_rows`]'s
    /// column-at-a-time loops must reproduce.
    fn hash_group_row(group_cols: &[&bdcc_storage::Column], row: usize) -> u64 {
        use bdcc_storage::Column;
        let mut h = FxHasher::default();
        for c in group_cols {
            match c {
                Column::I64 { values, .. } => h.write_u64(values[row] as u64),
                Column::F64(values) => h.write_u64(values[row].to_bits()),
                Column::Str(_) => {}
            }
        }
        for c in group_cols {
            if let Column::Str(values) = c {
                h.write(values[row].as_bytes());
                h.write_u8(0xff);
            }
        }
        h.finish()
    }

    #[test]
    fn fx_write_folds_zero_padded_little_endian_words() {
        // `write` is the string half of the group codec (partition routing
        // of spilled data depends on its exact values): whole 8-byte
        // little-endian words, then the remainder zero-padded to a word.
        let bytes: Vec<u8> = (1..=17).collect();
        for len in 0..=bytes.len() {
            let mut want = 0u64;
            for chunk in bytes[..len].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                want = fx_round(want, u64::from_le_bytes(word));
            }
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            assert_eq!(h.hash, want, "len {len}");
        }
    }

    #[test]
    fn batch_group_hash_matches_row_codec() {
        // Whatever mix and interleaving of int / string / float / date
        // group columns — strings straddling the 8-byte chunk boundary
        // included — the batch hash equals the row-wise codec on every
        // row, and hashing a sub-range equals that slice of the whole.
        use bdcc_storage::Column;
        let a = Column::from_i64(vec![5, -3, i64::MAX, 0]);
        let s = Column::from_strings(vec![
            "x".into(),
            String::new(),
            "abcdefgh".into(),
            "abcdefghi".into(),
        ]);
        let f = Column::from_f64(vec![1.5, -0.0, f64::NAN, 0.0]);
        let d = Column::from_dates(vec![9131, 0, -1, 7]);
        let t = Column::from_strings(vec!["".into(), "x".into(), "y".into(), "".into()]);
        let mut out = Vec::new();
        for cols in [vec![&a, &s, &f, &d, &t], vec![&s], vec![&f, &a], vec![&t, &s], vec![]] {
            hash_group_rows(&cols, 0..4, &mut out);
            let want: Vec<u64> = (0..4).map(|r| hash_group_row(&cols, r)).collect();
            assert_eq!(out, want);
            hash_group_rows(&cols, 1..3, &mut out);
            assert_eq!(out, want[1..3]);
        }
        // ("ab", "c") and ("a", "bc") must not collide.
        let l = Column::from_strings(vec!["ab".into(), "a".into()]);
        let r = Column::from_strings(vec!["c".into(), "bc".into()]);
        hash_group_rows(&[&l, &r], 0..2, &mut out);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn estimated_bytes_scales_with_rows() {
        let keys: Vec<i64> = (0..1024).collect();
        let idx = JoinIndex::build(&[&keys], &one_thread()).unwrap();
        // 1024 entries: >= keys (8B) + next (4B) per entry.
        assert!(idx.estimated_bytes() >= 1024 * 12);
    }
}
