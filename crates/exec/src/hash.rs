//! # Allocation-free join index
//!
//! The hashing substrate of the hash join, grouped or not (and, via
//! [`hash_group_rows`], of the aggregation group table and everything that
//! routes rows by group key). It replaces the seed's
//! `HashMap<Vec<i64>, Vec<u32>>` build — one `Vec<i64>` key allocation and
//! one `Vec<u32>` row list per distinct key, all hashed with SipHash —
//! with a flat structure that performs **zero per-row heap allocations**
//! on build or probe.
//!
//! ## Table layout
//!
//! A [`JoinIndex`] is two flat arrays plus a bucket directory, one entry
//! per build row (entry == row):
//!
//! ```text
//! buckets: [u32; 2^b]   head entry per bucket (EMPTY = u32::MAX)
//! next:    [u32; n]     bucket chain: entry -> next entry with same bucket
//! keys:    [i64; n * K] the K key columns, packed row-major
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
//! (bucket index) and the *high* bits (the partition index of the spill
//! core) are both usable.
//!
//! ## Single-key probes
//!
//! One `i64` key is the common probe shape and takes two passes, with no
//! packed key or slice compare per row: every row's chain head, keeping
//! rows whose bucket is occupied without a branch (a big side streamed
//! past a small table finds half its buckets empty, which mispredicts on
//! every other row when fused with the chain walk), then those chains in
//! row order — the generic loop's chains, so the same matches in the same
//! order.

use std::hash::{BuildHasherDefault, Hasher};

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
/// codec ([`hash_key`]).
///
/// The fold runs **column-at-a-time** — one typed loop per column over the
/// whole range, no per-row dispatch — and **ints-then-strings**:
/// integer-backed columns in order, then string columns in order, no
/// length prefixes. The aggregation group table
/// ([`crate::ops::agg`]) files every group under this hash, and the spill
/// core's routing and recursion (`crate::spill`) call the same function,
/// so a group's partition, its sub-partition on recursion and its table
/// slot all derive from one value.
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

/// The build-side index of a hash join: one flat hash table — a bucket
/// directory plus entry chains — over every build row (see the module doc
/// for the layout). Entry `e` is build row `e`.
pub struct JoinIndex {
    buckets: Vec<u32>,
    next: Vec<u32>,
    /// Packed keys, `key_width` values per entry.
    keys: Vec<i64>,
    key_width: usize,
    mask: u64,
}

/// Rows of a side's key columns (none without a key column).
fn key_rows(key_cols: &[&[i64]]) -> usize {
    key_cols.first().map_or(0, |c| c.len())
}

impl JoinIndex {
    /// Build the index over the build side's key columns. Exactly three
    /// allocations, none per row.
    pub fn build(key_cols: &[&[i64]]) -> JoinIndex {
        let key_width = key_cols.len().max(1);
        let n = key_rows(key_cols);
        // Pack the keys row-major.
        let mut keys = Vec::with_capacity(n * key_cols.len());
        for r in 0..n {
            for c in key_cols {
                keys.push(c[r]);
            }
        }
        // Power-of-two directory at load factor <= 0.5.
        let nbuckets = (n.max(4) * 2).next_power_of_two();
        let mask = nbuckets as u64 - 1;
        let mut buckets = vec![EMPTY; nbuckets];
        let mut next = vec![EMPTY; n];
        // Insert entries in reverse so each chain (head insertion) walks
        // in ascending row order.
        for e in (0..n).rev() {
            let h = hash_key(&keys[e * key_width..(e + 1) * key_width]);
            let b = (h & mask) as usize;
            next[e] = buckets[b];
            buckets[b] = e as u32;
        }
        JoinIndex { buckets, next, keys, key_width, mask }
    }

    /// Call `f` with every build row whose key equals `key`, in ascending
    /// build-row order.
    #[inline]
    pub fn for_each_match<F: FnMut(u32)>(&self, key: &[i64], mut f: F) {
        debug_assert_eq!(key.len(), self.key_width);
        let mut e = self.buckets[(hash_key(key) & self.mask) as usize];
        while e != EMPTY {
            let base = e as usize * self.key_width;
            if &self.keys[base..base + self.key_width] == key {
                f(e);
            }
            e = self.next[e as usize];
        }
    }

    /// Does any build row carry `key`? First-hit short-circuit — the
    /// existence probe Semi/Anti joins without a residual use.
    #[inline]
    pub fn has_match(&self, key: &[i64]) -> bool {
        debug_assert_eq!(key.len(), self.key_width);
        let mut e = self.buckets[(hash_key(key) & self.mask) as usize];
        while e != EMPTY {
            let base = e as usize * self.key_width;
            if &self.keys[base..base + self.key_width] == key {
                return true;
            }
            e = self.next[e as usize];
        }
        false
    }

    /// The single-key probe (see the module docs): for one `i64` key
    /// column, call `hit(row, build row)` for the matches of every probe
    /// row, in probe order, moving on to the next row when it returns
    /// `false`. `false` for any other shape.
    fn probe_single_key(
        &self,
        key_cols: &[&[i64]],
        mut hit: impl FnMut(usize, u32) -> bool,
    ) -> bool {
        let [col] = key_cols else { return false };
        // Branch-free: `n` only advances past a row whose bucket is occupied.
        let mut heads = vec![(0, EMPTY); col.len() + 1];
        let mut n = 0;
        for (row, &key) in col.iter().enumerate() {
            heads[n] = (row, self.buckets[(hash_key(&[key]) & self.mask) as usize]);
            n += (heads[n].1 != EMPTY) as usize;
        }
        for &(row, mut e) in &heads[..n] {
            while e != EMPTY && (self.keys[e as usize] != col[row] || hit(row, e)) {
                e = self.next[e as usize];
            }
        }
        true
    }

    /// Collect every `(probe row, build row)` match pair of the probe key
    /// columns, in probe-row order (build rows ascending within a probe
    /// row) — the order a probe loop yields. One reusable key buffer (or
    /// chain-head list); no other allocations beyond the output lists.
    pub fn probe_pairs(&self, key_cols: &[&[i64]], lidx: &mut Vec<usize>, ridx: &mut Vec<u32>) {
        let pair = |row, e| {
            lidx.push(row);
            ridx.push(e);
            true
        };
        if self.probe_single_key(key_cols, pair) {
            return;
        }
        let mut key = Vec::with_capacity(key_cols.len());
        for row in 0..key_rows(key_cols) {
            key.clear();
            key.extend(key_cols.iter().map(|c| c[row]));
            self.for_each_match(&key, |m| {
                lidx.push(row);
                ridx.push(m);
            });
        }
    }

    /// Existence-only sibling of [`probe_pairs`](Self::probe_pairs):
    /// append to `lidx` every probe row with at least one match (first-hit
    /// short-circuit per row, no pair lists) — the Semi/Anti probe kernel.
    pub fn probe_exists(&self, key_cols: &[&[i64]], lidx: &mut Vec<usize>) {
        let first = |row, _| {
            lidx.push(row);
            false
        };
        if self.probe_single_key(key_cols, first) {
            return;
        }
        let mut key = Vec::with_capacity(key_cols.len());
        for row in 0..key_rows(key_cols) {
            key.clear();
            key.extend(key_cols.iter().map(|c| c[row]));
            if self.has_match(&key) {
                lidx.push(row);
            }
        }
    }

    /// Entries in the index (== build rows).
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when no build rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Bytes held by the flat arrays (memory-tracker accounting).
    pub fn estimated_bytes(&self) -> u64 {
        (self.buckets.len() * 4 + self.next.len() * 4 + self.keys.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(idx: &JoinIndex, key: &[i64]) -> Vec<u32> {
        let mut out = Vec::new();
        idx.for_each_match(key, |r| out.push(r));
        out
    }

    #[test]
    fn single_column_lookup_in_row_order() {
        let keys: Vec<i64> = vec![5, 3, 5, 7, 3, 5];
        let idx = JoinIndex::build(&[&keys]);
        assert_eq!(matches(&idx, &[5]), vec![0, 2, 5]);
        assert_eq!(matches(&idx, &[3]), vec![1, 4]);
        assert_eq!(matches(&idx, &[7]), vec![3]);
        assert_eq!(matches(&idx, &[9]), Vec::<u32>::new());
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn multi_column_keys_distinguish_rows() {
        let a: Vec<i64> = vec![1, 1, 2, 1];
        let b: Vec<i64> = vec![10, 20, 10, 10];
        let idx = JoinIndex::build(&[&a, &b]);
        assert_eq!(matches(&idx, &[1, 10]), vec![0, 3]);
        assert_eq!(matches(&idx, &[1, 20]), vec![1]);
        assert_eq!(matches(&idx, &[2, 10]), vec![2]);
        assert_eq!(matches(&idx, &[2, 20]), Vec::<u32>::new());
    }

    #[test]
    fn empty_build_side() {
        let keys: Vec<i64> = vec![];
        let idx = JoinIndex::build(&[&keys]);
        assert!(idx.is_empty());
        assert_eq!(matches(&idx, &[1]), Vec::<u32>::new());
    }

    #[test]
    fn dense_sequential_keys_spread_over_buckets() {
        // Sequential keys are the worst case for a raw multiplicative
        // hash's low bits; the avalanche must keep chains short.
        let keys: Vec<i64> = (0..4096).collect();
        let t = JoinIndex::build(&[&keys]);
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
    fn has_match_agrees_with_for_each_match() {
        let keys: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let idx = JoinIndex::build(&[&keys]);
        for k in -5..45 {
            let hits = !matches(&idx, &[k]).is_empty();
            assert_eq!(idx.has_match(&[k]), hits, "key {k}");
        }
    }

    #[test]
    fn single_key_probes_agree_with_per_row_lookups_on_every_range() {
        // The single-key kernel behind `probe_pairs` / `probe_exists`
        // against the per-row chain walk: duplicate build keys, misses
        // (some sharing a bucket with a hit), and the `i64` extremes, over
        // every sub-slice of the probe column (rows are slice-relative).
        let build: Vec<i64> = vec![7, i64::MIN, 3, 7, i64::MAX, 0, 7, -1, 3, i64::MIN, 42, 1 << 40];
        let idx = JoinIndex::build(&[&build]);
        let mut probe: Vec<i64> = vec![7, 8, i64::MIN, 3, i64::MAX, -1, 0, 99, i64::MAX - 1];
        probe.extend((-20..60).map(|i| i * 3));
        probe.extend([i64::MIN + 1, 42, 1 << 40, (1 << 40) + 1, 7]);
        for lo in 0..=probe.len() {
            for hi in lo..=probe.len() {
                let (mut lidx, mut ridx, mut exists) = (Vec::new(), Vec::new(), Vec::new());
                idx.probe_pairs(&[&probe[lo..hi]], &mut lidx, &mut ridx);
                idx.probe_exists(&[&probe[lo..hi]], &mut exists);
                let (mut want_l, mut want_r) = (Vec::new(), Vec::new());
                for (row, &key) in probe.iter().enumerate().take(hi).skip(lo) {
                    idx.for_each_match(&[key], |m| {
                        want_l.push(row - lo);
                        want_r.push(m);
                    });
                }
                let want_exists: Vec<usize> = (lo..hi)
                    .filter(|&row| idx.has_match(&[probe[row]]))
                    .map(|row| row - lo)
                    .collect();
                assert_eq!((&lidx, &ridx), (&want_l, &want_r), "pairs over {lo}..{hi}");
                assert_eq!(exists, want_exists, "exists over {lo}..{hi}");
            }
        }
        // The extremes and the duplicates really do match.
        assert_eq!(matches(&idx, &[i64::MIN]), vec![1, 9]);
        assert_eq!(matches(&idx, &[i64::MAX]), vec![4]);
        assert_eq!(matches(&idx, &[7]), vec![0, 3, 6]);
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
        let idx = JoinIndex::build(&[&keys]);
        // 1024 entries: >= keys (8B) + next (4B) per entry.
        assert!(idx.estimated_bytes() >= 1024 * 12);
    }
}
