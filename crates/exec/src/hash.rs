//! # Allocation-free join index
//!
//! The hashing substrate of the hash join, grouped or not — and, through
//! the group-key codec (`group_key_words`, [`hash_group_rows`]), of the
//! aggregation group table and everything that routes rows by group key.
//! It replaces the seed's
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
//!
//! ## The group-key codec
//!
//! A group key is one `u64` word per key column: an integer-backed value
//! itself, a float's bit pattern, a string of up to 7 bytes inline with its
//! length in the byte above them, a longer string as FxHash rounds over its
//! length and 8-byte words with the top bit (`LONG_STR`) set. Equal short
//! words mean equal strings; equal long ones still need the strings
//! compared. A key's hash is [`hash_key`] over its words. The codec runs a
//! column at a time, and reads a string column's buffer and offsets
//! directly: a short value is one 8-byte load masked to its length, except
//! where fewer than 8 bytes of the buffer remain from its start.

use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use bdcc_storage::Column;

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

/// The top bit of a key word that stands for a string of more than 7
/// bytes; a shorter string's word never has it.
pub(crate) const LONG_STR: u64 = 1 << 63;

/// A string's key word: up to 7 bytes inline — little-endian, the length
/// in the byte above them, so two short strings share a word only if they
/// are equal — and a longer one's FxHash rounds over its length and 8-byte
/// words (the last one ending at its last byte), with [`LONG_STR`] set:
/// equal words there still need the strings compared.
#[inline]
fn str_key_word(b: &[u8]) -> u64 {
    let n = b.len();
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    if n >= 8 {
        let mut h = fx_round(0, n as u64);
        for i in (0..n - 8).step_by(8) {
            h = fx_round(h, word(i));
        }
        return fx_round(h, word(n - 8)) | LONG_STR;
    }
    // Two overlapping loads cover 2..=7 bytes with no per-byte loop.
    let le = |i: usize, w: usize| b[i..i + w].iter().rev().fold(0, |v, &x| (v << 8) | x as u64);
    let bytes = match n {
        4..=7 => le(0, 4) | le(n - 4, 4) << (8 * (n - 4)),
        2..=3 => le(0, 2) | le(n - 2, 2) << (8 * (n - 2)),
        _ => le(0, n),
    };
    bytes | (n as u64) << (8 * n)
}

/// [`str_key_word`] of the value at `bytes[s..e]` of a string column's
/// buffer: a short value with one 8-byte load masked to its length, where
/// the buffer holds 8 bytes from its start (the last values of a column may
/// not).
#[inline]
fn str_key_word_at(bytes: &[u8], s: usize, e: usize) -> u64 {
    let n = e - s;
    match bytes.get(s..s + 8) {
        Some(w) if n < 8 => {
            let v = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            v & ((1 << (8 * n)) - 1) | (n as u64) << (8 * n)
        }
        _ => str_key_word(&bytes[s..e]),
    }
}

/// The group-key codec, column at a time: one `u64` word per key column
/// and row of `rows`, row-major into `words` (`k` a row for `k` columns),
/// and per row the FxHash rounds over its words and the avalanche into
/// `hashes` — [`hash_key`] over the words, so an integer key hashes as it
/// does in a join. An integer-backed key's word is its value, a float's its
/// bit pattern (groups compare floats bitwise), a string's its
/// [`str_key_word`], read from the column's buffer and offsets with no
/// `&str` made per value. Both vectors are cleared first.
pub(crate) fn group_key_words(
    group_cols: &[&Column],
    rows: Range<usize>,
    words: &mut Vec<u64>,
    hashes: &mut Vec<u64>,
) {
    let k = group_cols.len();
    words.clear();
    words.resize(rows.len() * k, 0);
    hashes.clear();
    hashes.resize(rows.len(), 0);
    if rows.is_empty() {
        return;
    }
    for (c, col) in group_cols.iter().enumerate() {
        let slots = words[c..].chunks_mut(k).map(|row| &mut row[0]).zip(hashes.iter_mut());
        let put = |(w, h): (&mut u64, &mut u64), v: u64| {
            *w = v;
            *h = fx_round(*h, v);
        };
        match col {
            Column::I64 { values, .. } => {
                slots.zip(&values[rows.clone()]).for_each(|(s, &v)| put(s, v as u64))
            }
            Column::F64(values) => {
                slots.zip(&values[rows.clone()]).for_each(|(s, v)| put(s, v.to_bits()))
            }
            Column::Str(values) => {
                let (bytes, offsets) = values.parts();
                let bounds = offsets[rows.start..=rows.end].windows(2);
                slots.zip(bounds).for_each(|(s, w)| {
                    put(s, str_key_word_at(bytes.as_bytes(), w[0] as usize, w[1] as usize))
                })
            }
        }
    }
    hashes.iter_mut().for_each(|h| *h = avalanche(*h));
}

/// Hash rows `rows` of a set of group-key columns, one hash per row into
/// `out` (cleared first): `group_key_words`' hashes. The aggregation
/// group table ([`crate::ops::agg`]) files every group under this hash,
/// and the spill core's routing and recursion (`crate::spill`) call this
/// function, so a group's partition, its sub-partition on recursion and
/// its table slot all derive from one value.
pub fn hash_group_rows(group_cols: &[&Column], rows: Range<usize>, out: &mut Vec<u64>) {
    group_key_words(group_cols, rows, &mut Vec::new(), out);
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

    /// The group-key codec one row at a time, from its definition: one
    /// word per column in key order — an integer's value, a float's bits, a
    /// short string's bytes with its length in the byte above them, a long
    /// string's FxHash rounds over its length and 8-byte words (the last
    /// ending at its last byte) with the top bit set — through the
    /// [`Hasher`] rounds.
    fn hash_group_row(group_cols: &[&bdcc_storage::Column], row: usize) -> u64 {
        use bdcc_storage::Column;
        let mut h = FxHasher::default();
        for c in group_cols {
            h.write_u64(match c {
                Column::I64 { values, .. } => values[row] as u64,
                Column::F64(values) => values[row].to_bits(),
                Column::Str(values) => {
                    let b = values[row].as_bytes();
                    if b.len() < 8 {
                        let mut word = [0u8; 8];
                        word[..b.len()].copy_from_slice(b);
                        word[b.len()] = b.len() as u8;
                        u64::from_le_bytes(word)
                    } else {
                        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
                        let mut fx = FxHasher::default();
                        fx.write_usize(b.len());
                        let mut i = 0;
                        while i + 8 < b.len() {
                            fx.write_u64(word(i));
                            i += 8;
                        }
                        fx.write_u64(word(b.len() - 8));
                        fx.hash | 1 << 63
                    }
                }
            });
        }
        h.finish()
    }

    #[test]
    fn short_string_words_are_distinct_and_long_ones_are_marked() {
        let strs = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "ab",
            "abc",
            "abcd",
            "abcde",
            "abcdef",
            "abcdefg",
            "ég",
            "日本",
            "abcdefgh",
            "abcdefghijklmnopq",
            "ééééé",
        ];
        let words: Vec<u64> = strs.iter().map(|s| str_key_word(s.as_bytes())).collect();
        for (i, (s, w)) in strs.iter().zip(&words).enumerate() {
            assert_eq!(w & LONG_STR != 0, s.len() > 7, "{s:?}");
            assert!(words[..i].iter().all(|v| v != w), "{s:?} shares a word");
            let col = bdcc_storage::Column::from_strings(vec![s.to_string()]);
            let mut fx = FxHasher::default();
            fx.write_u64(*w);
            assert_eq!(fx.finish(), hash_group_row(&[&col], 0), "{s:?}");
        }
        // Constructed so that the second word cancels the first one's
        // difference in the FxHash state: a marker-word collision, the pair
        // `tests/agg_properties.rs` groups by.
        assert_eq!(str_key_word(b"special requests"), str_key_word(b"specabacfeque$a'"));
    }

    #[test]
    fn fx_write_folds_zero_padded_little_endian_words() {
        // `write` (how std collections keyed by byte strings hash through
        // `FxBuildHasher`) folds whole 8-byte little-endian words, then the
        // remainder zero-padded to a word.
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
        // group columns — strings either side of the 7-byte inline limit
        // included — the batch hash equals the row-wise codec on every
        // row, and hashing a sub-range equals that slice of the whole.
        use bdcc_storage::Column;
        let a = Column::from_i64(vec![5, -3, i64::MAX, 0]);
        let s = Column::from_strings(vec![
            "abcdefg".into(),
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
            hash_group_rows(&cols, 2..2, &mut out);
            assert!(out.is_empty());
        }
        // ("ab", "c") and ("a", "bc") must not collide.
        let l = Column::from_strings(vec!["ab".into(), "a".into()]);
        let r = Column::from_strings(vec!["c".into(), "bc".into()]);
        hash_group_rows(&[&l, &r], 0..2, &mut out);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn string_key_words_from_the_buffer_match_the_row_codec() {
        // Every prefix of these values is a column: its last value ends the
        // buffer, where an 8-byte load from a short value's start would run
        // past it. Empty values, 7 and 8 bytes, multi-byte UTF-8 (2- and
        // 3-byte characters up to 8 bytes and past), every sub-range.
        let values = [
            "",
            "a",
            "abcdefg",
            "abcdefgh",
            "é",
            "日本",
            "ééé",
            "éééé",
            "x",
            "abcdefghijklmnop",
            "",
            "日",
            "ab",
        ];
        let (mut words, mut hashes) = (Vec::new(), Vec::new());
        for end in 1..=values.len() {
            let col = Column::from_strings(values[..end].iter().map(|v| v.to_string()).collect());
            let ints = Column::from_i64((0..end as i64).collect());
            for lo in 0..end {
                for hi in lo..=end {
                    group_key_words(&[&col], lo..hi, &mut words, &mut hashes);
                    let want: Vec<u64> =
                        values[lo..hi].iter().map(|v| str_key_word(v.as_bytes())).collect();
                    assert_eq!(words, want, "words of {lo}..{hi} of {end}");
                    let want: Vec<u64> = (lo..hi).map(|r| hash_group_row(&[&col], r)).collect();
                    assert_eq!(hashes, want, "hashes of {lo}..{hi} of {end}");
                    // Beside an integer key, row-major.
                    group_key_words(&[&ints, &col], lo..hi, &mut words, &mut hashes);
                    let want: Vec<u64> = (lo..hi)
                        .flat_map(|r| [r as u64, str_key_word(values[r].as_bytes())])
                        .collect();
                    assert_eq!(words, want, "two-column words of {lo}..{hi} of {end}");
                }
            }
        }
    }

    #[test]
    fn estimated_bytes_scales_with_rows() {
        let keys: Vec<i64> = (0..1024).collect();
        let idx = JoinIndex::build(&[&keys]);
        // 1024 entries: >= keys (8B) + next (4B) per entry.
        assert!(idx.estimated_bytes() >= 1024 * 12);
    }
}
