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
//! A [`JoinIndex`] is two flat arrays plus a directory, one entry per
//! build row (entry == row):
//!
//! ```text
//! buckets: [u32; d]   head entry per slot (EMPTY = u32::MAX)
//! next:    [u32; n]   chain: entry -> next entry in the same slot
//! keys:    [u64; n]   each entry's key word (none when the directory is direct)
//! ```
//!
//! Bucket chains are threaded through `next` — the classic "array hash
//! join" layout — so rows with equal keys need no per-key list: they
//! simply share a chain. Entries are inserted in **reverse** row order at
//! chain heads, so every chain walks in ascending build-row order; probes
//! therefore yield matches in exactly the order the seed's
//! `Vec<u32>` row lists did, keeping results byte-identical.
//!
//! ## The key word
//!
//! A join key is one `u64` word per row. A single integer column's word is
//! its value. Several columns pack when the bit widths of their build-side
//! ranges (`max − min`) sum to at most 63: each column's offset from the
//! build's minimum, shifted past the columns before it. A probe value
//! outside a column's build range sets bit 63, which no build word has, so
//! it matches nothing. A wider key keeps its `k` values per entry and is
//! probed a row at a time through a key vector.
//!
//! ## The directory
//!
//! The hashed directory has a power of two ≥ 2n slots; a word's slot is
//! the low bits of the multiplicative FxHash round (`h = (rotl(h,5) ^ v) *
//! K`, [`FxHasher`]'s core) over it and one avalanche multiply, which also
//! makes the high bits (the spill core's partition) usable. When the
//! build's words span no more values than that, the directory is direct
//! instead: slot `word − min`, plus one slot past the range that stays
//! empty, onto which a word outside the range is clamped without a branch.
//! A direct chain holds one key, so a walk compares none and the index
//! keeps no words. Neither directory is longer than the hashed one, so no
//! index outgrows a hashed index of the same keys.
//!
//! ## Word-keyed probes
//!
//! Every key that packs is probed in two passes, with no key vector or
//! slice compare per row: every row's chain head, keeping rows whose slot
//! is occupied without a branch (a big side streamed past a small table
//! finds half its slots empty, which mispredicts on every other row when
//! fused with the chain walk), then those chains in row order — the same
//! matches in the same order as a row-at-a-time walk.
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

/// Hash a key of `u64` words.
#[inline]
pub fn hash_key(key: &[u64]) -> u64 {
    let mut h = 0u64;
    for &v in key {
        h = fx_round(h, v);
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

/// The smallest and largest of `values`; `(i64::MAX, i64::MIN)` for none.
pub(crate) fn min_max(values: impl Iterator<Item = i64>) -> (i64, i64) {
    values.fold((i64::MAX, i64::MIN), |(a, b), v| (a.min(v), b.max(v)))
}

/// How a row of join key values becomes its key word (module docs).
enum KeyWord {
    /// One column: the word is the value.
    Value,
    /// Several columns, `(min, max − min, shift)` each: the build's
    /// minimum and range, and the bit offset of the column's field.
    Packed(Vec<(i64, u64, u32)>),
    /// Wider than 63 bits: `k` values a row, compared as a slice.
    Wide,
}

/// A packed column's field of value `v`: its offset from the build's
/// minimum, with bit 63 set when `v` lies outside the build's range — a
/// bit no build word has.
#[inline(always)]
fn field(&(min, range, shift): &(i64, u64, u32), v: i64) -> u64 {
    let d = v.wrapping_sub(min) as u64;
    d << shift | ((d > range) as u64) << 63
}

impl KeyWord {
    /// The word shape of a build side's key columns.
    fn of(key_cols: &[&[i64]]) -> KeyWord {
        if let [_] = key_cols {
            return KeyWord::Value;
        }
        let mut shift = 0;
        let mut cols = Vec::with_capacity(key_cols.len());
        for col in key_cols {
            let (min, max) = min_max(col.iter().copied());
            let range = max.wrapping_sub(min) as u64 * !col.is_empty() as u64;
            cols.push((min, range, shift));
            shift += u64::BITS - range.leading_zeros();
        }
        if shift < u64::BITS {
            KeyWord::Packed(cols)
        } else {
            KeyWord::Wide
        }
    }

    /// Every row's word, or `None` for a wide key.
    fn words(&self, key_cols: &[&[i64]]) -> Option<Vec<u64>> {
        match self {
            KeyWord::Value => Some(key_cols[0].iter().map(|&v| v as u64).collect()),
            KeyWord::Packed(cols) => {
                let mut words = vec![0u64; key_rows(key_cols)];
                for (f, col) in cols.iter().zip(key_cols) {
                    words.iter_mut().zip(*col).for_each(|(w, &v)| *w |= field(f, v));
                }
                Some(words)
            }
            KeyWord::Wide => None,
        }
    }
}

/// How a word finds its chain head in the directory.
#[derive(Clone, Copy)]
enum Slots {
    /// `buckets[min(word − lo, span)]`: one slot per word of the build's
    /// range, then slot `span`, which stays empty.
    Direct { lo: u64, span: u64 },
    /// `buckets[hash & mask]`.
    Hashed { mask: u64 },
}

/// The build-side index of a hash join: a bucket directory plus entry
/// chains over every build row (see the module doc for the layout, the key
/// word and the two directories). Entry `e` is build row `e`.
pub struct JoinIndex {
    buckets: Vec<u32>,
    next: Vec<u32>,
    /// Each entry's word (none under a direct directory, whose chains hold
    /// one key each), or a wide key's `k` values per entry.
    keys: Vec<u64>,
    word: KeyWord,
    slots: Slots,
}

/// The hashed directory's length for `n` entries: a power of two at load
/// factor <= 0.5.
fn hashed_len(n: usize) -> usize {
    (n.max(4) * 2).next_power_of_two()
}

/// Rows of a side's key columns (none without a key column).
fn key_rows(key_cols: &[&[i64]]) -> usize {
    key_cols.first().map_or(0, |c| c.len())
}

impl JoinIndex {
    /// Build the index over the build side's key columns, with no
    /// allocation per row.
    pub fn build(key_cols: &[&[i64]]) -> JoinIndex {
        let n = key_rows(key_cols);
        let nbuckets = hashed_len(n);
        let word = KeyWord::of(key_cols);
        let words = word.words(key_cols);
        let (mut slots, mut len) = (Slots::Hashed { mask: nbuckets as u64 - 1 }, nbuckets);
        if let Some(words) = &words {
            // The words' range in `i64` order, so a single column's
            // negative keys are a range too; packed words are below 2^63.
            let (lo, hi) = min_max(words.iter().map(|&w| w as i64));
            let range = hi.wrapping_sub(lo) as u64;
            if n == 0 || range < nbuckets as u64 {
                let span = (range + 1) * (n > 0) as u64;
                (slots, len) = (Slots::Direct { lo: lo as u64, span }, span as usize + 1);
            }
        }
        let mut index = JoinIndex {
            buckets: vec![EMPTY; len],
            next: vec![EMPTY; n],
            keys: Vec::new(),
            word,
            slots,
        };
        let k = key_cols.len();
        let keys: Vec<u64> = match words {
            Some(words) => words,
            None => (0..n).flat_map(|r| key_cols.iter().map(move |c| c[r] as u64)).collect(),
        };
        // Insert entries in reverse so each chain (head insertion) walks
        // in ascending row order.
        for e in (0..n).rev() {
            let b = match index.word {
                KeyWord::Wide => (hash_key(&keys[e * k..][..k]) as usize) & (len - 1),
                _ => index.slot(keys[e]),
            };
            index.next[e] = index.buckets[b];
            index.buckets[b] = e as u32;
        }
        if !index.is_direct() {
            index.keys = keys;
        }
        index
    }

    /// Is the directory indexed by the key word itself (module docs)?
    pub fn is_direct(&self) -> bool {
        matches!(self.slots, Slots::Direct { .. })
    }

    /// The directory slot of key word `w`.
    #[inline(always)]
    fn slot(&self, w: u64) -> usize {
        match self.slots {
            Slots::Direct { lo, span } => w.wrapping_sub(lo).min(span) as usize,
            Slots::Hashed { mask } => (hash_key(&[w]) & mask) as usize,
        }
    }

    /// Call `f` with every build row whose key equals `key`, in ascending
    /// build-row order.
    pub fn for_each_match<F: FnMut(u32)>(&self, key: &[i64], mut f: F) {
        let cols: Vec<&[i64]> = key.iter().map(std::slice::from_ref).collect();
        self.probe(&cols, |_, e| {
            f(e);
            true
        })
    }

    /// Does any build row carry `key`? First-hit short-circuit.
    pub fn has_match(&self, key: &[i64]) -> bool {
        let mut found = false;
        self.for_each_match(key, |_| found = true);
        found
    }

    /// Call `hit(row, build row)` for the matches of every probe row, in
    /// probe order, moving on to the next row when it returns `false`: the
    /// word-keyed loop (module docs) for a key that packs, a key vector per
    /// row for one that does not.
    fn probe(&self, key_cols: &[&[i64]], mut hit: impl FnMut(usize, u32) -> bool) {
        let (k, mask) = match (&self.word, self.slots) {
            (KeyWord::Value, _) => {
                let col = key_cols[0];
                return self.probe_words(col.len(), |r| col[r] as u64, hit);
            }
            (KeyWord::Packed(_), _) => {
                let words = self.word.words(key_cols).expect("a packed key has words");
                return self.probe_words(words.len(), |r| words[r], hit);
            }
            (KeyWord::Wide, Slots::Hashed { mask }) => (key_cols.len(), mask),
            (KeyWord::Wide, Slots::Direct { .. }) => unreachable!("a wide key is hashed"),
        };
        let mut key = Vec::with_capacity(k);
        for row in 0..key_rows(key_cols) {
            key.clear();
            key.extend(key_cols.iter().map(|c| c[row] as u64));
            let mut e = self.buckets[(hash_key(&key) & mask) as usize];
            while e != EMPTY {
                if self.keys[e as usize * k..][..k] == key[..] && !hit(row, e) {
                    break;
                }
                e = self.next[e as usize];
            }
        }
    }

    /// The word-keyed probe of `n` rows whose words `word` gives.
    fn probe_words(
        &self,
        n: usize,
        word: impl Fn(usize) -> u64,
        mut hit: impl FnMut(usize, u32) -> bool,
    ) {
        // Branch-free: `m` only advances past a row whose chain is not empty.
        let mut heads = vec![(0, EMPTY); n + 1];
        let mut m = 0;
        for row in 0..n {
            heads[m] = (row, self.buckets[self.slot(word(row))]);
            m += (heads[m].1 != EMPTY) as usize;
        }
        // A direct chain holds one key: nothing to compare.
        let direct = self.is_direct();
        for &(row, mut e) in &heads[..m] {
            while e != EMPTY && ((!direct && self.keys[e as usize] != word(row)) || hit(row, e)) {
                e = self.next[e as usize];
            }
        }
    }

    /// Collect every `(probe row, build row)` match pair of the probe key
    /// columns, in probe-row order (build rows ascending within a probe
    /// row) — the order a probe loop yields.
    pub fn probe_pairs(&self, key_cols: &[&[i64]], lidx: &mut Vec<usize>, ridx: &mut Vec<u32>) {
        self.probe(key_cols, |row, e| {
            lidx.push(row);
            ridx.push(e);
            true
        })
    }

    /// Existence-only sibling of [`probe_pairs`](Self::probe_pairs):
    /// append to `lidx` every probe row with at least one match (first-hit
    /// short-circuit per row, no pair lists) — the Semi/Anti probe kernel.
    pub fn probe_exists(&self, key_cols: &[&[i64]], lidx: &mut Vec<usize>) {
        self.probe(key_cols, |row, _| {
            lidx.push(row);
            false
        })
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

    /// The most [`estimated_bytes`](Self::estimated_bytes) an index of
    /// `rows` entries on `keys` columns holds: the hashed directory, a word
    /// per key column (a direct directory is no longer, and holds none).
    pub(crate) fn max_bytes(rows: u64, keys: usize) -> u64 {
        hashed_len(rows as usize) as u64 * 4 + rows * (4 + 8 * keys as u64)
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
        // Sparse keys hash: per entry a word (8B) and a chain link (4B).
        let keys: Vec<i64> = (0..1024).map(|k| k * 1000).collect();
        let idx = JoinIndex::build(&[&keys]);
        assert!(!idx.is_direct());
        assert!(idx.estimated_bytes() >= 1024 * 12);
        // Dense keys index directly: a slot per key plus the sentinel, a
        // chain link per entry, no words.
        let keys: Vec<i64> = (0..1024).collect();
        let idx = JoinIndex::build(&[&keys]);
        assert!(idx.is_direct());
        assert_eq!(idx.estimated_bytes(), 1025 * 4 + 1024 * 4);
    }
}
