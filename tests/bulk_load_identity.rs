//! The bulk load's stored bytes, pinned: at SF 0.01 and the scoreboard's
//! seed, every stored table of the Plain, PK and BDCC schemes hashes to the
//! digest the comparison-sort, sorted-dictionary bulk load produced.
//!
//! Each digest is a fixed FNV-1a over one table's schema, column values,
//! MinMax blocks and every block's codec with its dictionary and codes;
//! for a BDCC table it also covers the count-table groups, the group-size
//! histograms, the granularity and the dimension-use masks. Generation,
//! sorting, binning, histograms and encodings may change how they are
//! computed — never what they store.

use bdcc::core::BdccTable;
use bdcc::prelude::*;
use bdcc::storage::{BlockEncoding, PackedInts};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Int(v) => (self.str("int"), self.u64(*v as u64)),
            Datum::Date(v) => (self.str("date"), self.u64(*v as u64)),
            Datum::Float(v) => (self.str("float"), self.u64(v.to_bits())),
            Datum::Str(s) => (self.str("str"), self.str(s)),
        };
    }

    fn column(&mut self, c: &Column) {
        self.str(c.data_type().name());
        self.u64(c.len() as u64);
        match c {
            Column::I64 { values, .. } => values.iter().for_each(|&v| self.u64(v as u64)),
            Column::F64(values) => values.iter().for_each(|v| self.u64(v.to_bits())),
            Column::Str(values) => values.iter().for_each(|s| self.str(s)),
        }
    }

    fn packed(&mut self, p: &PackedInts) {
        self.u64(p.width() as u64);
        self.u64(p.len() as u64);
        (0..p.len()).for_each(|i| self.u64(p.get(i)));
    }

    fn block(&mut self, b: &BlockEncoding) {
        self.str(b.tag());
        match b {
            BlockEncoding::Raw => {}
            BlockEncoding::ForI64 { min, packed } => {
                self.u64(*min as u64);
                self.packed(packed);
            }
            BlockEncoding::RleI64 { values, ends } => {
                values.iter().for_each(|&v| self.u64(v as u64));
                ends.iter().for_each(|&e| self.u64(e as u64));
            }
            BlockEncoding::DictStr { dict, codes } => {
                self.u64(dict.len() as u64);
                dict.iter().for_each(|s| self.str(s));
                self.packed(codes);
            }
            BlockEncoding::ForF64 { min, scale, packed } => {
                self.u64(*min as u64);
                self.u64(scale.to_bits());
                self.packed(packed);
            }
        }
    }

    fn table(&mut self, t: &StoredTable) {
        self.str(t.name());
        self.u64(t.rows() as u64);
        for (i, meta) in t.schema().columns.iter().enumerate() {
            self.str(&meta.name);
            self.u64(meta.avg_width.to_bits());
            self.column(t.column(i).expect("column in range"));
            let stats = t.block_stats(i).expect("stats in range");
            self.u64(stats.block_rows as u64);
            for b in &stats.blocks {
                self.datum(&b.min);
                self.datum(&b.max);
            }
            match t.encoding(i) {
                None => self.str("unencoded"),
                Some(enc) => {
                    self.u64(enc.block_rows as u64);
                    self.str(enc.logical.name());
                    self.u64(enc.encoded_bytes);
                    self.u64(enc.raw_bytes);
                    enc.blocks.iter().for_each(|b| self.block(b));
                }
            }
        }
    }

    fn clustering(&mut self, bt: &BdccTable) {
        self.u64(bt.total_bits as u64);
        self.u64(bt.granularity as u64);
        self.u64(bt.logical_rows as u64);
        for u in &bt.uses {
            self.u64(u.dim.0 as u64);
            u.path.iter().for_each(|fk| self.u64(fk.0 as u64));
            self.u64(u.mask);
        }
        for g in &bt.count.groups {
            self.u64(g.key);
            self.u64(g.start as u64);
            self.u64(g.count as u64);
            self.u64(g.relocated as u64);
        }
        for (h, &groups) in bt.histograms.hist.iter().zip(&bt.histograms.group_counts) {
            self.u64(groups);
            self.u64(h.len() as u64);
            h.iter().for_each(|&n| self.u64(n));
        }
    }
}

/// `"<scheme> <table> <digest>"` for every stored table of `sdb`, by name.
fn digests(sdb: &SchemeDb) -> Vec<String> {
    let mut out = Vec::new();
    for id in sdb.db.attached() {
        let table = sdb.db.stored(id).expect("attached");
        let mut h = Fnv::new();
        h.table(table);
        if let Some(bt) = sdb.bdcc.as_ref().and_then(|s| s.table(id)) {
            h.clustering(bt);
        }
        out.push(format!("{} {} {:016x}", sdb.scheme.name(), table.name(), h.0));
    }
    out.sort();
    out
}

#[test]
fn every_scheme_stores_the_pinned_bytes() {
    let db = bdcc::tpch::generate(&GenConfig { scale_factor: 0.01, seed: 19_920_101 });
    let schemes = [
        plain_scheme(&db),
        pk_scheme(&db).expect("pk scheme"),
        bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"),
    ];
    let got: Vec<String> = schemes.iter().flat_map(digests).collect();
    let expected: Vec<String> = PINNED.lines().map(str::trim).map(String::from).collect();
    assert_eq!(got, expected, "\nstored bytes changed; digests now:\n{}", got.join("\n"));
}

/// The digests of the comparison-sort, sorted-dictionary bulk load.
const PINNED: &str = "\
    Plain customer ea99d021eb59e9c8
    Plain lineitem bc27b4fd95beca65
    Plain nation a9a69099c57ec294
    Plain orders 60794107c3a1b061
    Plain part 40e9e8bd733b0d38
    Plain partsupp 7e9070a2a5104662
    Plain region 0e165ecf9ddba2fd
    Plain supplier d4b235d62a15225d
    PK customer ea99d021eb59e9c8
    PK lineitem bc27b4fd95beca65
    PK nation a9a69099c57ec294
    PK orders 60794107c3a1b061
    PK part 40e9e8bd733b0d38
    PK partsupp 18a200aba482d1d4
    PK region 0e165ecf9ddba2fd
    PK supplier d4b235d62a15225d
    BDCC customer_bdcc 69e34d5f188708a1
    BDCC lineitem_bdcc d5b1972e8d5b0355
    BDCC nation_bdcc 66f7c10a9597adda
    BDCC orders_bdcc 4dfa07bc314638e2
    BDCC part_bdcc 56ea381bde9f8cd9
    BDCC partsupp_bdcc da63a671f99fd0ff
    BDCC region 0e165ecf9ddba2fd
    BDCC supplier_bdcc 5593be9fca71dff3";
