//! Property-based tests of the BDCC invariants (Definitions 1–4 and
//! Algorithm 1), using proptest over randomized dimensions, masks and
//! tables.

use std::sync::Arc;

use proptest::prelude::*;

use bdcc::catalog::{Catalog, ColumnDef, Database, TableDef};
use bdcc::core::histogram::log_bucket;
use bdcc::core::{
    assign_masks, cluster_table, create_dimension, gather_bits, scatter_bits, scatter_table,
    truncate_mask, BinningConfig, BinningStrategy, CountTable, DimId, Dimension,
    GranularityHistograms, InterleaveStrategy, KeyValue, SelfTuneConfig, UseBits, BDCC_COLUMN,
};
use bdcc::storage::{sort_permutation, Column, DataType, Datum, TableBuilder};

fn kv(v: i64) -> KeyValue {
    KeyValue::single(Datum::Int(v))
}

/// The stable comparison sort the bulk load's counting sort replaced.
fn comparison_sort(keys: &[u64]) -> (Vec<usize>, Vec<u64>) {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| keys[i]);
    let sorted = perm.iter().map(|&i| keys[i]).collect();
    (perm, sorted)
}

/// The level-by-level histogram cascade the one-pass build replaced:
/// runs at full granularity, merged after each 1-bit chop. (A chop of all
/// 64 bits leaves key 0; the original shifted by 64 there.)
fn cascade_histograms(keys: &[u64], total_bits: u32) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &k in keys {
        match runs.last_mut() {
            Some((key, n)) if *key == k => *n += 1,
            _ => runs.push((k, 1)),
        }
    }
    let mut hist = vec![Vec::new(); total_bits as usize + 1];
    let mut group_counts = vec![0u64; total_bits as usize + 1];
    let mut g = total_bits;
    loop {
        group_counts[g as usize] = runs.len() as u64;
        let mut h: Vec<u64> = Vec::new();
        for &(_, n) in &runs {
            let bucket = log_bucket(n);
            if h.len() <= bucket {
                h.resize(bucket + 1, 0);
            }
            h[bucket] += 1;
        }
        hist[g as usize] = h;
        if g == 0 {
            break;
        }
        g -= 1;
        let shift = total_bits - g;
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for &(key, n) in &runs {
            let coarse = key.checked_shr(shift).map_or(0, |k| k << shift);
            match merged.last_mut() {
                Some((k, m)) if *k == coarse => *m += n,
                _ => merged.push((coarse, n)),
            }
        }
        runs = merged;
    }
    (hist, group_counts)
}

/// `n` pseudo-random keys of `width` bits in one of four shapes: random,
/// heavy duplicates (five distinct values), ascending, descending.
fn shaped_keys(n: usize, width: u32, shape: u32, seed: u64) -> Vec<u64> {
    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    let mut x = seed | 1;
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & mask
        })
        .collect();
    match shape {
        1 => keys.iter_mut().for_each(|k| *k = ((*k % 5) << width.saturating_sub(3)) & mask),
        2 => keys.sort_unstable(),
        3 => keys.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    keys
}

/// The counting sort is the stable comparison sort: every key width, every
/// shape, and the 0- and 1-row tables.
#[test]
fn counting_sort_matches_the_stable_comparison_sort() {
    for width in 0..=64 {
        for shape in 0..4 {
            for n in [0, 1, 2, 1500] {
                let keys = shaped_keys(n, width, shape, 0x5eed ^ width as u64);
                assert_eq!(
                    sort_permutation(&keys),
                    comparison_sort(&keys),
                    "width {width}, shape {shape}, {n} rows"
                );
            }
        }
    }
}

/// The one-pass histograms are the cascade's, bucket for bucket, at every
/// key width and shape.
#[test]
fn one_pass_histograms_match_the_cascade() {
    for width in 0..=64 {
        for shape in 0..4 {
            for n in [0, 1, 2, 700] {
                let mut keys = shaped_keys(n, width, shape, 0xb0c5 ^ width as u64);
                keys.sort_unstable();
                let h = GranularityHistograms::from_sorted_keys(&keys, width);
                let (hist, group_counts) = cascade_histograms(&keys, width);
                assert_eq!(h.hist, hist, "width {width}, shape {shape}, {n} rows");
                assert_eq!(h.group_counts, group_counts, "width {width}, shape {shape}, {n} rows");
            }
        }
    }
}

fn make_dimension(values: &[i64], max_bits: u32, strategy: BinningStrategy) -> Dimension {
    create_dimension(
        DimId(0),
        "D",
        bdcc::catalog::TableId(0),
        vec!["k".into()],
        values.iter().map(|&v| (kv(v), 1)).collect(),
        &BinningConfig { max_bits, strategy },
    )
    .expect("non-empty input")
}

proptest! {
    /// Definition 1: the binning is order-respecting and surjective —
    /// every input value maps to a bin, and larger values never map to
    /// smaller bins.
    #[test]
    fn dimension_mapping_is_monotone_and_total(
        mut values in prop::collection::vec(-1000i64..1000, 1..200),
        max_bits in 1u32..8,
        equi_depth in any::<bool>(),
    ) {
        let strategy = if equi_depth {
            BinningStrategy::EquiDepth
        } else {
            BinningStrategy::EquiWidthByValue
        };
        let dim = make_dimension(&values, max_bits, strategy);
        prop_assert!(dim.bin_count() <= 1 << max_bits);
        prop_assert!(dim.bits() <= max_bits);
        values.sort_unstable();
        let mut prev = 0u64;
        for v in values {
            let b = dim.bin_of(&kv(v));
            prop_assert!(b >= prev, "bin numbering must be monotone");
            prop_assert!((b as usize) < dim.bin_count());
            prev = b;
        }
    }

    /// Definition 1(vii): reducing granularity merges bins but preserves
    /// the mapping up to the chopped bits.
    #[test]
    fn granularity_reduction_is_prefix_consistent(
        values in prop::collection::vec(0i64..500, 2..150),
        g in 0u32..4,
    ) {
        let dim = make_dimension(&values, 6, BinningStrategy::EquiDepth);
        let g = g.min(dim.bits());
        let reduced = dim.reduce_granularity(g).expect("g <= bits");
        let shift = dim.bits() - g;
        for &v in &values {
            let fine = dim.bin_of(&kv(v));
            let coarse = reduced.bin_of(&kv(v));
            prop_assert_eq!(coarse, fine >> shift);
        }
    }

    /// Scatter/gather over any mask round-trips the major bits of the bin
    /// number (Definition 4 and the scatter-scan inverse).
    #[test]
    fn scatter_gather_roundtrip(bin in 0u64..8192, mask in any::<u64>(), bin_bits in 1u32..14) {
        let bin = bin & ((1 << bin_bits) - 1);
        let v = scatter_bits(bin, bin_bits, mask);
        // Non-mask positions stay clear.
        prop_assert_eq!(v & !mask, 0);
        let taken = mask.count_ones().min(bin_bits);
        let expect = if taken == 0 { 0 } else { bin >> (bin_bits - taken) };
        // Gather returns exactly the major bits that were scattered (in
        // the high positions of the gathered value when the mask is wider
        // than the bin).
        let gathered = gather_bits(v, mask);
        let extra = mask.count_ones() - taken;
        prop_assert_eq!(gathered >> extra, expect);
    }

    /// The bulk load's per-use lookup table holds `scatter_bits` of every
    /// bin.
    #[test]
    fn scatter_table_matches_scatter_bits_for_every_bin(mask in any::<u64>(), bin_bits in 0u32..14) {
        let table = scatter_table(bin_bits, mask);
        prop_assert_eq!(table.len(), 1 << bin_bits);
        for (bin, &scattered) in table.iter().enumerate() {
            prop_assert_eq!(scattered, scatter_bits(bin as u64, bin_bits, mask));
        }
    }

    /// Algorithm 1(i): any mix of uses yields disjoint masks covering all
    /// bits, each with exactly its dimension's granularity, under all
    /// three strategies.
    #[test]
    fn mask_assignment_invariants(
        dims in prop::collection::vec((1u32..8, prop::option::of(0usize..4)), 1..6),
        strat in 0usize..3,
    ) {
        let total: u32 = dims.iter().map(|(b, _)| b).sum();
        prop_assume!(total <= 64);
        let uses: Vec<UseBits> = dims
            .iter()
            .map(|&(dim_bits, fk_group)| UseBits { dim_bits, fk_group })
            .collect();
        let strategy = [
            InterleaveStrategy::RoundRobinPerUse,
            InterleaveStrategy::RoundRobinPerFk,
            InterleaveStrategy::MajorMinor,
        ][strat];
        let (masks, bits) = assign_masks(&uses, strategy);
        prop_assert_eq!(bits, total);
        let mut union = 0u64;
        for (i, &m) in masks.iter().enumerate() {
            prop_assert_eq!(union & m, 0);
            union |= m;
            prop_assert_eq!(m.count_ones(), uses[i].dim_bits);
        }
        prop_assert_eq!(union, if total == 64 { u64::MAX } else { (1 << total) - 1 });
        // Truncation keeps masks disjoint at any granularity.
        for g in 0..=total {
            let mut u = 0u64;
            for &m in &masks {
                let t = truncate_mask(m, total, g);
                prop_assert_eq!(u & t, 0);
                u |= t;
            }
        }
    }

    /// The count table partitions the table: counts sum to the
    /// cardinality, groups are key-ordered and non-overlapping.
    #[test]
    fn count_table_partitions_rows(
        mut keys in prop::collection::vec(0u64..256, 0..300),
        granularity in 0u32..9,
    ) {
        keys.sort_unstable();
        let ct = CountTable::from_sorted_keys(&keys, 8, granularity.min(8)).expect("valid");
        prop_assert_eq!(ct.total_rows(), keys.len());
        let mut covered = 0;
        for g in ct.iter() {
            prop_assert_eq!(g.start, covered, "groups must tile the table");
            covered += g.count;
        }
        for w in ct.groups.windows(2) {
            prop_assert!(w[0].key < w[1].key);
        }
    }

    /// The histogram cascade conserves rows at every granularity.
    #[test]
    fn histogram_cascade_conserves_rows(
        mut keys in prop::collection::vec(0u64..1024, 1..400),
    ) {
        keys.sort_unstable();
        let h = GranularityHistograms::from_sorted_keys(&keys, 10);
        for g in 0..=10u32 {
            // Sum over buckets of (count × representative size) can't be
            // checked exactly from a log histogram, but group counts must
            // be monotone non-increasing as granularity coarsens…
            if g > 0 {
                prop_assert!(h.groups_at(g) >= h.groups_at(g - 1));
            }
        }
        prop_assert_eq!(h.groups_at(0), 1);
    }

    /// Algorithm 1 end-to-end on a random two-dimension table: the stored
    /// table is sorted on `_bdcc_`, every logical row is visible through
    /// the count table exactly once, and every row's clustering key
    /// matches a manual recomputation.
    #[test]
    fn cluster_table_preserves_rows_and_sorts(
        rows in prop::collection::vec((0i64..16, 0i64..16), 1..300),
    ) {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(TableDef {
                name: "f".into(),
                columns: vec![
                    ColumnDef { name: "a".into(), data_type: DataType::Int },
                    ColumnDef { name: "b".into(), data_type: DataType::Int },
                ],
                primary_key: vec![],
            })
            .expect("table");
        let mut db = Database::new(cat);
        let a: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let b: Vec<i64> = rows.iter().map(|r| r.1).collect();
        db.attach(
            t,
            Arc::new(
                TableBuilder::new("f")
                    .column("a", Column::from_i64(a.clone()))
                    .column("b", Column::from_i64(b.clone()))
                    .build()
                    .expect("storage"),
            ),
        );
        let mk = |vals: &[i64], key: &str| {
            create_dimension(
                DimId(0),
                "D",
                t,
                vec![key.into()],
                vals.iter().map(|&v| (kv(v), 1)).collect(),
                &BinningConfig::default(),
            )
            .expect("dimension")
        };
        let mut d0 = mk(&a, "a");
        let mut d1 = mk(&b, "b");
        d0.id = DimId(0);
        d1.id = DimId(1);
        let dims = vec![d0, d1];
        let cfg = SelfTuneConfig { ar_bytes: 1, ..Default::default() };
        let bt = cluster_table(
            &db,
            t,
            &[(DimId(0), vec![]), (DimId(1), vec![])],
            &dims,
            &cfg,
        )
        .expect("cluster");
        // Every logical row exactly once through the count table.
        prop_assert_eq!(bt.count.total_rows(), rows.len());
        // The _bdcc_ value of each stored row matches recomputation.
        let stored = &bt.table;
        let keys = stored.column_by_name(BDCC_COLUMN).expect("bdcc col").as_i64().expect("ints").to_vec();
        let sa = stored.column_by_name("a").expect("a").as_i64().expect("ints").to_vec();
        let sb = stored.column_by_name("b").expect("b").as_i64().expect("ints").to_vec();
        for g in bt.count.iter() {
            for r in g.start..g.start + g.count {
                let expect = scatter_bits(dims[0].bin_of(&kv(sa[r])), dims[0].bits(), bt.uses[0].mask)
                    | scatter_bits(dims[1].bin_of(&kv(sb[r])), dims[1].bits(), bt.uses[1].mask);
                prop_assert_eq!(keys[r] as u64, expect);
                // Group membership: the truncated key matches.
                prop_assert_eq!(expect >> (bt.total_bits - bt.granularity), g.key);
            }
        }
        // Multiset of (a, b) pairs is preserved through the count table.
        let mut original = rows.clone();
        let mut seen: Vec<(i64, i64)> = bt
            .count
            .iter()
            .flat_map(|g| (g.start..g.start + g.count).map(|r| (sa[r], sb[r])))
            .collect();
        original.sort_unstable();
        seen.sort_unstable();
        prop_assert_eq!(original, seen);
    }

    /// Prefix predicates on composite keys always select a contiguous,
    /// correct bin range (the paper's region→nation trick).
    #[test]
    fn composite_prefix_ranges_are_sound(
        pairs in prop::collection::vec((0i64..6, 0i64..50), 1..120),
        probe in 0i64..6,
    ) {
        let values: Vec<(KeyValue, u64)> = pairs
            .iter()
            .map(|&(r, n)| (KeyValue(vec![Datum::Int(r), Datum::Int(n)]), 1))
            .collect();
        let dim = create_dimension(
            DimId(0),
            "D",
            bdcc::catalog::TableId(0),
            vec!["region".into(), "nation".into()],
            values,
            &BinningConfig { max_bits: 5, strategy: BinningStrategy::EquiDepth },
        )
        .expect("dimension");
        let prefix = KeyValue(vec![Datum::Int(probe)]);
        let range = dim.bin_range(Some(&prefix), Some(&prefix));
        // Soundness: every pair with region == probe falls inside.
        for &(r, n) in &pairs {
            if r == probe {
                let b = dim.bin_of(&KeyValue(vec![Datum::Int(r), Datum::Int(n)]));
                let (lo, hi) = range.expect("matching value ⇒ non-empty range");
                prop_assert!(b >= lo && b <= hi, "bin {} outside [{}, {}]", b, lo, hi);
            }
        }
    }
}
