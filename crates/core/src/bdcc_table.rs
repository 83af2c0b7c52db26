//! BDCC tables (Definition 4) and the self-tuned bulk-load (Algorithm 1).
//!
//! `cluster_table` performs the paper's Algorithm 1:
//!
//! 1. assign round-robin masks at *maximal* granularity
//!    `B = Σ bits(D(Ui))`,
//! 2. compute the `_bdcc_` value of every tuple (scatter the major bits of
//!    each bin number to its mask positions) and sort the table on it,
//!    piggy-backing the log2 group-size histograms,
//! 3. find the densest (widest) column and choose the largest granularity
//!    `b ≤ B` whose groups mostly stay above the efficient random access
//!    size `AR`,
//! 4. build the count table at granularity `b`
//!
//! plus, optionally, the small-group consolidation described at the end of
//! Section III.
//!
//! Each step is one linear pass, as the paper presents the load. `_bdcc_`
//! is one lookup and OR per row and use in a per-use [`scatter_table`] (was
//! a 64-step bit walk); the sort is one stable counting sort that also
//! returns the sorted keys ([`sort_permutation`]); the histograms of every
//! granularity come from one pass over them ([`GranularityHistograms`]);
//! each column is gathered, then built, as one task on the shared worker
//! pool, nested in schema design's per-table task. LINEITEM at SF 0.05 on
//! 2 shared cores, before → after: keys 59–128 → 5–8 ms, sort 13–26 →
//! 11–17 ms, gathers 63–89 → 43–54 ms, histograms + count table +
//! consolidation 28–35 → 11–12 ms, table build 115–159 → 31–39 ms.

use std::sync::Arc;

use bdcc_catalog::{Database, FkId, TableId};
use bdcc_storage::{apply_permutation, sort_permutation, Column, Datum, StoredTable, PAGE_SIZE};

use crate::count_table::CountTable;
use crate::dimension::{BinEntry, DimId, Dimension, KeyValue};
use crate::error::{BdccError, Result};
use crate::histogram::GranularityHistograms;
use crate::mask::{
    assign_masks, gather_bits, ones, scatter_table, truncate_mask, InterleaveStrategy, UseBits,
};
use crate::resolve::FkSteps;

/// Name of the synthetic clustering-key column appended to BDCC tables.
pub const BDCC_COLUMN: &str = "_bdcc_";

/// A dimension use `U = ⟨D, P, M⟩` (Definition 3) bound to a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionUse {
    pub dim: DimId,
    /// Dimension path: foreign keys from the table to the dimension host.
    pub path: Vec<FkId>,
    /// Bit positions in the full-granularity `_bdcc_` key.
    pub mask: u64,
}

/// Self-tuning parameters for Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct SelfTuneConfig {
    /// Efficient random access size `AR` in bytes (32 KB for flash).
    pub ar_bytes: usize,
    /// Minimum fraction of groups whose densest-column byte size must stay
    /// ≥ `AR` ("the vast majority"); granularity is the largest `b`
    /// achieving it.
    pub min_fraction_above_ar: f64,
    /// Bit-assignment strategy (round-robin per use by default).
    pub interleave: InterleaveStrategy,
    /// Hard cap on the count-table granularity (the paper's schema-size
    /// discussion caps realistic setups around 24 bits).
    pub max_granularity: u32,
    /// Run the small-group consolidation after load.
    pub consolidate_small_groups: bool,
}

impl Default for SelfTuneConfig {
    fn default() -> Self {
        SelfTuneConfig {
            ar_bytes: PAGE_SIZE,
            min_fraction_above_ar: 0.5,
            interleave: InterleaveStrategy::RoundRobinPerUse,
            max_granularity: 24,
            consolidate_small_groups: true,
        }
    }
}

/// A clustered table: re-organized storage plus clustering metadata.
#[derive(Debug, Clone)]
pub struct BdccTable {
    pub source: TableId,
    /// Dimension uses with their assigned masks (full granularity).
    pub uses: Vec<DimensionUse>,
    /// Full clustering-key width `B`.
    pub total_bits: u32,
    /// Count-table granularity `b` chosen by Algorithm 1.
    pub granularity: u32,
    /// The re-organized table, sorted on [`BDCC_COLUMN`] (appended last).
    pub table: Arc<StoredTable>,
    /// `T_COUNT` at granularity `b`.
    pub count: CountTable,
    /// Group-size histograms for every granularity (piggy-backed analysis).
    pub histograms: GranularityHistograms,
    /// Rows of the *original* table (the consolidation step may append
    /// relocated copies; scans through the count table see each logical row
    /// exactly once).
    pub logical_rows: usize,
}

impl BdccTable {
    /// Bits of use `use_idx` present in the truncated (granularity-`b`)
    /// group key.
    pub fn use_bits_at_granularity(&self, use_idx: usize) -> u32 {
        ones(truncate_mask(self.uses[use_idx].mask, self.total_bits, self.granularity))
    }

    /// The use's mask re-based to the truncated group key.
    pub fn use_mask_at_granularity(&self, use_idx: usize) -> u64 {
        truncate_mask(self.uses[use_idx].mask, self.total_bits, self.granularity)
    }

    /// Extract, from a truncated group key, the major bin-number bits of
    /// use `use_idx` (a `use_bits_at_granularity` wide value).
    pub fn group_bin_prefix(&self, use_idx: usize, group_key: u64) -> u64 {
        gather_bits(group_key, self.use_mask_at_granularity(use_idx))
    }
}

/// What Algorithm 1 looks up for every dimension use, resolved once per
/// design instead of once per use: each foreign-key step any path crosses,
/// and the bin number of every host row of each dimension (indexed by
/// [`DimId`]). TPC-H's twelve uses share three hosts and eight steps.
pub(crate) struct UseLookups {
    steps: FkSteps,
    host_bins: Vec<Vec<u64>>,
}

impl UseLookups {
    /// Bin every host row of `dims` over `db`, beside the resolved `steps`.
    pub(crate) fn new(db: &Database, dims: &[Dimension], steps: FkSteps) -> Result<UseLookups> {
        let host_bins = dims.iter().map(|d| host_bin_numbers(db, d)).collect::<Result<_>>()?;
        Ok(UseLookups { steps, host_bins })
    }
}

/// BDCC-cluster `table` on the given `(dimension, path)` uses
/// (Algorithm 1). `dims` must contain every referenced dimension.
pub fn cluster_table(
    db: &Database,
    table: TableId,
    use_specs: &[(DimId, Vec<FkId>)],
    dims: &[Dimension],
    cfg: &SelfTuneConfig,
) -> Result<BdccTable> {
    let steps = FkSteps::resolve(db, use_specs.iter().flat_map(|(_, p)| p.iter().copied()))?;
    let lookups = UseLookups::new(db, dims, steps)?;
    cluster_table_with(db, table, use_specs, dims, &lookups, cfg)
}

/// [`cluster_table`] over `lookups` shared by every table of a design.
pub(crate) fn cluster_table_with(
    db: &Database,
    table: TableId,
    use_specs: &[(DimId, Vec<FkId>)],
    dims: &[Dimension],
    lookups: &UseLookups,
    cfg: &SelfTuneConfig,
) -> Result<BdccTable> {
    if use_specs.is_empty() {
        return Err(BdccError::Invalid(format!(
            "table {} has no dimension uses",
            db.catalog().table_name(table)
        )));
    }
    let stored = db.stored(table).ok_or_else(|| {
        BdccError::Catalog(format!("no storage for {}", db.catalog().table_name(table)))
    })?;

    // (i) Round-robin mask assignment at maximal granularity.
    let use_bits: Vec<UseBits> = use_specs
        .iter()
        .map(|(dim, path)| UseBits {
            dim_bits: dims[dim.0].bits(),
            fk_group: path.first().map(|fk| fk.0),
        })
        .collect();
    let (masks, total_bits) = assign_masks(&use_bits, cfg.interleave);
    let uses: Vec<DimensionUse> = use_specs
        .iter()
        .zip(&masks)
        .map(|((dim, path), &mask)| DimensionUse { dim: *dim, path: path.clone(), mask })
        .collect();

    // (ii) Compute `_bdcc_` at maximal granularity: per use, one lookup of
    // the bin's scattered bits per row.
    let rows = stored.rows();
    let mut bdcc = vec![0u64; rows];
    for u in &uses {
        let host_rows = lookups.steps.host_rows(db, table, &u.path)?;
        let host_bins = &lookups.host_bins[u.dim.0];
        let scattered = scatter_table(dims[u.dim.0].bits(), u.mask);
        for (key, &host_row) in bdcc.iter_mut().zip(host_rows.iter()) {
            *key |= scattered[host_bins[host_row as usize] as usize];
        }
    }
    let (perm, sorted_keys) = sort_permutation(&bdcc);

    // Re-organize all columns plus the clustering key.
    let source_columns = (0..stored.arity()).map(|i| &**stored.column(i).expect("arity"));
    let mut permuted = apply_permutation(source_columns, &perm);
    permuted.push(Column::from_i64(sorted_keys.iter().map(|&k| k as i64).collect()));
    let mut named: Vec<(String, Column)> = stored
        .schema()
        .columns
        .iter()
        .map(|c| c.name.clone())
        .chain(std::iter::once(BDCC_COLUMN.to_string()))
        .zip(permuted)
        .collect();

    // Piggy-backed group-size analysis.
    let histograms = GranularityHistograms::from_sorted_keys(&sorted_keys, total_bits);

    // (iii) Choose the granularity from the densest column and AR.
    let densest = stored.densest_column_width();
    let min_rows = (cfg.ar_bytes as f64 / densest).ceil().max(1.0) as u64;
    let granularity = choose_granularity(&histograms, min_rows, cfg);

    // (iv) Count table at the reduced granularity.
    let mut count = CountTable::from_sorted_keys(&sorted_keys, total_bits, granularity)?;
    let logical_rows = rows;

    // Small-group consolidation (optional).
    if cfg.consolidate_small_groups {
        crate::reorg::consolidate_small_groups(&mut named, &mut count, min_rows as usize);
    }

    let table_name = format!("{}_bdcc", stored.name());
    let rebuilt = StoredTable::from_columns(&table_name, named)?;

    Ok(BdccTable {
        source: table,
        uses,
        total_bits,
        granularity,
        table: Arc::new(rebuilt),
        count,
        histograms,
        logical_rows,
    })
}

/// Bin number of every row of the dimension's host table.
pub fn host_bin_numbers(db: &Database, dim: &Dimension) -> Result<Vec<u64>> {
    let host = db
        .stored(dim.table)
        .ok_or_else(|| BdccError::Catalog(format!("no storage for dimension {}", dim.name)))?;
    let key_columns: Vec<_> = dim
        .key
        .iter()
        .map(|k| host.column_by_name(k))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    // A single integer key: `bin_of` as a binary search over `i64` bounds.
    let int_bound = |b: &BinEntry| b.upper.0.first().and_then(Datum::as_int);
    let uppers: Option<Vec<i64>> = dim.bins.iter().map(int_bound).collect();
    if let ([column], Some(uppers)) = (&key_columns[..], uppers) {
        if let Ok(values) = column.as_i64() {
            let last = uppers.len().saturating_sub(1);
            let bin = |v: &i64| uppers.partition_point(|u| u < v).min(last) as u64;
            return Ok(values.iter().map(bin).collect());
        }
    }
    let mut bins = Vec::with_capacity(host.rows());
    for row in 0..host.rows() {
        let kv = KeyValue(key_columns.iter().map(|c| c.datum(row)).collect());
        bins.push(dim.bin_of(&kv));
    }
    Ok(bins)
}

/// The largest granularity `b ≤ min(B, cap)` with at least
/// `min_fraction_above_ar` of the groups holding ≥ `min_rows` rows
/// (Algorithm 1(iii)); falls back to 0 (a single group) if even coarse
/// granularities fail.
fn choose_granularity(
    histograms: &GranularityHistograms,
    min_rows: u64,
    cfg: &SelfTuneConfig,
) -> u32 {
    let upper = histograms.total_bits.min(cfg.max_granularity);
    for g in (1..=upper).rev() {
        if histograms.fraction_at_least(g, min_rows) >= cfg.min_fraction_above_ar {
            return g;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::scatter_bits;
    use bdcc_catalog::{Catalog, ColumnDef, TableDef};
    use bdcc_storage::{DataType, Datum, TableBuilder};

    fn dim_over(values: &[i64], id: usize, table: TableId) -> Dimension {
        crate::binning::create_dimension(
            DimId(id),
            &format!("D{id}"),
            table,
            vec!["k".into()],
            values.iter().map(|&v| (KeyValue::single(Datum::Int(v)), 1)).collect(),
            &crate::binning::BinningConfig::default(),
        )
        .unwrap()
    }

    /// A fact table with a local dimension over column `k`.
    fn single_dim_db(rows: usize) -> (Database, TableId) {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(TableDef {
                name: "fact".into(),
                columns: vec![
                    ColumnDef { name: "k".into(), data_type: DataType::Int },
                    ColumnDef { name: "v".into(), data_type: DataType::Int },
                ],
                primary_key: vec![],
            })
            .unwrap();
        let k: Vec<i64> = (0..rows as i64).map(|i| i % 8).collect();
        let v: Vec<i64> = (0..rows as i64).collect();
        let mut db = Database::new(cat);
        db.attach(
            t,
            Arc::new(
                TableBuilder::new("fact")
                    .column("k", Column::from_i64(k))
                    .column("v", Column::from_i64(v))
                    .build()
                    .unwrap(),
            ),
        );
        (db, t)
    }

    #[test]
    fn clustered_table_is_sorted_on_bdcc() {
        let (db, t) = single_dim_db(64);
        let dims = vec![dim_over(&(0..8).collect::<Vec<_>>(), 0, t)];
        let cfg = SelfTuneConfig {
            consolidate_small_groups: false,
            min_fraction_above_ar: 0.5,
            ar_bytes: 8, // tiny AR so every group qualifies
            ..Default::default()
        };
        let b = cluster_table(&db, t, &[(DimId(0), vec![])], &dims, &cfg).unwrap();
        assert_eq!(b.total_bits, 3);
        let keys = b.table.column_by_name(BDCC_COLUMN).unwrap().as_i64().unwrap().to_vec();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // All 64 rows present, 8 groups of 8.
        assert_eq!(b.table.rows(), 64);
        assert_eq!(b.count.group_count(), 8);
        assert!(b.count.groups.iter().all(|g| g.count == 8));
        // Rows in each group actually hold the right k value.
        let k = b.table.column_by_name("k").unwrap().as_i64().unwrap().to_vec();
        for g in b.count.iter() {
            let vals: Vec<i64> = k[g.start..g.start + g.count].to_vec();
            assert!(vals.iter().all(|&v| v == vals[0]));
        }
        assert_eq!(b.granularity, 3);
    }

    #[test]
    fn granularity_shrinks_when_groups_too_small() {
        let (db, t) = single_dim_db(64);
        let dims = vec![dim_over(&(0..8).collect::<Vec<_>>(), 0, t)];
        // Groups of 8 rows × 8 bytes = 64 bytes; demand 256-byte groups →
        // need ≥ 32 rows per group → granularity 1 (2 groups of 32).
        let cfg =
            SelfTuneConfig { consolidate_small_groups: false, ar_bytes: 256, ..Default::default() };
        let b = cluster_table(&db, t, &[(DimId(0), vec![])], &dims, &cfg).unwrap();
        assert_eq!(b.granularity, 1);
        assert_eq!(b.count.group_count(), 2);
    }

    #[test]
    fn two_dimensions_interleave() {
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
            .unwrap();
        let mut db = Database::new(cat);
        let a: Vec<i64> = (0..32).map(|i| i % 4).collect();
        let bcol: Vec<i64> = (0..32).map(|i| (i / 4) % 4).collect();
        db.attach(
            t,
            Arc::new(
                TableBuilder::new("f")
                    .column("a", Column::from_i64(a.clone()))
                    .column("b", Column::from_i64(bcol.clone()))
                    .build()
                    .unwrap(),
            ),
        );
        let dims = vec![
            Dimension { key: vec!["a".into()], ..dim_over(&[0, 1, 2, 3], 0, t) },
            Dimension { key: vec!["b".into()], ..dim_over(&[0, 1, 2, 3], 1, t) },
        ];
        let cfg =
            SelfTuneConfig { ar_bytes: 8, consolidate_small_groups: false, ..Default::default() };
        let bt =
            cluster_table(&db, t, &[(DimId(0), vec![]), (DimId(1), vec![])], &dims, &cfg).unwrap();
        assert_eq!(bt.total_bits, 4);
        // Z-order: masks 1010 and 0101.
        assert_eq!(bt.uses[0].mask, 0b1010);
        assert_eq!(bt.uses[1].mask, 0b0101);
        // Verify _bdcc_ of each row equals manual interleave of (a, b).
        let keys = bt.table.column_by_name(BDCC_COLUMN).unwrap().as_i64().unwrap().to_vec();
        let av = bt.table.column_by_name("a").unwrap().as_i64().unwrap().to_vec();
        let bv = bt.table.column_by_name("b").unwrap().as_i64().unwrap().to_vec();
        for i in 0..32 {
            let expect =
                scatter_bits(av[i] as u64, 2, 0b1010) | scatter_bits(bv[i] as u64, 2, 0b0101);
            assert_eq!(keys[i] as u64, expect);
        }
    }

    #[test]
    fn no_uses_is_an_error() {
        let (db, t) = single_dim_db(4);
        assert!(cluster_table(&db, t, &[], &[], &SelfTuneConfig::default()).is_err());
    }

    #[test]
    fn group_bin_prefix_extracts_major_bits() {
        let (db, t) = single_dim_db(64);
        let dims = vec![dim_over(&(0..8).collect::<Vec<_>>(), 0, t)];
        let cfg =
            SelfTuneConfig { ar_bytes: 8, consolidate_small_groups: false, ..Default::default() };
        let b = cluster_table(&db, t, &[(DimId(0), vec![])], &dims, &cfg).unwrap();
        // Single use: group key *is* the bin prefix.
        for g in b.count.iter() {
            assert_eq!(b.group_bin_prefix(0, g.key), g.key);
        }
        assert_eq!(b.use_bits_at_granularity(0), b.granularity);
    }
}
