//! Algorithm 2: semi-automatic BDCC schema design.
//!
//! The DBA writes classic DDL — tables, foreign keys, and `CREATE INDEX`
//! statements — and the algorithm derives the whole co-clustered schema:
//!
//! 1. **Derive** ([`derive_design`]): traverse the schema DAG from the
//!    leaves; an index equal to a foreign key *imports* all dimension uses
//!    of the referenced table (prefixing the foreign key to their paths),
//!    any other index *declares* a new dimension.
//! 2. **Create dimensions** ([`create_dimensions`]): frequency-balanced
//!    binning over the union of all use sites joined over their paths
//!    (ref \[4\]), capped at `max_bits` (13 in the paper).
//! 3. **Cluster** ([`design_and_cluster`]): Algorithm 1 on every table with
//!    at least one use; tables without uses stay unclustered.
//!
//! [`preview_design`] runs step 1 plus statistics-only sizing, which
//! reproduces the paper's Section IV dimension and dimension-use tables at
//! SF100 scale without generating 100 GB of data.

use std::collections::BTreeMap;

use bdcc_catalog::{Catalog, Database, FkId, TableId};
use bdcc_storage::{Column, DataType, Datum};

use crate::bdcc_table::{cluster_table_with, BdccTable, SelfTuneConfig, UseLookups};
use crate::binning::{bits_for_ndv, create_dimension, BinningConfig};
use crate::dimension::{DimId, Dimension, KeyValue};
use crate::error::{BdccError, Result};
use crate::mask::{assign_masks, mask_to_string, UseBits};
use crate::resolve::FkSteps;

/// A dimension declared by step 1 (before any data is touched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimSpec {
    pub id: DimId,
    /// `D_NATION`-style name derived from the hint name (`nation_idx` →
    /// `D_NATION`) or, if the hint has no usable stem, from the host table.
    pub name: String,
    pub table: TableId,
    pub key: Vec<String>,
}

/// A planned dimension use: which dimension a table will be clustered on,
/// over which path. Masks are assigned later by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignUse {
    pub dim: DimId,
    pub path: Vec<FkId>,
}

/// Output of step 1: dimensions to create and uses per table.
#[derive(Debug, Clone, Default)]
pub struct SchemaDesign {
    pub dim_specs: Vec<DimSpec>,
    /// Uses per table, in hint order (which fixes round-robin priority).
    pub uses: BTreeMap<TableId, Vec<DesignUse>>,
}

/// Design-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct DesignConfig {
    pub binning: BinningConfig,
    pub selftune: SelfTuneConfig,
    /// Upper bound on dimension uses per table (the paper notes 5–8 is the
    /// realistic ceiling); later uses are dropped with their hint order.
    pub max_uses_per_table: usize,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            binning: BinningConfig::default(),
            selftune: SelfTuneConfig::default(),
            max_uses_per_table: 8,
        }
    }
}

/// Step 1: interpret index declarations as BDCC hints (Algorithm 2(i)).
pub fn derive_design(catalog: &Catalog, cfg: &DesignConfig) -> Result<SchemaDesign> {
    let graph = bdcc_catalog::SchemaGraph::build(catalog);
    let order = graph.leaf_first_order()?;
    let mut design = SchemaDesign::default();
    for table in order {
        let mut uses: Vec<DesignUse> = Vec::new();
        for hint in catalog.hints_on(table) {
            if let Some(fk) = catalog.fk_matching_columns(table, &hint.columns) {
                // Index equals a foreign key: inductively import the
                // referenced table's uses, FK id prefixed to each path.
                let imported = design.uses.get(&fk.to_table).cloned().unwrap_or_default();
                for u in imported {
                    let mut path = Vec::with_capacity(u.path.len() + 1);
                    path.push(fk.id);
                    path.extend(u.path);
                    push_unique(&mut uses, DesignUse { dim: u.dim, path });
                }
            } else {
                // A genuine dimension hint: declare a new dimension.
                let id = DimId(design.dim_specs.len());
                design.dim_specs.push(DimSpec {
                    id,
                    name: dimension_name(&hint.name, catalog.table_name(table)),
                    table,
                    key: hint.columns.clone(),
                });
                push_unique(&mut uses, DesignUse { dim: id, path: Vec::new() });
            }
        }
        uses.truncate(cfg.max_uses_per_table);
        if !uses.is_empty() {
            design.uses.insert(table, uses);
        }
    }
    Ok(design)
}

fn push_unique(uses: &mut Vec<DesignUse>, u: DesignUse) {
    if !uses.contains(&u) {
        uses.push(u);
    }
}

/// `nation_idx` → `D_NATION`; falls back to the host table name.
fn dimension_name(hint_name: &str, table_name: &str) -> String {
    let stem =
        hint_name.strip_suffix("_idx").or_else(|| hint_name.strip_suffix("_index")).unwrap_or("");
    let stem = if stem.is_empty() { table_name } else { stem };
    format!("D_{}", stem.to_uppercase())
}

/// Step 2: create every declared dimension from the data (Algorithm 2(ii)).
///
/// The histogram is taken over "the union of all tables Ti joined over
/// dimension path Pi, projecting only the dimension keys": every host value
/// gets weight 1 (surjective coverage) plus one per referencing tuple at
/// every use site.
pub fn create_dimensions(
    db: &Database,
    design: &SchemaDesign,
    binning: &BinningConfig,
) -> Result<Vec<Dimension>> {
    create_dimensions_with(db, design, binning, &design_steps(db, design)?)
}

/// Every foreign-key step some use path of `design` crosses, resolved once.
fn design_steps(db: &Database, design: &SchemaDesign) -> Result<FkSteps> {
    FkSteps::resolve(db, design.uses.values().flatten().flat_map(|u| u.path.iter().copied()))
}

/// [`create_dimensions`] over the design's already resolved `steps`.
fn create_dimensions_with(
    db: &Database,
    design: &SchemaDesign,
    binning: &BinningConfig,
    steps: &FkSteps,
) -> Result<Vec<Dimension>> {
    let mut dims = Vec::with_capacity(design.dim_specs.len());
    for spec in &design.dim_specs {
        let host = db.stored(spec.table).ok_or_else(|| {
            BdccError::Catalog(format!("no storage for {}", db.catalog().table_name(spec.table)))
        })?;
        let key_columns: Vec<_> = spec
            .key
            .iter()
            .map(|k| host.column_by_name(k))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Weight per host row, starting at 1 for coverage.
        let mut weights = vec![1u64; host.rows()];
        for (&table, uses) in &design.uses {
            for u in uses {
                if u.dim != spec.id {
                    continue;
                }
                for hr in steps.host_rows(db, table, &u.path)? {
                    weights[hr as usize] += 1;
                }
            }
        }
        let single_int = match &key_columns[..] {
            [column] => distinct_int_weights(column, &weights),
            _ => None,
        };
        let values = single_int.unwrap_or_else(|| {
            (0..host.rows())
                .map(|row| {
                    (KeyValue(key_columns.iter().map(|c| c.datum(row)).collect()), weights[row])
                })
                .collect()
        });
        dims.push(create_dimension(
            spec.id,
            &spec.name,
            spec.table,
            spec.key.clone(),
            values,
            binning,
        )?);
    }
    Ok(dims)
}

/// The distinct values of a single integer-backed key column with their
/// summed weights, a [`KeyValue`] built per distinct value only (D_DATE's
/// host is every ORDERS row, for ≈ 2 406 distinct dates); `None` for any
/// other column type.
fn distinct_int_weights(column: &Column, weights: &[u64]) -> Option<Vec<(KeyValue, u64)>> {
    let ints = column.as_i64().ok()?;
    let mut pairs: Vec<(i64, u64)> = ints.iter().copied().zip(weights.iter().copied()).collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    let datum =
        |v| if column.data_type() == DataType::Date { Datum::Date(v) } else { Datum::Int(v) };
    Some(pairs.into_iter().map(|(v, w)| (KeyValue::single(datum(v)), w)).collect())
}

/// A fully designed and clustered schema.
#[derive(Debug, Clone)]
pub struct BdccSchema {
    pub design: SchemaDesign,
    pub dimensions: Vec<Dimension>,
    /// Clustered tables; tables without dimension uses are absent and keep
    /// their plain storage.
    pub tables: BTreeMap<TableId, BdccTable>,
}

impl BdccSchema {
    /// The clustered table for `id`, if it was clustered.
    pub fn table(&self, id: TableId) -> Option<&BdccTable> {
        self.tables.get(&id)
    }

    /// The dimension by id.
    pub fn dimension(&self, id: DimId) -> &Dimension {
        &self.dimensions[id.0]
    }
}

/// Steps 1–3 end to end: derive, create dimensions, cluster every table.
/// Independent tables are clustered in parallel, one task per table on
/// set-up's scoped fan-out ([`bdcc_pool::scoped`]; bulk load is the
/// expensive phase).
pub fn design_and_cluster(db: &Database, cfg: &DesignConfig) -> Result<BdccSchema> {
    let design = derive_design(db.catalog(), cfg)?;
    // Each foreign-key step and each dimension's host bins are facts of the
    // data: resolved once here and read by every use of every table.
    let steps = design_steps(db, &design)?;
    let dimensions = create_dimensions_with(db, &design, &cfg.binning, &steps)?;
    let lookups = UseLookups::new(db, &dimensions, steps)?;
    type UseSpecs = Vec<(DimId, Vec<FkId>)>;
    let entries: Vec<(TableId, UseSpecs)> = design
        .uses
        .iter()
        .map(|(&t, uses)| (t, uses.iter().map(|u| (u.dim, u.path.clone())).collect()))
        .collect();
    let results: Vec<(TableId, BdccTable)> =
        bdcc_pool::scoped(entries.len(), "design-table", |i| {
            let (t, specs) = &entries[i];
            cluster_table_with(db, *t, specs, &dimensions, &lookups, &cfg.selftune)
                .map(|bt| (*t, bt))
        })?;
    let mut tables = BTreeMap::new();
    for (t, bt) in results {
        tables.insert(t, bt);
    }
    Ok(BdccSchema { design, dimensions, tables })
}

// ---------------------------------------------------------------------------
// Statistics-only preview (paper-scale reproduction without data).
// ---------------------------------------------------------------------------

/// One row of the paper's dimension table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreviewDimension {
    pub name: String,
    pub bits: u32,
    pub table: String,
    pub key: Vec<String>,
}

/// One row of the paper's dimension-use table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreviewUse {
    pub dim_name: String,
    /// `FK_PS_S.FK_S_N`-style rendering; `-` for a local dimension.
    pub path: String,
    /// Mask rendered at the table's full granularity.
    pub mask: String,
}

/// Preview of a whole table's clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreviewTable {
    pub table: String,
    pub total_bits: u32,
    pub uses: Vec<PreviewUse>,
}

/// Derive the design and size it from distinct-value statistics alone
/// (`ndv_by_dimension` maps dimension names to their key's NDV). This is
/// how the harness reprints the paper's SF100 tables exactly.
pub fn preview_design(
    catalog: &Catalog,
    ndv_by_dimension: &BTreeMap<String, usize>,
    cfg: &DesignConfig,
) -> Result<(Vec<PreviewDimension>, Vec<PreviewTable>)> {
    let design = derive_design(catalog, cfg)?;
    let mut dims_out = Vec::new();
    let mut bits = Vec::with_capacity(design.dim_specs.len());
    for spec in &design.dim_specs {
        let ndv = *ndv_by_dimension.get(&spec.name).ok_or_else(|| {
            BdccError::Invalid(format!("no NDV statistic for dimension {}", spec.name))
        })?;
        let b = bits_for_ndv(ndv, &cfg.binning);
        bits.push(b);
        dims_out.push(PreviewDimension {
            name: spec.name.clone(),
            bits: b,
            table: catalog.table_name(spec.table).to_string(),
            key: spec.key.clone(),
        });
    }
    let mut tables_out = Vec::new();
    for (&table, uses) in &design.uses {
        let use_bits: Vec<UseBits> = uses
            .iter()
            .map(|u| UseBits { dim_bits: bits[u.dim.0], fk_group: u.path.first().map(|f| f.0) })
            .collect();
        let (masks, total_bits) = assign_masks(&use_bits, cfg.selftune.interleave);
        let uses_out = uses
            .iter()
            .zip(&masks)
            .map(|(u, &m)| PreviewUse {
                dim_name: design.dim_specs[u.dim.0].name.clone(),
                path: render_path(catalog, &u.path),
                mask: mask_to_string(m, total_bits),
            })
            .collect();
        tables_out.push(PreviewTable {
            table: catalog.table_name(table).to_string(),
            total_bits,
            uses: uses_out,
        });
    }
    Ok((dims_out, tables_out))
}

/// `FK_PS_S.FK_S_N` rendering of a dimension path.
pub fn render_path(catalog: &Catalog, path: &[FkId]) -> String {
    if path.is_empty() {
        "-".to_string()
    } else {
        path.iter().map(|&fk| catalog.fk(fk).name.clone()).collect::<Vec<_>>().join(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_catalog::{ColumnDef, TableDef};
    use bdcc_storage::DataType;

    /// nation ← supplier; nation ← customer ← orders (with a local date dim).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [
            ("nation", vec!["n_nationkey", "n_regionkey"]),
            ("customer", vec!["c_custkey", "c_nationkey"]),
            ("orders", vec!["o_orderkey", "o_custkey", "o_orderdate"]),
        ] {
            c.create_table(TableDef {
                name: name.into(),
                columns: cols
                    .iter()
                    .map(|n| ColumnDef {
                        name: n.to_string(),
                        data_type: if n.ends_with("date") { DataType::Date } else { DataType::Int },
                    })
                    .collect(),
                primary_key: vec![cols[0].to_string()],
            })
            .unwrap();
        }
        c.create_foreign_key("FK_C_N", "customer", &["c_nationkey"], "nation", &["n_nationkey"])
            .unwrap();
        c.create_foreign_key("FK_O_C", "orders", &["o_custkey"], "customer", &["c_custkey"])
            .unwrap();
        // Hints: a compound dimension on nation, FK hints, a local date dim.
        c.create_index("nation_idx", "nation", &["n_regionkey", "n_nationkey"]).unwrap();
        c.create_index("c_nk", "customer", &["c_nationkey"]).unwrap();
        c.create_index("date_idx", "orders", &["o_orderdate"]).unwrap();
        c.create_index("o_ck", "orders", &["o_custkey"]).unwrap();
        c
    }

    #[test]
    fn design_propagates_uses_through_fk_hints() {
        let cat = catalog();
        let design = derive_design(&cat, &DesignConfig::default()).unwrap();
        assert_eq!(design.dim_specs.len(), 2);
        assert_eq!(design.dim_specs[0].name, "D_NATION");
        assert_eq!(design.dim_specs[1].name, "D_DATE");

        let nation = cat.table_id("nation").unwrap();
        let customer = cat.table_id("customer").unwrap();
        let orders = cat.table_id("orders").unwrap();
        // nation: local D_NATION use.
        assert_eq!(design.uses[&nation], vec![DesignUse { dim: DimId(0), path: vec![] }]);
        // customer: D_NATION over FK_C_N.
        assert_eq!(design.uses[&customer].len(), 1);
        assert_eq!(design.uses[&customer][0].dim, DimId(0));
        assert_eq!(design.uses[&customer][0].path.len(), 1);
        // orders: local D_DATE first (hint order), then D_NATION over
        // FK_O_C.FK_C_N.
        let ou = &design.uses[&orders];
        assert_eq!(ou.len(), 2);
        assert_eq!(ou[0].dim, DimId(1));
        assert!(ou[0].path.is_empty());
        assert_eq!(ou[1].dim, DimId(0));
        assert_eq!(ou[1].path.len(), 2);
    }

    #[test]
    fn dimension_names_derive_from_hints() {
        assert_eq!(dimension_name("nation_idx", "nation"), "D_NATION");
        assert_eq!(dimension_name("date_idx", "orders"), "D_DATE");
        assert_eq!(dimension_name("myindex", "part"), "D_PART");
    }

    #[test]
    fn preview_sizes_from_ndv() {
        let cat = catalog();
        let mut ndv = BTreeMap::new();
        ndv.insert("D_NATION".to_string(), 25);
        ndv.insert("D_DATE".to_string(), 2406);
        let (dims, tables) = preview_design(&cat, &ndv, &DesignConfig::default()).unwrap();
        assert_eq!(dims[0].bits, 5);
        assert_eq!(dims[1].bits, 12);
        let orders = tables.iter().find(|t| t.table == "orders").unwrap();
        assert_eq!(orders.total_bits, 17);
        assert_eq!(orders.uses[0].dim_name, "D_DATE");
        assert_eq!(orders.uses[1].path, "FK_O_C.FK_C_N");
        // Round-robin: date/nation alternate for 10 bits, date fills 7 more.
        assert_eq!(orders.uses[0].mask, "10101010101111111");
    }

    #[test]
    fn max_uses_cap_is_enforced() {
        let cat = catalog();
        let cfg = DesignConfig { max_uses_per_table: 1, ..Default::default() };
        let design = derive_design(&cat, &cfg).unwrap();
        let orders = cat.table_id("orders").unwrap();
        assert_eq!(design.uses[&orders].len(), 1);
        // The first hint (local D_DATE) wins.
        assert_eq!(design.uses[&orders][0].dim, DimId(1));
    }

    #[test]
    fn duplicate_hints_do_not_duplicate_uses() {
        let mut cat = catalog();
        cat.create_index("o_ck2", "orders", &["o_custkey"]).unwrap();
        let design = derive_design(&cat, &DesignConfig::default()).unwrap();
        let orders = cat.table_id("orders").unwrap();
        assert_eq!(design.uses[&orders].len(), 2);
    }
}
