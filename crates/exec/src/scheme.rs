//! The three storage schemes of the paper's evaluation.
//!
//! * **Plain** — tables stored as generated, no ordering, MinMax only.
//! * **PK** — every table re-sorted on its declared primary key; the
//!   planner can then use merge joins (LINEITEM–ORDERS, PARTSUPP–PART) and
//!   streaming aggregation.
//! * **BDCC** — the automatic co-clustered design of Algorithm 2;
//!   scatter scans, bin-range pushdown/propagation and sandwich operators.

use std::collections::BTreeSet;
use std::sync::Arc;

use bdcc_catalog::{Database, FkId, TableId};
use bdcc_core::bdcc_table::host_bin_numbers;
use bdcc_core::{design_and_cluster, BdccSchema, DesignConfig, DimId, FkSteps};
use bdcc_storage::{apply_permutation, sort_permutation_multi, Column, StoredTable};

use crate::error::{ExecError, Result};
use crate::restrict::ROW_EVAL_LIMIT;

/// Storage scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Plain,
    Pk,
    Bdcc,
}

impl Scheme {
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Plain => "Plain",
            Scheme::Pk => "PK",
            Scheme::Bdcc => "BDCC",
        }
    }
}

/// A physical database under one scheme.
#[derive(Debug, Clone)]
pub struct SchemeDb {
    pub scheme: Scheme,
    pub db: Database,
    /// BDCC metadata (clustered tables, dimensions) for [`Scheme::Bdcc`].
    pub bdcc: Option<Arc<BdccSchema>>,
    /// What plan-time restriction looks up instead of computing (empty
    /// unless [`Scheme::Bdcc`]).
    pub plan_index: Arc<PlanIndex>,
}

/// The two lookups of [`crate::restrict`] that are facts of the stored
/// data, built once by [`bdcc_scheme`] over the *clustered* row order:
/// which bin every dimension-host row falls in, and which row every
/// foreign key leaving a host (or a table a host reduces through)
/// references. Tables above [`ROW_EVAL_LIMIT`] rows are never walked at
/// plan time, so they are not indexed.
#[derive(Debug, Default)]
pub struct PlanIndex {
    /// By [`DimId`]; `None` for a host above the limit.
    host_bins: Vec<Option<HostBins>>,
    fk_rows: FkSteps,
}

/// One dimension's host rows, binned at full dimension granularity.
#[derive(Debug)]
pub(crate) struct HostBins {
    /// Bin number of every host row.
    pub(crate) row_bin: Vec<u64>,
    /// How many distinct bins hold at least one row.
    pub(crate) occupied: usize,
}

impl PlanIndex {
    fn build(db: &Database, schema: &BdccSchema) -> Result<PlanIndex> {
        let small = |t: TableId| db.stored(t).is_some_and(|stored| stored.rows() <= ROW_EVAL_LIMIT);
        let mut host_bins = Vec::with_capacity(schema.dimensions.len());
        let mut frontier: Vec<TableId> = Vec::new();
        for dim in &schema.dimensions {
            if !small(dim.table) {
                host_bins.push(None);
                continue;
            }
            let row_bin = host_bin_numbers(db, dim)?;
            let mut seen = vec![false; dim.bin_count()];
            for &b in &row_bin {
                seen[b as usize] = true;
            }
            let occupied = seen.iter().filter(|&&s| s).count();
            host_bins.push(Some(HostBins { row_bin, occupied }));
            frontier.push(dim.table);
        }
        // Every key a reduction can follow: out of a host, then onwards.
        let mut fks: BTreeSet<FkId> = BTreeSet::new();
        while let Some(table) = frontier.pop() {
            for fk in db.catalog().fks_from(table) {
                if small(fk.to_table) && fks.insert(fk.id) {
                    frontier.push(fk.to_table);
                }
            }
        }
        Ok(PlanIndex { host_bins, fk_rows: FkSteps::resolve(db, fks)? })
    }

    /// The binned host rows of `dim`, when its host is small enough to walk.
    pub(crate) fn host_bins(&self, dim: DimId) -> Option<&HostBins> {
        self.host_bins.get(dim.0)?.as_ref()
    }

    /// The row of `fk`'s referenced table each referencing row points at.
    pub(crate) fn fk_rows(&self, fk: FkId) -> Option<&[u32]> {
        self.fk_rows.step(fk)
    }
}

/// The Plain scheme: the generated database as-is.
pub fn plain_scheme(db: &Database) -> SchemeDb {
    SchemeDb { scheme: Scheme::Plain, db: db.clone(), bdcc: None, plan_index: Arc::default() }
}

/// The PK scheme: every table with a declared primary key re-sorted on it.
pub fn pk_scheme(db: &Database) -> Result<SchemeDb> {
    let mut out = Database::new(db.catalog().clone());
    for id in db.attached() {
        let stored = db.stored(id).expect("attached");
        let def = db.catalog().table(id);
        if def.primary_key.is_empty() {
            out.attach(id, Arc::clone(stored));
            continue;
        }
        let key_cols: Vec<&[i64]> = def
            .primary_key
            .iter()
            .map(|k| {
                stored
                    .column_by_name(k)
                    .map_err(ExecError::from)
                    .and_then(|c| c.as_i64().map_err(ExecError::from))
            })
            .collect::<Result<_>>()?;
        let perm = sort_permutation_multi(&key_cols);
        let columns = (0..stored.arity()).map(|i| &**stored.column(i).expect("arity"));
        let permuted = apply_permutation(columns, &perm);
        let named: Vec<(String, Column)> =
            stored.schema().columns.iter().map(|c| c.name.clone()).zip(permuted).collect();
        let rebuilt = StoredTable::from_columns(stored.name(), named)?;
        out.attach(id, Arc::new(rebuilt));
    }
    Ok(SchemeDb { scheme: Scheme::Pk, db: out, bdcc: None, plan_index: Arc::default() })
}

/// The BDCC scheme: run Algorithm 2 end to end and install the clustered
/// tables (tables without dimension uses keep their plain storage).
pub fn bdcc_scheme(db: &Database, cfg: &DesignConfig) -> Result<SchemeDb> {
    let schema = design_and_cluster(db, cfg)?;
    let mut out = Database::new(db.catalog().clone());
    for id in db.attached() {
        match schema.tables.get(&id) {
            Some(bt) => out.attach(id, Arc::clone(&bt.table)),
            None => out.attach(id, Arc::clone(db.stored(id).expect("attached"))),
        }
    }
    let plan_index = Arc::new(PlanIndex::build(&out, &schema)?);
    Ok(SchemeDb { scheme: Scheme::Bdcc, db: out, bdcc: Some(Arc::new(schema)), plan_index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_catalog::{Catalog, ColumnDef, TableDef};
    use bdcc_storage::{DataType, TableBuilder};

    fn small_db() -> Database {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(TableDef {
                name: "t".into(),
                columns: vec![
                    ColumnDef { name: "pk".into(), data_type: DataType::Int },
                    ColumnDef { name: "v".into(), data_type: DataType::Int },
                ],
                primary_key: vec!["pk".into()],
            })
            .unwrap();
        cat.create_index("v_idx", "t", &["v"]).unwrap();
        let mut db = Database::new(cat);
        db.attach(
            t,
            Arc::new(
                TableBuilder::new("t")
                    .column("pk", Column::from_i64(vec![3, 1, 2]))
                    .column("v", Column::from_i64(vec![30, 10, 20]))
                    .build()
                    .unwrap(),
            ),
        );
        db
    }

    #[test]
    fn pk_scheme_sorts_on_primary_key() {
        let db = small_db();
        let pk = pk_scheme(&db).unwrap();
        let t = pk.db.stored_by_name("t").unwrap();
        assert_eq!(t.column_by_name("pk").unwrap().as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(t.column_by_name("v").unwrap().as_i64().unwrap(), &[10, 20, 30]);
        // Plain untouched.
        let plain = plain_scheme(&db);
        assert_eq!(
            plain.db.stored_by_name("t").unwrap().column_by_name("pk").unwrap().as_i64().unwrap(),
            &[3, 1, 2]
        );
    }

    #[test]
    fn bdcc_scheme_installs_clustered_tables() {
        let db = small_db();
        let cfg = DesignConfig::default();
        let b = bdcc_scheme(&db, &cfg).unwrap();
        let t = b.db.stored_by_name("t").unwrap();
        // Clustered table carries the _bdcc_ column; the count table views
        // every logical row exactly once in group-key order (the small-
        // group consolidation may relocate rows physically).
        assert!(t.column_by_name(bdcc_core::BDCC_COLUMN).is_ok());
        let schema = b.bdcc.as_ref().unwrap();
        let tid = b.db.catalog().table_id("t").unwrap();
        let bt = schema.table(tid).unwrap();
        assert_eq!(bt.count.total_rows(), 3);
        assert!(bt.count.groups.windows(2).all(|w| w[0].key < w[1].key));
    }
}
