//! Dimension-path resolution (Definition 2).
//!
//! A dimension path `P = FK_T1_T2.FK_T2_T3...` leads from a context table to
//! the table hosting the dimension key. Resolution maps every row of the
//! context table to the host row it references, by composing foreign-key
//! lookups. Foreign-key columns must be integer-backed (true for every
//! schema in the paper); dimension *keys* themselves may be any type.

use std::collections::{BTreeMap, HashMap};

use bdcc_catalog::{Database, FkId, TableId};
use bdcc_storage::StoredTable;

use crate::error::{BdccError, Result};

/// Foreign-key steps resolved once over one database's row order: for every
/// row of a key's referencing table, the row it references. A step is a
/// fact of the stored data, so every dimension path that crosses the key —
/// and every use site of every such path — shares the one resolution.
#[derive(Debug, Default)]
pub struct FkSteps {
    steps: BTreeMap<FkId, Vec<u32>>,
}

impl FkSteps {
    /// Resolve each of `fks` (repeats are resolved once) over `db`.
    pub fn resolve(db: &Database, fks: impl IntoIterator<Item = FkId>) -> Result<FkSteps> {
        let mut steps = BTreeMap::new();
        for fk_id in fks {
            if steps.contains_key(&fk_id) {
                continue;
            }
            let fk = db.catalog().fk(fk_id);
            let step = fk_step(
                stored(db, fk.from_table)?,
                &fk.from_columns,
                stored(db, fk.to_table)?,
                &fk.to_columns,
                &fk.name,
            )?;
            steps.insert(fk_id, step);
        }
        Ok(FkSteps { steps })
    }

    /// The referenced row of every row of `fk`'s referencing table, if
    /// `fk` was resolved.
    pub fn step(&self, fk: FkId) -> Option<&[u32]> {
        self.steps.get(&fk).map(Vec::as_slice)
    }

    /// For every row of `table`, the row index in the path's target table
    /// (`table` itself for the empty path). Every key of `path` must have
    /// been resolved.
    pub fn host_rows(&self, db: &Database, table: TableId, path: &[FkId]) -> Result<Vec<u32>> {
        let mut mapping: Vec<u32> = (0..stored(db, table)?.rows() as u32).collect();
        let mut current = table;
        for &fk_id in path {
            let fk = db.catalog().fk(fk_id);
            if fk.from_table != current {
                return Err(BdccError::BrokenPath(format!(
                    "foreign key {} does not start at {}",
                    fk.name,
                    db.catalog().table_name(current)
                )));
            }
            let step = self.step(fk_id).ok_or_else(|| {
                BdccError::BrokenPath(format!("foreign key {} was not resolved", fk.name))
            })?;
            for m in mapping.iter_mut() {
                *m = step[*m as usize];
            }
            current = fk.to_table;
        }
        Ok(mapping)
    }
}

/// For every row of `table`, the row index in the path's target table
/// (`table` itself for the empty path).
pub fn resolve_host_rows(db: &Database, table: TableId, path: &[FkId]) -> Result<Vec<u32>> {
    FkSteps::resolve(db, path.iter().copied())?.host_rows(db, table, path)
}

fn stored(db: &Database, table: TableId) -> Result<&StoredTable> {
    db.stored(table).map(|t| &**t).ok_or_else(|| {
        BdccError::Catalog(format!("no storage for {}", db.catalog().table_name(table)))
    })
}

/// For every row of `from`, the row index in `to` referenced via the
/// (from_columns → to_columns) equality.
fn fk_step(
    from: &StoredTable,
    from_columns: &[String],
    to: &StoredTable,
    to_columns: &[String],
    fk_name: &str,
) -> Result<Vec<u32>> {
    if from_columns.len() == 1 {
        let to_vals = int_column(to, &to_columns[0])?;
        let mut index: HashMap<i64, u32> = HashMap::with_capacity(to_vals.len());
        for (row, &v) in to_vals.iter().enumerate() {
            index.insert(v, row as u32);
        }
        let from_vals = int_column(from, &from_columns[0])?;
        from_vals
            .iter()
            .map(|v| {
                index.get(v).copied().ok_or_else(|| {
                    BdccError::BrokenPath(format!(
                        "{fk_name}: dangling reference {v} from {} to {}",
                        from.name(),
                        to.name()
                    ))
                })
            })
            .collect()
    } else {
        let to_cols: Vec<&[i64]> =
            to_columns.iter().map(|c| int_column(to, c)).collect::<Result<_>>()?;
        let mut index: HashMap<Vec<i64>, u32> = HashMap::with_capacity(to.rows());
        for row in 0..to.rows() {
            index.insert(to_cols.iter().map(|c| c[row]).collect(), row as u32);
        }
        let from_cols: Vec<&[i64]> =
            from_columns.iter().map(|c| int_column(from, c)).collect::<Result<_>>()?;
        (0..from.rows())
            .map(|row| {
                let key: Vec<i64> = from_cols.iter().map(|c| c[row]).collect();
                index.get(&key).copied().ok_or_else(|| {
                    BdccError::BrokenPath(format!(
                        "{fk_name}: dangling composite reference from {} to {}",
                        from.name(),
                        to.name()
                    ))
                })
            })
            .collect()
    }
}

fn int_column<'a>(table: &'a StoredTable, name: &str) -> Result<&'a [i64]> {
    let col = table.column_by_name(name)?;
    col.as_i64().map_err(|_| {
        BdccError::Invalid(format!(
            "foreign-key column {}.{name} must be integer-backed",
            table.name()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_catalog::{Catalog, ColumnDef, TableDef};
    use bdcc_storage::{Column, DataType, TableBuilder};
    use std::sync::Arc;

    /// orders(o_custkey) → customer(c_custkey, c_nationkey) → nation(n_nationkey)
    fn db() -> (Database, FkId, FkId) {
        let mut cat = Catalog::new();
        let n = cat
            .create_table(TableDef {
                name: "nation".into(),
                columns: vec![ColumnDef { name: "n_nationkey".into(), data_type: DataType::Int }],
                primary_key: vec!["n_nationkey".into()],
            })
            .unwrap();
        let c = cat
            .create_table(TableDef {
                name: "customer".into(),
                columns: vec![
                    ColumnDef { name: "c_custkey".into(), data_type: DataType::Int },
                    ColumnDef { name: "c_nationkey".into(), data_type: DataType::Int },
                ],
                primary_key: vec!["c_custkey".into()],
            })
            .unwrap();
        let o = cat
            .create_table(TableDef {
                name: "orders".into(),
                columns: vec![ColumnDef { name: "o_custkey".into(), data_type: DataType::Int }],
                primary_key: vec![],
            })
            .unwrap();
        let fk_c_n = cat
            .create_foreign_key("FK_C_N", "customer", &["c_nationkey"], "nation", &["n_nationkey"])
            .unwrap();
        let fk_o_c = cat
            .create_foreign_key("FK_O_C", "orders", &["o_custkey"], "customer", &["c_custkey"])
            .unwrap();
        let mut db = Database::new(cat);
        db.attach(
            n,
            Arc::new(
                TableBuilder::new("nation")
                    .column("n_nationkey", Column::from_i64(vec![10, 20]))
                    .build()
                    .unwrap(),
            ),
        );
        db.attach(
            c,
            Arc::new(
                TableBuilder::new("customer")
                    .column("c_custkey", Column::from_i64(vec![100, 101, 102]))
                    .column("c_nationkey", Column::from_i64(vec![20, 10, 20]))
                    .build()
                    .unwrap(),
            ),
        );
        db.attach(
            o,
            Arc::new(
                TableBuilder::new("orders")
                    .column("o_custkey", Column::from_i64(vec![102, 100, 101, 100]))
                    .build()
                    .unwrap(),
            ),
        );
        (db, fk_o_c, fk_c_n)
    }

    #[test]
    fn empty_path_is_identity() {
        let (db, _, _) = db();
        let o = db.catalog().table_id("orders").unwrap();
        assert_eq!(resolve_host_rows(&db, o, &[]).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_hop_path_composes() {
        let (db, fk_o_c, fk_c_n) = db();
        let o = db.catalog().table_id("orders").unwrap();
        // orders rows reference customers 102,100,101,100 → customer rows 2,0,1,0
        let one = resolve_host_rows(&db, o, &[fk_o_c]).unwrap();
        assert_eq!(one, vec![2, 0, 1, 0]);
        // customers reference nations 20,10,20 → nation rows 1,0,1;
        // composed: orders → nation rows 1,1,0,1.
        let two = resolve_host_rows(&db, o, &[fk_o_c, fk_c_n]).unwrap();
        assert_eq!(two, vec![1, 1, 0, 1]);
    }

    #[test]
    fn disconnected_path_is_rejected() {
        let (db, _, fk_c_n) = db();
        let o = db.catalog().table_id("orders").unwrap();
        assert!(resolve_host_rows(&db, o, &[fk_c_n]).is_err());
    }

    #[test]
    fn dangling_reference_is_reported() {
        let (mut db, fk_o_c, _) = db();
        let o = db.catalog().table_id("orders").unwrap();
        db.attach(
            o,
            Arc::new(
                TableBuilder::new("orders")
                    .column("o_custkey", Column::from_i64(vec![999]))
                    .build()
                    .unwrap(),
            ),
        );
        let err = resolve_host_rows(&db, o, &[fk_o_c]).unwrap_err();
        assert!(err.to_string().contains("dangling"));
    }
}
