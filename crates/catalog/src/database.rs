//! A catalog plus the physical tables it describes.

use std::collections::HashMap;
use std::sync::Arc;

use bdcc_storage::StoredTable;

use crate::catalog::{Catalog, CatalogError, TableId};

/// A database instance: schema metadata plus stored (physical) tables.
///
/// Different storage schemes (Plain, PK-ordered, BDCC) are different
/// `Database` values over the same catalog — each holds its own physical
/// re-organization of the data.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    tables: HashMap<TableId, Arc<StoredTable>>,
}

impl Database {
    /// A database over `catalog` with no stored tables yet.
    pub fn new(catalog: Catalog) -> Database {
        Database { catalog, tables: HashMap::new() }
    }

    /// The schema metadata.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Attach physical storage for a table.
    pub fn attach(&mut self, id: TableId, table: Arc<StoredTable>) {
        self.tables.insert(id, table);
    }

    /// Physical storage by table id.
    pub fn stored(&self, id: TableId) -> Option<&Arc<StoredTable>> {
        self.tables.get(&id)
    }

    /// Physical storage by table name.
    pub fn stored_by_name(&self, name: &str) -> Result<&Arc<StoredTable>, CatalogError> {
        let id = self.catalog.table_id(name)?;
        self.tables
            .get(&id)
            .ok_or_else(|| CatalogError::UnknownTable(format!("{name} (no storage attached)")))
    }

    /// Ids of all tables with storage attached.
    pub fn attached(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.keys().copied()
    }

    /// Total rows across all attached tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use bdcc_storage::{Column, DataType, TableBuilder};

    #[test]
    fn attach_and_lookup() {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(TableDef {
                name: "t".into(),
                columns: vec![ColumnDef { name: "k".into(), data_type: DataType::Int }],
                primary_key: vec!["k".into()],
            })
            .unwrap();
        let mut db = Database::new(cat);
        assert!(db.stored_by_name("t").is_err());
        let stored =
            TableBuilder::new("t").column("k", Column::from_i64(vec![1, 2])).build().unwrap();
        db.attach(id, Arc::new(stored));
        assert_eq!(db.stored_by_name("t").unwrap().rows(), 2);
        assert_eq!(db.total_rows(), 2);
        assert_eq!(db.attached().count(), 1);
    }
}
