//! Stored tables: named, typed column collections with block statistics.
//!
//! [`StoredTable::from_columns`] builds each column's MinMax stats and
//! encodings as one task of set-up's scoped fan-out ([`bdcc_pool::scoped`]),
//! as the bulk load's gathers ([`crate::apply_permutation`]) do: one
//! fan-out for generation, the PK build and the BDCC build, where it nests
//! in schema design's per-table task. A build is set-up that owns the
//! machine, not a query sharing it, and the built bytes do not depend on
//! the width, so there is nothing to tune.

use std::collections::HashMap;
use std::sync::Arc;

use crate::block::{ColumnBlockStats, DEFAULT_BLOCK_ROWS};
use crate::column::Column;
use crate::encode::ColumnEncoding;
use crate::error::{Result, StorageError};
use crate::value::{DataType, Datum};

/// Static description of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    pub name: String,
    pub data_type: DataType,
    /// Average stored width in bytes (measured at build time); feeds the
    /// page/cost model and Algorithm 1's densest-column computation.
    pub avg_width: f64,
}

/// Ordered column names and types of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnMeta>,
}

impl TableSchema {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// An immutable stored table: columns of equal length plus per-column block
/// statistics (MinMax indices).
#[derive(Debug, Clone)]
pub struct StoredTable {
    schema: TableSchema,
    columns: Vec<Arc<Column>>,
    stats: Vec<ColumnBlockStats>,
    /// Per-column block encodings (`None` when no block of the column won
    /// over raw, or on a [`without_encodings`](Self::without_encodings)
    /// twin). Every build encodes. Shares the MinMax block grid; raw
    /// columns stay resident, so encodings are an *additional*
    /// predicate-evaluation representation, never the only copy.
    encodings: Vec<Option<Arc<ColumnEncoding>>>,
    rows: usize,
    name_index: HashMap<String, usize>,
}

impl StoredTable {
    /// Build a table from `(name, column)` pairs. All columns must have the
    /// same length; the table name is recorded in the schema.
    pub fn from_columns(
        table_name: &str,
        named_columns: Vec<(String, Column)>,
    ) -> Result<StoredTable> {
        Self::from_columns_with_block_rows(table_name, named_columns, DEFAULT_BLOCK_ROWS)
    }

    /// As [`from_columns`](Self::from_columns) with an explicit MinMax block
    /// size (tests use small blocks).
    pub fn from_columns_with_block_rows(
        table_name: &str,
        named_columns: Vec<(String, Column)>,
        block_rows: usize,
    ) -> Result<StoredTable> {
        if named_columns.is_empty() {
            return Err(StorageError::Invalid(format!("table {table_name} has no columns")));
        }
        let rows = named_columns[0].1.len();
        let mut name_index = HashMap::with_capacity(named_columns.len());
        for (i, (name, column)) in named_columns.iter().enumerate() {
            if column.len() != rows {
                return Err(StorageError::LengthMismatch { expected: rows, actual: column.len() });
            }
            if name_index.insert(name.clone(), i).is_some() {
                return Err(StorageError::Invalid(format!(
                    "duplicate column {name} in table {table_name}"
                )));
            }
        }
        let built = per_column(named_columns.len(), "table-build", |i| {
            let column = &named_columns[i].1;
            let stats = if rows > 0 {
                ColumnBlockStats::build(column, block_rows)
            } else {
                ColumnBlockStats { block_rows, blocks: Vec::new() }
            };
            (stats, ColumnEncoding::build(column, block_rows).map(Arc::new))
        });
        let (stats, encodings) = built.into_iter().unzip();
        let (metas, columns) = named_columns
            .into_iter()
            .map(|(name, column)| {
                let meta = ColumnMeta {
                    name,
                    data_type: column.data_type(),
                    avg_width: column.avg_width(),
                };
                (meta, Arc::new(column))
            })
            .unzip();
        Ok(StoredTable {
            schema: TableSchema { name: table_name.to_string(), columns: metas },
            columns,
            stats,
            encodings,
            rows,
            name_index,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, index: usize) -> Result<&Arc<Column>> {
        self.columns
            .get(index)
            .ok_or(StorageError::ColumnIndexOutOfRange { index, arity: self.columns.len() })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Arc<Column>> {
        let idx = self
            .name_index
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownColumn(format!("{}.{}", self.name(), name)))?;
        Ok(&self.columns[idx])
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema.column_index(name)
    }

    /// MinMax statistics of a column by index.
    pub fn block_stats(&self, index: usize) -> Result<&ColumnBlockStats> {
        self.stats
            .get(index)
            .ok_or(StorageError::ColumnIndexOutOfRange { index, arity: self.stats.len() })
    }

    /// One full row as datums (diagnostics and tests; never a hot path).
    pub fn row(&self, row: usize) -> Result<Vec<Datum>> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange { row, rows: self.rows });
        }
        Ok(self.columns.iter().map(|c| c.datum(row)).collect())
    }

    /// Block encoding of a column, if one was built and won over raw.
    pub fn encoding(&self, index: usize) -> Option<&Arc<ColumnEncoding>> {
        self.encodings.get(index).and_then(|e| e.as_ref())
    }

    /// The same columns and MinMax stats with every encoding `None`: the
    /// raw storage a test compares the encoded table against. Algorithm
    /// 1 reads raw widths, so a design over either twin is the same.
    pub fn without_encodings(&self) -> StoredTable {
        StoredTable { encodings: vec![None; self.encodings.len()], ..self.clone() }
    }

    /// Whether any column of this table is block-encoded.
    pub fn has_encodings(&self) -> bool {
        self.encodings.iter().any(|e| e.is_some())
    }

    /// Average *stored* bytes per value of column `index`: the encoded
    /// width when the column is block-encoded, the raw `avg_width`
    /// otherwise. This is what the I/O cost model charges per scan —
    /// dictionary-encoded string columns no longer bill their raw heap
    /// size. Algorithm 1's [`densest_column_width`](Self::densest_column_width)
    /// deliberately stays on raw widths so BDCC designs are invariant
    /// whether or not encodings are built.
    pub fn io_width(&self, index: usize) -> f64 {
        match self.encoding(index) {
            Some(enc) => enc.avg_encoded_width(self.rows),
            None => self.schema.columns[index].avg_width,
        }
    }

    /// Average width of the *densest* (widest stored) column, in bytes —
    /// the quantity Algorithm 1 sizes groups against.
    pub fn densest_column_width(&self) -> f64 {
        self.schema.columns.iter().map(|c| c.avg_width).fold(0.0, f64::max)
    }

    /// Number of MinMax statistics blocks (uniform across columns) — the
    /// unit the morsel scheduler partitions plain scans by.
    pub fn block_count(&self) -> usize {
        self.stats.first().map(|s| s.len()).unwrap_or(0)
    }

    /// Rows per statistics block.
    pub fn block_rows(&self) -> usize {
        self.stats.first().map(|s| s.block_rows).unwrap_or(DEFAULT_BLOCK_ROWS)
    }

    /// Row span `[start, end)` covered by blocks `[lo, hi)` — a block-range
    /// view for parallel scan workers. Clamped to the table.
    pub fn block_range_rows(&self, lo: usize, hi: usize) -> (usize, usize) {
        let br = self.block_rows();
        let start = (lo * br).min(self.rows);
        let end = (hi * br).min(self.rows);
        (start, end)
    }

    /// A stable key identifying column `index` of this table for I/O
    /// tracking (fnv-style hash of table name and column position).
    pub fn io_key(&self, index: usize) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ (index as u64)
    }
}

/// Builds a [`StoredTable`] row-group-at-a-time from typed columns.
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, Column)>,
}

impl TableBuilder {
    /// A builder for table `name`.
    pub fn new(name: &str) -> TableBuilder {
        TableBuilder { name: name.to_string(), columns: Vec::new() }
    }

    /// Add a named column; order of calls defines column order.
    pub fn column(mut self, name: &str, column: Column) -> TableBuilder {
        self.columns.push((name.to_string(), column));
        self
    }

    /// Finish into a [`StoredTable`].
    pub fn build(self) -> Result<StoredTable> {
        StoredTable::from_columns(&self.name, self.columns)
    }
}

/// `task(0..ncols)` on set-up's scoped fan-out, results in column order.
pub(crate) fn per_column<T, F>(ncols: usize, label: &'static str, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    bdcc_pool::scoped(ncols, label, |i| Ok::<_, std::convert::Infallible>(task(i)))
        .unwrap_or_else(|never| match never {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoredTable {
        TableBuilder::new("t")
            .column("k", Column::from_i64(vec![1, 2, 3]))
            .column("v", Column::from_strings(vec!["a".into(), "bb".into(), "ccc".into()]))
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = sample();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.column_index("v").unwrap(), 1);
        assert_eq!(t.column_by_name("k").unwrap().as_i64().unwrap(), &[1, 2, 3]);
        assert!(t.column_by_name("nope").is_err());
        assert!(t.column(5).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let r = TableBuilder::new("t")
            .column("a", Column::from_i64(vec![1]))
            .column("b", Column::from_i64(vec![1, 2]))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableBuilder::new("t")
            .column("a", Column::from_i64(vec![1]))
            .column("a", Column::from_i64(vec![2]))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(TableBuilder::new("t").build().is_err());
    }

    #[test]
    fn densest_column_is_widest() {
        let t = sample();
        // strings: (1+1 + 2+1 + 3+1)/3 = 3
        assert!(t.densest_column_width() >= 8.0); // ints are 8 bytes
        let t2 = TableBuilder::new("t2")
            .column("s", Column::from_strings(vec!["x".repeat(100)]))
            .column("k", Column::from_i64(vec![1]))
            .build()
            .unwrap();
        assert!((t2.densest_column_width() - 101.0).abs() < 1e-9);
    }

    #[test]
    fn row_access() {
        let t = sample();
        assert_eq!(t.row(1).unwrap(), vec![Datum::Int(2), Datum::Str("bb".into())]);
        assert!(t.row(3).is_err());
    }

    #[test]
    fn io_keys_differ_per_column_and_table() {
        let t = sample();
        assert_ne!(t.io_key(0), t.io_key(1));
        let t2 = TableBuilder::new("other").column("k", Column::from_i64(vec![1])).build().unwrap();
        assert_ne!(t.io_key(0), t2.io_key(0));
    }

    #[test]
    fn block_stats_present_per_column() {
        let t = sample();
        assert_eq!(t.block_stats(0).unwrap().len(), 1);
    }

    #[test]
    fn block_range_views() {
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![("k".into(), Column::from_i64((0..10).collect()))],
            4,
        )
        .unwrap();
        assert_eq!(t.block_count(), 3);
        assert_eq!(t.block_rows(), 4);
        assert_eq!(t.block_range_rows(0, 1), (0, 4));
        assert_eq!(t.block_range_rows(2, 3), (8, 10)); // partial last block
        assert_eq!(t.block_range_rows(0, 3), (0, 10));
        assert_eq!(t.block_range_rows(3, 9), (10, 10)); // past the end
    }

    #[test]
    fn encoded_columns_shrink_io_width() {
        let modes = ["AIR", "RAIL", "TRUCK", "SHIP"];
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![
                (
                    "mode".into(),
                    Column::from_strings((0..512).map(|i| modes[i % 4].into()).collect()),
                ),
                ("k".into(), Column::from_i64((0..512).collect())),
            ],
            4096,
        )
        .unwrap();
        assert!(t.has_encodings());
        let enc = t.encoding(0).expect("dict-encoded strings");
        assert!(enc.encoded_bytes < enc.raw_bytes);
        // io_width reports the encoded footprint; raw avg_width is untouched.
        assert!(t.io_width(0) < t.schema().columns[0].avg_width);
        // ("AIR"+1 + "RAIL"+1 + "TRUCK"+1 + "SHIP"+1) / 4 = 5 bytes raw.
        assert!((t.schema().columns[0].avg_width - 5.0).abs() < 1e-9);
        // Algorithm 1 still sees raw widths.
        assert!((t.densest_column_width() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn raw_twin_drops_only_the_encodings() {
        let t = StoredTable::from_columns_with_block_rows(
            "t",
            vec![("k".into(), Column::from_i64((0..512).collect()))],
            4096,
        )
        .unwrap();
        assert!(t.has_encodings());
        let raw = t.without_encodings();
        assert!(!raw.has_encodings());
        assert_eq!(raw.io_width(0), raw.schema().columns[0].avg_width);
        assert_eq!(raw.column(0).unwrap(), t.column(0).unwrap());
        assert_eq!(raw.block_stats(0).unwrap().blocks, t.block_stats(0).unwrap().blocks);
        assert_eq!(raw.densest_column_width(), t.densest_column_width());
    }

    #[test]
    fn zero_row_table_allowed() {
        let t = TableBuilder::new("empty").column("k", Column::from_i64(vec![])).build().unwrap();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.block_stats(0).unwrap().len(), 0);
    }
}
