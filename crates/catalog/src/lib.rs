//! # bdcc-catalog — schema metadata for BDCC
//!
//! Algorithm 2 of the BDCC paper derives a co-clustered physical design
//! purely from *classic DDL*: table definitions, declared foreign keys, and
//! `CREATE INDEX` statements interpreted as clustering hints. This crate
//! models exactly that input:
//!
//! * [`TableDef`], [`ForeignKey`], [`IndexHint`] — the declarations,
//! * [`Catalog`] — a validated collection of them,
//! * [`SchemaGraph`] — the projection DAG over foreign keys, with the
//!   leaf-first traversal order Algorithm 2 requires and path enumeration
//!   for dimension paths (Definition 2),
//! * [`Database`] — a catalog plus the actual stored tables.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod database;
pub mod graph;

pub use catalog::{
    Catalog, CatalogError, ColumnDef, FkId, ForeignKey, IndexHint, TableDef, TableId,
};
pub use database::Database;
pub use graph::SchemaGraph;
