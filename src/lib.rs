//! # bdcc — Bitwise Dimensional Co-Clustering
//!
//! Umbrella crate for the reproduction of *Automatic Schema Design for
//! Co-Clustered Tables* (Baumann, Boncz, Sattler — ICDE 2013). It
//! re-exports the workspace crates:
//!
//! * [`storage`] — columnar storage, MinMax block statistics, I/O model.
//! * [`catalog`] — DDL, foreign keys, index hints, schema DAG.
//! * [`core`] — the paper's contribution: dimensions, `_bdcc_` masks,
//!   Algorithm 1 (self-tuned clustering) and Algorithm 2 (automatic schema
//!   design).
//! * [`exec`] — the vectorized executor: scatter scans, selection pushdown
//!   and propagation, sandwich join/aggregation, per-scheme planning.
//! * [`tpch`] — deterministic TPC-H generator, DDL hints and all 22
//!   queries.
//!
//! ## Quickstart
//!
//! ```
//! use bdcc::prelude::*;
//! use std::sync::Arc;
//!
//! // Generate a small TPC-H instance and auto-design the BDCC schema.
//! let db = bdcc::tpch::generate(&GenConfig::new(0.002));
//! let sdb = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).unwrap());
//!
//! // Run TPC-H Q6 on the co-clustered schema.
//! let ctx = QueryCtx::new(QueryContext::new(sdb), 0.002);
//! let q6 = all_queries().into_iter().find(|q| q.id == 6).unwrap();
//! let result = (q6.run)(&ctx).unwrap();
//! assert_eq!(result.rows(), 1);
//! ```

#![forbid(unsafe_code)]

pub use bdcc_catalog as catalog;
pub use bdcc_core as core;
pub use bdcc_exec as exec;
pub use bdcc_storage as storage;
pub use bdcc_tpch as tpch;

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use bdcc_catalog::{Catalog, Database, TableId};
    pub use bdcc_core::{
        design_and_cluster, preview_design, BdccSchema, BinningConfig, BinningStrategy,
        DesignConfig, InterleaveStrategy, SelfTuneConfig,
    };
    pub use bdcc_exec::{
        bdcc_scheme, canonical_rows, pk_scheme, plain_scheme, run_measured, QueryContext, Scheme,
        SchemeDb,
    };
    pub use bdcc_storage::{Column, DataType, Datum, StoredTable};
    pub use bdcc_tpch::{all_queries, GenConfig, QueryCtx};
}
