//! # bdcc-core — Bitwise Dimensional Co-Clustering
//!
//! Faithful implementation of *Automatic Schema Design for Co-Clustered
//! Tables* (Baumann, Boncz, Sattler — ICDE 2013):
//!
//! * [`dimension`] — BDCC dimensions (Definition 1): order-respecting
//!   surjective binnings of (possibly composite) dimension keys, with
//!   granularity reduction and contiguous bin-range lookup for predicates
//!   (including prefix predicates on compound keys such as
//!   `NATION(n_regionkey, n_nationkey)`).
//! * [`binning`] — frequency-balanced dimension creation over the union of
//!   all use sites (the ref \[4\] technique), plus the equi-width baseline.
//! * [`mask`] — `_bdcc_` bit algebra: scatter/gather between bin numbers
//!   and mask positions (plus the per-use scatter lookup table the bulk
//!   load reads), and the three interleaving strategies (round-robin
//!   per use = Z-order, round-robin per foreign key, major-minor).
//! * [`resolve`] — dimension-path resolution over foreign keys
//!   (Definition 2).
//! * [`bdcc_table`] — BDCC tables (Definitions 3–4) and the self-tuned
//!   bulk-load of **Algorithm 1**, including the densest-column /
//!   efficient-random-access-size granularity choice.
//! * [`count_table`] — the `T_COUNT` metadata table.
//! * [`histogram`] — piggy-backed logarithmic group-size histograms used by
//!   the self-tuning and the correlated-dimension ("puff pastry") analysis.
//! * [`autodesign`] — **Algorithm 2**: the semi-automatic schema design
//!   that interprets `CREATE INDEX` statements as hints, propagates
//!   dimension uses over foreign keys, creates dimensions, and clusters the
//!   whole schema; plus a statistics-only preview that reproduces the
//!   paper's Section IV design tables.
//!
//! The storage substrate lives in `bdcc-storage`, schema metadata in
//! `bdcc-catalog`, and query execution (scatter scans, sandwich operators,
//! per-scheme planning) in `bdcc-exec`.

#![forbid(unsafe_code)]

pub mod autodesign;
pub mod bdcc_table;
pub mod binning;
pub mod count_table;
pub mod dimension;
pub mod error;
pub mod histogram;
pub mod mask;
pub mod resolve;

pub use autodesign::{
    create_dimensions, derive_design, design_and_cluster, preview_design, render_path, BdccSchema,
    DesignConfig, DesignUse, DimSpec, PreviewDimension, PreviewTable, PreviewUse, SchemaDesign,
};
pub use bdcc_table::{cluster_table, BdccTable, DimensionUse, SelfTuneConfig, BDCC_COLUMN};
pub use binning::{bits_for_ndv, create_dimension, BinningConfig, BinningStrategy};
pub use count_table::{CountTable, GroupEntry};
pub use dimension::{bits_for_bins, BinEntry, DimId, Dimension, KeyValue};
pub use error::{BdccError, Result};
pub use histogram::GranularityHistograms;
pub use mask::{
    assign_masks, gather_bits, mask_to_string, ones, scatter_bits, scatter_table, truncate_mask,
    InterleaveStrategy, UseBits,
};
pub use resolve::{resolve_host_rows, FkSteps};
