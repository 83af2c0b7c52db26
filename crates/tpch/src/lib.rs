//! # bdcc-tpch — TPC-H substrate for the BDCC evaluation
//!
//! The paper evaluates BDCC on 100 GB TPC-H inside Vectorwise. This crate
//! provides the laptop-scale equivalent, built from scratch:
//!
//! * [`ddl`] — the TPC-H schema as classic DDL (tables, primary keys,
//!   foreign keys) plus the exact index hints of Section IV
//!   (`date_idx`, `part_idx`, `nation_idx` and the foreign-key indices),
//!   which is all Algorithm 2 needs.
//! * [`gen`] — a deterministic `dbgen` clone: correct table cardinalities
//!   per scale factor, the spec's part–supplier assignment formula, the
//!   `o_orderdate`/`l_shipdate` correlation the paper's MinMax analysis
//!   relies on, customers without orders (Q13/Q22), phone country codes
//!   (Q22), and comment text with the Q13/Q16 token patterns.
//! * [`queries`] — all 22 TPC-H queries hand-lowered to the logical plan
//!   algebra of `bdcc-exec`, with the standard validation parameters.

#![forbid(unsafe_code)]

pub mod ddl;
pub mod gen;
pub mod queries;
pub mod text;

pub use ddl::tpch_catalog;
pub use gen::{generate, GenConfig};
pub use queries::{all_queries, Query, QueryCtx};
