//! # bdcc-storage — columnar storage substrate
//!
//! The BDCC paper (Baumann, Boncz, Sattler: *Automatic Schema Design for
//! Co-Clustered Tables*, ICDE 2013) evaluates inside Vectorwise, a columnar
//! analytical engine. This crate is the from-scratch substitute: an
//! in-memory, strongly typed column store with the three facilities the
//! paper's machinery consumes:
//!
//! * **Typed columns** ([`Column`], [`Datum`], [`DataType`]) holding `i64`,
//!   `f64`, date (days since the Unix epoch) and UTF-8 string values.
//! * **Block statistics** ([`block::BlockStats`]) — per-block min/max values
//!   for every column, the equivalent of Vectorwise MinMax indices, used for
//!   block skipping and correlated selection pushdown.
//! * **An I/O cost model** ([`io::IoTracker`], [`io::DeviceProfile`]) —
//!   logical 32 KB pages per column, sequential vs. random accounting, and
//!   the *efficient random access size* `AR` that drives the self-tuning of
//!   count-table granularity (Algorithm 1 of the paper).
//! * **Per-block lightweight encodings** ([`encode::ColumnEncoding`]) —
//!   dictionary for strings, frame-of-reference + bit-packing and RLE for
//!   integers, decimal-scaled FOR for floats, chosen per block with a raw
//!   fallback when encoding doesn't pay.
//!
//! # Encoding selection and late materialization
//!
//! Encodings are built at table-construction time on the same block grid as
//! the MinMax statistics, and only kept where they are *estimated smaller
//! than raw* (see [`encode`] for the per-codec size models and the
//! bit-exactness contract). The raw columns always stay resident: the
//! execution layer evaluates predicates directly on the encoded blocks
//! (dictionary-code comparison, per-run RLE tests) and **materializes
//! late** — gathering raw values only for the rows that survive a block's
//! predicates — so operators downstream of a scan never see encoded data
//! and results are byte-identical with encodings built or not.
//! [`StoredTable::io_width`] exposes the encoded footprint to the I/O cost
//! model, while Algorithm 1's `densest_column_width` stays on raw widths so
//! BDCC schema designs are the same either way.
//!
//! Tables are immutable once built (BDCC re-organizes on bulk-load), which
//! keeps the storage layer simple and lock-free on the read path.

#![forbid(unsafe_code)]

pub mod block;
pub mod column;
pub mod encode;
pub mod error;
pub mod io;
pub mod sort;
pub mod spill;
pub mod table;
pub mod value;

pub use block::{BlockStats, ColumnBlockStats, DEFAULT_BLOCK_ROWS};
pub use column::{Column, ColumnBuilder, StrVec};
pub use encode::{BlockEncoding, ColumnEncoding, PackedInts};
pub use error::{Result, StorageError};
pub use io::{AccessKind, DeviceProfile, IoStats, IoTracker, PAGE_SIZE};
pub use sort::{apply_permutation, sort_permutation, sort_permutation_multi};
pub use spill::{live_spill_files, SpillHandle, SpillReader, SpillWriter};
pub use table::{ColumnMeta, StoredTable, TableBuilder, TableSchema};
pub use value::{date_to_days, days_to_date, format_date, parse_date, year_of, DataType, Datum};
