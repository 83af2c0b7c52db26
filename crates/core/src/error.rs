//! Error type for BDCC schema design and clustering.

use std::fmt;

/// Errors raised by dimension creation, clustering or schema design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdccError {
    /// Invalid argument or inconsistent design input.
    Invalid(String),
    /// A dimension path refers to foreign keys that do not chain.
    BrokenPath(String),
    /// Underlying storage problem.
    Storage(String),
    /// Catalog problem.
    Catalog(String),
}

impl fmt::Display for BdccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdccError::Invalid(m) => write!(f, "invalid: {m}"),
            BdccError::BrokenPath(m) => write!(f, "broken dimension path: {m}"),
            BdccError::Storage(m) => write!(f, "storage: {m}"),
            BdccError::Catalog(m) => write!(f, "catalog: {m}"),
        }
    }
}

impl std::error::Error for BdccError {}

impl From<bdcc_storage::StorageError> for BdccError {
    fn from(e: bdcc_storage::StorageError) -> Self {
        BdccError::Storage(e.to_string())
    }
}

impl From<bdcc_catalog::CatalogError> for BdccError {
    fn from(e: bdcc_catalog::CatalogError) -> Self {
        BdccError::Catalog(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, BdccError>;
