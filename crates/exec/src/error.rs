//! Executor error type.

use std::fmt;

/// Errors raised during planning or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    UnknownColumn(String),
    Type(String),
    Plan(String),
    Internal(String),
    /// The query's [`CancelToken`](bdcc_pool::CancelToken) was cancelled
    /// (by a client or the serving layer); workers unwind at the next
    /// morsel boundary.
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded,
    /// The query's tracked memory exceeded its budget; only this query
    /// fails, the process and its peers keep running.
    BudgetExceeded {
        used: u64,
        budget: u64,
    },
    /// A simulated failure from the fault-injection harness.
    Injected(String),
    /// An exact (integer) result left the 64-bit range; the message names
    /// the computation. Never a wrapped value, never a panic.
    Overflow(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            ExecError::Type(m) => write!(f, "type error: {m}"),
            ExecError::Plan(m) => write!(f, "planning error: {m}"),
            ExecError::Internal(m) => write!(f, "internal error: {m}"),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ExecError::BudgetExceeded { used, budget } => {
                write!(f, "memory budget exceeded: {used} bytes used, budget {budget}")
            }
            ExecError::Injected(m) => write!(f, "injected fault: {m}"),
            ExecError::Overflow(m) => write!(f, "arithmetic overflow: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<bdcc_storage::StorageError> for ExecError {
    fn from(e: bdcc_storage::StorageError) -> Self {
        ExecError::Internal(e.to_string())
    }
}

impl From<bdcc_pool::PoolFailure> for ExecError {
    fn from(e: bdcc_pool::PoolFailure) -> Self {
        ExecError::Internal(e.to_string())
    }
}

impl From<bdcc_catalog::CatalogError> for ExecError {
    fn from(e: bdcc_catalog::CatalogError) -> Self {
        ExecError::Plan(e.to_string())
    }
}

impl From<bdcc_core::BdccError> for ExecError {
    fn from(e: bdcc_core::BdccError) -> Self {
        ExecError::Plan(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ExecError>;
