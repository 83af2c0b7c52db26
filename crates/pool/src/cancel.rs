//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between whoever
//! may cancel a unit of work (a serving layer, a deadline watchdog, a
//! memory budget) and the work itself. Cancellation is *cooperative*:
//! nothing is interrupted — workers poll [`is_cancelled`] between
//! morsels and unwind through their normal error path, which is what
//! lets the pool's cancel-on-drop machinery reclaim queued jobs and lets
//! RAII memory guards release every tracked byte.
//!
//! The first cancellation wins and records *why* ([`CancelReason`]), so
//! a query cancelled because its deadline expired reports
//! "deadline exceeded" at every later checkpoint instead of a generic
//! "cancelled" — whichever worker observes the flag first.
//!
//! [`is_cancelled`]: CancelToken::is_cancelled

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Why a token was cancelled. The first [`CancelToken::cancel_with`]
/// fixes the reason for the token's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Explicit cancellation (a client gave up, a server shed load).
    Cancelled,
    /// The work ran past its deadline.
    DeadlineExceeded,
    /// The work exceeded its memory budget.
    BudgetExceeded,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;
const BUDGET: u8 = 3;

/// A shared cancellation flag with a sticky reason. Clones observe the
/// same state; `Default` is a fresh, live token.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancel with the generic [`CancelReason::Cancelled`] reason.
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::Cancelled);
    }

    /// Cancel with an explicit reason. The first cancellation wins;
    /// later calls (any reason) are no-ops, so every checkpoint reports
    /// the original cause.
    pub fn cancel_with(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Cancelled => CANCELLED,
            CancelReason::DeadlineExceeded => DEADLINE,
            CancelReason::BudgetExceeded => BUDGET,
        };
        let _ = self.state.compare_exchange(LIVE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Has this token been cancelled (any reason)?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Relaxed) != LIVE
    }

    /// The recorded cancellation reason, or `None` while live.
    #[inline]
    pub fn reason(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            BUDGET => Some(CancelReason::BudgetExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn clones_share_state_and_first_reason_sticks() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel_with(CancelReason::DeadlineExceeded);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // A later cancel does not overwrite the original cause.
        t.cancel();
        assert_eq!(c.reason(), Some(CancelReason::DeadlineExceeded));
    }
}
