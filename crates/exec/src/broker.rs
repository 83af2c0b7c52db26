//! The memory broker: the policy layer between per-query memory budgets
//! and the spill-capable operators.
//!
//! [`Governor`](crate::govern::Governor) budget checks are a *backstop*:
//! when tracked usage exceeds the budget the query dies with
//! [`ExecError::BudgetExceeded`](crate::error::ExecError). Before this
//! module, any query whose working set exceeded its budget died. The
//! [`MemoryBroker`] turns the budget into a *soft ceiling operators can
//! duck under*: spill-capable operators (the hash join's build, the hash
//! aggregate's table) ask the broker before each state-growing step, and
//! when the broker signals pressure they route what no longer fits into
//! partitions that **freeze** — serialize the largest resident ones to
//! temp files via `bdcc_storage::spill` and release the memory — then
//! **restore** partitions one at a time during their output phase,
//! recursing if a single partition is still too big.
//!
//! # The pressure/freeze/restore/cleanup contract
//!
//! This module only answers questions; the one implementation of what
//! operators do with the answers is the partition-spill core
//! (`crates/exec/src/spill.rs`), whose module docs pin order, stability,
//! accounting and file lifetime. The broker's side of it:
//!
//! * **Pressure** is advisory and conservative: [`should_spill`] fires
//!   when `tracked current + pending` would cross the high-water mark
//!   (¾ of budget), leaving headroom so the governor's hard check —
//!   which fires strictly *above* budget — is never reached by an
//!   operator that heeds the broker. [`release_target`] tells a freezing
//!   operator how many bytes to shed (down to the ½-budget low-water
//!   mark) so freezes are batched, not byte-at-a-time thrash.
//! * **Restore is budgeted too**: a frozen partition whose footprint
//!   exceeds [`restore_limit`] is *recursed* — re-partitioned on deeper
//!   hash bits — never loaded whole.
//! * **Cleanup is RAII**: spill handles unlink their temp files on drop,
//!   so governor trips (cancel/deadline/budget) that unwind the operator
//!   tree remove every temp file with no broker involvement.
//! * **Determinism**: the broker only decides *where* state lives, never
//!   what is computed. Each partition's rows are replayed in original
//!   stream order on restore, so results are byte-identical to
//!   in-memory execution (asserted by `tests/spill_equivalence.rs`).
//!
//! # Modes
//!
//! `BDCC_SPILL` selects the process's mode — it is the lever CI's
//! forced-spill configurations pull to push every suite through the
//! out-of-core paths, and the only engine environment variable that
//! changes how a query executes. `QueryContext::with_spill` pins the mode
//! for one query, whatever the environment says. There is no
//! process-wide setter.
//!
//! * `auto` (default) — spill under pressure, only when a budget is set;
//! * `force` — every spill-capable operator spills everything (tiny
//!   working sets included), exercising the out-of-core paths;
//! * `off` / `0` / `false` — never spill; over-budget queries fail with
//!   `BudgetExceeded` exactly as before this module.
//!
//! [`should_spill`]: MemoryBroker::should_spill
//! [`release_target`]: MemoryBroker::release_target
//! [`restore_limit`]: MemoryBroker::restore_limit

use std::sync::Arc;

use crate::memory::MemoryTracker;

/// When spill-capable operators move state to temp files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillMode {
    /// Spill everything, regardless of pressure (testing / validation).
    Force,
    /// Spill when tracked usage approaches the query budget.
    Auto,
    /// Never spill; over-budget queries fail with `BudgetExceeded`.
    Off,
}

/// The process's spill mode: `BDCC_SPILL` from the environment, else
/// `Auto`.
pub fn spill_mode() -> SpillMode {
    match std::env::var("BDCC_SPILL") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "force" => SpillMode::Force,
            "off" | "0" | "false" => SpillMode::Off,
            _ => SpillMode::Auto,
        },
        Err(_) => SpillMode::Auto,
    }
}

/// High-water mark: pressure fires when `current + pending` would cross
/// ¾ of budget, leaving headroom below the governor's hard check.
fn high_water(budget: u64) -> u64 {
    budget - budget / 4
}

/// Low-water mark: a freeze sheds bytes until usage is at most ½ budget.
fn low_water(budget: u64) -> u64 {
    budget / 2
}

#[derive(Debug)]
struct BrokerInner {
    mode: SpillMode,
    budget: Option<u64>,
    tracker: Arc<MemoryTracker>,
}

/// Cheap cloneable pressure oracle handed to spill-capable operators;
/// inert by default (no budget, mode `Off`, or `Auto` without a
/// budget). See the [module docs](self) for the full contract.
#[derive(Debug, Clone, Default)]
pub struct MemoryBroker {
    inner: Option<Arc<BrokerInner>>,
}

impl MemoryBroker {
    /// An inert broker: [`should_spill`](Self::should_spill) is always
    /// false and operators keep their pure in-memory paths.
    pub fn none() -> MemoryBroker {
        MemoryBroker::default()
    }

    /// A broker for one query: `budget` is the query's byte budget (if
    /// any), `tracker` the query-level root its usage is read from.
    /// `Auto` without a budget — and `Off` always — yield an inert broker.
    pub fn with_mode(
        mode: SpillMode,
        tracker: &Arc<MemoryTracker>,
        budget: Option<u64>,
    ) -> MemoryBroker {
        let active = match mode {
            SpillMode::Force => true,
            SpillMode::Auto => budget.is_some(),
            SpillMode::Off => false,
        };
        if !active {
            return MemoryBroker::none();
        }
        MemoryBroker {
            inner: Some(Arc::new(BrokerInner { mode, budget, tracker: Arc::clone(tracker) })),
        }
    }

    /// Whether spill paths should be wired up at all. Inactive brokers
    /// leave operators on their in-memory paths; an active one is also
    /// what keeps the planner off per-morsel partial aggregation
    /// ([`crate::parallel::ParallelAggregate`]), which has no state to
    /// shed, in favour of the spilling
    /// [`HashAggregate`](crate::ops::agg::HashAggregate).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This broker's mode (`Off` when inert).
    pub fn mode(&self) -> SpillMode {
        self.inner.as_ref().map(|i| i.mode).unwrap_or(SpillMode::Off)
    }

    /// Should an operator about to hold `pending` more bytes freeze
    /// state first? `Force` always says yes; `Auto` says yes when
    /// `current + pending` crosses the high-water mark.
    pub fn should_spill(&self, pending: u64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        match inner.mode {
            SpillMode::Force => true,
            SpillMode::Off => false,
            SpillMode::Auto => match inner.budget {
                Some(budget) => {
                    inner.tracker.current().saturating_add(pending) > high_water(budget)
                }
                None => false,
            },
        }
    }

    /// Would holding `pending` more bytes take tracked usage over the
    /// budget (the governor's hard check)? `false` without a budget.
    pub fn over_budget(&self, pending: u64) -> bool {
        let Some(inner) = &self.inner else { return false };
        inner.budget.is_some_and(|b| inner.tracker.current().saturating_add(pending) > b)
    }

    /// How many tracked bytes a freeze should release to reach the
    /// low-water mark (0 when already under it, `u64::MAX` under
    /// `Force` — shed everything sheddable).
    pub fn release_target(&self) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        match (inner.mode, inner.budget) {
            (SpillMode::Force, _) => u64::MAX,
            (_, Some(budget)) => inner.tracker.current().saturating_sub(low_water(budget)),
            _ => 0,
        }
    }

    /// The per-partition resident ceiling for restores: a frozen
    /// partition estimated above this must be recursed (split on deeper
    /// hash bits), not loaded whole. Under `Force` with no budget the
    /// ceiling is unbounded — forced spills validate the freeze/restore
    /// round-trip, not recursion.
    pub fn restore_limit(&self) -> u64 {
        match self.inner.as_ref().and_then(|i| i.budget) {
            Some(budget) => low_water(budget).max(1),
            None => u64::MAX,
        }
    }
}

/// Serialises the unit tests that spill or assert on the process-wide
/// `bdcc_storage::live_spill_files()` count: held for the whole test, so
/// one test's temp files are never another's "leak".
#[cfg(test)]
pub(crate) fn spill_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed spill test poisons the lock; the rest must still run.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_budget_in_auto() {
        let t = MemoryTracker::new();
        let b = MemoryBroker::with_mode(SpillMode::Auto, &t, None);
        assert!(!b.is_active());
        assert!(!b.should_spill(u64::MAX));
        assert_eq!(b.release_target(), 0);
    }

    #[test]
    fn off_is_always_inert() {
        let t = MemoryTracker::new();
        let b = MemoryBroker::with_mode(SpillMode::Off, &t, Some(100));
        assert!(!b.is_active());
        assert!(!b.should_spill(u64::MAX));
    }

    #[test]
    fn force_spills_everything() {
        let t = MemoryTracker::new();
        let b = MemoryBroker::with_mode(SpillMode::Force, &t, None);
        assert!(b.is_active());
        assert!(b.should_spill(0));
        assert_eq!(b.release_target(), u64::MAX);
        assert_eq!(b.restore_limit(), u64::MAX);
    }

    #[test]
    fn auto_pressure_fires_at_high_water() {
        let t = MemoryTracker::new();
        let b = MemoryBroker::with_mode(SpillMode::Auto, &t, Some(1000));
        // High water = 750: 700 + 50 stays under, +51 crosses.
        t.grow(700);
        assert!(!b.should_spill(50));
        assert!(b.should_spill(51));
        // Release target drains down to low water (500).
        assert_eq!(b.release_target(), 200);
        t.shrink(300);
        assert_eq!(b.release_target(), 0, "under low water: nothing to shed");
        assert_eq!(b.restore_limit(), 500);
        t.shrink(400);
    }

    #[test]
    fn pending_overflow_is_saturating() {
        let t = MemoryTracker::new();
        let b = MemoryBroker::with_mode(SpillMode::Auto, &t, Some(1000));
        t.grow(10);
        assert!(b.should_spill(u64::MAX), "saturating add, not wrap");
        t.shrink(10);
    }
}
