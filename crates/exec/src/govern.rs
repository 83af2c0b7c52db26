//! Per-query limits: cooperative cancellation, deadlines, the memory
//! budget and the spill policy under it, and fault injection.
//!
//! A [`Governor`] is the query-side counterpart of the serving layer's
//! admission control, and the one handle on a query's limits. It is
//! carried by [`QueryContext`](crate::planner::QueryContext), handed to
//! operators in their [`OpEnv`](crate::ops::OpEnv), and consulted at every
//! morsel-grained checkpoint — streaming-scan producers, probe rounds,
//! aggregation tasks, sandwich group merges, and (via [`GovernedOp`])
//! each batch pulled through the plan root. One `check` call decides,
//! in priority order:
//!
//! 1. **cancellation** — the shared [`CancelToken`] was tripped (by a
//!    client, the deadline, or the budget — the token remembers which);
//! 2. **deadline** — `Instant::now()` passed the query's deadline;
//! 3. **budget** — the query's [`MemoryTracker`] current usage exceeds
//!    its byte budget;
//! 4. **injection** — an installed [`FaultInjector`] rolled a fault at
//!    this site (delay → sleep, error → `ExecError::Injected`, panic →
//!    a real panic exercising the pool's unwind machinery).
//!
//! Deadline and budget violations also trip the token, so every worker
//! of the fan-out unwinds with the *same* typed reason no matter which
//! checkpoint it reaches first. The default `Governor` is inert
//! (`None` inside) and costs one branch per checkpoint, so an ungoverned
//! plan carries no checkpoint wrapper at all.
//!
//! # Spilling under the budget
//!
//! The budget check above is a *backstop*: a query whose tracked usage
//! exceeds its budget dies with
//! [`ExecError::BudgetExceeded`](crate::error::ExecError). The governor
//! also turns the budget into a *soft ceiling operators can duck under*:
//! the spill-capable operators (the hash join's build, the hash
//! aggregate's table) ask it before each state-growing step, and when it
//! signals pressure they route what no longer fits into partitions that
//! **freeze** — serialize the largest resident ones to temp files via
//! `bdcc_storage::spill` and release the memory — then **restore**
//! partitions one at a time during their output phase, recursing if a
//! single partition is still too big.
//!
//! The governor only answers questions; the one implementation of what
//! operators do with the answers is the partition-spill core
//! (`crates/exec/src/spill.rs`), whose module docs pin order, stability,
//! accounting and file lifetime. The governor's side of it:
//!
//! * **Pressure** is advisory and conservative: [`should_spill`] fires
//!   when `tracked current + pending` would cross the high-water mark
//!   (¾ of budget), leaving headroom so the hard check — which fires
//!   strictly *above* budget — is never reached by an operator that
//!   heeds it. [`release_target`] tells a freezing operator how many
//!   bytes to shed (down to the ½-budget low-water mark) so freezes are
//!   batched, not byte-at-a-time thrash; [`over_budget`] says whether
//!   holding a chunk would cross the budget itself.
//! * **Restore is budgeted too**: a frozen partition whose footprint
//!   exceeds [`restore_limit`] is *recursed* — re-partitioned on deeper
//!   hash bits — never loaded whole.
//! * **Cleanup is RAII**: spill handles unlink their temp files on drop,
//!   so governor trips (cancel/deadline/budget) that unwind the operator
//!   tree remove every temp file.
//! * **Determinism**: the spill policy only decides *where* state lives,
//!   never what is computed. Each partition's rows are replayed in
//!   original stream order on restore, so results are byte-identical to
//!   in-memory execution (asserted by `tests/spill_equivalence.rs`).
//!
//! ## Modes
//!
//! `BDCC_SPILL` selects the process's [`SpillMode`], read by
//! [`spill_mode`] once per query context — it is the lever CI's
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
//!   `BudgetExceeded`.
//!
//! The mode sits beside the limits, not among them: a mode on its own
//! imposes no limit, so an unbudgeted `force` query is still ungoverned
//! ([`is_active`](Governor::is_active) is false) and gets no checkpoint
//! wrapper. Whether a query spills at all is [`spills`](Governor::spills).
//!
//! [`should_spill`]: Governor::should_spill
//! [`release_target`]: Governor::release_target
//! [`over_budget`]: Governor::over_budget
//! [`restore_limit`]: Governor::restore_limit

use std::sync::Arc;
use std::time::Instant;

use bdcc_pool::{CancelReason, CancelToken, Fault, FaultInjector};

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::memory::MemoryTracker;
use crate::ops::{BoxedOp, Operator};

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
/// ¾ of budget, leaving headroom below the hard check.
fn high_water(budget: u64) -> u64 {
    budget - budget / 4
}

/// Low-water mark: a freeze sheds bytes until usage is at most ½ budget.
fn low_water(budget: u64) -> u64 {
    budget / 2
}

/// The limits of one governed query. Cloned on write (`Arc::make_mut`)
/// by the `QueryContext` builder methods.
#[derive(Debug, Clone)]
struct GovInner {
    token: CancelToken,
    deadline: Option<Instant>,
    budget: Option<u64>,
    /// The tracker whose `current()` the budget is checked against —
    /// the query-level root, so every operator byte counts.
    tracker: Arc<MemoryTracker>,
    injector: Option<Arc<FaultInjector>>,
}

/// Cheap cloneable handle to a query's limits and its spill mode; inert
/// by default. See the [module docs](self) for the checkpoint and spill
/// contracts.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Option<Arc<GovInner>>,
    /// Beside the limits, not among them: a mode alone governs nothing.
    spill: SpillMode,
}

impl Governor {
    /// An inert governor (every check passes; one branch of overhead) that
    /// never spills.
    pub fn none() -> Governor {
        Governor { inner: None, spill: SpillMode::Off }
    }

    /// Does this governor impose any limit? Planner wrapping and
    /// operator checkpoints are installed only when this is true, so
    /// ungoverned plans are structurally unchanged. The spill mode is not
    /// a limit.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The query's cancel token, if governed.
    pub fn token(&self) -> Option<CancelToken> {
        self.inner.as_ref().map(|i| i.token.clone())
    }

    /// The query's memory budget in bytes, if one is set.
    pub fn budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.budget)
    }

    /// The query's spill mode, as read or pinned.
    pub fn spill_mode(&self) -> SpillMode {
        self.spill
    }

    /// Do spill-capable operators take their spill paths at all? `Force`
    /// always, `Auto` under a budget, `Off` never. When false every
    /// question below answers "no", and the planner may build operators
    /// that cannot shed state ([`crate::parallel::ParallelAggregate`]).
    pub fn spills(&self) -> bool {
        match self.spill {
            SpillMode::Force => true,
            SpillMode::Auto => self.budget().is_some(),
            SpillMode::Off => false,
        }
    }

    /// Tracked usage once `pending` more bytes are held, and the budget
    /// (`None` without one).
    fn usage_with(&self, pending: u64) -> Option<(u64, u64)> {
        let inner = self.inner.as_ref()?;
        Some((inner.tracker.current().saturating_add(pending), inner.budget?))
    }

    /// Should an operator about to hold `pending` more bytes freeze
    /// state first? `Force` always says yes; `Auto` says yes when
    /// `current + pending` crosses the high-water mark.
    pub fn should_spill(&self, pending: u64) -> bool {
        match self.spill {
            SpillMode::Force => true,
            SpillMode::Auto => self.usage_with(pending).is_some_and(|(u, b)| u > high_water(b)),
            SpillMode::Off => false,
        }
    }

    /// Would holding `pending` more bytes take tracked usage over the
    /// budget (the hard check)? `false` without a budget or when the query
    /// does not spill.
    pub fn over_budget(&self, pending: u64) -> bool {
        self.spill != SpillMode::Off && self.usage_with(pending).is_some_and(|(u, b)| u > b)
    }

    /// How many tracked bytes a freeze should release to reach the
    /// low-water mark (0 when already under it, `u64::MAX` under
    /// `Force` — shed everything sheddable).
    pub fn release_target(&self) -> u64 {
        match self.spill {
            SpillMode::Force => u64::MAX,
            SpillMode::Auto => {
                self.usage_with(0).map_or(0, |(u, b)| u.saturating_sub(low_water(b)))
            }
            SpillMode::Off => 0,
        }
    }

    /// The per-partition resident ceiling for restores: a frozen
    /// partition estimated above this must be recursed (split on deeper
    /// hash bits), not loaded whole. Without a budget the ceiling is
    /// unbounded — forced spills validate the freeze/restore round-trip,
    /// not recursion.
    pub fn restore_limit(&self) -> u64 {
        match (self.spill, self.budget()) {
            (SpillMode::Off, _) | (_, None) => u64::MAX,
            (_, Some(budget)) => low_water(budget).max(1),
        }
    }

    fn materialize(&mut self, tracker: &Arc<MemoryTracker>) -> &mut GovInner {
        let inner = self.inner.get_or_insert_with(|| {
            Arc::new(GovInner {
                token: CancelToken::new(),
                deadline: None,
                budget: None,
                tracker: Arc::clone(tracker),
                injector: None,
            })
        });
        Arc::make_mut(inner)
    }

    /// Attach an externally held cancel token.
    pub fn set_cancel(&mut self, token: CancelToken, tracker: &Arc<MemoryTracker>) {
        self.materialize(tracker).token = token;
    }

    /// Set an absolute deadline.
    pub fn set_deadline(&mut self, at: Instant, tracker: &Arc<MemoryTracker>) {
        self.materialize(tracker).deadline = Some(at);
    }

    /// Set a tracked-memory budget in bytes.
    pub fn set_budget(&mut self, bytes: u64, tracker: &Arc<MemoryTracker>) {
        self.materialize(tracker).budget = Some(bytes);
    }

    /// Pin the spill mode (the context reads `BDCC_SPILL` into it once).
    pub fn set_spill(&mut self, mode: SpillMode) {
        self.spill = mode;
    }

    /// Attach a fault injector consulted at every checkpoint.
    pub fn set_injector(&mut self, injector: Arc<FaultInjector>, tracker: &Arc<MemoryTracker>) {
        self.materialize(tracker).injector = Some(injector);
    }

    /// One checkpoint: cancellation, deadline, budget, then injection —
    /// see the [module docs](self). `site` names the call site in
    /// injected-fault messages.
    pub fn check(&self, site: &'static str) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(reason) = inner.token.reason() {
            return Err(reason_error(reason, inner));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.token.cancel_with(CancelReason::DeadlineExceeded);
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if let Some(budget) = inner.budget {
            let used = inner.tracker.current();
            if used > budget {
                inner.token.cancel_with(CancelReason::BudgetExceeded);
                return Err(ExecError::BudgetExceeded { used, budget });
            }
        }
        if let Some(injector) = &inner.injector {
            match injector.fault_at(site, true) {
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                Some(Fault::Error(msg)) => return Err(ExecError::Injected(msg)),
                Some(Fault::Panic(msg)) => panic!("{msg}"),
                None => {}
            }
        }
        Ok(())
    }
}

/// The typed error for a tripped token. Budget trips re-read the
/// tracker: the number is a best-effort snapshot for the message, the
/// *decision* was made by whichever checkpoint tripped the token.
fn reason_error(reason: CancelReason, inner: &GovInner) -> ExecError {
    match reason {
        CancelReason::Cancelled => ExecError::Cancelled,
        CancelReason::DeadlineExceeded => ExecError::DeadlineExceeded,
        CancelReason::BudgetExceeded => ExecError::BudgetExceeded {
            used: inner.tracker.current(),
            budget: inner.budget.unwrap_or(0),
        },
    }
}

/// Checkpoint wrapper installed by the planner at the plan root of
/// governed queries only: polls the governor before every batch, so even
/// an all-serial plan observes cancellation at batch granularity (inline
/// leaf scans poll per batch themselves, at `scan-batch`).
pub struct GovernedOp {
    input: BoxedOp,
    governor: Governor,
    site: &'static str,
}

impl GovernedOp {
    pub fn new(input: BoxedOp, governor: Governor, site: &'static str) -> GovernedOp {
        GovernedOp { input, governor, site }
    }
}

impl Operator for GovernedOp {
    fn schema(&self) -> &OpSchema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.governor.check(self.site)?;
        self.input.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn governed(
        f: impl FnOnce(&mut Governor, &Arc<MemoryTracker>),
    ) -> (Governor, Arc<MemoryTracker>) {
        let tracker = MemoryTracker::new();
        let mut g = Governor::none();
        f(&mut g, &tracker);
        (g, tracker)
    }

    #[test]
    fn inert_governor_always_passes() {
        let g = Governor::none();
        assert!(!g.is_active());
        assert_eq!(g.check("x"), Ok(()));
    }

    #[test]
    fn cancel_token_trips_checkpoints() {
        let token = CancelToken::new();
        let (g, _t) = governed(|g, t| g.set_cancel(token.clone(), t));
        assert_eq!(g.check("x"), Ok(()));
        token.cancel();
        assert_eq!(g.check("x"), Err(ExecError::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_and_cancels_the_token() {
        let (g, _t) = governed(|g, t| g.set_deadline(Instant::now() - Duration::from_millis(1), t));
        assert_eq!(g.check("x"), Err(ExecError::DeadlineExceeded));
        // The trip is sticky: the token now reports the same reason.
        assert_eq!(g.check("x"), Err(ExecError::DeadlineExceeded));
        assert_eq!(g.token().unwrap().reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn over_budget_trips_with_usage_numbers() {
        let (g, tracker) = governed(|g, t| g.set_budget(100, t));
        tracker.grow(60);
        assert_eq!(g.check("x"), Ok(()));
        tracker.grow(60);
        assert_eq!(g.check("x"), Err(ExecError::BudgetExceeded { used: 120, budget: 100 }));
        tracker.shrink(120);
    }

    /// A governor under `mode`, with `budget` over `t` if any.
    fn spilling(mode: SpillMode, t: &Arc<MemoryTracker>, budget: Option<u64>) -> Governor {
        let mut g = Governor::none();
        g.set_spill(mode);
        if let Some(bytes) = budget {
            g.set_budget(bytes, t);
        }
        g
    }

    #[test]
    fn a_spill_mode_alone_governs_nothing() {
        let t = MemoryTracker::new();
        for mode in [SpillMode::Force, SpillMode::Auto, SpillMode::Off] {
            let g = spilling(mode, &t, None);
            assert!(!g.is_active(), "{mode:?} alone imposes no limit");
            assert_eq!(g.spill_mode(), mode);
        }
        assert!(spilling(SpillMode::Force, &t, None).spills());
    }

    #[test]
    fn inert_without_budget_in_auto() {
        let t = MemoryTracker::new();
        let g = spilling(SpillMode::Auto, &t, None);
        assert!(!g.spills());
        assert!(!g.should_spill(u64::MAX));
        assert_eq!(g.release_target(), 0);
    }

    #[test]
    fn off_is_always_inert() {
        let t = MemoryTracker::new();
        let g = spilling(SpillMode::Off, &t, Some(100));
        assert!(!g.spills());
        assert!(!g.should_spill(u64::MAX));
    }

    #[test]
    fn force_spills_everything() {
        let t = MemoryTracker::new();
        let g = spilling(SpillMode::Force, &t, None);
        assert!(g.spills());
        assert!(g.should_spill(0));
        assert_eq!(g.release_target(), u64::MAX);
        assert_eq!(g.restore_limit(), u64::MAX);
    }

    #[test]
    fn auto_pressure_fires_at_high_water() {
        let t = MemoryTracker::new();
        let g = spilling(SpillMode::Auto, &t, Some(1000));
        // High water = 750: 700 + 50 stays under, +51 crosses.
        t.grow(700);
        assert!(!g.should_spill(50));
        assert!(g.should_spill(51));
        // Release target drains down to low water (500).
        assert_eq!(g.release_target(), 200);
        t.shrink(300);
        assert_eq!(g.release_target(), 0, "under low water: nothing to shed");
        assert_eq!(g.restore_limit(), 500);
        t.shrink(400);
    }

    #[test]
    fn pending_overflow_is_saturating() {
        let t = MemoryTracker::new();
        let g = spilling(SpillMode::Auto, &t, Some(1000));
        t.grow(10);
        assert!(g.should_spill(u64::MAX), "saturating add, not wrap");
        t.shrink(10);
    }

    #[test]
    fn injected_error_surfaces_typed() {
        let plan = bdcc_pool::FaultPlan::parse("err=1.0,seed=9").unwrap();
        let inj = Arc::new(FaultInjector::new(plan));
        let (g, _t) = governed(|g, t| g.set_injector(inj, t));
        match g.check("probe-round") {
            Err(ExecError::Injected(msg)) => assert!(msg.contains("probe-round")),
            other => panic!("expected injected error, got {other:?}"),
        }
    }
}
