//! Per-query governance: cooperative cancellation, deadlines, memory
//! budgets, and fault injection.
//!
//! A [`Governor`] is the query-side counterpart of the serving layer's
//! admission control. It is carried by
//! [`QueryContext`](crate::planner::QueryContext) and consulted at every
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
//! (`None` inside) and costs one branch per checkpoint, keeping
//! ungoverned execution byte-identical to the pre-serving code path.

use std::sync::Arc;
use std::time::Instant;

use bdcc_pool::{CancelReason, CancelToken, Fault, FaultInjector};

use crate::batch::{Batch, OpSchema};
use crate::error::{ExecError, Result};
use crate::memory::MemoryTracker;
use crate::ops::{BoxedOp, Operator};

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

/// Cheap cloneable handle to a query's limits; inert by default. See
/// the [module docs](self) for the checkpoint contract.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    inner: Option<Arc<GovInner>>,
}

impl Governor {
    /// An inert governor (every check passes; one branch of overhead).
    pub fn none() -> Governor {
        Governor::default()
    }

    /// Does this governor impose any limit? Planner wrapping and
    /// operator checkpoints are installed only when this is true, so
    /// ungoverned plans are structurally unchanged.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The query's cancel token, if governed.
    pub fn token(&self) -> Option<CancelToken> {
        self.inner.as_ref().map(|i| i.token.clone())
    }

    /// The query's memory budget in bytes, if one is set (what the
    /// [`MemoryBroker`](crate::broker::MemoryBroker) derives its
    /// pressure thresholds from).
    pub fn budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.budget)
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
