//! Probabilistic fault injection for robustness testing.
//!
//! A [`FaultInjector`] rolls a deterministic per-process RNG at
//! well-known *sites* (pool job boundaries, operator morsel loops) and
//! occasionally produces a [`Fault`]: an artificial delay, a simulated
//! I/O error, or a worker panic. Probabilities come from a
//! [`FaultPlan`], normally parsed from the `BDCC_INJECT` environment
//! variable:
//!
//! ```text
//! BDCC_INJECT="delay=0.05,delay_us=200,err=0.02,panic=0.005,seed=42"
//! ```
//!
//! * `delay` — probability a checkpoint sleeps for `delay_us` µs;
//! * `err` — probability a checkpoint reports a simulated I/O error;
//! * `panic` — probability a checkpoint (or pool job) panics;
//! * `seed` — RNG seed, so a failing stress run can be replayed.
//!
//! Injection is **opt-in at every level**. The pool never reads the
//! environment on its own: a process that wants faults at pool-job
//! boundaries calls [`install_global`] explicitly, and query-level
//! injection is threaded through the executor's governor via a builder
//! API. This keeps ordinary builds fault-free even when tests in the same
//! process are injecting faults elsewhere.
//!
//! Set-up's fan-outs are not pool jobs: they run on scoped threads
//! ([`crate::scoped`]), so a global injector rolls its dice only at the
//! morsels of parallel queries, whenever it was installed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A fault chosen by the injector at some checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Report a simulated (recoverable) I/O error.
    Error(String),
    /// Panic with the given message (exercises unwind paths).
    Panic(String),
}

/// Fault probabilities in parts-per-million, plus the RNG seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Probability of an injected delay, in parts per million.
    pub delay_ppm: u32,
    /// Duration of an injected delay, in microseconds.
    pub delay_us: u64,
    /// Probability of a simulated I/O error, in parts per million.
    pub err_ppm: u32,
    /// Probability of an injected panic, in parts per million.
    pub panic_ppm: u32,
    /// RNG seed; fixed so stress failures replay deterministically.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan { delay_ppm: 0, delay_us: 100, err_ppm: 0, panic_ppm: 0, seed: 0x5eed_f417 }
    }
}

fn prob_to_ppm(key: &str, v: &str) -> Result<u32, String> {
    let p: f64 = v.parse().map_err(|_| format!("BDCC_INJECT: `{key}={v}` is not a number"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("BDCC_INJECT: `{key}={v}` must be a probability in [0, 1]"));
    }
    Ok((p * 1_000_000.0).round() as u32)
}

impl FaultPlan {
    /// Parse a `key=value` comma-separated spec (the `BDCC_INJECT`
    /// format documented on this module). Unknown keys are rejected so
    /// a typo'd axis fails loudly instead of silently injecting nothing.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("BDCC_INJECT: expected key=value, got `{part}`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "delay" => plan.delay_ppm = prob_to_ppm(key, value)?,
                "err" => plan.err_ppm = prob_to_ppm(key, value)?,
                "panic" => plan.panic_ppm = prob_to_ppm(key, value)?,
                "delay_us" => {
                    plan.delay_us = value
                        .parse()
                        .map_err(|_| format!("BDCC_INJECT: `delay_us={value}` is not an integer"))?
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("BDCC_INJECT: `seed={value}` is not an integer"))?
                }
                _ => return Err(format!("BDCC_INJECT: unknown key `{key}`")),
            }
        }
        if plan.delay_ppm as u64 + plan.err_ppm as u64 + plan.panic_ppm as u64 > 1_000_000 {
            return Err("BDCC_INJECT: delay + err + panic probabilities exceed 1.0".to_string());
        }
        Ok(plan)
    }

    /// Read the plan from `BDCC_INJECT`; `Ok(None)` when unset/empty.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("BDCC_INJECT") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    fn total_ppm(&self) -> u32 {
        self.delay_ppm + self.err_ppm + self.panic_ppm
    }
}

/// Rolls the plan's probabilities at checkpoints. One shared atomic
/// xorshift RNG keeps the fault sequence deterministic per seed
/// regardless of which thread hits a checkpoint (the *assignment* of
/// faults to sites still varies with scheduling, as it should).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: AtomicU64,
    delays: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        // xorshift needs a non-zero state.
        let state = plan.seed | 1;
        FaultInjector {
            plan,
            rng: AtomicU64::new(state),
            delays: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// (delays, simulated errors, panics) injected so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.delays.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.panics.load(Ordering::Relaxed),
        )
    }

    fn next_ppm(&self) -> u32 {
        // Relaxed fetch_update xorshift64: racy interleavings only
        // reorder the stream, every draw still comes from it.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        (x % 1_000_000) as u32
    }

    /// Roll the dice at a checkpoint. `allow_error` is false at sites
    /// that have no error channel (pool job boundaries), where the
    /// error share of the roll is skipped rather than repurposed.
    pub fn fault_at(&self, site: &'static str, allow_error: bool) -> Option<Fault> {
        if self.plan.total_ppm() == 0 {
            return None;
        }
        let roll = self.next_ppm();
        if roll < self.plan.delay_ppm {
            self.delays.fetch_add(1, Ordering::Relaxed);
            return Some(Fault::Delay(Duration::from_micros(self.plan.delay_us)));
        }
        let roll = roll - self.plan.delay_ppm;
        if roll < self.plan.err_ppm {
            if !allow_error {
                return None;
            }
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Some(Fault::Error(format!("injected i/o error at {site}")));
        }
        let roll = roll - self.plan.err_ppm;
        if roll < self.plan.panic_ppm {
            self.panics.fetch_add(1, Ordering::Relaxed);
            return Some(Fault::Panic(format!("injected panic at {site}")));
        }
        None
    }

    /// Checkpoint for sites with no error channel: applies a delay
    /// inline, panics on an injected panic, ignores the error share.
    pub fn job_boundary(&self, site: &'static str) {
        match self.fault_at(site, false) {
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Panic(msg)) => panic!("{msg}"),
            _ => {}
        }
    }
}

static GLOBAL: OnceLock<Arc<FaultInjector>> = OnceLock::new();

/// Install a process-global injector consulted at pool-job boundaries.
/// First call wins; returns `false` if one was already installed.
/// Never installed implicitly — see the module docs.
pub fn install_global(injector: Arc<FaultInjector>) -> bool {
    GLOBAL.set(injector).is_ok()
}

/// The process-global injector, if [`install_global`] was called.
pub fn global() -> Option<&'static Arc<FaultInjector>> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("delay=0.05, delay_us=200, err=0.02, panic=0.005, seed=42")
            .expect("valid spec");
        assert_eq!(p.delay_ppm, 50_000);
        assert_eq!(p.delay_us, 200);
        assert_eq!(p.err_ppm, 20_000);
        assert_eq!(p.panic_ppm, 5_000);
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultPlan::parse("delay=2").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("delay").is_err());
        assert!(FaultPlan::parse("delay=0.9,err=0.9").is_err());
        assert!(FaultPlan::parse("").expect("empty is default").total_ppm() == 0);
    }

    #[test]
    fn injector_respects_probabilities() {
        let mut plan = FaultPlan::parse("err=0.5,seed=7").unwrap();
        plan.delay_us = 0;
        let inj = FaultInjector::new(plan);
        let mut errs = 0;
        for _ in 0..10_000 {
            match inj.fault_at("test", true) {
                Some(Fault::Error(msg)) => {
                    assert!(msg.contains("test"));
                    errs += 1;
                }
                Some(other) => panic!("unexpected fault {other:?}"),
                None => {}
            }
        }
        // 50% ± generous slack; xorshift is uniform enough for this.
        assert!((3_500..=6_500).contains(&errs), "errs = {errs}");
        assert_eq!(inj.counts().1, errs);
    }

    #[test]
    fn error_share_skipped_without_error_channel() {
        let plan = FaultPlan::parse("err=1.0,seed=3").unwrap();
        let inj = FaultInjector::new(plan);
        for _ in 0..100 {
            assert_eq!(inj.fault_at("pool", false), None);
        }
        assert_eq!(inj.counts(), (0, 0, 0));
    }

    #[test]
    fn zero_plan_is_free_of_faults() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(inj.fault_at("x", true), None);
        }
    }
}
