//! Resource governance for evaluation: budgets, deadlines, cancellation.
//!
//! Every fixpoint loop in the engine is potentially unbounded in the size
//! of its output — a hostile (or merely large) program can spin
//! [`Evaluator::evaluate`](crate::evaluator::Evaluator::evaluate) for
//! arbitrarily long, and so can the maintenance passes of a
//! [`MaterializedView`](crate::incremental::MaterializedView).
//! [`EvalLimits`] puts an enforced ceiling on all of them: attach limits
//! via
//! [`EvalOptions::limits`](crate::evaluator::EvalOptions::limits) and the
//! engines check them at amortized checkpoints (every few thousand
//! tuples considered, every fixpoint round, every stratum). A tripped limit surfaces as
//! [`EvalError::LimitExceeded`](crate::evaluator::EvalError::LimitExceeded)
//! carrying the work counters and — when the engine can guarantee
//! soundness — a *partial* result: the facts materialized so far, always
//! a subset of the full least fixpoint.
//!
//! # Shared meters
//!
//! An `EvalLimits` value owns a **meter**: the running totals of fuel
//! spent, facts derived, rounds executed and checkpoints passed. Clones
//! share the meter, so handing clones of one `EvalLimits` to several
//! sessions makes all their evaluations draw from a single budget.
//! [`EvalLimits::fresh`] copies the configuration with a new, zeroed
//! meter.
//!
//! ```
//! use mdtw_datalog::{EvalLimits, EvalError, EvalOptions, Evaluator, parse_program};
//! use mdtw_structure::{Domain, ElemId, Signature, Structure};
//! use std::sync::Arc;
//!
//! // A transitive-closure chain: n rounds to close, Θ(n²) facts.
//! let sig = Arc::new(Signature::from_pairs([("e", 2)]));
//! let mut s = Structure::new(Arc::clone(&sig), Domain::anonymous(64));
//! let e = sig.lookup("e").unwrap();
//! for i in 0..63u32 {
//!     s.insert(e, &[ElemId(i), ElemId(i + 1)]);
//! }
//! let p = parse_program(
//!     "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
//!     &s,
//! ).unwrap();
//!
//! let limits = EvalLimits::new().max_rounds(3);
//! let mut session =
//!     Evaluator::with_options(p, EvalOptions::new().limits(limits)).unwrap();
//! match session.evaluate(&s) {
//!     Err(EvalError::LimitExceeded { kind, stats, partial }) => {
//!         assert_eq!(kind, mdtw_datalog::LimitKind::Rounds);
//!         assert!(stats.rounds <= 4);
//!         // Graceful degradation: the partial store is a sound subset
//!         // of the full fixpoint (every fact in it is truly derivable).
//!         let partial = partial.expect("fixpoint engines return partials");
//!         assert!(partial.store.fact_count() > 0);
//!     }
//!     other => panic!("expected a limit trip, got {other:?}"),
//! }
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A cloneable cooperative cancellation handle (an `Arc<AtomicBool>`).
///
/// Hand one clone to [`EvalLimits::cancel_token`] and keep another; calling
/// [`CancelToken::cancel`] from any thread makes every evaluation governed
/// by those limits stop at its next checkpoint with
/// [`LimitKind::Cancelled`]. Cancellation is cooperative: the engine
/// notices at checkpoint granularity, not instantly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which resource limit an evaluation tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// [`EvalLimits::max_rounds`] — too many fixpoint rounds.
    Rounds,
    /// [`EvalLimits::max_derived_facts`] — too many derived facts.
    Facts,
    /// [`EvalLimits::deadline`] — the wall-clock deadline passed.
    Deadline,
    /// [`EvalLimits::fuel`] — the fuel budget ran out.
    Fuel,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The deterministic [`EvalLimits::trip_after_checks`] fault-injection
    /// hook fired (testing only).
    Injected,
}

impl LimitKind {
    /// A stable lowercase label (`"rounds"`, `"deadline"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            LimitKind::Rounds => "rounds",
            LimitKind::Facts => "facts",
            LimitKind::Deadline => "deadline",
            LimitKind::Fuel => "fuel",
            LimitKind::Cancelled => "cancelled",
            LimitKind::Injected => "injected",
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The shared running totals behind an [`EvalLimits`]. All clones of one
/// `EvalLimits` point at the same meter.
#[derive(Debug, Default)]
struct MeterState {
    /// Fuel units spent (1 unit ≈ one candidate tuple considered by a
    /// join, or one guard instantiation in the quasi-guarded pipeline).
    fuel_spent: AtomicU64,
    /// Facts derived (distinct tuples inserted into an IDB store).
    facts_derived: AtomicU64,
    /// Fixpoint rounds executed.
    rounds: AtomicU64,
    /// Checkpoints passed (round checks + amortized work checks).
    checks: AtomicU64,
    /// Stamped at the first checkpoint; deadline measures from here.
    started: OnceLock<Instant>,
}

/// Resource limits for evaluation, with a shared meter (see the
/// [module docs](self)). All limits are optional and compose; the default
/// value enforces nothing but still meters work (fuel spent, checkpoint
/// count), which costs one compare per candidate tuple plus a few atomic
/// adds every few thousand tuples.
///
/// Limits are **cumulative across everything sharing the meter**: all
/// strata of one evaluation, repeated `evaluate` calls on the same
/// session, and every session handed a clone of the same limits. Use
/// [`EvalLimits::fresh`] to reuse a configuration with a zeroed meter.
#[derive(Debug, Clone, Default)]
pub struct EvalLimits {
    max_rounds: Option<u64>,
    max_derived_facts: Option<u64>,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    trip_after: Option<u64>,
    cancel: Option<CancelToken>,
    meter: Arc<MeterState>,
}

impl EvalLimits {
    /// No limits enforced (metering only). Chain builders to add limits:
    ///
    /// ```
    /// use mdtw_datalog::EvalLimits;
    /// use std::time::Duration;
    ///
    /// let limits = EvalLimits::new()
    ///     .max_rounds(10_000)
    ///     .max_derived_facts(1_000_000)
    ///     .deadline(Duration::from_millis(250))
    ///     .fuel(50_000_000);
    /// assert!(limits.is_governed());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the total number of fixpoint rounds (summed over strata and
    /// everything else sharing the meter).
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds as u64);
        self
    }

    /// Caps the total number of derived facts. Enforced at checkpoint
    /// granularity: the evaluation stops at the first checkpoint *after*
    /// the cap is crossed, so the partial result may hold slightly more
    /// facts than the cap.
    pub fn max_derived_facts(mut self, facts: usize) -> Self {
        self.max_derived_facts = Some(facts as u64);
        self
    }

    /// Wall-clock budget, measured from the first checkpoint any governed
    /// evaluation passes (so an idle session does not burn its deadline).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Caps fuel: 1 unit ≈ one candidate tuple considered by a join (or
    /// one guard instantiation in the quasi-guarded pipeline). Fuel is
    /// the deterministic, machine-independent twin of
    /// [`EvalLimits::deadline`].
    pub fn fuel(mut self, units: u64) -> Self {
        self.fuel = Some(units);
        self
    }

    /// Attaches a cooperative [`CancelToken`]; keep a clone and call
    /// [`CancelToken::cancel`] to stop the evaluation at its next
    /// checkpoint.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Deterministic fault injection: trip with [`LimitKind::Injected`]
    /// at the `n`-th checkpoint (1-based; `0` behaves like `1`). Always
    /// compiled, intended for tests — sweeping `n` over
    /// [`EvalLimits::checks_spent`] of an untripped run exercises every
    /// trip point of an evaluation.
    pub fn trip_after_checks(mut self, n: u64) -> Self {
        self.trip_after = Some(n);
        self
    }

    /// The same configuration with a **new, zeroed meter** — unlike
    /// `clone()`, which shares the meter (and therefore the budget).
    pub fn fresh(&self) -> Self {
        EvalLimits {
            meter: Arc::new(MeterState::default()),
            ..self.clone()
        }
    }

    /// True when at least one limit is configured (the default value
    /// meters but never trips).
    pub fn is_governed(&self) -> bool {
        self.max_rounds.is_some()
            || self.max_derived_facts.is_some()
            || self.deadline.is_some()
            || self.fuel.is_some()
            || self.trip_after.is_some()
            || self.cancel.is_some()
    }

    /// Fuel units spent so far by everything sharing this meter.
    pub fn fuel_spent(&self) -> u64 {
        self.meter.fuel_spent.load(Ordering::Relaxed)
    }

    /// Checkpoints passed so far by everything sharing this meter — the
    /// sweep bound for [`EvalLimits::trip_after_checks`].
    pub fn checks_spent(&self) -> u64 {
        self.meter.checks.load(Ordering::Relaxed)
    }

    /// Facts derived so far by everything sharing this meter (charged at
    /// checkpoint granularity).
    pub fn facts_derived(&self) -> u64 {
        self.meter.facts_derived.load(Ordering::Relaxed)
    }
}

/// The per-engine-run governor: borrows an optional [`EvalLimits`] and
/// answers "should this run stop?" at two kinds of checkpoint.
///
/// * [`Governor::work`] — the hot-path check, called with the run's
///   monotone work counter (tuples considered). Costs one compare until
///   the counter crosses `next_check`, then runs a full checkpoint and
///   re-arms `CHECK_INTERVAL` further on.
/// * [`Governor::round`] — called once per fixpoint round (and per
///   stratum); always a full checkpoint.
///
/// A full checkpoint charges the work/fact deltas since the last one to
/// the shared meter and evaluates every configured limit. Once tripped,
/// the governor stays tripped; engines unwind and return their partial
/// store.
#[derive(Debug)]
pub(crate) struct Governor<'a> {
    limits: Option<&'a EvalLimits>,
    next_check: usize,
    charged_work: u64,
    charged_facts: u64,
    tripped: Option<LimitKind>,
}

/// Tuples considered between amortized hot-path checkpoints.
const CHECK_INTERVAL: usize = 4096;

impl<'a> Governor<'a> {
    /// A governor for one engine run. `None` disables every check (the
    /// hot path is a single always-false compare).
    pub(crate) fn new(limits: Option<&'a EvalLimits>) -> Self {
        Governor {
            limits,
            next_check: if limits.is_some() {
                CHECK_INTERVAL
            } else {
                usize::MAX
            },
            charged_work: 0,
            charged_facts: 0,
            tripped: None,
        }
    }

    /// The hot-path amortized check. `work_done` must be monotone over
    /// this governor's lifetime (a run's `tuples_considered`).
    #[inline]
    pub(crate) fn work(&mut self, work_done: usize, facts: usize) -> bool {
        if work_done < self.next_check {
            return false;
        }
        self.next_check = work_done.saturating_add(CHECK_INTERVAL);
        self.checkpoint(work_done, facts)
    }

    /// The per-round / per-stratum check; counts a fixpoint round.
    pub(crate) fn round(&mut self, work_done: usize, facts: usize) -> bool {
        let Some(limits) = self.limits else {
            return false;
        };
        limits.meter.rounds.fetch_add(1, Ordering::Relaxed);
        self.checkpoint(work_done, facts)
    }

    /// The limit this governor tripped on, if any.
    pub(crate) fn tripped(&self) -> Option<LimitKind> {
        self.tripped
    }

    /// Full checkpoint: charge deltas to the meter, evaluate every limit.
    fn checkpoint(&mut self, work_done: usize, facts: usize) -> bool {
        if self.tripped.is_some() {
            return true;
        }
        let Some(limits) = self.limits else {
            return false;
        };
        let meter = &*limits.meter;
        let checks = meter.checks.fetch_add(1, Ordering::Relaxed) + 1;
        let delta_work = (work_done as u64).saturating_sub(self.charged_work);
        self.charged_work = work_done as u64;
        let fuel_spent = meter.fuel_spent.fetch_add(delta_work, Ordering::Relaxed) + delta_work;
        let delta_facts = (facts as u64).saturating_sub(self.charged_facts);
        self.charged_facts = facts as u64;
        let facts_total = meter
            .facts_derived
            .fetch_add(delta_facts, Ordering::Relaxed)
            + delta_facts;

        self.tripped = if limits.trip_after.is_some_and(|n| checks >= n.max(1)) {
            Some(LimitKind::Injected)
        } else if limits
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            Some(LimitKind::Cancelled)
        } else if limits
            .max_rounds
            .is_some_and(|n| meter.rounds.load(Ordering::Relaxed) > n)
        {
            Some(LimitKind::Rounds)
        } else if limits.max_derived_facts.is_some_and(|n| facts_total > n) {
            Some(LimitKind::Facts)
        } else if limits.fuel.is_some_and(|n| fuel_spent > n) {
            Some(LimitKind::Fuel)
        } else if limits
            .deadline
            .is_some_and(|d| meter.started.get_or_init(Instant::now).elapsed() > d)
        {
            Some(LimitKind::Deadline)
        } else {
            None
        };
        self.tripped.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_governor_never_checks() {
        let mut gov = Governor::new(None);
        assert!(!gov.work(usize::MAX - 1, 0));
        assert!(!gov.round(10, 10));
        assert_eq!(gov.tripped(), None);
    }

    #[test]
    fn default_limits_meter_without_tripping() {
        let limits = EvalLimits::new();
        assert!(!limits.is_governed());
        let mut gov = Governor::new(Some(&limits));
        for step in 1..10usize {
            assert!(!gov.round(step * 10_000, step));
        }
        assert_eq!(limits.fuel_spent(), 90_000);
        assert_eq!(limits.facts_derived(), 9);
        assert_eq!(limits.checks_spent(), 9);
    }

    #[test]
    fn clones_share_the_meter_and_fresh_detaches() {
        let limits = EvalLimits::new().fuel(100);
        let shared = limits.clone();
        let mut gov = Governor::new(Some(&shared));
        assert!(!gov.round(60, 0));
        // A second governor on the original: the meter already holds 60,
        // so another 60 trips the shared 100-unit budget.
        let mut gov2 = Governor::new(Some(&limits));
        assert!(gov2.round(60, 0));
        assert_eq!(gov2.tripped(), Some(LimitKind::Fuel));
        // fresh() starts from zero.
        let detached = limits.fresh();
        let mut gov3 = Governor::new(Some(&detached));
        assert!(!gov3.round(60, 0));
        assert_eq!(detached.fuel_spent(), 60);
        assert_eq!(limits.fuel_spent(), 120);
    }

    #[test]
    fn work_check_is_amortized() {
        let limits = EvalLimits::new().fuel(1_000_000);
        let mut gov = Governor::new(Some(&limits));
        // Below the interval: no checkpoint, nothing charged.
        assert!(!gov.work(CHECK_INTERVAL - 1, 0));
        assert_eq!(limits.checks_spent(), 0);
        // Crossing it: one checkpoint, re-armed one interval later.
        assert!(!gov.work(CHECK_INTERVAL, 0));
        assert_eq!(limits.checks_spent(), 1);
        assert!(!gov.work(CHECK_INTERVAL + 1, 0));
        assert_eq!(limits.checks_spent(), 1);
        assert!(!gov.work(2 * CHECK_INTERVAL, 0));
        assert_eq!(limits.checks_spent(), 2);
        assert_eq!(limits.fuel_spent(), 2 * CHECK_INTERVAL as u64);
    }

    #[test]
    fn each_limit_kind_trips() {
        let rounds = EvalLimits::new().max_rounds(2);
        let mut gov = Governor::new(Some(&rounds));
        assert!(!gov.round(0, 0));
        assert!(!gov.round(0, 0));
        assert!(gov.round(0, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Rounds));

        let facts = EvalLimits::new().max_derived_facts(5);
        let mut gov = Governor::new(Some(&facts));
        assert!(!gov.round(0, 5));
        assert!(gov.round(0, 6));
        assert_eq!(gov.tripped(), Some(LimitKind::Facts));

        let fuel = EvalLimits::new().fuel(10);
        let mut gov = Governor::new(Some(&fuel));
        assert!(gov.round(11, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Fuel));

        let deadline = EvalLimits::new().deadline(Duration::ZERO);
        let mut gov = Governor::new(Some(&deadline));
        // First checkpoint stamps the start; elapsed is still > 0ns by
        // the time it is compared, so a zero deadline trips immediately.
        std::thread::sleep(Duration::from_millis(1));
        assert!(gov.round(0, 0) || gov.round(0, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Deadline));

        let token = CancelToken::new();
        let cancel = EvalLimits::new().cancel_token(token.clone());
        let mut gov = Governor::new(Some(&cancel));
        assert!(!gov.round(0, 0));
        token.cancel();
        assert!(token.is_cancelled());
        assert!(gov.round(0, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Cancelled));

        let injected = EvalLimits::new().trip_after_checks(3);
        let mut gov = Governor::new(Some(&injected));
        assert!(!gov.round(0, 0));
        assert!(!gov.round(0, 0));
        assert!(gov.round(0, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Injected));
    }

    #[test]
    fn tripped_governor_stays_tripped() {
        let limits = EvalLimits::new().trip_after_checks(1);
        let mut gov = Governor::new(Some(&limits));
        assert!(gov.round(0, 0));
        assert!(gov.round(0, 0));
        assert!(gov.work(usize::MAX - 1, 0));
        assert_eq!(gov.tripped(), Some(LimitKind::Injected));
    }

    #[test]
    fn limit_kind_labels_are_stable() {
        for (kind, label) in [
            (LimitKind::Rounds, "rounds"),
            (LimitKind::Facts, "facts"),
            (LimitKind::Deadline, "deadline"),
            (LimitKind::Fuel, "fuel"),
            (LimitKind::Cancelled, "cancelled"),
            (LimitKind::Injected, "injected"),
        ] {
            assert_eq!(kind.as_str(), label);
            assert_eq!(kind.to_string(), label);
        }
    }
}
