//! Per-document evaluation resource limits: step fuel, wall-clock deadlines,
//! and an eviction-thrash guard.
//!
//! [`EvalLimits`] is carried by an [`Evaluator`](crate::Evaluator) or
//! [`CountCache`](crate::CountCache) and applies to **each document run
//! independently** — the step counter, the clock, and the eviction counter
//! all restart at the beginning of every document. Limits default to
//! unlimited; with no limits configured, the amortized check compiles down
//! to one counter increment and one never-taken compare per executed
//! position, so the skip-scan fast path is untouched (skipped positions are
//! never ticked at all — skip-jump landings pay the same increment-and-
//! compare, with actual clock reads amortized over many landings).
//!
//! Exceeded limits surface as
//! [`SpannerError::StepBudgetExceeded`](crate::SpannerError),
//! [`SpannerError::DeadlineExceeded`](crate::SpannerError) (with a
//! soft/hard flag), or — for the eviction-thrash guard —
//! [`SpannerError::BudgetExceeded`](crate::SpannerError), through every
//! engine task method, on every [`crate::Target`].

use crate::error::SpannerError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many executed positions pass between wall-clock reads once a deadline
/// is configured. The very first executed position always checks the clock,
/// so an already-expired deadline fails deterministically at step one.
const TIME_CHECK_INTERVAL: u64 = 256;

/// How many skip-jump landings pass between wall-clock reads once a deadline
/// is configured. The very first landing always checks the clock, so an
/// already-expired deadline fails deterministically even on a document the
/// scanner never executes a position of.
const JUMP_CHECK_INTERVAL: u64 = 32;

/// Per-document resource limits for one evaluation/counting run.
///
/// All fields default to `None` (unlimited). The wall-clock budgets are
/// durations measured from the start of each document run.
///
/// ```
/// use spanners_core::EvalLimits;
/// use std::time::Duration;
/// let limits = EvalLimits::none()
///     .with_max_steps(1_000_000)
///     .with_deadline(Duration::from_millis(250));
/// assert!(!limits.is_unlimited());
/// assert!(EvalLimits::default().is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalLimits {
    /// Maximum number of *executed* evaluation steps (positions where the
    /// engine performed capture/read work; skipped positions are free).
    /// Exceeding it yields [`SpannerError::StepBudgetExceeded`].
    pub max_steps: Option<u64>,
    /// Hard wall-clock budget for one document. Exceeding it yields
    /// [`SpannerError::DeadlineExceeded`] with `soft: false` — the document
    /// is abandoned, no retry.
    pub deadline: Option<Duration>,
    /// Soft wall-clock budget for one document. Exceeding it yields
    /// [`SpannerError::DeadlineExceeded`] with `soft: true` — a degradation
    /// policy may retry the document on a cheaper path.
    pub soft_deadline: Option<Duration>,
    /// Maximum number of lazy-cache clear-and-restart evictions within one
    /// document — the thrash guard. Exceeding it yields
    /// [`SpannerError::BudgetExceeded`], the signal a degradation policy
    /// treats as "enlarge the budget and retry".
    pub max_cache_clears: Option<u64>,
}

impl EvalLimits {
    /// No limits at all (the default).
    pub fn none() -> EvalLimits {
        EvalLimits::default()
    }

    /// Whether every limit is unset.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.deadline.is_none()
            && self.soft_deadline.is_none()
            && self.max_cache_clears.is_none()
    }

    /// Returns these limits with a step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> EvalLimits {
        self.max_steps = Some(max_steps);
        self
    }

    /// Returns these limits with a hard per-document deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> EvalLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Returns these limits with a soft per-document deadline.
    pub fn with_soft_deadline(mut self, soft_deadline: Duration) -> EvalLimits {
        self.soft_deadline = Some(soft_deadline);
        self
    }

    /// Returns these limits with an eviction-thrash guard.
    pub fn with_max_cache_clears(mut self, max_cache_clears: u64) -> EvalLimits {
        self.max_cache_clears = Some(max_cache_clears);
        self
    }

    /// Returns these limits with the hard deadline clamped to at most
    /// `remaining` — the per-request deadline hook of the streaming runtime:
    /// a request that has already spent part of its wall-clock budget in the
    /// ingress queue evaluates under whatever time is left, never under the
    /// full configured budget. A configured deadline shorter than
    /// `remaining` is kept as-is; with no configured deadline, `remaining`
    /// becomes the deadline.
    pub fn clamp_deadline(mut self, remaining: Duration) -> EvalLimits {
        self.deadline = Some(self.deadline.map_or(remaining, |d| d.min(remaining)));
        self
    }
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// The per-run enforcement state behind [`EvalLimits`]: a step counter with
/// a single fused threshold (`check_at`) covering both the step budget and
/// the amortized clock reads, so the per-position cost with or without
/// limits is one increment and one predictable compare.
#[derive(Debug, Clone)]
pub(crate) struct LimitChecker {
    /// Executed positions so far in this run.
    steps: u64,
    /// Next step count at which the slow path runs (clock read and/or step
    /// budget verdict). `u64::MAX` when nothing can ever trip.
    check_at: u64,
    /// Step budget (`u64::MAX` when unlimited).
    max_steps: u64,
    /// Skip-jump landings so far in this run.
    jumps: u64,
    /// Next landing count at which [`LimitChecker::tick_jump`] reads the
    /// clock. `u64::MAX` when no deadline is configured.
    jump_check_at: u64,
    /// Evictions so far in this run.
    clears: u64,
    /// Eviction budget (`u64::MAX` when unlimited).
    max_clears: u64,
    /// Absolute expiry instants, captured at run start.
    deadline: Option<Instant>,
    soft_deadline: Option<Instant>,
    /// The originating limits, kept for error diagnostics.
    limits: EvalLimits,
}

impl Default for LimitChecker {
    fn default() -> LimitChecker {
        LimitChecker::unlimited()
    }
}

impl LimitChecker {
    /// A checker that never trips — the state engines start with.
    pub(crate) fn unlimited() -> LimitChecker {
        LimitChecker {
            steps: 0,
            check_at: u64::MAX,
            max_steps: u64::MAX,
            jumps: 0,
            jump_check_at: u64::MAX,
            clears: 0,
            max_clears: u64::MAX,
            deadline: None,
            soft_deadline: None,
            limits: EvalLimits::none(),
        }
    }

    /// Starts enforcement for one document run. Reads the clock only when a
    /// deadline is actually configured.
    pub(crate) fn start(limits: &EvalLimits) -> LimitChecker {
        let timed = limits.deadline.is_some() || limits.soft_deadline.is_some();
        let now = if timed { Some(Instant::now()) } else { None };
        let max_steps = limits.max_steps.unwrap_or(u64::MAX);
        // First slow-path visit: step 1 when timed (so pre-expired deadlines
        // trip deterministically), otherwise right past the step budget.
        let check_at = if timed { 1 } else { max_steps.saturating_add(1) };
        LimitChecker {
            steps: 0,
            check_at,
            max_steps,
            jumps: 0,
            jump_check_at: if timed { 1 } else { u64::MAX },
            clears: 0,
            max_clears: limits.max_cache_clears.unwrap_or(u64::MAX),
            deadline: now.and_then(|t| limits.deadline.map(|d| t + d)),
            soft_deadline: now.and_then(|t| limits.soft_deadline.map(|d| t + d)),
            limits: *limits,
        }
    }

    /// Records one executed position. The hot path is an increment plus one
    /// compare; budget verdicts and clock reads happen on the cold path.
    #[inline(always)]
    pub(crate) fn tick(&mut self) -> Result<(), SpannerError> {
        self.steps += 1;
        if self.steps >= self.check_at {
            self.slow_tick()?;
        }
        Ok(())
    }

    #[cold]
    fn slow_tick(&mut self) -> Result<(), SpannerError> {
        if self.steps > self.max_steps {
            return Err(SpannerError::StepBudgetExceeded { limit: self.max_steps });
        }
        self.check_clock()?;
        let next_timed = self.steps.saturating_add(TIME_CHECK_INTERVAL);
        self.check_at = if self.deadline.is_some() || self.soft_deadline.is_some() {
            next_timed.min(self.max_steps.saturating_add(1))
        } else {
            self.max_steps.saturating_add(1)
        };
        Ok(())
    }

    /// Clock check at a skip-jump landing (or class-run skip). Skipped
    /// positions never consume step fuel; landings pay one increment and one
    /// predictable compare, with the actual `Instant` read amortized over
    /// [`JUMP_CHECK_INTERVAL`] landings (the first landing always reads, so
    /// a pre-expired deadline trips deterministically even on documents the
    /// scanner executes no position of).
    #[inline]
    pub(crate) fn tick_jump(&mut self) -> Result<(), SpannerError> {
        self.jumps += 1;
        if self.jumps >= self.jump_check_at {
            self.jump_check_at = self.jumps.saturating_add(JUMP_CHECK_INTERVAL);
            self.check_clock()?;
        }
        Ok(())
    }

    #[cold]
    fn check_clock(&self) -> Result<(), SpannerError> {
        let (Some(hard), Some(soft)) = (self.deadline, self.soft_deadline) else {
            return self.check_clock_single();
        };
        let now = Instant::now();
        if now >= hard {
            return Err(SpannerError::DeadlineExceeded {
                soft: false,
                limit_ms: duration_ms(self.limits.deadline.unwrap_or_default()),
            });
        }
        if now >= soft {
            return Err(SpannerError::DeadlineExceeded {
                soft: true,
                limit_ms: duration_ms(self.limits.soft_deadline.unwrap_or_default()),
            });
        }
        Ok(())
    }

    fn check_clock_single(&self) -> Result<(), SpannerError> {
        if let Some(hard) = self.deadline {
            if Instant::now() >= hard {
                return Err(SpannerError::DeadlineExceeded {
                    soft: false,
                    limit_ms: duration_ms(self.limits.deadline.unwrap_or_default()),
                });
            }
        }
        if let Some(soft) = self.soft_deadline {
            if Instant::now() >= soft {
                return Err(SpannerError::DeadlineExceeded {
                    soft: true,
                    limit_ms: duration_ms(self.limits.soft_deadline.unwrap_or_default()),
                });
            }
        }
        Ok(())
    }

    /// Records one lazy-cache clear-and-restart eviction; trips the thrash
    /// guard once the per-document eviction budget is exhausted.
    #[inline]
    pub(crate) fn note_clear(&mut self) -> Result<(), SpannerError> {
        self.clears += 1;
        if self.clears > self.max_clears {
            return Err(SpannerError::BudgetExceeded {
                what: "lazy-cache evictions in one document (thrash guard)",
                limit: usize::try_from(self.max_clears).unwrap_or(usize::MAX),
            });
        }
        Ok(())
    }
}

/// A process-level memory budget shared by every serving component, with a
/// single atomic byte ledger.
///
/// The per-component accounting already exists — the `LazyCache` subset
/// stores (live caches and frozen deltas alike) and the SLP memo arenas
/// each report their live bytes (the
/// capacity-signature slots) — but each cache previously enforced only its
/// *own* budget, so N components × per-component budget bounded nothing
/// globally. A `MemoryGovernor` aggregates those bytes behind one ledger:
/// components register a [`GovernorHandle`] and `settle` their current byte
/// count after each batch; when the global budget is exceeded, the runtime
/// sheds in severity order (shrink cold frozen deltas, then clear SLP
/// overflow memos, then deny new admissions with a **retryable**
/// [`SpannerError::BudgetExceeded`]) instead of each cache thrashing
/// independently.
///
/// The ledger tracks **settled** bytes only; `pressure` is a separate
/// diagnostic knob (used by the deterministic fault harness to simulate
/// external memory pressure) that influences [`MemoryGovernor::over_budget`]
/// without ever entering the ledger — so "ledger bytes never exceed the
/// budget between batches" stays assertable even under injected pressure.
#[derive(Debug)]
pub struct MemoryGovernor {
    /// The global byte budget.
    budget: usize,
    /// Settled bytes across all registered handles.
    ledger: AtomicUsize,
    /// Injected/external pressure bytes (never part of the ledger).
    pressure: AtomicUsize,
    /// Frozen-delta sheds performed on the governor's behalf (severity 1).
    deltas_shed: AtomicU64,
    /// SLP memo sheds performed on the governor's behalf (severity 2).
    memos_shed: AtomicU64,
    /// Admissions denied while over budget (severity 3).
    denials: AtomicU64,
}

impl MemoryGovernor {
    /// A governor enforcing `budget` bytes across every component that
    /// settles into it.
    pub fn new(budget: usize) -> MemoryGovernor {
        MemoryGovernor {
            budget,
            ledger: AtomicUsize::new(0),
            pressure: AtomicUsize::new(0),
            deltas_shed: AtomicU64::new(0),
            memos_shed: AtomicU64::new(0),
            denials: AtomicU64::new(0),
        }
    }

    /// The configured global byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Settled bytes currently on the ledger (injected pressure excluded).
    pub fn ledger_bytes(&self) -> usize {
        self.ledger.load(Ordering::Acquire)
    }

    /// Whether settled bytes plus injected pressure exceed the budget — the
    /// condition under which the runtime sheds and admissions are denied.
    pub fn over_budget(&self) -> bool {
        self.ledger_bytes().saturating_add(self.pressure.load(Ordering::Acquire)) > self.budget
    }

    /// Sets the injected/external pressure, in bytes (see the type docs).
    pub fn set_pressure(&self, bytes: usize) {
        self.pressure.store(bytes, Ordering::Release);
    }

    /// Moves the ledger from a component's previously settled byte count to
    /// its current one.
    fn account(&self, prev: usize, now: usize) {
        if now >= prev {
            self.ledger.fetch_add(now - prev, Ordering::AcqRel);
        } else {
            self.ledger.fetch_sub(prev - now, Ordering::AcqRel);
        }
    }

    /// Records `n` frozen-delta sheds performed to get back under budget.
    pub fn note_deltas_shed(&self, n: u64) {
        self.deltas_shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` SLP memo sheds performed to get back under budget.
    pub fn note_memos_shed(&self, n: u64) {
        self.memos_shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Admission gate: `Err` with a **retryable**
    /// [`SpannerError::BudgetExceeded`] while over budget (severity 3 of the
    /// shedding ladder — new work is denied until settling or shedding
    /// brings the ledger back under), `Ok` otherwise.
    pub fn admit(&self) -> Result<(), SpannerError> {
        if self.over_budget() {
            self.denials.fetch_add(1, Ordering::Relaxed);
            return Err(SpannerError::BudgetExceeded {
                what: "global memory budget",
                limit: self.budget,
            });
        }
        Ok(())
    }

    /// A point-in-time snapshot of the governor's counters.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            budget: self.budget,
            ledger_bytes: self.ledger_bytes(),
            pressure_bytes: self.pressure.load(Ordering::Acquire),
            deltas_shed: self.deltas_shed.load(Ordering::Relaxed),
            memos_shed: self.memos_shed.load(Ordering::Relaxed),
            denials: self.denials.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of [`MemoryGovernor`] counters (see [`MemoryGovernor::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorStats {
    /// The configured global byte budget.
    pub budget: usize,
    /// Settled bytes on the ledger at snapshot time.
    pub ledger_bytes: usize,
    /// Injected/external pressure bytes at snapshot time.
    pub pressure_bytes: usize,
    /// Frozen-delta sheds performed to get back under budget (severity 1).
    pub deltas_shed: u64,
    /// SLP memo sheds performed to get back under budget (severity 2).
    pub memos_shed: u64,
    /// Admissions denied while over budget (severity 3).
    pub denials: u64,
}

/// One component's registration with a [`MemoryGovernor`]: remembers how
/// many bytes this component last settled so the shared ledger moves by
/// deltas, and settles back to zero on drop (a dropped component frees its
/// memory, so its ledger contribution must vanish with it).
#[derive(Debug)]
pub struct GovernorHandle {
    gov: Arc<MemoryGovernor>,
    accounted: AtomicUsize,
}

impl GovernorHandle {
    /// Registers a component with `gov` (zero bytes settled initially).
    pub fn new(gov: Arc<MemoryGovernor>) -> GovernorHandle {
        GovernorHandle { gov, accounted: AtomicUsize::new(0) }
    }

    /// The shared governor this handle settles into.
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.gov
    }

    /// Settles this component's current byte count into the shared ledger
    /// (replacing whatever it settled last time).
    pub fn settle(&self, now: usize) {
        let prev = self.accounted.swap(now, Ordering::AcqRel);
        self.gov.account(prev, now);
    }
}

impl Drop for GovernorHandle {
    fn drop(&mut self) {
        self.settle(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_checker_never_trips() {
        let mut c = LimitChecker::unlimited();
        for _ in 0..100_000 {
            c.tick().unwrap();
        }
        c.tick_jump().unwrap();
        for _ in 0..1_000 {
            c.note_clear().unwrap();
        }
    }

    #[test]
    fn step_budget_trips_exactly_past_the_limit() {
        let mut c = LimitChecker::start(&EvalLimits::none().with_max_steps(10));
        for _ in 0..10 {
            c.tick().unwrap();
        }
        let err = c.tick().unwrap_err();
        assert_eq!(err, SpannerError::StepBudgetExceeded { limit: 10 });
    }

    #[test]
    fn zero_deadline_trips_at_the_first_executed_step() {
        let mut c = LimitChecker::start(&EvalLimits::none().with_deadline(Duration::ZERO));
        let err = c.tick().unwrap_err();
        assert_eq!(err, SpannerError::DeadlineExceeded { soft: false, limit_ms: 0 });
    }

    #[test]
    fn zero_deadline_trips_at_a_skip_jump() {
        let mut c = LimitChecker::start(&EvalLimits::none().with_deadline(Duration::ZERO));
        let err = c.tick_jump().unwrap_err();
        assert!(matches!(err, SpannerError::DeadlineExceeded { soft: false, .. }));
    }

    #[test]
    fn soft_deadline_trips_soft_and_hard_wins_over_soft() {
        let mut c = LimitChecker::start(&EvalLimits::none().with_soft_deadline(Duration::ZERO));
        assert_eq!(
            c.tick().unwrap_err(),
            SpannerError::DeadlineExceeded { soft: true, limit_ms: 0 }
        );
        let mut c = LimitChecker::start(
            &EvalLimits::none().with_deadline(Duration::ZERO).with_soft_deadline(Duration::ZERO),
        );
        assert!(matches!(
            c.tick().unwrap_err(),
            SpannerError::DeadlineExceeded { soft: false, .. }
        ));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let mut c = LimitChecker::start(
            &EvalLimits::none().with_deadline(Duration::from_secs(3600)).with_max_steps(1 << 20),
        );
        for _ in 0..10_000 {
            c.tick().unwrap();
        }
        c.tick_jump().unwrap();
    }

    #[test]
    fn clear_budget_trips_as_budget_exceeded() {
        let mut c = LimitChecker::start(&EvalLimits::none().with_max_cache_clears(2));
        c.note_clear().unwrap();
        c.note_clear().unwrap();
        assert!(matches!(
            c.note_clear().unwrap_err(),
            SpannerError::BudgetExceeded { what, limit: 2 } if what.contains("evictions")
        ));
    }

    #[test]
    fn clamp_deadline_takes_the_minimum() {
        let base = EvalLimits::none().with_deadline(Duration::from_millis(100));
        assert_eq!(
            base.clamp_deadline(Duration::from_millis(30)).deadline,
            Some(Duration::from_millis(30))
        );
        assert_eq!(
            base.clamp_deadline(Duration::from_millis(500)).deadline,
            Some(Duration::from_millis(100))
        );
        assert_eq!(
            EvalLimits::none().clamp_deadline(Duration::from_millis(7)).deadline,
            Some(Duration::from_millis(7))
        );
    }

    #[test]
    fn limits_builder_and_unlimited_flag() {
        let l = EvalLimits::none()
            .with_max_steps(5)
            .with_deadline(Duration::from_millis(1))
            .with_soft_deadline(Duration::from_micros(500))
            .with_max_cache_clears(3);
        assert_eq!(l.max_steps, Some(5));
        assert!(!l.is_unlimited());
        assert!(EvalLimits::none().is_unlimited());
    }

    #[test]
    fn governor_ledger_moves_by_settled_deltas() {
        let gov = Arc::new(MemoryGovernor::new(1000));
        let a = GovernorHandle::new(Arc::clone(&gov));
        let b = GovernorHandle::new(Arc::clone(&gov));
        a.settle(400);
        b.settle(300);
        assert_eq!(gov.ledger_bytes(), 700);
        assert!(!gov.over_budget());
        a.settle(900);
        assert_eq!(gov.ledger_bytes(), 1200);
        assert!(gov.over_budget());
        a.settle(100);
        assert_eq!(gov.ledger_bytes(), 400);
        drop(b);
        assert_eq!(gov.ledger_bytes(), 100, "a dropped handle settles back to zero");
    }

    #[test]
    fn governor_denies_admission_only_while_over_budget() {
        let gov = Arc::new(MemoryGovernor::new(100));
        let h = GovernorHandle::new(Arc::clone(&gov));
        gov.admit().unwrap();
        h.settle(101);
        let err = gov.admit().unwrap_err();
        assert_eq!(err, SpannerError::BudgetExceeded { what: "global memory budget", limit: 100 });
        assert!(err.is_retryable(), "governor denials must be retryable");
        h.settle(50);
        gov.admit().unwrap();
        assert_eq!(gov.stats().denials, 1);
    }

    #[test]
    fn injected_pressure_trips_over_budget_without_touching_the_ledger() {
        let gov = Arc::new(MemoryGovernor::new(100));
        let h = GovernorHandle::new(Arc::clone(&gov));
        h.settle(60);
        assert!(!gov.over_budget());
        gov.set_pressure(50);
        assert!(gov.over_budget());
        assert_eq!(gov.ledger_bytes(), 60, "pressure never enters the ledger");
        gov.note_deltas_shed(2);
        gov.note_memos_shed(1);
        let stats = gov.stats();
        assert_eq!(
            (stats.pressure_bytes, stats.deltas_shed, stats.memos_shed, stats.denials),
            (50, 2, 1, 0)
        );
    }
}
