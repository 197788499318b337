//! One-shot parallel batch evaluation over a slice of documents.
//!
//! [`BatchSpanner`] extends [`CompiledSpanner`] with
//! `evaluate_batch`/`count_batch`/`is_match_batch`: fan a document slice out
//! over [`std::thread::scope`] workers (plain `std`, no external
//! dependencies), each holding one warm pooled engine, and return the
//! per-document results **in document order** regardless of scheduling. For
//! lazy-backed spanners the batch first warms and freezes a shared
//! determinization snapshot from the leading documents, so the N workers
//! read one table instead of re-determinizing N times.
//!
//! One thread (or one document) short-circuits to a plain sequential loop —
//! no threads are spawned — and, because worker deltas reset per document,
//! the parallel output is byte-for-byte the sequential output at every
//! thread count. Long-lived services should prefer [`crate::SpannerServer`],
//! which keeps the pools and the frozen snapshot warm across batches instead
//! of rebuilding them per call.
//!
//! # Fault tolerance
//!
//! Every per-document unit of work is contained: a panic inside one
//! document's evaluation is caught, converted into
//! [`SpannerError::WorkerPanicked`], and the engine involved is
//! **quarantined** (dropped, never checked back into its pool) while the
//! worker keeps pulling documents. Per-document resource limits
//! ([`EvalLimits`] in [`BatchOptions::limits`]) bound steps, wall-clock time
//! and cache-eviction thrash; documents that trip a *recoverable* limit are
//! retried through the bounded [`DegradePolicy`] escalation ladder. The
//! report-returning entry points
//! ([`BatchSpanner::evaluate_batch_report`],
//! [`BatchSpanner::count_batch_report`]) surface all of this per document in
//! a [`BatchReport`]; the legacy entry points are thin wrappers that abort
//! on the lowest-index failure, exactly as before.

use crate::faults;
use crate::pool::{CountCachePool, EvaluatorPool, Pool, PoolEngine, Pooled, SlpEvaluatorPool};
use crate::report::{BatchReport, DegradePolicy};
use spanners_core::{
    CompiledSpanner, Counter, DagView, Document, EvalLimits, FrozenCache, GovernorHandle, Slp,
    SpannerError,
};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// How many leading documents a one-shot batch samples to warm the frozen
/// determinization snapshot of a lazy spanner before fanning out.
pub(crate) const WARM_SAMPLE_DOCS: usize = 4;

/// Configuration of a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Worker threads to fan out over. The default resolves
    /// [`std::thread::available_parallelism`] at construction; `0` is kept
    /// as a legacy alias for "ask the OS" on the non-validating entry
    /// points, but [`BatchOptions::validate`] (and thus every
    /// report-returning API) rejects it. The effective count is additionally
    /// capped by the number of documents, and `1` selects the sequential
    /// fallback (no threads spawned).
    pub threads: usize,
    /// Per-document resource limits (step budget, deadlines, eviction-thrash
    /// guard). Default: unlimited.
    pub limits: EvalLimits,
    /// Bounded-retry escalation for documents that trip a recoverable limit.
    /// Default: up to 2 degraded retries with a 4× cache-budget boost.
    pub degrade: DegradePolicy,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            threads: std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
            limits: EvalLimits::none(),
            degrade: DegradePolicy::default(),
        }
    }
}

impl BatchOptions {
    /// Options running exactly `threads` workers.
    pub fn threads(threads: usize) -> BatchOptions {
        BatchOptions { threads, ..BatchOptions::default() }
    }

    /// Returns the options with the given per-document limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> BatchOptions {
        self.limits = limits;
        self
    }

    /// Returns the options with the given degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> BatchOptions {
        self.degrade = degrade;
        self
    }

    /// The worker count a batch of `jobs` documents actually uses.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let requested = match self.threads {
            0 => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
            n => n,
        };
        requested.min(jobs).max(1)
    }

    /// Rejects nonsensical configurations up front with
    /// [`SpannerError::InvalidConfig`] instead of silently falling through
    /// to the sequential path or retrying forever. Called by every
    /// report-returning batch entry point.
    pub fn validate(&self) -> Result<(), SpannerError> {
        if self.threads == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "BatchOptions.threads must be at least 1 \
                       (BatchOptions::default() resolves the available parallelism)",
            });
        }
        if self.degrade.max_attempts == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "DegradePolicy.max_attempts must be at least 1 (1 disables retries)",
            });
        }
        if self.degrade.max_attempts > 16 {
            return Err(SpannerError::InvalidConfig {
                what: "DegradePolicy.max_attempts is absurdly large (the ladder has 3 rungs; \
                       cap is 16)",
            });
        }
        if self.degrade.budget_boost == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "DegradePolicy.budget_boost must be at least 1",
            });
        }
        Ok(())
    }
}

/// Stringifies a caught panic payload for [`SpannerError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` independent jobs on `threads` scoped workers with **panic
/// containment**, returning the results **in job order**. Each worker builds
/// its state via `init`, then pulls job indices from a shared counter —
/// dynamic scheduling, so an expensive document does not stall a whole
/// stripe. `threads <= 1` runs the same containment loop sequentially with
/// no threads spawned.
///
/// A panic inside `step` is caught: the worker's state is handed to
/// `quarantine` (never reused), the job's result is produced by
/// `on_panic(job, message)`, a fresh state is built for the next job, and
/// the worker keeps pulling. A panic inside `init` is retried once per job
/// (transient checkout faults are one-shot); if it persists, the affected
/// jobs are reported through `on_panic` — nothing aborts the batch.
pub(crate) fn run_contained<S, R, I, F, P, Q>(
    jobs: usize,
    threads: usize,
    init: I,
    step: F,
    on_panic: P,
    quarantine: Q,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    P: Fn(usize, String) -> R + Sync,
    Q: Fn(S) + Sync,
{
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut out = Vec::new();
        let mut state: Option<S> = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            if state.is_none() {
                state = catch_unwind(AssertUnwindSafe(&init))
                    .or_else(|_| catch_unwind(AssertUnwindSafe(&init)))
                    .ok();
            }
            let record = match state.as_mut() {
                None => on_panic(i, "worker state initialization panicked".to_string()),
                Some(s) => match catch_unwind(AssertUnwindSafe(|| step(s, i))) {
                    Ok(r) => r,
                    Err(payload) => {
                        let message = panic_message(payload);
                        if let Some(poisoned) = state.take() {
                            quarantine(poisoned);
                        }
                        on_panic(i, message)
                    }
                },
            };
            out.push((i, record));
        }
        out
    };
    let buckets: Vec<Vec<(usize, R)>> = if threads <= 1 || jobs <= 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
        })
    };
    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "job {i} ran twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| on_panic(i, "batch worker terminated early".to_string())))
        .collect()
}

/// Warms and freezes a shared determinization snapshot for a lazy spanner
/// from the leading documents of the batch (`None` for eager spanners, whose
/// tables are immutable and shared as-is). Batches of fewer than two
/// documents skip the freeze: there is nothing to amortize across, and the
/// plain warm lazy path avoids evaluating the lone document twice.
pub(crate) fn freeze_for_batch(
    spanner: &CompiledSpanner,
    docs: &[Document],
) -> Option<FrozenCache> {
    if docs.len() < 2 {
        return None;
    }
    spanner.freeze_warm(&docs[..docs.len().min(WARM_SAMPLE_DOCS)])
}

/// [`freeze_for_batch`] for SLP-compressed batches: warms the snapshot (and
/// the shared SLP memo attached to it) on the leading compressed documents.
pub(crate) fn freeze_for_slp_batch(spanner: &CompiledSpanner, slps: &[Slp]) -> Option<FrozenCache> {
    if slps.len() < 2 {
        return None;
    }
    spanner.freeze_warm_slp(&slps[..slps.len().min(WARM_SAMPLE_DOCS)])
}

/// One rung of the [`DegradePolicy`] escalation ladder (see
/// [`crate::report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// The plain first attempt: pool engine mode, configured cache budget.
    Normal,
    /// One-off enlarged determinization-cache (and memo) budget (lazy
    /// spanners).
    BoostBudget,
    /// The simplest engine loop, keeping any budget boost.
    PerByte,
}

/// The per-document attempt loop: walk the rung ladder until an attempt
/// succeeds or fails unrecoverably. Returns
/// `(outcome, retries_spent, succeeded_degraded)`.
fn run_attempts<R>(
    rungs: &[Rung],
    base_limits: EvalLimits,
    force_eviction: bool,
    mut attempt: impl FnMut(Rung, EvalLimits, bool) -> Result<R, SpannerError>,
) -> (Result<R, SpannerError>, u32, bool) {
    debug_assert!(!rungs.is_empty());
    let mut retries = 0u32;
    let mut outcome = None;
    for (k, &rung) in rungs.iter().enumerate() {
        let mut limits = base_limits;
        if k > 0 {
            // The soft deadline already fired — the retry is the degradation
            // it asked for. Hard deadline and step budget still apply.
            limits.soft_deadline = None;
        }
        match attempt(rung, limits, k == 0 && force_eviction) {
            Ok(v) => return (Ok(v), retries, k > 0),
            Err(e) => {
                let retryable = DegradePolicy::is_retryable(&e) && k + 1 < rungs.len();
                outcome = Some(Err(e));
                if !retryable {
                    break;
                }
                retries += 1;
            }
        }
    }
    (outcome.expect("at least one attempt ran"), retries, false)
}

/// The shared per-batch evaluation plan: spanner + optional frozen snapshot,
/// borrowed by every worker. The streaming runtime additionally threads
/// through stable document identities (fault keying + error reporting for
/// micro-batches cut out of a longer stream), per-request remaining-time
/// deadlines, and the serving-generation tag for pool checkouts.
pub(crate) struct BatchPlan<'a> {
    pub spanner: &'a CompiledSpanner,
    pub frozen: Option<&'a FrozenCache>,
    /// Stable per-document identities (stream sequence numbers). `None` for
    /// one-shot batches, where the slice index is the identity.
    pub doc_ids: Option<&'a [usize]>,
    /// Remaining wall-clock budget per document (already reduced by queue
    /// wait), clamped onto the configured hard deadline. `None` entries (and
    /// a `None` slice) leave the configured limits untouched.
    pub deadlines: Option<&'a [Option<Duration>]>,
    /// Serving-generation tag for pool checkouts (`0` = untagged).
    pub gen_tag: u64,
    /// Per-component ledger handle into the process-wide
    /// [`spanners_core::MemoryGovernor`]. When set, every report-returning
    /// run settles the pool's governed bytes after the batch and walks the
    /// shedding ladder while the ledger is over budget. `None` for one-shot
    /// batches (their pools die with the call).
    pub governor: Option<&'a GovernorHandle>,
}

impl<'a> BatchPlan<'a> {
    /// A plain one-shot plan: slice indices as identities, no per-request
    /// deadlines, untagged checkouts.
    pub(crate) fn new(
        spanner: &'a CompiledSpanner,
        frozen: Option<&'a FrozenCache>,
    ) -> BatchPlan<'a> {
        BatchPlan { spanner, frozen, doc_ids: None, deadlines: None, gen_tag: 0, governor: None }
    }
}

impl BatchPlan<'_> {
    /// The stable identity of job `i` (stream sequence number when set,
    /// slice index otherwise) — the key fault injection and
    /// [`SpannerError::WorkerPanicked`] report against.
    #[inline]
    fn doc_id(&self, i: usize) -> usize {
        self.doc_ids.map_or(i, |ids| ids[i])
    }
    /// The applicable escalation ladder, truncated to the policy's attempt
    /// budget. Rung order: normal → boosted cache budget (lazy only) →
    /// per-byte engine (engines with a byte loop only — grammar composition
    /// has none).
    fn rungs(&self, policy: &DegradePolicy, byte_loop: bool) -> Vec<Rung> {
        let mut rungs = vec![Rung::Normal];
        if self.spanner.is_lazy() {
            rungs.push(Rung::BoostBudget);
        }
        if byte_loop {
            rungs.push(Rung::PerByte);
        }
        rungs.truncate((policy.max_attempts.max(1)) as usize);
        rungs
    }

    /// Settles this batch's pooled-engine bytes into the global memory
    /// governor (when a [`BatchPlan::governor`] handle is attached) and
    /// walks the shedding ladder while the ledger is over budget:
    /// severity 1 sheds the coldest per-engine state (lazy caches and
    /// frozen-overflow deltas of idle pooled engines), severity 2 clears
    /// SLP overflow memos (a no-op for engines without memo tables).
    /// Severity 3 — denying new checkouts with a retryable
    /// [`SpannerError::BudgetExceeded`] — happens at admission time, not
    /// here. Injected [`faults::governor_pressure`] is reported as external
    /// pressure before settling so torture tests can drive the ladder
    /// without allocating.
    fn govern<E: PoolEngine>(&self, pool: &Pool<E>) {
        let Some(handle) = self.governor else { return };
        let gov = handle.governor();
        gov.set_pressure(faults::governor_pressure());
        handle.settle(pool.governed_bytes());
        if gov.over_budget() {
            gov.note_deltas_shed(pool.shed_cold());
            handle.settle(pool.governed_bytes());
        }
        if gov.over_budget() {
            gov.note_memos_shed(pool.shed_memos());
            handle.settle(pool.governed_bytes());
        }
    }

    /// Resolves the injected faults, the per-request remaining-time clamp,
    /// and the effective base limits for one document. Panics here (the
    /// injected ones) are contained by [`run_contained`].
    fn doc_setup(&self, i: usize, limits: EvalLimits) -> (EvalLimits, bool) {
        let id = self.doc_id(i);
        let df = faults::doc_faults(id);
        if df.panic {
            panic!("injected fault: panic on document {id}");
        }
        let mut base = limits;
        if let Some(Some(remaining)) = self.deadlines.map(|d| d[i]) {
            base = base.clamp_deadline(remaining);
        }
        if df.expire_deadline {
            base.deadline = Some(Duration::ZERO);
        }
        (base, df.force_eviction)
    }

    /// The one report loop behind every batch shape: each of `jobs`
    /// documents runs `run` on a pooled engine, contained (a panic
    /// quarantines the engine), under the per-document limits and through
    /// the degradation ladder; the engine's mode, budgets and limits are
    /// reset before it goes back to the pool, the delta pressure of frozen
    /// runs is sampled, and the pool's memory is settled with the governor.
    fn report<E, R, F>(
        &self,
        pool: &Pool<E>,
        jobs: usize,
        opts: &BatchOptions,
        run: F,
    ) -> BatchReport<R>
    where
        E: PoolEngine,
        R: Send,
        F: Fn(&mut E, usize) -> Result<R, SpannerError> + Sync,
    {
        let rungs = self.rungs(&opts.degrade, E::BYTE_LOOP);
        let boost = opts.degrade.budget_boost as usize;
        let boosted = self
            .spanner
            .lazy_automaton()
            .map(|lazy| lazy.config().memory_budget.saturating_mul(boost));
        let boosted_memo =
            Some(spanners_core::slp::DEFAULT_MEMO_BUDGET.saturating_mul(boost.max(1)));
        let quarantined = AtomicUsize::new(0);
        let delta_states = AtomicU64::new(0);
        let delta_bytes = AtomicUsize::new(0);
        let records = run_contained(
            jobs,
            opts.effective_threads(jobs),
            || pool.checkout_tagged(self.gen_tag),
            |engine: &mut Pooled<'_, E>, i| {
                let (base_limits, force_eviction) = self.doc_setup(i, opts.limits);
                let engine = &mut **engine;
                let interned_before = engine.frozen_delta().map_or(0, |d| d.states_interned());
                let record =
                    run_attempts(&rungs, base_limits, force_eviction, |rung, limits, evict| {
                        // The per-byte rung keeps the boost of the rung before it.
                        let budgets = match rung {
                            _ if evict => [Some(0); 2],
                            Rung::Normal => [None; 2],
                            Rung::BoostBudget | Rung::PerByte => [boosted, boosted_memo],
                        };
                        engine.attempt(limits, budgets, rung == Rung::PerByte);
                        run(engine, i)
                    });
                // Delta-pressure sample: overflow states this document forced
                // past the frozen snapshot (a rebind to a new snapshot resets
                // the counter, undercounting that one document — harmless).
                if let (Some(_), Some(d)) = (self.frozen, engine.frozen_delta()) {
                    let grown = d.states_interned().saturating_sub(interned_before);
                    delta_states.fetch_add(grown, Ordering::Relaxed);
                    delta_bytes.fetch_max(d.memory_bytes(), Ordering::Relaxed);
                }
                // The engine goes back to the pool: shed per-document state.
                engine.reset();
                record
            },
            |i, message| {
                (Err(SpannerError::WorkerPanicked { doc_index: self.doc_id(i), message }), 0, false)
            },
            |engine: Pooled<'_, E>| {
                engine.quarantine();
                quarantined.fetch_add(1, Ordering::Relaxed);
            },
        );
        let mut report =
            BatchReport::from_records(records, quarantined.into_inner(), pool.engines_created());
        report.delta_states = delta_states.into_inner();
        report.delta_bytes = delta_bytes.into_inner();
        self.govern(pool);
        report
    }

    pub(crate) fn evaluate_report<R, F>(
        &self,
        pool: &EvaluatorPool,
        docs: &[Document],
        opts: &BatchOptions,
        f: &F,
    ) -> BatchReport<R>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync,
    {
        self.report(pool, docs.len(), opts, |ev, i| {
            ev.eval(self.spanner.target(self.frozen), &docs[i]).map(|view| f(i, view))
        })
    }

    pub(crate) fn count_report<C>(
        &self,
        pool: &CountCachePool<C>,
        docs: &[Document],
        opts: &BatchOptions,
    ) -> BatchReport<C>
    where
        C: Counter + Send,
    {
        self.report(pool, docs.len(), opts, |cache, i| {
            cache.count(self.spanner.target(self.frozen), &docs[i])
        })
    }

    /// [`BatchPlan::count_report`] over SLP-compressed documents, with each
    /// worker holding a pooled [`spanners_core::SlpEvaluator`] whose memo
    /// tables stay warm across the batch.
    pub(crate) fn count_slp_report(
        &self,
        pool: &SlpEvaluatorPool,
        slps: &[Slp],
        opts: &BatchOptions,
    ) -> BatchReport<u64> {
        self.report(pool, slps.len(), opts, |ev, i| {
            ev.count(self.spanner.target(self.frozen), &slps[i])
        })
    }

    pub(crate) fn is_match_report(
        &self,
        pool: &EvaluatorPool,
        docs: &[Document],
        opts: &BatchOptions,
    ) -> BatchReport<bool> {
        self.report(pool, docs.len(), opts, |ev, i| {
            ev.accepts(self.spanner.target(self.frozen), &docs[i])
        })
    }
}

/// Batch evaluation entry points on [`CompiledSpanner`] — import this trait
/// to call `spanner.evaluate_batch(...)` / `spanner.count_batch(...)`.
///
/// These are the one-shot forms: each call builds transient engine pools and
/// (for lazy spanners) a transient frozen snapshot warmed on the leading
/// `WARM_SAMPLE_DOCS` (4) documents. A long-lived service should hold a
/// [`crate::SpannerServer`] instead, which amortizes both across calls.
pub trait BatchSpanner {
    /// Evaluates every document, mapping each resulting DAG view through `f`
    /// (e.g. `|_, dag| dag.collect_mappings()` or `|_, dag| dag.count_paths().unwrap()`)
    /// on the worker that produced it, and returns the outputs in document
    /// order. `f` receives the document index alongside the view.
    ///
    /// Abort-on-failure semantics: panics if any document fails (lowest index
    /// reported) — with the default unlimited [`BatchOptions`] that requires
    /// a panic inside evaluation. Prefer
    /// [`BatchSpanner::evaluate_batch_report`] for per-document outcomes.
    fn evaluate_batch<R, F>(&self, docs: &[Document], opts: &BatchOptions, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync;

    /// Like [`BatchSpanner::evaluate_batch`], but fault-tolerant: every
    /// document gets its own `Result` slot in the returned [`BatchReport`],
    /// worker panics are contained and quarantine their engine, and
    /// documents tripping a recoverable limit are retried per
    /// [`BatchOptions::degrade`]. Fails only on invalid `opts`.
    fn evaluate_batch_report<R, F>(
        &self,
        docs: &[Document],
        opts: &BatchOptions,
        f: F,
    ) -> Result<BatchReport<R>, SpannerError>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync;

    /// Counts `|⟦A⟧(d)|` for every document (Algorithm 3), in document
    /// order. Fails with the error of the lowest-index failing document if
    /// any counter overflows (or any configured limit trips).
    fn count_batch<C>(
        &self,
        docs: &[Document],
        opts: &BatchOptions,
    ) -> Result<Vec<C>, SpannerError>
    where
        C: Counter + Send;

    /// Like [`BatchSpanner::count_batch`], but fault-tolerant (see
    /// [`BatchSpanner::evaluate_batch_report`]).
    fn count_batch_report<C>(
        &self,
        docs: &[Document],
        opts: &BatchOptions,
    ) -> Result<BatchReport<C>, SpannerError>
    where
        C: Counter + Send;

    /// Whether each document has at least one output mapping, in document
    /// order.
    fn is_match_batch(&self, docs: &[Document], opts: &BatchOptions) -> Vec<bool>;

    /// [`BatchSpanner::count_batch`] over **SLP-compressed** documents,
    /// evaluated grammar-aware — without decompressing — by pooled
    /// [`spanners_core::SlpEvaluator`]s. For lazy spanners the batch first
    /// warms and freezes a determinization snapshot *with its SLP memo
    /// attached* (see
    /// [`spanners_core::CompiledSpanner::freeze_warm_slp`]), so the N
    /// workers compose documents off one shared bottom-up pass. Counts are
    /// byte-identical to [`BatchSpanner::count_batch`] on the decompressed
    /// documents, at every thread count.
    fn count_slp_batch(&self, slps: &[Slp], opts: &BatchOptions) -> Result<Vec<u64>, SpannerError>;

    /// Like [`BatchSpanner::count_slp_batch`], but fault-tolerant (see
    /// [`BatchSpanner::evaluate_batch_report`]): per-document results,
    /// contained panics, and the degradation ladder (minus the per-byte
    /// rung — grammar composition has no byte loop).
    fn count_slp_batch_report(
        &self,
        slps: &[Slp],
        opts: &BatchOptions,
    ) -> Result<BatchReport<u64>, SpannerError>;
}

/// Runs one report on a transient plan and pool: the one-shot form of the
/// [`BatchSpanner`] entry points.
fn one_shot<E: PoolEngine, R>(
    spanner: &CompiledSpanner,
    frozen: Option<FrozenCache>,
    report: impl FnOnce(&BatchPlan<'_>, &Pool<E>) -> BatchReport<R>,
) -> BatchReport<R> {
    report(&BatchPlan::new(spanner, frozen.as_ref()), &Pool::new())
}

impl BatchSpanner for CompiledSpanner {
    fn evaluate_batch<R, F>(&self, docs: &[Document], opts: &BatchOptions, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync,
    {
        one_shot(self, freeze_for_batch(self, docs), |plan, pool| {
            plan.evaluate_report(pool, docs, opts, &f)
        })
        .expect_all("evaluate_batch")
    }

    fn evaluate_batch_report<R, F>(
        &self,
        docs: &[Document],
        opts: &BatchOptions,
        f: F,
    ) -> Result<BatchReport<R>, SpannerError>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync,
    {
        opts.validate()?;
        Ok(one_shot(self, freeze_for_batch(self, docs), |plan, pool| {
            plan.evaluate_report(pool, docs, opts, &f)
        }))
    }

    fn count_batch<C>(&self, docs: &[Document], opts: &BatchOptions) -> Result<Vec<C>, SpannerError>
    where
        C: Counter + Send,
    {
        // Document order is preserved, so the error reported is the one of
        // the lowest-index failing document — deterministic across runs.
        one_shot(self, freeze_for_batch(self, docs), |plan, pool| {
            plan.count_report(pool, docs, opts)
        })
        .into_results()
        .into_iter()
        .collect()
    }

    fn count_batch_report<C>(
        &self,
        docs: &[Document],
        opts: &BatchOptions,
    ) -> Result<BatchReport<C>, SpannerError>
    where
        C: Counter + Send,
    {
        opts.validate()?;
        Ok(one_shot(self, freeze_for_batch(self, docs), |plan, pool| {
            plan.count_report(pool, docs, opts)
        }))
    }

    fn count_slp_batch(&self, slps: &[Slp], opts: &BatchOptions) -> Result<Vec<u64>, SpannerError> {
        one_shot(self, freeze_for_slp_batch(self, slps), |plan, pool| {
            plan.count_slp_report(pool, slps, opts)
        })
        .into_results()
        .into_iter()
        .collect()
    }

    fn count_slp_batch_report(
        &self,
        slps: &[Slp],
        opts: &BatchOptions,
    ) -> Result<BatchReport<u64>, SpannerError> {
        opts.validate()?;
        Ok(one_shot(self, freeze_for_slp_batch(self, slps), |plan, pool| {
            plan.count_slp_report(pool, slps, opts)
        }))
    }

    fn is_match_batch(&self, docs: &[Document], opts: &BatchOptions) -> Vec<bool> {
        one_shot(self, freeze_for_batch(self, docs), |plan, pool| {
            plan.is_match_report(pool, docs, opts)
        })
        .expect_all("is_match_batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::EnginePolicy;

    fn no_panic(i: usize, message: String) -> usize {
        panic!("unexpected containment of job {i}: {message}");
    }

    #[test]
    fn run_contained_is_in_job_order_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let out = run_contained(23, threads, || (), |_, i| i * 10, no_panic, |_| ());
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn run_contained_empty_and_single() {
        let out: Vec<usize> = run_contained(0, 8, || (), |_, i| i, no_panic, |_| ());
        assert!(out.is_empty());
        let out = run_contained(1, 8, || (), |_, i| i + 1, no_panic, |_| ());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn run_contained_contains_step_panics_and_quarantines() {
        for threads in [1usize, 2, 8] {
            let quarantined = AtomicUsize::new(0);
            let out: Vec<Result<usize, String>> = run_contained(
                10,
                threads,
                || (),
                |_, i| {
                    if i == 3 || i == 7 {
                        panic!("boom {i}");
                    }
                    Ok(i)
                },
                |i, message| Err(format!("{i}: {message}")),
                |_| {
                    quarantined.fetch_add(1, Ordering::Relaxed);
                },
            );
            for (i, r) in out.iter().enumerate() {
                if i == 3 || i == 7 {
                    assert_eq!(
                        r.as_ref().err().map(String::as_str),
                        Some(format!("{i}: boom {i}").as_str())
                    );
                } else {
                    assert_eq!(*r, Ok(i));
                }
            }
            assert_eq!(quarantined.load(Ordering::Relaxed), 2, "threads = {threads}");
        }
    }

    /// `Σ* x{a+} Σ*` on the given engine.
    fn spanner(policy: EnginePolicy) -> CompiledSpanner {
        use spanners_core::{ByteClass, EvaBuilder, MarkerSet, VarRegistry};
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(3);
        b.set_initial(q[0]);
        b.set_final(q[2]);
        b.add_letter(q[0], ByteClass::any(), q[0]);
        b.add_byte(q[1], b'a', q[1]);
        b.add_letter(q[2], ByteClass::any(), q[2]);
        b.add_var(q[0], MarkerSet::new().with_open(x), q[1]).unwrap();
        b.add_var(q[1], MarkerSet::new().with_close(x), q[2]).unwrap();
        CompiledSpanner::from_eva_with(&b.build().unwrap(), policy).unwrap()
    }

    #[test]
    fn frozen_count_batches_report_delta_pressure() {
        // The snapshot is warmed on the four leading documents, which never
        // reach the capture states; the fifth forces one overflow state.
        let lazy = spanner(EnginePolicy::Lazy);
        let docs: Vec<Document> =
            ["bbb", "cc", "b", "cbc", "xaay aaa z"].into_iter().map(Document::from).collect();
        let opts = BatchOptions::threads(1);
        let counts = lazy.count_batch_report::<u64>(&docs, &opts).unwrap();
        assert_eq!(counts.delta_states, 1, "count batches sample delta pressure");
        assert!(counts.delta_bytes > 0);
        let evaluated = lazy.evaluate_batch_report(&docs, &opts, |_, dag| dag.num_roots()).unwrap();
        assert_eq!(counts.delta_states, evaluated.delta_states, "both run the same driver walk");
        let eager = spanner(EnginePolicy::Eager);
        assert_eq!(eager.count_batch_report::<u64>(&docs, &opts).unwrap().delta_states, 0);
    }

    #[test]
    fn effective_threads_caps_by_jobs() {
        assert_eq!(BatchOptions::threads(8).effective_threads(3), 3);
        assert_eq!(BatchOptions::threads(2).effective_threads(100), 2);
        assert_eq!(BatchOptions::threads(1).effective_threads(100), 1);
        assert!(BatchOptions::default().effective_threads(100) >= 1);
    }

    #[test]
    fn validate_rejects_nonsense_options() {
        assert!(BatchOptions::default().validate().is_ok());
        let err = |o: BatchOptions| match o.validate() {
            Err(SpannerError::InvalidConfig { what }) => what,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert!(err(BatchOptions::threads(0)).contains("threads"));
        let zero_retry = BatchOptions::default()
            .with_degrade(DegradePolicy { max_attempts: 0, ..DegradePolicy::default() });
        assert!(err(zero_retry).contains("max_attempts"));
        let absurd_retry = BatchOptions::default()
            .with_degrade(DegradePolicy { max_attempts: 17, ..DegradePolicy::default() });
        assert!(err(absurd_retry).contains("absurd"));
        let zero_boost = BatchOptions::default()
            .with_degrade(DegradePolicy { budget_boost: 0, ..DegradePolicy::default() });
        assert!(err(zero_boost).contains("budget_boost"));
    }
}
