//! Per-document batch outcomes ([`BatchReport`]) and the graceful
//! degradation policy ([`DegradePolicy`]).
//!
//! The report-returning batch entry points
//! ([`crate::BatchSpanner::evaluate_batch_report`],
//! [`crate::BatchSpanner::count_batch_report`] and their
//! [`crate::SpannerServer`] counterparts) never abort on a failing document:
//! each document yields its own `Result`, a panic inside a worker is
//! contained to the document it was serving (the engine is quarantined, the
//! worker keeps pulling), and documents that tripped a *recoverable* limit
//! are retried through a bounded escalation ladder before being reported as
//! failed.

use spanners_core::SpannerError;

/// Bounded-retry escalation for documents that tripped a **recoverable**
/// limit: delta-eviction thrash ([`SpannerError::BudgetExceeded`], raised by
/// [`spanners_core::EvalLimits::max_cache_clears`]) or a *soft* deadline
/// ([`SpannerError::DeadlineExceeded`]`{ soft: true, .. }`).
///
/// Retries climb an escalation ladder, one rung per extra attempt, each rung
/// kept cumulatively (the soft deadline — already spent — is dropped on
/// retries; the hard deadline and step budget still apply):
///
/// 1. a one-off enlarged determinization-cache budget
///    (`budget_boost ×` the automaton's configured budget, and of the memo
///    budget for grammar-aware engines; lazy spanners only — this is the
///    rung that rescues eviction thrash);
/// 2. [`spanners_core::EngineMode::PerByte`] — the simplest, most
///    predictable engine loop (engines with a byte loop only).
///
/// A compiled spanner runs either the eager or the lazy engine, never both,
/// so there is no eager-automaton rung.
///
/// Hard-deadline expiries, step-budget exhaustion, panics and counter
/// overflows are **not** retried: re-running them buys nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Total attempts per document, the first (non-degraded) one included.
    /// `1` disables retries entirely. Default: 3.
    pub max_attempts: u32,
    /// Multiplier applied to the lazy automaton's configured cache budget on
    /// the first retry rung. Default: 4.
    pub budget_boost: u32,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy { max_attempts: 3, budget_boost: 4 }
    }
}

impl DegradePolicy {
    /// A policy that never retries (`max_attempts == 1`): every limit error
    /// is final.
    pub fn none() -> DegradePolicy {
        DegradePolicy { max_attempts: 1, ..DegradePolicy::default() }
    }

    /// Whether a failed attempt may be retried on the next ladder rung.
    ///
    /// Deliberately narrower than [`SpannerError::is_retryable`]: that
    /// classifies what a *caller* should retry after backing off (overload,
    /// quota and breaker shedding, governor denials — see
    /// [`crate::RetryPolicy`]), while the ladder only re-attempts the two
    /// conditions a degraded *in-batch* re-evaluation can actually cure
    /// (cache-eviction thrash and soft-deadline overruns).
    pub(crate) fn is_retryable(err: &SpannerError) -> bool {
        matches!(
            err,
            SpannerError::BudgetExceeded { .. } | SpannerError::DeadlineExceeded { soft: true, .. }
        )
    }
}

/// Per-tenant accounting attached to a shared-pass batch report (see
/// [`crate::MultiSpannerServer`]): how one tenant of a multi-tenant shard
/// fared across the batch's documents.
///
/// Single-tenant batch calls leave [`BatchReport::tenants`] empty; the
/// multi-tenant runtime fills one slot per tenant sharing the pass, in shard
/// slot order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSlot {
    /// The tenant id as registered.
    pub id: String,
    /// Documents whose shared pass succeeded for this tenant.
    pub ok: usize,
    /// Documents whose shared pass failed (the tenant inherits its shard's
    /// per-document failure — never a neighbour shard's).
    pub failed: usize,
    /// Total mappings demultiplexed to this tenant across the batch
    /// (evaluation batches only; zero for counting batches).
    pub mappings: usize,
}

/// The outcome of a report-returning batch call: one `Result` per document
/// (in document order), plus batch-level counters and pool diagnostics.
///
/// `results.len()` always equals the number of documents submitted — a
/// failing document occupies its slot with an `Err` instead of aborting its
/// neighbours.
#[derive(Debug)]
pub struct BatchReport<T> {
    /// Per-document outcomes, in document order.
    pub results: Vec<Result<T, SpannerError>>,
    /// Documents that succeeded (on any attempt).
    pub ok: usize,
    /// Documents whose final attempt failed.
    pub failed: usize,
    /// Documents that succeeded only after at least one degraded retry.
    pub degraded: usize,
    /// Total retry attempts spent across the batch (a document retried twice
    /// contributes 2).
    pub retried: usize,
    /// Engines quarantined during this batch (one per contained panic that
    /// was holding an engine): dropped, never checked back in.
    pub quarantined: usize,
    /// Engines the serving pool has created over its lifetime — the
    /// capacity-signature diagnostic: in steady state this stops growing, so
    /// growth across batches means quarantines (or higher concurrency) are
    /// forcing cold engines.
    pub engines_created: usize,
    /// Overflow subset states the workers' frozen deltas interned during
    /// this batch — the **delta-pressure** signal of the generational
    /// re-freeze path: zero on a snapshot that covers the workload, and
    /// persistently large on a drifting workload the snapshot has fallen
    /// behind. Every batch shape run against a frozen snapshot reports it
    /// (evaluate, count, `is_match` and SLP count batches); eager and
    /// live-lazy batches report zero.
    pub delta_states: u64,
    /// Peak bytes held by any worker's frozen delta during this batch (the
    /// byte-sided half of the delta-pressure signal).
    pub delta_bytes: usize,
    /// Per-tenant accounting for shared multi-tenant passes, in shard slot
    /// order. Empty for single-tenant batch calls.
    pub tenants: Vec<TenantSlot>,
}

impl<T> BatchReport<T> {
    /// Builds the report from per-document records, deriving the counters.
    pub(crate) fn from_records(
        records: Vec<(Result<T, SpannerError>, u32, bool)>,
        quarantined: usize,
        engines_created: usize,
    ) -> BatchReport<T> {
        let mut ok = 0;
        let mut failed = 0;
        let mut degraded = 0;
        let mut retried = 0usize;
        let mut results = Vec::with_capacity(records.len());
        for (result, retries, was_degraded) in records {
            match &result {
                Ok(_) => {
                    ok += 1;
                    if was_degraded {
                        degraded += 1;
                    }
                }
                Err(_) => failed += 1,
            }
            retried += retries as usize;
            results.push(result);
        }
        BatchReport {
            results,
            ok,
            failed,
            degraded,
            retried,
            quarantined,
            engines_created,
            delta_states: 0,
            delta_bytes: 0,
            tenants: Vec::new(),
        }
    }

    /// A one-line human-readable summary of the batch outcome — the line a
    /// serving loop logs per batch. When the report carries per-tenant slots
    /// (shared multi-tenant passes), the line appends each tenant's ok/failed
    /// counts; single-tenant reports render exactly as before.
    ///
    /// ```
    /// # use spanners_runtime::BatchReport;
    /// # let report: BatchReport<u32> = BatchReport::from_results(vec![Ok(1), Ok(2)]);
    /// assert_eq!(report.summary().to_string(), "2 docs: 2 ok, 0 failed, 0 degraded, 0 retries, 0 quarantined");
    /// ```
    pub fn summary(&self) -> BatchSummary {
        BatchSummary {
            docs: self.results.len(),
            ok: self.ok,
            failed: self.failed,
            degraded: self.degraded,
            retried: self.retried,
            quarantined: self.quarantined,
            tenants: self.tenants.iter().map(|t| (t.id.clone(), t.ok, t.failed)).collect(),
        }
    }

    /// Builds a report from bare per-document results (no retries, no
    /// quarantines) — the streaming runtime uses this to splice
    /// queue-expired tickets into a worker batch, and doctests use it to
    /// fabricate reports.
    pub fn from_results(results: Vec<Result<T, SpannerError>>) -> BatchReport<T> {
        BatchReport::from_records(results.into_iter().map(|r| (r, 0, false)).collect(), 0, 0)
    }

    /// Whether every document succeeded.
    pub fn is_fully_ok(&self) -> bool {
        self.failed == 0
    }

    /// The lowest-index failing document and its error, if any — the error
    /// the legacy abort-at-lowest-index APIs would have surfaced.
    pub fn first_error(&self) -> Option<(usize, &SpannerError)> {
        self.results.iter().enumerate().find_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// Consumes the report, yielding the per-document outcomes.
    pub fn into_results(self) -> Vec<Result<T, SpannerError>> {
        self.results
    }

    /// The per-document values for the abort-on-failure entry points:
    /// panics on the lowest-index failing document, naming the `api`.
    pub(crate) fn expect_all(self, api: &str) -> Vec<T> {
        let results = self.results.into_iter().enumerate();
        let hint = "the report APIs return per-document errors";
        results
            .map(|(i, r)| {
                r.unwrap_or_else(|e| panic!("document {i} failed in {api} ({hint}): {e}"))
            })
            .collect()
    }
}

/// The one-line [`std::fmt::Display`] summary of a [`BatchReport`] (see
/// [`BatchReport::summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    docs: usize,
    ok: usize,
    failed: usize,
    degraded: usize,
    retried: usize,
    quarantined: usize,
    /// `(tenant id, ok, failed)` per [`TenantSlot`]; empty for
    /// single-tenant reports.
    tenants: Vec<(String, usize, usize)>,
}

impl std::fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} docs: {} ok, {} failed, {} degraded, {} retries, {} quarantined",
            self.docs, self.ok, self.failed, self.degraded, self.retried, self.quarantined
        )?;
        if !self.tenants.is_empty() {
            write!(f, "; tenants:")?;
            for (id, ok, failed) in &self.tenants {
                write!(f, " {id}={ok} ok/{failed} failed")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_derive_from_records() {
        let report: BatchReport<u32> = BatchReport::from_records(
            vec![
                (Ok(1), 0, false),
                (Ok(2), 2, true),
                (Err(SpannerError::StepBudgetExceeded { limit: 7 }), 1, false),
            ],
            1,
            3,
        );
        assert_eq!(report.ok, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.retried, 3);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.engines_created, 3);
        assert!(!report.is_fully_ok());
        assert_eq!(report.first_error().map(|(i, _)| i), Some(2));
        assert_eq!(
            report.summary().to_string(),
            "3 docs: 2 ok, 1 failed, 1 degraded, 3 retries, 1 quarantined"
        );
    }

    #[test]
    fn summary_appends_tenant_slots_when_present() {
        let mut report: BatchReport<u32> = BatchReport::from_results(vec![Ok(1), Ok(2), Ok(3)]);
        assert_eq!(
            report.summary().to_string(),
            "3 docs: 3 ok, 0 failed, 0 degraded, 0 retries, 0 quarantined"
        );
        report.tenants = vec![
            TenantSlot { id: "t0".into(), ok: 3, failed: 0, mappings: 7 },
            TenantSlot { id: "t1".into(), ok: 2, failed: 1, mappings: 0 },
        ];
        assert_eq!(
            report.summary().to_string(),
            "3 docs: 3 ok, 0 failed, 0 degraded, 0 retries, 0 quarantined; \
             tenants: t0=3 ok/0 failed t1=2 ok/1 failed"
        );
    }

    #[test]
    fn retryable_errors_are_exactly_thrash_and_soft_deadline() {
        assert!(DegradePolicy::is_retryable(&SpannerError::BudgetExceeded { what: "x", limit: 1 }));
        assert!(DegradePolicy::is_retryable(&SpannerError::DeadlineExceeded {
            soft: true,
            limit_ms: 1,
        }));
        assert!(!DegradePolicy::is_retryable(&SpannerError::DeadlineExceeded {
            soft: false,
            limit_ms: 1,
        }));
        assert!(!DegradePolicy::is_retryable(&SpannerError::StepBudgetExceeded { limit: 1 }));
        assert!(!DegradePolicy::is_retryable(&SpannerError::WorkerPanicked {
            doc_index: 0,
            message: "boom".into(),
        }));
    }
}
