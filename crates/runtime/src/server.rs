//! The long-lived multi-document serving API.
//!
//! A [`SpannerServer`] owns everything a service needs to evaluate one
//! compiled spanner against arriving batches of documents, keeping all of it
//! warm across calls:
//!
//! * an [`EvaluatorPool`] and a `u64` [`CountCachePool`] (the Algorithm 1
//!   and Algorithm 3 instances of the one engine [`crate::Pool`]) —
//!   per-worker arenas retain capacity from batch to batch, so a
//!   steady-state server performs no allocation in the hot path;
//! * the shared frozen determinization snapshot of a lazy-backed spanner,
//!   built once (from the first batch's leading documents, or explicitly via
//!   [`SpannerServer::warm`]) and then shared read-only by every worker via
//!   `Arc`;
//! * the thread configuration ([`BatchOptions`]).
//!
//! A `SpannerServer` is `Send + Sync`: wrap it in an `Arc` and call it from
//! any number of request-handling threads — batches from concurrent callers
//! simply share the pools.

use crate::batch::{BatchOptions, BatchPlan, WARM_SAMPLE_DOCS};
use crate::pool::{CountCachePool, EvaluatorPool};
use crate::report::BatchReport;
use spanners_core::{CompiledSpanner, Counter, DagView, Document, FrozenCache, SpannerError};
use std::sync::{Arc, OnceLock};

/// A warm, thread-safe serving wrapper around one [`CompiledSpanner`].
///
/// ```
/// use spanners_core::{CompiledSpanner, Document};
/// use spanners_runtime::{BatchOptions, SpannerServer};
/// # use spanners_core::{EvaBuilder, ByteClass, MarkerSet, VarRegistry};
/// # let mut reg = VarRegistry::new();
/// # let x = reg.intern("x").unwrap();
/// # let mut b = EvaBuilder::new(reg);
/// # let q0 = b.add_state();
/// # let q1 = b.add_state();
/// # let q2 = b.add_state();
/// # b.set_initial(q0);
/// # b.set_final(q2);
/// # b.add_letter(q0, ByteClass::any(), q0);
/// # b.add_byte(q1, b'a', q1);
/// # b.add_letter(q2, ByteClass::any(), q2);
/// # b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
/// # b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
/// # let spanner = CompiledSpanner::from_eva(&b.build().unwrap()).unwrap();
/// let server = SpannerServer::with_options(spanner, BatchOptions::threads(2));
/// let batch: Vec<Document> = ["baab", "zzz"].iter().map(|t| Document::from(*t)).collect();
/// assert_eq!(server.count_batch(&batch).unwrap(), vec![3, 0]);
/// assert_eq!(server.is_match_batch(&batch), vec![true, false]);
/// ```
#[derive(Debug)]
pub struct SpannerServer {
    spanner: CompiledSpanner,
    opts: BatchOptions,
    /// `None` until the first warm-up; `Some(None)` for eager spanners
    /// (nothing to freeze), `Some(Some(_))` for lazy ones.
    frozen: OnceLock<Option<Arc<FrozenCache>>>,
    eval_pool: EvaluatorPool,
    count_pool: CountCachePool<u64>,
}

impl SpannerServer {
    /// Wraps a compiled spanner with default options (one worker per
    /// available core).
    pub fn new(spanner: CompiledSpanner) -> SpannerServer {
        SpannerServer::with_options(spanner, BatchOptions::default())
    }

    /// Wraps a compiled spanner with an explicit thread configuration.
    pub fn with_options(spanner: CompiledSpanner, opts: BatchOptions) -> SpannerServer {
        SpannerServer {
            spanner,
            opts,
            frozen: OnceLock::new(),
            eval_pool: EvaluatorPool::new(),
            count_pool: CountCachePool::new(),
        }
    }

    /// The served spanner.
    pub fn spanner(&self) -> &CompiledSpanner {
        &self.spanner
    }

    /// The thread configuration.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// Explicitly warms the shared frozen snapshot on representative
    /// documents (lazy spanners only; a no-op for eager ones or when already
    /// warm). Without this, the first batch warms the snapshot on its own
    /// leading documents.
    pub fn warm(&self, docs: &[Document]) {
        let _ = self.frozen.get_or_init(|| self.spanner.freeze_warm(docs).map(Arc::new));
    }

    /// The shared frozen snapshot, if one has been built (lazy spanners
    /// after warm-up). Cloning the `Arc` is cheap — hand it to external
    /// workers freely.
    pub fn frozen_cache(&self) -> Option<Arc<FrozenCache>> {
        self.frozen.get().and_then(|f| f.clone())
    }

    /// Number of subset states in the shared frozen snapshot (diagnostics).
    pub fn frozen_states(&self) -> Option<usize> {
        self.frozen.get().and_then(|f| f.as_ref()).map(|f| f.num_states())
    }

    /// Total evaluator / count-cache engines created so far (diagnostics:
    /// both stop growing once the pools cover peak concurrency).
    pub fn engines_created(&self) -> (usize, usize) {
        (self.eval_pool.engines_created(), self.count_pool.engines_created())
    }

    fn plan<'a>(&'a self, docs: &[Document]) -> BatchPlan<'a> {
        let frozen = self
            .frozen
            .get_or_init(|| {
                self.spanner.freeze_warm(&docs[..docs.len().min(WARM_SAMPLE_DOCS)]).map(Arc::new)
            })
            .as_deref();
        BatchPlan::new(&self.spanner, frozen)
    }

    /// Evaluates every document of the batch (Algorithm 1), mapping each DAG
    /// view through `f` on the worker that produced it; results come back in
    /// document order. See [`crate::BatchSpanner::evaluate_batch`].
    pub fn evaluate_batch<R, F>(&self, docs: &[Document], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync,
    {
        self.plan(docs)
            .evaluate_report(&self.eval_pool, docs, &self.opts, &f)
            .expect_all("evaluate_batch")
    }

    /// Counts `|⟦A⟧(d)|` for every document of the batch (Algorithm 3), in
    /// document order. Fails with the error of the lowest-index failing
    /// document.
    pub fn count_batch(&self, docs: &[Document]) -> Result<Vec<u64>, SpannerError> {
        self.plan(docs)
            .count_report(&self.count_pool, docs, &self.opts)
            .into_results()
            .into_iter()
            .collect()
    }

    /// Like [`SpannerServer::count_batch`] with a caller-chosen counter type,
    /// counting through a caller-owned pool (the server's own pool is
    /// `u64`-typed).
    pub fn count_batch_with<C>(
        &self,
        pool: &CountCachePool<C>,
        docs: &[Document],
    ) -> Result<Vec<C>, SpannerError>
    where
        C: Counter + Send,
    {
        self.plan(docs).count_report(pool, docs, &self.opts).into_results().into_iter().collect()
    }

    /// Whether each document of the batch has at least one output mapping,
    /// in document order.
    pub fn is_match_batch(&self, docs: &[Document]) -> Vec<bool> {
        self.plan(docs)
            .is_match_report(&self.eval_pool, docs, &self.opts)
            .expect_all("is_match_batch")
    }

    /// Fault-tolerant batch evaluation: one `Result` per document, worker
    /// panics contained (engines quarantined, see
    /// [`crate::Pool::quarantined`]), recoverable limit trips
    /// retried per the server's [`BatchOptions::degrade`] policy. Fails only
    /// on invalid options. See
    /// [`crate::BatchSpanner::evaluate_batch_report`].
    pub fn evaluate_batch_report<R, F>(
        &self,
        docs: &[Document],
        f: F,
    ) -> Result<BatchReport<R>, SpannerError>
    where
        R: Send,
        F: Fn(usize, DagView<'_>) -> R + Sync,
    {
        self.opts.validate()?;
        Ok(self.plan(docs).evaluate_report(&self.eval_pool, docs, &self.opts, &f))
    }

    /// Fault-tolerant batch counting (see
    /// [`SpannerServer::evaluate_batch_report`]).
    pub fn count_batch_report(&self, docs: &[Document]) -> Result<BatchReport<u64>, SpannerError> {
        self.opts.validate()?;
        Ok(self.plan(docs).count_report(&self.count_pool, docs, &self.opts))
    }

    /// Engines quarantined so far across both pools (each contained worker
    /// panic quarantines the engine it was holding).
    pub fn engines_quarantined(&self) -> (usize, usize) {
        (self.eval_pool.quarantined(), self.count_pool.quarantined())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<SpannerServer>();
    }
}
