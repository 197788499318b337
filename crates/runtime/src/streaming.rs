//! The long-running streaming service: bounded ingress, work-conserving
//! micro-batching, backpressure, graceful drain, and generational snapshot
//! re-freezing.
//!
//! [`StreamingServer`] turns one [`CompiledSpanner`] into a service that
//! stays live across an unbounded document stream:
//!
//! * **Bounded MPSC ingress** — [`StreamingServer::submit`] blocks for space,
//!   [`StreamingServer::try_submit`] sheds load with a typed
//!   [`SpannerError::Overloaded`] rejection when the queue is full. Both
//!   return a [`Ticket`] that resolves to the document's result.
//! * **Work-conserving micro-batching** — an idle worker starts on the first
//!   queued document at once, taking along whatever else is already queued
//!   under [`StreamingOptions::max_batch_docs`] and
//!   [`StreamingOptions::max_batch_bytes`]; it never waits for more. A
//!   trickle runs one document per batch, while a backlog built up behind
//!   busy workers coalesces into full batches by itself.
//! * **Per-request deadlines** — a submission may carry a wall-clock budget;
//!   time spent queued counts against it. Tickets already expired at dequeue
//!   complete with [`SpannerError::DeadlineExceeded`]`{soft: false}` without
//!   burning evaluation work, and live tickets evaluate under their
//!   *remaining* budget (clamped onto the configured limits).
//! * **Tenant isolation & overload governance** —
//!   [`StreamingServer::start_governed`] arms the server with per-tenant
//!   admission quotas and circuit breakers plus a process-wide memory
//!   governor (module [`crate::admission`]);
//!   [`StreamingServer::submit_for`] names the tenant a submission belongs
//!   to. All governance rejections are typed and retryable.
//! * **Graceful shutdown** — [`StreamingServer::drain`] completes every
//!   accepted ticket before returning; [`StreamingServer::abort`] finishes
//!   in-flight batches and deterministically fails still-queued tickets with
//!   [`SpannerError::ShuttingDown`]. Dropping the server aborts. No path
//!   loses a ticket: every accepted submission resolves.
//! * **Generational re-freezing** — each batch reports how many subset
//!   states its workers' [`spanners_core::FrozenDelta`]s had to build past
//!   the shared frozen snapshot (the *delta pressure*). When pressure stays
//!   above [`RefreezePolicy::min_delta_states`] for
//!   [`RefreezePolicy::sustained_batches`] consecutive batches, the
//!   triggering worker promotes a new generation: the current snapshot is
//!   thawed **merged with the worker's delta evidence**
//!   ([`FrozenCache::thaw_merged`] — warmed skip masks carried forward),
//!   re-warmed on the triggering batch, frozen, and swapped in behind an
//!   `Arc` + generation counter. In-flight batches finish on their
//!   checkout-time generation; the old snapshot drains by refcount.
//!
//! Results are **deterministic**: enumeration output is a pure function of
//! the automaton and the document (worker deltas reset per document, marker
//! rows sort by marker set), so the stream's outputs are byte-identical to
//! the sequential batch path at any worker count — generation swaps
//! included. `tests/streaming.rs` pins this differentially.

use crate::admission::{AdmissionController, Governance};
use crate::batch::{BatchOptions, BatchPlan, WARM_SAMPLE_DOCS};
use crate::faults;
use crate::pool::{lock, EvaluatorPool};
use crate::report::DegradePolicy;
use spanners_core::{
    CompiledSpanner, DagView, Document, EvalLimits, Evaluator, FrozenCache, GovernorHandle,
    SpannerError,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When to promote a new frozen-snapshot generation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreezePolicy {
    /// A batch whose workers interned at least this many overflow subset
    /// states past the frozen snapshot counts as *hot*. `0` makes every
    /// batch hot (useful to force promotions in tests). Default: 64.
    pub min_delta_states: u64,
    /// Consecutive hot batches required before a promotion is attempted.
    /// Default: 4.
    pub sustained_batches: u32,
}

impl Default for RefreezePolicy {
    fn default() -> RefreezePolicy {
        RefreezePolicy { min_delta_states: 64, sustained_batches: 4 }
    }
}

/// Configuration of a [`StreamingServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingOptions {
    /// Worker threads consuming the ingress queue. Default: 1 — streaming
    /// determinism holds at any count, so size this to the offered load.
    pub workers: usize,
    /// Ingress queue capacity in documents; a full queue blocks
    /// [`StreamingServer::submit`] and rejects
    /// [`StreamingServer::try_submit`] with [`SpannerError::Overloaded`].
    /// Default: 1024.
    pub queue_docs: usize,
    /// Micro-batch cap: the most queued documents a free worker takes at
    /// once. Default: 32.
    pub max_batch_docs: usize,
    /// Micro-batch cap: cumulative document bytes. A document larger than
    /// the cap still forms a singleton batch. Default: 1 MiB.
    pub max_batch_bytes: usize,
    /// Per-document resource limits (see [`BatchOptions::limits`]).
    pub limits: EvalLimits,
    /// Degradation ladder for recoverable limit trips (see
    /// [`BatchOptions::degrade`]).
    pub degrade: DegradePolicy,
    /// Generational re-freeze policy; `None` disables re-freezing (the
    /// first warm snapshot serves forever, deltas absorbing all drift).
    pub refreeze: Option<RefreezePolicy>,
}

impl Default for StreamingOptions {
    fn default() -> StreamingOptions {
        StreamingOptions {
            workers: 1,
            queue_docs: 1024,
            max_batch_docs: 32,
            max_batch_bytes: 1 << 20,
            limits: EvalLimits::none(),
            degrade: DegradePolicy::default(),
            refreeze: Some(RefreezePolicy::default()),
        }
    }
}

impl StreamingOptions {
    /// Options running exactly `workers` worker threads.
    pub fn workers(workers: usize) -> StreamingOptions {
        StreamingOptions { workers, ..StreamingOptions::default() }
    }

    /// Returns the options with the given ingress queue capacity.
    pub fn with_queue_docs(mut self, queue_docs: usize) -> StreamingOptions {
        self.queue_docs = queue_docs;
        self
    }

    /// Returns the options with the given batch caps.
    pub fn with_batch_caps(mut self, max_docs: usize, max_bytes: usize) -> StreamingOptions {
        self.max_batch_docs = max_docs;
        self.max_batch_bytes = max_bytes;
        self
    }

    /// Returns the options with the given per-document limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> StreamingOptions {
        self.limits = limits;
        self
    }

    /// Returns the options with the given degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> StreamingOptions {
        self.degrade = degrade;
        self
    }

    /// Returns the options with the given re-freeze policy (`None` disables
    /// re-freezing).
    pub fn with_refreeze(mut self, refreeze: Option<RefreezePolicy>) -> StreamingOptions {
        self.refreeze = refreeze;
        self
    }

    /// Rejects nonsensical configurations up front (see
    /// [`BatchOptions::validate`]).
    pub fn validate(&self) -> Result<(), SpannerError> {
        if self.workers == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "StreamingOptions.workers must be at least 1",
            });
        }
        if self.workers > 256 {
            return Err(SpannerError::InvalidConfig {
                what: "StreamingOptions.workers is absurdly large (cap is 256)",
            });
        }
        if self.queue_docs == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "StreamingOptions.queue_docs must be at least 1",
            });
        }
        if self.max_batch_docs == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "StreamingOptions.max_batch_docs must be at least 1",
            });
        }
        if self.max_batch_bytes == 0 {
            return Err(SpannerError::InvalidConfig {
                what: "StreamingOptions.max_batch_bytes must be at least 1",
            });
        }
        if let Some(rf) = &self.refreeze {
            if rf.sustained_batches == 0 {
                return Err(SpannerError::InvalidConfig {
                    what: "RefreezePolicy.sustained_batches must be at least 1",
                });
            }
        }
        self.batch_options().validate()
    }

    /// The per-micro-batch options: one in-worker thread (the fan-out is
    /// across streaming workers, not inside a batch), shared limits/ladder.
    fn batch_options(&self) -> BatchOptions {
        BatchOptions { threads: 1, limits: self.limits, degrade: self.degrade }
    }
}

/// The lifecycle of one ticket's result slot.
#[derive(Debug)]
enum TicketSlot<R> {
    /// No completion landed yet.
    Pending,
    /// The result is parked, waiting to be claimed.
    Ready(Result<R, SpannerError>),
    /// The result was claimed (by [`Ticket::wait`] or a successful
    /// [`Ticket::wait_timeout`]).
    Taken,
}

/// One result slot shared between a [`Ticket`] and the worker completing it.
#[derive(Debug)]
struct TicketCell<R> {
    slot: Mutex<TicketSlot<R>>,
    done: Condvar,
}

impl<R> TicketCell<R> {
    fn new() -> TicketCell<R> {
        TicketCell { slot: Mutex::new(TicketSlot::Pending), done: Condvar::new() }
    }

    /// First completion wins; later calls (the drop backstop) are no-ops.
    fn complete(&self, result: Result<R, SpannerError>) {
        let mut slot = lock(&self.slot);
        if matches!(*slot, TicketSlot::Pending) {
            *slot = TicketSlot::Ready(result);
            self.done.notify_all();
        }
    }

    /// Claims a parked result (`None` while pending). Panics on a
    /// double-claim — the consuming [`Ticket::wait`] makes that impossible
    /// unless a caller keeps waiting on a ticket a previous
    /// [`Ticket::wait_timeout`] already resolved.
    fn claim(slot: &mut TicketSlot<R>) -> Option<Result<R, SpannerError>> {
        match std::mem::replace(slot, TicketSlot::Taken) {
            TicketSlot::Ready(result) => Some(result),
            TicketSlot::Pending => {
                *slot = TicketSlot::Pending;
                None
            }
            TicketSlot::Taken => panic!("streaming ticket result claimed twice"),
        }
    }
}

/// The caller's handle to one accepted submission. Resolves exactly once:
/// with the document's result, its per-document error, or
/// [`SpannerError::ShuttingDown`] if the server aborted first.
#[derive(Debug)]
pub struct Ticket<R> {
    seq: usize,
    cell: Arc<TicketCell<R>>,
}

impl<R> Ticket<R> {
    /// The submission's stream sequence number (0-based, in submission
    /// order) — the index the mapper receives, and the document's identity
    /// in fault plans and [`SpannerError::WorkerPanicked`] reports.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Whether the result is already available (a non-blocking probe).
    pub fn is_done(&self) -> bool {
        !matches!(*lock(&self.cell.slot), TicketSlot::Pending)
    }

    /// Blocks until the result is available and returns it.
    pub fn wait(self) -> Result<R, SpannerError> {
        let mut slot = lock(&self.cell.slot);
        loop {
            if let Some(result) = TicketCell::claim(&mut slot) {
                return result;
            }
            slot = match self.cell.done.wait(slot) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Bounded [`Ticket::wait`]: blocks up to `timeout` for the result.
    ///
    /// A timeout returns [`SpannerError::WaitTimedOut`] **without consuming
    /// the ticket** — the submission stays in flight, the server still
    /// resolves it, and the caller may wait again (or probe
    /// [`Ticket::is_done`]) at its own cadence. Any other return claims the
    /// result exactly like [`Ticket::wait`]; waiting again after that
    /// panics.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, SpannerError> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.cell.slot);
        loop {
            if let Some(result) = TicketCell::claim(&mut slot) {
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SpannerError::WaitTimedOut {
                    waited_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                });
            }
            slot = match self.cell.done.wait_timeout(slot, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Claims an already-parked result without blocking (`None` while the
    /// submission is still pending) — for composite waits that first probe
    /// readiness via [`Ticket::wait_done_until`].
    pub(crate) fn take_ready(&self) -> Option<Result<R, SpannerError>> {
        TicketCell::claim(&mut lock(&self.cell.slot))
    }

    /// Bounded readiness probe for composite waits: blocks until the result
    /// is available or `deadline` passes, claiming nothing.
    pub(crate) fn wait_done_until(&self, deadline: Instant) -> bool {
        let mut slot = lock(&self.cell.slot);
        loop {
            if !matches!(*slot, TicketSlot::Pending) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            slot = match self.cell.done.wait_timeout(slot, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// Completes the ticket with [`SpannerError::ShuttingDown`] on drop unless
/// some path completed it first — the "never lose a ticket" backstop: any
/// code path that abandons a queued or in-flight submission (abort, worker
/// death, unwinding) resolves the caller's [`Ticket::wait`] deterministically
/// instead of hanging it.
#[derive(Debug)]
struct CompletionGuard<R>(Arc<TicketCell<R>>);

impl<R> CompletionGuard<R> {
    fn complete(&self, result: Result<R, SpannerError>) {
        self.0.complete(result);
    }
}

impl<R> Drop for CompletionGuard<R> {
    fn drop(&mut self) {
        self.0.complete(Err(SpannerError::ShuttingDown));
    }
}

/// One accepted, not-yet-dequeued submission.
#[derive(Debug)]
struct Pending<R> {
    seq: usize,
    doc: Document,
    /// Absolute expiry, when the submission carried a deadline.
    expires: Option<Instant>,
    /// The original budget in milliseconds, for expiry diagnostics.
    deadline_ms: u64,
    /// The tenant slot the admission controller charged (when one gates
    /// this server) — fed back at dequeue, completion and abandonment.
    admit_slot: Option<u32>,
    guard: CompletionGuard<R>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Aborting,
}

#[derive(Debug)]
struct Ingress<R> {
    queue: VecDeque<Pending<R>>,
    phase: Phase,
    next_seq: usize,
}

/// One frozen-snapshot generation. Workers clone the `Arc` at batch checkout
/// time and finish the batch on it even if a newer generation swaps in
/// mid-flight; the old snapshot is freed when its last batch drops the
/// reference.
#[derive(Debug)]
struct Generation {
    id: u64,
    frozen: Option<Arc<FrozenCache>>,
}

#[derive(Debug)]
struct GenState {
    current: Arc<Generation>,
    /// `false` until the first micro-batch warms the initial snapshot.
    initialized: bool,
    /// A promotion is being built; suppresses concurrent promotions.
    promoting: bool,
    /// Consecutive hot batches under the current generation.
    hot: u32,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    promotions: AtomicU64,
    swaps_failed: AtomicU64,
    promotions_panicked: AtomicU64,
    delta_states: AtomicU64,
}

/// A point-in-time snapshot of a [`StreamingServer`]'s lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions shed with [`SpannerError::Overloaded`].
    pub rejected: u64,
    /// Tickets that expired in the queue (completed with a hard
    /// [`SpannerError::DeadlineExceeded`] at dequeue, never evaluated).
    pub expired: u64,
    /// Tickets completed with a per-document success.
    pub completed: u64,
    /// Tickets completed with a per-document error (expiries excluded).
    pub failed: u64,
    /// Micro-batches formed.
    pub batches: u64,
    /// Successful generation promotions (snapshot swaps).
    pub promotions: u64,
    /// Promotions abandoned at the swap point (fault injection).
    pub swaps_failed: u64,
    /// Promotions that panicked mid-build and were contained.
    pub promotions_panicked: u64,
    /// Cumulative overflow subset states interned past the serving
    /// snapshots — the drift measure re-freezing exists to reduce.
    pub delta_states: u64,
    /// The current generation id (1 = the initial warm snapshot).
    pub generation: u64,
    /// Engines created / quarantined by the serving pool.
    pub engines_created: usize,
    /// See [`crate::Pool::quarantined`].
    pub engines_quarantined: usize,
}

struct Shared<R> {
    spanner: CompiledSpanner,
    #[allow(clippy::type_complexity)]
    map: Box<dyn Fn(usize, DagView<'_>) -> R + Send + Sync>,
    opts: StreamingOptions,
    pool: EvaluatorPool,
    state: Mutex<Ingress<R>>,
    work_ready: Condvar,
    space_ready: Condvar,
    gen: Mutex<GenState>,
    counters: Counters,
    /// Per-tenant quotas and circuit breakers gating `submit`.
    admission: Option<Arc<AdmissionController>>,
    /// This server's ledger handle into the process-wide memory governor.
    governor: Option<GovernorHandle>,
}

impl<R> std::fmt::Debug for Shared<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("opts", &self.opts).finish_non_exhaustive()
    }
}

fn wait<'m, T>(cv: &Condvar, guard: MutexGuard<'m, T>) -> MutexGuard<'m, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A long-running streaming spanner service (see the module docs).
///
/// ```
/// use spanners_core::Document;
/// use spanners_runtime::{StreamingOptions, StreamingServer};
/// # use spanners_core::{CompiledSpanner, EvaBuilder, ByteClass, MarkerSet, VarRegistry};
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
/// let server = StreamingServer::start(spanner, StreamingOptions::workers(2), |_, dag| {
///     dag.collect_mappings().len()
/// })
/// .unwrap();
/// let tickets: Vec<_> = ["baab", "zzz", "aa"]
///     .iter()
///     .map(|t| server.submit(Document::from(*t), None).unwrap())
///     .collect();
/// let counts: Vec<usize> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
/// assert_eq!(counts, vec![3, 0, 3]);
/// let stats = server.drain();
/// assert_eq!(stats.completed, 3);
/// ```
#[derive(Debug)]
pub struct StreamingServer<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    handles: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static> StreamingServer<R> {
    /// Starts the service: validates `opts`, spawns the worker threads, and
    /// begins serving. `map` runs on the worker that evaluated the document,
    /// receiving the stream sequence number and the DAG view.
    pub fn start<F>(
        spanner: CompiledSpanner,
        opts: StreamingOptions,
        map: F,
    ) -> Result<StreamingServer<R>, SpannerError>
    where
        F: Fn(usize, DagView<'_>) -> R + Send + Sync + 'static,
    {
        StreamingServer::start_governed(spanner, opts, Governance::none(), map)
    }

    /// [`StreamingServer::start`] with overload governance attached: an
    /// optional per-tenant [`AdmissionController`] (quotas + circuit
    /// breakers, enforced by [`StreamingServer::submit_for`] /
    /// [`StreamingServer::try_submit_for`]) and an optional process-wide
    /// [`spanners_core::MemoryGovernor`] (this server settles its pooled
    /// engines' bytes into the shared ledger after every micro-batch, sheds
    /// cold engine state while over budget, and denies admissions with a
    /// retryable [`SpannerError::BudgetExceeded`] while the ledger stays
    /// over).
    pub fn start_governed<F>(
        spanner: CompiledSpanner,
        opts: StreamingOptions,
        governance: Governance,
        map: F,
    ) -> Result<StreamingServer<R>, SpannerError>
    where
        F: Fn(usize, DagView<'_>) -> R + Send + Sync + 'static,
    {
        opts.validate()?;
        let shared = Arc::new(Shared {
            spanner,
            map: Box::new(map),
            opts,
            pool: EvaluatorPool::new(),
            state: Mutex::new(Ingress {
                queue: VecDeque::new(),
                phase: Phase::Running,
                next_seq: 0,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            gen: Mutex::new(GenState {
                current: Arc::new(Generation { id: 0, frozen: None }),
                initialized: false,
                promoting: false,
                hot: 0,
            }),
            counters: Counters::default(),
            admission: governance.admission,
            governor: governance.governor.map(GovernorHandle::new),
        });
        let handles = (0..opts.workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spanner-stream-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn streaming worker")
            })
            .collect();
        Ok(StreamingServer { shared, handles })
    }

    /// Submits one document, **blocking while the queue is full**, with an
    /// optional wall-clock deadline covering queue wait *and* evaluation.
    /// Fails with [`SpannerError::ShuttingDown`] once a drain/abort began.
    /// To read the result's spans, submit a clone and keep the original:
    /// both share one buffer, so the clone copies no bytes.
    /// Equivalent to [`StreamingServer::submit_for`] with the anonymous
    /// (empty) tenant id.
    pub fn submit(
        &self,
        doc: Document,
        deadline: Option<Duration>,
    ) -> Result<Ticket<R>, SpannerError> {
        self.submit_for("", doc, deadline)
    }

    /// [`StreamingServer::submit`] on behalf of `tenant`: the submission
    /// first traverses the governance pipeline (global memory governor,
    /// then the tenant's circuit breaker, then its quotas — see
    /// [`crate::admission`]) and only then blocks for queue space. All
    /// governance rejections are retryable ([`SpannerError::is_retryable`])
    /// and leave nothing charged.
    pub fn submit_for(
        &self,
        tenant: &str,
        doc: Document,
        deadline: Option<Duration>,
    ) -> Result<Ticket<R>, SpannerError> {
        let admit_slot = self.pre_admit(tenant, doc.len())?;
        let mut st = lock(&self.shared.state);
        loop {
            if st.phase != Phase::Running {
                drop(st);
                self.abandon_admit(admit_slot, doc.len());
                return Err(SpannerError::ShuttingDown);
            }
            if st.queue.len() < self.shared.opts.queue_docs {
                break;
            }
            st = wait(&self.shared.space_ready, st);
        }
        Ok(self.enqueue(st, doc, deadline, admit_slot))
    }

    /// Submits one document **without blocking**: a full queue sheds the
    /// request with [`SpannerError::Overloaded`] (the document is not
    /// accepted — nothing server-side refers to it). Equivalent to
    /// [`StreamingServer::try_submit_for`] with the anonymous (empty)
    /// tenant id.
    pub fn try_submit(
        &self,
        doc: Document,
        deadline: Option<Duration>,
    ) -> Result<Ticket<R>, SpannerError> {
        self.try_submit_for("", doc, deadline)
    }

    /// [`StreamingServer::try_submit`] on behalf of `tenant` (see
    /// [`StreamingServer::submit_for`] for the governance pipeline).
    pub fn try_submit_for(
        &self,
        tenant: &str,
        doc: Document,
        deadline: Option<Duration>,
    ) -> Result<Ticket<R>, SpannerError> {
        let admit_slot = self.pre_admit(tenant, doc.len())?;
        let st = lock(&self.shared.state);
        if st.phase != Phase::Running {
            drop(st);
            self.abandon_admit(admit_slot, doc.len());
            return Err(SpannerError::ShuttingDown);
        }
        if st.queue.len() >= self.shared.opts.queue_docs {
            let queued = st.queue.len();
            drop(st);
            self.abandon_admit(admit_slot, doc.len());
            self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SpannerError::Overloaded { queued, capacity: self.shared.opts.queue_docs });
        }
        Ok(self.enqueue(st, doc, deadline, admit_slot))
    }

    /// The governance stages ahead of the ingress queue: the global memory
    /// governor's retryable denial, then the tenant's breaker and quotas.
    /// On success the admission controller (when present) has charged the
    /// tenant and the returned slot must be settled via the controller.
    fn pre_admit(&self, tenant: &str, bytes: usize) -> Result<Option<u32>, SpannerError> {
        if let Some(handle) = &self.shared.governor {
            handle.governor().admit()?;
        }
        match &self.shared.admission {
            Some(ctrl) => ctrl.admit(tenant, bytes).map(Some),
            None => Ok(None),
        }
    }

    /// Rolls back a successful [`StreamingServer::pre_admit`] whose
    /// submission was then refused by the ingress queue.
    fn abandon_admit(&self, admit_slot: Option<u32>, bytes: usize) {
        if let (Some(ctrl), Some(slot)) = (&self.shared.admission, admit_slot) {
            ctrl.abandon(slot, bytes);
        }
    }

    fn enqueue(
        &self,
        mut st: MutexGuard<'_, Ingress<R>>,
        doc: Document,
        deadline: Option<Duration>,
        admit_slot: Option<u32>,
    ) -> Ticket<R> {
        let seq = st.next_seq;
        st.next_seq += 1;
        let cell = Arc::new(TicketCell::new());
        st.queue.push_back(Pending {
            seq,
            doc,
            expires: deadline.map(|d| Instant::now() + d),
            deadline_ms: deadline.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            admit_slot,
            guard: CompletionGuard(Arc::clone(&cell)),
        });
        drop(st);
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.work_ready.notify_one();
        Ticket { seq, cell }
    }

    /// Documents currently queued (diagnostics).
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> StreamingStats {
        let c = &self.shared.counters;
        StreamingStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            promotions: c.promotions.load(Ordering::Relaxed),
            swaps_failed: c.swaps_failed.load(Ordering::Relaxed),
            promotions_panicked: c.promotions_panicked.load(Ordering::Relaxed),
            delta_states: c.delta_states.load(Ordering::Relaxed),
            generation: lock(&self.shared.gen).current.id,
            engines_created: self.shared.pool.engines_created(),
            engines_quarantined: self.shared.pool.quarantined(),
        }
    }

    /// The served spanner.
    pub fn spanner(&self) -> &CompiledSpanner {
        &self.shared.spanner
    }

    /// Stops accepting submissions **without consuming the handle**:
    /// subsequent submits fail with [`SpannerError::ShuttingDown`] and the
    /// workers finish the queue. Call [`StreamingServer::drain`] to join
    /// them. Idempotent; a no-op once any shutdown began.
    pub fn begin_drain(&self) {
        self.begin(Phase::Draining);
    }

    /// Stops accepting submissions **without consuming the handle**; the
    /// workers finish only their in-flight micro-batches. Call
    /// [`StreamingServer::abort`] to join them and fail the still-queued
    /// tickets. Idempotent; a no-op once any shutdown began.
    pub fn begin_abort(&self) {
        self.begin(Phase::Aborting);
    }

    fn begin(&self, phase: Phase) {
        {
            let mut st = lock(&self.shared.state);
            if st.phase == Phase::Running {
                st.phase = phase;
            }
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
    }

    /// Stops accepting submissions, **completes every accepted ticket**,
    /// joins the workers, and returns the final counters.
    pub fn drain(mut self) -> StreamingStats {
        self.shutdown(Phase::Draining)
    }

    /// Stops accepting submissions, finishes in-flight micro-batches, fails
    /// every still-queued ticket with [`SpannerError::ShuttingDown`], joins
    /// the workers, and returns the final counters.
    pub fn abort(mut self) -> StreamingStats {
        self.shutdown(Phase::Aborting)
    }

    fn shutdown(&mut self, phase: Phase) -> StreamingStats {
        self.begin(phase);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Aborting (or a worker that died unclean) may leave queued tickets:
        // dropping them completes each with ShuttingDown via the guard, and
        // the admission controller releases their charges without feeding
        // the breakers (being shed by the server says nothing about the
        // tenant's documents).
        let leftover: Vec<Pending<R>> = lock(&self.shared.state).queue.drain(..).collect();
        for p in &leftover {
            self.abandon_admit(p.admit_slot, p.doc.len());
        }
        drop(leftover);
        self.stats()
    }
}

impl<R: Send + 'static> Drop for StreamingServer<R> {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown(Phase::Aborting);
        }
    }
}

/// The worker loop: wait for the first queued document, take whatever else
/// is already queued under the batch caps, release the queue lock, evaluate,
/// complete tickets, account delta pressure, maybe promote a generation.
/// Work-conserving: the only wait is on an empty queue, and a non-full batch
/// never waits for more documents.
fn worker_loop<R: Send + 'static>(shared: &Shared<R>) {
    loop {
        let mut batch: Vec<Pending<R>> = Vec::new();
        let mut bytes = 0usize;
        {
            let mut st = lock(&shared.state);
            // Wait for the first document (or shutdown). Aborting exits
            // even with queued work (those tickets fail via abort());
            // Draining exits only once the queue is empty.
            loop {
                match st.phase {
                    Phase::Aborting => return,
                    Phase::Draining if st.queue.is_empty() => return,
                    _ if !st.queue.is_empty() => break,
                    Phase::Running => st = wait(&shared.work_ready, st),
                    Phase::Draining => unreachable!("empty draining queue returned above"),
                }
            }
            // Take what is queued under the caps. An oversized document
            // forms a singleton batch rather than starving.
            while let Some(p) = st.queue.front() {
                if batch.len() >= shared.opts.max_batch_docs
                    || (!batch.is_empty() && bytes + p.doc.len() > shared.opts.max_batch_bytes)
                {
                    break;
                }
                let p = st.queue.pop_front().expect("front checked above");
                bytes += p.doc.len();
                batch.push(p);
            }
        }
        shared.space_ready.notify_all();
        debug_assert!(!batch.is_empty());
        process_batch(shared, batch);
    }
}

fn process_batch<R: Send + 'static>(shared: &Shared<R>, batch: Vec<Pending<R>>) {
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    // Tick the admission clock FIRST: open breakers cool down and token
    // buckets refill on *previously completed* batches, never on the
    // failures this batch is about to report — keeping the batch-clocked
    // admission sequence deterministic at any worker count.
    if let Some(ctrl) = &shared.admission {
        ctrl.note_batch();
    }
    // Deadline check at dequeue: expired tickets complete immediately with a
    // hard DeadlineExceeded, never burning evaluation work. An injected
    // dequeue stall expires every deadline-carrying ticket in the batch.
    let stalled = faults::stall_fault();
    let now = Instant::now();
    let mut seqs = Vec::with_capacity(batch.len());
    let mut docs = Vec::with_capacity(batch.len());
    let mut deadlines = Vec::with_capacity(batch.len());
    let mut slots = Vec::with_capacity(batch.len());
    let mut guards = Vec::with_capacity(batch.len());
    for p in batch {
        let Pending { seq, doc, expires, deadline_ms, admit_slot, guard } = p;
        // The document left the ingress queue: release its queued-byte
        // charge (it stays in-flight until its result lands).
        if let (Some(ctrl), Some(slot)) = (&shared.admission, admit_slot) {
            ctrl.release_queued(slot, doc.len());
        }
        match expires {
            Some(at) if stalled || now >= at => {
                if let (Some(ctrl), Some(slot)) = (&shared.admission, admit_slot) {
                    ctrl.note_result(slot, false);
                }
                guard.complete(Err(SpannerError::DeadlineExceeded {
                    soft: false,
                    limit_ms: deadline_ms,
                }));
                shared.counters.expired.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                seqs.push(seq);
                docs.push(doc);
                deadlines.push(expires.map(|at| at - now));
                slots.push(admit_slot);
                guards.push(guard);
            }
        }
    }
    if docs.is_empty() {
        return;
    }

    // Pin the generation for the whole batch: a promotion mid-batch swaps
    // the *next* checkout, never this one.
    let generation = current_generation(shared, &docs);
    let plan = BatchPlan {
        spanner: &shared.spanner,
        frozen: generation.frozen.as_deref(),
        doc_ids: Some(&seqs),
        deadlines: Some(&deadlines),
        gen_tag: generation.id,
        governor: shared.governor.as_ref(),
    };
    let mapper = |i: usize, view: DagView<'_>| (shared.map)(seqs[i], view);
    let report = plan.evaluate_report(&shared.pool, &docs, &shared.opts.batch_options(), &mapper);
    shared.counters.completed.fetch_add(report.ok as u64, Ordering::Relaxed);
    shared.counters.failed.fetch_add(report.failed as u64, Ordering::Relaxed);
    shared.counters.delta_states.fetch_add(report.delta_states, Ordering::Relaxed);
    let pressure = report.delta_states;
    for ((guard, slot), result) in guards.iter().zip(slots).zip(report.results) {
        if let (Some(ctrl), Some(slot)) = (&shared.admission, slot) {
            ctrl.note_result(slot, result.is_ok());
        }
        guard.complete(result);
    }
    drop(guards);

    // Generational re-freezing: promote once pressure stayed hot for the
    // configured number of consecutive batches under this generation.
    let Some(policy) = shared.opts.refreeze else { return };
    if generation.frozen.is_none() {
        return;
    }
    let promote_now = {
        let mut gs = lock(&shared.gen);
        if gs.current.id != generation.id {
            false // this batch ran on a drained generation; don't count it
        } else {
            if pressure >= policy.min_delta_states {
                gs.hot = gs.hot.saturating_add(1);
            } else {
                gs.hot = 0;
            }
            if gs.hot >= policy.sustained_batches && !gs.promoting {
                gs.promoting = true;
                gs.hot = 0;
                true
            } else {
                false
            }
        }
    };
    if promote_now {
        promote(shared, &generation, &docs);
    }
}

/// The generation a batch evaluates on, warming the initial snapshot from
/// the first batch's leading documents (mirrors
/// [`crate::SpannerServer::warm`]'s lazy initialization).
fn current_generation<R>(shared: &Shared<R>, docs: &[Document]) -> Arc<Generation> {
    let mut gs = lock(&shared.gen);
    if !gs.initialized {
        gs.initialized = true;
        let frozen =
            shared.spanner.freeze_warm(&docs[..docs.len().min(WARM_SAMPLE_DOCS)]).map(Arc::new);
        gs.current = Arc::new(Generation { id: 1, frozen });
    }
    Arc::clone(&gs.current)
}

/// Builds and (fault permitting) swaps in the next generation. Runs on the
/// triggering worker; panics are contained — a failed promotion leaves the
/// old generation serving.
fn promote<R>(shared: &Shared<R>, old: &Generation, sample_docs: &[Document]) {
    let built = catch_unwind(AssertUnwindSafe(|| build_next_snapshot(shared, old, sample_docs)));
    let mut gs = lock(&shared.gen);
    match built {
        Ok(Some(frozen)) => {
            if faults::swap_fault() {
                shared.counters.swaps_failed.fetch_add(1, Ordering::Relaxed);
            } else {
                let id = gs.current.id + 1;
                gs.current = Arc::new(Generation { id, frozen: Some(Arc::new(frozen)) });
                shared.counters.promotions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(None) => {}
        Err(_) => {
            shared.counters.promotions_panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
    gs.promoting = false;
}

/// The promotion pipeline: thaw the old snapshot merged with one worker's
/// delta evidence (skip masks carried forward), re-warm on the triggering
/// batch's leading documents, freeze.
fn build_next_snapshot<R>(
    shared: &Shared<R>,
    old: &Generation,
    sample_docs: &[Document],
) -> Option<FrozenCache> {
    faults::promotion_fault();
    let lazy = shared.spanner.lazy_automaton()?;
    let old_frozen = old.frozen.as_deref()?;
    let merged = {
        // An engine of this generation holds the freshest delta evidence
        // (its last document's overflow states and row overrides).
        let engine = shared.pool.checkout_tagged(old.id);
        match engine.frozen_delta() {
            Some(delta) if delta.snapshot_id() == old_frozen.id() => {
                old_frozen.thaw_merged(delta, lazy)
            }
            _ => old_frozen.thaw(lazy),
        }
    };
    let mut ev = Evaluator::new();
    ev.install_lazy_cache(lazy, merged);
    for doc in sample_docs.iter().take(WARM_SAMPLE_DOCS) {
        let _ = ev.eval(lazy, doc);
    }
    ev.lazy_cache().map(|cache| cache.freeze(lazy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_handle_is_send_and_tickets_are_send() {
        fn sendable<T: Send>() {}
        sendable::<StreamingServer<usize>>();
        sendable::<Ticket<usize>>();
    }

    #[test]
    fn options_validate_rejects_nonsense() {
        assert!(StreamingOptions::default().validate().is_ok());
        let err = |o: StreamingOptions| match o.validate() {
            Err(SpannerError::InvalidConfig { what }) => what,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert!(err(StreamingOptions::workers(0)).contains("workers"));
        assert!(err(StreamingOptions::workers(1000)).contains("workers"));
        assert!(err(StreamingOptions::default().with_queue_docs(0)).contains("queue_docs"));
        assert!(err(StreamingOptions::default().with_batch_caps(0, 1)).contains("max_batch_docs"));
        assert!(err(StreamingOptions::default().with_batch_caps(1, 0)).contains("max_batch_bytes"));
        let bad_refreeze = StreamingOptions::default()
            .with_refreeze(Some(RefreezePolicy { min_delta_states: 0, sustained_batches: 0 }));
        assert!(err(bad_refreeze).contains("sustained_batches"));
    }
}
