//! Tenant-isolation and overload-governance suite: per-tenant quotas,
//! circuit breakers, retry/backoff admission, and the global memory
//! governor, differential against the ungoverned streaming path.
//!
//! Two layers, mirroring `tests/streaming.rs`:
//!
//! * **Always on** — a permissively governed server is **byte-identical**
//!   to the ungoverned sequential baseline at every worker count; each
//!   quota dimension rejects with its own typed
//!   [`SpannerError::QuotaExceeded`] kind and releases its charge; the
//!   circuit breaker walks Closed → Open → HalfOpen → Closed on the
//!   batch clock exactly as documented in `SERVING.md`; the governor
//!   sheds in severity order under a tight budget and settles the ledger
//!   back to zero at drain; `wait_timeout` reports a typed
//!   [`SpannerError::WaitTimedOut`] without consuming the ticket.
//! * **`fault-injection` feature** — the poisoned-tenant differential: a
//!   tenant whose every document panics (or whose breaker is force-tripped,
//!   or whose admissions are denied by ordinal) loses only its *own*
//!   documents — every other tenant stays byte-identical to the no-fault
//!   sequential run at 1/2/8 workers — plus the bounded soak loop CI runs
//!   in release mode.
//!
//! Run with `RUST_TEST_THREADS` unset: with the feature on, every test here
//! serializes on one mutex (fault plans are process-global).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spanners::runtime::{BatchOptions, BatchSpanner, StreamingOptions};
use spanners::workloads as w;
use spanners::{
    AdmissionController, BreakerPhase, BreakerPolicy, CompiledSpanner, Document, Governance,
    LazyConfig, Mapping, MemoryGovernor, RateLimit, RetryPolicy, SpannerError, StreamingServer,
    TenantQuota, TenantQuotas, Ticket,
};

/// Worker counts every differential runs at: sequential fallback, modest
/// fan-out, heavy oversubscription.
const WORKER_COUNTS: &[usize] = &[1, 2, 8];

#[cfg(feature = "fault-injection")]
static FAULT_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-injection")]
fn serialize_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(not(feature = "fault-injection"))]
struct NoFaultsInstalled;

#[cfg(not(feature = "fault-injection"))]
fn serialize_faults() -> NoFaultsInstalled {
    NoFaultsInstalled
}

/// The lazy workload of `tests/streaming.rs`: exponential blowup under a
/// tiny determinization budget, so governed engines hold real cache bytes
/// for the memory governor to settle and shed.
fn lazy_family() -> (CompiledSpanner, Vec<Document>) {
    let spanner =
        CompiledSpanner::from_eva_lazy(&w::exp_blowup_eva(10), LazyConfig::with_budget(256))
            .unwrap();
    let docs = w::text_corpus(0x7B, 16, 50, 300, b"ab");
    (spanner, docs)
}

/// The ground truth: the sequential batch path over the same documents.
fn expected_mappings(docs: &[Document]) -> Vec<Vec<Mapping>> {
    let (spanner, _) = lazy_family();
    spanner
        .evaluate_batch_report(docs, &BatchOptions::threads(1), |_, dag| dag.collect_mappings())
        .unwrap()
        .into_results()
        .into_iter()
        .map(Result::unwrap)
        .collect()
}

/// Small batches so a 16-document stream crosses several micro-batches —
/// several admission-clock ticks.
fn small_batch_opts(workers: usize) -> StreamingOptions {
    StreamingOptions::workers(workers).with_batch_caps(3, 1 << 20)
}

/// One-document batches on a single worker: every submit-and-wait is
/// exactly one completed micro-batch, making the batch-clocked breaker and
/// token-bucket sequences exact.
fn lockstep_opts() -> StreamingOptions {
    StreamingOptions::workers(1).with_batch_caps(1, 1 << 20)
}

/// A mapper whose worker blocks on a test-held mutex, for pinning queue and
/// in-flight occupancy deterministically (same shape as `tests/streaming.rs`).
struct GatedMapper {
    entered: Arc<AtomicBool>,
    gate: Arc<Mutex<()>>,
}

impl GatedMapper {
    fn new() -> (GatedMapper, Arc<AtomicBool>, Arc<Mutex<()>>) {
        let entered = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Mutex::new(()));
        let mapper = GatedMapper { entered: Arc::clone(&entered), gate: Arc::clone(&gate) };
        (mapper, entered, gate)
    }

    fn run(&self) {
        self.entered.store(true, Ordering::SeqCst);
        drop(self.gate.lock().unwrap_or_else(|p| p.into_inner()));
    }
}

fn wait_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Always-on half: governance is transparent when permissive, typed when not
// ---------------------------------------------------------------------------

#[test]
fn permissive_governance_is_byte_identical_to_the_ungoverned_path() {
    let _serial = serialize_faults();
    let (_, docs) = lazy_family();
    let expected = expected_mappings(&docs);
    for &workers in WORKER_COUNTS {
        let (spanner, _) = lazy_family();
        let ctrl = Arc::new(AdmissionController::new(
            TenantQuotas::unlimited(),
            Some(BreakerPolicy::default()),
        ));
        let gov = Arc::new(MemoryGovernor::new(usize::MAX));
        let governance =
            Governance::none().with_admission(Arc::clone(&ctrl)).with_governor(Arc::clone(&gov));
        let server = StreamingServer::start_governed(
            spanner,
            small_batch_opts(workers),
            governance,
            |_, dag| dag.collect_mappings(),
        )
        .unwrap();
        let tickets: Vec<Ticket<Vec<Mapping>>> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let tenant = ["alpha", "beta"][i % 2];
                server.submit_for(tenant, d.clone(), None).unwrap()
            })
            .collect();
        for (seq, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().unwrap(),
                expected[seq],
                "doc {seq} diverged under permissive governance at {workers} workers"
            );
        }
        server.drain();
        let stats = ctrl.stats();
        assert_eq!(stats.admitted, docs.len() as u64);
        assert_eq!((stats.quota_denials, stats.breaker_denials), (0, 0));
        assert_eq!(stats.tenants, 2);
        for tenant in ["alpha", "beta"] {
            let t = ctrl.tenant_stats(tenant).unwrap();
            assert_eq!((t.in_flight, t.queued_bytes), (0, 0), "tenant {tenant} fully settled");
            assert_eq!(t.phase, BreakerPhase::Closed);
        }
        let g = gov.stats();
        assert_eq!(g.ledger_bytes, 0, "drained server settles its ledger share back to zero");
        assert_eq!((g.deltas_shed, g.memos_shed, g.denials), (0, 0, 0), "never over budget");
    }
}

#[test]
fn in_flight_quota_rejects_typed_and_releases_on_completion() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_in_flight_docs(2));
    let ctrl = Arc::new(AdmissionController::new(quotas, None));
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_admission(Arc::clone(&ctrl)),
        move |_, _dag| mapper.run(),
    )
    .unwrap();

    // Doc 0 occupies the worker, doc 1 waits in the queue: two in flight.
    let t0 = server.submit_for("t", docs[0].clone(), None).unwrap();
    wait_until(&entered);
    let t1 = server.submit_for("t", docs[1].clone(), None).unwrap();
    match server.submit_for("t", docs[2].clone(), None) {
        Err(SpannerError::QuotaExceeded { tenant, kind }) => {
            assert_eq!(tenant, "t");
            assert_eq!(kind, "in-flight documents");
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // An unrelated tenant is not charged for t's occupancy.
    let t2 = server.submit_for("neighbour", docs[3].clone(), None).unwrap();
    drop(held);
    t0.wait().unwrap();
    t1.wait().unwrap();
    t2.wait().unwrap();
    // Completions released the charge: the tenant may submit again.
    server.submit_for("t", docs[2].clone(), None).unwrap().wait().unwrap();
    assert_eq!(ctrl.stats().quota_denials, 1);
    server.drain();
}

#[test]
fn queued_bytes_quota_releases_at_dequeue_not_completion() {
    let _serial = serialize_faults();
    let (spanner, _) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let big = Document::from("x".repeat(64).as_str());
    let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_queued_bytes(100));
    let ctrl = Arc::new(AdmissionController::new(quotas, None));
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_admission(Arc::clone(&ctrl)),
        move |_, _dag| mapper.run(),
    )
    .unwrap();

    // Doc 0 (64 bytes) is dequeued into the gated worker — its queued-byte
    // charge is released even though it is still in flight.
    let t0 = server.submit_for("t", big.clone(), None).unwrap();
    wait_until(&entered);
    // Doc 1 (64 bytes) sits in the queue; a second 64-byte document would
    // push the tenant's queued bytes to 128 > 100.
    let t1 = server.submit_for("t", big.clone(), None).unwrap();
    match server.submit_for("t", big.clone(), None) {
        Err(SpannerError::QuotaExceeded { kind, .. }) => assert_eq!(kind, "queued bytes"),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let t = ctrl.tenant_stats("t").unwrap();
    assert_eq!((t.in_flight, t.queued_bytes), (2, 64));
    drop(held);
    t0.wait().unwrap();
    t1.wait().unwrap();
    server.drain();
}

#[test]
fn rate_tokens_refill_on_the_completed_batch_clock() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let quotas = TenantQuotas::uniform(
        TenantQuota::unlimited().with_rate(RateLimit { burst: 1, refill_per_batch: 1 }),
    );
    let ctrl = Arc::new(AdmissionController::new(quotas, None));
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_admission(Arc::clone(&ctrl)),
        move |_, _dag| mapper.run(),
    )
    .unwrap();
    // A gated neighbour occupies the single worker, so no further batch
    // can tick the admission clock while the bucket is drained.
    let t0 = server.submit_for("neighbour", docs[0].clone(), None).unwrap();
    wait_until(&entered);
    // Burst of one: the first submission drains the bucket; the second is
    // shed — deterministically, since the clock is pinned.
    let t1 = server.submit_for("t", docs[1].clone(), None).unwrap();
    match server.submit_for("t", docs[2].clone(), None) {
        Err(SpannerError::QuotaExceeded { kind, .. }) => assert_eq!(kind, "rate tokens"),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert_eq!(ctrl.tenant_stats("t").unwrap().tokens, Some(0));
    // Releasing the gate lets doc 1's own micro-batch tick the clock,
    // refilling one token.
    drop(held);
    t0.wait().unwrap();
    t1.wait().unwrap();
    assert_eq!(ctrl.tenant_stats("t").unwrap().tokens, Some(1));
    server.submit_for("t", docs[2].clone(), None).unwrap().wait().unwrap();
    server.drain();
    assert_eq!(ctrl.stats().quota_denials, 1);
}

/// The breaker walk of `SERVING.md`, end to end through a real server on
/// the batch clock: two zero-deadline expiries (booked as failures) trip
/// the tenant open; two neighbour batches cool it down to half-open; the
/// probe is admitted exclusively and its success closes the breaker.
#[test]
fn circuit_breaker_walks_closed_open_half_open_closed_on_the_batch_clock() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let policy = BreakerPolicy { failure_threshold: 2, window_docs: 8, open_batches: 2 };
    let ctrl = Arc::new(AdmissionController::new(TenantQuotas::unlimited(), Some(policy)));
    // A gateable mapper: the gate stays unlocked except while the probe's
    // exclusivity is asserted below.
    let (mapper, _entered, gate) = GatedMapper::new();
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_admission(Arc::clone(&ctrl)),
        move |_, _dag| mapper.run(),
    )
    .unwrap();

    // Two already-expired submissions: each fails at dequeue and feeds the
    // breaker one failure. The second trips it open.
    for (i, doc) in docs.iter().enumerate().take(2) {
        let err = server
            .submit_for("poison", doc.clone(), Some(Duration::ZERO))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, SpannerError::DeadlineExceeded { .. }), "doc {i}: {err:?}");
    }
    assert_eq!(ctrl.breaker_phase("poison"), Some(BreakerPhase::Open));
    match server.submit_for("poison", docs[2].clone(), None) {
        Err(SpannerError::CircuitOpen { tenant, retry_after_batches }) => {
            assert_eq!(tenant, "poison");
            assert_eq!(retry_after_batches, 2);
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    // A neighbour's completed batch ticks the cooldown; after two the
    // breaker half-opens.
    server.submit_for("neighbour", docs[3].clone(), None).unwrap().wait().unwrap();
    match server.submit_for("poison", docs[2].clone(), None) {
        Err(SpannerError::CircuitOpen { retry_after_batches, .. }) => {
            assert_eq!(retry_after_batches, 1)
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    server.submit_for("neighbour", docs[4].clone(), None).unwrap().wait().unwrap();
    assert_eq!(ctrl.breaker_phase("poison"), Some(BreakerPhase::HalfOpen));
    // Exactly one probe is admitted; while it is outstanding (pinned in the
    // gated mapper so its success cannot land early) a second submission
    // sheds.
    let held = gate.lock().unwrap();
    let probe = server.submit_for("poison", docs[5].clone(), None).unwrap();
    assert!(matches!(
        server.submit_for("poison", docs[6].clone(), None),
        Err(SpannerError::CircuitOpen { .. })
    ));
    drop(held);
    probe.wait().unwrap();
    assert_eq!(ctrl.breaker_phase("poison"), Some(BreakerPhase::Closed));
    server.submit_for("poison", docs[6].clone(), None).unwrap().wait().unwrap();
    server.drain();
    assert_eq!(ctrl.stats().breaker_denials, 3);
}

#[test]
fn retry_policy_rides_out_a_rate_denial_on_the_batch_clock() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let quotas = TenantQuotas::uniform(
        TenantQuota::unlimited().with_rate(RateLimit { burst: 1, refill_per_batch: 1 }),
    );
    let ctrl = Arc::new(AdmissionController::new(quotas, None));
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_admission(Arc::clone(&ctrl)),
        move |_, _dag| mapper.run(),
    )
    .unwrap();
    // Pin the clock (gated neighbour on the single worker), then drain the
    // bucket: the first retry attempt is deterministically denied.
    let mut held = Some(gate.lock().unwrap());
    let neighbour = server.submit_for("neighbour", docs[0].clone(), None).unwrap();
    wait_until(&entered);
    let mut in_flight = vec![server.submit_for("t", docs[1].clone(), None).unwrap()];
    let policy = RetryPolicy { max_attempts: 3, base: Duration::ZERO, cap: Duration::ZERO };
    let mut attempts_seen = Vec::new();
    let ticket = policy
        .run(0xA11CE, |attempt| {
            attempts_seen.push(attempt);
            if attempt > 0 {
                // Between attempts the caller backs off and the server
                // makes progress: release the gate and let the queued
                // micro-batches complete (each tick refills one token).
                drop(held.take());
                for t in in_flight.drain(..) {
                    t.wait().unwrap();
                }
            }
            server.submit_for("t", docs[2].clone(), None)
        })
        .unwrap();
    ticket.wait().unwrap();
    neighbour.wait().unwrap();
    assert_eq!(attempts_seen, vec![0, 1], "the denial resolved on the first retry");
    let stats = ctrl.stats();
    assert_eq!((stats.admitted, stats.quota_denials), (3, 1));
    server.drain();
}

#[test]
fn backoff_schedules_are_seed_deterministic() {
    let policy = RetryPolicy::default();
    assert_eq!(policy.backoff_schedule(7), policy.backoff_schedule(7));
    assert_ne!(policy.backoff_schedule(7), policy.backoff_schedule(8), "seeds decorrelate");
    for d in policy.backoff_schedule(7) {
        assert!(d >= policy.base && d <= policy.cap);
    }
}

#[test]
fn wait_timeout_is_typed_and_does_not_consume_the_ticket() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let server =
        StreamingServer::start(spanner, lockstep_opts(), move |_, _dag| mapper.run()).unwrap();
    let ticket = server.submit(docs[0].clone(), None).unwrap();
    wait_until(&entered);
    // The worker is gated: a bounded wait must report a typed timeout and
    // leave the ticket claimable.
    match ticket.wait_timeout(Duration::from_millis(10)) {
        Err(SpannerError::WaitTimedOut { waited_ms }) => assert_eq!(waited_ms, 10),
        other => panic!("expected WaitTimedOut, got {other:?}"),
    }
    assert!(!ticket.is_done(), "timeout must not consume or complete the ticket");
    drop(held);
    ticket.wait().unwrap();
    server.drain();
}

#[test]
fn overload_shed_reports_current_queue_depth() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let opts = lockstep_opts().with_queue_docs(1);
    let server = StreamingServer::start(spanner, opts, move |_, _dag| mapper.run()).unwrap();
    let t0 = server.submit(docs[0].clone(), None).unwrap();
    wait_until(&entered);
    let t1 = server.submit(docs[1].clone(), None).unwrap();
    match server.try_submit(docs[2].clone(), None) {
        Err(SpannerError::Overloaded { queued, capacity }) => {
            assert_eq!((queued, capacity), (1, 1), "shed carries live depth alongside capacity");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(held);
    t0.wait().unwrap();
    t1.wait().unwrap();
    server.drain();
}

/// The documented severity ladder, end to end. A starvation-level budget
/// (one byte) forces every batch settle over budget, so severity 1 — cold
/// engine state — is shed first, and shedding *recovers*: the lazy caches
/// are rebuildable, the ledger returns under budget, and the next
/// admission passes with byte-identical results. Severity 3 — denying
/// admissions — only fires against pressure shedding cannot reclaim.
#[test]
fn tight_governor_budget_sheds_cold_state_then_denies_admissions() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let expected = expected_mappings(&docs);
    let gov = Arc::new(MemoryGovernor::new(1));
    let server = StreamingServer::start_governed(
        spanner,
        lockstep_opts(),
        Governance::none().with_governor(Arc::clone(&gov)),
        |_, dag| dag.collect_mappings(),
    )
    .unwrap();
    // Stream the whole corpus in lockstep. Every admission passes: each
    // batch runs hot against the frozen snapshot (interning overflow
    // states), goes over the one-byte budget at settle, sheds the cold
    // engine state — and *recovers*, because the shed caches are pure
    // memoization. Results stay byte-identical throughout.
    for (seq, doc) in docs.iter().enumerate() {
        let got = server.submit(doc.clone(), None).unwrap().wait().unwrap();
        assert_eq!(got, expected[seq], "doc {seq} diverged under the starvation budget");
        assert!(
            gov.ledger_bytes() <= gov.budget(),
            "doc {seq}: cold shedding failed to recover the ledger between batches"
        );
    }
    let stats = gov.stats();
    assert!(stats.deltas_shed > 0, "severity 1 (cold engine state) was shed first");
    assert_eq!(stats.memos_shed, 0, "no SLP pool here: severity 2 never fires");
    assert_eq!(stats.denials, 0, "recoverable pressure never reaches severity 3");
    // Unsheddable external pressure is what severity 3 exists for: the
    // ladder cannot reclaim it, so new admissions are denied — retryably.
    gov.set_pressure(1 << 20);
    let err = server.submit(docs[0].clone(), None).unwrap_err();
    match &err {
        SpannerError::BudgetExceeded { what, limit } => {
            assert_eq!(*what, "global memory budget");
            assert_eq!(*limit, 1);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(err.is_retryable(), "governor denials must be retryable");
    assert!(gov.stats().denials > 0);
    // Pressure relieved: admission resumes.
    gov.set_pressure(0);
    let again = server.submit(docs[0].clone(), None).unwrap().wait().unwrap();
    assert_eq!(again, expected[0]);
    server.drain();
    assert_eq!(gov.ledger_bytes(), 0, "dropped pools settle their ledger share to zero");
}

/// A generous budget never denies and never sheds — and the governed
/// results stay byte-identical across worker counts while the ledger is
/// live between batches.
#[test]
fn generous_governor_budget_is_transparent_at_every_worker_count() {
    let _serial = serialize_faults();
    let (_, docs) = lazy_family();
    let expected = expected_mappings(&docs);
    for &workers in WORKER_COUNTS {
        let (spanner, _) = lazy_family();
        let gov = Arc::new(MemoryGovernor::new(1 << 30));
        let server = StreamingServer::start_governed(
            spanner,
            small_batch_opts(workers),
            Governance::none().with_governor(Arc::clone(&gov)),
            |_, dag| dag.collect_mappings(),
        )
        .unwrap();
        let tickets: Vec<_> =
            docs.iter().map(|d| server.submit(d.clone(), None).unwrap()).collect();
        for (seq, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), expected[seq], "doc {seq} at {workers} workers");
        }
        let stats = gov.stats();
        assert!(stats.ledger_bytes <= stats.budget, "never over budget between batches");
        assert_eq!((stats.deltas_shed, stats.memos_shed, stats.denials), (0, 0, 0));
        server.drain();
        assert_eq!(gov.ledger_bytes(), 0);
    }
}

// ---------------------------------------------------------------------------
// Fault-injection half: poisoned tenants lose only their own documents
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod torture {
    use super::*;
    use spanners::runtime::{install_faults, FaultPlan};
    use spanners::{MultiSpanner, MultiStreamingServer};

    /// Tenant ids interleaved round-robin over the stream: sequence `i`
    /// belongs to `TENANTS[i % 3]`.
    const TENANTS: [&str; 3] = ["alpha", "beta", "poison"];

    /// The poisoned tenant's stream sequence numbers (every third doc).
    fn poison_seqs(n: usize) -> Vec<usize> {
        (0..n).filter(|i| TENANTS[i % TENANTS.len()] == "poison").collect()
    }

    /// **The acceptance differential.** One tenant's every document panics
    /// mid-evaluation, with quotas and breakers armed (threshold above the
    /// fault count, so admission stays deterministic at any worker count):
    /// the poisoned tenant books contained `WorkerPanicked` failures, and
    /// every other tenant is byte-identical to the no-fault sequential run
    /// at 1, 2 and 8 workers.
    #[test]
    fn poisoned_tenant_loses_only_its_own_documents() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        let poisoned = poison_seqs(docs.len());
        let quotas = TenantQuotas::uniform(
            TenantQuota::unlimited()
                .with_max_in_flight_docs(docs.len())
                .with_max_queued_bytes(1 << 20),
        );
        // Armed, but calibrated to never trip: a breaker opening mid-run
        // would make admission depend on worker timing.
        let breaker = BreakerPolicy {
            failure_threshold: docs.len() as u32 + 1,
            window_docs: u32::MAX,
            open_batches: 2,
        };
        for &workers in WORKER_COUNTS {
            let (spanner, _) = lazy_family();
            let ctrl = Arc::new(AdmissionController::new(quotas.clone(), Some(breaker)));
            let server = StreamingServer::start_governed(
                spanner,
                small_batch_opts(workers).with_queue_docs(docs.len()),
                Governance::none().with_admission(Arc::clone(&ctrl)),
                |_, dag| dag.collect_mappings(),
            )
            .unwrap();
            let _plan = install_faults(FaultPlan {
                panic_on_docs: poisoned.clone(),
                ..FaultPlan::default()
            });
            let tickets: Vec<_> = docs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    server.submit_for(TENANTS[i % TENANTS.len()], d.clone(), None).unwrap()
                })
                .collect();
            for (seq, ticket) in tickets.into_iter().enumerate() {
                let result = ticket.wait();
                if poisoned.contains(&seq) {
                    assert!(
                        matches!(result, Err(SpannerError::WorkerPanicked { .. })),
                        "poisoned doc {seq} at {workers} workers: {result:?}"
                    );
                } else {
                    assert_eq!(
                        result.as_ref().unwrap(),
                        &expected[seq],
                        "survivor doc {seq} diverged at {workers} workers"
                    );
                }
            }
            server.drain();
            let stats = ctrl.stats();
            assert_eq!(stats.admitted, docs.len() as u64, "nothing was shed at {workers} workers");
            assert_eq!((stats.quota_denials, stats.breaker_denials), (0, 0));
            // Panics feed the breaker as failures, but the calibrated
            // threshold keeps every tenant closed.
            for tenant in TENANTS {
                assert_eq!(ctrl.breaker_phase(tenant), Some(BreakerPhase::Closed), "{tenant}");
                let t = ctrl.tenant_stats(tenant).unwrap();
                assert_eq!((t.in_flight, t.queued_bytes), (0, 0), "{tenant} fully settled");
            }
        }
    }

    /// A force-tripped breaker sheds the poisoned tenant **at admission**
    /// — before any shard accepts the document — while every other
    /// tenant's multi-shard results stay byte-identical.
    #[test]
    fn tripped_breaker_sheds_at_admission_without_touching_neighbours() {
        let _serial = serialize_faults();
        let pattern_eva = |pattern: &str| {
            let ast = spanners::regex::parse(pattern).unwrap();
            let va = spanners::regex::regex_to_va(&ast).unwrap();
            spanners::automata::va_to_eva(&va).unwrap()
        };
        let tenants =
            [("digits", pattern_eva(".*!x{[0-9]+}.*")), ("lower", pattern_eva(".*!x{[a-z]+}.*"))];
        let docs: Vec<Document> = w::text_corpus(0xBEEF, 9, 10, 60, b"ab 0189xyz");
        let refs: Vec<(&str, &spanners::Eva)> = tenants.iter().map(|(id, e)| (*id, e)).collect();
        let expected: Vec<Vec<Vec<Mapping>>> =
            docs.iter().map(|d| MultiSpanner::compile(&refs).unwrap().evaluate(d)).collect();
        for &workers in WORKER_COUNTS {
            let multi = MultiSpanner::compile(&refs).unwrap();
            let ctrl = Arc::new(AdmissionController::new(
                TenantQuotas::unlimited(),
                Some(BreakerPolicy::default()),
            ));
            let server = MultiStreamingServer::start_governed(
                multi,
                small_batch_opts(workers),
                Governance::none().with_admission(Arc::clone(&ctrl)),
            )
            .unwrap();
            let _plan = install_faults(FaultPlan {
                trip_breaker_on_tenants: vec!["poison".to_string()],
                ..FaultPlan::default()
            });
            let mut shed = 0u64;
            let mut tickets = Vec::new();
            for (i, doc) in docs.iter().enumerate() {
                if i % 3 == 2 {
                    match server.submit_for("poison", doc, None) {
                        Err(SpannerError::CircuitOpen { tenant, .. }) => {
                            assert_eq!(tenant, "poison");
                            shed += 1;
                        }
                        other => panic!("forced-open breaker admitted: {other:?}"),
                    }
                } else {
                    tickets.push((i, server.submit_for("good", doc, None).unwrap()));
                }
            }
            for (i, ticket) in tickets {
                let row = ticket.wait();
                for (t, cell) in row.iter().enumerate() {
                    assert_eq!(
                        cell.as_ref().unwrap(),
                        &expected[i][t],
                        "tenant {} doc {i} diverged at {workers} workers",
                        tenants[t].0
                    );
                }
            }
            server.drain();
            assert_eq!(shed, docs.len() as u64 / 3);
            assert_eq!(ctrl.stats().breaker_denials, shed);
            assert_eq!(ctrl.breaker_phase("good"), Some(BreakerPhase::Closed));
        }
    }

    /// `deny_admission_docs` pins injected `QuotaExceeded` rejections to
    /// exact admission ordinals, independent of worker timing.
    #[test]
    fn injected_admission_denials_land_on_exact_ordinals() {
        let _serial = serialize_faults();
        let (spanner, docs) = lazy_family();
        let ctrl = Arc::new(AdmissionController::permissive());
        let server = StreamingServer::start_governed(
            spanner,
            lockstep_opts(),
            Governance::none().with_admission(Arc::clone(&ctrl)),
            |_, dag| dag.collect_mappings(),
        )
        .unwrap();
        let _plan =
            install_faults(FaultPlan { deny_admission_docs: vec![1, 3], ..FaultPlan::default() });
        let mut outcomes = Vec::new();
        for doc in docs.iter().take(5) {
            match server.submit_for("t", doc.clone(), None) {
                Ok(ticket) => {
                    ticket.wait().unwrap();
                    outcomes.push("ok");
                }
                Err(SpannerError::QuotaExceeded { tenant, kind }) => {
                    assert_eq!(tenant, "t");
                    assert_eq!(kind, "injected");
                    outcomes.push("denied");
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(outcomes, vec!["ok", "denied", "ok", "denied", "ok"]);
        server.drain();
        let stats = ctrl.stats();
        assert_eq!((stats.admitted, stats.quota_denials), (3, 2));
    }

    /// Injected governor pressure pushes the shared ledger over budget at
    /// the next batch settle: later admissions are denied retryably and
    /// the shedding ladder runs (severity 1 before severity 2).
    #[test]
    fn injected_governor_pressure_denies_admissions_retryably() {
        let _serial = serialize_faults();
        let (spanner, docs) = lazy_family();
        let budget = 1 << 20;
        let gov = Arc::new(MemoryGovernor::new(budget));
        let server = StreamingServer::start_governed(
            spanner,
            lockstep_opts(),
            Governance::none().with_governor(Arc::clone(&gov)),
            |_, dag| dag.collect_mappings(),
        )
        .unwrap();
        let _plan =
            install_faults(FaultPlan { governor_pressure: 2 * budget, ..FaultPlan::default() });
        // Pressure is sampled when a batch settles: the first document is
        // admitted on the quiet ledger and completes normally.
        server.submit(docs[0].clone(), None).unwrap().wait().unwrap();
        let err = server.submit(docs[1].clone(), None).unwrap_err();
        assert!(matches!(err, SpannerError::BudgetExceeded { .. }), "{err:?}");
        assert!(err.is_retryable());
        let stats = gov.stats();
        assert_eq!(stats.pressure_bytes, 2 * budget);
        assert!(stats.denials > 0);
        assert!(
            stats.ledger_bytes <= budget,
            "injected pressure is external: the settled ledger itself stays honest"
        );
        server.drain();
    }

    /// The bounded release-mode soak CI runs (`--ignored`): the
    /// multi-tenant streaming torture loop under a tight global budget with
    /// quotas, breakers and injected panics all armed at once. Asserts no
    /// deadlock (drain returns), no lost ticket, survivors byte-identical,
    /// and a ledger settled back to zero after every generation.
    #[test]
    #[ignore = "soak: bounded release-mode loop, run explicitly (CI soak job)"]
    fn soak_multi_tenant_streaming_under_tight_budget() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        let poisoned = poison_seqs(docs.len());
        let deadline = std::time::Instant::now() + Duration::from_secs(25);
        let mut generations = 0u32;
        let mut total_shed = 0usize;
        let mut total_deltas_shed = 0u64;
        while std::time::Instant::now() < deadline && generations < 200 {
            let workers = WORKER_COUNTS[generations as usize % WORKER_COUNTS.len()];
            let (spanner, _) = lazy_family();
            let ctrl = Arc::new(AdmissionController::new(
                TenantQuotas::uniform(TenantQuota::unlimited().with_max_in_flight_docs(docs.len())),
                Some(BreakerPolicy {
                    failure_threshold: docs.len() as u32 + 1,
                    window_docs: u32::MAX,
                    open_batches: 2,
                }),
            ));
            // Starvation budget: every settle is over, so every generation
            // walks the shedding ladder for real. Cold shedding recovers
            // the ledger, so the stream still makes progress; a submission
            // racing a settle may still be retryably denied.
            let gov = Arc::new(MemoryGovernor::new(1));
            let server = StreamingServer::start_governed(
                spanner,
                small_batch_opts(workers).with_queue_docs(docs.len()),
                Governance::none()
                    .with_admission(Arc::clone(&ctrl))
                    .with_governor(Arc::clone(&gov)),
                |_, dag| dag.collect_mappings(),
            )
            .unwrap();
            let _plan = install_faults(FaultPlan {
                panic_on_docs: poisoned.clone(),
                ..FaultPlan::default()
            });
            let mut tickets = Vec::new();
            let mut shed = 0usize;
            for (i, d) in docs.iter().enumerate() {
                match server.submit_for(TENANTS[i % TENANTS.len()], d.clone(), None) {
                    Ok(t) => tickets.push((i, t)),
                    // Governor denials under the tight budget are expected
                    // load shedding; anything terminal is a bug.
                    Err(e) if e.is_retryable() => shed += 1,
                    Err(e) => panic!("gen {generations} doc {i}: terminal {e:?}"),
                }
            }
            for (seq, ticket) in tickets {
                let result = ticket.wait();
                if poisoned.contains(&seq) {
                    assert!(matches!(result, Err(SpannerError::WorkerPanicked { .. })));
                } else {
                    assert_eq!(result.unwrap(), expected[seq], "gen {generations} doc {seq}");
                }
            }
            server.drain();
            assert_eq!(gov.ledger_bytes(), 0, "gen {generations}: ledger settled at drain");
            total_shed += shed;
            total_deltas_shed += gov.stats().deltas_shed;
            generations += 1;
        }
        assert!(generations > 0, "the soak loop must complete at least one generation");
        // The point of the starvation budget: the ladder really ran.
        assert!(
            total_deltas_shed > 0,
            "{generations} over-budget generations never shed ({total_shed} denials) — inert?"
        );
    }
}
