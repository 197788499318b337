//! Streaming-service suite: bounded ingress, micro-batching, deadlines,
//! drain/abort, and generational snapshot re-freezing.
//!
//! Two layers, mirroring `tests/fault_tolerance.rs`:
//!
//! * **Always on** — the streamed results are **byte-identical** (mapping
//!   enumeration order included) to the sequential batch path over the same
//!   documents, at every worker count, with re-freezing disabled *and* with
//!   promotions forced on every batch (generation swaps must never change
//!   results — output is a pure function of the automaton and the document);
//!   backpressure sheds load with `Overloaded`; drain completes every
//!   accepted ticket; abort fails queued tickets deterministically; expired
//!   tickets fail at dequeue without evaluation.
//! * **`fault-injection` feature** — the streaming torture half: promotion
//!   panics, abandoned generation swaps, stalled dequeues and mid-document
//!   worker panics, at 1/2/8 workers, asserting no deadlock (drain returns),
//!   no lost ticket (every submission resolves), and byte-identical
//!   survivors.
//!
//! Run with `RUST_TEST_THREADS` unset: with the feature on, every test here
//! serializes on one mutex (fault plans are process-global).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spanners::runtime::{BatchOptions, BatchSpanner, RefreezePolicy, StreamingOptions};
use spanners::workloads as w;
use spanners::{
    CompiledSpanner, Document, LazyConfig, Mapping, SpannerError, StreamingServer, Ticket,
};

/// Worker counts every scenario runs at: sequential fallback, modest
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

/// The lazy workload: the exponential-blowup family under a tiny
/// determinization budget, so worker deltas run hot against the frozen
/// snapshot and forced re-freezes have real pressure to fold in.
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

/// Streams `docs` through a fresh server and returns the per-seq outcomes.
fn stream_all(
    opts: StreamingOptions,
    docs: &[Document],
) -> (Vec<Result<Vec<Mapping>, SpannerError>>, spanners::StreamingStats) {
    let (spanner, _) = lazy_family();
    let server = StreamingServer::start(spanner, opts, |_, dag| dag.collect_mappings()).unwrap();
    let tickets: Vec<Ticket<Vec<Mapping>>> =
        docs.iter().map(|d| server.submit(d.clone(), None).unwrap()).collect();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.seq(), i, "tickets number submissions in order");
    }
    let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    let stats = server.drain();
    (results, stats)
}

/// Forces a promotion attempt after every single batch: every batch is hot
/// (`min_delta_states: 0`) and one hot batch suffices.
fn refreeze_every_batch() -> RefreezePolicy {
    RefreezePolicy { min_delta_states: 0, sustained_batches: 1 }
}

/// Small batches so a 16-document stream crosses several micro-batches (and
/// several generations, when re-freezing is forced).
fn small_batch_opts(workers: usize) -> StreamingOptions {
    StreamingOptions::workers(workers).with_batch_caps(3, 1 << 20)
}

#[test]
fn streamed_results_match_the_batch_path_at_every_worker_count() {
    let _serial = serialize_faults();
    let (_, docs) = lazy_family();
    let expected = expected_mappings(&docs);
    for &workers in WORKER_COUNTS {
        let (results, stats) = stream_all(small_batch_opts(workers).with_refreeze(None), &docs);
        for (seq, result) in results.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap(),
                &expected[seq],
                "doc {seq} diverged at {workers} workers"
            );
        }
        assert_eq!(stats.submitted, docs.len() as u64);
        assert_eq!(stats.completed, docs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.promotions, 0, "re-freezing was disabled");
        assert_eq!(stats.generation, 1, "initial warm snapshot only");
    }
}

#[test]
fn generation_swaps_never_change_results() {
    let _serial = serialize_faults();
    let (_, docs) = lazy_family();
    let expected = expected_mappings(&docs);
    for &workers in WORKER_COUNTS {
        let opts = small_batch_opts(workers).with_refreeze(Some(refreeze_every_batch()));
        let (results, stats) = stream_all(opts, &docs);
        for (seq, result) in results.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap(),
                &expected[seq],
                "doc {seq} diverged across generation swaps at {workers} workers"
            );
        }
        assert!(
            stats.promotions >= 1,
            "forced re-freeze never promoted at {workers} workers: {stats:?}"
        );
        assert_eq!(stats.generation, 1 + stats.promotions, "one generation per promotion");
        assert_eq!(stats.completed, docs.len() as u64);
    }
}

/// A mapper that announces when a worker enters it and then blocks until the
/// test releases the gate — the deterministic way to hold a worker busy so
/// the ingress queue can be filled (and overfilled) without racing.
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

#[test]
fn try_submit_sheds_load_with_a_typed_overloaded_error() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let opts = StreamingOptions::workers(1).with_queue_docs(2).with_batch_caps(1, 1 << 20);
    let server = StreamingServer::start(spanner, opts, move |_, _dag| mapper.run()).unwrap();

    // Doc 0 occupies the only worker (blocked in the mapper behind the gate).
    let t0 = server.submit(docs[0].clone(), None).unwrap();
    wait_until(&entered);
    // Docs 1–2 fill the queue to capacity; doc 3 must be shed, typed.
    let t1 = server.submit(docs[1].clone(), None).unwrap();
    let t2 = server.submit(docs[2].clone(), None).unwrap();
    match server.try_submit(docs[3].clone(), None) {
        Err(SpannerError::Overloaded { queued, capacity }) => {
            assert_eq!(capacity, 2);
            assert_eq!(queued, 2, "the shed error reports the live queue depth");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(server.queue_len(), 2);

    drop(held);
    for t in [t0, t1, t2] {
        t.wait().unwrap();
    }
    let stats = server.drain();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn abort_finishes_in_flight_work_and_fails_queued_tickets_deterministically() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let opts = StreamingOptions::workers(1).with_batch_caps(1, 1 << 20);
    let server = StreamingServer::start(spanner, opts, move |_, _dag| mapper.run()).unwrap();

    let t0 = server.submit(docs[0].clone(), None).unwrap();
    wait_until(&entered);
    let queued: Vec<_> =
        docs[1..5].iter().map(|d| server.submit(d.clone(), None).unwrap()).collect();

    // Initiate the abort while the worker is still blocked inside doc 0's
    // batch: submissions are rejected immediately, the in-flight batch
    // finishes once the gate opens, and the queued tickets fail typed.
    server.begin_abort();
    match server.submit(docs[5].clone(), None) {
        Err(SpannerError::ShuttingDown) => {}
        other => panic!("submit after begin_abort should fail typed, got {other:?}"),
    }
    drop(held);
    let stats = server.abort();
    t0.wait().unwrap();
    for t in queued {
        match t.wait() {
            Err(SpannerError::ShuttingDown) => {}
            other => panic!("queued ticket should fail with ShuttingDown, got {other:?}"),
        }
    }
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 1);
}

/// Holds doc 0 in the mapper of a single worker, queues docs 1–7 behind it,
/// then opens the gate: the worker must cut the backlog into batches of at
/// most `max_docs`. Returns the number of batches formed.
fn backlog_batches(max_docs: usize) -> u64 {
    let (spanner, docs) = lazy_family();
    let docs = &docs[..8];
    let expected = expected_mappings(docs);
    let (mapper, entered, gate) = GatedMapper::new();
    let held = gate.lock().unwrap();
    let opts = StreamingOptions::workers(1).with_batch_caps(max_docs, 1 << 20);
    let server = StreamingServer::start(spanner, opts, move |_, dag| {
        mapper.run();
        dag.collect_mappings()
    })
    .unwrap();

    let t0 = server.submit(docs[0].clone(), None).unwrap();
    wait_until(&entered);
    let mut tickets = vec![t0];
    tickets.extend(docs[1..].iter().map(|d| server.submit(d.clone(), None).unwrap()));
    drop(held);
    for (seq, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().unwrap(), expected[seq], "doc {seq} diverged");
    }
    server.drain().batches
}

#[test]
fn a_backlog_coalesces_into_capped_batches() {
    let _serial = serialize_faults();
    // Doc 0's batch, then the seven queued documents as 3 + 3 + 1.
    assert_eq!(backlog_batches(3), 4);
    // Doc 0's batch, then all seven queued documents at once.
    assert_eq!(backlog_batches(32), 2);
}

#[test]
fn tickets_expired_in_the_queue_fail_hard_without_evaluation() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let server = StreamingServer::start(spanner, StreamingOptions::workers(1), |_, dag| {
        dag.collect_mappings()
    })
    .unwrap();
    let expired = server.submit(docs[0].clone(), Some(Duration::ZERO)).unwrap();
    let live = server.submit(docs[1].clone(), None).unwrap();
    match expired.wait() {
        Err(SpannerError::DeadlineExceeded { soft: false, .. }) => {}
        other => panic!("expected a hard queue-expiry DeadlineExceeded, got {other:?}"),
    }
    live.wait().unwrap();
    let stats = server.drain();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.submitted, 2);
}

#[test]
fn drain_completes_every_accepted_ticket() {
    let _serial = serialize_faults();
    let (_, docs) = lazy_family();
    for &workers in WORKER_COUNTS {
        let (spanner, _) = lazy_family();
        let server =
            StreamingServer::start(spanner, small_batch_opts(workers), |_, dag| dag.num_nodes())
                .unwrap();
        let tickets: Vec<_> =
            docs.iter().map(|d| server.submit(d.clone(), None).unwrap()).collect();
        // Drain races the workers on purpose: whatever is still queued must
        // be completed, not dropped.
        let stats = server.drain();
        assert_eq!(stats.submitted, docs.len() as u64);
        assert_eq!(stats.completed + stats.failed + stats.expired, docs.len() as u64);
        assert_eq!(stats.failed, 0);
        for t in tickets {
            assert!(t.is_done(), "drain returned with an unresolved ticket");
            t.wait().unwrap();
        }
    }
}

#[cfg(feature = "fault-injection")]
mod torture {
    use super::*;
    use spanners::runtime::{install_faults, FaultPlan};

    /// Promotion panics are contained: serving continues on the old
    /// generation and every result stays byte-identical.
    #[test]
    fn promotion_panics_leave_the_old_generation_serving() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        for &workers in WORKER_COUNTS {
            let _plan =
                install_faults(FaultPlan { panic_on_promotions: vec![0], ..FaultPlan::default() });
            let opts = small_batch_opts(workers).with_refreeze(Some(refreeze_every_batch()));
            let (results, stats) = stream_all(opts, &docs);
            for (seq, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref().unwrap(),
                    &expected[seq],
                    "doc {seq} diverged after a contained promotion panic ({workers} workers)"
                );
            }
            assert_eq!(
                stats.promotions_panicked, 1,
                "the first promotion was scheduled to panic ({workers} workers)"
            );
            assert_eq!(stats.completed, docs.len() as u64);
        }
    }

    /// An abandoned generation swap keeps the old snapshot; later
    /// promotions still go through; results never change.
    #[test]
    fn failed_swaps_keep_serving_and_later_promotions_succeed() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        for &workers in WORKER_COUNTS {
            let _plan = install_faults(FaultPlan { fail_swaps: vec![0], ..FaultPlan::default() });
            let opts = small_batch_opts(workers).with_refreeze(Some(refreeze_every_batch()));
            let (results, stats) = stream_all(opts, &docs);
            for (seq, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref().unwrap(),
                    &expected[seq],
                    "doc {seq} diverged after an abandoned swap ({workers} workers)"
                );
            }
            assert_eq!(stats.swaps_failed, 1, "the first swap was scheduled to fail");
            assert_eq!(stats.generation, 1 + stats.promotions);
            assert_eq!(stats.completed, docs.len() as u64);
        }
    }

    /// A stalled dequeue expires exactly the deadline-carrying tickets of
    /// the stalled batch; everything else completes byte-identically.
    #[test]
    fn stalled_dequeues_expire_deadline_tickets_only() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        for &workers in WORKER_COUNTS {
            let _plan =
                install_faults(FaultPlan { stall_dequeues: vec![0], ..FaultPlan::default() });
            let (spanner, _) = lazy_family();
            let server = StreamingServer::start(spanner, small_batch_opts(workers), |_, dag| {
                dag.collect_mappings()
            })
            .unwrap();
            // Every ticket carries a generous deadline only an injected
            // stall can expire.
            let tickets: Vec<_> = docs
                .iter()
                .map(|d| server.submit(d.clone(), Some(Duration::from_secs(3600))).unwrap())
                .collect();
            let mut expired = 0u64;
            for (seq, t) in tickets.into_iter().enumerate() {
                match t.wait() {
                    Ok(mappings) => assert_eq!(
                        mappings, expected[seq],
                        "surviving doc {seq} diverged ({workers} workers)"
                    ),
                    Err(SpannerError::DeadlineExceeded { soft: false, limit_ms }) => {
                        assert_eq!(limit_ms, 3_600_000);
                        expired += 1;
                    }
                    Err(other) => panic!("unexpected error for doc {seq}: {other:?}"),
                }
            }
            let stats = server.drain();
            assert!(expired >= 1, "the stalled batch carried at least one ticket");
            assert_eq!(stats.expired, expired);
            assert_eq!(stats.completed + stats.expired, docs.len() as u64);
        }
    }

    /// The combined torture run: mid-document panics on every odd sequence
    /// number, the first promotion panicking, the next swap abandoned, and
    /// promotions forced after every batch — at 1/2/8 workers nothing
    /// deadlocks, every ticket resolves, failures are typed per-document,
    /// survivors are byte-identical, and the pre-emptively replenished pool
    /// keeps engine creation bounded.
    #[test]
    fn combined_torture_loses_nothing_at_any_worker_count() {
        let _serial = serialize_faults();
        let (_, docs) = lazy_family();
        let expected = expected_mappings(&docs);
        let odd_seqs: Vec<usize> = (0..docs.len()).filter(|s| s % 2 == 1).collect();
        for &workers in WORKER_COUNTS {
            let _plan = install_faults(FaultPlan {
                panic_on_docs: odd_seqs.clone(),
                panic_on_promotions: vec![0],
                fail_swaps: vec![1],
                ..FaultPlan::default()
            });
            let opts = small_batch_opts(workers).with_refreeze(Some(refreeze_every_batch()));
            let (results, stats) = stream_all(opts, &docs);
            for (seq, result) in results.iter().enumerate() {
                if seq % 2 == 1 {
                    match result {
                        Err(SpannerError::WorkerPanicked { doc_index, .. }) => {
                            assert_eq!(*doc_index, seq, "panic attributed to the wrong document")
                        }
                        other => panic!("doc {seq} should have panicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(
                        result.as_ref().unwrap(),
                        &expected[seq],
                        "surviving doc {seq} diverged under combined torture ({workers} workers)"
                    );
                }
            }
            assert_eq!(stats.completed, (docs.len() / 2) as u64);
            assert_eq!(stats.failed, docs.len() as u64 - stats.completed);
            assert_eq!(
                stats.engines_quarantined as u64, stats.failed,
                "one quarantine per contained panic"
            );
            assert!(
                stats.engines_created <= stats.engines_quarantined + workers + 1,
                "pool overcreated engines: {stats:?} at {workers} workers"
            );
        }
    }
}
