//! Fault-tolerance suite for the batch/serving runtime.
//!
//! Two layers:
//!
//! * **Always on** — per-document limits ([`spanners::core::EvalLimits`])
//!   and the report-returning batch APIs: a document that trips its step
//!   budget, deadline or eviction-thrash guard fails *alone*; its neighbours
//!   are byte-identical to an unlimited sequential run; recoverable trips
//!   degrade through the bounded retry ladder.
//! * **`fault-injection` feature** — the deterministic torture harness:
//!   install a `FaultPlan` (panic at the Nth document, fail the Nth engine
//!   checkout, force eviction thrash, expire a deadline), and assert at
//!   1/2/8 worker threads that nothing aborts the batch, failures surface as
//!   per-document errors, and every surviving document is byte-identical —
//!   mapping enumeration order included — to the sequential no-fault run.
//!
//! Run with `RUST_TEST_THREADS` unset: with the feature on, every test in
//! this file serializes on one mutex (fault plans are process-global), and
//! without it they race freely like the rest of the workspace suite.

use std::time::Duration;

use spanners::runtime::{BatchOptions, BatchSpanner};
use spanners::workloads as w;
use spanners::{
    CompiledSpanner, CountCache, DegradePolicy, Document, EnginePolicy, EvalLimits, Evaluator,
    LazyConfig, Mapping, Slp, SlpEvaluator, SpannerError,
};

/// Worker counts every scenario runs at: sequential fallback, modest
/// fan-out, heavy oversubscription.
const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// Fault plans are process-global, so when the harness is compiled in, every
/// test in this binary serializes on this lock (tests without a plan would
/// otherwise observe a concurrent test's faults).
#[cfg(feature = "fault-injection")]
static FAULT_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-injection")]
fn serialize_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Without the harness there is nothing to serialize against; the marker
/// keeps call sites identical across both builds.
#[cfg(not(feature = "fault-injection"))]
struct NoFaultsInstalled;

#[cfg(not(feature = "fault-injection"))]
fn serialize_faults() -> NoFaultsInstalled {
    NoFaultsInstalled
}

/// The eager workload: every position executes (nothing is skippable), so
/// step budgets translate directly into document-length thresholds.
fn all_spans() -> (CompiledSpanner, Vec<Document>) {
    let spanner = CompiledSpanner::from_eva(&w::all_spans_eva()).unwrap();
    let docs: Vec<Document> =
        [4usize, 120, 6, 90, 3, 200, 8].iter().map(|&n| Document::new(vec![b'x'; n])).collect();
    (spanner, docs)
}

/// The lazy workload: the exponential-blowup family under a tiny
/// determinization budget, so per-worker deltas run hot against their cache
/// and eviction faults have something to thrash.
fn lazy_family() -> (CompiledSpanner, Vec<Document>) {
    let spanner =
        CompiledSpanner::from_eva_lazy(&w::exp_blowup_eva(10), LazyConfig::with_budget(256))
            .unwrap();
    let docs = w::text_corpus(0x7B, 16, 50, 300, b"ab");
    (spanner, docs)
}

/// The lazy workload under a comfortable budget: natural runs never evict,
/// so the *only* source of cache clears is the forced-eviction fault (which
/// zeroes the per-document delta budget). Documents 0–3 are the batch
/// runtime's warm sample — their subset states all land in the frozen
/// snapshot, so eviction faults only bite on indices ≥ 4.
#[cfg(feature = "fault-injection")]
fn comfy_lazy_family() -> (CompiledSpanner, Vec<Document>) {
    let spanner =
        CompiledSpanner::from_eva_lazy(&w::exp_blowup_eva(10), LazyConfig::with_budget(1 << 20))
            .unwrap();
    let docs = w::text_corpus(0x7B, 16, 50, 300, b"ab");
    (spanner, docs)
}

/// The no-fault, unlimited sequential baseline every survivor is pinned
/// against (enumeration order included — no sorting).
fn baseline(spanner: &CompiledSpanner, docs: &[Document]) -> Vec<Vec<Mapping>> {
    spanner.evaluate_batch(docs, &BatchOptions::threads(1), |_, dag| dag.collect_mappings())
}

#[test]
fn step_budget_fails_long_documents_alone() {
    let _serial = serialize_faults();
    let (spanner, docs) = all_spans();
    let expected = baseline(&spanner, &docs);
    let opts = |threads| {
        BatchOptions::threads(threads)
            .with_limits(EvalLimits::none().with_max_steps(50))
            .with_degrade(DegradePolicy::none())
    };
    for &threads in THREAD_COUNTS {
        let report = spanner
            .evaluate_batch_report(&docs, &opts(threads), |_, dag| dag.collect_mappings())
            .unwrap();
        assert_eq!(report.results.len(), docs.len());
        for (i, result) in report.results.iter().enumerate() {
            if docs[i].len() > 50 {
                assert!(
                    matches!(result, Err(SpannerError::StepBudgetExceeded { limit: 50 })),
                    "doc {i} ({} bytes) at {threads} threads: {result:?}",
                    docs[i].len()
                );
            } else {
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&expected[i]),
                    "short doc {i} diverged at {threads} threads"
                );
            }
        }
        assert_eq!(report.ok + report.failed, docs.len());
        assert_eq!(report.failed, docs.iter().filter(|d| d.len() > 50).count());
        assert_eq!(report.degraded, 0);
        assert_eq!(report.quarantined, 0);
    }
}

fn assert_step_budget<T: std::fmt::Debug>(result: Result<T, SpannerError>, what: &str) {
    assert!(
        matches!(result, Err(SpannerError::StepBudgetExceeded { limit: 50 })),
        "{what}: {result:?}"
    );
}

#[test]
fn configured_limits_apply_on_every_target_and_task() {
    let _serial = serialize_faults();
    let eva = w::all_spans_eva();
    let eager = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager).unwrap();
    let lazy = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
    let (long, short) = (Document::new(vec![b'a'; 200]), Document::from("abcd"));
    let (long_slp, short_slp) = (Slp::literal(long.bytes()), Slp::literal(short.bytes()));
    let frozen = lazy.freeze_warm(std::slice::from_ref(&short)).expect("lazy spanners freeze");
    let limits = EvalLimits::none().with_max_steps(50);
    let mut ev = Evaluator::new();
    let mut counts = CountCache::<u64>::new();
    let mut slp_ev = SlpEvaluator::new();
    ev.set_limits(limits);
    counts.set_limits(limits);
    slp_ev.set_limits(limits);
    let targets = [
        ("eager", eager.target(None)),
        ("lazy", lazy.target(None)),
        ("frozen", lazy.target(Some(&frozen))),
    ];
    for (name, target) in targets {
        assert_step_budget(ev.eval(target, &long), &format!("{name} eval"));
        assert_step_budget(counts.count(target, &long), &format!("{name} count"));
        assert_step_budget(ev.accepts(target, &long), &format!("{name} accepts"));
        assert_step_budget(slp_ev.count(target, &long_slp), &format!("{name} slp count"));
        assert_step_budget(slp_ev.accepts(target, &long_slp), &format!("{name} slp accepts"));
        // Every engine stays reusable: a short document then matches an
        // unlimited run.
        let mut unlimited = Evaluator::new();
        assert_eq!(
            ev.eval(target, &short).unwrap().collect_mappings(),
            unlimited.eval(target, &short).unwrap().collect_mappings(),
            "{name} eval after a tripped limit"
        );
        assert_eq!(
            counts.count(target, &short).unwrap(),
            CountCache::<u64>::new().count(target, &short).unwrap(),
            "{name} count after a tripped limit"
        );
        assert_eq!(
            ev.accepts(target, &short).unwrap(),
            unlimited.accepts(target, &short).unwrap(),
            "{name} accepts after a tripped limit"
        );
        assert_eq!(
            slp_ev.count(target, &short_slp).unwrap(),
            SlpEvaluator::new().count(target, &short_slp).unwrap(),
            "{name} slp count after a tripped limit"
        );
        assert_eq!(
            slp_ev.accepts(target, &short_slp).unwrap(),
            SlpEvaluator::new().accepts(target, &short_slp).unwrap(),
            "{name} slp accepts after a tripped limit"
        );
    }
}

#[test]
fn hard_deadline_is_a_per_document_error_not_an_abort() {
    let _serial = serialize_faults();
    let (spanner, docs) = all_spans();
    let opts = BatchOptions::threads(2)
        .with_limits(EvalLimits::none().with_deadline(Duration::ZERO))
        .with_degrade(DegradePolicy::none());
    let report =
        spanner.evaluate_batch_report(&docs, &opts, |_, dag| dag.collect_mappings()).unwrap();
    assert_eq!(report.failed, docs.len(), "an expired hard deadline fails every document");
    for result in &report.results {
        assert!(
            matches!(result, Err(SpannerError::DeadlineExceeded { soft: false, .. })),
            "{result:?}"
        );
    }
    // Hard deadlines are not retryable: no degradation attempts were spent.
    assert_eq!(report.retried, 0);
}

#[test]
fn soft_deadline_degrades_and_recovers_every_document() {
    let _serial = serialize_faults();
    for (spanner, docs) in [all_spans(), lazy_family()] {
        let expected = baseline(&spanner, &docs);
        for &threads in THREAD_COUNTS {
            let opts = BatchOptions::threads(threads)
                .with_limits(EvalLimits::none().with_soft_deadline(Duration::ZERO));
            let report = spanner
                .evaluate_batch_report(&docs, &opts, |_, dag| dag.collect_mappings())
                .unwrap();
            assert!(report.is_fully_ok(), "soft deadline must degrade, not fail");
            let results: Vec<_> = report.results.iter().map(|r| r.as_ref().unwrap()).collect();
            for (i, got) in results.iter().enumerate() {
                assert_eq!(
                    **got, expected[i],
                    "degraded doc {i} diverged from baseline at {threads} threads"
                );
            }
            assert_eq!(
                report.degraded,
                docs.len(),
                "every document's first attempt trips the zero soft deadline"
            );
            assert_eq!(report.retried, docs.len(), "exactly one retry per document");
        }
    }
}

#[test]
fn eviction_thrash_guard_trips_and_budget_boost_rescues() {
    let _serial = serialize_faults();
    let (spanner, docs) = lazy_family();
    let expected = baseline(&spanner, &docs);
    // The 256-byte budget makes some documents clear their delta dozens of
    // times; a generous boosted budget clears the thrash entirely.
    let thrashing = EvalLimits::none().with_max_cache_clears(0);
    let no_retry =
        BatchOptions::threads(2).with_limits(thrashing).with_degrade(DegradePolicy::none());
    let strict =
        spanner.evaluate_batch_report(&docs, &no_retry, |_, dag| dag.collect_mappings()).unwrap();
    let thrashed: Vec<usize> = strict
        .results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| matches!(r, Err(SpannerError::BudgetExceeded { .. })).then_some(i))
        .collect();
    assert!(
        !thrashed.is_empty(),
        "the tiny-budget lazy family must trip the thrash guard somewhere"
    );

    for &threads in THREAD_COUNTS {
        let opts = BatchOptions::threads(threads)
            .with_limits(thrashing)
            .with_degrade(DegradePolicy { max_attempts: 3, budget_boost: 1024 });
        let report =
            spanner.evaluate_batch_report(&docs, &opts, |_, dag| dag.collect_mappings()).unwrap();
        assert!(
            report.is_fully_ok(),
            "boosted retries must rescue every thrashing document at {threads} threads"
        );
        for (i, result) in report.results.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap(),
                &expected[i],
                "doc {i} diverged after degradation at {threads} threads"
            );
        }
        assert!(
            report.degraded >= thrashed.len(),
            "every strict-mode failure must surface as a degraded success \
             ({} degraded, {} thrashed) at {threads} threads",
            report.degraded,
            thrashed.len()
        );
    }
}

#[test]
fn count_report_mirrors_evaluate_report_isolation() {
    let _serial = serialize_faults();
    let (spanner, docs) = all_spans();
    let expected: Vec<u64> = spanner.count_batch(&docs, &BatchOptions::threads(1)).unwrap();
    let opts = BatchOptions::threads(2)
        .with_limits(EvalLimits::none().with_max_steps(50))
        .with_degrade(DegradePolicy::none());
    let report = spanner.count_batch_report::<u64>(&docs, &opts).unwrap();
    for (i, result) in report.results.iter().enumerate() {
        if docs[i].len() > 50 {
            assert!(matches!(result, Err(SpannerError::StepBudgetExceeded { .. })));
        } else {
            assert_eq!(result.as_ref().ok(), Some(&expected[i]), "count of doc {i}");
        }
    }
    // The legacy API still aborts at the lowest-index failure.
    let err = spanner.count_batch::<u64>(&docs, &opts).unwrap_err();
    assert!(matches!(err, SpannerError::StepBudgetExceeded { limit: 50 }), "{err}");
}

#[test]
fn report_apis_reject_invalid_options() {
    let _serial = serialize_faults();
    let (spanner, docs) = all_spans();
    for bad in [
        BatchOptions::threads(0),
        BatchOptions::default()
            .with_degrade(DegradePolicy { max_attempts: 0, ..DegradePolicy::default() }),
        BatchOptions::default()
            .with_degrade(DegradePolicy { max_attempts: 64, ..DegradePolicy::default() }),
    ] {
        let err = spanner.evaluate_batch_report(&docs, &bad, |_, dag| dag.num_nodes()).unwrap_err();
        assert!(matches!(err, SpannerError::InvalidConfig { .. }), "{err}");
        let err = spanner.count_batch_report::<u64>(&docs, &bad).unwrap_err();
        assert!(matches!(err, SpannerError::InvalidConfig { .. }), "{err}");
    }
}

/// The torture half: deterministic injected faults, asserted at every thread
/// count. Compiled only with `--features fault-injection`.
#[cfg(feature = "fault-injection")]
mod torture {
    use super::*;
    use spanners::runtime::{install_faults, FaultPlan};

    /// Asserts the survivors of `report.results` (indices not in `failed`)
    /// are byte-identical to the baseline, enumeration order included.
    fn assert_survivors<T: PartialEq + std::fmt::Debug>(
        results: &[Result<T, SpannerError>],
        baseline: &[T],
        failed: &[usize],
        context: &str,
    ) {
        assert_eq!(results.len(), baseline.len(), "{context}: result slots");
        for (i, result) in results.iter().enumerate() {
            if failed.contains(&i) {
                assert!(result.is_err(), "{context}: doc {i} was scheduled to fail");
            } else {
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&baseline[i]),
                    "{context}: surviving doc {i} diverged from the no-fault sequential run"
                );
            }
        }
    }

    #[test]
    fn injected_panics_never_abort_and_quarantine_their_engines() {
        let _serial = serialize_faults();
        for (name, (spanner, docs)) in
            [("all_spans", all_spans()), ("exp_blowup_lazy", lazy_family())]
        {
            let expected = baseline(&spanner, &docs);
            let panic_docs = vec![2usize, 5];
            for &threads in THREAD_COUNTS {
                let _plan = install_faults(FaultPlan {
                    panic_on_docs: panic_docs.clone(),
                    ..FaultPlan::default()
                });
                let report = spanner
                    .evaluate_batch_report(&docs, &BatchOptions::threads(threads), |_, dag| {
                        dag.collect_mappings()
                    })
                    .unwrap();
                assert_survivors(
                    &report.results,
                    &expected,
                    &panic_docs,
                    &format!("{name} @ {threads} threads"),
                );
                for &i in &panic_docs {
                    match &report.results[i] {
                        Err(SpannerError::WorkerPanicked { doc_index, message }) => {
                            assert_eq!(*doc_index, i);
                            assert!(
                                message.contains("injected fault"),
                                "unexpected panic message: {message}"
                            );
                        }
                        other => panic!("{name}: doc {i} should have panicked, got {other:?}"),
                    }
                }
                assert_eq!(
                    report.quarantined,
                    panic_docs.len(),
                    "{name} @ {threads} threads: one engine quarantined per contained panic"
                );
                assert_eq!(report.ok, docs.len() - panic_docs.len());
                assert_eq!(report.failed, panic_docs.len());
            }
        }
    }

    #[test]
    fn injected_checkout_failures_are_retried_and_contained() {
        let _serial = serialize_faults();
        let (spanner, docs) = all_spans();
        let expected = baseline(&spanner, &docs);
        for &threads in THREAD_COUNTS {
            // The first checkout panics; the worker's one-shot retry gets the
            // next ordinal and proceeds. No document is lost.
            let _plan =
                install_faults(FaultPlan { fail_checkouts: vec![0], ..FaultPlan::default() });
            let report = spanner
                .evaluate_batch_report(&docs, &BatchOptions::threads(threads), |_, dag| {
                    dag.collect_mappings()
                })
                .unwrap();
            assert!(
                report.is_fully_ok(),
                "a failed checkout must be retried, not fail documents ({threads} threads)"
            );
            assert_survivors(&report.results, &expected, &[], &format!("{threads} threads"));
        }
    }

    #[test]
    fn forced_eviction_faults_degrade_only_their_documents() {
        let _serial = serialize_faults();
        let (spanner, docs) = comfy_lazy_family();
        let expected = baseline(&spanner, &docs);
        // Under the comfortable budget no document clears naturally, so a
        // zero clear allowance is tripped by exactly the faulted documents
        // (whose delta budget is forced to zero).
        let limits = EvalLimits::none().with_max_cache_clears(0);
        let fault_docs = vec![6usize, 11];
        for &threads in THREAD_COUNTS {
            let opts = BatchOptions::threads(threads)
                .with_limits(limits)
                .with_degrade(DegradePolicy { max_attempts: 3, budget_boost: 1024 });
            let _plan = install_faults(FaultPlan {
                force_eviction_docs: fault_docs.clone(),
                ..FaultPlan::default()
            });
            let report = spanner
                .evaluate_batch_report(&docs, &opts, |_, dag| dag.collect_mappings())
                .unwrap();
            assert!(
                report.is_fully_ok(),
                "forced thrash must degrade and recover at {threads} threads: {:?}",
                report.first_error()
            );
            assert_survivors(&report.results, &expected, &[], &format!("{threads} threads"));
            assert_eq!(
                report.degraded,
                fault_docs.len(),
                "exactly the zero-budget documents go through the retry ladder \
                 at {threads} threads"
            );
            assert_eq!(report.retried, fault_docs.len(), "one boosted retry per faulted doc");
        }
    }

    #[test]
    fn expired_deadline_faults_fail_only_their_documents() {
        let _serial = serialize_faults();
        let (spanner, docs) = all_spans();
        let expected = baseline(&spanner, &docs);
        let deadline_docs = vec![1usize, 3];
        for &threads in THREAD_COUNTS {
            let _plan = install_faults(FaultPlan {
                expire_deadline_docs: deadline_docs.clone(),
                ..FaultPlan::default()
            });
            let report = spanner
                .evaluate_batch_report(&docs, &BatchOptions::threads(threads), |_, dag| {
                    dag.collect_mappings()
                })
                .unwrap();
            assert_survivors(
                &report.results,
                &expected,
                &deadline_docs,
                &format!("{threads} threads"),
            );
            for &i in &deadline_docs {
                assert!(
                    matches!(
                        report.results[i],
                        Err(SpannerError::DeadlineExceeded { soft: false, .. })
                    ),
                    "doc {i}: {:?}",
                    report.results[i]
                );
            }
            assert_eq!(report.quarantined, 0, "deadline trips are errors, not panics");
        }
    }

    #[test]
    fn torture_mix_every_fault_class_at_once() {
        let _serial = serialize_faults();
        let (spanner, docs) = comfy_lazy_family();
        let expected = baseline(&spanner, &docs);
        let expected_counts: Vec<u64> =
            spanner.count_batch(&docs, &BatchOptions::threads(1)).unwrap();
        let panic_docs = vec![0usize, 9];
        let deadline_docs = vec![4usize, 13];
        let eviction_docs = vec![6usize, 11];
        let failing: Vec<usize> = panic_docs.iter().chain(&deadline_docs).copied().collect();
        let plan = FaultPlan {
            panic_on_docs: panic_docs.clone(),
            fail_checkouts: vec![0],
            force_eviction_docs: eviction_docs.clone(),
            expire_deadline_docs: deadline_docs.clone(),
            ..FaultPlan::default()
        };
        let opts_for = |threads| {
            BatchOptions::threads(threads)
                .with_limits(EvalLimits::none().with_max_cache_clears(0))
                .with_degrade(DegradePolicy { max_attempts: 3, budget_boost: 1024 })
        };
        for &threads in THREAD_COUNTS {
            {
                let _plan = install_faults(plan.clone());
                let report = spanner
                    .evaluate_batch_report(&docs, &opts_for(threads), |_, dag| {
                        dag.collect_mappings()
                    })
                    .unwrap();
                assert_survivors(
                    &report.results,
                    &expected,
                    &failing,
                    &format!("mixed evaluate @ {threads} threads"),
                );
                assert_eq!(report.failed, failing.len());
                assert_eq!(report.ok, docs.len() - failing.len());
                assert_eq!(report.quarantined, panic_docs.len());
                assert!(report.degraded >= eviction_docs.len());

                let counts = spanner.count_batch_report::<u64>(&docs, &opts_for(threads)).unwrap();
                assert_survivors(
                    &counts.results,
                    &expected_counts,
                    &failing,
                    &format!("mixed count @ {threads} threads"),
                );
            }
            // Plan uninstalled: the very same call is fault-free again.
            let clean = spanner
                .evaluate_batch_report(&docs, &opts_for(threads), |_, dag| dag.collect_mappings())
                .unwrap();
            assert!(clean.is_fully_ok(), "faults leaked past the guard at {threads} threads");
            assert_survivors(&clean.results, &expected, &[], "post-guard clean run");
        }
    }
}
