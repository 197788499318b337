//! Differential suite for the **parallel batch/serving runtime**.
//!
//! The batch entry points (`evaluate_batch`/`count_batch`/`is_match_batch`,
//! one-shot and via `SpannerServer`) must be byte-for-byte equivalent to the
//! sequential engines at **every thread count** — same mappings in the same
//! per-document order, same counts, same match bits, results in document
//! order — across the workload families and both engines (eager tables and
//! lazy spanners served through a shared frozen snapshot + per-worker
//! deltas). Torture cases force the frozen-overflow delta to evict
//! mid-document under a tiny budget, and the pool tests pin the warm-engine
//! capacity-retention contract under real thread contention (run with
//! `RUST_TEST_THREADS` unset so tests race each other too).

use spanners::runtime::{BatchOptions, BatchSpanner, EvaluatorPool, SpannerServer};
use spanners::workloads as w;
use spanners::{
    CompiledSpanner, CountCache, Document, Evaluator, EvictionPolicy, LazyConfig, Mapping,
    SpannerError,
};

/// Worker counts every differential runs at: the sequential fallback, a
/// modest fan-out, and heavy oversubscription (8 workers race regardless of
/// core count, so scheduling orders vary run to run — outputs must not).
const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// The workload families, as compiled spanners plus a multi-document corpus:
/// eager regex pipelines, an eager hand-built eVA, and a lazy-backed
/// (nondeterministic) family that exercises the frozen/delta split.
fn families() -> Vec<(&'static str, CompiledSpanner, Vec<Document>)> {
    let mut out = Vec::new();

    let contact = spanners::regex::compile(w::contact_pattern()).unwrap();
    let (mut docs, _) = w::contact_corpus(0xC0FFEE, 30, 5);
    docs.push(Document::empty());
    docs.push(w::figure1_document());
    out.push(("contact", contact, docs));

    let digits = spanners::regex::compile(w::digit_runs_pattern()).unwrap();
    let mut docs = w::text_corpus(0xD161, 30, 0, 120, b"ab0123 ");
    docs.push(Document::empty());
    out.push(("digit_runs", digits, docs));

    let ipv4 = spanners::regex::compile(w::ipv4_pattern()).unwrap();
    out.push(("ipv4", ipv4, w::log_corpus(0x109, 10, 2)));

    let spans = CompiledSpanner::from_eva(&w::all_spans_eva()).unwrap();
    out.push(("all_spans", spans, w::text_corpus(0xA11, 24, 0, 40, b"qwerty")));

    let lazy = CompiledSpanner::from_eva(&w::exp_blowup_eva(8)).unwrap();
    assert!(lazy.is_lazy(), "Auto must route the exponential family to the lazy engine");
    out.push(("exp_blowup_lazy", lazy, w::text_corpus(0xE4B, 30, 0, 200, b"ab")));

    out
}

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    ms.sort();
    ms
}

/// The centrepiece differential: at 1/2/8 threads, batch output order and
/// contents are identical to the sequential engine — the threads = 1
/// fallback is pinned byte-for-byte (including per-document mapping
/// enumeration order), and contents are additionally pinned as sorted sets
/// against the plain warm sequential engines (`evaluate_with`/`count_with`).
#[test]
fn batch_matches_sequential_across_families_and_threads() {
    for (name, spanner, docs) in families() {
        let mut evaluator = Evaluator::new();
        let mut counts = CountCache::<u64>::new();
        let expected_mappings: Vec<Vec<Mapping>> = docs
            .iter()
            .map(|d| sorted(spanner.evaluate_with(&mut evaluator, d).collect_mappings()))
            .collect();
        let expected_counts: Vec<u64> =
            docs.iter().map(|d| spanner.count_with(&mut counts, d).unwrap()).collect();
        let expected_matches: Vec<bool> = expected_counts.iter().map(|&c| c > 0).collect();

        let sequential = spanner
            .evaluate_batch(&docs, &BatchOptions::threads(1), |_, dag| dag.collect_mappings());
        for &threads in THREAD_COUNTS {
            let opts = BatchOptions::threads(threads);
            let got = spanner.evaluate_batch(&docs, &opts, |i, dag| (i, dag.collect_mappings()));
            assert_eq!(got.len(), docs.len(), "{name}: result count at {threads} threads");
            for (slot, (i, per_doc)) in got.iter().enumerate() {
                assert_eq!(slot, *i, "{name}: results out of document order at {threads} threads");
                assert_eq!(
                    per_doc, &sequential[slot],
                    "{name}: doc {slot} at {threads} threads diverged from the sequential \
                     engine (order or contents)"
                );
                assert_eq!(
                    sorted(per_doc.clone()),
                    expected_mappings[slot],
                    "{name}: doc {slot} at {threads} threads diverged from evaluate_with"
                );
            }
            assert_eq!(
                spanner.count_batch::<u64>(&docs, &opts).unwrap(),
                expected_counts,
                "{name}: count_batch at {threads} threads"
            );
            assert_eq!(
                spanner.is_match_batch(&docs, &opts),
                expected_matches,
                "{name}: is_match_batch at {threads} threads"
            );
        }
    }
}

/// On eager spanners the batch path drives the very same dense tables as
/// `evaluate_with`, so even the unsorted mapping order must match the plain
/// sequential engine exactly at every thread count.
#[test]
fn eager_batch_order_identical_to_plain_sequential_engine() {
    let digits = spanners::regex::compile(w::digit_runs_pattern()).unwrap();
    assert!(!digits.is_lazy());
    let docs = w::text_corpus(0x0E5, 40, 0, 100, b"ab01 ");
    let mut evaluator = Evaluator::new();
    let expected: Vec<Vec<Mapping>> =
        docs.iter().map(|d| digits.evaluate_with(&mut evaluator, d).collect_mappings()).collect();
    for &threads in THREAD_COUNTS {
        let got = digits.evaluate_batch(&docs, &BatchOptions::threads(threads), |_, dag| {
            dag.collect_mappings()
        });
        assert_eq!(got, expected, "eager batch order diverged at {threads} threads");
    }
}

/// The frozen-overflow torture case: a budget far below the working set
/// forces every worker's delta to clear-and-restart mid-document, and the
/// outputs must still match the sequential engines at every thread count.
/// It runs under both eviction policies of the warming cache: a segmented
/// snapshot (the multi-tenant default) is stepped by the same
/// clear-and-restart deltas.
#[test]
fn tiny_budget_frozen_overflow_evicts_without_divergence() {
    let n = 10;
    let eva = w::exp_blowup_eva(n);
    let docs = w::text_corpus(0x7B, 24, 50, 300, b"ab");
    for policy in [EvictionPolicy::ClearRestart, EvictionPolicy::Segmented] {
        let config = LazyConfig::with_budget(256).with_eviction(policy);
        let spanner = CompiledSpanner::from_eva_lazy(&eva, config).unwrap();

        let mut counts = CountCache::<u64>::new();
        let expected_counts: Vec<u64> =
            docs.iter().map(|d| spanner.count_with(&mut counts, d).unwrap()).collect();
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(
                expected_counts[i] as usize,
                w::exp_blowup_expected(n, doc),
                "oracle mismatch on doc {i} under {policy:?}"
            );
        }
        let sequential = spanner
            .evaluate_batch(&docs, &BatchOptions::threads(1), |_, dag| dag.collect_mappings());
        for &threads in THREAD_COUNTS {
            let opts = BatchOptions::threads(threads);
            assert_eq!(
                spanner.count_batch::<u64>(&docs, &opts).unwrap(),
                expected_counts,
                "thrashing count_batch at {threads} threads under {policy:?}"
            );
            assert_eq!(
                spanner.evaluate_batch(&docs, &opts, |_, dag| dag.collect_mappings()),
                sequential,
                "thrashing evaluate_batch at {threads} threads under {policy:?}"
            );
        }

        // Direct core-seam check that the tiny budget actually bit: a long
        // document through a barely-warmed frozen snapshot must evict the
        // delta mid-document, and still agree with the plain lazy engine.
        let frozen = spanner.freeze_warm(&docs[..1]).expect("lazy spanner freezes");
        let lazy = spanner.lazy_automaton().expect("lazy engine");
        let big = w::random_text(0x99, 2_000, b"ab");
        let mut frosty = Evaluator::new();
        let got = sorted(frosty.eval((lazy, &frozen), &big).unwrap().collect_mappings());
        let delta = frosty.frozen_delta().expect("frozen evaluation populated a delta");
        assert!(
            delta.clear_count() > 0,
            "a 256-byte budget never evicted the overflow delta under {policy:?}"
        );
        let mut plain = Evaluator::new();
        let expected = sorted(plain.eval(lazy, &big).unwrap().collect_mappings());
        assert_eq!(
            got, expected,
            "delta eviction corrupted the frozen evaluation under {policy:?}"
        );
    }
}

/// Pool-reuse contract: a checked-in engine comes back warm — same arena
/// capacities, no new engines created — and steady-state reuse through the
/// pool stays allocation-free, exactly like a privately held `Evaluator`.
#[test]
fn pooled_engines_retain_capacity_across_checkouts() {
    let digits = spanners::regex::compile(w::digit_runs_pattern()).unwrap();
    let pool = EvaluatorPool::new();
    let big = w::random_text(3, 20_000, b"abc0123456789 ");
    let warm = {
        let mut engine = pool.checkout();
        let _ = digits.evaluate_with(&mut engine, &big).num_nodes();
        let _ = digits.evaluate_with(&mut engine, &big).num_nodes();
        (engine.node_capacity(), engine.cell_capacity())
    };
    assert_eq!(pool.idle(), 1);
    {
        let mut engine = pool.checkout();
        assert_eq!(
            (engine.node_capacity(), engine.cell_capacity()),
            warm,
            "checkout returned a cold engine instead of the warm one"
        );
        let _ = digits.evaluate_with(&mut engine, &big).num_nodes();
        assert_eq!(
            (engine.node_capacity(), engine.cell_capacity()),
            warm,
            "steady-state pooled evaluation reallocated the arenas"
        );
    }
    assert_eq!(pool.engines_created(), 1, "reuse must not create new engines");
}

/// The long-lived serving API: the frozen snapshot is built once, engine
/// pools stop growing after the first batch, repeated batches are
/// byte-for-byte stable, and everything agrees with the sequential engines.
#[test]
fn server_keeps_pools_and_snapshot_warm_across_batches() {
    let spanner = CompiledSpanner::from_eva(&w::exp_blowup_eva(8)).unwrap();
    let server = SpannerServer::with_options(spanner.clone(), BatchOptions::threads(2));
    let docs = w::text_corpus(0x5E4, 120, 20, 80, b"ab");
    server.warm(&docs[..6]);
    let frozen_states = server.frozen_states().expect("lazy spanner builds a snapshot");
    assert!(frozen_states > 0, "warming must intern subset states");

    let first = server.count_batch(&docs).unwrap();
    let engines_after_first = server.engines_created();
    assert!(engines_after_first.1 <= 2, "more count engines than workers");
    for round in 0..3 {
        assert_eq!(server.count_batch(&docs).unwrap(), first, "round {round}");
    }
    assert_eq!(
        server.engines_created(),
        engines_after_first,
        "warm pools must serve repeated batches without creating engines"
    );
    assert_eq!(
        server.frozen_states(),
        Some(frozen_states),
        "the frozen snapshot must not be rebuilt between batches"
    );

    let mut counts = CountCache::<u64>::new();
    let expected: Vec<u64> =
        docs.iter().map(|d| spanner.count_with(&mut counts, d).unwrap()).collect();
    assert_eq!(first, expected, "server counts diverged from the sequential engine");

    let a = server.evaluate_batch(&docs, |_, dag| dag.collect_mappings());
    let b = server.evaluate_batch(&docs, |_, dag| dag.collect_mappings());
    assert_eq!(a, b, "repeated server batches must be byte-for-byte stable");
    assert_eq!(server.is_match_batch(&docs), expected.iter().map(|&c| c > 0).collect::<Vec<_>>());
}

/// A `SpannerServer` is itself shared state: concurrent callers racing whole
/// batches against one server must all see the same results while the pools
/// absorb the contention.
#[test]
fn concurrent_server_callers_share_pools_safely() {
    let spanner = spanners::regex::compile(w::digit_runs_pattern()).unwrap();
    let server = SpannerServer::with_options(spanner, BatchOptions::threads(2));
    let docs = w::text_corpus(0xCC, 50, 10, 60, b"ab01 ");
    let expected = server.count_batch(&docs).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..5 {
                    assert_eq!(server.count_batch(&docs).unwrap(), expected);
                    assert!(server
                        .evaluate_batch(&docs, |i, dag| dag.count_paths().unwrap()
                            == expected[i] as u128)
                        .iter()
                        .all(|&ok| ok));
                }
            });
        }
    });
    let (eval_engines, count_engines) = server.engines_created();
    // 4 callers × 2 workers is the peak concurrency bound for each pool.
    assert!(eval_engines <= 8, "evaluator pool leaked engines: {eval_engines}");
    assert!(count_engines <= 8, "count pool leaked engines: {count_engines}");
}

/// The acceptance-scale run: ≥ 1000 small contact documents through one
/// server, with batch counts and DAG shapes pinned against the sequential
/// engines at every thread count.
#[test]
fn thousand_small_documents_contact_batch() {
    let spanner = spanners::regex::compile(w::contact_pattern()).unwrap();
    let (docs, total_entries) = w::contact_corpus(0xBA7C4, 1_000, 4);
    let mut evaluator = Evaluator::new();
    let mut counts = CountCache::<u64>::new();
    let expected_counts: Vec<u64> =
        docs.iter().map(|d| spanner.count_with(&mut counts, d).unwrap()).collect();
    assert_eq!(expected_counts.iter().sum::<u64>(), total_entries as u64);
    let expected_nodes: Vec<usize> =
        docs.iter().map(|d| spanner.evaluate_with(&mut evaluator, d).num_nodes()).collect();
    for &threads in THREAD_COUNTS {
        let server = SpannerServer::with_options(spanner.clone(), BatchOptions::threads(threads));
        assert_eq!(server.count_batch(&docs).unwrap(), expected_counts, "at {threads} threads");
        assert_eq!(
            server.evaluate_batch(&docs, |_, dag| dag.num_nodes()),
            expected_nodes,
            "at {threads} threads"
        );
    }
}

/// `count_batch` failure is deterministic: the error reported is the one of
/// the lowest-index failing document, at every thread count.
#[test]
fn count_batch_overflow_error_is_deterministic() {
    #[derive(Clone, Debug)]
    struct Tiny(u8);
    impl spanners::core::Counter for Tiny {
        fn zero() -> Self {
            Tiny(0)
        }
        fn one() -> Self {
            Tiny(1)
        }
        fn checked_add(&self, other: &Self) -> Option<Self> {
            self.0.checked_add(other.0).map(Tiny)
        }
        fn is_zero(&self) -> bool {
            self.0 == 0
        }
    }
    let spans = CompiledSpanner::from_eva(&w::all_spans_eva()).unwrap();
    // Doc 1 overflows a u8 counter ((n+1)(n+2)/2 > 255 for n = 100); the
    // others do not.
    let docs = vec![
        Document::new(vec![b'x'; 4]),
        Document::new(vec![b'x'; 100]),
        Document::new(vec![b'x'; 3]),
    ];
    for &threads in THREAD_COUNTS {
        let err = spans.count_batch::<Tiny>(&docs, &BatchOptions::threads(threads)).unwrap_err();
        assert!(
            matches!(err, SpannerError::CountOverflow),
            "unexpected batch error at {threads} threads: {err}"
        );
    }
}
