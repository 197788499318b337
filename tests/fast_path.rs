//! Differential tests for the run-skipping (class-run) fast path.
//!
//! The class-run engine must be **output-identical** to the per-byte engine:
//! the same mappings in the same enumeration order, the same counts, the same
//! root structure — on every workload family and on adversarial documents
//! built to stress the run decomposition (long single-class runs, runs broken
//! by marker-bearing states, class boundaries aligned with the 16-byte
//! classification chunks, empty documents). Arena sizes are *allowed* to
//! differ: the fast path elides capture attempts that the per-byte walk
//! materializes and the next `Reading` phase provably kills.

use spanners::automata::va_to_eva;
use spanners::baselines::{materialize_enumerate, naive_enumerate};
use spanners::core::{
    count_mappings, dedup_mappings, CountCache, Document, EngineMode, Evaluator, LazyConfig,
    LazyDetSeva, Mapping,
};
use spanners::regex::{compile, parse, regex_to_va};
use spanners::workloads as w;
use spanners::CompiledSpanner;

/// Adversarial documents for a digit-flavoured alphabet.
fn adversarial_docs() -> Vec<Document> {
    let mut docs = vec![
        // Empty document: zero runs, only the final Capturing phase.
        Document::empty(),
        // Single byte, single run.
        Document::from("7"),
        Document::from("a"),
        // Long single-class runs: all noise, all digits.
        Document::new(vec![b'z'; 4096]),
        Document::new(vec![b'5'; 4096]),
        // Runs broken by marker-bearing states: digits embedded in noise at
        // irregular intervals, including at the very start and very end.
        Document::from("123abc45 xx9 yy777zzz0"),
        Document::new(b"noise12noise345noise6789".repeat(40)),
    ];
    // Class boundaries exactly at (and one off) the 16-byte chunk width of
    // classify_into, for lengths around one and two chunks.
    for digits_len in [15usize, 16, 17] {
        for noise_len in [15usize, 16, 17] {
            let mut bytes = Vec::new();
            for _ in 0..4 {
                bytes.extend(std::iter::repeat_n(b'3', digits_len));
                bytes.extend(std::iter::repeat_n(b'q', noise_len));
            }
            docs.push(Document::new(bytes));
        }
    }
    docs
}

/// Regex workload families paired with documents exercising them (the same
/// families as `tests/sparse_engine.rs`, plus the adversarial set).
fn regex_cases() -> Vec<(String, Vec<Document>)> {
    vec![
        (
            w::contact_pattern().to_string(),
            vec![w::figure1_document(), w::contact_directory(0xFEED, 25).0],
        ),
        (w::digit_runs_pattern().to_string(), {
            let mut docs = adversarial_docs();
            docs.push(w::log_lines(3, 4));
            docs.push(w::random_text(11, 500, b"ab0123 "));
            docs
        }),
        (w::ipv4_pattern().to_string(), vec![w::log_lines(5, 3), Document::empty()]),
        (w::keyword_dictionary_pattern(&["GET", "POST"]), vec![w::log_lines(8, 5)]),
        (w::nested_captures_pattern(2), vec![w::random_text(2, 40, b"ab"), Document::empty()]),
    ]
}

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    dedup_mappings(&mut ms);
    ms
}

/// The fast path and the per-byte path agree byte for byte on mappings,
/// enumeration order, path counts and Algorithm 3 counts — across every
/// workload family and adversarial document.
#[test]
fn class_run_engine_matches_per_byte_engine() {
    let mut fast = Evaluator::with_mode(EngineMode::ClassRuns);
    let mut slow = Evaluator::with_mode(EngineMode::PerByte);
    assert_eq!(fast.mode(), EngineMode::ClassRuns);
    assert_eq!(slow.mode(), EngineMode::PerByte);
    let mut fast_counts = CountCache::<u128>::with_mode(EngineMode::ClassRuns);
    let mut slow_counts = CountCache::<u128>::with_mode(EngineMode::PerByte);
    for (pattern, docs) in regex_cases() {
        let spanner = compile(&pattern).expect("workload pattern compiles");
        for doc in &docs {
            // Enumeration order must match exactly, not just as sets.
            let fast_mappings = fast
                .eval(spanner.try_automaton().expect("eager engine"), doc)
                .unwrap()
                .collect_mappings();
            let fast_paths = fast
                .eval(spanner.try_automaton().expect("eager engine"), doc)
                .unwrap()
                .count_paths()
                .unwrap();
            let slow_view = slow.eval(spanner.try_automaton().expect("eager engine"), doc).unwrap();
            assert_eq!(
                fast_mappings,
                slow_view.collect_mappings(),
                "mappings/order diverged, pattern {pattern}, |d| = {}",
                doc.len()
            );
            assert_eq!(fast_paths, slow_view.count_paths().unwrap(), "paths, pattern {pattern}");
            // Counting engines agree with each other and with the DAG.
            let nf =
                fast_counts.count(spanner.try_automaton().expect("eager engine"), doc).unwrap();
            let ns =
                slow_counts.count(spanner.try_automaton().expect("eager engine"), doc).unwrap();
            assert_eq!(nf, ns, "counts diverged, pattern {pattern}, |d| = {}", doc.len());
            assert_eq!(nf, fast_paths, "count vs paths, pattern {pattern}");
            assert_eq!(nf as usize, fast_mappings.len(), "count vs enumeration, {pattern}");
        }
    }
}

/// The fast path agrees with the baselines that do not share any code with
/// Algorithm 1 (naive run enumeration, full materialization).
#[test]
fn class_run_engine_matches_independent_baselines() {
    let mut fast = Evaluator::with_mode(EngineMode::ClassRuns);
    for (pattern, docs) in regex_cases() {
        let spanner = compile(&pattern).expect("workload pattern compiles");
        for doc in &docs {
            if doc.len() > 2_000 {
                continue; // the quadratic baselines cannot take the long runs
            }
            let got = sorted(
                fast.eval(spanner.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .collect_mappings(),
            );
            let materialized =
                sorted(materialize_enumerate(spanner.try_automaton().expect("eager engine"), doc));
            assert_eq!(got, materialized, "materialize baseline, pattern {pattern}");
        }
    }
    for eva in [w::figure3_eva(), w::all_spans_eva()] {
        let spanner = CompiledSpanner::from_eva(&eva).expect("workload eVA compiles");
        for text in ["", "a", "ab", "abab", "bbaa", "aabbab", "aaaaaaaaaaaaaaaaaaaaaaab"] {
            let doc = Document::from(text);
            let got = sorted(
                fast.eval(spanner.try_automaton().expect("eager engine"), &doc)
                    .unwrap()
                    .collect_mappings(),
            );
            assert_eq!(got, eva.eval_naive(&doc), "eval_naive on {text:?}");
            let (naive, _) = naive_enumerate(&eva, &doc);
            assert_eq!(got, sorted(naive), "naive_enumerate on {text:?}");
        }
    }
}

/// One-shot `count_mappings` is the `CountCache` engine behind a wrapper, and
/// `CompiledSpanner::count_with` is the façade over the same cache.
#[test]
fn count_cache_matches_one_shot_and_facade() {
    let spanner = compile(w::contact_pattern()).unwrap();
    let mut cache = CountCache::<u64>::new();
    for entries in [1usize, 7, 40] {
        let (doc, expected) = w::contact_directory(0x5EED ^ entries as u64, entries);
        let reused = cache.count(spanner.try_automaton().expect("eager engine"), &doc).unwrap();
        let one_shot: u64 =
            count_mappings(spanner.try_automaton().expect("eager engine"), &doc).unwrap();
        let facade = spanner.count_with(&mut cache, &doc).unwrap();
        assert_eq!(reused, one_shot);
        assert_eq!(reused, facade);
        assert_eq!(reused as usize, expected, "entries = {entries}");
    }
}

/// A warm `CountCache` performs no allocation in steady state: the per-state
/// count vector and the class buffer both retain their capacity, mirroring
/// the E1b contract of the enumeration `Evaluator`.
#[test]
fn count_cache_reuse_is_allocation_free_when_warm() {
    let spanner = compile(w::digit_runs_pattern()).unwrap();
    // The class-run engine is what exercises the class buffer; the default
    // skip-scanning engine works on raw bytes and never touches it.
    let mut cache = CountCache::<u64>::with_mode(EngineMode::ClassRuns);
    let docs: Vec<Document> = (0..8)
        .map(|s| w::random_text(200 + s, 300 + 200 * s as usize, b"no1se 2text3"))
        .rev() // largest first
        .collect();
    let _ = cache.count(spanner.try_automaton().expect("eager engine"), &docs[0]).unwrap();
    let warm = (cache.counts_capacity(), cache.class_buf_capacity());
    assert!(warm.0 > 0 && warm.1 > 0);
    for doc in &docs {
        let reused = cache.count(spanner.try_automaton().expect("eager engine"), doc).unwrap();
        let fresh: u64 =
            count_mappings(spanner.try_automaton().expect("eager engine"), doc).unwrap();
        assert_eq!(reused, fresh, "warm cache diverged from one-shot count");
        assert_eq!(
            (cache.counts_capacity(), cache.class_buf_capacity()),
            warm,
            "CountCache reallocated during warm reuse"
        );
    }
}

/// The evaluator's class buffer obeys the same capacity-retention contract as
/// its node/cell arenas (the E1b zero-steady-state-allocation assertion,
/// extended to the classification pass).
#[test]
fn evaluator_class_buffer_retains_capacity() {
    let spanner = compile(w::digit_runs_pattern()).unwrap();
    // As above: only EngineMode::ClassRuns populates the class buffer.
    let mut evaluator = Evaluator::with_mode(EngineMode::ClassRuns);
    let big = w::random_text(7, 4096, b"ab012 ");
    let _ = evaluator.eval(spanner.try_automaton().expect("eager engine"), &big).unwrap();
    let warm =
        (evaluator.node_capacity(), evaluator.cell_capacity(), evaluator.class_buf_capacity());
    assert!(warm.2 >= 4096);
    for n in [1usize, 100, 4096] {
        let doc = w::random_text(8, n, b"ab012 ");
        let _ = evaluator.eval(spanner.try_automaton().expect("eager engine"), &doc).unwrap();
        assert_eq!(
            (evaluator.node_capacity(), evaluator.cell_capacity(), evaluator.class_buf_capacity(),),
            warm,
            "evaluator reallocated at n = {n}"
        );
    }
}

/// Switching one evaluator between modes mid-stream keeps results exact
/// (the mode only selects the loop; all state is reset per document).
#[test]
fn mode_switching_is_safe() {
    let spanner = compile(w::digit_runs_pattern()).unwrap();
    let mut evaluator = Evaluator::new();
    let doc = w::random_text(21, 700, b"abc123 ");
    let fast = evaluator
        .eval(spanner.try_automaton().expect("eager engine"), &doc)
        .unwrap()
        .collect_mappings();
    evaluator.set_mode(EngineMode::PerByte);
    let slow = evaluator
        .eval(spanner.try_automaton().expect("eager engine"), &doc)
        .unwrap()
        .collect_mappings();
    evaluator.set_mode(EngineMode::ClassRuns);
    let fast_again = evaluator
        .eval(spanner.try_automaton().expect("eager engine"), &doc)
        .unwrap()
        .collect_mappings();
    assert_eq!(fast, slow);
    assert_eq!(fast, fast_again);
}

/// The digit-runs workload as an undeterminized eVA for the lazy engine.
fn digit_runs_lazy(budget: Option<usize>) -> LazyDetSeva {
    let ast = parse(w::digit_runs_pattern()).unwrap();
    let va = regex_to_va(&ast).unwrap();
    let eva = va_to_eva(&va).unwrap();
    let config = budget.map(LazyConfig::with_budget).unwrap_or_default();
    LazyDetSeva::new(&eva, config).unwrap()
}

/// Lazy-engine rows of the fast-path matrix: the class-run loop over a
/// **cold** cache — every `run_skippable`/`has_markers` bit is computed
/// lazily, mid-run, the first time a run of that class is entered — must
/// match the lazy per-byte loop and the eager baseline on the adversarial
/// documents (long single-class runs, marker-broken runs, 16-byte
/// chunk-boundary documents, empty documents).
#[test]
fn lazy_class_run_engine_matches_per_byte_and_eager() {
    let eager = compile(w::digit_runs_pattern()).unwrap();
    let lazy = digit_runs_lazy(None);
    let mut eager_eval = Evaluator::new();
    let mut cold_counts = CountCache::<u128>::new();
    for doc in adversarial_docs() {
        let expected_paths = eager_eval
            .eval(eager.try_automaton().expect("eager engine"), &doc)
            .unwrap()
            .count_paths()
            .unwrap();
        // Fresh evaluators per document: the skip metadata for every class
        // run is populated lazily *during* this very evaluation.
        let cold = Evaluator::with_mode(EngineMode::ClassRuns).eval_owned(&lazy, &doc).unwrap();
        let cold_bytes = Evaluator::with_mode(EngineMode::PerByte).eval_owned(&lazy, &doc).unwrap();
        assert_eq!(
            cold.count_paths().unwrap(),
            expected_paths,
            "cold class-runs paths, |d|={}",
            doc.len()
        );
        assert_eq!(
            cold_bytes.count_paths().unwrap(),
            expected_paths,
            "cold per-byte paths, |d|={}",
            doc.len()
        );
        assert_eq!(
            cold_counts.count(&lazy, &doc).unwrap(),
            expected_paths,
            "lazy count, |d| = {}",
            doc.len()
        );
        // Materializing all-digit 4 kB documents means millions of mappings;
        // compare the full output only where it is reasonably sized (the
        // path-count equality above already pins the DAG for the rest).
        if expected_paths < 200_000 {
            let expected = sorted(
                eager_eval
                    .eval(eager.try_automaton().expect("eager engine"), &doc)
                    .unwrap()
                    .collect_mappings(),
            );
            assert_eq!(
                sorted(cold.collect_mappings()),
                expected,
                "cold class-runs, |d| = {}",
                doc.len()
            );
            assert_eq!(
                sorted(cold_bytes.collect_mappings()),
                expected,
                "cold per-byte, |d| = {}",
                doc.len()
            );
        }
    }
}

/// A warm lazy cache skips runs exactly like the eager skip table: after one
/// pass populated the metadata, a second pass over the same documents must
/// reproduce the first byte for byte (same DAG arena sizes included — the
/// warm cache makes the lazy engine fully deterministic).
#[test]
fn lazy_run_skipping_is_stable_once_warm() {
    let lazy = digit_runs_lazy(None);
    let mut evaluator = Evaluator::with_mode(EngineMode::ClassRuns);
    let docs = adversarial_docs();
    let first: Vec<(usize, usize, u128, Vec<Mapping>)> = docs
        .iter()
        .map(|doc| {
            let view = evaluator.eval(&lazy, doc).unwrap();
            let paths = view.count_paths().unwrap();
            let mappings = if paths < 200_000 { view.collect_mappings() } else { Vec::new() };
            (view.num_nodes(), view.num_cells(), paths, mappings)
        })
        .collect();
    for (doc, (nodes, cells, paths, mappings)) in docs.iter().zip(&first) {
        let view = evaluator.eval(&lazy, doc).unwrap();
        assert_eq!(view.num_nodes(), *nodes, "node count drifted, |d| = {}", doc.len());
        assert_eq!(view.num_cells(), *cells, "cell count drifted, |d| = {}", doc.len());
        assert_eq!(view.count_paths().unwrap(), *paths, "path count drifted, |d| = {}", doc.len());
        if *paths < 200_000 {
            assert_eq!(&view.collect_mappings(), mappings, "output drifted, |d| = {}", doc.len());
        }
    }
}

/// Mid-run eviction under the class-run engine: a budget small enough to
/// clear the cache inside long runs discards the lazily computed skip
/// metadata mid-document, forcing recomputation — outputs must not change.
#[test]
fn lazy_run_skipping_survives_mid_run_eviction() {
    let eager = compile(w::digit_runs_pattern()).unwrap();
    let strict = digit_runs_lazy(Some(256));
    let mut eager_eval = Evaluator::new();
    let mut thrash = Evaluator::with_mode(EngineMode::ClassRuns);
    for doc in adversarial_docs() {
        let eager_view =
            eager_eval.eval(eager.try_automaton().expect("eager engine"), &doc).unwrap();
        let paths = eager_view.count_paths().unwrap();
        let expected =
            if paths < 200_000 { sorted(eager_view.collect_mappings()) } else { Vec::new() };
        let view = thrash.eval(&strict, &doc).unwrap();
        assert_eq!(
            view.count_paths().unwrap(),
            paths,
            "thrashing paths diverged, |d| = {}",
            doc.len()
        );
        if paths < 200_000 {
            let got = sorted(view.collect_mappings());
            assert_eq!(got, expected, "thrashing class-runs diverged, |d| = {}", doc.len());
        }
    }
    let cache = thrash.lazy_cache().unwrap();
    assert!(cache.clear_count() > 0, "256-byte budget never evicted the skip metadata");
}

/// Lazy mode switching mirrors the eager contract: one evaluator, one warm
/// cache, both loops, identical outputs.
#[test]
fn lazy_mode_switching_is_safe() {
    let lazy = digit_runs_lazy(None);
    let mut evaluator = Evaluator::new();
    let doc = w::random_text(23, 700, b"abc123 ");
    let fast = evaluator.eval(&lazy, &doc).unwrap().collect_mappings();
    evaluator.set_mode(EngineMode::PerByte);
    let slow = evaluator.eval(&lazy, &doc).unwrap().collect_mappings();
    evaluator.set_mode(EngineMode::ClassRuns);
    let fast_again = evaluator.eval(&lazy, &doc).unwrap().collect_mappings();
    assert_eq!(sorted(fast.clone()), sorted(slow));
    assert_eq!(fast, fast_again, "warm reruns must be byte-for-byte identical");
}
