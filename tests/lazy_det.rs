//! Differential torture tests for the **lazy hybrid determinization cache**.
//!
//! The lazy engine must be byte-for-byte equivalent to the eager one — the
//! same mapping sets, the same counts, the same path counts, duplicate-free
//! and deterministic across reruns — on every workload family, under both
//! inner loops (skip-scan fast path and per-byte), and, crucially, under
//! **cache-thrashing budgets that force repeated clear-and-restart eviction
//! in the middle of a document**. A final regression pins the memory win: an
//! eVA family with `Θ(2ⁿ)` eager determinization evaluates within a fixed
//! lazy budget while the eager subset construction on the same family is
//! guarded (it exceeds its state budget before reading a byte).

use spanners::automata::{determinize, sequentialize, va_to_eva, CompileOptions};
use spanners::core::{
    dedup_mappings, CountCache, Document, EngineMode, EnginePolicy, Evaluator, LazyConfig,
    LazyDetSeva, Mapping,
};
use spanners::regex::{compile, parse, regex_to_va};
use spanners::workloads as w;
use spanners::workloads::rng::StdRng;
use spanners::{CompiledSpanner, Eva, SpannerError};

/// A tiny budget (bytes) that cannot hold more than a handful of subset
/// states: every evaluation under it must evict repeatedly mid-document.
const THRASH_BUDGET: usize = 200;

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    dedup_mappings(&mut ms);
    ms
}

/// Asserts a mapping list is duplicate-free (the failure mode a buggy subset
/// cache would exhibit on nondeterministic input).
fn assert_no_duplicates(all: &[Mapping], ctx: &str) {
    let mut dedup = all.to_vec();
    dedup_mappings(&mut dedup);
    assert_eq!(all.len(), dedup.len(), "duplicate mappings: {ctx}");
}

/// The regex workload families as **nondeterministic eVAs** (the Section 4
/// pipeline *before* determinization), paired with the eagerly compiled
/// spanner for the same pattern and with documents exercising them.
fn regex_cases() -> Vec<(String, Eva, CompiledSpanner, Vec<Document>)> {
    let cases: Vec<(String, Vec<Document>)> = vec![
        (
            w::contact_pattern().to_string(),
            vec![w::figure1_document(), w::contact_directory(0xFEED, 25).0, Document::empty()],
        ),
        (
            w::digit_runs_pattern().to_string(),
            vec![
                Document::empty(),
                Document::from("7"),
                Document::new(vec![b'z'; 1024]),
                Document::from("123abc45 xx9 yy777zzz0"),
                Document::new(b"noise12noise345noise6789".repeat(20)),
                w::log_lines(3, 4),
                w::random_text(11, 400, b"ab0123 "),
            ],
        ),
        (w::ipv4_pattern().to_string(), vec![w::log_lines(5, 3), Document::from("1.2.3.4")]),
        (
            w::keyword_dictionary_pattern(&["GET", "POST"]),
            vec![w::log_lines(8, 5), Document::from("GETPOST GET")],
        ),
        (
            w::nested_captures_pattern(2),
            vec![w::random_text(2, 40, b"ab"), Document::empty(), Document::from("a")],
        ),
    ];
    cases
        .into_iter()
        .map(|(pattern, docs)| {
            let ast = parse(&pattern).expect("workload pattern parses");
            let va = regex_to_va(&ast).expect("workload pattern builds a VA");
            assert!(va.is_sequential(), "workload VA is sequential by construction");
            let eva = va_to_eva(&va).expect("VA translates to an eVA");
            let eager = compile(&pattern).expect("workload pattern compiles eagerly");
            (pattern, eva, eager, docs)
        })
        .collect()
}

/// The deterministic eVA families, where both engines consume the *same*
/// automaton (the purest differential: any divergence is the cache's fault).
fn deterministic_cases() -> Vec<(&'static str, Eva, Vec<Document>)> {
    vec![
        (
            "figure3",
            w::figure3_eva(),
            ["", "a", "b", "ab", "ba", "abab", "aabb", "ababab", "bbaa"]
                .iter()
                .map(|t| Document::from(*t))
                .collect(),
        ),
        (
            "all_spans",
            w::all_spans_eva(),
            vec![
                Document::empty(),
                Document::from("q"),
                Document::new(vec![b'x'; 64]),
                w::random_text(3, 120, b"qwerty"),
            ],
        ),
    ]
}

/// Every engine/mode combination agrees with the eager baseline on mappings
/// (as sets), counts, and path counts — across the regex workload families,
/// evaluated through the nondeterministic eVA without eager determinization.
#[test]
fn lazy_matches_eager_across_workload_families() {
    let mut lazy_scan = Evaluator::new();
    let mut lazy_bytes = Evaluator::with_mode(EngineMode::PerByte);
    let mut eager_eval = Evaluator::new();
    let mut lazy_counts = CountCache::<u128>::new();
    for (pattern, eva, eager, docs) in regex_cases() {
        let lazy =
            LazyDetSeva::new(&eva, LazyConfig::default()).expect("workload eVA is lazy-compilable");
        for doc in &docs {
            let expected = sorted(
                eager_eval
                    .eval(eager.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .collect_mappings(),
            );
            let expected_count = eager_eval
                .eval(eager.try_automaton().expect("eager engine"), doc)
                .unwrap()
                .count_paths()
                .unwrap();

            let fast = lazy_scan.eval(&lazy, doc).unwrap().collect_mappings();
            assert_no_duplicates(&fast, &format!("{pattern} skip-scan |d|={}", doc.len()));
            assert_eq!(sorted(fast), expected, "skip-scan mappings, {pattern}, |d|={}", doc.len());
            assert_eq!(
                lazy_scan.eval(&lazy, doc).unwrap().count_paths().unwrap(),
                expected_count,
                "skip-scan paths, {pattern}"
            );

            let slow = lazy_bytes.eval(&lazy, doc).unwrap().collect_mappings();
            assert_no_duplicates(&slow, &format!("{pattern} per-byte |d|={}", doc.len()));
            assert_eq!(sorted(slow), expected, "per-byte mappings, {pattern}, |d|={}", doc.len());

            let counted = lazy_counts.count(&lazy, doc).unwrap();
            assert_eq!(counted, expected_count, "Algorithm 3 count, {pattern}, |d|={}", doc.len());
        }
    }
}

/// On *deterministic* input both engines consume the identical automaton;
/// outputs must coincide, and with a warm cache the two lazy inner loops must
/// produce **identical enumeration order** (same subset ids, same DAG).
#[test]
fn lazy_matches_eager_on_deterministic_automata() {
    for (name, eva, docs) in deterministic_cases() {
        let eager = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager).unwrap();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut eager_eval = Evaluator::new();
        let mut warm = Evaluator::new();
        // Warm the cache once over every document so subset ids are fixed…
        for doc in &docs {
            let _ = warm.eval(&lazy, doc).unwrap().num_nodes();
        }
        for doc in &docs {
            let expected = sorted(
                eager_eval
                    .eval(eager.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .collect_mappings(),
            );
            let first = warm.eval(&lazy, doc).unwrap().collect_mappings();
            assert_eq!(sorted(first.clone()), expected, "{name}, |d| = {}", doc.len());
            // …then rerun in both modes: byte-for-byte identical output
            // order, because the warm cache makes evaluation deterministic.
            let again = warm.eval(&lazy, doc).unwrap().collect_mappings();
            assert_eq!(first, again, "{name}: warm rerun changed enumeration order");
            warm.set_mode(EngineMode::PerByte);
            let per_byte = warm.eval(&lazy, doc).unwrap().collect_mappings();
            warm.set_mode(EngineMode::SkipScan);
            assert_eq!(first, per_byte, "{name}: warm per-byte loop diverged in order");
        }
    }
}

/// Seeded random-document loop across the pattern zoo: the lazy engine over
/// the nondeterministic eVA agrees with the eager pipeline on every seed.
#[test]
fn seeded_random_documents_agree() {
    const PATTERNS: &[&str] =
        &[".*!x{a+}.*", ".*!x{[ab]+}.*!y{b+}.*", "(!x{a}|b)*", ".*!num{[0-9]{1,2}}.*"];
    let mut lazy_eval = Evaluator::new();
    let mut counts = CountCache::<u64>::new();
    for pattern in PATTERNS {
        let ast = parse(pattern).unwrap();
        let mut va = regex_to_va(&ast).unwrap();
        if !va.is_sequential() {
            // e.g. the starred capture `(!x{a}|b)*`: apply the Proposition 4.1
            // translation first, exactly as the eager pipeline does.
            va = sequentialize(&va, CompileOptions::default()).unwrap();
        }
        let eva = va_to_eva(&va).unwrap();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let eager = compile(pattern).unwrap();
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0xACE0 + seed);
            let len = rng.gen_range(0..60);
            let alphabet = b"ab012";
            let bytes: Vec<u8> =
                (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
            let doc = Document::new(bytes);
            let expected = sorted(eager.mappings(&doc));
            let got = lazy_eval.eval(&lazy, &doc).unwrap().collect_mappings();
            assert_no_duplicates(&got, &format!("{pattern} seed {seed}"));
            assert_eq!(sorted(got), expected, "seed {seed} pattern {pattern} on {doc:?}");
            assert_eq!(
                counts.count(&lazy, &doc).unwrap() as usize,
                expected.len(),
                "count, seed {seed} pattern {pattern}"
            );
        }
    }
}

/// The torture centrepiece: a budget so small the cache must clear and
/// restart repeatedly **mid-document**, remapping the engines' live states
/// each time. Outputs must stay exactly equal to the eager baseline in both
/// engine modes, for enumeration and counting alike.
#[test]
fn tiny_budget_forces_mid_document_eviction_without_divergence() {
    for (pattern, eva, eager, docs) in regex_cases() {
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(THRASH_BUDGET)).unwrap();
        let mut thrash = Evaluator::new();
        let mut thrash_bytes = Evaluator::with_mode(EngineMode::PerByte);
        let mut thrash_counts = CountCache::<u128>::new();
        let mut eager_eval = Evaluator::new();
        for doc in &docs {
            let expected = sorted(
                eager_eval
                    .eval(eager.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .collect_mappings(),
            );
            let expected_count = eager_eval
                .eval(eager.try_automaton().expect("eager engine"), doc)
                .unwrap()
                .count_paths()
                .unwrap();

            let got = thrash.eval(&lazy, doc).unwrap().collect_mappings();
            assert_no_duplicates(&got, &format!("thrash {pattern} |d|={}", doc.len()));
            assert_eq!(sorted(got), expected, "thrash skip-scan, {pattern}, |d|={}", doc.len());

            let got = thrash_bytes.eval(&lazy, doc).unwrap().collect_mappings();
            assert_eq!(sorted(got), expected, "thrash per-byte, {pattern}, |d|={}", doc.len());

            assert_eq!(
                thrash_counts.count(&lazy, doc).unwrap(),
                expected_count,
                "thrash count, {pattern}, |d|={}",
                doc.len()
            );
        }
        // The budget must actually have bitten on the non-trivial documents.
        let cache = thrash.lazy_cache().expect("lazy evaluation populated a cache");
        assert!(
            cache.clear_count() > 0,
            "{pattern}: a {THRASH_BUDGET}-byte budget never evicted (cache held {} bytes)",
            cache.memory_bytes()
        );
        // The budget is soft by exactly one position's working set: between
        // two maintenance points at most one (Capturing; Reading) step runs.
        assert!(
            cache.memory_bytes() <= THRASH_BUDGET + 16 * 1024,
            "{pattern}: cache grew far past its budget: {} bytes",
            cache.memory_bytes()
        );
        let ccache = thrash_counts.lazy_cache().expect("lazy counting populated a cache");
        assert!(ccache.clear_count() > 0, "{pattern}: counting cache never evicted");
    }
}

/// Deterministic families under the same thrashing budget, including warm
/// reuse: eviction in one document must not corrupt the next.
#[test]
fn tiny_budget_eviction_on_deterministic_automata() {
    for (name, eva, docs) in deterministic_cases() {
        let eager = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager).unwrap();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(THRASH_BUDGET)).unwrap();
        let mut thrash = Evaluator::new();
        for round in 0..3 {
            for doc in &docs {
                let expected = sorted(eager.mappings(doc));
                let got = thrash.eval(&lazy, doc).unwrap().collect_mappings();
                assert_eq!(sorted(got), expected, "{name} round {round}, |d| = {}", doc.len());
            }
        }
    }
}

/// The regression pinning the memory win (the reason the hybrid cache
/// exists): on the `.*a.{n}`-style family, eager subset construction needs
/// `Θ(2ⁿ)` states and trips its budget guard before evaluation can start,
/// while the lazy engine evaluates the same automaton within a fixed byte
/// budget — interning only the subsets the document actually visits.
#[test]
fn exponential_blowup_family_evaluates_lazily_within_budget() {
    let n = 18;
    let eva = w::exp_blowup_eva(n);

    // Eager determinization is guarded: 2^18 subset states blow through a
    // 4096-state budget (so an eager `DetSeva::compile` can never be reached
    // on this family — the guard *is* the eager path's behaviour here).
    let err = determinize(&eva, 1 << 12).expect_err("eager subset construction must exceed budget");
    assert!(matches!(err, SpannerError::BudgetExceeded { .. }), "unexpected error: {err}");

    // The lazy engine evaluates the very same eVA under a 256 KiB budget.
    let budget = 256 * 1024;
    let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(budget)).unwrap();
    let mut evaluator = Evaluator::new();
    let mut counts = CountCache::<u64>::new();
    for (seed, len) in [(1u64, 300usize), (2, 1_000), (3, 5_000)] {
        let doc = w::random_text(seed, len, b"ab");
        let expected = w::exp_blowup_expected(n, &doc);
        let dag = evaluator.eval(&lazy, &doc).unwrap();
        assert_eq!(dag.count_paths().unwrap(), expected as u128, "paths at |d| = {len}");
        let mappings = dag.collect_mappings();
        assert_eq!(mappings.len(), expected, "mappings at |d| = {len}");
        assert_no_duplicates(&mappings, "exp family");
        assert_eq!(counts.count(&lazy, &doc).unwrap() as usize, expected, "count at {len}");

        let cache = evaluator.lazy_cache().unwrap();
        assert!(
            cache.memory_bytes() <= 2 * budget,
            "cache exceeded its budget: {} bytes",
            cache.memory_bytes()
        );
        assert!(
            cache.num_states() < (1 << n) / 4,
            "lazy cache materialized {} states — approaching the 2^{n} eager blow-up",
            cache.num_states()
        );
    }
}

/// The E1b capacity-retention contract, extended to the lazy cache: once the
/// evaluator arenas *and* the determinization cache are warm, steady-state
/// evaluation performs no allocation — cache hits must not intern states,
/// grow any internal buffer, or trigger evictions.
#[test]
fn warm_lazy_evaluation_is_allocation_free() {
    let eva = w::exp_blowup_eva(8);
    let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
    let mut evaluator = Evaluator::new();
    let mut counts = CountCache::<u64>::new();
    // Warm-up: the largest documents of the batch, twice, so every subset
    // state, transition row and skip entry the batch needs exists.
    let docs: Vec<Document> = (0..6).map(|s| w::random_text(40 + s, 2_000, b"ab")).collect();
    for _ in 0..2 {
        for doc in &docs {
            let _ = evaluator.eval(&lazy, doc).unwrap().num_nodes();
            let _ = counts.count(&lazy, doc).unwrap();
        }
    }
    let warm_arenas = (evaluator.node_capacity(), evaluator.cell_capacity());
    let warm_cache = evaluator.lazy_cache().unwrap();
    let warm_sig = warm_cache.capacity_signature();
    let warm_states = warm_cache.num_states();
    let warm_interned = warm_cache.states_interned();
    let count_sig = counts.lazy_cache().unwrap().capacity_signature();
    // Steady state: same documents, warm everything.
    for doc in &docs {
        let _ = evaluator.eval(&lazy, doc).unwrap().num_nodes();
        let _ = counts.count(&lazy, doc).unwrap();
        let cache = evaluator.lazy_cache().unwrap();
        assert_eq!(cache.capacity_signature(), warm_sig, "lazy cache buffers reallocated");
        assert_eq!(cache.num_states(), warm_states, "cache hits interned new states");
        assert_eq!(cache.states_interned(), warm_interned, "cache churned states when warm");
        assert_eq!(cache.clear_count(), 0, "an eviction fired despite an ample budget");
        assert_eq!(
            (evaluator.node_capacity(), evaluator.cell_capacity()),
            warm_arenas,
            "evaluator arenas reallocated during warm lazy reuse"
        );
        assert_eq!(
            counts.lazy_cache().unwrap().capacity_signature(),
            count_sig,
            "CountCache's lazy cache reallocated"
        );
    }
}

/// The façade end to end: `Auto` routes the exponential family to the lazy
/// engine, the embedded caches in `Evaluator`/`CountCache` serve repeated
/// documents, and explicit budgets flow through `from_eva_lazy`.
#[test]
fn facade_serves_lazy_spanners_through_the_standard_entry_points() {
    let n = 12;
    let eva = w::exp_blowup_eva(n);
    let spanner = CompiledSpanner::from_eva(&eva).expect("Auto accepts nondeterministic input");
    assert!(spanner.is_lazy(), "Auto must pick the lazy engine for nondeterministic input");
    assert!(spanner.try_automaton().is_none());
    assert_eq!(spanner.registry().len(), 1);

    let mut evaluator = Evaluator::new();
    let mut counter = CountCache::<u64>::new();
    for seed in 0..4u64 {
        let doc = w::random_text(seed, 500, b"abc");
        let expected = w::exp_blowup_expected(n, &doc);
        assert_eq!(
            spanner.evaluate_with(&mut evaluator, &doc).count_paths().unwrap(),
            expected as u128
        );
        assert_eq!(spanner.count_with(&mut counter, &doc).unwrap() as usize, expected);
        assert_eq!(spanner.count_u64(&doc).unwrap() as usize, expected);
        assert_eq!(spanner.mappings(&doc).len(), expected);
        assert_eq!(spanner.is_match(&doc), expected > 0);
        assert_eq!(evaluator.accepts(spanner.target(None), &doc).unwrap(), expected > 0);
        // The owned-DAG path works too.
        assert_eq!(spanner.evaluate(&doc).count_paths().unwrap(), expected as u128);
    }

    // `Evaluator::accepts` amortizes: the warm evaluator cache serves repeated
    // match checks without interning new subset states.
    let warm_interned = evaluator.lazy_cache().unwrap().states_interned();
    for seed in 0..4u64 {
        let doc = w::random_text(seed, 500, b"abc");
        assert_eq!(
            evaluator.accepts(spanner.target(None), &doc).unwrap(),
            w::exp_blowup_expected(n, &doc) > 0
        );
    }
    assert_eq!(
        evaluator.lazy_cache().unwrap().states_interned(),
        warm_interned,
        "warm accepts re-determinized already-known subsets"
    );

    // An explicit tiny budget through the façade still evaluates correctly.
    let strict =
        CompiledSpanner::from_eva_lazy(&eva, LazyConfig::with_budget(THRASH_BUDGET)).unwrap();
    let doc = w::random_text(99, 800, b"ab");
    assert_eq!(strict.count_u64(&doc).unwrap() as usize, w::exp_blowup_expected(n, &doc));
    let mut thrash_eval = Evaluator::new();
    let view = strict.evaluate_with(&mut thrash_eval, &doc);
    assert_eq!(view.count_paths().unwrap() as usize, w::exp_blowup_expected(n, &doc));
    let cache = thrash_eval.lazy_cache().unwrap();
    assert!(cache.clear_count() > 0, "the façade budget never reached the cache");
}

/// Random functional VA (the Section 4 pipeline fuzz family): lazy
/// evaluation of the translated, *undeterminized* eVA agrees with the fully
/// eager pipeline on witness documents.
#[test]
fn random_functional_va_lazy_pipeline() {
    use spanners::automata::{compile_va, CompileOptions};
    let mut evaluator = Evaluator::new();
    let mut checked = 0;
    for seed in 0..200u64 {
        let va = match w::random_functional_va(seed, 4, 2) {
            Ok(va) if va.is_functional() => va,
            _ => continue,
        };
        let doc = w::witness_document(&va, 64).unwrap();
        let eager = compile_va(&va, CompileOptions::default()).unwrap();
        let mut eager_eval = Evaluator::new();
        let expected = sorted(eager_eval.eval(&eager, &doc).unwrap().collect_mappings());
        assert!(!expected.is_empty(), "witness document accepted, seed {seed}");

        let eva = va_to_eva(&va).unwrap();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let got = evaluator.eval(&lazy, &doc).unwrap().collect_mappings();
        assert_no_duplicates(&got, &format!("functional VA seed {seed}"));
        assert_eq!(sorted(got), expected, "seed {seed}");
        checked += 1;
        if checked >= 32 {
            break;
        }
    }
    assert!(checked >= 16, "too few functional VA generated: {checked}");
}
