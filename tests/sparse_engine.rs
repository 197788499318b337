//! Differential tests for the sparse active-state evaluation engine.
//!
//! The reusable [`Evaluator`] and the one-shot [`EnumerationDag::build`] both
//! run Algorithm 1 over the sparse active-state set; these tests pin their
//! outputs — byte for byte — against the independent reference algorithms
//! (naive run enumeration, full materialization) across the
//! `spanners-workloads` families, and verify the zero-allocation reuse
//! contract of the evaluator.

use spanners::baselines::{materialize_enumerate, naive_enumerate};
use spanners::core::{
    count_mappings, dedup_mappings, Document, EnumerationDag, Evaluator, Mapping,
};
use spanners::regex::compile;
use spanners::workloads as w;
use spanners::CompiledSpanner;

/// Regex-formula workload families paired with documents that exercise them.
fn regex_cases() -> Vec<(String, Vec<Document>)> {
    vec![
        (
            w::contact_pattern().to_string(),
            vec![w::figure1_document(), w::contact_directory(0xFEED, 12).0],
        ),
        (
            w::digit_runs_pattern().to_string(),
            vec![w::log_lines(3, 4), w::random_text(11, 120, b"ab0123 ")],
        ),
        (w::ipv4_pattern().to_string(), vec![w::log_lines(5, 3)]),
        (w::keyword_dictionary_pattern(&["GET", "POST"]), vec![w::log_lines(8, 5)]),
        (w::nested_captures_pattern(2), vec![w::random_text(2, 40, b"ab"), Document::empty()]),
    ]
}

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    dedup_mappings(&mut ms);
    ms
}

/// One shared evaluator across every family and document: sparse-engine
/// results must equal the one-shot build and the materialize baseline exactly.
#[test]
fn sparse_engine_matches_baselines_on_workload_families() {
    let mut evaluator = Evaluator::new();
    for (pattern, docs) in regex_cases() {
        let spanner = compile(&pattern).expect("workload pattern compiles");
        for doc in &docs {
            let reused =
                evaluator.eval(spanner.try_automaton().expect("eager engine"), doc).unwrap();
            let reused_mappings = reused.collect_mappings();
            let reused_paths = reused.count_paths().unwrap();

            let fresh = EnumerationDag::build(spanner.try_automaton().expect("eager engine"), doc);
            assert_eq!(
                reused_mappings,
                fresh.collect_mappings(),
                "evaluator vs one-shot build, pattern {pattern}"
            );
            assert_eq!(reused_paths, fresh.count_paths().unwrap(), "pattern {pattern}");

            let materialized =
                sorted(materialize_enumerate(spanner.try_automaton().expect("eager engine"), doc));
            assert_eq!(
                sorted(reused_mappings.clone()),
                materialized,
                "evaluator vs materialize baseline, pattern {pattern}"
            );

            // Algorithm 3 (sparse counting) agrees with both.
            let counted: u128 =
                count_mappings(spanner.try_automaton().expect("eager engine"), doc).unwrap();
            assert_eq!(counted, reused_paths, "count vs paths, pattern {pattern}");
            assert_eq!(counted as usize, reused_mappings.len(), "pattern {pattern}");
        }
    }
}

/// eVA-level families: the naive run-enumeration baseline (independent of
/// Algorithm 1 entirely) agrees with the sparse engine.
#[test]
fn sparse_engine_matches_naive_on_eva_families() {
    let mut evaluator = Evaluator::new();
    for eva in [w::figure3_eva(), w::all_spans_eva()] {
        let spanner = CompiledSpanner::from_eva(&eva).expect("workload eVA compiles");
        for text in ["", "a", "ab", "abab", "bbaa", "aabbab"] {
            let doc = Document::from(text);
            let got = sorted(
                evaluator
                    .eval(spanner.try_automaton().expect("eager engine"), &doc)
                    .unwrap()
                    .collect_mappings(),
            );
            let expected = eva.eval_naive(&doc);
            assert_eq!(got, expected, "on {text:?}");
            let (naive, _) = naive_enumerate(&eva, &doc);
            assert_eq!(got, sorted(naive), "naive_enumerate on {text:?}");
        }
    }
}

/// Reusing one evaluator across a document stream returns identical results
/// to fresh builds *and* stops allocating once warm: the node/cell arena
/// capacities are retained across `eval` calls.
#[test]
fn evaluator_reuse_is_exact_and_allocation_free_when_warm() {
    let spanner = compile(w::digit_runs_pattern()).unwrap();
    let mut evaluator = Evaluator::new();

    // Warm up on the largest document in the stream.
    let docs: Vec<Document> = (0..8)
        .map(|s| w::random_text(100 + s, 200 + 150 * s as usize, b"xy0189 "))
        .rev() // largest first
        .collect();
    let _ = evaluator.eval(spanner.try_automaton().expect("eager engine"), &docs[0]).unwrap();
    let warm = (evaluator.node_capacity(), evaluator.cell_capacity());
    assert!(warm.0 > 0 && warm.1 > 0);

    for doc in &docs {
        let view = evaluator.eval(spanner.try_automaton().expect("eager engine"), doc).unwrap();
        let got = view.collect_mappings();
        assert_eq!(
            got,
            EnumerationDag::build(spanner.try_automaton().expect("eager engine"), doc)
                .collect_mappings(),
            "reused evaluator diverged from fresh build"
        );
        assert_eq!(
            (evaluator.node_capacity(), evaluator.cell_capacity()),
            warm,
            "arena capacity changed during warm reuse"
        );
    }
}

/// `CompiledSpanner::evaluate_with` is the same engine behind the facade.
#[test]
fn evaluate_with_matches_evaluate() {
    let spanner = compile(w::contact_pattern()).unwrap();
    let doc = w::contact_directory(0xABCD, 20).0;
    let mut evaluator = Evaluator::new();
    let via_cache = spanner.evaluate_with(&mut evaluator, &doc).collect_mappings();
    let via_build = spanner.evaluate(&doc).collect_mappings();
    assert_eq!(via_cache, via_build);
}
