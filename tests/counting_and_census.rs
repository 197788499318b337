//! Integration tests for Section 5: counting (Theorem 5.1, Algorithm 3) and the
//! SpanL-hardness reduction (Theorem 5.2), plus cross-checks of every counting
//! path the library offers (Algorithm 3, DAG path counting, full enumeration,
//! baseline evaluators).

use spanners::automata::{census_reduction, compile_va, CompileOptions, Nfa};
use spanners::baselines::{materialize_enumerate, PolyDelayEnumerator};
use spanners::core::{count_mappings, CompiledSpanner, Document};
use spanners::regex::compile;
use spanners::workloads::{
    all_spans_eva, contact_directory, contact_pattern, figure3_eva, log_lines, random_text,
};

// ---------------------------------------------------------------------------
// Theorem 5.1: counting agrees with every other way of producing the number
// ---------------------------------------------------------------------------

#[test]
fn every_counting_path_agrees_on_workloads() {
    let cases: Vec<(CompiledSpanner, Document)> = vec![
        (compile(contact_pattern()).unwrap(), contact_directory(1, 40).0),
        (compile(".*!num{[0-9]+}.*").unwrap(), log_lines(2, 10)),
        (CompiledSpanner::from_eva(&all_spans_eva()).unwrap(), random_text(3, 60, b"ab")),
        (CompiledSpanner::from_eva(&figure3_eva()).unwrap(), random_text(4, 30, b"ab")),
        (compile(".*!k{[a-z]+}=!v{[0-9]+}.*").unwrap(), Document::from("a=1 bb=22 ccc=333")),
    ];
    for (i, (spanner, doc)) in cases.iter().enumerate() {
        let algorithm3: u64 =
            count_mappings(spanner.try_automaton().expect("eager engine"), doc).unwrap();
        let dag = spanner.evaluate(doc);
        assert_eq!(dag.count_paths().unwrap(), algorithm3 as u128, "case {i}: DAG path count");
        assert_eq!(dag.iter().count() as u64, algorithm3, "case {i}: enumeration");
        assert_eq!(
            materialize_enumerate(spanner.try_automaton().expect("eager engine"), doc).len() as u64,
            algorithm3,
            "case {i}: materializing baseline"
        );
        assert_eq!(
            PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), doc)
                .collect()
                .len() as u64,
            algorithm3,
            "case {i}: polynomial-delay baseline"
        );
    }
}

#[test]
fn counting_scales_to_outputs_that_cannot_be_materialized() {
    // The depth-3 nested-capture spanner on a 100kB document has ≈ 10^26
    // outputs; Algorithm 3 still counts it exactly (u128) in one linear pass.
    let spanner = compile(&spanners::workloads::nested_captures_pattern(3)).unwrap();
    let doc = random_text(9, 100_000, b"ab");
    let count: u128 = spanner.count(&doc).unwrap();
    assert!(count > u64::MAX as u128, "the output is astronomically large: {count}");
    // And the f64 approximation is consistent to within floating-point error.
    let approx: f64 = spanner.count(&doc).unwrap();
    let rel_err = ((count as f64) - approx).abs() / (count as f64);
    assert!(rel_err < 1e-9, "relative error {rel_err}");
}

#[test]
fn counting_agrees_with_closed_forms() {
    // all-spans spanner: (n+1)(n+2)/2 outputs on any document of length n.
    let all_spans = CompiledSpanner::from_eva(&all_spans_eva()).unwrap();
    for n in [0usize, 1, 17, 1000, 12345] {
        let doc = Document::new(vec![b'x'; n]);
        assert_eq!(all_spans.count_u64(&doc).unwrap() as usize, (n + 1) * (n + 2) / 2, "n = {n}");
    }
    // contact directories: exactly one output per entry.
    let contacts = compile(contact_pattern()).unwrap();
    for entries in [1usize, 10, 500] {
        let (doc, n) = contact_directory(7, entries);
        assert_eq!(contacts.count_u64(&doc).unwrap() as usize, n);
    }
}

// ---------------------------------------------------------------------------
// Theorem 5.2: the Census reduction is parsimonious
// ---------------------------------------------------------------------------

/// NFA over {a,b} accepting words ending in "ab".
fn ends_in_ab() -> Nfa {
    let mut nfa = Nfa::new(3);
    nfa.set_initial(0);
    nfa.set_final(2);
    nfa.add_transition(0, b'a', 0);
    nfa.add_transition(0, b'b', 0);
    nfa.add_transition(0, b'a', 1);
    nfa.add_transition(1, b'b', 2);
    nfa
}

/// NFA over {a,b} accepting words whose length is divisible by 3.
fn length_mod_3() -> Nfa {
    let mut nfa = Nfa::new(3);
    nfa.set_initial(0);
    nfa.set_final(0);
    for q in 0..3 {
        nfa.add_transition(q, b'a', (q + 1) % 3);
        nfa.add_transition(q, b'b', (q + 1) % 3);
    }
    nfa
}

#[test]
fn census_reduction_counts_exactly_the_accepted_words() {
    for (nfa, name) in [(ends_in_ab(), "ends_in_ab"), (length_mod_3(), "length_mod_3")] {
        for n in 0..=7usize {
            let expected = nfa.count_accepted_words(n, b"ab");
            let instance = census_reduction(&nfa, n).unwrap();
            assert!(instance.va.is_functional(), "{name}, n = {n}");
            // Via the full counting pipeline (functional VA → det seVA → Algorithm 3).
            let det = compile_va(&instance.va, CompileOptions::default()).unwrap();
            let counted: u64 = count_mappings(&det, &instance.document).unwrap();
            assert_eq!(counted, expected, "{name}, n = {n}");
        }
    }
}

#[test]
fn census_reduction_word_counts_match_combinatorics() {
    // length_mod_3 accepts all 2^n words when 3 | n and none otherwise.
    let nfa = length_mod_3();
    for n in 0..=9usize {
        let inst = census_reduction(&nfa, n).unwrap();
        let det = compile_va(&inst.va, CompileOptions::default()).unwrap();
        let counted: u64 = count_mappings(&det, &inst.document).unwrap();
        let expected = if n % 3 == 0 { 1u64 << n } else { 0 };
        assert_eq!(counted, expected, "n = {n}");
    }
}

// ---------------------------------------------------------------------------
// Counting as a query-planning primitive
// ---------------------------------------------------------------------------

#[test]
fn counting_is_cheaper_than_enumeration_and_consistent_with_prefix_streaming() {
    let spanner = CompiledSpanner::from_eva(&all_spans_eva()).unwrap();
    let doc = random_text(10, 2_000, b"abc");
    let total = spanner.count_u64(&doc).unwrap();
    // Stream only the first 100 outputs and stop: the DAG supports early exit
    // without paying for the rest.
    let dag = spanner.evaluate(&doc);
    let first: Vec<_> = dag.iter().take(100).collect();
    assert_eq!(first.len(), 100.min(total as usize));
    // No duplicates even in the prefix.
    let mut dedup = first.clone();
    spanners::core::dedup_mappings(&mut dedup);
    assert_eq!(dedup.len(), first.len());
}
