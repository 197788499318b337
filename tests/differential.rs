//! Differential and randomized tests across the whole pipeline:
//! Table 1 reference semantics ⇔ compiled constant-delay evaluation ⇔ counting
//! ⇔ all baseline algorithms, on seeded random documents and automata.
//!
//! Originally written against `proptest`; rewritten as deterministic seeded
//! loops (via `spanners_workloads::rng`) so the suite builds with no external
//! dependencies. Every case is reproducible from its printed seed.

use spanners::automata::{compile_va, CompileOptions};
use spanners::baselines::{materialize_enumerate, naive_enumerate, PolyDelayEnumerator};
use spanners::core::{count_mappings, dedup_mappings, Document, EnumerationDag, Mapping};
use spanners::regex::{compile, eval_regex, parse};
use spanners::workloads::rng::StdRng;
use spanners::workloads::{random_functional_va, witness_document};

/// The fixed pattern zoo used by the random-document differential tests.
/// Each pattern exercises a different combination of features (captures,
/// alternation, nesting, classes, repetition, optionality).
const PATTERNS: &[&str] = &[
    ".*!x{a+}.*",
    ".*!x{[ab]+}.*!y{b+}.*",
    "!x{.*}",
    ".*!x{a!y{b*}a}.*",
    "(!x{a}|b)*",
    ".*!num{[0-9]{1,2}}.*",
    ".*(!left{a+}|!right{b+}).*",
    "!prefix{[ab]*}c?!suffix{[ab]*}",
];

const CASES: u64 = 64;

/// A random document over `alphabet` with length in `0..max_len`.
fn random_doc(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> Document {
    let len = rng.gen_range(0..max_len);
    let bytes: Vec<u8> = (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
    Document::new(bytes)
}

fn enumerate_sorted(spanner: &spanners::CompiledSpanner, doc: &Document) -> Vec<Mapping> {
    let mut out = spanner.mappings(doc);
    dedup_mappings(&mut out);
    out
}

/// The compiled pipeline agrees with the Table 1 reference semantics on
/// random short documents, for every pattern in the zoo.
#[test]
fn pipeline_matches_reference_semantics() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_doc(&mut rng, b"abc01", 9);
        for pattern in PATTERNS {
            let ast = parse(pattern).unwrap();
            let (mut expected, _) = eval_regex(&ast, &doc).unwrap();
            dedup_mappings(&mut expected);
            let spanner = compile(pattern).unwrap();
            let got = enumerate_sorted(&spanner, &doc);
            assert_eq!(got, expected, "seed {} pattern {} on {:?}", seed, pattern, doc.to_string());
            // Counting agrees (Theorem 5.1), and so does DAG path counting.
            let count: u64 = spanner.count(&doc).unwrap();
            assert_eq!(count as usize, expected.len(), "seed {seed} pattern {pattern}");
            let dag = spanner.evaluate(&doc);
            assert_eq!(dag.count_paths().unwrap(), count as u128, "seed {seed} pattern {pattern}");
        }
    }
}

/// The constant-delay enumeration never produces duplicates, on documents
/// too large for the reference semantics.
#[test]
fn no_duplicates_on_larger_documents() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + seed);
        let doc = random_doc(&mut rng, b"ab0", 40);
        for pattern in &[".*!x{a+}.*", ".*!x{[ab]+}.*!y{b+}.*", ".*!num{[0-9]{1,2}}.*"] {
            let spanner = compile(pattern).unwrap();
            let all = spanner.mappings(&doc);
            let mut dedup = all.clone();
            dedup_mappings(&mut dedup);
            assert_eq!(all.len(), dedup.len(), "seed {seed} pattern {pattern}");
            assert_eq!(all.len() as u64, spanner.count_u64(&doc).unwrap(), "seed {seed}");
        }
    }
}

/// All baseline algorithms agree with the constant-delay algorithm.
#[test]
fn baselines_agree_with_constant_delay() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + seed);
        let doc = random_doc(&mut rng, b"ab1", 16);
        for pattern in &[".*!x{a+}.*", ".*!x{[ab]+}.*!y{b+}.*", "!w{.*}"] {
            let spanner = compile(pattern).unwrap();
            let expected = enumerate_sorted(&spanner, &doc);

            let mut materialized =
                materialize_enumerate(spanner.try_automaton().expect("eager engine"), &doc);
            dedup_mappings(&mut materialized);
            assert_eq!(materialized, expected, "materialize, seed {seed} pattern {pattern}");

            let mut poly: Vec<Mapping> =
                PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), &doc)
                    .collect();
            dedup_mappings(&mut poly);
            assert_eq!(poly, expected, "polydelay, seed {seed} pattern {pattern}");
        }
    }
}

/// Random functional VA: the full Section 4 pipeline (functional VA → eVA →
/// determinize → Algorithm 1/3) agrees with naive run enumeration.
#[test]
fn random_functional_va_pipeline() {
    let mut checked = 0;
    for seed in 0..500u64 {
        let va = random_functional_va(seed, 4, 2).unwrap();
        if !va.is_functional() {
            continue;
        }
        let doc = witness_document(&va, 64).unwrap();
        let expected = va.eval_naive(&doc);
        assert!(!expected.is_empty(), "witness document accepted, seed {seed}");

        let det = compile_va(&va, CompileOptions::default()).unwrap();
        let dag = EnumerationDag::build(&det, &doc);
        let mut got = dag.collect_mappings();
        let before_dedup = got.len();
        dedup_mappings(&mut got);
        assert_eq!(before_dedup, got.len(), "no duplicates, seed {seed}");
        assert_eq!(got, expected, "seed {seed}");
        assert_eq!(count_mappings::<u64>(&det, &doc).unwrap() as usize, expected.len());

        // The naive baseline agrees as well (on the eVA produced by translation).
        let eva = spanners::automata::va_to_eva(&va).unwrap();
        let (naive, _) = naive_enumerate(&eva, &doc);
        assert_eq!(naive, expected, "naive, seed {seed}");
        checked += 1;
        if checked >= CASES {
            break;
        }
    }
    assert!(checked >= 16, "too few functional VA generated: {checked}");
}

/// Spans, mappings and marker sets survive the round trip through the
/// enumeration DAG: every enumerated mapping only uses spans that fit the
/// document and only variables of the spanner.
#[test]
fn enumerated_mappings_are_well_formed() {
    let spanner = compile(".*!x{a+}!y{b*}.*").unwrap();
    let vars = spanner.registry().len();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + seed);
        let doc = random_doc(&mut rng, b"ab", 24);
        for mapping in spanner.evaluate(&doc).iter() {
            for (var, span) in mapping.iter() {
                assert!(var.index() < vars);
                assert!(span.fits(doc.len()));
                assert!(span.start() <= span.end());
            }
        }
    }
}

/// Deterministic cross-checks on the workload generators, kept here because
/// they span several crates.
#[test]
fn workload_patterns_count_consistently() {
    use spanners::workloads as w;
    let cases: Vec<(String, Document)> = vec![
        (w::digit_runs_pattern().to_string(), w::log_lines(3, 5)),
        (w::contact_pattern().to_string(), w::contact_directory(9, 25).0),
        (w::keyword_dictionary_pattern(&["GET", "POST"]), w::log_lines(4, 10)),
        (w::nested_captures_pattern(2), w::random_text(5, 60, b"ab")),
    ];
    for (pattern, doc) in cases {
        let spanner = compile(&pattern).unwrap();
        let dag = spanner.evaluate(&doc);
        let count: u128 = spanner.count(&doc).unwrap();
        assert_eq!(dag.count_paths().unwrap(), count, "pattern {pattern}");
        if count < 200_000 {
            assert_eq!(dag.collect_mappings().len() as u128, count, "pattern {pattern}");
        }
    }
}

/// The delay between consecutive outputs does not grow with the document:
/// structural check counting the work performed per `next()` call.
#[test]
fn per_output_work_is_document_independent() {
    let spanner = compile(".*!x{[ab]+}.*").unwrap();
    let mut max_cells_per_output = Vec::new();
    for n in [64usize, 256, 1024] {
        let doc = spanners::workloads::random_text(7, n, b"ab");
        let dag = spanner.evaluate(&doc);
        let outputs = dag.count_paths().unwrap();
        // Every output corresponds to one root-to-⊥ path whose length is bounded
        // by the number of variable transitions of a run (≤ 2 here), so the
        // total number of cells visited during a full enumeration is ≤ depth
        // factor × outputs; we check the ratio stays bounded as |d| grows.
        let visited = dag.collect_mappings().len();
        assert_eq!(visited as u128, outputs);
        max_cells_per_output.push(dag.view().num_cells() as f64 / outputs as f64);
    }
    for ratio in &max_cells_per_output {
        assert!(*ratio < 8.0, "cells per output stays bounded: {max_cells_per_output:?}");
    }
}
