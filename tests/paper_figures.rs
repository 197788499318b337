//! Integration tests reproducing, end to end, every worked example of the
//! paper: the Figure 1 document and Example 2.1 rule, the Figure 2 automaton
//! with duplicate runs, the Figure 3 automaton and its Section 3.2.2 trace, and
//! the Figure 7/8/9 lower-bound family of Proposition 4.2.

use spanners::automata::{compile_va, va_to_eva, CompileOptions};
use spanners::core::{
    count_mappings, dedup_mappings, CompiledSpanner, Document, EnumerationDag, Mapping, Span,
};
use spanners::regex::{compile, eval_regex, parse};
use spanners::workloads::{contact_pattern, figure1_document, figure2_va, figure3_eva, prop42_va};

// ---------------------------------------------------------------------------
// Figure 1 + Example 2.1
// ---------------------------------------------------------------------------

#[test]
fn figure1_document_and_table() {
    let doc = figure1_document();
    assert_eq!(doc.len(), 28);
    // The spans displayed in Figure 1.
    assert_eq!(doc.paper_content(1, 5).unwrap(), b"John");
    assert_eq!(doc.paper_content(7, 13).unwrap(), b"j@g.be");
    assert_eq!(doc.paper_content(16, 20).unwrap(), b"Jane");
    assert_eq!(doc.paper_content(22, 28).unwrap(), b"555-12");
}

#[test]
fn example_2_1_produces_the_two_mappings_of_figure_1() {
    let doc = figure1_document();
    let spanner = compile(contact_pattern()).unwrap();
    let reg = spanner.registry();
    let (name, email, phone) =
        (reg.get("name").unwrap(), reg.get("email").unwrap(), reg.get("phone").unwrap());

    let mut results = spanner.mappings(&doc);
    dedup_mappings(&mut results);

    let mu1 = Mapping::from_pairs([
        (name, Span::from_paper(1, 5).unwrap()),
        (email, Span::from_paper(7, 13).unwrap()),
    ]);
    let mu2 = Mapping::from_pairs([
        (name, Span::from_paper(16, 20).unwrap()),
        (phone, Span::from_paper(22, 28).unwrap()),
    ]);
    assert_eq!(results.len(), 2);
    assert!(results.contains(&mu1));
    assert!(results.contains(&mu2));

    // Counting (Algorithm 3) agrees.
    assert_eq!(spanner.count_u64(&doc).unwrap(), 2);

    // The Table 1 reference semantics agrees with the compiled pipeline.
    let ast = parse(contact_pattern()).unwrap();
    let (mut reference, _) = eval_regex(&ast, &doc).unwrap();
    dedup_mappings(&mut reference);
    assert_eq!(reference.len(), 2);
}

// ---------------------------------------------------------------------------
// Figure 2: a functional VA with several runs per output
// ---------------------------------------------------------------------------

#[test]
fn figure2_duplicate_runs_are_collapsed_by_the_pipeline() {
    let va = figure2_va();
    assert!(va.is_functional());

    // The raw automaton has two accepting runs on "a" defining the same mapping…
    let doc = Document::from("a");
    let runs = va.accepting_runs(&doc);
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].mapping(), runs[1].mapping());

    // …but the compiled deterministic seVA enumerates it exactly once.
    let det = compile_va(&va, CompileOptions::default()).unwrap();
    let dag = EnumerationDag::build(&det, &doc);
    let out = dag.collect_mappings();
    assert_eq!(out.len(), 1);
    assert_eq!(out, va.eval_naive(&doc));
    let n: u64 = count_mappings(&det, &doc).unwrap();
    assert_eq!(n, 1);
}

#[test]
fn figure2_longer_documents_always_one_output() {
    let va = figure2_va();
    let det = compile_va(&va, CompileOptions::default()).unwrap();
    for n in 0..8usize {
        let doc = Document::new(vec![b'a'; n]);
        assert_eq!(count_mappings::<u64>(&det, &doc).unwrap(), 1, "n = {n}");
    }
    // A letter outside the language kills every run.
    assert_eq!(count_mappings::<u64>(&det, &Document::from("ba")).unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Figure 3 + the Section 3.2.2 worked example
// ---------------------------------------------------------------------------

#[test]
fn figure3_outputs_on_ab_match_the_paper() {
    let eva = figure3_eva();
    assert!(eva.is_deterministic() && eva.is_sequential() && eva.is_functional());
    let spanner = CompiledSpanner::from_eva(&eva).unwrap();
    let x = spanner.registry().get("x").unwrap();
    let y = spanner.registry().get("y").unwrap();

    let doc = Document::from("ab");
    let mut out = spanner.mappings(&doc);
    dedup_mappings(&mut out);

    let expect = |xs: (usize, usize), ys: (usize, usize)| {
        Mapping::from_pairs([
            (x, Span::from_paper(xs.0, xs.1).unwrap()),
            (y, Span::from_paper(ys.0, ys.1).unwrap()),
        ])
    };
    // µ1(x)=[1,3⟩, µ1(y)=[2,3⟩ ; µ2(x)=[2,3⟩, µ2(y)=[1,3⟩ ; µ3(x)=µ3(y)=[1,3⟩
    assert_eq!(out.len(), 3);
    assert!(out.contains(&expect((1, 3), (2, 3))));
    assert!(out.contains(&expect((2, 3), (1, 3))));
    assert!(out.contains(&expect((1, 3), (1, 3))));
    assert_eq!(spanner.count_u64(&doc).unwrap(), 3);
}

#[test]
fn figure6_dag_has_the_paper_shape() {
    // Figure 6: the DAG for Figure 3 over d = ab has ⊥ plus eight proper nodes,
    // one root list (state q9), and three root-to-⊥ paths.
    let eva = figure3_eva();
    let spanner = CompiledSpanner::from_eva(&eva).unwrap();
    let dag = spanner.evaluate(&Document::from("ab"));
    assert_eq!(dag.view().num_nodes(), 9);
    assert_eq!(dag.view().num_roots(), 1);
    assert_eq!(dag.count_paths().unwrap(), 3);
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 9: the 2^ℓ lower bound of Proposition 4.2
// ---------------------------------------------------------------------------

#[test]
fn prop42_family_sizes_match_figure7() {
    for ell in 1..=8usize {
        let va = prop42_va(ell).unwrap();
        assert_eq!(va.num_states(), 3 * ell + 2, "Figure 7 has 3ℓ+2 states");
        assert_eq!(va.num_transitions(), 4 * ell + 1, "Figure 7 has 4ℓ+1 transitions");
        assert!(va.is_sequential());
    }
}

#[test]
fn prop42_translation_needs_exponentially_many_extended_transitions() {
    for ell in 1..=8usize {
        let va = prop42_va(ell).unwrap();
        let eva = va_to_eva(&va).unwrap();
        // Figure 9: the equivalent eVA has one extended transition per choice of
        // x_i/y_i per block, i.e. 2^ℓ transitions carrying 2ℓ markers each.
        let full = eva.all_var_transitions().filter(|(_, t)| t.markers.len() == 2 * ell).count();
        assert_eq!(full, 1 << ell, "ℓ = {ell}");
    }
}

#[test]
fn prop42_semantics_is_preserved_by_the_blowup() {
    let ell = 3;
    let va = prop42_va(ell).unwrap();
    let doc = Document::from("a");
    let expected = va.eval_naive(&doc);
    assert_eq!(expected.len(), 1 << ell); // one mapping per choice vector
    let det = compile_va(&va, CompileOptions::default()).unwrap();
    let dag = EnumerationDag::build(&det, &doc);
    let mut got = dag.collect_mappings();
    dedup_mappings(&mut got);
    assert_eq!(got, expected);
    assert_eq!(count_mappings::<u64>(&det, &doc).unwrap(), 1 << ell);
}

// ---------------------------------------------------------------------------
// The introduction's nested-capture example: output of size Ω(|d|^ℓ)
// ---------------------------------------------------------------------------

#[test]
fn nested_capture_output_sizes_match_the_formula() {
    // Σ* x1{Σ*} Σ* has Θ(|d|²) outputs: exactly (n+1)(n+2)/2 span choices.
    let spanner = compile(".*!x1{.*}.*").unwrap();
    for n in [0usize, 1, 5, 40] {
        let doc = Document::new(vec![b'z'; n]);
        assert_eq!(spanner.count_u64(&doc).unwrap() as usize, (n + 1) * (n + 2) / 2, "n = {n}");
    }
    // Adding a nested variable multiplies the output again (Ω(|d|^ℓ)).
    let nested = compile(".*!x1{.*!x2{.*}.*}.*").unwrap();
    for n in [1usize, 4, 10] {
        let single = spanner.count_u64(&Document::new(vec![b'z'; n])).unwrap();
        let double = nested.count_u64(&Document::new(vec![b'z'; n])).unwrap();
        assert!(double > single, "n = {n}");
    }
}
