//! Integration tests for the Section 4 translation and algebra pipeline:
//! size bounds of Propositions 4.1–4.6 and semantics preservation end to end.

use spanners::algebra::{named_mappings, AlgebraExpr, CompileStrategy};
use spanners::automata::{
    compile_va, determinize, eva_to_va, join, project, sequentialize, trim, union,
    union_deterministic, va_to_eva, CompileOptions,
};
use spanners::core::{dedup_mappings, Document, EnumerationDag, SpannerError};
use spanners::regex::parser::MAX_NESTING;
use spanners::workloads::{
    figure2_va, figure3_eva, prop42_va, random_functional_va, witness_document,
};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Theorem 3.1 + Proposition 3.2 round trips
// ---------------------------------------------------------------------------

#[test]
fn va_eva_round_trip_preserves_semantics_on_random_functional_vas() {
    for seed in 0..40u64 {
        let va = random_functional_va(seed, 3, 2).unwrap();
        let eva = va_to_eva(&va).unwrap();
        assert!(eva.is_functional(), "translation preserves functionality (Thm 3.1)");
        let back = eva_to_va(&eva).unwrap();
        let doc = witness_document(&va, 64).unwrap();
        assert_eq!(eva.eval_naive(&doc), va.eval_naive(&doc), "seed {seed}");
        assert_eq!(back.eval_naive(&doc), va.eval_naive(&doc), "seed {seed}");
    }
}

#[test]
fn determinization_preserves_class_and_semantics() {
    for seed in 0..25u64 {
        let va = random_functional_va(seed, 3, 2).unwrap();
        let eva = va_to_eva(&va).unwrap();
        let det = determinize(&eva, 1 << 16).unwrap();
        assert!(det.is_deterministic());
        assert!(det.is_sequential(), "Prop 3.2 preserves sequentiality");
        assert!(det.is_functional(), "Prop 3.2 preserves functionality");
        let doc = witness_document(&va, 64).unwrap();
        assert_eq!(det.eval_naive(&doc), eva.eval_naive(&doc), "seed {seed}");
        // Proposition 4.3 bound: at most 2^n subset states.
        assert!(det.num_states() <= 1usize << eva.num_states().min(20), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Proposition 4.1: general VA → deterministic sequential eVA
// ---------------------------------------------------------------------------

#[test]
fn sequentialization_stays_within_the_3_power_ell_bound() {
    // Build a small non-sequential VA with 2 variables and check the annotated
    // automaton respects the n·3^ℓ bound.
    let mut reg = spanners::VarRegistry::new();
    let x = reg.intern("x").unwrap();
    let y = reg.intern("y").unwrap();
    let mut b = spanners::automata::VaBuilder::new(reg);
    let q0 = b.add_state();
    let q1 = b.add_state();
    let q2 = b.add_state();
    b.set_initial(q0);
    b.set_final(q2);
    b.add_open(q0, x, q1);
    b.add_open(q0, y, q1);
    b.add_byte(q1, b'a', q1);
    b.add_close(q1, x, q2);
    b.add_close(q1, y, q2);
    b.add_byte(q2, b'a', q0); // allows re-entering and misusing variables
    let va = b.build().unwrap();
    assert!(!va.is_sequential());

    let seq = sequentialize(&va, CompileOptions::default()).unwrap();
    assert!(seq.is_sequential());
    let n = va.num_states();
    let ell = va.variables().len();
    assert!(seq.num_states() <= n * 3usize.pow(ell as u32), "Prop 4.1 bound");
    for text in ["", "a", "aa", "aaa", "aaaa"] {
        let doc = Document::from(text);
        assert_eq!(seq.eval_naive(&doc), va.eval_naive(&doc), "on {text:?}");
    }
}

// ---------------------------------------------------------------------------
// Proposition 4.2: the 2^ℓ blow-up is real but the pipeline still works
// ---------------------------------------------------------------------------

#[test]
fn prop42_transition_counts_grow_exactly_exponentially() {
    let mut previous = 0usize;
    for ell in 1..=9usize {
        let va = prop42_va(ell).unwrap();
        let eva = va_to_eva(&va).unwrap();
        let full_transitions =
            eva.all_var_transitions().filter(|(_, t)| t.markers.len() == 2 * ell).count();
        assert_eq!(full_transitions, 1 << ell);
        assert!(full_transitions > previous);
        previous = full_transitions;
    }
}

// ---------------------------------------------------------------------------
// Proposition 4.3: functional VA determinize within 2^n states
// ---------------------------------------------------------------------------

#[test]
fn functional_pipeline_respects_prop43_bounds() {
    for seed in 0..20u64 {
        let va = random_functional_va(seed, 4, 3).unwrap();
        let eva = va_to_eva(&va).unwrap();
        // Lemma B.1: at most one extended transition per ordered state pair, so
        // the eVA has at most m + n² transitions.
        assert!(
            eva.num_transitions() <= va.num_transitions() + va.num_states() * va.num_states(),
            "seed {seed}"
        );
        let det = compile_va(&va, CompileOptions::default()).unwrap();
        let doc = witness_document(&va, 64).unwrap();
        let dag = EnumerationDag::build(&det, &doc);
        let mut got = dag.collect_mappings();
        dedup_mappings(&mut got);
        assert_eq!(got, va.eval_naive(&doc), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Proposition 4.4: join / union / projection sizes and semantics
// ---------------------------------------------------------------------------

#[test]
fn prop44_size_bounds_hold_on_workload_automata() {
    let a1 = figure3_eva();
    let a2 = {
        // A second functional eVA over a disjoint variable: every span of `z`.
        let mut reg = spanners::VarRegistry::new();
        let z = reg.intern("z").unwrap();
        let mut b = spanners::EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        let any = spanners::core::ByteClass::any();
        b.add_letter(q0, any, q0);
        b.add_letter(q1, any, q1);
        b.add_letter(q2, any, q2);
        b.add_var(q0, spanners::MarkerSet::new().with_open(z), q1).unwrap();
        b.add_var(q1, spanners::MarkerSet::new().with_close(z), q2).unwrap();
        b.build().unwrap()
    };

    let joined = join(&a1, &a2).unwrap();
    assert!(joined.num_states() <= a1.num_states() * a2.num_states(), "join is quadratic");
    assert!(joined.is_functional());

    // Union is linear (Prop. 4.4); since the algebra ops trim useless states
    // from their results, the count can come in under the n1 + n2 + 1 bound.
    let unioned = union(&a1, &a2).unwrap();
    assert!(unioned.num_states() <= a1.num_states() + a2.num_states() + 1, "union is linear");

    let projected = project(&joined, &["x", "y"]).unwrap();
    assert!(projected.num_states() <= joined.num_states(), "projection does not add states");

    // Semantics: join then project back to {x, y} equals the original Figure 3
    // spanner whenever the second operand matches at all (it always does on a
    // non-empty document because z can capture the empty span… only when the
    // document is non-empty: the a2 automaton needs no letters at all, so it
    // even matches ε).
    let doc = Document::from("ab");
    let mut lhs = projected.eval_naive(&doc);
    dedup_mappings(&mut lhs);
    let mut rhs = a1.eval_naive(&doc);
    dedup_mappings(&mut rhs);
    // Compare by variable name (registries differ).
    let lhs_named = named_mappings(&lhs, projected.registry());
    let rhs_named = named_mappings(&rhs, a1.registry());
    assert_eq!(lhs_named, rhs_named);
}

#[test]
fn deterministic_union_matches_plain_union_and_keeps_determinism() {
    let a1 = figure3_eva();
    let a2 = figure3_eva(); // same automaton: union must be idempotent semantically
    let plain = union(&a1, &a2).unwrap();
    let det_union = union_deterministic(&a1, &a2).unwrap();
    assert!(det_union.is_deterministic(), "Lemma B.2 preserves determinism");
    for text in ["ab", "a", "abab", "zz"] {
        let doc = Document::from(text);
        let mut u1 = plain.eval_naive(&doc);
        dedup_mappings(&mut u1);
        let mut u2 = det_union.eval_naive(&doc);
        dedup_mappings(&mut u2);
        assert_eq!(
            named_mappings(&u1, plain.registry()),
            named_mappings(&u2, det_union.registry()),
            "on {text:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Propositions 4.5 / 4.6: whole-expression compilation strategies agree
// ---------------------------------------------------------------------------

#[test]
fn both_algebra_strategies_agree_on_a_three_way_join() {
    let expr = AlgebraExpr::regex(".*!a{[0-9]+}.*")
        .unwrap()
        .join(AlgebraExpr::regex(".*!b{[a-z]+}.*").unwrap())
        .join(AlgebraExpr::regex(".*!c{[A-Z]+}.*").unwrap());
    let late = expr.compile(CompileOptions::default(), CompileStrategy::DeterminizeLate).unwrap();
    let early = expr.compile(CompileOptions::default(), CompileStrategy::DeterminizeEarly).unwrap();
    for text in ["aA1", "A1a", "x", "Zz9Zz9"] {
        let doc = Document::from(text);
        assert_eq!(
            named_mappings(&late.mappings(&doc), late.registry()),
            named_mappings(&early.mappings(&doc), early.registry()),
            "on {text:?}"
        );
        assert_eq!(late.count_u64(&doc).unwrap(), early.count_u64(&doc).unwrap());
    }
}

#[test]
fn trimming_never_changes_semantics() {
    for seed in 0..15u64 {
        let va = random_functional_va(seed, 3, 2).unwrap();
        let eva = va_to_eva(&va).unwrap();
        let det = determinize(&eva, 1 << 16).unwrap();
        let trimmed = trim(&det).unwrap();
        assert!(trimmed.num_states() <= det.num_states());
        let doc = witness_document(&va, 64).unwrap();
        assert_eq!(trimmed.eval_naive(&doc), det.eval_naive(&doc), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// End to end: Figure 2 and Figure 3 through every layer
// ---------------------------------------------------------------------------

#[test]
fn figure_automata_survive_every_translation_layer() {
    // Figure 2 (classical VA) → eVA → det → back to VA, all equivalent.
    let va = figure2_va();
    let eva = va_to_eva(&va).unwrap();
    let det = determinize(&eva, 1 << 16).unwrap();
    let back = eva_to_va(&det).unwrap();
    for text in ["", "a", "aa", "aaa"] {
        let doc = Document::from(text);
        let reference = va.eval_naive(&doc);
        assert_eq!(eva.eval_naive(&doc), reference, "eVA on {text:?}");
        assert_eq!(det.eval_naive(&doc), reference, "det eVA on {text:?}");
        assert_eq!(back.eval_naive(&doc), reference, "round-tripped VA on {text:?}");
    }
}

// ---------------------------------------------------------------------------
// Untrusted patterns: the parser's nesting cap
// ---------------------------------------------------------------------------

/// Runs `f` on a thread with a 2 MiB stack, the size of a spawned worker's
/// default stack and far below `main`'s.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap()
}

/// Patterns nesting exactly `depth` levels: groups, stars, counted
/// repetitions, a capture around groups, and alternating groups and stars.
fn nested_patterns(depth: usize) -> Vec<String> {
    let half = depth / 2;
    let mut alternating = format!("{}a{}", "(".repeat(half), ")*".repeat(half));
    if depth % 2 == 1 {
        alternating.push('?');
    }
    vec![
        format!("{}a{}", "(".repeat(depth), ")".repeat(depth)),
        format!("a{}", "*".repeat(depth)),
        format!("a{}", "{1}".repeat(depth)),
        format!("!x{{{}a{}}}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
        alternating,
    ]
}

#[test]
fn nesting_up_to_the_cap_compiles_and_one_level_more_is_a_parse_error() {
    on_small_stack(|| {
        for pattern in nested_patterns(MAX_NESTING) {
            let spanner = spanners::regex::compile(&pattern);
            assert!(spanner.is_ok(), "{} levels must compile: {:?}", MAX_NESTING, spanner.err());
        }
        for pattern in nested_patterns(MAX_NESTING + 1) {
            match spanners::regex::compile(&pattern) {
                Err(SpannerError::Parse(_)) => {}
                other => panic!("{} levels must be a parse error, got {other:?}", MAX_NESTING + 1),
            }
        }
    });
}

#[test]
fn deeply_nested_patterns_fail_fast_with_a_typed_error() {
    on_small_stack(|| {
        let deep = 20000;
        for pattern in [
            format!("!x{{{}a{}}}", "(".repeat(deep), ")".repeat(deep)),
            format!("a{}", "*".repeat(deep)),
        ] {
            let start = Instant::now();
            let result = spanners::regex::compile(&pattern);
            assert!(start.elapsed() < Duration::from_secs(1), "{:?}", start.elapsed());
            assert!(matches!(result, Err(SpannerError::Parse(_))), "{:?}", result.err());
        }
    });
}
