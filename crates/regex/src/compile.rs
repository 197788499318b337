//! Compilation of regex formulas into classical variable-set automata.
//!
//! The paper notes (Section 4, citing Fagin et al.) that RGX formulas translate
//! into VA in linear time. We use the standard Thompson construction over an
//! intermediate ε-NFA whose labels are byte classes or variable markers, then
//! eliminate ε-transitions to obtain a [`Va`]. Combined with
//! `spanners_automata::compile_va` this yields the end-to-end pipeline
//! *pattern → VA → deterministic sequential eVA → constant-delay evaluation*.

use crate::ast::RegexAst;
use spanners_automata::{compile_va, CompileOptions, Va, VaBuilder};
use spanners_core::{ByteClass, CompiledSpanner, Marker, SpannerError, VarRegistry};

/// Labels of the intermediate Thompson ε-NFA.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EpsLabel {
    Eps,
    Class(ByteClass),
    Marker(Marker),
}

/// The intermediate Thompson automaton.
struct EpsNfa {
    transitions: Vec<Vec<(EpsLabel, usize)>>,
}

impl EpsNfa {
    fn new() -> Self {
        EpsNfa { transitions: Vec::new() }
    }

    fn add_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn add(&mut self, from: usize, label: EpsLabel, to: usize) {
        self.transitions[from].push((label, to));
    }
}

/// A compiled fragment with unique entry and exit states.
#[derive(Clone, Copy)]
struct Frag {
    start: usize,
    end: usize,
}

/// Translates a regex formula into an equivalent classical VA (linear time in
/// the size of the formula, up to the expansion of counted repetitions).
pub fn regex_to_va(ast: &RegexAst) -> Result<Va, SpannerError> {
    // Intern the formula's variables in sorted-name order so that the automaton
    // registry matches the one produced by the reference semantics.
    let mut registry = VarRegistry::new();
    for name in ast.variables() {
        registry.intern(&name)?;
    }

    let mut nfa = EpsNfa::new();
    let frag = build(ast, &mut nfa, &registry)?;

    // ε-elimination: keep the original states, add, for every state q and every
    // state p in its ε-closure, the non-ε transitions of p; a state is final if
    // its ε-closure contains the fragment's exit state.
    let mut eps = EpsClosure::new(nfa.transitions.len());
    let mut builder = VaBuilder::new(registry);
    let states: Vec<usize> = (0..nfa.transitions.len()).map(|_| builder.add_state()).collect();
    builder.set_initial(states[frag.start]);
    for q in 0..nfa.transitions.len() {
        let closure = eps.of(&nfa, q);
        if closure.contains(&frag.end) {
            builder.set_final(states[q]);
        }
        for &p in closure {
            for (label, to) in &nfa.transitions[p] {
                match label {
                    EpsLabel::Eps => {}
                    EpsLabel::Class(c) => builder.add_letter(states[q], *c, states[*to]),
                    EpsLabel::Marker(m) => builder.add_marker(states[q], *m, states[*to]),
                }
            }
        }
    }
    builder.build()
}

/// Parses and compiles a pattern all the way to a [`CompiledSpanner`] ready for
/// constant-delay evaluation: pattern → RGX → VA → deterministic sequential eVA.
pub fn compile(pattern: &str) -> Result<CompiledSpanner, SpannerError> {
    compile_with_options(pattern, CompileOptions::default())
}

/// Like [`compile`], with explicit resource limits for the automaton
/// constructions (Section 4 translations are exponential in the worst case).
pub fn compile_with_options(
    pattern: &str,
    opts: CompileOptions,
) -> Result<CompiledSpanner, SpannerError> {
    let ast = crate::parser::parse(pattern)?;
    compile_ast(&ast, opts)
}

/// Compiles an already-parsed formula to a [`CompiledSpanner`].
pub fn compile_ast(ast: &RegexAst, opts: CompileOptions) -> Result<CompiledSpanner, SpannerError> {
    let va = regex_to_va(ast)?;
    let det = compile_va(&va, opts)?;
    Ok(CompiledSpanner::from_det(det))
}

fn build(ast: &RegexAst, nfa: &mut EpsNfa, registry: &VarRegistry) -> Result<Frag, SpannerError> {
    Ok(match ast {
        RegexAst::Epsilon => {
            let s = nfa.add_state();
            let e = nfa.add_state();
            nfa.add(s, EpsLabel::Eps, e);
            Frag { start: s, end: e }
        }
        RegexAst::Class(c) => {
            let s = nfa.add_state();
            let e = nfa.add_state();
            nfa.add(s, EpsLabel::Class(*c), e);
            Frag { start: s, end: e }
        }
        RegexAst::Capture(name, inner) => {
            let var = registry
                .get(name)
                .ok_or(SpannerError::InvalidVariable { var: 0, num_vars: registry.len() })?;
            let f = build(inner, nfa, registry)?;
            let s = nfa.add_state();
            let e = nfa.add_state();
            nfa.add(s, EpsLabel::Marker(Marker::Open(var)), f.start);
            nfa.add(f.end, EpsLabel::Marker(Marker::Close(var)), e);
            Frag { start: s, end: e }
        }
        RegexAst::Concat(parts) => {
            let mut frags = Vec::with_capacity(parts.len());
            for p in parts {
                frags.push(build(p, nfa, registry)?);
            }
            match frags.len() {
                0 => build(&RegexAst::Epsilon, nfa, registry)?,
                _ => {
                    for w in frags.windows(2) {
                        nfa.add(w[0].end, EpsLabel::Eps, w[1].start);
                    }
                    Frag { start: frags[0].start, end: frags[frags.len() - 1].end }
                }
            }
        }
        RegexAst::Alternation(parts) => {
            let s = nfa.add_state();
            let e = nfa.add_state();
            for p in parts {
                let f = build(p, nfa, registry)?;
                nfa.add(s, EpsLabel::Eps, f.start);
                nfa.add(f.end, EpsLabel::Eps, e);
            }
            Frag { start: s, end: e }
        }
        RegexAst::Star(inner) => {
            let f = build(inner, nfa, registry)?;
            let s = nfa.add_state();
            let e = nfa.add_state();
            nfa.add(s, EpsLabel::Eps, e);
            nfa.add(s, EpsLabel::Eps, f.start);
            nfa.add(f.end, EpsLabel::Eps, f.start);
            nfa.add(f.end, EpsLabel::Eps, e);
            Frag { start: s, end: e }
        }
        RegexAst::Plus(inner) => {
            let f = build(inner, nfa, registry)?;
            let e = nfa.add_state();
            nfa.add(f.end, EpsLabel::Eps, f.start);
            nfa.add(f.end, EpsLabel::Eps, e);
            Frag { start: f.start, end: e }
        }
        RegexAst::Optional(inner) => {
            let f = build(inner, nfa, registry)?;
            let s = nfa.add_state();
            let e = nfa.add_state();
            nfa.add(s, EpsLabel::Eps, f.start);
            nfa.add(s, EpsLabel::Eps, e);
            nfa.add(f.end, EpsLabel::Eps, e);
            Frag { start: s, end: e }
        }
        RegexAst::Repeat { inner, min, max } => {
            // Expand into `min` mandatory copies followed by either a star
            // (unbounded) or `max - min` optional copies.
            let mut parts: Vec<RegexAst> = Vec::new();
            for _ in 0..*min {
                parts.push((**inner).clone());
            }
            match max {
                None => parts.push(RegexAst::Star(inner.clone())),
                Some(max) => {
                    for _ in *min..*max {
                        parts.push(RegexAst::Optional(inner.clone()));
                    }
                }
            }
            let expanded = RegexAst::concat(parts);
            build(&expanded, nfa, registry)?
        }
    })
}

/// ε-closures (each including its state itself), computed one state at a
/// time over one visited buffer, so the whole ε-elimination costs the sum of
/// the closure sizes, not a fresh `n`-entry buffer per state.
struct EpsClosure {
    seen: Vec<bool>,
    stack: Vec<usize>,
    out: Vec<usize>,
}

impl EpsClosure {
    fn new(num_states: usize) -> Self {
        EpsClosure { seen: vec![false; num_states], stack: Vec::new(), out: Vec::new() }
    }

    /// The ε-closure of `q`, `q` first, then the states in DFS discovery
    /// order. Valid until the next call, which unmarks it through `out`.
    fn of(&mut self, nfa: &EpsNfa, q: usize) -> &[usize] {
        for &p in &self.out {
            self.seen[p] = false;
        }
        self.out.clear();
        self.stack.push(q);
        self.seen[q] = true;
        self.out.push(q);
        while let Some(p) = self.stack.pop() {
            for (label, to) in &nfa.transitions[p] {
                if *label == EpsLabel::Eps && !self.seen[*to] {
                    self.seen[*to] = true;
                    self.out.push(*to);
                    self.stack.push(*to);
                }
            }
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::semantics::eval_regex;
    use spanners_core::{dedup_mappings, Document, Mapping};

    /// Differential check: the full constant-delay pipeline must agree with the
    /// Table 1 reference semantics (after aligning variable registries, which
    /// both sides intern in sorted-name order).
    fn assert_pipeline_matches_semantics(pattern: &str, docs: &[&str]) {
        let ast = parse(pattern).unwrap();
        let spanner = compile(pattern).unwrap();
        for text in docs {
            let doc = Document::from(*text);
            let (mut expected, _) = eval_regex(&ast, &doc).unwrap();
            dedup_mappings(&mut expected);
            let mut got = spanner.mappings(&doc);
            dedup_mappings(&mut got);
            assert_eq!(got, expected, "pattern {pattern:?} on document {text:?}");
            // Counting agrees too (Theorem 5.1).
            assert_eq!(
                spanner.count_u64(&doc).unwrap() as usize,
                expected.len(),
                "count mismatch for {pattern:?} on {text:?}"
            );
        }
    }

    #[test]
    fn regex_to_va_produces_matching_naive_semantics() {
        for (pattern, doc) in [
            ("abc", "abc"),
            ("a*", "aaa"),
            ("!x{a+}b", "aab"),
            ("!x{a}|!y{b}", "b"),
            (".*!x{\\d+}.*", "ab12c"),
        ] {
            let ast = parse(pattern).unwrap();
            let va = regex_to_va(&ast).unwrap();
            let d = Document::from(doc);
            let (mut expected, _) = eval_regex(&ast, &d).unwrap();
            dedup_mappings(&mut expected);
            assert_eq!(va.eval_naive(&d), expected, "pattern {pattern:?} on {doc:?}");
        }
    }

    #[test]
    fn plain_regular_expressions() {
        assert_pipeline_matches_semantics("abc", &["abc", "abd", "ab", "abcd", ""]);
        assert_pipeline_matches_semantics("a*b+c?", &["b", "aabbc", "c", "abc", ""]);
        assert_pipeline_matches_semantics("(ab|cd)*", &["", "ab", "abcd", "abc", "cdab"]);
        assert_pipeline_matches_semantics("a{2,3}", &["a", "aa", "aaa", "aaaa"]);
    }

    #[test]
    fn single_capture_patterns() {
        assert_pipeline_matches_semantics(".*!x{a}.*", &["", "a", "banana", "xyz"]);
        assert_pipeline_matches_semantics(".*!x{\\d+}.*", &["ab", "a1b22c", "123"]);
        assert_pipeline_matches_semantics("!x{.*}", &["", "ab", "abc"]);
    }

    #[test]
    fn multi_capture_patterns() {
        assert_pipeline_matches_semantics(
            ".*!x{[a-z]+}=!y{[0-9]+}.*",
            &["k=1", "key=42;other=7", "=", "noequals"],
        );
        assert_pipeline_matches_semantics("!a{.}!b{.}!c{.}", &["xyz", "xy", "wxyz"]);
    }

    #[test]
    fn nested_and_overlapping_captures() {
        assert_pipeline_matches_semantics(".*!x{.*!y{.*}.*}.*", &["", "a", "ab"]);
        assert_pipeline_matches_semantics(".*!x{a.*}.*!y{.*b}.*", &["ab", "ba", "aabb"]);
    }

    #[test]
    fn alternation_of_captures_partial_mappings() {
        assert_pipeline_matches_semantics(
            ".*(!email{\\w+@\\w+}|!phone{\\d+-\\d+}).*",
            &["bob@host", "555-12", "x", "a@b 1-2"],
        );
    }

    #[test]
    fn empty_span_captures() {
        assert_pipeline_matches_semantics("a!x{}b", &["ab", "b", "aab"]);
        assert_pipeline_matches_semantics("!x{a?}", &["", "a", "aa"]);
    }

    #[test]
    fn figure1_example_through_pipeline() {
        let pattern = ".*!name{[A-Z][a-z]+} x(!email{[a-z.@]+}|!phone{[0-9-]+})y.*";
        let doc = Document::from("John xj@g.bey, Jane x555-12y");
        let spanner = compile(pattern).unwrap();
        let reg = spanner.registry();
        let name = reg.get("name").unwrap();
        let email = reg.get("email").unwrap();
        let phone = reg.get("phone").unwrap();
        let mut got = spanner.mappings(&doc);
        dedup_mappings(&mut got);
        use spanners_core::Span;
        let mu1 = Mapping::from_pairs([
            (name, Span::from_paper(1, 5).unwrap()),
            (email, Span::from_paper(7, 13).unwrap()),
        ]);
        let mu2 = Mapping::from_pairs([
            (name, Span::from_paper(16, 20).unwrap()),
            (phone, Span::from_paper(22, 28).unwrap()),
        ]);
        assert!(got.contains(&mu1));
        assert!(got.contains(&mu2));
        assert_eq!(got.len(), 2);
        assert_eq!(spanner.count_u64(&doc).unwrap(), 2);
    }

    #[test]
    fn counted_repetitions_with_captures() {
        assert_pipeline_matches_semantics(".*!ip{\\d{1,3}\\.\\d{1,3}}.*", &["10.25", "1.2.3", "x"]);
    }

    #[test]
    fn starred_capture_agrees_with_semantics() {
        // Degenerate but well-defined per Table 1: a starred capture can fire at
        // most once (iterations must have disjoint domains).
        assert_pipeline_matches_semantics("(!x{a})*", &["", "a", "aa"]);
        assert_pipeline_matches_semantics("(!x{a}|b)*", &["", "b", "ab", "bab", "aa"]);
    }

    #[test]
    fn invalid_pattern_is_reported() {
        assert!(compile("(a").is_err());
        assert!(compile("!x{a").is_err());
        assert!(matches!(compile("(a"), Err(SpannerError::Parse(_))));
    }

    #[test]
    fn functional_patterns_compile_without_sequentialization_blowup() {
        // A functional pattern stays functional through regex_to_va.
        let ast = parse("!x{[a-z]+}@!y{[a-z]+}").unwrap();
        assert!(ast.is_functional());
        let va = regex_to_va(&ast).unwrap();
        assert!(va.is_functional());
        assert!(va.is_sequential());
    }

    #[test]
    fn matches_and_counts_on_larger_document() {
        // End-to-end smoke test on a larger synthetic document: the number of
        // digit-run captures equals the number of (start, end) pairs of runs.
        let spanner = compile(".*!x{\\d+}.*").unwrap();
        let text = "a1b22c333d".repeat(20);
        let doc = Document::from(text.as_str());
        let count = spanner.count_u64(&doc).unwrap();
        let enumerated = spanner.mappings(&doc).len() as u64;
        assert_eq!(count, enumerated);
        // Each maximal run of k digits contributes k(k+1)/2 sub-runs.
        let expected: u64 = 20 * (1 + 3 + 6);
        assert_eq!(count, expected);
    }
}
