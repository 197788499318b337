//! Translations between automaton models (Theorem 3.1, Propositions 4.1 and 4.3).
//!
//! * [`va_to_eva`] — classical VA → extended VA by collapsing *variable paths*
//!   (sequences of variable transitions using pairwise distinct markers) into a
//!   single extended transition. Preserves sequentiality and functionality
//!   (Theorem 3.1); may blow up by a factor `2^ℓ` for sequential VA (Proposition
//!   4.2, Figure 7), but stays polynomial for functional VA (Proposition 4.3,
//!   Lemma B.1).
//! * [`eva_to_va`] — extended VA → classical VA by expanding each extended
//!   transition into a chain of single-marker transitions (Theorem 3.1).
//! * [`sequentialize`] — arbitrary VA → equivalent sequential VA by annotating
//!   states with the status of every variable (the `3^ℓ` construction inside
//!   Proposition 4.1).
//! * [`compile_va`] — the full pipeline VA → deterministic sequential eVA →
//!   [`DetSeva`], combining the steps above with the subset construction of
//!   [`crate::determinize()`].

use crate::determinize::{determinize, trim};
use crate::va::{Va, VaBuilder, VaLabel};
use spanners_core::eva::StateId;
use spanners_core::markerset::VariableStatus;
use spanners_core::{DetSeva, Eva, EvaBuilder, Marker, MarkerSet, SpannerError};
use std::collections::HashMap;

/// Resource limits for the potentially-exponential constructions.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Maximum number of states any intermediate or final automaton may have.
    pub max_states: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        // Generous default: the constructions are exponential in the worst case
        // but the spanners used in practice stay far below this.
        CompileOptions { max_states: 1 << 20 }
    }
}

impl CompileOptions {
    /// Options with a caller-chosen state budget.
    pub fn with_max_states(max_states: usize) -> Self {
        CompileOptions { max_states }
    }
}

/// Converts a classical VA into an equivalent extended VA (Theorem 3.1).
///
/// For every pair of states `(p, q)` connected by a *variable path* — a sequence
/// of variable transitions whose markers are pairwise distinct — the result has
/// an extended transition labelled with the set of markers on the path. Letter
/// transitions are copied unchanged.
///
/// The construction preserves sequentiality and functionality. Its output can
/// have `2^ℓ` extended transitions in the worst case (Proposition 4.2); for
/// functional VA at most one extended transition is created per state pair
/// (Lemma B.1), so the output has at most `m + n²` transitions (Proposition 4.3).
pub fn va_to_eva(va: &Va) -> Result<Eva, SpannerError> {
    let mut builder = EvaBuilder::new(va.registry().clone());
    let states = builder.add_states(va.num_states());
    builder.set_initial(states[va.initial()]);
    for q in va.final_states() {
        builder.set_final(states[q]);
    }
    // Letter transitions are copied.
    for (q, t) in va.all_transitions() {
        if let VaLabel::Letter(c) = &t.label {
            builder.add_letter(states[q], *c, states[t.target]);
        }
    }
    // Variable-path closure from every state.
    for p in 0..va.num_states() {
        // DFS over variable transitions with pairwise distinct markers.
        let mut stack: Vec<(StateId, MarkerSet)> = vec![(p, MarkerSet::new())];
        let mut seen: Vec<(StateId, MarkerSet)> = Vec::new();
        while let Some((q, used)) = stack.pop() {
            for t in va.transitions(q) {
                if let VaLabel::Variable(m) = &t.label {
                    if used.contains(*m) {
                        continue; // markers on a variable path must be distinct
                    }
                    let next = used.with(*m);
                    let entry = (t.target, next);
                    if !seen.contains(&entry) {
                        seen.push(entry);
                        builder.add_var(states[p], next, states[t.target])?;
                        stack.push(entry);
                    }
                }
            }
        }
    }
    builder.build()
}

/// Converts an extended VA into an equivalent classical VA (Theorem 3.1).
///
/// Each extended transition `(p, S, q)` with `|S| > 1` becomes a chain of fresh
/// intermediate states connected by single-marker transitions. Markers are
/// emitted in a canonical order — all opens (by variable index) before all
/// closes (by variable index) — which keeps every expanded path valid whenever
/// the original transition was used validly.
pub fn eva_to_va(eva: &Eva) -> Result<Va, SpannerError> {
    let mut builder = VaBuilder::new(eva.registry().clone());
    let states = builder.add_states(eva.num_states());
    builder.set_initial(states[eva.initial()]);
    for (q, &state) in states.iter().enumerate() {
        if eva.is_final(q) {
            builder.set_final(state);
        }
    }
    for (q, t) in eva.all_letter_transitions() {
        builder.add_letter(states[q], t.class, states[t.target]);
    }
    for (q, t) in eva.all_var_transitions() {
        // Canonical marker order: opens before closes, each by variable index.
        let mut markers: Vec<Marker> = t.markers.iter().collect();
        markers.sort_by_key(|m| match m {
            Marker::Open(v) => (0, v.index()),
            Marker::Close(v) => (1, v.index()),
        });
        let mut cur = states[q];
        for (i, m) in markers.iter().enumerate() {
            let next = if i + 1 == markers.len() { states[t.target] } else { builder.add_state() };
            builder.add_marker(cur, *m, next);
            cur = next;
        }
    }
    builder.build()
}

/// Converts an arbitrary VA into an equivalent **sequential** VA by annotating
/// states with the status (unopened / open / closed) of every variable —
/// the `n · 3^ℓ` construction used inside Proposition 4.1.
///
/// Transitions that would open or close a variable incorrectly are dropped, and
/// only annotated states whose variables are all closed may be final, so every
/// accepting run of the result is valid. The defined mappings are unchanged
/// because invalid runs never contribute mappings.
pub fn sequentialize(va: &Va, opts: CompileOptions) -> Result<Va, SpannerError> {
    let mut builder = VaBuilder::new(va.registry().clone());
    let mut index: HashMap<(StateId, VariableStatus), StateId> = HashMap::new();
    let mut worklist: Vec<(StateId, VariableStatus)> = Vec::new();

    let start = (va.initial(), VariableStatus::new());
    let s0 = builder.add_state();
    builder.set_initial(s0);
    index.insert(start, s0);
    worklist.push(start);

    while let Some((q, status)) = worklist.pop() {
        let from = index[&(q, status)];
        if va.is_final(q) && status.is_complete() {
            builder.set_final(from);
        }
        for t in va.transitions(q) {
            let (label, next_status) = match &t.label {
                VaLabel::Letter(c) => (VaLabel::Letter(*c), status),
                VaLabel::Variable(m) => match status.apply(MarkerSet::singleton(*m)) {
                    Some(next) => (VaLabel::Variable(*m), next),
                    None => continue, // would be invalid: prune
                },
            };
            let key = (t.target, next_status);
            let to = match index.get(&key) {
                Some(&id) => id,
                None => {
                    if builder.num_states() >= opts.max_states {
                        return Err(SpannerError::BudgetExceeded {
                            what: "sequentialization (Proposition 4.1)",
                            limit: opts.max_states,
                        });
                    }
                    let id = builder.add_state();
                    index.insert(key, id);
                    worklist.push(key);
                    id
                }
            };
            match label {
                VaLabel::Letter(c) => builder.add_letter(from, c, to),
                VaLabel::Variable(m) => builder.add_marker(from, m, to),
            }
        }
    }
    builder.build()
}

/// Compiles an arbitrary classical VA into a [`DetSeva`] ready for the
/// constant-delay algorithm, following Section 4 of the paper:
///
/// 1. if the VA is not already sequential, apply [`sequentialize`]
///    (`n·3^ℓ` states, Proposition 4.1);
/// 2. translate to an extended VA with [`va_to_eva`] (Theorem 3.1);
/// 3. determinize with the subset construction (Proposition 3.2);
/// 4. trim unreachable/dead states and compile the dense representation.
///
/// For functional VA this specialises to the `2^n`-state bound of
/// Proposition 4.3; for general VA it realises the `2^{n·3^ℓ}` bound of
/// Proposition 4.1.
pub fn compile_va(va: &Va, opts: CompileOptions) -> Result<DetSeva, SpannerError> {
    let sequential = if va.is_sequential() { va.clone() } else { sequentialize(va, opts)? };
    let eva = va_to_eva(&sequential)?;
    let det = determinize(&eva, opts.max_states)?;
    let trimmed = trim(&det)?;
    DetSeva::compile_trusted(&trimmed)
}

/// Compiles an extended VA (not necessarily deterministic) into a [`DetSeva`]:
/// determinize (Proposition 3.2), trim, and build the dense representation.
/// The input must be sequential; this is checked unless `trusted` is set.
pub fn compile_eva(
    eva: &Eva,
    opts: CompileOptions,
    trusted: bool,
) -> Result<DetSeva, SpannerError> {
    if !trusted {
        eva.check_sequential()?;
    }
    let det = determinize(eva, opts.max_states)?;
    let trimmed = trim(&det)?;
    DetSeva::compile_trusted(&trimmed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::{dedup_mappings, ByteClass, Document, VarRegistry};

    /// Figure 2's functional VA (same fixture as in `va::tests`).
    fn figure2() -> Va {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let y = reg.intern("y").unwrap();
        let mut b = VaBuilder::new(reg);
        let q = b.add_states(6);
        b.set_initial(q[0]);
        b.set_final(q[5]);
        b.add_open(q[0], x, q[1]);
        b.add_open(q[1], y, q[3]);
        b.add_open(q[0], y, q[2]);
        b.add_open(q[2], x, q[3]);
        b.add_byte(q[3], b'a', q[3]);
        b.add_close(q[3], x, q[4]);
        b.add_close(q[4], y, q[5]);
        b.build().unwrap()
    }

    /// The Proposition 4.2 family (Figure 7): a sequential VA with 2ℓ variables
    /// whose smallest equivalent eVA needs 2^ℓ extended transitions.
    fn prop42_family(ell: usize) -> Va {
        let mut reg = VarRegistry::new();
        let xs: Vec<_> = (0..ell).map(|i| reg.intern(&format!("x{i}")).unwrap()).collect();
        let ys: Vec<_> = (0..ell).map(|i| reg.intern(&format!("y{i}")).unwrap()).collect();
        let mut b = VaBuilder::new(reg);
        // Chain of blocks: at block i choose to open+close either x_i or y_i.
        let start = b.add_state();
        b.set_initial(start);
        let mut cur = start;
        for i in 0..ell {
            let next = b.add_state();
            // open/close x_i
            let mid_x = b.add_state();
            b.add_open(cur, xs[i], mid_x);
            b.add_close(mid_x, xs[i], next);
            // open/close y_i
            let mid_y = b.add_state();
            b.add_open(cur, ys[i], mid_y);
            b.add_close(mid_y, ys[i], next);
            cur = next;
        }
        let fin = b.add_state();
        b.add_byte(cur, b'a', fin);
        b.set_final(fin);
        b.build().unwrap()
    }

    #[test]
    fn figure2_to_eva_preserves_semantics() {
        let va = figure2();
        let eva = va_to_eva(&va).unwrap();
        assert!(eva.is_sequential());
        assert!(eva.is_functional());
        for text in ["", "a", "aa", "aaa", "b"] {
            let doc = Document::from(text);
            assert_eq!(eva.eval_naive(&doc), va.eval_naive(&doc), "on {text:?}");
        }
    }

    #[test]
    fn figure2_round_trip_through_va() {
        let va = figure2();
        let eva = va_to_eva(&va).unwrap();
        let back = eva_to_va(&eva).unwrap();
        assert!(back.is_sequential());
        for text in ["", "a", "aa"] {
            let doc = Document::from(text);
            assert_eq!(back.eval_naive(&doc), va.eval_naive(&doc), "on {text:?}");
        }
    }

    #[test]
    fn prop42_blowup_in_extended_transitions() {
        // Proposition 4.2 / Figures 7–9: the eVA equivalent to the family has at
        // least 2^ℓ extended transitions between the initial block and the last.
        for ell in 1..=6 {
            let va = prop42_family(ell);
            assert!(va.is_sequential());
            // The family is sequential but *not* functional: every accepting run
            // assigns exactly one of x_i / y_i per block, never all variables.
            assert!(!va.is_functional());
            assert_eq!(va.num_states(), 3 * ell + 2);
            assert_eq!(va.num_transitions(), 4 * ell + 1);
            let eva = va_to_eva(&va).unwrap();
            // Count extended transitions from the initial state to the last
            // chain state (the ones carrying a complete choice of x_i/y_i).
            let full: usize =
                eva.all_var_transitions().filter(|(_, t)| t.markers.len() == 2 * ell).count();
            assert_eq!(full, 1 << ell, "ℓ = {ell}");
        }
    }

    #[test]
    fn prop42_semantics_preserved() {
        let va = prop42_family(2);
        let eva = va_to_eva(&va).unwrap();
        let doc = Document::from("a");
        let mut expected = va.eval_naive(&doc);
        dedup_mappings(&mut expected);
        assert_eq!(expected.len(), 4); // choose x/y at each of the 2 blocks
        assert_eq!(eva.eval_naive(&doc), expected);
    }

    #[test]
    fn functional_va_eva_transition_bound() {
        // Proposition 4.3 / Lemma B.1: for functional VA the translation adds at
        // most one extended transition per (ordered) state pair, i.e. ≤ n².
        let va = figure2();
        let eva = va_to_eva(&va).unwrap();
        let n = va.num_states();
        let m = va.num_transitions();
        assert!(eva.num_transitions() <= m + n * n);
    }

    #[test]
    fn sequentialize_prunes_invalid_runs() {
        // A VA that can close x without opening it on one branch.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = VaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        // valid branch: open, a, close
        b.add_open(q0, x, q1);
        b.add_byte(q1, b'a', q1);
        b.add_close(q1, x, q2);
        // invalid branch: close x immediately
        b.add_close(q0, x, q2);
        // branch leaving x open
        b.add_open(q0, x, q2);
        let va = b.build().unwrap();
        assert!(!va.is_sequential());
        let seq = sequentialize(&va, CompileOptions::default()).unwrap();
        assert!(seq.is_sequential());
        for text in ["", "a", "aa"] {
            let doc = Document::from(text);
            assert_eq!(seq.eval_naive(&doc), va.eval_naive(&doc), "on {text:?}");
        }
    }

    #[test]
    fn sequentialize_budget() {
        let va = prop42_family(6);
        let err = sequentialize(&va, CompileOptions::with_max_states(4)).unwrap_err();
        assert!(matches!(err, SpannerError::BudgetExceeded { .. }));
    }

    #[test]
    fn compile_va_end_to_end_figure2() {
        let va = figure2();
        let det = compile_va(&va, CompileOptions::default()).unwrap();
        for text in ["", "a", "aa", "aaa"] {
            let doc = Document::from(text);
            let dag = spanners_core::EnumerationDag::build(&det, &doc);
            let mut got = dag.collect_mappings();
            dedup_mappings(&mut got);
            assert_eq!(got, va.eval_naive(&doc), "on {text:?}");
            // and the constant-delay enumeration had no duplicates to begin with
            assert_eq!(got.len(), dag.collect_mappings().len());
        }
    }

    #[test]
    fn compile_va_non_sequential_input() {
        // The sequentialization step makes the pipeline work on arbitrary VA.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = VaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_open(q0, x, q1);
        b.add_letter(q1, ByteClass::any(), q1);
        b.add_close(q1, x, q2);
        b.add_open(q0, x, q2); // leaves x open: invalid, must be pruned
        let va = b.build().unwrap();
        assert!(!va.is_sequential());
        let det = compile_va(&va, CompileOptions::default()).unwrap();
        let doc = Document::from("abc");
        let dag = spanners_core::EnumerationDag::build(&det, &doc);
        let mut got = dag.collect_mappings();
        dedup_mappings(&mut got);
        assert_eq!(got, va.eval_naive(&doc));
        // spans [i, j⟩ with i < j … x must span a non-empty prefix? Let's just
        // check the count against the naive evaluation (already asserted equal)
        // and that it is non-zero.
        assert!(!got.is_empty());
    }

    #[test]
    fn compile_eva_checks_sequentiality() {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = spanners_core::EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        let eva = b.build().unwrap();
        assert!(compile_eva(&eva, CompileOptions::default(), false).is_err());
    }

    #[test]
    fn eva_to_va_expands_marker_sets_in_valid_order() {
        // An eVA transition {x⊢, ⊣x} (empty capture) must expand to x⊢ then ⊣x,
        // never the other way around.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = spanners_core::EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        let eva = b.build().unwrap();
        let va = eva_to_va(&eva).unwrap();
        assert!(va.is_sequential());
        let out = va.eval_naive(&Document::from("a"));
        assert_eq!(out.len(), 1);
        assert_eq!(out, eva.eval_naive(&Document::from("a")));
    }
}
