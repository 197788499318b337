//! Determinization of extended VA (Proposition 3.2) and automaton trimming.
//!
//! The construction is the classical subset construction, treating every
//! distinct marker set as its own input symbol and working over the automaton's
//! *alphabet equivalence classes* rather than over all 256 bytes. The result is
//! deterministic, and it preserves sequentiality and functionality: a run of the
//! determinized automaton over a given label sequence exists iff a run of the
//! original automaton over the same label sequence exists, and validity is a
//! property of the label sequence alone.

use spanners_core::byteclass::{AlphabetPartition, ByteClass};
use spanners_core::eva::StateId;
use spanners_core::{Eva, EvaBuilder, MarkerSet, SpannerError};
use std::collections::HashMap;

/// Determinizes an extended VA via the subset construction (Proposition 3.2).
///
/// `max_states` bounds the number of subset states; exceeding it returns
/// [`SpannerError::BudgetExceeded`]. The bound `2^n` of the paper is a worst
/// case — most practical spanners determinize to far fewer states.
pub fn determinize(eva: &Eva, max_states: usize) -> Result<Eva, SpannerError> {
    let partition = AlphabetPartition::from_classes(eva.letter_classes().iter());
    let ncls = partition.num_classes();

    let mut builder = EvaBuilder::new(eva.registry().clone());
    // Map from subset (sorted state vector) to the new state id.
    let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut worklist: Vec<Vec<StateId>> = Vec::new();

    let start = vec![eva.initial()];
    let s0 = builder.add_state();
    builder.set_initial(s0);
    index.insert(start.clone(), s0);
    worklist.push(start);

    // Class indices of one letter transition, reused across transitions.
    let mut classes: Vec<usize> = Vec::new();
    while let Some(subset) = worklist.pop() {
        let from = index[&subset];
        if subset.iter().any(|&q| eva.is_final(q)) {
            builder.set_final(from);
        }

        // --- Extended variable transitions: group targets by marker set. ---
        let mut by_markers: HashMap<MarkerSet, Vec<StateId>> = HashMap::new();
        for &q in &subset {
            for t in eva.var_transitions(q) {
                by_markers.entry(t.markers).or_default().push(t.target);
            }
        }
        // Deterministic iteration order for reproducible automata.
        let mut marker_keys: Vec<MarkerSet> = by_markers.keys().copied().collect();
        marker_keys.sort();
        for markers in marker_keys {
            let mut targets = by_markers.remove(&markers).expect("key collected above");
            targets.sort_unstable();
            targets.dedup();
            let to = intern_subset(&mut builder, &mut index, &mut worklist, targets, max_states)?;
            builder.add_var(from, markers, to)?;
        }

        // --- Letter transitions: group targets per alphabet class, then merge
        //     classes that lead to the same target subset. ---
        let mut per_class: Vec<Vec<StateId>> = vec![Vec::new(); ncls];
        for &q in &subset {
            for t in eva.letter_transitions(q) {
                partition.classes_intersecting_into(&t.class, &mut classes);
                for &cls in &classes {
                    per_class[cls].push(t.target);
                }
            }
        }
        let mut by_target: HashMap<Vec<StateId>, ByteClass> = HashMap::new();
        for (cls, mut targets) in per_class.into_iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            targets.sort_unstable();
            targets.dedup();
            // The merged label is the union of the classes leading to `targets`.
            let entry = by_target.entry(targets).or_insert_with(ByteClass::empty);
            *entry = entry.union(partition.class_members(cls));
        }
        let mut target_keys: Vec<Vec<StateId>> = by_target.keys().cloned().collect();
        target_keys.sort();
        for targets in target_keys {
            let class = by_target.remove(&targets).expect("key collected above");
            let to = intern_subset(&mut builder, &mut index, &mut worklist, targets, max_states)?;
            builder.add_letter(from, class, to);
        }
    }
    builder.build()
}

/// Looks up or creates the subset state for `targets`.
fn intern_subset(
    builder: &mut EvaBuilder,
    index: &mut HashMap<Vec<StateId>, StateId>,
    worklist: &mut Vec<Vec<StateId>>,
    targets: Vec<StateId>,
    max_states: usize,
) -> Result<StateId, SpannerError> {
    if let Some(&id) = index.get(&targets) {
        return Ok(id);
    }
    if builder.num_states() >= max_states {
        return Err(SpannerError::BudgetExceeded {
            what: "determinization (Proposition 3.2)",
            limit: max_states,
        });
    }
    let id = builder.add_state();
    index.insert(targets.clone(), id);
    worklist.push(targets);
    Ok(id)
}

/// Removes states that are unreachable from the initial state or cannot reach a
/// final state, remapping the remainder. The initial state is always kept.
pub fn trim(eva: &Eva) -> Result<Eva, SpannerError> {
    let reach = eva.reachable_states();
    let co = eva.coreachable_states();
    let keep: Vec<bool> =
        (0..eva.num_states()).map(|q| (reach[q] && co[q]) || q == eva.initial()).collect();

    let mut builder = EvaBuilder::new(eva.registry().clone());
    let mut remap: Vec<Option<StateId>> = vec![None; eva.num_states()];
    for q in 0..eva.num_states() {
        if keep[q] {
            remap[q] = Some(builder.add_state());
        }
    }
    builder.set_initial(remap[eva.initial()].expect("initial state kept"));
    for q in 0..eva.num_states() {
        let Some(nq) = remap[q] else { continue };
        if eva.is_final(q) {
            builder.set_final(nq);
        }
        for t in eva.letter_transitions(q) {
            if let Some(nt) = remap[t.target] {
                builder.add_letter(nq, t.class, nt);
            }
        }
        for t in eva.var_transitions(q) {
            if let Some(nt) = remap[t.target] {
                builder.add_var(nq, t.markers, nt)?;
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::{dedup_mappings, DetSeva, Document, EnumerationDag, VarRegistry};

    /// A non-deterministic eVA: two transitions with the same marker set leave
    /// the initial state, and overlapping byte classes leave q1.
    fn nondet_eva() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let q3 = b.add_state();
        b.set_initial(q0);
        b.set_final(q3);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_var(q0, ms().with_open(x), q2).unwrap();
        b.add_letter(q1, ByteClass::range(b'a', b'm'), q1);
        b.add_letter(q1, ByteClass::range(b'g', b'z'), q2);
        b.add_letter(q2, ByteClass::range(b'a', b'z'), q2);
        b.add_var(q1, ms().with_close(x), q3).unwrap();
        b.add_var(q2, ms().with_close(x), q3).unwrap();
        b.add_letter(q3, ByteClass::any(), q3);
        b.build().unwrap()
    }

    #[test]
    fn determinize_produces_deterministic_equivalent() {
        let eva = nondet_eva();
        assert!(!eva.is_deterministic());
        assert!(eva.is_sequential());
        let det = determinize(&eva, 1 << 16).unwrap();
        assert!(det.is_deterministic());
        assert!(det.is_sequential());
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "zzz"] {
            let doc = Document::from(text);
            assert_eq!(det.eval_naive(&doc), eva.eval_naive(&doc), "on {text:?}");
        }
    }

    #[test]
    fn determinized_automaton_feeds_constant_delay_algorithm() {
        let eva = nondet_eva();
        let det = determinize(&eva, 1 << 16).unwrap();
        let aut = DetSeva::compile_trusted(&det).unwrap();
        for text in ["abc", "gggg", "amz"] {
            let doc = Document::from(text);
            let dag = EnumerationDag::build(&aut, &doc);
            let got = dag.collect_mappings();
            // No duplicates even though the source automaton had duplicate runs.
            let mut dedup = got.clone();
            dedup_mappings(&mut dedup);
            assert_eq!(got.len(), dedup.len(), "duplicates on {text:?}");
            assert_eq!(dedup, eva.eval_naive(&doc), "mismatch on {text:?}");
        }
    }

    #[test]
    fn determinize_preserves_functionality() {
        let eva = nondet_eva();
        assert!(eva.is_functional());
        let det = determinize(&eva, 1 << 16).unwrap();
        assert!(det.is_functional());
    }

    #[test]
    fn determinize_budget_enforced() {
        let eva = nondet_eva();
        let err = determinize(&eva, 2).unwrap_err();
        assert!(matches!(err, SpannerError::BudgetExceeded { .. }));
    }

    #[test]
    fn determinize_is_idempotent_up_to_size() {
        let eva = nondet_eva();
        let det1 = determinize(&eva, 1 << 16).unwrap();
        let det2 = determinize(&det1, 1 << 16).unwrap();
        // Determinizing an already-deterministic automaton reachable from the
        // initial state cannot increase the number of states.
        assert!(det2.num_states() <= det1.num_states());
        for text in ["", "abc", "zzz"] {
            let doc = Document::from(text);
            assert_eq!(det1.eval_naive(&doc), det2.eval_naive(&doc));
        }
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let dead = b.add_state(); // reachable but cannot reach a final state
        let orphan = b.add_state(); // unreachable
        let fin = b.add_state();
        b.set_initial(q0);
        b.set_final(fin);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x).with_close(x), q1).unwrap();
        b.add_byte(q1, b'a', fin);
        b.add_byte(q1, b'x', dead);
        b.add_byte(orphan, b'y', fin);
        let eva = b.build().unwrap();
        let trimmed = trim(&eva).unwrap();
        assert_eq!(trimmed.num_states(), 3);
        for text in ["a", "x", "", "aa"] {
            let doc = Document::from(text);
            assert_eq!(trimmed.eval_naive(&doc), eva.eval_naive(&doc), "on {text:?}");
        }
    }

    #[test]
    fn trim_keeps_initial_even_if_language_empty() {
        let mut b = EvaBuilder::new(VarRegistry::new());
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_initial(q0);
        b.add_byte(q0, b'a', q1);
        // no final states at all
        let eva = b.build().unwrap();
        let trimmed = trim(&eva).unwrap();
        assert_eq!(trimmed.num_states(), 1);
        assert!(trimmed.eval_naive(&Document::from("a")).is_empty());
    }

    #[test]
    fn determinize_merges_letter_classes_per_target() {
        // q1's overlapping ranges are split into alphabet classes and regrouped:
        // the determinized automaton must still be deterministic on every byte.
        let eva = nondet_eva();
        let det = determinize(&eva, 1 << 16).unwrap();
        for q in 0..det.num_states() {
            let ts = det.letter_transitions(q);
            for i in 0..ts.len() {
                for j in (i + 1)..ts.len() {
                    assert!(!ts[i].class.intersects(&ts[j].class));
                }
            }
        }
    }
}
