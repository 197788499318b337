//! A polynomial-delay enumeration baseline, in the spirit of
//! Freydenberger–Kimelfeld–Peterfreund (\[13\] in the paper).
//!
//! The enumerator works directly on the product of the automaton and the
//! document positions, **without** building the reverse-dual DAG of
//! Algorithm 1. A preprocessing pass computes which `(state, position)` pairs
//! can still reach an accepting configuration; enumeration is then a DFS over
//! the trimmed product in which every root-to-accepting path spells out one
//! output mapping. Because a path has length `Θ(|d|)`, the delay between two
//! consecutive outputs is `O(|A| × |d|)` — polynomial, not constant — which is
//! exactly the regime the paper's algorithm improves on.

use spanners_core::{DetSeva, Document, Mapping, MarkerSet, Span};

/// A polynomial-delay enumerator over a deterministic sequential eVA.
pub struct PolyDelayEnumerator<'a> {
    aut: &'a DetSeva,
    doc: &'a Document,
    /// `useful[pos * num_states + q]`: whether some accepting configuration is
    /// reachable from state `q` at document position `pos` *before* the
    /// capturing step of that position.
    useful: Vec<bool>,
}

impl<'a> PolyDelayEnumerator<'a> {
    /// Preprocesses the document in `O(|A| × |d|)` time (backward reachability).
    pub fn new(aut: &'a DetSeva, doc: &'a Document) -> Self {
        let n_states = aut.num_states();
        let n = doc.len();
        let mut useful = vec![false; (n + 1) * n_states];
        // Backward pass. At position n (all input consumed) a state is useful if
        // it is final or one variable transition away from a final state.
        for q in 0..n_states {
            let ok = aut.is_final(q) || aut.markers_from(q).iter().any(|&(_, p)| aut.is_final(p));
            useful[n * n_states + q] = ok;
        }
        for pos in (0..n).rev() {
            let b = doc.bytes()[pos];
            for q in 0..n_states {
                // Reading directly.
                let mut ok =
                    aut.step_letter(q, b).is_some_and(|p| useful[(pos + 1) * n_states + p]);
                // Or capturing first, then reading.
                if !ok {
                    ok = aut.markers_from(q).iter().any(|&(_, r)| {
                        aut.step_letter(r, b).is_some_and(|p| useful[(pos + 1) * n_states + p])
                    });
                }
                useful[pos * n_states + q] = ok;
            }
        }
        PolyDelayEnumerator { aut, doc, useful }
    }

    fn is_useful(&self, pos: usize, q: usize) -> bool {
        self.useful[pos * self.aut.num_states() + q]
    }

    /// Enumerates all output mappings through a callback. Returns the number of
    /// mappings produced.
    pub fn enumerate<F: FnMut(Mapping)>(&self, mut emit: F) -> usize {
        let mut path: Vec<(MarkerSet, usize)> = Vec::new();
        let mut count = 0usize;
        self.dfs(self.aut.initial(), 0, false, &mut path, &mut count, &mut emit);
        count
    }

    /// Materializes all output mappings.
    pub fn collect(&self) -> Vec<Mapping> {
        let mut out = Vec::new();
        self.enumerate(|m| out.push(m));
        out
    }

    fn dfs<F: FnMut(Mapping)>(
        &self,
        state: usize,
        pos: usize,
        just_var: bool,
        path: &mut Vec<(MarkerSet, usize)>,
        count: &mut usize,
        emit: &mut F,
    ) {
        if pos == self.doc.len() && self.aut.is_final(state) {
            *count += 1;
            emit(mapping_from_path(path));
        }
        if !just_var {
            for &(markers, p) in self.aut.markers_from(state) {
                // Prune branches that cannot reach an accepting configuration.
                let viable = if pos == self.doc.len() {
                    self.aut.is_final(p)
                } else {
                    self.aut
                        .step_letter(p, self.doc.bytes()[pos])
                        .is_some_and(|r| self.is_useful(pos + 1, r))
                };
                if viable {
                    path.push((markers, pos));
                    self.dfs(p, pos, true, path, count, emit);
                    path.pop();
                }
            }
        }
        if pos < self.doc.len() {
            if let Some(p) = self.aut.step_letter(state, self.doc.bytes()[pos]) {
                if self.is_useful(pos + 1, p) {
                    self.dfs(p, pos + 1, false, path, count, emit);
                }
            }
        }
    }
}

fn mapping_from_path(path: &[(MarkerSet, usize)]) -> Mapping {
    let mut open_pos = [0usize; spanners_core::MAX_VARIABLES];
    let mut mapping = Mapping::new();
    for &(markers, pos) in path {
        for v in markers.opened_vars().iter() {
            open_pos[v.index()] = pos;
        }
        for v in markers.closed_vars().iter() {
            mapping.insert(v, Span::new_unchecked(open_pos[v.index()], pos));
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::dedup_mappings;
    use spanners_regex::compile;

    #[test]
    fn agrees_with_constant_delay_algorithm() {
        for (pattern, docs) in [
            (".*!x{[0-9]+}.*", vec!["a1b22", "", "123", "abc"]),
            (".*!x{a+}.*!y{b+}.*", vec!["ab", "aabb", "ba", "abab"]),
            ("!w{.*}", vec!["", "xy", "xyz"]),
        ] {
            let spanner = compile(pattern).unwrap();
            for text in docs {
                let doc = Document::from(text);
                let mut expected = spanner.mappings(&doc);
                dedup_mappings(&mut expected);
                let enumerator =
                    PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), &doc);
                let mut got = enumerator.collect();
                dedup_mappings(&mut got);
                assert_eq!(got, expected, "pattern {pattern:?} on {text:?}");
                assert_eq!(
                    enumerator.collect().len(),
                    expected.len(),
                    "dup check {pattern:?} {text:?}"
                );
            }
        }
    }

    #[test]
    fn pruning_never_explores_dead_documents() {
        let spanner = compile("!x{[0-9]+}").unwrap();
        let doc = Document::from("abcdef");
        let enumerator =
            PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), &doc);
        assert!(enumerator.collect().is_empty());
        // The initial configuration itself is already known to be useless.
        assert!(!enumerator.is_useful(0, spanner.try_automaton().expect("eager engine").initial()));
    }

    #[test]
    fn early_stop_via_callback_side_channel() {
        let spanner = compile(".*!x{[ab]+}.*").unwrap();
        let doc = Document::from("abab");
        let enumerator =
            PolyDelayEnumerator::new(spanner.try_automaton().expect("eager engine"), &doc);
        let total = enumerator.collect().len();
        assert!(total > 3);
        let mut first_three = Vec::new();
        enumerator.enumerate(|m| {
            if first_three.len() < 3 {
                first_three.push(m);
            }
        });
        assert_eq!(first_three.len(), 3);
    }
}
