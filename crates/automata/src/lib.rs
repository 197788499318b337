//! # spanners-automata
//!
//! Classical **variable-set automata** (VA) and the automaton-level machinery of
//! Section 4 of *“Constant delay algorithms for regular document spanners”*:
//!
//! * [`va`] — the classical VA model (single-marker transitions), run semantics,
//!   sequentiality/functionality analyses;
//! * [`translate`] — VA ↔ extended VA (Theorem 3.1), sequentialization
//!   (Proposition 4.1) and the full compilation pipeline to a deterministic
//!   sequential eVA ([`compile_va`]);
//! * [`determinize`](mod@determinize) — the subset construction of Proposition 3.2 and trimming;
//! * [`ops`] — join, union, deterministic union and projection on extended VA
//!   (Proposition 4.4 and Lemma B.2);
//! * [`nfa`] / [`census`] — the SpanL-hardness reduction of Theorem 5.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod census;
pub mod determinize;
pub mod equivalence;
pub mod nfa;
pub mod ops;
pub mod translate;
pub mod va;

pub use census::{census_reduction, CensusInstance};
pub use determinize::{determinize, trim};
pub use equivalence::{
    all_documents, bounded_equivalent_eva, bounded_equivalent_va, bounded_equivalent_va_eva,
    Counterexample,
};
pub use nfa::Nfa;
pub use ops::{join, project, rebase_registry, remap_markers, union, union_deterministic};
pub use translate::{compile_eva, compile_va, eva_to_va, sequentialize, va_to_eva, CompileOptions};
pub use va::{Va, VaBuilder, VaLabel, VaRun, VaTransition};
