//! # spanners-core
//!
//! Core types and algorithms for **regular document spanners**, implementing the
//! constant-delay enumeration and counting algorithms of
//! *“Constant delay algorithms for regular document spanners”*
//! (Florenzano, Riveros, Ugarte, Vansummeren, Vrgoč — 2018).
//!
//! The crate provides:
//!
//! * the basic vocabulary of document spanners: [`Document`], [`Span`],
//!   [`Mapping`], capture [`variable`]s and variable [`Marker`]s;
//! * **extended variable-set automata** ([`Eva`]) — the paper's evaluation-friendly
//!   automaton model in which a transition carries a *set* of variable markers and
//!   variable/letter transitions alternate (Section 3.1);
//! * the **deterministic sequential eVA** representation [`DetSeva`] used by the
//!   evaluation algorithms, and its **lazy hybrid** counterpart
//!   ([`LazyDetSeva`] + budgeted [`LazyCache`], module [`lazy`]) that
//!   determinizes nondeterministic eVA on demand behind the [`Stepper`] seam,
//!   live or over a shared [`FrozenCache`] snapshot;
//! * **Algorithm 1 + 2**: linear-time preprocessing and constant-delay enumeration of
//!   all output mappings ([`enumerate`]), exposed both as the one-shot
//!   [`EnumerationDag`] and as the reusable, allocation-free-after-warm-up
//!   [`Evaluator`];
//! * **Algorithm 3**: counting the number of output mappings in `O(|A| × |d|)`
//!   ([`count`]) — the same [`driver::Driver`] loop as Algorithm 1 ([`driver`], over
//!   a sparse active-state set, [`sparse`]) with each state's list replaced
//!   by a count;
//! * one engine argument, [`Target`]: every engine ([`Evaluator`],
//!   [`CountCache`], [`SlpEvaluator`]) has one fallible method per task,
//!   taking the eager automaton, the live lazy one, or the lazy one over a
//!   frozen snapshot alike, under the engine's configured [`EvalLimits`];
//! * a high-level [`CompiledSpanner`] façade tying it all together.
//!
//! Automaton *construction* from regex formulas, translation of classical
//! variable-set automata, determinization, and the spanner algebra live in the
//! companion crates `spanners-regex`, `spanners-automata` and `spanners-algebra`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod byteclass;
pub mod count;
pub mod det;
pub mod document;
pub mod driver;
pub mod enumerate;
pub mod error;
pub mod eva;
pub mod lazy;
pub mod limits;
pub mod mapping;
pub mod markerset;
pub mod product;
pub mod slp;
pub mod span;
pub mod spanner;
pub mod sparse;
pub mod variable;

pub use byteclass::{find_next_interesting, AlphabetPartition, ByteClass, ClassMask, InterestMask};
pub use count::{count_mappings, CountCache, Counter};
pub use det::{DetSeva, Stepper};
pub use document::Document;
pub use driver::{EngineMode, Target};
pub use enumerate::{DagView, EnumerationDag, Evaluator, MappingIter};
pub use error::{ParseError, Result, SpannerError};
pub use eva::{Eva, EvaBuilder, EvaRun, StateId};
pub use lazy::{
    CapacitySignature, EvictionPolicy, FrozenCache, FrozenDelta, FrozenStepper, LazyCache,
    LazyConfig, LazyDetSeva, LazyStepper,
};
pub use limits::{EvalLimits, GovernorHandle, GovernorStats, MemoryGovernor};
pub use mapping::{
    dedup_mappings, join_mapping_sets, project_mapping_set, union_mapping_sets, Mapping,
};
pub use markerset::{MarkerSet, VarSet, VariableStatus};
pub use product::{AnnotatedProduct, AnnotatedTransition};
pub use slp::{Slp, SlpEvaluator, SlpRules, SlpSharedMemo};
pub use span::{all_spans, Span};
pub use spanner::{CompiledSpanner, EnginePolicy};
pub use sparse::SparseSet;
pub use variable::{Marker, VarId, VarRegistry, MAX_VARIABLES};

/// Compile-time thread-safety audit of the batch/serving runtime's sharing
/// model: the compiled automata and frozen snapshots are shared *read-only*
/// across worker threads (`Send + Sync`), while every mutable engine — the
/// evaluators, count caches and the lazy subset stores (live caches and
/// frozen-overflow deltas are one type) — is
/// per-worker state that only needs to move between threads (`Send`).
/// A field that silently introduced interior mutability or a thread-bound
/// type would fail this function's bounds and break the build.
#[allow(dead_code)]
fn assert_runtime_thread_safety() {
    fn shared<T: Send + Sync>() {}
    fn per_worker<T: Send>() {}
    shared::<DetSeva>();
    shared::<LazyDetSeva>();
    shared::<FrozenCache>();
    shared::<AlphabetPartition>();
    shared::<CompiledSpanner>();
    shared::<Document>();
    per_worker::<Evaluator>();
    per_worker::<CountCache<u64>>();
    per_worker::<LazyCache>();
    shared::<Slp>();
    shared::<SlpRules>();
    shared::<SlpSharedMemo>();
    per_worker::<SlpEvaluator>();
    shared::<MemoryGovernor>();
    shared::<GovernorHandle>();
}
