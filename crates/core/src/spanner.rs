//! High-level façade tying compilation, evaluation, enumeration and counting together.

use crate::count::{CountCache, Counter};
use crate::det::DetSeva;
use crate::document::Document;
use crate::driver::Target;
use crate::enumerate::{infallible, DagView, EnumerationDag, Evaluator};
use crate::error::SpannerError;
use crate::eva::Eva;
use crate::lazy::{FrozenCache, LazyConfig, LazyDetSeva};
use crate::mapping::Mapping;
use crate::slp::{Slp, SlpEvaluator};
use crate::variable::VarRegistry;
use std::sync::Arc;

/// Which determinization engine a [`CompiledSpanner`] should use.
///
/// * **Eager** compiles the automaton into the dense tables of [`DetSeva`]
///   up front — the fastest per-byte stepping, but it requires the input to
///   already be deterministic and pays the full table cost at compile time.
/// * **Lazy** keeps the (possibly nondeterministic) automaton and
///   determinizes on demand inside a budgeted [`crate::LazyCache`] — large or
///   nondeterministic user-supplied spanners start evaluating immediately and
///   never exceed the memory budget, at the cost of cache bookkeeping on
///   cold rows.
/// * **Auto** (the default) picks eager for small deterministic automata and
///   lazy for everything else — see [`CompiledSpanner::from_eva_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePolicy {
    /// Eager below [`CompiledSpanner::AUTO_EAGER_MAX_CELLS`] letter-table
    /// cells (and only for deterministic input), lazy above it.
    #[default]
    Auto,
    /// Always compile eagerly; fails with [`SpannerError::NotDeterministic`]
    /// on nondeterministic input.
    Eager,
    /// Always determinize lazily, with the default [`LazyConfig`].
    Lazy,
}

/// The compiled engine behind a [`CompiledSpanner`].
#[derive(Debug, Clone)]
enum Engine {
    Eager(DetSeva),
    Lazy(LazyDetSeva),
}

/// A compiled document spanner, ready to be evaluated over many documents.
///
/// A `CompiledSpanner` wraps either an eagerly compiled deterministic
/// sequential extended VA ([`DetSeva`]) or a lazily determinized one
/// ([`LazyDetSeva`]); the engine is chosen by an [`EnginePolicy`] (see
/// [`CompiledSpanner::from_eva_with`]). Construct one from an [`Eva`] with
/// [`CompiledSpanner::from_eva`], or — more conveniently — from a regex
/// formula or classical VA through the `spanners-regex` / `spanners-automata`
/// crates, which perform the translations of Section 4 of the paper and end
/// with this type.
///
/// Evaluation follows the two-phase structure of the paper:
///
/// 1. [`CompiledSpanner::evaluate`] runs the linear-time preprocessing
///    (Algorithm 1), producing an [`EnumerationDag`];
/// 2. the DAG is then enumerated with constant delay (Algorithm 2), counted,
///    or materialized.
///
/// [`CompiledSpanner::mappings`], [`CompiledSpanner::count`] and
/// [`CompiledSpanner::is_match`] bundle the two phases for one-shot use.
/// Hot paths keep one engine per worker — an [`Evaluator`], a [`CountCache`]
/// or an [`SlpEvaluator`] — and hand it [`CompiledSpanner::target`], the
/// spanner's engine as one [`Target`] argument (live, or over a shared
/// [`FrozenCache`] snapshot); the engine's task methods are fallible and
/// honour its configured [`crate::EvalLimits`] on every target. The `*_with`
/// methods here are shorthands for the common cases (the lazy cache lives
/// inside the caller's engine and stays warm across documents);
/// [`CompiledSpanner::evaluate_with`] and
/// [`CompiledSpanner::evaluate_frozen_with`] panic when a configured limit
/// trips. Every entry point runs the engine's own [`crate::EngineMode`]
/// (default [`crate::EngineMode::SkipScan`], skip-mask scanning over the raw
/// document bytes); pass an explicitly-moded engine to select the per-byte
/// reference loop.
#[derive(Debug, Clone)]
pub struct CompiledSpanner {
    engine: Engine,
}

impl CompiledSpanner {
    /// [`EnginePolicy::Auto`]'s eager/lazy threshold, in letter-table cells
    /// (states × alphabet classes). Deterministic automata at or below it
    /// compile eagerly (the dense table is at most a few hundred kilobytes);
    /// anything larger — or any nondeterministic automaton — goes lazy.
    pub const AUTO_EAGER_MAX_CELLS: usize = 1 << 16;

    /// Compiles a sequential eVA into a spanner under [`EnginePolicy::Auto`].
    ///
    /// Fails if the automaton is not sequential, or — for the eager engine
    /// only — not deterministic. Nondeterministic input is handled by the
    /// lazy engine, which `Auto` selects for it automatically.
    pub fn from_eva(eva: &Eva) -> Result<Self, SpannerError> {
        Self::from_eva_with(eva, EnginePolicy::Auto)
    }

    /// Compiles a sequential eVA with an explicit engine choice.
    ///
    /// `Auto` resolves to eager iff the input is deterministic **and** its
    /// dense letter table would hold at most
    /// [`CompiledSpanner::AUTO_EAGER_MAX_CELLS`] cells; otherwise lazy.
    pub fn from_eva_with(eva: &Eva, policy: EnginePolicy) -> Result<Self, SpannerError> {
        let engine = match policy {
            EnginePolicy::Eager => Engine::Eager(DetSeva::compile(eva)?),
            EnginePolicy::Lazy => Engine::Lazy(LazyDetSeva::new(eva, LazyConfig::default())?),
            EnginePolicy::Auto => {
                let cells = eva.num_states().saturating_mul(
                    crate::byteclass::AlphabetPartition::from_classes(eva.letter_classes().iter())
                        .num_classes(),
                );
                if cells <= Self::AUTO_EAGER_MAX_CELLS && eva.is_deterministic() {
                    Engine::Eager(DetSeva::compile(eva)?)
                } else {
                    Engine::Lazy(LazyDetSeva::new(eva, LazyConfig::default())?)
                }
            }
        };
        Ok(CompiledSpanner { engine })
    }

    /// Compiles a sequential eVA with the lazy engine and an explicit cache
    /// configuration (memory budget).
    pub fn from_eva_lazy(eva: &Eva, config: LazyConfig) -> Result<Self, SpannerError> {
        Ok(CompiledSpanner { engine: Engine::Lazy(LazyDetSeva::new(eva, config)?) })
    }

    /// Wraps an already-compiled deterministic sequential eVA (eager engine).
    pub fn from_det(automaton: DetSeva) -> Self {
        CompiledSpanner { engine: Engine::Eager(automaton) }
    }

    /// Wraps an already-prepared lazy automaton (lazy engine).
    pub fn from_lazy(automaton: LazyDetSeva) -> Self {
        CompiledSpanner { engine: Engine::Lazy(automaton) }
    }

    /// Whether this spanner runs on the lazy determinization engine.
    pub fn is_lazy(&self) -> bool {
        matches!(self.engine, Engine::Lazy(_))
    }

    /// The underlying lazy automaton, if the lazy engine is in use.
    pub fn lazy_automaton(&self) -> Option<&LazyDetSeva> {
        match &self.engine {
            Engine::Eager(_) => None,
            Engine::Lazy(lazy) => Some(lazy),
        }
    }

    /// The underlying eagerly compiled automaton, or `None` for lazy-backed
    /// spanners. (It replaced a panicking `automaton()` accessor: since
    /// `EnginePolicy::Auto` routes nondeterministic or oversized input to the
    /// lazy engine, no caller may assume an eager automaton exists unless it
    /// chose the engine itself.)
    pub fn try_automaton(&self) -> Option<&DetSeva> {
        match &self.engine {
            Engine::Eager(det) => Some(det),
            Engine::Lazy(_) => None,
        }
    }

    /// The registry naming the spanner's capture variables.
    pub fn registry(&self) -> &VarRegistry {
        match &self.engine {
            Engine::Eager(det) => det.registry(),
            Engine::Lazy(lazy) => lazy.registry(),
        }
    }

    /// What a run of this spanner steps through, as the engine argument of
    /// every task method: the eager tables, or the lazy automaton — live, or
    /// through `frozen` when one is given (eager spanners ignore `frozen`,
    /// so callers can hold an `Option<&FrozenCache>` and dispatch
    /// uniformly).
    pub fn target<'a>(&'a self, frozen: Option<&'a FrozenCache>) -> Target<'a> {
        match &self.engine {
            Engine::Eager(det) => Target::Eager(det),
            Engine::Lazy(lazy) => Target::Lazy(lazy, frozen),
        }
    }

    /// Phase 1 (Algorithm 1): preprocess `doc` in time `O(|A| × |d|)`,
    /// producing the compact DAG representation of all output mappings.
    pub fn evaluate(&self, doc: &Document) -> EnumerationDag {
        infallible(Evaluator::new().eval_owned(self.target(None), doc))
    }

    /// Like [`CompiledSpanner::evaluate`], but running inside a caller-owned
    /// [`Evaluator`] so that repeated evaluations over many documents reuse
    /// the DAG arenas — and, for lazy spanners, the warm determinization
    /// cache — instead of allocating fresh ones. Panics when one of the
    /// evaluator's configured [`crate::EvalLimits`] trips; run
    /// [`Evaluator::eval`] on [`CompiledSpanner::target`] for a typed error.
    pub fn evaluate_with<'a>(
        &'a self,
        evaluator: &'a mut Evaluator,
        doc: &Document,
    ) -> DagView<'a> {
        infallible(evaluator.view(self.target(None), self.registry(), doc))
    }

    /// Like [`CompiledSpanner::evaluate_with`], but stepping a lazy spanner
    /// through the shared `frozen` snapshot (with the evaluator's private
    /// overflow delta) instead of the evaluator's embedded mutable cache.
    /// Eager spanners ignore `frozen`.
    pub fn evaluate_frozen_with<'a>(
        &'a self,
        evaluator: &'a mut Evaluator,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> DagView<'a> {
        infallible(evaluator.view(self.target(Some(frozen)), self.registry(), doc))
    }

    /// Evaluates and materializes all output mappings.
    ///
    /// Equivalent to `self.evaluate(doc).collect_mappings()`; prefer
    /// [`CompiledSpanner::evaluate`] + [`EnumerationDag::iter`] when the output
    /// may be large and you want to stream it.
    pub fn mappings(&self, doc: &Document) -> Vec<Mapping> {
        self.evaluate(doc).collect_mappings()
    }

    /// Counts `|⟦A⟧(d)|` in time `O(|A| × |d|)` without enumerating
    /// (Algorithm 3 / Theorem 5.1).
    pub fn count<C: Counter>(&self, doc: &Document) -> Result<C, SpannerError> {
        self.count_with(&mut CountCache::new(), doc)
    }

    /// Counts `|⟦A⟧(d)|` as a `u64`.
    pub fn count_u64(&self, doc: &Document) -> Result<u64, SpannerError> {
        self.count(doc)
    }

    /// Like [`CompiledSpanner::count`], but running inside a caller-owned
    /// [`CountCache`] so that repeated counts over many documents reuse the
    /// per-state buffers (and, for lazy spanners, the warm determinization
    /// cache) instead of allocating fresh ones — the hot-path entry point
    /// for counting workloads.
    pub fn count_with<C: Counter>(
        &self,
        cache: &mut CountCache<C>,
        doc: &Document,
    ) -> Result<C, SpannerError> {
        cache.count(self.target(None), doc)
    }

    /// Whether the spanner produces at least one mapping on `doc`.
    ///
    /// Runs the transition relation without building the DAG — linear time,
    /// constant memory in the document (for lazy spanners: bounded by the
    /// configured cache budget). One-shot: a lazy spanner determinizes from
    /// a cold cache each call; hot paths matching many documents should
    /// keep an [`Evaluator`] and call [`Evaluator::accepts`] on
    /// [`CompiledSpanner::target`] instead.
    pub fn is_match(&self, doc: &Document) -> bool {
        infallible(Evaluator::new().accepts(self.target(None), doc))
    }

    /// Warms a private determinization cache on `warm_docs` and freezes it
    /// into a shareable [`FrozenCache`] snapshot — the preparation step of
    /// the parallel batch/serving runtime. Returns `None` for eager spanners,
    /// whose dense tables are already immutable and shared by reference.
    ///
    /// The snapshot captures every subset state and transition row the warm
    /// documents exercised; worker threads then step through it read-only,
    /// each computing the (rare, for a representative warm set) leftovers in
    /// a private [`crate::FrozenDelta`]. An empty `warm_docs` yields a valid
    /// but cold snapshot: every state is then rediscovered per document.
    pub fn freeze_warm(&self, warm_docs: &[Document]) -> Option<FrozenCache> {
        let lazy = self.lazy_automaton()?;
        let mut evaluator = Evaluator::new();
        for doc in warm_docs {
            let _ = evaluator.eval(lazy, doc);
        }
        Some(match evaluator.lazy_cache() {
            Some(cache) => cache.freeze(lazy),
            None => lazy.create_cache().freeze(lazy),
        })
    }

    /// Counts `|⟦A⟧(d)|` directly over an [`Slp`]-compressed document —
    /// **without decompressing** — inside the caller-owned
    /// [`SlpEvaluator`], whose per-`(symbol, state)` memo amortizes the
    /// bottom-up grammar pass across a corpus sharing one rule set. Counts
    /// are byte-identical to running the byte engines on
    /// [`Slp::decompress`]'s output; cost is proportional to the
    /// *compressed* size once the memo is warm. Match verdicts come from
    /// [`SlpEvaluator::accepts`] on [`CompiledSpanner::target`].
    pub fn count_slp_with(
        &self,
        evaluator: &mut SlpEvaluator,
        slp: &Slp,
    ) -> Result<u64, SpannerError> {
        evaluator.count(self.target(None), slp)
    }

    /// [`CompiledSpanner::count_slp_with`] stepping a lazy spanner through
    /// the shared `frozen` snapshot (with the evaluator's private overflow
    /// delta). Eager spanners ignore `frozen`.
    pub fn count_slp_frozen_with(
        &self,
        evaluator: &mut SlpEvaluator,
        frozen: &FrozenCache,
        slp: &Slp,
    ) -> Result<u64, SpannerError> {
        evaluator.count(self.target(Some(frozen)), slp)
    }

    /// [`CompiledSpanner::freeze_warm`] for compressed corpora: warms a
    /// private determinization cache **and** the SLP memo tables on
    /// `warm_slps`, freezes the cache, and attaches the memo snapshot to the
    /// [`FrozenCache`] — workers then compose documents off the shared
    /// bottom-up pass (read through [`crate::FrozenCache::slp_memo`])
    /// instead of recomputing it per worker. Freezing preserves state ids,
    /// so the warm rows remain valid against the snapshot. Returns `None`
    /// for eager spanners, whose memo already persists inside each
    /// evaluator.
    pub fn freeze_warm_slp(&self, warm_slps: &[Slp]) -> Option<FrozenCache> {
        let lazy = self.lazy_automaton()?;
        let mut evaluator = SlpEvaluator::new();
        for slp in warm_slps {
            // Warm both the count and the reachable-set tables; errors
            // (overflow, budget) just leave fewer warm rows behind.
            let _ = evaluator.count(lazy, slp);
            let _ = evaluator.accepts(lazy, slp);
        }
        let mut frozen = match evaluator.lazy_cache() {
            Some(cache) => cache.freeze(lazy),
            None => lazy.create_cache().freeze(lazy),
        };
        if let Some(memo) = evaluator.shared_memo_snapshot() {
            frozen.set_slp_memo(Arc::new(memo));
        }
        Some(frozen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::span::Span;

    /// `Σ* x{a+} Σ*` — x captures every maximal-or-not run of `a`s… precisely:
    /// every span consisting solely of `a`s (non-empty).
    fn a_block_eva() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        let any = ByteClass::any();
        b.add_letter(q0, any, q0);
        b.add_byte(q1, b'a', q1);
        b.add_letter(q2, any, q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    fn a_block_spanner() -> CompiledSpanner {
        CompiledSpanner::from_eva(&a_block_eva()).unwrap()
    }

    #[test]
    fn end_to_end_extraction() {
        let sp = a_block_spanner();
        let x = sp.registry().get("x").unwrap();
        let doc = Document::from("baab");
        let mut out = sp.mappings(&doc);
        out.sort();
        // non-empty all-'a' spans of "baab": [1,2⟩? (0-based: 1..2, 2..3, 1..3)
        let expected: Vec<Mapping> = vec![
            Mapping::singleton(x, Span::new(1, 2).unwrap()),
            Mapping::singleton(x, Span::new(1, 3).unwrap()),
            Mapping::singleton(x, Span::new(2, 3).unwrap()),
        ];
        assert_eq!(out, expected);
        assert_eq!(sp.count_u64(&doc).unwrap(), 3);
        assert!(sp.is_match(&doc));
        assert!(!sp.is_match(&Document::from("bbbb")));
        assert_eq!(sp.count_u64(&Document::from("bbbb")).unwrap(), 0);
    }

    #[test]
    fn evaluate_then_stream() {
        let sp = a_block_spanner();
        let doc = Document::from("aaaa");
        let dag = sp.evaluate(&doc);
        let streamed: Vec<Mapping> = dag.iter().collect();
        assert_eq!(streamed.len(), dag.count_paths().unwrap() as usize);
        assert_eq!(streamed.len(), 4 + 3 + 2 + 1);
        assert_eq!(sp.count_u64(&doc).unwrap(), 10);
    }

    #[test]
    fn rejects_bad_automata() {
        // Non-sequential automaton is rejected at compile time — by every
        // engine (the lazy engine needs sequentiality just as much).
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        let eva = b.build().unwrap();
        assert!(CompiledSpanner::from_eva(&eva).is_err());
        assert!(CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager).is_err());
        assert!(CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).is_err());
    }

    #[test]
    fn auto_policy_picks_eager_for_small_deterministic_input() {
        let sp = a_block_spanner();
        assert!(!sp.is_lazy());
        assert!(sp.try_automaton().is_some());
        assert!(sp.lazy_automaton().is_none());
        assert_eq!(sp.try_automaton().expect("eager engine").num_states(), 3);
    }

    #[test]
    fn try_automaton_is_none_on_lazy_spanners() {
        let lazy = CompiledSpanner::from_eva_with(&a_block_eva(), EnginePolicy::Lazy).unwrap();
        assert!(lazy.try_automaton().is_none());
        let eager = a_block_spanner();
        assert!(eager.try_automaton().is_some());
    }

    #[test]
    fn frozen_entry_points_match_live_engines() {
        // Lazy spanner: freeze after warming on one document, then the frozen
        // entry points must agree with the embedded-cache ones on every doc.
        let eva = a_block_eva();
        let lazy = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
        let frozen = lazy.freeze_warm(&[Document::from("baab")]).expect("lazy spanners freeze");
        let mut live = Evaluator::new();
        let mut frosty = Evaluator::new();
        let mut live_counts = CountCache::<u64>::new();
        let mut frozen_counts = CountCache::<u64>::new();
        for text in ["", "a", "baab", "aaaa", "bbbb", "abab"] {
            let doc = Document::from(text);
            let mut expected = lazy.evaluate_with(&mut live, &doc).collect_mappings();
            let mut got = lazy.evaluate_frozen_with(&mut frosty, &frozen, &doc).collect_mappings();
            expected.sort();
            got.sort();
            assert_eq!(got, expected, "frozen evaluation diverged on {text:?}");
            assert_eq!(
                frozen_counts.count(lazy.target(Some(&frozen)), &doc).unwrap(),
                lazy.count_with(&mut live_counts, &doc).unwrap(),
                "frozen count diverged on {text:?}"
            );
            assert_eq!(
                frosty.accepts(lazy.target(Some(&frozen)), &doc).unwrap(),
                lazy.is_match(&doc),
                "frozen is_match diverged on {text:?}"
            );
        }
        // Eager spanners have no snapshot to freeze; the frozen entry points
        // fall back to the plain engine so callers can dispatch uniformly.
        let eager = a_block_spanner();
        assert!(eager.freeze_warm(&[]).is_none());
        let doc = Document::from("baab");
        assert_eq!(
            eager.evaluate_frozen_with(&mut frosty, &frozen, &doc).count_paths().unwrap(),
            eager.evaluate_with(&mut live, &doc).count_paths().unwrap()
        );
    }

    #[test]
    fn explicit_lazy_override_on_deterministic_input() {
        let eva = a_block_eva();
        let eager = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager).unwrap();
        let lazy = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
        assert!(lazy.is_lazy());
        assert!(lazy.try_automaton().is_none());
        for text in ["", "a", "baab", "aaaa", "bbbb", "abab"] {
            let doc = Document::from(text);
            let mut e = eager.mappings(&doc);
            let mut l = lazy.mappings(&doc);
            e.sort();
            l.sort();
            assert_eq!(e, l, "engines diverged on {text:?}");
            assert_eq!(
                eager.count_u64(&doc).unwrap(),
                lazy.count_u64(&doc).unwrap(),
                "counts diverged on {text:?}"
            );
            assert_eq!(eager.is_match(&doc), lazy.is_match(&doc), "is_match on {text:?}");
        }
    }

    #[test]
    fn auto_policy_picks_lazy_for_nondeterministic_input() {
        // Overlapping letter ranges: not deterministic, eager must refuse,
        // Auto must fall through to the lazy engine and still evaluate.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_letter(q1, ByteClass::range(b'a', b'm'), q1);
        b.add_letter(q1, ByteClass::range(b'g', b'z'), q1);
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        let eva = b.build().unwrap();
        assert!(matches!(
            CompiledSpanner::from_eva_with(&eva, EnginePolicy::Eager),
            Err(SpannerError::NotDeterministic(_))
        ));
        let sp = CompiledSpanner::from_eva(&eva).unwrap();
        assert!(sp.is_lazy());
        let doc = Document::from("xagzx");
        let mut got = sp.mappings(&doc);
        got.sort();
        let mut expected = eva.eval_naive(&doc);
        expected.sort();
        assert_eq!(got, expected);
        assert_eq!(sp.count_u64(&doc).unwrap() as usize, expected.len());
    }

    #[test]
    fn texts_round_trip() {
        let sp = a_block_spanner();
        let doc = Document::from("xaax");
        let dag = sp.evaluate(&doc);
        let texts: Vec<String> = dag
            .iter()
            .map(|m| {
                let t = m.texts(sp.registry(), &doc);
                String::from_utf8(t["x"].to_vec()).unwrap()
            })
            .collect();
        assert_eq!(texts.len(), 3);
        assert!(texts.iter().all(|t| t.chars().all(|c| c == 'a')));
    }
}
