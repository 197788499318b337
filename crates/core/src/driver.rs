//! The one Algorithm 1 driver behind enumeration and counting.
//!
//! Algorithm 3 of the paper is Algorithm 1 with each state's list replaced
//! by a count. [`Driver`] is that shared `Evaluate` loop, generic over an
//! [`Accumulator`] that decides what a state carries:
//!
//! * the list of DAG nodes of Algorithm 1, whose finished DAG Algorithm 2
//!   enumerates with constant delay ([`crate::Evaluator`]);
//! * the number of partial runs of Algorithm 3 ([`crate::CountCache`]).
//!
//! The driver owns everything else exactly once: the sparse active-state
//! sets, the `Capturing`/`Reading` phases, the two scan loops of
//! [`EngineMode`], the eviction maintenance point of lazy automata, the
//! per-document limit checker, and the per-worker lazy cache / frozen delta
//! (its cache slot). Each instance is monomorphised and its per-position
//! helpers are forced inline (left to the inliner, the lazy and frozen
//! instances measured about 8% slower), so every scan loop compiles to the
//! same work as a hand-written engine for that accumulator.
//!
//! Both phases are driven by a **sparse active-state set** ([`SparseSet`]):
//! only states with runs are visited, so the cost per document position is
//! proportional to the number of *live* states (plus the work of their
//! transitions), not to the total number of automaton states.

use crate::det::{DetSeva, SkipScanner, Stepper};
use crate::document::Document;
use crate::enumerate::Stage;
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, LazyCache, LazyDetSeva, LazyStepper};
use crate::limits::{EvalLimits, LimitChecker};
use crate::sparse::SparseSet;
use crate::variable::VarRegistry;

/// What the `Evaluate` loop of Algorithm 1 accumulates per automaton state:
/// the list-DAG of [`crate::Evaluator`] or the run counts of
/// [`crate::CountCache`]. The trait is sealed — its methods live in a
/// crate-private supertrait — so the set of driver instances is closed.
pub trait Accumulator: sealed::Accumulate {}

impl<A: sealed::Accumulate> Accumulator for A {}

pub(crate) mod sealed {
    use crate::error::SpannerError;
    use crate::markerset::MarkerSet;

    /// The methods of [`super::Accumulator`].
    ///
    /// A value stands for the set of partial runs ending in a state. The
    /// driver moves values along transitions; the accumulator says how runs
    /// are extended (`Capturing`) and merged (`Reading`), and what the final
    /// states' values amount to.
    pub trait Accumulate: Default {
        /// The per-state value: a node list or a run count.
        type Value: Clone;
        /// What a finished document yields.
        type Output;
        /// The value of a state no run ends in.
        fn empty() -> Self::Value;
        /// Starts a document and returns the initial state's value: the
        /// list `[⊥]`, or one run.
        fn begin(&mut self) -> Self::Value;
        /// `Capturing`: adds to `dst` the runs of `src` extended by the
        /// variable transition `markers` before letter `pos`. `fresh` is set
        /// when `dst` held no runs.
        fn capture(
            &mut self,
            dst: &mut Self::Value,
            fresh: bool,
            src: &Self::Value,
            markers: MarkerSet,
            pos: usize,
        ) -> Result<(), SpannerError>;
        /// `Reading`: adds the runs of `src` to `dst`. `fresh` is set when
        /// `dst` held no runs.
        fn read(
            &mut self,
            dst: &mut Self::Value,
            fresh: bool,
            src: &Self::Value,
        ) -> Result<(), SpannerError>;
        /// Ends a document given the values of the live final states, in
        /// active-set order.
        fn finish<'v>(
            &mut self,
            finals: impl Iterator<Item = (usize, &'v Self::Value)>,
        ) -> Result<Self::Output, SpannerError>
        where
            Self::Value: 'v;
    }
}

/// Which inner loop a [`Driver`] runs Algorithm 1 (or Algorithm 3) with.
///
/// Both modes produce **identical outputs**: the same mappings, the same
/// counts, the same root lists (and, for a fixed automaton state space, the
/// same enumeration order — see `tests/skip_scan.rs` for the one caveat
/// around mid-document eviction of lazily determinized automata). The
/// skipping mode may allocate *fewer* DAG nodes/cells, because the
/// per-byte walk also materializes capture attempts that the very next
/// `Reading` phase provably kills (they are unreachable from every root);
/// the skipping loop elides those positions wholesale. Diagnostic arena
/// sizes (`num_nodes`, `num_cells`) are therefore comparable only within
/// one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Skip-mask scanning — the default. Every automaton state carries a
    /// bitset of the alphabet classes on which a `(Capturing; Reading)` step
    /// is provably a no-op for it ([`DetSeva::skip_mask`]); the active set's
    /// bitsets are intersected into one [`crate::ClassMask`] (recomputed only
    /// when the active set changes), expanded into a byte-level
    /// [`crate::InterestMask`], and the loop jumps straight to the next
    /// *interesting* byte with the [`crate::find_next_interesting`] scanner —
    /// skippable stretches cost a vectorised scan of 64-byte strides (a
    /// byte-range compare kernel when the interesting bytes form at most
    /// four ranges, table lookups otherwise) no matter how many positions
    /// they span. A position is skipped only when every live state is
    /// [`DetSeva::run_skippable`] on its class, so outputs are identical to
    /// the per-byte loop's.
    #[default]
    SkipScan,
    /// The classic byte-at-a-time sparse loop. Used automatically for traced
    /// runs (a [`crate::enumerate::StageTrace`] needs per-position
    /// granularity) and kept selectable so differential tests can pin the
    /// engines against each other byte for byte.
    PerByte,
}

/// The per-worker half of the lazy and frozen engines, shared by the
/// [`Driver`] and [`crate::SlpEvaluator`]: two [`LazyCache`] stores — the
/// live cache of the automaton last run live and the store over the frozen
/// snapshot last run against — each tagged with the identity it belongs to,
/// plus the one-off byte-budget override of the degradation ladder.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheSlot {
    lazy: Option<(u64, LazyCache)>,
    /// Tagged with the *snapshot's* identity: its local state ids are
    /// relative to one specific freeze.
    frozen: Option<(u64, FrozenDelta)>,
    /// `None` uses the automaton's configured budget.
    pub(crate) budget_override: Option<usize>,
}

/// The one engine argument of every task method ([`crate::Evaluator::eval`],
/// [`crate::CountCache::count`], [`crate::SlpEvaluator::count`], …): the
/// automaton a run steps through. Eager tables, or a lazy automaton — live
/// through the engine's own warm cache, or over a shared frozen snapshot
/// through the engine's private overflow delta.
///
/// Task methods take `impl Into<Target>`, so callers pass `&DetSeva`,
/// `&LazyDetSeva` or `(&LazyDetSeva, &FrozenCache)` directly;
/// [`crate::CompiledSpanner::target`] builds one for whichever engine a
/// spanner compiled to.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// The dense tables of an eagerly compiled automaton.
    Eager(&'a DetSeva),
    /// A lazily determinized automaton, live (`None`) or over a frozen
    /// snapshot of its cache (`Some`).
    Lazy(&'a LazyDetSeva, Option<&'a FrozenCache>),
}

impl<'a> Target<'a> {
    /// The registry naming the automaton's capture variables.
    pub(crate) fn registry(self) -> &'a VarRegistry {
        match self {
            Target::Eager(det) => det.registry(),
            Target::Lazy(lazy, _) => lazy.registry(),
        }
    }
}

impl<'a> From<&'a DetSeva> for Target<'a> {
    fn from(det: &'a DetSeva) -> Self {
        Target::Eager(det)
    }
}

impl<'a> From<&'a LazyDetSeva> for Target<'a> {
    fn from(lazy: &'a LazyDetSeva) -> Self {
        Target::Lazy(lazy, None)
    }
}

impl<'a> From<(&'a LazyDetSeva, &'a FrozenCache)> for Target<'a> {
    fn from((lazy, frozen): (&'a LazyDetSeva, &'a FrozenCache)) -> Self {
        Target::Lazy(lazy, Some(frozen))
    }
}

impl CacheSlot {
    /// Runs `f` with a stepper over `aut` — live through the retained cache
    /// of `aut`, or over `base` through the retained store of that snapshot;
    /// a fresh store replaces one that belongs elsewhere. The store is bound
    /// under the effective byte budget first, which makes the budget
    /// deterministic per run: a previous run's override never leaks into an
    /// un-overridden run. A store over a snapshot is reset (capacity
    /// retained), so every frozen run is a pure function of the snapshot and
    /// the document. The store stays warm (and survives a tripped limit) for
    /// the next run.
    pub(crate) fn with_stepper<R>(
        &mut self,
        aut: &LazyDetSeva,
        base: Option<&FrozenCache>,
        f: impl FnOnce(&mut LazyStepper<'_>) -> R,
    ) -> R {
        let budget = self.budget_override.unwrap_or(aut.config().memory_budget);
        let (slot, id) = match base {
            Some(frozen) => (&mut self.frozen, frozen.id()),
            None => (&mut self.lazy, aut.id()),
        };
        let mut store = match slot.take() {
            Some((tag, store)) if tag == id => store,
            _ => LazyCache::new(),
        };
        store.bind_over(aut, base);
        store.set_budget(budget);
        let out = f(&mut LazyStepper::with_base(aut, base, &mut store));
        *slot = Some((id, store));
        out
    }

    pub(crate) fn install_lazy(&mut self, aut: &LazyDetSeva, mut cache: LazyCache) {
        cache.bind(aut);
        self.lazy = Some((aut.id(), cache));
    }

    pub(crate) fn lazy_cache(&self) -> Option<&LazyCache> {
        self.lazy.as_ref().map(|(_, c)| c)
    }

    pub(crate) fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.frozen.as_ref().map(|(_, d)| d)
    }

    /// The live cache, then the store over a snapshot, whichever exist.
    pub(crate) fn stores(&self) -> impl Iterator<Item = &LazyCache> {
        self.lazy_cache().into_iter().chain(self.frozen_delta())
    }

    /// Bytes held by both stores — the memory a global
    /// [`crate::MemoryGovernor`] ledgers and can shed.
    pub(crate) fn governed_bytes(&self) -> usize {
        self.stores().map(LazyCache::memory_bytes).sum()
    }

    /// Severity 1 of the governor's shedding ladder: drops the live cache
    /// outright and [`LazyCache::shed`]s the store over a snapshot (it stays
    /// bound to it). Results stay byte-identical — both are pure
    /// memoization, rebuilt on demand. Returns the bytes freed.
    pub(crate) fn shed(&mut self) -> usize {
        let dropped = self.lazy.take().map_or(0, |(_, cache)| cache.memory_bytes());
        dropped + self.frozen.as_mut().map_or(0, |(_, delta)| delta.shed())
    }
}

/// The reusable engine running Algorithm 1 over any [`Accumulator`]: the
/// list-DAG instance is [`crate::Evaluator`], the counting instance
/// [`crate::CountCache`].
///
/// A driver owns every piece of mutable state a run needs and keeps its
/// capacity across documents, so in steady state (same automaton,
/// comparable document sizes) evaluation performs **zero heap allocation**.
/// Lazily determinized automata are stepped through one of the driver's two
/// [`LazyCache`] stores: its own warm live cache, or, against a shared
/// [`FrozenCache`], its private per-document overflow delta
/// ([`FrozenDelta`]). Per-document [`EvalLimits`] apply to every run.
#[derive(Clone, Default)]
pub struct Driver<A: Accumulator> {
    pub(crate) slot: CacheSlot,
    pub(crate) run: Run<A>,
}

/// The untraced instance of the driver's trace hook.
type NoTrace<V> = fn(Stage, usize, &[V]);

/// Everything one Algorithm 1 run reads and writes.
#[derive(Clone)]
pub(crate) struct Run<A: Accumulator> {
    pub(crate) acc: A,
    /// The value of every state (dense, indexed by state id).
    values: Vec<A::Value>,
    /// Phase-start snapshots of `values` for the active states.
    old: Vec<A::Value>,
    /// States with runs in the current phase. Invariant: every state
    /// outside it holds [`sealed::Accumulate::empty`].
    active: SparseSet,
    /// The active set under construction during a `Reading` phase.
    next_active: SparseSet,
    /// The cached mask state of the scanning loop (see `SkipScanner`).
    scanner: SkipScanner,
    /// Scratch of the clear-and-restart eviction protocol of a lazy
    /// automaton: the live state ids handed to [`Stepper::maintain`]…
    maint_ids: Vec<u32>,
    /// …and the live states' values, saved across the id remap.
    maint_values: Vec<A::Value>,
    mode: EngineMode,
    limits: EvalLimits,
    /// The per-run limit enforcement state, restarted by every run.
    checker: LimitChecker,
}

impl<A: Accumulator> Default for Run<A> {
    fn default() -> Self {
        Run {
            acc: A::default(),
            values: Vec::new(),
            old: Vec::new(),
            active: SparseSet::default(),
            next_active: SparseSet::default(),
            scanner: SkipScanner::default(),
            maint_ids: Vec::new(),
            maint_values: Vec::new(),
            mode: EngineMode::default(),
            limits: EvalLimits::none(),
            checker: LimitChecker::unlimited(),
        }
    }
}

impl<A: Accumulator> std::fmt::Debug for Driver<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("mode", &self.run.mode)
            .field("limits", &self.run.limits)
            .field("states", &self.run.values.len())
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

impl<A: Accumulator> Driver<A> {
    /// A fresh engine with empty buffers, using the default
    /// [`EngineMode::SkipScan`] loop. Buffers grow on first use and are
    /// retained across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine running the given loop.
    pub fn with_mode(mode: EngineMode) -> Self {
        let mut driver = Self::default();
        driver.run.mode = mode;
        driver
    }

    /// The engine mode this engine runs.
    pub fn mode(&self) -> EngineMode {
        self.run.mode
    }

    /// Switches the engine mode for subsequent runs.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.run.mode = mode;
    }

    /// The per-document resource limits applied by every run.
    pub fn limits(&self) -> EvalLimits {
        self.run.limits
    }

    /// Sets per-document resource limits for subsequent runs, on every
    /// [`Target`] and every task. A tripped limit surfaces as an `Err`
    /// ([`SpannerError::StepBudgetExceeded`],
    /// [`SpannerError::DeadlineExceeded`], [`SpannerError::BudgetExceeded`]);
    /// only the facade's infallible [`crate::CompiledSpanner::evaluate_with`]
    /// family panics instead.
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.run.limits = limits;
    }

    /// Overrides the lazy-cache/frozen-delta byte budget for subsequent runs
    /// (`None` restores the automaton's configured budget). This is the
    /// degradation-ladder hook: a document that thrashed the cache can be
    /// retried once under an enlarged budget without recompiling anything.
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.slot.budget_override = budget;
    }

    /// The active lazy-cache/frozen-delta byte-budget override, if any.
    pub fn cache_budget_override(&self) -> Option<usize> {
        self.slot.budget_override
    }

    /// The embedded live lazy determinization cache, if a lazy automaton has
    /// been run live (diagnostics: subset-state count, eviction count,
    /// capacity signature for allocation-retention assertions).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.slot.lazy_cache()
    }

    /// Installs `cache` as the embedded lazy cache for `aut`, replacing
    /// whatever was there. Subsequent lazy runs extend it in place — the
    /// warm-up hook of the generational re-freeze path, which thaws a frozen
    /// snapshot (delta evidence merged), replays sample documents through
    /// it here, and freezes the result as the next generation. A cache bound
    /// to a different automaton is reset by the rebind, exactly as
    /// [`LazyCache::bind`] documents.
    pub fn install_lazy_cache(&mut self, aut: &LazyDetSeva, cache: LazyCache) {
        self.slot.install_lazy(aut, cache);
    }

    /// The embedded store over the frozen snapshot last run against, if any
    /// (diagnostics: overflow-state count, eviction count, capacity
    /// signature). It is the same [`LazyCache`] type as the live cache.
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.slot.frozen_delta()
    }

    /// Bytes currently held by this engine's **governed** memory: its two
    /// subset stores, the live lazy cache plus the frozen-overflow delta.
    /// (The per-state buffers and the DAG arenas are per-document working
    /// memory, not governed.)
    pub fn governed_bytes(&self) -> usize {
        self.slot.governed_bytes()
    }

    /// Sheds this engine's governed memory for the global governor
    /// (severity 1 of the shedding ladder): drops the lazy cache and sheds
    /// the frozen delta. Returns the bytes freed. The engine stays fully
    /// usable and its results unchanged.
    pub fn shed_cold_memory(&mut self) -> usize {
        self.slot.shed()
    }

    /// Current capacity of the per-state value vector.
    pub(crate) fn values_capacity(&self) -> usize {
        self.run.values.capacity()
    }

    /// Runs Algorithm 1 over `doc` through `target`, stepping lazy automata
    /// through this engine's cache slot.
    pub(crate) fn drive(
        &mut self,
        target: Target<'_>,
        doc: &Document,
    ) -> Result<A::Output, SpannerError> {
        let run = &mut self.run;
        match target {
            Target::Eager(det) => run.drive(&mut &*det, doc, None::<NoTrace<A::Value>>),
            Target::Lazy(aut, base) => self.slot.with_stepper(aut, base, |stepper| {
                run.drive(stepper, doc, None::<NoTrace<A::Value>>)
            }),
        }
    }

    /// [`Driver::drive`] over an eager automaton with the per-byte loop,
    /// calling `trace` after every phase with the state values.
    pub(crate) fn drive_traced(
        &mut self,
        aut: &DetSeva,
        doc: &Document,
        trace: impl FnMut(Stage, usize, &[A::Value]),
    ) -> Result<A::Output, SpannerError> {
        self.run.drive(&mut &*aut, doc, Some(trace))
    }
}

impl<A: Accumulator> Run<A> {
    /// The core of Algorithm 1, generic over the eager/lazy [`Stepper`] seam
    /// and the accumulator.
    ///
    /// Traced runs always use the per-byte loop: a trace records the state
    /// values after *every* `Capturing`/`Reading` phase, which requires
    /// per-position granularity the skipping loop deliberately elides.
    ///
    /// Fails when a configured [`EvalLimits`] trips or the accumulator
    /// fails; the partial run is then abandoned (the next run resets all
    /// state, so the engine stays reusable).
    // Out of line: inlined into `Driver::view`, the eager E12 rows measured
    // up to 20% slower.
    #[inline(never)]
    fn drive<S: Stepper, T: FnMut(Stage, usize, &[A::Value])>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        trace: Option<T>,
    ) -> Result<A::Output, SpannerError> {
        self.checker = LimitChecker::start(&self.limits);
        let n_states = aut.state_bound();
        // Reset retained storage without releasing capacity. A lazy stepper
        // may discover states past `n_states` mid-document; `ensure_state`
        // grows the per-state storage on demand.
        self.values.clear();
        self.values.resize(n_states, A::empty());
        self.old.clear();
        self.old.resize(n_states, A::empty());
        self.active.reset(n_states);
        self.next_active.reset(n_states);
        let start = self.acc.begin();
        let init = aut.start_state();
        self.ensure_state(init);
        self.values[init] = start;
        self.active.insert(init);

        if self.mode == EngineMode::PerByte || trace.is_some() {
            self.run_per_byte(aut, doc, trace)?;
        } else {
            self.run_skip_scan(aut, doc)?;
        }

        let values = &self.values;
        let finals = self
            .active
            .as_slice()
            .iter()
            .map(|&q| q as usize)
            .filter(|&q| aut.is_final(q))
            .map(|q| (q, &values[q]));
        self.acc.finish(finals)
    }

    /// The classic byte-at-a-time sparse loop (the reference engine and the
    /// per-position backend of traced runs).
    // Out of line, so the reference loop's code does not move with what
    // `drive` inlines; inlined, the E12 per-byte rows measured slower.
    #[inline(never)]
    fn run_per_byte<S: Stepper, T: FnMut(Stage, usize, &[A::Value])>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        mut trace: Option<T>,
    ) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        for i in 0..=bytes.len() {
            self.checker.tick()?;
            self.maintenance_point(aut)?;
            self.capture_phase(aut, i)?;
            if let Some(t) = trace.as_mut() {
                t(Stage::Capturing, i, &self.values);
            }
            if i == bytes.len() {
                break;
            }
            self.read_phase(aut, aut.byte_class(bytes[i]))?;
            if let Some(t) = trace.as_mut() {
                t(Stage::Reading, i, &self.values);
            }
        }
        Ok(())
    }

    /// The skip-mask scanning loop ([`EngineMode::SkipScan`]): maintain the
    /// active set's skippable classes as one intersected mask and jump
    /// straight to the next *interesting* byte.
    ///
    /// Per executed position this costs what the per-byte loop costs; per
    /// *skippable* stretch it costs one [`crate::find_next_interesting`]
    /// call, whose vectorised 64-byte strides stop at the stretch's end.
    /// The mask is rebuilt only when the active set changes, and the
    /// byte-level interest set only when a skip actually happens, so dense
    /// regions never pay for either.
    ///
    /// A byte is skipped either because its class is in the mask — which,
    /// by the [`Stepper::skip_mask`] contract, means every live state has a
    /// *memoized* skippable entry for it — or because the all-live-states
    /// [`Stepper::run_skippable`] test just succeeded.
    fn run_skip_scan<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
    ) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        self.scanner.reset();
        let mut i = 0usize;
        while i < bytes.len() {
            if aut.wants_maintenance() {
                // Eviction rewrites state ids and forgets memoized skip
                // entries: every cached view is stale.
                self.maintenance_point(aut)?;
                self.scanner.reset();
            }
            let cls = aut.byte_class(bytes[i]);
            if self.scanner.should_skip(aut, self.active.as_slice(), cls) {
                // Skipped stretches cost no step fuel; the scan that finds
                // the next interesting byte amortizes one clock check.
                self.checker.tick_jump()?;
                match self.scanner.next_interesting(aut.partition(), bytes, i + 1) {
                    Some(j) => i = j,
                    None => break,
                }
                continue;
            }
            self.checker.tick()?;
            self.capture_phase(aut, i)?;
            self.read_phase(aut, cls)?;
            self.scanner.executed();
            i += 1;
            if self.active.is_empty() {
                // No live runs, no future output: the rest of the document
                // is vacuously skippable.
                break;
            }
        }
        self.maintenance_point(aut)?;
        self.capture_phase(aut, doc.len())
    }

    /// Grows the per-state storage to cover state id `q` — a no-op for eager
    /// automata, whose state space is fixed, and an amortized bump when a
    /// lazy automaton interns fresh subsets.
    #[inline(always)]
    fn ensure_state(&mut self, q: usize) {
        if q >= self.values.len() {
            let n = q + 1;
            self.values.resize(n, A::empty());
            self.old.resize(n, A::empty());
            self.active.grow(n);
            self.next_active.grow(n);
        }
    }

    /// Once-per-position cache-budget hook: when a lazy stepper reports it
    /// is over budget, hand it the live state ids, let it clear-and-restart,
    /// and remap the per-state values onto the rewritten ids. Free for eager
    /// automata (`wants_maintenance` is a constant `false`). Each performed
    /// eviction feeds the thrash guard, whose verdict is returned only after
    /// the remap completes — the invariants hold even on the error path.
    #[inline(always)]
    fn maintenance_point<S: Stepper>(&mut self, aut: &mut S) -> Result<(), SpannerError> {
        if !aut.wants_maintenance() {
            return Ok(());
        }
        // Save the live values in active order and clear the old slots
        // before any new id is written (old and new id ranges overlap).
        let mut ids = std::mem::take(&mut self.maint_ids);
        let mut saved = std::mem::take(&mut self.maint_values);
        ids.clear();
        ids.extend_from_slice(self.active.as_slice());
        saved.clear();
        for &q in &ids {
            saved.push(std::mem::replace(&mut self.values[q as usize], A::empty()));
        }
        let mut verdict = Ok(());
        let evicted = aut.maintain(&mut ids);
        if evicted {
            verdict = self.checker.note_clear();
            self.active.clear();
        }
        for (&q, value) in ids.iter().zip(saved.drain(..)) {
            let q = q as usize;
            if evicted {
                self.ensure_state(q);
                self.active.insert(q);
            }
            self.values[q] = value;
        }
        self.maint_ids = ids;
        self.maint_values = saved;
        verdict
    }

    /// `Capturing(i)`: the extended variable transitions taken immediately
    /// before letter `i`, from the values of the phase-start active states.
    #[inline(always)]
    fn capture_phase<S: Stepper>(&mut self, aut: &mut S, i: usize) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.values[q].clone();
        }
        for idx in 0..live {
            let q = self.active.get(idx);
            if !aut.has_markers(q) {
                continue;
            }
            for &(markers, p) in aut.markers_from(q) {
                self.ensure_state(p);
                let fresh = self.active.insert(p);
                self.acc.capture(&mut self.values[p], fresh, &self.old[q], markers, i)?;
            }
        }
        Ok(())
    }

    /// `Reading(i)`: the letter transition on the byte whose alphabet class
    /// is `cls`.
    #[inline(always)]
    fn read_phase<S: Stepper>(&mut self, aut: &mut S, cls: usize) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = std::mem::replace(&mut self.values[q], A::empty());
        }
        self.next_active.clear();
        for idx in 0..live {
            let q = self.active.get(idx);
            if let Some(p) = aut.step_class(q, cls) {
                self.ensure_state(p);
                let fresh = self.next_active.insert(p);
                self.acc.read(&mut self.values[p], fresh, &self.old[q])?;
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        Ok(())
    }
}
