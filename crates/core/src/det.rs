//! Deterministic sequential extended VA in an evaluation-friendly layout.
//!
//! The constant-delay algorithm of Section 3.2 requires its input automaton to
//! be a *deterministic* and *sequential* extended VA. [`DetSeva`] is a compiled
//! form of such an automaton optimised for the two inner loops of Algorithm 1:
//!
//! * `Reading(i)` needs `δ(q, a_i)` — provided by a dense
//!   `state × alphabet-class → state` table (bytes are first mapped to the
//!   automaton's alphabet equivalence classes);
//! * `Capturing(i)` needs `Markers_δ(q)` together with the target of each
//!   marker set — provided as a per-state slice of `(MarkerSet, target)` pairs.

use crate::byteclass::{find_next_interesting, AlphabetPartition, ClassMask, InterestMask};
use crate::document::Document;
use crate::error::SpannerError;
use crate::eva::{Eva, StateId};
use crate::markerset::MarkerSet;
use crate::sparse::SparseSet;
use crate::variable::VarRegistry;

/// Sentinel for "no transition" in the dense letter table.
const NO_STATE: u32 = u32::MAX;

/// A compiled deterministic sequential extended VA.
///
/// Build one with [`DetSeva::compile`] (validates determinism and
/// sequentiality) or [`DetSeva::compile_trusted`] (validates only determinism;
/// use when sequentiality is guaranteed by construction, e.g. for automata
/// produced by the translations of Section 4).
#[derive(Debug, Clone)]
pub struct DetSeva {
    registry: VarRegistry,
    num_states: usize,
    initial: StateId,
    finals: Vec<bool>,
    partition: AlphabetPartition,
    /// `letter_table[row_base[q] + class]` is the target state or `NO_STATE`.
    letter_table: Vec<u32>,
    /// Premultiplied row strides: `row_base[q] = q × num_classes`, so the
    /// `Reading` inner loop performs a single add instead of a multiply.
    row_base: Vec<u32>,
    /// `Markers_δ(q)` with targets, flattened CSR-style: the transitions of
    /// state `q` are `var_pairs[var_offsets[q] .. var_offsets[q + 1]]`. One
    /// flat arena keeps the `Capturing` loop a contiguous slice walk instead
    /// of a pointer chase through per-state `Vec`s.
    var_offsets: Vec<u32>,
    /// The flat `(MarkerSet, target)` arena indexed by [`DetSeva::var_offsets`].
    var_pairs: Vec<(MarkerSet, StateId)>,
    /// Whether `Markers_δ(q)` is non-empty, one flag per state (the
    /// common-case filter of the `Capturing` loop, precomputed at compile
    /// time so the hot loops do one load instead of two offset compares).
    has_markers: Vec<bool>,
    /// `skip_table[row_base[q] + cls]`: whether a `(Capturing; Reading)` step
    /// on class `cls` is a no-op for a run living in `q` — `q` self-loops on
    /// `cls` and every extended variable transition of `q` targets a state
    /// with no letter transition on `cls`. See [`DetSeva::run_skippable`].
    skip_table: Vec<bool>,
    /// The same skip metadata as a per-state class bitset: bit `cls` of
    /// `skip_masks[q]` equals `skip_table[row_base[q] + cls]`. The scanning
    /// fast path intersects these across the live states, collapsing the
    /// per-run all-skippable test to one AND per surviving state.
    skip_masks: Vec<ClassMask>,
    /// Number of variables of the underlying registry.
    num_vars: usize,
    /// Size measure `|A|` of the source automaton (states + transitions).
    source_size: usize,
    /// Process-unique identity, drawn from the same counter as lazy-automaton
    /// and frozen-snapshot ids — the SLP memo tables key their rows by it.
    id: u64,
}

impl DetSeva {
    /// Compiles a deterministic **and** sequential eVA.
    ///
    /// Returns [`SpannerError::NotDeterministic`] or
    /// [`SpannerError::NotSequential`] if the input violates either property.
    /// The sequentiality check explores reachable variable configurations and
    /// can be expensive for automata with many variables; prefer
    /// [`DetSeva::compile_trusted`] when sequentiality is known by construction.
    pub fn compile(eva: &Eva) -> Result<Self, SpannerError> {
        eva.check_sequential()?;
        Self::compile_trusted(eva)
    }

    /// Compiles a deterministic eVA, trusting the caller that it is sequential.
    ///
    /// Determinism is always verified because Algorithm 1 silently produces
    /// duplicate outputs on non-deterministic input, which would violate the
    /// enumeration contract.
    pub fn compile_trusted(eva: &Eva) -> Result<Self, SpannerError> {
        eva.check_deterministic()?;
        let classes = eva.letter_classes();
        let partition = AlphabetPartition::from_classes(classes.iter());
        let ncls = partition.num_classes();
        let n = eva.num_states();
        // Reject hostile sizes *before* allocating the dense table: offsets
        // into it (and the premultiplied row bases) are u32, so a state/class
        // product past u32::MAX would corrupt lookups in release builds.
        // checked_mul, not saturating_mul: on 32-bit targets saturation stops
        // at usize::MAX == u32::MAX and the guard could never fire.
        if n.checked_mul(ncls).is_none_or(|p| p > u32::MAX as usize) {
            return Err(SpannerError::BudgetExceeded {
                what: "deterministic letter table (states × alphabet classes)",
                limit: u32::MAX as usize,
            });
        }
        let mut letter_table = vec![NO_STATE; n * ncls];
        for (q, t) in eva.all_letter_transitions() {
            for cls in partition.classes_intersecting(&t.class) {
                let slot = &mut letter_table[q * ncls + cls];
                debug_assert!(
                    *slot == NO_STATE || *slot == t.target as u32,
                    "determinism check should have rejected overlapping classes"
                );
                *slot = t.target as u32;
            }
        }
        let row_base: Vec<u32> = (0..n).map(|q| (q * ncls) as u32).collect();
        let mut var_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut var_pairs: Vec<(MarkerSet, StateId)> = Vec::new();
        var_offsets.push(0);
        for q in 0..n {
            var_pairs.extend(eva.var_transitions(q).iter().map(|t| (t.markers, t.target)));
            if var_pairs.len() > u32::MAX as usize {
                return Err(SpannerError::BudgetExceeded {
                    what: "extended variable transition arena",
                    limit: u32::MAX as usize,
                });
            }
            var_offsets.push(var_pairs.len() as u32);
        }
        let has_markers: Vec<bool> = (0..n).map(|q| var_offsets[q] != var_offsets[q + 1]).collect();
        // Per-(state, class) fast-path test for the run-skipping engines:
        // a `(Capturing; Reading)` step on class `cls` leaves the per-state
        // lists/counts and the active set unchanged — and creates only
        // DAG nodes unreachable from any root — iff the state self-loops on
        // `cls` and every one of its marker targets dies on `cls`. (A marker
        // target can never be another live self-looping state: it has no
        // `cls` transition while every live state loops on `cls`.)
        let mut skip_table = vec![false; n * ncls];
        let mut skip_masks = vec![ClassMask::empty(); n];
        for q in 0..n {
            let pairs = &var_pairs[var_offsets[q] as usize..var_offsets[q + 1] as usize];
            for cls in 0..ncls {
                let skip = letter_table[q * ncls + cls] == q as u32
                    && pairs.iter().all(|&(_, p)| letter_table[p * ncls + cls] == NO_STATE);
                skip_table[q * ncls + cls] = skip;
                if skip {
                    skip_masks[q].insert(cls);
                }
            }
        }
        Ok(DetSeva {
            registry: eva.registry().clone(),
            num_states: n,
            initial: eva.initial(),
            finals: (0..n).map(|q| eva.is_final(q)).collect(),
            partition,
            letter_table,
            row_base,
            var_offsets,
            var_pairs,
            has_markers,
            skip_table,
            skip_masks,
            num_vars: eva.registry().len(),
            source_size: eva.size(),
            id: crate::lazy::next_engine_id(),
        })
    }

    /// The variable registry naming the capture variables.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Process-unique identity of this compiled automaton (shared id space
    /// with lazy automata and frozen snapshots; keys the SLP memo tables).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of capture variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `q` is final.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q]
    }

    /// All final states.
    pub fn final_states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.num_states).filter(|&q| self.finals[q])
    }

    /// The deterministic letter transition `δ(q, byte)`, if defined.
    #[inline]
    pub fn step_letter(&self, q: StateId, byte: u8) -> Option<StateId> {
        let cls = self.partition.class_of(byte);
        let t = self.letter_table[self.row_base[q] as usize + cls];
        if t == NO_STATE {
            None
        } else {
            Some(t as usize)
        }
    }

    /// Like [`DetSeva::step_letter`] but on a pre-resolved alphabet class,
    /// letting the evaluation loop hoist `class_of(byte)` out of the per-state
    /// scan (one table lookup per byte instead of one per live state).
    #[inline]
    pub fn step_class(&self, q: StateId, cls: usize) -> Option<StateId> {
        let t = self.letter_table[self.row_base[q] as usize + cls];
        if t == NO_STATE {
            None
        } else {
            Some(t as usize)
        }
    }

    /// Maps a byte to its alphabet equivalence class (for [`DetSeva::step_class`]).
    #[inline]
    pub fn byte_class(&self, byte: u8) -> usize {
        self.partition.class_of(byte)
    }

    /// The alphabet equivalence-class partition of the compiled letter table.
    #[inline]
    pub fn partition(&self) -> &AlphabetPartition {
        &self.partition
    }

    /// Whether a `(Capturing; Reading)` evaluation step on alphabet class
    /// `cls` is a **no-op** for a run currently in state `q`:
    ///
    /// * `δ(q, cls) = q` (the state self-loops, so `Reading` moves `q`'s
    ///   list/count onto itself unchanged), and
    /// * every extended variable transition of `q` targets a state with no
    ///   letter transition on `cls` (so anything `Capturing` creates is wiped
    ///   by the following `Reading` before it can reach an output).
    ///
    /// When this holds for *every* live state, an entire run of `cls`-class
    /// bytes can be consumed in one step: lists, counts, the active set and
    /// every enumerable output are provably identical to the per-byte walk.
    /// Precomputed at compile time from the letter table; one flat load.
    #[inline]
    pub fn run_skippable(&self, q: StateId, cls: usize) -> bool {
        self.skip_table[self.row_base[q] as usize + cls]
    }

    /// All classes on which a `(Capturing; Reading)` step is a no-op for a
    /// run living in `q`, as one precomputed bitset — the per-state input of
    /// the skip-mask scanning engine (bit `cls` ⇔
    /// [`DetSeva::run_skippable`]`(q, cls)`).
    #[inline]
    pub fn skip_mask(&self, q: StateId) -> ClassMask {
        self.skip_masks[q]
    }

    /// The extended variable transitions `Markers_δ(q)` (with their targets),
    /// as one contiguous slice of the flat CSR arena.
    #[inline]
    pub fn markers_from(&self, q: StateId) -> &[(MarkerSet, StateId)] {
        &self.var_pairs[self.var_offsets[q] as usize..self.var_offsets[q + 1] as usize]
    }

    /// Whether `Markers_δ(q)` is non-empty (one precomputed load — the
    /// common-case filter of the `Capturing` loop).
    #[inline]
    pub fn has_markers(&self, q: StateId) -> bool {
        self.has_markers[q]
    }

    /// Total number of extended variable transitions across all states.
    pub fn num_var_transitions(&self) -> usize {
        self.var_pairs.len()
    }

    /// Number of alphabet equivalence classes of the compiled letter table.
    pub fn num_alphabet_classes(&self) -> usize {
        self.partition.num_classes()
    }

    /// The paper's size measure `|A|` of the source automaton.
    pub fn source_size(&self) -> usize {
        self.source_size
    }

    /// Runs the letter/marker transition relation over `doc` without producing
    /// output, returning whether the document is *accepted* (i.e. whether
    /// `⟦A⟧(d)` is non-empty). Linear time, used as a cheap pre-check.
    /// One definition of the acceptance loop exists — `accepts_generic` —
    /// shared with the lazy engine through the zero-cost `&DetSeva` shim.
    pub fn accepts(&self, doc: &Document) -> bool {
        let mut stepper: &DetSeva = self;
        accepts_generic(&mut stepper, doc)
    }
}

/// The transition interface the evaluation engines (Algorithms 1 and 3) are
/// generic over — the seam between the *eager* [`DetSeva`] and the *lazy*
/// hybrid determinization of [`crate::lazy::LazyDetSeva`], whose one
/// [`crate::lazy::LazyStepper`] steps a [`crate::lazy::LazyCache`] either
/// live or over a [`crate::lazy::FrozenCache`] snapshot shared read-only
/// across the workers of the parallel batch runtime (each worker's store
/// then holds only its private overflow, a [`crate::lazy::FrozenDelta`]).
///
/// All stepping methods take `&mut self` because a lazy implementation fills
/// transition-table rows (and interns freshly discovered subset states) the
/// first time they are asked for; the eager implementation on `&DetSeva` is a
/// zero-cost forwarding shim. The contract mirrors `DetSeva`'s inherent
/// methods, plus two cache-management hooks:
///
/// * **growing state space** — state ids handed out by `step_class` /
///   `markers_from` may exceed [`Stepper::state_bound`] as observed at the
///   start of evaluation; engines must grow their dense per-state storage on
///   demand;
/// * **clear-and-restart eviction** — when [`Stepper::wants_maintenance`]
///   reports the cache is over budget, the engine calls
///   [`Stepper::maintain`] with its live state ids; the implementation may
///   then clear the cache, re-intern exactly those states, and rewrite each
///   id in place (order preserved). The engine remaps its own per-state
///   structures afterwards. Between maintenance points ids are stable. An
///   implementation may also rewrite only a *suffix* of the id space — the
///   frozen/delta split evicts delta-local ids while the shared frozen ids
///   below them stay fixed; the engines' remap protocol handles both.
pub trait Stepper {
    /// Current upper bound on state ids (may grow during evaluation for a
    /// lazy implementation; fixed for an eager one).
    fn state_bound(&self) -> usize;

    /// The initial state, interning it first if necessary.
    fn start_state(&mut self) -> StateId;

    /// Whether `q` is a final state.
    fn is_final(&self, q: StateId) -> bool;

    /// Maps a byte to its alphabet equivalence class.
    fn byte_class(&self, byte: u8) -> usize;

    /// The alphabet equivalence-class partition backing
    /// [`Stepper::byte_class`]. The scanning fast path uses it to turn the
    /// active set's skippable-class mask into a byte-level interest table
    /// (see [`crate::byteclass::AlphabetPartition::interest_mask_into`]).
    fn partition(&self) -> &AlphabetPartition;

    /// The deterministic letter transition on alphabet class `cls`.
    fn step_class(&mut self, q: StateId, cls: usize) -> Option<StateId>;

    /// Whether `Markers_δ(q)` is non-empty.
    fn has_markers(&mut self, q: StateId) -> bool;

    /// The extended variable transitions `Markers_δ(q)` with their targets.
    fn markers_from(&mut self, q: StateId) -> &[(MarkerSet, StateId)];

    /// Whether a `(Capturing; Reading)` step on class `cls` is a no-op for a
    /// run living in `q` (see [`DetSeva::run_skippable`]).
    fn run_skippable(&mut self, q: StateId, cls: usize) -> bool;

    /// The classes **known** to be skippable for runs living in `q`, as one
    /// bitset. The contract is conservative: a set bit must mean
    /// [`Stepper::run_skippable`]`(q, cls)` is `true`, but an implementation
    /// may under-approximate — a clear bit means "not skippable *or* not yet
    /// computed", and the engines fall back to the per-class predicate for
    /// those. The eager implementation returns the exact compile-time mask; a
    /// lazy one returns exactly its memoized-yes entries, so a set bit is
    /// always a [`Stepper::run_skippable`] answer already computed. This is
    /// a pure read: it must never fill rows or
    /// intern states.
    fn skip_mask(&mut self, q: StateId) -> ClassMask;

    /// Whether the implementation wants a [`Stepper::maintain`] call at the
    /// next safe point (i.e. its cache exceeded the configured budget).
    /// Engines check this once per executed document position.
    #[inline]
    fn wants_maintenance(&self) -> bool {
        false
    }

    /// Clear-and-restart eviction hook. `live` holds the engine's live state
    /// ids; on eviction the implementation re-interns exactly those states
    /// into the fresh cache and rewrites each id in place (order preserved),
    /// returning `true` so the engine can remap its per-state structures.
    /// Returning `false` means ids were left untouched.
    #[inline]
    fn maintain(&mut self, live: &mut [u32]) -> bool {
        let _ = live;
        false
    }
}

/// The eager engine: a compiled [`DetSeva`] is a `Stepper` whose every lookup
/// is a precomputed flat load and whose cache hooks are no-ops (the dense
/// tables are immutable, so the `&mut` receivers never mutate).
impl Stepper for &DetSeva {
    #[inline]
    fn state_bound(&self) -> usize {
        self.num_states
    }

    #[inline]
    fn start_state(&mut self) -> StateId {
        self.initial
    }

    #[inline]
    fn is_final(&self, q: StateId) -> bool {
        self.finals[q]
    }

    #[inline]
    fn byte_class(&self, byte: u8) -> usize {
        DetSeva::byte_class(self, byte)
    }

    #[inline]
    fn partition(&self) -> &AlphabetPartition {
        DetSeva::partition(self)
    }

    #[inline]
    fn step_class(&mut self, q: StateId, cls: usize) -> Option<StateId> {
        DetSeva::step_class(self, q, cls)
    }

    #[inline]
    fn has_markers(&mut self, q: StateId) -> bool {
        DetSeva::has_markers(self, q)
    }

    #[inline]
    fn markers_from(&mut self, q: StateId) -> &[(MarkerSet, StateId)] {
        DetSeva::markers_from(self, q)
    }

    #[inline]
    fn run_skippable(&mut self, q: StateId, cls: usize) -> bool {
        DetSeva::run_skippable(self, q, cls)
    }

    #[inline]
    fn skip_mask(&mut self, q: StateId) -> ClassMask {
        DetSeva::skip_mask(self, q)
    }
}

/// The cached mask state of one skip-scanning evaluation
/// ([`crate::EngineMode::SkipScan`]), shared by the enumeration and counting
/// engines so the invalidation protocol lives in exactly one place.
///
/// It maintains three caches with distinct lifetimes:
///
/// * the **intersected skippable-class mask** of the live states, valid until
///   the active set changes ([`SkipScanner::executed`]) or state ids move
///   ([`SkipScanner::reset`]);
/// * the **live snapshot** the mask was built for — when the active set
///   cycles back to the same states (the common shape between isolated
///   matches), one slice compare revalidates the mask instead of a rebuild;
///   sound because every bit is a memoized fact about those states that
///   survives until eviction, and eviction resets everything;
/// * the **byte-level interest table**, rebuilt only when the mask actually
///   changed since it was last expanded.
///
/// A byte is skipped either because its class is already in the mask (which,
/// by the [`Stepper::skip_mask`] contract, means every live state has a
/// memoized skippable entry for it) or because the all-live-states
/// [`Stepper::run_skippable`] test just succeeded.
#[derive(Debug, Clone, Default)]
pub(crate) struct SkipScanner {
    mask: ClassMask,
    mask_valid: bool,
    /// The live-state snapshot `mask` was computed for. Retained capacity
    /// across documents, like every other engine buffer.
    live: Vec<u32>,
    interest: InterestMask,
    /// The mask `interest` was expanded from (`None` = never expanded).
    interest_src: Option<ClassMask>,
}

impl SkipScanner {
    /// Drops every cached view. Call at the start of a document and after
    /// any maintenance that may rewrite state ids or forget skip memos.
    pub(crate) fn reset(&mut self) {
        self.mask_valid = false;
        self.interest_src = None;
        self.live.clear();
    }

    /// Invalidates the mask after an executed `(Capturing; Reading)` step:
    /// the active set has (potentially) changed. The interest table stays —
    /// it is keyed on the mask contents, not on validity.
    #[inline]
    pub(crate) fn executed(&mut self) {
        self.mask_valid = false;
    }

    /// Whether the byte class `cls` can be skipped for the given active set:
    /// either the (re)validated mask already contains it, or every live
    /// state passes [`Stepper::run_skippable`] — in which case the newly
    /// learned class is folded into the mask.
    #[inline]
    pub(crate) fn should_skip<S: Stepper>(
        &mut self,
        aut: &mut S,
        active: &[u32],
        cls: usize,
    ) -> bool {
        if self.mask_valid && self.mask.contains(cls) {
            return true;
        }
        if !active.iter().all(|&q| aut.run_skippable(q as usize, cls)) {
            return false;
        }
        // All live states skip this class (vacuously so once the active set
        // is empty). Revalidate the mask: if the active set cycled back to
        // exactly the states the mask was built for, one slice compare
        // replaces the rebuild.
        if !self.mask_valid {
            if self.live.as_slice() != active {
                self.mask = ClassMask::all();
                for &q in active {
                    self.mask.intersect_with(&aut.skip_mask(q as usize));
                }
                self.live.clear();
                self.live.extend_from_slice(active);
            }
            self.mask_valid = true;
        }
        self.mask.insert(cls);
        true
    }

    /// Bulk-scans to the next byte the current mask cannot skip, rebuilding
    /// the byte-level interest table first if the mask changed since its
    /// last expansion. Call only after [`SkipScanner::should_skip`] returned
    /// `true` at the current position.
    #[inline]
    pub(crate) fn next_interesting(
        &mut self,
        partition: &AlphabetPartition,
        bytes: &[u8],
        from: usize,
    ) -> Option<usize> {
        if self.interest_src != Some(self.mask) {
            partition.interest_mask_into(&self.mask, &mut self.interest);
            self.interest_src = Some(self.mask);
        }
        find_next_interesting(bytes, from, &self.interest)
    }
}

/// Runs the letter/marker transition relation of any [`Stepper`] over `doc`
/// without producing output, returning whether the document is accepted.
/// Generic backend of [`DetSeva::accepts`] and
/// [`crate::lazy::LazyDetSeva::accepts`]; honours the maintenance hooks, so a
/// lazy implementation stays within its memory budget here too.
pub(crate) fn accepts_generic<S: Stepper>(aut: &mut S, doc: &Document) -> bool {
    try_accepts_generic(aut, doc, &crate::limits::EvalLimits::none())
        .expect("unlimited acceptance run cannot trip a limit")
}

/// [`accepts_generic`] under per-document [`EvalLimits`](crate::EvalLimits):
/// every position ticks the amortized limit checker, and evictions feed the
/// thrash guard.
pub(crate) fn try_accepts_generic<S: Stepper>(
    aut: &mut S,
    doc: &Document,
    limits: &crate::limits::EvalLimits,
) -> Result<bool, SpannerError> {
    let mut checker = crate::limits::LimitChecker::start(limits);
    let mut live = SparseSet::new(aut.state_bound());
    let mut next = SparseSet::new(aut.state_bound());
    let mut maint: Vec<u32> = Vec::new();
    let init = aut.start_state();
    live.grow(init + 1);
    next.grow(init + 1);
    live.insert(init);
    for &b in doc.bytes() {
        checker.tick()?;
        maintain_set(aut, &mut live, &mut maint, &mut checker)?;
        // Capturing: add the one-step marker successors of the states live at
        // phase start (marker steps do not chain within one position).
        let snapshot = live.len();
        for idx in 0..snapshot {
            let q = live.get(idx);
            for &(_, p) in aut.markers_from(q) {
                live.grow(p + 1);
                live.insert(p);
            }
        }
        // Reading.
        let cls = aut.byte_class(b);
        next.clear();
        for idx in 0..live.len() {
            if let Some(p) = aut.step_class(live.get(idx), cls) {
                next.grow(p + 1);
                next.insert(p);
            }
        }
        std::mem::swap(&mut live, &mut next);
        if live.is_empty() {
            return Ok(false);
        }
    }
    // Final capturing step, then the final check.
    maintain_set(aut, &mut live, &mut maint, &mut checker)?;
    let snapshot = live.len();
    for idx in 0..snapshot {
        let q = live.get(idx);
        for &(_, p) in aut.markers_from(q) {
            live.grow(p + 1);
            live.insert(p);
        }
    }
    let accepted = live.iter().any(|q| aut.is_final(q));
    Ok(accepted)
}

/// Maintenance helper for [`accepts_generic`]: runs the clear-and-restart
/// eviction protocol on a bare live set (no per-state payload to remap),
/// feeding each eviction to the thrash guard.
fn maintain_set<S: Stepper>(
    aut: &mut S,
    live: &mut SparseSet,
    scratch: &mut Vec<u32>,
    checker: &mut crate::limits::LimitChecker,
) -> Result<(), SpannerError> {
    if !aut.wants_maintenance() {
        return Ok(());
    }
    scratch.clear();
    scratch.extend_from_slice(live.as_slice());
    if aut.maintain(scratch) {
        live.clear();
        for &q in scratch.iter() {
            live.grow(q as usize + 1);
            live.insert(q as usize);
        }
        checker.note_clear()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::variable::VarRegistry;

    /// The Figure 3 automaton (copy of the fixture in `eva::tests`).
    fn figure3() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let y = reg.intern("y").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(10);
        b.set_initial(q[0]);
        b.set_final(q[9]);
        let ms = MarkerSet::new;
        b.add_var(q[0], ms().with_open(x), q[1]).unwrap();
        b.add_var(q[0], ms().with_open(y), q[2]).unwrap();
        b.add_var(q[0], ms().with_open(x).with_open(y), q[3]).unwrap();
        b.add_letter(q[3], ByteClass::from_bytes(b"ab"), q[3]);
        b.add_byte(q[1], b'a', q[4]);
        b.add_byte(q[2], b'a', q[5]);
        b.add_var(q[4], ms().with_open(y), q[6]).unwrap();
        b.add_var(q[5], ms().with_open(x), q[7]).unwrap();
        b.add_byte(q[6], b'b', q[8]);
        b.add_byte(q[7], b'b', q[8]);
        b.add_var(q[8], ms().with_close(x).with_close(y), q[9]).unwrap();
        b.add_var(q[3], ms().with_close(x).with_close(y), q[9]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn compile_figure3() {
        let eva = figure3();
        let det = DetSeva::compile(&eva).unwrap();
        assert_eq!(det.num_states(), 10);
        assert_eq!(det.num_vars(), 2);
        assert_eq!(det.initial(), 0);
        assert!(det.is_final(9));
        assert_eq!(det.final_states().collect::<Vec<_>>(), vec![9]);
        assert_eq!(det.source_size(), eva.size());
        // Alphabet classes: 'a', 'b', everything else => 3.
        assert_eq!(det.num_alphabet_classes(), 3);
    }

    #[test]
    fn letter_table_lookup() {
        let det = DetSeva::compile(&figure3()).unwrap();
        assert_eq!(det.step_letter(1, b'a'), Some(4));
        assert_eq!(det.step_letter(1, b'b'), None);
        assert_eq!(det.step_letter(3, b'a'), Some(3));
        assert_eq!(det.step_letter(3, b'b'), Some(3));
        assert_eq!(det.step_letter(3, b'z'), None);
        assert_eq!(det.step_letter(0, b'a'), None);
    }

    #[test]
    fn markers_from_lists() {
        let det = DetSeva::compile(&figure3()).unwrap();
        assert_eq!(det.markers_from(0).len(), 3);
        assert_eq!(det.markers_from(4).len(), 1);
        assert!(det.markers_from(1).is_empty());
        let (s, p) = det.markers_from(8)[0];
        assert_eq!(p, 9);
        assert_eq!(s.closed_vars().len(), 2);
    }

    #[test]
    fn rejects_non_deterministic() {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q1);
        b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q1).unwrap();
        b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q2).unwrap();
        let eva = b.build().unwrap();
        assert!(matches!(DetSeva::compile(&eva), Err(SpannerError::NotDeterministic(_))));
        assert!(matches!(DetSeva::compile_trusted(&eva), Err(SpannerError::NotDeterministic(_))));
    }

    #[test]
    fn rejects_non_sequential() {
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
        assert!(matches!(DetSeva::compile(&eva), Err(SpannerError::NotSequential(_))));
        // compile_trusted skips the sequentiality check by design.
        assert!(DetSeva::compile_trusted(&eva).is_ok());
    }

    #[test]
    fn fast_path_metadata() {
        let det = DetSeva::compile(&figure3()).unwrap();
        assert!(det.has_markers(0));
        assert!(det.has_markers(3));
        assert!(!det.has_markers(1));
        for q in 0..det.num_states() {
            assert_eq!(det.has_markers(q), !det.markers_from(q).is_empty());
        }
        let ca = det.byte_class(b'a');
        let cb = det.byte_class(b'b');
        let cz = det.byte_class(b'z');
        // q3 self-loops on both a and b, and its single marker target q9 has
        // no letter transitions at all: skippable on a/b, not on z (no loop).
        assert!(det.run_skippable(3, ca));
        assert!(det.run_skippable(3, cb));
        assert!(!det.run_skippable(3, cz));
        // q0 has no letter transitions: never skippable.
        assert!(!det.run_skippable(0, ca));
        // q1 steps a → q4 (not a self-loop): not skippable.
        assert!(!det.run_skippable(1, ca));
    }

    #[test]
    fn skip_masks_mirror_the_skip_table() {
        let det = DetSeva::compile(&figure3()).unwrap();
        for q in 0..det.num_states() {
            let mask = det.skip_mask(q);
            for cls in 0..det.num_alphabet_classes() {
                assert_eq!(mask.contains(cls), det.run_skippable(q, cls), "state {q}, class {cls}");
            }
        }
        // q3 skips on the a/b classes only.
        let mask = det.skip_mask(3);
        assert!(mask.contains(det.byte_class(b'a')));
        assert!(mask.contains(det.byte_class(b'b')));
        assert!(!mask.contains(det.byte_class(b'z')));
        assert!(det.skip_mask(0).is_empty());
    }

    #[test]
    fn accepts_matches_naive_nonemptiness() {
        let eva = figure3();
        let det = DetSeva::compile(&eva).unwrap();
        for text in ["ab", "a", "b", "", "ba", "abab", "abc"] {
            let doc = Document::from(text);
            assert_eq!(
                det.accepts(&doc),
                !eva.eval_naive(&doc).is_empty(),
                "acceptance mismatch on {text:?}"
            );
        }
    }
}
