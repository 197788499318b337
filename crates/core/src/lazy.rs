//! Lazy hybrid determinization: subset construction on demand, behind a
//! bounded memory budget (the regex-automata "hybrid" lazy-DFA idiom, adapted
//! to extended VA).
//!
//! [`crate::det::DetSeva`] compiles a *deterministic* automaton into dense
//! tables up front, and the eager subset construction
//! (`spanners_automata::determinize`) that feeds it can blow up exponentially
//! before the first byte of input is read — exactly the cost the
//! constant-delay framework is meant to amortize away. [`LazyDetSeva`] instead
//! keeps the **nondeterministic** (but sequential) eVA in a compact
//! CSR layout and determinizes *during* evaluation:
//!
//! * deterministic states are interned **subset keys** (sorted NFA state
//!   sets) discovered as the document is read;
//! * per-(state, class) letter-table entries and marker-transition CSR rows
//!   are filled the first time they are stepped — including the
//!   `run_skippable` / `has_markers` fast-path metadata, which the eager
//!   compiler precomputes and this cache derives lazily;
//! * everything mutable lives in a [`LazyCache`] governed by a configurable
//!   byte budget ([`LazyConfig`]); when the budget is exceeded the cache is
//!   **evicted**: the evaluation engine's live states are kept (re-interned
//!   or compacted, per [`EvictionPolicy`]) and other states are forgotten,
//!   so memory stays bounded no matter how adversarial the automaton is.
//!
//! The cache plugs into the existing evaluation engines
//! ([`crate::Evaluator`], [`crate::CountCache`]) through the
//! [`crate::det::Stepper`] abstraction, so both the per-byte and the
//! class-run run-skipping fast paths work unchanged on lazily determinized
//! automata. Outputs are byte-for-byte the mappings/counts of the eagerly
//! determinized automaton — determinization (lazy or not) preserves the
//! semantics, and subset states make Algorithm 1 duplicate-free even though
//! the source automaton is nondeterministic.
//!
//! # One subset store over an optional frozen base
//!
//! A [`LazyCache`] is single-threaded — every step may mutate it. For
//! batch/serving workloads where N workers evaluate the *same* spanner over
//! many documents, N live caches would each re-determinize the same subsets:
//! exactly the waste the lazy engine exists to avoid. The frozen/delta split
//! amortizes the work without a second engine:
//!
//! * [`LazyCache::freeze`] clones a warm cache's state arena into a
//!   [`FrozenCache`] — an immutable table of every subset state, transition
//!   row and skip entry discovered so far. A `FrozenCache` is `Send + Sync`
//!   (it has no interior mutability) and is meant to be shared by reference
//!   or `Arc` across worker threads;
//! * each worker steps the snapshot through its own `LazyCache` bound *over*
//!   it ([`FrozenDelta`] names that use of the type). Ids below the
//!   snapshot's state count resolve to the shared arena, read-only; the
//!   store's local arena holds only the overflow — subsets first discovered
//!   after the freeze — and small override maps hold the rows of snapshot
//!   states that were still unknown at freeze time. A live cache is the same
//!   store over an empty base, so interning, row filling, skip metadata, byte
//!   accounting and eviction are each written once;
//! * a store over a snapshot resets (retaining capacity) at the start of each
//!   document, so every evaluation result is a pure function of
//!   `(frozen cache, document)`, independent of which worker ran it or what
//!   it processed before. This is what makes parallel batch output
//!   deterministic and byte-for-byte equal to a single-threaded run over the
//!   same frozen snapshot;
//! * one [`LazyStepper`] drives either use behind the same
//!   [`crate::det::Stepper`] seam the other engines use ([`FrozenStepper`]
//!   is the same type), so frozen evaluation reuses the per-byte and
//!   class-run loops unchanged.
//!
//! A well-chosen freeze point (after warming on representative documents)
//! leaves the delta empty in steady state: stepping is then pure shared-table
//! reads, the per-worker memory cost is a few retained-capacity buffers, and
//! the zero-allocation contract of the warm engines is preserved.

use crate::byteclass::{AlphabetPartition, ClassMask};
use crate::det::{accepts_generic, Stepper};
use crate::document::Document;
use crate::error::SpannerError;
use crate::eva::{Eva, StateId};
use crate::markerset::MarkerSet;
use crate::sparse::SparseSet;
use crate::variable::VarRegistry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no transition" in a lazy letter-table row.
const NO_TARGET: u32 = u32::MAX;
/// Sentinel for "not yet computed" in a lazy letter-table row.
const UNKNOWN: u32 = u32::MAX - 1;
/// Sentinel for "marker row not yet materialized".
const VARS_UNMATERIALIZED: u32 = u32::MAX;
/// Three-valued per-(state, class) skip metadata.
const SKIP_UNKNOWN: u8 = 0;
const SKIP_YES: u8 = 1;
const SKIP_NO: u8 = 2;

/// Monotone source of identities tying a [`LazyCache`] to the [`LazyDetSeva`]
/// whose subset ids it holds (ids from different automata must never mix).
/// [`FrozenCache`] snapshots draw from the same counter: a store bound over a
/// snapshot holds state ids relative to one specific freeze, so snapshots
/// need identities of their own.
static NEXT_SEVA_ID: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh process-unique engine/grammar identity from the shared
/// counter — also used by [`crate::slp::SlpRules`] and the eager
/// [`crate::DetSeva`], whose identities key the SLP memo tables alongside
/// lazy-cache and frozen-snapshot ids (one id space, no collisions).
pub(crate) fn next_engine_id() -> u64 {
    NEXT_SEVA_ID.fetch_add(1, Ordering::Relaxed)
}

/// Capacity snapshot of a [`LazyCache`]'s internal buffers, used by
/// allocation-retention assertions: in steady state — warm cache, no
/// evictions — repeated evaluation must leave the signature unchanged. The
/// `Display` form labels each buffer for bench/diagnostic output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySignature(pub [usize; 10]);

impl fmt::Display for CapacitySignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [keys, offsets, finals, letters, skips, masks, vars, index, slp_counts, slp_sets] =
            self.0;
        write!(
            f,
            "keys={keys} offsets={offsets} finals={finals} letters={letters} \
             skips={skips} masks={masks} vars={vars} index={index} \
             slp_counts={slp_counts} slp_sets={slp_sets}"
        )
    }
}

/// How a live [`LazyCache`] reclaims memory once it exceeds its byte budget.
/// A store bound over a frozen snapshot always clears and restarts (see
/// [`LazyCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Clear-and-restart: forget every interned state except the evaluation
    /// engine's live set and rebuild from scratch. Simple and exact, but a
    /// working set slightly above budget re-determinizes its hottest states
    /// on every clear ([`LazyCache::wasted_states`] measures that waste).
    #[default]
    ClearRestart,
    /// Segmented second-chance: states referenced since the previous eviction
    /// carry a *hot* bit; an eviction keeps the live set plus hot states (in
    /// id order) up to half the byte budget, compacts the survivors in place
    /// (remapping ids and transition targets; rows pointing at evicted states
    /// revert to *unknown*), and clears every hot bit so survivors must be
    /// re-referenced to survive again. Skip metadata is a semantic property
    /// of the surviving subset states, so it is carried over verbatim.
    /// Multi-tenant shared caches want this: one tenant's cold blow-up no
    /// longer wipes the hot states every other tenant is actively using.
    Segmented,
}

/// Configuration of the lazy determinization cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazyConfig {
    /// Approximate byte budget of one [`LazyCache`]. When the cached subset
    /// states, transition rows and interning index exceed this many bytes the
    /// cache is evicted (per [`LazyConfig::eviction`]) at the next document
    /// position. The budget is soft: the working set of a single position is
    /// always admitted, so evaluation makes progress even under absurdly
    /// small budgets (it merely thrashes).
    pub memory_budget: usize,
    /// The eviction policy applied when the budget is exceeded.
    pub eviction: EvictionPolicy,
}

impl LazyConfig {
    /// A config with the given byte budget and the default
    /// ([`EvictionPolicy::ClearRestart`]) eviction policy.
    pub fn with_budget(memory_budget: usize) -> Self {
        LazyConfig { memory_budget, ..LazyConfig::default() }
    }

    /// Builder-style override of the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }
}

impl Default for LazyConfig {
    fn default() -> Self {
        // Matches the regex-automata hybrid default order of magnitude: big
        // enough that realistic spanners never evict, small enough that a
        // pathological blow-up cannot take the process down.
        LazyConfig { memory_budget: 8 * 1024 * 1024, eviction: EvictionPolicy::ClearRestart }
    }
}

/// A sequential (possibly nondeterministic) extended VA prepared for **lazy
/// determinization** — the immutable half of the hybrid engine.
///
/// Construction is linear in the source automaton (no subset construction
/// happens here): the eVA's letter transitions are laid out as a
/// per-(state, alphabet-class) CSR of target lists and its variable
/// transitions as per-state sorted runs, which is exactly what the on-demand
/// subset stepping of [`LazyCache`] consumes. All mutable state lives in the
/// cache, so one `LazyDetSeva` can be shared by many evaluators, each with
/// its own cache (create one with [`LazyDetSeva::create_cache`]).
#[derive(Debug, Clone)]
pub struct LazyDetSeva {
    id: u64,
    registry: VarRegistry,
    partition: AlphabetPartition,
    config: LazyConfig,
    num_nfa_states: usize,
    ncls: usize,
    initial: u32,
    nfa_finals: Vec<bool>,
    /// Letter CSR: targets of NFA state `q` on class `cls` are
    /// `letter_targets[letter_offsets[q*ncls+cls] .. letter_offsets[q*ncls+cls+1]]`.
    letter_offsets: Vec<u32>,
    letter_targets: Vec<u32>,
    /// Variable CSR: `(markers, target)` pairs of NFA state `q`, sorted by
    /// `(markers, target)` so subset grouping is a linear merge.
    var_offsets: Vec<u32>,
    var_pairs: Vec<(MarkerSet, u32)>,
    num_vars: usize,
    source_size: usize,
}

impl LazyDetSeva {
    /// Prepares a sequential eVA for lazy determinization.
    ///
    /// The input may be nondeterministic — that is the point: the subset
    /// construction happens on demand during evaluation instead of up front.
    /// Returns [`SpannerError::NotSequential`] if the automaton is not
    /// sequential (Algorithm 1 requires sequentiality for its outputs to be
    /// exactly the valid runs).
    pub fn new(eva: &Eva, config: LazyConfig) -> Result<Self, SpannerError> {
        eva.check_sequential()?;
        Self::new_trusted(eva, config)
    }

    /// Like [`LazyDetSeva::new`] but trusting the caller that the automaton
    /// is sequential (e.g. guaranteed by construction via the Section 4
    /// translations).
    pub fn new_trusted(eva: &Eva, config: LazyConfig) -> Result<Self, SpannerError> {
        let partition = AlphabetPartition::from_classes(eva.letter_classes().iter());
        let ncls = partition.num_classes();
        let n = eva.num_states();
        // Same hostile-size guard as the eager compiler: CSR offsets are u32.
        if n.checked_mul(ncls).is_none_or(|p| p >= u32::MAX as usize) {
            return Err(SpannerError::BudgetExceeded {
                what: "lazy determinizer letter CSR (states × alphabet classes)",
                limit: u32::MAX as usize,
            });
        }
        // Bucket the letter transitions per (state, class), then flatten.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n * ncls];
        let mut cls_scratch = Vec::new();
        for (q, t) in eva.all_letter_transitions() {
            partition.classes_intersecting_into(&t.class, &mut cls_scratch);
            for &cls in &cls_scratch {
                buckets[q * ncls + cls].push(t.target as u32);
            }
        }
        let mut letter_offsets = Vec::with_capacity(n * ncls + 1);
        let mut letter_targets = Vec::new();
        letter_offsets.push(0);
        for bucket in &mut buckets {
            bucket.sort_unstable();
            bucket.dedup();
            letter_targets.extend_from_slice(bucket);
            if letter_targets.len() > u32::MAX as usize {
                return Err(SpannerError::BudgetExceeded {
                    what: "lazy determinizer letter target arena",
                    limit: u32::MAX as usize,
                });
            }
            letter_offsets.push(letter_targets.len() as u32);
        }
        let mut var_offsets = Vec::with_capacity(n + 1);
        let mut var_pairs: Vec<(MarkerSet, u32)> = Vec::new();
        let mut pair_scratch: Vec<(MarkerSet, u32)> = Vec::new();
        var_offsets.push(0);
        for q in 0..n {
            pair_scratch.clear();
            pair_scratch
                .extend(eva.var_transitions(q).iter().map(|t| (t.markers, t.target as u32)));
            pair_scratch.sort_unstable();
            pair_scratch.dedup();
            var_pairs.extend_from_slice(&pair_scratch);
            if var_pairs.len() > u32::MAX as usize {
                return Err(SpannerError::BudgetExceeded {
                    what: "lazy determinizer variable transition arena",
                    limit: u32::MAX as usize,
                });
            }
            var_offsets.push(var_pairs.len() as u32);
        }
        Ok(LazyDetSeva {
            id: next_engine_id(),
            registry: eva.registry().clone(),
            partition,
            config,
            num_nfa_states: n,
            ncls,
            initial: eva.initial() as u32,
            nfa_finals: (0..n).map(|q| eva.is_final(q)).collect(),
            letter_offsets,
            letter_targets,
            var_offsets,
            var_pairs,
            num_vars: eva.registry().len(),
            source_size: eva.size(),
        })
    }

    /// A unique identity for cache-binding checks (clones share it: they are
    /// the same automaton, so their subset ids are interchangeable).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The variable registry naming the capture variables.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Number of capture variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of states of the underlying nondeterministic eVA.
    #[inline]
    pub fn num_nfa_states(&self) -> usize {
        self.num_nfa_states
    }

    /// Number of alphabet equivalence classes.
    #[inline]
    pub fn num_alphabet_classes(&self) -> usize {
        self.ncls
    }

    /// The configured cache behaviour.
    #[inline]
    pub fn config(&self) -> &LazyConfig {
        &self.config
    }

    /// The paper's size measure `|A|` of the source automaton.
    pub fn source_size(&self) -> usize {
        self.source_size
    }

    /// Creates a cache sized for this automaton. One cache per evaluation
    /// thread; the same cache amortizes determinization across documents.
    pub fn create_cache(&self) -> LazyCache {
        let mut cache = LazyCache::default();
        cache.bind(self);
        cache
    }

    /// Whether the document is accepted (i.e. `⟦A⟧(d)` is non-empty), using
    /// (and lazily extending) `cache`. Linear time, bounded memory.
    pub fn accepts(&self, cache: &mut LazyCache, doc: &Document) -> bool {
        let mut stepper = LazyStepper::new(self, cache);
        accepts_generic(&mut stepper, doc)
    }

    /// NFA letter targets of `q` on alphabet class `cls`.
    #[inline]
    fn letter_targets(&self, q: usize, cls: usize) -> &[u32] {
        let slot = q * self.ncls + cls;
        &self.letter_targets
            [self.letter_offsets[slot] as usize..self.letter_offsets[slot + 1] as usize]
    }

    /// NFA variable transitions of `q`, sorted by `(markers, target)`.
    #[inline]
    fn var_pairs_of(&self, q: usize) -> &[(MarkerSet, u32)] {
        &self.var_pairs[self.var_offsets[q] as usize..self.var_offsets[q + 1] as usize]
    }
}

/// The CSR arena of interned subset states: the one layout shared by a
/// [`LazyCache`]'s local states and a [`FrozenCache`] snapshot (freezing is a
/// clone of it).
#[derive(Debug, Clone)]
struct Arena {
    /// Subset key of state `q`: `keys[key_offsets[q]..key_offsets[q+1]]`
    /// (sorted NFA state ids).
    key_offsets: Vec<u32>,
    keys: Vec<u32>,
    /// Whether the subset contains a final NFA state (known at intern time).
    finals: Vec<bool>,
    /// Lazily materialized marker rows: `var_pairs[var_starts[q]..+var_lens[q]]`,
    /// or `var_starts[q] == VARS_UNMATERIALIZED`.
    var_starts: Vec<u32>,
    var_lens: Vec<u32>,
    /// `letter_rows[q*ncls+cls]`: target id, `NO_TARGET`, or `UNKNOWN`.
    letter_rows: Vec<u32>,
    /// `skip_rows[q*ncls+cls]`: `SKIP_UNKNOWN` / `SKIP_YES` / `SKIP_NO`.
    skip_rows: Vec<u8>,
    /// Per-state skippable-class bitsets mirroring the memoized `SKIP_YES`
    /// entries of `skip_rows` (a clear bit means *unknown or not skippable*).
    /// The scanning engine intersects these across the live states; keeping
    /// only memoized-yes bits means the mask never triggers a computation the
    /// class-run engine would not also perform, so subset interning order is
    /// identical across engine modes.
    skip_masks: Vec<ClassMask>,
    /// Flat arena of materialized det marker rows, sorted by marker set
    /// within each row (deterministic capture order).
    var_pairs: Vec<(MarkerSet, StateId)>,
    /// Subset key → absolute state id.
    index: HashMap<Box<[u32]>, u32>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            key_offsets: vec![0],
            keys: Vec::new(),
            finals: Vec::new(),
            var_starts: Vec::new(),
            var_lens: Vec::new(),
            letter_rows: Vec::new(),
            skip_rows: Vec::new(),
            skip_masks: Vec::new(),
            var_pairs: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl Arena {
    #[inline]
    fn num_states(&self) -> usize {
        self.finals.len()
    }

    #[inline]
    fn key(&self, q: usize) -> &[u32] {
        &self.keys[self.key_offsets[q] as usize..self.key_offsets[q + 1] as usize]
    }

    /// The materialized marker row of `q`, if any.
    #[inline]
    fn marker_row(&self, q: usize) -> Option<&[(MarkerSet, StateId)]> {
        let start = self.var_starts[q];
        (start != VARS_UNMATERIALIZED)
            .then(|| &self.var_pairs[start as usize..(start + self.var_lens[q]) as usize])
    }

    /// Appends a fresh state with absolute id `id`: rows unknown, marker row
    /// unmaterialized, mask empty.
    fn push(&mut self, key: &[u32], id: u32, is_final: bool, ncls: usize) {
        self.keys.extend_from_slice(key);
        self.key_offsets.push(self.keys.len() as u32);
        self.finals.push(is_final);
        self.var_starts.push(VARS_UNMATERIALIZED);
        self.var_lens.push(0);
        self.letter_rows.resize(self.letter_rows.len() + ncls, UNKNOWN);
        self.skip_rows.resize(self.skip_rows.len() + ncls, SKIP_UNKNOWN);
        self.skip_masks.push(ClassMask::empty());
        self.index.insert(key.into(), id);
    }

    /// Appends the states of `other`, whose absolute ids already continue
    /// this arena's (a store's local states over this snapshot), so rows and
    /// index entries stay valid without rewriting.
    fn append(&mut self, other: &Arena) {
        let (keys, pairs) = (self.keys.len() as u32, self.var_pairs.len() as u32);
        self.key_offsets.extend(other.key_offsets[1..].iter().map(|&o| o + keys));
        self.keys.extend_from_slice(&other.keys);
        self.finals.extend_from_slice(&other.finals);
        self.var_starts.extend(other.var_starts.iter().map(|&s| {
            if s == VARS_UNMATERIALIZED {
                s
            } else {
                s + pairs
            }
        }));
        self.var_lens.extend_from_slice(&other.var_lens);
        self.letter_rows.extend_from_slice(&other.letter_rows);
        self.skip_rows.extend_from_slice(&other.skip_rows);
        self.skip_masks.extend_from_slice(&other.skip_masks);
        self.var_pairs.extend_from_slice(&other.var_pairs);
        self.index.extend(other.index.iter().map(|(key, &id)| (key.clone(), id)));
    }

    /// Drops every state and row, keeping allocated capacity.
    fn clear(&mut self) {
        self.key_offsets.clear();
        self.key_offsets.push(0);
        self.keys.clear();
        self.finals.clear();
        self.var_starts.clear();
        self.var_lens.clear();
        self.letter_rows.clear();
        self.skip_rows.clear();
        self.skip_masks.clear();
        self.var_pairs.clear();
        self.index.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.key_offsets.shrink_to_fit();
        self.keys.shrink_to_fit();
        self.finals.shrink_to_fit();
        self.var_starts.shrink_to_fit();
        self.var_lens.shrink_to_fit();
        self.letter_rows.shrink_to_fit();
        self.skip_rows.shrink_to_fit();
        self.skip_masks.shrink_to_fit();
        self.var_pairs.shrink_to_fit();
        self.index.shrink_to_fit();
    }
}

/// The empty base a live cache is stepped over.
fn empty_arena() -> &'static Arena {
    static EMPTY: OnceLock<Arena> = OnceLock::new();
    EMPTY.get_or_init(Arena::default)
}

/// The subset key of state `q` of a store whose first `nb` ids live in `base`.
#[inline]
fn key_of<'s>(local: &'s Arena, base: &'s Arena, nb: usize, q: usize) -> &'s [u32] {
    if q < nb {
        base.key(q)
    } else {
        local.key(q - nb)
    }
}

/// Approximate bytes of one hash-map override entry of a store over a
/// snapshot (key + value + bucket overhead) — the override analogue of the
/// index-entry share of [`LazyCache::state_cost`].
const OVERRIDE_COST: usize = 24;

/// Entries a store over a snapshot computed for *base* states whose slot was
/// still unknown at freeze time (the shared snapshot is immutable). Always
/// empty on a live cache.
#[derive(Debug, Clone, Default)]
struct Overrides {
    /// Letter-row slot `q*ncls+cls` → target id or `NO_TARGET`.
    letter: HashMap<u32, u32>,
    /// Skip slot `q*ncls+cls` → skippable.
    skip: HashMap<u32, bool>,
    /// Base state → `(start, len)` of its marker row in the local arena.
    var: HashMap<u32, (u32, u32)>,
    /// Base states whose skippable-class mask grew after the freeze, seeded
    /// from the snapshot's mask.
    mask: HashMap<u32, ClassMask>,
}

impl Overrides {
    fn clear(&mut self) {
        self.letter.clear();
        self.skip.clear();
        self.var.clear();
        self.mask.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.letter.shrink_to_fit();
        self.skip.shrink_to_fit();
        self.var.shrink_to_fit();
        self.mask.shrink_to_fit();
    }

    /// Folds the overrides into `arena`, a copy of the snapshot they were
    /// computed over, ahead of appending the store's local arena to it.
    fn fold_into(&self, arena: &mut Arena) {
        let pairs = arena.var_pairs.len() as u32;
        for (&slot, &t) in &self.letter {
            arena.letter_rows[slot as usize] = t;
        }
        for (&slot, &s) in &self.skip {
            arena.skip_rows[slot as usize] = if s { SKIP_YES } else { SKIP_NO };
        }
        // Mask overrides were seeded from the frozen mask, so replacing (not
        // or-ing) carries every memoized bit forward.
        for (&q, &m) in &self.mask {
            arena.skip_masks[q as usize] = m;
        }
        for (&q, &(start, len)) in &self.var {
            arena.var_starts[q as usize] = start + pairs;
            arena.var_lens[q as usize] = len;
        }
    }
}

/// The mutable half of the hybrid engine — the one subset store: interned
/// subset states, lazily filled transition rows, and the byte budget
/// governing them, stepped over an optional read-only [`FrozenCache`] base.
///
/// * **Live** (bound with [`LazyCache::bind`], stepped by
///   [`LazyStepper::new`]): the base is empty and every state is local. The
///   cache is retained across documents and evicts per the automaton's
///   [`EvictionPolicy`].
/// * **Over a snapshot** (a [`FrozenDelta`], from
///   [`FrozenCache::create_delta`], stepped by [`LazyStepper::over`]): ids
///   below [`FrozenCache::num_states`] resolve to the shared snapshot, local
///   states — subsets absent from it — take ids from there on, and unknown
///   snapshot slots (letter, skip, marker row, mask) are filled into small
///   override maps. The store resets at the start of every document
///   (capacity retained), so a result — enumeration order included — is a
///   pure function of the snapshot and the document; its budget evictions
///   clear and restart the local states only, so frozen ids never move.
///
/// A store belongs to exactly one automaton (and snapshot) at a time; it
/// rebinds — discarding its contents — when used with another. All storage
/// is retained across documents and evictions, so a **warm store performs
/// no heap allocation on hits**: stepping an already-filled row is one flat
/// load, exactly like the eager tables.
#[derive(Debug, Clone, Default)]
pub struct LazyCache {
    /// The automaton the store is bound to (zero when unbound).
    seva_id: u64,
    /// The snapshot the store is bound over (zero for a live cache).
    snapshot_id: u64,
    /// Number of base states: local state `l` has the absolute id `base + l`.
    base: u32,
    ncls: usize,
    budget: usize,
    policy: EvictionPolicy,
    local: Arena,
    overrides: Overrides,
    /// Second-chance reference bits of the local states: `hot[q]` is set
    /// when `q` is stepped and cleared on eviction, so
    /// [`EvictionPolicy::Segmented`] keeps exactly the states referenced
    /// since the previous eviction.
    hot: Vec<bool>,
    /// Approximate bytes held by local states, rows, index entries and
    /// overrides.
    bytes: usize,
    clears: u64,
    states_interned: u64,
    // Reusable scratch (retained like everything else).
    set_scratch: SparseSet,
    key_scratch: Vec<u32>,
    group_scratch: Vec<(MarkerSet, u32)>,
    row_scratch: Vec<(MarkerSet, StateId)>,
    target_scratch: Vec<u32>,
    evict_keys: Vec<u32>,
    evict_offsets: Vec<u32>,
    evict_remap: Vec<u32>,
    evict_rows: Vec<(MarkerSet, StateId)>,
}

/// A [`LazyCache`] bound over a shared [`FrozenCache`]: one worker's
/// overflow states and row overrides (see [`LazyCache`]).
pub type FrozenDelta = LazyCache;

impl LazyCache {
    /// An unbound store; it binds to the first automaton it is used with.
    pub fn new() -> LazyCache {
        LazyCache::default()
    }

    /// Number of local subset states: every state of a live cache, the
    /// overflow states of a store over a snapshot.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.local.num_states()
    }

    /// Number of *overflow* states of a store over a snapshot (subsets the
    /// snapshot does not cover) — [`LazyCache::num_states`] under the
    /// delta's name. Zero in the steady state of a well-warmed snapshot.
    #[inline]
    pub fn num_overflow_states(&self) -> usize {
        self.num_states()
    }

    /// Identity of the [`FrozenCache`] the store is bound over (zero for a
    /// live or unbound store) — the guard the re-freeze path checks before
    /// merging delta evidence into a new generation.
    #[inline]
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// Approximate bytes currently held by local states, rows, index entries
    /// and overrides.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// How many budget-driven evictions have happened since the store was
    /// bound (per-document resets over a snapshot are not counted).
    #[inline]
    pub fn clear_count(&self) -> u64 {
        self.clears
    }

    /// Total local subset states interned since the store was bound,
    /// including states re-created after evictions and per-document resets —
    /// `states_interned() - num_states()` measures determinization work
    /// wasted to thrashing (or, over a snapshot, left unamortized by it).
    #[inline]
    pub fn states_interned(&self) -> u64 {
        self.states_interned
    }

    /// The byte budget inherited from the bound automaton's [`LazyConfig`].
    #[inline]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Capacity snapshot of every internal buffer, for allocation-retention
    /// assertions (the lazy analogue of the E1b arena-capacity checks): in
    /// steady state — warm store, no evictions — repeated evaluation must
    /// leave this signature unchanged.
    pub fn capacity_signature(&self) -> CapacitySignature {
        let a = &self.local;
        CapacitySignature([
            a.keys.capacity(),
            a.key_offsets.capacity(),
            a.finals.capacity(),
            a.letter_rows.capacity(),
            a.skip_rows.capacity(),
            a.skip_masks.capacity(),
            a.var_pairs.capacity(),
            a.index.capacity(),
            0,
            0,
        ])
    }

    /// Determinization work wasted to eviction: `states_interned() -
    /// num_states()`, i.e. how many subset states were built more than once
    /// since the store was bound. Zero on a cache whose budget covers its
    /// working set; large values mean the budget is below the working-set
    /// size and eviction tuning is warranted.
    #[inline]
    pub fn wasted_states(&self) -> u64 {
        self.states_interned - self.num_states() as u64
    }

    /// Snapshots this live cache into an immutable, shareable
    /// [`FrozenCache`]: a clone of its state arena — every subset state,
    /// every filled transition row (entries not yet stepped stay "unknown"
    /// and are computed by each worker's store over the snapshot on demand),
    /// the skip metadata and the interning index. `seva` must be the
    /// automaton this cache is bound to; an unbound (never used) cache
    /// freezes into an empty snapshot, which is valid — every state then
    /// lives in the deltas.
    ///
    /// # Panics
    ///
    /// Panics if the cache is bound to a *different* automaton, or over a
    /// snapshot (merge it with [`FrozenCache::thaw_merged`] first).
    pub fn freeze(&self, seva: &LazyDetSeva) -> FrozenCache {
        assert!(
            self.seva_id == seva.id || self.seva_id == 0,
            "LazyCache::freeze: cache is bound to a different automaton"
        );
        assert_eq!(self.snapshot_id, 0, "LazyCache::freeze: store is bound over a snapshot");
        FrozenCache {
            id: next_engine_id(),
            seva_id: seva.id,
            arena: self.local.clone(),
            slp_memo: None,
        }
    }

    /// Binds the cache live to `seva`, resetting it unless it is already
    /// bound live to that automaton.
    pub fn bind(&mut self, seva: &LazyDetSeva) {
        self.bind_over(seva, None);
    }

    /// Binds the store to `seva` over the snapshot `base` (live when
    /// `None`), resetting it unless it is already bound to exactly that pair.
    pub(crate) fn bind_over(&mut self, seva: &LazyDetSeva, base: Option<&FrozenCache>) {
        let snapshot_id = base.map_or(0, |frozen| {
            assert_eq!(
                frozen.seva_id, seva.id,
                "FrozenStepper: snapshot belongs to a different automaton"
            );
            frozen.id
        });
        if self.seva_id == seva.id && self.snapshot_id == snapshot_id {
            return;
        }
        self.seva_id = seva.id;
        self.snapshot_id = snapshot_id;
        self.base = base.map_or(0, |frozen| frozen.num_states() as u32);
        self.ncls = seva.ncls;
        self.budget = seva.config.memory_budget;
        // Over a snapshot the policy is plain clear-and-restart: the base
        // states live in the immutable snapshot, so the per-worker overflow
        // is cheap to rebuild.
        self.policy =
            if base.is_some() { EvictionPolicy::ClearRestart } else { seva.config.eviction };
        self.clears = 0;
        self.states_interned = 0;
        self.set_scratch.reset(seva.num_nfa_states);
        self.clear_local();
    }

    /// Overrides the byte budget for subsequent maintenance checks (one-off
    /// degradation retries and deterministic fault injection). [`bind`] to a
    /// *different* automaton resets the budget back to that automaton's
    /// [`LazyConfig`]; rebinding the same automaton keeps the override, so
    /// callers that want it one-off must restore it themselves.
    ///
    /// [`bind`]: LazyCache::bind
    pub(crate) fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// Sheds the store for the global memory governor: drops every local
    /// state and override **and releases the backing allocations** (unlike
    /// the internal evictions, which keep capacity for reuse). Returns the
    /// bytes freed. The store stays bound and fully usable — subsequent
    /// documents re-intern states on demand, exactly as after a budget
    /// eviction.
    ///
    /// Lifetime counters ([`LazyCache::states_interned`],
    /// [`LazyCache::clear_count`]) are untouched: a governor shed is not a
    /// budget-driven eviction, so it never trips the per-document thrash
    /// guard.
    pub fn shed(&mut self) -> usize {
        let freed = self.bytes;
        self.clear_local();
        self.local.shrink_to_fit();
        self.overrides.shrink_to_fit();
        self.hot.shrink_to_fit();
        freed
    }

    /// Drops every local state and override, keeping allocated capacity.
    fn clear_local(&mut self) {
        self.local.clear();
        self.overrides.clear();
        self.hot.clear();
        self.bytes = 0;
    }

    /// Approximate bytes a fresh state with a `key_len`-element subset key
    /// costs: the key is stored twice (arena + index), the letter/skip rows
    /// and the skippable-class mask are allocated eagerly per state (so cache
    /// hits never allocate), and the index entry carries hash-map overhead.
    #[inline]
    fn state_cost(&self, key_len: usize) -> usize {
        key_len * 8 + self.ncls * 5 + std::mem::size_of::<ClassMask>() + 64
    }

    /// Looks up or creates the state for the (sorted) subset `key`: base
    /// states are found in the snapshot's index, local states in the
    /// store's.
    fn intern(&mut self, base: &Arena, key: &[u32], seva: &LazyDetSeva) -> u32 {
        if let Some(&id) = base.index.get(key).or_else(|| self.local.index.get(key)) {
            return id;
        }
        let id = self.base as usize + self.local.num_states();
        assert!(id < (UNKNOWN as usize) - 1, "lazy determinizer exhausted the u32 id space");
        let is_final = key.iter().any(|&q| seva.nfa_finals[q as usize]);
        self.local.push(key, id as u32, is_final, self.ncls);
        self.hot.push(false);
        self.bytes += self.state_cost(key.len());
        self.states_interned += 1;
        id as u32
    }

    /// The state of the subset `{initial}` (interning it on first use).
    fn start_state(&mut self, base: &Arena, seva: &LazyDetSeva) -> StateId {
        let id = self.intern(base, &[seva.initial], seva) as StateId;
        if let Some(lq) = id.checked_sub(self.base as usize) {
            self.hot[lq] = true;
        }
        id
    }

    /// The memoized skippable-class bitset of `q`: exactly the `SKIP_YES`
    /// entries computed so far — the snapshot's mask (or its local override)
    /// for a base state, the local mask otherwise. A pure read (see
    /// [`Stepper::skip_mask`]).
    #[inline]
    fn skip_mask(&self, base: &Arena, q: StateId) -> ClassMask {
        let nb = self.base as usize;
        if q < nb {
            match self.overrides.mask.get(&(q as u32)) {
                Some(&m) => m,
                None => base.skip_masks[q],
            }
        } else {
            self.local.skip_masks[q - nb]
        }
    }

    /// Lazy `δ(q, cls)`: known entries are flat loads — from the local row,
    /// or for a base state from the snapshot row, then its override.
    #[inline]
    fn step_class(
        &mut self,
        base: &Arena,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> Option<StateId> {
        let nb = self.base as usize;
        let known = if q < nb {
            let slot = q * self.ncls + cls;
            match base.letter_rows[slot] {
                UNKNOWN => self.overrides.letter.get(&(slot as u32)).copied().unwrap_or(UNKNOWN),
                t => t,
            }
        } else {
            self.hot[q - nb] = true;
            self.local.letter_rows[(q - nb) * self.ncls + cls]
        };
        match known {
            NO_TARGET => None,
            UNKNOWN => self.fill_letter(base, seva, q, cls),
            t => Some(t as StateId),
        }
    }

    /// The first step of a `(state, class)`: unions the NFA targets of every
    /// subset member, interns the resulting subset and memoizes it — in the
    /// local row, or in an override for a base state.
    fn fill_letter(
        &mut self,
        base: &Arena,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> Option<StateId> {
        let nb = self.base as usize;
        self.set_scratch.clear();
        for &nq in key_of(&self.local, base, nb, q) {
            for &t in seva.letter_targets(nq as usize, cls) {
                self.set_scratch.insert(t as usize);
            }
        }
        let target = if self.set_scratch.is_empty() {
            NO_TARGET
        } else {
            let mut ks = std::mem::take(&mut self.key_scratch);
            ks.clear();
            ks.extend_from_slice(self.set_scratch.as_slice());
            ks.sort_unstable();
            let id = self.intern(base, &ks, seva);
            self.key_scratch = ks;
            id
        };
        if q < nb {
            self.overrides.letter.insert((q * self.ncls + cls) as u32, target);
            self.bytes += OVERRIDE_COST;
        } else {
            self.local.letter_rows[(q - nb) * self.ncls + cls] = target;
        }
        (target != NO_TARGET).then_some(target as StateId)
    }

    /// Materializes the marker row of `q` into the local arena (grouping the
    /// subset members' variable transitions by marker set, interning each
    /// target subset) and returns its `(start, len)` extent there. Base
    /// states with a snapshot row never reach here — see
    /// [`LazyCache::markers_row`].
    fn materialize_vars(&mut self, base: &Arena, seva: &LazyDetSeva, q: StateId) -> (u32, u32) {
        let nb = self.base as usize;
        let known = if q < nb {
            debug_assert_eq!(base.var_starts[q], VARS_UNMATERIALIZED);
            self.overrides.var.get(&(q as u32)).copied()
        } else {
            let start = self.local.var_starts[q - nb];
            (start != VARS_UNMATERIALIZED).then(|| (start, self.local.var_lens[q - nb]))
        };
        if let Some(extent) = known {
            return extent;
        }
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        for &nq in key_of(&self.local, base, nb, q) {
            groups.extend_from_slice(seva.var_pairs_of(nq as usize));
        }
        // Group by marker set; targets of one group become one subset state.
        // The sort also fixes a deterministic (marker-set-ordered) capture
        // order, independent of subset member order.
        groups.sort_unstable();
        groups.dedup();
        let mut row = std::mem::take(&mut self.row_scratch);
        let mut ks = std::mem::take(&mut self.key_scratch);
        row.clear();
        let mut i = 0;
        while i < groups.len() {
            let markers = groups[i].0;
            ks.clear();
            while i < groups.len() && groups[i].0 == markers {
                ks.push(groups[i].1);
                i += 1;
            }
            // Sorted and deduplicated already (inherited from `groups`).
            let id = self.intern(base, &ks, seva);
            row.push((markers, id as StateId));
        }
        let start = self.local.var_pairs.len() as u32;
        let len = row.len() as u32;
        self.local.var_pairs.extend_from_slice(&row);
        if q < nb {
            self.overrides.var.insert(q as u32, (start, len));
            self.bytes += OVERRIDE_COST;
        } else {
            self.local.var_starts[q - nb] = start;
            self.local.var_lens[q - nb] = len;
        }
        self.bytes += row.len() * std::mem::size_of::<(MarkerSet, StateId)>();
        self.group_scratch = groups;
        self.row_scratch = row;
        self.key_scratch = ks;
        (start, len)
    }

    /// Lazy `Markers_δ(q)` with targets: the snapshot row when it exists,
    /// the local row (materializing it first) otherwise.
    fn markers_row<'s>(
        &'s mut self,
        base: &'s Arena,
        seva: &LazyDetSeva,
        q: StateId,
    ) -> &'s [(MarkerSet, StateId)] {
        if q < self.base as usize {
            if let Some(row) = base.marker_row(q) {
                return row;
            }
        }
        let (start, len) = self.materialize_vars(base, seva, q);
        &self.local.var_pairs[start as usize..(start + len) as usize]
    }

    /// Lazy `has_markers(q)` — materializes the row on first use.
    fn has_markers(&mut self, base: &Arena, seva: &LazyDetSeva, q: StateId) -> bool {
        if q < self.base as usize && base.var_starts[q] != VARS_UNMATERIALIZED {
            return base.var_lens[q] != 0;
        }
        self.materialize_vars(base, seva, q).1 != 0
    }

    /// Lazy `run_skippable(q, cls)` — derives (and memoizes) the same
    /// per-(state, class) predicate the eager compiler precomputes: `q`
    /// self-loops on `cls` and every marker target of `q` dies on `cls`.
    fn run_skippable(&mut self, base: &Arena, seva: &LazyDetSeva, q: StateId, cls: usize) -> bool {
        let nb = self.base as usize;
        let slot = q * self.ncls + cls;
        let memo = if q < nb {
            match base.skip_rows[slot] {
                SKIP_UNKNOWN => match self.overrides.skip.get(&(slot as u32)) {
                    Some(&skip) => return skip,
                    None => SKIP_UNKNOWN,
                },
                memo => memo,
            }
        } else {
            self.local.skip_rows[slot - nb * self.ncls]
        };
        match memo {
            SKIP_YES => return true,
            SKIP_NO => return false,
            _ => {}
        }
        let skip = self.compute_skippable(base, seva, q, cls);
        if q < nb {
            self.overrides.skip.insert(slot as u32, skip);
            self.bytes += OVERRIDE_COST;
            if skip {
                // The snapshot's mask is immutable and shared; record the
                // newly learned bit in a local override seeded from it.
                let mut mask = self.skip_mask(base, q);
                mask.insert(cls);
                if self.overrides.mask.insert(q as u32, mask).is_none() {
                    self.bytes += OVERRIDE_COST + std::mem::size_of::<ClassMask>();
                }
            }
        } else {
            // `compute_skippable` may intern states, growing `skip_rows` at
            // the end — the slot of `q` is unaffected. The mask stays in
            // lockstep with the SKIP_YES memo so the scanning engine sees
            // every learned entry.
            self.local.skip_rows[slot - nb * self.ncls] = if skip { SKIP_YES } else { SKIP_NO };
            if skip {
                self.local.skip_masks[q - nb].insert(cls);
            }
        }
        skip
    }

    fn compute_skippable(
        &mut self,
        base: &Arena,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> bool {
        if self.step_class(base, seva, q, cls) != Some(q) {
            return false;
        }
        let mut targets = std::mem::take(&mut self.target_scratch);
        targets.clear();
        targets.extend(self.markers_row(base, seva, q).iter().map(|&(_, p)| p as u32));
        let skip =
            targets.iter().all(|&p| self.step_class(base, seva, p as StateId, cls).is_none());
        self.target_scratch = targets;
        skip
    }

    /// Evicts per the bound [`EvictionPolicy`], rewriting the engine's `live`
    /// ids in place. Always returns `true` (an eviction happened).
    fn evict(&mut self, base: &Arena, seva: &LazyDetSeva, live: &mut [u32]) -> bool {
        match self.policy {
            EvictionPolicy::ClearRestart => self.evict_clear_restart(base, seva, live),
            EvictionPolicy::Segmented => self.evict_segmented(live),
        }
    }

    /// Clear-and-restart eviction: forget every local state and override,
    /// re-intern exactly the `live` local states (their subset keys survive
    /// the clear via a scratch snapshot) and rewrite each such id in place.
    /// Base ids — immutable by construction — are left untouched, so a
    /// shared snapshot never churns. Row contents, skip metadata included,
    /// are recomputed on demand after the restart.
    fn evict_clear_restart(&mut self, base: &Arena, seva: &LazyDetSeva, live: &mut [u32]) -> bool {
        let nb = self.base;
        let mut ek = std::mem::take(&mut self.evict_keys);
        let mut eo = std::mem::take(&mut self.evict_offsets);
        ek.clear();
        eo.clear();
        eo.push(0);
        for &q in live.iter() {
            if q >= nb {
                ek.extend_from_slice(self.local.key((q - nb) as usize));
            }
            eo.push(ek.len() as u32);
        }
        self.clear_local();
        for (k, q) in live.iter_mut().enumerate() {
            if *q >= nb {
                *q = self.intern(base, &ek[eo[k] as usize..eo[k + 1] as usize], seva);
            }
        }
        self.clears += 1;
        self.evict_keys = ek;
        self.evict_offsets = eo;
        true
    }

    /// Segmented second-chance eviction: keep the engine's `live` states
    /// (mandatory) plus hot states — those stepped since the previous
    /// eviction — admitted in id order until the survivors cost half the
    /// budget, then compact every per-state array **in place**. Surviving
    /// states keep their subset keys, final flags, skip metadata and (when
    /// every target also survives) their materialized marker rows, so a warm
    /// working set shared across tenants is not rebuilt from scratch after
    /// each eviction. Letter entries pointing at dropped states revert to
    /// *unknown* and are recomputed on demand. Hot bits reset: a survivor
    /// must be referenced again to survive the next eviction.
    ///
    /// The half-budget target leaves headroom so consecutive maintenance
    /// calls always reclaim memory; like clear-and-restart, the live set is
    /// admitted unconditionally, so budgets below one position's working set
    /// merely thrash (the engines' clear guard still applies, via the same
    /// `maintain → note_clear` path).
    fn evict_segmented(&mut self, live: &mut [u32]) -> bool {
        // Remap-table sentinels; real ids are `< UNKNOWN - 1` (see `intern`).
        const DROPPED: u32 = u32::MAX;
        const KEEP: u32 = u32::MAX - 1;
        debug_assert_eq!(self.base, 0, "stores over a snapshot clear and restart");
        let n = self.local.num_states();
        let pair = std::mem::size_of::<(MarkerSet, StateId)>();
        let mut remap = std::mem::take(&mut self.evict_remap);
        remap.clear();
        remap.resize(n, DROPPED);
        let mut retained = 0usize;
        for &q in live.iter() {
            let q = q as usize;
            if remap[q] == DROPPED {
                remap[q] = KEEP;
                retained += self.state_cost(self.local.key(q).len());
            }
        }
        let target = self.budget / 2;
        for (q, slot) in remap.iter_mut().enumerate() {
            if *slot != DROPPED || !self.hot[q] {
                continue;
            }
            let cost =
                self.state_cost(self.local.key(q).len()) + self.local.var_lens[q] as usize * pair;
            if retained + cost > target {
                continue;
            }
            *slot = KEEP;
            retained += cost;
        }
        // Survivors get new ids in old-id order, so `new_id <= old_id` and
        // the forward in-place compaction below never reads a slot it has
        // already overwritten.
        let mut kept = 0u32;
        for slot in remap.iter_mut() {
            if *slot != DROPPED {
                *slot = kept;
                kept += 1;
            }
        }
        let kept = kept as usize;
        let mut rows = std::mem::take(&mut self.evict_rows);
        rows.clear();
        let mut w_key = 0usize;
        let mut bytes = 0usize;
        for q in 0..n {
            if remap[q] == DROPPED {
                continue;
            }
            let nq = remap[q] as usize;
            let (a, b) =
                (self.local.key_offsets[q] as usize, self.local.key_offsets[q + 1] as usize);
            self.local.keys.copy_within(a..b, w_key);
            w_key += b - a;
            self.local.key_offsets[nq + 1] = w_key as u32;
            self.local.finals[nq] = self.local.finals[q];
            // Skip metadata is a property of the subset's *contents* (does it
            // self-loop, do its marker targets die), independent of state
            // ids, so memoized entries and the mirror mask carry over
            // verbatim and stay in lockstep.
            self.local.skip_masks[nq] = self.local.skip_masks[q];
            self.hot[nq] = false;
            for cls in 0..self.ncls {
                let t = self.local.letter_rows[q * self.ncls + cls];
                self.local.letter_rows[nq * self.ncls + cls] = if t == NO_TARGET {
                    NO_TARGET
                } else if t == UNKNOWN || remap[t as usize] == DROPPED {
                    UNKNOWN
                } else {
                    remap[t as usize]
                };
                self.local.skip_rows[nq * self.ncls + cls] =
                    self.local.skip_rows[q * self.ncls + cls];
            }
            let start = self.local.var_starts[q];
            let len = self.local.var_lens[q] as usize;
            if start != VARS_UNMATERIALIZED
                && self.local.var_pairs[start as usize..start as usize + len]
                    .iter()
                    .all(|&(_, p)| remap[p] != DROPPED)
            {
                let rs = rows.len() as u32;
                rows.extend(
                    self.local.var_pairs[start as usize..start as usize + len]
                        .iter()
                        .map(|&(m, p)| (m, remap[p] as StateId)),
                );
                self.local.var_starts[nq] = rs;
                self.local.var_lens[nq] = len as u32;
                bytes += len * pair;
            } else {
                // Not yet materialized, or some target was dropped: the whole
                // row is recomputed on demand (rows are all-or-nothing).
                self.local.var_starts[nq] = VARS_UNMATERIALIZED;
                self.local.var_lens[nq] = 0;
            }
            bytes += self.state_cost(b - a);
        }
        self.local.keys.truncate(w_key);
        self.local.key_offsets.truncate(kept + 1);
        self.local.finals.truncate(kept);
        self.local.var_starts.truncate(kept);
        self.local.var_lens.truncate(kept);
        self.local.letter_rows.truncate(kept * self.ncls);
        self.local.skip_rows.truncate(kept * self.ncls);
        self.local.skip_masks.truncate(kept);
        self.hot.truncate(kept);
        std::mem::swap(&mut self.local.var_pairs, &mut rows);
        // The old arena becomes the next eviction's scratch (capacity kept).
        self.evict_rows = rows;
        self.local.index.retain(|_, v| remap[*v as usize] != DROPPED);
        for v in self.local.index.values_mut() {
            *v = remap[*v as usize];
        }
        self.bytes = bytes;
        self.clears += 1;
        for q in live.iter_mut() {
            *q = remap[*q as usize];
        }
        self.evict_remap = remap;
        true
    }
}

/// An immutable snapshot of a warm live [`LazyCache`]: its state arena —
/// every subset state, transition row and skip entry discovered up to the
/// freeze point, interning index included — cloned verbatim.
///
/// A `FrozenCache` has no interior mutability, so it is `Send + Sync` and can
/// be shared by plain reference (e.g. across [`std::thread::scope`] workers)
/// or `std::sync::Arc`. Rows the warm cache had not yet filled stay *unknown*
/// in the snapshot; each worker computes those — and any subset state first
/// discovered after the freeze — inside its own store over the snapshot (a
/// [`FrozenDelta`]). Create snapshots with [`LazyCache::freeze`]; drive them
/// through [`LazyStepper::over`].
#[derive(Debug, Clone)]
pub struct FrozenCache {
    /// Identity of this snapshot (stores bind over it: state ids above the
    /// frozen range are meaningful only relative to one specific freeze).
    id: u64,
    /// Identity of the [`LazyDetSeva`] the snapshotted cache was bound to.
    seva_id: u64,
    /// The snapshotted states, shared read-only by every worker — skippable
    /// class masks included, so workers share skip coverage.
    arena: Arena,
    /// Warm SLP memo rows computed against the pre-freeze cache (state ids
    /// are preserved by freezing, so the rows remain valid here), shared
    /// read-only by every worker's [`crate::SlpEvaluator`]. Attached by
    /// [`crate::CompiledSpanner::freeze_warm_slp`]; `None` on plain freezes.
    slp_memo: Option<std::sync::Arc<crate::slp::SlpSharedMemo>>,
}

impl FrozenCache {
    /// A unique identity for delta-binding checks.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Identity of the [`LazyDetSeva`] this snapshot belongs to.
    #[inline]
    pub fn seva_id(&self) -> u64 {
        self.seva_id
    }

    /// Number of frozen subset states. Stores over the snapshot hand out
    /// local ids starting here.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.arena.num_states()
    }

    /// Approximate bytes held by the snapshot (states, rows, index).
    pub fn memory_bytes(&self) -> usize {
        let a = &self.arena;
        a.keys.len() * 8
            + a.key_offsets.len() * 4
            + a.finals.len()
            + a.letter_rows.len() * 4
            + a.skip_rows.len()
            + a.skip_masks.len() * std::mem::size_of::<ClassMask>()
            + a.var_starts.len() * 8
            + a.var_pairs.len() * std::mem::size_of::<(MarkerSet, StateId)>()
            + a.index.len() * 48
            + self.slp_memo.as_ref().map_or(0, |m| m.memory_bytes())
    }

    /// Attaches a warm SLP memo snapshot (see
    /// [`crate::CompiledSpanner::freeze_warm_slp`]).
    pub(crate) fn set_slp_memo(&mut self, memo: std::sync::Arc<crate::slp::SlpSharedMemo>) {
        self.slp_memo = Some(memo);
    }

    /// The attached warm SLP memo, if any.
    pub fn slp_memo(&self) -> Option<&std::sync::Arc<crate::slp::SlpSharedMemo>> {
        self.slp_memo.as_ref()
    }

    /// A fresh per-worker store bound over this snapshot.
    pub fn create_delta(&self, seva: &LazyDetSeva) -> FrozenDelta {
        let mut delta = LazyCache::new();
        delta.bind_over(seva, Some(self));
        delta
    }

    /// Thaws the snapshot back into a live [`LazyCache`] holding exactly the
    /// frozen states and rows — the starting point of a re-freeze generation
    /// when no delta evidence is available.
    pub fn thaw(&self, seva: &LazyDetSeva) -> LazyCache {
        self.thaw_with(None, seva)
    }

    /// Thaws the snapshot **merged with one worker's store over it** into a
    /// live [`LazyCache`]: the generational re-freeze path. The merged cache
    /// holds every frozen state plus every overflow state (ids preserved —
    /// local states already carry absolute ids), with the store's row, skip,
    /// marker and skippable-class mask overrides folded into the snapshot's
    /// rows, so scan coverage learned since the freeze is carried forward
    /// into the next generation instead of being rediscovered from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is bound over a different snapshot, or `seva` is not
    /// the automaton this snapshot was frozen from.
    pub fn thaw_merged(&self, delta: &FrozenDelta, seva: &LazyDetSeva) -> LazyCache {
        assert_eq!(
            delta.snapshot_id, self.id,
            "FrozenCache::thaw_merged: delta is bound to a different snapshot"
        );
        self.thaw_with(Some(delta), seva)
    }

    fn thaw_with(&self, delta: Option<&FrozenDelta>, seva: &LazyDetSeva) -> LazyCache {
        assert_eq!(
            self.seva_id, seva.id,
            "FrozenCache::thaw: snapshot belongs to a different automaton"
        );
        let mut cache = seva.create_cache();
        cache.local = self.arena.clone();
        if let Some(delta) = delta {
            delta.overrides.fold_into(&mut cache.local);
            cache.local.append(&delta.local);
        }
        // Thawed states count as interned and start cold: they must be
        // referenced to survive a segmented eviction, exactly like freshly
        // interned states. The byte accounting is rebuilt the way interning
        // and materialization would have: per-state cost plus marker rows.
        let n = cache.num_states();
        cache.states_interned = n as u64;
        cache.hot.resize(n, false);
        cache.bytes = (0..n)
            .map(|q| {
                let rows = cache.local.marker_row(q).map_or(0, <[_]>::len);
                cache.state_cost(cache.local.key(q).len())
                    + rows * std::mem::size_of::<(MarkerSet, StateId)>()
            })
            .sum();
        cache
    }
}

/// The pairing of a [`LazyDetSeva`] with one [`LazyCache`] — live, or bound
/// over a shared [`FrozenCache`] — that implements [`Stepper`]: what the
/// evaluation engines actually drive.
///
/// Constructing one binds (and if necessary resets) the store; a store over
/// a snapshot is additionally **reset** — capacity retained — so the
/// evaluation about to run depends only on the snapshot and the document,
/// never on what this worker processed before. The stepper borrows every
/// half for the duration of one evaluation; ids below the snapshot's state
/// count index the snapshot, the rest the store.
#[derive(Debug)]
pub struct LazyStepper<'a> {
    seva: &'a LazyDetSeva,
    /// The snapshot's arena, or an empty one for a live cache.
    base: &'a Arena,
    cache: &'a mut LazyCache,
}

/// The stepper over a frozen snapshot — the same type as [`LazyStepper`],
/// built with [`LazyStepper::over`].
pub type FrozenStepper<'a> = LazyStepper<'a>;

impl<'a> LazyStepper<'a> {
    /// Steps `seva` live through `cache`, binding the cache first.
    pub fn new(seva: &'a LazyDetSeva, cache: &'a mut LazyCache) -> Self {
        Self::with_base(seva, None, cache)
    }

    /// Steps `seva` through the shared `frozen` snapshot with one worker's
    /// private `delta`, binding and resetting the delta first.
    pub fn over(
        seva: &'a LazyDetSeva,
        frozen: &'a FrozenCache,
        delta: &'a mut FrozenDelta,
    ) -> Self {
        Self::with_base(seva, Some(frozen), delta)
    }

    /// [`LazyStepper::new`] when `base` is `None`, [`LazyStepper::over`]
    /// otherwise.
    pub(crate) fn with_base(
        seva: &'a LazyDetSeva,
        base: Option<&'a FrozenCache>,
        cache: &'a mut LazyCache,
    ) -> Self {
        cache.bind_over(seva, base);
        let base = match base {
            Some(frozen) => {
                cache.clear_local();
                &frozen.arena
            }
            None => empty_arena(),
        };
        LazyStepper { seva, base, cache }
    }

    /// The store this stepper extends.
    pub(crate) fn store(&self) -> &LazyCache {
        self.cache
    }
}

impl Stepper for LazyStepper<'_> {
    #[inline]
    fn state_bound(&self) -> usize {
        self.cache.base as usize + self.cache.num_states()
    }

    #[inline]
    fn start_state(&mut self) -> StateId {
        self.cache.start_state(self.base, self.seva)
    }

    #[inline]
    fn is_final(&self, q: StateId) -> bool {
        let nb = self.cache.base as usize;
        if q < nb {
            self.base.finals[q]
        } else {
            self.cache.local.finals[q - nb]
        }
    }

    #[inline]
    fn byte_class(&self, byte: u8) -> usize {
        self.seva.partition.class_of(byte)
    }

    #[inline]
    fn partition(&self) -> &AlphabetPartition {
        &self.seva.partition
    }

    #[inline]
    fn classify_document(&self, doc: &Document, out: &mut Vec<u8>) {
        self.seva.partition.classify_into(doc.bytes(), out);
    }

    #[inline]
    fn step_class(&mut self, q: StateId, cls: usize) -> Option<StateId> {
        self.cache.step_class(self.base, self.seva, q, cls)
    }

    #[inline]
    fn has_markers(&mut self, q: StateId) -> bool {
        self.cache.has_markers(self.base, self.seva, q)
    }

    #[inline]
    fn markers_from(&mut self, q: StateId) -> &[(MarkerSet, StateId)] {
        self.cache.markers_row(self.base, self.seva, q)
    }

    #[inline]
    fn run_skippable(&mut self, q: StateId, cls: usize) -> bool {
        self.cache.run_skippable(self.base, self.seva, q, cls)
    }

    #[inline]
    fn skip_mask(&mut self, q: StateId) -> ClassMask {
        self.cache.skip_mask(self.base, q)
    }

    #[inline]
    fn wants_maintenance(&self) -> bool {
        self.cache.bytes > self.cache.budget
    }

    #[inline]
    fn maintain(&mut self, live: &mut [u32]) -> bool {
        self.cache.evict(self.base, self.seva, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::variable::VarRegistry;

    /// A small nondeterministic eVA: two overlapping letter ranges from the
    /// same state (cannot be fed to `DetSeva::compile`).
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
        b.add_letter(q1, ByteClass::range(b'a', b'm'), q1);
        b.add_letter(q1, ByteClass::range(b'g', b'z'), q2);
        b.add_letter(q2, ByteClass::range(b'a', b'z'), q2);
        b.add_var(q1, ms().with_close(x), q3).unwrap();
        b.add_var(q2, ms().with_close(x), q3).unwrap();
        b.add_letter(q3, ByteClass::any(), q3);
        b.build().unwrap()
    }

    #[test]
    fn prepares_without_subset_construction() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        assert_eq!(lazy.num_nfa_states(), 4);
        assert_eq!(lazy.num_vars(), 1);
        assert_eq!(lazy.source_size(), eva.size());
        // No subset states exist until a document is evaluated.
        let cache = lazy.create_cache();
        assert_eq!(cache.num_states(), 0);
        assert_eq!(cache.clear_count(), 0);
    }

    #[test]
    fn accepts_matches_naive_nonemptiness() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b"] {
            let doc = Document::from(text);
            assert_eq!(
                lazy.accepts(&mut cache, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "acceptance mismatch on {text:?}"
            );
        }
        assert!(cache.num_states() > 0, "evaluation interned subset states");
    }

    #[test]
    fn accepts_under_tiny_budget_evicts_but_stays_correct() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let mut cache = lazy.create_cache();
        let doc = Document::from("agzagzagz");
        assert!(lazy.accepts(&mut cache, &doc));
        assert!(cache.clear_count() > 0, "tiny budget must force evictions");
        assert!(!lazy.accepts(&mut cache, &Document::from("!!!")));
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
        assert!(matches!(
            LazyDetSeva::new(&eva, LazyConfig::default()),
            Err(SpannerError::NotSequential(_))
        ));
        assert!(LazyDetSeva::new_trusted(&eva, LazyConfig::default()).is_ok());
    }

    #[test]
    fn cache_rebinds_to_a_different_automaton() {
        let a = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let b = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        assert_ne!(a.id(), b.id());
        let mut cache = a.create_cache();
        assert!(a.accepts(&mut cache, &Document::from("az")));
        let populated = cache.num_states();
        assert!(populated > 0);
        // Binding to `b` resets; binding back to `a` resets again.
        let _ = b.accepts(&mut cache, &Document::from("az"));
        assert!(a.accepts(&mut cache, &Document::from("az")));
    }

    #[test]
    fn frozen_snapshot_matches_live_cache_on_acceptance() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        // Warm on a couple of documents, then freeze.
        for text in ["az", "gz"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        let frozen = cache.freeze(&lazy);
        assert_eq!(frozen.seva_id(), lazy.id());
        assert_eq!(frozen.num_states(), cache.num_states());
        assert!(frozen.memory_bytes() > 0);
        let mut delta = frozen.create_delta(&lazy);
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b", "zzzagq"] {
            let doc = Document::from(text);
            let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
            assert_eq!(
                accepts_generic(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "frozen acceptance mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn thaw_round_trips_the_frozen_states() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["az", "gz", "abcxyz"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        let frozen = cache.freeze(&lazy);
        let mut thawed = frozen.thaw(&lazy);
        assert_eq!(thawed.num_states(), frozen.num_states());
        assert_eq!(thawed.states_interned(), frozen.num_states() as u64);
        assert!(thawed.memory_bytes() > 0);
        // The thawed cache keeps working as a live cache.
        for text in ["", "az", "gz", "A", "a!b"] {
            let doc = Document::from(text);
            assert_eq!(
                lazy.accepts(&mut thawed, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "thawed acceptance mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn thaw_merged_folds_delta_overflow_into_the_next_generation() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        // Freeze early — off a single short document — so later documents
        // force both overflow states and row overrides into the delta.
        let mut cache = lazy.create_cache();
        let _ = lazy.accepts(&mut cache, &Document::from("a"));
        let frozen = cache.freeze(&lazy);
        let mut delta = frozen.create_delta(&lazy);
        let texts = ["az", "gz", "abcxyz", "zzzagq", "a!b"];
        // Drive one document so the per-document reset of FrozenStepper::over
        // does not wipe the evidence we are about to merge.
        let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
        let _ = accepts_generic(&mut stepper, &Document::from("abcxyz"));
        assert!(
            delta.num_overflow_states() > 0 || !delta.overrides.letter.is_empty(),
            "test premise: the delta must hold evidence to merge"
        );
        assert_eq!(delta.snapshot_id(), frozen.id());

        let merged = frozen.thaw_merged(&delta, &lazy);
        assert_eq!(merged.num_states(), frozen.num_states() + delta.num_overflow_states());
        // Re-freeze the merged cache: the next generation answers everything
        // the old snapshot could, plus what the delta learned.
        let gen2 = merged.freeze(&lazy);
        assert_ne!(gen2.id(), frozen.id());
        assert_eq!(gen2.seva_id(), lazy.id());
        let mut d2 = gen2.create_delta(&lazy);
        for text in texts.iter().chain(["", "g", "A"].iter()) {
            let doc = Document::from(*text);
            let mut stepper = FrozenStepper::over(&lazy, &gen2, &mut d2);
            assert_eq!(
                accepts_generic(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "gen2 acceptance mismatch on {text:?}"
            );
        }
        // The warmed snapshot covers the replayed document: re-running it
        // creates no overflow states in a fresh delta.
        let mut d3 = gen2.create_delta(&lazy);
        let mut stepper = FrozenStepper::over(&lazy, &gen2, &mut d3);
        let _ = accepts_generic(&mut stepper, &Document::from("abcxyz"));
        assert_eq!(d3.num_overflow_states(), 0, "merged generation must absorb the delta");
    }

    #[test]
    #[should_panic(expected = "bound to a different snapshot")]
    fn thaw_merged_rejects_a_foreign_delta() {
        let lazy = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let frozen_a = lazy.create_cache().freeze(&lazy);
        let frozen_b = lazy.create_cache().freeze(&lazy);
        let delta = frozen_a.create_delta(&lazy);
        let _ = frozen_b.thaw_merged(&delta, &lazy);
    }

    #[test]
    fn empty_freeze_evaluates_entirely_in_the_delta() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        assert_eq!(frozen.num_states(), 0);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agz");
        let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
        assert!(accepts_generic(&mut stepper, &doc));
        assert!(delta.num_overflow_states() > 0, "all states must live in the delta");
        // A delta over an empty snapshot is a live cache: same answers, same
        // interning, same evictions and the same byte accounting, at every
        // budget (including ones that evict on every position).
        for config in
            [LazyConfig::default(), LazyConfig::with_budget(200), LazyConfig::with_budget(1)]
        {
            let lazy = LazyDetSeva::new(&eva, config).unwrap();
            let frozen = lazy.create_cache().freeze(&lazy);
            for text in ["agz", "agzagzagz", "zzzzzagqagq!!", "", "a!b"] {
                let doc = Document::from(text);
                let ctx = format!("budget {} on {text:?}", config.memory_budget);
                let mut cache = lazy.create_cache();
                let live = lazy.accepts(&mut cache, &doc);
                let mut delta = frozen.create_delta(&lazy);
                let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
                assert_eq!(accepts_generic(&mut stepper, &doc), live, "acceptance, {ctx}");
                assert_eq!(live, !eva.eval_naive(&doc).is_empty(), "oracle, {ctx}");
                assert_eq!(delta.states_interned(), cache.states_interned(), "interned, {ctx}");
                assert_eq!(delta.clear_count(), cache.clear_count(), "clears, {ctx}");
                assert_eq!(delta.memory_bytes(), cache.memory_bytes(), "bytes, {ctx}");
                assert_eq!(delta.num_overflow_states(), cache.num_states(), "states, {ctx}");
            }
        }
    }

    #[test]
    fn delta_resets_per_document_and_keeps_capacity() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agzagz");
        for round in 0..3 {
            let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
            assert!(accepts_generic(&mut stepper, &doc), "round {round}");
        }
        // Three identical documents: the per-document reset makes the third
        // run intern exactly what the first did, with warm capacity.
        let sig = delta.capacity_signature();
        let per_doc = delta.states_interned() / 3;
        assert_eq!(delta.states_interned(), per_doc * 3, "interning is not per-document stable");
        let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
        assert!(accepts_generic(&mut stepper, &doc));
        assert_eq!(delta.capacity_signature(), sig, "warm delta reallocated");
    }

    #[test]
    fn delta_eviction_under_tiny_budget_stays_correct() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agzagzagz");
        let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
        assert!(accepts_generic(&mut stepper, &doc));
        assert!(delta.clear_count() > 0, "a 1-byte budget must force delta evictions");
        let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
        assert!(!accepts_generic(&mut stepper, &Document::from("!!!")));
    }

    #[test]
    fn frozen_cache_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<FrozenCache>();
        check::<LazyDetSeva>();
        check::<FrozenDelta>();
        check::<LazyCache>();
    }

    #[test]
    fn wasted_states_and_signature_display() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let mut cache = lazy.create_cache();
        let doc = Document::from("agzagzagz");
        assert!(lazy.accepts(&mut cache, &doc));
        assert!(cache.clear_count() > 0);
        assert_eq!(cache.wasted_states(), cache.states_interned() - cache.num_states() as u64);
        assert!(cache.wasted_states() > 0, "thrashing must waste interned states");
        let rendered = cache.capacity_signature().to_string();
        assert!(rendered.contains("keys=") && rendered.contains("index="), "{rendered}");
    }

    #[test]
    fn skip_masks_mirror_memoized_entries_and_survive_freezing() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        // Drive the scanning engine so `run_skippable` memoizes entries: the
        // `!` tail leaves only the final `Σ`-looping subset live, which is
        // skippable on the non-letter class once its capture row is empty.
        let mut evaluator = crate::Evaluator::new();
        for text in ["agz!!!!!!", "zzzzzagq!!!!"] {
            let _ = evaluator.eval(&lazy, &Document::from(text)).unwrap().num_nodes();
        }
        let cache = evaluator.lazy_cache().expect("lazy evaluation populated the cache");
        let ncls = lazy.num_alphabet_classes();
        let mut memoized_yes = 0;
        for q in 0..cache.num_states() {
            let mask = cache.local.skip_masks[q];
            for cls in 0..ncls {
                let memo = cache.local.skip_rows[q * ncls + cls];
                assert_eq!(
                    mask.contains(cls),
                    memo == SKIP_YES,
                    "mask out of lockstep with memo, state {q}, class {cls}"
                );
                memoized_yes += (memo == SKIP_YES) as usize;
            }
        }
        assert!(memoized_yes > 0, "the documents above must memoize at least one skip entry");
        // Freezing carries the masks verbatim into the shared snapshot.
        let frozen = cache.freeze(&lazy);
        assert_eq!(frozen.arena.skip_masks, cache.local.skip_masks);
        // A delta-local state's mask starts empty and fills with its memos.
        let delta = frozen.create_delta(&lazy);
        assert_eq!(delta.skip_mask(&frozen.arena, 0), frozen.arena.skip_masks[0]);
    }

    #[test]
    fn clones_share_identity_and_caches() {
        let a = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        let mut cache = a.create_cache();
        assert!(a.accepts(&mut cache, &Document::from("az")));
        let warm = cache.num_states();
        assert!(b.accepts(&mut cache, &Document::from("az")));
        assert_eq!(cache.num_states(), warm, "clone reused the warm cache without rebinding");
    }

    /// Sorted mapping sets of the given documents under one config — the
    /// oracle shape for the segmented-eviction differential tests.
    fn mapping_sets(config: LazyConfig, docs: &[&str]) -> Vec<Vec<crate::Mapping>> {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, config).unwrap();
        let mut evaluator = crate::Evaluator::new();
        docs.iter()
            .map(|text| {
                let mut out: Vec<_> =
                    evaluator.eval(&lazy, &Document::from(*text)).unwrap().iter().collect();
                out.sort_unstable();
                out
            })
            .collect()
    }

    #[test]
    fn segmented_eviction_preserves_mappings_byte_for_byte() {
        let docs = ["agzagzagz", "abcxyz", "", "a!b", "zzzzzagqagqagq", "gggggggg"];
        let oracle = mapping_sets(LazyConfig::default(), &docs);
        for budget in [1, 200, 400, 800] {
            let config = LazyConfig::with_budget(budget).with_eviction(EvictionPolicy::Segmented);
            assert_eq!(
                mapping_sets(config, &docs),
                oracle,
                "segmented eviction changed outputs at budget {budget}"
            );
        }
    }

    #[test]
    fn segmented_eviction_spares_hot_states() {
        // A budget just below the warm working set: both policies evict on
        // every document cycle, but segmented carries the hot core across
        // evictions instead of re-interning it each time.
        let eva = nondet_eva();
        let doc = Document::from("agzagzagzagzagzagz");
        let waste_of = |policy: EvictionPolicy| {
            let config = LazyConfig::with_budget(500).with_eviction(policy);
            let lazy = LazyDetSeva::new(&eva, config).unwrap();
            let mut cache = lazy.create_cache();
            for _ in 0..8 {
                assert!(lazy.accepts(&mut cache, &doc));
            }
            assert!(cache.clear_count() > 0, "budget must force evictions under {policy:?}");
            cache.wasted_states()
        };
        let clear_restart = waste_of(EvictionPolicy::ClearRestart);
        let segmented = waste_of(EvictionPolicy::Segmented);
        assert!(
            segmented < clear_restart,
            "segmented ({segmented} wasted) must beat clear-restart ({clear_restart} wasted)"
        );
    }

    #[test]
    fn freeze_after_segmented_eviction_stays_correct() {
        let eva = nondet_eva();
        let config = LazyConfig::with_budget(500).with_eviction(EvictionPolicy::Segmented);
        let lazy = LazyDetSeva::new(&eva, config).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["agzagzagzagzagzagz", "abcxyz", "zzzzzagq"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        assert!(cache.clear_count() > 0, "test premise: the snapshot saw an eviction");
        // The compacted survivor table freezes into a consistent snapshot:
        // every document still evaluates to the naive-oracle answer.
        let frozen = cache.freeze(&lazy);
        let mut delta = frozen.create_delta(&lazy);
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b", "agzagzagz"] {
            let doc = Document::from(text);
            let mut stepper = FrozenStepper::over(&lazy, &frozen, &mut delta);
            assert_eq!(
                accepts_generic(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "post-eviction frozen acceptance mismatch on {text:?}"
            );
        }
    }
}
