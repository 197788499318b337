//! Grammar-aware evaluation over SLP-compressed documents.
//!
//! A *straight-line program* (SLP) is an acyclic context-free grammar in
//! Chomsky-ish normal form — every rule is a pair `X → L R` over previously
//! defined symbols, terminals are single bytes — whose derivation produces
//! exactly one document. Repetitive corpora (logs especially) compress 10–50×
//! into this form, and the Muñoz–Riveros line of work shows spanners can be
//! evaluated **directly on the grammar**, in time proportional to the
//! *compressed* size, instead of decompressing first.
//!
//! The engine here exploits the same structure the byte engines already
//! compute per position. One position of Algorithm 3 applies the transform
//! `T_b = Read_b ∘ Capture` to the per-state count vector; `T_b` is linear,
//! so the transform of a nonterminal's whole expansion is the product of its
//! children's transforms. Per `(nonterminal, det-state)` the engine memoizes
//!
//! * the **transition summary** — the set of det states reachable after
//!   reading the expansion from one source state (for acceptance), and
//! * the **mapping-count row** — how many partial mappings end in each of
//!   those states (for counting),
//!
//! computed bottom-up on demand and composed in `O(#rules)` per document
//! instead of `O(#bytes)`. The final `Capturing` step of the byte engines
//! (which runs once *after* the last position) is applied once at the end,
//! outside the grammar composition, so the per-position transform stays
//! associative and the memoized rows agree byte-for-byte with
//! [`crate::CountCache`] / [`crate::DetSeva::accepts`] on the decompressed
//! document — `tests/slp.rs` pins this differentially.
//!
//! The memo never hashes. Rows live in flat CSR-style arenas; each rule set
//! gets one head slot per nonterminal, and each row links to the next row of
//! its `(rule set, symbol)`, so a lookup walks one symbol's chain of source
//! states. Clearing costs O(rows held) and keeps every buffer, which matters
//! because frozen runs clear their local memo on every document.
//!
//! [`SlpEvaluator`] drives the eager [`DetSeva`](crate::DetSeva), the live lazy engine, and
//! the frozen/delta split of the batch runtime through the same per-worker
//! cache slot as the byte engines' [`crate::driver::Driver`] (its two
//! [`LazyCache`] stores: live, and over a frozen snapshot), plus its own memo
//! tables. A warm memo can be snapshotted into an immutable [`SlpSharedMemo`]
//! and attached to a
//! [`FrozenCache`](crate::FrozenCache) (see [`crate::CompiledSpanner::freeze_warm_slp`]), so N
//! workers compose documents off one shared bottom-up pass instead of
//! recomputing it N times.

use std::sync::Arc;

use crate::det::Stepper;
use crate::document::Document;
use crate::driver::{CacheSlot, Target};
use crate::error::SpannerError;
use crate::lazy::{next_engine_id, CapacitySignature, FrozenDelta, LazyCache};
use crate::limits::{EvalLimits, LimitChecker};

/// Symbols below this bound are terminals (the byte itself); symbol
/// `FIRST_NONTERMINAL + k` names rule `k`.
const FIRST_NONTERMINAL: u32 = 256;

/// Default byte budget of the per-evaluator memo tables (rows are cleared
/// and recomputed on demand past this), mirroring
/// [`crate::lazy::LazyConfig`]'s default determinization budget.
pub const DEFAULT_MEMO_BUDGET: usize = 8 * 1024 * 1024;

/// The rule set of a straight-line program: rule `k` (symbol `256 + k`)
/// expands to the pair of earlier symbols `rules[k]`.
///
/// Rule sets are validated acyclic at construction (every rule references
/// only terminals and *earlier* rules) and are shared between the documents
/// of a corpus via `Arc` — the memoized per-rule summaries are keyed by the
/// rule set's identity, so documents sharing one `SlpRules` also share one
/// bottom-up pass.
#[derive(Debug, Clone)]
pub struct SlpRules {
    /// Process-unique identity (memo keying).
    id: u64,
    /// `rules[k] = (left, right)`, both `< 256 + k`.
    rules: Vec<(u32, u32)>,
    /// Expansion length of each rule's derivation, in bytes.
    lens: Vec<u64>,
}

impl SlpRules {
    /// Validates and packages a rule list. Every rule may reference only
    /// terminals (`0..256`) and strictly earlier rules; expansion lengths
    /// must fit `u64`.
    pub fn new(rules: Vec<(u32, u32)>) -> Result<SlpRules, SpannerError> {
        if rules.len() > (u32::MAX - FIRST_NONTERMINAL) as usize {
            return Err(SpannerError::InvalidConfig { what: "too many SLP rules for u32 symbols" });
        }
        let mut lens: Vec<u64> = Vec::with_capacity(rules.len());
        for (k, &(l, r)) in rules.iter().enumerate() {
            let bound = FIRST_NONTERMINAL + k as u32;
            if l >= bound || r >= bound {
                return Err(SpannerError::InvalidConfig {
                    what: "SLP rule references an undefined or later symbol",
                });
            }
            let len_of = |s: u32| -> u64 {
                if s < FIRST_NONTERMINAL {
                    1
                } else {
                    lens[(s - FIRST_NONTERMINAL) as usize]
                }
            };
            let len = len_of(l).checked_add(len_of(r)).ok_or(SpannerError::InvalidConfig {
                what: "SLP expansion length overflows u64",
            })?;
            lens.push(len);
        }
        Ok(SlpRules { id: next_engine_id(), rules, lens })
    }

    /// An empty rule set (documents are then plain terminal sequences).
    pub fn empty() -> SlpRules {
        SlpRules::new(Vec::new()).expect("empty rule set is always valid")
    }

    /// Process-unique identity of this rule set (memo keying).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of rules.
    #[inline]
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The `(left, right)` pair of nonterminal symbol `sym`.
    #[inline]
    pub(crate) fn rule(&self, sym: u32) -> (u32, u32) {
        self.rules[(sym - FIRST_NONTERMINAL) as usize]
    }

    /// Expansion length of `sym` in bytes.
    #[inline]
    pub fn symbol_len(&self, sym: u32) -> u64 {
        if sym < FIRST_NONTERMINAL {
            1
        } else {
            self.lens[(sym - FIRST_NONTERMINAL) as usize]
        }
    }
}

/// One SLP-compressed document: a shared rule set plus the top-level symbol
/// sequence whose expansion is the document.
///
/// Build one offline with `spanners-workloads`' Re-Pair-style builder, or
/// [`Slp::literal`] for an uncompressed terminal sequence. Evaluate with
/// [`SlpEvaluator`] through the
/// [`CompiledSpanner`](crate::CompiledSpanner::count_slp_with) facades.
#[derive(Debug, Clone)]
pub struct Slp {
    rules: Arc<SlpRules>,
    sequence: Vec<u32>,
    /// Total expansion length in bytes.
    len: u64,
}

impl Slp {
    /// Packages a compressed document, validating that the sequence only
    /// references defined symbols and that the expansion length fits `u64`.
    pub fn new(rules: Arc<SlpRules>, sequence: Vec<u32>) -> Result<Slp, SpannerError> {
        let bound = FIRST_NONTERMINAL + rules.num_rules() as u32;
        let mut len = 0u64;
        for &sym in &sequence {
            if sym >= bound {
                return Err(SpannerError::InvalidConfig {
                    what: "SLP sequence references an undefined symbol",
                });
            }
            len = len
                .checked_add(rules.symbol_len(sym))
                .ok_or(SpannerError::InvalidConfig { what: "SLP document length overflows u64" })?;
        }
        Ok(Slp { rules, sequence, len })
    }

    /// An uncompressed SLP: every byte of `bytes` as a terminal symbol.
    pub fn literal(bytes: &[u8]) -> Slp {
        let rules = Arc::new(SlpRules::empty());
        let sequence = bytes.iter().map(|&b| b as u32).collect();
        Slp::new(rules, sequence).expect("terminal sequences are always valid")
    }

    /// The shared rule set.
    #[inline]
    pub fn rules(&self) -> &Arc<SlpRules> {
        &self.rules
    }

    /// The top-level symbol sequence.
    #[inline]
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Length of the decompressed document in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the decompressed document is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in symbols: the top-level sequence plus two symbols
    /// per rule (the grammar is shared across a corpus, so per-document cost
    /// is dominated by the sequence).
    pub fn compressed_size(&self) -> usize {
        self.sequence.len() + 2 * self.rules.num_rules()
    }

    /// `decompressed bytes / compressed symbols` — the factor the
    /// grammar-aware engine's per-document work is divided by.
    pub fn compression_ratio(&self) -> f64 {
        self.len as f64 / self.compressed_size().max(1) as f64
    }

    /// Expands the SLP into `out` (cleared first), iteratively — grammars
    /// from the Re-Pair builder can be deep, so no recursion.
    pub fn decompress_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(usize::try_from(self.len).unwrap_or(0));
        let mut stack: Vec<u32> = Vec::new();
        for &top in &self.sequence {
            stack.push(top);
            while let Some(sym) = stack.pop() {
                if sym < FIRST_NONTERMINAL {
                    out.push(sym as u8);
                } else {
                    let (l, r) = self.rules.rule(sym);
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
    }

    /// Expands the SLP into a fresh [`Document`].
    pub fn decompress(&self) -> Document {
        let mut bytes = Vec::new();
        self.decompress_into(&mut bytes);
        Document::new(bytes)
    }
}

/// Reference to a memoized (or scratch-computed) row.
#[derive(Debug, Clone, Copy)]
enum RowRef {
    /// The row lives in the terminal scratch buffer.
    Term,
    /// Row `r` of the local memo.
    Local(u32),
    /// Row `r` of the shared (frozen-attached) memo.
    Shared(u32),
}

/// Chain terminator of [`RowTable`]'s head slots and links.
const NO_ROW: u32 = u32::MAX;

/// Index bytes of one memoized row: its `(state, next)` chain link, its
/// end offset, and at most one touched-head entry.
const ROW_COST: usize = 8 + 4 + std::mem::size_of::<usize>();

/// The memoized rows of one kind, per `(rule-set id, symbol, source det
/// state)`: a flat CSR-style arena behind a dense index. Each rule set owns
/// one head slot per nonterminal; each row carries a `(state, next)` link
/// chaining the rows of its `(rule set, symbol)`, so a lookup walks at most
/// one row per memoized source state and never hashes.
#[derive(Debug, Clone, Default)]
struct RowTable<E> {
    /// `(rule-set id, first head slot)` per registered rule set — usually
    /// one.
    grammars: Vec<(u64, usize)>,
    /// Newest row of each `(rule set, nonterminal)` chain, or [`NO_ROW`].
    heads: Vec<u32>,
    /// The non-empty head slots, so a clear costs O(rows held).
    touched: Vec<usize>,
    /// Per row: `(source state, next row of the same chain)`.
    chain: Vec<(u32, u32)>,
    /// Per row: end offset of its entries in `arena`.
    ends: Vec<u32>,
    arena: Vec<E>,
}

impl<E: Copy> RowTable<E> {
    /// Drops every row, keeping all capacity and the head tables.
    fn clear(&mut self) {
        for &slot in &self.touched {
            self.heads[slot] = NO_ROW;
        }
        self.touched.clear();
        self.chain.clear();
        self.ends.clear();
        self.arena.clear();
    }

    /// Bytes held: arena entries, [`ROW_COST`] per row, and the head slots.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.arena.as_slice())
            + self.chain.len() * ROW_COST
            + std::mem::size_of_val(self.heads.as_slice())
    }

    /// Allocated bytes of every buffer (allocation-retention diagnostics).
    fn capacity_bytes(&self) -> usize {
        self.grammars.capacity() * std::mem::size_of::<(u64, usize)>()
            + (self.heads.capacity() + self.ends.capacity()) * 4
            + self.touched.capacity() * std::mem::size_of::<usize>()
            + self.chain.capacity() * 8
            + self.arena.capacity() * std::mem::size_of::<E>()
    }

    /// First head slot of rule set `gid`, searching newest first: the
    /// current document's rule set is almost always the last registered.
    fn base(&self, gid: u64) -> Option<usize> {
        self.grammars.iter().rev().find(|g| g.0 == gid).map(|g| g.1)
    }

    /// The row of `(gid, sym, q)`, if memoized.
    fn find(&self, gid: u64, sym: u32, q: u32) -> Option<u32> {
        let base = self.base(gid)?;
        let mut r = self.heads[base + (sym - FIRST_NONTERMINAL) as usize];
        while r != NO_ROW {
            let (state, next) = self.chain[r as usize];
            if state == q {
                return Some(r);
            }
            r = next;
        }
        None
    }

    /// The entries of row `r`.
    fn row(&self, r: u32) -> &[E] {
        let r = r as usize;
        let start = if r == 0 { 0 } else { self.ends[r - 1] as usize };
        &self.arena[start..self.ends[r] as usize]
    }

    /// Memoizes `row` as the row of `(rules, sym, q)`, registering the rule
    /// set on first use. While no rows are held every head slot is empty,
    /// so the first insert after a clear drops the other rule sets' slots
    /// and reuses the retained head table; for the same rule set, as in
    /// frozen runs that clear per document, it writes nothing.
    fn push(&mut self, rules: &SlpRules, sym: u32, q: u32, row: &[E]) {
        let (gid, n) = (rules.id(), rules.num_rules());
        if self.chain.is_empty() {
            self.grammars.clear();
            self.grammars.push((gid, 0));
            self.heads.resize(n, NO_ROW);
        }
        let base = self.base(gid).unwrap_or_else(|| {
            let base = self.heads.len();
            self.heads.resize(base + n, NO_ROW);
            self.grammars.push((gid, base));
            base
        });
        let slot = base + (sym - FIRST_NONTERMINAL) as usize;
        let head = self.heads[slot];
        if head == NO_ROW {
            self.touched.push(slot);
        }
        self.heads[slot] = self.chain.len() as u32;
        self.chain.push((q, head));
        self.arena.extend_from_slice(row);
        self.ends.push(self.arena.len() as u32);
    }
}

/// Memo tables: the mapping-count rows (for counting) and the
/// reachable-state rows (for acceptance).
#[derive(Debug, Clone, Default)]
struct RowTables {
    counts: RowTable<(u32, u64)>,
    sets: RowTable<u32>,
}

impl RowTables {
    fn clear(&mut self) {
        self.counts.clear();
        self.sets.clear();
    }

    fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    fn num_rows(&self) -> usize {
        self.counts.chain.len() + self.sets.chain.len()
    }

    fn bytes(&self) -> usize {
        self.counts.bytes() + self.sets.bytes()
    }
}

/// A memo row entry: `(end state, partial-mapping count)` in counting
/// rows, the bare end state in acceptance rows. Composition is generic over
/// the two: counts scale and add, reachable-state sets union.
trait Entry: Copy + Default {
    /// Whether terminal rows are also projected into this lane's scratch.
    const PROJECT: bool;
    /// What a document fold over these rows yields.
    type Out;
    fn state(self) -> u32;
    fn with_state(self, q: u32) -> Self;
    /// Folds `row` — the row read from this entry's end state — into `acc`.
    fn fold(self, row: &[Self], acc: &mut Vec<Self>) -> Result<(), SpannerError>;
    /// Sorts `acc` by end state and merges duplicate states.
    fn normalize(acc: &mut Vec<Self>) -> Result<(), SpannerError>;
    fn table(memo: &RowTables) -> &RowTable<Self>;
    fn table_mut(memo: &mut RowTables) -> &mut RowTable<Self>;
    fn lane(ws: &Workspace) -> &Lane<Self>;
    fn lane_mut(ws: &mut Workspace) -> &mut Lane<Self>;
    /// The fold's entry for the initial state `q`.
    fn start(q: u32) -> Self;
    /// The fold's result from its final frontier (empty when it died).
    fn finish<S: Stepper>(ws: &mut Workspace, st: &mut S) -> Result<Self::Out, SpannerError>;
}

impl Entry for (u32, u64) {
    const PROJECT: bool = false;
    type Out = u64;
    fn state(self) -> u32 {
        self.0
    }
    fn with_state(self, q: u32) -> Self {
        (q, self.1)
    }
    fn fold(self, row: &[Self], acc: &mut Vec<Self>) -> Result<(), SpannerError> {
        for &(p, w) in row {
            acc.push((p, self.1.checked_mul(w).ok_or(SpannerError::CountOverflow)?));
        }
        Ok(())
    }
    fn normalize(acc: &mut Vec<Self>) -> Result<(), SpannerError> {
        acc.sort_unstable_by_key(|&(p, _)| p);
        merge_sorted_counts(acc)
    }
    fn table(memo: &RowTables) -> &RowTable<Self> {
        &memo.counts
    }
    fn table_mut(memo: &mut RowTables) -> &mut RowTable<Self> {
        &mut memo.counts
    }
    fn lane(ws: &Workspace) -> &Lane<Self> {
        &ws.counts
    }
    fn lane_mut(ws: &mut Workspace) -> &mut Lane<Self> {
        &mut ws.counts
    }
    fn start(q: u32) -> Self {
        (q, 1)
    }
    /// The mapping count: partial-mapping counts times the final-capture
    /// weights — matches `CountCache` on the decompressed document.
    fn finish<S: Stepper>(ws: &mut Workspace, st: &mut S) -> Result<u64, SpannerError> {
        let mut total = 0u64;
        for fi in 0..ws.counts.front.len() {
            let (q, c) = ws.counts.front[fi];
            let add = c.checked_mul(ws.weight(st, q)).ok_or(SpannerError::CountOverflow)?;
            total = total.checked_add(add).ok_or(SpannerError::CountOverflow)?;
        }
        Ok(total)
    }
}

impl Entry for u32 {
    const PROJECT: bool = true;
    type Out = bool;
    fn state(self) -> u32 {
        self
    }
    fn with_state(self, q: u32) -> Self {
        q
    }
    fn fold(self, row: &[Self], acc: &mut Vec<Self>) -> Result<(), SpannerError> {
        acc.extend_from_slice(row);
        Ok(())
    }
    fn normalize(acc: &mut Vec<Self>) -> Result<(), SpannerError> {
        acc.sort_unstable();
        acc.dedup();
        Ok(())
    }
    fn table(memo: &RowTables) -> &RowTable<Self> {
        &memo.sets
    }
    fn table_mut(memo: &mut RowTables) -> &mut RowTable<Self> {
        &mut memo.sets
    }
    fn lane(ws: &Workspace) -> &Lane<Self> {
        &ws.sets
    }
    fn lane_mut(ws: &mut Workspace) -> &mut Lane<Self> {
        &mut ws.sets
    }
    fn start(q: u32) -> Self {
        q
    }
    /// Acceptance (no overflow): whether any live state has a positive
    /// final-capture weight — matches `DetSeva::accepts` on the
    /// decompressed document.
    fn finish<S: Stepper>(ws: &mut Workspace, st: &mut S) -> Result<bool, SpannerError> {
        for li in 0..ws.sets.front.len() {
            if ws.weight(st, ws.sets.front[li]) > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// An immutable snapshot of warm memo tables, attached to a
/// [`FrozenCache`](crate::FrozenCache) and shared read-only across batch workers (`Send + Sync`
/// — plain data). Built by [`crate::CompiledSpanner::freeze_warm_slp`]: the
/// rows were computed against the pre-freeze [`LazyCache`], and freezing
/// preserves state ids, so they remain valid against the snapshot.
#[derive(Debug, Clone)]
pub struct SlpSharedMemo {
    tables: RowTables,
}

impl SlpSharedMemo {
    /// Approximate bytes held by the shared rows and their index.
    pub fn memory_bytes(&self) -> usize {
        self.tables.bytes()
    }

    /// Number of memoized `(rule set, symbol, state)` rows.
    pub fn num_rows(&self) -> usize {
        self.tables.num_rows()
    }
}

/// One explicit-stack frame of the bottom-up row computation:
/// `row(sym, q) = Σ_{(p, c) ∈ row(left, q)} c · row(right, p)` for counts,
/// `⋃_{p ∈ row(left, q)} row(right, p)` for reachable-state sets.
#[derive(Debug, Default)]
struct Frame<E> {
    sym: u32,
    q: u32,
    left_ready: bool,
    idx: usize,
    left: Vec<E>,
    acc: Vec<E>,
}

/// The retained-capacity scratch of one entry type: the frame stack of the
/// bottom-up computation, the terminal row, and the document fold's
/// frontier.
#[derive(Debug, Default)]
struct Lane<E> {
    frames: Vec<Frame<E>>,
    free: Vec<Frame<E>>,
    /// Terminal row scratch.
    term: Vec<E>,
    /// Document-fold frontier and its successor.
    front: Vec<E>,
    next: Vec<E>,
}

impl<E: Entry> Lane<E> {
    fn take_frame(&mut self, sym: u32, q: u32) -> Frame<E> {
        let mut f = self.free.pop().unwrap_or_default();
        f.sym = sym;
        f.q = q;
        f.left_ready = false;
        f.idx = 0;
        f.left.clear();
        f.acc.clear();
        f
    }
}

/// The reusable workspace of one evaluator: memo tables, frame stacks and
/// scratch buffers, all retained-capacity across documents.
#[derive(Debug)]
struct Workspace {
    memo: RowTables,
    /// `(engine id, epoch)` the local memo rows are valid for. Engine ids
    /// come from the shared process-wide counter ([`next_engine_id`]), so
    /// one pair disambiguates eager/lazy/frozen contexts; the epoch is the
    /// lazy cache's clear count (state ids move on eviction) or a
    /// per-document generation for frozen runs (delta-local ids die with
    /// the per-document delta reset).
    ctx: (u64, u64),
    /// Effective memo byte budget for the current run.
    budget: usize,
    /// Budget-driven memo clears over the evaluator's lifetime.
    clears: u64,
    /// Rows computed over the evaluator's lifetime (cache-efficiency
    /// diagnostic: `rows_built - memo.num_rows()` is recompute waste).
    rows_built: u64,
    checker: LimitChecker,
    counts: Lane<(u32, u64)>,
    sets: Lane<u32>,
    /// Capture sources of one terminal row: the state plus its marker
    /// targets (one entry per marker pair — multiplicity is mapping count).
    srcs: Vec<u32>,
    /// Maintenance scratch (live ids handed to [`Stepper::maintain`]).
    maint: Vec<u32>,
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace {
            memo: RowTables::default(),
            ctx: (0, 0),
            budget: DEFAULT_MEMO_BUDGET,
            clears: 0,
            rows_built: 0,
            checker: LimitChecker::unlimited(),
            counts: Lane::default(),
            sets: Lane::default(),
            srcs: Vec::new(),
            maint: Vec::new(),
        }
    }
}

impl Workspace {
    /// Starts one evaluation: arms the limit checker, sets the effective
    /// memo budget, and drops memoized rows if the engine context changed
    /// (different automaton/snapshot, or state ids moved since).
    fn begin(&mut self, limits: &EvalLimits, engine: u64, epoch: u64, budget: usize) {
        self.checker = LimitChecker::start(limits);
        self.budget = budget;
        if self.ctx != (engine, epoch) {
            self.memo.clear();
            self.ctx = (engine, epoch);
        }
    }

    /// Runs the clear-and-restart eviction protocol when the underlying
    /// cache is over budget: the frontier's ids are handed to
    /// [`Stepper::maintain`], remapped in place, and the local memo — whose
    /// rows reference pre-eviction ids — is dropped. The grammar-side
    /// counterpart of the [`crate::driver::Driver`]'s maintenance point: the remap
    /// completes even when the thrash guard trips, so the error is
    /// propagated *after* the state is consistent again.
    fn maintain<S: Stepper, E: Entry>(&mut self, st: &mut S) -> Result<(), SpannerError> {
        if !st.wants_maintenance() {
            return Ok(());
        }
        let mut ids = std::mem::take(&mut self.maint);
        ids.clear();
        ids.extend(E::lane(self).front.iter().map(|e| e.state()));
        let remapped = st.maintain(&mut ids);
        if remapped {
            for (e, &q) in E::lane_mut(self).front.iter_mut().zip(&ids) {
                *e = e.with_state(q);
            }
        }
        self.maint = ids;
        if !remapped {
            return Ok(());
        }
        self.memo.clear();
        // Evictions remap state ids exactly once per clear, so bumping the
        // epoch keeps rows memoized *after* this point valid for the next
        // run against the same cache.
        self.ctx.1 += 1;
        self.checker.note_clear()
    }

    /// Computes the terminal count row for reading byte `b` from state `q`
    /// into the count lane's scratch: `Capture` forks `{q: 1}` into `q` plus
    /// one entry per marker pair (the phase-start snapshot means marker
    /// steps do not chain), then `Read` steps every source on `b`'s class.
    /// Its states, sorted and distinct, are the terminal set row, projected
    /// into the set lane's scratch when `project` is on.
    fn terminal_row<S: Stepper>(&mut self, st: &mut S, b: u8, q: u32, project: bool) {
        self.srcs.clear();
        self.srcs.push(q);
        let qq = q as usize;
        if st.has_markers(qq) {
            for &(_, r) in st.markers_from(qq) {
                self.srcs.push(r as u32);
            }
        }
        let cls = st.byte_class(b);
        let trow = &mut self.counts.term;
        trow.clear();
        for &src in &self.srcs {
            if let Some(t) = st.step_class(src as usize, cls) {
                trow.push((t as u32, 1));
            }
        }
        trow.sort_unstable_by_key(|&(p, _)| p);
        merge_sorted_counts_saturating(trow);
        if project {
            self.sets.term.clear();
            self.sets.term.extend(trow.iter().map(|&(p, _)| p));
        }
    }

    /// The final-`Capturing` weight of state `q`: how many mappings one
    /// partial mapping ending in `q` contributes after the end-of-document
    /// capture step — `[q final] + #{marker pairs of q with a final target}`.
    fn weight<S: Stepper>(&mut self, st: &mut S, q: u32) -> u64 {
        let qq = q as usize;
        let mut w = u64::from(st.is_final(qq));
        if st.has_markers(qq) {
            self.srcs.clear();
            for &(_, r) in st.markers_from(qq) {
                self.srcs.push(r as u32);
            }
            for i in 0..self.srcs.len() {
                w += u64::from(st.is_final(self.srcs[i] as usize));
            }
        }
        w
    }

    /// The entries of the referenced row.
    fn row<'a, E: Entry>(&'a self, rref: RowRef, shared: Option<&'a RowTables>) -> &'a [E] {
        match rref {
            RowRef::Term => &E::lane(self).term,
            RowRef::Local(r) => E::table(&self.memo).row(r),
            RowRef::Shared(r) => E::table(shared.expect("shared ref")).row(r),
        }
    }

    /// Memoizes a freshly computed row, clearing the tables first if the
    /// budget would be exceeded (clear-and-restart: memoized rows are
    /// deterministic, so recomputation on demand is always correct). A
    /// budget clear counts against [`EvalLimits::max_cache_clears`], so
    /// persistent memo thrash surfaces as the same recoverable
    /// `BudgetExceeded` the degradation ladder keys on; the clear completes
    /// before the verdict propagates, leaving the tables consistent.
    fn insert<E: Entry>(
        &mut self,
        rules: &SlpRules,
        sym: u32,
        q: u32,
        row: &[E],
    ) -> Result<(), SpannerError> {
        let cost = std::mem::size_of_val(row) + ROW_COST;
        if self.memo.bytes() + cost > self.budget && !self.memo.is_empty() {
            self.memo.clear();
            self.clears += 1;
            self.checker.note_clear()?;
        }
        E::table_mut(&mut self.memo).push(rules, sym, q, row);
        self.rows_built += 1;
        Ok(())
    }

    /// Resolves the row of `(sym, q)` without descending: terminal rows are
    /// computed inline (into the lane scratch), nonterminal rows come from
    /// the local or shared memo. `None` means "not memoized yet".
    fn quick_row<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        gid: u64,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Option<RowRef> {
        if sym < FIRST_NONTERMINAL {
            self.terminal_row(st, sym as u8, q, E::PROJECT);
            return Some(RowRef::Term);
        }
        if let Some(r) = E::table(&self.memo).find(gid, sym, q) {
            return Some(RowRef::Local(r));
        }
        shared.and_then(|sh| E::table(sh).find(gid, sym, q)).map(RowRef::Shared)
    }

    /// The row of `(sym, q)`, memoizing nonterminals on first use.
    fn ensure_row<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Result<RowRef, SpannerError> {
        let gid = rules.id();
        if let Some(rref) = self.quick_row::<_, E>(st, gid, sym, q, shared) {
            return Ok(rref);
        }
        self.compute_row::<_, E>(st, rules, sym, q, shared)?;
        let r = E::table(&self.memo).find(gid, sym, q).expect("row memoized by compute_row");
        Ok(RowRef::Local(r))
    }

    /// Computes and memoizes the row of nonterminal `(root_sym, root_q)`
    /// with an explicit frame stack (Re-Pair grammars can be deep).
    /// Demand-driven: only rows reachable from live frontier states are
    /// computed, which also bounds every intermediate count by a count the
    /// byte engine would hold at some document position. On error every
    /// frame is recycled (capacity retained), so the evaluator stays
    /// reusable.
    fn compute_row<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        root_sym: u32,
        root_q: u32,
        shared: Option<&RowTables>,
    ) -> Result<(), SpannerError> {
        let lane = E::lane_mut(self);
        debug_assert!(lane.frames.is_empty());
        let root = lane.take_frame(root_sym, root_q);
        lane.frames.push(root);
        while let Some(mut f) = E::lane_mut(self).frames.pop() {
            let step = self.advance(st, rules, shared, &mut f);
            let lane = E::lane_mut(self);
            match step {
                Ok(None) => lane.free.push(f),
                Ok(Some((sym, q))) => {
                    let child = lane.take_frame(sym, q);
                    lane.frames.push(f);
                    lane.frames.push(child);
                }
                Err(e) => {
                    lane.free.push(f);
                    lane.free.append(&mut lane.frames);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Advances frame `f` as far as memoized rows allow: `Ok(Some(child))`
    /// names the `(symbol, state)` row it waits for, `Ok(None)` means its
    /// own row is complete and memoized.
    fn advance<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        shared: Option<&RowTables>,
        f: &mut Frame<E>,
    ) -> Result<Option<(u32, u32)>, SpannerError> {
        self.checker.tick()?;
        let gid = rules.id();
        let (lsym, rsym) = rules.rule(f.sym);
        if !f.left_ready {
            let Some(rref) = self.quick_row::<_, E>(st, gid, lsym, f.q, shared) else {
                return Ok(Some((lsym, f.q)));
            };
            f.left.extend_from_slice(self.row(rref, shared));
            f.left_ready = true;
        }
        while f.idx < f.left.len() {
            self.checker.tick()?;
            let e = f.left[f.idx];
            let Some(rref) = self.quick_row::<_, E>(st, gid, rsym, e.state(), shared) else {
                return Ok(Some((rsym, e.state())));
            };
            e.fold(self.row(rref, shared), &mut f.acc)?;
            f.idx += 1;
        }
        // All right rows folded in: merge duplicate end states and
        // memoize. The insert always lands (clear-and-restart first if
        // over budget), so the parent's next lookup is a guaranteed hit.
        E::normalize(&mut f.acc)?;
        self.insert(rules, f.sym, f.q, &f.acc)?;
        Ok(None)
    }

    /// One document: the fold from the initial state, then the result read
    /// off the final frontier (counting rows give the mapping count, set
    /// rows the match verdict).
    fn run<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        slp: &Slp,
        shared: Option<&RowTables>,
    ) -> Result<E::Out, SpannerError> {
        let start = E::start(st.start_state() as u32);
        self.compose(st, slp, shared, start)?;
        E::finish(self, st)
    }

    /// The document fold: starting from `start`, applies each sequence
    /// symbol's memoized row to the lane's frontier — byte-identical to the
    /// byte engines' per-position loop on the decompressed document
    /// (`tests/slp.rs` pins this). The frontier is left in the lane (empty
    /// once it died), remapped past the last maintenance point.
    fn compose<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        slp: &Slp,
        shared: Option<&RowTables>,
        start: E,
    ) -> Result<(), SpannerError> {
        // At least one tick per document, so zero deadlines and injected
        // expirations trip even on empty sequences.
        self.checker.tick()?;
        let rules = slp.rules().clone();
        let lane = E::lane_mut(self);
        lane.front.clear();
        lane.front.push(start);
        for &sym in slp.sequence() {
            self.maintain::<_, E>(st)?;
            let mut next = std::mem::take(&mut E::lane_mut(self).next);
            next.clear();
            let res = self.apply(st, &rules, sym, shared, &mut next);
            let lane = E::lane_mut(self);
            lane.next = std::mem::replace(&mut lane.front, next);
            res?;
            if E::lane(self).front.is_empty() {
                return Ok(());
            }
        }
        self.maintain::<_, E>(st)
    }

    /// Folds the row of `(sym, q)` for every frontier entry into `next`.
    fn apply<S: Stepper, E: Entry>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        sym: u32,
        shared: Option<&RowTables>,
        next: &mut Vec<E>,
    ) -> Result<(), SpannerError> {
        for i in 0..E::lane(self).front.len() {
            self.checker.tick()?;
            let e = E::lane(self).front[i];
            let rref = self.ensure_row::<_, E>(st, rules, sym, e.state(), shared)?;
            e.fold(self.row(rref, shared), next)?;
        }
        E::normalize(next)
    }
}

/// Merges adjacent duplicate states of a sorted `(state, count)` row,
/// summing counts with checked arithmetic.
fn merge_sorted_counts(row: &mut Vec<(u32, u64)>) -> Result<(), SpannerError> {
    let mut out = 0usize;
    for i in 0..row.len() {
        if out > 0 && row[out - 1].0 == row[i].0 {
            row[out - 1].1 =
                row[out - 1].1.checked_add(row[i].1).ok_or(SpannerError::CountOverflow)?;
        } else {
            row[out] = row[i];
            out += 1;
        }
    }
    row.truncate(out);
    Ok(())
}

/// [`merge_sorted_counts`] for terminal rows, where every count is `1` and
/// the sum is bounded by the row length — saturation can never be observed,
/// it just keeps this helper infallible.
fn merge_sorted_counts_saturating(row: &mut Vec<(u32, u64)>) {
    let mut out = 0usize;
    for i in 0..row.len() {
        if out > 0 && row[out - 1].0 == row[i].0 {
            row[out - 1].1 = row[out - 1].1.saturating_add(row[i].1);
        } else {
            row[out] = row[i];
            out += 1;
        }
    }
    row.truncate(out);
}

/// The grammar-aware evaluation engine: counts mappings and decides matches
/// over [`Slp`]-compressed documents **without decompressing**, in time
/// proportional to the compressed size once its per-`(symbol, state)` memo
/// is warm.
///
/// It has one fallible method per task, [`SlpEvaluator::count`] and
/// [`SlpEvaluator::accepts`], each taking the engine as a [`Target`] —
/// `&DetSeva`, `&LazyDetSeva`, `(&LazyDetSeva, &FrozenCache)`, or
/// [`crate::CompiledSpanner::target`] — and honouring the configured
/// [`EvalLimits`] on every target. The evaluator owns the per-worker halves
/// of whichever engine it is driven against in the
/// [`crate::driver::Driver`]'s cache slot — a [`LazyCache`] stepped live for
/// lazy automata, or over one of the shared frozen snapshots of the batch
/// runtime (a [`FrozenDelta`]) — plus the memo tables and scratch, all
/// retained-capacity across documents. Counts are `u64` (the batch
/// runtime's counting type); wider counts can always fall back to the byte
/// engines on the decompressed document.
///
/// ```
/// # use spanners_core::{ByteClass, CompiledSpanner, EnginePolicy, EvaBuilder, MarkerSet};
/// # use spanners_core::{Slp, SlpEvaluator, SpannerError, VarRegistry};
/// # let mut reg = VarRegistry::new();
/// # let x = reg.intern("x").unwrap();
/// # let mut b = EvaBuilder::new(reg);
/// # let q0 = b.add_state();
/// # let q1 = b.add_state();
/// # let q2 = b.add_state();
/// # b.set_initial(q0);
/// # b.set_final(q2);
/// # let any = ByteClass::any();
/// # b.add_letter(q0, any, q0);
/// # b.add_letter(q1, any, q1);
/// # b.add_letter(q2, any, q2);
/// # b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
/// # b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
/// # let eva = b.build().unwrap();
/// // x captures every non-empty span: C(5, 2) = 10 spans of "abcd".
/// let lazy = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy)?;
/// let doc = Slp::literal(b"abcd");
/// let frozen = lazy.freeze_warm_slp(std::slice::from_ref(&doc)).expect("lazy spanners freeze");
/// let mut evaluator = SlpEvaluator::new();
/// assert_eq!(evaluator.count(lazy.target(None), &doc)?, 10);
/// assert_eq!(evaluator.count(lazy.target(Some(&frozen)), &doc)?, 10);
/// assert!(evaluator.accepts(lazy.target(None), &doc)?);
/// # Ok::<(), SpannerError>(())
/// ```
#[derive(Debug, Default)]
pub struct SlpEvaluator {
    ws: Workspace,
    slot: CacheSlot,
    /// Per-frozen-run generation: delta-local state ids die with the
    /// per-document delta reset, so each frozen run gets a fresh epoch.
    frozen_gen: u64,
    limits: EvalLimits,
    memo_budget: usize,
    memo_budget_override: Option<usize>,
}

impl SlpEvaluator {
    /// A fresh evaluator with the default memo budget and no limits.
    pub fn new() -> SlpEvaluator {
        SlpEvaluator { memo_budget: DEFAULT_MEMO_BUDGET, ..SlpEvaluator::default() }
    }

    /// Sets the per-document evaluation limits (steps, deadlines, thrash
    /// guard) applied by subsequent runs.
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.limits = limits;
    }

    /// Overrides the byte budget of the embedded determinization cache /
    /// overflow delta (`None` restores the automaton's configured budget) —
    /// the degradation-ladder hook, as [`crate::driver::Driver::set_cache_budget_override`].
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.slot.budget_override = budget;
    }

    /// Sets the byte budget of the memo tables (rows are cleared and
    /// recomputed on demand past it).
    pub fn set_memo_budget(&mut self, budget: usize) {
        self.memo_budget = budget;
    }

    /// One-off override of the memo budget (`None` restores
    /// [`SlpEvaluator::set_memo_budget`]'s value) — the ladder's boost hook.
    pub fn set_memo_budget_override(&mut self, budget: Option<usize>) {
        self.memo_budget_override = budget;
    }

    /// The memo byte budget subsequent runs will enforce.
    pub fn memo_budget(&self) -> usize {
        self.memo_budget_override.unwrap_or(self.memo_budget)
    }

    /// Approximate bytes currently held by the memo tables: row entries,
    /// the per-row index, and the per-rule-set head tables.
    pub fn memo_bytes(&self) -> usize {
        self.ws.memo.bytes()
    }

    /// Number of `(rule set, symbol, state)` rows currently memoized.
    pub fn memo_rows(&self) -> usize {
        self.ws.memo.num_rows()
    }

    /// Budget-driven memo clears over the evaluator's lifetime (context
    /// switches and eviction-driven invalidations are not counted).
    pub fn memo_clears(&self) -> u64 {
        self.ws.clears
    }

    /// Rows computed over the evaluator's lifetime, including rows rebuilt
    /// after budget clears — `rows_built() - memo_rows()` measures
    /// composition work wasted to memo thrashing.
    pub fn rows_built(&self) -> u64 {
        self.ws.rows_built
    }

    /// Total bytes held: memo tables plus the embedded cache or delta.
    pub fn memory_bytes(&self) -> usize {
        self.ws.memo.bytes() + self.slot.governed_bytes()
    }

    /// Capacity snapshot for allocation-retention assertions: the embedded
    /// cache/delta buffers in the first eight slots (zeros when the
    /// evaluator has only driven eager automata), the allocated bytes of the
    /// SLP count and set memo tables (arena plus index) in the last two —
    /// the E10b diagnostics see SLP memory through the same lens as the
    /// determinization caches.
    pub fn capacity_signature(&self) -> CapacitySignature {
        let mut sig = self
            .slot
            .stores()
            .next()
            .map_or(CapacitySignature([0; 10]), LazyCache::capacity_signature);
        sig.0[8] = self.ws.memo.counts.capacity_bytes();
        sig.0[9] = self.ws.memo.sets.capacity_bytes();
        sig
    }

    /// Bytes currently held by this evaluator's **governed** memory — the
    /// same total as [`SlpEvaluator::memory_bytes`]: memo tables plus the
    /// embedded determinization cache or overflow delta, all of which a
    /// global [`crate::MemoryGovernor`] can shed.
    pub fn governed_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Sheds the determinization-side memory for the global governor
    /// (severity 1, as [`crate::driver::Driver::shed_cold_memory`]): drops the
    /// embedded lazy cache and [`LazyCache::shed`]s the overflow delta.
    /// The memo tables are untouched — they are severity 2, see
    /// [`SlpEvaluator::shed_memos`]. Returns the bytes freed.
    pub fn shed_cold_memory(&mut self) -> usize {
        self.slot.shed()
    }

    /// Sheds the SLP memo tables for the global governor (severity 2 of the
    /// shedding ladder): every memoized row and head table is freed and
    /// rows are recomputed on demand, exactly as after a budget-driven
    /// clear — results stay byte-identical. Returns the bytes freed. Unlike budget clears, a
    /// governor shed is **not** counted by [`SlpEvaluator::memo_clears`]
    /// and never trips the per-document thrash guard.
    pub fn shed_memos(&mut self) -> usize {
        let freed = self.ws.memo.bytes();
        self.ws.memo = RowTables::default();
        freed
    }

    /// The embedded lazy determinization cache, if the evaluator has driven
    /// a lazy automaton (the freeze source of
    /// [`crate::CompiledSpanner::freeze_warm_slp`]).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.slot.lazy_cache()
    }

    /// The embedded frozen-overflow delta, if the evaluator has stepped
    /// through a frozen snapshot.
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.slot.frozen_delta()
    }

    /// Snapshots the current memo into an immutable [`SlpSharedMemo`].
    /// Only meaningful right after warm runs against the cache about to be
    /// frozen (freezing preserves state ids, so the rows stay valid against
    /// the snapshot); returns `None` when nothing is memoized.
    pub fn shared_memo_snapshot(&self) -> Option<SlpSharedMemo> {
        if self.ws.memo.is_empty() {
            return None;
        }
        Some(SlpSharedMemo { tables: self.ws.memo.clone() })
    }

    /// Counts `|⟦A⟧(d)|` over the compressed document through `target`,
    /// under the configured limits. Counts are byte-identical to
    /// [`crate::CountCache`] on [`Slp::decompress`]'s output.
    pub fn count<'t>(
        &mut self,
        target: impl Into<Target<'t>>,
        slp: &Slp,
    ) -> Result<u64, SpannerError> {
        self.fold_counts(target.into(), slp)
    }

    /// Whether the spanner produces at least one mapping on the compressed
    /// document — the acceptance fold over reachable-state sets, immune to
    /// count overflow.
    pub fn accepts<'t>(
        &mut self,
        target: impl Into<Target<'t>>,
        slp: &Slp,
    ) -> Result<bool, SpannerError> {
        self.fold_sets(target.into(), slp)
    }

    // The two folds behind non-generic bodies, so they are compiled in this
    // crate instead of being re-instantiated, less inlined, in every caller
    // (measured 10% slower on the slp-count benchmark's batch path).
    fn fold_counts(&mut self, target: Target<'_>, slp: &Slp) -> Result<u64, SpannerError> {
        self.run::<(u32, u64)>(target, slp)
    }

    fn fold_sets(&mut self, target: Target<'_>, slp: &Slp) -> Result<bool, SpannerError> {
        self.run::<u32>(target, slp)
    }

    /// Runs one document fold through `target` under the memo epoch rule of
    /// its engine:
    ///
    /// * eager: epoch 0 — state ids never move, so the memo persists across
    ///   documents and a corpus sharing one rule set is composed from one
    ///   bottom-up pass;
    /// * live lazy: the cache's eviction count — evictions move state ids,
    ///   so they drop the memo alongside the evicted states;
    /// * frozen: a fresh per-run generation — rows memoized by
    ///   [`crate::CompiledSpanner::freeze_warm_slp`] are read from the
    ///   snapshot's attached [`SlpSharedMemo`], and leftover rows land in the
    ///   local memo, which lives one document (delta-local state ids die
    ///   with the per-document delta reset).
    fn run<E: Entry>(&mut self, target: Target<'_>, slp: &Slp) -> Result<E::Out, SpannerError> {
        let (limits, budget, ws) = (self.limits, self.memo_budget(), &mut self.ws);
        match target {
            Target::Eager(det) => {
                ws.begin(&limits, det.id(), 0, budget);
                ws.run::<_, E>(&mut &*det, slp, None)
            }
            Target::Lazy(aut, None) => self.slot.with_stepper(aut, None, |stepper| {
                ws.begin(&limits, aut.id(), stepper.store().clear_count(), budget);
                ws.run::<_, E>(stepper, slp, None)
            }),
            Target::Lazy(aut, Some(frozen)) => {
                self.frozen_gen += 1;
                ws.begin(&limits, frozen.id(), self.frozen_gen, budget);
                let shared = frozen.slp_memo().map(|m| &m.tables);
                self.slot
                    .with_stepper(aut, Some(frozen), |stepper| ws.run::<_, E>(stepper, slp, shared))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::count::CountCache;
    use crate::det::DetSeva;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::spanner::{CompiledSpanner, EnginePolicy};
    use crate::variable::VarRegistry;

    /// `Σ* (x{a+}) Σ*`-ish spanner: captures every maximal-ish run of `a`s
    /// (one mapping per (start, end) pair reachable), deterministic.
    fn letter_runs_eva() -> crate::eva::Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_letter(q0, ByteClass::any(), q0);
        b.add_byte(q1, b'a', q1);
        b.add_letter(q2, ByteClass::any(), q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    fn doubling_slp(base: &str, doublings: usize) -> Slp {
        // sequence = one symbol expanding to base^(2^doublings)
        let mut rules: Vec<(u32, u32)> = Vec::new();
        let bytes = base.as_bytes();
        // Chain the base string into one symbol.
        let mut cur = bytes[0] as u32;
        for &b in &bytes[1..] {
            rules.push((cur, b as u32));
            cur = FIRST_NONTERMINAL + (rules.len() - 1) as u32;
        }
        for _ in 0..doublings {
            rules.push((cur, cur));
            cur = FIRST_NONTERMINAL + (rules.len() - 1) as u32;
        }
        Slp::new(Arc::new(SlpRules::new(rules).unwrap()), vec![cur]).unwrap()
    }

    #[test]
    fn rules_validation_rejects_forward_references() {
        assert!(SlpRules::new(vec![(256, 97)]).is_err(), "self reference must be rejected");
        assert!(SlpRules::new(vec![(97, 300)]).is_err(), "forward reference must be rejected");
        let rules = Arc::new(SlpRules::new(vec![(97, 98)]).unwrap());
        assert!(Slp::new(rules, vec![257]).is_err(), "undefined sequence symbol must be rejected");
    }

    #[test]
    fn decompress_expands_the_derivation() {
        let slp = doubling_slp("ab", 3);
        assert_eq!(slp.len(), 16);
        assert_eq!(slp.decompress().bytes(), b"abababababababab");
        assert!(slp.compression_ratio() > 1.0);
        let lit = Slp::literal(b"xyz");
        assert_eq!(lit.decompress().bytes(), b"xyz");
        assert_eq!(lit.len(), 3);
    }

    #[test]
    fn count_matches_byte_engine_on_expanded_document() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let mut ev = SlpEvaluator::new();
        let mut cache: CountCache<u64> = CountCache::new();
        for (base, doublings) in [("ab", 0), ("aab", 2), ("xaay", 3), ("a", 4)] {
            let slp = doubling_slp(base, doublings);
            let doc = slp.decompress();
            let expect: u64 = cache.count(&det, &doc).unwrap();
            assert_eq!(ev.count(&det, &slp).unwrap(), expect, "{base} ^ 2^{doublings}");
            assert_eq!(ev.accepts(&det, &slp).unwrap(), expect > 0);
        }
    }

    #[test]
    fn empty_and_literal_sequences_match_byte_engine() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let mut ev = SlpEvaluator::new();
        let mut cache: CountCache<u64> = CountCache::new();
        for text in ["", "a", "baaab", "zzz"] {
            let slp = Slp::literal(text.as_bytes());
            let doc = Document::from(text);
            let expect: u64 = cache.count(&det, &doc).unwrap();
            assert_eq!(ev.count(&det, &slp).unwrap(), expect, "{text:?}");
            assert_eq!(ev.accepts(&det, &slp).unwrap(), det.accepts(&doc), "{text:?}");
        }
    }

    #[test]
    fn lazy_and_frozen_paths_match_eager() {
        let eva = letter_runs_eva();
        let spanner = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
        let lazy = spanner.lazy_automaton().unwrap();
        let det = DetSeva::compile(&eva).unwrap();
        let slps: Vec<Slp> =
            [("aab", 2), ("xaay", 3)].iter().map(|&(base, d)| doubling_slp(base, d)).collect();
        let mut eager = SlpEvaluator::new();
        let mut ev = SlpEvaluator::new();
        for slp in &slps {
            let expect = eager.count(&det, slp).unwrap();
            assert_eq!(ev.count(lazy, slp).unwrap(), expect);
            assert_eq!(ev.accepts(lazy, slp).unwrap(), expect > 0);
        }
        // Freeze the warm cache (memo attached) and re-check through the
        // frozen/delta split.
        let frozen = spanner.freeze_warm_slp(&slps).unwrap();
        assert!(frozen.slp_memo().is_some(), "warm freeze must attach a shared memo");
        let mut worker = SlpEvaluator::new();
        for slp in &slps {
            let expect = eager.count(&det, slp).unwrap();
            assert_eq!(worker.count((lazy, &frozen), slp).unwrap(), expect);
            assert_eq!(worker.accepts((lazy, &frozen), slp).unwrap(), expect > 0);
        }
    }

    #[test]
    fn tiny_memo_budget_thrashes_but_stays_correct() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 4);
        let mut ev = SlpEvaluator::new();
        let expect = ev.count(&det, &slp).unwrap();
        let mut tiny = SlpEvaluator::new();
        tiny.set_memo_budget(1);
        assert_eq!(tiny.count(&det, &slp).unwrap(), expect);
        assert!(tiny.memo_clears() > 0, "a one-byte budget must thrash the memo");
        assert!(tiny.rows_built() > tiny.memo_rows() as u64, "thrash implies rebuilt rows");
    }

    #[test]
    fn step_budget_trips_and_leaves_the_evaluator_reusable() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 6);
        let expect = SlpEvaluator::new().count(&det, &slp).unwrap();
        // Cold memo: the bottom-up pass needs far more than two ticks.
        let mut ev = SlpEvaluator::new();
        ev.set_limits(EvalLimits::none().with_max_steps(2));
        assert!(matches!(ev.count(&det, &slp), Err(SpannerError::StepBudgetExceeded { .. })));
        ev.set_limits(EvalLimits::none());
        assert_eq!(ev.count(&det, &slp).unwrap(), expect, "evaluator must recover after a trip");
    }

    #[test]
    fn capacity_signature_exposes_memo_arenas_and_stays_stable_when_warm() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 3);
        let mut ev = SlpEvaluator::new();
        let _ = ev.count(&det, &slp).unwrap();
        let _ = ev.accepts(&det, &slp).unwrap();
        let sig = ev.capacity_signature();
        assert!(sig.0[8] > 0, "count arena capacity must be visible");
        assert!(sig.0[9] > 0, "set arena capacity must be visible");
        let rendered = sig.to_string();
        assert!(rendered.contains("slp_counts=") && rendered.contains("slp_sets="), "{rendered}");
        // Warm rerun: no new rows, no reallocation.
        let rows = ev.memo_rows();
        let _ = ev.count(&det, &slp).unwrap();
        assert_eq!(ev.memo_rows(), rows, "warm rerun must not rebuild rows");
        assert_eq!(ev.capacity_signature(), sig, "warm rerun reallocated memo buffers");
        // The ledger counts the index: ROW_COST per row plus one head slot
        // per rule in each of the two tables.
        let m = &ev.ws.memo;
        let arenas = std::mem::size_of_val(m.counts.arena.as_slice())
            + std::mem::size_of_val(m.sets.arena.as_slice());
        let heads = 2 * std::mem::size_of::<u32>() * slp.rules().num_rules();
        assert_eq!(ev.memo_bytes(), arenas + rows * ROW_COST + heads, "index missing from ledger");
        // A governor shed returns all of it.
        let held = ev.memo_bytes();
        assert_eq!(ev.shed_memos(), held);
        assert_eq!((ev.memo_bytes(), ev.memo_rows()), (0, 0));
        // Frozen runs clear the local memo on every document (no shared memo
        // here, so every row is local); a warm rerun over the same documents
        // must still reallocate nothing, index and delta included.
        let spanner = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
        let lazy = spanner.lazy_automaton().unwrap();
        let frozen = spanner.freeze_warm_slp(&[]).unwrap();
        let top = slp.sequence()[0];
        let docs =
            [slp.clone(), Slp::new(slp.rules().clone(), vec![b'a' as u32, top, top]).unwrap()];
        let mut worker = SlpEvaluator::new();
        let mut run = |worker: &mut SlpEvaluator| {
            for doc in &docs {
                let expect = ev.count(&det, doc).unwrap();
                assert_eq!(worker.count((lazy, &frozen), doc).unwrap(), expect);
                assert_eq!(worker.accepts((lazy, &frozen), doc).unwrap(), expect > 0);
            }
        };
        run(&mut worker);
        assert!(worker.memo_rows() > 0, "frozen runs without a shared memo build local rows");
        let sig = worker.capacity_signature();
        run(&mut worker);
        assert_eq!(worker.capacity_signature(), sig, "warm frozen rerun reallocated");
    }
}
