//! Algorithm 1 (Evaluate) and Algorithm 2 (Enumerate) of the paper:
//! linear-time preprocessing followed by constant-delay enumeration.
//!
//! `Evaluate` processes the document once, alternating a `Capturing(i)` phase
//! (simulating the extended variable transitions taken immediately before the
//! `i`-th letter) and a `Reading(i)` phase (simulating the letter transition on
//! the `i`-th letter). While doing so it incrementally builds the *reverse dual
//! DAG* whose nodes are annotated marker sets `(S, i)` and whose sink `⊥`
//! plays the role of the initial product state. The per-state `list_q`
//! structures are singly linked lists supporting the three O(1) operations the
//! paper requires — `add` (prepend), `lazycopy` (copy of the `(start, end)`
//! pair) and `append` (splice another list after the end element).
//!
//! The loop itself — sparse active sets, the skip-scan and per-byte inner
//! loops of [`crate::EngineMode`], lazy-cache maintenance and
//! limits — is the shared [`Driver`]; this module supplies its list-DAG
//! accumulator, a DAG arena. The evaluation state lives in a reusable
//! [`Evaluator`], so a long-running service evaluating one compiled spanner
//! over millions of documents performs **no allocation after warm-up** —
//! each [`Evaluator::eval`] call recycles the previous document's capacity.
//! [`EnumerationDag::build`] remains as the one-shot convenience wrapper
//! producing an owned DAG.
//!
//! `Enumerate` then traverses the DAG depth-first from the lists of the final
//! states; every time it reaches `⊥` the markers collected along the path form
//! exactly one output mapping. The delay between two consecutive outputs is
//! bounded by a function of the number of variables only — it does not depend
//! on the document.

use crate::det::{try_accepts_generic, DetSeva};
use crate::document::Document;
use crate::driver::{sealed::Accumulate, Driver, Target};
use crate::error::SpannerError;
use crate::mapping::Mapping;
use crate::markerset::MarkerSet;
use crate::span::Span;
use crate::variable::{VarRegistry, MAX_VARIABLES};

/// Index of a node in the DAG arena. Node 0 is the sink `⊥`.
type NodeId = u32;
/// Index of a list cell in the cell arena.
type CellId = u32;

const BOTTOM: NodeId = 0;

/// Converts an arena length into the id of the element about to be pushed,
/// with a loud debug check instead of a silent wraparound: a document/automaton
/// pair pathological enough to create more than `u32::MAX` nodes or cells
/// would otherwise corrupt the DAG.
#[inline]
fn next_arena_id(len: usize, what: &str) -> u32 {
    debug_assert!(
        len <= u32::MAX as usize,
        "{what} arena overflow: {len} elements exceed the u32 id space"
    );
    len as u32
}

/// The list-DAG accumulator behind the [`Evaluator`] alias. Public in
/// visibility only, so the alias can name it; outside the crate it is
/// reachable only as that alias.
mod arena {
    use super::{Cell, CellId, Node};

    /// A singly linked list of DAG nodes, represented as the `(start, end)`
    /// pair of pointers described in the paper. Cheap to copy (`lazycopy` is
    /// a bitwise copy).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ListRef {
        pub(super) head: CellId,
        pub(super) tail: CellId,
        /// Empty lists are encoded by `len == 0`; `head`/`tail` are then
        /// meaningless. Saturates at `u32::MAX` — it is a hint for
        /// diagnostics (`StageTrace`), not load-bearing state.
        pub(super) len_hint: u32,
    }

    /// The arena-backed DAG produced by Algorithm 1: nodes, list cells and
    /// the root lists of the final states. It is the list-DAG accumulator of
    /// the driver, and is shared by the owned [`super::EnumerationDag`] and
    /// the borrowed [`super::DagView`] an [`super::Evaluator`] hands out.
    #[derive(Debug, Clone, Default)]
    pub struct DagStore {
        pub(super) nodes: Vec<Node>,
        pub(super) cells: Vec<Cell>,
        /// Lists of the final states after the last `Capturing` phase
        /// (the entry points of Algorithm 2), in increasing state order.
        pub(super) roots: Vec<ListRef>,
        /// Scratch for sorting `(final state, list)` pairs into `roots`.
        pub(super) root_scratch: Vec<(usize, ListRef)>,
    }
}

use arena::{DagStore, ListRef};

impl ListRef {
    const EMPTY: ListRef = ListRef { head: 0, tail: 0, len_hint: 0 };

    #[inline]
    fn is_empty(&self) -> bool {
        self.len_hint == 0
    }
}

/// One cell of a linked list: a node reference plus the `next` pointer.
/// `next` is written at most once (by `append`), as in the paper.
#[derive(Debug, Clone, Copy)]
struct Cell {
    node: NodeId,
    next: Option<CellId>,
}

/// A DAG node `((S, i), list)`: an annotated marker set plus the list of nodes
/// it points to (the last variable transitions of the runs it extends).
#[derive(Debug, Clone, Copy)]
struct Node {
    markers: MarkerSet,
    pos: u32,
    list: ListRef,
}

impl Accumulate for DagStore {
    type Value = ListRef;
    type Output = ();

    #[inline]
    fn empty() -> ListRef {
        ListRef::EMPTY
    }

    fn begin(&mut self) -> ListRef {
        self.nodes.clear();
        self.cells.clear();
        self.roots.clear();
        // Node 0 is the sink ⊥; its markers/list are never read. The initial
        // state's list is [⊥].
        self.nodes.push(Node { markers: MarkerSet::new(), pos: 0, list: ListRef::EMPTY });
        self.cells.push(Cell { node: BOTTOM, next: None });
        ListRef { head: 0, tail: 0, len_hint: 1 }
    }

    /// Creates the node `(markers, pos)` pointing at `src` and adds it to
    /// `dst` (`list_p.add(node)`: prepend a fresh cell).
    #[inline(always)]
    fn capture(
        &mut self,
        dst: &mut ListRef,
        fresh: bool,
        src: &ListRef,
        markers: MarkerSet,
        pos: usize,
    ) -> Result<(), SpannerError> {
        let node = next_arena_id(self.nodes.len(), "DAG node");
        self.nodes.push(Node { markers, pos: pos as u32, list: *src });
        let cell = next_arena_id(self.cells.len(), "list cell");
        if fresh {
            self.cells.push(Cell { node, next: None });
            *dst = ListRef { head: cell, tail: cell, len_hint: 1 };
        } else {
            self.cells.push(Cell { node, next: Some(dst.head) });
            *dst = ListRef { head: cell, tail: dst.tail, len_hint: dst.len_hint.saturating_add(1) };
        }
        Ok(())
    }

    /// `list_p.append(list_old_q)`.
    #[inline(always)]
    fn read(&mut self, dst: &mut ListRef, fresh: bool, src: &ListRef) -> Result<(), SpannerError> {
        if fresh {
            *dst = *src;
        } else {
            let tail = dst.tail as usize;
            debug_assert!(self.cells[tail].next.is_none(), "append target must end in null");
            self.cells[tail].next = Some(src.head);
            *dst = ListRef {
                head: dst.head,
                tail: src.tail,
                len_hint: dst.len_hint.saturating_add(src.len_hint),
            };
        }
        Ok(())
    }

    /// Roots: the lists of the final states, in state order so enumeration
    /// order is independent of active-set insertion order.
    fn finish<'v>(
        &mut self,
        finals: impl Iterator<Item = (usize, &'v ListRef)>,
    ) -> Result<(), SpannerError> {
        self.root_scratch.clear();
        self.root_scratch.extend(finals.map(|(q, l)| (q, *l)));
        self.root_scratch.sort_unstable_by_key(|&(q, _)| q);
        self.roots.extend(self.root_scratch.iter().map(|&(_, l)| l));
        Ok(())
    }
}

impl DagStore {
    fn iter(&self) -> MappingIter<'_> {
        MappingIter {
            store: self,
            next_root: 0,
            stack: Vec::with_capacity(2 * MAX_VARIABLES + 2),
            path: Vec::with_capacity(2 * MAX_VARIABLES + 2),
        }
    }

    /// The number of root-to-`⊥` paths, failing with
    /// [`SpannerError::CountOverflow`] past `u128::MAX`.
    fn count_paths(&self) -> Result<u128, SpannerError> {
        // Memoized number of paths from each node to ⊥.
        let mut memo: Vec<Option<u128>> = vec![None; self.nodes.len()];
        memo[BOTTOM as usize] = Some(1);
        let mut total = 0u128;
        for root in &self.roots {
            total = checked_sum(total, self.count_list(*root, &mut memo)?)?;
        }
        Ok(total)
    }

    fn count_list(
        &self,
        list: ListRef,
        memo: &mut Vec<Option<u128>>,
    ) -> Result<u128, SpannerError> {
        let mut sum = 0u128;
        for cell in self.list_cells(list) {
            let node = self.cells[cell as usize].node;
            sum = checked_sum(sum, self.count_node(node, memo)?)?;
        }
        Ok(sum)
    }

    fn count_node(&self, node: NodeId, memo: &mut Vec<Option<u128>>) -> Result<u128, SpannerError> {
        if let Some(v) = memo[node as usize] {
            return Ok(v);
        }
        let list = self.nodes[node as usize].list;
        let v = self.count_list(list, memo)?;
        memo[node as usize] = Some(v);
        Ok(v)
    }

    /// Iterates over the cell ids of a list, honouring the `(start, end)` bounds
    /// (cells appended after `end` by later `append` operations are not visible).
    fn list_cells(&self, list: ListRef) -> ListCellIter<'_> {
        ListCellIter {
            store: self,
            cur: if list.is_empty() { None } else { Some(list.head) },
            tail: list.tail,
        }
    }
}

fn checked_sum(a: u128, b: u128) -> Result<u128, SpannerError> {
    a.checked_add(b).ok_or(SpannerError::CountOverflow)
}

/// The reusable evaluation engine behind Algorithm 1: the [`Driver`] over
/// the list-DAG accumulator.
///
/// An `Evaluator` owns every piece of mutable state the `Evaluate` loop needs:
/// the DAG node/cell arenas, the per-state list vectors, the sparse
/// active-state sets, and the subset stores of lazy automata. It has one
/// fallible method per task — [`Evaluator::eval`], [`Evaluator::eval_owned`]
/// and [`Evaluator::accepts`] — each taking the engine as a [`Target`]:
/// `&DetSeva`, `&LazyDetSeva`, or `(&LazyDetSeva, &FrozenCache)` for a
/// shared frozen snapshot. `eval` returns a [`DagView`] borrowing the arenas;
/// the next call reuses all of the retained capacity, so in steady state
/// (same automaton, comparable document sizes) evaluation performs **zero
/// heap allocation**:
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::{Evaluator, SpannerError};
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
/// # let aut = DetSeva::compile(&b.build().unwrap()).unwrap();
/// let mut evaluator = Evaluator::new();
/// for text in ["stream of", "many documents", "served by one cache"] {
///     let doc = Document::from(text);
///     let dag = evaluator.eval(&aut, &doc)?;
///     let _n = dag.iter().count(); // constant-delay enumeration
/// }
/// # Ok::<(), SpannerError>(())
/// ```
pub type Evaluator = Driver<DagStore>;

/// Unwraps the result of an infallible facade entry point: with no
/// [`EvalLimits`] configured (the default) nothing can trip; with limits
/// configured, a tripped limit panics here — callers that set limits run
/// the engine's own fallible task methods instead.
///
/// [`EvalLimits`]: crate::EvalLimits
pub(crate) fn infallible<T>(result: Result<T, SpannerError>) -> T {
    result.unwrap_or_else(|e| {
        panic!("evaluation limit tripped on an infallible entry point (use Evaluator::eval): {e}")
    })
}

impl Evaluator {
    /// Runs Algorithm 1 (`Evaluate`) over the document through `target` and
    /// returns a view of the resulting DAG, reusing all previously allocated
    /// arena capacity — and, for a lazy target, the warm determinization
    /// cache (live) or the private overflow delta (over a frozen snapshot,
    /// reset per document so the result is a pure function of the snapshot
    /// and the document, enumeration order included).
    ///
    /// Preprocessing time is `O(|A| × |d|)` in the worst case, and
    /// `O(live states × |d|)` in the common case where only a few automaton
    /// states carry runs at any position. Runs under the configured
    /// limits: a tripped step budget, deadline or eviction thrash guard
    /// surfaces as an `Err`, and the evaluator stays reusable (the next run
    /// resets all state; interned subset states stay warm).
    pub fn eval<'a>(
        &'a mut self,
        target: impl Into<Target<'a>>,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        let target = target.into();
        self.view(target, target.registry(), doc)
    }

    /// Like [`Evaluator::eval`] but moves the finished DAG out as an owned
    /// [`EnumerationDag`], surrendering the arena capacity (the evaluator's
    /// arenas start empty again). Use when the DAG must outlive the evaluator.
    pub fn eval_owned<'t>(
        &mut self,
        target: impl Into<Target<'t>>,
        doc: &Document,
    ) -> Result<EnumerationDag, SpannerError> {
        let target = target.into();
        self.view(target, target.registry(), doc)?;
        let store = std::mem::take(&mut self.run.acc);
        Ok(EnumerationDag { store, registry: target.registry().clone(), doc_len: doc.len() })
    }

    /// Whether `target` accepts `doc`, under the configured limits, through
    /// (and warming) this evaluator's cache slot — the hot-path match check.
    /// Acceptance runs the bare-set loop of `det::try_accepts_generic`, not
    /// the driver: it carries no per-state values.
    pub fn accepts<'t>(
        &mut self,
        target: impl Into<Target<'t>>,
        doc: &Document,
    ) -> Result<bool, SpannerError> {
        self.run_acceptance(target.into(), doc)
    }

    /// [`Evaluator::accepts`] behind a non-generic body, so the loop is
    /// compiled in this crate instead of being re-instantiated, less
    /// inlined, in every caller.
    fn run_acceptance(&mut self, target: Target<'_>, doc: &Document) -> Result<bool, SpannerError> {
        let limits = self.limits();
        match target {
            Target::Eager(det) => try_accepts_generic(&mut &*det, doc, &limits),
            Target::Lazy(aut, base) => self
                .slot
                .with_stepper(aut, base, |stepper| try_accepts_generic(stepper, doc, &limits)),
        }
    }

    /// Current capacity of the node arena (diagnostics: a warmed-up evaluator
    /// keeps its capacity across documents instead of reallocating).
    pub fn node_capacity(&self) -> usize {
        self.run.acc.nodes.capacity()
    }

    /// Current capacity of the cell arena.
    pub fn cell_capacity(&self) -> usize {
        self.run.acc.cells.capacity()
    }

    /// Runs Algorithm 1 through `target` and returns a view of the DAG
    /// naming its variables through `registry` (which may outlive the
    /// target's snapshot).
    pub(crate) fn view<'a>(
        &'a mut self,
        target: Target<'_>,
        registry: &'a VarRegistry,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        self.drive(target, doc)?;
        Ok(DagView { store: &self.run.acc, registry, doc_len: doc.len() })
    }
}

/// A borrowed view of a DAG — the zero-copy result of [`Evaluator::eval`],
/// and the one place every read of a DAG is implemented (an owned
/// [`EnumerationDag`] reads through [`EnumerationDag::view`]). It does not
/// own the arenas, so the evaluator can recycle them for the next document
/// as soon as the view is dropped.
#[derive(Debug, Clone, Copy)]
pub struct DagView<'a> {
    store: &'a DagStore,
    registry: &'a VarRegistry,
    doc_len: usize,
}

impl<'a> DagView<'a> {
    /// The variable registry of the automaton that produced this DAG.
    pub fn registry(&self) -> &'a VarRegistry {
        self.registry
    }

    /// Length of the document this DAG was built over.
    pub fn document_len(&self) -> usize {
        self.doc_len
    }

    /// Number of DAG nodes created (including the sink `⊥`).
    pub fn num_nodes(&self) -> usize {
        self.store.nodes.len()
    }

    /// Number of list cells created.
    pub fn num_cells(&self) -> usize {
        self.store.cells.len()
    }

    /// Number of root lists (non-empty final-state lists).
    pub fn num_roots(&self) -> usize {
        self.store.roots.len()
    }

    /// Whether the spanner produced no output on this document.
    pub fn is_empty(&self) -> bool {
        self.store.roots.is_empty()
    }

    /// Algorithm 2 as a pull-based iterator with constant delay per item.
    pub fn iter(&self) -> MappingIter<'a> {
        self.store.iter()
    }

    /// Materializes all output mappings (in enumeration order).
    pub fn collect_mappings(&self) -> Vec<Mapping> {
        self.iter().collect()
    }

    /// Counts the output mappings by counting paths from the roots to `⊥`
    /// in the DAG. Because the source automaton is deterministic, paths are
    /// in bijection with output mappings.
    ///
    /// This is an alternative to Algorithm 3 (see [`crate::count`]) that
    /// reuses an already-built DAG; it runs in time linear in the DAG size.
    /// Fails with [`SpannerError::CountOverflow`] when the count exceeds
    /// `u128`.
    pub fn count_paths(&self) -> Result<u128, SpannerError> {
        self.store.count_paths()
    }
}

/// The output of Algorithm 1: a compact DAG representation of all output
/// mappings of a deterministic sequential eVA over a document.
///
/// Build it with [`EnumerationDag::build`] (one-shot) or
/// [`Evaluator::eval_owned`]; when evaluating many documents keep a reusable
/// [`Evaluator`] and read its borrowed [`DagView`] instead. Reads go through
/// [`EnumerationDag::view`]; enumeration ([`EnumerationDag::iter`], constant
/// delay per item), materialization and path counting also have shortcuts
/// here.
#[derive(Debug, Clone)]
pub struct EnumerationDag {
    store: DagStore,
    registry: VarRegistry,
    doc_len: usize,
}

impl EnumerationDag {
    /// Runs Algorithm 1 (`Evaluate`) over the document, producing the DAG.
    ///
    /// This is a thin convenience wrapper creating a fresh [`Evaluator`] per
    /// call; preprocessing time is `O(|A| × |d|)`. Hot paths evaluating many
    /// documents should hold on to one [`Evaluator`] instead, which amortizes
    /// every allocation across documents.
    pub fn build(aut: &DetSeva, doc: &Document) -> EnumerationDag {
        infallible(Evaluator::new().eval_owned(aut, doc))
    }

    /// Like [`EnumerationDag::build`] but records, after every `Capturing`/
    /// `Reading` phase, which state lists are non-empty and how many cells each
    /// holds. Used by tests that replay the trace of Figure 5 and by the
    /// benchmark harness to report DAG growth; slower than `build`.
    pub fn build_with_trace(aut: &DetSeva, doc: &Document) -> (EnumerationDag, Vec<StageTrace>) {
        let mut traces = Vec::new();
        let mut evaluator = Evaluator::new();
        infallible(evaluator.drive_traced(aut, doc, |stage, pos, lists| {
            traces.push(StageTrace::new(stage, pos, lists))
        }));
        let store = std::mem::take(&mut evaluator.run.acc);
        (EnumerationDag { store, registry: aut.registry().clone(), doc_len: doc.len() }, traces)
    }

    /// The borrowed view every read of this DAG goes through.
    pub fn view(&self) -> DagView<'_> {
        DagView { store: &self.store, registry: &self.registry, doc_len: self.doc_len }
    }

    /// Algorithm 2 as a pull-based iterator with constant delay per item.
    pub fn iter(&self) -> MappingIter<'_> {
        self.view().iter()
    }

    /// Materializes all output mappings (in enumeration order).
    pub fn collect_mappings(&self) -> Vec<Mapping> {
        self.view().collect_mappings()
    }

    /// Counts the output mappings (see [`DagView::count_paths`]).
    pub fn count_paths(&self) -> Result<u128, SpannerError> {
        self.view().count_paths()
    }
}

struct ListCellIter<'a> {
    store: &'a DagStore,
    cur: Option<CellId>,
    tail: CellId,
}

impl Iterator for ListCellIter<'_> {
    type Item = CellId;
    fn next(&mut self) -> Option<CellId> {
        let cur = self.cur?;
        self.cur = if cur == self.tail { None } else { self.store.cells[cur as usize].next };
        Some(cur)
    }
}

/// Snapshot of the per-state lists after one phase of Algorithm 1
/// (used to reproduce the trace of Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Which phase produced this snapshot.
    pub stage: Stage,
    /// 0-based position of the phase (the paper uses 1-based positions).
    pub pos: usize,
    /// `(state, number of list cells)` for every state with a non-empty list.
    pub nonempty: Vec<(usize, usize)>,
}

/// The two phases of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The `Capturing(i)` phase (variable transitions before letter `i`).
    Capturing,
    /// The `Reading(i)` phase (the letter transition on letter `i`).
    Reading,
}

impl StageTrace {
    fn new(stage: Stage, pos: usize, lists: &[ListRef]) -> StageTrace {
        let nonempty = lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(q, l)| (q, l.len_hint as usize))
            .collect();
        StageTrace { stage, pos, nonempty }
    }
}

/// A frame of the depth-first traversal of Algorithm 2.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Next cell to visit in the current list (`None` = list exhausted).
    cursor: Option<CellId>,
    /// Last cell belonging to the current list.
    tail: CellId,
    /// Whether entering this frame pushed an entry onto the marker path.
    pushed: bool,
}

/// Iterator over the output mappings encoded by an [`EnumerationDag`] or a
/// [`DagView`] (Algorithm 2 of the paper).
///
/// Each call to [`next`](Iterator::next) performs a bounded amount of work that
/// depends only on the number of variables of the spanner, never on the
/// document length — this is the constant-delay guarantee.
#[derive(Debug, Clone)]
pub struct MappingIter<'a> {
    store: &'a DagStore,
    next_root: usize,
    stack: Vec<Frame>,
    /// Markers collected along the current DFS path, from the last variable
    /// transition of the run (largest position) down towards `⊥`.
    path: Vec<(MarkerSet, u32)>,
}

impl MappingIter<'_> {
    fn push_list(&mut self, list: ListRef, pushed: bool) {
        debug_assert!(!list.is_empty());
        self.stack.push(Frame { cursor: Some(list.head), tail: list.tail, pushed });
    }

    /// Builds the mapping for the markers currently on `path`.
    ///
    /// The path stores marker sets in decreasing position order, so the close
    /// position of every variable is seen before its open position.
    fn build_mapping(&self) -> Mapping {
        let mut end_pos = [0u32; MAX_VARIABLES];
        let mut mapping = Mapping::new();
        for &(markers, pos) in &self.path {
            for v in markers.closed_vars().iter() {
                end_pos[v.index()] = pos;
            }
            for v in markers.opened_vars().iter() {
                mapping.insert(v, Span::new_unchecked(pos as usize, end_pos[v.index()] as usize));
            }
        }
        mapping
    }
}

impl Iterator for MappingIter<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        loop {
            // Refill from the next root list when the stack is exhausted.
            if self.stack.is_empty() {
                if self.next_root >= self.store.roots.len() {
                    return None;
                }
                let root = self.store.roots[self.next_root];
                self.next_root += 1;
                self.push_list(root, false);
                continue;
            }
            let top = self.stack.last_mut().expect("stack is non-empty");
            let Some(cell_id) = top.cursor else {
                // Current list exhausted: backtrack.
                let frame = self.stack.pop().expect("stack is non-empty");
                if frame.pushed {
                    self.path.pop();
                }
                continue;
            };
            // Advance the cursor within the current list.
            let cell = self.store.cells[cell_id as usize];
            top.cursor = if cell_id == top.tail { None } else { cell.next };

            if cell.node == BOTTOM {
                // A complete path: emit one mapping.
                return Some(self.build_mapping());
            }
            let node = self.store.nodes[cell.node as usize];
            self.path.push((node.markers, node.pos));
            self.push_list(node.list, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::{Eva, EvaBuilder};
    use crate::mapping::dedup_mappings;
    use crate::variable::VarRegistry;

    /// The Figure 3 automaton.
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

    fn det(eva: &Eva) -> DetSeva {
        DetSeva::compile(eva).unwrap()
    }

    fn enumerate_sorted(aut: &DetSeva, doc: &Document) -> Vec<Mapping> {
        let dag = EnumerationDag::build(aut, doc);
        let mut out = dag.collect_mappings();
        dedup_mappings(&mut out);
        out
    }

    #[test]
    fn figure3_matches_paper_output() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("ab");
        let out = enumerate_sorted(&aut, &doc);
        assert_eq!(out, eva.eval_naive(&doc));
        assert_eq!(out.len(), 3);
        // Spot-check µ3(x) = µ3(y) = [1,3⟩.
        let x = eva.registry().get("x").unwrap();
        let y = eva.registry().get("y").unwrap();
        let mu3 = Mapping::from_pairs([
            (x, Span::from_paper(1, 3).unwrap()),
            (y, Span::from_paper(1, 3).unwrap()),
        ]);
        assert!(out.contains(&mu3));
    }

    #[test]
    fn no_duplicates_are_enumerated() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["ab", "abab", "aabb", "aaabbb", "ababab"] {
            let doc = Document::from(text);
            let dag = EnumerationDag::build(&aut, &doc);
            let all = dag.collect_mappings();
            let mut deduped = all.clone();
            dedup_mappings(&mut deduped);
            assert_eq!(all.len(), deduped.len(), "duplicates on {text:?}");
        }
    }

    #[test]
    fn agreement_with_naive_on_many_documents() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["", "a", "b", "ab", "ba", "aa", "bb", "aab", "abb", "abab", "bbaa", "aabab"] {
            let doc = Document::from(text);
            let fast = enumerate_sorted(&aut, &doc);
            let slow = eva.eval_naive(&doc);
            assert_eq!(fast, slow, "mismatch on {text:?}");
        }
    }

    #[test]
    fn empty_output_documents() {
        let eva = figure3();
        let aut = det(&eva);
        let dag = EnumerationDag::build(&aut, &Document::from("zz"));
        assert!(dag.view().is_empty());
        assert_eq!(dag.collect_mappings(), vec![]);
        assert_eq!(dag.count_paths().unwrap(), 0);
        let dag = EnumerationDag::build(&aut, &Document::empty());
        assert!(dag.view().is_empty());
    }

    #[test]
    fn count_paths_matches_enumeration() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["ab", "abab", "aaabbb", "abababab"] {
            let doc = Document::from(text);
            let dag = EnumerationDag::build(&aut, &doc);
            assert_eq!(
                dag.count_paths().unwrap(),
                dag.collect_mappings().len() as u128,
                "on {text:?}"
            );
        }
    }

    #[test]
    fn figure5_trace_nonempty_lists() {
        // Reproduces the table of Figure 5: which lists are non-empty after
        // each stage when running the Figure 3 automaton on d = ab.
        let eva = figure3();
        let aut = det(&eva);
        let (_, traces) = EnumerationDag::build_with_trace(&aut, &Document::from("ab"));
        // Stages: Capturing(1), Reading(1), Capturing(2), Reading(2), Capturing(3)
        assert_eq!(traces.len(), 5);

        let states =
            |t: &StageTrace| -> Vec<usize> { t.nonempty.iter().map(|(q, _)| *q).collect() };

        // Capturing(1): q0 (still holds ⊥), q1, q2, q3.
        assert_eq!(traces[0].stage, Stage::Capturing);
        assert_eq!(states(&traces[0]), vec![0, 1, 2, 3]);
        // Reading(1): q3, q4, q5.
        assert_eq!(traces[1].stage, Stage::Reading);
        assert_eq!(states(&traces[1]), vec![3, 4, 5]);
        // Capturing(2): q3, q4, q5, q6, q7, q9.
        assert_eq!(states(&traces[2]), vec![3, 4, 5, 6, 7, 9]);
        // Reading(2): q3, q8 (with two cells: one from q6's list, one from q7's).
        assert_eq!(states(&traces[3]), vec![3, 8]);
        let q8_len = traces[3].nonempty.iter().find(|(q, _)| *q == 8).unwrap().1;
        assert_eq!(q8_len, 2);
        // Capturing(3): q3, q8, q9 (q9's list has the two closing nodes).
        assert_eq!(states(&traces[4]), vec![3, 8, 9]);
        let q9_len = traces[4].nonempty.iter().find(|(q, _)| *q == 9).unwrap().1;
        assert_eq!(q9_len, 2);
    }

    #[test]
    fn figure6_dag_shape() {
        // The DAG of Figure 6 has 8 proper nodes (plus ⊥): {x⊢,1}, {y⊢,1},
        // {x⊢y⊢,1}, {y⊢,2}, {x⊢,2}, {⊣x⊣y,2 via q3}… — concretely, Algorithm 1
        // creates one node per (variable transition, live source) pair:
        //   Capturing(1): 3 nodes, Capturing(2): 3 nodes, Capturing(3): 2 nodes.
        let eva = figure3();
        let aut = det(&eva);
        let dag = EnumerationDag::build(&aut, &Document::from("ab"));
        assert_eq!(dag.view().num_nodes(), 1 + 8);
        assert_eq!(dag.view().num_roots(), 1);
        assert_eq!(dag.count_paths().unwrap(), 3);
    }

    #[test]
    fn enumeration_is_lazy_and_resumable() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("ab");
        let dag = EnumerationDag::build(&aut, &doc);
        let total = dag.collect_mappings().len();
        assert!(total > 1);
        let mut it = dag.iter();
        let first = it.next().unwrap();
        let rest: Vec<_> = it.collect();
        assert_eq!(rest.len(), total - 1);
        assert!(!rest.contains(&first));
    }

    #[test]
    fn nested_captures_quadratic_output() {
        // Spanner: Σ* x{ Σ* y{ Σ* } } with x spanning a suffix-prefix structure.
        // Simpler: x captures any prefix boundary… Instead, build the spanner
        // "x captures any span, y captures any sub-span starting where x starts"
        // via a small hand-rolled deterministic seVA:
        //   x opens at any position, y opens with x, y closes anywhere later,
        //   x closes anywhere after y closes.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let y = reg.intern("y").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state(); // before x opens
        let q1 = b.add_state(); // x and y open
        let q2 = b.add_state(); // y closed
        let q3 = b.add_state(); // x closed (final)
        b.set_initial(q0);
        b.set_final(q3);
        let any = ByteClass::any();
        b.add_letter(q0, any, q0);
        b.add_letter(q1, any, q1);
        b.add_letter(q2, any, q2);
        b.add_letter(q3, any, q3);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x).with_open(y), q1).unwrap();
        b.add_var(q1, ms().with_close(y), q2).unwrap();
        b.add_var(q2, ms().with_close(x), q3).unwrap();
        // Also allow y and x to close at the same position as they open, etc.
        let eva = b.build().unwrap();
        let aut = DetSeva::compile(&eva).unwrap();
        for n in [0usize, 1, 2, 5, 9] {
            let doc = Document::new(vec![b'a'; n]);
            let out = enumerate_sorted(&aut, &doc);
            // The three variable transitions fire at positions i < j < k (they
            // cannot be consecutive, so at least one letter separates them):
            // x = [i, k⟩, y = [i, j⟩ with 0 ≤ i < j < k ≤ n, i.e. C(n+1, 3) outputs.
            let expected = if n >= 2 { (n + 1) * n * (n - 1) / 6 } else { 0 };
            assert_eq!(out.len(), expected, "n = {n}");
            assert_eq!(out, eva.eval_naive(&doc), "naive mismatch at n = {n}");
        }
    }

    #[test]
    fn delay_is_document_independent() {
        // Not a timing test (that lives in the benches); here we check the
        // *structural* property that the DFS stack depth during enumeration is
        // bounded by the number of variable transitions of a run, not by |d|.
        let eva = figure3();
        let aut = det(&eva);
        for n in [4usize, 16, 64, 256] {
            let text: String = std::iter::repeat_n("ab", n).collect();
            let dag = EnumerationDag::build(&aut, &Document::from(text.as_str()));
            let mut it = dag.iter();
            let mut max_stack = 0;
            while it.next().is_some() {
                max_stack = max_stack.max(it.stack.len());
            }
            // Figure 3 runs contain at most 3 variable transitions, so the stack
            // holds at most 3 node frames plus the root frame.
            assert!(max_stack <= 4, "stack depth {max_stack} at n = {n}");
        }
    }

    #[test]
    fn multiple_final_states_are_all_roots() {
        // Two final states reached through different branches:
        //   q0 -{x⊢}-> q1 -a-> q2 -{⊣x}-> f1       (x = [1,2⟩)
        //   q0 -a-> q3 -{x⊢,⊣x}-> f2                (x = empty span at position 2)
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let q3 = b.add_state();
        let f1 = b.add_state();
        let f2 = b.add_state();
        b.set_initial(q0);
        b.set_final(f1);
        b.set_final(f2);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        b.add_var(q2, ms().with_close(x), f1).unwrap();
        b.add_byte(q0, b'a', q3);
        b.add_var(q3, ms().with_open(x).with_close(x), f2).unwrap();
        let eva = b.build().unwrap();
        assert!(eva.is_sequential());
        let aut = DetSeva::compile(&eva).unwrap();
        let doc = Document::from("a");
        let out = enumerate_sorted(&aut, &doc);
        assert_eq!(out.len(), 2);
        assert_eq!(out, eva.eval_naive(&doc));
        let dag = EnumerationDag::build(&aut, &doc);
        assert_eq!(dag.view().num_roots(), 2);
    }

    #[test]
    fn build_with_trace_matches_plain_build() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("abab");
        let plain = EnumerationDag::build(&aut, &doc);
        let (traced, stages) = EnumerationDag::build_with_trace(&aut, &doc);
        assert_eq!(plain.collect_mappings(), traced.collect_mappings());
        assert_eq!(stages.len(), 2 * 4 + 1);
    }

    #[test]
    fn evaluator_reuse_matches_one_shot_builds() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        for text in ["ab", "", "abab", "zz", "aabb", "ababab", "a"] {
            let doc = Document::from(text);
            let reused = evaluator.eval(&aut, &doc).unwrap();
            let fresh = EnumerationDag::build(&aut, &doc);
            assert_eq!(reused.num_nodes(), fresh.view().num_nodes(), "nodes on {text:?}");
            assert_eq!(reused.num_cells(), fresh.view().num_cells(), "cells on {text:?}");
            assert_eq!(reused.num_roots(), fresh.view().num_roots(), "roots on {text:?}");
            assert_eq!(
                reused.count_paths().unwrap(),
                fresh.count_paths().unwrap(),
                "paths on {text:?}"
            );
            assert_eq!(reused.collect_mappings(), fresh.collect_mappings(), "mappings on {text:?}");
        }
    }

    #[test]
    fn evaluator_retains_arena_capacity_across_documents() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        // Warm up on the largest document of the batch.
        let big: String = std::iter::repeat_n("ab", 512).collect();
        let _ = evaluator.eval(&aut, &Document::from(big.as_str())).unwrap();
        let warm_nodes = evaluator.node_capacity();
        let warm_cells = evaluator.cell_capacity();
        assert!(warm_nodes > 0 && warm_cells > 0);
        // Subsequent smaller documents must not grow (or shrink) the arenas.
        for n in [1usize, 17, 100, 512] {
            let text: String = std::iter::repeat_n("ab", n).collect();
            let view = evaluator.eval(&aut, &Document::from(text.as_str())).unwrap();
            assert!(!view.is_empty());
            assert_eq!(evaluator.node_capacity(), warm_nodes, "node arena reallocated at n={n}");
            assert_eq!(evaluator.cell_capacity(), warm_cells, "cell arena reallocated at n={n}");
        }
    }

    #[test]
    fn evaluator_adapts_to_different_automata() {
        // One evaluator serving two automata of different state counts.
        let f3 = det(&figure3());
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
        b.add_letter(q1, any, q1);
        b.add_letter(q2, any, q2);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_var(q1, ms().with_close(x), q2).unwrap();
        let small = DetSeva::compile(&b.build().unwrap()).unwrap();

        let mut evaluator = Evaluator::new();
        for _ in 0..3 {
            let doc = Document::from("ab");
            assert_eq!(evaluator.eval(&f3, &doc).unwrap().count_paths().unwrap(), 3);
            let doc = Document::from("aaa");
            assert_eq!(
                evaluator.eval(&small, &doc).unwrap().count_paths().unwrap(),
                EnumerationDag::build(&small, &doc).count_paths().unwrap()
            );
        }
    }

    #[test]
    fn eval_owned_produces_independent_dag() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        let dag = evaluator.eval_owned(&aut, &Document::from("ab")).unwrap();
        // The evaluator can immediately be reused…
        let view = evaluator.eval(&aut, &Document::from("abab")).unwrap();
        // …while the owned DAG remains valid and unchanged.
        assert_eq!(dag.count_paths().unwrap(), 3);
        assert_eq!(
            view.count_paths().unwrap(),
            EnumerationDag::build(&aut, &Document::from("abab")).count_paths().unwrap()
        );
    }
}
