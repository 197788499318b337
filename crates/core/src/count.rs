//! Algorithm 3 of the paper: counting the number of output mappings.
//!
//! Theorem 5.1 states that for a deterministic sequential eVA `A` and a
//! document `d`, `|⟦A⟧(d)|` can be computed in time `O(|A| × |d|)`. The
//! algorithm is Algorithm 1 where, instead of the per-state lists that
//! encode the mappings, each state keeps a *count* of partial runs: because
//! `A` is sequential every partial run encodes a valid partial mapping, and
//! because `A` is deterministic different runs encode different mappings, so
//! the run counts equal the mapping counts.
//!
//! Counting is not a separate engine: [`CountCache`] is the shared
//! Algorithm 1 [`Driver`] over a run-count accumulator, so it has the
//! same entry points, scan loops, lazy/frozen caches, limits and
//! zero-steady-state-allocation contract as the enumeration engine. Run
//! skipping leaves counts unchanged for the same reason it leaves the
//! enumeration lists unchanged: on a skippable class every live state's
//! count moves onto itself and every capture attempt is zeroed by the
//! following `Reading` phase before it can reach a final state. The one-shot
//! [`count_mappings`] wrapper creates a fresh engine per call.

use crate::det::DetSeva;
use crate::document::Document;
use crate::driver::{sealed::Accumulate, Driver, Target};
use crate::error::SpannerError;
use crate::markerset::MarkerSet;
use std::marker::PhantomData;

/// Numeric types usable as mapping counters.
///
/// The number of output mappings can be as large as `Θ(|d|^{2ℓ})` for a spanner
/// with `ℓ` variables, so callers choose the trade-off: exact checked `u64`,
/// exact wide `u128`, or approximate `f64` (loses precision beyond 2⁵³ and
/// reports overflow only past `f64::MAX`, about 2¹⁰²⁴).
pub trait Counter: Clone {
    /// The additive identity.
    fn zero() -> Self;
    /// The count of a single run.
    fn one() -> Self;
    /// Checked addition; `None` signals overflow.
    fn checked_add(&self, other: &Self) -> Option<Self>;
    /// Whether the counter is zero.
    fn is_zero(&self) -> bool;
}

impl Counter for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        u64::checked_add(*self, *other)
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl Counter for u128 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        u128::checked_add(*self, *other)
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl Counter for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        Some(self + other).filter(|sum| sum.is_finite())
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
}

/// Counts `|⟦A⟧(d)|` for a deterministic sequential eVA in `O(|A| × |d|)` time
/// and `O(|Q|)` space (Algorithm 3 / Theorem 5.1).
///
/// Returns [`SpannerError::CountOverflow`] if the chosen [`Counter`] overflows.
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::count_mappings;
/// // x captures every span of the document: Σ* x{Σ*} Σ*
/// let mut reg = VarRegistry::new();
/// let x = reg.intern("x").unwrap();
/// let mut b = EvaBuilder::new(reg);
/// let q0 = b.add_state();
/// let q1 = b.add_state();
/// let q2 = b.add_state();
/// b.set_initial(q0);
/// b.set_final(q2);
/// let any = ByteClass::any();
/// b.add_letter(q0, any, q0);
/// b.add_letter(q1, any, q1);
/// b.add_letter(q2, any, q2);
/// b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
/// b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
/// let aut = DetSeva::compile(&b.build().unwrap()).unwrap();
/// // spans [i, j⟩ with i < j (markers cannot be adjacent) … on "abcd" there are C(5,2) = 10.
/// let n: u64 = count_mappings(&aut, &Document::from("abcd")).unwrap();
/// assert_eq!(n, 10);
/// ```
pub fn count_mappings<C: Counter>(aut: &DetSeva, doc: &Document) -> Result<C, SpannerError> {
    CountCache::new().count(aut, doc)
}

mod counts {
    /// The Algorithm 3 accumulator behind the [`super::CountCache`] alias
    /// (public in visibility only, so the alias can name it): each state
    /// carries the number of partial runs ending in it. Because the
    /// automaton is sequential every partial run encodes a valid partial
    /// mapping, and because it is deterministic different runs encode
    /// different mappings, so the final states' run counts sum to the
    /// mapping count.
    #[derive(Debug, Clone)]
    pub struct Counts<C>(pub(super) std::marker::PhantomData<C>);
}

use counts::Counts;

impl<C> Default for Counts<C> {
    fn default() -> Self {
        Counts(PhantomData)
    }
}

impl<C: Counter> Accumulate for Counts<C> {
    type Value = C;
    type Output = C;

    #[inline]
    fn empty() -> C {
        C::zero()
    }

    fn begin(&mut self) -> C {
        C::one()
    }

    #[inline]
    fn capture(
        &mut self,
        dst: &mut C,
        _fresh: bool,
        src: &C,
        _markers: MarkerSet,
        _pos: usize,
    ) -> Result<(), SpannerError> {
        self.read(dst, false, src)
    }

    #[inline]
    fn read(&mut self, dst: &mut C, _fresh: bool, src: &C) -> Result<(), SpannerError> {
        *dst = dst.checked_add(src).ok_or(SpannerError::CountOverflow)?;
        Ok(())
    }

    fn finish<'v>(
        &mut self,
        mut finals: impl Iterator<Item = (usize, &'v C)>,
    ) -> Result<C, SpannerError>
    where
        C: 'v,
    {
        finals.try_fold(C::zero(), |total, (_, n)| {
            total.checked_add(n).ok_or(SpannerError::CountOverflow)
        })
    }
}

/// The reusable engine behind Algorithm 3: the [`Driver`] over the run-count
/// accumulator.
///
/// A `CountCache` owns the per-state count vectors, the sparse active sets,
/// the skip-scanning mask state and the subset stores of lazy automata, all
/// retained across calls of its one task method, [`CountCache::count`],
/// which takes the engine as a [`Target`] (`&DetSeva`,
/// `&LazyDetSeva`, or `(&LazyDetSeva, &FrozenCache)`): in steady state (same
/// automaton, comparable document sizes) counting performs **zero heap
/// allocation**. The one-shot [`count_mappings`] wrapper creates a fresh
/// cache per call.
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::CountCache;
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
/// let mut cache = CountCache::<u64>::new();
/// for text in ["stream of", "many documents", "served by one cache"] {
///     let n = cache.count(&aut, &Document::from(text)).unwrap();
///     assert!(n > 0);
/// }
/// ```
pub type CountCache<C> = Driver<Counts<C>>;

impl<C: Counter> CountCache<C> {
    /// Counts `|⟦A⟧(d)|` (Algorithm 3 / Theorem 5.1) through `target`,
    /// under the configured limits, reusing all previously allocated
    /// capacity — and, for a lazy target, the warm determinization cache or
    /// the private overflow delta over a frozen snapshot (a frozen count is
    /// a pure function of the snapshot and the document). Returns
    /// [`SpannerError::CountOverflow`] if the counter type overflows.
    pub fn count<'t>(
        &mut self,
        target: impl Into<Target<'t>>,
        doc: &Document,
    ) -> Result<C, SpannerError> {
        self.drive(target.into(), doc)
    }

    /// Current capacity of the per-state count vector (diagnostics: a warm
    /// cache keeps its capacity across documents instead of reallocating).
    pub fn counts_capacity(&self) -> usize {
        self.values_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::enumerate::EnumerationDag;
    use crate::eva::{Eva, EvaBuilder};
    use crate::lazy::LazyDetSeva;
    use crate::markerset::MarkerSet;
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

    /// The "every span into x" spanner over the full byte alphabet.
    fn all_spans_spanner() -> Eva {
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
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        // Also allow the empty capture {x⊢, ⊣x} in a single step.
        b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure3_count_is_three() {
        let aut = DetSeva::compile(&figure3()).unwrap();
        let n: u64 = count_mappings(&aut, &Document::from("ab")).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn count_matches_enumeration_and_naive() {
        let eva = figure3();
        let aut = DetSeva::compile(&eva).unwrap();
        for text in ["", "a", "ab", "ba", "abab", "aabb", "ababab", "bbbaaa"] {
            let doc = Document::from(text);
            let n: u64 = count_mappings(&aut, &doc).unwrap();
            let dag = EnumerationDag::build(&aut, &doc);
            assert_eq!(
                n as usize,
                dag.collect_mappings().len(),
                "enumeration mismatch on {text:?}"
            );
            assert_eq!(n as u128, dag.count_paths().unwrap(), "path count mismatch on {text:?}");
            assert_eq!(n as usize, eva.eval_naive(&doc).len(), "naive mismatch on {text:?}");
        }
    }

    #[test]
    fn all_spans_count_formula() {
        // The all-spans spanner outputs every span [i, j⟩ of d, of which there
        // are (n+1)(n+2)/2 … minus nothing: empty spans are produced by the
        // single-step {x⊢,⊣x} transition, proper spans by the two-step route.
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        for n in [0usize, 1, 2, 3, 10, 50] {
            let doc = Document::new(vec![b'z'; n]);
            let count: u64 = count_mappings(&aut, &doc).unwrap();
            assert_eq!(count as usize, (n + 1) * (n + 2) / 2, "n = {n}");
        }
    }

    #[test]
    fn counts_agree_across_counter_types() {
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let doc = Document::new(vec![b'q'; 100]);
        let a: u64 = count_mappings(&aut, &doc).unwrap();
        let b: u128 = count_mappings(&aut, &doc).unwrap();
        let c: f64 = count_mappings(&aut, &doc).unwrap();
        assert_eq!(a as u128, b);
        assert_eq!(a as f64, c);
    }

    #[test]
    fn zero_count_on_rejecting_document() {
        let aut = DetSeva::compile(&figure3()).unwrap();
        let n: u64 = count_mappings(&aut, &Document::from("zzz")).unwrap();
        assert_eq!(n, 0);
        let n: u64 = count_mappings(&aut, &Document::empty()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn counting_scales_to_documents_where_enumeration_cannot() {
        // On a 20k-byte document the all-spans spanner has ~200M outputs —
        // far too many to materialize, but counting them is immediate.
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let n = 20_000usize;
        let doc = Document::new(vec![b'x'; n]);
        let count: u64 = count_mappings(&aut, &doc).unwrap();
        assert_eq!(count as usize, (n + 1) * (n + 2) / 2);
    }

    #[test]
    fn overflow_is_reported() {
        // A spanner with 4 independent span variables over a long document
        // overflows u64? (n²/2)⁴ ≈ 10²⁹ for n = 10⁴ — too slow to build that
        // way; instead force overflow with a tiny counter type.
        #[derive(Clone)]
        struct Tiny(u8);
        impl Counter for Tiny {
            fn zero() -> Self {
                Tiny(0)
            }
            fn one() -> Self {
                Tiny(1)
            }
            fn checked_add(&self, other: &Self) -> Option<Self> {
                self.0.checked_add(other.0).map(Tiny)
            }
            fn is_zero(&self) -> bool {
                self.0 == 0
            }
        }
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let doc = Document::new(vec![b'x'; 100]);
        let res: Result<Tiny, _> = count_mappings(&aut, &doc);
        assert!(matches!(res, Err(SpannerError::CountOverflow)));
        // f64 does not overflow at this size.
        let res: Result<f64, _> = count_mappings(&aut, &doc);
        assert!(res.is_ok());
    }

    /// `Σ* x0{Σ*} Σ* x1{Σ*} … x15{Σ*} Σ*`: sixteen in-order variables, each
    /// capturing any non-empty span.
    fn sixteen_in_order_spans() -> Eva {
        let mut reg = VarRegistry::new();
        let vars: Vec<_> = (0..16).map(|k| reg.intern(&format!("x{k}")).unwrap()).collect();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(33);
        b.set_initial(q[0]);
        b.set_final(q[32]);
        for &s in &q {
            b.add_letter(s, ByteClass::any(), s);
        }
        for (k, &x) in vars.iter().enumerate() {
            b.add_var(q[2 * k], MarkerSet::new().with_open(x), q[2 * k + 1]).unwrap();
            b.add_var(q[2 * k + 1], MarkerSet::new().with_close(x), q[2 * k + 2]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_past_u128_fail_typed_on_every_path() {
        // The 32 variable transitions fire at strictly increasing positions
        // 0..=300: C(301, 32) ≈ 2^143 mappings.
        let eva = sixteen_in_order_spans();
        let aut = DetSeva::compile(&eva).unwrap();
        let doc = Document::new(vec![b'a'; 300]);
        let dag = EnumerationDag::build(&aut, &doc);
        assert!(matches!(dag.count_paths(), Err(SpannerError::CountOverflow)));
        let wide: Result<u128, _> = count_mappings(&aut, &doc);
        assert!(matches!(wide, Err(SpannerError::CountOverflow)));
        let lazy = LazyDetSeva::new(&eva, crate::lazy::LazyConfig::default()).unwrap();
        let driven = CountCache::<u128>::new().count(&lazy, &doc);
        assert!(matches!(driven, Err(SpannerError::CountOverflow)));
        let approx: f64 = count_mappings(&aut, &doc).unwrap();
        assert!(approx > 2f64.powi(128), "f64 count {approx:e}");
    }

    #[test]
    fn f64_counter_reports_a_non_finite_sum() {
        assert_eq!(Counter::checked_add(&f64::MAX, &f64::MAX), None);
        assert_eq!(Counter::checked_add(&1.0f64, &2.0), Some(3.0));
    }
}
