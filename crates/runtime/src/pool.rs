//! Checkout/checkin pools of warm per-worker evaluation engines.
//!
//! A pool is the serving-side answer to "one warm engine per worker":
//! workers check an engine out for a document (or a run of documents), and
//! the drop of the guard checks it back in with **all retained capacity** —
//! DAG arenas, per-state buffers, lazy caches, frozen deltas
//! and SLP memo tables included. In steady state a pool stops allocating
//! entirely: the same engines cycle between workers, and a batch of N
//! threads creates at most N engines over the pool's lifetime no matter how
//! many documents it serves.
//!
//! There is one [`Pool`] type for every engine ([`PoolEngine`]): the
//! Algorithm 1 and Algorithm 3 instances of the core driver
//! ([`EvaluatorPool`], [`CountCachePool`]) and the grammar-aware
//! [`SlpEvaluator`] ([`SlpEvaluatorPool`]).

use spanners_core::driver::{Accumulator, Driver};
use spanners_core::{CountCache, EngineMode, EvalLimits, Evaluator, FrozenDelta, SlpEvaluator};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a pool mutex, recovering from poisoning: the pooled engines are
/// plain data whose invariants cannot be broken mid-operation, so a panic in
/// some other worker never invalidates the freelist itself.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// An engine a [`Pool`] hands out: [`Evaluator`], [`CountCache`] or
/// [`SlpEvaluator`]. The trait is sealed; its methods are the crate-private
/// hooks the pool and the batch runtime's degradation ladder drive.
pub trait PoolEngine: sealed::Engine {}

impl<E: sealed::Engine> PoolEngine for E {}

pub(crate) mod sealed {
    use spanners_core::{EvalLimits, FrozenDelta};

    /// The methods of [`super::PoolEngine`].
    pub trait Engine: Send + Sized {
        /// Whether the engine scans document bytes, so the ladder's per-byte
        /// rung applies (grammar composition has no byte loop).
        const BYTE_LOOP: bool = true;
        /// A fresh engine.
        fn fresh() -> Self;
        /// Sets up one attempt: the per-document limits, the one-off cache
        /// and memo byte budgets (`None` keeps the configured ones) and, on
        /// the per-byte rung, the per-byte loop.
        fn attempt(&mut self, limits: EvalLimits, budgets: [Option<usize>; 2], per_byte: bool);
        /// Undoes every attempt setting before the engine is checked in,
        /// restoring the default configuration.
        fn reset(&mut self);
        /// The frozen-overflow delta, if the engine has run against a snapshot.
        fn frozen_delta(&self) -> Option<&FrozenDelta>;
        /// Bytes of governed memory held.
        fn governed_bytes(&self) -> usize;
        /// Sheds lazy caches and frozen deltas (governor severity 1); returns
        /// the bytes freed.
        fn shed_cold_memory(&mut self) -> usize;
        /// Sheds memo tables (governor severity 2); returns the bytes freed.
        fn shed_memos(&mut self) -> usize {
            0
        }
    }
}

impl<A: Accumulator> sealed::Engine for Driver<A>
where
    Driver<A>: Send,
{
    fn fresh() -> Self {
        Driver::new()
    }
    fn attempt(&mut self, limits: EvalLimits, [cache, _]: [Option<usize>; 2], per_byte: bool) {
        self.set_limits(limits);
        self.set_cache_budget_override(cache);
        if per_byte {
            self.set_mode(EngineMode::PerByte);
        }
    }
    fn reset(&mut self) {
        self.attempt(EvalLimits::none(), [None; 2], false);
        self.set_mode(EngineMode::default());
    }
    fn frozen_delta(&self) -> Option<&FrozenDelta> {
        Driver::frozen_delta(self)
    }
    fn governed_bytes(&self) -> usize {
        Driver::governed_bytes(self)
    }
    fn shed_cold_memory(&mut self) -> usize {
        Driver::shed_cold_memory(self)
    }
}

/// Checked-in evaluators keep their `(symbol, state)` memo tables alongside
/// their lazy caches and frozen deltas, so a batch over one shared rule set
/// composes most documents from already-memoized rows.
impl sealed::Engine for SlpEvaluator {
    const BYTE_LOOP: bool = false;
    fn fresh() -> Self {
        SlpEvaluator::new()
    }
    fn attempt(&mut self, limits: EvalLimits, [cache, memo]: [Option<usize>; 2], _: bool) {
        self.set_limits(limits);
        self.set_cache_budget_override(cache);
        self.set_memo_budget_override(memo);
    }
    fn reset(&mut self) {
        self.attempt(EvalLimits::none(), [None; 2], false);
    }
    fn frozen_delta(&self) -> Option<&FrozenDelta> {
        SlpEvaluator::frozen_delta(self)
    }
    fn governed_bytes(&self) -> usize {
        SlpEvaluator::governed_bytes(self)
    }
    fn shed_cold_memory(&mut self) -> usize {
        SlpEvaluator::shed_cold_memory(self)
    }
    fn shed_memos(&mut self) -> usize {
        SlpEvaluator::shed_memos(self)
    }
}

/// A pool of warm engines.
///
/// ```
/// use spanners_runtime::EvaluatorPool;
/// let pool = EvaluatorPool::new();
/// {
///     let mut evaluator = pool.checkout(); // fresh engine: the pool was empty
///     let _ = &mut *evaluator;             // …use it…
/// } // drop checks it back in, capacity retained
/// assert_eq!(pool.idle(), 1);
/// assert_eq!(pool.engines_created(), 1);
/// let _again = pool.checkout(); // the same warm engine, not a new one
/// assert_eq!(pool.engines_created(), 1);
/// ```
#[derive(Debug)]
pub struct Pool<E: PoolEngine> {
    /// Idle engines, each tagged with the serving generation it last ran
    /// under (`0` for untagged batch work). Tag-aware checkouts prefer an
    /// engine of their own generation — its [`FrozenDelta`] is already bound
    /// to that generation's snapshot, so no rebind-reset.
    idle: Mutex<Vec<(u64, E)>>,
    created: AtomicUsize,
    quarantined: AtomicUsize,
}

/// A pool of warm [`Evaluator`]s (Algorithm 1 engines).
pub type EvaluatorPool = Pool<Evaluator>;
/// A pool of warm [`CountCache`]s (Algorithm 3 engines).
pub type CountCachePool<C> = Pool<CountCache<C>>;
/// A pool of warm [`SlpEvaluator`]s (grammar-aware engines).
pub type SlpEvaluatorPool = Pool<SlpEvaluator>;

impl<E: PoolEngine> Default for Pool<E> {
    fn default() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        }
    }
}

impl<E: PoolEngine> Pool<E> {
    /// An empty pool handing out engines in their default configuration
    /// (byte engines: [`EngineMode::SkipScan`]).
    pub fn new() -> Self {
        Pool::default()
    }

    /// Checks an engine out: a warm one when available, a fresh one
    /// otherwise. The returned guard checks it back in on drop.
    pub fn checkout(&self) -> Pooled<'_, E> {
        self.checkout_tagged(0)
    }

    /// Checks an engine out preferring one last used under generation `tag`
    /// (falling back to any warm engine, then to a fresh one). The guard
    /// remembers the tag and checks the engine back in under it.
    pub fn checkout_tagged(&self, tag: u64) -> Pooled<'_, E> {
        crate::faults::checkout_fault();
        let engine = {
            let mut idle = lock(&self.idle);
            match idle.iter().rposition(|&(t, _)| t == tag) {
                Some(i) => Some(idle.swap_remove(i).1),
                None => idle.pop().map(|(_, e)| e),
            }
        };
        let engine = engine.unwrap_or_else(|| self.create());
        Pooled { pool: self, engine: Some(engine), tag }
    }

    fn create(&self) -> E {
        self.created.fetch_add(1, Ordering::Relaxed);
        E::fresh()
    }

    /// Number of engines currently checked in.
    pub fn idle(&self) -> usize {
        lock(&self.idle).len()
    }

    /// Total engines ever created — the warm-reuse diagnostic: a pool serving
    /// from warm engines stops incrementing this.
    pub fn engines_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Total engines quarantined (see [`Pooled::quarantine`]) — each was
    /// dropped instead of checked back in, and a fresh replacement was
    /// checked in pre-emptively in its place.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Governed bytes held by the idle engines — what this pool settles into
    /// a global [`spanners_core::MemoryGovernor`]. Checked-out engines are
    /// counted at the next settle point, after their batch checks them back
    /// in.
    pub fn governed_bytes(&self) -> usize {
        lock(&self.idle).iter().map(|(_, e)| e.governed_bytes()).sum()
    }

    /// Sheds every idle engine's lazy caches and frozen deltas (severity 1
    /// of the global shedding ladder). Returns the number of engines that
    /// actually freed bytes.
    pub fn shed_cold(&self) -> u64 {
        self.shed_each(E::shed_cold_memory)
    }

    /// Sheds every idle engine's memo tables (severity 2; only grammar-aware
    /// engines have any). Returns the number of engines that freed bytes.
    pub fn shed_memos(&self) -> u64 {
        self.shed_each(E::shed_memos)
    }

    fn shed_each(&self, shed: impl Fn(&mut E) -> usize) -> u64 {
        lock(&self.idle).iter_mut().map(|(_, e)| shed(e)).filter(|&freed| freed > 0).count() as u64
    }
}

/// Checkout guard of a [`Pool`]; derefs to the engine and returns it
/// (capacity retained) on drop.
#[derive(Debug)]
pub struct Pooled<'p, E: PoolEngine> {
    pool: &'p Pool<E>,
    engine: Option<E>,
    tag: u64,
}

impl<E: PoolEngine> Deref for Pooled<'_, E> {
    type Target = E;
    fn deref(&self) -> &E {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl<E: PoolEngine> DerefMut for Pooled<'_, E> {
    fn deref_mut(&mut self) -> &mut E {
        self.engine.as_mut().expect("engine present until drop")
    }
}

impl<E: PoolEngine> Pooled<'_, E> {
    /// Consumes the guard **without** checking the engine back in: the
    /// engine is dropped and the pool's quarantine counter bumped. Used by
    /// panic containment — an engine whose evaluation unwound mid-document
    /// may hold arbitrarily corrupted arena state, so it must never serve
    /// another document. Replenishment is **pre-emptive**: a fresh engine is
    /// checked in immediately (counted in `engines_created`), so a pool
    /// hammered by sustained panics never drains toward zero engines and
    /// `engines_created` stays exactly `quarantined + peak concurrency`.
    pub fn quarantine(mut self) {
        if self.engine.take().is_some() {
            self.pool.quarantined.fetch_add(1, Ordering::Relaxed);
            let fresh = self.pool.create();
            lock(&self.pool.idle).push((self.tag, fresh));
        }
    }
}

impl<E: PoolEngine> Drop for Pooled<'_, E> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            lock(&self.pool.idle).push((self.tag, engine));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::{
        ByteClass, CompiledSpanner, Document, EnginePolicy, EvaBuilder, MarkerSet, Slp, VarRegistry,
    };

    /// Runs one document through an engine against a lazy spanner, so the
    /// engine holds governed memory afterwards.
    trait RunLazy: PoolEngine {
        fn run_lazy(&mut self, spanner: &CompiledSpanner, text: &[u8]);
    }

    impl RunLazy for Evaluator {
        fn run_lazy(&mut self, spanner: &CompiledSpanner, text: &[u8]) {
            spanner.evaluate_with(self, &Document::new(text.to_vec())).num_nodes();
        }
    }

    impl RunLazy for CountCache<u64> {
        fn run_lazy(&mut self, spanner: &CompiledSpanner, text: &[u8]) {
            spanner.count_with(self, &Document::new(text.to_vec())).unwrap();
        }
    }

    impl RunLazy for SlpEvaluator {
        fn run_lazy(&mut self, spanner: &CompiledSpanner, text: &[u8]) {
            spanner.count_slp_with(self, &Slp::literal(text)).unwrap();
        }
    }

    /// `Σ* x{a+} Σ*` on the lazy engine.
    fn lazy_spanner() -> CompiledSpanner {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(3);
        b.set_initial(q[0]);
        b.set_final(q[2]);
        b.add_letter(q[0], ByteClass::any(), q[0]);
        b.add_byte(q[1], b'a', q[1]);
        b.add_letter(q[2], ByteClass::any(), q[2]);
        b.add_var(q[0], MarkerSet::new().with_open(x), q[1]).unwrap();
        b.add_var(q[1], MarkerSet::new().with_close(x), q[2]).unwrap();
        CompiledSpanner::from_eva_with(&b.build().unwrap(), EnginePolicy::Lazy).unwrap()
    }

    fn checkout_reuses_warm_engines<E: PoolEngine>() {
        let pool = Pool::<E>::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.engines_created(), 2);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.engines_created(), 2, "warm engine must be reused");
        assert_eq!(pool.idle(), 1);
    }

    fn pool_recovers_from_lock_poisoning<E: PoolEngine>() {
        let pool = Pool::<E>::new();
        // Poison the freelist mutex: panic on another thread while holding it.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = lock(&pool.idle);
                panic!("poison the pool lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(pool.idle.is_poisoned());
        // The pool recovers: checkout/checkin still work on the poisoned lock.
        {
            let _engine = pool.checkout();
        }
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.engines_created(), 1);
        let _again = pool.checkout();
        assert_eq!(pool.engines_created(), 1, "warm engine reused across poisoning");
    }

    fn panic_while_holding_guard_leaves_pool_usable<E: PoolEngine>() {
        let pool = Pool::<E>::new();
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _engine = pool.checkout();
                panic!("worker died holding a checkout guard");
            });
            assert!(handle.join().is_err());
        });
        // The guard's Drop ran during unwinding: the engine was checked back
        // in, and the pool serves the next caller.
        assert_eq!(pool.idle(), 1);
        let _engine = pool.checkout();
        assert_eq!(pool.engines_created(), 1);
    }

    fn quarantined_engines_are_replaced_preemptively<E: PoolEngine>() {
        let pool = Pool::<E>::new();
        pool.checkout().quarantine();
        // The poisoned engine is gone, but a fresh replacement is already
        // checked in: the pool never drains toward zero under quarantines.
        assert_eq!(pool.idle(), 1, "quarantine must check a fresh replacement in");
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.engines_created(), 2);
        // The next checkout reuses the replacement — no further creation.
        let _fresh = pool.checkout();
        assert_eq!(pool.engines_created(), 2);
    }

    fn sustained_quarantines_keep_the_pool_stocked_and_creation_bounded<E: PoolEngine>() {
        // The replenishment invariant of the streaming runtime: a pool
        // hammered by panics (every other document quarantining its engine)
        // must never be found empty by the next checkout, and engines_created
        // must stay exactly quarantined + peak concurrency.
        let pool = Pool::<E>::new();
        for i in 0..100 {
            let engine = pool.checkout();
            // Live engines (created minus quarantined) never dip below the
            // peak concurrency of 1: every checkout after the first found a
            // warm engine waiting, so creation tracks quarantines exactly.
            assert_eq!(
                pool.engines_created() - pool.quarantined(),
                1,
                "pool drained or overcreated at iteration {i}"
            );
            if i % 2 == 1 {
                engine.quarantine();
            }
        }
        assert_eq!(pool.quarantined(), 50);
        assert_eq!(pool.engines_created(), 51);
        assert_eq!(pool.idle(), 1, "exactly one live engine remains at quiescence");
    }

    fn tagged_checkout_prefers_matching_generation<E: PoolEngine>() {
        let pool = Pool::<E>::new();
        // Seed two engines under generations 1 and 2.
        {
            let _g1 = pool.checkout_tagged(1);
            let _g2 = pool.checkout_tagged(2);
        }
        assert_eq!(pool.idle(), 2);
        // A generation-2 checkout takes the generation-2 engine, leaving the
        // generation-1 engine idle.
        {
            let _e = pool.checkout_tagged(2);
            assert_eq!(pool.engines_created(), 2, "matching engine must be reused");
            assert_eq!(lock(&pool.idle)[0].0, 1, "generation-1 engine left idle");
        }
        // A checkout for an unseen generation falls back to any warm engine
        // rather than creating a cold one.
        let _e = pool.checkout_tagged(7);
        assert_eq!(pool.engines_created(), 2, "fallback must reuse a warm engine");
    }

    fn pool_governs_memory_of_lazy_runs<E: RunLazy>() {
        let spanner = lazy_spanner();
        let pool = Pool::<E>::new();
        pool.checkout().run_lazy(&spanner, b"xaay aaa z");
        assert!(pool.governed_bytes() > 0, "a lazy run leaves governed memory");
        assert_eq!(pool.shed_cold(), 1, "the idle engine sheds its lazy cache");
        pool.shed_memos();
        assert_eq!(pool.governed_bytes(), 0, "nothing governed is left after shedding");
        // Shedding never breaks the engine: it rebuilds on the next run.
        pool.checkout().run_lazy(&spanner, b"aa");
        assert_eq!(pool.engines_created(), 1);
    }

    fn pools_are_shareable_across_threads<E: PoolEngine>()
    where
        Pool<E>: Sync,
    {
        let pool = Pool::<E>::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _engine = pool.checkout();
                    }
                });
            }
        });
        // Contention bound: never more engines than peak concurrent checkouts.
        assert!(pool.engines_created() <= 4, "created {}", pool.engines_created());
        assert_eq!(pool.idle(), pool.engines_created());
    }

    /// Instantiates every pool test for one engine type.
    macro_rules! pool_tests {
        ($($module:ident: $engine:ty,)*) => {$(
            mod $module {
                use super::*;

                #[test]
                fn checkout_reuses_warm_engines() {
                    super::checkout_reuses_warm_engines::<$engine>();
                }

                #[test]
                fn pool_recovers_from_lock_poisoning() {
                    super::pool_recovers_from_lock_poisoning::<$engine>();
                }

                #[test]
                fn panic_while_holding_guard_leaves_pool_usable() {
                    super::panic_while_holding_guard_leaves_pool_usable::<$engine>();
                }

                #[test]
                fn quarantined_engines_are_replaced_preemptively() {
                    super::quarantined_engines_are_replaced_preemptively::<$engine>();
                }

                #[test]
                fn sustained_quarantines_keep_the_pool_stocked_and_creation_bounded() {
                    super::sustained_quarantines_keep_the_pool_stocked_and_creation_bounded::<
                        $engine,
                    >();
                }

                #[test]
                fn tagged_checkout_prefers_matching_generation() {
                    super::tagged_checkout_prefers_matching_generation::<$engine>();
                }

                #[test]
                fn pool_governs_memory_of_lazy_runs() {
                    super::pool_governs_memory_of_lazy_runs::<$engine>();
                }

                #[test]
                fn pools_are_shareable_across_threads() {
                    super::pools_are_shareable_across_threads::<$engine>();
                }
            }
        )*};
    }

    pool_tests! {
        evaluator: Evaluator,
        count_cache: CountCache<u64>,
        slp_evaluator: SlpEvaluator,
    }
}
