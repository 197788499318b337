//! Deterministic fault injection for the batch runtime.
//!
//! Everything here is gated behind the **`fault-injection`** cargo feature;
//! without it every hook compiles to an inline no-op and the production
//! binary carries no injection machinery at all. With the feature on, a test
//! installs a `FaultPlan` and the runtime's hooks consult it at two
//! deterministic points:
//!
//! * **checkout** — the Nth engine checkout (a process-wide ordinal) panics,
//!   exercising worker-initialization containment;
//! * **per document** — a document index can be made to (a) panic
//!   mid-evaluation, (b) run with a zero determinization-cache budget so
//!   every maintenance point evicts (forced eviction thrash, tripping
//!   [`spanners_core::EvalLimits::max_cache_clears`] when set), or (c) run
//!   under an already-expired hard deadline;
//! * **streaming** — the Nth re-freeze promotion panics mid-build, the Nth
//!   generation swap is abandoned, or the Nth micro-batch dequeue stalls
//!   past every per-request deadline it carries.
//!
//! All triggers key on stable indices/ordinals — never on timing — so a
//! torture run is reproducible at any thread count. The plan is installed
//! process-globally (there is one batch runtime per process); tests that
//! install plans serialize on their own mutex and rely on the returned
//! `FaultGuard` to uninstall on drop, panics included.

#![cfg_attr(not(feature = "fault-injection"), allow(dead_code))]

/// The faults scheduled for one document index (resolved by
/// `doc_faults`; all-`false` when no plan is installed or the feature is
/// off).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DocFaults {
    /// Panic mid-evaluation of this document.
    pub panic: bool,
    /// Evaluate this document with a zero cache budget (every maintenance
    /// point evicts).
    pub force_eviction: bool,
    /// Evaluate this document under an already-expired hard deadline.
    pub expire_deadline: bool,
}

#[cfg(feature = "fault-injection")]
mod enabled {
    use super::DocFaults;
    use std::sync::Mutex;

    /// A deterministic schedule of injected faults, keyed on document
    /// indices and per-trigger ordinals.
    #[derive(Debug, Default, Clone)]
    pub struct FaultPlan {
        /// Document indices whose evaluation panics.
        pub panic_on_docs: Vec<usize>,
        /// Process-wide checkout ordinals (0-based, counted from `install`)
        /// that panic instead of handing out an engine.
        pub fail_checkouts: Vec<usize>,
        /// Document indices evaluated with a zero cache budget.
        pub force_eviction_docs: Vec<usize>,
        /// Document indices evaluated under an already-expired deadline.
        pub expire_deadline_docs: Vec<usize>,
        /// Re-freeze promotion ordinals (0-based, counted from `install`)
        /// that panic mid-promotion — the streaming server must contain the
        /// panic and keep serving on the old generation.
        pub panic_on_promotions: Vec<usize>,
        /// Generation-swap ordinals whose swap is abandoned (the freshly
        /// built snapshot is dropped; serving continues on the old one).
        pub fail_swaps: Vec<usize>,
        /// Streaming dequeue ordinals (0-based, one per formed micro-batch)
        /// whose queue wait is treated as having outlived every per-request
        /// deadline in the batch.
        pub stall_dequeues: Vec<usize>,
        /// Tenants whose circuit breaker is forced open at their next
        /// admission attempt (and every one after, for as long as the plan
        /// is installed) — exercising breaker shedding without needing real
        /// failures first.
        pub trip_breaker_on_tenants: Vec<String>,
        /// Admission ordinals (0-based, one per admission attempt since
        /// `install`) denied with [`spanners_core::SpannerError::QuotaExceeded`]
        /// kind `"injected"` — exercising quota-rejection handling on an
        /// exact, reproducible submission.
        pub deny_admission_docs: Vec<usize>,
        /// Simulated external memory pressure, in bytes, reported to the
        /// global memory governor at every settle point — drives the
        /// governor's shedding ladder deterministically without allocating.
        pub governor_pressure: usize,
    }

    /// The installed plan plus the per-trigger ordinals seen since install.
    #[derive(Debug)]
    struct Installed {
        plan: FaultPlan,
        checkouts: usize,
        promotions: usize,
        swaps: usize,
        dequeues: usize,
        admissions: usize,
    }

    static PLAN: Mutex<Option<Installed>> = Mutex::new(None);

    fn plan_lock() -> std::sync::MutexGuard<'static, Option<Installed>> {
        match PLAN.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Installs `plan` process-globally, resetting every trigger ordinal.
    /// The previous plan (if any) is replaced. Dropping the returned guard
    /// uninstalls the plan — unwinding included, so a failed test never
    /// leaks faults into the next one.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        *plan_lock() = Some(Installed {
            plan,
            checkouts: 0,
            promotions: 0,
            swaps: 0,
            dequeues: 0,
            admissions: 0,
        });
        FaultGuard(())
    }

    /// Uninstalls the active [`FaultPlan`] on drop.
    #[derive(Debug)]
    pub struct FaultGuard(());

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *plan_lock() = None;
        }
    }

    /// The faults scheduled for document `doc_index` under the installed
    /// plan.
    pub(crate) fn doc_faults(doc_index: usize) -> DocFaults {
        match plan_lock().as_ref() {
            Some(inst) => DocFaults {
                panic: inst.plan.panic_on_docs.contains(&doc_index),
                force_eviction: inst.plan.force_eviction_docs.contains(&doc_index),
                expire_deadline: inst.plan.expire_deadline_docs.contains(&doc_index),
            },
            None => DocFaults::default(),
        }
    }

    /// Engine-checkout hook: counts the checkout and panics when its ordinal
    /// is scheduled to fail. The plan lock is released before panicking.
    pub(crate) fn checkout_fault() {
        let fail = {
            let mut guard = plan_lock();
            match guard.as_mut() {
                Some(inst) => {
                    let ordinal = inst.checkouts;
                    inst.checkouts += 1;
                    inst.plan.fail_checkouts.contains(&ordinal)
                }
                None => false,
            }
        };
        if fail {
            panic!("injected fault: engine checkout failed");
        }
    }

    /// Re-freeze promotion hook: counts the promotion attempt and panics
    /// when its ordinal is scheduled to fail. The plan lock is released
    /// before panicking — the streaming server wraps promotion in
    /// `catch_unwind` and keeps serving the old generation.
    pub(crate) fn promotion_fault() {
        let fail = {
            let mut guard = plan_lock();
            match guard.as_mut() {
                Some(inst) => {
                    let ordinal = inst.promotions;
                    inst.promotions += 1;
                    inst.plan.panic_on_promotions.contains(&ordinal)
                }
                None => false,
            }
        };
        if fail {
            panic!("injected fault: re-freeze promotion panicked");
        }
    }

    /// Generation-swap hook: counts the swap attempt; `true` means the swap
    /// must be abandoned (the new snapshot dropped, the old one kept).
    pub(crate) fn swap_fault() -> bool {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(inst) => {
                let ordinal = inst.swaps;
                inst.swaps += 1;
                inst.plan.fail_swaps.contains(&ordinal)
            }
            None => false,
        }
    }

    /// Streaming-dequeue hook: counts the formed micro-batch; `true` means
    /// the dequeue is treated as having stalled past every per-request
    /// deadline carried by the batch (deadline-less tickets are unaffected).
    pub(crate) fn stall_fault() -> bool {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(inst) => {
                let ordinal = inst.dequeues;
                inst.dequeues += 1;
                inst.plan.stall_dequeues.contains(&ordinal)
            }
            None => false,
        }
    }

    /// Admission hook: counts the admission attempt; `true` means this
    /// ordinal must be denied with an injected quota rejection.
    pub(crate) fn admission_fault() -> bool {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(inst) => {
                let ordinal = inst.admissions;
                inst.admissions += 1;
                inst.plan.deny_admission_docs.contains(&ordinal)
            }
            None => false,
        }
    }

    /// Breaker hook: `true` when `tenant`'s breaker must be forced open at
    /// this admission attempt.
    pub(crate) fn breaker_trip(tenant: &str) -> bool {
        match plan_lock().as_ref() {
            Some(inst) => inst.plan.trip_breaker_on_tenants.iter().any(|t| t == tenant),
            None => false,
        }
    }

    /// Governor hook: simulated external memory pressure, in bytes (zero
    /// without a plan).
    pub(crate) fn governor_pressure() -> usize {
        match plan_lock().as_ref() {
            Some(inst) => inst.plan.governor_pressure,
            None => 0,
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use enabled::{install, FaultGuard, FaultPlan};

#[cfg(feature = "fault-injection")]
pub(crate) use enabled::{
    admission_fault, breaker_trip, checkout_fault, doc_faults, governor_pressure, promotion_fault,
    stall_fault, swap_fault,
};

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn doc_faults(_doc_index: usize) -> DocFaults {
    DocFaults::default()
}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn checkout_fault() {}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn promotion_fault() {}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn swap_fault() -> bool {
    false
}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn stall_fault() -> bool {
    false
}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn admission_fault() -> bool {
    false
}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn breaker_trip(_tenant: &str) -> bool {
    false
}

/// No-op stub compiled without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn governor_pressure() -> usize {
    0
}
