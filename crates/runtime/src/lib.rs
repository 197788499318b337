//! # spanners-runtime
//!
//! The parallel batch/serving runtime: evaluate one warm compiled spanner
//! over **many documents at once**, on plain `std` threads, with the
//! determinization work shared instead of repeated per worker.
//!
//! The paper's constant-delay guarantee is per-document; serving traffic is
//! about throughput *across* documents. Three pieces turn the single-document
//! engines of `spanners-core` into a serving runtime:
//!
//! * **engine pools** — one [`Pool`] type, instantiated as [`EvaluatorPool`],
//!   [`CountCachePool`] and [`SlpEvaluatorPool`] — hand out warm per-worker
//!   [`Evaluator`]s, [`CountCache`]s (the Algorithm 1 and Algorithm 3
//!   instances of the core driver) and [`SlpEvaluator`]s with a
//!   checkout/checkin guard. Engines retain their arena capacity across
//!   documents *and* batches, preserving the zero-steady-state-allocation
//!   contract of the core crate;
//! * **shared frozen caches** — for lazy-backed spanners, the warm
//!   determinization cache is snapshotted once into an immutable
//!   `FrozenCache` (`Send + Sync`, shared via [`std::sync::Arc`]); workers
//!   step through it read-only, each with a private overflow delta, so N
//!   threads no longer re-determinize the same user-supplied spanner N
//!   times. The snapshot includes the per-state **skippable-class masks** of
//!   the skip-mask scanning engine (`EngineMode::SkipScan`, the default),
//!   so every worker skips straight to the next interesting byte
//!   off the same shared tables;
//! * **batch entry points** — [`BatchSpanner`] adds
//!   `evaluate_batch`/`count_batch`/`is_match_batch` to
//!   [`CompiledSpanner`] (one-shot, transient pools), and [`SpannerServer`]
//!   is the long-lived form that keeps pools and the frozen snapshot warm
//!   across calls. Both fan out over [`std::thread::scope`] workers — no
//!   external dependencies — return results in **document order**, and fall
//!   back to a plain sequential loop for a single thread.
//!
//! Determinism: batch results (including mapping enumeration order) are a
//! pure function of the spanner, the frozen snapshot and each document —
//! never of worker scheduling — so every thread count produces byte-for-byte
//! identical output. `tests/batch_runtime.rs` in the workspace root pins
//! this against the sequential engines.
//!
//! ```
//! use spanners_core::{CompiledSpanner, Document};
//! use spanners_runtime::{BatchOptions, BatchSpanner};
//! # use spanners_core::{EvaBuilder, ByteClass, MarkerSet, VarRegistry};
//! # let mut reg = VarRegistry::new();
//! # let x = reg.intern("x").unwrap();
//! # let mut b = EvaBuilder::new(reg);
//! # let q0 = b.add_state();
//! # let q1 = b.add_state();
//! # let q2 = b.add_state();
//! # b.set_initial(q0);
//! # b.set_final(q2);
//! # b.add_letter(q0, ByteClass::any(), q0);
//! # b.add_byte(q1, b'a', q1);
//! # b.add_letter(q2, ByteClass::any(), q2);
//! # b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
//! # b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
//! # let spanner = CompiledSpanner::from_eva(&b.build().unwrap()).unwrap();
//! let docs: Vec<Document> = ["baab", "xx", "aaa"].iter().map(|t| Document::from(*t)).collect();
//! let counts = spanner.count_batch::<u64>(&docs, &BatchOptions::default()).unwrap();
//! assert_eq!(counts, vec![3, 0, 6]);
//! let nodes = spanner.evaluate_batch(&docs, &BatchOptions::default(), |_, dag| dag.num_nodes());
//! assert_eq!(nodes.len(), docs.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod batch;
pub mod faults;
pub mod multi;
pub mod pool;
pub mod report;
pub mod server;
pub mod streaming;

pub use admission::{
    AdmissionController, AdmissionStats, BreakerPhase, BreakerPolicy, Governance, RateLimit,
    RetryPolicy, TenantAdmissionStats, TenantQuota, TenantQuotas,
};
pub use batch::{BatchOptions, BatchSpanner};
pub use multi::{
    MultiBatchReport, MultiSpanner, MultiSpannerServer, MultiStreamingServer, MultiTicket,
};
pub use pool::{CountCachePool, EvaluatorPool, Pool, PoolEngine, Pooled, SlpEvaluatorPool};
pub use report::{BatchReport, BatchSummary, DegradePolicy, TenantSlot};
pub use server::SpannerServer;
pub use streaming::{RefreezePolicy, StreamingOptions, StreamingServer, StreamingStats, Ticket};

#[cfg(feature = "fault-injection")]
pub use faults::{install as install_faults, FaultGuard, FaultPlan};

// Re-exported so runtime users do not need a direct spanners-core dependency
// for the common types that appear in this crate's signatures.
pub use spanners_core::{
    CompiledSpanner, CountCache, Counter, DagView, Document, EngineMode, EvalLimits, Evaluator,
    FrozenCache, GovernorStats, MemoryGovernor, Slp, SlpEvaluator, SlpRules, SlpSharedMemo,
    SpannerError,
};
