//! # spanners — constant-delay evaluation of regular document spanners
//!
//! Facade crate re-exporting the public API of the `spanners-*` workspace.
//! See the individual crates for details:
//!
//! * [`core`] — spans, mappings, extended VA, the constant-delay
//!   enumeration (Algorithms 1–2) and counting (Algorithm 3) of the paper;
//! * [`automata`] — classical variable-set automata and the
//!   translations/determinization of Section 4;
//! * [`regex`] — regex formulas with capture variables;
//! * [`algebra`] — the spanner algebra `{π, ∪, ⋈}`;
//! * [`baselines`] — comparison evaluation algorithms;
//! * [`runtime`] — the parallel batch/serving runtime
//!   (engine pools, shared frozen determinization caches, multi-document
//!   batch APIs, and the streaming service with generational snapshot
//!   re-freezing);
//! * [`workloads`] — synthetic documents and spanner families.

pub use spanners_algebra as algebra;
pub use spanners_automata as automata;
pub use spanners_baselines as baselines;
pub use spanners_core as core;
pub use spanners_regex as regex;
pub use spanners_runtime as runtime;
pub use spanners_workloads as workloads;

pub use spanners_core::{
    count_mappings, CompiledSpanner, CountCache, Document, EngineMode, EnginePolicy,
    EnumerationDag, Eva, EvaBuilder, EvalLimits, Evaluator, EvictionPolicy, FrozenCache,
    FrozenDelta, GovernorStats, LazyCache, LazyConfig, LazyDetSeva, Mapping, MarkerSet,
    MemoryGovernor, Slp, SlpEvaluator, SlpRules, Span, SpannerError, Target, VarId, VarRegistry,
};
pub use spanners_runtime::{
    AdmissionController, AdmissionStats, BatchOptions, BatchReport, BatchSpanner, BatchSummary,
    BreakerPhase, BreakerPolicy, DegradePolicy, Governance, MultiBatchReport, MultiSpanner,
    MultiSpannerServer, MultiStreamingServer, MultiTicket, RateLimit, RefreezePolicy, RetryPolicy,
    SpannerServer, StreamingOptions, StreamingServer, StreamingStats, TenantAdmissionStats,
    TenantQuota, TenantQuotas, TenantSlot, Ticket,
};
