//! Tenant isolation and overload governance for the streaming servers:
//! per-tenant admission quotas, circuit breakers, deterministic
//! retry/backoff, and the wiring that hands a global
//! [`spanners_core::MemoryGovernor`] to a server.
//!
//! Everything here is deliberately **batch-clocked**, not wall-clocked:
//! token buckets refill per completed micro-batch and breakers cool down in
//! completed batches, so every admission decision is a pure function of the
//! submission/completion sequence — reproducible in tests and under the
//! deterministic fault harness ([`crate::faults`]), which can trip breakers
//! (`trip_breaker_on_tenants`), deny admissions (`deny_admission_docs`) and
//! simulate governor pressure (`governor_pressure`) without any real load.
//!
//! The admission pipeline, in the order a submission traverses it:
//!
//! 1. **Global memory governor** — a retryable
//!    [`SpannerError::BudgetExceeded`] while the process is over its byte
//!    budget (severity 3 of the governor's shedding ladder);
//! 2. **Circuit breaker** — [`SpannerError::CircuitOpen`] while the
//!    tenant's breaker is open (its recent documents kept failing);
//! 3. **Quotas** — [`SpannerError::QuotaExceeded`] when the tenant is at
//!    its in-flight-document cap, queued-byte cap, or out of rate tokens;
//! 4. **Queue backpressure** — the pre-existing bounded ingress queue
//!    ([`SpannerError::Overloaded`] on `try_submit`, blocking on `submit`).
//!
//! All four rejections are **retryable** ([`SpannerError::is_retryable`]);
//! [`RetryPolicy`] packages the bounded decorrelated-jitter backoff loop
//! callers should drive them with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spanners_core::{MemoryGovernor, SpannerError};

use crate::faults;
use crate::pool::lock;

/// Admission limits for one tenant. All dimensions default to `None`
/// (unlimited); each is enforced independently and reports its own
/// [`SpannerError::QuotaExceeded`] `kind`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum documents admitted but not yet completed (queued or being
    /// evaluated). Exceeding it rejects with kind `"in-flight documents"`.
    pub max_in_flight_docs: Option<usize>,
    /// Maximum bytes of this tenant's documents sitting in ingress queues
    /// (a document's bytes are released when a worker dequeues it).
    /// Exceeding it rejects with kind `"queued bytes"`. A single document
    /// larger than this cap can never be admitted.
    pub max_queued_bytes: Option<usize>,
    /// Batch-clocked token bucket; `None` disables rate limiting.
    /// An empty bucket rejects with kind `"rate tokens"`.
    pub rate: Option<RateLimit>,
}

impl TenantQuota {
    /// No limits at all (the default).
    pub fn unlimited() -> TenantQuota {
        TenantQuota::default()
    }

    /// Returns this quota with an in-flight document cap.
    pub fn with_max_in_flight_docs(mut self, max: usize) -> TenantQuota {
        self.max_in_flight_docs = Some(max);
        self
    }

    /// Returns this quota with a queued-byte cap.
    pub fn with_max_queued_bytes(mut self, max: usize) -> TenantQuota {
        self.max_queued_bytes = Some(max);
        self
    }

    /// Returns this quota with a token-bucket rate limit.
    pub fn with_rate(mut self, rate: RateLimit) -> TenantQuota {
        self.rate = Some(rate);
        self
    }
}

/// A **batch-clocked** token bucket: the bucket starts full at `burst`,
/// every admission consumes one token, and every completed micro-batch
/// refills `refill_per_batch` tokens (capped at `burst`). Clocking on
/// completed batches instead of wall time keeps admission decisions
/// deterministic: the same submission/completion sequence always admits and
/// rejects the same documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: the largest admission burst from a full bucket.
    pub burst: u32,
    /// Tokens restored per completed micro-batch.
    pub refill_per_batch: u32,
}

/// The quota table handed to an [`AdmissionController`]: a default quota
/// for unlisted tenants plus per-tenant overrides.
#[derive(Debug, Clone, Default)]
pub struct TenantQuotas {
    default: TenantQuota,
    overrides: Vec<(String, TenantQuota)>,
}

impl TenantQuotas {
    /// Every tenant unlimited (overrides can still be added).
    pub fn unlimited() -> TenantQuotas {
        TenantQuotas::default()
    }

    /// The same quota for every tenant not otherwise listed.
    pub fn uniform(default: TenantQuota) -> TenantQuotas {
        TenantQuotas { default, overrides: Vec::new() }
    }

    /// Returns this table with a per-tenant override (last write wins).
    pub fn with_tenant(mut self, id: impl Into<String>, quota: TenantQuota) -> TenantQuotas {
        let id = id.into();
        if let Some(slot) = self.overrides.iter_mut().find(|(t, _)| *t == id) {
            slot.1 = quota;
        } else {
            self.overrides.push((id, quota));
        }
        self
    }

    /// The quota in effect for `tenant`.
    pub fn for_tenant(&self, tenant: &str) -> TenantQuota {
        self.overrides.iter().find_map(|(t, q)| (t == tenant).then_some(*q)).unwrap_or(self.default)
    }
}

/// Circuit-breaker tuning, shared by every tenant slot of one controller.
///
/// The breaker is a classic three-state machine, clocked on **completed
/// micro-batches** (see the module docs):
///
/// * **Closed** — documents admitted normally; `failure_threshold` failures
///   within a rolling window of `window_docs` completions trips it open.
/// * **Open** — submissions rejected with [`SpannerError::CircuitOpen`]
///   (carrying the remaining cooldown) for `open_batches` completed
///   batches, then the breaker half-opens.
/// * **Half-open** — exactly one probe document is admitted; its success
///   closes the breaker (window reset), its failure re-opens it for
///   another full `open_batches` cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Failures within the window that trip the breaker open. Minimum 1.
    pub failure_threshold: u32,
    /// Completed documents per rolling failure window.
    pub window_docs: u32,
    /// Completed micro-batches the breaker stays open before half-opening.
    pub open_batches: u32,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy { failure_threshold: 5, window_docs: 32, open_batches: 4 }
    }
}

/// The externally observable phase of one tenant's circuit breaker (see
/// [`AdmissionController::breaker_phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Admitting normally.
    Closed,
    /// Shedding every submission until the cooldown elapses.
    Open,
    /// Admitting a single probe document.
    HalfOpen,
}

/// Internal breaker state (see [`BreakerPolicy`] for the transitions).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { window_seen: u32, window_failures: u32 },
    Open { remaining_batches: u32 },
    HalfOpen { probe_outstanding: bool },
}

impl BreakerState {
    fn closed() -> BreakerState {
        BreakerState::Closed { window_seen: 0, window_failures: 0 }
    }

    fn phase(&self) -> BreakerPhase {
        match self {
            BreakerState::Closed { .. } => BreakerPhase::Closed,
            BreakerState::Open { .. } => BreakerPhase::Open,
            BreakerState::HalfOpen { .. } => BreakerPhase::HalfOpen,
        }
    }

    /// Whether a submission may pass right now; `Err` carries the batches
    /// until the next admission opportunity. Does **not** commit the
    /// half-open probe — see [`BreakerState::commit_probe`].
    fn check_admit(&self) -> Result<(), u32> {
        match self {
            BreakerState::Closed { .. } => Ok(()),
            BreakerState::Open { remaining_batches } => Err(*remaining_batches),
            BreakerState::HalfOpen { probe_outstanding: false } => Ok(()),
            BreakerState::HalfOpen { probe_outstanding: true } => Err(1),
        }
    }

    /// Marks the half-open probe as taken (no-op in other states). Called
    /// under the controller lock after every other admission check passed,
    /// so a rejected submission never consumes the probe.
    fn commit_probe(&mut self) {
        if let BreakerState::HalfOpen { probe_outstanding } = self {
            *probe_outstanding = true;
        }
    }

    /// Feeds one completed document's outcome.
    fn note_result(&mut self, ok: bool, policy: &BreakerPolicy) {
        match self {
            BreakerState::Closed { window_seen, window_failures } => {
                *window_seen += 1;
                if !ok {
                    *window_failures += 1;
                }
                if *window_failures >= policy.failure_threshold.max(1) {
                    *self = BreakerState::Open { remaining_batches: policy.open_batches.max(1) };
                } else if *window_seen >= policy.window_docs.max(1) {
                    *self = BreakerState::closed();
                }
            }
            // Results landing while open are stale pre-trip admissions.
            BreakerState::Open { .. } => {}
            BreakerState::HalfOpen { probe_outstanding: true } => {
                *self = if ok {
                    BreakerState::closed()
                } else {
                    BreakerState::Open { remaining_batches: policy.open_batches.max(1) }
                };
            }
            // A stale result before the probe went out: ignore.
            BreakerState::HalfOpen { probe_outstanding: false } => {}
        }
    }

    /// Ticks one completed micro-batch (the breaker clock).
    fn note_batch(&mut self) {
        if let BreakerState::Open { remaining_batches } = self {
            *remaining_batches = remaining_batches.saturating_sub(1);
            if *remaining_batches == 0 {
                *self = BreakerState::HalfOpen { probe_outstanding: false };
            }
        }
    }
}

/// Per-tenant admission state behind the controller lock.
#[derive(Debug)]
struct TenantState {
    id: String,
    quota: TenantQuota,
    in_flight: usize,
    queued_bytes: usize,
    /// Meaningful only when `quota.rate` is set.
    tokens: u32,
    breaker: BreakerState,
}

/// Point-in-time admission counters (see [`AdmissionController::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted through quotas and breakers.
    pub admitted: u64,
    /// Submissions rejected by a quota dimension (injected denials
    /// included).
    pub quota_denials: u64,
    /// Submissions rejected by an open circuit breaker.
    pub breaker_denials: u64,
    /// Distinct tenants the controller has seen.
    pub tenants: usize,
}

/// One tenant's live admission accounting (see
/// [`AdmissionController::tenant_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantAdmissionStats {
    /// Documents admitted but not yet completed.
    pub in_flight: usize,
    /// Bytes of this tenant's documents currently in ingress queues.
    pub queued_bytes: usize,
    /// Rate tokens left (`None` when the tenant is not rate limited).
    pub tokens: Option<u32>,
    /// The tenant's breaker phase.
    pub phase: BreakerPhase,
}

/// The per-tenant admission gate shared by the streaming servers: quotas
/// ([`TenantQuotas`]) plus optional circuit breakers ([`BreakerPolicy`]).
///
/// One controller serves one [`crate::StreamingServer`] or one
/// [`crate::MultiStreamingServer`] (where it gates the whole multi-shard
/// submission once, not once per shard). Constructed by the caller, handed
/// to the server via [`Governance`], and shareable for inspection
/// ([`AdmissionController::stats`],
/// [`AdmissionController::breaker_phase`]).
#[derive(Debug)]
pub struct AdmissionController {
    quotas: TenantQuotas,
    breaker: Option<BreakerPolicy>,
    tenants: Mutex<Vec<TenantState>>,
    admitted: AtomicU64,
    quota_denials: AtomicU64,
    breaker_denials: AtomicU64,
}

impl AdmissionController {
    /// A controller enforcing `quotas`, with circuit breakers armed when
    /// `breaker` is `Some` (the fault harness can still force a breaker
    /// open when unarmed — the forced cooldown then uses
    /// [`BreakerPolicy::default`]).
    pub fn new(quotas: TenantQuotas, breaker: Option<BreakerPolicy>) -> AdmissionController {
        AdmissionController {
            quotas,
            breaker,
            tenants: Mutex::new(Vec::new()),
            admitted: AtomicU64::new(0),
            quota_denials: AtomicU64::new(0),
            breaker_denials: AtomicU64::new(0),
        }
    }

    /// A controller with unlimited quotas and no breakers — admits
    /// everything (useful as a stats-only observer).
    pub fn permissive() -> AdmissionController {
        AdmissionController::new(TenantQuotas::unlimited(), None)
    }

    /// Index of `tenant`'s slot, creating it on first sight. Caller holds
    /// the lock.
    fn slot_of(&self, tenants: &mut Vec<TenantState>, tenant: &str) -> usize {
        if let Some(i) = tenants.iter().position(|t| t.id == tenant) {
            return i;
        }
        let quota = self.quotas.for_tenant(tenant);
        tenants.push(TenantState {
            id: tenant.to_string(),
            quota,
            in_flight: 0,
            queued_bytes: 0,
            tokens: quota.rate.map_or(0, |r| r.burst),
            breaker: BreakerState::closed(),
        });
        tenants.len() - 1
    }

    /// Runs the full admission pipeline for one `bytes`-sized document from
    /// `tenant`. On success the tenant's in-flight and queued-byte
    /// accounting is charged (and a rate token consumed); the returned slot
    /// index must be fed back through [`AdmissionController::release_queued`]
    /// when the document leaves the ingress queue and
    /// [`AdmissionController::note_result`] (or
    /// [`AdmissionController::abandon`]) when it completes (or is dropped
    /// unevaluated at shutdown).
    pub(crate) fn admit(&self, tenant: &str, bytes: usize) -> Result<u32, SpannerError> {
        if faults::admission_fault() {
            self.quota_denials.fetch_add(1, Ordering::Relaxed);
            return Err(SpannerError::QuotaExceeded {
                tenant: tenant.to_string(),
                kind: "injected",
            });
        }
        let mut tenants = lock(&self.tenants);
        let slot = self.slot_of(&mut tenants, tenant);
        let t = &mut tenants[slot];
        if faults::breaker_trip(tenant) {
            let policy = self.breaker.unwrap_or_default();
            t.breaker = BreakerState::Open { remaining_batches: policy.open_batches.max(1) };
        }
        if let Err(retry_after_batches) = t.breaker.check_admit() {
            self.breaker_denials.fetch_add(1, Ordering::Relaxed);
            return Err(SpannerError::CircuitOpen {
                tenant: tenant.to_string(),
                retry_after_batches,
            });
        }
        let deny = |kind: &'static str| {
            self.quota_denials.fetch_add(1, Ordering::Relaxed);
            Err(SpannerError::QuotaExceeded { tenant: tenant.to_string(), kind })
        };
        if let Some(max) = t.quota.max_in_flight_docs {
            if t.in_flight >= max {
                return deny("in-flight documents");
            }
        }
        if let Some(max) = t.quota.max_queued_bytes {
            if t.queued_bytes.saturating_add(bytes) > max {
                return deny("queued bytes");
            }
        }
        if t.quota.rate.is_some() && t.tokens == 0 {
            return deny("rate tokens");
        }
        // Commit: every check passed.
        if t.quota.rate.is_some() {
            t.tokens -= 1;
        }
        t.breaker.commit_probe();
        t.in_flight += 1;
        t.queued_bytes += bytes;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(u32::try_from(slot).expect("tenant slots fit in u32"))
    }

    /// Releases a document's queued-byte charge when a worker dequeues it
    /// into a batch (it still counts as in-flight until its result lands).
    pub(crate) fn release_queued(&self, slot: u32, bytes: usize) {
        let mut tenants = lock(&self.tenants);
        let t = &mut tenants[slot as usize];
        t.queued_bytes = t.queued_bytes.saturating_sub(bytes);
    }

    /// Lands one document's outcome: releases its in-flight charge and
    /// feeds the tenant's breaker (when armed).
    pub(crate) fn note_result(&self, slot: u32, ok: bool) {
        let mut tenants = lock(&self.tenants);
        let t = &mut tenants[slot as usize];
        t.in_flight = t.in_flight.saturating_sub(1);
        if let Some(policy) = &self.breaker {
            t.breaker.note_result(ok, policy);
        }
    }

    /// Releases an admitted-but-never-evaluated document (dropped from the
    /// queue at shutdown/abort) without feeding the breaker: being shed by
    /// the server is not evidence about the tenant's documents.
    pub(crate) fn abandon(&self, slot: u32, bytes: usize) {
        let mut tenants = lock(&self.tenants);
        let t = &mut tenants[slot as usize];
        t.queued_bytes = t.queued_bytes.saturating_sub(bytes);
        t.in_flight = t.in_flight.saturating_sub(1);
    }

    /// Ticks the admission clock: one completed micro-batch. Open breakers
    /// cool down (half-opening at zero) and token buckets refill.
    pub(crate) fn note_batch(&self) {
        let mut tenants = lock(&self.tenants);
        for t in tenants.iter_mut() {
            t.breaker.note_batch();
            if let Some(rate) = t.quota.rate {
                t.tokens = t.tokens.saturating_add(rate.refill_per_batch).min(rate.burst);
            }
        }
    }

    /// The breaker phase of `tenant` (`None` before its first submission).
    pub fn breaker_phase(&self, tenant: &str) -> Option<BreakerPhase> {
        let tenants = lock(&self.tenants);
        tenants.iter().find(|t| t.id == tenant).map(|t| t.breaker.phase())
    }

    /// Live accounting for `tenant` (`None` before its first submission).
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantAdmissionStats> {
        let tenants = lock(&self.tenants);
        tenants.iter().find(|t| t.id == tenant).map(|t| TenantAdmissionStats {
            in_flight: t.in_flight,
            queued_bytes: t.queued_bytes,
            tokens: t.quota.rate.map(|_| t.tokens),
            phase: t.breaker.phase(),
        })
    }

    /// Counter snapshot across all tenants.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            quota_denials: self.quota_denials.load(Ordering::Relaxed),
            breaker_denials: self.breaker_denials.load(Ordering::Relaxed),
            tenants: lock(&self.tenants).len(),
        }
    }
}

/// The governance bundle a streaming server is started with
/// ([`crate::StreamingServer::start_governed`],
/// [`crate::MultiStreamingServer::start_governed`]): an optional admission
/// controller and an optional global memory governor. The default is fully
/// permissive — `start` is exactly `start_governed` with
/// `Governance::none()`.
#[derive(Debug, Clone, Default)]
pub struct Governance {
    /// Per-tenant quotas and circuit breakers; `None` admits everything.
    pub admission: Option<Arc<AdmissionController>>,
    /// The process-wide memory governor; `None` disables global shedding.
    pub governor: Option<Arc<MemoryGovernor>>,
}

impl Governance {
    /// No admission control, no governor (the `start` default).
    pub fn none() -> Governance {
        Governance::default()
    }

    /// Returns this bundle with an admission controller.
    pub fn with_admission(mut self, admission: Arc<AdmissionController>) -> Governance {
        self.admission = Some(admission);
        self
    }

    /// Returns this bundle with a global memory governor.
    pub fn with_governor(mut self, governor: Arc<MemoryGovernor>) -> Governance {
        self.governor = Some(governor);
        self
    }
}

/// Bounded retry with **deterministic decorrelated-jitter** backoff for
/// retryable errors ([`SpannerError::is_retryable`]): quota rejections,
/// open breakers, queue overload, governor denials and soft deadlines.
///
/// The jitter follows the decorrelated scheme (`sleep_{k+1}` drawn
/// uniformly from `[base, 3 × sleep_k]`, capped at `cap`) but from a
/// **seeded** splitmix64 generator, so a given seed always yields the same
/// schedule — tests pin backoff sequences exactly, and two callers with
/// different seeds still decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included. `1` disables retries.
    pub max_attempts: u32,
    /// Lower bound of every backoff draw.
    pub base: Duration,
    /// Upper bound of every backoff draw.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(64),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first error is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The exact backoff schedule `seed` produces: one sleep per retry
    /// (`max_attempts - 1` entries), each in `[base, cap]`.
    pub fn backoff_schedule(&self, seed: u64) -> Vec<Duration> {
        let mut rng = SplitMix64(seed);
        let base = duration_micros(self.base);
        let cap = duration_micros(self.cap).max(base);
        let mut prev = base;
        (1..self.max_attempts.max(1))
            .map(|_| {
                let hi = prev.saturating_mul(3).clamp(base, cap);
                let next = if hi > base { base + rng.next() % (hi - base + 1) } else { base };
                prev = next;
                Duration::from_micros(next)
            })
            .collect()
    }

    /// Drives `op` (called with the 0-based attempt number) until it
    /// succeeds, fails terminally, or exhausts `max_attempts`, sleeping the
    /// seeded backoff schedule between retryable failures. The final error
    /// is returned as-is.
    pub fn run<T>(
        &self,
        seed: u64,
        mut op: impl FnMut(u32) -> Result<T, SpannerError>,
    ) -> Result<T, SpannerError> {
        let schedule = self.backoff_schedule(seed);
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && (attempt as usize) < schedule.len() => {
                    let delay = schedule[attempt as usize];
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The tiny seeded generator behind [`RetryPolicy`]'s jitter (Steele et
/// al.'s splitmix64) — deterministic, dependency-free, good enough to
/// decorrelate backoff.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker_policy() -> BreakerPolicy {
        BreakerPolicy { failure_threshold: 2, window_docs: 8, open_batches: 3 }
    }

    #[test]
    fn quotas_resolve_overrides_then_default() {
        let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_in_flight_docs(4))
            .with_tenant("hot", TenantQuota::unlimited().with_max_in_flight_docs(1))
            .with_tenant("hot", TenantQuota::unlimited().with_max_in_flight_docs(2));
        assert_eq!(quotas.for_tenant("cold").max_in_flight_docs, Some(4));
        assert_eq!(quotas.for_tenant("hot").max_in_flight_docs, Some(2), "last override wins");
    }

    #[test]
    fn in_flight_quota_charges_and_releases() {
        let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_in_flight_docs(2));
        let ctrl = AdmissionController::new(quotas, None);
        let a = ctrl.admit("t", 10).unwrap();
        let b = ctrl.admit("t", 10).unwrap();
        assert_eq!(a, b, "same tenant, same slot");
        match ctrl.admit("t", 10) {
            Err(SpannerError::QuotaExceeded { tenant, kind }) => {
                assert_eq!(tenant, "t");
                assert_eq!(kind, "in-flight documents");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        ctrl.release_queued(a, 10);
        ctrl.note_result(a, true);
        ctrl.admit("t", 10).unwrap();
        let stats = ctrl.stats();
        assert_eq!((stats.admitted, stats.quota_denials, stats.breaker_denials), (3, 1, 0));
    }

    #[test]
    fn queued_bytes_quota_is_released_at_dequeue() {
        let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_queued_bytes(100));
        let ctrl = AdmissionController::new(quotas, None);
        let slot = ctrl.admit("t", 80).unwrap();
        match ctrl.admit("t", 30) {
            Err(SpannerError::QuotaExceeded { kind, .. }) => assert_eq!(kind, "queued bytes"),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        ctrl.release_queued(slot, 80);
        ctrl.admit("t", 30).unwrap();
        assert_eq!(ctrl.tenant_stats("t").unwrap().queued_bytes, 30);
        assert_eq!(ctrl.tenant_stats("t").unwrap().in_flight, 2);
    }

    #[test]
    fn token_bucket_refills_per_batch() {
        let quotas = TenantQuotas::uniform(
            TenantQuota::unlimited().with_rate(RateLimit { burst: 2, refill_per_batch: 1 }),
        );
        let ctrl = AdmissionController::new(quotas, None);
        ctrl.admit("t", 1).unwrap();
        ctrl.admit("t", 1).unwrap();
        match ctrl.admit("t", 1) {
            Err(SpannerError::QuotaExceeded { kind, .. }) => assert_eq!(kind, "rate tokens"),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        ctrl.note_batch();
        assert_eq!(ctrl.tenant_stats("t").unwrap().tokens, Some(1));
        ctrl.admit("t", 1).unwrap();
        ctrl.note_batch();
        ctrl.note_batch();
        ctrl.note_batch();
        assert_eq!(ctrl.tenant_stats("t").unwrap().tokens, Some(2), "refill caps at burst");
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let ctrl = AdmissionController::new(TenantQuotas::unlimited(), Some(breaker_policy()));
        // Two failures trip it open.
        for _ in 0..2 {
            let slot = ctrl.admit("t", 1).unwrap();
            ctrl.release_queued(slot, 1);
            ctrl.note_result(slot, false);
        }
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::Open));
        match ctrl.admit("t", 1) {
            Err(SpannerError::CircuitOpen { tenant, retry_after_batches }) => {
                assert_eq!(tenant, "t");
                assert_eq!(retry_after_batches, 3);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // Cooldown ticks in completed batches; the third tick half-opens.
        ctrl.note_batch();
        match ctrl.admit("t", 1) {
            Err(SpannerError::CircuitOpen { retry_after_batches, .. }) => {
                assert_eq!(retry_after_batches, 2)
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        ctrl.note_batch();
        ctrl.note_batch();
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::HalfOpen));
        // The probe is admitted; a second submission is not.
        let probe = ctrl.admit("t", 1).unwrap();
        assert!(matches!(ctrl.admit("t", 1), Err(SpannerError::CircuitOpen { .. })));
        // A failing probe re-opens for the full cooldown…
        ctrl.release_queued(probe, 1);
        ctrl.note_result(probe, false);
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::Open));
        for _ in 0..3 {
            ctrl.note_batch();
        }
        // …and a succeeding probe closes the breaker with a fresh window.
        let probe = ctrl.admit("t", 1).unwrap();
        ctrl.release_queued(probe, 1);
        ctrl.note_result(probe, true);
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::Closed));
        ctrl.admit("t", 1).unwrap();
    }

    #[test]
    fn closed_window_resets_after_window_docs_successes() {
        let policy = BreakerPolicy { failure_threshold: 2, window_docs: 3, open_batches: 1 };
        let ctrl = AdmissionController::new(TenantQuotas::unlimited(), Some(policy));
        // One failure, then enough successes to roll the window: the stale
        // failure must not combine with a later one to trip the breaker.
        let feed = |ok: bool| {
            let slot = ctrl.admit("t", 1).unwrap();
            ctrl.release_queued(slot, 1);
            ctrl.note_result(slot, ok);
        };
        feed(false);
        feed(true);
        feed(true);
        feed(false);
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::Closed));
    }

    #[test]
    fn abandon_releases_without_feeding_the_breaker() {
        let policy = BreakerPolicy { failure_threshold: 1, window_docs: 8, open_batches: 1 };
        let quotas = TenantQuotas::uniform(TenantQuota::unlimited().with_max_in_flight_docs(1));
        let ctrl = AdmissionController::new(quotas, Some(policy));
        let slot = ctrl.admit("t", 5).unwrap();
        ctrl.abandon(slot, 5);
        assert_eq!(ctrl.breaker_phase("t"), Some(BreakerPhase::Closed));
        let t = ctrl.tenant_stats("t").unwrap();
        assert_eq!((t.in_flight, t.queued_bytes), (0, 0));
        ctrl.admit("t", 5).unwrap();
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(2_000),
        };
        let a = policy.backoff_schedule(42);
        let b = policy.backoff_schedule(42);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        for d in &a {
            assert!(*d >= policy.base && *d <= policy.cap, "draw {d:?} out of [base, cap]");
        }
        let c = policy.backoff_schedule(43);
        assert_ne!(a, c, "different seeds decorrelate");
        assert!(RetryPolicy::none().backoff_schedule(42).is_empty());
    }

    #[test]
    fn retry_run_retries_retryable_and_stops_on_terminal() {
        let policy = RetryPolicy { max_attempts: 3, base: Duration::ZERO, cap: Duration::ZERO };
        let mut calls = 0;
        let out = policy.run(7, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(SpannerError::Overloaded { queued: 4, capacity: 4 })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<(), _> = policy.run(7, |_| {
            calls += 1;
            Err(SpannerError::ShuttingDown)
        });
        assert!(matches!(out, Err(SpannerError::ShuttingDown)));
        assert_eq!(calls, 1, "terminal errors are never retried");

        let mut calls = 0;
        let out: Result<(), _> = policy.run(7, |_| {
            calls += 1;
            Err(SpannerError::QuotaExceeded { tenant: "t".into(), kind: "rate tokens" })
        });
        assert!(matches!(out, Err(SpannerError::QuotaExceeded { .. })));
        assert_eq!(calls, 3, "retryable errors exhaust max_attempts");
    }
}
