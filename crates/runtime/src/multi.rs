//! Multi-tenant serving: one document pass for many spanners.
//!
//! Serving deployments rarely run a single extraction rule: each *tenant*
//! (customer, rule set, dashboard panel) registers its own spanner, and every
//! incoming document must be evaluated against all of them. Running the
//! tenants sequentially re-scans the document once per tenant; the marginal
//! cost of a tenant is a full pass. [`MultiSpanner`] instead compiles the
//! registered spanners into **shared automata** — the algebra-path union of
//! per-tenant automata, with namespaces kept apart — so one evaluation pass
//! over the document serves every tenant at once, and the per-tenant results
//! are recovered by demultiplexing the shared output.
//!
//! # Construction
//!
//! Each tenant's eVA is *branded* before the union:
//!
//! * its capture variables are re-interned as `"{tenant}.{var}"` via
//!   [`VarRegistry::merge_prefixed`], so two tenants both capturing `x`
//!   occupy distinct slots of the shared registry;
//! * a fresh **route variable** named after the tenant id opens and closes
//!   on the tenant's first variable transition: an empty span at the
//!   mapping's first marker position, or at |d| for the empty mapping. Every
//!   output mapping of the shared automaton therefore carries exactly one
//!   route variable, identifying the tenant whose spanner produced it, while
//!   runs that have not captured yet carry none: the tenants' variable-free
//!   prefixes determinize into shared subset states, so a shard steps one
//!   run for all its idle tenants instead of one run per tenant.
//!
//! The branded automata are folded with the Proposition 4.4 union and
//! compiled into one engine per **shard**: the eager dense tables when the
//! shard's subset construction fits
//! [`CompiledSpanner::AUTO_EAGER_MAX_CELLS`] letter-table cells, lazy
//! determinization otherwise. Sharding
//! exists because marker sets are bit-packed
//! ([`spanners_core::MAX_VARIABLES`] = 32 variables per automaton): tenants
//! are greedily packed into shards so that Σ(tenant variables + 1 route
//! variable) stays within the limit. A shard holding a single tenant skips
//! branding entirely — no route variable, no renaming, zero overhead over
//! serving that tenant alone.
//!
//! # Demultiplexing
//!
//! The shared pass enumerates the union's mappings; each mapping is routed
//! by its route variable, the route variable is stripped, and the remaining
//! `tenant.var` entries are renamed back to the tenant's own registry. Each
//! tenant's bucket is then sorted, making the output a pure function of
//! (spanner, document) — independent of shard layout, worker count and
//! enumeration order, and byte-identical to sorting that tenant's standalone
//! output.
//!
//! Per-tenant **counts** ride the same pass: the shared enumeration is
//! walked once, incrementing the routed tenant's counter (a single-tenant
//! shard uses the Algorithm 3 counter directly, since there is nothing to
//! demultiplex).
//!
//! # Serving
//!
//! [`MultiSpannerServer`] wraps one [`SpannerServer`] per shard, so the
//! fault-tolerance machinery of the batch runtime — per-document limits, the
//! degradation ladder, panic quarantine — applies to the shared pass: a
//! document that fails in shard *k* fails for shard *k*'s tenants only, and
//! only for that document. [`MultiStreamingServer`] does the same for the
//! streaming service, including generational snapshot re-freezing for lazy
//! shards.

use crate::admission::Governance;
use crate::batch::BatchOptions;
use crate::report::{BatchReport, TenantSlot};
use crate::server::SpannerServer;
use crate::streaming::{StreamingOptions, StreamingServer, StreamingStats, Ticket};
use spanners_automata::{compile_eva, remap_markers, union, CompileOptions};
use spanners_core::{
    AlphabetPartition, CompiledSpanner, Document, Eva, EvaBuilder, EvictionPolicy, LazyConfig,
    LazyDetSeva, Mapping, MarkerSet, SpannerError, VarId, VarRegistry, MAX_VARIABLES,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// MultiSpanner: compilation
// ---------------------------------------------------------------------------

/// One registered tenant of a [`MultiSpanner`].
#[derive(Debug)]
struct TenantInfo {
    /// The tenant id as registered (also the route variable's name).
    id: String,
    /// The tenant's own registry — the namespace its results are returned in.
    registry: VarRegistry,
    /// Which shard serves this tenant.
    shard: usize,
}

/// How a shard's shared output maps back to its tenants.
#[derive(Debug)]
enum Routing {
    /// Single-tenant shard: no branding happened; every mapping belongs to
    /// slot 0 verbatim.
    Single,
    /// Multi-tenant shard: mappings are routed by route variable and renamed.
    Branded {
        /// Shard variable index → tenant slot, for route variables only.
        route_slot: Vec<Option<u32>>,
        /// Shard variable index → the tenant-local id of a capture variable
        /// (meaningless for route variables, which are stripped).
        rename: Vec<VarId>,
    },
}

/// One shared automaton serving a group of tenants.
#[derive(Debug)]
struct Shard {
    /// The compiled union of the shard's branded tenant automata.
    spanner: CompiledSpanner,
    /// Global tenant indices served by this shard, in slot order.
    tenants: Vec<usize>,
    routing: Routing,
}

/// A set of tenant spanners compiled into shared automata that evaluate each
/// document **once**, demultiplexing mappings and counts per tenant.
///
/// See the [module docs](self) for the construction. Results are always
/// indexed by *global tenant index* — the position of the tenant in the
/// slice passed to [`MultiSpanner::compile`] (see
/// [`MultiSpanner::tenant_index`]).
///
/// ```
/// use spanners_core::{ByteClass, Document, EvaBuilder, MarkerSet, VarRegistry};
/// use spanners_runtime::MultiSpanner;
///
/// // Two tenants, both capturing a variable called `x`: one matches runs of
/// // `a`, the other runs of `b`.
/// let eva = |byte: u8| {
///     let mut reg = VarRegistry::new();
///     let x = reg.intern("x").unwrap();
///     let mut b = EvaBuilder::new(reg);
///     let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
///     b.set_initial(q0);
///     b.set_final(q2);
///     b.add_letter(q0, ByteClass::any(), q0);
///     b.add_byte(q1, byte, q1);
///     b.add_letter(q2, ByteClass::any(), q2);
///     b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
///     b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
///     b.build().unwrap()
/// };
/// let (a, b) = (eva(b'a'), eva(b'b'));
/// let multi = MultiSpanner::compile(&[("alpha", &a), ("beta", &b)]).unwrap();
/// assert_eq!(multi.num_tenants(), 2);
/// assert_eq!(multi.num_shards(), 1); // one shared pass
///
/// let per_tenant = multi.evaluate(&Document::from("ab"));
/// assert_eq!(per_tenant[0].len(), 1); // alpha: x = [0, 1⟩ (the `a`)
/// assert_eq!(per_tenant[1].len(), 1); // beta:  x = [1, 2⟩ (the `b`)
/// // Results come back in each tenant's own registry: just `x`, no prefixes.
/// assert_eq!(multi.tenant_registry(0).len(), 1);
/// ```
#[derive(Debug)]
pub struct MultiSpanner {
    tenants: Vec<TenantInfo>,
    shards: Vec<Shard>,
}

/// Validates a tenant id: non-empty, no `.` (reserved as the namespace
/// separator), unique among the registered ids.
fn validate_tenant_id(id: &str, seen: &[TenantInfo]) -> Result<(), SpannerError> {
    if id.is_empty() {
        return Err(SpannerError::InvalidTenantId {
            id: id.to_string(),
            reason: "tenant ids must be non-empty",
        });
    }
    if id.contains('.') {
        return Err(SpannerError::InvalidTenantId {
            id: id.to_string(),
            reason: "tenant ids must not contain `.` (reserved as the namespace separator)",
        });
    }
    if seen.iter().any(|t| t.id == id) {
        return Err(SpannerError::InvalidTenantId {
            id: id.to_string(),
            reason: "tenant ids must be unique",
        });
    }
    Ok(())
}

/// Brands one tenant's eVA for a shared shard: prefixes its capture
/// variables with the tenant id and opens and closes the route variable on
/// the first variable transition of every run. The states come in two
/// copies, `before` and `after` the first variable transition; letter
/// transitions stay inside a copy, variable transitions out of `before` add
/// the route and land in `after`. Only `after` copies are final; the
/// `before` copy of a final state takes a route-only transition to a final
/// sink (the runs outputting the empty mapping). Marker sets are never
/// empty, so the route span is a function of the mapping and no mapping is
/// produced twice. The union trims copies no run reaches.
fn brand(id: &str, eva: &Eva) -> Result<Eva, SpannerError> {
    let mut reg = VarRegistry::new();
    let route = reg.intern(id)?;
    let map = reg.merge_prefixed(id, eva.registry())?;
    let routed = MarkerSet::new().with_open(route).with_close(route);
    let mut b = EvaBuilder::new(reg);
    let before = b.add_states(eva.num_states());
    let after = b.add_states(eva.num_states());
    let sink = b.add_state();
    b.set_initial(before[eva.initial()]);
    b.set_final(sink);
    for q in 0..eva.num_states() {
        if eva.is_final(q) {
            b.set_final(after[q]);
            b.add_var(before[q], routed, sink)?;
        }
        for t in eva.letter_transitions(q) {
            b.add_letter(before[q], t.class, before[t.target]);
            b.add_letter(after[q], t.class, after[t.target]);
        }
        for t in eva.var_transitions(q) {
            let markers = remap_markers(t.markers, &map);
            b.add_var(before[q], markers.union(&routed), after[t.target])?;
            b.add_var(after[q], markers, after[t.target])?;
        }
    }
    b.build()
}

/// Compiles one shard's automaton: eagerly when its subset construction
/// fits [`CompiledSpanner::AUTO_EAGER_MAX_CELLS`] letter-table cells (the
/// threshold [`spanners_core::EnginePolicy::Auto`] applies to deterministic
/// input), lazily under `config` otherwise. Only the bounded
/// determinization's `BudgetExceeded` selects the lazy engine; a shard that
/// does not fit pays at most `AUTO_EAGER_MAX_CELLS / classes` subset states
/// of failed determinization first. Every other error propagates, so a
/// non-sequential tenant fails exactly as it does under the lazy engine.
fn compile_shard(eva: &Eva, config: LazyConfig) -> Result<CompiledSpanner, SpannerError> {
    eva.check_sequential()?;
    let classes = AlphabetPartition::from_classes(eva.letter_classes().iter()).num_classes();
    let budget = CompileOptions::with_max_states(CompiledSpanner::AUTO_EAGER_MAX_CELLS / classes);
    match compile_eva(eva, budget, true) {
        Ok(det) => Ok(CompiledSpanner::from_det(det)),
        Err(SpannerError::BudgetExceeded { .. }) => {
            Ok(CompiledSpanner::from_lazy(LazyDetSeva::new_trusted(eva, config)?))
        }
        Err(e) => Err(e),
    }
}

impl MultiSpanner {
    /// Compiles tenant spanners into shared automata, one per shard.
    ///
    /// A shard whose subset construction fits
    /// [`CompiledSpanner::AUTO_EAGER_MAX_CELLS`] letter-table cells compiles
    /// to the eager dense tables. Its subset states are the *product* of the
    /// tenants' variable-free prefixes (their shared runs), not the sum, so
    /// a few tenants that each remember a window of past bytes can exceed
    /// the budget. Such a shard is determinized lazily, where one subset
    /// holds at most the sum of the tenants' states, with the default lazy
    /// configuration and the [`EvictionPolicy::Segmented`] cache policy,
    /// which under memory pressure spares the hottest subset states *across
    /// tenants* instead of clearing wholesale.
    ///
    /// Tenants are identified by id (non-empty, unique, no `.`); results are
    /// indexed by position in `tenants`. Fails on an invalid id, an eVA that
    /// is not sequential, or a single tenant exceeding the variable limit.
    pub fn compile(tenants: &[(&str, &Eva)]) -> Result<MultiSpanner, SpannerError> {
        MultiSpanner::compile_with(
            tenants,
            LazyConfig::default().with_eviction(EvictionPolicy::Segmented),
        )
    }

    /// [`MultiSpanner::compile`] with an explicit lazy-determinization
    /// configuration. `config` shapes only the shards that fall back to the
    /// lazy engine; shards that fit the eager budget ignore it.
    pub fn compile_with(
        tenants: &[(&str, &Eva)],
        config: LazyConfig,
    ) -> Result<MultiSpanner, SpannerError> {
        if tenants.is_empty() {
            return Err(SpannerError::InvalidConfig { what: "at least one tenant is required" });
        }
        let mut infos: Vec<TenantInfo> = Vec::with_capacity(tenants.len());
        for (id, eva) in tenants {
            validate_tenant_id(id, &infos)?;
            infos.push(TenantInfo {
                id: id.to_string(),
                registry: eva.registry().clone(),
                shard: usize::MAX,
            });
        }

        // First-fit-*decreasing* shard packing: a tenant costs its variable
        // count plus one route variable, tenants are placed widest-first
        // (stable on input order for equal widths), and each tenant goes
        // into the first open shard with room — narrow tenants fill the gaps
        // the wide ones leave, so skewed tenant populations need fewer
        // shards than closing-shard first-fit would. A tenant too wide to
        // share (cost > limit) lands alone and is served unbranded, which
        // needs no route variable. Tenants inside a shard keep input order
        // (the fold and routing tables rely on it).
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(tenants[i].1.registry().len()));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_used: Vec<usize> = Vec::new();
        for &i in &order {
            let cost = tenants[i].1.registry().len() + 1;
            match group_used.iter().position(|&used| used + cost <= MAX_VARIABLES) {
                Some(g) => {
                    groups[g].push(i);
                    group_used[g] += cost;
                }
                None => {
                    groups.push(vec![i]);
                    group_used.push(cost);
                }
            }
        }
        for group in &mut groups {
            group.sort_unstable();
        }

        let mut shards = Vec::with_capacity(groups.len());
        for group in groups {
            let shard_idx = shards.len();
            for &i in &group {
                infos[i].shard = shard_idx;
            }
            let shard = if let [only] = group[..] {
                Shard {
                    spanner: compile_shard(tenants[only].1, config)?,
                    tenants: group,
                    routing: Routing::Single,
                }
            } else {
                let mut folded: Option<Eva> = None;
                for &i in &group {
                    let branded = brand(&infos[i].id, tenants[i].1)?;
                    folded = Some(match folded {
                        None => branded,
                        Some(acc) => union(&acc, &branded)?,
                    });
                }
                let folded = folded.expect("group is non-empty");
                let shared_reg = folded.registry();
                let mut route_slot = vec![None; shared_reg.len()];
                let mut rename = vec![VarId::new(0)?; shared_reg.len()];
                for (slot, &i) in group.iter().enumerate() {
                    let info = &infos[i];
                    let route = shared_reg
                        .get(&info.id)
                        .expect("route variable is interned during branding");
                    route_slot[route.index()] = Some(slot as u32);
                    for (local, name) in info.registry.iter() {
                        let shared = shared_reg
                            .get(&format!("{}.{}", info.id, name))
                            .expect("prefixed variable is interned during branding");
                        rename[shared.index()] = local;
                    }
                }
                Shard {
                    spanner: compile_shard(&folded, config)?,
                    tenants: group,
                    routing: Routing::Branded { route_slot, rename },
                }
            };
            shards.push(shard);
        }
        Ok(MultiSpanner { tenants: infos, shards })
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Number of shared automata (shards) backing the tenants.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Tenant ids in registration (= result index) order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = &str> {
        self.tenants.iter().map(|t| t.id.as_str())
    }

    /// The global index of a tenant id, if registered.
    pub fn tenant_index(&self, id: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.id == id)
    }

    /// The registry a tenant's results are expressed in — the tenant's own
    /// namespace, free of `tenant.var` prefixes and route variables.
    pub fn tenant_registry(&self, tenant: usize) -> &VarRegistry {
        &self.tenants[tenant].registry
    }

    /// Which shard serves a tenant.
    pub fn shard_of(&self, tenant: usize) -> usize {
        self.tenants[tenant].shard
    }

    /// The shared compiled spanner of a shard (diagnostics; its registry is
    /// the shared namespace, not a tenant namespace). Its mappings carry the
    /// route variable as an empty span at the first marker position, or at
    /// |d| for a tenant's empty mapping.
    pub fn shard_spanner(&self, shard: usize) -> &CompiledSpanner {
        &self.shards[shard].spanner
    }

    /// Demultiplexes one shared-pass enumeration into per-slot buckets of
    /// tenant-namespace mappings, each bucket sorted.
    fn demux_mappings<I>(&self, shard: usize, mappings: I) -> Vec<Vec<Mapping>>
    where
        I: IntoIterator<Item = Mapping>,
    {
        let sh = &self.shards[shard];
        let mut per: Vec<Vec<Mapping>> = vec![Vec::new(); sh.tenants.len()];
        match &sh.routing {
            Routing::Single => per[0].extend(mappings),
            Routing::Branded { route_slot, rename } => {
                for m in mappings {
                    let Some(slot) = m.iter().find_map(|(v, _)| route_slot[v.index()]) else {
                        debug_assert!(false, "shared-pass mapping without a route variable");
                        continue;
                    };
                    per[slot as usize].push(
                        m.iter()
                            .filter(|(v, _)| route_slot[v.index()].is_none())
                            .map(|(v, span)| (rename[v.index()], span))
                            .collect(),
                    );
                }
            }
        }
        for bucket in &mut per {
            bucket.sort_unstable();
        }
        per
    }

    /// Evaluates one document with **one pass per shard**, returning each
    /// tenant's mappings (global tenant order, each tenant's bucket sorted,
    /// expressed in that tenant's own registry).
    pub fn evaluate(&self, doc: &Document) -> Vec<Vec<Mapping>> {
        let mut out: Vec<Vec<Mapping>> = vec![Vec::new(); self.tenants.len()];
        for (s, sh) in self.shards.iter().enumerate() {
            let dag = sh.spanner.evaluate(doc);
            for (slot, bucket) in self.demux_mappings(s, dag.iter()).into_iter().enumerate() {
                out[sh.tenants[slot]] = bucket;
            }
        }
        out
    }

    /// Counts each tenant's mappings with one pass per shard. Single-tenant
    /// shards use the Algorithm 3 counter (no enumeration); shared shards
    /// walk the shared enumeration once, incrementing the routed tenant.
    pub fn count(&self, doc: &Document) -> Result<Vec<u64>, SpannerError> {
        let mut out = vec![0u64; self.tenants.len()];
        for sh in &self.shards {
            match &sh.routing {
                Routing::Single => out[sh.tenants[0]] = sh.spanner.count_u64(doc)?,
                Routing::Branded { route_slot, .. } => {
                    let dag = sh.spanner.evaluate(doc);
                    for m in dag.iter() {
                        if let Some(slot) = m.iter().find_map(|(v, _)| route_slot[v.index()]) {
                            out[sh.tenants[slot as usize]] += 1;
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Batch serving
// ---------------------------------------------------------------------------

/// The outcome of a multi-tenant batch: per-document × per-tenant results,
/// plus the aggregated per-tenant slots and fault-tolerance counters of the
/// underlying shard passes.
///
/// `results[doc][tenant]` is the outcome of `doc` for `tenant` (global
/// tenant order). A document that failed in shard *k* is `Err` for exactly
/// shard *k*'s tenants — tenant routing never leaks a failure across shards.
#[derive(Debug)]
pub struct MultiBatchReport {
    /// `results[doc][tenant]`: that tenant's sorted mappings for that
    /// document, or the shard-level per-document error.
    pub results: Vec<Vec<Result<Vec<Mapping>, SpannerError>>>,
    /// Per-tenant accounting, in global tenant order.
    pub tenants: Vec<TenantSlot>,
    /// Documents that succeeded only after a degraded retry, summed over
    /// shard passes.
    pub degraded: usize,
    /// Retry attempts spent, summed over shard passes.
    pub retried: usize,
    /// Engines quarantined by contained panics, summed over shard passes.
    pub quarantined: usize,
}

impl MultiBatchReport {
    /// Whether every document succeeded for every tenant.
    pub fn is_fully_ok(&self) -> bool {
        self.tenants.iter().all(|t| t.failed == 0)
    }

    /// One tenant's per-document outcomes, in document order.
    pub fn tenant_results(
        &self,
        tenant: usize,
    ) -> impl Iterator<Item = &Result<Vec<Mapping>, SpannerError>> {
        self.results.iter().map(move |row| &row[tenant])
    }
}

/// The long-lived serving form of a [`MultiSpanner`]: one [`SpannerServer`]
/// per shard, so warm engine pools, shared frozen snapshots, per-document
/// limits, the degradation ladder and panic quarantine all apply to the
/// shared passes.
#[derive(Debug)]
pub struct MultiSpannerServer {
    multi: Arc<MultiSpanner>,
    servers: Vec<SpannerServer>,
}

impl MultiSpannerServer {
    /// Creates a server with default [`BatchOptions`].
    pub fn new(multi: MultiSpanner) -> MultiSpannerServer {
        MultiSpannerServer::with_options(multi, BatchOptions::default())
    }

    /// Creates a server with explicit batch options (applied to every shard).
    pub fn with_options(multi: MultiSpanner, opts: BatchOptions) -> MultiSpannerServer {
        let multi = Arc::new(multi);
        let servers = multi
            .shards
            .iter()
            .map(|sh| SpannerServer::with_options(sh.spanner.clone(), opts))
            .collect();
        MultiSpannerServer { multi, servers }
    }

    /// The compiled multi-spanner this server fronts.
    pub fn multi(&self) -> &MultiSpanner {
        &self.multi
    }

    /// Warms every lazy shard's frozen snapshot on sample documents (eager
    /// shards hold no snapshot).
    pub fn warm(&self, docs: &[Document]) {
        for server in &self.servers {
            server.warm(docs);
        }
    }

    /// Evaluates one shard's shared pass over a batch, demultiplexing inside
    /// the workers: the report's `results[doc]` holds per-*slot* buckets
    /// (shard slot order) and [`BatchReport::tenants`] is filled with the
    /// shard's per-tenant slots.
    pub fn evaluate_shard_report(
        &self,
        shard: usize,
        docs: &[Document],
    ) -> Result<BatchReport<Vec<Vec<Mapping>>>, SpannerError> {
        let multi = &self.multi;
        let mut report = self.servers[shard]
            .evaluate_batch_report(docs, |_, view| multi.demux_mappings(shard, view.iter()))?;
        let sh = &multi.shards[shard];
        let mut slots: Vec<TenantSlot> = sh
            .tenants
            .iter()
            .map(|&g| TenantSlot { id: multi.tenants[g].id.clone(), ok: 0, failed: 0, mappings: 0 })
            .collect();
        for result in &report.results {
            match result {
                Ok(per) => {
                    for (slot, bucket) in per.iter().enumerate() {
                        slots[slot].ok += 1;
                        slots[slot].mappings += bucket.len();
                    }
                }
                Err(_) => {
                    for slot in &mut slots {
                        slot.failed += 1;
                    }
                }
            }
        }
        report.tenants = slots;
        Ok(report)
    }

    /// Evaluates a batch of documents — **one pass per shard, not per
    /// tenant** — and returns per-document × per-tenant outcomes. Fails only
    /// on invalid batch options.
    pub fn evaluate_batch_report(
        &self,
        docs: &[Document],
    ) -> Result<MultiBatchReport, SpannerError> {
        // Per-document × per-tenant fill-in slots; every tenant belongs to
        // exactly one shard, so each slot is written exactly once.
        type Slots = Vec<Option<Result<Vec<Mapping>, SpannerError>>>;
        let n = self.multi.num_tenants();
        let mut results: Vec<Slots> =
            (0..docs.len()).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut tenants: Vec<Option<TenantSlot>> = (0..n).map(|_| None).collect();
        let (mut degraded, mut retried, mut quarantined) = (0, 0, 0);
        for (s, sh) in self.multi.shards.iter().enumerate() {
            let report = self.evaluate_shard_report(s, docs)?;
            degraded += report.degraded;
            retried += report.retried;
            quarantined += report.quarantined;
            for (slot, &g) in sh.tenants.iter().enumerate() {
                tenants[g] = Some(report.tenants[slot].clone());
            }
            for (d, result) in report.results.into_iter().enumerate() {
                match result {
                    Ok(per) => {
                        for (slot, bucket) in per.into_iter().enumerate() {
                            results[d][sh.tenants[slot]] = Some(Ok(bucket));
                        }
                    }
                    Err(e) => {
                        for &g in &sh.tenants {
                            results[d][g] = Some(Err(e.clone()));
                        }
                    }
                }
            }
        }
        Ok(MultiBatchReport {
            results: results
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|cell| cell.expect("every tenant belongs to exactly one shard"))
                        .collect()
                })
                .collect(),
            tenants: tenants
                .into_iter()
                .map(|slot| slot.expect("every tenant belongs to exactly one shard"))
                .collect(),
            degraded,
            retried,
            quarantined,
        })
    }
}

// ---------------------------------------------------------------------------
// Streaming serving
// ---------------------------------------------------------------------------

/// A claim ticket for one document submitted to a [`MultiStreamingServer`]:
/// one underlying [`Ticket`] per shard.
#[derive(Debug)]
pub struct MultiTicket {
    multi: Arc<MultiSpanner>,
    tickets: Vec<Ticket<Vec<Vec<Mapping>>>>,
}

impl MultiTicket {
    /// Whether every shard's result is already available.
    pub fn is_done(&self) -> bool {
        self.tickets.iter().all(Ticket::is_done)
    }

    /// Blocks until every shard finished the document, returning per-tenant
    /// outcomes in global tenant order. A shard-level failure is reported
    /// for exactly that shard's tenants.
    pub fn wait(self) -> Vec<Result<Vec<Mapping>, SpannerError>> {
        let MultiTicket { multi, tickets } = self;
        let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        MultiTicket::demux(&multi, results)
    }

    /// Bounded [`MultiTicket::wait`]: blocks up to `timeout` for **every**
    /// shard's result. A timeout returns [`SpannerError::WaitTimedOut`]
    /// without consuming anything — the document stays in flight on every
    /// shard and the caller may wait again. Once all shards are done the
    /// per-tenant outcomes are claimed exactly like [`MultiTicket::wait`]
    /// (waiting again after that panics).
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Vec<Result<Vec<Mapping>, SpannerError>>, SpannerError> {
        let deadline = Instant::now() + timeout;
        for ticket in &self.tickets {
            if !ticket.wait_done_until(deadline) {
                return Err(SpannerError::WaitTimedOut {
                    waited_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                });
            }
        }
        let results: Vec<_> = self
            .tickets
            .iter()
            .map(|t| t.take_ready().expect("all shard tickets checked done above"))
            .collect();
        Ok(MultiTicket::demux(&self.multi, results))
    }

    /// Routes per-shard shared-pass results back to global tenant order
    /// (shard-level failures land on exactly that shard's tenants).
    fn demux(
        multi: &MultiSpanner,
        results: Vec<Result<Vec<Vec<Mapping>>, SpannerError>>,
    ) -> Vec<Result<Vec<Mapping>, SpannerError>> {
        let mut out: Vec<Option<Result<Vec<Mapping>, SpannerError>>> =
            (0..multi.num_tenants()).map(|_| None).collect();
        for (s, result) in results.into_iter().enumerate() {
            let sh = &multi.shards[s];
            match result {
                Ok(per) => {
                    for (slot, bucket) in per.into_iter().enumerate() {
                        out[sh.tenants[slot]] = Some(Ok(bucket));
                    }
                }
                Err(e) => {
                    for &g in &sh.tenants {
                        out[g] = Some(Err(e.clone()));
                    }
                }
            }
        }
        out.into_iter()
            .map(|cell| cell.expect("every tenant belongs to exactly one shard"))
            .collect()
    }
}

/// The streaming form of multi-tenant serving: one [`StreamingServer`] per
/// shard, each running the shared pass and demultiplexing on the worker that
/// evaluated the document. Bounded ingress, micro-batching, per-document
/// deadlines and generational re-freezing all apply per shard.
#[derive(Debug)]
pub struct MultiStreamingServer {
    multi: Arc<MultiSpanner>,
    servers: Vec<StreamingServer<Vec<Vec<Mapping>>>>,
}

impl MultiStreamingServer {
    /// Starts one streaming service per shard with the given options.
    pub fn start(
        multi: MultiSpanner,
        opts: StreamingOptions,
    ) -> Result<MultiStreamingServer, SpannerError> {
        MultiStreamingServer::start_governed(multi, opts, Governance::none())
    }

    /// [`MultiStreamingServer::start`] with overload governance: the
    /// admission controller (when present) gates the whole multi-shard
    /// submission **once** — it is attached to shard 0, whose completed
    /// micro-batches drive the batch-clocked admission sequence (every
    /// shard sees the same documents, so shard 0's batch cadence is
    /// representative) — while the memory governor is shared by every
    /// shard's engine pool through per-shard ledger handles.
    pub fn start_governed(
        multi: MultiSpanner,
        opts: StreamingOptions,
        governance: Governance,
    ) -> Result<MultiStreamingServer, SpannerError> {
        let multi = Arc::new(multi);
        let servers = multi
            .shards
            .iter()
            .enumerate()
            .map(|(s, sh)| {
                let demux = Arc::clone(&multi);
                let shard_governance = if s == 0 {
                    governance.clone()
                } else {
                    Governance { admission: None, governor: governance.governor.clone() }
                };
                StreamingServer::start_governed(
                    sh.spanner.clone(),
                    opts,
                    shard_governance,
                    move |_, view| demux.demux_mappings(s, view.iter()),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiStreamingServer { multi, servers })
    }

    /// The compiled multi-spanner this service fronts.
    pub fn multi(&self) -> &MultiSpanner {
        &self.multi
    }

    /// Submits one document to every shard, blocking while any shard's queue
    /// is full. Every shard shares the document's one buffer (a
    /// [`Document`] clone is a reference-count bump), so fan-out copies no
    /// bytes. On error, shards that already
    /// accepted the document still evaluate it; their results are discarded
    /// with the returned tickets. Equivalent to
    /// [`MultiStreamingServer::submit_for`] with the anonymous (empty)
    /// tenant id.
    pub fn submit(
        &self,
        doc: &Document,
        deadline: Option<Duration>,
    ) -> Result<MultiTicket, SpannerError> {
        self.submit_for("", doc, deadline)
    }

    /// [`MultiStreamingServer::submit`] on behalf of `tenant`: the
    /// tenant's circuit breaker and quotas (see [`crate::admission`]) gate
    /// the whole multi-shard submission once, at shard 0 — an admission
    /// rejection surfaces before any shard accepts the document, leaving
    /// nothing in flight anywhere. The shards share the document's buffer
    /// rather than copying it.
    pub fn submit_for(
        &self,
        tenant: &str,
        doc: &Document,
        deadline: Option<Duration>,
    ) -> Result<MultiTicket, SpannerError> {
        let mut tickets = Vec::with_capacity(self.servers.len());
        for (s, server) in self.servers.iter().enumerate() {
            tickets.push(if s == 0 {
                server.submit_for(tenant, doc.clone(), deadline)?
            } else {
                server.submit(doc.clone(), deadline)?
            });
        }
        Ok(MultiTicket { multi: Arc::clone(&self.multi), tickets })
    }

    /// Snapshot of every shard's streaming counters.
    pub fn stats(&self) -> Vec<StreamingStats> {
        self.servers.iter().map(StreamingServer::stats).collect()
    }

    /// Stops accepting new documents on every shard (already-accepted work
    /// still completes; call [`MultiStreamingServer::drain`] to finish).
    pub fn begin_drain(&self) {
        for server in &self.servers {
            server.begin_drain();
        }
    }

    /// Graceful shutdown: drains every shard and returns their final stats.
    pub fn drain(self) -> Vec<StreamingStats> {
        self.servers.into_iter().map(StreamingServer::drain).collect()
    }

    /// Immediate shutdown: aborts every shard (queued documents resolve
    /// their tickets with [`SpannerError::ShuttingDown`]).
    pub fn abort(self) -> Vec<StreamingStats> {
        self.servers.into_iter().map(StreamingServer::abort).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanners_core::{ByteClass, Span};

    /// An eVA capturing every maximal-free span of `byte`-runs: `x` matches
    /// any run of the given byte (`.*!x{b+}.*` in regex-formula terms, minus
    /// the maximality — all sub-runs match).
    fn run_eva(var: &str, byte: u8) -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern(var).unwrap();
        let mut b = EvaBuilder::new(reg);
        let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
        b.set_initial(q0);
        b.set_final(q2);
        b.add_letter(q0, ByteClass::any(), q0);
        b.add_byte(q1, byte, q1);
        b.add_letter(q2, ByteClass::any(), q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    fn sorted_single(eva: &Eva, doc: &Document) -> Vec<Mapping> {
        let spanner = CompiledSpanner::from_eva_lazy(eva, LazyConfig::default()).unwrap();
        let mut out = spanner.mappings(doc);
        out.sort_unstable();
        out
    }

    /// A deterministic eVA whose subset construction has exactly `states`
    /// states over two alphabet classes (`a` and the rest): a chain of
    /// `a`-steps ending in one empty capture `x = [states-2, states-2⟩`.
    fn chain_eva(states: usize) -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(states);
        b.set_initial(q[0]);
        b.set_final(q[states - 1]);
        for w in q[..states - 1].windows(2) {
            b.add_byte(w[0], b'a', w[1]);
        }
        b.add_var(q[states - 2], MarkerSet::new().with_open(x).with_close(x), q[states - 1])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shard_over_the_eager_budget_falls_back_to_lazy() {
        let fits = chain_eva(3);
        assert_eq!(
            AlphabetPartition::from_classes(fits.letter_classes().iter()).num_classes(),
            2,
            "the chain's alphabet is `a` and the rest"
        );
        let max_states = CompiledSpanner::AUTO_EAGER_MAX_CELLS / 2;
        for (states, lazy) in [(max_states, false), (max_states + 1, true)] {
            let eva = chain_eva(states);
            let multi = MultiSpanner::compile(&[("t", &eva)]).unwrap();
            assert_eq!(multi.shard_spanner(0).is_lazy(), lazy, "{states} subset states");
            // Only a run of exactly `states - 2` bytes `a` reaches the capture.
            let hit = Document::from("a".repeat(states - 2).as_str());
            for (doc, outputs) in [(Document::from("aa"), 0), (hit, 1)] {
                let expected = sorted_single(&eva, &doc);
                assert_eq!(expected.len(), outputs);
                assert_eq!(multi.evaluate(&doc)[0], expected);
                assert_eq!(multi.count(&doc).unwrap()[0], expected.len() as u64);
            }
        }
    }

    /// A regex formula compiled to a sequential eVA.
    fn pattern_eva(pattern: &str) -> Eva {
        let va = spanners_regex::regex_to_va(&spanners_regex::parse(pattern).unwrap()).unwrap();
        spanners_automata::va_to_eva(&va).unwrap()
    }

    #[test]
    fn route_span_sits_at_the_first_variable_transition() {
        let (capture, flag) = (pattern_eva(".*!x{a}.*"), pattern_eva(".*b.*"));
        let multi = MultiSpanner::compile(&[("cap", &capture), ("flag", &flag)]).unwrap();
        let shard = multi.shard_spanner(0);
        let var = |name: &str| shard.registry().get(name).unwrap();
        let span = |start, end| Span::new(start, end).unwrap();
        let mut got = shard.mappings(&Document::from("bba"));
        got.sort_unstable();
        // `cap` routes where `x` opens; the variable-free `flag` routes at |d|.
        let mut expected = vec![
            Mapping::from_pairs([(var("cap"), span(2, 2)), (var("cap.x"), span(2, 3))]),
            Mapping::singleton(var("flag"), span(3, 3)),
        ];
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn shard_whose_prefixes_multiply_past_the_eager_budget_goes_lazy() {
        // Each tenant remembers where its letter occurred among the last
        // eight bytes: 2^8 subset states alone, while the three variable-free
        // prefixes determinize into one product of 4^8 subsets over five
        // classes, past `AUTO_EAGER_MAX_CELLS / 5`.
        let evas: Vec<Eva> = ["p", "q", "r"]
            .iter()
            .map(|c| pattern_eva(&format!(".*{c}.{{7}}!x{{[a-z]}}.*")))
            .collect();
        let multi =
            MultiSpanner::compile(&[("p", &evas[0]), ("q", &evas[1]), ("r", &evas[2])]).unwrap();
        assert_eq!(multi.num_shards(), 1);
        assert!(multi.shard_spanner(0).is_lazy());
        for text in ["", "p1234567a", "pqr0000xyzq", "rqprqprqpabcdefghij", "zzz"] {
            let doc = Document::from(text);
            let (got, counts) = (multi.evaluate(&doc), multi.count(&doc).unwrap());
            for (i, eva) in evas.iter().enumerate() {
                let expected = sorted_single(eva, &doc);
                assert_eq!(got[i], expected, "tenant {i} on {text:?}");
                assert_eq!(counts[i], expected.len() as u64, "tenant {i} count on {text:?}");
            }
        }
    }

    #[test]
    fn non_sequential_tenant_fails_typed() {
        // `x` opens and is never closed: not sequential.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let (q0, q1) = (b.add_state(), b.add_state());
        b.set_initial(q0);
        b.set_final(q1);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        let bad = b.build().unwrap();
        let lazy_err = CompiledSpanner::from_eva_lazy(&bad, LazyConfig::default()).unwrap_err();
        assert!(matches!(lazy_err, SpannerError::NotSequential(_)));
        assert_eq!(MultiSpanner::compile(&[("bad", &bad)]).unwrap_err(), lazy_err);
        let good = run_eva("x", b'a');
        let branded = MultiSpanner::compile(&[("good", &good), ("bad", &bad)]).unwrap_err();
        assert!(matches!(branded, SpannerError::NotSequential(_)), "{branded:?}");
    }

    #[test]
    fn tenant_id_validation() {
        let eva = run_eva("x", b'a');
        let empty = MultiSpanner::compile(&[("", &eva)]).unwrap_err();
        assert!(matches!(empty, SpannerError::InvalidTenantId { .. }));
        let dotted = MultiSpanner::compile(&[("a.b", &eva)]).unwrap_err();
        assert!(matches!(dotted, SpannerError::InvalidTenantId { .. }));
        let dup = MultiSpanner::compile(&[("t", &eva), ("t", &eva)]).unwrap_err();
        assert!(matches!(dup, SpannerError::InvalidTenantId { .. }));
        assert!(matches!(MultiSpanner::compile(&[]), Err(SpannerError::InvalidConfig { .. })));
    }

    #[test]
    fn shared_pass_matches_per_tenant_passes() {
        let a = run_eva("x", b'a');
        let b = run_eva("x", b'b');
        let c = run_eva("y", b'c');
        let multi = MultiSpanner::compile(&[("t0", &a), ("t1", &b), ("t2", &c)]).unwrap();
        assert_eq!(multi.num_shards(), 1, "three 1-var tenants share one pass");
        for text in ["", "abc", "aabbcc", "cabacaba", "zzz"] {
            let doc = Document::from(text);
            let got = multi.evaluate(&doc);
            let counts = multi.count(&doc).unwrap();
            for (i, eva) in [&a, &b, &c].into_iter().enumerate() {
                let expected = sorted_single(eva, &doc);
                assert_eq!(got[i], expected, "tenant {i} on {text:?}");
                assert_eq!(counts[i], expected.len() as u64, "tenant {i} count on {text:?}");
            }
        }
    }

    #[test]
    fn results_come_back_in_tenant_namespaces() {
        let a = run_eva("x", b'a');
        let b = run_eva("x", b'b');
        let multi = MultiSpanner::compile(&[("t0", &a), ("t1", &b)]).unwrap();
        for tenant in 0..2 {
            let reg = multi.tenant_registry(tenant);
            assert_eq!(reg.len(), 1);
            assert_eq!(reg.name(reg.get("x").unwrap()), "x");
        }
        // The shared shard registry, by contrast, holds routes + prefixes.
        let shared = multi.shard_spanner(0).registry();
        assert!(shared.get("t0").is_some());
        assert!(shared.get("t0.x").is_some());
        assert!(shared.get("x").is_none());
    }

    #[test]
    fn wide_tenants_split_into_shards_and_single_shards_skip_branding() {
        let wide = |seed: usize| {
            let mut reg = VarRegistry::new();
            for v in 0..20 {
                reg.intern(&format!("v{seed}_{v}")).unwrap();
            }
            let x = reg.get(&format!("v{seed}_0")).unwrap();
            let mut b = EvaBuilder::new(reg);
            let (q0, q1) = (b.add_state(), b.add_state());
            b.set_initial(q0);
            b.set_final(q1);
            b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q1).unwrap();
            b.add_byte(q1, b'a', q1);
            b.build().unwrap()
        };
        let (w0, w1) = (wide(0), wide(1));
        let multi = MultiSpanner::compile(&[("t0", &w0), ("t1", &w1)]).unwrap();
        assert_eq!(multi.num_shards(), 2, "20+1 vars each cannot share a 32-var shard");
        // Single-tenant shards are unbranded: no route variable interned.
        assert!(multi.shard_spanner(0).registry().get("t0").is_none());
        let doc = Document::from("aaa");
        let got = multi.evaluate(&doc);
        assert_eq!(got[0], sorted_single(&w0, &doc));
        assert_eq!(got[1], sorted_single(&w1, &doc));
    }

    #[test]
    fn skewed_tenants_pack_first_fit_decreasing() {
        // Tenant shard costs (vars + 1 route) of [12, 12, 20, 20] against the
        // 32-variable limit: arrival-order first-fit opens a shard with the
        // two narrow tenants (cost 24), neither wide tenant fits beside them,
        // and the layout needs 3 shards. First-fit-*decreasing* places the
        // wide tenants first and slots one narrow tenant next to each — the
        // optimal 2 shards. This pins the FFD layout and that demuxed
        // results are unaffected by the packing order.
        let tenant = |seed: usize, vars: usize, byte: u8| {
            let mut reg = VarRegistry::new();
            for v in 0..vars {
                reg.intern(&format!("v{seed}_{v}")).unwrap();
            }
            let x = reg.get(&format!("v{seed}_0")).unwrap();
            let mut b = EvaBuilder::new(reg);
            let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
            b.set_initial(q0);
            b.set_final(q2);
            b.add_letter(q0, ByteClass::any(), q0);
            b.add_byte(q1, byte, q1);
            b.add_letter(q2, ByteClass::any(), q2);
            b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
            b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
            b.build().unwrap()
        };
        let evas =
            [tenant(0, 11, b'a'), tenant(1, 11, b'b'), tenant(2, 19, b'c'), tenant(3, 19, b'd')];
        let tenants: Vec<(&str, &Eva)> = ["t0", "t1", "t2", "t3"].into_iter().zip(&evas).collect();
        let multi = MultiSpanner::compile(&tenants).unwrap();
        assert_eq!(multi.num_shards(), 2, "FFD must pack [12,12,20,20] into 2 shards");
        for text in ["", "abcd", "ccaadbba", "dddd"] {
            let doc = Document::from(text);
            let got = multi.evaluate(&doc);
            let counts = multi.count(&doc).unwrap();
            for (i, eva) in evas.iter().enumerate() {
                let expected = sorted_single(eva, &doc);
                assert_eq!(got[i], expected, "tenant {i} on {text:?}");
                assert_eq!(counts[i], expected.len() as u64, "tenant {i} count on {text:?}");
            }
        }
    }

    #[test]
    fn batch_server_demuxes_and_fills_tenant_slots() {
        let a = run_eva("x", b'a');
        let b = run_eva("x", b'b');
        let multi = MultiSpanner::compile(&[("t0", &a), ("t1", &b)]).unwrap();
        let server = MultiSpannerServer::with_options(multi, BatchOptions::threads(2));
        let docs: Vec<Document> =
            ["ab", "", "ba", "aaa"].iter().map(|t| Document::from(*t)).collect();
        let report = server.evaluate_batch_report(&docs).unwrap();
        assert!(report.is_fully_ok());
        assert_eq!(report.results.len(), docs.len());
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].id, "t0");
        assert_eq!(report.tenants[0].ok, docs.len());
        for (d, doc) in docs.iter().enumerate() {
            assert_eq!(report.results[d][0].as_ref().unwrap(), &sorted_single(&a, doc));
            assert_eq!(report.results[d][1].as_ref().unwrap(), &sorted_single(&b, doc));
        }
        let total: usize = report.results.iter().map(|r| r[0].as_ref().unwrap().len()).sum();
        assert_eq!(report.tenants[0].mappings, total);
    }

    #[test]
    fn streaming_server_demuxes_per_tenant() {
        let a = run_eva("x", b'a');
        let b = run_eva("x", b'b');
        let multi = MultiSpanner::compile(&[("t0", &a), ("t1", &b)]).unwrap();
        let server = MultiStreamingServer::start(multi, StreamingOptions::workers(2)).unwrap();
        let docs: Vec<Document> = ["ab", "bb", "xyz"].iter().map(|t| Document::from(*t)).collect();
        let tickets: Vec<MultiTicket> =
            docs.iter().map(|d| server.submit(d, None).unwrap()).collect();
        for (ticket, doc) in tickets.into_iter().zip(&docs) {
            let per = ticket.wait();
            assert_eq!(per[0].as_ref().unwrap(), &sorted_single(&a, doc));
            assert_eq!(per[1].as_ref().unwrap(), &sorted_single(&b, doc));
        }
        let stats = server.drain();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].completed, docs.len() as u64);
    }
}
