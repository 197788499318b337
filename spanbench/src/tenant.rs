//! `tenant-stream`: a governed `MultiStreamingServer` for 24 keyword
//! tenants (2 shards of lazy union automata, 1 worker each) fed small
//! documents on behalf of Zipf-skewed tenants. Per-document fixed costs,
//! lazy frozen/delta stepping and demultiplexing dominate; scanning does
//! little.

use std::sync::Arc;
use std::time::Instant;

use spanners_core::{
    CompiledSpanner, Document, Eva, Evaluator, LazyConfig, Mapping, MemoryGovernor, SpannerError,
};
use spanners_runtime::{
    AdmissionController, BatchOptions, BreakerPolicy, Governance, MultiSpanner, MultiSpannerServer,
    MultiStreamingServer, MultiTicket, RateLimit, StreamingOptions, StreamingStats, TenantQuota,
    TenantQuotas,
};
use spanners_workloads::rng::StdRng;
use spanners_workloads::{
    keyword_token_pattern, tenant_corpus, tenant_keyword_workload, SlpBuilder, TenantWorkload,
};

use crate::load::{self, pareto_sizes, poisson_schedule, Cycle, Requests, Verdict, Zipf};
use crate::replay::{self, pattern_to_eva, CompileTimes, Engine};
use crate::rig::*;
use crate::stats::{median, percentile};
use crate::trace::Trace;

const TENANTS: usize = 24;
const TENANT_SEED: u64 = 0xE15;
const KEYWORDS_PER_TENANT: usize = 3;
const POOL_DOCS: usize = 4096;
/// Words per document: Pareto with shape 1.2, truncated to 20 – 200.
const MIN_WORDS: usize = 20;
const MAX_WORDS: usize = 200;
const ALPHA: f64 = 1.2;
/// Zipf exponent of the tenant each document is submitted for.
const TENANT_SKEW: f64 = 1.0;
/// Memory-governor budget, far above the workload's peak.
const GOVERNOR_BUDGET: usize = 1 << 30;
/// Open-loop arrival rate, documents per second: about 40% of the 2-core
/// closed-loop capacity (≈10k documents per second).
pub const OPEN_RATE: f64 = 4_000.0;

struct Corpus {
    workload: Vec<TenantWorkload>,
    ids: Vec<String>,
    docs: Vec<Document>,
    tenant_of: Vec<usize>,
    /// `expected[doc][tenant]`: the tenant's sorted mappings, from its own
    /// single-tenant spanner.
    expected: Vec<Vec<Vec<Mapping>>>,
}

fn corpus(ctx: &Ctx) -> Result<Corpus, SpannerError> {
    // The tenant population is part of the served program, like the other
    // workloads' patterns: fixed across seeds. Documents, their tenants and
    // the schedule come from the seed.
    let workload = tenant_keyword_workload(TENANT_SEED, TENANTS, KEYWORDS_PER_TENANT)?;
    let mut rng = StdRng::seed_from_u64(ctx.derive(2));
    let words = pareto_sizes(&mut rng, POOL_DOCS, MIN_WORDS, MAX_WORDS, ALPHA);
    let docs: Vec<Document> = words
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| tenant_corpus(ctx.derive(1000 + i as u64), &workload, 1, w))
        .collect();
    let zipf = Zipf::new(TENANTS, TENANT_SKEW);
    let tenant_of = (0..docs.len()).map(|_| zipf.sample(&mut rng)).collect();
    // Oracle: every tenant's own spanner, as in the E15 differential.
    let singles = workload
        .iter()
        .map(|t| CompiledSpanner::from_eva_lazy(&t.eva, LazyConfig::default()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut evaluators: Vec<Evaluator> = singles.iter().map(|_| Evaluator::new()).collect();
    let expected = docs
        .iter()
        .map(|doc| {
            singles
                .iter()
                .zip(evaluators.iter_mut())
                .map(|(s, ev)| {
                    let mut ms = s.evaluate_with(ev, doc).collect_mappings();
                    ms.sort_unstable();
                    ms
                })
                .collect()
        })
        .collect();
    let ids = workload.iter().map(|t| t.id.clone()).collect();
    Ok(Corpus { workload, ids, docs, tenant_of, expected })
}

/// Compiles every tenant from its pattern, then the shared shards.
fn compile(c: &Corpus) -> Result<(MultiSpanner, Vec<Eva>, CompileTimes), SpannerError> {
    let mut times = CompileTimes::default();
    let evas = c
        .workload
        .iter()
        .map(|t| {
            let keywords: Vec<&str> = t.keywords.iter().map(String::as_str).collect();
            pattern_to_eva(&keyword_token_pattern(&keywords), &mut times)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t = Instant::now();
    let refs: Vec<(&str, &Eva)> = c.ids.iter().map(String::as_str).zip(evas.iter()).collect();
    let multi = MultiSpanner::compile(&refs)?;
    times.build = t.elapsed();
    Ok((multi, evas, times))
}

struct TenantRequests<'a> {
    server: &'a MultiStreamingServer,
    c: &'a Corpus,
    cycle: Cycle,
}

impl Requests<MultiTicket> for TenantRequests<'_> {
    type Input = usize;

    fn next_doc(&mut self) -> usize {
        self.cycle.next().expect("cycles never end")
    }

    fn size(&self, doc: usize) -> usize {
        self.c.docs[doc].len()
    }

    fn input(&self, doc: usize) -> usize {
        doc
    }

    fn submit(&self, doc: usize) -> Result<MultiTicket, SpannerError> {
        self.server.submit_for(&self.c.ids[self.c.tenant_of[doc]], &self.c.docs[doc], None)
    }

    fn check(&self, doc: usize, out: Vec<Result<Vec<Mapping>, SpannerError>>) -> Verdict {
        check_tenants(doc, &out, &self.c.expected[doc])
    }
}

/// Checks one document's per-tenant results against every tenant's own
/// spanner; a reply that leaves tenants out is wrong.
fn check_tenants(
    doc: usize,
    got: &[Result<Vec<Mapping>, SpannerError>],
    want: &[Vec<Mapping>],
) -> Verdict {
    if got.len() != want.len() {
        return Verdict::Wrong;
    }
    let mut verdict = Verdict::Ok;
    for (got, want) in got.iter().zip(want) {
        match got {
            Err(e) => {
                eprintln!("document {doc} failed: {e}");
                return Verdict::Failed;
            }
            Ok(got) if got != want => verdict = Verdict::Wrong,
            Ok(_) => {}
        }
    }
    verdict
}

/// Quotas far above the offered load (a stall of the servers must not turn
/// into quota denials), a breaker, and a memory governor.
fn governance() -> (Arc<AdmissionController>, Arc<MemoryGovernor>) {
    let quota = TenantQuota::unlimited()
        .with_max_in_flight_docs(1 << 16)
        .with_max_queued_bytes(1 << 30)
        .with_rate(RateLimit { burst: 1 << 20, refill_per_batch: 1 << 16 });
    let admission =
        AdmissionController::new(TenantQuotas::uniform(quota), Some(BreakerPolicy::default()));
    (Arc::new(admission), Arc::new(MemoryGovernor::new(GOVERNOR_BUDGET)))
}

fn sum_stats(shards: &[StreamingStats]) -> StreamingStats {
    shards.iter().fold(StreamingStats::default(), |mut acc, s| {
        acc.completed += s.completed;
        acc.batches += s.batches;
        acc.delta_states += s.delta_states;
        acc.promotions += s.promotions;
        acc.engines_created += s.engines_created;
        acc
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let c = corpus(ctx).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    out.info("pool_docs", c.docs.len());
    out.info("pool_bytes", c.docs.iter().map(Document::len).sum::<usize>());
    reset_peak_rss();

    let mut setups = Setups::default();
    let mut served: Option<(MultiStreamingServer, Arc<AdmissionController>, Arc<MemoryGovernor>)> =
        None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _, _)) = served.take() {
            old.drain();
        }
        let t0 = Instant::now();
        let (multi, _, times) = compile(&c).map_err(|e| e.to_string())?;
        let (admission, governor) = governance();
        let gov = Governance::none()
            .with_admission(Arc::clone(&admission))
            .with_governor(Arc::clone(&governor));
        let server = MultiStreamingServer::start_governed(multi, StreamingOptions::workers(1), gov)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let q = TenantRequests { server: &server, c: &c, cycle: Cycle::new(0, 1) };
        let tickets = (0..WARM_BURST)
            .map(|d| q.submit(d).map(|t| (d, t)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for (d, t) in tickets {
            if q.check(d, t.wait()) != Verdict::Ok {
                return Err(format!("warm-up document {d} disagrees with its tenants' spanners"));
            }
        }
        let t2 = Instant::now();
        setups.total_s.push((t2 - t0).as_secs_f64());
        setups.warm_ms.push(load::ms(t2 - t1));
        setups.compiles.push(times);
        served = Some((server, admission, governor));
    }
    let (server, admission, governor) = served.expect("at least one set-up");
    let mut q =
        TenantRequests { server: &server, c: &c, cycle: Cycle::new(ctx.derive(3), c.docs.len()) };
    let mut rng = StdRng::seed_from_u64(ctx.derive(4));

    let warmup = load::closed_loop(&mut q, IN_FLIGHT, ctx.share(WARMUP), |_| {});
    out.count(&warmup);
    if !ctx.traced {
        let closed = load::closed_loop(&mut q, IN_FLIGHT, ctx.share(0.5), |_| {});
        // Memory is read after the closed loop: its 64 requests in flight
        // bound the working set, while the open loop's queue depth follows
        // stalls of the machine.
        let rss = peak_rss_mb();
        let schedule = poisson_schedule(&mut rng, OPEN_RATE, ctx.share(0.4));
        let order: Vec<usize> =
            Cycle::new(ctx.derive(5), c.docs.len()).take(schedule.len()).collect();
        let open = load::open_loop(&q, &order, &schedule);
        out.count(&closed);
        out.count(&open);
        out.end_to_end(&mut setups.total_s, closed.binned_mb_per_s(), &open, rss);
        out.info("open_loop_rate_docs_per_s", OPEN_RATE);
        out.info("mb_per_s_mean", closed.mb_per_s());
        out.info("open_loop_lateness_ms_p99", percentile(&mut open.lateness_ms(), 0.99));
        server.drain();
        return Ok(out);
    }

    let mut trace = Some(Trace::new(Instant::now()));
    let no_marks = Default::default();
    let mut fig = StreamFigures::default();
    let (plain, closed) = alternate(ctx.share(0.3), |traced, span| {
        load::closed_loop(&mut q, IN_FLIGHT, span, |r| {
            if traced {
                stream_span(&mut trace, &mut fig, "stream.request", r, None);
            }
        })
    });
    let schedule = poisson_schedule(&mut rng, OPEN_RATE, ctx.share(0.2));
    let order: Vec<usize> = Cycle::new(ctx.derive(5), c.docs.len()).take(schedule.len()).collect();
    let open = load::open_loop(&q, &order, &schedule);
    stream_spans(&mut trace, "stream.request", &open.requests, &no_marks);
    let multi_stats = sum_stats(&server.stats());
    for phase in [&plain, &closed, &open] {
        out.count(phase);
    }

    // A fresh compile of the shards for the replays; the served copy lives
    // inside the server.
    let (multi, evas, _) = compile(&c).map_err(|e| e.to_string())?;
    // The map closure of a multi-tenant server is internal: queue wait and
    // map time come from a probe server running shard 0's spanner.
    let shard0 = multi.shard_spanner(0).clone();
    let probe_oracle: Vec<u64> = c
        .expected
        .iter()
        .map(|per| {
            (0..TENANTS).filter(|&t| multi.shard_of(t) == 0).map(|t| per[t].len() as u64).sum()
        })
        .collect();
    let (probe, probe_fig, _) =
        streaming_probe(shard0, &c.docs, &probe_oracle, ctx.derive(6), ctx.share(0.2), &mut trace)
            .map_err(|e| e.to_string())?;
    out.count(&probe);
    fig.queue_ms = probe_fig.queue_ms;
    fig.map_ms = probe_fig.map_ms;
    let final_stats = sum_stats(&server.drain());

    out.compile_layers(&setups.compiles);
    out.metric("runtime.warm_ms", median(&mut setups.warm_ms), "ms");
    let engines: Vec<Engine> = (0..multi.num_shards())
        .map(|s| Engine::new(multi.shard_spanner(s).clone(), None))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let warm = &c.docs[..WARM_BURST];
    let core = replay::replay_core(&engines, &sample(&c.docs, 128 << 10), warm, 3, &mut trace);
    core_layers(&mut out, &core);
    let slp_docs = sample(&c.docs, 64 << 10);
    let slps = SlpBuilder::new().build_corpus(&slp_docs).map_err(|e| e.to_string())?;
    let slp = replay::replay_slp(&engines, &slps, &slps[..slps.len().min(WARM_BURST)], 3);
    slp_layers(&mut out, &slp);
    stream_layers(&mut out, &mut fig, &multi_stats);
    governance_layers(&mut out, Some(admission.stats()), Some(governor.stats()));
    out.metric(
        "runtime.multi.demux_ns_per_mapping",
        replay::replay_demux(&multi, &sample(&c.docs, 64 << 10), 3),
        "ns",
    );
    let replay_ns_per_byte = core.frozen_ns_per_byte
        + core.delay_ns_per_output * core.outputs as f64 / core.bytes.max(1) as f64;
    let batch_ns_per_byte = plain.elapsed.as_secs_f64() * 1e9 * WORKERS as f64 / plain.bytes as f64;
    out.metric("runtime.batch.overhead_ratio", batch_ns_per_byte / replay_ns_per_byte, "ratio");
    let refs: Vec<(&str, &Eva)> = c.ids.iter().map(String::as_str).zip(evas.iter()).collect();
    let tiny = MultiSpannerServer::with_options(
        MultiSpanner::compile(&refs).map_err(|e| e.to_string())?,
        BatchOptions::threads(WORKERS),
    );
    tiny.warm(warm);
    let batch = replay::tiny_batch(&c.docs);
    out.metric(
        "runtime.batch.per_doc_us",
        replay::per_doc_us(batch.len(), 200, || {
            let _ = tiny.evaluate_batch_report(&batch);
        }),
        "us",
    );
    out.metric("runtime.pool.engines_created", final_stats.engines_created as f64, "count");
    out.metric("bench.gen_lateness_ms_p99", percentile(&mut open.lateness_ms(), 0.99), "ms");
    out.metric(
        "bench.trace_overhead_pct",
        trace_overhead_pct(plain.mb_per_s(), closed.mb_per_s()),
        "%",
    );
    out.trace = trace;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_missing_tenants_is_wrong() {
        let want = vec![Vec::new(), Vec::new()];
        let full: Vec<Result<Vec<Mapping>, SpannerError>> = vec![Ok(Vec::new()), Ok(Vec::new())];
        assert_eq!(check_tenants(0, &full, &want), Verdict::Ok);
        assert_eq!(check_tenants(0, &full[..1], &want), Verdict::Wrong);
        assert_eq!(check_tenants(0, &[], &want), Verdict::Wrong);
    }
}
