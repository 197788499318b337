//! `sparse-stream`: a 2-worker `StreamingServer` running the eager
//! digit-runs spanner over long, sparsely matching documents. The scan floor
//! does nearly all engine work; micro-batches close on the 1 MiB byte cap.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use spanners_core::{CompiledSpanner, Document, Eva};
use spanners_runtime::{BatchOptions, MultiSpanner, SpannerServer, StreamingServer};
use spanners_workloads::rng::StdRng;
use spanners_workloads::{digit_runs_pattern, sparse_match_text, SlpBuilder};

use crate::load::{self, pareto_sizes, poisson_schedule, Cycle};
use crate::replay::{self, compile_eager, Engine};
use crate::rig::*;
use crate::stats::percentile;
use crate::trace::Trace;

/// Documents in the pool the load is drawn from.
const POOL_DOCS: usize = 768;
/// Document lengths: Pareto with shape 1.2, truncated to 16 KiB – 2 MiB.
const MIN_LEN: usize = 16 << 10;
const MAX_LEN: usize = 2 << 20;
const ALPHA: f64 = 1.2;
/// Decimal digits per ten thousand bytes.
const MATCHES_PER_10K: usize = 1;
/// Open-loop arrival rate, documents per second: about 40% of the 2-core
/// closed-loop capacity (≈2.4 GB/s of 61 kB mean documents).
pub const OPEN_RATE: f64 = 16_000.0;

fn corpus(ctx: &Ctx) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(ctx.derive(1));
    let sizes = pareto_sizes(&mut rng, POOL_DOCS, MIN_LEN, MAX_LEN, ALPHA);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| sparse_match_text(ctx.derive(1000 + i as u64), len, MATCHES_PER_10K))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let docs = corpus(ctx);
    // Oracle: Algorithm 3 counts through the library's one-call compiler,
    // a path independent of the served enumeration.
    let reference = spanners_regex::compile(digit_runs_pattern()).map_err(|e| e.to_string())?;
    let oracle: Vec<u64> = docs
        .iter()
        .map(|d| reference.count_u64(d))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    out.info("pool_docs", docs.len());
    out.info("pool_bytes", docs.iter().map(Document::len).sum::<usize>());
    reset_peak_rss();

    let marks = Arc::new(MapMarks::default());
    let mut setups = Setups::default();
    let mut served: Option<(StreamingServer<u64>, CompiledSpanner, Eva)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _, _)) = served.take() {
            old.drain();
        }
        let burst = docs[..WARM_BURST].to_vec();
        let t0 = Instant::now();
        let (spanner, eva, times) =
            compile_eager(digit_runs_pattern()).map_err(|e| e.to_string())?;
        let server = start_stream(spanner.clone(), &marks).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        warm_burst(&server, burst, &oracle)?;
        let t2 = Instant::now();
        setups.total_s.push((t2 - t0).as_secs_f64());
        setups.warm_ms.push(load::ms(t2 - t1));
        setups.compiles.push(times);
        served = Some((server, spanner, eva));
    }
    let (server, spanner, eva) = served.expect("at least one set-up");
    let mut q = StreamRequests {
        server: &server,
        docs: &docs,
        oracle: &oracle,
        cycle: Cycle::new(ctx.derive(2), docs.len()),
    };
    let mut rng = StdRng::seed_from_u64(ctx.derive(3));

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
            Cycle::new(ctx.derive(4), docs.len()).take(schedule.len()).collect();
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
    // The streaming figures come from the open loop below.
    let mut closed_fig = StreamFigures::default();
    let (plain, closed) = alternate(ctx.share(0.4), |traced, span| {
        marks.on.store(traced, Ordering::Relaxed);
        load::closed_loop(&mut q, IN_FLIGHT, span, |r| {
            if traced {
                let map = marks.remove(r.seq);
                stream_span(&mut trace, &mut closed_fig, "stream.request", r, map);
            }
        })
    });
    marks.on.store(true, Ordering::Relaxed);
    let schedule = poisson_schedule(&mut rng, OPEN_RATE, ctx.share(0.25));
    let order: Vec<usize> = Cycle::new(ctx.derive(4), docs.len()).take(schedule.len()).collect();
    let open = load::open_loop(&q, &order, &schedule);
    let mut fig = stream_spans(&mut trace, "stream.request", &open.requests, &marks.take());
    marks.on.store(false, Ordering::Relaxed);
    let stats = server.drain();
    for phase in [&plain, &closed, &open] {
        out.count(phase);
    }

    out.compile_layers(&setups.compiles);
    out.metric("runtime.warm_ms", crate::stats::median(&mut setups.warm_ms), "ms");
    let engine = Engine::new(spanner.clone(), Some(&eva)).map_err(|e| e.to_string())?;
    let core = replay::replay_core(
        std::slice::from_ref(&engine),
        &sample(&docs, 16 << 20),
        &docs[..WARM_BURST],
        5,
        &mut trace,
    );
    core_layers(&mut out, &core);
    let slp_docs = sample(&docs, 1 << 20);
    let slps = SlpBuilder::new().build_corpus(&slp_docs).map_err(|e| e.to_string())?;
    let slp =
        replay::replay_slp(std::slice::from_ref(&engine), &slps, &slps[..slps.len().min(4)], 3);
    slp_layers(&mut out, &slp);
    stream_layers(&mut out, &mut fig, &stats);
    governance_layers(&mut out, None, None);
    let twin = MultiSpanner::compile(&[("a", &eva), ("b", &eva)]).map_err(|e| e.to_string())?;
    out.metric(
        "runtime.multi.demux_ns_per_mapping",
        replay::replay_demux(&twin, &sample(&docs, 1 << 20), 3),
        "ns",
    );
    let replay_ns_per_byte = core.enumerate_ns_per_byte();
    let batch_ns_per_byte = plain.elapsed.as_secs_f64() * 1e9 * WORKERS as f64 / plain.bytes as f64;
    out.metric("runtime.batch.overhead_ratio", batch_ns_per_byte / replay_ns_per_byte, "ratio");
    let tiny = SpannerServer::with_options(spanner, BatchOptions::threads(WORKERS));
    let batch = replay::tiny_batch(&docs);
    out.metric(
        "runtime.batch.per_doc_us",
        replay::per_doc_us(batch.len(), 200, || {
            let _ = tiny.evaluate_batch_report(&batch, |_, dag| dag.iter().count());
        }),
        "us",
    );
    out.metric("runtime.pool.engines_created", stats.engines_created as f64, "count");
    out.metric("bench.gen_lateness_ms_p99", percentile(&mut open.lateness_ms(), 0.99), "ms");
    out.metric(
        "bench.trace_overhead_pct",
        trace_overhead_pct(plain.mb_per_s(), closed.mb_per_s()),
        "%",
    );
    out.trace = trace;
    Ok(out)
}
