//! `slp-count`: `BatchSpanner::count_slp_batch_report` with 2 threads and
//! the eager digit-runs spanner over an SLP-compressed repetitive log
//! corpus. The only workload where grammar composition does the work; the
//! byte loop is bypassed entirely.

use std::time::Instant;

use spanners_core::{CompiledSpanner, Document, Slp};
use spanners_runtime::{BatchOptions, BatchSpanner, MultiSpanner};
use spanners_workloads::{
    corpus_compression_ratio, digit_runs_pattern, repetitive_log_corpus, SlpBuilder,
};

use crate::load::{self, Verdict};
use crate::replay::{self, compile_eager, Engine};
use crate::rig::*;
use crate::stats::{median, percentile};
use crate::trace::Trace;

/// Documents of the corpus, and log lines per document.
const DOCS: usize = 64;
const LINES_PER_DOC: usize = 2_000;
/// Compressed documents per batch call.
pub const BATCH_DOCS: usize = 8;

fn options() -> BatchOptions {
    BatchOptions::threads(WORKERS)
}

/// One batch call over the next `BATCH_DOCS` compressed documents.
fn call(
    spanner: &CompiledSpanner,
    pool: &mut Pool<Slp>,
    k: usize,
) -> (Verdict, usize, Instant, Instant) {
    let range = pool.batch(k);
    let slps = &pool.items[range.clone()];
    let bytes = slps.iter().map(|s| s.len() as usize).sum();
    let start = Instant::now();
    let report = spanner.count_slp_batch_report(slps, &options());
    let end = Instant::now();
    let verdict = match report {
        Ok(r) => check_counts(&r.results, &pool.want[range]),
        Err(_) => Verdict::Failed,
    };
    (verdict, bytes, start, end)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let raw = repetitive_log_corpus(ctx.derive(1), DOCS, LINES_PER_DOC);
    let slps = SlpBuilder::new().build_corpus(&raw).map_err(|e| e.to_string())?;
    // Oracle: Algorithm 3 over each decompressed document.
    let reference = spanners_regex::compile(digit_runs_pattern()).map_err(|e| e.to_string())?;
    let decompressed: Vec<Document> = slps.iter().map(Slp::decompress).collect();
    if decompressed != raw {
        return Err("SLP decompression does not reproduce the corpus".to_string());
    }
    let oracle: Vec<u64> = decompressed
        .iter()
        .map(|d| reference.count_u64(d))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut pool = Pool::new(slps.clone(), oracle.clone(), BATCH_DOCS, ctx.derive(2));
    let mut out = Outcome::default();
    out.info("pool_docs", DOCS);
    out.info("pool_bytes", decompressed.iter().map(Document::len).sum::<usize>());
    out.info("compression_ratio", corpus_compression_ratio(&slps));
    reset_peak_rss();

    let mut setups = Setups::default();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (spanner, eva, times) =
            compile_eager(digit_runs_pattern()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let first = spanner
            .count_slp_batch_report(&slps[..BATCH_DOCS], &options())
            .map_err(|e| e.to_string())?;
        if check_counts(&first.results, &oracle[..BATCH_DOCS]) != Verdict::Ok {
            return Err("the warm-up batch disagrees with the oracle".to_string());
        }
        let t2 = Instant::now();
        setups.total_s.push((t2 - t0).as_secs_f64());
        setups.warm_ms.push(load::ms(t2 - t1));
        setups.compiles.push(times);
        served = Some((spanner, eva));
    }
    let (spanner, eva) = served.expect("at least one set-up");

    let (warmup, _) = batch_phase(ctx.share(WARMUP), |k| call(&spanner, &mut pool, k));
    out.count(&warmup);
    if !ctx.traced {
        let (phase, mut gaps) =
            batch_phase(ctx.share(1.0 - WARMUP), |k| call(&spanner, &mut pool, k));
        out.count(&phase);
        out.end_to_end(&mut setups.total_s, phase.binned_mb_per_s(), &phase, peak_rss_mb());
        out.info("batch_docs", BATCH_DOCS);
        out.info("mb_per_s_mean", phase.mb_per_s());
        out.info("client_gap_ms_p99", percentile(&mut gaps, 0.99));
        return Ok(out);
    }

    let mut trace = Some(Trace::new(Instant::now()));
    let mut gaps = Vec::new();
    let (plain, traced) = alternate(ctx.share(0.5), |is_traced, span| {
        let (phase, slice_gaps) = batch_phase(span, |k| {
            let done = call(&spanner, &mut pool, k);
            if is_traced {
                batch_span(&mut trace, "runtime.batch.count_slp", done.2, done.3);
            }
            done
        });
        if is_traced {
            gaps.extend(slice_gaps);
        }
        phase
    });
    let (probe, mut fig, probe_stats) = streaming_probe(
        spanner.clone(),
        &decompressed,
        &oracle,
        ctx.derive(3),
        ctx.share(0.25),
        &mut trace,
    )
    .map_err(|e| e.to_string())?;
    for phase in [&plain, &traced, &probe] {
        out.count(phase);
    }

    out.compile_layers(&setups.compiles);
    out.metric("runtime.warm_ms", median(&mut setups.warm_ms), "ms");
    let engine = Engine::new(spanner.clone(), Some(&eva)).map_err(|e| e.to_string())?;
    let engines = std::slice::from_ref(&engine);
    let warm = &decompressed[..BATCH_DOCS];
    let core = replay::replay_core(engines, &sample(&decompressed, 1 << 20), warm, 3, &mut trace);
    core_layers(&mut out, &core);
    let slp = replay::replay_slp(engines, &slps, &slps[..BATCH_DOCS], 5);
    slp_layers(&mut out, &slp);
    stream_layers(&mut out, &mut fig, &probe_stats);
    governance_layers(&mut out, None, None);
    let twin = MultiSpanner::compile(&[("a", &eva), ("b", &eva)]).map_err(|e| e.to_string())?;
    out.metric(
        "runtime.multi.demux_ns_per_mapping",
        replay::replay_demux(&twin, &sample(&decompressed, 256 << 10), 3),
        "ns",
    );
    let batch_ns_per_doc = plain.elapsed.as_secs_f64() * 1e9 * WORKERS as f64
        / (plain.attempted as f64 * BATCH_DOCS as f64);
    out.metric("runtime.batch.overhead_ratio", batch_ns_per_doc / slp.compose_ns_per_doc, "ratio");
    let tiny: Vec<Slp> =
        replay::tiny_batch(&decompressed).iter().map(|d| Slp::literal(d.bytes())).collect();
    out.metric(
        "runtime.batch.per_doc_us",
        replay::per_doc_us(tiny.len(), 200, || {
            let _ = spanner.count_slp_batch_report(&tiny, &options());
        }),
        "us",
    );
    let engines_created = spanner
        .count_slp_batch_report(&slps[..BATCH_DOCS], &options())
        .map_err(|e| e.to_string())?
        .engines_created;
    out.metric("runtime.pool.engines_created", engines_created as f64, "count");
    out.metric("bench.gen_lateness_ms_p99", percentile(&mut gaps, 0.99), "ms");
    out.metric(
        "bench.trace_overhead_pct",
        trace_overhead_pct(plain.mb_per_s(), traced.mb_per_s()),
        "%",
    );
    out.trace = trace;
    Ok(out)
}
