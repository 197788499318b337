//! Streaming service under workload drift: one [`StreamingServer`] consuming
//! a document stream whose content distribution shifts over time, with and
//! without **generational snapshot re-freezing** (experiment E14).
//!
//! Run with: `cargo run --release --example streaming_serving [docs] [workers]`
//!
//! The workload is a keyword-dictionary spanner (lazily determinized) over a
//! [`drifting_corpus`]: the stream's alphabet window slides phase by phase,
//! so a determinization snapshot frozen on early documents keeps missing the
//! subset states later phases visit. The per-batch **delta pressure**
//! (overflow states interned past the frozen snapshot) stays high on a
//! static snapshot; with a [`RefreezePolicy`], sustained pressure promotes a
//! fresh generation that folds the delta evidence in, and steady-state
//! pressure drops.

use std::time::{Duration, Instant};

use spanners::automata::{sequentialize, va_to_eva, CompileOptions};
use spanners::regex::{parse, regex_to_va};
use spanners::runtime::BatchReport;
use spanners::workloads::{corpus_bytes, drifting_corpus, keyword_dictionary_pattern};
use spanners::{
    CompiledSpanner, LazyConfig, RefreezePolicy, StreamingOptions, StreamingServer, StreamingStats,
};

/// One keyword per drift phase, each spelled from that phase's alphabet
/// window (see [`drifting_corpus`]), so every phase exercises different
/// keyword-prefix subset states.
const KEYWORDS: &[&str] = &["badge", "fig", "milk", "monk", "sort", "spur"];

fn lazy_keyword_spanner() -> Result<CompiledSpanner, Box<dyn std::error::Error>> {
    let pattern = keyword_dictionary_pattern(KEYWORDS);
    let va = regex_to_va(&parse(&pattern)?)?;
    let sequential = sequentialize(&va, CompileOptions::default())?;
    let eva = va_to_eva(&sequential)?;
    Ok(CompiledSpanner::from_eva_lazy(&eva, LazyConfig::default())?)
}

fn run_stream(
    refreeze: Option<RefreezePolicy>,
    workers: usize,
    corpus: &[spanners::Document],
) -> Result<(StreamingStats, Duration), Box<dyn std::error::Error>> {
    let opts =
        StreamingOptions::workers(workers).with_batch_caps(16, 1 << 20).with_refreeze(refreeze);
    let server = StreamingServer::start(lazy_keyword_spanner()?, opts, |_, dag| {
        dag.collect_mappings().len()
    })?;
    let t = Instant::now();
    // `doc.clone()` shares the corpus document's buffer with the server; the
    // submission copies no bytes.
    let tickets: Vec<_> =
        corpus.iter().map(|doc| server.submit(doc.clone(), None)).collect::<Result<_, _>>()?;
    // Splice the ticket outcomes into a BatchReport for the one-line log
    // summary a serving loop would emit.
    let report = BatchReport::from_results(tickets.into_iter().map(|t| t.wait()).collect());
    let elapsed = t.elapsed();
    let stats = server.drain();
    println!("    per-ticket outcome: {}", report.summary());
    Ok((stats, elapsed))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let docs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(600);
    let workers: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let corpus = drifting_corpus(0xD41F7, docs, 400, KEYWORDS.len());
    let bytes = corpus_bytes(&corpus);
    println!(
        "drifting corpus: {docs} documents, {bytes} bytes, {} phases; {workers} worker(s)",
        KEYWORDS.len()
    );

    // --- Static snapshot: frozen once on the first batch, never re-frozen;
    //     worker deltas absorb every later phase, over and over. ---
    println!("  static snapshot (refreeze disabled):");
    let (static_stats, static_time) = run_stream(None, workers, &corpus)?;
    println!(
        "    {} batches, delta pressure {} states, generation {}, {static_time:?} ({:.1} MB/s)",
        static_stats.batches,
        static_stats.delta_states,
        static_stats.generation,
        bytes as f64 / static_time.as_secs_f64() / 1e6
    );

    // --- Generational re-freezing: sustained pressure promotes a merged,
    //     re-warmed snapshot; later phases run against generations that
    //     already cover them. ---
    let policy = RefreezePolicy { min_delta_states: 8, sustained_batches: 2 };
    println!("  generational re-freezing ({policy:?}):");
    let (gen_stats, gen_time) = run_stream(Some(policy), workers, &corpus)?;
    println!(
        "    {} batches, delta pressure {} states, generation {} ({} promotions), \
         {gen_time:?} ({:.1} MB/s)",
        gen_stats.batches,
        gen_stats.delta_states,
        gen_stats.generation,
        gen_stats.promotions,
        bytes as f64 / gen_time.as_secs_f64() / 1e6
    );
    if static_stats.delta_states > 0 {
        let kept = 100.0 * gen_stats.delta_states as f64 / static_stats.delta_states as f64;
        println!(
            "    re-freezing kept {:.0}% of the static snapshot's delta pressure \
             ({} -> {} overflow states)",
            kept, static_stats.delta_states, gen_stats.delta_states
        );
    }
    assert_eq!(static_stats.completed, docs as u64);
    assert_eq!(gen_stats.completed, docs as u64);
    Ok(())
}
