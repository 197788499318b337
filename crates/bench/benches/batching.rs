//! Experiment E11: the parallel batch/serving runtime.
//!
//! * **E11 — thread scaling over multi-document corpora.** One
//!   [`SpannerServer`] evaluates/counts a corpus of ≥ 1000 small contact
//!   documents (the Example 2.1 serving workload) at 1/2/4/8 worker threads;
//!   aggregate MB/s should grow with the thread count up to the machine's
//!   core count (and degrade gracefully, not collapse, beyond it).
//! * **E11b — frozen-cache sharing.** A lazy-backed spanner (the
//!   `.*a.{n}`-style exponential family, eagerly indeterminizable) over a
//!   corpus: the server's shared frozen snapshot plus per-worker deltas
//!   against the naive serving shape — a cold evaluator (and hence a cold
//!   private determinization cache) per document — at a single thread, so
//!   the comparison isolates cache amortization from parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spanners_core::{CompiledSpanner, Document, Evaluator, LazyConfig};
use spanners_runtime::{BatchOptions, SpannerServer};
use spanners_workloads::{contact_corpus, corpus_bytes, exp_blowup_eva, text_corpus};
use std::time::Duration;

fn contact_spanner() -> CompiledSpanner {
    spanners_bench::contact_spanner()
}

/// E11: aggregate throughput of `evaluate_batch`/`count_batch` over a corpus
/// of small documents as the worker count sweeps 1 → 8.
fn bench_batch_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_batch_thread_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let (corpus, entries) = contact_corpus(0xBA7C4, 1_000, 12);
    let bytes = corpus_bytes(&corpus);
    group.throughput(Throughput::Bytes(bytes as u64));
    for &threads in &[1usize, 2, 4, 8] {
        let server = SpannerServer::with_options(contact_spanner(), BatchOptions::threads(threads));
        server.warm(&corpus[..4]);
        group.bench_with_input(
            BenchmarkId::new("evaluate_batch_1000_docs", threads),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let nodes: usize =
                        server.evaluate_batch(corpus, |_, dag| dag.num_nodes()).iter().sum();
                    nodes
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("count_batch_1000_docs", threads),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let total: u64 = server.count_batch(corpus).unwrap().iter().sum();
                    assert_eq!(total, entries as u64);
                    total
                })
            },
        );
    }
    group.finish();
}

/// E11b: what the shared frozen snapshot buys on a lazy spanner — server
/// (one freeze, per-worker deltas) vs. a cold evaluator per document (each
/// re-determinizing privately), both single-threaded.
fn bench_frozen_cache_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11b_frozen_cache_sharing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let eva = exp_blowup_eva(12);
    let corpus: Vec<Document> = text_corpus(0xF40, 400, 100, 400, b"abcd");
    let bytes = corpus_bytes(&corpus);
    group.throughput(Throughput::Bytes(bytes as u64));
    let spanner = CompiledSpanner::from_eva_lazy(&eva, LazyConfig::default()).unwrap();
    let server = SpannerServer::with_options(spanner.clone(), BatchOptions::threads(1));
    server.warm(&corpus[..8]);
    group.bench_with_input(BenchmarkId::new("frozen_shared", 1), &corpus, |b, corpus| {
        b.iter(|| {
            let nodes: usize = server.evaluate_batch(corpus, |_, dag| dag.num_nodes()).iter().sum();
            nodes
        })
    });
    group.bench_with_input(BenchmarkId::new("cold_cache_per_doc", 1), &corpus, |b, corpus| {
        b.iter(|| {
            let mut nodes = 0usize;
            for doc in corpus.iter() {
                // The naive serving shape: a fresh evaluator — and thus a
                // cold private determinization cache — per document.
                nodes += Evaluator::new()
                    .eval(spanner.lazy_automaton().expect("lazy engine"), doc)
                    .unwrap()
                    .num_nodes();
            }
            nodes
        })
    });
    if let Some(states) = server.frozen_states() {
        println!("e11b frozen snapshot: {states} subset states shared across workers");
    }
    group.finish();
}

criterion_group!(benches, bench_batch_thread_scaling, bench_frozen_cache_sharing);
criterion_main!(benches);
