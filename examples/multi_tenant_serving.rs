//! Multi-tenant serving (experiment **E15**): one shared document pass for N
//! tenant spanners versus N per-tenant passes.
//!
//! Run with: `cargo run --release --example multi_tenant_serving [docs] [threads]`
//!
//! For tenant counts 2 / 8 / 32, a seeded population of keyword-dictionary
//! tenants is compiled two ways: as a [`MultiSpanner`] (branded union per
//! shard, one evaluation pass per document per shard, demultiplexed per
//! tenant) and as N independent [`SpannerServer`]s (one full pass per
//! tenant). Both paths evaluate the same corpus through the fault-tolerant
//! report APIs; the example verifies the outputs are byte-identical, then
//! reports wall-clock and aggregate throughput. The shared pass amortizes
//! document scanning across tenants, so its advantage grows with the tenant
//! count.

use std::time::Instant;

use spanners::runtime::{BatchOptions, MultiSpanner, MultiSpannerServer, SpannerServer};
use spanners::workloads::{corpus_bytes, tenant_corpus, tenant_keyword_workload};
use spanners::{CompiledSpanner, Eva, LazyConfig, Mapping};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let docs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    let threads: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(0);
    let opts = match threads {
        0 => BatchOptions::default(),
        n => BatchOptions::threads(n),
    };

    for &tenants in &[2usize, 8, 32] {
        let workload = tenant_keyword_workload(0xE15, tenants, 3)?;
        let corpus = tenant_corpus(0xE15, &workload, docs, 60);
        let bytes = corpus_bytes(&corpus);
        // The per-tenant servers determinize lazily (and so would a shard
        // too large for the eager tables); warm both sides on the same
        // leading slice so neither path pays determinization inside the
        // timed region.
        let warm = &corpus[..corpus.len().min(32)];

        // Shared passes: the tenants compiled into per-shard unions.
        let refs: Vec<(&str, &Eva)> = workload.iter().map(|t| (t.id.as_str(), &t.eva)).collect();
        let multi = MultiSpanner::compile(&refs)?;
        let shards = multi.num_shards();
        let shared_server = MultiSpannerServer::with_options(multi, opts);
        shared_server.warm(warm);
        let t0 = Instant::now();
        let shared = shared_server.evaluate_batch_report(&corpus)?;
        let shared_time = t0.elapsed();
        assert!(shared.is_fully_ok());
        let shared_mappings: usize = shared.tenants.iter().map(|s| s.mappings).sum();

        // Per-tenant passes: one warm server per tenant, N scans per doc.
        let singles: Vec<SpannerServer> = workload
            .iter()
            .map(|t| {
                let spanner = CompiledSpanner::from_eva_lazy(&t.eva, LazyConfig::default())
                    .expect("tenant eVA compiles alone");
                let server = SpannerServer::with_options(spanner, opts);
                server.warm(warm);
                server
            })
            .collect();
        let t0 = Instant::now();
        let mut single_results: Vec<Vec<Vec<Mapping>>> = Vec::with_capacity(singles.len());
        for server in &singles {
            let report = server.evaluate_batch_report(&corpus, |_, dag| {
                let mut ms = dag.collect_mappings();
                ms.sort_unstable();
                ms
            })?;
            single_results.push(report.into_results().into_iter().map(|r| r.unwrap()).collect());
        }
        let single_time = t0.elapsed();
        let single_mappings: usize = single_results.iter().flatten().map(Vec::len).sum();

        // The differential: demuxed shared output ≡ per-tenant output.
        assert_eq!(shared_mappings, single_mappings);
        for (t, per_doc) in single_results.iter().enumerate() {
            for (d, expected) in per_doc.iter().enumerate() {
                assert_eq!(
                    shared.results[d][t].as_ref().unwrap(),
                    expected,
                    "tenant {t} doc {d} diverged"
                );
            }
        }

        let mbps = |secs: f64| bytes as f64 / secs / 1e6;
        println!(
            "{tenants:>2} tenants, {shards} shard(s), {docs} docs ({:.1} KB), {} worker(s), \
             {shared_mappings} mappings:",
            bytes as f64 / 1e3,
            opts.effective_threads(docs),
        );
        println!(
            "  shared pass       {shared_time:>10.2?}  ({:>7.1} MB/s/tenant-equiv)",
            mbps(shared_time.as_secs_f64()) * tenants as f64
        );
        println!(
            "  per-tenant passes {single_time:>10.2?}  ({:>7.1} MB/s/tenant-equiv)",
            mbps(single_time.as_secs_f64()) * tenants as f64
        );
        println!(
            "  shared-pass speedup: {:.2}x",
            single_time.as_secs_f64() / shared_time.as_secs_f64()
        );
    }
    Ok(())
}
