//! Differential suite for **multi-tenant serving**: N tenant spanners
//! compiled into shared automata (`MultiSpanner`) that evaluate each
//! document **once**, demultiplexing per-tenant results.
//!
//! The contract under test: for every tenant, every document and every
//! worker count, the demultiplexed shared-pass output is **byte-identical**
//! (sorted mapping lists, spans included) to running that tenant's spanner
//! alone — regardless of how tenants were packed into shards, and with
//! per-tenant counts agreeing with the standalone Algorithm 3 counter.
//!
//! The `fault-injection` half additionally pins the isolation contract: an
//! injected panic, forced eviction or expired deadline loses only the
//! affected *document* (for the tenants of the shard that evaluated it) —
//! never a tenant's routing, and never a neighbouring document. Fault plans
//! are process-global, so those tests serialize on a mutex; run the suite
//! with `RUST_TEST_THREADS` unset in both configurations.

use spanners::automata::va_to_eva;
use spanners::runtime::{BatchOptions, MultiSpanner, MultiSpannerServer, MultiStreamingServer};
use spanners::workloads as w;
#[cfg(feature = "fault-injection")]
use spanners::SpannerError;
use spanners::{CompiledSpanner, Document, Eva, LazyConfig, Mapping, StreamingOptions};

/// Worker counts every differential runs at: the sequential fallback, a
/// modest fan-out, and heavy oversubscription.
const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// Compiles a regex formula into a sequential eVA — the registration format
/// tenants hand to the multi-tenant runtime.
fn pattern_eva(pattern: &str) -> Eva {
    let ast = spanners::regex::parse(pattern).unwrap();
    let va = spanners::regex::regex_to_va(&ast).unwrap();
    va_to_eva(&va).unwrap()
}

/// A mixed tenant population: keyword extractors, digit runs, and letter
/// runs — several tenants deliberately reuse the variable name `x` to
/// exercise the per-tenant namespace prefixing.
fn tenant_population() -> Vec<(&'static str, Eva)> {
    vec![
        ("alerts", pattern_eva(&w::keyword_dictionary_pattern(&["error", "fatal"]))),
        ("audit", pattern_eva(&w::keyword_dictionary_pattern(&["login", "logout"]))),
        ("digits", pattern_eva(".*!x{[0-9]+}.*")),
        ("lower", pattern_eva(".*!x{[a-z]+}.*")),
        ("upper", pattern_eva(".*!x{[A-Z]+}.*")),
        ("pairs", pattern_eva(".*!a{[0-9]}!b{[a-z]}.*")),
        ("vowels", pattern_eva(".*!x{[aeiou]+}.*")),
        ("spaces", pattern_eva(".*!x{ +}.*")),
    ]
}

/// A corpus that hits every tenant: keywords, digits, case runs, spaces.
fn corpus() -> Vec<Document> {
    let mut docs = vec![
        Document::empty(),
        Document::from("error at login 42"),
        Document::from("FATAL error logout 7x"),
        Document::from("no matches here?!"),
        Document::from("a1 b2 c3 ERROR login"),
    ];
    docs.extend(w::text_corpus(0xBEEF, 12, 0, 80, b"erorlogin 019afEA"));
    docs
}

/// A tenant population and the corpus it is checked on.
type Population = (Vec<(&'static str, Eva)>, Vec<Document>);

/// The window of the `blowup` tenant ([`w::exp_blowup_eva`]): its subset
/// construction needs about `2^16` states, more than any shard's eager
/// budget (`CompiledSpanner::AUTO_EAGER_MAX_CELLS` cells) allows.
const BLOWUP_WINDOW: usize = 16;

/// A population whose layout holds both shard engines. Sixteen keyword
/// tenants (1 variable + 1 route variable each) fill shard 0 to the
/// 32-variable limit and determinize eagerly; `blowup` shares shard 1 with
/// one more keyword tenant, and that shard stays lazy. Its corpus adds
/// documents that mention the tenants' keywords to [`corpus`].
fn mixed_engine_population() -> Population {
    const KEYWORD_IDS: [&str; 17] = [
        "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10", "k11", "k12", "k13",
        "k14", "k15", "k16",
    ];
    let workload = w::tenant_keyword_workload(0x5EED, KEYWORD_IDS.len(), 3).unwrap();
    let mut docs = corpus();
    docs.extend(w::tenant_corpus(0x5EED, &workload, 8, 40));
    let mut tenants: Vec<(&'static str, Eva)> =
        KEYWORD_IDS.into_iter().zip(workload.into_iter().map(|t| t.eva)).collect();
    tenants.insert(16, ("blowup", w::exp_blowup_eva(BLOWUP_WINDOW)));
    (tenants, docs)
}

/// The corner cases of route branding, which attaches a tenant's route
/// variable at its first variable transition: a variable-free tenant (it
/// outputs the empty mapping, routed at the end of the document), a tenant
/// capturing the empty span at the end of the document, one anchored at
/// position 0, and one whose eVA accepts the empty document both with the
/// empty mapping and with a capture. [`corpus`] includes the empty document.
fn branding_edge_population() -> Population {
    let tenants = vec![
        ("flag", pattern_eva(".*error.*")),
        ("tail", pattern_eva(".*!x{}")),
        ("head", pattern_eva("!x{[a-z]+}.*")),
        ("maybe", pattern_eva("(!y{[0-9]*})?.*")),
    ];
    let mut docs = corpus();
    docs.extend(["7", "42 error", "login"].map(Document::from));
    (tenants, docs)
}

/// Every population the differentials run: the mixed keyword/run-length
/// population (one eager shard), the mixed-engine one (eager and lazy
/// shards) and the branding corner cases.
fn populations() -> Vec<Population> {
    vec![(tenant_population(), corpus()), mixed_engine_population(), branding_edge_population()]
}

/// Every shard compiles eagerly except the one serving `blowup`, whose
/// subset construction does not fit the eager budget.
fn assert_shard_engines(multi: &MultiSpanner) {
    let blowup_shard = multi.tenant_index("blowup").map(|t| multi.shard_of(t));
    assert!(blowup_shard.is_none() || multi.num_shards() > 1, "the layout mixes both engines");
    for s in 0..multi.num_shards() {
        assert_eq!(
            multi.shard_spanner(s).is_lazy(),
            blowup_shard == Some(s),
            "shard {s} of {}",
            multi.num_shards()
        );
    }
}

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    ms.sort_unstable();
    ms
}

/// Each tenant's expected output: its spanner run **alone**, sorted.
fn sequential_baseline(tenants: &[(&str, Eva)], docs: &[Document]) -> Vec<Vec<Vec<Mapping>>> {
    tenants
        .iter()
        .map(|(_, eva)| {
            let single = CompiledSpanner::from_eva_lazy(eva, LazyConfig::default()).unwrap();
            docs.iter().map(|d| sorted(single.mappings(d))).collect()
        })
        .collect()
}

fn compile_multi(tenants: &[(&str, Eva)]) -> MultiSpanner {
    let refs: Vec<(&str, &Eva)> = tenants.iter().map(|(id, eva)| (*id, eva)).collect();
    MultiSpanner::compile(&refs).unwrap()
}

// ---------------------------------------------------------------------------
// Differential half: shared pass ≡ N sequential runs
// ---------------------------------------------------------------------------

#[test]
fn shared_pass_is_byte_identical_to_sequential_runs_at_every_thread_count() {
    let _serial = serialize_faults();
    for (tenants, docs) in populations() {
        let expected = sequential_baseline(&tenants, &docs);
        for &threads in THREAD_COUNTS {
            let multi = compile_multi(&tenants);
            assert_shard_engines(&multi);
            let server = MultiSpannerServer::with_options(multi, BatchOptions::threads(threads));
            let report = server.evaluate_batch_report(&docs).unwrap();
            assert!(report.is_fully_ok(), "no faults, no failures at {threads} threads");
            assert_eq!(report.results.len(), docs.len());
            for (d, row) in report.results.iter().enumerate() {
                for (t, cell) in row.iter().enumerate() {
                    assert_eq!(
                        cell.as_ref().unwrap(),
                        &expected[t][d],
                        "tenant {} doc {d} diverged at {threads} threads",
                        tenants[t].0
                    );
                }
            }
            // Per-tenant slots account for every document and mapping.
            assert_eq!(report.tenants.len(), tenants.len());
            for (t, slot) in report.tenants.iter().enumerate() {
                assert_eq!(slot.id, tenants[t].0);
                assert_eq!(slot.ok, docs.len());
                assert_eq!(slot.failed, 0);
                let total: usize = expected[t].iter().map(Vec::len).sum();
                assert_eq!(slot.mappings, total, "tenant {} mapping tally", tenants[t].0);
            }
        }
    }
}

#[test]
fn demuxed_counts_match_standalone_counters() {
    for (tenants, docs) in populations() {
        let multi = compile_multi(&tenants);
        for doc in &docs {
            let counts = multi.count(doc).unwrap();
            for (t, (id, eva)) in tenants.iter().enumerate() {
                let single = CompiledSpanner::from_eva_lazy(eva, LazyConfig::default()).unwrap();
                assert_eq!(counts[t], single.count_u64(doc).unwrap(), "tenant {id}");
            }
        }
    }
}

/// Wide tenants overflow the 32-variable marker width and force the packer
/// into several shards (including an unbranded single-tenant shard); the
/// differential must hold across any layout.
#[test]
fn sharded_layouts_stay_byte_identical() {
    let wide = |prefix: &str| {
        // 14 capture variables: two of these tenants fit one shard
        // (2 × (14 + 1) = 30 ≤ 32), a third spills over.
        let alts: Vec<String> =
            (0..14).map(|i| format!("!{prefix}{i}{{{}}}", char::from(b'a' + i as u8))).collect();
        pattern_eva(&format!(".*{}.*", alts.join("")))
    };
    let tenants = vec![
        ("w0", wide("p")),
        ("w1", wide("q")),
        ("w2", wide("r")),
        ("narrow", pattern_eva(".*!x{[0-9]+}.*")),
    ];
    let docs: Vec<Document> = vec![
        Document::from("abcdefghijklmn"),
        Document::from("abcdefghijklmn123"),
        Document::from("zzz"),
        Document::empty(),
    ];
    let expected = sequential_baseline(&tenants, &docs);
    let multi = compile_multi(&tenants);
    assert!(multi.num_shards() > 1, "wide tenants must split into several shards");
    for (d, doc) in docs.iter().enumerate() {
        let got = multi.evaluate(doc);
        for (t, (id, _)) in tenants.iter().enumerate() {
            assert_eq!(got[t], expected[t][d], "tenant {id} doc {d}");
        }
    }
}

#[test]
fn streaming_shared_pass_matches_sequential_runs() {
    let _serial = serialize_faults();
    for (tenants, docs) in populations() {
        let expected = sequential_baseline(&tenants, &docs);
        for &workers in THREAD_COUNTS {
            let multi = compile_multi(&tenants);
            assert_shard_engines(&multi);
            let server =
                MultiStreamingServer::start(multi, StreamingOptions::workers(workers)).unwrap();
            let tickets: Vec<_> = docs.iter().map(|d| server.submit(d, None).unwrap()).collect();
            for (d, ticket) in tickets.into_iter().enumerate() {
                let row = ticket.wait();
                for (t, cell) in row.iter().enumerate() {
                    assert_eq!(
                        cell.as_ref().unwrap(),
                        &expected[t][d],
                        "tenant {} doc {d} diverged at {workers} workers",
                        tenants[t].0
                    );
                }
            }
            server.drain();
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection half: faults lose documents, never routing
// ---------------------------------------------------------------------------

/// Fault plans are process-global; serialize every test that is sensitive to
/// a concurrently-installed plan when the harness is compiled in.
#[cfg(feature = "fault-injection")]
static FAULT_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-injection")]
fn serialize_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(not(feature = "fault-injection"))]
struct NoFaultsInstalled;

#[cfg(not(feature = "fault-injection"))]
fn serialize_faults() -> NoFaultsInstalled {
    NoFaultsInstalled
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use spanners::runtime::{install_faults, FaultPlan};

    /// An injected worker panic on one document fails that document for the
    /// tenants of every shard that evaluated it — and nothing else: every
    /// other document stays byte-identical for every tenant, and tenant
    /// slots book exactly one failure each.
    #[test]
    fn injected_panic_loses_only_the_affected_document() {
        let _serial = serialize_faults();
        let tenants = tenant_population();
        let docs = corpus();
        let expected = sequential_baseline(&tenants, &docs);
        let panic_doc = 2usize;
        for &threads in THREAD_COUNTS {
            let multi = compile_multi(&tenants);
            let server = MultiSpannerServer::with_options(multi, BatchOptions::threads(threads));
            let report = {
                let _plan = install_faults(FaultPlan {
                    panic_on_docs: vec![panic_doc],
                    ..FaultPlan::default()
                });
                server.evaluate_batch_report(&docs).unwrap()
            };
            for (d, row) in report.results.iter().enumerate() {
                for (t, cell) in row.iter().enumerate() {
                    if d == panic_doc {
                        assert!(
                            matches!(cell, Err(SpannerError::WorkerPanicked { .. })),
                            "tenant {} doc {d} at {threads} threads: {cell:?}",
                            tenants[t].0
                        );
                    } else {
                        assert_eq!(
                            cell.as_ref().unwrap(),
                            &expected[t][d],
                            "survivor doc {d} diverged for tenant {} at {threads} threads",
                            tenants[t].0
                        );
                    }
                }
            }
            for slot in &report.tenants {
                assert_eq!(slot.failed, 1, "tenant {} books exactly the panicked doc", slot.id);
                assert_eq!(slot.ok, docs.len() - 1);
            }
            // Uninstalled plan: the identical call is fault-free again — the
            // tenant routing tables survived the quarantine untouched.
            let clean = server.evaluate_batch_report(&docs).unwrap();
            assert!(clean.is_fully_ok(), "routing corrupted after a contained panic");
        }
    }

    /// A forced cache eviction mid-document (the thrash fault) must not
    /// corrupt demultiplexing: the document still succeeds and every tenant's
    /// slice of it is byte-identical. An expired hard deadline on another
    /// document fails that document alone.
    #[test]
    fn eviction_and_deadline_faults_never_corrupt_tenant_routing() {
        let _serial = serialize_faults();
        let tenants = tenant_population();
        let docs = corpus();
        let expected = sequential_baseline(&tenants, &docs);
        let evict_doc = 1usize;
        let deadline_doc = 3usize;
        for &threads in THREAD_COUNTS {
            let multi = compile_multi(&tenants);
            let server = MultiSpannerServer::with_options(multi, BatchOptions::threads(threads));
            let report = {
                let _plan = install_faults(FaultPlan {
                    force_eviction_docs: vec![evict_doc],
                    expire_deadline_docs: vec![deadline_doc],
                    ..FaultPlan::default()
                });
                server.evaluate_batch_report(&docs).unwrap()
            };
            for (d, row) in report.results.iter().enumerate() {
                for (t, cell) in row.iter().enumerate() {
                    if d == deadline_doc {
                        assert!(
                            matches!(cell, Err(SpannerError::DeadlineExceeded { soft: false, .. })),
                            "tenant {} doc {d} at {threads} threads: {cell:?}",
                            tenants[t].0
                        );
                    } else {
                        // The eviction-thrashed document included: eviction
                        // slows the pass, it never changes its output.
                        assert_eq!(
                            cell.as_ref().unwrap(),
                            &expected[t][d],
                            "doc {d} diverged for tenant {} at {threads} threads",
                            tenants[t].0
                        );
                    }
                }
            }
            for slot in &report.tenants {
                assert_eq!(slot.failed, 1, "tenant {}", slot.id);
            }
        }
    }
}
