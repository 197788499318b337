//! Differential suite for the SLP (grammar-compressed) evaluation subsystem.
//!
//! Every assertion here is the same contract: `count`/`is_match` over a
//! compressed document are **byte-identical** to running the byte engines
//! over [`Slp::decompress`]'s output — across eager and lazy/frozen engines,
//! across sequential and 1/2/8-thread batch runs, with the memo budget
//! comfortable or thrashing. Cases are seeded random grammars plus the
//! workload families compressed with the Re-Pair-style [`SlpBuilder`], so
//! every failure is reproducible from its printed seed.

use std::sync::Arc;

use spanners::automata::{determinize, sequentialize, va_to_eva, CompileOptions};
use spanners::regex::{parse, regex_to_va};
use spanners::runtime::{BatchOptions, BatchSpanner};
use spanners::workloads as w;
use spanners::workloads::rng::StdRng;
use spanners::{CompiledSpanner, EnginePolicy, Eva, Slp, SlpEvaluator, SlpRules, SpannerError};

/// Worker counts the batch scenarios run at: sequential fallback, modest
/// fan-out, heavy oversubscription.
const THREAD_COUNTS: &[usize] = &[1, 2, 8];

fn pattern_eva(pattern: &str) -> Eva {
    let va = regex_to_va(&parse(pattern).unwrap()).unwrap();
    let va = sequentialize(&va, CompileOptions::default()).unwrap();
    va_to_eva(&va).unwrap()
}

/// Compiles the same eVA as an eager and a lazy spanner, so every scenario
/// exercises both engine backends (the eager path determinizes up front —
/// some workload families are nondeterministic as built).
fn both_engines(eva: &Eva) -> [CompiledSpanner; 2] {
    let det = determinize(eva, 1 << 20).unwrap();
    [
        CompiledSpanner::from_eva_with(&det, EnginePolicy::Eager).unwrap(),
        CompiledSpanner::from_eva_with(eva, EnginePolicy::Lazy).unwrap(),
    ]
}

/// A random acyclic grammar over `alphabet`: each rule references terminals
/// or strictly earlier rules, the sequence mixes both. Skewed toward
/// nonterminals so expansions nest several levels deep.
fn random_slp(rng: &mut StdRng, alphabet: &[u8], max_rules: usize, max_seq: usize) -> Slp {
    let num_rules = rng.gen_range(0..max_rules);
    let mut rules: Vec<(u32, u32)> = Vec::with_capacity(num_rules);
    for k in 0..num_rules {
        let pick = |rng: &mut StdRng| {
            if k > 0 && rng.gen_range(0..2) == 1 {
                256 + rng.gen_range(0..k) as u32
            } else {
                alphabet[rng.gen_range(0..alphabet.len())] as u32
            }
        };
        let pair = (pick(rng), pick(rng));
        rules.push(pair);
    }
    let seq_len = rng.gen_range(0..max_seq);
    let sequence: Vec<u32> = (0..seq_len)
        .map(|_| {
            if num_rules > 0 && rng.gen_range(0..3) > 0 {
                256 + rng.gen_range(0..num_rules) as u32
            } else {
                alphabet[rng.gen_range(0..alphabet.len())] as u32
            }
        })
        .collect();
    Slp::new(Arc::new(SlpRules::new(rules).unwrap()), sequence).unwrap()
}

/// Asserts the full eager/lazy/frozen matrix for one (spanner set, slp)
/// pair against the decompressed document.
fn assert_slp_matches_decompressed(engines: &[CompiledSpanner], slp: &Slp, context: &str) {
    let doc = slp.decompress();
    let expected: u64 = engines[0].count(&doc).unwrap();
    let expected_match = expected > 0;
    for (e, spanner) in engines.iter().enumerate() {
        assert_eq!(
            spanner.count::<u64>(&doc).unwrap(),
            expected,
            "{context}: engine {e} byte count"
        );
        let mut ev = SlpEvaluator::new();
        assert_eq!(
            spanner.count_slp_with(&mut ev, slp).unwrap(),
            expected,
            "{context}: engine {e}"
        );
        assert_eq!(
            spanner.is_match_slp_with(&mut ev, slp).unwrap(),
            expected_match,
            "{context}: engine {e} is_match"
        );
        // The frozen path (lazy spanners only): a snapshot warmed on this
        // very document must agree, sharing its memo rows read-only.
        if let Some(frozen) = spanner.freeze_warm_slp(std::slice::from_ref(slp)) {
            let mut fev = SlpEvaluator::new();
            assert_eq!(
                spanner.count_slp_frozen_with(&mut fev, &frozen, slp).unwrap(),
                expected,
                "{context}: engine {e} frozen"
            );
            assert_eq!(
                spanner.is_match_slp_frozen_with(&mut fev, &frozen, slp).unwrap(),
                expected_match,
                "{context}: engine {e} frozen is_match"
            );
        }
    }
}

/// The fixed pattern zoo the random grammars run against (captures,
/// alternation, nesting, classes — kept small enough that the eager
/// determinization stays cheap).
const PATTERNS: &[&str] =
    &[".*!x{a+}.*", ".*!x{[ab]+}.*!y{b+}.*", "!x{.*}", ".*!x{a!y{b*}a}.*", "(!x{a}|b)*"];

#[test]
fn random_grammars_match_decompressed_evaluation() {
    let engines: Vec<(String, [CompiledSpanner; 2])> =
        PATTERNS.iter().map(|p| (p.to_string(), both_engines(&pattern_eva(p)))).collect();
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x51f0 + seed);
        let slp = random_slp(&mut rng, b"ab01", 12, 12);
        if slp.len() > 20_000 {
            continue; // nested doublings occasionally explode; keep the suite fast
        }
        for (pattern, engines) in &engines {
            assert_slp_matches_decompressed(engines, &slp, &format!("seed {seed} {pattern}"));
        }
    }
}

#[test]
fn degenerate_grammars_match_decompressed_evaluation() {
    let engines = both_engines(&pattern_eva(".*!x{a+}.*"));
    // Empty document, single byte, and a deeply right-nested doubling chain
    // (every rule used exactly once — worst case for memoization, best case
    // for correctness bugs).
    for (name, slp) in [
        ("empty", Slp::literal(b"")),
        ("one byte", Slp::literal(b"a")),
        ("literal", Slp::literal(b"baaab")),
    ] {
        assert_slp_matches_decompressed(&engines, &slp, name);
    }
    let mut rules = vec![(b'a' as u32, b'a' as u32)];
    for k in 0..10 {
        rules.push((256 + k, 256 + k));
    }
    let doubling =
        Slp::new(Arc::new(SlpRules::new(rules).unwrap()), vec![b'b' as u32, 266, b'a' as u32])
            .unwrap();
    assert_eq!(doubling.len(), 2 + (1u64 << 11));
    assert_slp_matches_decompressed(&engines, &doubling, "doubling chain");
}

#[test]
fn workload_families_compress_and_match() {
    let docs = w::repetitive_log_corpus(0x517, 6, 400);
    let slps = w::SlpBuilder::new().build_corpus(&docs).unwrap();
    assert!(w::corpus_compression_ratio(&slps) > 4.0, "log corpus must actually compress");
    let keywords = ["GET", "health", "api"];
    let families: Vec<(String, Eva)> = vec![
        ("all_spans".into(), w::all_spans_eva()),
        ("figure3".into(), w::figure3_eva()),
        ("digit_runs".into(), pattern_eva(w::digit_runs_pattern())),
        ("keyword_token".into(), pattern_eva(&w::keyword_token_pattern(&keywords))),
        ("nested_captures".into(), pattern_eva(&w::nested_captures_pattern(2))),
        ("ipv4".into(), pattern_eva(w::ipv4_pattern())),
    ];
    for (name, eva) in &families {
        let engines = both_engines(eva);
        for (i, (slp, doc)) in slps.iter().zip(&docs).enumerate() {
            assert_eq!(slp.decompress().bytes(), doc.bytes(), "doc {i} roundtrip");
            assert_slp_matches_decompressed(&engines, slp, &format!("{name} doc {i}"));
        }
    }
}

#[test]
fn batch_counts_are_identical_at_every_thread_count() {
    let docs = w::repetitive_log_corpus(0xBA7C, 24, 200);
    let slps = w::SlpBuilder::new().build_corpus(&docs).unwrap();
    for eva in [pattern_eva(w::digit_runs_pattern()), w::all_spans_eva()] {
        for spanner in both_engines(&eva) {
            let expected: Vec<u64> = docs.iter().map(|d| spanner.count(d).unwrap()).collect();
            for &threads in THREAD_COUNTS {
                let got = spanner.count_slp_batch(&slps, &BatchOptions::threads(threads)).unwrap();
                assert_eq!(got, expected, "at {threads} threads");
                let report =
                    spanner.count_slp_batch_report(&slps, &BatchOptions::threads(threads)).unwrap();
                assert!(report.is_fully_ok());
                let counts: Vec<u64> =
                    report.into_results().into_iter().map(Result::unwrap).collect();
                assert_eq!(counts, expected, "report at {threads} threads");
            }
        }
    }
}

/// One warm evaluator serving two separately compressed corpora,
/// interleaved. Both rule sets number their rules from symbol 256 with
/// different expansions, so a memo row is only reusable under the rule set
/// it was built for — across eager, lazy and frozen engines (the frozen
/// snapshot is warmed on one document of each corpus, so its shared memo
/// holds both rule sets too) and the pooled batch path.
#[test]
fn one_evaluator_serves_interleaved_rule_sets() {
    let corpus_a = w::repetitive_log_corpus(0x2A, 4, 200);
    let corpus_b = w::log_corpus(0x2B, 4, 150);
    let slps_a = w::SlpBuilder::new().build_corpus(&corpus_a).unwrap();
    let slps_b = w::SlpBuilder::new().build_corpus(&corpus_b).unwrap();
    let expand = |slp: &Slp, sym| Slp::new(slp.rules().clone(), vec![sym]).unwrap().decompress();
    let common = slps_a[0].rules().num_rules().min(slps_b[0].rules().num_rules()) as u32;
    let differing =
        (256..256 + common).filter(|&sym| expand(&slps_a[0], sym) != expand(&slps_b[0], sym));
    assert!(differing.count() > common as usize / 2, "symbol numbers must mostly differ");
    let mixed: Vec<Slp> =
        slps_a.iter().zip(&slps_b).flat_map(|(a, b)| [a.clone(), b.clone()]).collect();
    for eva in [pattern_eva(w::digit_runs_pattern()), w::all_spans_eva()] {
        for (e, spanner) in both_engines(&eva).iter().enumerate() {
            let expected: Vec<u64> =
                mixed.iter().map(|slp| spanner.count(&slp.decompress()).unwrap()).collect();
            let frozen = spanner.freeze_warm_slp(&mixed[..2]);
            let (mut ev, mut fev) = (SlpEvaluator::new(), SlpEvaluator::new());
            // The second pass runs against memos warm for both rule sets.
            for pass in 0..2 {
                for (i, (slp, &want)) in mixed.iter().zip(&expected).enumerate() {
                    let context = format!("engine {e} pass {pass} doc {i}");
                    assert_eq!(spanner.count_slp_with(&mut ev, slp).unwrap(), want, "{context}");
                    let matched = spanner.is_match_slp_with(&mut ev, slp).unwrap();
                    assert_eq!(matched, want > 0, "{context} is_match");
                    if let Some(frozen) = &frozen {
                        let got = spanner.count_slp_frozen_with(&mut fev, frozen, slp).unwrap();
                        assert_eq!(got, want, "{context} frozen");
                        let got = spanner.is_match_slp_frozen_with(&mut fev, frozen, slp).unwrap();
                        assert_eq!(got, want > 0, "{context} frozen is_match");
                    }
                }
            }
            let report = spanner.count_slp_batch_report(&mixed, &BatchOptions::threads(2)).unwrap();
            assert!(report.is_fully_ok());
            let counts: Vec<u64> = report.into_results().into_iter().map(Result::unwrap).collect();
            assert_eq!(counts, expected, "engine {e} batch at 2 threads");
        }
    }
}

#[test]
fn memo_eviction_thrash_is_slow_but_correct() {
    let docs = w::repetitive_log_corpus(0x7123, 4, 300);
    let slps = w::SlpBuilder::new().build_corpus(&docs).unwrap();
    for eva in [pattern_eva(w::digit_runs_pattern())] {
        for spanner in both_engines(&eva) {
            let expected: Vec<u64> = docs.iter().map(|d| spanner.count(d).unwrap()).collect();
            // A one-byte memo budget cannot hold a single row: every
            // insertion clears the table and the evaluator recomputes rows
            // on demand — pure recomputation, identical results.
            let mut ev = SlpEvaluator::new();
            ev.set_memo_budget(1);
            for (slp, &want) in slps.iter().zip(&expected) {
                assert_eq!(spanner.count_slp_with(&mut ev, slp).unwrap(), want);
                assert!(spanner.is_match_slp_with(&mut ev, slp).unwrap() == (want > 0));
            }
            assert!(
                ev.memo_clears() > 0,
                "a 1-byte budget must thrash (clears {})",
                ev.memo_clears()
            );
            // Every insert clears the over-budget table first, so at any
            // moment each of the two tables holds at most the row just
            // inserted.
            assert!(ev.memo_rows() <= 2, "1-byte budget held {} rows", ev.memo_rows());
            // The clear-counting limit turns persistent thrash into the
            // recoverable BudgetExceeded error the degradation ladder keys on.
            let mut limited = SlpEvaluator::new();
            limited.set_memo_budget(1);
            limited.set_limits(spanners::EvalLimits::none().with_max_cache_clears(0));
            let err = spanner.count_slp_with(&mut limited, &slps[0]).unwrap_err();
            assert!(
                matches!(err, SpannerError::BudgetExceeded { .. }),
                "thrash under a clear limit must surface as BudgetExceeded, got {err:?}"
            );
        }
    }
}

/// Both lazy-cache eviction policies under SLP shared-memo overflow: a
/// one-byte memo budget makes every row insertion overflow, and a tight
/// lazy budget keeps the determinization cache evicting per its policy —
/// [`spanners::EvictionPolicy::Segmented`]'s partial (second-chance)
/// eviction must stay byte-identical to clear-and-restart's full one, and
/// the `max_cache_clears` accounting must surface identically typed
/// recoverable errors under either policy.
#[test]
fn eviction_policies_agree_under_shared_memo_overflow() {
    use spanners::{EvalLimits, EvictionPolicy, LazyConfig};

    let docs = w::repetitive_log_corpus(0x5E9, 6, 300);
    let slps = w::SlpBuilder::new().build_corpus(&docs).unwrap();
    let eva = pattern_eva(w::digit_runs_pattern());
    // Ground truth: decompressed evaluation on a roomy default engine.
    let roomy = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
    let expected: Vec<u64> = docs.iter().map(|d| roomy.count(d).unwrap()).collect();
    for policy in [EvictionPolicy::ClearRestart, EvictionPolicy::Segmented] {
        let config = LazyConfig::with_budget(600).with_eviction(policy);
        let spanner = CompiledSpanner::from_eva_lazy(&eva, config).unwrap();
        let mut ev = SlpEvaluator::new();
        ev.set_memo_budget(1);
        for (i, (slp, &want)) in slps.iter().zip(&expected).enumerate() {
            assert_eq!(
                spanner.count_slp_with(&mut ev, slp).unwrap(),
                want,
                "doc {i} diverged under {policy:?} with a thrashing memo"
            );
            assert_eq!(
                spanner.is_match_slp_with(&mut ev, slp).unwrap(),
                want > 0,
                "doc {i} match flag diverged under {policy:?}"
            );
        }
        assert!(
            ev.memo_clears() > 0,
            "{policy:?}: a 1-byte memo budget must overflow and clear (clears {})",
            ev.memo_clears()
        );
        // The clear-counting limit keys the degradation ladder identically
        // under both policies: persistent memo thrash surfaces as the same
        // recoverable BudgetExceeded, not a policy-dependent error.
        let mut limited = SlpEvaluator::new();
        limited.set_memo_budget(1);
        limited.set_limits(EvalLimits::none().with_max_cache_clears(0));
        let err = spanner.count_slp_with(&mut limited, &slps[0]).unwrap_err();
        assert!(
            matches!(err, SpannerError::BudgetExceeded { .. }),
            "{policy:?}: clear-limited thrash must type as BudgetExceeded, got {err:?}"
        );
        // The failed run still booked its clears before erroring out.
        assert!(limited.memo_clears() > 0, "{policy:?}: accounting survives the typed error");
    }
}

/// The deterministic fault harness applies unchanged to compressed batches:
/// a panic is contained to its document, forced eviction degrades through
/// the retry ladder, and survivors stay byte-identical at every thread
/// count.
#[cfg(feature = "fault-injection")]
#[test]
fn injected_faults_are_contained_in_slp_batches() {
    use spanners::runtime::{install_faults, FaultPlan};
    use spanners::{DegradePolicy, EvalLimits};

    let docs = w::repetitive_log_corpus(0xFA01, 12, 150);
    let slps = w::SlpBuilder::new().build_corpus(&docs).unwrap();
    let spanner =
        CompiledSpanner::from_eva_with(&pattern_eva(w::digit_runs_pattern()), EnginePolicy::Lazy)
            .unwrap();
    let expected: Vec<u64> = docs.iter().map(|d| spanner.count(d).unwrap()).collect();
    let panic_docs = vec![1usize, 7];
    let eviction_docs = vec![3usize, 10];
    for &threads in THREAD_COUNTS {
        let _plan = install_faults(FaultPlan {
            panic_on_docs: panic_docs.clone(),
            fail_checkouts: vec![0],
            force_eviction_docs: eviction_docs.clone(),
            ..FaultPlan::default()
        });
        let opts = BatchOptions::threads(threads)
            .with_limits(EvalLimits::none().with_max_cache_clears(0))
            .with_degrade(DegradePolicy { max_attempts: 3, budget_boost: 1024 });
        let report = spanner.count_slp_batch_report(&slps, &opts).unwrap();
        assert_eq!(report.results.len(), slps.len());
        for (i, result) in report.results.iter().enumerate() {
            if panic_docs.contains(&i) {
                assert!(
                    matches!(result, Err(SpannerError::WorkerPanicked { doc_index, .. }) if *doc_index == i),
                    "doc {i} at {threads} threads: {result:?}"
                );
            } else {
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&expected[i]),
                    "surviving doc {i} diverged at {threads} threads"
                );
            }
        }
        assert_eq!(report.failed, panic_docs.len());
        assert_eq!(report.ok, slps.len() - panic_docs.len());
        assert_eq!(report.quarantined, panic_docs.len());
        // A forced-eviction doc whose rows the shared frozen memo already
        // covers never inserts locally — immune to the zero budget by
        // design — so degradation is bounded by, not equal to, the fault
        // count; what matters is that every such doc still came back ok.
        assert!(
            report.degraded <= eviction_docs.len(),
            "only faulted docs may degrade at {threads} threads ({} degraded)",
            report.degraded
        );
    }
}
