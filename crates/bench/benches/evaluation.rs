//! Experiments E1, E2, E3, E8, E9: the core claims of Section 3.
//!
//! * **E1 — linear preprocessing.** Algorithm 1 (`EnumerationDag::build`) over
//!   documents of growing size: time per input byte should stay flat.
//! * **E2 — constant delay.** Full enumeration over the all-spans spanner:
//!   time per *output* should stay flat as the document (and hence the output)
//!   grows — the delay is independent of `|d|`.
//! * **E3 — total enumeration time.** Preprocessing + full enumeration compared
//!   against output size.
//! * **E8 — end-to-end extraction.** The Example 2.1 contact pipeline on
//!   synthetic directories (compile + evaluate + stream).
//! * **E9 — run skipping vs. match density.** The skip-scanning engine against
//!   the per-byte engine as the fraction of marker-active positions sweeps
//!   0% → 100%: big wins on sparse-match documents, graceful degradation to
//!   per-byte speed at full density.
//! * **E10 — lazy vs. eager determinization.** End-to-end (compile + evaluate)
//!   on the exponential-blowup family across automaton sizes, plus warm-cache
//!   lazy evaluation against the eagerly determinized automaton across match
//!   densities: the eager columns pay `Θ(2ⁿ)` subset construction up front,
//!   the lazy columns only ever materialize the subsets the document visits.
//! * **E12 — skip-mask scanning vs. match density.** The skip-scanning
//!   engine (`EngineMode::SkipScan`, the default) against the per-byte
//!   engine on long sparse-match documents as the density of marker-active
//!   bytes sweeps 0% → 100%, for both the eager tables and a warm lazy
//!   cache: at low density the scanner touches only the interesting bytes
//!   (one chunked LUT scan per skippable stretch), at 100% it degrades to
//!   per-byte speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spanners_automata::determinize;
use spanners_bench::{contact_doc, contact_spanner, digit_spanner, drain, DOC_SIZES};
use spanners_core::{
    CompiledSpanner, CountCache, DetSeva, Document, EngineMode, EnumerationDag, EvalLimits,
    Evaluator, LazyConfig, LazyDetSeva,
};
use spanners_workloads::{
    all_spans_eva, exp_blowup_eva, figure3_eva, random_text, sparse_match_text,
};
use std::time::Duration;

/// E1: preprocessing time as a function of |d| (bytes/second reported).
fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_preprocessing_linear_in_document");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let figure3 = CompiledSpanner::from_eva(&figure3_eva()).unwrap();
    let digits = digit_spanner();
    let contacts = contact_spanner();
    for &n in DOC_SIZES {
        group.throughput(Throughput::Bytes(n as u64));
        let ab_doc = random_text(1, n, b"ab");
        group.bench_with_input(BenchmarkId::new("figure3_automaton", n), &ab_doc, |b, doc| {
            b.iter(|| {
                EnumerationDag::build(figure3.try_automaton().expect("eager engine"), doc)
                    .view()
                    .num_nodes()
            })
        });
        let text_doc = random_text(2, n, b"abc0123456789 ");
        group.bench_with_input(BenchmarkId::new("digit_runs_regex", n), &text_doc, |b, doc| {
            b.iter(|| {
                EnumerationDag::build(digits.try_automaton().expect("eager engine"), doc)
                    .view()
                    .num_nodes()
            })
        });
        let dir = contact_doc(n);
        group.throughput(Throughput::Bytes(dir.len() as u64));
        group.bench_with_input(BenchmarkId::new("contact_directory", n), &dir, |b, doc| {
            b.iter(|| {
                EnumerationDag::build(contacts.try_automaton().expect("eager engine"), doc)
                    .view()
                    .num_nodes()
            })
        });
    }
    group.finish();
}

/// E1b: the same preprocessing through a warm reusable [`Evaluator`] — the
/// serving configuration. Also asserts the zero-allocation contract: after
/// warm-up, repeated `eval` calls must not reallocate the node/cell arenas.
fn bench_preprocessing_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1b_preprocessing_evaluator_reuse");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let digits = digit_spanner();
    let mut evaluator = Evaluator::new();
    for &n in DOC_SIZES {
        group.throughput(Throughput::Bytes(n as u64));
        let doc = random_text(2, n, b"abc0123456789 ");
        // Warm the arenas, then record the capacity the steady state must keep.
        drain(evaluator.eval(digits.try_automaton().expect("eager engine"), &doc).unwrap().iter());
        let warm = (evaluator.node_capacity(), evaluator.cell_capacity());
        group.bench_with_input(BenchmarkId::new("digit_runs_reused", n), &doc, |b, doc| {
            b.iter(|| {
                evaluator
                    .eval(digits.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .num_nodes()
            })
        });
        assert_eq!(
            (evaluator.node_capacity(), evaluator.cell_capacity()),
            warm,
            "evaluator reallocated its arenas during steady-state reuse"
        );
    }
    group.finish();
}

/// E2: per-output delay independence from |d| — enumerate the Θ(|d|²) outputs
/// of the all-spans spanner and report throughput in *outputs per second*.
fn bench_constant_delay(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_delay_per_output");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let spanner = CompiledSpanner::from_eva(&all_spans_eva()).unwrap();
    for &n in &[200usize, 400, 800] {
        let doc = Document::new(vec![b'z'; n]);
        let outputs = (n + 1) * (n + 2) / 2;
        group.throughput(Throughput::Elements(outputs as u64));
        // Pre-build the DAG so only the enumeration phase (Algorithm 2) is measured.
        let dag = spanner.evaluate(&doc);
        group.bench_with_input(BenchmarkId::new("enumerate_only", n), &dag, |b, dag| {
            b.iter(|| drain(dag.iter()))
        });
    }
    group.finish();
}

/// E3: total evaluation time (preprocessing + enumeration) against output size.
fn bench_total_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_total_time_preprocessing_plus_output");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let spanner = digit_spanner();
    for &n in &[1_000usize, 10_000, 100_000] {
        // ~1 digit in 15 characters: output grows linearly with |d| here.
        let doc = random_text(3, n, b"abcdefghijklmn5");
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("digit_runs_full", n), &doc, |b, doc| {
            b.iter(|| {
                let dag = spanner.evaluate(doc);
                drain(dag.iter())
            })
        });
    }
    group.finish();
}

/// E8: the Example 2.1 contact-extraction pipeline end to end.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_end_to_end_contact_extraction");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let spanner = contact_spanner();
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let doc = contact_doc(n);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("evaluate_and_stream", n), &doc, |b, doc| {
            b.iter(|| {
                let dag = spanner.evaluate(doc);
                drain(dag.iter())
            })
        });
        group.bench_with_input(BenchmarkId::new("count_only", n), &doc, |b, doc| {
            b.iter(|| spanner.count_u64(doc).unwrap())
        });
    }
    group.finish();
}

/// E9: run-skipping throughput as a function of match density. Documents of a
/// fixed size sweep the fraction of marker-active (digit) positions from 0%
/// to 100%; the skip-scanning engine is benchmarked against the per-byte
/// engine on identical documents. At 0% almost every position is skippable;
/// at 100% none is, and the skipping loop must degrade gracefully to
/// per-byte speed (its only extra cost is the skip-mask probe).
fn bench_run_skipping_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_run_skipping_vs_match_density");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let digits = digit_spanner();
    let n = 100_000usize;
    // Alphabets with 0/4, 1/4, 2/4, 3/4, 4/4 digit characters: the expected
    // fraction of marker-active positions in the random text.
    let sweeps: &[(&str, &[u8])] = &[
        ("density_000", b"abcd"),
        ("density_025", b"0abc"),
        ("density_050", b"01ab"),
        ("density_075", b"012a"),
        ("density_100", b"0123"),
    ];
    let mut skipping = Evaluator::with_mode(EngineMode::SkipScan);
    let mut per_byte = Evaluator::with_mode(EngineMode::PerByte);
    for &(label, alphabet) in sweeps {
        let doc = random_text(9, n, alphabet);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("skip_scan", label), &doc, |b, doc| {
            b.iter(|| {
                skipping
                    .eval(digits.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .num_nodes()
            })
        });
        group.bench_with_input(BenchmarkId::new("per_byte", label), &doc, |b, doc| {
            b.iter(|| {
                per_byte
                    .eval(digits.try_automaton().expect("eager engine"), doc)
                    .unwrap()
                    .num_nodes()
            })
        });
    }
    group.finish();
}

/// E10a: end-to-end cost — compile (eager subset construction vs. lazy
/// preparation) plus one evaluation — on the `.*a.{n}`-style exponential
/// family as the window width `n` grows. The eager column is only run for
/// sizes whose `2ⁿ` subset construction stays tractable; larger sizes would
/// trip the determinization budget, which is precisely the gap the lazy
/// engine closes.
fn bench_lazy_vs_eager_compile_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_lazy_vs_eager_determinization");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let doc = random_text(77, 20_000, b"abcdefgh");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    for &n in &[4usize, 8, 12, 16] {
        let eva = exp_blowup_eva(n);
        if n <= 12 {
            group.bench_with_input(BenchmarkId::new("eager_compile_plus_eval", n), &doc, |b, d| {
                b.iter(|| {
                    let det = determinize(&eva, 1 << 20).expect("within budget at this size");
                    let aut = DetSeva::compile_trusted(&det).expect("determinized input");
                    Evaluator::new().eval(&aut, d).unwrap().num_nodes()
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("lazy_compile_plus_eval", n), &doc, |b, d| {
            b.iter(|| {
                let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).expect("sequential");
                Evaluator::new().eval(&lazy, d).unwrap().num_nodes()
            })
        });
    }
    group.finish();
}

/// E10b: steady-state evaluation (warm evaluator, warm lazy cache) against
/// the eagerly determinized automaton, as the density of subset-churning
/// bytes (`a`) sweeps up. Also covers warm lazy counting.
fn bench_lazy_warm_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10b_lazy_warm_vs_eager_density");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let n = 12usize;
    let eva = exp_blowup_eva(n);
    let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).expect("sequential");
    let det = determinize(&eva, 1 << 20).expect("2^12 subsets fit the budget");
    let eager = DetSeva::compile_trusted(&det).expect("determinized input");
    let size = 100_000usize;
    let sweeps: &[(&str, &[u8])] =
        &[("density_006", b"abcdefghijklmnop"), ("density_025", b"abcd"), ("density_050", b"ab")];
    let mut lazy_eval = Evaluator::new();
    let mut eager_eval = Evaluator::new();
    let mut lazy_counts = CountCache::<u64>::new();
    for &(label, alphabet) in sweeps {
        let doc = random_text(13, size, alphabet);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("lazy_warm_eval", label), &doc, |b, d| {
            b.iter(|| lazy_eval.eval(&lazy, d).unwrap().num_nodes())
        });
        group.bench_with_input(BenchmarkId::new("eager_eval", label), &doc, |b, d| {
            b.iter(|| eager_eval.eval(&eager, d).unwrap().num_nodes())
        });
        group.bench_with_input(BenchmarkId::new("lazy_warm_count", label), &doc, |b, d| {
            b.iter(|| lazy_counts.count(&lazy, d).unwrap())
        });
    }
    // Cache-waste diagnostics (the eviction-tuning metric from the ROADMAP):
    // states interned more than once over the run, plus the buffer-capacity
    // signature the allocation-retention assertions pin.
    if let Some(cache) = lazy_eval.lazy_cache() {
        println!(
            "e10b lazy cache: {} live states, {} interned, {} wasted to eviction, \
             {} clears, capacities [{}]",
            cache.num_states(),
            cache.states_interned(),
            cache.wasted_states(),
            cache.clear_count(),
            cache.capacity_signature()
        );
    }
    group.finish();
}

/// E12: skip-mask scanning vs. the per-byte engine, on long
/// (512 kB) sparse-match documents whose digit density sweeps 0% → 100%.
/// Both automaton flavours are measured: the eager dense tables (exact
/// compile-time masks) and a warm lazy cache (masks memoized on first use).
/// The interesting regime is ≤ 1% density, where the scanner jumps between
/// interesting bytes with a chunked LUT loop; at 100% density both engines
/// execute every position.
fn bench_skip_scan_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_skip_scan_vs_density");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let digits = digit_spanner();
    let eager = digits.try_automaton().expect("eager engine");
    // The same workload through the undeterminized pipeline for the lazy rows.
    let ast = spanners_regex::parse(spanners_workloads::digit_runs_pattern()).expect("parses");
    let va = spanners_regex::regex_to_va(&ast).expect("builds");
    let eva = spanners_automata::va_to_eva(&va).expect("translates");
    let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).expect("sequential");
    let n = 512 * 1024usize;
    let sweeps: &[(&str, usize)] = &[
        ("density_0000", 0),
        ("density_0001", 10),  // 0.1%
        ("density_0010", 100), // 1%
        ("density_0100", 1_000),
        ("density_1000", 10_000),
    ];
    let mut scan = Evaluator::with_mode(EngineMode::SkipScan);
    let mut bytes = Evaluator::with_mode(EngineMode::PerByte);
    let mut lazy_scan = Evaluator::with_mode(EngineMode::SkipScan);
    for &(label, per_10k) in sweeps {
        let doc = sparse_match_text(12, n, per_10k);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("skip_scan", label), &doc, |b, d| {
            b.iter(|| scan.eval(eager, d).unwrap().num_nodes())
        });
        group.bench_with_input(BenchmarkId::new("per_byte", label), &doc, |b, d| {
            b.iter(|| bytes.eval(eager, d).unwrap().num_nodes())
        });
        // Warm-lazy rows: the first iteration of each bench warms the
        // embedded cache; steady state is what the sampling measures.
        group.bench_with_input(BenchmarkId::new("lazy_warm_skip_scan", label), &doc, |b, d| {
            b.iter(|| lazy_scan.eval(&lazy, d).unwrap().num_nodes())
        });
    }
    group.finish();
}

/// E13: overhead of the per-document limit checker on the skip-scan floor.
///
/// The amortized `LimitChecker` (fused step/clock checks on executed
/// positions, a single clock probe per skip-jump landing) must not tax the
/// sparse regime the scanner exists for: with generous limits armed, the
/// 0%-density throughput should stay within ~5% of the limits-off floor,
/// and the 1%-density mixed regime within noise of it.
fn bench_limits_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_limits_overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let digits = digit_spanner();
    let eager = digits.try_automaton().expect("eager engine");
    let n = 512 * 1024usize;
    // Generous enough that nothing ever trips — the bench measures pure
    // bookkeeping, not degradation.
    let fuel = EvalLimits::none().with_max_steps(u64::MAX / 2);
    let full = EvalLimits::none()
        .with_max_steps(u64::MAX / 2)
        .with_deadline(Duration::from_secs(600))
        .with_soft_deadline(Duration::from_secs(300))
        .with_max_cache_clears(u64::MAX / 2);
    let mut ev = Evaluator::with_mode(EngineMode::SkipScan);
    for &(label, per_10k) in &[("density_0000", 0usize), ("density_0010", 100)] {
        let doc = sparse_match_text(13, n, per_10k);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("limits_off", label), &doc, |b, d| {
            ev.set_limits(EvalLimits::none());
            b.iter(|| ev.eval(eager, d).unwrap().num_nodes())
        });
        group.bench_with_input(BenchmarkId::new("step_budget_on", label), &doc, |b, d| {
            ev.set_limits(fuel);
            b.iter(|| ev.eval(eager, d).unwrap().num_nodes())
        });
        group.bench_with_input(BenchmarkId::new("all_limits_on", label), &doc, |b, d| {
            ev.set_limits(full);
            b.iter(|| ev.eval(eager, d).unwrap().num_nodes())
        });
    }
    ev.set_limits(EvalLimits::none());
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocessing,
    bench_preprocessing_reuse,
    bench_constant_delay,
    bench_total_enumeration,
    bench_end_to_end,
    bench_run_skipping_density,
    bench_lazy_vs_eager_compile_eval,
    bench_lazy_warm_density,
    bench_skip_scan_density,
    bench_limits_overhead
);
criterion_main!(benches);
