//! Differential suite for the **skip-mask scanning engine**
//! ([`EngineMode::SkipScan`], the default since it landed).
//!
//! The scanning loop must be output-identical to the per-byte reference
//! engine: same mappings, same counts, same path counts — across match
//! densities from 0% to 100%, documents aligned (and misaligned) with the
//! scanner's 16-byte chunks, empty documents, lazily determinized automata
//! (cold, warm, and under mid-document eviction that wipes the memoized skip
//! masks with their states), frozen snapshots, and parallel batch runs at
//! 1/2/8 threads.
//!
//! Enumeration-order contract, pinned below: eager automata and warm lazy
//! caches have a fixed state space, so there both modes agree on order
//! exactly. The one caveat is the per-byte engine on *cold or thrashing*
//! lazy caches: it never consults skip metadata, so it discovers subset
//! states in a different order, which permutes state ids and with them the
//! (id-sorted) root order — a property of `EngineMode::PerByte`, compared as
//! sorted sets here exactly as `tests/lazy_det.rs` does.
//!
//! Test names that mention class runs keep the names of the run-length
//! engine these rows were first pinned against.

use spanners::automata::va_to_eva;
use spanners::core::{
    dedup_mappings, ByteClass, CountCache, Document, EngineMode, Eva, EvaBuilder, Evaluator,
    InterestMask, LazyConfig, LazyDetSeva, Mapping, MarkerSet, Target, VarRegistry,
};
use spanners::regex::{compile, parse, regex_to_va};
use spanners::runtime::{BatchOptions, BatchSpanner, SpannerServer};
use spanners::workloads as w;
use spanners::CompiledSpanner;

/// Enumeration is only materialized below this many outputs (the path-count
/// equality pins the DAG for the dense documents whose output is quadratic).
const ENUM_CAP: u128 = 200_000;

fn sorted(mut ms: Vec<Mapping>) -> Vec<Mapping> {
    dedup_mappings(&mut ms);
    ms
}

/// The density sweep: 0%, 0.1%, 1%, 10%, 50% and 100% of positions carry a
/// digit (the marker-active byte of the digit-runs spanner).
fn density_sweep_docs() -> Vec<Document> {
    let mut docs = Vec::new();
    for (seed, per_10k) in [(1u64, 0usize), (2, 10), (3, 100), (4, 1_000), (5, 5_000), (6, 10_000)]
    {
        docs.push(w::sparse_match_text(seed, 3_000, per_10k));
    }
    docs
}

/// Documents that stress the scanner's 16-byte chunking: a single
/// interesting byte planted at every offset around the chunk boundaries, in
/// documents whose lengths straddle one and two chunks.
fn chunk_boundary_docs() -> Vec<Document> {
    let mut docs =
        vec![Document::empty(), Document::from("7"), Document::from("a"), Document::from("a7")];
    for len in [15usize, 16, 17, 31, 32, 33, 48] {
        for pos in [0usize, 1, 14, 15, 16, 17, 30, 31, 32] {
            if pos >= len {
                continue;
            }
            let mut bytes = vec![b'q'; len];
            bytes[pos] = b'7';
            docs.push(Document::new(bytes));
        }
        // All-skippable and all-interesting variants of the same lengths.
        docs.push(Document::new(vec![b'q'; len]));
        docs.push(Document::new(vec![b'7'; len]));
    }
    docs
}

/// Evaluates `doc` under both engine modes and asserts exact
/// (order-included) equality of mappings and path counts, plus Algorithm 3
/// agreement — the eager-automaton matrix, where ids are fixed and order
/// must be bitwise identical everywhere.
fn assert_eager_modes_identical(spanner: &CompiledSpanner, doc: &Document, ctx: &str) {
    let aut = spanner.try_automaton().expect("eager engine");
    let mut scan = Evaluator::with_mode(EngineMode::SkipScan);
    let mut bytes = Evaluator::with_mode(EngineMode::PerByte);
    let paths = scan.eval(aut, doc).unwrap().count_paths().unwrap();
    assert_eq!(
        bytes.eval(aut, doc).unwrap().count_paths().unwrap(),
        paths,
        "paths vs per-byte, {ctx}"
    );
    if paths < ENUM_CAP {
        let scanned = scan.eval(aut, doc).unwrap().collect_mappings();
        assert_eq!(
            scanned,
            bytes.eval(aut, doc).unwrap().collect_mappings(),
            "mappings/order vs per-byte, {ctx}"
        );
    }
    let n_scan: u128 =
        CountCache::with_mode(EngineMode::SkipScan).count(aut, doc).expect("count fits u128");
    let n_bytes: u128 =
        CountCache::with_mode(EngineMode::PerByte).count(aut, doc).expect("count fits u128");
    assert_eq!(n_scan, n_bytes, "counts vs per-byte, {ctx}");
    assert_eq!(n_scan, paths, "count vs path count, {ctx}");
}

/// The digit-runs workload as an undeterminized eVA for the lazy engine
/// (same construction as `tests/fast_path.rs`).
fn digit_runs_lazy(budget: Option<usize>) -> LazyDetSeva {
    let ast = parse(w::digit_runs_pattern()).unwrap();
    let va = regex_to_va(&ast).unwrap();
    let eva = va_to_eva(&va).unwrap();
    let config = budget.map(LazyConfig::with_budget).unwrap_or_default();
    LazyDetSeva::new(&eva, config).unwrap()
}

#[test]
fn skip_scan_is_the_default_engine_mode() {
    assert_eq!(Evaluator::new().mode(), EngineMode::SkipScan);
    assert_eq!(CountCache::<u64>::new().mode(), EngineMode::SkipScan);
    assert_eq!(EngineMode::default(), EngineMode::SkipScan);
}

/// The eager matrix over the density sweep: 0% → 100% digit density on 3 kB
/// documents, both modes bitwise identical (order included).
#[test]
fn density_sweep_is_identical_across_modes() {
    let digits = compile(w::digit_runs_pattern()).unwrap();
    for (i, doc) in density_sweep_docs().iter().enumerate() {
        assert_eager_modes_identical(&digits, doc, &format!("density sweep doc {i}"));
    }
}

/// The eager matrix over the chunk-boundary documents, plus the remaining
/// workload families (contact directories, IPv4 logs, nested captures).
#[test]
fn chunk_boundaries_and_families_are_identical_across_modes() {
    let digits = compile(w::digit_runs_pattern()).unwrap();
    for (i, doc) in chunk_boundary_docs().iter().enumerate() {
        assert_eager_modes_identical(&digits, doc, &format!("chunk-boundary doc {i}"));
    }
    let cases: Vec<(String, Vec<Document>)> = vec![
        (
            w::contact_pattern().to_string(),
            vec![w::figure1_document(), w::contact_directory(0xFEED, 25).0, Document::empty()],
        ),
        (w::ipv4_pattern().to_string(), vec![w::log_lines(5, 3)]),
        (w::nested_captures_pattern(2), vec![w::random_text(2, 40, b"ab"), Document::empty()]),
    ];
    for (pattern, docs) in cases {
        let spanner = compile(&pattern).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            assert_eager_modes_identical(&spanner, doc, &format!("{pattern}, doc {i}"));
        }
    }
}

/// Lazy engines, cold and warm: SkipScan must equal PerByte as a sorted set
/// when cold and exactly (enumeration order included) once warm.
#[test]
fn lazy_skip_scan_matches_class_runs_exactly() {
    let lazy = digit_runs_lazy(None);
    let docs = {
        let mut d = density_sweep_docs();
        d.extend(chunk_boundary_docs());
        d
    };
    // Cold: fresh evaluators per document, so every skip mask is learned
    // mid-document.
    for doc in &docs {
        let cold_scan = Evaluator::with_mode(EngineMode::SkipScan).eval_owned(&lazy, doc).unwrap();
        let cold_bytes = Evaluator::with_mode(EngineMode::PerByte).eval_owned(&lazy, doc).unwrap();
        let paths = cold_scan.count_paths().unwrap();
        assert_eq!(
            cold_bytes.count_paths().unwrap(),
            paths,
            "cold per-byte paths, |d| = {}",
            doc.len()
        );
        if paths < ENUM_CAP {
            assert_eq!(
                sorted(cold_scan.collect_mappings()),
                sorted(cold_bytes.collect_mappings()),
                "cold per-byte set equality, |d| = {}",
                doc.len()
            );
        }
    }
    // Warm: one shared cache per mode (embedded in the evaluator); once the
    // metadata exists, both modes step the same fixed id space, so even
    // per-byte order matches exactly.
    let mut warm_scan = Evaluator::with_mode(EngineMode::SkipScan);
    let mut warm_bytes = Evaluator::with_mode(EngineMode::PerByte);
    for doc in &docs {
        // First pass warms each embedded cache.
        let _ = warm_scan.eval(&lazy, doc).unwrap().num_nodes();
        let _ = warm_bytes.eval(&lazy, doc).unwrap().num_nodes();
    }
    for doc in &docs {
        let paths = warm_scan.eval(&lazy, doc).unwrap().count_paths().unwrap();
        if paths < ENUM_CAP {
            let scanned = warm_scan.eval(&lazy, doc).unwrap().collect_mappings();
            assert_eq!(
                scanned,
                warm_bytes.eval(&lazy, doc).unwrap().collect_mappings(),
                "warm SkipScan vs PerByte order, |d| = {}",
                doc.len()
            );
        }
    }
    // Warm reruns are deterministic byte for byte (arena sizes included).
    for doc in &docs {
        let (nodes, cells) = {
            let v = warm_scan.eval(&lazy, doc).unwrap();
            (v.num_nodes(), v.num_cells())
        };
        let v = warm_scan.eval(&lazy, doc).unwrap();
        assert_eq!((v.num_nodes(), v.num_cells()), (nodes, cells), "warm rerun drifted");
    }
}

/// Mid-document eviction wipes the memoized skip masks with their states:
/// a budget far below the working set forces repeated clear-and-restart
/// while the scanner is mid-skip, and outputs must not change. (Eviction
/// rewrites subset ids, so enumeration order is compared as sorted sets —
/// see the module docs.)
#[test]
fn skip_scan_survives_mid_document_eviction() {
    let eager = compile(w::digit_runs_pattern()).unwrap();
    let strict = digit_runs_lazy(Some(256));
    let mut eager_eval = Evaluator::new();
    let mut thrash = Evaluator::with_mode(EngineMode::SkipScan);
    let mut thrash_counts = CountCache::<u128>::with_mode(EngineMode::SkipScan);
    let mut docs = density_sweep_docs();
    docs.extend(chunk_boundary_docs());
    for doc in &docs {
        let eager_view =
            eager_eval.eval(eager.try_automaton().expect("eager engine"), doc).unwrap();
        let paths = eager_view.count_paths().unwrap();
        let expected =
            if paths < ENUM_CAP { sorted(eager_view.collect_mappings()) } else { Vec::new() };
        let view = thrash.eval(&strict, doc).unwrap();
        assert_eq!(view.count_paths().unwrap(), paths, "thrashing paths, |d| = {}", doc.len());
        if paths < ENUM_CAP {
            assert_eq!(
                sorted(view.collect_mappings()),
                expected,
                "thrashing SkipScan diverged, |d| = {}",
                doc.len()
            );
        }
        assert_eq!(
            thrash_counts.count(&strict, doc).unwrap(),
            paths,
            "thrashing SkipScan count, |d| = {}",
            doc.len()
        );
    }
    let cache = thrash.lazy_cache().unwrap();
    assert!(cache.clear_count() > 0, "a 256-byte budget never evicted the skip masks");
    assert!(cache.wasted_states() > 0, "eviction must have rebuilt states (and their masks)");
}

/// The capacity signature sees the new mask storage, and a warm cache keeps
/// it stable across reruns (the E10b diagnostics / allocation-retention
/// contract, extended to the skip-mask buffers).
#[test]
fn capacity_signature_accounts_for_skip_masks() {
    let lazy = digit_runs_lazy(None);
    let mut evaluator = Evaluator::with_mode(EngineMode::SkipScan);
    let doc = w::sparse_match_text(9, 4_000, 100);
    let _ = evaluator.eval(&lazy, &doc).unwrap().num_nodes();
    let cache = evaluator.lazy_cache().unwrap();
    let sig = cache.capacity_signature();
    let rendered = sig.to_string();
    assert!(rendered.contains("masks="), "signature must report mask capacity: {rendered}");
    assert!(sig.0[5] >= cache.num_states(), "one mask per interned state");
    // Steady state: same document, warm cache — signature unchanged.
    let _ = evaluator.eval(&lazy, &doc).unwrap().num_nodes();
    assert_eq!(evaluator.lazy_cache().unwrap().capacity_signature(), sig, "warm rerun grew masks");
}

/// Frozen snapshots carry the per-state masks: SkipScan through a shared
/// `FrozenCache` + private delta equals the live lazy engine, and newly
/// learned entries land in the delta's mask overrides without touching the
/// shared half.
#[test]
fn frozen_skip_scan_matches_live_and_class_runs() {
    let ast = parse(w::digit_runs_pattern()).unwrap();
    let va = regex_to_va(&ast).unwrap();
    let eva = va_to_eva(&va).unwrap();
    let spanner =
        CompiledSpanner::from_lazy(LazyDetSeva::new(&eva, LazyConfig::default()).unwrap());
    let lazy = spanner.lazy_automaton().expect("lazy engine");
    // Freeze after a partial warm-up, so the delta must extend the snapshot
    // (mask overrides included) on the denser documents.
    let frozen = spanner.freeze_warm(&[w::sparse_match_text(11, 400, 10)]).expect("lazy freezes");
    let mut live = Evaluator::with_mode(EngineMode::SkipScan);
    let mut frozen_scan = Evaluator::with_mode(EngineMode::SkipScan);
    let mut frozen_counts = CountCache::<u128>::with_mode(EngineMode::SkipScan);
    let mut docs = density_sweep_docs();
    docs.extend(chunk_boundary_docs());
    for doc in &docs {
        let paths = live.eval(lazy, doc).unwrap().count_paths().unwrap();
        let frozen_view = frozen_scan.eval((lazy, &frozen), doc).unwrap();
        assert_eq!(frozen_view.count_paths().unwrap(), paths, "frozen paths, |d| = {}", doc.len());
        if paths < ENUM_CAP {
            assert_eq!(
                sorted(frozen_view.collect_mappings()),
                sorted(live.eval(lazy, doc).unwrap().collect_mappings()),
                "frozen vs live set equality, |d| = {}",
                doc.len()
            );
        }
        assert_eq!(
            frozen_counts.count((lazy, &frozen), doc).unwrap(),
            paths,
            "frozen SkipScan count, |d| = {}",
            doc.len()
        );
    }
}

/// The parallel batch path (default mode = SkipScan, shared frozen masks):
/// results are identical at 1/2/8 threads, match the sequential warm engine
/// as sets, and the per-byte engine stepping the server's shared snapshot
/// returns the very same counts.
#[test]
fn batch_skip_scan_is_deterministic_across_threads_and_modes() {
    let ast = parse(w::digit_runs_pattern()).unwrap();
    let va = regex_to_va(&ast).unwrap();
    let eva = va_to_eva(&va).unwrap();
    let spanner =
        CompiledSpanner::from_lazy(LazyDetSeva::new(&eva, LazyConfig::default()).unwrap());
    let docs: Vec<Document> = (0..24)
        .map(|i| w::sparse_match_text(100 + i as u64, 200 + 37 * i, (i * 433) % 10_000))
        .collect();

    let mut warm = Evaluator::new();
    let expected_sets: Vec<Vec<Mapping>> = docs
        .iter()
        .map(|d| sorted(spanner.evaluate_with(&mut warm, d).collect_mappings()))
        .collect();
    let mut counts = CountCache::<u64>::new();
    let expected_counts: Vec<u64> =
        docs.iter().map(|d| spanner.count_with(&mut counts, d).unwrap()).collect();

    let sequential =
        spanner.evaluate_batch(&docs, &BatchOptions::threads(1), |_, dag| dag.collect_mappings());
    for (i, per_doc) in sequential.iter().enumerate() {
        assert_eq!(sorted(per_doc.clone()), expected_sets[i], "sequential batch doc {i}");
    }
    for threads in [2usize, 8] {
        let opts = BatchOptions::threads(threads);
        assert_eq!(
            spanner.evaluate_batch(&docs, &opts, |_, dag| dag.collect_mappings()),
            sequential,
            "batch output (order included) diverged at {threads} threads"
        );
        assert_eq!(
            spanner.count_batch::<u64>(&docs, &opts).unwrap(),
            expected_counts,
            "count_batch at {threads} threads"
        );
    }

    // A long-lived server shares one frozen snapshot (masks included) across
    // its workers; the per-byte engine stepping that snapshot must count the
    // same numbers the server's default SkipScan pool does.
    let server = SpannerServer::with_options(spanner, BatchOptions::threads(2));
    server.warm(&docs[..4]);
    assert!(server.frozen_states().unwrap_or(0) > 0, "warming must populate the snapshot");
    assert_eq!(server.count_batch(&docs).unwrap(), expected_counts, "server default pool");
    let lazy = server.spanner().lazy_automaton().expect("lazy engine");
    let frozen = server.frozen_cache().unwrap();
    let mut per_byte = CountCache::<u64>::with_mode(EngineMode::PerByte);
    let per_byte_counts: Vec<u64> =
        docs.iter().map(|d| per_byte.count((lazy, &*frozen), d).unwrap()).collect();
    assert_eq!(per_byte_counts, expected_counts, "PerByte over the server snapshot");
}

/// `Σ* x{C+} Σ*` where `C` is the union of the inclusive byte `ranges`,
/// built with `EvaBuilder` so that a range can end at `0xFF` (the pattern
/// syntax has no byte escapes). The start state's interest set is exactly
/// `C`: a capture can open only where a `C` byte follows.
fn range_runs_eva(ranges: &[(u8, u8)]) -> Eva {
    let class =
        ranges.iter().fold(ByteClass::empty(), |c, &(lo, hi)| c.union(&ByteClass::range(lo, hi)));
    let mut reg = VarRegistry::new();
    let x = reg.intern("x").unwrap();
    let mut b = EvaBuilder::new(reg);
    let q = b.add_states(4);
    b.set_initial(q[0]);
    b.set_final(q[3]);
    b.add_letter(q[0], ByteClass::any(), q[0]);
    b.add_var(q[0], MarkerSet::new().with_open(x), q[1]).unwrap();
    b.add_letter(q[1], class, q[2]);
    b.add_letter(q[2], class, q[2]);
    b.add_var(q[2], MarkerSet::new().with_close(x), q[3]).unwrap();
    b.add_letter(q[3], ByteClass::any(), q[3]);
    b.build().unwrap()
}

/// Documents over the whole byte alphabet for a range-class spanner: a
/// background of non-`C` bytes, biased to the bytes just outside each
/// range, with `C` bytes (range ends first) planted at 64-byte stride edges
/// and at densities from 0% to 100%.
fn range_runs_docs(ranges: &[(u8, u8)], seed: u64) -> Vec<Document> {
    let class =
        ranges.iter().fold(ByteClass::empty(), |c, &(lo, hi)| c.union(&ByteClass::range(lo, hi)));
    let mut edges: Vec<u8> = Vec::new();
    let mut hits: Vec<u8> = Vec::new();
    for &(lo, hi) in ranges {
        edges.extend(
            [lo.wrapping_sub(1), hi.wrapping_add(1)].into_iter().filter(|&b| !class.contains(b)),
        );
        hits.extend([lo, hi]);
    }
    let misses: Vec<u8> = class.complement().iter().collect();
    let mut rng = w::rng::StdRng::seed_from_u64(seed);
    let background = |rng: &mut w::rng::StdRng, len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                if !edges.is_empty() && rng.gen_bool(0.5) {
                    edges[rng.gen_range(0..edges.len())]
                } else {
                    misses[rng.gen_range(0..misses.len())]
                }
            })
            .collect()
    };
    let mut docs = vec![Document::empty()];
    for len in [1usize, 63, 64, 65, 129] {
        docs.push(Document::new(background(&mut rng, len)));
        for pos in [0usize, 15, 16, 63, 64, 65, 128] {
            if pos < len {
                let mut bytes = background(&mut rng, len);
                bytes[pos] = hits[pos % hits.len()];
                docs.push(Document::new(bytes));
            }
        }
    }
    let all: Vec<u8> = class.iter().collect();
    for per_10k in [0usize, 10, 100, 1_000, 10_000] {
        let mut bytes = background(&mut rng, 3_000);
        for (i, b) in bytes.iter_mut().enumerate() {
            if rng.gen_range(0..10_000) < per_10k {
                *b = if i % 2 == 0 {
                    hits[i % hits.len()]
                } else {
                    all[rng.gen_range(0..all.len())]
                };
            }
        }
        docs.push(Document::new(bytes));
    }
    docs
}

/// The scan kernel's dispatch on the number of ranges, end to end: spanners
/// whose start-state interest set is 1 (ending at `0xFF`), 2, 3, 4 and 5
/// ranges (the compare kernel up to four, the table loop beyond). SkipScan
/// equals PerByte byte for byte, enumeration order included, on the eager
/// tables, a warm lazy cache and a frozen snapshot, and through `CountCache`.
#[test]
fn range_kernel_arms_are_identical_across_modes() {
    let shapes: [&[(u8, u8)]; 5] = [
        &[(0xE0, 0xFF)],
        &[(b'0', b'9'), (b'a', b'f')],
        &[(0x00, 0x03), (b'A', b'F'), (b'x', b'z')],
        &[(b'0', b'9'), (b'A', b'Z'), (b'a', b'z'), (0xFF, 0xFF)],
        &[(b'!', b'!'), (b'0', b'9'), (b'A', b'Z'), (b'_', b'_'), (b'a', b'z')],
    ];
    for (i, ranges) in shapes.iter().enumerate() {
        let eva = range_runs_eva(ranges);
        let docs = range_runs_docs(ranges, 0x5CA1 + i as u64);
        let ctx = format!("{} ranges {ranges:?}", ranges.len());

        // The premise: the start state's interest set has exactly these ranges.
        let eager = CompiledSpanner::from_eva(&eva).unwrap();
        let aut = eager.try_automaton().expect("eager engine");
        let mut interest = InterestMask::default();
        aut.partition().interest_mask_into(&aut.skip_mask(aut.initial()), &mut interest);
        let starts = (0..=255u8)
            .filter(|&b| interest.is_interesting(b) && (b == 0 || !interest.is_interesting(b - 1)))
            .count();
        assert_eq!(starts, ranges.len(), "start-state interest ranges, {ctx}");

        for (j, doc) in docs.iter().enumerate() {
            assert_eager_modes_identical(&eager, doc, &format!("eager, {ctx}, doc {j}"));
        }

        // Warm lazy and frozen: warm each target in both modes first, so both
        // modes step one fixed id space and order must match exactly.
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let frozen = CompiledSpanner::from_lazy(lazy.clone()).freeze_warm(&docs).expect("freezes");
        let mut scan = Evaluator::with_mode(EngineMode::SkipScan);
        let mut bytes = Evaluator::with_mode(EngineMode::PerByte);
        let mut scan_counts = CountCache::<u128>::with_mode(EngineMode::SkipScan);
        let mut byte_counts = CountCache::<u128>::with_mode(EngineMode::PerByte);
        for doc in &docs {
            let _ = scan.eval(&lazy, doc).unwrap().num_nodes();
            let _ = bytes.eval(&lazy, doc).unwrap().num_nodes();
        }
        for (j, doc) in docs.iter().enumerate() {
            let live = scan.eval(&lazy, doc).unwrap().count_paths().unwrap();
            let targets = [("warm lazy", None), ("frozen", Some(&frozen))];
            for (name, target) in targets.map(|(n, f)| (n, Target::Lazy(&lazy, f))) {
                let at = format!("{name}, {ctx}, doc {j}");
                let paths = scan.eval(target, doc).unwrap().count_paths().unwrap();
                assert_eq!(paths, live, "paths vs the live cache, {at}");
                assert_eq!(bytes.eval(target, doc).unwrap().count_paths().unwrap(), paths, "{at}");
                if paths < ENUM_CAP {
                    assert_eq!(
                        scan.eval(target, doc).unwrap().collect_mappings(),
                        bytes.eval(target, doc).unwrap().collect_mappings(),
                        "mappings/order vs per-byte, {at}"
                    );
                }
                assert_eq!(scan_counts.count(target, doc).unwrap(), paths, "count, {at}");
                assert_eq!(byte_counts.count(target, doc).unwrap(), paths, "per-byte count, {at}");
            }
        }
    }
}
