//! Single-threaded replays through the library's entry points, timing one
//! layer per call: compile stages, preprocessing (Algorithm 1), enumeration
//! (Algorithm 2), counting (Algorithm 3), frozen-snapshot stepping, SLP
//! composition and multi-tenant demultiplexing.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spanners_automata::{compile_eva, sequentialize, va_to_eva, CompileOptions};
use spanners_core::{
    CompiledSpanner, CountCache, Document, Eva, Evaluator, LazyConfig, Slp, SlpEvaluator,
    SpannerError,
};
use spanners_regex::{parse, regex_to_va};
use spanners_runtime::MultiSpanner;

use crate::stats::median;
use crate::trace::Trace;

/// Time spent in each compile stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileTimes {
    /// `parse`.
    pub parse: Duration,
    /// `regex_to_va`.
    pub to_va: Duration,
    /// `sequentialize` (when needed) and `va_to_eva`.
    pub to_eva: Duration,
    /// Building the engine from the eVA (determinization for eager
    /// spanners, `MultiSpanner::compile` for tenants).
    pub build: Duration,
}

/// Parses `pattern` and translates it to an eVA, timing each stage.
pub fn pattern_to_eva(pattern: &str, times: &mut CompileTimes) -> Result<Eva, SpannerError> {
    let t = Instant::now();
    let ast = parse(pattern).map_err(SpannerError::Parse)?;
    let t1 = Instant::now();
    let va = regex_to_va(&ast)?;
    let t2 = Instant::now();
    let va = if va.is_sequential() { va } else { sequentialize(&va, CompileOptions::default())? };
    let eva = va_to_eva(&va)?;
    let t3 = Instant::now();
    times.parse += t1 - t;
    times.to_va += t2 - t1;
    times.to_eva += t3 - t2;
    Ok(eva)
}

/// Compiles `pattern` into an eager spanner — the pipeline of
/// `spanners_regex::compile`, one stage at a time.
pub fn compile_eager(pattern: &str) -> Result<(CompiledSpanner, Eva, CompileTimes), SpannerError> {
    let mut times = CompileTimes::default();
    let eva = pattern_to_eva(pattern, &mut times)?;
    let t = Instant::now();
    let det = compile_eva(&eva, CompileOptions::default(), true)?;
    let spanner = CompiledSpanner::from_det(det);
    times.build = t.elapsed();
    Ok((spanner, eva, times))
}

/// One engine to replay: the spanner as served, and a lazily determinized
/// form of it for the frozen-snapshot path (the same spanner when it is
/// already lazy).
#[derive(Debug, Clone)]
pub struct Engine {
    pub served: CompiledSpanner,
    pub lazy: CompiledSpanner,
}

impl Engine {
    pub fn new(served: CompiledSpanner, eva: Option<&Eva>) -> Result<Engine, SpannerError> {
        let lazy = match eva {
            Some(eva) if !served.is_lazy() => {
                CompiledSpanner::from_eva_lazy(eva, LazyConfig::default())?
            }
            _ => served.clone(),
        };
        Ok(Engine { served, lazy })
    }
}

/// Per-layer figures of a core replay. Per-byte figures are per byte of
/// document, summed over the engines (the shards of a multi-tenant
/// workload each pass over every document).
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreFigures {
    /// Document bytes per replay pass.
    pub bytes: usize,
    pub preprocess_ns_per_byte: f64,
    pub delay_ns_per_output: f64,
    pub outputs: u64,
    pub count_ns_per_byte: f64,
    pub frozen_ns_per_byte: f64,
    pub frozen_states: usize,
}

impl CoreFigures {
    /// Preprocessing plus enumeration of every output, per byte.
    pub fn enumerate_ns_per_byte(&self) -> f64 {
        self.preprocess_ns_per_byte
            + self.delay_ns_per_output * self.outputs as f64 / self.bytes.max(1) as f64
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Replays `docs` through every engine `passes` times and reports each
/// figure as the median over passes. Frozen snapshots are warmed on `warm`.
pub fn replay_core(
    engines: &[Engine],
    docs: &[Document],
    warm: &[Document],
    passes: usize,
    trace: &mut Option<Trace>,
) -> CoreFigures {
    let doc_bytes: usize = docs.iter().map(Document::len).sum();
    let bytes = doc_bytes as f64;
    let frozen: Vec<_> = engines.iter().map(|e| e.lazy.freeze_warm(warm)).collect();
    let frozen_states = frozen.iter().flatten().map(|f| f.num_states()).sum();
    let mut evaluators: Vec<Evaluator> = engines.iter().map(|_| Evaluator::new()).collect();
    let mut frozen_evaluators: Vec<Evaluator> = engines.iter().map(|_| Evaluator::new()).collect();
    let mut counters: Vec<CountCache<u64>> = engines.iter().map(|_| CountCache::new()).collect();
    let (mut pre, mut delay, mut count, mut froz) = (vec![], vec![], vec![], vec![]);
    let mut outputs = 0u64;
    let spans = |trace: &mut Option<Trace>, marks: [Instant; 5]| {
        let Some(t) = trace.as_mut() else { return };
        if !t.room_for(4) {
            return;
        }
        let req = t.request();
        let names = [
            "core.enumerate.preprocess",
            "core.enumerate.iterate",
            "core.count",
            "core.lazy.frozen",
        ];
        for (k, name) in names.into_iter().enumerate() {
            t.record(name, req, None, marks[k], marks[k + 1]);
        }
    };
    for _ in 0..passes {
        let (mut t_pre, mut t_delay, mut t_count, mut t_froz) = (0.0, 0.0, 0.0, 0.0);
        outputs = 0;
        for (k, e) in engines.iter().enumerate() {
            for doc in docs {
                let t0 = Instant::now();
                let view = e.served.evaluate_with(&mut evaluators[k], doc);
                black_box(view.num_nodes());
                let t1 = Instant::now();
                outputs += view.iter().count() as u64;
                let t2 = Instant::now();
                let n = e.served.count_with(&mut counters[k], doc);
                let t3 = Instant::now();
                black_box(n.ok());
                if let Some(f) = &frozen[k] {
                    black_box(
                        e.lazy.evaluate_frozen_with(&mut frozen_evaluators[k], f, doc).num_nodes(),
                    );
                }
                let t4 = Instant::now();
                spans(trace, [t0, t1, t2, t3, t4]);
                t_pre += ns(t1 - t0);
                t_delay += ns(t2 - t1);
                t_count += ns(t3 - t2);
                t_froz += ns(t4 - t3);
            }
        }
        pre.push(t_pre / bytes);
        delay.push(if outputs == 0 { 0.0 } else { t_delay / outputs as f64 });
        count.push(t_count / bytes);
        froz.push(t_froz / bytes);
    }
    CoreFigures {
        bytes: doc_bytes,
        preprocess_ns_per_byte: median(&mut pre),
        delay_ns_per_output: median(&mut delay),
        outputs,
        count_ns_per_byte: median(&mut count),
        frozen_ns_per_byte: median(&mut froz),
        frozen_states,
    }
}

/// Per-layer figures of an SLP replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct SlpFigures {
    pub memo_warm_ms: f64,
    pub compose_ns_per_doc: f64,
    pub memo_bytes: usize,
}

/// Warms the SLP memo on `warm` (through `freeze_warm_slp` for lazy
/// spanners, a fresh evaluator's first pass for eager ones), then counts
/// every document of `slps` against the warm memo. Sums over engines.
pub fn replay_slp(engines: &[Engine], slps: &[Slp], warm: &[Slp], passes: usize) -> SlpFigures {
    let mut out = SlpFigures::default();
    for e in engines {
        let spanner = &e.served;
        let mut evaluator = SlpEvaluator::new();
        let t = Instant::now();
        let frozen = spanner.freeze_warm_slp(warm);
        if frozen.is_none() {
            for slp in warm {
                black_box(spanner.count_slp_with(&mut evaluator, slp).ok());
            }
        }
        out.memo_warm_ms += t.elapsed().as_secs_f64() * 1e3;
        let mut per_doc = Vec::with_capacity(passes);
        for _ in 0..passes {
            let t = Instant::now();
            for slp in slps {
                let n = match &frozen {
                    Some(f) => spanner.count_slp_frozen_with(&mut evaluator, f, slp),
                    None => spanner.count_slp_with(&mut evaluator, slp),
                };
                black_box(n.ok());
            }
            per_doc.push(ns(t.elapsed()) / slps.len().max(1) as f64);
        }
        out.compose_ns_per_doc += median(&mut per_doc);
        let shared = frozen.as_ref().and_then(|f| f.slp_memo()).map_or(0, |m| m.memory_bytes());
        out.memo_bytes += shared + evaluator.memo_bytes();
    }
    out
}

/// Demultiplexing cost per output mapping: `MultiSpanner::evaluate` minus
/// the same per-shard passes evaluated and iterated without demux, per
/// mapping, median over passes. Where shard evaluation costs far more than
/// demultiplexing its few mappings (the lazy tenant shards, about 150
/// times more), the difference is within timing noise and may be negative.
pub fn replay_demux(multi: &MultiSpanner, docs: &[Document], passes: usize) -> f64 {
    let mut per_mapping = Vec::with_capacity(passes);
    for _ in 0..passes {
        let (mut with, mut without, mut mappings) = (0.0, 0.0, 0usize);
        for doc in docs {
            let t = Instant::now();
            let per_tenant = multi.evaluate(doc);
            with += ns(t.elapsed());
            mappings += per_tenant.iter().map(Vec::len).sum::<usize>();
            black_box(per_tenant);
            let t = Instant::now();
            for s in 0..multi.num_shards() {
                black_box(multi.shard_spanner(s).evaluate(doc).iter().count());
            }
            without += ns(t.elapsed());
        }
        per_mapping.push(if mappings == 0 { 0.0 } else { (with - without) / mappings as f64 });
    }
    median(&mut per_mapping)
}

/// A batch of 32 empty and 32 64-byte documents (prefixes of `sample`).
pub fn tiny_batch(sample: &[Document]) -> Vec<Document> {
    let mut batch: Vec<Document> = (0..32).map(|_| Document::empty()).collect();
    batch.extend(
        sample.iter().cycle().take(32).map(|d| Document::new(&d.bytes()[..d.len().min(64)])),
    );
    batch
}

/// Per-document fixed cost of a batch call: `run` makes one call over a
/// batch of `docs` documents; median over `reps` calls after one warm-up
/// call, in µs per document.
pub fn per_doc_us(docs: usize, reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e6 / docs as f64
        })
        .collect();
    median(&mut times)
}
