//! Pieces shared by the workloads: the run context and its outcome, the
//! streaming rig around `StreamingServer`, closed-loop batch phases, and
//! peak-RSS accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spanners_core::{CompiledSpanner, Document, SpannerError};
use spanners_runtime::{
    AdmissionStats, GovernorStats, StreamingOptions, StreamingServer, StreamingStats, Ticket,
};

use spanners_workloads::rng::StdRng;

use crate::load::{self, ms, Cycle, PhaseStats, RequestTimes, Requests, Verdict};
use crate::replay::{CompileTimes, CoreFigures, SlpFigures};
use crate::stats::{self, median, percentile};
use crate::trace::Trace;

/// Worker threads of every workload's server.
pub const WORKERS: usize = 2;
/// Requests kept outstanding by the closed-loop streaming client.
pub const IN_FLIGHT: usize = 64;
/// Set-ups per run; `setup_s` and the compile figures are their medians.
pub const SETUP_REPS: usize = 9;
/// Documents of the warm-up request that ends a streaming set-up.
pub const WARM_BURST: usize = 32;
/// Share of the measuring time spent in an unreported warm-up phase, so
/// that allocators, pools and snapshots settle before timing.
pub const WARMUP: f64 = 0.1;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// A seed for one purpose, derived from the run's seed.
    pub fn derive(&self, purpose: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests that failed, were refused or expired.
    pub failed: u64,
    /// Requests whose output disagreed with the oracle.
    pub wrong: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub info: Vec<(String, String)>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Folds a measured phase into the run's request counts.
    pub fn count(&mut self, phase: &PhaseStats) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.wrong += phase.wrong;
    }

    /// A run is correct when every request succeeded with the oracle's output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0 && self.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics shared by every workload: set-up time, the
    /// median latency of `latency`, the phase that defines it, and
    /// `peak_rss_mb` as read by the caller. Latency percentiles are taken per
    /// time window (each window keeping at least 10 samples beyond p99) and
    /// the median window is reported. Closed-loop throughput and the p99 go
    /// to the provenance line only: on a shared 2-vCPU machine the quartile
    /// spread of `mb_per_s` over ten seeds reached 0.21–0.32 in most sets
    /// (0.3 over five runs of one seed on tenant-stream), and the p99 moved
    /// by 40–60% between sets with stalls of the load generator's own
    /// wake-ups, so neither can gate a change within a 25% bound.
    pub fn end_to_end(
        &mut self,
        setup_s: &mut [f64],
        mb_per_s: f64,
        latency: &PhaseStats,
        peak_rss_mb: f64,
    ) {
        let samples = latency.latencies_ms();
        let span = latency.elapsed.as_secs_f64();
        let n = samples.len();
        let w = stats::window_count(&samples, span, 0.99);
        self.metric("setup_s", median(setup_s), "s");
        self.metric("latency_p50_ms", stats::windowed_percentile(&samples, span, w, 0.5), "ms");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
        self.info("mb_per_s", mb_per_s);
        self.info("latency_p99_ms", stats::windowed_percentile(&samples, span, w, 0.99));
        self.info("latency_samples", n);
        self.info("latency_windows", w);
        self.info("latency_samples_beyond_p99", stats::beyond(n, 0.99));
        if !stats::supports(n, 0.99) {
            eprintln!("warning: {n} latency samples leave fewer than 10 beyond p99");
        }
        self.info("setup_samples", setup_s.len());
    }

    /// The compile-stage medians over the run's set-ups.
    pub fn compile_layers(&mut self, compiles: &[CompileTimes]) {
        let pick = |f: fn(&CompileTimes) -> Duration| {
            median(&mut compiles.iter().map(|c| ms(f(c))).collect::<Vec<_>>())
        };
        let (parse, to_va, to_eva, build) =
            (pick(|c| c.parse), pick(|c| c.to_va), pick(|c| c.to_eva), pick(|c| c.build));
        self.metric("regex.parse_ms", parse, "ms");
        self.metric("regex.to_va_ms", to_va, "ms");
        self.metric("automata.to_eva_ms", to_eva, "ms");
        self.metric("core.spanner.build_ms", build, "ms");
    }
}

/// Timings of the run's set-ups.
#[derive(Debug, Default)]
pub struct Setups {
    pub total_s: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub compiles: Vec<CompileTimes>,
}

/// Resident-set high-water mark accounting. [`reset_peak_rss`] clears the
/// mark once the corpus is loaded; [`peak_rss_mb`] reports the growth above
/// the resident set at that moment.
static RSS_BASELINE_KB: Mutex<u64> = Mutex::new(0);

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the RSS high-water mark: {e}");
    }
    *RSS_BASELINE_KB.lock().expect("RSS baseline lock") = status_kb("VmRSS:").unwrap_or(0);
}

pub fn peak_rss_mb() -> f64 {
    let base = *RSS_BASELINE_KB.lock().expect("RSS baseline lock");
    let peak = status_kb("VmHWM:").unwrap_or(0);
    peak.saturating_sub(base) as f64 * 1024.0 / 1e6
}

/// Documents from the front of `pool` until they hold at least `bytes`.
pub fn sample(pool: &[Document], bytes: usize) -> Vec<Document> {
    let mut total = 0;
    pool.iter()
        .take_while(|d| {
            let more = total < bytes;
            total += d.len();
            more
        })
        .cloned()
        .collect()
}

/// Reorders `items` so that `items[k]` becomes the old `items[perm[k]]`.
pub fn permute<T>(items: &mut Vec<T>, perm: &[usize]) {
    let mut slots: Vec<Option<T>> = items.drain(..).map(Some).collect();
    items.extend(perm.iter().map(|&i| slots[i].take().expect("perm is a permutation")));
}

/// A batch workload's pool in its current order, with each item's oracle
/// count. Batches are consecutive slices, reshuffled every pass.
pub struct Pool<T> {
    pub items: Vec<T>,
    pub want: Vec<u64>,
    batch: usize,
    rng: StdRng,
}

impl<T> Pool<T> {
    pub fn new(items: Vec<T>, want: Vec<u64>, batch: usize, seed: u64) -> Pool<T> {
        assert!(items.len() >= batch && batch > 0, "a pool holds at least one batch");
        Pool { items, want, batch, rng: StdRng::seed_from_u64(seed) }
    }

    /// The index range of the `k`-th batch of the closed loop.
    pub fn batch(&mut self, k: usize) -> std::ops::Range<usize> {
        let j = k % (self.items.len() / self.batch);
        if j == 0 {
            let mut perm: Vec<usize> = (0..self.items.len()).collect();
            load::shuffle(&mut self.rng, &mut perm);
            permute(&mut self.items, &perm);
            permute(&mut self.want, &perm);
        }
        j * self.batch..(j + 1) * self.batch
    }
}

/// Timing marks the streaming map closure records while `on` is set, keyed
/// by stream sequence number.
#[derive(Debug, Default)]
pub struct MapMarks {
    pub on: AtomicBool,
    rows: Mutex<HashMap<usize, (Instant, Instant)>>,
}

impl MapMarks {
    /// Drains every recorded mark.
    pub fn take(&self) -> HashMap<usize, (Instant, Instant)> {
        std::mem::take(&mut *self.rows.lock().expect("map marks lock"))
    }

    /// Removes the mark of one request. A ticket completes after its map
    /// closure returns, so a completed request's mark is already there.
    pub fn remove(&self, seq: Option<usize>) -> Option<(Instant, Instant)> {
        self.rows.lock().expect("map marks lock").remove(&seq?)
    }
}

/// A streaming server whose map closure enumerates every mapping of each
/// document and returns how many there were.
pub fn start_stream(
    spanner: CompiledSpanner,
    marks: &Arc<MapMarks>,
) -> Result<StreamingServer<u64>, SpannerError> {
    let marks = Arc::clone(marks);
    StreamingServer::start(spanner, StreamingOptions::workers(WORKERS), move |seq, dag| {
        let start = marks.on.load(Ordering::Relaxed).then(Instant::now);
        let n = dag.iter().count() as u64;
        if let Some(start) = start {
            marks.rows.lock().expect("map marks lock").insert(seq, (start, Instant::now()));
        }
        n
    })
}

/// Requests against a [`start_stream`] server, checked against per-document
/// mapping counts.
pub struct StreamRequests<'a> {
    pub server: &'a StreamingServer<u64>,
    pub docs: &'a [Document],
    pub oracle: &'a [u64],
    pub cycle: Cycle,
}

impl Requests<Ticket<u64>> for StreamRequests<'_> {
    type Input = Document;

    fn next_doc(&mut self) -> usize {
        self.cycle.next().expect("cycles never end")
    }

    fn size(&self, doc: usize) -> usize {
        self.docs[doc].len()
    }

    fn input(&self, doc: usize) -> Document {
        self.docs[doc].clone()
    }

    fn submit(&self, doc: Document) -> Result<Ticket<u64>, SpannerError> {
        self.server.submit(doc, None)
    }

    fn check(&self, doc: usize, out: Result<u64, SpannerError>) -> Verdict {
        match out {
            Ok(n) if n == self.oracle[doc] => Verdict::Ok,
            Ok(_) => Verdict::Wrong,
            Err(e) => {
                eprintln!("document {doc} failed: {e}");
                Verdict::Failed
            }
        }
    }
}

/// Submits `docs` at once and waits for every result, checking each.
pub fn warm_burst(
    server: &StreamingServer<u64>,
    docs: Vec<Document>,
    oracle: &[u64],
) -> Result<(), String> {
    let tickets = docs
        .into_iter()
        .map(|d| server.submit(d, None))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(n) if n == oracle[i] => {}
            other => {
                return Err(format!("warm-up document {i}: {other:?}, expected {}", oracle[i]))
            }
        }
    }
    Ok(())
}

/// Streaming figures of a traced phase.
#[derive(Debug, Default)]
pub struct StreamFigures {
    pub submit_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub map_ms: Vec<f64>,
}

/// Untraced and traced closed-loop slices over `span`, in the order
/// untraced, traced, traced, untraced, so that a steady drift during the
/// run (caches filling, snapshot generations) weighs on both alike.
/// `slice(traced, span)` runs one slice. Returns the untraced and the
/// traced slices, each merged.
pub fn alternate(
    span: Duration,
    mut slice: impl FnMut(bool, Duration) -> PhaseStats,
) -> (PhaseStats, PhaseStats) {
    const ORDER: [bool; 4] = [false, true, true, false];
    let (mut plain, mut traced) = (PhaseStats::default(), PhaseStats::default());
    for traced_slice in ORDER {
        let phase = slice(traced_slice, span / ORDER.len() as u32);
        if traced_slice {
            traced.absorb(phase);
        } else {
            plain.absorb(phase);
        }
    }
    (plain, traced)
}

/// Records the spans of one streaming request (request → submit, queue,
/// map) and adds its streaming figures to `fig`. `map` is the request's
/// map-closure mark, when one was taken.
pub fn stream_span(
    trace: &mut Option<Trace>,
    fig: &mut StreamFigures,
    phase: &'static str,
    r: &RequestTimes,
    map: Option<(Instant, Instant)>,
) {
    fig.submit_us.push((r.submit_end - r.submit_start).as_secs_f64() * 1e6);
    if let Some((start, end)) = map {
        fig.queue_ms.push(ms(start.saturating_duration_since(r.submit_end)));
        fig.map_ms.push(ms(end - start));
    }
    let Some(t) = trace.as_mut() else { return };
    if !t.room_for(4) {
        return;
    }
    let req = t.request();
    let root = t.record(phase, req, None, r.due, r.done);
    t.record("runtime.streaming.submit", req, Some(root), r.submit_start, r.submit_end);
    if let Some((start, end)) = map {
        t.record("runtime.streaming.queue", req, Some(root), r.submit_end, start);
        t.record("runtime.streaming.map", req, Some(root), start, end);
    }
}

/// [`stream_span`] for every request of a finished phase; `maps` holds the
/// map-closure marks by sequence number.
pub fn stream_spans(
    trace: &mut Option<Trace>,
    phase: &'static str,
    requests: &[RequestTimes],
    maps: &HashMap<usize, (Instant, Instant)>,
) -> StreamFigures {
    let mut fig = StreamFigures::default();
    for r in requests {
        let map = r.seq.and_then(|s| maps.get(&s)).copied();
        stream_span(trace, &mut fig, phase, r, map);
    }
    fig
}

/// Emits the streaming per-layer metrics.
pub fn stream_layers(out: &mut Outcome, fig: &mut StreamFigures, stats: &StreamingStats) {
    out.metric("runtime.streaming.submit_us_p50", percentile(&mut fig.submit_us, 0.5), "us");
    out.metric("runtime.streaming.submit_us_p99", percentile(&mut fig.submit_us, 0.99), "us");
    out.metric("runtime.streaming.queue_ms_p50", percentile(&mut fig.queue_ms, 0.5), "ms");
    out.metric("runtime.streaming.queue_ms_p99", percentile(&mut fig.queue_ms, 0.99), "ms");
    out.metric("runtime.streaming.map_ms", median(&mut fig.map_ms), "ms");
    out.info("submit_samples", fig.submit_us.len());
    out.info("queue_samples", fig.queue_ms.len());
    out.metric(
        "runtime.streaming.docs_per_batch",
        stats.completed as f64 / stats.batches.max(1) as f64,
        "count",
    );
    out.metric("runtime.streaming.delta_states", stats.delta_states as f64, "count");
    out.metric("runtime.streaming.promotions", stats.promotions as f64, "count");
}

/// A short closed-loop streaming phase over `docs` through a fresh
/// [`start_stream`] server, traced — for workloads whose own server exposes
/// no map closure (or none at all), so the streaming layers are still
/// measured on their corpus.
pub fn streaming_probe(
    spanner: CompiledSpanner,
    docs: &[Document],
    oracle: &[u64],
    seed: u64,
    span: Duration,
    trace: &mut Option<Trace>,
) -> Result<(PhaseStats, StreamFigures, StreamingStats), SpannerError> {
    let marks = Arc::new(MapMarks::default());
    let server = start_stream(spanner, &marks)?;
    marks.on.store(true, Ordering::Relaxed);
    let mut q =
        StreamRequests { server: &server, docs, oracle, cycle: Cycle::new(seed, docs.len()) };
    let mut fig = StreamFigures::default();
    let phase = load::closed_loop(&mut q, IN_FLIGHT, span, |r| {
        stream_span(trace, &mut fig, "probe.request", r, marks.remove(r.seq));
    });
    Ok((phase, fig, server.drain()))
}

/// One closed-loop batch phase: `call(k)` makes the `k`-th batch call and
/// returns its verdict, its input bytes, and when the call itself started
/// and ended (preparation and checking excluded). Latency is the call's
/// duration; lateness is the gap between one call's end, checks included,
/// and the next call's start.
pub fn batch_phase(
    span: Duration,
    mut call: impl FnMut(usize) -> (Verdict, usize, Instant, Instant),
) -> (PhaseStats, Vec<f64>) {
    let start = Instant::now();
    let mut stats = PhaseStats { start: Some(start), ..PhaseStats::default() };
    let mut gaps_ms = Vec::new();
    let mut prev_end = start;
    let mut k = 0;
    while prev_end < start + span {
        let (verdict, bytes, call_start, call_end) = call(k);
        let checked = Instant::now();
        gaps_ms.push(ms(call_start.saturating_duration_since(prev_end)));
        stats.attempted += 1;
        stats.settle(verdict, bytes, call_end);
        stats.requests.push(RequestTimes {
            doc: k,
            seq: Some(k),
            due: call_start,
            submit_start: call_start,
            submit_end: call_end,
            done: call_end,
        });
        prev_end = checked;
        k += 1;
    }
    stats.elapsed = start.elapsed();
    (stats, gaps_ms)
}

/// Checks per-document counts of a batch report against the oracle.
pub fn check_counts(results: &[Result<u64, SpannerError>], want: &[u64]) -> Verdict {
    if results.len() != want.len() {
        return Verdict::Wrong;
    }
    let mut verdict = Verdict::Ok;
    for (got, want) in results.iter().zip(want) {
        match got {
            Err(e) => {
                eprintln!("batch document failed: {e}");
                return Verdict::Failed;
            }
            Ok(n) if n != want => verdict = Verdict::Wrong,
            Ok(_) => {}
        }
    }
    verdict
}

/// Records the spans of one batch call made from `start` to `end`: the
/// request, with the call into `layer` as its child.
pub fn batch_span(trace: &mut Option<Trace>, layer: &'static str, start: Instant, end: Instant) {
    let Some(t) = trace.as_mut() else { return };
    if !t.room_for(2) {
        return;
    }
    let req = t.request();
    let root = t.record("batch.request", req, None, start, end);
    t.record(layer, req, Some(root), start, end);
}

/// Emits the core-layer metrics of a replay.
pub fn core_layers(out: &mut Outcome, core: &CoreFigures) {
    out.metric("core.enumerate.preprocess_ns_per_byte", core.preprocess_ns_per_byte, "ns/B");
    out.metric("core.enumerate.delay_ns_per_output", core.delay_ns_per_output, "ns");
    out.metric("core.enumerate.outputs", core.outputs as f64, "count");
    out.metric("core.count.ns_per_byte", core.count_ns_per_byte, "ns/B");
    out.metric("core.lazy.frozen_ns_per_byte", core.frozen_ns_per_byte, "ns/B");
    out.metric("core.lazy.frozen_states", core.frozen_states as f64, "count");
    out.info("replay_bytes", core.bytes);
}

/// Emits the SLP-layer metrics of a replay.
pub fn slp_layers(out: &mut Outcome, slp: &SlpFigures) {
    out.metric("core.slp.memo_warm_ms", slp.memo_warm_ms, "ms");
    out.metric("core.slp.compose_ns_per_doc", slp.compose_ns_per_doc, "ns");
    out.metric("core.slp.memo_bytes", slp.memo_bytes as f64, "bytes");
}

/// Emits the governance counters (zero where a workload runs ungoverned).
pub fn governance_layers(
    out: &mut Outcome,
    admission: Option<AdmissionStats>,
    governor: Option<GovernorStats>,
) {
    let quota = admission.map_or(0, |a| a.quota_denials);
    let (denials, shed) = governor.map_or((0, 0), |g| (g.denials, g.deltas_shed));
    out.metric("runtime.admission.quota_denials", quota as f64, "count");
    out.metric("core.limits.governor_denials", denials as f64, "count");
    out.metric("core.limits.deltas_shed", shed as f64, "count");
}

/// `bench.trace_overhead_pct`: how much slower the traced slices ran, whose
/// requests record their spans as they complete. Where recording costs
/// little next to a request, the figure is within run-to-run noise and may
/// be negative.
pub fn trace_overhead_pct(untraced_mbps: f64, traced_mbps: f64) -> f64 {
    (untraced_mbps - traced_mbps) / untraced_mbps * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_output_fails_the_run() {
        let mut ok = Outcome { attempted: 10, ..Outcome::default() };
        assert!(ok.correct());
        assert_eq!(ok.error_rate(), 0.0);
        let phase = PhaseStats { attempted: 10, wrong: 1, ..PhaseStats::default() };
        ok.count(&phase);
        assert!(!ok.correct());
        assert_eq!(ok.error_rate(), 1.0 / 20.0);
        assert!(!Outcome::default().correct(), "a run that attempted nothing is not correct");
    }

    #[test]
    fn stream_oracle_mismatch_is_a_wrong_verdict() {
        let server = start_stream(
            spanners_regex::compile(spanners_workloads::digit_runs_pattern()).unwrap(),
            &Arc::new(MapMarks::default()),
        )
        .unwrap();
        let docs = vec![Document::from("a1b22c"), Document::from("zzz")];
        // The first document has 1 + 3 digit-run mappings; claim 5 instead.
        let oracle = [5, 0];
        let mut q = StreamRequests {
            server: &server,
            docs: &docs,
            oracle: &oracle,
            cycle: Cycle::new(1, 2),
        };
        let phase = load::closed_loop(&mut q, 4, Duration::from_millis(20), |_| {});
        server.drain();
        assert!(phase.wrong > 0 && phase.wrong < phase.attempted, "{phase:?}");
        let mut out = Outcome::default();
        out.count(&phase);
        assert!(!out.correct());
        assert!(out.error_rate() > 0.0);
    }

    #[test]
    fn permute_and_sample() {
        let mut v = vec!['a', 'b', 'c'];
        permute(&mut v, &[2, 0, 1]);
        assert_eq!(v, vec!['c', 'a', 'b']);
        let pool: Vec<Document> = ["ab", "cd", "ef"].iter().map(|s| Document::from(*s)).collect();
        assert_eq!(sample(&pool, 3).len(), 2);
        assert_eq!(sample(&pool, 100).len(), 3);
    }
}
