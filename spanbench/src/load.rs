//! Seeded load generation: heavy-tailed sizes, arrival schedules, tenant
//! skew, and the closed- and open-loop drivers that feed a server.
//!
//! Both drivers are generic over the server's ticket type through
//! [`Pending`], and over how a request is submitted and checked, so the
//! same code drives `StreamingServer` and `MultiStreamingServer`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use spanners_core::SpannerError;
use spanners_workloads::rng::StdRng;

/// A uniform float in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u64..1 << 53) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `n` sizes from a Pareto distribution with shape `alpha`, truncated to
/// `[min, max]`, in seeded random order. The sizes are *stratified*: the
/// `i`-th is drawn from the `i`-th of `n` equal-probability slices of the
/// distribution, so every seed gets the same heavy tail in the same
/// proportions and only the jitter inside each slice and the order differ.
pub fn pareto_sizes(rng: &mut StdRng, n: usize, min: usize, max: usize, alpha: f64) -> Vec<usize> {
    let tail = (min as f64 / max as f64).powf(alpha);
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let p = (i as f64 + unit(rng)) / n as f64;
            let x = min as f64 * (1.0 - p * (1.0 - tail)).powf(-1.0 / alpha);
            (x.round() as usize).clamp(min, max)
        })
        .collect();
    shuffle(rng, &mut sizes);
    sizes
}

/// Send offsets of a Poisson arrival process at `rate` per second, covering
/// `span`.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - unit(rng)).ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Draws indices `0..n` with Zipf weights `1 / (k + 1)^s`.
#[derive(Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("Zipf over at least one index");
        let u = unit(rng) * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

/// Visits `0..n` in a fresh seeded permutation per pass, so every pool
/// document is used equally often.
#[derive(Debug)]
pub struct Cycle {
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
}

impl Cycle {
    pub fn new(seed: u64, n: usize) -> Cycle {
        assert!(n > 0, "cycle over an empty pool");
        Cycle { rng: StdRng::seed_from_u64(seed), order: (0..n).collect(), pos: n }
    }
}

impl Iterator for Cycle {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.order.len() {
            shuffle(&mut self.rng, &mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.order[self.pos - 1])
    }
}

/// A submitted request whose result can be probed and claimed.
pub trait Pending: Send {
    type Out;
    /// The server's id for the request, when it exposes one.
    fn seq(&self) -> Option<usize>;
    fn is_done(&self) -> bool;
    /// Waits up to `timeout`; `None` when the result is not ready yet.
    fn wait_up_to(&self, timeout: Duration) -> Option<Self::Out>;
    fn wait(self) -> Self::Out;
}

impl<R: Send> Pending for spanners_runtime::Ticket<R> {
    type Out = Result<R, SpannerError>;

    fn seq(&self) -> Option<usize> {
        Some(spanners_runtime::Ticket::seq(self))
    }

    fn is_done(&self) -> bool {
        spanners_runtime::Ticket::is_done(self)
    }

    fn wait_up_to(&self, timeout: Duration) -> Option<Self::Out> {
        match self.wait_timeout(timeout) {
            Err(SpannerError::WaitTimedOut { .. }) => None,
            other => Some(other),
        }
    }

    fn wait(self) -> Self::Out {
        spanners_runtime::Ticket::wait(self)
    }
}

impl Pending for spanners_runtime::MultiTicket {
    type Out = Vec<Result<Vec<spanners_core::Mapping>, SpannerError>>;

    fn seq(&self) -> Option<usize> {
        None
    }

    fn is_done(&self) -> bool {
        spanners_runtime::MultiTicket::is_done(self)
    }

    fn wait_up_to(&self, timeout: Duration) -> Option<Self::Out> {
        self.wait_timeout(timeout).ok()
    }

    fn wait(self) -> Self::Out {
        spanners_runtime::MultiTicket::wait(self)
    }
}

/// How one completed request turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The server returned an error, or refused the submission.
    Failed,
    /// The server returned a result that disagrees with the oracle.
    Wrong,
}

/// Timings of one request, captured around the benchmark's own calls.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    /// Pool index of the document.
    pub doc: usize,
    /// Server-assigned id (the ticket's sequence number), if any.
    pub seq: Option<usize>,
    /// When the request was due (open loop) or issued (closed loop).
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// When the result was observed.
    pub done: Instant,
}

/// Width of the time bins of [`PhaseStats::binned_mb_per_s`].
pub const THROUGHPUT_BIN: Duration = Duration::from_millis(100);

/// Outcome of one load phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Document bytes of the requests that completed correctly.
    pub bytes: u64,
    pub elapsed: Duration,
    /// When the phase started; set before its first request.
    pub start: Option<Instant>,
    /// Per-request timings of accepted requests, kept by the open loop and
    /// batch phases (the closed loop hands them to its caller instead).
    pub requests: Vec<RequestTimes>,
    /// Bytes completed correctly in each [`THROUGHPUT_BIN`] since `start`.
    /// Running sums, so that the benchmark's own record does not grow with
    /// the request count and show up in `peak_rss_mb`.
    pub bins: Vec<u64>,
}

impl PhaseStats {
    pub fn settle(&mut self, verdict: Verdict, bytes: usize, done: Instant) {
        match verdict {
            Verdict::Ok => {
                self.bytes += bytes as u64;
                if let Some(start) = self.start {
                    let since = done.saturating_duration_since(start);
                    let k = (since.as_nanos() / THROUGHPUT_BIN.as_nanos()) as usize;
                    if self.bins.len() <= k {
                        self.bins.resize(k + 1, 0);
                    }
                    self.bins[k] += bytes as u64;
                }
            }
            Verdict::Failed => self.failed += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }

    /// Latency of each accepted request from its due time, in ms, with
    /// the time it was due in seconds into the phase.
    pub fn latencies_ms(&self) -> Vec<(f64, f64)> {
        let start = self.start.unwrap_or_else(Instant::now);
        self.requests
            .iter()
            .map(|r| (r.due.saturating_duration_since(start).as_secs_f64(), ms(r.done - r.due)))
            .collect()
    }

    /// How late each submission started relative to its due time, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| ms(r.submit_start.saturating_duration_since(r.due))).collect()
    }

    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Throughput robust to bursts of interference on a shared machine: the
    /// bytes completed in each [`THROUGHPUT_BIN`] of the phase are counted,
    /// and the mean of the middle half of the bins (the interquartile mean)
    /// gives the rate. The partial bin at the end is left out.
    pub fn binned_mb_per_s(&self) -> f64 {
        let full = (self.elapsed.as_secs_f64() / THROUGHPUT_BIN.as_secs_f64()) as usize;
        if full < 3 || self.bins.is_empty() {
            return self.mb_per_s();
        }
        let mut per_bin: Vec<f64> =
            (0..full).map(|k| self.bins.get(k).copied().unwrap_or(0) as f64).collect();
        crate::stats::interquartile_mean(&mut per_bin) / 1e6 / THROUGHPUT_BIN.as_secs_f64()
    }

    /// Adds another phase's counts, time and requests to this one. The
    /// phases' bins do not line up, so a merged phase reports its mean rate.
    pub fn absorb(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.bytes += other.bytes;
        self.elapsed += other.elapsed;
        self.start = self.start.or(other.start);
        self.requests.extend(other.requests);
        self.bins.clear();
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sizes and checks the requests of a load phase.
pub trait Requests<P: Pending> {
    /// What a submission hands to the server, prepared before the submit
    /// call is timed (copying a document is the client's cost).
    type Input: Send;
    fn next_doc(&mut self) -> usize;
    fn size(&self, doc: usize) -> usize;
    fn input(&self, doc: usize) -> Self::Input;
    fn submit(&self, input: Self::Input) -> Result<P, SpannerError>;
    fn check(&self, doc: usize, out: P::Out) -> Verdict;
}

/// Closed loop: keeps `in_flight` requests outstanding for `span`, sending
/// the next one whenever the oldest completes, then waits for the rest.
/// `on_done` sees each accepted request as it completes, inside the phase;
/// the phase keeps no per-request record.
pub fn closed_loop<P: Pending, Q: Requests<P>>(
    q: &mut Q,
    in_flight: usize,
    span: Duration,
    mut on_done: impl FnMut(&RequestTimes),
) -> PhaseStats {
    let start = Instant::now();
    let mut stats = PhaseStats { start: Some(start), ..PhaseStats::default() };
    let mut outstanding: VecDeque<(P, RequestTimes)> = VecDeque::with_capacity(in_flight);
    let stop = start + span;
    loop {
        let now = Instant::now();
        while now < stop && outstanding.len() < in_flight {
            let doc = q.next_doc();
            let input = q.input(doc);
            let submit_start = Instant::now();
            let submitted = q.submit(input);
            let submit_end = Instant::now();
            stats.attempted += 1;
            match submitted {
                Ok(p) => {
                    let seq = p.seq();
                    let times = RequestTimes {
                        doc,
                        seq,
                        due: submit_start,
                        submit_start,
                        submit_end,
                        done: submit_end,
                    };
                    outstanding.push_back((p, times));
                }
                Err(_) => stats.settle(Verdict::Failed, 0, submit_end),
            }
        }
        let Some((p, mut times)) = outstanding.pop_front() else { break };
        let out = p.wait();
        times.done = Instant::now();
        stats.settle(q.check(times.doc, out), q.size(times.doc), times.done);
        on_done(&times);
    }
    stats.elapsed = start.elapsed();
    stats
}

/// Open loop: one thread sends request `i` at `start + schedule[i]`
/// whatever the server's state, another observes completions. Latency runs
/// from the due time to the moment the result is observed; completions are
/// observed as they happen, not in submission order.
pub fn open_loop<P: Pending, Q: Requests<P> + Sync>(
    q: &Q,
    docs: &[usize],
    schedule: &[Duration],
) -> PhaseStats
where
    P::Out: Send,
{
    // A completion is observed within this long of the collector's last
    // look; the oldest request is waited on directly, so it is exact.
    const POLL: Duration = Duration::from_micros(100);
    let start = Instant::now();
    let mut stats = PhaseStats { start: Some(start), ..PhaseStats::default() };
    let (tx, rx) = mpsc::channel::<(P, RequestTimes)>();
    let refused = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut refused = 0u64;
            for (&doc, &offset) in docs.iter().zip(schedule) {
                let input = q.input(doc);
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submit_start = Instant::now();
                let submitted = q.submit(input);
                let submit_end = Instant::now();
                match submitted {
                    Ok(p) => {
                        let seq = p.seq();
                        let times = RequestTimes {
                            doc,
                            seq,
                            due,
                            submit_start,
                            submit_end,
                            done: submit_end,
                        };
                        tx.send((p, times)).expect("collector outlives the sender");
                    }
                    Err(_) => refused += 1,
                }
            }
            refused
        });
        let mut outstanding: Vec<(P, RequestTimes)> = Vec::new();
        let mut open = true;
        while open || !outstanding.is_empty() {
            if outstanding.is_empty() {
                match rx.recv() {
                    Ok(item) => outstanding.push(item),
                    Err(_) => open = false,
                }
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(item) => outstanding.push(item),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            if let Some(out) = outstanding[0].0.wait_up_to(POLL) {
                let (_, mut times) = outstanding.remove(0);
                times.done = Instant::now();
                stats.settle(q.check(times.doc, out), q.size(times.doc), times.done);
                stats.requests.push(times);
            }
            let mut i = 0;
            while i < outstanding.len() {
                if outstanding[i].0.is_done() {
                    let (p, mut times) = outstanding.remove(i);
                    times.done = Instant::now();
                    let out = p.wait();
                    stats.settle(q.check(times.doc, out), q.size(times.doc), times.done);
                    stats.requests.push(times);
                } else {
                    i += 1;
                }
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    stats.attempted = stats.requests.len() as u64 + refused;
    stats.failed += refused;
    stats.elapsed = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn stratified_pareto_sizes_keep_their_tail() {
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = pareto_sizes(&mut rng, 1000, 100, 10_000, 1.2);
        assert_eq!(sizes.len(), 1000);
        assert!(sizes.iter().all(|&s| (100..=10_000).contains(&s)));
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        // Stratification: the largest size sits in the top 1/1000 slice.
        assert!(sorted[999] > 8_000, "max {}", sorted[999]);
        assert!(sorted[500] < 300, "median {}", sorted[500]);
        let mut again = StdRng::seed_from_u64(1);
        assert_eq!(pareto_sizes(&mut again, 1000, 100, 10_000, 1.2), sizes);
    }

    #[test]
    fn binned_throughput_ignores_a_burst() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let mut p = PhaseStats {
            start: Some(start),
            elapsed: Duration::from_millis(1050),
            ..PhaseStats::default()
        };
        // 1 MB in each 100 ms bin, except a 9 MB burst in one bin and a
        // completion in the trailing partial bin; the burst falls in the
        // top quarter of bins and is left out.
        for k in 0..10 {
            p.settle(Verdict::Ok, if k == 3 { 9_000_000 } else { 1_000_000 }, at(100 * k + 50));
        }
        p.settle(Verdict::Ok, 5_000_000, at(1020));
        assert!((p.binned_mb_per_s() - 10.0).abs() < 1e-9);
        assert!(p.mb_per_s() > 20.0);
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = poisson_schedule(&mut rng, 1000.0, Duration::from_secs(10));
        assert!((9_500..10_500).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_prefers_low_indices_and_cycle_visits_each_once_per_pass() {
        let z = Zipf::new(24, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0usize; 24];
        for _ in 0..24_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 4 * hits[23]);
        let mut pass: Vec<usize> = Cycle::new(4, 10).take(10).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..10).collect::<Vec<_>>());
    }

    /// A ticket the test completes by hand.
    struct Manual(Arc<(Mutex<Option<u32>>, Condvar)>);

    impl Pending for Manual {
        type Out = u32;
        fn seq(&self) -> Option<usize> {
            None
        }
        fn is_done(&self) -> bool {
            self.0 .0.lock().unwrap().is_some()
        }
        fn wait_up_to(&self, timeout: Duration) -> Option<u32> {
            let guard = self.0 .0.lock().unwrap();
            let (guard, _) = self.0 .1.wait_timeout_while(guard, timeout, |v| v.is_none()).unwrap();
            *guard
        }
        fn wait(self) -> u32 {
            let guard = self.0 .0.lock().unwrap();
            self.0 .1.wait_while(guard, |v| v.is_none()).unwrap().expect("completed")
        }
    }

    /// A server whose first request takes `stall` to answer and whose first
    /// submit call blocks for `submit_stall`; every other request is
    /// answered at once.
    struct Stalling {
        stall: Duration,
        submit_stall: Duration,
    }

    impl Requests<Manual> for Stalling {
        type Input = usize;
        fn next_doc(&mut self) -> usize {
            0
        }
        fn size(&self, _: usize) -> usize {
            1
        }
        fn input(&self, doc: usize) -> usize {
            doc
        }
        fn submit(&self, doc: usize) -> Result<Manual, SpannerError> {
            let cell = Arc::new((Mutex::new(None), Condvar::new()));
            let done = Arc::clone(&cell);
            let delay = if doc == 0 { self.stall } else { Duration::ZERO };
            if doc == 0 {
                std::thread::sleep(self.submit_stall);
            }
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                *done.0.lock().unwrap() = Some(7);
                done.1.notify_all();
            });
            Ok(Manual(cell))
        }
        fn check(&self, _: usize, out: u32) -> Verdict {
            if out == 7 {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // The first request stalls 60 ms. A second request due 10 ms in is
        // answered at once, so its latency stays small even though the
        // oldest request is still outstanding: completions are observed out
        // of order, and each latency runs from its own due time.
        let q = Stalling { stall: Duration::from_millis(60), submit_stall: Duration::ZERO };
        let schedule = [Duration::ZERO, Duration::from_millis(10)];
        let stats = open_loop(&q, &[0, 1], &schedule);
        assert_eq!((stats.attempted, stats.failed, stats.wrong), (2, 0, 0));
        let by_doc = |d: usize| stats.requests.iter().find(|r| r.doc == d).unwrap();
        let (first, second) = (by_doc(0), by_doc(1));
        assert!(ms(first.done - first.due) >= 60.0);
        assert!(ms(second.done - second.due) < 40.0, "{:?}", second.done - second.due);
        assert!(second.done < first.done, "the later request is observed first");
    }

    #[test]
    fn open_loop_latency_includes_generator_lateness() {
        // The first submit call blocks for 40 ms, so the request due at 5 ms
        // goes out about 35 ms late. The server answers it at once, yet its
        // latency counts the wait from its due time.
        let q = Stalling { stall: Duration::ZERO, submit_stall: Duration::from_millis(40) };
        let schedule = [Duration::ZERO, Duration::from_millis(5)];
        let stats = open_loop(&q, &[0, 1], &schedule);
        let late = stats.requests.iter().find(|r| r.doc == 1).unwrap();
        assert!(ms(late.submit_start - late.due) >= 30.0);
        assert!(ms(late.done - late.due) >= 30.0);
        let mut lateness = stats.lateness_ms();
        assert!(crate::stats::percentile(&mut lateness, 1.0) >= 30.0);
    }
}
