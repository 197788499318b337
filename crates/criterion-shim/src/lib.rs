//! A self-contained, dependency-free subset of the `criterion` benchmarking
//! API, used because this workspace builds in offline environments where the
//! real crates-io `criterion` cannot be fetched.
//!
//! It implements the surface the `spanners-bench` targets rely on —
//! `criterion_group!` / `criterion_main!`, benchmark groups with
//! `sample_size` / `measurement_time` / `warm_up_time` / `throughput`,
//! `bench_function` / `bench_with_input`, and `Bencher::iter` — with a real
//! wall-clock harness: each benchmark is warmed up, then sampled, and the
//! per-iteration mean plus throughput is printed in a criterion-like format.
//! The first command-line argument that is not a flag filters groups by
//! name: `cargo bench --bench evaluation -- e12_` measures only the groups
//! whose names contain `e12_`.
//!
//! Swapping the workspace back to the real criterion is a one-line change in
//! `crates/bench/Cargo.toml`; no bench source needs to change.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Throughput annotation for a benchmark: how much work one iteration does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iteration processes this many bytes.
    Bytes(u64),
    /// Iteration processes this many bytes (reported in decimal multiples).
    BytesDecimal(u64),
    /// Iteration produces/consumes this many items.
    Elements(u64),
}

/// Identifier of a single benchmark within a group: a function name plus a
/// parameter rendered with `Display`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    /// Just the parameter, for groups benchmarking a single function.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Calls `routine` the configured number of times, timing the whole batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark driver. [`Criterion::default`] measures every group;
/// [`Criterion::configure_from_args`] reads a group-name filter from the
/// command line. All other tuning happens per group.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Substring a group name must contain for the group to be measured.
    filter: Option<String>,
}

/// The group-name filter in a benchmark binary's arguments (program name
/// excluded): the first one that is not a flag. `cargo bench` passes
/// `--bench` ahead of the arguments after `--`.
fn filter_from<I: IntoIterator<Item = String>>(args: I) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

impl Criterion {
    /// Takes the group-name filter from the command line, as
    /// `criterion_main!` does: groups whose names do not contain it measure
    /// nothing.
    pub fn configure_from_args(self) -> Self {
        Criterion { filter: filter_from(std::env::args().skip(1)) }
    }

    /// Opens a named benchmark group. A group the filter excludes prints
    /// nothing and runs none of its benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let enabled = self.filter.as_deref().is_none_or(|f| name.contains(f));
        if enabled {
            println!("\n{name}");
        }
        BenchmarkGroup {
            enabled,
            _criterion: self,
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
            throughput: None,
        }
    }

    /// Single benchmark outside a group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let mut group = self.benchmark_group(id);
        group.bench_function(BenchmarkId::from("run"), f);
        group.finish();
        self
    }

    /// Called by `criterion_main!` after all groups have run.
    pub fn final_summary(&mut self) {}
}

/// A group of related benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    /// Whether the group's name passed the filter.
    enabled: bool,
    _criterion: &'a mut Criterion,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Target total measurement time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the per-iteration throughput of subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f`, passing it only a [`Bencher`].
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        if self.enabled {
            let report = self.run(&mut f);
            self.print(&id.into(), report);
        }
        self
    }

    /// Benchmarks `f`, passing it a [`Bencher`] and `input`.
    pub fn bench_with_input<I, D: Into<BenchmarkId>, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: D,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        if self.enabled {
            let report = self.run(&mut |b: &mut Bencher| f(b, input));
            self.print(&id.into(), report);
        }
        self
    }

    /// Ends the group (prints nothing extra; kept for API compatibility).
    pub fn finish(self) {}

    /// Runs warm-up, picks an iteration count targeting
    /// `measurement_time / sample_size` per sample, and returns the best
    /// (minimum) per-iteration time across samples.
    fn run<F: FnMut(&mut Bencher)>(&self, f: &mut F) -> Duration {
        // Warm-up: run single iterations until the warm-up budget is spent,
        // estimating the per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut per_iter = Duration::MAX;
        loop {
            let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
            f(&mut b);
            per_iter = per_iter.min(b.elapsed.max(Duration::from_nanos(1)));
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Choose iterations per sample so one sample is ~measurement/sample_size.
        let sample_budget = self.measurement_time.as_nanos() / self.sample_size as u128;
        let iters = (sample_budget / per_iter.as_nanos().max(1)).clamp(1, u64::MAX as u128) as u64;
        let mut best = Duration::MAX;
        for _ in 0..self.sample_size {
            let mut b = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut b);
            let per = b.elapsed / iters.max(1) as u32;
            best = best.min(per);
        }
        best
    }

    fn print(&self, id: &BenchmarkId, per_iter: Duration) {
        let time = fmt_duration(per_iter);
        match self.throughput {
            Some(Throughput::Bytes(n)) | Some(Throughput::BytesDecimal(n)) => {
                let rate = n as f64 / per_iter.as_secs_f64().max(f64::MIN_POSITIVE);
                println!("  {:<44} {:>12}/iter  {:>14}/s", id.id, time, fmt_bytes(rate));
            }
            Some(Throughput::Elements(n)) => {
                let rate = n as f64 / per_iter.as_secs_f64().max(f64::MIN_POSITIVE);
                println!("  {:<44} {:>12}/iter  {:>11.3e} elem/s", id.id, time, rate);
            }
            None => println!("  {:<44} {:>12}/iter", id.id, time),
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Byte throughput is always reported in decimal MB/s (with enough precision
/// at the low end), so throughput numbers for the E1/E9 experiments can be
/// compared across runs and read straight out of CI logs without unit
/// juggling.
fn fmt_bytes(rate: f64) -> String {
    let mb = rate / 1e6;
    if mb >= 100.0 {
        format!("{mb:.1} MB")
    } else if mb >= 0.01 {
        format!("{mb:.2} MB")
    } else {
        format!("{mb:.4} MB")
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_times_something() {
        let mut b = Bencher { iters: 10, elapsed: Duration::ZERO };
        b.iter(|| black_box(21u64 * 2));
        assert!(b.elapsed >= Duration::ZERO); // ran without panicking
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(2);
        group.measurement_time(Duration::from_millis(10));
        group.warm_up_time(Duration::from_millis(1));
        group.throughput(Throughput::Bytes(8));
        let mut ran = false;
        group.bench_with_input(BenchmarkId::new("sum", 8), &[1u64; 8].as_slice(), |b, xs| {
            ran = true;
            b.iter(|| xs.iter().sum::<u64>())
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn sampling_respects_measurement_budget_for_cheap_routines() {
        // Regression test: the warm-up estimator must track the *observed*
        // per-iteration cost. A bad estimate (e.g. 1 ns) once made the sample
        // loop run hundreds of millions of iterations for sub-µs routines.
        let start = Instant::now();
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_budget");
        group.sample_size(5);
        group.measurement_time(Duration::from_millis(50));
        group.warm_up_time(Duration::from_millis(5));
        group.bench_function(BenchmarkId::from("cheap"), |b| b.iter(|| black_box(1u64 + 1)));
        group.finish();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cheap benchmark blew through its measurement budget: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn filter_selects_groups_by_name_substring() {
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from(args(&["--bench", "e12_"])), Some("e12_".to_string()));
        assert_eq!(filter_from(args(&["--bench"])), None);
        assert_eq!(filter_from(args(&[])), None);

        let mut c = Criterion { filter: Some("e12_".to_string()) };
        let mut ran = Vec::new();
        for name in ["e1_preprocessing", "e12_skip_scan_vs_density"] {
            let mut group = c.benchmark_group(name);
            group.sample_size(1);
            group.measurement_time(Duration::from_millis(1));
            group.warm_up_time(Duration::ZERO);
            group.bench_function("run", |b| {
                ran.push(name);
                b.iter(|| black_box(1u64 + 1))
            });
            group.bench_with_input("input", &2u64, |b, x| {
                ran.push(name);
                b.iter(|| black_box(*x + 1))
            });
            group.finish();
        }
        assert!(ran.iter().all(|&name| name == "e12_skip_scan_vs_density"), "{ran:?}");
        assert!(!ran.is_empty(), "the matching group still measures");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).id, "f/10");
        assert_eq!(BenchmarkId::from_parameter(7).id, "7");
    }

    #[test]
    fn byte_throughput_is_reported_in_decimal_mb() {
        assert_eq!(fmt_bytes(52_428_800.0), "52.43 MB");
        assert_eq!(fmt_bytes(1.23e9), "1230.0 MB");
        assert_eq!(fmt_bytes(123_456.0), "0.12 MB");
        assert_eq!(fmt_bytes(500.0), "0.0005 MB");
    }
}
