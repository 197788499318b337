//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-percentile of `n` sorted
//! samples is the sample at rank `ceil(q·n)` (1-based), so exactly
//! `n - ceil(q·n)` samples lie beyond it. A percentile is only reported as
//! *supported* when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank 1-based rank of the `q`-percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples lying strictly beyond the `q`-percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support reporting the `q`-percentile.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Smallest sample count that supports the `q`-percentile.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| supports(n, q)).expect("some sample count supports any q < 1")
}

/// The nearest-rank `q`-percentile of `samples` (sorted in place); `0.0`
/// for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(samples.len(), q) - 1]
}

/// The median (mean of the two middle samples for an even count); `0.0`
/// for no samples.
pub fn median(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The mean of the middle half of `samples` (sorted in place): quartile
/// boundaries at nearest ranks, so the lowest and highest quarter are left
/// out. `0.0` for no samples.
pub fn interquartile_mean(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let middle = &samples[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Most time windows a run's latencies are cut into.
pub const MAX_WINDOWS: usize = 9;

/// How many equal time windows `samples` — `(seconds into the phase,
/// value)` over a phase of `span` seconds — can be cut into such that every
/// window supports the `q`-percentile (at most [`MAX_WINDOWS`], at least 1).
pub fn window_count(samples: &[(f64, f64)], span: f64, q: f64) -> usize {
    let most = (samples.len() / samples_needed(q)).clamp(1, MAX_WINDOWS);
    (1..=most)
        .rev()
        .find(|&w| w == 1 || windows(samples, span, w).iter().all(|win| supports(win.len(), q)))
        .expect("one window always qualifies")
}

fn windows(samples: &[(f64, f64)], span: f64, w: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); w];
    for &(t, v) in samples {
        let k = ((t / span * w as f64).max(0.0) as usize).min(w - 1);
        out[k].push(v);
    }
    out
}

/// The `q`-percentile taken within each of `w` equal time windows, and the
/// median over windows: a tail estimate that one slow stretch of a shared
/// machine cannot dominate.
pub fn windowed_percentile(samples: &[(f64, f64)], span: f64, w: usize, q: f64) -> f64 {
    let mut per: Vec<f64> =
        windows(samples, span, w).iter_mut().map(|win| percentile(win, q)).collect();
    median(&mut per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1500, 0.99), 15);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn reported_percentile_has_the_promised_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&mut v, 0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile(&mut v, 0.5), 500.0);
    }

    #[test]
    fn every_window_keeps_ten_samples_beyond_p99() {
        // 3500 evenly spread samples make 3 windows of about 1167; a
        // 300-sample burst at the end does not buy a fourth window.
        let mut samples: Vec<(f64, f64)> = (0..3500).map(|i| (i as f64 / 3500.0, 1.0)).collect();
        assert_eq!(window_count(&samples, 1.0, 0.99), 3);
        samples.extend((0..300).map(|_| (0.999, 1.0)));
        assert_eq!(window_count(&samples, 1.0, 0.99), 3);
        for win in windows(&samples, 1.0, 3) {
            assert!(beyond(win.len(), 0.99) >= MIN_BEYOND);
        }
        assert_eq!(window_count(&samples[..999], 1.0, 0.99), 1);
    }

    #[test]
    fn windowed_percentile_ignores_one_slow_window() {
        // Three windows; the middle one is ten times slower.
        let samples: Vec<(f64, f64)> = (0..3000)
            .map(|i| {
                let t = i as f64 / 3000.0;
                (t, if (1.0 / 3.0..2.0 / 3.0).contains(&t) { 10.0 } else { 1.0 })
            })
            .collect();
        let w = window_count(&samples, 1.0, 0.99);
        assert_eq!(w, 3);
        assert_eq!(windowed_percentile(&samples, 1.0, w, 0.99), 1.0);
        assert_eq!(windowed_percentile(&samples, 1.0, 1, 0.99), 10.0);
    }

    #[test]
    fn interquartile_mean_drops_both_outer_quarters() {
        assert_eq!(interquartile_mean(&mut [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&mut [2.0]), 2.0);
        assert_eq!(interquartile_mean(&mut []), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
    }
}
