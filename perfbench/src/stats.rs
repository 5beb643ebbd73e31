//! The harness's own arithmetic: order-statistic percentiles with the
//! "ten samples beyond" sizing rule, medians and geometric means.

/// Samples that must lie strictly beyond a reported percentile, so a tail
/// figure never rests on one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it (rank `ceil(q * n)`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
    sorted[rank(sorted.len(), q).max(1) - 1]
}

/// The 1-based rank of the `q` order statistic among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // Round away float error first: 0.99 * 1000 is 989.999… in binary.
    let exact = (q * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).min(n)
}

/// How many samples lie strictly beyond the `q` order statistic of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The smallest sample count whose `q` percentile has [`TAIL_SAMPLES`]
/// samples beyond it (1000 for p99).
pub fn min_samples(q: f64) -> usize {
    let mut n = 1;
    while beyond(n, q) < TAIL_SAMPLES {
        n += 1;
    }
    n
}

/// Median of an unsorted sample (the lower middle for an even count, so
/// the result is always an observed value).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    assert!(xs.iter().all(|x| *x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A latency sample in nanoseconds, summarised in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    pub ns: Vec<u64>,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.ns.iter().map(|n| *n as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` percentile in ms; `None` when the sample is too small for
    /// [`TAIL_SAMPLES`] to lie beyond it.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        (self.len() >= min_samples(q)).then(|| percentile(&self.sorted_ms(), q))
    }
}

/// Window length. `kernels_per_s` is the median rate and `p50_ms` the
/// median of the per-window medians over a phase's windows, so a burst of
/// stolen CPU time on a shared VM moves one window rather than the figure.
pub const WINDOW_S: f64 = 1.0;
/// A window's median counts only with this many samples in it.
const WINDOW_MIN_SAMPLES: usize = 10;

/// One window of a phase: ops completed (fractions allowed), the seconds
/// it spans and the latencies of the ops that completed in it.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub ops: f64,
    pub secs: f64,
    lat_ms: Vec<f64>,
}

/// One timed phase: every op latency, grouped into windows.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub lat: Latencies,
    pub windows: Vec<Window>,
}

impl Phase {
    /// Record an op that completed in the last window.
    pub fn push(&mut self, latency_ns: u64) {
        self.lat.push(latency_ns);
        let w = self.windows.last_mut().expect("push into an open window");
        w.ops += 1.0;
        w.lat_ms.push(latency_ns as f64 / 1e6);
    }

    /// Phase from concurrent ops given as `(latency ns, completion s)`:
    /// [`WINDOW_S`] bins over `wall_s`, each op counted in every bin by the
    /// share of its interval that falls there. A trailing part bin is
    /// dropped.
    pub fn binned(ops: &[(u64, f64)], wall_s: f64) -> Phase {
        let n = (wall_s / WINDOW_S) as usize;
        let mut p = Phase {
            windows: vec![
                Window {
                    secs: WINDOW_S,
                    ..Window::default()
                };
                n
            ],
            ..Phase::default()
        };
        for &(ns, end) in ops {
            p.lat.push(ns);
            let lat_s = ns as f64 / 1e9;
            let start = (end - lat_s).max(0.0);
            if let Some(w) = p.windows.get_mut((end / WINDOW_S) as usize) {
                w.lat_ms.push(ns as f64 / 1e6);
            }
            let first = (start / WINDOW_S) as usize;
            for (b, w) in p.windows.iter_mut().enumerate().skip(first) {
                let lo = b as f64 * WINDOW_S;
                if lo > end {
                    break;
                }
                w.ops += if lat_s > 0.0 {
                    ((lo + WINDOW_S).min(end) - lo.max(start)).max(0.0) / lat_s
                } else {
                    1.0
                };
            }
        }
        p
    }

    pub fn wall_s(&self) -> f64 {
        self.windows.iter().map(|w| w.secs).sum()
    }

    /// Completed ops per second: the median window rate, or the overall
    /// rate when the phase has fewer than three windows.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.windows.iter().map(|w| w.ops / w.secs).collect();
        if rates.len() < 3 {
            let ops: f64 = self.windows.iter().map(|w| w.ops).sum();
            return ops / self.wall_s();
        }
        median(&rates)
    }

    /// Tail latency: consecutive windows are grouped until each group
    /// holds enough ops for its p99 to have [`TAIL_SAMPLES`] beyond it, and
    /// the median of the groups' p99s is reported — or the p99 of all ops
    /// when there are fewer than three groups. One slow stretch of the
    /// machine then moves one group, not the tail.
    pub fn p99_ms(&self) -> Option<f64> {
        let need = min_samples(0.99);
        let mut p99s = Vec::new();
        let mut group: Vec<f64> = Vec::new();
        for w in &self.windows {
            group.extend(&w.lat_ms);
            if group.len() >= need {
                group.sort_by(f64::total_cmp);
                p99s.push(percentile(&group, 0.99));
                group.clear();
            }
        }
        if p99s.len() >= 3 {
            Some(median(&p99s))
        } else {
            self.lat.percentile_ms(0.99)
        }
    }

    /// Median latency: the median of the per-window medians, or of all
    /// ops when fewer than three windows hold enough samples.
    pub fn p50_ms(&self) -> Option<f64> {
        let medians: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.lat_ms.len() >= WINDOW_MIN_SAMPLES)
            .map(|w| median(&w.lat_ms))
            .collect();
        if medians.len() >= 3 {
            Some(median(&medians))
        } else {
            self.lat.percentile_ms(0.5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        let mut l = Latencies::default();
        for i in 0..999 {
            l.push(i * 1_000_000);
        }
        assert_eq!(l.percentile_ms(0.99), None);
        l.push(999_000_000);
        assert_eq!(l.percentile_ms(0.99), Some(989.0));
        assert_eq!(l.percentile_ms(0.5), Some(499.0));
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        let mut p = Phase::default();
        // 10 ops per 1-s window, except a stalled third window with 1 op.
        for w in 0..5 {
            p.windows.push(Window {
                secs: 1.0,
                ..Window::default()
            });
            for _ in 0..if w == 2 { 1 } else { 10 } {
                p.push(1);
            }
        }
        assert_eq!(p.ops_per_s(), 10.0);
        p.windows.truncate(2);
        assert_eq!(p.ops_per_s(), 10.0);
        p.windows[1].ops = 0.0;
        assert_eq!(p.ops_per_s(), 5.0);
    }

    #[test]
    fn binned_ops_count_by_overlap() {
        // A 1-s op ending at 1.5 s is half in each of the first two bins;
        // two 0.1-s ops sit wholly in the third; the part bin is dropped.
        let ms = 1_000_000;
        let p = Phase::binned(&[(1000 * ms, 1.5), (100 * ms, 2.5), (100 * ms, 2.7)], 3.4);
        let ops: Vec<f64> = p.windows.iter().map(|w| w.ops).collect();
        assert_eq!(ops.len(), 3);
        assert!(
            (ops[0] - 0.5).abs() < 1e-9 && (ops[1] - 0.5).abs() < 1e-9,
            "{ops:?}"
        );
        assert!((ops[2] - 2.0).abs() < 1e-9, "{ops:?}");
        assert_eq!(p.lat.len(), 3);
        assert!((p.wall_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p50_is_the_median_of_window_medians() {
        let mut p = Phase::default();
        // Five windows of 20 ops at w+1 ms, except a slow window 1 (10 ms):
        // window medians 1, 10, 3, 4, 5 ms.
        for w in 0..5u64 {
            p.windows.push(Window {
                secs: 1.0,
                ..Window::default()
            });
            for k in 0..20u64 {
                let ms = if w == 1 { 10 } else { w + 1 };
                p.push(ms * 1_000_000 + k);
            }
        }
        let m = p.p50_ms().unwrap();
        assert!((m - 4.0).abs() < 1e-3, "{m}");
        // Windows with too few samples fall back to the plain median.
        let sparse = Phase::binned(
            &(0..30u64)
                .map(|k| (k * 1_000_000, k as f64 / 5.0))
                .collect::<Vec<_>>(),
            6.0,
        );
        assert_eq!(sparse.p50_ms(), sparse.lat.percentile_ms(0.5));
    }

    #[test]
    fn p99_is_the_median_over_groups_of_a_thousand() {
        // Four windows of 1000 ops; the third has a slow tail of 50 ops.
        let mut p = Phase::default();
        for w in 0..4u64 {
            p.windows.push(Window {
                secs: 1.0,
                ..Window::default()
            });
            for k in 0..1000u64 {
                let ms = if w == 2 && k >= 950 { 100 } else { 1 + k / 500 };
                p.push(ms * 1_000_000);
            }
        }
        // Each group's p99 is op 990 of 1000: 2 ms, except the slow group.
        assert_eq!(p.p99_ms(), Some(2.0));
        assert_eq!(p.lat.percentile_ms(0.99), Some(100.0));
        // Too few ops for three groups: the plain p99.
        p.windows.truncate(2);
        p.lat.ns.truncate(2000);
        assert_eq!(p.p99_ms(), Some(2.0));
    }

    #[test]
    fn geomean_of_the_table1_adaptor_latencies() {
        let t1 = [
            31317.0, 1977.0, 2491.0, 2101.0, 3911.0, 63655.0, 4229.0, 19283.0, 957.0, 4415.0,
        ];
        let g = geomean(&t1);
        assert!((g - 5551.319).abs() < 1e-3, "{g}");
        assert_eq!(geomean(&[2.0, 8.0]), 4.0);
    }
}
