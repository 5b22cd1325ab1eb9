//! The benchmark's statistics: tail percentiles under the "ten samples
//! beyond" rule, geometric means, the knee-ladder rule and a seeded
//! generator for workload inputs.

/// A latency distribution summarised as the benchmark reports it: the
/// median and the highest percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples, failures included (they count as `+inf`).
    pub n: usize,
    pub p50: f64,
    /// The quantile the tail was taken at (0.99 with ≥ 1000 samples).
    pub tail_q: f64,
    pub tail: f64,
}

/// The tail quantile a sample count supports: p99 with at least 1000
/// samples, otherwise the highest quantile that leaves at least ten
/// samples beyond it. Fewer than eleven samples support only the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n > 10 {
        (n - 10) as f64 / n as f64
    } else {
        0.5
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest value with
/// at least `q·n` samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and supported tail of `samples` (any order; `+inf` marks a
/// failed request, which misses every latency limit).
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail_q: 0.5,
            tail: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(sorted.len());
    Summary {
        n: sorted.len(),
        p50: quantile_sorted(&sorted, 0.5),
        tail_q,
        tail: quantile_sorted(&sorted, tail_q),
    }
}

/// Samples per window of [`summarize_windows`].
pub const WINDOW: usize = 1000;

/// Where among its windows' figures a windowed summary is taken: the
/// quietest quarter's edge. The host's noise arrives in bursts of about a
/// second that slow every thread of the machine (a window's median
/// latency jumps from under 0.1 ms to 0.3–2 ms), so a summary over all
/// samples, or even the median window, measures how many bursts a run
/// happened to meet; the quartile of the quietest side measures the
/// program as long as a quarter of the run was quiet.
pub const QUIET_Q: f64 = 0.25;

/// The quiet quartile of per-window figures where lower is better (a
/// latency): the [`QUIET_Q`] quantile.
pub fn quiet_low(figures: &[f64]) -> f64 {
    let mut sorted = figures.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        quantile_sorted(&sorted, QUIET_Q)
    }
}

/// The quiet quartile of per-window figures where higher is better (a
/// rate): the `1 - QUIET_Q` quantile.
pub fn quiet_high(figures: &[f64]) -> f64 {
    let negated: Vec<f64> = figures.iter().map(|f| -f).collect();
    -quiet_low(&negated)
}

/// Like [`summarize`] for a long arrival-ordered series, robust to bursts
/// of host noise: the series is cut into consecutive windows of at least
/// [`WINDOW`] samples, and the median and the tail are each the quiet
/// quartile ([`quiet_low`]) of the windows' own. Returns the summary (its
/// `n` counts every sample) and the window count.
pub fn summarize_windows(samples: &[f64]) -> (Summary, usize) {
    let windows = (samples.len() / WINDOW).max(1);
    let whole = summarize(samples);
    if windows == 1 {
        return (whole, 1);
    }
    let size = samples.len() / windows;
    let each: Vec<Summary> = samples.chunks(size).take(windows).map(summarize).collect();
    let p50s: Vec<f64> = each.iter().map(|w| w.p50).collect();
    let tails: Vec<f64> = each.iter().map(|w| w.tail).collect();
    let quiet = Summary {
        p50: quiet_low(&p50s),
        tail: quiet_low(&tails),
        ..whole
    };
    (quiet, windows)
}

/// Rates over consecutive windows of `per_window` events, from the
/// ascending instants (in seconds) the events happened at.
pub fn window_rates(at_s: &[f64], per_window: usize) -> Vec<f64> {
    at_s.windows(per_window + 1)
        .step_by(per_window)
        .map(|w| per_window as f64 / (w[per_window] - w[0]))
        .filter(|r| r.is_finite())
        .collect()
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    spfeatures::geometric_mean(values).unwrap_or(0.0)
}

/// One rung of the ascending offered-rate ladder, as its median window
/// saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Correct answers delivered per second.
    pub delivered: f64,
    /// Requests shed, expired or answered wrongly.
    pub failed: u64,
    /// Tail latency from due time, milliseconds.
    pub tail_ms: f64,
    /// The generator gave up before the rung's last due time.
    pub cut_short: bool,
}

impl Rung {
    /// A rung passes when it ran to its end, nothing failed, at least
    /// 99% of the offered rate was delivered and the tail stayed under
    /// the latency limit.
    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.cut_short
            && self.failed == 0
            && self.delivered >= 0.99 * self.offered
            && self.tail_ms <= limit_ms
    }
}

/// The knee: the highest offered rate of the ascending ladder before its
/// first failing rung (`None` when the lowest rung already fails).
pub fn knee(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .last()
        .map(|r| r.offered)
}

/// SplitMix64: a small seeded generator, so the same `--seed` always
/// yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A dense vector of values in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Inverse-CDF sampler of a Zipf distribution over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// True when `got` equals `want` up to summation-order rounding.
pub fn same_vector(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * (1.0 + w.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(50_000), 0.99);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it_below_a_thousand() {
        for n in [11usize, 50, 200, 999] {
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let s = summarize(&samples);
            let beyond = samples.iter().filter(|&&v| v > s.tail).count();
            assert_eq!(beyond, 10, "n = {n}");
        }
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(10), 0.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
    }

    #[test]
    fn failures_push_the_tail_to_infinity() {
        let mut samples = vec![1.0; 990];
        samples.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(summarize(&samples).tail, 1.0);
        samples.push(f64::INFINITY);
        assert!(summarize(&samples).tail.is_infinite());
        assert_eq!(summarize(&samples).p50, 1.0);
    }

    #[test]
    fn windowed_figures_are_the_quiet_quartile_of_the_windows() {
        // Four windows of 1000; two carry bursts of slow samples, one so
        // long that it moves the window's median too.
        let mut samples = vec![1.0; 4000];
        for s in &mut samples[1000..1100] {
            *s = 50.0;
        }
        for s in &mut samples[2000..2600] {
            *s = 9.0;
        }
        let (s, windows) = summarize_windows(&samples);
        assert_eq!(windows, 4);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.tail, 1.0);
        assert_eq!(s.n, 4000);
        assert_eq!(summarize(&samples).tail, 50.0);
        let (short, one) = summarize_windows(&samples[..1500]);
        assert_eq!(one, 1);
        assert_eq!(short.tail, summarize(&samples[..1500]).tail);
    }

    #[test]
    fn quiet_quartiles_take_the_quiet_side() {
        let figures = [5.0, 1.0, 2.0, 9.0, 3.0, 4.0, 8.0, 7.0];
        assert_eq!(quiet_low(&figures), 2.0);
        assert_eq!(quiet_high(&figures), 8.0);
        assert_eq!(quiet_low(&[]), 0.0);
    }

    #[test]
    fn window_rates_count_events_over_each_window() {
        // Ten events per second for two seconds, then two per second.
        let mut at: Vec<f64> = (0..=20).map(|i| i as f64 / 10.0).collect();
        at.extend((1..=10).map(|i| 2.0 + i as f64 / 2.0));
        let rates = window_rates(&at, 10);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 10.0).abs() < 1e-9 && (rates[1] - 10.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    fn rung(offered: f64, delivered: f64, failed: u64, tail_ms: f64) -> Rung {
        Rung {
            offered,
            delivered,
            failed,
            tail_ms,
            cut_short: false,
        }
    }

    #[test]
    fn knee_is_the_last_passing_rung_before_the_first_failure() {
        let ladder = [
            rung(1000.0, 1000.0, 0, 1.0),
            rung(2000.0, 1995.0, 0, 2.0),
            rung(3000.0, 2900.0, 0, 3.0),
            // Passes again, but lies beyond the first failure.
            rung(4000.0, 4000.0, 0, 1.0),
        ];
        assert_eq!(knee(&ladder, 5.0), Some(2000.0));
    }

    #[test]
    fn knee_rejects_sheds_and_slow_tails() {
        let shed = [rung(1000.0, 1000.0, 0, 1.0), rung(2000.0, 2000.0, 1, 1.0)];
        assert_eq!(knee(&shed, 5.0), Some(1000.0));
        let slow = [rung(1000.0, 1000.0, 0, 1.0), rung(2000.0, 2000.0, 0, 6.0)];
        assert_eq!(knee(&slow, 5.0), Some(1000.0));
        assert_eq!(knee(&slow[..1], 0.5), None);
    }

    #[test]
    fn knee_rejects_a_rung_cut_short() {
        let cut = Rung {
            cut_short: true,
            ..rung(2000.0, 2000.0, 0, 1.0)
        };
        assert_eq!(
            knee(&[rung(1000.0, 1000.0, 0, 1.0), cut], 5.0),
            Some(1000.0)
        );
    }

    #[test]
    fn zipf_head_is_most_popular_and_seeded() {
        let z = Zipf::new(124, 1.1);
        let mut rng = Rng::new(7);
        let mut counts = vec![0usize; 124];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
