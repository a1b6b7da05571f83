//! Metric arithmetic shared by every workload: the tail-percentile rule,
//! SLO attainment with refused requests counted as misses, absolute
//! percentage error and the failure share.

/// Samples that must lie beyond a reported percentile for it to count as
/// supported by the sample.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample under the tail rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub percentile: f64,
    /// Its value (nearest rank); `+∞` when it falls among missed requests.
    pub value: f64,
    /// How many samples it was read from.
    pub samples: usize,
}

impl Tail {
    /// `p99.0 of 2160` — the label printed next to a tail value.
    pub fn label(&self) -> String {
        format!("p{:.1} of {}", self.percentile, self.samples)
    }
}

/// The highest percentile, no higher than `wanted`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it (0 when `n` is too small for
/// any).
pub fn supported_percentile(wanted: f64, n: usize) -> f64 {
    if n <= MIN_BEYOND {
        return 0.0;
    }
    let cap = 100.0 * (1.0 - MIN_BEYOND as f64 / n as f64);
    wanted.min(cap).max(0.0)
}

/// Nearest-rank percentile of an ascending, non-empty sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps `p = 100(1 - 10/n)` from rounding up a rank and
    // leaving only nine samples beyond it.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Percentile `wanted` of `samples` under the tail rule; `None` for an
/// empty sample.
pub fn tail(samples: &[f64], wanted: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = supported_percentile(wanted, sorted.len());
    Some(Tail {
        percentile,
        value: nearest_rank(&sorted, percentile),
        samples: sorted.len(),
    })
}

/// Latencies of every attempted request: the served ones, then one `+∞`
/// per refused request, so a refusal counts as missing any limit.
pub fn with_misses(served: &[f64], refused: u64) -> Vec<f64> {
    let mut all = Vec::with_capacity(served.len() + refused as usize);
    all.extend_from_slice(served);
    all.extend(std::iter::repeat_n(f64::INFINITY, refused as usize));
    all
}

/// Share (%) of `latencies` at or under `limit`; `None` when empty.
pub fn attainment_pct(latencies: &[f64], limit: f64) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    let ok = latencies.iter().filter(|&&l| l <= limit).count();
    Some(100.0 * ok as f64 / latencies.len() as f64)
}

/// Absolute percentage error of `predicted` against `actual`; `None` when
/// the actual value is zero or either value is not finite.
pub fn ape_pct(predicted: f64, actual: f64) -> Option<f64> {
    if actual == 0.0 || !actual.is_finite() || !predicted.is_finite() {
        return None;
    }
    Some(100.0 * ((predicted - actual) / actual).abs())
}

/// Mean APE over the pairs that have one; `None` when none do.
pub fn mean_ape_pct(pairs: impl IntoIterator<Item = (f64, f64)>) -> Option<f64> {
    let (sum, n) = pairs
        .into_iter()
        .filter_map(|(p, a)| ape_pct(p, a))
        .fold((0.0, 0usize), |(s, n), e| (s + e, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// Share (%) of attempted operations that failed; `None` when nothing
/// was attempted.
pub fn failed_pct(attempted: u64, failed: u64) -> Option<f64> {
    (attempted > 0).then(|| 100.0 * failed as f64 / attempted as f64)
}

/// Median of a non-empty sample (the mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}
