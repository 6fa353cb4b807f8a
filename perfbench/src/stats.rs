//! Latency summaries under one reporting rule: the median is always
//! reported, and a higher percentile only when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a tail figure never rests on a handful of
//! points.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The reportable percentiles of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, when at least [`MIN_BEYOND`] samples lie beyond it.
    pub p90: Option<f64>,
    /// 99th percentile, under the same rule.
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarises `samples` (any order). Empty input gives zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail =
            |p: f64| (n > 0 && samples_beyond(n, p) >= MIN_BEYOND).then(|| percentile(&sorted, p));
        Summary {
            n,
            p50: if n == 0 { 0.0 } else { median(&sorted) },
            p90: tail(90.0),
            p99: tail(99.0),
        }
    }

    /// `p50 …, p90 …, p99 …` for the report, `n/a` where a tail percentile
    /// does not qualify.
    pub fn describe(&self) -> String {
        let show = |v: Option<f64>| v.map_or("n/a (<10 beyond)".into(), |v| format!("{v:.3} ms"));
        format!(
            "p50 {:.3} ms, p90 {}, p99 {}",
            self.p50,
            show(self.p90),
            show(self.p99)
        )
    }

    /// The highest reportable percentile up to `percentile` (90 or 99) and
    /// its label; the median when no tail percentile qualifies.
    pub fn tail(&self, percentile: u8) -> (&'static str, f64) {
        match (self.p99, self.p90) {
            (Some(v), _) if percentile >= 99 => ("p99", v),
            (_, Some(v)) => ("p90", v),
            _ => ("p50", self.p50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let s = Summary::of(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.p90, None, "99 samples leave 9 beyond p90");
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.p90, Some(90.0));
        assert_eq!(s.p99, None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.tail(99), ("p99", 990.0));
        assert_eq!(s.tail(90), ("p90", 900.0));
        let twelve = Summary::of(&(1..=12).map(f64::from).collect::<Vec<_>>());
        assert_eq!(
            twelve.tail(90),
            ("p50", 6.5),
            "too few samples for any tail"
        );
    }

    #[test]
    fn reported_percentiles_are_ordered() {
        let mut x: u64 = 0x9e37_79b9;
        for n in [100usize, 250, 1000, 4321] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 10_000) as f64 / 7.0
                })
                .collect();
            let s = Summary::of(&samples);
            let p90 = s.p90.expect("n >= 100");
            assert!(s.p50 <= p90, "n={n}");
            if let Some(p99) = s.p99 {
                assert!(p90 <= p99, "n={n}");
            }
        }
    }
}
