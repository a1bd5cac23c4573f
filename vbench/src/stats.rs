//! Percentiles with their sample counts, and the small aggregates the
//! per-layer metrics are built from.

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of latencies (any unit).
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

/// A percentile the sample is too small to support.
#[derive(Clone, Debug, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `0..100`.
    pub pct: f64,
    /// Samples taken.
    pub have: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it, fewer than {MIN_BEYOND}",
            self.pct, self.have, self.beyond
        )
    }
}

impl Sample {
    /// Takes ownership of the observations and sorts them.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// The sample count every percentile is reported with.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest sample count that supports percentile `pct`.
    #[cfg(test)]
    pub fn needed_for(pct: f64) -> usize {
        (1..)
            .find(|&n| beyond(pct, n) >= MIN_BEYOND)
            .unwrap_or(usize::MAX)
    }

    /// The nearest-rank percentile `pct` (`0 < pct < 100`), refused when
    /// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn percentile(&self, pct: f64) -> Result<f64, TooFewSamples> {
        let n = self.sorted.len();
        let beyond = beyond(pct, n);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(TooFewSamples {
                pct,
                have: n,
                beyond,
            });
        }
        Ok(self.sorted[rank(pct, n) - 1])
    }
}

/// 1-based nearest rank of percentile `pct` in `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly after the rank of `pct`.
fn beyond(pct: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(pct, n)
    }
}

/// The arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median of a few values (set-up repetitions); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(1000);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(50.0), Ok(500.0));
        assert_eq!(s.percentile(99.0), Ok(990.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(Sample::needed_for(99.0), 1000);
        assert!(ramp(1000).percentile(99.0).is_ok());
        let refused = ramp(999).percentile(99.0).unwrap_err();
        assert_eq!(refused.have, 999);
        assert_eq!(refused.beyond, 9);
        assert!(refused.to_string().contains("fewer than 10"));
    }

    #[test]
    fn small_samples_refuse_even_the_median() {
        assert!(ramp(19).percentile(50.0).is_err());
        assert_eq!(ramp(20).percentile(50.0), Ok(10.0));
        assert!(Sample::default().percentile(50.0).is_err());
    }

    #[test]
    fn aggregates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
