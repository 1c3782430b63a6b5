//! Order statistics of a handful of timings.

/// Median and quartiles of a sample, as the suite reports every timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartile `i` (1..=3) of an ascending slice by the exclusive method —
/// the one Python's `statistics.quantiles(xs, n=4)` uses, so a spread
/// computed here equals one computed there. One sample is its own quartile.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarize a non-empty sample. NaNs are a caller bug and panic.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    Summary {
        n: s.len(),
        min: s[0],
        q1: quartile_sorted(&s, 1),
        median: quartile_sorted(&s, 2),
        q3: quartile_sorted(&s, 3),
        max: s[s.len() - 1],
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_and_singleton() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.0, 3.0, 3));
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn order_does_not_matter() {
        let a = summarize(&[5.0, 9.0, 1.0, 7.0, 3.0]);
        let b = summarize(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        assert_eq!(a, b);
        assert_eq!(a.median, 5.0);
        assert_eq!((a.q1, a.q3), (2.0, 8.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!((s.spread() - 1.2).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        summarize(&[]);
    }
}
