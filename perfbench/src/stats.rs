//! Order statistics for the reported metrics.

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency: the highest percentile with at least ten samples
/// above it, with the percentile and the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The tail of `values`: the order statistic that has exactly ten
/// samples above it (percentile `100·(n−10)/n`). With 20 samples or
/// fewer that statistic is not above the median, so the maximum is
/// reported, as the 100th percentile, instead.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    if n <= 20 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), 10);
    }

    #[test]
    fn short_series_fall_back_to_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).value, 20.0);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v).value, 11.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
