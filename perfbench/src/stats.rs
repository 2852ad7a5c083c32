//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, i.e. the 11th-largest value.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at, `100 (n - 10) / n`.
    pub percentile: f64,
    /// False when the sample has ten or fewer values, so no percentile
    /// has ten samples beyond it; `value` is then the maximum.
    pub supported: bool,
}

/// See [`Tail`]. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    const BEYOND: usize = 10;
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n > BEYOND {
        Tail {
            value: s[n - BEYOND - 1],
            percentile: 100.0 * (n - BEYOND) as f64 / n as f64,
            supported: true,
        }
    } else {
        Tail {
            value: s[n - 1],
            percentile: 100.0,
            supported: false,
        }
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=1000: the 11th largest is 990, the 99th percentile
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert!(t.supported);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 1200 samples put the tail at p99.1(6), still ten beyond
        let xs: Vec<f64> = (0..1200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 1189.0);
        assert!((t.percentile - 100.0 * 1190.0 / 1200.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_eleven_is_the_minimum() {
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0);
        assert!(t.supported);
    }

    #[test]
    fn tail_without_ten_beyond_falls_back_to_the_maximum() {
        let t = tail(&[0.2, 0.5, 0.1]).unwrap();
        assert_eq!(t.value, 0.5);
        assert_eq!(t.percentile, 100.0);
        assert!(!t.supported);
        assert!(tail(&[]).is_none());
    }
}
