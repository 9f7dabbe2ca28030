//! Order statistics used by every workload: the median, and the tail
//! rule — the highest percentile that still has at least ten samples
//! beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported, even when more samples would allow
/// a higher one.
pub const TAIL_CAP_PCT: f64 = 99.0;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 99]`.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the reported rank (always ≥ 10).
    pub beyond: usize,
}

/// The highest percentile (capped at p99) whose nearest-rank value has
/// at least [`TAIL_BEYOND`] samples beyond it, or `None` with fewer
/// than `TAIL_BEYOND + 1` samples.
///
/// With `n` sorted samples the value at 1-based rank `k` has `n − k`
/// samples beyond it, so the highest admissible rank is `n − 10`, the
/// `100·(n − 10)/n`-th percentile. Past 1000 samples that exceeds 99,
/// and the rank of p99, `ceil(0.99·n)`, is used instead.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let max_rank = n - TAIL_BEYOND;
    let cap_rank = (TAIL_CAP_PCT / 100.0 * n as f64).ceil() as usize;
    let rank = max_rank.min(cap_rank);
    let pct = if rank == cap_rank {
        TAIL_CAP_PCT
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        pct,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).expect("eleven samples admit a tail");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond_below_the_cap() {
        for n in [11, 50, 400, 999, 1000] {
            let t = tail(&ramp(n)).expect("enough samples");
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
            assert!(t.pct <= TAIL_CAP_PCT);
        }
        assert_eq!(tail(&ramp(400)).map(|t| t.pct), Some(97.5));
        assert_eq!(tail(&ramp(1000)).map(|t| t.pct), Some(99.0));
    }

    #[test]
    fn tail_caps_at_p99_with_more_than_ten_beyond() {
        let t = tail(&ramp(5000)).expect("enough samples");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.beyond, 50);
        assert!(t.beyond >= TAIL_BEYOND);
    }
}
