//! The few statistics the ledger reports, in one place so every
//! workload and `compare` use the same conventions: nearest-rank
//! percentiles (a reported value is always an observed one), medians of
//! per-chunk costs for host time (one descheduled chunk moves a mean by
//! its whole length and the median not at all), and quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the acceptance
//! driver uses that function, so `compare` must agree with it).

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice: every caller has samples or has already
/// failed the run.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Geometric mean of positive values (the GEOMEAN bar of Fig. 10/11).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `(q1, median, q3)` by the exclusive method (`(n + 1) * k / 4`), the
/// default of Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Five samples: p50 is the third, p99 the last.
        let w = [1.0, 2.0, 3.0, 4.0, 50.0];
        assert_eq!(percentile(&w, 0.5), 3.0);
        assert_eq!(percentile(&w, 0.99), 50.0);
    }

    #[test]
    fn chunk_median_ignores_one_stalled_chunk() {
        // µs per call of five chunks, one of which was descheduled.
        let mut per_call = [2.0, 2.1, 1.9, 900.0, 2.05];
        assert_eq!(median(&mut per_call), 2.05);
        let mean = per_call.iter().sum::<f64>() / 5.0;
        assert!(mean > 180.0, "the mean carries the stall: {mean}");
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.02, 1.05, 1.03]) - 1.033_258_9).abs() < 1e-6);
    }

    #[test]
    fn quartiles_agree_with_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((q1, q2, q3), (1.0, 3.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
