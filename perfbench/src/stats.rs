//! Summary statistics for the harness: nearest-rank percentiles with the
//! sample-count rule, and the class-difference attribution.

use std::collections::BTreeMap;
use std::time::Instant;

use hpcfail_serve::load::percentile_nearest_rank;

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in (0, 1]); `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| percentile_nearest_rank(samples, q))
}

/// Median by nearest rank; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`] samples
/// lie beyond its rank, so one outlier cannot set it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let rank = (q * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// Median wall time of `n` calls of `f`, in seconds.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("n > 0")
}

/// Attribute cost to one axis by class difference: `timed` holds
/// `(class, axis value, time)` for every evaluated cell, where the class
/// names every other axis. For each class holding both `base` and
/// `variant`, take `time(variant) - time(base)`; return the median of
/// those differences and how many classes contributed.
pub fn class_difference<C: Ord + Clone, A: PartialEq>(
    timed: &[(C, A, f64)],
    base: &A,
    variant: &A,
) -> Option<(f64, usize)> {
    let mut pairs: BTreeMap<C, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for (class, axis, t) in timed {
        let slot = pairs.entry(class.clone()).or_default();
        if axis == base {
            slot.0 = Some(*t);
        } else if axis == variant {
            slot.1 = Some(*t);
        }
    }
    let diffs: Vec<f64> = pairs.values().filter_map(|&(b, v)| Some(v? - b?)).collect();
    median(&diffs).map(|m| (m, diffs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&xs, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: reportable.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(990.0));
        // Of 999 samples only 9 lie beyond the p99 rank.
        assert_eq!(tail(&xs[..999], 0.99), None);
        // A p90 needs only 100.
        assert_eq!(tail(&xs[..100], 0.9), Some(90.0));
        assert_eq!(tail(&xs[..99], 0.9), None);
    }

    #[test]
    fn class_difference_matches_pairs_within_a_class() {
        // Classes a, b, c; c lacks the variant and must not contribute.
        let timed = vec![
            ("a", "none", 10.0),
            ("a", "young", 13.0),
            ("b", "none", 20.0),
            ("b", "young", 21.0),
            ("b", "hazard", 40.0),
            ("c", "none", 5.0),
            ("d", "young", 7.0),
        ];
        let (young, n) = class_difference(&timed, &"none", &"young").unwrap();
        assert_eq!(n, 2);
        // Differences {3, 1}: nearest-rank median is the lower one.
        assert_eq!(young, 1.0);
        let (hazard, n) = class_difference(&timed, &"none", &"hazard").unwrap();
        assert_eq!((hazard, n), (20.0, 1));
        assert!(class_difference(&timed, &"none", &"missing").is_none());
    }
}
