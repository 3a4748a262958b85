//! Load-generation helpers shared by the serve tests and the benchmark.
//!
//! [`stratum_pool`] is the fixed set of analysis paths a load client
//! draws from; `tests/serve_cache.rs` replays it against the cache and
//! `perfbench`'s `serve_mixed` workload sends it as its hot class.
//! [`percentile_nearest_rank`] is the deterministic nearest-rank
//! percentile (sorted by `total_cmp`), so a latency report over the same
//! sample set is byte-stable whatever order the samples arrived in.

/// The fixed stratum pool clients draw from. Small by design: repeated
/// draws from a pool of this size are what drives the cache hit rate
/// ≥95% once every stratum has been computed once.
pub fn stratum_pool(tenant: &str) -> Vec<String> {
    [
        "tbf".to_string(),
        "tbf?view=pooled".to_string(),
        "tbf?era=early".to_string(),
        "tbf?era=late".to_string(),
        "repair".to_string(),
        "repair?cause=hardware".to_string(),
        "rates".to_string(),
        "availability".to_string(),
        "pernode".to_string(),
        "findings".to_string(),
    ]
    .into_iter()
    .map(|suffix| format!("/v1/{tenant}/{suffix}"))
    .collect()
}

/// Nearest-rank percentile of `samples` (need not be pre-sorted);
/// `q` in (0, 1]. NaN when empty.
pub fn percentile_nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&xs, 0.50), 50.0);
        assert_eq!(percentile_nearest_rank(&xs, 0.95), 95.0);
        assert_eq!(percentile_nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(percentile_nearest_rank(&xs, 1.0), 100.0);
        assert_eq!(percentile_nearest_rank(&[3.0], 0.5), 3.0);
        assert!(percentile_nearest_rank(&[], 0.5).is_nan());
        // Unsorted input is fine.
        assert_eq!(percentile_nearest_rank(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }
}
