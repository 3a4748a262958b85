//! Determinism contract of the serve latency percentiles: nearest-rank
//! reporting is a pure function of the sample set, so the completion
//! order a worker pool produces — and with it `HPCFAIL_THREADS` — can
//! never change a reported p50/p95/p99.

use hpcfail::serve::load::percentile_nearest_rank;

#[test]
fn percentiles_are_order_and_thread_invariant() {
    // Shuffle-invariance: nearest-rank sorts internally, so any
    // completion order the worker pool produces reports identically.
    let mut latencies: Vec<f64> = (0..997).map(|i| ((i * 7919) % 1000) as f64).collect();
    let p50 = percentile_nearest_rank(&latencies, 0.50);
    let p95 = percentile_nearest_rank(&latencies, 0.95);
    let p99 = percentile_nearest_rank(&latencies, 0.99);
    latencies.reverse();
    assert_eq!(p50, percentile_nearest_rank(&latencies, 0.50));
    assert_eq!(p95, percentile_nearest_rank(&latencies, 0.95));
    assert_eq!(p99, percentile_nearest_rank(&latencies, 0.99));
    assert!(p50 <= p95 && p95 <= p99);

    // Golden pins on a known sample set.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile_nearest_rank(&xs, 0.50), 500.0);
    assert_eq!(percentile_nearest_rank(&xs, 0.95), 950.0);
    assert_eq!(percentile_nearest_rank(&xs, 0.99), 990.0);
}
