//! Property-based tests (proptest) on the core invariants: distribution
//! laws, record/trace algebra, CSV round-trips, and simulator
//! conservation laws.

use hpcfail::prelude::*;
use hpcfail::records::io::{format_line, parse_line};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Distribution laws
// ---------------------------------------------------------------------

/// Strategy for plausible positive parameters over several magnitudes.
fn positive_param() -> impl Strategy<Value = f64> {
    (-2.0f64..6.0).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #[test]
    fn weibull_cdf_monotone_and_bounded(
        shape in 0.2f64..5.0,
        scale in positive_param(),
        a in 0.0f64..1e7,
        b in 0.0f64..1e7,
    ) {
        let d = Weibull::new(shape, scale).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let fa = d.cdf(lo);
        let fb = d.cdf(hi);
        prop_assert!((0.0..=1.0).contains(&fa));
        prop_assert!((0.0..=1.0).contains(&fb));
        prop_assert!(fb >= fa);
    }

    #[test]
    fn quantile_inverts_cdf_for_all_families(
        p in 0.001f64..0.999,
        mean in positive_param(),
    ) {
        let dists: Vec<Box<dyn Continuous>> = vec![
            Box::new(Exponential::from_mean(mean).unwrap()),
            Box::new(Weibull::new(0.75, mean).unwrap()),
            Box::new(Gamma::new(2.0, mean).unwrap()),
            Box::new(LogNormal::new(mean.ln(), 1.2).unwrap()),
            Box::new(Normal::new(mean, mean / 3.0).unwrap()),
        ];
        for d in &dists {
            let x = d.quantile(p);
            let round = d.cdf(x);
            prop_assert!(
                (round - p).abs() < 1e-6,
                "{}: quantile({p}) = {x}, cdf = {round}",
                d.name()
            );
        }
    }

    #[test]
    fn pdf_nonnegative_and_survival_complements(
        shape in 0.3f64..3.0,
        scale in positive_param(),
        x in 0.0f64..1e7,
    ) {
        let d = Weibull::new(shape, scale).unwrap();
        prop_assert!(d.pdf(x) >= 0.0);
        prop_assert!((d.cdf(x) + d.survival(x) - 1.0).abs() < 1e-12);
        // Hazard = pdf / survival wherever survival > 0.
        let s = d.survival(x);
        if s > 1e-12 && x > 0.0 {
            prop_assert!((d.hazard(x) - d.pdf(x) / s).abs() <= 1e-6 * d.hazard(x).abs().max(1e-12));
        }
    }

    #[test]
    fn lognormal_median_mean_construction(
        median in positive_param(),
        ratio in 1.01f64..50.0,
    ) {
        let mean = median * ratio;
        let d = LogNormal::from_median_mean(median, mean).unwrap();
        prop_assert!((d.median() - median).abs() / median < 1e-9);
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn mle_fits_recover_scale_order_of_magnitude(
        scale in 1.0f64..1e6,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let truth = Weibull::new(0.8, scale).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = hpcfail::stats::dist::sample_n(&truth, 500, &mut rng);
        let fit = Weibull::fit_mle(&data).unwrap();
        prop_assert!(fit.scale() > scale / 3.0 && fit.scale() < scale * 3.0);
        prop_assert!(fit.shape() > 0.5 && fit.shape() < 1.3);
    }

    /// The fitted Weibull scale is, to the bit, the closed form
    /// `λ̂ = exp((k·M + ln(Σ e^{k·lᵢ − k·M} / n)) / k)` at the fitted
    /// shape `k`, with `lᵢ = ln xᵢ` and `M = max lᵢ`, whichever stopping
    /// rule ended the solver's Newton loop.
    #[test]
    fn weibull_scale_is_the_closed_form_at_the_fitted_shape(
        shape in 0.3f64..3.0,
        n in 2usize..5_001,
        seed in 0u64..1_000_000,
    ) {
        use rand::SeedableRng;
        let truth = Weibull::new(shape, 3_600.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = hpcfail::stats::dist::sample_n(&truth, n, &mut rng);
        let fit = Weibull::fit_prepared(&PreparedSample::new(&data).unwrap()).unwrap();
        let k = fit.shape();
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let max_log = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let max_term = k * max_log;
        let s: f64 = logs.iter().map(|&l| (k * l - max_term).exp()).sum();
        let scale = ((max_term + (s / n as f64).ln()) / k).exp();
        prop_assert!(
            fit.scale().to_bits() == scale.to_bits(),
            "n {} shape {}: fitted scale {} vs closed form {}",
            n,
            k,
            fit.scale(),
            scale
        );
    }
}

// ---------------------------------------------------------------------
// Descriptive statistics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn summary_bounds(data in prop::collection::vec(0.001f64..1e6, 1..200)) {
        let s = hpcfail::stats::descriptive::Summary::from_sample(&data).unwrap();
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.count, data.len());
    }
}

// ---------------------------------------------------------------------
// Records and traces
// ---------------------------------------------------------------------

fn arbitrary_record() -> impl Strategy<Value = FailureRecord> {
    (
        1u32..=22,
        0u32..64,
        0u64..300_000_000,
        0u64..1_000_000,
        0usize..hpcfail::records::Workload::ALL.len(),
        0usize..hpcfail::records::DetailedCause::ALL.len(),
    )
        .prop_map(|(sys, node, start, dur, w, d)| {
            FailureRecord::new(
                SystemId::new(sys),
                NodeId::new(node),
                Timestamp::from_secs(start),
                Timestamp::from_secs(start + dur),
                hpcfail::records::Workload::ALL[w],
                hpcfail::records::DetailedCause::ALL[d],
            )
            .expect("end >= start by construction")
        })
}

proptest! {
    #[test]
    fn record_csv_round_trip(record in arbitrary_record()) {
        let line = format_line(&record);
        let parsed = parse_line(&line, 1).unwrap();
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn trace_sorting_invariant(records in prop::collection::vec(arbitrary_record(), 0..100)) {
        let trace = FailureTrace::from_records(records.clone());
        prop_assert_eq!(trace.len(), records.len());
        for w in trace.records().windows(2) {
            prop_assert!(w[0].start() <= w[1].start());
        }
    }

    #[test]
    fn interarrivals_sum_to_span(records in prop::collection::vec(arbitrary_record(), 2..100)) {
        let trace = FailureTrace::from_records(records);
        let idx = trace.index();
        let all = idx.all();
        let gaps = all.interarrival_secs().unwrap();
        let span = (all.last_start().unwrap() - all.first_start().unwrap()) as f64;
        let total: f64 = gaps.iter().sum();
        prop_assert!((total - span).abs() < 1e-6);
        prop_assert!(gaps.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn cause_filters_partition(records in prop::collection::vec(arbitrary_record(), 0..100)) {
        let trace = FailureTrace::from_records(records);
        let idx = trace.index();
        let total: usize = RootCause::ALL.iter().map(|&c| idx.cause(c).len()).sum();
        prop_assert_eq!(total, trace.len());
    }

    #[test]
    fn timestamp_civil_round_trip(secs in 0u64..400_000_000) {
        let t = Timestamp::from_secs(secs);
        let (y, m, d) = t.civil_date();
        let rebuilt = Timestamp::from_civil(y, m, d, t.hour_of_day(), 0, 0).unwrap();
        // Same calendar day and hour.
        prop_assert_eq!(rebuilt.civil_date(), (y, m, d));
        prop_assert_eq!(rebuilt.hour_of_day(), t.hour_of_day());
        prop_assert_eq!(rebuilt.day_of_week(), t.day_of_week());
    }
}

// ---------------------------------------------------------------------
// Count models
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn negative_binomial_pmf_is_a_distribution(
        r in 0.2f64..20.0,
        p in 0.05f64..0.95,
    ) {
        use hpcfail::stats::dist::NegativeBinomial;
        let d = NegativeBinomial::new(r, p).unwrap();
        let mut total = 0.0;
        let mut k = 0u64;
        // Sum enough mass; the mean bounds the needed range.
        let horizon = (d.mean() + 20.0 * d.variance().sqrt()) as u64 + 10;
        while k <= horizon {
            let pm = d.pmf(k);
            prop_assert!(pm >= 0.0);
            total += pm;
            k += 1;
        }
        prop_assert!((total - 1.0).abs() < 1e-6, "mass {total}");
    }
}

// ---------------------------------------------------------------------
// Prepared-sample kernels: bit-identity with the slice paths
// ---------------------------------------------------------------------

proptest! {
    /// Every family fitted through the cached sufficient statistics must
    /// agree with the slice fitter to the last bit — parameters and NLL.
    #[test]
    fn prepared_fits_are_bit_identical_to_slice_fits(
        data in prop::collection::vec(0.001f64..1e6, 2..120),
    ) {
        let ps = PreparedSample::new(&data).unwrap();
        for family in Family::ALL {
            let slice = family.fit(&data);
            let prepared = family.fit_prepared(&ps);
            match (slice, prepared) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                    prop_assert_eq!(
                        a.nll(&data).to_bits(),
                        b.nll(ps.values()).to_bits()
                    );
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                (a, b) => prop_assert!(
                    false, "{}: slice {:?} vs prepared {:?}", family, a, b
                ),
            }
        }
    }

    /// Slice and prepared paths must also fail identically on data that
    /// violates the positive-support precondition.
    #[test]
    fn prepared_fit_failures_match_slice_failures(
        data in prop::collection::vec(-1e3f64..1e3, 2..60),
    ) {
        let ps = PreparedSample::new(&data).unwrap();
        for family in Family::ALL {
            let slice = family.fit(&data).map(|d| format!("{d:?}"));
            let prepared = family.fit_prepared(&ps).map(|d| format!("{d:?}"));
            prop_assert_eq!(format!("{:?}", slice), format!("{:?}", prepared));
        }
    }

    /// The hand-optimized `nll` overrides (hoisted loop-invariant
    /// constants) must reproduce the default `-Σ ln_pdf` sum exactly.
    #[test]
    fn nll_overrides_match_ln_pdf_sums(
        data in prop::collection::vec(0.001f64..1e6, 2..120),
    ) {
        let ps = PreparedSample::new(&data).unwrap();
        for family in Family::ALL {
            if let Ok(d) = family.fit_prepared(&ps) {
                let manual = -data.iter().map(|&x| d.ln_pdf(x)).sum::<f64>();
                prop_assert_eq!(d.nll(&data).to_bits(), manual.to_bits());
            }
        }
    }

    /// Gamma and lognormal score a prepared sample off its cached
    /// `ln x`; that NLL equals `nll` over the values bit for bit, on
    /// positive samples and on ones holding a value out of support.
    #[test]
    fn prepared_nll_matches_nll_over_values(
        data in prop::collection::vec(1e-6f64..1e9, 2..120),
        shape in 0.1f64..10.0,
        scale in 0.01f64..1e5,
        out_of_support in prop::bool::ANY,
    ) {
        let mut data = data;
        if out_of_support {
            data[0] = 0.0;
        }
        let ps = PreparedSample::new(&data).unwrap();
        let gamma = Gamma::new(shape, scale).unwrap();
        let lognormal = LogNormal::new(scale.ln(), shape).unwrap();
        for d in [&gamma as &dyn Continuous, &lognormal] {
            prop_assert_eq!(d.nll_prepared(&ps).to_bits(), d.nll(&data).to_bits());
        }
    }

    /// The bootstrap's reused resample buffer must reproduce a loop that
    /// allocates a fresh resample per replicate, bit for bit.
    #[test]
    fn bootstrap_scratch_rewrite_preserves_cis(
        data in prop::collection::vec(0.01f64..1e4, 5..60),
        seed in 0u64..500,
    ) {
        use hpcfail::stats::bootstrap::bootstrap_ci;
        use hpcfail::stats::descriptive::{mean, quantile_sorted};
        use rand::{RngExt, SeedableRng};
        let replicates = 64;
        let level = 0.9;
        let ci = bootstrap_ci(
            &data,
            |d| Some(mean(d)),
            replicates,
            level,
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        ).unwrap();
        // Reference: the same draws, reallocating every replicate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = data.len();
        let mut stats: Vec<f64> = (0..replicates)
            .filter_map(|_| {
                let resample: Vec<f64> =
                    (0..n).map(|_| data[rng.random_range(0..n)]).collect();
                Some(mean(&resample)).filter(|s| s.is_finite())
            })
            .collect();
        stats.sort_unstable_by(f64::total_cmp);
        let alpha = (1.0 - level) / 2.0;
        prop_assert_eq!(ci.point.to_bits(), mean(&data).to_bits());
        prop_assert_eq!(ci.lo.to_bits(), quantile_sorted(&stats, alpha).to_bits());
        prop_assert_eq!(ci.hi.to_bits(), quantile_sorted(&stats, 1.0 - alpha).to_bits());
    }

    /// The shared sorted view — the support of the sample's empirical
    /// CDF — is bitwise the `total_cmp` sort of the data, on inputs that
    /// stress the integer-key sort: negatives, both zeros, subnormals,
    /// ±`f64::MAX` and repeats.
    #[test]
    fn prepared_sorted_view_matches_ecdf(
        data in prop::collection::vec(edge_float(), 1..301),
    ) {
        let ps = PreparedSample::new(&data).unwrap();
        let mut reference = data.clone();
        reference.sort_unstable_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(ps.sorted()), bits(&reference));
    }

    /// `EmpiricalHazard::from_sample` reads its bin edges off the
    /// sample's shared sorted view; it must give the edges, rates, trend
    /// and typed errors of the construction that sorted its own copy.
    /// `{:?}` prints each float in its shortest round-trip form, so equal
    /// strings mean equal bits.
    #[test]
    fn hazard_from_prepared_sample_matches_a_private_sort(
        data in prop::collection::vec(hazard_duration(), 1..300),
        bins in 1usize..12,
        variant in 0u8..12,
    ) {
        // One case in six carries a value out of support, one in twelve
        // is all one value.
        let mut data = data;
        let mid = data.len() / 2;
        match variant {
            0 => data[mid] = 0.0,
            1 => data[mid] = -data[mid],
            2 => data = vec![data[0]; data.len()],
            _ => {}
        }
        let ps = PreparedSample::new(&data).unwrap();
        let fast = hpcfail::stats::hazard::EmpiricalHazard::from_sample(&ps, bins);
        match (fast, hazard_by_private_sort(&data, bins)) {
            (Ok(h), Ok((edges, rates))) => {
                prop_assert_eq!(
                    format!("{h:?}"),
                    format!("EmpiricalHazard {{ edges: {edges:?}, rates: {rates:?} }}")
                );
                prop_assert_eq!(h.trend(), trend_of(&edges, &rates));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "prepared {:?} vs reference {:?}", a, b),
        }
    }
}

/// Floats that stress a sort: both zeros, subnormals, ±`f64::MAX`,
/// repeats from a five-value pool and plain values of either sign.
fn edge_float() -> impl Strategy<Value = f64> {
    (0u8..8, -1e6f64..1e6, 1u64..1_000).prop_map(|(kind, x, bits)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(bits),
        3 => -f64::from_bits(bits),
        4 => f64::MAX,
        5 => -f64::MAX,
        6 => (bits % 5) as f64 - 2.0,
        _ => x,
    })
}

/// Positive durations for the hazard estimator: mostly spread over six
/// decades, a quarter repeats from a five-value pool (so bin edges tie)
/// and a few subnormal.
fn hazard_duration() -> impl Strategy<Value = f64> {
    (0u8..40, 0.001f64..1e6, 1u64..6).prop_map(|(kind, x, k)| match kind {
        0 => f64::from_bits(k),
        1..=10 => k as f64,
        _ => x,
    })
}

type HazardBins = (Vec<f64>, Vec<f64>);

/// The hazard estimator as it was before it took a `PreparedSample`:
/// the same checks, edges from quantiles of its own sorted copy, and
/// exposure summed over the data in input order.
fn hazard_by_private_sort(durations: &[f64], bins: usize) -> Result<HazardBins, StatsError> {
    if bins < 2 {
        return Err(StatsError::InvalidParameter {
            name: "bins",
            value: bins as f64,
        });
    }
    if durations.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return Err(StatsError::OutOfSupport {
            distribution: "empirical hazard",
        });
    }
    if durations.len() < 2 * bins {
        return Err(StatsError::SampleTooSmall {
            needed: 2 * bins,
            got: durations.len(),
        });
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mut edges: Vec<f64> = (0..=bins)
        .map(|i| hpcfail::stats::descriptive::quantile_sorted(&sorted, i as f64 / bins as f64))
        .collect();
    edges.dedup();
    if edges.len() < 3 {
        return Err(StatsError::DegenerateSample);
    }
    let nb = edges.len() - 1;
    let mut counts = vec![0usize; nb];
    let mut exposure = vec![0.0f64; nb];
    for &d in durations {
        for b in 0..nb {
            let (lo, hi) = (edges[b], edges[b + 1]);
            if b > 0 && d <= lo {
                break;
            }
            exposure[b] += (d.min(hi) - lo).max(0.0);
            if d <= hi {
                counts[b] += 1;
                break;
            }
        }
    }
    let rates = counts
        .iter()
        .zip(&exposure)
        .map(|(&c, &e)| if e > 0.0 { c as f64 / e } else { f64::NAN })
        .collect();
    Ok((edges, rates))
}

/// The hazard trend of bins `edges` with `rates`: the sign of Kendall's
/// tau between bin order and rate, ±0.3 wide around flat.
fn trend_of(edges: &[f64], rates: &[f64]) -> hpcfail::stats::hazard::HazardTrend {
    use hpcfail::stats::hazard::HazardTrend;
    assert_eq!(edges.len(), rates.len() + 1);
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for i in 0..rates.len() {
        for j in (i + 1)..rates.len() {
            if !rates[i].is_finite() || !rates[j].is_finite() {
                continue;
            }
            match rates[j].partial_cmp(&rates[i]) {
                Some(std::cmp::Ordering::Greater) => concordant += 1,
                Some(std::cmp::Ordering::Less) => discordant += 1,
                _ => {}
            }
        }
    }
    let total = concordant + discordant;
    if total == 0 {
        return HazardTrend::Flat;
    }
    let tau = (concordant - discordant) as f64 / total as f64;
    if tau > 0.3 {
        HazardTrend::Increasing
    } else if tau < -0.3 {
        HazardTrend::Decreasing
    } else {
        HazardTrend::Flat
    }
}

// ---------------------------------------------------------------------
// KS search and batch sampling: bit-identity with the scalar paths
// ---------------------------------------------------------------------

/// One instance of each of the six continuous families, parameterized
/// from two positive draws (shapes clamped to a sane range so powf
/// stays finite; the support branches are exercised by the data, not
/// the parameters).
fn all_six_families(a: f64, b: f64) -> Vec<Box<dyn Continuous>> {
    let shape = 0.05 + (a % 5.0).abs();
    let scale = b;
    vec![
        Box::new(Exponential::from_mean(scale).unwrap()),
        Box::new(Weibull::new(shape, scale).unwrap()),
        Box::new(Gamma::new(shape, scale).unwrap()),
        Box::new(LogNormal::new(scale.ln(), shape).unwrap()),
        Box::new(Normal::new(scale, shape * scale).unwrap()),
        Box::new(Pareto::new(scale, shape).unwrap()),
    ]
}

proptest! {
    /// The branch-and-bound KS search must agree bitwise with an
    /// exhaustive per-point scan for every family, at sizes well past
    /// the first few refinement levels so pruning actually skips runs.
    #[test]
    fn ks_branch_and_bound_matches_exhaustive_scan_bitwise(
        a in positive_param(),
        b in positive_param(),
        data in prop::collection::vec(0.001f64..1e6, 1..400),
    ) {
        use hpcfail::stats::gof::ks_statistic_sorted;
        let mut sorted = data;
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len() as f64;
        for d in all_six_families(a, b) {
            let exhaustive = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let f = d.cdf(x);
                    let upper = (i + 1) as f64 / n - f;
                    let lower = f - i as f64 / n;
                    upper.abs().max(lower.abs())
                })
                .fold(0.0f64, f64::max);
            let pruned = ks_statistic_sorted(&sorted, d.as_ref());
            prop_assert!(pruned.to_bits() == exhaustive.to_bits(), "{}", d.name());
        }
    }
}

// ---------------------------------------------------------------------
// Trace query index: borrowed views vs the naive record fold
// ---------------------------------------------------------------------

/// The records of `trace` that `keep` selects, in trace order — the
/// naive reference every view is checked against.
fn naive(trace: &FailureTrace, keep: impl Fn(&FailureRecord) -> bool) -> Vec<FailureRecord> {
    trace.iter().filter(|r| keep(r)).copied().collect()
}

/// Group-by fold over records: the number of records per `key`.
fn naive_count<K: Ord>(
    records: &[FailureRecord],
    key: impl Fn(&FailureRecord) -> K,
) -> std::collections::BTreeMap<K, u64> {
    let mut map = std::collections::BTreeMap::new();
    for r in records {
        *map.entry(key(r)).or_insert(0) += 1;
    }
    map
}

/// Gaps between consecutive starts; `None` below 2 records.
fn naive_interarrival_secs(records: &[FailureRecord]) -> Option<Vec<f64>> {
    (records.len() >= 2).then(|| {
        records
            .windows(2)
            .map(|w| (w[1].start() - w[0].start()) as f64)
            .collect()
    })
}

/// Gaps between consecutive records of the same `(system, node)`,
/// pooled in record order.
fn naive_per_node_interarrival_secs(records: &[FailureRecord]) -> Vec<f64> {
    let mut last_seen = std::collections::BTreeMap::new();
    let mut gaps = Vec::new();
    for r in records {
        if let Some(prev) = last_seen.insert((r.system(), r.node()), r.start()) {
            gaps.push((r.start() - prev) as f64);
        }
    }
    gaps
}

/// Failure count per node id of one system, zeros included, ids past
/// `node_count` ignored.
fn naive_failures_per_node(
    records: &[FailureRecord],
    system: SystemId,
    node_count: u32,
) -> Vec<u64> {
    let mut counts = vec![0u64; node_count as usize];
    for r in records.iter().filter(|r| r.system() == system) {
        if let Some(c) = counts.get_mut(r.node().get() as usize) {
            *c += 1;
        }
    }
    counts
}

/// Assert that a borrowed view answers every query exactly as a naive
/// fold over the records it selects — same records, same element order,
/// same float sequences (bitwise), same group-by maps.
fn assert_view_matches_naive(view: &TraceView<'_>, records: &[FailureRecord]) {
    assert_eq!(view.len(), records.len());
    assert_eq!(view.is_empty(), records.is_empty());
    let viewed: Vec<FailureRecord> = view.iter().collect();
    assert_eq!(viewed, records, "record sequence");
    assert_eq!(view.to_trace().records(), records);
    assert_eq!(view.first_start(), records.first().map(|r| r.start()));
    assert_eq!(view.last_start(), records.last().map(|r| r.start()));
    let secs: Vec<u64> = records.iter().map(|r| r.downtime_secs()).collect();
    assert_eq!(view.downtimes_secs(), secs);
    let minutes: Vec<f64> = records
        .iter()
        .map(|r| r.downtime_secs() as f64 / 60.0)
        .collect();
    assert_eq!(view.downtimes_minutes(), minutes);
    assert_eq!(view.count_by_cause(), naive_count(records, |r| r.cause()));
    assert_eq!(
        view.to_trace().index().count_by_system(),
        naive_count(records, |r| r.system())
    );
    for w in Workload::ALL {
        assert_eq!(
            view.count_workload(w),
            records.iter().filter(|r| r.workload() == w).count(),
            "{w:?} count"
        );
    }
    let gaps = naive_interarrival_secs(records);
    match (view.interarrival_secs(), &gaps) {
        (Ok(a), Some(b)) => assert_eq!(&a, b, "interarrival sequence"),
        (Err(_), None) => {}
        (a, b) => panic!("interarrival mismatch: view {a:?} vs naive {b:?}"),
    }
    assert_eq!(
        view.per_node_interarrival_secs(),
        naive_per_node_interarrival_secs(records),
        "pooled per-node gap sequence"
    );
}

fn index_systems(trace: &FailureTrace) -> Vec<SystemId> {
    let mut ids: Vec<SystemId> = trace.iter().map(|r| r.system()).collect();
    ids.sort();
    ids.dedup();
    ids.push(SystemId::new(99)); // one absent system
    ids
}

/// A record whose start falls on one of four instants, so that traces
/// built from it tie on start time across systems and nodes.
fn tied_record() -> impl Strategy<Value = FailureRecord> {
    (1u32..=22, 0u32..4, 0u64..4, 0u64..1_000).prop_map(|(sys, node, slot, dur)| {
        let start = 100_000_000 + slot * 3_600;
        FailureRecord::new(
            SystemId::new(sys),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            hpcfail::records::Workload::Compute,
            hpcfail::records::DetailedCause::Memory,
        )
        .expect("end >= start by construction")
    })
}

/// An arbitrary or a tied record, half and half.
fn mixed_record() -> impl Strategy<Value = FailureRecord> {
    (0u8..2, arbitrary_record(), tied_record())
        .prop_map(|(pick, any, tied)| if pick == 0 { any } else { tied })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every single-axis view answers queries exactly like the naive
    /// fold over the owned records it selects, on arbitrary traces.
    #[test]
    fn views_match_owned_filters(
        records in prop::collection::vec(arbitrary_record(), 0..120),
    ) {
        let trace = FailureTrace::from_records(records);
        let idx = trace.index();
        assert_view_matches_naive(&idx.all(), trace.records());
        for sys in index_systems(&trace) {
            let of_system = naive(&trace, |r| r.system() == sys);
            assert_view_matches_naive(&idx.system(sys), &of_system);
            for node in 0..3u32 {
                let node = NodeId::new(node);
                assert_view_matches_naive(
                    &idx.node(sys, node),
                    &naive(&trace, |r| r.system() == sys && r.node() == node),
                );
            }
        }
        for cause in RootCause::ALL {
            assert_view_matches_naive(&idx.cause(cause), &naive(&trace, |r| r.cause() == cause));
        }
        for w in Workload::ALL {
            assert_view_matches_naive(&idx.workload(w), &naive(&trace, |r| r.workload() == w));
        }
    }

    /// A window of the whole trace or of any system, node or cause view
    /// agrees with the naive fold over the conjunction of the two
    /// predicates.
    #[test]
    fn view_windows_and_compositions_match_owned(
        records in prop::collection::vec(arbitrary_record(), 0..120),
        a in 0u64..320_000_000,
        b in 0u64..320_000_000,
    ) {
        let trace = FailureTrace::from_records(records);
        let idx = trace.index();
        let (from, to) = (Timestamp::from_secs(a.min(b)), Timestamp::from_secs(a.max(b)));
        let in_window = |r: &FailureRecord| r.start() >= from && r.start() < to;
        assert_view_matches_naive(&idx.all().window(from, to), &naive(&trace, in_window));
        for sys in index_systems(&trace) {
            let expected = naive(&trace, |r| r.system() == sys && in_window(r));
            assert_view_matches_naive(&idx.system(sys).window(from, to), &expected);
            for node in 0..2u32 {
                let node = NodeId::new(node);
                assert_view_matches_naive(
                    &idx.node(sys, node).window(from, to),
                    &naive(&trace, |r| r.system() == sys && r.node() == node && in_window(r)),
                );
            }
        }
        for cause in RootCause::ALL {
            let expected = naive(&trace, |r| r.cause() == cause && in_window(r));
            assert_view_matches_naive(&idx.cause(cause).window(from, to), &expected);
        }
    }

    /// The single-pass group-by kernels agree with per-record folds over
    /// the trace.
    #[test]
    fn view_group_kernels_match_owned_folds(
        records in prop::collection::vec(arbitrary_record(), 0..120),
    ) {
        use std::collections::BTreeMap;
        let trace = FailureTrace::from_records(records);
        let idx = trace.index();

        let mut count_by_system: BTreeMap<SystemId, u64> = BTreeMap::new();
        let mut downtime_by_system: BTreeMap<SystemId, u64> = BTreeMap::new();
        let mut per_system: BTreeMap<SystemId, ([u64; 6], [u64; 6])> = BTreeMap::new();
        for r in trace.iter() {
            *count_by_system.entry(r.system()).or_insert(0) += 1;
            *downtime_by_system.entry(r.system()).or_insert(0) += r.downtime_secs();
            let slot = per_system.entry(r.system()).or_insert(([0; 6], [0; 6]));
            slot.0[r.cause().index()] += 1;
            slot.1[r.cause().index()] += r.downtime_secs();
        }
        prop_assert_eq!(idx.count_by_system(), count_by_system);
        let posting_downtime: BTreeMap<SystemId, u64> = idx
            .systems()
            .map(|s| (s, idx.system(s).downtimes_secs().iter().sum()))
            .collect();
        prop_assert_eq!(posting_downtime, downtime_by_system);
        let kernel = idx.all().counts_by_cause_per_system();
        prop_assert_eq!(kernel.len(), per_system.len());
        for (sys, totals) in &kernel {
            let (counts, downtime) = &per_system[sys];
            prop_assert_eq!(&totals.count, counts);
            prop_assert_eq!(&totals.downtime_secs, downtime);
        }
        for sys in index_systems(&trace) {
            let expected = naive_failures_per_node(trace.records(), sys, 8);
            prop_assert_eq!(idx.failures_per_node(sys, 8), expected);
        }
    }

    /// The sorted merge must equal rebuilding from the record
    /// concatenation, including on start times tied across systems and
    /// nodes, and the merged trace must keep the full `(start, system,
    /// node)` order that the packed store checks on reopen.
    #[test]
    fn merge_equals_from_records_of_concat(
        a in prop::collection::vec(mixed_record(), 0..80),
        b in prop::collection::vec(mixed_record(), 0..80),
    ) {
        let mut merged = FailureTrace::from_records(a.clone());
        merged.merge(FailureTrace::from_records(b.clone()));
        let mut concat = a;
        concat.extend(b);
        let rebuilt = FailureTrace::from_records(concat);
        prop_assert_eq!(merged.records(), rebuilt.records());
        let reopened = TraceStore::from_bytes(&TraceStore::to_bytes(&merged.index()))
            .expect("a merged trace must reopen through the packed store");
        prop_assert_eq!(&reopened.all().to_trace(), &merged);
    }

    /// `filter_window`'s partition_point slicing equals the predicate
    /// scan it replaced: half-open `[from, to)` on the start column.
    #[test]
    fn filter_window_equals_predicate_scan(
        records in prop::collection::vec(arbitrary_record(), 0..120),
        a in 0u64..320_000_000,
        b in 0u64..320_000_000,
    ) {
        let trace = FailureTrace::from_records(records);
        let (from, to) = (Timestamp::from_secs(a.min(b)), Timestamp::from_secs(a.max(b)));
        let sliced = trace.filter_window(from, to);
        let scanned = naive(&trace, |r| r.start() >= from && r.start() < to);
        prop_assert_eq!(sliced.records(), &scanned[..]);
        // Degenerate empty window.
        let empty = trace.filter_window(to, from);
        prop_assert!(empty.is_empty() || from == to);
    }

    /// `CauseMix::sample`'s cumulative lookup returns exactly what the
    /// linear reference walk returns for the same uniform draw.
    #[test]
    fn cause_mix_sample_matches_linear_reference(
        weights in (0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0,
                    0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0),
        seed in 0u64..10_000,
    ) {
        use hpcfail::synth::causes::CauseMix;
        use rand::{RngExt, SeedableRng};
        let (w0, w1, w2, w3, w4, w5) = weights;
        let mix = CauseMix::new([w0, w1, w2, w3, w4, w5]).expect("positive weights are valid");
        let mut fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let got = mix.sample(&mut fast);
            let u: f64 = reference.random();
            let mut acc = 0.0;
            let mut expect = RootCause::ALL[5];
            for (i, &c) in RootCause::ALL.iter().enumerate() {
                acc += mix.probability(c);
                if u < acc {
                    expect = RootCause::ALL[i];
                    break;
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}

// ---------------------------------------------------------------------
// Simulator conservation laws
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn checkpoint_sim_conserves_time(
        work_days in 1.0f64..30.0,
        ckpt_min in 1.0f64..30.0,
        mtbf_days in 0.5f64..20.0,
        seed in 0u64..100,
    ) {
        use hpcfail::checkpoint::sim::{simulate, JobConfig};
        use hpcfail::checkpoint::strategies::Periodic;
        use rand::SeedableRng;
        let job = JobConfig {
            total_work_secs: work_days * 86_400.0,
            checkpoint_cost_secs: ckpt_min * 60.0,
            restart_cost_secs: 120.0,
        };
        let tbf = Weibull::new(0.75, mtbf_days * 86_400.0).unwrap();
        let repair = Exponential::from_mean(3_600.0).unwrap();
        let tau = hpcfail::checkpoint::daly::young_interval(
            job.checkpoint_cost_secs,
            tbf.mean(),
        ).unwrap();
        let strategy = Periodic::new(tau).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = simulate(&job, &strategy, &tbf, &repair, &mut rng).unwrap();
        prop_assert!(out.conserves_time(), "{out:?}");
        prop_assert!((out.useful_secs - job.total_work_secs).abs() < 1e-6);
        prop_assert!(out.wall_secs >= job.total_work_secs);
    }

    #[test]
    fn two_level_sim_conserves_time(
        work_days in 1.0f64..20.0,
        local_min in 0.2f64..5.0,
        locals_per_global in 1u32..10,
        recover_p in 0.0f64..1.0,
        seed in 0u64..50,
    ) {
        use hpcfail::checkpoint::twolevel::{simulate_two_level, TwoLevelConfig};
        use rand::SeedableRng;
        let config = TwoLevelConfig {
            total_work_secs: work_days * 86_400.0,
            local_cost_secs: local_min * 60.0,
            global_cost_secs: 600.0,
            local_interval_secs: 2.0 * 3_600.0,
            locals_per_global,
            restart_cost_secs: 120.0,
            local_recoverable_probability: recover_p,
        };
        let tbf = Weibull::new(0.75, 3.0 * 86_400.0).unwrap();
        let repair = Exponential::from_mean(1_800.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = simulate_two_level(&config, &tbf, &repair, &mut rng).unwrap();
        prop_assert!(out.conserves_time(), "{out:?}");
        prop_assert!((out.useful_secs - config.total_work_secs).abs() < 1e-6);
    }

    #[test]
    fn sched_sim_accounting(
        n_jobs in 1usize..10,
        width in 1u32..4,
        hours in 1.0f64..48.0,
        seed in 0u64..100,
    ) {
        use hpcfail::sched::policy::RandomPlacement;
        use hpcfail::sched::sim::{run, Job, NodeTruth, SimConfig};
        let nodes = vec![NodeTruth { failures_per_year: 12.0, weibull_shape: 0.75 }; 8];
        let jobs = vec![Job { width, work_secs: hours * 3_600.0 }; n_jobs];
        let config = SimConfig {
            mean_repair_secs: 3_600.0,
            horizon_secs: 0.5 * hpcfail::records::time::YEAR as f64,
            seed,
        };
        let m = run(&nodes, &RandomPlacement, &jobs, &config).unwrap();
        prop_assert_eq!(m.completed + m.unfinished, n_jobs as u64);
        let expected_useful = m.completed as f64 * hours * 3_600.0 * width as f64;
        prop_assert!((m.useful_node_secs - expected_useful).abs() < 1e-3);
        prop_assert!(m.makespan_secs <= config.horizon_secs + 1e-6);
        if m.aborts == 0 {
            prop_assert_eq!(m.wasted_node_secs, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Parallel executor determinism
// ---------------------------------------------------------------------

proptest! {
    /// Any worker count produces the serial answer, for arbitrary input
    /// lengths — the engine's core contract.
    #[test]
    fn executor_matches_serial_for_any_worker_count(
        len in 0usize..300,
        workers in 1usize..=16,
        salt in 0u64..1_000,
    ) {
        use hpcfail::exec::derive_stream_seed;
        let task = |i: usize| derive_stream_seed(salt, i as u64);
        let serial: Vec<u64> = (0..len).map(task).collect();
        let pool = ParallelExecutor::with_workers(workers);
        prop_assert_eq!(pool.map_range(len, task), serial);
    }

    /// A panicking task surfaces as `ExecError::WorkerPanic` naming the
    /// panicking index — never a hang, never a poisoned pool.
    #[test]
    fn executor_panic_is_an_error_not_a_hang(
        len in 1usize..80,
        workers in 1usize..=8,
        victim_salt in 0usize..1_000,
    ) {
        use hpcfail::exec::ExecError;
        let victim = victim_salt % len;
        let pool = ParallelExecutor::with_workers(workers);
        let result = pool.try_map_range(len, |i| {
            if i == victim {
                panic!("deliberate test panic");
            }
            i
        });
        let ExecError::WorkerPanic { index, message } =
            result.expect_err("panicking task must error");
        prop_assert_eq!(index, victim);
        prop_assert!(message.contains("deliberate"));
        // The same pool value remains usable afterwards.
        prop_assert_eq!(pool.map_range(4, |i| i), vec![0, 1, 2, 3]);
    }
}

// ---------------------------------------------------------------------
// Binary trace store (.hpct) round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pack → load reproduces the trace and a `TraceIndex` element-
    /// identical to the one built directly in memory: every column,
    /// every posting list, every `prev_in_node` link.
    #[test]
    fn packed_store_round_trip_is_element_identical(
        records in prop::collection::vec(arbitrary_record(), 0..80),
    ) {
        let trace = FailureTrace::from_records(records);
        let built = trace.index();
        let bytes = TraceStore::to_bytes(&built);
        let loaded = TraceStore::from_bytes(&bytes).expect("clean pack must load");
        prop_assert_eq!(&loaded.all().to_trace(), &trace);
        prop_assert_eq!(&loaded, &built);
    }

    /// The incremental checksum a store open feeds section by section
    /// equals the one-shot `checksum`, whatever 64-byte-aligned pieces
    /// the bytes arrive in; only the last piece may end mid-block.
    #[test]
    fn incremental_checksum_matches_one_shot(
        bytes in prop::collection::vec(0u8..=255, 0..1500),
        pieces in prop::collection::vec(0usize..8, 0..10),
    ) {
        use hpcfail::records::store::{checksum, Checksum};
        let mut state = Checksum::new(bytes.len() as u64);
        let mut at = 0;
        for blocks in pieces {
            let take = (blocks * 64).min((bytes.len() - at) / 64 * 64);
            state.update(&bytes[at..at + take]);
            at += take;
        }
        state.update(&bytes[at..]);
        prop_assert_eq!(state.finish(), checksum(&bytes));
    }

    /// The full pipeline the CLI wires together — CSV text → strict read
    /// → build index → pack → load — also lands element-identical, and
    /// packing is byte-deterministic.
    #[test]
    fn csv_to_packed_pipeline_matches_direct_build(
        records in prop::collection::vec(arbitrary_record(), 0..60),
    ) {
        use hpcfail::records::io::{read_trace, write_csv};
        let trace = FailureTrace::from_records(records);
        let mut csv = Vec::new();
        write_csv(&trace, &mut csv).expect("in-memory write");
        let reread = read_trace(&csv, IngestPolicy::FailFast)
            .expect("strict read of own output")
            .index;
        let bytes = TraceStore::to_bytes(&reread);
        prop_assert_eq!(&bytes, &TraceStore::to_bytes(&reread));
        let loaded = TraceStore::from_bytes(&bytes).expect("clean pack must load");
        prop_assert_eq!(&loaded, &trace.index());
        prop_assert_eq!(&loaded, &reread);
    }
}
