//! Criterion benchmarks of the fitting kernels: the `PreparedSample`
//! sufficient-statistics stack, the KS search, the parallel bootstrap
//! and batch sampling. Recorded numbers live in
//! `experiments/BENCH_fit.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpcfail_exec::{ParallelExecutor, SeedSequence};
use hpcfail_stats::bootstrap::percentile_ci_parallel;
use hpcfail_stats::descriptive::{mean, quantile_sorted};
use hpcfail_stats::dist::{sample_n, Continuous, Weibull};
use hpcfail_stats::fit::{fit_paper_set, fit_paper_set_prepared};
use hpcfail_stats::gof::ks_statistic_sorted;
use hpcfail_stats::prepared::PreparedSample;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn weibull_data(n: usize) -> Vec<f64> {
    let truth = Weibull::new(0.75, 86_400.0).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    sample_n(&truth, n, &mut rng)
}

/// Paper-set ranking (Figs. 6/7(a) methodology) from a raw slice, which
/// pays its one scan and one sort inside the loop, and from a sample
/// prepared (and sorted) once, as the bootstrap and multi-criterion
/// rankings see it.
fn bench_paper_set_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_set_rank");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("kernel", n), &data, |b, data| {
            b.iter(|| fit_paper_set(black_box(data)).unwrap());
        });
        let prepared = PreparedSample::new(&data).unwrap();
        let _ = prepared.sorted();
        group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
            b.iter(|| fit_paper_set_prepared(black_box(ps)).unwrap());
        });
    }
    group.finish();
}

/// Single-family Weibull MLE: the slice entry point vs the prepared path.
fn bench_weibull_mle(c: &mut Criterion) {
    let mut group = c.benchmark_group("weibull_mle");
    for &n in &[1_000usize, 10_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("slice", n), &data, |b, data| {
            b.iter(|| Weibull::fit_mle(black_box(data)).unwrap());
        });
        let prepared = PreparedSample::new(&data).unwrap();
        group.bench_with_input(BenchmarkId::new("prepared", n), &prepared, |b, ps| {
            b.iter(|| Weibull::fit_prepared(black_box(ps)).unwrap());
        });
    }
    group.finish();
}

/// Bootstrap CI for the mean, 200 replicates, on one worker.
fn bench_bootstrap_ci(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_mean_ci");
    group.sample_size(10);
    let replicates = 200;
    let pool = ParallelExecutor::with_workers(1);
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = weibull_data(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("scratch", n), &data, |b, data| {
            b.iter(|| {
                percentile_ci_parallel(
                    black_box(data),
                    |d| Some(mean(d)),
                    replicates,
                    0.95,
                    42,
                    &pool,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Bootstrap CI for the Weibull shape (the paper's decreasing-hazard
/// claim) — a fit-heavy statistic.
fn bench_bootstrap_shape_ci(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap_shape_ci");
    group.sample_size(10);
    let replicates = 50;
    let pool = ParallelExecutor::with_workers(1);
    let n = 2_000usize;
    let data = weibull_data(n);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("slice", n), &data, |b, data| {
        b.iter(|| {
            percentile_ci_parallel(
                black_box(data),
                |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
                replicates,
                0.95,
                42,
                &pool,
            )
            .unwrap()
        });
    });
    group.finish();
}

/// KS statistic off the shared sorted view (no ECDF build).
fn bench_ks_statistic(c: &mut Criterion) {
    let data = weibull_data(10_000);
    let prepared = PreparedSample::new(&data).unwrap();
    let dist = Weibull::fit_prepared(&prepared).unwrap();
    let sorted = prepared.sorted();
    c.bench_function("ks_statistic_10k", |b| {
        b.iter(|| ks_statistic_sorted(black_box(sorted), black_box(&dist)));
    });
}

fn bench_sampling(c: &mut Criterion) {
    let dist = Weibull::new(0.75, 86_400.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("weibull_sample_1k", |b| {
        b.iter(|| sample_n(black_box(&dist), 1_000, &mut rng));
    });
}

/// One million inverse-CDF draws into a reused buffer: a scalar
/// per-call loop (one dyn dispatch + one uniform + one transform per
/// draw) vs `sample_batch` (block uniforms, then the hoisted transform
/// over the whole slice). Identical draws, identical final RNG state.
fn bench_batch_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sampling");
    group.sample_size(10);
    let dist = Weibull::new(0.75, 86_400.0).unwrap();
    let n = 1_000_000usize;
    let mut buf = vec![0.0f64; n];
    group.throughput(Throughput::Elements(n as u64));
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("scalar_1e6", |b| {
        b.iter(|| {
            for slot in buf.iter_mut() {
                *slot = dist.sample(&mut rng);
            }
            black_box(&mut buf);
        });
    });
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("batch_1e6", |b| {
        b.iter(|| dist.sample_batch(&mut rng, black_box(&mut buf)));
    });
    group.finish();
}

/// Quantile of a raw slice — exercises the `total_cmp` sort path.
fn bench_quantile(c: &mut Criterion) {
    let data = weibull_data(10_000);
    c.bench_function("quantile_sorted_10k", |b| {
        let mut sorted = data.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        b.iter(|| quantile_sorted(black_box(&sorted), 0.5));
    });
    // Keep the seed-stream splitter honest about its cost in the
    // bootstrap loop accounting.
    let streams = SeedSequence::new(42);
    c.bench_function("seed_stream_derive", |b| {
        b.iter(|| black_box(&streams).stream(black_box(17)));
    });
}

criterion_group!(
    benches,
    bench_paper_set_rank,
    bench_weibull_mle,
    bench_bootstrap_ci,
    bench_bootstrap_shape_ci,
    bench_ks_statistic,
    bench_sampling,
    bench_batch_sampling,
    bench_quantile
);
criterion_main!(benches);
