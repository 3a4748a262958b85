//! One-pass sufficient-statistics kernels shared by the fitting stack.
//!
//! The paper's methodology fits four candidate families to the *same*
//! sample, then ranks them by NLL and KS distance — and the extension
//! studies repeat that per system, per cause, and per bootstrap
//! replicate. Fitting each family from a raw slice re-scans and
//! re-transforms the data every time (Weibull, gamma and lognormal each
//! need `ln x`; KS distances, quantiles and hazard bins need a sort;
//! every validation re-walks the slice). [`PreparedSample`] does all of
//! that exactly once:
//!
//! * **one pass** over the data accumulates `Σx`, `Σln x`, min/max,
//!   `max(ln x)` and the positivity flag, and fills the shared `ln x`
//!   vector;
//! * **one sort** (lazy, cached on first use) builds the shared sorted
//!   view that quantiles, KS statistics and the hazard bins read.
//!
//! Everything downstream — the per-family `fit_prepared` constructors,
//! [`crate::fit::fit_candidates_prepared`] and
//! [`crate::hazard::EmpiricalHazard::from_sample`] — borrows these
//! caches instead of recomputing them.
//!
//! **Bit-identity invariant.** All cached sums are accumulated in the
//! original data order with the same operation sequence the slice-based
//! fitters use, and `max(ln x)` is a running `f64::max` fold over the
//! same `ln` values (not `ln(max x)`, since `ln` is not guaranteed
//! monotone at the ULP level). Every fit computed through a
//! `PreparedSample` is therefore bit-identical to its slice-path
//! counterpart, and its NLL is the slice-path `nll` over
//! [`PreparedSample::values`] — the property tests in
//! `tests/proptests.rs` pin this.

use crate::error::StatsError;
use std::sync::OnceLock;

/// The cached sufficient statistics of one scan.
#[derive(Debug, Clone, Copy)]
struct Moments {
    sum: f64,
    sum_log: f64,
    min: f64,
    max: f64,
    max_log: f64,
    positive: bool,
}

/// A sample prepared for repeated fitting: owns the data, its `ln x`
/// transform, a lazily-built sorted view, and the cached sufficient
/// statistics every MLE in this crate needs.
///
/// Construction performs exactly one validation/accumulation pass (plus
/// one deferred sort on first use of [`PreparedSample::sorted`]).
/// Construction rejects empty and non-finite samples, so a
/// `PreparedSample` always holds at least one finite observation.
///
/// ```
/// use hpcfail_stats::prepared::PreparedSample;
/// use hpcfail_stats::dist::Weibull;
/// use hpcfail_stats::fit::fit_paper_set_prepared;
///
/// # fn main() -> Result<(), hpcfail_stats::StatsError> {
/// let sample = PreparedSample::new(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6])?;
/// // Fan several consumers off the same prepared view: no re-scans.
/// let report = fit_paper_set_prepared(&sample)?;
/// let shape = Weibull::fit_prepared(&sample)?.shape();
/// assert_eq!(report.n, 6);
/// assert!(shape > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedSample {
    values: Vec<f64>,
    logs: Vec<f64>,
    sorted: OnceLock<Vec<f64>>,
    moments: Moments,
}

impl PreparedSample {
    /// Prepare a sample by copying `data` (one pass, no sort yet).
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] for empty input,
    /// [`StatsError::NonFinite`] if any observation is NaN or infinite.
    pub fn new(data: &[f64]) -> Result<Self, StatsError> {
        Self::from_vec(data.to_vec())
    }

    /// Prepare a sample taking ownership of `values`, avoiding the copy
    /// [`PreparedSample::new`] makes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSample::new`].
    pub fn from_vec(values: Vec<f64>) -> Result<Self, StatsError> {
        let (moments, logs) = scan(&values)?;
        Ok(PreparedSample {
            values,
            logs,
            sorted: OnceLock::new(),
            moments,
        })
    }

    /// Number of observations (always at least 1).
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The observations in their original order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `ln x` transform of the observations in original order, or
    /// `None` if the sample is not strictly positive.
    pub(crate) fn logs(&self) -> Option<&[f64]> {
        self.moments.positive.then_some(self.logs.as_slice())
    }

    /// Sample mean `Σx / n`.
    pub(crate) fn mean(&self) -> f64 {
        self.moments.sum / self.values.len() as f64
    }

    /// `Σ ln x`, or `None` if the sample is not strictly positive.
    pub(crate) fn sum_log(&self) -> Option<f64> {
        self.moments.positive.then_some(self.moments.sum_log)
    }

    /// Mean of `ln x`, or `None` if the sample is not strictly positive.
    pub(crate) fn mean_log(&self) -> Option<f64> {
        self.moments
            .positive
            .then(|| self.moments.sum_log / self.values.len() as f64)
    }

    /// Largest `ln x`, or `None` if the sample is not strictly positive.
    /// Accumulated as a running fold over the computed `ln` values so it
    /// is bitwise equal to `logs.iter().fold(NEG_INFINITY, f64::max)`.
    pub(crate) fn max_log(&self) -> Option<f64> {
        self.moments.positive.then_some(self.moments.max_log)
    }

    /// Smallest observation.
    pub(crate) fn min(&self) -> f64 {
        self.moments.min
    }

    /// Whether all observations are equal (`min == max`) — the samples
    /// on which scale/shape fits are undefined.
    pub(crate) fn is_degenerate(&self) -> bool {
        self.moments.min == self.moments.max
    }

    /// O(1) positivity check mirroring the slice-path
    /// `check_positive` precondition of the positive-support fitters.
    ///
    /// # Errors
    ///
    /// [`StatsError::OutOfSupport`] naming `distribution` if any
    /// observation is not strictly positive.
    pub(crate) fn check_positive(&self, distribution: &'static str) -> Result<(), StatsError> {
        if self.moments.positive {
            Ok(())
        } else {
            Err(StatsError::OutOfSupport { distribution })
        }
    }

    /// The shared sorted view of the sample (ascending). Built on first
    /// use — the "one sort" of the one-pass/one-sort invariant — and
    /// cached for every later consumer (quantiles, KS statistics, hazard
    /// bins).
    ///
    /// The sort runs on `f64::total_cmp`'s integer keys: a key orders
    /// like its value under `total_cmp` and maps back to the same bits,
    /// so the view is bitwise what `sort_unstable_by(f64::total_cmp)`
    /// gives, at the price of an integer sort.
    pub fn sorted(&self) -> &[f64] {
        self.sorted.get_or_init(|| {
            let mut keys: Vec<i64> = self
                .values
                .iter()
                .map(|x| total_cmp_flip(x.to_bits() as i64))
                .collect();
            keys.sort_unstable();
            keys.into_iter()
                .map(|k| f64::from_bits(total_cmp_flip(k) as u64))
                .collect()
        })
    }
}

/// Maps an `f64`'s bits, read as `i64`, to the integer `f64::total_cmp`
/// compares: a negative value's magnitude bits are flipped so that more
/// negative sorts lower. The flip depends only on the sign bit, which it
/// leaves alone, so the map is its own inverse.
fn total_cmp_flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The single validation/accumulation pass. Sums are accumulated in
/// data order (bit-identical to the slice fitters' `iter().sum()`) and
/// returned with the `ln x` vector. For samples that are not strictly
/// positive the log caches are poisoned to NaN and the vector is empty
/// (its `ln` values would be NaN/−∞ garbage).
fn scan(values: &[f64]) -> Result<(Moments, Vec<f64>), StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let mut logs = Vec::with_capacity(values.len());
    let mut sum = 0.0;
    let mut sum_log = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut max_log = f64::NEG_INFINITY;
    let mut positive = true;
    for &x in values {
        if !x.is_finite() {
            return Err(StatsError::NonFinite);
        }
        positive &= x > 0.0;
        min = min.min(x);
        max = max.max(x);
        sum += x;
        let l = x.ln();
        logs.push(l);
        sum_log += l;
        max_log = max_log.max(l);
    }
    if !positive {
        logs.clear();
        sum_log = f64::NAN;
        max_log = f64::NAN;
    }
    let moments = Moments {
        sum,
        sum_log,
        min,
        max,
        max_log,
        positive,
    };
    Ok((moments, logs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            PreparedSample::new(&[]),
            Err(StatsError::EmptySample)
        ));
        assert!(matches!(
            PreparedSample::new(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
        assert!(matches!(
            PreparedSample::new(&[1.0, f64::INFINITY]),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn sums_match_slice_arithmetic_bitwise() {
        let data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 0.5];
        let ps = PreparedSample::new(&data).unwrap();
        assert_eq!(ps.moments.sum.to_bits(), data.iter().sum::<f64>().to_bits());
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        assert_eq!(
            ps.sum_log().unwrap().to_bits(),
            logs.iter().sum::<f64>().to_bits()
        );
        let max_log = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(ps.max_log().unwrap().to_bits(), max_log.to_bits());
        assert_eq!(ps.logs().unwrap(), logs.as_slice());
        assert_eq!(ps.min(), 0.5);
        assert_eq!(ps.moments.max, 9.0);
        assert!(ps.check_positive("weibull").is_ok());
        assert!(!ps.is_degenerate());
    }

    #[test]
    fn nonpositive_sample_hides_log_caches() {
        let ps = PreparedSample::new(&[1.0, 0.0, 2.0]).unwrap();
        assert!(ps.logs().is_none());
        assert!(ps.sum_log().is_none());
        assert!(ps.mean_log().is_none());
        assert!(ps.max_log().is_none());
        assert!(ps.check_positive("weibull").is_err());
        // The value-side caches still work.
        assert_eq!(ps.moments.sum, 3.0);
        assert_eq!(ps.min(), 0.0);
    }

    #[test]
    fn sorted_view_is_lazy_and_shared() {
        let ps = PreparedSample::new(&[3.0, 1.0, 2.0]).unwrap();
        let a = ps.sorted().as_ptr();
        let b = ps.sorted().as_ptr();
        assert_eq!(a, b, "sorted view must be cached, not rebuilt");
        assert_eq!(ps.sorted(), &[1.0, 2.0, 3.0]);
        assert_eq!(crate::descriptive::quantile_sorted(ps.sorted(), 0.5), 2.0);
        let data = [0.0, -2.5, f64::MAX, -0.0, f64::from_bits(1), -f64::MAX, 0.0];
        let mut reference = data.to_vec();
        reference.sort_unstable_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ps = PreparedSample::new(&data).unwrap();
        assert_eq!(bits(ps.sorted()), bits(&reference));
    }

    #[test]
    fn degenerate_detection_matches_all_equal() {
        let ps = PreparedSample::new(&[2.0, 2.0, 2.0]).unwrap();
        assert!(ps.is_degenerate());
        assert!(ps.check_positive("weibull").is_ok());
    }
}
