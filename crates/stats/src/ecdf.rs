//! Empirical cumulative distribution functions — the paper's primary
//! visualization device (Figs. 3(b), 6, 7(a) all overlay fitted CDFs on an
//! empirical CDF).

use crate::error::StatsError;

/// An empirical CDF built from a sample.
///
/// Stores the sorted sample; evaluation is a binary search, so `O(log n)`
/// per query after `O(n log n)` construction.
///
/// ```
/// use hpcfail_stats::ecdf::Ecdf;
/// let e = Ecdf::new(&[3.0, 1.0, 2.0])?;
/// assert_eq!(e.eval(0.5), 0.0);
/// assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(e.eval(3.0), 1.0);
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an empirical CDF from a sample.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] if `data` is empty,
    /// [`StatsError::NonFinite`] if it contains NaN/∞.
    pub fn new(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Ok(Ecdf { sorted })
    }

    /// `F̂(x)` = fraction of observations ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements ≤ x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile via [`crate::descriptive::quantile_sorted`].
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        crate::descriptive::quantile_sorted(&self.sorted, q)
    }

    /// The sorted underlying sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Ecdf::new(&[]), Err(StatsError::EmptySample)));
        assert!(matches!(
            Ecdf::new(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn eval_steps_through_sample() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.eval(1.9), 0.0);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(4.9), 0.75);
        assert_eq!(e.eval(5.0), 1.0);
    }

    #[test]
    fn quantile_median() {
        let e = Ecdf::new(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(e.quantile(0.5), 5.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 9.0);
        assert_eq!(e.sorted_values(), &[1.0, 5.0, 9.0]);
    }
}
