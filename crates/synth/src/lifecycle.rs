//! Failure-rate shapes over a system's lifetime (Fig. 4).
//!
//! The paper finds exactly two shapes across all 22 systems:
//!
//! * **Early drop** (type E and F, Fig. 4(a)) — the rate starts high and
//!   decays over the first months as infant bugs are fixed;
//! * **Ramp then drop** (type D and G, Fig. 4(b)) — the rate *grows* for
//!   nearly 20 months while the systems are slowly brought to full
//!   production, then decays.
//!
//! Both are modeled as multiplicative intensity curves over system age.

/// A multiplicative failure-intensity curve as a function of system age.
///
/// `intensity(age_months)` returns a multiplier applied to the system's
/// steady-state failure rate; the steady-state value is 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleShape {
    /// Constant rate over the whole lifetime.
    Flat,
    /// Fig. 4(a): starts at `initial` × steady state and decays
    /// exponentially with time constant `decay_months`.
    EarlyDrop {
        /// Multiplier at age 0 (e.g. 4.0 = four times the steady rate).
        initial: f64,
        /// Exponential decay time constant in months.
        decay_months: f64,
    },
    /// Fig. 4(b): starts at `initial`, ramps linearly to `peak` at
    /// `peak_month`, then decays exponentially back toward 1.
    RampThenDrop {
        /// Multiplier at age 0.
        initial: f64,
        /// Peak multiplier.
        peak: f64,
        /// Age (months) at which the peak occurs (~20 for type D/G).
        peak_month: f64,
        /// Decay time constant (months) after the peak.
        decay_months: f64,
    },
}

impl LifecycleShape {
    /// The canonical early-drop curve used for type E/F systems:
    /// 4× at deployment, decaying with a 6-month time constant.
    pub fn early_drop_default() -> Self {
        LifecycleShape::EarlyDrop {
            initial: 4.0,
            decay_months: 6.0,
        }
    }

    /// The canonical ramp curve used for type D/G systems: starts at
    /// 0.25×, peaks at 3× around month 20, decays with an 8-month
    /// constant. The wide intensity range over the first years is what
    /// drives the high early-era variability of time between failures
    /// (Fig. 6(a): C² ≈ 3.9).
    pub fn ramp_default() -> Self {
        LifecycleShape::RampThenDrop {
            initial: 0.25,
            peak: 3.0,
            peak_month: 20.0,
            decay_months: 8.0,
        }
    }

    /// Intensity multiplier at the given age (months). Clamped to be
    /// non-negative; ages before 0 behave like age 0.
    pub fn intensity(&self, age_months: f64) -> f64 {
        let age = age_months.max(0.0);
        match *self {
            LifecycleShape::Flat => 1.0,
            LifecycleShape::EarlyDrop {
                initial,
                decay_months,
            } => 1.0 + (initial - 1.0) * (-age / decay_months).exp(),
            LifecycleShape::RampThenDrop {
                initial,
                peak,
                peak_month,
                decay_months,
            } => {
                if age <= peak_month {
                    initial + (peak - initial) * age / peak_month
                } else {
                    1.0 + (peak - 1.0) * (-(age - peak_month) / decay_months).exp()
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Whether the curve's maximum occurs after deployment (the paper's
    /// classifier distinguishing Fig. 4(b) from Fig. 4(a)).
    pub(crate) fn peaks_late(shape: &LifecycleShape) -> bool {
        matches!(shape, LifecycleShape::RampThenDrop { .. })
    }

    #[test]
    fn flat_is_one_everywhere() {
        let s = LifecycleShape::Flat;
        for m in [0.0, 5.0, 50.0, 500.0] {
            assert_eq!(s.intensity(m), 1.0);
        }
        assert!(!peaks_late(&s));
    }

    #[test]
    fn early_drop_monotone_decreasing_to_one() {
        let s = LifecycleShape::early_drop_default();
        assert!((s.intensity(0.0) - 4.0).abs() < 1e-12);
        let mut last = f64::INFINITY;
        for m in 0..60 {
            let v = s.intensity(m as f64);
            assert!(v <= last);
            assert!(v >= 1.0);
            last = v;
        }
        assert!((s.intensity(100.0) - 1.0).abs() < 0.01);
        assert!(!peaks_late(&s));
    }

    #[test]
    fn ramp_peaks_at_peak_month() {
        let s = LifecycleShape::ramp_default();
        assert!((s.intensity(0.0) - 0.25).abs() < 1e-12);
        assert!((s.intensity(20.0) - 3.0).abs() < 1e-12);
        // Rising before the peak…
        assert!(s.intensity(10.0) > s.intensity(0.0));
        assert!(s.intensity(19.0) < s.intensity(20.0));
        // …falling after it.
        assert!(s.intensity(30.0) < s.intensity(20.0));
        assert!(s.intensity(60.0) < s.intensity(30.0));
        assert!(peaks_late(&s));
        // Month 20 is the argmax over a fine grid — the Fig 4(b) signature.
        let argmax = (0..600)
            .map(|i| i as f64 / 10.0)
            .max_by(|a, b| s.intensity(*a).partial_cmp(&s.intensity(*b)).unwrap())
            .unwrap();
        assert!((argmax - 20.0).abs() < 0.2);
    }

    #[test]
    fn negative_age_clamps() {
        let s = LifecycleShape::early_drop_default();
        assert_eq!(s.intensity(-5.0), s.intensity(0.0));
    }

    #[test]
    fn ramp_decays_toward_steady_state() {
        let s = LifecycleShape::ramp_default();
        assert!((s.intensity(200.0) - 1.0).abs() < 0.01);
    }
}
