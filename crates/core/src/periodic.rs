//! Failure rates by hour of day and day of week — Fig. 5.
//!
//! The paper finds peak-hour rates about twice the overnight rate and
//! weekday rates nearly twice weekend rates, and rules out delayed
//! detection (no Monday spike) because failures are detected by an
//! automated monitor.

use hpcfail_records::TraceIndex;

use crate::error::AnalysisError;

/// Names of the week days in Fig. 5's order (Sunday first).
pub const DAY_NAMES: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];

/// Failure counts by hour of day and day of week.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicPattern {
    /// Failures per hour of day, index 0–23 (Fig. 5 left).
    pub hourly: [u64; 24],
    /// Failures per day of week, Sunday first (Fig. 5 right).
    pub daily: [u64; 7],
}

impl PeriodicPattern {
    /// Total failures counted.
    pub fn total(&self) -> u64 {
        self.hourly.iter().sum()
    }

    /// Ratio of the busiest to the quietest hour (paper: ≈2).
    /// NaN when any hour has zero failures.
    pub fn hourly_peak_to_trough(&self) -> f64 {
        let max = *self.hourly.iter().max().expect("24 hours") as f64;
        let min = *self.hourly.iter().min().expect("24 hours") as f64;
        if min == 0.0 {
            f64::NAN
        } else {
            max / min
        }
    }

    /// Mean weekday count divided by mean weekend count (paper: ≈2).
    pub fn weekday_to_weekend(&self) -> f64 {
        let weekday: f64 = self.daily[1..6].iter().sum::<u64>() as f64 / 5.0;
        let weekend: f64 = (self.daily[0] + self.daily[6]) as f64 / 2.0;
        if weekend == 0.0 {
            f64::NAN
        } else {
            weekday / weekend
        }
    }

    /// The paper's delayed-detection check: if failures were merely
    /// *detected* late (rather than occurring less often off-hours),
    /// Monday would tower over the other weekdays. Returns the ratio of
    /// Monday to the mean of Tuesday–Friday; values near 1 refute delayed
    /// detection.
    pub fn monday_excess(&self) -> f64 {
        let rest: f64 = self.daily[2..6].iter().sum::<u64>() as f64 / 4.0;
        if rest == 0.0 {
            f64::NAN
        } else {
            self.daily[1] as f64 / rest
        }
    }
}

/// Bucket all failures of an indexed trace by hour of day and day of
/// week (Fig. 5).
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for traces with fewer than 24·7
/// records (too sparse for a meaningful weekly profile).
pub fn analyze_indexed(index: &TraceIndex) -> Result<PeriodicPattern, AnalysisError> {
    const MIN_RECORDS: usize = 24 * 7;
    if index.len() < MIN_RECORDS {
        return Err(AnalysisError::InsufficientData {
            what: "periodic pattern",
            needed: MIN_RECORDS,
            got: index.len(),
        });
    }
    let mut hourly = [0u64; 24];
    let mut daily = [0u64; 7];
    for r in index.all().iter() {
        hourly[r.start().hour_of_day() as usize] += 1;
        daily[r.start().day_of_week() as usize] += 1;
    }
    Ok(PeriodicPattern { hourly, daily })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_small_trace_rejected() {
        assert!(matches!(
            analyze_indexed(&hpcfail_records::FailureTrace::new().index()),
            Err(AnalysisError::InsufficientData { .. })
        ));
    }

    #[test]
    fn ratios_on_handmade_pattern() {
        let mut hourly = [100u64; 24];
        hourly[14] = 200;
        hourly[4] = 100;
        let daily = [50u64, 100, 100, 100, 100, 100, 50];
        let p = PeriodicPattern { hourly, daily };
        assert!((p.hourly_peak_to_trough() - 2.0).abs() < 1e-12);
        assert!((p.weekday_to_weekend() - 2.0).abs() < 1e-12);
        assert!((p.monday_excess() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_hours_are_nan() {
        let mut hourly = [0u64; 24];
        hourly[0] = 5;
        let p = PeriodicPattern {
            hourly,
            daily: [0; 7],
        };
        assert!(p.hourly_peak_to_trough().is_nan());
        assert!(p.weekday_to_weekend().is_nan());
        assert!(p.monday_excess().is_nan());
    }

    #[test]
    fn fig5_shape_on_synthetic_site() {
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let p = analyze_indexed(&trace.index()).unwrap();
        assert_eq!(p.total(), trace.len() as u64);
        let h = p.hourly_peak_to_trough();
        assert!(
            (1.5..=2.8).contains(&h),
            "hourly peak/trough {h} (paper ≈2)"
        );
        let w = p.weekday_to_weekend();
        assert!((1.4..=2.4).contains(&w), "weekday/weekend {w} (paper ≈2)");
        // No Monday detection artifact.
        let m = p.monday_excess();
        assert!((0.85..=1.15).contains(&m), "monday excess {m}");
        // Afternoon busier than pre-dawn.
        assert!(p.hourly[15] > p.hourly[4]);
    }
}
