//! Failure rate over system lifetime — Fig. 4.
//!
//! The paper observes exactly two shapes: an early peak that decays
//! (type E/F, Fig. 4(a)) and a ramp to a peak near month 20 followed by
//! decay (type D/G, Fig. 4(b)). This module builds the monthly,
//! cause-stacked failure curve and classifies its shape.

use hpcfail_records::{SystemSpec, TraceIndex};

use crate::error::AnalysisError;

/// Monthly failure counts over a system's life, stacked by root cause
/// (the Fig. 4 bar stacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeCurve {
    /// `by_cause[m][c]` = failures in month `m` with cause index `c`
    /// (see [`hpcfail_records::RootCause::ALL`] for the ordering).
    pub by_cause: Vec<[u64; 6]>,
}

impl LifetimeCurve {
    /// Total failures per month.
    pub fn monthly_totals(&self) -> Vec<u64> {
        self.by_cause
            .iter()
            .map(|month| month.iter().sum())
            .collect()
    }

    /// Number of months covered.
    pub fn months(&self) -> usize {
        self.by_cause.len()
    }

    /// Classify the curve shape (the Fig. 4(a) vs Fig. 4(b) distinction).
    ///
    /// The monthly series is smoothed with a centered 5-month moving
    /// average; the curve is [`CurveShape::LatePeak`] when the smoothed
    /// maximum falls at month 10 or later, otherwise
    /// [`CurveShape::EarlyPeak`].
    pub fn classify(&self) -> CurveShape {
        if self.peak_month() >= 10 {
            CurveShape::LatePeak
        } else {
            CurveShape::EarlyPeak
        }
    }

    /// The month of the (smoothed) maximum failure rate.
    pub fn peak_month(&self) -> usize {
        let totals = self.monthly_totals();
        let smoothed = moving_average(&totals, 2);
        smoothed
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The two lifecycle shapes of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveShape {
    /// Fig. 4(a): failure rate highest in the first months, then drops
    /// (types E and F; also system 21).
    EarlyPeak,
    /// Fig. 4(b): failure rate grows for many months (≈20) before
    /// dropping (types D and G).
    LatePeak,
}

impl std::fmt::Display for CurveShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CurveShape::EarlyPeak => "early-peak (Fig 4a)",
            CurveShape::LatePeak => "late-peak (Fig 4b)",
        })
    }
}

/// Centered moving average with half-window `half` (window = 2·half+1).
fn moving_average(series: &[u64], half: usize) -> Vec<f64> {
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(series.len());
            series[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
        })
        .collect()
}

/// Build the Fig. 4 curve for one system: bucket its failures by months
/// since production start, stacked by cause. The system's records come
/// from its [`TraceIndex`] posting list instead of a filtered clone.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] if the system contributed fewer
/// than 10 failures (too little to classify a shape).
pub fn analyze_indexed(
    index: &TraceIndex,
    spec: &SystemSpec,
) -> Result<LifetimeCurve, AnalysisError> {
    let system_trace = index.system(spec.id());
    if system_trace.len() < 10 {
        return Err(AnalysisError::InsufficientData {
            what: "lifetime curve",
            needed: 10,
            got: system_trace.len(),
        });
    }
    let start = spec.production_start();
    let total_months = ((spec.production_end() - start) as f64
        / hpcfail_records::time::MONTH as f64)
        .ceil() as usize;
    let mut by_cause = vec![[0u64; 6]; total_months.max(1)];
    for r in system_trace.iter() {
        if let Some(m) = r.start().months_since(start) {
            if let Some(month) = by_cause.get_mut(m as usize) {
                month[r.cause().index()] += 1;
            }
        }
    }
    Ok(LifetimeCurve { by_cause })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{Catalog, FailureTrace, RootCause, SystemId};

    #[test]
    fn insufficient_data_rejected() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(5)).unwrap();
        assert!(matches!(
            analyze_indexed(&FailureTrace::new().index(), spec),
            Err(AnalysisError::InsufficientData { .. })
        ));
    }

    #[test]
    fn moving_average_boundaries() {
        let s = [10u64, 0, 0, 0, 10];
        let avg = moving_average(&s, 1);
        assert!((avg[0] - 5.0).abs() < 1e-12); // (10+0)/2
        assert!((avg[1] - 10.0 / 3.0).abs() < 1e-12);
        assert!((avg[4] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_curve_shapes() {
        fn curve(a: &[u64]) -> LifetimeCurve {
            LifetimeCurve {
                by_cause: a.iter().map(|&n| [n, 0, 0, 0, 0, 0]).collect(),
            }
        }
        // Early spike decaying: Fig 4(a).
        let early: Vec<u64> = (0..40).map(|m| 100u64.saturating_sub(m * 5) + 10).collect();
        assert_eq!(curve(&early).classify(), CurveShape::EarlyPeak);
        // Ramp to month 20: Fig 4(b).
        let late: Vec<u64> = (0..40)
            .map(|m| {
                if m <= 20 {
                    10 + m * 3
                } else {
                    70 - (m - 20) * 2
                }
            })
            .collect();
        let c = curve(&late);
        assert_eq!(c.classify(), CurveShape::LatePeak);
        assert!(
            (15..=25).contains(&c.peak_month()),
            "peak at {}",
            c.peak_month()
        );
    }

    #[test]
    fn fig4a_shape_on_synthetic_system5() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(5)).unwrap();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(5), 42).unwrap();
        let curve = analyze_indexed(&trace.index(), spec).unwrap();
        assert_eq!(
            curve.classify(),
            CurveShape::EarlyPeak,
            "type E drops early"
        );
        // First three months clearly above the last twelve's average.
        let totals = curve.monthly_totals();
        let head: f64 = totals[..3].iter().sum::<u64>() as f64 / 3.0;
        let n = totals.len();
        let tail: f64 = totals[n - 12..].iter().sum::<u64>() as f64 / 12.0;
        assert!(head > 1.8 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn fig4b_shape_on_synthetic_system19() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(19)).unwrap();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(19), 42).unwrap();
        let curve = analyze_indexed(&trace.index(), spec).unwrap();
        assert_eq!(
            curve.classify(),
            CurveShape::LatePeak,
            "type G ramps ~20 months"
        );
        let peak = curve.peak_month();
        assert!((12..=30).contains(&peak), "peak month {peak}");
    }

    #[test]
    fn cause_stacking_consistent() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(5)).unwrap();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(5), 42).unwrap();
        let curve = analyze_indexed(&trace.index(), spec).unwrap();
        // Sum of cause series equals monthly totals equals trace length.
        let totals = curve.monthly_totals();
        let stacked: u64 = RootCause::ALL
            .iter()
            .map(|c| curve.by_cause.iter().map(|m| m[c.index()]).sum::<u64>())
            .sum();
        assert_eq!(stacked, totals.iter().sum::<u64>());
        assert_eq!(stacked, trace.len() as u64);
        assert_eq!(curve.months(), totals.len());
    }

    #[test]
    fn shape_display() {
        assert!(CurveShape::EarlyPeak.to_string().contains("4a"));
        assert!(CurveShape::LatePeak.to_string().contains("4b"));
    }
}
