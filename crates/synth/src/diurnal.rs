//! Time-of-day and day-of-week failure-intensity modulation (Fig. 5).
//!
//! The paper observes the failure rate during peak daytime hours is about
//! twice the overnight rate, and weekday rates are nearly twice weekend
//! rates, interpreting both as workload-driven. The generator reproduces
//! this with a multiplicative intensity profile whose weekly mean is
//! normalized to 1 so it does not bias total failure counts.

use hpcfail_records::time::Timestamp;

/// Multiplicative weekly intensity profile: 24 hourly weights × 7 daily
/// weights, normalized so the mean over a full week is 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    hourly: [f64; 24],
    daily: [f64; 7],
}

impl DiurnalProfile {
    /// A flat profile (no modulation).
    pub(crate) fn flat() -> Self {
        DiurnalProfile {
            hourly: [1.0; 24],
            daily: [1.0; 7],
        }
    }

    /// The LANL-like profile: a smooth sinusoidal day shape with a 2×
    /// peak-to-trough ratio (trough ~4 am, peak ~2 pm), weekdays ~1.85×
    /// the weekend level.
    pub(crate) fn lanl_default() -> Self {
        let mut hourly = [0.0f64; 24];
        for (h, w) in hourly.iter_mut().enumerate() {
            // Cosine with minimum at 4:00 and maximum at 16:00, ratio 2:1.
            let phase = (h as f64 - 4.0) / 24.0 * std::f64::consts::TAU;
            *w = 1.0 - (1.0 / 3.0) * phase.cos();
        }
        // Sun..Sat ordering (day_of_week: 0 = Sunday).
        let daily = [0.68, 1.15, 1.18, 1.18, 1.16, 1.12, 0.65];
        let mut p = DiurnalProfile { hourly, daily };
        p.normalize();
        p
    }

    fn normalize(&mut self) {
        let hm = self.hourly.iter().sum::<f64>() / 24.0;
        for w in &mut self.hourly {
            *w /= hm;
        }
        let dm = self.daily.iter().sum::<f64>() / 7.0;
        for w in &mut self.daily {
            *w /= dm;
        }
    }

    /// The intensity multiplier at a given instant.
    pub(crate) fn intensity(&self, at: Timestamp) -> f64 {
        self.hourly[at.hour_of_day() as usize] * self.daily[at.day_of_week() as usize]
    }
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        DiurnalProfile::lanl_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::time::{DAY, HOUR};

    /// The mean intensity of a profile sampled every hour across one
    /// week (≈1 after normalization).
    fn weekly_mean(profile: &DiurnalProfile) -> f64 {
        let mut total = 0.0;
        let mut n = 0.0;
        for d in 0..7u64 {
            for h in 0..24u64 {
                total += profile.intensity(Timestamp::from_secs(d * DAY + h * HOUR));
                n += 1.0;
            }
        }
        total / n
    }

    #[test]
    fn flat_profile_is_unity() {
        let p = DiurnalProfile::flat();
        assert_eq!(p.intensity(Timestamp::from_secs(12345)), 1.0);
        assert!((weekly_mean(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lanl_profile_is_normalized() {
        let p = DiurnalProfile::lanl_default();
        assert!((weekly_mean(&p) - 1.0).abs() < 1e-9);
        let hm = p.hourly.iter().sum::<f64>() / 24.0;
        assert!((hm - 1.0).abs() < 1e-12);
        let dm = p.daily.iter().sum::<f64>() / 7.0;
        assert!((dm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lanl_profile_matches_paper_ratios() {
        let p = DiurnalProfile::lanl_default();
        // Hour-of-day peak to trough, and weekday to weekend intensity.
        let max = p.hourly.iter().cloned().fold(f64::MIN, f64::max);
        let min = p.hourly.iter().cloned().fold(f64::MAX, f64::min);
        let h_ratio = max / min;
        assert!((1.7..=2.3).contains(&h_ratio), "hour ratio {h_ratio}");
        let weekday = p.daily[1..6].iter().sum::<f64>() / 5.0;
        let weekend = (p.daily[0] + p.daily[6]) / 2.0;
        let d_ratio = weekday / weekend;
        assert!((1.6..=2.1).contains(&d_ratio), "weekday ratio {d_ratio}");
    }

    #[test]
    fn peak_afternoon_trough_night() {
        let p = DiurnalProfile::lanl_default();
        // Tuesday 16:00 (epoch is Monday; +1 day, +16h)
        let peak = Timestamp::from_secs(DAY + 16 * HOUR);
        // Tuesday 04:00
        let trough = Timestamp::from_secs(DAY + 4 * HOUR);
        assert!(p.intensity(peak) > 1.5 * p.intensity(trough));
        // Saturday afternoon below Tuesday afternoon.
        let saturday = Timestamp::from_secs(5 * DAY + 16 * HOUR);
        assert!(p.intensity(saturday) < p.intensity(peak));
    }
}
