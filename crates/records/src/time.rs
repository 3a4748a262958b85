//! Simulation time for the failure trace.
//!
//! The LANL data spans June 1996 – November 2005. We anchor a simulated
//! clock at **1996-01-01 00:00:00 UTC** (a Monday) and measure in whole
//! seconds. Calendar math (hour of day, day of week, civil dates) is
//! implemented from scratch using Howard Hinnant's `days_from_civil`
//! algorithm so the periodic analyses (Fig. 5) bucket exactly like real
//! wall-clock time.

use std::fmt;
use std::ops::{Add, Sub};

/// Seconds in one minute.
pub const MINUTE: u64 = 60;
/// Seconds in one hour.
pub const HOUR: u64 = 3_600;
/// Seconds in one day.
pub const DAY: u64 = 86_400;
/// Seconds in one week.
pub const WEEK: u64 = 7 * DAY;
/// Seconds in the average month (30.44 days) — used only for age-bucketing
/// failures into "months in production" (Fig. 4), matching the paper's
/// month granularity.
pub const MONTH: u64 = 2_629_800; // 30.4375 days
/// Seconds in the average Julian year (365.25 days).
pub const YEAR: u64 = 31_557_600;

/// The trace epoch as a civil date: 1996-01-01 (a Monday).
pub const EPOCH_CIVIL: (i64, u32, u32) = (1996, 1, 1);

/// A point in simulated time: whole seconds since 1996-01-01 00:00 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch (1996-01-01 00:00:00).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from raw seconds since the epoch.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Construct from a civil date and time of day.
    ///
    /// Returns `None` for dates before the epoch or invalid civil
    /// date/time components.
    pub fn from_civil(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Option<Self> {
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        if day > days_in_month(year, month) {
            return None;
        }
        if hour >= 24 || minute >= 60 || second >= 60 {
            return None;
        }
        let days = days_from_civil(year, month, day)
            - days_from_civil(EPOCH_CIVIL.0, EPOCH_CIVIL.1, EPOCH_CIVIL.2);
        if days < 0 {
            return None;
        }
        Some(Timestamp(
            days as u64 * DAY + hour as u64 * HOUR + minute as u64 * MINUTE + second as u64,
        ))
    }

    /// Seconds since the epoch.
    pub fn as_secs(&self) -> u64 {
        self.0
    }

    /// Hour of the day, 0–23 (Fig. 5 left).
    pub fn hour_of_day(&self) -> u32 {
        ((self.0 % DAY) / HOUR) as u32
    }

    /// Day of the week, 0 = Sunday … 6 = Saturday (Fig. 5 right uses
    /// Sun..Sat ordering).
    pub fn day_of_week(&self) -> u32 {
        // The epoch 1996-01-01 was a Monday (= 1 in Sun..Sat numbering).
        (((self.0 / DAY) + 1) % 7) as u32
    }

    /// The civil `(year, month, day)` of this instant.
    pub fn civil_date(&self) -> (i64, u32, u32) {
        civil_from_days(
            days_from_civil(EPOCH_CIVIL.0, EPOCH_CIVIL.1, EPOCH_CIVIL.2) + (self.0 / DAY) as i64,
        )
    }

    /// Whole 30.44-day months elapsed since `start` — the paper's
    /// "months in production use" axis (Fig. 4). Returns `None` when
    /// `self < start`.
    pub fn months_since(&self, start: Timestamp) -> Option<u64> {
        self.0.checked_sub(start.0).map(|d| d / MONTH)
    }

    /// Signed duration to another timestamp in seconds.
    pub fn seconds_until(&self, later: Timestamp) -> i64 {
        later.0 as i64 - self.0 as i64
    }

    /// Saturating addition of a duration in seconds.
    pub fn saturating_add_secs(&self, secs: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(secs))
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    /// Add seconds.
    fn add(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    /// Difference in seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.civil_date();
        let secs = self.0 % DAY;
        write!(
            f,
            "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
            secs / HOUR,
            (secs % HOUR) / MINUTE,
            secs % MINUTE
        )
    }
}

/// Days from civil date to the proleptic Gregorian day number
/// (Hinnant's algorithm; day 0 = 1970-01-01).
pub(crate) fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as u64; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date from a proleptic Gregorian day number (inverse of
/// [`days_from_civil`]).
pub(crate) fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Whether `year` is a Gregorian leap year.
pub(crate) fn is_leap_year(year: i64) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in the given month.
pub(crate) fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monday() {
        assert_eq!(Timestamp::EPOCH.day_of_week(), 1, "1996-01-01 was a Monday");
    }

    #[test]
    fn civil_round_trip_through_hinnant() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1996, 1, 1),
            (1996, 2, 29), // leap day
            (2000, 2, 29), // century leap
            (1999, 12, 31),
            (2005, 11, 30),
            (2038, 1, 19),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "{y}-{m}-{d}");
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
    }

    #[test]
    fn from_civil_matches_known_offsets() {
        assert_eq!(
            Timestamp::from_civil(1996, 1, 1, 0, 0, 0),
            Some(Timestamp::EPOCH)
        );
        // 1996 is a leap year: Jan 1 + 366 days = 1997-01-01.
        let next_year = Timestamp::from_civil(1997, 1, 1, 0, 0, 0).unwrap();
        assert_eq!(next_year.as_secs(), 366 * DAY);
        // Time of day components.
        let t = Timestamp::from_civil(1996, 1, 2, 13, 45, 30).unwrap();
        assert_eq!(t.as_secs(), DAY + 13 * HOUR + 45 * MINUTE + 30);
    }

    #[test]
    fn from_civil_rejects_invalid() {
        assert!(Timestamp::from_civil(1995, 12, 31, 0, 0, 0).is_none()); // pre-epoch
        assert!(Timestamp::from_civil(1996, 13, 1, 0, 0, 0).is_none());
        assert!(Timestamp::from_civil(1996, 2, 30, 0, 0, 0).is_none());
        assert!(Timestamp::from_civil(1997, 2, 29, 0, 0, 0).is_none()); // not a leap year
        assert!(Timestamp::from_civil(1996, 4, 31, 0, 0, 0).is_none());
        assert!(Timestamp::from_civil(1996, 1, 1, 24, 0, 0).is_none());
        assert!(Timestamp::from_civil(1996, 1, 1, 0, 60, 0).is_none());
    }

    #[test]
    fn hour_and_weekday_progression() {
        let mut t = Timestamp::EPOCH;
        assert_eq!(t.hour_of_day(), 0);
        t = t + 5 * HOUR;
        assert_eq!(t.hour_of_day(), 5);
        t = t + 20 * HOUR; // next day, 01:00
        assert_eq!(t.hour_of_day(), 1);
        assert_eq!(t.day_of_week(), 2, "Tuesday");
        // Saturday Jan 6, 1996.
        let sat = Timestamp::from_civil(1996, 1, 6, 12, 0, 0).unwrap();
        assert_eq!(sat.day_of_week(), 6);
        let sun = Timestamp::from_civil(1996, 1, 7, 12, 0, 0).unwrap();
        assert_eq!(sun.day_of_week(), 0);
    }

    #[test]
    fn known_weekday_sept_11_2001() {
        // 2001-09-11 was a Tuesday.
        let t = Timestamp::from_civil(2001, 9, 11, 9, 0, 0).unwrap();
        assert_eq!(t.day_of_week(), 2);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_civil(2005, 11, 30, 23, 59, 59).unwrap();
        assert_eq!(t.to_string(), "2005-11-30 23:59:59");
        assert_eq!(Timestamp::EPOCH.to_string(), "1996-01-01 00:00:00");
    }

    #[test]
    fn months_since_buckets() {
        let start = Timestamp::from_civil(2001, 12, 1, 0, 0, 0).unwrap();
        assert_eq!((start + 10).months_since(start), Some(0));
        assert_eq!((start + MONTH).months_since(start), Some(1));
        assert_eq!((start + 25 * MONTH + 5).months_since(start), Some(25));
        // A failure before production start has no age.
        assert_eq!(Timestamp::EPOCH.months_since(start), None);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Timestamp::from_secs(100);
        let b = a + 50;
        assert_eq!(b - a, 50);
        assert!(a < b);
        assert_eq!(a.seconds_until(b), 50);
        assert_eq!(b.seconds_until(a), -50);
        assert_eq!(a.saturating_add_secs(u64::MAX).as_secs(), u64::MAX);
    }

    #[test]
    fn year_extraction() {
        let t = Timestamp::from_civil(1999, 12, 31, 23, 0, 0).unwrap();
        assert_eq!(t.civil_date().0, 1999);
        assert_eq!((t + 2 * HOUR).civil_date().0, 2000);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(1996));
        assert!(is_leap_year(2000)); // divisible by 400
        assert!(!is_leap_year(1900)); // divisible by 100, not 400
        assert!(!is_leap_year(1997));
        assert_eq!(days_in_month(1996, 2), 29);
        assert_eq!(days_in_month(1997, 2), 28);
        assert_eq!(days_in_month(1997, 13), 0);
    }

    #[test]
    fn secs_round_trip() {
        let t = Timestamp::from_civil(2002, 5, 17, 8, 30, 0).unwrap();
        assert_eq!(Timestamp::from_secs(t.as_secs()), t);
    }
}
