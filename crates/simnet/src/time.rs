//! Simulation time.
//!
//! BlameIt's unit of temporal aggregation is the **5-minute bucket**
//! (§2.1: quartets are keyed by 5-minute windows; incident persistence
//! is counted in consecutive 5-minute buckets, §2.3). [`SimTime`] is a
//! second count from the simulation epoch; [`TimeBucket`] is the
//! 5-minute bucket containing it. The epoch is defined to fall on a
//! Monday at 00:00 UTC so weekday/weekend logic is deterministic.

use std::fmt;
use std::ops::{Add, Sub};

/// Seconds per 5-minute aggregation bucket.
pub const BUCKET_SECS: u64 = 300;
/// Buckets per day.
pub const BUCKETS_PER_DAY: u32 = (86_400 / BUCKET_SECS) as u32;
/// Buckets per hour.
pub const BUCKETS_PER_HOUR: u32 = (3_600 / BUCKET_SECS) as u32;

/// An instant: whole seconds since the simulation epoch (a Monday,
/// 00:00 UTC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from whole days + seconds within the day.
    pub fn from_days(days: u64) -> SimTime {
        SimTime(days * 86_400)
    }

    /// Builds from hours since the epoch.
    pub fn from_hours(hours: u64) -> SimTime {
        SimTime(hours * 3_600)
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> u64 {
        self.0
    }

    /// The 5-minute bucket containing this instant.
    pub fn bucket(self) -> TimeBucket {
        TimeBucket((self.0 / BUCKET_SECS) as u32)
    }

    /// Day number since the epoch (day 0 is a Monday).
    pub fn day(self) -> u32 {
        (self.0 / 86_400) as u32
    }

    /// UTC hour of day, 0–23.
    pub fn hour_utc(self) -> u32 {
        ((self.0 % 86_400) / 3_600) as u32
    }

    /// Fractional UTC hour of day, `[0, 24)`.
    pub fn hour_utc_f(self) -> f64 {
        (self.0 % 86_400) as f64 / 3_600.0
    }

    /// Day of week, 0 = Monday … 6 = Sunday.
    pub fn weekday(self) -> u32 {
        self.day() % 7
    }

    /// True on Saturday/Sunday.
    pub fn is_weekend(self) -> bool {
        self.weekday() >= 5
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl Sub<u64> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_sub(rhs))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            self.hour_utc(),
            (self.0 % 3_600) / 60,
            self.0 % 60
        )
    }
}

/// A 5-minute aggregation bucket (index since the epoch).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TimeBucket(pub u32);

impl TimeBucket {
    /// Start instant of the bucket.
    pub fn start(self) -> SimTime {
        SimTime(self.0 as u64 * BUCKET_SECS)
    }

    /// Midpoint of the bucket (used as the representative instant when
    /// evaluating time-varying models for the whole bucket).
    pub fn mid(self) -> SimTime {
        SimTime(self.0 as u64 * BUCKET_SECS + BUCKET_SECS / 2)
    }

    /// Exclusive end instant.
    pub fn end(self) -> SimTime {
        SimTime((self.0 as u64 + 1) * BUCKET_SECS)
    }

    /// Day number of the bucket's start.
    pub fn day(self) -> u32 {
        self.0 / BUCKETS_PER_DAY
    }

    /// UTC hour of the bucket's start.
    pub fn hour_utc(self) -> u32 {
        (self.0 % BUCKETS_PER_DAY) / BUCKETS_PER_HOUR
    }

    /// Bucket index within its day, `0..288`.
    pub fn slot_in_day(self) -> u32 {
        self.0 % BUCKETS_PER_DAY
    }

    /// The bucket `n` buckets later.
    pub fn plus(self, n: u32) -> TimeBucket {
        TimeBucket(self.0 + n)
    }

    /// The bucket `n` buckets earlier (saturating at the epoch).
    pub fn minus(self, n: u32) -> TimeBucket {
        TimeBucket(self.0.saturating_sub(n))
    }
}

impl fmt::Debug for TimeBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bucket{}({})", self.0, self.start())
    }
}

impl fmt::Display for TimeBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bucket{}", self.0)
    }
}

/// A half-open time range `[start, end)` with bucket iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl TimeRange {
    /// Builds a range.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> TimeRange {
        assert!(end >= start, "range end before start");
        TimeRange { start, end }
    }

    /// The first `days` days from the epoch.
    pub fn days(days: u64) -> TimeRange {
        TimeRange::new(SimTime::ZERO, SimTime::from_days(days))
    }

    /// Duration in seconds.
    pub fn secs(self) -> u64 {
        self.end.0 - self.start.0
    }

    /// True if `t` falls inside the range.
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Iterates the buckets whose start lies in the range.
    pub fn buckets(self) -> impl Iterator<Item = TimeBucket> {
        let first = self.start.0.div_ceil(BUCKET_SECS) as u32;
        let last = (self.end.0 / BUCKET_SECS) as u32; // exclusive
        (first..last).map(TimeBucket)
    }

    /// Number of whole buckets in the range.
    pub fn num_buckets(self) -> u32 {
        let first = self.start.0.div_ceil(BUCKET_SECS) as u32;
        let last = (self.end.0 / BUCKET_SECS) as u32;
        last.saturating_sub(first)
    }
}

/// Local solar hour at a longitude: UTC hour shifted by ~1 h per 15°.
/// Good enough for diurnal modeling without a timezone database.
pub fn local_hour(t: SimTime, lon_deg: f64) -> f64 {
    let h = t.hour_utc_f() + lon_deg / 15.0;
    h.rem_euclid(24.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_arithmetic() {
        let t = SimTime(7 * 300 + 12);
        assert_eq!(t.bucket(), TimeBucket(7));
        assert_eq!(TimeBucket(7).start(), SimTime(2100));
        assert_eq!(TimeBucket(7).end(), SimTime(2400));
        assert!(TimeBucket(7).mid() > TimeBucket(7).start());
        assert!(TimeBucket(7).mid() < TimeBucket(7).end());
    }

    #[test]
    fn day_and_weekday() {
        assert_eq!(SimTime::ZERO.weekday(), 0); // Monday
        assert!(!SimTime::ZERO.is_weekend());
        assert_eq!(SimTime::from_days(5).weekday(), 5); // Saturday
        assert!(SimTime::from_days(5).is_weekend());
        assert!(SimTime::from_days(6).is_weekend());
        assert!(!SimTime::from_days(7).is_weekend());
        assert_eq!(SimTime::from_days(3).day(), 3);
    }

    #[test]
    fn hours() {
        let t = SimTime::from_hours(26); // day 1, 02:00
        assert_eq!(t.day(), 1);
        assert_eq!(t.hour_utc(), 2);
        assert!((t.hour_utc_f() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_slots() {
        assert_eq!(BUCKETS_PER_DAY, 288);
        assert_eq!(BUCKETS_PER_HOUR, 12);
        let b = TimeBucket(288 + 13);
        assert_eq!(b.day(), 1);
        assert_eq!(b.hour_utc(), 1);
        assert_eq!(b.slot_in_day(), 13);
    }

    #[test]
    fn bucket_plus_minus() {
        assert_eq!(TimeBucket(5).plus(3), TimeBucket(8));
        assert_eq!(TimeBucket(5).minus(3), TimeBucket(2));
        assert_eq!(TimeBucket(2).minus(5), TimeBucket(0));
    }

    #[test]
    fn range_buckets() {
        let r = TimeRange::days(1);
        assert_eq!(r.num_buckets(), 288);
        let v: Vec<_> = r.buckets().collect();
        assert_eq!(v.len(), 288);
        assert_eq!(v[0], TimeBucket(0));
        assert_eq!(v[287], TimeBucket(287));
        // Unaligned range rounds inward.
        let r2 = TimeRange::new(SimTime(10), SimTime(910));
        let v2: Vec<_> = r2.buckets().collect();
        assert_eq!(v2, vec![TimeBucket(1), TimeBucket(2)]);
    }

    #[test]
    fn range_contains() {
        let r = TimeRange::new(SimTime(100), SimTime(200));
        assert!(r.contains(SimTime(100)));
        assert!(r.contains(SimTime(199)));
        assert!(!r.contains(SimTime(200)));
        assert!(!r.contains(SimTime(99)));
        assert_eq!(r.secs(), 100);
    }

    #[test]
    #[should_panic(expected = "range end before start")]
    fn bad_range_panics() {
        TimeRange::new(SimTime(10), SimTime(5));
    }

    #[test]
    fn local_hour_wraps() {
        let noon_utc = SimTime::from_hours(12);
        assert!((local_hour(noon_utc, 0.0) - 12.0).abs() < 1e-9);
        // Tokyo (+139.7°E) is ~9.3 h ahead.
        let h = local_hour(noon_utc, 139.7);
        assert!((21.0..22.0).contains(&h), "{h}");
        // West coast (-122°) wraps below zero.
        let h2 = local_hour(noon_utc, -122.0);
        assert!((3.0..5.0).contains(&h2), "{h2}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime(90_061).to_string(), "d1+01:01:01");
        assert_eq!(TimeBucket(3).to_string(), "bucket3");
    }
}
