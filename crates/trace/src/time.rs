//! Trace-local time: seconds since the start of the traced month.

use std::fmt;
use std::ops::{Add, Sub};

/// Seconds in a day.
pub const SECS_PER_DAY: u64 = 86_400;

/// Seconds in an hour.
pub const SECS_PER_HOUR: u64 = 3_600;

/// A point in trace time: whole seconds since the trace epoch (midnight
/// starting day 0 of the traced month).
///
/// # Example
///
/// ```
/// use consume_local_trace::SimTime;
///
/// let t = SimTime::from_day_hour(3, 20) + 1800;
/// assert_eq!(t.day(), 3);
/// assert_eq!(t.hour_of_day(), 20);
/// assert_eq!(t.second_of_hour(), 1800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The trace epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds a time from a day index and an hour of that day.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn from_day_hour(day: u32, hour: u32) -> Self {
        assert!(hour < 24, "hour must be < 24, got {hour}");
        SimTime(u64::from(day) * SECS_PER_DAY + u64::from(hour) * SECS_PER_HOUR)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// The 0-based day index.
    pub fn day(self) -> u32 {
        (self.0 / SECS_PER_DAY) as u32
    }

    /// The hour of day, `0..24`.
    pub fn hour_of_day(self) -> u32 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// The second within the current hour, `0..3600`.
    pub fn second_of_hour(self) -> u64 {
        self.0 % SECS_PER_HOUR
    }

    /// The day of week, `0..7`, treating day 0 as a Sunday (September 1st
    /// 2013 — the paper's focus month — was a Sunday).
    pub fn day_of_week(self) -> u32 {
        self.day() % 7
    }

    /// Whether this time falls on a weekend (Saturday or Sunday).
    pub fn is_weekend(self) -> bool {
        matches!(self.day_of_week(), 0 | 6)
    }

    /// Saturating subtraction of two times, as seconds.
    pub fn seconds_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{:02} {:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            (self.0 % SECS_PER_HOUR) / 60,
            self.0 % 60
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_hour_round_trip() {
        for day in [0u32, 1, 15, 29] {
            for hour in [0u32, 7, 23] {
                let t = SimTime::from_day_hour(day, hour);
                assert_eq!(t.day(), day);
                assert_eq!(t.hour_of_day(), hour);
            }
        }
    }

    #[test]
    #[should_panic(expected = "hour must be < 24")]
    fn rejects_bad_hour() {
        let _ = SimTime::from_day_hour(0, 24);
    }

    #[test]
    fn weekend_detection_sep2013() {
        // Day 0 = Sunday 1 Sep 2013, day 6 = Saturday 7 Sep.
        assert!(SimTime::from_day_hour(0, 12).is_weekend());
        assert!(SimTime::from_day_hour(6, 12).is_weekend());
        assert!(!SimTime::from_day_hour(2, 12).is_weekend()); // Tuesday
        assert!(SimTime::from_day_hour(7, 12).is_weekend()); // next Sunday
    }

    #[test]
    fn arithmetic_and_ordering() {
        let t = SimTime::from_day_hour(1, 0);
        assert_eq!((t + 60).as_secs(), SECS_PER_DAY + 60);
        assert_eq!((t - 10).as_secs(), SECS_PER_DAY - 10);
        assert_eq!((t - (2 * SECS_PER_DAY)).as_secs(), 0, "saturates at epoch");
        assert!(SimTime::EPOCH < t);
        assert_eq!(t.seconds_since(SimTime::EPOCH), SECS_PER_DAY);
        assert_eq!(SimTime::EPOCH.seconds_since(t), 0);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_day_hour(4, 21) + 125;
        assert_eq!(t.to_string(), "d04 21:02:05");
    }
}
