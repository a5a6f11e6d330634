//! Virtual time primitives.
//!
//! All components of the workspace — the discrete-event simulator, the
//! protocol core, the stream player and the UDP runtime — measure time as
//! microseconds from an arbitrary epoch (experiment start). The newtypes here
//! make instants and spans impossible to confuse and keep the arithmetic
//! checked in debug builds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant of virtual time, counted in microseconds from the start of an
/// experiment.
///
/// `Time` is an absolute point; spans between two points are [`Duration`]s.
/// The type is `Copy`, totally ordered, and cheap to hash, which makes it
/// suitable as a scheduling key in the discrete-event queue.
///
/// # Examples
///
/// ```
/// use gossip_types::{Duration, Time};
///
/// let t = Time::from_millis(1_500);
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t + Duration::from_millis(500), Time::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, counted in microseconds.
///
/// Unlike [`std::time::Duration`], this type is a thin `u64` wrapper so that
/// it can be used freely in tight simulation loops and as part of scheduling
/// keys without conversions.
///
/// # Examples
///
/// ```
/// use gossip_types::Duration;
///
/// let gossip_period = Duration::from_millis(200);
/// assert_eq!(gossip_period * 5, Duration::from_secs(1));
/// assert_eq!(Duration::from_secs(1) / gossip_period, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The experiment epoch (time zero).
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// deadline sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from microseconds since the epoch.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros)
    }

    /// Creates an instant from milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * 1_000)
    }

    /// Creates an instant from whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * 1_000_000)
    }

    /// Returns the number of microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds since the epoch.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time as fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at [`Time::MAX`] instead of
    /// overflowing.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The greatest representable span; used as an "infinite" sentinel (e.g.
    /// the paper's `X = ∞` refresh rate).
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a span from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a span from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be a finite non-negative number");
        Duration((secs * 1e6).round() as u64)
    }

    /// Returns the span in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span in whole milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `self - other`, or [`Duration::ZERO`] if `other` is larger.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl SubAssign<Duration> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Sub for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<Duration> for u64 {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = u64;
    /// Returns how many whole `rhs` spans fit into `self`.
    #[inline]
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Duration::MAX {
            write!(f, "inf")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Time::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs(3).as_millis(), 3_000);
        assert_eq!(Duration::from_secs_f64(0.2), Duration::from_millis(200));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1);
        let d = Duration::from_millis(250);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + d - d, t);
        assert_eq!(d * 4, Duration::from_secs(1));
        assert_eq!(Duration::from_secs(1) / d, 4);
        assert_eq!(
            Duration::from_millis(450) % Duration::from_millis(200),
            Duration::from_millis(50)
        );
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::ZERO.saturating_since(Time::from_secs(1)), Duration::ZERO);
        assert_eq!(Time::MAX.saturating_add(Duration::from_secs(1)), Time::MAX);
        assert_eq!(Duration::ZERO.saturating_sub(Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = Time::ZERO - Time::from_secs(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_micros(5).to_string(), "5us");
        assert_eq!(Duration::from_millis(5).to_string(), "5ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5.000s");
        assert_eq!(Duration::MAX.to_string(), "inf");
        assert_eq!(Time::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Duration::from_secs(1).max(Duration::from_secs(2)), Duration::from_secs(2));
        assert_eq!(Duration::from_secs(1).min(Duration::from_secs(2)), Duration::from_secs(1));
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_secs).sum();
        assert_eq!(total, Duration::from_secs(10));
    }
}
