//! Simulated time.
//!
//! All simulators in this workspace share one notion of time: an unsigned
//! count of **picoseconds** since the start of the simulation. Picosecond
//! resolution lets us mix the FLASH clock domains (150/225/300 MHz
//! processors, a 75 MHz system clock, 50 ns network hops) with a worst-case
//! rounding error of one part in ~10⁵ per cycle, while staying in integer
//! arithmetic so every run is exactly reproducible.
//!
//! [`Time`] is a point on the simulation timeline, [`TimeDelta`] is a span,
//! and [`Clock`] converts between cycles of a particular frequency and time
//! spans.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::time::{Clock, Time, TimeDelta};
//!
//! let cpu = Clock::from_mhz(150);
//! let t = Time::ZERO + cpu.cycles(10);
//! assert_eq!(t.as_ps(), 66_670);
//! assert_eq!(cpu.cycles_in(t - Time::ZERO), 10);
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl Time {
    /// The start of simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds, rounded down.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Time in nanoseconds as a float (for reporting only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The later of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// A zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> TimeDelta {
        TimeDelta(ps)
    }

    /// Creates a span from nanoseconds.
    pub const fn from_ns(ns: u64) -> TimeDelta {
        TimeDelta(ns * 1000)
    }

    /// Creates a span from microseconds.
    pub const fn from_us(us: u64) -> TimeDelta {
        TimeDelta(us * 1_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span in nanoseconds, rounded down.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Span in nanoseconds as a float (for reporting only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two spans.
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.max(other.0))
    }

    /// The shorter of two spans.
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.min(other.0))
    }

    /// `self - other`, clamped at zero instead of panicking.
    pub fn saturating_sub(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Ratio of two spans as a float (for reporting only).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn ratio(self, denom: TimeDelta) -> f64 {
        assert!(denom.0 != 0, "ratio denominator must be non-zero");
        self.0 as f64 / denom.0 as f64
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    /// The span between two times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> TimeDelta {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        debug_assert!(self.0 >= rhs.0);
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        debug_assert!(self.0 >= rhs.0);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

/// A clock domain: converts between cycle counts and [`TimeDelta`]s.
///
/// The period is stored in picoseconds, rounded to the nearest integer.
/// For 150 MHz this is 6667 ps (error < 0.005 %), which is far below any
/// effect the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
    mhz: u32,
}

impl Clock {
    /// Creates a clock from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn from_mhz(mhz: u32) -> Clock {
        assert!(mhz > 0, "clock frequency must be non-zero");
        // period = 1e12 ps / (mhz * 1e6 Hz), rounded to nearest.
        let period_ps = (1_000_000 + u64::from(mhz) / 2) / u64::from(mhz);
        Clock { period_ps, mhz }
    }

    /// The clock frequency in MHz.
    pub fn mhz(self) -> u32 {
        self.mhz
    }

    /// The clock period.
    pub fn period(self) -> TimeDelta {
        TimeDelta(self.period_ps)
    }

    /// The span covered by `n` cycles.
    pub fn cycles(self, n: u64) -> TimeDelta {
        TimeDelta(self.period_ps * n)
    }

    /// How many whole cycles fit in `delta`.
    pub fn cycles_in(self, delta: TimeDelta) -> u64 {
        delta.0 / self.period_ps
    }

    /// Rounds `t` up to the next cycle boundary of this clock.
    pub fn align_up(self, t: Time) -> Time {
        let rem = t.0 % self.period_ps;
        if rem == 0 {
            t
        } else {
            Time(t.0 + (self.period_ps - rem))
        }
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_ns() {
        let t = Time::from_ns(140);
        assert_eq!(t.as_ns(), 140);
        assert_eq!(t.as_ps(), 140_000);
    }

    #[test]
    fn time_add_sub() {
        let a = Time::from_ns(10);
        let b = a + TimeDelta::from_ns(5);
        assert_eq!(b.as_ns(), 15);
        assert_eq!((b - a).as_ns(), 5);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(20);
        assert_eq!(a.saturating_since(b), TimeDelta::ZERO);
        assert_eq!(b.saturating_since(a).as_ns(), 10);
    }

    #[test]
    fn clock_periods() {
        assert_eq!(Clock::from_mhz(150).period().as_ps(), 6667);
        assert_eq!(Clock::from_mhz(225).period().as_ps(), 4444);
        assert_eq!(Clock::from_mhz(300).period().as_ps(), 3333);
        assert_eq!(Clock::from_mhz(75).period().as_ps(), 13333);
        assert_eq!(Clock::from_mhz(1000).period().as_ps(), 1000);
    }

    #[test]
    fn clock_cycle_math() {
        let c = Clock::from_mhz(100);
        assert_eq!(c.cycles(3).as_ns(), 30);
        assert_eq!(c.cycles_in(TimeDelta::from_ns(95)), 9);
    }

    #[test]
    fn clock_align_up() {
        let c = Clock::from_mhz(100); // 10ns period
        assert_eq!(c.align_up(Time::from_ns(10)), Time::from_ns(10));
        assert_eq!(c.align_up(Time::from_ns(11)), Time::from_ns(20));
        assert_eq!(c.align_up(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn delta_scalar_ops() {
        let d = TimeDelta::from_ns(10);
        assert_eq!((d * 3).as_ns(), 30);
        assert_eq!((d / 2).as_ns(), 5);
        assert_eq!(d.max(TimeDelta::from_ns(12)).as_ns(), 12);
    }

    #[test]
    fn ratio_works() {
        let a = TimeDelta::from_ns(30);
        let b = TimeDelta::from_ns(20);
        assert!((a.ratio(b) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ratio_zero_denominator_panics() {
        let _ = TimeDelta::from_ns(1).ratio(TimeDelta::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Time::from_ns(5)).is_empty());
        assert!(!format!("{}", TimeDelta::from_ns(5)).is_empty());
        assert_eq!(format!("{}", Clock::from_mhz(150)), "150 MHz");
    }
}
