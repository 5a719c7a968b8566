//! Simulated time, measured in core clock cycles.
//!
//! The whole DPU simulation runs on a single clock domain: the 800 MHz
//! dpCore clock. DRAM and crossbar models convert their native latencies
//! into core cycles at configuration time, which keeps the event queue
//! simple and exact (no rational clock-domain crossing arithmetic at run
//! time).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) simulated time, in core clock cycles.
///
/// `Time` is an absolute timestamp when returned by the engine and a span
/// when produced by subtraction; both views share the same representation,
/// mirroring `std::time::Duration` arithmetic.
///
/// # Example
///
/// ```
/// use dpu_sim::Time;
/// let a = Time::from_cycles(100);
/// let b = a + Time::from_cycles(20);
/// assert_eq!((b - a).cycles(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a raw cycle count.
    ///
    /// ```
    /// # use dpu_sim::Time;
    /// assert_eq!(Time::from_cycles(42).cycles(), 42);
    /// ```
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        Time(cycles)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Converts seconds to the nearest whole cycle at `freq` (a half
    /// cycle rounds away from zero), saturating at [`Time::MAX`] for
    /// +∞ and for spans past `u64` cycles.
    ///
    /// # Panics
    ///
    /// Panics on a NaN or negative `seconds`.
    ///
    /// ```
    /// # use dpu_sim::{Time, Frequency};
    /// assert_eq!(Time::from_secs(20e-6, Frequency::DPU_CORE).cycles(), 16_000);
    /// ```
    pub fn from_secs(seconds: f64, freq: Frequency) -> Self {
        assert!(seconds >= 0.0, "time must be a non-negative number of seconds: {seconds}");
        // `as` saturates: +∞ and spans past `u64` become `u64::MAX`.
        Time((seconds * freq.hz()).round() as u64)
    }

    /// Converts to seconds given the clock frequency.
    ///
    /// ```
    /// # use dpu_sim::{Time, Frequency};
    /// let t = Time::from_cycles(800_000_000);
    /// assert!((t.as_secs(Frequency::DPU_CORE) - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn as_secs(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.hz()
    }

    /// Converts to nanoseconds given the clock frequency.
    #[inline]
    pub fn as_nanos(self, freq: Frequency) -> f64 {
        self.as_secs(freq) * 1e9
    }

    /// Saturating addition; `Time::MAX` absorbs.
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction, clamping at [`Time::ZERO`].
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Time {
    fn from(cycles: u64) -> Self {
        Time(cycles)
    }
}

/// A clock frequency, used to convert cycle counts to wall-clock rates.
///
/// # Example
///
/// ```
/// use dpu_sim::Frequency;
/// let f = Frequency::from_mhz(800);
/// assert_eq!(f.hz(), 8.0e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// The dpCore clock of the fabricated 40 nm DPU: 800 MHz.
    pub const DPU_CORE: Frequency = Frequency(800.0e6);

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Frequency(mhz as f64 * 1e6)
    }

    /// Creates a frequency from hertz.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz > 0.0, "frequency must be positive");
        Frequency(hz)
    }

    /// The frequency in hertz.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Converts a byte count over a cycle span into bytes/second.
    ///
    /// Returns 0.0 for an empty span to avoid NaN propagation in reports.
    pub fn bytes_per_sec(self, bytes: u64, span: Time) -> f64 {
        if span == Time::ZERO {
            return 0.0;
        }
        bytes as f64 / span.as_secs(self)
    }

    /// Converts bytes/second into bytes-per-cycle at this frequency.
    pub fn bytes_per_cycle(self, bytes_per_sec: f64) -> f64 {
        bytes_per_sec / self.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MHz", self.0 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let a = Time::from_cycles(7);
        let b = Time::from_cycles(3);
        assert_eq!((a + b).cycles(), 10);
        assert_eq!((a - b).cycles(), 4);
        let mut c = a;
        c += b;
        assert_eq!(c.cycles(), 10);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn time_ordering_and_minmax() {
        let a = Time::from_cycles(5);
        let b = Time::from_cycles(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(Time::MAX.saturating_add(Time::from_cycles(1)), Time::MAX);
        assert_eq!(Time::ZERO.saturating_sub(Time::from_cycles(1)), Time::ZERO);
    }

    #[test]
    fn seconds_conversion_at_core_clock() {
        let t = Time::from_cycles(400_000_000);
        assert!((t.as_secs(Frequency::DPU_CORE) - 0.5).abs() < 1e-12);
        assert!((t.as_nanos(Frequency::DPU_CORE) - 0.5e9).abs() < 1e-3);
    }

    #[test]
    fn from_secs_rounds_to_the_nearest_cycle() {
        let f = Frequency::DPU_CORE;
        // 20 µs is 16 000.000000000002 cycles in f64: exactly 16 000.
        assert_eq!(Time::from_secs(20e-6, f).cycles(), 16_000);
        // Half cycles round away from zero; just below or above a half
        // goes to the nearer cycle.
        let hz = Frequency::from_hz(1.0);
        assert_eq!(Time::from_secs(0.5, hz).cycles(), 1);
        assert_eq!(Time::from_secs(1.5, hz).cycles(), 2);
        assert_eq!(Time::from_secs(2.5, hz).cycles(), 3);
        assert_eq!(Time::from_secs(2.49, hz).cycles(), 2);
        assert_eq!(Time::from_secs(2.51, hz).cycles(), 3);
        assert_eq!(Time::from_secs(1.4 / 8.0e8, f).cycles(), 1);
        assert_eq!(Time::from_secs(1.6 / 8.0e8, f).cycles(), 2);
        assert_eq!(Time::from_secs(0.0, f), Time::ZERO);
        assert_eq!(Time::from_secs(-0.0, f), Time::ZERO);
        // A 10^9 s window is 8 × 10^17 cycles, well inside u64.
        assert_eq!(Time::from_secs(1e9, f).cycles(), 800_000_000_000_000_000);
        assert_eq!(Time::from_secs(f64::INFINITY, f), Time::MAX);
        assert_eq!(Time::from_secs(1e30, f), Time::MAX);
        // Whole cycles survive the round trip exactly.
        let t = Time::from_cycles(5_365);
        assert_eq!(Time::from_secs(t.as_secs(f), f), t);
    }

    #[test]
    #[should_panic(expected = "non-negative number of seconds")]
    fn from_secs_rejects_nan() {
        let _ = Time::from_secs(f64::NAN, Frequency::DPU_CORE);
    }

    #[test]
    #[should_panic(expected = "non-negative number of seconds")]
    fn from_secs_rejects_negative_time() {
        let _ = Time::from_secs(-1e-9, Frequency::DPU_CORE);
    }

    #[test]
    fn bandwidth_conversion() {
        let f = Frequency::DPU_CORE;
        // 16 bytes per cycle at 800 MHz = 12.8 GB/s (DDR3-1600 peak).
        let bps = f.bytes_per_sec(16 * 800_000_000, Time::from_cycles(800_000_000));
        assert!((bps - 12.8e9).abs() < 1.0);
        assert!((f.bytes_per_cycle(12.8e9) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_rate_is_zero() {
        assert_eq!(Frequency::DPU_CORE.bytes_per_sec(100, Time::ZERO), 0.0);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1u64, 2, 3].iter().map(|&c| Time::from_cycles(c)).sum();
        assert_eq!(total.cycles(), 6);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_cycles(12).to_string(), "12 cyc");
        assert_eq!(Frequency::DPU_CORE.to_string(), "800 MHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0.0);
    }
}
