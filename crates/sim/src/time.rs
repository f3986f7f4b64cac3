//! Simulated time.
//!
//! The simulator clock is a monotonically non-decreasing count of
//! microseconds since the start of the run. Microsecond resolution is finer
//! than anything the paper measures (its timing primitives had one-second
//! resolution, §5.1) while keeping a 12-hour experiment comfortably inside
//! `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, measured in microseconds from run start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond and saturating on overflow or negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        let us = s * 1e6;
        if us >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            // `us.round()`, half away from zero, without the software libm
            // call it lowers to on baseline x86-64: `0 < us < 2^64`, so the
            // cast truncates and the fraction `us - i` is exact.
            let i = us as u64;
            SimDuration(i + (us - i as f64 >= 0.5) as u64)
        }
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating scalar multiply (useful for back-off schedules).
    pub fn saturating_mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::MAX + SimDuration::from_secs(10);
        assert_eq!(t, SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_secs(1), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_saturates_at_zero() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(7);
        assert_eq!(b.since(a), SimDuration::from_secs(2));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_handles_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_micros(1_500_000)
        );
    }

    /// `from_secs_f64` as it was written with `f64::round`.
    fn round_oracle(s: f64) -> u64 {
        let us = s * 1e6;
        if s.is_nan() || s <= 0.0 {
            0
        } else if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us.round() as u64
        }
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round_at_the_edges() {
        let below_half = 0.5f64.next_down();
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let p64 = u64::MAX as f64;
        for us in [
            below_half,
            0.5,
            1.5,
            2.5,
            1.0 + below_half,
            p52 - 0.5,
            p52 + 0.5,
            p52 + 1.0,
            p53 - 1.0,
            p53,
            p53 + 2.0,
            p64.next_down(),
            p64,
        ] {
            let s = us / 1e6;
            assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                round_oracle(s),
                "{us} us"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn from_secs_f64_matches_f64_round(
            bits in proptest::prelude::any::<u64>(),
            whole in 0u64..1 << 53,
            half in 0u64..2,
        ) {
            // A random bit pattern (any sign, exponent, NaN or infinity),
            // and a whole or x.5 microsecond count.
            let edge = (whole as f64 + 0.5 * half as f64) / 1e6;
            for s in [f64::from_bits(bits), edge] {
                proptest::prop_assert_eq!(SimDuration::from_secs_f64(s).as_micros(), round_oracle(s));
            }
        }
    }

    #[test]
    fn display_formats_clock_time() {
        let t = SimTime::from_secs(3661);
        assert_eq!(t.to_string(), "01:01:01");
    }

    #[test]
    fn scalar_ops() {
        assert_eq!(SimDuration::from_secs(3) * 2, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(6) / 2, SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(2).saturating_mul_f64(1.5),
            SimDuration::from_secs(3)
        );
    }
}
