//! Load and availability traces.
//!
//! The paper's evaluation ran on *non-dedicated* resources whose performance
//! fluctuated with ambient load (§4) and whose availability churned as
//! Condor reclaimed workstations, LSF killed idle jobs, and SCINet was
//! reconfigured on the fly (§2.2, §5). These traces are the simulator's
//! model of those processes: a [`LoadTrace`] maps simulated time to a
//! utilization fraction in `[0, 1)` stolen from the guest application, and
//! availability is precomputed as explicit up/down transitions so runs are
//! deterministic.

use crate::rng::Xoshiro256;
use crate::time::{SimDuration, SimTime};

/// Background CPU or network utilization as a function of time.
///
/// `load(t)` is the fraction of the resource consumed by competing traffic
/// or jobs; the guest application receives the `1 - load(t)` remainder.
pub trait LoadTrace: Send {
    /// Utilization at `t`, clamped by callers to `[0, 0.999]`.
    fn load(&self, t: SimTime) -> f64;
}

/// Constant background load.
#[derive(Clone, Debug)]
pub struct ConstantLoad(pub f64);

impl LoadTrace for ConstantLoad {
    fn load(&self, _t: SimTime) -> f64 {
        self.0
    }
}

/// A step spike: load jumps to `level` during `[start, end)`.
///
/// This is the model of the SC98 judging window (§4.1): at 11:00 the other
/// contest entries claimed shared resources and SCINet load rose sharply.
#[derive(Clone, Debug)]
pub struct SpikeLoad {
    /// Spike onset.
    pub start: SimTime,
    /// Spike end.
    pub end: SimTime,
    /// Load inside the window.
    pub level: f64,
}

impl LoadTrace for SpikeLoad {
    fn load(&self, t: SimTime) -> f64 {
        if t >= self.start && t < self.end {
            self.level
        } else {
            0.0
        }
    }
}

/// A mean-reverting random walk (AR(1)), precomputed at a fixed step so the
/// same trace is returned no matter how it is sampled. Models the "ambient
/// load conditions" that the NWS forecasters track.
#[derive(Clone, Debug)]
pub struct RandomWalkLoad {
    step: SimDuration,
    samples: Vec<f64>,
}

impl RandomWalkLoad {
    /// Precompute a walk of `horizon / step` samples.
    ///
    /// `mean` is the level the walk reverts to, `volatility` the per-step
    /// innovation scale, and `persistence` in `[0,1)` the AR(1) coefficient.
    pub fn new(
        rng: &mut Xoshiro256,
        horizon: SimDuration,
        step: SimDuration,
        mean: f64,
        volatility: f64,
        persistence: f64,
    ) -> Self {
        let n = (horizon.as_micros() / step.as_micros().max(1)) as usize + 2;
        let mut samples = Vec::with_capacity(n);
        let mut x = mean;
        for _ in 0..n {
            samples.push(x.clamp(0.0, 0.999));
            x = mean + persistence * (x - mean) + volatility * rng.normal();
        }
        RandomWalkLoad { step, samples }
    }
}

impl LoadTrace for RandomWalkLoad {
    fn load(&self, t: SimTime) -> f64 {
        let i = (t.as_micros() / self.step.as_micros().max(1)) as usize;
        self.samples[i.min(self.samples.len() - 1)]
    }
}

/// Sum of component traces, clamped to `[0, 0.999]`.
pub struct CompositeLoad(pub Vec<Box<dyn LoadTrace>>);

impl LoadTrace for CompositeLoad {
    fn load(&self, t: SimTime) -> f64 {
        self.0
            .iter()
            .map(|c| c.load(t))
            .sum::<f64>()
            .clamp(0.0, 0.999)
    }
}

/// Availability expressed as a sorted list of `(time, up)` transitions.
///
/// Transitions are generated ahead of the run (seeded), so the kernel simply
/// schedules `HostUp`/`HostDown` events at the recorded instants.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AvailabilitySchedule {
    /// Sorted `(instant, is_up)` transitions. The host is up from time zero
    /// unless the first transition is `(ZERO, false)`.
    pub transitions: Vec<(SimTime, bool)>,
}

impl AvailabilitySchedule {
    /// A host that stays up for the whole run.
    pub fn always_up() -> Self {
        AvailabilitySchedule {
            transitions: Vec::new(),
        }
    }

    /// Alternating up/down periods with exponentially distributed lengths —
    /// the Condor model: a workstation is idle (available to guests) for a
    /// mean `mean_up`, then reclaimed by its owner for a mean `mean_down`
    /// (§5.4: "guest jobs are terminated without warning").
    pub fn exponential_churn(
        rng: &mut Xoshiro256,
        horizon: SimDuration,
        mean_up: SimDuration,
        mean_down: SimDuration,
        starts_up: bool,
    ) -> Self {
        let mut transitions = Vec::new();
        let mut t = SimTime::ZERO;
        let mut up = starts_up;
        if !starts_up {
            transitions.push((SimTime::ZERO, false));
        }
        while t < SimTime::ZERO + horizon {
            let mean = if up { mean_up } else { mean_down };
            let dwell = SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()).max(1.0));
            t += dwell;
            up = !up;
            transitions.push((t, up));
        }
        AvailabilitySchedule { transitions }
    }

    /// Whether the host is up at `t`.
    pub fn is_up_at(&self, t: SimTime) -> bool {
        // Hosts default to up from time zero; replay transitions up to t.
        let mut up = true;
        for &(tt, u) in &self.transitions {
            if tt <= t {
                up = u;
            } else {
                break;
            }
        }
        up
    }

    /// Total up-time within `[0, horizon)`.
    pub fn uptime(&self, horizon: SimDuration) -> SimDuration {
        let end = SimTime::ZERO + horizon;
        let mut up = true;
        let mut last = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(t, u) in &self.transitions {
            let t = t.min(end);
            if up {
                total += t - last;
            }
            last = t;
            up = u;
            if t >= end {
                return total;
            }
        }
        if up {
            total += end - last;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_load_is_constant() {
        let l = ConstantLoad(0.3);
        assert_eq!(l.load(t(0)), 0.3);
        assert_eq!(l.load(t(99_999)), 0.3);
    }

    #[test]
    fn spike_only_inside_window() {
        let l = SpikeLoad {
            start: t(100),
            end: t(200),
            level: 0.8,
        };
        assert_eq!(l.load(t(99)), 0.0);
        assert_eq!(l.load(t(100)), 0.8);
        assert_eq!(l.load(t(199)), 0.8);
        assert_eq!(l.load(t(200)), 0.0);
    }

    #[test]
    fn random_walk_is_deterministic_and_bounded() {
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        let mk = |rng: &mut Xoshiro256| {
            RandomWalkLoad::new(
                rng,
                SimDuration::from_secs(3600),
                SimDuration::from_secs(10),
                0.3,
                0.05,
                0.9,
            )
        };
        let (w1, w2) = (mk(&mut r1), mk(&mut r2));
        for s in (0..3600).step_by(37) {
            let v = w1.load(t(s));
            assert_eq!(v, w2.load(t(s)));
            assert!((0.0..=0.999).contains(&v));
        }
        // Sampling past the horizon returns the final sample, not a panic.
        let _ = w1.load(t(1_000_000));
    }

    #[test]
    fn composite_sums_and_clamps() {
        let c = CompositeLoad(vec![
            Box::new(ConstantLoad(0.6)),
            Box::new(ConstantLoad(0.7)),
        ]);
        assert_eq!(c.load(t(0)), 0.999);
        let c2 = CompositeLoad(vec![
            Box::new(ConstantLoad(0.2)),
            Box::new(ConstantLoad(0.3)),
        ]);
        assert!((c2.load(t(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn availability_always_up() {
        let a = AvailabilitySchedule::always_up();
        assert!(a.is_up_at(t(0)));
        assert!(a.is_up_at(t(1_000_000)));
        assert_eq!(
            a.uptime(SimDuration::from_secs(100)),
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn availability_up_from_delays_start() {
        let a = AvailabilitySchedule {
            transitions: vec![(t(0), false), (t(50), true)],
        };
        assert!(!a.is_up_at(t(0)));
        assert!(!a.is_up_at(t(49)));
        assert!(a.is_up_at(t(50)));
        assert_eq!(
            a.uptime(SimDuration::from_secs(100)),
            SimDuration::from_secs(50)
        );
    }

    #[test]
    fn exponential_churn_alternates_and_is_deterministic() {
        let mut r = Xoshiro256::seed_from_u64(77);
        let a = AvailabilitySchedule::exponential_churn(
            &mut r,
            SimDuration::from_secs(10_000),
            SimDuration::from_secs(300),
            SimDuration::from_secs(100),
            true,
        );
        assert!(!a.transitions.is_empty());
        let mut expect = false; // first transition after an up period is down
        for &(_, u) in &a.transitions {
            assert_eq!(u, expect);
            expect = !expect;
        }
        let up = a.uptime(SimDuration::from_secs(10_000)).as_secs_f64();
        let frac = up / 10_000.0;
        assert!(
            (0.5..0.95).contains(&frac),
            "mean-300/100 churn should be up most of the time, got {frac}"
        );
    }

    #[test]
    fn uptime_partial_window() {
        let a = AvailabilitySchedule {
            transitions: vec![(t(10), false), (t(20), true)],
        };
        assert_eq!(
            a.uptime(SimDuration::from_secs(15)),
            SimDuration::from_secs(10)
        );
        assert_eq!(
            a.uptime(SimDuration::from_secs(30)),
            SimDuration::from_secs(20)
        );
    }
}
