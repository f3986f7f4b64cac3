//! A bursty serverless-style workload: Poisson-burst invocation arrival,
//! cold-start cost on a host's first (or long-idle) unit, idle
//! reclamation of warm containers.
//!
//! The arrival schedule is precomputed at construction: exponential
//! inter-arrival gaps, each arrival carrying a Poisson-sized burst of
//! invocations (see dslab-faas for the modelling idiom). `generate` then
//! releases invocations as simulated time reaches them — a unit is
//! available only once its arrival instant has passed, so a scheduler
//! polled early answers "no work" exactly like a serverless front end
//! with an empty queue.
//!
//! Cold starts: the first invocation granted to a client, or the first
//! after more than `idle_timeout` of that client not being granted work,
//! pays `cold_start_steps` on top of `exec_steps` (the platform reclaimed
//! the idle container). The unit's `arg1` records whether it was cold, so
//! results can be attributed in figures.

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime, Xoshiro256};

use crate::unit::{WorkResult, WorkUnit};
use crate::Workload;

/// Configuration for the bursty serverless workload.
#[derive(Clone, Debug, PartialEq)]
pub struct FaasConfig {
    /// Mean seconds between bursts (exponential).
    pub mean_interarrival_secs: f64,
    /// Mean invocations per burst (Poisson, at least one).
    pub burst_mean: f64,
    /// Arrivals are generated up to this horizon (seconds).
    pub horizon_secs: u64,
    /// Steps a warm invocation costs.
    pub exec_steps: u64,
    /// Extra steps a cold start costs.
    pub cold_start_steps: u64,
    /// A client idle longer than this is reclaimed and restarts cold.
    pub idle_timeout: SimDuration,
    /// Seed for the arrival schedule.
    pub seed: u64,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            mean_interarrival_secs: 30.0,
            burst_mean: 6.0,
            horizon_secs: 1_800,
            exec_steps: 3_000,
            cold_start_steps: 2_000,
            idle_timeout: SimDuration::from_secs(120),
            seed: 1998,
        }
    }
}

/// A deterministic serverless invocation stream; see the module docs.
pub struct FaasWorkload {
    cfg: FaasConfig,
    salt: u64,
    /// Precomputed invocation arrival instants, non-decreasing.
    arrivals: Vec<SimTime>,
    /// Next arrival index to release.
    next: usize,
    /// Per-client last grant time — the warm-container table. Lookups
    /// only; never iterated, so determinism is safe.
    warm: FxHashMap<u64, SimTime>,
    cold_grants: u64,
    completed: u64,
}

impl FaasWorkload {
    /// Precompute the arrival schedule from `(cfg.seed, salt)`.
    pub fn new(cfg: FaasConfig, salt: u64) -> Self {
        let mut rng =
            Xoshiro256::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut arrivals = Vec::new();
        let mut t = 0.0_f64;
        let horizon = cfg.horizon_secs as f64;
        loop {
            t += rng.exponential(cfg.mean_interarrival_secs.max(1e-6));
            if t >= horizon {
                break;
            }
            // Poisson burst size by Knuth's product-of-uniforms, min 1.
            let l = (-cfg.burst_mean.max(0.0)).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    break;
                }
                k += 1;
            }
            for _ in 0..k.max(1) {
                arrivals.push(SimTime::ZERO + SimDuration::from_secs_f64(t));
            }
        }
        FaasWorkload {
            cfg,
            salt,
            arrivals,
            next: 0,
            warm: FxHashMap::default(),
            cold_grants: 0,
            completed: 0,
        }
    }

    /// Total invocations in the schedule.
    pub fn total(&self) -> usize {
        self.arrivals.len()
    }

    /// Invocations granted cold so far.
    pub fn cold_grants(&self) -> u64 {
        self.cold_grants
    }
}

impl Workload for FaasWorkload {
    fn name(&self) -> &'static str {
        "faas"
    }

    fn generate(
        &mut self,
        id: u64,
        now: SimTime,
        client: u64,
        _step_budget: u64,
    ) -> Option<WorkUnit> {
        if self.next >= self.arrivals.len() || self.arrivals[self.next] > now {
            return None;
        }
        let cold = match self.warm.get(&client) {
            None => true,
            Some(&last) => now.since(last) > self.cfg.idle_timeout,
        };
        self.warm.insert(client, now);
        let invocation = self.next;
        self.next += 1;
        if cold {
            self.cold_grants += 1;
        }
        Some(WorkUnit {
            id,
            arg0: invocation as u32,
            arg1: cold as u32,
            variant: 0,
            seed: (self.cfg.seed ^ self.salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id),
            step_budget: self.cfg.exec_steps + if cold { self.cfg.cold_start_steps } else { 0 },
            payload: Vec::new(),
        })
    }

    fn on_result(&mut self, _result: &WorkResult) {
        self.completed += 1;
    }

    fn progress(&self) -> Option<f64> {
        Some(self.completed as f64 / self.arrivals.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaasConfig {
        FaasConfig {
            mean_interarrival_secs: 20.0,
            burst_mean: 4.0,
            horizon_secs: 600,
            exec_steps: 1_000,
            cold_start_steps: 500,
            idle_timeout: SimDuration::from_secs(60),
            seed: 3,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_bursty() {
        let a = FaasWorkload::new(cfg(), 0);
        let b = FaasWorkload::new(cfg(), 0);
        assert_eq!(a.arrivals, b.arrivals);
        assert!(a.total() > 10, "600 s at ~20 s mean gaps: {}", a.total());
        // Bursts: at least one arrival instant repeats.
        assert!(
            a.arrivals.windows(2).any(|w| w[0] == w[1]),
            "no burst of size > 1 in the whole schedule"
        );
        // Arrivals are ordered.
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
        // A different salt shifts the schedule.
        let c = FaasWorkload::new(cfg(), 9);
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn invocations_release_only_after_arrival() {
        let mut w = FaasWorkload::new(cfg(), 0);
        assert!(
            w.generate(0, SimTime::ZERO, 1, 0).is_none(),
            "nothing has arrived at t=0"
        );
        let first = w.arrivals[0];
        let u = w.generate(0, first, 1, 0).expect("first arrival released");
        assert_eq!(u.arg0, 0);
        assert_eq!(u.arg1, 1, "first grant to a client is cold");
        assert_eq!(u.step_budget, 1_000 + 500);
    }

    #[test]
    fn cold_starts_follow_warmth_and_idle_reclamation() {
        let mut w = FaasWorkload::new(cfg(), 0);
        let end = SimTime::from_secs(600);
        let a = w.generate(0, end, 7, 0).unwrap();
        assert_eq!(a.arg1, 1, "first unit on a host is cold");
        let b = w.generate(1, end, 7, 0).unwrap();
        assert_eq!(b.arg1, 0, "immediately warm");
        assert_eq!(b.step_budget, 1_000);
        let c = w.generate(2, end, 8, 0).unwrap();
        assert_eq!(c.arg1, 1, "a different host starts cold");
        // Beyond the idle timeout the container was reclaimed.
        let later = end + SimDuration::from_secs(61);
        let d = w.generate(3, later, 7, 0).unwrap();
        assert_eq!(d.arg1, 1, "idle container reclaimed");
        assert_eq!(w.cold_grants(), 3);
    }

    #[test]
    fn stream_drains_exactly_once() {
        let mut w = FaasWorkload::new(cfg(), 0);
        let total = w.total();
        let end = SimTime::from_secs(600);
        let mut granted = 0u64;
        while let Some(u) = w.generate(granted, end, 1, 0) {
            w.on_result(&WorkResult {
                unit_id: u.id,
                ..WorkResult::default()
            });
            granted += 1;
        }
        assert_eq!(granted as usize, total);
        assert_eq!(w.progress(), Some(1.0));
    }
}
