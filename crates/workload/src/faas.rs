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
//! after more than `IDLE_TIMEOUT` (120 s) of that client not being granted
//! work, pays `COLD_START_STEPS` (2 000) on top of `EXEC_STEPS` (3 000)
//! (the platform reclaimed the idle container). The unit's `arg1` records
//! whether it was cold, so results can be attributed in figures.

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime, Xoshiro256};

use crate::unit::{WorkResult, WorkUnit};
use crate::Workload;

/// Mean seconds between bursts (exponential).
const MEAN_INTERARRIVAL_SECS: f64 = 30.0;
/// Mean invocations per burst (Poisson, at least one).
const BURST_MEAN: f64 = 6.0;
/// Arrivals are generated up to this horizon (seconds).
const HORIZON_SECS: f64 = 1_800.0;
/// Steps a warm invocation costs.
const EXEC_STEPS: u64 = 3_000;
/// Extra steps a cold start costs.
const COLD_START_STEPS: u64 = 2_000;
/// A client idle longer than this is reclaimed and restarts cold.
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(120);
/// Seed for the arrival schedule.
const SEED: u64 = 1998;

/// A deterministic serverless invocation stream; see the module docs.
pub struct FaasWorkload {
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
    /// Precompute the arrival schedule from `(SEED, salt)`.
    pub fn new(salt: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut arrivals = Vec::new();
        let mut t = 0.0_f64;
        loop {
            t += rng.exponential(MEAN_INTERARRIVAL_SECS);
            if t >= HORIZON_SECS {
                break;
            }
            // Poisson burst size by Knuth's product-of-uniforms, min 1.
            let l = (-BURST_MEAN).exp();
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
            Some(&last) => now.since(last) > IDLE_TIMEOUT,
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
            seed: (SEED ^ self.salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id),
            step_budget: EXEC_STEPS + if cold { COLD_START_STEPS } else { 0 },
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

    /// The end of the arrival horizon: every invocation has arrived.
    const END: SimTime = SimTime::from_secs(1_800);

    #[test]
    fn schedule_is_deterministic_and_bursty() {
        let a = FaasWorkload::new(0);
        let b = FaasWorkload::new(0);
        assert_eq!(a.arrivals, b.arrivals);
        assert!(a.total() > 10, "1 800 s at ~30 s mean gaps: {}", a.total());
        // Bursts: at least one arrival instant repeats.
        assert!(
            a.arrivals.windows(2).any(|w| w[0] == w[1]),
            "no burst of size > 1 in the whole schedule"
        );
        // Arrivals are ordered and inside the horizon.
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.arrivals.iter().all(|&t| t < END));
        // A different salt shifts the schedule.
        let c = FaasWorkload::new(9);
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn invocations_release_only_after_arrival() {
        let mut w = FaasWorkload::new(0);
        assert!(
            w.generate(0, SimTime::ZERO, 1, 0).is_none(),
            "nothing has arrived at t=0"
        );
        let first = w.arrivals[0];
        let u = w.generate(0, first, 1, 0).expect("first arrival released");
        assert_eq!(u.arg0, 0);
        assert_eq!(u.arg1, 1, "first grant to a client is cold");
        assert_eq!(u.step_budget, EXEC_STEPS + COLD_START_STEPS);
    }

    #[test]
    fn cold_starts_follow_warmth_and_idle_reclamation() {
        let mut w = FaasWorkload::new(0);
        let a = w.generate(0, END, 7, 0).unwrap();
        assert_eq!(a.arg1, 1, "first unit on a host is cold");
        let b = w.generate(1, END, 7, 0).unwrap();
        assert_eq!(b.arg1, 0, "immediately warm");
        assert_eq!(b.step_budget, EXEC_STEPS);
        let c = w.generate(2, END, 8, 0).unwrap();
        assert_eq!(c.arg1, 1, "a different host starts cold");
        // Exactly at the idle timeout the container is still warm…
        let e = w.generate(3, END + IDLE_TIMEOUT, 8, 0).unwrap();
        assert_eq!(e.arg1, 0, "not yet reclaimed");
        // …and beyond it the container was reclaimed.
        let later = END + IDLE_TIMEOUT + SimDuration::from_secs(1);
        let d = w.generate(4, later, 7, 0).unwrap();
        assert_eq!(d.arg1, 1, "idle container reclaimed");
        assert_eq!(w.cold_grants(), 3);
    }

    #[test]
    fn stream_drains_exactly_once() {
        let mut w = FaasWorkload::new(0);
        let total = w.total();
        let mut granted = 0u64;
        while let Some(u) = w.generate(granted, END, 1, 0) {
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
