//! The fault-plan DSL.
//!
//! A [`FaultPlan`] is a declarative list of fault operations phrased in
//! *role* space — "crash the primary scheduler at t=350 s", "isolate the
//! pool site for 200 s" — rather than in terms of concrete host or site
//! ids. [`FaultPlan::compile`] lowers the plan, for a given campaign seed,
//! onto the kernel's existing failure primitives:
//!
//! * host crash / restart / reclamation / churn →
//!   [`AvailabilitySchedule`] transitions,
//! * site partition / heal → [`Partition`](ew_sim::Partition) windows,
//! * message drop / duplication → [`Impairment`](ew_sim::Impairment)
//!   windows,
//! * delay spikes → a [`SpikeLoad`](ew_sim::SpikeLoad) composed into the
//!   site's background network load.
//!
//! Compilation is pure and seed-deterministic: the same `(plan, seed,
//! horizon, n_compute)` always produces an identical [`CompiledFaults`]
//! (they derive `PartialEq` so tests assert this directly). All randomness
//! — which hosts a mass reclamation evicts, the dwell times of churn —
//! comes from one `Xoshiro256` stream derived from the seed and the plan
//! name, so distinct plans never share draws.

use ew_sim::{AvailabilitySchedule, SimDuration, SimTime, Xoshiro256};

/// A service-stack role a fault can target, resolved to a concrete host by
/// the campaign world builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostRole {
    /// The first scheduler in every client's failover list.
    PrimaryScheduler,
    /// The scheduler clients fail over to.
    BackupScheduler,
    /// The persistent-state manager (checkpoints, counter-examples).
    StateServer,
    /// The `i`-th compute host in the pool.
    Compute(usize),
}

/// A site a network fault can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteRole {
    /// Primary service site (scheduler 0, state manager, gossip pool).
    Service,
    /// Backup service site (scheduler 1).
    Backup,
    /// The compute pool.
    Pool,
}

/// One declarative fault operation.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultOp {
    /// Kill the host at `at`; if `restart_after` is set the host (not the
    /// processes — supervision is the application's job) comes back.
    Crash {
        /// Which host dies.
        host: HostRole,
        /// Instant of the crash.
        at: SimTime,
        /// Downtime before the host returns, if it does.
        restart_after: Option<SimDuration>,
    },
    /// Mass reclamation à la Condor (§5.4): a random `fraction` of the
    /// compute pool is evicted at `at` and returned after `down_for`.
    Reclaim {
        /// Fraction of compute hosts evicted (`ceil(fraction * n)`).
        fraction: f64,
        /// Eviction instant.
        at: SimTime,
        /// How long the owners keep their workstations.
        down_for: SimDuration,
    },
    /// Continuous exponential up/down churn across the whole compute pool
    /// for the run's full horizon.
    ChurnCompute {
        /// Mean idle (guest-available) period.
        mean_up: SimDuration,
        /// Mean reclaimed period.
        mean_down: SimDuration,
    },
    /// Cut `site` off from `peer` — or from every other site when `peer`
    /// is `None` — during `[from, until)`; the cut heals itself.
    PartitionSite {
        /// Isolated side.
        site: SiteRole,
        /// The other side, or `None` for total isolation.
        peer: Option<SiteRole>,
        /// Outage start (inclusive).
        from: SimTime,
        /// Outage end (exclusive).
        until: SimTime,
    },
    /// Network-load spike at a site: latency is inflated and bandwidth
    /// deflated by `1/(1-level)` — the SC98 show-floor contention model.
    DelaySpike {
        /// Affected site.
        site: SiteRole,
        /// Spike onset.
        from: SimTime,
        /// Spike end.
        until: SimTime,
        /// Load level inside the window (`0.99` ≈ 100× latency).
        level: f64,
    },
    /// Probabilistic message loss/duplication for traffic touching `site`.
    Impair {
        /// Affected site.
        site: SiteRole,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// Per-message drop probability.
        drop: f64,
        /// Per-surviving-message duplication probability.
        duplicate: f64,
    },
}

/// A named, declarative fault-injection plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Plan name — also the `results/chaos_<name>.json` artifact stem.
    pub name: String,
    /// Operations, applied independently.
    pub ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new(name: &str) -> Self {
        FaultPlan {
            name: name.to_string(),
            ops: Vec::new(),
        }
    }

    /// Add a host crash (with optional restart).
    pub fn crash(
        mut self,
        host: HostRole,
        at: SimTime,
        restart_after: Option<SimDuration>,
    ) -> Self {
        self.ops.push(FaultOp::Crash {
            host,
            at,
            restart_after,
        });
        self
    }

    /// Add a mass reclamation of the compute pool.
    pub fn reclaim(mut self, fraction: f64, at: SimTime, down_for: SimDuration) -> Self {
        self.ops.push(FaultOp::Reclaim {
            fraction,
            at,
            down_for,
        });
        self
    }

    /// Add whole-run exponential churn over the compute pool.
    pub fn churn_compute(mut self, mean_up: SimDuration, mean_down: SimDuration) -> Self {
        self.ops.push(FaultOp::ChurnCompute { mean_up, mean_down });
        self
    }

    /// Add a self-healing site partition.
    pub fn partition(
        mut self,
        site: SiteRole,
        peer: Option<SiteRole>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.ops.push(FaultOp::PartitionSite {
            site,
            peer,
            from,
            until,
        });
        self
    }

    /// Add a network-load spike.
    pub fn delay_spike(
        mut self,
        site: SiteRole,
        from: SimTime,
        until: SimTime,
        level: f64,
    ) -> Self {
        self.ops.push(FaultOp::DelaySpike {
            site,
            from,
            until,
            level,
        });
        self
    }

    /// Add a message drop/duplication window.
    pub fn impair(
        mut self,
        site: SiteRole,
        from: SimTime,
        until: SimTime,
        drop: f64,
        duplicate: f64,
    ) -> Self {
        self.ops.push(FaultOp::Impair {
            site,
            from,
            until,
            drop,
            duplicate,
        });
        self
    }

    /// Lower the plan onto kernel primitives for one `(seed, horizon)`.
    ///
    /// `n_compute` is the pool size `Compute(i)` and `Reclaim` resolve
    /// against. Later availability ops targeting the same role replace
    /// earlier ones (plans are expected to give each host at most one
    /// availability-shaping op).
    pub fn compile(&self, seed: u64, horizon: SimDuration, n_compute: usize) -> CompiledFaults {
        // One private stream per (seed, plan): distinct plans swept under
        // the same campaign seed must not share draws.
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(self.name.as_bytes()));
        let mut out = CompiledFaults {
            host_faults: Vec::new(),
            network: Vec::new(),
            faults_injected: 0,
            last_fault_end: SimTime::ZERO,
        };
        let horizon_end = SimTime::ZERO + horizon;
        for op in &self.ops {
            match op {
                FaultOp::Crash {
                    host,
                    at,
                    restart_after,
                } => {
                    let mut transitions = vec![(*at, false)];
                    // A permanent crash "ends" at the crash instant: the
                    // loss is a new steady state, not a window the
                    // application is waiting out, so recovery time is
                    // measured from the moment of death.
                    let end = match restart_after {
                        Some(d) => {
                            transitions.push((*at + *d, true));
                            *at + *d
                        }
                        None => *at,
                    };
                    out.set_host_fault(*host, AvailabilitySchedule { transitions });
                    out.faults_injected += 1;
                    out.last_fault_end = out.last_fault_end.max(end);
                }
                FaultOp::Reclaim {
                    fraction,
                    at,
                    down_for,
                } => {
                    let n = ((fraction * n_compute as f64).ceil() as usize).min(n_compute);
                    let mut idx: Vec<usize> = (0..n_compute).collect();
                    rng.shuffle(&mut idx);
                    for &i in idx.iter().take(n) {
                        out.set_host_fault(
                            HostRole::Compute(i),
                            AvailabilitySchedule {
                                transitions: vec![(*at, false), (*at + *down_for, true)],
                            },
                        );
                        out.faults_injected += 1;
                    }
                    out.last_fault_end = out.last_fault_end.max(*at + *down_for);
                }
                FaultOp::ChurnCompute { mean_up, mean_down } => {
                    for i in 0..n_compute {
                        let sched = AvailabilitySchedule::exponential_churn(
                            &mut rng, horizon, *mean_up, *mean_down, true,
                        );
                        out.faults_injected +=
                            sched.transitions.iter().filter(|&&(_, up)| !up).count() as u64;
                        out.set_host_fault(HostRole::Compute(i), sched);
                    }
                    out.last_fault_end = horizon_end;
                }
                FaultOp::PartitionSite { until, .. }
                | FaultOp::DelaySpike { until, .. }
                | FaultOp::Impair { until, .. } => {
                    out.network.push(op.clone());
                    out.faults_injected += 1;
                    out.last_fault_end = out.last_fault_end.max(*until);
                }
            }
        }
        out.last_fault_end = out.last_fault_end.min(horizon_end);
        out
    }
}

/// A fault plan lowered onto kernel primitives for one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledFaults {
    /// Availability overrides, one per targeted host role.
    pub host_faults: Vec<(HostRole, AvailabilitySchedule)>,
    /// The plan's window ops — partitions, load spikes, drop/duplication
    /// windows — in plan order, in role space (the world builder maps
    /// roles to site ids).
    pub network: Vec<FaultOp>,
    /// Individual faults this plan injects (the `chaos.faults_injected`
    /// counter value): evicted hosts, down-transitions, windows.
    pub faults_injected: u64,
    /// When the last scheduled fault clears (clamped to the horizon) —
    /// recovery time is measured from here.
    pub last_fault_end: SimTime,
}

impl CompiledFaults {
    fn set_host_fault(&mut self, role: HostRole, sched: AvailabilitySchedule) {
        if let Some(slot) = self.host_faults.iter_mut().find(|(r, _)| *r == role) {
            slot.1 = sched;
        } else {
            self.host_faults.push((role, sched));
        }
    }

    /// The availability override for `role`, if any.
    pub fn host_fault(&self, role: HostRole) -> Option<&AvailabilitySchedule> {
        self.host_faults
            .iter()
            .find(|(r, _)| *r == role)
            .map(|(_, s)| s)
    }
}

/// FNV-1a over the plan name: a stable, dependency-free way to salt the
/// campaign seed per plan.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// The named plans the `figures -- chaos` campaign sweeps.
///
/// * `mass-reclamation` — Condor evicts half the pool for 60 s while the
///   show floor saturates the pool's network (§4.1 judging window at
///   level 0.99): the A/B plan behind the <5 % work-loss acceptance bound.
/// * `site-partition` — the pool is cut off from every service site for
///   200 s, then the backup scheduler dies for good after the heal.
/// * `host-churn` — whole-run exponential reclamation churn (mean 400 s
///   up / 60 s down) over every compute host.
/// * `flaky-network` — sustained 15 % message loss, 10 % duplication, and
///   a moderate (0.5) load spike on the pool site.
pub fn standard_plans() -> Vec<FaultPlan> {
    vec![
        // The spike composes with the 0.05 ambient site load to an
        // effective 0.99 — 100× latency inflation, pushing pool RTTs past
        // the 2 s static time-out but comfortably under the adaptive
        // stack's forecast-driven deadlines.
        FaultPlan::new("mass-reclamation")
            .reclaim(0.5, secs(350), dur(60))
            .delay_spike(SiteRole::Pool, secs(300), secs(650), 0.94),
        FaultPlan::new("site-partition")
            .partition(SiteRole::Pool, None, secs(350), secs(550))
            .crash(HostRole::BackupScheduler, secs(600), None),
        FaultPlan::new("host-churn").churn_compute(dur(400), dur(60)),
        FaultPlan::new("flaky-network")
            .impair(SiteRole::Pool, secs(200), secs(700), 0.15, 0.10)
            .delay_spike(SiteRole::Pool, secs(200), secs(700), 0.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_op_plan() -> FaultPlan {
        FaultPlan::new("everything")
            .crash(HostRole::PrimaryScheduler, secs(100), Some(dur(50)))
            .reclaim(0.5, secs(200), dur(30))
            .churn_compute(dur(300), dur(60))
            .partition(
                SiteRole::Service,
                Some(SiteRole::Pool),
                secs(400),
                secs(500),
            )
            .delay_spike(SiteRole::Pool, secs(450), secs(550), 0.9)
            .impair(SiteRole::Backup, secs(100), secs(700), 0.1, 0.05)
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        let plan = every_op_plan();
        let a = plan.compile(7, dur(900), 8);
        let b = plan.compile(7, dur(900), 8);
        assert_eq!(a, b);
        let c = plan.compile(8, dur(900), 8);
        assert_ne!(a, c, "reclaim victim choice / churn dwells must reseed");
    }

    #[test]
    fn plans_do_not_share_rng_draws() {
        let a = FaultPlan::new("a").reclaim(0.5, secs(10), dur(5));
        let b = FaultPlan::new("b").reclaim(0.5, secs(10), dur(5));
        let ca = a.compile(1, dur(100), 16);
        let cb = b.compile(1, dur(100), 16);
        let victims = |c: &CompiledFaults| {
            c.host_faults
                .iter()
                .map(|(r, _)| *r)
                .collect::<Vec<HostRole>>()
        };
        assert_ne!(
            victims(&ca),
            victims(&cb),
            "same seed, different plan name should pick different victims"
        );
    }

    #[test]
    fn crash_with_restart_produces_down_then_up() {
        let plan = FaultPlan::new("c").crash(HostRole::StateServer, secs(100), Some(dur(40)));
        let c = plan.compile(0, dur(900), 4);
        let sched = c.host_fault(HostRole::StateServer).unwrap();
        assert!(sched.is_up_at(secs(99)));
        assert!(!sched.is_up_at(secs(100)));
        assert!(!sched.is_up_at(secs(139)));
        assert!(sched.is_up_at(secs(140)));
        assert_eq!(c.faults_injected, 1);
        assert_eq!(c.last_fault_end, secs(140));
    }

    #[test]
    fn reclaim_evicts_the_requested_fraction() {
        let plan = FaultPlan::new("r").reclaim(0.5, secs(350), dur(60));
        let c = plan.compile(42, dur(900), 8);
        assert_eq!(c.host_faults.len(), 4);
        assert_eq!(c.faults_injected, 4);
        for (role, sched) in &c.host_faults {
            assert!(matches!(role, HostRole::Compute(_)));
            assert!(!sched.is_up_at(secs(350)));
            assert!(sched.is_up_at(secs(410)));
        }
    }

    #[test]
    fn faults_injected_counts_churn_reclamations() {
        let plan = FaultPlan::new("ch").churn_compute(dur(200), dur(50));
        let c = plan.compile(5, dur(3600), 4);
        assert_eq!(c.host_faults.len(), 4);
        assert!(
            c.faults_injected >= 4,
            "an hour at mean-up 200s should reclaim each host at least once: {}",
            c.faults_injected
        );
    }

    #[test]
    fn last_fault_end_clamps_to_horizon() {
        let plan = FaultPlan::new("x").impair(SiteRole::Pool, secs(100), secs(5000), 0.1, 0.0);
        let c = plan.compile(0, dur(900), 2);
        assert_eq!(c.last_fault_end, secs(900));
    }

    #[test]
    fn standard_plans_are_named_and_nonempty() {
        let plans = standard_plans();
        assert!(plans.len() >= 3, "the campaign promises ≥3 named plans");
        let names: Vec<&str> = plans.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"mass-reclamation"));
        for p in &plans {
            assert!(!p.ops.is_empty());
        }
    }
}
