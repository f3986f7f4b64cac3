//! Infrastructure supervisors.
//!
//! Each Grid infrastructure of §5 delivered hosts to the application
//! through its own invocation semantics: GRAM gatekeepers authenticated and
//! fetched binaries through GASS (§5.2), Condor's manager matched idle
//! workstations and killed guests on reclamation (§5.4), LSF drained a
//! batch queue onto the NT Superclusters (§5.5), browsers started and
//! abandoned Java applets (§5.6). [`InfraSupervisor`] is the common shape:
//! it owns a set of hosts, (re)spawns a computational client on each with
//! the infrastructure's characteristic start-up delay, and samples the
//! live-host count — the series behind Figure 3(b).

use ew_sched::{ClientConfig, ComputeClient};
use ew_sim::hashers::FxHashMap;
use ew_sim::{CounterId, Ctx, Event, HostId, Process, ProcessId, SeriesId, SimDuration};

/// Description of one infrastructure's client-delivery behaviour.
#[derive(Clone)]
pub struct InfraSpec {
    /// Infrastructure label ("unix", "globus", "legion", "condor", "nt",
    /// "java", "netsolve").
    pub name: String,
    /// Hosts this infrastructure contributes.
    pub hosts: Vec<HostId>,
    /// Delay between a host becoming available and the client actually
    /// running (GRAM authentication + GASS binary fetch, LSF dispatch,
    /// applet download, …).
    pub invocation_delay: SimDuration,
    /// Spacing between initial launches (batch queues drain serially; the
    /// paper also deliberately staggered start-ups to protect schedulers,
    /// §5.5).
    pub stagger: SimDuration,
    /// Template for the clients (scheduler list, chunk size, label —
    /// `infra` is overwritten with `name`).
    pub client_template: ClientConfig,
    /// Interval for sampling the live-host count (the Figure 3b series).
    pub sample_interval: SimDuration,
}

const TIMER_SAMPLE: u64 = 1;
/// Spawn timers encode the host index above this base.
const TIMER_SPAWN_BASE: u64 = 1000;

/// Interned metric handles, resolved once at `Started`.
#[derive(Clone, Copy)]
struct InfraTele {
    spawns: CounterId,
    reclaims: CounterId,
    hosts_series: SeriesId,
}

/// The supervisor process for one infrastructure.
pub struct InfraSupervisor {
    spec: InfraSpec,
    clients: FxHashMap<HostId, ProcessId>,
    tele: Option<InfraTele>,
    /// Total clients ever spawned (restarts included).
    pub spawned: u64,
}

impl InfraSupervisor {
    /// A supervisor for the given spec.
    pub fn new(spec: InfraSpec) -> Self {
        InfraSupervisor {
            spec,
            clients: FxHashMap::default(),
            tele: None,
            spawned: 0,
        }
    }

    fn schedule_spawn(&self, ctx: &mut Ctx<'_>, host_idx: usize, extra: SimDuration) {
        ctx.set_timer(
            self.spec.invocation_delay + extra,
            TIMER_SPAWN_BASE + host_idx as u64,
        );
    }

    fn spawn_client(&mut self, ctx: &mut Ctx<'_>, host_idx: usize) {
        let host = self.spec.hosts[host_idx];
        if !ctx.host_up(host) {
            return; // reclaimed again before the invocation completed
        }
        if let Some(&existing) = self.clients.get(&host) {
            if ctx.is_alive(existing) {
                return;
            }
        }
        let mut cfg = self.spec.client_template.clone();
        cfg.infra = self.spec.name.clone();
        let pid = ctx.spawn(
            &format!("{}-client-{host_idx}", self.spec.name),
            host,
            Box::new(ComputeClient::new(cfg)),
        );
        self.clients.insert(host, pid);
        self.spawned += 1;
        ctx.inc(self.tele.expect("started").spawns);
    }

    fn sample(&mut self, ctx: &mut Ctx<'_>) {
        let live = self.clients.values().filter(|&&p| ctx.is_alive(p)).count();
        ctx.record(self.tele.expect("started").hosts_series, live as f64);
        ctx.set_timer(self.spec.sample_interval, TIMER_SAMPLE);
    }
}

impl Process for InfraSupervisor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                let name = &self.spec.name;
                self.tele = Some(InfraTele {
                    spawns: ctx.counter(&format!("infra.{name}.spawns")),
                    reclaims: ctx.counter(&format!("infra.{name}.reclaims")),
                    hosts_series: ctx.series(&format!("hosts.{name}")),
                });
                for (i, &host) in self.spec.hosts.clone().iter().enumerate() {
                    ctx.watch_host(host);
                    if ctx.host_up(host) {
                        self.schedule_spawn(ctx, i, self.spec.stagger * i as u64);
                    }
                }
                ctx.set_timer(self.spec.sample_interval, TIMER_SAMPLE);
            }
            Event::Timer { tag } => {
                if tag == TIMER_SAMPLE {
                    self.sample(ctx);
                } else if tag >= TIMER_SPAWN_BASE {
                    let idx = (tag - TIMER_SPAWN_BASE) as usize;
                    if idx < self.spec.hosts.len() {
                        self.spawn_client(ctx, idx);
                    }
                }
            }
            Event::HostStateChanged { host, up } => {
                if up {
                    if let Some(idx) = self.spec.hosts.iter().position(|&h| h == host) {
                        // The infrastructure re-delivers the resource after
                        // its own invocation latency.
                        self.schedule_spawn(ctx, idx, SimDuration::ZERO);
                    }
                } else {
                    // Guest killed without warning; forget the client.
                    self.clients.remove(&host);
                    ctx.inc(self.tele.expect("started").reclaims);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_ramsey::RamseyProblem;
    use ew_sched::{SchedulerConfig, SchedulerServer};
    use ew_sim::{
        AvailabilitySchedule, HostSpec, HostTable, NetModel, Sim, SimTime, SiteSpec, Xoshiro256,
    };
    use ew_workload::WorkloadSpec;

    fn base_world() -> (NetModel, HostTable, ew_sim::SiteId) {
        let mut net = NetModel::new(0.05);
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        (net, HostTable::new(), site)
    }

    fn sched_cfg() -> SchedulerConfig {
        SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            step_budget: 1_000,
            ..SchedulerConfig::default()
        }
    }

    fn client_template(sched: u64) -> ClientConfig {
        ClientConfig {
            schedulers: vec![sched],
            chunk_ops: 10_000_000,
            ops_per_step: 100_000,
            ..ClientConfig::default()
        }
    }

    #[test]
    fn supervisor_spawns_one_client_per_host() {
        let (net, mut hosts, site) = base_world();
        let h_sched = hosts.add(HostSpec::dedicated("sched", site, 1e8));
        let pool: Vec<HostId> = (0..5)
            .map(|i| hosts.add(HostSpec::dedicated(&format!("w{i}"), site, 1e8)))
            .collect();
        let mut sim = Sim::new(net, hosts, 1);
        sim.declare_series("hosts.unix", SimDuration::from_secs(60));
        let s = sim.spawn(
            "sched",
            h_sched,
            Box::new(SchedulerServer::new(sched_cfg())),
        );
        let sup = sim.spawn(
            "sup",
            h_sched,
            Box::new(InfraSupervisor::new(InfraSpec {
                name: "unix".into(),
                hosts: pool,
                invocation_delay: SimDuration::from_secs(1),
                stagger: SimDuration::from_secs(2),
                client_template: client_template(s.0 as u64),
                sample_interval: SimDuration::from_secs(60),
            })),
        );
        sim.run_until(SimTime::from_secs(300));
        let spawned = sim
            .with_process::<InfraSupervisor, _>(sup, |s| s.spawned)
            .unwrap();
        assert_eq!(spawned, 5);
        assert!(sim.metrics().counter("ops.unix") > 0.0);
        // Host-count series sampled at 60s intervals, one sample per bin,
        // eventually 5.
        let series = sim.metrics().series("hosts.unix").expect("declared");
        let last = series.bins().last().expect("sampled");
        assert_eq!((last.sum, last.count), (5.0, 1));
    }

    #[test]
    fn churned_hosts_get_clients_respawned() {
        let (net, mut hosts, site) = base_world();
        let h_sched = hosts.add(HostSpec::dedicated("sched", site, 1e8));
        let mut rng = Xoshiro256::seed_from_u64(3);
        let pool: Vec<HostId> = (0..10)
            .map(|i| {
                let mut h = HostSpec::dedicated(&format!("c{i}"), site, 1e7);
                h.availability = AvailabilitySchedule::exponential_churn(
                    &mut rng,
                    SimDuration::from_secs(3600),
                    SimDuration::from_secs(300),
                    SimDuration::from_secs(120),
                    true,
                );
                hosts.add(h)
            })
            .collect();
        let mut sim = Sim::new(net, hosts, 5);
        sim.declare_series("hosts.condor", SimDuration::from_secs(300));
        let s = sim.spawn(
            "sched",
            h_sched,
            Box::new(SchedulerServer::new(sched_cfg())),
        );
        let sup = sim.spawn(
            "sup",
            h_sched,
            Box::new(InfraSupervisor::new(InfraSpec {
                name: "condor".into(),
                hosts: pool,
                invocation_delay: SimDuration::from_secs(5),
                stagger: SimDuration::from_secs(1),
                client_template: client_template(s.0 as u64),
                sample_interval: SimDuration::from_secs(300),
            })),
        );
        sim.run_until(SimTime::from_secs(3600));
        let spawned = sim
            .with_process::<InfraSupervisor, _>(sup, |s| s.spawned)
            .unwrap();
        assert!(
            spawned > 10,
            "churn must force respawns beyond the initial 10, got {spawned}"
        );
        assert!(sim.metrics().counter("infra.condor.reclaims") > 0.0);
        assert!(sim.metrics().counter("procs.killed_by_host_down") > 0.0);
        assert!(sim.metrics().counter("ops.condor") > 0.0);
        // Host-count series fluctuates: not all bin means equal.
        let series: Vec<f64> = sim
            .metrics()
            .series("hosts.condor")
            .expect("declared")
            .bins()
            .iter()
            .filter(|b| b.count > 0)
            .map(|b| b.sum / b.count as f64)
            .collect();
        let distinct: std::collections::BTreeSet<u64> = series.iter().map(|&v| v as u64).collect();
        assert!(
            distinct.len() > 1,
            "host count should fluctuate: {series:?}"
        );
    }
}
