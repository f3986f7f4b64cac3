//! Deployment facade.
//!
//! Wires the EveryWare application onto a simulation, exactly as Figure 1
//! lays it out: Gossip pool, scheduling servers, persistent state manager
//! (with the workload's sanity check installed), logging server, the
//! Network Weather Service where asked, and one supervised client pool per
//! infrastructure. Used by the SC98 driver, the chaos campaign, the mega
//! campaign, the integration tests, and the quickstart example.

use ew_forecast::{NwsSensor, NwsServer, SensorConfig};
use ew_gossip::GossipServer;
use ew_infra::{InfraSpec, InfraSupervisor, Relay, ServiceHosts};
use ew_sched::{SchedulerConfig, SchedulerServer};
use ew_sim::{HostId, Process, ProcessId, Sim};
use ew_state::{LogServer, PersistentStateServer};
pub use ew_workload::ramsey_validator;

/// Handles to a deployed world.
pub struct Deployment {
    /// The Gossip pool.
    pub gossips: Vec<ProcessId>,
    /// The scheduling servers.
    pub schedulers: Vec<ProcessId>,
    /// The persistent state manager.
    pub state: ProcessId,
    /// The logging server.
    pub log: ProcessId,
    /// The NWS forecaster server, when [`DeploymentBuilder::nws`] was set.
    pub nws: Option<ProcessId>,
    /// One infrastructure supervisor per [`DeploymentBuilder::pool`], in
    /// pool order.
    pub supervisors: Vec<ProcessId>,
}

impl Deployment {
    /// Start describing a deployment. Place each service and add each
    /// client pool with the builder methods, then
    /// [`spawn`](DeploymentBuilder::spawn) it onto a simulation:
    ///
    /// ```no_run
    /// use everyware::{DeployConfig, Deployment, Route};
    /// use ew_infra::{build_sc98, InfraSpec};
    /// use ew_sched::ClientConfig;
    /// use ew_sim::{Sim, SimDuration};
    ///
    /// let world = build_sc98(7, SimDuration::from_secs(600), None);
    /// let mut sim = Sim::new(world.net, world.hosts, 7);
    /// let unix = InfraSpec {
    ///     name: "unix".into(),
    ///     hosts: world.infra[0].hosts.clone(),
    ///     invocation_delay: SimDuration::from_secs(1),
    ///     stagger: SimDuration::ZERO,
    ///     client_template: ClientConfig::default(),
    ///     sample_interval: SimDuration::from_secs(300),
    /// };
    /// let dep = Deployment::builder(DeployConfig::default())
    ///     .service_hosts(&world.services)
    ///     .pool(unix, Route::Direct)
    ///     .spawn(&mut sim);
    /// assert_eq!(dep.supervisors.len(), 1);
    /// ```
    pub fn builder(cfg: DeployConfig) -> DeploymentBuilder {
        DeploymentBuilder {
            cfg,
            ..DeploymentBuilder::default()
        }
    }

    /// Scheduler addresses in wire form (for client configs).
    pub fn scheduler_addrs(&self) -> Vec<u64> {
        self.schedulers.iter().map(|p| p.0 as u64).collect()
    }

    /// State-server address in wire form.
    pub fn state_addr(&self) -> u64 {
        self.state.0 as u64
    }
}

/// Persistent-state capacity in bytes.
const STATE_CAPACITY: usize = 16 << 20;

/// Options for [`Deployment::builder`].
#[derive(Default)]
pub struct DeployConfig {
    /// Scheduler configuration (each server gets a distinct seed salt);
    /// its workload is also every pool's client workload.
    pub sched: SchedulerConfig,
}

/// How a pool's clients reach the schedulers.
#[derive(Clone, Copy, Debug)]
pub enum Route {
    /// Straight to the deployment's schedulers, in failover order.
    Direct,
    /// Through a relay on this host (Legion's translator, NetSolve's
    /// agent), which forwards to the deployment's schedulers; the relay
    /// takes the host's name as its label.
    Relay(HostId),
    /// The `i`-th [`process`](DeploymentBuilder::process) first, then the
    /// deployment's schedulers (the §5.4 scheduler inside the Condor pool).
    ProcessFirst(usize),
}

/// Fluent description of a world, built by [`Deployment::builder`].
///
/// The first Gossip host becomes the well-known bootstrap address; every
/// scheduler synchronizes its best-found state through its nearest Gossip
/// (round-robin over the pool) and forwards performance records to the
/// logging server, exactly as Figure 1 lays the application out.
#[derive(Default)]
pub struct DeploymentBuilder {
    cfg: DeployConfig,
    gossip_hosts: Vec<HostId>,
    scheduler_hosts: Vec<HostId>,
    state_host: Option<HostId>,
    log_host: Option<HostId>,
    nws: bool,
    processes: Vec<(String, HostId, Box<dyn Process>)>,
    pools: Vec<(InfraSpec, Route)>,
}

impl DeploymentBuilder {
    /// Place the Gossip pool on these hosts (first is the bootstrap).
    pub fn gossip_pool(mut self, hosts: &[HostId]) -> Self {
        self.gossip_hosts = hosts.to_vec();
        self
    }

    /// Place one scheduling server on each of these hosts.
    pub fn schedulers(mut self, hosts: &[HostId]) -> Self {
        self.scheduler_hosts = hosts.to_vec();
        self
    }

    /// Place the persistent state manager (the trusted site, §3.1.2).
    pub fn state_manager(mut self, host: HostId) -> Self {
        self.state_host = Some(host);
        self
    }

    /// Place the logging server.
    pub fn log_server(mut self, host: HostId) -> Self {
        self.log_host = Some(host);
        self
    }

    /// Place every service from a pre-built [`ServiceHosts`] layout (the
    /// SC98 pool builders produce one). Individual placement methods may
    /// still override parts afterwards.
    pub fn service_hosts(self, hosts: &ServiceHosts) -> Self {
        self.gossip_pool(&hosts.gossips)
            .schedulers(&hosts.schedulers)
            .state_manager(hosts.state)
            .log_server(hosts.log)
    }

    /// Run the Network Weather Service (Figure 1's "NWS" box): a
    /// forecaster server on the state host and a sensor on every Gossip
    /// and scheduler host, probing each other across the wide area.
    pub fn nws(mut self) -> Self {
        self.nws = true;
        self
    }

    /// Add an extra process, spawned after the services and before the
    /// pools.
    pub fn process(mut self, name: &str, host: HostId, p: Box<dyn Process>) -> Self {
        self.processes.push((name.to_string(), host, p));
        self
    }

    /// Add a client pool. `spawn` fills its client template's workload
    /// (from [`DeployConfig::sched`]), scheduler list (by `route`) and
    /// state server; every other client setting is the template's own.
    pub fn pool(mut self, spec: InfraSpec, route: Route) -> Self {
        self.pools.push((spec, route));
        self
    }

    /// Spawn the described world onto `sim`, in this order (it fixes every
    /// process id, and so every rng stream): the Gossip pool, the state
    /// manager, the logging server, the schedulers, the NWS server and its
    /// sensors, the extra processes, then per pool its relay (if routed
    /// through one) and its `sup-<name>` supervisor on the log host.
    ///
    /// # Panics
    ///
    /// If no gossip host, no state host, or no log host was given, or a
    /// [`Route::ProcessFirst`] names no [`process`](Self::process).
    pub fn spawn(self, sim: &mut Sim) -> Deployment {
        assert!(
            !self.gossip_hosts.is_empty(),
            "need at least one gossip host"
        );
        let state_host = self.state_host.expect("state_manager host not set");
        let log_host = self.log_host.expect("log_server host not set");
        let cfg = &self.cfg;

        // Bootstrap gossip first; the rest announce to it.
        let mut gossips: Vec<ProcessId> = Vec::new();
        for (i, &h) in self.gossip_hosts.iter().enumerate() {
            let well_known = gossips.first().map(|g| vec![g.0 as u64]);
            let gossip = Box::new(GossipServer::new(None, well_known.unwrap_or_default()));
            gossips.push(sim.spawn(&format!("gossip-{i}"), h, gossip));
        }

        let mut pss = PersistentStateServer::new("sdsc-trusted", STATE_CAPACITY);
        if let Some((class, validator)) = cfg.sched.workload.validator() {
            pss.register_validator(class, validator);
        }
        let state = sim.spawn("state", state_host, Box::new(pss));
        let log = sim.spawn("log", log_host, Box::<LogServer>::default());

        let mut schedulers = Vec::new();
        for (i, &h) in self.scheduler_hosts.iter().enumerate() {
            let sched_cfg = SchedulerConfig {
                seed_salt: cfg.sched.seed_salt + 1 + i as u64,
                ..cfg.sched.clone()
            };
            let gossip_addr = gossips[i % gossips.len()].0 as u64;
            let sched = SchedulerServer::new(sched_cfg)
                .with_gossip(gossip_addr)
                .with_log_server(log.0 as u64);
            schedulers.push(sim.spawn(&format!("sched-{i}"), h, Box::new(sched)));
        }

        let sensor_hosts = [&self.gossip_hosts[..], &self.scheduler_hosts[..]].concat();
        let nws = self.nws.then(|| spawn_nws(sim, state_host, &sensor_hosts));
        let processes: Vec<ProcessId> = self
            .processes
            .into_iter()
            .map(|(name, host, p)| sim.spawn(&name, host, p))
            .collect();

        let mut dep = Deployment {
            gossips,
            schedulers,
            state,
            log,
            nws,
            supervisors: Vec::new(),
        };
        let addrs = dep.scheduler_addrs();
        for (mut spec, route) in self.pools {
            let client = &mut spec.client_template;
            client.workload = cfg.sched.workload.clone();
            client.state_server = Some(dep.state_addr());
            client.schedulers = match route {
                Route::Direct => addrs.clone(),
                Route::Relay(host) => {
                    let label = sim.hosts().get(host).name.clone();
                    let relay = Box::new(Relay::new(&label, addrs.clone()));
                    vec![sim.spawn(&label, host, relay).0 as u64]
                }
                Route::ProcessFirst(i) => [vec![processes[i].0 as u64], addrs.clone()].concat(),
            };
            let name = format!("sup-{}", spec.name);
            // Supervisors are bookkeeping; they run at a stable host.
            let sup = Box::new(InfraSupervisor::new(spec));
            dep.supervisors.push(sim.spawn(&name, log_host, sup));
        }
        dep
    }
}

/// Spawn the NWS forecaster server on `server_host` and one sensor per
/// `sensor_hosts` entry, each probing every other sensor and reporting to
/// the server.
fn spawn_nws(sim: &mut Sim, server_host: HostId, sensor_hosts: &[HostId]) -> ProcessId {
    let server = sim.spawn("nws-server", server_host, Box::new(NwsServer::new()));
    // Sensor pids are assigned sequentially after the server's.
    let first = server.0 as u64 + 1;
    let sensors: Vec<u64> = (first..first + sensor_hosts.len() as u64).collect();
    for (i, (&host, &me)) in sensor_hosts.iter().zip(&sensors).enumerate() {
        let peers = sensors.iter().copied().filter(|&p| p != me).collect();
        let server = server.0 as u64;
        let sensor = Box::new(NwsSensor::new(SensorConfig { peers, server }));
        let pid = sim.spawn(&format!("nws-sensor-{i}"), host, sensor);
        assert_eq!(pid.0 as u64, me, "a sensor's peers are the other sensors");
    }
    server
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_ramsey::{Color, ColoredGraph};

    #[test]
    fn ramsey_validator_accepts_real_witness() {
        let v = ramsey_validator();
        let pentagon = ColoredGraph::paley(5);
        assert!(v("ramsey/best/3", &pentagon.to_bytes()).is_ok());
        assert!(v("ramsey/best/4", &ColoredGraph::paley(17).to_bytes()).is_ok());
    }

    #[test]
    fn ramsey_validator_rejects_fakes_and_garbage() {
        let v = ramsey_validator();
        let bad = ColoredGraph::monochromatic(6, Color::Red);
        let err = v("ramsey/best/3", &bad.to_bytes()).unwrap_err();
        assert!(err.contains("monochromatic"));
        assert!(v("ramsey/best/3", &[1, 2, 3]).is_err());
        assert!(v("not-a-key", &ColoredGraph::paley(5).to_bytes()).is_err());
        // A pentagon is NOT a counter-example for k=3 claimed as... it is;
        // but claimed for a size it doesn't satisfy must fail:
        let k6 = ColoredGraph::monochromatic(3, Color::Red);
        assert!(v("ramsey/best/3", &k6.to_bytes()).is_err());
    }

    #[test]
    fn deploy_wires_the_full_stack() {
        use ew_sim::{SimDuration, SimTime};
        let pool = ew_infra::build_sc98(7, SimDuration::from_secs(600), None);
        let mut sim = Sim::new(pool.net, pool.hosts, 7);
        let dep = Deployment::builder(DeployConfig::default())
            .service_hosts(&pool.services)
            .spawn(&mut sim);
        assert_eq!(dep.gossips.len(), 3);
        assert_eq!(dep.schedulers.len(), 3);
        assert_eq!(dep.scheduler_addrs().len(), 3);
        sim.run_until(SimTime::from_secs(300));
        // All services alive; gossip pool converged.
        for &p in dep
            .gossips
            .iter()
            .chain(dep.schedulers.iter())
            .chain([dep.state, dep.log].iter())
        {
            assert!(sim.process_alive(p));
        }
        let members = sim
            .with_process::<GossipServer, _>(dep.gossips[0], |g| g.clique_members())
            .unwrap();
        assert_eq!(members.len(), 3, "gossip pool converged: {members:?}");
    }
}
