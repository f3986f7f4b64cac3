//! Deployment facade.
//!
//! Wires the EveryWare services — Gossip pool, scheduling servers,
//! persistent state manager (with the Ramsey sanity check installed),
//! logging server — onto a simulation, exactly as Figure 1 lays the
//! application out. Used by the SC98 driver, the integration tests, and
//! the quickstart example.

use ew_gossip::GossipServer;
use ew_infra::ServiceHosts;
use ew_sched::{SchedulerConfig, SchedulerServer};
use ew_sim::{HostId, ProcessId, Sim};
use ew_state::{LogServer, PersistentStateServer};
pub use ew_workload::ramsey_validator;

/// Handles to a deployed service stack.
pub struct Deployment {
    /// The Gossip pool.
    pub gossips: Vec<ProcessId>,
    /// The scheduling servers.
    pub schedulers: Vec<ProcessId>,
    /// The persistent state manager.
    pub state: ProcessId,
    /// The logging server.
    pub log: ProcessId,
}

impl Deployment {
    /// Start describing a deployment. Place each service with the builder
    /// methods, then [`spawn`](DeploymentBuilder::spawn) it onto a
    /// simulation:
    ///
    /// ```ignore
    /// let dep = Deployment::builder(DeployConfig::default())
    ///     .gossip_pool(&gossip_hosts)
    ///     .schedulers(&sched_hosts)
    ///     .state_manager(state_host)
    ///     .log_server(log_host)
    ///     .spawn(&mut sim);
    /// ```
    pub fn builder(cfg: DeployConfig) -> DeploymentBuilder {
        DeploymentBuilder {
            cfg,
            gossip_hosts: Vec::new(),
            scheduler_hosts: Vec::new(),
            state_host: None,
            log_host: None,
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
    /// Scheduler configuration (each server gets a distinct seed salt).
    pub sched: SchedulerConfig,
}

/// Fluent description of a service stack, built by [`Deployment::builder`].
///
/// The first Gossip host becomes the well-known bootstrap address; every
/// scheduler synchronizes its best-found state through its nearest Gossip
/// (round-robin over the pool) and forwards performance records to the
/// logging server, exactly as Figure 1 lays the application out.
pub struct DeploymentBuilder {
    cfg: DeployConfig,
    gossip_hosts: Vec<HostId>,
    scheduler_hosts: Vec<HostId>,
    state_host: Option<HostId>,
    log_host: Option<HostId>,
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

    /// Spawn the described stack onto `sim`.
    ///
    /// # Panics
    ///
    /// If no gossip host, no state host, or no log host was given.
    pub fn spawn(self, sim: &mut Sim) -> Deployment {
        assert!(
            !self.gossip_hosts.is_empty(),
            "need at least one gossip host"
        );
        let state_host = self.state_host.expect("state_manager host not set");
        let log_host = self.log_host.expect("log_server host not set");
        let cfg = &self.cfg;

        let mut gossips = Vec::new();
        // Bootstrap gossip first; the rest announce to it.
        let g0 = sim.spawn(
            "gossip-0",
            self.gossip_hosts[0],
            Box::new(GossipServer::new(None, vec![])),
        );
        gossips.push(g0);
        for (i, &h) in self.gossip_hosts.iter().enumerate().skip(1) {
            gossips.push(sim.spawn(
                &format!("gossip-{i}"),
                h,
                Box::new(GossipServer::new(None, vec![g0.0 as u64])),
            ));
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
            schedulers.push(
                sim.spawn(
                    &format!("sched-{i}"),
                    h,
                    Box::new(
                        SchedulerServer::new(sched_cfg)
                            .with_gossip(gossip_addr)
                            .with_log_server(log.0 as u64),
                    ),
                ),
            );
        }

        Deployment {
            gossips,
            schedulers,
            state,
            log,
        }
    }
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
