//! Failure injection across the stack: scheduler death, network
//! partitions, state-server loss, and mass reclamation — the "robust"
//! requirement of §2, verified component by component against the kernel's
//! kill-without-warning semantics.

use everyware::{DeployConfig, Deployment};
use ew_gossip::GossipServer;
use ew_infra::{InfraSpec, InfraSupervisor, ServiceHosts};
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig, SchedulerServer};
use ew_sim::{
    AvailabilitySchedule, HostId, HostSpec, HostTable, NetModel, Partition, Sim, SimDuration,
    SimTime, SiteId, SiteSpec,
};
use ew_workload::WorkloadSpec;

struct World {
    net: NetModel,
    hosts: HostTable,
    sites: Vec<SiteId>,
}

fn world(n_sites: usize) -> World {
    let mut net = NetModel::new(0.05);
    let mut sites = Vec::new();
    for i in 0..n_sites {
        sites.push(net.add_site(SiteSpec::simple(
            &format!("site{i}"),
            SimDuration::from_millis(15),
            2.5e6,
            0.05,
        )));
    }
    World {
        net,
        hosts: HostTable::new(),
        sites,
    }
}

fn service_hosts(w: &mut World, site: SiteId) -> ServiceHosts {
    ServiceHosts {
        gossips: vec![
            w.hosts.add(HostSpec::dedicated("g0", site, 5e7)),
            w.hosts.add(HostSpec::dedicated("g1", site, 5e7)),
        ],
        schedulers: vec![
            w.hosts.add(HostSpec::dedicated("s0", site, 8e7)),
            w.hosts.add(HostSpec::dedicated("s1", site, 8e7)),
        ],
        state: w.hosts.add(HostSpec::dedicated("state", site, 5e7)),
        log: w.hosts.add(HostSpec::dedicated("log", site, 5e7)),
    }
}

fn sched_cfg() -> SchedulerConfig {
    SchedulerConfig {
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
        step_budget: 1_000,
        ..SchedulerConfig::default()
    }
}

#[test]
fn work_survives_scheduler_host_death() {
    let mut w = world(2);
    let svc_site = w.sites[0];
    // Scheduler s0 dies at t=200 and never returns.
    let h_s0 = {
        let mut h = HostSpec::dedicated("dying-sched", svc_site, 8e7);
        h.availability = AvailabilitySchedule {
            transitions: vec![(SimTime::from_secs(200), false)],
        };
        w.hosts.add(h)
    };
    let h_s1 = w
        .hosts
        .add(HostSpec::dedicated("stable-sched", svc_site, 8e7));
    let work_site = w.sites[1];
    let compute: Vec<HostId> = (0..4)
        .map(|i| {
            w.hosts
                .add(HostSpec::dedicated(&format!("w{i}"), work_site, 1e8))
        })
        .collect();
    let mut sim = Sim::new(w.net, w.hosts, 31);
    let s0 = sim.spawn("s0", h_s0, Box::new(SchedulerServer::new(sched_cfg())));
    let s1 = sim.spawn("s1", h_s1, Box::new(SchedulerServer::new(sched_cfg())));
    let clients: Vec<_> = compute
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            sim.spawn(
                &format!("c{i}"),
                h,
                Box::new(ComputeClient::new(ClientConfig {
                    schedulers: vec![s0.0 as u64, s1.0 as u64],
                    chunk_ops: 100_000_000,
                    ops_per_step: 1_000_000,
                    ..ClientConfig::default()
                })),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs(1200));
    assert!(!sim.process_alive(s0), "s0 died with its host");
    // Every client failed over and kept completing units on s1.
    for &c in &clients {
        let (failovers, units) = sim
            .with_process::<ComputeClient, _>(c, |c| (c.failovers, c.units_completed))
            .unwrap();
        assert!(failovers >= 1, "client should have failed over");
        assert!(units > 20, "client kept working: {units}");
    }
    let s1_results = sim
        .with_process::<SchedulerServer, _>(s1, |s| s.results_received)
        .unwrap();
    assert!(s1_results > 80, "s1 absorbed the load: {s1_results}");
}

#[test]
fn compute_continues_through_state_server_outage() {
    let mut w = world(2);
    let svc_site = w.sites[0];
    let svc = service_hosts(&mut w, svc_site);
    // Kill the state host for the middle third of the run.
    let state_host = svc.state;
    let work_site = w.sites[1];
    let compute: Vec<HostId> = (0..3)
        .map(|i| {
            w.hosts
                .add(HostSpec::dedicated(&format!("w{i}"), work_site, 1e8))
        })
        .collect();
    // Rebuild the host entry with downtime; HostTable has no mutation API,
    // so instead use a partition to make the state site unreachable —
    // operationally identical from the clients' side.
    w.net.add_partition(Partition {
        a: w.sites[0],
        b: Some(w.sites[1]),
        from: SimTime::from_secs(400),
        until: SimTime::from_secs(800),
    });
    let _ = state_host;
    let mut sim = Sim::new(w.net, w.hosts, 33);
    let dep = Deployment::builder(DeployConfig {
        sched: sched_cfg(),
        ..DeployConfig::default()
    })
    .service_hosts(&svc)
    .spawn(&mut sim);
    let clients: Vec<_> = compute
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            sim.spawn(
                &format!("c{i}"),
                h,
                Box::new(ComputeClient::new(ClientConfig {
                    schedulers: dep.scheduler_addrs(),
                    state_server: Some(dep.state_addr()),
                    chunk_ops: 100_000_000,
                    ops_per_step: 1_000_000,
                    ..ClientConfig::default()
                })),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs(1200));
    // The partition cut clients off from ALL services for 400 s; they kept
    // computing locally (their hosts never went down) and reconnected.
    for &c in &clients {
        let units = sim
            .with_process::<ComputeClient, _>(c, |c| c.units_completed)
            .unwrap();
        assert!(units > 10, "client recovered after the partition: {units}");
    }
    // Work completed after healing too: results kept arriving at the end.
    assert!(sim.metrics().counter("sched.results") > 30.0);
}

#[test]
fn gossip_pool_survives_partition_between_service_sites() {
    let mut w = world(3);
    let svc = ServiceHosts {
        gossips: vec![
            w.hosts.add(HostSpec::dedicated("g0", w.sites[0], 5e7)),
            w.hosts.add(HostSpec::dedicated("g1", w.sites[1], 5e7)),
            w.hosts.add(HostSpec::dedicated("g2", w.sites[2], 5e7)),
        ],
        schedulers: vec![w.hosts.add(HostSpec::dedicated("s0", w.sites[0], 8e7))],
        state: w.hosts.add(HostSpec::dedicated("st", w.sites[0], 5e7)),
        log: w.hosts.add(HostSpec::dedicated("lg", w.sites[0], 5e7)),
    };
    w.net.add_partition(Partition {
        a: w.sites[2],
        b: None,
        from: SimTime::from_secs(600),
        until: SimTime::from_secs(900),
    });
    let mut sim = Sim::new(w.net, w.hosts, 35);
    let dep = Deployment::builder(DeployConfig::default())
        .service_hosts(&svc)
        .spawn(&mut sim);
    sim.run_until(SimTime::from_secs(500));
    let full: Vec<u64> = dep.gossips.iter().map(|p| p.0 as u64).collect();
    let members = sim
        .with_process::<GossipServer, _>(dep.gossips[0], |g| g.clique_members())
        .unwrap();
    assert_eq!(members, full, "pool formed before the partition");
    sim.run_until(SimTime::from_secs(890));
    let members = sim
        .with_process::<GossipServer, _>(dep.gossips[0], |g| g.clique_members())
        .unwrap();
    assert!(
        !members.contains(&(dep.gossips[2].0 as u64)),
        "partitioned member expelled: {members:?}"
    );
    sim.run_until(SimTime::from_secs(1800));
    for &g in &dep.gossips {
        let members = sim
            .with_process::<GossipServer, _>(g, |g| g.clique_members())
            .unwrap();
        assert_eq!(members, full, "pool healed after the partition");
    }
}

#[test]
fn mass_reclamation_and_respawn() {
    // Every compute host dies at t=300 and returns at t=600 (a pool-wide
    // Condor reclamation). The supervisor must restaff all of them and
    // throughput must resume.
    let mut w = world(2);
    let svc_site = w.sites[0];
    let svc = service_hosts(&mut w, svc_site);
    let work_site = w.sites[1];
    let compute: Vec<HostId> = (0..6)
        .map(|i| {
            let mut h = HostSpec::dedicated(&format!("w{i}"), work_site, 1e8);
            h.availability = AvailabilitySchedule {
                transitions: vec![
                    (SimTime::from_secs(300), false),
                    (SimTime::from_secs(600), true),
                ],
            };
            w.hosts.add(h)
        })
        .collect();
    let mut sim = Sim::new(w.net, w.hosts, 37);
    let dep = Deployment::builder(DeployConfig {
        sched: sched_cfg(),
        ..DeployConfig::default()
    })
    .service_hosts(&svc)
    .spawn(&mut sim);
    let sup = sim.spawn(
        "sup",
        svc.log,
        Box::new(InfraSupervisor::new(InfraSpec {
            name: "pool".into(),
            hosts: compute,
            invocation_delay: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(1),
            client_template: ClientConfig {
                schedulers: dep.scheduler_addrs(),
                chunk_ops: 100_000_000,
                ops_per_step: 1_000_000,
                ..ClientConfig::default()
            },
            sample_interval: SimDuration::from_secs(60),
        })),
    );
    sim.run_until(SimTime::from_secs(1200));
    let spawned = sim
        .with_process::<InfraSupervisor, _>(sup, |s| s.spawned)
        .unwrap();
    assert_eq!(spawned, 12, "6 initial + 6 respawns");
    assert_eq!(sim.metrics().counter("procs.killed_by_host_down"), 6.0);
    // Ops flowed in the final stretch (after respawn).
    let series = sim.metrics().series("ops_series.pool");
    let late_ops: f64 = series
        .iter()
        .filter(|(t, _)| *t > SimTime::from_secs(700))
        .map(|(_, v)| v)
        .sum();
    assert!(late_ops > 0.0, "throughput resumed after mass respawn");
    // And the dead window really was dead.
    let dead_ops: f64 = series
        .iter()
        .filter(|(t, _)| *t > SimTime::from_secs(320) && *t < SimTime::from_secs(600))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(dead_ops, 0.0, "no ops while every host was reclaimed");
}

#[test]
fn killed_client_resumes_from_checkpoint() {
    // §2.3: the state-exchange/persistent-state machinery "can be used in
    // conjunction with application-level checkpointing to ensure
    // robustness." A client checkpoints its unit progress; its host is
    // reclaimed mid-unit; the respawned client on the same host resumes
    // the unit from the checkpoint rather than starting over.
    let mut w = world(2);
    let svc_site = w.sites[0];
    let svc = service_hosts(&mut w, svc_site);
    let work_site = w.sites[1];
    let victim = {
        let mut h = HostSpec::dedicated("victim", work_site, 1e7);
        h.availability = AvailabilitySchedule {
            transitions: vec![
                (SimTime::from_secs(300), false),
                (SimTime::from_secs(360), true),
            ],
        };
        w.hosts.add(h)
    };
    let mut sim = Sim::new(w.net, w.hosts, 71);
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            // One enormous unit: it cannot finish before the kill, so
            // resume-vs-restart is observable.
            step_budget: 10_000_000,
            ..sched_cfg()
        },
        ..DeployConfig::default()
    })
    .service_hosts(&svc)
    .spawn(&mut sim);
    let template = ClientConfig {
        schedulers: dep.scheduler_addrs(),
        state_server: Some(dep.state_addr()),
        chunk_ops: 10_000_000, // 1 s per chunk at 1e7 ops/s
        ops_per_step: 10_000,
        checkpoint_every_chunks: Some(10),
        ..ClientConfig::default()
    };
    let sup = sim.spawn(
        "sup",
        svc.log,
        Box::new(InfraSupervisor::new(InfraSpec {
            name: "ckpt".into(),
            hosts: vec![victim],
            invocation_delay: SimDuration::from_secs(2),
            stagger: SimDuration::ZERO,
            client_template: template,
            sample_interval: SimDuration::from_secs(300),
        })),
    );
    sim.run_until(SimTime::from_secs(600));
    let spawned = sim
        .with_process::<InfraSupervisor, _>(sup, |s| s.spawned)
        .unwrap();
    assert_eq!(spawned, 2, "initial client + respawn");
    assert!(
        sim.metrics().counter("client.checkpoints") >= 10.0,
        "checkpoints were cut: {}",
        sim.metrics().counter("client.checkpoints")
    );
    assert_eq!(
        sim.metrics().counter("client.resumes"),
        1.0,
        "the respawned client resumed its predecessor's unit"
    );
    // The resumed unit kept making progress: only one grant was ever
    // issued (no second unit was requested after the restart).
    assert_eq!(sim.metrics().counter("sched.grants"), 1.0);
}
