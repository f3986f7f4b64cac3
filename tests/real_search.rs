//! Real distributed search, end to end: simulated clients executing
//! genuine Ramsey work units, shipping verified counter-examples to the
//! persistent state manager through the real validator, and schedulers
//! synchronizing the best-found state through the Gossip pool.

use everyware::{DeployConfig, Deployment};
use ew_ramsey::{verify_counter_example, ColoredGraph, OpsCounter, RamseyProblem, Verification};
use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig, SchedulerServer};
use ew_sim::{HostSpec, HostTable, NetModel, Sim, SimDuration, SimTime, SiteSpec};
use ew_state::PersistentStateServer;
use ew_workload::WorkloadSpec;

#[test]
fn distributed_real_search_stores_verified_witness() {
    let mut net = NetModel::new(0.05);
    let svc_site = net.add_site(SiteSpec::simple(
        "svc",
        SimDuration::from_millis(10),
        2.5e6,
        0.0,
    ));
    let work_site = net.add_site(SiteSpec::simple(
        "work",
        SimDuration::from_millis(25),
        1.25e6,
        0.05,
    ));
    let mut hosts = HostTable::new();
    let svc = ew_infra::ServiceHosts {
        gossips: vec![
            hosts.add(HostSpec::dedicated("g0", svc_site, 5e7)),
            hosts.add(HostSpec::dedicated("g1", svc_site, 5e7)),
        ],
        schedulers: vec![
            hosts.add(HostSpec::dedicated("s0", svc_site, 8e7)),
            hosts.add(HostSpec::dedicated("s1", svc_site, 8e7)),
        ],
        state: hosts.add(HostSpec::dedicated("state", svc_site, 5e7)),
        log: hosts.add(HostSpec::dedicated("log", svc_site, 5e7)),
    };
    let compute: Vec<_> = (0..4)
        .map(|i| hosts.add(HostSpec::dedicated(&format!("w{i}"), work_site, 1e8)))
        .collect();
    let mut sim = Sim::new(net, hosts, 41);
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            step_budget: 5_000,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .service_hosts(&svc)
    .spawn(&mut sim);
    for (i, &h) in compute.iter().enumerate() {
        sim.spawn(
            &format!("c{i}"),
            h,
            Box::new(ComputeClient::new(ClientConfig {
                schedulers: dep.scheduler_addrs(),
                state_server: Some(dep.state_addr()),
                execute_real: true,
                // One chunk per unit (~10 simulated seconds each), so the
                // 600-second window runs ~240 real searches — enough that
                // several find witnesses, without minutes of wall clock.
                chunk_ops: 1_000_000_000,
                ops_per_step: 200_000,
                ..ClientConfig::default()
            })),
        );
    }
    sim.run_until(SimTime::from_secs(600));

    // A verified 17-vertex R(4) witness reached persistent state, passing
    // the real clique-counting validator on the way in.
    let stored = sim
        .with_process::<PersistentStateServer, _>(dep.state, |s| {
            (
                s.get("ramsey/best/4").cloned(),
                s.stores_ok,
                s.stores_rejected,
            )
        })
        .unwrap();
    let (blob, stores_ok, _rejected) = stored;
    let blob = blob.expect("a witness was stored");
    assert!(stores_ok >= 1);
    let g = ColoredGraph::from_bytes(&blob).expect("stored bytes decode");
    let mut ops = OpsCounter::new();
    assert!(matches!(
        verify_counter_example(&g, 4, &mut ops),
        Verification::Valid { n: 17, .. }
    ));

    // Both schedulers converged on best_known = 0 via results + gossip.
    let mut bests = Vec::new();
    for &s in &dep.schedulers {
        bests.push(
            sim.with_process::<SchedulerServer, _>(s, |s| s.best_known.as_ref().map(|(c, _)| *c))
                .unwrap(),
        );
    }
    assert!(
        bests.contains(&Some(0)),
        "at least the receiving scheduler knows a perfect coloring: {bests:?}"
    );
    // Scheduler counter-example collection saw it too.
    let ces: u64 = dep
        .schedulers
        .iter()
        .map(|&s| {
            sim.with_process::<SchedulerServer, _>(s, |s| s.artifacts_received)
                .unwrap()
        })
        .sum();
    assert!(ces >= 1);
}

#[test]
fn bogus_counter_examples_are_refused_by_the_state_service() {
    use ew_proto::sim_net::{packet_from_event, send_packet};
    use ew_proto::{Packet, WireEncode};
    use ew_ramsey::Color;
    use ew_sim::{Ctx, Event, Process, ProcessId};
    use ew_state::{sm, StoreReply, StoreRequest};

    struct Adversary {
        state: ProcessId,
        pub replies: Vec<StoreReply>,
    }
    impl Process for Adversary {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match &ev {
                Event::Started => {
                    // A mono-red K17 claimed as an R(4) counter-example.
                    let fake = ColoredGraph::monochromatic(17, Color::Red);
                    let req = StoreRequest {
                        key: "ramsey/best/4".into(),
                        class: 1,
                        value: fake.to_bytes(),
                    };
                    send_packet(
                        ctx,
                        self.state,
                        &Packet::request(sm::STORE, 1, req.to_wire()),
                    );
                    // And pure garbage.
                    let req2 = StoreRequest {
                        key: "ramsey/best/4".into(),
                        class: 1,
                        value: vec![0xFF, 0x01],
                    };
                    send_packet(
                        ctx,
                        self.state,
                        &Packet::request(sm::STORE, 2, req2.to_wire()),
                    );
                }
                _ => {
                    if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
                        if let Ok(reply) = pkt.body::<StoreReply>() {
                            self.replies.push(reply);
                        }
                    }
                }
            }
        }
    }

    let mut net = NetModel::new(0.0);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(5),
        2.5e6,
        0.0,
    ));
    let mut hosts = HostTable::new();
    let h0 = hosts.add(HostSpec::dedicated("state", site, 5e7));
    let h1 = hosts.add(HostSpec::dedicated("adv", site, 5e7));
    let mut sim = Sim::new(net, hosts, 43);
    let mut pss = PersistentStateServer::new("trusted", 1 << 20);
    pss.register_validator(1, everyware::ramsey_validator());
    let state = sim.spawn("state", h0, Box::new(pss));
    let adv = sim.spawn(
        "adv",
        h1,
        Box::new(Adversary {
            state,
            replies: vec![],
        }),
    );
    sim.run_until(SimTime::from_secs(10));
    let replies = sim
        .with_process::<Adversary, _>(adv, |a| a.replies.clone())
        .unwrap();
    assert_eq!(replies.len(), 2);
    assert!(
        replies.iter().all(|r| !r.accepted),
        "both fakes refused: {replies:?}"
    );
    assert!(
        replies.iter().any(|r| r.reason.contains("monochromatic")),
        "the clique-count diagnostic appears: {replies:?}"
    );
    assert!(
        replies
            .iter()
            .any(|r| r.reason.contains("not a colored graph")),
        "the decode diagnostic appears: {replies:?}"
    );
    // Nothing was persisted.
    let count = sim
        .with_process::<PersistentStateServer, _>(state, |s| s.key_count())
        .unwrap();
    assert_eq!(count, 0);
}
