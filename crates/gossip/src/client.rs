//! Client-side state synchronization glue.
//!
//! "All application components wishing to use Gossip service must also
//! export a state-update method for each message type they wish to
//! synchronize" (§2.3). [`GossipClient`] is the piece an application
//! process embeds: it registers the component's state types with a Gossip,
//! answers poll requests with the current local state, and absorbs pushes
//! that carry fresher state, queueing them for the application to apply.

use ew_proto::sim_net::send_packet;
use ew_proto::{Packet, WireEncode};
use ew_sim::{Ctx, ProcessId};

use crate::freshness::{Comparator, VersionedBlob};
use crate::messages::{gm, Poll, Register, StateCarrier, TypeRegistration};

/// Embeddable state-synchronization endpoint for one application component.
pub struct GossipClient {
    types: Vec<(u16, Comparator)>,
    states: std::collections::BTreeMap<u16, VersionedBlob>,
    /// Fresher states received from the pool, for the application's
    /// state-update methods to drain ([`GossipClient::drain_updates`]).
    updates: Vec<(u16, VersionedBlob)>,
}

impl GossipClient {
    /// A client synchronizing the given state types.
    pub fn new(types: Vec<(u16, Comparator)>) -> Self {
        let states = types
            .iter()
            .map(|&(stype, _)| (stype, VersionedBlob::empty()))
            .collect();
        GossipClient {
            types,
            states,
            updates: Vec::new(),
        }
    }

    /// Send the registration request to a Gossip server.
    pub fn register(&mut self, ctx: &mut Ctx<'_>, gossip: ProcessId) {
        let body = Register {
            addr: ctx.me().0 as u64,
            types: self
                .types
                .iter()
                .map(|&(stype, cmp)| TypeRegistration {
                    stype,
                    comparator: cmp.wire_id(),
                })
                .collect(),
        };
        send_packet(
            ctx,
            gossip,
            &Packet::request(gm::REGISTER, 0, body.to_wire_payload()),
        );
    }

    /// Write the local copy of a state (e.g. after completing work). The
    /// caller owns version semantics (counter or quality score).
    pub fn set_local(&mut self, stype: u16, blob: VersionedBlob) {
        self.states.insert(stype, blob);
    }

    /// Current local copy of a state.
    pub fn get(&self, stype: u16) -> Option<&VersionedBlob> {
        self.states.get(&stype)
    }

    /// Take the fresher states received since the last drain.
    pub fn drain_updates(&mut self) -> Vec<(u16, VersionedBlob)> {
        std::mem::take(&mut self.updates)
    }

    fn comparator(&self, stype: u16) -> Comparator {
        self.types
            .iter()
            .find(|&&(s, _)| s == stype)
            .map(|&(_, c)| c)
            .unwrap_or(Comparator::VersionCounter)
    }

    /// Offer an incoming packet to the client. Returns `true` if it was a
    /// gossip-service packet and has been handled.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, pkt: &Packet) -> bool {
        match (pkt.mtype, pkt.is_response()) {
            (gm::REGISTER, true) => true,
            (gm::POLL, false) => {
                if let Ok(poll) = pkt.body::<Poll>() {
                    let blob = self
                        .states
                        .get(&poll.stype)
                        .cloned()
                        .unwrap_or_else(VersionedBlob::empty);
                    let carrier = StateCarrier {
                        stype: poll.stype,
                        blob,
                    };
                    send_packet(
                        ctx,
                        from,
                        &Packet::response_to(pkt, carrier.to_wire_payload()),
                    );
                }
                true
            }
            (gm::PUSH, false) => {
                if let Ok(carrier) = pkt.body::<StateCarrier>() {
                    let cmp = self.comparator(carrier.stype);
                    let mine = self
                        .states
                        .get(&carrier.stype)
                        .cloned()
                        .unwrap_or_else(VersionedBlob::empty);
                    if cmp.compare(&carrier.blob, &mine) == std::cmp::Ordering::Greater {
                        self.states.insert(carrier.stype, carrier.blob.clone());
                        self.updates.push((carrier.stype, carrier.blob));
                    }
                }
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{GossipConfig, GossipServer};
    use ew_proto::sim_net::packet_from_event;
    use ew_sim::{
        Event, HostId, HostSpec, HostTable, NetModel, Partition, Process, Sim, SimDuration,
        SimTime, SiteSpec,
    };

    /// A minimal application component: registers, periodically bumps its
    /// state, and records updates it hears about.
    struct Component {
        gossip: ProcessId,
        client: GossipClient,
        /// If set, write (version, payload byte) at this period.
        write_period: Option<SimDuration>,
        next_version: u64,
        pub received: Vec<(u16, VersionedBlob)>,
    }

    const STYPE: u16 = 0x1001;

    impl Component {
        fn new(gossip: ProcessId, write_period: Option<SimDuration>) -> Self {
            Component {
                gossip,
                client: GossipClient::new(vec![(STYPE, Comparator::VersionCounter)]),
                write_period,
                next_version: 1,
                received: Vec::new(),
            }
        }
    }

    impl Process for Component {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match &ev {
                Event::Started => {
                    self.client.register(ctx, self.gossip);
                    if self.write_period.is_some() {
                        ctx.set_timer(SimDuration::from_secs(5), 1);
                    }
                }
                Event::Timer { tag: 1 } => {
                    let blob = VersionedBlob::new(self.next_version, vec![ctx.me().0 as u8]);
                    self.next_version += 1;
                    self.client.set_local(STYPE, blob);
                    if let Some(p) = self.write_period {
                        ctx.set_timer(p, 1);
                    }
                }
                _ => {
                    if let Some(Ok((from, pkt))) = packet_from_event(&ev) {
                        self.client.handle_packet(ctx, from, &pkt);
                        self.received.extend(self.client.drain_updates());
                    }
                }
            }
        }
    }

    fn world(n_sites: usize) -> (NetModel, HostTable, Vec<HostId>) {
        let mut net = NetModel::new(0.1);
        let mut hosts = HostTable::new();
        let mut hids = Vec::new();
        for i in 0..n_sites {
            let site = net.add_site(SiteSpec::simple(
                &format!("site{i}"),
                SimDuration::from_millis(20),
                1.25e6,
                0.05,
            ));
            hids.push(hosts.add(HostSpec::dedicated(&format!("h{i}"), site, 1e8)));
        }
        (net, hosts, hids)
    }

    #[test]
    fn single_gossip_synchronizes_two_components() {
        let (net, hosts, hids) = world(3);
        let mut sim = Sim::new(net, hosts, 42);
        let g = sim.spawn(
            "gossip",
            hids[0],
            Box::new(GossipServer::new(GossipConfig::default(), vec![])),
        );
        let writer = sim.spawn(
            "writer",
            hids[1],
            Box::new(Component::new(g, Some(SimDuration::from_secs(20)))),
        );
        let reader = sim.spawn("reader", hids[2], Box::new(Component::new(g, None)));
        sim.run_until(SimTime::from_secs(120));
        // The reader must have received the writer's state via poll + push.
        let received = sim
            .with_process::<Component, _>(reader, |c| c.received.clone())
            .unwrap();
        assert!(
            !received.is_empty(),
            "reader should have been pushed fresh state"
        );
        let writer_byte = writer.0 as u8;
        assert!(received
            .iter()
            .all(|(s, b)| *s == STYPE && b.data == vec![writer_byte]));
        // Versions arrive in increasing order.
        let versions: Vec<u64> = received.iter().map(|(_, b)| b.version).collect();
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        assert_eq!(versions, sorted);
    }

    #[test]
    fn gossip_pool_forms_clique_and_shares_state() {
        let (net, hosts, hids) = world(5);
        let mut sim = Sim::new(net, hosts, 7);
        // Three gossips: g0 is well-known; g1 and g2 announce to it.
        let g0 = sim.spawn(
            "g0",
            hids[0],
            Box::new(GossipServer::new(GossipConfig::default(), vec![])),
        );
        let wk = vec![g0.0 as u64];
        let g1 = sim.spawn(
            "g1",
            hids[1],
            Box::new(GossipServer::new(GossipConfig::default(), wk.clone())),
        );
        let g2 = sim.spawn(
            "g2",
            hids[2],
            Box::new(GossipServer::new(GossipConfig::default(), wk)),
        );
        // Writer registers with g1; reader registers with g2.
        let writer = sim.spawn(
            "writer",
            hids[3],
            Box::new(Component::new(g1, Some(SimDuration::from_secs(20)))),
        );
        let reader = sim.spawn("reader", hids[4], Box::new(Component::new(g2, None)));
        sim.run_until(SimTime::from_secs(400));
        // The pool must have merged into one clique of three.
        for g in [g0, g1, g2] {
            let members = sim
                .with_process::<GossipServer, _>(g, |s| s.clique_members())
                .unwrap();
            assert_eq!(
                members,
                vec![g0.0 as u64, g1.0 as u64, g2.0 as u64],
                "gossip {g:?} sees the full pool"
            );
        }
        // Cross-gossip state flow: reader hears the writer's state even
        // though they registered with different Gossips.
        let received = sim
            .with_process::<Component, _>(reader, |c| c.received.clone())
            .unwrap();
        assert!(!received.is_empty(), "state must cross the gossip pool");
        let writer_byte = writer.0 as u8;
        assert!(received.iter().all(|(_, b)| b.data == vec![writer_byte]));
    }

    #[test]
    fn partition_splits_clique_and_merge_heals() {
        let mut net = NetModel::new(0.05);
        let mut hosts = HostTable::new();
        let mut hids = Vec::new();
        let mut sites = Vec::new();
        for i in 0..3 {
            let site = net.add_site(SiteSpec::simple(
                &format!("site{i}"),
                SimDuration::from_millis(15),
                1.25e6,
                0.0,
            ));
            sites.push(site);
            hids.push(hosts.add(HostSpec::dedicated(&format!("h{i}"), site, 1e8)));
        }
        // Cut site 2 off from everything between t=600 and t=900.
        net.add_partition(Partition {
            a: sites[2],
            b: None,
            from: SimTime::from_secs(600),
            until: SimTime::from_secs(900),
        });
        let mut sim = Sim::new(net, hosts, 11);
        let g0 = sim.spawn(
            "g0",
            hids[0],
            Box::new(GossipServer::new(GossipConfig::default(), vec![])),
        );
        let wk = vec![g0.0 as u64];
        let g1 = sim.spawn(
            "g1",
            hids[1],
            Box::new(GossipServer::new(GossipConfig::default(), wk.clone())),
        );
        let g2 = sim.spawn(
            "g2",
            hids[2],
            Box::new(GossipServer::new(GossipConfig::default(), wk)),
        );
        let full: Vec<u64> = vec![g0.0 as u64, g1.0 as u64, g2.0 as u64];

        // Phase 1: clique forms.
        sim.run_until(SimTime::from_secs(500));
        for g in [g0, g1, g2] {
            assert_eq!(
                sim.with_process::<GossipServer, _>(g, |s| s.clique_members())
                    .unwrap(),
                full,
                "pre-partition clique"
            );
        }

        // Phase 2: partition; the majority side should shed g2 and g2
        // should fall back to (at most) itself.
        sim.run_until(SimTime::from_secs(890));
        let side_a = sim
            .with_process::<GossipServer, _>(g0, |s| s.clique_members())
            .unwrap();
        assert!(
            !side_a.contains(&(g2.0 as u64)),
            "majority side must have expelled the unreachable member, got {side_a:?}"
        );
        let side_b = sim
            .with_process::<GossipServer, _>(g2, |s| s.clique_members())
            .unwrap();
        assert_eq!(side_b, vec![g2.0 as u64], "isolated member is a singleton");

        // Phase 3: heal; merge probing reunites the pool.
        sim.run_until(SimTime::from_secs(1500));
        for g in [g0, g1, g2] {
            assert_eq!(
                sim.with_process::<GossipServer, _>(g, |s| s.clique_members())
                    .unwrap(),
                full,
                "post-heal clique"
            );
        }
        assert!(sim.metrics().counter("clique.elections") >= 1.0);
        assert!(sim.metrics().counter("clique.merges") >= 1.0);
    }

    #[test]
    fn static_timeouts_misjudge_under_load_dynamic_do_not() {
        // The §2.2 ablation in miniature: a slow component (loaded site)
        // answers polls in ~8s. A 2s static time-out misjudges every poll;
        // the forecast-driven policy adapts after a few samples.
        let run = |static_to: Option<SimDuration>| {
            let mut net = NetModel::new(0.0);
            let fast = net.add_site(SiteSpec::simple(
                "fast",
                SimDuration::from_millis(10),
                1.25e6,
                0.0,
            ));
            let slow = net.add_site(SiteSpec::simple(
                "slow",
                SimDuration::from_secs(4), // 4s each way: ~8s RTT
                1.25e6,
                0.0,
            ));
            let mut hosts = HostTable::new();
            let hg = hosts.add(HostSpec::dedicated("hg", fast, 1e8));
            let hc = hosts.add(HostSpec::dedicated("hc", slow, 1e8));
            let mut sim = Sim::new(net, hosts, 5);
            let cfg = GossipConfig {
                static_timeouts: static_to,
                ..GossipConfig::default()
            };
            let g = sim.spawn("g", hg, Box::new(GossipServer::new(cfg, vec![])));
            let _c = sim.spawn(
                "c",
                hc,
                Box::new(Component::new(g, Some(SimDuration::from_secs(30)))),
            );
            sim.run_until(SimTime::from_secs(600));
            sim.with_process::<GossipServer, _>(g, |s| (s.polls_ok, s.polls_timed_out))
                .unwrap()
        };
        let (static_ok, static_to) = run(Some(SimDuration::from_secs(2)));
        let (dyn_ok, dyn_to) = run(None);
        assert!(
            static_to > 10 && static_ok == 0,
            "2s static timeout must misjudge the 8s server: ok={static_ok} to={static_to}"
        );
        assert!(
            dyn_ok > 10,
            "dynamic timeouts must adapt and succeed: ok={dyn_ok} to={dyn_to}"
        );
        assert!(
            dyn_to <= 2,
            "at most the first pre-history polls may expire"
        );
    }
}
