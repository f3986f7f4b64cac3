//! Hostile input on the gossip and clique bodies: all nine must answer
//! arbitrary, truncated and mutated bytes with `Ok` or `Err`, never a panic,
//! and never size an allocation from a length field alone — including the
//! nested vectors of `SyncBody`. And a decoded address is still outside
//! input: one that does not fit a process id must reach no process.

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_gossip::messages::{
    gm, Announce, Election, MergeProbe, Poll, Register, StateCarrier, SyncBody, Token,
    TypeRegistration,
};
use ew_gossip::{GossipConfig, GossipServer, VersionedBlob};
use ew_proto::sim_net::send_packet;
use ew_proto::{Packet, WireEncode};
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration, SimTime,
    SiteSpec,
};
use hostile_wire::{batter, blob, garbage};
use proptest::collection::vec;
use proptest::prelude::*;

fn registration() -> impl Strategy<Value = TypeRegistration> {
    (any::<u16>(), any::<u8>())
        .prop_map(|(stype, comparator)| TypeRegistration { stype, comparator })
}

fn register() -> impl Strategy<Value = Register> {
    (any::<u64>(), vec(registration(), 0..4)).prop_map(|(addr, types)| Register { addr, types })
}

fn carrier() -> impl Strategy<Value = StateCarrier> {
    (any::<u16>(), any::<u64>(), blob()).prop_map(|(stype, version, data)| StateCarrier {
        stype,
        blob: VersionedBlob::new(version, data),
    })
}

proptest! {
    #[test]
    fn gossip_bodies_survive_hostile_bytes(
        reg in register(),
        state in carrier(),
        sync in (any::<u64>(), vec(carrier(), 0..3), vec(register(), 0..3), vec(any::<u64>(), 0..5)),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (from_addr, states, registrations, peers) = sync;
        if let Some(t) = reg.types.first() {
            batter(t, &noise, flip)?;
        }
        batter(&Poll { stype: state.stype }, &noise, flip)?;
        batter(&reg, &noise, flip)?;
        batter(&state, &noise, flip)?;
        batter(&Announce { addr: from_addr, known: peers.clone() }, &noise, flip)?;
        batter(&SyncBody { from_addr, states, registrations, peers: peers.clone() }, &noise, flip)?;
    }

    #[test]
    fn clique_bodies_survive_hostile_bytes(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        members in vec(any::<u64>(), 0..8),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (generation, leader, seq) = ids;
        batter(&Token { generation, leader, members: members.clone(), seq }, &noise, flip)?;
        batter(&Election { caller: leader, generation }, &noise, flip)?;
        batter(&MergeProbe { leader, generation, members }, &noise, flip)?;
    }
}

/// Stands in for a non-Gossip service (a scheduler, say) and counts what
/// reaches it.
struct Victim {
    received: usize,
}

impl Process for Victim {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: Event) {
        if matches!(ev, Event::Message { .. }) {
            self.received += 1;
        }
    }
}

/// Announces itself to every Gossip with a `known` list naming `alias`.
struct Attacker {
    gossips: Vec<ProcessId>,
    alias: u64,
}

impl Process for Attacker {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if matches!(ev, Event::Started) {
            let body = Announce {
                addr: ctx.me().0 as u64,
                known: vec![self.alias],
            };
            for &g in &self.gossips {
                send_packet(
                    ctx,
                    g,
                    &Packet::oneway(gm::ANNOUNCE, body.to_wire_payload()),
                );
            }
        }
    }
}

#[test]
fn announced_address_above_u32_reaches_no_process() {
    let mut net = NetModel::new(0.0);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(10),
        1.25e6,
        0.0,
    ));
    let mut hosts = HostTable::new();
    let host = hosts.add(HostSpec::dedicated("h", site, 1e8));
    let mut sim = Sim::new(net, hosts, 11);
    let victim = sim.spawn("victim", host, Box::new(Victim { received: 0 }));
    let g0 = sim.spawn(
        "g0",
        host,
        Box::new(GossipServer::new(GossipConfig::default(), vec![])),
    );
    let wk = vec![g0.0 as u64];
    let g1 = sim.spawn(
        "g1",
        host,
        Box::new(GossipServer::new(GossipConfig::default(), wk)),
    );
    let attacker = Attacker {
        gossips: vec![g0, g1],
        alias: (1 << 32) | victim.0 as u64,
    };
    sim.spawn("attacker", host, Box::new(attacker));
    sim.run_until(SimTime::from_secs(600));

    let received = sim
        .with_process::<Victim, _>(victim, |v| v.received)
        .unwrap();
    assert_eq!(
        received, 0,
        "an aliased address must not deliver Gossip traffic"
    );
    assert!(sim.metrics().counter("net.send_to_unknown") > 0.0);
}
