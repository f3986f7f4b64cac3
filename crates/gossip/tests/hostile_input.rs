//! Hostile input on the gossip and clique bodies: all nine must answer
//! arbitrary, truncated and mutated bytes with `Ok` or `Err`, never a panic,
//! and never size an allocation from a length field alone — including the
//! nested vectors of `SyncBody`.

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_gossip::messages::{
    Announce, Election, MergeProbe, Poll, Register, StateCarrier, SyncBody, Token, TypeRegistration,
};
use ew_gossip::VersionedBlob;
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
