//! Lingua franca over the simulated kernel.
//!
//! Inside `ew-sim`, the kernel already delivers whole records, so packets
//! skip the magic/CRC framing and ride `Event::Message` directly: the
//! simulator's `mtype` field carries the packet's message type and the
//! payload carries flags + correlation + body
//! ([`Packet::to_sim_payload`]). The shared seam is the packet layer: the
//! same [`Packet`] type, message types and wire bodies travel here and on
//! real TCP ([`crate::tcp`]), where the framed stream form carries them.
//! The service processes themselves are simulator processes; the live run
//! (`everyware::live`) drives its own scheduler and worker loops over TCP.

use ew_sim::{Ctx, Event, ProcessId};

use crate::packet::{Packet, PacketError};

/// Send a packet to a simulated process.
pub fn send_packet(ctx: &mut Ctx<'_>, to: ProcessId, pkt: &Packet) {
    ctx.send(to, pkt.mtype as u32, pkt.to_sim_payload());
}

/// Send one packet to many peers, serializing it exactly once: every
/// in-flight copy shares the same buffer (the kernel counts the dodged
/// copies in `net.bytes_copy_saved`). The workhorse of gossip fan-out.
pub fn broadcast_packet<I>(ctx: &mut Ctx<'_>, peers: I, pkt: &Packet)
where
    I: IntoIterator<Item = ProcessId>,
{
    let wire = pkt.to_sim_payload();
    for to in peers {
        ctx.send(to, pkt.mtype as u32, wire.clone());
    }
}

/// Reconstruct a packet from a simulator message event. Returns `None` for
/// non-message events.
pub fn packet_from_event(ev: &Event) -> Option<Result<(ProcessId, Packet), PacketError>> {
    match ev {
        Event::Message {
            from,
            mtype,
            payload,
        } => Some(Packet::from_sim_payload(*mtype as u16, payload).map(|p| (*from, p))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::{HostSpec, HostTable, NetModel, Process, Sim, SimDuration, SimTime, SiteSpec};

    struct Responder {
        seen: Vec<Packet>,
    }
    impl Process for Responder {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Some(Ok((from, pkt))) = packet_from_event(&ev) {
                self.seen.push(pkt.clone());
                if pkt.is_request() {
                    send_packet(ctx, from, &Packet::response_to(&pkt, b"done".to_vec()));
                }
            }
        }
    }

    struct Requester {
        peer: ProcessId,
        response: Option<Packet>,
    }
    impl Process for Requester {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match &ev {
                Event::Started => {
                    let req = Packet::request(0x1001, 77, b"compute".to_vec());
                    send_packet(ctx, self.peer, &req);
                }
                _ => {
                    if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
                        self.response = Some(pkt);
                    }
                }
            }
        }
    }

    #[test]
    fn request_response_over_simulator() {
        let mut net = NetModel::new(0.0);
        let s = net.add_site(SiteSpec::simple("s", SimDuration::from_millis(5), 1e6, 0.0));
        let mut hosts = HostTable::new();
        let h = hosts.add(HostSpec::dedicated("h", s, 1e6));
        let mut sim = Sim::new(net, hosts, 1);
        let server = sim.spawn("server", h, Box::new(Responder { seen: vec![] }));
        let client = sim.spawn(
            "client",
            h,
            Box::new(Requester {
                peer: server,
                response: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let resp = sim
            .with_process::<Requester, _>(client, |r| r.response.clone())
            .unwrap()
            .expect("response arrived");
        assert!(resp.is_response());
        assert_eq!(resp.corr_id, 77);
        assert_eq!(resp.mtype, 0x1001);
        assert_eq!(resp.payload, b"done");
        let seen = sim
            .with_process::<Responder, _>(server, |r| r.seen.clone())
            .unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen[0].is_request());
    }

    #[test]
    fn non_message_events_pass_through() {
        assert!(packet_from_event(&Event::Started).is_none());
        assert!(packet_from_event(&Event::Timer { tag: 1 }).is_none());
    }
}
