//! The distributed logging service.
//!
//! "Scheduling servers base their decisions, in part, on performance
//! information they receive from each computational client. Before the
//! information is discarded, it is forwarded to a logging server so that it
//! can be recorded. Having a separate service allows us to limit and
//! control the storage load generated by the application" (§3.1.3).
//! [`LogServer`] receives every record and counts it (`log.records`), and
//! stores none: nothing in the reproduction reads the records back, so the
//! storage load it controls is zero. The LOG messages themselves still
//! travel, and so stay in the event order and the network counters.

use ew_proto::sim_net::packet_from_event;
use ew_sim::{CounterId, Ctx, Event, Process};

use crate::messages::{sm, LogRecord};

/// The logging service process.
#[derive(Default)]
pub struct LogServer {
    records_id: Option<CounterId>,
}

impl Process for LogServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            self.records_id = Some(ctx.counter("log.records"));
            return;
        }
        if let Some(Ok((_from, pkt))) = packet_from_event(&ev) {
            if pkt.mtype == sm::LOG {
                let id = match pkt.body::<LogRecord>() {
                    Ok(_) => self.records_id.expect("started"),
                    // A record that does not decode, a NaN or ±∞ value
                    // included, is no measurement. Interned on first
                    // refusal, so a clean run's counter list
                    // (`results/health.json`) carries no row for it.
                    Err(_) => ctx.counter("log.records_bad"),
                };
                ctx.inc(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_proto::sim_net::send_packet;
    use ew_proto::{Packet, WireEncode};
    use ew_sim::{HostSpec, HostTable, NetModel, ProcessId, Sim, SimDuration, SimTime, SiteSpec};

    /// Sends one `perf` record per value to a log server.
    struct Sender {
        server: ProcessId,
        values: Vec<f64>,
    }

    impl Process for Sender {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::Started = ev {
                for &value in &self.values {
                    let rec = LogRecord {
                        source: 1,
                        category: "perf".into(),
                        text: String::new(),
                        value,
                    };
                    send_packet(
                        ctx,
                        self.server,
                        &Packet::oneway(sm::LOG, rec.to_wire_payload()),
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_values_are_refused_at_the_wire() {
        let mut net = NetModel::new(0.05);
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(1),
            1.25e6,
            0.0,
        ));
        let mut hosts = HostTable::new();
        let h = hosts.add(HostSpec::dedicated("h", site, 1e8));
        let mut sim = Sim::new(net, hosts, 1);
        let server = sim.spawn("log", h, Box::<LogServer>::default());
        let values = vec![1.0, f64::NAN, 2.0, f64::INFINITY, f64::NEG_INFINITY, 3.0];
        sim.spawn("sender", h, Box::new(Sender { server, values }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("log.records_bad"), 3.0);
        assert_eq!(
            sim.metrics().counter("log.records"),
            3.0,
            "only the finite values are counted"
        );
    }
}
