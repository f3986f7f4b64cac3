//! Message relays: the Legion translator and the NetSolve agent.
//!
//! "To communicate with the other infrastructures, we implemented a
//! translator object for the lingua franca ... it gave us a single
//! monitoring point for all messages headed to and from Legion application
//! components" (§5.3). NetSolve similarly brokers access: "Computational
//! servers communicate their capabilities to brokering agents. Application
//! clients gain access to remote services through a strongly typed
//! procedural interface" (§5.7). Both are the same shape on the wire: a
//! process that forwards requests to an upstream server and routes the
//! responses back, re-correlating ids. [`Relay`] implements that shape; the
//! pool builders instantiate it once per Legion/NetSolve site.

use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_sim::hashers::FxHashMap;
use ew_sim::{CounterId, Ctx, Event, Process, ProcessId};

/// A request-forwarding relay.
pub struct Relay {
    /// Label for metrics ("legion-translator", "netsolve-agent").
    pub label: String,
    upstreams: Vec<u64>,
    next_upstream: usize,
    next_corr: u64,
    /// my_corr → (original requester, their corr id).
    pending: FxHashMap<u64, (ProcessId, u64)>,
    /// Requests forwarded.
    pub forwarded: u64,
    /// Responses routed back.
    pub returned: u64,
    forwarded_id: Option<CounterId>,
}

impl Relay {
    /// A relay forwarding to the given upstream addresses (round-robin).
    pub fn new(label: &str, upstreams: Vec<u64>) -> Self {
        assert!(!upstreams.is_empty(), "relay needs at least one upstream");
        Relay {
            label: label.to_string(),
            upstreams,
            next_upstream: 0,
            next_corr: 1,
            pending: FxHashMap::default(),
            forwarded: 0,
            returned: 0,
            forwarded_id: None,
        }
    }

    /// Requests currently awaiting an upstream response.
    #[cfg(test)]
    fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

impl Process for Relay {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            self.forwarded_id = Some(ctx.counter(&format!("relay.{}.forwarded", self.label)));
            return;
        }
        let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
            return;
        };
        if pkt.is_request() {
            // Downstream request: re-correlate and forward upstream.
            let my_corr = self.next_corr;
            self.next_corr += 1;
            self.pending.insert(my_corr, (from, pkt.corr_id));
            let upstream = self.upstreams[self.next_upstream % self.upstreams.len()];
            self.next_upstream += 1;
            let mut fwd = pkt.clone();
            fwd.corr_id = my_corr;
            send_packet(ctx, ProcessId(upstream as u32), &fwd);
            self.forwarded += 1;
            let id = self.forwarded_id.expect("started");
            ctx.inc(id);
        } else if pkt.is_response() {
            // Upstream response: restore correlation, route back.
            if let Some((requester, their_corr)) = self.pending.remove(&pkt.corr_id) {
                let mut back = pkt.clone();
                back.corr_id = their_corr;
                send_packet(ctx, requester, &back);
                self.returned += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_ramsey::RamseyProblem;
    use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig, SchedulerServer};
    use ew_sim::{HostSpec, HostTable, NetModel, Sim, SimDuration, SimTime, SiteSpec};
    use ew_workload::WorkloadSpec;

    #[test]
    fn clients_work_through_a_relay() {
        let mut net = NetModel::new(0.05);
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let mut hosts = HostTable::new();
        let h0 = hosts.add(HostSpec::dedicated("sched", site, 1e8));
        let h1 = hosts.add(HostSpec::dedicated("relay", site, 1e8));
        let h2 = hosts.add(HostSpec::dedicated("client", site, 1e8));
        let mut sim = Sim::new(net, hosts, 21);
        let s = sim.spawn(
            "sched",
            h0,
            Box::new(SchedulerServer::new(SchedulerConfig {
                workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
                step_budget: 1_000,
                ..SchedulerConfig::default()
            })),
        );
        let r = sim.spawn(
            "translator",
            h1,
            Box::new(Relay::new("legion-translator", vec![s.0 as u64])),
        );
        // The client only knows the translator, exactly as Legion
        // components only spoke through theirs.
        let c = sim.spawn(
            "client",
            h2,
            Box::new(ComputeClient::new(ClientConfig {
                schedulers: vec![r.0 as u64],
                chunk_ops: 10_000_000,
                ops_per_step: 100_000,
                infra: "legion".into(),
                ..ClientConfig::default()
            })),
        );
        sim.run_until(SimTime::from_secs(300));
        let units = sim
            .with_process::<ComputeClient, _>(c, |c| c.units_completed)
            .unwrap();
        assert!(
            units > 10,
            "relay must be transparent to the client: {units}"
        );
        let (fwd, ret, pending) = sim
            .with_process::<Relay, _>(r, |r| (r.forwarded, r.returned, r.pending_count()))
            .unwrap();
        assert!(fwd > 0 && ret > 0);
        assert!(ret <= fwd);
        assert!(
            pending < 10,
            "correlation table must drain, {pending} still pending"
        );
        // The scheduler saw the work as coming from the relay's address —
        // the single monitoring point of §5.3.
        let results = sim
            .with_process::<SchedulerServer, _>(s, |s| s.units().results)
            .unwrap();
        assert!(results > 0);
    }
}
