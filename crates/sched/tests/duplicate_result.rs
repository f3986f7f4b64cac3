//! A RESULT the scheduler has already seen completes nothing the second
//! time: its unit table refuses the edge and counts it, while the result
//! itself is still credited (deduplication is a conservation fix that would
//! move every fingerprint, so it has not been made).

use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::{Packet, WireEncode};
use ew_sched::{scm, SchedulerConfig, SchedulerServer, WorkGrant};
use ew_sim::{Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration};
use ew_sim::{SimTime, SiteSpec};
use ew_workload::WorkResult;

/// Sends its requests to the scheduler one at a time, each after the
/// previous one's reply, and keeps the replies.
struct Requester {
    sched: ProcessId,
    requests: Vec<(u16, Vec<u8>)>,
    replies: Vec<Packet>,
}

impl Process for Requester {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
            self.replies.push(pkt);
        } else if !matches!(ev, Event::Started) {
            return;
        }
        if let Some((mtype, body)) = self.requests.get(self.replies.len()) {
            let corr = self.replies.len() as u64;
            let request = Packet::request(*mtype, corr, body.clone());
            send_packet(ctx, self.sched, &request);
        }
    }
}

#[test]
fn a_duplicate_result_completes_once_and_counts_illegal() {
    let mut net = NetModel::new(0.0);
    let mut hosts = HostTable::new();
    let link = SimDuration::from_millis(5);
    let site = net.add_site(SiteSpec::simple("s", link, 1.25e6, 0.0));
    let h = hosts.add(HostSpec::dedicated("h", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    let scheduler = SchedulerServer::new(SchedulerConfig::default());
    let sched = sim.spawn("sched", h, Box::new(scheduler));
    // Unit ids count from 1, so the one grant below is unit 1.
    let result = WorkResult {
        unit_id: 1,
        artifact: vec![1, 2],
        ..WorkResult::default()
    };
    let requester = Requester {
        sched,
        requests: vec![
            (scm::GET_WORK, Vec::new()),
            (scm::RESULT, result.to_wire()),
            (scm::RESULT, result.to_wire()),
        ],
        replies: Vec::new(),
    };
    let client = sim.spawn("client", h, Box::new(requester));
    sim.run_until(SimTime::from_secs(10));

    let replies = sim.with_process::<Requester, _>(client, |r| r.replies.len());
    assert_eq!(replies, Some(3), "every request is answered");
    let grant = sim
        .with_process::<Requester, _>(client, |r| r.replies[0].body::<WorkGrant>())
        .unwrap()
        .expect("a grant");
    assert_eq!((grant.granted, grant.unit.id), (true, 1));
    let units = sim
        .with_process::<SchedulerServer, _>(sched, |s| s.units())
        .unwrap();
    // One completion: issued 1 = (results 2 - illegal 1) + nothing held.
    assert_eq!((units.issued, units.results, units.illegal), (1, 2, 1));
    assert_eq!(units.artifacts, 2);
    assert_eq!(sim.metrics().counter("sched.lifecycle_illegal"), 1.0);
    // Both copies are credited.
    assert_eq!(sim.metrics().counter("sched.results"), 2.0);
}
