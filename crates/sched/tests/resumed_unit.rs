//! A unit whose holder went silent is not forgotten. SC98 clients
//! checkpoint, so a unit most likely comes back when a new client on the
//! returning host resumes it, under a new address and long after the last
//! report. The scheduler purges the silent client's record after 600 s, but
//! keeps the unit: the resumed report is matched and answered `Continue`.

use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::{Packet, WireEncode};
use ew_sched::messages::DirectiveKind;
use ew_sched::{scm, Directive, ProgressReport, SchedulerConfig, SchedulerServer};
use ew_sim::{Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration};
use ew_sim::{SimTime, SiteSpec};
use ew_workload::WorkResult;

/// One request of a [`Script`]; the client address is the sender's pid.
#[derive(Clone, Copy)]
enum Request {
    GetWork,
    Report { unit: u64, progress: u64 },
    Result { unit: u64 },
}

/// Sends its requests one at a time, each `wait` after the previous reply
/// (or after `Started`), and keeps the replies.
struct Script {
    sched: ProcessId,
    steps: Vec<(SimDuration, Request)>,
    replies: Vec<Packet>,
}

impl Script {
    fn new(sched: ProcessId, steps: Vec<(SimDuration, Request)>) -> Box<Self> {
        Box::new(Script {
            sched,
            steps,
            replies: Vec::new(),
        })
    }

    fn send(&self, ctx: &mut Ctx<'_>, request: Request) {
        let client = u64::from(ctx.me().0);
        let (mtype, body) = match request {
            Request::GetWork => (scm::GET_WORK, Vec::new()),
            Request::Report { unit, progress } => {
                let report = ProgressReport {
                    client,
                    unit_id: unit,
                    steps_done: 0,
                    ops_done: 0,
                    progress,
                    rate: 1e6,
                    carry: Vec::new(),
                    infra: "unix".into(),
                };
                (scm::REPORT, report.to_wire())
            }
            Request::Result { unit } => {
                let result = WorkResult {
                    unit_id: unit,
                    ..WorkResult::default()
                };
                (scm::RESULT, result.to_wire())
            }
        };
        let corr = self.replies.len() as u64;
        send_packet(ctx, self.sched, &Packet::request(mtype, corr, body));
    }
}

impl Process for Script {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
            self.replies.push(pkt);
        } else if let Event::Timer { .. } = ev {
            let (_, request) = self.steps[self.replies.len()];
            self.send(ctx, request);
            return;
        } else if !matches!(ev, Event::Started) {
            return;
        }
        if let Some(&(wait, _)) = self.steps.get(self.replies.len()) {
            ctx.set_timer(wait, self.replies.len() as u64);
        }
    }
}

fn directive(reply: &Packet) -> u8 {
    reply.body::<Directive>().expect("a directive").kind
}

/// A REPORT on `unit` with objective `progress`.
fn report(unit: u64, progress: u64) -> Request {
    Request::Report { unit, progress }
}

#[test]
fn a_resumed_unit_is_matched_after_its_holder_was_purged() {
    let mut net = NetModel::new(0.0);
    let mut hosts = HostTable::new();
    let link = SimDuration::from_millis(5);
    let site = net.add_site(SiteSpec::simple("s", link, 1.25e6, 0.0));
    let h = hosts.add(HostSpec::dedicated("h", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    let scheduler = SchedulerServer::new(SchedulerConfig::default());
    let sched = sim.spawn("sched", h, Box::new(scheduler));
    let (now, secs) = (SimDuration::ZERO, SimDuration::from_secs);
    // The holder takes unit 1, reports once, and falls silent.
    let holder = vec![(now, Request::GetWork), (now, report(1, 100))];
    sim.spawn("holder", h, Script::new(sched, holder));
    // From t = 700 s, 256 reports on an unknown unit: the 256th report
    // since the start purges every client silent for more than 600 s.
    let mut chatter = vec![(secs(700), report(99, 0))];
    chatter.extend(vec![(now, report(99, 0)); 255]);
    sim.spawn("chatter", h, Script::new(sched, chatter));
    // At t = 800 s a new client resumes unit 1 and finishes it.
    let resumer = vec![
        (secs(800), report(1, 90)),
        (now, Request::Result { unit: 1 }),
    ];
    let resumer = sim.spawn("resumer", h, Script::new(sched, resumer));
    sim.run_until(SimTime::from_secs(900));

    let replies = sim
        .with_process::<Script, _>(resumer, |s| s.replies.clone())
        .unwrap();
    assert_eq!(replies.len(), 2, "both requests are answered");
    assert_eq!(directive(&replies[0]), DirectiveKind::Continue.wire_id());
    let units = sim
        .with_process::<SchedulerServer, _>(sched, |s| s.units())
        .unwrap();
    assert_eq!(sim.metrics().counter("sched.reports"), 258.0);
    // Only the chatter's reports were unknown; unit 1 completed here.
    assert_eq!(units.unknown_reports, 256);
    assert_eq!((units.issued, units.results, units.illegal), (1, 1, 0));
    assert_eq!((units.migrations, units.held), (0, 0));
}
