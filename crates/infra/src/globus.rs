//! The Globus subsystems of §5.2: MDS, GRAM, GASS, and the light switch.
//!
//! "The Ramsey Number Search application uses the process control/creation
//! (via the Globus Resource Allocation Manager), persistent storage (via
//! the Global Access to Secondary Storage), and metacomputing directory
//! services from the Globus toolkit. This *light switch* abstraction hides
//! much of the complexity..." (§5.2, Figure 5).
//!
//! * [`MdsDirectory`] — the Metacomputing Directory Service: gatekeepers
//!   register `(contact, architecture, free nodes)` records; the light
//!   switch queries it for candidate execution sites.
//! * [`GassServer`] — the binary repository: "a repository for pre-compiled
//!   computational client binary images for various platforms"; fetches are
//!   real bulk transfers through the network model, so a slow link makes
//!   invocation visibly slower.
//! * [`Gatekeeper`] — GRAM: authenticates a request (the paper's
//!   lightweight *authenticate-only* operation is a separate message),
//!   fetches the right binary through GASS ("the gatekeeper as a grappling
//!   hook onto the machine"), and launches the client.
//! * [`LightSwitch`] — the single point of control: one request turns the
//!   whole Globus resource set on (discover → authenticate → submit) or
//!   off.

use std::collections::HashMap;

use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::wire_struct;
use ew_proto::{mtype, Packet, WireEncode};
use ew_sched::{ClientConfig, ComputeClient};
use ew_sim::{CounterId, Ctx, Event, HostId, Process, ProcessId, SimDuration};

/// Globus-model message types (application block: these are EveryWare's
/// *models* of Globus services, not EveryWare core services).
pub mod gb {
    use super::mtype;
    /// Register a gatekeeper with the MDS (one-way).
    pub const MDS_REGISTER: u16 = mtype::APP_BASE + 0x20;
    /// Query the MDS for execution candidates (request).
    pub const MDS_QUERY: u16 = mtype::APP_BASE + 0x21;
    /// Authenticate-only probe of a gatekeeper (request; §5.2's
    /// "relatively lightweight, authenticate-only operation").
    pub const GRAM_AUTH: u16 = mtype::APP_BASE + 0x22;
    /// Submit a job to a gatekeeper (request).
    pub const GRAM_SUBMIT: u16 = mtype::APP_BASE + 0x23;
    /// Fetch a binary image from a GASS server (request).
    pub const GASS_FETCH: u16 = mtype::APP_BASE + 0x24;
}

/// One MDS resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MdsRecord {
    /// Gatekeeper contact address.
    pub contact: u64,
    /// Architecture label ("sparc-solaris", "i686-linux", …) used to pick
    /// the right GASS binary.
    pub arch: String,
    /// Free nodes behind the gatekeeper.
    pub free_nodes: u32,
}

wire_struct!(MdsRecord {
    contact,
    arch,
    free_nodes
});

/// MDS query reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MdsReply {
    /// All registered records.
    pub records: Vec<MdsRecord>,
}

wire_struct!(MdsReply { records });

/// GRAM submit body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GramSubmit {
    /// Credential string (checked against the gatekeeper's ACL).
    pub credential: String,
    /// Requested node count.
    pub nodes: u32,
}

wire_struct!(GramSubmit { credential, nodes });

/// GASS fetch body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GassFetch {
    /// Binary name, typically the architecture label.
    pub name: String,
}

wire_struct!(GassFetch { name });

/// The Metacomputing Directory Service.
pub struct MdsDirectory {
    records: HashMap<u64, MdsRecord>,
    /// Queries served.
    pub queries: u64,
}

impl Default for MdsDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl MdsDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        MdsDirectory {
            records: HashMap::new(),
            queries: 0,
        }
    }

    /// Registered record count.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

impl Process for MdsDirectory {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
            return;
        };
        match pkt.mtype {
            gb::MDS_REGISTER => {
                if let Ok(rec) = pkt.body::<MdsRecord>() {
                    self.records.insert(rec.contact, rec);
                }
            }
            gb::MDS_QUERY if pkt.is_request() => {
                self.queries += 1;
                let mut records: Vec<MdsRecord> = self.records.values().cloned().collect();
                records.sort_by_key(|r| r.contact);
                let reply = MdsReply { records };
                send_packet(ctx, from, &Packet::response_to(&pkt, reply.to_wire()));
            }
            _ => {}
        }
    }
}

/// The GASS binary repository.
pub struct GassServer {
    /// Shared buffers: every fetch response aliases the stored image
    /// instead of deep-copying it.
    binaries: HashMap<String, ew_proto::Payload>,
    /// Fetches served.
    pub fetches: u64,
    fetches_id: Option<CounterId>,
}

impl GassServer {
    /// A repository preloaded with named binaries.
    pub fn new(binaries: Vec<(String, Vec<u8>)>) -> Self {
        GassServer {
            binaries: binaries.into_iter().map(|(n, b)| (n, b.into())).collect(),
            fetches: 0,
            fetches_id: None,
        }
    }
}

impl Process for GassServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            self.fetches_id = Some(ctx.counter("globus.gass_fetches"));
            return;
        }
        let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
            return;
        };
        if pkt.mtype == gb::GASS_FETCH && pkt.is_request() {
            if let Ok(req) = pkt.body::<GassFetch>() {
                match self.binaries.get(&req.name) {
                    Some(image) => {
                        self.fetches += 1;
                        let id = self.fetches_id.expect("started");
                        ctx.inc(id);
                        // The image itself crosses the network: invocation
                        // cost scales with binary size and link quality.
                        send_packet(ctx, from, &Packet::response_to(&pkt, image.clone()));
                    }
                    None => {
                        send_packet(
                            ctx,
                            from,
                            &Packet::error_to(&pkt, &format!("no binary {:?}", req.name)),
                        );
                    }
                }
            }
        }
    }
}

/// A GRAM gatekeeper fronting a set of compute nodes.
pub struct Gatekeeper {
    /// This site's architecture label.
    pub arch: String,
    /// Accepted credentials (the grid-mapfile).
    pub acl: Vec<String>,
    /// MDS to register with.
    pub mds: u64,
    /// GASS server holding binary images.
    pub gass: u64,
    /// Compute nodes behind this gatekeeper.
    pub nodes: Vec<HostId>,
    /// Certificate-verification latency per request.
    pub auth_delay: SimDuration,
    /// Client template for launched jobs.
    pub client_template: ClientConfig,
    running: Vec<ProcessId>,
    /// Pending submits waiting on a GASS fetch: corr id → (requester,
    /// their packet, nodes requested).
    pending_fetch: HashMap<u64, (ProcessId, Packet, u32)>,
    next_corr: u64,
    /// Jobs launched.
    pub launched: u64,
    /// Requests refused (bad credential / no nodes).
    pub refused: u64,
    tele: Option<GatekeeperTele>,
}

/// Interned metric handles, resolved once at `Started`.
#[derive(Clone, Copy)]
struct GatekeeperTele {
    refused: CounterId,
    launched: CounterId,
}

const TIMER_REGISTER: u64 = 1;
/// Auth-delay timers carry the pending packet index above this base.
const TIMER_AUTH_BASE: u64 = 1000;

impl Gatekeeper {
    /// A gatekeeper for `nodes` speaking `arch`.
    pub fn new(
        arch: &str,
        acl: Vec<String>,
        mds: u64,
        gass: u64,
        nodes: Vec<HostId>,
        auth_delay: SimDuration,
        client_template: ClientConfig,
    ) -> Self {
        Gatekeeper {
            arch: arch.to_string(),
            acl,
            mds,
            gass,
            nodes,
            auth_delay,
            client_template,
            running: Vec::new(),
            pending_fetch: HashMap::new(),
            next_corr: 1,
            launched: 0,
            refused: 0,
            tele: None,
        }
    }

    fn free_nodes(&self, ctx: &Ctx<'_>) -> u32 {
        let busy = self.running.iter().filter(|&&p| ctx.is_alive(p)).count();
        (self.nodes.len() - busy.min(self.nodes.len())) as u32
    }

    fn register(&self, ctx: &mut Ctx<'_>) {
        let rec = MdsRecord {
            contact: ctx.me().0 as u64,
            arch: self.arch.clone(),
            free_nodes: self.free_nodes(ctx),
        };
        send_packet(
            ctx,
            ProcessId(self.mds as u32),
            &Packet::oneway(gb::MDS_REGISTER, rec.to_wire()),
        );
    }

    /// Queued submits awaiting authentication (tag → request packet).
    fn handle_submit(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, pkt: Packet) {
        let Ok(submit) = pkt.body::<GramSubmit>() else {
            return;
        };
        if !self.acl.contains(&submit.credential) {
            self.refused += 1;
            ctx.inc(self.tele.expect("started").refused);
            send_packet(
                ctx,
                from,
                &Packet::error_to(&pkt, "credential not in grid-mapfile"),
            );
            return;
        }
        if self.free_nodes(ctx) < submit.nodes.max(1) {
            self.refused += 1;
            send_packet(
                ctx,
                from,
                &Packet::error_to(&pkt, "insufficient free nodes"),
            );
            return;
        }
        // Authentic and feasible: fetch the right binary through GASS
        // (the "grappling hook", §5.2), then launch on ComputeDone... the
        // fetch response drives the launch.
        let corr = self.next_corr;
        self.next_corr += 1;
        self.pending_fetch
            .insert(corr, (from, pkt, submit.nodes.max(1)));
        let fetch = GassFetch {
            name: self.arch.clone(),
        };
        send_packet(
            ctx,
            ProcessId(self.gass as u32),
            &Packet::request(gb::GASS_FETCH, corr, fetch.to_wire()),
        );
    }

    fn launch(&mut self, ctx: &mut Ctx<'_>, nodes: u32) -> u32 {
        let mut launched = 0;
        for &host in &self.nodes.clone() {
            if launched == nodes {
                break;
            }
            if !ctx.host_up(host) {
                continue;
            }
            let already = self
                .running
                .iter()
                .any(|&p| ctx.is_alive(p) && ctx.host_of(p) == Some(host));
            if already {
                continue;
            }
            let mut cfg = self.client_template.clone();
            cfg.infra = "globus".into();
            let pid = ctx.spawn(
                &format!("gram-job-{}", self.launched),
                host,
                Box::new(ComputeClient::new(cfg)),
            );
            self.running.push(pid);
            self.launched += 1;
            launched += 1;
            ctx.inc(self.tele.expect("started").launched);
        }
        launched
    }
}

impl Process for Gatekeeper {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.tele = Some(GatekeeperTele {
                    refused: ctx.counter("globus.refused"),
                    launched: ctx.counter("globus.launched"),
                });
                self.register(ctx);
                ctx.set_timer(SimDuration::from_secs(60), TIMER_REGISTER);
            }
            Event::Timer { tag } => {
                if *tag == TIMER_REGISTER {
                    // Periodic re-registration keeps free_nodes current.
                    self.register(ctx);
                    ctx.set_timer(SimDuration::from_secs(60), TIMER_REGISTER);
                } else if *tag >= TIMER_AUTH_BASE {
                    // Deferred auth completion: the pending packet index.
                    let corr = *tag - TIMER_AUTH_BASE;
                    if let Some((from, pkt, _)) = self.pending_fetch.get(&corr) {
                        let (from, pkt) = (*from, pkt.clone());
                        send_packet(ctx, from, &Packet::response_to(&pkt, vec![1]));
                    }
                }
            }
            Event::Message { .. } => {
                let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
                    return;
                };
                match (pkt.mtype, pkt.is_request(), pkt.is_response()) {
                    (gb::GRAM_AUTH, true, _) => {
                        // Authenticate-only: certificate verification costs
                        // auth_delay before the answer goes out.
                        let ok = pkt
                            .body::<String>()
                            .map(|cred| self.acl.contains(&cred))
                            .unwrap_or(false);
                        if ok {
                            let corr = self.next_corr;
                            self.next_corr += 1;
                            self.pending_fetch.insert(corr, (from, pkt, 0));
                            ctx.set_timer(self.auth_delay, TIMER_AUTH_BASE + corr);
                        } else {
                            self.refused += 1;
                            send_packet(ctx, from, &Packet::error_to(&pkt, "not authorized"));
                        }
                    }
                    (gb::GRAM_SUBMIT, true, _) => self.handle_submit(ctx, from, pkt),
                    (gb::GASS_FETCH, _, true) => {
                        if let Some((requester, submit_pkt, nodes)) =
                            self.pending_fetch.remove(&pkt.corr_id)
                        {
                            if pkt.is_error() {
                                send_packet(
                                    ctx,
                                    requester,
                                    &Packet::error_to(&submit_pkt, "GASS fetch failed"),
                                );
                                return;
                            }
                            let launched = self.launch(ctx, nodes);
                            send_packet(
                                ctx,
                                requester,
                                &Packet::response_to(
                                    &submit_pkt,
                                    (launched, self.free_nodes(ctx)).to_wire(),
                                ),
                            );
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// The single point of control of §5.2: discover through the MDS,
/// authenticate against every gatekeeper, submit to the authorized ones.
pub struct LightSwitch {
    /// MDS address.
    pub mds: u64,
    /// Credential presented everywhere.
    pub credential: String,
    /// Nodes requested per gatekeeper.
    pub nodes_per_site: u32,
    /// Delay before flipping the switch on.
    pub start_after: SimDuration,
    state: SwitchState,
    /// Gatekeepers that accepted our submit, with launched counts.
    pub activated: Vec<(u64, u32)>,
    /// Gatekeepers that refused (authentication or capacity).
    pub refused: Vec<u64>,
    activated_id: Option<CounterId>,
}

enum SwitchState {
    Idle,
    Discovering,
    Driving { pending: Vec<u64> },
}

impl LightSwitch {
    /// A switch that activates the Globus resource set after `start_after`.
    pub fn new(mds: u64, credential: &str, nodes_per_site: u32, start_after: SimDuration) -> Self {
        LightSwitch {
            mds,
            credential: credential.to_string(),
            nodes_per_site,
            start_after,
            state: SwitchState::Idle,
            activated: Vec::new(),
            refused: Vec::new(),
            activated_id: None,
        }
    }
}

impl Process for LightSwitch {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.activated_id = Some(ctx.counter("globus.sites_activated"));
                ctx.set_timer(self.start_after, 1);
            }
            Event::Timer { .. } => {
                self.state = SwitchState::Discovering;
                send_packet(
                    ctx,
                    ProcessId(self.mds as u32),
                    &Packet::request(gb::MDS_QUERY, 1, vec![]),
                );
            }
            Event::Message { .. } => {
                let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
                    return;
                };
                if !pkt.is_response() {
                    return;
                }
                match pkt.mtype {
                    gb::MDS_QUERY => {
                        if let Ok(reply) = pkt.body::<MdsReply>() {
                            let mut pending = Vec::new();
                            for rec in reply.records {
                                // The lightweight authenticate-only check
                                // before committing to a submit (§5.2).
                                send_packet(
                                    ctx,
                                    ProcessId(rec.contact as u32),
                                    &Packet::request(
                                        gb::GRAM_AUTH,
                                        rec.contact,
                                        self.credential.to_wire(),
                                    ),
                                );
                                pending.push(rec.contact);
                            }
                            self.state = SwitchState::Driving { pending };
                        }
                    }
                    gb::GRAM_AUTH => {
                        let contact = from.0 as u64;
                        if pkt.is_error() {
                            self.refused.push(contact);
                            return;
                        }
                        // Authorized: submit for real.
                        let submit = GramSubmit {
                            credential: self.credential.clone(),
                            nodes: self.nodes_per_site,
                        };
                        send_packet(
                            ctx,
                            from,
                            &Packet::request(gb::GRAM_SUBMIT, contact, submit.to_wire()),
                        );
                    }
                    gb::GRAM_SUBMIT => {
                        let contact = from.0 as u64;
                        if pkt.is_error() {
                            self.refused.push(contact);
                        } else if let Ok((launched, _free)) = pkt.body::<(u32, u32)>() {
                            self.activated.push((contact, launched));
                            let id = self.activated_id.expect("started");
                            ctx.inc(id);
                        }
                        if let SwitchState::Driving { pending } = &mut self.state {
                            pending.retain(|&c| c != contact);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_ramsey::RamseyProblem;
    use ew_sched::{SchedulerConfig, SchedulerServer};
    use ew_sim::{HostSpec, HostTable, NetModel, Sim, SimTime, SiteSpec};
    use ew_workload::WorkloadSpec;

    fn world() -> (Sim, Vec<HostId>, HostId) {
        let mut net = NetModel::new(0.05);
        let svc = net.add_site(SiteSpec::simple(
            "svc",
            SimDuration::from_millis(10),
            2.5e6,
            0.0,
        ));
        let testbed = net.add_site(SiteSpec::simple(
            "testbed",
            SimDuration::from_millis(40),
            1.25e6,
            0.1,
        ));
        let mut hosts = HostTable::new();
        let svc_host = hosts.add(HostSpec::dedicated("svc", svc, 1e8));
        let nodes: Vec<HostId> = (0..4)
            .map(|i| hosts.add(HostSpec::dedicated(&format!("gnode{i}"), testbed, 2e7)))
            .collect();
        (Sim::new(net, hosts, 51), nodes, svc_host)
    }

    fn template(sched: u64) -> ClientConfig {
        ClientConfig {
            schedulers: vec![sched],
            chunk_ops: 200_000_000,
            ops_per_step: 2_000_000,
            ..ClientConfig::default()
        }
    }

    #[test]
    fn light_switch_activates_the_testbed() {
        let (mut sim, nodes, svc_host) = world();
        let sched = sim.spawn(
            "sched",
            svc_host,
            Box::new(SchedulerServer::new(SchedulerConfig {
                workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
                step_budget: 2_000,
                ..SchedulerConfig::default()
            })),
        );
        let mds = sim.spawn("mds", svc_host, Box::new(MdsDirectory::new()));
        let gass = sim.spawn(
            "gass",
            svc_host,
            Box::new(GassServer::new(vec![(
                "i686-nt".into(),
                vec![0u8; 500_000], // a 500 KB client binary
            )])),
        );
        let gk = sim.spawn(
            "gatekeeper",
            nodes[0],
            Box::new(Gatekeeper::new(
                "i686-nt",
                vec!["rich@everyware".into()],
                mds.0 as u64,
                gass.0 as u64,
                nodes.clone(),
                SimDuration::from_secs(3),
                template(sched.0 as u64),
            )),
        );
        let switch = sim.spawn(
            "light-switch",
            svc_host,
            Box::new(LightSwitch::new(
                mds.0 as u64,
                "rich@everyware",
                4,
                SimDuration::from_secs(90),
            )),
        );
        sim.run_until(SimTime::from_secs(600));
        // The switch discovered, authenticated, submitted; the gatekeeper
        // pulled the binary through GASS and launched on every node.
        let activated = sim
            .with_process::<LightSwitch, _>(switch, |s| s.activated.clone())
            .unwrap();
        assert_eq!(activated, vec![(gk.0 as u64, 4)]);
        let (launched, refused) = sim
            .with_process::<Gatekeeper, _>(gk, |g| (g.launched, g.refused))
            .unwrap();
        assert_eq!(launched, 4);
        assert_eq!(refused, 0);
        let fetches = sim
            .with_process::<GassServer, _>(gass, |g| g.fetches)
            .unwrap();
        assert_eq!(fetches, 1, "one binary image pulled");
        // And the launched jobs delivered real ops to the scheduler.
        assert!(sim.metrics().counter("ops.globus") > 0.0);
        assert!(
            sim.with_process::<SchedulerServer, _>(sched, |s| s.results_received)
                .unwrap()
                > 0
        );
        // MDS bookkeeping happened.
        let queries = sim
            .with_process::<MdsDirectory, _>(mds, |m| (m.queries, m.record_count()))
            .unwrap();
        assert_eq!(queries, (1, 1));
    }

    #[test]
    fn wrong_credential_is_refused_at_auth() {
        let (mut sim, nodes, svc_host) = world();
        let mds = sim.spawn("mds", svc_host, Box::new(MdsDirectory::new()));
        let gass = sim.spawn(
            "gass",
            svc_host,
            Box::new(GassServer::new(vec![("i686-nt".into(), vec![0u8; 1000])])),
        );
        let gk = sim.spawn(
            "gatekeeper",
            nodes[0],
            Box::new(Gatekeeper::new(
                "i686-nt",
                vec!["rich@everyware".into()],
                mds.0 as u64,
                gass.0 as u64,
                nodes.clone(),
                SimDuration::from_secs(1),
                template(999),
            )),
        );
        let switch = sim.spawn(
            "light-switch",
            svc_host,
            Box::new(LightSwitch::new(
                mds.0 as u64,
                "mallory@nowhere",
                4,
                SimDuration::from_secs(60),
            )),
        );
        sim.run_until(SimTime::from_secs(300));
        let (activated, refused) = sim
            .with_process::<LightSwitch, _>(switch, |s| (s.activated.clone(), s.refused.clone()))
            .unwrap();
        assert!(activated.is_empty());
        assert_eq!(refused, vec![gk.0 as u64]);
        let launched = sim
            .with_process::<Gatekeeper, _>(gk, |g| g.launched)
            .unwrap();
        assert_eq!(launched, 0);
        assert_eq!(sim.metrics().counter("ops.globus"), 0.0);
    }

    #[test]
    fn missing_binary_fails_the_submit_cleanly() {
        let (mut sim, nodes, svc_host) = world();
        let mds = sim.spawn("mds", svc_host, Box::new(MdsDirectory::new()));
        // GASS has no binary for this architecture.
        let gass = sim.spawn("gass", svc_host, Box::new(GassServer::new(vec![])));
        let gk = sim.spawn(
            "gatekeeper",
            nodes[0],
            Box::new(Gatekeeper::new(
                "tera-mta",
                vec!["rich@everyware".into()],
                mds.0 as u64,
                gass.0 as u64,
                nodes.clone(),
                SimDuration::from_secs(1),
                template(999),
            )),
        );
        let switch = sim.spawn(
            "light-switch",
            svc_host,
            Box::new(LightSwitch::new(
                mds.0 as u64,
                "rich@everyware",
                2,
                SimDuration::from_secs(60),
            )),
        );
        sim.run_until(SimTime::from_secs(300));
        let (activated, refused) = sim
            .with_process::<LightSwitch, _>(switch, |s| (s.activated.clone(), s.refused.clone()))
            .unwrap();
        assert!(activated.is_empty());
        assert_eq!(refused, vec![gk.0 as u64]);
        assert_eq!(
            sim.with_process::<Gatekeeper, _>(gk, |g| g.launched)
                .unwrap(),
            0
        );
    }

    #[test]
    fn large_binary_slows_invocation_through_the_network() {
        // Two identical worlds except for binary size: the big image's
        // activation completes later (GASS transfers are real traffic).
        let run = |image_bytes: usize| -> f64 {
            let (mut sim, nodes, svc_host) = world();
            let mds = sim.spawn("mds", svc_host, Box::new(MdsDirectory::new()));
            let gass = sim.spawn(
                "gass",
                svc_host,
                Box::new(GassServer::new(vec![(
                    "i686-nt".into(),
                    vec![0u8; image_bytes],
                )])),
            );
            sim.spawn(
                "gatekeeper",
                nodes[0],
                Box::new(Gatekeeper::new(
                    "i686-nt",
                    vec!["u".into()],
                    mds.0 as u64,
                    gass.0 as u64,
                    nodes.clone(),
                    SimDuration::from_secs(1),
                    template(999),
                )),
            );
            let switch = sim.spawn(
                "light-switch",
                svc_host,
                Box::new(LightSwitch::new(
                    mds.0 as u64,
                    "u",
                    1,
                    SimDuration::from_secs(60),
                )),
            );
            // Find when activation lands by sampling.
            let mut activated_at = f64::INFINITY;
            for t in (60..600).step_by(5) {
                sim.run_until(SimTime::from_secs(t));
                let done = sim
                    .with_process::<LightSwitch, _>(switch, |s| !s.activated.is_empty())
                    .unwrap();
                if done {
                    activated_at = t as f64;
                    break;
                }
            }
            activated_at
        };
        let small = run(10_000);
        let big = run(20_000_000); // 20 MB over a ~1.25 MB/s WAN ≈ +16 s
        assert!(small.is_finite() && big.is_finite());
        assert!(
            big >= small + 10.0,
            "20 MB image must delay activation: {small} vs {big}"
        );
    }
}
