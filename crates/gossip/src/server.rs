//! The *Gossip* server process.
//!
//! "EveryWare state-exchange servers (called Gossips) allow application
//! processes to register for state synchronization ... Once registered, an
//! application component periodically receives a request from a Gossip
//! process to send a fresh copy of its current state" (§2.3). A
//! [`GossipServer`] is one member of the Gossip pool: it polls the
//! components it is responsible for (responsibility is partitioned across
//! the pool by rendezvous hash over the live clique membership), pushes
//! fresh state to stale components, syncs its state table with its pool
//! peers, and participates in the clique protocol to survive partitions.
//!
//! Poll time-outs are *discovered dynamically* through the forecast-driven
//! policy (§2.2); pass [`GossipServer::new`] a static time-out to
//! reproduce the paper's inferior static-time-out baseline.

use ew_forecast::ForecastTimeout;
use ew_proto::sim_net::{broadcast_packet, packet_from_event, send_packet};
use ew_proto::{EventTag, Packet, RetryConfig, RetryTele, RpcClient, StaticTimeout, RPC_WAKE};
use ew_sim::{CounterId, Ctx, Event, HistogramId, Process, ProcessId, SimDuration, SpanId};

use crate::clique::{CliqueConfig, CliqueState};
use crate::messages::{
    gm, Announce, Election, MergeProbe, Poll, Register, StateCarrier, SyncBody, Token,
};
use crate::store::{responsible_gossip, GossipStore};
use ew_proto::WireEncode;

/// How often responsible components are polled for fresh state
/// ("periodically receives a request from a Gossip process", §2.3).
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// How often the state table is synced to pool peers.
const SYNC_INTERVAL: SimDuration = SimDuration::from_secs(15);
/// Clique bookkeeping granularity (token loss, election deadlines, merge
/// probing). Poll expiry is not on it: the poll [`RpcClient`] wakes at each
/// deadline itself.
const TICK_INTERVAL: SimDuration = SimDuration::from_secs(1);

const TIMER_POLL: u64 = 1;
const TIMER_SYNC: u64 = 2;
const TIMER_TICK: u64 = 3;
const TIMER_TOKEN_HOLD: u64 = 4;

/// Telemetry handles, interned once on `Event::Started`.
#[derive(Clone, Copy)]
struct GossipTele {
    polls_sent: CounterId,
    syncs_sent: CounterId,
    pushes: CounterId,
    poll_timeouts: CounterId,
    polls_ok: CounterId,
    polls_suppressed: CounterId,
    retry: RetryTele,
    elections: CounterId,
    elections_closed: CounterId,
    probes: CounterId,
    merges: CounterId,
    poll_rtt_us: HistogramId,
    reconcile_span: SpanId,
    token_span: SpanId,
    timeout_span: SpanId,
}

impl GossipTele {
    fn intern(ctx: &mut Ctx<'_>) -> Self {
        GossipTele {
            polls_sent: ctx.counter("gossip.polls_sent"),
            syncs_sent: ctx.counter("gossip.syncs_sent"),
            pushes: ctx.counter("gossip.pushes"),
            poll_timeouts: ctx.counter("gossip.poll_timeouts"),
            polls_ok: ctx.counter("gossip.polls_ok"),
            polls_suppressed: ctx.counter("gossip.polls_suppressed"),
            retry: RetryTele::intern(ctx),
            elections: ctx.counter("clique.elections"),
            elections_closed: ctx.counter("clique.elections_closed"),
            probes: ctx.counter("clique.probes"),
            merges: ctx.counter("clique.merges"),
            poll_rtt_us: ctx.histogram("gossip.poll_rtt_us"),
            reconcile_span: ctx.span("gossip.reconcile"),
            token_span: ctx.span("clique.token"),
            timeout_span: ctx.span("proto.timeout"),
        }
    }
}

/// One member of the Gossip pool, as a simulator process.
pub struct GossipServer {
    well_known: Vec<u64>,
    store: GossipStore,
    clique: Option<CliqueState>,
    /// Outstanding polls; the context is the polled state type (the polled
    /// component is the tag's peer). The static-baseline arm keeps the
    /// pre-adaptive count-and-move-on behaviour.
    rpc: RpcClient<u16>,
    hold_pending: bool,
    tele: Option<GossipTele>,
}

impl GossipServer {
    /// Build a server that will announce itself to `well_known` peer
    /// addresses (other Gossips' process ids). `Some(t)` replaces dynamic
    /// time-out discovery with a fixed poll time-out `t` — the §2.2
    /// ablation baseline.
    pub fn new(static_timeouts: Option<SimDuration>, well_known: Vec<u64>) -> Self {
        let rpc = match static_timeouts {
            Some(t) => RpcClient::new(StaticTimeout(t), None, None),
            None => {
                // One backoff retry per poll before the periodic round takes
                // over again; the breaker suppresses polls to components
                // that keep timing out.
                let retry = RetryConfig {
                    base: SimDuration::from_secs(2),
                    cap: POLL_INTERVAL,
                    budget: 2,
                    jitter: 0.3,
                };
                RpcClient::new(ForecastTimeout::wan_default(), Some(retry), None)
            }
        };
        GossipServer {
            well_known,
            store: GossipStore::new(),
            clique: None,
            rpc,
            hold_pending: false,
            tele: None,
        }
    }

    /// The server's state table (inspection).
    pub fn store(&self) -> &GossipStore {
        &self.store
    }

    /// Current clique membership (empty before start).
    pub fn clique_members(&self) -> Vec<u64> {
        self.clique
            .as_ref()
            .map(|c| c.members().to_vec())
            .unwrap_or_default()
    }

    fn me_addr(ctx: &Ctx<'_>) -> u64 {
        ctx.me().0 as u64
    }

    /// The process behind a wire address. One that does not fit `u32` names
    /// no process, so it maps to a pid nobody holds: the kernel drops the
    /// send and counts it as `net.send_to_unknown` instead of letting
    /// `(1 << 32) | v` alias process `v`.
    fn pid(addr: u64) -> ProcessId {
        ProcessId(u32::try_from(addr).unwrap_or(u32::MAX))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tele = Some(GossipTele::intern(ctx));
        let me = Self::me_addr(ctx);
        self.clique = Some(CliqueState::new(
            me,
            &self.well_known,
            CliqueConfig::default(),
            ctx.now(),
        ));
        let announce = Announce {
            addr: me,
            known: self.well_known.clone(),
        };
        let targets: Vec<ProcessId> = self
            .well_known
            .iter()
            .filter(|&&peer| peer != me)
            .map(|&peer| Self::pid(peer))
            .collect();
        broadcast_packet(
            ctx,
            targets,
            &Packet::oneway(gm::ANNOUNCE, announce.to_wire_payload()),
        );
        // Stagger periodic timers by a deterministic per-process offset so
        // co-located servers do not fire in lockstep.
        let jitter = SimDuration::from_millis(ctx.rng().next_below(1000));
        ctx.set_timer(POLL_INTERVAL + jitter, TIMER_POLL);
        ctx.set_timer(SYNC_INTERVAL + jitter, TIMER_SYNC);
        ctx.set_timer(TICK_INTERVAL, TIMER_TICK);
        self.rpc.seed_jitter(ctx.rng());
    }

    fn send_poll(&mut self, ctx: &mut Ctx<'_>, comp: u64, stype: u16) {
        let tag = EventTag {
            peer: comp,
            mtype: gm::POLL,
        };
        let corr = self.rpc.begin(ctx, tag, stype);
        self.transmit_poll(ctx, comp, stype, corr);
    }

    fn transmit_poll(&mut self, ctx: &mut Ctx<'_>, comp: u64, stype: u16, corr: u64) {
        let tele = self.tele.expect("started");
        let body = Poll { stype };
        send_packet(
            ctx,
            Self::pid(comp),
            &Packet::request(gm::POLL, corr, body.to_wire_payload()),
        );
        ctx.inc(tele.polls_sent);
    }

    fn poll_round(&mut self, ctx: &mut Ctx<'_>) {
        let tele = self.tele.expect("started");
        let me = Self::me_addr(ctx);
        let members = self.clique.as_ref().expect("started").members().to_vec();
        for comp in self.store.components() {
            if responsible_gossip(&members, comp) != Some(me) {
                continue;
            }
            // Components that keep timing out have an open circuit: skip
            // them until the cool-down's half-open probe (which
            // `try_acquire` itself admits).
            if !self.rpc.try_acquire(comp, ctx.now()) {
                ctx.inc(tele.polls_suppressed);
                continue;
            }
            for stype in self.store.types_of(comp) {
                self.send_poll(ctx, comp, stype);
            }
        }
        ctx.set_timer(POLL_INTERVAL, TIMER_POLL);
    }

    fn sync_round(&mut self, ctx: &mut Ctx<'_>) {
        let tele = self.tele.expect("started");
        let me = Self::me_addr(ctx);
        let body = SyncBody {
            from_addr: me,
            states: self.store.snapshot_states(),
            registrations: self.store.snapshot_registrations(),
            peers: self.clique.as_ref().expect("started").known_peers(),
        };
        let members = self.clique.as_ref().expect("started").members().to_vec();
        let targets: Vec<ProcessId> = members
            .iter()
            .filter(|&&peer| peer != me)
            .map(|&peer| Self::pid(peer))
            .collect();
        ctx.add(tele.syncs_sent, targets.len() as f64);
        broadcast_packet(
            ctx,
            targets,
            &Packet::oneway(gm::SYNC, body.to_wire_payload()),
        );
        ctx.set_timer(SYNC_INTERVAL, TIMER_SYNC);
    }

    fn push_stale(&mut self, ctx: &mut Ctx<'_>, stype: u16) {
        let tele = self.tele.expect("started");
        let me = Self::me_addr(ctx);
        let members = self.clique.as_ref().expect("started").members().to_vec();
        for (addr, blob) in self.store.stale_components(stype) {
            // Only push to components this server is responsible for; a
            // peer Gossip will cover the rest after the next sync.
            if responsible_gossip(&members, addr) != Some(me) {
                continue;
            }
            let carrier = StateCarrier {
                stype,
                blob: blob.clone(),
            };
            send_packet(
                ctx,
                Self::pid(addr),
                &Packet::oneway(gm::PUSH, carrier.to_wire_payload()),
            );
            self.store.note_pushed(addr, stype, blob);
            ctx.inc(tele.pushes);
        }
    }

    /// The poll [`RpcClient`]'s wake, at a poll's deadline or the end of
    /// its backoff. An expiry is the §2.2 "misjudged the availability"
    /// counter. Within the budget an expired poll is re-sent once after a
    /// backoff; past it the next periodic round (or the breaker's half-open
    /// probe) takes over, so a `GaveUp` verdict needs no handling here.
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        let tele = self.tele.expect("started");
        for expired in self.rpc.take_expired(ctx, tele.timeout_span) {
            ctx.inc(tele.poll_timeouts);
            self.rpc.verdict(ctx, tele.retry, expired, true);
        }
        for resend in self.rpc.take_due(ctx) {
            let (comp, stype) = (resend.tag.peer, resend.context);
            let corr = self.rpc.resend(ctx, resend);
            self.transmit_poll(ctx, comp, stype, corr);
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let tele = self.tele.expect("started");
        let now = ctx.now();
        let clique = self.clique.as_mut().expect("started");
        if clique.token_lost(now) {
            let (call, targets) = clique.start_election(now);
            ctx.inc(tele.elections);
            let targets: Vec<ProcessId> = targets.into_iter().map(Self::pid).collect();
            broadcast_packet(
                ctx,
                targets,
                &Packet::request(gm::ELECTION, 0, call.to_wire_payload()),
            );
        } else if clique.election_deadline().is_some_and(|d| d <= now) {
            if let Some((to, tok)) = clique.finish_election(now) {
                ctx.mark(tele.token_span, to);
                send_packet(
                    ctx,
                    Self::pid(to),
                    &Packet::oneway(gm::TOKEN, tok.to_wire_payload()),
                );
            }
            ctx.inc(tele.elections_closed);
        }
        if let Some(target) = clique.probe_target(now) {
            let probe = clique.make_probe();
            send_packet(
                ctx,
                Self::pid(target),
                &Packet::request(gm::MERGE_PROBE, 0, probe.to_wire_payload()),
            );
            ctx.inc(tele.probes);
        }
        ctx.set_timer(TICK_INTERVAL, TIMER_TICK);
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, pkt: Packet) {
        let tele = self.tele.expect("started");
        let now = ctx.now();
        match (pkt.mtype, pkt.is_response()) {
            (gm::REGISTER, false) => {
                if let Ok(reg) = pkt.body::<Register>() {
                    self.store.register(reg.addr, &reg.types);
                    send_packet(ctx, from, &Packet::response_to(&pkt, Vec::new()));
                }
            }
            (gm::POLL, true) => {
                if let Some((tag, stype, rtt)) = self.rpc.complete(pkt.corr_id, now) {
                    let addr = tag.peer;
                    if let Ok(carrier) = pkt.body::<StateCarrier>() {
                        ctx.inc(tele.polls_ok);
                        ctx.observe(tele.poll_rtt_us, rtt.as_micros() as f64);
                        self.store.record_component_state(addr, stype, carrier.blob);
                        self.push_stale(ctx, stype);
                    }
                }
            }
            (gm::SYNC, false) => {
                if let Ok(sync) = pkt.body::<SyncBody>() {
                    // Pairwise reconciliation of state tables (§2.3).
                    ctx.mark(tele.reconcile_span, sync.from_addr);
                    let clique = self.clique.as_mut().expect("started");
                    clique.add_known_peer(sync.from_addr);
                    for peer in &sync.peers {
                        clique.add_known_peer(*peer);
                    }
                    for reg in &sync.registrations {
                        self.store.register(reg.addr, &reg.types);
                    }
                    let mut freshened = Vec::new();
                    for carrier in sync.states {
                        if self.store.absorb(carrier.stype, carrier.blob) {
                            freshened.push(carrier.stype);
                        }
                    }
                    for stype in freshened {
                        self.push_stale(ctx, stype);
                    }
                }
            }
            (gm::ANNOUNCE, false) => {
                if let Ok(ann) = pkt.body::<Announce>() {
                    let clique = self.clique.as_mut().expect("started");
                    let me = clique.me;
                    let newcomer = !clique.known_peers().contains(&ann.addr) && ann.addr != me;
                    clique.add_known_peer(ann.addr);
                    for peer in ann.known {
                        clique.add_known_peer(peer);
                    }
                    // Relay first sightings so pool knowledge is transitive
                    // ("announced to all other functioning Gossips", §2.3).
                    if newcomer {
                        let peers = clique.known_peers();
                        let relay = Announce {
                            addr: ann.addr,
                            known: peers.clone(),
                        };
                        let targets: Vec<ProcessId> = peers
                            .into_iter()
                            .filter(|&peer| peer != ann.addr && Self::pid(peer) != from)
                            .map(Self::pid)
                            .collect();
                        broadcast_packet(
                            ctx,
                            targets,
                            &Packet::oneway(gm::ANNOUNCE, relay.to_wire_payload()),
                        );
                    }
                }
            }
            (gm::TOKEN, false) => {
                if let Ok(tok) = pkt.body::<Token>() {
                    ctx.mark(tele.token_span, tok.generation);
                    let clique = self.clique.as_mut().expect("started");
                    let accepted = clique.on_token(&tok, now);
                    if accepted && !self.hold_pending {
                        self.hold_pending = true;
                        ctx.set_timer(CliqueConfig::default().hold_time, TIMER_TOKEN_HOLD);
                    }
                }
            }
            (gm::ELECTION, false) => {
                if let Ok(call) = pkt.body::<Election>() {
                    let clique = self.clique.as_mut().expect("started");
                    if clique.on_election_call(&call, now) {
                        send_packet(ctx, from, &Packet::response_to(&pkt, Vec::new()));
                    }
                }
            }
            (gm::ELECTION, true) => {
                let clique = self.clique.as_mut().expect("started");
                clique.on_election_reply(from.0 as u64);
            }
            (gm::MERGE_PROBE, false) => {
                if let Ok(probe) = pkt.body::<MergeProbe>() {
                    let clique = self.clique.as_mut().expect("started");
                    let reply = clique.on_merge_probe(&probe, now);
                    send_packet(
                        ctx,
                        from,
                        &Packet::response_to(&pkt, reply.to_wire_payload()),
                    );
                }
            }
            (gm::MERGE_PROBE, true) => {
                if let Ok(foreign) = pkt.body::<Token>() {
                    let clique = self.clique.as_mut().expect("started");
                    if let Some((to, tok)) = clique.absorb_merge_response(&foreign, now) {
                        ctx.inc(tele.merges);
                        send_packet(
                            ctx,
                            Self::pid(to),
                            &Packet::oneway(gm::TOKEN, tok.to_wire_payload()),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

impl Process for GossipServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => self.on_start(ctx),
            Event::Timer { tag } => match tag {
                TIMER_POLL => self.poll_round(ctx),
                TIMER_SYNC => self.sync_round(ctx),
                TIMER_TICK => self.tick(ctx),
                RPC_WAKE => self.wake(ctx),
                TIMER_TOKEN_HOLD => {
                    self.hold_pending = false;
                    let tele = self.tele.expect("started");
                    if let Some(clique) = self.clique.as_mut() {
                        if let Some((to, tok)) = clique.forward_token() {
                            ctx.mark(tele.token_span, to);
                            send_packet(
                                ctx,
                                Self::pid(to),
                                &Packet::oneway(gm::TOKEN, tok.to_wire_payload()),
                            );
                        }
                    }
                }
                _ => {}
            },
            ref ev @ Event::Message { .. } => {
                if let Some(Ok((from, pkt))) = packet_from_event(ev) {
                    self.handle_packet(ctx, from, pkt);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GossipClient;
    use crate::freshness::Comparator;
    use ew_sim::{HostSpec, HostTable, NetModel, Sim, SimTime, SiteSpec};

    /// A component that registers two state types and never answers a poll.
    struct Mute(ProcessId);

    impl Process for Mute {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::Started = ev {
                let types = vec![
                    (1, Comparator::VersionCounter),
                    (2, Comparator::VersionCounter),
                ];
                GossipClient::new(types).register(ctx, self.0);
            }
        }
    }

    /// A [`GossipServer`] under watch: before every event no poll deadline
    /// or resend may lie in the past. `noticed` holds each instant a wake
    /// found something due; `late` holds `(now, due)` for every breach.
    struct Watched {
        server: GossipServer,
        noticed: Vec<SimTime>,
        late: Vec<(SimTime, SimTime)>,
    }

    impl Process for Watched {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let now = ctx.now();
            let due = self.server.rpc.next_due();
            self.late
                .extend(due.filter(|&at| at < now).map(|at| (now, at)));
            if matches!(ev, Event::Timer { tag: RPC_WAKE }) && due.is_some_and(|at| at <= now) {
                self.noticed.push(now);
            }
            self.server.on_event(ctx, ev);
        }
    }

    #[test]
    fn a_lost_poll_is_noticed_at_its_deadline_not_at_the_next_tick() {
        let mut net = NetModel::new(0.0);
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let mut hosts = HostTable::new();
        let hg = hosts.add(HostSpec::dedicated("g", site, 1e8));
        let hc = hosts.add(HostSpec::dedicated("c", site, 1e8));
        let mut sim = Sim::new(net, hosts, 3);
        let watched = Watched {
            server: GossipServer::new(None, vec![]),
            noticed: Vec::new(),
            late: Vec::new(),
        };
        let g = sim.spawn("gossip", hg, Box::new(watched));
        sim.spawn("mute", hc, Box::new(Mute(g)));
        sim.run_until(SimTime::from_secs(120));
        let (noticed, late) = sim
            .with_process::<Watched, _>(g, |w| (w.noticed.clone(), w.late.clone()))
            .expect("alive");
        assert_eq!(late, vec![], "something due waited for a later event");
        // Both state types of each round expire together; the retries
        // within the budget expire too.
        assert!(sim.metrics().counter("gossip.poll_timeouts") >= 4.0);
        // The 1 s clique tick runs on whole seconds from the start; the
        // deadlines do not, and that is when the losses are noticed.
        let off_tick = noticed
            .iter()
            .filter(|at| at.since(SimTime::ZERO).as_micros() % 1_000_000 != 0)
            .count();
        assert!(off_tick >= 2, "noticed at {noticed:?}");
    }
}
