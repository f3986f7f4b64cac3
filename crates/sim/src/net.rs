//! Network model.
//!
//! Hosts live at *sites* (a machine room, a Condor pool, the SC98 show
//! floor). Traffic inside a site crosses its LAN; traffic between sites
//! crosses both sites' WAN access links. Each site carries a background
//! [`LoadTrace`] that eats into available bandwidth
//! and stretches latency — the simulator's rendering of the paper's
//! observation that "network performance on the exhibit floor varied
//! dramatically, particularly as SCINet was reconfigured on-the-fly" (§2.2).
//!
//! Partitions make a site (or site pair) unreachable for an interval; the
//! clique protocol (ew-gossip) is exercised against exactly these.

use crate::payload::Payload;
use crate::rng::Xoshiro256;
use crate::time::{SimDuration, SimTime};
use crate::trace::{ConstantLoad, LoadTrace};

/// Identifies a site within a [`NetModel`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u16);

/// How the kernel prices a message crossing this network.
///
/// * [`Packet`](NetworkModel::Packet) — the historical, figure-faithful
///   mode: every message gets a one-shot delivery delay sampled at send
///   time from latency, bandwidth, load, and jitter. Concurrent messages
///   do not contend with each other. All golden event-order hashes and
///   every pre-PR7 artifact pin this mode.
/// * [`Flow`](NetworkModel::Flow) — the scale mode: every message becomes
///   a *flow* draining through the site LAN/WAN links under max-min
///   fair-share bandwidth allocation. Starting or finishing a flow
///   recomputes rates only for flows sharing a bottleneck link; a
///   migrated deadline overwrites the flow's previous one and the kernel
///   keeps a single queue entry for the earliest. Heavy traffic costs
///   O(flows · sharing-set) instead of O(packets).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NetworkModel {
    /// Per-message one-shot delay (the default; golden-hash pinned).
    #[default]
    Packet,
    /// Per-flow max-min fair bandwidth sharing.
    Flow,
}

/// Static description of one site's connectivity.
pub struct SiteSpec {
    /// Human-readable name ("SDSC", "NCSA-NT", "SC98-floor", …).
    pub name: String,
    /// One-way latency between two hosts in the same site.
    pub lan_latency: SimDuration,
    /// LAN bandwidth in bytes/second.
    pub lan_bandwidth: f64,
    /// One-way latency from a host to the site's WAN egress.
    pub wan_latency: SimDuration,
    /// WAN access bandwidth in bytes/second.
    pub wan_bandwidth: f64,
    /// Background network load at this site.
    pub load: Box<dyn LoadTrace>,
}

impl SiteSpec {
    /// A well-connected site with constant (possibly zero) background load.
    pub fn simple(name: &str, wan_latency: SimDuration, wan_bandwidth: f64, load: f64) -> Self {
        SiteSpec {
            name: name.to_string(),
            lan_latency: SimDuration::from_micros(200),
            lan_bandwidth: 12.5e6, // 100 Mbit switched Ethernet
            wan_latency,
            wan_bandwidth,
            load: Box::new(ConstantLoad(load)),
        }
    }
}

/// A connectivity failure: while active, no traffic crosses it.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// One side of the cut.
    pub a: SiteId,
    /// The other side; `None` isolates site `a` from every other site.
    pub b: Option<SiteId>,
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Whether this partition cuts traffic between `x` and `y` at `now`.
    pub fn cuts(&self, x: SiteId, y: SiteId, now: SimTime) -> bool {
        if now < self.from || now >= self.until || x == y {
            return false;
        }
        match self.b {
            Some(b) => (self.a == x && b == y) || (self.a == y && b == x),
            None => self.a == x || self.a == y,
        }
    }
}

/// A lossy-link window: while active, traffic touching `site` is dropped
/// or duplicated with the given probabilities. Models the SC98 show-floor
/// reality of flaky media and on-the-fly SCINet reconfiguration (§2.2)
/// below the partition level: messages *mostly* get through, but not
/// reliably and sometimes twice.
#[derive(Clone, Copy, Debug)]
pub struct Impairment {
    /// The impaired site; any message whose source or destination site is
    /// this one is affected (including intra-site traffic).
    pub site: SiteId,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a surviving message is delivered twice (the duplicate
    /// takes an independently sampled delay).
    pub duplicate: f64,
}

impl Impairment {
    /// Whether this window affects traffic between `x` and `y` at `now`.
    pub fn affects(&self, x: SiteId, y: SiteId, now: SimTime) -> bool {
        now >= self.from && now < self.until && (self.site == x || self.site == y)
    }
}

/// The whole network: sites, partitions, impairments, and a jitter level.
pub struct NetModel {
    sites: Vec<SiteSpec>,
    partitions: Vec<Partition>,
    impairments: Vec<Impairment>,
    model: NetworkModel,
    /// Multiplicative log-normal-ish jitter scale (0 disables jitter).
    pub jitter: f64,
}

impl NetModel {
    /// Build an empty network with the given jitter fraction, in the
    /// default packet-faithful mode.
    pub fn new(jitter: f64) -> Self {
        NetModel {
            sites: Vec::new(),
            partitions: Vec::new(),
            impairments: Vec::new(),
            model: NetworkModel::Packet,
            jitter,
        }
    }

    /// Select the delivery model (builder form). Packet is the default;
    /// flow mode is opt-in per deployment/topology.
    pub fn with_model(mut self, model: NetworkModel) -> Self {
        self.model = model;
        self
    }

    /// The active delivery model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Register a site, returning its id.
    pub fn add_site(&mut self, spec: SiteSpec) -> SiteId {
        assert!(self.sites.len() < u16::MAX as usize, "too many sites");
        self.sites.push(spec);
        SiteId(self.sites.len() as u16 - 1)
    }

    /// Schedule a partition.
    pub fn add_partition(&mut self, p: Partition) {
        self.partitions.push(p);
    }

    /// Schedule a lossy-link window.
    pub fn add_impairment(&mut self, i: Impairment) {
        self.impairments.push(i);
    }

    /// Whether any impairment window exists at all. The kernel's send path
    /// checks this before sampling impairment randomness, so worlds
    /// without impairments keep their rng streams (and golden event-order
    /// hashes) bit-identical.
    pub fn has_impairments(&self) -> bool {
        !self.impairments.is_empty()
    }

    /// The fate of one message between `from` and `to` at `now` under the
    /// active impairment windows: `(dropped, duplicated)`. Drop and
    /// duplicate probabilities combine across overlapping windows, one
    /// Bernoulli draw per window per question, in registration order.
    pub fn impair(
        &self,
        from: SiteId,
        to: SiteId,
        now: SimTime,
        rng: &mut Xoshiro256,
    ) -> (bool, bool) {
        let mut dropped = false;
        let mut duplicated = false;
        for w in &self.impairments {
            if !w.affects(from, to, now) {
                continue;
            }
            if w.drop > 0.0 && rng.chance(w.drop) {
                dropped = true;
            }
            if w.duplicate > 0.0 && rng.chance(w.duplicate) {
                duplicated = true;
            }
        }
        (dropped, duplicated && !dropped)
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site metadata.
    pub fn site(&self, id: SiteId) -> &SiteSpec {
        &self.sites[id.0 as usize]
    }

    /// Whether sites `a` and `b` can currently exchange traffic.
    pub fn reachable(&self, a: SiteId, b: SiteId, now: SimTime) -> bool {
        !self.partitions.iter().any(|p| p.cuts(a, b, now))
    }

    /// One-way delivery delay for `bytes` from a host at `from` to a host
    /// at `to`, or `None` if a partition drops the message.
    ///
    /// Background load shrinks usable bandwidth to `bw * (1 - load)` and
    /// stretches latency by `1 / (1 - load)` — a standard M/M/1-flavored
    /// congestion approximation, sampled at send time (message flights are
    /// short relative to the 5-minute load dynamics the figures average
    /// over).
    pub fn delay(
        &self,
        from: SiteId,
        to: SiteId,
        bytes: usize,
        now: SimTime,
        rng: &mut Xoshiro256,
    ) -> Option<SimDuration> {
        if !self.reachable(from, to, now) {
            return None;
        }
        let base = if from == to {
            let s = self.site(from);
            let load = s.load.load(now).clamp(0.0, 0.999);
            s.lan_latency.as_secs_f64() / (1.0 - load)
                + bytes as f64 / (s.lan_bandwidth * (1.0 - load))
        } else {
            let (sa, sb) = (self.site(from), self.site(to));
            let (la, lb) = (
                sa.load.load(now).clamp(0.0, 0.999),
                sb.load.load(now).clamp(0.0, 0.999),
            );
            let lat = sa.wan_latency.as_secs_f64() / (1.0 - la)
                + sb.wan_latency.as_secs_f64() / (1.0 - lb);
            let bw = (sa.wan_bandwidth * (1.0 - la)).min(sb.wan_bandwidth * (1.0 - lb));
            lat + bytes as f64 / bw.max(1.0)
        };
        let jittered = if self.jitter > 0.0 {
            base * (1.0 + self.jitter * rng.next_f64())
        } else {
            base
        };
        Some(SimDuration::from_secs_f64(jittered.max(1e-6)))
    }

    // ---- flow-mode geometry --------------------------------------------
    //
    // Flow mode decomposes every transfer into a fixed propagation latency
    // plus a drain through shared links: the site LAN for intra-site
    // traffic, both sites' WAN access links for inter-site traffic. Links
    // are indexed `2*site` (LAN) and `2*site + 1` (WAN).

    /// The LAN link of a site.
    pub fn lan_link(site: SiteId) -> u32 {
        (site.0 as u32) * 2
    }

    /// The WAN access link of a site.
    pub fn wan_link(site: SiteId) -> u32 {
        (site.0 as u32) * 2 + 1
    }

    /// The link path of a flow: `[LAN]` intra-site, `[WAN, WAN]` between
    /// sites. Returns the links and how many are used.
    pub fn flow_links(from: SiteId, to: SiteId) -> ([u32; 2], usize) {
        if from == to {
            ([Self::lan_link(from), 0], 1)
        } else {
            ([Self::wan_link(from), Self::wan_link(to)], 2)
        }
    }

    /// Usable capacity of a link right now, in bytes/second: the
    /// configured bandwidth shrunk by the site's background load (same
    /// M/M/1-flavored `bw * (1 - load)` rule as packet mode), floored at
    /// 1 byte/s so shares never divide by zero.
    pub fn link_capacity(&self, link: u32, now: SimTime) -> f64 {
        let s = &self.sites[(link / 2) as usize];
        let load = s.load.load(now).clamp(0.0, 0.999);
        let bw = if link.is_multiple_of(2) {
            s.lan_bandwidth
        } else {
            s.wan_bandwidth
        };
        (bw * (1.0 - load)).max(1.0)
    }

    /// Propagation latency of a flow (the fixed, non-shared part of its
    /// delivery time), or `None` if a partition cuts the path right now.
    /// Load stretches latency exactly as in packet mode; flow mode draws
    /// no jitter (contention between concurrent flows *is* its variance
    /// model), so the kernel's net rng is untouched.
    pub fn flow_latency(&self, from: SiteId, to: SiteId, now: SimTime) -> Option<SimDuration> {
        if !self.reachable(from, to, now) {
            return None;
        }
        let lat = if from == to {
            let s = self.site(from);
            let load = s.load.load(now).clamp(0.0, 0.999);
            s.lan_latency.as_secs_f64() / (1.0 - load)
        } else {
            let (sa, sb) = (self.site(from), self.site(to));
            let (la, lb) = (
                sa.load.load(now).clamp(0.0, 0.999),
                sb.load.load(now).clamp(0.0, 0.999),
            );
            sa.wan_latency.as_secs_f64() / (1.0 - la) + sb.wan_latency.as_secs_f64() / (1.0 - lb)
        };
        Some(SimDuration::from_secs_f64(lat.max(1e-6)))
    }
}

/// Below this many residual bytes a flow is *drained*: it stops occupying
/// link capacity and just waits out its propagation latency. Guards
/// against float dust keeping dead flows in the fair-share computation.
const DRAINED_EPS: f64 = 1e-6;

/// Relative rate change below which a recompute does **not** migrate a
/// flow's deadline. Uncontended flows keep their event; only flows whose
/// fair share actually moved pay the reschedule.
const RATE_EPS: f64 = 1e-9;

/// MTU used for the honest "packets avoided" extrapolation: how many
/// 1500-byte packet events a per-packet contention-faithful simulator
/// would schedule for the same traffic.
pub const FLOW_MTU_BYTES: u64 = 1500;

/// An in-flight flow-mode transfer.
struct Flow {
    /// Sender process id (raw), for the delivered `Event::Message`.
    from: u32,
    /// Destination process id (raw).
    to: u32,
    /// Application message type.
    mtype: u32,
    /// The message body, delivered when the flow completes.
    payload: Payload,
    /// Shared links this flow crosses (see [`NetModel::flow_links`]).
    links: [u32; 2],
    nlinks: u8,
    /// Residual bytes at `last_update`.
    remaining: f64,
    /// Current fair-share rate in bytes/s (0 until the first recompute).
    rate: f64,
    /// When `remaining` was last advanced.
    last_update: SimTime,
    /// Fixed propagation latency added after the drain finishes.
    latency: SimDuration,
    /// Drained flows hold no capacity and keep their final deadline.
    drained: bool,
}

/// A deadline the kernel must (re)schedule: `(flow, generation, at)`.
/// It supersedes the flow's previous deadline, which carried an older
/// generation that [`FlowTable::complete`] refuses.
pub type FlowDeadline = (u32, u32, SimTime);

/// A completed flow, handed back to the kernel for delivery.
pub struct CompletedFlow {
    /// Sender process id (raw).
    pub from: u32,
    /// Destination process id (raw).
    pub to: u32,
    /// Application message type.
    pub mtype: u32,
    /// The message body.
    pub payload: Payload,
    /// The links the flow occupied (seed for the post-completion
    /// fair-share recompute).
    pub links: [u32; 2],
    /// How many entries of `links` are used.
    pub nlinks: usize,
}

/// Slot-allocated registry of in-flight flows plus per-link membership:
/// the state behind [`NetworkModel::Flow`]. Owned by the kernel next to
/// the event queue; all methods are deterministic in their inputs.
pub struct FlowTable {
    slots: Vec<(u32, Option<Flow>)>,
    free: Vec<u32>,
    /// Flow ids crossing each link (drained members linger until
    /// completion but hold no capacity).
    link_flows: Vec<Vec<u32>>,
    /// Filling scratch, indexed by link: (residual capacity, undrained
    /// member count, visited epoch).
    link_scratch: Vec<(f64, u32, u32)>,
    /// Closure scratch: visited epoch per flow slot.
    flow_epoch: Vec<u32>,
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
    epoch: u32,
    active: usize,
    /// Links whose flow membership changed since the last coalesced
    /// recompute flush (deduped worklist + per-link mark).
    dirty_links: Vec<u32>,
    dirty_marked: Vec<bool>,
}

impl FlowTable {
    /// An empty table over `site_count` sites' links.
    pub fn new(site_count: usize) -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            link_flows: vec![Vec::new(); site_count * 2],
            link_scratch: vec![(0.0, 0, 0); site_count * 2],
            flow_epoch: Vec::new(),
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            epoch: 0,
            active: 0,
            dirty_links: Vec::new(),
            dirty_marked: vec![false; site_count * 2],
        }
    }

    /// In-flight flows right now.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Register a new flow. Returns its id; the caller follows up with
    /// [`recompute`](FlowTable::recompute) seeded on the flow's links to
    /// assign rates and schedule deadlines.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        from_site: SiteId,
        to_site: SiteId,
        bytes: usize,
        latency: SimDuration,
        now: SimTime,
        from: u32,
        to: u32,
        mtype: u32,
        payload: Payload,
    ) -> u32 {
        let (links, nlinks) = NetModel::flow_links(from_site, to_site);
        let flow = Flow {
            from,
            to,
            mtype,
            payload,
            links,
            nlinks: nlinks as u8,
            remaining: (bytes as f64).max(DRAINED_EPS * 2.0),
            rate: 0.0,
            last_update: now,
            latency,
            drained: false,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize].1 = Some(flow);
                id
            }
            None => {
                let id = self.slots.len() as u32;
                self.slots.push((0, Some(flow)));
                self.flow_epoch.push(0);
                id
            }
        };
        for l in &links[..nlinks] {
            self.link_flows[*l as usize].push(id);
        }
        self.active += 1;
        id
    }

    /// Links of a live flow (seed for the post-start recompute).
    pub fn links_of(&self, id: u32) -> ([u32; 2], usize) {
        let f = self.slots[id as usize].1.as_ref().expect("live flow");
        (f.links, f.nlinks as usize)
    }

    /// Record that `links` changed flow membership. A later
    /// [`recompute_dirty`](FlowTable::recompute_dirty) runs one fair-share
    /// pass seeded with every link marked since the previous one, letting
    /// the kernel coalesce the recomputes a multi-send event would
    /// otherwise run back to back.
    pub fn mark_dirty(&mut self, links: &[u32]) {
        for &l in links {
            if !self.dirty_marked[l as usize] {
                self.dirty_marked[l as usize] = true;
                self.dirty_links.push(l);
            }
        }
    }

    /// Whether any link awaits a coalesced recompute.
    pub fn has_dirty(&self) -> bool {
        !self.dirty_links.is_empty()
    }

    /// Run [`recompute`](FlowTable::recompute) seeded with the accumulated
    /// dirty links, clearing the worklist. Returns how many dirty links
    /// were consumed (zero means no recompute ran).
    pub fn recompute_dirty(
        &mut self,
        now: SimTime,
        net: &NetModel,
        out: &mut Vec<FlowDeadline>,
    ) -> usize {
        let n = self.dirty_links.len();
        if n == 0 {
            return 0;
        }
        let seeds = std::mem::take(&mut self.dirty_links);
        for &l in &seeds {
            self.dirty_marked[l as usize] = false;
        }
        self.recompute(&seeds, now, net, out);
        // Hand the buffer back so the worklist stays allocation-free.
        self.dirty_links = seeds;
        self.dirty_links.clear();
        n
    }

    /// Finish a flow if `generation` is current. `None` means the deadline
    /// was superseded by a recompute after it was scheduled.
    pub fn complete(&mut self, id: u32, generation: u32) -> Option<CompletedFlow> {
        let (slot_gen, slot) = &mut self.slots[id as usize];
        if *slot_gen != generation || slot.is_none() {
            return None;
        }
        let f = slot.take().expect("checked above");
        *slot_gen = slot_gen.wrapping_add(1);
        self.free.push(id);
        self.active -= 1;
        for l in &f.links[..f.nlinks as usize] {
            let list = &mut self.link_flows[*l as usize];
            let pos = list.iter().position(|&x| x == id).expect("member");
            list.swap_remove(pos);
        }
        Some(CompletedFlow {
            from: f.from,
            to: f.to,
            mtype: f.mtype,
            payload: f.payload,
            links: f.links,
            nlinks: f.nlinks as usize,
        })
    }

    /// Max-min fair-share recompute over the link-sharing component
    /// reachable from `seed_links`: advance every member flow's residual
    /// bytes under its old rate, then progressively fill — repeatedly
    /// saturate the tightest link, fixing its flows at the bottleneck
    /// share. Flows whose rate actually changed get a fresh generation and
    /// a new deadline appended to `out` (the kernel files them and wakes
    /// for the earliest). Cost is O(flows · sharing-set) per
    /// membership change, independent of transfer size.
    pub fn recompute(
        &mut self,
        seed_links: &[u32],
        now: SimTime,
        net: &NetModel,
        out: &mut Vec<FlowDeadline>,
    ) {
        // 1. Closure: every link/flow transitively sharing with the seed.
        // The epoch advances by 2 so the "member" mark (even, == e) and the
        // "fixed this round" mark (odd, == e+1) never alias a later round's
        // member mark.
        self.epoch = self.epoch.wrapping_add(2);
        if self.epoch == 0 {
            // Epoch wrapped: clear stale marks instead of aliasing them.
            self.link_scratch.iter_mut().for_each(|s| s.2 = 0);
            self.flow_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 2;
        }
        let e = self.epoch;
        self.comp_links.clear();
        self.comp_flows.clear();
        for &l in seed_links {
            if self.link_scratch[l as usize].2 != e {
                self.link_scratch[l as usize].2 = e;
                self.comp_links.push(l);
            }
        }
        let mut next_link = 0;
        while next_link < self.comp_links.len() {
            let l = self.comp_links[next_link];
            next_link += 1;
            for i in 0..self.link_flows[l as usize].len() {
                let fid = self.link_flows[l as usize][i];
                if self.flow_epoch[fid as usize] == e {
                    continue;
                }
                self.flow_epoch[fid as usize] = e;
                self.comp_flows.push(fid);
                let f = self.slots[fid as usize].1.as_ref().expect("live member");
                for &fl in &f.links[..f.nlinks as usize] {
                    if self.link_scratch[fl as usize].2 != e {
                        self.link_scratch[fl as usize].2 = e;
                        self.comp_links.push(fl);
                    }
                }
            }
        }

        // 2. Advance member flows to `now` under their old rates.
        let mut undrained = 0usize;
        for &fid in &self.comp_flows {
            let f = self.slots[fid as usize].1.as_mut().expect("live member");
            if f.drained {
                continue;
            }
            let dt = (now - f.last_update).as_secs_f64();
            if dt > 0.0 {
                f.remaining -= f.rate * dt;
            }
            f.last_update = now;
            if f.remaining <= DRAINED_EPS {
                // Residual is float dust: the already-scheduled deadline
                // (drain end + latency) stays correct; stop charging the
                // links for this flow.
                f.remaining = 0.0;
                f.drained = true;
            } else {
                undrained += 1;
            }
        }

        // 3. Progressive filling over the undrained members.
        for &l in &self.comp_links {
            let cap = net.link_capacity(l, now);
            let n = self.link_flows[l as usize]
                .iter()
                .filter(|&&fid| {
                    let f = self.slots[fid as usize].1.as_ref().expect("live member");
                    !f.drained && f.rate >= 0.0
                })
                .count() as u32;
            let s = &mut self.link_scratch[l as usize];
            s.0 = cap;
            s.1 = n;
        }
        // Flows fixed at a bottleneck are re-marked with the odd epoch so
        // later bottleneck passes skip them without a side bitset.
        let fixed = e.wrapping_add(1);
        let mut remaining_flows = undrained;
        while remaining_flows > 0 {
            // Tightest link: minimal fair share cap/n among loaded links.
            let mut best: Option<(f64, u32)> = None;
            for &l in &self.comp_links {
                let (cap, n, _) = self.link_scratch[l as usize];
                if n == 0 {
                    continue;
                }
                let share = (cap / n as f64).max(1.0);
                let better = match best {
                    None => true,
                    // Deterministic tie-break on link id.
                    Some((bs, bl)) => share < bs || (share == bs && l < bl),
                };
                if better {
                    best = Some((share, l));
                }
            }
            let Some((share, bottleneck)) = best else {
                break; // defensive: no loaded link left
            };
            for i in 0..self.link_flows[bottleneck as usize].len() {
                let fid = self.link_flows[bottleneck as usize][i];
                if self.flow_epoch[fid as usize] != e {
                    continue; // drained, or already fixed this round
                }
                let f = self.slots[fid as usize].1.as_mut().expect("live member");
                if f.drained {
                    continue;
                }
                self.flow_epoch[fid as usize] = fixed;
                remaining_flows -= 1;
                // Release this flow's share from every link it crosses.
                let links = f.links;
                let nlinks = f.nlinks as usize;
                let old_rate = f.rate;
                let remaining = f.remaining;
                let latency = f.latency;
                f.rate = share;
                for &fl in &links[..nlinks] {
                    let s = &mut self.link_scratch[fl as usize];
                    s.0 = (s.0 - share).max(0.0);
                    s.1 = s.1.saturating_sub(1);
                }
                let moved =
                    old_rate <= 0.0 || (share - old_rate).abs() > RATE_EPS * old_rate.max(share);
                if moved {
                    let slot_gen = &mut self.slots[fid as usize].0;
                    *slot_gen = slot_gen.wrapping_add(1);
                    let drain = SimDuration::from_secs_f64(remaining / share);
                    out.push((fid, *slot_gen, now + drain + latency));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpikeLoad;

    fn payload() -> Payload {
        Payload::from(vec![0u8; 4])
    }

    /// Drive a FlowTable by hand (no kernel): start flows, collect
    /// deadlines, return the final completion time per flow id.
    struct Harness {
        table: FlowTable,
        net: NetModel,
        /// Latest deadline per flow (superseded generations overwritten).
        deadline: std::collections::BTreeMap<u32, (u32, SimTime)>,
        out: Vec<FlowDeadline>,
    }

    impl Harness {
        fn new(net: NetModel) -> Self {
            Harness {
                table: FlowTable::new(net.site_count()),
                net,
                deadline: std::collections::BTreeMap::new(),
                out: Vec::new(),
            }
        }

        fn start(&mut self, from: SiteId, to: SiteId, bytes: usize, now: SimTime) -> u32 {
            let lat = self.net.flow_latency(from, to, now).unwrap();
            let id = self
                .table
                .start(from, to, bytes, lat, now, 0, 1, 7, payload());
            let (links, n) = self.table.links_of(id);
            self.table
                .recompute(&links[..n], now, &self.net, &mut self.out);
            for (f, g, at) in self.out.drain(..) {
                self.deadline.insert(f, (g, at));
            }
            id
        }

        /// Pop the earliest live deadline, complete it, recompute.
        fn step(&mut self) -> Option<(u32, SimTime)> {
            let (&f, &(g, at)) = self.deadline.iter().min_by_key(|(_, (_, at))| *at)?;
            self.deadline.remove(&f);
            let cf = self
                .table
                .complete(f, g)
                .expect("latest generation is live");
            self.table
                .recompute(&cf.links[..cf.nlinks], at, &self.net, &mut self.out);
            for (f2, g2, at2) in self.out.drain(..) {
                self.deadline.insert(f2, (g2, at2));
            }
            Some((f, at))
        }
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let (net, a, b) = two_site_net();
        let mut h = Harness::new(net);
        // 1.25e6 bytes over a 1.25e6 B/s WAN bottleneck = 1 s drain,
        // plus 30 ms propagation.
        h.start(a, b, 1_250_000, SimTime::ZERO);
        let (_, at) = h.step().unwrap();
        assert!(
            (at.as_secs_f64() - 1.030).abs() < 1e-4,
            "got {}",
            at.as_secs_f64()
        );
    }

    #[test]
    fn two_flows_share_the_bottleneck_fairly() {
        let (net, a, b) = two_site_net();
        let mut h = Harness::new(net);
        // Two equal flows through the same WAN pair: each gets half the
        // bandwidth, so both finish at ~2x the lone-flow drain time.
        h.start(a, b, 1_250_000, SimTime::ZERO);
        h.start(a, b, 1_250_000, SimTime::ZERO);
        let (_, t1) = h.step().unwrap();
        let (_, t2) = h.step().unwrap();
        assert!(
            (t1.as_secs_f64() - 2.030).abs() < 1e-3,
            "first got {}",
            t1.as_secs_f64()
        );
        // Once the first finishes its drained tail, the second had already
        // drained too (equal flows drain together).
        assert!(
            (t2.as_secs_f64() - 2.030).abs() < 1e-3,
            "second got {}",
            t2.as_secs_f64()
        );
    }

    #[test]
    fn late_joiner_slows_the_leader_and_deadline_migrates() {
        let (net, a, b) = two_site_net();
        let mut h = Harness::new(net);
        let f0 = h.start(a, b, 1_250_000, SimTime::ZERO);
        // Half way through, a second equal flow joins the bottleneck.
        let half = SimTime::from_micros(500_000);
        h.start(a, b, 1_250_000, half);
        // f0's deadline migrated: 0.5 s at full rate + 1 s at half rate
        // + 30 ms latency = 1.53 s.
        let (first, at) = h.step().unwrap();
        assert_eq!(first, f0);
        assert!(
            (at.as_secs_f64() - 1.530).abs() < 1e-3,
            "got {}",
            at.as_secs_f64()
        );
        // The joiner shares the link until f0's *deadline* (drain end plus
        // the 30 ms propagation tail — capacity frees at completion unless
        // an intervening recompute marks the leader drained): 1.03 s at
        // half rate leaves 606.25 kB, then 0.485 s at full rate + 30 ms
        // latency = 2.045 s. The tail-holding pessimism is bounded by one
        // propagation latency per sharing flow.
        let (_, at2) = h.step().unwrap();
        assert!(
            (at2.as_secs_f64() - 2.045).abs() < 1e-3,
            "got {}",
            at2.as_secs_f64()
        );
    }

    #[test]
    fn disjoint_sites_do_not_interact() {
        let mut net = NetModel::new(0.0);
        let a = net.add_site(SiteSpec::simple(
            "a",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let b = net.add_site(SiteSpec::simple(
            "b",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let mut h = Harness::new(net);
        // Intra-site LAN flows at two different sites: each sees its full
        // LAN capacity (12.5e6 B/s), unaffected by the other.
        h.start(a, a, 1_250_000, SimTime::ZERO);
        h.start(b, b, 1_250_000, SimTime::ZERO);
        let (_, t1) = h.step().unwrap();
        let (_, t2) = h.step().unwrap();
        // 0.1 s drain + 200 µs LAN latency.
        for t in [t1, t2] {
            assert!(
                (t.as_secs_f64() - 0.1002).abs() < 1e-4,
                "got {}",
                t.as_secs_f64()
            );
        }
    }

    #[test]
    fn stale_generation_is_rejected() {
        let (net, a, b) = two_site_net();
        let mut h = Harness::new(net);
        let f0 = h.start(a, b, 1_250_000, SimTime::ZERO);
        let (g0, _) = h.deadline[&f0];
        // A joiner bumps f0's generation; the old deadline must be dead.
        h.start(a, b, 1_250_000, SimTime::from_micros(1000));
        let (g1, _) = h.deadline[&f0];
        assert_ne!(g0, g1);
        assert!(h.table.complete(f0, g0).is_none());
        assert!(h.table.complete(f0, g1).is_some());
        // Double-complete with the once-valid generation is also rejected.
        assert!(h.table.complete(f0, g1).is_none());
    }

    #[test]
    fn unchanged_rate_does_not_migrate_deadlines() {
        let (net, a, b) = two_site_net();
        let mut h = Harness::new(net);
        // A WAN a→b flow and a LAN-only flow at a third site share no
        // links; starting the second must not reschedule the first.
        let f0 = h.start(a, b, 1_250_000, SimTime::ZERO);
        let (g0, _) = h.deadline[&f0];
        let mut out = Vec::new();
        // Recompute seeded on f0's own links with nothing changed: no
        // deadlines should come out (rate epsilon suppression).
        let (links, n) = h.table.links_of(f0);
        h.table
            .recompute(&links[..n], SimTime::from_micros(1000), &h.net, &mut out);
        assert!(out.is_empty(), "spurious reschedules: {out:?}");
        let (g1, _) = h.deadline[&f0];
        assert_eq!(g0, g1);
    }

    fn two_site_net() -> (NetModel, SiteId, SiteId) {
        let mut net = NetModel::new(0.0);
        let a = net.add_site(SiteSpec::simple(
            "a",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let b = net.add_site(SiteSpec::simple(
            "b",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        (net, a, b)
    }

    #[test]
    fn lan_faster_than_wan() {
        let (net, a, b) = two_site_net();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let lan = net.delay(a, a, 1000, SimTime::ZERO, &mut rng).unwrap();
        let wan = net.delay(a, b, 1000, SimTime::ZERO, &mut rng).unwrap();
        assert!(lan < wan, "lan {lan:?} should beat wan {wan:?}");
    }

    #[test]
    fn wan_delay_matches_model() {
        let (net, a, b) = two_site_net();
        let mut rng = Xoshiro256::seed_from_u64(1);
        // 10ms + 20ms latency + 1250 bytes / 1.25 MB/s = 31 ms.
        let d = net.delay(a, b, 1250, SimTime::ZERO, &mut rng).unwrap();
        assert!(
            (d.as_secs_f64() - 0.031).abs() < 1e-6,
            "got {:?}",
            d.as_secs_f64()
        );
    }

    #[test]
    fn larger_messages_take_longer() {
        let (net, a, b) = two_site_net();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let small = net.delay(a, b, 100, SimTime::ZERO, &mut rng).unwrap();
        let big = net.delay(a, b, 1_000_000, SimTime::ZERO, &mut rng).unwrap();
        assert!(big > small * 10);
    }

    #[test]
    fn load_inflates_delay() {
        let mut net = NetModel::new(0.0);
        let a = net.add_site(SiteSpec {
            name: "loaded".into(),
            lan_latency: SimDuration::from_micros(200),
            lan_bandwidth: 12.5e6,
            wan_latency: SimDuration::from_millis(10),
            wan_bandwidth: 1.25e6,
            load: Box::new(SpikeLoad {
                start: SimTime::from_secs(100),
                end: SimTime::from_secs(200),
                level: 0.9,
            }),
        });
        let b = net.add_site(SiteSpec::simple(
            "calm",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let mut rng = Xoshiro256::seed_from_u64(1);
        let before = net
            .delay(a, b, 1000, SimTime::from_secs(50), &mut rng)
            .unwrap();
        let during = net
            .delay(a, b, 1000, SimTime::from_secs(150), &mut rng)
            .unwrap();
        assert!(
            during.as_secs_f64() > 5.0 * before.as_secs_f64(),
            "90% load should inflate delay ~10x: {before:?} -> {during:?}"
        );
    }

    #[test]
    fn pairwise_partition_drops_only_that_pair() {
        let (mut net, a, b) = two_site_net();
        let c = net.add_site(SiteSpec::simple(
            "c",
            SimDuration::from_millis(5),
            1.25e6,
            0.0,
        ));
        net.add_partition(Partition {
            a,
            b: Some(b),
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        let mut rng = Xoshiro256::seed_from_u64(1);
        let t_in = SimTime::from_secs(15);
        assert!(net.delay(a, b, 10, t_in, &mut rng).is_none());
        assert!(net.delay(b, a, 10, t_in, &mut rng).is_none());
        assert!(net.delay(a, c, 10, t_in, &mut rng).is_some());
        assert!(net
            .delay(a, b, 10, SimTime::from_secs(25), &mut rng)
            .is_some());
    }

    #[test]
    fn isolation_partition_cuts_all_wan_but_not_lan() {
        let (mut net, a, b) = two_site_net();
        net.add_partition(Partition {
            a,
            b: None,
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
        });
        let mut rng = Xoshiro256::seed_from_u64(1);
        assert!(net
            .delay(a, b, 10, SimTime::from_secs(5), &mut rng)
            .is_none());
        // Intra-site traffic survives isolation.
        assert!(net
            .delay(a, a, 10, SimTime::from_secs(5), &mut rng)
            .is_some());
    }

    #[test]
    fn jitter_varies_but_never_shrinks_below_base() {
        let mut net = NetModel::new(0.5);
        let a = net.add_site(SiteSpec::simple(
            "a",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let b = net.add_site(SiteSpec::simple(
            "b",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let mut rng = Xoshiro256::seed_from_u64(3);
        let base = 0.02 + 100.0 / 1.25e6;
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let d = net.delay(a, b, 100, SimTime::ZERO, &mut rng).unwrap();
            assert!(d.as_secs_f64() >= base - 1e-9);
            assert!(d.as_secs_f64() <= base * 1.5 + 1e-9);
            distinct.insert(d.as_micros());
        }
        assert!(distinct.len() > 16, "jitter should vary the delay");
    }

    #[test]
    fn impairment_window_affects_only_its_site_and_interval() {
        let (net, a, b) = two_site_net();
        let _ = net;
        let w = Impairment {
            site: a,
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
            drop: 0.5,
            duplicate: 0.0,
        };
        assert!(w.affects(a, b, SimTime::from_secs(15)));
        assert!(w.affects(b, a, SimTime::from_secs(15)));
        assert!(w.affects(a, a, SimTime::from_secs(15)), "intra-site too");
        assert!(!w.affects(b, b, SimTime::from_secs(15)));
        assert!(!w.affects(a, b, SimTime::from_secs(5)));
        assert!(!w.affects(a, b, SimTime::from_secs(20)), "until exclusive");
    }

    #[test]
    fn impair_drops_and_duplicates_at_roughly_configured_rates() {
        let (mut net, a, b) = two_site_net();
        net.add_impairment(Impairment {
            site: a,
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            drop: 0.3,
            duplicate: 0.2,
        });
        assert!(net.has_impairments());
        let mut rng = Xoshiro256::seed_from_u64(5);
        let (mut drops, mut dups) = (0, 0);
        let n = 10_000;
        for _ in 0..n {
            let (d, dup) = net.impair(a, b, SimTime::from_secs(50), &mut rng);
            drops += d as u32;
            dups += dup as u32;
        }
        let drop_rate = drops as f64 / n as f64;
        // Duplicates are only reported for surviving messages.
        let dup_rate = dups as f64 / n as f64;
        assert!((drop_rate - 0.3).abs() < 0.02, "drop rate {drop_rate}");
        assert!((dup_rate - 0.2 * 0.7).abs() < 0.02, "dup rate {dup_rate}");
        // Outside the window, nothing happens and nothing is sampled.
        let before = rng.clone().next_u64();
        assert_eq!(
            net.impair(b, b, SimTime::from_secs(50), &mut rng),
            (false, false)
        );
        assert_eq!(
            rng.next_u64(),
            before,
            "unaffected traffic must not consume rng draws"
        );
    }

    #[test]
    fn no_impairments_means_no_effect() {
        let (net, a, b) = two_site_net();
        assert!(!net.has_impairments());
        let mut rng = Xoshiro256::seed_from_u64(7);
        assert_eq!(net.impair(a, b, SimTime::ZERO, &mut rng), (false, false));
    }

    #[test]
    fn reachable_reflects_partitions() {
        let (mut net, a, b) = two_site_net();
        assert!(net.reachable(a, b, SimTime::ZERO));
        net.add_partition(Partition {
            a,
            b: Some(b),
            from: SimTime::ZERO,
            until: SimTime::from_secs(1),
        });
        assert!(!net.reachable(a, b, SimTime::ZERO));
        assert!(
            net.reachable(a, a, SimTime::ZERO),
            "same site always reachable"
        );
    }
}
