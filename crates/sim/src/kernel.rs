//! Discrete-event kernel.
//!
//! Every simulated EveryWare component — Gossip servers, schedulers,
//! persistent state managers, application clients, infrastructure
//! supervisors — is a [`Process`]: a single-threaded state machine driven by
//! delivered [`Event`]s. This mirrors the paper's implementation rule that
//! all services be single-threaded ("all of the application-specific
//! services were single threaded", §5.1): a process never blocks, it only
//! reacts, sets timers, sends messages, and requests compute.
//!
//! Determinism: events are ordered by `(time, sequence-number)`; all
//! randomness flows from per-process streams derived from one master seed.
//! Two runs with the same seed produce identical event orders and metrics.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ew_telemetry::{BinnedSeries, CounterId, GaugeId, HistogramId, Registry, SeriesId, SpanId};

use crate::hashers::FxHashMap;
use crate::host::{HostId, HostTable};
use crate::net::{FlowDeadline, FlowTable, NetModel, NetworkModel, SiteId, FLOW_MTU_BYTES};
use crate::payload::Payload;
use crate::queue::EventQueue;
use crate::rng::{StreamSeeder, Xoshiro256};
use crate::time::{SimDuration, SimTime};

/// Identifies a process for the lifetime of a simulation. Ids are never
/// reused; a dead process's id stays dead.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub u32);

/// Everything a process can be woken by.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// First event a process receives, immediately after spawn.
    Started,
    /// A timer set with [`Ctx::set_timer`] fired.
    Timer {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// A message arrived from another process.
    Message {
        /// Sending process.
        from: ProcessId,
        /// Application-level message type (the lingua franca rides here).
        mtype: u32,
        /// Opaque payload bytes (shared, not copied, on fan-out sends).
        payload: Payload,
    },
    /// A compute request issued with [`Ctx::compute`] finished.
    ComputeDone {
        /// The tag passed to `compute`.
        tag: u64,
        /// The operation count that was executed.
        ops: u64,
    },
    /// A watched host changed availability (delivered only to processes
    /// registered via [`Ctx::watch_host`]; processes *on* a dying host are
    /// killed without warning, as Condor's vanilla universe does, §5.4).
    HostStateChanged {
        /// The host in question.
        host: HostId,
        /// `true` if the host just came up.
        up: bool,
    },
}

/// A simulated component. Implementations must also be `Any` so drivers can
/// inspect final state after a run via [`Sim::with_process`].
pub trait Process: Any {
    /// React to one event. Never blocks.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event);
}

/// One queue entry: what happens when it surfaces.
#[derive(Debug)]
enum Entry {
    /// Hand an event to a process, behind the alive/host-up gate.
    Deliver(ProcessId, Event),
    /// Transition `.1` of a host's availability calendar.
    HostTransition(HostId, usize),
    /// The earliest drain deadline among the in-flight flow-mode transfers
    /// when it was armed (see [`Sim::arm_flow_wake`]); a wake that finds
    /// no flow due is swallowed at dispatch. Never appears in packet-mode
    /// runs, so packet golden hashes are untouched by construction.
    FlowWake,
}

/// One row of the process table. A process's id is its index, and ids are
/// never reused. A process that dies keeps only its host and its flag: the
/// death (host down, `Ctx::exit`, or a host that is down when `Started`
/// comes due) drops its `live` state for good.
struct Slot {
    host: HostId,
    alive: bool,
    live: Option<Box<Live>>,
}

/// What only a live process reads. The handler is out of it only while it
/// handles an event.
struct Live {
    name: String,
    rng: Xoshiro256,
    handler: Option<Box<dyn Process>>,
}

/// Metrics collected during a run; the raw material for every figure in
/// EXPERIMENTS.md.
///
/// A read-only, string-keyed view of [`ew_telemetry::Registry`] for drivers
/// and tests. Recording goes through the interned handles handed out by
/// [`Ctx`].
#[derive(Default)]
pub struct Metrics {
    reg: Registry,
}

impl Metrics {
    /// Current counter value (zero if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.reg
            .counter_lookup(name)
            .map(|id| self.reg.counter_value(id))
            .unwrap_or(0.0)
    }

    /// A series' bins (`None` if the name was never interned). Only a
    /// series declared with [`Sim::declare_series`] holds any.
    pub fn series(&self, name: &str) -> Option<&BinnedSeries> {
        self.reg
            .series_lookup(name)
            .map(|id| self.reg.series_get(id))
    }
}

/// Kernel-owned metric handles, interned once at [`Sim::new`] so the
/// send/dispatch hot paths never touch a string.
struct KernelTele {
    send_to_unknown: CounterId,
    dropped_partition: CounterId,
    dropped_impaired: CounterId,
    duplicated: CounterId,
    messages: CounterId,
    bytes: CounterId,
    bytes_copy_saved: CounterId,
    came_up: CounterId,
    went_down: CounterId,
    killed_by_host_down: CounterId,
    exited: CounterId,
    dropped_dead_dest: CounterId,
    timers_cancelled: CounterId,
    batch_dispatches: CounterId,
    batch_ties: CounterId,
    flows_started: CounterId,
    flows_completed: CounterId,
    flows_stale: CounterId,
    flows_rescheduled: CounterId,
    flows_packets_avoided: CounterId,
    flow_dirty_links: CounterId,
    queue_depth: GaugeId,
    flows_active: GaugeId,
    batch_len_max: GaugeId,
    dispatch_span: SpanId,
}

impl KernelTele {
    fn intern(reg: &mut Registry) -> Self {
        KernelTele {
            send_to_unknown: reg.counter("net.send_to_unknown"),
            dropped_partition: reg.counter("net.dropped_partition"),
            dropped_impaired: reg.counter("net.dropped_impaired"),
            duplicated: reg.counter("net.duplicated"),
            messages: reg.counter("net.messages"),
            bytes: reg.counter("net.bytes"),
            bytes_copy_saved: reg.counter("net.bytes_copy_saved"),
            came_up: reg.counter("hosts.came_up"),
            went_down: reg.counter("hosts.went_down"),
            killed_by_host_down: reg.counter("procs.killed_by_host_down"),
            exited: reg.counter("procs.exited"),
            dropped_dead_dest: reg.counter("events.dropped_dead_dest"),
            timers_cancelled: reg.counter("kernel.timers_cancelled"),
            batch_dispatches: reg.counter("kernel.batch_dispatches"),
            batch_ties: reg.counter("kernel.batch_ties"),
            flows_started: reg.counter("net.flows_started"),
            flows_completed: reg.counter("net.flows_completed"),
            flows_stale: reg.counter("net.flows_stale_deadlines"),
            flows_rescheduled: reg.counter("net.flows_reschedules"),
            flows_packets_avoided: reg.counter("net.flows_packets_avoided"),
            flow_dirty_links: reg.counter("net.flow_dirty_links"),
            queue_depth: reg.gauge("kernel.queue_depth"),
            flows_active: reg.gauge("net.flows_active"),
            batch_len_max: reg.gauge("kernel.batch_len_max"),
            dispatch_span: reg.span("kernel.dispatch"),
        }
    }
}

/// Stable tag identifying an [`Event`] variant in trace records.
fn event_tag(ev: &Event) -> u64 {
    match ev {
        Event::Started => 0,
        Event::Timer { .. } => 1,
        Event::Message { .. } => 2,
        Event::ComputeDone { .. } => 3,
        Event::HostStateChanged { .. } => 4,
    }
}

/// Arbitrary non-zero seed (the FNV-1a offset basis); the event-order
/// hash starts here.
const ORDER_HASH_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one 64-bit word into the running event-order hash: xor, a full
/// multiplicative mix, and a rotation so high bits reach low positions.
/// One multiply per word keeps the always-on fold invisible next to the
/// rest of the dispatch loop (a byte-at-a-time FNV chain cost ~30 ns per
/// event, a measurable share of sparse-queue scenarios).
#[inline]
fn order_hash_fold(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(23)
}

/// Fold one dispatched entry — `(time, seq, target, event-variant)`, with
/// `u64::MAX` for an entry that carries no event — into the running order
/// hash. A host transition's target folds its host and direction.
#[inline]
fn fold_entry(h: u64, t_us: u64, seq: u64, entry: &Entry, hosts: &HostTable) -> u64 {
    let (target, tag) = match *entry {
        Entry::Deliver(pid, ref ev) => ((pid.0 as u64) << 3 | 0b001, event_tag(ev)),
        Entry::HostTransition(hid, i) => {
            let up = hosts.get(hid).availability.transitions[i].1;
            ((hid.0 as u64) << 3 | (up as u64) << 1 | 0b100, u64::MAX)
        }
        Entry::FlowWake => (0b010, u64::MAX),
    };
    let mut h = order_hash_fold(h, t_us);
    h = order_hash_fold(h, seq);
    h = order_hash_fold(h, target);
    order_hash_fold(h, tag)
}

/// A calendar transition the kernel applies before the first event: it is
/// never filed in the queue and draws no seq.
const DOWN_AT_START: (SimTime, bool) = (SimTime::ZERO, false);

/// The simulator: owns the network, hosts, processes, queue, and metrics.
pub struct Sim {
    now: SimTime,
    seq: u64,
    /// Pending entries, totally ordered by `(time, seq)`; the golden
    /// event-order-hash tests pin the order.
    queue: EventQueue<Entry>,
    net: NetModel,
    hosts: HostTable,
    host_up: Vec<bool>,
    /// The process table, indexed by [`ProcessId`].
    procs: Vec<Slot>,
    watchers: FxHashMap<HostId, Vec<ProcessId>>,
    seeder: StreamSeeder,
    net_rng: Xoshiro256,
    metrics: Metrics,
    tele: KernelTele,
    transitions_scheduled: bool,
    /// Each host's next availability instant not filed yet, earliest
    /// first: `(time, the seq reserved for its first transition, host,
    /// index in the calendar)`.
    calendar: BinaryHeap<Reverse<(SimTime, u64, u32, usize)>>,
    /// Calendar transitions filed in the queue and not yet dispatched.
    calendar_filed: u64,
    /// Calendar transitions reserved but not yet filed in the queue.
    calendar_unfiled: u64,
    events_dispatched: u64,
    order_hash: u64,
    /// Lazy timer cancellation: `(pid, tag)` → sequence-number watermark.
    /// A pending `Event::Timer { tag }` for `pid` whose seq is below the
    /// watermark was armed before the cancel and is swallowed at dispatch.
    /// Entries are deliberately never removed when a post-cancel timer
    /// fires: a pre-cancel timer may still be in flight behind it.
    cancelled: FxHashMap<(u32, u64), u64>,
    /// In-flight flow-mode transfers (empty forever in packet mode).
    flows: FlowTable,
    /// Reusable scratch for deadlines coming out of a fair-share
    /// recompute, filed by [`Sim::flush_flow_resched`].
    flow_resched: Vec<FlowDeadline>,
    /// Current drain deadline of each in-flight flow, by flow id:
    /// `(generation, deadline µs)`, `u64::MAX` for a free id. A recompute
    /// overwrites the entry in place, so a superseded deadline costs no
    /// queue entry.
    flow_due: Vec<(u32, u64)>,
    /// Time of the pending `FlowWake` entry that covers `flow_due` (it is
    /// at or before every deadline there); `u64::MAX` when none is pending.
    flow_wake: u64,
    /// Reusable dispatch scratch: one same-tick run at a time, emptied
    /// before being handed back to the queue.
    dispatch_buf: Vec<(u64, u64, Entry)>,
    /// Largest same-tick run dispatched so far (gauge `kernel.batch_len_max`).
    batch_len_max: u64,
}

impl Sim {
    fn push(&mut self, time: SimTime, entry: Entry) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(time.as_micros(), seq, entry);
    }

    /// Begin one flow-mode transfer: register it and mark the links it
    /// touches dirty. The flush after the dispatched entry reruns the
    /// fair-share computation over them (which may shrink the rates of
    /// every flow sharing them) and schedules the resulting deadlines, so
    /// every membership change one entry makes costs one recompute and
    /// deadlines exist before time can advance.
    #[allow(clippy::too_many_arguments)]
    fn start_flow(
        &mut self,
        from_site: SiteId,
        to_site: SiteId,
        bytes: usize,
        latency: SimDuration,
        from: ProcessId,
        to: ProcessId,
        mtype: u32,
        payload: Payload,
    ) {
        let now = self.now;
        let id = self.flows.start(
            from_site, to_site, bytes, latency, now, from.0, to.0, mtype, payload,
        );
        let (links, nlinks) = self.flows.links_of(id);
        self.flows.mark_dirty(&links[..nlinks]);
        let started = self.tele.flows_started;
        self.metrics.reg.inc(started);
        let avoided = self.tele.flows_packets_avoided;
        let packets = (bytes as u64).div_ceil(FLOW_MTU_BYTES);
        self.metrics.reg.add(avoided, packets as f64);
        let active = self.tele.flows_active;
        let n = self.flows.active() as f64;
        self.metrics.reg.set_gauge(active, n);
    }

    /// File every deadline produced by a fair-share recompute in
    /// `flow_due`, clear the scratch, and make sure a wake is pending for
    /// the earliest one. A bulk world reschedules every flow of a
    /// bottleneck on every membership change and all but the earliest of
    /// those deadlines are superseded before they fire, so only that one
    /// gets a queue entry.
    fn flush_flow_resched(&mut self) {
        let n = self.flow_resched.len();
        for &(flow, generation, at) in &self.flow_resched {
            let i = flow as usize;
            if i >= self.flow_due.len() {
                self.flow_due.resize(i + 1, (0, u64::MAX));
            }
            self.flow_due[i] = (generation, at.as_micros());
        }
        self.flow_resched.clear();
        if n > 0 {
            let id = self.tele.flows_rescheduled;
            self.metrics.reg.add(id, n as f64);
        }
        self.arm_flow_wake();
    }

    /// The in-flight flow that finishes first, as `(flow, generation,
    /// deadline µs)`; the lowest flow id wins a tie. A scan over the flow
    /// ids in use, the same order of work as the recompute that precedes
    /// every call.
    fn next_flow_due(&self) -> Option<(u32, u32, u64)> {
        let mut best: Option<(u32, u32, u64)> = None;
        for (flow, &(generation, at)) in self.flow_due.iter().enumerate() {
            if at < best.map_or(u64::MAX, |b| b.2) {
                best = Some((flow as u32, generation, at));
            }
        }
        best
    }

    /// Keep one `FlowWake` entry pending at or before the earliest flow
    /// deadline. When a recompute moves that deadline earlier a new wake
    /// is pushed and the old one is left to fire and find nothing due.
    fn arm_flow_wake(&mut self) {
        if let Some((_, _, at)) = self.next_flow_due() {
            if at < self.flow_wake {
                self.flow_wake = at;
                self.push(SimTime::from_micros(at), Entry::FlowWake);
            }
        }
    }

    /// Run one fair-share recompute seeded with every link whose flow
    /// membership changed since the last flush, and schedule the resulting
    /// deadlines. Called by [`Sim::dispatch_entry`] after every entry that
    /// dirtied a link — the one recompute site — so deadlines always exist
    /// before simulated time advances.
    fn flush_dirty_flows(&mut self) {
        let n = self
            .flows
            .recompute_dirty(self.now, &self.net, &mut self.flow_resched);
        if n > 0 {
            let id = self.tele.flow_dirty_links;
            self.metrics.reg.add(id, n as f64);
        }
        self.flush_flow_resched();
    }

    /// Serve a `FlowWake` entry at `t_us`: complete and deliver the flow
    /// that is due, if any, and keep a wake armed.
    fn serve_flow_wake(&mut self, t_us: u64) {
        if t_us == self.flow_wake {
            self.flow_wake = u64::MAX;
        }
        match self.next_flow_due() {
            Some((flow, generation, at)) if at <= t_us => {
                self.flow_due[flow as usize].1 = u64::MAX;
                let cf = self
                    .flows
                    .complete(flow, generation)
                    .expect("flow_due holds live generations");
                let done = self.tele.flows_completed;
                self.metrics.reg.inc(done);
                let active = self.tele.flows_active;
                let n = self.flows.active() as f64;
                self.metrics.reg.set_gauge(active, n);
                // Capacity freed up: the flush after the entry re-shares
                // it among the survivors on this flow's links.
                self.flows.mark_dirty(&cf.links[..cf.nlinks]);
                self.deliver(
                    ProcessId(cf.to),
                    Event::Message {
                        from: ProcessId(cf.from),
                        mtype: cf.mtype,
                        payload: cf.payload,
                    },
                );
            }
            _ => {
                // The deadline this wake was armed for moved (a recompute
                // superseded it) or a duplicate wake already served it.
                let id = self.tele.flows_stale;
                self.metrics.reg.inc(id);
            }
        }
        // A completion dirties its links and the flush after the entry
        // re-arms; a wake that found nothing due re-arms here.
        if !self.flows.has_dirty() {
            self.arm_flow_wake();
        }
    }
}

/// The per-event capability handle passed to [`Process::on_event`].
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    me: ProcessId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// This process's host.
    pub fn host(&self) -> HostId {
        self.sim.procs[self.me.0 as usize].host
    }

    /// This process's registered name.
    pub fn name(&self) -> &str {
        &self.live().name
    }

    /// This process's deterministic random stream.
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        let live = self.sim.procs[self.me.0 as usize].live.as_deref_mut();
        &mut live.expect("a handling process is live").rng
    }

    fn live(&self) -> &Live {
        let live = self.sim.procs[self.me.0 as usize].live.as_deref();
        live.expect("a handling process is live")
    }

    /// Deliver `Event::Timer { tag }` to this process after `after`.
    ///
    /// Timers armed with the same tag can be revoked with
    /// [`Ctx::cancel_timer`]; processes that prefer the classic pattern can
    /// still carry a generation number in the tag and ignore stale firings.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        let at = self.sim.now + after;
        self.sim
            .push(at, Entry::Deliver(self.me, Event::Timer { tag }));
    }

    /// Cancel every `Event::Timer { tag }` this process armed *before* this
    /// call. Cancellation is lazy (O(1)): the entries stay in the queue and
    /// are swallowed when they surface, counted by `kernel.timers_cancelled`.
    /// Timers armed with the same tag *after* this call fire normally, so
    /// cancel-then-rearm implements deadline adjustment.
    pub fn cancel_timer(&mut self, tag: u64) {
        let watermark = self.sim.seq;
        self.sim.cancelled.insert((self.me.0, tag), watermark);
    }

    /// Send a message to another process through the network model.
    ///
    /// Delivery is best-effort, exactly as the paper's TCP-without-keepalive
    /// transport was in practice: a partition drops the message silently, a
    /// dead destination swallows it, and the sender discovers the loss only
    /// through its own (forecast-derived) time-outs.
    ///
    /// The payload is anything convertible to a shared [`Payload`]: a
    /// `Vec<u8>` moves its buffer in, and a cloned `Payload` (the fan-out
    /// pattern — build once, send to N peers) shares one allocation across
    /// all in-flight copies.
    pub fn send(&mut self, to: ProcessId, mtype: u32, payload: impl Into<Payload>) {
        let payload = payload.into();
        let sim = &mut *self.sim;
        let from_host = sim.procs[self.me.0 as usize].host;
        let Some(to_slot) = sim.procs.get(to.0 as usize) else {
            sim.metrics.reg.inc(sim.tele.send_to_unknown);
            return;
        };
        let from_site = sim.hosts.get(from_host).site;
        let to_site = sim.hosts.get(to_slot.host).site;
        let bytes = payload.len() + 32; // packet header overhead
        let now = sim.now;
        // Impairment sampling is gated behind `has_impairments` so worlds
        // without lossy-link windows draw nothing from the net rng here
        // and stay bit-identical to pre-impairment kernels.
        let (imp_drop, imp_dup) = if sim.net.has_impairments() {
            sim.net.impair(from_site, to_site, now, &mut sim.net_rng)
        } else {
            (false, false)
        };
        if imp_drop {
            sim.metrics.reg.inc(sim.tele.dropped_impaired);
            return;
        }
        // Flow mode, bulk transfer: the transfer drains through shared
        // links at a max-min fair rate instead of taking a one-shot sampled
        // delay. One flow costs O(sharing-set) deadline work total, however
        // many MTUs it spans. Messages that fit one MTU (the RPC traffic
        // fair-sharing models poorly and recomputes made expensive) take a
        // sampled delay, which works identically in either network mode.
        let flow = sim.net.model() == NetworkModel::Flow && bytes as u64 > FLOW_MTU_BYTES;
        let route = if flow {
            sim.net.flow_latency(from_site, to_site, now)
        } else {
            sim.net
                .delay(from_site, to_site, bytes, now, &mut sim.net_rng)
        };
        let Some(d) = route else {
            sim.metrics.reg.inc(sim.tele.dropped_partition);
            return;
        };
        sim.metrics.reg.inc(sim.tele.messages);
        sim.metrics.reg.add(sim.tele.bytes, bytes as f64);
        if payload.is_shared() {
            // Another live reference to this buffer exists (fan-out master
            // copy or a sibling in-flight message): a Vec-payload kernel
            // would have deep-copied here.
            let saved = payload.len() as f64;
            sim.metrics.reg.add(sim.tele.bytes_copy_saved, saved);
        }
        let me = self.me;
        if flow {
            if imp_dup {
                // The duplicate is its own flow: it contends for the same
                // links, so both copies slow each other down — closer to a
                // real retransmission than an independent delay sample.
                sim.metrics.reg.inc(sim.tele.duplicated);
                let dup = payload.clone();
                sim.start_flow(from_site, to_site, bytes, d, me, to, mtype, dup);
            }
            sim.start_flow(from_site, to_site, bytes, d, me, to, mtype, payload);
            return;
        }
        if imp_dup {
            // The duplicate shares the payload buffer and takes an
            // independently sampled flight time.
            let d2 = sim
                .net
                .delay(from_site, to_site, bytes, now, &mut sim.net_rng);
            if let Some(d2) = d2 {
                sim.metrics.reg.inc(sim.tele.duplicated);
                let dup = Event::Message {
                    from: me,
                    mtype,
                    payload: payload.clone(),
                };
                sim.push(now + d2, Entry::Deliver(to, dup));
            }
        }
        let ev = Event::Message {
            from: me,
            mtype,
            payload,
        };
        sim.push(now + d, Entry::Deliver(to, ev));
    }

    /// Execute `ops` useful operations on this host; `Event::ComputeDone`
    /// arrives when they finish. The host's speed and instantaneous
    /// background load determine the duration.
    pub fn compute(&mut self, ops: u64, tag: u64) {
        let now = self.sim.now;
        let at = now + self.sim.hosts.get(self.host()).compute_time(ops, now);
        let ev = Event::ComputeDone { tag, ops };
        self.sim.push(at, Entry::Deliver(self.me, ev));
    }

    /// Spawn a new process on `host` (see [`Sim::spawn`]). It receives
    /// `Event::Started` at the current instant, after the current run of
    /// same-tick entries. The id is valid immediately.
    pub fn spawn(&mut self, name: &str, host: HostId, p: Box<dyn Process>) -> ProcessId {
        self.sim.spawn(name, host, p)
    }

    /// Subscribe this process to `HostStateChanged` events for `host`.
    pub fn watch_host(&mut self, host: HostId) {
        let me = self.me;
        let list = self.sim.watchers.entry(host).or_default();
        if !list.contains(&me) {
            list.push(me);
        }
    }

    /// Terminate this process now: the current handler runs to its end
    /// (its name and rng still readable), the process's state is dropped
    /// when it returns, and nothing is delivered to the process after it.
    pub fn exit(&mut self) {
        let slot = &mut self.sim.procs[self.me.0 as usize];
        if slot.alive {
            slot.alive = false;
            self.sim.metrics.reg.inc(self.sim.tele.exited);
        }
    }

    /// Whether `pid` is currently alive. Grid components cannot actually
    /// observe this (they must time out); it is intended for infrastructure
    /// supervisor models, which stand in for e.g. the Condor central
    /// manager.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.sim.process_alive(pid)
    }

    /// Whether `host` is currently up (again: supervisor-only knowledge).
    pub fn host_up(&self, host: HostId) -> bool {
        self.sim.host_up[host.0 as usize]
    }

    // ---- telemetry: interned handles ----
    //
    // Intern once (normally on `Event::Started`), store the copyable ids in
    // process state, and record through them on the hot path.

    /// Intern a counter name, returning a copyable handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.sim.metrics.reg.counter(name)
    }

    /// Add `v` to an interned counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: f64) {
        self.sim.metrics.reg.add(id, v);
    }

    /// Add 1 to an interned counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.sim.metrics.reg.inc(id);
    }

    /// Intern a time-series name, returning a copyable handle. What is
    /// recorded on it is kept only if a reader declared the series
    /// ([`Sim::declare_series`]).
    pub fn series(&mut self, name: &str) -> SeriesId {
        self.sim.metrics.reg.series(name)
    }

    /// Add `v` to the current simulated time's bin of an interned series.
    #[inline]
    pub fn record(&mut self, id: SeriesId, v: f64) {
        let t_us = self.sim.now.as_micros();
        self.sim.metrics.reg.record(id, t_us, v);
    }

    /// Intern a gauge name, returning a copyable handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.sim.metrics.reg.gauge(name)
    }

    /// Set an interned gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.sim.metrics.reg.set_gauge(id, v);
    }

    /// Intern a histogram name, returning a copyable handle.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        self.sim.metrics.reg.histogram(name)
    }

    /// Record one observation into an interned histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.sim.metrics.reg.observe(id, v);
    }

    /// Intern a span name, returning a copyable handle.
    pub fn span(&mut self, name: &str) -> SpanId {
        self.sim.metrics.reg.span(name)
    }

    /// Record a span mark at the current simulated time (no-op unless
    /// tracing is enabled; the actor is this process).
    #[inline]
    pub fn mark(&mut self, span: SpanId, tag: u64) {
        let t_us = self.sim.now.as_micros();
        let actor = self.me.0 as u64;
        self.sim.metrics.reg.mark(t_us, span, actor, tag);
    }
}

/// Outcome of a [`Sim::run_until`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Events dispatched during this call.
    pub events: u64,
    /// Simulated time at return: `max` of the clock before the call and
    /// its `t_end`.
    pub now: SimTime,
}

impl Sim {
    /// Build a simulator over the given network and host table, seeding all
    /// randomness from `seed`.
    ///
    /// Panics, naming the host, if an availability calendar's instants
    /// ever decrease: the kernel files the calendars in order, one tick at
    /// a time.
    pub fn new(net: NetModel, hosts: HostTable, seed: u64) -> Self {
        for (_, spec) in hosts.iter() {
            let sorted = spec.availability.transitions.is_sorted_by_key(|tr| tr.0);
            assert!(sorted, "host {}: calendar out of order", spec.name);
        }
        let seeder = StreamSeeder::new(seed);
        let net_rng = seeder.stream_named("kernel.net");
        let mut metrics = Metrics::default();
        let tele = KernelTele::intern(&mut metrics.reg);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            flows: FlowTable::new(net.site_count()),
            net,
            host_up: vec![true; hosts.len()],
            hosts,
            procs: Vec::new(),
            watchers: FxHashMap::default(),
            seeder,
            net_rng,
            metrics,
            tele,
            transitions_scheduled: false,
            calendar: BinaryHeap::new(),
            calendar_filed: 0,
            calendar_unfiled: 0,
            events_dispatched: 0,
            order_hash: ORDER_HASH_BASIS,
            cancelled: FxHashMap::default(),
            flow_resched: Vec::new(),
            flow_due: Vec::new(),
            flow_wake: u64::MAX,
            dispatch_buf: Vec::new(),
            batch_len_max: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Running hash over every dispatched `(time, seq, target,
    /// event-variant)` tuple. Two runs dispatch the same events in the same
    /// order if and only if their hashes agree — the guard that the event
    /// queue's total order survives implementation changes.
    pub fn event_order_hash(&self) -> u64 {
        self.order_hash
    }

    /// Spawn a process on `host`, before, between or (through
    /// [`Ctx::spawn`]) during runs. It receives `Event::Started` at the
    /// current instant, after every entry already queued for that instant.
    /// The id is valid immediately.
    pub fn spawn(&mut self, name: &str, host: HostId, p: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(Slot {
            host,
            alive: true,
            live: Some(Box::new(Live {
                name: name.to_string(),
                rng: self.seeder.stream(0x5eed_0000_0000_0000 ^ pid.0 as u64),
                handler: Some(p),
            })),
        });
        self.push(self.now, Entry::Deliver(pid, Event::Started));
        pid
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The telemetry registry behind [`Sim::metrics`] (histograms, gauges,
    /// health reports, span tracing).
    pub fn telemetry(&self) -> &Registry {
        &self.metrics.reg
    }

    /// Consume the simulator, yielding its registry. Sim-farm cells use
    /// this after the run: outcome numbers are extracted first, then the
    /// whole registry travels back to the caller for the canonical
    /// [`Registry::merge`] fold.
    pub fn into_registry(self) -> Registry {
        self.metrics.reg
    }

    /// Keep the series `name`, binned at `width`: from now on each sample
    /// recorded on it is added to bin `t / width`. Samples on a series that
    /// no reader declared are discarded. Panics if `name` was already
    /// declared at another width.
    pub fn declare_series(&mut self, name: &str, width: SimDuration) {
        self.metrics.reg.declare_series(name, width.as_micros());
    }

    /// Start collecting span trace records into a ring of `capacity`
    /// entries. Tracing is purely observational: a run is bit-identical
    /// with tracing on or off.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.metrics.reg.enable_tracing(capacity);
    }

    /// Export collected span records as deterministic JSONL (empty string
    /// when tracing was never enabled).
    pub fn export_trace_jsonl(&self) -> String {
        self.metrics.reg.export_trace_jsonl()
    }

    /// Whether a process is alive.
    pub fn process_alive(&self, pid: ProcessId) -> bool {
        self.procs.get(pid.0 as usize).is_some_and(|s| s.alive)
    }

    /// Host table (read-only).
    pub fn hosts(&self) -> &HostTable {
        &self.hosts
    }

    /// Inspect a process's concrete state (used by experiment drivers to
    /// read final counters). Returns `None` if the process is gone or has a
    /// different concrete type.
    pub fn with_process<T: 'static, R>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let live = self.procs.get(pid.0 as usize)?.live.as_deref()?;
        let b = live.handler.as_ref()?;
        let any: &dyn Any = b.as_ref();
        any.downcast_ref::<T>().map(f)
    }

    /// Reserve a seq for every availability transition, host by host in
    /// table order (a `(ZERO, false)` draws none: it is applied at once),
    /// and file the earliest calendar tick. Each later tick is filed with
    /// its reserved seqs when the last transition of the one before it is
    /// dispatched, before its own run is taken: every transition keeps the
    /// `(time, seq)` and the same-tick run that filing all of them up front
    /// gave it.
    fn schedule_host_transitions(&mut self) {
        if self.transitions_scheduled {
            return;
        }
        self.transitions_scheduled = true;
        for (hid, spec) in self.hosts.iter() {
            let cal = &spec.availability.transitions;
            let filed = cal.iter().filter(|&&tr| tr != DOWN_AT_START).count() as u64;
            self.host_up[hid.0 as usize] = filed == cal.len() as u64;
            if let Some(&(at, _)) = cal.first() {
                self.calendar.push(Reverse((at, self.seq, hid.0, 0)));
            }
            self.seq += filed;
            self.calendar_unfiled += filed;
        }
        self.file_calendar_tick();
    }

    /// While no calendar transition is filed, file every host's instant at
    /// the earliest calendar tick not filed yet, each transition with its
    /// reserved seq, and note each of those hosts' next instant.
    fn file_calendar_tick(&mut self) {
        while let (0, Some(&Reverse((at, ..)))) = (self.calendar_filed, self.calendar.peek()) {
            while self.calendar.peek().is_some_and(|n| n.0 .0 == at) {
                let Reverse((_, mut seq, h, mut i)) = self.calendar.pop().expect("peeked");
                let cal = &self.hosts.get(HostId(h)).availability.transitions;
                while cal.get(i).is_some_and(|tr| tr.0 == at) {
                    if cal[i] != DOWN_AT_START {
                        let entry = Entry::HostTransition(HostId(h), i);
                        self.queue.insert(at.as_micros(), seq, entry);
                        seq += 1;
                        self.calendar_filed += 1;
                        self.calendar_unfiled -= 1;
                    }
                    i += 1;
                }
                if let Some(&(next, _)) = cal.get(i) {
                    self.calendar.push(Reverse((next, seq, h, i)));
                }
            }
        }
    }

    fn apply_host_transition(&mut self, host: HostId, up: bool) {
        if self.host_up[host.0 as usize] == up {
            return;
        }
        self.host_up[host.0 as usize] = up;
        let transition = if up {
            self.tele.came_up
        } else {
            self.tele.went_down
        };
        self.metrics.reg.inc(transition);
        if !up {
            // Kill every process on the host, without warning.
            for slot in &mut self.procs {
                if slot.alive && slot.host == host {
                    slot.alive = false;
                    slot.live = None;
                    self.metrics.reg.inc(self.tele.killed_by_host_down);
                }
            }
        }
        // Notify watchers (infrastructure supervisors).
        let watchers = self.watchers.get(&host).cloned().unwrap_or_default();
        for w in watchers {
            if self.procs[w.0 as usize].alive {
                let ev = Event::HostStateChanged { host, up };
                self.push(self.now, Entry::Deliver(w, ev));
            }
        }
    }

    /// Deliver one event to a process: alive/host-up gate, one
    /// `kernel.dispatch` mark before the handler runs (so every mark the
    /// handler makes follows it), take-run-restore of its handler. Used by
    /// `Entry::Deliver` and by flow completions.
    ///
    /// A live process on a down host was spawned there (a host going down
    /// kills its processes), and its `Started` is the first event it can
    /// be due: such a process never runs, so the gate kills it.
    fn deliver(&mut self, pid: ProcessId, ev: Event) {
        let slot = &mut self.procs[pid.0 as usize];
        if !(slot.alive && self.host_up[slot.host.0 as usize]) {
            slot.alive = false;
            slot.live = None;
            self.metrics.reg.inc(self.tele.dropped_dead_dest);
            return;
        }
        let live = slot.live.as_mut().expect("an alive process is live");
        let mut p = live
            .handler
            .take()
            .expect("a live process holds its handler");
        self.events_dispatched += 1;
        let tag = event_tag(&ev);
        let (t_us, span) = (self.now.as_micros(), self.tele.dispatch_span);
        self.metrics.reg.mark(t_us, span, pid.0 as u64, tag);
        p.on_event(&mut Ctx { sim: self, me: pid }, ev);
        // A process that exited while handling the event loses its state.
        let slot = &mut self.procs[pid.0 as usize];
        match &mut slot.live {
            Some(live) if slot.alive => live.handler = Some(p),
            live => *live = None,
        }
    }

    /// Dispatch one popped queue entry: fold it into the order hash, advance
    /// `now`, swallow lazily-cancelled timers (before the alive/host-up gate
    /// in [`Sim::deliver`], so a cancelled timer for a dead process counts
    /// as cancelled, not dropped), route the entry, flush dirty flow links.
    /// The golden order hashes pin this per-entry order.
    fn dispatch_entry(&mut self, t_us: u64, seq: u64, entry: Entry) {
        self.order_hash = fold_entry(self.order_hash, t_us, seq, &entry, &self.hosts);
        let time = SimTime::from_micros(t_us);
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        match entry {
            Entry::Deliver(pid, ev) => {
                // Lazily-cancelled timer: armed before a cancel_timer()
                // call on the same (pid, tag). Swallow it here instead of
                // delivering.
                if let Event::Timer { tag } = ev {
                    if self.cancelled.get(&(pid.0, tag)).is_some_and(|&w| seq < w) {
                        self.metrics.reg.inc(self.tele.timers_cancelled);
                        return;
                    }
                }
                self.deliver(pid, ev);
            }
            Entry::HostTransition(h, i) => {
                self.calendar_filed -= 1;
                self.file_calendar_tick();
                let up = self.hosts.get(h).availability.transitions[i].1;
                self.apply_host_transition(h, up);
            }
            Entry::FlowWake => self.serve_flow_wake(t_us),
        }
        if self.flows.has_dirty() {
            self.flush_dirty_flows();
        }
    }

    /// Run the event loop until simulated time `t_end` (events at exactly
    /// `t_end` are dispatched), then leave the clock at `max(now, t_end)`:
    /// a `t_end` in the past dispatches nothing and never moves the clock
    /// backwards. Returns dispatch statistics.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        self.schedule_host_transitions();
        let start_events = self.events_dispatched;
        let limit = t_end.as_micros();
        let mut batch_runs = 0u64;
        let mut batch_ties = 0u64;
        // Drain each same-timestamp run in one pass. Entries scheduled
        // *during* the run at the same tick carry higher seqs and come out
        // as the next run, so dispatch (and the order-hash fold at its
        // head) stays in strict `(time, seq)` order.
        let mut buf = std::mem::take(&mut self.dispatch_buf);
        loop {
            debug_assert!(buf.is_empty());
            let n = self.queue.pop_run_upto(limit, &mut buf);
            if n == 0 {
                break;
            }
            batch_runs += 1;
            batch_ties += (n - 1) as u64;
            self.batch_len_max = self.batch_len_max.max(n as u64);
            for (t_us, seq, entry) in buf.drain(..) {
                self.dispatch_entry(t_us, seq, entry);
            }
        }
        self.dispatch_buf = buf;
        self.now = self.now.max(t_end);
        let depth = self.tele.queue_depth;
        let len = self.queue.len() as u64 + self.calendar_unfiled;
        self.metrics.reg.set_gauge(depth, len as f64);
        if batch_runs > 0 {
            let d = self.tele.batch_dispatches;
            self.metrics.reg.add(d, batch_runs as f64);
            if batch_ties > 0 {
                let t = self.tele.batch_ties;
                self.metrics.reg.add(t, batch_ties as f64);
            }
            let g = self.tele.batch_len_max;
            self.metrics.reg.set_gauge(g, self.batch_len_max as f64);
        }
        RunStats {
            events: self.events_dispatched - start_events,
            now: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::net::SiteSpec;

    /// A host's name, speed and availability calendar.
    type HostDef<'a> = (&'a str, f64, &'a [(SimTime, bool)]);

    /// A simulator over one site (10 ms, 1.25 MB/s, `jitter`) and one
    /// dedicated host per [`HostDef`], with ids in order.
    fn world(jitter: f64, seed: u64, hosts: &[HostDef]) -> Sim {
        let mut net = NetModel::new(jitter);
        let ms10 = SimDuration::from_millis(10);
        let s = net.add_site(SiteSpec::simple("s", ms10, 1.25e6, 0.0));
        let mut table = HostTable::new();
        for &(name, speed, calendar) in hosts {
            let mut spec = HostSpec::dedicated(name, s, speed);
            spec.availability.transitions = calendar.to_vec();
            table.add(spec);
        }
        Sim::new(net, table, seed)
    }

    fn small_world() -> (Sim, HostId, HostId) {
        let sim = world(0.0, 42, &[("h0", 1e6, &[]), ("h1", 2e6, &[])]);
        (sim, HostId(0), HostId(1))
    }

    struct Echo {
        got: Vec<(u32, Payload)>,
    }
    impl Process for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::Message {
                from,
                mtype,
                payload,
            } = ev
            {
                self.got.push((mtype, payload.clone()));
                ctx.send(from, mtype + 1, payload);
            }
        }
    }

    struct Pinger {
        peer: ProcessId,
        replies: u32,
    }
    impl Process for Pinger {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => ctx.send(self.peer, 10, b"ping".to_vec()),
                Event::Message { mtype, .. } => {
                    assert_eq!(mtype, 11);
                    self.replies += 1;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, h0, h1) = small_world();
        let echo = sim.spawn("echo", h1, Box::new(Echo { got: vec![] }));
        let pinger = sim.spawn(
            "pinger",
            h0,
            Box::new(Pinger {
                peer: echo,
                replies: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let replies = sim
            .with_process::<Pinger, _>(pinger, |p| p.replies)
            .unwrap();
        assert_eq!(replies, 1);
        let got = sim
            .with_process::<Echo, _>(echo, |e| e.got.clone())
            .unwrap();
        assert_eq!(got, vec![(10, Payload::from(b"ping"))]);
        assert!(sim.metrics().counter("net.messages") >= 2.0);
    }

    struct TimerCounter {
        fired: Vec<u64>,
    }
    impl Process for TimerCounter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => {
                    ctx.set_timer(SimDuration::from_secs(3), 3);
                    ctx.set_timer(SimDuration::from_secs(1), 1);
                    ctx.set_timer(SimDuration::from_secs(2), 2);
                }
                Event::Timer { tag } => self.fired.push(tag),
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("t", h0, Box::new(TimerCounter { fired: vec![] }));
        sim.run_until(SimTime::from_secs(10));
        let fired = sim
            .with_process::<TimerCounter, _>(p, |t| t.fired.clone())
            .unwrap();
        assert_eq!(fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_is_resumable_and_time_monotonic() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("t", h0, Box::new(TimerCounter { fired: vec![] }));
        sim.run_until(SimTime::from_millis(1500));
        let mid = sim
            .with_process::<TimerCounter, _>(p, |t| t.fired.clone())
            .unwrap();
        assert_eq!(mid, vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(1500));
        sim.run_until(SimTime::from_secs(10));
        let done = sim
            .with_process::<TimerCounter, _>(p, |t| t.fired.clone())
            .unwrap();
        assert_eq!(done, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_never_moves_the_clock_backwards() {
        let (mut sim, h0, _) = small_world();
        sim.run_until(SimTime::from_secs(10));
        let stats = sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            (stats.now, sim.now()),
            (SimTime::from_secs(10), SimTime::from_secs(10))
        );
        // Timers armed now are filed after the time already dispatched:
        // the 1 s one fires at 11 s.
        let p = sim.spawn("t", h0, Box::new(TimerCounter { fired: vec![] }));
        let fired = |sim: &Sim| {
            sim.with_process::<TimerCounter, _>(p, |t| t.fired.clone())
                .unwrap()
        };
        sim.run_until(SimTime::from_millis(10_999));
        assert!(fired(&sim).is_empty());
        sim.run_until(SimTime::from_secs(11));
        assert_eq!(fired(&sim), vec![1]);
    }

    struct Canceller {
        fired: Vec<u64>,
    }
    impl Process for Canceller {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => {
                    ctx.set_timer(SimDuration::from_secs(1), 7);
                    ctx.set_timer(SimDuration::from_secs(2), 7);
                    ctx.set_timer(SimDuration::from_secs(3), 9);
                    ctx.cancel_timer(7);
                    // Re-armed after the cancel: must still fire.
                    ctx.set_timer(SimDuration::from_secs(4), 7);
                }
                Event::Timer { tag } => self.fired.push(tag),
                _ => {}
            }
        }
    }

    #[test]
    fn cancel_timer_swallows_prior_arms_only() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("c", h0, Box::new(Canceller { fired: vec![] }));
        sim.run_until(SimTime::from_secs(10));
        let fired = sim
            .with_process::<Canceller, _>(p, |c| c.fired.clone())
            .unwrap();
        assert_eq!(fired, vec![9, 7]);
        assert_eq!(sim.metrics().counter("kernel.timers_cancelled"), 2.0);
    }

    struct Computer {
        done_at: Option<SimTime>,
    }
    impl Process for Computer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => ctx.compute(2_000_000, 7),
                Event::ComputeDone { tag, ops } => {
                    assert_eq!(tag, 7);
                    assert_eq!(ops, 2_000_000);
                    self.done_at = Some(ctx.now());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn compute_time_scales_with_host_speed() {
        let (mut sim, h0, h1) = small_world(); // h0: 1e6 ops/s, h1: 2e6 ops/s
        let slow = sim.spawn("slow", h0, Box::new(Computer { done_at: None }));
        let fast = sim.spawn("fast", h1, Box::new(Computer { done_at: None }));
        sim.run_until(SimTime::from_secs(5));
        let t_slow = sim
            .with_process::<Computer, _>(slow, |c| c.done_at)
            .unwrap()
            .unwrap();
        let t_fast = sim
            .with_process::<Computer, _>(fast, |c| c.done_at)
            .unwrap()
            .unwrap();
        assert!((t_slow.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((t_fast.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    struct Spawner {
        child: Option<ProcessId>,
    }
    impl Process for Spawner {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::Started = ev {
                let host = ctx.host();
                self.child =
                    Some(ctx.spawn("child", host, Box::new(TimerCounter { fired: vec![] })));
            }
        }
    }

    #[test]
    fn dynamic_spawn_runs_child() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("spawner", h0, Box::new(Spawner { child: None }));
        sim.run_until(SimTime::from_secs(10));
        let child = sim
            .with_process::<Spawner, _>(p, |s| s.child)
            .unwrap()
            .unwrap();
        let fired = sim
            .with_process::<TimerCounter, _>(child, |t| t.fired.clone())
            .unwrap();
        assert_eq!(fired, vec![1, 2, 3]);
    }

    struct ExitAfterOne;
    impl Process for ExitAfterOne {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => {
                    ctx.set_timer(SimDuration::from_secs(1), 0);
                    ctx.set_timer(SimDuration::from_secs(2), 1);
                }
                Event::Timer { tag } => {
                    assert_eq!(tag, 0, "second timer must not be delivered after exit");
                    ctx.exit();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn exit_stops_delivery() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("x", h0, Box::new(ExitAfterOne));
        sim.run_until(SimTime::from_secs(10));
        assert!(!sim.process_alive(p));
        assert_eq!(sim.metrics().counter("procs.exited"), 1.0);
        assert!(sim.metrics().counter("events.dropped_dead_dest") >= 1.0);
    }

    fn world_with_flaky_host() -> (Sim, HostId, HostId) {
        let flaky = [
            (SimTime::from_secs(5), false),
            (SimTime::from_secs(8), true),
        ];
        let sim = world(0.0, 7, &[("stable", 1e6, &[]), ("flaky", 1e6, &flaky)]);
        (sim, HostId(0), HostId(1))
    }

    struct Watcher {
        target: HostId,
        seen: Vec<(SimTime, bool)>,
    }
    impl Process for Watcher {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => ctx.watch_host(self.target),
                Event::HostStateChanged { host, up } => {
                    assert_eq!(host, self.target);
                    self.seen.push((ctx.now(), up));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn host_down_kills_processes_and_notifies_watchers() {
        let (mut sim, stable, flaky) = world_with_flaky_host();
        let victim = sim.spawn("victim", flaky, Box::new(TimerCounter { fired: vec![] }));
        let watcher = sim.spawn(
            "watcher",
            stable,
            Box::new(Watcher {
                target: flaky,
                seen: vec![],
            }),
        );
        sim.run_until(SimTime::from_secs(20));
        assert!(!sim.process_alive(victim), "victim killed at t=5");
        // Victim fired timers at 1s and 2s, died before 3s.
        assert_eq!(sim.metrics().counter("procs.killed_by_host_down"), 1.0);
        let seen = sim
            .with_process::<Watcher, _>(watcher, |w| w.seen.clone())
            .unwrap();
        assert_eq!(
            seen,
            vec![
                (SimTime::from_secs(5), false),
                (SimTime::from_secs(8), true)
            ]
        );
    }

    #[test]
    fn messages_to_dead_processes_vanish() {
        let (mut sim, stable, flaky) = world_with_flaky_host();
        let victim = sim.spawn("victim", flaky, Box::new(Echo { got: vec![] }));
        struct LatePinger {
            peer: ProcessId,
            replies: u32,
        }
        impl Process for LatePinger {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => ctx.set_timer(SimDuration::from_secs(6), 0),
                    Event::Timer { .. } => ctx.send(self.peer, 10, b"late".to_vec()),
                    Event::Message { .. } => self.replies += 1,
                    _ => {}
                }
            }
        }
        let pinger = sim.spawn(
            "late",
            stable,
            Box::new(LatePinger {
                peer: victim,
                replies: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(7));
        let replies = sim
            .with_process::<LatePinger, _>(pinger, |p| p.replies)
            .unwrap();
        assert_eq!(
            replies, 0,
            "message sent at t=6 to host down since t=5 is lost"
        );
        assert!(sim.metrics().counter("events.dropped_dead_dest") >= 1.0);
    }

    struct NeverRuns;
    impl Process for NeverRuns {
        fn on_event(&mut self, _: &mut Ctx<'_>, ev: Event) {
            panic!("a process spawned on a down host got {ev:?}");
        }
    }

    struct PingAt {
        peer: ProcessId,
        at: SimDuration,
    }
    impl Process for PingAt {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Started => ctx.set_timer(self.at, 0),
                Event::Timer { .. } => ctx.send(self.peer, 10, b"up now".to_vec()),
                _ => {}
            }
        }
    }

    #[test]
    fn a_process_on_a_host_that_starts_down_never_runs() {
        let late = [(SimTime::ZERO, false), (SimTime::from_secs(2), true)];
        let mut sim = world(0.0, 7, &[("stable", 1e6, &[]), ("late", 1e6, &late)]);
        let (stable, late) = (HostId(0), HostId(1));
        let ghost = sim.spawn("ghost", late, Box::new(NeverRuns));
        let at = SimDuration::from_secs(5);
        sim.spawn("pinger", stable, Box::new(PingAt { peer: ghost, at }));
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.host_up[late.0 as usize], "the host came back at t=2");
        assert!(!sim.process_alive(ghost));
        assert!(sim.with_process::<NeverRuns, _>(ghost, |_| ()).is_none());
        // The stopped `Started` and the ping; no kill is counted.
        assert_eq!(sim.metrics().counter("events.dropped_dead_dest"), 2.0);
        assert_eq!(sim.metrics().counter("procs.killed_by_host_down"), 0.0);
    }

    #[test]
    #[should_panic(expected = "host flaky: calendar out of order")]
    fn an_unsorted_calendar_is_refused() {
        let flaky = [
            (SimTime::from_secs(8), true),
            (SimTime::from_secs(5), false),
        ];
        world(0.0, 7, &[("stable", 1e6, &[]), ("flaky", 1e6, &flaky)]);
    }

    #[test]
    fn a_process_table_slot_is_two_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let mut sim = world(0.3, seed, &[("h0", 1e6, &[]), ("h1", 1e6, &[])]);
            let (h0, h1) = (HostId(0), HostId(1));
            struct Chatter {
                peer: Option<ProcessId>,
                count: u32,
            }
            impl Process for Chatter {
                fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                    match ev {
                        Event::Started => ctx.set_timer(SimDuration::from_millis(100), 0),
                        Event::Timer { .. } => {
                            if let Some(p) = self.peer {
                                let n = ctx.rng().next_below(100);
                                ctx.send(p, n as u32, vec![0u8; n as usize]);
                            }
                            ctx.set_timer(SimDuration::from_millis(100), 0);
                        }
                        Event::Message { .. } => self.count += 1,
                        _ => {}
                    }
                }
            }
            let a = sim.spawn(
                "a",
                h0,
                Box::new(Chatter {
                    peer: None,
                    count: 0,
                }),
            );
            let b = sim.spawn(
                "b",
                h1,
                Box::new(Chatter {
                    peer: Some(a),
                    count: 0,
                }),
            );
            let _ = b;
            sim.run_until(SimTime::from_secs(30));
            (
                sim.metrics().counter("net.messages"),
                sim.metrics().counter("net.bytes"),
                sim.with_process::<Chatter, _>(a, |c| c.count).unwrap(),
            )
        };
        assert_eq!(run(123), run(123));
        assert_ne!(
            run(123).1,
            run(456).1,
            "different seeds should differ in bytes"
        );
    }

    #[test]
    fn run_stats_count_events() {
        let (mut sim, h0, _) = small_world();
        sim.spawn("t", h0, Box::new(TimerCounter { fired: vec![] }));
        let stats = sim.run_until(SimTime::from_secs(10));
        // Started + 3 timers.
        assert_eq!(stats.events, 4);
        assert_eq!(stats.now, SimTime::from_secs(10));
    }

    #[test]
    fn with_process_wrong_type_is_none() {
        let (mut sim, h0, _) = small_world();
        let p = sim.spawn("t", h0, Box::new(TimerCounter { fired: vec![] }));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.with_process::<Echo, _>(p, |_| ()).is_none());
    }

    #[test]
    fn metrics_api() {
        struct Recorder;
        impl Process for Recorder {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        let x = ctx.counter("x");
                        ctx.add(x, 1.0);
                        ctx.add(x, 2.0);
                        ctx.set_timer(SimDuration::from_secs(1), 0);
                    }
                    Event::Timer { .. } => {
                        let s = ctx.series("s");
                        ctx.record(s, 10.0);
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, h0, _) = small_world();
        sim.declare_series("s", SimDuration::from_secs(1));
        sim.spawn("r", h0, Box::new(Recorder));
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        assert_eq!(m.counter("x"), 3.0);
        assert_eq!(m.counter("missing"), 0.0);
        let s = m.series("s").expect("declared");
        assert_eq!(s.width_us(), 1_000_000);
        let bins: Vec<(f64, u64)> = s.bins().iter().map(|b| (b.sum, b.count)).collect();
        assert_eq!(bins, [(0.0, 0), (10.0, 1)], "the sample at 1 s is bin 1's");
        assert!(m.series("missing").is_none());
    }
}
