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

use ew_telemetry::{CounterId, GaugeId, HistogramId, Registry, SeriesId, SpanId};

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

#[derive(Debug)]
enum Target {
    Proc(ProcessId),
    HostTransition(HostId, bool),
    /// The earliest drain deadline among the in-flight flow-mode transfers
    /// when it was armed (see [`Shared::arm_flow_wake`]); a wake that finds
    /// no flow due is swallowed at dispatch. Never appears in packet-mode
    /// runs, so packet golden hashes are untouched by construction.
    FlowWake,
}

struct ProcMeta {
    name: String,
    host: HostId,
    alive: bool,
    rng: Xoshiro256,
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

    /// The recorded series (empty if never touched).
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        self.reg
            .series_lookup(name)
            .map(|id| {
                self.reg
                    .series_points(id)
                    .iter()
                    .map(|&(t_us, v)| (SimTime::from_micros(t_us), v))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The backing registry (histograms, gauges, health reports, tracing).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Mutable access to the backing registry.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Consume the metrics, yielding the backing registry — how a sim-farm
    /// cell hands its telemetry to the canonical [`Registry::merge`] fold.
    pub fn into_registry(self) -> Registry {
        self.reg
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
    payload_pool_hits: CounterId,
    payload_pool_misses: CounterId,
    payload_pool_recycled: CounterId,
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
            payload_pool_hits: reg.counter("net.payload_pool_hits"),
            payload_pool_misses: reg.counter("net.payload_pool_misses"),
            payload_pool_recycled: reg.counter("net.payload_pool_recycled"),
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

/// Fold one dispatched entry — `(time, seq, target, event-variant)` — into
/// the running order hash.
#[inline]
fn fold_entry(h: u64, t_us: u64, seq: u64, target: &Target, ev: &Option<Event>) -> u64 {
    let mut h = order_hash_fold(h, t_us);
    h = order_hash_fold(h, seq);
    h = order_hash_fold(
        h,
        match target {
            Target::Proc(pid) => (pid.0 as u64) << 3 | 0b001,
            Target::HostTransition(hid, up) => (hid.0 as u64) << 3 | (*up as u64) << 1 | 0b100,
            Target::FlowWake => 0b010,
        },
    );
    order_hash_fold(h, ev.as_ref().map_or(u64::MAX, event_tag))
}

struct Shared {
    now: SimTime,
    seq: u64,
    /// Pending events, totally ordered by `(time, seq)`; the golden
    /// event-order-hash tests pin the order.
    queue: EventQueue<(Target, Option<Event>)>,
    net: NetModel,
    hosts: HostTable,
    host_up: Vec<bool>,
    meta: Vec<ProcMeta>,
    watchers: FxHashMap<HostId, Vec<ProcessId>>,
    seeder: StreamSeeder,
    net_rng: Xoshiro256,
    metrics: Metrics,
    tele: KernelTele,
    pending_spawns: Vec<(ProcessId, Box<dyn Process>)>,
    pending_exits: Vec<ProcessId>,
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
    /// recompute, filed by [`Shared::flush_flow_resched`].
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
    dispatch_buf: Vec<(u64, u64, (Target, Option<Event>))>,
    /// Largest same-tick run dispatched so far (gauge `kernel.batch_len_max`).
    batch_len_max: u64,
    /// Whether the payload pool has been reset for this simulation (done
    /// lazily on the first `run_until`, i.e. on the thread that actually
    /// drives the sim — a farm cell may be built on one thread and run on
    /// another).
    pool_primed: bool,
    /// Payload-pool counters already flushed into telemetry.
    pool_seen: crate::payload::PoolStats,
}

impl Shared {
    fn push(&mut self, time: SimTime, target: Target, ev: Option<Event>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(time.as_micros(), seq, (target, ev));
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
                self.push(SimTime::from_micros(at), Target::FlowWake, None);
            }
        }
    }

    /// Run one fair-share recompute seeded with every link whose flow
    /// membership changed since the last flush, and schedule the resulting
    /// deadlines. Called by [`Sim::dispatch_entry`] after every entry that
    /// dirtied a link — the one recompute site — so deadlines always exist
    /// before simulated time advances.
    fn flush_dirty_flows(&mut self) {
        let now = self.now;
        let n = {
            let Shared {
                flows,
                net,
                flow_resched,
                ..
            } = self;
            flows.recompute_dirty(now, net, flow_resched)
        };
        if n > 0 {
            let id = self.tele.flow_dirty_links;
            self.metrics.reg.add(id, n as f64);
        }
        self.flush_flow_resched();
    }

    fn reserve_pid(&mut self, name: &str, host: HostId) -> ProcessId {
        let pid = ProcessId(self.meta.len() as u32);
        let rng = self.seeder.stream(0x5eed_0000_0000_0000 ^ pid.0 as u64);
        self.meta.push(ProcMeta {
            name: name.to_string(),
            host,
            alive: true,
            rng,
        });
        pid
    }
}

/// The per-event capability handle passed to [`Process::on_event`].
pub struct Ctx<'a> {
    shared: &'a mut Shared,
    me: ProcessId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.now
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// This process's host.
    pub fn host(&self) -> HostId {
        self.shared.meta[self.me.0 as usize].host
    }

    /// This process's registered name.
    pub fn name(&self) -> &str {
        &self.shared.meta[self.me.0 as usize].name
    }

    /// This process's deterministic random stream.
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.shared.meta[self.me.0 as usize].rng
    }

    /// Deliver `Event::Timer { tag }` to this process after `after`.
    ///
    /// Timers armed with the same tag can be revoked with
    /// [`Ctx::cancel_timer`]; processes that prefer the classic pattern can
    /// still carry a generation number in the tag and ignore stale firings.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        let at = self.shared.now + after;
        self.shared
            .push(at, Target::Proc(self.me), Some(Event::Timer { tag }));
    }

    /// Cancel every `Event::Timer { tag }` this process armed *before* this
    /// call. Cancellation is lazy (O(1)): the entries stay in the queue and
    /// are swallowed when they surface, counted by `kernel.timers_cancelled`.
    /// Timers armed with the same tag *after* this call fire normally, so
    /// cancel-then-rearm implements deadline adjustment.
    pub fn cancel_timer(&mut self, tag: u64) {
        let watermark = self.shared.seq;
        self.shared.cancelled.insert((self.me.0, tag), watermark);
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
        let from_host = self.shared.meta[self.me.0 as usize].host;
        let Some(to_meta) = self.shared.meta.get(to.0 as usize) else {
            let id = self.shared.tele.send_to_unknown;
            self.shared.metrics.reg.inc(id);
            return;
        };
        let to_host = to_meta.host;
        let from_site = self.shared.hosts.get(from_host).site;
        let to_site = self.shared.hosts.get(to_host).site;
        let bytes = payload.len() + 32; // packet header overhead
        let now = self.shared.now;
        // Impairment sampling is gated behind `has_impairments` so worlds
        // without lossy-link windows draw nothing from the net rng here
        // and stay bit-identical to pre-impairment kernels.
        let (imp_drop, imp_dup) = if self.shared.net.has_impairments() {
            self.shared
                .net
                .impair(from_site, to_site, now, &mut self.shared.net_rng)
        } else {
            (false, false)
        };
        if imp_drop {
            let id = self.shared.tele.dropped_impaired;
            self.shared.metrics.reg.inc(id);
            return;
        }
        if self.shared.net.model() == NetworkModel::Flow && bytes as u64 > FLOW_MTU_BYTES {
            // Flow mode, bulk transfer: the transfer drains through shared
            // links at a max-min fair rate instead of taking a one-shot
            // sampled delay. One flow costs O(sharing-set) deadline work
            // total, however many MTUs it spans. Messages that fit one MTU
            // (the RPC traffic fair-sharing models poorly and recomputes
            // made expensive) fall through to the sampled-delay path below,
            // which works identically in either network mode.
            let Some(latency) = self.shared.net.flow_latency(from_site, to_site, now) else {
                let id = self.shared.tele.dropped_partition;
                self.shared.metrics.reg.inc(id);
                return;
            };
            let (m, b) = (self.shared.tele.messages, self.shared.tele.bytes);
            self.shared.metrics.reg.inc(m);
            self.shared.metrics.reg.add(b, bytes as f64);
            if payload.is_shared() {
                let saved = self.shared.tele.bytes_copy_saved;
                self.shared.metrics.reg.add(saved, payload.len() as f64);
            }
            if imp_dup {
                // The duplicate is its own flow: it contends for the same
                // links, so both copies slow each other down — closer to a
                // real retransmission than an independent delay sample.
                let id = self.shared.tele.duplicated;
                self.shared.metrics.reg.inc(id);
                let dup = payload.clone();
                self.shared
                    .start_flow(from_site, to_site, bytes, latency, self.me, to, mtype, dup);
            }
            self.shared.start_flow(
                from_site, to_site, bytes, latency, self.me, to, mtype, payload,
            );
            return;
        }
        match self
            .shared
            .net
            .delay(from_site, to_site, bytes, now, &mut self.shared.net_rng)
        {
            None => {
                let id = self.shared.tele.dropped_partition;
                self.shared.metrics.reg.inc(id);
            }
            Some(d) => {
                let (m, b) = (self.shared.tele.messages, self.shared.tele.bytes);
                self.shared.metrics.reg.inc(m);
                self.shared.metrics.reg.add(b, bytes as f64);
                if payload.is_shared() {
                    // Another live reference to this buffer exists (fan-out
                    // master copy or a sibling in-flight message): a
                    // Vec-payload kernel would have deep-copied here.
                    let saved = self.shared.tele.bytes_copy_saved;
                    self.shared.metrics.reg.add(saved, payload.len() as f64);
                }
                if imp_dup {
                    // The duplicate shares the payload buffer and takes an
                    // independently sampled flight time.
                    if let Some(d2) = self.shared.net.delay(
                        from_site,
                        to_site,
                        bytes,
                        now,
                        &mut self.shared.net_rng,
                    ) {
                        let id = self.shared.tele.duplicated;
                        self.shared.metrics.reg.inc(id);
                        self.shared.push(
                            now + d2,
                            Target::Proc(to),
                            Some(Event::Message {
                                from: self.me,
                                mtype,
                                payload: payload.clone(),
                            }),
                        );
                    }
                }
                self.shared.push(
                    now + d,
                    Target::Proc(to),
                    Some(Event::Message {
                        from: self.me,
                        mtype,
                        payload,
                    }),
                );
            }
        }
    }

    /// Execute `ops` useful operations on this host; `Event::ComputeDone`
    /// arrives when they finish. The host's speed and instantaneous
    /// background load determine the duration.
    pub fn compute(&mut self, ops: u64, tag: u64) {
        let host = self.shared.meta[self.me.0 as usize].host;
        let d = self
            .shared
            .hosts
            .get(host)
            .compute_time(ops, self.shared.now);
        let at = self.shared.now + d;
        self.shared.push(
            at,
            Target::Proc(self.me),
            Some(Event::ComputeDone { tag, ops }),
        );
    }

    /// Spawn a new process on `host`. It receives `Event::Started` at the
    /// current instant (after the current event finishes dispatching). The
    /// id is valid immediately.
    pub fn spawn(&mut self, name: &str, host: HostId, p: Box<dyn Process>) -> ProcessId {
        let pid = self.shared.reserve_pid(name, host);
        self.shared.pending_spawns.push((pid, p));
        self.shared
            .push(self.shared.now, Target::Proc(pid), Some(Event::Started));
        pid
    }

    /// Subscribe this process to `HostStateChanged` events for `host`.
    pub fn watch_host(&mut self, host: HostId) {
        let me = self.me;
        let list = self.shared.watchers.entry(host).or_default();
        if !list.contains(&me) {
            list.push(me);
        }
    }

    /// Terminate this process after the current event completes.
    pub fn exit(&mut self) {
        self.shared.pending_exits.push(self.me);
    }

    /// Whether `pid` is currently alive. Grid components cannot actually
    /// observe this (they must time out); it is intended for infrastructure
    /// supervisor models, which stand in for e.g. the Condor central
    /// manager.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.shared
            .meta
            .get(pid.0 as usize)
            .map(|m| m.alive)
            .unwrap_or(false)
    }

    /// Whether `host` is currently up (again: supervisor-only knowledge).
    pub fn host_up(&self, host: HostId) -> bool {
        self.shared.host_up[host.0 as usize]
    }

    // ---- telemetry: interned handles ----
    //
    // Intern once (normally on `Event::Started`), store the copyable ids in
    // process state, and record through them on the hot path.

    /// Intern a counter name, returning a copyable handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.shared.metrics.reg.counter(name)
    }

    /// Add `v` to an interned counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: f64) {
        self.shared.metrics.reg.add(id, v);
    }

    /// Add 1 to an interned counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.shared.metrics.reg.inc(id);
    }

    /// Intern a time-series name, returning a copyable handle.
    pub fn series(&mut self, name: &str) -> SeriesId {
        self.shared.metrics.reg.series(name)
    }

    /// Record `v` at the current simulated time on an interned series.
    #[inline]
    pub fn record(&mut self, id: SeriesId, v: f64) {
        let t_us = self.shared.now.as_micros();
        self.shared.metrics.reg.record(id, t_us, v);
    }

    /// Intern a gauge name, returning a copyable handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.shared.metrics.reg.gauge(name)
    }

    /// Set an interned gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.shared.metrics.reg.set_gauge(id, v);
    }

    /// Intern a histogram name, returning a copyable handle.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        self.shared.metrics.reg.histogram(name)
    }

    /// Record one observation into an interned histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.shared.metrics.reg.observe(id, v);
    }

    /// Intern a span name, returning a copyable handle.
    pub fn span(&mut self, name: &str) -> SpanId {
        self.shared.metrics.reg.span(name)
    }

    /// Whether span tracing is collecting records. Components may use this
    /// to skip building expensive tags, never to change behavior.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.shared.metrics.reg.tracing_enabled()
    }

    /// Record a span entry at the current simulated time (no-op unless
    /// tracing is enabled; the actor is this process).
    #[inline]
    pub fn span_enter(&mut self, span: SpanId, tag: u64) {
        let t_us = self.shared.now.as_micros();
        let actor = self.me.0 as u64;
        self.shared.metrics.reg.span_enter(t_us, span, actor, tag);
    }

    /// Record a span exit at the current simulated time (no-op unless
    /// tracing is enabled; the actor is this process).
    #[inline]
    pub fn span_exit(&mut self, span: SpanId, tag: u64) {
        let t_us = self.shared.now.as_micros();
        let actor = self.me.0 as u64;
        self.shared.metrics.reg.span_exit(t_us, span, actor, tag);
    }
}

/// Outcome of a [`Sim::run_until`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Events dispatched during this call.
    pub events: u64,
    /// Simulated time at return.
    pub now: SimTime,
}

/// The simulator: owns the network, hosts, processes, queue, and metrics.
pub struct Sim {
    shared: Shared,
    procs: Vec<Option<Box<dyn Process>>>,
    transitions_scheduled: bool,
}

impl Sim {
    /// Build a simulator over the given network and host table, seeding all
    /// randomness from `seed`.
    pub fn new(net: NetModel, hosts: HostTable, seed: u64) -> Self {
        let seeder = StreamSeeder::new(seed);
        let net_rng = seeder.stream_named("kernel.net");
        let host_up = vec![true; hosts.len()];
        let mut metrics = Metrics::default();
        let tele = KernelTele::intern(metrics.registry_mut());
        let flows = FlowTable::new(net.site_count());
        Sim {
            shared: Shared {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::new(),
                net,
                hosts,
                host_up,
                meta: Vec::new(),
                watchers: FxHashMap::default(),
                seeder,
                net_rng,
                metrics,
                tele,
                pending_spawns: Vec::new(),
                pending_exits: Vec::new(),
                events_dispatched: 0,
                order_hash: ORDER_HASH_BASIS,
                cancelled: FxHashMap::default(),
                flows,
                flow_resched: Vec::new(),
                flow_due: Vec::new(),
                flow_wake: u64::MAX,
                dispatch_buf: Vec::new(),
                batch_len_max: 0,
                pool_primed: false,
                pool_seen: crate::payload::PoolStats::default(),
            },
            procs: Vec::new(),
            transitions_scheduled: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.now
    }

    /// Running hash over every dispatched `(time, seq, target,
    /// event-variant)` tuple. Two runs dispatch the same events in the same
    /// order if and only if their hashes agree — the guard that the event
    /// queue's total order survives implementation changes.
    pub fn event_order_hash(&self) -> u64 {
        self.shared.order_hash
    }

    /// Spawn a process before or between runs.
    pub fn spawn(&mut self, name: &str, host: HostId, p: Box<dyn Process>) -> ProcessId {
        let pid = self.shared.reserve_pid(name, host);
        self.procs.push(Some(Box::new(Tombstone)));
        self.procs[pid.0 as usize] = Some(p);
        self.shared
            .push(self.shared.now, Target::Proc(pid), Some(Event::Started));
        pid
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Consume the simulator, yielding its metrics. Sim-farm cells use
    /// this after the run: outcome numbers are extracted first, then the
    /// whole registry travels back to the caller for the ordered merge.
    pub fn into_metrics(self) -> Metrics {
        self.shared.metrics
    }

    /// The telemetry registry behind [`Sim::metrics`] (histograms, gauges,
    /// health reports, span tracing).
    pub fn telemetry(&self) -> &Registry {
        self.shared.metrics.registry()
    }

    /// Start collecting span trace records into a ring of `capacity`
    /// entries. Tracing is purely observational: a run is bit-identical
    /// with tracing on or off.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.shared.metrics.reg.enable_tracing(capacity);
    }

    /// Export collected span records as deterministic JSONL (empty string
    /// when tracing was never enabled).
    pub fn export_trace_jsonl(&self) -> String {
        self.shared.metrics.reg.export_trace_jsonl()
    }

    /// Whether a process is alive.
    pub fn process_alive(&self, pid: ProcessId) -> bool {
        self.shared
            .meta
            .get(pid.0 as usize)
            .map(|m| m.alive)
            .unwrap_or(false)
    }

    /// Host table (read-only).
    pub fn hosts(&self) -> &HostTable {
        &self.shared.hosts
    }

    /// Inspect a process's concrete state (used by experiment drivers to
    /// read final counters). Returns `None` if the process is gone or has a
    /// different concrete type.
    pub fn with_process<T: 'static, R>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let b = self.procs.get(pid.0 as usize)?.as_ref()?;
        let any: &dyn Any = b.as_ref();
        any.downcast_ref::<T>().map(f)
    }

    fn schedule_host_transitions(&mut self) {
        if self.transitions_scheduled {
            return;
        }
        self.transitions_scheduled = true;
        let mut scheduled = Vec::new();
        for (hid, spec) in self.shared.hosts.iter() {
            for &(t, up) in &spec.availability.transitions {
                scheduled.push((t, hid, up));
            }
        }
        for (t, hid, up) in scheduled {
            if t == SimTime::ZERO && !up {
                self.shared.host_up[hid.0 as usize] = false;
            } else {
                self.shared.push(t, Target::HostTransition(hid, up), None);
            }
        }
    }

    fn apply_host_transition(&mut self, host: HostId, up: bool) {
        let was = self.shared.host_up[host.0 as usize];
        if was == up {
            return;
        }
        self.shared.host_up[host.0 as usize] = up;
        let transition = if up {
            self.shared.tele.came_up
        } else {
            self.shared.tele.went_down
        };
        self.shared.metrics.reg.inc(transition);
        if !up {
            // Kill every process on the host, without warning.
            let killed = self.shared.tele.killed_by_host_down;
            for (i, m) in self.shared.meta.iter_mut().enumerate() {
                if m.alive && m.host == host {
                    m.alive = false;
                    self.procs[i] = None;
                    self.shared.metrics.reg.inc(killed);
                }
            }
        }
        // Notify watchers (infrastructure supervisors).
        let watchers = self.shared.watchers.get(&host).cloned().unwrap_or_default();
        let now = self.shared.now;
        for w in watchers {
            if self.shared.meta[w.0 as usize].alive {
                self.shared.push(
                    now,
                    Target::Proc(w),
                    Some(Event::HostStateChanged { host, up }),
                );
            }
        }
    }

    fn integrate_pending(&mut self) {
        let spawns = std::mem::take(&mut self.shared.pending_spawns);
        for (pid, p) in spawns {
            while self.procs.len() <= pid.0 as usize {
                self.procs.push(None);
            }
            self.procs[pid.0 as usize] = Some(p);
        }
        let exits = std::mem::take(&mut self.shared.pending_exits);
        let exited = self.shared.tele.exited;
        for pid in exits {
            if self.shared.meta[pid.0 as usize].alive {
                self.shared.meta[pid.0 as usize].alive = false;
                self.procs[pid.0 as usize] = None;
                self.shared.metrics.reg.inc(exited);
            }
        }
    }

    /// Deliver one event to a process: alive/host-up gate, dispatch span,
    /// take-run-restore of the boxed process. Shared between the direct
    /// `Target::Proc` path and flow completions.
    fn deliver(&mut self, pid: ProcessId, ev: Event) {
        let idx = pid.0 as usize;
        let deliverable = self.shared.meta[idx].alive
            && self.shared.host_up[self.shared.meta[idx].host.0 as usize];
        if deliverable {
            if let Some(mut p) = self.procs[idx].take() {
                self.shared.events_dispatched += 1;
                let tag = event_tag(&ev);
                let (t_us, span) = (self.shared.now.as_micros(), self.shared.tele.dispatch_span);
                self.shared
                    .metrics
                    .reg
                    .span_enter(t_us, span, pid.0 as u64, tag);
                {
                    let mut ctx = Ctx {
                        shared: &mut self.shared,
                        me: pid,
                    };
                    p.on_event(&mut ctx, ev);
                }
                self.shared
                    .metrics
                    .reg
                    .span_exit(t_us, span, pid.0 as u64, tag);
                // The process may have exited or been re-slotted;
                // only put it back if the slot is still empty.
                if self.procs[idx].is_none() {
                    self.procs[idx] = Some(p);
                }
            }
        } else {
            let dropped = self.shared.tele.dropped_dead_dest;
            self.shared.metrics.reg.inc(dropped);
        }
    }

    /// Dispatch one already-popped, already-hashed queue entry: advance
    /// `now`, swallow lazily-cancelled timers (before the alive/host-up
    /// gate in [`Sim::deliver`], so a cancelled timer for a dead process
    /// counts as cancelled, not dropped), route by target, flush dirty
    /// flow links, integrate spawns/exits. The golden order hashes pin
    /// this per-entry order.
    fn dispatch_entry(&mut self, t_us: u64, seq: u64, target: Target, ev: Option<Event>) {
        let time = SimTime::from_micros(t_us);
        debug_assert!(time >= self.shared.now, "time went backwards");
        self.shared.now = time;
        // Lazily-cancelled timer: armed before a cancel_timer() call on
        // the same (pid, tag). Swallow it here instead of delivering.
        if let (Target::Proc(pid), Some(Event::Timer { tag })) = (&target, &ev) {
            if let Some(&watermark) = self.shared.cancelled.get(&(pid.0, *tag)) {
                if seq < watermark {
                    let c = self.shared.tele.timers_cancelled;
                    self.shared.metrics.reg.inc(c);
                    return;
                }
            }
        }
        match target {
            Target::HostTransition(h, up) => {
                self.apply_host_transition(h, up);
            }
            Target::FlowWake => {
                if t_us == self.shared.flow_wake {
                    self.shared.flow_wake = u64::MAX;
                }
                match self.shared.next_flow_due() {
                    Some((flow, generation, at)) if at <= t_us => {
                        self.shared.flow_due[flow as usize].1 = u64::MAX;
                        let cf = self
                            .shared
                            .flows
                            .complete(flow, generation)
                            .expect("flow_due holds live generations");
                        let done = self.shared.tele.flows_completed;
                        self.shared.metrics.reg.inc(done);
                        let active = self.shared.tele.flows_active;
                        let n = self.shared.flows.active() as f64;
                        self.shared.metrics.reg.set_gauge(active, n);
                        // Capacity freed up: the flush below re-shares it
                        // among the survivors on this flow's links.
                        self.shared.flows.mark_dirty(&cf.links[..cf.nlinks]);
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
                        // The deadline this wake was armed for moved (a
                        // recompute superseded it) or a duplicate wake
                        // already served it.
                        let id = self.shared.tele.flows_stale;
                        self.shared.metrics.reg.inc(id);
                    }
                }
                // A completion dirties its links and the flush below
                // re-arms; a wake that found nothing due re-arms here.
                if !self.shared.flows.has_dirty() {
                    self.shared.arm_flow_wake();
                }
            }
            Target::Proc(pid) => {
                self.deliver(pid, ev.expect("process events carry payloads"));
            }
        }
        if self.shared.flows.has_dirty() {
            self.shared.flush_dirty_flows();
        }
        self.integrate_pending();
    }

    /// Run the event loop until simulated time `t_end` (events at exactly
    /// `t_end` are dispatched). Returns dispatch statistics.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        self.schedule_host_transitions();
        if !self.shared.pool_primed {
            // First drive of this sim, on the thread that actually runs
            // it: start the payload pool cold, so pool telemetry (and
            // buffer reuse) is a deterministic function of the scenario
            // rather than of which farm worker ran the cell before.
            crate::payload::pool_reset();
            self.shared.pool_primed = true;
        }
        let start_events = self.shared.events_dispatched;
        let limit = t_end.as_micros();
        let mut batch_runs = 0u64;
        let mut batch_ties = 0u64;
        // Drain each same-timestamp run in one pass and fold the order hash
        // over it with one load/store of `order_hash` per run. Entries
        // scheduled *during* the run at the same tick carry higher seqs and
        // come out as the next run, so dispatch stays in strict
        // `(time, seq)` order.
        let mut buf = std::mem::take(&mut self.shared.dispatch_buf);
        loop {
            debug_assert!(buf.is_empty());
            let n = self.shared.queue.pop_run_upto(limit, &mut buf);
            if n == 0 {
                break;
            }
            batch_runs += 1;
            batch_ties += (n - 1) as u64;
            self.shared.batch_len_max = self.shared.batch_len_max.max(n as u64);
            let mut h = self.shared.order_hash;
            for (t_us, seq, (target, ev)) in &buf {
                h = fold_entry(h, *t_us, *seq, target, ev);
            }
            self.shared.order_hash = h;
            for (t_us, seq, (target, ev)) in buf.drain(..) {
                self.dispatch_entry(t_us, seq, target, ev);
            }
        }
        self.shared.dispatch_buf = buf;
        self.shared.now = t_end;
        let depth = self.shared.tele.queue_depth;
        let len = self.shared.queue.len() as f64;
        self.shared.metrics.reg.set_gauge(depth, len);
        if batch_runs > 0 {
            let d = self.shared.tele.batch_dispatches;
            self.shared.metrics.reg.add(d, batch_runs as f64);
            if batch_ties > 0 {
                let t = self.shared.tele.batch_ties;
                self.shared.metrics.reg.add(t, batch_ties as f64);
            }
            let g = self.shared.tele.batch_len_max;
            self.shared
                .metrics
                .reg
                .set_gauge(g, self.shared.batch_len_max as f64);
        }
        // Flush payload-pool deltas (this thread's pool was reset when the
        // sim first ran, so the counters are cell-deterministic).
        // Saturating: a foreign `pool_reset` between runs loses counts but
        // never underflows.
        let pool = crate::payload::pool_stats();
        let seen = self.shared.pool_seen;
        let (dh, dm, dr) = (
            pool.hits.saturating_sub(seen.hits),
            pool.misses.saturating_sub(seen.misses),
            pool.recycled.saturating_sub(seen.recycled),
        );
        self.shared.pool_seen = pool;
        if dh > 0 {
            let id = self.shared.tele.payload_pool_hits;
            self.shared.metrics.reg.add(id, dh as f64);
        }
        if dm > 0 {
            let id = self.shared.tele.payload_pool_misses;
            self.shared.metrics.reg.add(id, dm as f64);
        }
        if dr > 0 {
            let id = self.shared.tele.payload_pool_recycled;
            self.shared.metrics.reg.add(id, dr as f64);
        }
        RunStats {
            events: self.shared.events_dispatched - start_events,
            now: self.shared.now,
        }
    }
}

/// Placeholder stored while a slot is being initialized.
struct Tombstone;
impl Process for Tombstone {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::net::SiteSpec;
    use crate::trace::AvailabilitySchedule;

    fn small_world() -> (Sim, HostId, HostId) {
        let mut net = NetModel::new(0.0);
        let s = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let mut hosts = HostTable::new();
        let h0 = hosts.add(HostSpec::dedicated("h0", s, 1e6));
        let h1 = hosts.add(HostSpec::dedicated("h1", s, 2e6));
        (Sim::new(net, hosts, 42), h0, h1)
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
        let mut net = NetModel::new(0.0);
        let s = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let mut hosts = HostTable::new();
        let stable = hosts.add(HostSpec::dedicated("stable", s, 1e6));
        let mut flaky = HostSpec::dedicated("flaky", s, 1e6);
        flaky.availability = AvailabilitySchedule {
            transitions: vec![
                (SimTime::from_secs(5), false),
                (SimTime::from_secs(8), true),
            ],
        };
        let flaky = hosts.add(flaky);
        (Sim::new(net, hosts, 7), stable, flaky)
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

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let mut net = NetModel::new(0.3);
            let s = net.add_site(SiteSpec::simple(
                "s",
                SimDuration::from_millis(10),
                1.25e6,
                0.0,
            ));
            let mut hosts = HostTable::new();
            let h0 = hosts.add(HostSpec::dedicated("h0", s, 1e6));
            let h1 = hosts.add(HostSpec::dedicated("h1", s, 1e6));
            let mut sim = Sim::new(net, hosts, seed);
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
        sim.spawn("r", h0, Box::new(Recorder));
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        assert_eq!(m.counter("x"), 3.0);
        assert_eq!(m.counter("missing"), 0.0);
        assert_eq!(m.series("s"), &[(SimTime::from_secs(1), 10.0)]);
        assert!(m.series("missing").is_empty());
    }
}
