//! Per-layer probes: each times calls into one layer's public functions,
//! with inputs shaped like the workloads' traffic (~60 B RPC bodies,
//! 64 KiB bulk transfers, bursts of 32 same-tick events).
//!
//! A probe reports the median of five timings of a fixed number of calls,
//! and folds something every call produced into a checksum that is passed
//! through `black_box`, so the optimiser cannot delete the measured work.
//! Probes do not depend on the workload or the seed: the same probe gives
//! the same number (up to noise) in every traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use everyware::{run_sc98, DeployConfig, Deployment, Sc98Config, WINDOW_S};
use ew_chaos::{run_campaign_threads, standard_plans, CampaignConfig, N_COMPUTE};
use ew_forecast::{DynamicBenchmark, ForecastTimeout, ForecasterSet};
use ew_gossip::messages::{Token, TypeRegistration};
use ew_gossip::{CliqueConfig, CliqueState, GossipStore, VersionedBlob};
use ew_infra::{build_mega_shard, build_sc98, MegaSpec};
use ew_proto::packet::crc32;
use ew_proto::tcp::TcpNode;
use ew_proto::{
    mtype, AdaptiveRetry, EventTag, FrameReader, Packet, RetryDecision, RpcTracker, StaticTimeout,
    TimeoutPolicy, WireDecode, WireEncode,
};
use ew_ramsey::{
    count_total_ws, run_search, ColoredGraph, OpsCounter, RamseyProblem, SearchState, TabuSearch,
    Workspace,
};
use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig};
use ew_sim::{
    Ctx, Event, FlowTable, HostSpec, HostTable, LoadTrace, NetModel, NetworkModel, Payload,
    Process, ProcessId, RandomWalkLoad, Registry, Sim, SimDuration, SimTime, SiteId, SiteSpec,
    TimingWheel, Xoshiro256,
};
use ew_workload::{execute_unit, ramsey_validator, WorkUnit, WorkloadSpec};

use crate::stats::median;
use crate::trace::Tracer;

/// Timings per probe; the median is reported.
const SAMPLES: usize = 5;
/// Same-tick burst length, the tie shape of scheduler traffic.
const BURST: usize = 32;

/// Accumulates the timed intervals of one probe sample, and its checksum.
#[derive(Default)]
struct Stopwatch {
    ns: u64,
    started: Option<Instant>,
    sum: u64,
}

impl Stopwatch {
    fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    fn stop(&mut self) {
        let t0 = self.started.take().expect("stop without start");
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    fn fold(&mut self, x: u64) {
        self.sum = self.sum.wrapping_mul(31).wrapping_add(x);
    }
}

pub struct Probes<'t> {
    tr: &'t mut Tracer,
    pub values: BTreeMap<&'static str, f64>,
}

impl Probes<'_> {
    /// Run `body` [`SAMPLES`] times; each run times some calls on the
    /// stopwatch and returns how many. Records the median of
    /// `ns / calls × scale` under `name` (scale 1 → ns, 1e-3 → µs).
    fn probe(
        &mut self,
        name: &'static str,
        scale: f64,
        mut body: impl FnMut(&mut Stopwatch) -> u64,
    ) -> f64 {
        self.tr.enter(name);
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let mut sw = Stopwatch::default();
            let ops = body(&mut sw);
            black_box(sw.sum);
            samples.push(sw.ns as f64 / ops as f64 * scale);
        }
        self.tr.exit();
        let v = median(&mut samples);
        self.values.insert(name, v);
        v
    }

    fn record(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e-3;
const MS: f64 = 1e-6;

/// Run every probe. One span per probe goes to `tr`.
pub fn run_all(tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let mut p = Probes {
        tr,
        values: BTreeMap::new(),
    };
    wheel(&mut p);
    kernel(&mut p);
    net(&mut p);
    payload_rng_farm(&mut p);
    proto(&mut p);
    forecast(&mut p);
    gossip(&mut p);
    sched_workload(&mut p);
    ramsey_state(&mut p);
    builders_telemetry(&mut p);
    p.values
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    s.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

// ---- sim.wheel ----------------------------------------------------------------

/// Steady-state insert/drain cycles in bursts: each burst is inserted,
/// then drained up to the next burst's base. A far-future sentinel keeps
/// the wheel populated the way a kernel's long-horizon timers do. `near`
/// offsets stay inside the cursor's level-0 span; far offsets land 4 ms
/// to 100 s out and pay level selection going in and cascades coming
/// back. `time_inserts` selects which half of the cycle is on the clock.
fn wheel_cycles(sw: &mut Stopwatch, near: bool, time_inserts: bool) -> u64 {
    const N: u64 = 131_072;
    const FAR_SPAN_US: u64 = 100_000_000;
    let step = if near { BURST as u64 } else { FAR_SPAN_US };
    let mut w: TimingWheel<u32> = TimingWheel::new();
    w.insert(1 << 62, u64::MAX, 0);
    let mut out = Vec::with_capacity(BURST);
    let mut s = 0xd1b5_4a32_d192_ed03u64;
    let mut seq = 0u64;
    for burst in 0..N / BURST as u64 {
        let base = burst * step;
        if time_inserts {
            sw.start();
        }
        for _ in 0..BURST {
            let r = xorshift(&mut s);
            let t = base
                + if near {
                    r % BURST as u64
                } else {
                    4096 + r % (FAR_SPAN_US - 4096)
                };
            w.insert(t, seq, seq as u32);
            seq += 1;
        }
        if time_inserts {
            sw.stop();
        } else {
            sw.start();
        }
        let limit = base + step;
        while w.pop_run_upto(limit, &mut out) > 0 {
            for (t, q, item) in out.drain(..) {
                sw.fold(t ^ q ^ item as u64);
            }
        }
        if !time_inserts {
            sw.stop();
        }
    }
    N
}

fn wheel(p: &mut Probes<'_>) {
    p.probe("sim.wheel.insert_near_ns", NS, |sw| {
        wheel_cycles(sw, true, true)
    });
    p.probe("sim.wheel.insert_far_ns", NS, |sw| {
        wheel_cycles(sw, false, true)
    });
    p.probe("sim.wheel.pop_run_ns", NS, |sw| {
        wheel_cycles(sw, true, false)
    });
    // Draining far-horizon entries pays their cascades on the way down.
    p.probe(MODEL_WHEEL_POP_FAR_NS, NS, |sw| {
        wheel_cycles(sw, false, false)
    });
}

/// Measured for the share model; not reported.
pub const MODEL_WHEEL_POP_FAR_NS: &str = "model.wheel_pop_far_ns";

// ---- sim.kernel ---------------------------------------------------------------

struct Devnull;

impl Process for Devnull {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {}
}

/// Answers every message with a message: the closed-loop dispatch probe.
struct Pinger {
    peer: Option<ProcessId>,
    body: Payload,
}

impl Process for Pinger {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                if let Some(peer) = self.peer {
                    ctx.send(peer, 1, self.body.clone());
                }
            }
            Event::Message { from, .. } => ctx.send(from, 1, self.body.clone()),
            _ => {}
        }
    }
}

/// Re-arms one periodic timer; [`BURST`] of these tick in lockstep.
struct Ticker;

impl Process for Ticker {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if matches!(ev, Event::Started | Event::Timer { .. }) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// `sites` WAN sites with `per_site` hosts each, shaped like a mega shard.
fn grid(sites: usize, per_site: usize, jitter: f64, model: NetworkModel) -> (NetModel, HostTable) {
    let mut net = NetModel::new(jitter).with_model(model);
    let mut hosts = HostTable::new();
    for s in 0..sites {
        let site = net.add_site(SiteSpec::simple(
            &format!("s{s}"),
            SimDuration::from_millis(15),
            2.5e6,
            0.05,
        ));
        for h in 0..per_site {
            hosts.add(HostSpec::dedicated(&format!("h{s}x{h}"), site, 1e8));
        }
    }
    (net, hosts)
}

fn host(i: usize) -> ew_sim::HostId {
    ew_sim::HostId(i as u32)
}

/// A ~60-byte RPC body, as the scheduler protocol sends.
fn rpc_unit() -> WorkUnit {
    WorkUnit {
        id: 42,
        arg0: 4,
        arg1: 17,
        variant: 1,
        seed: 0xDEAD_BEEF,
        step_budget: 200,
        payload: vec![0xA5; 19],
    }
}

fn rpc_body() -> Payload {
    Packet::request(mtype::SCHED_BASE, 7, rpc_unit().to_wire_payload()).to_sim_payload()
}

fn kernel(p: &mut Probes<'_>) {
    p.probe("sim.kernel.dispatch_ns", NS, |sw| {
        let (net, hosts) = grid(2, 1, 0.05, NetworkModel::Packet);
        let mut sim = Sim::new(net, hosts, 1);
        let a = sim.spawn(
            "a",
            host(0),
            Box::new(Pinger {
                peer: None,
                body: rpc_body(),
            }),
        );
        sim.spawn(
            "b",
            host(1),
            Box::new(Pinger {
                peer: Some(a),
                body: rpc_body(),
            }),
        );
        sw.start();
        // ~32 ms per hop: 4000 simulated seconds ≈ 125k message events.
        let stats = sim.run_until(SimTime::from_secs(4000));
        sw.stop();
        sw.fold(sim.event_order_hash());
        stats.events
    });
    p.probe("sim.kernel.timer_ns", NS, |sw| {
        let (net, hosts) = grid(1, BURST, 0.0, NetworkModel::Packet);
        let mut sim = Sim::new(net, hosts, 1);
        for i in 0..BURST {
            sim.spawn(&format!("t{i}"), host(i), Box::new(Ticker));
        }
        sw.start();
        let stats = sim.run_until(SimTime::from_secs(4));
        sw.stop();
        sw.fold(sim.event_order_hash());
        stats.events
    });
    p.probe("sim.kernel.spawn_us", US, |sw| {
        const PROCS: usize = 128;
        const WORLDS: usize = 40;
        for _ in 0..WORLDS {
            let (net, hosts) = grid(4, PROCS / 4, 0.0, NetworkModel::Packet);
            sw.start();
            let mut sim = Sim::new(net, hosts, 1);
            for i in 0..PROCS {
                let pid = sim.spawn("p", host(i), Box::new(Devnull));
                sw.fold(pid.0 as u64);
            }
            sw.stop();
        }
        (PROCS * WORLDS) as u64
    });
}

// ---- sim.net ------------------------------------------------------------------

/// Sends bursts of one small message and times the `Ctx::send` calls from
/// inside its own handler — the only place they can be timed from outside
/// the kernel. Shared with the driver through `Rc`.
struct SendBursts {
    to: ProcessId,
    body: Payload,
    bursts_left: u32,
    spent: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Process for SendBursts {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if !matches!(ev, Event::Started | Event::Timer { .. }) || self.bursts_left == 0 {
            return;
        }
        self.bursts_left -= 1;
        let t0 = Instant::now();
        for i in 0..BURST as u32 {
            ctx.send(self.to, i, self.body.clone());
        }
        self.spent
            .set(self.spent.get() + t0.elapsed().as_nanos() as u64);
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
}

/// One churn cycle on a table holding `FLOWS` concurrent 64 KiB flows over
/// an 8-site mesh: complete a flow, start its replacement, run the
/// coalesced fair-share pass — the work the kernel does per delivered bulk
/// message. Generations are learned from the pass's output, as the kernel
/// learns them.
struct FlowChurn {
    net: NetModel,
    table: FlowTable,
    gens: Vec<u32>,
    out: Vec<(u32, u32, SimTime)>,
    blob: Payload,
    next: usize,
    reschedules: u64,
}

impl FlowChurn {
    const SITES: usize = 8;
    const FLOWS: usize = 96;

    fn new() -> Self {
        let (net, _) = grid(Self::SITES, 0, 0.0, NetworkModel::Flow);
        let mut c = FlowChurn {
            table: FlowTable::new(net.site_count()),
            net,
            gens: Vec::new(),
            out: Vec::new(),
            blob: vec![0u8; 65_536].into(),
            next: 0,
            reschedules: 0,
        };
        for i in 0..Self::FLOWS {
            c.start(i);
            c.flush();
        }
        c
    }

    fn start(&mut self, i: usize) -> u32 {
        let from = SiteId((i % Self::SITES) as u16);
        let to = SiteId(((i + 1 + i / Self::SITES) % Self::SITES) as u16);
        let id = self.table.start(
            from,
            to,
            65_568,
            SimDuration::from_millis(30),
            SimTime::ZERO,
            0,
            1,
            7,
            self.blob.clone(),
        );
        let (links, n) = self.table.links_of(id);
        self.table.mark_dirty(&links[..n]);
        id
    }

    fn flush(&mut self) {
        self.out.clear();
        self.table
            .recompute_dirty(SimTime::ZERO, &self.net, &mut self.out);
        self.reschedules += self.out.len() as u64;
        for &(id, gen, _) in &self.out {
            if self.gens.len() <= id as usize {
                self.gens.resize(id as usize + 1, 0);
            }
            self.gens[id as usize] = gen;
        }
    }

    fn cycle(&mut self) -> u64 {
        let id = (self.next % Self::FLOWS) as u32;
        let done = self
            .table
            .complete(id, self.gens[id as usize])
            .expect("generation tracked from the pass's output");
        self.table.mark_dirty(&done.links[..done.nlinks]);
        self.start(self.next);
        self.next += 1;
        self.flush();
        self.out.len() as u64
    }
}

fn net(p: &mut Probes<'_>) {
    p.probe("sim.net.delay_sample_ns", NS, |sw| {
        const N: u64 = 400_000;
        let (net, _) = grid(4, 0, 0.05, NetworkModel::Packet);
        let mut rng = Xoshiro256::seed_from_u64(7);
        sw.start();
        for i in 0..N {
            let d = net
                .delay(
                    SiteId((i % 4) as u16),
                    SiteId(((i / 4) % 4) as u16),
                    92,
                    SimTime::from_micros(i),
                    &mut rng,
                )
                .expect("no partitions");
            sw.fold(d.as_micros());
        }
        sw.stop();
        N
    });
    p.probe("sim.net.send_small_ns", NS, |sw| {
        const BURSTS: u32 = 4000;
        let (net, hosts) = grid(2, 1, 0.05, NetworkModel::Packet);
        let mut sim = Sim::new(net, hosts, 1);
        let sink = sim.spawn("sink", host(1), Box::new(Devnull));
        let spent = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.spawn(
            "src",
            host(0),
            Box::new(SendBursts {
                to: sink,
                body: rpc_body(),
                bursts_left: BURSTS,
                spent: spent.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(BURSTS as u64 / 10 + 1));
        sw.ns = spent.get();
        sw.fold(sim.event_order_hash());
        BURSTS as u64 * BURST as u64
    });
    p.probe("sim.net.flow_start_ns", NS, |sw| {
        const N: usize = 50_000;
        let blob: Payload = vec![0u8; 65_536].into();
        let mut table = FlowTable::new(FlowChurn::SITES);
        sw.start();
        for i in 0..N {
            let id = table.start(
                SiteId((i % FlowChurn::SITES) as u16),
                SiteId(((i + 2) % FlowChurn::SITES) as u16),
                65_568,
                SimDuration::from_millis(30),
                SimTime::ZERO,
                0,
                1,
                7,
                blob.clone(),
            );
            sw.fold(id as u64);
        }
        sw.stop();
        N as u64
    });
    let mut per_cycle = Vec::new();
    let us = p.probe("sim.net.flow_recompute_us", US, |sw| {
        const CYCLES: u64 = 4000;
        let mut churn = FlowChurn::new();
        churn.reschedules = 0;
        sw.start();
        for _ in 0..CYCLES {
            let n = churn.cycle();
            sw.fold(n);
        }
        sw.stop();
        per_cycle.push(churn.reschedules as f64 / CYCLES as f64);
        CYCLES
    });
    // Not a metric of its own: the share model charges fair-share work per
    // rescheduled deadline, the unit the workloads' registries count.
    let resched_per_cycle = per_cycle[0].max(1.0);
    p.record(MODEL_FLOW_RESCHEDULE_NS, us * 1e3 / resched_per_cycle);
}

/// Derived from the recompute probe for the share model; not reported.
pub const MODEL_FLOW_RESCHEDULE_NS: &str = "model.flow_reschedule_ns";

// ---- sim.payload, sim.rng, sim.farm -------------------------------------------

fn payload_rng_farm(p: &mut Probes<'_>) {
    p.probe("sim.payload.build_drop_ns", NS, |sw| {
        const N: u64 = 400_000;
        let body = rpc_unit().to_wire();
        sw.start();
        for _ in 0..N {
            let pl = Payload::build(body.len(), |out| out.extend_from_slice(&body));
            sw.fold(pl.len() as u64);
        }
        sw.stop();
        N
    });
    p.probe("sim.payload.clone_ns", NS, |sw| {
        const N: u64 = 1_000_000;
        let pl = rpc_body();
        sw.start();
        for _ in 0..N {
            let c = black_box(&pl).clone();
            sw.fold(c.len() as u64);
        }
        sw.stop();
        N
    });
    p.probe("sim.rng.next_ns", NS, |sw| {
        const N: u64 = 4_000_000;
        let mut rng = Xoshiro256::seed_from_u64(11);
        sw.start();
        let mut acc = 0u64;
        for _ in 0..N {
            acc ^= rng.next_u64();
        }
        sw.stop();
        sw.fold(acc);
        N
    });
    // Sim-farm scaling on independent chaos cells: wall at one worker over
    // wall at two. Host-dependent by design (≈1 on a one-core box).
    p.tr.enter("sim.farm.speedup_2t");
    let cfg = CampaignConfig {
        seeds: vec![1998],
        horizon: SimDuration::from_secs(900),
        plans: standard_plans(),
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
    };
    let mut speedups: Vec<f64> = (0..3)
        .map(|_| {
            let one = run_campaign_threads(&cfg, 1).stats.wall_ms;
            let two = run_campaign_threads(&cfg, 2).stats.wall_ms;
            one / two
        })
        .collect();
    p.tr.exit();
    p.record("sim.farm.speedup_2t", median(&mut speedups));
}

// ---- proto ----------------------------------------------------------------------

fn proto(p: &mut Probes<'_>) {
    const N: u64 = 200_000;
    let unit = rpc_unit();
    p.probe("proto.packet.encode_ns", NS, |sw| {
        sw.start();
        for i in 0..N {
            let pkt = Packet::request(mtype::SCHED_BASE, i, unit.to_wire_payload());
            sw.fold(pkt.to_sim_payload().len() as u64);
        }
        sw.stop();
        N
    });
    p.probe("proto.packet.decode_ns", NS, |sw| {
        let bytes = rpc_body();
        sw.start();
        for _ in 0..N {
            let pkt = Packet::from_sim_payload(mtype::SCHED_BASE, black_box(&bytes))
                .expect("well-formed packet");
            let body: WorkUnit = pkt.body().expect("well-formed body");
            sw.fold(body.seed ^ pkt.corr_id);
        }
        sw.stop();
        N
    });
    // Throughput, not latency: report GB/s so higher is better.
    let data = vec![0x5Au8; 65_536];
    let ns_per_call = p.probe("proto.packet.crc32_gbps", NS, |sw| {
        const CALLS: u64 = 400;
        sw.start();
        for _ in 0..CALLS {
            sw.fold(crc32(black_box(&data)) as u64);
        }
        sw.stop();
        CALLS
    });
    p.record("proto.packet.crc32_gbps", data.len() as f64 / ns_per_call);
    p.probe("proto.packet.frame_parse_ns", NS, |sw| {
        let stream = Packet::request(mtype::SCHED_BASE, 7, unit.to_wire()).to_stream_bytes();
        let mut fr = FrameReader::new();
        sw.start();
        for _ in 0..N {
            fr.feed(black_box(&stream));
            let pkt = fr
                .next_packet()
                .expect("well-formed stream")
                .expect("whole packet fed");
            sw.fold(pkt.corr_id);
        }
        sw.stop();
        N
    });
    p.probe("proto.wire.roundtrip_ns", NS, |sw| {
        sw.start();
        for _ in 0..N {
            let bytes = black_box(&unit).to_wire();
            let back = WorkUnit::from_wire(&bytes).expect("round trip");
            sw.fold(back.seed);
        }
        sw.stop();
        N
    });
    let tag = EventTag {
        peer: 9,
        mtype: mtype::SCHED_BASE,
    };
    p.probe("proto.rpc.begin_complete_ns", NS, |sw| {
        let mut tracker: RpcTracker<u64> = RpcTracker::new();
        let mut policy = StaticTimeout(SimDuration::from_secs(2));
        sw.start();
        for i in 0..N {
            let now = SimTime::from_micros(i * 50);
            let corr = tracker.begin(tag, now, &mut policy, i);
            let (pending, rtt) = tracker
                .complete(corr, now + SimDuration::from_millis(30), &mut policy)
                .expect("just begun");
            sw.fold(pending.context ^ rtt.as_micros());
        }
        sw.stop();
        N
    });
    p.probe("proto.rpc.expire_ns", NS, |sw| {
        const ROUNDS: u64 = 2000;
        let mut tracker: RpcTracker<u64> = RpcTracker::new();
        let mut policy = StaticTimeout(SimDuration::from_secs(2));
        for r in 0..ROUNDS {
            let now = SimTime::from_secs(r * 10);
            for i in 0..BURST as u64 {
                tracker.begin(tag, now, &mut policy, i);
            }
            sw.start();
            let expired = tracker.expire(now + SimDuration::from_secs(3), &mut policy);
            sw.stop();
            sw.fold(expired.len() as u64);
        }
        ROUNDS * BURST as u64
    });
    p.probe("proto.retry.decision_ns", NS, |sw| {
        let mut retry = AdaptiveRetry::with_defaults(5);
        sw.start();
        for i in 0..N {
            let peer = i % 8;
            let (decision, opened) =
                retry.on_timeout(peer, (i % 3) as u32, SimTime::from_millis(i));
            if let RetryDecision::Resend { after } = decision {
                sw.fold(after.as_micros());
            }
            sw.fold(opened as u64);
            retry.on_success(peer);
        }
        sw.stop();
        N
    });
    p.tr.enter("proto.tcp.rtt_us_p50");
    let rtt = tcp_rtt_us_p50().unwrap_or_else(|e| {
        eprintln!("proto.tcp.rtt_us_p50: loopback TCP unavailable ({e}); reporting 0");
        0.0
    });
    p.tr.exit();
    p.record("proto.tcp.rtt_us_p50", rtt);
}

/// 2 000 closed-loop echoes between two `TcpNode`s on loopback, one client.
fn tcp_rtt_us_p50() -> std::io::Result<f64> {
    const ECHOES: usize = 2000;
    let server = TcpNode::bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    let echo = std::thread::spawn(move || {
        for _ in 0..ECHOES {
            let Some(mut inc) = server.recv_timeout(Duration::from_secs(5)) else {
                return;
            };
            let reply = Packet::response_to(&inc.packet, inc.packet.payload.clone());
            if inc.reply(&reply).is_err() {
                return;
            }
        }
    });
    let mut client = TcpNode::bind("127.0.0.1:0")?;
    let body = rpc_unit().to_wire();
    let mut rtts = Vec::with_capacity(ECHOES);
    let mut failure = None;
    for i in 0..ECHOES {
        let t0 = Instant::now();
        if let Err(e) = client.send(
            addr,
            &Packet::request(mtype::APP_BASE, i as u64, body.clone()),
        ) {
            failure = Some(e);
            break;
        }
        match client.recv_timeout(Duration::from_secs(5)) {
            Some(inc) if inc.packet.corr_id == i as u64 => {
                rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            _ => {
                failure = Some(std::io::Error::other("echo lost"));
                break;
            }
        }
    }
    // Dropping the client closes its connection, which ends a server
    // still waiting in `recv_timeout` no later than that time-out.
    drop(client);
    echo.join().expect("echo thread does not panic");
    match failure {
        Some(e) => Err(e),
        None => Ok(median(&mut rtts)),
    }
}

// ---- forecast -------------------------------------------------------------------

fn load_trace(seed: u64, n: usize) -> Vec<f64> {
    let step = SimDuration::from_secs(30);
    let walk = RandomWalkLoad::new(
        &mut Xoshiro256::seed_from_u64(seed),
        step * n as u64,
        step,
        0.35,
        0.05,
        0.95,
    );
    (0..n as u64)
        .map(|i| walk.load(SimTime::ZERO + step * i))
        .collect()
}

fn forecast(p: &mut Probes<'_>) {
    let series = load_trace(7, 2000);
    p.probe("forecast.battery_update_ns", NS, |sw| {
        const ROUNDS: usize = 25;
        sw.start();
        for _ in 0..ROUNDS {
            let mut set = ForecasterSet::standard();
            for &x in &series {
                set.update(x);
            }
            sw.fold(set.samples());
        }
        sw.stop();
        (ROUNDS * series.len()) as u64
    });
    let mut warm = ForecasterSet::standard();
    for &x in &series[..500] {
        warm.update(x);
    }
    p.probe("forecast.predict_ns", NS, |sw| {
        const N: u64 = 100_000;
        sw.start();
        for _ in 0..N {
            let f = black_box(&warm).predict().expect("warm battery");
            sw.fold(f.value.to_bits());
        }
        sw.stop();
        N
    });
    p.probe("forecast.dynbench_cycle_ns", NS, |sw| {
        const N: u64 = 50_000;
        let mut db: DynamicBenchmark<(u64, u16)> = DynamicBenchmark::new();
        let mut t = SimTime::ZERO;
        sw.start();
        for i in 0..N {
            let key = (i % 8, mtype::SCHED_BASE);
            db.begin(key, i, t);
            t += SimDuration::from_millis(30);
            let d = db.end(key, i, t).expect("begun above");
            sw.fold(d.as_micros());
        }
        sw.stop();
        N
    });
    p.probe("forecast.timeout_decision_ns", NS, |sw| {
        const N: u64 = 100_000;
        let tag = EventTag {
            peer: 9,
            mtype: mtype::SCHED_BASE,
        };
        let mut policy = ForecastTimeout::wan_default();
        for i in 0..200 {
            policy.observe_rtt(tag, SimDuration::from_millis(100 + i % 40));
        }
        sw.start();
        for _ in 0..N {
            sw.fold(policy.timeout_for(black_box(tag)).as_micros());
        }
        sw.stop();
        N
    });
    // Accuracy beside speed: a faster battery must not be a worse one.
    let mut set = ForecasterSet::standard();
    let (mut abs_err, mut scored, mut level) = (0.0, 0u64, 0.0);
    for &x in &series {
        if let Some(f) = set.predict() {
            abs_err += (f.value - x).abs();
            level += x;
            scored += 1;
        }
        set.update(x);
    }
    p.record(
        "forecast.mae_pct",
        100.0 * abs_err / level.max(f64::MIN_POSITIVE),
    );
    black_box(scored);
}

// ---- gossip ---------------------------------------------------------------------

fn store_with(n: u64) -> GossipStore {
    let mut s = GossipStore::new();
    for c in 0..n {
        s.register(
            c,
            &[TypeRegistration {
                stype: 1,
                comparator: 0,
            }],
        );
        s.record_component_state(c, 1, VersionedBlob::new(c + 1, vec![0u8; 32]));
    }
    s
}

fn clique_of(n: u64) -> Vec<CliqueState> {
    let peers: Vec<u64> = (0..n).collect();
    peers
        .iter()
        .map(|&me| {
            let mut c = CliqueState::new(me, &peers, CliqueConfig::default(), SimTime::ZERO);
            c.on_token(
                &Token {
                    generation: 1,
                    leader: 0,
                    members: peers.clone(),
                    seq: 0,
                },
                SimTime::ZERO,
            );
            c
        })
        .collect()
}

fn gossip(p: &mut Probes<'_>) {
    const COMPONENTS: u64 = 64;
    const MEMBERS: u64 = 8;
    let mut comparisons = 0;
    p.probe("gossip.store.reconcile_us", US, |sw| {
        const CALLS: u64 = 5000;
        let mut store = store_with(COMPONENTS);
        let before = store.comparisons();
        sw.start();
        for _ in 0..CALLS {
            sw.fold(store.stale_components(1).len() as u64);
        }
        sw.stop();
        comparisons = (store.comparisons() - before) / CALLS;
        CALLS
    });
    p.record("gossip.store.comparisons", comparisons as f64);
    p.probe("gossip.store.absorb_ns", NS, |sw| {
        const N: u64 = 200_000;
        let mut store = store_with(COMPONENTS);
        sw.start();
        for v in 0..N {
            // Alternate fresher and staler blobs, as syncs deliver them.
            let version = if v % 2 == 0 { COMPONENTS + 2 + v } else { 1 };
            sw.fold(store.absorb(1, VersionedBlob::new(version, vec![0u8; 32])) as u64);
        }
        sw.stop();
        N
    });
    p.probe("gossip.clique.token_round_us", US, |sw| {
        const ROUNDS: u64 = 2000;
        let mut members = clique_of(MEMBERS);
        let mut holder = 0usize;
        sw.start();
        for r in 0..ROUNDS {
            for _ in 0..MEMBERS {
                let (next, tok) = members[holder]
                    .forward_token()
                    .expect("holder has the token");
                holder = next as usize;
                members[holder].on_token(&tok, SimTime::from_secs(r + 1));
                sw.fold(tok.seq);
            }
        }
        sw.stop();
        ROUNDS
    });
    p.probe("gossip.clique.election_us", US, |sw| {
        const ELECTIONS: u64 = 2000;
        for e in 0..ELECTIONS {
            let mut members = clique_of(MEMBERS);
            let now = SimTime::from_secs(100 + e);
            sw.start();
            let (call, targets) = members[1].start_election(now);
            for &t in &targets {
                if members[t as usize].on_election_call(&call, now) {
                    members[1].on_election_reply(t);
                }
            }
            let won = members[1].finish_election(now + SimDuration::from_secs(10));
            sw.stop();
            sw.fold(won.map_or(0, |(_, tok)| tok.generation));
        }
        ELECTIONS
    });
}

// ---- sched, workload --------------------------------------------------------------

fn sched_workload(p: &mut Probes<'_>) {
    // One scheduler, eight clients, one LAN, units of ~20 simulated ms:
    // host time per completed unit through the whole grant/report/result
    // cycle, with nothing else in the world.
    p.probe("sched.unit_cycle_us", US, |sw| {
        let (net, hosts) = grid(1, 12, 0.0, NetworkModel::Packet);
        let mut sim = Sim::new(net, hosts, 3);
        let workload = WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 });
        let dep = Deployment::builder(DeployConfig {
            sched: SchedulerConfig {
                workload: workload.clone(),
                step_budget: 200,
                ..SchedulerConfig::default()
            },
            ..DeployConfig::default()
        })
        .gossip_pool(&[host(0)])
        .schedulers(&[host(1)])
        .state_manager(host(2))
        .log_server(host(3))
        .spawn(&mut sim);
        for i in 0..8 {
            sim.spawn(
                &format!("c{i}"),
                host(4 + i),
                Box::new(ComputeClient::new(ClientConfig {
                    workload: workload.clone(),
                    schedulers: dep.scheduler_addrs(),
                    state_server: Some(dep.state_addr()),
                    chunk_ops: 2_000_000,
                    ops_per_step: 10_000,
                    ..ClientConfig::default()
                })),
            );
        }
        sw.start();
        sim.run_until(SimTime::from_secs(60));
        sw.stop();
        sw.fold(sim.event_order_hash());
        sim.metrics().counter("client.units_completed") as u64
    });
    let mut on_result_ns = 0u64;
    let mut on_result_calls = 0u64;
    for (name, app) in [
        ("workload.ramsey.generate_ns", "ramsey"),
        ("workload.dag.generate_ns", "dag"),
        ("workload.faas.generate_ns", "faas"),
    ] {
        let spec = WorkloadSpec::by_name(app).expect("shipped workload name");
        let mut result_sw = Stopwatch::default();
        p.probe(name, NS, |sw| {
            const CALLS: u64 = 100_000;
            let mut calls = 0;
            let mut salt = 0;
            while calls < CALLS {
                // Finite workloads (dag, faas) run dry; start another.
                let mut w = spec.build(salt);
                salt += 1;
                let mut id = 0u64;
                let mut now = SimTime::ZERO;
                loop {
                    // Issue everything issuable, then answer it all:
                    // generate and on_result are timed as separate batches.
                    let mut wave = Vec::new();
                    sw.start();
                    while calls < CALLS {
                        calls += 1;
                        match w.generate(id, now, id % 8, 2000) {
                            Some(u) => {
                                id += 1;
                                wave.push(u);
                                if wave.len() == BURST {
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    sw.stop();
                    if wave.is_empty() {
                        if w.progress().is_none_or(|f| f >= 1.0) {
                            break;
                        }
                        // Arrival-driven supply (faas): move time on.
                        now += SimDuration::from_secs(1);
                        if calls >= CALLS {
                            break;
                        }
                        continue;
                    }
                    let results: Vec<_> = wave
                        .iter()
                        .map(|u| w.synth_result(u, u.step_budget, u.step_budget))
                        .collect();
                    result_sw.start();
                    for r in &results {
                        w.on_result(r);
                    }
                    result_sw.stop();
                    on_result_calls += results.len() as u64;
                    sw.fold(id);
                }
            }
            calls
        });
        on_result_ns += result_sw.ns;
    }
    p.record(
        "workload.on_result_ns",
        on_result_ns as f64 / on_result_calls.max(1) as f64,
    );
}

// ---- ramsey, state ----------------------------------------------------------------

fn ramsey_state(p: &mut Probes<'_>) {
    let mut rng = Xoshiro256::seed_from_u64(17);
    let g17 = ColoredGraph::random(17, &mut rng);
    let g43 = ColoredGraph::random(43, &mut rng);
    let mut ws = Workspace::new();
    p.probe("ramsey.count_k4_n17_us", US, |sw| {
        const CALLS: u64 = 20_000;
        let mut ops = OpsCounter::new();
        sw.start();
        for _ in 0..CALLS {
            sw.fold(count_total_ws(black_box(&g17), 4, &mut ops, &mut ws));
        }
        sw.stop();
        CALLS
    });
    p.probe("ramsey.count_k5_n43_us", US, |sw| {
        const CALLS: u64 = 200;
        let mut ops = OpsCounter::new();
        sw.start();
        for _ in 0..CALLS {
            sw.fold(count_total_ws(black_box(&g43), 5, &mut ops, &mut ws));
        }
        sw.stop();
        CALLS
    });
    let ns_per_step = p.probe("ramsey.tabu_steps_per_s", NS, |sw| {
        const STEPS: u64 = 3000;
        let mut rng = Xoshiro256::seed_from_u64(43);
        let mut state = SearchState::new_incremental(ColoredGraph::random(43, &mut rng), 5);
        let mut tabu = TabuSearch::default();
        sw.start();
        let report = run_search(&mut state, &mut tabu, &mut rng, STEPS);
        sw.stop();
        sw.fold(report.best_count);
        report.steps
    });
    p.record("ramsey.tabu_steps_per_s", 1e9 / ns_per_step);
    let mut useful_ops = 0u64;
    let ms = p.probe("ramsey.execute_unit_ms", MS, |sw| {
        const UNITS: u64 = 12;
        useful_ops = 0;
        sw.start();
        for i in 0..UNITS {
            let (result, stats) = execute_unit(&WorkUnit {
                id: i,
                arg0: 4,
                arg1: 17,
                variant: (i % 3) as u8,
                seed: 0x5EED + i,
                step_budget: 5_000,
                payload: Vec::new(),
            });
            useful_ops += result.ops;
            sw.fold(result.progress ^ stats.table_lookups);
        }
        sw.stop();
        UNITS
    });
    p.record(
        "ramsey.ops_per_host_s",
        useful_ops as f64 / 12.0 / (ms / 1e3),
    );
    p.probe("state.validator_us", US, |sw| {
        const CALLS: u64 = 5000;
        let validate = ramsey_validator();
        let witness = ColoredGraph::paley(17).to_bytes();
        sw.start();
        for _ in 0..CALLS {
            let ok = validate("ramsey/best/4", black_box(&witness)).is_ok();
            sw.fold(ok as u64);
        }
        sw.stop();
        CALLS
    });
}

// ---- infra, core, chaos, telemetry ------------------------------------------------

fn sc98_wall_s(window_s: u64, trace_capacity: Option<usize>) -> f64 {
    let t0 = Instant::now();
    let rep = run_sc98(&Sc98Config {
        duration: SimDuration::from_secs(window_s),
        trace_capacity,
        ..Sc98Config::default()
    });
    black_box(rep.event_order_hash);
    t0.elapsed().as_secs_f64()
}

fn builders_telemetry(p: &mut Probes<'_>) {
    p.probe("infra.build_sc98_ms", MS, |sw| {
        const BUILDS: u64 = 10;
        sw.start();
        for i in 0..BUILDS {
            let pool = build_sc98(1998 + i, SimDuration::from_secs(WINDOW_S), None);
            sw.fold(pool.hosts.len() as u64);
        }
        sw.stop();
        BUILDS
    });
    let spec = MegaSpec::full(NetworkModel::Packet);
    p.probe("infra.build_mega_shard_ms", MS, |sw| {
        const BUILDS: u64 = 200;
        sw.start();
        for i in 0..BUILDS {
            sw.fold(build_mega_shard(&spec, i as usize).hosts.len() as u64);
        }
        sw.stop();
        BUILDS
    });
    p.probe("core.deploy_spawn_us", US, |sw| {
        const DEPLOYS: u64 = 200;
        for i in 0..DEPLOYS {
            let world = build_mega_shard(&spec, 0);
            let mut sim = Sim::new(world.net, world.hosts, i);
            sw.start();
            let dep = Deployment::builder(DeployConfig::default())
                .service_hosts(&world.services)
                .spawn(&mut sim);
            sw.stop();
            sw.fold(dep.state_addr());
        }
        DEPLOYS
    });
    p.probe("chaos.plan_compile_us", US, |sw| {
        const ROUNDS: u64 = 500;
        let plans = standard_plans();
        sw.start();
        for seed in 0..ROUNDS {
            for plan in &plans {
                let c = plan.compile(seed, SimDuration::from_secs(1800), N_COMPUTE);
                sw.fold(c.faults_injected);
            }
        }
        sw.stop();
        ROUNDS * plans.len() as u64
    });
    p.probe("telemetry.counter_add_ns", NS, |sw| {
        const N: u64 = 4_000_000;
        let mut reg = Registry::new();
        let ids: Vec<_> = (0..8).map(|i| reg.counter(&format!("c.{i}"))).collect();
        sw.start();
        for i in 0..N {
            reg.add(ids[(i % 8) as usize], 1.0);
        }
        sw.stop();
        sw.fold(reg.counter_value(ids[3]) as u64);
        N
    });
    p.probe("telemetry.histogram_observe_ns", NS, |sw| {
        const N: u64 = 2_000_000;
        let mut reg = Registry::new();
        let h = reg.histogram("h.rtt_us");
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        sw.start();
        for _ in 0..N {
            reg.observe(h, (xorshift(&mut s) % 1_000_000) as f64);
        }
        sw.stop();
        sw.fold(reg.histogram_get(h).count());
        N
    });
    p.probe("telemetry.registry_merge_us", US, |sw| {
        const MERGES: u64 = 2000;
        // The size of one chaos cell's registry: ~60 counters, 4 histograms.
        let mut cell = Registry::new();
        for i in 0..60 {
            let c = cell.counter(&format!("layer{}.counter{i}", i % 9));
            cell.add(c, i as f64);
        }
        for i in 0..4 {
            let h = cell.histogram(&format!("layer{i}.hist"));
            for v in 0..100 {
                cell.observe(h, (v * 37 % 1000) as f64);
            }
        }
        let mut total = Registry::new();
        sw.start();
        for _ in 0..MERGES {
            total.merge(&cell);
        }
        sw.stop();
        sw.fold(total.counters().len() as u64);
        MERGES
    });
    // In-simulator span tracing on against off, on a one-hour SC98 window.
    p.tr.enter("telemetry.trace_overhead_pct");
    let mut off: Vec<f64> = Vec::new();
    let mut on: Vec<f64> = Vec::new();
    for _ in 0..3 {
        off.push(sc98_wall_s(3600, None));
        on.push(sc98_wall_s(3600, Some(65_536)));
    }
    p.tr.exit();
    let off = median(&mut off);
    p.record(
        "telemetry.trace_overhead_pct",
        100.0 * (median(&mut on) - off) / off,
    );
}
