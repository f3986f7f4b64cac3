//! The Network Weather Service, as a pair of simulator processes.
//!
//! "The NWS collects performance measurements from Grid computing
//! resources (processors, networks, etc.) and uses these forecasting
//! techniques to predict short-term resource availability" (§2.2); the
//! Ramsey application's components "consult the Network Weather Service —
//! a distributed dynamic performance forecasting service" (§3.1, Figure 1).
//!
//! [`NwsSensor`] probes its peers over the lingua franca (round-trip
//! latency) and its own host (timed compute — effective CPU rate),
//! shipping each measurement to an [`NwsServer`], which keeps a
//! [`ForecasterSet`](crate::selector::ForecasterSet) per named resource and answers forecast queries from
//! any component.

use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::wire_struct;
use ew_proto::{mtype, EventTag, Packet, RpcClient, WireEncode, RPC_WAKE};
use ew_sim::{CounterId, Ctx, Event, Process, ProcessId, SimDuration, SimTime, SpanId};

use crate::dynbench::DynamicBenchmark;
use crate::timeout::ForecastTimeout;

/// NWS message types.
pub mod nm {
    use super::mtype;
    /// Sensor ↔ sensor echo probe (request; response echoes the payload).
    pub const PROBE: u16 = mtype::NWS_BASE;
    /// Sensor → server measurement report (one-way).
    pub const REPORT: u16 = mtype::NWS_BASE + 1;
    /// Component → server forecast query (request).
    pub const QUERY: u16 = mtype::NWS_BASE + 2;
}

/// A measurement report body.
#[derive(Clone, Debug, PartialEq)]
pub struct NwsReport {
    /// Resource name, e.g. `"rtt.3.7"` or `"cpu.12"`.
    pub resource: String,
    /// Measured value (seconds for RTTs, ops/s for CPU rates).
    pub value: f64,
}

wire_struct!(NwsReport { resource, value });

/// A forecast query body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NwsQuery {
    /// Resource name to forecast.
    pub resource: String,
}

wire_struct!(NwsQuery { resource });

/// A forecast reply body.
#[derive(Clone, Debug, PartialEq)]
pub struct NwsForecastReply {
    /// Whether the resource has any history.
    pub found: bool,
    /// Predicted next value.
    pub value: f64,
    /// Winning forecasting method.
    pub method: String,
}

wire_struct!(NwsForecastReply {
    found,
    value,
    method
});

/// Sensor configuration.
#[derive(Clone, Debug, Default)]
pub struct SensorConfig {
    /// Peer sensors to probe (round-trip measurements).
    pub peers: Vec<u64>,
    /// The NWS server to report to.
    pub server: u64,
}

/// Probe period.
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(30);
/// Probe payload size (bytes) — measures latency + a slice of bandwidth,
/// like the NWS's small-message probes.
const PROBE_BYTES: usize = 256;
/// Operations per CPU probe (timed compute chunk).
const CPU_PROBE_OPS: u64 = 1_000_000;

/// Most resources one [`NwsServer`] tracks. Names come straight off the
/// wire and each opens a ~2 KB battery, so without a bound a hostile or
/// looping sensor grows the server one made-up name at a time. SC98, the
/// largest shipped world, tracks 36 (six sensors: 30 RTT pairs + 6 CPUs).
const MAX_RESOURCES: usize = 4096;
/// Longest resource name accepted (`rtt.<u64>.<u64>` is at most 45 bytes).
const MAX_RESOURCE_NAME: usize = 64;

const TIMER_PROBE: u64 = 1;
const CPU_PROBE_TAG: u64 = 0xC0;

/// Telemetry handles interned by a sensor on `Event::Started`.
struct SensorTele {
    probes_lost: CounterId,
    probes_ok: CounterId,
    timeout_span: SpanId,
}

impl SensorTele {
    fn intern(ctx: &mut Ctx<'_>) -> Self {
        SensorTele {
            probes_lost: ctx.counter("nws.probes_lost"),
            probes_ok: ctx.counter("nws.probes_ok"),
            timeout_span: ctx.span("proto.timeout"),
        }
    }
}

/// The per-host NWS sensor process.
pub struct NwsSensor {
    cfg: SensorConfig,
    rpc: RpcClient<u64>, // context = peer addr
    cpu_probe_started: Option<SimTime>,
    tele: Option<SensorTele>,
    /// Network probes answered.
    pub probes_ok: u64,
    /// Network probes timed out.
    pub probes_lost: u64,
}

impl NwsSensor {
    /// A sensor with the given configuration.
    pub fn new(cfg: SensorConfig) -> Self {
        NwsSensor {
            cfg,
            rpc: RpcClient::new(ForecastTimeout::wan_default(), None, None),
            cpu_probe_started: None,
            tele: None,
            probes_ok: 0,
            probes_lost: 0,
        }
    }

    fn report(&self, ctx: &mut Ctx<'_>, resource: String, value: f64) {
        let body = NwsReport { resource, value };
        send_packet(
            ctx,
            ProcessId(self.cfg.server as u32),
            &Packet::oneway(nm::REPORT, body.to_wire()),
        );
    }

    fn probe_round(&mut self, ctx: &mut Ctx<'_>) {
        for &peer in &self.cfg.peers.clone() {
            let tag = EventTag {
                peer,
                mtype: nm::PROBE,
            };
            let corr = self.rpc.begin(ctx, tag, peer);
            send_packet(
                ctx,
                ProcessId(peer as u32),
                &Packet::request(nm::PROBE, corr, vec![0u8; PROBE_BYTES]),
            );
        }
        // CPU probe: a timed compute chunk measures the host's effective
        // guest-visible rate under current ambient load.
        if self.cpu_probe_started.is_none() {
            self.cpu_probe_started = Some(ctx.now());
            ctx.compute(CPU_PROBE_OPS, CPU_PROBE_TAG);
        }
        ctx.set_timer(PROBE_INTERVAL, TIMER_PROBE);
    }
}

impl Process for NwsSensor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.tele = Some(SensorTele::intern(ctx));
                // Spread sensors out within the first interval.
                let jitter = SimDuration::from_millis(ctx.rng().next_below(5_000));
                ctx.set_timer(jitter, TIMER_PROBE);
            }
            Event::Timer { tag } => match *tag {
                TIMER_PROBE => self.probe_round(ctx),
                RPC_WAKE => {
                    // A lost probe is only counted: with no retry layer
                    // every verdict would be `GaveUp`, and nothing is ever
                    // deferred, so `take_due` only re-arms the wake.
                    let tele = self.tele.as_ref().expect("started");
                    let (probes_lost, timeout_span) = (tele.probes_lost, tele.timeout_span);
                    for _ in self.rpc.take_expired(ctx, timeout_span) {
                        self.probes_lost += 1;
                        ctx.inc(probes_lost);
                    }
                    self.rpc.take_due(ctx);
                }
                _ => {}
            },
            Event::ComputeDone { tag, ops } if *tag == CPU_PROBE_TAG => {
                if let Some(started) = self.cpu_probe_started.take() {
                    let elapsed = ctx.now().since(started).as_secs_f64();
                    if elapsed > 0.0 {
                        let me = ctx.me().0;
                        self.report(ctx, format!("cpu.{me}"), *ops as f64 / elapsed);
                    }
                }
            }
            Event::Message { .. } => {
                if let Some(Ok((from, pkt))) = packet_from_event(&ev) {
                    if pkt.mtype != nm::PROBE {
                        return;
                    }
                    if pkt.is_request() {
                        // Echo the payload back.
                        send_packet(ctx, from, &Packet::response_to(&pkt, pkt.payload.clone()));
                    } else if pkt.is_response() {
                        if let Some((_, peer, rtt)) = self.rpc.complete(pkt.corr_id, ctx.now()) {
                            self.probes_ok += 1;
                            let tele = self.tele.as_ref().expect("started");
                            let me = ctx.me().0;
                            let secs = rtt.as_secs_f64();
                            ctx.inc(tele.probes_ok);
                            self.report(ctx, format!("rtt.{me}.{peer}"), secs);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// The NWS memory + forecaster service process.
pub struct NwsServer {
    streams: DynamicBenchmark<String>,
    reports_id: Option<CounterId>,
    /// Reports absorbed.
    pub reports: u64,
    /// Reports refused: the body did not decode (a NaN or ±∞ value is a
    /// wire error), the name was longer than `MAX_RESOURCE_NAME`, or it
    /// would have opened a stream beyond `MAX_RESOURCES`.
    pub reports_bad: u64,
}

impl Default for NwsServer {
    fn default() -> Self {
        Self::new()
    }
}

impl NwsServer {
    /// An empty server.
    pub fn new() -> Self {
        NwsServer {
            streams: DynamicBenchmark::new(),
            reports_id: None,
            reports: 0,
            reports_bad: 0,
        }
    }

    /// Driver-side forecast access (components use [`nm::QUERY`]).
    pub fn forecast(&self, resource: &str) -> Option<crate::selector::Forecast> {
        self.streams.forecast(resource)
    }

    /// Number of distinct resources tracked.
    pub fn resource_count(&self) -> usize {
        self.streams.stream_count()
    }
}

impl Process for NwsServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
            return;
        };
        match (pkt.mtype, pkt.is_request()) {
            (nm::REPORT, false) => {
                // Straight off the wire, whose decode refuses a NaN or ±∞.
                // Every new name opens a battery. (First come, first served:
                // a flood that fills the table before an honest sensor's
                // first report locks that sensor out; its streams already
                // open keep absorbing.) Interned here, not up front, so a
                // clean run's counter list (`results/health.json`) carries
                // no row for it.
                let rep = pkt.body::<NwsReport>().ok().filter(|rep| {
                    rep.resource.len() <= MAX_RESOURCE_NAME
                        && (self.streams.samples(&rep.resource) > 0
                            || self.streams.stream_count() < MAX_RESOURCES)
                });
                let Some(rep) = rep else {
                    self.reports_bad += 1;
                    let id = ctx.counter("nws.reports_bad");
                    ctx.inc(id);
                    return;
                };
                self.streams.observe(rep.resource, rep.value);
                self.reports += 1;
                // The server gets no Started event before the first
                // report can arrive, so intern on first use.
                let id = match self.reports_id {
                    Some(id) => id,
                    None => {
                        let id = ctx.counter("nws.reports");
                        self.reports_id = Some(id);
                        id
                    }
                };
                ctx.inc(id);
            }
            (nm::QUERY, true) => {
                if let Ok(q) = pkt.body::<NwsQuery>() {
                    let reply = match self.streams.forecast(q.resource.as_str()) {
                        Some(f) => NwsForecastReply {
                            found: true,
                            value: f.value,
                            method: f.method.to_string(),
                        },
                        None => NwsForecastReply {
                            found: false,
                            value: 0.0,
                            method: String::new(),
                        },
                    };
                    send_packet(ctx, from, &Packet::response_to(&pkt, reply.to_wire()));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::{HostSpec, HostTable, NetModel, Sim, SiteSpec, SpikeLoad};

    fn world() -> (Sim, Vec<ProcessId>, ProcessId) {
        let mut net = NetModel::new(0.05);
        let a = net.add_site(SiteSpec::simple(
            "a",
            SimDuration::from_millis(10),
            1.25e6,
            0.0,
        ));
        let b = net.add_site(SiteSpec {
            name: "b".into(),
            lan_latency: SimDuration::from_micros(200),
            lan_bandwidth: 12.5e6,
            wan_latency: SimDuration::from_millis(40),
            wan_bandwidth: 1.25e6,
            // Load spike on site b in the middle of the run.
            load: Box::new(SpikeLoad {
                start: SimTime::from_secs(600),
                end: SimTime::from_secs(1200),
                level: 0.8,
            }),
        });
        let mut hosts = HostTable::new();
        let ha = hosts.add(HostSpec::dedicated("ha", a, 1e8));
        let hb = hosts.add(HostSpec::dedicated("hb", b, 1e8));
        let hs = hosts.add(HostSpec::dedicated("server", a, 1e8));
        let mut sim = Sim::new(net, hosts, 17);
        let server = sim.spawn("nws-server", hs, Box::new(NwsServer::new()));
        // Sensors know each other (pids are sequential from the spawn
        // order, so precompute them).
        let sa_pid = ProcessId(server.0 + 1);
        let sb_pid = ProcessId(server.0 + 2);
        let sa = sim.spawn(
            "sensor-a",
            ha,
            Box::new(NwsSensor::new(SensorConfig {
                peers: vec![sb_pid.0 as u64],
                server: server.0 as u64,
            })),
        );
        let sb = sim.spawn(
            "sensor-b",
            hb,
            Box::new(NwsSensor::new(SensorConfig {
                peers: vec![sa_pid.0 as u64],
                server: server.0 as u64,
            })),
        );
        assert_eq!((sa, sb), (sa_pid, sb_pid));
        (sim, vec![sa, sb], server)
    }

    /// The server's current forecast value for `resource`.
    fn forecast_value(sim: &Sim, server: ProcessId, resource: &str) -> Option<f64> {
        sim.with_process::<NwsServer, _>(server, |s| s.forecast(resource).map(|f| f.value))
            .unwrap()
    }

    #[test]
    fn sensors_measure_and_server_forecasts_rtt() {
        let (mut sim, sensors, server) = world();
        sim.run_until(SimTime::from_secs(500));
        let (ok, lost) = sim
            .with_process::<NwsSensor, _>(sensors[0], |s| (s.probes_ok, s.probes_lost))
            .unwrap();
        assert!(ok > 10, "probes flowed: {ok}");
        assert_eq!(lost, 0, "calm network loses nothing");
        let resource = format!("rtt.{}.{}", sensors[0].0, sensors[1].0);
        let rtt = forecast_value(&sim, server, &resource).expect("rtt stream exists");
        // Baseline one-way 10ms + 40ms plus bandwidth/jitter: RTT ≈ 0.1 s.
        assert!(
            (0.08..0.2).contains(&rtt),
            "forecast RTT {rtt} out of range"
        );
    }

    #[test]
    fn cpu_sensor_tracks_host_rate() {
        let (mut sim, sensors, server) = world();
        sim.run_until(SimTime::from_secs(500));
        let resource = format!("cpu.{}", sensors[0].0);
        let rate = forecast_value(&sim, server, &resource).expect("cpu stream exists");
        assert!(
            (0.5e8..1.1e8).contains(&rate),
            "cpu forecast {rate:.3e} should approximate the 1e8 host"
        );
    }

    #[test]
    fn forecasts_adapt_to_the_load_spike() {
        let (mut sim, sensors, server) = world();
        let resource = format!("rtt.{}.{}", sensors[0].0, sensors[1].0);
        sim.run_until(SimTime::from_secs(550));
        let calm = forecast_value(&sim, server, &resource).expect("stream exists");
        // Mid-spike: site b's 0.8 load multiplies its latency 5x.
        sim.run_until(SimTime::from_secs(1150));
        let loaded = forecast_value(&sim, server, &resource).unwrap();
        assert!(
            loaded > 2.0 * calm,
            "forecast must track the spike: {calm:.3} -> {loaded:.3}"
        );
        // After the spike the forecast comes back down.
        sim.run_until(SimTime::from_secs(1800));
        let recovered = forecast_value(&sim, server, &resource).unwrap();
        assert!(
            recovered < loaded / 2.0,
            "forecast must recover: {loaded:.3} -> {recovered:.3}"
        );
    }

    #[test]
    fn query_interface_answers_components() {
        struct Querier {
            server: ProcessId,
            resource: String,
            pub reply: Option<NwsForecastReply>,
        }
        impl Process for Querier {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match &ev {
                    Event::Started => ctx.set_timer(SimDuration::from_secs(400), 1),
                    Event::Timer { .. } => {
                        let q = NwsQuery {
                            resource: self.resource.clone(),
                        };
                        send_packet(
                            ctx,
                            self.server,
                            &Packet::request(nm::QUERY, 1, q.to_wire()),
                        );
                    }
                    _ => {
                        if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
                            if let Ok(r) = pkt.body::<NwsForecastReply>() {
                                self.reply = Some(r);
                            }
                        }
                    }
                }
            }
        }
        let (mut sim, sensors, server) = world();
        let resource = format!("rtt.{}.{}", sensors[0].0, sensors[1].0);
        // Reuse a service host for the querier.
        let host = sim.hosts().iter().next().unwrap().0;
        let q = sim.spawn(
            "querier",
            host,
            Box::new(Querier {
                server,
                resource,
                reply: None,
            }),
        );
        sim.run_until(SimTime::from_secs(500));
        let reply = sim
            .with_process::<Querier, _>(q, |q| q.reply.clone())
            .unwrap()
            .expect("query answered");
        assert!(reply.found);
        assert!(reply.value > 0.0);
        assert!(!reply.method.is_empty());
        // Unknown resources answer found = false.
        let (mut sim2, _, server2) = world();
        let host2 = sim2.hosts().iter().next().unwrap().0;
        let q2 = sim2.spawn(
            "querier2",
            host2,
            Box::new(Querier {
                server: server2,
                resource: "rtt.9999.9999".into(),
                reply: None,
            }),
        );
        sim2.run_until(SimTime::from_secs(500));
        let reply2 = sim2
            .with_process::<Querier, _>(q2, |q| q.reply.clone())
            .unwrap()
            .expect("query answered");
        assert!(!reply2.found);
    }

    #[test]
    fn non_finite_reports_are_refused_at_the_wire() {
        struct Hostile {
            server: ProcessId,
        }
        impl Process for Hostile {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if let Event::Started = ev {
                    for value in [f64::NAN, 0.25, f64::INFINITY, f64::NEG_INFINITY, 0.75] {
                        let body = NwsReport {
                            resource: "rtt.evil".into(),
                            value,
                        };
                        send_packet(
                            ctx,
                            self.server,
                            &Packet::oneway(nm::REPORT, body.to_wire()),
                        );
                    }
                }
            }
        }
        let (mut sim, _, server) = world();
        let host = sim.hosts().iter().next().unwrap().0;
        sim.spawn("hostile", host, Box::new(Hostile { server }));
        sim.run_until(SimTime::from_secs(500));
        assert_eq!(sim.metrics().counter("nws.reports_bad"), 3.0);
        let (bad, samples) = sim
            .with_process::<NwsServer, _>(server, |s| {
                (s.reports_bad, s.streams.samples(&"rtt.evil".to_string()))
            })
            .unwrap();
        assert_eq!(
            (bad, samples),
            (3, 2),
            "only the finite values are absorbed"
        );
        let v = forecast_value(&sim, server, "rtt.evil").expect("two samples");
        assert!((0.25..=0.75).contains(&v), "selection still alive: {v}");
        // The honest sensors' streams are untouched by the refusals.
        assert!(sim.metrics().counter("nws.reports") > 10.0);
    }

    #[test]
    fn made_up_resource_names_cannot_grow_the_server_without_bound() {
        const EXTRA: usize = 500;
        /// At 300 s, floods the server with distinct names, an over-long
        /// one first.
        struct Flood {
            server: ProcessId,
        }
        impl Process for Flood {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => ctx.set_timer(SimDuration::from_secs(300), 1),
                    Event::Timer { .. } => {
                        let long = "x".repeat(MAX_RESOURCE_NAME + 1);
                        let made_up = (0..MAX_RESOURCES + EXTRA).map(|i| format!("rtt.fake.{i}"));
                        for resource in std::iter::once(long).chain(made_up) {
                            let body = NwsReport {
                                resource,
                                value: 0.5,
                            };
                            send_packet(
                                ctx,
                                self.server,
                                &Packet::oneway(nm::REPORT, body.to_wire()),
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, sensors, server) = world();
        let host = sim.hosts().iter().next().unwrap().0;
        sim.spawn("flood", host, Box::new(Flood { server }));
        let honest = format!("rtt.{}.{}", sensors[0].0, sensors[1].0);
        let state = |sim: &Sim| {
            sim.with_process::<NwsServer, _>(server, |s| {
                (
                    s.resource_count(),
                    s.reports_bad,
                    s.streams.samples(&honest),
                )
            })
            .unwrap()
        };
        sim.run_until(SimTime::from_secs(290));
        let (before, bad, honest_before) = state(&sim);
        assert_eq!((before, bad), (4, 0), "two RTT pairs and two CPUs");
        sim.run_until(SimTime::from_secs(900));
        let (after, bad, honest_after) = state(&sim);
        assert_eq!(after, MAX_RESOURCES, "the table stops at its cap");
        assert_eq!(bad as usize, 1 + before + EXTRA, "every refusal counted");
        assert_eq!(sim.metrics().counter("nws.reports_bad"), bad as f64);
        // The honest sensors' streams are open, so they keep absorbing.
        assert!(honest_after > honest_before + 10);
        assert!(forecast_value(&sim, server, &honest).is_some());
    }
}
