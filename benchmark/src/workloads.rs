//! The five workloads: what each builds, runs, and reports.
//!
//! Every workload is one function of `(seed, sizes)`. A repetition builds
//! its world from the seed, runs it, and extracts an [`Outcome`]; nothing
//! survives from one repetition to the next. Only long-lived public entry
//! points of the crates are called (see the README's stable-surface rule).

use std::collections::BTreeMap;

use everyware::{run_sc98, DeployConfig, Deployment, Sc98Config, JUDGING_END_S, WINDOW_S};
use ew_chaos::{run_campaign_threads, standard_plans, CampaignConfig, PlanReport};
use ew_infra::{build_mega_shard, InfraSpec, InfraSupervisor, MegaSpec, ServiceHosts};
use ew_ramsey::{verify_counter_example, ColoredGraph, OpsCounter, RamseyProblem, Verification};
use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig};
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, NetworkModel, Payload, Process, ProcessId, Registry,
    Sim, SimDuration, SimTime, SiteSpec, Xoshiro256,
};
use ew_state::PersistentStateServer;
use ew_workload::WorkloadSpec;

use crate::trace::{boxed, HandlerTimes, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MegaRpc,
    Sc98,
    ChaosSweep,
    BulkFlow,
    RealSearch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MegaRpc,
        Workload::Sc98,
        Workload::ChaosSweep,
        Workload::BulkFlow,
        Workload::RealSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaRpc => "mega_rpc",
            Workload::Sc98 => "sc98_12h",
            Workload::ChaosSweep => "chaos_sweep",
            Workload::BulkFlow => "bulk_flow",
            Workload::RealSearch => "real_search",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// World sizes. `FULL` is what `BENCHMARK.json` measures and is frozen:
/// every world but `sc98_12h` is sized so that a repetition takes under a
/// second, because a run reports its fastest repetition and needs many of
/// them to find the moments the shared host leaves it alone (README).
/// `SMALL` shrinks every world so `--check` and `cargo test` finish in
/// seconds while still driving the same code.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `mega_rpc`: shape of the one shard, and its horizon.
    pub mega_sites: usize,
    pub mega_workers_per_site: usize,
    pub mega_sim_s: u64,
    /// `sc98_12h`: window length.
    pub sc98_window_s: u64,
    /// `chaos_sweep`: seeds per campaign and per-cell horizon.
    pub chaos_seeds: u64,
    pub chaos_horizon_s: u64,
    /// `bulk_flow`: burst rounds per sender.
    pub bulk_rounds: u32,
    /// `real_search`: clients executing real Ramsey units, and horizon.
    pub real_clients: usize,
    pub real_sim_s: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        mega_sites: 4,
        mega_workers_per_site: 32,
        mega_sim_s: 40,
        sc98_window_s: WINDOW_S,
        chaos_seeds: 1,
        chaos_horizon_s: 1800,
        bulk_rounds: 25,
        real_clients: 6,
        real_sim_s: 200,
    };

    pub const SMALL: Sizes = Sizes {
        mega_sites: 2,
        mega_workers_per_site: 6,
        mega_sim_s: 40,
        sc98_window_s: 1800,
        chaos_seeds: 1,
        chaos_horizon_s: 900,
        bulk_rounds: 20,
        real_clients: 3,
        real_sim_s: 240,
    };

    /// The same worlds cut down to their start-up: construction plus the
    /// first simulated moments (process start, launch stagger, first
    /// grants and transfers). `setup_s` times a repetition at these sizes.
    pub fn startup(&self) -> Sizes {
        Sizes {
            mega_sim_s: 10,
            sc98_window_s: 300,
            chaos_horizon_s: 120,
            bulk_rounds: 5,
            real_sim_s: 15,
            ..*self
        }
    }

    /// Flows `bulk_flow` must start and complete.
    pub fn bulk_flows(&self) -> u64 {
        (BULK_SITES * BULK_HOSTS_PER_SITE) as u64 * BULK_BURST as u64 * self.bulk_rounds as u64
    }
}

/// What one repetition leaves behind. Everything here is a deterministic
/// function of `(workload, seed, sizes)`; host time is measured by the
/// caller, around the repetition.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Events the kernel dispatched. `sc98_12h` and `chaos_sweep` run
    /// behind library entry points that return no event count; there it is
    /// the kernel's drained-entry count (`kernel.batch_dispatches` +
    /// `kernel.batch_ties`), which also counts lazily cancelled timers.
    pub events: u64,
    /// Work units the clients completed (`client.units_completed`), or
    /// transfers delivered (`net.flows_completed`) on `bulk_flow`.
    pub units: u64,
    /// `sim_work_units`: completed simulated work in the workload's own
    /// unit. It is `units` everywhere except `sc98_12h`, which reports
    /// useful Gop delivered (`ops.total` / 1e9, the paper's figure of
    /// merit): with the seed's reclamation pattern the unit count there
    /// swings ±12 % while delivered operations move under 1 %.
    pub work: f64,
    /// Operations started inside the simulation and those that finished
    /// by the horizon: `sched.grants` / `sched.results`,
    /// `net.flows_started` / `net.flows_completed` on `bulk_flow`, and on
    /// `chaos_sweep` the units the no-fault reference cells completed
    /// against the units the faulted cells completed.
    pub started: u64,
    pub finished: u64,
    /// Event-order hash; a fold of the reports where the library entry
    /// point exposes none (`chaos_sweep`).
    pub order_hash: u64,
    /// Every counter the run's registries hold, name-sorted.
    pub counters: BTreeMap<String, f64>,
    /// `sc98_12h`: mean relative error of peak / judging dip / recovered
    /// rate against the paper's figures, in percent.
    pub paper_err_pct: Option<f64>,
    /// `chaos_sweep`: mean adaptive-arm work lost (percent) and median
    /// adaptive-arm recovery time (simulated seconds, never-recovered
    /// cells counted at the horizon).
    pub fault_work_lost_pct: Option<f64>,
    pub fault_recovery_sim_s: Option<f64>,
    /// `real_search`: whether the witness in persistent state passes
    /// `verify_counter_example` (`None` if no witness was stored).
    pub witness_valid: Option<bool>,
    /// Host time inside the benchmark's own load generators (traced run
    /// of `bulk_flow`), in seconds.
    pub generator_s: f64,
    /// Host time inside `ComputeClient` handlers, which is where real
    /// Ramsey units execute (traced run of `real_search`), in seconds.
    pub compute_client_s: f64,
}

impl Outcome {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Everything a simulator speed-up must leave identical, as one
    /// string.
    pub fn fingerprint(&self) -> String {
        format!(
            "events={} units={} order_hash={:016x} net.messages={} net.bytes={}",
            self.events,
            self.units,
            self.order_hash,
            self.counter("net.messages") as u64,
            self.counter("net.bytes") as u64,
        )
    }

    /// Share of started operations that finished by the horizon, percent.
    pub fn finished_pct(&self) -> f64 {
        100.0 * self.finished as f64 / self.started.max(1) as f64
    }
}

fn counters_of(reg: &Registry) -> BTreeMap<String, f64> {
    reg.counters()
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// Fill the fields every scheduler-driven world derives from its counters.
fn scheduler_outcome(events: u64, order_hash: u64, counters: BTreeMap<String, f64>) -> Outcome {
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0) as u64;
    Outcome {
        events,
        units: c("client.units_completed"),
        work: c("client.units_completed") as f64,
        started: c("sched.grants"),
        finished: c("sched.results"),
        order_hash,
        counters,
        ..Outcome::default()
    }
}

/// One repetition: build the world from the seed, run it, extract the
/// outcome. Spans go to `tr` when it is enabled.
pub fn repetition(w: Workload, seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    match w {
        Workload::MegaRpc => mega_rpc(seed, sizes, tr),
        Workload::Sc98 => sc98(seed, sizes, tr),
        Workload::ChaosSweep => chaos_sweep(seed, sizes, tr),
        Workload::BulkFlow => bulk_flow(seed, sizes, tr),
        Workload::RealSearch => real_search(seed, sizes, tr),
    }
}

// ---- mega_rpc ---------------------------------------------------------------

/// Unit sizing of `ew_bench::mega`: one ~20 ms chunk per unit.
const MEGA_STEP_BUDGET: u64 = 200;
const MEGA_OPS_PER_STEP: u64 = 10_000;

/// The shard's shape. The generated world draws no randomness of its own
/// (constant load, no jitter), so the seed sets its inputs here: worker
/// speed and background load each move within ±0.5 % of the campaign's.
pub fn mega_spec(seed: u64, sizes: &Sizes) -> MegaSpec {
    let base = MegaSpec::full(NetworkModel::Packet);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    MegaSpec {
        sites: sizes.mega_sites,
        workers_per_site: sizes.mega_workers_per_site,
        worker_ops: base.worker_ops * rng.range_f64(0.995, 1.005),
        load: base.load * rng.range_f64(0.995, 1.005),
        ..base
    }
}

/// Shard 0 of a mega campaign, assembled exactly as `ew_bench::mega` does
/// (`--check` holds the two equal), but from the public builders so the
/// build, spawn and run phases can be timed apart.
fn mega_rpc(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    tr.enter("build");
    let world = build_mega_shard(&mega_spec(seed, sizes), 0);
    let workload = WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 });
    let mut sim = Sim::new(world.net, world.hosts, seed);
    tr.exit();
    tr.enter("spawn");
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: workload.clone(),
            step_budget: MEGA_STEP_BUDGET,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .service_hosts(&world.services)
    .spawn(&mut sim);
    sim.spawn(
        "mega-sup",
        world.services.log,
        Box::new(InfraSupervisor::new(InfraSpec {
            name: "mega".into(),
            hosts: world.pool,
            invocation_delay: SimDuration::from_secs(2),
            stagger: SimDuration::from_millis(50),
            client_template: ClientConfig {
                workload,
                schedulers: dep.scheduler_addrs(),
                state_server: Some(dep.state_addr()),
                chunk_ops: MEGA_STEP_BUDGET * MEGA_OPS_PER_STEP,
                ops_per_step: MEGA_OPS_PER_STEP,
                checkpoint_every_chunks: None,
                ..ClientConfig::default()
            },
            sample_interval: SimDuration::from_secs(30),
        })),
    );
    tr.exit();
    tr.enter("run");
    let stats = sim.run_until(SimTime::from_secs(sizes.mega_sim_s));
    tr.exit();
    tr.enter("report");
    let out = scheduler_outcome(
        stats.events,
        sim.event_order_hash(),
        counters_of(sim.telemetry()),
    );
    tr.exit();
    out
}

// ---- sc98_12h ---------------------------------------------------------------

/// §4.1: peak, judging-hour dip, and recovered sustained rate (ops/s).
const PAPER_RATES: [f64; 3] = [2.39e9, 1.1e9, 2.0e9];

fn sc98(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    tr.enter("run");
    let rep = run_sc98(&Sc98Config {
        seed,
        duration: SimDuration::from_secs(sizes.sc98_window_s),
        ..Sc98Config::default()
    });
    tr.exit();
    tr.enter("report");
    let counters: BTreeMap<String, f64> = rep
        .health
        .iter()
        .flat_map(|h| h.counters.iter().cloned())
        .collect();
    let drained = |name: &str| counters.get(name).copied().unwrap_or(0.0) as u64;
    let events = drained("kernel.batch_dispatches") + drained("kernel.batch_ties");
    let mut out = scheduler_outcome(events, rep.event_order_hash, counters);
    out.work = out.counter("ops.total") / 1e9;
    // The judging hour only exists in the full window.
    if sizes.sc98_window_s > JUDGING_END_S {
        let measured = [rep.peak_rate, rep.judging_min_rate, rep.final_rate];
        let err: f64 = measured
            .iter()
            .zip(PAPER_RATES)
            .map(|(m, p)| (m - p).abs() / p)
            .sum::<f64>()
            / PAPER_RATES.len() as f64;
        out.paper_err_pct = Some(100.0 * err);
    }
    tr.exit();
    out
}

// ---- chaos_sweep ------------------------------------------------------------

const CHAOS_APPS: [&str; 3] = ["ramsey", "dag", "faas"];

fn chaos_configs(seed: u64, sizes: &Sizes) -> Vec<CampaignConfig> {
    CHAOS_APPS
        .iter()
        .map(|app| CampaignConfig {
            seeds: (seed..seed + sizes.chaos_seeds).collect(),
            horizon: SimDuration::from_secs(sizes.chaos_horizon_s),
            plans: standard_plans(),
            workload: match *app {
                // The campaign's own Ramsey problem; dag/faas use defaults.
                "ramsey" => WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
                other => WorkloadSpec::by_name(other).expect("shipped workload name"),
            },
        })
        .collect()
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold every deterministic field of a campaign's reports.
fn fold_reports(mut h: u64, reports: &[PlanReport]) -> u64 {
    for r in reports {
        h = fnv(h, r.seed);
        h = fnv(h, r.faults_injected);
        h = fnv(h, r.baseline_adaptive_units);
        h = fnv(h, r.baseline_static_units);
        for arm in [&r.adaptive, &r.static_baseline] {
            h = fnv(h, arm.units);
            h = fnv(h, arm.retries);
            h = fnv(h, arm.breaker_opens);
            h = fnv(h, arm.recovery_secs.map_or(u64::MAX, f64::to_bits));
            for b in &arm.bins {
                h = fnv(h, b.to_bits());
            }
        }
    }
    h
}

fn chaos_sweep(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    let mut merged = Registry::new();
    let mut order_hash = 0xcbf2_9ce4_8422_2325;
    let (mut units, mut reference_units) = (0, 0);
    let mut lost = Vec::new();
    let mut recovery = Vec::new();
    for (app, cfg) in CHAOS_APPS.iter().zip(chaos_configs(seed, sizes)) {
        tr.enter(&format!("run:{app}"));
        let run = run_campaign_threads(&cfg, 1);
        tr.exit();
        tr.enter("report");
        merged.merge(&run.telemetry);
        order_hash = fold_reports(order_hash, &run.reports);
        for r in &run.reports {
            units += r.adaptive.units + r.static_baseline.units;
            reference_units += r.baseline_adaptive_units + r.baseline_static_units;
            lost.push(r.adaptive.work_lost_pct);
            recovery.push(
                r.adaptive
                    .recovery_secs
                    .unwrap_or(sizes.chaos_horizon_s as f64),
            );
        }
        tr.exit();
    }
    let counters = counters_of(&merged);
    let drained = |name: &str| counters.get(name).copied().unwrap_or(0.0) as u64;
    let events = drained("kernel.batch_dispatches") + drained("kernel.batch_ties");
    let mut out = scheduler_outcome(events, order_hash, counters);
    // The no-fault reference cells complete units too; `units` counts the
    // faulted cells only, which is what the reports carry.
    out.units = units;
    out.work = units as f64;
    out.started = reference_units;
    out.finished = units;
    out.fault_work_lost_pct = Some(lost.iter().sum::<f64>() / lost.len() as f64);
    out.fault_recovery_sim_s = Some(crate::stats::median(&mut recovery));
    out
}

// ---- bulk_flow --------------------------------------------------------------

const BULK_SITES: usize = 8;
const BULK_HOSTS_PER_SITE: usize = 4;
const BULK_BURST: u32 = 3;
const BULK_BYTES: usize = 65_536;

/// Streams bursts of one shared 64 KiB payload: a send is a refcount
/// bump, so the generator allocates nothing per transfer.
struct BulkSender {
    to: ProcessId,
    blob: Payload,
    remaining: u32,
    period: SimDuration,
    first: SimDuration,
}

impl Process for BulkSender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => ctx.set_timer(self.first, 0),
            Event::Timer { .. } => {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                for i in 0..BULK_BURST {
                    ctx.send(self.to, i, self.blob.clone());
                }
                ctx.set_timer(self.period, 0);
            }
            _ => {}
        }
    }
}

struct Devnull;

impl Process for Devnull {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {}
}

/// 8 WAN sites × 4 hosts in flow mode; every host bursts three 64 KiB
/// transfers to a sink two sites over. All traffic is bulk and all of it
/// contends, so fair-share recomputes are the whole cost. The seed draws
/// each sender's first-burst offset (0–120 ms) and burst period
/// (120 ms ± 2 ms), so different seeds interleave the flows differently.
/// The period band is narrow because the offered load exceeds the links:
/// the backlog is the difference of the two and the cost grows with its
/// square, so ± 10 ms moved host time by ± 7 % from seed to seed.
fn bulk_world(seed: u64, sizes: &Sizes, times: Option<&HandlerTimes>) -> Sim {
    let mut net = NetModel::new(0.0).with_model(NetworkModel::Flow);
    let sites: Vec<_> = (0..BULK_SITES)
        .map(|s| {
            net.add_site(SiteSpec::simple(
                &format!("s{s}"),
                SimDuration::from_millis(15),
                2.5e6,
                0.05,
            ))
        })
        .collect();
    let mut hosts = HostTable::new();
    let mut hs = Vec::new();
    for (si, &site) in sites.iter().enumerate() {
        for w in 0..BULK_HOSTS_PER_SITE {
            hs.push(hosts.add(HostSpec::dedicated(&format!("h{si}x{w}"), site, 1e8)));
        }
    }
    let mut sim = Sim::new(net, hosts, seed);
    let sinks: Vec<_> = hs
        .iter()
        .enumerate()
        .map(|(i, &h)| sim.spawn(&format!("sink{i}"), h, boxed(Devnull, "Devnull", times)))
        .collect();
    let blob: Payload = vec![0u8; BULK_BYTES].into();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for (i, &h) in hs.iter().enumerate() {
        let sender = BulkSender {
            to: sinks[(i + 2 * BULK_HOSTS_PER_SITE) % sinks.len()],
            blob: blob.clone(),
            remaining: sizes.bulk_rounds,
            period: SimDuration::from_micros(rng.range_inclusive(118_000, 122_000)),
            first: SimDuration::from_micros(rng.range_inclusive(0, 120_000)),
        };
        sim.spawn(&format!("src{i}"), h, boxed(sender, "BulkSender", times));
    }
    sim
}

fn bulk_flow(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    let times = tr.enabled().then(HandlerTimes::default);
    tr.enter("build");
    let mut sim = bulk_world(seed, sizes, times.as_ref());
    tr.exit();
    tr.enter("run");
    // Long enough for the last round's transfers to drain under full
    // contention (122 ms × rounds, plus slack).
    let horizon = SimTime::from_secs(10 + sizes.bulk_rounds as u64 * 6 / 10);
    let stats = sim.run_until(horizon);
    if let Some(times) = &times {
        tr.attach_handlers(times);
    }
    tr.exit();
    tr.enter("report");
    let counters = counters_of(sim.telemetry());
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0) as u64;
    let out = Outcome {
        events: stats.events,
        units: c("net.flows_completed"),
        work: c("net.flows_completed") as f64,
        started: c("net.flows_started"),
        finished: c("net.flows_completed"),
        order_hash: sim.event_order_hash(),
        generator_s: times.map_or(0.0, |t| t.seconds("BulkSender") + t.seconds("Devnull")),
        counters,
        ..Outcome::default()
    };
    tr.exit();
    out
}

// ---- real_search ------------------------------------------------------------

/// Service deployment plus clients that execute genuine R(4) n=17 units
/// (the shape of `tests/real_search.rs`). The seed feeds the simulator and
/// salts the schedulers' unit seeds, so different seeds search different
/// colorings.
fn real_world(seed: u64, sizes: &Sizes, times: Option<&HandlerTimes>) -> (Sim, Deployment) {
    let mut net = NetModel::new(0.05);
    let svc_site = net.add_site(SiteSpec::simple(
        "svc",
        SimDuration::from_millis(10),
        2.5e6,
        0.0,
    ));
    let work_site = net.add_site(SiteSpec::simple(
        "work",
        SimDuration::from_millis(25),
        1.25e6,
        0.05,
    ));
    let mut hosts = HostTable::new();
    let svc = ServiceHosts {
        gossips: vec![
            hosts.add(HostSpec::dedicated("g0", svc_site, 5e7)),
            hosts.add(HostSpec::dedicated("g1", svc_site, 5e7)),
        ],
        schedulers: vec![
            hosts.add(HostSpec::dedicated("s0", svc_site, 8e7)),
            hosts.add(HostSpec::dedicated("s1", svc_site, 8e7)),
        ],
        state: hosts.add(HostSpec::dedicated("state", svc_site, 5e7)),
        log: hosts.add(HostSpec::dedicated("log", svc_site, 5e7)),
    };
    let compute: Vec<_> = (0..sizes.real_clients)
        .map(|i| hosts.add(HostSpec::dedicated(&format!("w{i}"), work_site, 1e8)))
        .collect();
    let mut sim = Sim::new(net, hosts, seed);
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            step_budget: 5_000,
            seed_salt: seed,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .service_hosts(&svc)
    .spawn(&mut sim);
    for (i, &h) in compute.iter().enumerate() {
        let client = ComputeClient::new(ClientConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            schedulers: dep.scheduler_addrs(),
            state_server: Some(dep.state_addr()),
            execute_real: true,
            // One chunk per unit, ~10 simulated seconds each.
            chunk_ops: 1_000_000_000,
            ops_per_step: 200_000,
            ..ClientConfig::default()
        });
        sim.spawn(&format!("c{i}"), h, boxed(client, "ComputeClient", times));
    }
    (sim, dep)
}

fn real_search(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Outcome {
    let times = tr.enabled().then(HandlerTimes::default);
    tr.enter("build");
    let (mut sim, dep) = real_world(seed, sizes, times.as_ref());
    tr.exit();
    tr.enter("run");
    let stats = sim.run_until(SimTime::from_secs(sizes.real_sim_s));
    if let Some(times) = &times {
        tr.attach_handlers(times);
    }
    tr.exit();
    tr.enter("report");
    let mut out = scheduler_outcome(
        stats.events,
        sim.event_order_hash(),
        counters_of(sim.telemetry()),
    );
    let witness = sim
        .with_process::<PersistentStateServer, _>(dep.state, |s| s.get("ramsey/best/4").cloned())
        .expect("state server is alive and unwrapped");
    out.witness_valid = witness.map(|blob| {
        ColoredGraph::from_bytes(&blob).is_some_and(|g| {
            matches!(
                verify_counter_example(&g, 4, &mut OpsCounter::new()),
                Verification::Valid { n: 17, .. }
            )
        })
    });
    out.compute_client_s = times.map_or(0.0, |t| t.seconds("ComputeClient"));
    tr.exit();
    out
}
