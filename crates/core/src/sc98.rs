//! The SC98 High-Performance Computing Challenge experiment.
//!
//! Reassembles the run behind Figures 2, 3, and 4: the full seven-
//! infrastructure pool, the EveryWare service stack, twelve simulated hours
//! ending at 11:36:56 PST, and the judging contention spike at 11:00. The
//! report carries exactly the series the paper plots — total sustained rate
//! in 5-minute averages (Fig. 2 / 3c / 4c), per-infrastructure rates
//! (Fig. 3a / 4a), and per-infrastructure host counts (Fig. 3b / 4b) — plus
//! the §7 criteria numbers.

use std::collections::BTreeMap;

use ew_forecast::{NwsSensor, NwsServer, SensorConfig};
use ew_gossip::{GossipConfig, GossipServer};
use ew_infra::{build_sc98, InfraSpec, InfraSupervisor, JudgingSpike, Relay};
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, SchedulerConfig, SchedulerServer};
use ew_sim::{Sim, SimDuration, SimTime, SubsystemHealth};
use ew_workload::WorkloadSpec;

use crate::series::{bin_mean, bin_rate, coefficient_of_variation, BinnedPoint};
use crate::toolkit::{DeployConfig, Deployment};

/// Seconds from the window origin (23:36:56 PST) to the 11:00:00 judging
/// onset.
pub const JUDGING_START_S: u64 = 40_984;
/// Judging window end (11:10:00 PST), by which §4.1 reports recovery.
pub const JUDGING_END_S: u64 = 41_584;
/// Full window: 23:36:56 → 11:36:56 PST.
pub const WINDOW_S: u64 = 12 * 3600;

/// Averaging window of every rate and host-count series: the paper's
/// "5-minute averages" (Figures 2–4).
pub const BIN: SimDuration = SimDuration::from_secs(300);

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Sc98Config {
    /// Master seed (all figures regenerate bit-identically from it).
    pub seed: u64,
    /// Window length (default: the paper's 12 hours).
    pub duration: SimDuration,
    /// Inject the 11:00 judging contention spike.
    pub judging: bool,
    /// Steps per scheduler-issued work unit.
    pub step_budget: u64,
    /// `Some(t)`: replace dynamic time-out discovery with static `t`
    /// (§2.2 ablation).
    pub static_timeouts: Option<SimDuration>,
    /// Forecast-driven migration (§3.1.1); `false` = last-value baseline.
    pub use_forecast_migration: bool,
    /// Place a scheduler inside the Condor pool (§5.4 ablation: the
    /// configuration the paper found prohibitive).
    pub condor_scheduler_inside: bool,
    /// `Some(n)`: collect span-trace records in a ring of `n` entries and
    /// return them as JSONL in the report. `None` (the default) keeps
    /// tracing off — the run is bit-identical either way.
    pub trace_capacity: Option<usize>,
}

impl Default for Sc98Config {
    fn default() -> Self {
        Sc98Config {
            seed: 1998,
            duration: SimDuration::from_secs(WINDOW_S),
            judging: true,
            step_budget: 6_000,
            static_timeouts: None,
            use_forecast_migration: true,
            condor_scheduler_inside: false,
            trace_capacity: None,
        }
    }
}

/// Everything the figures need.
pub struct Sc98Report {
    /// Configuration that produced this report.
    pub cfg: Sc98Config,
    /// Total sustained rate, binned (Figure 2 / 3c / 4c).
    pub total: Vec<BinnedPoint>,
    /// Per-infrastructure sustained rate (Figure 3a / 4a).
    pub per_infra: BTreeMap<String, Vec<BinnedPoint>>,
    /// Per-infrastructure live-host count (Figure 3b / 4b).
    pub host_counts: BTreeMap<String, Vec<BinnedPoint>>,
    /// Total useful ops delivered over the window.
    pub total_ops: f64,
    /// Highest 5-minute average rate.
    pub peak_rate: f64,
    /// Lowest 5-minute average within the judging hour (the §4.1 dip).
    pub judging_min_rate: f64,
    /// Rate in the final bin (the §4.1 recovery level).
    pub final_rate: f64,
    /// CoV of the total series (the *consistent* criterion).
    pub cov_total: f64,
    /// CoV per infrastructure (large, by contrast).
    pub cov_per_infra: BTreeMap<String, f64>,
    /// Selected raw counters (poll time-outs, failovers, migrations, …).
    pub counters: BTreeMap<String, f64>,
    /// Every metric, grouped by subsystem (`figures -- health`).
    pub health: Vec<SubsystemHealth>,
    /// Span-trace JSONL, when [`Sc98Config::trace_capacity`] was set.
    pub trace_jsonl: Option<String>,
    /// Kernel event-order hash: folds every dispatched `(time, seq,
    /// target, event)` tuple, pinning the exact dispatch sequence. Used by
    /// the determinism tests to prove event-queue changes preserve order.
    pub event_order_hash: u64,
}

/// Run the experiment.
pub fn run_sc98(cfg: &Sc98Config) -> Sc98Report {
    let spike = cfg.judging.then_some(JudgingSpike {
        start: SimTime::from_secs(JUDGING_START_S),
        end: SimTime::from_secs(JUDGING_END_S),
        level: 0.48,
    });
    let pool = build_sc98(cfg.seed, cfg.duration, spike);
    let infra_builds = pool.infra;
    let services = pool.services;
    let mut sim = Sim::new(pool.net, pool.hosts, cfg.seed);
    if let Some(capacity) = cfg.trace_capacity {
        sim.enable_tracing(capacity);
    }

    let deploy_cfg = DeployConfig {
        gossip: GossipConfig {
            static_timeouts: cfg.static_timeouts,
            ..GossipConfig::default()
        },
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
            step_budget: cfg.step_budget,
            use_forecasts: cfg.use_forecast_migration,
            ..SchedulerConfig::default()
        },
    };
    let dep = Deployment::builder(deploy_cfg)
        .service_hosts(&services)
        .spawn(&mut sim);
    let sched_addrs = dep.scheduler_addrs();

    // The Network Weather Service (Figure 1's "NWS" box): a forecaster
    // server at SDSC and a sensor at every service host, probing each
    // other across the wide area and reporting CPU and RTT measurements.
    let nws_server = sim.spawn("nws-server", services.state, Box::new(NwsServer::new()));
    {
        let sensor_hosts: Vec<_> = services
            .gossips
            .iter()
            .chain(services.schedulers.iter())
            .copied()
            .collect();
        // Sensor pids are assigned sequentially after the server's.
        let first = nws_server.0 + 1;
        let sensor_pids: Vec<u64> = (0..sensor_hosts.len() as u32)
            .map(|i| (first + i) as u64)
            .collect();
        for (i, &host) in sensor_hosts.iter().enumerate() {
            let peers: Vec<u64> = sensor_pids
                .iter()
                .copied()
                .filter(|&p| p != sensor_pids[i])
                .collect();
            let pid = sim.spawn(
                &format!("nws-sensor-{i}"),
                host,
                Box::new(NwsSensor::new(SensorConfig {
                    peers,
                    server: nws_server.0 as u64,
                })),
            );
            debug_assert_eq!(pid.0 as u64, sensor_pids[i]);
        }
    }

    // Optional §5.4 ablation: a scheduler on a (reclaimable) Condor host,
    // tried first by Condor clients.
    let condor_inside_sched = cfg.condor_scheduler_inside.then(|| {
        let condor_host = infra_builds
            .iter()
            .find(|b| b.name == "condor")
            .expect("condor build present")
            .hosts[0];
        sim.spawn(
            "sched-inside-condor",
            condor_host,
            Box::new(SchedulerServer::new(SchedulerConfig {
                workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
                step_budget: cfg.step_budget,
                use_forecasts: cfg.use_forecast_migration,
                seed_salt: 99,
            })),
        )
    });

    let infra_names: Vec<String> = infra_builds.iter().map(|b| b.name.clone()).collect();
    for build in infra_builds {
        // Legion and NetSolve traffic goes through their relay.
        let client_scheds: Vec<u64> = match (&build.relay, build.relay_host) {
            (Some(label), Some(host)) => {
                let relay = sim.spawn(
                    label,
                    host,
                    Box::new(Relay::new(label, sched_addrs.clone())),
                );
                vec![relay.0 as u64]
            }
            _ => {
                if build.name == "condor" {
                    if let Some(inside) = condor_inside_sched {
                        let mut v = vec![inside.0 as u64];
                        v.extend(&sched_addrs);
                        v
                    } else {
                        sched_addrs.clone()
                    }
                } else {
                    sched_addrs.clone()
                }
            }
        };
        let template = ClientConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
            schedulers: client_scheds,
            state_server: Some(dep.state_addr()),
            report_interval: SimDuration::from_secs(60),
            chunk_ops: build.chunk_ops,
            ops_per_step: (build.chunk_ops / 100).max(1),
            execute_real: false,
            infra: build.name.clone(),
            // Condor-style reclamation makes checkpoint/restart valuable;
            // checkpoint every ~10 chunks (~100 s of compute).
            checkpoint_every_chunks: Some(10),
            static_timeouts: None,
        };
        sim.spawn(
            &format!("sup-{}", build.name),
            services.log, // supervisors are bookkeeping; run at a stable host
            Box::new(InfraSupervisor::new(InfraSpec {
                name: build.name.clone(),
                hosts: build.hosts,
                invocation_delay: build.invocation_delay,
                stagger: build.stagger,
                client_template: template,
                sample_interval: SimDuration::from_secs(300),
            })),
        );
    }

    let end = SimTime::ZERO + cfg.duration;
    sim.run_until(end);

    // ---- Post-processing -------------------------------------------------
    let start = SimTime::ZERO;
    let mut per_infra = BTreeMap::new();
    let mut host_counts = BTreeMap::new();
    let mut total_ops = 0.0;
    for name in &infra_names {
        let samples = sim.metrics().series(&format!("ops_series.{name}"));
        total_ops += samples.iter().map(|&(_, v)| v).sum::<f64>();
        per_infra.insert(name.clone(), bin_rate(&samples, start, end, BIN));
        host_counts.insert(
            name.clone(),
            bin_mean(
                &sim.metrics().series(&format!("hosts.{name}")),
                start,
                end,
                BIN,
            ),
        );
    }
    let n_bins = per_infra.values().next().map(|v| v.len()).unwrap_or(0);
    let total: Vec<BinnedPoint> = (0..n_bins)
        .map(|i| BinnedPoint {
            t: start + BIN * i as u64,
            value: per_infra.values().map(|s| s[i].value).sum(),
        })
        .collect();

    let peak_rate = total.iter().map(|p| p.value).fold(0.0, f64::max);
    let judging_min_rate = total
        .iter()
        .filter(|p| {
            p.t >= SimTime::from_secs(JUDGING_START_S.saturating_sub(300))
                && p.t < SimTime::from_secs(JUDGING_END_S + 1800)
        })
        .map(|p| p.value)
        .fold(f64::INFINITY, f64::min);
    // Short windows never reach the judging hour; report 0 rather than inf.
    let judging_min_rate = if judging_min_rate.is_finite() {
        judging_min_rate
    } else {
        0.0
    };
    let final_rate = total.last().map(|p| p.value).unwrap_or(0.0);

    let cov_total = coefficient_of_variation(&total);
    let cov_per_infra = per_infra
        .iter()
        .map(|(k, v)| (k.clone(), coefficient_of_variation(v)))
        .collect();

    let mut counters = BTreeMap::new();
    for name in [
        "gossip.polls_ok",
        "gossip.poll_timeouts",
        "gossip.pushes",
        "clique.elections",
        "clique.merges",
        "client.failovers",
        "client.abandons",
        "client.switches",
        "sched.grants",
        "sched.reports",
        "sched.results",
        "state.stores_ok",
        "state.stores_rejected",
        "procs.killed_by_host_down",
        "net.messages",
        "hosts.went_down",
        "hosts.came_up",
        "nws.probes_ok",
        "nws.probes_lost",
        "nws.reports",
        "log.records",
    ] {
        counters.insert(name.to_string(), sim.metrics().counter(name));
    }
    // Scheduler aggregates.
    let mut abandons = 0.0;
    let mut unknowns = 0.0;
    let mut switches = 0.0;
    let mut results = 0.0;
    for &s in &dep.schedulers {
        if let Some((a, u, sw, r)) = sim.with_process::<SchedulerServer, _>(s, |s| {
            (
                s.issued_abandon,
                s.issued_unknown,
                s.issued_switch,
                s.results_received,
            )
        }) {
            abandons += a as f64;
            unknowns += u as f64;
            switches += sw as f64;
            results += r as f64;
        }
    }
    counters.insert("sched.migrations".into(), abandons);
    counters.insert("sched.unknown_unit_abandons".into(), unknowns);
    counters.insert("sched.heuristic_switches".into(), switches);
    counters.insert("sched.completed_units".into(), results);
    // Gossip pool health.
    if let Some(members) =
        sim.with_process::<GossipServer, _>(dep.gossips[0], |g| g.clique_members().len() as f64)
    {
        counters.insert("gossip.final_clique_size".into(), members);
    }
    // NWS coverage.
    if let Some(n) = sim.with_process::<NwsServer, _>(nws_server, |s| s.resource_count() as f64) {
        counters.insert("nws.resources_tracked".into(), n);
    }

    let health = sim.telemetry().health();
    let trace_jsonl = cfg.trace_capacity.map(|_| sim.export_trace_jsonl());
    let event_order_hash = sim.event_order_hash();

    Sc98Report {
        cfg: cfg.clone(),
        total,
        per_infra,
        host_counts,
        total_ops,
        peak_rate,
        judging_min_rate,
        final_rate,
        cov_total,
        cov_per_infra,
        counters,
        health,
        trace_jsonl,
        event_order_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shortened (2-hour) run exercises the full stack end to end.
    #[test]
    fn short_run_delivers_grid_power() {
        let cfg = Sc98Config {
            duration: SimDuration::from_secs(7200),
            judging: false,
            ..Sc98Config::default()
        };
        let rep = run_sc98(&cfg);
        assert_eq!(rep.total.len(), 24, "2 h of 5-minute bins");
        // Steady-state rate in the right regime (≈ 1.5–2.6 Gop/s).
        assert!(
            (1.2e9..3.0e9).contains(&rep.peak_rate),
            "peak {:.3e}",
            rep.peak_rate
        );
        // All seven infrastructures delivered ops.
        assert_eq!(rep.per_infra.len(), 7);
        for (name, series) in &rep.per_infra {
            let sum: f64 = series.iter().map(|p| p.value).sum();
            assert!(sum > 0.0, "{name} delivered nothing");
        }
        // Ordering (Figure 4a): unix > nt > condor > ... > java.
        let mean_of = |n: &str| crate::series::mean(&rep.per_infra[n]);
        assert!(mean_of("unix") > mean_of("nt"));
        assert!(mean_of("nt") > mean_of("condor"));
        assert!(mean_of("condor") > mean_of("globus"));
        assert!(mean_of("globus") > mean_of("legion"));
        assert!(mean_of("legion") > mean_of("netsolve"));
        assert!(mean_of("netsolve") > mean_of("java"));
        // Work actually flowed through the schedulers.
        assert!(rep.counters["sched.completed_units"] > 100.0);
        assert!(rep.counters["sched.reports"] > 100.0);
        // The gossip pool converged.
        assert_eq!(rep.counters["gossip.final_clique_size"], 3.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = Sc98Config {
            duration: SimDuration::from_secs(1800),
            judging: false,
            ..Sc98Config::default()
        };
        let a = run_sc98(&cfg);
        let b = run_sc98(&cfg);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.peak_rate, b.peak_rate);
        for (x, y) in a.total.iter().zip(b.total.iter()) {
            assert_eq!(x.value, y.value);
        }
    }
}
