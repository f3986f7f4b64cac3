//! The chaos-campaign runner.
//!
//! Sweeps [`FaultPlan`]s × seeds over a fixed three-site deployment and
//! measures, for each `(plan, seed)`, how much completed Ramsey work the
//! application lost, how quickly throughput recovered after the last
//! fault cleared, and what fraction of the run met the availability SLO —
//! once with the unified adaptive retry/breaker stack
//! (`ClientConfig::static_timeouts = None`) and once with the §2.2
//! static-time-out baseline (`Some(2 s)`), for the A/B comparison the
//! paper's §4.1 narrative implies: adaptivity is what let EveryWare ride
//! out the judging-window contention.
//!
//! The world: a **Service** site (scheduler 0, state manager, two gossip
//! servers, log host), a **Backup** site (scheduler 1), and a **Pool**
//! site of eight 100 Mop/s compute hosts delivered through an
//! [`InfraSupervisor`] that respawns clients after reclamation, with
//! application-level checkpointing to the state manager every 5 s of
//! work. Every run is seed-deterministic, so campaign JSON is byte-stable
//! run to run.

use everyware::{DeployConfig, Deployment};
use ew_infra::{InfraSpec, InfraSupervisor};
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, SchedulerConfig};
use ew_sim::{
    CompositeLoad, ConstantLoad, Ctx, Event, HostId, HostSpec, HostTable, Impairment, LoadTrace,
    NetModel, Partition, Process, Sim, SimDuration, SimTime, SiteId, SiteSpec, SpikeLoad,
};
use ew_workload::WorkloadSpec;

use crate::plan::{CompiledFaults, FaultPlan, HostRole, SiteRole};

/// Pool size of the campaign world.
pub const N_COMPUTE: usize = 8;
/// SLO / recovery bin width.
pub const BIN_SECS: u64 = 60;
/// Leading bins excluded from rate statistics (deployment warm-up:
/// invocation delays, stagger, first grants).
pub const WARMUP_BINS: usize = 2;
/// A bin meets the SLO when its throughput is at least this fraction of
/// the no-fault mean.
pub const SLO_FRACTION: f64 = 0.5;
/// Throughput counts as recovered at this fraction of the no-fault mean.
pub const RECOVERY_FRACTION: f64 = 0.8;
/// The static-baseline arm's fixed RPC time-out (§2.2).
pub const STATIC_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// One campaign: which plans, which seeds, how long each run is.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seeds swept (each seed runs every plan plus the no-fault baselines).
    pub seeds: Vec<u64>,
    /// Per-run horizon.
    pub horizon: SimDuration,
    /// Fault plans swept.
    pub plans: Vec<FaultPlan>,
    /// The application the campaign world runs (`--workload` on the CLI).
    pub workload: WorkloadSpec,
}

impl CampaignConfig {
    /// The standard sweep behind `figures -- chaos`: the named plans of
    /// [`standard_plans`](crate::plan::standard_plans), a 30-minute
    /// horizon and two seeds — or one seed over 15 minutes with `short`.
    pub fn standard(seed: u64, short: bool) -> Self {
        CampaignConfig {
            seeds: if short {
                vec![seed]
            } else {
                vec![seed, seed + 1]
            },
            horizon: if short {
                SimDuration::from_secs(900)
            } else {
                SimDuration::from_secs(1800)
            },
            plans: crate::plan::standard_plans(),
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
        }
    }

    /// Same sweep, different application.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }
}

/// Measurements from one arm of one `(plan, seed)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmReport {
    /// Ramsey work units completed (`client.units_completed`).
    pub units: u64,
    /// Percent of the matching no-fault arm's units lost, clamped ≥ 0.
    pub work_lost_pct: f64,
    /// Seconds from the last fault clearing until throughput first
    /// returned to [`RECOVERY_FRACTION`] of the no-fault mean; `None` if
    /// it never did within the horizon (or the fault never cleared).
    pub recovery_secs: Option<f64>,
    /// Fraction of post-warm-up bins meeting the availability SLO.
    pub slo_ok_fraction: f64,
    /// `rpc.retries` — resends issued by the adaptive layer.
    pub retries: u64,
    /// `rpc.breaker_open` — circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Ops completed per [`BIN_SECS`] bin (the throughput series).
    pub bins: Vec<f64>,
}

/// Results for one `(plan, seed)` cell: both arms plus shared context.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanReport {
    /// Plan name.
    pub plan: String,
    /// Campaign seed of this cell.
    pub seed: u64,
    /// `chaos.faults_injected` for this compiled plan.
    pub faults_injected: u64,
    /// When the last fault cleared (seconds; recovery measured from here).
    pub fault_end_secs: f64,
    /// Units completed by the no-fault adaptive run (loss reference).
    pub baseline_adaptive_units: u64,
    /// Units completed by the no-fault static run (loss reference).
    pub baseline_static_units: u64,
    /// The migrated retry/breaker stack under this plan.
    pub adaptive: ArmReport,
    /// The §2.2 static-time-out baseline under this plan.
    pub static_baseline: ArmReport,
}

/// Raw extraction from one simulation run.
struct RunOutcome {
    units: u64,
    bins: Vec<f64>,
    retries: u64,
    breaker_opens: u64,
    faults_injected: u64,
}

/// Injects nothing itself — the compiled plan is baked into the world —
/// but owns the `chaos.faults_injected` counter so every run reports how
/// many faults its plan scheduled.
struct ChaosInjector {
    faults: u64,
}

impl Process for ChaosInjector {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            let c = ctx.counter("chaos.faults_injected");
            ctx.add(c, self.faults as f64);
        }
    }
}

fn site_spec(name: &str, spikes: Vec<SpikeLoad>) -> SiteSpec {
    let base = ConstantLoad(0.05);
    let load: Box<dyn LoadTrace> = if spikes.is_empty() {
        Box::new(base)
    } else {
        let mut parts: Vec<Box<dyn LoadTrace>> = vec![Box::new(base)];
        for s in spikes {
            parts.push(Box::new(s));
        }
        Box::new(CompositeLoad(parts))
    };
    SiteSpec {
        name: name.to_string(),
        lan_latency: SimDuration::from_micros(200),
        lan_bandwidth: 12.5e6,
        wan_latency: SimDuration::from_millis(15),
        wan_bandwidth: 2.5e6,
        load,
    }
}

fn spikes_for(compiled: Option<&CompiledFaults>, role: SiteRole) -> Vec<SpikeLoad> {
    compiled
        .map(|c| {
            c.spikes
                .iter()
                .filter(|s| s.site == role)
                .map(|s| SpikeLoad {
                    start: s.from,
                    end: s.until,
                    level: s.level,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Build the three-site world, apply `compiled`, run to the horizon, and
/// extract the raw outcome plus the cell's whole telemetry registry.
/// `static_arm` selects the §2.2 baseline. Each call builds a fresh
/// kernel, registry, and rng universe from `(compiled, seed, static_arm)`
/// alone — the isolation that lets the sim farm run cells concurrently.
fn run_world(
    compiled: Option<&CompiledFaults>,
    seed: u64,
    horizon: SimDuration,
    static_arm: bool,
    workload: &WorkloadSpec,
    n_compute: usize,
) -> (RunOutcome, ew_sim::Registry) {
    let mut net = NetModel::new(0.05);
    let service = net.add_site(site_spec(
        "service",
        spikes_for(compiled, SiteRole::Service),
    ));
    let backup = net.add_site(site_spec("backup", spikes_for(compiled, SiteRole::Backup)));
    let pool_site = net.add_site(site_spec("pool", spikes_for(compiled, SiteRole::Pool)));
    let site_of = |role: SiteRole| -> SiteId {
        match role {
            SiteRole::Service => service,
            SiteRole::Backup => backup,
            SiteRole::Pool => pool_site,
        }
    };
    if let Some(c) = compiled {
        for p in &c.partitions {
            net.add_partition(Partition {
                a: site_of(p.site),
                b: p.peer.map(site_of),
                from: p.from,
                until: p.until,
            });
        }
        for i in &c.impairments {
            net.add_impairment(Impairment {
                site: site_of(i.site),
                from: i.from,
                until: i.until,
                drop: i.drop,
                duplicate: i.duplicate,
            });
        }
    }

    let mut hosts = HostTable::new();
    let avail = |role: HostRole| {
        compiled
            .and_then(|c| c.host_fault(role))
            .cloned()
            .unwrap_or_default()
    };
    let add_host = |hosts: &mut HostTable, name: &str, site, speed, role| -> HostId {
        let mut h = HostSpec::dedicated(name, site, speed);
        h.availability = avail(role);
        hosts.add(h)
    };
    // Service roles that no plan targets keep always-up schedules; the
    // gossip pool and log host are deliberately not addressable by plans.
    let g0 = hosts.add(HostSpec::dedicated("gossip0", service, 5e7));
    let g1 = hosts.add(HostSpec::dedicated("gossip1", service, 5e7));
    let h_s0 = add_host(
        &mut hosts,
        "sched0",
        service,
        8e7,
        HostRole::PrimaryScheduler,
    );
    let h_state = add_host(&mut hosts, "state", service, 5e7, HostRole::StateServer);
    let h_log = hosts.add(HostSpec::dedicated("log", service, 5e7));
    let h_s1 = add_host(&mut hosts, "sched1", backup, 8e7, HostRole::BackupScheduler);
    let pool: Vec<HostId> = (0..n_compute)
        .map(|i| {
            add_host(
                &mut hosts,
                &format!("pool{i}"),
                pool_site,
                1e8,
                HostRole::Compute(i),
            )
        })
        .collect();

    let mut sim = Sim::new(net, hosts, seed);
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: workload.clone(),
            // 6000 steps × 1e6 ops/step = 6e9 ops ≈ 60 s per unit at
            // 100 Mop/s: several grant boundaries fall inside every fault
            // window, so stalls show up in the unit count.
            step_budget: 6_000,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .gossip_pool(&[g0, g1])
    .schedulers(&[h_s0, h_s1])
    .state_manager(h_state)
    .log_server(h_log)
    .spawn(&mut sim);

    sim.spawn(
        "chaos",
        h_log,
        Box::new(ChaosInjector {
            faults: compiled.map_or(0, |c| c.faults_injected),
        }),
    );
    sim.spawn(
        "pool-sup",
        h_log,
        Box::new(InfraSupervisor::new(InfraSpec {
            name: "pool".into(),
            hosts: pool,
            invocation_delay: SimDuration::from_secs(5),
            stagger: SimDuration::from_secs(2),
            client_template: ClientConfig {
                workload: workload.clone(),
                schedulers: dep.scheduler_addrs(),
                state_server: Some(dep.state_addr()),
                chunk_ops: 100_000_000,
                ops_per_step: 1_000_000,
                checkpoint_every_chunks: Some(5),
                static_timeouts: static_arm.then_some(STATIC_TIMEOUT),
                ..ClientConfig::default()
            },
            sample_interval: SimDuration::from_secs(30),
        })),
    );

    sim.run_until(SimTime::ZERO + horizon);

    let m = sim.metrics();
    let n_bins = (horizon.as_micros() / (BIN_SECS * 1_000_000)) as usize;
    let mut bins = vec![0.0; n_bins];
    for (t, ops) in m.series("ops_series.pool") {
        let i = (t.as_micros() / (BIN_SECS * 1_000_000)) as usize;
        if i < n_bins {
            bins[i] += ops;
        }
    }
    let outcome = RunOutcome {
        units: m.counter("client.units_completed") as u64,
        bins,
        retries: m.counter("rpc.retries") as u64,
        breaker_opens: m.counter("rpc.breaker_open") as u64,
        faults_injected: m.counter("chaos.faults_injected") as u64,
    };
    (outcome, sim.into_metrics().into_registry())
}

fn post_warmup_mean(bins: &[f64]) -> f64 {
    let tail = &bins[WARMUP_BINS.min(bins.len())..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn arm_report(faulted: RunOutcome, baseline: &RunOutcome, fault_end: SimTime) -> ArmReport {
    let base_mean = post_warmup_mean(&baseline.bins);
    let lost = if baseline.units == 0 {
        0.0
    } else {
        (100.0 * (baseline.units as f64 - faulted.units as f64) / baseline.units as f64).max(0.0)
    };
    let fault_end_bin = (fault_end.as_micros() / (BIN_SECS * 1_000_000)) as usize;
    let recovery_secs = faulted
        .bins
        .iter()
        .enumerate()
        .skip(fault_end_bin)
        .find(|(_, &v)| v >= RECOVERY_FRACTION * base_mean)
        .map(|(i, _)| {
            let bin_end = ((i + 1) * BIN_SECS as usize) as f64;
            (bin_end - fault_end.as_secs_f64()).max(0.0)
        });
    let tail = &faulted.bins[WARMUP_BINS.min(faulted.bins.len())..];
    let slo_ok_fraction = if tail.is_empty() {
        0.0
    } else {
        tail.iter()
            .filter(|&&v| v >= SLO_FRACTION * base_mean)
            .count() as f64
            / tail.len() as f64
    };
    ArmReport {
        units: faulted.units,
        work_lost_pct: lost,
        recovery_secs,
        slo_ok_fraction,
        retries: faulted.retries,
        breaker_opens: faulted.breaker_opens,
        bins: faulted.bins,
    }
}

/// One independent sim-farm work unit: a single `run_world` call.
///
/// `plan: None` is a no-fault reference run. Every input the cell needs
/// is in this key (plus the shared, read-only `CampaignConfig`), so rng
/// streams and fault schedules derive from the cell itself rather than
/// any iteration state — the property that makes the sweep order-free.
#[derive(Clone, Copy, Debug)]
struct CellKey {
    /// Index into `cfg.plans`, or `None` for the no-fault reference.
    plan: Option<usize>,
    /// Campaign seed of this cell.
    seed: u64,
    /// `true` selects the §2.2 static-time-out baseline arm.
    static_arm: bool,
}

/// Raw result of one executed cell.
struct CellOut {
    outcome: RunOutcome,
    /// When the compiled plan's last fault clears (`ZERO` for no-fault).
    fault_end: SimTime,
    registry: ew_sim::Registry,
}

/// A finished campaign: the per-`(plan, seed)` reports plus the farm's
/// execution stats and the merged (canonical-order) telemetry of every
/// cell, including `farm.cells` / `farm.threads` / `farm.wall_ms`.
pub struct CampaignRun {
    /// One report per `(plan, seed)` cell, in `seeds × plans` order —
    /// identical to the historical sequential sweep.
    pub reports: Vec<PlanReport>,
    /// What the run cost (wall-clock is host time: excluded from the
    /// deterministic JSON artifacts).
    pub stats: ew_sim::FarmStats,
    /// Per-cell registries folded in input-index order via
    /// [`ew_sim::Registry::merge`].
    pub telemetry: ew_sim::Registry,
}

/// The canonical cell list: for each seed, the two no-fault references,
/// then every plan × {adaptive, static}. Report assembly indexes into
/// farm results by this layout.
fn cell_keys(cfg: &CampaignConfig) -> Vec<CellKey> {
    let mut cells = Vec::with_capacity(cfg.seeds.len() * (2 + 2 * cfg.plans.len()));
    for &seed in &cfg.seeds {
        for static_arm in [false, true] {
            cells.push(CellKey {
                plan: None,
                seed,
                static_arm,
            });
        }
        for plan in 0..cfg.plans.len() {
            for static_arm in [false, true] {
                cells.push(CellKey {
                    plan: Some(plan),
                    seed,
                    static_arm,
                });
            }
        }
    }
    cells
}

/// Run the whole campaign on `threads` workers. Every cell is an isolated
/// deterministic simulation, results are merged in canonical input order,
/// and the reports (and any JSON rendered from them) are byte-identical
/// for every thread count; `threads == 1` reproduces the historical
/// sequential sweep exactly.
pub fn run_campaign_threads(cfg: &CampaignConfig, threads: usize) -> CampaignRun {
    let cells = cell_keys(cfg);
    let horizon = cfg.horizon;
    let plans = &cfg.plans;
    let workload = &cfg.workload;
    let (outs, stats) = ew_sim::run_farm(threads, &cells, |_, cell| {
        let compiled = cell
            .plan
            .map(|p| plans[p].compile(cell.seed, horizon, N_COMPUTE));
        let (outcome, registry) = run_world(
            compiled.as_ref(),
            cell.seed,
            horizon,
            cell.static_arm,
            workload,
            N_COMPUTE,
        );
        CellOut {
            outcome,
            fault_end: compiled.map_or(SimTime::ZERO, |c| c.last_fault_end),
            registry,
        }
    });

    let mut telemetry = ew_sim::Registry::new();
    for out in &outs {
        telemetry.merge(&out.registry);
    }
    stats.record(&mut telemetry);

    // Reassemble reports in the historical seeds × plans order from the
    // canonical cell layout (see `cell_keys`).
    let stride = 2 + 2 * cfg.plans.len();
    let mut slots: Vec<Option<CellOut>> = outs.into_iter().map(Some).collect();
    let mut take = |i: usize| slots[i].take().expect("cell index used once");
    let mut reports = Vec::with_capacity(cfg.seeds.len() * cfg.plans.len());
    for (si, &seed) in cfg.seeds.iter().enumerate() {
        let base = si * stride;
        let nofault_adaptive = take(base).outcome;
        let nofault_static = take(base + 1).outcome;
        for (pi, plan) in cfg.plans.iter().enumerate() {
            let fa = take(base + 2 + 2 * pi);
            let fs = take(base + 3 + 2 * pi);
            let fault_end = fa.fault_end;
            reports.push(PlanReport {
                plan: plan.name.clone(),
                seed,
                faults_injected: fa.outcome.faults_injected,
                fault_end_secs: fault_end.as_secs_f64(),
                baseline_adaptive_units: nofault_adaptive.units,
                baseline_static_units: nofault_static.units,
                adaptive: arm_report(fa.outcome, &nofault_adaptive, fault_end),
                static_baseline: arm_report(fs.outcome, &nofault_static, fault_end),
            });
        }
    }
    CampaignRun {
        reports,
        stats,
        telemetry,
    }
}

/// Run the whole campaign: for each seed, two no-fault reference runs,
/// then every plan × {adaptive, static}. Deterministic in `cfg`; the
/// worker count comes from [`ew_sim::resolve_threads`] (available
/// parallelism) and cannot change the result bytes.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<PlanReport> {
    run_campaign_threads(cfg, ew_sim::resolve_threads(None)).reports
}

fn arm_json(a: &ArmReport) -> serde_json::Value {
    serde_json::json!({
        "units": a.units,
        "work_lost_pct": a.work_lost_pct,
        "recovery_secs": a.recovery_secs,
        "slo_ok_fraction": a.slo_ok_fraction,
        "retries": a.retries,
        "breaker_opens": a.breaker_opens,
        "bins_ops": a.bins.clone(),
    })
}

/// The `results/chaos_<plan>.json` artifacts (Ramsey) or
/// `results/chaos_<workload>_<plan>.json` (other workloads): one
/// `(file stem, value)` pair per plan, aggregating that plan's cells
/// across all seeds. The compat `serde_json` serializes with sorted
/// keys, so equal campaigns produce byte-identical files. The historical
/// Ramsey stems and bodies are preserved exactly; non-Ramsey artifacts
/// additionally record the workload name.
pub fn campaign_json(
    cfg: &CampaignConfig,
    reports: &[PlanReport],
) -> Vec<(String, serde_json::Value)> {
    let wname = cfg.workload.name();
    cfg.plans
        .iter()
        .map(|plan| {
            let runs: Vec<serde_json::Value> = reports
                .iter()
                .filter(|r| r.plan == plan.name)
                .map(|r| {
                    serde_json::json!({
                        "seed": r.seed,
                        "faults_injected": r.faults_injected,
                        "fault_end_secs": r.fault_end_secs,
                        "baseline_adaptive_units": r.baseline_adaptive_units,
                        "baseline_static_units": r.baseline_static_units,
                        "adaptive": arm_json(&r.adaptive),
                        "static": arm_json(&r.static_baseline),
                    })
                })
                .collect();
            let mut value = serde_json::json!({
                "plan": plan.name.clone(),
                "horizon_secs": cfg.horizon.as_secs_f64(),
                "bin_secs": BIN_SECS,
                "slo_fraction": SLO_FRACTION,
                "recovery_fraction": RECOVERY_FRACTION,
                "runs": serde_json::Value::Array(runs),
            });
            if wname != "ramsey" {
                if let serde_json::Value::Object(map) = &mut value {
                    map.insert("workload".into(), serde_json::json!(wname));
                }
            }
            (artifact_stem(wname, &plan.name), value)
        })
        .collect()
}

/// The campaign summary artifact (`results/chaos_summary.json` for the
/// historical Ramsey campaign, `results/chaos_<workload>_summary.json`
/// otherwise — see [`summary_stem`]): per-plan mean work-loss for
/// both arms plus median adaptive recovery, averaged over seeds.
pub fn summary_json(cfg: &CampaignConfig, reports: &[PlanReport]) -> serde_json::Value {
    let mut plans = std::collections::BTreeMap::new();
    for plan in &cfg.plans {
        let cells: Vec<&PlanReport> = reports.iter().filter(|r| r.plan == plan.name).collect();
        if cells.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&PlanReport) -> f64| {
            cells.iter().map(|r| f(r)).sum::<f64>() / cells.len() as f64
        };
        let mut recoveries: Vec<f64> = cells
            .iter()
            .filter_map(|r| r.adaptive.recovery_secs)
            .collect();
        recoveries.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_recovery = if recoveries.is_empty() {
            serde_json::Value::Null
        } else {
            serde_json::json!(recoveries[recoveries.len() / 2])
        };
        plans.insert(
            plan.name.clone(),
            serde_json::json!({
                "adaptive_work_lost_pct": mean(&|r| r.adaptive.work_lost_pct),
                "static_work_lost_pct": mean(&|r| r.static_baseline.work_lost_pct),
                "adaptive_slo_ok_fraction": mean(&|r| r.adaptive.slo_ok_fraction),
                "static_slo_ok_fraction": mean(&|r| r.static_baseline.slo_ok_fraction),
                "adaptive_median_recovery_secs": median_recovery,
                "mean_faults_injected": mean(&|r| r.faults_injected as f64),
            }),
        );
    }
    let wname = cfg.workload.name();
    let mut value = serde_json::json!({
        "bench": "chaos-campaign baselines (PR 3)",
        "horizon_secs": cfg.horizon.as_secs_f64(),
        "seeds": cfg.seeds.clone(),
        "plans": plans,
    });
    if wname != "ramsey" {
        if let serde_json::Value::Object(map) = &mut value {
            map.insert(
                "bench".into(),
                serde_json::json!(format!("chaos-campaign {wname} baselines (PR 6)")),
            );
            map.insert("workload".into(), serde_json::json!(wname));
        }
    }
    value
}

/// The one naming rule for campaign artifacts: `chaos_<tail>` for the
/// historical Ramsey campaign, `chaos_<workload>_<tail>` otherwise.
fn artifact_stem(wname: &str, tail: &str) -> String {
    if wname == "ramsey" {
        format!("chaos_{tail}")
    } else {
        format!("chaos_{wname}_{tail}")
    }
}

/// File stem of the campaign summary: `chaos_summary` for the Ramsey
/// campaign, `chaos_<workload>_summary` for the other applications.
pub fn summary_stem(cfg: &CampaignConfig) -> String {
    artifact_stem(cfg.workload.name(), "summary")
}

/// Pool sizes swept by the workload scaling figure.
pub const SCALING_POOLS: [usize; 4] = [2, 4, 8, 16];

/// The `results/fig_<workload>_scaling.json` artifact behind
/// `figures workload-scaling`: no-fault runs of the workload's campaign
/// world at each pool size in [`SCALING_POOLS`], adaptive and static
/// arms side by side. Deterministic in `(workload, seed, horizon)` and
/// byte-identical at any thread count (each cell is an isolated
/// simulation; results assemble in input order).
pub fn scaling_json(
    workload: &WorkloadSpec,
    seed: u64,
    horizon: SimDuration,
    threads: usize,
) -> serde_json::Value {
    let cells: Vec<(usize, bool)> = SCALING_POOLS
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let (outs, _stats) = ew_sim::run_farm(threads, &cells, |_, &(n_compute, static_arm)| {
        let (outcome, _registry) = run_world(None, seed, horizon, static_arm, workload, n_compute);
        outcome
    });
    let pools: Vec<serde_json::Value> = outs
        .chunks(2)
        .zip(SCALING_POOLS.iter())
        .map(|(pair, &n)| {
            let arm = |o: &RunOutcome| {
                serde_json::json!({
                    "units": o.units,
                    "total_ops": o.bins.iter().sum::<f64>(),
                    "mean_rate_ops_per_sec": post_warmup_mean(&o.bins) / BIN_SECS as f64,
                })
            };
            serde_json::json!({
                "hosts": n,
                "adaptive": arm(&pair[0]),
                "static": arm(&pair[1]),
            })
        })
        .collect();
    serde_json::json!({
        "bench": format!("{} scaling (PR 6)", workload.name()),
        "workload": workload.name(),
        "seed": seed,
        "horizon_secs": horizon.as_secs_f64(),
        "bin_secs": BIN_SECS,
        "pools": serde_json::Value::Array(pools),
    })
}
