//! Regenerate every table and figure in the paper's evaluation.
//!
//! ```text
//! cargo run --release -p ew-bench --bin figures -- all
//! cargo run --release -p ew-bench --bin figures -- fig2 [--short]
//! cargo run --release -p ew-bench --bin figures -- all --threads 4
//! ```
//!
//! Subcommands: `fig2`, `fig3a`, `fig3b`, `fig3c`, `java`, `timeout`,
//! `condor`, `scaling`, `criteria`, `health`, `chaos`, `workload-scaling`,
//! `mega`, `all`. `--short` runs a 2-hour window instead of the full 12
//! hours (for smoke tests); for `chaos` it cuts the campaign to one seed
//! over 15 minutes. `chaos` sweeps the named fault plans of `ew-chaos`
//! (see `results/chaos_*.json` and `results/chaos_summary.json`) and is
//! not part of `all`. `--workload {ramsey,dag,faas}` selects the
//! application the chaos campaign runs (default: ramsey, the
//! byte-identical historical artifacts; other workloads write
//! `chaos_<name>_*.json` and `chaos_<name>_summary.json`).
//! `workload-scaling` sweeps the campaign world over pool sizes for the
//! DAG and faas applications (or just the one named with `--workload`),
//! writing `results/fig_<name>_scaling.json`. `mega` runs the full stack
//! on a generated 1k+ host fleet through 1M+ work units on the flow-level
//! network model (`--short` is the 64-host/50k-unit CI variant), writing
//! `results/mega_campaign.json` (deterministic, CI-diffed). This binary
//! writes no host-time number (wall, events/sec, RSS) to `results/`:
//! speed is measured by `benchmark/run.sh` and gated by
//! `tests/perf_gate.sh`.
//! `--seed N` reseeds. `--threads N` sets the sim-farm worker count
//! (default: available parallelism; `--threads 1` reproduces the
//! sequential behavior exactly). Every artifact is byte-identical for any
//! thread count.
//! `--trace PATH` turns on span tracing for the SC98 run and writes the
//! records to PATH as JSONL (the simulation itself is bit-identical with
//! tracing on or off). Markdown goes to stdout; JSON artifacts go to
//! `results/`.

use std::collections::BTreeMap;

use everyware::{mean, run_sc98, Sc98Config, Sc98Report, JUDGING_END_S, JUDGING_START_S};
use ew_bench::experiments::{
    condor_ablation, gossip_scaling, java_table, timeout_ablation, CondorAblation, JavaTable,
    TimeoutAblation,
};
use ew_bench::{multi_series_table, series_json, series_table};
use ew_sim::SimDuration;
use ew_workload::WorkloadSpec;

#[derive(Debug)]
struct Options {
    seed: u64,
    short: bool,
    trace: Option<String>,
    threads: usize,
    /// Validated `--workload` name (`WorkloadSpec::by_name` accepted it).
    workload: Option<String>,
}

/// Span-trace ring size for `--trace`: large enough to hold every record
/// of a 12-hour run without eviction.
const TRACE_CAPACITY: usize = 1 << 22;

/// Component counts swept by the `scaling` measurement.
const SCALING_NS: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn sc98_cfg(opts: &Options) -> Sc98Config {
    Sc98Config {
        seed: opts.seed,
        duration: if opts.short {
            SimDuration::from_secs(7200)
        } else {
            SimDuration::from_secs(everyware::WINDOW_S)
        },
        judging: !opts.short,
        trace_capacity: opts.trace.as_ref().map(|_| TRACE_CAPACITY),
        ..Sc98Config::default()
    }
}

fn write_json(name: &str, value: &serde_json::Value) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn fig2(rep: &Sc98Report) {
    println!(
        "{}",
        series_table(
            "Figure 2 — Sustained Application Performance (5-minute averages)",
            "integer ops / second",
            &rep.total
        )
    );
    println!("**Summary vs paper:**\n");
    println!("| quantity | paper | this reproduction |");
    println!("|---|---|---|");
    println!("| peak 5-min rate | 2.39e9 | {:.3e} |", rep.peak_rate);
    println!(
        "| judging-window dip | 1.1e9 | {:.3e} |",
        rep.judging_min_rate
    );
    println!("| recovered rate | 2.0e9 | {:.3e} |", rep.final_rate);
    println!("| judging window | 11:00–11:10 PST | t = {JUDGING_START_S}–{JUDGING_END_S} s |\n");
    write_json(
        "fig2",
        &serde_json::json!({
            "series": series_json(&rep.total),
            "peak": rep.peak_rate,
            "judging_min": rep.judging_min_rate,
            "final": rep.final_rate,
        }),
    );
}

fn fig3a(rep: &Sc98Report) {
    let cols: Vec<(&str, &[everyware::BinnedPoint])> = rep
        .per_infra
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        multi_series_table(
            "Figure 3a / 4a — Sustained Processing Rate by Infrastructure \
             (5-minute averages; Fig. 4a is this data on a log scale)",
            "integer ops / second",
            &cols
        )
    );
    println!("**Per-infrastructure means (ordering check vs Figure 4a):**\n");
    println!("| infrastructure | mean rate (ops/s) |");
    println!("|---|---|");
    let mut rows: Vec<(String, f64)> = rep
        .per_infra
        .iter()
        .map(|(k, v)| (k.clone(), mean(v)))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, m) in &rows {
        println!("| {name} | {m:.4e} |");
    }
    println!();
    let mut j = BTreeMap::new();
    for (k, v) in &rep.per_infra {
        j.insert(k.clone(), series_json(v));
    }
    write_json("fig3a", &serde_json::json!(j));
}

fn fig3b(rep: &Sc98Report) {
    let cols: Vec<(&str, &[everyware::BinnedPoint])> = rep
        .host_counts
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        multi_series_table(
            "Figure 3b / 4b — Host Count by Infrastructure \
             (5-minute samples; Fig. 4b is this data on a log scale)",
            "live hosts",
            &cols
        )
    );
    let mut j = BTreeMap::new();
    for (k, v) in &rep.host_counts {
        j.insert(k.clone(), series_json(v));
    }
    write_json("fig3b", &serde_json::json!(j));
}

fn fig3c(rep: &Sc98Report) {
    println!(
        "{}",
        series_table(
            "Figure 3c / 4c — Total Sustained Rate (same data as Figure 2)",
            "integer ops / second",
            &rep.total
        )
    );
    println!("**Consistency (the paper's §4.2/§7 claim): despite per-infrastructure");
    println!("fluctuation, the total is drawn uniformly.**\n");
    println!("| series | coefficient of variation |");
    println!("|---|---|");
    println!("| **total** | **{:.3}** |", rep.cov_total);
    for (k, v) in &rep.cov_per_infra {
        println!("| {k} | {v:.3} |");
    }
    println!();
    write_json(
        "fig3c",
        &serde_json::json!({
            "cov_total": rep.cov_total,
            "cov_per_infra": rep.cov_per_infra,
        }),
    );
}

fn java_render(t: &JavaTable) {
    println!("### §5.6 — Java applet performance (300 MHz Pentium II)\n");
    println!("| configuration | paper (ops/s) | model constant | delivered in 1 simulated hour |");
    println!("|---|---|---|---|");
    println!(
        "| interpreted | 111,616 | {:.0} | {:.3e} |",
        t.interpreted, t.interpreted_hour
    );
    println!(
        "| JIT-compiled | 12,109,720 | {:.0} | {:.3e} |",
        t.jit, t.jit_hour
    );
    println!("| speedup | ~108x | {:.1}x | — |\n", t.speedup);
    write_json(
        "java",
        &serde_json::json!({
            "interpreted": t.interpreted,
            "jit": t.jit,
            "speedup": t.speedup,
            "interpreted_hour": t.interpreted_hour,
            "jit_hour": t.jit_hour,
        }),
    );
}

fn timeout_duration(opts: &Options) -> SimDuration {
    SimDuration::from_secs(if opts.short { 400 } else { 1800 })
}

fn timeout_render(r: &TimeoutAblation) {
    println!("### §2.2 ablation — static vs dynamic time-out discovery\n");
    println!("A state-exchange server polls a component whose round trips run ~8 s");
    println!("under ambient load (the SC98 show-floor situation).\n");
    println!("| policy | polls answered | polls misjudged as lost |");
    println!("|---|---|---|");
    println!(
        "| static 2 s | {} | {} |",
        r.static_arm.polls_ok, r.static_arm.polls_timed_out
    );
    println!(
        "| dynamic (forecast-discovered) | {} | {} |",
        r.dynamic_arm.polls_ok, r.dynamic_arm.polls_timed_out
    );
    println!("\nPaper: \"the system frequently misjudged the availability ... causing");
    println!("needless retries\"; dynamic discovery \"proved crucial to overall");
    println!("program stability.\"\n");
    write_json(
        "timeout_ablation",
        &serde_json::json!({
            "static": {"ok": r.static_arm.polls_ok, "timeouts": r.static_arm.polls_timed_out},
            "dynamic": {"ok": r.dynamic_arm.polls_ok, "timeouts": r.dynamic_arm.polls_timed_out},
        }),
    );
}

fn condor_duration(opts: &Options) -> SimDuration {
    SimDuration::from_secs(if opts.short { 3600 } else { 10800 })
}

fn condor_render(r: &CondorAblation) {
    println!("### §5.4 ablation — scheduler placement vs the Condor pool\n");
    println!("| configuration | client failovers | condor ops delivered | units completed |");
    println!("|---|---|---|---|");
    println!(
        "| scheduler inside pool (killed on reclaim) | {} | {:.3e} | {} |",
        r.inside.failovers, r.inside.condor_ops, r.inside.completed_units
    );
    println!(
        "| schedulers outside pool only | {} | {:.3e} | {} |",
        r.outside.failovers, r.outside.condor_ops, r.outside.completed_units
    );
    println!("\nPaper: \"clients spent an appreciable amount of time simply locating a");
    println!("viable server. We, therefore, opted for a more stable configuration in");
    println!("which the Condor application clients only contacted schedulers ...");
    println!("outside of the Condor pools.\"\n");
    write_json(
        "condor_ablation",
        &serde_json::json!({
            "inside": {"failovers": r.inside.failovers, "condor_ops": r.inside.condor_ops,
                        "units": r.inside.completed_units},
            "outside": {"failovers": r.outside.failovers, "condor_ops": r.outside.condor_ops,
                        "units": r.outside.completed_units},
        }),
    );
}

fn scaling_render(rows: &[(usize, u64)]) {
    println!("### §2.3 — Gossip pairwise state comparison is O(N²)\n");
    println!("| registered components N | comparisons per reconciliation |");
    println!("|---|---|");
    for (n, c) in rows {
        println!("| {n} | {c} |");
    }
    println!();
    write_json(
        "gossip_scaling",
        &serde_json::json!(rows
            .iter()
            .map(|(n, c)| serde_json::json!({"n": n, "comparisons": c}))
            .collect::<Vec<_>>()),
    );
}

fn criteria(rep: &Sc98Report) {
    println!("### §7 — The four Computational Grid criteria, quantified\n");
    println!("| criterion | paper's evidence | this reproduction |");
    println!("|---|---|---|");
    println!(
        "| pervasive | Tera MTA → coffee-shop browser | {} infrastructures, unix…java spanning {:.0}x in speed |",
        rep.per_infra.len(),
        rep.per_infra["unix"].iter().map(|p| p.value).fold(0.0, f64::max)
            / rep.per_infra["java"]
                .iter()
                .map(|p| p.value)
                .fold(0.0, f64::max)
                .max(1e-9)
    );
    println!(
        "| dependable | ran June → November 1998 | {:.0} units completed, {:.0} host churns survived, services up all window |",
        rep.counters["sched.completed_units"],
        rep.counters["hosts.went_down"],
    );
    println!(
        "| consistent | uniform power from fluctuating resources | CoV(total) = {:.3} vs median per-infra CoV = {:.3} |",
        rep.cov_total,
        {
            let mut v: Vec<f64> = rep.cov_per_infra.values().copied().collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        }
    );
    println!(
        "| inexpensive | non-dedicated, unprivileged logins | all hosts shared/reclaimable; {:.0} reclamations absorbed, {:.0} migrations |",
        rep.counters["procs.killed_by_host_down"],
        rep.counters["sched.migrations"],
    );
    println!("\n**Raw counters:**\n");
    println!("| counter | value |");
    println!("|---|---|");
    for (k, v) in &rep.counters {
        println!("| {k} | {v:.0} |");
    }
    println!();
    write_json("criteria", &serde_json::json!(rep.counters));
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.4e}")).unwrap_or_else(|| "—".into())
}

fn health(rep: &Sc98Report) {
    println!("### Telemetry health — every metric, grouped by subsystem\n");
    for sub in &rep.health {
        println!("#### `{}`\n", sub.subsystem);
        if !sub.counters.is_empty() || !sub.gauges.is_empty() {
            println!("| metric | kind | value |");
            println!("|---|---|---|");
            for (name, v) in &sub.counters {
                println!("| {name} | counter | {v:.0} |");
            }
            for (name, v) in &sub.gauges {
                println!("| {name} | gauge | {v:.4e} |");
            }
            println!();
        }
        if !sub.histograms.is_empty() {
            println!("| histogram | count | mean | p50 | p99 | max |");
            println!("|---|---|---|---|---|---|");
            for (name, h) in &sub.histograms {
                println!(
                    "| {name} | {} | {} | {} | {} | {} |",
                    h.count,
                    fmt_opt(h.mean),
                    fmt_opt(h.p50),
                    fmt_opt(h.p99),
                    fmt_opt(h.max),
                );
            }
            println!();
        }
    }
    let j: Vec<serde_json::Value> = rep
        .health
        .iter()
        .map(|s| {
            serde_json::json!({
                "subsystem": s.subsystem,
                "counters": s.counters.iter()
                    .map(|(n, v)| serde_json::json!({"name": n, "value": v}))
                    .collect::<Vec<_>>(),
                "gauges": s.gauges.iter()
                    .map(|(n, v)| serde_json::json!({"name": n, "value": v}))
                    .collect::<Vec<_>>(),
                "histograms": s.histograms.iter()
                    .map(|(n, h)| serde_json::json!({
                        "name": n, "count": h.count, "sum": h.sum,
                        "mean": h.mean, "p50": h.p50, "p99": h.p99,
                        "min": h.min, "max": h.max,
                    }))
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    write_json("health", &serde_json::json!(j));
}

fn chaos(opts: &Options) {
    let mut cfg = ew_chaos::CampaignConfig::standard(opts.seed, opts.short);
    if let Some(name) = &opts.workload {
        cfg = cfg.with_workload(WorkloadSpec::by_name(name).expect("parse_args validated it"));
    }
    eprintln!(
        "running the {} chaos campaign ({} plans × {} seed(s), {:.0} s horizon, {} thread(s))...",
        cfg.workload.name(),
        cfg.plans.len(),
        cfg.seeds.len(),
        cfg.horizon.as_secs_f64(),
        opts.threads,
    );
    let run = ew_chaos::run_campaign_threads(&cfg, opts.threads);
    eprintln!(
        "sim farm: {} cells on {} thread(s) in {:.0} ms",
        run.stats.cells, run.stats.threads, run.stats.wall_ms
    );
    let reports = &run.reports;
    println!("### Chaos campaign — adaptive retry/breaker stack vs static time-outs\n");
    println!(
        "| plan | seed | faults | lost % (adaptive) | lost % (static) | \
         recovery s (adaptive) | SLO ok (adaptive) | retries | breaker opens |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in reports {
        println!(
            "| {} | {} | {} | {:.2} | {:.2} | {} | {:.2} | {} | {} |",
            r.plan,
            r.seed,
            r.faults_injected,
            r.adaptive.work_lost_pct,
            r.static_baseline.work_lost_pct,
            r.adaptive
                .recovery_secs
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "—".into()),
            r.adaptive.slo_ok_fraction,
            r.adaptive.retries,
            r.adaptive.breaker_opens,
        );
    }
    println!();
    for (name, value) in ew_chaos::campaign_json(&cfg, reports) {
        write_json(&name, &value);
    }
    write_json(
        &ew_chaos::summary_stem(&cfg),
        &ew_chaos::summary_json(&cfg, reports),
    );
}

/// The scaling figure for the non-Ramsey applications: the campaign world
/// with no faults at each pool size in [`ew_chaos::SCALING_POOLS`],
/// adaptive and static arms side by side. With `--workload` only that
/// application is swept; otherwise both new applications are.
fn workload_scaling(opts: &Options) {
    let names: Vec<&str> = match opts.workload.as_deref() {
        Some(name) => vec![name],
        None => vec!["dag", "faas"],
    };
    let horizon = SimDuration::from_secs(if opts.short { 900 } else { 1800 });
    for name in names {
        let spec = WorkloadSpec::by_name(name).expect("parse_args validated it");
        eprintln!(
            "workload-scaling: {name} over pools {:?} ({:.0} s horizon, {} thread(s))...",
            ew_chaos::SCALING_POOLS,
            horizon.as_secs_f64(),
            opts.threads,
        );
        let j = ew_chaos::scaling_json(&spec, opts.seed, horizon, opts.threads);
        println!("### {name} — throughput scaling with pool size, adaptive vs static\n");
        println!("| hosts | adaptive units | adaptive ops/s | static units | static ops/s |");
        println!("|---|---|---|---|---|");
        if let Some(pools) = j["pools"].as_array() {
            for p in pools {
                println!(
                    "| {:.0} | {:.0} | {:.4e} | {:.0} | {:.4e} |",
                    p["hosts"].as_f64().unwrap_or(0.0),
                    p["adaptive"]["units"].as_f64().unwrap_or(0.0),
                    p["adaptive"]["mean_rate_ops_per_sec"]
                        .as_f64()
                        .unwrap_or(0.0),
                    p["static"]["units"].as_f64().unwrap_or(0.0),
                    p["static"]["mean_rate_ops_per_sec"].as_f64().unwrap_or(0.0),
                );
            }
        }
        println!();
        write_json(&format!("fig_{name}_scaling"), &j);
    }
}

/// One cell of the parallel `all` sweep: the single SC98 run every figure
/// shares, plus the four independent experiment batteries.
enum Battery {
    Sc98,
    Java,
    Timeout,
    Condor,
    Scaling,
}

enum BatteryOut {
    Sc98(Box<Sc98Report>),
    Java(JavaTable),
    Timeout(TimeoutAblation),
    Condor(CondorAblation),
    Scaling(Vec<(usize, u64)>),
}

/// Compute every `all` battery on the sim farm. Inner batteries run
/// sequentially (`threads = 1`): the farm already occupies the workers
/// with whole batteries, and nesting pools would oversubscribe the host.
fn run_all_batteries(opts: &Options) -> Vec<BatteryOut> {
    let cells = [
        Battery::Sc98,
        Battery::Java,
        Battery::Timeout,
        Battery::Condor,
        Battery::Scaling,
    ];
    let (outs, stats) = ew_sim::run_farm(opts.threads, &cells, |_, cell| match cell {
        Battery::Sc98 => BatteryOut::Sc98(Box::new(run_sc98(&sc98_cfg(opts)))),
        Battery::Java => BatteryOut::Java(java_table(opts.seed, 1)),
        Battery::Timeout => {
            BatteryOut::Timeout(timeout_ablation(opts.seed, timeout_duration(opts), 1))
        }
        Battery::Condor => BatteryOut::Condor(condor_ablation(opts.seed, condor_duration(opts), 1)),
        Battery::Scaling => BatteryOut::Scaling(gossip_scaling(&SCALING_NS, 1)),
    });
    eprintln!(
        "sim farm: {} experiment batteries on {} thread(s) in {:.0} ms",
        stats.cells, stats.threads, stats.wall_ms
    );
    outs
}

/// Render everything `all` produces, in the canonical (historical) order,
/// so stdout and the `results/` artifacts are byte-identical regardless
/// of how many workers computed them.
fn render_all(opts: &Options, outs: Vec<BatteryOut>) {
    let mut sc98 = None;
    let mut java = None;
    let mut timeout = None;
    let mut condor = None;
    let mut scaling = None;
    for out in outs {
        match out {
            BatteryOut::Sc98(r) => sc98 = Some(r),
            BatteryOut::Java(t) => java = Some(t),
            BatteryOut::Timeout(t) => timeout = Some(t),
            BatteryOut::Condor(c) => condor = Some(c),
            BatteryOut::Scaling(s) => scaling = Some(s),
        }
    }
    let rep = sc98.expect("sc98 battery ran");
    write_trace(opts, &rep);
    fig2(&rep);
    fig3a(&rep);
    fig3b(&rep);
    fig3c(&rep);
    criteria(&rep);
    health(&rep);
    java_render(&java.expect("java battery ran"));
    timeout_render(&timeout.expect("timeout battery ran"));
    condor_render(&condor.expect("condor battery ran"));
    scaling_render(&scaling.expect("scaling battery ran"));
}

/// The `mega` campaign (PR 7): the full stack at 1k+ hosts / 1M+ work
/// units, farmed shard-per-cell, on the flow-level network model. Writes
/// the deterministic per-shard table to `results/mega_campaign.json` (CI
/// diffs it across thread counts); the host-dependent throughput numbers
/// go to stdout only (`benchmark/`'s `mega_rpc` workload is their ledger).
fn mega(opts: &Options) {
    use ew_bench::mega::{peak_rss_bytes, run_mega, MegaConfig};
    use ew_sim::NetworkModel;

    let cfg = if opts.short {
        MegaConfig::short(opts.seed, NetworkModel::Flow)
    } else {
        MegaConfig::full(opts.seed, NetworkModel::Flow)
    };
    eprintln!(
        "mega: {} shards x {} hosts ({} total), {:.0} s horizon, Flow mode, {} thread(s)...",
        cfg.shards,
        cfg.spec.hosts_per_shard(),
        cfg.total_hosts(),
        cfg.horizon.as_secs_f64(),
        opts.threads,
    );
    let out = run_mega(&cfg, opts.threads);

    let units = out.total(|s| s.units);
    let events = out.total(|s| s.events);
    let messages = out.total(|s| s.messages);
    let flows_started = out.total(|s| s.flows_started);
    let flows_completed = out.total(|s| s.flows_completed);
    let flows_stale = out.total(|s| s.flows_stale);
    let flows_resched = out.total(|s| s.flows_reschedules);
    let packets_avoided = out.total(|s| s.packets_avoided);
    let hosts = out.total(|s| s.hosts as u64);
    let wall_s = out.stats.wall_ms / 1e3;
    let events_per_sec = if wall_s > 0.0 {
        events as f64 / wall_s
    } else {
        0.0
    };

    let rows: Vec<serde_json::Value> = out
        .shards
        .iter()
        .map(|s| {
            serde_json::json!({
                "shard": s.shard,
                "seed": s.seed,
                "hosts": s.hosts,
                "units": s.units,
                "events": s.events,
                "order_hash": format!("{:#018x}", s.order_hash),
                "messages": s.messages,
                "bytes": s.bytes,
                "flows_started": s.flows_started,
                "flows_completed": s.flows_completed,
                "flows_stale_deadlines": s.flows_stale,
                "flows_reschedules": s.flows_reschedules,
                "packets_avoided": s.packets_avoided,
            })
        })
        .collect();
    write_json(
        "mega_campaign",
        &serde_json::json!({
            "campaign": "mega: full stack at generated scale (PR 7)",
            "net_model": "flow",
            "short": opts.short,
            "seed": opts.seed,
            "shards": cfg.shards,
            "horizon_secs": cfg.horizon.as_secs_f64(),
            "totals": {
                "hosts": hosts,
                "units": units,
                "events": events,
                "messages": messages,
                "flows_started": flows_started,
                "flows_completed": flows_completed,
                "flows_stale_deadlines": flows_stale,
                "flows_reschedules": flows_resched,
                "packets_avoided": packets_avoided,
            },
            "per_shard": rows,
        }),
    );
    println!("## mega campaign (PR 7)\n");
    println!("| quantity | value |");
    println!("|---|---|");
    println!("| hosts | {hosts} |");
    println!("| work units completed | {units} |");
    println!("| events dispatched | {events} |");
    println!("| events/sec (wall) | {events_per_sec:.3e} |");
    println!("| wall clock | {:.1} s |", wall_s);
    println!(
        "| peak RSS | {} |",
        peak_rss_bytes().map_or("n/a".into(), |b| format!(
            "{:.1} MiB",
            b as f64 / (1 << 20) as f64
        ))
    );
    println!("| flows started / completed | {flows_started} / {flows_completed} |");
    println!("| deadline migrations (stale) | {flows_resched} ({flows_stale}) |");
    println!("| per-MTU packet events avoided | {packets_avoided} |");

    let (unit_floor, host_floor) = if opts.short {
        (50_000, 64)
    } else {
        (1_000_000, 1_000)
    };
    if hosts < host_floor {
        eprintln!("mega: ERROR — {hosts} hosts is below the {host_floor}-host floor");
        std::process::exit(1);
    }
    if units < unit_floor {
        eprintln!("mega: ERROR — {units} units is below the {unit_floor}-unit floor");
        std::process::exit(1);
    }
}

fn write_trace(opts: &Options, rep: &Sc98Report) {
    if let Some(path) = &opts.trace {
        match rep.trace_jsonl.as_ref() {
            Some(jsonl) => match std::fs::write(path, jsonl) {
                Ok(()) => eprintln!("wrote {} trace records to {path}", jsonl.lines().count()),
                Err(e) => eprintln!("could not write {path}: {e}"),
            },
            None => eprintln!("--trace set but the run produced no trace"),
        }
    }
}

const COMMANDS: [&str; 17] = [
    "fig2",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4a",
    "fig4b",
    "fig4c",
    "java",
    "timeout",
    "condor",
    "scaling",
    "criteria",
    "health",
    "chaos",
    "workload-scaling",
    "mega",
    "all",
];

/// Valid `--workload` values (everything `WorkloadSpec::by_name` accepts).
const WORKLOADS: [&str; 3] = ["ramsey", "dag", "faas"];

fn usage() -> String {
    format!(
        "usage: figures -- <command> [--short] [--seed N] [--threads N] [--workload W] [--trace PATH]\n\
         commands: {}\n\
         \x20 --short       smoke-test sizes (2 h SC98 window; 1-seed 15-min chaos campaign;\n\
         \x20               64-host/50k-unit mega)\n\
         \x20 --seed N      master seed (default 1998)\n\
         \x20 --threads N   sim-farm workers (default: available parallelism;\n\
         \x20               1 = sequential; artifacts are byte-identical for any value)\n\
         \x20 --workload W  application for chaos / workload-scaling: one of\n\
         \x20               {} (default: ramsey for chaos; dag and faas\n\
         \x20               for workload-scaling)\n\
         \x20 --trace PATH  write SC98 span-trace JSONL to PATH",
        COMMANDS.join(" "),
        WORKLOADS.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut cmd: Option<String> = None;
    let mut opts = Options {
        seed: 1998,
        short: false,
        trace: None,
        threads: 0,
        workload: None,
    };
    let mut threads_flag: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--short" => opts.short = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => return Err("--seed needs a number".into()),
            },
            "--threads" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads_flag = Some(n),
                _ => return Err("--threads needs a number >= 1".into()),
            },
            "--trace" => match it.next() {
                Some(path) => opts.trace = Some(path.clone()),
                None => return Err("--trace needs a path".into()),
            },
            "--workload" => match it.next() {
                Some(w) if WorkloadSpec::by_name(w).is_some() => opts.workload = Some(w.clone()),
                Some(w) => {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                None => return Err("--workload needs a name".into()),
            },
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            other if COMMANDS.contains(&other) => match &cmd {
                None => cmd = Some(other.to_string()),
                Some(first) => {
                    return Err(format!(
                        "more than one command given ({first:?} then {other:?})"
                    ));
                }
            },
            other => return Err(format!("unknown command {other:?}")),
        }
    }
    opts.threads = ew_sim::resolve_threads(threads_flag);
    Ok((cmd.unwrap_or_else(|| "all".into()), opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("figures: {msg}");
            }
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };

    // `all` computes its batteries concurrently; the single-figure
    // commands that share the SC98 report run it once here.
    let needs_sc98 = matches!(
        cmd.as_str(),
        "fig2" | "fig3a" | "fig3b" | "fig3c" | "fig4a" | "fig4b" | "fig4c" | "criteria" | "health"
    );
    let rep = needs_sc98.then(|| {
        eprintln!(
            "running the SC98 experiment ({} window, seed {})...",
            if opts.short { "2-hour" } else { "12-hour" },
            opts.seed
        );
        run_sc98(&sc98_cfg(&opts))
    });
    if let Some(rep) = rep.as_ref() {
        write_trace(&opts, rep);
    }

    match cmd.as_str() {
        "fig2" => fig2(rep.as_ref().unwrap()),
        "fig3a" | "fig4a" => fig3a(rep.as_ref().unwrap()),
        "fig3b" | "fig4b" => fig3b(rep.as_ref().unwrap()),
        "fig3c" | "fig4c" => fig3c(rep.as_ref().unwrap()),
        "java" => java_render(&java_table(opts.seed, opts.threads)),
        "timeout" => timeout_render(&timeout_ablation(
            opts.seed,
            timeout_duration(&opts),
            opts.threads,
        )),
        "condor" => condor_render(&condor_ablation(
            opts.seed,
            condor_duration(&opts),
            opts.threads,
        )),
        "scaling" => scaling_render(&gossip_scaling(&SCALING_NS, opts.threads)),
        "criteria" => criteria(rep.as_ref().unwrap()),
        "health" => health(rep.as_ref().unwrap()),
        "chaos" => chaos(&opts),
        "workload-scaling" => workload_scaling(&opts),
        "mega" => mega(&opts),
        "all" => {
            eprintln!(
                "running the SC98 experiment and the ablation batteries \
                 ({} window, seed {}, {} thread(s))...",
                if opts.short { "2-hour" } else { "12-hour" },
                opts.seed,
                opts.threads,
            );
            let outs = run_all_batteries(&opts);
            render_all(&opts, outs);
        }
        _ => unreachable!("parse_args validated the command"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Options), String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn no_args_defaults_to_all() {
        let (cmd, opts) = parse(&[]).unwrap();
        assert_eq!(cmd, "all");
        assert_eq!(opts.seed, 1998);
        assert!(!opts.short);
        assert!(opts.workload.is_none());
        assert!(opts.threads >= 1, "resolve_threads picked a worker count");
    }

    #[test]
    fn every_listed_command_parses() {
        for cmd in COMMANDS {
            let (parsed, _) = parse(&[cmd]).unwrap();
            assert_eq!(parsed, cmd);
        }
    }

    #[test]
    fn flags_combine_with_a_command() {
        let (cmd, opts) = parse(&[
            "chaos",
            "--short",
            "--seed",
            "7",
            "--threads",
            "3",
            "--workload",
            "dag",
        ])
        .unwrap();
        assert_eq!(cmd, "chaos");
        assert!(opts.short);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.workload.as_deref(), Some("dag"));
    }

    #[test]
    fn every_valid_workload_is_accepted() {
        for w in WORKLOADS {
            let (_, opts) = parse(&["chaos", "--workload", w]).unwrap();
            assert_eq!(opts.workload.as_deref(), Some(w));
        }
    }

    #[test]
    fn unknown_workload_is_rejected_with_the_valid_set() {
        let err = parse(&["chaos", "--workload", "tsp"]).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert!(err.contains("ramsey, dag, faas"), "{err}");
    }

    #[test]
    fn workload_flag_without_a_value_is_rejected() {
        let err = parse(&["chaos", "--workload"]).unwrap_err();
        assert!(err.contains("--workload needs a name"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["chaos", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = parse(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn two_commands_are_rejected() {
        let err = parse(&["chaos", "all"]).unwrap_err();
        assert!(err.contains("more than one command"), "{err}");
    }

    #[test]
    fn help_yields_the_silent_usage_error() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
        assert_eq!(parse(&["-h"]).unwrap_err(), "");
    }

    #[test]
    fn usage_names_the_workloads_and_commands() {
        let u = usage();
        assert!(u.contains("workload-scaling"));
        assert!(u.contains("ramsey, dag, faas"));
        assert!(u.contains("mega"));
    }

    #[test]
    fn retired_bench_commands_are_unknown() {
        // Host-time measurement lives in `benchmark/` only.
        for retired in [
            "bench-dispatch",
            "bench-flow",
            "bench-farm",
            "bench-kernel",
            "bench-gate",
        ] {
            let err = parse(&[retired]).unwrap_err();
            assert!(err.contains("unknown command"), "{retired}: {err}");
        }
    }

    #[test]
    fn mega_parses_with_its_flags() {
        let (cmd, opts) = parse(&["mega", "--short", "--threads", "2"]).unwrap();
        assert_eq!(cmd, "mega");
        assert!(opts.short);
        assert_eq!(opts.threads, 2);
    }

    #[test]
    fn net_flag_is_unknown() {
        // `mega` has one network model and no flag to pick another.
        let err = parse(&["mega", "--net", "flow"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }
}
