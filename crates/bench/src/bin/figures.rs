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
//! `bench-farm`, `bench-kernel`, `bench-gate`, `mega`, `all`. `--short`
//! runs a 2-hour window instead of the full 12 hours (for smoke tests);
//! for `chaos` it cuts the campaign to one seed over 15 minutes. `chaos` sweeps the named fault plans of `ew-chaos` (see
//! `results/chaos_*.json` and `results/BENCH_PR3.json`) and is not part
//! of `all`. `--workload {ramsey,dag,faas}` selects the application the
//! chaos campaign runs (default: ramsey, the byte-identical historical
//! artifacts; other workloads write `chaos_<name>_*.json` and
//! `BENCH_PR6_<name>.json`). `workload-scaling` sweeps the campaign world
//! over pool sizes for the DAG and faas applications (or just the one
//! named with `--workload`), writing `results/fig_<name>_scaling.json`. `bench-farm` measures the sim farm's sequential-vs-parallel
//! wall-clock and writes `results/BENCH_PR4.json`. `bench-kernel` A/Bs
//! the naive flip-delta kernel against the incremental delta table and
//! allocation-free workspace kernels, writing honest wall-clock numbers
//! to `results/BENCH_PR5.json` and thread-invariant trajectory
//! fingerprints to `results/kernel_trajectories.json` (both arms must
//! retrace the same moves, enforced with a nonzero exit). `mega` runs
//! the full stack on a generated 1k+ host fleet through 1M+ work units
//! (flow-level network model by default; `--net packet` for the
//! packet-faithful A/B; `--short` is the 64-host/50k-unit CI variant),
//! writing `results/mega_campaign.json` (deterministic, CI-diffed) and
//! `results/BENCH_PR7.json` (events/sec, wall-clock, peak RSS).
//! `bench-gate` is the CI perf-regression floor — a fixed-op-count
//! throughput probe that exits nonzero below the floors in
//! `results/bench_floor.json`.
//! `--seed N` reseeds. `--threads N` sets the sim-farm worker count
//! (default: the `EW_THREADS` environment variable, else available
//! parallelism; `--threads 1` reproduces the sequential behavior
//! exactly). Every artifact is byte-identical for any thread count.
//! `--trace PATH` turns on span tracing for the SC98 run and writes the
//! records to PATH as JSONL (the simulation itself is bit-identical with
//! tracing on or off). Markdown goes to stdout; JSON artifacts go to
//! `results/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Validated `--net` mode for `mega` (`packet` or `flow`; default flow).
    net: Option<String>,
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
        &ew_chaos::bench_summary_stem(&cfg),
        &ew_chaos::bench_summary_json(&cfg, reports),
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

/// Measure the sim farm: the full chaos campaign and the `all` experiment
/// batteries, once sequentially (`--threads 1`) and once at the requested
/// worker count, writing `results/BENCH_PR4.json`. Wall-clock is host
/// time; the JSON it lands in is a bench report, not a deterministic
/// artifact. The campaign rendering of both runs is compared so the
/// report also certifies thread-count invariance.
fn bench_farm(opts: &Options) {
    let cpus = ew_sim::available_threads();
    let par = opts.threads.max(2);
    let cfg = ew_chaos::CampaignConfig::standard(opts.seed, opts.short);

    eprintln!("bench-farm: chaos campaign at 1 thread...");
    let seq = ew_chaos::run_campaign_threads(&cfg, 1);
    eprintln!("bench-farm: chaos campaign at {par} threads...");
    let parallel = ew_chaos::run_campaign_threads(&cfg, par);
    let render = |reports: &[ew_chaos::PlanReport]| -> String {
        ew_chaos::campaign_json(&cfg, reports)
            .into_iter()
            .map(|(n, v)| format!("{n}:{}", serde_json::to_string_pretty(&v).unwrap()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let identical = render(&seq.reports) == render(&parallel.reports);

    eprintln!("bench-farm: figures batteries at 1 thread...");
    let t0 = std::time::Instant::now();
    let seq_out = {
        let seq_opts = Options {
            seed: opts.seed,
            short: opts.short,
            trace: None,
            threads: 1,
            workload: None,
            net: None,
        };
        run_all_batteries(&seq_opts)
    };
    let figures_seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("bench-farm: figures batteries at {par} threads...");
    let t1 = std::time::Instant::now();
    let par_out = {
        let par_opts = Options {
            seed: opts.seed,
            short: opts.short,
            trace: None,
            threads: par,
            workload: None,
            net: None,
        };
        run_all_batteries(&par_opts)
    };
    let figures_par_ms = t1.elapsed().as_secs_f64() * 1e3;
    drop(seq_out);
    drop(par_out);

    let speedup = |seq_ms: f64, par_ms: f64| {
        if par_ms > 0.0 {
            seq_ms / par_ms
        } else {
            0.0
        }
    };
    write_json(
        "BENCH_PR4",
        &serde_json::json!({
            "bench": "sim-farm sequential vs parallel wall-clock (PR 4)",
            "host_cpus": cpus,
            "short": opts.short,
            "seed": opts.seed,
            "campaign": {
                "cells": seq.stats.cells,
                "threads_parallel": par,
                "wall_ms_threads_1": seq.stats.wall_ms,
                "wall_ms_parallel": parallel.stats.wall_ms,
                "speedup": speedup(seq.stats.wall_ms, parallel.stats.wall_ms),
                "artifacts_byte_identical": identical,
            },
            "figures_all": {
                "batteries": 5,
                "threads_parallel": par,
                "wall_ms_threads_1": figures_seq_ms,
                "wall_ms_parallel": figures_par_ms,
                "speedup": speedup(figures_seq_ms, figures_par_ms),
            },
            "note": "wall-clock is host time and varies run to run; every deterministic \
                     artifact in results/ is byte-identical across thread counts. Speedup \
                     tracks min(threads, host_cpus): a single-CPU host shows ~1.0x.",
        }),
    );
    if !identical {
        eprintln!("bench-farm: ERROR — parallel campaign diverged from sequential!");
        std::process::exit(1);
    }
}

/// Counting allocator so `bench-kernel` can report *measured* steady-state
/// allocation counts rather than asserting them by construction. The
/// count is global to the process; each probe reads it before and after a
/// timed loop on this thread with no other work running.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// FNV-1a over a byte stream — the trajectory fingerprint primitive.
fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `steps` heuristic steps and fold every step outcome and objective
/// value into an FNV fingerprint. Returns (move-sequence fingerprint,
/// final-graph fingerprint, final objective, wall seconds).
fn kernel_trajectory(
    incremental: bool,
    kind: u8,
    seed: u64,
    n: usize,
    k: usize,
    steps: u64,
) -> (u64, u64, u64, f64) {
    use ew_ramsey::{heuristic_by_kind, ColoredGraph, SearchState};
    let mut rng = ew_sim::Xoshiro256::seed_from_u64(seed);
    let g = ColoredGraph::random(n, &mut rng);
    let mut st = if incremental {
        SearchState::new_incremental(g, k)
    } else {
        SearchState::new(g, k)
    };
    let mut h = heuristic_by_kind(kind);
    let mut moves_fp = 0u64;
    let t = std::time::Instant::now();
    for _ in 0..steps {
        let outcome = h.step(&mut st, &mut rng);
        moves_fp = fnv64(moves_fp, format!("{outcome:?}:{}", st.count()).as_bytes());
    }
    let secs = t.elapsed().as_secs_f64();
    let graph_fp = fnv64(0, &st.graph().to_bytes());
    (moves_fp, graph_fp, st.count(), secs)
}

/// Allocations observed across `f` on this thread (process-global counter,
/// so the probe is only meaningful while nothing else runs).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

fn bench_kernel(opts: &Options) {
    use ew_ramsey::{flip_delta, flip_delta_ws, ColoredGraph, DeltaTable, OpsCounter, Workspace};

    // --- Deterministic half: trajectory fingerprints over the sim farm.
    // Every cell runs both kernel arms and both must retrace the same
    // moves; the JSON is byte-identical for any --threads value.
    let seeds: &[u64] = if opts.short {
        &[101, 202]
    } else {
        &[101, 202, 303, 404]
    };
    let steps: u64 = if opts.short { 150 } else { 400 };
    let (tn, tk) = (21usize, 4usize);
    let mut cells: Vec<(u8, &str, u64)> = Vec::new();
    for &(kind, name) in &[(0u8, "greedy"), (1, "tabu"), (2, "anneal")] {
        for &seed in seeds {
            cells.push((kind, name, seed.wrapping_add(opts.seed)));
        }
    }
    eprintln!(
        "bench-kernel: {} trajectory cells on {} thread(s)...",
        cells.len(),
        opts.threads
    );
    let (rows, farm_stats) = ew_sim::run_farm(opts.threads, &cells, |_, &(kind, name, seed)| {
        let (naive_fp, naive_g, naive_c, _) = kernel_trajectory(false, kind, seed, tn, tk, steps);
        let (tab_fp, tab_g, tab_c, _) = kernel_trajectory(true, kind, seed, tn, tk, steps);
        let equal = naive_fp == tab_fp && naive_g == tab_g && naive_c == tab_c;
        let row = serde_json::json!({
            "heuristic": name,
            "seed": seed,
            "n": tn,
            "k": tk,
            "steps": steps,
            "moves_fnv": format!("{naive_fp:016x}"),
            "final_graph_fnv": format!("{naive_g:016x}"),
            "final_count": naive_c,
            "arms_identical": equal,
        });
        (row, equal)
    });
    let all_equal = rows.iter().all(|&(_, eq)| eq);
    let rows: Vec<serde_json::Value> = rows.into_iter().map(|(row, _)| row).collect();
    write_json(
        "kernel_trajectories",
        &serde_json::json!({
            "bench": "naive vs incremental-table trajectory equivalence (PR 5)",
            "short": opts.short,
            "seed": opts.seed,
            "cells": farm_stats.cells,
            "trajectories": rows,
        }),
    );

    // --- Wall-clock half: the honest A/B on the R(5)-class workload.
    let n = 43usize;
    let k = 5usize;
    let ab_steps: u64 = if opts.short { 300 } else { 1500 };
    let mut rng = ew_sim::Xoshiro256::seed_from_u64(opts.seed);
    let g43 = ColoredGraph::random(n, &mut rng);

    // Table construction cost (amortized over a whole unit's steps).
    let t = std::time::Instant::now();
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    let table = DeltaTable::new(&g43, k, &mut ops, &mut ws);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(table);

    // Single flip-delta evaluation: allocating wrapper vs reused arena.
    let probe_calls = 20_000u64;
    let t = std::time::Instant::now();
    let mut acc = 0i64;
    let (_, allocs_alloc) = count_allocs(|| {
        for i in 0..probe_calls {
            let (u, v) = ((i as usize * 7) % n, (i as usize * 13 + 1) % n);
            if u != v {
                acc += flip_delta(&g43, k, u.min(v), u.max(v), &mut ops);
            }
        }
    });
    let alloc_arm_s = t.elapsed().as_secs_f64();
    flip_delta_ws(&g43, k, 0, 1, &mut ops, &mut ws); // warm the arena
    let t = std::time::Instant::now();
    let (_, allocs_ws) = count_allocs(|| {
        for i in 0..probe_calls {
            let (u, v) = ((i as usize * 7) % n, (i as usize * 13 + 1) % n);
            if u != v {
                acc += flip_delta_ws(&g43, k, u.min(v), u.max(v), &mut ops, &mut ws);
            }
        }
    });
    let ws_arm_s = t.elapsed().as_secs_f64();
    std::hint::black_box(acc);

    // Heuristic throughput, naive vs incremental, identical trajectories.
    let mut heur: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut tabu_speedup = 0.0;
    for &(kind, name) in &[(0u8, "greedy"), (1, "tabu")] {
        let (fp_n, g_n, _, naive_s) = kernel_trajectory(false, kind, opts.seed, n, k, ab_steps);
        let (fp_t, g_t, _, table_s) = kernel_trajectory(true, kind, opts.seed, n, k, ab_steps);
        assert_eq!(
            (fp_n, g_n),
            (fp_t, g_t),
            "{name} arms must retrace the same moves"
        );
        let speedup = if table_s > 0.0 {
            naive_s / table_s
        } else {
            0.0
        };
        if kind == 1 {
            tabu_speedup = speedup;
        }
        heur.insert(
            name.to_string(),
            serde_json::json!({
                "steps": ab_steps,
                "naive_steps_per_sec": ab_steps as f64 / naive_s,
                "table_steps_per_sec": ab_steps as f64 / table_s,
                "speedup": speedup,
                "trajectories_identical": true,
            }),
        );
    }

    // Steady-state allocation audit of the incremental arm (greedy: its
    // step loop owns no growing side structures, so any allocation would
    // be the kernel's).
    let mut rng = ew_sim::Xoshiro256::seed_from_u64(opts.seed ^ 0xA11C);
    let mut st = ew_ramsey::SearchState::new_incremental(ColoredGraph::random(n, &mut rng), k);
    let mut greedy = ew_ramsey::heuristic_by_kind(0);
    for _ in 0..10 {
        greedy.step(&mut st, &mut rng); // warm
    }
    let (_, allocs_steady) = count_allocs(|| {
        for _ in 0..200 {
            greedy.step(&mut st, &mut rng);
        }
    });

    write_json(
        "BENCH_PR5",
        &serde_json::json!({
            "bench": "incremental delta table + allocation-free kernels (PR 5)",
            "short": opts.short,
            "seed": opts.seed,
            "workload": {"n": n, "k": k},
            "table_build_ms": build_ms,
            "flip_delta": {
                "calls": probe_calls,
                "alloc_per_call_per_sec": probe_calls as f64 / alloc_arm_s,
                "workspace_per_sec": probe_calls as f64 / ws_arm_s,
                "allocations_alloc_arm": allocs_alloc,
                "allocations_workspace_arm": allocs_ws,
            },
            "heuristic_steps": heur,
            "steady_state_allocations_greedy_200_steps": allocs_steady,
            "note": "wall-clock is host time and varies run to run; trajectory \
                     equivalence (results/kernel_trajectories.json) is the \
                     deterministic, thread-invariant artifact. The table arm \
                     replays the exact naive move sequence, so speedup is \
                     like-for-like.",
        }),
    );
    println!("## bench-kernel (PR 5)\n");
    println!("| probe | naive | incremental | speedup |");
    println!("|---|---|---|---|");
    println!(
        "| flip_delta calls/s | {:.0} | {:.0} (workspace) | {:.2}x |",
        probe_calls as f64 / alloc_arm_s,
        probe_calls as f64 / ws_arm_s,
        alloc_arm_s / ws_arm_s
    );
    for (name, v) in &heur {
        println!(
            "| {name} steps/s | {:.1} | {:.1} | {:.2}x |",
            v["naive_steps_per_sec"].as_f64().unwrap_or(0.0),
            v["table_steps_per_sec"].as_f64().unwrap_or(0.0),
            v["speedup"].as_f64().unwrap_or(0.0)
        );
    }
    println!(
        "\ntable build: {build_ms:.2} ms; steady-state allocations over 200 \
         greedy steps: {allocs_steady}; trajectory cells identical: {all_equal}"
    );
    if !all_equal {
        eprintln!("bench-kernel: ERROR — table arm diverged from the naive kernel!");
        std::process::exit(1);
    }
    if tabu_speedup < 3.0 {
        eprintln!(
            "bench-kernel: ERROR — tabu speedup {tabu_speedup:.2}x below the 3x acceptance bar"
        );
        std::process::exit(1);
    }
}

/// The `mega` campaign (PR 7): the full stack at 1k+ hosts / 1M+ work
/// units, farmed shard-per-cell, defaulting to the flow-level network
/// model. Writes the deterministic per-shard table to
/// `results/mega_campaign.json` (CI diffs it across thread counts) and
/// the host-dependent throughput numbers to `results/BENCH_PR7.json`.
/// `--net packet` runs the identical worlds on the packet-faithful mode
/// and suffixes both artifact names with `_packet`.
fn mega(opts: &Options) {
    use ew_bench::mega::{peak_rss_bytes, run_mega, MegaConfig};
    use ew_sim::NetworkModel;

    let model = match opts.net.as_deref() {
        Some("packet") => NetworkModel::Packet,
        _ => NetworkModel::Flow,
    };
    let cfg = if opts.short {
        MegaConfig::short(opts.seed, model)
    } else {
        MegaConfig::full(opts.seed, model)
    };
    eprintln!(
        "mega: {} shards x {} hosts ({} total), {:.0} s horizon, {:?} mode, {} thread(s)...",
        cfg.shards,
        cfg.spec.hosts_per_shard(),
        cfg.total_hosts(),
        cfg.horizon.as_secs_f64(),
        model,
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
    // Flow-mode network events: one FlowComplete dispatch per scheduled
    // deadline (completions + stale swallows). A per-MTU packet simulator
    // would instead have scheduled `packets_avoided` events for the same
    // traffic; our own Packet mode sits in between (one sampled-delay
    // event per message — contention-blind, see DESIGN.md §12).
    let flow_events = flows_completed + flows_stale;

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
    let suffix = if model == NetworkModel::Packet {
        "_packet"
    } else {
        ""
    };
    write_json(
        &format!("mega_campaign{suffix}"),
        &serde_json::json!({
            "campaign": "mega: full stack at generated scale (PR 7)",
            "net_model": if model == NetworkModel::Packet { "packet" } else { "flow" },
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
    write_json(
        &format!("BENCH_PR7{suffix}"),
        &serde_json::json!({
            "bench": "mega campaign throughput (PR 7)",
            "net_model": if model == NetworkModel::Packet { "packet" } else { "flow" },
            "short": opts.short,
            "seed": opts.seed,
            "threads": opts.threads,
            "hosts": hosts,
            "units": units,
            "events": events,
            "wall_ms": out.stats.wall_ms,
            "events_per_sec": events_per_sec,
            "peak_rss_bytes": peak_rss_bytes(),
            "network_event_comparison": {
                "flow_deadline_events": flow_events,
                "messages": messages,
                "per_mtu_packet_events_hypothetical": packets_avoided,
                "note": "flow mode dispatches one deadline event per scheduled \
                         completion (plus stale swallows from fair-share \
                         migrations); a per-MTU packet-level simulator would \
                         schedule `per_mtu_packet_events_hypothetical` events for \
                         the same bytes. This repo's own Packet mode is already \
                         per-message (one sampled-delay event each), so the \
                         honest contrast with it is contention fidelity — \
                         bandwidth sharing between concurrent flows — at a \
                         comparable event count, not a raw event saving.",
            },
            "note": "wall_ms, events_per_sec, and peak_rss_bytes are host time and \
                     vary run to run; results/mega_campaign.json holds the \
                     deterministic per-shard counters (byte-identical at any \
                     --threads value).",
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

/// Horizon for `bench-gate`'s queue probe.
const DISPATCH_HORIZON_US: u64 = 100_000_000;

/// Bursty batch: entries arrive in same-tick runs of `burst` — the
/// synchronized-timeout / broadcast shape.
fn dispatch_burst_batch(n: u64, burst: u64) -> Vec<(u64, u64)> {
    let mut s = 0x243f_6a88_85a3_08d3u64;
    let mut out = Vec::with_capacity(n as usize);
    let mut t = 0u64;
    for seq in 0..n {
        if seq % burst == 0 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            t = s.wrapping_mul(0x2545_f491_4f6c_dd1d) % DISPATCH_HORIZON_US;
        }
        out.push((t, seq));
    }
    out
}

/// Insert + drain the batch through `pop_run_upto`, as the kernel's
/// dispatch loop does. Returns an order checksum and the insert/drain phase times.
fn dispatch_drain_runs(entries: &[(u64, u64)], buf: &mut Vec<(u64, u64, ())>) -> (u64, f64, f64) {
    let t0 = std::time::Instant::now();
    let mut w = ew_sim::EventQueue::new();
    for &(t, seq) in entries {
        w.insert(t, seq, ());
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let mut sum = 0u64;
    loop {
        if w.pop_run_upto(u64::MAX, buf) == 0 {
            break;
        }
        for (t, seq, ()) in buf.drain(..) {
            sum = sum.wrapping_add(t.wrapping_mul(31) ^ seq);
        }
    }
    (sum, insert_s, t0.elapsed().as_secs_f64())
}

const FORECAST_PROBE_ROUNDS: u64 = 25;

/// The `bench-gate` forecast probe: 25 fresh standard batteries over
/// `series`, `update` + `predict` per sample — the per-RPC shape of §2.2.
/// Returns a checksum of every forecast's bits and the elapsed seconds.
fn forecast_probe(series: &[f64]) -> (u64, f64) {
    let t0 = std::time::Instant::now();
    let mut sum = 0u64;
    for _ in 0..FORECAST_PROBE_ROUNDS {
        let mut set = ew_forecast::ForecasterSet::standard();
        for &x in series {
            set.update(x);
            let f = set.predict().expect("one sample absorbed");
            sum = sum.wrapping_mul(31).wrapping_add(f.value.to_bits());
        }
    }
    (sum, t0.elapsed().as_secs_f64())
}

/// The 2 000-sample seeded load trace `benchmark/`'s `forecast.*` probes run.
fn forecast_probe_series() -> Vec<f64> {
    use ew_sim::{LoadTrace, RandomWalkLoad, SimTime, Xoshiro256};
    let (n, step) = (2_000u64, SimDuration::from_secs(30));
    let mut rng = Xoshiro256::seed_from_u64(7);
    let walk = RandomWalkLoad::new(&mut rng, step * n, step, 0.35, 0.05, 0.95);
    (0..n)
        .map(|i| walk.load(SimTime::ZERO + step * i))
        .collect()
}

/// `bench-gate` (PR 8, extended PR 9 and PR 14): the CI perf-regression
/// floor. A fixed-op-count throughput probe set — the burst32 queue drain,
/// the `mega --short` campaign, and the forecaster battery's update +
/// predict cycle —
/// reports events/sec and allocation counts and exits nonzero if any
/// throughput falls below the floor recorded in
/// `results/bench_floor.json`. To re-baseline after an intentional perf
/// change: run `figures -- bench-gate` on the reference host, multiply
/// the printed events/sec by 0.6, and commit the new floor file (see
/// EXPERIMENTS.md).
fn bench_gate(opts: &Options) {
    use ew_bench::mega::{run_mega, MegaConfig};
    use ew_sim::NetworkModel;

    // The floor file is a flat `"key": number` object; extract the two
    // floors with a key scan (the in-tree serde_json shim writes JSON but
    // does not parse it).
    fn floor_value(s: &str, key: &str) -> Option<f64> {
        let at = s.find(&format!("\"{key}\""))?;
        let rest = &s[at..];
        let colon = rest.find(':')?;
        let num = rest[colon + 1..]
            .trim_start()
            .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .next()?;
        num.parse().ok()
    }
    let floor_path = "results/bench_floor.json";
    let floor = match std::fs::read_to_string(floor_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench-gate: cannot read {floor_path}: {e}\n\
                 (re-baseline: run `figures -- bench-gate`, take 0.6x of the \
                 printed events/sec, and commit the floor file)"
            );
            std::process::exit(2);
        }
    };
    let (queue_floor, kernel_floor, forecast_floor) = match (
        floor_value(&floor, "queue_burst32_events_per_sec_floor"),
        floor_value(&floor, "mega_short_events_per_sec_floor"),
        floor_value(&floor, "forecast_update_predict_per_sec_floor"),
    ) {
        (Some(q), Some(k), Some(f)) => (q, k, f),
        _ => {
            eprintln!(
                "bench-gate: {floor_path} is missing \
                 queue_burst32_events_per_sec_floor, \
                 mega_short_events_per_sec_floor, or \
                 forecast_update_predict_per_sec_floor"
            );
            std::process::exit(2);
        }
    };

    let n: u64 = 100_000;
    let entries = dispatch_burst_batch(n, 32);
    let (queue_s, queue_allocs) = {
        let mut best = f64::INFINITY;
        let mut allocs = 0u64;
        let mut buf: Vec<(u64, u64, ())> = Vec::new();
        for _ in 0..8 {
            let ((_, ins_s, drain_s), a) = count_allocs(|| dispatch_drain_runs(&entries, &mut buf));
            best = best.min(ins_s + drain_s);
            allocs = a; // each round grows a fresh heap
        }
        (best, allocs)
    };
    let queue_eps = n as f64 / queue_s;

    let cfg = MegaConfig::short(opts.seed, NetworkModel::Flow);
    let (out, mega_allocs) = count_allocs(|| run_mega(&cfg, opts.threads));
    let events = out.total(|s| s.events);
    let kernel_eps = events as f64 / (out.stats.wall_ms / 1e3);

    let series = forecast_probe_series();
    let forecast_ops = FORECAST_PROBE_ROUNDS * series.len() as u64;
    let (forecast_s, forecast_allocs) = {
        let (want, _) = forecast_probe(&series);
        let mut best = f64::INFINITY;
        let mut allocs = 0u64;
        for _ in 0..8 {
            let ((sum, s), a) = count_allocs(|| forecast_probe(&series));
            assert_eq!(sum, want, "forecast bits must repeat run to run");
            best = best.min(s);
            allocs = a; // building the 25 batteries; none per sample
        }
        (best, allocs)
    };
    let forecast_eps = forecast_ops as f64 / forecast_s;

    println!("## bench-gate (PR 14)\n");
    println!("| probe | ops | events/sec | allocations | floor |");
    println!("|---|---|---|---|---|");
    println!(
        "| queue burst32 drain | {n} | {queue_eps:.3e} | {queue_allocs} | {queue_floor:.3e} |"
    );
    println!("| mega --short | {events} | {kernel_eps:.3e} | {mega_allocs} | {kernel_floor:.3e} |");
    println!(
        "| forecast update+predict | {forecast_ops} | {forecast_eps:.3e} | {forecast_allocs} | {forecast_floor:.3e} |"
    );
    let mut failed = false;
    if queue_eps < queue_floor {
        eprintln!(
            "bench-gate: ERROR — queue burst32 {queue_eps:.3e} ev/s is below \
             the {queue_floor:.3e} floor"
        );
        failed = true;
    }
    if kernel_eps < kernel_floor {
        eprintln!(
            "bench-gate: ERROR — mega --short {kernel_eps:.3e} ev/s is below \
             the {kernel_floor:.3e} floor"
        );
        failed = true;
    }
    if forecast_eps < forecast_floor {
        eprintln!(
            "bench-gate: ERROR — forecast update+predict {forecast_eps:.3e} /s is \
             below the {forecast_floor:.3e} floor"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("bench-gate: all probes clear the committed floor");
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

const COMMANDS: [&str; 20] = [
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
    "bench-farm",
    "bench-kernel",
    "bench-gate",
    "mega",
    "all",
];

/// Valid `--net` values for `mega`.
const NET_MODES: [&str; 2] = ["packet", "flow"];

/// Valid `--workload` values (everything `WorkloadSpec::by_name` accepts).
const WORKLOADS: [&str; 3] = ["ramsey", "dag", "faas"];

fn usage() -> String {
    format!(
        "usage: figures -- <command> [--short] [--seed N] [--threads N] [--workload W] [--net M] [--trace PATH]\n\
         commands: {}\n\
         \x20 --short       smoke-test sizes (2 h SC98 window; 1-seed 15-min chaos campaign;\n\
         \x20               64-host/50k-unit mega)\n\
         \x20 --seed N      master seed (default 1998)\n\
         \x20 --threads N   sim-farm workers (default: EW_THREADS env, else available\n\
         \x20               parallelism; 1 = sequential; artifacts are byte-identical\n\
         \x20               for any value)\n\
         \x20 --workload W  application for chaos / workload-scaling: one of\n\
         \x20               {} (default: ramsey for chaos; dag and faas\n\
         \x20               for workload-scaling)\n\
         \x20 --net M       network model for mega: one of {} (default: flow)\n\
         \x20 --trace PATH  write SC98 span-trace JSONL to PATH",
        COMMANDS.join(" "),
        WORKLOADS.join(", "),
        NET_MODES.join(", ")
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
        net: None,
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
            "--net" => match it.next() {
                Some(m) if NET_MODES.contains(&m.as_str()) => opts.net = Some(m.clone()),
                Some(m) => {
                    return Err(format!(
                        "unknown net mode {m:?} (expected one of: {})",
                        NET_MODES.join(", ")
                    ));
                }
                None => return Err("--net needs a mode".into()),
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
        "bench-farm" => bench_farm(&opts),
        "bench-kernel" => bench_kernel(&opts),
        "bench-gate" => bench_gate(&opts),
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
        assert!(u.contains("packet, flow"));
    }

    #[test]
    fn dispatch_bench_and_gate_parse() {
        // `bench-gate` carries the one dispatch probe left (burst32 drain);
        // the two A/B commands went with the arms they compared.
        let (cmd, opts) = parse(&["bench-gate", "--short", "--threads", "2"]).unwrap();
        assert_eq!(cmd, "bench-gate");
        assert!(opts.short);
        for retired in ["bench-dispatch", "bench-flow"] {
            let err = parse(&[retired]).unwrap_err();
            assert!(err.contains("unknown command"), "{retired}: {err}");
        }
    }

    #[test]
    fn mega_parses_with_its_flags() {
        let (cmd, opts) = parse(&["mega", "--short", "--net", "packet", "--threads", "2"]).unwrap();
        assert_eq!(cmd, "mega");
        assert!(opts.short);
        assert_eq!(opts.net.as_deref(), Some("packet"));
        assert_eq!(opts.threads, 2);
    }

    #[test]
    fn every_valid_net_mode_is_accepted() {
        for m in NET_MODES {
            let (_, opts) = parse(&["mega", "--net", m]).unwrap();
            assert_eq!(opts.net.as_deref(), Some(m));
        }
    }

    #[test]
    fn unknown_net_mode_is_rejected_with_the_valid_set() {
        let err = parse(&["mega", "--net", "carrier-pigeon"]).unwrap_err();
        assert!(err.contains("unknown net mode"), "{err}");
        assert!(err.contains("packet, flow"), "{err}");
    }

    #[test]
    fn net_flag_without_a_value_is_rejected() {
        let err = parse(&["mega", "--net"]).unwrap_err();
        assert!(err.contains("--net needs a mode"), "{err}");
    }
}
