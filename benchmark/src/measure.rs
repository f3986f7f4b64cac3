//! One run of one workload: the timed run that yields the end-to-end
//! metrics, and the separate traced run that yields the per-layer ones.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::shares::{shares, Measured};
use crate::stats::{floor_gap_pct, median, spread_pct};
use crate::trace::Tracer;
use crate::workloads::{repetition, Outcome, Sizes, Workload};

/// A run is flagged noisy when the process was off-CPU for more than this
/// share of its wall time.
const NOISY_DESCHEDULED_PCT: f64 = 10.0;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context a person (and `compare`) needs beside the metrics.
    pub info: Json,
    /// What each failed self-check said.
    pub failures: Vec<String>,
}

impl RunResult {
    /// The result line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// Self-checks on one repetition's outputs. Returns what is wrong.
pub fn check_outcome(w: Workload, sizes: &Sizes, out: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", w.name()));
        }
    };
    require(out.units > 0, "no simulated work completed".into());
    require(out.events > 0, "no events dispatched".into());
    let flows = (
        out.counter("net.flows_started") as u64,
        out.counter("net.flows_completed") as u64,
    );
    if w == Workload::BulkFlow {
        let want = sizes.bulk_flows();
        require(
            flows == (want, want),
            format!("flows started/completed {flows:?}, expected {want} of each"),
        );
    } else {
        require(
            flows == (0, 0),
            format!("RPC-only world started flows: {flows:?}"),
        );
    }
    if w == Workload::RealSearch {
        require(
            out.witness_valid == Some(true),
            format!(
                "witness in persistent state: {:?} (want Some(true))",
                out.witness_valid
            ),
        );
        require(
            out.counter("state.stores_ok") >= 1.0,
            "no store accepted".into(),
        );
        require(
            out.counter("ramsey.table_lookups") > 0.0,
            "no real Ramsey kernel ran".into(),
        );
    } else {
        require(
            out.counter("ramsey.table_lookups") == 0.0,
            "synthetic world ran the real Ramsey kernel".into(),
        );
    }
    if w == Workload::Sc98 && sizes.sc98_window_s >= Sizes::FULL.sc98_window_s {
        require(
            out.paper_err_pct.is_some_and(|e| e < 25.0),
            format!(
                "error against the paper's rates {:?} % (want < 25)",
                out.paper_err_pct
            ),
        );
    }
    if w == Workload::ChaosSweep {
        require(
            out.fault_work_lost_pct.is_some() && out.fault_recovery_sim_s.is_some(),
            "campaign produced no fault reports".into(),
        );
    }
    bad
}

/// CPU seconds this thread has run so far (first field of schedstat, ns).
fn cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn peak_rss_mib() -> f64 {
    ew_bench::mega::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// The timed run: a set-up sample and a repetition by turns until
/// `seconds` have been measured (at least three of each). Tracing is off.
///
/// A set-up sample builds the world from the seed and brings it up: a
/// repetition cut down to its start-up. Every full repetition pays that
/// again inside `wall_s`, so work moved into set-up still shows.
///
/// Both metrics report the fastest sample. Every sample of a run does the
/// same deterministic work, so samples differ only by what the shared host
/// adds, and that is never negative: the fastest one is the closest to the
/// program's own cost. (The first, cold pair is a sample like any other;
/// being slower, it is never the one reported.) Measured on the reference
/// box in a noisy hour, between runs of one commit: the median of a run's
/// repetitions spread 20–36 %, the fastest 8–27 %, and 8–11 % once a
/// repetition takes under a second (see the README).
pub fn timed_run(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> RunResult {
    let mut tr = Tracer::new(false);
    let mut failures = Vec::new();
    let mut failed = 0;
    let startup = sizes.startup();

    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Outcome> = None;
    while walls.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        std::hint::black_box(repetition(w, seed, &startup, &mut tr));
        setups.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let out = repetition(w, seed, sizes, &mut tr);
        walls.push(t0.elapsed().as_secs_f64());
        match &first {
            None => {
                failures.extend(check_outcome(w, sizes, &out));
                failed += u64::from(!failures.is_empty());
                first = Some(out);
            }
            Some(first) if out.fingerprint() != first.fingerprint() => {
                failed += 1;
                failures.push(format!(
                    "{}: repetition {} fingerprint {} differs from the first, {}",
                    w.name(),
                    walls.len(),
                    out.fingerprint(),
                    first.fingerprint()
                ));
            }
            Some(_) => {}
        }
    }
    let first = first.expect("the loop ran at least three repetitions");
    let measured_s = started.elapsed().as_secs_f64();
    let descheduled_pct = match (cpu0, cpu_seconds()) {
        (Some(c0), Some(c1)) => 100.0 * (1.0 - (c1 - c0) / measured_s).max(0.0),
        _ => 0.0,
    };
    let reps = walls.len();
    let walls_json = Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect());
    let wall_median = median(&mut walls);
    // `median` left the walls sorted.
    let (wall_s, wall_max) = (walls[0], walls[reps - 1]);
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let value = |name: &str| match name {
        "wall_s" => wall_s,
        "setup_s" => setup_s,
        "peak_rss_mib" => peak_rss_mib(),
        "sim_work_units" => first.work,
        "finished_pct" => first.finished_pct(),
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    RunResult {
        correct: failed == 0,
        attempted: reps as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
        info: Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(seed as f64)),
            ("fingerprint", Json::Str(first.fingerprint())),
            ("reps", Json::Num(reps as f64)),
            ("wall_median_s", Json::Num(wall_median)),
            ("wall_max_s", Json::Num(wall_max)),
            ("walls_s", walls_json),
            ("floor_gap_pct", Json::Num(floor_gap_pct(&walls))),
            ("descheduled_pct", Json::Num(descheduled_pct)),
            ("loadavg1", Json::Num(loadavg1())),
            ("noisy", Json::Bool(descheduled_pct > NOISY_DESCHEDULED_PCT)),
        ]),
        failures,
    }
}

/// The traced run: every probe, two untraced repetitions for a baseline,
/// then one repetition with spans on. Returns the result and the spans.
pub fn traced_run(w: Workload, seed: u64, sizes: &Sizes) -> (RunResult, Tracer) {
    let mut tr = Tracer::new(true);
    tr.enter("probes");
    let probe_values = probes::run_all(&mut tr);
    tr.exit();

    // The run.* diagnostics cover the repetitions, not the probes: the TCP
    // and farm probes wait on other threads by design.
    let cpu0 = cpu_seconds();
    let started = Instant::now();

    let mut off = Tracer::new(false);
    let mut failures = Vec::new();
    let mut untraced = Vec::new();
    let mut reference = String::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        let out = repetition(w, seed, sizes, &mut off);
        untraced.push(t0.elapsed().as_secs_f64());
        reference = out.fingerprint();
    }

    tr.enter("repetition");
    let t0 = Instant::now();
    let out = repetition(w, seed, sizes, &mut tr);
    let traced_wall = t0.elapsed().as_secs_f64();
    tr.exit();
    failures.extend(check_outcome(w, sizes, &out));
    if out.fingerprint() != reference {
        failures.push(format!(
            "{}: traced fingerprint {} differs from untraced {reference}",
            w.name(),
            out.fingerprint()
        ));
    }

    let measured = Measured {
        wall_s: traced_wall,
        setup_s: tr.total_s("build") + tr.total_s("spawn"),
        report_s: tr.total_s("report"),
    };
    let share_rows = shares(w, &out, &probe_values, &measured);
    if w == Workload::BulkFlow {
        let generator = 100.0 * out.generator_s / traced_wall;
        if generator >= 2.0 {
            failures.push(format!(
                "bulk_flow: load generators took {generator:.2} % of wall (want < 2)"
            ));
        }
    }

    let rep_spread = spread_pct(&untraced);
    // The first untraced repetition runs cold; the faster one is the fair
    // baseline for the traced one, which runs third.
    let untraced_wall = untraced.iter().copied().fold(f64::INFINITY, f64::min);
    let total_s = started.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, cpu_seconds()) {
        (Some(c0), Some(c1)) => c1 - c0,
        _ => 0.0,
    };
    let pool_hits = out.counter("net.payload_pool_hits");
    let pool_total = pool_hits + out.counter("net.payload_pool_misses");
    let inserts = out.events as f64
        + out.counter("kernel.timers_cancelled")
        + out.counter("net.flows_stale_deadlines");

    let value = |name: &str| -> f64 {
        if let Some(v) = probe_values.get(name) {
            return *v;
        }
        if let Some((_, v)) = share_rows.iter().find(|(n, _)| *n == name) {
            return *v;
        }
        match name {
            "sim.wheel.fast_insert_pct" => {
                100.0 * out.counter("kernel.insert_fast_path") / inserts.max(1.0)
            }
            "sim.wheel.cascades" => out.counter("kernel.wheel_cascades"),
            "sim.kernel.events" => out.events as f64,
            "sim.kernel.events_per_s" => out.events as f64 / untraced_wall,
            "sim.net.flow_reschedules" => out.counter("net.flows_reschedules"),
            "sim.net.messages" => out.counter("net.messages"),
            "sim.net.bytes" => out.counter("net.bytes"),
            "sim.payload.pool_hit_pct" => 100.0 * pool_hits / pool_total.max(1.0),
            "proto.rpc.retries" => out.counter("rpc.retries"),
            "proto.rpc.breaker_opens" => out.counter("rpc.breaker_open"),
            "forecast.nws_reports" => out.counter("nws.reports"),
            "gossip.polls" => out.counter("gossip.polls_ok"),
            "gossip.syncs" => out.counter("gossip.syncs_sent"),
            "sched.grants" => out.counter("sched.grants"),
            "sched.results" => out.counter("sched.results"),
            // Abandon directives the clients obeyed: each one migrates a unit.
            "sched.migrations" => out.counter("client.abandons"),
            "state.stores_ok" => out.counter("state.stores_ok"),
            "state.log_records" => out.counter("log.records"),
            "sc98.paper_err_pct" => out.paper_err_pct.unwrap_or(0.0),
            "chaos.fault_work_lost_pct" => out.fault_work_lost_pct.unwrap_or(0.0),
            "chaos.fault_recovery_sim_s" => out.fault_recovery_sim_s.unwrap_or(0.0),
            "run.cpu_s" => cpu_s,
            "run.rep_spread_pct" => rep_spread,
            "run.descheduled_pct" => 100.0 * (1.0 - cpu_s / total_s).max(0.0),
            "run.loadavg1" => loadavg1(),
            "run.span_overhead_pct" => 100.0 * (traced_wall - untraced_wall) / untraced_wall,
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    let result = RunResult {
        correct: failures.is_empty(),
        attempted: 3,
        failed: u64::from(!failures.is_empty()),
        metrics,
        info: Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(seed as f64)),
            ("fingerprint", Json::Str(out.fingerprint())),
            ("untraced_wall_s", Json::Num(untraced_wall)),
            ("traced_wall_s", Json::Num(traced_wall)),
        ]),
        failures,
    };
    (result, tr)
}
