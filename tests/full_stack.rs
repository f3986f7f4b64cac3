//! Full-stack integration: the SC98 deployment, end to end, across every
//! crate — simulator, lingua franca, forecasting, gossip, scheduling,
//! persistent state, infrastructure models, and the experiment driver.

use everyware::{mean, run_sc98, Sc98Config};
use ew_sim::SimDuration;

fn short_cfg(seed: u64) -> Sc98Config {
    Sc98Config {
        seed,
        duration: SimDuration::from_secs(2400),
        judging: false,
        ..Sc98Config::default()
    }
}

#[test]
fn all_seven_infrastructures_deliver_power() {
    let rep = run_sc98(&short_cfg(11));
    assert_eq!(rep.per_infra.len(), 7);
    for (name, series) in &rep.per_infra {
        assert!(
            series.iter().map(|p| p.value).sum::<f64>() > 0.0,
            "{name} delivered no ops"
        );
    }
    // Host counts were sampled for every infrastructure.
    for (name, series) in &rep.host_counts {
        assert!(
            series.iter().any(|p| p.value > 0.0),
            "{name} never had live hosts"
        );
    }
}

#[test]
fn infrastructure_ordering_matches_figure_4a() {
    let rep = run_sc98(&short_cfg(12));
    let m = |n: &str| mean(&rep.per_infra[n]);
    let ordering = [
        ("unix", "nt"),
        ("nt", "condor"),
        ("condor", "globus"),
        ("globus", "legion"),
        ("legion", "netsolve"),
        ("netsolve", "java"),
    ];
    for (a, b) in ordering {
        assert!(
            m(a) > m(b),
            "{a} ({:.3e}) should out-deliver {b} ({:.3e})",
            m(a),
            m(b)
        );
    }
    // Five-ish orders of magnitude between the extremes (Figure 4a).
    assert!(m("unix") / m("java") > 1e2);
}

#[test]
fn total_power_is_drawn_consistently() {
    let rep = run_sc98(&short_cfg(13));
    // §4.2: the total is smoother than the constituents. Condor and Java
    // churn hard; the total must have a much smaller CoV than either.
    assert!(rep.cov_total < 0.35, "total CoV {:.3}", rep.cov_total);
    assert!(
        rep.cov_per_infra["java"] > rep.cov_total,
        "java CoV {:.3} vs total {:.3}",
        rep.cov_per_infra["java"],
        rep.cov_total
    );
}

#[test]
fn grid_machinery_was_exercised() {
    let rep = run_sc98(&short_cfg(14));
    // The run is not a straight-line simulation: hosts churned, clients
    // died and respawned, work flowed through schedulers, the gossip pool
    // formed and stayed whole.
    assert!(rep.counters["hosts.went_down"] > 0.0, "churn happened");
    assert!(rep.counters["procs.killed_by_host_down"] > 0.0);
    assert!(rep.counters["sched.completed_units"] > 50.0);
    assert!(rep.counters["sched.reports"] > 100.0);
    assert_eq!(rep.counters["gossip.final_clique_size"], 3.0);
    assert!(rep.counters["net.messages"] > 1000.0);
    // The NWS measured the service mesh and the logging service recorded
    // the performance reports the schedulers forwarded (§3.1.3).
    assert!(rep.counters["nws.probes_ok"] > 100.0);
    assert!(rep.counters["nws.reports"] > 100.0);
    assert!(
        rep.counters["nws.resources_tracked"] >= 30.0,
        "6 sensors x (5 rtt + 1 cpu) streams: {}",
        rep.counters["nws.resources_tracked"]
    );
    assert!(
        rep.counters["log.records"] > 1000.0,
        "per-report records reached the log server: {}",
        rep.counters["log.records"]
    );
}

#[test]
fn judging_spike_produces_figure_2_shape() {
    // Compress the timeline: 100-minute run with the spike injected by the
    // infra builder at the standard offsets requires the full window, so
    // instead compare a spiked full-speed hour against a calm one by
    // driving the real config with a shifted window: run the true 12-hour
    // experiment only when figures are regenerated; here we verify the
    // mechanism — contention cuts delivered rate — via the pool test knobs.
    use ew_infra::{build_sc98, JudgingSpike};
    use ew_sim::SimTime;
    let horizon = SimDuration::from_secs(3600);
    let spike = JudgingSpike {
        start: SimTime::from_secs(1800),
        end: SimTime::from_secs(2400),
        level: 0.55,
    };
    let pool = build_sc98(5, horizon, Some(spike));
    let unix = pool.infra.iter().find(|b| b.name == "unix").unwrap();
    let mut calm = 0.0;
    let mut contended = 0.0;
    for &h in &unix.hosts {
        calm += pool.hosts.get(h).effective_rate(SimTime::from_secs(900));
        contended += pool.hosts.get(h).effective_rate(SimTime::from_secs(2100));
    }
    assert!(
        contended < 0.6 * calm,
        "judging contention must cut unix capacity: {calm:.3e} -> {contended:.3e}"
    );
    // And the residual tail (post-spike) sits between the two.
    let mut residual = 0.0;
    for &h in &unix.hosts {
        residual += pool.hosts.get(h).effective_rate(SimTime::from_secs(3000));
    }
    assert!(residual > contended && residual < calm * 1.01);
}

#[test]
fn every_scheduler_conserves_its_units() {
    // A unit issued by a scheduler is completed or still held (executing
    // or migrating), and an unmatched RESULT completes nothing. Release
    // builds skip the table's debug assertion; this checks the tallies.
    let rep = run_sc98(&short_cfg(15));
    assert_eq!(rep.units.len(), 3, "one tally per pool scheduler");
    for (i, u) in rep.units.iter().enumerate() {
        assert!(u.issued > 0 && u.held > 0, "scheduler {i}: {u:?}");
        assert_eq!(
            u.issued + u.illegal,
            u.results + u.held,
            "scheduler {i}: {u:?}"
        );
    }
}

#[test]
fn a_scheduler_inside_condor_on_a_down_host_never_starts() {
    // At seed 2 the §5.4 scheduler's Condor host is down when its
    // `Started` comes due; requests that reach it after the host returns
    // must find a dead process, not an unstarted handler.
    let rep = run_sc98(&Sc98Config {
        seed: 2,
        duration: SimDuration::from_secs(7200),
        judging: false,
        condor_scheduler_inside: true,
        ..Sc98Config::default()
    });
    assert!(rep.counters["sched.completed_units"] > 0.0);
    for u in &rep.units {
        assert_eq!(u.issued + u.illegal, u.results + u.held, "{u:?}");
    }
}

#[test]
fn deterministic_end_to_end() {
    let a = run_sc98(&short_cfg(99));
    let b = run_sc98(&short_cfg(99));
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.counters, b.counters);
    let c = run_sc98(&short_cfg(100));
    assert_ne!(a.total_ops, c.total_ops, "different seeds differ");
}
