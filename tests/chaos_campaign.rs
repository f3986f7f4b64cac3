//! Chaos-campaign acceptance tests (PR 3).
//!
//! * the fault-plan DSL compiles seed-deterministically,
//! * `exponential_churn` availability composes correctly with
//!   `Partition` overlap windows, at the primitive level and end-to-end,
//! * under the `mass-reclamation` plan the migrated adaptive
//!   retry/breaker stack loses < 5 % of completed Ramsey work units
//!   vs. the no-fault run while the §2.2 static-time-out baseline loses
//!   measurably more,
//! * the campaign emits byte-identical JSON run to run (the CI
//!   determinism gate for `figures -- chaos`).

use ew_chaos::{
    campaign_json, run_campaign_threads, standard_plans, CampaignConfig, FaultPlan, SiteRole,
};
use ew_ramsey::RamseyProblem;
use ew_sim::{
    resolve_threads, AvailabilitySchedule, Partition, SimDuration, SimTime, SiteId, Xoshiro256,
};
use ew_workload::WorkloadSpec;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[test]
fn standard_plans_compile_deterministically() {
    for plan in standard_plans() {
        let a = plan.compile(1998, dur(1800), 8);
        let b = plan.compile(1998, dur(1800), 8);
        assert_eq!(a, b, "plan {} must compile reproducibly", plan.name);
        assert!(a.faults_injected > 0, "plan {} injects nothing", plan.name);
    }
}

#[test]
fn churn_composes_with_partition_overlap_windows() {
    // A churned host behind a partitioned site is reachable only when
    // BOTH the availability schedule says "up" AND the partition window
    // does not cut the path — the two primitives compose independently.
    let mut rng = Xoshiro256::seed_from_u64(11);
    let sched =
        AvailabilitySchedule::exponential_churn(&mut rng, dur(1800), dur(200), dur(60), true);
    let part = Partition {
        a: SiteId(1),
        b: None,
        from: secs(400),
        until: secs(900),
    };

    let mut up_and_cut = 0;
    let mut up_and_clear = 0;
    let mut down_in_window = 0;
    for s in 0..1800 {
        let t = secs(s);
        let up = sched.is_up_at(t);
        let cut = part.cuts(SiteId(1), SiteId(0), t);
        // The partition window itself must be exact.
        assert_eq!(cut, (400..900).contains(&s), "window edge at t={s}");
        match (up, cut) {
            (true, true) => up_and_cut += 1,
            (true, false) => up_and_clear += 1,
            (false, true) => down_in_window += 1,
            (false, false) => {}
        }
    }
    // With mean-up 200 s / mean-down 60 s over a 500 s window, all three
    // interesting overlap cases must actually occur.
    assert!(up_and_cut > 0, "never saw an up host behind the partition");
    assert!(up_and_clear > 0, "never saw an up host with a clear path");
    assert!(down_in_window > 0, "never saw churn-down inside the window");
}

#[test]
fn churn_plus_partition_world_keeps_finishing_work() {
    // End-to-end composition: hosts churn while the pool site is also cut
    // off for 200 s. The deployment must survive both at once and keep
    // completing units (checkpoint/resume + supervisor respawns + retry
    // layer), and the plan must count both fault sources.
    let plan = FaultPlan::new("churn-plus-partition")
        .churn_compute(dur(300), dur(60))
        .partition(SiteRole::Pool, None, secs(300), secs(500));
    let compiled = plan.compile(7, dur(900), 8);
    assert!(
        compiled.faults_injected > 1 + 8,
        "expected churn transitions on 8 hosts plus the partition, got {}",
        compiled.faults_injected
    );
    let cfg = CampaignConfig {
        seeds: vec![7],
        horizon: dur(900),
        plans: vec![plan],
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
    };
    let reports = run_campaign_threads(&cfg, resolve_threads(None)).reports;
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert!(
        r.adaptive.units > 0,
        "no work finished under churn+partition"
    );
    assert!(
        r.adaptive.units < r.baseline_adaptive_units,
        "churn+partition should cost some units ({} vs baseline {})",
        r.adaptive.units,
        r.baseline_adaptive_units
    );
}

#[test]
fn mass_reclamation_ab_meets_the_acceptance_bound() {
    let plan = standard_plans()
        .into_iter()
        .find(|p| p.name == "mass-reclamation")
        .expect("standard plans include mass-reclamation");
    let cfg = CampaignConfig {
        seeds: vec![1998],
        horizon: dur(1800),
        plans: vec![plan],
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
    };
    let r = &run_campaign_threads(&cfg, resolve_threads(None)).reports[0];
    assert!(
        r.adaptive.work_lost_pct < 5.0,
        "adaptive stack lost {:.2}% (must stay < 5%)",
        r.adaptive.work_lost_pct
    );
    assert!(
        r.static_baseline.work_lost_pct > r.adaptive.work_lost_pct + 5.0,
        "static baseline ({:.2}%) must lose measurably more than adaptive ({:.2}%)",
        r.static_baseline.work_lost_pct,
        r.adaptive.work_lost_pct
    );
    // The adaptive arm's machinery actually engaged.
    assert!(r.adaptive.retries > 0, "no retries recorded");
    assert!(r.adaptive.breaker_opens > 0, "breaker never opened");
    assert_eq!(r.faults_injected, 5, "4 evictions + 1 spike");
    // And throughput came back after the faults cleared.
    assert!(
        r.adaptive.recovery_secs.is_some(),
        "throughput never recovered to 80% of the no-fault mean"
    );
}

#[test]
fn campaign_json_is_byte_identical_run_to_run() {
    let cfg = CampaignConfig {
        seeds: vec![1998],
        horizon: dur(900),
        plans: standard_plans()
            .into_iter()
            .filter(|p| p.name == "mass-reclamation" || p.name == "flaky-network")
            .collect(),
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
    };
    let render = || -> Vec<(String, String)> {
        let reports = run_campaign_threads(&cfg, resolve_threads(None)).reports;
        campaign_json(&cfg, &reports)
            .into_iter()
            .map(|(name, v)| (name, serde_json::to_string_pretty(&v).unwrap()))
            .collect()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "same seed must produce byte-identical chaos JSON");
    assert_eq!(a.len(), 2);
    assert!(a[0].0.starts_with("chaos_"));
}
