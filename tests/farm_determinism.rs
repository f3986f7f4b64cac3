//! Thread-count invariance: every artifact the sim farm produces must be
//! byte-identical whether it was computed on 1, 2, or 8 workers (PR 4's
//! determinism contract). Cells are isolated simulations keyed only by
//! their input index, and results are merged in canonical input order, so
//! scheduling can never leak into the output.

use ew_bench::experiments::timeout_ablation;
use ew_chaos::{
    campaign_json, run_campaign_threads, scaling_json, summary_json, summary_stem, CampaignConfig,
};
use ew_sim::SimDuration;
use ew_workload::WorkloadSpec;

/// Render the full set of campaign artifacts exactly as `figures -- chaos`
/// writes them: every `chaos_*.json` payload plus the campaign summary
/// (`chaos_summary.json` for ramsey, `chaos_<name>_summary.json`
/// otherwise), as one pretty-printed string.
fn campaign_artifacts(cfg: &CampaignConfig, reports: &[ew_chaos::PlanReport]) -> String {
    let mut out = String::new();
    for (name, value) in campaign_json(cfg, reports) {
        out.push_str(&name);
        out.push('\n');
        out.push_str(&serde_json::to_string_pretty(&value).unwrap());
        out.push('\n');
    }
    out.push_str(&summary_stem(cfg));
    out.push('\n');
    out.push_str(&serde_json::to_string_pretty(&summary_json(cfg, reports)).unwrap());
    out
}

#[test]
fn chaos_campaign_is_byte_identical_across_thread_counts() {
    let cfg = CampaignConfig::standard(7, true);
    let base = run_campaign_threads(&cfg, 1);
    let reference = campaign_artifacts(&cfg, &base.reports);
    assert!(!reference.is_empty());
    assert_eq!(base.stats.threads, 1);
    // Per seed: two no-fault reference cells plus an adaptive and a
    // static cell for every plan.
    assert_eq!(
        base.stats.cells,
        2 * cfg.seeds.len() + 2 * base.reports.len()
    );

    for threads in [2, 8] {
        let run = run_campaign_threads(&cfg, threads);
        assert_eq!(
            campaign_artifacts(&cfg, &run.reports),
            reference,
            "campaign artifacts diverged at {threads} threads"
        );
        // The farm clamps to the cell count but never below the request
        // when there is enough work.
        assert_eq!(run.stats.threads, threads.min(run.stats.cells));
        assert_eq!(run.stats.cells, base.stats.cells);
    }
}

#[test]
fn dag_campaign_is_byte_identical_across_thread_counts() {
    // The exact configuration `figures -- chaos --short --workload dag`
    // runs: every chaos_dag_*.json payload plus chaos_dag_summary.json must
    // not depend on the worker count.
    let cfg =
        CampaignConfig::standard(1998, true).with_workload(WorkloadSpec::by_name("dag").unwrap());
    let base = run_campaign_threads(&cfg, 1);
    let reference = campaign_artifacts(&cfg, &base.reports);
    assert!(!reference.is_empty());
    assert!(
        reference.contains("\"workload\": \"dag\""),
        "dag artifacts are tagged with their workload"
    );
    assert!(reference.contains("chaos_dag_summary"));
    let run = run_campaign_threads(&cfg, 4);
    assert_eq!(
        campaign_artifacts(&cfg, &run.reports),
        reference,
        "dag campaign artifacts diverged at 4 threads"
    );
}

#[test]
fn workload_scaling_figures_are_byte_identical_across_thread_counts() {
    let horizon = SimDuration::from_secs(600);
    for name in ["dag", "faas"] {
        let spec = WorkloadSpec::by_name(name).unwrap();
        let seq = serde_json::to_string_pretty(&scaling_json(&spec, 1998, horizon, 1)).unwrap();
        let par = serde_json::to_string_pretty(&scaling_json(&spec, 1998, horizon, 4)).unwrap();
        assert_eq!(seq, par, "{name} scaling figure diverged at 4 threads");
        assert!(seq.contains(&format!("\"workload\": \"{name}\"")));
    }
}

#[test]
fn campaign_telemetry_merge_is_thread_invariant() {
    let cfg = CampaignConfig::standard(11, true);
    let render = |run: &ew_chaos::CampaignRun| -> String {
        // Wall-clock and worker count are host facts, not simulation
        // output; everything else merged from the cells must match.
        run.telemetry
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("farm."))
            .map(|(name, v)| format!("{name}={v}\n"))
            .collect()
    };
    let seq = run_campaign_threads(&cfg, 1);
    let par = run_campaign_threads(&cfg, 4);
    assert_eq!(render(&seq), render(&par));
    assert!(!seq.telemetry.counters().is_empty());
}

#[test]
fn timeout_ablation_is_byte_identical_across_thread_counts() {
    let duration = SimDuration::from_secs(400);
    let render = |threads: usize| -> String {
        let r = timeout_ablation(3, duration, threads);
        format!(
            "static ok={} to={} dynamic ok={} to={}",
            r.static_arm.polls_ok,
            r.static_arm.polls_timed_out,
            r.dynamic_arm.polls_ok,
            r.dynamic_arm.polls_timed_out
        )
    };
    let reference = render(1);
    for threads in [2, 8] {
        assert_eq!(render(threads), reference, "diverged at {threads} threads");
    }
}
