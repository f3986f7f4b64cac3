//! # ew-chaos — deterministic fault-injection campaigns
//!
//! EveryWare's claim is not that the Grid was reliable — §4 and §5 are a
//! catalogue of everything that failed during SC98: Condor reclaiming
//! machines en masse, schedulers killed mid-run, the show-floor network
//! saturating during judging, WAN links flapping. The claim is that the
//! application *kept finishing Ramsey work anyway*. This crate turns that
//! claim into a regression suite:
//!
//! * [`plan`] — a declarative, seed-deterministic **fault-plan DSL**
//!   ([`FaultPlan`]) whose operations (host crash/restart, mass
//!   reclamation, availability churn, site partition/heal, delay spikes,
//!   message drop/duplication) compile onto the kernel's existing
//!   [`AvailabilitySchedule`](ew_sim::AvailabilitySchedule),
//!   [`Partition`](ew_sim::Partition), and
//!   [`Impairment`](ew_sim::Impairment) primitives;
//! * [`campaign`] — a **campaign runner** ([`run_campaign`]) sweeping
//!   plans × seeds over a three-site deployment, A/B-comparing the
//!   unified adaptive retry/breaker stack against the §2.2 static
//!   time-out baseline, and emitting work-lost, recovery-time, and
//!   availability-SLO series as the `results/chaos_*.json` artifacts
//!   behind `figures -- chaos`.
//!
//! Everything is deterministic: the same campaign config produces
//! byte-identical JSON, which is what lets CI diff two runs as a
//! determinism gate.

#![warn(missing_docs)]

pub mod campaign;
pub mod plan;

pub use campaign::{
    campaign_json, run_campaign, run_campaign_threads, scaling_json, summary_json, summary_stem,
    CampaignConfig, CampaignRun, PlanReport, N_COMPUTE, SCALING_POOLS,
};
pub use plan::{standard_plans, FaultPlan, SiteRole};
