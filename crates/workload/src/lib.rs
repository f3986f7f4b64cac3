//! # ew-workload — the application contract of the EveryWare toolkit
//!
//! The paper's claim is that EveryWare is a *toolkit*: the Ramsey search
//! is just the application that happened to win the SC98 HPC Challenge.
//! This crate makes that claim real again. The [`Workload`] trait is the
//! entire application-facing API of the scheduling plane — unit
//! generation, execution cost, migration, stall handling, result
//! verification, and a progress metric — and the schedulers, clients,
//! state manager, and figures deployments program against it, never
//! against Ramsey types.
//!
//! Three applications ship here:
//!
//! * [`ramsey::RamseyWorkload`] — the SC98 counter-example search,
//!   reproducing the pre-trait behaviour byte for byte;
//! * [`dag::DagWorkload`] — a workflow of dependency-gated tasks, issued
//!   in critical-path order;
//! * [`faas::FaasWorkload`] — bursty serverless invocations with
//!   cold-start costs and idle reclamation.
//!
//! ## Determinism obligations for implementors
//!
//! Everything the simulator touches must be a pure function of the
//! constructor inputs and the call sequence. Concretely: derive all
//! randomness from the salt (and a constant seed of the module) via
//! [`Xoshiro256`]; never iterate a `HashMap`/`HashSet` (lookups are
//! fine); and keep `generate`/`on_result` free of wall-clock, I/O, and
//! global state.
//! DESIGN.md §11 spells out the full contract.
//!
//! [`Xoshiro256`]: ew_sim::Xoshiro256

#![warn(missing_docs)]

pub mod dag;
pub mod faas;
pub mod ramsey;
pub mod unit;

use ew_ramsey::RamseyProblem;
use ew_sim::SimTime;
use ew_state::Validator;

pub use dag::DagWorkload;
pub use faas::FaasWorkload;
pub use ramsey::{execute_unit, ramsey_validator, RamseyWorkload};
pub use unit::{ExecStats, WorkResult, WorkUnit};

/// An application the EveryWare scheduling plane can run.
///
/// Each scheduler replica owns an independent instance (diversified by a
/// seed salt); the compute client owns one for executing units and
/// synthesizing reports, and shares it with the pure-job pool that runs
/// them (hence `Sync`). All methods are deterministic given the
/// construction inputs and call sequence — see the crate docs.
pub trait Workload: Send + Sync {
    /// Short stable name; used in artifact keys, figure stems, and CLI
    /// selection.
    fn name(&self) -> &'static str;

    /// Produce the next unit for `client`, or `None` if no work is
    /// available right now (dependencies unmet, nothing has arrived).
    /// `id` is the scheduler-unique unit id to stamp into the unit; it is
    /// consumed only when `Some` is returned. `step_budget` is the
    /// scheduler's configured default budget, which supply-driven
    /// workloads may ignore in favour of their own cost model.
    fn generate(
        &mut self,
        id: u64,
        now: SimTime,
        client: u64,
        step_budget: u64,
    ) -> Option<WorkUnit>;

    /// Whether the scheduler should scale this workload's budgets by the
    /// client's forecast rate (the §3.1.1 allotment policy). Cost-model
    /// workloads (DAG task sizes, faas cold starts) keep their own
    /// budgets.
    fn rate_scaled_budgets(&self) -> bool {
        false
    }

    /// A completed unit's result arrived. Unlocks successors, advances
    /// progress — whatever the application needs to record.
    fn on_result(&mut self, _result: &WorkResult) {}

    /// The variant to switch a stalled client to, or `None` if this
    /// workload has no variant rotation.
    fn next_variant(&self, _current: u8) -> Option<u8> {
        None
    }

    /// Rebuild a unit for migration to another client: same identity and
    /// arguments, the stalling holder's `variant`, the reported resume
    /// state as payload, and a fresh budget.
    fn remake(&self, unit: &WorkUnit, variant: u8, carry: Vec<u8>, step_budget: u64) -> WorkUnit {
        WorkUnit {
            id: unit.id,
            arg0: unit.arg0,
            arg1: unit.arg1,
            variant,
            seed: unit.id ^ 0xABCD,
            step_budget,
            payload: carry,
        }
    }

    /// Really execute a unit (`execute_real` clients). The result must be
    /// a function of `unit` alone: the client runs it on a pure-job pool
    /// worker (`ew_sim::spawn_pure`) while the simulation advances, and
    /// takes it when the unit completes. The default is the synthetic
    /// model: the budget is consumed and progress follows
    /// [`synth_progress`].
    ///
    /// [`synth_progress`]: Workload::synth_progress
    fn execute(&self, unit: &WorkUnit) -> (WorkResult, ExecStats) {
        (
            self.synth_result(unit, unit.step_budget, unit.step_budget),
            ExecStats::default(),
        )
    }

    /// The synthetic progress curve for simulated (non-real) execution:
    /// an objective that improves with invested steps. Must be monotone
    /// non-increasing so stall detection behaves.
    fn synth_progress(&self, steps: u64) -> u64 {
        1 + 1000 / (1 + steps / 200)
    }

    /// Assemble a synthetic result for a unit the simulation "ran" for
    /// `steps`/`ops` without doing real math.
    fn synth_result(&self, unit: &WorkUnit, steps: u64, ops: u64) -> WorkResult {
        WorkResult {
            unit_id: unit.id,
            steps,
            ops,
            progress: self.synth_progress(steps),
            artifact: Vec::new(),
            carry: unit.payload.clone(),
        }
    }

    /// Persistent-state key under which a unit's artifact is stored.
    fn artifact_key(&self, unit: &WorkUnit) -> String {
        format!("{}/artifact/{}", self.name(), unit.id)
    }

    /// Fraction of the workload completed, if it is finite.
    fn progress(&self) -> Option<f64> {
        None
    }
}

/// A buildable workload description — the configuration-side selector
/// that travels inside `SchedulerConfig`/`ClientConfig`, not on the wire.
/// It only names the application (and Ramsey's problem): each model's
/// parameters are constants of its module.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The Ramsey counter-example search on one problem.
    Ramsey(RamseyProblem),
    /// The DAG workflow.
    Dag,
    /// The bursty serverless stream.
    Faas,
}

impl Default for WorkloadSpec {
    /// The SC98 target: R(5) on 43 vertices.
    fn default() -> Self {
        WorkloadSpec::Ramsey(RamseyProblem { k: 5, n: 43 })
    }
}

impl WorkloadSpec {
    /// Ramsey on a specific problem — the shape every pre-trait
    /// `SchedulerConfig { problem, .. }` literal maps onto.
    pub fn ramsey(problem: RamseyProblem) -> Self {
        WorkloadSpec::Ramsey(problem)
    }

    /// The workload's short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Ramsey(_) => "ramsey",
            WorkloadSpec::Dag => "dag",
            WorkloadSpec::Faas => "faas",
        }
    }

    /// The spec by name (the `--workload` CLI selector); `ramsey` is the
    /// default problem.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        match name {
            "ramsey" => Some(WorkloadSpec::default()),
            "dag" => Some(WorkloadSpec::Dag),
            "faas" => Some(WorkloadSpec::Faas),
            _ => None,
        }
    }

    /// Instantiate the workload. `salt` diversifies scheduler replicas.
    pub fn build(&self, salt: u64) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Ramsey(problem) => Box::new(RamseyWorkload::new(*problem, salt)),
            WorkloadSpec::Dag => Box::new(DagWorkload::new(salt)),
            WorkloadSpec::Faas => Box::new(FaasWorkload::new(salt)),
        }
    }

    /// The persistent-state validator guarding this workload's artifact
    /// class, if it defines one.
    pub fn validator(&self) -> Option<(u16, Validator)> {
        match self {
            WorkloadSpec::Ramsey(_) => Some((1, ramsey_validator())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_names() {
        for name in ["ramsey", "dag", "faas"] {
            let spec = WorkloadSpec::by_name(name).unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.build(0).name(), name);
        }
        assert!(WorkloadSpec::by_name("tsp").is_none());
    }

    #[test]
    fn default_spec_matches_the_legacy_scheduler_default() {
        assert_eq!(
            WorkloadSpec::default(),
            WorkloadSpec::Ramsey(RamseyProblem { k: 5, n: 43 })
        );
    }

    #[test]
    fn default_remake_reproduces_the_legacy_migration_unit() {
        let spec = WorkloadSpec::default();
        let mut w = spec.build(0);
        let unit = w.generate(5, SimTime::ZERO, 1, 2_000).unwrap();
        let remade = w.remake(&unit, 2, vec![9, 9], 2_000);
        assert_eq!(remade.id, 5);
        assert_eq!(remade.arg0, unit.arg0);
        assert_eq!(remade.arg1, unit.arg1);
        assert_eq!(remade.variant, 2);
        assert_eq!(remade.seed, 5 ^ 0xABCD);
        assert_eq!(remade.step_budget, 2_000);
        assert_eq!(remade.payload, vec![9, 9]);
    }

    #[test]
    fn only_ramsey_registers_a_validator() {
        assert!(WorkloadSpec::by_name("ramsey")
            .unwrap()
            .validator()
            .is_some());
        assert!(WorkloadSpec::by_name("dag").unwrap().validator().is_none());
        assert!(WorkloadSpec::by_name("faas").unwrap().validator().is_none());
    }

    #[test]
    fn synthetic_model_matches_the_legacy_client_curve() {
        let w = WorkloadSpec::default().build(0);
        // The exact `1 + 1000/(1 + steps/200)` curve the old client
        // hardcoded in two places.
        assert_eq!(w.synth_progress(0), 1001);
        assert_eq!(w.synth_progress(200), 501);
        assert_eq!(w.synth_progress(2_000), 91);
        let unit = WorkUnit {
            id: 3,
            payload: vec![1],
            ..WorkUnit::default()
        };
        let r = w.synth_result(&unit, 400, 4_000_000);
        assert_eq!(r.unit_id, 3);
        assert_eq!(r.steps, 400);
        assert_eq!(r.ops, 4_000_000);
        assert_eq!(r.progress, 1 + 1000 / 3);
        assert!(r.artifact.is_empty());
        assert_eq!(r.carry, vec![1]);
    }
}
