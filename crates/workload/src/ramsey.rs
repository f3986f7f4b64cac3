//! The Ramsey counter-example search as a [`Workload`] — the application
//! that won the SC98 HPC Challenge, now just the first plugin.
//!
//! Unit generation, budget scaling, heuristic switching, migration and
//! artifact storage reproduce the pre-trait scheduler/client behaviour
//! formula for formula, so every figure, chaos and bench artifact stays
//! byte-identical.

use ew_ramsey::{
    heuristic_by_kind, run_search, verify_counter_example, ColoredGraph, KernelStats, OpsCounter,
    RamseyProblem, SearchState, Verification,
};
use ew_sim::{SimTime, Xoshiro256};
use ew_state::Validator;

use crate::unit::{ExecStats, WorkResult, WorkUnit};
use crate::Workload;

/// Heuristic kinds to rotate through when issuing fresh units, and to
/// switch stalled clients between (§3.1.1's "switch heuristic"
/// directive): greedy, tabu, annealing.
const HEURISTICS: [u8; 3] = [0, 1, 2];

/// The Ramsey search: an infinite supply of seeded random restarts over
/// one problem, rotating heuristics per unit id.
#[derive(Debug)]
pub struct RamseyWorkload {
    problem: RamseyProblem,
    salt: u64,
}

impl RamseyWorkload {
    /// Build a workload instance for `problem`; `salt` diversifies unit
    /// seeds between scheduler replicas exactly as the old `seed_salt` did.
    pub fn new(problem: RamseyProblem, salt: u64) -> Self {
        RamseyWorkload { problem, salt }
    }
}

impl Workload for RamseyWorkload {
    fn name(&self) -> &'static str {
        "ramsey"
    }

    fn generate(
        &mut self,
        id: u64,
        _now: SimTime,
        _client: u64,
        step_budget: u64,
    ) -> Option<WorkUnit> {
        Some(WorkUnit {
            id,
            arg0: self.problem.k,
            arg1: self.problem.n,
            variant: HEURISTICS[id as usize % HEURISTICS.len()],
            seed: self
                .salt
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id),
            step_budget,
            payload: Vec::new(),
        })
    }

    fn rate_scaled_budgets(&self) -> bool {
        true
    }

    fn next_variant(&self, current: u8) -> Option<u8> {
        let pos = HEURISTICS.iter().position(|&h| h == current).unwrap_or(0);
        Some(HEURISTICS[(pos + 1) % HEURISTICS.len()])
    }

    fn execute(&self, unit: &WorkUnit) -> (WorkResult, ExecStats) {
        let (result, stats) = execute_unit(unit);
        (result, exec_stats(&stats))
    }

    fn artifact_key(&self, unit: &WorkUnit) -> String {
        format!("ramsey/best/{}", unit.arg0)
    }
}

/// Map the Ramsey kernel counters onto the generic [`ExecStats`].
fn exec_stats(stats: &KernelStats) -> ExecStats {
    ExecStats {
        cache_lookups: stats.table_lookups,
        cache_mutations: stats.table_flips,
        cache_refreshed: stats.entries_refreshed,
        workspace_bytes: stats.workspace_bytes,
        cache_bytes: stats.table_bytes,
    }
}

/// Execute a Ramsey work unit to completion on the calling thread. This
/// is the real computation the simulated clients model and the live
/// examples run. Every flip delta is a read of the search state's
/// incremental delta table, and the kernel counters are reported for
/// `ramsey.*` telemetry.
///
/// The unit comes off the wire (a scheduler's `WorkGrant`), so it is
/// checked here, once: `k >= 2` and `1 <= n <=`
/// [`ColoredGraph::MAX_VERTICES`], else the answer is a zero-step, zero-op
/// result with empty `artifact` and `carry` and the worst `progress`. A
/// shipped graph that does not decode, or whose header names a vertex
/// count other than `n`, is a corrupt payload: the search starts from the
/// seeded random coloring instead (and the foreign graph is never built).
pub fn execute_unit(unit: &WorkUnit) -> (WorkResult, KernelStats) {
    let (k, n) = (unit.arg0 as usize, unit.arg1 as usize);
    if k < 2 || !(1..=ColoredGraph::MAX_VERTICES).contains(&n) {
        let refused = WorkResult {
            unit_id: unit.id,
            // Lower is better: a refusal must never read as the best state.
            progress: u64::MAX,
            ..WorkResult::default()
        };
        return (refused, KernelStats::default());
    }
    let mut rng = Xoshiro256::seed_from_u64(unit.seed);
    let header_names_n = unit.payload.get(..4) == Some(&unit.arg1.to_be_bytes()[..]);
    let start = header_names_n
        .then(|| ColoredGraph::from_bytes(&unit.payload))
        .flatten()
        .unwrap_or_else(|| ColoredGraph::random(n, &mut rng));
    // No clique is larger than the graph: every `k > n` is the same
    // (already solved) problem as `k = n + 1`, whose workspace is bounded.
    let mut state = SearchState::new(start, k.min(n + 1));
    let mut heuristic = heuristic_by_kind(unit.variant);
    let report = run_search(&mut state, heuristic.as_mut(), &mut rng, unit.step_budget);
    let result = WorkResult {
        unit_id: unit.id,
        steps: report.steps,
        ops: report.ops,
        progress: report.best_count,
        artifact: report
            .counter_example
            .map(|g| g.to_bytes())
            .unwrap_or_default(),
        carry: state.graph().to_bytes(),
    };
    (result, state.kernel_stats())
}

/// The persistent-state validator for Ramsey artifacts: re-count the
/// cliques before accepting a claimed counter-example (§3.1.2's
/// "state the application trusts").
pub fn ramsey_validator() -> Validator {
    Box::new(|key: &str, bytes: &[u8]| {
        let k: usize = key
            .rsplit('/')
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("key {key:?} does not end in a clique size"))?;
        // The key comes off the wire; the counting kernels assert `k >= 2`.
        if k < 2 {
            return Err(format!("key {key:?} names a clique size below 2"));
        }
        let g = ColoredGraph::from_bytes(bytes).ok_or("value is not a colored graph")?;
        // A graph with fewer than `k` vertices holds no `k`-clique at all:
        // accepting it would let a trivial graph replace a real witness.
        if g.n() < k {
            return Err(format!(
                "graph has {} vertices, fewer than the clique size {k}",
                g.n()
            ));
        }
        let mut ops = OpsCounter::new();
        match verify_counter_example(&g, k, &mut ops) {
            Verification::Valid { .. } => Ok(()),
            Verification::Invalid { violations } => Err(format!(
                "graph contains {violations} monochromatic {k}-cliques"
            )),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(k: u32, n: u32, variant: u8, steps: u64) -> WorkUnit {
        WorkUnit {
            id: 1,
            arg0: k,
            arg1: n,
            variant,
            seed: 99,
            step_budget: steps,
            payload: Vec::new(),
        }
    }

    #[test]
    fn executing_easy_unit_finds_verified_counter_example() {
        let (r, stats) = execute_unit(&unit(3, 5, 1, 1000));
        assert!(!r.artifact.is_empty(), "R(3)>5 witness should be found");
        let g = ColoredGraph::from_bytes(&r.artifact).unwrap();
        let mut ops = OpsCounter::new();
        assert!(matches!(
            verify_counter_example(&g, 3, &mut ops),
            Verification::Valid { n: 5, .. }
        ));
        assert!(r.ops > 0);
        assert!(r.steps <= 1000);
        assert!(stats.table_lookups > 0);
    }

    #[test]
    fn budget_exhaustion_reports_partial_progress() {
        // 2 steps on a hard instance: no solution, but progress fields set.
        let (r, _) = execute_unit(&unit(5, 43, 0, 2));
        assert!(r.artifact.is_empty());
        assert_eq!(r.steps, 2);
        assert!(r.progress > 0);
        assert!(!r.carry.is_empty());
        // The final graph is resumable.
        assert!(ColoredGraph::from_bytes(&r.carry).is_some());
    }

    #[test]
    fn migrated_work_resumes_from_shipped_graph() {
        let (first, _) = execute_unit(&unit(4, 17, 1, 50));
        let resumed = WorkUnit {
            id: 2,
            arg0: 4,
            arg1: 17,
            variant: 1,
            seed: 123,
            step_budget: 1,
            payload: first.carry.clone(),
        };
        let (r, _) = execute_unit(&resumed);
        // One step from the shipped graph: the state was honoured (the
        // final graph differs from a fresh random start with seed 123).
        let (fresh, _) = execute_unit(&WorkUnit {
            payload: Vec::new(),
            ..resumed.clone()
        });
        assert_ne!(r.carry, fresh.carry);
    }

    #[test]
    fn corrupt_start_graph_falls_back_to_seeded_random() {
        let bad = WorkUnit {
            payload: vec![0xFF; 3],
            ..unit(3, 5, 0, 10)
        };
        // Must not panic; falls back to random start.
        let (r, _) = execute_unit(&bad);
        assert!(!r.carry.is_empty());
    }

    #[test]
    fn deterministic_execution() {
        let a = execute_unit(&unit(4, 17, 2, 200));
        let b = execute_unit(&unit(4, 17, 2, 200));
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn generation_matches_the_legacy_scheduler_formulas() {
        let mut w = RamseyWorkload::new(RamseyProblem { k: 5, n: 43 }, 3);
        let u = w.generate(10, SimTime::ZERO, 1, 2000).unwrap();
        assert_eq!(u.arg0, 5);
        assert_eq!(u.arg1, 43);
        // HEURISTICS[10 % 3] = HEURISTICS[1] = 1.
        assert_eq!(u.variant, 1);
        assert_eq!(
            u.seed,
            3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(10)
        );
        assert_eq!(u.step_budget, 2000);
        assert!(u.payload.is_empty());
        // Heuristic rotation steps through HEURISTICS in order.
        assert_eq!(w.next_variant(0), Some(1));
        assert_eq!(w.next_variant(1), Some(2));
        assert_eq!(w.next_variant(2), Some(0));
        // Unknown current variant restarts the rotation, like the old
        // `position().unwrap_or(0)`.
        assert_eq!(w.next_variant(9), Some(1));
        assert!(w.rate_scaled_budgets());
        assert_eq!(w.artifact_key(&u), "ramsey/best/5");
    }

    #[test]
    fn validator_accepts_real_witness_and_rejects_garbage() {
        let v = ramsey_validator();
        // Paley(17) is a genuine R(4) > 17 witness.
        let witness = ColoredGraph::paley(17);
        assert!(v("ramsey/best/4", &witness.to_bytes()).is_ok());
        assert!(v("ramsey/best/4", &[0xFF, 0x01]).is_err());
        assert!(v("ramsey/best/oops", &witness.to_bytes()).is_err());
    }
}
