//! Parallelized heuristics.
//!
//! §6: "Our experience at SC98 showed that to search for R6, we will need
//! to parallelize some of the individual heuristics, each of which we will
//! implement as a computational client within the application. As a
//! result, we will develop ways in which EveryWare can be used to couple
//! tightly synchronized parallel codes."
//!
//! [`ParallelSteepest`] is that parallelization for the flip-delta
//! heuristics: each step evaluates the objective change of *every* edge of
//! the coloring concurrently (rayon data-parallelism over the `n(n-1)/2`
//! candidates — each evaluation only reads the shared delta table), then
//! applies the single best move. Selection is deterministic regardless of
//! thread count or schedule: ties break toward the lexicographically
//! smallest edge. Each evaluation is charged one op and the total is
//! deposited into the state's counter, keeping the paper's accounting
//! discipline.

use rayon::prelude::*;

use crate::search::{Heuristic, SearchState, StepOutcome, TenureTable};
use ew_sim::Xoshiro256;

/// Steepest-descent with exhaustive parallel candidate evaluation and a
/// tabu tenure for plateau escape. The tenures are the dense table
/// `TabuSearch` keeps — `until[edge]`, triangular, `8 · n(n-1)/2` bytes;
/// entry ≤ `step_no` ⇔ not tabu, 0 = never flipped — which the workers
/// share read-only.
pub struct ParallelSteepest {
    /// Steps an edge stays tabu after being flipped.
    pub tenure: u64,
    tabu: TenureTable,
    best_seen: u64,
}

impl ParallelSteepest {
    /// With the given tabu tenure.
    pub fn new(tenure: u64) -> Self {
        ParallelSteepest {
            tenure,
            tabu: TenureTable::default(),
            best_seen: u64::MAX,
        }
    }
}

impl Default for ParallelSteepest {
    fn default() -> Self {
        ParallelSteepest::new(24)
    }
}

/// Evaluate every edge's flip delta in parallel; returns the best
/// non-excluded `(u, v, delta)` (ties toward the smallest edge) and the
/// total operations spent.
///
/// Each evaluation is a read of the state's
/// [`DeltaTable`](crate::DeltaTable), which the workers share immutably.
///
/// `excluded` decides which edges are skipped (tabu); edges that would
/// reach a new global best are exempted by the caller via `aspiration`.
pub fn best_flip_parallel(
    state: &SearchState,
    excluded: impl Fn(usize, usize) -> bool + Sync,
    aspiration: impl Fn(i64) -> bool + Sync,
) -> (Option<(usize, usize, i64)>, u64) {
    let n = state.graph().n();
    let table = state.table();
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let best = edges
        .par_iter()
        .map(|&(u, v)| {
            let d = table.delta(u, v);
            (!excluded(u, v) || aspiration(d)).then_some((u, v, d))
        })
        .reduce(
            || None,
            |a, b| match (a, b) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => {
                    // Deterministic total order: delta, then edge.
                    if (y.2, y.0, y.1) < (x.2, x.0, x.1) {
                        Some(y)
                    } else {
                        Some(x)
                    }
                }
            },
        );
    // One charged op per candidate: the subtraction each entry stores.
    (best, edges.len() as u64)
}

impl Heuristic for ParallelSteepest {
    fn name(&self) -> &str {
        "parallel-steepest"
    }

    fn step(&mut self, state: &mut SearchState, _rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        self.best_seen = self.best_seen.min(state.count());
        let n = state.graph().n();
        self.tabu.begin_step(n);
        let tabu = &self.tabu;
        let count = state.count() as i64;
        let best_seen = self.best_seen as i64;
        let (best, ops) =
            best_flip_parallel(state, |u, v| tabu.is_tabu(u, v), |d| count + d < best_seen);
        state.add_external_ops(ops);
        state.note_table_lookups((n * (n - 1) / 2) as u64);
        let Some((u, v, d)) = best else {
            return StepOutcome::Stuck;
        };
        state.apply_flip_with_delta(u, v, d);
        self.tabu.forbid(u, v, self.tenure);
        StepOutcome::Moved { delta: d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::OpsCounter;
    use crate::graph::ColoredGraph;
    use crate::search::run_search;

    #[test]
    fn parallel_best_flip_matches_sequential_scan() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut state = SearchState::random(20, 4, &mut rng);
        let (par_best, par_ops) = best_flip_parallel(&state, |_, _| false, |_| false);
        // Sequential reference scan.
        let n = state.graph().n();
        let mut seq_best: Option<(usize, usize, i64)> = None;
        for u in 0..n {
            for v in (u + 1)..n {
                let d = state.delta(u, v);
                let better = match seq_best {
                    None => true,
                    Some((bu, bv, bd)) => (d, u, v) < (bd, bu, bv),
                };
                if better {
                    seq_best = Some((u, v, d));
                }
            }
        }
        assert_eq!(par_best, seq_best);
        assert!(par_ops > 0);
    }

    #[test]
    fn parallel_result_is_deterministic_across_runs() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let state = SearchState::random(30, 5, &mut rng);
        let (a, ops_a) = best_flip_parallel(&state, |_, _| false, |_| false);
        let (b, ops_b) = best_flip_parallel(&state, |_, _| false, |_| false);
        assert_eq!(a, b, "thread schedule must not leak into the choice");
        assert_eq!(ops_a, ops_b, "op accounting is schedule-independent");
    }

    #[test]
    fn parallel_steepest_solves_small_instances() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SearchState::random(5, 3, &mut rng);
        let mut h = ParallelSteepest::default();
        let rep = run_search(&mut state, &mut h, &mut rng, 300);
        assert!(rep.counter_example.is_some(), "R(3)>5 witness expected");
    }

    #[test]
    fn parallel_steepest_solves_r4_on_17() {
        // The full-neighborhood evaluation is strong: a 17-vertex R(4)
        // witness typically falls out in tens of steps.
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut state = SearchState::random(17, 4, &mut rng);
        let mut h = ParallelSteepest::default();
        let rep = run_search(&mut state, &mut h, &mut rng, 3_000);
        let ce = rep.counter_example.expect("R(4)>17 witness expected");
        let mut ops = OpsCounter::new();
        assert_eq!(crate::cliques::count_total(&ce, 4, &mut ops), 0);
    }

    #[test]
    fn tabu_exclusion_is_respected_and_aspiration_overrides() {
        let g = ColoredGraph::paley(5);
        let mut state = SearchState::new_incremental(g, 3);
        state.apply_flip(0, 1); // break the pentagon: count > 0
        assert!(state.count() > 0);
        // Exclude everything, no aspiration: stuck.
        let (none, _) = best_flip_parallel(&state, |_, _| true, |_| false);
        assert!(none.is_none());
        // Exclude everything, aspiration for improving moves: the repair
        // flip qualifies (it returns to count 0 < best seen).
        let (some, _) = best_flip_parallel(&state, |_, _| true, |d| d < 0);
        let (u, v, d) = some.expect("aspirating flip found");
        assert_eq!((u, v), (0, 1), "the broken edge is the best repair");
        assert!(d < 0);
    }

    #[test]
    fn step_counts_ops_into_the_state() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut state = SearchState::random(12, 4, &mut rng);
        let before = state.ops();
        let mut h = ParallelSteepest::default();
        h.step(&mut state, &mut rng);
        assert!(state.ops() > before, "parallel evaluation ops are credited");
    }
}
