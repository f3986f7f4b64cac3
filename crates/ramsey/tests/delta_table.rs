//! Exactness contract of the incremental delta engine: after *any* flip
//! sequence, every table entry equals a fresh recount, every served delta
//! equals the naive kernel, and table-driven heuristic runs retrace the
//! naive runs move for move.

use ew_ramsey::{
    flip_delta, heuristic_by_kind, ColoredGraph, DeltaTable, OpsCounter, SearchState, StepOutcome,
    Workspace,
};
use ew_sim::Xoshiro256;
use proptest::prelude::*;

proptest! {
    /// Arbitrary flip sequences leave every entry of the table equal to a
    /// from-scratch `count_through_edge`, and every delta equal to a
    /// fresh `flip_delta`.
    #[test]
    fn prop_table_exact_after_arbitrary_flips(
        seed: u64,
        n in 6usize..20,
        k in 3usize..6,
        flips in proptest::collection::vec((0usize..20, 0usize..20), 1..30),
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut g = ColoredGraph::random(n, &mut rng);
        let mut ops = OpsCounter::new();
        let mut ws = Workspace::new();
        let mut table = DeltaTable::new(&g, k, &mut ops, &mut ws);
        for (u, v) in flips {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            g.flip(u, v);
            table.apply_flip(&g, u, v, &mut ops, &mut ws);
        }
        prop_assert!(table.verify_against(&g), "entries drifted (n={n} k={k})");
        let mut naive_ops = OpsCounter::new();
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(
                    table.delta(u, v),
                    flip_delta(&g, k, u, v, &mut naive_ops),
                    "delta ({}, {}) diverged", u, v
                );
            }
        }
    }

    /// A table-backed `SearchState` applies flips through the maintenance
    /// path and its cached objective stays exact.
    #[test]
    fn prop_incremental_state_objective_exact(
        seed: u64,
        flips in proptest::collection::vec((0usize..14, 0usize..14), 1..25),
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut st = SearchState::new_incremental(ColoredGraph::random(14, &mut rng), 4);
        for (u, v) in flips {
            if u == v {
                continue;
            }
            st.apply_flip(u, v);
        }
        let cached = st.count();
        prop_assert_eq!(cached, st.recount());
    }
}

/// Drive one heuristic over naive and incremental states with identical
/// RNG streams; the move sequences (and everything downstream of them)
/// must be identical.
fn assert_trajectories_match(kind: u8, n: usize, k: usize, seed: u64, steps: u64) {
    let mut rng_a = Xoshiro256::seed_from_u64(seed);
    let mut rng_b = Xoshiro256::seed_from_u64(seed);
    let g_a = ColoredGraph::random(n, &mut rng_a);
    let g_b = ColoredGraph::random(n, &mut rng_b);
    assert_eq!(g_a, g_b);
    let mut naive = SearchState::new(g_a, k);
    let mut incr = SearchState::new_incremental(g_b, k);
    let mut h_a = heuristic_by_kind(kind);
    let mut h_b = heuristic_by_kind(kind);
    let mut moves_a: Vec<(StepOutcome, u64)> = Vec::new();
    let mut moves_b: Vec<(StepOutcome, u64)> = Vec::new();
    for _ in 0..steps {
        moves_a.push((h_a.step(&mut naive, &mut rng_a), naive.count()));
        moves_b.push((h_b.step(&mut incr, &mut rng_b), incr.count()));
    }
    assert_eq!(
        moves_a, moves_b,
        "move sequences diverged (kind={kind} n={n} k={k} seed={seed})"
    );
    assert_eq!(
        naive.graph(),
        incr.graph(),
        "final graphs diverged (kind={kind})"
    );
    let stats = incr.kernel_stats();
    assert!(stats.table_lookups > 0, "the table actually served deltas");
    assert_eq!(stats.naive_evals, 0, "no naive fallbacks on the table arm");
}

#[test]
fn greedy_trajectory_is_identical_with_and_without_table() {
    assert_trajectories_match(0, 17, 4, 2024, 120);
}

#[test]
fn tabu_trajectory_is_identical_with_and_without_table() {
    assert_trajectories_match(1, 17, 4, 2025, 120);
}

#[test]
fn anneal_trajectory_is_identical_with_and_without_table() {
    assert_trajectories_match(2, 13, 4, 2026, 200);
}

#[test]
fn tabu_r5_class_trajectory_matches_on_larger_graph() {
    // The acceptance-criterion workload class: k = 5 on n >= 40.
    assert_trajectories_match(1, 40, 5, 77, 25);
}

#[test]
fn parallel_steepest_trajectory_is_identical_with_and_without_table() {
    use ew_ramsey::{Heuristic, ParallelSteepest};
    let mut rng_a = Xoshiro256::seed_from_u64(31);
    let mut rng_b = Xoshiro256::seed_from_u64(31);
    let mut naive = SearchState::new(ColoredGraph::random(18, &mut rng_a), 4);
    let mut incr = SearchState::new_incremental(ColoredGraph::random(18, &mut rng_b), 4);
    let mut h_a = ParallelSteepest::default();
    let mut h_b = ParallelSteepest::default();
    for _ in 0..40 {
        let a = h_a.step(&mut naive, &mut rng_a);
        let b = h_b.step(&mut incr, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(naive.count(), incr.count());
    }
    assert_eq!(naive.graph(), incr.graph());
}

#[test]
fn full_run_results_match_naive_reference() {
    // A full table-path run (the shape `ew-workload` executes for a work
    // unit) against a hand-rolled naive run of the same parameters: same
    // steps / best / graphs (only the ops accounting differs between the
    // two kernels).
    use ew_ramsey::run_search;
    let (seed, n, k, budget) = (4242u64, 17, 4, 400);
    let mut rng_a = Xoshiro256::seed_from_u64(seed);
    let start_a = ColoredGraph::random(n, &mut rng_a);
    let mut incr = SearchState::new_incremental(start_a, k);
    let mut h_a = heuristic_by_kind(1);
    let rep_a = run_search(&mut incr, h_a.as_mut(), &mut rng_a, budget);

    let mut rng_b = Xoshiro256::seed_from_u64(seed);
    let start_b = ColoredGraph::random(n, &mut rng_b);
    let mut naive = SearchState::new(start_b, k);
    let mut h_b = heuristic_by_kind(1);
    let rep_b = run_search(&mut naive, h_b.as_mut(), &mut rng_b, budget);

    assert_eq!(rep_a.steps, rep_b.steps);
    assert_eq!(rep_a.best_count, rep_b.best_count);
    assert_eq!(incr.graph(), naive.graph());
    assert_eq!(
        rep_a.counter_example.map(|g| g.to_bytes()),
        rep_b.counter_example.map(|g| g.to_bytes())
    );
}
