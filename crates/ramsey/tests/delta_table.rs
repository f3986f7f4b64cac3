//! Exactness contract of the incremental delta engine: after *any* flip
//! sequence, every table entry equals a fresh recount and every served
//! delta equals the naive kernel, and under every heuristic the search
//! state's table stays exact after every step.

use ew_ramsey::{
    flip_delta_ws, heuristic_by_kind, ColoredGraph, DeltaTable, Heuristic, OpsCounter, SearchState,
    Steepest, StepOutcome, Workspace,
};
use ew_sim::Xoshiro256;
use proptest::prelude::*;

proptest! {
    /// Arbitrary flip sequences leave every entry of the table equal to a
    /// from-scratch `count_through_edge`, and every delta equal to a
    /// fresh `flip_delta_ws`.
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
                    flip_delta_ws(&g, k, u, v, &mut naive_ops, &mut ws),
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
        let mut st = SearchState::new(ColoredGraph::random(14, &mut rng), 4);
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

/// Drive `heuristic` for `steps` steps on a table-backed state and check,
/// after every step, that every table entry equals a fresh naive delta and
/// that the cached objective equals a recount. The run must really move
/// and really read the table.
fn assert_table_exact_every_step(
    heuristic: &mut dyn Heuristic,
    n: usize,
    k: usize,
    seed: u64,
    steps: u64,
) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut state = SearchState::random(n, k, &mut rng);
    let mut moved = 0;
    for step in 0..steps {
        let outcome = heuristic.step(&mut state, &mut rng);
        moved += matches!(outcome, StepOutcome::Moved { .. }) as u64;
        assert!(
            state.table().verify_against(state.graph()),
            "table drifted at step {step} (n={n} k={k} seed={seed})"
        );
        let cached = state.count();
        assert_eq!(cached, state.recount(), "objective drifted at step {step}");
    }
    assert!(moved > 0, "no step moved (n={n} k={k} seed={seed})");
    assert!(
        state.kernel_stats().table_lookups > 0,
        "the table served deltas"
    );
}

#[test]
fn greedy_keeps_the_table_exact_every_step() {
    assert_table_exact_every_step(heuristic_by_kind(0).as_mut(), 17, 4, 2024, 120);
}

#[test]
fn tabu_keeps_the_table_exact_every_step() {
    assert_table_exact_every_step(heuristic_by_kind(1).as_mut(), 17, 4, 2025, 120);
}

#[test]
fn anneal_keeps_the_table_exact_every_step() {
    assert_table_exact_every_step(heuristic_by_kind(2).as_mut(), 13, 4, 2026, 200);
}

#[test]
fn tabu_r5_class_keeps_the_table_exact_every_step() {
    // The acceptance-criterion workload class: k = 5 on n >= 40.
    assert_table_exact_every_step(heuristic_by_kind(1).as_mut(), 40, 5, 77, 25);
}

#[test]
fn steepest_keeps_the_table_exact_every_step() {
    assert_table_exact_every_step(&mut Steepest::default(), 18, 4, 31, 40);
}
