//! Oracle test for the dense tenure table: the `HashMap` + occasional
//! `retain` tabu bookkeeping this crate shipped before is kept here as the
//! reference, and the production `TabuSearch` / `ParallelSteepest` must
//! agree with it move for move — same `StepOutcome`s, same final graph,
//! same `ops()`, same RNG position. "Close" is not good enough: the move
//! sequence feeds `WorkResult`s, and those feed every simulated
//! fingerprint.

use std::collections::HashMap;

use proptest::prelude::*;

use ew_ramsey::{
    best_flip_parallel, run_search, ColoredGraph, Heuristic, ParallelSteepest, SearchState,
    StepOutcome, TabuSearch,
};
use ew_sim::Xoshiro256;

/// `search.rs`'s private edge sampler, transcribed.
fn random_edge(n: usize, rng: &mut Xoshiro256) -> (usize, usize) {
    loop {
        let u = rng.next_below(n as u64) as usize;
        let v = rng.next_below(n as u64) as usize;
        if u != v {
            return (u.min(v), u.max(v));
        }
    }
}

/// The parent's `TabuSearch`, map and all.
struct MapTabu {
    sample: usize,
    tenure: u64,
    step_no: u64,
    tabu: HashMap<(usize, usize), u64>,
    best_seen: u64,
}

impl MapTabu {
    fn new(sample: usize, tenure: u64) -> Self {
        MapTabu {
            sample,
            tenure,
            step_no: 0,
            tabu: HashMap::new(),
            best_seen: u64::MAX,
        }
    }
}

impl Heuristic for MapTabu {
    fn name(&self) -> &str {
        "tabu-oracle"
    }

    fn step(&mut self, state: &mut SearchState, rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        self.step_no += 1;
        self.best_seen = self.best_seen.min(state.count());
        let n = state.graph().n();
        let mut best: Option<((usize, usize), i64)> = None;
        for _ in 0..self.sample {
            let (u, v) = random_edge(n, rng);
            let d = state.delta(u, v);
            let is_tabu = self
                .tabu
                .get(&(u, v))
                .is_some_and(|&until| until > self.step_no);
            let aspires = (state.count() as i64 + d) < self.best_seen as i64;
            if is_tabu && !aspires {
                continue;
            }
            if best.is_none() || d < best.unwrap().1 {
                best = Some(((u, v), d));
            }
        }
        let Some(((u, v), d)) = best else {
            return StepOutcome::Stuck;
        };
        state.apply_flip(u, v);
        self.tabu.insert((u, v), self.step_no + self.tenure);
        if self.tabu.len() > 4 * self.sample.max(16) {
            let now = self.step_no;
            self.tabu.retain(|_, &mut until| until > now);
        }
        StepOutcome::Moved { delta: d }
    }
}

/// The parent's `ParallelSteepest`.
struct MapSteepest {
    tenure: u64,
    step_no: u64,
    tabu: HashMap<(usize, usize), u64>,
    best_seen: u64,
}

impl MapSteepest {
    fn new(tenure: u64) -> Self {
        MapSteepest {
            tenure,
            step_no: 0,
            tabu: HashMap::new(),
            best_seen: u64::MAX,
        }
    }
}

impl Heuristic for MapSteepest {
    fn name(&self) -> &str {
        "parallel-steepest-oracle"
    }

    fn step(&mut self, state: &mut SearchState, _rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        self.step_no += 1;
        self.best_seen = self.best_seen.min(state.count());
        let step_no = self.step_no;
        let tabu = &self.tabu;
        let count = state.count() as i64;
        let best_seen = self.best_seen as i64;
        let (best, ops) = best_flip_parallel(
            state,
            |u, v| tabu.get(&(u, v)).is_some_and(|&until| until > step_no),
            |d| count + d < best_seen,
        );
        state.add_external_ops(ops);
        // The production step also notes n(n-1)/2 look-ups for the
        // hit-rate telemetry; that hook is crate-private and touches
        // neither `ops()` nor the move, so the oracle omits it.
        let Some((u, v, d)) = best else {
            return StepOutcome::Stuck;
        };
        state.apply_flip_with_delta(u, v, d);
        self.tabu.insert((u, v), self.step_no + self.tenure);
        if self.tabu.len() > 4096 {
            let now = self.step_no;
            self.tabu.retain(|_, &mut until| until > now);
        }
        StepOutcome::Moved { delta: d }
    }
}

/// Drive both heuristics from identical starts and demand they never
/// diverge: outcome by outcome, then graph, ops and RNG position.
fn assert_lockstep(
    production: &mut dyn Heuristic,
    oracle: &mut dyn Heuristic,
    mut a: SearchState,
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError> {
    let mut b = a.clone();
    let mut rng_a = Xoshiro256::seed_from_u64(seed);
    let mut rng_b = Xoshiro256::seed_from_u64(seed);
    for i in 0..steps {
        let got = production.step(&mut a, &mut rng_a);
        let want = oracle.step(&mut b, &mut rng_b);
        prop_assert_eq!(got, want, "step {} diverged", i);
    }
    prop_assert_eq!(a.graph(), b.graph());
    prop_assert_eq!(a.count(), b.count());
    prop_assert_eq!(a.ops(), b.ops());
    prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    Ok(())
}

fn start(n: usize, k: usize, seed: u64, incremental: bool) -> SearchState {
    let g = ColoredGraph::random(n, &mut Xoshiro256::seed_from_u64(seed ^ 0xA5A5));
    if incremental {
        SearchState::new_incremental(g, k)
    } else {
        SearchState::new(g, k)
    }
}

proptest! {
    #[test]
    fn tabu_matches_the_map_oracle(
        shape in (5usize..25, 3usize..5, 1usize..129, 0u64..65),
        steps in 1usize..401,
        seed in any::<u64>(),
    ) {
        let (n, k, sample, tenure) = shape;
        assert_lockstep(
            &mut TabuSearch::new(sample, tenure),
            &mut MapTabu::new(sample, tenure),
            start(n, k, seed, true),
            seed,
            steps,
        )?;
    }

    #[test]
    fn parallel_steepest_matches_the_map_oracle(
        shape in (5usize..15, 3usize..5, 0u64..65),
        steps in 1usize..121,
        seed in any::<u64>(),
    ) {
        let (n, k, tenure) = shape;
        assert_lockstep(
            &mut ParallelSteepest::new(tenure),
            &mut MapSteepest::new(tenure),
            start(n, k, seed, seed & 1 == 0),
            seed,
            steps,
        )?;
    }
}

/// One heuristic driven across states of different `n`: the table is
/// re-sized (and thereby emptied) at each change, so nothing recorded for
/// the 20-vertex graph is read — in or out of bounds — on the 9-vertex
/// one. The oracle's map is cleared at the same points; `step_no` and
/// `best_seen` carry over on both sides.
#[test]
fn reusing_a_heuristic_across_sizes_resizes_the_table() {
    let mut tabu = TabuSearch::new(32, 40);
    let mut map_tabu = MapTabu::new(32, 40);
    let mut steepest = ParallelSteepest::new(40);
    let mut map_steepest = MapSteepest::new(40);
    for (i, n) in [20usize, 9, 24, 9].into_iter().enumerate() {
        map_tabu.tabu.clear();
        map_steepest.tabu.clear();
        // k = 5 keeps every size unsolved, so all 60 steps really move.
        let seed = 500 + i as u64;
        assert_lockstep(&mut tabu, &mut map_tabu, start(n, 5, seed, true), seed, 60).unwrap();
        assert_lockstep(
            &mut steepest,
            &mut map_steepest,
            start(n, 5, seed, false),
            seed,
            20,
        )
        .unwrap();
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(steps, ops, best_count, fnv64(final graph bytes))` of a default-shaped
/// tabu run on the incremental state.
fn trajectory(n: usize, k: usize, seed: u64, steps: u64) -> (u64, u64, u64, u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut state = SearchState::new_incremental(ColoredGraph::random(n, &mut rng), k);
    let rep = run_search(&mut state, &mut TabuSearch::default(), &mut rng, steps);
    (
        rep.steps,
        rep.ops,
        rep.best_count,
        fnv64(&state.graph().to_bytes()),
    )
}

/// Captured at the parent of the tenure-table change (the `HashMap`
/// implementation); a re-capture means the move sequence changed.
#[test]
fn golden_tabu_trajectories() {
    assert_eq!(trajectory(17, 4, 2025, 2_000), GOLDEN_R4_N17);
    assert_eq!(trajectory(43, 5, 77, 300), GOLDEN_R5_N43);
}

const GOLDEN_R4_N17: (u64, u64, u64, u64) = (2_000, 443_843, 5, 0x61b221b7b96ac696);
const GOLDEN_R5_N43: (u64, u64, u64, u64) = (300, 439_614, 245, 0x16db1c9cb5f593df);
