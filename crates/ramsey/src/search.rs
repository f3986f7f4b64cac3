//! Heuristic search for Ramsey counter-examples.
//!
//! "We must use heuristic techniques to control the search process making
//! the process of counter-example identification related to distributed
//! 'branch-and-bound' state-space searching" (§3). The objective is the
//! number of monochromatic `k`-cliques; a coloring scoring zero *is* a
//! counter-example. Four heuristics are provided — greedy local search,
//! tabu search, simulated annealing and full-neighbourhood steepest
//! descent — mirroring the application's multiple heuristics whose
//! "execution profile ... depends largely on the point in the search space
//! where it is searching" (§4).

use std::hint::select_unpredictable;

use ew_sim::Xoshiro256;

use crate::cliques::{count_total_ws, flip_delta_ws, OpsCounter, Workspace};
use crate::delta::{edge_index, DeltaTable};
use crate::graph::ColoredGraph;

/// Kernel-level counters a search run accumulates — the source of the
/// `ramsey.*` telemetry published by the computational clients.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Flip deltas served by the table.
    pub table_lookups: u64,
    /// Applied flips maintained through the table.
    pub table_flips: u64,
    /// Table entries incrementally adjusted across all flips.
    pub entries_refreshed: u64,
    /// Bytes held by the reusable kernel workspace.
    pub workspace_bytes: u64,
    /// Bytes held by the delta table.
    pub table_bytes: u64,
}

/// A coloring under optimization, with its cached objective value, the
/// operation count spent on it, and the [`DeltaTable`] that answers every
/// flip delta.
#[derive(Clone, Debug)]
pub struct SearchState {
    graph: ColoredGraph,
    k: usize,
    mono_count: u64,
    ops: OpsCounter,
    ws: Workspace,
    table: DeltaTable,
}

impl SearchState {
    /// Wrap a starting coloring for the `R(k, k)` problem: one full count
    /// for the objective and one per-edge counting pass for the table,
    /// after which every `delta` is an O(1) lookup, maintained exactly
    /// across flips.
    pub fn new(graph: ColoredGraph, k: usize) -> Self {
        let mut ops = OpsCounter::new();
        let mut ws = Workspace::new();
        let mono_count = count_total_ws(&graph, k, &mut ops, &mut ws);
        let table = DeltaTable::new(&graph, k, &mut ops, &mut ws);
        SearchState {
            graph,
            k,
            mono_count,
            ops,
            ws,
            table,
        }
    }

    // `benchmark/src/probes.rs` names this until ROADMAP item 1a.
    #[doc(hidden)]
    pub fn new_incremental(graph: ColoredGraph, k: usize) -> Self {
        Self::new(graph, k)
    }

    /// The delta table.
    pub fn table(&self) -> &DeltaTable {
        &self.table
    }

    /// A random starting state.
    pub fn random(n: usize, k: usize, rng: &mut Xoshiro256) -> Self {
        Self::new(ColoredGraph::random(n, rng), k)
    }

    /// Current number of monochromatic `k`-cliques (the objective).
    pub fn count(&self) -> u64 {
        self.mono_count
    }

    /// The coloring.
    pub fn graph(&self) -> &ColoredGraph {
        &self.graph
    }

    /// Whether this coloring is a counter-example (objective zero).
    pub fn is_counter_example(&self) -> bool {
        self.mono_count == 0
    }

    /// Useful integer operations expended on this state so far.
    pub fn ops(&self) -> u64 {
        self.ops.total()
    }

    /// Objective change if `(u, v)` were flipped: an O(1) table lookup.
    pub fn delta(&mut self, u: usize, v: usize) -> i64 {
        self.table.note_lookups(1);
        // One charged op: the subtraction the entry stores.
        self.ops.add(1);
        self.table.delta(u, v)
    }

    /// Flip `(u, v)`, updating the cached objective incrementally.
    pub fn apply_flip(&mut self, u: usize, v: usize) {
        let d = self.delta(u, v);
        self.commit_flip(u, v, d);
    }

    /// Flip `(u, v)` whose objective change `delta` was already computed
    /// (e.g. by a full-neighbourhood scan). The caller is trusted; debug
    /// builds verify.
    pub fn apply_flip_with_delta(&mut self, u: usize, v: usize, delta: i64) {
        self.commit_flip(u, v, delta);
    }

    /// Apply a flip whose delta is `d`: mutate the graph, maintain the
    /// table, update the cached objective. Debug builds verify `d`
    /// against a fresh naive evaluation — the table must equal the naive
    /// kernel at every step.
    fn commit_flip(&mut self, u: usize, v: usize, d: i64) {
        debug_assert_eq!(
            d,
            flip_delta_ws(
                &self.graph,
                self.k,
                u,
                v,
                &mut OpsCounter::new(),
                &mut self.ws
            ),
            "delta for ({u},{v}) must match the naive kernel"
        );
        self.graph.flip(u, v);
        self.table
            .apply_flip(&self.graph, u, v, &mut self.ops, &mut self.ws);
        self.mono_count = (self.mono_count as i64 + d) as u64;
    }

    /// Credit operations performed outside this state's own counter (the
    /// candidate scans read the table directly and deposit here).
    pub fn add_external_ops(&mut self, ops: u64) {
        self.ops.add(ops);
    }

    /// Charge `count` delta queries that a scan read straight from the
    /// table: per query one lookup and one op, what [`Self::delta`]
    /// charges.
    fn charge_scan(&mut self, count: u64) {
        self.add_external_ops(count);
        self.table.note_lookups(count);
    }

    /// Kernel counters for telemetry.
    pub fn kernel_stats(&self) -> KernelStats {
        let s = self.table.stats();
        KernelStats {
            table_lookups: s.lookups,
            table_flips: s.flips,
            entries_refreshed: s.entries_refreshed,
            workspace_bytes: self.ws.bytes() as u64,
            table_bytes: self.table.bytes() as u64,
        }
    }

    /// Recompute the objective from scratch (test aid; `O(n^k)`).
    pub fn recount(&mut self) -> u64 {
        count_total_ws(&self.graph, self.k, &mut self.ops, &mut self.ws)
    }
}

/// What one heuristic step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A flip was applied.
    Moved {
        /// Change in objective.
        delta: i64,
    },
    /// The heuristic found no acceptable move this step.
    Stuck,
    /// The state is already a counter-example; nothing to do.
    Solved,
}

/// A local-search heuristic over [`SearchState`].
pub trait Heuristic: Send {
    /// Short name ("greedy", "tabu", "anneal") used in work descriptors.
    fn name(&self) -> &str;
    /// Perform one move.
    fn step(&mut self, state: &mut SearchState, rng: &mut Xoshiro256) -> StepOutcome;
}

fn random_edge(n: usize, rng: &mut Xoshiro256) -> (usize, usize) {
    loop {
        let u = rng.next_below(n as u64) as usize;
        let v = rng.next_below(n as u64) as usize;
        if u != v {
            return (u.min(v), u.max(v));
        }
    }
}

/// Greedy local search over a random sample of candidate edges: evaluate
/// `sample` random flips, take the best (ties broken randomly), accept
/// even if worsening only when every candidate worsens and `restless` is
/// set (plateau escape).
pub struct GreedyLocal {
    /// Candidate flips evaluated per step.
    pub sample: usize,
    /// Accept the least-bad move when no improving move exists (otherwise
    /// report [`StepOutcome::Stuck`]).
    pub restless: bool,
}

impl Default for GreedyLocal {
    fn default() -> Self {
        GreedyLocal {
            sample: 64,
            restless: true,
        }
    }
}

impl Heuristic for GreedyLocal {
    fn name(&self) -> &str {
        "greedy"
    }

    fn step(&mut self, state: &mut SearchState, rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        let n = state.graph().n();
        let gains = state.table().gains();
        let mut best = Pick::NONE;
        let mut ties = 0u64;
        for _ in 0..self.sample {
            let (u, v) = random_edge(n, rng);
            let e = edge_index(n, u, v);
            let d = gains[e];
            // The one branch left in the scan: only a tie draws.
            if d == best.gain {
                // Reservoir-style random tie-break.
                ties += 1;
                if rng.next_below(ties) == 0 {
                    best.edge = e;
                }
            }
            // A strict improvement (the first draw always is one) becomes
            // the incumbent and counts as the first tied candidate, so a
            // second equal-scoring draw replaces it with probability 1/2,
            // not 1.
            ties = select_unpredictable(d < best.gain, 1, ties);
            best = best.offer(e, d, true);
        }
        state.charge_scan(self.sample as u64);
        let (u, v, d) = best.flip(n).expect("sample >= 1");
        if d >= 0 && !self.restless {
            return StepOutcome::Stuck;
        }
        state.apply_flip(u, v);
        StepOutcome::Moved { delta: d }
    }
}

/// The running choice of a candidate scan: an edge, by [`edge_index`],
/// and its gain. The rule every heuristic shares is the first strict
/// minimum among admissible candidates; [`Pick::NONE`] holds a gain of
/// `i64::MAX`, which no entry can reach, so it loses to every admissible
/// candidate and still marks "nothing admissible" after the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pick {
    edge: usize,
    gain: i64,
}

impl Pick {
    /// Nothing picked yet.
    pub(crate) const NONE: Pick = Pick {
        edge: 0,
        gain: i64::MAX,
    };

    /// `self`, or candidate `(edge, gain)` when it is admissible and
    /// strictly better. Whether a random candidate wins is a coin toss no
    /// branch predictor learns, so this is a select, not a branch.
    #[inline]
    pub(crate) fn offer(self, edge: usize, gain: i64, admissible: bool) -> Pick {
        debug_assert_ne!(gain, i64::MAX, "no gain equals the sentinel");
        select_unpredictable(admissible & (gain < self.gain), Pick { edge, gain }, self)
    }

    /// The picked flip as `(u, v, gain)` on an `n`-vertex graph, or none
    /// when no candidate was admissible.
    pub(crate) fn flip(self, n: usize) -> Option<(usize, usize, i64)> {
        (self.gain != i64::MAX).then_some((self.edge / n, self.edge % n, self.gain))
    }
}

/// The tabu tenures and their step clock, shared by [`TabuSearch`] (which
/// documents layout and invariant) and [`Steepest`]. Edges are named by
/// their [`edge_index`], the delta table's, so a scan computes one index
/// for both loads.
#[derive(Default)]
pub(crate) struct TenureTable {
    step_no: u64,
    until: Vec<u64>,
}

impl TenureTable {
    /// Open the next step, on an `n`-vertex graph. The table is allocated
    /// on the first step; a later change of `n` starts it over, nothing tabu.
    pub(crate) fn begin_step(&mut self, n: usize) {
        self.step_no += 1;
        if self.until.len() != n * n {
            self.until = vec![0; n * n];
        }
    }

    /// Whether edge `e` is tabu in the current step.
    #[inline]
    pub(crate) fn is_tabu(&self, e: usize) -> bool {
        self.until[e] > self.step_no
    }

    /// Offer edge `e`, whose flip gains `d`, to `pick` under the tabu rule:
    /// admissible when `e` is not tabu or when `d < aspire_below` (the
    /// flip would beat the best objective seen). Both tests are evaluated
    /// and combined without short-circuit, so a candidate costs no branch.
    #[inline]
    pub(crate) fn offer(&self, pick: Pick, e: usize, d: i64, aspire_below: i64) -> Pick {
        pick.offer(e, d, !self.is_tabu(e) | (d < aspire_below))
    }

    /// Forbid edge `e` for the next `tenure` steps.
    #[inline]
    pub(crate) fn forbid(&mut self, e: usize, tenure: u64) {
        self.until[e] = self.step_no + tenure;
    }
}

/// Tabu search: recently flipped edges are forbidden for `tenure` steps
/// unless flipping one would beat the best objective seen (aspiration).
///
/// The tenures are a dense table, `until[edge]`: one `u64` per cell of
/// [`DeltaTable`]'s square layout, `8 · n²` bytes (2 312 at `n = 17`,
/// 14 792 at `n = 43`), allocated on the first step. Invariant:
/// entry ≤ `step_no` ⇔ not tabu; 0 = never flipped (steps count from 1).
pub struct TabuSearch {
    /// Candidate flips evaluated per step.
    pub sample: usize,
    /// Steps an edge stays tabu after being flipped.
    pub tenure: u64,
    tabu: TenureTable,
    best_seen: u64,
}

impl TabuSearch {
    /// Tabu search with the given sample width and tenure.
    pub fn new(sample: usize, tenure: u64) -> Self {
        TabuSearch {
            sample,
            tenure,
            tabu: TenureTable::default(),
            best_seen: u64::MAX,
        }
    }
}

impl Default for TabuSearch {
    fn default() -> Self {
        TabuSearch::new(96, 24)
    }
}

impl Heuristic for TabuSearch {
    fn name(&self) -> &str {
        "tabu"
    }

    fn step(&mut self, state: &mut SearchState, rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        self.best_seen = self.best_seen.min(state.count());
        let n = state.graph().n();
        self.tabu.begin_step(n);
        // Aspiration: a move that reaches a new global best is always
        // allowed.
        let aspire_below = self.best_seen as i64 - state.count() as i64;
        let gains = state.table().gains();
        let mut best = Pick::NONE;
        for _ in 0..self.sample {
            let (u, v) = random_edge(n, rng);
            let e = edge_index(n, u, v);
            best = self.tabu.offer(best, e, gains[e], aspire_below);
        }
        state.charge_scan(self.sample as u64);
        let Some((u, v, d)) = best.flip(n) else {
            return StepOutcome::Stuck;
        };
        state.apply_flip(u, v);
        self.tabu.forbid(best.edge, self.tenure);
        StepOutcome::Moved { delta: d }
    }
}

/// Steepest descent over the full neighbourhood, with [`TabuSearch`]'s
/// tenures and aspiration for plateau escape: each step reads the delta of
/// every one of the `n(n-1)/2` edges from the [`DeltaTable`] and applies
/// the best admissible flip. §6's call to "parallelize some of the
/// individual heuristics" is not reproduced: on the table a pick is one
/// load per edge, and fanning it out across threads cost more than the
/// scan it split (DESIGN §10.7).
pub struct Steepest {
    /// Steps an edge stays tabu after being flipped.
    pub tenure: u64,
    tabu: TenureTable,
    best_seen: u64,
}

impl Steepest {
    /// With the given tabu tenure.
    pub fn new(tenure: u64) -> Self {
        Steepest {
            tenure,
            tabu: TenureTable::default(),
            best_seen: u64::MAX,
        }
    }
}

impl Default for Steepest {
    fn default() -> Self {
        Steepest::new(24)
    }
}

/// The best flip of `state` under `tabu`'s rule (see
/// [`TenureTable::offer`]): the smallest `(delta, u, v)` over the edges
/// that are not tabu or whose delta is below `aspire_below`, as a [`Pick`]
/// that is [`Pick::NONE`] when every edge is excluded, and the operations
/// spent — one per candidate, the subtraction each table entry stores.
/// Edges come in lexicographic order, so the first strict minimum is the
/// smallest `(delta, u, v)`; no candidate branches on its delta.
fn best_flip(state: &SearchState, tabu: &TenureTable, aspire_below: i64) -> (Pick, u64) {
    let n = state.graph().n();
    let gains = state.table().gains();
    let mut best = Pick::NONE;
    for u in 0..n {
        for v in (u + 1)..n {
            let e = edge_index(n, u, v);
            best = tabu.offer(best, e, gains[e], aspire_below);
        }
    }
    (best, (n * n.saturating_sub(1) / 2) as u64)
}

impl Heuristic for Steepest {
    fn name(&self) -> &str {
        "steepest"
    }

    fn step(&mut self, state: &mut SearchState, _rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        self.best_seen = self.best_seen.min(state.count());
        let n = state.graph().n();
        self.tabu.begin_step(n);
        let aspire_below = self.best_seen as i64 - state.count() as i64;
        let (best, ops) = best_flip(state, &self.tabu, aspire_below);
        state.charge_scan(ops);
        let Some((u, v, d)) = best.flip(n) else {
            return StepOutcome::Stuck;
        };
        state.apply_flip_with_delta(u, v, d);
        self.tabu.forbid(best.edge, self.tenure);
        StepOutcome::Moved { delta: d }
    }
}

/// Simulated annealing with geometric cooling.
pub struct Annealing {
    /// Current temperature.
    pub temperature: f64,
    /// Multiplied into the temperature each step.
    pub cooling: f64,
    /// Temperature floor.
    pub floor: f64,
}

impl Default for Annealing {
    fn default() -> Self {
        Annealing {
            temperature: 4.0,
            cooling: 0.9995,
            floor: 0.05,
        }
    }
}

impl Heuristic for Annealing {
    fn name(&self) -> &str {
        "anneal"
    }

    fn step(&mut self, state: &mut SearchState, rng: &mut Xoshiro256) -> StepOutcome {
        if state.is_counter_example() {
            return StepOutcome::Solved;
        }
        let n = state.graph().n();
        let (u, v) = random_edge(n, rng);
        let d = state.delta(u, v);
        let accept = d <= 0 || rng.next_f64() < (-(d as f64) / self.temperature).exp();
        self.temperature = (self.temperature * self.cooling).max(self.floor);
        if accept {
            state.apply_flip(u, v);
            StepOutcome::Moved { delta: d }
        } else {
            StepOutcome::Stuck
        }
    }
}

/// Construct a heuristic by kind id (wire-stable; used in work units).
pub fn heuristic_by_kind(kind: u8) -> Box<dyn Heuristic> {
    match kind {
        0 => Box::new(GreedyLocal::default()),
        1 => Box::new(TabuSearch::default()),
        _ => Box::new(Annealing::default()),
    }
}

/// Outcome of a bounded search run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Steps actually executed.
    pub steps: u64,
    /// Useful integer operations expended.
    pub ops: u64,
    /// Best (lowest) objective reached.
    pub best_count: u64,
    /// The counter-example, if one was found.
    pub counter_example: Option<ColoredGraph>,
}

/// Drive `heuristic` for at most `max_steps` steps or until a
/// counter-example appears.
pub fn run_search(
    state: &mut SearchState,
    heuristic: &mut dyn Heuristic,
    rng: &mut Xoshiro256,
    max_steps: u64,
) -> RunReport {
    let ops_before = state.ops();
    let mut best = state.count();
    let mut steps = 0;
    while steps < max_steps && !state.is_counter_example() {
        heuristic.step(state, rng);
        steps += 1;
        best = best.min(state.count());
    }
    RunReport {
        steps,
        ops: state.ops() - ops_before,
        best_count: best,
        counter_example: state.is_counter_example().then(|| state.graph().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::count_total;
    use crate::graph::Color;

    #[test]
    fn state_tracks_count_incrementally() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut st = SearchState::random(12, 4, &mut rng);
        for _ in 0..30 {
            let (u, v) = random_edge(12, &mut rng);
            st.apply_flip(u, v);
            let cached = st.count();
            assert_eq!(cached, st.recount(), "incremental count must match recount");
        }
    }

    #[test]
    fn solved_state_reports_solved() {
        let st = SearchState::new(ColoredGraph::paley(5), 3);
        assert!(st.is_counter_example());
        let mut g = GreedyLocal::default();
        let mut st = st;
        let mut rng = Xoshiro256::seed_from_u64(2);
        assert_eq!(g.step(&mut st, &mut rng), StepOutcome::Solved);
    }

    fn solves(kind: u8, n: usize, k: usize, seed: u64, budget: u64) -> bool {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut st = SearchState::random(n, k, &mut rng);
        let mut h = heuristic_by_kind(kind);
        let rep = run_search(&mut st, h.as_mut(), &mut rng, budget);
        if let Some(ce) = &rep.counter_example {
            let mut ops = OpsCounter::new();
            assert_eq!(
                count_total(ce, k, &mut ops),
                0,
                "claimed solution must verify"
            );
            true
        } else {
            false
        }
    }

    #[test]
    fn greedy_finds_r3_counter_example_on_5_vertices() {
        assert!(solves(0, 5, 3, 11, 500));
    }

    #[test]
    fn tabu_finds_r3_counter_example_on_5_vertices() {
        assert!(solves(1, 5, 3, 12, 500));
    }

    #[test]
    fn anneal_finds_r3_counter_example_on_5_vertices() {
        assert!(solves(2, 5, 3, 13, 20_000));
    }

    #[test]
    fn tabu_finds_r4_counter_example_on_12_vertices() {
        // R(4) = 18, so 12 vertices has plenty of counter-examples; a
        // competent heuristic should land one quickly.
        assert!(solves(1, 12, 4, 21, 5_000));
    }

    #[test]
    fn greedy_reduces_objective_on_17_vertices() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let mut st = SearchState::random(17, 4, &mut rng);
        let start = st.count();
        let mut h = GreedyLocal::default();
        let rep = run_search(&mut st, &mut h, &mut rng, 300);
        assert!(
            rep.best_count < start / 2,
            "objective should at least halve: {start} -> {}",
            rep.best_count
        );
        assert!(rep.ops > 0);
    }

    #[test]
    fn run_report_counts_steps_and_ops() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut st = SearchState::random(10, 4, &mut rng);
        let mut h = Annealing::default();
        let rep = run_search(&mut st, &mut h, &mut rng, 50);
        assert!(rep.steps <= 50);
        assert!(rep.ops > 0);
    }

    #[test]
    fn greedy_non_restless_reports_stuck_at_local_optimum() {
        // A pentagon is globally optimal for k=3; but use a near-solved
        // state: with restless=false and a solved state we get Solved; to
        // see Stuck we need a local optimum that is not global. Build a
        // 6-vertex graph (no counter-example exists) and run greedy until
        // it reports Stuck.
        let mut rng = Xoshiro256::seed_from_u64(51);
        let mut st = SearchState::random(6, 3, &mut rng);
        let mut h = GreedyLocal {
            sample: 30, // full-ish coverage of the 15 edges
            restless: false,
        };
        let mut saw_stuck = false;
        for _ in 0..200 {
            match h.step(&mut st, &mut rng) {
                StepOutcome::Stuck => {
                    saw_stuck = true;
                    break;
                }
                StepOutcome::Solved => panic!("R(3)=6: no counter-example on 6 vertices"),
                StepOutcome::Moved { .. } => {}
            }
        }
        assert!(
            saw_stuck,
            "greedy must bottom out on an unsolvable instance"
        );
        assert!(st.count() > 0);
    }

    #[test]
    fn annealing_cools() {
        let mut h = Annealing::default();
        let t0 = h.temperature;
        let mut rng = Xoshiro256::seed_from_u64(61);
        let mut st = SearchState::random(8, 3, &mut rng);
        for _ in 0..100 {
            h.step(&mut st, &mut rng);
        }
        assert!(h.temperature < t0);
        assert!(h.temperature >= h.floor);
    }

    #[test]
    fn heuristic_kinds_stable() {
        assert_eq!(heuristic_by_kind(0).name(), "greedy");
        assert_eq!(heuristic_by_kind(1).name(), "tabu");
        assert_eq!(heuristic_by_kind(2).name(), "anneal");
        assert_eq!(heuristic_by_kind(77).name(), "anneal");
    }

    #[test]
    fn best_flip_matches_sequential_scan() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut state = SearchState::random(20, 4, &mut rng);
        let n = state.graph().n();
        // Nothing is tabu, so no candidate needs aspiration.
        let mut tabu = TenureTable::default();
        tabu.begin_step(n);
        let (best, ops) = best_flip(&state, &tabu, i64::MIN);
        // Reference scan through the state's charged look-up.
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
        assert_eq!(best.flip(n), seq_best);
        assert_eq!(ops, (n * (n - 1) / 2) as u64);
    }

    #[test]
    fn steepest_solves_small_instances() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SearchState::random(5, 3, &mut rng);
        let mut h = Steepest::default();
        let rep = run_search(&mut state, &mut h, &mut rng, 300);
        assert!(rep.counter_example.is_some(), "R(3)>5 witness expected");
    }

    #[test]
    fn steepest_solves_r4_on_17() {
        // The full-neighborhood evaluation is strong: a 17-vertex R(4)
        // witness typically falls out in tens of steps.
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut state = SearchState::random(17, 4, &mut rng);
        let mut h = Steepest::default();
        let rep = run_search(&mut state, &mut h, &mut rng, 3_000);
        let ce = rep.counter_example.expect("R(4)>17 witness expected");
        let mut ops = OpsCounter::new();
        assert_eq!(count_total(&ce, 4, &mut ops), 0);
    }

    #[test]
    fn tabu_exclusion_is_respected_and_aspiration_overrides() {
        let g = ColoredGraph::paley(5);
        let mut state = SearchState::new(g, 3);
        state.apply_flip(0, 1); // break the pentagon: count > 0
        assert!(state.count() > 0);
        let mut tabu = TenureTable::default();
        tabu.begin_step(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                tabu.forbid(edge_index(5, u, v), 10);
            }
        }
        // Exclude everything, no aspiration: stuck.
        let (none, _) = best_flip(&state, &tabu, i64::MIN);
        assert_eq!(none, Pick::NONE);
        assert!(none.flip(5).is_none());
        // Exclude everything, aspiration for improving moves: the repair
        // flip qualifies (it returns to count 0 < best seen).
        let (some, _) = best_flip(&state, &tabu, 0);
        let (u, v, d) = some.flip(5).expect("aspirating flip found");
        assert_eq!((u, v), (0, 1), "the broken edge is the best repair");
        assert!(d < 0);
    }

    #[test]
    fn step_counts_ops_into_the_state() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut state = SearchState::random(12, 4, &mut rng);
        let before = state.ops();
        let mut h = Steepest::default();
        h.step(&mut state, &mut rng);
        assert!(state.ops() > before, "the scan's ops are credited");
    }

    #[test]
    fn paley_17_is_global_optimum_for_k4() {
        let st = SearchState::new(ColoredGraph::paley(17), 4);
        assert_eq!(st.count(), 0);
        assert!(st.is_counter_example());
        // And a single flip breaks it.
        let mut st2 = st.clone();
        st2.apply_flip(0, 1);
        assert!(st2.count() > 0);
        let _ = Color::Red; // silence unused import if assertions change
    }
}
