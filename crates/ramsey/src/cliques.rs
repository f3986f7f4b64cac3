//! Monochromatic clique counting — the application's hot kernel.
//!
//! "The bulk of the work in each of the heuristics are integer test and
//! arithmetic instructions" (§4): counting the monochromatic `k`-cliques of
//! a coloring, and the cliques through a candidate edge, is exactly that
//! work. The counters here tally word-level integer operations in the same
//! conservative spirit as the paper's 1:1 instrumentation, and those totals
//! are what the reproduction's "ops" figures report.

use crate::graph::{Color, ColoredGraph};

/// Running total of useful integer operations, in the paper's counting
/// discipline: only the arithmetic of the search kernels counts — not
/// instrumentation, not toolkit overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpsCounter(pub u64);

impl OpsCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
    /// Add `n` operations.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Total so far.
    pub fn total(&self) -> u64 {
        self.0
    }
}

/// Reusable scratch arena for the clique kernels. Holding one of these
/// per search thread makes every hot-path kernel
/// ([`count_mono_ws`]/[`count_through_edge_ws`]/[`flip_delta_ws`] and the
/// [`crate::delta::DeltaTable`] maintenance) allocation-free in steady
/// state: the buffers grow monotonically to the largest `(words, k)` seen
/// and are reused verbatim afterwards.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Full-candidate buffer for whole-graph counts.
    pub(crate) cand: Vec<u64>,
    /// Shared-neighborhood buffer (`row(u) & row(v)`).
    pub(crate) common: Vec<u64>,
    /// Second shared-neighborhood buffer (the second color of a flip
    /// delta; 3/4-way intersections during delta-table maintenance).
    pub(crate) inter: Vec<u64>,
    /// Recursion scratch: up to `k` levels of `w` words.
    pub(crate) scratch: Vec<u64>,
    /// Vertex-index buffer (set-bit positions of a neighborhood row).
    pub(crate) verts: Vec<usize>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Grow every buffer to fit graphs of `w` words and cliques of size
    /// `k`. No-op once sized — steady-state search never reallocates.
    pub(crate) fn ensure(&mut self, w: usize, k: usize) {
        let need = w * k.max(1);
        if self.scratch.len() < need {
            self.scratch.resize(need, 0);
        }
        for buf in [&mut self.cand, &mut self.common, &mut self.inter] {
            if buf.len() < w {
                buf.resize(w, 0);
            }
        }
        if self.verts.capacity() < w * 64 {
            self.verts.reserve(w * 64 - self.verts.capacity());
        }
    }

    /// Total bytes currently held by the arena (the `ramsey.workspace_bytes`
    /// telemetry gauge).
    pub fn bytes(&self) -> usize {
        (self.cand.capacity() + self.common.capacity() + self.inter.capacity())
            .saturating_add(self.scratch.capacity())
            * 8
            + self.verts.capacity() * std::mem::size_of::<usize>()
    }
}

/// Word-wide `k == 2` base case: the number of unordered pairs within
/// `cand` that are `color`-adjacent. For each set vertex `v` this ANDs
/// `v`'s row against the candidates above `v` and popcounts — no `next`
/// buffer is materialized and no `k == 1` frames are entered, which
/// shortens the dominant `R(4)`/`R(5)` recursions by two levels.
fn count_pairs(g: &ColoredGraph, color: Color, cand: &[u64], ops: &mut OpsCounter) -> u64 {
    let w = cand.len();
    let mut total = 0u64;
    for wi in 0..w {
        let mut word = cand[wi];
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            let v = wi * 64 + b;
            let row = g.row(color, v);
            // v's own word, masked to indices strictly greater than v.
            let m = cand[wi] & row[wi] & !((1u64 << b) | ((1u64 << b) - 1));
            let mut pairs = m.count_ones() as u64;
            ops.add(2);
            for j in (wi + 1)..w {
                pairs += (cand[j] & row[j]).count_ones() as u64;
                ops.add(2);
            }
            total += pairs;
            ops.add(1);
        }
    }
    total
}

/// Count `k`-cliques within the subgraph induced by `cand`, where every
/// vertex considered must be greater than the implicit current clique's
/// top vertex (encoded by `cand` already being masked). `scratch` supplies
/// `(k-2) * w` words of workspace so the recursion allocates nothing
/// (`k <= 2` needs none: those sizes run word-wide base cases).
fn count_rec(
    g: &ColoredGraph,
    color: Color,
    cand: &[u64],
    k: usize,
    ops: &mut OpsCounter,
    scratch: &mut [u64],
) -> u64 {
    let w = cand.len();
    if k == 1 {
        ops.add(w as u64);
        return cand.iter().map(|x| x.count_ones() as u64).sum();
    }
    if k == 2 {
        return count_pairs(g, color, cand, ops);
    }
    let (next, rest) = scratch.split_at_mut(w);
    let mut total = 0u64;
    // Iterate set bits of cand; for each vertex v, intersect candidates
    // with v's adjacency restricted to indices > v.
    for wi in 0..w {
        let mut word = cand[wi];
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            let v = wi * 64 + b;
            let row = g.row(color, v);
            next[..wi].fill(0);
            // Mask to indices strictly greater than v.
            for j in wi..w {
                let mut m = cand[j] & row[j];
                if j == wi {
                    // Clear bits 0..=b (safe for b = 63).
                    m &= !((1u64 << b) | ((1u64 << b) - 1));
                }
                next[j] = m;
                ops.add(2);
            }
            if next.iter().any(|&x| x != 0) {
                total += count_rec(g, color, next, k - 1, ops, rest);
            }
            ops.add(1);
        }
    }
    total
}

fn fill_full_candidates(g: &ColoredGraph, cand: &mut [u64]) {
    let n = g.n();
    let w = g.words();
    cand[..w].fill(u64::MAX);
    let tail = n % 64;
    if tail != 0 {
        cand[w - 1] = (1u64 << tail) - 1;
    }
}

/// Count `j`-cliques of `color` within the vertex set `cand`. `j == 0` is
/// the empty clique (always exactly one); `j == 1` is a popcount. Used by
/// the whole-graph counters and the delta-table maintenance.
pub(crate) fn count_in_set(
    g: &ColoredGraph,
    color: Color,
    cand: &[u64],
    j: usize,
    ops: &mut OpsCounter,
    scratch: &mut [u64],
) -> u64 {
    match j {
        0 => 1,
        1 => {
            ops.add(cand.len() as u64);
            cand.iter().map(|x| x.count_ones() as u64).sum()
        }
        2 => count_pairs(g, color, cand, ops),
        _ => count_rec(g, color, cand, j, ops, scratch),
    }
}

/// Count the monochromatic `k`-cliques of one color, reusing `ws`.
pub fn count_mono_ws(
    g: &ColoredGraph,
    color: Color,
    k: usize,
    ops: &mut OpsCounter,
    ws: &mut Workspace,
) -> u64 {
    assert!(k >= 2, "cliques of size < 2 are not meaningful here");
    if g.n() < k {
        return 0;
    }
    let w = g.words();
    ws.ensure(w, k);
    let Workspace { cand, scratch, .. } = ws;
    fill_full_candidates(g, cand);
    count_rec(g, color, &cand[..w], k, ops, scratch)
}

/// Count monochromatic `k`-cliques of both colors, reusing `ws`.
pub fn count_total_ws(g: &ColoredGraph, k: usize, ops: &mut OpsCounter, ws: &mut Workspace) -> u64 {
    count_mono_ws(g, Color::Red, k, ops, ws) + count_mono_ws(g, Color::Blue, k, ops, ws)
}

/// Count the monochromatic `k`-cliques of one color (allocating
/// convenience wrapper over [`count_mono_ws`]).
#[cfg(test)]
fn count_mono(g: &ColoredGraph, color: Color, k: usize, ops: &mut OpsCounter) -> u64 {
    count_mono_ws(g, color, k, ops, &mut Workspace::new())
}

/// Count monochromatic `k`-cliques of both colors (allocating wrapper).
pub fn count_total(g: &ColoredGraph, k: usize, ops: &mut OpsCounter) -> u64 {
    count_total_ws(g, k, ops, &mut Workspace::new())
}

/// Count the `k`-cliques *of the given color* that contain edge `(u, v)`,
/// reusing `ws`. Only meaningful when `(u, v)` currently has that color
/// (the count after recoloring is the same number, since the
/// shared-neighborhood rows do not involve the edge itself).
pub fn count_through_edge_ws(
    g: &ColoredGraph,
    color: Color,
    k: usize,
    u: usize,
    v: usize,
    ops: &mut OpsCounter,
    ws: &mut Workspace,
) -> u64 {
    assert!(k >= 2);
    let w = g.words();
    ws.ensure(w, k);
    let Workspace {
        common, scratch, ..
    } = ws;
    let (ru, rv) = (g.row(color, u), g.row(color, v));
    for j in 0..w {
        common[j] = ru[j] & rv[j];
        ops.add(1);
    }
    if k == 2 {
        return 1;
    }
    count_rec(g, color, &common[..w], k - 2, ops, scratch)
}

/// Count the `k`-cliques of one color through edge `(u, v)` (allocating
/// wrapper over [`count_through_edge_ws`]).
#[cfg(test)]
fn count_through_edge(
    g: &ColoredGraph,
    color: Color,
    k: usize,
    u: usize,
    v: usize,
    ops: &mut OpsCounter,
) -> u64 {
    count_through_edge_ws(g, color, k, u, v, ops, &mut Workspace::new())
}

/// The change in total monochromatic `k`-clique count if edge `(u, v)`
/// were flipped, without mutating the graph; reuses `ws` so steady-state
/// evaluation performs zero heap allocation.
pub fn flip_delta_ws(
    g: &ColoredGraph,
    k: usize,
    u: usize,
    v: usize,
    ops: &mut OpsCounter,
    ws: &mut Workspace,
) -> i64 {
    let cur = g.edge(u, v);
    let removed = count_through_edge_ws(g, cur, k, u, v, ops, ws);
    let added = count_through_edge_ws(g, cur.other(), k, u, v, ops, ws);
    added as i64 - removed as i64
}

/// The change in total monochromatic `k`-clique count if edge `(u, v)`
/// were flipped (allocating wrapper over [`flip_delta_ws`]).
pub fn flip_delta(g: &ColoredGraph, k: usize, u: usize, v: usize, ops: &mut OpsCounter) -> i64 {
    flip_delta_ws(g, k, u, v, ops, &mut Workspace::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::Xoshiro256;

    fn ops() -> OpsCounter {
        OpsCounter::new()
    }

    /// Brute-force reference counter.
    fn brute_count(g: &ColoredGraph, color: Color, k: usize) -> u64 {
        fn rec(
            g: &ColoredGraph,
            color: Color,
            chosen: &mut Vec<usize>,
            start: usize,
            k: usize,
        ) -> u64 {
            if chosen.len() == k {
                return 1;
            }
            let mut total = 0;
            for v in start..g.n() {
                if chosen.iter().all(|&u| g.edge(u, v) == color) {
                    chosen.push(v);
                    total += rec(g, color, chosen, v + 1, k);
                    chosen.pop();
                }
            }
            total
        }
        rec(g, color, &mut Vec::new(), 0, k)
    }

    #[test]
    fn complete_red_graph_counts_binomials() {
        let g = ColoredGraph::monochromatic(10, Color::Red);
        // C(10,3) = 120, C(10,4) = 210, C(10,5) = 252.
        assert_eq!(count_mono(&g, Color::Red, 3, &mut ops()), 120);
        assert_eq!(count_mono(&g, Color::Red, 4, &mut ops()), 210);
        assert_eq!(count_mono(&g, Color::Red, 5, &mut ops()), 252);
        assert_eq!(count_mono(&g, Color::Blue, 3, &mut ops()), 0);
    }

    #[test]
    fn pentagon_has_no_mono_triangle() {
        let g = ColoredGraph::paley(5);
        assert_eq!(count_total(&g, 3, &mut ops()), 0, "C5 proves R(3) > 5");
    }

    #[test]
    fn paley_17_has_no_mono_4_clique() {
        let g = ColoredGraph::paley(17);
        assert_eq!(
            count_total(&g, 4, &mut ops()),
            0,
            "Paley(17) proves R(4) > 17"
        );
        // But it has monochromatic triangles, of course.
        assert!(count_total(&g, 3, &mut ops()) > 0);
    }

    #[test]
    fn k6_must_have_mono_triangle() {
        // R(3) = 6: every coloring on 6 vertices has a mono triangle.
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..50 {
            let g = ColoredGraph::random(6, &mut rng);
            assert!(count_total(&g, 3, &mut ops()) > 0);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for n in [5, 9, 13, 20] {
            for k in [3, 4] {
                let g = ColoredGraph::random(n, &mut rng);
                for color in [Color::Red, Color::Blue] {
                    assert_eq!(
                        count_mono(&g, color, k, &mut ops()),
                        brute_count(&g, color, k),
                        "n={n} k={k} {color:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn through_edge_matches_brute_force() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let g = ColoredGraph::random(15, &mut rng);
        for k in [3, 4] {
            for (u, v) in [(0, 1), (2, 9), (13, 14)] {
                let color = g.edge(u, v);
                // Brute force: count k-subsets containing u, v, all same color.
                let mut expect = 0u64;
                let others: Vec<usize> = (0..15).filter(|&x| x != u && x != v).collect();
                #[allow(clippy::too_many_arguments)]
                fn subsets(
                    g: &ColoredGraph,
                    color: Color,
                    pool: &[usize],
                    chosen: &mut Vec<usize>,
                    start: usize,
                    need: usize,
                    acc: &mut u64,
                    u: usize,
                    v: usize,
                ) {
                    if chosen.len() == need {
                        *acc += 1;
                        return;
                    }
                    for i in start..pool.len() {
                        let x = pool[i];
                        let ok = g.edge(u, x) == color
                            && g.edge(v, x) == color
                            && chosen.iter().all(|&y| g.edge(y, x) == color);
                        if ok {
                            chosen.push(x);
                            subsets(g, color, pool, chosen, i + 1, need, acc, u, v);
                            chosen.pop();
                        }
                    }
                }
                subsets(
                    &g,
                    color,
                    &others,
                    &mut Vec::new(),
                    0,
                    k - 2,
                    &mut expect,
                    u,
                    v,
                );
                assert_eq!(
                    count_through_edge(&g, color, k, u, v, &mut ops()),
                    expect,
                    "k={k} edge=({u},{v})"
                );
            }
        }
    }

    #[test]
    fn flip_delta_matches_recount() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..20 {
            let mut g = ColoredGraph::random(14, &mut rng);
            let k = 4;
            let before = count_total(&g, k, &mut ops()) as i64;
            let (u, v) = (rng.next_below(14) as usize, rng.next_below(14) as usize);
            if u == v {
                continue;
            }
            let delta = flip_delta(&g, k, u, v, &mut ops());
            g.flip(u, v);
            let after = count_total(&g, k, &mut ops()) as i64;
            assert_eq!(after - before, delta, "edge ({u},{v})");
        }
    }

    #[test]
    fn edge_case_k2_counts_edges() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let g = ColoredGraph::random(12, &mut rng);
        let red = count_mono(&g, Color::Red, 2, &mut ops());
        let blue = count_mono(&g, Color::Blue, 2, &mut ops());
        assert_eq!(red + blue, 66, "C(12,2) edges total");
    }

    #[test]
    fn graph_smaller_than_k_has_no_cliques() {
        let g = ColoredGraph::monochromatic(3, Color::Red);
        assert_eq!(count_mono(&g, Color::Red, 4, &mut ops()), 0);
    }

    #[test]
    fn ops_counter_accumulates() {
        let g = ColoredGraph::paley(17);
        let mut c = ops();
        count_total(&g, 4, &mut c);
        assert!(
            c.total() > 100,
            "counting should cost real work: {}",
            c.total()
        );
        let before = c.total();
        count_total(&g, 4, &mut c);
        assert_eq!(c.total(), before * 2);
    }

    #[test]
    fn multiword_graphs_count_correctly() {
        // n=70 spans two words; compare against brute force for k=3.
        let mut rng = Xoshiro256::seed_from_u64(6);
        let g = ColoredGraph::random(70, &mut rng);
        assert_eq!(
            count_mono(&g, Color::Red, 3, &mut ops()),
            brute_count(&g, Color::Red, 3)
        );
    }
}
