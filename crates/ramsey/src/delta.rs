//! Incremental flip-delta maintenance — the engine behind the hot path.
//!
//! The heuristics spend essentially all of their cycles asking "what would
//! flipping edge `(u, v)` do to the monochromatic `k`-clique count?" The
//! naive answer re-runs two full `count_through_edge` passes per query and
//! subtracts. [`DeltaTable`] instead keeps that answer for *every* edge:
//! one signed entry, `E(other, u, v) − E(current, u, v)` (`E` defined
//! below; `current` is the edge's color, `other` the opposite one), so a
//! query is one load — no color read, no branch — and after each applied
//! flip only the entries whose value can have changed are adjusted — found
//! through the same bitset rows the counting kernels use, and adjusted
//! incrementally rather than recounted.
//!
//! # Which entries can a flip touch?
//!
//! Write `E(c, u, v)` for the number of `(k-2)`-cliques of color `c`
//! inside `N_c(u) ∩ N_c(v)` (a through-count). Flip edge `(a, b)` from
//! color `old` to `new`. Because a vertex is never its own neighbor, the
//! set `N_c(a) ∩ N_c(b)` and every intersection below exclude `a` and `b`
//! automatically, which makes them identical before and after the flip —
//! the flip only moves bit `b` of `a`'s rows and bit `a` of `b`'s rows.
//! Three cases:
//!
//! - **`(a, b)` itself: unchanged.** The cliques counted by `E(c, a, b)`
//!   live inside `N_c(a) ∩ N_c(b)`, which contains neither endpoint, so
//!   none of them uses the flipped edge.
//! - **Incident entries `(a, x)` (and symmetrically `(b, x)`).** A
//!   counted clique changes only if it contains `b`, which requires
//!   `b ∈ N_c(a)` (true exactly when `c` is the flip's own color: `old`
//!   before, `new` after) and `x ∈ N_c(b)`. The number of such cliques is
//!   the number of `(k-3)`-cliques of `c` in
//!   `N_c(a) ∩ N_c(b) ∩ N_c(x)` — subtracted for `c = old`, added for
//!   `c = new`.
//! - **Detached entries `(u, v)`, `{u, v} ∩ {a, b} = ∅`.** A counted
//!   clique changes only if it contains *both* `a` and `b` (it would use
//!   the flipped edge), which requires `u, v ∈ N_c(a) ∩ N_c(b)` and
//!   `k >= 4`. The adjustment is the number of `(k-4)`-cliques of `c` in
//!   `N_c(u) ∩ N_c(v) ∩ N_c(a) ∩ N_c(b)` — for `k = 4` that is exactly 1,
//!   for `k = 5` a single AND-popcount.
//!
//! # One signed entry instead of two through-counts
//!
//! The entry of `(p, q)` is `E(other) − E(current)`, so a change of `±c`
//! to `E(color, p, q)` moves it by `∓c` when `(p, q)` itself has `color`
//! (the count is the subtrahend) and by `±c` otherwise. That color is in
//! hand wherever an adjustment is made — `x ∈ N_c(a)` for `(a, x)`,
//! `x ∈ N_c(b)` for `(b, x)`, `v ∈ N_c(u)` for a detached pair, all bits
//! of rows the scan already holds — so maintenance never looks an edge up.
//! The flipped edge's own entry negates: both of its through-counts are
//! unchanged (first case above), but which is `current` and which is
//! `other` has swapped.
//!
//! Every adjustment is word-wide integer arithmetic on the existing rows,
//! charged to the [`OpsCounter`] under the paper's counting discipline
//! (one `add` per loop where the trip count is known up front, the same
//! total as one per item), and the result is bit-identical to recomputing
//! the entry from scratch (debug-asserted in
//! [`crate::search::SearchState`], proptested in `tests/delta_table.rs`,
//! held to the two-array table it replaced in `tests/delta_oracle.rs`).

use crate::cliques::{count_in_set, flip_delta_ws, OpsCounter, Workspace};
use crate::graph::ColoredGraph;

/// Counters describing the table's life so far (the `ramsey.*` telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Flip deltas served by table lookup.
    pub lookups: u64,
    /// Applied flips the table was maintained through.
    pub flips: u64,
    /// Individual entry adjustments performed across all flips.
    pub entries_refreshed: u64,
    /// Entries computed by full rebuilds (construction).
    pub entries_built: u64,
}

/// One signed gain per edge — `n(n-1)/2` entries, each the objective
/// change its edge's flip would cause — kept exact across flips.
#[derive(Clone, Debug)]
pub struct DeltaTable {
    n: usize,
    k: usize,
    /// `E(other, u, v) − E(current, u, v)` for `u < v`, triangular layout.
    gain: Vec<i64>,
    stats: TableStats,
}

/// Position of edge `(u, v)`, `u < v`, in the triangular layout.
#[inline]
pub(crate) fn edge_index(n: usize, u: usize, v: usize) -> usize {
    debug_assert!(u < v && v < n);
    u * (2 * n - u - 1) / 2 + (v - u - 1)
}

#[inline]
fn bit(row: &[u64], x: usize) -> bool {
    row[x / 64] >> (x % 64) & 1 == 1
}

/// Vertex `x`'s bit if it lies in word `j` of a row, else nothing.
#[inline]
fn bit_in_word(j: usize, x: usize) -> u64 {
    ((x / 64 == j) as u64) << (x % 64)
}

impl DeltaTable {
    /// Build the full table for `g`: one naive flip delta per edge.
    /// Cost is `n(n-1)` through-counts, charged to `ops`; afterwards every
    /// query is O(1) and every flip touches only the provably affected
    /// entries.
    pub fn new(g: &ColoredGraph, k: usize, ops: &mut OpsCounter, ws: &mut Workspace) -> Self {
        assert!(k >= 2);
        let n = g.n();
        let edges = n * (n - 1) / 2;
        let mut table = DeltaTable {
            n,
            k,
            gain: vec![0; edges],
            stats: TableStats::default(),
        };
        for u in 0..n {
            for v in (u + 1)..n {
                table.gain[edge_index(n, u, v)] = flip_delta_ws(g, k, u, v, ops, ws);
            }
        }
        table.stats.entries_built = 2 * edges as u64;
        table
    }

    /// Life-so-far counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The objective change if `(u, v)` were flipped: one load. Pure read
    /// — safe to call from parallel scans (stats are bumped by the owning
    /// [`crate::SearchState`]).
    #[inline]
    pub fn delta(&self, u: usize, v: usize) -> i64 {
        self.gain[edge_index(self.n, u.min(v), u.max(v))]
    }

    /// Note `count` table lookups (for hit-rate telemetry).
    pub fn note_lookups(&mut self, count: u64) {
        self.stats.lookups += count;
    }

    /// Maintain the table through the flip of `(a, b)`. `g` must already
    /// be the *post-flip* graph. Only the entries derived in the module
    /// docs are adjusted; each adjustment is an incremental `±` of a small
    /// intersection count, never a from-scratch recount.
    pub fn apply_flip(
        &mut self,
        g: &ColoredGraph,
        a: usize,
        b: usize,
        ops: &mut OpsCounter,
        ws: &mut Workspace,
    ) {
        let (a, b) = (a.min(b), a.max(b));
        self.stats.flips += 1;
        if self.k == 2 {
            // Through-counts for k = 2 are the constant 1: every gain is 0.
            return;
        }
        let n = self.n;
        let w = g.words();
        let k = self.k;
        let new = g.edge(a, b);
        let old = new.other();
        ws.ensure(w, k);
        let Workspace {
            common,
            inter,
            scratch,
            verts,
            ..
        } = ws;
        let gain = &mut self.gain[..];
        // Both through-counts of (a, b) are unchanged; their roles swap.
        let ab = edge_index(n, a, b);
        gain[ab] = -gain[ab];
        let mut refreshed = 0u64;
        for (color, sign) in [(old, -1i64), (new, 1i64)] {
            // `E(color, p, q)` moves by `sign * c`; the entry moves the
            // same way unless `(p, q)` has `color` itself (sign rule).
            let signed = |has: bool, c: u64| (if has { -sign } else { sign }) * c as i64;
            let ra = g.row(color, a);
            let rb = g.row(color, b);
            // S_c = N_c(a) ∩ N_c(b); identical pre/post flip (see module
            // docs), so the post-flip rows are correct for both colors.
            for j in 0..w {
                common[j] = ra[j] & rb[j];
            }
            // One AND per word, one membership test per other vertex.
            ops.add(w as u64 + n as u64 - 2);
            // Incident entries: every x adjacent to a or b in this color.
            for j in 0..w {
                let mut m = (ra[j] | rb[j]) & !(bit_in_word(j, a) | bit_in_word(j, b));
                while m != 0 {
                    let x = j * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let in_a = bit(ra, x);
                    let in_b = bit(rb, x);
                    // (k-3)-cliques of `color` in N_c(a) ∩ N_c(b) ∩ N_c(x).
                    let c3 = if k == 3 {
                        1
                    } else {
                        let rx = g.row(color, x);
                        for i in 0..w {
                            inter[i] = common[i] & rx[i];
                        }
                        ops.add(w as u64);
                        count_in_set(g, color, &inter[..w], k - 3, ops, scratch)
                    };
                    if c3 != 0 {
                        if in_b {
                            gain[edge_index(n, a.min(x), a.max(x))] += signed(in_a, c3);
                            refreshed += 1;
                        }
                        if in_a {
                            gain[edge_index(n, b.min(x), b.max(x))] += signed(in_b, c3);
                            refreshed += 1;
                        }
                        ops.add(2);
                    }
                }
            }
            // Detached entries: pairs inside S_c, only reachable when the
            // counted cliques are big enough to contain both a and b.
            if k >= 4 {
                verts.clear();
                for (wi, &word) in common[..w].iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let t = m.trailing_zeros() as usize;
                        m &= m - 1;
                        verts.push(wi * 64 + t);
                    }
                }
                for i in 0..verts.len() {
                    let u = verts[i];
                    let ru = g.row(color, u);
                    for &v in &verts[i + 1..] {
                        // (k-4)-cliques of `color` in S_c ∩ N_c(u) ∩ N_c(v).
                        let c4 = if k == 4 {
                            1
                        } else {
                            let rv = g.row(color, v);
                            for j in 0..w {
                                inter[j] = common[j] & ru[j] & rv[j];
                            }
                            ops.add(2 * w as u64);
                            count_in_set(g, color, &inter[..w], k - 4, ops, scratch)
                        };
                        if c4 != 0 {
                            gain[edge_index(n, u, v)] += signed(bit(ru, v), c4);
                            refreshed += 1;
                            ops.add(1);
                        }
                    }
                }
            }
        }
        self.stats.entries_refreshed += refreshed;
    }

    /// Recompute every entry from scratch and compare — `true` when the
    /// incrementally maintained table is exact. Test/debug aid, `O(n^2)`
    /// through-counts.
    pub fn verify_against(&self, g: &ColoredGraph) -> bool {
        let mut ops = OpsCounter::new();
        let mut ws = Workspace::new();
        (0..self.n).all(|u| {
            ((u + 1)..self.n).all(|v| {
                self.gain[edge_index(self.n, u, v)]
                    == flip_delta_ws(g, self.k, u, v, &mut ops, &mut ws)
            })
        })
    }

    /// Bytes held by the entry array.
    pub fn bytes(&self) -> usize {
        self.gain.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::flip_delta;
    use ew_sim::Xoshiro256;

    fn fresh(n: usize, k: usize, seed: u64) -> (ColoredGraph, DeltaTable, Workspace) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let g = ColoredGraph::random(n, &mut rng);
        let mut ws = Workspace::new();
        let mut ops = OpsCounter::new();
        let t = DeltaTable::new(&g, k, &mut ops, &mut ws);
        assert!(ops.total() > 0, "construction is charged");
        (g, t, ws)
    }

    #[test]
    fn edge_index_is_dense_triangular() {
        let n = 9;
        let mut seen = vec![false; n * (n - 1) / 2];
        for u in 0..n {
            for v in (u + 1)..n {
                let e = edge_index(n, u, v);
                assert!(!seen[e], "({u},{v}) collides");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fresh_table_matches_naive_deltas() {
        for k in [3, 4, 5] {
            let (g, t, _) = fresh(16, k, 7);
            let mut ops = OpsCounter::new();
            for u in 0..16 {
                for v in (u + 1)..16 {
                    assert_eq!(
                        t.delta(u, v),
                        flip_delta(&g, k, u, v, &mut ops),
                        "k={k} edge ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn table_stays_exact_through_flips() {
        for k in [2, 3, 4, 5] {
            let (mut g, mut t, mut ws) = fresh(14, k, k as u64);
            let mut rng = Xoshiro256::seed_from_u64(99);
            let mut ops = OpsCounter::new();
            for _ in 0..40 {
                let u = rng.next_below(14) as usize;
                let v = rng.next_below(14) as usize;
                if u == v {
                    continue;
                }
                g.flip(u, v);
                t.apply_flip(&g, u, v, &mut ops, &mut ws);
            }
            assert!(t.verify_against(&g), "k={k}");
        }
    }

    #[test]
    fn maintenance_is_charged_and_counted() {
        let (mut g, mut t, mut ws) = fresh(12, 4, 3);
        let mut ops = OpsCounter::new();
        g.flip(2, 9);
        t.apply_flip(&g, 2, 9, &mut ops, &mut ws);
        assert!(ops.total() > 0, "maintenance ops are charged");
        let s = t.stats();
        assert_eq!(s.flips, 1);
        assert!(s.entries_refreshed > 0);
        assert!(s.entries_built > 0);
    }

    #[test]
    fn multiword_table_stays_exact() {
        // n = 70 spans two words; k = 4 exercises the detached-pair path.
        let (mut g, mut t, mut ws) = fresh(70, 4, 17);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut ops = OpsCounter::new();
        for _ in 0..12 {
            let u = rng.next_below(70) as usize;
            let v = rng.next_below(70) as usize;
            if u == v {
                continue;
            }
            g.flip(u, v);
            t.apply_flip(&g, u, v, &mut ops, &mut ws);
        }
        assert!(t.verify_against(&g));
    }

    #[test]
    fn k2_table_is_inert() {
        let (mut g, mut t, mut ws) = fresh(8, 2, 1);
        let mut ops = OpsCounter::new();
        g.flip(0, 1);
        t.apply_flip(&g, 0, 1, &mut ops, &mut ws);
        assert_eq!(t.delta(0, 1), 0, "k=2 deltas are always zero");
        assert!(t.verify_against(&g));
    }
}
