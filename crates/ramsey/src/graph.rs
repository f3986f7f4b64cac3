//! Two-colored complete graphs.
//!
//! The Ramsey search works "in the space of complete two-colored graphs"
//! (§3): every pair of vertices carries one of two colors, and a
//! counter-example for `R(k,k) > n` is a coloring of the complete graph on
//! `n` vertices with no monochromatic `k`-clique. [`ColoredGraph`] stores
//! one adjacency bitset per color per vertex so clique counting (the
//! application's hot kernel) runs on word-wide AND/popcount operations.

use ew_sim::Xoshiro256;

/// One of the two edge colors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Color {
    /// "Red" edges.
    Red,
    /// "Blue" edges.
    Blue,
}

impl Color {
    /// The other color.
    pub fn other(self) -> Color {
        match self {
            Color::Red => Color::Blue,
            Color::Blue => Color::Red,
        }
    }
}

/// A complete graph on `n` vertices with two-colored edges, stored as two
/// complementary bitset adjacency matrices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColoredGraph {
    n: usize,
    w: usize,
    red: Vec<u64>,
    blue: Vec<u64>,
}

impl ColoredGraph {
    /// Largest vertex count accepted from outside input (a shipped graph's
    /// header, a work unit's `n`): bounds every allocation sized from it.
    pub const MAX_VERTICES: usize = 4096;

    /// Complete graph with every edge the given color.
    pub fn monochromatic(n: usize, color: Color) -> Self {
        assert!(n >= 1, "graph needs at least one vertex");
        let w = n.div_ceil(64);
        let mut g = ColoredGraph {
            n,
            w,
            red: vec![0; n * w],
            blue: vec![0; n * w],
        };
        let full = match color {
            Color::Red => &mut g.red,
            Color::Blue => &mut g.blue,
        };
        for v in 0..n {
            for word in 0..w {
                let mut bits = u64::MAX;
                let lo = word * 64;
                if lo + 64 > n {
                    bits = if n > lo { (1u64 << (n - lo)) - 1 } else { 0 };
                }
                // Clear the diagonal bit.
                if v / 64 == word {
                    bits &= !(1u64 << (v % 64));
                }
                full[v * w + word] = bits;
            }
        }
        g
    }

    /// Uniformly random coloring.
    pub fn random(n: usize, rng: &mut Xoshiro256) -> Self {
        let mut g = ColoredGraph::monochromatic(n, Color::Blue);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.chance(0.5) {
                    g.set_edge(u, v, Color::Red);
                }
            }
        }
        g
    }

    /// The Paley graph on `q` vertices (`q` prime, `q ≡ 1 mod 4`): edge
    /// `(u, v)` is red iff `u - v` is a quadratic residue mod `q`. Paley
    /// graphs are the classical Ramsey lower-bound witnesses — Paley(5) is
    /// the pentagon proving `R(3) > 5`, Paley(17) proves `R(4) > 17`.
    pub fn paley(q: usize) -> Self {
        assert!(q % 4 == 1, "Paley graphs need q ≡ 1 (mod 4)");
        // The quadratic-residue table below is only meaningful over the
        // field Z/q — for composite q this would silently build a graph
        // that is neither self-complementary nor a Ramsey witness.
        assert!(is_prime(q), "Paley graphs need prime q, got {q}");
        let mut is_qr = vec![false; q];
        for x in 1..q {
            is_qr[(x * x) % q] = true;
        }
        let mut g = ColoredGraph::monochromatic(q, Color::Blue);
        for u in 0..q {
            for v in (u + 1)..q {
                if is_qr[(v - u) % q] {
                    g.set_edge(u, v, Color::Red);
                }
            }
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per adjacency row.
    pub fn words(&self) -> usize {
        self.w
    }

    /// Number of edges (`n(n-1)/2`).
    pub fn edge_count(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    /// Color of edge `(u, v)`.
    pub fn edge(&self, u: usize, v: usize) -> Color {
        debug_assert!(u != v && u < self.n && v < self.n);
        if self.red[u * self.w + v / 64] >> (v % 64) & 1 == 1 {
            Color::Red
        } else {
            Color::Blue
        }
    }

    /// Set edge `(u, v)` to `color` (both directions).
    pub fn set_edge(&mut self, u: usize, v: usize, color: Color) {
        debug_assert!(u != v && u < self.n && v < self.n);
        let (on, off) = match color {
            Color::Red => (&mut self.red, &mut self.blue),
            Color::Blue => (&mut self.blue, &mut self.red),
        };
        for (a, b) in [(u, v), (v, u)] {
            on[a * self.w + b / 64] |= 1u64 << (b % 64);
            off[a * self.w + b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// Flip edge `(u, v)` to its other color; returns the new color.
    pub fn flip(&mut self, u: usize, v: usize) -> Color {
        let new = self.edge(u, v).other();
        self.set_edge(u, v, new);
        new
    }

    /// Adjacency row of `v` in the given color.
    pub fn row(&self, color: Color, v: usize) -> &[u64] {
        let m = match color {
            Color::Red => &self.red,
            Color::Blue => &self.blue,
        };
        &m[v * self.w..(v + 1) * self.w]
    }

    /// Degree of `v` in the given color.
    #[cfg(test)]
    fn degree(&self, color: Color, v: usize) -> u32 {
        self.row(color, v).iter().map(|w| w.count_ones()).sum()
    }

    /// Serialize to a portable byte form (red upper-triangle bits,
    /// row-major, big-endian length header) — the form checkpointed to
    /// persistent state managers and shipped between clients.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.edge_count() / 8 + 1);
        out.extend_from_slice(&(self.n as u32).to_be_bytes());
        let mut acc: u8 = 0;
        let mut nbits = 0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                acc <<= 1;
                if self.edge(u, v) == Color::Red {
                    acc |= 1;
                }
                nbits += 1;
                if nbits == 8 {
                    out.push(acc);
                    acc = 0;
                    nbits = 0;
                }
            }
        }
        if nbits > 0 {
            out.push(acc << (8 - nbits));
        }
        out
    }

    /// Inverse of [`ColoredGraph::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        let n = u32::from_be_bytes(bytes[..4].try_into().ok()?) as usize;
        if n == 0 || n > Self::MAX_VERTICES {
            return None;
        }
        let edges = n * (n - 1) / 2;
        let need = 4 + edges.div_ceil(8);
        if bytes.len() != need {
            return None;
        }
        let mut g = ColoredGraph::monochromatic(n, Color::Blue);
        let mut bit = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                let byte = bytes[4 + bit / 8];
                if byte >> (7 - bit % 8) & 1 == 1 {
                    g.set_edge(u, v, Color::Red);
                }
                bit += 1;
            }
        }
        Some(g)
    }

    /// Internal consistency: red and blue rows are complementary and
    /// symmetric, diagonals clear.
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        for u in 0..self.n {
            for v in 0..self.n {
                let r = self.red[u * self.w + v / 64] >> (v % 64) & 1;
                let b = self.blue[u * self.w + v / 64] >> (v % 64) & 1;
                if u == v {
                    if r != 0 || b != 0 {
                        return false;
                    }
                } else {
                    if r + b != 1 {
                        return false;
                    }
                    let rt = self.red[v * self.w + u / 64] >> (u % 64) & 1;
                    if r != rt {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Trial-division primality — `paley` sizes are tiny, so this is plenty.
fn is_prime(q: usize) -> bool {
    if q < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= q {
        if q.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Iterate the set bits (vertex indices) of a bitset row.
#[cfg(test)]
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn monochromatic_construction() {
        for n in [1, 2, 5, 63, 64, 65, 130] {
            let g = ColoredGraph::monochromatic(n, Color::Red);
            assert!(g.check_invariants(), "n={n}");
            for u in 0..n {
                assert_eq!(g.degree(Color::Red, u), (n - 1) as u32);
                assert_eq!(g.degree(Color::Blue, u), 0);
            }
        }
    }

    #[test]
    fn set_and_flip_edges() {
        let mut g = ColoredGraph::monochromatic(6, Color::Blue);
        assert_eq!(g.edge(0, 5), Color::Blue);
        g.set_edge(0, 5, Color::Red);
        assert_eq!(g.edge(0, 5), Color::Red);
        assert_eq!(g.edge(5, 0), Color::Red, "symmetric");
        assert_eq!(g.flip(0, 5), Color::Blue);
        assert_eq!(g.edge(0, 5), Color::Blue);
        assert!(g.check_invariants());
    }

    #[test]
    fn random_graph_valid_and_seed_stable() {
        let mut r1 = Xoshiro256::seed_from_u64(4);
        let mut r2 = Xoshiro256::seed_from_u64(4);
        let g1 = ColoredGraph::random(43, &mut r1);
        let g2 = ColoredGraph::random(43, &mut r2);
        assert_eq!(g1, g2);
        assert!(g1.check_invariants());
        // Roughly half the edges each color.
        let red: u32 = (0..43).map(|v| g1.degree(Color::Red, v)).sum();
        let frac = red as f64 / (43.0 * 42.0);
        assert!((0.4..0.6).contains(&frac), "red fraction {frac}");
    }

    #[test]
    fn paley_pentagon_is_two_cycles() {
        let g = ColoredGraph::paley(5);
        assert!(g.check_invariants());
        for v in 0..5 {
            assert_eq!(g.degree(Color::Red, v), 2);
            assert_eq!(g.degree(Color::Blue, v), 2);
        }
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn paley_rejects_composite_q() {
        // 9 ≡ 1 (mod 4) but is composite: the residue table would be
        // garbage, so construction must refuse.
        let _ = ColoredGraph::paley(9);
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn paley_rejects_composite_q_33() {
        let _ = ColoredGraph::paley(33); // 33 = 3 · 11, 33 ≡ 1 (mod 4)
    }

    #[test]
    fn paley_17_is_self_complementary_regular() {
        let g = ColoredGraph::paley(17);
        assert!(g.check_invariants());
        for v in 0..17 {
            assert_eq!(g.degree(Color::Red, v), 8);
            assert_eq!(g.degree(Color::Blue, v), 8);
        }
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for n in [1, 2, 3, 17, 43, 64, 65] {
            let g = ColoredGraph::random(n, &mut rng);
            let bytes = g.to_bytes();
            let back = ColoredGraph::from_bytes(&bytes).expect("decode");
            assert_eq!(g, back, "n={n}");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ColoredGraph::from_bytes(&[]).is_none());
        assert!(ColoredGraph::from_bytes(&[0, 0, 0, 0]).is_none(), "n=0");
        assert!(ColoredGraph::from_bytes(&[0xFF; 4]).is_none(), "n too big");
        // Wrong payload length for n=5 (needs 4 + 2 bytes).
        assert!(ColoredGraph::from_bytes(&[0, 0, 0, 5, 1]).is_none());
        assert!(ColoredGraph::from_bytes(&[0, 0, 0, 5, 1, 2, 3]).is_none());
    }

    #[test]
    fn iter_bits_walks_set_bits() {
        let row = [0b1010u64, 0, 1 << 63];
        let bits: Vec<usize> = iter_bits(&row).collect();
        assert_eq!(bits, vec![1, 3, 191]);
        assert_eq!(iter_bits(&[0u64; 3]).count(), 0);
    }

    #[test]
    fn row_matches_edge_queries() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        let g = ColoredGraph::random(70, &mut rng);
        for v in [0, 35, 69] {
            let red_neigh: Vec<usize> = iter_bits(g.row(Color::Red, v)).collect();
            for u in 0..70 {
                let expect = u != v && g.edge(u, v) == Color::Red;
                assert_eq!(red_neigh.contains(&u), expect);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bytes_round_trip(n in 2usize..40, seed: u64) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let g = ColoredGraph::random(n, &mut rng);
            prop_assert_eq!(ColoredGraph::from_bytes(&g.to_bytes()).unwrap(), g);
        }

        #[test]
        fn prop_flips_preserve_invariants(seed: u64, flips in proptest::collection::vec((0usize..20, 0usize..20), 0..50)) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut g = ColoredGraph::random(20, &mut rng);
            for (u, v) in flips {
                if u != v {
                    g.flip(u, v);
                }
            }
            prop_assert!(g.check_invariants());
        }
    }
}
