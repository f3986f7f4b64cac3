//! Oracle test for the single-array delta table: the two through-count
//! arrays (`red`, `blue`), the `for x in 0..n` incident scan and the
//! per-item `ops.add(1)` charges this crate shipped before are kept here
//! as the reference, and the production `DeltaTable` must agree with it
//! after construction and after every flip — every edge's `delta`, the
//! `OpsCounter` total, every `TableStats` field. Counted ops are the
//! paper's figure of merit and ride the wire inside `WorkResult`s, so an
//! optimisation may change host time per op and nothing else.

use proptest::prelude::*;

use ew_ramsey::cliques::count_through_edge_ws;
use ew_ramsey::delta::TableStats;
use ew_ramsey::{
    heuristic_by_kind, run_search, Color, ColoredGraph, DeltaTable, Heuristic, OpsCounter,
    SearchState, Steepest, Workspace,
};
use ew_sim::Xoshiro256;
use ew_workload::{execute_unit, WorkUnit};

/// The triangular index `delta.rs` used before its square layout, kept as
/// the oracle's own layout.
fn edge_index(n: usize, u: usize, v: usize) -> usize {
    u * (2 * n - u - 1) / 2 + (v - u - 1)
}

fn bit(row: &[u64], x: usize) -> bool {
    row[x / 64] >> (x % 64) & 1 == 1
}

/// `cliques.rs`'s crate-private `count_in_set`, transcribed for the clique
/// sizes maintenance reaches at `k <= 5` (`j <= 2`; `j == 2` is its
/// `count_pairs`).
fn count_in_set(
    g: &ColoredGraph,
    color: Color,
    cand: &[u64],
    j: usize,
    ops: &mut OpsCounter,
) -> u64 {
    let w = cand.len();
    match j {
        0 => 1,
        1 => {
            ops.add(w as u64);
            cand.iter().map(|x| x.count_ones() as u64).sum()
        }
        2 => {
            let mut total = 0u64;
            for wi in 0..w {
                let mut word = cand[wi];
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = g.row(color, wi * 64 + b);
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
        _ => unreachable!("the oracle runs k <= 5"),
    }
}

/// The parent's `DeltaTable`, both arrays and all.
struct ParentTable {
    n: usize,
    k: usize,
    red: Vec<u64>,
    blue: Vec<u64>,
    stats: TableStats,
    common: Vec<u64>,
    inter: Vec<u64>,
    verts: Vec<usize>,
}

impl ParentTable {
    fn new(g: &ColoredGraph, k: usize, ops: &mut OpsCounter, ws: &mut Workspace) -> Self {
        let n = g.n();
        let edges = n * (n - 1) / 2;
        let mut table = ParentTable {
            n,
            k,
            red: vec![0; edges],
            blue: vec![0; edges],
            stats: TableStats::default(),
            common: vec![0; g.words()],
            inter: vec![0; g.words()],
            verts: Vec::new(),
        };
        for u in 0..n {
            for v in (u + 1)..n {
                let e = edge_index(n, u, v);
                table.red[e] = count_through_edge_ws(g, Color::Red, k, u, v, ops, ws);
                table.blue[e] = count_through_edge_ws(g, Color::Blue, k, u, v, ops, ws);
            }
        }
        table.stats.entries_built = 2 * edges as u64;
        table
    }

    fn delta(&self, g: &ColoredGraph, u: usize, v: usize) -> i64 {
        let (u, v) = (u.min(v), u.max(v));
        let e = edge_index(self.n, u, v);
        match g.edge(u, v) {
            Color::Red => self.blue[e] as i64 - self.red[e] as i64,
            Color::Blue => self.red[e] as i64 - self.blue[e] as i64,
        }
    }

    fn apply_flip(&mut self, g: &ColoredGraph, a: usize, b: usize, ops: &mut OpsCounter) {
        let (a, b) = (a.min(b), a.max(b));
        self.stats.flips += 1;
        if self.k == 2 {
            return;
        }
        let n = self.n;
        let w = g.words();
        let k = self.k;
        let new = g.edge(a, b);
        let old = new.other();
        let (common, inter, verts) = (&mut self.common, &mut self.inter, &mut self.verts);
        let mut refreshed = 0u64;
        for (color, sign) in [(old, -1i64), (new, 1i64)] {
            let entries: &mut [u64] = match color {
                Color::Red => &mut self.red,
                Color::Blue => &mut self.blue,
            };
            let ra = g.row(color, a);
            let rb = g.row(color, b);
            for j in 0..w {
                common[j] = ra[j] & rb[j];
                ops.add(1);
            }
            for x in 0..n {
                if x == a || x == b {
                    continue;
                }
                let in_a = bit(ra, x);
                let in_b = bit(rb, x);
                ops.add(1);
                if !in_a && !in_b {
                    continue;
                }
                let c3 = if k == 3 {
                    1
                } else {
                    let rx = g.row(color, x);
                    for j in 0..w {
                        inter[j] = common[j] & rx[j];
                        ops.add(1);
                    }
                    count_in_set(g, color, &inter[..w], k - 3, ops)
                };
                if c3 != 0 {
                    if in_b {
                        let e = edge_index(n, a.min(x), a.max(x));
                        entries[e] = (entries[e] as i64 + sign * c3 as i64) as u64;
                        refreshed += 1;
                    }
                    if in_a {
                        let e = edge_index(n, b.min(x), b.max(x));
                        entries[e] = (entries[e] as i64 + sign * c3 as i64) as u64;
                        refreshed += 1;
                    }
                    ops.add(2);
                }
            }
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
                        let c4 = if k == 4 {
                            1
                        } else {
                            let rv = g.row(color, v);
                            for j in 0..w {
                                inter[j] = common[j] & ru[j] & rv[j];
                                ops.add(2);
                            }
                            count_in_set(g, color, &inter[..w], k - 4, ops)
                        };
                        if c4 != 0 {
                            let e = edge_index(n, u, v);
                            entries[e] = (entries[e] as i64 + sign * c4 as i64) as u64;
                            refreshed += 1;
                            ops.add(1);
                        }
                    }
                }
            }
        }
        self.stats.entries_refreshed += refreshed;
    }
}

/// Every edge's delta, the op totals and every `TableStats` field.
fn assert_tables_agree(
    g: &ColoredGraph,
    table: &DeltaTable,
    parent: &ParentTable,
    ops: (OpsCounter, OpsCounter),
    at: usize,
) -> Result<(), TestCaseError> {
    for u in 0..g.n() {
        for v in (u + 1)..g.n() {
            prop_assert_eq!(
                table.delta(u, v),
                parent.delta(g, u, v),
                "edge ({}, {}) after {} flips",
                u,
                v,
                at
            );
        }
    }
    prop_assert_eq!(ops.0, ops.1, "ops after {} flips", at);
    prop_assert_eq!(table.stats(), parent.stats, "stats after {} flips", at);
    prop_assert!(table.verify_against(g), "drifted after {} flips", at);
    Ok(())
}

proptest! {
    #[test]
    fn table_matches_the_two_array_oracle(
        shape in (3usize..71, 2usize..6),
        flips in proptest::collection::vec((0usize..70, 0usize..70), 0..41),
        seed in any::<u64>(),
    ) {
        let (n, k) = shape;
        let mut g = ColoredGraph::random(n, &mut Xoshiro256::seed_from_u64(seed));
        let (mut ops, mut parent_ops) = (OpsCounter::new(), OpsCounter::new());
        let (mut ws, mut parent_ws) = (Workspace::new(), Workspace::new());
        let mut table = DeltaTable::new(&g, k, &mut ops, &mut ws);
        let mut parent = ParentTable::new(&g, k, &mut parent_ops, &mut parent_ws);
        assert_tables_agree(&g, &table, &parent, (ops, parent_ops), 0)?;
        for (i, (u, v)) in flips.into_iter().enumerate() {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            g.flip(u, v);
            table.apply_flip(&g, u, v, &mut ops, &mut ws);
            parent.apply_flip(&g, u, v, &mut parent_ops);
            assert_tables_agree(&g, &table, &parent, (ops, parent_ops), i + 1)?;
        }
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(steps, ops, progress, fnv64(carry), table_lookups, entries_refreshed)`
/// of one work unit, as a computational client executes it.
type UnitTrace = (u64, u64, u64, u64, u64, u64);

fn unit_trace(k: u32, n: u32, variant: u8, step_budget: u64) -> UnitTrace {
    let (r, stats) = execute_unit(&WorkUnit {
        id: 1,
        arg0: k,
        arg1: n,
        variant,
        seed: 1998,
        step_budget,
        payload: Vec::new(),
    });
    (
        r.steps,
        r.ops,
        r.progress,
        fnv64(&r.carry),
        stats.table_lookups,
        stats.entries_refreshed,
    )
}

/// Captured at the parent of the single-array change (`f1b62c9`, the
/// two-array table); a re-capture means counted ops or a trajectory moved.
/// Greedy and anneal have no other pinned `ops()`.
#[test]
fn golden_unit_traces() {
    for variant in 0..3u8 {
        assert_eq!(
            unit_trace(4, 17, variant, 1_500),
            GOLDEN_R4_N17[variant as usize],
            "R(4) n=17 variant {variant}"
        );
        assert_eq!(
            unit_trace(5, 43, variant, 200),
            GOLDEN_R5_N43[variant as usize],
            "R(5) n=43 variant {variant}"
        );
    }
}

const GOLDEN_R4_N17: [UnitTrace; 3] = [
    (1_500, 282_852, 4, 0x4e36622148510219, 97_500, 39_483),
    (1_500, 332_998, 6, 0xcc0a22ea6f02a84c, 145_500, 43_779),
    (1_500, 126_756, 24, 0xead39894972a8d94, 2_487, 33_548),
];
const GOLDEN_R5_N43: [UnitTrace; 3] = [
    (200, 296_787, 296, 0xb7664575fbb78a44, 13_000, 28_596),
    (200, 305_875, 280, 0x7eeedd7a7c7aafd1, 19_400, 28_965),
    (200, 148_154, 889, 0x1656e7e7305db0a6, 300, 15_447),
];

/// `(ops, table_lookups, table_flips, entries_refreshed, next rng draw)`
/// after one search run: what a change to how a scan charges its lookups
/// must leave exactly where it was.
type KernelCounters = (u64, u64, u64, u64, u64);

fn kernel_counters(
    k: usize,
    n: usize,
    heuristic: &mut dyn Heuristic,
    steps: u64,
) -> KernelCounters {
    let mut rng = Xoshiro256::seed_from_u64(1998);
    let mut state = SearchState::random(n, k, &mut rng);
    run_search(&mut state, heuristic, &mut rng, steps);
    let s = state.kernel_stats();
    (
        state.ops(),
        s.table_lookups,
        s.table_flips,
        s.entries_refreshed,
        rng.next_u64(),
    )
}

/// Captured at the parent of the square-index change (`54aa0a6`, the
/// triangular index, per-candidate `SearchState::delta` charges and the
/// two-bit incident scan). Greedy, tabu and anneal in `heuristic_by_kind`
/// order, then `Steepest`.
#[test]
fn golden_kernel_counters() {
    for (i, (k, n, steps)) in [(4, 17, 1_500), (5, 43, 200)].into_iter().enumerate() {
        let golden = [GOLDEN_COUNTERS_R4_N17, GOLDEN_COUNTERS_R5_N43][i];
        for kind in 0..3u8 {
            assert_eq!(
                kernel_counters(k, n, heuristic_by_kind(kind).as_mut(), steps),
                golden[kind as usize],
                "R({k}) n={n} kind {kind}"
            );
        }
        assert_eq!(
            kernel_counters(k, n, &mut Steepest::default(), steps),
            golden[3],
            "R({k}) n={n} steepest"
        );
    }
}

const GOLDEN_COUNTERS_R4_N17: [KernelCounters; 4] = [
    (287_222, 97_500, 1_500, 39_483, 0x3c8d_a913_4ad9_9c21),
    (337_368, 145_500, 1_500, 43_779, 0xd70f_e3aa_56a5_db22),
    (131_126, 2_487, 987, 33_548, 0xc37d_d2a2_6330_a571),
    (395_494, 204_000, 1_500, 43_362, 0x8786_e23c_9f74_681b),
];
const GOLDEN_COUNTERS_R5_N43: [KernelCounters; 4] = [
    (514_374, 13_000, 200, 28_596, 0xd88e_6a78_dd39_2c6f),
    (523_462, 19_400, 200, 28_965, 0xefe0_625a_23bf_433a),
    (365_741, 300, 100, 15_447, 0x6245_94ff_b6c7_26ca),
    (680_254, 180_600, 200, 28_059, 0xc55a_31c5_8ccb_cdb1),
];
