//! Hostile input on the work envelopes: `WorkUnit` and `WorkResult` must
//! answer arbitrary, truncated and mutated bytes with `Ok` or `Err`, never a
//! panic, and never size an allocation from a length field alone.
//! (`ExecStats` has no wire form: it never leaves the client.)
//!
//! A `WorkUnit` that decodes is still outside input: `execute_unit` must
//! answer one whose fields are out of range, or whose shipped graph is not
//! the unit's own, without a panic, a hang or an allocation sized by it.

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_ramsey::{Color, ColoredGraph};
use ew_sim::Xoshiro256;
use ew_workload::{execute_unit, ramsey_validator, WorkResult, WorkUnit};
use hostile_wire::{allocated, batter, blob, garbage};
use proptest::prelude::*;

fn unit(k: u32, n: u32, payload: Vec<u8>) -> WorkUnit {
    WorkUnit {
        id: 7,
        arg0: k,
        arg1: n,
        variant: 1,
        seed: 99,
        step_budget: 50,
        payload,
    }
}

/// An out-of-range unit is refused: nothing executed, nothing to store or
/// resume from, and a `progress` no scheduler can mistake for a best state.
fn assert_refused(k: u32, n: u32) {
    let (r, stats) = execute_unit(&unit(k, n, Vec::new()));
    assert_eq!((r.unit_id, r.steps, r.ops), (7, 0, 0), "k={k} n={n}");
    assert!(r.artifact.is_empty() && r.carry.is_empty(), "k={k} n={n}");
    assert_eq!(r.progress, u64::MAX, "k={k} n={n}");
    assert_eq!(stats, Default::default(), "k={k} n={n}");
}

#[test]
fn clique_size_zero_is_refused() {
    assert_refused(0, 17);
    assert_refused(0, 0);
}

#[test]
fn clique_size_one_is_refused() {
    assert_refused(1, 17);
}

/// The state server hands the validator a key off the wire: a clique size
/// the counting kernels would assert on is an `Err`, not a dead server.
#[test]
fn validator_refuses_clique_sizes_below_two() {
    let validate = ramsey_validator();
    let graph = ColoredGraph::paley(5).to_bytes();
    for key in ["ramsey/best/0", "ramsey/best/1"] {
        let refusal = validate(key, &graph).expect_err(key);
        assert!(refusal.contains("clique size below 2"), "{refusal}");
    }
    assert_eq!(validate("ramsey/best/3", &graph), Ok(()));
}

/// A graph with fewer than `k` vertices has no `k`-clique to count, so the
/// recount alone would accept it — and the state server would let it
/// overwrite a verified witness under the same key.
#[test]
fn validator_refuses_graphs_smaller_than_the_clique_size() {
    let validate = ramsey_validator();
    let mut rng = Xoshiro256::seed_from_u64(5);
    for n in [1, 4] {
        let graph = ColoredGraph::random(n, &mut rng).to_bytes();
        let refusal = validate("ramsey/best/5", &graph).expect_err("too small");
        assert!(
            refusal.contains(&format!("{n} vertices")) && refusal.contains("clique size 5"),
            "{refusal}"
        );
    }
    // From `n = k` on, the recount decides: the pentagon has no
    // monochromatic 5-clique, a one-color K5 has one.
    assert_eq!(
        validate("ramsey/best/5", &ColoredGraph::paley(5).to_bytes()),
        Ok(())
    );
    let red = ColoredGraph::monochromatic(5, Color::Red).to_bytes();
    assert!(validate("ramsey/best/5", &red).is_err());
}

#[test]
fn zero_vertices_are_refused() {
    assert_refused(4, 0);
}

#[test]
fn vertex_counts_beyond_the_decode_bound_are_refused() {
    assert_refused(4, ColoredGraph::MAX_VERTICES as u32 + 1);
    assert_refused(4, u32::MAX);
}

/// The smallest graph and every `k > n` are in range and trivially solved:
/// no clique fits, so the start coloring is the witness and no step runs —
/// whatever `k` claims, the workspace is sized by `n`.
#[test]
fn degenerate_in_range_units_solve_in_zero_steps() {
    for (k, n) in [(2, 1), (4, 1), (6, 5), (u32::MAX, 5), (u32::MAX, 17)] {
        let before = allocated();
        let (r, _) = execute_unit(&unit(k, n, Vec::new()));
        let spent = allocated() - before;
        assert_eq!((r.steps, r.progress), (0, 0), "k={k} n={n}");
        assert_eq!(
            ColoredGraph::from_bytes(&r.artifact).unwrap().n(),
            n as usize
        );
        assert!(spent < 64 << 10, "k={k} n={n} allocated {spent} bytes");
    }
}

/// A well-formed shipped graph of the wrong size is a corrupt payload: the
/// unit runs from its own seeded random start, exactly as if nothing had
/// been shipped.
#[test]
fn mismatched_payload_falls_back_to_the_seeded_start() {
    let shipped = unit(3, 17, ColoredGraph::paley(5).to_bytes());
    let (r, _) = execute_unit(&shipped);
    assert_eq!(ColoredGraph::from_bytes(&r.carry).unwrap().n(), 17);
    assert_eq!(r, execute_unit(&unit(3, 17, Vec::new())).0);
}

/// The largest graph `from_bytes` accepts, shipped for a 17-vertex unit,
/// is turned away at its header: the client neither decodes it (4 MiB)
/// nor sizes a delta or tenure table from it (67–134 MB each).
#[test]
fn oversized_payload_is_not_decoded_for_a_small_unit() {
    let n = ColoredGraph::MAX_VERTICES;
    let mut payload = vec![0x5A; 4 + (n * (n - 1) / 2).div_ceil(8)];
    payload[..4].copy_from_slice(&(n as u32).to_be_bytes());
    let shipped = unit(4, 17, payload);
    let before = allocated();
    let (r, _) = execute_unit(&shipped);
    let spent = allocated() - before;
    assert_eq!(ColoredGraph::from_bytes(&r.carry).unwrap().n(), 17);
    assert_eq!(r.steps, 50);
    assert!(spent < 64 << 10, "a 17-vertex unit allocated {spent} bytes");
}

proptest! {
    #[test]
    fn work_envelopes_survive_hostile_bytes(
        ids in (any::<u64>(), any::<u32>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<u64>()),
        blobs in (blob(), blob()),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (id, arg0, arg1, variant, seed, step_budget) = ids;
        let unit = WorkUnit { id, arg0, arg1, variant, seed, step_budget, payload: blobs.0.clone() };
        batter(&unit, &noise, flip)?;
        let result = WorkResult {
            unit_id: id,
            steps: step_budget,
            ops: seed,
            progress: arg0 as u64,
            artifact: blobs.0,
            carry: blobs.1,
        };
        batter(&result, &noise, flip)?;
    }
}
