//! Steady-state allocation audit for the hot kernels.
//!
//! A counting global allocator wraps the system allocator; each test
//! warms a kernel up (first calls may grow the [`Workspace`] arena or the
//! delta table) and then asserts that further iterations perform **zero**
//! heap allocations. This is the enforcement half of the "allocation-free
//! kernels" claim — the benches measure speed, this pins the invariant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs the tests of this file on parallel threads,
    // and a process-wide counter would bill each test for its neighbours'
    // allocations. `const`-initialised and `Cell<u64>` has no destructor, so
    // touching it from inside the allocator neither allocates nor registers
    // a TLS destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while the thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

use ew_ramsey::{
    count_total_ws, flip_delta_ws, ColoredGraph, DeltaTable, GreedyLocal, Heuristic, OpsCounter,
    SearchState, Steepest, TabuSearch, Workspace,
};
use ew_sim::Xoshiro256;

#[test]
fn flip_delta_ws_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let g = ColoredGraph::random(43, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    flip_delta_ws(&g, 5, 0, 1, &mut ops, &mut ws); // size the arena
    let before = allocs();
    for u in 0..20usize {
        for v in (u + 1)..21 {
            std::hint::black_box(flip_delta_ws(&g, 5, u, v, &mut ops, &mut ws));
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "flip_delta_ws allocated in steady state"
    );
}

#[test]
fn count_total_ws_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(8);
    let g = ColoredGraph::random(43, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    count_total_ws(&g, 5, &mut ops, &mut ws);
    let before = allocs();
    for _ in 0..5 {
        std::hint::black_box(count_total_ws(&g, 5, &mut ops, &mut ws));
    }
    assert_eq!(
        allocs() - before,
        0,
        "count_total_ws allocated in steady state"
    );
}

#[test]
fn table_maintenance_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(9);
    let mut g = ColoredGraph::random(40, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    let mut table = DeltaTable::new(&g, 5, &mut ops, &mut ws);
    // Warm flips: the `verts` scratch list grows to its high-water mark.
    for i in 0..10usize {
        let (u, v) = (i % 40, (i * 7 + 1) % 40);
        if u == v {
            continue;
        }
        g.flip(u.min(v), u.max(v));
        table.apply_flip(&g, u.min(v), u.max(v), &mut ops, &mut ws);
    }
    let before = allocs();
    for i in 0..200usize {
        let (u, v) = (i % 40, (i * 13 + 3) % 40);
        if u == v {
            continue;
        }
        g.flip(u.min(v), u.max(v));
        table.apply_flip(&g, u.min(v), u.max(v), &mut ops, &mut ws);
        std::hint::black_box(table.delta(0, 1));
    }
    assert_eq!(
        allocs() - before,
        0,
        "table maintenance allocated in steady state"
    );
    assert!(table.verify_against(&g));
}

#[test]
fn greedy_steps_on_table_state_are_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(10);
    let mut state = SearchState::new(ColoredGraph::random(40, &mut rng), 5);
    let mut greedy = GreedyLocal::default();
    for _ in 0..5 {
        greedy.step(&mut state, &mut rng); // warm the workspace + scratch
    }
    let before = allocs();
    for _ in 0..50 {
        greedy.step(&mut state, &mut rng);
    }
    assert_eq!(
        allocs() - before,
        0,
        "greedy steady-state steps allocated with the table enabled"
    );
}

#[test]
fn tabu_step_is_allocation_free_after_the_first_step() {
    let mut rng = Xoshiro256::seed_from_u64(11);
    let mut state = SearchState::new(ColoredGraph::random(40, &mut rng), 5);
    let mut tabu = TabuSearch::default();
    tabu.step(&mut state, &mut rng); // allocates the tenure table
    let before = allocs();
    for _ in 0..500 {
        tabu.step(&mut state, &mut rng);
    }
    assert_eq!(
        allocs() - before,
        0,
        "tabu steady-state steps allocated: the tenure table is sized once"
    );
}

#[test]
fn steepest_step_is_allocation_free_after_the_first_step() {
    let mut rng = Xoshiro256::seed_from_u64(12);
    let mut state = SearchState::new(ColoredGraph::random(40, &mut rng), 5);
    let mut steepest = Steepest::default();
    steepest.step(&mut state, &mut rng); // allocates the tenure table
    let before = allocs();
    for _ in 0..100 {
        steepest.step(&mut state, &mut rng);
    }
    assert_eq!(
        allocs() - before,
        0,
        "steepest steady-state steps allocated: the scan reads the table in place"
    );
}
