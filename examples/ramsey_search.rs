//! Real Ramsey-number counter-example search over real TCP.
//!
//! Runs the live runtime (`everyware::live`): an actual scheduler process
//! and worker threads exchanging lingua-franca packets over loopback
//! sockets, each worker executing genuine heuristic search. Proves
//! `R(3) > 5` and `R(4) > 17` by finding and verifying counter-examples,
//! then prints the witnesses.
//!
//! ```text
//! cargo run --release --example ramsey_search
//! ```

use std::time::Duration;

use everyware::{run_live, LiveConfig};
use ew_ramsey::{Color, ColoredGraph, RamseyProblem};

fn render(g: &ColoredGraph) -> String {
    let mut out = String::new();
    for u in 0..g.n() {
        for v in 0..g.n() {
            out.push(if u == v {
                '·'
            } else if g.edge(u, v) == Color::Red {
                'R'
            } else {
                'b'
            });
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn prove(k: u32, n: u32, step_budget: u64, units: u64) {
    println!("=== searching for a witness that R({k}) > {n} ===");
    let out = run_live(&LiveConfig {
        workers: 4,
        problem: RamseyProblem { k, n },
        step_budget,
        units,
        deadline: Duration::from_secs(120),
    })
    .expect("loopback bind");
    println!(
        "{} workers, {} units returned, {:.3e} useful ops, {:?} elapsed",
        out.workers_heard,
        out.results.len(),
        out.total_ops as f64,
        out.elapsed
    );
    match out.witnesses.first() {
        Some(w) => {
            println!(
                "verified: a 2-coloring of K{n} with no monochromatic {k}-clique exists, so R({k}) > {n}.\n"
            );
            println!("{}", render(w));
        }
        None => println!("no witness found within the budget — raise step_budget/units.\n"),
    }
}

fn steepest_r5_taste() {
    // §6: "to search for R6, we will need to parallelize some of the
    // individual heuristics". Steepest reads the delta of all 903 edges of
    // a 43-vertex coloring per step, one table load each: a pick takes a
    // few µs, less than spreading it over threads would cost, so it runs
    // on one. R(5) ≥ 43 was the open frontier at SC98; a counter-example
    // will not fall out in seconds, but the objective should plunge.
    use ew_ramsey::{SearchState, Steepest};
    use ew_sim::Xoshiro256;
    println!("=== steepest descent on the R(5) 43-vertex frontier ===");
    let mut rng = Xoshiro256::seed_from_u64(1998);
    let mut state = SearchState::random(43, 5, &mut rng);
    let start_count = state.count();
    let mut h = Steepest::default();
    let t0 = std::time::Instant::now();
    let rep = ew_ramsey::run_search(&mut state, &mut h, &mut rng, 400);
    println!(
        "{} steps, {:.3e} ops, monochromatic 5-cliques {} -> {} (best {}), {:?}",
        rep.steps,
        rep.ops as f64,
        start_count,
        state.count(),
        rep.best_count,
        t0.elapsed()
    );
}

fn main() {
    // R(3) = 6: a pentagon-like witness on 5 vertices is easy.
    prove(3, 5, 2_000, 16);
    // R(4) = 18: a 17-vertex witness (Paley(17) is one) takes real search.
    prove(4, 17, 30_000, 64);
    steepest_r5_taste();
    println!(
        "(For scale: the SC98 application searched 43-vertex colorings for R(5),\n\
         a 2^903-point space, across seven Grid infrastructures.)"
    );
}
