//! # ew-ramsey — the Ramsey Number Search application
//!
//! The first true Grid application (§3): a heuristic search for
//! counter-examples that improve the known lower bounds of classical
//! Ramsey numbers. This crate is the *computational* half — colored
//! graphs, monochromatic-clique counting, flip-delta evaluation, the
//! search heuristics, counter-example verification, and the problem
//! descriptor. The *distributed* half (clients, schedulers, persistent
//! state, gossip) lives in `ew-sched`, `ew-state`, and `everyware`; the
//! scheduling-plane plugin wrapping this kernel lives in `ew-workload`.

#![warn(missing_docs)]

pub mod bounds;
pub mod cliques;
pub mod delta;
pub mod graph;
pub mod search;
pub mod work;

pub use bounds::{exact, verify_counter_example, Verification};
pub use cliques::{count_total_ws, flip_delta_ws, OpsCounter, Workspace};
pub use delta::DeltaTable;
pub use graph::{Color, ColoredGraph};
pub use search::{
    heuristic_by_kind, run_search, GreedyLocal, Heuristic, KernelStats, SearchState, Steepest,
    StepOutcome, TabuSearch,
};
pub use work::RamseyProblem;
