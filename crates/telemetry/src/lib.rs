//! `ew-telemetry`: metrics and tracing for the EveryWare workspace.
//!
//! The crate has two halves:
//!
//! - A [`Registry`] that interns metric names **once** (at process spawn
//!   time in the simulator) and hands back copyable integer handles —
//!   [`CounterId`], [`GaugeId`], [`SeriesId`], [`HistogramId`]. The hot
//!   path (`add`, `record`, `observe`) is then a bounds-checked `Vec`
//!   index, not a string hash + map probe.
//! - A span tracer: [`SpanId`]s name phases of work (kernel dispatch,
//!   gossip reconciliation, clique token passing, scheduler migration,
//!   request/response timeouts); enter/exit records land in a bounded
//!   ring (`TraceBuffer`) and export as deterministic JSONL.
//!
//! Tracing is **off by default** and free when off: `span_enter`/
//! `span_exit` reduce to one branch on an `Option` discriminant, and the
//! tracer is observational only — nothing in it feeds back into caller
//! behavior, so a simulation run is bit-identical with tracing on or off.
//!
//! Timestamps everywhere are raw microseconds (`u64`). This crate sits
//! below the simulator and must not depend on its time newtypes; callers
//! convert at the boundary.

mod histogram;
mod registry;
mod trace;

pub use histogram::{Histogram, HistogramSummary};
pub use registry::{CounterId, GaugeId, HistogramId, Registry, SeriesId, SpanId, SubsystemHealth};
