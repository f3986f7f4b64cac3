//! `ew-telemetry`: metrics and tracing for the EveryWare workspace.
//!
//! The crate has two halves:
//!
//! - A [`Registry`] that interns metric names **once** (at process spawn
//!   time in the simulator) and hands back copyable integer handles —
//!   [`CounterId`], [`GaugeId`], [`SeriesId`], [`HistogramId`]. The hot
//!   path (`add`, `record`, `observe`) is then a bounds-checked `Vec`
//!   index, not a string hash + map probe. A time series holds fixed-width
//!   [`Bin`]s whose width its reader declares before the run, not the
//!   samples themselves: its memory grows with the run's length in bins,
//!   not with how often it is recorded.
//! - A span tracer: [`SpanId`]s name phases of work (kernel dispatch,
//!   gossip reconciliation, clique token passing, scheduler migration,
//!   request/response timeouts); each record is one point
//!   `{t_us, span, actor, tag}` in a bounded ring (`TraceBuffer`; the
//!   3.02 M-record 12-hour SC98 trace fits `figures --trace`'s 4.19 M)
//!   and exports as deterministic JSONL.
//!
//! Tracing is **off by default** and free when off: `Registry::mark`
//! reduces to one branch on an `Option` discriminant, and the
//! tracer is observational only — nothing in it feeds back into caller
//! behavior, so a simulation run is bit-identical with tracing on or off.
//!
//! Timestamps everywhere are raw microseconds (`u64`). This crate sits
//! below the simulator and must not depend on its time newtypes; callers
//! convert at the boundary.

mod histogram;
mod registry;
mod series;
mod trace;

pub use histogram::{Histogram, HistogramSummary};
pub use registry::{CounterId, GaugeId, HistogramId, Registry, SeriesId, SpanId, SubsystemHealth};
pub use series::{Bin, BinnedSeries};
