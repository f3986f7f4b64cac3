//! # ew-sim — deterministic discrete-event Grid simulator
//!
//! The substrate that stands in for the 1998 Computational Grid on which
//! EveryWare was evaluated (SC98 show floor, NPACI/Alliance sites, Condor
//! pools, campus browsers). It models:
//!
//! * **virtual time** ([`SimTime`], [`SimDuration`]) at microsecond
//!   resolution;
//! * **hosts** ([`HostSpec`]) with heterogeneous speeds, background CPU
//!   load, and availability churn;
//! * **networks** ([`NetModel`]) of sites with latency, bandwidth,
//!   contention, jitter, and partitions;
//! * **processes** ([`Process`]) — single-threaded reactive state machines,
//!   matching the paper's no-threads implementation rule (§5.1) — driven by
//!   an event [`kernel`](Sim);
//! * **traces** ([`trace`]) that generate the load fluctuation and
//!   reclamation behaviour of §4 and §5;
//! * fully **deterministic randomness** ([`rng`]) so every figure in the
//!   paper's evaluation regenerates bit-identically from one seed.
//!
//! Higher layers (`ew-proto`, `ew-gossip`, `ew-sched`, …) implement the
//! EveryWare toolkit itself as processes on this kernel; `ew-proto` also
//! provides a real-TCP transport so the same component code runs outside
//! the simulator.

#![warn(missing_docs)]

pub mod farm;
pub mod hashers;
pub mod host;
pub mod kernel;
pub mod net;
pub mod payload;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use ew_telemetry::{
    BinnedSeries, CounterId, GaugeId, HistogramId, Registry, SeriesId, SpanId, SubsystemHealth,
};
pub use farm::{resolve_threads, run_farm, spawn_pure, FarmStats, Pending};
pub use hashers::FxHashMap;
pub use host::{HostId, HostSpec, HostTable};
pub use kernel::{Ctx, Event, Process, ProcessId, Sim};
pub use net::{FlowTable, Impairment, NetModel, NetworkModel, Partition, SiteId, SiteSpec};
pub use payload::Payload;
pub use queue::EventQueue;
pub use rng::{StreamSeeder, Xoshiro256};
pub use time::{SimDuration, SimTime};
pub use trace::{
    AvailabilitySchedule, CompositeLoad, ConstantLoad, LoadTrace, RandomWalkLoad, SpikeLoad,
};
/// The queue's former name: `benchmark/` (frozen while a PR claims a gain)
/// still imports it.
pub type TimingWheel<T> = EventQueue<T>;
