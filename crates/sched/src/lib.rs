//! # ew-sched — EveryWare scheduling servers and computational clients
//!
//! The application-specific scheduling architecture of §3.1.1: cooperating
//! but independent scheduling servers that issue dynamic control
//! directives, migrate work away from forecast-slow hosts, and a client
//! process that computes in chunks, reports progress, and fails over
//! between schedulers.

#![warn(missing_docs)]

pub mod client;
mod lifecycle;
pub mod messages;
pub mod server;

pub use client::{ClientConfig, ComputeClient};
pub use lifecycle::UnitCounts;
pub use messages::{scm, Directive, ProgressReport, WorkGrant};
pub use server::{SchedulerConfig, SchedulerServer};
