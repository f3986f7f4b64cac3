//! # ew-infra — Grid infrastructure models
//!
//! Behavioural models of the seven infrastructures EveryWare glued
//! together at SC98 (§5): Unix, Globus (GRAM/GASS invocation latency),
//! Legion (translator object), Condor (idle-cycle reclamation), NT/LSF
//! (batch dispatch), Java (browser applets at §5.6 speeds), and NetSolve
//! (agent-brokered RPC) — plus the calibrated SC98 resource pool the
//! experiment driver runs on.

#![warn(missing_docs)]

pub mod mega;
pub mod pool;
pub mod relay;
pub mod supervisor;

pub use mega::{build_mega_shard, MegaSpec};
pub use pool::{build_sc98, java, JudgingSpike, ServiceHosts};
pub use relay::Relay;
pub use supervisor::{InfraSpec, InfraSupervisor};
