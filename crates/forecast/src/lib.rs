//! # ew-forecast — NWS-style performance forecasting
//!
//! "A set of performance forecasting services that can make short-term
//! resource and application performance predictions in near-real time"
//! (§2). This crate reimplements the Network Weather Service forecasting
//! subsystem as EveryWare adapted it:
//!
//! * [`methods`] — the battery of lightweight one-step-ahead predictors over
//!   one shared per-stream history;
//! * [`selector`] — MAE-ranked dynamic selection across the battery (RMSE
//!   reported beside it), computed once per measurement;
//! * [`dynbench`] — *dynamic benchmarking*: tagging and timing arbitrary
//!   repetitive program events and feeding the timings to forecasters;
//! * [`timeout`] — dynamic time-out discovery for the lingua franca, the
//!   mechanism §2.2 credits with overall program stability at SC98.

#![warn(missing_docs)]

pub mod dynbench;
pub mod methods;
pub mod selector;
pub mod sensor;
pub mod timeout;

pub use dynbench::DynamicBenchmark;
pub use methods::{standard_battery, Method};
pub use selector::ForecasterSet;
pub use sensor::{NwsSensor, NwsServer, SensorConfig};
pub use timeout::ForecastTimeout;
