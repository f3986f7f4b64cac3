//! # everyware — the EveryWare toolkit, reassembled
//!
//! "EveryWare ... enables an application to draw computational power
//! transparently from the Grid" (Abstract). This crate is the top of the
//! reproduction: it wires the lingua franca (`ew-proto`), the forecasting
//! services (`ew-forecast`), and the distributed state exchange
//! (`ew-gossip`) together with the application-specific services
//! (`ew-sched`, `ew-state`) and the Ramsey search application
//! (`ew-ramsey`), and drives them either on the deterministic Grid
//! simulator (`ew-sim` + `ew-infra`) or live over real TCP.
//!
//! * [`toolkit`] — service-stack deployment (Figure 1's layout);
//! * [`sc98`] — the SC98 challenge experiment behind Figures 2–4;
//! * [`series`] — 5-minute-average binning and the §7 consistency metric;
//! * [`live`] — the toolkit on real sockets and threads, searching for
//!   real Ramsey counter-examples.

#![warn(missing_docs)]

pub mod live;
pub mod sc98;
pub mod series;
pub mod toolkit;

pub use live::{run_live, LiveConfig};
pub use sc98::{run_sc98, Sc98Config, Sc98Report, JUDGING_END_S, JUDGING_START_S, WINDOW_S};
pub use series::{mean, pst_label, BinnedPoint};
pub use toolkit::{ramsey_validator, DeployConfig, Deployment, Route};
