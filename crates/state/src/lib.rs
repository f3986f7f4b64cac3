//! # ew-state — persistent state and logging services
//!
//! The application-specific services of §3.1.2–3.1.3: persistent state
//! managers with bounded footprints, trusted-site placement, and run-time
//! sanity checks; and the distributed logging service that records the
//! performance reports the paper's figures were plotted from.

#![warn(missing_docs)]

pub mod logging;
pub mod messages;
pub mod persist;

pub use logging::LogServer;
pub use messages::{sm, FetchReply, FetchRequest, LogRecord, StoreReply, StoreRequest};
pub use persist::{PersistentStateServer, Validator};
