//! # ew-proto — the EveryWare lingua franca
//!
//! "A portable lingua franca that is designed to allow processes using
//! different infrastructures and operating systems to communicate" (§2).
//! The 1998 implementation was C over the most vanilla TCP/IP sockets; this
//! crate is its Rust reconstruction, split along the paper's own seams:
//!
//! * [`wire`] — the explicit big-endian encoding that replaced XDR;
//! * [`packet`] — typed, checksummed records with request/response flags
//!   and correlation ids, plus the stream framer;
//! * [`rpc`] — outstanding-request tracking with pluggable
//!   [`rpc::TimeoutPolicy`] (static here; forecast-driven in
//!   `ew-forecast`), and [`RpcClient`], the one client-side stack every
//!   service's RPC path embeds;
//! * [`retry`] — the adaptive retry layer inside it: exponential backoff
//!   with seeded jitter and a per-peer circuit breaker;
//! * [`sim_net`] — packets over the `ew-sim` kernel;
//! * [`tcp`] — packets over real `std::net` TCP for live deployment.

#![warn(missing_docs)]

pub mod packet;
pub mod retry;
pub mod rpc;
pub mod sim_net;
pub mod tcp;
pub mod wire;

pub use ew_sim::Payload;
pub use packet::{mtype, FrameReader, Packet};
pub use retry::{AdaptiveRetry, RetryConfig, RetryDecision, RetryTele};
pub use rpc::{
    EventTag, Expired, Pending, Resend, RpcClient, RpcTracker, StaticTimeout, TimeoutPolicy,
    Verdict, RPC_WAKE,
};
pub use wire::{WireDecode, WireEncode, WireError, WireReader};
