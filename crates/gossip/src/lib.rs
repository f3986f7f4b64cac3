//! # ew-gossip — the EveryWare distributed state exchange service
//!
//! "A distributed state exchange service that allows application
//! components to manage and synchronize program state in a dynamic
//! environment" (§2). The pieces:
//!
//! * [`freshness`] — versioned state blobs and pluggable comparators;
//! * [`messages`] — the wire bodies of the gossip and clique protocols;
//! * [`store`] — the per-Gossip state table, pairwise reconciliation
//!   (the N² cost of §2.3), and rendezvous-hash responsibility
//!   partitioning;
//! * [`clique`] — the NWS clique protocol: token passing, leader election,
//!   partition into subcliques, merge on heal;
//! * [`server`] — the *Gossip* process itself;
//! * [`client`] — the embeddable component-side endpoint.

#![warn(missing_docs)]

pub mod client;
pub mod clique;
pub mod freshness;
pub mod messages;
pub mod server;
pub mod store;

pub use client::GossipClient;
pub use clique::{CliqueConfig, CliqueState};
pub use freshness::{Comparator, VersionedBlob};
pub use server::GossipServer;
pub use store::GossipStore;
