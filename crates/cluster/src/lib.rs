//! `apim-cluster`: a distributed serving tier over the `apim-serve`
//! runtime — many node daemons, each wrapping one pool, behind a
//! sharding, failing-over client.
//!
//! The APIM architecture scales by replicating crossbar block pairs
//! behind one controller; this crate is the same shape one level up:
//! many serving pools behind one router. Plain std TCP without an async
//! runtime: the node daemon runs a poll-based event loop (the `apim-net`
//! crate) that services every connection from one thread, and the client
//! multiplexes many logical request streams — tagged by correlation id —
//! over a handful of pipelined sockets.
//!
//! - [`wire`] — the length-prefixed, versioned binary protocol. Strict
//!   bounds-checked decoding: malformed frames produce structured
//!   errors, never panics.
//! - [`node`] — the daemon: one [`apim_serve::Pool`] behind a listener,
//!   served by an event loop with per-connection pipelining and
//!   backpressure.
//! - [`client`] — the router: consistent hashing on tenant id, health
//!   checks, failover with capped backoff, multiplexed pipelined RPC.
//! - [`fleet`] — per-node metrics snapshots merged into exact
//!   fleet-wide quantiles.
//! - [`harness`] — in-process loopback fleet for deterministic tests.
//! - [`loadgen`] — cluster load generation, the kill-a-node smoke gate
//!   and the soak driver (pipelined window or closed loop).

#![deny(missing_docs)]

pub mod client;
pub mod fleet;
pub mod harness;
pub mod loadgen;
mod mux;
pub mod node;
pub mod wire;

pub use client::{
    ClientStats, ClusterClient, ClusterConfig, ClusterError, ClusterResponse, PendingSubmit,
};
pub use fleet::FleetSnapshot;
pub use harness::LoopbackCluster;
pub use node::{Node, NodeConfig};
