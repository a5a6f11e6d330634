//! Sharded shared-socket runtime: thousands of live UDP nodes in one
//! process.
//!
//! One OS thread plus one blocking socket per node would cap real-socket
//! experiments at a few hundred nodes. This crate hosts the same sans-io
//! [`gossip_core::GossipNode`] state machines the simulator drives behind
//! a *reactor*: a small number of worker **shards**, each an event loop
//! that owns
//!
//! * a slice of the cluster's **virtual nodes** (protocol state machine,
//!   stream player, upload shaper, optionally the stream source),
//! * a small pool of non-blocking [`std::net::UdpSocket`]s shared by those
//!   nodes, and
//! * one **timer wheel** — the calendar queue from `gossip-sim`, reused
//!   through its [`gossip_sim::EventSchedule`] abstraction — holding every
//!   deadline of every hosted node (gossip rounds, retransmission timers,
//!   source emissions, shaper releases).
//!
//! # Demultiplexing
//!
//! With sockets shared between nodes, the destination can no longer be
//! identified by the receiving socket. Every datagram on a reactor socket
//! therefore carries a 4-byte **destination prefix** (the target's
//! [`gossip_types::NodeId`], little endian) ahead of the standard
//! [`gossip_core::wire`] encoding; the receiving shard routes on the prefix
//! and strips it before handing the bytes to the protocol codec (see
//! [`demux`]). The prefix is runtime framing, not protocol bytes: the
//! upload shaper charges only the inner (unframed) wire size, so a node's
//! pacing does not depend on how its datagrams are packed.
//!
//! Nodes are striped across shards (`shard = id % shards`) and across each
//! shard's socket pool, so consecutive node ids — and with them the
//! cluster's traffic — spread evenly.
//!
//! # One configuration, one report
//!
//! [`ReactorCluster::run`] takes a [`gossip_udp::cluster::ClusterConfig`]
//! and produces a [`gossip_udp::cluster::ClusterReport`] (assembled by
//! [`gossip_udp::cluster::assemble_report`]). A multi-process `gossipd`
//! deployment runs the same config sliced by node id through [`NodeHost`]
//! and assembles the same report, so the two are directly comparable.
//!
//! # Examples
//!
//! Run a loopback cluster on the reactor (see `examples/live_udp.rs` for
//! the CLI version):
//!
//! ```no_run
//! use gossip_reactor::ReactorCluster;
//! use gossip_udp::cluster::ClusterConfig;
//!
//! let report = ReactorCluster::run(ClusterConfig::smoke_test()).expect("cluster runs");
//! println!("nodes fully decoding: {}/{}", report.nodes_all_windows_ok(), report.receivers());
//! ```

// `deny`, not `forbid`: the one FFI module wrapping `sendmmsg`/`recvmmsg`
// (`mmsg::sys`) carries a scoped allow; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
pub mod demux;
pub mod mmsg;
pub mod runtime;
mod shard;
mod telemetry;
mod vnode;

pub use mmsg::{mmsg_active, NO_MMSG_ENV};
pub use runtime::{HostOutcome, NodeHost, ReactorCluster, ReactorOptions};
