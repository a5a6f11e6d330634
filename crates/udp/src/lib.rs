//! The runtime-independent substrate of the live (real-socket) runtimes.
//!
//! The simulator answers the paper's questions at scale; the live runtimes
//! prove the protocol implementation is *deployable*. This crate holds what
//! a live run needs whatever hosts its nodes — the sharded shared-socket
//! runtime (`gossip-reactor`) in one process, or `gossipd` workers
//! (`gossip-deploy`) across several: what to run, what time it is, how fast
//! a node may upload, and what came of it.
//!
//! * [`cluster`] — [`cluster::ClusterConfig`], the description of a run;
//!   [`cluster::ClusterReport`], its outcome; and
//!   [`cluster::assemble_report`], which turns per-node reports into the
//!   cluster-wide one and verifies every decodable window through full
//!   Reed–Solomon reconstruction against the source's payload generator;
//! * [`clock`] — maps wall-clock instants onto the protocol's virtual
//!   [`gossip_types::Time`];
//! * [`shaper`] — real-time upload rate limiting (the deployed counterpart
//!   of the simulator's queueing link);
//! * [`report`] — the per-node run report and the per-shard I/O counters;
//! * [`codec`] — the binary wire form of run reports, for deployments that
//!   ship per-process reports to a coordinator.
//!
//! # Examples
//!
//! The substrate's two ends: a runtime takes the config, hosts the nodes
//! and hands back one report per node (`host` stands in for it here;
//! `gossip_reactor::ReactorCluster::run` does all three steps, see
//! `examples/live_udp.rs`), and [`cluster::assemble_report`] turns those
//! into the cluster-wide outcome:
//!
//! ```no_run
//! use gossip_udp::cluster::{assemble_report, ClusterConfig};
//! use gossip_udp::report::NodeReport;
//!
//! # fn host(_: &ClusterConfig) -> Vec<NodeReport> { unimplemented!() }
//! let config = ClusterConfig::smoke_test();
//! let nodes: Vec<NodeReport> = host(&config);
//! let report = assemble_report(&config, nodes);
//! println!("nodes fully decoding: {}/{}", report.nodes_all_windows_ok(), report.receivers());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod codec;
pub mod report;
pub mod shaper;
