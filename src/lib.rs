//! Umbrella crate for the gossip-streaming workspace.
//!
//! Re-exports the public crates so examples and downstream users can depend
//! on a single package. See the individual crates for full documentation:
//!
//! * [`gossip_core`] — the three-phase gossip protocol (the paper's
//!   contribution);
//! * [`gossip_stream`] — the live-streaming layer (source, player, quality);
//! * [`gossip_fec`] — systematic Reed–Solomon erasure coding;
//! * [`gossip_sim`] / [`gossip_net`] — the deterministic simulation substrate;
//! * [`gossip_experiments`] — the figure-by-figure reproduction harness;
//! * [`gossip_udp`] — the live runtimes' shared substrate (cluster config
//!   and report, wall clock, upload shaper, report codec);
//! * [`gossip_reactor`] — the sharded shared-socket runtime (thousands of
//!   live UDP nodes in one process);
//! * [`gossip_deploy`] — the cross-process deployment layer (`gossipd`
//!   node-host binary plus the `gossip-coord` cluster coordinator);
//! * [`gossip_telemetry`] — live runtime observability (lock-free metric
//!   registry, snapshot ring, Prometheus-text scrape endpoint).

#![forbid(unsafe_code)]

pub use gossip_adversity as adversity;
pub use gossip_core as core;
pub use gossip_deploy as deploy;
pub use gossip_experiments as experiments;
pub use gossip_fec as fec;
pub use gossip_membership as membership;
pub use gossip_metrics as metrics;
pub use gossip_net as net;
pub use gossip_reactor as reactor;
pub use gossip_sim as sim;
pub use gossip_stream as stream;
pub use gossip_telemetry as telemetry;
pub use gossip_types as types;
pub use gossip_udp as udp;
