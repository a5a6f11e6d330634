//! Simulated network substrate.
//!
//! The paper deploys gossip on 230 PlanetLab nodes whose upload bandwidth is
//! artificially capped by a limiter with a throttling mechanism. This crate
//! reproduces that environment on top of the deterministic simulation kernel:
//!
//! * [`latency`] — pairwise latency models, including the two-class
//!   ("good"/"bad" nodes) heterogeneity that drives the paper's Figure 4;
//! * [`loss`] — packet-loss models (Bernoulli and bursty Gilbert–Elliott);
//! * [`bandwidth`] — the upload link: messages serialise through a
//!   rate-capped queue (throttling), and sustained overload overflows the
//!   queue into drops — exactly the limiter the paper describes, and the
//!   one every host (the simulator and the live shards alike) paces
//!   through;
//! * [`stats`] — per-node byte/message accounting used for Figure 4.
//!
//! The crate knows nothing about gossip or streams; the hosts
//! (`gossip-experiments`, `gossip-reactor`) wire it to the protocol core.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod latency;
pub mod loss;
pub mod stats;

pub use bandwidth::{Enqueued, UploadLink};
pub use latency::{LatencyModel, LatencySampler};
pub use loss::{LossModel, LossProcess};
pub use stats::NetStats;
