//! Cross-process deployment of a reactor cluster.
//!
//! Every other runtime in this workspace lives inside one process. This
//! crate is the deployment layer: it splits one cluster across N `gossipd`
//! processes — each hosting a contiguous id-slice on the
//! [`gossip_reactor::NodeHost`] runtime — and coordinates them with a
//! `gossip-coord` process that plays tracker, starter gun and report
//! collector in one.
//!
//! * [`config`] — one TOML file describing the whole deployment: a
//!   `[cluster]` section (population, stream, protocol), a `[deploy]`
//!   section (process count, per-process reactor shape, optional
//!   mid-stream process kill), and any `gossip-adversity` sections,
//!   delegated verbatim to [`gossip_adversity::AdversitySpec::from_toml_str`];
//! * [`proto`] — the length-prefixed control protocol between `gossipd`
//!   and the coordinator (hello → welcome → address exchange → start
//!   barrier → report);
//! * [`host`] — the `gossipd` side: bind the slice, publish addresses,
//!   wait for the start barrier, anchor the shared fault timeline on the
//!   broadcast wall-clock epoch, run, ship the report;
//! * [`coord`] — the coordinator: launch (or print commands for) the
//!   workers, relay the address book, broadcast one wall-clock start so
//!   every process's `Time::ZERO` coincides, optionally hard-kill one
//!   worker mid-stream, and merge every process's reports into one
//!   [`gossip_udp::cluster::ClusterReport`] via the same
//!   [`gossip_udp::cluster::assemble_report`] the in-process runtime uses;
//! * [`signal`] — SIGINT/SIGTERM as a stop flag, so an interrupted
//!   `gossipd` flushes a partial report marked degraded instead of dying
//!   silently.
//!
//! The demux id-prefix (see [`gossip_reactor::demux`]) already makes
//! placement location-transparent: a frame for node `g` routes the same
//! way whether `g` lives in this process or behind another host's socket,
//! so the protocol layer is untouched by deployment.

// `deny`, not `forbid`: the one FFI call installing the signal handler
// (`signal::sys`) carries a scoped allow; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coord;
pub mod host;
pub mod proto;
pub mod signal;

pub use config::{DeployConfig, DeployParseError};
pub use coord::{run_coordinator, AggregateReport, CoordOptions, ProcessOutcome};
pub use host::run_worker;
