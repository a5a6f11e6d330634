//! Cross-process deployment of a reactor cluster.
//!
//! Every other runtime in this workspace lives inside one process. This
//! crate is the deployment layer: it splits one cluster across N `gossipd`
//! processes — each hosting a contiguous id-slice on the
//! [`gossip_reactor::NodeHost`] runtime — and coordinates them with a
//! `gossip-coord` process that plays tracker, starter gun and report
//! collector in one.
//!
//! * [`config`] — one TOML file: `[cluster]`, `[deploy]`, `[telemetry]`
//!   and any `gossip-adversity` section, read by the one loader of
//!   [`gossip_adversity::toml`];
//! * [`proto`] — the five framed control messages (hello → welcome →
//!   address exchange → start barrier → report), decoded sans-io with one
//!   body cap per message kind, checked on the header before any body
//!   byte is buffered;
//! * `env` — the control plane's one seam: a `ControlEnv` gives the time,
//!   the next `Event` (a frame, a closed connection or the deadline),
//!   sends, and kills a worker. The live environment owns
//!   the sockets, the child processes and the wall clock; a test-scope one
//!   replays scripted bytes on virtual time;
//! * [`host`] — the `gossipd` side: hello, bind the slice, publish its
//!   addresses, count down to the broadcast wall-clock epoch, run, report;
//! * [`coord`] — the coordinator: launch the workers, relay the address
//!   book, broadcast the start, optionally kill one worker mid-stream, and
//!   merge every report through [`gossip_udp::cluster::assemble_report`];
//! * [`signal`] — SIGINT/SIGTERM as the run's stop flag, so an interrupted
//!   `gossipd` flushes a partial report marked degraded.
//!
//! Both sides are plain functions of what arrives and when. Every phase
//! that waits runs against one absolute deadline, so a silent or
//! trickling peer costs its phase's patience once; the mid-stream kill is
//! one more deadline inside the report phase; no thread sleeps but the
//! worker's connect retry. The demux id-prefix (see
//! [`gossip_reactor::demux`]) makes placement location-transparent: a
//! frame for node `g` routes the same way whether `g` lives in this
//! process or behind another host's socket.

// `deny`, not `forbid`: the one FFI call installing the signal handler
// (`signal::sys`) carries a scoped allow; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod config;
pub mod coord;
mod env;
pub mod host;
pub mod proto;
pub mod signal;

use gossip_udp::cluster::ClusterError;

pub use config::{DeployConfig, DeployParseError};
pub use coord::{run_coordinator, AggregateReport, CoordOptions, ProcessOutcome};
pub use host::run_worker;

/// A control phase, named after the message it waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The coordinator waits for every worker's `Hello`.
    Hello,
    /// A worker waits for its `Welcome`.
    Welcome,
    /// The coordinator waits for every worker's `Addrs`.
    Addrs,
    /// A worker waits for `Start`, then counts down to its epoch.
    Start,
    /// The run and its report.
    Report,
}

/// The far end of a control connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Worker `k`, as the coordinator sees it.
    Worker(usize),
    /// The coordinator, as a worker sees it.
    Coordinator,
}

/// A deployment failure, on either side of the control connection. A
/// worker dying *mid-run* is not one: that is a measurement (dark nodes,
/// a degraded report).
#[derive(Debug)]
pub enum DeployError {
    /// A listener, connection or child process failed.
    Io(std::io::Error),
    /// The deployment file does not parse.
    Parse(DeployParseError),
    /// A peer broke the handshake: a message out of order, or content
    /// that does not fit (wrong index, foreign node ids, gaps in the
    /// address book).
    Protocol(String),
    /// The reactor could not bind or run the slice.
    Cluster(ClusterError),
    /// The control connection to the peer closed during the phase.
    HungUp(Peer, Phase),
    /// The peer had not finished the phase by the phase's deadline.
    Silent(Peer, Phase),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let peer = |peer: &Peer| match peer {
            Peer::Worker(k) => format!("worker {k}"),
            Peer::Coordinator => "the coordinator".to_string(),
        };
        match self {
            DeployError::Io(e) => write!(f, "i/o: {e}"),
            DeployError::Parse(e) => write!(f, "{e}"),
            DeployError::Protocol(m) => write!(f, "deployment protocol: {m}"),
            DeployError::Cluster(e) => write!(f, "cluster: {e}"),
            DeployError::HungUp(p, phase) => {
                write!(f, "{} hung up in the {phase:?} phase", peer(p))
            }
            DeployError::Silent(p, phase) => {
                write!(f, "{} was silent past the {phase:?} phase's deadline", peer(p))
            }
        }
    }
}

impl std::error::Error for DeployError {}

impl From<std::io::Error> for DeployError {
    fn from(e: std::io::Error) -> Self {
        DeployError::Io(e)
    }
}

impl From<DeployParseError> for DeployError {
    fn from(e: DeployParseError) -> Self {
        DeployError::Parse(e)
    }
}

impl From<ClusterError> for DeployError {
    fn from(e: ClusterError) -> Self {
        DeployError::Cluster(e)
    }
}
