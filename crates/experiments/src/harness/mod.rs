//! The layered simulation harness behind [`Scenario::run`](crate::Scenario::run).
//!
//! One run flows through three layers, each its own module:
//!
//! * [`deployment`] — *construction*: builds the simulated deployment (gossip
//!   nodes, stream players, upload links, membership views, latency/loss
//!   processes) and seeds the event engine's initial schedule, all derived
//!   deterministically from the scenario's seed;
//! * [`driver`] — *execution*: the event loop that pops engine events and
//!   dispatches them to nodes, links, players and membership views until the
//!   simulated clock passes the scenario's horizon;
//! * [`result`] — *measurement*: the dissemination-depth tracker and the
//!   final [`RunResult`] assembly.
//!
//! On top of single runs, [`sweep`] provides [`SweepRunner`]: independent
//! `(parameter, seed)` runs fanned out across OS threads. Runs share nothing
//! and are individually deterministic, so a sweep's results are identical at
//! any thread count — the figure modules all go through it.

pub mod deployment;
pub mod driver;
pub mod result;
pub mod sweep;

pub use result::{DepthStats, RunResult};
pub use sweep::SweepRunner;
