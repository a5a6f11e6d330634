//! The reproduction harness: every figure of *Stretching Gossip with Live
//! Streaming* (DSN 2009), regenerated from the simulated deployment.
//!
//! * [`scenario`] — the declarative experiment description ([`Scenario`]
//!   and its builder API);
//! * [`harness`] — the layered execution machinery behind
//!   [`Scenario::run`]: deployment construction, the event-loop driver,
//!   result assembly, and the multi-threaded [`SweepRunner`];
//! * [`figures`] — every figure declared as a grid of scenarios (sweep
//!   values, the scenario of each cell, what a run measures, the notes),
//!   the one runner that fans a grid's cells through [`SweepRunner`] and
//!   renders its tables, and the table of `repro` targets;
//! * the `repro` binary — `repro <target> [--scale full|quick|tiny]
//!   [--seed N] [--trials N]` prints each figure's data as a text table.
//!
//! The paper's evaluation has no numbered tables; Figures 1–8 are the
//! complete set of reported results. The README's "Reproducing the
//! figures" section is the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod scenario;

pub use harness::{DepthStats, RunResult, SweepRunner};
pub use scenario::{MembershipMode, Scale, Scenario};
