//! The reproduction harness: every figure of *Stretching Gossip with Live
//! Streaming* (DSN 2009), regenerated from the simulated deployment.
//!
//! * [`scenario`] — the declarative experiment description ([`Scenario`]
//!   and its builder API);
//! * [`churn`] — the victims of the paper's catastrophic failure, drawn
//!   into an adversity spec;
//! * [`harness`] — the layered execution machinery behind
//!   [`Scenario::run`]: deployment construction, the event-loop driver,
//!   result assembly, and the multi-threaded [`SweepRunner`] the figures
//!   fan their parameter sweeps through;
//! * [`figures`] — one module per figure of the paper (workload, parameter
//!   sweep and series extraction);
//! * the `repro` binary — `repro fig1 … fig8 | all [--scale full|quick|tiny]
//!   [--seed N]` prints each figure's data as a text table.
//!
//! The paper's evaluation has no numbered tables; Figures 1–8 are the
//! complete set of reported results. The README's "Reproducing the
//! figures" section is the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod figures;
pub mod harness;
pub mod scenario;

pub use harness::{DepthStats, RunResult, RunTimeline, SweepRunner};
pub use scenario::{MembershipMode, Scale, Scenario};
