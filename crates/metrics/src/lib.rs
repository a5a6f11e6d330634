//! Measurement toolkit for the experiment harness.
//!
//! Small, dependency-light statistics helpers used to aggregate and render
//! the paper's figures: summary statistics ([`Summary`]), empirical
//! distributions ([`Cdf`]) and a plain text series/table renderer
//! ([`Table`]) that the `repro` binary uses to print each figure's data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod summary;
mod table;
mod timeseries;

pub use cdf::Cdf;
pub use summary::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
