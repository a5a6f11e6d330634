//! Benchmark support crate.
//!
//! Nothing here gates and nothing here is evidence for a speed-up: health
//! is gated by `cargo test`, and performance is measured by the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`). This crate holds the
//! [`trend`] detector that watches the benchmark's end-to-end metrics across
//! commits (the `trend` binary records and evaluates `BENCH_trend.jsonl`).
//! The figures, and the design-choice ablations (`repro ext-ablations`),
//! come from the `repro` binary of `gossip-experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trend;
