//! Benchmark support crate.
//!
//! Nothing here gates and nothing here is evidence for a speed-up: health
//! is gated by `cargo test`, and performance is measured by the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`). This crate holds the
//! criterion benches for local exploration and the [`trend`] detector that
//! watches the benchmark's end-to-end metrics across commits (the `trend`
//! binary records and evaluates `BENCH_trend.jsonl`).
//!
//! The benches live in `benches/`:
//!
//! * `figures` — one Criterion group per figure of the paper, each running
//!   the corresponding experiment at `Scale::Tiny` (shape-preserving,
//!   seconds per iteration). The full-scale data comes from the `repro`
//!   binary (`cargo run -p gossip-experiments --release -- all`), which
//!   regenerates every series at 230 nodes.
//! * `micro` — microbenchmarks of the hot substrates: GF(256) algebra,
//!   Reed–Solomon window encode/reconstruct, the event queue, the
//!   deterministic RNG, the bandwidth link and the wire codec.
//! * `ablations` — the design-choice ablations (infect-and-die lifetime,
//!   retransmission budget `K`, FEC parity count, throttling-queue depth,
//!   serve batching).
//!
//! This library only exposes small helpers shared by those benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trend;

use gossip_experiments::{RunResult, Scenario};

/// Runs a scenario and returns a scalar "work proxy" (events processed) so
/// Criterion has something to black-box.
pub fn run_events(scenario: &Scenario) -> u64 {
    scenario.run().events_processed
}

/// Runs a scenario and returns the full result (for ablation reporting).
pub fn run_full(scenario: &Scenario) -> RunResult {
    scenario.run()
}
