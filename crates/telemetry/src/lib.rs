//! Live runtime observability: a lock-free metrics registry, a snapshot
//! ring, and a hand-rolled Prometheus-text scrape surface.
//!
//! The design trades generality for hot-path cost. A metric is registered
//! once (one allocation for its name) and handed back as a cheap cloneable
//! cell around an `AtomicU64`; after registration the hot path is a single
//! relaxed atomic store or add — no locks, no hashing, no allocation. The
//! runtimes keep their existing plain-field statistics and *mirror* them
//! into cells at a coarse cadence (once per shard loop iteration, once per
//! simulated second), so enabling telemetry never restructures a hot loop.
//!
//! Three consumers sit on top of one [`Registry`]:
//!
//! * [`serve`] — a plaintext TCP endpoint speaking just enough HTTP to be
//!   scraped by Prometheus, `curl`, or [`scrape`] (the matching client);
//! * [`Sampler`] — a background thread folding the registry into
//!   timestamped [`TelemetrySnapshot`]s on a ring, yielding a
//!   [`TelemetrySeries`] (and optional periodic JSON dumps) at stop;
//! * [`render`]/[`parse_text`] — the exposition format itself, round-trip
//!   tested so a scrape parses back to the same values.
//!
//! Everything is `std`-only: no HTTP library, no serialisation crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hub;
mod registry;
mod sample;
mod server;
mod text;

pub use hub::Hub;
pub use registry::{Cell, Histogram, MetricKind, Registry};
pub use sample::{series_to_json, Sampler, TelemetrySeries, TelemetrySnapshot};
pub use server::{serve, TelemetryServer};
pub use text::{in_family, parse_text, render, scrape, scrape_text};

/// Switches on and shapes the telemetry layer of one runtime.
///
/// Attached to a cluster configuration as an `Option`: `None` means no
/// registry exists and every hot path stays byte-identical to a build
/// without telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Where the scrape endpoint binds (port 0: the kernel picks — read
    /// the bound address back from the runtime that started the server).
    pub scrape_addr: std::net::SocketAddr,
    /// How often the sampler folds the registry into a snapshot.
    pub sample_period: std::time::Duration,
    /// When set, the sampler rewrites this file with the full snapshot
    /// series as JSON on every sample — the headless-run export.
    pub json_path: Option<String>,
    /// Snapshots retained on the ring (oldest evicted first).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            scrape_addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            sample_period: std::time::Duration::from_millis(250),
            json_path: None,
            ring_capacity: 2400,
        }
    }
}

impl TelemetryConfig {
    /// A config binding the scrape endpoint to `127.0.0.1:port`.
    pub fn on_port(port: u16) -> Self {
        TelemetryConfig {
            scrape_addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
            ..TelemetryConfig::default()
        }
    }
}
