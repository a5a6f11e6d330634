//! Per-shard live telemetry: the cells and histograms a shard mirrors its
//! statistics into when the cluster runs with a metrics registry.
//!
//! One [`ShardTelemetry`] is registered per shard (labelled
//! `shard="<index>"`) before the shard thread starts, so registration —
//! the only allocating step — never happens on the hot path. The shard
//! then *mirrors* its plain [`ShardStats`] fields into the counter cells
//! once per loop iteration (a handful of relaxed stores), and computes
//! the more expensive gauges — aggregate stream completeness, queue
//! depths — at a coarse cadence. Phase histograms bracket the four stages
//! of the shard loop with monotonic-clock reads that exist only when
//! telemetry is on.

use gossip_telemetry::{Cell, Histogram, Registry};
use gossip_udp::report::ShardStats;

/// How often a shard recomputes its gauges (the completeness scan walks
/// every hosted player's window records).
pub(crate) const GAUGE_PERIOD: gossip_types::Duration = gossip_types::Duration::from_millis(200);

/// The metric cells of one shard.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    /// One cell per row of [`ShardStats::COUNTERS`], in table order.
    counters: [Cell; ShardStats::COUNTERS.len()],
    // Live gauges.
    wheel_resident: Cell,
    backoff_level: Cell,
    pending_bytes: Cell,
    completeness: Cell,
    // Phase wall-time histograms (seconds, µs resolution).
    pub(crate) phase_timers: Histogram,
    pub(crate) phase_ingress: Histogram,
    pub(crate) phase_flush: Histogram,
    pub(crate) phase_park: Histogram,
}

impl ShardTelemetry {
    /// Registers every cell of shard `index` in `registry`.
    pub(crate) fn register(registry: &Registry, index: usize) -> ShardTelemetry {
        let labels: &[(&str, String)] = &[("shard", index.to_string())];
        let gauge = |name: &str, help: &'static str| registry.gauge(name, help, labels);
        let phase = |name: &'static str| {
            registry.histogram(
                "gossip_shard_phase_seconds",
                "Wall time of one shard loop phase.",
                &[("shard", index.to_string()), ("phase", name.to_string())],
            )
        };
        ShardTelemetry {
            counters: std::array::from_fn(|row| {
                let counter = &ShardStats::COUNTERS[row];
                registry.counter(counter.name, counter.help, labels)
            }),
            wheel_resident: gauge(
                "gossip_shard_wheel_resident_events",
                "Deadlines currently armed in the shard's timer wheel.",
            ),
            backoff_level: gauge(
                "gossip_shard_backoff_level",
                "Highest backoff exponent across the shard's socket pool.",
            ),
            pending_bytes: gauge(
                "gossip_shard_pending_retry_bytes",
                "Bytes retained across transient send failures, awaiting retry.",
            ),
            completeness: registry.gauge_f64(
                "gossip_shard_completeness_percent",
                "Percentage of observed stream windows decodable across hosted nodes.",
                labels,
            ),
            phase_timers: phase("timers"),
            phase_ingress: phase("ingress"),
            phase_flush: phase("flush"),
            phase_park: phase("park"),
        }
    }

    /// Mirrors the shard's plain counters into the cells: one relaxed store
    /// per counter, called once per loop iteration.
    pub(crate) fn publish_counters(&self, stats: &ShardStats) {
        for (cell, counter) in self.counters.iter().zip(ShardStats::COUNTERS) {
            cell.store((counter.get)(stats));
        }
    }

    /// Publishes the live gauges (called at [`GAUGE_PERIOD`] cadence; the
    /// completeness fraction is aggregated by the caller, which owns the
    /// players).
    pub(crate) fn publish_gauges(&self, sample: &GaugeSample) {
        self.wheel_resident.store(sample.wheel_resident as u64);
        self.backoff_level.store(u64::from(sample.backoff_level));
        self.pending_bytes.store(sample.pending_bytes as u64);
        let pct = if sample.observed == 0 {
            100.0
        } else {
            sample.decodable as f64 / sample.observed as f64 * 100.0
        };
        self.completeness.store_f64(pct);
    }
}

/// One reading of the shard loop's live state, taken by the loop itself
/// (which owns the wheel, recovery slots and players).
pub(crate) struct GaugeSample {
    pub wheel_resident: usize,
    pub backoff_level: u32,
    pub pending_bytes: usize,
    pub decodable: usize,
    pub observed: usize,
}
