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
//!
//! [`monitor_fleet`] reads those families back from the outside: it
//! scrapes one or more endpoints and folds them into fleet-wide cells.

use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, RecvTimeoutError};

use gossip_telemetry::{
    family_mean, family_sum, Cell, Histogram, Registry, TelemetrySeries, TelemetrySnapshot,
};
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

/// The fleet watcher: scrapes every endpoint once a second until `stop`
/// hangs up (or sends), folds the scrapes' `gossip_shard_*` families into
/// `fleet_*` cells, prints one `fleet:` status line per poll in which an
/// endpoint answered, and returns the snapshots of those cells — one per
/// poll. An endpoint that stops answering (killed, crashed, not up yet)
/// simply drops out of `fleet_workers_live`.
pub fn monitor_fleet(endpoints: &[SocketAddr], stop: &Receiver<()>) -> TelemetrySeries {
    let registry = Registry::new();
    let workers_live = registry.gauge(
        "fleet_workers_live",
        "Workers whose scrape endpoint answered the last fleet poll.",
        &[],
    );
    let sent = registry.counter(
        "fleet_datagrams_sent_total",
        "Protocol datagrams sent, summed across every worker's shards.",
        &[],
    );
    let received = registry.counter(
        "fleet_datagrams_received_total",
        "Protocol datagrams received, summed across every worker's shards.",
        &[],
    );
    let shed = registry.counter(
        "fleet_datagrams_shed_total",
        "Datagrams shed by outbox/retry budgets, summed across the fleet.",
        &[],
    );
    let backoffs = registry.counter(
        "fleet_send_backoffs_total",
        "Backoff intervals entered after transient send failures, fleet-wide.",
        &[],
    );
    let completeness = registry.gauge_f64(
        "fleet_completeness_percent",
        "Mean per-shard stream completeness across the fleet.",
        &[],
    );
    let workers = endpoints.len();
    let mut snapshots = Vec::new();
    loop {
        let mut live = 0usize;
        let mut fold: Vec<(String, f64)> = Vec::new();
        for &addr in endpoints {
            if let Ok(mut samples) = gossip_telemetry::scrape(addr) {
                live += 1;
                fold.append(&mut samples);
            }
        }
        workers_live.store(live as u64);
        let sent_now = family_sum(&fold, "gossip_shard_datagrams_sent_total");
        let recv_now = family_sum(&fold, "gossip_shard_datagrams_received_total");
        let shed_now = family_sum(&fold, "gossip_shard_datagrams_shed_total");
        let backoffs_now = family_sum(&fold, "gossip_shard_send_backoffs_total");
        let pct = family_mean(&fold, "gossip_shard_completeness_percent");
        sent.store(sent_now as u64);
        received.store(recv_now as u64);
        shed.store(shed_now as u64);
        backoffs.store(backoffs_now as u64);
        completeness.store_f64(pct.unwrap_or(0.0));
        snapshots.push(TelemetrySnapshot::of(&registry));
        if live > 0 {
            println!(
                "fleet: {live}/{workers} workers | sent {} | recv {} | shed {} | backoffs {} | completeness {}",
                sent_now as u64,
                recv_now as u64,
                shed_now as u64,
                backoffs_now as u64,
                pct.map_or_else(|| "n/a".to_string(), |p| format!("{p:.1}%")),
            );
        }
        if stop.recv_timeout(std::time::Duration::from_secs(1)) != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
    TelemetrySeries { names: registry.snapshot_names(), snapshots }
}
