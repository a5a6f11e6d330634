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
//! scrapes one or more endpoints and folds each one's last successful
//! scrape into fleet-wide cells.

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
        let telemetry = ShardTelemetry {
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
        };
        // Until the first gauge period the shard has observed no window,
        // which `publish_gauges` reports as complete, not as 0 %.
        telemetry.publish_gauges(&GaugeSample::default());
        telemetry
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
#[derive(Default)]
pub(crate) struct GaugeSample {
    pub wheel_resident: usize,
    pub backoff_level: u32,
    pub pending_bytes: usize,
    pub decodable: usize,
    pub observed: usize,
}

/// One scrape endpoint as the fleet watcher last saw it.
#[derive(Debug, Default)]
struct EndpointScrape {
    /// The endpoint's last successful scrape (empty until it first answers).
    samples: Vec<(String, f64)>,
    /// Whether it answered the current poll.
    live: bool,
}

/// The fleet-wide values of one poll.
#[derive(Debug)]
struct FleetReading {
    live: usize,
    sent: u64,
    received: u64,
    shed: u64,
    backoffs: u64,
    /// Mean per-shard completeness over the endpoints that answered this
    /// poll (`None` when none did).
    completeness: Option<f64>,
}

/// Folds every endpoint's last successful scrape into the fleet's reading.
/// The counters sum those last scrapes, so a worker that stops answering
/// keeps its final totals and no fleet total ever falls; the live count and
/// the completeness mean cover only the endpoints that answered this poll.
fn fold_fleet(endpoints: &[EndpointScrape]) -> FleetReading {
    let total =
        |family: &str| endpoints.iter().map(|e| family_sum(&e.samples, family)).sum::<f64>() as u64;
    let answered: Vec<(String, f64)> =
        endpoints.iter().filter(|e| e.live).flat_map(|e| e.samples.iter().cloned()).collect();
    FleetReading {
        live: endpoints.iter().filter(|e| e.live).count(),
        sent: total("gossip_shard_datagrams_sent_total"),
        received: total("gossip_shard_datagrams_received_total"),
        shed: total("gossip_shard_datagrams_shed_total"),
        backoffs: total("gossip_shard_send_backoffs_total"),
        completeness: family_mean(&answered, "gossip_shard_completeness_percent"),
    }
}

/// What the `fleet_completeness_percent` cell stores for `reading`: the
/// live mean, or NaN when no endpoint that answered carried a completeness
/// sample — nobody reporting is not a 0 % complete stream. The exposition
/// format renders it as `NaN` and [`gossip_telemetry::parse_text`] reads it
/// back.
fn completeness_cell(reading: &FleetReading) -> f64 {
    reading.completeness.unwrap_or(f64::NAN)
}

/// The fleet watcher: scrapes every endpoint once a second until `stop`
/// hangs up (or sends), folds the scrapes' `gossip_shard_*` families into
/// `fleet_*` cells, prints one `fleet:` status line per poll in which an
/// endpoint answered, and returns the snapshots of those cells — one per
/// poll. An endpoint that stops answering (killed,
/// crashed, not up yet) drops out of `fleet_workers_live` and of the
/// completeness mean, while its last totals stay in the fleet counters.
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
        "Mean per-shard stream completeness across live workers only (NaN while none reports it).",
        &[],
    );
    let workers = endpoints.len();
    let mut last: Vec<EndpointScrape> =
        endpoints.iter().map(|_| EndpointScrape::default()).collect();
    let mut snapshots = Vec::new();
    loop {
        for (endpoint, &addr) in last.iter_mut().zip(endpoints) {
            match gossip_telemetry::scrape(addr) {
                Ok(samples) => *endpoint = EndpointScrape { samples, live: true },
                Err(_) => endpoint.live = false,
            }
        }
        let reading = fold_fleet(&last);
        workers_live.store(reading.live as u64);
        sent.store(reading.sent);
        received.store(reading.received);
        shed.store(reading.shed);
        backoffs.store(reading.backoffs);
        completeness.store_f64(completeness_cell(&reading));
        snapshots.push(TelemetrySnapshot::of(&registry));
        if reading.live > 0 {
            println!(
                "fleet: {}/{workers} workers | sent {} | recv {} | shed {} | backoffs {} | live completeness {}",
                reading.live,
                reading.sent,
                reading.received,
                reading.shed,
                reading.backoffs,
                reading.completeness.map_or_else(|| "n/a".to_string(), |p| format!("{p:.1}%")),
            );
        }
        if stop.recv_timeout(std::time::Duration::from_secs(1)) != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
    TelemetrySeries { names: registry.snapshot_names(), snapshots }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One worker's scrape: a received total and a completeness reading on
    /// each of two shards.
    fn worker(received: [f64; 2], completeness: [f64; 2]) -> Vec<(String, f64)> {
        (0..2)
            .flat_map(|shard| {
                [
                    (
                        format!("gossip_shard_datagrams_received_total{{shard=\"{shard}\"}}"),
                        received[shard],
                    ),
                    (
                        format!("gossip_shard_completeness_percent{{shard=\"{shard}\"}}"),
                        completeness[shard],
                    ),
                ]
            })
            .collect()
    }

    #[test]
    fn a_silent_worker_keeps_its_last_totals_but_leaves_the_live_mean() {
        let a = [
            worker([10.0, 20.0], [50.0, 70.0]),
            worker([40.0, 50.0], [80.0, 90.0]),
            worker([60.0, 70.0], [90.0, 100.0]),
        ];
        let b = [worker([5.0, 5.0], [10.0, 30.0]), worker([25.0, 25.0], [40.0, 60.0])];
        let mut last = [EndpointScrape::default(), EndpointScrape::default()];
        let mut readings = Vec::new();
        for (poll, scrape) in a.iter().enumerate() {
            last[0] = EndpointScrape { samples: scrape.clone(), live: true };
            match b.get(poll) {
                Some(samples) => last[1] = EndpointScrape { samples: samples.clone(), live: true },
                None => last[1].live = false,
            }
            readings.push(fold_fleet(&last));
        }
        let live: Vec<usize> = readings.iter().map(|r| r.live).collect();
        assert_eq!(live, [2, 2, 1]);
        let received: Vec<u64> = readings.iter().map(|r| r.received).collect();
        assert!(received.windows(2).all(|w| w[0] <= w[1]), "a fleet total fell: {received:?}");
        assert_eq!(received[2], 130 + 50, "A's total at poll 3 plus B's at poll 2");
        assert_eq!(readings[1].completeness, Some(67.5), "mean over both workers' shards");
        assert_eq!(readings[2].completeness, Some(95.0), "mean over the live worker alone");
    }

    #[test]
    fn fleet_completeness_is_nan_without_a_sample_not_zero() {
        let silent = [EndpointScrape::default(), EndpointScrape::default()];
        let counters_only = (0..2)
            .map(|shard| {
                (format!("gossip_shard_datagrams_received_total{{shard=\"{shard}\"}}"), 9.0)
            })
            .collect();
        let uncounted = [EndpointScrape { samples: counters_only, live: true }];
        for (what, endpoints) in [("nobody answered", &silent[..]), ("no sample", &uncounted[..])] {
            let stored = completeness_cell(&fold_fleet(endpoints));
            assert!(stored.is_nan(), "{what}: stored {stored}");
            // And so it reads across a scrape.
            let registry = Registry::new();
            registry.gauge_f64("fleet_completeness_percent", "", &[]).store_f64(stored);
            let samples = gossip_telemetry::parse_text(&gossip_telemetry::render(&registry));
            assert!(samples[0].1.is_nan(), "{what}: scraped {samples:?}");
        }
        let answered = [EndpointScrape { samples: worker([1.0, 1.0], [0.0, 50.0]), live: true }];
        assert_eq!(completeness_cell(&fold_fleet(&answered)), 25.0, "a sample is stored as is");
    }

    #[test]
    fn completeness_reads_100_before_the_first_publish() {
        let registry = Registry::new();
        let _shard = ShardTelemetry::register(&registry, 0);
        let samples = gossip_telemetry::parse_text(&gossip_telemetry::render(&registry));
        assert_eq!(family_mean(&samples, "gossip_shard_completeness_percent"), Some(100.0));
    }
}
