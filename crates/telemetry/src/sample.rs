//! Periodic snapshotting: the sampler thread and the snapshot ring.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::Registry;

/// One timestamped reading of every registered metric.
///
/// `values[i]` belongs to the series' `names[i]`; a snapshot taken before
/// later registrations is shorter than the final name list — missing
/// columns simply had no cell yet.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Wall-clock sample time, milliseconds since the Unix epoch.
    pub at_unix_millis: u64,
    /// Cell values in registration order (see
    /// [`Registry::snapshot_names`]).
    pub values: Vec<f64>,
}

impl TelemetrySnapshot {
    /// Reads every cell of `registry`, stamped with the current wall time.
    pub fn of(registry: &Registry) -> TelemetrySnapshot {
        let at_unix_millis =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64);
        TelemetrySnapshot { at_unix_millis, values: registry.snapshot_values() }
    }
}

/// A finished run's snapshot time series: what the sampler accumulated,
/// attached to the cluster report so post-run analysis can see *when*
/// things happened, not just final totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySeries {
    /// Full metric names (with labels), in registration order.
    pub names: Vec<String>,
    /// Snapshots, oldest first (ring-bounded: the oldest are evicted once
    /// capacity is hit).
    pub snapshots: Vec<TelemetrySnapshot>,
}

impl TelemetrySeries {
    /// The column index of a full metric name, if present.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The time series of one metric as `(at_unix_millis, value)` pairs
    /// (snapshots predating the metric's registration are skipped).
    pub fn series_of(&self, name: &str) -> Vec<(u64, f64)> {
        let Some(col) = self.column(name) else { return Vec::new() };
        self.snapshots
            .iter()
            .filter_map(|s| s.values.get(col).map(|&v| (s.at_unix_millis, v)))
            .collect()
    }

    /// Sums the final value of every column whose family (name without
    /// labels) matches — e.g. totalling a per-shard counter.
    pub fn final_total(&self, family: &str) -> f64 {
        let Some(last) = self.snapshots.last() else { return 0.0 };
        self.names
            .iter()
            .zip(&last.values)
            .filter(|(n, _)| crate::in_family(n, family))
            .map(|(_, &v)| v)
            .sum()
    }
}

#[derive(Debug)]
struct Ring {
    snapshots: std::collections::VecDeque<TelemetrySnapshot>,
    capacity: usize,
}

/// The background sampler: folds the registry into a snapshot every
/// period and keeps the last `ring_capacity` snapshots.
#[derive(Debug)]
pub struct Sampler {
    registry: Registry,
    ring: Arc<Mutex<Ring>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` every `period`.
    pub fn start(registry: Registry, period: Duration, ring_capacity: usize) -> Sampler {
        let ring = Arc::new(Mutex::new(Ring {
            snapshots: std::collections::VecDeque::new(),
            capacity: ring_capacity.max(2),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_registry = registry.clone();
        let thread_ring = Arc::clone(&ring);
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gossip-sampler".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    take_sample(&thread_registry, &thread_ring);
                    // Sleep in short slices so stop is honoured promptly
                    // even at slow sample periods.
                    let mut left = period;
                    while !left.is_zero() && !thread_stop.load(Ordering::Relaxed) {
                        let slice = left.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        left = left.saturating_sub(slice);
                    }
                }
            })
            .expect("spawning the sampler thread");
        Sampler { registry, ring, stop, thread: Some(thread) }
    }

    /// The series accumulated so far (a clone; sampling continues).
    pub fn series(&self) -> TelemetrySeries {
        let names = self.registry.snapshot_names();
        let snapshots = self.ring.lock().expect("ring lock").snapshots.iter().cloned().collect();
        TelemetrySeries { names, snapshots }
    }

    /// Stops the sampler, takes one final snapshot (so the series always
    /// ends with the run's final totals), and returns the series.
    pub fn stop(mut self) -> TelemetrySeries {
        self.halt();
        take_sample(&self.registry, &self.ring);
        self.series()
    }

    fn halt(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

fn take_sample(registry: &Registry, ring: &Mutex<Ring>) {
    let snapshot = TelemetrySnapshot::of(registry);
    let mut ring = ring.lock().expect("ring lock");
    if ring.snapshots.len() >= ring.capacity {
        ring.snapshots.pop_front();
    }
    ring.snapshots.push_back(snapshot);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_accumulates_and_final_snapshot_lands_on_stop() {
        let r = Registry::new();
        let c = r.counter("n_total", "", &[]);
        let sampler = Sampler::start(r, Duration::from_millis(10), 1000);
        c.store(5);
        std::thread::sleep(Duration::from_millis(50));
        c.store(9);
        let series = sampler.stop();
        assert!(series.snapshots.len() >= 2, "expected several samples");
        let last = series.snapshots.last().expect("final snapshot");
        assert_eq!(last.values, vec![9.0], "stop() must capture the final totals");
        let timeline = series.series_of("n_total");
        assert!(timeline.iter().any(|&(_, v)| v == 5.0), "mid-run value visible in the series");
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let r = Registry::new();
        r.counter("x", "", &[]);
        let ring = Arc::new(Mutex::new(Ring {
            snapshots: std::collections::VecDeque::new(),
            capacity: 3,
        }));
        for _ in 0..10 {
            take_sample(&r, &ring);
        }
        assert_eq!(ring.lock().unwrap().snapshots.len(), 3);
    }

    #[test]
    fn final_total_sums_label_sets_of_one_family() {
        let r = Registry::new();
        let a = r.counter("dg_total", "", &[("shard", "0".to_string())]);
        let b = r.counter("dg_total", "", &[("shard", "1".to_string())]);
        let other = r.counter("dg_totals_other", "", &[]);
        a.store(3);
        b.store(4);
        other.store(100);
        let sampler = Sampler::start(r, Duration::from_secs(60), 10);
        let series = sampler.stop();
        assert_eq!(series.final_total("dg_total"), 7.0);
    }
}
