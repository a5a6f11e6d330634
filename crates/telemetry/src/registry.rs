//! The metric registry: named atomic cells and fixed-bucket histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a scalar cell measures — decides the `# TYPE` line of the text
/// exposition and how a value is formatted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone total. Stored and rendered as an integer.
    Counter,
    /// Point-in-time level. Stored and rendered as an integer.
    Gauge,
    /// Point-in-time level with a fractional part (e.g. a percentage).
    /// Stored as `f64` bits in the same atomic.
    FloatGauge,
}

/// One registered scalar metric: a shared `AtomicU64` the owner writes
/// with relaxed ordering. Cloning is cheap (an `Arc` bump) and every clone
/// addresses the same cell.
#[derive(Debug, Clone)]
pub struct Cell {
    value: Arc<AtomicU64>,
    kind: MetricKind,
}

impl Cell {
    /// Overwrites the cell — the mirror-publish primitive (the runtime
    /// stores its plain counter's current total).
    #[inline]
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds to the cell (for metrics owned by more than one writer).
    #[inline]
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Stores a fractional gauge level (meaningful on a
    /// [`MetricKind::FloatGauge`] cell).
    #[inline]
    pub fn store_f64(&self, v: f64) {
        self.value.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the cell's raw integer value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reads the cell as the number it renders as.
    pub fn get_value(&self) -> f64 {
        let raw = self.get();
        match self.kind {
            MetricKind::Counter | MetricKind::Gauge => raw as f64,
            MetricKind::FloatGauge => f64::from_bits(raw),
        }
    }

    /// The cell's kind.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }
}

/// Upper edges of the histogram buckets, in microseconds: powers of two
/// from 1 µs to ~0.5 s, plus the implicit `+Inf`. Wide enough for a shard
/// loop phase (sub-millisecond) and a whole park (a dwell plus a wait
/// bounded at 1 ms) alike.
pub(crate) const BUCKET_EDGES_US: [u64; 20] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288,
];

/// A fixed-bucket duration histogram (microsecond observations). One
/// atomic per bucket plus a sum and a count; observation is two relaxed
/// adds and a linear bucket scan over 20 edges.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) buckets: Arc<[AtomicU64; BUCKET_EDGES_US.len()]>,
    pub(crate) sum_us: Arc<AtomicU64>,
    pub(crate) count: Arc<AtomicU64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum_us: Arc::new(AtomicU64::new(0)),
            count: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Records one duration observation, in microseconds.
    #[inline]
    pub fn observe_micros(&self, us: u64) {
        for (i, &edge) in BUCKET_EDGES_US.iter().enumerate() {
            if us <= edge {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // Past the last edge only the implicit +Inf bucket (== count)
        // holds the observation.
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total microseconds observed.
    pub fn sum_micros(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// One registered scalar with its identity.
#[derive(Debug)]
pub(crate) struct ScalarEntry {
    /// Full exposition name: `name{label="v",...}` (or bare `name`).
    pub full_name: String,
    /// Bare metric family name (shared by all label sets).
    pub family: String,
    pub help: &'static str,
    pub cell: Cell,
}

/// One registered histogram with its identity.
#[derive(Debug)]
pub(crate) struct HistogramEntry {
    pub full_name: String,
    pub family: String,
    pub help: &'static str,
    pub histogram: Histogram,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub scalars: Mutex<Vec<ScalarEntry>>,
    pub histograms: Mutex<Vec<HistogramEntry>>,
}

/// The metric registry. Cloning shares the same underlying set; a runtime
/// creates one per run, hands clones to every shard/worker for
/// registration, and hands clones to the endpoint and the sampler for
/// reading.
///
/// Registration takes a lock and allocates; reads and writes after that
/// are lock-free. Registration order is stable and is the index order of
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot) values.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub(crate) inner: Arc<Inner>,
}

/// Renders `name{l1="v1",...}` (labels escaped per the exposition format).
fn full_name(name: &str, labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => s.push_str("\\\\"),
                '"' => s.push_str("\\\""),
                '\n' => s.push_str("\\n"),
                _ => s.push(c),
            }
        }
        s.push('"');
    }
    s.push('}');
    s
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
        kind: MetricKind,
    ) -> Cell {
        let cell = Cell { value: Arc::new(AtomicU64::new(0)), kind };
        let entry = ScalarEntry {
            full_name: full_name(name, labels),
            family: name.to_string(),
            help,
            cell: cell.clone(),
        };
        self.inner.scalars.lock().expect("registry lock").push(entry);
        cell
    }

    /// Registers a monotone counter; `labels` distinguish instances of the
    /// same family (e.g. `[("shard", "3")]`).
    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, String)]) -> Cell {
        self.register(name, help, labels, MetricKind::Counter)
    }

    /// Registers an integer gauge.
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, String)]) -> Cell {
        self.register(name, help, labels, MetricKind::Gauge)
    }

    /// Registers a fractional gauge (set via [`Cell::store_f64`]).
    pub fn gauge_f64(&self, name: &str, help: &'static str, labels: &[(&str, String)]) -> Cell {
        self.register(name, help, labels, MetricKind::FloatGauge)
    }

    /// Registers a duration histogram (microsecond observations).
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, String)],
    ) -> Histogram {
        let histogram = Histogram::new();
        let entry = HistogramEntry {
            full_name: full_name(name, labels),
            family: name.to_string(),
            help,
            histogram: histogram.clone(),
        };
        self.inner.histograms.lock().expect("registry lock").push(entry);
        histogram
    }

    /// The full names of every scalar cell plus every histogram's derived
    /// `_sum`/`_count` scalars, in registration order — the column names
    /// of a [`TelemetrySnapshot`](crate::TelemetrySnapshot).
    pub fn snapshot_names(&self) -> Vec<String> {
        let scalars = self.inner.scalars.lock().expect("registry lock");
        let histograms = self.inner.histograms.lock().expect("registry lock");
        let mut names = Vec::with_capacity(scalars.len() + 2 * histograms.len());
        names.extend(scalars.iter().map(|e| e.full_name.clone()));
        for e in histograms.iter() {
            names.push(derived_name(&e.full_name, "_sum"));
            names.push(derived_name(&e.full_name, "_count"));
        }
        names
    }

    /// Reads every cell once, in [`Registry::snapshot_names`] order.
    /// Values are the *rendered* numbers (float gauges decoded, histogram
    /// sums in seconds).
    pub fn snapshot_values(&self) -> Vec<f64> {
        let scalars = self.inner.scalars.lock().expect("registry lock");
        let histograms = self.inner.histograms.lock().expect("registry lock");
        let mut values = Vec::with_capacity(scalars.len() + 2 * histograms.len());
        values.extend(scalars.iter().map(|e| e.cell.get_value()));
        for e in histograms.iter() {
            values.push(e.histogram.sum_micros() as f64 / 1e6);
            values.push(e.histogram.count() as f64);
        }
        values
    }
}

/// Inserts a suffix before the label set: `a{x="1"}` + `_sum` →
/// `a_sum{x="1"}`.
pub(crate) fn derived_name(full: &str, suffix: &str) -> String {
    match full.find('{') {
        Some(i) => format!("{}{}{}", &full[..i], suffix, &full[i..]),
        None => format!("{full}{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_share_state_across_clones() {
        let r = Registry::new();
        let c = r.counter("x_total", "help", &[]);
        let c2 = c.clone();
        c.add(3);
        c2.store(10);
        assert_eq!(c.get(), 10);
        assert_eq!(c.get_value(), 10.0);
    }

    #[test]
    fn float_gauges_round_trip() {
        let r = Registry::new();
        let g = r.gauge_f64("pct", "help", &[("node", "7".to_string())]);
        g.store_f64(99.25);
        assert_eq!(g.get_value(), 99.25);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        let h = r.histogram("dur", "help", &[]);
        h.observe_micros(1);
        h.observe_micros(3);
        h.observe_micros(1_000_000); // past the last edge: +Inf only
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_micros(), 1_000_004);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[2].load(Ordering::Relaxed), 1);
        let bucketed: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, 2, "the out-of-range observation lives only in +Inf");
    }

    #[test]
    fn snapshot_order_is_registration_order() {
        let r = Registry::new();
        let a = r.counter("a_total", "", &[]);
        let h = r.histogram("h", "", &[]);
        let b = r.gauge("b", "", &[("shard", "0".to_string())]);
        a.store(1);
        b.store(2);
        h.observe_micros(500);
        assert_eq!(r.snapshot_names(), vec!["a_total", "b{shard=\"0\"}", "h_sum", "h_count"]);
        assert_eq!(r.snapshot_values(), vec![1.0, 2.0, 0.0005, 1.0]);
    }

    #[test]
    fn derived_name_respects_labels() {
        assert_eq!(derived_name("a", "_sum"), "a_sum");
        assert_eq!(derived_name("a{x=\"1\"}", "_count"), "a_count{x=\"1\"}");
    }
}
