//! Measurement and result assembly: the per-run observers and the final
//! [`RunResult`].

use gossip_net::NetStats;
use gossip_stream::{NodeQuality, PacketId, QualityReport};
use gossip_types::{NodeId, Time};

use crate::harness::deployment::Deployment;
use crate::harness::driver::Driver;
use crate::scenario::Scenario;

/// Everything measured during one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-node stream quality for every *surviving, non-source* node.
    pub quality: QualityReport,
    /// Average upload rate (kbit/s) per surviving *receiving* node (the
    /// source is reported separately, matching the paper's Figure 4 which
    /// plots the peers); see [`RunResult::sorted_upload_kbps`].
    pub upload_kbps: Vec<f64>,
    /// The source's average upload rate in kbit/s.
    pub source_upload_kbps: f64,
    /// Aggregate protocol counters across all nodes.
    pub protocol: gossip_core::ProtocolStats,
    /// Aggregate network counters across all nodes.
    pub net: NetStats,
    /// Number of windows included in the quality metrics.
    pub windows_measured: u32,
    /// Simulation events processed (for performance reporting).
    pub events_processed: u64,
    /// High-water mark of the engine's pending-event queue (for performance
    /// reporting: the repo benchmark's `sim.peak_queue` row).
    pub peak_queue: usize,
    /// Per-second timeline of the run: cumulative packets delivered across
    /// all receivers, total queued upload bytes, and cumulative drops.
    pub timeline: RunTimeline,
    /// Dissemination-depth statistics (hops from the source per delivered
    /// packet), when [`Scenario::track_depth`] was enabled.
    pub depth: Option<DepthStats>,
    /// Stream quality of flash-crowd joiners that survived to the end,
    /// measured only over the windows published *after* each one joined
    /// (`None` when the adversity spec introduced no joiners, or every
    /// joiner arrived past the measured horizon). Kept apart from
    /// [`RunResult::quality`] so mid-stream arrivals don't read as jitter
    /// on the base population.
    pub joiner_quality: Option<QualityReport>,
}

impl RunResult {
    /// Upload rates sorted from the most to the least contributing node —
    /// the x-axis convention of Figure 4.
    pub fn sorted_upload_kbps(&self) -> Vec<f64> {
        let mut v = self.upload_kbps.clone();
        v.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
        v
    }
}

/// Hop-count statistics of packet dissemination.
///
/// The theory the paper builds on predicts epidemic dissemination reaches
/// everyone in `O(log n / log f)` hops; these numbers let the experiments
/// check that directly (see the `depth_tracking` integration test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthStats {
    /// Mean hops from the source across all deliveries.
    pub mean: f64,
    /// Maximum hops observed.
    pub max: u16,
    /// Number of deliveries measured.
    pub deliveries: u64,
}

/// Per-second system-state samples of one run.
#[derive(Debug, Clone, Default)]
pub struct RunTimeline {
    /// Cumulative packets delivered to all surviving receivers.
    pub delivered: gossip_metrics::TimeSeries,
    /// Total bytes queued in all upload links at the sample instant.
    pub queued_bytes: gossip_metrics::TimeSeries,
    /// Cumulative messages dropped by all upload queues.
    pub dropped: gossip_metrics::TimeSeries,
}

impl RunTimeline {
    pub(crate) fn new() -> Self {
        RunTimeline {
            delivered: gossip_metrics::TimeSeries::new("delivered_packets"),
            queued_bytes: gossip_metrics::TimeSeries::new("queued_bytes"),
            dropped: gossip_metrics::TimeSeries::new("dropped_msgs"),
        }
    }

    /// Records one per-second sample of the deployment's state.
    pub(crate) fn sample(&mut self, now: Time, dep: &Deployment<'_>) {
        let delivered: u64 = (1..dep.total_n()).map(|i| dep.players[i].packets_received()).sum();
        let queued: usize = dep.links.iter().map(|l| l.queued_bytes()).sum();
        let dropped: u64 = dep.links.iter().map(|l| l.stats().msgs_dropped).sum();
        self.delivered.push(now, delivered as f64);
        self.queued_bytes.push(now, queued as f64);
        self.dropped.push(now, dropped as f64);
    }
}

/// Tracks per-packet dissemination depth (hops from the source), when
/// enabled by [`Scenario::track_depth`].
pub(crate) struct DepthTracker {
    /// `depth[node][global packet index]` = hops from the source
    /// (`u16::MAX` = not delivered). Empty unless tracking is on.
    depth: Vec<Vec<u16>>,
    /// Sender whose serve is currently being processed (depth provenance).
    context: Option<NodeId>,
    /// Packets per window (for the global packet index).
    window_packets: usize,
}

impl DepthTracker {
    pub(crate) fn new(cfg: &Scenario) -> Self {
        let depth = if cfg.track_depth {
            let packets = (cfg.stream.windows_published(cfg.stream_duration) as usize + 2)
                * cfg.stream.window.total_packets();
            vec![vec![u16::MAX; packets]; cfg.n]
        } else {
            Vec::new()
        };
        DepthTracker { depth, context: None, window_packets: cfg.stream.window.total_packets() }
    }

    /// Marks the start of processing a serve from `from` (deliveries inside
    /// inherit its depth).
    pub(crate) fn enter_serve(&mut self, from: NodeId) {
        self.context = Some(from);
    }

    /// Marks the end of the current serve.
    pub(crate) fn exit_serve(&mut self) {
        self.context = None;
    }

    /// Records the dissemination depth of a delivery: source deliveries are
    /// depth 0; anything served by node `s` is `depth(s) + 1`.
    pub(crate) fn record(&mut self, to: NodeId, packet: PacketId) {
        if self.depth.is_empty() {
            return;
        }
        let idx = packet.window as usize * self.window_packets + packet.index as usize;
        if idx >= self.depth[0].len() {
            return; // beyond the tracked horizon
        }
        let depth = match self.context {
            None => 0, // published locally at the source
            Some(from) => {
                let upstream = self.depth[from.index()][idx];
                if upstream == u16::MAX {
                    // The server itself no longer tracks it (pruned horizon);
                    // treat as unknown.
                    return;
                }
                upstream.saturating_add(1)
            }
        };
        let slot = &mut self.depth[to.index()][idx];
        if *slot == u16::MAX {
            *slot = depth;
        }
    }

    /// Summarises the recorded depths (`None` if tracking was off).
    pub(crate) fn stats(&self) -> Option<DepthStats> {
        if self.depth.is_empty() {
            return None;
        }
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut max = 0u16;
        for row in self.depth.iter().skip(1) {
            for &d in row {
                if d != u16::MAX {
                    sum += u64::from(d);
                    count += 1;
                    max = max.max(d);
                }
            }
        }
        Some(DepthStats {
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            max,
            deliveries: count,
        })
    }
}

/// Assembles the [`RunResult`] from a finished driver.
pub(crate) fn collect(driver: Driver<'_>) -> RunResult {
    let Driver { dep, engine, timeline, depth, telemetry: _ } = driver;
    let cfg = dep.cfg;
    let first = cfg.measure_from_window;
    let last = cfg.last_measured_window();
    assert!(last >= first, "stream too short to measure any window");

    // Deep-dive diagnostics for never-decodable windows, enabled with
    // GOSSIP_DIAG_HOLES=1 (used while calibrating; costs nothing when off).
    if std::env::var_os("GOSSIP_DIAG_HOLES").is_some() {
        report_holes(&dep, first, last);
    }

    let mut qualities = Vec::new();
    let mut upload_kbps = Vec::new();
    let mut protocol = gossip_core::ProtocolStats::default();
    let mut net = NetStats::default();
    let elapsed = cfg.total_duration();

    for i in 0..cfg.n {
        protocol.merge(dep.nodes[i].stats());
        net.merge(dep.links[i].stats());
        net.merge(&dep.rx_stats[i]);
        if !dep.alive[i] || i == 0 {
            continue;
        }
        upload_kbps.push(dep.links[i].stats().upload_kbps(elapsed));
        qualities.push(NodeQuality::from_player(
            &dep.players[i],
            &cfg.stream,
            Time::ZERO,
            first,
            last,
        ));
    }

    // Flash-crowd joiners: account their traffic, and measure each
    // survivor only over the windows published after it arrived (the
    // catch-up question is "how well does a newcomer view the rest of the
    // stream", not "did it time-travel to the beginning").
    let mut joiner_qualities = Vec::new();
    for i in cfg.n..dep.total_n() {
        protocol.merge(dep.nodes[i].stats());
        net.merge(dep.links[i].stats());
        net.merge(&dep.rx_stats[i]);
        let Some(joined) = dep.joined_at[i] else { continue };
        if !dep.alive[i] {
            continue;
        }
        if let Some(q) = NodeQuality::from_player_since(
            &dep.players[i],
            &cfg.stream,
            Time::ZERO,
            joined,
            first,
            last,
        ) {
            joiner_qualities.push(q);
        }
    }

    RunResult {
        quality: QualityReport::new(qualities),
        upload_kbps,
        source_upload_kbps: dep.links[0].stats().upload_kbps(elapsed),
        protocol,
        net,
        windows_measured: last - first + 1,
        events_processed: engine.processed(),
        peak_queue: engine.peak_pending(),
        timeline,
        depth: depth.stats(),
        joiner_quality: (!joiner_qualities.is_empty())
            .then(|| QualityReport::new(joiner_qualities)),
    }
}

/// Prints, for every surviving node, each measured window that never became
/// decodable, with the request state of its missing packets.
fn report_holes(dep: &Deployment<'_>, first: u32, last: u32) {
    let total = dep.cfg.stream.window.total_packets() as u16;
    for i in 1..dep.cfg.n {
        if !dep.alive[i] {
            continue;
        }
        for w in first..=last {
            if dep.players[i].window_decodable_at(w).is_some() {
                continue;
            }
            let have = dep.players[i].packets_in_window(w);
            let mut missing = Vec::new();
            for idx in 0..total {
                let id = PacketId::new(w, idx);
                if !dep.nodes[i].has_delivered(&id) {
                    missing.push((idx, dep.nodes[i].request_info(&id)));
                }
            }
            eprintln!(
                "hole: node {} window {} has {}/{} — missing {:?}",
                i,
                w,
                have,
                total,
                &missing[..missing.len().min(12)]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_tracker_is_inert_when_disabled() {
        let cfg = crate::Scenario::tiny(5); // track_depth = false
        let mut tracker = DepthTracker::new(&cfg);
        tracker.enter_serve(NodeId::new(3));
        tracker.record(NodeId::new(1), PacketId::new(0, 0));
        tracker.exit_serve();
        assert!(tracker.stats().is_none());
    }

    #[test]
    fn depth_tracker_counts_hops() {
        let cfg = crate::Scenario::tiny(5).with_depth_tracking();
        let mut tracker = DepthTracker::new(&cfg);
        let p = PacketId::new(0, 0);
        // Source publish (no serve context) → depth 0 at the source.
        tracker.record(NodeId::new(0), p);
        // Node 1 receives it from the source → depth 1.
        tracker.enter_serve(NodeId::new(0));
        tracker.record(NodeId::new(1), p);
        tracker.exit_serve();
        // Node 2 receives it from node 1 → depth 2.
        tracker.enter_serve(NodeId::new(1));
        tracker.record(NodeId::new(2), p);
        tracker.exit_serve();
        let stats = tracker.stats().expect("tracking on");
        // The source row is excluded from the summary.
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.max, 2);
        assert!((stats.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn depth_beyond_horizon_is_ignored() {
        let cfg = crate::Scenario::tiny(5).with_depth_tracking();
        let mut tracker = DepthTracker::new(&cfg);
        tracker.record(NodeId::new(0), PacketId::new(10_000, 0));
        let stats = tracker.stats().expect("tracking on");
        assert_eq!(stats.deliveries, 0);
    }

    #[test]
    fn sorted_upload_descends() {
        let result = crate::Scenario::tiny(5).with_seed(2).run();
        let sorted = result.sorted_upload_kbps();
        assert!(sorted.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(sorted.len(), result.upload_kbps.len());
    }
}
