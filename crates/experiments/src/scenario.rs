//! The experiment description: N gossip nodes, one stream source, a
//! bandwidth-capped heterogeneous network, optional churn.
//!
//! A [`Scenario`] is a complete, declarative experiment description;
//! [`Scenario::run`] hands it to the layered harness
//! ([`crate::harness`]) — deployment construction, event-loop execution,
//! result assembly — and returns a [`RunResult`] with everything the
//! figures need: per-node stream quality, per-node bandwidth usage and
//! aggregate protocol/network counters.
//!
//! # Examples
//!
//! ```
//! use gossip_experiments::Scenario;
//! use gossip_types::Duration;
//!
//! // A tiny deployment (20 nodes, ~15 s of stream) for quick checks.
//! let result = Scenario::tiny(7).with_seed(42).run();
//! assert!(result.quality.percent_viewing(0.01, Duration::MAX) > 50.0);
//! ```

use gossip_adversity::AdversitySpec;
use gossip_core::{GossipConfig, PacketPool};
use gossip_membership::CyclonConfig;
use gossip_net::{LatencyModel, LossModel};
use gossip_stream::{StreamConfig, StreamPacket};
use gossip_types::{Duration, Time};

use crate::harness::deployment::SimNode;

// Re-exported here so pre-refactor paths (`scenario::RunResult` et al.)
// keep working; the types now live with the harness's result layer.
pub use crate::harness::result::{DepthStats, RunResult};

/// Preset experiment sizes.
///
/// `Full` is the paper's deployment (230 nodes, ~100 measured windows);
/// `Quick` trades nodes and stream length for wall-clock speed
/// (`repro --scale quick`); `Tiny` is for unit/integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 230 nodes, 135 s stream (100 windows), 45 s drain.
    Full,
    /// 60 nodes, 45 s stream (33 windows), 25 s drain.
    Quick,
    /// 20 nodes, ~15 s stream, 10 s drain.
    Tiny,
}

impl Scale {
    /// Number of nodes at this scale (including the source).
    pub fn nodes(self) -> usize {
        match self {
            Scale::Full => 230,
            Scale::Quick => 60,
            Scale::Tiny => 20,
        }
    }

    /// Stream duration at this scale.
    pub fn stream_duration(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(135),
            Scale::Quick => Duration::from_secs(45),
            Scale::Tiny => Duration::from_secs(15),
        }
    }

    /// Post-stream drain time (lets throttled queues flush for the
    /// offline-viewing metric).
    pub fn drain_duration(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(45),
            Scale::Quick => Duration::from_secs(25),
            Scale::Tiny => Duration::from_secs(10),
        }
    }
}

/// How nodes learn about each other.
#[derive(Debug, Clone, PartialEq)]
pub enum MembershipMode {
    /// Every node knows every node (the paper's model, Algorithm 1 line 26).
    Full,
    /// Nodes maintain Cyclon-style shuffled partial views (the
    /// `gossip-membership` crate); `selectNodes` draws from the live view.
    Cyclon {
        /// View and shuffle-subset sizes.
        config: CyclonConfig,
        /// How often each node shuffles.
        shuffle_period: Duration,
        /// Bootstrap out-degree (random peers known at start).
        bootstrap_degree: usize,
    },
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of nodes, including the source (node 0).
    pub n: usize,
    /// Master random seed; everything derives deterministically from it.
    pub seed: u64,
    /// Protocol configuration (fanout, X, Y, retransmission…).
    pub gossip: GossipConfig,
    /// Stream configuration (rate, window geometry).
    pub stream: StreamConfig,
    /// Per-node upload cap in bits/s (`None` = uncapped).
    pub upload_cap_bps: Option<u64>,
    /// Optional capacity classes `(fraction, bps)` overriding the uniform
    /// cap for receivers — the heterogeneous-capacity extension experiment.
    /// Fractions should sum to ~1; assignment is deterministic per seed.
    pub cap_classes: Option<Vec<(f64, u64)>>,
    /// Membership model (full knowledge vs peer sampling).
    pub membership: MembershipMode,
    /// Whether the stream source is exempt from the cap (default `true`).
    ///
    /// The source's `source_fanout` propose targets all pull every fresh
    /// packet, so the source must upload `source_fanout ×` the stream rate —
    /// far above the peer cap. The paper's near-perfect quality at the
    /// optimal fanout is only coherent if its broadcast source was
    /// provisioned; its Figure 4 plots the *receiving* nodes.
    pub source_uncapped: bool,
    /// Depth of the upload throttling queue, expressed as wire time.
    pub max_queue_delay: Duration,
    /// Pairwise latency model.
    pub latency: LatencyModel,
    /// In-network loss model.
    pub loss: LossModel,
    /// Declarative adversity: crashes, Poisson churn, flash-crowd joins,
    /// free-riders and bandwidth classes, compiled deterministically from
    /// the scenario seed (see the `gossip-adversity` crate).
    pub adversity: AdversitySpec,
    /// How long the source streams.
    pub stream_duration: Duration,
    /// Extra simulated time after the stream ends.
    pub drain_duration: Duration,
    /// First window included in quality measurements (skips the startup
    /// transient).
    pub measure_from_window: u32,
    /// Track per-packet dissemination depth (hops from the source). Costs
    /// `n × packets` u16s of memory; off by default.
    pub track_depth: bool,
}

impl Scenario {
    /// The paper's deployment at the given scale with the given fanout:
    /// 700 kbps caps, PlanetLab-like latencies, X = 1, Y = ∞.
    ///
    /// `Tiny` additionally lightens the stream (300 kbps, 30+4 windows,
    /// 600 kbps caps): 20 nodes cannot shoulder the full 600 kbps workload,
    /// and tests need a regime where dissemination is *supposed* to work.
    pub fn at_scale(scale: Scale, fanout: usize) -> Self {
        let mut s = Scenario {
            n: scale.nodes(),
            seed: 1,
            gossip: GossipConfig::new(fanout),
            stream: StreamConfig::paper_default(),
            upload_cap_bps: Some(700_000),
            cap_classes: None,
            membership: MembershipMode::Full,
            source_uncapped: true,
            max_queue_delay: Duration::from_secs(25),
            latency: LatencyModel::planetlab_default(),
            loss: LossModel::Bernoulli(0.001),
            adversity: AdversitySpec::none(),
            stream_duration: scale.stream_duration(),
            drain_duration: scale.drain_duration(),
            measure_from_window: 2,
            track_depth: false,
        };
        if scale == Scale::Tiny {
            s.stream = StreamConfig {
                rate_bps: 300_000,
                packet_payload_bytes: 1000,
                window: gossip_fec::WindowParams::new(30, 4),
            };
            s.upload_cap_bps = Some(600_000);
        }
        s
    }

    /// Full-scale paper deployment (230 nodes).
    pub fn full(fanout: usize) -> Self {
        Self::at_scale(Scale::Full, fanout)
    }

    /// Bench-scale deployment (60 nodes).
    pub fn quick(fanout: usize) -> Self {
        Self::at_scale(Scale::Quick, fanout)
    }

    /// Test-scale deployment (20 nodes, lighter 300 kbps stream).
    pub fn tiny(fanout: usize) -> Self {
        Self::at_scale(Scale::Tiny, fanout)
    }

    /// Sets the random seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the gossip configuration (builder-style).
    pub fn with_gossip(mut self, gossip: GossipConfig) -> Self {
        self.gossip = gossip;
        self
    }

    /// Sets the upload cap in kbit/s (builder-style; `None` = uncapped).
    pub fn with_upload_cap_kbps(mut self, kbps: Option<u64>) -> Self {
        self.upload_cap_bps = kbps.map(|k| k * 1000);
        self
    }

    /// Sets heterogeneous capacity classes (builder-style).
    pub fn with_cap_classes(mut self, classes: Vec<(f64, u64)>) -> Self {
        self.cap_classes = Some(classes);
        self
    }

    /// Sets the membership mode (builder-style).
    pub fn with_membership(mut self, membership: MembershipMode) -> Self {
        self.membership = membership;
        self
    }

    /// Enables dissemination-depth tracking (builder-style).
    pub fn with_depth_tracking(mut self) -> Self {
        self.track_depth = true;
        self
    }

    /// Sets the adversity spec (builder-style).
    pub fn with_adversity(mut self, adversity: AdversitySpec) -> Self {
        self.adversity = adversity;
        self
    }

    /// Sets the in-network loss model (builder-style).
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the latency model (builder-style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the throttling-queue depth (builder-style).
    pub fn with_max_queue_delay(mut self, d: Duration) -> Self {
        self.max_queue_delay = d;
        self
    }

    /// Runs the scenario to completion on the layered harness.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is degenerate (fewer than 2 nodes).
    pub fn run(&self) -> RunResult {
        assert!(self.n >= 2, "a deployment needs a source and at least one receiver");
        crate::harness::driver::execute(self)
    }

    /// Like [`Scenario::run`], publishing live aggregates (simulated time,
    /// delivered packets, message/byte totals, live node count) into
    /// `registry` at every simulated second, the way
    /// [`Scenario::run_probed`] looks: the run goes to each second, stops,
    /// publishes and goes on. Publication only reads the deployment, so a
    /// telemetered run stays bit-identical to a silent one with the same
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is degenerate (fewer than 2 nodes).
    pub fn run_with_telemetry(&self, registry: &gossip_telemetry::Registry) -> RunResult {
        assert!(self.n >= 2, "a deployment needs a source and at least one receiver");
        crate::harness::driver::execute_with_telemetry(self, registry)
    }

    /// Like [`Scenario::run`], handing `probe` every node of the deployment
    /// (crashed ones and dark joiners included) and the deployment's packet
    /// pool at each multiple of `every` of simulated time, and at the
    /// horizon: a read-only window onto the run's state for soak tests,
    /// diagnostics and per-second series. This slicing is the simulator's
    /// only way to watch a run; the run is bit-identical to an unprobed
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is degenerate (fewer than 2 nodes) or `every`
    /// is zero.
    pub fn run_probed(
        &self,
        every: Duration,
        probe: impl FnMut(Time, &[SimNode], &PacketPool<StreamPacket>),
    ) -> RunResult {
        assert!(self.n >= 2, "a deployment needs a source and at least one receiver");
        crate::harness::driver::execute_probed(self, every, probe)
    }

    /// The total simulated time of the run.
    pub fn total_duration(&self) -> Duration {
        self.stream_duration + self.drain_duration
    }

    /// The last window fully published during the stream.
    pub fn last_measured_window(&self) -> u32 {
        (self.stream.windows_published(self.stream_duration) as u32).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::DetRng;
    use gossip_types::NodeId;

    #[test]
    fn tiny_run_disseminates_the_stream() {
        let result = Scenario::tiny(6).with_seed(3).run();
        // With fanout 6 ≈ ln(20) + 3 and light load, the stream should be
        // fully viewable offline by almost everyone.
        let offline = result.quality.percent_viewing(0.01, Duration::MAX);
        assert!(offline >= 80.0, "offline viewing {offline}% too low");
        assert!(result.windows_measured >= 5);
        assert!(result.events_processed > 1000);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Scenario::tiny(5).with_seed(11).run();
        let b = Scenario::tiny(5).with_seed(11).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.upload_kbps, b.upload_kbps);
        assert_eq!(
            a.quality.percent_viewing(0.01, Duration::from_secs(10)),
            b.quality.percent_viewing(0.01, Duration::from_secs(10))
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::tiny(5).with_seed(1).run();
        let b = Scenario::tiny(5).with_seed(2).run();
        assert_ne!(a.events_processed, b.events_processed);
    }

    #[test]
    fn fanout_one_fails_to_disseminate() {
        // Far below ln(n): dissemination must be poor.
        let result = Scenario::tiny(1).with_seed(5).run();
        let offline = result.quality.percent_viewing(0.01, Duration::MAX);
        assert!(offline < 50.0, "fanout 1 should not reach everyone, got {offline}%");
    }

    #[test]
    fn churn_kills_upload_accounting_for_victims() {
        let mut rng = DetRng::seed_from(9);
        let crash = crate::churn::catastrophic_crash(
            Duration::from_secs(8),
            20,
            0.4,
            &[NodeId::new(0)],
            &mut rng,
        );
        let victims = crash.explicit_crashes[0].1.len();
        let result = Scenario::tiny(6).with_seed(9).with_adversity(crash).run();
        assert_eq!(result.upload_kbps.len(), 20 - victims - 1, "source reported separately");
        assert_eq!(result.quality.nodes().len(), 20 - victims - 1, "source excluded");
        assert!(result.source_upload_kbps > 0.0);
    }

    #[test]
    fn uncapped_network_is_near_perfect() {
        // Loss recovery is paced by the adaptive RTO (≥ 4 s), so judge at a
        // lag beyond one retransmission round-trip.
        let result = Scenario::tiny(6).with_seed(4).with_upload_cap_kbps(None).run();
        let at_10s = result.quality.percent_viewing(0.01, Duration::from_secs(10));
        assert!(at_10s >= 90.0, "uncapped dissemination should be fast, got {at_10s}%");
    }

    #[test]
    fn timeline_is_sampled_and_monotone() {
        let (mut delivered, mut dropped) = (Vec::new(), Vec::new());
        Scenario::tiny(6).with_seed(8).run_probed(Duration::from_secs(1), |_, hosted, _| {
            delivered.push(hosted[1..].iter().map(|h| h.player.packets_received()).sum::<u64>());
            dropped.push(hosted.iter().map(|h| h.link.stats().msgs_dropped).sum::<u64>());
        });
        assert!(delivered.len() >= 20, "one sample per second of the run");
        // Cumulative counters never decrease.
        assert!(delivered.windows(2).all(|w| w[0] <= w[1]));
        assert!(dropped.windows(2).all(|w| w[0] <= w[1]));
        // Something was actually delivered during the stream.
        assert!(delivered.last().is_some_and(|&d| d > 0));
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn degenerate_scenario_rejected() {
        let mut s = Scenario::tiny(1);
        s.n = 1;
        s.run();
    }
}
