//! The description of a live run and its outcome: [`ClusterConfig`] in,
//! [`ClusterReport`] out, with [`assemble_report`] turning per-node
//! reports into the cluster-wide one.

use gossip_adversity::{AdversitySpec, CompiledAdversity};
use gossip_core::GossipConfig;
use gossip_fec::{ReedSolomon, WindowParams};
use gossip_stream::source::synth_payload;
use gossip_stream::{NodeQuality, PacketId, QualityReport, StreamConfig};
use gossip_types::{Duration, NodeId, Time};

use crate::report::{NodeReport, ShardStats};

/// Configuration of a live deployment.
///
/// This is the runtime-independent description of a run: the sharded
/// reactor runtime (the `gossip-reactor` crate) takes a `ClusterConfig`
/// and produces a [`ClusterReport`], in one process or — sliced by node
/// id — across the processes of a `gossipd` deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total nodes including the source.
    pub n: usize,
    /// Protocol configuration.
    pub gossip: GossipConfig,
    /// Stream configuration.
    pub stream: StreamConfig,
    /// Upload cap per node in bits/s.
    pub upload_cap_bps: Option<u64>,
    /// Whether the source is exempt from the cap.
    pub source_uncapped: bool,
    /// How much backlog, as wire time, a node's upload link absorbs
    /// before it drops.
    pub max_backlog: Duration,
    /// How long the source streams.
    pub stream_duration: Duration,
    /// Extra time after the stream ends before shutdown.
    pub drain_duration: Duration,
    /// Cluster seed.
    pub seed: u64,
    /// Probability of losing each datagram in the network — shorthand for
    /// the spec's `[chaos] drop`, folded into [`ClusterConfig::adversity`]
    /// at compile time as an independent loss.
    pub inject_loss: f64,
    /// Nodes that crash mid-run: `(node index, crash offset)` — shorthand
    /// for hand-picked victims, folded into [`ClusterConfig::adversity`]
    /// as explicit crash events at compile time.
    pub crashes: Vec<(usize, Duration)>,
    /// Declarative adversity: catastrophic crashes, Poisson churn,
    /// flash-crowd joins, free-riders and bandwidth classes, compiled
    /// deterministically from the cluster seed (the `gossip-adversity`
    /// crate). The simulator compiles the same spec from the same seed, so
    /// a live run and its simulated oracle meet the identical timeline.
    pub adversity: AdversitySpec,
    /// The membership model of every node: full membership with a tracker,
    /// or Cyclon partial views (see [`JoinerBootstrap`]).
    pub joiner_bootstrap: JoinerBootstrap,
    /// Live telemetry: when set, the runtime starts a metrics registry, a
    /// scrape endpoint and a snapshot sampler for the duration of the run
    /// and attaches the sampled series to the report. `None` (the default
    /// everywhere) means no registry exists and the hot paths carry zero
    /// telemetry cost.
    pub telemetry: Option<gossip_telemetry::TelemetryConfig>,
}

/// The membership model of every node, and so how a mid-run joiner is
/// introduced to the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinerBootstrap {
    /// Tracker-style (the simulator's full-membership mode): every node
    /// draws partners from the complete node list, a joiner receives it,
    /// and every existing node instantly learns the joiner. Simple, but
    /// assumes an out-of-band directory that scales with the swarm.
    #[default]
    Tracker,
    /// Cyclon-style (the simulator's Cyclon mode, one shuffle per gossip
    /// round): every node keeps a bounded partial view (a
    /// `gossip_membership::CyclonView`), drawn from `degree` random peers
    /// at the start and whenever it comes up, and draws partners from it.
    /// Nobody is told about a joiner: its shuffles carry its id, so
    /// knowledge of it spreads epidemically.
    Cyclon {
        /// Peers in a node's bootstrap view (a joiner's only a-priori
        /// knowledge of the swarm).
        degree: usize,
    },
}

impl ClusterConfig {
    /// A small, fast configuration for tests and the quickstart example:
    /// 8 nodes, a 200 kbps stream with 10+3 windows, ~4 s of stream.
    pub fn smoke_test() -> Self {
        ClusterConfig {
            n: 8,
            gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(100)),
            stream: StreamConfig {
                rate_bps: 200_000,
                packet_payload_bytes: 500,
                window: WindowParams::new(10, 3),
            },
            upload_cap_bps: Some(2_000_000),
            source_uncapped: true,
            max_backlog: Duration::from_secs(5),
            stream_duration: Duration::from_secs(4),
            drain_duration: Duration::from_secs(2),
            seed: 1,
            inject_loss: 0.0,
            crashes: Vec::new(),
            adversity: AdversitySpec::none(),
            joiner_bootstrap: JoinerBootstrap::Tracker,
            telemetry: None,
        }
    }

    /// Compiles the cluster's fault plan: the declarative spec plus the
    /// [`ClusterConfig::crashes`] shorthand (folded in as explicit crash
    /// events) and the [`ClusterConfig::inject_loss`] one (combined with
    /// the spec's `[chaos] drop` as independent losses, `1 − (1 − d)(1 −
    /// p)`), a pure function of `(config, seed)` — so every shard, every
    /// process and the report assembly all derive the identical timeline
    /// independently.
    pub fn compiled_adversity(&self) -> CompiledAdversity {
        let mut spec = self.adversity.clone();
        for &(node, at) in &self.crashes {
            spec = spec.with_explicit_crash(at, vec![NodeId::new(node as u32)]);
        }
        if self.inject_loss > 0.0 {
            spec.chaos.drop = 1.0 - (1.0 - spec.chaos.drop) * (1.0 - self.inject_loss);
        }
        spec.compile(self.n, self.seed)
    }
}

/// The outcome of a loopback run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-node reports (index 0 is the source; flash-crowd joiners, when
    /// the runtime hosts them, follow the base population).
    pub nodes: Vec<NodeReport>,
    /// Stream quality of the *base* receivers (present from the start).
    pub quality: QualityReport,
    /// Stream quality of flash-crowd joiners, each measured only over the
    /// windows published after it joined (`None` when the run had none).
    pub joiner_quality: Option<QualityReport>,
    /// Windows measured per node.
    pub windows_measured: u32,
    /// Number of windows whose payloads were fully reconstructed *and*
    /// byte-verified against the source generator, across all receivers.
    pub windows_verified: u64,
    /// Per-shard I/O statistics (empty as [`assemble_report`] returns it;
    /// the runtime fills in what its shards counted).
    pub shard_stats: Vec<ShardStats>,
    /// Reactor shards that aborted mid-run (panicked or died on an
    /// unrecoverable I/O error). A shard that died on an I/O error still
    /// contributes its nodes' partial reports and its [`ShardStats`];
    /// only a panicking shard's nodes are missing from
    /// [`ClusterReport::nodes`].
    pub aborted_shards: usize,
    /// Whether the run was cut short (an operator signal — SIGINT/SIGTERM —
    /// stopped a deployed process before its scheduled deadline, or a
    /// killed process's nodes were synthesised as dark by a coordinator).
    /// A degraded report is a faithful partial measurement, not a full run.
    pub degraded: bool,
    /// The sampled telemetry time series of the run (present only when
    /// [`ClusterConfig::telemetry`] was set).
    pub telemetry: Option<gossip_telemetry::TelemetrySeries>,
}

impl ClusterReport {
    /// Number of receiving nodes (base and joiners alike).
    pub fn receivers(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Cluster-wide I/O totals: every shard's [`ShardStats`] merged into
    /// one (`None` when no shard reported any). Its recovery counters
    /// (faults injected, backoffs, re-binds, …) and
    /// [`ClusterReport::aborted_shards`] are the run's self-healing
    /// record, all zero for a chaos-free run on a healthy host.
    pub fn io_stats(&self) -> Option<ShardStats> {
        if self.shard_stats.is_empty() {
            return None;
        }
        let mut total = ShardStats::default();
        for s in &self.shard_stats {
            total.merge(s);
        }
        Some(total)
    }

    /// Receivers for which every measured window became decodable.
    pub fn nodes_all_windows_ok(&self) -> usize {
        self.quality.nodes().iter().filter(|q| q.complete_fraction() >= 1.0 - 1e-9).count()
    }

    /// Cluster-wide protocol totals: every node's
    /// [`gossip_core::ProtocolStats`] merged into one (the live
    /// counterpart of the simulator's aggregate counters).
    pub fn protocol(&self) -> gossip_core::ProtocolStats {
        let mut total = gossip_core::ProtocolStats::default();
        for n in &self.nodes {
            total.merge(&n.protocol);
        }
        total
    }
}

/// Errors from running a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket setup or runtime I/O failed.
    Io(std::io::Error),
    /// A shard thread panicked, taking its hosted nodes with it; the field
    /// is the shard's index.
    NodePanic(usize),
    /// The request does not fit the cluster it was made of (e.g. an id
    /// slice that is empty or runs past the compiled population).
    Unsupported(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster I/O error: {e}"),
            ClusterError::NodePanic(i) => write!(f, "shard thread {i} panicked"),
            ClusterError::Unsupported(what) => write!(f, "unsupported by this runtime: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

/// Turns the per-node reports of a finished run into a [`ClusterReport`]:
/// sorts by node id, computes the quality of every *base* receiver over
/// all fully-published windows except the first, measures flash-crowd
/// joiners from their arrival window onward, and byte-verifies the
/// decodable windows through the real Reed–Solomon code.
///
/// Shared by everything that finishes a live run (a single-process
/// reactor cluster, a `gossipd` coordinator merging its workers), so
/// their reports are directly comparable.
pub fn assemble_report(config: &ClusterConfig, mut nodes: Vec<NodeReport>) -> ClusterReport {
    nodes.sort_by_key(|r| r.id);
    let compiled = config.compiled_adversity();

    // Quality over all fully-published windows except the first. A stream
    // too short to fully publish two windows measures nothing (empty
    // per-node lag vectors; quality is vacuously perfect) instead of
    // underflowing the window range.
    let published = config.stream.windows_published(config.stream_duration) as u32;
    let (first, last) = (1u32, published.saturating_sub(1));
    if last < first {
        let qualities = nodes
            .iter()
            .filter(|r| r.id.index() != 0 && r.id.index() < compiled.base_n)
            .map(|_| NodeQuality::from_lags(Vec::new()))
            .collect();
        return ClusterReport {
            nodes,
            quality: QualityReport::new(qualities),
            joiner_quality: None,
            windows_measured: 0,
            windows_verified: 0,
            shard_stats: Vec::new(),
            aborted_shards: 0,
            degraded: false,
            telemetry: None,
        };
    }
    let qualities: Vec<NodeQuality> = nodes
        .iter()
        .filter(|r| r.id.index() != 0 && r.id.index() < compiled.base_n)
        .map(|r| NodeQuality::from_player(&r.player, &config.stream, Time::ZERO, first, last))
        .collect();

    // Joiners are measured only over the windows published after each one
    // arrived: the catch-up question is how well a newcomer views the rest
    // of the stream, not whether it time-travelled to the beginning.
    let mut joiner_qualities = Vec::new();
    for r in nodes.iter().filter(|r| r.id.index() >= compiled.base_n) {
        let Some(joined) = compiled.profiles[r.id.index()].join_at else { continue };
        if let Some(q) = NodeQuality::from_player_since(
            &r.player,
            &config.stream,
            Time::ZERO,
            joined,
            first,
            last,
        ) {
            joiner_qualities.push(q);
        }
    }

    let windows_verified = verify_windows(config, &nodes, first, last);

    ClusterReport {
        nodes,
        quality: QualityReport::new(qualities),
        joiner_quality: (!joiner_qualities.is_empty())
            .then(|| QualityReport::new(joiner_qualities)),
        windows_measured: last - first + 1,
        windows_verified,
        shard_stats: Vec::new(),
        aborted_shards: 0,
        degraded: false,
        telemetry: None,
    }
}

/// End-to-end integrity check: for every receiver and measured window that
/// is decodable by count, re-derive the window from the packets the *source*
/// generated, erase exactly the packets the node's player did not record,
/// run the real Reed–Solomon reconstruction from the shards left and
/// compare with the generator output.
///
/// (The drivers do not retain payload bytes — the wire codec round-trip is
/// separately tested — so this validates the *decodability claim* of every
/// counted window against the actual code.) One code serves the whole
/// report: building it inverts a k×k matrix, which would otherwise be most
/// of a long run's report.
fn verify_windows(config: &ClusterConfig, nodes: &[NodeReport], first: u32, last: u32) -> u64 {
    let params = config.stream.window;
    let Ok(rs) = ReedSolomon::new(params.data_packets, params.fec_packets) else { return 0 };
    let mut verified = 0u64;
    // Regenerate each window's shards once.
    for w in first..=last {
        let data: Vec<Vec<u8>> = (0..params.data_packets)
            .map(|i| {
                synth_payload(PacketId::new(w, i as u16), config.stream.packet_payload_bytes)
                    .to_vec()
            })
            .collect();
        let Ok(parity) = rs.encode(&data) else { continue };
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        for report in nodes.iter().skip(1) {
            if report.player.window_decodable_at(w).is_none() {
                continue;
            }
            let Some(bits) = report.player.window_bits(w) else { continue };
            let held = |idx: usize| bits[idx / 64] >> (idx % 64) & 1 == 1;
            let mut shards: Vec<Option<Vec<u8>>> = all
                .iter()
                .enumerate()
                .map(|(idx, shard)| held(idx).then(|| shard.clone()))
                .collect();
            if rs.reconstruct(&mut shards).is_ok()
                && shards.iter().zip(&data).all(|(a, b)| a.as_ref() == Some(b))
            {
                verified += 1;
            }
        }
    }
    verified
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stream::StreamPlayer;

    #[test]
    fn short_stream_measures_no_windows_instead_of_underflowing() {
        let mut config = ClusterConfig::smoke_test();
        // Far too short to fully publish two windows.
        config.stream_duration = Duration::from_millis(100);
        let nodes = (0..2)
            .map(|i| NodeReport {
                id: NodeId::new(i),
                protocol: gossip_core::ProtocolStats::default(),
                player: StreamPlayer::new(config.stream),
                sent_bytes: 0,
                sent_msgs: 0,
                shaper_drops: 0,
                recv_msgs: 0,
                decode_errors: 0,
            })
            .collect();
        let report = assemble_report(&config, nodes);
        assert_eq!(report.windows_measured, 0);
        assert_eq!(report.windows_verified, 0);
        assert_eq!(report.receivers(), 1);
        // Vacuous quality: no windows measured means nothing failed.
        assert!(report.quality.average_quality_percent(Duration::MAX) >= 100.0 - 1e-9);
    }

    /// A receiver missing one data packet of a window and holding a parity
    /// packet in its place verifies: the check rebuilds the missing data
    /// shard from the parity the node holds.
    #[test]
    fn a_window_missing_a_data_packet_verifies_from_parity() {
        let config = ClusterConfig::smoke_test();
        let params = config.stream.window;
        let node = |id: u32, packets: &[usize]| {
            let mut player = StreamPlayer::new(config.stream);
            for &i in packets {
                player.on_packet(Time::from_millis(i as u64), PacketId::new(3, i as u16));
            }
            NodeReport {
                id: NodeId::new(id),
                protocol: gossip_core::ProtocolStats::default(),
                player,
                sent_bytes: 0,
                sent_msgs: 0,
                shaper_drops: 0,
                recv_msgs: 0,
                decode_errors: 0,
            }
        };
        // Data packets 1..k and the first parity packet: k packets, data 0
        // absent.
        let held: Vec<usize> = (1..=params.data_packets).collect();
        let nodes = [node(0, &[]), node(1, &held)];
        assert!(nodes[1].player.window_decodable_at(3).is_some());
        assert_eq!(verify_windows(&config, &nodes, 3, 3), 1);
    }
}
