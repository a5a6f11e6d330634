//! The cluster runtime: binds the socket pools, spawns the shards, stops
//! the run and assembles the report.
//!
//! Two layers live here. [`NodeHost`] is the deployable half: it binds the
//! socket pools for one process's id-slice, exposes the local part of the
//! address book, and runs the shards against an *externally supplied*
//! clock, stop flag and full address table — which is exactly what a
//! multi-process `gossipd` needs (the `gossip-deploy` crate drives it).
//! [`ReactorCluster`] is the single-process convenience on top: whole id
//! space, fresh clock, sleep-then-stop, report assembled in place.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use gossip_adversity::CompiledAdversity;
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{assemble_report, ClusterConfig, ClusterError, ClusterReport};
use gossip_udp::report::{NodeReport, ShardStats};

use crate::demux::Placement;
use crate::mmsg::UdpEnv;
use crate::shard::{Shard, ShardConfig};

/// How often a running host rechecks its stop flag while waiting out the
/// run: short enough that a signal or coordinator stop is honoured
/// promptly, long enough to cost nothing.
const STOP_POLL: std::time::Duration = std::time::Duration::from_millis(20);

/// Tuning knobs of the reactor runtime (the workload itself comes from
/// [`ClusterConfig`]).
///
/// The defaults host a 1000-node cluster comfortably on a typical
/// multi-core box; all three knobs only trade CPU against latency, never
/// correctness.
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Number of worker shards (`None` = one per available core, capped so
    /// every shard hosts at least a handful of nodes).
    pub shards: Option<usize>,
    /// Non-blocking sockets per shard: the sockets a shard polls and sends
    /// from. Every node of a shard receives on its first socket, so a peer
    /// packs all it has for the shard into one run of datagrams; the other
    /// sockets carry the shard's sends, spread by destination, and are
    /// drained like the first. The trade-off: the first socket's kernel
    /// receive buffer ([`ReactorOptions::socket_buffer_bytes`]) is the
    /// shard's whole receive buffer, however large the pool.
    pub sockets_per_shard: usize,
    /// Maximum datagrams drained per socket per loop iteration. The
    /// budget is what keeps timers on time under ingress floods. It also
    /// caps a shard's receive pool, capped in turn at the backend's vector
    /// limit: the pool starts with a few buffers and doubles whenever a
    /// receive call fills them all.
    pub recv_batch: usize,
    /// Requested kernel send/receive buffer size per pool socket, applied
    /// best-effort at bind time (`SO_*BUFFORCE` where privileged, the
    /// sysctl-clamped plain options otherwise). Each shared socket carries
    /// the traffic of hundreds of nodes; distribution-default ~200 KiB
    /// buffers overflow under burst and every overflow is a datagram lost
    /// on loopback. Since a shard's nodes all receive on its first socket,
    /// this is also the shard's whole kernel receive buffer: more sockets
    /// per shard add send buffers, not receive room.
    pub socket_buffer_bytes: usize,
    /// Address the pool sockets bind to (port 0: the kernel picks).
    /// Loopback by default; a deployed `gossipd` binds a routable
    /// interface so peer processes on other hosts can reach it.
    pub bind_addr: Ipv4Addr,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            shards: None,
            sockets_per_shard: 4,
            recv_batch: 64,
            socket_buffer_bytes: 8 << 20,
            bind_addr: Ipv4Addr::LOCALHOST,
        }
    }
}

impl ReactorOptions {
    /// Resolves the shard count for `n` hosted nodes.
    pub(crate) fn resolve_shards(&self, n: usize) -> usize {
        if let Some(s) = self.shards {
            return s.max(1).min(n);
        }
        let cores = thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        // No point spinning up a shard for fewer than ~16 nodes.
        cores.min(n.div_ceil(16)).max(1)
    }
}

/// What a finished [`NodeHost::run`] hands back: the hosted nodes' reports
/// plus this process's I/O accounting. One process of a deployment ships
/// this to its coordinator; [`ReactorCluster`] feeds it straight into
/// [`assemble_report`].
#[derive(Debug)]
pub struct HostOutcome {
    /// One report per hosted node. A shard that aborted on an I/O error
    /// still contributes the state its nodes had accumulated; only a
    /// *panicking* shard loses its nodes.
    pub nodes: Vec<NodeReport>,
    /// Per-shard I/O statistics — including those of shards that aborted
    /// on an I/O error mid-run, so a degraded report still carries their
    /// io/recovery counters.
    pub shard_stats: Vec<ShardStats>,
    /// Shards that aborted mid-run (panic or unrecoverable I/O error).
    pub aborted_shards: usize,
    /// Whether the run was cut short by an external stop (signal or
    /// coordinator) before its scheduled deadline.
    pub degraded: bool,
    /// The sampled telemetry series of the run (present only when the
    /// cluster config enabled telemetry).
    pub telemetry: Option<gossip_telemetry::TelemetrySeries>,
}

/// One process's half of a reactor cluster: the socket pools and shard
/// threads hosting a contiguous slice of the id space.
///
/// Binding and running are split so a deployment can interleave discovery:
/// bind first, publish [`NodeHost::local_addresses`] to the tracker, learn
/// every peer's addresses, then [`NodeHost::run`] with the full table and
/// a shared wall-clock epoch. The demux id-prefix makes placement
/// location-transparent — a frame for node `g` routes the same way whether
/// `g`'s shard is in this process or another host's.
#[derive(Debug)]
pub struct NodeHost {
    config: ClusterConfig,
    compiled: Arc<CompiledAdversity>,
    placement: Placement,
    recv_batch: usize,
    socket_buffer_bytes: usize,
    pools: Vec<Vec<UdpSocket>>,
    local_addresses: Vec<(NodeId, SocketAddr)>,
    /// The telemetry hub, started at bind time (when the config asks for
    /// one) so the scrape endpoint is known — and scrapeable — before the
    /// run starts.
    telemetry: Option<gossip_telemetry::Hub>,
}

impl NodeHost {
    /// Binds the socket pools for the id-slice `[lo, hi)` of `config`'s
    /// cluster (`None`: the whole id space, joiners included).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] if a socket cannot be bound and
    /// [`ClusterError::Unsupported`] if the slice is empty or runs past
    /// the compiled population.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical options (zero sockets per shard or a zero
    /// receive batch) — configuration bugs, not runtime conditions.
    pub fn bind(
        config: ClusterConfig,
        options: &ReactorOptions,
        slice: Option<(u32, u32)>,
    ) -> Result<NodeHost, ClusterError> {
        assert!(config.n >= 2, "a cluster needs a source and at least one receiver");
        assert!(options.sockets_per_shard >= 1, "each shard needs at least one socket");
        assert!(options.recv_batch >= 1, "the receive batch must be positive");
        // The reactor hosts the full compiled plan: crashed nodes revive
        // with fresh state, flash-crowd joiners boot mid-run, so slices
        // and the address book are sized for the total population (base
        // nodes plus joiners).
        let compiled = Arc::new(config.compiled_adversity());
        let total_n = compiled.total_n as u32;
        let (lo, hi) = slice.unwrap_or((0, total_n));
        if lo >= hi || hi > total_n {
            return Err(ClusterError::Unsupported(format!(
                "id slice [{lo}, {hi}) does not fit the compiled population of {total_n}"
            )));
        }
        let shards = options.resolve_shards((hi - lo) as usize);
        let placement = Placement::slice(lo, hi, shards);

        // Bind every shard's pool up front so this process's part of the
        // address book exists before anything starts.
        let mut pools: Vec<Vec<UdpSocket>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut pool = Vec::with_capacity(options.sockets_per_shard);
            for _ in 0..options.sockets_per_shard {
                let socket = UdpSocket::bind((options.bind_addr, 0)).map_err(ClusterError::Io)?;
                crate::mmsg::set_socket_buffers(&socket, options.socket_buffer_bytes);
                pool.push(socket);
            }
            pools.push(pool);
        }

        // Hosted node id → its shard's first socket, in id order.
        let shard_addrs: Vec<SocketAddr> = pools
            .iter()
            .map(|pool| pool[0].local_addr())
            .collect::<Result<_, _>>()
            .map_err(ClusterError::Io)?;
        let local_addresses =
            (lo..hi).map(|g| (NodeId::new(g), shard_addrs[placement.shard_of(g)])).collect();

        let telemetry = match &config.telemetry {
            Some(tc) => Some(gossip_telemetry::Hub::start(tc).map_err(ClusterError::Io)?),
            None => None,
        };

        Ok(NodeHost {
            config,
            compiled,
            placement,
            recv_batch: options.recv_batch,
            socket_buffer_bytes: options.socket_buffer_bytes,
            pools,
            local_addresses,
            telemetry,
        })
    }

    /// The address of the live scrape endpoint, when the cluster config
    /// enabled telemetry. Available from bind time, so a deployment can
    /// publish it (and an operator can scrape it) while the run is live.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().map(gossip_telemetry::Hub::scrape_addr)
    }

    /// The hosted nodes and their addresses, in id order — each its
    /// shard's first socket; what a deployed process publishes to the
    /// tracker.
    pub fn local_addresses(&self) -> &[(NodeId, SocketAddr)] {
        &self.local_addresses
    }

    /// Total population of the compiled plan (base nodes plus joiners):
    /// the length the full address table must have.
    pub fn total_n(&self) -> usize {
        self.compiled.total_n
    }

    /// The id slice this host serves.
    pub fn slice(&self) -> (u32, u32) {
        (self.placement.lo, self.placement.hi)
    }

    /// Runs the hosted slice until `run_for` elapses on the shared clock
    /// or `stop` is raised externally, whichever comes first, then stops
    /// the shards and collects their reports.
    ///
    /// `addresses[g]` must be node `g`'s address for *every*
    /// node of the cluster — this process's from
    /// [`NodeHost::local_addresses`], every other process's learned via
    /// the tracker. The `clock` fixes where `Time::ZERO` falls; a
    /// deployment anchors all processes' clocks on one wall-clock start
    /// so the compiled fault timelines coincide.
    ///
    /// # Errors
    ///
    /// Returns an error only if *every* shard aborted without handing
    /// back any state (all panicked); failures surface as
    /// [`HostOutcome::aborted_shards`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `addresses` does not cover the compiled population.
    pub fn run(
        self,
        addresses: Arc<Vec<SocketAddr>>,
        clock: ClusterClock,
        stop: Arc<AtomicBool>,
        run_for: std::time::Duration,
    ) -> Result<HostOutcome, ClusterError> {
        assert_eq!(
            addresses.len(),
            self.compiled.total_n,
            "the address table must cover every node of the cluster"
        );
        let shards = self.placement.shards;
        let mut handles = Vec::with_capacity(shards);
        for (index, sockets) in self.pools.into_iter().enumerate() {
            let shard_config = ShardConfig {
                index,
                placement: self.placement,
                recv_batch: self.recv_batch,
                cluster: self.config.clone(),
                compiled: Arc::clone(&self.compiled),
                addresses: Arc::clone(&addresses),
                stop: Arc::clone(&stop),
                telemetry: self
                    .telemetry
                    .as_ref()
                    .map(|hub| crate::telemetry::ShardTelemetry::register(hub.registry(), index)),
            };
            // A panicking shard must not sink the run: the unwind is caught
            // at the thread boundary, the shard's nodes are reported
            // missing, and the survivors' report is still assembled. (In
            // the release profile panics abort; this isolation exists for
            // the dev/test profile and for bugs in the fault injectors.)
            let buffer_bytes = self.socket_buffer_bytes;
            let run = move || match UdpEnv::new(clock, sockets, buffer_bytes) {
                Ok(env) => Shard::new(shard_config, env).run(),
                Err(e) => (Vec::new(), ShardStats::default(), Some(e)),
            };
            let handle = thread::Builder::new()
                .name(format!("gossip-shard-{index}"))
                .spawn(move || catch_unwind(AssertUnwindSafe(run)))
                .map_err(ClusterError::Io)?;
            handles.push(handle);
        }

        // Wait out the run on the shared clock, honouring an external stop
        // (operator signal, coordinator abort) promptly: that cuts the
        // measurement short and marks the outcome degraded instead of
        // losing it.
        let end = Time::ZERO + Duration::from_micros(run_for.as_micros() as u64);
        let mut degraded = false;
        loop {
            if stop.load(Ordering::Relaxed) {
                degraded = true;
                break;
            }
            let left = clock.until(end);
            if left.is_zero() {
                break;
            }
            thread::sleep(left.min(STOP_POLL));
        }
        stop.store(true, Ordering::Relaxed);

        let mut nodes = Vec::with_capacity(self.placement.hosted());
        let mut shard_stats = Vec::with_capacity(shards);
        let mut aborted = 0;
        let mut failed_ok = 0;
        let mut first_failure: Option<ClusterError> = None;
        for (index, handle) in handles.into_iter().enumerate() {
            // Three failure layers per shard: the thread itself (join),
            // the caught unwind, and the shard's own I/O result. A panic
            // costs the shard's nodes; an I/O abort keeps the partial
            // reports and stats the shard had accumulated (an operator
            // signal must not erase the io/recovery counters of shards
            // that never finished their drain). Either way the run
            // survives — unless every shard is gone, in which case the
            // first failure is reported.
            let caught = handle
                .join()
                .map_err(|_| ClusterError::NodePanic(index))
                .and_then(|caught| caught.map_err(|_| ClusterError::NodePanic(index)));
            match caught {
                Ok((reports, stats, failure)) => {
                    nodes.extend(reports);
                    shard_stats.push(stats);
                    if let Some(e) = failure {
                        aborted += 1;
                        failed_ok += 1;
                        first_failure.get_or_insert(ClusterError::Io(e));
                    }
                }
                Err(e) => {
                    aborted += 1;
                    first_failure.get_or_insert(e);
                }
            }
        }
        if aborted == shards && failed_ok == 0 {
            return Err(first_failure.unwrap_or(ClusterError::NodePanic(0)));
        }
        let telemetry = self.telemetry.map(gossip_telemetry::Hub::finish);
        Ok(HostOutcome { nodes, shard_stats, aborted_shards: aborted, degraded, telemetry })
    }
}

/// The sharded shared-socket cluster runner: the whole id space of a
/// [`ClusterConfig`] in this process, reported as a [`ClusterReport`].
#[derive(Debug)]
pub struct ReactorCluster;

impl ReactorCluster {
    /// Runs a cluster to completion with default [`ReactorOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] if sockets cannot be bound or a
    /// shard's socket fails mid-run, and [`ClusterError::NodePanic`] (with
    /// the shard index) if a shard thread dies.
    pub fn run(config: ClusterConfig) -> Result<ClusterReport, ClusterError> {
        Self::run_with(config, ReactorOptions::default())
    }

    /// Runs a cluster to completion with explicit runtime options.
    ///
    /// # Errors
    ///
    /// See [`ReactorCluster::run`].
    pub fn run_with(
        config: ClusterConfig,
        options: ReactorOptions,
    ) -> Result<ClusterReport, ClusterError> {
        let host = NodeHost::bind(config.clone(), &options, None)?;
        let addresses: Arc<Vec<SocketAddr>> =
            Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
        let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);
        let outcome =
            host.run(addresses, ClusterClock::start(), Arc::new(AtomicBool::new(false)), run_for)?;
        let mut report = assemble_report(&config, outcome.nodes);
        report.shard_stats = outcome.shard_stats;
        report.aborted_shards = outcome.aborted_shards;
        report.degraded = outcome.degraded;
        report.telemetry = outcome.telemetry;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use gossip_core::GossipConfig;
    use gossip_experiments::Scenario;
    use gossip_fec::WindowParams;
    use gossip_net::{LatencyModel, LossModel};
    use gossip_stream::StreamConfig;

    use super::*;
    use crate::shard::stepped::VirtualCluster;

    #[test]
    fn default_options_resolve_sane_shard_counts() {
        let opts = ReactorOptions::default();
        assert_eq!(opts.resolve_shards(2), 1, "tiny clusters get one shard");
        assert!(opts.resolve_shards(10_000) >= 1);
        let pinned = ReactorOptions { shards: Some(3), ..ReactorOptions::default() };
        assert_eq!(pinned.resolve_shards(1000), 3);
        assert_eq!(pinned.resolve_shards(2), 2, "never more shards than nodes");
    }

    #[test]
    fn smoke_reactor_disseminates() {
        // The smoke cluster on a 2 + 1 s run: ten 0.2 s windows, enough
        // for what real sockets must show. The protocol itself is covered
        // on virtual time.
        let config = ClusterConfig {
            stream_duration: gossip_types::Duration::from_secs(2),
            drain_duration: gossip_types::Duration::from_secs(1),
            ..ClusterConfig::smoke_test()
        };
        let report = ReactorCluster::run(config).expect("cluster runs");
        assert_eq!(report.receivers(), 7);
        assert!(report.windows_measured >= 3);
        let avg = report.quality.average_quality_percent(gossip_types::Duration::MAX);
        assert!(avg >= 80.0, "average offline quality {avg}% too low");
        assert!(report.windows_verified > 0, "some windows must be byte-verified");
        let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
        assert_eq!(decode_errors, 0, "no malformed datagrams on loopback");
        assert!(!report.degraded, "an undisturbed run is never degraded");
    }

    #[test]
    fn invalid_slices_are_rejected_at_bind() {
        let config = ClusterConfig::smoke_test(); // n = 8
        let opts = ReactorOptions::default();
        assert!(matches!(
            NodeHost::bind(config.clone(), &opts, Some((4, 4))),
            Err(ClusterError::Unsupported(_))
        ));
        assert!(matches!(
            NodeHost::bind(config, &opts, Some((0, 9))),
            Err(ClusterError::Unsupported(_))
        ));
    }

    #[test]
    fn bound_slice_publishes_its_ids_in_order() {
        let host =
            NodeHost::bind(ClusterConfig::smoke_test(), &ReactorOptions::default(), Some((2, 6)))
                .expect("binds");
        assert_eq!(host.slice(), (2, 6));
        assert_eq!(host.total_n(), 8);
        let ids: Vec<u32> = host.local_addresses().iter().map(|&(id, _)| id.as_u32()).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn external_stop_marks_the_outcome_degraded() {
        let config = ClusterConfig::smoke_test();
        let host = NodeHost::bind(config, &ReactorOptions::default(), None).expect("binds");
        let addresses: Arc<Vec<SocketAddr>> =
            Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let stopper = Arc::clone(&stop);
        let killer = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(300));
            stopper.store(true, Ordering::Relaxed);
        });
        let outcome = host
            .run(
                addresses,
                ClusterClock::start(),
                stop,
                std::time::Duration::from_secs(60), // far past the stop
            )
            .expect("runs");
        killer.join().expect("killer thread");
        assert!(outcome.degraded, "an external stop must mark the outcome degraded");
        assert_eq!(outcome.aborted_shards, 0);
        assert!(!outcome.nodes.is_empty());
    }

    // The cluster-level tests below run the shard loop on virtual time (see
    // `crate::shard::stepped`): every assert about the protocol and the host
    // holds for the loop a deployment runs, exactly and without sleeping.
    // What only real sockets can show — `ppoll`, a dead descriptor, a live
    // leg per I/O path — is in the shard's tests.

    fn reactor_cluster(n: usize, secs: u64) -> ClusterConfig {
        ClusterConfig {
            n,
            gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(100)),
            stream: StreamConfig {
                rate_bps: 200_000,
                packet_payload_bytes: 500,
                window: WindowParams::new(10, 3),
            },
            upload_cap_bps: Some(2_000_000),
            source_uncapped: true,
            max_backlog: Duration::from_secs(5),
            stream_duration: Duration::from_secs(secs),
            drain_duration: Duration::from_secs(2),
            seed: 11,
            inject_loss: 0.0,
            crashes: Vec::new(),
            adversity: gossip_adversity::AdversitySpec::none(),
            joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
            telemetry: None,
        }
    }

    /// Pinned shard geometry so test behaviour does not depend on the box's
    /// core count.
    fn small_reactor() -> ReactorOptions {
        ReactorOptions { shards: Some(2), ..ReactorOptions::default() }
    }

    /// `config` on two shards, batched path, virtual time.
    fn run_virtual(config: ClusterConfig) -> ClusterReport {
        VirtualCluster::run(config, &small_reactor(), true)
    }

    /// Both I/O paths — the kernel-batched one and the portable
    /// per-datagram one — drive the same state machine as the simulator,
    /// the reference: all three must reach high offline quality on an
    /// equivalent lightly-loaded workload, and the two paths must agree
    /// within a generous band. Neither may see a malformed datagram, and
    /// neither loop may spin: a shard dwells out one wake quantum per
    /// iteration unless its last drain left backlog, and every such
    /// undwelt re-loop follows a data-bearing receive call.
    #[test]
    fn both_io_backends_stream_like_the_simulated_oracle() {
        let sim = Scenario::tiny(6).with_seed(7).with_upload_cap_kbps(Some(2_000)).run();
        let sim_q = sim.quality.average_quality_percent(Duration::MAX);
        assert!(sim_q >= 90.0, "sim quality {sim_q:.1}%");

        let config = reactor_cluster(8, 4);
        let qualities = [("mmsg", true), ("fallback", false)].map(|(label, batched)| {
            let mut cluster = VirtualCluster::new(config.clone(), &small_reactor(), batched);
            let wall_secs = cluster.end().as_secs_f64();
            cluster.run_until(cluster.end());
            let report = cluster.finish();
            let q = report.quality.average_quality_percent(Duration::MAX);
            assert!(q >= 80.0, "reactor ({label}) quality {q:.1}%");
            assert!(report.windows_verified > 0, "reactor ({label}) windows must byte-verify");
            let io = report.io_stats().expect("the reactor reports shard stats");
            assert_eq!(io.frame_errors, 0, "no malformed framing ({label})");
            assert!(io.datagrams_sent > 0 && io.datagrams_received > 0);
            let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
            assert_eq!(decode_errors, 0, "no malformed datagrams ({label})");
            let quantum = crate::mmsg::WAKE_QUANTUM.as_secs_f64();
            let wakes = (1.5 * report.shard_stats.len() as f64 * wall_secs / quantum) as u64;
            let bound = wakes + io.recv_syscalls;
            assert!(
                io.iterations <= bound,
                "a shard loop is spinning ({label}): {} iterations on {} shards in {wall_secs:.1} s \
                 (bound {bound})",
                io.iterations,
                report.shard_stats.len(),
            );
            q
        });
        assert!(
            (qualities[0] - qualities[1]).abs() <= 20.0,
            "backends disagree: mmsg {:.1}% vs fallback {:.1}%",
            qualities[0],
            qualities[1]
        );
    }

    /// Injected datagram loss degrades but does not break the deployment: FEC
    /// and retransmission cover a few percent of loss on the live loop too.
    #[test]
    fn reactor_survives_injected_loss() {
        let mut config = reactor_cluster(8, 4);
        config.inject_loss = 0.02;
        let report = run_virtual(config);
        let avg = report.quality.average_quality_percent(Duration::MAX);
        assert!(avg >= 60.0, "2% injected loss should be survivable: {avg}%");
    }

    /// Upload links actually limit throughput: with a tight cap, a node cannot send
    /// faster than configured.
    #[test]
    fn shaper_limits_throughput() {
        let mut config = reactor_cluster(4, 3);
        config.upload_cap_bps = Some(300_000);
        let elapsed_secs = (config.stream_duration + config.drain_duration).as_secs_f64();
        let report = run_virtual(config);
        for node in report.nodes.iter().skip(1) {
            let kbps = node.sent_bytes as f64 * 8.0 / 1000.0 / elapsed_secs;
            assert!(
                kbps <= 330.0,
                "node {} sent {kbps:.0} kbps through a 300 kbps shaper",
                node.id
            );
        }
    }

    /// Crash-injection: 30 % of the virtual nodes die mid-stream; the
    /// survivors' windows must still complete. Gossip's redundant id
    /// dissemination makes the cluster indifferent to even heavy churn — the
    /// paper's central robustness claim, exercised here on the shard loop.
    #[test]
    fn reactor_survives_thirty_percent_crashes() {
        let mut config = reactor_cluster(30, 5);
        // Nodes 1..=9 (30 % of 30, never the source) crash at 2 s.
        config.crashes = (1..=9).map(|i| (i, Duration::from_secs(2))).collect();
        let report = run_virtual(config.clone());

        let crashed: Vec<usize> = config.crashes.iter().map(|&(node, _)| node).collect();
        let survivors: Vec<f64> = report
            .quality
            .nodes()
            .iter()
            .enumerate()
            // Receiver index r is node r + 1 (node 0 is the source).
            .filter(|(r, _)| !crashed.contains(&(r + 1)))
            .map(|(_, q)| q.complete_fraction())
            .collect();
        assert_eq!(survivors.len(), 20, "29 receivers minus 9 victims");
        let avg = 100.0 * survivors.iter().sum::<f64>() / survivors.len() as f64;
        assert!(avg >= 60.0, "survivors should keep streaming: {avg:.1}%");

        // The victims really did go dark: windows published after the 2 s
        // crash can never reach a node that drops every datagram, so no
        // victim can have completed all measured windows of a 5 s stream.
        for &c in &crashed {
            let victim = report.quality.nodes()[c - 1].complete_fraction();
            assert!(victim < 1.0 - 1e-9, "crashed node {c} completed every window ({victim})");
        }
    }

    /// Aggregate sanity at n = 256: every node reports, ids come back
    /// complete and ordered, the source actually streamed, traffic flowed
    /// through the shared sockets grouped by destination, and nothing was
    /// malformed.
    #[test]
    fn reactor_reports_are_sane_at_n256() {
        let report = run_virtual(reactor_cluster(256, 4));

        assert_eq!(report.nodes.len(), 256, "every virtual node must report");
        assert_eq!(report.receivers(), 255);
        for (i, node) in report.nodes.iter().enumerate() {
            assert_eq!(node.id.index(), i, "reports must come back sorted by id");
        }

        let source = &report.nodes[0];
        assert!(source.sent_msgs > 0, "the source must have proposed");
        assert!(source.protocol.events_delivered > 0, "the source publishes to itself");

        let total_sent: u64 = report.nodes.iter().map(|n| n.sent_msgs).sum();
        let total_recv: u64 = report.nodes.iter().map(|n| n.recv_msgs).sum();
        let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
        assert!(total_sent > 1000, "a 256-node cluster generates real traffic: {total_sent}");
        assert!(total_recv > 0, "shared sockets must deliver");
        assert_eq!(decode_errors, 0, "no malformed datagrams");

        // Structural too: a wake sends everything it produced as one kernel
        // datagram per destination address, and wakes are a quantum apart at
        // least, so the ratio is set by the offered load over the two shards'
        // eight addresses. Packing only consecutive same-destination
        // releases reads 1.1–1.2.
        let io = report.io_stats().expect("the reactor reports shard stats");
        let coalescing = io.datagrams_per_kernel_datagram().expect("traffic flowed");
        assert!(
            coalescing >= 1.5,
            "{coalescing:.2} datagrams per kernel datagram: sends are not grouped by destination"
        );

        assert!(report.windows_measured >= 3);
        assert!(report.windows_verified > 0, "windows must byte-verify through Reed-Solomon");
        let avg = report.quality.average_quality_percent(Duration::MAX);
        assert!(avg >= 50.0, "a lightly loaded 256-node run should stream: {avg:.1}%");
    }

    /// `config`'s workload on the simulator, over a loopback-like network
    /// (tiny constant latency, no in-network loss) and measured over the
    /// cluster report's window range. Refuses what a scenario has no field
    /// for: a Cyclon bootstrap and the `crashes` and `inject_loss`
    /// shorthands.
    fn simulated(config: &ClusterConfig) -> gossip_experiments::RunResult {
        let tracker = gossip_udp::cluster::JoinerBootstrap::Tracker;
        assert_eq!(config.joiner_bootstrap, tracker, "no simulator twin for a Cyclon bootstrap");
        assert!(config.crashes.is_empty(), "no simulator twin for the crash shorthand");
        assert_eq!(config.inject_loss, 0.0, "no simulator twin for the loss shorthand");
        let mut scenario = Scenario::tiny(6)
            .with_seed(config.seed)
            .with_gossip(config.gossip.clone())
            .with_adversity(config.adversity.clone());
        scenario.n = config.n;
        scenario.stream = config.stream;
        scenario.upload_cap_bps = config.upload_cap_bps;
        scenario.source_uncapped = config.source_uncapped;
        scenario.max_queue_delay = config.max_backlog;
        scenario.stream_duration = config.stream_duration;
        scenario.drain_duration = config.drain_duration;
        scenario.latency = LatencyModel::Constant(Duration::from_micros(200));
        scenario.loss = LossModel::None;
        scenario.measure_from_window = 1;
        scenario.run()
    }

    /// The paper's Figure 7/8 catastrophe — 80 % of the nodes crash
    /// simultaneously at the stream midpoint under `X = 1` — as one
    /// declarative spec on `n` nodes at `seed`.
    fn figure_7_8_config(seed: u64) -> ClusterConfig {
        let spec =
            gossip_adversity::AdversitySpec::none().with_catastrophic(Duration::from_secs(3), 0.8);
        let mut config = reactor_cluster(50, 6);
        config.seed = seed;
        // Fanout ~ln(n)+2, the paper's optimum for the deployment size (its
        // Figure 7/8 numbers are at the optimal fanout).
        config.gossip = GossipConfig::new(6)
            .with_gossip_period(Duration::from_millis(100))
            .with_refresh_rounds(Some(1));
        config.adversity = spec;
        config
    }

    /// Mean completeness, in percent, of the receivers `keep` admits (by
    /// node index; quality index r is node r + 1).
    fn mean_complete(
        qualities: &[gossip_stream::NodeQuality],
        keep: impl Fn(usize) -> bool,
    ) -> f64 {
        let kept: Vec<f64> = qualities
            .iter()
            .enumerate()
            .filter(|&(r, _)| keep(r + 1))
            .map(|(_, q)| 100.0 * q.complete_fraction())
            .collect();
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// The acceptance scenario of the adversity subsystem: the paper's
    /// Figure 7/8 catastrophe expressed as ONE declarative `AdversitySpec`
    /// and applied unchanged to both the event-driven simulator and the
    /// shard loop. The spec compiles from the same `(spec, n, seed)` in
    /// both, so the two runs kill the *identical* victim set; survivors must
    /// keep streaming comparably and every victim must go dark in both
    /// worlds.
    #[test]
    fn figure_7_8_spec_runs_on_sim_and_reactor() {
        let config = figure_7_8_config(11);
        let n = config.n;
        let report = run_virtual(config.clone());
        let sim = simulated(&config);

        // Both runtimes compiled the identical timeline.
        let dead = config.compiled_adversity().timeline.dead_at(Time::MAX);
        assert_eq!(dead.len(), 40, "80% of 50");

        // Dark victims, both worlds: the simulator excludes them from the
        // survivor report entirely; the shards report them with incomplete
        // windows (nothing can reach a node that drops every datagram).
        assert_eq!(sim.quality.nodes().len(), n - 1 - dead.len());
        for v in &dead {
            let victim = report.quality.nodes()[v.index() - 1].complete_fraction();
            assert!(victim < 1.0 - 1e-9, "victim {v} completed every window ({victim})");
        }

        // Comparable survivor quality: both must stream, and they must not
        // tell opposite stories.
        let sim_avg = sim.quality.average_quality_percent(Duration::MAX);
        let survivor = |v: usize| !dead.iter().any(|d| d.index() == v);
        let survivors = report.quality.nodes().iter().enumerate().filter(|(r, _)| survivor(r + 1));
        assert_eq!(survivors.count(), n - 1 - dead.len());
        let reactor_avg = mean_complete(report.quality.nodes(), survivor);
        // n = 50 is far below the paper's 230-node deployment, so absolute
        // completeness after an 80 % massacre is scale-limited; the claim
        // under test is that both runtimes keep streaming AND agree.
        assert!(sim_avg >= 40.0, "sim survivors must keep streaming: {sim_avg:.1}%");
        assert!(reactor_avg >= 40.0, "reactor survivors must keep streaming: {reactor_avg:.1}%");
        assert!(
            (sim_avg - reactor_avg).abs() <= 35.0,
            "sim ({sim_avg:.1}%) and reactor ({reactor_avg:.1}%) disagree beyond the band"
        );
    }

    /// ONE TOML spec with 20 % serve-corrupting Byzantine peers on `n = 40`
    /// nodes at `seed`.
    fn byzantine_config(seed: u64) -> ClusterConfig {
        let toml = "[byzantine]\nfraction = 0.2\nserve_corrupt = 1.0\n";
        let spec = gossip_adversity::AdversitySpec::from_toml_str(toml)
            .expect("the TOML grammar covers byzantine");
        let mut config = reactor_cluster(40, 6);
        config.seed = seed;
        config.gossip = GossipConfig::new(6)
            .with_gossip_period(Duration::from_millis(100))
            .with_refresh_rounds(Some(1));
        config.adversity = spec;
        config
    }

    /// The compiled corruptor set of `config`, by node index.
    fn corruptors(config: &ClusterConfig) -> Vec<usize> {
        let compiled = config.compiled_adversity();
        let profiles = compiled.profiles.iter().enumerate();
        profiles.filter(|(_, p)| p.byzantine.is_some()).map(|(i, _)| i).collect()
    }

    /// The adversarial-resilience acceptance scenario: ONE TOML spec with
    /// 20 % serve-corrupting Byzantine peers, parsed once and applied
    /// unchanged to both the simulator and the shard loop. Both runtimes
    /// compile the identical corruptor set from `(spec, n, seed)`; with the
    /// defenses on (the default) both must detect every poisoned Serve, keep
    /// the honest receivers streaming, and agree within the band.
    #[test]
    fn byzantine_toml_spec_runs_on_sim_and_reactor() {
        let config = byzantine_config(7);
        let corruptors = corruptors(&config);
        assert!(
            !corruptors.is_empty() && !corruptors.contains(&0),
            "receivers corrupt, never the source"
        );

        let report = run_virtual(config.clone());
        let sim = simulated(&config);

        // Every corruption is counted, in both worlds: corruptors tamper every
        // Serve they send, so with traffic flowing the checksum must trip.
        assert!(sim.protocol.corrupted_events_detected > 0, "the sim must detect poisoned serves");
        assert!(sim.protocol.corrupt_rerequests > 0, "detected corruption is re-requested");
        let res = report.protocol();
        assert!(res.corrupted_events_detected > 0, "the reactor must detect poisoned serves");

        // Honest receivers keep streaming in both runtimes, and the two tell
        // the same story.
        let honest = |v: usize| !corruptors.contains(&v);
        let sim_avg = mean_complete(sim.quality.nodes(), honest);
        let reactor_avg = mean_complete(report.quality.nodes(), honest);
        assert!(sim_avg >= 60.0, "sim honest receivers must keep streaming: {sim_avg:.1}%");
        assert!(
            reactor_avg >= 60.0,
            "reactor honest receivers must keep streaming: {reactor_avg:.1}%"
        );
        assert!(
            (sim_avg - reactor_avg).abs() <= 35.0,
            "sim ({sim_avg:.1}%) and reactor ({reactor_avg:.1}%) disagree beyond the band"
        );
    }

    /// With validation off the shard is the only integrity gate left: the
    /// poison an undefended node swallows must still stay out of its player,
    /// so turning the defenses off shows as lost quality, not polluted numbers.
    #[test]
    fn undefended_reactor_nodes_keep_poisoned_deliveries_out_of_the_player() {
        use gossip_adversity::{AdversitySpec, ByzantineMix};

        let mut config = reactor_cluster(24, 3);
        config.gossip.verify_payloads = false;
        config.adversity =
            AdversitySpec::none().with_byzantine(0.2, ByzantineMix::serve_corruptors());
        let report = run_virtual(config);

        assert_eq!(report.protocol().corrupted_events_detected, 0, "the nodes do not look");
        // Every delivery reaches the player unless the shard's gate stopped
        // it, so the shortfall is exactly the poison.
        let mut kept_out = 0;
        for node in report.nodes.iter().skip(1) {
            let watched = node.player.packets_received();
            assert!(watched <= node.protocol.events_delivered);
            kept_out += node.protocol.events_delivered - watched;
        }
        assert!(kept_out > 0, "corruptors tamper every serve: some poison must have arrived");
    }

    /// Partition/heal on the shard loop: the demux drops cross-cell frames
    /// while the split is live, so live viewing craters for the cells away
    /// from the source, then re-converges once the timeline heals the split.
    #[test]
    fn partition_heals_and_reconverges_on_reactor() {
        use gossip_adversity::AdversitySpec;
        use gossip_experiments::figures::adversity::partition_phases;

        let split_at = Duration::from_secs(2);
        let heal_at = Duration::from_secs(5);
        let mut config = reactor_cluster(24, 8);
        config.gossip = GossipConfig::new(5)
            .with_gossip_period(Duration::from_millis(100))
            .with_refresh_rounds(Some(1));
        config.adversity = AdversitySpec::none().with_partition(split_at, heal_at, 2);
        let report = run_virtual(config.clone());

        let p = partition_phases(
            report.quality.nodes(),
            &config.stream,
            1, // the cluster report measures from window 1
            split_at,
            heal_at,
            Duration::from_millis(1500),
        );
        assert!(p.before_20s > 60.0, "pre-split live viewing healthy: {p:?}");
        assert!(
            p.during_20s < p.before_20s - 20.0,
            "a 2-cell split must crater live viewing: {p:?}"
        );
        assert!(p.after_20s > p.during_20s, "healing must restore live viewing: {p:?}");
        assert!(p.reconverge_s.is_some(), "the swarm re-converges after the heal: {p:?}");
    }

    /// A composed spec — Poisson leave/rejoin churn plus a mid-stream flash
    /// crowd — runs to completion on the shard loop, with the joiners
    /// reaching non-trivial completeness over the windows published after
    /// they joined.
    #[test]
    fn reactor_hosts_churn_and_flash_crowd() {
        use gossip_adversity::AdversitySpec;

        let mut config = reactor_cluster(40, 6);
        config.adversity = AdversitySpec::none()
            .with_poisson_churn(
                Duration::ZERO,
                Duration::from_secs(6),
                0.5,
                Some(Duration::from_secs(3)),
            )
            .with_flash_crowd(Duration::from_secs(2), 10, Duration::from_secs(1));
        let compiled = config.compiled_adversity();
        assert_eq!(compiled.total_n, 50);
        let report = run_virtual(config);

        assert_eq!(report.nodes.len(), 50, "joiners must report too");
        let joiners = report.joiner_quality.as_ref().expect("the wave joined mid-stream");
        assert_eq!(joiners.nodes().len(), 10);
        let catch_up = joiners.average_quality_percent(Duration::MAX);
        assert!(catch_up >= 40.0, "joiners must reach non-trivial completeness: {catch_up:.1}%");

        // The send-batching satellite: shards must report their syscall
        // accounting, and coalescing must never *increase* the syscall count.
        assert!(!report.shard_stats.is_empty());
        let total = report.io_stats().expect("shard stats");
        assert!(total.datagrams_sent > 0);
        let ratio = total.syscalls_per_datagram().expect("traffic flowed");
        assert!(
            ratio <= 1.0 + 1e-9,
            "coalescing cannot take more syscalls than datagrams: {ratio}"
        );
    }

    /// Cyclon-bootstrapped joiners: a flash crowd enters knowing only a
    /// bounded random sample of peers — no tracker push tells the swarm about
    /// them. Their per-round membership shuffles spread their ids epidemically
    /// (established nodes adopt shuffle senders and offered peers on contact),
    /// so the joiners must still catch up on the stream, while the base swarm
    /// keeps streaming undisturbed.
    #[test]
    fn cyclon_bootstrapped_joiners_catch_up_without_tracker_push() {
        use gossip_adversity::AdversitySpec;
        use gossip_udp::cluster::JoinerBootstrap;

        let mut config = reactor_cluster(30, 6);
        config.joiner_bootstrap = JoinerBootstrap::Cyclon { degree: 5 };
        config.adversity = AdversitySpec::none().with_flash_crowd(
            Duration::from_secs(2),
            8,
            Duration::from_secs(1),
        );
        let report = run_virtual(config);

        assert_eq!(report.nodes.len(), 38, "joiners must report too");
        let joiners = report.joiner_quality.as_ref().expect("the wave joined mid-stream");
        assert_eq!(joiners.nodes().len(), 8);
        let catch_up = joiners.average_quality_percent(Duration::MAX);
        assert!(
            catch_up >= 40.0,
            "partial-view joiners must catch up without a tracker: {catch_up:.1}%"
        );
        let base = report.quality.average_quality_percent(Duration::MAX);
        assert!(base >= 80.0, "the base swarm must be undisturbed by the wave: {base:.1}%");
    }

    /// FNV-1a over a report: every node's report — id, protocol counters,
    /// traffic counters and player state — then every shard's counters.
    fn digest(report: &ClusterReport) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |text: String| {
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for n in &report.nodes {
            let traffic = [n.sent_bytes, n.sent_msgs, n.shaper_drops, n.recv_msgs, n.decode_errors];
            fold(format!("{:?}{:?}{traffic:?}{:?}", n.id, n.protocol, n.player.snapshot()));
        }
        for stats in &report.shard_stats {
            fold(format!("{stats:?}"));
        }
        h
    }

    /// The digest of a seeded two-shard cluster of 40 nodes on virtual
    /// time, with one explicit crash and a steady drop/duplicate/reorder
    /// mix. The shard loop is then a pure function of its configuration: a
    /// change that moves this digest changed what the live runtime does,
    /// not only how fast.
    fn virtual_cluster_digest() -> u64 {
        use gossip_adversity::{AdversitySpec, ChaosSpec};

        let mut config = reactor_cluster(40, 3);
        config.seed = 5;
        config.crashes = vec![(7, Duration::from_millis(1500))];
        config.adversity = AdversitySpec::none().with_chaos(ChaosSpec {
            drop: 0.02,
            duplicate: 0.02,
            reorder: 0.05,
            ..ChaosSpec::default()
        });
        digest(&run_virtual(config))
    }

    /// Moved when every node of a shard came to receive on its shard's
    /// first socket instead of one striped over the pool: the datagram
    /// packing and the counters it drives (kernel datagrams sent 8 883 →
    /// 6 544, receive calls 8 196 → 4 904, two shards together), and with
    /// them the node reports — a wake's frames for a shard now arrive on
    /// one socket in send order, not spread over four drained in turn, so
    /// the nodes read them in another order.
    ///
    /// Moved again, from 0xf792_9aac_3100_438c, when `ShardStats` lost its
    /// `backend_downgrades` row (always 0 here): only the printed shard
    /// counters changed. The node half of the digest and every remaining
    /// shard counter are what they were.
    const VIRTUAL_CLUSTER_DIGEST: u64 = 0xa913_63a5_92e3_cd10;

    #[test]
    fn a_virtual_cluster_digest_is_pinned() {
        let first = virtual_cluster_digest();
        assert_eq!(first, virtual_cluster_digest(), "two runs in one process differ");
        assert_eq!(
            first, VIRTUAL_CLUSTER_DIGEST,
            "the shard loop's digest is {first:#018x}, pinned {VIRTUAL_CLUSTER_DIGEST:#018x}"
        );
    }
}
