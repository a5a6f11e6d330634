//! The per-node event loop around the sans-io protocol core.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gossip_adversity::{ByzantineBehaviour, CompiledAdversity, FaultAction, PartitionState};
use gossip_core::wire::{decode_message, encode_message};
use gossip_core::{Event, GossipNode, Message, Output, TimerToken};
use gossip_membership::{wire as shuffle_wire, CyclonConfig, CyclonView, ShuffleMessage};
use gossip_sim::{DetRng, EventQueue};
use gossip_stream::{byzantine, StreamPacket, StreamPlayer, StreamSource};
use gossip_types::{Duration, NodeId, Time};

use crate::clock::ClusterClock;
use crate::shaper::UploadShaper;

pub use crate::report::NodeReport;

/// Configuration of one node driver.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// This node's identity.
    pub id: NodeId,
    /// Protocol configuration.
    pub gossip: gossip_core::GossipConfig,
    /// Stream configuration (used by the player).
    pub stream: gossip_stream::StreamConfig,
    /// Upload cap in bits/s (`None` = unshaped).
    pub upload_cap_bps: Option<u64>,
    /// Shaper backlog bound.
    pub max_backlog: Duration,
    /// RNG seed shared by the cluster.
    pub seed: u64,
    /// If set, this node is the source and streams for the given duration.
    pub stream_for: Option<Duration>,
    /// Probability of dropping each received datagram (impairment
    /// injection; the drop decision is deterministic per seed).
    pub inject_loss: f64,
    /// If set, the node crashes (stops processing and sending) at this
    /// point of the run — churn injection for the real runtime.
    pub crash_at: Option<Duration>,
    /// Whether this node free-rides (requests but never proposes or
    /// serves) — the selfish peer of the adversity experiments.
    pub free_rider: bool,
    /// The cluster's compiled fault plan (shared, read-only). Each thread
    /// walks the *network-scoped* events — partition/heal and scheduled
    /// throttles — on its own cursor, and reads its own Byzantine profile;
    /// node-scoped crash events are pre-resolved into
    /// [`DriverConfig::crash_at`] by the cluster.
    pub compiled: Arc<CompiledAdversity>,
    /// The base population, which every established node knows from the
    /// start: one list shared by all the cluster's threads.
    pub membership: Arc<[NodeId]>,
    /// If set, this node is a flash-crowd joiner: the thread parks until
    /// the join offset, then boots with a Cyclon partial view seeded from
    /// the bootstrap sample and runs one membership shuffle per gossip
    /// round (mirroring the reactor runtime's `JoinerBootstrap::Cyclon`).
    pub join: Option<JoinPlan>,
    /// Live telemetry cells of this node (pre-registered by the cluster;
    /// `None` when telemetry is off — the default — keeping the loop free
    /// of atomic traffic).
    pub telemetry: Option<NodeCells>,
}

/// The live telemetry cells one node thread mirrors its counters into.
///
/// Registered once by the cluster (labelled `node="<index>"`), then written
/// by exactly one thread with relaxed stores at a coarse cadence — the hot
/// loop keeps its plain-field counters and the cells shadow them.
#[derive(Debug, Clone)]
pub struct NodeCells {
    datagrams_sent: gossip_telemetry::Cell,
    bytes_sent: gossip_telemetry::Cell,
    shaper_drops: gossip_telemetry::Cell,
    datagrams_received: gossip_telemetry::Cell,
    decode_errors: gossip_telemetry::Cell,
    packets_received: gossip_telemetry::Cell,
    completeness: gossip_telemetry::Cell,
}

impl NodeCells {
    /// Registers the per-node metric family instances for node `index`.
    pub fn register(registry: &gossip_telemetry::Registry, index: usize) -> NodeCells {
        let labels: &[(&str, String)] = &[("node", index.to_string())];
        NodeCells {
            datagrams_sent: registry.counter(
                "gossip_node_datagrams_sent_total",
                "Datagrams this node put on the wire.",
                labels,
            ),
            bytes_sent: registry.counter(
                "gossip_node_bytes_sent_total",
                "Payload bytes this node put on the wire.",
                labels,
            ),
            shaper_drops: registry.counter(
                "gossip_node_shaper_drops_total",
                "Datagrams dropped by the upload shaper's backlog bound.",
                labels,
            ),
            datagrams_received: registry.counter(
                "gossip_node_datagrams_received_total",
                "Datagrams this node received and attempted to decode.",
                labels,
            ),
            decode_errors: registry.counter(
                "gossip_node_decode_errors_total",
                "Received datagrams that failed to decode.",
                labels,
            ),
            packets_received: registry.counter(
                "gossip_node_stream_packets_total",
                "Verified stream packets delivered to the player.",
                labels,
            ),
            completeness: registry.gauge_f64(
                "gossip_node_completeness_percent",
                "Percentage of observed stream windows currently decodable.",
                labels,
            ),
        }
    }

    /// Mirrors the loop's counters into the cells. Called at a coarse
    /// cadence (not per iteration): the completeness gauge walks the
    /// player's window records.
    fn publish(
        &self,
        shaper: &UploadShaper<(NodeId, Vec<u8>)>,
        recv_msgs: u64,
        decode_errors: u64,
        player: &StreamPlayer,
    ) {
        self.datagrams_sent.store(shaper.sent_msgs());
        self.bytes_sent.store(shaper.sent_bytes());
        self.shaper_drops.store(shaper.dropped_msgs());
        self.datagrams_received.store(recv_msgs);
        self.decode_errors.store(decode_errors);
        self.packets_received.store(player.packets_received());
        let (decodable, observed) = player.windows_decodable();
        let pct = if observed == 0 { 100.0 } else { decodable as f64 / observed as f64 * 100.0 };
        self.completeness.store_f64(pct);
    }
}

/// How and when a flash-crowd joiner enters the swarm (thread runtime;
/// pre-resolved from the compiled timeline by the cluster).
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Join offset from the cluster start.
    pub at: Duration,
    /// The joiner's introducer sample — its only a-priori knowledge of
    /// the swarm.
    pub bootstrap: Vec<NodeId>,
}

/// Runs one node until `stop` is raised. Returns the node's report.
///
/// The loop multiplexes four deadline sources — the gossip round timer, the
/// protocol's retransmission timers, the shaper's next release and the
/// source's next packet — over a blocking `recv_from` with a timeout.
///
/// # Errors
///
/// Returns any I/O error from the socket (binding errors are handled by the
/// cluster before threads start).
#[allow(clippy::too_many_lines)]
pub fn run_node(
    config: DriverConfig,
    socket: UdpSocket,
    addresses: Arc<Vec<SocketAddr>>,
    clock: ClusterClock,
    stop: Arc<AtomicBool>,
) -> std::io::Result<NodeReport> {
    let mut node: GossipNode<StreamPacket> = if config.stream_for.is_some() {
        GossipNode::new_source(config.id, config.gossip.clone(), Vec::new(), config.seed)
    } else {
        GossipNode::new(config.id, config.gossip.clone(), Vec::new(), config.seed)
    };
    // Established nodes know the base population from the start; a
    // flash-crowd joiner starts blank and learns its membership from its
    // Cyclon bootstrap view once it boots.
    if config.join.is_none() {
        node.set_membership(Arc::clone(&config.membership));
    }
    node.set_free_rider(config.free_rider);
    let mut player = StreamPlayer::new(config.stream);
    let mut shaper: UploadShaper<(NodeId, Vec<u8>)> =
        UploadShaper::new(config.upload_cap_bps, config.max_backlog);
    let mut source = config.stream_for.map(|_| StreamSource::new(config.stream, Time::ZERO));
    let stream_end = config.stream_for.map(|d| Time::ZERO + d);

    // Armed protocol timers, on the same indexed queue the simulator uses.
    let mut timers: EventQueue<TimerToken> = EventQueue::new();
    let mut next_round = clock.now();
    let mut recv_buf = vec![0u8; 65_536];
    let mut recv_msgs = 0u64;
    let mut decode_errors = 0u64;
    let mut loss_rng = DetRng::seed_from(config.seed).split(0xD409 + u64::from(config.id.as_u32()));
    let crash_at = config.crash_at.map(|d| Time::ZERO + d);
    let byzantine = config.compiled.profiles[config.id.index()].byzantine;
    let mut partition = PartitionState::new();
    let mut fault_cursor = 0usize;
    let mut joining = config.join.clone();
    let mut cyclon: Option<CyclonView> = None;
    // Telemetry mirror cadence: coarse enough that the completeness scan
    // (O(windows)) never shows up in the loop's budget.
    let publish_every = Duration::from_millis(200);
    let mut next_publish = clock.now();
    let mut membership_rng =
        DetRng::seed_from(config.seed).split(0xC1C7 + u64::from(config.id.as_u32()));

    socket.set_nonblocking(false)?;

    while !stop.load(Ordering::Relaxed) {
        let now = clock.now();

        // Churn injection: a crashed node goes silent but its thread stays
        // parked until shutdown so the join logic stays uniform. It runs
        // no more rounds, so nothing would ever prune its payloads: they go
        // now (a no-op on every later pass).
        if crash_at.is_some_and(|at| now >= at) {
            node.forget_payloads();
            std::thread::sleep(std::time::Duration::from_millis(20));
            continue;
        }

        // A not-yet-joined flash-crowd node parks silently (nobody knows
        // its address yet, so nothing meaningful can arrive either). At
        // its join offset it boots from the Cyclon bootstrap view; its
        // per-round shuffles then carry its id outward epidemically.
        if let Some(plan) = &joining {
            let boot_at = Time::ZERO + plan.at;
            if now < boot_at {
                std::thread::sleep(clock.until(boot_at).min(std::time::Duration::from_millis(20)));
                continue;
            }
            let view = CyclonView::new(config.id, CyclonConfig::default_small(), &plan.bootstrap);
            let mut members = view.view();
            members.push(config.id);
            node.set_membership(members);
            cyclon = Some(view);
            next_round = now;
            joining = None;
        }

        // Network-scoped fault events: every thread walks the same compiled
        // timeline on its own cursor, so all threads agree on which
        // partitions are live and when a throttle hits this node's shaper.
        while let Some(event) = config.compiled.timeline.events().get(fault_cursor) {
            if event.at > now {
                break;
            }
            fault_cursor += 1;
            match event.action {
                FaultAction::Partition(_) | FaultAction::Heal(_) => {
                    partition.on_event(event.action)
                }
                FaultAction::ThrottleStart(t) => {
                    let plan = &config.compiled.throttles[t as usize];
                    if plan.victims.contains(&config.id) {
                        shaper.set_rate(plan.cap_bps);
                    }
                }
                FaultAction::ThrottleEnd(t)
                    if config.compiled.throttles[t as usize].victims.contains(&config.id) =>
                {
                    shaper.set_rate(config.upload_cap_bps);
                }
                _ => {}
            }
        }

        // 1. Source emission.
        if let (Some(src), Some(end)) = (source.as_mut(), stream_end) {
            if now <= end {
                for packet in src.poll(now) {
                    node.publish(now, packet);
                }
            }
        }

        // 2. Gossip rounds. A partial-view joiner also runs one Cyclon
        // shuffle per round and draws this round's membership from the
        // shuffled view (mirroring the reactor's `shuffle_round`).
        while now >= next_round {
            if let Some(view) = cyclon.as_mut() {
                if let Some((target, request)) = view.on_shuffle_round(&mut membership_rng) {
                    let bytes = shuffle_wire::encode_shuffle(config.id, &request);
                    let len = bytes.len();
                    shaper.offer(now, len, (target, bytes));
                }
                let mut members = view.view();
                members.push(config.id);
                node.set_membership(members);
            }
            node.on_round(now);
            next_round += config.gossip.gossip_period;
        }

        // 3. Protocol timers.
        while let Some((_, token)) = timers.pop_before(now) {
            node.on_timer(now, token);
        }

        // 4. Drain protocol outputs into the shaper/player.
        while let Some(out) = node.poll_output() {
            match out {
                Output::Send { to, msg } => {
                    // A Byzantine node corrupts its *output* at the runtime
                    // boundary — the protocol state machine itself runs
                    // honest code (see `gossip_stream::byzantine`).
                    let msg = match byzantine {
                        Some(ByzantineBehaviour::ServeCorrupt) => byzantine::corrupt_serves(msg),
                        Some(ByzantineBehaviour::ProposeGarbage) => byzantine::garble_proposes(msg),
                        _ => msg,
                    };
                    let bytes = encode_message(config.id, &msg);
                    let len = bytes.len();
                    shaper.offer(now, len, (to, bytes));
                }
                Output::Deliver { event } => {
                    // Only intact payloads count as watchable (the sim's
                    // measurement boundary): a validating node hashed this
                    // one before delivering it
                    // (`GossipNode::delivers_verified`), so only an
                    // undefended node's deliveries are hashed here.
                    let intact = if node.delivers_verified() {
                        debug_assert!(event.verify(), "a validating node delivered corruption");
                        true
                    } else {
                        event.verify()
                    };
                    if intact {
                        player.on_packet(now, event.packet_id());
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    timers.push(at, token);
                }
            }
        }

        // 5. Put released datagrams on the wire.
        while let Some((to, bytes)) = shaper.pop_due(clock.now()) {
            let _ = socket.send_to(&bytes, addresses[to.index()]);
        }

        // Mirror the loop's counters into the telemetry cells.
        if let Some(cells) = &config.telemetry {
            if now >= next_publish {
                cells.publish(&shaper, recv_msgs, decode_errors, &player);
                next_publish = now + publish_every;
            }
        }

        // 6. Sleep until the next deadline, receiving datagrams meanwhile.
        let mut deadline = next_round;
        if let Some(at) = timers.peek_time() {
            deadline = deadline.min(at);
        }
        if let Some(at) = shaper.next_release() {
            deadline = deadline.min(at);
        }
        if let (Some(src), Some(end)) = (source.as_ref(), stream_end) {
            let next = src.next_packet_at();
            if next <= end {
                deadline = deadline.min(next);
            }
        }
        let wait = clock.until(deadline).min(std::time::Duration::from_millis(50));
        socket.set_read_timeout(Some(wait.max(std::time::Duration::from_micros(100))))?;
        match socket.recv_from(&mut recv_buf) {
            Ok((len, _)) => {
                if config.inject_loss > 0.0 && loss_rng.chance(config.inject_loss) {
                    // Injected network loss: the datagram evaporates.
                } else if shuffle_wire::is_shuffle(&recv_buf[..len]) {
                    // Membership traffic rides the same socket as the
                    // protocol but never reaches the state machine.
                    recv_msgs += 1;
                    match shuffle_wire::decode_shuffle(&recv_buf[..len]) {
                        Some((from, msg)) => {
                            if partition.is_split()
                                && !partition.allows(&config.compiled, from, config.id)
                            {
                                // The split eats shuffles too.
                            } else if let Some(view) = cyclon.as_mut() {
                                // A partial-view joiner runs the real
                                // Cyclon exchange.
                                if let Some(reply) = view.on_message(from, msg, &mut membership_rng)
                                {
                                    let bytes = shuffle_wire::encode_shuffle(config.id, &reply);
                                    let blen = bytes.len();
                                    shaper.offer(clock.now(), blen, (from, bytes));
                                }
                            } else if let ShuffleMessage::Request(offered) = msg {
                                // An established full-membership node
                                // answers statelessly: adopt the sender and
                                // every offered peer — this is how a
                                // tracker-less joiner becomes reachable —
                                // and reply with a random sample of what it
                                // knows.
                                let mut members = node.membership().to_vec();
                                for peer in offered.iter().map(|&(p, _)| p).chain([from]) {
                                    if peer != config.id && !members.contains(&peer) {
                                        members.push(peer);
                                    }
                                }
                                let candidates: Vec<NodeId> = members
                                    .iter()
                                    .copied()
                                    .filter(|&m| m != config.id && m != from)
                                    .collect();
                                let picked = membership_rng.sample_indices(
                                    candidates.len(),
                                    CyclonConfig::default_small().shuffle_size,
                                );
                                // Age 0 throughout: a full-membership node
                                // has no staleness signal to offer.
                                let reply = ShuffleMessage::Reply(
                                    picked.into_iter().map(|k| (candidates[k], 0)).collect(),
                                );
                                node.set_membership(members);
                                let bytes = shuffle_wire::encode_shuffle(config.id, &reply);
                                let blen = bytes.len();
                                shaper.offer(clock.now(), blen, (from, bytes));
                            }
                        }
                        None => decode_errors += 1,
                    }
                } else {
                    recv_msgs += 1;
                    match decode_message::<StreamPacket>(&recv_buf[..len]) {
                        Some((from, msg)) => {
                            if partition.is_split()
                                && !partition.allows(&config.compiled, from, config.id)
                            {
                                // The split eats cross-cell traffic on arrival.
                            } else if byzantine == Some(ByzantineBehaviour::EatRequests)
                                && matches!(msg, Message::Request { .. })
                            {
                                // A request-eater silently ignores pulls.
                            } else {
                                if let Some(view) = cyclon.as_mut() {
                                    // Contact is proof of life: protocol
                                    // traffic keeps the sender's entry
                                    // young in a joiner's partial view.
                                    view.adopt(from);
                                }
                                node.on_message(clock.now(), from, msg);
                            }
                        }
                        None => decode_errors += 1,
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }

    // Final mirror so the run's last snapshot carries the exact totals.
    if let Some(cells) = &config.telemetry {
        cells.publish(&shaper, recv_msgs, decode_errors, &player);
    }

    Ok(NodeReport {
        id: config.id,
        protocol: *node.stats(),
        player,
        sent_bytes: shaper.sent_bytes(),
        sent_msgs: shaper.sent_msgs(),
        shaper_drops: shaper.dropped_msgs(),
        recv_msgs,
        decode_errors,
    })
}
