//! The shard event loop: one thread hosting many virtual nodes.
//!
//! A shard multiplexes every deadline of its nodes — gossip rounds,
//! retransmission timers, source emissions, shaper releases, and the
//! compiled fault timeline (crash / rejoin / join events from the
//! `gossip-adversity` crate) — through one timer wheel (the calendar queue
//! from `gossip-sim`, the same `EventSchedule` implementation the
//! simulator runs on), and all their traffic through a small pool of
//! non-blocking sockets.
//!
//! # The loop: wait → drain → flush every wake → dwell
//!
//! A shard sleeps in exactly one place: [`mmsg::wait_readable`], one
//! `ppoll` over its whole socket pool that returns when a socket has
//! something to read or at the shard's next deadline — the earlier of the
//! wheel's next fire and the backoff expiry of a socket with retained
//! datagrams — and never later than one [`WAKE_QUANTUM`], so a raised
//! stop flag is noticed promptly. It then fires the due deadlines, reads
//! **only the sockets the wait flagged**, and flushes: what a wake
//! produced leaves in that wake. Before it waits again it *dwells* out the
//! rest of one [`WAKE_QUANTUM`] since it last woke, not watching the
//! sockets, so arrivals and deadlines pile up into one batch per wake
//! instead of one wake (a context switch) per datagram. The dwell is
//! skipped only when the drain left flagged sockets unread — a socket used
//! its whole receive budget, or a due deadline cut the drain short:
//! backlog goes straight round again, and the wake's one flush waits for
//! the iteration that clears it, or for the wake to have run a full
//! quantum, whichever comes first. On the portable backend the dwell is
//! the only sleep: the wait returns at once with every socket flagged.
//!
//! One constant paces the loop. A datagram waits at most one quantum in a
//! kernel receive queue, and in the outbox only while the wake that
//! produced it is still running — a quantum at most, and that long only
//! under backlog — so the quantum is the whole per-hop hold budget; the
//! wider it is, the fewer wakes a shard pays for and the more frames each
//! kernel datagram carries.
//!
//! # Batched I/O
//!
//! Outbound datagrams are not written as they are released: a wake's
//! releases accumulate in the shard's **outbox** and leave together at its
//! end, **grouped by destination address**. Every frame of the wake bound
//! for one address — whichever local node sent it, whichever node behind
//! that address receives it — is packed into one kernel datagram of
//! length-delimited frames (see [`crate::demux`]), split only at
//! [`MAX_COALESCED`] bytes (between frames, never inside one): a wake
//! costs about ⌈bytes / `MAX_COALESCED`⌉ kernel datagrams per destination,
//! one for all but bulk serves. The grouping is stable, so the frames
//! of one (sender → receiver) pair keep their release order. Each
//! destination address is always sent from the same pool socket — its rank
//! among the distinct addresses of the address book, modulo the pool — so
//! the groups spread over the whole pool and one destination's datagrams
//! never overtake each other on different sockets; a node's *home* socket
//! is only where it receives. The packed queues then drain through the
//! [`crate::mmsg`] backend — batches of kernel datagrams per `sendmmsg`
//! where the platform has it, per-datagram `send_to` otherwise. Ingress
//! is symmetric: `recvmmsg` fills a pooled batch of buffers, and each
//! received datagram is demuxed as a *borrowed* slice whose frames feed
//! the protocol through the zero-copy `decode_frame`/`on_frame` path —
//! the pooled buffer is the only copy of inbound bytes the hot path ever
//! makes. The per-shard [`ShardStats`] report the resulting
//! syscalls-per-datagram and batch-occupancy ratios.
//!
//! Receive work is budgeted: at most `recv_batch` datagrams per socket
//! per iteration, and a wheel deadline coming due ends the drain early —
//! an ingress flood cannot stall the timers that keep rounds, sources
//! and shapers on schedule. A socket stays flagged until a read comes
//! back short of a full batch, which proves its kernel queue empty
//! without paying for an `EAGAIN`.
//!
//! # Payload storage: one copy of the stream per shard
//!
//! The nodes of a shard all receive the same stream, so the shard keeps
//! one table of packets ([`PacketPool`]) and its nodes hold handles on the
//! table's packets instead of private copies: memory grows with the
//! packets published, not with the nodes hosted. A [`StreamPacket`] is a
//! one-pointer handle on a reference-counted `{id, timestamp, checksum,
//! payload}`, so what a hosted node adds per packet is its own 24-byte
//! record (request word, alternate proposer, the handle) and nothing of
//! the packet. The table is **filled** in one place — a delivery in
//! [`Shard::drain_outputs`] that passed `verify`, checked by the
//! validating node or, for an undefended node, by the shard — so a
//! corrupted payload can never enter it. It is **consulted** at decode
//! ([`Shard::route_frame`] lends it to the frame): a served packet that
//! equals the pooled one in header and payload bytes *is* the pooled
//! packet (a refcount), one whose payload alone is equal shares the
//! payload buffer under its own header, anything else gets its own copy,
//! and the node checks each exactly as before. It is **pruned** at the
//! protocol's `retention` horizon, like the nodes' payloads. One table per
//! shard, touched only by the shard's thread: no locks.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use gossip_adversity::{
    ByzantineBehaviour, ChaosPlan, CompiledAdversity, FaultAction, PartitionState,
};
use gossip_core::index::DenseMap;
use gossip_core::wire::{decode_frame, encode_message, EventPool, FrameKind};
use gossip_core::{GossipConfig, Output, TimerToken};
use gossip_membership::{wire as shuffle_wire, CyclonConfig, CyclonView, ShuffleMessage};
use gossip_sim::{DetRng, EventQueue};
use gossip_stream::{byzantine, PacketId, StreamPacket};
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{ClusterConfig, JoinerBootstrap};
use gossip_udp::report::{NodeReport, ShardStats};

use crate::chaos::{self, DatagramFate, SenderChaos, SocketChaos};
use crate::demux;
use crate::mmsg::{
    self, Backend, ErrorClass, PollFd, RecvQueue, SendQueue, SendVerdict, WAKE_QUANTUM,
};
use crate::telemetry::{ShardTelemetry, GAUGE_PERIOD};
use crate::vnode::VirtualNode;

/// Size cap of one coalesced kernel datagram. Well under the 64 KiB UDP
/// limit: a burst lost to a full kernel buffer should not take half a
/// window of serves with it.
const MAX_COALESCED: usize = 16 * 1024;

/// Size of one receive buffer (max UDP datagram, like the thread
/// runtime's): nothing a peer shard can send is ever truncated.
const RECV_BUF_SIZE: usize = 65_536;

/// First backoff interval after a transient send failure. Doubles per
/// consecutive failure up to [`BACKOFF_CAP`], with deterministic jitter
/// so the pool's sockets do not retry in lockstep.
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Upper bound on one backoff interval: short against the protocol's
/// 100 ms rounds, long enough to let a kernel buffer drain.
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// Byte budget of one socket's retained (pending-retry) queue: past it
/// the oldest retained datagrams are shed, counted, and the stream's
/// FEC + retransmission absorb the loss.
const PENDING_BYTE_BUDGET: usize = 1 << 20;

/// Age budget of retained datagrams: serve traffic for a live stream is
/// stale after this long, so a recovering socket drops it instead of
/// flooding peers with obsolete windows.
const PENDING_AGE_BUDGET: Duration = Duration::from_millis(500);

/// Byte budget of the shard outbox itself. Send failures must never
/// block the timer wheel behind an unbounded backlog: past the budget
/// the oldest outbox datagrams are shed, counted.
const OUTBOX_BYTE_BUDGET: usize = 4 << 20;

/// A deadline in the shard's timer wheel, tagged with the local slot of
/// the node it belongs to. Per-node recurring deadlines also carry the
/// node's epoch at arming time; a crash bumps the epoch, so deadlines of
/// an earlier incarnation are dropped on the floor instead of poking a
/// revived node's fresh state.
enum Fire {
    /// The node's next gossip round.
    Round(u32, u32),
    /// A protocol retransmission timer.
    Timer(u32, TimerToken, u32),
    /// The source's next packet emission.
    Source(u32),
    /// The node's upload shaper has a datagram coming due.
    Shaper(u32, u32),
    /// The k-th event of the compiled fault timeline.
    Fault(u32),
}

/// Everything a shard needs to run, prepared by the runtime.
pub(crate) struct ShardConfig {
    /// This shard's index.
    pub index: usize,
    /// The id slice this *process* hosts and its stripe over the process's
    /// shards. Single-process runs host the whole id space; a deployed
    /// `gossipd` hosts a contiguous slice while the address book still
    /// covers every node in the cluster.
    pub placement: demux::Placement,
    /// Maximum datagrams drained per socket per loop iteration.
    pub recv_batch: usize,
    /// Which I/O backend to run (resolved once by the runtime).
    pub backend: Backend,
    pub cluster: ClusterConfig,
    /// The compiled fault plan (shared; every shard walks the same
    /// timeline and applies the slice that concerns its nodes).
    pub compiled: Arc<CompiledAdversity>,
    /// This shard's socket pool, already bound.
    pub sockets: Vec<UdpSocket>,
    /// Global node id → home socket address (local or remote alike).
    pub addresses: Arc<Vec<SocketAddr>>,
    /// Kernel buffer size re-applied when a socket is re-bound.
    pub socket_buffer_bytes: usize,
    pub clock: ClusterClock,
    pub stop: Arc<AtomicBool>,
    /// Live telemetry cells, pre-registered by the runtime (`None` when
    /// the run has no registry — the hot loop then carries no atomic
    /// traffic and no clock reads beyond its own).
    pub telemetry: Option<ShardTelemetry>,
}

/// Runs a shard until `stop` is raised and returns the reports of its
/// nodes, the shard's I/O statistics, and the I/O error that ended the
/// loop early, if any. Even a failed shard hands back everything it
/// accumulated: a partial measurement beats a silent gap in the report.
pub(crate) fn run_shard(
    config: ShardConfig,
) -> (Vec<NodeReport>, ShardStats, Option<std::io::Error>) {
    match Shard::new(config) {
        Ok(shard) => shard.run(),
        Err(e) => (Vec::new(), ShardStats::default(), Some(e)),
    }
}

struct Shard {
    index: usize,
    placement: demux::Placement,
    recv_batch: usize,
    backend: Backend,
    cluster: ClusterConfig,
    compiled: Arc<CompiledAdversity>,
    sockets: Vec<UdpSocket>,
    /// Where every node of the cluster receives, by destination group.
    routes: Routes,
    clock: ClusterClock,
    stop: Arc<AtomicBool>,
    nodes: Vec<VirtualNode>,
    wheel: EventQueue<Fire>,
    /// The currently known membership: base nodes plus joiners so far.
    /// Shared with every full-membership node the shard hosts; a join
    /// builds a new list (copy-on-join) and the nodes pick it up lazily.
    members: Arc<[NodeId]>,
    /// Bumped on every join; nodes whose `members_seen` lags refresh
    /// their membership lazily at their next round.
    members_version: u32,
    /// Which partition events are live. Every shard walks the same fault
    /// timeline, so every shard's view of the split agrees; cross-cell
    /// frames are dropped on arrival in [`Shard::route_frame`].
    partition: PartitionState,
    /// RNG stream for membership work — Cyclon bootstrap samples, shuffle
    /// subsets, reply samples. Seeded per shard; the reactor's wall-clock
    /// arrival order makes shuffle sequences non-deterministic anyway
    /// (like everything else this runtime measures statistically).
    membership_rng: DetRng,
    /// The shard's one copy of every packet a hosted node verified (not
    /// to be confused with the socket pool).
    packets: PacketPool,
    /// Next time `packets` sheds what fell out of the retention horizon.
    next_packet_prune: Time,
    /// Released-but-unsent datagrams of this loop iteration, in release
    /// order: `(destination, unframed wire bytes)`.
    outbox: Vec<(NodeId, Vec<u8>)>,
    /// Scratch for the flush: the outbox's entries as `(sending socket,
    /// destination group, outbox index)`, sorted.
    flush_order: Vec<(usize, usize, usize)>,
    stats: ShardStats,
    /// Which pool sockets are worth reading, rebuilt from `sockets` by
    /// every wait. A slot stays flagged until a read finds its socket
    /// empty, so a flag surviving a drain means unread backlog.
    ready: Vec<PollFd>,
    /// When the last wait returned; the dwell counts from here.
    last_wake: std::time::Instant,
    /// Pool socket the next drain starts at. A drain cut short by a due
    /// deadline resumes here next iteration: without the cursor, dense
    /// deadlines (large shards) would end almost every drain at socket 0
    /// and starve the rest of the pool into overflow.
    drain_cursor: usize,
    /// Pooled batch buffers for the non-blocking drain.
    recv_queue: RecvQueue,
    /// Reusable send arena the outbox packs into.
    send_queue: SendQueue,
    /// Scratch arena the shedding rebuilds pack into.
    scratch_queue: SendQueue,
    /// Bytes currently held in the outbox (drives load shedding).
    outbox_bytes: usize,
    /// Per-socket recovery state: backoff clocks and retained queues.
    recovery: Vec<SocketRecovery>,
    /// Original local addresses of the pool, kept for in-place re-binds.
    local_addrs: Vec<SocketAddr>,
    /// Kernel buffer size re-applied when a socket is re-bound.
    socket_buffer_bytes: usize,
    /// The chaos engine, present only when the compiled plan injects
    /// anything.
    chaos: Option<ChaosState>,
    /// Live telemetry cells (`None`: telemetry off, zero loop cost).
    telemetry: Option<ShardTelemetry>,
    /// Next time the telemetry gauges (completeness scan, queue depths)
    /// are recomputed.
    next_gauge_publish: Time,
}

/// Per-socket self-healing state.
struct SocketRecovery {
    /// Sends on this socket are paused until this instant, if set.
    backoff_until: Option<Time>,
    /// Consecutive transient failures (the backoff exponent).
    backoff_level: u32,
    /// Datagrams retained across a transient failure, oldest first.
    pending: SendQueue,
    /// When the oldest retained datagram entered `pending`.
    pending_since: Option<Time>,
    /// Deterministic jitter stream for the backoff intervals.
    jitter: DetRng,
}

/// The shard's slice of the chaos plan: per-node fate streams, per-socket
/// errno streams, and the delayed-datagram stash.
struct ChaosState {
    plan: ChaosPlan,
    /// One fate stream per hosted node, indexed by local slot.
    senders: Vec<SenderChaos>,
    /// One errno stream per pool socket.
    sockets: Vec<SocketChaos>,
    /// Datagrams held back by a Delay fate, re-injected after the next
    /// flush.
    delayed: Vec<(NodeId, Vec<u8>)>,
}

/// The packets the shard's nodes share: every packet a hosted node
/// delivered intact, with when it first was (see the module docs).
#[derive(Debug, Default)]
struct PacketPool {
    by_id: DenseMap<PacketId, (StreamPacket, Time)>,
}

impl PacketPool {
    /// Keeps `packet`, which the caller has seen pass `verify`, unless its
    /// id is already held.
    fn insert_verified(&mut self, packet: StreamPacket, now: Time) {
        self.by_id.insert_if_vacant(packet.packet_id(), (packet, now));
    }

    /// Drops the packets older than `config`'s retention horizon.
    fn prune(&mut self, config: &GossipConfig, now: Time) {
        if let Some(cutoff) = config.retention_cutoff(now) {
            self.by_id.retain(|(_, pooled_at)| *pooled_at >= cutoff);
        }
    }
}

impl EventPool<StreamPacket> for PacketPool {
    fn lookup(&self, id: &PacketId) -> Option<&StreamPacket> {
        self.by_id.get(id).map(|(packet, _)| packet)
    }
}

/// The address book folded into destination groups: nodes that receive on
/// the same socket address share a group, and a flush emits one run of
/// kernel datagrams per group.
struct Routes {
    /// The distinct addresses of the address book, sorted: a group's index
    /// is its address's rank, which every shard and process computes alike.
    addrs: Vec<SocketAddr>,
    /// Global node id → index into `addrs`.
    group_of: Vec<u32>,
}

impl Routes {
    fn new(addresses: &[SocketAddr]) -> Self {
        let mut addrs = addresses.to_vec();
        addrs.sort_unstable();
        addrs.dedup();
        let group_of = addresses
            .iter()
            .map(|a| addrs.binary_search(a).expect("every address is in its own book") as u32)
            .collect();
        Routes { addrs, group_of }
    }

    /// The destination group `to` receives in.
    fn group(&self, to: NodeId) -> usize {
        self.group_of[to.index()] as usize
    }

    /// The pool socket every datagram for `group` leaves from. Fixed per
    /// destination, so its datagrams never overtake each other; spread by
    /// rank, so every pool socket carries sends once the book holds at
    /// least a pool's worth of distinct addresses.
    fn send_socket(group: usize, pool: usize) -> usize {
        group % pool
    }
}

impl Shard {
    fn new(config: ShardConfig) -> std::io::Result<Self> {
        let ShardConfig {
            index,
            placement,
            recv_batch,
            backend,
            cluster,
            compiled,
            sockets,
            addresses,
            socket_buffer_bytes,
            clock,
            stop,
            telemetry,
        } = config;
        for socket in &sockets {
            socket.set_nonblocking(true)?;
        }
        let pool = sockets.len();
        let members: Arc<[NodeId]> = (0..compiled.base_n as u32).map(NodeId::new).collect();
        let nodes: Vec<VirtualNode> = (0..)
            .map(|local| placement.global_of(index, local))
            .take_while(|&g| placement.contains(g))
            .map(|g| VirtualNode::new(&cluster, &compiled, g, Arc::clone(&members)))
            .collect();

        let mut wheel: EventQueue<Fire> = EventQueue::new();
        let period = cluster.gossip.gossip_period;
        for (local, vn) in nodes.iter().enumerate() {
            if vn.down {
                continue; // flash-crowd joiners start dark
            }
            // Stagger first rounds across one gossip period so the
            // cluster's round traffic does not arrive as one synchronised
            // burst on every socket.
            let phase = Duration::from_micros(
                u64::from(vn.id.as_u32()) * period.as_micros() / compiled.total_n as u64,
            );
            wheel.push(Time::ZERO + phase, Fire::Round(local as u32, vn.epoch));
            if vn.source.is_some() {
                wheel.push(Time::ZERO, Fire::Source(local as u32));
            }
        }
        // Every shard walks the whole fault timeline; each event is applied
        // to the membership every shard tracks, and to the victim/joiner
        // only by the shard that hosts it.
        for (k, event) in compiled.timeline.events().iter().enumerate() {
            wheel.push(event.at, Fire::Fault(k as u32));
        }

        let membership_rng = DetRng::seed_from(cluster.seed).split(0xC1C1_0000 + index as u64);
        let plan = compiled.chaos;
        let chaos = (!plan.is_none()).then(|| ChaosState {
            plan,
            senders: nodes.iter().map(|vn| SenderChaos::new(&plan, vn.id)).collect(),
            // Socket 0 takes the one-shot kill: every shard then proves
            // the re-bind path, and exactly one socket per shard dies.
            sockets: (0..pool).map(|s| SocketChaos::new(&plan, index, s, s == 0)).collect(),
            delayed: Vec::new(),
        });
        let recovery = (0..pool)
            .map(|s| SocketRecovery {
                backoff_until: None,
                backoff_level: 0,
                pending: SendQueue::default(),
                pending_since: None,
                jitter: DetRng::seed_from(cluster.seed)
                    .split(0xBACC_0000 + (index * 1024 + s) as u64),
            })
            .collect();
        let local_addrs =
            sockets.iter().map(UdpSocket::local_addr).collect::<std::io::Result<Vec<_>>>()?;
        Ok(Shard {
            index,
            placement,
            recv_batch,
            backend,
            cluster,
            compiled,
            sockets,
            routes: Routes::new(&addresses),
            clock,
            stop,
            nodes,
            wheel,
            members,
            members_version: 0,
            partition: PartitionState::new(),
            membership_rng,
            packets: PacketPool::default(),
            next_packet_prune: Time::ZERO,
            outbox: Vec::new(),
            flush_order: Vec::new(),
            stats: ShardStats::default(),
            // Nothing is known about the pool yet: read it blind once.
            ready: vec![PollFd::BLIND; pool],
            last_wake: std::time::Instant::now(),
            drain_cursor: 0,
            recv_queue: RecvQueue::new(recv_batch, RECV_BUF_SIZE),
            send_queue: SendQueue::default(),
            scratch_queue: SendQueue::default(),
            outbox_bytes: 0,
            recovery,
            local_addrs,
            socket_buffer_bytes,
            chaos,
            telemetry,
            next_gauge_publish: Time::ZERO,
        })
    }

    fn run(mut self) -> (Vec<NodeReport>, ShardStats, Option<std::io::Error>) {
        let failure = self.run_loop().err();
        // Don't strand held-back datagrams at shutdown (best-effort once
        // the loop already failed — the first error is the one reported).
        let failure = match self.flush_outbox() {
            Ok(()) => failure,
            Err(e) => failure.or(Some(e)),
        };
        // Final mirror: the run's last snapshot and any post-stop scrape
        // carry the exact totals, and a failed shard's counters are still
        // visible.
        if let Some(tel) = &self.telemetry {
            tel.publish_counters(&self.stats);
        }
        let stats = self.stats;
        (self.nodes.into_iter().map(VirtualNode::into_report).collect(), stats, failure)
    }

    fn run_loop(&mut self) -> std::io::Result<()> {
        while !self.stop.load(Ordering::Relaxed) {
            self.turn()?;
        }
        Ok(())
    }

    /// One loop iteration: fire, drain, flush, then dwell and wait.
    fn turn(&mut self) -> std::io::Result<()> {
        self.stats.iterations += 1;
        let now = self.clock.now();

        // Phase wall-time brackets exist only when telemetry is on:
        // four monotonic clock reads per iteration, nothing otherwise.
        let t0 = self.telemetry.as_ref().map(|_| std::time::Instant::now());

        // 1. Fire every due deadline.
        while let Some((at, fire)) = self.wheel.pop_before(now) {
            self.dispatch(fire, at, now);
        }
        if now >= self.next_packet_prune {
            // The nodes prune their stores once a round; so does the shard.
            self.next_packet_prune = now + self.cluster.gossip.gossip_period;
            self.packets.prune(&self.cluster.gossip, now);
        }
        let t1 = t0.map(|_| std::time::Instant::now());

        // 2. Budgeted batched receive from the sockets the wait flagged.
        self.drain_sockets()?;
        let t2 = t0.map(|_| std::time::Instant::now());

        // 3. Everything this wake released goes on the wire, along with
        // any retained datagrams whose backoff has run out — once the wake
        // is over (nothing left flagged, the dwell is next), or once it has
        // run a full quantum working through backlog. A wake cut into
        // several iterations by due deadlines still flushes once.
        self.shed_outbox();
        if !self.ready.iter().any(PollFd::flagged) || self.last_wake.elapsed() >= WAKE_QUANTUM {
            self.flush_outbox()?;
        }
        let t3 = t0.map(|_| std::time::Instant::now());

        // 4. Dwell out the wake quantum, then sleep until traffic or
        // the next deadline.
        self.park();

        self.publish_telemetry(now, t0.zip(t1), t1.zip(t2), t2.zip(t3), t3);
        Ok(())
    }

    /// Mirrors the loop's statistics into the telemetry cells: phase
    /// durations and counters every iteration, the gauges (queue depths,
    /// aggregate completeness — an O(nodes + windows) scan) only at
    /// [`GAUGE_PERIOD`] cadence.
    fn publish_telemetry(
        &mut self,
        now: Time,
        timers: Option<(std::time::Instant, std::time::Instant)>,
        ingress: Option<(std::time::Instant, std::time::Instant)>,
        flush: Option<(std::time::Instant, std::time::Instant)>,
        park_from: Option<std::time::Instant>,
    ) {
        let Some(tel) = &self.telemetry else { return };
        let micros = |(from, to): (std::time::Instant, std::time::Instant)| {
            u64::try_from((to - from).as_micros()).unwrap_or(u64::MAX)
        };
        if let Some(span) = timers {
            tel.phase_timers.observe_micros(micros(span));
        }
        if let Some(span) = ingress {
            tel.phase_ingress.observe_micros(micros(span));
        }
        if let Some(span) = flush {
            tel.phase_flush.observe_micros(micros(span));
        }
        if let Some(from) = park_from {
            tel.phase_park.observe_micros(micros((from, std::time::Instant::now())));
        }
        tel.publish_counters(&self.stats);
        if now >= self.next_gauge_publish {
            self.next_gauge_publish = now + GAUGE_PERIOD;
            let (mut decodable, mut observed) = (0usize, 0usize);
            for vn in &self.nodes {
                let (d, o) = vn.player.windows_decodable();
                decodable += d;
                observed += o;
            }
            let backoff = self.recovery.iter().map(|r| r.backoff_level).max().unwrap_or(0);
            let pending = self.recovery.iter().map(|r| r.pending.byte_len()).sum();
            tel.publish_gauges(&crate::telemetry::GaugeSample {
                wheel_resident: self.wheel.len(),
                backoff_level: backoff,
                pending_bytes: pending,
                decodable,
                observed,
            });
        }
    }

    /// The instant the shard must act next even if no datagram arrives:
    /// the wheel's next fire, or the earliest retry of a socket holding
    /// retained datagrams — the end of its backoff, or at once if it never
    /// backed off (e.g. after a re-bind).
    fn next_deadline(&self) -> Option<Time> {
        let retries = self
            .recovery
            .iter()
            .filter(|r| !r.pending.is_empty())
            .map(|r| r.backoff_until.unwrap_or(Time::ZERO));
        self.wheel.peek_time().into_iter().chain(retries).min()
    }

    /// Dwells until one [`WAKE_QUANTUM`] has passed since the last wake,
    /// then sleeps until a pool socket is readable or the next deadline,
    /// one more quantum at most. Returns at once, flags untouched, while
    /// the last drain left flagged sockets unread.
    fn park(&mut self) {
        if self.ready.iter().any(PollFd::flagged) {
            return;
        }
        thread::sleep(WAKE_QUANTUM.saturating_sub(self.last_wake.elapsed()));
        let wait =
            self.next_deadline().map_or(WAKE_QUANTUM, |at| self.clock.until(at).min(WAKE_QUANTUM));
        if let Err(e) = mmsg::wait_readable(self.backend, &self.sockets, wait, &mut self.ready) {
            // `ppoll` vanished mid-run: the dwell becomes the only sleep.
            if mmsg::classify(&e) == ErrorClass::Downgrade {
                self.backend = Backend::Fallback;
                self.stats.backend_downgrades += 1;
            }
            // A failed wait (EINTR included) says nothing about the pool:
            // read it blind this once. The dwell still bounds the loop.
            self.ready = vec![PollFd::BLIND; self.sockets.len()];
        }
        self.last_wake = std::time::Instant::now();
    }

    /// Receives batches from every flagged pool socket, at most
    /// `recv_batch` datagrams per socket, ending the whole drain early the
    /// moment a wheel deadline comes due — ingress floods must not delay
    /// timers.
    fn drain_sockets(&mut self) -> std::io::Result<()> {
        // The pool is moved out for the drain so routing can borrow the
        // shard mutably while datagrams stay borrowed from the pool.
        let mut queue = std::mem::take(&mut self.recv_queue);
        let result = self.drain_into(&mut queue);
        self.recv_queue = queue;
        result
    }

    fn drain_into(&mut self, queue: &mut RecvQueue) -> std::io::Result<()> {
        let first = self.drain_cursor;
        for k in 0..self.sockets.len() {
            let si = (first + k) % self.sockets.len();
            let mut received = 0;
            while self.ready[si].flagged() && received < self.recv_batch {
                let n = match queue.recv(&self.sockets[si], self.backend, &mut self.stats) {
                    Ok(n) => n,
                    Err(e) => match mmsg::classify(&e) {
                        // The batched syscall vanished mid-run: fall back
                        // to plain recv_from; the socket stays flagged, so
                        // the retry is the next iteration, undwelt.
                        ErrorClass::Downgrade => {
                            self.backend = Backend::Fallback;
                            self.stats.backend_downgrades += 1;
                            break;
                        }
                        ErrorClass::Transient => 0,
                        // The socket is dead (e.g. EBADF): re-bind it and
                        // move on — its kernel backlog is lost, which is
                        // UDP semantics anyway.
                        ErrorClass::Fatal => {
                            self.rebind_socket(si)?;
                            0
                        }
                    },
                };
                if n < queue.capacity() {
                    self.ready[si].clear(); // a short batch: nothing left queued
                }
                if n == 0 {
                    break;
                }
                received += n;
                let now = self.clock.now();
                for datagram in queue.datagrams() {
                    // Borrowed all the way down: demux slices this pooled
                    // buffer and `decode_frame` lends the protocol a view
                    // of the same bytes.
                    self.on_datagram(datagram, now);
                }
                if self.wheel.peek_time().is_some_and(|at| at <= self.clock.now()) {
                    // A deadline is due: timers beat ingress. Resume at
                    // this (possibly still backlogged) socket next time.
                    self.drain_cursor = si;
                    return Ok(());
                }
            }
            // This socket is drained (or used its budget): start the next
            // drain at its successor so the pool is served round-robin.
            self.drain_cursor = (si + 1) % self.sockets.len();
        }
        Ok(())
    }

    /// Unpacks one received kernel datagram into its protocol frames and
    /// routes each: find the local node, apply impairment, decode, drive
    /// the state machine. Malformed framing is counted after the intact
    /// prefix is salvaged.
    fn on_datagram(&mut self, datagram: &[u8], now: Time) {
        let mut frames = demux::frames(datagram);
        for (dest, wire) in frames.by_ref() {
            self.stats.datagrams_received += 1;
            self.route_frame(dest, wire, now);
        }
        if frames.malformed() {
            self.stats.frame_errors += 1;
        }
    }

    /// Routes one protocol frame to its destination node.
    fn route_frame(&mut self, dest: NodeId, wire: &[u8], now: Time) {
        let g = dest.as_u32();
        if !self.placement.contains(g) || self.placement.shard_of(g) != self.index {
            return; // stray frame for another shard's (or process's) socket
        }
        let local = self.placement.local_of(g);
        if local >= self.nodes.len() {
            return;
        }
        let vn = &mut self.nodes[local];
        if vn.down {
            return; // crashed and not-yet-joined nodes drop everything
        }
        if self.cluster.inject_loss > 0.0 && vn.loss_rng.chance(self.cluster.inject_loss) {
            return; // injected network loss: the frame evaporates
        }
        vn.recv_msgs += 1;
        if shuffle_wire::is_shuffle(wire) {
            // Membership traffic rides the same sockets as the protocol
            // but never reaches the state machine.
            match shuffle_wire::decode_shuffle(wire) {
                Some((from, msg)) => {
                    if self.partition.is_split()
                        && !self.partition.allows(&self.compiled, from, dest)
                    {
                        return; // the split eats shuffles too
                    }
                    self.on_shuffle(local, from, msg, now);
                }
                None => vn.decode_errors += 1,
            }
            return;
        }
        match decode_frame::<StreamPacket>(wire) {
            Some(frame) => {
                let frame = frame.with_pool(&self.packets);
                if self.partition.is_split()
                    && !self.partition.allows(&self.compiled, frame.sender(), dest)
                {
                    return; // the split eats cross-cell traffic on arrival
                }
                if frame.kind() == FrameKind::Request
                    && self.compiled.profiles[dest.index()].byzantine
                        == Some(ByzantineBehaviour::EatRequests)
                {
                    return; // a request-eater silently ignores pulls
                }
                if let Some(view) = vn.view.as_mut() {
                    // Contact is proof of life: protocol traffic keeps the
                    // sender's entry young in a joiner's partial view.
                    view.adopt(frame.sender());
                }
                vn.node.on_frame(now, &frame);
                self.drain_outputs(local, now);
            }
            None => vn.decode_errors += 1,
        }
    }

    /// One Cyclon shuffle round for a partial-view joiner: age the view,
    /// shuffle with the oldest peer (its reply merges asynchronously on
    /// arrival), and refresh the node's membership from what remains.
    fn shuffle_round(&mut self, local: usize, now: Time) {
        let vn = &mut self.nodes[local];
        let Some(view) = vn.view.as_mut() else { return };
        if let Some((target, request)) = view.on_shuffle_round(&mut self.membership_rng) {
            let bytes = shuffle_wire::encode_shuffle(vn.id, &request);
            let len = bytes.len();
            vn.shaper.offer(now, len, (target, bytes));
        }
        let mut membership = view.view();
        membership.push(vn.id);
        vn.node.set_membership(membership);
        self.flush_shaper(local, now);
    }

    /// Handles one membership shuffle frame addressed to a local node.
    ///
    /// A partial-view joiner runs the real Cyclon exchange (merge and,
    /// for requests, a reply). An established full-membership node
    /// answers statelessly: it adopts the sender and every offered peer
    /// into its membership — this is how a tracker-less joiner becomes
    /// reachable — and replies with a random sample of what it knows, so
    /// the joiner's view keeps growing beyond its bootstrap sample.
    fn on_shuffle(&mut self, local: usize, from: NodeId, msg: ShuffleMessage, now: Time) {
        let vn = &mut self.nodes[local];
        if let Some(view) = vn.view.as_mut() {
            if let Some(reply) = view.on_message(from, msg, &mut self.membership_rng) {
                let bytes = shuffle_wire::encode_shuffle(vn.id, &reply);
                let len = bytes.len();
                vn.shaper.offer(now, len, (from, bytes));
                self.flush_shaper(local, now);
            }
            return;
        }
        let ShuffleMessage::Request(offered) = msg else {
            return; // a stray reply to a full-membership node: nothing to do
        };
        let mut membership = vn.node.membership().to_vec();
        for peer in offered.iter().map(|&(n, _)| n).chain([from]) {
            if peer != vn.id && !membership.contains(&peer) {
                membership.push(peer);
            }
        }
        let candidates: Vec<NodeId> =
            membership.iter().copied().filter(|&m| m != vn.id && m != from).collect();
        let picked = self
            .membership_rng
            .sample_indices(candidates.len(), CyclonConfig::default_small().shuffle_size);
        // Age 0 throughout: a full-membership node has no staleness signal
        // to offer.
        let reply = ShuffleMessage::Reply(picked.into_iter().map(|k| (candidates[k], 0)).collect());
        vn.node.set_membership(membership);
        let bytes = shuffle_wire::encode_shuffle(vn.id, &reply);
        let len = bytes.len();
        vn.shaper.offer(now, len, (from, bytes));
        self.flush_shaper(local, now);
    }

    /// Fires one wheel deadline.
    fn dispatch(&mut self, fire: Fire, at: Time, now: Time) {
        match fire {
            Fire::Round(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.view.is_none() && vn.members_seen != self.members_version && !vn.down {
                    // Pick up joiners introduced since this node's last
                    // round (see the Join arm of `apply_fault`). Partial-view
                    // joiners are exempt: their membership comes from the
                    // Cyclon view, never the census.
                    vn.node.set_membership(Arc::clone(&self.members));
                    vn.members_seen = self.members_version;
                }
                if vn.down || vn.epoch != ep {
                    return; // this incarnation's round chain ends here
                }
                if self.nodes[local].view.is_some() {
                    // One membership shuffle per gossip round, and this
                    // round's partner selection draws from the shuffled view.
                    self.shuffle_round(local, now);
                }
                let vn = &mut self.nodes[local];
                vn.node.on_round(now);
                self.drain_outputs(local, now);
                // Re-arm from the scheduled time, not `now`: rounds must
                // not drift under load.
                self.wheel.push(at + self.cluster.gossip.gossip_period, Fire::Round(l, ep));
            }
            Fire::Timer(l, token, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.down || vn.epoch != ep {
                    return;
                }
                vn.node.on_timer(now, token);
                self.drain_outputs(local, now);
            }
            Fire::Source(l) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.down {
                    return;
                }
                let (Some(source), Some(end)) = (vn.source.as_mut(), vn.stream_end) else {
                    return;
                };
                if now <= end {
                    // Take the emissions and the next deadline in one
                    // borrow of the source — no "still there" re-lookup
                    // that could panic if a fault ever cleared it.
                    let packets = source.poll(now);
                    let next = source.next_packet_at();
                    for packet in packets {
                        vn.node.publish(now, packet);
                    }
                    if next <= end {
                        self.wheel.push(next, Fire::Source(l));
                    }
                }
                self.drain_outputs(local, now);
            }
            Fire::Shaper(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.epoch != ep {
                    return; // the crash already reset the shaper
                }
                vn.shaper_armed = false;
                if vn.down {
                    return;
                }
                self.flush_shaper(local, now);
            }
            Fire::Fault(k) => self.apply_fault(k as usize, now),
        }
    }

    /// Applies the k-th compiled fault event. Crash and rejoin concern only
    /// the hosting shard; a join also updates the membership every active
    /// node selects partners from; partition and throttle events are
    /// network-wide and tracked (or applied to hosted victims) by every
    /// shard identically.
    fn apply_fault(&mut self, k: usize, now: Time) {
        let event = self.compiled.timeline.events()[k];
        match event.action {
            FaultAction::Crash(v) => {
                if let Some(local) = self.local_slot(v) {
                    if !self.nodes[local].down {
                        self.nodes[local].crash();
                        self.cancel_timers(local);
                    }
                }
            }
            FaultAction::Rejoin(v) => {
                if let Some(local) = self.local_slot(v) {
                    if self.nodes[local].down {
                        let members = Arc::clone(&self.members);
                        let free_rider = self.compiled.profiles[v.index()].free_rider;
                        self.nodes[local].revive(&self.cluster, members, free_rider);
                        self.nodes[local].members_seen = self.members_version;
                        self.arm_round(local, now);
                    }
                }
            }
            FaultAction::Join(v) => match self.cluster.joiner_bootstrap {
                JoinerBootstrap::Tracker => {
                    // A tracker-style introduction, like the simulator's
                    // full-membership mode — but applied lazily: bumping the
                    // version makes every local node refresh its membership at
                    // its next gossip round (one clone per node per join
                    // *wave*, not per join — a 100-node flash crowd would
                    // otherwise cost O(joins × nodes) clones inside the
                    // real-time loop).
                    self.admit(v);
                    self.members_version += 1;
                    if let Some(local) = self.local_slot(v) {
                        let vn = &mut self.nodes[local];
                        debug_assert!(vn.down, "double join of {v}");
                        vn.node.set_membership(Arc::clone(&self.members));
                        vn.members_seen = self.members_version;
                        vn.down = false;
                        self.arm_round(local, now);
                    }
                }
                JoinerBootstrap::Cyclon { degree } => {
                    // No tracker push: the census grows (later bootstrap
                    // samples and rejoins see the joiner) but nobody is
                    // told and `members_version` stays put. The joiner
                    // starts from a bounded random partial view; its
                    // per-round shuffles carry its id outward, and
                    // established nodes adopt it on contact — knowledge
                    // spreads epidemically instead of by directory.
                    let sample: Vec<NodeId> = {
                        let candidates: Vec<NodeId> =
                            self.members.iter().copied().filter(|&m| m != v).collect();
                        let picked = self.membership_rng.sample_indices(candidates.len(), degree);
                        picked.into_iter().map(|k| candidates[k]).collect()
                    };
                    self.admit(v);
                    if let Some(local) = self.local_slot(v) {
                        let view = CyclonView::new(v, CyclonConfig::default_small(), &sample);
                        let vn = &mut self.nodes[local];
                        debug_assert!(vn.down, "double join of {v}");
                        let mut membership = view.view();
                        membership.push(v);
                        vn.node.set_membership(membership);
                        vn.view = Some(view);
                        vn.members_seen = self.members_version;
                        vn.down = false;
                        self.arm_round(local, now);
                    }
                }
            },
            FaultAction::Partition(_) | FaultAction::Heal(_) => {
                self.partition.on_event(event.action);
            }
            FaultAction::ThrottleStart(t) | FaultAction::ThrottleEnd(t) => {
                let compiled = Arc::clone(&self.compiled);
                let plan = &compiled.throttles[t as usize];
                let throttled = matches!(event.action, FaultAction::ThrottleStart(_));
                for &v in &plan.victims {
                    if let Some(local) = self.local_slot(v) {
                        let vn = &mut self.nodes[local];
                        let rate = if throttled { plan.cap_bps } else { vn.base_rate };
                        vn.shaper.set_rate(rate);
                    }
                }
            }
        }
    }

    /// Adds joiner `v` to the census. The list is shared, so it is built
    /// anew: nodes still holding the old one keep a consistent view until
    /// they pick up the new one.
    fn admit(&mut self, v: NodeId) {
        self.members = self.members.iter().copied().chain([v]).collect();
    }

    /// The local slot of node `v` when this shard hosts it.
    fn local_slot(&self, v: NodeId) -> Option<usize> {
        let g = v.as_u32();
        (self.placement.contains(g) && self.placement.shard_of(g) == self.index)
            .then(|| self.placement.local_of(g))
            .filter(|&local| local < self.nodes.len())
    }

    /// Starts (or restarts) a node's round chain, staggered within one
    /// gossip period by id like the initial deployment.
    fn arm_round(&mut self, local: usize, now: Time) {
        let vn = &self.nodes[local];
        let period = self.cluster.gossip.gossip_period;
        let phase = Duration::from_micros(
            u64::from(vn.id.as_u32()) * period.as_micros() / self.compiled.total_n as u64,
        );
        self.wheel.push(now + phase, Fire::Round(local as u32, vn.epoch));
    }

    /// Drains the protocol outputs of one node into its shaper, player and
    /// the timer wheel, then moves released datagrams to the outbox.
    fn drain_outputs(&mut self, local: usize, now: Time) {
        let vn = &mut self.nodes[local];
        while let Some(out) = vn.node.poll_output() {
            match out {
                Output::Send { to, msg } => {
                    // A Byzantine host corrupts its node's *output* at the
                    // runtime boundary, before the bytes exist — the node
                    // itself runs honest code (see `gossip_stream::byzantine`).
                    let msg = match self.compiled.profiles[vn.id.index()].byzantine {
                        Some(ByzantineBehaviour::ServeCorrupt) => byzantine::corrupt_serves(msg),
                        Some(ByzantineBehaviour::ProposeGarbage) => byzantine::garble_proposes(msg),
                        _ => msg,
                    };
                    let bytes = encode_message(vn.id, &msg);
                    let len = bytes.len();
                    // The shaper charges the unframed wire size: pacing
                    // does not depend on how the outbox packs frames.
                    vn.shaper.offer(now, len, (to, bytes));
                }
                Output::Deliver { event } => {
                    // Only intact payloads count as watchable (the
                    // simulator's measurement boundary too).
                    if vn.node.delivery_intact(&event) {
                        vn.player.on_packet(now, event.packet_id());
                        // The only way into the table: verified, just now.
                        self.packets.insert_verified(event, now);
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    let fire = Fire::Timer(local as u32, token, vn.epoch);
                    let handle = self.wheel.push(at, fire);
                    vn.node.attach_timer_handle(token, handle);
                }
            }
        }
        self.cancel_timers(local);
        self.flush_shaper(local, now);
    }

    /// Takes out of the wheel the retransmission deadlines the node no
    /// longer needs: every id they guarded has arrived, or the node crashed.
    fn cancel_timers(&mut self, local: usize) {
        while let Some(handle) = self.nodes[local].node.poll_cancelled() {
            self.wheel.cancel(handle);
        }
    }

    /// Moves everything the node's shaper has released into the shard
    /// outbox — each datagram first drawing its fate from the node's
    /// chaos stream, when a plan is active — and arms one wheel deadline
    /// for the earliest datagram still held back.
    fn flush_shaper(&mut self, local: usize, now: Time) {
        while let Some((to, bytes)) = self.nodes[local].shaper.pop_due(now) {
            let fate = match self.chaos.as_mut() {
                Some(c) => c.senders[local].fate(&c.plan, bytes.len()),
                None => DatagramFate::Deliver,
            };
            match fate {
                DatagramFate::Deliver => self.enqueue(to, bytes),
                DatagramFate::Drop => self.stats.faults_injected += 1,
                DatagramFate::Duplicate => {
                    self.stats.faults_injected += 1;
                    self.enqueue(to, bytes.clone());
                    self.enqueue(to, bytes);
                }
                DatagramFate::Truncate(at) => {
                    self.stats.faults_injected += 1;
                    self.enqueue(to, bytes[..at.min(bytes.len())].to_vec());
                }
                DatagramFate::Delay => {
                    self.stats.faults_injected += 1;
                    if let Some(c) = self.chaos.as_mut() {
                        c.delayed.push((to, bytes));
                    }
                }
                DatagramFate::Reorder => {
                    self.stats.faults_injected += 1;
                    // Swap with the latest queued datagram for the same
                    // destination: the flush regroups by destination, so
                    // only that swap reaches the receiver out of order.
                    let earlier = self.outbox.iter().rposition(|(t, _)| *t == to);
                    self.enqueue(to, bytes);
                    if let Some(earlier) = earlier {
                        let last = self.outbox.len() - 1;
                        self.outbox.swap(earlier, last);
                    }
                }
            }
        }
        let vn = &mut self.nodes[local];
        if !vn.shaper_armed {
            if let Some(at) = vn.shaper.next_release() {
                self.wheel.push(at, Fire::Shaper(local as u32, vn.epoch));
                vn.shaper_armed = true;
            }
        }
    }

    /// Appends one datagram to the outbox, keeping the byte gauge in step.
    fn enqueue(&mut self, to: NodeId, bytes: Vec<u8>) {
        self.outbox_bytes += bytes.len();
        self.outbox.push((to, bytes));
    }

    /// Sheds the oldest outbox datagrams once the backlog exceeds
    /// [`OUTBOX_BYTE_BUDGET`]: send failures must never grow an unbounded
    /// queue that stalls the timer wheel. Shed datagrams are counted; the
    /// protocol's FEC + retransmission absorb the loss.
    fn shed_outbox(&mut self) {
        if self.outbox_bytes <= OUTBOX_BYTE_BUDGET {
            return;
        }
        let mut freed = 0;
        let mut k = 0;
        while self.outbox_bytes - freed > OUTBOX_BYTE_BUDGET && k < self.outbox.len() {
            freed += self.outbox[k].1.len();
            k += 1;
        }
        self.outbox.drain(..k);
        self.outbox_bytes -= freed;
        self.stats.datagrams_shed += k as u64;
    }

    /// Packs the outbox into the send arena — grouped by destination
    /// address, each group coalesced into as few kernel datagrams as
    /// [`MAX_COALESCED`] allows and queued on the group's fixed pool socket
    /// ([`Routes::send_socket`]) — and flushes each socket's queue through
    /// the batched backend, retained datagrams from earlier transient
    /// failures going out first. Within a group the outbox order is kept.
    ///
    /// UDP semantics throughout: a full kernel buffer drops the datagram,
    /// like any congested link; the protocol's FEC + retransmission absorb
    /// it.
    fn flush_outbox(&mut self) -> std::io::Result<()> {
        self.outbox_bytes = 0;
        let now = self.clock.now();
        // The scheduled ENOSYS fires at the shard level: the next batched
        // flush discovers the syscall gone and downgrades, once.
        if self.backend == Backend::Mmsg {
            if let Some(c) = self.chaos.as_mut() {
                if c.plan.enosys_at.is_some_and(|t| now >= t) {
                    c.plan.enosys_at = None;
                    self.backend = Backend::Fallback;
                    self.stats.faults_injected += 1;
                    self.stats.backend_downgrades += 1;
                }
            }
        }
        let pool = self.sockets.len();
        let outbox = std::mem::take(&mut self.outbox);
        // Socket-major, then by group, then by outbox position: the index
        // in the key makes the unstable (allocation-free) sort stable.
        let mut order = std::mem::take(&mut self.flush_order);
        order.clear();
        order.extend(outbox.iter().enumerate().map(|(k, (to, _))| {
            let group = self.routes.group(*to);
            (Routes::send_socket(group, pool), group, k)
        }));
        order.sort_unstable();
        let mut queue = std::mem::take(&mut self.send_queue);
        let mut entries = order.iter().peekable();
        // Every socket is visited even with nothing new to send: its
        // retained datagrams may be due.
        for si in 0..pool {
            while let Some(&(_, group, k)) = entries.next_if(|e| e.0 == si) {
                let addr = self.routes.addrs[group];
                let (to, bytes) = &outbox[k];
                let fits = queue.open_len() + demux::HEADER_LEN + bytes.len() <= MAX_COALESCED;
                if queue.open_addr() != Some(addr) || !fits {
                    queue.close();
                    queue.open(addr);
                }
                if demux::append_frame(queue.buf_mut(), *to, bytes) {
                    self.stats.datagrams_sent += 1;
                } else {
                    self.stats.encode_errors += 1;
                }
            }
            queue.close();
            self.flush_socket(si, &mut queue, now)?;
        }
        self.send_queue = queue;
        self.flush_order = order;
        // Hand the (now empty) allocation back for the next iteration.
        self.outbox = outbox;
        self.outbox.clear();
        // Chaos-delayed datagrams re-enter the outbox after the flush
        // they sat out.
        if let Some(c) = self.chaos.as_mut() {
            let delayed = std::mem::take(&mut c.delayed);
            for (to, bytes) in delayed {
                self.enqueue(to, bytes);
            }
        }
        Ok(())
    }

    /// Drains one socket's packed queue through the backend (chaos
    /// interposed when a plan is active), honouring its backoff clock and
    /// handling the drain verdict: exponential backoff with deterministic
    /// jitter on transient failures, a backend downgrade on ENOSYS, an
    /// in-place re-bind on fatal errors. Retained datagrams go out ahead
    /// of this flush's batch, oldest first.
    fn flush_socket(&mut self, si: usize, queue: &mut SendQueue, now: Time) -> std::io::Result<()> {
        {
            let rec = &mut self.recovery[si];
            // Retained traffic for a live stream goes stale: past the age
            // budget it is shed wholesale rather than flooding peers with
            // obsolete windows on recovery.
            if rec.pending_since.is_some_and(|since| now >= since + PENDING_AGE_BUDGET) {
                self.stats.datagrams_shed += rec.pending.len() as u64;
                rec.pending.clear();
                rec.pending_since = None;
            }
            if rec.backoff_until.is_some_and(|until| now < until) {
                // Still backing off: retain this flush's batch behind the
                // already-pending datagrams and keep the budgets enforced.
                for k in 0..queue.len() {
                    let (bytes, addr) = queue.seg(k);
                    rec.pending.push_datagram(addr, bytes);
                }
                queue.clear();
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
                Self::shed_pending(rec, &mut self.scratch_queue, &mut self.stats);
                return Ok(());
            }
            rec.backoff_until = None;
            if !rec.pending.is_empty() {
                // Retry window: retained datagrams lead, this flush's
                // batch follows, order preserved.
                for k in 0..queue.len() {
                    let (bytes, addr) = queue.seg(k);
                    rec.pending.push_datagram(addr, bytes);
                }
                queue.clear();
                std::mem::swap(queue, &mut rec.pending);
                rec.pending_since = None;
            }
        }
        if queue.is_empty() {
            return Ok(());
        }
        let verdict = match self.chaos.as_mut() {
            Some(c) => chaos::flush_queue_chaos(
                self.backend,
                &c.plan,
                &mut c.sockets[si],
                now,
                &self.sockets[si],
                queue,
                &mut self.recovery[si].pending,
                &mut self.stats,
            ),
            None => mmsg::flush_queue(
                self.backend,
                &self.sockets[si],
                queue,
                &mut self.recovery[si].pending,
                &mut self.stats,
            ),
        };
        let rec = &mut self.recovery[si];
        match verdict {
            SendVerdict::Drained => rec.backoff_level = 0,
            SendVerdict::Backoff => {
                let base = BACKOFF_BASE.as_micros() << rec.backoff_level.min(4);
                let capped = base.min(BACKOFF_CAP.as_micros());
                let jitter = rec.jitter.range_u64(0, capped / 2 + 1);
                rec.backoff_until = Some(now + Duration::from_micros(capped + jitter));
                rec.backoff_level = (rec.backoff_level + 1).min(8);
                rec.pending_since.get_or_insert(now);
                self.stats.send_backoffs += 1;
                Self::shed_pending(rec, &mut self.scratch_queue, &mut self.stats);
            }
            SendVerdict::Downgrade => {
                self.backend = Backend::Fallback;
                self.stats.backend_downgrades += 1;
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
            }
            SendVerdict::Rebind => {
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
            }
        }
        if verdict == SendVerdict::Rebind {
            self.rebind_socket(si)?;
        }
        Ok(())
    }

    /// Sheds the oldest retained datagrams once a socket's pending queue
    /// exceeds [`PENDING_BYTE_BUDGET`].
    fn shed_pending(rec: &mut SocketRecovery, scratch: &mut SendQueue, stats: &mut ShardStats) {
        if rec.pending.byte_len() <= PENDING_BYTE_BUDGET {
            return;
        }
        let mut excess = rec.pending.byte_len() - PENDING_BYTE_BUDGET;
        let mut dropped = 0;
        for k in 0..rec.pending.len() {
            if excess == 0 {
                break;
            }
            let (bytes, _) = rec.pending.seg(k);
            excess = excess.saturating_sub(bytes.len());
            dropped += 1;
        }
        scratch.clear();
        for k in dropped..rec.pending.len() {
            let (bytes, addr) = rec.pending.seg(k);
            scratch.push_datagram(addr, bytes);
        }
        std::mem::swap(&mut rec.pending, scratch);
        scratch.clear();
        stats.datagrams_shed += dropped as u64;
    }

    /// Re-binds a dead pool socket to its original local address, restoring
    /// non-blocking mode and the kernel buffer sizes. The old socket is
    /// dropped first (via a throwaway placeholder) so the port is free to
    /// re-bind.
    fn rebind_socket(&mut self, si: usize) -> std::io::Result<()> {
        let placeholder = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        drop(std::mem::replace(&mut self.sockets[si], placeholder));
        let fresh = UdpSocket::bind(self.local_addrs[si])?;
        fresh.set_nonblocking(true)?;
        mmsg::set_socket_buffers(&fresh, self.socket_buffer_bytes);
        self.sockets[si] = fresh;
        self.stats.socket_rebinds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use gossip_core::Event;

    use super::*;

    /// A one-shard, 4-node cluster over a pool of `pool` loopback sockets
    /// (node `g` homes on socket `g % pool`), with or without a live
    /// stream. Returns the config plus the pool's addresses.
    fn one_shard(backend: Backend, pool: usize, streaming: bool) -> (ShardConfig, Vec<SocketAddr>) {
        one_shard_of(backend, pool, 4, |cluster| {
            // Outlives the test window, or never starts at all.
            cluster.stream_duration = Duration::from_secs(if streaming { 30 } else { 0 });
        })
    }

    /// [`one_shard`] for `n` nodes of a smoke-test cluster that `tweak`
    /// has adjusted.
    fn one_shard_of(
        backend: Backend,
        pool: usize,
        n: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> (ShardConfig, Vec<SocketAddr>) {
        let mut cluster = ClusterConfig::smoke_test();
        cluster.n = n;
        tweak(&mut cluster);
        let compiled = Arc::new(cluster.compiled_adversity());
        let sockets: Vec<UdpSocket> =
            (0..pool).map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind")).collect();
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr().expect("addr")).collect();
        let addresses =
            Arc::new((0..compiled.total_n).map(|g| addrs[demux::home_socket(g, pool)]).collect());
        let config = ShardConfig {
            index: 0,
            placement: demux::Placement::whole(n, 1),
            recv_batch: 8,
            backend,
            cluster,
            compiled,
            sockets,
            addresses,
            socket_buffer_bytes: 1 << 20,
            clock: ClusterClock::start(),
            stop: Arc::new(AtomicBool::new(false)),
            telemetry: None,
        };
        (config, addrs)
    }

    /// Runs `shard` on its own thread for `window`, then stops it. Returns
    /// its reports, its statistics and how long the loop actually ran.
    fn run_for(
        config: ShardConfig,
        window: std::time::Duration,
        prepare: impl FnOnce(&mut Shard) + Send + 'static,
    ) -> (Vec<NodeReport>, ShardStats, std::time::Duration) {
        let stop = Arc::clone(&config.stop);
        let handle = thread::spawn(move || {
            let mut shard = Shard::new(config).expect("shard boots");
            prepare(&mut shard);
            let started = std::time::Instant::now();
            let outcome = shard.run();
            (outcome, started.elapsed())
        });
        thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let ((reports, stats, failure), wall) = handle.join().expect("shard thread");
        assert!(failure.is_none(), "shard io failed: {failure:?}");
        (reports, stats, wall)
    }

    /// Most iterations a loop that honours the dwell can run in `wall`:
    /// one per wake quantum, plus the undwelt re-loops — each of which
    /// follows an iteration that made a data-bearing receive call (budget
    /// used up, or a due deadline cut the drain after a batch).
    fn iteration_bound(wall: std::time::Duration, stats: &ShardStats) -> u64 {
        (1.5 * wall.as_secs_f64() / WAKE_QUANTUM.as_secs_f64()) as u64 + stats.recv_syscalls
    }

    /// Boots one shard hosting a 4-node cluster, floods its only socket
    /// with malformed traffic for a few hundred milliseconds, then stops
    /// it and returns what it reported.
    fn shard_under_flood(backend: Backend) -> (Vec<NodeReport>, ShardStats, std::time::Duration) {
        let (config, addrs) = one_shard(backend, 1, true);
        let flood = thread::spawn(move || {
            let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
            // Three flavours of damage: a runt tail shorter than a frame
            // header, a length field running past the datagram end, and
            // well-framed junk that fails protocol decode at node 1.
            let runt = [0xFFu8; 9];
            let mut overrun = Vec::new();
            overrun.extend_from_slice(&1u32.to_le_bytes());
            overrun.extend_from_slice(&60_000u16.to_le_bytes());
            overrun.extend_from_slice(&[0xAB; 32]);
            let mut junk = Vec::new();
            assert!(demux::append_frame(&mut junk, NodeId::new(1), &[0x7F; 24]));
            for _wave in 0..10 {
                for _ in 0..500 {
                    for datagram in [&runt[..], &overrun[..], &junk[..]] {
                        let _ = tx.send_to(datagram, addrs[0]);
                    }
                }
                thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        let outcome = run_for(config, std::time::Duration::from_millis(320), |_| {});
        flood.join().expect("flood thread");
        outcome
    }

    /// Regression test for the recv head-of-line stall: a sustained
    /// malformed-datagram flood must be salvaged deterministically and
    /// counted — never panic — while the budgeted drain keeps the timer
    /// wheel firing (rounds and source emissions continue throughout),
    /// on the batched and on the portable backend. Nor may load make the
    /// loop spin: it wakes at most once per [`WAKE_QUANTUM`] plus its
    /// backlog re-loops (the spin/park cadence this replaced ran far past
    /// that bound).
    #[test]
    fn garbage_flood_is_counted_and_never_stalls_the_loop() {
        for backend in [mmsg::select_backend(None), Backend::Fallback] {
            let (reports, stats, wall) = shard_under_flood(backend);
            assert!(stats.frame_errors > 0, "malformed kernel datagrams must be counted");
            let decode_errors: u64 = reports.iter().map(|r| r.decode_errors).sum();
            assert!(decode_errors > 0, "well-framed junk must land on the node's decode_errors");
            // Timer-driven work kept happening under the flood: the source
            // emits every ~20 ms and every node keeps its 100 ms round
            // chain, all of which produce sends — impossible if ingress
            // starved the wheel.
            assert!(stats.iterations > 50, "only {} iterations under flood", stats.iterations);
            let bound = iteration_bound(wall, &stats);
            assert!(
                stats.iterations <= bound,
                "{backend:?}: {} iterations in {wall:?}, bound {bound}",
                stats.iterations
            );
            assert!(stats.datagrams_sent > 0, "rounds and source emissions must keep firing");
            // And on time: every node ran the rounds its period allows.
            let due = wall.as_micros() as u64 / 100_000;
            for report in &reports {
                let rounds = report.protocol.rounds;
                assert!(
                    rounds.abs_diff(due) <= 1,
                    "{backend:?}: node ran {rounds} rounds in {wall:?}, {due} were due"
                );
            }
        }
    }

    /// An idle shard sleeps through every iteration: the dwell and then a
    /// full wait where `ppoll` watches the pool, the dwell alone where the
    /// portable backend has to look for itself.
    #[test]
    fn an_idle_shard_does_not_spin() {
        for backend in [mmsg::select_backend(None), Backend::Fallback] {
            let sleeps = if backend == Backend::Mmsg { 2 } else { 1 };
            let (config, _) = one_shard(backend, 4, false);
            let (_, stats, wall) = run_for(config, std::time::Duration::from_millis(300), |_| {});
            let bound = (1.5 * wall.as_secs_f64() / (sleeps * WAKE_QUANTUM).as_secs_f64()) as u64;
            assert!(
                stats.iterations <= bound,
                "{backend:?}: {} idle iterations in {wall:?}, bound {bound}",
                stats.iterations
            );
        }
    }

    /// Regression test for the socket-0-only park: the wait watches the
    /// whole pool, so a frame for a node homed on the *last* socket wakes
    /// the shard with exactly that socket flagged, and the drain that
    /// follows hands it to the node.
    #[test]
    fn a_frame_on_any_pool_socket_ends_the_wait() {
        let backend = mmsg::select_backend(None);
        let (config, addrs) = one_shard(backend, 4, false);
        let mut shard = Shard::new(config).expect("shard boots");
        // Settle: one blind pass over the (empty) pool clears every flag.
        shard.drain_sockets().expect("drain");
        assert!(!shard.ready.iter().any(PollFd::flagged));

        let mut frame = Vec::new();
        let reply =
            shuffle_wire::encode_shuffle(NodeId::new(0), &ShuffleMessage::Reply(Vec::new()));
        assert!(demux::append_frame(&mut frame, NodeId::new(3), &reply));
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        tx.send_to(&frame, addrs[3]).expect("send");

        // Each park is one bounded wait; loopback delivery is prompt, but
        // nothing here depends on how prompt.
        for _ in 0..1000 {
            shard.park();
            if shard.ready.iter().any(PollFd::flagged) {
                break;
            }
        }
        let flagged: Vec<bool> = shard.ready.iter().map(PollFd::flagged).collect();
        match backend {
            Backend::Mmsg => assert_eq!(flagged, [false, false, false, true]),
            Backend::Fallback => assert_eq!(flagged, [true; 4], "the portable wait reads blind"),
        }
        shard.drain_sockets().expect("drain");
        assert_eq!(shard.nodes[3].recv_msgs, 1, "the frame reached the node homed on socket 3");
        assert_eq!(shard.nodes[3].decode_errors, 0);
        assert!(!shard.ready.iter().any(PollFd::flagged), "a drained pool is unflagged");
    }

    /// Everything waiting on the pool's sockets, read the way a peer shard
    /// would: per kernel datagram, the pool socket it arrived on, the
    /// address it was sent from, and its frames.
    type Arrival = (usize, SocketAddr, Vec<(NodeId, Vec<u8>)>);

    fn read_pool(shard: &Shard) -> Vec<Arrival> {
        thread::sleep(std::time::Duration::from_millis(20)); // loopback delivery
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut arrivals = Vec::new();
        for (si, socket) in shard.sockets.iter().enumerate() {
            while let Ok((len, from)) = socket.recv_from(&mut buf) {
                let frames = demux::frames(&buf[..len]).map(|(d, w)| (d, w.to_vec())).collect();
                arrivals.push((si, from, frames));
            }
        }
        arrivals
    }

    /// The flush groups the whole outbox by destination address: however
    /// the releases interleave, a wake costs one kernel datagram per
    /// address, and the frames of each (sender → receiver) pair stay in
    /// release order inside it.
    #[test]
    fn interleaved_destinations_leave_as_one_kernel_datagram_each() {
        for backend in [mmsg::select_backend(None), Backend::Fallback] {
            // Pool of 2: nodes 0 and 2 receive on address A, 1 and 3 on B.
            let (config, addrs) = one_shard(backend, 2, false);
            let mut shard = Shard::new(config).expect("shard boots");
            let offers: Vec<(NodeId, Vec<u8>)> =
                (0..12u8).map(|k| (NodeId::new(u32::from(k) % 4), vec![k; 20])).collect();
            for (to, bytes) in &offers {
                shard.enqueue(*to, bytes.clone()); // A, B, A, B, …
            }
            shard.flush_outbox().expect("flush");
            assert_eq!(shard.stats.datagrams_sent, 12, "{backend:?}");
            assert_eq!(shard.stats.kernel_sent, 2, "{backend:?}: one kernel datagram per address");
            assert!(shard.outbox.is_empty() && shard.outbox_bytes == 0);

            let arrivals = read_pool(&shard);
            assert_eq!(arrivals.len(), 2);
            for (si, _, frames) in arrivals {
                let want: Vec<(NodeId, Vec<u8>)> =
                    offers.iter().filter(|(to, _)| to.index() % 2 == si).cloned().collect();
                assert_eq!(frames, want, "{backend:?}: socket {si} ({})", addrs[si]);
            }
        }
    }

    /// A destination's group splits at [`MAX_COALESCED`] into as few kernel
    /// datagrams as hold it, dropping nothing and keeping the order.
    #[test]
    fn an_oversized_group_splits_and_drops_nothing() {
        let (config, _) = one_shard(mmsg::select_backend(None), 4, false);
        let mut shard = Shard::new(config).expect("shard boots");
        // 40 frames of 1006 framed bytes: 16 fit one 16 KiB datagram.
        for k in 0..40u8 {
            shard.enqueue(NodeId::new(1), vec![k; 1000]);
            shard.enqueue(NodeId::new(2), vec![k; 8]); // company on another address
        }
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.datagrams_sent, 80);
        assert_eq!(
            shard.stats.kernel_sent,
            3 + 1,
            "⌈40 × 1006 / 16384⌉ for node 1, one for node 2"
        );
        assert_eq!(shard.stats.send_drops + shard.stats.datagrams_shed, 0);

        let arrivals = read_pool(&shard);
        let to_one: Vec<&Arrival> = arrivals.iter().filter(|(si, ..)| *si == 1).collect();
        assert_eq!(to_one.iter().map(|(_, _, f)| f.len()).collect::<Vec<_>>(), [16, 16, 8]);
        let payloads = to_one.iter().flat_map(|(_, _, frames)| frames).map(|(_, wire)| wire[0]);
        assert!(payloads.eq(0..40u8), "every frame arrived, in release order");
    }

    /// Each destination address leaves from one fixed pool socket, its rank
    /// modulo the pool — so with a pool's worth of destinations every pool
    /// socket sends, and the chaos plan's socket-0 kill (which fires on the
    /// send path) always finds traffic to interrupt.
    #[test]
    fn every_pool_socket_carries_sends() {
        let (config, addrs) = one_shard(mmsg::select_backend(None), 4, false);
        let mut shard = Shard::new(config).expect("shard boots");
        for round in 0..3u8 {
            for g in 0..4 {
                shard.enqueue(NodeId::new(g), vec![round; 16]);
            }
            shard.flush_outbox().expect("flush");
        }
        let arrivals = read_pool(&shard);
        assert_eq!(arrivals.len(), 12);
        let mut senders: Vec<SocketAddr> = arrivals.iter().map(|&(_, from, _)| from).collect();
        senders.sort_unstable();
        senders.dedup();
        let mut pool = addrs.clone();
        pool.sort_unstable();
        assert_eq!(senders, pool, "all four pool sockets sent");
        // …and a destination never changes its socket.
        for (si, addr) in addrs.iter().enumerate() {
            let mut from = arrivals.iter().filter(|a| a.0 == si).map(|a| a.1);
            let first = from.next().expect("socket received");
            assert!(from.all(|f| f == first), "address {addr} was sent to from two sockets");
        }
    }

    /// What a wake produced leaves in that wake: one iteration with rounds
    /// and source emissions due ends with the outbox empty and the
    /// datagrams on the wire.
    #[test]
    fn one_iteration_empties_the_outbox() {
        let (config, _) = one_shard(mmsg::select_backend(None), 4, true);
        let mut shard = Shard::new(config).expect("shard boots");
        // Let a few rounds and source packets fall due, then run once.
        thread::sleep(std::time::Duration::from_millis(250));
        shard.turn().expect("turn");
        assert!(shard.stats.datagrams_sent > 0, "due rounds produced traffic");
        assert!(shard.stats.kernel_sent > 0);
        assert!(shard.outbox.is_empty() && shard.outbox_bytes == 0);
        assert_eq!(shard.stats.iterations, 1);
    }

    /// A wake that due deadlines or the receive budget cut into several
    /// iterations still flushes once, in the iteration that clears the
    /// backlog — unless the backlog outlasts a quantum, when the flush
    /// stops waiting for it.
    #[test]
    fn a_wake_cut_into_iterations_flushes_once() {
        // One socket, receive budget 8: twenty datagrams are three drains.
        let (config, addrs) = one_shard(mmsg::select_backend(None), 1, false);
        let mut shard = Shard::new(config).expect("shard boots");
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(3600)).is_some() {}
        shard.drain_sockets().expect("drain");
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let mut frame = Vec::new();
        let reply =
            shuffle_wire::encode_shuffle(NodeId::new(0), &ShuffleMessage::Reply(Vec::new()));
        assert!(demux::append_frame(&mut frame, NodeId::new(3), &reply));
        let backlog = |shard: &mut Shard| {
            for _ in 0..20 {
                tx.send_to(&frame, addrs[0]).expect("send");
            }
            thread::sleep(std::time::Duration::from_millis(20)); // loopback delivery
            shard.ready[0] = PollFd::BLIND;
        };

        backlog(&mut shard);
        // A wake that has only just begun, however slowly this test runs
        // (`elapsed` of a future instant is zero).
        shard.last_wake = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        shard.enqueue(NodeId::new(1), vec![0; 8]);
        for _ in 0..2 {
            shard.turn().expect("turn");
            assert!(shard.ready[0].flagged(), "budget used up: backlog remains");
            assert_eq!((shard.outbox.len(), shard.stats.kernel_sent), (1, 0), "held for the wake");
        }
        shard.turn().expect("turn"); // 4 left: a short batch ends the wake
        assert_eq!((shard.outbox.len(), shard.stats.kernel_sent), (0, 1));
        assert_eq!(shard.nodes[3].recv_msgs, 20);

        backlog(&mut shard);
        shard.last_wake = std::time::Instant::now() - 2 * WAKE_QUANTUM;
        shard.enqueue(NodeId::new(1), vec![0; 8]);
        shard.turn().expect("turn");
        assert!(shard.ready[0].flagged());
        assert_eq!((shard.outbox.len(), shard.stats.kernel_sent), (0, 2), "a quantum is the limit");
    }

    /// The Reorder fate swaps a datagram with the latest one queued for the
    /// same destination — the only swap that survives the flush's
    /// regrouping and reaches a receiver out of order.
    #[test]
    fn a_reordered_datagram_swaps_within_its_destination() {
        let (mut config, _) = one_shard(Backend::Fallback, 4, false);
        let chaos = gossip_adversity::ChaosSpec { reorder: 1.0, ..Default::default() };
        config.cluster.adversity = config.cluster.adversity.clone().with_chaos(chaos);
        config.compiled = Arc::new(config.cluster.compiled_adversity());
        let mut shard = Shard::new(config).expect("shard boots");
        let now = shard.clock.now();
        // The source (node 0) is uncapped: its shaper releases at once.
        for (to, tag) in [(1, b'a'), (2, b'a'), (1, b'b')] {
            shard.nodes[0].shaper.offer(now, 4, (NodeId::new(to), vec![tag; 4]));
        }
        shard.flush_shaper(0, now);
        assert_eq!(shard.stats.faults_injected, 3);
        let queued: Vec<(u32, u8)> =
            shard.outbox.iter().map(|(to, b)| (to.as_u32(), b[0])).collect();
        assert_eq!(queued, [(1, b'b'), (2, b'a'), (1, b'a')], "node 1 gets b before a");
    }

    /// A backed-off socket's retry instant is an input of the wait,
    /// alongside the wheel, and the flush that follows it sends the
    /// retained queue with or without new traffic: a retry happens at its
    /// `backoff_until`, not at whatever tick comes after.
    #[test]
    fn a_retained_queue_is_retried_at_its_backoff_expiry() {
        let (config, addrs) = one_shard(Backend::Fallback, 4, false);
        let mut shard = Shard::new(config).expect("shard boots");
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(3600)).is_some() {}
        assert_eq!(shard.next_deadline(), None, "nothing armed, nothing retained");

        let far = shard.clock.now() + Duration::from_secs(3600);
        shard.wheel.push(far, Fire::Source(0));
        assert_eq!(shard.next_deadline(), Some(far));
        // An outbox is nobody's deadline: it never outlives its wake.
        shard.enqueue(NodeId::new(1), vec![0; 8]);
        assert_eq!(shard.next_deadline(), Some(far));
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.kernel_sent, 1);

        // Retained datagrams behind a backoff: due at its expiry…
        let until = shard.clock.now() + Duration::from_millis(30);
        shard.recovery[2].pending.push_datagram(addrs[1], b"retained");
        shard.recovery[2].backoff_until = Some(until);
        assert_eq!(shard.next_deadline(), Some(until));
        // …held until then, however often the loop flushes…
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.kernel_sent, 1, "still backing off");
        assert_eq!(shard.recovery[2].pending.len(), 1);
        // …and sent by the first flush after it, with an empty outbox.
        thread::sleep(std::time::Duration::from_millis(35));
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.kernel_sent, 2, "the retry went out");
        assert!(shard.recovery[2].pending.is_empty());
        assert_eq!(shard.next_deadline(), Some(far));

        // A backoff with nothing retained is nobody's deadline, and
        // retained datagrams that never backed off (a fresh re-bind) are
        // due at once.
        shard.recovery[1].backoff_until = Some(Time::ZERO);
        assert_eq!(shard.next_deadline(), Some(far));
        shard.recovery[1].backoff_until = None;
        shard.recovery[1].pending.push_datagram(addrs[1], b"retained");
        assert_eq!(shard.next_deadline(), Some(Time::ZERO));
    }

    /// A pool socket whose descriptor is useless as a socket is read
    /// because the wait flags it (`revents != 0` — the path `POLLNVAL` and
    /// `POLLERR` take too), classified fatal, re-bound in place exactly
    /// once, and watched again through the rebuilt wait set: the loop
    /// neither dies nor spins on it.
    ///
    /// Safe Rust cannot close a descriptor under a live `UdpSocket` (and
    /// a double close would race the other tests' descriptors), so the
    /// dead socket here is a `/dev/null` handle dressed as one: `ppoll`
    /// flags it and every socket call on it fails with `ENOTSOCK`.
    #[cfg(unix)]
    #[test]
    fn a_dead_pool_socket_is_rebound_once_and_not_spun_on() {
        for backend in [mmsg::select_backend(None), Backend::Fallback] {
            let (config, _) = one_shard(backend, 4, false);
            let (reports, stats, wall) =
                run_for(config, std::time::Duration::from_millis(300), |shard| {
                    let null = std::fs::File::open("/dev/null").expect("open /dev/null");
                    // Dropping the real socket frees its port for the re-bind.
                    shard.sockets[2] = UdpSocket::from(std::os::fd::OwnedFd::from(null));
                });
            assert_eq!(stats.socket_rebinds, 1, "{backend:?}");
            assert!(stats.iterations <= iteration_bound(wall, &stats), "{backend:?} spun");
            assert_eq!(reports.len(), 4);
        }
    }

    /// A streaming one-shard cluster of `n` nodes on the batched backend,
    /// booted and ready to be driven on the test's own thread.
    fn streaming_shard(n: usize, tweak: impl FnOnce(&mut ClusterConfig)) -> Shard {
        let (config, _) = one_shard_of(mmsg::select_backend(None), 2, n, |cluster| {
            cluster.stream_duration = Duration::from_secs(30);
            tweak(cluster);
        });
        Shard::new(config).expect("shard boots")
    }

    /// Runs the shard's loop on this thread for `window`.
    fn turn_for(shard: &mut Shard, window: std::time::Duration) {
        let started = std::time::Instant::now();
        while started.elapsed() < window {
            shard.turn().expect("turn");
        }
    }

    /// Every packet id the stream can have published in its first
    /// `windows` windows.
    fn stream_ids(shard: &Shard, windows: u32) -> impl Iterator<Item = PacketId> {
        let per_window = shard.cluster.stream.window.total_packets() as u16;
        (0..windows).flat_map(move |w| (0..per_window).map(move |i| PacketId::new(w, i)))
    }

    /// Where the payload bytes of every held copy of `id` live: the
    /// shard's table first, then each hosted node's store.
    fn payload_addresses(shard: &Shard, id: &PacketId) -> Vec<*const u8> {
        let nodes = shard.nodes.iter().filter_map(|vn| vn.node.stored(id));
        shard.packets.lookup(id).into_iter().chain(nodes).map(|p| p.payload().as_ptr()).collect()
    }

    /// The storage rule's point: however many nodes a shard hosts, it
    /// holds each packet's payload once — every node's stored copy is the
    /// table's buffer, so distinct buffers equal distinct packets.
    #[test]
    fn a_shard_holds_one_payload_buffer_per_packet() {
        let mut shard = streaming_shard(6, |_| {});
        turn_for(&mut shard, std::time::Duration::from_millis(1200));
        let (mut packets, mut copies, mut buffers) = (0, 0, 0);
        for id in stream_ids(&shard, 10) {
            let mut held = payload_addresses(&shard, &id);
            packets += usize::from(!held.is_empty());
            copies += held.len();
            held.sort_unstable();
            held.dedup();
            buffers += held.len();
        }
        assert!(packets > 20, "only {packets} packets flowed");
        assert!(copies > 3 * packets, "the nodes hold their own entries: {copies} for {packets}");
        assert_eq!(buffers, packets, "one buffer per packet, not one per node");
        let stored: usize = shard.nodes.iter().map(|vn| vn.node.stored_events()).sum();
        assert_eq!(stored + shard.packets.by_id.len(), copies, "no packet beyond the ten windows");
    }

    /// Only verified packets enter the table, and a payload is shared only
    /// when it is byte-equal to a pooled one — so with serve-corruptors
    /// about, whether the receivers defend themselves or leave the check to
    /// the shard, every table entry verifies and a corrupted payload a node
    /// swallowed is that node's private copy.
    #[test]
    fn corrupted_payloads_never_enter_or_alias_the_table() {
        for defended in [true, false] {
            let mut shard = streaming_shard(8, |cluster| {
                // A source that reaches only two receivers itself leaves the
                // rest to be served by relays, corruptors among them.
                cluster.gossip =
                    cluster.gossip.clone().with_verify_payloads(defended).with_source_fanout(2);
                cluster.adversity = cluster
                    .adversity
                    .clone()
                    .with_byzantine(0.3, gossip_adversity::ByzantineMix::serve_corruptors());
            });
            assert!(shard.compiled.profiles.iter().any(|p| p.byzantine.is_some()));
            turn_for(&mut shard, std::time::Duration::from_millis(1500));

            let (mut pooled, mut swallowed) = (0, 0);
            for id in stream_ids(&shard, 12) {
                let Some(entry) = shard.packets.lookup(&id) else { continue };
                pooled += 1;
                assert!(entry.verify(), "defended={defended}: {id} pooled corrupt");
                for stored in shard.nodes.iter().filter_map(|vn| vn.node.stored(&id)) {
                    let shares = stored.payload().as_ptr() == entry.payload().as_ptr();
                    assert_eq!(shares, stored.verify(), "defended={defended}: {id}");
                    swallowed += usize::from(!shares);
                }
            }
            assert!(pooled > 20, "defended={defended}: only {pooled} packets pooled");
            let detected: u64 =
                shard.nodes.iter().map(|vn| vn.node.stats().corrupted_events_detected).sum();
            if defended {
                assert!(detected > 0, "the corruptors were never caught at work");
                assert_eq!(swallowed, 0, "a validating node stored corruption");
            } else {
                assert_eq!(detected, 0);
                assert!(swallowed > 0, "no undefended node ever swallowed a corrupted serve");
            }
        }
    }

    /// The table's one door, by hand: an undefended node swallows a
    /// corrupted serve of a packet the shard has not seen yet — the node
    /// stores it, the shard's own check keeps it out of the table — and
    /// the intact packet, arriving later at a neighbour, is what gets
    /// pooled and shared.
    #[test]
    fn an_undefended_nodes_corrupt_delivery_is_not_pooled() {
        let (config, _) = one_shard_of(Backend::Fallback, 1, 4, |cluster| {
            cluster.stream_duration = Duration::ZERO;
            cluster.gossip = cluster.gossip.clone().with_verify_payloads(false);
        });
        let mut shard = Shard::new(config).expect("shard boots");
        let now = shard.clock.now();
        let packet = StreamPacket::new(PacketId::new(0, 0), Time::ZERO, vec![5u8; 500].into());
        let id = packet.packet_id();
        let serve = |packet: StreamPacket| {
            encode_message(NodeId::new(1), &gossip_core::Message::Serve { events: vec![packet] })
        };

        shard.route_frame(NodeId::new(2), &serve(packet.tampered()), now);
        let swallowed = shard.nodes[2].node.stored(&id).expect("the node does not look");
        assert!(!swallowed.verify());
        assert!(shard.packets.lookup(&id).is_none(), "a corrupted delivery was pooled");

        shard.route_frame(NodeId::new(3), &serve(packet.clone()), now);
        let pooled = shard.packets.lookup(&id).expect("an intact delivery is pooled");
        assert!(pooled.verify());
        let shared = shard.nodes[3].node.stored(&id).expect("stored");
        assert_eq!(shared.payload().as_ptr(), pooled.payload().as_ptr());
        let swallowed = shard.nodes[2].node.stored(&id).expect("still there");
        assert_ne!(swallowed.payload().as_ptr(), pooled.payload().as_ptr());
    }

    /// Memory is bounded by the retention horizon, not the run length:
    /// once the stream is older than `retention`, the table and every
    /// node's store stop growing, and the oldest windows have no holder
    /// left — their buffers are freed.
    #[test]
    fn the_table_and_the_stores_plateau_at_the_retention_horizon() {
        let mut shard = streaming_shard(4, |cluster| {
            cluster.gossip = cluster.gossip.clone().with_retention(Duration::from_secs(1));
        });
        let held = |shard: &Shard| -> Vec<usize> {
            let nodes = shard.nodes.iter().map(|vn| vn.node.stored_events());
            std::iter::once(shard.packets.by_id.len()).chain(nodes).collect()
        };
        turn_for(&mut shard, std::time::Duration::from_millis(2500));
        let mid = held(&shard);
        turn_for(&mut shard, std::time::Duration::from_millis(2000));
        let late = held(&shard);
        // 65 packets a second (50 data + parity) for 1 s, plus the 100 ms
        // pruning cadence; unpruned, 4.5 s would hold ≈ 290.
        for (mid, late) in mid.iter().zip(&late) {
            assert!((40..=110).contains(late), "holding {late} packets at 4.5 s (table, nodes…)");
            assert!(late.abs_diff(*mid) <= 25, "{mid} at 2.5 s, {late} at 4.5 s: still growing");
        }
        for id in stream_ids(&shard, 10) {
            assert!(payload_addresses(&shard, &id).is_empty(), "{id} is still held at 4.5 s");
        }
    }

    /// A crash takes the victim's retransmission deadlines out of the
    /// wheel at once — only those — and their handles die with them: shown
    /// again after the revive, when the new incarnation's deadlines occupy
    /// the recycled slots, they cancel nothing.
    #[test]
    fn a_crash_cancels_the_victims_retransmit_deadlines_and_their_handles_go_stale() {
        let (config, _) = one_shard_of(Backend::Fallback, 2, 4, |cluster| {
            cluster.crashes = vec![(2, Duration::from_secs(3600))];
        });
        let mut shard = Shard::new(config).expect("shard boots");
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(7200)).is_some() {}
        let k = shard
            .compiled
            .timeline
            .events()
            .iter()
            .position(|e| matches!(e.action, FaultAction::Crash(_)))
            .expect("the crash compiled");
        let now = shard.clock.now();
        let propose = |shard: &mut Shard, window: u32| {
            for index in 0..2 {
                let ids = vec![PacketId::new(window, index)].into();
                let propose = gossip_core::Message::Propose { ids };
                shard.nodes[2].node.on_message(now, NodeId::new(1), propose);
            }
        };

        // First life: the host's part played by hand, to keep the handles.
        propose(&mut shard, 0);
        let mut stale = Vec::new();
        while let Some(out) = shard.nodes[2].node.poll_output() {
            if let Output::ScheduleTimer { token, at } = out {
                let handle = shard.wheel.push(at, Fire::Timer(2, token, 0));
                shard.nodes[2].node.attach_timer_handle(token, handle);
                stale.push(handle);
            }
        }
        assert_eq!((stale.len(), shard.wheel.len()), (2, 2));
        shard.apply_fault(k, now);
        assert!(shard.nodes[2].down && shard.wheel.is_empty(), "the crash cancelled both");

        // Second life: armed through the shard, into the freed slots.
        let members = Arc::clone(&shard.members);
        shard.nodes[2].revive(&shard.cluster, members, false);
        propose(&mut shard, 1);
        shard.drain_outputs(2, now);
        let armed = shard.wheel.len();
        assert!(armed >= 2, "two new deadlines (and the shaper's, if it held the requests)");
        for handle in stale {
            assert!(!shard.wheel.cancel(handle), "a dead incarnation's handle cancelled something");
        }
        assert_eq!(shard.wheel.len(), armed);
        // The new deadlines are the shard's own: the next crash finds them.
        shard.apply_fault(k, now);
        assert_eq!(shard.wheel.len(), armed - 2);
    }

    /// A crashed node lets go of every payload at the crash: it will run
    /// no round to prune them, and nothing brings this one back.
    #[test]
    fn a_crashed_node_holds_no_payloads() {
        let mut shard = streaming_shard(4, |cluster| {
            cluster.crashes = vec![(2, Duration::from_millis(700))];
        });
        turn_for(&mut shard, std::time::Duration::from_millis(500));
        assert!(!shard.nodes[2].down);
        assert!(shard.nodes[2].node.stored_events() > 0, "the victim was receiving the stream");
        turn_for(&mut shard, std::time::Duration::from_millis(500));
        assert!(shard.nodes[2].down, "the crash fault fired");
        assert_eq!(shard.nodes[2].node.stored_events(), 0);
        assert!(shard.nodes[2].node.stats().events_delivered > 0, "the counters survive");
        assert!(shard.nodes[1].node.stored_events() > 0, "the survivors keep theirs");
    }
}
