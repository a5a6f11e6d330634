//! The shard event loop: one thread hosting many virtual nodes.
//!
//! A shard is an environment and a loop: the host rules — node
//! construction, the inbound gate, output routing, crash, revive, throttle
//! and the fault-timeline interpreter — live in [`gossip_udp::hosted`],
//! shared with the simulator. What stays here is wait → fire → drain →
//! flush, and the shard's answers to [`Host`] (upload link, outbox,
//! [`PacketPool`], wheel) and [`FaultHost`] (rounds staggered by id; the
//! cluster's membership model). Under a tracker every node draws partners
//! from the census; under Cyclon every node keeps a partial view — base
//! nodes draw theirs in [`Shard::new`], a node that comes up draws a fresh
//! one in [`hosted::apply`] — and shuffles it once per gossip round, the
//! simulator's model with the shuffle period set to the gossip period.
//!
//! A shard multiplexes every deadline of its nodes — gossip rounds,
//! retransmission timers, source emissions, upload-link releases, and the
//! compiled fault timeline — through one timer wheel (the calendar queue
//! from `gossip-sim`, the same `EventSchedule` implementation the
//! simulator runs on), and all their traffic through a small pool of
//! non-blocking sockets.
//!
//! # The environment seam
//!
//! [`Shard`] has one type parameter, its environment ([`ShardEnv`]): the
//! only thing the loop reads time from or moves datagrams through. It
//! answers `now` — every deadline, the dwell and the telemetry phase spans
//! are read there —, waits (the dwell, then the pool's readiness),
//! receives a batch on one pool socket, sends from one, and re-binds a dead
//! socket in place. Time and sockets are one seam, not two: only the loop
//! and its wait read either. Which I/O path the environment runs is fixed
//! when it is built, not part of the seam.
//! A live shard runs on [`crate::mmsg::UdpEnv`] — the cluster clock, real
//! sockets, `ppoll` and `sendmmsg`/`recvmmsg` or their portable fallback;
//! the tests run the *same* loop on an in-memory pool and a stepped clock,
//! every shard of a cluster on one virtual clock, deterministically and
//! without sleeping.
//!
//! # The loop: dwell and wait → fire → drain → flush every wake
//!
//! A shard sleeps in exactly one place: its environment's wait. It first
//! *dwells* out the rest of one [`WAKE_QUANTUM`] since it last woke, not
//! watching the sockets, so arrivals and deadlines pile up into one batch
//! per wake instead of one wake (a context switch) per datagram; then it
//! waits over its whole socket pool until a socket has something to read
//! or the shard's next deadline — the earlier of the wheel's next fire and
//! the backoff expiry of a socket with retained datagrams — and never
//! longer than one more quantum, so a raised stop flag is noticed promptly.
//! It then fires the due deadlines, reads **only the sockets the wait
//! flagged**, and flushes: what a wake produced leaves in that wake. The
//! wait is skipped only when the drain left flagged sockets unread — a
//! socket used its whole receive budget, or a due deadline cut the drain
//! short: backlog goes straight round again, and the wake's one flush waits
//! for the iteration that clears it, or for the wake to have run a full
//! quantum, whichever comes first. On the portable path the dwell is the
//! only sleep: the wait returns after it with every socket flagged.
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
//! end, **grouped by destination address**. Every node of a shard receives
//! at one address, its shard's first pool socket, so an address is a
//! shard: every frame of the wake bound for one shard — whichever local
//! node sent it, whichever of that shard's nodes receives it — is packed
//! into one kernel datagram of length-delimited frames (see
//! [`crate::demux`]), split only at [`MAX_COALESCED`] bytes (between
//! frames, never inside one): a wake costs about ⌈bytes /
//! `MAX_COALESCED`⌉ kernel datagrams per destination shard, one for all
//! but bulk serves. The grouping is stable, so the frames of one (sender →
//! receiver) pair keep their release order. Each destination address is
//! always sent from the same pool socket — its rank among the distinct
//! addresses of the address book, modulo the pool — so the groups spread
//! over the pool and one destination's datagrams never overtake each other
//! on different sockets. Every pool socket is polled and drained alike:
//! a frame routes on its id prefix, whichever socket it lands on, so a
//! peer that addresses another socket of the pool still reaches the node.
//! The packed queues then drain through the environment — batches of
//! kernel datagrams per `sendmmsg` where the platform has it, per-datagram
//! `send_to` otherwise. Ingress is symmetric: `recvmmsg` fills a pool of
//! max-datagram buffers, and each received datagram is demuxed as a
//! *borrowed* slice whose frames feed the protocol through the zero-copy
//! `decode_frame`/`on_frame` path — the pooled buffer is the only copy of
//! inbound bytes the hot path ever makes. The pool holds the largest burst the shard has seen, not a
//! worst case: it starts with a few buffers and doubles whenever a
//! receive call fills them all, up to `recv_batch` (at most
//! [`MAX_VLEN`](crate::mmsg::MAX_VLEN)), and never shrinks. The per-shard
//! [`ShardStats`] report the resulting syscalls-per-datagram and
//! batch-occupancy ratios.
//!
//! Receive work is budgeted: at most `recv_batch` datagrams per socket
//! per iteration, and a wheel deadline coming due ends the drain early —
//! an ingress flood cannot stall the timers that keep rounds, sources
//! and upload links on schedule. The drain reads in batches of what one
//! call on a pool at its cap would take; below the cap a batch takes as
//! many calls as the growing pool needs, each asking for no more than
//! the budget left, and the deadline check follows the whole batch. A
//! socket stays flagged until a call comes back short of what it asked
//! for, which proves its kernel queue empty without paying for an
//! `EAGAIN`.
//!
//! # Payload storage: one copy of the stream per shard
//!
//! The nodes of a shard all receive the same stream, so the shard keeps
//! one table of packets ([`PacketPool`], the same type the simulator
//! keeps) and its nodes serve from it instead of keeping copies: memory
//! grows with the packets published, not with the nodes hosted. What a
//! hosted node adds per packet is its request word (8 bytes, 4 once the
//! packet's window has nothing in flight; an id in flight also links to
//! its retransmission timer) and nothing of the
//! packet; it keeps its own copy — a one-pointer [`StreamPacket`] handle
//! in a sparse side table — only of what the table did not hold equal
//! when it delivered it: a packet it was the first of the shard to
//! deliver, one the source published, and a corrupted or forged one it
//! accepted. The table is **filled** in one place — a delivery in
//! [`Shard::drain_outputs`] that passed `verify`, checked by the
//! validating node or, for an undefended node, by the shard — so a
//! corrupted payload can never enter it; the first copy of an id stays.
//! It is **consulted** twice, lent with every frame
//! ([`Shard::route_frame`]). At decode, a served packet that equals the
//! pooled one in header and payload bytes *is* the pooled packet (a
//! refcount), one whose payload alone is equal shares the payload buffer
//! under its own header, anything else gets its own copy, and the node
//! checks each exactly as before. At a request, a node serves a retained
//! payload it kept no copy of from the table. It is **pruned** once a
//! round, a whole window at a time: a window goes when every packet in it
//! was last delivered more than `retention` plus one `gossip_period` ago,
//! so no node still retains one of them (`gossip_core::pool` derives the
//! bound). One table per shard, touched only by the shard's thread: no
//! locks.
//!
//! The upload links keep no bytes either. A node's link queues messages
//! ([`Envelope`]s): a queued serve holds handles on the table's packets,
//! not an encoded copy of their payloads. The link charges each message its
//! encoded size when it is offered, and [`Shard::flush_link`] encodes it
//! only as the link releases it, just before its chaos fate is drawn — so
//! the released bytes, their order and the fate stream do not depend on
//! when a message is encoded, and a message the link drops or a crash
//! discards is never encoded at all.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gossip_adversity::{ChaosPlan, CompiledAdversity, PartitionState};
use gossip_core::wire::decode_frame;
use gossip_core::{Message, PacketPool, TimerToken};
use gossip_membership::{wire as shuffle_wire, CyclonConfig, ShuffleMessage};
use gossip_net::UploadLink;
use gossip_sim::{DetRng, EventHandle, EventQueue};
use gossip_stream::StreamPacket;
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::cluster::{ClusterConfig, JoinerBootstrap};
use gossip_udp::hosted::{self, Envelope, FaultHost, Host, HostedNode, Setup};
use gossip_udp::report::{NodeReport, ShardStats};

use crate::chaos::{ChaosSender, DatagramFate, SenderChaos, SocketChaos};
use crate::demux;
use crate::mmsg::{classify, ErrorClass, PollFd, RecvQueue, SendQueue, SendVerdict, WAKE_QUANTUM};
use crate::telemetry::{ShardTelemetry, GAUGE_PERIOD};

/// What a shard runs on: the only thing its loop reads time from or moves
/// datagrams through (see the module docs).
pub(crate) trait ShardEnv {
    /// The current instant on the cluster's time axis.
    fn now(&self) -> Time;

    /// Number of sockets in the pool.
    fn pool(&self) -> usize;

    /// Dwells for `dwell`, then waits until a pool socket is readable or
    /// `timeout` more has passed, and rebuilds `ready` — one slot per
    /// socket, in pool order — with the outcome.
    fn wait(
        &mut self,
        dwell: Duration,
        timeout: Duration,
        ready: &mut Vec<PollFd>,
    ) -> io::Result<()>;

    /// Receives up to `want` datagrams (at most `queue`'s capacity) on pool
    /// socket `si` into `queue` without blocking, counting the calls that
    /// moved data into `stats`. Returns how many datagrams `queue` now
    /// holds (0: none pending).
    fn recv(
        &mut self,
        si: usize,
        want: usize,
        queue: &mut RecvQueue,
        stats: &mut ShardStats,
    ) -> io::Result<usize>;

    /// Sends segments `first..` of `queue` from pool socket `si` — as many
    /// as one kernel interaction covers — and returns how many were
    /// accepted (at least 1). An error refers to segment `first` alone.
    fn send_from(&mut self, si: usize, queue: &SendQueue, first: usize) -> io::Result<usize>;

    /// Replaces dead pool socket `si` in place, on its local address.
    fn rebind(&mut self, si: usize) -> io::Result<()>;
}

/// Size cap of one coalesced kernel datagram. Well under the 64 KiB UDP
/// limit: a burst lost to a full kernel buffer should not take half a
/// window of serves with it.
const MAX_COALESCED: usize = 16 * 1024;

/// Size of one receive buffer, the largest UDP datagram: nothing a peer
/// can send is ever truncated, however few of them the pool holds.
const RECV_BUF_SIZE: usize = 65_536;

/// First backoff interval after a transient send failure. Doubles per
/// consecutive failure up to [`BACKOFF_CAP`], with deterministic jitter
/// so the pool's sockets do not retry in lockstep.
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Upper bound on one backoff interval: short against the protocol's
/// 100 ms rounds, long enough to let a kernel buffer drain.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(16);

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
    /// The node's upload link has a datagram coming due.
    Release(u32, u32),
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
    pub cluster: ClusterConfig,
    /// The compiled fault plan (shared; every shard walks the same
    /// timeline and applies the slice that concerns its nodes).
    pub compiled: Arc<CompiledAdversity>,
    /// Global node id → the address it receives at, its shard's first pool
    /// socket (local or remote alike).
    pub addresses: Arc<Vec<SocketAddr>>,
    pub stop: Arc<AtomicBool>,
    /// Live telemetry cells, pre-registered by the runtime (`None` when
    /// the run has no registry — the hot loop then carries no atomic
    /// traffic and no clock reads beyond its own).
    pub telemetry: Option<ShardTelemetry>,
}

/// What a finished shard hands back: its nodes' reports, its I/O
/// statistics, and the I/O error that ended its loop early, if any.
pub(crate) type ShardOutcome = (Vec<NodeReport>, ShardStats, Option<io::Error>);

pub(crate) struct Shard<E> {
    index: usize,
    placement: demux::Placement,
    recv_batch: usize,
    cluster: ClusterConfig,
    compiled: Arc<CompiledAdversity>,
    /// What the loop reads time from and moves datagrams through.
    pub(crate) env: E,
    /// Where every node of the cluster receives, by destination group.
    routes: Routes,
    stop: Arc<AtomicBool>,
    nodes: Vec<ShardNode>,
    wheel: EventQueue<Fire>,
    /// The census: base nodes plus joiners so far. Shared with every
    /// full-membership node the shard hosts; a join builds a new list
    /// (copy-on-join).
    members: Arc<[NodeId]>,
    /// Which partition events are live. Every shard walks the same fault
    /// timeline, so every shard's view of the split agrees; cross-cell
    /// frames are dropped on arrival in [`Shard::route_frame`].
    partition: PartitionState,
    /// RNG stream for membership work — Cyclon bootstrap samples and
    /// shuffle subsets. Seeded per shard; the reactor's wall-clock arrival
    /// order makes shuffle sequences non-deterministic anyway (like
    /// everything else this runtime measures statistically).
    membership_rng: DetRng,
    /// The shard's one copy of every packet a hosted node verified (not
    /// to be confused with the socket pool).
    packets: PacketPool<StreamPacket>,
    /// Released-but-unsent datagrams of this loop iteration, in release
    /// order: `(destination, unframed wire bytes)`.
    outbox: Vec<(NodeId, Vec<u8>)>,
    /// Scratch for the flush: the outbox's entries as `(sending socket,
    /// destination group, outbox index)`, sorted.
    flush_order: Vec<(usize, usize, usize)>,
    pub(crate) stats: ShardStats,
    /// Which pool sockets are worth reading, rebuilt by every wait. A slot
    /// stays flagged until a read finds its socket empty, so a flag
    /// surviving a drain means unread backlog.
    ready: Vec<PollFd>,
    /// When the last wait returned; the dwell counts from here.
    last_wake: Time,
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
    /// The chaos engine, present only when the compiled plan injects
    /// anything.
    chaos: Option<ChaosState>,
    /// Live telemetry cells (`None`: telemetry off, zero loop cost).
    telemetry: Option<ShardTelemetry>,
    /// Next time the telemetry gauges (completeness scan, queue depths)
    /// are recomputed.
    next_gauge_publish: Time,
}

/// A node as a shard hosts it: its link carries `(destination, envelope)`,
/// encoded and handed to the kernel as each one starts.
pub(crate) type ShardNode = HostedNode<Port>;

/// A hosted node's end of the shard beside its link: its release deadline
/// and its share of the receive path.
pub(crate) struct Port {
    /// The incarnation whose link-release deadline is pending in the wheel,
    /// if any (at most one at a time): a crash moves the epoch on, which
    /// disarms it.
    armed: Option<u32>,
    recv_msgs: u64,
    decode_errors: u64,
}

/// Consumes a hosted node into its end-of-run report.
fn into_report(hosted: ShardNode) -> NodeReport {
    let (port, link) = (&hosted.port, hosted.link.stats());
    NodeReport {
        id: hosted.id(),
        protocol: *hosted.node.stats(),
        sent_bytes: link.bytes_sent,
        sent_msgs: link.msgs_sent,
        shaper_drops: link.msgs_dropped,
        recv_msgs: port.recv_msgs,
        decode_errors: port.decode_errors,
        player: hosted.player,
    }
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
    /// Ranks the book's distinct addresses in one pass over its ids sorted
    /// by address: each id joins the group of the last distinct address.
    fn new(addresses: &[SocketAddr]) -> Self {
        let mut by_addr: Vec<u32> = (0..addresses.len() as u32).collect();
        by_addr.sort_unstable_by_key(|&g| addresses[g as usize]);
        let (mut addrs, mut group_of) = (Vec::new(), vec![0; addresses.len()]);
        for g in by_addr {
            let addr = addresses[g as usize];
            if addrs.last() != Some(&addr) {
                addrs.push(addr);
            }
            group_of[g as usize] = (addrs.len() - 1) as u32;
        }
        Routes { addrs, group_of }
    }

    /// Whether the address book has an entry for `v`.
    fn knows(&self, v: NodeId) -> bool {
        v.index() < self.group_of.len()
    }

    /// Whether the address book knows the sender of a shuffle and every
    /// peer it offers.
    fn knows_all(&self, from: NodeId, msg: &ShuffleMessage) -> bool {
        let (ShuffleMessage::Request(offered) | ShuffleMessage::Reply(offered)) = msg;
        self.knows(from) && offered.iter().all(|&(peer, _)| self.knows(peer))
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

impl<E: ShardEnv> Shard<E> {
    pub(crate) fn new(config: ShardConfig, env: E) -> Self {
        let ShardConfig {
            index,
            placement,
            recv_batch,
            cluster,
            compiled,
            addresses,
            stop,
            telemetry,
        } = config;
        let pool = env.pool();
        let members: Arc<[NodeId]> = (0..compiled.base_n as u32).map(NodeId::new).collect();
        let setup = Setup {
            gossip: &cluster.gossip,
            stream: cluster.stream,
            stream_duration: cluster.stream_duration,
            seed: cluster.seed,
            source_uncapped: cluster.source_uncapped,
        };
        let nodes: Vec<ShardNode> = (0..)
            .map(|local| placement.global_of(index, local))
            .take_while(|&g| placement.contains(g))
            .map(|g| {
                HostedNode::new(
                    NodeId::new(g),
                    &setup,
                    compiled.profiles[g as usize],
                    Arc::clone(&members),
                    cluster.upload_cap_bps,
                    cluster.max_backlog,
                    Port { armed: None, recv_msgs: 0, decode_errors: 0 },
                )
            })
            .collect();

        let mut wheel: EventQueue<Fire> = EventQueue::new();
        let period = cluster.gossip.gossip_period;
        for (local, vn) in nodes.iter().enumerate() {
            if vn.is_down() {
                continue; // flash-crowd joiners start dark
            }
            // Stagger first rounds across one gossip period so the
            // cluster's round traffic does not arrive as one synchronised
            // burst on every socket.
            let phase = Duration::from_micros(
                u64::from(vn.id().as_u32()) * period.as_micros() / compiled.total_n as u64,
            );
            wheel.push(Time::ZERO + phase, Fire::Round(local as u32, vn.epoch()));
            if vn.is_source() {
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
            senders: nodes.iter().map(|vn| SenderChaos::new(&plan, vn.id())).collect(),
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
        let mut shard = Shard {
            index,
            placement,
            recv_batch,
            cluster,
            compiled,
            last_wake: env.now(),
            env,
            routes: Routes::new(&addresses),
            stop,
            nodes,
            wheel,
            members: Arc::clone(&members),
            partition: PartitionState::new(),
            membership_rng,
            packets: PacketPool::default(),
            outbox: Vec::new(),
            flush_order: Vec::new(),
            stats: ShardStats::default(),
            // Nothing is known about the pool yet: read it blind once.
            ready: vec![PollFd::BLIND; pool],
            drain_cursor: 0,
            recv_queue: RecvQueue::new(recv_batch, RECV_BUF_SIZE),
            send_queue: SendQueue::default(),
            scratch_queue: SendQueue::default(),
            outbox_bytes: 0,
            recovery,
            chaos,
            telemetry,
            next_gauge_publish: Time::ZERO,
        };
        // Under Cyclon every base node starts from its own bootstrap
        // sample; a joiner draws its own when it comes up.
        let base: Vec<NodeId> =
            shard.nodes.iter().filter(|vn| !vn.is_down()).map(HostedNode::id).collect();
        for v in base {
            hosted::draw_view(&mut shard, v, &members);
        }
        shard
    }

    /// Runs the loop until `stop` is raised, then [`Shard::finish`]es.
    /// Even a failed shard hands back everything it accumulated: a partial
    /// measurement beats a silent gap in the report.
    pub(crate) fn run(mut self) -> ShardOutcome {
        let failure = self.run_loop().err();
        self.finish(failure)
    }

    /// Ends the run after `failure`, if any: sends what is still held back
    /// and hands back the outcome.
    fn finish(mut self, failure: Option<io::Error>) -> ShardOutcome {
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
        (self.nodes.into_iter().map(into_report).collect(), stats, failure)
    }

    fn run_loop(&mut self) -> io::Result<()> {
        while !self.stop.load(Ordering::Relaxed) {
            self.turn()?;
        }
        Ok(())
    }

    /// One loop iteration: dwell and wait, then fire, drain and flush.
    fn turn(&mut self) -> io::Result<()> {
        // Phase wall-time brackets exist only when telemetry is on:
        // four more clock reads per iteration, nothing otherwise.
        let t0 = self.telemetry.as_ref().map(|_| self.env.now());

        // 0. Dwell out the wake quantum, then sleep until traffic or the
        // next deadline.
        self.park();
        self.stats.iterations += 1;
        let now = self.env.now();

        // 1. Fire every due deadline.
        while let Some((at, fire)) = self.wheel.pop_before(now) {
            self.dispatch(fire, at, now);
        }
        self.packets.prune(&self.cluster.gossip, now);
        let t1 = t0.map(|_| self.env.now());

        // 2. Budgeted batched receive from the sockets the wait flagged.
        self.drain_sockets()?;
        let t2 = t0.map(|_| self.env.now());

        // 3. Everything this wake released goes on the wire, along with
        // any retained datagrams whose backoff has run out — once the wake
        // is over (nothing left flagged, the dwell is next), or once it has
        // run a full quantum working through backlog. A wake cut into
        // several iterations by due deadlines still flushes once.
        self.shed_outbox();
        if !self.ready.iter().any(PollFd::flagged) || self.awake_for() >= WAKE_QUANTUM {
            self.flush_outbox()?;
        }
        let t3 = t0.map(|_| self.env.now());

        let fired = t0.map(|_| now);
        self.publish_telemetry(now, t0.zip(fired), fired.zip(t1), t1.zip(t2), t2.zip(t3));
        Ok(())
    }

    /// Mirrors the loop's statistics into the telemetry cells: phase
    /// durations and counters every iteration, the gauges (queue depths,
    /// aggregate completeness — an O(nodes + windows) scan) only at
    /// [`GAUGE_PERIOD`] cadence.
    fn publish_telemetry(
        &mut self,
        now: Time,
        park: Option<(Time, Time)>,
        timers: Option<(Time, Time)>,
        ingress: Option<(Time, Time)>,
        flush: Option<(Time, Time)>,
    ) {
        let Some(tel) = &self.telemetry else { return };
        let micros = |(from, to): (Time, Time)| to.saturating_since(from).as_micros();
        if let Some(span) = park {
            tel.phase_park.observe_micros(micros(span));
        }
        if let Some(span) = timers {
            tel.phase_timers.observe_micros(micros(span));
        }
        if let Some(span) = ingress {
            tel.phase_ingress.observe_micros(micros(span));
        }
        if let Some(span) = flush {
            tel.phase_flush.observe_micros(micros(span));
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

    /// What the next wait asks of the environment: dwell until one
    /// [`WAKE_QUANTUM`] has passed since the last wake, then wait until a
    /// pool socket is readable or the next deadline, one more quantum at
    /// most. `None` while the last drain left flagged sockets unread:
    /// backlog goes straight round.
    fn wait_plan(&self) -> Option<(Duration, Duration)> {
        if self.ready.iter().any(PollFd::flagged) {
            return None;
        }
        let dwell = WAKE_QUANTUM.saturating_sub(self.awake_for());
        let woken = self.env.now() + dwell;
        let timeout = self
            .next_deadline()
            .map_or(WAKE_QUANTUM, |at| at.saturating_since(woken).min(WAKE_QUANTUM));
        Some((dwell, timeout))
    }

    /// Waits as [`Shard::wait_plan`] says; returns at once, flags
    /// untouched, while the last drain left backlog.
    fn park(&mut self) {
        let Some((dwell, timeout)) = self.wait_plan() else { return };
        if self.env.wait(dwell, timeout, &mut self.ready).is_err() {
            // A failed wait (EINTR included) says nothing about the pool:
            // read it blind this once. The dwell still bounds the loop.
            self.ready = vec![PollFd::BLIND; self.env.pool()];
        }
        self.last_wake = self.env.now();
    }

    /// How long the loop has been awake since the last wait returned (zero
    /// while that instant is still ahead).
    fn awake_for(&self) -> Duration {
        self.env.now().saturating_since(self.last_wake)
    }

    /// Receives batches from every flagged pool socket, at most
    /// `recv_batch` datagrams per socket, ending the whole drain early the
    /// moment a wheel deadline comes due — ingress floods must not delay
    /// timers.
    fn drain_sockets(&mut self) -> io::Result<()> {
        // The pool is moved out for the drain so routing can borrow the
        // shard mutably while datagrams stay borrowed from the pool.
        let mut queue = std::mem::take(&mut self.recv_queue);
        let result = self.drain_into(&mut queue);
        self.recv_queue = queue;
        result
    }

    fn drain_into(&mut self, queue: &mut RecvQueue) -> io::Result<()> {
        let first = self.drain_cursor;
        let pool = self.env.pool();
        for k in 0..pool {
            let si = (first + k) % pool;
            let mut received = 0;
            while self.ready[si].flagged() && received < self.recv_batch {
                // One batch: what a single call on a pool at its cap takes.
                let want = (self.recv_batch - received).min(queue.cap());
                let got = self.read_batch(si, want, queue)?;
                if got == 0 {
                    break;
                }
                received += got;
                if self.wheel.peek_time().is_some_and(|at| at <= self.env.now()) {
                    // A deadline is due: timers beat ingress. Resume at
                    // this (possibly still backlogged) socket next time.
                    self.drain_cursor = si;
                    return Ok(());
                }
            }
            // This socket is drained (or used its budget): start the next
            // drain at its successor so the pool is served round-robin.
            self.drain_cursor = (si + 1) % pool;
        }
        Ok(())
    }

    /// Receives one batch of up to `want` datagrams on pool socket `si` and
    /// routes each, in as many receive calls as a pool below its cap needs:
    /// a call that fills every buffer doubles the pool, and the batch goes
    /// on until it has `want` datagrams or a call comes back short of what
    /// it asked for — which proves the socket empty and unflags it. Returns
    /// how many datagrams the batch had.
    fn read_batch(&mut self, si: usize, want: usize, queue: &mut RecvQueue) -> io::Result<usize> {
        let mut got = 0;
        while got < want {
            let ask = (want - got).min(queue.capacity());
            let n = match self.env.recv(si, ask, queue, &mut self.stats) {
                Ok(n) => n,
                Err(e) => match classify(&e) {
                    ErrorClass::Transient => 0,
                    // The socket is dead (e.g. EBADF): re-bind it and move
                    // on — its kernel backlog is lost, which is UDP
                    // semantics anyway.
                    ErrorClass::Fatal => {
                        self.rebind(si)?;
                        0
                    }
                },
            };
            if n > 0 {
                got += n;
                let now = self.env.now();
                for datagram in queue.datagrams() {
                    // Borrowed all the way down: demux slices this pooled
                    // buffer and `decode_frame` lends the protocol a view
                    // of the same bytes.
                    self.on_datagram(datagram, now);
                }
                if n == queue.capacity() {
                    queue.grow();
                }
            }
            if n < ask {
                self.ready[si].clear(); // a short call: nothing left queued
                break;
            }
        }
        Ok(got)
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

    /// Routes one protocol frame to its destination node. A frame whose
    /// sender — or, for a shuffle, any offered peer — is outside the
    /// address book is no frame of this cluster: it is counted as a decode
    /// error, before an unknown id can reach a view, a membership or a
    /// destination lookup.
    fn route_frame(&mut self, dest: NodeId, wire: &[u8], now: Time) {
        let Some(local) = self.local_slot(dest) else {
            return; // stray frame for another shard's (or process's) socket
        };
        let vn = &mut self.nodes[local];
        if vn.is_down() {
            return; // crashed and not-yet-joined nodes drop everything
        }
        vn.port.recv_msgs += 1;
        if shuffle_wire::is_shuffle(wire) {
            // Membership traffic rides the same sockets as the protocol
            // but never reaches the state machine.
            match shuffle_wire::decode_shuffle(wire) {
                Some((from, msg)) if self.routes.knows_all(from, &msg) => {
                    if !self.partition.allows(&self.compiled, from, dest) {
                        return; // the split eats shuffles too
                    }
                    self.on_shuffle(local, from, msg, now);
                }
                _ => vn.port.decode_errors += 1,
            }
            return;
        }
        match decode_frame::<StreamPacket>(wire) {
            Some(frame) if self.routes.knows(frame.sender()) => {
                let frame = frame.with_pool(&self.packets);
                if !self.partition.allows(&self.compiled, frame.sender(), dest) {
                    return; // the split eats cross-cell traffic on arrival
                }
                vn.on_frame(now, &frame);
                self.drain_outputs(local, now);
            }
            _ => vn.port.decode_errors += 1,
        }
    }

    /// One Cyclon shuffle round: age the view, shuffle with the oldest peer
    /// (its reply merges asynchronously on arrival), and refresh the node's
    /// membership from what remains.
    fn shuffle_round(&mut self, local: usize, now: Time) {
        let vn = &mut self.nodes[local];
        let Some(view) = vn.view.as_mut() else { return };
        if let Some((target, request)) = view.on_shuffle_round(&mut self.membership_rng) {
            offer(&mut vn.link, now, target, Envelope::Shuffle(request));
        }
        vn.follow_view();
        self.flush_link(local, now);
    }

    /// Handles one membership shuffle frame addressed to a local node: its
    /// view merges the offer and answers a request. A node without a view
    /// (under a tracker) has no use for a shuffle.
    fn on_shuffle(&mut self, local: usize, from: NodeId, msg: ShuffleMessage, now: Time) {
        let vn = &mut self.nodes[local];
        let Some(view) = vn.view.as_mut() else { return };
        if let Some(reply) = view.on_message(from, msg, &mut self.membership_rng) {
            offer(&mut vn.link, now, from, Envelope::Shuffle(reply));
            self.flush_link(local, now);
        }
    }

    /// Fires one wheel deadline.
    fn dispatch(&mut self, fire: Fire, at: Time, now: Time) {
        match fire {
            Fire::Round(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if !vn.is_current(ep) {
                    return; // this incarnation's round chain ends here
                }
                if vn.view.is_some() {
                    // One membership shuffle per gossip round, and this
                    // round's partner selection draws from the shuffled view.
                    self.shuffle_round(local, now);
                }
                self.nodes[local].node.on_round(now);
                self.drain_outputs(local, now);
                // Re-arm from the scheduled time, not `now`: rounds must
                // not drift under load.
                self.wheel.push(at + self.cluster.gossip.gossip_period, Fire::Round(l, ep));
            }
            Fire::Timer(l, token, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.is_current(ep) {
                    vn.node.on_timer(now, token);
                    self.drain_outputs(local, now);
                }
            }
            Fire::Source(l) => {
                let local = l as usize;
                if let Some(next) = self.nodes[local].emit(now) {
                    self.wheel.push(next, Fire::Source(l));
                }
                self.drain_outputs(local, now);
            }
            Fire::Release(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.epoch() != ep {
                    return; // the crash already emptied the link
                }
                vn.port.armed = None;
                if !vn.is_down() {
                    self.flush_link(local, now);
                }
            }
            Fire::Fault(k) => {
                let action = self.compiled.timeline.events()[k as usize].action;
                hosted::apply(self, now, action);
            }
        }
    }

    /// The local slot of node `v` when this shard hosts it.
    fn local_slot(&self, v: NodeId) -> Option<usize> {
        let g = v.as_u32();
        (self.placement.contains(g) && self.placement.shard_of(g) == self.index)
            .then(|| self.placement.local_of(g))
            .filter(|&local| local < self.nodes.len())
    }

    /// Hands the outputs of one node to the shard — its link, the packet
    /// table, the wheel — then moves what the link released to the outbox.
    fn drain_outputs(&mut self, local: usize, now: Time) {
        let mut outputs =
            Outputs { wheel: &mut self.wheel, packets: &mut self.packets, local: local as u32 };
        self.nodes[local].route(now, &mut outputs);
        self.flush_link(local, now);
    }

    /// Moves everything the node's link has released — each message as it
    /// starts, the loopback wire being the kernel's — into the shard
    /// outbox: encodes it, draws its fate from the node's chaos stream
    /// when a plan is active, and arms one wheel deadline for the earliest
    /// message still held back.
    fn flush_link(&mut self, local: usize, now: Time) {
        let id = self.nodes[local].id();
        while let Some((to, envelope)) = self.nodes[local].link.pop_due(now) {
            let bytes = envelope.encode(id);
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
        if vn.port.armed != Some(vn.epoch()) {
            if let Some(at) = vn.link.next_release() {
                self.wheel.push(at, Fire::Release(local as u32, vn.epoch()));
                vn.port.armed = Some(vn.epoch());
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
    /// the environment, retained datagrams from earlier transient failures
    /// going out first. Within a group the outbox order is kept.
    ///
    /// UDP semantics throughout: a full kernel buffer drops the datagram,
    /// like any congested link; the protocol's FEC + retransmission absorb
    /// it.
    fn flush_outbox(&mut self) -> io::Result<()> {
        self.outbox_bytes = 0;
        let now = self.env.now();
        let pool = self.env.pool();
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

    /// Drains one socket's packed queue through the environment (behind
    /// the chaos interposer), honouring its backoff clock and handling the
    /// drain verdict: exponential backoff with deterministic jitter on
    /// transient failures, an in-place re-bind on fatal errors. Retained datagrams go out ahead of
    /// this flush's batch, oldest first.
    fn flush_socket(&mut self, si: usize, queue: &mut SendQueue, now: Time) -> io::Result<()> {
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
        let chaos = self.chaos.as_mut().map(|c| (&c.plan, &mut c.sockets[si]));
        let verdict = ChaosSender::new(&mut self.env, chaos, now).drain(
            si,
            queue,
            &mut self.recovery[si].pending,
            &mut self.stats,
        );
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
            SendVerdict::Rebind => {
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
                self.rebind(si)?;
            }
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

    /// Pool socket `si` is dead: the environment re-binds it in place.
    fn rebind(&mut self, si: usize) -> io::Result<()> {
        self.env.rebind(si)?;
        self.stats.socket_rebinds += 1;
        Ok(())
    }
}

/// Offers `envelope`, bound for `to`, to an upload link, charged at its
/// encoded size: pacing does not depend on how the outbox packs frames.
fn offer(link: &mut UploadLink<(NodeId, Envelope)>, now: Time, to: NodeId, envelope: Envelope) {
    link.offer(now, envelope.wire_size(), (to, envelope));
}

/// The shard's side of a node's outputs: sends are queued on its link,
/// intact deliveries fill the packet table, timers go on the wheel.
struct Outputs<'s> {
    wheel: &'s mut EventQueue<Fire>,
    packets: &'s mut PacketPool<StreamPacket>,
    local: u32,
}

impl Host for Outputs<'_> {
    fn send(
        &mut self,
        now: Time,
        _: NodeId,
        _: u32,
        link: &mut UploadLink<(NodeId, Envelope)>,
        to: NodeId,
        msg: Message<StreamPacket>,
    ) {
        offer(link, now, to, Envelope::Gossip(msg));
    }

    fn delivered(&mut self, now: Time, _: NodeId, packet: StreamPacket) {
        // The only way into the table: verified, just now.
        self.packets.insert(packet, now);
    }

    fn arm(&mut self, at: Time, _: NodeId, epoch: u32, token: TimerToken) -> EventHandle {
        self.wheel.push(at, Fire::Timer(self.local, token, epoch))
    }

    fn cancel(&mut self, handle: EventHandle) {
        self.wheel.cancel(handle);
    }
}

/// Every shard walks the whole fault timeline: a join grows every shard's
/// census, and the other faults act on the nodes this shard hosts.
impl<E: ShardEnv> FaultHost for Shard<E> {
    type Port = Port;

    fn compiled(&self) -> &CompiledAdversity {
        &self.compiled
    }

    fn partition(&mut self) -> &mut PartitionState {
        &mut self.partition
    }

    fn hosted(&mut self, v: NodeId) -> Option<&mut ShardNode> {
        let local = self.local_slot(v)?;
        Some(&mut self.nodes[local])
    }

    fn cancel(&mut self, handle: EventHandle) {
        self.wheel.cancel(handle);
    }

    fn census(&mut self) -> &mut Arc<[NodeId]> {
        &mut self.members
    }

    /// Under Cyclon every node keeps a view of the default size, drawn
    /// from the shard's membership stream.
    fn sampling(&mut self) -> Option<(CyclonConfig, usize, &mut DetRng)> {
        match self.cluster.joiner_bootstrap {
            JoinerBootstrap::Tracker => None,
            JoinerBootstrap::Cyclon { degree } => {
                Some((CyclonConfig::default_small(), degree, &mut self.membership_rng))
            }
        }
    }

    /// Starts a node's round chain, staggered within one gossip period by
    /// id like the initial deployment.
    fn start(&mut self, now: Time, v: NodeId) {
        let Some(local) = self.local_slot(v) else { return };
        let period = self.cluster.gossip.gossip_period;
        let phase = Duration::from_micros(
            u64::from(v.as_u32()) * period.as_micros() / self.compiled.total_n as u64,
        );
        self.wheel.push(now + phase, Fire::Round(local as u32, self.nodes[local].epoch()));
    }
}

#[cfg(test)]
/// The shard loop on virtual time: a single-threaded driver that steps
/// every shard of a cluster on one in-memory [`Net`] and its clock.
///
/// It builds the shards with [`Shard::new`] on [`VirtualEnv`]s and the
/// report with [`assemble_report`], as a live host does. Each step runs the
/// shard whose wait returns first, at the instant it returns: the dwell of
/// the shard's own [`Shard::wait_plan`], then — on the batched path — the
/// first arrival on its sockets or the plan's timeout, whichever comes
/// first, while the portable path returns when the dwell ends. The clock
/// jumps from one such instant to the next, so idle stretches cost nothing
/// and no test sleeps.
///
/// [`Net`]: crate::mmsg::testnet::Net
pub(crate) mod stepped {
    use std::rc::Rc;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use gossip_types::Time;
    use gossip_udp::cluster::{assemble_report, ClusterConfig, ClusterReport};

    use super::{Shard, ShardConfig};
    use crate::demux::Placement;
    use crate::mmsg::testnet::{Net, SharedNet, VirtualEnv};
    use crate::runtime::{RECV_BATCH, SOCKET_BUFFER_BYTES};
    use crate::ReactorOptions;

    /// A cluster whose shards run on virtual time.
    pub(crate) struct VirtualCluster {
        pub config: ClusterConfig,
        pub net: SharedNet,
        pub shards: Vec<Shard<VirtualEnv>>,
        /// Per shard: when its pending wait's dwell ends, and when the wait
        /// times out.
        waits: Vec<(Time, Time)>,
        /// Every backoff a send entered: when, and on which shard.
        pub backoffs: Vec<(Time, usize)>,
    }

    impl VirtualCluster {
        /// The whole id space of `config` on the shards and pools `options`
        /// ask for, every shard on the batched path or the portable one,
        /// with the live runtime's receive budget.
        pub fn new(config: ClusterConfig, options: &ReactorOptions, batched: bool) -> Self {
            Self::with_recv_batch(config, options, batched, RECV_BATCH)
        }

        /// [`VirtualCluster::new`] with a receive budget of `recv_batch`
        /// datagrams per socket per iteration.
        pub fn with_recv_batch(
            config: ClusterConfig,
            options: &ReactorOptions,
            batched: bool,
            recv_batch: usize,
        ) -> Self {
            let compiled = Arc::new(config.compiled_adversity());
            let total = compiled.total_n;
            let (shards, pool) = (options.resolve_shards(total), options.sockets_per_shard);
            let placement = Placement::whole(total, shards);
            let net = Net::shared(shards * pool, SOCKET_BUFFER_BYTES);
            let addresses = (0..total as u32).map(|g| Net::addr(placement.shard_of(g) * pool));
            let addresses = Arc::new(addresses.collect());
            let shards: Vec<_> = (0..shards)
                .map(|index| {
                    let shard_config = ShardConfig {
                        index,
                        placement,
                        recv_batch,
                        cluster: config.clone(),
                        compiled: Arc::clone(&compiled),
                        addresses: Arc::clone(&addresses),
                        stop: Arc::new(AtomicBool::new(false)),
                        telemetry: None,
                    };
                    let env = VirtualEnv::new(Rc::clone(&net), index * pool, pool, batched);
                    Shard::new(shard_config, env)
                })
                .collect();
            let waits = vec![(Time::ZERO, Time::ZERO); shards.len()];
            VirtualCluster { config, net, shards, waits, backoffs: Vec::new() }
        }

        /// Runs `config` to its end and reports — `ReactorCluster::run_with`
        /// on virtual time.
        pub fn run(
            config: ClusterConfig,
            options: &ReactorOptions,
            batched: bool,
        ) -> ClusterReport {
            let mut cluster = Self::new(config, options, batched);
            cluster.run_until(cluster.end());
            cluster.finish()
        }

        /// When a live run of the config stops: the stream and its drain.
        pub fn end(&self) -> Time {
            Time::ZERO + self.config.stream_duration + self.config.drain_duration
        }

        pub fn now(&self) -> Time {
            self.net.borrow().now()
        }

        /// When shard `k`'s pending wait returns.
        fn wakes_at(&self, k: usize) -> Time {
            let (woken, by) = self.waits[k];
            let env = &self.shards[k].env;
            if !env.batched() {
                return woken;
            }
            self.net.borrow().first_arrival(env.sockets()).map_or(by, |at| at.clamp(woken, by))
        }

        /// Steps every shard's loop until the clock reaches `end`.
        pub fn run_until(&mut self, end: Time) {
            while let Some((at, k)) = (0..self.shards.len()).map(|k| (self.wakes_at(k), k)).min() {
                if at > end {
                    break;
                }
                self.net.borrow_mut().set_now(at);
                let shard = &mut self.shards[k];
                let backoffs = shard.stats.send_backoffs;
                shard.turn().expect("in-memory sockets re-bind without fail");
                self.backoffs.extend((backoffs..shard.stats.send_backoffs).map(|_| (at, k)));
                self.waits[k] = match shard.wait_plan() {
                    Some((dwell, timeout)) => (at + dwell, at + dwell + timeout),
                    None => (at, at),
                };
            }
            self.net.borrow_mut().set_now(end);
        }

        /// Ends the run as a live host does: every shard's final flush, then
        /// one report.
        pub fn finish(self) -> ClusterReport {
            let (mut nodes, mut shard_stats) = (Vec::new(), Vec::new());
            for shard in self.shards {
                let (reports, stats, failure) = shard.finish(None);
                assert!(failure.is_none(), "in-memory I/O failed: {failure:?}");
                nodes.extend(reports);
                shard_stats.push(stats);
            }
            let mut report = assemble_report(&self.config, nodes);
            report.shard_stats = shard_stats;
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, UdpSocket};
    use std::rc::Rc;
    use std::thread;
    use std::time::Instant;

    use gossip_core::wire::{encode_message, EventPool};
    use gossip_core::{Event, GossipConfig};
    use gossip_stream::PacketId;
    use gossip_udp::clock::ClusterClock;
    use gossip_udp::cluster::assemble_report;

    use super::stepped::VirtualCluster;
    use super::*;
    use crate::mmsg::testnet::{Net, SharedNet, VirtualEnv, WIRE_DELAY};
    use crate::mmsg::UdpEnv;
    use crate::ReactorOptions;

    /// A one-shard cluster of `n` smoke-test nodes that `tweak` has
    /// adjusted, over a pool of `pool` in-memory sockets (every node
    /// receives on socket 0), receive budget 8, on the batched path or the
    /// portable one.
    fn one_shard_of(
        batched: bool,
        pool: usize,
        n: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> VirtualCluster {
        shards_of(batched, 1, pool, n, tweak)
    }

    /// [`one_shard_of`] on `shards` shards: node `g` on shard
    /// `g % shards`, receiving at that shard's first socket, socket
    /// `shard × pool` of the net.
    fn shards_of(
        batched: bool,
        shards: usize,
        pool: usize,
        n: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> VirtualCluster {
        let mut cluster = ClusterConfig::smoke_test();
        cluster.n = n;
        tweak(&mut cluster);
        let options = ReactorOptions {
            shards: Some(shards),
            sockets_per_shard: pool,
            ..ReactorOptions::default()
        };
        VirtualCluster::with_recv_batch(cluster, &options, batched, 8)
    }

    /// [`shards_of`] for `n` nodes and no stream.
    fn idle_shards(batched: bool, shards: usize, pool: usize, n: usize) -> VirtualCluster {
        shards_of(batched, shards, pool, n, |cluster| cluster.stream_duration = Duration::ZERO)
    }

    /// [`one_shard_of`] for 4 nodes, with or without a live stream.
    fn one_shard(batched: bool, pool: usize, streaming: bool) -> VirtualCluster {
        one_shard_of(batched, pool, 4, |cluster| {
            // Outlives the test window, or never starts at all.
            cluster.stream_duration = Duration::from_secs(if streaming { 30 } else { 0 });
        })
    }

    /// The config of a one-shard cluster of `n` smoke-test nodes that
    /// `tweak` has adjusted, receive budget `recv_batch`, whose nodes all
    /// receive at `addr`, its pool's first socket.
    fn one_shard_config(
        n: usize,
        recv_batch: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
        addr: SocketAddr,
    ) -> ShardConfig {
        let mut cluster = ClusterConfig::smoke_test();
        cluster.n = n;
        tweak(&mut cluster);
        let compiled = Arc::new(cluster.compiled_adversity());
        let addresses = Arc::new(vec![addr; compiled.total_n]);
        ShardConfig {
            index: 0,
            placement: demux::Placement::whole(n, 1),
            recv_batch,
            cluster,
            compiled,
            addresses,
            stop: Arc::new(AtomicBool::new(false)),
            telemetry: None,
        }
    }

    /// [`one_shard_config`] on real loopback sockets, on the probed path or
    /// pinned to the portable one: the config, its environment and the
    /// pool's addresses.
    fn live_parts(
        batched: bool,
        pool: usize,
        n: usize,
        recv_batch: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> (ShardConfig, UdpEnv, Vec<SocketAddr>) {
        let sockets: Vec<UdpSocket> =
            (0..pool).map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind")).collect();
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr().expect("addr")).collect();
        let config = one_shard_config(n, recv_batch, tweak, addrs[0]);
        let build = if batched { UdpEnv::new } else { UdpEnv::portable };
        let env = build(ClusterClock::start(), sockets, 1 << 20).expect("env");
        (config, env, addrs)
    }

    /// [`one_shard_of`]'s cluster on real loopback sockets, on the probed
    /// path or pinned to the portable one. Returns the shard and the pool's
    /// addresses.
    fn live_shard_of(
        batched: bool,
        pool: usize,
        n: usize,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> (Shard<UdpEnv>, Vec<SocketAddr>) {
        let (config, env, addrs) = live_parts(batched, pool, n, 8, tweak);
        (Shard::new(config, env), addrs)
    }

    /// An environment that keeps a copy of every datagram its receive
    /// calls hand the shard, in the order they hand them over.
    struct Tap<E> {
        env: E,
        seen: Vec<Vec<u8>>,
    }

    impl<E: ShardEnv> ShardEnv for Tap<E> {
        fn now(&self) -> Time {
            self.env.now()
        }

        fn pool(&self) -> usize {
            self.env.pool()
        }

        fn wait(
            &mut self,
            dwell: Duration,
            timeout: Duration,
            ready: &mut Vec<PollFd>,
        ) -> io::Result<()> {
            self.env.wait(dwell, timeout, ready)
        }

        fn recv(
            &mut self,
            si: usize,
            want: usize,
            queue: &mut RecvQueue,
            stats: &mut ShardStats,
        ) -> io::Result<usize> {
            let n = self.env.recv(si, want, queue, stats)?;
            self.seen.extend(queue.datagrams().map(<[u8]>::to_vec));
            Ok(n)
        }

        fn send_from(&mut self, si: usize, queue: &SendQueue, first: usize) -> io::Result<usize> {
            self.env.send_from(si, queue, first)
        }

        fn rebind(&mut self, si: usize) -> io::Result<()> {
            self.env.rebind(si)
        }
    }

    /// A shard of 4 idle nodes with receive budget `recv_batch` on one
    /// in-memory socket, its receive calls tapped and its wheel emptied:
    /// a drain does nothing but ingress. Returns it and its net.
    fn tapped_shard(batched: bool, recv_batch: usize) -> (Shard<Tap<VirtualEnv>>, SharedNet) {
        let net = Net::shared(1, 1 << 20);
        let idle = |cluster: &mut ClusterConfig| cluster.stream_duration = Duration::ZERO;
        let config = one_shard_config(4, recv_batch, idle, Net::addr(0));
        let env = Tap { env: VirtualEnv::new(Rc::clone(&net), 0, 1, batched), seen: Vec::new() };
        let mut shard = Shard::new(config, env);
        while shard.wheel.pop_before(Time::MAX).is_some() {}
        (shard, net)
    }

    /// `count` distinct kernel datagrams — one frame each, for a node no
    /// shard hosts — of sizes from 8 to 1 KiB.
    fn distinct_datagrams(count: usize) -> Vec<Vec<u8>> {
        (0..count as u32)
            .map(|k| {
                let mut datagram = Vec::new();
                let wire = k.to_le_bytes().repeat(2 + (k as usize * 37) % 255);
                assert!(demux::append_frame(&mut datagram, NodeId::new(1000), &wire));
                datagram
            })
            .collect()
    }

    /// Queues `count` distinct datagrams on the tapped shard's socket, all
    /// readable at one instant, and flags it. Returns them in arrival order.
    fn burst(shard: &mut Shard<Tap<VirtualEnv>>, net: &SharedNet, count: usize) -> Vec<Vec<u8>> {
        let datagrams = distinct_datagrams(count);
        let mut net = net.borrow_mut();
        for datagram in &datagrams {
            net.send(stranger(), Net::addr(0), datagram);
        }
        let readable = net.now() + WIRE_DELAY;
        net.set_now(readable);
        shard.ready[0] = PollFd::BLIND;
        datagrams
    }

    /// A burst larger than the pool, queued at one instant, is drained in
    /// one turn and handed over in arrival order, on both I/O paths: the
    /// pool grows under it (4 → 8 → 16 → 32 slots), every call but the
    /// last fills it, and the last comes back short and unflags the socket.
    #[test]
    fn a_burst_larger_than_the_pool_drains_in_arrival_order_in_one_turn() {
        for batched in [true, false] {
            let (mut shard, net) = tapped_shard(batched, 64);
            assert_eq!(shard.recv_queue.capacity(), 4, "batched={batched}");
            let sent = burst(&mut shard, &net, 40);
            shard.turn().expect("turn");
            assert_eq!(shard.stats.iterations, 1);
            assert!(shard.env.seen == sent, "batched={batched}: not the burst, in order");
            assert!(!shard.ready[0].flagged(), "batched={batched}: the short call unflags");
            assert_eq!(shard.recv_queue.capacity(), 32, "batched={batched}");
            let stats = shard.stats;
            let calls = if batched { (4, 4 + 8 + 16 + 32) } else { (40, 40) };
            assert_eq!((stats.kernel_received, stats.datagrams_received), (40, 40));
            assert_eq!((stats.recv_syscalls, stats.recv_capacity), calls, "batched={batched}");
        }
    }

    /// The per-socket budget stays exactly `recv_batch` while the pool
    /// grows under it — for a budget its doublings miss (24) and for one
    /// past what one call may take (100; a call takes at most
    /// `MAX_VLEN`) — and a burst of three budgets leaves the socket flagged
    /// after each of three drains: only a call that comes back short of
    /// what it asked for proves the socket empty, which the fourth does.
    #[test]
    fn the_receive_budget_stays_exact_while_the_pool_grows() {
        for batched in [true, false] {
            for recv_batch in [24, 100] {
                let (mut shard, net) = tapped_shard(batched, recv_batch);
                let sent = burst(&mut shard, &net, 3 * recv_batch);
                for drain in 1..=3 {
                    shard.drain_sockets().expect("drain");
                    let seen = shard.env.seen.len();
                    let at = format!("batched={batched}, recv_batch={recv_batch}, drain {drain}");
                    assert_eq!(seen, drain * recv_batch, "{at}: the budget");
                    assert!(shard.ready[0].flagged(), "{at}: a full budget proves nothing");
                }
                shard.drain_sockets().expect("drain");
                assert!(!shard.ready[0].flagged(), "batched={batched}: the socket is empty");
                assert!(shard.env.seen == sent, "batched={batched}: not the burst, in order");
            }
        }
    }

    /// The pool doubles only after a call that filled every slot, and
    /// stops at its cap, `min(recv_batch, MAX_VLEN)` — one `recv_batch`
    /// that no doubling of the starting 4 reaches (24), one past the
    /// vector limit (100) — however large the bursts that follow.
    #[test]
    fn the_pool_doubles_only_after_a_full_call_and_stops_at_its_cap() {
        use crate::mmsg::MAX_VLEN;

        for batched in [true, false] {
            for (recv_batch, cap) in [(24, 24), (100, MAX_VLEN)] {
                let (mut shard, net) = tapped_shard(batched, recv_batch);
                let mut slots_after = |count: usize| {
                    burst(&mut shard, &net, count);
                    while shard.ready[0].flagged() {
                        shard.drain_sockets().expect("drain");
                    }
                    shard.recv_queue.capacity()
                };
                let at = format!("batched={batched}, recv_batch={recv_batch}");
                assert_eq!(slots_after(3), 4, "{at}: three fit the starting pool");
                assert_eq!(slots_after(4), 8, "{at}: a call that fills the pool doubles it");
                assert_eq!(slots_after(7), 8, "{at}: seven do not fill eight");
                assert_eq!(slots_after(8), 16, "{at}");
                for _ in 0..3 {
                    assert_eq!(slots_after(3 * recv_batch), cap, "{at}: past the cap");
                }
            }
        }
    }

    /// A shard whose sockets never hold more datagrams at once than its
    /// pool starts with keeps the starting pool: every call offered 4
    /// slots, and none filled them.
    #[test]
    fn a_shard_that_never_sees_a_burst_keeps_its_starting_pool() {
        for batched in [true, false] {
            let mut cluster = one_shard(batched, 2, false);
            let trickle = distinct_datagrams(1);
            for step in 1..=100 {
                cluster.net.borrow_mut().send(stranger(), Net::addr(step % 2), &trickle[0]);
                cluster.run_until(at_ms(3 * step as u64));
            }
            let stats = cluster.shards[0].stats;
            assert!(stats.kernel_received >= 100, "batched={batched}");
            if batched {
                assert_eq!(stats.recv_capacity, 4 * stats.recv_syscalls);
            }
            assert_eq!(cluster.shards[0].recv_queue.capacity(), 4, "batched={batched}");
        }
    }

    /// The batched path and the portable fallback are one receive path to
    /// the shard: the same loopback burst, drained through either, hands
    /// the shard the same datagrams in the same order and leaves its pool
    /// the same size. Real sockets: this is the kernel's part.
    #[test]
    fn both_io_backends_hand_the_shard_one_burst_alike() {
        let sent = distinct_datagrams(40);
        let legs = [true, false].map(|batched| {
            let idle = |cluster: &mut ClusterConfig| cluster.stream_duration = Duration::ZERO;
            let (config, env, addrs) = live_parts(batched, 1, 4, 64, idle);
            let mut shard = Shard::new(config, Tap { env, seen: Vec::new() });
            shard.drain_sockets().expect("drain"); // settle: one blind pass
            let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
            for datagram in &sent {
                tx.send_to(datagram, addrs[0]).expect("send");
            }
            // Loopback delivers the whole burst well within the pause; a
            // straggler is read all the same, it only grows the pool less.
            thread::sleep(std::time::Duration::from_millis(20));
            for _ in 0..1000 {
                shard.ready[0] = PollFd::BLIND;
                shard.drain_sockets().expect("drain");
                if shard.env.seen.len() >= sent.len() {
                    break;
                }
                thread::sleep(std::time::Duration::from_millis(1));
            }
            (shard.env.seen, shard.recv_queue.capacity())
        });
        let [(mmsg, mmsg_slots), (portable, portable_slots)] = legs;
        assert!(mmsg == sent, "the batched path reordered, lost or altered the burst");
        assert!(portable == sent, "the portable path reordered, lost or altered the burst");
        assert_eq!(mmsg_slots, portable_slots, "the pools grew apart");
    }

    /// Runs a live `shard` on its own thread for `window`, then stops it.
    /// Returns its outcome and how long the loop actually ran.
    fn run_for(
        mut shard: Shard<UdpEnv>,
        window: std::time::Duration,
        prepare: impl FnOnce(&mut Shard<UdpEnv>),
    ) -> (Vec<NodeReport>, ShardStats, std::time::Duration) {
        prepare(&mut shard);
        let stop = Arc::clone(&shard.stop);
        let handle = thread::spawn(move || {
            let started = Instant::now();
            let outcome = shard.run();
            (outcome, started.elapsed())
        });
        thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let ((reports, stats, failure), wall) = handle.join().expect("shard thread");
        assert!(failure.is_none(), "shard io failed: {failure:?}");
        (reports, stats, wall)
    }

    /// Most iterations a loop that honours the dwell can run in `wall`
    /// seconds: one per wake quantum, plus the undwelt re-loops — each of
    /// which follows an iteration that made a data-bearing receive call
    /// (budget used up, or a due deadline cut the drain after a batch).
    fn iteration_bound(wall: f64, stats: &ShardStats) -> u64 {
        (1.5 * wall / WAKE_QUANTUM.as_secs_f64()) as u64 + stats.recv_syscalls
    }

    /// The run's shard after `config` has run for `ms` of virtual time.
    fn at_ms(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// A sender outside the pool.
    fn stranger() -> SocketAddr {
        (Ipv4Addr::LOCALHOST, 9).into()
    }

    /// Boots one shard hosting a 4-node cluster, floods its only socket
    /// with malformed traffic for a few hundred milliseconds, then stops
    /// it and returns what it reported and how long it ran.
    fn shard_under_flood(batched: bool) -> (Vec<NodeReport>, ShardStats, Duration) {
        let mut cluster = one_shard(batched, 1, true);
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
        for wave in 0..10 {
            for _ in 0..500 {
                for datagram in [&runt[..], &overrun[..], &junk[..]] {
                    cluster.net.borrow_mut().send(stranger(), Net::addr(0), datagram);
                }
            }
            cluster.run_until(at_ms(30 * (wave + 1)));
        }
        cluster.run_until(at_ms(320));
        let report = cluster.finish();
        (report.nodes, report.shard_stats[0], Duration::from_millis(320))
    }

    /// Regression test for the recv head-of-line stall: a sustained
    /// malformed-datagram flood must be salvaged deterministically and
    /// counted — never panic — while the budgeted drain keeps the timer
    /// wheel firing (rounds and source emissions continue throughout),
    /// on the batched and on the portable path. Nor may load make the
    /// loop spin: it wakes at most once per [`WAKE_QUANTUM`] plus its
    /// backlog re-loops (the spin/park cadence this replaced ran far past
    /// that bound).
    #[test]
    fn garbage_flood_is_counted_and_never_stalls_the_loop() {
        for batched in [true, false] {
            let (reports, stats, wall) = shard_under_flood(batched);
            assert!(stats.frame_errors > 0, "malformed kernel datagrams must be counted");
            let decode_errors: u64 = reports.iter().map(|r| r.decode_errors).sum();
            assert!(decode_errors > 0, "well-framed junk must land on the node's decode_errors");
            // Timer-driven work kept happening under the flood: the source
            // emits every ~20 ms and every node keeps its 100 ms round
            // chain, all of which produce sends — impossible if ingress
            // starved the wheel.
            assert!(stats.iterations > 50, "only {} iterations under flood", stats.iterations);
            let bound = iteration_bound(wall.as_secs_f64(), &stats);
            assert!(
                stats.iterations <= bound,
                "batched={batched}: {} iterations in {wall}, bound {bound}",
                stats.iterations
            );
            assert!(stats.datagrams_sent > 0, "rounds and source emissions must keep firing");
            // And on time: every node ran the rounds its period allows.
            let due = wall.as_micros() / 100_000;
            for report in &reports {
                let rounds = report.protocol.rounds;
                assert!(
                    rounds.abs_diff(due) <= 1,
                    "batched={batched}: node ran {rounds} rounds in {wall}, {due} were due"
                );
            }
        }
    }

    /// A node id no address book of a small cluster holds.
    const FORGED: NodeId = NodeId::new(100_000);

    /// Sends one kernel datagram from outside the pool carrying `wires`,
    /// each a frame for node 1 of `cluster`, then runs it for 400 ms.
    fn forge_to_node_1(cluster: &mut VirtualCluster, wires: &[Vec<u8>]) {
        let mut datagram = Vec::new();
        for wire in wires {
            assert!(demux::append_frame(&mut datagram, NodeId::new(1), wire));
        }
        cluster.net.borrow_mut().send(stranger(), Net::addr(0), &datagram);
        cluster.run_until(at_ms(400));
    }

    /// A sender id is the frame's own claim. A Propose from an id past the
    /// address book is dropped and counted: answered, its Request would
    /// look the destination up past the end of the book and abort the
    /// process.
    #[test]
    fn a_frame_from_a_forged_sender_is_dropped_and_counted() {
        let mut cluster = one_shard(true, 1, false);
        let ids: Arc<[PacketId]> = vec![PacketId::new(0, 0)].into();
        let propose: Message<StreamPacket> = Message::Propose { ids };
        forge_to_node_1(&mut cluster, &[encode_message(FORGED, &propose)]);
        let node = &cluster.shards[0].nodes[1];
        assert_eq!(node.port.decode_errors, 1);
    }

    /// Under Cyclon every node keeps a view, and a shuffle that names an id
    /// past the address book — as its sender or among its offered peers —
    /// is dropped and counted before it can reach one.
    #[test]
    fn a_shuffle_naming_a_forged_id_is_dropped_and_counted() {
        let mut cluster = one_shard_of(true, 1, 4, |cluster| {
            cluster.stream_duration = Duration::ZERO;
            cluster.joiner_bootstrap = JoinerBootstrap::Cyclon { degree: 2 };
        });
        assert!(cluster.shards[0].nodes.iter().all(|vn| vn.view.is_some()), "a view each");
        let forged = [(FORGED, vec![(NodeId::new(2), 0)]), (NodeId::new(2), vec![(FORGED, 0)])];
        let wires: Vec<Vec<u8>> = forged
            .into_iter()
            .map(|(from, offered)| {
                shuffle_wire::encode_shuffle(from, &ShuffleMessage::Request(offered))
            })
            .collect();
        forge_to_node_1(&mut cluster, &wires);
        let node = &cluster.shards[0].nodes[1];
        assert_eq!(node.port.decode_errors, 2);
        let view = node.view.as_ref().expect("the node keeps its view");
        assert!(!view.view().contains(&FORGED));
        assert!(!node.node.membership().contains(&FORGED));
    }

    /// An idle shard sleeps through every iteration: the dwell and then a
    /// full wait where the batched path watches the pool, the dwell alone
    /// where the portable path has to look for itself.
    #[test]
    fn an_idle_shard_does_not_spin() {
        for batched in [true, false] {
            let sleeps = if batched { 2 } else { 1 };
            let mut cluster = one_shard(batched, 4, false);
            let wall = Duration::from_millis(300);
            cluster.run_until(Time::ZERO + wall);
            let iterations = cluster.shards[0].stats.iterations;
            let bound = (1.5 * wall.as_secs_f64() / (WAKE_QUANTUM * sleeps).as_secs_f64()) as u64;
            assert!(
                iterations <= bound,
                "batched={batched}: {iterations} idle iterations in {wall}, bound {bound}"
            );
        }
    }

    /// Regression test for the socket-0-only park: the wait watches the
    /// whole pool, so a frame that lands on the *last* socket — a peer may
    /// address any of them — wakes the shard with exactly that socket
    /// flagged, and the drain that follows routes it to its node on the
    /// prefix. Real sockets: this is `ppoll`'s part.
    #[test]
    fn a_frame_on_any_pool_socket_ends_the_wait() {
        let (mut shard, addrs) = live_shard_of(true, 4, 4, |c| c.stream_duration = Duration::ZERO);
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
        if shard.env.batched() {
            assert_eq!(flagged, [false, false, false, true]);
        } else {
            assert_eq!(flagged, [true; 4], "the portable wait reads blind");
        }
        shard.drain_sockets().expect("drain");
        assert_eq!(shard.nodes[3].port.recv_msgs, 1, "the frame on socket 3 reached its node");
        assert_eq!(shard.nodes[3].port.decode_errors, 0);
        assert!(!shard.ready.iter().any(PollFd::flagged), "a drained pool is unflagged");
    }

    /// Everything on the wire to every socket of the net, read the way a
    /// peer would: per kernel datagram, the net socket it went to, the
    /// address it was sent from, and its frames.
    type Arrival = (usize, SocketAddr, Vec<(NodeId, Vec<u8>)>);

    fn read_net(cluster: &VirtualCluster) -> Vec<Arrival> {
        let mut net = cluster.net.borrow_mut();
        let mut arrivals = Vec::new();
        for si in cluster.shards.iter().flat_map(|shard| shard.env.sockets()) {
            for arrival in net.take(si) {
                let frames = demux::frames(&arrival.bytes).map(|(d, w)| (d, w.to_vec())).collect();
                arrivals.push((si, arrival.from, frames));
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
        for batched in [true, false] {
            // Three shards, pools of 2: nodes 1 and 4 receive on shard 1's
            // address A (net socket 2), 2 and 5 on shard 2's B (socket 4).
            let mut cluster = idle_shards(batched, 3, 2, 6);
            let shard = &mut cluster.shards[0];
            let offers: Vec<(NodeId, Vec<u8>)> = (0..12u8)
                .map(|k| (NodeId::new([1, 2, 4, 5][usize::from(k) % 4]), vec![k; 20]))
                .collect();
            for (to, bytes) in &offers {
                shard.enqueue(*to, bytes.clone()); // A, B, A, B, …
            }
            shard.flush_outbox().expect("flush");
            assert_eq!(shard.stats.datagrams_sent, 12, "batched={batched}");
            assert_eq!(shard.stats.kernel_sent, 2, "batched={batched}: one datagram per address");
            assert!(shard.outbox.is_empty() && shard.outbox_bytes == 0);

            let arrivals = read_net(&cluster);
            assert_eq!(arrivals.len(), 2);
            for (si, _, frames) in arrivals {
                let want: Vec<(NodeId, Vec<u8>)> =
                    offers.iter().filter(|(to, _)| 2 * (to.index() % 3) == si).cloned().collect();
                assert_eq!(frames, want, "batched={batched}: socket {si}");
            }
        }
    }

    /// A destination's group splits at [`MAX_COALESCED`] into as few kernel
    /// datagrams as hold it, dropping nothing and keeping the order.
    #[test]
    fn an_oversized_group_splits_and_drops_nothing() {
        // Three shards, pools of 4: node 1 receives on net socket 4, node 2
        // on socket 8.
        let mut cluster = idle_shards(true, 3, 4, 6);
        let shard = &mut cluster.shards[0];
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

        let arrivals = read_net(&cluster);
        let to_one: Vec<&Arrival> = arrivals.iter().filter(|(si, ..)| *si == 4).collect();
        assert_eq!(to_one.iter().map(|(_, _, f)| f.len()).collect::<Vec<_>>(), [16, 16, 8]);
        let payloads = to_one.iter().flat_map(|(_, _, frames)| frames).map(|(_, wire)| wire[0]);
        assert!(payloads.eq(0..40u8), "every frame arrived, in release order");
    }

    /// A destination group is its address's rank among the book's distinct
    /// addresses, whatever order the book lists them in.
    #[test]
    fn a_group_is_its_address_rank_in_the_book() {
        let routes = Routes::new(&[3, 1, 3, 2, 1, 9].map(Net::addr));
        assert_eq!(routes.addrs, [1, 2, 3, 9].map(Net::addr));
        assert_eq!(routes.group_of, [2, 0, 2, 1, 0, 3]);
    }

    /// Each destination address leaves from one fixed pool socket, its rank
    /// modulo the pool — so with a pool's worth of destination shards every
    /// pool socket sends, and the chaos plan's socket-0 kill (which fires on
    /// the send path) always finds traffic to interrupt.
    #[test]
    fn every_pool_socket_carries_sends() {
        // Five shards, pools of 4: nodes 1–4, one on each other shard,
        // receive on net sockets 4, 8, 12 and 16.
        let mut cluster = idle_shards(true, 5, 4, 5);
        for round in 0..3u8 {
            let shard = &mut cluster.shards[0];
            for g in 1..5 {
                shard.enqueue(NodeId::new(g), vec![round; 16]);
            }
            shard.flush_outbox().expect("flush");
        }
        let arrivals = read_net(&cluster);
        assert_eq!(arrivals.len(), 12);
        let mut senders: Vec<SocketAddr> = arrivals.iter().map(|&(_, from, _)| from).collect();
        senders.sort_unstable();
        senders.dedup();
        let addrs: Vec<SocketAddr> = (0..4).map(Net::addr).collect();
        assert_eq!(senders, addrs, "all four pool sockets sent");
        // …and a destination never changes its socket.
        for si in [4, 8, 12, 16] {
            let mut from = arrivals.iter().filter(|a| a.0 == si).map(|a| a.1);
            let first = from.next().expect("socket received");
            let addr = Net::addr(si);
            assert!(from.all(|f| f == first), "address {addr} was sent to from two sockets");
        }
    }

    /// Every node of a shard receives at its shard's first socket, so what
    /// one wake releases for every node of another shard, from every node
    /// of this one and interleaved, leaves as one kernel datagram to that
    /// socket — each (sender → receiver) pair's frames in release order.
    #[test]
    fn one_wake_reaches_every_node_of_a_shard_in_one_kernel_datagram() {
        for batched in [true, false] {
            // Two shards, pools of 4: the even nodes on shard 0, the odd
            // ones on shard 1 at net socket 4. Uncapped links release every
            // offer at once.
            let mut cluster = shards_of(batched, 2, 4, 8, |cluster| {
                cluster.stream_duration = Duration::ZERO;
                cluster.upload_cap_bps = None;
            });
            let shard = &mut cluster.shards[0];
            while shard.wheel.pop_before(Time::MAX).is_some() {}
            let now = shard.env.now();
            // Each offer's encoded frame, under its (sender, receiver) pair.
            let mut released: Vec<((NodeId, NodeId), Vec<u8>)> = Vec::new();
            for k in 0..3 {
                for vn in &mut shard.nodes {
                    for to in (1..8).step_by(2).map(NodeId::new) {
                        let index = (vn.id().as_u32() * 8 + to.as_u32()) as u16;
                        let ids: Arc<[PacketId]> = vec![PacketId::new(k, index)].into();
                        let envelope = Envelope::Gossip(Message::Propose { ids });
                        released.push(((vn.id(), to), envelope.encode(vn.id())));
                        offer(&mut vn.link, now, to, envelope);
                    }
                }
            }
            for (local, vn) in shard.nodes.iter().enumerate() {
                shard.wheel.push(now, Fire::Release(local as u32, vn.epoch()));
            }
            shard.turn().expect("turn");
            assert_eq!(shard.stats.iterations, 1);
            assert_eq!(shard.stats.datagrams_sent, 48, "batched={batched}");
            assert_eq!(shard.stats.kernel_sent, 1, "batched={batched}: one for the other shard");

            let arrivals = read_net(&cluster);
            let [(4, _, frames)] = &arrivals[..] else {
                panic!("batched={batched}: not one datagram on socket 4: {arrivals:?}");
            };
            assert_eq!(frames.len(), released.len(), "batched={batched}");
            for ((from, to), _) in &released {
                let pair = |p: &&((NodeId, NodeId), Vec<u8>)| p.0 == (*from, *to);
                let want: Vec<&[u8]> = released.iter().filter(pair).map(|p| &p.1[..]).collect();
                let got: Vec<&[u8]> = frames
                    .iter()
                    .filter(|(dest, wire)| dest == to && want.contains(&&wire[..]))
                    .map(|(_, wire)| &wire[..])
                    .collect();
                assert_eq!(got, want, "batched={batched}: {from} → {to}");
            }
        }
    }

    /// What a wake produced leaves in that wake: one iteration with rounds
    /// and source emissions due ends with the outbox empty and the
    /// datagrams on the wire.
    #[test]
    fn one_iteration_empties_the_outbox() {
        let mut cluster = one_shard(true, 4, true);
        // Let a few rounds and source packets fall due, then run once.
        cluster.net.borrow_mut().set_now(at_ms(250));
        let shard = &mut cluster.shards[0];
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
        let mut cluster = one_shard(true, 1, false);
        let net = Rc::clone(&cluster.net);
        let shard = &mut cluster.shards[0];
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(3600)).is_some() {}
        shard.drain_sockets().expect("drain");
        let mut frame = Vec::new();
        let reply =
            shuffle_wire::encode_shuffle(NodeId::new(0), &ShuffleMessage::Reply(Vec::new()));
        assert!(demux::append_frame(&mut frame, NodeId::new(3), &reply));
        let backlog = |shard: &mut Shard<VirtualEnv>| {
            let mut net = net.borrow_mut();
            for _ in 0..20 {
                net.send(stranger(), Net::addr(0), &frame);
            }
            let delivered = net.now() + WIRE_DELAY;
            net.set_now(delivered);
            shard.ready[0] = PollFd::BLIND;
        };

        backlog(shard);
        // A wake that has only just begun.
        shard.last_wake = shard.env.now();
        shard.enqueue(NodeId::new(1), vec![0; 8]);
        for _ in 0..2 {
            shard.turn().expect("turn");
            assert!(shard.ready[0].flagged(), "budget used up: backlog remains");
            assert_eq!((shard.outbox.len(), shard.stats.kernel_sent), (1, 0), "held for the wake");
        }
        shard.turn().expect("turn"); // 4 left: a short batch ends the wake
        assert_eq!((shard.outbox.len(), shard.stats.kernel_sent), (0, 1));
        assert_eq!(shard.nodes[3].port.recv_msgs, 20);

        backlog(shard);
        // A wake that began a quantum ago.
        shard.last_wake = shard.env.now();
        let later = shard.last_wake + WAKE_QUANTUM;
        net.borrow_mut().set_now(later);
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
        let mut cluster = one_shard_of(false, 4, 4, |cluster| {
            cluster.stream_duration = Duration::ZERO;
            let chaos = gossip_adversity::ChaosSpec { reorder: 1.0, ..Default::default() };
            cluster.adversity = cluster.adversity.clone().with_chaos(chaos);
        });
        let shard = &mut cluster.shards[0];
        let now = shard.env.now();
        // The source (node 0) is uncapped: its link releases at once. A
        // message is told apart by its tag byte: `a` proposes, `b` requests.
        let ids: Arc<[PacketId]> = vec![PacketId::new(0, 0)].into();
        let a = Message::Propose { ids: Arc::clone(&ids) };
        let b = Message::Request { ids };
        let (a_tag, b_tag) =
            (encode_message(NodeId::new(0), &a)[0], encode_message(NodeId::new(0), &b)[0]);
        for (to, msg) in [(1, a.clone()), (2, a), (1, b)] {
            let envelope = Envelope::Gossip(msg);
            shard.nodes[0].link.offer(now, envelope.wire_size(), (NodeId::new(to), envelope));
        }
        shard.flush_link(0, now);
        assert_eq!(shard.stats.faults_injected, 3);
        let queued: Vec<(u32, u8)> =
            shard.outbox.iter().map(|(to, b)| (to.as_u32(), b[0])).collect();
        assert_eq!(queued, [(1, b_tag), (2, a_tag), (1, a_tag)], "node 1 gets b before a");
    }

    /// A node's report counts what its link released to the kernel, not
    /// what the node offered: a node that crashes holding a queued backlog
    /// reports the bytes that left before the crash and nothing of the
    /// backlog the crash discarded.
    #[test]
    fn a_crashed_node_reports_only_what_its_link_released() {
        use gossip_adversity::FaultAction;

        // 80 kbit/s: a 1000-byte datagram holds the wire for 100 ms.
        let mut cluster = one_shard_of(false, 1, 4, |cluster| {
            cluster.stream_duration = Duration::ZERO;
            cluster.upload_cap_bps = Some(80_000);
        });
        let net = Rc::clone(&cluster.net);
        let shard = &mut cluster.shards[0];
        let start = shard.env.now();
        for tag in 0..5u16 {
            // A one-packet serve of 1000 bytes: the 7-byte message header,
            // the packet's 20-byte header and 973 payload bytes.
            let packet = StreamPacket::new(PacketId::new(0, tag), start, vec![0; 973].into());
            let envelope = Envelope::Gossip(Message::Serve { events: vec![packet] });
            assert_eq!(envelope.wire_size(), 1000);
            assert!(shard.nodes[1].link.offer(start, 1000, (NodeId::new(2), envelope)));
        }
        shard.flush_link(1, start);
        let later = start + Duration::from_millis(150);
        net.borrow_mut().set_now(later);
        shard.flush_link(1, later);
        assert_eq!(shard.outbox.len(), 2, "two datagrams started by 150 ms");
        hosted::apply(shard, later, FaultAction::Crash(NodeId::new(1)));
        let node = &cluster.finish().nodes[1];
        assert_eq!((node.sent_bytes, node.sent_msgs), (2000, 2), "three died queued");
    }

    /// A backed-off socket's retry instant is an input of the wait,
    /// alongside the wheel, and the flush that follows it sends the
    /// retained queue with or without new traffic: a retry happens at its
    /// `backoff_until`, not at whatever tick comes after.
    #[test]
    fn a_retained_queue_is_retried_at_its_backoff_expiry() {
        let mut cluster = one_shard(false, 4, false);
        let net = Rc::clone(&cluster.net);
        let shard = &mut cluster.shards[0];
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(3600)).is_some() {}
        assert_eq!(shard.next_deadline(), None, "nothing armed, nothing retained");

        let far = shard.env.now() + Duration::from_secs(3600);
        shard.wheel.push(far, Fire::Source(0));
        assert_eq!(shard.next_deadline(), Some(far));
        // An outbox is nobody's deadline: it never outlives its wake.
        shard.enqueue(NodeId::new(1), vec![0; 8]);
        assert_eq!(shard.next_deadline(), Some(far));
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.kernel_sent, 1);

        // Retained datagrams behind a backoff: due at its expiry…
        let until = shard.env.now() + Duration::from_millis(30);
        shard.recovery[2].pending.push_datagram(Net::addr(1), b"retained");
        shard.recovery[2].backoff_until = Some(until);
        assert_eq!(shard.next_deadline(), Some(until));
        // …held until then, however often the loop flushes…
        shard.flush_outbox().expect("flush");
        assert_eq!(shard.stats.kernel_sent, 1, "still backing off");
        assert_eq!(shard.recovery[2].pending.len(), 1);
        // …and sent by the first flush after it, with an empty outbox.
        net.borrow_mut().set_now(until);
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
        shard.recovery[1].pending.push_datagram(Net::addr(1), b"retained");
        assert_eq!(shard.next_deadline(), Some(Time::ZERO));
    }

    /// A pool socket whose descriptor is useless as a socket is read
    /// because the wait flags it (`revents != 0` — the path `POLLNVAL` and
    /// `POLLERR` take too), classified fatal, re-bound in place exactly
    /// once, and watched again through the rebuilt wait set: the loop
    /// neither dies nor spins on it. Real sockets: this is the kernel's
    /// part.
    ///
    /// Safe Rust cannot close a descriptor under a live `UdpSocket` (and
    /// a double close would race the other tests' descriptors), so the
    /// dead socket here is a `/dev/null` handle dressed as one: `ppoll`
    /// flags it and every socket call on it fails with `ENOTSOCK`.
    #[cfg(unix)]
    #[test]
    fn a_dead_pool_socket_is_rebound_once_and_not_spun_on() {
        for batched in [true, false] {
            let (shard, _) = live_shard_of(batched, 4, 4, |c| c.stream_duration = Duration::ZERO);
            let window = std::time::Duration::from_millis(300);
            let (reports, stats, wall) = run_for(shard, window, |shard| {
                let null = std::fs::File::open("/dev/null").expect("open /dev/null");
                // Dropping the real socket frees its port for the re-bind.
                shard.env.sockets[2] = UdpSocket::from(std::os::fd::OwnedFd::from(null));
            });
            assert_eq!(stats.socket_rebinds, 1, "batched={batched}");
            let bound = iteration_bound(wall.as_secs_f64(), &stats);
            assert!(stats.iterations <= bound, "batched={batched}: spun");
            assert_eq!(reports.len(), 4);
        }
    }

    /// One short streaming leg per I/O path on real loopback sockets —
    /// the kernel's side of what the virtual-time tests check of the loop:
    /// the stream decodes, nothing on loopback is malformed, and the loop
    /// sleeps. The bound is structural, not a timing threshold: a shard
    /// dwells out one wake quantum per iteration unless its last drain left
    /// backlog, and every such undwelt re-loop follows a data-bearing
    /// receive call. Sleeps only ever overshoot, so a busy box lowers the
    /// count; a loop that polls instead of sleeping lands several times
    /// past it.
    #[test]
    fn both_io_backends_stream_on_real_sockets_without_spinning() {
        let legs: Vec<_> = [true, false]
            .map(|batched| {
                let (shard, _) = live_shard_of(batched, 2, 8, |cluster| {
                    cluster.stream_duration = Duration::from_millis(1500);
                });
                let config = shard.cluster.clone();
                let window = std::time::Duration::from_millis(2000);
                (batched, config, thread::spawn(move || run_for(shard, window, |_| {})))
            })
            .into_iter()
            .collect();
        for (batched, config, leg) in legs {
            let (reports, stats, wall) = leg.join().expect("leg");
            let report = assemble_report(&config, reports);
            let q = report.quality.average_quality_percent(Duration::MAX);
            assert!(q >= 80.0, "batched={batched}: quality {q:.1}%");
            assert!(report.windows_verified > 0, "batched={batched}: windows must byte-verify");
            assert_eq!(stats.frame_errors, 0, "batched={batched}: malformed framing on loopback");
            assert!(stats.datagrams_sent > 0 && stats.datagrams_received > 0);
            let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
            assert_eq!(decode_errors, 0, "batched={batched}: malformed datagrams on loopback");
            let bound = iteration_bound(wall.as_secs_f64(), &stats);
            assert!(
                stats.iterations <= bound,
                "batched={batched}: the loop is spinning: {} iterations in {wall:?} (bound {bound})",
                stats.iterations
            );
        }
    }

    /// A streaming one-shard cluster of `n` nodes on the batched path.
    fn streaming_shard(n: usize, tweak: impl FnOnce(&mut ClusterConfig)) -> VirtualCluster {
        one_shard_of(true, 2, n, |cluster| {
            cluster.stream_duration = Duration::from_secs(30);
            tweak(cluster);
        })
    }

    /// Runs the cluster's loop for `window` more of virtual time.
    fn turn_for(cluster: &mut VirtualCluster, window: Duration) {
        cluster.run_until(cluster.now() + window);
    }

    /// Every packet id the stream can have published in its first
    /// `windows` windows.
    fn stream_ids(shard: &Shard<VirtualEnv>, windows: u32) -> impl Iterator<Item = PacketId> {
        let per_window = shard.cluster.stream.window.total_packets() as u16;
        (0..windows).flat_map(move |w| (0..per_window).map(move |i| PacketId::new(w, i)))
    }

    /// What each hosted node serves for `id` (its own copy, else the
    /// table's), if it stores it.
    fn stored<'s>(shard: &'s Shard<VirtualEnv>, id: &PacketId) -> Vec<&'s StreamPacket> {
        let pool: &dyn EventPool<StreamPacket> = &shard.packets;
        shard.nodes.iter().filter_map(|vn| vn.node.stored_in(id, Some(pool))).collect()
    }

    /// Where the payload bytes of every held copy of `id` live: the
    /// shard's table first, then what each hosted node serves.
    fn payload_addresses(shard: &Shard<VirtualEnv>, id: &PacketId) -> Vec<*const u8> {
        let nodes = stored(shard, id).into_iter();
        shard.packets.lookup(id).into_iter().chain(nodes).map(|p| p.payload().as_ptr()).collect()
    }

    /// The storage rule's point: however many nodes a shard hosts, it
    /// holds each packet's payload once — every node's stored copy is the
    /// table's buffer, so distinct buffers equal distinct packets.
    #[test]
    fn a_shard_holds_one_payload_buffer_per_packet() {
        let mut cluster = streaming_shard(6, |_| {});
        turn_for(&mut cluster, Duration::from_millis(1200));
        let shard = &cluster.shards[0];
        let (mut packets, mut copies, mut buffers) = (0, 0, 0);
        for id in stream_ids(shard, 10) {
            let mut held = payload_addresses(shard, &id);
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
        assert_eq!(stored + shard.packets.len(), copies, "no packet beyond the ten windows");
        let own: usize = shard.nodes.iter().map(|vn| vn.node.own_copies()).sum();
        assert!(own < stored / 2, "{own} of {stored} stored payloads are the nodes' own copies");
    }

    /// Only verified packets enter the table, and a payload is shared only
    /// when it is byte-equal to a pooled one — so with serve-corruptors
    /// about, whether the receivers defend themselves or leave the check to
    /// the shard, every table entry verifies and a corrupted payload a node
    /// swallowed is that node's private copy.
    #[test]
    fn corrupted_payloads_never_enter_or_alias_the_table() {
        for defended in [true, false] {
            let mut cluster = streaming_shard(8, |cluster| {
                // A source that reaches only two receivers itself leaves the
                // rest to be served by relays, corruptors among them.
                cluster.gossip =
                    cluster.gossip.clone().with_verify_payloads(defended).with_source_fanout(2);
                cluster.adversity = cluster
                    .adversity
                    .clone()
                    .with_byzantine(0.3, gossip_adversity::ByzantineMix::serve_corruptors());
            });
            assert!(cluster.shards[0].compiled.profiles.iter().any(|p| p.byzantine.is_some()));
            turn_for(&mut cluster, Duration::from_millis(1500));
            let shard = &cluster.shards[0];

            let (mut pooled, mut swallowed) = (0, 0);
            for id in stream_ids(shard, 12) {
                let Some(entry) = shard.packets.lookup(&id) else { continue };
                pooled += 1;
                assert!(entry.verify(), "defended={defended}: {id} pooled corrupt");
                for stored in stored(shard, &id) {
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
        let mut cluster = one_shard_of(false, 1, 4, |cluster| {
            cluster.stream_duration = Duration::ZERO;
            cluster.gossip = cluster.gossip.clone().with_verify_payloads(false);
        });
        let shard = &mut cluster.shards[0];
        let now = shard.env.now();
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
        let shared = stored(shard, &id).pop().expect("stored");
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
        let mut cluster = streaming_shard(4, |cluster| {
            cluster.gossip = cluster.gossip.clone().with_retention(Duration::from_secs(1));
        });
        let held = |cluster: &VirtualCluster| -> Vec<usize> {
            let shard = &cluster.shards[0];
            let nodes = shard.nodes.iter().map(|vn| vn.node.stored_events());
            std::iter::once(shard.packets.len()).chain(nodes).collect()
        };
        turn_for(&mut cluster, Duration::from_millis(2500));
        let mid = held(&cluster);
        turn_for(&mut cluster, Duration::from_millis(2000));
        let late = held(&cluster);
        // 65 packets a second (50 data + parity) for 1 s, plus the 100 ms
        // pruning cadence; unpruned, 4.5 s would hold ≈ 290.
        for (mid, late) in mid.iter().zip(&late) {
            assert!((40..=110).contains(late), "holding {late} packets at 4.5 s (table, nodes…)");
            assert!(late.abs_diff(*mid) <= 25, "{mid} at 2.5 s, {late} at 4.5 s: still growing");
        }
        for id in stream_ids(&cluster.shards[0], 10) {
            let held = payload_addresses(&cluster.shards[0], &id);
            assert!(held.is_empty(), "{id} is still held at 4.5 s");
        }
    }

    /// The shard's wiring of the crash rule: the deadlines a crash hands
    /// back leave the wheel at once — only those — and their handles die
    /// with them: shown again after the rejoin, when the new incarnation's
    /// deadlines occupy the recycled slots, they cancel nothing.
    #[test]
    fn a_crash_cancels_the_victims_retransmit_deadlines_and_their_handles_go_stale() {
        use gossip_adversity::FaultAction;

        let mut cluster = one_shard_of(false, 2, 4, |cluster| {
            cluster.crashes = vec![(2, Duration::from_secs(3600))];
        });
        let shard = &mut cluster.shards[0];
        while shard.wheel.pop_before(Time::ZERO + Duration::from_secs(7200)).is_some() {}
        let (v, now) = (NodeId::new(2), shard.env.now());
        let propose = |shard: &mut Shard<VirtualEnv>, window: u32| {
            for index in 0..2 {
                let ids = vec![PacketId::new(window, index)].into();
                let propose = gossip_core::Message::Propose { ids };
                shard.nodes[2].on_message(now, NodeId::new(1), propose, &shard.packets);
            }
        };

        // First life: the host's part played by hand, to keep the handles.
        propose(shard, 0);
        let mut stale = Vec::new();
        while let Some(out) = shard.nodes[2].node.poll_output() {
            if let gossip_core::Output::ScheduleTimer { token, at } = out {
                let handle = shard.wheel.push(at, Fire::Timer(2, token, 0));
                shard.nodes[2].node.attach_timer_handle(token, handle);
                stale.push(handle);
            }
        }
        assert_eq!((stale.len(), shard.wheel.len()), (2, 2));
        hosted::apply(shard, now, FaultAction::Crash(v));
        assert!(shard.nodes[2].is_down() && shard.wheel.is_empty(), "the crash cancelled both");

        // Second life: armed through the shard, into the freed slots.
        hosted::apply(shard, now, FaultAction::Rejoin(v));
        assert_eq!(shard.wheel.len(), 1, "the rejoin armed a round");
        propose(shard, 1);
        shard.drain_outputs(2, now);
        let armed = shard.wheel.len();
        assert!(armed >= 3, "two new deadlines (and the link's, if it held the requests)");
        for handle in stale {
            assert!(!shard.wheel.cancel(handle), "a dead incarnation's handle cancelled something");
        }
        assert_eq!(shard.wheel.len(), armed);
        // The new deadlines are the shard's own: the next crash finds them.
        hosted::apply(shard, now, FaultAction::Crash(v));
        assert_eq!(shard.wheel.len(), armed - 2);
    }

    /// A crashed source ends the stream: its emission chain stops, it pins
    /// no payload and its player stops counting.
    #[test]
    fn a_crashed_source_publishes_nothing() {
        let mut cluster = streaming_shard(4, |cluster| {
            cluster.crashes = vec![(0, Duration::from_millis(300))];
        });
        turn_for(&mut cluster, Duration::from_millis(500));
        let source = &cluster.shards[0].nodes[0];
        assert!(source.is_down(), "the crash fault fired");
        assert_eq!(source.node.stored_events(), 0, "a down source pins no payload");
        let published = source.player.packets_received();
        assert!(published > 0, "the source was streaming");
        turn_for(&mut cluster, Duration::from_millis(200));
        let shard = &mut cluster.shards[0];
        assert_eq!(shard.nodes[0].player.packets_received(), published);
        let mut emissions = 0;
        while let Some((_, fire)) = shard.wheel.pop_before(Time::MAX) {
            emissions += usize::from(matches!(fire, Fire::Source(_)));
        }
        assert_eq!(emissions, 0, "the emission chain ended at the crash");
    }

    /// A crashed node lets go of every payload at the crash — it will run
    /// no round to prune them, and nothing brings this one back — and of
    /// every id record and its link's buffer too; a live node's link that
    /// has drained holds no buffer either.
    #[test]
    fn a_crashed_node_holds_no_payloads() {
        let mut cluster = streaming_shard(4, |cluster| {
            cluster.crashes = vec![(2, Duration::from_millis(700))];
        });
        turn_for(&mut cluster, Duration::from_millis(500));
        let shard = &cluster.shards[0];
        assert!(!shard.nodes[2].is_down());
        assert!(shard.nodes[2].node.stored_events() > 0, "the victim was receiving the stream");
        turn_for(&mut cluster, Duration::from_millis(500));
        let shard = &cluster.shards[0];
        let victim = &shard.nodes[2];
        assert!(victim.is_down(), "the crash fault fired");
        assert_eq!(victim.node.stored_events(), 0);
        assert_eq!(victim.node.recorded_ids(), (0, 0));
        assert_eq!(victim.link.queue_capacity(), 0);
        assert!(victim.node.stats().events_delivered > 0, "the counters survive");
        assert!(shard.nodes[1].node.stored_events() > 0, "the survivors keep theirs");
        for vn in &shard.nodes {
            if vn.link.queue_len() == 0 {
                assert_eq!(vn.link.queue_capacity(), 0, "{} drained", vn.id());
            }
        }
    }

    /// The shard leg of the long-stream soak (`tests/soak.rs` runs the
    /// simulator's): thirty minutes past the first retention horizon of a
    /// thin stream on six nodes, probed every ten seconds of virtual time.
    /// Each live node's id records stop growing once the first horizon has
    /// passed, the crashed node holds no rows and no link buffer, and the
    /// shard's packet table holds at most one horizon of packets.
    #[test]
    fn half_an_hour_past_the_retention_horizon_holds_one_horizon_of_state() {
        const N: usize = 6;
        // One 55-packet window a second: 50 data packets of 50 B at
        // 20 kbit/s, plus 5 parity.
        const WINDOW_PACKETS: usize = 55;
        let horizon = Duration::from_secs(120);
        let (crash_at, victim) = (Duration::from_secs(600), N - 1);
        let mut cluster = one_shard_of(true, 2, N, |cluster| {
            cluster.gossip = GossipConfig::new(4)
                .with_gossip_period(Duration::from_millis(100))
                .with_source_fanout(5);
            cluster.stream = gossip_stream::StreamConfig {
                rate_bps: 20_000,
                packet_payload_bytes: 50,
                window: gossip_fec::WindowParams::new(50, 5),
            };
            cluster.stream_duration = horizon + Duration::from_secs(30 * 60);
            cluster.drain_duration = Duration::from_secs(5);
            cluster.crashes = vec![(victim, crash_at)];
        });
        assert_eq!(cluster.config.gossip.retention, horizon, "the default horizon");

        // One probe: when, each node's id records and windows, whether it
        // is down, the victim's link buffer and the packet table.
        let mut samples = Vec::new();
        let end = cluster.end();
        let mut at = Time::ZERO;
        while at < end {
            at = (at + Duration::from_secs(10)).min(end);
            cluster.run_until(at);
            let shard = &cluster.shards[0];
            let records: Vec<(usize, usize)> =
                shard.nodes.iter().map(|vn| vn.node.recorded_ids()).collect();
            let down: Vec<bool> = shard.nodes.iter().map(HostedNode::is_down).collect();
            let link = shard.nodes[victim].link.queue_capacity();
            samples.push((at, records, down, link, shard.packets.len()));
        }
        let report = cluster.finish();
        for (r, quality) in report.quality.nodes().iter().enumerate() {
            let complete = quality.complete_fraction();
            assert!(r + 1 == victim || complete >= 0.99, "node {}: {complete}", r + 1);
        }

        // Settled: the first horizon and some lag behind us. The first
        // stretch after it sets each node's level; from then on a node
        // holds that level, give or take the windows a late retransmission
        // keeps a little past the horizon.
        let settled = Time::ZERO + horizon + Duration::from_secs(30);
        let stretch = settled + Duration::from_secs(150);
        let after: Vec<_> = samples.iter().filter(|s| s.0 >= settled).collect();
        let (first, later): (Vec<_>, Vec<_>) = after.into_iter().partition(|s| s.0 < stretch);
        const LATE_WINDOWS: usize = 24;
        for i in (0..N).filter(|&i| i != victim) {
            let level = first.iter().map(|s| s.1[i].0).max().expect("samples");
            assert!(level > 100 * WINDOW_PACKETS, "node {i} holds only {level} records");
            for (at, records, ..) in &later {
                let (ids, windows) = records[i];
                assert!(
                    ids <= level + LATE_WINDOWS * WINDOW_PACKETS,
                    "node {i}: {ids} records at {at}, {level} after the first horizon"
                );
                assert!(windows <= level.div_ceil(WINDOW_PACKETS) + LATE_WINDOWS, "node {i}");
                assert!(ids * 10 > level * 9, "node {i} stopped receiving at {at}");
            }
        }

        // The victim: one horizon's records while up; none, and no link
        // buffer, once down — within a wake quantum of the crash's instant.
        let crash = Time::ZERO + crash_at;
        for (at, records, down, link, _) in &samples {
            if *at < crash {
                assert!(!down[victim], "down at {at}");
            } else if *at >= crash + WAKE_QUANTUM {
                assert!(down[victim], "up at {at}");
                assert_eq!(records[victim], (0, 0), "a crashed node holds rows at {at}");
                assert_eq!(*link, 0, "a crashed node holds a link buffer at {at}");
            }
        }

        // The table: one horizon of packets — each kept for `retention` and
        // one round of slack past its window's latest delivery, and pruned
        // once a round — within the horizon's windows and one more.
        // Measured: 6066 at most.
        let horizon_packets = WINDOW_PACKETS * (horizon.as_micros() / 1_000_000 + 1) as usize;
        for (at, .., pooled) in &samples {
            assert!(*pooled <= horizon_packets, "{pooled} packets pooled at {at}");
        }
        assert!(samples.iter().any(|s| s.4 > horizon_packets / 2), "the table filled");
    }
}
