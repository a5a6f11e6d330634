//! The traced ledger pass: ns per call for every layer's public entry
//! points, measured from outside.
//!
//! Two parts. The *ledger loop* hosts a small set of real
//! `GossipNode<StreamPacket>`s plus a `StreamSource` at the workload's
//! geometry over an in-memory mailbox, so the message mix (proposes,
//! requests, one-event serves, stale timers) is the protocol's own, and
//! records a span around every public call on the path of a datagram:
//! source poll → publish → `on_round` → `poll_output` → `encode_message` →
//! shaper → `append_frame` → `frames` → `decode_frame`/`decode_message` →
//! `on_frame`/`on_message` → `verify` → `on_packet`. Every logical node is
//! hosted twice — once driven through the borrowed `on_frame` path, once
//! through the owned `on_message` path — which both times each path and
//! checks that they agree. The *isolated rows* then time the functions the
//! loop cannot reach from outside a runtime (event queue, upload link,
//! latency sampler, partner selection, Cyclon, FEC, telemetry, a kernel
//! loopback round trip) at the same geometry.
//!
//! [`build`] turns the rows into the cost ledger: each row's ns per call
//! times its calls per event (or datagram) from the *untraced* run's
//! counts, summed against the measured end-to-end CPU figure.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::net::UdpSocket;
use std::path::Path;

use gossip::adversity::AdversitySpec;
use gossip::core::wire::{decode_frame, decode_message, encode_message, FrameKind};
use gossip::core::{Event, GossipConfig, GossipNode, Output, PartnerView, TimerToken};
use gossip::fec::{gf, WindowDecoder, WindowEncoder};
use gossip::membership::wire::{decode_shuffle, encode_shuffle};
use gossip::membership::{CyclonConfig, CyclonView, ShuffleMessage};
use gossip::net::{LatencyModel, LatencySampler, UploadLink};
use gossip::reactor::demux;
use gossip::sim::{DetRng, EventQueue};
use gossip::stream::source::synth_payload;
use gossip::stream::{
    NodeQuality, PacketId, StreamConfig, StreamPacket, StreamPlayer, StreamSource,
};
use gossip::telemetry::Registry;
use gossip::types::{Duration, NodeId, Time};
use gossip::udp::shaper::UploadShaper;

use crate::json::Json;
use crate::outcome::{Counts, Ledger, LedgerRow, Samples};
use crate::spec::Runtime;
use crate::trace::{NameId, Tracer};

/// The workload's shape, as far as per-call costs depend on it.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// Deployment size.
    pub n: usize,
    /// Size of the membership list `selectNodes` draws from (n under full
    /// membership, the partial view under Cyclon).
    pub membership_len: usize,
    pub gossip: GossipConfig,
    pub stream: StreamConfig,
    pub upload_cap_bps: Option<u64>,
    pub max_backlog: Duration,
    pub cyclon: CyclonConfig,
    /// Resident event population the queue rows run at.
    pub resident_events: usize,
    /// Relative frequency of the event classes the queue rows mix: link
    /// completions, network deliveries, gossip rounds, retransmission
    /// timers (from the untraced run's counts; any positive scale).
    pub event_mix: [f64; 4],
    /// Windows a receiver's quality is computed over.
    pub measured_windows: u32,
    pub adversity: AdversitySpec,
    /// Mean protocol datagram size, for the kernel reference row.
    pub mean_datagram_bytes: usize,
}

/// What the pass hands back.
pub struct LedgerPass {
    /// Every **T** row except the set-up ones the runner times itself.
    pub timed: Samples,
    /// Codec round-trip or handler-agreement violations.
    pub failures: Vec<String>,
    /// Span file, span count and loop statistics for the result JSON.
    pub detail: Json,
}

/// One-way delay of the in-memory mailbox.
const MAILBOX_LATENCY: Duration = Duration::from_millis(5);
/// Loop granularity.
const TICK: Duration = Duration::from_millis(1);
/// After the source stops the loop keeps stepping this long, so the
/// retransmission timers armed during the stream fire (the initial RTO is
/// 8 s and never drops below 4 s).
const TIMER_TAIL: Duration = Duration::from_millis(9_000);

/// Interned span names of the ledger loop.
struct Names {
    step: NameId,
    datagram: NameId,
    source_poll: NameId,
    publish: NameId,
    on_round: NameId,
    on_timer: NameId,
    poll_output: NameId,
    encode: NameId,
    shaper_offer: NameId,
    shaper_pop: NameId,
    append_frame: NameId,
    frames: NameId,
    decode_frame: NameId,
    decode_message: NameId,
    on_frame: [NameId; 4],
    on_message: [NameId; 4],
    verify: NameId,
    on_packet: NameId,
}

impl Names {
    fn intern(t: &mut Tracer) -> Names {
        Names {
            step: t.name("ledger.step"),
            datagram: t.name("ledger.datagram"),
            source_poll: t.name("stream.source_poll"),
            publish: t.name("core.publish"),
            on_round: t.name("core.on_round"),
            on_timer: t.name("core.on_timer"),
            poll_output: t.name("core.poll_output"),
            encode: t.name("core.wire_encode"),
            shaper_offer: t.name("udp.shaper_offer"),
            shaper_pop: t.name("udp.shaper_pop"),
            append_frame: t.name("reactor.demux_append_frame"),
            frames: t.name("reactor.demux_frames"),
            decode_frame: t.name("core.wire_decode_frame"),
            decode_message: t.name("core.wire_decode_message"),
            on_frame: [
                t.name("core.on_frame_propose"),
                t.name("core.on_frame_request"),
                t.name("core.on_frame_serve"),
                t.name("core.on_frame_feedme"),
            ],
            on_message: [
                t.name("core.on_message_propose"),
                t.name("core.on_message_request"),
                t.name("core.on_message_serve"),
                t.name("core.on_message_feedme"),
            ],
            verify: t.name("stream.packet_verify"),
            on_packet: t.name("stream.player_on_packet"),
        }
    }
}

fn kind_index(kind: FrameKind) -> usize {
    match kind {
        FrameKind::Propose => 0,
        FrameKind::Request => 1,
        FrameKind::Serve => 2,
        FrameKind::FeedMe => 3,
    }
}

/// One logical node, hosted twice.
struct Hosted {
    /// Driven through `decode_frame` + `on_frame`; its outputs feed the mailbox.
    borrowed: GossipNode<StreamPacket>,
    /// Driven through `decode_message` + `on_message`; its outputs are only compared.
    owned: GossipNode<StreamPacket>,
    player: StreamPlayer,
    shaper: UploadShaper<(NodeId, Vec<u8>)>,
    next_round: Time,
}

struct Loop<'a> {
    t: &'a mut Tracer,
    names: Names,
    nodes: Vec<Hosted>,
    /// `(deadline, arming sequence, node, token)`, earliest first.
    timers: BinaryHeap<Reverse<(Time, u64, usize, TimerToken)>>,
    timer_seq: u64,
    /// Kernel datagrams in flight, in delivery order (the delay is fixed).
    mailbox: VecDeque<(Time, Vec<u8>)>,
    /// Delivered kernel buffers, reused like the reactor's send arenas so
    /// `append_frame` is timed copying into warm capacity, not allocating.
    spare: Vec<Vec<u8>>,
    datagram_seq: u64,
    failures: Vec<String>,
    frames_delivered: u64,
}

impl Loop<'_> {
    fn fail(&mut self, what: String) {
        // One line per kind of violation is enough to fail the run.
        if self.failures.len() < 8 && !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// Drains both incarnations' outputs, checks they agree, and routes the
    /// borrowed incarnation's effects.
    fn drain(&mut self, now: Time, i: usize, id: u64) {
        let span = self.t.enter(self.names.poll_output, id);
        let mut outputs = Vec::new();
        while let Some(out) = self.nodes[i].borrowed.poll_output() {
            outputs.push(out);
        }
        self.t.exit_calls(span, outputs.len() as u32 + 1);
        let span = self.t.enter(self.names.poll_output, id);
        let mut twin = Vec::new();
        while let Some(out) = self.nodes[i].owned.poll_output() {
            twin.push(out);
        }
        self.t.exit_calls(span, twin.len() as u32 + 1);
        if outputs != twin {
            self.fail(format!("node {i}: owned and borrowed handlers produced different outputs"));
        }

        let sender = self.nodes[i].borrowed.id();
        for out in outputs {
            match out {
                Output::Send { to, msg } => {
                    let span = self.t.enter(self.names.encode, id);
                    let wire = encode_message(sender, &msg);
                    self.t.exit(span);
                    if decode_message::<StreamPacket>(&wire) != Some((sender, msg)) {
                        self.fail("decode(encode(m)) != m".to_string());
                    }
                    let bytes = wire.len();
                    let span = self.t.enter(self.names.shaper_offer, id);
                    let _accepted = self.nodes[i].shaper.offer(now, bytes, (to, wire));
                    self.t.exit(span);
                }
                Output::Deliver { event } => {
                    let span = self.t.enter(self.names.verify, id);
                    let intact = event.verify();
                    self.t.exit(span);
                    if intact {
                        let packet = event.packet_id();
                        let span = self.t.enter(self.names.on_packet, id);
                        self.nodes[i].player.on_packet(now, packet);
                        self.t.exit(span);
                    } else {
                        self.fail("a delivered packet failed its checksum".to_string());
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    self.timers.push(Reverse((at, self.timer_seq, i, token)));
                    self.timer_seq += 1;
                }
            }
        }
    }

    /// Releases every node's due datagrams into one kernel datagram each
    /// (frames carry their destination, as on a shared socket).
    fn flush(&mut self, now: Time) {
        for i in 0..self.nodes.len() {
            let mut kernel = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(16 << 10));
            loop {
                let span = self.t.enter(self.names.shaper_pop, self.datagram_seq);
                let due = self.nodes[i].shaper.pop_due(now);
                self.t.exit(span);
                let Some((dest, wire)) = due else { break };
                let span = self.t.enter(self.names.append_frame, self.datagram_seq);
                let framed = demux::append_frame(&mut kernel, dest, &wire);
                self.t.exit(span);
                if !framed {
                    self.fail("a protocol datagram exceeded the frame length".to_string());
                }
            }
            if kernel.is_empty() {
                self.spare.push(kernel);
            } else {
                self.mailbox.push_back((now + MAILBOX_LATENCY, kernel));
                self.datagram_seq += 1;
            }
        }
    }

    /// When the next thing happens: a round, a timer, a shaper release or a
    /// mailbox delivery (`None` once everything is quiet).
    fn next_event(&self) -> Option<Time> {
        let rounds = self.nodes.iter().map(|n| n.next_round);
        let releases = self.nodes.iter().filter_map(|n| n.shaper.next_release());
        let timer = self.timers.peek().map(|Reverse((at, ..))| *at);
        let delivery = self.mailbox.front().map(|(at, _)| *at);
        rounds.chain(releases).chain(timer).chain(delivery).min()
    }

    /// Delivers every kernel datagram due by `now`.
    fn deliver(&mut self, now: Time) {
        while self.mailbox.front().is_some_and(|(at, _)| *at <= now) {
            let (_, mut kernel) = self.mailbox.pop_front().expect("checked non-empty");
            let id = self.datagram_seq;
            self.datagram_seq += 1;
            let outer = self.t.enter(self.names.datagram, id);

            let span = self.t.enter(self.names.frames, id);
            let mut walk = demux::frames(&kernel);
            let frames: Vec<(NodeId, &[u8])> = walk.by_ref().collect();
            self.t.exit_calls(span, frames.len().max(1) as u32);
            if walk.malformed() {
                self.fail("a kernel datagram had broken framing".to_string());
            }

            for (dest, wire) in frames {
                let i = dest.index();
                if i >= self.nodes.len() {
                    self.fail(format!("a frame was addressed to unknown node {i}"));
                    continue;
                }
                let span = self.t.enter(self.names.decode_frame, id);
                let frame = decode_frame::<StreamPacket>(wire);
                self.t.exit(span);
                let span = self.t.enter(self.names.decode_message, id);
                let message = decode_message::<StreamPacket>(wire);
                self.t.exit(span);
                let (Some(frame), Some((sender, message))) = (frame, message) else {
                    self.fail("a datagram the loop encoded failed to decode".to_string());
                    continue;
                };
                if frame.sender() != sender || frame.to_message() != message {
                    self.fail("decode_frame and decode_message disagree".to_string());
                }
                let kind = kind_index(frame.kind());
                let span = self.t.enter(self.names.on_frame[kind], id);
                self.nodes[i].borrowed.on_frame(now, &frame);
                self.t.exit(span);
                let span = self.t.enter(self.names.on_message[kind], id);
                self.nodes[i].owned.on_message(now, sender, message);
                self.t.exit(span);
                self.frames_delivered += 1;
                self.drain(now, i, id);
            }
            self.t.exit(outer);
            kernel.clear();
            self.spare.push(kernel);
        }
    }

    /// Final state comparison of the two incarnations of every node.
    fn check_agreement(&mut self) {
        for i in 0..self.nodes.len() {
            let (a, b) = (&self.nodes[i].borrowed, &self.nodes[i].owned);
            let same = a.stats() == b.stats()
                && a.rounds() == b.rounds()
                && a.stored_events() == b.stored_events()
                && a.partners() == b.partners()
                && a.current_rto() == b.current_rto();
            if !same {
                self.fail(format!(
                    "node {i}: owned and borrowed handlers left different node state"
                ));
            }
        }
    }
}

/// How many nodes the ledger loop hosts.
fn hosted_nodes(g: &Geometry, quick: bool) -> usize {
    g.n.min(if quick { 8 } else { 24 })
}

/// Statistics of one ledger-loop run.
struct LoopStats {
    nodes: usize,
    virtual_ms: u64,
    frames_delivered: u64,
    packets_published: u64,
    events_delivered: u64,
}

/// Runs the ledger loop until the span budget or the virtual horizon.
fn ledger_loop(
    g: &Geometry,
    seed: u64,
    quick: bool,
    t: &mut Tracer,
    budget: usize,
) -> (LoopStats, Vec<String>) {
    let hosted = hosted_nodes(g, quick);
    let members: Vec<NodeId> = (0..hosted as u32).map(NodeId::new).collect();
    let mut phase_rng = DetRng::seed_from(seed).split(0x1ED6E4);
    let period = g.gossip.gossip_period;
    let nodes = (0..hosted)
        .map(|i| {
            let id = NodeId::new(i as u32);
            let make = |source: bool| {
                if source {
                    GossipNode::new_source(id, g.gossip.clone(), members.clone(), seed)
                } else {
                    GossipNode::new(id, g.gossip.clone(), members.clone(), seed)
                }
            };
            // The source is provisioned (uncapped), like in every workload.
            let cap = if i == 0 { None } else { g.upload_cap_bps };
            Hosted {
                borrowed: make(i == 0),
                owned: make(i == 0),
                player: StreamPlayer::new(g.stream),
                shaper: UploadShaper::new(cap, g.max_backlog),
                next_round: Time::ZERO
                    + Duration::from_micros(phase_rng.next_below(period.as_micros().max(1))),
            }
        })
        .collect();
    let names = Names::intern(t);
    let mut lp = Loop {
        t,
        names,
        nodes,
        timers: BinaryHeap::new(),
        timer_seq: 0,
        mailbox: VecDeque::new(),
        spare: Vec::new(),
        datagram_seq: 0,
        failures: Vec::new(),
        frames_delivered: 0,
    };

    let mut source = StreamSource::new(g.stream, Time::ZERO);
    // Two windows of stream (at least a second), within 60 % of the span
    // budget; the rest is kept for the timer tail.
    let stream_for = (g.stream.window_duration() * 2).max(Duration::from_secs(1));
    let stream_budget = budget * 6 / 10;
    let mut stream_end: Option<Time> = None;
    let mut packets_published = 0u64;
    let mut now = Time::ZERO;
    let mut tick = 0u64;
    loop {
        if stream_end.is_none() && (now >= Time::ZERO + stream_for || lp.t.len() >= stream_budget) {
            stream_end = Some(now);
        }
        if stream_end.is_some_and(|end| now >= end + TIMER_TAIL) || lp.t.len() + 64 >= budget {
            break;
        }
        let step = lp.t.enter(lp.names.step, tick);

        if stream_end.is_none() && source.next_packet_at() <= now {
            let span = lp.t.enter(lp.names.source_poll, tick);
            let packets = source.poll(now);
            lp.t.exit_calls(span, packets.len().max(1) as u32);
            for packet in packets {
                packets_published += 1;
                let span = lp.t.enter(lp.names.publish, tick);
                lp.nodes[0].borrowed.publish(now, packet.clone());
                lp.t.exit(span);
                lp.nodes[0].owned.publish(now, packet);
            }
            lp.drain(now, 0, tick);
        }

        while lp.timers.peek().is_some_and(|Reverse((at, ..))| *at <= now) {
            let Reverse((_, _, i, token)) = lp.timers.pop().expect("checked non-empty");
            let span = lp.t.enter(lp.names.on_timer, tick);
            lp.nodes[i].borrowed.on_timer(now, token);
            lp.t.exit(span);
            let span = lp.t.enter(lp.names.on_timer, tick);
            lp.nodes[i].owned.on_timer(now, token);
            lp.t.exit(span);
            lp.drain(now, i, tick);
        }

        for i in 0..lp.nodes.len() {
            if lp.nodes[i].next_round <= now {
                let span = lp.t.enter(lp.names.on_round, tick);
                lp.nodes[i].borrowed.on_round(now);
                lp.t.exit(span);
                let span = lp.t.enter(lp.names.on_round, tick);
                lp.nodes[i].owned.on_round(now);
                lp.t.exit(span);
                lp.nodes[i].next_round += period;
                lp.drain(now, i, tick);
            }
        }

        lp.flush(now);
        lp.deliver(now);
        lp.t.exit(step);

        // Jump to the tick of the next event; idle ticks record nothing.
        let source_next = stream_end.is_none().then(|| source.next_packet_at());
        let next = lp.next_event().into_iter().chain(source_next).min().unwrap_or(now);
        let ticks_ahead = (next.saturating_since(now).as_micros()).div_ceil(TICK.as_micros());
        now += TICK * ticks_ahead.max(1);
        tick += 1;
    }
    lp.check_agreement();

    let events_delivered =
        lp.nodes.iter().skip(1).map(|n| n.borrowed.stats().events_delivered).sum();
    let stats = LoopStats {
        nodes: hosted,
        virtual_ms: now.as_millis(),
        frames_delivered: lp.frames_delivered,
        packets_published,
        events_delivered,
    };
    (stats, lp.failures)
}

/// Times `iters` back-to-back calls of `f` inside one span named `name`.
fn isolated(t: &mut Tracer, name: &'static str, iters: u32, mut f: impl FnMut(u32)) {
    let name = t.name(name);
    let span = t.enter(name, 0);
    for i in 0..iters {
        f(i);
    }
    t.exit_calls(span, iters.max(1));
}

/// How far ahead the four event classes are scheduled, in µs `[lo, hi)`:
/// a link completion is a message's wire time at the cap, a delivery is a
/// PlanetLab-like one-way delay, a round is one period ahead exactly, a
/// retransmission timer sits between the RTO floor and its initial value.
fn class_delays(period: Duration) -> [(u64, u64); 4] {
    let p = period.as_micros().max(1);
    [(1_000, 15_000), (10_000, 250_000), (p, p), (4_000_000, 8_000_000)]
}

/// The simulator's scheduling pattern as a hold model: every pop is
/// followed by one push a class-dependent delay ahead.
struct HoldModel {
    delays: [(u64, u64); 4],
    /// Cumulative class probabilities of a *push*.
    push_cdf: [f64; 4],
    /// Cumulative class probabilities of a *resident* event (classes that
    /// wait longer are over-represented in the population).
    resident_cdf: [f64; 4],
}

impl HoldModel {
    fn new(mix: [f64; 4], period: Duration) -> HoldModel {
        let delays = class_delays(period);
        let cdf = |weights: [f64; 4]| {
            let total: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
            let mut acc = 0.0;
            weights.map(|w| {
                acc += w / total;
                acc
            })
        };
        let mean = |(lo, hi): (u64, u64)| (lo + hi) as f64 / 2.0;
        let resident = [0, 1, 2, 3].map(|c| mix[c].max(0.0) * mean(delays[c]));
        HoldModel { delays, push_cdf: cdf(mix.map(|w| w.max(0.0))), resident_cdf: cdf(resident) }
    }

    fn class(cdf: &[f64; 4], rng: &mut DetRng) -> usize {
        let u = rng.f64();
        cdf.iter().position(|&c| u < c).unwrap_or(3)
    }

    /// The delay of a fresh push.
    fn ahead(&self, rng: &mut DetRng) -> Duration {
        let (lo, hi) = self.delays[Self::class(&self.push_cdf, rng)];
        Duration::from_micros(if hi > lo { rng.range_u64(lo, hi) } else { lo })
    }

    /// The *remaining* delay of an event already resident in steady state:
    /// a draw from the equilibrium (residual-life) distribution of its
    /// class, so the queue starts in the state a long run converges to.
    fn remaining(&self, rng: &mut DetRng) -> Duration {
        let (lo, hi) = self.delays[Self::class(&self.resident_cdf, rng)];
        let (a, b) = (lo as f64, hi as f64);
        // Residual density ∝ P(delay > x): flat on [0, a), then falling
        // linearly to zero at b.
        let u = rng.f64() * (a + b) / 2.0;
        let x = if u < a { u } else { b - (2.0 * (b - a) * ((a + b) / 2.0 - u)).max(0.0).sqrt() };
        Duration::from_micros(x as u64)
    }
}

fn queue_rows(g: &Geometry, seed: u64, quick: bool, t: &mut Tracer) {
    let mut rng = DetRng::seed_from(seed).split(0x0E0E);
    let model = HoldModel::new(g.event_mix, g.gossip.gossip_period);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let resident = g.resident_events.max(16);
    for i in 0..resident {
        queue.push(Time::ZERO + model.remaining(&mut rng), i as u64);
    }
    let hold = |queue: &mut EventQueue<u64>, rng: &mut DetRng| {
        let (at, event) = queue.pop().expect("the population is held constant");
        queue.push(at + model.ahead(rng), black_box(event));
    };
    // Let the calendar tune its day width to this population first.
    for _ in 0..resident.min(100_000) {
        hold(&mut queue, &mut rng);
    }
    let iters = if quick { 20_000 } else { 400_000 };
    isolated(t, "sim.queue_push_pop_ns", iters, |_| hold(&mut queue, &mut rng));

    let base = queue.peek_time().unwrap_or(Time::ZERO);
    let batch = if quick { 2_000 } else { 20_000 };
    let handles: Vec<_> =
        (0..batch).map(|i| queue.push(base + model.ahead(&mut rng), u64::from(i))).collect();
    let mut cancelled = 0usize;
    isolated(t, "sim.queue_cancel_ns", batch, |i| {
        cancelled += usize::from(queue.cancel(handles[i as usize]));
    });
    assert_eq!(cancelled, batch as usize, "every fresh handle cancels exactly once");
}

fn sim_net_rows(g: &Geometry, seed: u64, quick: bool, t: &mut Tracer) {
    let scale = if quick { 10 } else { 1 };
    let mut rng = DetRng::seed_from(seed).split(0x5A3B);
    let fanout = g.gossip.fanout;
    let population = g.membership_len.saturating_sub(1).max(1);
    let mut picked = Vec::new();
    isolated(t, "sim.rng_sample_ns", 200_000 / scale, |_| {
        rng.sample_indices_into(population, fanout, &mut picked);
        black_box(&picked);
    });

    // Partner selection at the workload's membership size, and at the
    // ledger loop's: `on_round` is timed there with only the hosted nodes
    // as members, and [`run`] swaps the one for the other.
    for (name, len) in [
        ("core.view_select_ns", g.membership_len),
        ("ledger.view_select_hosted", hosted_nodes(g, quick)),
    ] {
        let members: Vec<NodeId> = (0..len as u32).map(NodeId::new).collect();
        let mut view = PartnerView::new(g.gossip.refresh_rounds);
        isolated(t, name, 100_000 / scale, |_| {
            black_box(view.select(fanout, &members, NodeId::new(0), &[], &mut rng));
        });
    }

    // A busy capped link in steady state: one message in flight, one or
    // two queued, each iteration offers one and completes one.
    let wire = g.mean_datagram_bytes.max(16);
    let mut link: UploadLink<u64> = UploadLink::new(g.upload_cap_bps, g.max_backlog);
    let mut now = Time::ZERO;
    let _ = link.enqueue(now, wire, 0);
    let _ = link.enqueue(now, wire, 1);
    isolated(t, "net.link_enqueue_complete_ns", 400_000 / scale, |i| {
        black_box(link.enqueue(now, wire, u64::from(i)));
        let (item, next_at) = link.complete_head(now);
        now = next_at.unwrap_or(now);
        black_box(item);
    });

    let sampler = LatencySampler::new(LatencyModel::planetlab_default(), g.n, &mut rng);
    let n = g.n as u32;
    isolated(t, "net.latency_sample_ns", 400_000 / scale, |i| {
        let from = NodeId::new(i % n);
        let to = NodeId::new((i.wrapping_mul(7) + 1) % n);
        black_box(sampler.sample(from, to, &mut rng));
    });
}

fn membership_rows(g: &Geometry, seed: u64, quick: bool, t: &mut Tracer) {
    let scale = if quick { 10 } else { 1 };
    let mut rng = DetRng::seed_from(seed).split(0xC7C1);
    // A closed pool, so a shuffle's target is always hosted here.
    let pool = (g.cyclon.view_size * 2).max(8);
    let ids: Vec<NodeId> = (0..pool as u32).map(NodeId::new).collect();
    let mut views: Vec<CyclonView> = ids
        .iter()
        .map(|&id| {
            let picks = rng.sample_indices(pool, g.cyclon.view_size.min(pool - 1) + 1);
            let bootstrap: Vec<NodeId> =
                picks.into_iter().map(|k| ids[k]).filter(|&p| p != id).collect();
            CyclonView::new(id, g.cyclon, &bootstrap)
        })
        .collect();
    let mut last_request =
        ShuffleMessage::Request(vec![(NodeId::new(1), 0); g.cyclon.shuffle_size]);
    isolated(t, "membership.cyclon_shuffle_ns", 100_000 / scale, |i| {
        let a = i as usize % pool;
        let Some((target, request)) = views[a].on_shuffle_round(&mut rng) else { return };
        if i == 0 {
            last_request = request.clone();
        }
        let b = target.index();
        if let Some(reply) = views[b].on_message(ids[a], request, &mut rng) {
            let _ = views[a].on_message(target, reply, &mut rng);
        }
    });
    isolated(t, "membership.wire_codec_ns", 200_000 / scale, |_| {
        let wire = encode_shuffle(NodeId::new(3), &last_request);
        black_box(decode_shuffle(&wire));
    });
}

fn fec_rows(g: &Geometry, quick: bool, t: &mut Tracer) {
    let params = g.stream.window;
    let len = g.stream.packet_payload_bytes;
    let data: Vec<Vec<u8>> = (0..params.data_packets)
        .map(|i| synth_payload(PacketId::new(1, i as u16), len).to_vec())
        .collect();
    let mut acc = vec![0u8; len];
    let kib_per_call = len as f64 / 1024.0;
    // One span per KiB-equivalent batch keeps the row's unit "per KiB".
    let calls = if quick { 20_000 } else { 200_000 };
    let name = t.name("fec.gf_mul_acc_ns_per_kb");
    let span = t.enter(name, 0);
    for i in 0..calls {
        gf::mul_acc_slice(&mut acc, &data[i % data.len()], (i % 253) as u8 + 2);
    }
    t.exit_calls(span, ((calls as f64 * kib_per_call) as u32).max(1));
    black_box(&acc);

    let encoder = WindowEncoder::new(params).expect("the workload's geometry is valid");
    let rounds = if quick { 5 } else { 40 };
    let mut parity = Vec::new();
    isolated(t, "fec.window_encode_us", rounds, |_| {
        parity = encoder.encode(&data).expect("the data matches the geometry");
    });

    // `r` data erasures: the worst case the code still repairs.
    let erased = params.fec_packets.min(params.data_packets);
    let decoders: Vec<WindowDecoder> = (0..rounds)
        .map(|_| {
            let mut d = WindowDecoder::new(params).expect("valid geometry");
            for (index, shard) in data.iter().chain(&parity).enumerate().skip(erased) {
                d.receive(index, shard.clone());
            }
            d
        })
        .collect();
    let mut decoders = decoders.into_iter();
    isolated(t, "fec.window_reconstruct_us", rounds, |_| {
        let decoded = decoders.next().expect("one decoder per round").reconstruct();
        assert!(decoded.is_ok_and(|d| d == data), "reconstruction must return the data");
    });
}

fn stream_rows(g: &Geometry, quick: bool, t: &mut Tracer) {
    // A player that saw every packet of the measured windows.
    let mut player = StreamPlayer::new(g.stream);
    let windows = g.measured_windows.max(1);
    for w in 0..=windows {
        for index in 0..g.stream.window.total_packets() {
            player.on_packet(Time::from_millis(u64::from(w) * 10), PacketId::new(w, index as u16));
        }
    }
    isolated(t, "stream.quality_from_player_us", if quick { 200 } else { 2_000 }, |_| {
        black_box(NodeQuality::from_player(&player, &g.stream, Time::ZERO, 1, windows));
    });
}

fn adversity_rows(g: &Geometry, seed: u64, t: &mut Tracer) {
    isolated(t, "adversity.compile_ms", 5, |i| {
        black_box(g.adversity.compile(g.n, seed + u64::from(i)));
    });
}

fn telemetry_rows(quick: bool, t: &mut Tracer) {
    // A registry the size a two-shard run registers.
    let registry = Registry::new();
    let mut cells = Vec::new();
    for shard in 0..2 {
        let labels = [("shard", shard.to_string())];
        for k in 0..24 {
            let name = format!("benchmark_ledger_counter_{k}");
            cells.push(registry.counter(&name, "ledger filler", &labels));
        }
        for phase in ["timers", "ingress", "flush", "park"] {
            let labels = [("shard", shard.to_string()), ("phase", phase.to_string())];
            registry
                .histogram("benchmark_ledger_phase_seconds", "ledger filler", &labels)
                .observe_micros(7);
        }
    }
    let cell = cells[0].clone();
    isolated(t, "telemetry.cell_add_ns", if quick { 100_000 } else { 2_000_000 }, |i| {
        cell.add(u64::from(i & 1));
    });
    black_box(cell.get());
    isolated(t, "telemetry.render_us", if quick { 50 } else { 500 }, |_| {
        black_box(gossip::telemetry::render(&registry));
    });
}

/// One blocking send + receive through two loopback UDP sockets.
fn kernel_row(g: &Geometry, quick: bool, t: &mut Tracer) -> Result<(), String> {
    let bind = || UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| format!("loopback bind: {e}"));
    let (tx, rx) = (bind()?, bind()?);
    let to = rx.local_addr().map_err(|e| e.to_string())?;
    let payload = vec![0xA5u8; g.mean_datagram_bytes.clamp(1, 60_000)];
    let mut buf = vec![0u8; 65_536];
    let mut error = None;
    isolated(t, "kernel.loopback_send_recv_ns", if quick { 2_000 } else { 50_000 }, |_| {
        let result = tx.send_to(&payload, to).and_then(|_| rx.recv_from(&mut buf));
        if let Err(e) = result {
            error.get_or_insert(e.to_string());
        }
    });
    error.map_or(Ok(()), |e| Err(format!("loopback round trip: {e}")))
}

/// Runs the whole traced pass and writes `<out_dir>/trace_<workload>.json`.
pub fn run(g: &Geometry, seed: u64, quick: bool, out_dir: &Path, workload: &str) -> LedgerPass {
    let budget = if quick { 40_000 } else { 250_000 };
    let mut tracer = Tracer::new(budget + 64);
    let (loop_stats, mut failures) = ledger_loop(g, seed, quick, &mut tracer, budget);
    queue_rows(g, seed, quick, &mut tracer);
    sim_net_rows(g, seed, quick, &mut tracer);
    membership_rows(g, seed, quick, &mut tracer);
    fec_rows(g, quick, &mut tracer);
    stream_rows(g, quick, &mut tracer);
    adversity_rows(g, seed, &mut tracer);
    telemetry_rows(quick, &mut tracer);
    if let Err(e) = kernel_row(g, quick, &mut tracer) {
        failures.push(e);
    }

    let summary = tracer.summary();
    let calibration = tracer.calibration_ns();
    let mut timed = Samples::default();
    let mut set = |metric: &'static str, span: &str, scale: f64| {
        let (ns, calls) =
            summary.get(span).and_then(|s| s.ns_per_call(calibration)).unwrap_or((0.0, 0));
        timed.set(metric, Some(ns * scale), calls);
    };
    // Ledger-loop rows: the metric is the span name plus its unit suffix.
    for (metric, span) in [
        ("core.on_timer_ns", "core.on_timer"),
        ("core.poll_output_ns", "core.poll_output"),
        ("core.on_message_propose_ns", "core.on_message_propose"),
        ("core.on_message_request_ns", "core.on_message_request"),
        ("core.on_message_serve_ns", "core.on_message_serve"),
        ("core.on_frame_propose_ns", "core.on_frame_propose"),
        ("core.on_frame_request_ns", "core.on_frame_request"),
        ("core.on_frame_serve_ns", "core.on_frame_serve"),
        ("core.wire_encode_ns", "core.wire_encode"),
        ("core.wire_decode_frame_ns", "core.wire_decode_frame"),
        ("core.wire_decode_message_ns", "core.wire_decode_message"),
        ("stream.source_poll_ns_per_packet", "stream.source_poll"),
        ("stream.packet_verify_ns", "stream.packet_verify"),
        ("stream.player_on_packet_ns", "stream.player_on_packet"),
        ("reactor.demux_append_frame_ns", "reactor.demux_append_frame"),
        ("reactor.demux_frames_ns", "reactor.demux_frames"),
    ] {
        set(metric, span, 1.0);
    }
    // Isolated rows are recorded under their metric name.
    for metric in [
        "sim.queue_push_pop_ns",
        "sim.queue_cancel_ns",
        "sim.rng_sample_ns",
        "net.link_enqueue_complete_ns",
        "net.latency_sample_ns",
        "core.view_select_ns",
        "fec.gf_mul_acc_ns_per_kb",
        "membership.cyclon_shuffle_ns",
        "membership.wire_codec_ns",
        "telemetry.cell_add_ns",
        "kernel.loopback_send_recv_ns",
    ] {
        set(metric, metric, 1.0);
    }
    for metric in [
        "fec.window_encode_us",
        "fec.window_reconstruct_us",
        "stream.quality_from_player_us",
        "telemetry.render_us",
    ] {
        set(metric, metric, 1e-3);
    }
    set("adversity.compile_ms", "adversity.compile_ms", 1e-6);
    // `on_round` ran with the hosted nodes as its whole membership: replace
    // that partner selection by one over the workload's real membership.
    let ns_of = |span: &str| summary.get(span).and_then(|s| s.ns_per_call(calibration));
    let (round_ns, rounds) = ns_of("core.on_round").unwrap_or((0.0, 0));
    let select_hosted = ns_of("ledger.view_select_hosted").map_or(0.0, |s| s.0);
    let select_real = timed.get("core.view_select_ns").unwrap_or(0.0);
    timed.set("core.on_round_ns", Some((round_ns - select_hosted).max(0.0) + select_real), rounds);
    // One shaped datagram costs one offer and one successful pop.
    let (offer, pop) = (ns_of("udp.shaper_offer"), ns_of("udp.shaper_pop"));
    timed.set(
        "udp.shaper_offer_pop_ns",
        Some(offer.map_or(0.0, |o| o.0) + pop.map_or(0.0, |p| p.0)),
        offer.map_or(0, |o| o.1),
    );

    let path = out_dir.join(format!("trace_{workload}.json"));
    let written = tracer.write_json(&path, workload);
    if let Err(e) = &written {
        failures.push(format!("cannot write {}: {e}", path.display()));
    }
    let detail = Json::obj([
        ("file", Json::str(path.display().to_string())),
        ("spans", Json::Num(tracer.len() as f64)),
        ("empty_span_ns", Json::Num(calibration as f64)),
        ("ledger_nodes", Json::Num(loop_stats.nodes as f64)),
        ("ledger_virtual_ms", Json::Num(loop_stats.virtual_ms as f64)),
        ("ledger_frames_delivered", Json::Num(loop_stats.frames_delivered as f64)),
        ("ledger_packets_published", Json::Num(loop_stats.packets_published as f64)),
        ("ledger_events_delivered", Json::Num(loop_stats.events_delivered as f64)),
    ]);
    LedgerPass { timed, failures, detail }
}

/// Builds the cost ledger: every attributed row's ns per call times its
/// calls per unit, against the measured CPU per unit.
pub fn build(runtime: Runtime, counts: &Counts, layers: &Samples, measured_ns: f64) -> Ledger {
    let units = counts.units.max(1);
    let p = &counts.protocol;
    let offered = counts.msgs_sent + counts.msgs_dropped;
    // Every request arms one retransmission timer, and every timer fires.
    let timers_fired = p.requests_sent;
    // Every handler invocation ends in a drain, and every output is one
    // more `poll_output` call.
    let invocations = p.rounds
        + p.proposes_received
        + p.requests_received
        + p.serves_received
        + p.feedmes_received
        + timers_fired
        + counts.packets_published;
    let outputs = counts.protocol_msgs_sent() + p.events_delivered + timers_fired;

    // `(row, calls over the whole run, the row it runs inside)`.
    type Row = (&'static str, u64, Option<&'static str>);
    let per_runtime: &[Row] = match runtime {
        Runtime::Sim => &[
            ("sim.queue_push_pop_ns", units, None),
            ("net.link_enqueue_complete_ns", offered, None),
            ("net.latency_sample_ns", counts.msgs_received, None),
            ("core.on_message_propose_ns", p.proposes_received, None),
            ("core.on_message_request_ns", p.requests_received, None),
            ("core.on_message_serve_ns", p.serves_received, None),
            ("membership.cyclon_shuffle_ns", counts.shuffle_rounds, None),
        ],
        Runtime::Live => &[
            ("reactor.demux_frames_ns", units, None),
            ("core.wire_decode_frame_ns", units, None),
            ("core.on_frame_propose_ns", p.proposes_received, None),
            ("core.on_frame_request_ns", p.requests_received, None),
            ("core.on_frame_serve_ns", p.serves_received, None),
            ("core.wire_encode_ns", offered, None),
            ("udp.shaper_offer_pop_ns", offered, None),
            ("reactor.demux_append_frame_ns", counts.msgs_sent, None),
        ],
    };
    let shared: [Row; 8] = [
        ("core.on_round_ns", p.rounds, None),
        ("core.view_select_ns", p.rounds, Some("core.on_round_ns")),
        ("sim.rng_sample_ns", p.rounds, Some("core.view_select_ns")),
        ("core.on_timer_ns", timers_fired, None),
        ("core.poll_output_ns", invocations + outputs, None),
        ("stream.packet_verify_ns", p.events_delivered, None),
        ("stream.player_on_packet_ns", p.events_delivered, None),
        ("stream.source_poll_ns_per_packet", counts.packets_published, None),
    ];
    let to_row = |&(name, calls, nested_in): &Row| LedgerRow {
        name,
        ns_per_call: layers.get(name).unwrap_or(0.0),
        per_unit: calls as f64 / units as f64,
        nested_in,
    };
    // A reference, not an attribution: what the run's number of send and
    // receive syscalls costs as plain std-socket round trips.
    let reference = counts.shard.map(|io| {
        to_row(&("kernel.loopback_send_recv_ns", (io.send_syscalls + io.recv_syscalls) / 2, None))
    });
    Ledger {
        unit: match runtime {
            Runtime::Sim => "event",
            Runtime::Live => "datagram",
        },
        rows: per_runtime.iter().chain(&shared).map(to_row).collect(),
        reference,
        measured_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip::fec::WindowParams;

    fn small_geometry() -> Geometry {
        Geometry {
            n: 16,
            membership_len: 16,
            gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(100)),
            stream: StreamConfig {
                rate_bps: 200_000,
                packet_payload_bytes: 500,
                window: WindowParams::new(10, 3),
            },
            upload_cap_bps: Some(2_000_000),
            max_backlog: Duration::from_secs(5),
            cyclon: CyclonConfig { view_size: 8, shuffle_size: 4 },
            resident_events: 500,
            event_mix: [0.4, 0.4, 0.1, 0.1],
            measured_windows: 4,
            adversity: AdversitySpec::none(),
            mean_datagram_bytes: 200,
        }
    }

    #[test]
    fn ledger_loop_disseminates_and_both_handler_paths_agree() {
        let mut tracer = Tracer::new(40_064);
        let (stats, failures) = ledger_loop(&small_geometry(), 3, true, &mut tracer, 40_000);
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(stats.nodes, 8);
        assert!(stats.packets_published > 0);
        assert!(stats.frames_delivered > 0);
        // The stream actually spread: receivers delivered most of it.
        assert!(
            stats.events_delivered * 2 > stats.packets_published * 7,
            "{} of {} x 7",
            stats.events_delivered,
            stats.packets_published
        );
        let summary = tracer.summary();
        for name in [
            "core.on_round",
            "core.on_frame_propose",
            "core.on_message_serve",
            "core.wire_encode",
            "stream.player_on_packet",
            "reactor.demux_frames",
            "udp.shaper_offer",
        ] {
            assert!(summary.get(name).is_some_and(|s| s.calls > 0), "no span named {name}");
        }
        // Every datagram span is a child of a step span.
        let datagram =
            tracer.spans().iter().find(|s| s.parent != u32::MAX).expect("nested spans exist");
        assert!(datagram.end_ns >= datagram.start_ns);
    }

    #[test]
    fn hold_model_prefill_matches_the_steady_state_population() {
        // Pushes: 90 % short (1–15 ms), 10 % timers (4–8 s). Residents are
        // weighted by how long they wait, so timers dominate the queue.
        let model = HoldModel::new([0.9, 0.0, 0.0, 0.1], Duration::from_millis(200));
        let mut rng = DetRng::seed_from(9);
        let n = 20_000;
        let far_pushes = (0..n).filter(|_| model.ahead(&mut rng) > Duration::from_secs(1)).count();
        assert!((1_600..2_400).contains(&far_pushes), "{far_pushes} far pushes of {n}");
        let remaining: Vec<Duration> = (0..n).map(|_| model.remaining(&mut rng)).collect();
        let far = remaining.iter().filter(|d| **d > Duration::from_millis(15)).count();
        // 0.1 × 6 s against 0.9 × 8 ms: ≈ 98.8 % of residents are timers.
        assert!(far > n * 97 / 100, "{far} far residents of {n}");
        assert!(remaining.iter().all(|d| *d < Duration::from_secs(8)));
        // Residual life is front-loaded: more timers have < 4 s left than ≥ 4 s.
        let late = remaining.iter().filter(|d| **d >= Duration::from_secs(4)).count();
        assert!(late * 2 < far, "{late} of {far} residents beyond the RTO floor");
    }

    #[test]
    fn build_multiplies_rows_by_their_frequency() {
        let mut counts =
            Counts { units: 100, msgs_sent: 50, msgs_received: 40, ..Counts::default() };
        counts.protocol.rounds = 10;
        let mut layers = Samples::default();
        layers.set("sim.queue_push_pop_ns", Some(200.0), 1);
        layers.set("core.on_round_ns", Some(1000.0), 1);
        layers.set("core.view_select_ns", Some(300.0), 1);
        layers.set("net.link_enqueue_complete_ns", Some(20.0), 1);
        let ledger = build(Runtime::Sim, &counts, &layers, 500.0);
        assert_eq!(ledger.unit, "event");
        // 200×1 + 1000×0.1 + 20×0.5; the nested view_select is not summed.
        assert_eq!(ledger.attributed_ns(), 310.0);
        assert_eq!(ledger.residual_ns(), 190.0);
        assert!(ledger
            .rows
            .iter()
            .any(|r| r.name == "core.view_select_ns" && r.nested_in.is_some()));
    }
}
