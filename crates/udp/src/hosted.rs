//! One node's life on a host, written once for every host.
//!
//! A [`HostedNode`] bundles the protocol state machine with its stream
//! player, upload path, membership view and adversity profile, and owns
//! every rule a host applies around the protocol: construction, the inbound
//! gate, output routing, crash, revive and throttle; [`apply`] is the one
//! interpreter of the compiled fault timeline. A host is a clock, a
//! transport and a loop: it supplies its deadline queue and what it does
//! with a send ([`Host`]), its census and how it restarts a node
//! ([`FaultHost`]). The simulator and the reactor's shards host the same
//! node, so no rule can mean different things on the two — the throttle
//! included: a node uploads through one [`UploadLink`] on every host, the
//! simulator delivering what it completes, a shard handing the kernel what
//! it starts. Both links queue the same item, an [`Envelope`] — a protocol
//! message or a membership shuffle — charged at its encoded size: the
//! simulator delivers it as it is, a shard encodes it as it is released.
//!
//! Payloads live once per host. Every host keeps one
//! [`PacketPool`](gossip_core::PacketPool), fills it from
//! [`Host::delivered`] — the intact, in-geometry deliveries [`HostedNode::route`]
//! reports — prunes it once a gossip period, and lends it with every
//! message it hands a node: the simulator through [`HostedNode::on_message`],
//! a shard on the frame ([`Frame::with_pool`]). A node keeps an 8-byte
//! word per id and serves what the pool held equal at delivery from the
//! pool; it keeps its own copy only of the rest (see `gossip_core::pool`).

use std::sync::Arc;

use gossip_adversity::{
    ByzantineBehaviour, CompiledAdversity, FaultAction, NodeProfile, PartitionState,
};
use gossip_core::wire::{encode_message, EventPool, Frame, FrameKind};
use gossip_core::{GossipConfig, GossipNode, Message, Output, TimerToken};
use gossip_membership::{wire as shuffle_wire, CyclonConfig, CyclonView, ShuffleMessage};
use gossip_net::UploadLink;
use gossip_sim::{DetRng, EventHandle};
use gossip_stream::{byzantine, StreamConfig, StreamPacket, StreamPlayer, StreamSource};
use gossip_types::{Duration, NodeId, Time};

/// What a hosted node's upload link queues, on every host: a protocol
/// message or, under Cyclon, a membership shuffle.
#[derive(Debug)]
pub enum Envelope {
    /// A gossip protocol message.
    Gossip(Message<StreamPacket>),
    /// A Cyclon shuffle request or reply.
    Shuffle(ShuffleMessage),
}

impl Envelope {
    /// Application bytes charged against the sender's upload budget:
    /// exactly the length of [`Envelope::encode`], so a host paces by it
    /// without encoding first.
    pub fn wire_size(&self) -> usize {
        match self {
            Envelope::Gossip(msg) => msg.wire_size(),
            // tag + sender + count + 8 bytes per (node, age) entry
            Envelope::Shuffle(
                ShuffleMessage::Request(entries) | ShuffleMessage::Reply(entries),
            ) => 7 + entries.len() * 8,
        }
    }

    /// The envelope's datagram bytes, sent by `sender`.
    pub fn encode(&self, sender: NodeId) -> Vec<u8> {
        match self {
            Envelope::Gossip(msg) => encode_message(sender, msg),
            Envelope::Shuffle(msg) => shuffle_wire::encode_shuffle(sender, msg),
        }
    }
}

/// What a host does with a hosted node's outputs, called by
/// [`HostedNode::route`] in the order the node emitted them.
pub trait Host {
    /// Puts `msg` from `from` (in incarnation `epoch`) on its upload link,
    /// bound for `to`.
    fn send(
        &mut self,
        now: Time,
        from: NodeId,
        epoch: u32,
        link: &mut UploadLink<(NodeId, Envelope)>,
        to: NodeId,
        msg: Message<StreamPacket>,
    );
    /// Observes an intact delivery at `at`, which its player just counted:
    /// what a host's packet pool is filled from.
    fn delivered(&mut self, now: Time, at: NodeId, packet: StreamPacket);
    /// Queues `node`'s retransmission timer `token`, armed in incarnation
    /// `epoch`, for `at`; returns its handle.
    fn arm(&mut self, at: Time, node: NodeId, epoch: u32, token: TimerToken) -> EventHandle;
    /// Takes a deadline the node no longer needs out of the queue.
    fn cancel(&mut self, handle: EventHandle);
}

/// The run-wide parameters every hosted node is built from.
#[derive(Debug, Clone, Copy)]
pub struct Setup<'a> {
    /// The protocol configuration.
    pub gossip: &'a GossipConfig,
    /// The stream the source publishes and every player watches.
    pub stream: StreamConfig,
    /// How long the source publishes.
    pub stream_duration: Duration,
    /// The run's seed.
    pub seed: u64,
    /// Whether the source is exempt from the upload cap.
    pub source_uncapped: bool,
}

/// One node as a host runs it (see the module docs). Every input is
/// followed by one [`HostedNode::route`]. Its messages travel its link as
/// `(destination, envelope)`; `P` is what the host keeps beside them.
#[derive(Debug)]
pub struct HostedNode<P> {
    /// The protocol state machine; a revive replaces it.
    pub node: GossipNode<StreamPacket>,
    /// What the viewer watched: survives crashes.
    pub player: StreamPlayer,
    /// The node's upload limiter.
    pub link: UploadLink<(NodeId, Envelope)>,
    /// The host's own per-node state.
    pub port: P,
    /// The Cyclon partial view of a node whose partners come from one.
    pub view: Option<CyclonView>,
    /// The stream source, on node 0 only (boxed: the other nodes pay a
    /// pointer for it).
    source: Option<Box<StreamSource>>,
    stream_end: Time,
    byzantine: Option<ByzantineBehaviour>,
    /// The node's own upload cap, restored when a throttle ends.
    base_cap: Option<u64>,
    down: bool,
    /// Bumped on every crash; deadlines carry the epoch they were armed in.
    epoch: u32,
    seed: u64,
}

impl<P> HostedNode<P> {
    /// Builds node `id`: the source if it is node 0; a free-rider if its
    /// profile says so; down until its join if it is a flash-crowd joiner.
    /// Its link is capped at none for a provisioned source, else the
    /// profile's class override, else `uniform_cap`, and absorbs
    /// `max_backlog` of wire time before it drops.
    pub fn new(
        id: NodeId,
        setup: &Setup<'_>,
        profile: NodeProfile,
        members: Arc<[NodeId]>,
        uniform_cap: Option<u64>,
        max_backlog: Duration,
        port: P,
    ) -> Self {
        let is_source = id == NodeId::new(0);
        let gossip = setup.gossip.clone();
        let mut node = if is_source {
            GossipNode::new_source(id, gossip, Vec::new(), setup.seed)
        } else {
            GossipNode::new(id, gossip, Vec::new(), setup.seed)
        };
        node.set_membership(members);
        node.set_free_rider(profile.free_rider);
        let cap = if is_source && setup.source_uncapped {
            None
        } else {
            profile.resolve_cap(uniform_cap)
        };
        HostedNode {
            node,
            player: StreamPlayer::new(setup.stream),
            link: UploadLink::new(cap, max_backlog),
            port,
            view: None,
            source: is_source.then(|| Box::new(StreamSource::new(setup.stream, Time::ZERO))),
            stream_end: Time::ZERO + setup.stream_duration,
            byzantine: profile.byzantine,
            base_cap: cap,
            down: profile.join_at.is_some(),
            epoch: 0,
            seed: setup.seed,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Whether the node publishes the stream.
    pub fn is_source(&self) -> bool {
        self.source.is_some()
    }

    /// Whether the node is crashed, or a joiner that has not joined: it
    /// fires nothing, sends nothing and takes nothing.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The node's incarnation counter.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether a deadline armed in incarnation `epoch` may still fire.
    pub fn is_current(&self, epoch: u32) -> bool {
        !self.down && self.epoch == epoch
    }

    /// Feeds one received message through the inbound gate, lent the
    /// host's packet pool.
    pub fn on_message(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Message<StreamPacket>,
        pool: &dyn EventPool<StreamPacket>,
    ) {
        if self.admits(matches!(msg, Message::Request { .. })) {
            self.node.on_message_pooled(now, from, msg, Some(pool));
        }
    }

    /// Feeds one received wire frame through the inbound gate; the frame
    /// carries the host's pool ([`Frame::with_pool`]).
    pub fn on_frame(&mut self, now: Time, frame: &Frame<'_, StreamPacket>) {
        if self.admits(frame.kind() == FrameKind::Request) {
            self.node.on_frame(now, frame);
        }
    }

    /// The inbound gate: a down node takes nothing, and a request-eater
    /// silently ignores pulls (the requester's timer retries elsewhere).
    fn admits(&self, request: bool) -> bool {
        let eaten = request && self.byzantine == Some(ByzantineBehaviour::EatRequests);
        !(self.down || eaten)
    }

    /// Publishes what the source has due at `now`; returns when it is next
    /// due, `None` once the stream is over — or the node is down: a crashed
    /// source publishes nothing.
    pub fn emit(&mut self, now: Time) -> Option<Time> {
        if self.down || now > self.stream_end {
            return None;
        }
        let source = self.source.as_mut()?;
        let packets = source.poll(now);
        let next = source.next_packet_at();
        for packet in packets {
            self.node.publish(now, packet);
        }
        (next <= self.stream_end).then_some(next)
    }

    /// Hands the node's pending outputs to `host`, then the deadlines it no
    /// longer needs. A Byzantine node runs honest code; its *sends* are
    /// what its host corrupts ([`gossip_stream::byzantine`]). Only an intact
    /// delivery of the stream reaches the player and the host: a poisoned
    /// one an undefended node accepted is garbage on screen, not a viewed
    /// window, and one past the window's last index is no packet of the
    /// stream at all, however valid its checksum (which is unkeyed: anyone
    /// can forge one).
    pub fn route(&mut self, now: Time, host: &mut impl Host) {
        let id = self.node.id();
        let total = self.player.config().window.total_packets();
        while let Some(out) = self.node.poll_output() {
            match out {
                Output::Send { to, msg } => {
                    let msg = match self.byzantine {
                        Some(ByzantineBehaviour::ServeCorrupt) => byzantine::corrupt_serves(msg),
                        Some(ByzantineBehaviour::ProposeGarbage) => byzantine::garble_proposes(msg),
                        _ => msg,
                    };
                    host.send(now, id, self.epoch, &mut self.link, to, msg);
                }
                Output::Deliver { event } => {
                    let in_geometry = usize::from(event.packet_id().index) < total;
                    if in_geometry && self.node.delivery_intact(&event) {
                        self.player.on_packet(now, event.packet_id());
                        host.delivered(now, id, event);
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    let handle = host.arm(at, id, self.epoch, token);
                    self.node.attach_timer_handle(token, handle);
                }
            }
        }
        while let Some(handle) = self.node.poll_cancelled() {
            host.cancel(handle);
        }
    }

    /// Points partner selection at the node's live partial view, if any.
    pub fn follow_view(&mut self) {
        if let Some(view) = &self.view {
            let mut members = view.view();
            members.push(self.node.id()); // `set_membership` takes self present or absent alike
            self.node.set_membership(members);
        }
    }

    /// Takes the node down: the protocol state ends its incarnation
    /// ([`GossipNode::crash`]: id table, payloads, timers — shared buffers
    /// must not stay pinned by a node that never prunes again — keeping
    /// the counters), the link's backlog and the view go, and the epoch
    /// moves on. Returns the timers' deadlines for the host to cancel. A
    /// down node is left alone.
    pub fn crash(&mut self) -> Vec<EventHandle> {
        if self.down {
            return Vec::new();
        }
        self.down = true;
        self.epoch += 1;
        self.link.crash();
        self.view = None;
        self.node.crash()
    }

    /// Brings a crashed node back with fresh protocol state, drawing
    /// partners from `members`. The player's history survives, and so does
    /// who the node is: a free-rider stays one.
    pub fn revive(&mut self, members: Arc<[NodeId]>) {
        debug_assert!(self.down, "revive of a live node");
        let id = self.node.id();
        let mut node = GossipNode::new(id, self.node.config().clone(), Vec::new(), self.seed);
        node.set_membership(members);
        node.set_free_rider(self.node.is_free_rider());
        self.node = node;
        self.down = false;
    }

    /// Brings a joiner up for the first time, drawing partners from
    /// `members`.
    pub fn join(&mut self, members: Arc<[NodeId]>) {
        debug_assert!(self.down, "double join of {}", self.node.id());
        self.node.set_membership(members);
        self.down = false;
    }

    /// Forces the upload cap to `cap` (a throttle starts).
    pub fn throttle(&mut self, cap: Option<u64>) {
        self.link.set_rate(cap);
    }

    /// Restores the node's own upload cap — class override included, not
    /// the run's uniform cap (a throttle ends).
    pub fn unthrottle(&mut self) {
        self.link.set_rate(self.base_cap);
    }
}

/// A fresh Cyclon view for `who`, bootstrapped with `degree` peers drawn
/// from `members` (`who` excluded) — how every host seeds a partial view.
pub fn bootstrap_view(
    who: NodeId,
    config: CyclonConfig,
    members: &[NodeId],
    degree: usize,
    rng: &mut DetRng,
) -> CyclonView {
    let candidates: Vec<NodeId> = members.iter().copied().filter(|&m| m != who).collect();
    let picked = rng.sample_indices(candidates.len(), degree);
    let bootstrap: Vec<NodeId> = picked.into_iter().map(|k| candidates[k]).collect();
    CyclonView::new(who, config, &bootstrap)
}

/// What a host supplies to [`apply`].
pub trait FaultHost {
    /// What the host keeps per node beside the link.
    type Port;
    /// The compiled plan being applied.
    fn compiled(&self) -> &CompiledAdversity;
    /// Which partitions split the network.
    fn partition(&mut self) -> &mut PartitionState;
    /// Node `v`, if this host hosts it.
    fn hosted(&mut self, v: NodeId) -> Option<&mut HostedNode<Self::Port>>;
    /// Takes a crashed node's deadline out of the queue.
    fn cancel(&mut self, handle: EventHandle);
    /// The census: every node the host knows of, base nodes first, then
    /// joiners in join order. Revived and joining nodes draw partners
    /// from it.
    fn census(&mut self) -> &mut Arc<[NodeId]>;
    /// The host's peer sampling: the Cyclon view configuration, the
    /// bootstrap degree and the RNG every view is drawn from — or `None`
    /// under full membership, where a joiner is announced to every node at
    /// once (a tracker).
    fn sampling(&mut self) -> Option<(CyclonConfig, usize, &mut DetRng)>;
    /// Arms the recurring deadlines of hosted node `v`, just come up.
    fn start(&mut self, now: Time, v: NodeId);
}

/// Applies one fault of the compiled timeline: crash, rejoin and throttles
/// act on the nodes `host` hosts, a join grows every host's census, a
/// partition splits the whole network.
///
/// The join rule is the same on every host: the census grows by the
/// joiner; under a tracker every hosted node learns it at once (a
/// membership list is shared, so that is a reference count per node); under
/// Cyclon nobody is told and the joiner's shuffles carry its id. A node
/// that comes up — a joiner or a revived crash victim — draws partners from
/// the census, and under Cyclon first draws a fresh partial view from it,
/// like any newcomer ([`draw_view`]), before the host arms its deadlines.
pub fn apply(host: &mut impl FaultHost, now: Time, action: FaultAction) {
    match action {
        FaultAction::Crash(v) => {
            let cancelled = host.hosted(v).map(HostedNode::crash).unwrap_or_default();
            for handle in cancelled {
                host.cancel(handle);
            }
        }
        FaultAction::Rejoin(v) => {
            let members = Arc::clone(host.census());
            if let Some(node) = host.hosted(v).filter(|node| node.is_down()) {
                node.revive(Arc::clone(&members));
                draw_view(host, v, &members);
                host.start(now, v);
            }
        }
        FaultAction::Join(v) => {
            let census = host.census();
            *census = census.iter().copied().chain([v]).collect();
            let members = Arc::clone(census);
            if host.sampling().is_none() {
                for &m in members.iter().filter(|&&m| m != v) {
                    if let Some(node) = host.hosted(m) {
                        node.node.set_membership(Arc::clone(&members));
                    }
                }
            }
            if let Some(node) = host.hosted(v) {
                node.join(Arc::clone(&members));
                draw_view(host, v, &members);
                host.start(now, v);
            }
        }
        FaultAction::Partition(_) | FaultAction::Heal(_) => host.partition().on_event(action),
        FaultAction::ThrottleStart(t) | FaultAction::ThrottleEnd(t) => {
            let plan = &host.compiled().throttles[t as usize];
            let (cap, victims) = (plan.cap_bps, plan.victims.clone());
            for v in victims {
                match (host.hosted(v), action) {
                    (Some(node), FaultAction::ThrottleStart(_)) => node.throttle(cap),
                    (Some(node), _) => node.unthrottle(),
                    (None, _) => {}
                }
            }
        }
    }
}

/// Gives hosted node `v` a fresh partial view drawn from `members` when
/// `host` samples peers (Cyclon); under a tracker it draws nothing.
pub fn draw_view(host: &mut impl FaultHost, v: NodeId, members: &[NodeId]) {
    if let Some((config, degree, rng)) = host.sampling() {
        let view = bootstrap_view(v, config, members, degree, rng);
        if let Some(node) = host.hosted(v) {
            node.view = Some(view);
        }
    }
}

#[cfg(test)]
mod tests {
    use gossip_core::{Event, PacketPool};
    use gossip_fec::WindowParams;
    use gossip_sim::EventQueue;
    use gossip_stream::PacketId;

    use super::*;

    /// A host that records every output it is handed, and puts each send on
    /// the sender's link as a one-byte feed-me. It pools what its nodes
    /// deliver intact, as every host does.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(NodeId, Message<StreamPacket>)>,
        delivered: Vec<PacketId>,
        pool: PacketPool<StreamPacket>,
        queue: EventQueue<TimerToken>,
        armed: Vec<EventHandle>,
        cancelled: Vec<EventHandle>,
    }

    impl Host for Recorder {
        fn send(
            &mut self,
            now: Time,
            _: NodeId,
            _: u32,
            link: &mut UploadLink<(NodeId, Envelope)>,
            to: NodeId,
            msg: Message<StreamPacket>,
        ) {
            link.enqueue(now, 1, (to, Envelope::Gossip(Message::FeedMe)));
            self.sent.push((to, msg));
        }

        fn delivered(&mut self, now: Time, _: NodeId, packet: StreamPacket) {
            self.delivered.push(packet.packet_id());
            self.pool.insert(packet, now);
        }

        fn arm(&mut self, at: Time, _: NodeId, _: u32, token: TimerToken) -> EventHandle {
            let handle = self.queue.push(at, token);
            self.armed.push(handle);
            handle
        }

        fn cancel(&mut self, handle: EventHandle) {
            self.cancelled.push(handle);
        }
    }

    const UNIFORM_CAP: Option<u64> = Some(700_000);
    const PEER: NodeId = NodeId::new(2);

    /// Node `id` of a four-node run, with `profile` and, when `verify` is
    /// off, no payload validation of its own.
    fn hosted(id: u32, profile: NodeProfile, verify: bool) -> HostedNode<()> {
        let gossip = GossipConfig::new(3).with_verify_payloads(verify);
        let setup = Setup {
            gossip: &gossip,
            stream: StreamConfig {
                rate_bps: 200_000,
                packet_payload_bytes: 100,
                window: WindowParams::new(10, 3),
            },
            stream_duration: Duration::from_secs(10),
            seed: 7,
            source_uncapped: true,
        };
        let members: Arc<[NodeId]> = (0..4).map(NodeId::new).collect();
        let backlog = Duration::from_secs(1);
        HostedNode::new(NodeId::new(id), &setup, profile, members, UNIFORM_CAP, backlog, ())
    }

    fn byzantine(behaviour: ByzantineBehaviour) -> NodeProfile {
        NodeProfile { byzantine: Some(behaviour), ..NodeProfile::default() }
    }

    fn packet(index: u16) -> StreamPacket {
        StreamPacket::new(PacketId::new(0, index), Time::ZERO, vec![index as u8; 100].into())
    }

    /// `from` proposes `packet`, the node requests it, `from` serves it.
    fn fetch(node: &mut HostedNode<()>, host: &mut Recorder, packet: StreamPacket) {
        let ids: Arc<[PacketId]> = vec![packet.packet_id()].into();
        node.on_message(Time::ZERO, PEER, Message::Propose { ids }, &host.pool);
        node.route(Time::ZERO, host);
        node.on_message(Time::ZERO, PEER, Message::Serve { events: vec![packet] }, &host.pool);
        node.route(Time::ZERO, host);
    }

    /// Node 3 requests `id`, lending `pool`; returns what the node serves.
    fn served(
        node: &mut HostedNode<()>,
        host: &mut Recorder,
        id: PacketId,
        pool: &dyn EventPool<StreamPacket>,
    ) -> Vec<StreamPacket> {
        let ids: Arc<[PacketId]> = vec![id].into();
        node.on_message(Time::from_millis(100), NodeId::new(3), Message::Request { ids }, pool);
        node.route(Time::from_millis(100), host);
        match host.sent.pop() {
            Some((_, Message::Serve { events })) => events,
            other => panic!("expected a serve, got {other:?}"),
        }
    }

    /// What the node sends for one propose, one round and one request.
    fn traffic(profile: NodeProfile) -> (HostedNode<()>, Recorder) {
        let (mut node, mut host) = (hosted(1, profile, true), Recorder::default());
        fetch(&mut node, &mut host, packet(0));
        node.node.on_round(Time::from_millis(100));
        node.route(Time::from_millis(100), &mut host);
        let ids: Arc<[PacketId]> = vec![PacketId::new(0, 0)].into();
        let request = Message::Request { ids };
        node.on_message(Time::from_millis(100), NodeId::new(3), request, &host.pool);
        node.route(Time::from_millis(100), &mut host);
        (node, host)
    }

    /// A link charges `wire_size` and a shard encodes only at release: the
    /// two must agree for every shuffle kind and length.
    #[test]
    fn a_shuffle_envelope_charges_its_encoded_length() {
        let sender = NodeId::new(9);
        for entries in [0, 1, 8] {
            let entries: Vec<(NodeId, u32)> = (0..entries).map(|k| (NodeId::new(k), k)).collect();
            for msg in [ShuffleMessage::Request(entries.clone()), ShuffleMessage::Reply(entries)] {
                let encoded = shuffle_wire::encode_shuffle(sender, &msg);
                let envelope = Envelope::Shuffle(msg);
                assert_eq!(envelope.wire_size(), encoded.len(), "{envelope:?}");
                assert_eq!(envelope.encode(sender), encoded);
            }
        }
    }

    #[test]
    fn corruption_reaches_sends_only_and_each_behaviour_its_own_kind() {
        for profile in [
            NodeProfile::default(),
            byzantine(ByzantineBehaviour::ServeCorrupt),
            byzantine(ByzantineBehaviour::ProposeGarbage),
        ] {
            let (node, host) = traffic(profile);
            let mut kinds = [0; 3];
            for (_, msg) in &host.sent {
                match msg {
                    Message::Request { ids } => {
                        kinds[0] += 1;
                        assert_eq!(ids[..], [PacketId::new(0, 0)], "{profile:?}");
                    }
                    Message::Propose { ids } => {
                        kinds[1] += 1;
                        let garbled = ids[0].index >= byzantine::GARBLE_INDEX_BIT;
                        let garbler = profile.byzantine == Some(ByzantineBehaviour::ProposeGarbage);
                        assert_eq!(garbled, garbler, "{profile:?}");
                    }
                    Message::Serve { events } => {
                        kinds[2] += 1;
                        let corrupter = profile.byzantine == Some(ByzantineBehaviour::ServeCorrupt);
                        assert_eq!(events[0].verify(), !corrupter, "{profile:?}");
                    }
                    Message::FeedMe => {}
                }
            }
            assert_eq!(
                kinds,
                [1, 3, 1],
                "{profile:?}: one request, a propose per partner, one serve"
            );
            // The node's own view of the stream is never corrupted.
            assert_eq!(host.delivered, [PacketId::new(0, 0)]);
            assert_eq!(node.player.packets_received(), 1);
            assert!(node.node.stored(&PacketId::new(0, 0)).expect("stored").verify());
        }
    }

    #[test]
    fn a_request_eater_swallows_requests_but_not_proposes() {
        for (eater, serves) in [(false, 1), (true, 0)] {
            let profile = if eater {
                byzantine(ByzantineBehaviour::EatRequests)
            } else {
                NodeProfile::default()
            };
            let (_, host) = traffic(profile);
            let count = |kind: fn(&Message<StreamPacket>) -> bool| {
                host.sent.iter().filter(|(_, msg)| kind(msg)).count()
            };
            assert_eq!(count(|m| matches!(m, Message::Request { .. })), 1, "the propose was taken");
            assert_eq!(count(|m| matches!(m, Message::Serve { .. })), serves, "eater={eater}");
        }
    }

    #[test]
    fn an_undefended_nodes_poisoned_delivery_stays_out_of_its_player() {
        let (mut node, mut host) = (hosted(1, NodeProfile::default(), false), Recorder::default());
        fetch(&mut node, &mut host, packet(0).tampered());
        fetch(&mut node, &mut host, packet(1));
        assert_eq!(node.node.stats().events_delivered, 2, "the node itself does not look");
        assert_eq!(node.player.packets_received(), 1);
        assert_eq!(host.delivered, [PacketId::new(0, 1)], "only the intact packet is observed");
    }

    #[test]
    fn a_forged_packet_past_the_window_stays_out_of_the_player_and_the_host() {
        // Index 14 of a 13-packet window, with a checksum that matches: the
        // node's default horizon admits any 16-bit index, so the node takes
        // it, but it is no packet of this stream.
        let (mut node, mut host) = (hosted(1, NodeProfile::default(), true), Recorder::default());
        let total = node.player.config().window.total_packets();
        let forged = packet(total as u16 + 1);
        assert!(forged.verify());
        node.on_message(Time::ZERO, PEER, Message::Serve { events: vec![forged] }, &host.pool);
        node.route(Time::ZERO, &mut host);
        assert_eq!(node.node.stats().events_delivered, 1, "the node itself does not look");
        assert_eq!(node.player.packets_received(), 0);
        assert!(host.delivered.is_empty(), "the host never sees it");
        fetch(&mut node, &mut host, packet(0));
        assert_eq!(host.delivered, [PacketId::new(0, 0)], "a packet of the stream still gets in");
    }

    /// An undefended node that swallowed a corrupted serve keeps it as its
    /// own copy and serves those bytes, though its host pooled the intact
    /// packet another node delivered.
    #[test]
    fn an_undefended_nodes_corrupted_delivery_is_served_from_its_own_copy() {
        let (mut node, mut host) = (hosted(1, NodeProfile::default(), false), Recorder::default());
        let (intact, id) = (packet(0), PacketId::new(0, 0));
        host.pool.insert(intact.clone(), Time::ZERO);
        fetch(&mut node, &mut host, intact.tampered());
        assert!(host.delivered.is_empty(), "the corrupted delivery is not pooled");
        assert_eq!((node.node.stored_events(), node.node.own_copies()), (1, 1));
        let pool = std::mem::take(&mut host.pool);
        let serve = served(&mut node, &mut host, id, &pool);
        assert_eq!(serve, [intact.tampered()], "its own bytes");
        assert_eq!(pool.lookup(&id), Some(&intact), "while the pool holds the intact packet");
    }

    /// A validating node that accepted a forged packet — a valid checksum
    /// over other bytes — serves the forgery it holds, not the pool's
    /// packet under the same id.
    #[test]
    fn a_validating_node_serves_its_own_copy_of_a_forged_packet() {
        let (mut node, mut host) = (hosted(1, NodeProfile::default(), true), Recorder::default());
        let (pooled, id) = (packet(0), PacketId::new(0, 0));
        host.pool.insert(pooled.clone(), Time::ZERO);
        let forged = StreamPacket::new(id, Time::ZERO, vec![9; 100].into());
        assert!(forged.verify() && forged != pooled);
        fetch(&mut node, &mut host, forged.clone());
        assert_eq!(host.delivered, [id], "the forgery passed every check");
        assert_eq!(node.node.own_copies(), 1);
        let pool = std::mem::take(&mut host.pool);
        assert_eq!(pool.lookup(&id), Some(&pooled), "the pool keeps its first copy");
        assert_eq!(served(&mut node, &mut host, id, &pool), [forged]);
    }

    /// The first node of a host to deliver a packet keeps it — the pool
    /// did not hold it yet — and serves its own copy whatever the pool
    /// holds later; a node that delivers it after leaves it to the pool.
    #[test]
    fn the_first_deliverer_in_a_host_serves_its_own_copy() {
        let mut host = Recorder::default();
        let honest = NodeProfile::default();
        let (mut first, mut second) = (hosted(1, honest, true), hosted(3, honest, true));
        let (packet, id) = (packet(0), PacketId::new(0, 0));
        fetch(&mut first, &mut host, packet.clone());
        fetch(&mut second, &mut host, packet.clone());
        assert_eq!(host.pool.lookup(&id), Some(&packet), "the first delivery was pooled");
        assert_eq!([first.node.own_copies(), second.node.own_copies()], [1, 0]);
        assert_eq!(second.node.stored_events(), 1, "the second still stores it, in the pool");
        let pool = std::mem::take(&mut host.pool);
        assert_eq!(served(&mut second, &mut host, id, &pool), std::slice::from_ref(&packet));

        let mut other = PacketPool::new();
        let forged = StreamPacket::new(id, Time::ZERO, vec![9; 100].into());
        other.insert(forged, Time::ZERO);
        assert_eq!(served(&mut first, &mut host, id, &other), [packet], "its own bytes");
    }

    #[test]
    fn a_crash_bumps_the_epoch_and_drops_payloads_timers_and_backlog() {
        let (mut node, mut host) = (hosted(1, NodeProfile::default(), true), Recorder::default());
        fetch(&mut node, &mut host, packet(0));
        for index in [1, 2] {
            let ids: Arc<[PacketId]> = vec![PacketId::new(0, index)].into();
            node.on_message(Time::ZERO, PEER, Message::Propose { ids }, &host.pool);
            node.route(Time::ZERO, &mut host);
        }
        assert_eq!(host.armed.len(), 3, "a timer per request");
        assert_eq!(host.cancelled, host.armed[..1], "the served request's timer went at once");
        node.view = Some(CyclonView::new(node.id(), Default::default(), &[PEER]));
        assert!(
            node.link.is_busy() && node.link.queue_len() > 0,
            "requests on the wire and queued"
        );

        let mut handed_back = node.crash();
        assert!(node.is_down() && !node.is_current(0) && node.epoch() == 1);
        assert_eq!(node.node.stored_events(), 0, "a down node pins no payload");
        assert_eq!(node.node.recorded_ids(), (0, 0), "nor any id record");
        assert_eq!(node.node.stats().events_delivered, 1, "the counters survive");
        assert!(!node.link.is_busy() && node.link.queue_len() == 0, "the backlog went");
        assert_eq!(node.link.stats().msgs_sent, 0, "and none of it counts as sent");
        assert!(node.view.is_none());
        handed_back.sort_unstable();
        let mut live = host.armed[1..].to_vec();
        live.sort_unstable();
        assert_eq!(handed_back, live, "the crash hands back exactly the live timers' deadlines");
        assert!(node.crash().is_empty() && node.epoch() == 1, "a down node does not crash again");
    }

    #[test]
    fn revive_keeps_the_player_history_and_the_free_rider_flag() {
        let profile = NodeProfile { free_rider: true, ..NodeProfile::default() };
        let (mut node, mut host) = (hosted(1, profile, true), Recorder::default());
        fetch(&mut node, &mut host, packet(0));
        node.crash();
        let members: Arc<[NodeId]> = vec![NodeId::new(0), NodeId::new(1)].into();
        node.revive(Arc::clone(&members));
        assert!(node.is_current(1), "up again, in the incarnation the crash began");
        assert_eq!(node.node.stats().events_delivered, 0, "fresh protocol state");
        assert!(!node.node.has_delivered(&PacketId::new(0, 0)));
        assert_eq!(node.node.membership(), &members[..]);
        assert!(node.node.is_free_rider(), "a free-rider stays one");
        assert_eq!(node.player.packets_received(), 1, "what was watched stays watched");
    }

    #[test]
    fn throttle_end_restores_the_base_cap_not_the_uniform_one() {
        let profile = NodeProfile { cap_bps: Some(Some(100_000)), ..NodeProfile::default() };
        let mut node = hosted(1, profile, true);
        let rate = |node: &HostedNode<()>| node.link.rate_bps();
        assert_eq!(rate(&node), Some(100_000), "the class override wins over the uniform cap");
        node.throttle(Some(10_000));
        assert_eq!(rate(&node), Some(10_000));
        node.unthrottle();
        assert_eq!(rate(&node), Some(100_000));
        assert_eq!(rate(&hosted(0, profile, true)), None, "the source is provisioned");
    }

    #[test]
    fn a_down_source_publishes_nothing() {
        let mut source = hosted(0, NodeProfile::default(), true);
        let next = source.emit(Time::ZERO).expect("the stream runs for ten seconds");
        assert!(source.node.stored_events() > 0);
        source.crash();
        assert_eq!(source.emit(next), None, "the chain ends at the crash");
        assert_eq!(source.node.stored_events(), 0);
        assert_eq!(hosted(1, NodeProfile::default(), true).emit(Time::ZERO), None);
    }
}
