//! The event loop: dispatches engine events to nodes, links, players and
//! membership views until the scenario's time horizon.

use std::sync::Arc;

use gossip_adversity::{CompiledAdversity, PartitionState};
use gossip_core::{Message, PacketPool, TimerToken};
use gossip_net::UploadLink;
use gossip_sim::{Engine, EventHandle};
use gossip_stream::StreamPacket;
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::hosted::{self, Envelope, FaultHost, Host};

use crate::harness::deployment::{offer, Deployment, Port, SimNode};
use crate::harness::result::{self, DepthTracker, RunResult};
use crate::scenario::{MembershipMode, Scenario};

/// Events flowing through the simulation engine.
///
/// Per-node recurring events ([`Ev::Round`], [`Ev::ShuffleRound`],
/// [`Ev::NodeTimer`], [`Ev::LinkDone`]) carry the node's *epoch* — its
/// incarnation counter at scheduling time. A crash bumps the epoch, so any
/// event armed for an earlier life is silently dropped instead of poking
/// the fresh state of a revived node. [`Ev::Receive`] deliberately does
/// not: an in-flight datagram has left the sender and arrives whatever
/// happened to the destination meanwhile, exactly like on a real network.
pub(crate) enum Ev {
    /// A node's gossip timer fired.
    Round(NodeId, u32),
    /// The source's next packet(s) are due.
    SourceEmit,
    /// A protocol (retransmission) timer fired.
    NodeTimer(NodeId, TimerToken, u32),
    /// A node's upload link finished transmitting its head message.
    LinkDone(NodeId, u32),
    /// A message arrives at a node.
    Receive { to: NodeId, from: NodeId, envelope: Envelope },
    /// A node's membership shuffle timer fired (Cyclon mode).
    ShuffleRound(NodeId, u32),
    /// The k-th event of the compiled fault timeline triggers.
    Fault(usize),
}

/// Executes one scenario to completion and assembles its result.
pub(crate) fn execute(cfg: &Scenario) -> RunResult {
    Driver::new(cfg).run()
}

/// Like [`execute`], handing `probe` every node at each multiple of `every`
/// (and at the horizon).
pub(crate) fn execute_probed(
    cfg: &Scenario,
    every: Duration,
    mut probe: impl FnMut(Time, &[SimNode], &PacketPool<StreamPacket>),
) -> RunResult {
    execute_sliced(cfg, every, |at, driver| probe(at, &driver.dep.hosted, &driver.dep.pool))
}

/// Like [`execute`], publishing live aggregates into `registry` at every
/// simulated second (and at the horizon). Publication only reads the
/// stopped run, so a telemetered run is bit-identical to a silent one.
pub(crate) fn execute_with_telemetry(
    cfg: &Scenario,
    registry: &gossip_telemetry::Registry,
) -> RunResult {
    let cells = SimCells::register(registry);
    execute_sliced(cfg, Duration::from_secs(1), |at, driver| {
        cells.publish(at, &driver.dep, driver.engine.processed());
    })
}

/// Runs `cfg` to each multiple of `every` and to the horizon, handing
/// `look` the stopped driver at each instant: the simulator's one way to
/// watch a run. The engine runs to the instant and stops, so slicing its
/// run changes nothing it dispatches.
fn execute_sliced(
    cfg: &Scenario,
    every: Duration,
    mut look: impl FnMut(Time, &Driver<'_>),
) -> RunResult {
    assert!(!every.is_zero(), "a probe needs a positive period");
    let mut driver = Driver::new(cfg);
    let end = Time::ZERO + cfg.total_duration();
    let mut at = Time::ZERO;
    while at < end {
        at = (at + every).min(end);
        driver.run_until(at);
        look(at, &driver);
    }
    result::collect(driver)
}

/// The simulation's live metric cells, published at every simulated
/// second of a telemetered run.
struct SimCells {
    sim_seconds: gossip_telemetry::Cell,
    events_processed: gossip_telemetry::Cell,
    packets_delivered: gossip_telemetry::Cell,
    msgs_received: gossip_telemetry::Cell,
    bytes_received: gossip_telemetry::Cell,
    msgs_lost: gossip_telemetry::Cell,
    nodes_alive: gossip_telemetry::Cell,
}

impl SimCells {
    fn register(registry: &gossip_telemetry::Registry) -> SimCells {
        SimCells {
            sim_seconds: registry.gauge_f64(
                "sim_time_seconds",
                "Current simulated time of the run.",
                &[],
            ),
            events_processed: registry.counter(
                "sim_events_processed_total",
                "Engine events dispatched so far.",
                &[],
            ),
            packets_delivered: registry.counter(
                "sim_packets_delivered_total",
                "Stream packets delivered across all receivers.",
                &[],
            ),
            msgs_received: registry.counter(
                "sim_msgs_received_total",
                "Protocol messages received across all nodes.",
                &[],
            ),
            bytes_received: registry.counter(
                "sim_bytes_received_total",
                "Protocol bytes received across all nodes.",
                &[],
            ),
            msgs_lost: registry.counter(
                "sim_msgs_lost_total",
                "Messages swallowed by partitions and in-network loss.",
                &[],
            ),
            nodes_alive: registry.gauge(
                "sim_nodes_alive",
                "Nodes currently alive (source included).",
                &[],
            ),
        }
    }

    fn publish(&self, now: Time, dep: &Deployment<'_>, events: u64) {
        self.sim_seconds.store_f64(now.as_secs_f64());
        self.events_processed.store(events);
        let delivered: u64 = dep.hosted[1..].iter().map(|h| h.player.packets_received()).sum();
        self.packets_delivered.store(delivered);
        self.msgs_received.store(dep.hosted.iter().map(|h| h.port.rx.msgs_received).sum());
        self.bytes_received.store(dep.hosted.iter().map(|h| h.port.rx.bytes_received).sum());
        self.msgs_lost.store(dep.hosted.iter().map(|h| h.port.rx.msgs_lost_in_network).sum());
        self.nodes_alive.store(dep.hosted.iter().filter(|h| !h.is_down()).count() as u64);
    }
}

/// The running simulation: deployment state plus the engine and the
/// dissemination-depth tracker.
pub(crate) struct Driver<'a> {
    pub(crate) dep: Deployment<'a>,
    pub(crate) engine: Engine<Ev>,
    pub(crate) depth: DepthTracker,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(cfg: &'a Scenario) -> Self {
        let (dep, engine) = Deployment::new(cfg);
        let depth = DepthTracker::new(cfg);
        Driver { dep, engine, depth }
    }

    /// Runs the event loop until the horizon, then collects the result.
    pub(crate) fn run(mut self) -> RunResult {
        self.run_to_horizon();
        result::collect(self)
    }

    fn run_to_horizon(&mut self) {
        self.run_until(Time::ZERO + self.dep.cfg.total_duration());
    }

    /// Dispatches every event due at or before `end`.
    fn run_until(&mut self, end: Time) {
        while let Some((now, ev)) = self.engine.pop_before(end) {
            self.dispatch(now, ev);
        }
    }

    fn dispatch(&mut self, now: Time, ev: Ev) {
        self.dep.pool.prune(&self.dep.cfg.gossip, now);
        match ev {
            Ev::Round(id, ep) => {
                let node = &mut self.dep.hosted[id.index()];
                if node.is_current(ep) {
                    // Peer sampling mode: selectNodes draws from the live
                    // partial view.
                    node.follow_view();
                    node.node.on_round(now);
                    self.drain_outputs(now, id);
                    self.engine
                        .schedule(now + self.dep.cfg.gossip.gossip_period, Ev::Round(id, ep));
                }
            }
            Ev::ShuffleRound(id, ep) => {
                let node = &mut self.dep.hosted[id.index()];
                if !node.is_current(ep) {
                    return;
                }
                let Some(view) = node.view.as_mut() else { return };
                if let Some((target, request)) = view.on_shuffle_round(&mut self.dep.membership_rng)
                {
                    self.send_envelope(now, id, target, Envelope::Shuffle(request));
                }
                if let MembershipMode::Cyclon { shuffle_period, .. } = &self.dep.cfg.membership {
                    self.engine.schedule(now + *shuffle_period, Ev::ShuffleRound(id, ep));
                }
            }
            Ev::SourceEmit => {
                let next = self.dep.hosted[0].emit(now);
                self.drain_outputs(now, NodeId::new(0));
                if let Some(next) = next {
                    self.engine.schedule(next, Ev::SourceEmit);
                }
            }
            Ev::NodeTimer(id, token, ep) => {
                let node = &mut self.dep.hosted[id.index()];
                if node.is_current(ep) {
                    node.node.on_timer(now, token);
                    self.drain_outputs(now, id);
                }
            }
            Ev::LinkDone(from, ep) => {
                let node = &mut self.dep.hosted[from.index()];
                if !node.is_current(ep) {
                    return; // the crash already discarded the link state
                }
                let (queued, next_at) = node.link.complete_head(now);
                self.dispatch_transmitted(now, from, queued);
                if let Some(at) = next_at {
                    self.engine.schedule(at, Ev::LinkDone(from, ep));
                }
            }
            Ev::Receive { to, from, envelope } => {
                let node = &mut self.dep.hosted[to.index()];
                if node.is_down() {
                    return;
                }
                node.port.rx.msgs_received += 1;
                node.port.rx.bytes_received += envelope.wire_size() as u64;
                match envelope {
                    Envelope::Gossip(msg) => {
                        self.depth.enter_serve(from);
                        node.on_message(now, from, msg, &self.dep.pool);
                        self.drain_outputs(now, to);
                        self.depth.exit_serve();
                    }
                    Envelope::Shuffle(shuffle) => {
                        let reply = node.view.as_mut().and_then(|view| {
                            view.on_message(from, shuffle, &mut self.dep.membership_rng)
                        });
                        if let Some(reply) = reply {
                            self.send_envelope(now, to, from, Envelope::Shuffle(reply));
                        }
                    }
                }
            }
            Ev::Fault(k) => {
                let action = self.dep.compiled.timeline.events()[k].action;
                hosted::apply(self, now, action);
            }
        }
    }

    /// A message finished transmitting: apply any active partition, then
    /// in-network loss, then latency, then deliver (unless the destination
    /// died meanwhile).
    fn dispatch_transmitted(
        &mut self,
        now: Time,
        from: NodeId,
        (to, envelope): (NodeId, Envelope),
    ) {
        let dep = &mut self.dep;
        if !dep.partition.allows(&dep.compiled, from, to) {
            dep.hosted[from.index()].port.rx.msgs_lost_in_network += 1;
            return; // the cut swallows cross-cell traffic silently
        }
        if dep.loss.is_lost(to, &mut dep.net_rng) {
            dep.hosted[from.index()].port.rx.msgs_lost_in_network += 1;
            return;
        }
        if dep.hosted[to.index()].is_down() {
            return; // messages to dead nodes evaporate
        }
        let delay = dep.latency.sample(from, to, &mut dep.net_rng);
        self.engine.schedule(now + delay, Ev::Receive { to, from, envelope });
    }

    /// Offers a membership envelope to the sender's upload link, scheduling
    /// the completion event if the link was idle.
    fn send_envelope(&mut self, now: Time, from: NodeId, to: NodeId, envelope: Envelope) {
        let node = &mut self.dep.hosted[from.index()];
        if let Some(at) = offer(&mut node.link, now, to, envelope) {
            self.engine.schedule(at, Ev::LinkDone(from, node.epoch()));
        }
    }

    /// Routes a node's pending protocol outputs into the network/engine.
    fn drain_outputs(&mut self, now: Time, id: NodeId) {
        let mut outputs =
            Outputs { engine: &mut self.engine, depth: &mut self.depth, pool: &mut self.dep.pool };
        self.dep.hosted[id.index()].route(now, &mut outputs);
    }
}

/// The simulator's side of a node's outputs: sends leave through its upload
/// link, deliveries feed the depth tracker and the pool, timers go on the
/// engine.
struct Outputs<'d> {
    engine: &'d mut Engine<Ev>,
    depth: &'d mut DepthTracker,
    pool: &'d mut PacketPool<StreamPacket>,
}

impl Host for Outputs<'_> {
    fn send(
        &mut self,
        now: Time,
        from: NodeId,
        epoch: u32,
        link: &mut UploadLink<(NodeId, Envelope)>,
        to: NodeId,
        msg: Message<StreamPacket>,
    ) {
        // The paper's limiter is an application-level shaper: it charges
        // the bytes the application sends (message payloads and headers),
        // not the kernel's IP/UDP overhead. Charging app bytes is also what
        // its Figure 4 reports.
        if let Some(at) = offer(link, now, to, Envelope::Gossip(msg)) {
            self.engine.schedule(at, Ev::LinkDone(from, epoch));
        }
    }

    fn delivered(&mut self, now: Time, at: NodeId, packet: StreamPacket) {
        self.depth.record(at, packet.packet_id());
        self.pool.insert(packet, now);
    }

    fn arm(&mut self, at: Time, node: NodeId, epoch: u32, token: TimerToken) -> EventHandle {
        self.engine.schedule(at, Ev::NodeTimer(node, token, epoch))
    }

    fn cancel(&mut self, handle: EventHandle) {
        self.engine.cancel(handle);
    }
}

/// The simulator hosts every node: the fault timeline reaches each of them.
impl FaultHost for Driver<'_> {
    type Port = Port;

    fn compiled(&self) -> &CompiledAdversity {
        &self.dep.compiled
    }

    fn partition(&mut self) -> &mut PartitionState {
        &mut self.dep.partition
    }

    fn hosted(&mut self, v: NodeId) -> Option<&mut SimNode> {
        self.dep.hosted.get_mut(v.index())
    }

    fn cancel(&mut self, handle: EventHandle) {
        self.engine.cancel(handle);
    }

    fn census(&mut self) -> &mut Arc<[NodeId]> {
        &mut self.dep.members
    }

    /// In full-membership mode everyone is told about a joiner (a
    /// tracker-style introduction); under Cyclon the newcomer spreads
    /// through shuffles from the bootstrap its start draws.
    fn announces_joins(&self) -> bool {
        self.dep.cfg.membership == MembershipMode::Full
    }

    /// A joiner's first coming up is its arrival. Under Cyclon a node that
    /// comes up draws a fresh bootstrap, like any newcomer; then its first
    /// round (and shuffle) is staggered inside one period, like the initial
    /// deployment's.
    fn start(&mut self, now: Time, v: NodeId) {
        let cfg = self.dep.cfg;
        if v.index() >= cfg.n {
            self.dep.joined_at[v.index()].get_or_insert(now);
        }
        if let MembershipMode::Cyclon { config, bootstrap_degree, .. } = &cfg.membership {
            let dep = &mut self.dep;
            let rng = &mut dep.membership_rng;
            let view = hosted::bootstrap_view(v, *config, &dep.members, *bootstrap_degree, rng);
            dep.hosted[v.index()].view = Some(view);
        }
        let ep = self.dep.hosted[v.index()].epoch();
        let period = cfg.gossip.gossip_period;
        let phase = Duration::from_micros(self.dep.membership_rng.next_below(period.as_micros()));
        self.engine.schedule(now + phase, Ev::Round(v, ep));
        if let MembershipMode::Cyclon { shuffle_period, .. } = &cfg.membership {
            let phase = Duration::from_micros(
                self.dep.membership_rng.next_below(shuffle_period.as_micros()),
            );
            self.engine.schedule(now + phase, Ev::ShuffleRound(v, ep));
        }
    }
}

#[cfg(test)]
mod tests {
    use gossip_adversity::{AdversitySpec, FaultAction};

    use super::*;

    #[test]
    fn driver_runs_to_the_horizon() {
        let cfg = crate::Scenario::tiny(6).with_seed(8);
        let horizon = Time::ZERO + cfg.total_duration();
        let mut slices = Vec::new();
        let result = execute_probed(&cfg, Duration::from_secs(1), |at, _, _| slices.push(at));
        assert!(result.events_processed > 1_000, "a run dispatches many events");
        // Sliced once per simulated second, the last slice at the horizon.
        let total_secs = cfg.total_duration().as_secs_f64() as usize;
        assert_eq!(slices.len(), total_secs);
        assert_eq!(slices.last(), Some(&horizon));
        // Unsliced, the driver stops with nothing due before the horizon.
        let mut driver = Driver::new(&cfg);
        driver.run_to_horizon();
        assert!(driver.engine.now() <= horizon);
        assert!(driver.engine.peek_time().is_none_or(|next| next > horizon));
    }

    #[test]
    fn execute_equals_driver_run() {
        let cfg = crate::Scenario::tiny(5).with_seed(4);
        let a = execute(&cfg);
        let b = Driver::new(&cfg).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.upload_kbps, b.upload_kbps);
    }

    #[test]
    fn an_undefended_nodes_poisoned_deliveries_stay_out_of_its_player() {
        use gossip_adversity::{AdversitySpec, ByzantineMix};

        let mut cfg = crate::Scenario::tiny(6).with_seed(3).with_adversity(
            AdversitySpec::none().with_byzantine(0.2, ByzantineMix::serve_corruptors()),
        );
        cfg.gossip.verify_payloads = false;
        let mut driver = Driver::new(&cfg);
        driver.run_to_horizon();
        // Every delivery reaches the player unless this host's integrity
        // gate stopped it, so the shortfall is exactly the poison.
        let mut kept_out = 0;
        for i in 1..cfg.n {
            let hosted = &driver.dep.hosted[i];
            let stats = hosted.node.stats();
            assert_eq!(stats.corrupted_events_detected, 0, "the node itself does not look");
            let watched = hosted.player.packets_received();
            assert!(watched <= stats.events_delivered);
            kept_out += stats.events_delivered - watched;
        }
        assert!(kept_out > 0, "corruptors tamper every serve: some poison must have arrived");
    }

    /// The simulator's wiring of the crash rule: the deadlines a crash
    /// hands back leave the engine at once — only those — and their handles
    /// die with them: shown again after the rejoin, when the new
    /// incarnation's deadlines occupy the recycled slots, they cancel
    /// nothing.
    #[test]
    fn a_crash_cancels_the_victims_retransmit_deadlines_and_their_handles_go_stale() {
        use gossip_adversity::AdversitySpec;
        use gossip_stream::PacketId;
        use hosted::apply;

        let (v, peer) = (NodeId::new(3), NodeId::new(4));
        let crash = AdversitySpec::none().with_explicit_crash(Duration::from_secs(5), vec![v]);
        let cfg = crate::Scenario::tiny(6).with_seed(8).with_adversity(crash);
        let mut driver = Driver::new(&cfg);
        let propose = |driver: &mut Driver<'_>, window: u32| {
            for index in 0..2 {
                let ids = vec![PacketId::new(window, index)].into();
                let (dep, propose) = (&mut driver.dep, Message::Propose { ids });
                dep.hosted[v.index()].on_message(Time::ZERO, peer, propose, &dep.pool);
            }
        };

        // First life: the host's part played by hand, to keep the handles.
        propose(&mut driver, 0);
        let mut stale = Vec::new();
        let node = &mut driver.dep.hosted[v.index()];
        while let Some(out) = node.node.poll_output() {
            if let gossip_core::Output::ScheduleTimer { token, at } = out {
                let handle = driver.engine.schedule(at, Ev::NodeTimer(v, token, 0));
                node.node.attach_timer_handle(token, handle);
                stale.push(handle);
            }
        }
        assert_eq!(stale.len(), 2);
        let armed = driver.engine.pending();
        apply(&mut driver, Time::ZERO, FaultAction::Crash(v));
        assert_eq!(driver.engine.pending(), armed - 2, "the crash cancelled both deadlines");

        // Second life: armed through the driver, into the freed slots.
        apply(&mut driver, Time::ZERO, FaultAction::Rejoin(v));
        propose(&mut driver, 1);
        let before = driver.engine.pending();
        driver.drain_outputs(Time::ZERO, v);
        let armed = driver.engine.pending();
        assert!(armed >= before + 2, "two new deadlines (and the request's link completion)");
        for handle in stale {
            assert!(
                !driver.engine.cancel(handle),
                "a dead incarnation's handle cancelled something"
            );
        }
        assert_eq!(driver.engine.pending(), armed);
        // The new deadlines are the driver's own: the next crash finds them.
        apply(&mut driver, Time::ZERO, FaultAction::Crash(v));
        assert_eq!(driver.engine.pending(), armed - 2);
    }

    /// An explicit crash of the source ends the stream there: a down source
    /// publishes nothing — it pins no payload and its player stops counting.
    #[test]
    fn a_crashed_source_publishes_nothing() {
        use gossip_adversity::AdversitySpec;

        let at = Duration::from_secs(5);
        let crash = AdversitySpec::none().with_explicit_crash(at, vec![NodeId::new(0)]);
        let cfg = crate::Scenario::tiny(5).with_seed(3).with_adversity(crash);
        let mut driver = Driver::new(&cfg);
        driver.run_until(Time::ZERO + at - Duration::from_micros(1));
        let published = driver.dep.hosted[0].player.packets_received();
        assert!(published > 0, "the source was streaming");
        driver.run_to_horizon();
        let source = &driver.dep.hosted[0];
        assert!(source.is_down());
        assert_eq!(source.node.stored_events(), 0, "a down source pins no payload");
        assert_eq!(
            source.player.packets_received(),
            published,
            "nothing published after the crash"
        );
    }

    /// Probed every simulated second of a run whose links do queue: an
    /// upload link whose queue has drained holds no buffer for it, and a
    /// crashed node holds neither a queue nor a single id record. Probing
    /// leaves the run as it would have been.
    #[test]
    fn drained_uplinks_and_crashed_nodes_hold_no_buffers() {
        use gossip_adversity::AdversitySpec;

        let victim = NodeId::new(3);
        let crash = AdversitySpec::none().with_explicit_crash(Duration::from_secs(5), vec![victim]);
        let cfg = crate::Scenario::tiny(7).with_seed(2).with_adversity(crash);
        let (mut queueing, mut drained, mut victim_down) = (0, 0, false);
        let result = cfg.run_probed(Duration::from_secs(1), |at, hosted, _| {
            for node in hosted {
                let link = &node.link;
                if link.queue_len() > 0 {
                    queueing += 1;
                } else {
                    drained += 1;
                    assert_eq!(link.queue_capacity(), 0, "node {} at {at:?}", node.id());
                }
            }
            let victim = &hosted[victim.index()];
            if victim.is_down() {
                victim_down = true;
                assert_eq!(victim.node.recorded_ids(), (0, 0), "at {at:?}");
            }
        });
        assert!(queueing > 0 && drained > 0, "{queueing} queueing and {drained} drained samples");
        assert!(victim_down, "the crash fired");
        let unprobed = cfg.run();
        assert_eq!(result.events_processed, unprobed.events_processed);
        assert_eq!(result.protocol, unprobed.protocol);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let crash = AdversitySpec::none().with_catastrophic(Duration::from_secs(5), 0.3);
        let victims = crash.compile(20, 5).timeline.dead_at(Time::MAX).len();
        assert!(victims > 0);
        let cfg = crate::Scenario::tiny(6).with_seed(5).with_adversity(crash);
        let result = Driver::new(&cfg).run();
        // Victims are excluded from the survivor reports.
        assert_eq!(result.quality.nodes().len(), cfg.n - victims - 1);
    }
}
