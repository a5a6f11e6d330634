//! The event loop: dispatches engine events to nodes, links, players and
//! membership views until the scenario's time horizon.

use gossip_adversity::{ByzantineBehaviour, FaultAction};
use gossip_core::{Message, Output, TimerToken};
use gossip_net::Enqueued;
use gossip_sim::Engine;
use gossip_stream::byzantine;
use gossip_types::{Duration, NodeId, Time};

use crate::harness::deployment::{Deployment, Envelope};
use crate::harness::result::{self, DepthTracker, RunResult, RunTimeline};
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
    /// The per-second timeline probe.
    Probe,
    /// The k-th event of the compiled fault timeline triggers.
    Fault(usize),
}

/// Executes one scenario to completion and assembles its result.
pub(crate) fn execute(cfg: &Scenario) -> RunResult {
    Driver::new(cfg).run()
}

/// Like [`execute`], publishing live aggregates into `registry` on every
/// per-second probe (metric publication never feeds back into the
/// simulation, so a telemetered run is bit-identical to a silent one).
pub(crate) fn execute_with_telemetry(
    cfg: &Scenario,
    registry: &gossip_telemetry::Registry,
) -> RunResult {
    let mut driver = Driver::new(cfg);
    driver.telemetry = Some(SimCells::register(registry));
    driver.run()
}

/// The simulation's live metric cells, published once per simulated
/// second (on [`Ev::Probe`], alongside the timeline sample).
pub(crate) struct SimCells {
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
        let delivered: u64 = (1..dep.total_n()).map(|i| dep.players[i].packets_received()).sum();
        self.packets_delivered.store(delivered);
        self.msgs_received.store(dep.rx_stats.iter().map(|s| s.msgs_received).sum());
        self.bytes_received.store(dep.rx_stats.iter().map(|s| s.bytes_received).sum());
        self.msgs_lost.store(dep.rx_stats.iter().map(|s| s.msgs_lost_in_network).sum());
        self.nodes_alive.store(dep.alive.iter().filter(|&&a| a).count() as u64);
    }
}

/// The running simulation: deployment state plus the engine and the per-run
/// observers.
pub(crate) struct Driver<'a> {
    pub(crate) dep: Deployment<'a>,
    pub(crate) engine: Engine<Ev>,
    pub(crate) timeline: RunTimeline,
    pub(crate) depth: DepthTracker,
    pub(crate) telemetry: Option<SimCells>,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(cfg: &'a Scenario) -> Self {
        let (dep, engine) = Deployment::new(cfg);
        let depth = DepthTracker::new(cfg);
        Driver { dep, engine, timeline: RunTimeline::new(), depth, telemetry: None }
    }

    /// Runs the event loop until the horizon, then collects the result.
    pub(crate) fn run(mut self) -> RunResult {
        self.run_to_horizon();
        result::collect(self)
    }

    fn run_to_horizon(&mut self) {
        let end = Time::ZERO + self.dep.cfg.total_duration();
        while let Some((now, ev)) = self.engine.pop_before(end) {
            self.dispatch(now, ev);
        }
    }

    /// Whether a per-node event armed in epoch `ep` is still current.
    fn current(&self, id: NodeId, ep: u32) -> bool {
        self.dep.alive[id.index()] && self.dep.epoch[id.index()] == ep
    }

    fn dispatch(&mut self, now: Time, ev: Ev) {
        match ev {
            Ev::Round(id, ep) => {
                if self.current(id, ep) {
                    // Peer sampling mode: selectNodes draws from the live
                    // partial view.
                    self.dep.refresh_membership(id);
                    self.dep.nodes[id.index()].on_round(now);
                    self.drain_outputs(now, id);
                    self.engine
                        .schedule(now + self.dep.cfg.gossip.gossip_period, Ev::Round(id, ep));
                }
            }
            Ev::ShuffleRound(id, ep) => {
                if self.current(id, ep) && !self.dep.cyclon.is_empty() {
                    if let Some((target, request)) =
                        self.dep.cyclon[id.index()].on_shuffle_round(&mut self.dep.membership_rng)
                    {
                        self.send_envelope(now, id, target, Envelope::Shuffle(request));
                    }
                    if let MembershipMode::Cyclon { shuffle_period, .. } = &self.dep.cfg.membership
                    {
                        self.engine.schedule(now + *shuffle_period, Ev::ShuffleRound(id, ep));
                    }
                }
            }
            Ev::SourceEmit => {
                let source = NodeId::new(0);
                for packet in self.dep.source.poll(now) {
                    self.dep.nodes[source.index()].publish(now, packet);
                }
                self.drain_outputs(now, source);
                let next = self.dep.source.next_packet_at();
                if next <= Time::ZERO + self.dep.cfg.stream_duration {
                    self.engine.schedule(next, Ev::SourceEmit);
                }
            }
            Ev::NodeTimer(id, token, ep) => {
                if self.current(id, ep) {
                    self.dep.nodes[id.index()].on_timer(now, token);
                    self.drain_outputs(now, id);
                }
            }
            Ev::LinkDone(from, ep) => {
                if !self.current(from, ep) {
                    return; // the crash already discarded the link state
                }
                let (queued, next_at) = self.dep.links[from.index()].complete_head(now);
                self.dispatch_transmitted(now, from, queued);
                if let Some(at) = next_at {
                    self.engine.schedule(at, Ev::LinkDone(from, ep));
                }
            }
            Ev::Receive { to, from, envelope } => {
                if self.dep.alive[to.index()] {
                    let stats = &mut self.dep.rx_stats[to.index()];
                    stats.msgs_received += 1;
                    stats.bytes_received += envelope.wire_size() as u64;
                    match envelope {
                        Envelope::Gossip(msg) => {
                            // A request-eating Byzantine peer accepts the
                            // datagram and then does nothing with it: the
                            // requester's RTO eventually retries elsewhere.
                            if matches!(msg, Message::Request { .. })
                                && self.dep.compiled.profiles[to.index()].byzantine
                                    == Some(ByzantineBehaviour::EatRequests)
                            {
                                return;
                            }
                            self.depth.enter_serve(from);
                            self.dep.nodes[to.index()].on_message(now, from, msg);
                            self.drain_outputs(now, to);
                            self.depth.exit_serve();
                        }
                        Envelope::Shuffle(shuffle) => {
                            let reply = self.dep.cyclon[to.index()].on_message(
                                from,
                                shuffle,
                                &mut self.dep.membership_rng,
                            );
                            if let Some(reply) = reply {
                                self.send_envelope(now, to, from, Envelope::Shuffle(reply));
                            }
                        }
                    }
                }
            }
            Ev::Probe => {
                self.timeline.sample(now, &self.dep);
                if let Some(cells) = &self.telemetry {
                    cells.publish(now, &self.dep, self.engine.processed());
                }
                self.engine.schedule(now + Duration::from_secs(1), Ev::Probe);
            }
            Ev::Fault(k) => {
                let fault = self.dep.compiled.timeline.events()[k];
                match fault.action {
                    FaultAction::Crash(v) => {
                        self.dep.crash(&[v]);
                        self.cancel_timers(v);
                    }
                    FaultAction::Rejoin(v) => {
                        self.dep.revive(v);
                        self.start_node(now, v);
                    }
                    FaultAction::Join(v) => {
                        self.dep.join(now, v);
                        self.start_node(now, v);
                    }
                    FaultAction::Partition(_) | FaultAction::Heal(_) => {
                        self.dep.partition.on_event(fault.action);
                    }
                    FaultAction::ThrottleStart(t) => {
                        let plan = &self.dep.compiled.throttles[t as usize];
                        let (cap, victims) = (plan.cap_bps, plan.victims.clone());
                        for v in victims {
                            self.dep.links[v.index()].set_rate(cap);
                        }
                    }
                    FaultAction::ThrottleEnd(t) => {
                        let victims = self.dep.compiled.throttles[t as usize].victims.clone();
                        for v in victims {
                            self.dep.links[v.index()].set_rate(self.dep.base_caps[v.index()]);
                        }
                    }
                }
            }
        }
    }

    /// Arms the recurring timers of a node that just came to life (a
    /// flash-crowd joiner or a rejoining churn victim), staggering its
    /// first round inside one period like the initial deployment does.
    fn start_node(&mut self, now: Time, id: NodeId) {
        let ep = self.dep.epoch[id.index()];
        let period = self.dep.cfg.gossip.gossip_period;
        let phase = Duration::from_micros(self.dep.membership_rng.next_below(period.as_micros()));
        self.engine.schedule(now + phase, Ev::Round(id, ep));
        if let MembershipMode::Cyclon { shuffle_period, .. } = &self.dep.cfg.membership {
            let phase = Duration::from_micros(
                self.dep.membership_rng.next_below(shuffle_period.as_micros()),
            );
            self.engine.schedule(now + phase, Ev::ShuffleRound(id, ep));
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
        if self.dep.partition.is_split() && !self.dep.partition.allows(&self.dep.compiled, from, to)
        {
            self.dep.rx_stats[from.index()].msgs_lost_in_network += 1;
            return; // the cut swallows cross-cell traffic silently
        }
        if self.dep.loss.is_lost(to, &mut self.dep.net_rng) {
            self.dep.rx_stats[from.index()].msgs_lost_in_network += 1;
            return;
        }
        if !self.dep.alive[to.index()] {
            return; // messages to dead nodes evaporate
        }
        let delay = self.dep.latency.sample(from, to, &mut self.dep.net_rng);
        self.engine.schedule(now + delay, Ev::Receive { to, from, envelope });
    }

    /// Offers an envelope to the sender's upload link, scheduling the
    /// completion event if the link was idle.
    fn send_envelope(&mut self, now: Time, from: NodeId, to: NodeId, envelope: Envelope) {
        let wire = envelope.wire_size();
        match self.dep.links[from.index()].enqueue(now, wire, (to, envelope)) {
            Enqueued::Started { completes_at } => {
                self.engine
                    .schedule(completes_at, Ev::LinkDone(from, self.dep.epoch[from.index()]));
            }
            Enqueued::Queued | Enqueued::Dropped => {}
        }
    }

    /// Routes a node's pending protocol outputs into the network/engine.
    fn drain_outputs(&mut self, now: Time, id: NodeId) {
        while let Some(out) = self.dep.nodes[id.index()].poll_output() {
            match out {
                Output::Send { to, msg } => {
                    // Byzantine behaviours act at the network boundary: the
                    // node itself always runs the honest code, its *output*
                    // is what gets corrupted (the node believes it serves
                    // faithfully, like compromised middleware would).
                    let msg = match self.dep.compiled.profiles[id.index()].byzantine {
                        Some(ByzantineBehaviour::ServeCorrupt) => byzantine::corrupt_serves(msg),
                        Some(ByzantineBehaviour::ProposeGarbage) => byzantine::garble_proposes(msg),
                        _ => msg,
                    };
                    // The paper's limiter is an application-level shaper: it
                    // charges the bytes the application sends (message
                    // payloads and headers), not the kernel's IP/UDP
                    // overhead. Charging app bytes is also what its Figure 4
                    // reports.
                    self.send_envelope(now, id, to, Envelope::Gossip(msg));
                }
                Output::Deliver { event } => {
                    // The player only counts intact packets: a poisoned one
                    // accepted because verification is disabled is garbage
                    // on screen, not a viewed window.
                    if self.dep.nodes[id.index()].delivery_intact(&event) {
                        let packet_id = event.packet_id();
                        self.dep.players[id.index()].on_packet(now, packet_id);
                        self.depth.record(id, packet_id);
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    let ev = Ev::NodeTimer(id, token, self.dep.epoch[id.index()]);
                    let handle = self.engine.schedule(at, ev);
                    self.dep.nodes[id.index()].attach_timer_handle(token, handle);
                }
            }
        }
        self.cancel_timers(id);
    }

    /// Takes out of the queue the retransmission deadlines the node no
    /// longer needs: every id they guarded has arrived, or the node crashed.
    fn cancel_timers(&mut self, id: NodeId) {
        while let Some(handle) = self.dep.nodes[id.index()].poll_cancelled() {
            self.engine.cancel(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_runs_to_the_horizon() {
        let cfg = crate::Scenario::tiny(6).with_seed(8);
        let result = Driver::new(&cfg).run();
        assert!(result.events_processed > 1_000, "a run dispatches many events");
        // The probe fires once per simulated second until the horizon.
        let total_secs = cfg.total_duration().as_secs_f64() as usize;
        assert!(result.timeline.delivered.len() >= total_secs - 1);
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
            let stats = driver.dep.nodes[i].stats();
            assert_eq!(stats.corrupted_events_detected, 0, "the node itself does not look");
            let watched = driver.dep.players[i].packets_received();
            assert!(watched <= stats.events_delivered);
            kept_out += stats.events_delivered - watched;
        }
        assert!(kept_out > 0, "corruptors tamper every serve: some poison must have arrived");
    }

    /// A crash takes the victim's retransmission deadlines out of the
    /// queue at once — only those — and their handles die with them: shown
    /// again after the revive, when the new incarnation's deadlines occupy
    /// the recycled slots, they cancel nothing.
    #[test]
    fn a_crash_cancels_the_victims_retransmit_deadlines_and_their_handles_go_stale() {
        use gossip_adversity::AdversitySpec;
        use gossip_stream::PacketId;

        let (v, peer) = (NodeId::new(3), NodeId::new(4));
        let crash = AdversitySpec::none().with_explicit_crash(Duration::from_secs(5), vec![v]);
        let cfg = crate::Scenario::tiny(6).with_seed(8).with_adversity(crash);
        let mut driver = Driver::new(&cfg);
        let k = driver
            .dep
            .compiled
            .timeline
            .events()
            .iter()
            .position(|e| matches!(e.action, FaultAction::Crash(_)))
            .expect("the crash compiled");
        let propose = |driver: &mut Driver<'_>, window: u32| {
            for index in 0..2 {
                let ids = vec![PacketId::new(window, index)].into();
                driver.dep.nodes[v.index()].on_message(Time::ZERO, peer, Message::Propose { ids });
            }
        };

        // First life: the host's part played by hand, to keep the handles.
        propose(&mut driver, 0);
        let mut stale = Vec::new();
        while let Some(out) = driver.dep.nodes[v.index()].poll_output() {
            if let Output::ScheduleTimer { token, at } = out {
                let handle = driver.engine.schedule(at, Ev::NodeTimer(v, token, 0));
                driver.dep.nodes[v.index()].attach_timer_handle(token, handle);
                stale.push(handle);
            }
        }
        assert_eq!(stale.len(), 2);
        let armed = driver.engine.pending();
        driver.dispatch(Time::ZERO, Ev::Fault(k));
        assert_eq!(driver.engine.pending(), armed - 2, "the crash cancelled both deadlines");

        // Second life: armed through the driver, into the freed slots.
        driver.dep.revive(v);
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
        driver.dispatch(Time::ZERO, Ev::Fault(k));
        assert_eq!(driver.engine.pending(), armed - 2);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        use gossip_net::ChurnPlan;
        use gossip_sim::DetRng;

        let mut rng = DetRng::seed_from(5);
        let churn =
            ChurnPlan::catastrophic(Time::from_secs(5), 20, 0.3, &[NodeId::new(0)], &mut rng);
        let victims = churn.all_victims().len();
        assert!(victims > 0);
        let cfg = crate::Scenario::tiny(6).with_seed(5).with_churn(churn);
        let result = Driver::new(&cfg).run();
        // Victims are excluded from the survivor reports.
        assert_eq!(result.quality.nodes().len(), cfg.n - victims - 1);
    }
}
