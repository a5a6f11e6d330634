//! Deployment construction: from a [`Scenario`] description to live
//! simulation state.
//!
//! Everything here is derived deterministically from the scenario seed, in a
//! fixed order (nodes, capacity classes, links, players, latency, loss,
//! membership bootstrap, initial schedule) so that a seed uniquely determines
//! the whole run.
//!
//! The deployment is sized for the scenario's *total* population — base
//! nodes plus any flash-crowd joiners the compiled adversity plan
//! introduces. Joiners exist as inert slots (not alive, not in anyone's
//! membership) until their `Join` fault fires; crashed nodes can likewise
//! be revived with fresh protocol state. Both transitions bump the node's
//! *epoch*, which stale scheduled events (old round chains, link
//! completions, retransmission timers) carry and are filtered by, so no
//! event armed before a crash can touch the state of a later incarnation.

use std::sync::Arc;

use gossip_adversity::{CompiledAdversity, PartitionState};
use gossip_core::{GossipNode, Message};
use gossip_membership::{CyclonView, ShuffleMessage};
use gossip_net::{LatencySampler, LossProcess, NetStats, UploadLink};
use gossip_sim::{DetRng, Engine};
use gossip_stream::{StreamPacket, StreamPlayer, StreamSource};
use gossip_types::{Duration, NodeId, Time};

use crate::harness::driver::Ev;
use crate::scenario::{MembershipMode, Scenario};

/// What travels through the simulated network: protocol messages plus, in
/// Cyclon mode, membership shuffles.
pub(crate) enum Envelope {
    /// A gossip protocol message.
    Gossip(Message<StreamPacket>),
    /// A Cyclon shuffle request/reply.
    Shuffle(ShuffleMessage),
}

impl Envelope {
    /// Application bytes charged against the sender's upload budget.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Envelope::Gossip(msg) => msg.wire_size(),
            // tag + sender + count + 8 bytes per (node, age) entry
            Envelope::Shuffle(
                ShuffleMessage::Request(entries) | ShuffleMessage::Reply(entries),
            ) => 7 + entries.len() * 8,
        }
    }
}

/// The constructed deployment: every stateful component of one simulated
/// run, before and during execution.
pub(crate) struct Deployment<'a> {
    pub(crate) cfg: &'a Scenario,
    /// The compiled adversity plan (inert for a plain run).
    pub(crate) compiled: CompiledAdversity,
    /// Which compiled partitions are currently splitting the network.
    pub(crate) partition: PartitionState,
    /// Every node's unthrottled upload cap, for restoring at `ThrottleEnd`.
    pub(crate) base_caps: Vec<Option<u64>>,
    pub(crate) nodes: Vec<GossipNode<StreamPacket>>,
    pub(crate) players: Vec<StreamPlayer>,
    pub(crate) links: Vec<UploadLink<(NodeId, Envelope)>>,
    pub(crate) alive: Vec<bool>,
    /// Per-node incarnation counter: bumped on every crash so events armed
    /// for an earlier life are ignored.
    pub(crate) epoch: Vec<u32>,
    /// When each node joined (`None` = present from the start).
    pub(crate) joined_at: Vec<Option<Time>>,
    /// The currently known membership: base nodes plus joiners so far.
    /// One list for the deployment: full-membership nodes share it, and a
    /// join builds a new one.
    pub(crate) members: Arc<[NodeId]>,
    /// Cyclon views, one per node (empty in full-membership mode).
    pub(crate) cyclon: Vec<CyclonView>,
    /// RNG stream for membership shuffling (and join/revive staggering).
    pub(crate) membership_rng: DetRng,
    /// Per-node receive-side accounting.
    pub(crate) rx_stats: Vec<NetStats>,
    pub(crate) latency: LatencySampler,
    pub(crate) loss: LossProcess,
    /// RNG stream for network effects (latency jitter, loss draws).
    pub(crate) net_rng: DetRng,
    pub(crate) source: StreamSource,
}

impl<'a> Deployment<'a> {
    /// Builds the deployment and seeds the engine's initial schedule
    /// (staggered gossip rounds, shuffle rounds, source emission, the
    /// compiled fault timeline and the timeline probe).
    pub(crate) fn new(cfg: &'a Scenario) -> (Self, Engine<Ev>) {
        let compiled = cfg.adversity.compile(cfg.n, cfg.seed);
        let total = compiled.total_n;
        let mut setup_rng = DetRng::seed_from(cfg.seed).split(0xA11CE);
        let membership: Arc<[NodeId]> = (0..cfg.n as u32).map(NodeId::new).collect();
        let source_id = NodeId::new(0);

        // Joiners are constructed up front (with the base membership — it
        // is replaced when they actually join) so every per-node vector has
        // its final size and node indices never move.
        let mut nodes = Vec::with_capacity(total);
        for i in 0..total as u32 {
            let id = NodeId::new(i);
            let mut node = if id == source_id {
                GossipNode::new_source(id, cfg.gossip.clone(), Vec::new(), cfg.seed)
            } else {
                GossipNode::new(id, cfg.gossip.clone(), Vec::new(), cfg.seed)
            };
            node.set_membership(Arc::clone(&membership));
            node.set_free_rider(compiled.profiles[id.index()].free_rider);
            nodes.push(node);
        }

        // Per-node caps: uniform, or deterministic class assignment (the
        // class order is shuffled so classes do not correlate with ids).
        // An adversity bandwidth class, when present, overrides both.
        let class_caps: Option<Vec<u64>> = cfg.cap_classes.as_ref().map(|classes| {
            let mut caps: Vec<u64> = Vec::with_capacity(total);
            for &(fraction, bps) in classes {
                let count = (fraction * cfg.n as f64).round() as usize;
                caps.extend(std::iter::repeat_n(bps, count));
            }
            caps.resize(total, classes.last().map_or(0, |&(_, bps)| bps));
            setup_rng.shuffle(&mut caps);
            caps
        });
        let base_caps: Vec<Option<u64>> =
            (0..total).map(|i| node_cap(cfg, &compiled, &class_caps, i)).collect();
        let links =
            base_caps.iter().map(|&cap| UploadLink::new(cap, cfg.max_queue_delay)).collect();
        let players = (0..total).map(|_| StreamPlayer::new(cfg.stream)).collect();
        let latency = LatencySampler::new(cfg.latency.clone(), total, &mut setup_rng);
        let loss = LossProcess::new(cfg.loss, total);

        // Cyclon mode: bootstrap each base node with random peers (joiners
        // get placeholder views, bootstrapped for real when they join).
        let mut cyclon: Vec<CyclonView> = Vec::new();
        if let MembershipMode::Cyclon { config, bootstrap_degree, .. } = &cfg.membership {
            for i in 0..total as u32 {
                let id = NodeId::new(i);
                let bootstrap: Vec<NodeId> = if (i as usize) < cfg.n {
                    let candidates: Vec<NodeId> =
                        membership.iter().copied().filter(|&m| m != id).collect();
                    let picked = setup_rng.sample_indices(candidates.len(), *bootstrap_degree);
                    picked.into_iter().map(|k| candidates[k]).collect()
                } else {
                    Vec::new()
                };
                cyclon.push(CyclonView::new(id, *config, &bootstrap));
            }
        }

        let mut engine = Engine::new();
        // Stagger gossip rounds uniformly across the period: synchronized
        // rounds would be an artefact no real deployment exhibits.
        let period = cfg.gossip.gossip_period;
        for &id in membership.iter() {
            let phase = Duration::from_micros(setup_rng.next_below(period.as_micros()));
            engine.schedule(Time::ZERO + phase, Ev::Round(id, 0));
        }
        if let MembershipMode::Cyclon { shuffle_period, .. } = &cfg.membership {
            for &id in membership.iter() {
                let phase = Duration::from_micros(setup_rng.next_below(shuffle_period.as_micros()));
                engine.schedule(Time::ZERO + phase, Ev::ShuffleRound(id, 0));
            }
        }
        engine.schedule(Time::ZERO, Ev::SourceEmit);
        for (k, event) in compiled.timeline.events().iter().enumerate() {
            engine.schedule(event.at, Ev::Fault(k));
        }
        engine.schedule(Time::from_secs(1), Ev::Probe);

        let mut alive = vec![true; total];
        for a in &mut alive[cfg.n..] {
            *a = false; // joiners do not exist yet
        }
        let deployment = Deployment {
            cfg,
            nodes,
            players,
            links,
            alive,
            epoch: vec![0; total],
            joined_at: vec![None; total],
            members: membership,
            cyclon,
            membership_rng: DetRng::seed_from(cfg.seed).split(0x5AFF1E),
            rx_stats: vec![NetStats::default(); total],
            latency,
            loss,
            net_rng: DetRng::seed_from(cfg.seed).split(0xBEEF),
            source: StreamSource::new(cfg.stream, Time::ZERO),
            compiled,
            partition: PartitionState::new(),
            base_caps,
        };
        (deployment, engine)
    }

    /// The total population this deployment is sized for (base plus
    /// joiners).
    pub(crate) fn total_n(&self) -> usize {
        self.nodes.len()
    }

    /// Marks the given nodes as crashed, discards their link state, stored
    /// payloads (a down node never prunes, and its buffers are the source's
    /// own) and retransmission timers (whose deadlines the driver then
    /// cancels), and bumps their epoch so whatever else is scheduled for
    /// them dies on arrival.
    pub(crate) fn crash(&mut self, victims: &[NodeId]) {
        for v in victims {
            if v.index() < self.alive.len() {
                self.alive[v.index()] = false;
                self.nodes[v.index()].forget_payloads();
                self.nodes[v.index()].forget_retransmits();
                self.links[v.index()].crash();
                self.epoch[v.index()] += 1;
            }
        }
    }

    /// Brings a crashed node back with fresh protocol state (a crash loses
    /// everything except what the viewer already watched — the player's
    /// history survives, as does the link's traffic accounting).
    pub(crate) fn revive(&mut self, v: NodeId) {
        let i = v.index();
        debug_assert!(!self.alive[i], "revive of a live node");
        self.alive[i] = true;
        let mut node = GossipNode::new(v, self.cfg.gossip.clone(), Vec::new(), self.cfg.seed);
        node.set_membership(Arc::clone(&self.members));
        node.set_free_rider(self.compiled.profiles[i].free_rider);
        self.nodes[i] = node;
        if let MembershipMode::Cyclon { config, bootstrap_degree, .. } = &self.cfg.membership {
            // Fresh state means a fresh bootstrap, like any newcomer.
            let bootstrap = self.sample_peers(v, *bootstrap_degree);
            self.cyclon[i] = CyclonView::new(v, *config, &bootstrap);
        }
    }

    /// Brings a flash-crowd joiner to life: it enters the membership, and
    /// in full-membership mode everyone is told about it (a tracker-style
    /// introduction; under Cyclon the newcomer spreads through shuffles).
    pub(crate) fn join(&mut self, now: Time, v: NodeId) {
        let i = v.index();
        debug_assert!(!self.alive[i] && self.joined_at[i].is_none(), "double join");
        self.alive[i] = true;
        self.joined_at[i] = Some(now);
        self.members = self.members.iter().copied().chain([v]).collect();
        match &self.cfg.membership {
            MembershipMode::Full => {
                for m in self.members.iter() {
                    self.nodes[m.index()].set_membership(Arc::clone(&self.members));
                }
            }
            MembershipMode::Cyclon { config, bootstrap_degree, .. } => {
                let bootstrap = self.sample_peers(v, *bootstrap_degree);
                self.cyclon[i] = CyclonView::new(v, *config, &bootstrap);
                self.nodes[i].set_membership(Arc::clone(&self.members));
            }
        }
    }

    /// Samples `k` known peers other than `who` (for join/revive
    /// bootstraps), drawn from the membership RNG stream.
    fn sample_peers(&mut self, who: NodeId, k: usize) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = self.members.iter().copied().filter(|&m| m != who).collect();
        let picked = self.membership_rng.sample_indices(candidates.len(), k);
        picked.into_iter().map(|i| candidates[i]).collect()
    }

    /// In Cyclon mode, points a node's `selectNodes` at its live partial
    /// view before a gossip round.
    pub(crate) fn refresh_membership(&mut self, id: NodeId) {
        if !self.cyclon.is_empty() {
            let mut view = self.cyclon[id.index()].view();
            view.push(id); // set_membership expects self present or absent alike
            self.nodes[id.index()].set_membership(view);
        }
    }
}

/// Resolves the upload cap of node `i`: source provisioning first, then an
/// adversity bandwidth class, then the scenario's capacity classes, then
/// the uniform cap.
fn node_cap(
    cfg: &Scenario,
    compiled: &CompiledAdversity,
    class_caps: &Option<Vec<u64>>,
    i: usize,
) -> Option<u64> {
    if i == 0 && cfg.source_uncapped {
        return None;
    }
    let uniform = match class_caps {
        Some(caps) => Some(caps[i]),
        None => cfg.upload_cap_bps,
    };
    compiled.profiles[i].resolve_cap(uniform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_adversity::AdversitySpec;
    use gossip_membership::CyclonConfig;
    use gossip_net::Enqueued;

    #[test]
    fn construction_matches_the_scenario() {
        let cfg = crate::Scenario::tiny(5).with_seed(3);
        let (dep, engine) = Deployment::new(&cfg);
        assert_eq!(dep.nodes.len(), cfg.n);
        assert_eq!(dep.players.len(), cfg.n);
        assert_eq!(dep.links.len(), cfg.n);
        assert!(dep.alive.iter().all(|&a| a));
        assert!(dep.compiled.is_inert());
        assert!(dep.cyclon.is_empty(), "full membership by default");
        // Initial schedule: one round per node, the source emission and the
        // probe are all pending.
        assert!(engine.peek_time().is_some());
    }

    #[test]
    fn source_link_is_uncapped_by_default() {
        let cfg = crate::Scenario::tiny(5).with_seed(1);
        let (mut dep, _) = Deployment::new(&cfg);
        // An uncapped link transmits instantaneously: enqueueing completes
        // at the same instant.
        let huge = 100_000_000;
        match dep.links[0].enqueue(
            Time::ZERO,
            huge,
            (NodeId::new(1), Envelope::Gossip(Message::FeedMe)),
        ) {
            Enqueued::Started { completes_at } => assert_eq!(completes_at, Time::ZERO),
            other => panic!("idle link must start, got {other:?}"),
        }
    }

    #[test]
    fn cyclon_mode_bootstraps_every_node() {
        let degree = 4;
        let cfg = crate::Scenario::tiny(5).with_seed(2).with_membership(MembershipMode::Cyclon {
            config: CyclonConfig { view_size: 8, shuffle_size: 4 },
            shuffle_period: Duration::from_secs(1),
            bootstrap_degree: degree,
        });
        let (dep, _) = Deployment::new(&cfg);
        assert_eq!(dep.cyclon.len(), cfg.n);
        for (i, view) in dep.cyclon.iter().enumerate() {
            let peers = view.view();
            assert_eq!(peers.len(), degree, "node {i} bootstrapped with {degree} peers");
            assert!(!peers.contains(&NodeId::new(i as u32)), "no self-loops");
        }
    }

    #[test]
    fn crash_discards_state_and_bumps_epoch() {
        let cfg = crate::Scenario::tiny(5).with_seed(2);
        let (mut dep, _) = Deployment::new(&cfg);
        let packet = gossip_stream::StreamPacket::new(
            gossip_stream::PacketId::new(0, 0),
            Time::ZERO,
            vec![0u8; 8].into(),
        );
        dep.nodes[3].publish(Time::ZERO, packet);
        dep.crash(&[NodeId::new(3), NodeId::new(7)]);
        assert!(!dep.alive[3]);
        assert!(!dep.alive[7]);
        assert!(dep.alive[1]);
        assert_eq!(dep.nodes[3].stored_events(), 0, "a down node pins no payload");
        assert_eq!(dep.epoch[3], 1);
        assert_eq!(dep.epoch[1], 0);
        // Out-of-range victims are ignored rather than panicking.
        dep.crash(&[NodeId::new(10_000)]);
    }

    #[test]
    fn revive_restores_a_fresh_incarnation() {
        let cfg = crate::Scenario::tiny(5).with_seed(2);
        let (mut dep, _) = Deployment::new(&cfg);
        let v = NodeId::new(4);
        dep.nodes[4].publish(
            Time::ZERO,
            gossip_stream::StreamPacket::new(
                gossip_stream::PacketId::new(0, 0),
                Time::ZERO,
                vec![0u8; 8].into(),
            ),
        );
        dep.crash(&[v]);
        dep.revive(v);
        assert!(dep.alive[4]);
        assert_eq!(dep.epoch[4], 1, "the epoch records the crash, not the revive");
        assert_eq!(dep.nodes[4].stored_events(), 0, "protocol state is fresh");
    }

    #[test]
    fn joiners_start_dark_and_enter_membership_on_join() {
        use gossip_adversity::FaultAction;
        let mut cfg = crate::Scenario::tiny(6).with_seed(4);
        cfg.adversity = AdversitySpec::none().with_flash_crowd(
            Duration::from_secs(5),
            3,
            Duration::from_secs(1),
        );
        let (mut dep, _) = Deployment::new(&cfg);
        assert_eq!(dep.total_n(), 23);
        assert_eq!(dep.members.len(), 20);
        for i in 20..23 {
            assert!(!dep.alive[i], "joiner {i} must start dark");
        }
        let first_join = dep.compiled.timeline.events()[0];
        assert!(matches!(first_join.action, FaultAction::Join(_)));
        let v = first_join.action.node().expect("a join names its node");
        dep.join(first_join.at, v);
        assert!(dep.alive[v.index()]);
        assert_eq!(dep.members.len(), 21);
        assert_eq!(dep.joined_at[v.index()], Some(first_join.at));
        // Full membership: an old node now knows the joiner.
        assert!(dep.nodes[1].membership().contains(&v));
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let cfg = crate::Scenario::tiny(6).with_seed(9);
        let (dep_a, _) = Deployment::new(&cfg);
        let (dep_b, _) = Deployment::new(&cfg);
        let (mut rng_a, mut rng_b) = (dep_a.net_rng, dep_b.net_rng);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}
