//! Deployment construction: from a [`Scenario`] description to live
//! simulation state.
//!
//! Everything here is derived deterministically from the scenario seed, in a
//! fixed order (capacity classes, hosted nodes, latency, loss, membership
//! bootstrap, initial schedule) so that a seed uniquely determines the whole
//! run.
//!
//! The deployment is sized for the scenario's *total* population — base
//! nodes plus any flash-crowd joiners the compiled adversity plan
//! introduces. Every node is a [`HostedNode`], so crashes, revives, joins
//! and their epochs follow the rules every host shares: joiners exist as
//! down slots (not in anyone's membership) until their `Join` fault fires,
//! and stale scheduled events (old round chains, link completions,
//! retransmission timers) carry the epoch they were armed in and are
//! filtered by it, so no event armed before a crash can touch the state of
//! a later incarnation.
//!
//! Payloads live once in the deployment: one [`PacketPool`] of the packets
//! the nodes delivered intact, lent with every message a node takes and
//! pruned once a gossip period (see `gossip_core::pool`). Every receiver
//! delivers a clone of the source's packet, which the pool holds, so only
//! the source keeps its own copies — and a node that accepted a corrupted
//! or forged packet keeps that one.

use std::sync::Arc;

use gossip_adversity::{CompiledAdversity, PartitionState};
use gossip_core::PacketPool;
use gossip_net::{Enqueued, LatencySampler, LossProcess, NetStats, UploadLink};
use gossip_sim::{DetRng, Engine};
use gossip_stream::StreamPacket;
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::hosted::{bootstrap_view, Envelope, HostedNode, Setup};

use crate::harness::driver::Ev;
use crate::scenario::{MembershipMode, Scenario};

/// A simulated node's end of the network beside its upload link: its
/// receive counters.
pub struct Port {
    /// What reached the node, and what it sent that the network lost.
    pub(crate) rx: NetStats,
}

/// A node as the simulator hosts it.
pub type SimNode = HostedNode<Port>;

/// Offers an envelope to an upload link. Returns when it finishes
/// transmitting if the link was idle and started it at once.
pub(crate) fn offer(
    link: &mut UploadLink<(NodeId, Envelope)>,
    now: Time,
    to: NodeId,
    envelope: Envelope,
) -> Option<Time> {
    match link.enqueue(now, envelope.wire_size(), (to, envelope)) {
        Enqueued::Started { completes_at } => Some(completes_at),
        Enqueued::Queued | Enqueued::Dropped => None,
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
    /// Every node of the total population, indexed by id.
    pub(crate) hosted: Vec<SimNode>,
    /// The deployment's one copy of every packet a node delivered intact.
    pub(crate) pool: PacketPool<StreamPacket>,
    /// When each node joined (`None` = present from the start).
    pub(crate) joined_at: Vec<Option<Time>>,
    /// The currently known membership: base nodes plus joiners so far.
    /// One list for the deployment: full-membership nodes share it, and a
    /// join builds a new one.
    pub(crate) members: Arc<[NodeId]>,
    /// RNG stream for membership shuffling (and join/revive staggering).
    pub(crate) membership_rng: DetRng,
    pub(crate) latency: LatencySampler,
    pub(crate) loss: LossProcess,
    /// RNG stream for network effects (latency jitter, loss draws).
    pub(crate) net_rng: DetRng,
}

impl<'a> Deployment<'a> {
    /// Builds the deployment and seeds the engine's initial schedule
    /// (staggered gossip rounds, shuffle rounds, source emission and the
    /// compiled fault timeline).
    pub(crate) fn new(cfg: &'a Scenario) -> (Self, Engine<Ev>) {
        let compiled = cfg.adversity.compile(cfg.n, cfg.seed);
        let total = compiled.total_n;
        let mut setup_rng = DetRng::seed_from(cfg.seed).split(0xA11CE);
        let membership: Arc<[NodeId]> = (0..cfg.n as u32).map(NodeId::new).collect();

        // Joiners are constructed up front (with the base membership — they
        // get theirs when they join) so node indices never move.
        let setup = Setup {
            gossip: &cfg.gossip,
            stream: cfg.stream,
            stream_duration: cfg.stream_duration,
            seed: cfg.seed,
            source_uncapped: cfg.source_uncapped,
        };
        let mut hosted: Vec<SimNode> = (0..total)
            .map(|i| {
                HostedNode::new(
                    NodeId::new(i as u32),
                    &setup,
                    compiled.profiles[i],
                    Arc::clone(&membership),
                    cfg.upload_cap_bps,
                    cfg.max_queue_delay,
                    Port { rx: NetStats::default() },
                )
            })
            .collect();
        let latency = LatencySampler::new(cfg.latency.clone(), total, &mut setup_rng);
        let loss = LossProcess::new(cfg.loss, total);

        // Cyclon mode: bootstrap each base node with random peers (joiners
        // are bootstrapped when they join).
        if let MembershipMode::Cyclon { config, bootstrap_degree, .. } = &cfg.membership {
            for (node, &id) in hosted.iter_mut().zip(membership.iter()) {
                let view =
                    bootstrap_view(id, *config, &membership, *bootstrap_degree, &mut setup_rng);
                node.view = Some(view);
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

        let deployment = Deployment {
            cfg,
            hosted,
            pool: PacketPool::new(),
            joined_at: vec![None; total],
            members: membership,
            membership_rng: DetRng::seed_from(cfg.seed).split(0x5AFF1E),
            latency,
            loss,
            net_rng: DetRng::seed_from(cfg.seed).split(0xBEEF),
            compiled,
            partition: PartitionState::new(),
        };
        (deployment, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_adversity::{AdversitySpec, FaultAction};
    use gossip_core::Message;
    use gossip_membership::CyclonConfig;
    use gossip_udp::hosted::apply;

    use crate::harness::driver::Driver;

    #[test]
    fn construction_matches_the_scenario() {
        let cfg = crate::Scenario::tiny(5).with_seed(3);
        let (dep, engine) = Deployment::new(&cfg);
        assert_eq!(dep.hosted.len(), cfg.n);
        assert!(dep.hosted.iter().all(|h| !h.is_down()));
        assert!(dep.hosted[0].is_source() && !dep.hosted[1].is_source());
        assert!(dep.compiled.is_inert());
        assert!(dep.hosted.iter().all(|h| h.view.is_none()), "full membership by default");
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
        match dep.hosted[0].link.enqueue(
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
        for (i, hosted) in dep.hosted.iter().enumerate() {
            let peers = hosted.view.as_ref().expect("every base node has a view").view();
            assert_eq!(peers.len(), degree, "node {i} bootstrapped with {degree} peers");
            assert!(!peers.contains(&NodeId::new(i as u32)), "no self-loops");
        }
    }

    /// The simulator's wiring of the shared crash rule: the victims it
    /// hosts go down, and an id it does not host is ignored.
    #[test]
    fn crash_discards_state_and_bumps_epoch() {
        let cfg = crate::Scenario::tiny(5).with_seed(2);
        let mut driver = Driver::new(&cfg);
        let packet = gossip_stream::StreamPacket::new(
            gossip_stream::PacketId::new(0, 0),
            Time::ZERO,
            vec![0u8; 8].into(),
        );
        driver.dep.hosted[3].node.publish(Time::ZERO, packet);
        for v in [3, 7, 10_000] {
            apply(&mut driver, Time::ZERO, FaultAction::Crash(NodeId::new(v)));
        }
        let hosted = &driver.dep.hosted;
        assert!(hosted[3].is_down() && hosted[7].is_down() && !hosted[1].is_down());
        assert_eq!(hosted[3].node.stored_events(), 0, "a down node pins no payload");
        assert_eq!((hosted[3].epoch(), hosted[1].epoch()), (1, 0));
    }

    /// A rejoin through the simulator: fresh state, and a new round chain
    /// in the new incarnation.
    #[test]
    fn revive_restores_a_fresh_incarnation() {
        let cfg = crate::Scenario::tiny(5).with_seed(2);
        let mut driver = Driver::new(&cfg);
        let v = NodeId::new(4);
        driver.dep.hosted[4].node.publish(
            Time::ZERO,
            gossip_stream::StreamPacket::new(
                gossip_stream::PacketId::new(0, 0),
                Time::ZERO,
                vec![0u8; 8].into(),
            ),
        );
        apply(&mut driver, Time::ZERO, FaultAction::Crash(v));
        let pending = driver.engine.pending();
        apply(&mut driver, Time::ZERO, FaultAction::Rejoin(v));
        assert!(driver.dep.hosted[4].is_current(1), "the epoch records the crash, not the revive");
        assert_eq!(driver.dep.hosted[4].node.stored_events(), 0, "protocol state is fresh");
        assert_eq!(driver.engine.pending(), pending + 1, "its first round is armed");
    }

    #[test]
    fn joiners_start_dark_and_enter_membership_on_join() {
        let mut cfg = crate::Scenario::tiny(6).with_seed(4);
        cfg.adversity = AdversitySpec::none().with_flash_crowd(
            Duration::from_secs(5),
            3,
            Duration::from_secs(1),
        );
        let mut driver = Driver::new(&cfg);
        let dep = &driver.dep;
        assert_eq!(dep.hosted.len(), 23, "sized for base plus joiners");
        assert_eq!(dep.members.len(), 20);
        for i in 20..23 {
            assert!(dep.hosted[i].is_down(), "joiner {i} must start dark");
        }
        let first_join = dep.compiled.timeline.events()[0];
        assert!(matches!(first_join.action, FaultAction::Join(_)));
        let v = first_join.action.node().expect("a join names its node");
        apply(&mut driver, first_join.at, first_join.action);
        let dep = &driver.dep;
        assert!(!dep.hosted[v.index()].is_down());
        assert_eq!(dep.members.len(), 21);
        assert_eq!(dep.joined_at[v.index()], Some(first_join.at));
        // Full membership: an old node now knows the joiner.
        assert!(dep.hosted[1].node.membership().contains(&v));
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
