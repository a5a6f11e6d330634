//! The compiled form of an adversity spec: typed fault events on a shared
//! timeline, plus static per-node profiles.

use gossip_types::{NodeId, Time};

use crate::chaos::ChaosPlan;

/// What happens at one instant of the fault timeline.
///
/// Node-scoped actions (`Crash`/`Rejoin`/`Join`) name their victim;
/// network-scoped actions (`Partition`/`Heal`, `ThrottleStart`/
/// `ThrottleEnd`) name an index into the compiled plan's
/// [`CompiledAdversity::partitions`] / [`CompiledAdversity::throttles`]
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The node crashes: it loses all protocol state, stops sending and
    /// drops everything addressed to it.
    Crash(NodeId),
    /// A previously crashed node comes back with *fresh* protocol state
    /// (a crash loses state; only the stream player's history of what it
    /// already watched survives, because the viewer did watch it).
    Rejoin(NodeId),
    /// A brand-new node (id ≥ the base population) boots mid-run and
    /// starts participating from nothing.
    Join(NodeId),
    /// The k-th partition activates: the membership graph splits into the
    /// named cells and traffic between cells is dropped by the transport.
    Partition(u32),
    /// The k-th partition heals: cross-cell traffic flows again.
    Heal(u32),
    /// The k-th throttle starts: its victims' upload caps drop to the
    /// throttled rate.
    ThrottleStart(u32),
    /// The k-th throttle ends: its victims' upload caps are restored.
    ThrottleEnd(u32),
}

impl FaultAction {
    /// The node a node-scoped action applies to (`None` for the
    /// network-scoped partition/throttle actions).
    pub fn node(self) -> Option<NodeId> {
        match self {
            FaultAction::Crash(n) | FaultAction::Rejoin(n) | FaultAction::Join(n) => Some(n),
            _ => None,
        }
    }
}

/// One timed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (offset from the run's start, `Time::ZERO`).
    pub at: Time,
    /// What happens.
    pub action: FaultAction,
}

/// The ordered fault schedule of one run.
///
/// Events are sorted by `(time, compilation order)`; ties at the same
/// instant apply in list order. The compiler guarantees *order-soundness*
/// (checked by [`FaultTimeline::is_order_sound`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Wraps a pre-ordered event list (the compiler's output).
    pub(crate) fn new(events: Vec<FaultEvent>) -> Self {
        FaultTimeline { events }
    }

    /// The events, ordered by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every node that is crashed at `horizon` (crashed without a later
    /// rejoin before the horizon).
    pub fn dead_at(&self, horizon: Time) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = Vec::new();
        for ev in &self.events {
            if ev.at > horizon {
                break;
            }
            match ev.action {
                FaultAction::Crash(n) => dead.push(n),
                FaultAction::Rejoin(n) => dead.retain(|&d| d != n),
                _ => {}
            }
        }
        dead.sort_unstable();
        dead
    }

    /// Checks the structural invariants given a total population of
    /// `total_n` nodes (base plus joiners):
    ///
    /// * events are sorted by time;
    /// * no node crashes twice without an intervening rejoin;
    /// * no node rejoins unless currently crashed;
    /// * no node joins twice, and joiners never crash before joining;
    /// * a heal only follows its (currently active) partition, and a
    ///   partition index never re-activates while still split;
    /// * throttle intervals never overlap per class: `ThrottleEnd(k)` only
    ///   follows an active `ThrottleStart(k)`, and class `k` never starts
    ///   twice without an intervening end.
    pub fn is_order_sound(&self, total_n: usize) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum S {
            NeverJoined,
            Alive,
            Dead,
        }
        // Ids outside 0..total_n are unconditionally unsound.
        if self.events.iter().any(|e| e.action.node().is_some_and(|n| n.index() >= total_n)) {
            return false;
        }
        let mut state = vec![S::Alive; total_n];
        for e in &self.events {
            if let FaultAction::Join(n) = e.action {
                state[n.index()] = S::NeverJoined;
            }
        }
        // Active/inactive interval state per partition and throttle class.
        let mut split: Vec<bool> = Vec::new();
        let mut throttled: Vec<bool> = Vec::new();
        fn active(v: &mut Vec<bool>, k: u32) -> &mut bool {
            let k = k as usize;
            if v.len() <= k {
                v.resize(k + 1, false);
            }
            &mut v[k]
        }
        let mut last = Time::ZERO;
        for e in &self.events {
            if e.at < last {
                return false;
            }
            last = e.at;
            match e.action {
                FaultAction::Crash(n) | FaultAction::Rejoin(n) | FaultAction::Join(n) => {
                    let s = &mut state[n.index()];
                    match e.action {
                        FaultAction::Crash(_) if *s == S::Alive => *s = S::Dead,
                        FaultAction::Rejoin(_) if *s == S::Dead => *s = S::Alive,
                        FaultAction::Join(_) if *s == S::NeverJoined => *s = S::Alive,
                        _ => return false,
                    }
                }
                FaultAction::Partition(k) => {
                    let a = active(&mut split, k);
                    if *a {
                        return false;
                    }
                    *a = true;
                }
                FaultAction::Heal(k) => {
                    let a = active(&mut split, k);
                    if !*a {
                        return false;
                    }
                    *a = false;
                }
                FaultAction::ThrottleStart(k) => {
                    let a = active(&mut throttled, k);
                    if *a {
                        return false;
                    }
                    *a = true;
                }
                FaultAction::ThrottleEnd(k) => {
                    let a = active(&mut throttled, k);
                    if !*a {
                        return false;
                    }
                    *a = false;
                }
            }
        }
        true
    }
}

/// How a Byzantine peer misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehaviour {
    /// Serves payloads whose bytes were flipped after the checksum was
    /// stamped — structurally valid frames carrying garbage.
    ServeCorrupt,
    /// Proposes ids that do not (and will never) exist, trying to waste
    /// honest request budgets and bloat per-window bookkeeping.
    ProposeGarbage,
    /// Accepts requests and silently never serves them, starving the
    /// requester until its retransmission timer fires.
    EatRequests,
}

/// Static, start-of-run attributes of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// Upload-cap override from a bandwidth class (`None` = the scenario's
    /// uniform default applies; `Some(cap)` replaces it, where the inner
    /// `Option` distinguishes a finite cap from "explicitly uncapped").
    pub cap_bps: Option<Option<u64>>,
    /// Free-riders request and receive but never propose or serve.
    pub free_rider: bool,
    /// `Some(t)` for flash-crowd joiners: the node does not exist before
    /// `t` (its [`FaultAction::Join`] event is also on the timeline).
    pub join_at: Option<Time>,
    /// `Some(behaviour)` for Byzantine peers (never the source).
    pub byzantine: Option<ByzantineBehaviour>,
}

impl NodeProfile {
    /// Resolves this node's upload cap against the deployment's uniform
    /// default: a bandwidth-class override wins, otherwise `uniform`
    /// applies. Every runtime resolves caps through this one function so
    /// the same spec can never yield different caps on different hosts.
    /// (Source provisioning — `source_uncapped` — is the caller's
    /// decision; it applies before the profile is consulted.)
    pub fn resolve_cap(&self, uniform: Option<u64>) -> Option<u64> {
        match self.cap_bps {
            Some(class_cap) => class_cap,
            None => uniform,
        }
    }
}

/// One compiled partition: the cell each node belongs to while the
/// partition is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCells {
    /// `cells[node] = cell index` (`total_n` entries; cross-cell traffic
    /// is dropped while active).
    pub cells: Vec<u8>,
}

/// One compiled throttle: the victims and the rate they are throttled to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottlePlan {
    /// The throttled upload cap in bits/s (`None` = uncapped, a "boost").
    pub cap_bps: Option<u64>,
    /// The nodes whose upload links the throttle applies to.
    pub victims: Vec<NodeId>,
}

/// A fully compiled adversity plan for a concrete deployment size.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAdversity {
    /// Nodes present from the start (the scenario's `n`).
    pub base_n: usize,
    /// Base nodes plus flash-crowd joiners; every runtime must size its
    /// state for this many nodes.
    pub total_n: usize,
    /// The ordered fault schedule.
    pub timeline: FaultTimeline,
    /// Per-node static attributes, `total_n` entries.
    pub profiles: Vec<NodeProfile>,
    /// Cell maps referenced by [`FaultAction::Partition`]/[`FaultAction::Heal`].
    pub partitions: Vec<PartitionCells>,
    /// Throttle plans referenced by [`FaultAction::ThrottleStart`]/
    /// [`FaultAction::ThrottleEnd`].
    pub throttles: Vec<ThrottlePlan>,
    /// Syscall-boundary fault injection plan for the reactor runtime
    /// (inert for the simulator, which has no kernel I/O path to inject
    /// into).
    pub chaos: ChaosPlan,
}

impl CompiledAdversity {
    /// A no-adversity compilation: empty timeline, default profiles.
    pub fn inert(n: usize) -> Self {
        CompiledAdversity {
            base_n: n,
            total_n: n,
            timeline: FaultTimeline::default(),
            profiles: vec![NodeProfile::default(); n],
            partitions: Vec::new(),
            throttles: Vec::new(),
            chaos: ChaosPlan::none(),
        }
    }

    /// Whether this compilation changes nothing about a plain run.
    pub fn is_inert(&self) -> bool {
        self.total_n == self.base_n
            && self.timeline.is_empty()
            && self.profiles.iter().all(|p| *p == NodeProfile::default())
            && self.partitions.is_empty()
            && self.throttles.is_empty()
            && self.chaos.is_none()
    }

    /// Structural soundness beyond [`FaultTimeline::is_order_sound`]:
    /// every partition/throttle index resolves, cell maps and victim sets
    /// are sized for the population, and Byzantine assignment never names
    /// the source.
    pub fn is_sound(&self) -> bool {
        self.timeline.is_order_sound(self.total_n)
            && self.timeline.events().iter().all(|e| match e.action {
                FaultAction::Partition(k) | FaultAction::Heal(k) => {
                    (k as usize) < self.partitions.len()
                }
                FaultAction::ThrottleStart(k) | FaultAction::ThrottleEnd(k) => {
                    (k as usize) < self.throttles.len()
                }
                _ => true,
            })
            && self.partitions.iter().all(|p| p.cells.len() == self.total_n)
            && self.throttles.iter().all(|t| t.victims.iter().all(|v| v.index() < self.total_n))
            && self.profiles.first().is_none_or(|p| p.byzantine.is_none())
    }
}

/// Runtime partition tracker shared by every runtime.
///
/// Feed it every fired [`FaultAction`] (non-partition actions are ignored)
/// and ask [`PartitionState::allows`] before delivering a datagram: the
/// sim's link layer and the reactor's demux enforce the same cell maps
/// through this one helper, so a partition can never mean different
/// things on different hosts.
#[derive(Debug, Clone, Default)]
pub struct PartitionState {
    /// Indices of currently active partitions.
    active: Vec<u32>,
}

impl PartitionState {
    /// A tracker with no active partitions.
    pub fn new() -> Self {
        PartitionState::default()
    }

    /// Applies one fired timeline action (ignores node-scoped and throttle
    /// actions).
    pub fn on_event(&mut self, action: FaultAction) {
        match action {
            FaultAction::Partition(k) if !self.active.contains(&k) => self.active.push(k),
            FaultAction::Heal(k) => self.active.retain(|&a| a != k),
            _ => {}
        }
    }

    /// Whether traffic from `a` to `b` is currently allowed: every active
    /// partition must place both endpoints in the same cell.
    pub fn allows(&self, compiled: &CompiledAdversity, a: NodeId, b: NodeId) -> bool {
        self.active.iter().all(|&k| {
            let cells = &compiled.partitions[k as usize].cells;
            match (cells.get(a.index()), cells.get(b.index())) {
                (Some(ca), Some(cb)) => ca == cb,
                // Nodes outside the cell map (never compiled) are not cut off.
                _ => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_s: u64, action: FaultAction) -> FaultEvent {
        FaultEvent { at: Time::from_secs(at_s), action }
    }

    #[test]
    fn order_soundness_accepts_crash_rejoin_cycles() {
        let t = FaultTimeline::new(vec![
            ev(1, FaultAction::Crash(NodeId::new(3))),
            ev(2, FaultAction::Rejoin(NodeId::new(3))),
            ev(4, FaultAction::Crash(NodeId::new(3))),
            ev(5, FaultAction::Join(NodeId::new(9))),
            ev(6, FaultAction::Crash(NodeId::new(9))),
        ]);
        assert!(t.is_order_sound(10));
        assert_eq!(t.dead_at(Time::from_secs(3)), vec![]);
        assert_eq!(t.dead_at(Time::from_secs(10)), vec![NodeId::new(3), NodeId::new(9)]);
    }

    #[test]
    fn order_soundness_rejects_double_crash_and_unsorted() {
        let double = FaultTimeline::new(vec![
            ev(1, FaultAction::Crash(NodeId::new(3))),
            ev(2, FaultAction::Crash(NodeId::new(3))),
        ]);
        assert!(!double.is_order_sound(10));
        let unsorted = FaultTimeline::new(vec![
            ev(2, FaultAction::Crash(NodeId::new(3))),
            ev(1, FaultAction::Crash(NodeId::new(4))),
        ]);
        assert!(!unsorted.is_order_sound(10));
        let early_crash = FaultTimeline::new(vec![
            ev(1, FaultAction::Crash(NodeId::new(9))),
            ev(2, FaultAction::Join(NodeId::new(9))),
        ]);
        assert!(!early_crash.is_order_sound(10));
        let out_of_range = FaultTimeline::new(vec![ev(1, FaultAction::Crash(NodeId::new(10)))]);
        assert!(!out_of_range.is_order_sound(10));
    }

    #[test]
    fn order_soundness_pairs_partitions_and_throttles() {
        let good = FaultTimeline::new(vec![
            ev(1, FaultAction::Partition(0)),
            ev(2, FaultAction::ThrottleStart(0)),
            ev(3, FaultAction::Heal(0)),
            ev(4, FaultAction::ThrottleEnd(0)),
            ev(5, FaultAction::Partition(0)), // a healed index may split again
            ev(6, FaultAction::Heal(0)),
        ]);
        assert!(good.is_order_sound(10));
        let orphan_heal = FaultTimeline::new(vec![ev(1, FaultAction::Heal(0))]);
        assert!(!orphan_heal.is_order_sound(10));
        let double_split = FaultTimeline::new(vec![
            ev(1, FaultAction::Partition(2)),
            ev(2, FaultAction::Partition(2)),
        ]);
        assert!(!double_split.is_order_sound(10));
        let orphan_end = FaultTimeline::new(vec![ev(1, FaultAction::ThrottleEnd(1))]);
        assert!(!orphan_end.is_order_sound(10));
        let overlapping_class = FaultTimeline::new(vec![
            ev(1, FaultAction::ThrottleStart(0)),
            ev(2, FaultAction::ThrottleStart(0)),
        ]);
        assert!(!overlapping_class.is_order_sound(10));
    }

    #[test]
    fn inert_compilation_is_inert() {
        let c = CompiledAdversity::inert(20);
        assert!(c.is_inert());
        assert!(c.is_sound());
        assert_eq!(c.total_n, 20);
    }

    #[test]
    fn partition_state_tracks_cells() {
        let mut c = CompiledAdversity::inert(4);
        c.partitions.push(PartitionCells { cells: vec![0, 0, 1, 1] });
        let mut p = PartitionState::new();
        let (a, b, d) = (NodeId::new(0), NodeId::new(1), NodeId::new(3));
        assert!(p.allows(&c, a, d), "no partition: everything flows");
        p.on_event(FaultAction::Partition(0));
        assert!(p.allows(&c, a, b), "same cell");
        assert!(!p.allows(&c, a, d), "cross cell is cut");
        p.on_event(FaultAction::Crash(a)); // ignored
        assert!(!p.allows(&c, a, d), "still cut");
        p.on_event(FaultAction::Heal(0));
        assert!(p.allows(&c, a, d), "healed");
    }

    #[test]
    fn compiled_soundness_rejects_bad_indices_and_byzantine_source() {
        let mut c = CompiledAdversity::inert(4);
        c.timeline = FaultTimeline::new(vec![ev(1, FaultAction::Partition(0))]);
        assert!(!c.is_sound(), "partition index without a cell map");
        c.partitions.push(PartitionCells { cells: vec![0, 0, 1, 1] });
        assert!(c.is_sound());
        c.profiles[0].byzantine = Some(ByzantineBehaviour::ServeCorrupt);
        assert!(!c.is_sound(), "the source must never be Byzantine");
    }
}
