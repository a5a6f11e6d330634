//! The declarative adversity description and its deterministic compiler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gossip_sim::DetRng;
use gossip_types::{Duration, NodeId, Time};

use crate::chaos::ChaosSpec;
use crate::churn;
use crate::timeline::{
    ByzantineBehaviour, CompiledAdversity, FaultAction, FaultEvent, FaultTimeline, NodeProfile,
    PartitionCells, ThrottlePlan,
};

/// RNG stream tag for spec compilation: independent of every stream the
/// runtimes draw from, so adding adversity never perturbs a run's other
/// randomness (and an empty spec draws nothing at all).
const COMPILE_STREAM: u64 = 0xADF0_17ED;

/// The paper's Figure 7/8 scenario: a random fraction of the nodes crash
/// simultaneously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Catastrophic {
    /// When the crash happens (offset from the start of the run).
    pub at: Duration,
    /// Fraction of the base population that fails (`0..=1`); the source
    /// (node 0) is always protected.
    pub fraction: f64,
}

/// Continuous Poisson leave/rejoin churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonChurn {
    /// Churn window start.
    pub start: Duration,
    /// Churn window end (arrivals after this are not generated).
    pub end: Duration,
    /// Mean leave rate over the whole population, in departures per second.
    pub leaves_per_sec: f64,
    /// Mean time a departed node stays away before rejoining with fresh
    /// state (exponentially distributed); `None` = departures are final.
    pub mean_downtime: Option<Duration>,
}

/// A wave of brand-new nodes bootstrapping mid-stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the first newcomer arrives.
    pub at: Duration,
    /// How many new nodes join (ids `n..n+count`).
    pub count: usize,
    /// The joins are spread evenly across this window (a literal
    /// same-instant stampede is `Duration::ZERO`).
    pub spread: Duration,
}

/// One upload-capacity class of the heterogeneity extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthClass {
    /// Fraction of the population in this class (fractions should sum
    /// to ~1; the last class absorbs rounding).
    pub fraction: f64,
    /// The class upload cap in bits/s (`None` = uncapped).
    pub cap_bps: Option<u64>,
}

/// The relative weights of the three Byzantine behaviours within the
/// misbehaving population (normalised at compile time; all-zero weights
/// default to pure serve-corruptors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineMix {
    /// Weight of [`ByzantineBehaviour::ServeCorrupt`] peers.
    pub serve_corrupt: f64,
    /// Weight of [`ByzantineBehaviour::ProposeGarbage`] peers.
    pub propose_garbage: f64,
    /// Weight of [`ByzantineBehaviour::EatRequests`] peers.
    pub eat_requests: f64,
}

impl ByzantineMix {
    /// Pure serve-corruptors — the mix the paper-style quality experiments
    /// care about most, and the default when no weights are given.
    pub fn serve_corruptors() -> Self {
        ByzantineMix { serve_corrupt: 1.0, propose_garbage: 0.0, eat_requests: 0.0 }
    }
}

/// A fraction of the base receivers that misbehaves (never the source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantinePeers {
    /// Fraction of the base receivers that are Byzantine (`0..=1`).
    pub fraction: f64,
    /// How the misbehaving population splits across behaviours.
    pub mix: ByzantineMix,
}

/// One scheduled partition: the membership splits into `cells` named cells
/// at `at` and heals at `heal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// When the split happens.
    pub at: Duration,
    /// When cross-cell traffic flows again (must be after `at`).
    pub heal: Duration,
    /// How many cells the population splits into (≥ 2; cell membership is
    /// drawn at compile time, the source lands in cell 0).
    pub cells: usize,
}

/// One scheduled throttle: a fraction of receivers has its upload cap
/// forced to `cap_bps` between `start` and `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleSpec {
    /// When the throttle engages.
    pub start: Duration,
    /// When the original caps are restored (must be after `start`).
    pub end: Duration,
    /// Fraction of the base receivers affected (`0..=1`; never the source).
    pub fraction: f64,
    /// The throttled upload cap in bits/s (`None` = uncapped — a "boost").
    pub cap_bps: Option<u64>,
}

/// A declarative, composable fault & workload description.
///
/// Build one with the `with_*` methods (or load it from TOML), then
/// [`AdversitySpec::compile`] it for a concrete deployment size and seed.
/// All sampling happens at compile time on a dedicated RNG stream, so the
/// same `(spec, n, seed)` always yields the identical timeline and an
/// empty spec perturbs nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversitySpec {
    /// One-shot catastrophic crash (Figures 7–8).
    pub catastrophic: Option<Catastrophic>,
    /// Continuous Poisson leave/rejoin churn.
    pub churn: Option<PoissonChurn>,
    /// Flash-crowd join wave of new nodes.
    pub flash_crowd: Option<FlashCrowd>,
    /// Fraction of base receivers that free-ride (request but never
    /// propose or serve).
    pub free_rider_fraction: Option<f64>,
    /// Upload-capacity classes (empty = the scenario's uniform cap).
    pub bandwidth_classes: Vec<BandwidthClass>,
    /// Explicitly scheduled crashes `(at, victims)` of hand-picked victims,
    /// for scripted scenarios (the paper's catastrophic failure is
    /// [`AdversitySpec::catastrophic`], whose victims
    /// [`AdversitySpec::compile`] draws). Unlike the random fault processes
    /// (which always protect the source), hand-picked victims are honoured
    /// verbatim — naming node 0 here deliberately kills the source.
    pub explicit_crashes: Vec<(Duration, Vec<NodeId>)>,
    /// Byzantine peers: a fraction of the base receivers that corrupts
    /// serves, proposes garbage ids or eats requests.
    pub byzantine: Option<ByzantinePeers>,
    /// Scheduled partition/heal intervals.
    pub partitions: Vec<PartitionSpec>,
    /// Scheduled time-varying bandwidth throttles.
    pub throttles: Vec<ThrottleSpec>,
    /// Syscall-boundary fault injection for the reactor runtime (drop /
    /// duplicate / reorder / delay / truncate plus errno faults). The
    /// default injects nothing.
    pub chaos: ChaosSpec,
}

impl AdversitySpec {
    /// The empty spec: compiling it is a no-op.
    pub fn none() -> Self {
        AdversitySpec::default()
    }

    /// Whether this spec describes any adversity at all.
    pub fn is_none(&self) -> bool {
        *self == AdversitySpec::default()
    }

    /// Adds the paper's catastrophic crash (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn with_catastrophic(mut self, at: Duration, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be within [0, 1]");
        self.catastrophic = Some(Catastrophic { at, fraction });
        self
    }

    /// Adds Poisson leave/rejoin churn (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted or the rate is not positive and
    /// finite.
    pub fn with_poisson_churn(
        mut self,
        start: Duration,
        end: Duration,
        leaves_per_sec: f64,
        mean_downtime: Option<Duration>,
    ) -> Self {
        assert!(start <= end, "churn window must not be inverted");
        assert!(
            leaves_per_sec > 0.0 && leaves_per_sec.is_finite(),
            "leave rate must be positive and finite"
        );
        self.churn = Some(PoissonChurn { start, end, leaves_per_sec, mean_downtime });
        self
    }

    /// Adds a flash-crowd join wave (builder-style).
    pub fn with_flash_crowd(mut self, at: Duration, count: usize, spread: Duration) -> Self {
        self.flash_crowd = Some(FlashCrowd { at, count, spread });
        self
    }

    /// Sets the free-rider fraction (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn with_free_riders(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be within [0, 1]");
        self.free_rider_fraction = Some(fraction);
        self
    }

    /// Sets the upload-capacity classes (builder-style).
    pub fn with_bandwidth_classes(mut self, classes: Vec<BandwidthClass>) -> Self {
        self.bandwidth_classes = classes;
        self
    }

    /// Schedules an explicit crash of hand-picked victims (builder-style).
    pub fn with_explicit_crash(mut self, at: Duration, victims: Vec<NodeId>) -> Self {
        self.explicit_crashes.push((at, victims));
        self
    }

    /// Makes a fraction of the base receivers Byzantine (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or any mix weight is
    /// negative or non-finite.
    pub fn with_byzantine(mut self, fraction: f64, mix: ByzantineMix) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be within [0, 1]");
        for w in [mix.serve_corrupt, mix.propose_garbage, mix.eat_requests] {
            assert!(w >= 0.0 && w.is_finite(), "mix weights must be non-negative and finite");
        }
        self.byzantine = Some(ByzantinePeers { fraction, mix });
        self
    }

    /// Schedules a partition/heal interval (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or inverted, or `cells < 2`.
    pub fn with_partition(mut self, at: Duration, heal: Duration, cells: usize) -> Self {
        assert!(at < heal, "a partition must heal strictly after it splits");
        assert!(cells >= 2, "a partition needs at least two cells");
        self.partitions.push(PartitionSpec { at, heal, cells });
        self
    }

    /// Schedules a time-varying bandwidth throttle (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or inverted, or `fraction` is
    /// outside `[0, 1]`.
    pub fn with_throttle(
        mut self,
        start: Duration,
        end: Duration,
        fraction: f64,
        cap_bps: Option<u64>,
    ) -> Self {
        assert!(start < end, "a throttle must end strictly after it starts");
        assert!((0.0..=1.0).contains(&fraction), "fraction must be within [0, 1]");
        self.throttles.push(ThrottleSpec { start, end, fraction, cap_bps });
        self
    }

    /// Sets the syscall-boundary chaos description (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if any probability is not within `[0, 1]`.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        chaos.validate();
        self.chaos = chaos;
        self
    }

    /// Compiles the spec for a base population of `n` nodes under the
    /// given seed.
    ///
    /// Compilation walks every fault process in one chronological pass
    /// (a time-ordered worklist), resolving victims against the population
    /// state *at that instant* — which is what makes the output
    /// order-sound by construction: only currently-alive nodes can crash,
    /// only crashed nodes rejoin, joiners exist only after their join.
    /// Everything derives from `DetRng::seed_from(seed)` on a dedicated
    /// stream, so the result is a pure function of `(spec, n, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a deployment needs a source and a receiver).
    pub fn compile(&self, n: usize, seed: u64) -> CompiledAdversity {
        assert!(n >= 2, "a deployment needs a source and at least one receiver");
        if self.is_none() {
            return CompiledAdversity::inert(n);
        }
        let mut rng = DetRng::seed_from(seed).split(COMPILE_STREAM);
        let joiners = self.flash_crowd.map_or(0, |fc| fc.count);
        let total_n = n + joiners;
        let mut profiles = vec![NodeProfile::default(); total_n];

        // --- static profiles ------------------------------------------------
        // Bandwidth classes: counts per class over the whole population,
        // shuffled so class membership does not correlate with node ids.
        // Node 0 keeps the scenario default (the provisioned source).
        if !self.bandwidth_classes.is_empty() {
            let mut caps: Vec<Option<u64>> = Vec::with_capacity(total_n);
            for class in &self.bandwidth_classes {
                let count = (class.fraction * total_n as f64).round() as usize;
                caps.extend(std::iter::repeat_n(class.cap_bps, count));
            }
            let last = self.bandwidth_classes.last().expect("non-empty").cap_bps;
            caps.resize(total_n, last);
            rng.shuffle(&mut caps);
            for (i, cap) in caps.into_iter().enumerate().skip(1) {
                profiles[i].cap_bps = Some(cap);
            }
        }
        // Free-riders: a fraction of the base receivers (never the source,
        // never the joiners — newcomers that contribute nothing would
        // conflate two effects in every experiment).
        if let Some(fraction) = self.free_rider_fraction {
            let receivers = n - 1;
            let count = ((fraction * receivers as f64).round() as usize).min(receivers);
            for i in rng.sample_indices(receivers, count) {
                profiles[i + 1].free_rider = true;
            }
        }
        // Byzantine peers: a fraction of the base receivers (never the
        // source, never the joiners — same rationale as free riders), each
        // assigned one behaviour by the mix weights.
        if let Some(byz) = self.byzantine {
            let receivers = n - 1;
            let count = ((byz.fraction * receivers as f64).round() as usize).min(receivers);
            let weights = [byz.mix.serve_corrupt, byz.mix.propose_garbage, byz.mix.eat_requests];
            let total_weight: f64 = weights.iter().sum();
            for i in rng.sample_indices(receivers, count) {
                let behaviour = if total_weight <= 0.0 {
                    ByzantineBehaviour::ServeCorrupt
                } else {
                    // A uniform draw in [0, total): the behaviour whose
                    // cumulative weight bucket the draw lands in.
                    let draw = rng.next_below(u64::MAX) as f64 / u64::MAX as f64 * total_weight;
                    if draw < weights[0] {
                        ByzantineBehaviour::ServeCorrupt
                    } else if draw < weights[0] + weights[1] {
                        ByzantineBehaviour::ProposeGarbage
                    } else {
                        ByzantineBehaviour::EatRequests
                    }
                };
                profiles[i + 1].byzantine = Some(behaviour);
            }
        }
        // Partitions: a cell map per scheduled split, drawn once at compile
        // time so every runtime cuts the exact same edges. The source
        // always lands in cell 0 (a sourceless cell measures nothing but
        // its own starvation — re-convergence is the interesting metric).
        let partitions: Vec<PartitionCells> = self
            .partitions
            .iter()
            .map(|p| {
                let mut cells = vec![0u8; total_n];
                for cell in cells.iter_mut().skip(1) {
                    *cell = rng.index(p.cells) as u8;
                }
                PartitionCells { cells }
            })
            .collect();
        // Throttles: victim sets over the base receivers, never the source.
        let throttles: Vec<ThrottlePlan> = self
            .throttles
            .iter()
            .map(|t| {
                let receivers = n - 1;
                let count = ((t.fraction * receivers as f64).round() as usize).min(receivers);
                let mut victims: Vec<NodeId> = rng
                    .sample_indices(receivers, count)
                    .into_iter()
                    .map(|i| NodeId::new((i + 1) as u32))
                    .collect();
                victims.sort_unstable();
                ThrottlePlan { cap_bps: t.cap_bps, victims }
            })
            .collect();

        // --- the chronological worklist -------------------------------------
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Work {
            Explicit(usize),
            Catastrophic,
            ChurnArrival,
            Rejoin(NodeId),
            Join(NodeId),
            Network(FaultAction),
        }
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut payloads: Vec<Work> = Vec::new();
        let push = |heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    payloads: &mut Vec<Work>,
                    at: Time,
                    work: Work| {
            let seq = payloads.len() as u64;
            payloads.push(work);
            heap.push(Reverse((at.as_micros(), seq)));
        };

        for (k, &(at, _)) in self.explicit_crashes.iter().enumerate() {
            push(&mut heap, &mut payloads, Time::ZERO + at, Work::Explicit(k));
        }
        if let Some(cat) = self.catastrophic {
            push(&mut heap, &mut payloads, Time::ZERO + cat.at, Work::Catastrophic);
        }
        if let Some(churn) = self.churn {
            // Pre-draw the Poisson arrival instants (victims are resolved
            // chronologically below, against the then-alive population).
            let mean_gap = 1.0 / churn.leaves_per_sec;
            let mut t = Time::ZERO + churn.start;
            let end = Time::ZERO + churn.end;
            loop {
                t += Duration::from_secs_f64(rng.exponential(mean_gap));
                if t > end {
                    break;
                }
                push(&mut heap, &mut payloads, t, Work::ChurnArrival);
            }
        }
        for (k, p) in self.partitions.iter().enumerate() {
            let k = k as u32;
            let split = Work::Network(FaultAction::Partition(k));
            push(&mut heap, &mut payloads, Time::ZERO + p.at, split);
            let heal = Work::Network(FaultAction::Heal(k));
            push(&mut heap, &mut payloads, Time::ZERO + p.heal, heal);
        }
        for (k, t) in self.throttles.iter().enumerate() {
            let k = k as u32;
            let start = Work::Network(FaultAction::ThrottleStart(k));
            push(&mut heap, &mut payloads, Time::ZERO + t.start, start);
            let end = Work::Network(FaultAction::ThrottleEnd(k));
            push(&mut heap, &mut payloads, Time::ZERO + t.end, end);
        }
        if let Some(fc) = self.flash_crowd {
            for j in 0..fc.count {
                let offset = if fc.count > 1 {
                    Duration::from_micros(fc.spread.as_micros() * j as u64 / (fc.count as u64 - 1))
                } else {
                    Duration::ZERO
                };
                push(
                    &mut heap,
                    &mut payloads,
                    Time::ZERO + fc.at + offset,
                    Work::Join(NodeId::new((n + j) as u32)),
                );
            }
        }

        // Walk the worklist in (time, seq) order, tracking liveness so
        // every emitted event is sound at its instant.
        let mut alive = vec![true; total_n];
        for p in &mut alive[n..] {
            *p = false; // joiners do not exist yet
        }
        let mut events: Vec<FaultEvent> = Vec::new();
        let mean_downtime = self.churn.and_then(|c| c.mean_downtime);
        let alive_receivers = |alive: &[bool]| -> Vec<NodeId> {
            (1..total_n).filter(|&i| alive[i]).map(|i| NodeId::new(i as u32)).collect()
        };
        while let Some(Reverse((at_us, seq))) = heap.pop() {
            let at = Time::from_micros(at_us);
            match payloads[seq as usize].clone() {
                Work::Explicit(k) => {
                    for &v in &self.explicit_crashes[k].1 {
                        if v.index() < total_n && alive[v.index()] {
                            alive[v.index()] = false;
                            events.push(FaultEvent { at, action: FaultAction::Crash(v) });
                        }
                    }
                }
                Work::Catastrophic => {
                    let fraction = self.catastrophic.expect("scheduled").fraction;
                    let candidates = alive_receivers(&alive);
                    for v in churn::catastrophic_victims(&candidates, n, fraction, &mut rng) {
                        alive[v.index()] = false;
                        events.push(FaultEvent { at, action: FaultAction::Crash(v) });
                    }
                }
                Work::ChurnArrival => {
                    let Some(v) = churn::departure_victim(&alive_receivers(&alive), &mut rng)
                    else {
                        continue; // everyone is already down: the departure fizzles
                    };
                    alive[v.index()] = false;
                    events.push(FaultEvent { at, action: FaultAction::Crash(v) });
                    if let Some(mean) = mean_downtime {
                        let back = at
                            + Duration::from_secs_f64(
                                rng.exponential(mean.as_secs_f64().max(1e-6)),
                            );
                        push(&mut heap, &mut payloads, back, Work::Rejoin(v));
                    }
                }
                Work::Rejoin(v) => {
                    if !alive[v.index()] {
                        alive[v.index()] = true;
                        events.push(FaultEvent { at, action: FaultAction::Rejoin(v) });
                    }
                }
                Work::Join(v) => {
                    alive[v.index()] = true;
                    profiles[v.index()].join_at = Some(at);
                    events.push(FaultEvent { at, action: FaultAction::Join(v) });
                }
                Work::Network(action) => {
                    events.push(FaultEvent { at, action });
                }
            }
        }

        CompiledAdversity {
            base_n: n,
            total_n,
            timeline: FaultTimeline::new(events),
            profiles,
            partitions,
            throttles,
            // The chaos seed comes off its own stream (not `rng`), so a
            // `[chaos]` section never perturbs the protocol-fault draws.
            chaos: self.chaos.compile(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_compiles_inert_without_drawing() {
        let spec = AdversitySpec::none();
        assert!(spec.is_none());
        let c = spec.compile(50, 7);
        assert!(c.is_inert());
    }

    #[test]
    fn catastrophic_spares_the_source_and_hits_the_fraction() {
        for pct in [0u32, 10, 20, 35, 50, 80, 100] {
            let spec = AdversitySpec::none()
                .with_catastrophic(Duration::from_secs(30), f64::from(pct) / 100.0);
            let c = spec.compile(230, 1);
            let dead = c.timeline.dead_at(Time::MAX);
            // round(fraction · n), but never the source: 100 % kills the 229 receivers.
            let victims = ((230 * pct as usize + 50) / 100).min(229);
            assert_eq!(dead.len(), victims, "fraction {pct}%");
            assert_eq!(c.timeline.len(), victims, "one crash event per victim, none at 0 %");
            assert!(!dead.contains(&NodeId::new(0)), "source must survive");
            assert!(c.timeline.is_order_sound(c.total_n));
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let spec = AdversitySpec::none()
            .with_catastrophic(Duration::from_secs(10), 0.5)
            .with_poisson_churn(
                Duration::from_secs(1),
                Duration::from_secs(40),
                0.8,
                Some(Duration::from_secs(5)),
            )
            .with_flash_crowd(Duration::from_secs(8), 7, Duration::from_secs(2))
            .with_free_riders(0.25)
            .with_bandwidth_classes(vec![
                BandwidthClass { fraction: 0.5, cap_bps: Some(700_000) },
                BandwidthClass { fraction: 0.5, cap_bps: Some(300_000) },
            ]);
        assert_eq!(spec.compile(64, 9), spec.compile(64, 9));
        assert_ne!(spec.compile(64, 9), spec.compile(64, 10));
    }

    #[test]
    fn poisson_churn_interleaves_crash_and_rejoin_soundly() {
        let spec = AdversitySpec::none().with_poisson_churn(
            Duration::ZERO,
            Duration::from_secs(120),
            2.0,
            Some(Duration::from_secs(3)),
        );
        let c = spec.compile(40, 3);
        assert!(c.timeline.len() > 50, "2/s over 120 s should generate many events");
        assert!(c.timeline.is_order_sound(c.total_n));
        assert!(c.timeline.events().iter().any(|e| matches!(e.action, FaultAction::Rejoin(_))));
    }

    #[test]
    fn permanent_churn_never_rejoins() {
        let spec = AdversitySpec::none().with_poisson_churn(
            Duration::ZERO,
            Duration::from_secs(60),
            0.5,
            None,
        );
        let c = spec.compile(30, 4);
        assert!(c.timeline.events().iter().all(|e| matches!(e.action, FaultAction::Crash(_))));
        assert!(c.timeline.is_order_sound(c.total_n));
    }

    #[test]
    fn flash_crowd_allocates_fresh_ids_and_profiles() {
        let spec = AdversitySpec::none().with_flash_crowd(
            Duration::from_secs(5),
            4,
            Duration::from_secs(3),
        );
        let c = spec.compile(10, 1);
        assert_eq!(c.total_n, 14);
        let joins: Vec<&FaultEvent> = c
            .timeline
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Join(_)))
            .collect();
        assert_eq!(joins.len(), 4);
        assert_eq!(joins[0].at, Time::from_secs(5));
        assert_eq!(joins[3].at, Time::from_secs(8), "spread covers the window");
        for j in 10..14 {
            assert!(c.profiles[j].join_at.is_some());
        }
        assert!(c.timeline.is_order_sound(c.total_n));
    }

    #[test]
    fn joiners_can_crash_after_joining_but_not_before() {
        let spec = AdversitySpec::none()
            .with_flash_crowd(Duration::from_secs(2), 6, Duration::ZERO)
            .with_poisson_churn(Duration::ZERO, Duration::from_secs(200), 1.0, None);
        let c = spec.compile(8, 11);
        assert!(c.timeline.is_order_sound(c.total_n));
        // A joiner crash, if any, must come after its join.
        for (i, e) in c.timeline.events().iter().enumerate() {
            if let FaultAction::Crash(v) = e.action {
                if v.index() >= 8 {
                    let join_pos = c.timeline.events()[..i]
                        .iter()
                        .position(|p| p.action == FaultAction::Join(v));
                    assert!(join_pos.is_some(), "joiner {v} crashed before joining");
                }
            }
        }
    }

    #[test]
    fn free_riders_and_classes_fill_profiles() {
        let spec = AdversitySpec::none().with_free_riders(0.5).with_bandwidth_classes(vec![
            BandwidthClass { fraction: 0.25, cap_bps: Some(100_000) },
            BandwidthClass { fraction: 0.75, cap_bps: None },
        ]);
        let c = spec.compile(20, 5);
        let riders = c.profiles.iter().filter(|p| p.free_rider).count();
        assert_eq!(riders, 10, "round(0.5 * 19 receivers) free riders");
        assert!(!c.profiles[0].free_rider, "the source never free-rides");
        assert!(c.profiles[0].cap_bps.is_none(), "the source keeps its provisioning");
        let capped = c.profiles.iter().filter(|p| p.cap_bps == Some(Some(100_000))).count();
        // 5 of 20 ids carry the low cap; node 0 may have absorbed one slot.
        assert!((4..=5).contains(&capped), "got {capped}");
    }

    #[test]
    fn explicit_crashes_keep_hand_picked_victims_and_drop_duplicates() {
        let spec = AdversitySpec::none()
            .with_explicit_crash(Duration::from_secs(5), vec![NodeId::new(3), NodeId::new(4)])
            .with_explicit_crash(Duration::from_secs(9), vec![NodeId::new(4), NodeId::new(6)]);
        let c = spec.compile(10, 1);
        let crashed: Vec<NodeId> =
            c.timeline.events().iter().filter_map(|e| e.action.node()).collect();
        assert_eq!(crashed, vec![NodeId::new(3), NodeId::new(4), NodeId::new(6)]);
        assert!(c.timeline.is_order_sound(c.total_n));
    }

    #[test]
    fn explicit_crash_of_the_source_is_honoured() {
        // Random processes protect node 0; hand-picked victims do not —
        // deliberately killing the source is a legitimate experiment.
        let spec = AdversitySpec::none()
            .with_explicit_crash(Duration::from_secs(3), vec![NodeId::new(0), NodeId::new(2)]);
        let c = spec.compile(10, 1);
        let crashed: Vec<NodeId> =
            c.timeline.events().iter().filter_map(|e| e.action.node()).collect();
        assert_eq!(crashed, vec![NodeId::new(0), NodeId::new(2)]);
        assert!(c.timeline.is_order_sound(c.total_n));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn absurd_fraction_is_rejected() {
        let _ = AdversitySpec::none().with_catastrophic(Duration::ZERO, 1.5);
    }

    #[test]
    fn byzantine_assignment_hits_the_fraction_and_spares_the_source() {
        let spec = AdversitySpec::none().with_byzantine(0.2, ByzantineMix::serve_corruptors());
        let c = spec.compile(61, 5);
        let byz = c.profiles.iter().filter(|p| p.byzantine.is_some()).count();
        assert_eq!(byz, 12, "round(0.2 * 60 receivers)");
        assert!(c.profiles[0].byzantine.is_none(), "the source is never Byzantine");
        assert!(c.profiles.iter().all(
            |p| p.byzantine.is_none() || p.byzantine == Some(ByzantineBehaviour::ServeCorrupt)
        ));
        assert!(c.is_sound());
    }

    #[test]
    fn byzantine_mix_draws_every_behaviour() {
        let mix = ByzantineMix { serve_corrupt: 1.0, propose_garbage: 1.0, eat_requests: 1.0 };
        let spec = AdversitySpec::none().with_byzantine(0.9, mix);
        let c = spec.compile(100, 2);
        for want in [
            ByzantineBehaviour::ServeCorrupt,
            ByzantineBehaviour::ProposeGarbage,
            ByzantineBehaviour::EatRequests,
        ] {
            assert!(
                c.profiles.iter().any(|p| p.byzantine == Some(want)),
                "an even mix over ~89 peers draws {want:?} almost surely"
            );
        }
    }

    #[test]
    fn partition_compiles_cells_and_paired_events() {
        let spec = AdversitySpec::none().with_partition(
            Duration::from_secs(20),
            Duration::from_secs(50),
            2,
        );
        let c = spec.compile(40, 7);
        assert_eq!(c.partitions.len(), 1);
        assert_eq!(c.partitions[0].cells.len(), 40);
        assert_eq!(c.partitions[0].cells[0], 0, "the source sits in cell 0");
        assert!(c.partitions[0].cells.contains(&1), "both cells are populated");
        let actions: Vec<FaultAction> = c.timeline.events().iter().map(|e| e.action).collect();
        assert_eq!(actions, vec![FaultAction::Partition(0), FaultAction::Heal(0)]);
        assert_eq!(c.timeline.events()[0].at, Time::from_secs(20));
        assert_eq!(c.timeline.events()[1].at, Time::from_secs(50));
        assert!(c.is_sound());
    }

    #[test]
    fn throttle_compiles_victims_and_interval() {
        let spec = AdversitySpec::none().with_throttle(
            Duration::from_secs(10),
            Duration::from_secs(30),
            0.5,
            Some(100_000),
        );
        let c = spec.compile(21, 3);
        assert_eq!(c.throttles.len(), 1);
        assert_eq!(c.throttles[0].victims.len(), 10, "round(0.5 * 20 receivers)");
        assert_eq!(c.throttles[0].cap_bps, Some(100_000));
        assert!(!c.throttles[0].victims.contains(&NodeId::new(0)), "never the source");
        let actions: Vec<FaultAction> = c.timeline.events().iter().map(|e| e.action).collect();
        assert_eq!(actions, vec![FaultAction::ThrottleStart(0), FaultAction::ThrottleEnd(0)]);
        assert!(c.is_sound());
    }

    #[test]
    fn network_events_interleave_chronologically_with_node_faults() {
        let spec = AdversitySpec::none()
            .with_catastrophic(Duration::from_secs(25), 0.3)
            .with_partition(Duration::from_secs(10), Duration::from_secs(40), 2)
            .with_throttle(Duration::from_secs(5), Duration::from_secs(45), 0.25, Some(64_000));
        let c = spec.compile(30, 9);
        let mut last = Time::ZERO;
        for e in c.timeline.events() {
            assert!(e.at >= last, "timeline stays sorted with network events mixed in");
            last = e.at;
        }
        assert!(c.is_sound());
        assert_eq!(spec.compile(30, 9), spec.compile(30, 9), "still deterministic");
    }

    #[test]
    #[should_panic(expected = "heal strictly after")]
    fn inverted_partition_is_rejected() {
        let _ =
            AdversitySpec::none().with_partition(Duration::from_secs(5), Duration::from_secs(5), 2);
    }
}
