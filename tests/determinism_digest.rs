//! Pins a digest of a fig1-style run so hot-path rewrites (event queue,
//! node state, message representation) can prove they leave the simulation
//! schedule — and therefore every measured number — byte-identical.
//!
//! The *schedule digest* folds every field of two `RunResult`s (two fanouts
//! of the fig1 sweep at a fixed seed) that the simulated schedule
//! determines — traffic, quality, protocol and network counters, and three
//! per-second series read off the deployment — through FNV-1a. If it moves after a refactor, the
//! refactor changed simulation *behavior*, not just performance — find out
//! why before updating the constant.
//!
//! The number of engine events each run dispatched is pinned beside it, not
//! folded in: it counts the host's bookkeeping as well as the schedule (a
//! retransmission deadline that fires into nothing is an event; one that
//! was cancelled is not), so a host change may move it on purpose while
//! the digest proves the schedule stood still.

use gossip_experiments::{RunResult, Scenario};
use gossip_types::{Duration, Time};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

/// Runs `scenario`, slicing it at every whole second of simulated time to
/// read three series off the deployment — cumulative packets delivered to
/// the receivers, bytes queued on the upload links, cumulative upload-queue
/// drops — and folds them and every schedule-determined field of the
/// result into the digest. Floats are hashed by their exact bit patterns,
/// so any drift — however small — is caught.
fn run_folded(h: &mut Fnv, scenario: &Scenario) -> RunResult {
    let mut series: [Vec<(Time, f64)>; 3] = Default::default();
    let r = scenario.run_probed(Duration::from_secs(1), |at, hosted, _| {
        let delivered: u64 = hosted[1..].iter().map(|h| h.player.packets_received()).sum();
        let queued: usize = hosted.iter().map(|h| h.link.queued_bytes()).sum();
        let dropped: u64 = hosted.iter().map(|h| h.link.stats().msgs_dropped).sum();
        series[0].push((at, delivered as f64));
        series[1].push((at, queued as f64));
        series[2].push((at, dropped as f64));
    });
    h.write(&u64::from(r.windows_measured).to_le_bytes());
    h.write(&r.source_upload_kbps.to_bits().to_le_bytes());
    for &kbps in &r.upload_kbps {
        h.write(&kbps.to_bits().to_le_bytes());
    }
    for lag_secs in [0u64, 5, 10, 20] {
        let pct = r.quality.percent_viewing(0.01, Duration::from_secs(lag_secs));
        h.write(&pct.to_bits().to_le_bytes());
    }
    let offline = r.quality.percent_viewing(0.01, Duration::MAX);
    h.write(&offline.to_bits().to_le_bytes());
    h.write_str(&format!("{:?}", r.protocol));
    h.write_str(&format!("{:?}", r.net));
    for samples in &series {
        for &(at, v) in samples {
            h.write_str(&format!("{at:?}"));
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    r
}

/// Runs the two pinned scenarios (after `configure`) and returns their
/// schedule digest and the engine events each dispatched.
fn digest_of(configure: impl Fn(Scenario) -> Scenario) -> (u64, [u64; 2]) {
    let mut h = Fnv::new();
    let events = [5usize, 7].map(|fanout| {
        run_folded(&mut h, &configure(Scenario::tiny(fanout).with_seed(42))).events_processed
    });
    (h.0, events)
}

fn digest() -> (u64, [u64; 2]) {
    digest_of(|scenario| scenario)
}

/// The digest of the current schedule. The single pin that stood here until
/// the retransmission timers became cancellable (`0xe79d_a93c_9dea_6e92`)
/// folded `events_processed` in with the schedule, so a host that stopped
/// firing deadlines into nothing could not show that nothing *else* had
/// moved. It was retired for this pair: the digest below is what the old
/// fold gives without that one field — computed on the commit before the
/// change, and equal after it — and the event counts are pinned on their
/// own. Any drift of the digest is still a bug: the tests below must always
/// agree with each other, and `empty_adversity_spec_leaves_digest_pinned`
/// proves an empty spec draws nothing from the compile stream.
const PINNED_DIGEST: u64 = 0x6336_d12a_cbed_9d9d;

/// Engine events dispatched by the two runs. They fell (from 42 007 and
/// 46 730 to 40 372 and 45 107) by exactly the retransmission deadlines
/// whose every id had been served: those are cancelled where they used to
/// fire and find nothing. They fell again by 25 each when the in-band
/// per-second probe event went: a tiny run lasts 15 + 10 s, and the probe
/// was dispatched at every whole second from 1 s to the 25 s horizon.
const PINNED_EVENTS: [u64; 2] = [40_347, 45_082];

fn assert_pinned((got, events): (u64, [u64; 2]), what: &str) {
    assert_eq!(
        got, PINNED_DIGEST,
        "{what}: schedule digest is {got:#018x}, pinned {PINNED_DIGEST:#018x} — \
         the simulation schedule is no longer byte-identical"
    );
    assert_eq!(events, PINNED_EVENTS, "{what}: the schedule held but the host's event count moved");
}

#[test]
fn fig1_style_digest_is_pinned() {
    assert_pinned(digest(), "fig1-style run");
}

#[test]
fn digest_is_reproducible_within_a_process() {
    assert_eq!(digest(), digest());
}

/// The adversity regression of the spec engine: attaching an explicitly
/// empty `AdversitySpec` must leave the digest byte-identical to the
/// pinned constant — a no-adversity run draws nothing from the compile
/// stream and schedules no fault events, so the simulation schedule
/// cannot move by a single microsecond.
#[test]
fn empty_adversity_spec_leaves_digest_pinned() {
    use gossip::adversity::AdversitySpec;

    let got = digest_of(|scenario| scenario.with_adversity(AdversitySpec::none()));
    assert_pinned(got, "an empty adversity spec");
}

/// The chaos regression of the spec engine: an explicitly empty `[chaos]`
/// section compiles to the inert plan without drawing from the compile
/// stream, so the simulation digest stays byte-identical to the pinned
/// constant. (Chaos only ever acts at the reactor's syscall boundary; the
/// simulator must be untouched even by a *non*-empty section, but the
/// empty one must be free everywhere.)
#[test]
fn empty_chaos_section_leaves_digest_pinned() {
    use gossip::adversity::{AdversitySpec, ChaosSpec};

    let got = digest_of(|scenario| {
        scenario.with_adversity(AdversitySpec::none().with_chaos(ChaosSpec::none()))
    });
    assert_pinned(got, "an empty [chaos] section");
}

/// The schedule digest and event count of one run that takes every fault
/// path of the simulator at once: a Cyclon-mode tiny deployment under a
/// catastrophic crash, Poisson churn with rejoins, a flash crowd, a
/// Byzantine mix of all three behaviours, a partition that heals and an
/// upload throttle. Pinned from the commit before the simulator's host rules
/// moved into the shared hosted node, so that move is proven exact on the
/// fault paths too. The random processes never pick the source. The event
/// count fell from 42 386 by the 25 dispatches of the removed per-second
/// probe event (one per whole second of the 25 s run).
const ADVERSITY_DIGEST: u64 = 0x8a15_5e93_13f6_7e49;
const ADVERSITY_EVENTS: u64 = 42_361;

#[test]
fn adversity_digest_is_pinned() {
    use gossip::adversity::{AdversitySpec, ByzantineBehaviour, ByzantineMix, FaultAction};
    use gossip::experiments::MembershipMode;
    use gossip::membership::CyclonConfig;

    let secs = Duration::from_secs;
    let spec = AdversitySpec::none()
        .with_catastrophic(secs(9), 0.2)
        .with_poisson_churn(secs(3), secs(12), 0.6, Some(secs(2)))
        .with_flash_crowd(secs(5), 4, secs(2))
        .with_byzantine(
            0.3,
            ByzantineMix { serve_corrupt: 1.0, propose_garbage: 1.0, eat_requests: 1.0 },
        )
        .with_partition(secs(6), secs(8), 2)
        .with_throttle(secs(4), secs(10), 0.3, Some(200_000));
    let scenario = Scenario::tiny(5)
        .with_seed(42)
        .with_membership(MembershipMode::Cyclon {
            config: CyclonConfig { view_size: 8, shuffle_size: 4 },
            shuffle_period: secs(1),
            bootstrap_degree: 4,
        })
        .with_adversity(spec);
    let compiled = scenario.adversity.compile(scenario.n, scenario.seed);
    let fired =
        |kind: fn(&FaultAction) -> bool| compiled.timeline.events().iter().any(|e| kind(&e.action));
    assert!(fired(|a| matches!(a, FaultAction::Rejoin(_))), "churn must rejoin someone");
    assert!(fired(|a| matches!(a, FaultAction::Join(_))));
    assert!(fired(|a| matches!(a, FaultAction::Heal(_))));
    assert!(fired(|a| matches!(a, FaultAction::ThrottleEnd(_))));
    for behaviour in [
        ByzantineBehaviour::ServeCorrupt,
        ByzantineBehaviour::ProposeGarbage,
        ByzantineBehaviour::EatRequests,
    ] {
        assert!(compiled.profiles.iter().any(|p| p.byzantine == Some(behaviour)), "{behaviour:?}");
    }
    let mut h = Fnv::new();
    let result = run_folded(&mut h, &scenario);
    let joiners = result.joiner_quality.as_ref().expect("the flash crowd left survivors");
    for node in joiners.nodes() {
        h.write_str(&format!("{:?}", node.window_lags()));
    }
    let got = (h.0, result.events_processed);
    assert_eq!(
        got,
        (ADVERSITY_DIGEST, ADVERSITY_EVENTS),
        "the fault-path schedule moved: digest {:#018x}, {} events",
        got.0,
        got.1
    );
}
