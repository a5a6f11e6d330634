//! Pins a digest of a fig1-style run so hot-path rewrites (event queue,
//! node state, message representation) can prove they leave the simulation
//! schedule — and therefore every measured number — byte-identical.
//!
//! The *schedule digest* folds every field of two `RunResult`s (two fanouts
//! of the fig1 sweep at a fixed seed) that the simulated schedule
//! determines — traffic, quality, protocol and network counters, the
//! per-second timeline — through FNV-1a. If it moves after a refactor, the
//! refactor changed simulation *behavior*, not just performance — find out
//! why before updating the constant.
//!
//! The number of engine events each run dispatched is pinned beside it, not
//! folded in: it counts the host's bookkeeping as well as the schedule (a
//! retransmission deadline that fires into nothing is an event; one that
//! was cancelled is not), so a host change may move it on purpose while
//! the digest proves the schedule stood still.

use gossip_experiments::{RunResult, Scenario};
use gossip_types::Duration;

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

/// Folds every schedule-determined field of a run into the digest. Floats
/// are hashed by their exact bit patterns, so any drift — however small —
/// is caught.
fn fold_result(h: &mut Fnv, r: &RunResult) {
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
    for series in [&r.timeline.delivered, &r.timeline.queued_bytes, &r.timeline.dropped] {
        for &(at, v) in series.samples() {
            h.write_str(&format!("{at:?}"));
            h.write(&v.to_bits().to_le_bytes());
        }
    }
}

/// Runs the two pinned scenarios (after `configure`) and returns their
/// schedule digest and the engine events each dispatched.
fn digest_of(configure: impl Fn(Scenario) -> Scenario) -> (u64, [u64; 2]) {
    let mut h = Fnv::new();
    let events = [5usize, 7].map(|fanout| {
        let result = configure(Scenario::tiny(fanout).with_seed(42)).run();
        fold_result(&mut h, &result);
        result.events_processed
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

/// Engine events dispatched by the two runs. They fall (from 42 007 and
/// 46 730) by exactly the retransmission deadlines whose every id had been
/// served: those are cancelled where they used to fire and find nothing.
const PINNED_EVENTS: [u64; 2] = [40_372, 45_107];

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
