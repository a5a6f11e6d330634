//! A long stream, simulated: thirty minutes past the first retention
//! horizon, with a thin stream and six nodes, probed every ten simulated
//! seconds. What a node holds is bounded by the horizon, not by the stream:
//! each live node's id records stop growing once the first horizon has
//! passed, the ids its retransmission timers wait for stay at the ids in
//! flight, the bytes the run holds
//! grow by no more than its measurement history (a player's record of each
//! window), the deployment's packet pool holds one
//! horizon of packets, and a crashed node holds nothing at all.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use gossip::adversity::AdversitySpec;
use gossip::core::GossipConfig;
use gossip::experiments::Scenario;
use gossip::fec::WindowParams;
use gossip::stream::StreamConfig;
use gossip::types::{Duration, NodeId, Time};

const N: usize = 6;
/// One 55-packet window a second: 50 data packets of 50 B at 20 kbit/s,
/// plus 5 parity.
const WINDOW_PACKETS: usize = 55;
/// What the run's measurement history may add per window per node: a
/// player's record of the window — a 56 B element of a `Vec` that doubles,
/// so up to 112 B, and its one-word bitmask — with room to spare.
const HISTORY_PER_WINDOW: usize = 128;

/// One probe: when, each node's id records, and the bytes the run held.
#[derive(Clone, Copy)]
struct Sample {
    at: Time,
    records: [usize; N],
    windows: [usize; N],
    links: [usize; N],
    down: [bool; N],
    pooled: usize,
    live_bytes: isize,
}

#[test]
fn half_an_hour_past_the_retention_horizon_holds_one_horizon_of_state() {
    let horizon = Duration::from_secs(120);
    let (crash_at, victim) = (Duration::from_secs(600), NodeId::new(N as u32 - 1));
    let mut scenario = Scenario::tiny(3)
        .with_seed(11)
        .with_gossip(GossipConfig::new(4).with_source_fanout(5))
        .with_adversity(AdversitySpec::none().with_explicit_crash(crash_at, vec![victim]));
    scenario.n = N;
    scenario.stream = StreamConfig {
        rate_bps: 20_000,
        packet_payload_bytes: 50,
        window: WindowParams::new(50, 5),
    };
    scenario.stream_duration = horizon + Duration::from_secs(30 * 60);
    scenario.drain_duration = Duration::from_secs(5);
    assert_eq!(scenario.gossip.retention, horizon, "the default horizon");

    // Room for every probe up front: the samples must not count as growth.
    let mut samples = Vec::with_capacity(256);
    let result = scenario.run_probed(Duration::from_secs(10), |at, hosted, pool| {
        let mut sample = Sample {
            at,
            records: [0; N],
            windows: [0; N],
            links: [0; N],
            down: [false; N],
            pooled: pool.len(),
            live_bytes: 0,
        };
        for (i, node) in hosted.iter().enumerate() {
            (sample.records[i], sample.windows[i]) = node.node.recorded_ids();
            sample.links[i] = node.node.linked_ids();
            sample.down[i] = node.is_down();
        }
        sample.live_bytes = counting_alloc::live_bytes();
        samples.push(sample);
    });
    assert!(samples.len() <= samples.capacity(), "the probe log reallocated");
    assert_eq!(result.quality.percent_viewing(0.01, Duration::MAX), 100.0, "the stream flowed");

    // Settled: the first horizon and some lag behind us. The first stretch
    // after it sets each node's level; from then on a node holds that
    // level, give or take the windows a late retransmission keeps a little
    // past the horizon (its first two retries come 8 s and 16 s apart).
    let settled = Time::ZERO + horizon + Duration::from_secs(30);
    let stretch = settled + Duration::from_secs(150);
    let after: Vec<&Sample> = samples.iter().filter(|s| s.at >= settled).collect();
    let (first, later): (Vec<&Sample>, Vec<&Sample>) =
        after.into_iter().partition(|s| s.at < stretch);
    const LATE_WINDOWS: usize = 24;
    for i in (0..N).filter(|&i| i != victim.index()) {
        let level = first.iter().map(|s| s.records[i]).max().expect("samples");
        assert!(level > 100 * WINDOW_PACKETS, "node {i} holds only {level} records");
        for s in &later {
            assert!(
                s.records[i] <= level + LATE_WINDOWS * WINDOW_PACKETS,
                "node {i}: {} records at {:?}, {level} after the first horizon",
                s.records[i],
                s.at
            );
            assert!(s.windows[i] <= level.div_ceil(WINDOW_PACKETS) + LATE_WINDOWS, "node {i}");
            assert!(s.records[i] * 10 > level * 9, "node {i} stopped receiving at {:?}", s.at);
        }
    }

    // Links: the armed timers count only the ids in flight. Measured, no
    // node's timers wait for more than 20 at any probe (a request's round
    // trip at 55 packets a second, plus the odd lost serve waiting for its
    // timer). The bound is one window, 55: state kept for each requested id
    // until its window aged out would be one horizon's ids, over a hundred
    // times that.
    for s in &samples {
        for i in 0..N {
            assert!(s.links[i] <= WINDOW_PACKETS, "node {i}: {} links at {:?}", s.links[i], s.at);
        }
    }

    // The victim: one horizon's records while up, none once down.
    let v = victim.index();
    for s in &samples {
        let crashed = s.at >= Time::ZERO + crash_at;
        assert_eq!(s.down[v], crashed, "at {:?}", s.at);
        if crashed {
            assert_eq!((s.records[v], s.windows[v]), (0, 0), "a crashed node holds rows");
            assert_eq!(s.links[v], 0, "a crashed node holds links");
        }
    }

    // The deployment's packet pool: one horizon of packets — each kept for
    // `retention` and one round past its window's latest delivery, and
    // pruned once a round — within the horizon's windows and one more, as
    // on a shard. Measured: 6541 at most.
    let horizon_packets = WINDOW_PACKETS * (horizon.as_micros() / 1_000_000 + 1) as usize;
    for s in &samples {
        assert!(s.pooled <= horizon_packets, "{} packets pooled at {:?}", s.pooled, s.at);
    }
    assert!(later.iter().all(|s| s.pooled > 100 * WINDOW_PACKETS), "the pool stopped filling");

    // Bytes: what the run holds grows by its measurement history, nothing
    // more. Unbounded records alone would add 8 B (a request word; the
    // payload is the pool's, and what an id in flight needs besides lives
    // with its retransmission timer) for each of the `WINDOW_PACKETS` ids
    // of every window at every live node.
    let (from, to) = (first[0], samples.last().expect("samples"));
    let secs = (to.at.as_micros() - from.at.as_micros()) / 1_000_000;
    let history = secs as usize * N * HISTORY_PER_WINDOW;
    let grown = to.live_bytes - from.live_bytes;
    assert!(
        grown <= (history + (64 << 10)) as isize,
        "{grown} B grew over {secs} s; the measurement history accounts for {history} B"
    );
}
