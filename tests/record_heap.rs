//! What one recorded id costs a node, in peak heap. Inside one retention
//! horizon nothing is pruned, so a longer stream adds to the peak exactly
//! what it adds to the nodes' id tables — one settled window's 4-byte
//! narrow request word per (node, id), and its row's base time — plus its
//! share of what grows with the stream but not per
//! node: the packets themselves, the deployment's pool of them, the
//! source's own copies and the players' measurement history. Dividing the
//! peaks' difference between two stream lengths by the records' difference
//! cancels everything the run holds whatever its length. What a player
//! keeps per window, and what the simulator's event queue keeps per pending
//! event, are measured on their own.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use gossip::core::GossipConfig;
use gossip::experiments::Scenario;
use gossip::fec::WindowParams;
use gossip::sim::{DetRng, EventQueue};
use gossip::stream::{PacketId, StreamConfig, StreamPlayer};
use gossip::types::{Duration, Time};

/// Enough receivers that one packet's shared cost is small per receiver.
const N: usize = 96;
/// The record a node keeps per settled id: its narrow request word, and
/// its share of its row's 8-byte base time over the window's 110 ids. The
/// payload is the deployment pool's.
const RECORD: f64 = 4.0 + 8.0 / 110.0;
/// What else a longer stream adds per (node, id): a player's record of each
/// window (at most 128 B, doubling `Vec` included, over 110 ids); one
/// packet — its shared header and 50-byte payload, under 256 B with the
/// allocator's rounding — and its 16-byte pool entry, and the source's
/// own copy of it (a 16-byte entry of a `Vec` that doubles, so up to 32 B),
/// all over the 95 receivers that record it. They come to 4.4 B; the ids
/// in flight — their retransmission timers and the wide rows that link to
/// them, the newest row included — do not grow with the stream.
const MARGIN: f64 = 128.0 / 110.0 + (256.0 + 16.0 + 32.0) / (N - 1) as f64;

/// Runs `secs` of stream (the paper's 100 + 10 windows, one a second) and
/// returns the run's peak heap and its (node, id) records at the end.
fn run(secs: u64) -> (isize, usize) {
    let mut scenario = Scenario::tiny(3).with_seed(5).with_gossip(GossipConfig::new(4));
    scenario.n = N;
    scenario.stream = StreamConfig {
        rate_bps: 40_000,
        packet_payload_bytes: 50,
        window: WindowParams::new(100, 10),
    };
    scenario.stream_duration = Duration::from_secs(secs);
    scenario.drain_duration = Duration::from_secs(5);
    assert!(scenario.total_duration() < scenario.gossip.retention, "nothing may be pruned");
    let mut records = 0;
    let every = scenario.total_duration();
    let (_, peak) = counting_alloc::peak_bytes_in(|| {
        scenario.run_probed(every, |_, hosted, _| {
            records = hosted.iter().map(|node| node.node.recorded_ids().0).sum();
        })
    });
    (peak, records)
}

#[test]
fn a_settled_id_costs_a_node_four_bytes_of_peak_heap() {
    let ((short_peak, short_records), (long_peak, long_records)) = (run(20), run(60));
    assert!(long_records > 2 * short_records, "{short_records} → {long_records} records");
    let per_id = (long_peak - short_peak) as f64 / (long_records - short_records) as f64;
    assert!(
        per_id <= RECORD + MARGIN,
        "{per_id:.2} B of peak heap per recorded id; a record is {RECORD} B and the \
         stream's own growth at most {MARGIN:.2} B more"
    );
}

/// A player's window is a 16-byte record and its `total_packets` bits,
/// rounded up to whole words, in two growing arrays and nothing allocated
/// per window: the peak heap per window stays within twice that, the
/// arrays' doubling slack included, at one word and at two.
#[test]
fn a_player_window_costs_its_record_and_its_bits() {
    const WINDOWS: u32 = 1500;
    for config in [StreamConfig::test_small(), StreamConfig::paper_default()] {
        let total = config.window.total_packets();
        let words = total.div_ceil(64);
        let (player, peak) = counting_alloc::peak_bytes_in(|| {
            let mut player = StreamPlayer::new(config);
            for w in 0..WINDOWS {
                for i in 0..total as u16 {
                    player.on_packet(Time::from_millis(u64::from(w)), PacketId::new(w, i));
                }
            }
            player
        });
        assert_eq!(player.windows_decodable(), (WINDOWS as usize, WINDOWS as usize));
        let per_window = peak as f64 / f64::from(WINDOWS);
        let bound = 2.0 * (16 + 8 * words) as f64;
        assert!(
            per_window <= bound,
            "{total}-packet windows: {per_window:.1} B of peak heap per window, over {bound} B"
        );
    }
}

/// The event queue holds its pending events and little else. A pending
/// `u64` event is one 40-byte slab slot (generation and chain link, 4 B
/// each; time and insertion sequence, 8 B each; the `Option<u64>`, 16 B).
/// The slab holds one slot per event at the pending high-water mark — a
/// slot is only added when none is free — in a `Vec` that doubles, so at
/// most 80 B per peak pending event; the free list holds at most as many
/// `u32`s, doubling too: 8 B. The calendar adds one `u32` chain head per
/// bucket, and it has fewer buckets than events (it doubles them once the
/// events outnumber them twice), so under 4 B. A rebuild samples 32 keys
/// into a 512 B heap, a constant. Hence 92 B of peak heap per peak pending
/// event, plus the constants.
///
/// The run holds 60 k events, most within 100 ms and the rest up to a minute
/// ahead — hundreds of calendar years at the µs-scale days the near ones
/// tune — piles 1 200 onto one instant,
/// churns 600 k pops (more than 8 × buckets, so the width re-tunes), cancels
/// a third of its first handles, drains, regrows and drains again.
#[test]
fn the_event_queue_holds_what_is_pending() {
    const BOUND: f64 = 80.0 + 8.0 + 4.0;
    let mut rng = DetRng::seed_from(40);
    let mut handles = Vec::with_capacity(60_000);
    let (peak_pending, peak) = counting_alloc::peak_bytes_in(|| {
        let mut q = EventQueue::new();
        let (mut now, mut peak_pending) = (0u64, 0usize);
        // Like a host's timers: most due within 100 ms, the rest up to a
        // minute ahead.
        let ahead = |now: u64, rng: &mut DetRng| {
            let horizon = if rng.chance(0.7) { 100_000 } else { 60_000_000 };
            Time::from_micros(now + rng.next_below(horizon))
        };
        for i in 0..60_000u64 {
            handles.push(q.push(ahead(now, &mut rng), i));
        }
        for i in 0..1_200 {
            q.push(Time::from_micros(500_000), i);
        }
        peak_pending = peak_pending.max(q.len());
        for i in 0..600_000 {
            let (at, _) = q.pop().expect("a pending event");
            now = at.as_micros();
            q.push(ahead(now, &mut rng), i);
        }
        for &handle in handles.iter().step_by(3) {
            q.cancel(handle);
        }
        while q.pop().is_some() {}
        for i in 0..50_000 {
            q.push(ahead(now, &mut rng), i);
        }
        peak_pending = peak_pending.max(q.len());
        while q.pop().is_some() {}
        peak_pending
    });
    let per_event = (peak - 512) as f64 / peak_pending as f64;
    assert!(
        per_event <= BOUND,
        "{per_event:.1} B of peak heap per pending event at {peak_pending} pending, over {BOUND} B"
    );
}
