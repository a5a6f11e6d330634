//! Property-based tests of the streaming layer.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_fec::WindowParams;
use gossip_stream::{NodeQuality, PacketId, StreamConfig, StreamPlayer, StreamSource};
use gossip_types::{Duration, Time};

proptest! {
    /// The source's output is invariant under how it is polled: any
    /// monotone polling schedule yields the same packet sequence.
    #[test]
    fn source_is_poll_schedule_invariant(mut poll_times in vec(0u64..20_000, 1..40)) {
        poll_times.sort_unstable();
        let config = StreamConfig::test_small();
        let mut reference = StreamSource::new(config, Time::ZERO);
        let expected = reference.poll(Time::from_millis(20_000));

        let mut source = StreamSource::new(config, Time::ZERO);
        let mut got = Vec::new();
        for &ms in &poll_times {
            got.extend(source.poll(Time::from_millis(ms)));
        }
        got.extend(source.poll(Time::from_millis(20_000)));
        prop_assert_eq!(got, expected);
    }

    /// Delivering the packets of several windows in any order — shuffled
    /// across windows, so a window's first packet often lands between two
    /// known ones, with repeats, and a geometry of one and of two bit-plane
    /// words — matches a per-window model in every accessor: a window is
    /// decodable exactly from its `k`th distinct packet, never before, and
    /// the time does not move after. A snapshot restores to the same player.
    #[test]
    fn player_is_order_invariant(
        (wide, arrivals) in (any::<bool>(), vec(0u32..40, 1..6)).prop_perturb(
            |(wide, windows), mut rng| {
                let total = if wide { 110 } else { 24 };
                let mut arrivals: Vec<PacketId> = windows
                    .iter()
                    .flat_map(|&w| (0..total).map(move |i| PacketId::new(w, i)))
                    .collect();
                for _ in 0..rng.below(16) {
                    let k = rng.below(arrivals.len() as u64) as usize;
                    arrivals.push(arrivals[k]);
                }
                for i in (1..arrivals.len()).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    arrivals.swap(i, j);
                }
                // Some windows stay short of decodable.
                let keep = arrivals.len() - rng.below(arrivals.len() as u64 / 2) as usize;
                arrivals.truncate(keep);
                (wide, arrivals)
            }
        )
    ) {
        // 101 + 9 (two words of bits) or 20 + 4 (one).
        let config =
            if wide { StreamConfig::paper_default() } else { StreamConfig::test_small() };
        let k = config.window.data_packets;
        let mut player = StreamPlayer::new(config);
        let mut model: BTreeMap<u32, (BTreeSet<u16>, Option<Time>)> = BTreeMap::new();
        let mut duplicates = 0;
        for (step, &id) in arrivals.iter().enumerate() {
            let now = Time::from_millis(step as u64);
            let (seen, decodable_at) = model.entry(id.window).or_default();
            let new = seen.insert(id.index);
            duplicates += u64::from(!new);
            if new && seen.len() == k {
                *decodable_at = Some(now);
            }
            prop_assert_eq!(player.on_packet(now, id), new);
            prop_assert_eq!(player.window_decodable_at(id.window), *decodable_at);
        }
        let check = |player: &StreamPlayer| {
            for w in 0..41 {
                let (count, decodable_at) =
                    model.get(&w).map_or((0, None), |(seen, at)| (seen.len(), *at));
                assert_eq!(player.packets_in_window(w), count, "window {w}");
                assert_eq!(player.window_decodable_at(w), decodable_at, "window {w}");
            }
            let distinct: usize = model.values().map(|(seen, _)| seen.len()).sum();
            assert_eq!(player.packets_received(), distinct as u64);
            assert_eq!(player.duplicate_packets(), duplicates);
            assert_eq!(player.highest_window(), model.keys().last().copied());
            let decodable = model.values().filter(|(_, at)| at.is_some()).count();
            assert_eq!(player.windows_decodable(), (decodable, model.len()));
            let snapshot = player.snapshot();
            let windows: Vec<u32> = snapshot.windows.iter().map(|ws| ws.window).collect();
            assert_eq!(windows, model.keys().copied().collect::<Vec<_>>());
            for ws in &snapshot.windows {
                let bits = (0..ws.received.len() * 64)
                    .filter(|&i| ws.received[i / 64] >> (i % 64) & 1 == 1)
                    .map(|i| i as u16);
                assert!(bits.eq(model[&ws.window].0.iter().copied()), "window {}", ws.window);
            }
            snapshot
        };
        let snapshot = check(&player);
        let restored = StreamPlayer::restore(config, snapshot.clone());
        prop_assert_eq!(check(&restored), snapshot);
    }

    /// Quality is monotone in lag for arbitrary window-lag vectors, and
    /// `lag_for_quality` is consistent with `quality_at_lag`.
    #[test]
    fn quality_lag_consistency(lags in vec(proptest::option::of(0u64..100), 1..60)) {
        let q = NodeQuality::from_lags(
            lags.iter().map(|l| l.map(Duration::from_secs)).collect(),
        );
        let mut prev = -1.0f64;
        for s in 0..100u64 {
            let v = q.quality_at_lag(Duration::from_secs(s));
            prop_assert!(v >= prev - 1e-12, "quality must be monotone in lag");
            prev = v;
        }
        // Wherever lag_for_quality answers, quality at that lag must reach
        // the target.
        for target in [0.25, 0.5, 0.9, 0.99, 1.0] {
            if let Some(l) = q.lag_for_quality(target) {
                prop_assert!(
                    q.quality_at_lag(l) + 1e-12 >= target,
                    "quality at lag {l} below target {target}"
                );
            }
        }
    }

    /// Window geometries partition packets correctly for any geometry.
    #[test]
    fn window_indexing_is_consistent(k in 1usize..50, r in 0usize..10, windows in 1u32..5) {
        let params = WindowParams::new(k, r);
        let config = StreamConfig {
            rate_bps: 400_000,
            packet_payload_bytes: 500,
            window: params,
        };
        let mut source = StreamSource::new(config, Time::ZERO);
        let total_packets = params.total_packets() as u32 * windows;
        let horizon = config.packet_interval() * u64::from(total_packets.saturating_sub(1));
        let packets = source.poll(Time::ZERO + horizon);
        prop_assert_eq!(packets.len() as u32, total_packets);
        for (i, p) in packets.iter().enumerate() {
            let id = p.packet_id();
            prop_assert_eq!(u32::try_from(i).expect("small") / params.total_packets() as u32, id.window);
            prop_assert_eq!(i % params.total_packets(), id.index as usize);
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial corruption properties (validate-before-relay).
//
// A Byzantine relay can mangle a Serve payload in any way that keeps the
// datagram well-formed: flip bits, truncate the payload, or re-label the
// bytes under a different window's id — all while carrying the stale
// checksum. Whatever the mangling and whatever the ingest path (the
// copying `on_message` or the borrowed `on_frame`), the checksum must
// catch it, the decoder must not panic, the packet must never be
// delivered, and its id must never enter the node's propose set.
// ---------------------------------------------------------------------

use bytes::Bytes;
use gossip_core::wire::{decode_frame, decode_message, encode_message};
use gossip_core::{Event, GossipConfig, GossipNode, Message, Output};
use gossip_stream::StreamPacket;
use gossip_types::NodeId;

fn defended_node(seed: u64) -> GossipNode<StreamPacket> {
    let members: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    GossipNode::new(NodeId::new(0), GossipConfig::new(3), members, seed)
}

/// One way a Byzantine relay can mangle a packet while keeping the stale
/// checksum.
#[derive(Debug, Clone, Copy)]
enum Mangle {
    /// Flip one payload bit.
    FlipBit { byte: usize, bit: u8 },
    /// Drop the payload's tail.
    Truncate { keep: usize },
    /// Serve the bytes under a different window's id.
    WrongWindow { delta: u32 },
}

fn mangle_strategy() -> impl Strategy<Value = Mangle> {
    prop_oneof![
        (0usize..64, 0u8..8).prop_map(|(byte, bit)| Mangle::FlipBit { byte, bit }),
        (0usize..64).prop_map(|keep| Mangle::Truncate { keep }),
        (1u32..1000).prop_map(|delta| Mangle::WrongWindow { delta }),
    ]
}

fn mangled(p: &StreamPacket, m: Mangle) -> StreamPacket {
    let mut id = p.packet_id();
    let mut payload = p.payload().to_vec();
    match m {
        Mangle::FlipBit { byte, bit } => {
            let i = byte % payload.len();
            payload[i] ^= 1 << bit;
        }
        Mangle::Truncate { keep } => payload.truncate(keep % payload.len()),
        Mangle::WrongWindow { delta } => {
            id = PacketId::new(id.window.wrapping_add(delta), id.index)
        }
    }
    StreamPacket::with_checksum(id, p.published_at(), p.checksum(), Bytes::from(payload))
}

proptest! {
    /// Every mangling of a valid packet is caught by the checksum on BOTH
    /// ingest paths: counted, not delivered, and never proposed onward.
    #[test]
    fn corrupted_serves_are_detected_never_delivered_never_proposed(
        payload in vec(any::<u8>(), 1..64),
        window in 0u32..1000,
        index in 0u16..64,
        m in mangle_strategy(),
        borrowed_path in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let valid = StreamPacket::new(
            PacketId::new(window, index),
            Time::from_millis(5),
            Bytes::from(payload),
        );
        prop_assert!(valid.verify(), "a freshly stamped packet verifies");
        let bad = mangled(&valid, m);
        // The checksum is a 32-bit multiply-xorshift code, not
        // cryptographic: a collision is possible in principle, so skip
        // that draw (never observed) rather than fail.
        if bad.verify() {
            return;
        }

        let mut node = defended_node(seed);
        let from = NodeId::new(3);
        let now = Time::from_millis(100);
        if borrowed_path {
            let bytes = encode_message(from, &Message::Serve { events: vec![bad.clone()] });
            let frame = decode_frame::<StreamPacket>(&bytes)
                .expect("app-level corruption still frames correctly");
            node.on_frame(now, &frame);
        } else {
            node.on_message(now, from, Message::Serve { events: vec![bad.clone()] });
        }

        prop_assert_eq!(node.stats().corrupted_events_detected, 1);
        prop_assert_eq!(node.stats().events_delivered, 0);
        let mut proposed = Vec::new();
        for round in 0..5u64 {
            node.on_round(now + gossip_types::Duration::from_millis(500 * (round + 1)));
            while let Some(out) = node.poll_output() {
                match out {
                    Output::Deliver { .. } => prop_assert!(false, "corrupted packet delivered"),
                    Output::Send { msg: Message::Propose { ids }, .. } => {
                        proposed.extend(ids.iter().copied());
                    }
                    _ => {}
                }
            }
        }
        prop_assert!(
            !proposed.contains(&bad.packet_id()),
            "a corrupted id entered the propose set"
        );
    }

    /// Flipping any byte of an encoded Serve datagram panics neither
    /// decoder, keeps them in agreement, and can never smuggle an
    /// unverifiable payload past a defended node.
    #[test]
    fn bit_flipped_datagrams_never_panic_and_never_deliver_garbage(
        payloads in vec(vec(any::<u8>(), 1..32), 1..4),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        let events: Vec<StreamPacket> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                StreamPacket::new(PacketId::new(7, i as u16), Time::ZERO, Bytes::from(p))
            })
            .collect();
        let mut bytes = encode_message(NodeId::new(2), &Message::Serve { events });
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;

        let owned = decode_message::<StreamPacket>(&bytes);
        let borrowed = decode_frame::<StreamPacket>(&bytes);
        prop_assert_eq!(owned.is_some(), borrowed.is_some(), "decode paths disagree");

        if let Some((from, msg)) = owned {
            let mut node = defended_node(seed);
            node.on_message(Time::from_millis(50), from, msg);
            while let Some(out) = node.poll_output() {
                if let Output::Deliver { event } = out {
                    prop_assert!(event.verify(), "delivered an unverifiable payload");
                }
            }
        }
    }

    /// Truncating an encoded Serve of real stream packets anywhere is
    /// rejected identically by both decode paths, without panicking.
    #[test]
    fn truncated_serve_datagrams_are_rejected_by_both_paths(
        payload in vec(any::<u8>(), 1..64),
        cut_fraction in 0.0f64..1.0,
    ) {
        let packet = StreamPacket::new(PacketId::new(3, 1), Time::ZERO, Bytes::from(payload));
        let bytes = encode_message(NodeId::new(1), &Message::Serve { events: vec![packet] });
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_message::<StreamPacket>(&bytes[..cut]).is_none());
            prop_assert!(decode_frame::<StreamPacket>(&bytes[..cut]).is_none());
        }
    }
}
