//! The payload-integrity kernel against a bytewise reference, and the
//! detection guarantees receivers rely on.
//!
//! The kernel in `packet.rs` reads the payload a word at a time; the
//! reference here places every byte individually, so a slip in the block
//! walk, the tail padding or the byte order shows up as a mismatch.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use gossip_core::Event;
use gossip_stream::{PacketId, StreamPacket};
use gossip_types::Time;

fn mix(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// Byte `i` of the payload lands in block `i / 32`, lane `(i % 32) / 8`,
/// at bit `8 * (i % 8)`; a short last block leaves the other bits zero.
fn reference_checksum(id: PacketId, published_at: Time, payload: &[u8]) -> u32 {
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    for block in payload.chunks(32) {
        let mut words = [0u64; 4];
        for (i, &byte) in block.iter().enumerate() {
            words[i / 8] |= u64::from(byte) << (8 * (i % 8));
        }
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, word);
        }
    }
    let mut h = 0x4528_21e6_38d0_1377;
    for lane in lanes {
        h = mix(h, lane);
    }
    h = mix(h, u64::from(id.window) | u64::from(id.index) << 32);
    h = mix(h, published_at.as_micros());
    h = mix(h, payload.len() as u64);
    h as u32
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 89) as u8).collect()
}

const ID: PacketId = PacketId::new(7, 42);
const AT: Time = Time::from_millis(1234);

fn stamped(payload: &[u8]) -> StreamPacket {
    StreamPacket::new(ID, AT, Bytes::copy_from_slice(payload))
}

/// `payload` under the checksum stamped for `original`.
fn restamped(original: &StreamPacket, id: PacketId, at: Time, payload: &[u8]) -> StreamPacket {
    StreamPacket::with_checksum(id, at, original.checksum(), Bytes::copy_from_slice(payload))
}

#[test]
fn matches_the_bytewise_reference_at_every_length_to_130() {
    // 0..=130 crosses four block boundaries and every tail length.
    for len in 0..=130 {
        let payload = pattern(len);
        assert_eq!(
            stamped(&payload).checksum(),
            reference_checksum(ID, AT, &payload),
            "length {len}"
        );
    }
}

proptest! {
    #[test]
    fn matches_the_bytewise_reference_on_random_packets(
        payload in vec(any::<u8>(), 0..1200),
        window in any::<u32>(),
        index in any::<u16>(),
        micros in any::<u64>(),
    ) {
        let id = PacketId::new(window, index);
        let at = Time::from_micros(micros);
        let packet = StreamPacket::new(id, at, Bytes::from(payload.clone()));
        prop_assert_eq!(packet.checksum(), reference_checksum(id, at, &payload));
        prop_assert!(packet.verify());
    }
}

/// The wire value is pinned: it may not drift silently, and a big-endian
/// host must produce the same four bytes (the values were cross-checked
/// against an independent arbitrary-precision implementation).
#[test]
fn known_answer_vectors() {
    let empty = StreamPacket::new(PacketId::new(0, 0), Time::ZERO, Bytes::new());
    assert_eq!(empty.checksum(), 0x2ac8_3533);
    let short = StreamPacket::new(
        PacketId::new(1, 2),
        Time::from_micros(3),
        Bytes::copy_from_slice(b"gossip"),
    );
    assert_eq!(short.checksum(), 0xb68f_7e40);
    let paper = StreamPacket::new(
        PacketId::new(59, 109),
        Time::from_millis(59_990),
        Bytes::from(pattern(1000)),
    );
    assert_eq!(paper.checksum(), 0x3691_15fc);
}

#[test]
fn every_single_bit_flip_of_a_paper_sized_payload_is_detected() {
    let payload = pattern(1000);
    let original = stamped(&payload);
    let mut flipped = payload.clone();
    for bit in 0..8 * payload.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(!restamped(&original, ID, AT, &flipped).verify(), "bit {bit} went unnoticed");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Trailing zeros are the hard case: the zero-padded tail makes the lanes
/// of `p` and `p ++ 0…0` identical within a block, so only the length in the
/// finalisation tells them apart.
#[test]
fn every_truncation_and_zero_extension_is_detected() {
    let mut zero_tailed = pattern(130);
    zero_tailed[60..].fill(0);
    for payload in [pattern(130), zero_tailed, vec![0u8; 130]] {
        for len in 0..=payload.len() {
            let original = stamped(&payload[..len]);
            for keep in 0..len {
                assert!(
                    !restamped(&original, ID, AT, &payload[..keep]).verify(),
                    "truncating {len} B to {keep} B went unnoticed"
                );
            }
            let mut extended = payload[..len].to_vec();
            for extra in 1..=70 {
                extended.push(0);
                assert!(
                    !restamped(&original, ID, AT, &extended).verify(),
                    "zero-extending {len} B by {extra} B went unnoticed"
                );
            }
        }
    }
}

#[test]
fn relabelled_ids_and_changed_timestamps_are_detected() {
    let payload = pattern(1000);
    let original = stamped(&payload);
    for bit in 0..32 {
        let id = PacketId::new(ID.window ^ 1 << bit, ID.index);
        assert!(!restamped(&original, id, AT, &payload).verify(), "window bit {bit}");
    }
    for bit in 0..16 {
        let id = PacketId::new(ID.window, ID.index ^ 1 << bit);
        assert!(!restamped(&original, id, AT, &payload).verify(), "index bit {bit}");
    }
    for bit in 0..64 {
        let at = Time::from_micros(AT.as_micros() ^ 1 << bit);
        assert!(!restamped(&original, ID, at, &payload).verify(), "timestamp bit {bit}");
    }
    // The window and index fields cannot trade places.
    let swapped = PacketId::new(u32::from(ID.index), ID.window as u16);
    assert!(!restamped(&original, swapped, AT, &payload).verify());
}
