//! A seeded mutation fuzz of the membership wire: valid encodings of
//! shuffle requests and replies, mutated, fed through `decode_shuffle`,
//! on a fixed iteration budget.
//!
//! Whatever the bytes, the decoder never panics; it allocates for the
//! entries the bytes hold, never for a count a header claims; and every
//! datagram that still decodes is the encoding of what it decoded to.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::largest_allocation_in;
use gossip::membership::wire::{decode_shuffle, encode_shuffle, is_shuffle};
use gossip::membership::ShuffleMessage;
use gossip::types::NodeId;
use proptest::test_runner::TestRng;

/// Mutated inputs per run (≈ 0.02 s in this workspace's dev profile).
const ITERATIONS: usize = 100_000;

/// Counts worth writing over the count field, or anywhere else.
const COUNTS: [u16; 7] = [0, 1, 2, 7, 8, 0x7FFF, u16::MAX];

fn seeds() -> Vec<Vec<u8>> {
    let entries = |n: u32| -> Vec<(NodeId, u32)> {
        (0..n).map(|i| (NodeId::new(i.wrapping_mul(0x9E37_79B9)), i * 3)).collect()
    };
    let mut boundary = entries(2);
    boundary.push((NodeId::new(u32::MAX), u32::MAX));
    let messages = [
        (NodeId::new(0), ShuffleMessage::Request(Vec::new())),
        (NodeId::new(1), ShuffleMessage::Request(entries(8))),
        (NodeId::new(229), ShuffleMessage::Reply(entries(1))),
        (NodeId::new(4000), ShuffleMessage::Reply(entries(20))),
        (NodeId::new(u32::MAX), ShuffleMessage::Request(boundary)),
    ];
    messages.iter().map(|(sender, msg)| encode_shuffle(*sender, msg)).collect()
}

fn below(rng: &mut TestRng, bound: usize) -> usize {
    rng.below(bound.max(1) as u64) as usize
}

/// One to four mutations: bit flips, random or boundary bytes (tags
/// included), a boundary count written anywhere, truncation, inserted
/// noise, or another seed spliced in.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>, pool: &[Vec<u8>]) {
    for _ in 0..1 + below(rng, 4) {
        let at = below(rng, bytes.len());
        match below(rng, 7) {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << below(rng, 8),
            1 if !bytes.is_empty() => bytes[at] = rng.next_u32() as u8,
            2 if !bytes.is_empty() => bytes[at] = [0, 1, 4, 0x4D, 0x4E, 0x7F, 0xFF][below(rng, 7)],
            3 if bytes.len() >= 2 => {
                // Over the count field half the time, anywhere otherwise.
                let at = if below(rng, 2) == 0 { 5 } else { at }.min(bytes.len() - 2);
                let count = COUNTS[below(rng, COUNTS.len())];
                bytes[at..at + 2].copy_from_slice(&count.to_le_bytes());
            }
            4 => bytes.truncate(at),
            5 => {
                let noise: Vec<u8> =
                    (0..1 + below(rng, 16)).map(|_| rng.next_u32() as u8).collect();
                bytes.splice(at..at, noise);
            }
            _ => {
                let other = &pool[below(rng, pool.len())];
                bytes.splice(at..at, other.iter().copied());
            }
        }
    }
}

#[test]
fn mutated_shuffles_never_panic_overallocate_or_fail_to_round_trip() {
    let mut rng = TestRng::deterministic("membership_fuzz");
    let pool = seeds();
    let mut decoded = 0usize;
    for _ in 0..ITERATIONS {
        let mut bytes = pool[below(&mut rng, pool.len())].clone();
        mutate(&mut rng, &mut bytes, &pool);
        let (message, largest) = largest_allocation_in(|| decode_shuffle(&bytes));
        assert!(
            largest <= bytes.len(),
            "{largest} bytes allocated for {} bytes of input: {bytes:?}",
            bytes.len()
        );
        let Some((sender, msg)) = message else { continue };
        assert!(is_shuffle(&bytes), "a decoded datagram dispatches as a shuffle");
        assert_eq!(encode_shuffle(sender, &msg), bytes, "round trip: {msg:?}");
        decoded += 1;
    }
    assert!(decoded >= ITERATIONS / 10, "only {decoded} datagrams still decoded");
}
