//! A seeded mutation fuzz of the `gossipd` control protocol: valid
//! encodings of all five messages, mutated, fed through the sans-io
//! [`FrameDecoder`] in random splits, on a fixed iteration budget.
//!
//! Whatever the bytes, the decoder never panics; it allocates for the
//! bytes that arrived, never for a length a header claims — so never past
//! a kind's cap, which the header check enforces before any body byte is
//! buffered; and every frame that still decodes round-trips through its
//! encoding.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::largest_allocation_in;
use gossip::deploy::proto::{FrameDecoder, Message};
use proptest::test_runner::TestRng;

/// Mutated inputs per run (≈ 0.15 s in this workspace's dev profile).
const ITERATIONS: usize = 100_000;

/// Lengths worth writing over a header or a count.
const LENGTHS: [u32; 8] = [0, 1, 3, 4, 5, 1 << 20, 64 << 20, u32::MAX];

fn seeds() -> Vec<Message> {
    let addr = |s: &str| s.parse().expect("a socket address");
    vec![
        Message::Hello { index: 7 },
        Message::Welcome { lo: 32, hi: 64, config_toml: "[cluster]\nn = 96\n".to_string() },
        Message::Addrs {
            addrs: vec![(0, addr("127.0.0.1:4000")), (1, addr("[::1]:4001"))],
            telemetry: Some(addr("127.0.0.1:9607")),
        },
        Message::Addrs { addrs: vec![(9, addr("10.0.0.9:9"))], telemetry: None },
        Message::Start {
            start_unix_micros: 1_700_000_000_000_000,
            table: vec![addr("127.0.0.1:4000"), addr("[::]:0"), addr("10.0.0.2:5000")],
        },
        Message::Report { degraded: true, aborted_shards: 2, payload: (0..=255).collect() },
    ]
}

fn below(rng: &mut TestRng, bound: usize) -> usize {
    rng.below(bound.max(1) as u64) as usize
}

/// One to four mutations: bit flips, random or boundary bytes, a
/// boundary length written anywhere, truncation, inserted noise, or
/// another seed spliced in.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>, pool: &[Vec<u8>]) {
    for _ in 0..1 + below(rng, 4) {
        let at = below(rng, bytes.len());
        match below(rng, 7) {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << below(rng, 8),
            1 if !bytes.is_empty() => bytes[at] = rng.next_u32() as u8,
            2 if !bytes.is_empty() => bytes[at] = [0, 1, 5, 6, 0x7F, 0x80, 0xFF][below(rng, 7)],
            3 if bytes.len() >= 4 => {
                let at = below(rng, bytes.len() - 3);
                let len = LENGTHS[below(rng, LENGTHS.len())];
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
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
fn mutated_control_frames_never_panic_overallocate_or_fail_to_round_trip() {
    let mut rng = TestRng::deterministic("control_fuzz");
    let pool: Vec<Vec<u8>> = seeds().iter().map(Message::encode).collect();
    let mut frames = 0usize;
    for _ in 0..ITERATIONS {
        let mut bytes = pool[below(&mut rng, pool.len())].clone();
        mutate(&mut rng, &mut bytes, &pool);
        let splits: Vec<usize> = (0..bytes.len()).map(|_| 1 + below(&mut rng, 32)).collect();
        let mut decoded = Vec::with_capacity(bytes.len() / 9 + 1);
        let ((), largest) = largest_allocation_in(|| {
            let mut decoder = FrameDecoder::default();
            let mut rest = &bytes[..];
            for &split in &splits {
                let (mut piece, tail) = rest.split_at(split.min(rest.len()));
                rest = tail;
                while !piece.is_empty() {
                    match decoder.push(&mut piece) {
                        Ok(Some(message)) => decoded.push(message),
                        Ok(None) => {}
                        // The connection is dropped here.
                        Err(_) => return,
                    }
                }
            }
        });
        assert!(
            largest <= 4 * bytes.len() + 64,
            "{largest} bytes allocated for {} bytes of input: {bytes:?}",
            bytes.len()
        );
        for message in decoded {
            let frame = message.encode();
            let mut input = &frame[..];
            let again = FrameDecoder::default().push(&mut input);
            assert!(input.is_empty(), "one frame, consumed whole: {message:?}");
            assert_eq!(again.ok().flatten().as_ref(), Some(&message), "round trip");
            frames += 1;
        }
    }
    assert!(frames >= ITERATIONS / 10, "only {frames} frames still decoded");
}
