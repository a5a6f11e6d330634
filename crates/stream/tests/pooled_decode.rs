//! Pooled decode (`WireEvent::decode_event_pooled`) is plain decode with
//! fewer copies: whatever the pool holds, the decoded packet, the bytes
//! consumed and the inputs rejected are those of `decode_event` — and the
//! receiver's validate-before-relay runs on it unchanged.

use std::cell::Cell;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use gossip_core::wire::{decode_frame, encode_message, EventPool, WireEvent};
use gossip_core::{Event, GossipConfig, GossipNode, Message, Output};
use gossip_stream::{PacketId, StreamPacket};
use gossip_types::{NodeId, Time};

/// A pool of at most one packet.
#[derive(Debug)]
struct OnePacket(Option<StreamPacket>);

impl EventPool<StreamPacket> for OnePacket {
    fn lookup(&self, id: &PacketId) -> Option<&StreamPacket> {
        self.0.as_ref().filter(|p| p.packet_id() == *id)
    }
}

/// What the pool holds under the id of the packet on the wire.
#[derive(Debug, Clone)]
enum Pooled {
    Nothing,
    /// The source's packet.
    Intact,
    /// A corrupted copy (which no host would pool, but decode must not care).
    Tampered,
    /// Same id, other bytes of the same length.
    OtherBytes(u8),
    /// Same id, longer or shorter payload.
    OtherLength(Vec<u8>),
    /// Same id and bytes, stamped at another time (so another checksum).
    OtherTimestamp(u64),
    /// Same id and bytes under a checksum that does not match them.
    StaleChecksum(u32),
}

fn pooled_strategy() -> impl Strategy<Value = Pooled> {
    prop_oneof![
        Just(Pooled::Nothing),
        Just(Pooled::Intact),
        Just(Pooled::Tampered),
        (1u8..255).prop_map(Pooled::OtherBytes),
        vec(any::<u8>(), 0..64).prop_map(Pooled::OtherLength),
        (1u64..1_000_000).prop_map(Pooled::OtherTimestamp),
        any::<u32>().prop_map(Pooled::StaleChecksum),
    ]
}

fn pool_of(source: &StreamPacket, held: Pooled) -> OnePacket {
    let (id, at) = (source.packet_id(), source.published_at());
    OnePacket(match held {
        Pooled::Nothing => None,
        Pooled::Intact => Some(source.clone()),
        Pooled::Tampered => Some(source.tampered()),
        Pooled::OtherBytes(mask) => {
            let bytes: Vec<u8> = source.payload().iter().map(|b| b ^ mask).collect();
            Some(StreamPacket::new(id, at, Bytes::from(bytes)))
        }
        Pooled::OtherLength(bytes) => Some(StreamPacket::new(id, at, Bytes::from(bytes))),
        Pooled::OtherTimestamp(later) => Some(StreamPacket::new(
            id,
            Time::from_micros(at.as_micros() + later),
            source.payload().clone(),
        )),
        Pooled::StaleChecksum(sum) => {
            Some(StreamPacket::with_checksum(id, at, sum, source.payload().clone()))
        }
    })
}

proptest! {
    /// For arbitrary packets — intact or corrupted on the wire — and an
    /// arbitrary pool, pooled decode returns what plain decode returns,
    /// leaves the same input behind, and rejects the same truncations.
    #[test]
    fn pooled_decode_is_plain_decode(
        payload in vec(any::<u8>(), 0..64),
        window in 0u32..1000,
        index in 0u16..64,
        micros in 0u64..1_000_000,
        corrupt_wire in any::<bool>(),
        held in pooled_strategy(),
        trailing in vec(any::<u8>(), 0..8),
    ) {
        let source = StreamPacket::new(
            PacketId::new(window, index),
            Time::from_micros(micros),
            Bytes::from(payload),
        );
        let pool = pool_of(&source, held);
        let sent = if corrupt_wire { source.tampered() } else { source.clone() };
        let mut wire = Vec::new();
        sent.encode_event(&mut wire);
        let event_len = wire.len();
        wire.extend_from_slice(&trailing);

        let (mut plain_in, mut pooled_in) = (wire.as_slice(), wire.as_slice());
        let plain = StreamPacket::decode_event(&mut plain_in);
        let pooled = StreamPacket::decode_event_pooled(&mut pooled_in, &pool);
        prop_assert_eq!(plain.as_ref(), Some(&sent));
        prop_assert_eq!(&pooled, &plain);
        prop_assert_eq!(pooled.map(|p| p.verify()), Some(!corrupt_wire), "the verdict is the wire's");
        prop_assert_eq!(pooled_in, plain_in);
        prop_assert_eq!(pooled_in, trailing.as_slice());

        for cut in 0..event_len {
            let (mut plain_in, mut pooled_in) = (&wire[..cut], &wire[..cut]);
            prop_assert!(StreamPacket::decode_event(&mut plain_in).is_none());
            prop_assert!(StreamPacket::decode_event_pooled(&mut pooled_in, &pool).is_none());
        }
    }
}

/// Decodes `sent` off the wire against `pool`.
fn decode_against(pool: &OnePacket, sent: &StreamPacket) -> StreamPacket {
    let mut wire = Vec::new();
    sent.encode_event(&mut wire);
    StreamPacket::decode_event_pooled(&mut wire.as_slice(), pool).expect("decodes")
}

/// The sharing is real, and byte equality is its whole condition: a hit
/// hands out the pooled buffer itself, anything else a fresh one.
#[test]
fn a_byte_equal_serve_shares_the_pooled_buffer_and_nothing_else_does() {
    let source =
        StreamPacket::new(PacketId::new(4, 2), Time::from_millis(9), Bytes::from(vec![7u8; 1000]));
    let pool = OnePacket(Some(source.clone()));
    let pooled_at = source.payload().as_ptr();

    assert_eq!(decode_against(&pool, &source).payload().as_ptr(), pooled_at);
    // Equal bytes under a stale checksum still share: the receiver's
    // `verify` is what judges the header, not the codec.
    let restamped = StreamPacket::with_checksum(
        source.packet_id(),
        source.published_at(),
        !source.checksum(),
        source.payload().to_vec().into(),
    );
    let decoded = decode_against(&pool, &restamped);
    assert_eq!(decoded.payload().as_ptr(), pooled_at);
    assert!(!decoded.verify(), "and the receiver still catches it");

    let corrupt = decode_against(&pool, &source.tampered());
    assert_ne!(corrupt.payload().as_ptr(), pooled_at, "a corrupted serve keeps its own bytes");
    assert!(!corrupt.verify());
    let other_id = StreamPacket::new(
        PacketId::new(4, 3),
        source.published_at(),
        source.payload().to_vec().into(),
    );
    assert_ne!(decode_against(&pool, &other_id).payload().as_ptr(), pooled_at, "a miss copies");
    assert_ne!(
        decode_against(&OnePacket(None), &source).payload().as_ptr(),
        pooled_at,
        "an empty pool copies"
    );
}

/// The pooled *packet* — header and payload behind one handle — is handed
/// out only to a serve that equals it in every field. Equal payload bytes
/// under another timestamp or checksum get a packet of their own, carrying
/// the wire's header, and meet `verify` exactly as they would unpooled.
#[test]
fn a_serve_with_the_pooled_payload_under_another_header_is_not_the_pooled_packet() {
    let source =
        StreamPacket::new(PacketId::new(4, 2), Time::from_millis(9), Bytes::from(vec![7u8; 1000]));
    let pool = OnePacket(Some(source.clone()));
    // A handle's payload field lives in the allocation the handle points at.
    let is_pooled_packet = |p: &StreamPacket| std::ptr::eq(p.payload(), source.payload());
    assert!(is_pooled_packet(&decode_against(&pool, &source)), "an identical serve is the packet");

    let (id, at, bytes) = (source.packet_id(), source.published_at(), source.payload().to_vec());
    let later = Time::from_micros(at.as_micros() + 1);
    let cases = [
        (
            "stale checksum",
            StreamPacket::with_checksum(id, at, !source.checksum(), bytes.clone().into()),
            false,
        ),
        (
            "other timestamp",
            StreamPacket::with_checksum(id, later, source.checksum(), bytes.clone().into()),
            false,
        ),
        ("restamped at another time", StreamPacket::new(id, later, bytes.into()), true),
    ];
    for (what, sent, verifies) in cases {
        let mut wire = Vec::new();
        sent.encode_event(&mut wire);
        let plain = StreamPacket::decode_event(&mut wire.as_slice()).expect("decodes");
        let pooled = decode_against(&pool, &sent);
        assert!(!is_pooled_packet(&pooled), "{what}: handed the pooled packet's header");
        assert_eq!(pooled, plain, "{what}");
        assert_eq!(
            (pooled.published_at(), pooled.checksum()),
            (sent.published_at(), sent.checksum())
        );
        assert_eq!(pooled.verify(), verifies, "{what}: pooled verdict");
        assert_eq!(plain.verify(), verifies, "{what}: unpooled verdict");
        assert_eq!(
            pooled.payload().as_ptr(),
            source.payload().as_ptr(),
            "{what}: equal bytes share"
        );
    }
}

thread_local! {
    /// `verify` calls made on this test's thread.
    static VERIFIES: Cell<usize> = const { Cell::new(0) };
}

/// A [`StreamPacket`] that counts its integrity checks.
#[derive(Debug, Clone, PartialEq)]
struct Counted(StreamPacket);

impl Event for Counted {
    type Id = PacketId;

    fn id(&self) -> PacketId {
        self.0.packet_id()
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }

    fn id_wire_size() -> usize {
        StreamPacket::id_wire_size()
    }

    fn verify(&self) -> bool {
        VERIFIES.with(|n| n.set(n.get() + 1));
        self.0.verify()
    }
}

/// A pool of counted packets, seen as a pool of the packets inside.
#[derive(Debug)]
struct Uncounted<'a>(&'a dyn EventPool<Counted>);

impl EventPool<StreamPacket> for Uncounted<'_> {
    fn lookup(&self, id: &PacketId) -> Option<&StreamPacket> {
        self.0.lookup(id).map(|counted| &counted.0)
    }
}

impl WireEvent for Counted {
    fn encode_id(id: &PacketId, buf: &mut Vec<u8>) {
        StreamPacket::encode_id(id, buf);
    }

    fn decode_id(input: &mut &[u8]) -> Option<PacketId> {
        StreamPacket::decode_id(input)
    }

    fn encode_event(&self, buf: &mut Vec<u8>) {
        self.0.encode_event(buf);
    }

    fn decode_event(input: &mut &[u8]) -> Option<Self> {
        StreamPacket::decode_event(input).map(Counted)
    }

    fn decode_event_pooled(input: &mut &[u8], pool: &dyn EventPool<Self>) -> Option<Self> {
        StreamPacket::decode_event_pooled(input, &Uncounted(pool)).map(Counted)
    }
}

#[derive(Debug)]
struct OneCounted(Counted);

impl EventPool<Counted> for OneCounted {
    fn lookup(&self, id: &PacketId) -> Option<&Counted> {
        (self.0.id() == *id).then_some(&self.0)
    }
}

/// Validate-before-relay through a pooled frame: a serve decoded to the
/// pooled packet is verified once like any other, and a corrupted serve of
/// the same id — decoded against the very packet it corrupts — is verified
/// once, caught, scored against its sender, and leaves the store alone.
///
/// The counts are of `verify` calls, not of hashes. A packet keeps its
/// verdict, so the pool hit's call reads the pooled packet's and hashes
/// nothing; what the first count guards is that the node still makes the
/// call — a pool hit does not make the pool a source of truth. The
/// corrupted serve is a fresh allocation, so its call hashes its own bytes.
#[test]
fn a_pooled_frame_is_verified_once_per_serve_and_corruption_is_still_caught() {
    let members: Vec<NodeId> = (0..10).map(NodeId::new).collect();
    let mut node: GossipNode<Counted> =
        GossipNode::new(NodeId::new(1), GossipConfig::new(3), members, 1);
    let source =
        StreamPacket::new(PacketId::new(0, 5), Time::from_millis(3), Bytes::from(vec![1u8; 500]));
    let id = source.packet_id();
    // Another hosted node delivered the packet first: the host pooled it.
    let pool = OneCounted(Counted(source.clone()));
    let (honest, offender) = (NodeId::new(2), NodeId::new(3));

    let good = encode_message(honest, &Message::Serve { events: vec![Counted(source.clone())] });
    let frame = decode_frame::<Counted>(&good).expect("frames").with_pool(&pool);
    node.on_frame(Time::from_millis(10), &frame);
    assert_eq!(VERIFIES.get(), 1, "a pool hit is no excuse to skip the hash");
    let delivered: Vec<_> = std::iter::from_fn(|| node.poll_output())
        .filter(|out| matches!(out, Output::Deliver { .. }))
        .collect();
    assert_eq!(delivered.len(), 1);
    assert_eq!(node.own_copies(), 0, "the pool holds it: the node keeps no copy");
    let stored_at = node.stored_in(&id, Some(&pool)).expect("stored").0.payload().as_ptr();
    assert_eq!(stored_at, source.payload().as_ptr(), "the store shares the pooled buffer");

    let bad =
        encode_message(offender, &Message::Serve { events: vec![Counted(source.tampered())] });
    let frame = decode_frame::<Counted>(&bad).expect("frames").with_pool(&pool);
    node.on_frame(Time::from_millis(11), &frame);
    assert_eq!(VERIFIES.get(), 2, "exactly one hash for the corrupted serve too");
    assert_eq!(node.stats().corrupted_events_detected, 1);
    assert_eq!(node.misbehaviour_score(offender), 1);
    assert_eq!(node.misbehaviour_score(honest), 0);
    assert_eq!(node.stats().events_delivered, 1);
    let stored = node.stored_in(&id, Some(&pool)).expect("still stored");
    assert!(stored.0.verify(), "the stored event is the intact one");
    assert_eq!(stored.0.payload().as_ptr(), stored_at);
}
