//! Stream packets: the events the gossip protocol disseminates.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use gossip_core::wire::{take_u64, EventPool, WireEvent};
use gossip_core::{Event, EventIndex};
use gossip_types::Time;

/// Identity of one packet of the stream: window number plus index within
/// the window.
///
/// Indices `0..data_packets` are data; `data_packets..total_packets` are FEC
/// parity. The ordering (window-major) matches stream order, which lets
/// receivers prune and reason about progress.
///
/// # Examples
///
/// ```
/// use gossip_stream::PacketId;
///
/// let a = PacketId::new(0, 109);
/// let b = PacketId::new(1, 0);
/// assert!(a < b, "ids order by window first");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId {
    /// Window number (0-based, consecutive).
    pub window: u32,
    /// Index within the window (0-based; data first, then parity).
    pub index: u16,
}

impl PacketId {
    /// Creates a packet id.
    pub const fn new(window: u32, index: u16) -> Self {
        PacketId { window, index }
    }

    /// Serialized size of an id on the wire (u32 window + u16 index).
    pub const WIRE_SIZE: usize = 6;
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}p{}", self.window, self.index)
    }
}

/// Packet ids are exactly the dense coordinates the protocol's per-window
/// slabs want: `window * total_packets + index`, expressed as a
/// `(window, index)` pair so no stride needs to be known up front.
impl EventIndex for PacketId {
    #[inline]
    fn dense_key(&self) -> (u64, u32) {
        (u64::from(self.window), u32::from(self.index))
    }
}

/// One lane step: absorb a 64-bit word. A bijection of the lane for a fixed
/// word and of the word for a fixed lane, so a changed word always changes
/// the lane, and every later step carries the difference forward.
fn mix(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// The checksum stamped over `(id, published_at, payload)`.
///
/// The payload is read as little-endian 64-bit words (the wire value does
/// not depend on host endianness), four to a 32-byte block, word `k` of
/// every block feeding lane `k`: the lanes' multiply chains are
/// independent, so the loop runs at the multiplier's throughput instead of
/// one byte per multiply latency. The last partial block is zero-padded;
/// the finalisation folds the payload *length* in next to the id and the
/// timestamp, so neither truncation nor zero-extension can alias.
fn lane_checksum(id: PacketId, published_at: Time, payload: &[u8]) -> u32 {
    const BLOCK: usize = 32;
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut absorb = |block: &[u8; BLOCK]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *lane = mix(*lane, word);
        }
    };
    let mut blocks = payload.chunks_exact(BLOCK);
    for block in &mut blocks {
        absorb(block.try_into().expect("chunks_exact(BLOCK) yields whole blocks"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; BLOCK];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&padded);
    }
    let id_word = u64::from(id.window) | u64::from(id.index) << 32;
    let header = [id_word, published_at.as_micros(), payload.len() as u64];
    let h = lanes.into_iter().chain(header).fold(0x4528_21e6_38d0_1377, mix);
    // The last `mix` already xored the high half into the low half.
    h as u32
}

/// One packet of the live stream.
///
/// Carries its id, the time the source published it (stamped into the
/// header, 8 bytes on the wire), a 32-bit integrity checksum (4 bytes on
/// the wire, stamped by the source over id + timestamp + payload) and the
/// payload. Parity packets carry Reed–Solomon parity bytes; data packets
/// carry stream data.
///
/// The checksum is the wire-visible stand-in for a source signature: a
/// relaying peer cannot recompute it over different bytes without the
/// receiver noticing ([`StreamPacket::verify`] — which is what lets every
/// honest node *validate before it relays*). The function is
/// `lane_checksum`: four independent 64-bit multiply-xorshift lanes over
/// 32-byte blocks, finalised with the id, the publish timestamp and the
/// payload length, folded to 32 bits. It is an error-detecting code, **not
/// a MAC**: it is unkeyed, so anyone who can flip payload bits could also
/// restamp. A real deployment would use a MAC or signature; the
/// adversarial-resilience machinery only needs the check to be
/// unforgeable-in-the-model, which "corruptors flip payload bits but
/// cannot restamp" captures.
///
/// A `StreamPacket` is a one-pointer handle on an immutable, reference-
/// counted packet, so a clone shares header and payload alike: a node's
/// store, its serves and its deliveries are one allocation, every holder
/// pays 8 bytes for it, and in the simulator every node holds the source's.
/// A decoded packet is a fresh one unless its host keeps a pool of verified
/// packets ([`WireEvent::decode_event_pooled`]): then it is the pooled
/// packet when — and only when — id, timestamp, checksum and payload bytes
/// on the wire all equal the pooled packet's; equal payload bytes under a
/// different header share the payload buffer alone. Either way the decoded
/// value, and the receiver's `verify` verdict on it, are those of a plain
/// decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPacket(Arc<Inner>);

/// What a [`StreamPacket`] points at.
#[derive(Debug, PartialEq, Eq)]
struct Inner {
    id: PacketId,
    published_at: Time,
    checksum: u32,
    payload: Bytes,
}

impl StreamPacket {
    /// Creates a packet, stamping its integrity checksum (the source-side
    /// constructor).
    pub fn new(id: PacketId, published_at: Time, payload: Bytes) -> Self {
        let checksum = lane_checksum(id, published_at, &payload);
        StreamPacket::with_checksum(id, published_at, checksum, payload)
    }

    /// Creates a packet carrying an already-stamped checksum verbatim (the
    /// decode path — and the corruption path: a Byzantine relay that
    /// flipped payload bits cannot restamp, so it forwards the stale
    /// checksum).
    pub fn with_checksum(id: PacketId, published_at: Time, checksum: u32, payload: Bytes) -> Self {
        StreamPacket(Arc::new(Inner { id, published_at, checksum, payload }))
    }

    /// Returns the packet id.
    pub fn packet_id(&self) -> PacketId {
        self.0.id
    }

    /// Returns when the source published this packet.
    pub fn published_at(&self) -> Time {
        self.0.published_at
    }

    /// Returns the carried checksum.
    pub fn checksum(&self) -> u32 {
        self.0.checksum
    }

    /// Returns the payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.0.payload
    }

    /// Returns `true` if this is a parity (FEC) packet for the given number
    /// of data packets per window.
    pub fn is_parity(&self, data_packets: usize) -> bool {
        (self.0.id.index as usize) >= data_packets
    }

    /// Returns a copy whose payload had one bit flipped while the carried
    /// checksum stayed stale — exactly what a serve-corrupting Byzantine
    /// relay produces (used by the adversity runtimes and the fuzz tests).
    pub fn tampered(&self) -> Self {
        let mut bytes = self.0.payload.to_vec();
        match bytes.first_mut() {
            Some(b) => *b ^= 0x80,
            // An empty payload corrupts by growing garbage instead.
            None => bytes.push(0xFF),
        }
        StreamPacket::with_checksum(
            self.0.id,
            self.0.published_at,
            self.0.checksum,
            Bytes::from(bytes),
        )
    }
}

impl Event for StreamPacket {
    type Id = PacketId;

    fn id(&self) -> PacketId {
        self.0.id
    }

    fn wire_size(&self) -> usize {
        // id + publish timestamp + 4-byte checksum + 2-byte length + payload
        PacketId::WIRE_SIZE + 8 + 4 + 2 + self.0.payload.len()
    }

    fn id_wire_size() -> usize {
        PacketId::WIRE_SIZE
    }

    fn verify(&self) -> bool {
        self.0.checksum == lane_checksum(self.0.id, self.0.published_at, &self.0.payload)
    }
}

impl WireEvent for StreamPacket {
    fn encode_id(id: &PacketId, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&id.window.to_le_bytes());
        buf.extend_from_slice(&id.index.to_le_bytes());
    }

    fn decode_id(input: &mut &[u8]) -> Option<PacketId> {
        if input.len() < PacketId::WIRE_SIZE {
            return None;
        }
        let window = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
        let index = u16::from_le_bytes([input[4], input[5]]);
        *input = &input[PacketId::WIRE_SIZE..];
        Some(PacketId::new(window, index))
    }

    fn encode_event(&self, buf: &mut Vec<u8>) {
        Self::encode_id(&self.0.id, buf);
        buf.extend_from_slice(&self.0.published_at.as_micros().to_le_bytes());
        buf.extend_from_slice(&self.0.checksum.to_le_bytes());
        debug_assert!(self.0.payload.len() <= u16::MAX as usize, "payload exceeds wire framing");
        buf.extend_from_slice(&(self.0.payload.len() as u16).to_le_bytes());
        buf.extend_from_slice(&self.0.payload);
    }

    fn decode_event(input: &mut &[u8]) -> Option<Self> {
        let (id, published_at, checksum, payload) = split_event(input)?;
        let payload = Bytes::copy_from_slice(payload);
        Some(StreamPacket::with_checksum(id, published_at, checksum, payload))
    }

    fn decode_event_pooled(input: &mut &[u8], pool: &dyn EventPool<Self>) -> Option<Self> {
        let (id, published_at, checksum, wire) = split_event(input)?;
        let payload = match pool.lookup(&id) {
            // Equal bytes are the whole condition for sharing the buffer: a
            // corrupted, truncated or colliding-id serve compares unequal,
            // keeps its own bytes and meets the receiver's `verify` exactly
            // as it would unpooled.
            Some(pooled) if pooled.0.payload[..] == *wire => {
                // Nothing on the wire differs from the pooled packet: be it.
                if pooled.0.published_at == published_at && pooled.0.checksum == checksum {
                    return Some(pooled.clone());
                }
                pooled.0.payload.clone()
            }
            _ => Bytes::copy_from_slice(wire),
        };
        Some(StreamPacket::with_checksum(id, published_at, checksum, payload))
    }

    fn skip_event(input: &mut &[u8]) -> Option<()> {
        // id + timestamp + checksum + length field, then jump the payload:
        // validating a serve body must not copy the payloads it walks over.
        const HEADER: usize = PacketId::WIRE_SIZE + 8 + 4 + 2;
        if input.len() < HEADER {
            return None;
        }
        let len = u16::from_le_bytes([input[HEADER - 2], input[HEADER - 1]]) as usize;
        if input.len() < HEADER + len {
            return None;
        }
        *input = &input[HEADER + len..];
        Some(())
    }
}

/// Parses one encoded packet's header off the front of `input` and splits
/// its payload bytes off after it.
///
/// The carried checksum travels verbatim: whether it matches the bytes is
/// the receiver's on_message/on_frame validation decision, not the codec's.
fn split_event<'a>(input: &mut &'a [u8]) -> Option<(PacketId, Time, u32, &'a [u8])> {
    let id = StreamPacket::decode_id(input)?;
    let micros = take_u64(input)?;
    if input.len() < 6 {
        return None;
    }
    let checksum = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    let len = u16::from_le_bytes([input[4], input[5]]) as usize;
    *input = &input[6..];
    if input.len() < len {
        return None;
    }
    let (payload, rest) = input.split_at(len);
    *input = rest;
    Some((id, Time::from_micros(micros), checksum, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::wire::{decode_message, encode_message};
    use gossip_core::Message;
    use gossip_types::NodeId;

    #[test]
    fn id_ordering_is_stream_order() {
        let mut ids = vec![
            PacketId::new(1, 0),
            PacketId::new(0, 109),
            PacketId::new(0, 0),
            PacketId::new(1, 5),
        ];
        ids.sort();
        assert_eq!(
            ids,
            vec![
                PacketId::new(0, 0),
                PacketId::new(0, 109),
                PacketId::new(1, 0),
                PacketId::new(1, 5)
            ]
        );
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        let p = StreamPacket::new(PacketId::new(0, 0), Time::ZERO, Bytes::from(vec![0u8; 1000]));
        assert_eq!(p.wire_size(), 6 + 8 + 4 + 2 + 1000);
        assert_eq!(StreamPacket::id_wire_size(), 6);
    }

    #[test]
    fn fresh_packets_verify_and_tampering_is_detected() {
        let p = StreamPacket::new(
            PacketId::new(3, 9),
            Time::from_millis(77),
            Bytes::from(vec![1u8, 2, 3, 4]),
        );
        assert!(p.verify(), "a source-stamped packet verifies");
        let bad = p.tampered();
        assert_eq!(bad.packet_id(), p.packet_id());
        assert_eq!(bad.checksum(), p.checksum(), "the corruptor cannot restamp");
        assert!(!bad.verify(), "a flipped payload fails verification");
        // Tampering an empty payload still yields a detectable corruption.
        let empty = StreamPacket::new(PacketId::new(0, 0), Time::ZERO, Bytes::new());
        assert!(!empty.tampered().verify());
        // A round trip through the wire keeps both properties.
        let mut buf = Vec::new();
        bad.encode_event(&mut buf);
        let mut slice = buf.as_slice();
        let decoded = StreamPacket::decode_event(&mut slice).expect("decodes");
        assert!(!decoded.verify(), "corruption survives the codec for the receiver to catch");
    }

    #[test]
    fn a_packet_is_a_one_pointer_handle() {
        // What every store slot, serve element, delivery and simulated
        // envelope carries; the niche keeps `Option` (a node's "payload
        // retained?") the same size. With `gossip-core`'s 8-byte request
        // word and 8-byte alternate proposer that is 24 bytes per id per
        // node (pinned there for any one-pointer event).
        assert_eq!(std::mem::size_of::<StreamPacket>(), 8);
        assert_eq!(std::mem::size_of::<Option<StreamPacket>>(), 8);
        let p = StreamPacket::new(PacketId::new(0, 0), Time::ZERO, Bytes::from(vec![0u8; 10]));
        let q = p.clone();
        assert!(std::ptr::eq(p.payload(), q.payload()), "a clone is the same packet");
    }

    #[test]
    fn parity_detection() {
        let data = StreamPacket::new(PacketId::new(0, 100), Time::ZERO, Bytes::new());
        let parity = StreamPacket::new(PacketId::new(0, 101), Time::ZERO, Bytes::new());
        assert!(!data.is_parity(101));
        assert!(parity.is_parity(101));
    }

    #[test]
    fn message_round_trip_with_stream_packets() {
        let sender = NodeId::new(3);
        let packet = StreamPacket::new(
            PacketId::new(7, 42),
            Time::from_millis(1234),
            Bytes::from(vec![9u8; 100]),
        );
        let msg = Message::Serve { events: vec![packet.clone()] };
        let bytes = encode_message(sender, &msg);
        let (got_sender, got_msg) = decode_message::<StreamPacket>(&bytes).unwrap();
        assert_eq!(got_sender, sender);
        assert_eq!(got_msg, msg);

        let propose: Message<StreamPacket> =
            Message::Propose { ids: vec![PacketId::new(0, 1), PacketId::new(2, 3)].into() };
        let bytes = encode_message(sender, &propose);
        let (_, got) = decode_message::<StreamPacket>(&bytes).unwrap();
        assert_eq!(got, propose);
    }

    #[test]
    fn encoded_size_matches_declared_wire_size() {
        // The simulator charges Message::wire_size(); the UDP runtime sends
        // encode_message() bytes. They must agree.
        let packet =
            StreamPacket::new(PacketId::new(1, 2), Time::from_secs(3), Bytes::from(vec![7u8; 321]));
        let msg = Message::Serve { events: vec![packet] };
        let encoded = encode_message(NodeId::new(0), &msg);
        assert_eq!(encoded.len(), msg.wire_size());

        let propose: Message<StreamPacket> =
            Message::Propose { ids: vec![PacketId::new(0, 1); 15].into() };
        assert_eq!(encode_message(NodeId::new(0), &propose).len(), propose.wire_size());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(PacketId::new(3, 14).to_string(), "w3p14");
    }
}
