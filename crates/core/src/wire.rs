//! Binary wire codec for protocol messages.
//!
//! The simulator only ever needs message *sizes* ([`Message::wire_size`]),
//! but the real-socket runtime (`gossip-udp`) must put actual bytes on the
//! wire. This module defines the compact framing used there:
//!
//! ```text
//! [ type: u8 ][ sender: u32 LE ][ count: u16 LE ][ elements ... ]
//! ```
//!
//! Element encoding is delegated to the event type through [`WireEvent`], so
//! the codec works for any application payload. Decoding is defensive: any
//! truncated or malformed datagram yields `None` rather than a panic —
//! datagrams arrive from the network and must never crash a node.

use gossip_types::NodeId;

use crate::event::{Event, TestEvent};
use crate::message::Message;

/// Message type tags on the wire.
const TAG_PROPOSE: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_SERVE: u8 = 3;
const TAG_FEEDME: u8 = 4;

/// Events that can be serialized into datagrams.
///
/// Implementations must be consistent with [`Event::wire_size`] and
/// [`Event::id_wire_size`]: the byte counts produced here are what the
/// simulated bandwidth limiter charges, so they should match.
pub trait WireEvent: Event + Sized {
    /// Appends the encoding of an id to `buf`.
    fn encode_id(id: &Self::Id, buf: &mut Vec<u8>);
    /// Decodes an id from the front of `input`, advancing it.
    fn decode_id(input: &mut &[u8]) -> Option<Self::Id>;
    /// Appends the encoding of the full event to `buf`.
    fn encode_event(&self, buf: &mut Vec<u8>);
    /// Decodes a full event from the front of `input`, advancing it.
    fn decode_event(input: &mut &[u8]) -> Option<Self>;
    /// Advances `input` past one encoded event without materialising it.
    ///
    /// [`decode_frame`] uses this to validate a `[SERVE]` body up front so
    /// the borrowed [`Frame::events`] iterator cannot fail mid-message. The
    /// default decodes and discards; implementations whose encoding carries
    /// explicit length fields should override it — copying a payload just
    /// to throw it away defeats the zero-copy walk.
    fn skip_event(input: &mut &[u8]) -> Option<()> {
        Self::decode_event(input).map(|_| ())
    }
    /// [`WireEvent::decode_event`] for a receiver whose host keeps an
    /// [`EventPool`]: an event type that owns a payload buffer may share
    /// the pooled event's buffer instead of copying the wire bytes, **if
    /// the two are byte-equal**. Whatever the pool holds, the result must be
    /// `==` to what `decode_event` returns for the same input, consume the
    /// same bytes and fail on the same inputs: the pool is never a source of
    /// truth, only of memory. The default ignores the pool.
    fn decode_event_pooled(input: &mut &[u8], pool: &dyn EventPool<Self>) -> Option<Self> {
        let _ = pool;
        Self::decode_event(input)
    }
}

/// A host's table of events it has already seen pass [`Event::verify`],
/// by id — the one copy of each payload that the nodes it hosts can share
/// (see [`WireEvent::decode_event_pooled`] and [`Frame::with_pool`]).
pub trait EventPool<E: Event>: std::fmt::Debug {
    /// The pooled event with this id, if any.
    fn lookup(&self, id: &E::Id) -> Option<&E>;
}

/// Encodes `msg` from `sender` into a fresh datagram buffer.
pub fn encode_message<E: WireEvent>(sender: NodeId, msg: &Message<E>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(msg.wire_size());
    let (tag, count) = match msg {
        Message::Propose { ids } => (TAG_PROPOSE, ids.len()),
        Message::Request { ids } => (TAG_REQUEST, ids.len()),
        Message::Serve { events } => (TAG_SERVE, events.len()),
        Message::FeedMe => (TAG_FEEDME, 0),
    };
    assert!(count <= u16::MAX as usize, "message element count exceeds wire format");
    buf.push(tag);
    buf.extend_from_slice(&sender.as_u32().to_le_bytes());
    buf.extend_from_slice(&(count as u16).to_le_bytes());
    match msg {
        Message::Propose { ids } | Message::Request { ids } => {
            for id in ids.iter() {
                E::encode_id(id, &mut buf);
            }
        }
        Message::Serve { events } => {
            for event in events {
                event.encode_event(&mut buf);
            }
        }
        Message::FeedMe => {}
    }
    buf
}

/// Decodes a datagram into the sender and the message.
///
/// Returns `None` for truncated or malformed input.
pub fn decode_message<E: WireEvent>(datagram: &[u8]) -> Option<(NodeId, Message<E>)> {
    let mut input = datagram;
    let tag = take_u8(&mut input)?;
    let sender = NodeId::new(take_u32(&mut input)?);
    let count = take_u16(&mut input)? as usize;
    // `count` is the sender's claim. An element takes at least a byte, so
    // the input left bounds what is reserved before any of it is read.
    let reserve = count.min(input.len());
    let msg = match tag {
        TAG_PROPOSE | TAG_REQUEST => {
            let mut ids = Vec::with_capacity(reserve);
            for _ in 0..count {
                ids.push(E::decode_id(&mut input)?);
            }
            if tag == TAG_PROPOSE {
                Message::Propose { ids: ids.into() }
            } else {
                Message::Request { ids: ids.into() }
            }
        }
        TAG_SERVE => {
            let mut events = Vec::with_capacity(reserve);
            for _ in 0..count {
                events.push(E::decode_event(&mut input)?);
            }
            Message::Serve { events }
        }
        TAG_FEEDME => Message::FeedMe,
        _ => return None,
    };
    if !input.is_empty() {
        return None; // trailing garbage: reject the datagram
    }
    Some((sender, msg))
}

/// The message kind of a decoded [`Frame`] (the [`Message`] variants
/// without their payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Phase 1: the frame carries proposed event ids.
    Propose,
    /// Phase 2: the frame carries requested event ids.
    Request,
    /// Phase 3: the frame carries full events.
    Serve,
    /// The feed-me extension (no payload).
    FeedMe,
}

/// A *borrowed* view of one encoded datagram: the header is parsed, the
/// element body is validated but left in place, and ids/events decode
/// lazily straight out of the receive buffer.
///
/// This is the allocation-free twin of [`decode_message`]: where the
/// copying path materialises a `Vec` (and, for id messages, a second
/// `Arc<[Id]>` allocation) before the node ever sees the message, a
/// `Frame` hands the consumer an iterator over the original bytes. The
/// hot-path consumer is `GossipNode::on_frame`; the `demux_borrowed`
/// criterion group races the two paths head-to-head.
///
/// Validation happens entirely in [`decode_frame`] — cheap length walks,
/// no allocation — so a `Frame` that exists is guaranteed well-formed and
/// its iterators yield exactly [`Frame::count`] elements. The borrowed
/// path therefore keeps the copying path's all-or-nothing rejection of
/// malformed datagrams.
#[derive(Debug)]
pub struct Frame<'a, E: WireEvent> {
    sender: NodeId,
    kind: FrameKind,
    count: usize,
    body: &'a [u8],
    /// Where [`Frame::events`] looks for a payload to share before it
    /// copies one (set by [`Frame::with_pool`]).
    pool: Option<&'a dyn EventPool<E>>,
}

/// Parses and validates a datagram into a borrowed [`Frame`].
///
/// Returns `None` for truncated or malformed input, exactly when
/// [`decode_message`] would (the two paths are property-tested against
/// each other in `crates/core/tests/proptests.rs`).
pub fn decode_frame<E: WireEvent>(datagram: &[u8]) -> Option<Frame<'_, E>> {
    let mut input = datagram;
    let tag = take_u8(&mut input)?;
    let sender = NodeId::new(take_u32(&mut input)?);
    let count = take_u16(&mut input)? as usize;
    let kind = match tag {
        TAG_PROPOSE => FrameKind::Propose,
        TAG_REQUEST => FrameKind::Request,
        TAG_SERVE => FrameKind::Serve,
        TAG_FEEDME => FrameKind::FeedMe,
        _ => return None,
    };
    match kind {
        FrameKind::Propose | FrameKind::Request => {
            // Ids are fixed-size (`Event::id_wire_size`), so the body is
            // valid iff its length is exact.
            if input.len() != count * E::id_wire_size() {
                return None;
            }
        }
        FrameKind::Serve => {
            let mut cursor = input;
            for _ in 0..count {
                E::skip_event(&mut cursor)?;
            }
            if !cursor.is_empty() {
                return None; // trailing garbage: reject the datagram
            }
        }
        FrameKind::FeedMe => {
            if !input.is_empty() {
                return None; // trailing garbage: reject the datagram
            }
        }
    }
    Some(Frame { sender, kind, count, body: input, pool: None })
}

impl<'a, E: WireEvent> Frame<'a, E> {
    /// Decodes this frame's events against `pool`
    /// ([`WireEvent::decode_event_pooled`]): same events, fewer copies.
    pub fn with_pool(mut self, pool: &'a dyn EventPool<E>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The node that sent this datagram.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Which message the frame encodes.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Number of elements (ids or events) the frame carries.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Iterates the ids of a `Propose`/`Request` frame, decoding each from
    /// the borrowed body on the fly. Empty for the other kinds.
    pub fn ids(&self) -> impl Iterator<Item = E::Id> + 'a {
        let (mut cursor, count) = match self.kind {
            FrameKind::Propose | FrameKind::Request => (self.body, self.count),
            _ => (&[][..], 0),
        };
        // Validation already proved every decode succeeds; `map_while` only
        // guards against a `WireEvent` impl whose decode disagrees with its
        // own sizes.
        (0..count).map_while(move |_| E::decode_id(&mut cursor))
    }

    /// Iterates the events of a `Serve` frame, decoding each from the
    /// borrowed body on the fly. Empty for the other kinds.
    ///
    /// "Zero-copy" here means no intermediate `Vec<E>` and no per-message
    /// buffer copy. An event whose type owns its bytes copies its payload
    /// out of the buffer — unless the frame has a pool
    /// ([`Frame::with_pool`]) holding a byte-equal payload to share.
    pub fn events(&self) -> impl Iterator<Item = E> + 'a {
        let (mut cursor, count) = match self.kind {
            FrameKind::Serve => (self.body, self.count),
            _ => (&[][..], 0),
        };
        let pool = self.pool;
        (0..count).map_while(move |_| match pool {
            Some(pool) => E::decode_event_pooled(&mut cursor, pool),
            None => E::decode_event(&mut cursor),
        })
    }

    /// Materialises the frame into an owned [`Message`] (the copying path;
    /// useful for tests and for consumers that need ownership anyway).
    pub fn to_message(&self) -> Message<E> {
        match self.kind {
            FrameKind::Propose => Message::Propose { ids: self.ids().collect::<Vec<_>>().into() },
            FrameKind::Request => Message::Request { ids: self.ids().collect::<Vec<_>>().into() },
            FrameKind::Serve => Message::Serve { events: self.events().collect() },
            FrameKind::FeedMe => Message::FeedMe,
        }
    }
}

fn take_u8(input: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = input.split_first()?;
    *input = rest;
    Some(first)
}

fn take_u16(input: &mut &[u8]) -> Option<u16> {
    if input.len() < 2 {
        return None;
    }
    let (bytes, rest) = input.split_at(2);
    *input = rest;
    Some(u16::from_le_bytes([bytes[0], bytes[1]]))
}

fn take_u32(input: &mut &[u8]) -> Option<u32> {
    if input.len() < 4 {
        return None;
    }
    let (bytes, rest) = input.split_at(4);
    *input = rest;
    Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Reads a `u64` from the front of `input` (helper for implementors).
pub fn take_u64(input: &mut &[u8]) -> Option<u64> {
    if input.len() < 8 {
        return None;
    }
    let (bytes, rest) = input.split_at(8);
    *input = rest;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(bytes);
    Some(u64::from_le_bytes(arr))
}

impl WireEvent for TestEvent {
    fn encode_id(id: &u64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&id.to_le_bytes());
    }

    fn decode_id(input: &mut &[u8]) -> Option<u64> {
        take_u64(input)
    }

    fn encode_event(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id().to_le_bytes());
        buf.extend_from_slice(&(self.payload_size() as u32).to_le_bytes());
        // Test events carry a synthetic zeroed payload so the datagram
        // length matches `wire_size()` exactly.
        buf.extend(std::iter::repeat_n(0u8, self.payload_size()));
    }

    fn decode_event(input: &mut &[u8]) -> Option<Self> {
        let id = take_u64(input)?;
        if input.len() < 4 {
            return None;
        }
        let (bytes, rest) = input.split_at(4);
        *input = rest;
        let size = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if input.len() < size {
            return None;
        }
        *input = &input[size..];
        Some(TestEvent::new(id, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message<TestEvent>) {
        let sender = NodeId::new(17);
        let bytes = encode_message(sender, &msg);
        let (got_sender, got_msg) = decode_message::<TestEvent>(&bytes).expect("decodes");
        assert_eq!(got_sender, sender);
        assert_eq!(got_msg, msg);
    }

    #[test]
    fn round_trips_every_variant() {
        round_trip(Message::Propose { ids: vec![1, 2, u64::MAX].into() });
        round_trip(Message::Request { ids: Vec::new().into() });
        round_trip(Message::Serve { events: vec![TestEvent::new(9, 1000), TestEvent::new(10, 0)] });
        round_trip(Message::FeedMe);
    }

    #[test]
    fn truncated_datagrams_are_rejected() {
        let bytes = encode_message(
            NodeId::new(1),
            &Message::Propose::<TestEvent> { ids: vec![1, 2, 3].into() },
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_message::<TestEvent>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_message(NodeId::new(1), &Message::FeedMe::<TestEvent>);
        bytes.push(0xFF);
        assert!(decode_message::<TestEvent>(&bytes).is_none());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = vec![42u8, 0, 0, 0, 0, 0, 0];
        assert!(decode_message::<TestEvent>(&bytes).is_none());
    }

    #[test]
    fn empty_datagram_is_rejected() {
        assert!(decode_message::<TestEvent>(&[]).is_none());
    }

    #[test]
    fn frame_round_trips_every_variant() {
        let sender = NodeId::new(17);
        for msg in [
            Message::Propose { ids: vec![1, 2, u64::MAX].into() },
            Message::Request { ids: Vec::new().into() },
            Message::Serve { events: vec![TestEvent::new(9, 1000), TestEvent::new(10, 0)] },
            Message::FeedMe,
        ] {
            let bytes = encode_message(sender, &msg);
            let frame = decode_frame::<TestEvent>(&bytes).expect("decodes");
            assert_eq!(frame.sender(), sender);
            assert_eq!(frame.to_message(), msg);
        }
    }

    #[test]
    fn frame_rejects_truncation_everywhere() {
        let bytes = encode_message(
            NodeId::new(1),
            &Message::Serve::<TestEvent> { events: vec![TestEvent::new(1, 64)] },
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_frame::<TestEvent>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode as a frame"
            );
        }
    }

    #[test]
    fn frame_rejects_trailing_garbage_and_unknown_tags() {
        let mut bytes = encode_message(NodeId::new(1), &Message::FeedMe::<TestEvent>);
        bytes.push(0xFF);
        assert!(decode_frame::<TestEvent>(&bytes).is_none());
        assert!(decode_frame::<TestEvent>(&[42u8, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(decode_frame::<TestEvent>(&[]).is_none());
    }

    #[test]
    fn frame_rejects_event_length_past_datagram_end() {
        // A serve whose embedded payload length runs past the datagram:
        // [tag][sender][count=1][id u64][size u32 = 1000][8 bytes only].
        let mut bytes = Vec::new();
        bytes.push(TAG_SERVE);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&99u64.to_le_bytes());
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(decode_frame::<TestEvent>(&bytes).is_none());
        assert!(decode_message::<TestEvent>(&bytes).is_none(), "paths agree");
    }

    #[test]
    fn frame_rejects_id_body_length_mismatch() {
        // A propose claiming 2 ids but carrying 1.5: all-or-nothing.
        let mut bytes = Vec::new();
        bytes.push(TAG_PROPOSE);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        assert!(decode_frame::<TestEvent>(&bytes).is_none());
        assert!(decode_message::<TestEvent>(&bytes).is_none(), "paths agree");
    }

    #[test]
    fn frame_iterators_are_lazy_and_repeatable() {
        let msg: Message<TestEvent> = Message::Propose { ids: vec![3, 1, 4, 1, 5].into() };
        let bytes = encode_message(NodeId::new(2), &msg);
        let frame = decode_frame::<TestEvent>(&bytes).expect("decodes");
        assert_eq!(frame.count(), 5);
        // Each call yields a fresh pass over the borrowed body.
        assert_eq!(frame.ids().collect::<Vec<_>>(), vec![3, 1, 4, 1, 5]);
        assert_eq!(frame.ids().take(2).collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(frame.ids().count(), 5);
    }
}
