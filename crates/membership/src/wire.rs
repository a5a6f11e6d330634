//! Wire encoding of [`ShuffleMessage`]s, for runtimes that carry
//! membership shuffles over real sockets.
//!
//! The simulator delivers shuffles as in-memory envelopes; the socket
//! runtimes need bytes. The layout mirrors `gossip_core::wire` — a tag
//! byte, the sender id, an element count, then fixed-size elements — so
//! one receive path can dispatch on the first byte:
//!
//! ```text
//! [ tag: u8 ][ sender: u32 LE ][ count: u16 LE ][ node: u32 LE, age: u32 LE ] × count
//! ```
//!
//! The tags ([`TAG_SHUFFLE_REQUEST`], [`TAG_SHUFFLE_REPLY`]) are chosen
//! disjoint from the protocol tags (`gossip_core::wire` uses 1..=4), so a
//! shuffle datagram can never parse as a protocol message nor vice versa;
//! [`is_shuffle`] is the cheap first-byte dispatch check.

use gossip_types::NodeId;

use crate::ShuffleMessage;

/// Tag byte of an encoded [`ShuffleMessage::Request`].
pub const TAG_SHUFFLE_REQUEST: u8 = 0x4D;
/// Tag byte of an encoded [`ShuffleMessage::Reply`].
pub const TAG_SHUFFLE_REPLY: u8 = 0x4E;

/// Returns whether `datagram` starts like an encoded shuffle message.
/// A `true` answer only promises the tag matches; [`decode_shuffle`]
/// still validates the rest.
pub fn is_shuffle(datagram: &[u8]) -> bool {
    matches!(datagram.first(), Some(&TAG_SHUFFLE_REQUEST | &TAG_SHUFFLE_REPLY))
}

/// Encodes `msg` from `sender` into a fresh datagram buffer.
///
/// The count field holds at most `u16::MAX` entries. A [`CyclonView`]
/// never offers more than its `shuffle_size ≤ view_size` entries — single
/// digits in practice — so nothing it sends comes near that; a hand-built
/// message past it is encoded with its first `u16::MAX` entries rather
/// than aborting the sender.
///
/// [`CyclonView`]: crate::CyclonView
pub fn encode_shuffle(sender: NodeId, msg: &ShuffleMessage) -> Vec<u8> {
    let (tag, entries) = match msg {
        ShuffleMessage::Request(entries) => (TAG_SHUFFLE_REQUEST, entries),
        ShuffleMessage::Reply(entries) => (TAG_SHUFFLE_REPLY, entries),
    };
    let count = u16::try_from(entries.len()).unwrap_or(u16::MAX);
    let entries = entries.iter().take(usize::from(count));
    let mut buf = Vec::with_capacity(7 + usize::from(count) * 8);
    buf.push(tag);
    buf.extend_from_slice(&sender.as_u32().to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    for &(node, age) in entries {
        buf.extend_from_slice(&node.as_u32().to_le_bytes());
        buf.extend_from_slice(&age.to_le_bytes());
    }
    buf
}

/// Decodes a datagram into the sender and the shuffle message.
///
/// Returns `None` for a non-shuffle tag, truncated input, or trailing
/// garbage (all-or-nothing, like the protocol codec).
pub fn decode_shuffle(datagram: &[u8]) -> Option<(NodeId, ShuffleMessage)> {
    let (&tag, rest) = datagram.split_first()?;
    let (&[s0, s1, s2, s3, c0, c1], body) = rest.split_first_chunk::<6>()?;
    let sender = NodeId::new(u32::from_le_bytes([s0, s1, s2, s3]));
    let count = usize::from(u16::from_le_bytes([c0, c1]));
    if body.len() != count * 8 {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    let mut rest = body;
    while let Some((&[n0, n1, n2, n3, a0, a1, a2, a3], tail)) = rest.split_first_chunk() {
        let node = NodeId::new(u32::from_le_bytes([n0, n1, n2, n3]));
        entries.push((node, u32::from_le_bytes([a0, a1, a2, a3])));
        rest = tail;
    }
    match tag {
        TAG_SHUFFLE_REQUEST => Some((sender, ShuffleMessage::Request(entries))),
        TAG_SHUFFLE_REPLY => Some((sender, ShuffleMessage::Reply(entries))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reply_roundtrip() {
        let entries = vec![(NodeId::new(3), 0), (NodeId::new(7), 12), (NodeId::new(42), 1)];
        for msg in
            [ShuffleMessage::Request(entries.clone()), ShuffleMessage::Reply(entries.clone())]
        {
            let bytes = encode_shuffle(NodeId::new(9), &msg);
            assert!(is_shuffle(&bytes));
            let (sender, decoded) = decode_shuffle(&bytes).expect("well-formed");
            assert_eq!(sender, NodeId::new(9));
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn empty_subset_roundtrips() {
        let bytes = encode_shuffle(NodeId::new(0), &ShuffleMessage::Request(Vec::new()));
        let (_, decoded) = decode_shuffle(&bytes).expect("well-formed");
        assert_eq!(decoded, ShuffleMessage::Request(Vec::new()));
    }

    #[test]
    fn protocol_tags_are_never_shuffles() {
        // gossip_core::wire uses tags 1..=4; none may dispatch as shuffle.
        for tag in 0..=4u8 {
            assert!(!is_shuffle(&[tag, 0, 0, 0, 0, 0, 0]));
            assert!(decode_shuffle(&[tag, 0, 0, 0, 0, 0, 0]).is_none());
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let bytes =
            encode_shuffle(NodeId::new(1), &ShuffleMessage::Reply(vec![(NodeId::new(2), 5)]));
        for cut in 1..bytes.len() {
            assert!(decode_shuffle(&bytes[..cut]).is_none(), "truncated at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0xAA);
        assert!(decode_shuffle(&long).is_none(), "trailing garbage must reject");
        assert!(decode_shuffle(&[]).is_none());
    }

    #[test]
    fn an_oversized_message_keeps_its_first_u16_max_entries() {
        let entries: Vec<(NodeId, u32)> =
            (0..=u32::from(u16::MAX)).map(|i| (NodeId::new(i), i)).collect();
        let bytes = encode_shuffle(NodeId::new(1), &ShuffleMessage::Request(entries.clone()));
        let (_, decoded) = decode_shuffle(&bytes).expect("well-formed");
        assert_eq!(decoded, ShuffleMessage::Request(entries[..usize::from(u16::MAX)].to_vec()));
    }

    #[test]
    fn count_must_match_body_exactly() {
        let mut bytes =
            encode_shuffle(NodeId::new(1), &ShuffleMessage::Request(vec![(NodeId::new(2), 0)]));
        bytes[5] = 2; // claim two entries, carry one
        assert!(decode_shuffle(&bytes).is_none());
    }
}
