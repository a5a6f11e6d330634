//! The once-per-hop integrity rule: a validating node calls
//! [`Event::verify`] exactly once per received serve event, on either
//! ingest path, and a host that follows [`GossipNode::delivers_verified`]
//! adds no second pass.

use std::cell::Cell;

use gossip_core::wire::{decode_frame, encode_message, WireEvent};
use gossip_core::{Event, GossipConfig, GossipNode, Message, Output, TestEvent};
use gossip_types::{NodeId, Time};

thread_local! {
    /// `verify` calls made on this test's thread (decoded events are built
    /// by the codec, so the count cannot live in the event).
    static VERIFIES: Cell<usize> = const { Cell::new(0) };
}

/// A [`TestEvent`] that counts its integrity checks.
#[derive(Debug, Clone, PartialEq)]
struct Counted(TestEvent);

impl Event for Counted {
    type Id = u64;

    fn id(&self) -> u64 {
        self.0.id()
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }

    fn id_wire_size() -> usize {
        TestEvent::id_wire_size()
    }

    fn verify(&self) -> bool {
        VERIFIES.with(|n| n.set(n.get() + 1));
        self.0.verify()
    }
}

impl WireEvent for Counted {
    fn encode_id(id: &u64, buf: &mut Vec<u8>) {
        TestEvent::encode_id(id, buf);
    }

    fn decode_id(input: &mut &[u8]) -> Option<u64> {
        TestEvent::decode_id(input)
    }

    fn encode_event(&self, buf: &mut Vec<u8>) {
        self.0.encode_event(buf);
    }

    fn decode_event(input: &mut &[u8]) -> Option<Self> {
        TestEvent::decode_event(input).map(Counted)
    }
}

fn node(config: GossipConfig) -> GossipNode<Counted> {
    GossipNode::new(NodeId::new(1), config, (0..10).map(NodeId::new).collect(), 1)
}

fn serve(ids: std::ops::Range<u64>) -> Message<Counted> {
    Message::Serve { events: ids.map(|id| Counted(TestEvent::new(id, 100))).collect() }
}

/// What every host does with a node's outputs: gate each delivery on
/// integrity, re-hashing only what the node did not. Returns the number of
/// deliveries that passed.
fn host_drain(node: &mut GossipNode<Counted>) -> usize {
    let mut intact = 0;
    while let Some(out) = node.poll_output() {
        if let Output::Deliver { event } = out {
            if node.delivers_verified() || event.verify() {
                intact += 1;
            }
        }
    }
    intact
}

#[test]
fn a_validating_node_hashes_each_served_event_exactly_once() {
    let mut node = node(GossipConfig::new(3));
    assert!(node.delivers_verified(), "validate-before-relay is the default");
    let from = NodeId::new(2);

    // Owned path: five fresh events.
    node.on_message(Time::ZERO, from, serve(0..5));
    assert_eq!(VERIFIES.get(), 5);
    assert_eq!(host_drain(&mut node), 5);
    assert_eq!(VERIFIES.get(), 5, "the host adds no second pass");

    // Borrowed path: five more, plus two the node already holds — a
    // duplicate is still a received serve event and still hashed once.
    let bytes = encode_message(from, &serve(3..10));
    let frame = decode_frame::<Counted>(&bytes).expect("frames");
    assert_eq!(VERIFIES.get(), 5, "framing does not hash");
    node.on_frame(Time::from_millis(1), &frame);
    assert_eq!(VERIFIES.get(), 12);
    assert_eq!(host_drain(&mut node), 5);
    assert_eq!(VERIFIES.get(), 12);
    assert_eq!(node.stats().events_delivered, 10);
    assert_eq!(node.stats().duplicate_events_received, 2);

    // A corrupted serve is hashed once, caught, and never reaches the host.
    let poisoned = Message::Serve { events: vec![Counted(TestEvent::new(77, 100).corrupted())] };
    node.on_message(Time::from_millis(2), from, poisoned);
    assert_eq!(VERIFIES.get(), 13);
    assert_eq!(host_drain(&mut node), 0);
    assert_eq!(VERIFIES.get(), 13);
    assert_eq!(node.stats().corrupted_events_detected, 1);
}

#[test]
fn an_undefended_node_leaves_the_one_hash_to_its_host() {
    let mut node = node(GossipConfig::new(3).with_verify_payloads(false));
    assert!(!node.delivers_verified());
    let events = vec![Counted(TestEvent::new(1, 100)), Counted(TestEvent::new(2, 100).corrupted())];
    node.on_message(Time::ZERO, NodeId::new(2), Message::Serve { events });
    assert_eq!(VERIFIES.get(), 0, "the node does not look");
    assert_eq!(node.stats().events_delivered, 2, "and swallows the corruption");
    assert_eq!(host_drain(&mut node), 1, "the host keeps it out of its measurements");
    assert_eq!(VERIFIES.get(), 2, "at one hash per delivery");
}
