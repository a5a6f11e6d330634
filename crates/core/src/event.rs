//! The event abstraction disseminated by the protocol.

use std::fmt;
use std::hash::Hash;

use crate::index::EventIndex;

/// An application event carried by the gossip protocol.
///
/// The protocol only needs three things from an event: a unique, copyable
/// [`Event::id`] (what `[PROPOSE]`/`[REQUEST]` messages carry), the wire
/// size of the id, and the wire size of the full event (what `[SERVE]`
/// messages carry). The streaming layer implements this trait for its
/// packets; tests use [`TestEvent`].
///
/// Ids additionally implement [`EventIndex`], which lets the node keep its
/// per-event bookkeeping in dense per-window slabs instead of hash maps.
pub trait Event: Clone + fmt::Debug {
    /// The event identifier type.
    type Id: Copy + Eq + Ord + Hash + fmt::Debug + EventIndex;

    /// Returns the unique id of this event.
    fn id(&self) -> Self::Id;

    /// Returns the serialized size of the full event in a `[SERVE]`
    /// message, in bytes (id + payload + length framing).
    fn wire_size(&self) -> usize;

    /// Returns the serialized size of one event id in a
    /// `[PROPOSE]`/`[REQUEST]` message, in bytes.
    fn id_wire_size() -> usize;

    /// Whether the event's payload matches its integrity metadata.
    ///
    /// Called exactly once per received serve event: a validating node
    /// (`GossipConfig::verify_payloads`, the default) calls it before
    /// delivering, storing or re-proposing the event
    /// (validate-before-relay), and hosts do not call it again for a
    /// validating node — only the host of an undefended one checks its
    /// deliveries itself (see `GossipNode::delivers_verified`). The verdict
    /// is not cached in the event: a clone served onward is checked by its
    /// receiver. Events without integrity metadata are trivially valid.
    /// Implementations should run at memory speed over the payload — this
    /// is the per-hop cost of every delivered packet.
    fn verify(&self) -> bool {
        true
    }
}

/// A minimal event for tests and microbenchmarks: a `u64` id plus a nominal
/// payload size (no actual payload bytes are stored).
///
/// # Examples
///
/// ```
/// use gossip_core::{Event, TestEvent};
///
/// let e = TestEvent::new(42, 1000);
/// assert_eq!(e.id(), 42);
/// assert_eq!(e.wire_size(), 1012); // id + length field + nominal payload
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestEvent {
    id: u64,
    payload_size: usize,
    corrupt: bool,
}

impl TestEvent {
    /// Creates a test event with the given id and nominal payload size.
    pub fn new(id: u64, payload_size: usize) -> Self {
        TestEvent { id, payload_size, corrupt: false }
    }

    /// Returns the nominal payload size.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Returns a copy whose (nominal) payload fails [`Event::verify`] —
    /// what a Byzantine serve-corruptor would hand out.
    pub fn corrupted(mut self) -> Self {
        self.corrupt = true;
        self
    }
}

impl Event for TestEvent {
    type Id = u64;

    fn id(&self) -> u64 {
        self.id
    }

    fn wire_size(&self) -> usize {
        // id + 4-byte length field + payload bytes: matches the encoding in
        // `crate::wire` exactly, so simulated byte accounting and real
        // datagrams agree.
        8 + 4 + self.payload_size
    }

    fn id_wire_size() -> usize {
        8
    }

    fn verify(&self) -> bool {
        !self.corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_event_basics() {
        let e = TestEvent::new(7, 100);
        assert_eq!(e.id(), 7);
        assert_eq!(e.payload_size(), 100);
        assert_eq!(e.wire_size(), 112);
        assert_eq!(TestEvent::id_wire_size(), 8);
        assert!(e.verify());
        let bad = e.corrupted();
        assert!(!bad.verify());
        assert_eq!(bad.id(), 7, "corruption keeps the claimed id");
        assert_eq!(bad.wire_size(), e.wire_size());
    }
}
