//! Property-based tests of the protocol core: the state machine must hold
//! its invariants under arbitrary message interleavings, and the wire codec
//! must round-trip and reject garbage without panicking.

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_core::index::{DenseMap, EventIndex};
use gossip_core::wire::{decode_frame, decode_message, encode_message};
use gossip_core::{Event, GossipConfig, GossipNode, Message, Output, TestEvent, TimerToken};
use gossip_sim::EventQueue;
use gossip_types::{Duration, NodeId, Time};

fn members(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

/// An arbitrary protocol input. `CorruptServe` is a serve whose payloads
/// fail verification; `Forget` is what a host does to a node that crashes.
#[derive(Debug, Clone)]
enum Input {
    Propose { from: u32, ids: Vec<u64> },
    Request { from: u32, ids: Vec<u64> },
    Serve { from: u32, ids: Vec<u64> },
    CorruptServe { from: u32, ids: Vec<u64> },
    FeedMe { from: u32 },
    Round,
    Forget,
}

impl Input {
    fn apply(self, node: &mut GossipNode<TestEvent>, now: Time) {
        let serve = |ids: Vec<u64>, corrupt: bool| Message::Serve {
            events: ids
                .into_iter()
                .map(|i| TestEvent::new(i, 16))
                .map(|e| if corrupt { e.corrupted() } else { e })
                .collect(),
        };
        match self {
            Input::Propose { from, ids } => {
                node.on_message(now, NodeId::new(from), Message::Propose { ids: ids.into() });
            }
            Input::Request { from, ids } => {
                node.on_message(now, NodeId::new(from), Message::Request { ids: ids.into() });
            }
            Input::Serve { from, ids } => {
                node.on_message(now, NodeId::new(from), serve(ids, false))
            }
            Input::CorruptServe { from, ids } => {
                node.on_message(now, NodeId::new(from), serve(ids, true));
            }
            Input::FeedMe { from } => node.on_message(now, NodeId::new(from), Message::FeedMe),
            Input::Round => node.on_round(now),
            Input::Forget => {
                node.forget_payloads();
                node.forget_retransmits();
            }
        }
    }
}

fn input_strategy() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0u32..10, vec(0u64..50, 0..8)).prop_map(|(from, ids)| Input::Propose { from, ids }),
        (0u32..10, vec(0u64..50, 0..8)).prop_map(|(from, ids)| Input::Request { from, ids }),
        (0u32..10, vec(0u64..50, 0..8)).prop_map(|(from, ids)| Input::Serve { from, ids }),
        (0u32..10, vec(0u64..50, 0..3)).prop_map(|(from, ids)| Input::CorruptServe { from, ids }),
        (0u32..10).prop_map(|from| Input::FeedMe { from }),
        Just(Input::Round),
        Just(Input::Forget),
    ]
}

/// One operation on a map from ids to counters.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u32),
    InsertIfVacant(u64, u32),
    /// `get_or_insert_with`, then add one to the value.
    Bump(u64, u32),
    /// `retain` the values that are not multiples of this.
    DropMultiplesOf(u32),
    /// Add one to every value in this window or a later one.
    BumpFrom(u64),
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    // Mostly a few dense windows (256 ids each), now and then a far one.
    let key = || prop_oneof![0u64..700, 0u64..700, any::<u64>()];
    prop_oneof![
        (key(), 0u32..100).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (key(), 0u32..100).prop_map(|(k, v)| MapOp::InsertIfVacant(k, v)),
        (key(), 0u32..100).prop_map(|(k, v)| MapOp::Bump(k, v)),
        (2u32..5).prop_map(MapOp::DropMultiplesOf),
        (0u64..4).prop_map(MapOp::BumpFrom),
    ]
}

proptest! {
    /// `DenseMap` stores no key, so nothing but position says which id a
    /// value belongs to: after any operation sequence it must hold exactly
    /// what a `HashMap` driven the same way holds — in no more slots than
    /// its windows span.
    #[test]
    fn dense_map_is_a_hash_map(ops in vec(map_op_strategy(), 1..120)) {
        let mut dense: DenseMap<u64, u32> = DenseMap::new();
        let mut model: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut touched = Vec::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(dense.insert(k, v), model.insert(k, v));
                    touched.push(k);
                }
                MapOp::InsertIfVacant(k, v) => {
                    let vacant = !model.contains_key(&k);
                    model.entry(k).or_insert(v);
                    prop_assert_eq!(dense.insert_if_vacant(k, v), vacant);
                    touched.push(k);
                }
                MapOp::Bump(k, v) => {
                    let (d, m) = (dense.get_or_insert_with(k, || v), model.entry(k).or_insert(v));
                    prop_assert_eq!(*d, *m);
                    *d += 1;
                    *m += 1;
                    touched.push(k);
                }
                MapOp::DropMultiplesOf(n) => {
                    dense.retain(|v| *v % n != 0);
                    model.retain(|_, v| *v % n != 0);
                }
                MapOp::BumpFrom(window) => {
                    let mut visited = 0;
                    let mut last = window;
                    for (w, v) in dense.values_mut_from(window) {
                        prop_assert!(w >= last, "windows out of order");
                        last = w;
                        *v += 1;
                        visited += 1;
                    }
                    let recent = model.iter_mut().filter(|(k, _)| k.dense_key().0 >= window);
                    prop_assert_eq!(visited, recent.map(|(_, v)| *v += 1).count());
                }
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
        }
        // Rows are allocated to the longest row seen, never to the next
        // power of two: a map holds no more slots than its windows need.
        let windows: std::collections::HashSet<u64> =
            touched.iter().map(|k| k.dense_key().0).collect();
        let longest = touched.iter().map(|k| k.dense_key().1 as usize + 1).max().unwrap_or(0);
        prop_assert!(
            dense.capacity() <= windows.len() * longest,
            "{} slots allocated for {} windows of at most {}", dense.capacity(), windows.len(), longest
        );
        for k in touched {
            prop_assert_eq!(dense.get(&k), model.get(&k), "key {}", k);
            prop_assert_eq!(dense.get_mut(&k), model.get_mut(&k), "key {}", k);
            // The neighbouring slot is only filled if the model says so.
            prop_assert_eq!(dense.get(&(k ^ 1)), model.get(&(k ^ 1)), "neighbour of {}", k);
        }
    }

    /// Under any interleaving of inputs: no panics, every event delivered
    /// at most once, and every outgoing message is non-empty.
    #[test]
    fn node_invariants_under_arbitrary_inputs(inputs in vec(input_strategy(), 1..200)) {
        let mut node: GossipNode<TestEvent> =
            GossipNode::new(NodeId::new(0), GossipConfig::new(3), members(10), 1);
        let mut delivered = std::collections::HashSet::new();
        let mut now = Time::ZERO;
        let mut timers = Vec::new();
        for input in inputs {
            now += Duration::from_millis(10);
            input.apply(&mut node, now);
            // Occasionally fire a pending timer.
            if let Some((token, at)) = timers.pop() {
                if at <= now {
                    node.on_timer(now, token);
                }
            }
            while let Some(out) = node.poll_output() {
                match out {
                    Output::Deliver { event } => {
                        prop_assert!(
                            delivered.insert(event.id()),
                            "event {:?} delivered twice", event.id()
                        );
                    }
                    Output::Send { msg, .. } => {
                        prop_assert!(!msg.is_empty_payload(), "empty {} sent", msg.kind());
                    }
                    Output::ScheduleTimer { token, at } => timers.push((token, at)),
                }
            }
        }
        prop_assert_eq!(delivered.len() as u64, node.stats().events_delivered);
    }

    /// Cancellation is invisible to the protocol: one input sequence
    /// drives two nodes, one under a host that takes every cancelled
    /// deadline out of its queue (so it never fires), one under a host that
    /// cancels nothing and fires every timer. Their outputs and counters
    /// must be identical at every step. The RTO is short enough that
    /// timers come due between inputs, retries and backoff included.
    #[test]
    fn cancelled_timers_would_have_done_nothing(inputs in vec(input_strategy(), 1..200)) {
        struct Host {
            node: GossipNode<TestEvent>,
            queue: EventQueue<TimerToken>,
            cancels: bool,
        }
        impl Host {
            /// Everything the node emitted since the last call, its timers
            /// scheduled (and, for the cancelling host, attached).
            fn outputs(&mut self) -> Vec<Output<TestEvent>> {
                let out: Vec<_> = std::iter::from_fn(|| self.node.poll_output()).collect();
                for o in &out {
                    if let Output::ScheduleTimer { token, at } = o {
                        let handle = self.queue.push(*at, *token);
                        if self.cancels {
                            self.node.attach_timer_handle(*token, handle);
                        }
                    }
                }
                while let Some(handle) = self.node.poll_cancelled() {
                    assert!(self.cancels, "told to cancel a deadline it never named");
                    assert!(self.queue.cancel(handle), "a cancelled deadline was not pending");
                }
                out
            }
        }
        let config = GossipConfig::new(3)
            .with_max_requests(4)
            .with_retransmit_timeout(Duration::from_millis(40))
            .with_rto_bounds(Duration::from_millis(20), Duration::from_millis(200));
        let mut hosts = [true, false].map(|cancels| Host {
            node: GossipNode::new(NodeId::new(0), config.clone(), members(10), 1),
            queue: EventQueue::new(),
            cancels,
        });
        let mut now = Time::ZERO;
        let mut fired = [0usize; 2];
        for input in inputs {
            now += Duration::from_millis(10);
            let mut seen = Vec::new();
            for (host, fired) in hosts.iter_mut().zip(&mut fired) {
                let mut out = Vec::new();
                while let Some((_, token)) = host.queue.pop_before(now) {
                    *fired += 1;
                    host.node.on_timer(now, token);
                    // A no-op fire leaves no trace, so the steps line up.
                    out.extend(host.outputs());
                }
                input.clone().apply(&mut host.node, now);
                out.extend(host.outputs());
                seen.push(out);
            }
            prop_assert_eq!(&seen[0], &seen[1]);
            prop_assert_eq!(hosts[0].node.stats(), hosts[1].node.stats());
            prop_assert_eq!(hosts[0].node.current_rto(), hosts[1].node.current_rto());
        }
        prop_assert!(fired[0] <= fired[1], "the cancelling host fired more timers");
    }

    /// The node never requests an id twice via fresh proposals, no matter
    /// who proposes what in which order.
    #[test]
    fn ids_are_requested_from_one_peer_only(
        proposals in vec((0u32..8, vec(0u64..20, 1..6)), 1..40)
    ) {
        let mut node: GossipNode<TestEvent> =
            GossipNode::new(NodeId::new(9), GossipConfig::new(3).with_max_requests(1), members(10), 1);
        let mut requested = std::collections::HashSet::new();
        for (i, (from, ids)) in proposals.into_iter().enumerate() {
            let now = Time::from_millis(i as u64);
            node.on_message(now, NodeId::new(from), Message::Propose { ids: ids.into() });
            while let Some(out) = node.poll_output() {
                if let Output::Send { msg: Message::Request { ids }, .. } = out {
                    for &id in ids.iter() {
                        prop_assert!(requested.insert(id), "id {id} requested twice");
                    }
                }
            }
        }
    }

    /// Wire codec: every message round-trips byte-exactly, and the encoded
    /// length equals the declared wire size.
    #[test]
    fn codec_round_trips(
        sender in any::<u32>(),
        ids in vec(any::<u64>(), 0..50),
        sizes in vec(0usize..2000, 0..5),
        kind in 0u8..4,
    ) {
        let msg: Message<TestEvent> = match kind {
            0 => Message::Propose { ids: ids.into() },
            1 => Message::Request { ids: ids.into() },
            2 => Message::Serve {
                events: sizes.iter().enumerate().map(|(i, &s)| TestEvent::new(i as u64, s)).collect(),
            },
            _ => Message::FeedMe,
        };
        let bytes = encode_message(NodeId::new(sender), &msg);
        prop_assert_eq!(bytes.len(), msg.wire_size(), "encoded length must match wire_size");
        let (got_sender, got) = decode_message::<TestEvent>(&bytes).expect("round-trips");
        prop_assert_eq!(got_sender, NodeId::new(sender));
        prop_assert_eq!(got, msg);
    }

    /// Arbitrary garbage never decodes into a message and never panics.
    #[test]
    fn codec_rejects_garbage_gracefully(bytes in vec(any::<u8>(), 0..300)) {
        // Either decodes (if it happens to be valid) or returns None —
        // what matters is that it never panics.
        let _ = decode_message::<TestEvent>(&bytes);
    }

    /// Truncating a valid datagram anywhere makes it undecodable.
    #[test]
    fn codec_rejects_truncation(
        ids in vec(any::<u64>(), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg: Message<TestEvent> = Message::Propose { ids: ids.into() };
        let bytes = encode_message(NodeId::new(1), &msg);
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_message::<TestEvent>(&bytes[..cut]).is_none());
        }
    }

    /// The borrowed `decode_frame` path is equivalent to the copying
    /// `decode_message` path on every valid datagram: same sender, same
    /// message once materialised, same lazy iterator contents.
    #[test]
    fn borrowed_frame_matches_owned_decode_on_valid_input(
        sender in any::<u32>(),
        ids in vec(any::<u64>(), 0..50),
        sizes in vec(0usize..2000, 0..5),
        kind in 0u8..4,
    ) {
        let msg: Message<TestEvent> = match kind {
            0 => Message::Propose { ids: ids.into() },
            1 => Message::Request { ids: ids.into() },
            2 => Message::Serve {
                events: sizes.iter().enumerate().map(|(i, &s)| TestEvent::new(i as u64, s)).collect(),
            },
            _ => Message::FeedMe,
        };
        let bytes = encode_message(NodeId::new(sender), &msg);
        let frame = decode_frame::<TestEvent>(&bytes).expect("valid datagrams decode as frames");
        prop_assert_eq!(frame.sender(), NodeId::new(sender));
        prop_assert_eq!(frame.to_message(), msg.clone());
        match &msg {
            Message::Propose { ids } | Message::Request { ids } => {
                prop_assert_eq!(frame.count(), ids.len());
                prop_assert_eq!(&frame.ids().collect::<Vec<_>>()[..], &ids[..]);
                prop_assert_eq!(frame.events().count(), 0);
            }
            Message::Serve { events } => {
                prop_assert_eq!(frame.count(), events.len());
                prop_assert_eq!(&frame.events().collect::<Vec<_>>(), events);
                prop_assert_eq!(frame.ids().count(), 0);
            }
            Message::FeedMe => {
                prop_assert_eq!(frame.ids().count(), 0);
                prop_assert_eq!(frame.events().count(), 0);
            }
        }
    }

    /// The two decode paths accept and reject *exactly* the same inputs —
    /// arbitrary garbage included — and neither ever panics.
    #[test]
    fn borrowed_frame_matches_owned_decode_on_garbage(bytes in vec(any::<u8>(), 0..300)) {
        let owned = decode_message::<TestEvent>(&bytes);
        let borrowed = decode_frame::<TestEvent>(&bytes);
        match (owned, borrowed) {
            (Some((sender, msg)), Some(frame)) => {
                prop_assert_eq!(frame.sender(), sender);
                prop_assert_eq!(frame.to_message(), msg);
            }
            (None, None) => {}
            (owned, borrowed) => prop_assert!(
                false,
                "paths disagree: owned={:?} borrowed={:?}",
                owned.is_some(),
                borrowed.is_some()
            ),
        }
    }

    /// Truncating a valid datagram anywhere is rejected identically by
    /// both decode paths.
    #[test]
    fn borrowed_frame_rejects_truncation(
        sizes in vec(0usize..500, 1..4),
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg: Message<TestEvent> = Message::Serve {
            events: sizes.iter().enumerate().map(|(i, &s)| TestEvent::new(i as u64, s)).collect(),
        };
        let bytes = encode_message(NodeId::new(1), &msg);
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_frame::<TestEvent>(&bytes[..cut]).is_none());
            prop_assert!(decode_message::<TestEvent>(&bytes[..cut]).is_none());
        }
    }
}
