//! Property-based tests of the protocol core: the state machine must hold
//! its invariants under arbitrary message interleavings, and the wire codec
//! must round-trip and reject garbage without panicking.

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_core::index::{DenseMap, EventIndex, Narrow, NarrowRow};
use gossip_core::wire::{decode_frame, decode_message, encode_message, EventPool};
use gossip_core::{
    Event, GossipConfig, GossipNode, Message, Output, PacketPool, TestEvent, TimerToken,
};
use gossip_sim::{EventHandle, EventQueue};
use gossip_types::{Duration, NodeId, Time};

fn members(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

/// An arbitrary protocol input. `CorruptServe` is a serve whose payloads
/// fail verification; `Crash` is a node crashing and coming back, as hosts
/// revive one: a fresh incarnation.
#[derive(Debug, Clone)]
enum Input {
    Propose { from: u32, ids: Vec<u64> },
    Request { from: u32, ids: Vec<u64> },
    Serve { from: u32, ids: Vec<u64> },
    CorruptServe { from: u32, ids: Vec<u64> },
    FeedMe { from: u32 },
    Round,
    Crash,
}

impl Input {
    /// Feeds the input to `node`. A crash ends its incarnation and puts a
    /// fresh node in its place, returning the deadlines the old one handed
    /// back.
    fn apply(self, node: &mut GossipNode<TestEvent>, now: Time) -> Vec<EventHandle> {
        self.apply_pooled(node, now, None)
    }

    /// [`Input::apply`] from a host that lends `pool` with each message.
    fn apply_pooled(
        self,
        node: &mut GossipNode<TestEvent>,
        now: Time,
        pool: Option<&dyn EventPool<TestEvent>>,
    ) -> Vec<EventHandle> {
        let serve = |ids: Vec<u64>, corrupt: bool| Message::Serve {
            events: ids
                .into_iter()
                .map(|i| TestEvent::new(i, 16))
                .map(|e| if corrupt { e.corrupted() } else { e })
                .collect(),
        };
        let mut message =
            |from: u32, msg| node.on_message_pooled(now, NodeId::new(from), msg, pool);
        match self {
            Input::Propose { from, ids } => message(from, Message::Propose { ids: ids.into() }),
            Input::Request { from, ids } => message(from, Message::Request { ids: ids.into() }),
            Input::Serve { from, ids } => message(from, serve(ids, false)),
            Input::CorruptServe { from, ids } => message(from, serve(ids, true)),
            Input::FeedMe { from } => message(from, Message::FeedMe),
            Input::Round => node.on_round(now),
            Input::Crash => {
                let handed_back = node.crash();
                let (id, config) = (node.id(), node.config().clone());
                *node = GossipNode::new(id, config, node.membership().to_vec(), 1);
                return handed_back;
            }
        }
        Vec::new()
    }

    /// The same input with every id passed through `f`.
    fn map_ids(self, f: impl Fn(u64) -> u64) -> Input {
        let map = |ids: Vec<u64>| ids.into_iter().map(&f).collect();
        match self {
            Input::Propose { from, ids } => Input::Propose { from, ids: map(ids) },
            Input::Request { from, ids } => Input::Request { from, ids: map(ids) },
            Input::Serve { from, ids } => Input::Serve { from, ids: map(ids) },
            Input::CorruptServe { from, ids } => Input::CorruptServe { from, ids: map(ids) },
            other => other,
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
        Just(Input::Crash),
    ]
}

/// Inputs that fight over a few ids: proposals from many peers (an id
/// repeated within one proposal included), corrupt serves, few clean ones.
fn contested_input_strategy() -> impl Strategy<Value = Input> {
    prop_oneof![
        (0u32..10, vec(0u64..16, 1..8)).prop_map(|(from, ids)| Input::Propose { from, ids }),
        (0u32..10, vec(0u64..16, 1..8)).prop_map(|(from, ids)| Input::Propose { from, ids }),
        (0u32..10, vec(0u64..16, 1..4)).prop_map(|(from, ids)| Input::CorruptServe { from, ids }),
        (0u32..10, vec(0u64..16, 1..3)).prop_map(|(from, ids)| Input::Serve { from, ids }),
        Just(Input::Round),
    ]
}

/// One operation on a map from ids to counters.
#[derive(Debug, Clone)]
enum MapOp {
    /// `get_or_insert_with`, then add one to the value.
    Bump(u64, u32),
    /// `drop_expired_rows` with values below this expired.
    DropRowsBelow(u32),
}

/// A map key (256 ids to a window): a few dense windows, windows in runs
/// with gaps between them, now and then any key. A run's rows sit at their
/// distance from the first row, where `DenseMap`'s row probe finds them;
/// a window below the first row or in a gap is what it must miss, around
/// 2³² and up to the very last one (`u64::MAX >> 8`) what it must reach.
fn map_key() -> impl Strategy<Value = u64> {
    let last = u64::MAX >> 8;
    let window = prop_oneof![0u64..4, 6u64..9, (1u64 << 32) - 2..(1 << 32) + 2, last - 1..last + 1];
    let runs = (window, 0u64..256).prop_map(|(window, offset)| window << 8 | offset);
    prop_oneof![0u64..700, runs, any::<u64>()]
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (map_key(), 0u32..100).prop_map(|(k, v)| MapOp::Bump(k, v)),
        (0u32..100).prop_map(MapOp::DropRowsBelow),
    ]
}

/// A counter that a narrow row keeps as one byte past its row's base. A
/// multiple of 5 has no narrow form (it stands for an id in flight), and
/// one more than 255 past the base does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp(u32);

impl Narrow for Stamp {
    type Word = u8;

    fn base(self) -> Option<Time> {
        (!self.0.is_multiple_of(5)).then_some(Time::from_micros(u64::from(self.0)))
    }

    fn narrow(self, base: Time) -> Option<u8> {
        let offset = self.base()?.as_micros().checked_sub(base.as_micros())?;
        u8::try_from(offset).ok()
    }

    fn widen(word: u8, base: Time) -> Self {
        Stamp(base.as_micros() as u32 + u32::from(word))
    }
}

/// One operation on a map whose rows narrow.
#[derive(Debug, Clone)]
enum NarrowOp {
    Insert(u64, u32),
    /// `get_or_insert_with`, then write back one more.
    Bump(u64, u32),
    /// Read every row in this window or a later one, passing over the
    /// narrow rows whose values all date from this time or later.
    RowsFrom(u64, u32),
    /// `drop_expired_rows` with values below this expired.
    DropRowsBelow(u32),
    /// `narrow_rows`.
    Narrow,
}

fn narrow_op_strategy() -> impl Strategy<Value = NarrowOp> {
    // Values close enough that most rows fit a byte past their base.
    prop_oneof![
        (map_key(), 0u32..300).prop_map(|(k, v)| NarrowOp::Insert(k, v)),
        (map_key(), 0u32..300).prop_map(|(k, v)| NarrowOp::Bump(k, v)),
        (0u64..10, 0u32..300).prop_map(|(w, t)| NarrowOp::RowsFrom(w, t)),
        (0u32..300).prop_map(NarrowOp::DropRowsBelow),
        Just(NarrowOp::Narrow),
        Just(NarrowOp::Narrow),
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
                MapOp::Bump(k, v) => {
                    let (d, m) = (dense.get_or_insert_with(k, || v), model.entry(k).or_insert(v));
                    prop_assert_eq!(*d, *m);
                    *d += 1;
                    *m += 1;
                    touched.push(k);
                }
                MapOp::DropRowsBelow(t) => {
                    // The model's oldest windows, while all of theirs is below t.
                    let windows: std::collections::BTreeSet<u64> =
                        model.keys().map(|k| k.dense_key().0).collect();
                    let expired = |w: u64| {
                        model.iter().filter(|(k, _)| k.dense_key().0 == w).all(|(_, v)| *v < t)
                    };
                    let last = windows.into_iter().take_while(|&w| expired(w)).last();
                    prop_assert_eq!(dense.drop_expired_rows(|v| *v < t), last.map(|w| w + 1));
                    if let Some(last) = last {
                        model.retain(|k, _| k.dense_key().0 > last);
                    }
                    prop_assert_eq!(dense.windows(), model.keys().map(|k| k.dense_key().0).collect::<std::collections::BTreeSet<_>>().len());
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
            // The neighbouring slot is only filled if the model says so,
            // nor is the same slot four windows off (often in a gap).
            for other in [k ^ 1, k ^ 4 << 8] {
                prop_assert_eq!(dense.get(&other), model.get(&other), "{} beside {}", other, k);
            }
        }
    }

    /// The twin of `dense_map_is_a_hash_map` for a map whose rows narrow:
    /// narrowing and the widening a write can force change how a row is
    /// stored, never what it reads. After every operation the map holds
    /// what a `HashMap` holds, and exactly the rows `Stamp` lets narrow are
    /// narrow: after `narrow_rows`, every such row but the newest; at any
    /// time, none that does not.
    #[test]
    fn narrow_map_is_a_hash_map(ops in vec(narrow_op_strategy(), 1..120)) {
        use std::collections::{BTreeMap, BTreeSet, HashMap};
        let mut dense: DenseMap<u64, Stamp, NarrowRow<Stamp>> = DenseMap::new();
        let mut model: HashMap<u64, Stamp> = HashMap::new();
        let mut touched = Vec::new();
        for op in ops {
            match op {
                NarrowOp::Insert(k, v) => {
                    prop_assert_eq!(dense.insert(k, Stamp(v)), model.insert(k, Stamp(v)));
                    touched.push(k);
                }
                NarrowOp::Bump(k, v) => {
                    let (d, m) = (dense.get_or_insert_with(k, || Stamp(v)), model.entry(k).or_insert(Stamp(v)));
                    prop_assert_eq!(d, *m);
                    m.0 += 1;
                    dense.insert(k, *m);
                    touched.push(k);
                }
                NarrowOp::RowsFrom(window, since) => {
                    let since = Time::from_micros(u64::from(since));
                    let (mut seen, mut passed) = (Vec::new(), BTreeSet::new());
                    for (w, values) in dense.rows_from(window, since) {
                        match values {
                            Some(values) => seen.extend(values.map(|v| (w, v))),
                            None => prop_assert!(passed.insert(w), "window {} visited twice", w),
                        }
                    }
                    prop_assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "windows out of order");
                    seen.sort_unstable();
                    let mut expected: Vec<(u64, Stamp)> = model
                        .iter()
                        .map(|(k, &v)| (k.dense_key().0, v))
                        .filter(|&(w, _)| w >= window && !passed.contains(&w))
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(seen, expected);
                    // Passed over: exactly the narrow rows with no value
                    // before `since`.
                    let settled = |w: &u64| {
                        model
                            .iter()
                            .filter(|(k, _)| k.dense_key().0 == *w)
                            .all(|(_, v)| v.base().is_some_and(|base| base >= since))
                    };
                    let narrow: BTreeSet<u64> = dense.narrow_windows().filter(|&w| w >= window).collect();
                    prop_assert_eq!(passed, narrow.into_iter().filter(settled).collect::<BTreeSet<_>>());
                }
                NarrowOp::DropRowsBelow(t) => {
                    let windows: BTreeSet<u64> = model.keys().map(|k| k.dense_key().0).collect();
                    let expired = |w: u64| {
                        model.iter().filter(|(k, _)| k.dense_key().0 == w).all(|(_, v)| v.0 < t)
                    };
                    let last = windows.into_iter().take_while(|&w| expired(w)).last();
                    prop_assert_eq!(dense.drop_expired_rows(|v| v.0 < t), last.map(|w| w + 1));
                    if let Some(last) = last {
                        model.retain(|k, _| k.dense_key().0 > last);
                    }
                }
                NarrowOp::Narrow => dense.narrow_rows(),
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
            let mut rows: BTreeMap<u64, Vec<Stamp>> = BTreeMap::new();
            for (k, &v) in &model {
                rows.entry(k.dense_key().0).or_default().push(v);
            }
            prop_assert_eq!(dense.windows(), rows.len());
            // A row fits if every value has a narrow form within a byte of
            // the least one.
            let fits = |values: &Vec<Stamp>| {
                let (min, max) = (values.iter().min().unwrap().0, values.iter().max().unwrap().0);
                values.iter().all(|v| v.base().is_some()) && max - min <= 255
            };
            let narrow: BTreeSet<u64> = dense.narrow_windows().collect();
            let newest = rows.keys().next_back().copied();
            for (&w, values) in &rows {
                if narrow.contains(&w) {
                    prop_assert!(fits(values), "window {} is narrow but holds {:?}", w, values);
                } else if matches!(op, NarrowOp::Narrow) && Some(w) != newest {
                    prop_assert!(!fits(values), "window {} fits but stayed wide", w);
                }
            }
            prop_assert!(newest.is_none_or(|w| !narrow.contains(&w)), "the newest row narrowed");
            for &k in &touched {
                prop_assert_eq!(dense.get(&k), model.get(&k).copied(), "key {}", k);
                for other in [k ^ 1, k ^ 4 << 8] {
                    prop_assert_eq!(dense.get(&other), model.get(&other).copied(), "{} beside {}", other, k);
                }
            }
        }
        // Rows are allocated to the longest row seen, narrow or wide.
        let windows: std::collections::HashSet<u64> =
            touched.iter().map(|k| k.dense_key().0).collect();
        let longest = touched.iter().map(|k| k.dense_key().1 as usize + 1).max().unwrap_or(0);
        prop_assert!(dense.capacity() <= windows.len() * longest);
    }

    /// Under any interleaving of inputs: no panics, every event delivered
    /// at most once per incarnation, and every outgoing message is
    /// non-empty.
    #[test]
    fn node_invariants_under_arbitrary_inputs(inputs in vec(input_strategy(), 1..200)) {
        let mut node: GossipNode<TestEvent> =
            GossipNode::new(NodeId::new(0), GossipConfig::new(3), members(10), 1);
        let mut delivered = std::collections::HashSet::new();
        let mut now = Time::ZERO;
        let mut timers = Vec::new();
        for input in inputs {
            now += Duration::from_millis(10);
            if matches!(input, Input::Crash) {
                // The next incarnation starts from nothing, its timers its
                // own.
                prop_assert_eq!(delivered.len() as u64, node.stats().events_delivered);
                input.apply(&mut node, now);
                prop_assert_eq!(node.stats().events_delivered, 0);
                delivered.clear();
                timers.clear();
                continue;
            }
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
                let handed_back = input.clone().apply(&mut host.node, now);
                if matches!(input, Input::Crash) {
                    // Everything still pending is the dead incarnation's,
                    // and a cancelling host gets every deadline back.
                    for handle in handed_back {
                        prop_assert!(host.queue.cancel(handle), "a handed-back deadline was not pending");
                    }
                    if host.cancels {
                        prop_assert!(host.queue.is_empty(), "the crash kept a deadline");
                    }
                    // Its deadlines die with its epoch, as on every host.
                    host.queue = EventQueue::new();
                }
                out.extend(host.outputs());
                seen.push(out);
            }
            prop_assert_eq!(&seen[0], &seen[1]);
            prop_assert_eq!(hosts[0].node.stats(), hosts[1].node.stats());
            prop_assert_eq!(hosts[0].node.current_rto(), hosts[1].node.current_rto());
        }
        prop_assert!(fired[0] <= fired[1], "the cancelling host fired more timers");
    }

    /// The record floor across many retention horizons: the stream's head
    /// window moves on every 250 ms, inputs name ids up to four windows
    /// behind it, rounds prune every 100 ms under a 500 ms retention, and
    /// retransmission timers fire when due. An id below the floor is never
    /// requested (first or again) and never recorded again, no id is
    /// delivered twice in one incarnation, and no proposal of an expired id
    /// counts against its proposer.
    #[test]
    fn expired_ids_are_never_requested_nor_delivered_twice_nor_held_against_anyone(
        inputs in vec(input_strategy(), 60..200)
    ) {
        let config = GossipConfig::new(3)
            .with_max_requests(4)
            .with_retention(Duration::from_millis(500))
            .with_retransmit_timeout(Duration::from_millis(40))
            .with_rto_bounds(Duration::from_millis(20), Duration::from_millis(200));
        /// Drains one step's outputs, checking each against the floor as
        /// it stands after the step (only a round moves it, and a round
        /// requests nothing).
        fn settle(
            node: &mut GossipNode<TestEvent>,
            queue: &mut EventQueue<TimerToken>,
            delivered: &mut std::collections::HashSet<u64>,
        ) {
            while let Some(out) = node.poll_output() {
                match out {
                    Output::Send { msg: Message::Request { ids }, .. } => {
                        for id in ids.iter() {
                            prop_assert!(!node.is_expired(id), "expired id {} requested", id);
                        }
                    }
                    Output::Deliver { event } => {
                        prop_assert!(delivered.insert(event.id()), "{} delivered twice", event.id());
                    }
                    Output::ScheduleTimer { token, at } => {
                        let handle = queue.push(at, token);
                        node.attach_timer_handle(token, handle);
                    }
                    Output::Send { .. } => {}
                }
            }
            while let Some(handle) = node.poll_cancelled() {
                queue.cancel(handle);
            }
        }
        let mut node = GossipNode::new(NodeId::new(0), config, members(10), 1);
        let mut queue: EventQueue<TimerToken> = EventQueue::new();
        let mut delivered = std::collections::HashSet::new();
        let mut named = std::collections::BTreeSet::new();
        let (mut now, mut next_round) = (Time::ZERO, Time::ZERO);
        for input in inputs {
            now += Duration::from_millis(50);
            while let Some((_, token)) = queue.pop_before(now) {
                node.on_timer(now, token);
                settle(&mut node, &mut queue, &mut delivered);
            }
            if next_round <= now {
                node.on_round(now);
                settle(&mut node, &mut queue, &mut delivered);
                next_round = now + Duration::from_millis(100);
            }
            // Raw ids 0..50 become offsets 0..10 of the head window and the
            // four before it. A crash would reset the floor: not here.
            let head = now.as_millis() / 250;
            let input = match input {
                Input::Crash => Input::Round,
                input => input.map_ids(|raw| (head.saturating_sub(raw / 10) << 8) | (raw % 10)),
            };
            let proposal = match &input {
                Input::Propose { from, ids } => {
                    // A demoted peer's proposals are dropped unread.
                    let from = NodeId::new(*from);
                    let expired = ids.iter().filter(|id| node.is_expired(id)).count() as u64;
                    let heard = !node.demoted_peers().contains(&from);
                    Some((from, expired * u64::from(heard), node.misbehaviour_score(from), *node.stats()))
                }
                _ => None,
            };
            if let Input::Propose { ids, .. } | Input::Serve { ids, .. } = &input {
                named.extend(ids.iter().copied());
            }
            input.apply(&mut node, now);
            if let Some((from, expired, score, before)) = proposal {
                prop_assert_eq!(node.misbehaviour_score(from), score, "an expired id scored {}", from);
                let duplicates = node.stats().duplicate_ids_proposed - before.duplicate_ids_proposed;
                prop_assert!(duplicates >= expired, "{} expired ids, {} duplicates", expired, duplicates);
            }
            settle(&mut node, &mut queue, &mut delivered);
            for id in named.iter().filter(|id| node.is_expired(id)) {
                prop_assert_eq!(node.request_info(id), None, "expired id {} is recorded", id);
            }
        }
        // Six or more horizons passed: the floor did move.
        prop_assert!(named.iter().any(|id| node.is_expired(id)), "no id ever expired");
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

/// FNV-1a over everything a node hands its host.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn fold(&mut self, value: &impl std::fmt::Debug) {
        self.write(format!("{value:?};").as_bytes());
    }
}

/// A cancelling host that folds what its node does into a digest: every
/// output, every deadline handed back and, after each step, the request
/// bookkeeping of every id the step named.
///
/// A pooling host also keeps a [`PacketPool`] and lends it with every
/// message. It pools its node's intact deliveries, and — standing in for
/// the other nodes a real host runs — the clean events of every serve from
/// an even-numbered peer just before its node sees them, so the node
/// leaves those to the pool; the rest it keeps as the host's first
/// deliverer. It offers the pool a prune at every step; the pool prunes
/// once a gossip period.
struct DigestHost {
    node: GossipNode<TestEvent>,
    queue: EventQueue<TimerToken>,
    now: Time,
    digest: Fnv,
    pool: Option<PacketPool<TestEvent>>,
    /// The most stored payloads the node has left to the pool at once.
    left_to_pool: usize,
}

impl DigestHost {
    fn new(config: GossipConfig, pooled: bool) -> Self {
        DigestHost {
            node: GossipNode::new(NodeId::new(0), config, members(10), 1),
            queue: EventQueue::new(),
            now: Time::ZERO,
            digest: Fnv(0xcbf2_9ce4_8422_2325),
            pool: pooled.then(PacketPool::new),
            left_to_pool: 0,
        }
    }

    /// Folds the step's outputs and cancellations, then `named`'s state.
    fn settle(&mut self, named: &[u64]) {
        while let Some(out) = self.node.poll_output() {
            match &out {
                Output::ScheduleTimer { token, at } => {
                    let handle = self.queue.push(*at, *token);
                    self.node.attach_timer_handle(*token, handle);
                }
                Output::Deliver { event } if event.verify() => {
                    if let Some(pool) = &mut self.pool {
                        pool.insert(*event, self.now);
                    }
                }
                _ => {}
            }
            self.digest.fold(&out);
        }
        while let Some(handle) = self.node.poll_cancelled() {
            assert!(self.queue.cancel(handle), "a cancelled deadline was not pending");
            self.digest.fold(&handle);
        }
        for id in named {
            self.digest.fold(&self.node.request_info(id));
        }
        let left = self.node.stored_events() - self.node.own_copies();
        self.left_to_pool = self.left_to_pool.max(left);
    }

    /// Advances the clock by `step`, letting the pool prune and firing
    /// every timer that comes due.
    fn advance(&mut self, step: Duration) {
        self.now += step;
        if let Some(pool) = &mut self.pool {
            pool.prune(self.node.config(), self.now);
        }
        while let Some((_, token)) = self.queue.pop_before(self.now) {
            self.node.on_timer(self.now, token);
            self.settle(&[]);
        }
    }

    fn apply(&mut self, input: Input) {
        let named = match &input {
            Input::Propose { ids, .. }
            | Input::Request { ids, .. }
            | Input::Serve { ids, .. }
            | Input::CorruptServe { ids, .. } => ids.clone(),
            _ => Vec::new(),
        };
        let crash = matches!(input, Input::Crash);
        if let (Input::Serve { from, ids }, Some(pool)) = (&input, &mut self.pool) {
            if from % 2 == 0 {
                for &id in ids {
                    pool.insert(TestEvent::new(id, 16), self.now);
                }
            }
        }
        let pool = self.pool.as_ref().map(|pool| pool as &dyn EventPool<TestEvent>);
        for handle in input.apply_pooled(&mut self.node, self.now, pool) {
            assert!(self.queue.cancel(handle), "a handed-back deadline was not pending");
            self.digest.fold(&handle);
        }
        if crash {
            self.queue = EventQueue::new();
        }
        self.settle(&named);
    }
}

/// The protocol as its hosts see it, pinned: seeded input sequences drive
/// one node each and everything the node hands back is folded into one
/// digest. A change to how the node keeps its bookkeeping must leave this
/// value alone; the scenario digests run too few of these paths to tell.
///
/// The sequences cover K ∈ {1, 2, 4}; ids repeated within one proposal
/// and corrupt serves from a third peer (both strategies draw them, the
/// contested one often); a record floor that moves (short retention, ids
/// in a sliding head window); a crash at the end of each sequence; and an
/// in-process proposal of more than 65 535 ids, whose late ids get
/// alternates, corrupt serves and a retry.
#[test]
fn a_node_output_digest_is_pinned() {
    let (digest, left_to_pool) = node_output_digest(false);
    assert_eq!(digest, PINNED, "the node's outputs moved: {digest:#018x}");
    assert_eq!(left_to_pool, 0, "no pool, so every stored payload is the node's own");
}

/// The same sequences from a host that lends a pool: a node that leaves
/// payloads to the pool serves exactly what it would have served from its
/// own copies, and never finds a retained id missing from the pool.
#[test]
fn a_pooled_node_output_digest_is_pinned() {
    let (digest, left_to_pool) = node_output_digest(true);
    assert_eq!(digest, PINNED, "a pooled node's outputs moved: {digest:#018x}");
    // Measured: 32 of the at most 50 ids a sequence names, at once.
    assert!(left_to_pool >= 20, "the node left only {left_to_pool} payloads to the pool");
}

/// The pinned sequences never ask for an id near its retention horizon;
/// this one asks for nothing else. Every 50 ms a peer serves one fresh id
/// (a window of its own) that another node of the host delivered first,
/// and another asks for every id served in the last 1.5 s, under a 1 s
/// retention. Rounds and pool prunes come every 100 ms, the configured
/// gossip period, the rounds halfway between the prunes as a staggered
/// node's fall: the pool's one round of slack is all that covers a node
/// whose last prune is a round old. A pooled and a pool-less host must
/// agree step for step — and a node must find every retained id in the
/// pool.
#[test]
fn a_pooled_node_serves_up_to_the_retention_horizon_as_an_unpooled_one_does() {
    let config = GossipConfig::new(3)
        .with_gossip_period(Duration::from_millis(100))
        .with_retention(Duration::from_secs(1));
    let mut hosts = [false, true].map(|pooled| DigestHost::new(config.clone(), pooled));
    for step in 0..100u64 {
        let asked: Vec<u64> = (step.saturating_sub(30)..step).map(|s| s << 8).collect();
        for host in &mut hosts {
            host.advance(Duration::from_millis(50));
            if step % 2 == 1 {
                host.apply(Input::Round);
            }
            host.apply(Input::Serve { from: 2, ids: vec![step << 8] });
            host.apply(Input::Request { from: 3, ids: asked.clone() });
        }
        let [unpooled, pooled] = &hosts;
        assert_eq!(pooled.digest.0, unpooled.digest.0, "step {step}");
    }
    let [unpooled, pooled] = &hosts;
    assert_eq!(pooled.node.stats(), unpooled.node.stats());
    assert!(pooled.left_to_pool >= 20, "only {} payloads left to the pool", pooled.left_to_pool);
    let stats = pooled.node.stats();
    assert!(stats.unservable_ids > 0, "no request reached past the horizon");
    assert!(stats.serves_sent > 1000, "{} serves", stats.serves_sent);
}

/// The digest of [`a_node_output_digest_is_pinned`], pool-less or pooled.
const PINNED: u64 = 0x3e49_5551_421e_802a;

/// Runs the pinned sequences; returns their digest and the most stored
/// payloads a node left to its host's pool at once.
fn node_output_digest(pooled: bool) -> (u64, usize) {
    let mut left_to_pool = 0;
    let mut rng = proptest::test_runner::TestRng::deterministic("a_node_output_digest_is_pinned");
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let strategies: [Box<dyn Strategy<Value = Input>>; 2] =
        [Box::new(input_strategy()), Box::new(contested_input_strategy())];
    for k in [1, 2, 4] {
        for (strategy, sliding) in strategies.iter().flat_map(|s| [(s, false), (s, true)]) {
            for _ in 0..6 {
                let config = GossipConfig::new(3)
                    .with_max_requests(k)
                    .with_misbehaviour_threshold(6)
                    .with_retention(Duration::from_millis(if sliding { 1_500 } else { 60_000 }))
                    .with_retransmit_timeout(Duration::from_millis(600))
                    .with_rto_bounds(Duration::from_millis(300), Duration::from_secs(2));
                let mut host = DigestHost::new(config, pooled);
                let mut next_round = Time::ZERO;
                for input in vec(strategy, 100..200).generate(&mut rng) {
                    host.advance(Duration::from_millis(50));
                    if next_round <= host.now {
                        host.apply(Input::Round);
                        next_round = host.now + Duration::from_millis(100);
                    }
                    // Raw id r becomes offset r % 10 of the window r / 10
                    // behind the head, as the floor proptest does.
                    let head = host.now.as_millis() / 250;
                    let input = match (input, sliding) {
                        // One crash per sequence, at its end, is enough.
                        (Input::Crash, _) => Input::Round,
                        (input, true) => {
                            input.map_ids(|raw| (head.saturating_sub(raw / 10) << 8) | (raw % 10))
                        }
                        (input, false) => input,
                    };
                    host.apply(input);
                }
                host.advance(Duration::from_secs(5));
                digest.fold(&(host.digest.0, host.node.stats()));
                left_to_pool = left_to_pool.max(host.left_to_pool);
                host.apply(Input::Crash);
                digest.fold(&host.digest.0);
            }
        }
    }

    // One proposal of 70 000 ids (id = position), so positions run past
    // 0xFFFF. Every timer fires 40 ms after it is armed.
    let config = GossipConfig::new(3)
        .with_max_requests(4)
        .with_retransmit_timeout(Duration::from_millis(40))
        .with_rto_bounds(Duration::from_millis(40), Duration::from_millis(40));
    let mut host = DigestHost::new(config, pooled);
    let late = [5, 65_533, 65_534, 65_535, 65_536, 65_537, 65_541, 69_998, 69_999];
    let step = |host: &mut DigestHost, input: Input| {
        host.advance(Duration::from_millis(5));
        host.apply(input);
    };
    step(&mut host, Input::Propose { from: 1, ids: (0..70_000).collect() });
    // Peer 2 is every late id's alternate; a third peer's corruption of
    // some sends them there, peer 2's own of two sends them nowhere.
    step(&mut host, Input::Propose { from: 2, ids: late.to_vec() });
    step(&mut host, Input::CorruptServe { from: 3, ids: late[..5].to_vec() });
    step(&mut host, Input::CorruptServe { from: 2, ids: vec![65_536, 65_537] });
    // All but the multiples of 7 and the last ten arrive.
    step(&mut host, Input::Serve { from: 1, ids: (0..69_990).filter(|id| id % 7 != 0).collect() });
    // The proposal's timer fires once: the missing ids are re-requested
    // and re-armed at new positions, their alternates with them.
    host.advance(Duration::from_millis(45));
    step(&mut host, Input::Propose { from: 4, ids: vec![7, 65_534, 65_548, 69_993, 69_999] });
    step(
        &mut host,
        Input::CorruptServe { from: 5, ids: vec![7, 65_534, 65_541, 65_548, 69_998, 69_999] },
    );
    host.advance(Duration::from_secs(5));
    let sample: Vec<u64> = (0..70_000).step_by(997).chain(late).collect();
    host.settle(&sample);
    digest.fold(&(host.digest.0, host.node.stats()));
    (digest.0, left_to_pool.max(host.left_to_pool))
}
