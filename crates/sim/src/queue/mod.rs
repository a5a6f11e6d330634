//! Timestamped event queues.
//!
//! [`CalendarQueue`] is a bucketed ("calendar") queue with O(1) push and
//! pop on clustered workloads; its buckets are chains threaded through the
//! event slab, so it holds its pending events and one word per bucket.
//! [`EventQueue`] is an alias for it, and it is
//! what the simulation engine runs on. The slab-backed, indexed 4-ary
//! min-heap it replaced (`HeapQueue`) is kept in test scope as the O(log n)
//! reference: the unit and property tests model-check the calendar queue
//! against it on arbitrary operation interleavings.
//!
//! Both provide the two things a deterministic simulator needs beyond a
//! plain priority queue:
//!
//! 1. **a stable total order** — events at equal times pop in insertion
//!    order, so the simulation schedule does not depend on queue internals;
//! 2. **true cancellation** — scheduling returns an [`EventHandle`] (a
//!    slot + generation pair) that removes the entry immediately. There are
//!    no tombstones: cancelled entries never linger, `len()` is always
//!    exact, and stale handles (already popped or already cancelled) are
//!    rejected by the generation check. Both protocol hosts (the
//!    simulation driver and the reactor's shard loop) depend on it: a
//!    node's retransmission deadline is cancelled the moment the last id
//!    it guards is delivered (`GossipNode::poll_cancelled` in
//!    `gossip-core` hands the handle back), so the queue holds the
//!    requests that are outstanding, not every request of the last
//!    timeout — at n = 4000 that is 82 k resident events instead of 321 k.
//!
//! The shared contract is the [`EventSchedule`] trait, which generic code
//! (the shard loop's timer queue, property tests) can use to drive either
//! implementation.

use gossip_types::Time;

mod calendar;
#[cfg(test)]
mod heap;

pub use calendar::CalendarQueue;
#[cfg(test)]
use heap::HeapQueue;

/// The default event queue of the simulation engine: the [`CalendarQueue`].
pub type EventQueue<E> = CalendarQueue<E>;

/// A handle to a scheduled event, usable to cancel it.
///
/// A handle names a slot plus the generation the slot had when the event
/// was pushed. Slots are recycled, generations only grow: a handle whose
/// event already popped (or was already cancelled) fails the generation
/// check and is rejected, so a handle never aliases a different event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

/// The common contract of the event queue implementations.
///
/// All operations preserve the exact `(time, insertion sequence)` total
/// order; see the module docs for the determinism requirements.
pub trait EventSchedule<E> {
    /// Schedules `event` at time `at` and returns a cancellation handle.
    fn push(&mut self, at: Time, event: E) -> EventHandle;
    /// Cancels a previously scheduled event; returns whether a pending
    /// event was actually removed (stale handles are a no-op).
    fn cancel(&mut self, handle: EventHandle) -> bool;
    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<(Time, E)>;
    /// Removes and returns the earliest pending event if it is due at or
    /// before `horizon`; leaves the queue untouched otherwise.
    fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)>;
    /// Returns the timestamp of the earliest pending event without
    /// removing it.
    fn peek_time(&self) -> Option<Time>;
    /// Returns the exact number of pending events.
    fn len(&self) -> usize;
    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One slab entry: the event payload plus its scheduling key and the
/// back-pointer into the implementation's internal structure.
struct Slot<E> {
    /// Bumped every time the slot is freed; handles carry the generation
    /// they were issued under.
    generation: u32,
    /// Where the owning structure keeps this slot: the next slot of its
    /// bucket's chain for [`CalendarQueue`] (`u32::MAX` at the chain's
    /// end), its heap index for the test-only `HeapQueue`. Only meaningful
    /// while the slot is occupied.
    pos: u32,
    at: Time,
    /// Insertion sequence number: the tie-break making the order total.
    seq: u64,
    event: Option<E>,
}

/// The slab of event payloads shared by both queue implementations: stable
/// `u32` slot indices, free-list recycling, generation-checked handles.
struct Slab<E> {
    slots: Vec<Slot<E>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }

    /// Allocates a slot with the position known up front: fills the whole
    /// slot — including `pos` — and returns its handle in one slot access
    /// (the push fast path).
    fn alloc_with_pos(&mut self, at: Time, seq: u64, event: E, pos: u32) -> EventHandle {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.at = at;
                s.seq = seq;
                s.pos = pos;
                s.event = Some(event);
                EventHandle { slot, generation: s.generation }
            }
            None => {
                // `u32::MAX` ends the calendar's chains, so it is never a
                // slot: the cap is 2³² − 1 pending events (256 GiB of slots).
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot < u32::MAX)
                    .expect("fewer than 2^32 - 1 pending events");
                self.slots.push(Slot { generation: 0, pos, at, seq, event: Some(event) });
                EventHandle { slot, generation: 0 }
            }
        }
    }

    /// Frees a slot (bumping its generation so outstanding handles die) and
    /// returns its timestamp and event — `None` only for a slot that held
    /// none, which no caller releases.
    fn release(&mut self, slot: u32) -> Option<(Time, E)> {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        let event = s.event.take();
        self.free.push(slot);
        event.map(|event| (s.at, event))
    }

    /// Validates a handle against the generation check; returns the slot
    /// index if it still names a live event.
    fn lookup(&self, handle: EventHandle) -> Option<u32> {
        let slot = self.slots.get(handle.slot as usize)?;
        if slot.generation != handle.generation || slot.event.is_none() {
            return None;
        }
        Some(handle.slot)
    }

    #[inline]
    fn at(&self, slot: u32) -> Time {
        self.slots[slot as usize].at
    }

    /// The `(time, insertion seq)` key the queues order slots by.
    #[inline]
    fn key(&self, slot: u32) -> (Time, u64) {
        let s = &self.slots[slot as usize];
        (s.at, s.seq)
    }

    /// Slots ever allocated: the high-water mark of pending events.
    fn high_water(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The time of the event pending in `slot`, if it holds one.
    fn pending_at(&self, slot: u32) -> Option<Time> {
        let s = &self.slots[slot as usize];
        s.event.as_ref().map(|_| s.at)
    }

    #[inline]
    fn pos(&self, slot: u32) -> u32 {
        self.slots[slot as usize].pos
    }

    #[inline]
    fn set_pos(&mut self, slot: u32, pos: u32) {
        self.slots[slot as usize].pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_types::Duration;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Instantiates the shared behavioural suite for one implementation.
    macro_rules! queue_contract_tests {
        ($modname:ident, $queue:ident) => {
            mod $modname {
                use super::*;

                #[test]
                fn pops_in_time_order() {
                    let mut q = $queue::new();
                    q.push(Time::from_secs(3), 'c');
                    q.push(Time::from_secs(1), 'a');
                    q.push(Time::from_secs(2), 'b');
                    let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
                    assert_eq!(order, vec!['a', 'b', 'c']);
                }

                #[test]
                fn equal_times_pop_in_insertion_order() {
                    let mut q = $queue::new();
                    let t = Time::from_secs(1);
                    for i in 0..100 {
                        q.push(t, i);
                    }
                    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
                    assert_eq!(order, (0..100).collect::<Vec<_>>());
                }

                #[test]
                fn cancellation_skips_events() {
                    let mut q = $queue::new();
                    let h1 = q.push(Time::from_secs(1), 1);
                    let h2 = q.push(Time::from_secs(2), 2);
                    q.push(Time::from_secs(3), 3);
                    assert!(q.cancel(h2));
                    assert!(!q.cancel(h2), "double-cancel is a no-op");
                    assert!(q.cancel(h1));
                    assert_eq!(q.pop(), Some((Time::from_secs(3), 3)));
                    assert_eq!(q.pop(), None);
                }

                #[test]
                fn cancel_unknown_handle_is_rejected() {
                    let mut q: $queue<u8> = $queue::new();
                    assert!(!q.cancel(EventHandle { slot: 99, generation: 0 }));
                }

                #[test]
                fn cancel_after_pop_is_rejected_and_len_stays_exact() {
                    // Regression test: with the old tombstone design,
                    // cancelling an already-popped handle planted a tombstone
                    // that was never reaped, so `len()` underflowed once the
                    // queue drained.
                    let mut q = $queue::new();
                    let h = q.push(Time::from_secs(1), 'x');
                    assert_eq!(q.pop(), Some((Time::from_secs(1), 'x')));
                    assert!(!q.cancel(h), "handle of a popped event must be stale");
                    assert_eq!(q.len(), 0);
                    assert!(q.is_empty());
                    // The queue remains fully usable.
                    q.push(Time::from_secs(2), 'y');
                    assert_eq!(q.len(), 1);
                    assert_eq!(q.pop(), Some((Time::from_secs(2), 'y')));
                }

                #[test]
                fn recycled_slot_does_not_honour_old_handles() {
                    let mut q = $queue::new();
                    let h1 = q.push(Time::from_secs(1), 1);
                    assert!(q.cancel(h1));
                    // The slot is recycled for a new event; the old handle
                    // must not be able to cancel it.
                    let h2 = q.push(Time::from_secs(2), 2);
                    assert!(!q.cancel(h1), "stale handle must not cancel the recycled slot");
                    assert_eq!(q.pop(), Some((Time::from_secs(2), 2)));
                    assert!(!q.cancel(h2));
                }

                #[test]
                fn peek_time_reports_earliest() {
                    let mut q = $queue::new();
                    let h = q.push(Time::from_secs(1), 'x');
                    q.push(Time::from_secs(2), 'y');
                    q.cancel(h);
                    assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
                    assert_eq!(q.pop(), Some((Time::from_secs(2), 'y')));
                }

                #[test]
                fn pop_before_respects_the_horizon() {
                    let mut q = $queue::new();
                    q.push(Time::from_secs(1), 'a');
                    q.push(Time::from_secs(2), 'b');
                    q.push(Time::from_secs(3), 'c');
                    assert_eq!(q.pop_before(Time::from_secs(2)), Some((Time::from_secs(1), 'a')));
                    assert_eq!(
                        q.pop_before(Time::from_secs(2)),
                        Some((Time::from_secs(2), 'b')),
                        "inclusive"
                    );
                    assert_eq!(q.pop_before(Time::from_secs(2)), None, "later events stay queued");
                    assert_eq!(q.len(), 1);
                    assert_eq!(q.pop(), Some((Time::from_secs(3), 'c')));
                }

                #[test]
                fn len_accounts_for_cancellations() {
                    let mut q = $queue::new();
                    let h = q.push(Time::from_secs(1), 0);
                    q.push(Time::from_secs(2), 1);
                    assert_eq!(q.len(), 2);
                    q.cancel(h);
                    assert_eq!(q.len(), 1);
                    assert!(!q.is_empty());
                    q.pop();
                    assert!(q.is_empty());
                }

                #[test]
                fn default_is_an_empty_queue() {
                    let q: $queue<u8> = $queue::default();
                    assert!(q.is_empty());
                    assert_eq!(q.peek_time(), None);
                }

                #[test]
                fn interleaved_push_pop_keeps_order() {
                    let mut q = $queue::new();
                    let base = Time::ZERO;
                    q.push(base + Duration::from_millis(10), 10);
                    q.push(base + Duration::from_millis(30), 30);
                    assert_eq!(q.pop().unwrap().1, 10);
                    q.push(base + Duration::from_millis(20), 20);
                    assert_eq!(q.pop().unwrap().1, 20);
                    assert_eq!(q.pop().unwrap().1, 30);
                }

                #[test]
                fn heavy_cancel_churn_keeps_order_exact() {
                    // Cancel from the middle of a large queue repeatedly;
                    // every survivor must still pop in exact (time,
                    // insertion) order.
                    let mut q = $queue::new();
                    let mut handles = Vec::new();
                    for i in 0..500u64 {
                        handles.push((i, q.push(Time::from_micros(i * 37 % 1000), i)));
                    }
                    let mut cancelled = std::collections::HashSet::new();
                    for &(i, h) in handles.iter().step_by(3) {
                        assert!(q.cancel(h));
                        cancelled.insert(i);
                    }
                    assert_eq!(q.len(), 500 - cancelled.len());
                    let mut popped = Vec::new();
                    while let Some((at, i)) = q.pop() {
                        assert!(!cancelled.contains(&i), "cancelled event {i} must not pop");
                        popped.push((at, i));
                    }
                    assert_eq!(popped.len(), 500 - cancelled.len());
                    for w in popped.windows(2) {
                        assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
                    }
                }

                #[test]
                fn far_future_sentinels_pop_last() {
                    // `Time::MAX` is used as an "infinitely far" deadline; the
                    // day arithmetic must not overflow around it.
                    let mut q = $queue::new();
                    q.push(Time::MAX, 'z');
                    q.push(Time::from_secs(1), 'a');
                    q.push(Time::MAX, 'y');
                    assert_eq!(q.pop(), Some((Time::from_secs(1), 'a')));
                    assert_eq!(q.pop_before(Time::from_secs(100)), None);
                    assert_eq!(q.pop(), Some((Time::MAX, 'z')));
                    assert_eq!(
                        q.pop(),
                        Some((Time::MAX, 'y')),
                        "sentinel ties keep insertion order"
                    );
                    assert_eq!(q.pop(), None);
                }
            }
        };
    }

    queue_contract_tests!(calendar_contract, CalendarQueue);
    queue_contract_tests!(heap_contract, HeapQueue);

    proptest! {
        /// Model check: the calendar queue agrees with the reference 4-ary
        /// heap on an arbitrary interleaving of push / pop / pop_before /
        /// cancel — including stale-handle cancels (cancel-after-pop), the
        /// stable tie-break at equal timestamps (the tight 0..8 time range
        /// forces heavy collisions), and the bucket-resize boundaries (the op
        /// count range makes the population repeatedly cross the grow and
        /// shrink thresholds at 32/64/128 live events).
        #[test]
        fn calendar_matches_heap_reference(
            ops in vec((0u8..6, 0u64..50, 0u8..8), 1..400),
        ) {
            let mut cal: CalendarQueue<u64> = CalendarQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            // Payload → handle pairs of both queues, kept in lockstep.
            let mut live: Vec<(u64, EventHandle, EventHandle)> = Vec::new();
            let mut dead: Vec<(EventHandle, EventHandle)> = Vec::new();
            let mut next_payload = 0u64;

            for &(op, arg, t) in &ops {
                match op {
                    // Push (weighted 3/6 so the queues actually grow and cross
                    // the calendar's resize boundaries).
                    0..=2 => {
                        let at = Time::from_micros(u64::from(t));
                        let payload = next_payload;
                        next_payload += 1;
                        let hc = cal.push(at, payload);
                        let hh = heap.push(at, payload);
                        live.push((payload, hc, hh));
                    }
                    // Pop from both; results must agree exactly.
                    3 => {
                        let got_cal = cal.pop();
                        let got_heap = heap.pop();
                        prop_assert_eq!(got_cal, got_heap, "pop diverged");
                        if let Some((_, payload)) = got_cal {
                            let i = live.iter().position(|&(p, _, _)| p == payload)
                                .expect("popped payload must be live");
                            let (_, hc, hh) = live.remove(i);
                            // The popped payload's handles are now stale.
                            dead.push((hc, hh));
                        }
                    }
                    // Horizon-bounded pop.
                    4 => {
                        let horizon = Time::from_micros(u64::from(t));
                        let got_cal = cal.pop_before(horizon);
                        let got_heap = heap.pop_before(horizon);
                        prop_assert_eq!(got_cal, got_heap, "pop_before diverged");
                        if let Some((_, payload)) = got_cal {
                            let i = live.iter().position(|&(p, _, _)| p == payload)
                                .expect("popped payload must be live");
                            let (_, hc, hh) = live.remove(i);
                            dead.push((hc, hh));
                        }
                    }
                    // Cancel: alternately a live handle and a stale one.
                    _ => {
                        if arg % 2 == 0 && !live.is_empty() {
                            let (_, hc, hh) = live.remove(arg as usize % live.len());
                            let rc = cal.cancel(hc);
                            let rh = heap.cancel(hh);
                            prop_assert_eq!(rc, rh, "live cancel diverged");
                            prop_assert!(rc, "live handles must cancel");
                            dead.push((hc, hh));
                        } else if !dead.is_empty() {
                            let (hc, hh) = dead[arg as usize % dead.len()];
                            // Cancel-after-pop / double-cancel: both queues must
                            // reject the stale handle.
                            prop_assert!(!cal.cancel(hc), "stale cancel accepted by calendar");
                            prop_assert!(!heap.cancel(hh), "stale cancel accepted by heap");
                        }
                    }
                }
                prop_assert_eq!(cal.len(), heap.len(), "len diverged");
                prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek_time diverged");
            }

            // Drain both completely: the tails must agree too.
            loop {
                let got_cal = cal.pop();
                let got_heap = heap.pop();
                prop_assert_eq!(got_cal, got_heap, "drain diverged");
                if got_cal.is_none() {
                    break;
                }
            }
        }

        /// Both queue implementations satisfy the trait contract identically
        /// when driven generically.
        #[test]
        fn trait_driven_queues_agree(times in vec(0u64..1_000, 1..150)) {
            fn drain<Q: EventSchedule<usize> + Default>(times: &[u64]) -> Vec<(Time, usize)> {
                let mut q = Q::default();
                for (i, &t) in times.iter().enumerate() {
                    q.push(Time::from_micros(t), i);
                }
                std::iter::from_fn(|| q.pop()).collect()
            }
            let cal = drain::<CalendarQueue<usize>>(&times);
            let heap = drain::<HeapQueue<usize>>(&times);
            prop_assert_eq!(cal, heap);
        }
    }
}
