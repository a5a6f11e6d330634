//! Timestamped event queues.
//!
//! Two interchangeable implementations of the same contract live here:
//!
//! * [`CalendarQueue`] — a bucketed ("calendar") queue with O(1) push and
//!   pop on clustered workloads. This is the default: [`EventQueue`] is an
//!   alias for it, and it is what the simulation engine runs on.
//! * [`HeapQueue`] — the slab-backed, indexed 4-ary min-heap it replaced,
//!   kept as the O(log n) reference implementation. The property tests
//!   model-check the calendar queue against it on arbitrary operation
//!   interleavings.
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
//! (micro-benchmarks, property tests) can use to drive either
//! implementation.

use gossip_types::Time;

mod calendar;
mod heap;

pub use calendar::CalendarQueue;
pub use heap::HeapQueue;

/// The default event queue of the simulation engine.
///
/// Currently the [`CalendarQueue`]; the [`HeapQueue`] remains available as
/// the reference implementation with the identical API.
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
    /// Position of this slot's entry in the owning structure (heap index
    /// for [`HeapQueue`], index within the bucket for [`CalendarQueue`]);
    /// only meaningful while the slot is occupied.
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
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(Slot { generation: 0, pos, at, seq, event: Some(event) });
                EventHandle { slot, generation: 0 }
            }
        }
    }

    /// Frees a slot (bumping its generation so outstanding handles die) and
    /// returns its timestamp and event.
    fn release(&mut self, slot: u32) -> (Time, Option<E>) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        let event = s.event.take();
        let at = s.at;
        self.free.push(slot);
        (at, event)
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

    #[inline]
    fn seq(&self, slot: u32) -> u64 {
        self.slots[slot as usize].seq
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
}
