//! The reference implementation (test scope): a slab-backed, indexed 4-ary
//! min-heap.

use gossip_types::Time;

use super::{EventHandle, EventSchedule, Slab};

/// Heap arity. Four children per node: shallower trees (fewer cache misses
/// per sift) at the cost of more comparisons per level — the classic win
/// for pop-heavy workloads.
const ARITY: usize = 4;

/// A priority queue of timestamped events with stable ordering and indexed
/// cancellation, organised as an indexed d-ary min-heap.
///
/// This is the reference implementation the [`CalendarQueue`] is
/// model-checked against: O(log n) push/pop with no workload assumptions.
/// The heap orders `u32` slot indices, so sift operations move 4-byte
/// integers instead of whole events; event payloads stay put in their
/// slots. Test scope only.
///
/// [`CalendarQueue`]: super::CalendarQueue
pub struct HeapQueue<E> {
    /// The d-ary min-heap of slot indices, ordered by `(at, seq)`.
    heap: Vec<u32>,
    slab: Slab<E>,
    next_seq: u64,
}

impl<E> std::fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue { heap: Vec::new(), slab: Slab::new(), next_seq: 0 }
    }

    /// Schedules `event` at time `at` and returns a cancellation handle.
    pub fn push(&mut self, at: Time, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        let handle = self.slab.alloc_with_pos(at, seq, event, pos as u32);
        self.heap.push(handle.slot);
        self.sift_up(pos);
        handle
    }

    /// Cancels a previously scheduled event, removing it from the heap
    /// immediately.
    ///
    /// Returns whether a pending event was actually removed. Handles whose
    /// event already popped — or was already cancelled — fail the
    /// generation check and are a no-op, so `len()` stays exact no matter
    /// how callers misuse stale handles.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slab.lookup(handle) else {
            return false;
        };
        let pos = self.slab.pos(slot) as usize;
        self.remove_heap_entry(pos);
        self.slab.release(slot);
        true
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let slot = *self.heap.first()?;
        self.remove_heap_entry(0);
        self.slab.release(slot)
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `horizon`; leaves the queue untouched otherwise.
    ///
    /// This is the driver-loop primitive: one heap traversal per dispatched
    /// event instead of a `peek_time` followed by a `pop`.
    pub fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        let slot = *self.heap.first()?;
        if self.slab.at(slot) > horizon {
            return None;
        }
        self.remove_heap_entry(0);
        self.slab.release(slot)
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|&slot| self.slab.at(slot))
    }

    /// Returns the exact number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// `(at, seq)` sort key of the slot behind heap position `i`.
    #[inline]
    fn key(&self, i: usize) -> (Time, u64) {
        self.slab.key(self.heap[i])
    }

    /// Writes `slot` into heap position `i`, keeping the back-pointer in
    /// sync.
    #[inline]
    fn place(&mut self, i: usize, slot: u32) {
        self.heap[i] = slot;
        self.slab.set_pos(slot, i as u32);
    }

    /// Removes the heap entry at position `pos` (swap with the last entry,
    /// then restore the heap property for the moved entry).
    fn remove_heap_entry(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos == last {
            self.heap.pop();
            return;
        }
        let moved = self.heap[last];
        self.heap.pop();
        self.place(pos, moved);
        // The moved entry came from the bottom; it can only need to go
        // down, unless the removal point was below its correct position
        // (possible when removing from the middle of the heap).
        if pos > 0 && self.key(pos) < self.key((pos - 1) / ARITY) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let slot = self.heap[i];
        let key = self.slab.key(slot);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < self.key(parent) {
                let p = self.heap[parent];
                self.place(i, p);
                i = parent;
            } else {
                break;
            }
        }
        self.place(i, slot);
    }

    fn sift_down(&mut self, mut i: usize) {
        let slot = self.heap[i];
        let key = self.slab.key(slot);
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min_child = first_child;
            let mut min_key = self.key(first_child);
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                let k = self.key(c);
                if k < min_key {
                    min_key = k;
                    min_child = c;
                }
            }
            if min_key < key {
                let m = self.heap[min_child];
                self.place(i, m);
                i = min_child;
            } else {
                break;
            }
        }
        self.place(i, slot);
    }
}

impl<E> EventSchedule<E> for HeapQueue<E> {
    fn push(&mut self, at: Time, event: E) -> EventHandle {
        HeapQueue::push(self, at, event)
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        HeapQueue::cancel(self, handle)
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        HeapQueue::pop(self)
    }

    fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        HeapQueue::pop_before(self, horizon)
    }

    fn peek_time(&self) -> Option<Time> {
        HeapQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        HeapQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        HeapQueue::is_empty(self)
    }
}
