//! The default implementation: a bucketed calendar queue.
//!
//! A calendar queue ([R. Brown, CACM 1988]) hashes events by time into an
//! array of buckets ("days"), each `width` microseconds wide; the array as a
//! whole spans one "year". Pop walks the calendar day by day from the
//! current position, so on workloads whose events cluster near the clock —
//! gossip traffic clusters tightly around the 200 ms round cadence — both
//! push and pop are O(1): push is one shift and one link, pop scans the
//! handful of events chained in the current day's bucket.
//!
//! A bucket is a singly-linked chain threaded through the event slab: the
//! calendar keeps one `u32` head per bucket, and each pending event's slot
//! holds the next slot of its bucket. The queue therefore holds its pending
//! events and one word per bucket, nothing sized by the busiest day it ever
//! had.
//!
//! Two adaptations keep the structure exact and general:
//!
//! * **Exact total order.** Within a day the minimum is selected by
//!   `(time, insertion seq)`, and a day's events all hash to the same
//!   bucket, so the pop order is identical to the test-only reference
//!   heap's (`HeapQueue`) — the simulation schedule does not change by
//!   swapping implementations.
//! * **Self-tuning size.** When the population outgrows (or undershoots)
//!   the bucket array, the calendar is rebuilt with twice (or half) the
//!   buckets and a day width re-estimated from the gaps between the
//!   earliest pending events, keeping ~O(1) events per day. Sparse or
//!   far-future tails (retransmission timers seconds ahead, `Time::MAX`
//!   sentinels) are handled by a direct-search fallback after one fruitless
//!   lap around the calendar.
//!
//! [R. Brown, CACM 1988]: https://doi.org/10.1145/63039.63045

use std::collections::BinaryHeap;

use gossip_types::Time;

use super::{EventHandle, EventSchedule, Slab};

/// Smallest bucket-array size; shrinks stop here.
const MIN_BUCKETS: usize = 16;
/// Day width (µs, log₂) used before the first resize provides an estimate.
const DEFAULT_WIDTH_LOG2: u32 = 10;
/// How many of the earliest pending events the resize samples to estimate
/// the inter-event gap (and hence the new day width).
const WIDTH_SAMPLE: usize = 32;
/// The end of a chain, and the head of an empty bucket.
const NIL: u32 = u32::MAX;

/// A priority queue of timestamped events with stable ordering and indexed
/// cancellation, organised as a self-resizing calendar (bucket array).
///
/// O(1) push/pop on time-clustered workloads; exact `(time, insertion)`
/// order always. This is the simulator's default [`EventQueue`].
///
/// # Examples
///
/// ```
/// use gossip_sim::CalendarQueue;
/// use gossip_types::Time;
///
/// let mut q = CalendarQueue::new();
/// let h = q.push(Time::from_secs(1), "late");
/// q.push(Time::from_millis(1), "early");
/// q.cancel(h);
/// assert_eq!(q.pop(), Some((Time::from_millis(1), "early")));
/// assert_eq!(q.pop(), None); // "late" was cancelled
/// ```
///
/// [`EventQueue`]: super::EventQueue
pub struct CalendarQueue<E> {
    /// The pending events; an occupied slot's `pos` is the next slot of its
    /// bucket's chain ([`NIL`] at the chain's end).
    slab: Slab<E>,
    /// The first slot of each bucket's chain ([`NIL`] when empty);
    /// `heads.len()` is a power of two.
    heads: Vec<u32>,
    /// `heads.len() - 1`, for masking day numbers into bucket indices.
    mask: u64,
    /// Day width in microseconds; always a power of two so that the
    /// time→day mapping on the push/cancel path is a shift, not a division.
    width: u64,
    /// `width.ilog2()`.
    width_log2: u32,
    /// The day the pop scan is currently standing on. Invariant: no pending
    /// event lies in an earlier day.
    cur_day: u64,
    len: usize,
    next_seq: u64,
    /// Pops since the last rebuild; triggers a periodic width re-tune. The
    /// bucket count only changes at population thresholds, but the *width*
    /// wants to track the current event density: the ramp-up that triggered
    /// the last grow is usually sparser than the steady state that follows.
    pops_since_rebuild: u64,
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.heads.len())
            .field("width_us", &(1u64 << self.width_log2))
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Slab::new(),
            heads: vec![NIL; MIN_BUCKETS],
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1 << DEFAULT_WIDTH_LOG2,
            width_log2: DEFAULT_WIDTH_LOG2,
            cur_day: 0,
            len: 0,
            next_seq: 0,
            pops_since_rebuild: 0,
        }
    }

    /// Schedules `event` at time `at` and returns a cancellation handle.
    pub fn push(&mut self, at: Time, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = at.as_micros() >> self.width_log2;
        // An event earlier than the scan position moves the position back
        // (the engine never schedules into the past, but the queue contract
        // allows it).
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let bucket = (day & self.mask) as usize;
        let handle = self.slab.alloc_with_pos(at, seq, event, self.heads[bucket]);
        self.heads[bucket] = handle.slot;
        self.len += 1;
        if self.len > self.heads.len() * 2 {
            self.rebuild(self.heads.len() * 2);
        }
        handle
    }

    /// Cancels a previously scheduled event, unlinking it from its bucket
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
        // The chain is singly linked, so the walk from its head finds the
        // predecessor; a day's chain is what pop scans in full anyway.
        let bucket = self.bucket(self.slab.at(slot));
        let (mut prev, mut cur) = (NIL, self.heads[bucket]);
        while cur != slot {
            debug_assert_ne!(cur, NIL, "a pending slot is chained in its bucket");
            (prev, cur) = (cur, self.slab.pos(cur));
        }
        self.unlink(bucket, prev, slot);
        self.slab.release(slot);
        self.len -= 1;
        if self.heads.len() > MIN_BUCKETS && self.len < self.heads.len() / 2 {
            self.rebuild(self.heads.len() / 2);
        }
        true
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_min(u64::MAX)
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `horizon`; leaves the queue untouched otherwise.
    ///
    /// This is the driver-loop primitive: one scan per dispatched event
    /// instead of a `peek_time` followed by a `pop`, and the scan stops at
    /// the first day past the horizon.
    pub fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        self.pop_min(horizon.as_micros())
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let lap = self.heads.len() as u64;
        for day in self.cur_day..self.cur_day.saturating_add(lap) {
            let day_end = day.saturating_mul(self.width).checked_add(self.width);
            if let Some((_, slot)) = self.min_in_day((day & self.mask) as usize, day_end) {
                return Some(self.slab.at(slot));
            }
        }
        // Sparse tail: fall back to a direct search.
        self.global_min().map(|(_, _, slot)| self.slab.at(slot))
    }

    /// Returns the exact number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The bucket an event at `at` is chained in.
    #[inline]
    fn bucket(&self, at: Time) -> usize {
        ((at.as_micros() >> self.width_log2) & self.mask) as usize
    }

    /// Pops the overall minimum if its time is ≤ `horizon` (in µs).
    fn pop_min(&mut self, horizon: u64) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        // Walk the calendar one day at a time, at most one full lap.
        for _ in 0..self.heads.len() {
            let day_start = self.cur_day.saturating_mul(self.width);
            if day_start > horizon {
                return None;
            }
            let bucket = (self.cur_day & self.mask) as usize;
            if let Some((prev, slot)) = self.min_in_day(bucket, day_start.checked_add(self.width)) {
                if self.slab.at(slot).as_micros() > horizon {
                    return None;
                }
                return self.take(bucket, prev, slot);
            }
            // Saturating: once the scan stands on the last representable
            // day (Time::MAX sentinels with a 1 µs width), there is no
            // later day to advance to — the lap bound and the direct-search
            // fallback terminate the loop instead.
            self.cur_day = self.cur_day.saturating_add(1);
        }
        // A fruitless lap: every pending event is at least a year ahead of
        // the scan position (sparse queue or far-future sentinels). Find the
        // minimum directly and jump the calendar to it. The search covers
        // every chain, so it comes back empty only if nothing is pending.
        let (bucket, prev, slot) = self.global_min()?;
        let at = self.slab.at(slot).as_micros();
        self.cur_day = at >> self.width_log2;
        if at > horizon {
            return None;
        }
        self.take(bucket, prev, slot)
    }

    /// Unlinks `slot` (whose predecessor in `bucket`'s chain is `prev`),
    /// releases it and returns its event. A chained slot is occupied, so the
    /// release finds its event; the `Option` is the pop's own result rather
    /// than a second check.
    fn take(&mut self, bucket: usize, prev: u32, slot: u32) -> Option<(Time, E)> {
        self.unlink(bucket, prev, slot);
        let popped = self.slab.release(slot);
        self.len -= 1;
        self.pops_since_rebuild += 1;
        if self.heads.len() > MIN_BUCKETS && self.len < self.heads.len() / 2 {
            self.rebuild(self.heads.len() / 2);
        } else if self.pops_since_rebuild > 8 * self.heads.len() as u64 {
            // Periodic re-tune at the same size: refreshes the width
            // estimate once the resize thresholds stop firing. Amortised
            // cost: two slab passes per 8 × buckets pops.
            self.rebuild(self.heads.len());
        }
        popped
    }

    /// The minimum `(at, seq)` slot chained in `bucket` that belongs to the
    /// current day (i.e. lies strictly before `day_end`), with its
    /// predecessor in the chain ([`NIL`] for the head). Events of later
    /// "years" share the chain and are skipped. `day_end` is `None` for the
    /// last calendar day of the time axis, whose true end (2⁶⁴ µs) is
    /// unrepresentable: every event in the chain belongs to it — `Time::MAX`
    /// sentinels included.
    #[inline]
    fn min_in_day(&self, bucket: usize, day_end: Option<u64>) -> Option<(u32, u32)> {
        let mut best: Option<((Time, u64), u32, u32)> = None;
        let (mut prev, mut cur) = (NIL, self.heads[bucket]);
        while cur != NIL {
            let key = self.slab.key(cur);
            if day_end.is_none_or(|end| key.0.as_micros() < end)
                && best.is_none_or(|(best, _, _)| key < best)
            {
                best = Some((key, prev, cur));
            }
            (prev, cur) = (cur, self.slab.pos(cur));
        }
        best.map(|(_, prev, slot)| (prev, slot))
    }

    /// Direct search for the minimum `(at, seq)` slot across all buckets:
    /// its bucket, its predecessor and itself.
    fn global_min(&self) -> Option<(usize, u32, u32)> {
        (0..self.heads.len())
            .filter_map(|b| self.min_in_day(b, None).map(|(prev, slot)| (b, prev, slot)))
            .min_by_key(|&(_, _, slot)| self.slab.key(slot))
    }

    /// Takes `slot` out of `bucket`'s chain, given its predecessor `prev`
    /// ([`NIL`] when `slot` is the head).
    #[inline]
    fn unlink(&mut self, bucket: usize, prev: u32, slot: u32) {
        let next = self.slab.pos(slot);
        if prev == NIL {
            self.heads[bucket] = next;
        } else {
            self.slab.set_pos(prev, next);
        }
    }

    /// Rebuilds the calendar with `new_buckets` buckets and a day width
    /// re-estimated from the current population, re-threading every
    /// pending slot. Both passes walk the slab in index order — sequential
    /// memory, not the chains' scattered links — so a rebuild costs the
    /// slab's high-water mark and allocates nothing sized by it.
    fn rebuild(&mut self, new_buckets: usize) {
        debug_assert!(new_buckets.is_power_of_two());
        self.width_log2 = self.estimate_width_log2();
        self.width = 1 << self.width_log2;
        self.mask = (new_buckets - 1) as u64;
        self.heads.clear();
        self.heads.resize(new_buckets, NIL);
        // With nothing pending the scan position is moot: the next push
        // sets it.
        let mut earliest = u64::MAX;
        for slot in 0..self.slab.high_water() {
            if let Some(at) = self.slab.pending_at(slot) {
                earliest = earliest.min(at.as_micros());
                let bucket = self.bucket(at);
                self.slab.set_pos(slot, self.heads[bucket]);
                self.heads[bucket] = slot;
            }
        }
        self.cur_day = earliest >> self.width_log2;
        self.pops_since_rebuild = 0;
    }

    /// Estimates a day width (as its log₂) from the gaps between the
    /// earliest pending events: twice the mean gap over a sample of the
    /// [`WIDTH_SAMPLE`] soonest events, rounded up to a power of two —
    /// aiming at a couple of near-term events per day.
    ///
    /// The estimate is a pure function of the pending set, so rebuilds are
    /// as deterministic as everything else.
    fn estimate_width_log2(&self) -> u32 {
        let m = WIDTH_SAMPLE.min(self.len);
        if m < 2 {
            return DEFAULT_WIDTH_LOG2;
        }
        // The m soonest `(at, slot)` keys, the latest of them on top. Keys
        // are unique (slots break ties), so the selection is deterministic —
        // and only the times matter for the estimate.
        let mut soonest = BinaryHeap::with_capacity(m);
        for slot in 0..self.slab.high_water() {
            let Some(at) = self.slab.pending_at(slot) else {
                continue;
            };
            let key = (at.as_micros(), slot);
            if soonest.len() < m {
                soonest.push(key);
            } else if let Some(mut latest) = soonest.peek_mut().filter(|latest| key < **latest) {
                *latest = key;
            }
        }
        let max = soonest.peek().map_or(0, |&(at, _)| at);
        let min = soonest.iter().map(|&(at, _)| at).min().unwrap_or(max);
        let span = max - min;
        // Heavily tied sample: 1 µs days (a day never splits a tie anyway —
        // equal times always share a bucket).
        (span / (2 * (m as u64 - 1))).max(1).next_power_of_two().ilog2()
    }
}

impl<E> EventSchedule<E> for CalendarQueue<E> {
    fn push(&mut self, at: Time, event: E) -> EventHandle {
        CalendarQueue::push(self, at, event)
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        CalendarQueue::cancel(self, handle)
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        CalendarQueue::pop(self)
    }

    fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        CalendarQueue::pop_before(self, horizon)
    }

    fn peek_time(&self) -> Option<Time> {
        CalendarQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        CalendarQueue::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::super::HeapQueue;
    use super::*;
    use crate::DetRng;

    /// Crossing the grow threshold (2× buckets) and draining back through
    /// the shrink threshold (½× buckets) must preserve the exact order and
    /// the handle validity across rebuilds.
    #[test]
    fn resize_boundaries_preserve_order_and_handles() {
        let mut q = CalendarQueue::new();
        // Push exactly to the first grow boundary (MIN_BUCKETS * 2 + 1) and
        // far beyond it, with a mix of clustered and spread times.
        let mut handles = Vec::new();
        for i in 0..(MIN_BUCKETS as u64 * 8 + 3) {
            let at = Time::from_micros((i % 7) * 100 + i * 13);
            handles.push(q.push(at, i));
        }
        assert!(q.heads.len() > MIN_BUCKETS, "queue must have grown");
        // Cancel a third mid-resize; the remaining handles must survive the
        // rebuilds.
        for h in handles.iter().step_by(3) {
            assert!(q.cancel(*h));
        }
        let mut last = None;
        let mut popped = 0;
        while let Some((at, i)) = q.pop() {
            if let Some((lat, li)) = last {
                assert!(at > lat || (at == lat && i > li), "order broke across resizes");
            }
            last = Some((at, i));
            popped += 1;
        }
        assert_eq!(popped, handles.len() - handles.len().div_ceil(3));
        assert_eq!(q.heads.len(), MIN_BUCKETS, "drained queue shrinks back");
    }

    /// The width estimator adapts to the event density: clustered events
    /// get microsecond-scale days, sparse events get wide ones.
    #[test]
    fn width_adapts_to_density() {
        let mut dense = CalendarQueue::new();
        for i in 0..200u64 {
            dense.push(Time::from_micros(i), i);
        }
        let mut sparse = CalendarQueue::new();
        for i in 0..200u64 {
            sparse.push(Time::from_secs(i), i);
        }
        assert!(
            dense.width < sparse.width,
            "dense width {} must be below sparse width {}",
            dense.width,
            sparse.width
        );
    }

    /// Regression test: `Time::MAX` sentinels must drain cleanly when the
    /// day width is 1 µs. A heavily tied population tunes the width to
    /// 1 µs on the grow rebuild; the first sentinel pop then jumps
    /// `cur_day` to the last representable day, whose true end (2⁶⁴ µs)
    /// saturated in the old code — the remaining sentinels became
    /// invisible to the day scan and `cur_day += 1` overflowed (debug
    /// panic; silent wrap + O(n) pops in release).
    #[test]
    fn max_sentinels_drain_cleanly_at_one_micro_width() {
        let mut q = CalendarQueue::new();
        // 33 tied events cross the grow threshold; the rebuild samples an
        // all-tied population and picks a 1 µs day width.
        for i in 0..33u64 {
            q.push(Time::from_micros(500), i);
        }
        assert_eq!(q.width, 1, "tied sample must tune the width to 1 µs");
        for i in 0..20u64 {
            q.push(Time::MAX, 100 + i);
        }
        // The ties drain in insertion order, then every sentinel — also in
        // insertion order, with no panic and an exact len throughout.
        for i in 0..33u64 {
            assert_eq!(q.pop(), Some((Time::from_micros(500), i)));
        }
        for i in 0..20u64 {
            assert_eq!(q.pop(), Some((Time::MAX, 100 + i)));
            assert_eq!(q.len(), 19 - i as usize);
        }
        assert_eq!(q.pop(), None);
        // The queue stays usable after standing on the last day.
        q.push(Time::from_secs(1), 999);
        assert_eq!(q.pop(), Some((Time::from_secs(1), 999)));
    }

    /// A far-future outlier must not break the scan (it is skipped each lap
    /// and found by the direct-search fallback once it is the minimum).
    #[test]
    fn sparse_tail_uses_direct_search() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_micros(10), 'a');
        // Far beyond one calendar year (16 buckets × default width).
        q.push(Time::from_secs(3600), 'z');
        assert_eq!(q.pop(), Some((Time::from_micros(10), 'a')));
        assert_eq!(q.peek_time(), Some(Time::from_secs(3600)));
        assert_eq!(q.pop(), Some((Time::from_secs(3600), 'z')));
        assert_eq!(q.pop(), None);
    }

    /// Where in its chain a targeted cancel takes its slot from.
    #[derive(Debug, Clone, Copy)]
    enum ChainPart {
        Head,
        Middle,
        Tail,
    }

    /// The slots of `bucket`'s chain, head first.
    fn chain<E>(q: &CalendarQueue<E>, bucket: usize) -> Vec<u32> {
        let mut slots = Vec::new();
        let mut cur = q.heads[bucket];
        while cur != NIL {
            slots.push(cur);
            cur = q.slab.pos(cur);
        }
        slots
    }

    /// A slot at `part` of some chain long enough to have one, searching
    /// the buckets from `start`.
    fn slot_at<E>(q: &CalendarQueue<E>, start: usize, part: ChainPart) -> Option<u32> {
        (0..q.heads.len()).find_map(|i| {
            let slots = chain(q, (start + i) % q.heads.len());
            match part {
                ChainPart::Head => slots.first().copied(),
                ChainPart::Middle if slots.len() >= 3 => Some(slots[slots.len() / 2]),
                ChainPart::Tail if slots.len() >= 2 => slots.last().copied(),
                _ => None,
            }
        })
    }

    /// The two queues under one model check, with the payload → handles
    /// and calendar slot → payload maps a targeted cancel needs.
    #[derive(Default)]
    struct Twin {
        cal: CalendarQueue<u64>,
        heap: HeapQueue<u64>,
        live: HashMap<u64, (EventHandle, EventHandle)>,
        by_slot: HashMap<u32, u64>,
        stale: Vec<(EventHandle, EventHandle)>,
        next_payload: u64,
    }

    impl Twin {
        fn push(&mut self, at: Time) {
            let payload = self.next_payload;
            self.next_payload += 1;
            let (hc, hh) = (self.cal.push(at, payload), self.heap.push(at, payload));
            self.live.insert(payload, (hc, hh));
            self.by_slot.insert(hc.slot, payload);
        }

        /// Moves `payload`'s handles from the live map to the stale list.
        fn retire(&mut self, payload: u64) -> (EventHandle, EventHandle) {
            let (hc, hh) = self.live.remove(&payload).expect("a live payload");
            self.by_slot.remove(&hc.slot);
            self.stale.push((hc, hh));
            (hc, hh)
        }
    }

    /// Model check at scale, against the reference heap: thousands of
    /// pending events, their population swept up and down across the grow
    /// and shrink thresholds (and held long enough for width re-tunes),
    /// times from µs-tight clusters and exact ties to an hour ahead — many
    /// calendar years — plus `Time::MAX` sentinels and a few events in the
    /// past. Cancels are aimed at chain heads, middles and tails, and stale
    /// handles are cancelled too. Pops, peeks and lengths agree after every
    /// operation, and the drain empties both queues alike.
    #[test]
    fn chains_match_the_heap_reference_at_scale() {
        let mut rng = DetRng::seed_from(40);
        let mut q = Twin::default();
        let mut now = 0u64;
        let mut cancels = [0usize; 3];
        let (mut max_len, mut max_buckets, mut max_years, mut retunes) = (0, 0, 0, 0);
        // Population targets: grow, shrink, regrow, hold (re-tunes), drain.
        let phases = [(3000, 8000), (60, 8000), (6000, 16000), (6000, 100_000), (0, 20000)];
        for (step, target) in
            phases.iter().flat_map(|&(target, steps)| (0..steps).map(move |i| (i, target)))
        {
            let before = (q.cal.heads.len(), q.cal.pops_since_rebuild);
            let r = rng.next_below(10);
            let push = if q.cal.len() < target { r < 6 } else { r < 2 };
            if push {
                let at = match rng.next_below(100) {
                    0..=39 => now + rng.next_below(2_000),
                    40..=54 => now / 50_000 * 50_000 + 50_000, // a shared tick
                    55..=84 => now + rng.next_below(10_000_000),
                    85..=96 => now + rng.next_below(3_600_000_000),
                    97 => now.saturating_sub(rng.next_below(1_000)),
                    _ => u64::MAX,
                };
                q.push(Time::from_micros(at));
            } else if r <= 6 {
                let horizon = Time::from_micros(now + rng.next_below(5_000));
                let (got_cal, got_heap) = if rng.chance(0.5) {
                    (q.cal.pop(), q.heap.pop())
                } else {
                    (q.cal.pop_before(horizon), q.heap.pop_before(horizon))
                };
                assert_eq!(got_cal, got_heap, "pop diverged");
                if let Some((at, payload)) = got_cal {
                    if at != Time::MAX {
                        now = now.max(at.as_micros());
                    }
                    q.retire(payload);
                }
            } else if r <= 8 {
                let part = [ChainPart::Head, ChainPart::Middle, ChainPart::Tail][rng.index(3)];
                if let Some(slot) = slot_at(&q.cal, rng.index(q.cal.heads.len()), part) {
                    let (hc, hh) = q.retire(q.by_slot[&slot]);
                    assert!(q.cal.cancel(hc), "a live {part:?} slot must cancel");
                    assert!(q.heap.cancel(hh));
                    cancels[part as usize] += 1;
                }
            } else if !q.stale.is_empty() {
                let (hc, hh) = q.stale[rng.index(q.stale.len())];
                assert!(!q.cal.cancel(hc) && !q.heap.cancel(hh), "stale cancel accepted");
            }
            assert_eq!(q.cal.len(), q.heap.len(), "len diverged");
            assert_eq!(q.cal.peek_time(), q.heap.peek_time(), "peek_time diverged");
            if (q.cal.heads.len(), q.cal.pops_since_rebuild) == (before.0, 0) && before.1 > 0 {
                retunes += 1;
            }
            max_len = max_len.max(q.cal.len());
            max_buckets = max_buckets.max(q.cal.heads.len());
            if step % 1024 == 0 {
                // How many calendar years the finite pending times span.
                let year = (q.cal.heads.len() as u128) << q.cal.width_log2;
                let latest = (0..q.cal.slab.high_water())
                    .filter_map(|slot| q.cal.slab.pending_at(slot))
                    .filter(|&at| at != Time::MAX)
                    .max()
                    .map_or(0, Time::as_micros);
                max_years = max_years.max(u128::from(latest.saturating_sub(now)) / year);
            }
        }
        while let Some(popped) = q.cal.pop() {
            assert_eq!(Some(popped), q.heap.pop(), "drain diverged");
        }
        assert_eq!(q.heap.pop(), None);
        assert!(max_len >= 6000, "peak population {max_len}");
        assert!(max_buckets >= 2048, "the calendar grew to {max_buckets} buckets only");
        assert!(retunes >= 2, "{retunes} width re-tunes");
        assert_eq!(q.cal.heads.len(), MIN_BUCKETS, "the drained calendar shrinks back");
        assert!(max_years >= 100, "pending times spanned {max_years} calendar years only");
        assert!(cancels.iter().all(|&n| n >= 500), "head/middle/tail cancels: {cancels:?}");
    }
}
