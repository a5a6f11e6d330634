//! The default implementation: a bucketed calendar queue.
//!
//! A calendar queue ([R. Brown, CACM 1988]) hashes events by time into an
//! array of buckets ("days"), each `width` microseconds wide; the array as a
//! whole spans one "year". Pop walks the calendar day by day from the
//! current position, so on workloads whose events cluster near the clock —
//! gossip traffic clusters tightly around the 200 ms round cadence — both
//! push and pop are O(1): push is one division and one append, pop scans the
//! handful of entries in the current day's bucket.
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
//!   earliest pending events, keeping ~O(1) entries per day. Sparse or
//!   far-future tails (retransmission timers seconds ahead, `Time::MAX`
//!   sentinels) are handled by a direct-search fallback after one fruitless
//!   lap around the calendar.
//!
//! [R. Brown, CACM 1988]: https://doi.org/10.1145/63039.63045

use gossip_types::Time;

use super::{EventHandle, EventSchedule, Slab};

/// Smallest bucket-array size; shrinks stop here.
const MIN_BUCKETS: usize = 16;
/// Day width (µs, log₂) used before the first resize provides an estimate.
const DEFAULT_WIDTH_LOG2: u32 = 10;
/// How many of the earliest pending events the resize samples to estimate
/// the inter-event gap (and hence the new day width).
const WIDTH_SAMPLE: usize = 32;

/// One calendar entry. The time is stored inline so that scanning a bucket
/// for its minimum walks contiguous memory; the insertion-sequence
/// tie-break lives in the slab and is only consulted when two entries
/// actually tie on time, keeping the entry at 16 bytes (four per cache
/// line).
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Event time in microseconds.
    at: u64,
    /// Payload slot in the slab.
    slot: u32,
}

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
    slab: Slab<E>,
    /// The bucket array; `buckets.len()` is a power of two.
    buckets: Vec<Vec<Entry>>,
    /// `buckets.len() - 1`, for masking day numbers into bucket indices.
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
            .field("buckets", &self.buckets.len())
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
            buckets: vec![Vec::new(); MIN_BUCKETS],
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
        let micros = at.as_micros();
        let day = micros >> self.width_log2;
        // An event earlier than the scan position moves the position back
        // (the engine never schedules into the past, but the queue contract
        // allows it).
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let bucket = (day & self.mask) as usize;
        let pos = self.buckets[bucket].len() as u32;
        let handle = self.slab.alloc_with_pos(at, seq, event, pos);
        self.buckets[bucket].push(Entry { at: micros, slot: handle.slot });
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
        handle
    }

    /// Cancels a previously scheduled event, removing it from its bucket
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
        let day = self.slab.at(slot).as_micros() >> self.width_log2;
        let bucket = (day & self.mask) as usize;
        let pos = self.slab.pos(slot) as usize;
        debug_assert_eq!(self.buckets[bucket][pos].slot, slot);
        self.remove_entry(bucket, pos);
        self.slab.release(slot);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.rebuild(self.buckets.len() / 2);
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
        let lap = self.buckets.len() as u64;
        for day in self.cur_day..self.cur_day.saturating_add(lap) {
            let day_end = day.saturating_mul(self.width).checked_add(self.width);
            let bucket = (day & self.mask) as usize;
            if let Some(i) = self.min_in_day(bucket, day_end) {
                return Some(Time::from_micros(self.buckets[bucket][i].at));
            }
        }
        // Sparse tail: fall back to a direct search.
        let (bucket, i) = self.global_min().expect("non-empty queue has a minimum");
        Some(Time::from_micros(self.buckets[bucket][i].at))
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

    /// Pops the overall minimum if its time is ≤ `horizon` (in µs).
    fn pop_min(&mut self, horizon: u64) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        // Walk the calendar one day at a time, at most one full lap.
        for _ in 0..self.buckets.len() {
            let day_start = self.cur_day.saturating_mul(self.width);
            if day_start > horizon {
                return None;
            }
            let day_end = day_start.checked_add(self.width);
            let bucket = (self.cur_day & self.mask) as usize;
            if let Some(i) = self.min_in_day(bucket, day_end) {
                if self.buckets[bucket][i].at > horizon {
                    return None;
                }
                return Some(self.take(bucket, i));
            }
            // Saturating: once the scan stands on the last representable
            // day (Time::MAX sentinels with a 1 µs width), there is no
            // later day to advance to — the lap bound and the direct-search
            // fallback terminate the loop instead.
            self.cur_day = self.cur_day.saturating_add(1);
        }
        // A fruitless lap: every pending event is at least a year ahead of
        // the scan position (sparse queue or far-future sentinels). Find the
        // minimum directly and jump the calendar to it.
        let (bucket, i) = self.global_min().expect("non-empty queue has a minimum");
        let at = self.buckets[bucket][i].at;
        self.cur_day = at >> self.width_log2;
        if at > horizon {
            return None;
        }
        Some(self.take(bucket, i))
    }

    /// Removes the entry at `bucket[i]`, releases its slot and returns the
    /// event.
    fn take(&mut self, bucket: usize, i: usize) -> (Time, E) {
        let entry = self.remove_entry(bucket, i);
        let (at, event) = self.slab.release(entry.slot);
        self.len -= 1;
        self.pops_since_rebuild += 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.rebuild(self.buckets.len() / 2);
        } else if self.pops_since_rebuild > 8 * self.buckets.len() as u64 {
            // Periodic re-tune at the same size: refreshes the width
            // estimate once the resize thresholds stop firing. Amortised
            // cost: one entry move per ~8 pops.
            self.rebuild(self.buckets.len());
        }
        (at, event.expect("occupied slot holds an event"))
    }

    /// Index of the minimum `(at, seq)` entry in bucket `bucket` belonging
    /// to the current day (i.e. strictly before `day_end`), if any. Entries
    /// of later "years" share the bucket and are skipped. `day_end` is
    /// `None` for the last calendar day of the time axis, whose true end
    /// (2⁶⁴ µs) is unrepresentable: every entry in the bucket belongs to it
    /// — `Time::MAX` sentinels included. The insertion sequence is only
    /// fetched from the slab on an actual time tie.
    #[inline]
    fn min_in_day(&self, bucket: usize, day_end: Option<u64>) -> Option<usize> {
        let entries = &self.buckets[bucket];
        let mut best: Option<(u64, usize)> = None;
        for (i, e) in entries.iter().enumerate() {
            if day_end.is_some_and(|end| e.at >= end) {
                continue;
            }
            best = match best {
                None => Some((e.at, i)),
                Some((at, b))
                    if e.at < at
                        || (e.at == at
                            && self.slab.seq(e.slot) < self.slab.seq(entries[b].slot)) =>
                {
                    Some((e.at, i))
                }
                keep => keep,
            };
        }
        best.map(|(_, i)| i)
    }

    /// Direct search for the minimum `(at, seq)` entry across all buckets.
    fn global_min(&self) -> Option<(usize, usize)> {
        let mut best: Option<(u64, (usize, usize))> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                best = match best {
                    None => Some((e.at, (b, i))),
                    Some((at, (bb, bi)))
                        if e.at < at
                            || (e.at == at
                                && self.slab.seq(e.slot)
                                    < self.slab.seq(self.buckets[bb][bi].slot)) =>
                    {
                        Some((e.at, (b, i)))
                    }
                    keep => keep,
                };
            }
        }
        best.map(|(_, loc)| loc)
    }

    /// Appends `entry` to its bucket, keeping the slab back-pointer in sync.
    #[inline]
    fn place(&mut self, entry: Entry) {
        let bucket = ((entry.at >> self.width_log2) & self.mask) as usize;
        self.slab.set_pos(entry.slot, self.buckets[bucket].len() as u32);
        self.buckets[bucket].push(entry);
    }

    /// Swap-removes `bucket[i]`, fixing the back-pointer of the entry that
    /// takes its place.
    fn remove_entry(&mut self, bucket: usize, i: usize) -> Entry {
        let b = &mut self.buckets[bucket];
        let entry = b.swap_remove(i);
        if i < b.len() {
            let moved = b[i].slot;
            self.slab.set_pos(moved, i as u32);
        }
        entry
    }

    /// Rebuilds the calendar with `new_buckets` buckets and a day width
    /// re-estimated from the current population. Inner bucket allocations
    /// are recycled, so steady-state resizing does not thrash the
    /// allocator.
    fn rebuild(&mut self, new_buckets: usize) {
        debug_assert!(new_buckets.is_power_of_two());
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            // `append` leaves the bucket empty but keeps its capacity.
            entries.append(bucket);
        }
        self.width_log2 = Self::estimate_width_log2(&mut entries);
        self.width = 1 << self.width_log2;
        if new_buckets <= self.buckets.len() {
            self.buckets.truncate(new_buckets);
        } else {
            self.buckets.resize_with(new_buckets, Vec::new);
        }
        self.mask = (new_buckets - 1) as u64;
        self.cur_day = entries.iter().map(|e| e.at).min().unwrap_or(0) >> self.width_log2;
        for entry in entries {
            self.place(entry);
        }
        self.pops_since_rebuild = 0;
    }

    /// Estimates a day width (as its log₂) from the gaps between the
    /// earliest pending events: twice the mean gap over a sample of the
    /// [`WIDTH_SAMPLE`] soonest entries, rounded up to a power of two —
    /// aiming at a couple of near-term events per day.
    ///
    /// The estimate is a pure function of the pending set, so rebuilds are
    /// as deterministic as everything else.
    fn estimate_width_log2(entries: &mut [Entry]) -> u32 {
        let m = WIDTH_SAMPLE.min(entries.len());
        if m < 2 {
            return DEFAULT_WIDTH_LOG2;
        }
        // Partition the m soonest entries to the front, then measure their
        // span. Keys are unique (slots break ties), so the selection is
        // deterministic — and only the times matter for the estimate.
        entries.select_nth_unstable_by_key(m - 1, |e| (e.at, e.slot));
        let mut min = u64::MAX;
        let mut max = 0u64;
        for e in &entries[..m] {
            min = min.min(e.at);
            max = max.max(e.at);
        }
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
    use super::*;

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
        assert!(q.buckets.len() > MIN_BUCKETS, "queue must have grown");
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
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "drained queue shrinks back");
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
}
