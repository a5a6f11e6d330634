//! The bandwidth-capped upload link.
//!
//! This is the heart of the reproduction: the paper's "bandwidth limiter
//! \[that\] also implements a bandwidth throttling mechanism". Every node owns
//! one [`UploadLink`], on every host. Messages offered to the link serialise
//! through it at the configured rate: if the link is idle the message starts
//! transmitting immediately; otherwise it waits in a FIFO queue (throttling —
//! bursts are converted into delay). The queue is bounded; once the backlog
//! exceeds the configured depth, further messages are dropped (sustained
//! overload becomes loss). Both effects — congestion latency and overflow
//! loss — are exactly the failure modes the paper attributes to high fanouts.
//!
//! The link is a pure state machine over `(now, bytes)` that knows two
//! instants of every transmission — its start and its completion — and a
//! host drives it through the API that hands messages back at the one it
//! needs:
//!
//! * the **completion API** ([`UploadLink::enqueue`],
//!   [`UploadLink::complete_head`]) hands a message back when its last byte
//!   has left: the simulator schedules a "transmission complete" event at
//!   every [`Enqueued::Started`] / [`UploadLink::complete_head`] boundary
//!   and delivers at that instant plus latency;
//! * the **release API** ([`UploadLink::offer`], [`UploadLink::pop_due`],
//!   [`UploadLink::next_release`]) hands it back when its first byte leaves:
//!   the reactor's shards give it to the kernel there, since on loopback the
//!   kernel is the wire.
//!
//! One rule set serves both: a waiting message starts at its predecessor's
//! completion instant, however late the host looks; the queue bound counts
//! the bytes waiting to start, the message on the wire excluded; a rate
//! change applies from the next start. The release API settles starts when
//! it is polled, so a rate change or a crash acts on what its last poll had
//! not yet started. A link is driven through one API for its whole life.

use std::collections::VecDeque;

use gossip_types::{Duration, Time};

use crate::stats::NetStats;

/// Outcome of offering a message to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// The link was idle; transmission started and completes at the given
    /// time.
    Started {
        /// When the last byte leaves the node.
        completes_at: Time,
    },
    /// The link is busy; the message waits in the throttling queue and will
    /// be started by a later [`UploadLink::complete_head`] call.
    Queued,
    /// The queue was full; the message was dropped (counted in
    /// [`NetStats::msgs_dropped`]).
    Dropped,
}

struct Pending<T> {
    item: T,
    wire_bytes: usize,
}

/// A rate-capped upload link with a bounded throttling queue.
///
/// Generic over the queued item `T` (the hosts queue addressed messages).
/// An *uncapped* link (`rate_bps = None`) transmits instantly and never
/// queues.
///
/// # Examples
///
/// ```
/// use gossip_net::{Enqueued, UploadLink};
/// use gossip_types::{Duration, Time};
///
/// // 800 kbps link: a 1000-byte message takes 10 ms on the wire.
/// let mut link: UploadLink<&str> = UploadLink::new(Some(800_000), Duration::from_secs(1));
/// match link.enqueue(Time::ZERO, 1000, "first") {
///     Enqueued::Started { completes_at } => {
///         assert_eq!(completes_at, Time::from_millis(10));
///     }
///     _ => unreachable!("idle link starts immediately"),
/// }
///
/// // The same link on the release API: the second message is released
/// // when the first one's last byte has left.
/// let mut link: UploadLink<&str> = UploadLink::new(Some(800_000), Duration::from_secs(1));
/// assert!(link.offer(Time::ZERO, 1000, "a") && link.offer(Time::ZERO, 1000, "b"));
/// assert_eq!(link.pop_due(Time::ZERO), Some("a"));
/// assert_eq!(link.next_release(), Some(Time::from_millis(10)));
/// assert_eq!(link.pop_due(Time::from_millis(10)), Some("b"));
/// ```
pub struct UploadLink<T> {
    /// Upload cap in bits per second; `None` = unconstrained.
    rate_bps: Option<u64>,
    /// `ceil(2^64 / rate_bps)`: the fixed-point reciprocal turning the
    /// per-message wire-time division into a high-half multiply (0 when
    /// unconstrained).
    rate_reciprocal: u64,
    /// Maximum queued backlog expressed as wire time (depth ≈ rate ×
    /// max_queue_delay).
    max_queue_bytes: usize,
    /// The configured queueing-delay bound, kept so a rate change
    /// ([`UploadLink::set_rate`]) can recompute `max_queue_bytes`.
    max_queue_delay: Duration,
    /// The oldest started message not yet handed back: on the completion
    /// API the one on the wire, on the release API the next to release.
    in_flight: Option<Pending<T>>,
    /// The messages behind it, in FIFO order: on the release API polled
    /// late, the first `starts.len() - 1` have started too; the rest wait.
    queue: VecDeque<Pending<T>>,
    /// Release API only: when each started message not yet released
    /// started, `in_flight` first. Its buffer is kept between bursts (it
    /// holds a few instants); the completion API never allocates it.
    starts: VecDeque<Time>,
    /// Bytes of the messages waiting to start: what the bound applies to.
    queued_bytes: usize,
    /// When the wire frees — the last started message's completion — while
    /// one transmits.
    busy_until: Option<Time>,
    stats: NetStats,
}

impl<T> std::fmt::Debug for UploadLink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UploadLink")
            .field("rate_bps", &self.rate_bps)
            .field("queued", &self.queue_len())
            .field("queued_bytes", &self.queued_bytes)
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

impl<T> UploadLink<T> {
    /// Creates a link with the given cap and maximum queueing delay.
    ///
    /// `max_queue_delay` bounds how much backlog (expressed in wire time) the
    /// throttler absorbs before dropping; the paper's limiter smooths bursts,
    /// so the default used by the experiments is several seconds.
    pub fn new(rate_bps: Option<u64>, max_queue_delay: Duration) -> Self {
        let mut link = UploadLink {
            rate_bps,
            rate_reciprocal: 0,
            max_queue_bytes: usize::MAX,
            max_queue_delay,
            in_flight: None,
            queue: VecDeque::new(),
            starts: VecDeque::new(),
            queued_bytes: 0,
            busy_until: None,
            stats: NetStats::default(),
        };
        link.set_rate(rate_bps);
        link
    }

    /// Changes the link's upload cap in place (a scheduled throttle event).
    ///
    /// Takes effect from the *next* transmission start: the message
    /// currently on the wire keeps its already-computed completion time —
    /// exactly how a kernel token bucket behaves when its rate is reduced
    /// mid-packet. Queued messages, traffic accounting and drop statistics
    /// are preserved; only the rate, its reciprocal and the backlog bound
    /// change.
    pub fn set_rate(&mut self, rate_bps: Option<u64>) {
        self.max_queue_bytes = match rate_bps {
            Some(bps) => ((bps as u128 * self.max_queue_delay.as_micros() as u128) / 8_000_000)
                .min(usize::MAX as u128) as usize,
            None => usize::MAX,
        };
        // ceil(2^64 / bps): `u64::MAX / bps` is floor((2^64 - 1) / bps),
        // which is floor(2^64 / bps) whenever bps does not divide 2^64, and
        // one less when it does — so +1 lands on the ceiling either way.
        // For bps = 1 the ceiling (2^64) wraps to 0, which simply disables
        // the fast path in `tx_time` (`bits < 0` is never true).
        self.rate_reciprocal = rate_bps.map_or(0, |bps| (u64::MAX / bps).wrapping_add(1));
        self.rate_bps = rate_bps;
    }

    /// Creates an unconstrained link (for tests and uncapped scenarios).
    pub fn uncapped() -> Self {
        UploadLink::new(None, Duration::MAX)
    }

    /// Returns the wire time of a message of `wire_bytes`.
    fn tx_time(&self, wire_bytes: usize) -> Duration {
        match self.rate_bps {
            None => Duration::ZERO,
            Some(bps) => {
                // Strength-reduced exact division (Granlund–Montgomery):
                // with m = ceil(2^64 / d) and e = m·d - 2^64 < d, the error
                // term n·e/2^64 stays below 1 for n < 2^64 / d, so
                // floor(n·m / 2^64) = floor(n / d) on that whole range —
                // and n ≥ 2^64 / d is exactly when n·m overflows 128 bits,
                // which real wire sizes never approach. Fall back to real
                // division there so the result is bit-identical on any
                // input.
                let micros = match (wire_bytes as u64).checked_mul(8_000_000) {
                    Some(bits) if bits < self.rate_reciprocal => {
                        ((bits as u128 * self.rate_reciprocal as u128) >> 64) as u64
                    }
                    Some(bits) => bits / bps,
                    None => ((wire_bytes as u128 * 8_000_000) / bps as u128) as u64,
                };
                Duration::from_micros(micros)
            }
        }
    }

    /// Offers a message of `wire_bytes` to the link at time `now`
    /// (completion API).
    ///
    /// Returns whether transmission started, the message was queued, or the
    /// message was dropped because the backlog exceeded the queue bound.
    pub fn enqueue(&mut self, now: Time, wire_bytes: usize, item: T) -> Enqueued {
        let pending = Pending { item, wire_bytes };
        if self.busy_until.is_none() {
            debug_assert!(self.queue_len() == 0, "an idle link has nothing waiting");
            let completes_at = now + self.tx_time(wire_bytes);
            self.busy_until = Some(completes_at);
            if self.in_flight.is_none() {
                self.in_flight = Some(pending);
            } else {
                self.queue.push_back(pending);
            }
            Enqueued::Started { completes_at }
        } else if self.queued_bytes + wire_bytes <= self.max_queue_bytes {
            self.queued_bytes += wire_bytes;
            self.queue.push_back(pending);
            Enqueued::Queued
        } else {
            self.stats.msgs_dropped += 1;
            self.stats.bytes_dropped += wire_bytes as u64;
            Enqueued::Dropped
        }
    }

    /// Completes the in-flight transmission at time `now`, returning the
    /// finished item and — if the queue was non-empty — the completion time
    /// of the next message, which starts transmitting immediately
    /// (completion API).
    ///
    /// # Panics
    ///
    /// Panics if the link has no message in flight (a completion event fired
    /// without a matching start).
    pub fn complete_head(&mut self, now: Time) -> (T, Option<Time>) {
        let done = self.in_flight.take().expect("complete_head called on an idle link");
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += done.wire_bytes as u64;
        (done.item, self.start_next(now))
    }

    /// Offers a message of `wire_bytes` at time `now` (release API).
    /// Returns `false` when the queue bound dropped it.
    pub fn offer(&mut self, now: Time, wire_bytes: usize, item: T) -> bool {
        self.settle(now);
        match self.enqueue(now, wire_bytes, item) {
            Enqueued::Started { .. } => self.starts.push_back(now),
            Enqueued::Queued => {}
            Enqueued::Dropped => return false,
        }
        true
    }

    /// Releases the head message if it has started by `now` (release API):
    /// its bytes count as sent from here on.
    pub fn pop_due(&mut self, now: Time) -> Option<T> {
        self.settle(now);
        let done = self.in_flight.take()?;
        let start = self.starts.pop_front();
        debug_assert!(start.is_some_and(|at| at <= now), "polled in time order");
        if !self.starts.is_empty() {
            self.in_flight = self.take_front();
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += done.wire_bytes as u64;
        Some(done.item)
    }

    /// When the head message starts — or started, if the link was polled
    /// late — (release API); `None` when nothing waits for release.
    pub fn next_release(&self) -> Option<Time> {
        let waits = !self.queue.is_empty();
        self.starts.front().copied().or(self.busy_until.filter(|_| waits))
    }

    /// Starts every message whose turn came by `now`, each at the instant
    /// the wire freed for it (release API).
    fn settle(&mut self, now: Time) {
        while let Some(free) = self.busy_until.filter(|&at| at <= now) {
            if self.start_next(free).is_some() {
                self.starts.push_back(free);
            }
        }
    }

    /// How many messages in `queue` have started (release API, polled
    /// late); the completion API keeps no starts.
    fn started(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Starts the first waiting message at `at`, when the wire freed, and
    /// returns its completion — or idles the wire if nothing waits.
    fn start_next(&mut self, at: Time) -> Option<Time> {
        let Some(next) = self.queue.get(self.started()) else {
            self.busy_until = None;
            return None;
        };
        let wire_bytes = next.wire_bytes;
        self.queued_bytes -= wire_bytes;
        if self.in_flight.is_none() {
            self.in_flight = self.take_front();
        }
        let completes_at = at + self.tx_time(wire_bytes);
        self.busy_until = Some(completes_at);
        Some(completes_at)
    }

    /// Pops the queue's front. The pop that drains the queue lets go of its
    /// buffer whole: a burst's high-water mark is not worth keeping until
    /// the next one.
    fn take_front(&mut self) -> Option<Pending<T>> {
        let front = self.queue.pop_front();
        if self.queue.is_empty() {
            self.queue = VecDeque::new();
        }
        front
    }

    /// Returns `true` if a message is currently transmitting (on the
    /// release API: as of the last poll).
    pub fn is_busy(&self) -> bool {
        self.busy_until.is_some()
    }

    /// Returns the number of queued (not yet transmitting) messages.
    pub fn queue_len(&self) -> usize {
        self.queue.len() - self.started()
    }

    /// Returns the queued backlog in bytes.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Returns how many messages the queue's buffer has room for: zero
    /// whenever nothing waits behind the head.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Returns the accumulated transmit-side statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Drops all queued messages and the in-flight message (used when a node
    /// crashes), and idles the wire. Returns how many messages were
    /// discarded; none of them counts as sent.
    pub fn crash(&mut self) -> usize {
        let discarded = self.queue.len() + usize::from(self.in_flight.is_some());
        self.queue = VecDeque::new();
        self.starts = VecDeque::new();
        self.queued_bytes = 0;
        self.in_flight = None;
        self.busy_until = None;
        discarded
    }

    /// Returns the configured rate, if capped.
    pub fn rate_bps(&self) -> Option<u64> {
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_reciprocal_matches_plain_division() {
        // The strength-reduced wire-time computation must agree with plain
        // integer division for every rate — including the degenerate
        // 1 bit/s link whose reciprocal wraps (and disables the fast path)
        // and power-of-two rates whose error term is zero.
        for &bps in &[1u64, 2, 3, 1024, 56_000, 700_000, 1_000_000, u64::MAX / 8_000_000] {
            let link: UploadLink<()> = UploadLink::new(Some(bps), Duration::from_secs(1));
            for &bytes in &[0usize, 1, 7, 100, 1000, 65_536, 10_000_000] {
                let expected = (bytes as u128 * 8_000_000 / bps as u128) as u64;
                assert_eq!(
                    link.tx_time(bytes),
                    Duration::from_micros(expected),
                    "bps={bps} bytes={bytes}"
                );
            }
        }
    }

    fn capped(kbps: u64, max_delay_ms: u64) -> UploadLink<u32> {
        UploadLink::new(Some(kbps * 1000), Duration::from_millis(max_delay_ms))
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = capped(800, 1000);
        match link.enqueue(Time::ZERO, 1000, 1) {
            Enqueued::Started { completes_at } => assert_eq!(completes_at, Time::from_millis(10)),
            other => panic!("expected start, got {other:?}"),
        }
        assert!(link.is_busy());
    }

    #[test]
    fn busy_link_queues_then_drains_fifo() {
        let mut link = capped(800, 10_000);
        let t0 = Time::ZERO;
        assert!(matches!(link.enqueue(t0, 1000, 1), Enqueued::Started { .. }));
        assert_eq!(link.enqueue(t0, 1000, 2), Enqueued::Queued);
        assert_eq!(link.enqueue(t0, 1000, 3), Enqueued::Queued);
        assert_eq!(link.queue_len(), 2);

        let (done, next) = link.complete_head(Time::from_millis(10));
        assert_eq!(done, 1);
        assert_eq!(next, Some(Time::from_millis(20)));
        assert!(link.queue_capacity() > 0, "message 3 still waits");
        let (done, next) = link.complete_head(Time::from_millis(20));
        assert_eq!(done, 2);
        assert_eq!(next, Some(Time::from_millis(30)));
        assert_eq!(link.queue_capacity(), 0, "the drained queue let go of its buffer");
        let (done, next) = link.complete_head(Time::from_millis(30));
        assert_eq!(done, 3);
        assert_eq!(next, None);
        assert!(!link.is_busy());
    }

    #[test]
    fn overflow_drops_and_accounts() {
        // 800 kbps with 20 ms of queue = 2000 bytes of backlog allowance.
        let mut link = capped(800, 20);
        let t0 = Time::ZERO;
        assert!(matches!(link.enqueue(t0, 1000, 1), Enqueued::Started { .. }));
        assert_eq!(link.enqueue(t0, 1000, 2), Enqueued::Queued);
        assert_eq!(link.enqueue(t0, 1000, 3), Enqueued::Queued);
        assert_eq!(link.enqueue(t0, 1000, 4), Enqueued::Dropped);
        assert_eq!(link.stats().msgs_dropped, 1);
        assert_eq!(link.stats().bytes_dropped, 1000);
    }

    #[test]
    fn sent_bytes_accounted_on_completion() {
        let mut link = capped(800, 1000);
        link.enqueue(Time::ZERO, 500, 7);
        assert_eq!(link.stats().bytes_sent, 0, "not accounted until the last byte leaves");
        link.complete_head(Time::from_millis(5));
        assert_eq!(link.stats().bytes_sent, 500);
        assert_eq!(link.stats().msgs_sent, 1);
    }

    #[test]
    fn uncapped_link_is_instant_and_never_queues() {
        let mut link: UploadLink<u8> = UploadLink::uncapped();
        match link.enqueue(Time::from_secs(1), 1_000_000, 1) {
            Enqueued::Started { completes_at } => assert_eq!(completes_at, Time::from_secs(1)),
            other => panic!("unexpected {other:?}"),
        }
        let (_, next) = link.complete_head(Time::from_secs(1));
        assert_eq!(next, None);
    }

    #[test]
    fn rate_is_exact_over_a_long_burst() {
        // Conservation: N messages of b bytes at rate r take exactly N*b*8/r.
        let mut link = capped(700, 100_000);
        let mut now = Time::ZERO;
        let n = 100;
        let b = 875; // 875 bytes at 700 kbps = 10 ms each
        let mut started = match link.enqueue(now, b, 0) {
            Enqueued::Started { completes_at } => completes_at,
            _ => unreachable!(),
        };
        for i in 1..n {
            assert_eq!(link.enqueue(now, b, i), Enqueued::Queued);
        }
        let mut completed = 0;
        loop {
            now = started;
            let (_, next) = link.complete_head(now);
            completed += 1;
            match next {
                Some(at) => started = at,
                None => break,
            }
        }
        assert_eq!(completed, n);
        assert_eq!(now, Time::from_millis(10 * n as u64));
        assert_eq!(link.stats().bytes_sent, (b * n as usize) as u64);
    }

    #[test]
    fn crash_discards_everything() {
        let mut link = capped(800, 10_000);
        link.enqueue(Time::ZERO, 1000, 1);
        link.enqueue(Time::ZERO, 1000, 2);
        link.enqueue(Time::ZERO, 1000, 3);
        assert_eq!(link.crash(), 3);
        assert!(!link.is_busy());
        assert_eq!(link.queue_len(), 0);
        assert_eq!(link.queued_bytes(), 0);
        assert_eq!(link.queue_capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "idle link")]
    fn completing_an_idle_link_panics() {
        let mut link: UploadLink<u8> = UploadLink::uncapped();
        link.complete_head(Time::ZERO);
    }

    #[test]
    fn queue_bound_is_byte_based() {
        // 1000 kbps, 100 ms queue = 12_500 bytes.
        let mut link = capped(1000, 100);
        link.enqueue(Time::ZERO, 100, 0);
        let mut queued = 0;
        let mut dropped = 0;
        for i in 0..200 {
            match link.enqueue(Time::ZERO, 100, i) {
                Enqueued::Queued => queued += 1,
                Enqueued::Dropped => dropped += 1,
                Enqueued::Started { .. } => unreachable!(),
            }
        }
        assert_eq!(queued, 125);
        assert_eq!(dropped, 75);
    }

    #[test]
    fn set_rate_changes_wire_time_from_the_next_start() {
        // 800 kbps: 1000 bytes take 10 ms.
        let mut link: UploadLink<u8> = UploadLink::new(Some(800_000), Duration::from_secs(1));
        match link.enqueue(Time::ZERO, 1000, 0) {
            Enqueued::Started { completes_at } => assert_eq!(completes_at, Time::from_millis(10)),
            other => panic!("expected start, got {other:?}"),
        }
        link.enqueue(Time::ZERO, 1000, 1);
        // Throttle to 80 kbps mid-flight: the in-flight message keeps its
        // completion time; the queued one transmits at the new rate.
        link.set_rate(Some(80_000));
        assert_eq!(link.rate_bps(), Some(80_000));
        let (_, next) = link.complete_head(Time::from_millis(10));
        assert_eq!(next, Some(Time::from_millis(110)), "1000 bytes at 80 kbps = 100 ms");
        // Restoring the original rate restores the original wire time.
        let (_, none) = link.complete_head(Time::from_millis(110));
        assert_eq!(none, None);
        link.set_rate(Some(800_000));
        match link.enqueue(Time::from_millis(110), 1000, 2) {
            Enqueued::Started { completes_at } => assert_eq!(completes_at, Time::from_millis(120)),
            other => panic!("expected start, got {other:?}"),
        }
    }

    // The release API: what the reactor's shards pace through.

    #[test]
    fn unshaped_releases_immediately() {
        let mut link: UploadLink<u32> = UploadLink::new(None, Duration::MAX);
        for i in 0..10 {
            assert!(link.offer(Time::ZERO, 10_000, i));
        }
        for i in 0..10 {
            assert_eq!(link.pop_due(Time::ZERO), Some(i));
        }
        assert_eq!(link.stats().bytes_sent, 100_000);
    }

    #[test]
    fn pacing_matches_rate() {
        // 100 kbps: 1250 bytes = 100 ms each.
        let mut link: UploadLink<u32> = UploadLink::new(Some(100_000), Duration::from_secs(10));
        for i in 0..5 {
            assert!(link.offer(Time::ZERO, 1250, i));
        }
        assert_eq!(link.pop_due(Time::ZERO), Some(0));
        assert_eq!(link.pop_due(Time::from_millis(99)), None);
        assert_eq!(link.pop_due(Time::from_millis(100)), Some(1));
        // Polled late: 2, 3 and 4 started at 200, 300 and 400 ms.
        assert_eq!(link.next_release(), Some(Time::from_millis(200)));
        assert_eq!(link.pop_due(Time::from_millis(400)), Some(2));
        assert!(link.queue_capacity() > 0, "two started datagrams wait to be popped");
        assert_eq!(link.next_release(), Some(Time::from_millis(300)));
        assert_eq!(link.pop_due(Time::from_millis(400)), Some(3));
        assert_eq!(link.pop_due(Time::from_millis(400)), Some(4));
        assert_eq!(link.queue_capacity(), 0, "the drained queue let go of its buffer");
        assert_eq!(link.next_release(), None);
        link.offer(Time::from_secs(1), 1250, 5);
        link.offer(Time::from_secs(1), 1250, 6);
        link.crash();
        assert_eq!(
            (link.queue_len(), link.queue_capacity(), link.pop_due(Time::MAX)),
            (0, 0, None)
        );
    }

    #[test]
    fn backlog_bound_drops() {
        // 100 kbps with 200 ms of queue = 2500 bytes waiting behind the wire.
        let mut link: UploadLink<u32> = UploadLink::new(Some(100_000), Duration::from_millis(200));
        assert!(link.offer(Time::ZERO, 1250, 0)); // starts immediately
        assert!(link.offer(Time::ZERO, 1250, 1)); // 1250 bytes wait
        assert!(link.offer(Time::ZERO, 1250, 2)); // 2500: at the bound
        assert!(!link.offer(Time::ZERO, 1250, 3)); // beyond the bound
        assert_eq!(link.stats().msgs_dropped, 1);
        while link.pop_due(Time::from_millis(200)).is_some() {}
        assert_eq!(link.stats().msgs_sent, 3, "counted as they are released");
    }

    #[test]
    fn idle_time_resets_pacing() {
        let mut link: UploadLink<u32> = UploadLink::new(Some(100_000), Duration::from_secs(1));
        link.offer(Time::ZERO, 1250, 0);
        link.pop_due(Time::ZERO);
        // After a long idle gap, a new datagram goes out immediately.
        assert!(link.offer(Time::from_secs(5), 1250, 1));
        assert_eq!(link.pop_due(Time::from_secs(5)), Some(1));
    }

    #[test]
    fn set_rate_repaces_from_the_next_start() {
        // 800 kbps: 1000 bytes = 10 ms; throttled to 80 kbps: 100 ms.
        let mut link: UploadLink<u32> = UploadLink::new(Some(800_000), Duration::from_secs(10));
        for i in 0..3 {
            assert!(link.offer(Time::ZERO, 1000, i)); // 0 on the wire until 10 ms
        }
        // The throttle reaches the waiting datagrams, not only later offers.
        link.set_rate(Some(80_000));
        assert_eq!(link.pop_due(Time::ZERO), Some(0));
        assert_eq!(link.pop_due(Time::from_millis(10)), Some(1)); // on the wire until 110 ms
        assert_eq!(link.pop_due(Time::from_millis(109)), None, "head paced at the throttled rate");
        assert_eq!(link.pop_due(Time::from_millis(110)), Some(2));
        link.set_rate(None);
        assert!(link.offer(Time::from_secs(1), 1000, 3));
        assert!(link.offer(Time::from_secs(1), 1000, 4));
        assert_eq!(link.pop_due(Time::from_secs(1)), Some(3));
        assert_eq!(link.pop_due(Time::from_secs(1)), Some(4), "unshaped again after the heal");
    }

    #[test]
    fn next_release_exposes_head_deadline() {
        let mut link: UploadLink<u32> = UploadLink::new(Some(100_000), Duration::from_secs(1));
        assert_eq!(link.next_release(), None);
        link.offer(Time::from_millis(7), 1250, 0);
        assert_eq!(link.next_release(), Some(Time::from_millis(7)));
        link.offer(Time::from_millis(7), 1250, 1);
        assert_eq!(link.queue_len(), 1, "one datagram waits behind the wire");
        assert_eq!(link.pop_due(Time::from_millis(7)), Some(0));
        assert_eq!(link.next_release(), Some(Time::from_millis(107)));
    }
}
