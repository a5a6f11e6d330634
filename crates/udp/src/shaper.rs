//! Real-time upload shaping.
//!
//! The deployed counterpart of the simulator's queueing link: datagrams
//! offered to the shaper are released no faster than the configured rate
//! (throttling), and a bounded backlog turns sustained overload into drops —
//! the same two behaviours the paper's bandwidth limiter implements on
//! PlanetLab.

use std::collections::VecDeque;

use gossip_types::{Duration, Time};

/// A queued, shaped datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shaped<T> {
    /// Earliest time the datagram may be put on the wire.
    pub release_at: Time,
    /// The datagram (destination + bytes, for the driver).
    pub item: T,
}

/// A token-bucket-style upload shaper over virtual time.
///
/// Unlike the simulator’s `gossip_net::UploadLink` (which models wire
/// occupancy for a *simulated* network), the shaper only decides *when* the
/// driver may hand each datagram to the kernel; the loopback interface is
/// effectively infinitely fast, so pacing is the whole story.
///
/// # Examples
///
/// ```
/// use gossip_udp::shaper::UploadShaper;
/// use gossip_types::{Duration, Time};
///
/// // 800 kbps: a 1000-byte datagram occupies 10 ms.
/// let mut shaper: UploadShaper<&str> = UploadShaper::new(Some(800_000), Duration::from_secs(1));
/// assert!(shaper.offer(Time::ZERO, 1000, "a"));
/// assert_eq!(shaper.pop_due(Time::ZERO).unwrap(), "a");
/// // The next datagram is paced 10 ms later.
/// assert!(shaper.offer(Time::ZERO, 1000, "b"));
/// assert!(shaper.pop_due(Time::from_millis(5)).is_none());
/// assert_eq!(shaper.pop_due(Time::from_millis(10)).unwrap(), "b");
/// ```
#[derive(Debug)]
pub struct UploadShaper<T> {
    rate_bps: Option<u64>,
    max_backlog: Duration,
    /// Next instant the wire is free.
    next_free: Time,
    queue: VecDeque<Shaped<T>>,
    sent_bytes: u64,
    sent_msgs: u64,
    dropped_msgs: u64,
}

impl<T> UploadShaper<T> {
    /// Creates a shaper with the given rate (`None` = unshaped) and maximum
    /// backlog expressed as wire time.
    pub fn new(rate_bps: Option<u64>, max_backlog: Duration) -> Self {
        UploadShaper {
            rate_bps,
            max_backlog,
            next_free: Time::ZERO,
            queue: VecDeque::new(),
            sent_bytes: 0,
            sent_msgs: 0,
            dropped_msgs: 0,
        }
    }

    fn tx_time(&self, bytes: usize) -> Duration {
        match self.rate_bps {
            None => Duration::ZERO,
            Some(bps) => Duration::from_micros(((bytes as u128 * 8_000_000) / bps as u128) as u64),
        }
    }

    /// Offers a datagram of `bytes` at time `now`. Returns `false` (drop)
    /// when the backlog exceeds the bound.
    pub fn offer(&mut self, now: Time, bytes: usize, item: T) -> bool {
        let start = self.next_free.max(now);
        if start - now > self.max_backlog {
            self.dropped_msgs += 1;
            return false;
        }
        self.queue.push_back(Shaped { release_at: start, item });
        self.next_free = start + self.tx_time(bytes);
        self.sent_bytes += bytes as u64;
        self.sent_msgs += 1;
        true
    }

    /// Changes the shaping rate (`None` = unshaped), effective from the
    /// next offered datagram: already-queued datagrams keep the release
    /// times they were paced to — like reconfiguring a kernel token bucket
    /// under traffic. Drives the adversity layer's scheduled throttles.
    pub fn set_rate(&mut self, rate_bps: Option<u64>) {
        self.rate_bps = rate_bps;
    }

    /// Pops the head datagram if its release time has passed.
    pub fn pop_due(&mut self, now: Time) -> Option<T> {
        if self.queue.front().is_some_and(|s| s.release_at <= now) {
            Some(self.queue.pop_front().expect("checked non-empty").item)
        } else {
            None
        }
    }

    /// Returns the release time of the head datagram, if any.
    pub fn next_release(&self) -> Option<Time> {
        self.queue.front().map(|s| s.release_at)
    }

    /// Number of queued datagrams.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Discards every queued datagram and resets pacing — a crashed node's
    /// backlog never reaches the wire, and a later incarnation starts with
    /// a clean bucket. The accepted-traffic counters are kept: they
    /// describe what the node *offered*, not what reached the wire.
    pub fn discard_backlog(&mut self) {
        self.queue.clear();
        self.next_free = Time::ZERO;
    }

    /// Total bytes accepted for sending.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Total datagrams accepted.
    pub fn sent_msgs(&self) -> u64 {
        self.sent_msgs
    }

    /// Datagrams dropped by the backlog bound.
    pub fn dropped_msgs(&self) -> u64 {
        self.dropped_msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshaped_releases_immediately() {
        let mut s: UploadShaper<u32> = UploadShaper::new(None, Duration::MAX);
        for i in 0..10 {
            assert!(s.offer(Time::ZERO, 10_000, i));
        }
        for i in 0..10 {
            assert_eq!(s.pop_due(Time::ZERO), Some(i));
        }
    }

    #[test]
    fn pacing_matches_rate() {
        // 100 kbps: 1250 bytes = 100 ms each.
        let mut s: UploadShaper<u32> = UploadShaper::new(Some(100_000), Duration::from_secs(10));
        for i in 0..5 {
            assert!(s.offer(Time::ZERO, 1250, i));
        }
        assert_eq!(s.pop_due(Time::ZERO), Some(0));
        assert_eq!(s.pop_due(Time::from_millis(99)), None);
        assert_eq!(s.pop_due(Time::from_millis(100)), Some(1));
        assert_eq!(s.pop_due(Time::from_millis(400)), Some(2));
        assert_eq!(s.pop_due(Time::from_millis(400)), Some(3));
        assert_eq!(s.pop_due(Time::from_millis(400)), Some(4));
    }

    #[test]
    fn backlog_bound_drops() {
        // 100 kbps with 200 ms backlog = 2500 bytes of queue.
        let mut s: UploadShaper<u32> = UploadShaper::new(Some(100_000), Duration::from_millis(200));
        assert!(s.offer(Time::ZERO, 1250, 0)); // starts immediately
        assert!(s.offer(Time::ZERO, 1250, 1)); // +100 ms
        assert!(s.offer(Time::ZERO, 1250, 2)); // +200 ms (at the bound)
        assert!(!s.offer(Time::ZERO, 1250, 3)); // beyond the bound
        assert_eq!(s.dropped_msgs(), 1);
        assert_eq!(s.sent_msgs(), 3);
    }

    #[test]
    fn idle_time_resets_pacing() {
        let mut s: UploadShaper<u32> = UploadShaper::new(Some(100_000), Duration::from_secs(1));
        s.offer(Time::ZERO, 1250, 0);
        s.pop_due(Time::ZERO);
        // After a long idle gap, a new datagram goes out immediately.
        assert!(s.offer(Time::from_secs(5), 1250, 1));
        assert_eq!(s.pop_due(Time::from_secs(5)), Some(1));
    }

    #[test]
    fn set_rate_repaces_from_the_next_offer() {
        // 800 kbps: 1000 bytes = 10 ms; throttled to 80 kbps: 100 ms.
        let mut s: UploadShaper<u32> = UploadShaper::new(Some(800_000), Duration::from_secs(10));
        assert!(s.offer(Time::ZERO, 1000, 0)); // wire free at 10 ms
        s.set_rate(Some(80_000));
        assert!(s.offer(Time::ZERO, 1000, 1)); // released 10 ms, occupies until 110 ms
        assert!(s.offer(Time::ZERO, 1000, 2));
        assert_eq!(s.pop_due(Time::ZERO), Some(0));
        assert_eq!(s.pop_due(Time::from_millis(10)), Some(1));
        assert_eq!(s.pop_due(Time::from_millis(109)), None, "head paced at the throttled rate");
        assert_eq!(s.pop_due(Time::from_millis(110)), Some(2));
        s.set_rate(None);
        assert!(s.offer(Time::from_secs(1), 1000, 3));
        assert!(s.offer(Time::from_secs(1), 1000, 4));
        assert_eq!(s.pop_due(Time::from_secs(1)), Some(3));
        assert_eq!(s.pop_due(Time::from_secs(1)), Some(4), "unshaped again after the heal");
    }

    #[test]
    fn next_release_exposes_head_deadline() {
        let mut s: UploadShaper<u32> = UploadShaper::new(Some(100_000), Duration::from_secs(1));
        assert_eq!(s.next_release(), None);
        s.offer(Time::from_millis(7), 1250, 0);
        assert_eq!(s.next_release(), Some(Time::from_millis(7)));
        assert_eq!(s.backlog(), 1);
    }
}
