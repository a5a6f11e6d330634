//! Property-based tests of the network substrate, centred on the
//! conservation laws of the bandwidth-capped link.

use std::collections::VecDeque;

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_net::{Enqueued, UploadLink};
use gossip_types::{Duration, Time};

/// The completion API driven the way the simulator drives it:
/// `complete_head` at every instant the link reports, before anything
/// else happens at that instant.
struct Completion {
    link: UploadLink<usize>,
    done_at: Option<Time>,
    /// Ids of the queued messages, in order.
    waiting: VecDeque<usize>,
    /// When each message started, if it did.
    starts: Vec<Option<Time>>,
}

impl Completion {
    fn run_to(&mut self, t: Time) {
        while let Some(at) = self.done_at.filter(|&at| at <= t) {
            let (_, next) = self.link.complete_head(at);
            self.done_at = next;
            if next.is_some() {
                let id = self.waiting.pop_front().expect("the started message was queued");
                self.starts[id] = Some(at);
            }
        }
    }

    fn offer(&mut self, t: Time, bytes: usize, id: usize) -> bool {
        self.run_to(t);
        match self.link.enqueue(t, bytes, id) {
            Enqueued::Started { completes_at } => {
                self.starts[id] = Some(t);
                self.done_at = Some(completes_at);
            }
            Enqueued::Queued => self.waiting.push_back(id),
            Enqueued::Dropped => return false,
        }
        true
    }
}

/// The release API polled the way a shard's loop polls it: whenever it
/// gets round to it, taking the head's release instant from
/// `next_release`.
struct Release {
    link: UploadLink<usize>,
    /// When each message was released, if it was.
    releases: Vec<Option<Time>>,
    last: Time,
}

impl Release {
    fn poll(&mut self, t: Time) {
        while let Some(at) = self.link.next_release().filter(|&at| at <= t) {
            let id = self.link.pop_due(t).expect("the head is due at its release instant");
            assert!(at >= self.last, "releases go out in order");
            (self.releases[id], self.last) = (Some(at), at);
        }
    }
}

proptest! {
    /// Conservation: every message offered to the link is eventually either
    /// transmitted or dropped — never lost, never duplicated.
    #[test]
    fn link_conserves_messages(sizes in vec(1usize..5_000, 1..200)) {
        let mut link: UploadLink<usize> =
            UploadLink::new(Some(1_000_000), Duration::from_millis(500));
        let mut transmitted = Vec::new();
        let mut dropped = 0usize;
        let mut pending_completion: Option<Time> = None;
        let now = Time::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            match link.enqueue(now, size, i) {
                Enqueued::Started { completes_at } => {
                    prop_assert!(pending_completion.is_none(), "started while busy");
                    pending_completion = Some(completes_at);
                }
                Enqueued::Queued => {}
                Enqueued::Dropped => dropped += 1,
            }
        }
        while let Some(at) = pending_completion.take() {
            let (item, next) = link.complete_head(at);
            transmitted.push(item);
            pending_completion = next;
        }
        prop_assert_eq!(transmitted.len() + dropped, sizes.len());
        // FIFO order among transmitted messages.
        prop_assert!(transmitted.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(link.stats().msgs_sent as usize, transmitted.len());
        prop_assert_eq!(link.stats().msgs_dropped as usize, dropped);
        let sent_bytes: usize = transmitted.iter().map(|&i| sizes[i]).sum();
        prop_assert_eq!(link.stats().bytes_sent as usize, sent_bytes);
    }

    /// Rate law: transmitting B bytes through an r-bps link takes exactly
    /// B×8/r seconds (within rounding), regardless of message sizes.
    #[test]
    fn link_rate_is_exact(sizes in vec(100usize..2_000, 1..100), rate_kbps in 100u64..5_000) {
        let rate = rate_kbps * 1000;
        let mut link: UploadLink<usize> = UploadLink::new(Some(rate), Duration::from_secs(3_600));
        let mut completion = match link.enqueue(Time::ZERO, sizes[0], 0) {
            Enqueued::Started { completes_at } => completes_at,
            _ => unreachable!("idle link starts immediately"),
        };
        for (i, &size) in sizes.iter().enumerate().skip(1) {
            prop_assert_eq!(link.enqueue(Time::ZERO, size, i), Enqueued::Queued);
        }
        let mut last;
        loop {
            let (_, next) = link.complete_head(completion);
            last = completion;
            match next {
                Some(at) => completion = at,
                None => break,
            }
        }
        let total_bytes: usize = sizes.iter().sum();
        let expected_micros: u128 = sizes
            .iter()
            .map(|&b| (b as u128 * 8_000_000) / rate as u128)
            .sum();
        let got = last.as_micros() as i128;
        let want = expected_micros as i128;
        prop_assert!(
            (got - want).abs() <= sizes.len() as i128,
            "total tx time {got}us vs expected {want}us for {total_bytes} bytes"
        );
    }

    /// The queue bound is honoured: backlog never exceeds the configured
    /// byte depth.
    #[test]
    fn backlog_never_exceeds_bound(sizes in vec(1usize..2_000, 1..300)) {
        let rate = 800_000u64; // 100 kB/s
        let max_delay = Duration::from_millis(250); // = 25_000 bytes
        let bound_bytes = 25_000usize;
        let mut link: UploadLink<usize> = UploadLink::new(Some(rate), max_delay);
        for (i, &size) in sizes.iter().enumerate() {
            link.enqueue(Time::ZERO, size, i);
            prop_assert!(link.queued_bytes() <= bound_bytes);
        }
    }

    /// One limiter, two APIs: a random offer script — sizes, idle gaps, a
    /// rate change mid-backlog, a crash — driven through the completion
    /// API and through the release API, the latter polled at arbitrary
    /// later instants (and at the instant of the rate change and the crash,
    /// which act on what the link has not started). Every release instant
    /// equals the matching start instant, the drop decisions are the same,
    /// and so polling late never delays a later start.
    #[test]
    fn completion_and_release_apis_start_and_drop_alike(
        steps in vec((0u64..30_000, 1usize..3_000, 0u64..90_000), 1..150),
        rate_kbps in 50u64..2_000,
        throttle_kbps in proptest::option::of(20u64..4_000),
        (throttle_at, crash_at) in (0usize..150, 0usize..150),
        backlog_ms in 5u64..400,
    ) {
        let link = || UploadLink::new(Some(rate_kbps * 1000), Duration::from_millis(backlog_ms));
        let n = steps.len();
        let mut cmp = Completion {
            link: link(),
            done_at: None,
            waiting: VecDeque::new(),
            starts: vec![None; n],
        };
        let mut rel = Release { link: link(), releases: vec![None; n], last: Time::ZERO };
        let throttle = throttle_kbps.map(|kbps| kbps * 1000);
        let mut t = Time::ZERO;
        for (id, &(gap, bytes, late)) in steps.iter().enumerate() {
            // The shard looks in some time after the last step, or not at all.
            if late % 3 != 0 {
                rel.poll(t + Duration::from_micros(late % (gap + 1)));
            }
            t += Duration::from_micros(gap);
            if id == throttle_at {
                cmp.run_to(t);
                cmp.link.set_rate(throttle);
                rel.poll(t);
                rel.link.set_rate(throttle);
            }
            if id == crash_at {
                cmp.run_to(t);
                cmp.link.crash();
                (cmp.done_at, cmp.waiting) = (None, VecDeque::new());
                rel.poll(t);
                rel.link.crash();
            }
            let accepted = cmp.offer(t, bytes, id);
            prop_assert_eq!(rel.link.offer(t, bytes, id), accepted, "drop decision of {}", id);
        }
        // Long enough to drain any backlog the bound admits, at any rate.
        let end = t + Duration::from_secs(3_600);
        cmp.run_to(end);
        rel.poll(end);
        prop_assert_eq!(&rel.releases, &cmp.starts);
        prop_assert_eq!(rel.link.stats().msgs_dropped, cmp.link.stats().msgs_dropped);
        prop_assert_eq!(rel.link.stats().bytes_dropped, cmp.link.stats().bytes_dropped);
        prop_assert!(!rel.link.is_busy() && rel.link.queue_capacity() == 0, "drained");
    }
}
