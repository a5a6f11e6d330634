//! Adaptive retransmission timeout (Jacobson/Karn).
//!
//! The paper's Algorithm 1 re-requests unanswered events after a fixed
//! `retPeriod`, but a fixed period is unstable in the very regime the paper
//! studies: once upload queues exceed the period, every *delayed* serve is
//! re-requested, multiplying serve traffic by `K` and locking the system
//! into congestion (we reproduced this). Deployed
//! implementations solve this the way TCP does, and so do we:
//!
//! * smoothed RTT + variance estimation (Jacobson):
//!   `RTO = SRTT + 4·RTTVAR`, clamped to `[rto_min, rto_max]`;
//! * samples only from first requests (Karn's rule — a serve answering a
//!   re-request is ambiguous);
//! * exponential backoff across retries of the same proposal.
//!
//! Under light load the RTO settles near the true request→serve delay
//! (sub-second), recovering losses quickly; under congestion it tracks the
//! queueing delay, so retransmissions stop amplifying the overload.

use gossip_types::Duration;

/// Smoothed request→serve delay estimator with TCP-style RTO computation.
///
/// # Examples
///
/// ```
/// use gossip_core::rto::RttEstimator;
/// use gossip_types::Duration;
///
/// let mut est = RttEstimator::new(
///     Duration::from_millis(1000), // initial RTO before any sample
///     Duration::from_millis(200),  // floor
///     Duration::from_secs(20),     // ceiling
/// );
/// assert_eq!(est.rto(), Duration::from_millis(1000));
/// est.sample(Duration::from_millis(100));
/// assert!(est.rto() < Duration::from_millis(1000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    initial: Duration,
    rto_min: Duration,
    rto_max: Duration,
    srtt: Option<Duration>,
    rttvar: Duration,
}

impl RttEstimator {
    /// Creates an estimator that answers `initial` until the first sample.
    ///
    /// # Panics
    ///
    /// Panics if `rto_min > rto_max`.
    pub fn new(initial: Duration, rto_min: Duration, rto_max: Duration) -> Self {
        assert!(rto_min <= rto_max, "rto_min must not exceed rto_max");
        RttEstimator { initial, rto_min, rto_max, srtt: None, rttvar: Duration::ZERO }
    }

    /// Feeds one request→serve delay sample (first-request samples only —
    /// Karn's rule is the caller's responsibility).
    pub fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                // RFC 6298 initialisation.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - RTT|
                let delta = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = (self.rttvar * 3) / 4 + delta / 4;
                // SRTT = 7/8 SRTT + 1/8 RTT
                self.srtt = Some((srtt * 7) / 8 + rtt / 8);
            }
        }
    }

    /// Returns the current retransmission timeout:
    /// `clamp(max(SRTT + 4·RTTVAR, 2·SRTT))`, or the initial value before
    /// any sample.
    ///
    /// The `2·SRTT` term is a departure from textbook TCP, needed because
    /// serve delays in a congested swarm concentrate (variance decays while
    /// the mean is high): without a multiplicative guard the timeout
    /// converges onto the *median* delay and every in-flight serve gets
    /// re-requested — the congestion spiral the module docs describe.
    pub fn rto(&self) -> Duration {
        match self.srtt {
            None => self.initial.max(self.rto_min).min(self.rto_max),
            Some(srtt) => {
                let jacobson = srtt + self.rttvar * 4;
                jacobson.max(srtt * 2).max(self.rto_min).min(self.rto_max)
            }
        }
    }

    /// Returns the RTO for the `attempt`-th retry (1-based), with
    /// exponential backoff capped at the ceiling.
    pub fn rto_backoff(&self, attempt: u32) -> Duration {
        let base = self.rto();
        let factor = 1u64 << attempt.saturating_sub(1).min(10);
        (base * factor).min(self.rto_max)
    }

    /// Returns the smoothed RTT, if any sample arrived yet.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            Duration::from_millis(1000),
            Duration::from_millis(200),
            Duration::from_secs(20),
        )
    }

    #[test]
    fn initial_rto_before_samples() {
        assert_eq!(est().rto(), Duration::from_millis(1000));
        assert_eq!(est().srtt(), None);
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.sample(Duration::from_millis(400));
        assert_eq!(e.srtt(), Some(Duration::from_millis(400)));
        // RTO = 400 + 4 × 200 = 1200 ms.
        assert_eq!(e.rto(), Duration::from_millis(1200));
    }

    #[test]
    fn steady_samples_converge_and_tighten() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(Duration::from_millis(300));
        }
        let srtt = e.srtt().expect("sampled");
        assert!(
            (Duration::from_millis(295)..=Duration::from_millis(305)).contains(&srtt),
            "srtt {srtt} should converge to 300 ms"
        );
        // Variance decays toward zero; the 2×SRTT guard then dominates.
        assert_eq!(e.rto(), srtt * 2, "rto should settle at the 2xSRTT guard");
    }

    #[test]
    fn congestion_raises_rto() {
        let mut e = est();
        for _ in 0..10 {
            e.sample(Duration::from_millis(300));
        }
        let before = e.rto();
        for _ in 0..10 {
            e.sample(Duration::from_secs(8));
        }
        assert!(e.rto() > before * 4, "rto must chase queueing delay");
    }

    #[test]
    fn rto_respects_bounds() {
        let mut e = est();
        e.sample(Duration::from_micros(1));
        assert_eq!(e.rto(), Duration::from_millis(200), "floor");
        for _ in 0..50 {
            e.sample(Duration::from_secs(60));
        }
        assert_eq!(e.rto(), Duration::from_secs(20), "ceiling");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(Duration::from_millis(1000));
        }
        let base = e.rto();
        assert_eq!(e.rto_backoff(1), base);
        assert_eq!(e.rto_backoff(2), (base * 2).min(Duration::from_secs(20)));
        assert_eq!(e.rto_backoff(30), Duration::from_secs(20), "capped");
    }

    #[test]
    #[should_panic(expected = "rto_min")]
    fn inverted_bounds_panic() {
        RttEstimator::new(Duration::ZERO, Duration::from_secs(2), Duration::from_secs(1));
    }
}
