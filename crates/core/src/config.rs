//! Protocol configuration: the knobs the paper turns.

use gossip_types::{Duration, Time};

/// Configuration of the gossip protocol.
///
/// The defaults reproduce the paper's streaming configuration: a 200 ms
/// gossip period, adaptive-RTO retransmission with up to `K - 1 = 2` extra
/// requests per event,
/// a source fanout of 7, fully proactive partner refresh (`X = 1`) and no
/// feed-me requests (`Y = ∞`).
///
/// # Examples
///
/// ```
/// use gossip_core::GossipConfig;
/// use gossip_types::Duration;
///
/// let config = GossipConfig::new(7)
///     .with_refresh_rounds(Some(1))
///     .with_feedme_rounds(None);
/// assert_eq!(config.fanout, 7);
/// assert_eq!(config.gossip_period, Duration::from_millis(200));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipConfig {
    /// Fanout `f`: number of partners contacted per gossip round.
    pub fanout: usize,
    /// The gossip period (paper: 200 ms).
    pub gossip_period: Duration,
    /// `X`: partners are re-drawn every `X` rounds; `None` means `X = ∞`
    /// (the partner set never changes — a static mesh).
    pub refresh_rounds: Option<u32>,
    /// `Y`: every `Y` rounds the node sends feed-me requests to `f` random
    /// nodes; `None` means `Y = ∞` (no feed-me traffic).
    pub feedme_rounds: Option<u32>,
    /// Initial retransmission timeout (the RTO before any request→serve
    /// delay has been observed). The paper's fixed `retPeriod` is replaced
    /// by an adaptive Jacobson/Karn estimator (see [`crate::rto`]); this is
    /// its starting value.
    pub retransmit_timeout: Duration,
    /// Lower bound of the adaptive retransmission timeout.
    pub rto_min: Duration,
    /// Upper bound of the adaptive retransmission timeout (also caps the
    /// exponential backoff).
    pub rto_max: Duration,
    /// `K`: the maximum number of times an event may be requested (the
    /// initial request plus `K - 1` retransmissions).
    pub max_requests_per_event: u32,
    /// Fanout used by the stream source for its own proposals (paper: 7 in
    /// all experiments, independent of `f`).
    pub source_fanout: usize,
    /// How many consecutive rounds a freshly delivered id is proposed.
    /// `1` is the paper's infect-and-die; larger values are the
    /// infect-forever-style ablation.
    pub propose_lifetime_rounds: u32,
    /// How long a node remembers an event. A payload delivered longer ago
    /// is no longer retained (it can no longer be served), and a window
    /// whose every id was delivered or first requested longer ago leaves
    /// the id table whole: its ids are *expired* from then on — never
    /// requested, never recorded again. Bounds a node's memory by this
    /// horizon instead of the stream's length; irrelevant to the metrics as
    /// long as it comfortably exceeds the largest lag measured and the
    /// retransmission span (`K` requests, each at most `rto_max`). A
    /// retained payload lives in the node's own copies or in its host's
    /// [`PacketPool`](crate::pool::PacketPool), which keeps each packet
    /// this long plus one `gossip_period` after its latest delivery.
    pub retention: Duration,
    /// Maximum events per `[SERVE]` datagram.
    ///
    /// The paper's implementation runs over UDP, where a 1000-byte stream
    /// packet fills a datagram: serves are one event per message, paced by
    /// the uplink. Batching more events per message is unrealistic *and*
    /// harmful — it keeps a round's ids glued together hop after hop, so a
    /// single loss removes more packets from a window than FEC can absorb.
    pub max_serve_events_per_message: usize,
    /// Whether served payloads are checked against their integrity
    /// metadata ([`gossip_core::Event::verify`](crate::Event::verify))
    /// before delivery, storage and re-proposal. Disabling this models the
    /// undefended protocol under Byzantine serve-corruptors (an ablation);
    /// honest deployments leave it on.
    pub verify_payloads: bool,
    /// How many misbehaviours (corrupted payloads, garbage ids) a peer may
    /// accumulate before it is demoted out of partner selection and its
    /// proposals are ignored.
    pub misbehaviour_threshold: u32,
    /// Upper bound on the dense-key *offset* of a proposed or served id.
    /// Ids above the horizon are rejected (and scored as misbehaviour)
    /// instead of inflating per-window bookkeeping rows — a Byzantine peer
    /// could otherwise grow a row to its largest claimed offset. The
    /// default admits any 16-bit packet index, which no honest stream
    /// exceeds.
    pub propose_offset_horizon: u32,
}

impl GossipConfig {
    /// Creates the paper's default configuration with the given fanout.
    pub fn new(fanout: usize) -> Self {
        GossipConfig {
            fanout,
            gossip_period: Duration::from_millis(200),
            refresh_rounds: Some(1),
            feedme_rounds: None,
            retransmit_timeout: Duration::from_millis(8000),
            rto_min: Duration::from_millis(4000),
            rto_max: Duration::from_secs(30),
            max_requests_per_event: 3,
            source_fanout: 7,
            propose_lifetime_rounds: 1,
            retention: Duration::from_secs(120),
            max_serve_events_per_message: 1,
            verify_payloads: true,
            misbehaviour_threshold: 3,
            propose_offset_horizon: 1 << 16,
        }
    }

    /// Returns the fanout `ln(n) + c` suggested by the theory for a system
    /// of `n` nodes (rounded to the nearest integer).
    ///
    /// # Examples
    ///
    /// ```
    /// // ln(230) ≈ 5.44, so c = 2 gives the paper's optimal fanout of 7.
    /// assert_eq!(gossip_core::GossipConfig::theoretical_fanout(230, 2.0), 7);
    /// ```
    pub fn theoretical_fanout(n: usize, c: f64) -> usize {
        ((n as f64).ln() + c).round().max(1.0) as usize
    }

    /// Sets the view refresh rate `X` (`None` = `∞`).
    pub fn with_refresh_rounds(mut self, x: Option<u32>) -> Self {
        assert!(x != Some(0), "X = 0 is meaningless; use Some(1) for per-round refresh");
        self.refresh_rounds = x;
        self
    }

    /// Sets the feed-me request rate `Y` (`None` = `∞`).
    pub fn with_feedme_rounds(mut self, y: Option<u32>) -> Self {
        assert!(y != Some(0), "Y = 0 is meaningless; use Some(1) for per-round feed-me");
        self.feedme_rounds = y;
        self
    }

    /// Sets the fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the gossip period.
    pub fn with_gossip_period(mut self, period: Duration) -> Self {
        assert!(!period.is_zero(), "gossip period must be positive");
        self.gossip_period = period;
        self
    }

    /// Sets the initial retransmission timeout.
    pub fn with_retransmit_timeout(mut self, timeout: Duration) -> Self {
        self.retransmit_timeout = timeout;
        self
    }

    /// Sets the bounds of the adaptive retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn with_rto_bounds(mut self, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "rto_min must not exceed rto_max");
        self.rto_min = min;
        self.rto_max = max;
        self
    }

    /// Sets `K`, the total request budget per event (0 disables requesting
    /// entirely, which is only useful in ablations).
    pub fn with_max_requests(mut self, k: u32) -> Self {
        self.max_requests_per_event = k;
        self
    }

    /// Sets the source's proposal fanout.
    pub fn with_source_fanout(mut self, fanout: usize) -> Self {
        self.source_fanout = fanout;
        self
    }

    /// Sets how many rounds an id stays in the propose set (1 =
    /// infect-and-die).
    pub fn with_propose_lifetime(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "ids must be proposed for at least one round");
        self.propose_lifetime_rounds = rounds;
        self
    }

    /// Sets the serve-store retention horizon.
    pub fn with_retention(mut self, retention: Duration) -> Self {
        self.retention = retention;
        self
    }

    /// The oldest time still inside the retention horizon at `now`:
    /// payloads delivered before it are pruned, and so are windows whose
    /// ids all date from before it. `None` while nothing can be that old
    /// yet (or retention is unbounded). The one rule a node's table and a
    /// host's shared payload table both prune by.
    pub fn retention_cutoff(&self, now: Time) -> Option<Time> {
        if self.retention == Duration::MAX {
            return None;
        }
        now.as_micros().checked_sub(self.retention.as_micros()).map(Time::from_micros)
    }

    /// Sets the maximum number of events per `[SERVE]` datagram (1 =
    /// MTU-realistic UDP; larger values are an ablation).
    pub fn with_serve_batch(mut self, events: usize) -> Self {
        assert!(events >= 1, "a serve must carry at least one event");
        self.max_serve_events_per_message = events;
        self
    }

    /// Enables or disables payload verification (validate-before-relay).
    pub fn with_verify_payloads(mut self, verify: bool) -> Self {
        self.verify_payloads = verify;
        self
    }

    /// Sets how many misbehaviours demote a peer.
    pub fn with_misbehaviour_threshold(mut self, threshold: u32) -> Self {
        assert!(threshold >= 1, "a zero threshold would demote everyone preemptively");
        self.misbehaviour_threshold = threshold;
        self
    }

    /// Sets the dense-offset horizon for proposed and served ids.
    pub fn with_propose_offset_horizon(mut self, horizon: u32) -> Self {
        assert!(horizon >= 1, "a zero horizon would reject every id");
        self.propose_offset_horizon = horizon;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = GossipConfig::new(7);
        assert_eq!(c.fanout, 7);
        assert_eq!(c.gossip_period, Duration::from_millis(200));
        assert_eq!(c.refresh_rounds, Some(1));
        assert_eq!(c.feedme_rounds, None);
        assert_eq!(c.source_fanout, 7);
        assert_eq!(c.propose_lifetime_rounds, 1);
    }

    #[test]
    fn theoretical_fanout_matches_paper() {
        assert_eq!(GossipConfig::theoretical_fanout(230, 2.0), 7);
        assert_eq!(GossipConfig::theoretical_fanout(1, 0.0), 1, "floors at 1");
    }

    #[test]
    fn builder_chains() {
        let c = GossipConfig::new(10)
            .with_fanout(12)
            .with_refresh_rounds(Some(5))
            .with_feedme_rounds(Some(10))
            .with_gossip_period(Duration::from_millis(100))
            .with_retransmit_timeout(Duration::from_millis(300))
            .with_max_requests(5)
            .with_source_fanout(9)
            .with_propose_lifetime(2)
            .with_retention(Duration::from_secs(30));
        assert_eq!(c.fanout, 12);
        assert_eq!(c.refresh_rounds, Some(5));
        assert_eq!(c.feedme_rounds, Some(10));
        assert_eq!(c.gossip_period, Duration::from_millis(100));
        assert_eq!(c.retransmit_timeout, Duration::from_millis(300));
        assert_eq!(c.max_requests_per_event, 5);
        assert_eq!(c.source_fanout, 9);
        assert_eq!(c.propose_lifetime_rounds, 2);
        assert_eq!(c.retention, Duration::from_secs(30));
    }

    #[test]
    fn defense_defaults_and_builders() {
        let c = GossipConfig::new(7);
        assert!(c.verify_payloads, "validate-before-relay is on by default");
        assert_eq!(c.misbehaviour_threshold, 3);
        assert_eq!(c.propose_offset_horizon, 1 << 16);
        let c = c
            .with_verify_payloads(false)
            .with_misbehaviour_threshold(5)
            .with_propose_offset_horizon(128);
        assert!(!c.verify_payloads);
        assert_eq!(c.misbehaviour_threshold, 5);
        assert_eq!(c.propose_offset_horizon, 128);
    }

    #[test]
    #[should_panic(expected = "demote everyone")]
    fn zero_misbehaviour_threshold_rejected() {
        GossipConfig::new(7).with_misbehaviour_threshold(0);
    }

    #[test]
    #[should_panic(expected = "X = 0")]
    fn zero_refresh_rejected() {
        GossipConfig::new(7).with_refresh_rounds(Some(0));
    }

    #[test]
    #[should_panic(expected = "Y = 0")]
    fn zero_feedme_rejected() {
        GossipConfig::new(7).with_feedme_rounds(Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_propose_lifetime_rejected() {
        GossipConfig::new(7).with_propose_lifetime(0);
    }
}
