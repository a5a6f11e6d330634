//! Per-node protocol counters.

/// Counters of the protocol's activity on one node.
///
/// These are diagnostics — none of the paper's metrics depend on them — but
/// they make congestion collapse legible: at high fanouts
/// [`ProtocolStats::proposes_sent`] explodes while
/// [`ProtocolStats::serves_received`] stalls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Gossip rounds executed.
    pub rounds: u64,
    /// `[PROPOSE]` messages sent.
    pub proposes_sent: u64,
    /// `[PROPOSE]` messages received.
    pub proposes_received: u64,
    /// Ids received in proposals that were already requested or delivered
    /// (redundant gossip).
    pub duplicate_ids_proposed: u64,
    /// `[REQUEST]` messages sent.
    pub requests_sent: u64,
    /// `[REQUEST]` messages received.
    pub requests_received: u64,
    /// Requested ids this node could not serve (pruned or never held).
    pub unservable_ids: u64,
    /// `[SERVE]` messages sent.
    pub serves_sent: u64,
    /// `[SERVE]` messages received.
    pub serves_received: u64,
    /// Events delivered to the application.
    pub events_delivered: u64,
    /// Events received more than once (wasted payload bandwidth).
    pub duplicate_events_received: u64,
    /// Retransmission requests sent (lines 14–15/25 of Algorithm 1).
    pub retransmit_requests: u64,
    /// Feed-me messages sent.
    pub feedmes_sent: u64,
    /// Feed-me messages received.
    pub feedmes_received: u64,
    /// Feed-me messages that actually changed the receiver's view.
    pub feedmes_adopted: u64,
    /// Served events whose payload failed [`Event::verify`] and were
    /// dropped before delivery/storage/re-proposal (validate-before-relay).
    ///
    /// [`Event::verify`]: crate::Event::verify
    pub corrupted_events_detected: u64,
    /// Corrupted ids re-requested from an alternate proposer.
    pub corrupt_rerequests: u64,
    /// Peers demoted out of partner selection for repeated misbehaviour.
    pub peers_demoted: u64,
    /// `[PROPOSE]` messages ignored because the sender was demoted.
    pub proposes_from_demoted_ignored: u64,
    /// Proposed or served ids rejected by the dense-offset horizon
    /// (garbage ids that would otherwise inflate per-window bookkeeping
    /// rows).
    pub garbage_ids_rejected: u64,
}

impl ProtocolStats {
    /// Merges another node's counters into this one (for aggregate views).
    pub fn merge(&mut self, other: &ProtocolStats) {
        self.rounds += other.rounds;
        self.proposes_sent += other.proposes_sent;
        self.proposes_received += other.proposes_received;
        self.duplicate_ids_proposed += other.duplicate_ids_proposed;
        self.requests_sent += other.requests_sent;
        self.requests_received += other.requests_received;
        self.unservable_ids += other.unservable_ids;
        self.serves_sent += other.serves_sent;
        self.serves_received += other.serves_received;
        self.events_delivered += other.events_delivered;
        self.duplicate_events_received += other.duplicate_events_received;
        self.retransmit_requests += other.retransmit_requests;
        self.feedmes_sent += other.feedmes_sent;
        self.feedmes_received += other.feedmes_received;
        self.feedmes_adopted += other.feedmes_adopted;
        self.corrupted_events_detected += other.corrupted_events_detected;
        self.corrupt_rerequests += other.corrupt_rerequests;
        self.peers_demoted += other.peers_demoted;
        self.proposes_from_demoted_ignored += other.proposes_from_demoted_ignored;
        self.garbage_ids_rejected += other.garbage_ids_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_everything() {
        let mut a = ProtocolStats { rounds: 1, proposes_sent: 2, ..Default::default() };
        let b = ProtocolStats {
            rounds: 10,
            serves_sent: 5,
            feedmes_adopted: 1,
            corrupted_events_detected: 3,
            peers_demoted: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rounds, 11);
        assert_eq!(a.proposes_sent, 2);
        assert_eq!(a.serves_sent, 5);
        assert_eq!(a.feedmes_adopted, 1);
        assert_eq!(a.corrupted_events_detected, 3);
        assert_eq!(a.peers_demoted, 1);
    }

    #[test]
    fn default_is_zeroed() {
        let s = ProtocolStats::default();
        assert_eq!(s.events_delivered, 0);
        assert_eq!(s.retransmit_requests, 0);
    }
}
