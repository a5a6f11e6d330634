//! Per-node protocol counters.

gossip_types::counters! {
    /// Counters of the protocol's activity on one node.
    ///
    /// These are diagnostics — none of the paper's metrics depend on them — but
    /// they make congestion collapse legible: at high fanouts
    /// [`ProtocolStats::proposes_sent`] explodes while
    /// [`ProtocolStats::serves_received`] stalls.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProtocolStats {
        /// Gossip rounds executed.
        rounds,
        /// `[PROPOSE]` messages sent.
        proposes_sent,
        /// `[PROPOSE]` messages received.
        proposes_received,
        /// Ids received in proposals that were already requested or delivered
        /// (redundant gossip).
        duplicate_ids_proposed,
        /// `[REQUEST]` messages sent.
        requests_sent,
        /// `[REQUEST]` messages received.
        requests_received,
        /// Requested ids this node could not serve (pruned or never held).
        unservable_ids,
        /// `[SERVE]` messages sent.
        serves_sent,
        /// `[SERVE]` messages received.
        serves_received,
        /// Events delivered to the application.
        events_delivered,
        /// Events received more than once (wasted payload bandwidth).
        duplicate_events_received,
        /// Retransmission requests sent (lines 14–15/25 of Algorithm 1).
        retransmit_requests,
        /// Feed-me messages sent.
        feedmes_sent,
        /// Feed-me messages received.
        feedmes_received,
        /// Feed-me messages that actually changed the receiver's view.
        feedmes_adopted,
        /// Served events whose payload failed [`Event::verify`] and were
        /// dropped before delivery/storage/re-proposal (validate-before-relay).
        ///
        /// [`Event::verify`]: crate::Event::verify
        corrupted_events_detected,
        /// Corrupted ids re-requested from an alternate proposer.
        corrupt_rerequests,
        /// Peers demoted out of partner selection for repeated misbehaviour.
        peers_demoted,
        /// `[PROPOSE]` messages ignored because the sender was demoted.
        proposes_from_demoted_ignored,
        /// Proposed or served ids rejected by the dense-offset horizon
        /// (garbage ids that would otherwise inflate per-window bookkeeping
        /// rows).
        garbage_ids_rejected,
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
