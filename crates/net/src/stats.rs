//! Per-node network accounting.

use gossip_types::Duration;

gossip_types::counters! {
    /// Byte and message counters for one node's network activity.
    ///
    /// The transmit-side counters are maintained by
    /// [`crate::bandwidth::UploadLink`] on every host — a message counts as sent
    /// when the link hands it back, at completion in the simulator and at its
    /// start on a live shard; the receive-side ones by the experiment harness.
    /// Figure 4 of the paper is the distribution of [`NetStats::upload_kbps`]
    /// across nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use gossip_net::NetStats;
    /// use gossip_types::Duration;
    ///
    /// let stats = NetStats { bytes_sent: 8_750_000, ..NetStats::default() };
    /// assert_eq!(stats.upload_kbps(Duration::from_secs(100)), 700.0);
    /// ```
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NetStats {
        /// Bytes sent (wire bytes, including header overhead).
        bytes_sent,
        /// Messages sent.
        msgs_sent,
        /// Bytes dropped by the sender's own throttling queue.
        bytes_dropped,
        /// Messages dropped by the sender's own throttling queue.
        msgs_dropped,
        /// Bytes received.
        bytes_received,
        /// Messages received.
        msgs_received,
        /// Messages lost in the network (after transmission, before receipt).
        msgs_lost_in_network,
    }
}

impl NetStats {
    /// Returns the average upload rate in kbit/s over `elapsed`.
    pub fn upload_kbps(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.bytes_sent as f64 * 8.0 / 1000.0) / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_rate_computation() {
        let stats = NetStats { bytes_sent: 1_250, ..Default::default() };
        // 1250 bytes = 10_000 bits over 1 s = 10 kbps.
        assert_eq!(stats.upload_kbps(Duration::from_secs(1)), 10.0);
        assert_eq!(stats.upload_kbps(Duration::ZERO), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = NetStats { bytes_sent: 1, msgs_sent: 2, ..Default::default() };
        let b = NetStats {
            bytes_sent: 10,
            msgs_dropped: 3,
            msgs_lost_in_network: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_sent, 11);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.msgs_dropped, 3);
        assert_eq!(a.msgs_lost_in_network, 4);
    }
}
