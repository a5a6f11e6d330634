//! Stream configuration.

use gossip_fec::WindowParams;
use gossip_types::Duration;

/// Parameters of the video stream.
///
/// The defaults are the paper's: a 600 kbps stream cut into 1000-byte
/// payloads (75 packets/s), grouped into windows of 110 packets of which 9
/// are FEC parity. The rate is *gross*: the 110-packet windows include the
/// parity, so the payload put on the wire per second is exactly
/// `rate_bps` — this is the only reading under which a 600 kbps stream fits
/// through the paper's 700 kbps upload caps at all.
///
/// # Examples
///
/// ```
/// use gossip_stream::StreamConfig;
/// use gossip_types::Duration;
///
/// let c = StreamConfig::paper_default();
/// assert_eq!(c.packets_per_second(), 75.0);
/// assert_eq!(c.packet_interval(), Duration::from_micros(13_333));
/// // A full window of 110 packets spans ~1.47 s of stream.
/// assert_eq!(c.window_duration(), Duration::from_micros(110 * 13_333));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Gross stream bit rate in bits per second, parity included (paper:
    /// 600 kbps).
    pub rate_bps: u64,
    /// Payload bytes per packet (1000 B → 75 packets/s at 600 kbps).
    pub packet_payload_bytes: usize,
    /// FEC window geometry (paper: 101 data + 9 parity).
    pub window: WindowParams,
}

impl StreamConfig {
    /// The paper's streaming configuration.
    pub const fn paper_default() -> Self {
        StreamConfig {
            rate_bps: 600_000,
            packet_payload_bytes: 1000,
            window: WindowParams::paper_default(),
        }
    }

    /// A scaled-down configuration for fast tests and microbenchmarks:
    /// 100 kbps, 500-byte payloads, windows of 20+4.
    pub const fn test_small() -> Self {
        StreamConfig {
            rate_bps: 100_000,
            packet_payload_bytes: 500,
            window: WindowParams::new(20, 4),
        }
    }

    /// Packets (data and parity) emitted per second.
    pub fn packets_per_second(&self) -> f64 {
        self.rate_bps as f64 / 8.0 / self.packet_payload_bytes as f64
    }

    /// Time between consecutive packets.
    pub fn packet_interval(&self) -> Duration {
        let micros = (self.packet_payload_bytes as u128 * 8_000_000) / self.rate_bps as u128;
        Duration::from_micros(micros as u64)
    }

    /// Stream time covered by one full window (`total_packets` slots).
    pub fn window_duration(&self) -> Duration {
        self.packet_interval() * self.window.total_packets() as u64
    }

    /// The number of windows fully published after streaming for `elapsed`.
    pub fn windows_published(&self, elapsed: Duration) -> u64 {
        elapsed / self.window_duration()
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let c = StreamConfig::paper_default();
        assert_eq!(c.rate_bps, 600_000);
        assert_eq!(c.packets_per_second(), 75.0);
        assert_eq!(c.window.total_packets(), 110);
        // A 110-packet window takes ~1.467 s on the wire.
        let wd = c.window_duration();
        assert!((1.46..1.47).contains(&wd.as_secs_f64()), "window duration {wd}");
    }

    #[test]
    fn windows_published_counts_full_windows() {
        let c = StreamConfig::paper_default();
        assert_eq!(c.windows_published(Duration::from_secs(0)), 0);
        assert_eq!(c.windows_published(c.window_duration()), 1);
        assert_eq!(c.windows_published(Duration::from_secs(60)), 40);
    }
}
