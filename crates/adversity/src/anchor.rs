//! Wall-clock anchoring of the compiled fault timeline.
//!
//! Inside one process every shard shares a `ClusterClock`, so `Time::ZERO`
//! is trivially the same everywhere. Across *processes* there is no shared
//! `Instant`: the coordinator instead broadcasts one UNIX timestamp — the
//! agreed stream start — and every process maps it onto its own monotonic
//! clock with [`WallClockAnchor::epoch_instant`]. All processes then compile
//! the identical [`crate::FaultTimeline`] from the shared spec and play it
//! against clocks whose zero points coincide to within host wall-clock skew
//! (NTP-class skew is far below the gossip period, so cross-process fault
//! events stay effectively synchronised).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// An agreed start instant, expressed as UNIX microseconds so it survives a
/// trip through a control socket between hosts.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use gossip_adversity::WallClockAnchor;
///
/// // Coordinator side: start two hundred milliseconds from now.
/// let anchor = WallClockAnchor::starting_in(Duration::from_millis(200));
/// // Worker side (possibly another process): recover a local Instant.
/// let epoch = WallClockAnchor::new(anchor.start_unix_micros).epoch_instant();
/// assert!(epoch >= std::time::Instant::now());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallClockAnchor {
    /// The agreed start, in microseconds since the UNIX epoch.
    pub start_unix_micros: u64,
}

impl WallClockAnchor {
    /// Wraps an agreed start received from a coordinator.
    pub fn new(start_unix_micros: u64) -> Self {
        WallClockAnchor { start_unix_micros }
    }

    /// An anchor `delay` into the future — the coordinator picks the delay
    /// large enough for every process to receive the anchor before it fires.
    pub fn starting_in(delay: Duration) -> Self {
        WallClockAnchor { start_unix_micros: now_unix_micros() + delay.as_micros() as u64 }
    }

    /// Maps the anchor onto this process's monotonic clock: the `Instant`
    /// at which the shared timeline's `Time::ZERO` occurs. For an anchor in
    /// the past beyond what the monotonic clock can represent, saturates at
    /// the earliest representable instant.
    pub fn epoch_instant(&self) -> Instant {
        let now_wall = now_unix_micros();
        let now = Instant::now();
        if self.start_unix_micros >= now_wall {
            now + Duration::from_micros(self.start_unix_micros - now_wall)
        } else {
            let behind = Duration::from_micros(now_wall - self.start_unix_micros);
            now.checked_sub(behind).unwrap_or(now)
        }
    }
}

/// The current wall clock, in microseconds since the UNIX epoch.
pub fn now_unix_micros() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_anchor_maps_to_future_instant() {
        let anchor = WallClockAnchor::starting_in(Duration::from_secs(2));
        let epoch = anchor.epoch_instant();
        assert!(epoch > Instant::now() + Duration::from_millis(500));
    }

    #[test]
    fn past_anchor_is_saturating() {
        let anchor = WallClockAnchor::new(now_unix_micros().saturating_sub(1_000_000));
        assert!(anchor.epoch_instant() <= Instant::now());
    }

    #[test]
    fn anchor_roundtrips_through_micros() {
        let anchor = WallClockAnchor::starting_in(Duration::from_millis(50));
        let copy = WallClockAnchor::new(anchor.start_unix_micros);
        assert_eq!(anchor, copy);
    }
}
