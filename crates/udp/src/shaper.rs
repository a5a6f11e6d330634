//! The upload limiter under the name the benchmark's ledger imports.

/// [`gossip_net::UploadLink`], the one limiter every host paces through.
///
/// ```
/// use gossip_types::{Duration, Time};
/// let mut link = gossip_udp::shaper::UploadShaper::new(None, Duration::MAX);
/// assert!(link.offer(Time::ZERO, 8, "a") && link.pop_due(Time::ZERO) == Some("a"));
/// ```
pub type UploadShaper<T> = gossip_net::UploadLink<T>;
