//! One copy of every packet per host: the table a host's nodes serve from.
//!
//! Every node of a host receives the same stream, so a host keeps one
//! [`PacketPool`] and lends it with every input it hands a node
//! ([`GossipNode::on_message_pooled`](crate::GossipNode::on_message_pooled),
//! or a frame's [`Frame::with_pool`](crate::wire::Frame::with_pool)), and
//! offers it a prune at every instant it runs — the pool prunes once a
//! gossip period. A node that
//! delivers a packet the pool already holds, byte for byte, keeps no copy
//! of its own: its id table says the payload is retained, and a request
//! for it is served from the pool. Only what the pool did not hold equal at
//! delivery is the node's own copy — every packet when no pool is lent, the
//! first delivery of a packet in the host, a source's publishes, and a
//! corrupted or forged packet the node accepted.
//!
//! # What fills it
//!
//! The host, and only with packets it has seen pass
//! [`Event::verify`]: the deliveries its nodes report as intact. The pool
//! keeps the first copy of each id — a later delivery of a different
//! packet under the same id does not replace it — and the latest time any
//! node delivered that id.
//!
//! # When a pooled packet may go
//!
//! At its latest delivery plus `retention` plus one `gossip_period`, and
//! never before. A node retains a payload it delivered at `at` while
//! `at ≥ c`, where `c` is the cutoff of its last prune — the
//! [`GossipConfig::retention_cutoff`] of its last round — and it relies on
//! the pool only for an id whose delivery the host observed, at `at`: so
//! `latest ≥ at`. Take a request served at `t`, and a pool prune at
//! `T ≤ t` that drops what has `latest < T − retention − period`:
//!
//! * A node that has had a round: hosts fire every round due at or before
//!   an instant before they hand a node that instant's input, and a node's
//!   rounds come one `gossip_period` apart, so its last round ran at some
//!   `f ≥ t − period`. It retains only `at ≥ f − retention ≥ t −
//!   retention − period ≥ T − retention − period`, which the pool keeps.
//! * A node that has not pruned yet — at the start of a run, or a revived
//!   or joining node, whose state is fresh — delivered nothing before it
//!   came up at `r`, and hosts stagger its first round within one period of
//!   `r`: so `t < r + period ≤ at + period`, and again
//!   `at > t − period ≥ T − retention − period`.
//!
//! Either way a retained id's packet is still pooled whenever its node
//! serves it; a node checks this on every serve (a `debug_assert!`).
//! Pruning whole windows only, from the oldest, keeps more than that bound
//! and never less: a window goes once every packet in it is past the
//! bound, and the pool's floor then keeps out later deliveries of its ids,
//! as a node's record floor does.

use gossip_types::Time;

use crate::config::GossipConfig;
use crate::event::Event;
use crate::index::{DenseMap, EventIndex};
use crate::wire::EventPool;

/// A host's shared table of intact packets (see the
/// [module documentation](self)).
pub struct PacketPool<E: Event> {
    /// Each pooled packet and the latest time a node delivered its id.
    by_id: DenseMap<E::Id, (E, Time)>,
    /// Windows before this one left the pool whole and take no packet again.
    floor: u64,
    /// The earliest instant the next prune runs: one a gossip period.
    next_prune: Time,
}

impl<E: Event> std::fmt::Debug for PacketPool<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("by_id", &self.by_id)
            .field("floor", &self.floor)
            .field("next_prune", &self.next_prune)
            .finish()
    }
}

impl<E: Event> Default for PacketPool<E> {
    fn default() -> Self {
        PacketPool { by_id: DenseMap::new(), floor: 0, next_prune: Time::ZERO }
    }
}

impl<E: Event> PacketPool<E> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that a node delivered `packet` at `now`. The caller has seen
    /// it pass [`Event::verify`]. The first packet of an id is the one
    /// kept; every delivery of the id extends how long it is kept.
    pub fn insert(&mut self, packet: E, now: Time) {
        let id = packet.id();
        if id.dense_key().0 < self.floor {
            return;
        }
        let (_, latest) = self.by_id.get_or_insert_with(id, || (packet, now));
        *latest = (*latest).max(now);
    }

    /// Drops every oldest window whose packets were all last delivered
    /// more than `retention` plus one `gossip_period` before `now` — if a
    /// gossip period has passed since the last prune, else nothing.
    pub fn prune(&mut self, config: &GossipConfig, now: Time) {
        if now < self.next_prune {
            return;
        }
        self.next_prune = now.saturating_add(config.gossip_period);
        let Some(cutoff) = config.retention_cutoff(now) else { return };
        let Some(cutoff) = cutoff.as_micros().checked_sub(config.gossip_period.as_micros()) else {
            return;
        };
        let cutoff = Time::from_micros(cutoff);
        if let Some(floor) = self.by_id.drop_expired_rows(|(_, latest)| *latest < cutoff) {
            self.floor = self.floor.max(floor);
        }
    }

    /// Returns how many packets the pool holds.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` if the pool holds no packet.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

impl<E: Event> EventPool<E> for PacketPool<E> {
    fn lookup(&self, id: &E::Id) -> Option<&E> {
        self.by_id.get(id).map(|(packet, _)| packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TestEvent;
    use gossip_types::Duration;

    #[test]
    fn the_first_copy_stays_and_the_latest_delivery_decides_when_it_goes() {
        let config = GossipConfig::new(3).with_retention(Duration::from_secs(10));
        let period = config.gossip_period;
        let mut pool = PacketPool::new();
        pool.insert(TestEvent::new(1, 10), Time::ZERO);
        pool.insert(TestEvent::new(1, 10).corrupted(), Time::from_secs(5));
        pool.insert(TestEvent::new(300, 10), Time::ZERO);
        assert_eq!(pool.lookup(&1), Some(&TestEvent::new(1, 10)), "the first copy is kept");

        // Window 1 (id 300) goes one period past its horizon; window 0 is
        // held by id 1's later delivery, and holds window 1 behind it.
        pool.prune(&config, Time::from_secs(10) + period);
        assert_eq!(pool.len(), 2, "nothing is past retention + period yet");
        let later = Time::from_secs(10) + period * 2 + Duration::from_micros(1);
        pool.prune(&config, later - Duration::from_micros(2));
        pool.prune(&config, later);
        assert_eq!(pool.len(), 2, "window 1 waits behind window 0");
        pool.prune(&config, Time::from_secs(15) + period + Duration::from_micros(1));
        assert!(pool.is_empty(), "both windows went whole");
        // At most one prune a gossip period: a window past its horizon
        // waits for the next.
        pool.insert(TestEvent::new(600, 10), Time::ZERO);
        pool.prune(&config, Time::from_secs(15) + period + period / 2);
        assert_eq!(pool.len(), 1);
        pool.prune(&config, Time::from_secs(15) + period * 2 + Duration::from_micros(1));
        assert!(pool.is_empty());

        // A window below the floor is not pooled again.
        pool.insert(TestEvent::new(512, 10), Time::from_secs(20));
        assert!(pool.is_empty());
        pool.insert(TestEvent::new(768, 10), Time::from_secs(20));
        assert_eq!(pool.len(), 1);
    }
}
