//! A Cyclon-style peer sampling service.
//!
//! Each node keeps a bounded partial view of `(peer, age)` entries. Every
//! shuffle period it increments all ages, picks its *oldest* entry as a
//! shuffle partner, and sends it a random subset of its view (with itself,
//! age 0, included); the partner replies with a subset of its own view and
//! both merge, evicting first the entries they just sent away. The oldest
//! entry being the shuffle target gives the protocol its self-healing
//! property: entries for dead nodes age out because the dead never answer.
//!
//! The implementation is sans-io like the protocol core: the owner calls
//! [`CyclonView::on_shuffle_round`], delivers [`ShuffleMessage`]s via
//! [`CyclonView::on_message`], and forwards the returned replies.

use gossip_sim::DetRng;
use gossip_types::NodeId;

/// Configuration of the shuffling view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclonConfig {
    /// Maximum entries in the partial view (Cyclon's `c`; typically 20–50).
    pub view_size: usize,
    /// Entries exchanged per shuffle (Cyclon's `ℓ`; must be ≤ `view_size`).
    pub shuffle_size: usize,
}

impl CyclonConfig {
    /// A standard small-deployment configuration: view of 20, shuffles of 8.
    pub const fn default_small() -> Self {
        CyclonConfig { view_size: 20, shuffle_size: 8 }
    }
}

impl Default for CyclonConfig {
    fn default() -> Self {
        Self::default_small()
    }
}

/// One view entry: a peer and how many shuffle rounds ago we heard of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewEntry {
    node: NodeId,
    age: u32,
}

/// A shuffle exchange on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleMessage {
    /// Shuffle request carrying a subset of the sender's view.
    Request(
        /// `(node, age)` pairs offered by the requester.
        Vec<(NodeId, u32)>,
    ),
    /// Shuffle reply carrying a subset of the receiver's view.
    Reply(
        /// `(node, age)` pairs offered back.
        Vec<(NodeId, u32)>,
    ),
}

/// The Cyclon partial view of one node.
///
/// # Examples
///
/// ```
/// use gossip_membership::{CyclonConfig, CyclonView};
/// use gossip_types::NodeId;
///
/// let bootstrap: Vec<NodeId> = (0..=5).map(NodeId::new).collect();
/// let view = CyclonView::new(NodeId::new(0), CyclonConfig::default_small(), &bootstrap);
/// assert_eq!(view.view().len(), 5, "a view never lists its own node");
/// ```
#[derive(Debug, Clone)]
pub struct CyclonView {
    self_id: NodeId,
    config: CyclonConfig,
    entries: Vec<ViewEntry>,
    /// Entries sent in the last outgoing request, pending the reply (they
    /// are evicted first when the reply arrives).
    in_flight: Vec<NodeId>,
}

impl CyclonView {
    /// Creates a view seeded with `bootstrap` peers (age 0).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`shuffle_size` 0 or
    /// larger than `view_size`).
    pub fn new(self_id: NodeId, config: CyclonConfig, bootstrap: &[NodeId]) -> Self {
        assert!(
            config.shuffle_size >= 1 && config.shuffle_size <= config.view_size,
            "shuffle size must be in 1..=view_size"
        );
        let entries = bootstrap
            .iter()
            .filter(|&&n| n != self_id)
            .take(config.view_size)
            .map(|&node| ViewEntry { node, age: 0 })
            .collect();
        CyclonView { self_id, config, entries, in_flight: Vec::new() }
    }

    /// Executes one shuffle round: ages the view and initiates a shuffle
    /// with the oldest peer. Returns `(target, request)` to be sent, or
    /// `None` if the view is empty.
    pub fn on_shuffle_round(&mut self, rng: &mut DetRng) -> Option<(NodeId, ShuffleMessage)> {
        for e in &mut self.entries {
            e.age += 1;
        }
        let (oldest_idx, _) = self.entries.iter().enumerate().max_by_key(|(_, e)| e.age)?;
        let target = self.entries[oldest_idx].node;
        // The target is removed: if it is alive the reply replenishes the
        // view; if it is dead its entry is gone — self-healing.
        self.entries.swap_remove(oldest_idx);

        let mut offer = self.pick_subset(self.config.shuffle_size.saturating_sub(1), rng);
        offer.push((self.self_id, 0));
        self.in_flight = offer.iter().map(|&(n, _)| n).filter(|&n| n != self.self_id).collect();
        Some((target, ShuffleMessage::Request(offer)))
    }

    /// Handles an incoming shuffle message. For a `Request`, returns the
    /// `Reply` to send back.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: ShuffleMessage,
        rng: &mut DetRng,
    ) -> Option<ShuffleMessage> {
        match msg {
            ShuffleMessage::Request(theirs) => {
                let mine = self.pick_subset(self.config.shuffle_size, rng);
                let sent: Vec<NodeId> = mine.iter().map(|&(n, _)| n).collect();
                self.merge(theirs, &sent);
                let _ = from;
                Some(ShuffleMessage::Reply(mine))
            }
            ShuffleMessage::Reply(theirs) => {
                let sent = std::mem::take(&mut self.in_flight);
                self.merge(theirs, &sent);
                None
            }
        }
    }

    /// Picks up to `k` random entries of the current view (without removing
    /// them).
    fn pick_subset(&self, k: usize, rng: &mut DetRng) -> Vec<(NodeId, u32)> {
        let picked = rng.sample_indices(self.entries.len(), k);
        picked.into_iter().map(|i| (self.entries[i].node, self.entries[i].age)).collect()
    }

    /// Merges received entries into the view: skip self and duplicates,
    /// fill free slots, then replace entries that were just sent away, then
    /// replace the oldest.
    fn merge(&mut self, incoming: Vec<(NodeId, u32)>, sent_away: &[NodeId]) {
        let mut replaceable: Vec<NodeId> = sent_away.to_vec();
        for (node, age) in incoming {
            if node == self.self_id {
                continue;
            }
            if let Some(existing) = self.entries.iter_mut().find(|e| e.node == node) {
                // Keep the fresher age for a node we already know.
                existing.age = existing.age.min(age);
                continue;
            }
            if self.entries.len() < self.config.view_size {
                self.entries.push(ViewEntry { node, age });
            } else if let Some(pos) = replaceable
                .pop()
                .and_then(|victim| self.entries.iter().position(|e| e.node == victim))
            {
                self.entries[pos] = ViewEntry { node, age };
            } else if let Some((pos, _)) =
                self.entries.iter().enumerate().max_by_key(|(_, e)| e.age)
            {
                self.entries[pos] = ViewEntry { node, age };
            }
        }
    }

    /// Returns the current view as node ids.
    pub fn view(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.node).collect()
    }

    /// Returns the age of the oldest entry (0 for an empty view).
    pub fn oldest_age(&self) -> u32 {
        self.entries.iter().map(|e| e.age).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a fully connected shuffle simulation for `rounds` rounds.
    fn simulate(n: u32, rounds: u32, seed: u64) -> Vec<CyclonView> {
        let config = CyclonConfig { view_size: 8, shuffle_size: 4 };
        let mut rng = DetRng::seed_from(seed);
        // Bootstrap: ring-ish neighbourhoods so the initial graph is poorly
        // mixed (the shuffle has work to do).
        let mut views: Vec<CyclonView> = (0..n)
            .map(|i| {
                let bootstrap: Vec<NodeId> = (1..=4).map(|d| NodeId::new((i + d) % n)).collect();
                CyclonView::new(NodeId::new(i), config, &bootstrap)
            })
            .collect();
        for _ in 0..rounds {
            for i in 0..n as usize {
                let Some((target, req)) = views[i].on_shuffle_round(&mut rng) else {
                    continue;
                };
                let reply = views[target.index()].on_message(NodeId::new(i as u32), req, &mut rng);
                if let Some(reply) = reply {
                    views[i].on_message(target, reply, &mut rng);
                }
            }
        }
        views
    }

    #[test]
    fn views_stay_bounded_and_self_free() {
        let views = simulate(30, 50, 1);
        for (i, v) in views.iter().enumerate() {
            assert!(v.view().len() <= 8, "view of node {i} exceeded capacity");
            assert!(v.view().len() >= 4, "view of node {i} nearly empty: {}", v.view().len());
            assert!(!v.view().contains(&NodeId::new(i as u32)), "node {i} contains itself");
        }
    }

    #[test]
    fn shuffling_mixes_the_ring_into_a_random_graph() {
        let n = 40u32;
        let views = simulate(n, 60, 2);
        // In the bootstrap ring every edge spans ≤ 4 positions. After
        // shuffling, edges should span the whole ring: measure the mean
        // circular distance of view entries.
        let mut total = 0u64;
        let mut count = 0u64;
        for (i, v) in views.iter().enumerate() {
            for peer in v.view() {
                let d = (peer.index() as i64 - i as i64).rem_euclid(n as i64) as u64;
                total += d.min(n as u64 - d);
                count += 1;
            }
        }
        let mean = total as f64 / count as f64;
        // Uniform expectation is n/4 = 10; the bootstrap mean is 2.5.
        assert!(mean > 6.0, "mean edge span {mean:.1} — shuffle failed to mix");
    }

    #[test]
    fn indegree_is_balanced_after_mixing() {
        let n = 40u32;
        let views = simulate(n, 80, 3);
        let mut indegree = vec![0u32; n as usize];
        for v in &views {
            for peer in v.view() {
                indegree[peer.index()] += 1;
            }
        }
        let max = *indegree.iter().max().expect("non-empty");
        let min = *indegree.iter().min().expect("non-empty");
        assert!(max <= 4 * min.max(1), "indegree skew too high: min {min}, max {max}");
    }

    #[test]
    fn dead_nodes_age_out() {
        let config = CyclonConfig { view_size: 4, shuffle_size: 2 };
        let mut rng = DetRng::seed_from(4);
        // Node 0 knows 1 (dead) and 2 (alive).
        let mut a = CyclonView::new(NodeId::new(0), config, &[NodeId::new(1), NodeId::new(2)]);
        let mut alive = CyclonView::new(NodeId::new(2), config, &[NodeId::new(0)]);
        for _ in 0..10 {
            if let Some((target, req)) = a.on_shuffle_round(&mut rng) {
                if target == NodeId::new(2) {
                    if let Some(reply) = alive.on_message(NodeId::new(0), req, &mut rng) {
                        a.on_message(NodeId::new(2), reply, &mut rng);
                    }
                }
                // Shuffles to node 1 go unanswered: its entry just vanishes.
            }
        }
        assert!(
            !a.view().contains(&NodeId::new(1)),
            "dead node should age out of the view: {:?}",
            a.view()
        );
    }

    #[test]
    fn merge_keeps_fresher_age() {
        let config = CyclonConfig { view_size: 4, shuffle_size: 2 };
        let mut view = CyclonView::new(NodeId::new(0), config, &[NodeId::new(1)]);
        view.merge(vec![(NodeId::new(1), 0)], &[]);
        assert_eq!(view.view().len(), 1, "duplicate not re-inserted");
        assert_eq!(view.oldest_age(), 0);
    }

    #[test]
    #[should_panic(expected = "shuffle size")]
    fn degenerate_config_rejected() {
        CyclonView::new(NodeId::new(0), CyclonConfig { view_size: 2, shuffle_size: 3 }, &[]);
    }
}
