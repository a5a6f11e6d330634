//! Partner-view management: the proactiveness knobs `X` and `Y`.
//!
//! The paper defines *proactiveness* as the rate at which a node modifies
//! its set of communication partners, and studies two mechanisms:
//!
//! * **local refresh (`X`)** — the output of `selectNodes` changes every
//!   `X` calls: with `X = 1` partners are re-drawn uniformly at random every
//!   gossip round (the classic theoretical model); with `X = ∞` the initial
//!   draw is kept forever (a static mesh);
//! * **feed-me (`Y`)** — every `Y` rounds a node asks `f` random nodes to
//!   insert it into their views, each replacing one random current partner.
//!
//! [`PartnerView`] implements both; the owning [`crate::GossipNode`] calls
//! [`PartnerView::select`] once per round and
//! [`PartnerView::adopt`] when a feed-me arrives.

use gossip_sim::DetRng;
use gossip_types::NodeId;

/// Where a node's own id sits in a membership list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelfSlot {
    /// Not listed: every entry is a candidate.
    Absent,
    /// Listed exactly once, at this index.
    At(usize),
    /// Listed more than once: only a filtering copy excludes them all.
    Repeated,
}

impl SelfSlot {
    fn locate(membership: &[NodeId], self_id: NodeId) -> Self {
        let mut hits = membership.iter().enumerate().filter(|&(_, &m)| m == self_id);
        match (hits.next(), hits.next()) {
            (None, _) => SelfSlot::Absent,
            (Some((at, _)), None) => SelfSlot::At(at),
            _ => SelfSlot::Repeated,
        }
    }
}

/// The membership list a [`SelfSlot`] was computed for, by identity:
/// address and length of the slice, and whose slot it is.
type ListKey = (usize, usize, NodeId);

/// The set of communication partners of one node.
#[derive(Debug, Clone)]
pub struct PartnerView {
    /// Current partners (at most `fanout`).
    partners: Vec<NodeId>,
    /// `X`: how many `select` calls between refreshes; `None` = never.
    refresh_rounds: Option<u32>,
    /// Calls since the last refresh.
    calls_since_refresh: u32,
    /// Whether a first draw has happened.
    initialised: bool,
    /// Reusable buffers for `refresh` (with `X = 1` a refresh happens every
    /// round on every node; it must not allocate). The candidate copy is
    /// filled only on the materialising path (a ban list, or a membership
    /// listing the node twice) and stays empty otherwise.
    scratch_candidates: Vec<NodeId>,
    scratch_indices: Vec<usize>,
    /// Where the node's own id sits in the membership list `select` last
    /// saw, so a refresh skips it without scanning or copying the list.
    self_slot: Option<(ListKey, SelfSlot)>,
}

impl PartnerView {
    /// Creates an empty view with refresh rate `X` (`None` = `∞`).
    pub fn new(refresh_rounds: Option<u32>) -> Self {
        PartnerView {
            partners: Vec::new(),
            refresh_rounds,
            calls_since_refresh: 0,
            initialised: false,
            scratch_candidates: Vec::new(),
            scratch_indices: Vec::new(),
            self_slot: None,
        }
    }

    /// Forgets where the node's own id sits in the membership list.
    ///
    /// [`PartnerView::select`] scans a list for it once and then recognises
    /// the list by address and length. A caller that edits a list in place,
    /// or whose replacement list may reuse the old one's allocation, calls
    /// this so the next `select` scans again.
    pub fn membership_changed(&mut self) {
        self.self_slot = None;
    }

    /// Returns the partner set for this round, refreshing it if the round
    /// counter says so.
    ///
    /// `membership` is the full node list; `self_id` and every id in
    /// `banned` (peers demoted for misbehaviour) are excluded from
    /// selection. `fanout` partners are drawn without replacement (fewer if
    /// the eligible membership is too small). A freshly banned current
    /// partner forces an immediate refresh regardless of `X`.
    ///
    /// A refresh costs O(`fanout`), not O(`membership`), while `banned` is
    /// empty — see [`PartnerView::membership_changed`] for the one thing the
    /// caller owes in return.
    pub fn select(
        &mut self,
        fanout: usize,
        membership: &[NodeId],
        self_id: NodeId,
        banned: &[NodeId],
        rng: &mut DetRng,
    ) -> &[NodeId] {
        let eligible = if banned.is_empty() {
            membership.len().saturating_sub(1)
        } else {
            membership.iter().filter(|&&m| m != self_id && !banned.contains(&m)).count()
        };
        let needs_refresh = !self.initialised
            || self.partners.len() != fanout.min(eligible)
            || (!banned.is_empty() && self.partners.iter().any(|p| banned.contains(p)))
            || match self.refresh_rounds {
                Some(x) => self.calls_since_refresh >= x,
                None => false,
            };
        if needs_refresh {
            self.refresh(fanout, membership, self_id, banned, rng);
            self.calls_since_refresh = 0;
        }
        self.calls_since_refresh += 1;
        &self.partners
    }

    /// Unconditionally re-draws the partner set.
    fn refresh(
        &mut self,
        fanout: usize,
        membership: &[NodeId],
        self_id: NodeId,
        banned: &[NodeId],
        rng: &mut DetRng,
    ) {
        // Draw from membership excluding self and demoted peers. Dead nodes
        // are *not* excluded: the paper's protocol has no failure detector,
        // which is precisely why proactiveness matters under churn.
        self.partners.clear();
        self.initialised = true;
        let slot = if banned.is_empty() { self.locate(membership, self_id) } else { None };
        if let Some(slot) = slot {
            // The candidate list is `membership` minus one known index, so
            // it is never built: sample over its length and step over the
            // gap. Same randomness, same sample as the copy below.
            let (gap, candidates) = match slot {
                SelfSlot::At(at) => (at, membership.len() - 1),
                _ => (membership.len(), membership.len()),
            };
            rng.sample_indices_into(candidates, fanout, &mut self.scratch_indices);
            let picked =
                self.scratch_indices.iter().map(|&i| membership[i + usize::from(i >= gap)]);
            self.partners.extend(picked);
            return;
        }
        self.scratch_candidates.clear();
        self.scratch_candidates
            .extend(membership.iter().copied().filter(|&m| m != self_id && !banned.contains(&m)));
        rng.sample_indices_into(self.scratch_candidates.len(), fanout, &mut self.scratch_indices);
        self.partners.extend(self.scratch_indices.iter().map(|&i| self.scratch_candidates[i]));
    }

    /// Where `self_id` sits in `membership`, scanning only when the list is
    /// not the one remembered. `None` when the list names it more than
    /// once, which the virtual candidate list cannot express.
    fn locate(&mut self, membership: &[NodeId], self_id: NodeId) -> Option<SelfSlot> {
        let key = (membership.as_ptr() as usize, membership.len(), self_id);
        let slot = match self.self_slot {
            Some((known, slot)) if known == key => slot,
            _ => {
                let slot = SelfSlot::locate(membership, self_id);
                self.self_slot = Some((key, slot));
                slot
            }
        };
        debug_assert_eq!(
            slot,
            SelfSlot::locate(membership, self_id),
            "membership edited in place without `membership_changed`"
        );
        (slot != SelfSlot::Repeated).then_some(slot)
    }

    /// Handles a feed-me request from `newcomer`: replaces one uniformly
    /// random current partner with it (no-op if the newcomer is already a
    /// partner, is banned, or the view is empty).
    ///
    /// Returns `true` if the view changed.
    pub fn adopt(&mut self, newcomer: NodeId, banned: &[NodeId], rng: &mut DetRng) -> bool {
        if !self.initialised
            || self.partners.is_empty()
            || self.partners.contains(&newcomer)
            || banned.contains(&newcomer)
        {
            return false;
        }
        let slot = rng.index(self.partners.len());
        self.partners[slot] = newcomer;
        true
    }

    /// Returns the current partners without advancing the round counter.
    pub fn current(&self) -> &[NodeId] {
        &self.partners
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn members(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// The selection as it was before the candidate list went virtual:
    /// copy the eligible membership, sample indices into the copy.
    fn materialised_draw(
        fanout: usize,
        membership: &[NodeId],
        self_id: NodeId,
        banned: &[NodeId],
        rng: &mut DetRng,
    ) -> Vec<NodeId> {
        let candidates: Vec<NodeId> =
            membership.iter().copied().filter(|&m| m != self_id && !banned.contains(&m)).collect();
        rng.sample_indices(candidates.len(), fanout).into_iter().map(|i| candidates[i]).collect()
    }

    proptest! {
        /// Draw for draw, the virtual selection is the materialised one:
        /// same partners, same RNG state afterwards — with the node's own id
        /// absent, anywhere in the list (either end included) or listed
        /// twice, with and without a ban list, with a fanout past the
        /// eligible count, and on both branches of the sampler's `k² ≤ n`.
        #[test]
        fn virtual_selection_equals_the_materialised_draw(
            seed in 0u64..1_000_000,
            len in 0usize..120,
            fanout in 0usize..14,
            self_at in prop_oneof![Just(None), (0usize..120).prop_map(Some)],
            twice in 0usize..8,
            ban in 0usize..6,
        ) {
            let me = NodeId::new(1_000);
            let mut list: Vec<NodeId> = (0..len as u32).map(NodeId::new).collect();
            if let Some(at) = self_at {
                list.insert(at.min(list.len()), me);
                if twice == 0 {
                    list.push(me);
                }
            }
            // One list in six carries a ban: the path that still copies.
            let banned: Vec<NodeId> = if ban == 0 {
                list.iter().copied().filter(|&m| m != me).take(2).collect()
            } else {
                Vec::new()
            };
            let mut view = PartnerView::new(Some(1));
            let (mut rng, mut reference_rng) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
            for _round in 0..3 {
                let got = view.select(fanout, &list, me, &banned, &mut rng).to_vec();
                let want = materialised_draw(fanout, &list, me, &banned, &mut reference_rng);
                prop_assert_eq!(got, want);
                prop_assert_eq!(&rng, &reference_rng);
            }
        }
    }

    #[test]
    fn the_candidate_copy_is_only_built_for_a_ban_list_or_a_repeated_self() {
        let mut rng = DetRng::seed_from(11);
        let me = NodeId::new(2);
        let mut view = PartnerView::new(Some(1));
        let m = members(50);
        view.select(6, &m, me, &[], &mut rng);
        assert_eq!(view.scratch_candidates.capacity(), 0, "no ban list: nothing is copied");
        assert_eq!(view.self_slot.map(|(_, slot)| slot), Some(SelfSlot::At(2)));

        let mut repeated = m.clone();
        repeated.push(me);
        assert!(!view.select(6, &repeated, me, &[], &mut rng).contains(&me));
        assert_eq!(view.scratch_candidates.len(), 49, "a repeated self falls back to the copy");

        view.select(6, &m, me, &[NodeId::new(7)], &mut rng);
        assert_eq!(view.scratch_candidates.len(), 48, "so does a ban list");
    }

    #[test]
    fn a_list_edited_in_place_is_rescanned_once_the_view_is_told() {
        let mut rng = DetRng::seed_from(12);
        let me = NodeId::new(0);
        let mut view = PartnerView::new(Some(1));
        let mut m = members(30);
        view.select(5, &m, me, &[], &mut rng);
        // Same allocation, same length, self moved to the far end.
        m.swap(0, 29);
        view.membership_changed();
        for _ in 0..50 {
            assert!(!view.select(5, &m, me, &[], &mut rng).contains(&me));
        }
        assert_eq!(view.self_slot.map(|(_, slot)| slot), Some(SelfSlot::At(29)));
    }

    #[test]
    fn selects_fanout_distinct_partners_excluding_self() {
        let mut rng = DetRng::seed_from(1);
        let mut view = PartnerView::new(Some(1));
        let m = members(20);
        let me = NodeId::new(3);
        let partners = view.select(7, &m, me, &[], &mut rng).to_vec();
        assert_eq!(partners.len(), 7);
        assert!(!partners.contains(&me));
        let mut sorted = partners.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "partners must be distinct");
    }

    #[test]
    fn x_equals_one_refreshes_every_round() {
        let mut rng = DetRng::seed_from(2);
        let mut view = PartnerView::new(Some(1));
        let m = members(100);
        let me = NodeId::new(0);
        let a = view.select(10, &m, me, &[], &mut rng).to_vec();
        let b = view.select(10, &m, me, &[], &mut rng).to_vec();
        // With 99 candidates choose 10, two consecutive draws are virtually
        // never identical.
        assert_ne!(a, b, "X=1 must re-draw partners each round");
    }

    #[test]
    fn x_equals_two_holds_for_two_rounds() {
        let mut rng = DetRng::seed_from(3);
        let mut view = PartnerView::new(Some(2));
        let m = members(100);
        let me = NodeId::new(0);
        let r1 = view.select(8, &m, me, &[], &mut rng).to_vec();
        let r2 = view.select(8, &m, me, &[], &mut rng).to_vec();
        let r3 = view.select(8, &m, me, &[], &mut rng).to_vec();
        assert_eq!(r1, r2, "X=2 keeps partners for two rounds");
        assert_ne!(r2, r3, "...then refreshes");
    }

    #[test]
    fn x_infinity_never_refreshes() {
        let mut rng = DetRng::seed_from(4);
        let mut view = PartnerView::new(None);
        let m = members(50);
        let me = NodeId::new(1);
        let first = view.select(6, &m, me, &[], &mut rng).to_vec();
        for _ in 0..100 {
            assert_eq!(view.select(6, &m, me, &[], &mut rng), &first[..]);
        }
    }

    #[test]
    fn fanout_larger_than_membership_saturates() {
        let mut rng = DetRng::seed_from(5);
        let mut view = PartnerView::new(Some(1));
        let m = members(5);
        let partners = view.select(10, &m, NodeId::new(0), &[], &mut rng).to_vec();
        assert_eq!(partners.len(), 4, "can never select more than n-1 partners");
    }

    #[test]
    fn fanout_change_forces_refresh_even_with_x_infinity() {
        let mut rng = DetRng::seed_from(6);
        let mut view = PartnerView::new(None);
        let m = members(50);
        let me = NodeId::new(0);
        assert_eq!(view.select(5, &m, me, &[], &mut rng).len(), 5);
        assert_eq!(view.select(9, &m, me, &[], &mut rng).len(), 9);
    }

    #[test]
    fn adopt_replaces_exactly_one_partner() {
        let mut rng = DetRng::seed_from(7);
        let mut view = PartnerView::new(None);
        let m = members(50);
        let me = NodeId::new(0);
        let before = view.select(8, &m, me, &[], &mut rng).to_vec();
        let newcomer = (1..50)
            .map(NodeId::new)
            .find(|id| !before.contains(id) && *id != me)
            .expect("some node is not a partner");
        assert!(view.adopt(newcomer, &[], &mut rng));
        let after = view.current().to_vec();
        assert!(after.contains(&newcomer));
        let kept = after.iter().filter(|p| before.contains(p)).count();
        assert_eq!(kept, 7, "exactly one partner replaced");
    }

    #[test]
    fn adopt_is_noop_for_existing_partner_or_uninitialised_view() {
        let mut rng = DetRng::seed_from(8);
        let mut view = PartnerView::new(None);
        assert!(!view.adopt(NodeId::new(1), &[], &mut rng), "uninitialised view ignores feed-me");
        let m = members(10);
        let partners = view.select(9, &m, NodeId::new(0), &[], &mut rng).to_vec();
        assert!(!view.adopt(partners[0], &[], &mut rng), "existing partner is not re-adopted");
    }

    #[test]
    fn banned_peers_are_never_selected_and_evict_current_partners() {
        let mut rng = DetRng::seed_from(10);
        let mut view = PartnerView::new(None); // X = ∞: only bans force refresh
        let m = members(12);
        let me = NodeId::new(0);
        let first = view.select(5, &m, me, &[], &mut rng).to_vec();
        // Ban one current partner: the next select must evict it despite
        // the static mesh, and never re-draw it while banned.
        let banned = [first[0]];
        for _ in 0..20 {
            let now = view.select(5, &m, me, &banned, &mut rng).to_vec();
            assert!(!now.contains(&banned[0]), "banned peer drawn into the view");
            assert_eq!(now.len(), 5, "10 eligible peers still fill fanout 5");
        }
        // A banned newcomer is refused adoption.
        assert!(!view.adopt(banned[0], &banned, &mut rng));
    }

    #[test]
    fn adopted_partner_survives_until_refresh() {
        let mut rng = DetRng::seed_from(9);
        let mut view = PartnerView::new(Some(3));
        let m = members(60);
        let me = NodeId::new(0);
        view.select(5, &m, me, &[], &mut rng);
        let newcomer = (1..60).map(NodeId::new).find(|id| !view.current().contains(id)).unwrap();
        view.adopt(newcomer, &[], &mut rng);
        // Round 2 and 3 keep the adopted partner (X=3: refresh on round 4).
        assert!(view.select(5, &m, me, &[], &mut rng).contains(&newcomer));
        assert!(view.select(5, &m, me, &[], &mut rng).contains(&newcomer));
    }
}
