//! The sans-io gossip node: Algorithm 1 of the paper as a state machine.
//!
//! One [`GossipNode`] holds all per-node protocol state. It is driven by
//! three inputs — [`GossipNode::on_round`] (the gossip timer),
//! [`GossipNode::on_message`] (a datagram arrived) and
//! [`GossipNode::on_timer`] (a retransmission timer fired) — and produces
//! [`Output`]s (messages to send, events to deliver to the application,
//! timers to arm). It never performs I/O and never reads a clock: the
//! current time is always an argument. The same code therefore runs under
//! the deterministic simulator and on real UDP sockets.
//!
//! ## Faithfulness notes (vs. the paper's Algorithm 1)
//!
//! * **Batched publishing.** Line 5 gossips each published event id
//!   immediately; with a 600 kbps stream that would be ~75 tiny datagrams
//!   per second from the source. Like the paper's actual deployment (which
//!   gossips "a set of event ids" per period), published ids are batched
//!   into the next round's proposal, at most one gossip period later.
//! * **Empty proposals are suppressed.** Line 6 gossips unconditionally; we
//!   skip the send when there is nothing to propose (an empty `[PROPOSE]`
//!   serves no protocol purpose and only spends bandwidth). Round counting
//!   for the `X` refresh knob still advances every period.
//! * **Retransmission (lines 14–15, 25).** Re-executing "receive
//!   `[PROPOSE]`" verbatim would re-request nothing, because line 10 filters
//!   on `requestedEvents`. The evident intent is implemented instead: when
//!   the timer fires, ids from that proposal that are still undelivered and
//!   have been requested fewer than `K` times are re-requested from the same
//!   proposer.

use std::collections::VecDeque;
use std::num::{NonZeroU32, NonZeroU64};
use std::sync::Arc;

use gossip_sim::{DetRng, EventHandle};
use gossip_types::{NodeId, Time};

use crate::config::GossipConfig;
use crate::event::Event;
use crate::index::{DenseMap, EventIndex, Narrow, NarrowRow, TokenSlab};
use crate::message::Message;
use crate::rto::RttEstimator;
use crate::stats::ProtocolStats;
use crate::view::PartnerView;
use crate::wire::EventPool;

/// An opaque token naming a timer the driver must schedule.
///
/// The node hands out tokens via [`Output::ScheduleTimer`]; the driver calls
/// [`GossipNode::on_timer`] with the token when the deadline passes. Stale
/// tokens (whose purpose has since been fulfilled) are ignored, so a driver
/// that cancels nothing is still correct.
///
/// A driver that *can* cancel tells the node which of its deadlines the
/// token became ([`GossipNode::attach_timer_handle`]) and gets that handle
/// back from [`GossipNode::poll_cancelled`] once every id the timer guards
/// has been delivered (Algorithm 1, line 24), or from
/// [`GossipNode::crash`]. Firing such a timer would have been a no-op — no
/// output, no random draw — so honouring the cancellation changes what a
/// driver's queue holds and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(u64);

/// An effect requested by the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output<E: Event> {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to transmit.
        msg: Message<E>,
    },
    /// Deliver an event to the local application (the stream player).
    Deliver {
        /// The newly received event.
        event: E,
    },
    /// Arm a timer: call [`GossipNode::on_timer`] with `token` at `at`.
    ScheduleTimer {
        /// Token to pass back on expiry.
        token: TimerToken,
        /// Absolute deadline.
        at: Time,
    },
}

/// Per-event request bookkeeping (the paper's `requestedEvents` set, plus
/// the request counter that bounds retransmissions), packed into one
/// 8-byte word.
///
/// This word is everything a node keeps about one event id, in one
/// [`DenseMap`] slot, for as long as the id's window is inside the
/// retention horizon (ids are never re-requested), so at large n it is
/// multiplied by every retained id of the stream at every node. The slot
/// exists from the moment the id is first requested (or delivered
/// unrequested, or published here): its existence is membership in the
/// paper's `requestedEvents`, which is what keeps an id from being
/// requested again. It goes with its whole window once every slot of that
/// window is older than the horizon, and from then on the node's record
/// floor answers for it — an id below the floor is *expired*, never new.
///
/// The payload is not in the slot. A delivered id's payload is *retained*
/// while its delivery time is at or after the cutoff of the node's last
/// prune ([`RequestState::retained`]), and served from the node's own copy
/// if it kept one, else from the pool its host lends
/// ([`crate::pool::PacketPool`]). Request counter, delivered flag and a
/// time — or, while the id is in flight, the link to its retransmission
/// timer — share a `NonZeroU64`, whose niche also makes the `DenseMap`
/// slot (an `Option`) free:
///
/// ```text
/// bit  63      — marker: set while the low bits hold a time
/// bit  62      — delivered
/// bits 48..=61 — times_requested (14 bits, saturating)
/// bits 0..=47  — marker set: a time in µs (saturating; 2⁴⁸ µs ≈ 9 years),
///                the first request's until delivery, the delivery's after;
///                marker clear: the link to the [`RetransmitEntry`] counting
///                this undelivered id — slab slot (bits 0..=31), position in
///                its `ids` (bits 32..=47, saturating at 0xFFFF)
/// ```
///
/// A linked id's first-request time is its entry's, which unlinking writes
/// back; it is read once, for the RTT sample taken at delivery, and
/// otherwise both times are only what retention pruning compares. A
/// delivery time is never earlier than the cutoff of the prune before it
/// (hosts feed time forward), so a cutoff that only grows ages each
/// payload out exactly once.
/// Saturation is harmless: `max_requests_per_event` is single-digit in
/// every configuration, and no run approaches the timestamp horizon.
///
/// A window whose row links no word is kept *narrow* (see [`Narrow`]):
/// one base time per row, the earliest of its words', and per id 4 bytes
/// relative to it, a `NonZeroU32` whose niche again makes the slot free:
///
/// ```text
/// bit  31      — delivered
/// bits 28..=30 — times_requested (0..=7)
/// bits 0..=27  — the time in µs after the row's base (< 2²⁸ µs ≈ 268 s)
/// ```
///
/// A word narrows only if it round-trips to the same 8 bytes: unlinked,
/// requested at most 7 times, its time within 2²⁸ µs of the base, and not
/// the all-zero word. A row narrows only if all of its words do, and a
/// write that would not leaves the row wide first, so no read can tell a
/// narrow row from a wide one.
#[derive(Debug, Clone, Copy)]
struct RequestState(NonZeroU64);

impl RequestState {
    const MARKER: u64 = 1 << 63;
    /// The marker alone, non-zero by its type: a time word is it `|` the
    /// low bits, with nothing that can fail.
    const MARKED: NonZeroU64 = NonZeroU64::MIN.saturating_add(Self::MARKER - 1);
    const DELIVERED: u64 = 1 << 62;
    const TIMES_SHIFT: u32 = 48;
    const TIMES_MAX: u64 = (1 << 14) - 1;
    const TIME_MASK: u64 = (1 << 48) - 1;
    const POSITION_SHIFT: u32 = 32;
    /// The largest position a link holds: past it, a scan finds the id.
    const POSITION_MAX: usize = 0xFFFF;
    /// The narrow word's fields.
    const NARROW_DELIVERED: u32 = 1 << 31;
    const NARROW_TIMES_SHIFT: u32 = 28;
    const NARROW_TIMES_MAX: u32 = 0b111;
    const NARROW_OFFSET_MAX: u32 = (1 << Self::NARROW_TIMES_SHIFT) - 1;

    /// `at` is the first-request time, or the delivery time if `delivered`.
    fn new(times_requested: u32, delivered: bool, at: Time) -> Self {
        let times = (u64::from(times_requested)).min(Self::TIMES_MAX) << Self::TIMES_SHIFT;
        let at = at.as_micros().min(Self::TIME_MASK);
        let delivered = if delivered { Self::DELIVERED } else { 0 };
        RequestState(Self::MARKED | delivered | times | at)
    }

    fn times_requested(self) -> u32 {
        ((self.0.get() >> Self::TIMES_SHIFT) & Self::TIMES_MAX) as u32
    }

    fn delivered(self) -> bool {
        self.0.get() & Self::DELIVERED != 0
    }

    /// When the id was delivered, if it was; else when it was first requested.
    fn at(self) -> Time {
        debug_assert!(self.link().is_none(), "a linked word holds no time");
        Time::from_micros(self.0.get() & Self::TIME_MASK)
    }

    /// [`RequestState::at`], read from the entry a linked word links to.
    fn time<Id>(self, timers: &TokenSlab<RetransmitEntry<Id>>) -> Time {
        let Some((slot, _)) = self.link() else { return self.at() };
        timers.get(timers.widen(slot)).map_or(Time::ZERO, |entry| entry.first_requested)
    }

    /// The slab slot and the (saturated) position of the link the word
    /// holds, if it holds one.
    fn link(self) -> Option<(u32, usize)> {
        let bits = self.0.get();
        let position = (bits >> Self::POSITION_SHIFT) as usize & Self::POSITION_MAX;
        (bits & Self::MARKER == 0).then_some((bits as u32, position))
    }

    /// The same counter, linked to `slot` at `position`: a requested id's
    /// counter keeps the word non-zero (a zero one would stay unlinked).
    fn linked(self, slot: u32, position: usize) -> Self {
        let position = position.min(Self::POSITION_MAX) as u64;
        let times = self.0.get() & (Self::TIMES_MAX << Self::TIMES_SHIFT);
        let bits = times | position << Self::POSITION_SHIFT | u64::from(slot);
        NonZeroU64::new(bits).map_or(self, RequestState)
    }

    /// The same counter, holding `first_requested` instead of a link.
    fn unlinked(self, first_requested: Time) -> Self {
        RequestState::new(self.times_requested(), false, first_requested)
    }

    fn mark_delivered(&mut self, now: Time) {
        *self = RequestState::new(self.times_requested(), true, now);
    }

    /// Whether the id's payload is retained under a prune at `cutoff`:
    /// delivered, and not before it.
    fn retained(self, cutoff: Time) -> bool {
        self.delivered() && self.at() >= cutoff
    }

    /// Counts one more request, keeping the time or link.
    fn bump_requested(&mut self) {
        if u64::from(self.times_requested()) < Self::TIMES_MAX {
            self.0 = self.0.saturating_add(1 << Self::TIMES_SHIFT);
        }
    }
}

/// The narrow word of [`RequestState`]'s doc: an unlinked word, relative
/// to its row's base.
impl Narrow for RequestState {
    type Word = NonZeroU32;

    fn base(self) -> Option<Time> {
        self.link().is_none().then(|| self.at())
    }

    fn narrow(self, base: Time) -> Option<NonZeroU32> {
        let offset = self.base()?.as_micros().checked_sub(base.as_micros())?;
        let times = self.times_requested();
        if offset > u64::from(Self::NARROW_OFFSET_MAX) || times > Self::NARROW_TIMES_MAX {
            return None;
        }
        let delivered = if self.delivered() { Self::NARROW_DELIVERED } else { 0 };
        let word = NonZeroU32::new(delivered | times << Self::NARROW_TIMES_SHIFT | offset as u32)?;
        debug_assert_eq!(Self::widen(word, base).0, self.0, "a narrow word must round-trip");
        Some(word)
    }

    fn widen(word: NonZeroU32, base: Time) -> Self {
        let word = word.get();
        let at = base.as_micros() + u64::from(word & Self::NARROW_OFFSET_MAX);
        let times = (word >> Self::NARROW_TIMES_SHIFT) & Self::NARROW_TIMES_MAX;
        RequestState::new(times, word & Self::NARROW_DELIVERED != 0, Time::from_micros(at))
    }
}

/// A pending retransmission timer: re-request the still-missing ids of a
/// proposal from the peer that proposed them (lines 14–15), and what those
/// ids need while in flight. Each undelivered id no other entry counts
/// links here from its request word; whatever removes an entry first
/// unlinks the ids it leaves undelivered, so a link never dangles.
///
/// The id buffer is shared with the `[REQUEST]` message that was sent when
/// the timer was armed — arming a timer allocates nothing.
#[derive(Debug, Clone)]
struct RetransmitEntry<Id> {
    peer: NodeId,
    ids: Arc<[Id]>,
    /// How many requests have been sent for this proposal (for backoff).
    attempt: u32,
    /// How many of `ids` have not been delivered since arming. Only an id
    /// whose record links here is ever counted down, so reaching zero
    /// means every one of them arrived: the timer has nothing left to do.
    undelivered: u32,
    /// When `ids` were first requested: a retry re-arms some of them.
    first_requested: Time,
    /// Each linked id's latest proposer after the first, by position, while
    /// its budget lasts: where a corrupted serve is re-requested from
    /// (validate-before-relay). Empty until the first; [`NO_ALTERNATE`] if none.
    alternates: Box<[u32]>,
    /// The deadline the host scheduled for this entry, if it said.
    handle: Option<EventHandle>,
}

/// An alternate no proposer has: no node has this index.
const NO_ALTERNATE: u32 = u32::MAX;

impl<Id: PartialEq> RetransmitEntry<Id> {
    /// Where `id` sits in `ids`, given the position its link holds: that
    /// one below the saturation point, else the first match from it on.
    fn position(&self, id: &Id, linked: usize) -> Option<usize> {
        let saturated = linked == RequestState::POSITION_MAX;
        (linked..self.ids.len()).find(|&position| !saturated || self.ids[position] == *id)
    }

    /// The alternate proposer of linked `id`.
    fn alternate(&self, id: &Id, linked: usize) -> Option<u32> {
        let alternate = *self.alternates.get(self.position(id, linked)?)?;
        (alternate != NO_ALTERNATE).then_some(alternate)
    }

    /// Sets the alternate proposer of linked `id`, allocating the array at
    /// the first one.
    fn set_alternate(&mut self, id: &Id, linked: usize, alternate: u32) {
        let Some(position) = self.position(id, linked) else { return };
        if self.alternates.is_empty() {
            self.alternates = vec![NO_ALTERNATE; self.ids.len()].into();
        }
        if let Some(slot) = self.alternates.get_mut(position) {
            *slot = alternate;
        }
    }
}

/// The gossip protocol state machine for one node.
///
/// See the [crate-level documentation](crate) for the protocol description
/// and an end-to-end example.
pub struct GossipNode<E: Event> {
    id: NodeId,
    config: GossipConfig,
    /// The list `selectNodes` draws from. Shared: a host gives every node
    /// it runs the same `Arc`, so a deployment keeps one list, not one per
    /// node; the view only ever indexes it.
    membership: Arc<[NodeId]>,
    view: PartnerView,
    rng: DetRng,
    is_source: bool,
    free_rider: bool,

    /// Ids to include in upcoming proposals, with the number of rounds they
    /// have left (1 under infect-and-die).
    propose_queue: Vec<(E::Id, u32)>,
    /// The one per-id table: request/delivery bookkeeping (an id is
    /// requested from exactly one peer, ever, apart from retransmissions),
    /// one 8-byte word per id while its window has one in flight, 4 bytes
    /// once its row narrows. Dense per-window slab: lookups are array
    /// indexings, not hashes.
    ids: DenseMap<E::Id, RequestState, NarrowRow<RequestState>>,
    /// The payloads this node keeps itself, sorted by id: each retained
    /// one its host's pool did not hold equal when it was delivered. Every
    /// one under a host that lends no pool; under one that does, what the
    /// node delivered first in its host, published, or accepted corrupted
    /// or forged.
    own: Vec<(E::Id, E)>,
    /// How many ids have their payload retained.
    payloads: usize,
    /// No id in a window before this one has its payload retained: where
    /// `prune_store` starts, so it walks what is retained, not every id
    /// the node ever heard of.
    payload_floor: u64,
    /// The cutoff of the last prune: a delivered id's payload is retained
    /// while it was delivered at or after it.
    retained_since: Time,
    /// Ids of windows before this one are expired: their records aged out
    /// with their whole window, and they are never recorded again (the
    /// backward twin of [`GossipConfig::propose_offset_horizon`]).
    record_floor: u64,
    /// Misbehaviour scores of peers that served corrupted payloads or
    /// proposed garbage ids (sparse: almost always empty).
    misbehaviour: Vec<(NodeId, u32)>,
    /// Peers demoted for repeat misbehaviour: excluded from partner
    /// selection and feed-me adoption, their proposals ignored.
    demoted: Vec<NodeId>,
    /// Armed retransmission timers, addressed by their token.
    retransmits: TokenSlab<RetransmitEntry<E::Id>>,
    /// Host deadlines that no longer need to fire, until the host collects
    /// them ([`GossipNode::poll_cancelled`]).
    cancelled: Vec<EventHandle>,
    rtt: RttEstimator,
    rounds: u64,
    outputs: VecDeque<Output<E>>,
    stats: ProtocolStats,
    /// Reusable id buffer for `on_round` / `handle_propose` / `on_timer`:
    /// the steady state builds id lists without allocating.
    scratch_ids: Vec<E::Id>,
    /// Reusable partner buffer for `on_round`.
    scratch_partners: Vec<NodeId>,
    /// Reusable event buffer for `handle_request`.
    scratch_events: Vec<E>,
}

impl<E: Event> std::fmt::Debug for GossipNode<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipNode")
            .field("id", &self.id)
            .field("is_source", &self.is_source)
            .field("rounds", &self.rounds)
            .field("stored_events", &self.payloads)
            .field("pending_outputs", &self.outputs.len())
            .finish()
    }
}

impl<E: Event> GossipNode<E> {
    /// Creates a regular (receiving) node.
    ///
    /// `membership` is the full node list (the paper assumes uniform random
    /// selection over all nodes); `seed` determines the node's private
    /// random stream. A host that runs many nodes passes an empty list here
    /// and hands each node its shared list through
    /// [`GossipNode::set_membership`].
    pub fn new(id: NodeId, config: GossipConfig, membership: Vec<NodeId>, seed: u64) -> Self {
        let view = PartnerView::new(config.refresh_rounds);
        let rtt = RttEstimator::new(config.retransmit_timeout, config.rto_min, config.rto_max);
        GossipNode {
            id,
            config,
            membership: membership.into(),
            view,
            rng: DetRng::seed_from(seed).split(id.as_u32() as u64),
            is_source: false,
            free_rider: false,
            propose_queue: Vec::new(),
            ids: DenseMap::new(),
            own: Vec::new(),
            payloads: 0,
            payload_floor: u64::MAX,
            retained_since: Time::ZERO,
            record_floor: 0,
            misbehaviour: Vec::new(),
            demoted: Vec::new(),
            retransmits: TokenSlab::new(),
            cancelled: Vec::new(),
            rtt,
            rounds: 0,
            outputs: VecDeque::new(),
            stats: ProtocolStats::default(),
            scratch_ids: Vec::new(),
            scratch_partners: Vec::new(),
            scratch_events: Vec::new(),
        }
    }

    /// Creates the stream source. The source proposes with
    /// [`GossipConfig::source_fanout`] (7 in all the paper's experiments)
    /// and never requests events.
    pub fn new_source(
        id: NodeId,
        config: GossipConfig,
        membership: Vec<NodeId>,
        seed: u64,
    ) -> Self {
        let mut node = GossipNode::new(id, config, membership, seed);
        node.is_source = true;
        node
    }

    /// Returns the node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Returns whether this node is the stream source.
    pub fn is_source(&self) -> bool {
        self.is_source
    }

    /// Marks this node as a free-rider: it keeps requesting and receiving
    /// events, but never proposes and never serves (the selfish peer of
    /// the adversity experiments). Rounds still advance the `X` refresh
    /// counter, so its partner view behaves like everyone else's.
    pub fn set_free_rider(&mut self, free_rider: bool) {
        self.free_rider = free_rider;
    }

    /// Returns whether this node free-rides.
    pub fn is_free_rider(&self) -> bool {
        self.free_rider
    }

    /// Returns the protocol configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Returns the accumulated protocol counters.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Returns the number of gossip rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Returns the current partner set (for inspection/tests).
    pub fn partners(&self) -> &[NodeId] {
        self.view.current()
    }

    /// Replaces the membership list `selectNodes` draws from.
    ///
    /// The paper assumes full, static membership; this hook lets a peer
    /// sampling service (see the `gossip-membership` crate) feed the node a
    /// live partial view instead. Takes effect at the next view refresh —
    /// with `X = 1`, the next round. An `Arc` is adopted as is (a refcount,
    /// not a copy), so one list can serve every node a host runs.
    pub fn set_membership(&mut self, members: impl Into<Arc<[NodeId]>>) {
        self.membership = members.into();
        self.view.membership_changed();
    }

    /// Returns the current membership list.
    pub fn membership(&self) -> &[NodeId] {
        &self.membership
    }

    /// Drains the next pending effect, if any.
    ///
    /// Drivers call this in a loop after every `on_*` call.
    pub fn poll_output(&mut self) -> Option<Output<E>> {
        self.outputs.pop_front()
    }

    /// Tells the node which deadline in the host's queue `token` (from an
    /// [`Output::ScheduleTimer`]) became, so the node can hand it back
    /// through [`GossipNode::poll_cancelled`] instead of letting it fire
    /// into nothing. Optional: without it the token's timer simply fires
    /// and is ignored. A token whose timer is already settled is ignored.
    pub fn attach_timer_handle(&mut self, token: TimerToken, handle: EventHandle) {
        if let Some(entry) = self.retransmits.get_mut(token.0) {
            entry.handle = Some(handle);
        }
    }

    /// Drains the next deadline the host may take out of its queue: the
    /// handle attached to a retransmission timer that has since lost its
    /// purpose. Hosts that attach handles call this in a loop after every
    /// `on_*` call, next to [`GossipNode::poll_output`]; for a host that
    /// attaches none it never returns anything.
    pub fn poll_cancelled(&mut self) -> Option<EventHandle> {
        self.cancelled.pop()
    }

    /// Whether every [`Output::Deliver`] this node emits carries an event
    /// that already passed [`Event::verify`] — the one rule hosts consult
    /// before gating a delivery on the payload's integrity.
    ///
    /// A validating node ([`GossipConfig::verify_payloads`], the default)
    /// checks each served event once, before it can be delivered, stored or
    /// relayed, and what it publishes itself is the original: its
    /// deliveries are intact by construction and a host must not pay for a
    /// second pass. Only a host of an *undefended* node has to call
    /// `verify` on a delivery itself to keep a poisoned payload out of its
    /// measurements.
    pub fn delivers_verified(&self) -> bool {
        self.config.verify_payloads
    }

    /// The delivery gate every host applies to an [`Output::Deliver`]:
    /// whether `event` is intact, hashing it only when this node did not
    /// (see [`GossipNode::delivers_verified`]).
    #[inline]
    pub fn delivery_intact(&self, event: &E) -> bool {
        if self.delivers_verified() {
            debug_assert!(event.verify(), "a validating node delivered corruption");
            true
        } else {
            event.verify()
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Publishes a new event at this node (the source's `publish(e)`,
    /// lines 4–5): the event is delivered locally and its id queued for the
    /// next round's proposal.
    pub fn publish(&mut self, now: Time, event: E) {
        let id = event.id();
        // The publisher has, by definition, "requested and received" its own
        // event: mark it so proposals from other nodes are ignored.
        let at = now.max(self.retained_since);
        let state = RequestState::new(self.config.max_requests_per_event, true, at);
        if let Some(previous) = self.ids.insert(id, state) {
            // Publishing an id again replaces its payload, it does not add
            // one; publishing one that was on request delivers it.
            self.payloads -= usize::from(previous.retained(self.retained_since));
            if let Some((slot, _)) = previous.link() {
                self.settle_timer(slot);
            }
        }
        // No host pools a packet before its source has published it.
        self.keep_own(id, event.clone());
        self.finish_delivery(id, event);
    }

    /// Executes one gossip round (the `GossipTimer` of Algorithm 1,
    /// lines 6–7). The driver calls this every [`GossipConfig::gossip_period`].
    pub fn on_round(&mut self, now: Time) {
        self.rounds += 1;
        self.stats.rounds += 1;

        // Feed-me (knob Y): ask f random nodes to adopt us.
        if let Some(y) = self.config.feedme_rounds {
            if self.rounds.is_multiple_of(y as u64) {
                self.send_feedmes();
            }
        }

        // Phase 1: propose the ids gathered since the last round.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.extend(self.propose_queue.iter().map(|(id, _)| *id));
        // Infect-and-die: decrement lifetimes, drop the dead.
        for entry in &mut self.propose_queue {
            entry.1 -= 1;
        }
        self.propose_queue.retain(|&(_, life)| life > 0);

        let fanout = if self.is_source { self.config.source_fanout } else { self.config.fanout };
        // selectNodes is invoked every round so the X counter advances even
        // when there is nothing to send.
        let mut partners = std::mem::take(&mut self.scratch_partners);
        partners.clear();
        partners.extend_from_slice(self.view.select(
            fanout,
            &self.membership,
            self.id,
            &self.demoted,
            &mut self.rng,
        ));
        if !ids.is_empty() && !self.free_rider {
            // One allocation for the whole round: every partner's PROPOSE
            // shares the same id buffer by reference count.
            let shared: Arc<[E::Id]> = ids.as_slice().into();
            for &p in &partners {
                self.stats.proposes_sent += 1;
                self.outputs.push_back(Output::Send {
                    to: p,
                    msg: Message::Propose { ids: shared.clone() },
                });
            }
        }
        self.scratch_ids = ids;
        self.scratch_partners = partners;

        self.prune_store(now);
        self.ids.narrow_rows();
    }

    /// Handles an incoming message (phases 2 and 3, plus feed-me), from a
    /// host that lends no pool: the node keeps a copy of every payload it
    /// retains. [`GossipNode::on_message_pooled`] with no pool.
    pub fn on_message(&mut self, now: Time, from: NodeId, msg: Message<E>) {
        self.on_message_pooled(now, from, msg, None);
    }

    /// Handles an incoming message, lent the host's `pool` (see
    /// [`crate::pool`]): a delivered event the pool holds equal is served
    /// from the pool, not kept. A host lends its pool with every input or
    /// with none; the node's outputs are the same either way.
    pub fn on_message_pooled(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Message<E>,
        pool: Option<&dyn EventPool<E>>,
    ) {
        match msg {
            Message::Propose { ids } => self.handle_propose(now, from, ids.iter().copied()),
            Message::Request { ids } => self.handle_request(from, ids.iter().copied(), pool),
            Message::Serve { events } => self.handle_serve(now, from, events.into_iter(), pool),
            Message::FeedMe => self.handle_feedme(from),
        }
    }

    /// Handles a retransmission timer expiry (line 25). Stale tokens are
    /// ignored.
    ///
    /// (See also [`GossipNode::on_frame`] for the borrowed-datagram twin of
    /// [`GossipNode::on_message`].)
    pub fn on_timer(&mut self, now: Time, token: TimerToken) {
        let Some(entry) = self.retransmits.remove(token.0) else {
            return; // stale timer: its proposal was fully served
        };
        let fired = token.0 as u32;
        let cap = self.max_requests_cap();
        let mut missing = std::mem::take(&mut self.scratch_ids);
        missing.clear();
        // The alternates the re-armed entry takes over.
        let mut carried = Vec::new();
        let mut can_retry_more = false;
        for (position, &id) in entry.ids.iter().enumerate() {
            let Some(mut state) = self.ids.get(&id) else { continue };
            if state.delivered() {
                continue;
            }
            // The entry is gone: the ids it counted are nobody's until (and
            // unless) the re-armed entry below takes them.
            let linked_here = state.link().is_some_and(|(slot, _)| slot == fired);
            if linked_here {
                state = state.unlinked(entry.first_requested);
            }
            let retry = state.times_requested() < cap;
            if retry {
                state.bump_requested();
            }
            if linked_here || retry {
                self.ids.insert(id, state);
            }
            if !retry {
                continue;
            }
            missing.push(id);
            // A spent id's alternate stays behind: nothing could use it.
            let spent = state.times_requested() >= cap;
            can_retry_more |= !spent;
            let alternate = entry.alternates.get(position).copied().unwrap_or(NO_ALTERNATE);
            if linked_here && !spent && alternate != NO_ALTERNATE {
                carried.push((id, NodeId::new(alternate)));
            }
        }
        if missing.is_empty() {
            self.scratch_ids = missing;
            return;
        }
        self.stats.retransmit_requests += 1;
        self.stats.requests_sent += 1;
        // The re-request and the re-armed timer share one id buffer.
        let shared: Arc<[E::Id]> = missing.as_slice().into();
        self.outputs.push_back(Output::Send {
            to: entry.peer,
            msg: Message::Request { ids: shared.clone() },
        });
        // Re-arm with exponential backoff while the budget lasts (checked
        // again on expiry).
        if can_retry_more {
            self.arm_timer(now, entry.peer, shared, entry.attempt + 1, entry.first_requested);
            for (id, alternate) in carried {
                self.set_alternate(id, alternate);
            }
        }
        self.scratch_ids = missing;
    }

    // ------------------------------------------------------------------
    // Phase handlers
    // ------------------------------------------------------------------

    /// Phase 2 (lines 8–15): request the proposed ids we have not requested
    /// from anyone yet, and arm a retransmission timer for them.
    ///
    /// Generic over the id source so both the owned path
    /// ([`GossipNode::on_message`]) and the borrowed wire path
    /// ([`GossipNode::on_frame`]) feed it without an intermediate buffer.
    fn handle_propose(&mut self, now: Time, from: NodeId, ids: impl Iterator<Item = E::Id>) {
        self.stats.proposes_received += 1;
        if self.is_source {
            return; // the source never pulls
        }
        if !self.demoted.is_empty() && self.demoted.contains(&from) {
            self.stats.proposes_from_demoted_ignored += 1;
            return;
        }
        let cap = self.max_requests_cap();
        let requested = RequestState::new(1, false, now);
        let mut wanted = std::mem::take(&mut self.scratch_ids);
        wanted.clear();
        // Ids named twice here: in flight, but linked only once armed.
        let mut repeated = Vec::new();
        for id in ids {
            // Record floor: an expired id was requested long ago or missed
            // for good — old news from an honest proposer, not a new id.
            if self.is_expired(&id) {
                self.stats.duplicate_ids_proposed += 1;
                continue;
            }
            if self.reject_garbage(from, &id) {
                continue;
            }
            // Already requested (from whoever proposed first) or already
            // delivered: line 10 filters it out.
            let mut fresh = false;
            let state = self.ids.get_or_insert_with(id, || {
                fresh = true;
                requested
            });
            if fresh {
                wanted.push(id);
                continue;
            }
            self.stats.duplicate_ids_proposed += 1;
            // Remember the redundant proposer: if the first peer's serve
            // turns out corrupted, this is where the re-request goes — as
            // long as the budget allows one (and so a link, or a repeat).
            if state.delivered() || state.times_requested() >= cap {
                continue;
            }
            match state.link() {
                Some(_) => self.set_alternate(id, from),
                None => repeated.push(id),
            }
        }
        if wanted.is_empty() {
            self.scratch_ids = wanted;
            return;
        }
        self.stats.requests_sent += 1;
        // The REQUEST and its retransmission timer share one id buffer.
        let shared: Arc<[E::Id]> = wanted.as_slice().into();
        self.outputs
            .push_back(Output::Send { to: from, msg: Message::Request { ids: shared.clone() } });
        // Line 14: arm the retransmission timer if the budget allows a
        // second request.
        if self.config.max_requests_per_event > 1 {
            self.arm_timer(now, from, shared, 1, requested.at());
            for id in repeated {
                self.set_alternate(id, from);
            }
        }
        self.scratch_ids = wanted;
    }

    /// Phase 3, serving side (lines 16–19): push the requested events we
    /// still retain, from our own copies or `pool`, split into MTU-sized
    /// serve datagrams.
    fn handle_request(
        &mut self,
        from: NodeId,
        ids: impl Iterator<Item = E::Id>,
        pool: Option<&dyn EventPool<E>>,
    ) {
        self.stats.requests_received += 1;
        if self.free_rider {
            return; // free-riders take and never give
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        for id in ids {
            match self.stored_in(&id, pool) {
                Some(event) => events.push(event.clone()),
                None => {
                    // The pool outlives every node's retention by a round
                    // (see `crate::pool`): a host that lends one never
                    // leaves a retained id without its payload.
                    debug_assert!(!self.retains(&id), "a retained id is unservable");
                    self.stats.unservable_ids += 1;
                }
            }
        }
        for chunk in events.chunks(self.config.max_serve_events_per_message) {
            self.stats.serves_sent += 1;
            self.outputs.push_back(Output::Send {
                to: from,
                msg: Message::Serve { events: chunk.to_vec() },
            });
        }
        events.clear();
        self.scratch_events = events;
    }

    /// Phase 3, receiving side (lines 20–24): deliver fresh events, queue
    /// their ids for the next proposal, and cancel the retransmission
    /// timer of a proposal whose last missing id this was (line 24). That
    /// timer would re-request the undelivered ids of its proposal and,
    /// finding none, do nothing at all, so dropping its entry here — and
    /// letting the host drop the deadline — is exact, not an approximation:
    /// a timer with any id still missing is left alone.
    ///
    /// Validate-before-relay: each event's payload is checked against its
    /// integrity metadata *before* it can be delivered, stored or
    /// re-proposed. A corrupted event is dropped, the server's misbehaviour
    /// score bumped, and — if another peer proposed the same id — the id is
    /// re-requested from that alternate within the usual `K` budget. An
    /// expired id (below the record floor) is a duplicate before anything
    /// else: it is neither checked nor recorded. An id past the offset
    /// horizon is garbage here exactly as in a proposal. A delivered event
    /// that `pool` holds equal is left to the pool; any other is kept.
    fn handle_serve(
        &mut self,
        now: Time,
        from: NodeId,
        events: impl Iterator<Item = E>,
        pool: Option<&dyn EventPool<E>>,
    ) {
        self.stats.serves_received += 1;
        let at = now.max(self.retained_since);
        for event in events {
            let id = event.id();
            if self.is_expired(&id) {
                // Too late to matter, and its window must not come back.
                self.stats.duplicate_events_received += 1;
                continue;
            }
            if self.reject_garbage(from, &id) {
                continue;
            }
            if self.config.verify_payloads && !event.verify() {
                self.stats.corrupted_events_detected += 1;
                self.note_misbehaviour(from);
                self.rerequest_corrupted(now, from, id);
                continue;
            }
            let mut state = self.ids.get(&id).unwrap_or(RequestState::new(0, false, now));
            if state.delivered() {
                self.stats.duplicate_events_received += 1;
                continue;
            }
            // Karn's rule: only first-request serves give unambiguous
            // request->serve delay samples.
            let link = state.link();
            if state.times_requested() == 1 {
                self.rtt.sample(now.saturating_since(state.time(&self.retransmits)));
            }
            state.mark_delivered(at);
            self.ids.insert(id, state);
            if pool.and_then(|pool| pool.lookup(&id)) != Some(&event) {
                self.keep_own(id, event.clone());
            }
            self.finish_delivery(id, event);
            // Line 24 (cancel RetTimer).
            if let Some((slot, _)) = link {
                self.settle_timer(slot);
            }
        }
    }

    /// Feed-me handling: replace a random partner with the sender (refused
    /// for demoted peers — a corruptor must not feed-me its way back in).
    fn handle_feedme(&mut self, from: NodeId) {
        self.stats.feedmes_received += 1;
        if from == self.id {
            return;
        }
        if self.view.adopt(from, &self.demoted, &mut self.rng) {
            self.stats.feedmes_adopted += 1;
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// The effective retransmission budget: the configured bound clamped
    /// to what the packed request counter can represent (2¹⁴ − 1). No sane
    /// configuration approaches the clamp (the paper's K is single-digit),
    /// but the bound must stay a bound: comparing an absurd configured
    /// budget against a saturated counter would otherwise retry forever.
    fn max_requests_cap(&self) -> u32 {
        self.config.max_requests_per_event.min(RequestState::TIMES_MAX as u32)
    }

    /// The tail every delivery shares, once `id` is marked delivered and
    /// its payload kept or pooled: count the payload, queue the id for the
    /// next proposal and hand the event to the application.
    fn finish_delivery(&mut self, id: E::Id, event: E) {
        self.payloads += 1;
        self.payload_floor = self.payload_floor.min(id.dense_key().0);
        self.propose_queue.push((id, self.config.propose_lifetime_rounds));
        self.stats.events_delivered += 1;
        self.outputs.push_back(Output::Deliver { event });
    }

    fn send_feedmes(&mut self) {
        let candidates: Vec<NodeId> =
            self.membership.iter().copied().filter(|&m| m != self.id).collect();
        let picked = self.rng.sample_indices(candidates.len(), self.config.fanout);
        for i in picked {
            self.stats.feedmes_sent += 1;
            self.outputs.push_back(Output::Send { to: candidates[i], msg: Message::FeedMe });
        }
    }

    /// Dense-offset horizon: a garbage id (a Byzantine proposer's, or a
    /// forged serve's) would grow its window's row to its claimed offset.
    /// Returns whether `id` is one, counting it and scoring `from` if so,
    /// before it can touch the bookkeeping.
    fn reject_garbage(&mut self, from: NodeId, id: &E::Id) -> bool {
        if id.dense_key().1 < self.config.propose_offset_horizon {
            return false;
        }
        self.stats.garbage_ids_rejected += 1;
        self.note_misbehaviour(from);
        true
    }

    /// Bumps `peer`'s misbehaviour score; at
    /// [`GossipConfig::misbehaviour_threshold`] the peer is demoted:
    /// excluded from partner selection, refused feed-me adoption, and its
    /// proposals ignored from then on.
    fn note_misbehaviour(&mut self, peer: NodeId) {
        if peer == self.id || self.demoted.contains(&peer) {
            return;
        }
        let score = match self.misbehaviour.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, s)) => {
                *s += 1;
                *s
            }
            None => {
                self.misbehaviour.push((peer, 1));
                1
            }
        };
        if score >= self.config.misbehaviour_threshold {
            self.demoted.push(peer);
            self.stats.peers_demoted += 1;
        }
    }

    /// After a corrupted serve of `id` from `offender`: re-request the id
    /// from the most recent *other* proposer, spending one unit of the
    /// usual `K` request budget and re-arming the backoff timer if more
    /// budget remains. Without an alternate proposer the id simply stays
    /// undelivered — the armed retransmission timer retries as usual.
    fn rerequest_corrupted(&mut self, now: Time, offender: NodeId, id: E::Id) {
        let cap = self.max_requests_cap();
        let Some(mut state) = self.ids.get(&id) else { return };
        // Only an id in flight has an alternate, in the entry it links to.
        let Some((slot, linked)) = state.link() else { return };
        let Some(entry) = self.retransmits.get_mut(self.retransmits.widen(slot)) else { return };
        let alt = match entry.alternate(&id, linked) {
            Some(a) if a != offender.as_u32() => NodeId::new(a),
            _ => return,
        };
        if state.times_requested() >= cap {
            return;
        }
        state.bump_requested();
        self.ids.insert(id, state);
        let attempt = state.times_requested();
        let budget_left = attempt < cap;
        if !budget_left {
            entry.set_alternate(&id, linked, NO_ALTERNATE);
        }
        let first_requested = entry.first_requested;
        self.stats.corrupt_rerequests += 1;
        self.stats.requests_sent += 1;
        let shared: Arc<[E::Id]> = std::iter::once(id).collect();
        self.outputs
            .push_back(Output::Send { to: alt, msg: Message::Request { ids: shared.clone() } });
        if budget_left {
            self.arm_timer(now, alt, shared, attempt, first_requested);
        }
    }

    /// Arms a retransmission timer for the `attempt`-th request (1-based)
    /// of a proposal first requested at `first`, using the adaptive RTO
    /// with exponential backoff.
    ///
    /// Every id must be undelivered. Each one that no armed entry counts
    /// yet is linked to this one; an id another entry still counts (the
    /// single id `rerequest_corrupted` re-requests on the side) stays with
    /// that entry, which keeps this one's count above zero for good — it
    /// fires and is ignored, as every timer used to.
    fn arm_timer(&mut self, now: Time, to: NodeId, ids: Arc<[E::Id]>, attempt: u32, first: Time) {
        let entry = RetransmitEntry {
            peer: to,
            ids: Arc::clone(&ids),
            attempt,
            undelivered: ids.len() as u32,
            first_requested: first,
            alternates: Box::default(),
            handle: None,
        };
        let token = TimerToken(self.retransmits.insert(entry));
        for (position, id) in ids.iter().enumerate() {
            let state = self.ids.get(id);
            debug_assert!(state.is_some_and(|s| !s.delivered()), "delivered or unrecorded");
            if let Some(state) = state.filter(|state| state.link().is_none()) {
                debug_assert_eq!(state.at(), first, "an entry's ids share one request");
                self.ids.insert(*id, state.linked(token.0 as u32, position));
            }
        }
        let at = now + self.rtt.rto_backoff(attempt);
        self.outputs.push_back(Output::ScheduleTimer { token, at });
    }

    /// One id of the entry in `slot` has just been delivered: count it,
    /// and when it was the last one drop the entry and report the host's
    /// deadline for it, if the host attached one, as cancelled.
    fn settle_timer(&mut self, slot: u32) {
        let token = self.retransmits.widen(slot);
        let Some(entry) = self.retransmits.get_mut(token) else {
            debug_assert!(false, "an undelivered id linked to a timer that is gone");
            return;
        };
        entry.undelivered -= 1;
        if entry.undelivered == 0 {
            self.cancelled.extend(self.retransmits.remove(token).and_then(|entry| entry.handle));
        }
    }

    /// Makes `from` the alternate proposer of `id`, if `id` is linked.
    fn set_alternate(&mut self, id: E::Id, from: NodeId) {
        let Some((slot, linked)) = self.ids.get(&id).and_then(|s| s.link()) else { return };
        if let Some(entry) = self.retransmits.get_mut(self.retransmits.widen(slot)) {
            entry.set_alternate(&id, linked, from.as_u32());
        }
    }

    /// Returns the node's current adaptive retransmission timeout.
    pub fn current_rto(&self) -> gossip_types::Duration {
        self.rtt.rto()
    }

    /// Ages the table by the retention horizon: the payloads delivered
    /// before it are no longer retained (the node's own copies of them
    /// go), then every whole window whose ids all predate it leaves the
    /// table, raising the record floor past them.
    ///
    /// Only rows that can age are read. A narrow row's base is the
    /// earliest time among its ids, so one whose base is past the cutoff
    /// holds nothing that ages; it is passed over unread, and the payload
    /// floor drops to its window whether or not it retains anything (a
    /// floor that is too low only makes a later prune read more).
    fn prune_store(&mut self, now: Time) {
        let Some(cutoff) = self.config.retention_cutoff(now) else { return };
        let (before, after) = (self.retained_since, cutoff.max(self.retained_since));
        let (mut floor, mut aged) = (u64::MAX, 0);
        for (window, states) in self.ids.rows_from(self.payload_floor, after) {
            let Some(states) = states else {
                floor = floor.min(window);
                continue;
            };
            for state in states.filter(|state| state.retained(before)) {
                if state.at() < after {
                    aged += 1;
                } else {
                    floor = floor.min(window);
                }
            }
        }
        self.payloads -= aged;
        self.payload_floor = floor;
        self.retained_since = after;
        if aged > 0 && !self.own.is_empty() {
            let ids = &self.ids;
            self.own.retain(|(id, _)| ids.get(id).is_some_and(|s| s.retained(after)));
        }
        // An id's time is its delivery, or its first request while
        // undelivered; either way, one older than the horizon has no
        // payload retained any more. A timer that still counts one of the
        // dropped ids fires and finds no record.
        let timers = &self.retransmits;
        if let Some(floor) = self.ids.drop_expired_rows(|state| state.time(timers) < cutoff) {
            self.record_floor = self.record_floor.max(floor);
        }
    }

    /// Keeps `event` as the node's own copy of `id`'s payload.
    fn keep_own(&mut self, id: E::Id, event: E) {
        match self.own.binary_search_by(|(kept, _)| kept.cmp(&id)) {
            Ok(i) => self.own[i].1 = event,
            Err(i) => self.own.insert(i, (id, event)),
        }
    }

    /// Whether `id`'s payload is retained here.
    fn retains(&self, id: &E::Id) -> bool {
        self.ids.get(id).is_some_and(|s| s.retained(self.retained_since))
    }

    /// Ends this incarnation: drops the whole id table and its own payload
    /// copies, every armed retransmission timer, the pending proposals and
    /// outputs and the scratch buffers, keeping only the counters
    /// ([`GossipNode::stats`]). Returns the deadlines the host attached to
    /// the dropped timers, for it to cancel.
    ///
    /// Hosts call this when the node crashes. A down node takes no input
    /// and a revived one is a fresh `GossipNode`, so nothing of this state
    /// is ever read again — and a payload buffer it shares with live nodes
    /// would otherwise stay pinned for as long as the node stays down.
    pub fn crash(&mut self) -> Vec<EventHandle> {
        let mut cancelled = std::mem::take(&mut self.cancelled);
        let timers = std::mem::take(&mut self.retransmits);
        cancelled.extend(timers.into_values().filter_map(|entry| entry.handle));
        self.ids = DenseMap::new();
        self.own = Vec::new();
        self.payloads = 0;
        self.payload_floor = u64::MAX;
        self.propose_queue = Vec::new();
        self.misbehaviour = Vec::new();
        self.demoted = Vec::new();
        self.outputs = VecDeque::new();
        self.scratch_ids = Vec::new();
        self.scratch_partners = Vec::new();
        self.scratch_events = Vec::new();
        cancelled
    }

    /// Returns the number of events currently stored (servable): the ids
    /// whose payload is retained, kept here or in the host's pool.
    pub fn stored_events(&self) -> usize {
        self.payloads
    }

    /// Returns how many ids have a record, and how many windows those
    /// records span.
    pub fn recorded_ids(&self) -> (usize, usize) {
        (self.ids.len(), self.ids.windows())
    }

    /// Returns how many ids the armed retransmission timers still wait
    /// for (the sum of their undelivered counts): the requests in flight.
    pub fn linked_ids(&self) -> usize {
        self.retransmits.values().map(|entry| entry.undelivered as usize).sum()
    }

    /// Returns whether `id` is below the record floor: its window aged out
    /// of the table, so the node neither requests nor records it again.
    pub fn is_expired(&self, id: &E::Id) -> bool {
        id.dense_key().0 < self.record_floor
    }

    /// Returns the node's own copy of a retained event: under a host that
    /// lends no pool, every stored event; under one that does, only what
    /// the pool did not hold equal at delivery ([`GossipNode::stored_in`]
    /// finds the rest).
    pub fn stored(&self, id: &E::Id) -> Option<&E> {
        self.stored_in(id, None)
    }

    /// Returns the copy of a retained event this node serves: its own, or
    /// else `pool`'s — the pool its host lends with its inputs.
    pub fn stored_in<'a>(
        &'a self,
        id: &E::Id,
        pool: Option<&'a dyn EventPool<E>>,
    ) -> Option<&'a E> {
        if !self.retains(id) {
            return None;
        }
        let own = self.own.binary_search_by(|(kept, _)| kept.cmp(id)).ok();
        own.map(|i| &self.own[i].1).or_else(|| pool?.lookup(id))
    }

    /// Returns how many stored events the node keeps a copy of itself
    /// (the rest are its host's pool's).
    pub fn own_copies(&self) -> usize {
        self.own.len()
    }

    /// Returns whether the given event id has been delivered here.
    pub fn has_delivered(&self, id: &E::Id) -> bool {
        self.ids.get(id).is_some_and(|s| s.delivered())
    }

    /// Returns `(times_requested, delivered)` for an id, if it was ever
    /// requested or delivered (diagnostics).
    pub fn request_info(&self, id: &E::Id) -> Option<(u32, bool)> {
        self.ids.get(id).map(|s| (s.times_requested(), s.delivered()))
    }

    /// Returns the peers this node has demoted for repeat misbehaviour.
    pub fn demoted_peers(&self) -> &[NodeId] {
        &self.demoted
    }

    /// Returns `peer`'s current misbehaviour score (0 if clean).
    pub fn misbehaviour_score(&self, peer: NodeId) -> u32 {
        self.misbehaviour.iter().find(|(p, _)| *p == peer).map_or(0, |(_, s)| *s)
    }
}

impl<E: crate::wire::WireEvent> GossipNode<E> {
    /// Drives the node from a *borrowed* wire frame — the allocation-free
    /// twin of [`GossipNode::on_message_pooled`], lent the frame's pool
    /// ([`Frame::with_pool`](crate::wire::Frame::with_pool)), if it has one.
    ///
    /// Ids and events decode lazily straight out of the receive buffer as
    /// the handlers consume them; no intermediate `Vec`/`Arc` is built. The
    /// protocol effect is identical to decoding the same datagram with
    /// [`crate::wire::decode_message`] and calling `on_message`.
    pub fn on_frame(&mut self, now: Time, frame: &crate::wire::Frame<'_, E>) {
        use crate::wire::FrameKind;
        let pool = frame.pool();
        match frame.kind() {
            FrameKind::Propose => self.handle_propose(now, frame.sender(), frame.ids()),
            FrameKind::Request => self.handle_request(frame.sender(), frame.ids(), pool),
            FrameKind::Serve => self.handle_serve(now, frame.sender(), frame.events(), pool),
            FrameKind::FeedMe => self.handle_feedme(frame.sender()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TestEvent;
    use gossip_sim::EventQueue;
    use gossip_types::Duration;

    fn members(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn drain(node: &mut GossipNode<TestEvent>) -> Vec<Output<TestEvent>> {
        std::iter::from_fn(|| node.poll_output()).collect()
    }

    fn sends(outputs: &[Output<TestEvent>]) -> Vec<(NodeId, &Message<TestEvent>)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn publish_delivers_locally_and_proposes_next_round() {
        let mut node = GossipNode::new_source(NodeId::new(0), GossipConfig::new(3), members(10), 1);
        node.publish(Time::ZERO, TestEvent::new(42, 100));
        let out = drain(&mut node);
        assert!(matches!(out[0], Output::Deliver { event } if event.id() == 42));
        assert!(node.has_delivered(&42));

        node.on_round(Time::from_millis(200));
        let out = drain(&mut node);
        let proposals = sends(&out);
        assert_eq!(proposals.len(), 7, "source proposes with source_fanout = 7");
        for (_, msg) in &proposals {
            assert_eq!(**msg, Message::Propose { ids: vec![42].into() });
        }
    }

    #[test]
    fn infect_and_die_proposes_exactly_once() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(2), members(10), 1);
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(7, 10)] },
        );
        drain(&mut node);
        node.on_round(Time::from_millis(200));
        let first = sends(&drain(&mut node)).len();
        assert_eq!(first, 2, "freshly delivered id proposed to fanout partners");
        node.on_round(Time::from_millis(400));
        let second = sends(&drain(&mut node)).len();
        assert_eq!(second, 0, "infect-and-die: nothing proposed twice");
    }

    #[test]
    fn propose_lifetime_two_reproposes_once() {
        let config = GossipConfig::new(2).with_propose_lifetime(2);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(7, 10)] },
        );
        drain(&mut node);
        node.on_round(Time::from_millis(200));
        assert_eq!(sends(&drain(&mut node)).len(), 2);
        node.on_round(Time::from_millis(400));
        assert_eq!(sends(&drain(&mut node)).len(), 2, "lifetime 2: proposed a second round");
        node.on_round(Time::from_millis(600));
        assert_eq!(sends(&drain(&mut node)).len(), 0);
    }

    #[test]
    fn propose_requests_only_unrequested_ids() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let peer_a = NodeId::new(2);
        let peer_b = NodeId::new(3);

        node.on_message(Time::ZERO, peer_a, Message::Propose { ids: vec![1, 2].into() });
        let out = drain(&mut node);
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0], (peer_a, &Message::Request { ids: vec![1, 2].into() }));

        // A second proposal overlapping the first only pulls the new id.
        node.on_message(Time::ZERO, peer_b, Message::Propose { ids: vec![2, 3].into() });
        let out = drain(&mut node);
        let s = sends(&out);
        assert_eq!(s[0], (peer_b, &Message::Request { ids: vec![3].into() }));
        assert_eq!(node.stats().duplicate_ids_proposed, 1);
    }

    #[test]
    fn fully_duplicate_proposal_sends_nothing() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        node.on_message(Time::ZERO, NodeId::new(2), Message::Propose { ids: vec![5].into() });
        drain(&mut node);
        node.on_message(Time::ZERO, NodeId::new(3), Message::Propose { ids: vec![5].into() });
        let out = drain(&mut node);
        assert!(sends(&out).is_empty(), "no request for an already-requested id");
    }

    #[test]
    fn request_is_served_from_store() {
        let mut node = GossipNode::new(NodeId::new(0), GossipConfig::new(3), members(10), 1);
        node.publish(Time::ZERO, TestEvent::new(9, 50));
        drain(&mut node);
        node.on_message(Time::ZERO, NodeId::new(4), Message::Request { ids: vec![9, 10].into() });
        let out = drain(&mut node);
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        match s[0].1 {
            Message::Serve { events } => {
                assert_eq!(events.len(), 1, "id 10 is unknown and skipped");
                assert_eq!(events[0].id(), 9);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        assert_eq!(node.stats().unservable_ids, 1);
    }

    #[test]
    fn serve_delivers_once_and_counts_duplicates() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let ev = TestEvent::new(3, 10);
        node.on_message(Time::ZERO, NodeId::new(2), Message::Serve { events: vec![ev] });
        let out = drain(&mut node);
        assert_eq!(out.iter().filter(|o| matches!(o, Output::Deliver { .. })).count(), 1);
        node.on_message(Time::ZERO, NodeId::new(3), Message::Serve { events: vec![ev] });
        let out = drain(&mut node);
        assert!(out.iter().all(|o| !matches!(o, Output::Deliver { .. })));
        assert_eq!(node.stats().duplicate_events_received, 1);
        assert_eq!(node.stats().events_delivered, 1);
    }

    #[test]
    fn retransmission_rerequests_missing_ids_up_to_k() {
        let config = GossipConfig::new(3).with_max_requests(3);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![1, 2].into() });
        let out = drain(&mut node);
        // Initial request + a scheduled retransmission timer.
        let timer = out
            .iter()
            .find_map(|o| match o {
                Output::ScheduleTimer { token, at } => Some((*token, *at)),
                _ => None,
            })
            .expect("retransmission timer armed");
        assert_eq!(timer.1, Time::ZERO + Duration::from_millis(8000), "initial RTO");

        // Event 1 arrives; event 2 does not.
        node.on_message(
            Time::from_millis(100),
            peer,
            Message::Serve { events: vec![TestEvent::new(1, 10)] },
        );
        drain(&mut node);

        // Timer fires: only id 2 is re-requested, and a new timer is armed.
        node.on_timer(timer.1, timer.0);
        let out = drain(&mut node);
        let s = sends(&out);
        assert_eq!(s[0], (peer, &Message::Request { ids: vec![2].into() }));
        assert_eq!(node.stats().retransmit_requests, 1);
        let timer2 = out.iter().find_map(|o| match o {
            Output::ScheduleTimer { token, at } => Some((*token, *at)),
            _ => None,
        });
        let (tok2, at2) = timer2.expect("budget allows a third request");

        // Third expiry: id 2 has now been requested K = 3 times; afterwards
        // no more requests ever go out.
        node.on_timer(at2, tok2);
        let out = drain(&mut node);
        assert_eq!(sends(&out).len(), 1, "third and final request");
        let timer3 = out.iter().find_map(|o| match o {
            Output::ScheduleTimer { token, at } => Some((*token, *at)),
            _ => None,
        });
        if let Some((tok3, at3)) = timer3 {
            node.on_timer(at3, tok3);
            let out = drain(&mut node);
            assert!(sends(&out).is_empty(), "K exhausted: no fourth request");
        }
    }

    #[test]
    fn retransmit_timer_is_noop_when_everything_arrived() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![1].into() });
        let out = drain(&mut node);
        let (token, at) = out
            .iter()
            .find_map(|o| match o {
                Output::ScheduleTimer { token, at } => Some((*token, *at)),
                _ => None,
            })
            .unwrap();
        node.on_message(
            Time::from_millis(50),
            peer,
            Message::Serve { events: vec![TestEvent::new(1, 10)] },
        );
        drain(&mut node);
        node.on_timer(at, token);
        let out = drain(&mut node);
        assert!(out.is_empty(), "everything arrived: timer is a silent no-op");
    }

    #[test]
    fn stale_timer_token_is_ignored() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        node.on_timer(Time::ZERO, TimerToken(999));
        assert!(drain(&mut node).is_empty());
    }

    #[test]
    fn k_equals_one_arms_no_timer() {
        let config = GossipConfig::new(3).with_max_requests(1);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        node.on_message(Time::ZERO, NodeId::new(2), Message::Propose { ids: vec![1].into() });
        let out = drain(&mut node);
        assert!(
            out.iter().all(|o| !matches!(o, Output::ScheduleTimer { .. })),
            "K = 1 means the initial request is the only one"
        );
        assert!(node.retransmits.is_empty(), "no timer, no entry");
        serve(&mut node, 50, NodeId::new(2), TestEvent::new(1, 10));
        assert!(node.has_delivered(&1));
        assert_eq!(node.poll_cancelled(), None, "and nothing to cancel");
    }

    #[test]
    fn source_ignores_proposals() {
        let mut source =
            GossipNode::new_source(NodeId::new(0), GossipConfig::new(3), members(10), 1);
        source.on_message(
            Time::ZERO,
            NodeId::new(1),
            Message::Propose { ids: vec![1, 2, 3].into() },
        );
        assert!(drain(&mut source).is_empty(), "the source never requests");
    }

    #[test]
    fn feedme_messages_sent_every_y_rounds() {
        let config = GossipConfig::new(4).with_feedme_rounds(Some(2));
        let mut node = GossipNode::new(NodeId::new(1), config, members(20), 1);
        node.on_round(Time::ZERO);
        let r1 = drain(&mut node);
        assert_eq!(
            r1.iter().filter(|o| matches!(o, Output::Send { msg: Message::FeedMe, .. })).count(),
            0
        );
        node.on_round(Time::from_millis(200));
        let r2 = drain(&mut node);
        assert_eq!(
            r2.iter().filter(|o| matches!(o, Output::Send { msg: Message::FeedMe, .. })).count(),
            4,
            "every Y=2 rounds, f feed-mes go out"
        );
        assert_eq!(node.stats().feedmes_sent, 4);
    }

    #[test]
    fn feedme_reception_changes_view() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(30), 1);
        node.on_round(Time::ZERO); // initialise the view
        drain(&mut node);
        let before = node.partners().to_vec();
        let newcomer =
            (0..30).map(NodeId::new).find(|id| !before.contains(id) && *id != node.id()).unwrap();
        node.on_message(Time::ZERO, newcomer, Message::FeedMe);
        assert!(node.partners().contains(&newcomer));
        assert_eq!(node.stats().feedmes_adopted, 1);
    }

    #[test]
    fn store_pruning_forgets_old_payloads_but_not_requests() {
        let config = GossipConfig::new(2).with_retention(Duration::from_secs(10));
        let mut node = GossipNode::new(NodeId::new(1), config, members(5), 1);
        let (peer, late) = (NodeId::new(2), NodeId::new(3));
        serve(&mut node, 0, peer, TestEvent::new(1, 10));
        serve(&mut node, 25_000, peer, TestEvent::new(2, 10));
        drain(&mut node);
        assert_eq!(node.stored_events(), 2);

        node.on_round(Time::from_secs(30));
        drain(&mut node);
        assert_eq!(node.stored_events(), 1, "id 1's payload pruned after retention");
        assert!(node.has_delivered(&1), "its record stays while its window has a younger one");

        // A late proposal for the pruned id is *not* re-requested.
        node.on_message(Time::from_secs(31), late, Message::Propose { ids: vec![1].into() });
        assert!(sends(&drain(&mut node)).is_empty());

        // Once the window's last record is older than the horizon, the
        // window leaves the table and its ids are expired: still never
        // requested again, counted as duplicates, held against nobody.
        node.on_round(Time::from_secs(40));
        drain(&mut node);
        assert_eq!((node.stored_events(), node.recorded_ids()), (0, (0, 0)));
        assert!(node.is_expired(&1) && node.is_expired(&2) && !node.is_expired(&256));
        assert!(!node.has_delivered(&1));
        node.on_message(
            Time::from_secs(41),
            late,
            Message::Propose { ids: vec![1, 2, 256].into() },
        );
        let out = drain(&mut node);
        assert_eq!(sends(&out), [(late, &Message::Request { ids: vec![256].into() })]);
        assert_eq!(node.stats().duplicate_ids_proposed, 3);
        assert_eq!(node.misbehaviour_score(late), 0);
        // A serve of an expired id is a duplicate and brings no row back.
        serve(&mut node, 41_000, late, TestEvent::new(2, 10));
        assert!(drain(&mut node).iter().all(|o| !matches!(o, Output::Deliver { .. })));
        assert_eq!(node.stats().duplicate_events_received, 1);
        assert_eq!(node.recorded_ids(), (1, 1), "only 256's record, in window 1");
    }

    #[test]
    fn a_crash_empties_the_store_and_keeps_only_the_counters() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(2), members(5), 1);
        let peer = NodeId::new(2);
        serve(&mut node, 0, peer, TestEvent::new(1, 10));
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![2].into() });
        drain(&mut node);
        assert_eq!(node.stored(&1), Some(&TestEvent::new(1, 10)));
        assert_eq!((node.stored_events(), node.recorded_ids()), (1, (2, 1)));
        let stats = *node.stats();

        // Payloads and records go, buffers included; the counters stay.
        node.crash();
        assert_eq!(node.stats(), &stats, "the counters survive");
        assert_eq!(node.stats().events_delivered, 1);
        assert_eq!((node.stored_events(), node.recorded_ids()), (0, (0, 0)));
        assert!(!node.has_delivered(&1) && node.stored(&1).is_none());
        assert_eq!(node.ids.capacity(), 0);
        assert_eq!(node.propose_queue.capacity(), 0, "the pending proposals went");
        assert_eq!(node.outputs.capacity() + node.scratch_ids.capacity(), 0);

        // What follows is a fresh incarnation, which hosts build anew: it
        // knows nothing of the old one's ids and requests them all.
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(2), members(5), 1);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![1, 2].into() });
        let out = drain(&mut node);
        assert_eq!(sends(&out), [(peer, &Message::Request { ids: vec![1, 2].into() })]);
    }

    #[test]
    fn a_crash_cancels_every_deadline_and_ends_the_incarnation() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let mut queue = EventQueue::new();
        let peer = NodeId::new(2);
        for ids in [vec![1, 2], vec![3]] {
            node.on_message(Time::ZERO, peer, Message::Propose { ids: ids.into() });
        }
        let out = schedule(&mut node, &mut queue);
        serve(&mut node, 50, peer, TestEvent::new(1, 10));
        drain(&mut node);
        assert_eq!((queue.len(), node.retransmits.len()), (2, 2));

        // Both armed timers' deadlines come back, and no timer stays.
        let handles = node.crash();
        assert_eq!(handles.len(), 2);
        assert!(handles.into_iter().all(|h| queue.cancel(h)) && queue.is_empty());
        assert_eq!(node.poll_cancelled(), None);
        assert!(node.retransmits.is_empty() && node.retransmits.capacity() == 0);
        assert_eq!(node.request_info(&2), None, "the request went with the incarnation");

        // The dead incarnation's tokens name nothing.
        for o in out {
            if let Output::ScheduleTimer { token, at } = o {
                node.on_timer(at, token);
            }
        }
        assert!(drain(&mut node).is_empty());
    }

    #[test]
    fn a_long_stream_holds_one_retention_horizon_of_payloads_and_records() {
        // Ten ids per 100 ms round for 12 s under a 1 s retention: twelve
        // horizons, 1200 ids over five windows of 256, window 0 left empty.
        const FIRST: u64 = 256;
        const PER_ROUND: u64 = 10;
        const ROUNDS: u64 = 120;
        const END: u64 = FIRST + ROUNDS * PER_ROUND;
        let config = GossipConfig::new(2).with_retention(Duration::from_secs(1));
        let mut node = GossipNode::new(NodeId::new(1), config.clone(), members(5), 1);
        let peer = NodeId::new(2);
        // What falls inside [now − 1 s, now]: eleven rounds' deliveries.
        let horizon = 11 * PER_ROUND;
        let mut now = Time::ZERO;
        for round in 0..ROUNDS {
            now = Time::from_millis(100 * round);
            let ids: Vec<u64> = (0..PER_ROUND).map(|i| FIRST + round * PER_ROUND + i).collect();
            let events = ids.iter().map(|&id| TestEvent::new(id, 10)).collect();
            node.on_message(now, peer, Message::Propose { ids: ids.into() });
            node.on_message(now, peer, Message::Serve { events });
            node.on_round(now);
            drain(&mut node);
            let expected = horizon.min((round + 1) * PER_ROUND);
            assert_eq!(node.stored_events() as u64, expected, "round {round}");
            // Records: every id from the start of the window that holds
            // the oldest retained one, up to the newest.
            let oldest = FIRST + round.saturating_sub(10) * PER_ROUND;
            let newest = FIRST + (round + 1) * PER_ROUND - 1;
            let kept = newest + 1 - (oldest & !0xFF).max(FIRST);
            assert_eq!(node.recorded_ids().0 as u64, kept, "round {round}");
            assert!(node.recorded_ids().1 <= 2, "round {round}: one horizon spans two windows");
        }
        assert_eq!(node.stats().events_delivered, ROUNDS * PER_ROUND);
        assert_eq!(node.stored(&(END - horizon - 1)), None, "pruned");
        assert!(node.stored(&(END - horizon)).is_some() && node.stored(&(END - 1)).is_some());
        assert!(node.is_expired(&FIRST) && !node.is_expired(&(END - horizon)));

        // Another peer proposes the whole stream again: expired, pruned or
        // retained, no id is requested a second time.
        let all: Vec<u64> = (FIRST..END).collect();
        node.on_message(now, NodeId::new(3), Message::Propose { ids: all.into() });
        assert!(sends(&drain(&mut node)).is_empty(), "a pruned id was re-requested");
        assert_eq!(node.misbehaviour_score(NodeId::new(3)), 0, "old news is not misbehaviour");

        // A payload behind the record floor is a duplicate that brings no
        // window back; one far ahead of the stream is counted, served and
        // aged out like any other.
        let records = node.recorded_ids();
        node.on_message(now, peer, Message::Serve { events: vec![TestEvent::new(7, 10)] });
        assert_eq!((node.stored(&7), node.recorded_ids()), (None, records));
        node.publish(now, TestEvent::new(3 << 40, 10));
        drain(&mut node);
        assert_eq!(node.stored_events() as u64, horizon + 1);
        assert!(node.stored(&(3 << 40)).is_some());
        node.on_round(now + Duration::from_secs(2));
        drain(&mut node);
        assert_eq!(node.stored_events(), 0, "everything aged out");
        assert_eq!(node.recorded_ids(), (0, 0), "and every window with it");
        assert!(node.is_expired(&(3 << 40)) && !node.is_expired(&((3 << 40) + 256)));

        // A crash ends the incarnation: only the counters stay, and the
        // next life starts from nothing — no floor, so it requests again.
        node.on_message(now, peer, Message::Serve { events: vec![TestEvent::new(4 << 40, 10)] });
        assert_eq!(node.stored_events(), 1);
        node.crash();
        assert_eq!((node.stored_events(), node.recorded_ids()), (0, (0, 0)));
        assert_eq!(node.stats().events_delivered, ROUNDS * PER_ROUND + 2);
        let mut node = GossipNode::new(NodeId::new(1), config, members(5), 1);
        node.on_message(now, peer, Message::Propose { ids: vec![FIRST, END - 1].into() });
        assert_eq!(sends(&drain(&mut node)).len(), 1, "a fresh life requests what the old had");
        assert_eq!(node.request_info(&FIRST), Some((1, false)));
    }

    /// A reference model of one node's id table at full precision: per id
    /// (times requested, delivered, time), where the time is the first
    /// request's until delivery and the delivery's after; the node's
    /// retention cutoff and record floor; and which armed timer each
    /// undelivered id is waiting on.
    #[derive(Default)]
    struct TableModel {
        ids: std::collections::HashMap<u64, (u32, bool, Time)>,
        retained_since: Time,
        floor: u64,
        /// Each armed timer's ids and how many of them it still counts.
        entries: std::collections::HashMap<TimerToken, (Vec<u64>, usize)>,
        links: std::collections::HashMap<u64, TimerToken>,
    }

    impl TableModel {
        fn retained(&self, id: u64) -> bool {
            let state = self.ids.get(&id);
            state.is_some_and(|&(_, delivered, at)| delivered && at >= self.retained_since)
        }

        fn expired(&self, id: u64) -> bool {
            id.dense_key().0 < self.floor
        }

        fn propose(&mut self, now: Time, ids: &[u64]) {
            for &id in ids {
                if !self.expired(id) {
                    self.ids.entry(id).or_insert((1, false, now));
                }
            }
        }

        fn serve(&mut self, now: Time, id: u64) {
            if self.expired(id) {
                return;
            }
            let at = now.max(self.retained_since);
            let state = self.ids.entry(id).or_insert((0, false, now));
            if state.1 {
                return;
            }
            *state = (state.0, true, at);
            if let Some(token) = self.links.remove(&id) {
                let (_, counted) = self.entries.get_mut(&token).expect("a link names its entry");
                *counted -= 1;
                if *counted == 0 {
                    self.entries.remove(&token);
                }
            }
        }

        /// A timer armed for `ids`: it counts them all and takes those no
        /// other timer waits on.
        fn arm(&mut self, token: TimerToken, ids: &[u64]) {
            for &id in ids {
                self.links.entry(id).or_insert(token);
            }
            self.entries.insert(token, (ids.to_vec(), ids.len()));
        }

        fn fire(&mut self, token: TimerToken, cap: u32) {
            let Some((ids, _)) = self.entries.remove(&token) else { return };
            for id in ids {
                if self.links.get(&id) == Some(&token) {
                    self.links.remove(&id);
                }
                match self.ids.get_mut(&id) {
                    Some((times, false, _)) if *times < cap => *times += 1,
                    _ => {}
                }
            }
        }

        fn round(&mut self, now: Time, retention: Duration) {
            let Some(cutoff) = now.as_micros().checked_sub(retention.as_micros()) else { return };
            let cutoff = Time::from_micros(cutoff);
            self.retained_since = self.retained_since.max(cutoff);
            let windows: std::collections::BTreeSet<u64> =
                self.ids.keys().map(|id| id.dense_key().0).collect();
            for window in windows {
                let in_window = |id: &u64| id.dense_key().0 == window;
                if self.ids.iter().any(|(id, &(_, _, at))| in_window(id) && at >= cutoff) {
                    break;
                }
                self.ids.retain(|id, _| !in_window(id));
                self.floor = window + 1;
            }
        }
    }

    #[test]
    fn narrow_rows_read_exactly_as_wide_ones_under_jittered_rounds() {
        // Rounds every 130 ms, each one's `now` jittered by up to ±20 ms as
        // a shard's wall clock is, under a 1 s retention: every cutoff falls
        // inside a round, and deliveries land at arbitrary µs on both sides
        // of it. Folding a delivery to its round would misplace some; a
        // narrow row must not misplace any.
        const K: u32 = 3;
        let retention = Duration::from_secs(1);
        let config = GossipConfig::new(2)
            .with_retention(retention)
            .with_retransmit_timeout(Duration::from_millis(60))
            .with_rto_bounds(Duration::from_millis(40), Duration::from_millis(100))
            .with_max_requests(K);
        let mut node = GossipNode::new(NodeId::new(1), config, members(8), 1);
        let mut rng = DetRng::seed_from(38);
        let mut model = TableModel::default();
        let mut timers: Vec<(Time, TimerToken)> = Vec::new();
        // Every id the run names; ids skipped on first proposal, proposed
        // later into what may be a narrow row by then; ids requested.
        let mut universe = std::collections::BTreeSet::new();
        let (mut late, mut requested) = (Vec::new(), Vec::new());
        let (mut head, mut now) = (256u64, Time::ZERO);
        let mut narrow = std::collections::BTreeSet::new();
        let (mut narrowed, mut widened) = (0, 0);

        // Hands the node's outputs to the model: a timer guards the ids of
        // the request just before it.
        let settle = |node: &mut GossipNode<TestEvent>,
                      model: &mut TableModel,
                      timers: &mut Vec<(Time, TimerToken)>| {
            let mut last_request = Vec::new();
            for output in drain(node) {
                match output {
                    Output::Send { msg: Message::Request { ids }, .. } => {
                        last_request = ids.to_vec();
                    }
                    Output::ScheduleTimer { token, at } => {
                        model.arm(token, &last_request);
                        timers.push((at, token));
                    }
                    _ => {}
                }
            }
        };
        let check = |node: &GossipNode<TestEvent>,
                     model: &TableModel,
                     universe: &std::collections::BTreeSet<u64>,
                     step: &str| {
            let retained = universe.iter().filter(|&&id| model.retained(id)).count();
            assert_eq!(node.stored_events(), retained, "{step}");
            for &id in universe {
                let stored = node.stored(&id).map(|event| event.id());
                assert_eq!(stored, model.retained(id).then_some(id), "{step}: id {id}");
                let info = model.ids.get(&id).map(|&(times, delivered, _)| (times, delivered));
                assert_eq!(node.request_info(&id), info, "{step}: id {id}");
                assert_eq!(node.is_expired(&id), model.expired(id), "{step}: id {id}");
            }
        };

        for round in 1..=70u64 {
            let jitter = rng.range_u64(0, 40_001) as i64 - 20_000;
            let round_at = Time::from_micros((130_000 * round).saturating_add_signed(jitter));
            let mut inputs: Vec<u64> =
                (0..6).map(|_| rng.range_u64(now.as_micros() + 1, round_at.as_micros())).collect();
            inputs.sort_unstable();
            for at in inputs.into_iter().map(Time::from_micros).chain([round_at]) {
                // Due timers first, in deadline order.
                timers.sort_unstable();
                while let Some(&(due, token)) = timers.first().filter(|&&(due, _)| due <= at) {
                    timers.remove(0);
                    now = now.max(due);
                    node.on_timer(now, token);
                    model.fire(token, K);
                    settle(&mut node, &mut model, &mut timers);
                    check(&node, &model, &universe, &format!("timer at {now:?}"));
                }
                now = at;
                let peer = NodeId::new(2 + rng.index(6) as u32);
                let step = if at == round_at { 4 } else { rng.index(4) };
                match step {
                    0 => {
                        // The stream's next ids, a tenth of them held back.
                        let count = rng.range_u64(20, 50);
                        let mut ids = Vec::new();
                        for id in head..head + count {
                            if rng.chance(0.1) {
                                late.push(id)
                            } else {
                                ids.push(id)
                            }
                        }
                        head += count;
                        node.on_message(now, peer, Message::Propose { ids: ids.clone().into() });
                        model.propose(now, &ids);
                        universe.extend(&ids);
                        requested.extend(ids);
                    }
                    1 => {
                        // Held-back ids, once the stream is a window on.
                        let (ids, young) = late.iter().partition(|&&id| id + 256 < head);
                        let ids: Vec<u64> = ids;
                        late = young;
                        node.on_message(now, peer, Message::Propose { ids: ids.clone().into() });
                        model.propose(now, &ids);
                        universe.extend(&ids);
                        requested.extend(ids);
                    }
                    2 => {
                        // Serves of requested ids, each one with odds 3 in
                        // 5; one id in 17 is never served.
                        let mut events = Vec::new();
                        requested.retain(|&id| {
                            let wait = id % 17 == 0 || rng.chance(0.4);
                            if !wait {
                                events.push(TestEvent::new(id, 10));
                            }
                            wait
                        });
                        for event in &events {
                            model.serve(now, event.id());
                        }
                        node.on_message(now, peer, Message::Serve { events });
                    }
                    3 => {
                        // An unrequested delivery of the stream's next id.
                        universe.insert(head);
                        node.on_message(
                            now,
                            peer,
                            Message::Serve { events: vec![TestEvent::new(head, 10)] },
                        );
                        model.serve(now, head);
                        head += 1;
                    }
                    _ => {
                        node.on_round(now);
                        model.round(now, retention);
                    }
                }
                settle(&mut node, &mut model, &mut timers);
                check(&node, &model, &universe, &format!("step {step} at {now:?}"));
                let current: std::collections::BTreeSet<u64> = node.ids.narrow_windows().collect();
                narrowed += current.difference(&narrow).count();
                let present =
                    |window: &&u64| model.ids.keys().any(|id| id.dense_key().0 == **window);
                widened += narrow.difference(&current).filter(present).count();
                narrow = current;
            }
        }
        assert!(node.stats().retransmit_requests > 0, "no timer fired");
        assert!(model.ids.values().any(|&(times, delivered, _)| times == K && !delivered));
        assert!(narrowed > 0 && widened > 0, "{narrowed} rows narrowed, {widened} widened again");
    }

    #[test]
    fn a_shared_membership_list_is_adopted_not_copied() {
        let shared: Arc<[NodeId]> = members(12).into();
        let mut nodes: Vec<GossipNode<TestEvent>> = (1..4)
            .map(|i| GossipNode::new(NodeId::new(i), GossipConfig::new(3), Vec::new(), 1))
            .collect();
        for node in &mut nodes {
            node.set_membership(Arc::clone(&shared));
            assert!(std::ptr::eq(node.membership(), &*shared));
        }
        // One address, three different own slots to step over.
        for round in 1..=20u64 {
            for node in &mut nodes {
                node.on_round(Time::from_millis(200 * round));
                drain(node);
                assert_eq!(node.partners().len(), 3);
                assert!(!node.partners().contains(&node.id()), "a node drew itself");
            }
        }
    }

    #[test]
    fn empty_round_sends_nothing_but_advances_refresh() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(20), 1);
        node.on_round(Time::ZERO);
        assert!(drain(&mut node).is_empty(), "nothing to propose");
        assert_eq!(node.rounds(), 1);
    }

    #[test]
    fn absurd_retransmission_budget_is_clamped_to_the_counter_width() {
        let config = GossipConfig::new(2).with_max_requests(u32::MAX);
        let node: GossipNode<TestEvent> = GossipNode::new(NodeId::new(1), config, members(5), 1);
        assert_eq!(node.max_requests_cap(), (1 << 14) - 1);
        // A saturated counter never compares below the clamped cap, so the
        // retry loop terminates even under an unrepresentable budget.
        let mut s = RequestState::new(u32::MAX, false, Time::ZERO);
        s.bump_requested();
        assert!(s.times_requested() >= node.max_requests_cap());
    }

    #[test]
    fn request_state_packs_into_eight_bytes_with_a_niche() {
        assert_eq!(std::mem::size_of::<RequestState>(), 8);
        assert_eq!(std::mem::size_of::<Option<RequestState>>(), 8);
    }

    #[test]
    fn a_one_pointer_event_costs_a_node_8_bytes_per_id() {
        // What `StreamPacket` is (pinned beside it): 8 bytes with a niche.
        #[derive(Debug, Clone, PartialEq)]
        struct Handle(Arc<TestEvent>);
        impl Event for Handle {
            type Id = u64;
            fn id(&self) -> u64 {
                self.0.id()
            }
            fn wire_size(&self) -> usize {
                self.0.wire_size()
            }
            fn id_wire_size() -> usize {
                TestEvent::id_wire_size()
            }
        }
        assert_eq!(std::mem::size_of::<Handle>(), 8);
        // The id table holds none of it — a retained payload is the host
        // pool's, or in the node's sparse table of its own copies — so a
        // slot is the request word, and the marker bit is the whole point:
        // it needs no discriminant beyond the NonZeroU64 niche. That is 8
        // bytes at most: once its row narrows, 4.
        fn slots<K, V: Narrow>(_: &DenseMap<K, V, NarrowRow<V>>) -> (usize, usize) {
            (std::mem::size_of::<Option<V>>(), std::mem::size_of::<Option<V::Word>>())
        }
        let node: GossipNode<Handle> =
            GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(2), 1);
        assert_eq!(slots(&node.ids), (8, 4));
    }

    #[test]
    fn a_narrow_request_word_packs_into_four_bytes_with_a_niche() {
        type Word = <RequestState as Narrow>::Word;
        assert_eq!(std::mem::size_of::<Word>(), 4);
        assert_eq!(std::mem::size_of::<Option<Word>>(), 4);
    }

    #[test]
    fn a_narrow_word_roundtrips_or_is_refused() {
        let base = Time::from_micros(123_456_789);
        let roundtrip = |state: RequestState| {
            state.narrow(base).map(|word| RequestState::widen(word, base).0.get())
        };
        let limit = Duration::from_micros((1 << 28) - 1);
        for (times, delivered, at) in [
            (0, true, base),
            (1, false, base),
            (7, true, base + limit),
            (3, false, base + Duration::from_micros(1)),
        ] {
            let state = RequestState::new(times, delivered, at);
            assert_eq!(roundtrip(state), Some(state.0.get()), "{times} {delivered} {at:?}");
        }
        // What does not fit stays wide: eight requests, a time past 2²⁸ µs
        // after the base or before it, the all-zero word and a link.
        for state in [
            RequestState::new(8, true, base),
            RequestState::new(1, true, base + limit + Duration::from_micros(1)),
            RequestState::new(1, true, Time::from_micros(base.as_micros() - 1)),
            RequestState::new(0, false, base),
            RequestState::new(1, false, base).linked(3, 4),
        ] {
            assert_eq!(state.narrow(base), None, "{state:?}");
        }
        assert_eq!(RequestState::new(1, false, base).linked(3, 4).base(), None);
    }

    #[test]
    fn a_retransmit_entry_is_64_bytes() {
        // Peer, attempt and undelivered (3 × 4 B) and the handle (two u32s
        // and a tag, 12 B) fill 24 B, the first-request time 8 B, and the
        // id buffer and the alternates are fat pointers (2 × 16 B). Ids sit
        // behind the `Arc`, so every id type — `PacketId` too — gives 64 B.
        assert_eq!(std::mem::size_of::<RetransmitEntry<u64>>(), 64);
    }

    /// The one retransmission timer among `out`.
    fn timer_of(out: &[Output<TestEvent>]) -> Option<(TimerToken, Time)> {
        out.iter().find_map(|o| match o {
            Output::ScheduleTimer { token, at } => Some((*token, *at)),
            _ => None,
        })
    }

    /// The alternate proposer of `id`, read through its link.
    fn alternate_of(node: &GossipNode<TestEvent>, id: u64) -> Option<u32> {
        let (slot, linked) = node.ids.get(&id)?.link()?;
        node.retransmits.get(node.retransmits.widen(slot))?.alternate(&id, linked)
    }

    #[test]
    fn serving_every_requested_id_leaves_no_armed_entry_and_so_no_alternate() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let (first, second) = (NodeId::new(2), NodeId::new(3));
        node.on_message(Time::ZERO, first, Message::Propose { ids: vec![1, 2, 3].into() });
        node.on_message(Time::ZERO, second, Message::Propose { ids: vec![2, 3, 4].into() });
        drain(&mut node);
        // Each id links its timer; 2 and 3 also remember `second`, in the
        // first proposal's entry: the second's holds no alternate at all.
        assert_eq!(node.linked_ids(), 4);
        assert_eq!(alternate_of(&node, 2), Some(second.as_u32()));
        assert_eq!(alternate_of(&node, 1), None);
        let holding: Vec<usize> = node.retransmits.values().map(|e| e.alternates.len()).collect();
        assert_eq!(holding, [3, 0]);
        for (id, from) in [(1, first), (2, first), (4, second)] {
            serve(&mut node, 10, from, TestEvent::new(id, 10));
        }
        assert_eq!(node.linked_ids(), 1, "only 3 is still in flight");
        assert_eq!(alternate_of(&node, 3), Some(second.as_u32()));
        serve(&mut node, 20, first, TestEvent::new(3, 10));
        drain(&mut node);
        assert!(node.retransmits.is_empty(), "no armed entry, so no alternate");
        // A proposal of what is delivered links nothing.
        node.on_message(Time::ZERO, NodeId::new(4), Message::Propose { ids: vec![1, 3].into() });
        assert_eq!((node.linked_ids(), node.retransmits.len()), (0, 0));
    }

    #[test]
    fn a_silent_peers_id_keeps_its_alternate_only_while_its_budget_lasts() {
        let config = GossipConfig::new(3).with_retention(Duration::from_secs(60));
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        let (silent, other) = (NodeId::new(2), NodeId::new(3));
        node.on_message(Time::ZERO, silent, Message::Propose { ids: vec![1].into() });
        let mut timer = timer_of(&drain(&mut node));
        node.on_message(Time::ZERO, other, Message::Propose { ids: vec![1].into() });
        assert_eq!((node.linked_ids(), alternate_of(&node, 1)), (1, Some(other.as_u32())));
        // K = 3: the first expiry re-requests and re-arms, the alternate
        // moving to the new entry; the last request leaves no budget, no
        // timer and nothing to link.
        for requests in [2, 3] {
            let (token, at) = timer.expect("budget left: a timer is armed");
            node.on_timer(at, token);
            let out = drain(&mut node);
            assert_eq!(node.request_info(&1), Some((requests, false)));
            timer = timer_of(&out);
            let budget_left = requests < 3;
            assert_eq!(timer.is_some(), budget_left);
            assert_eq!(node.linked_ids(), usize::from(budget_left), "request {requests}");
            assert_eq!(alternate_of(&node, 1), budget_left.then_some(other.as_u32()));
        }
        assert!(node.retransmits.is_empty());
        // A spent id takes no alternate any more: nothing could use it.
        node.on_message(Time::ZERO, other, Message::Propose { ids: vec![1].into() });
        assert_eq!((node.linked_ids(), alternate_of(&node, 1)), (0, None));

        // An id whose window passes the record floor undelivered loses its
        // link with its record; its timer, still armed, then fires into
        // nothing.
        node.on_message(Time::ZERO, silent, Message::Propose { ids: vec![300].into() });
        let (token, at) = timer_of(&drain(&mut node)).expect("armed");
        node.on_message(Time::ZERO, other, Message::Propose { ids: vec![300].into() });
        assert_eq!(alternate_of(&node, 300), Some(other.as_u32()));
        node.on_round(Time::from_secs(61));
        assert!(node.is_expired(&300) && node.request_info(&300).is_none());
        assert_eq!(node.retransmits.len(), 1);
        node.on_timer(at, token);
        assert!(drain(&mut node).is_empty() && node.retransmits.is_empty());
        assert_eq!(node.linked_ids(), 0);
    }

    #[test]
    fn a_crash_leaves_the_timer_slab_without_capacity() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let ids: Vec<u64> = (0..100).collect();
        node.on_message(Time::ZERO, NodeId::new(2), Message::Propose { ids: ids.clone().into() });
        node.on_message(Time::ZERO, NodeId::new(3), Message::Propose { ids: ids.into() });
        drain(&mut node);
        assert_eq!((node.linked_ids(), alternate_of(&node, 99)), (100, Some(3)));
        node.crash();
        assert_eq!((node.linked_ids(), node.retransmits.capacity()), (0, 0));
    }

    #[test]
    fn an_id_repeated_within_one_proposal_gets_its_proposer_as_alternate_and_only_it() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let (first, third) = (NodeId::new(2), NodeId::new(4));
        node.on_message(Time::ZERO, first, Message::Propose { ids: vec![5, 6, 5, 7].into() });
        let out = drain(&mut node);
        assert_eq!(sends(&out), [(first, &Message::Request { ids: vec![5, 6, 7].into() })]);
        assert_eq!(node.stats().duplicate_ids_proposed, 1);
        assert_eq!([5, 6, 7].map(|id| alternate_of(&node, id)), [Some(first.as_u32()), None, None]);
        // A third peer corrupts both 5 and 6: only 5 goes back to `first`.
        let corrupt = [5, 6].map(|id| TestEvent::new(id, 10).corrupted()).to_vec();
        node.on_message(Time::from_millis(50), third, Message::Serve { events: corrupt });
        let out = drain(&mut node);
        assert_eq!(sends(&out), [(first, &Message::Request { ids: vec![5].into() })]);
        assert_eq!(node.stats().corrupt_rerequests, 1);

        // Without a second request there is no timer, and no alternate.
        let config = GossipConfig::new(3).with_max_requests(1);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        node.on_message(Time::ZERO, first, Message::Propose { ids: vec![5, 5].into() });
        drain(&mut node);
        assert!(node.retransmits.is_empty() && alternate_of(&node, 5).is_none());
    }

    #[test]
    fn an_id_at_a_saturated_position_is_found_by_a_scan() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let (first, second, third) = (NodeId::new(2), NodeId::new(3), NodeId::new(4));
        let ids: Vec<u64> = (0..70_000).collect();
        node.on_message(Time::ZERO, first, Message::Propose { ids: ids.into() });
        drain(&mut node);
        // An id's position is its value here; from 0xFFFF on, links hold
        // 0xFFFF.
        for id in [0, 65_534, 65_535, 65_536, 69_999] {
            let (_, linked) = node.ids.get(&id).and_then(|s| s.link()).expect("linked");
            assert_eq!(linked, (id as usize).min(0xFFFF), "id {id}");
        }
        node.on_message(Time::ZERO, second, Message::Propose { ids: vec![65_535, 69_999].into() });
        assert_eq!(alternate_of(&node, 65_535), Some(second.as_u32()));
        assert_eq!(alternate_of(&node, 69_999), Some(second.as_u32()));
        assert_eq!(alternate_of(&node, 65_536), None, "a neighbour in the saturated range");
        let entry = node.retransmits.values().next().expect("armed");
        let set: Vec<usize> =
            (0..entry.alternates.len()).filter(|&p| entry.alternates[p] != NO_ALTERNATE).collect();
        assert_eq!(set, [65_535, 69_999], "each at its real position");
        // A corrupt serve from a third peer goes to the alternate.
        let corrupt = vec![TestEvent::new(69_999, 10).corrupted()];
        node.on_message(Time::from_millis(50), third, Message::Serve { events: corrupt });
        let out = drain(&mut node);
        assert_eq!(sends(&out), [(second, &Message::Request { ids: vec![69_999].into() })]);
    }

    #[test]
    fn a_linked_word_roundtrips_its_link_and_unlinks_to_the_first_request_time() {
        let t = Time::from_micros(123_456_789);
        let word = RequestState::new(2, false, t);
        assert_eq!(word.link(), None);
        for (slot, position, held) in [
            (0, 0, 0),
            (u32::MAX, 0xFFFF, 0xFFFF),
            (u32::MAX, 0xFFFE, 0xFFFE),
            (7, 1 << 20, 0xFFFF),
        ] {
            let mut linked = word.linked(slot, position);
            assert_eq!(linked.link(), Some((slot, held)));
            assert_eq!((linked.times_requested(), linked.delivered()), (2, false));
            assert_eq!(linked.0.get() & RequestState::MARKER, 0, "the marker is clear");
            linked.bump_requested();
            assert_eq!((linked.link(), linked.times_requested()), (Some((slot, held)), 3));
            let unlinked = linked.unlinked(t);
            assert_eq!((unlinked.link(), unlinked.times_requested()), (None, 3));
            assert_eq!(unlinked.at(), t, "unlinking restores the first-request time");
        }
        // The least linked word is one request at slot 0, position 0: the
        // counter alone keeps it non-zero.
        assert_eq!(RequestState::new(1, false, Time::ZERO).linked(0, 0).0.get(), 1 << 48);
        // A saturated counter stays saturated and leaves the link alone.
        let mut full = RequestState::new(u32::MAX, false, t).linked(u32::MAX, 0xFFFF);
        full.bump_requested();
        assert_eq!(full.link(), Some((u32::MAX, 0xFFFF)));
        assert_eq!((full.times_requested(), full.delivered()), ((1 << 14) - 1, false));
        // Delivery takes the link's bits for the delivery time.
        full.mark_delivered(t);
        assert_eq!((full.link(), full.delivered(), full.at()), (None, true, t));
    }

    #[test]
    fn request_state_roundtrips_and_saturates() {
        let t = Time::from_micros(123_456_789);
        let mut s = RequestState::new(3, false, t);
        assert_eq!(s.times_requested(), 3);
        assert!(!s.delivered());
        assert_eq!(s.at(), t);

        s.bump_requested();
        assert_eq!(s.times_requested(), 4);
        assert_eq!(s.at(), t, "bumping keeps the first-request time");

        let later = Time::from_micros(987_654_321);
        s.mark_delivered(later);
        assert!(s.delivered());
        assert_eq!(s.times_requested(), 4, "delivery leaves the counter alone");
        assert_eq!(s.at(), later, "the delivery time takes the request time's bits");

        // Out-of-range inputs clamp instead of corrupting neighbours.
        let extreme = RequestState::new(u32::MAX, true, Time::MAX);
        assert_eq!(extreme.times_requested(), (1 << 14) - 1);
        assert!(extreme.delivered());
        assert_eq!(extreme.at(), Time::from_micros((1 << 48) - 1));
    }

    #[test]
    fn free_rider_requests_but_never_proposes_or_serves() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        node.set_free_rider(true);
        assert!(node.is_free_rider());

        // It still pulls: a proposal triggers a request.
        node.on_message(Time::ZERO, NodeId::new(2), Message::Propose { ids: vec![7].into() });
        let out = drain(&mut node);
        assert_eq!(sends(&out).len(), 1, "free-riders still request");

        // Delivery works, but the next round proposes nothing.
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(7, 10)] },
        );
        drain(&mut node);
        assert!(node.has_delivered(&7));
        node.on_round(Time::from_millis(200));
        let out = drain(&mut node);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Send { msg: Message::Propose { .. }, .. })),
            "free-riders never propose"
        );

        // And a request for the stored event is ignored.
        node.on_message(Time::ZERO, NodeId::new(3), Message::Request { ids: vec![7].into() });
        let out = drain(&mut node);
        assert!(sends(&out).is_empty(), "free-riders never serve");
        assert_eq!(node.stats().serves_sent, 0);
    }

    #[test]
    fn corrupted_serve_is_dropped_and_rerequested_from_alternate() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let first = NodeId::new(2);
        let alt = NodeId::new(3);
        // Two peers propose id 7: the first is requested, the second is
        // remembered as the alternate.
        node.on_message(Time::ZERO, first, Message::Propose { ids: vec![7].into() });
        drain(&mut node);
        node.on_message(Time::ZERO, alt, Message::Propose { ids: vec![7].into() });
        drain(&mut node);

        // The first peer serves a corrupted payload.
        node.on_message(
            Time::from_millis(50),
            first,
            Message::Serve { events: vec![TestEvent::new(7, 10).corrupted()] },
        );
        let out = drain(&mut node);
        assert!(
            out.iter().all(|o| !matches!(o, Output::Deliver { .. })),
            "a corrupted event is never delivered"
        );
        assert!(!node.has_delivered(&7));
        assert_eq!(node.stored_events(), 0, "never stored, so never served onward");
        assert_eq!(node.stats().corrupted_events_detected, 1);
        assert_eq!(node.stats().corrupt_rerequests, 1);
        assert_eq!(node.misbehaviour_score(first), 1);
        let s = sends(&out);
        assert_eq!(s[0], (alt, &Message::Request { ids: vec![7].into() }));

        // The alternate serves a clean copy: delivered and proposed onward.
        node.on_message(
            Time::from_millis(80),
            alt,
            Message::Serve { events: vec![TestEvent::new(7, 10)] },
        );
        let out = drain(&mut node);
        assert!(out.iter().any(|o| matches!(o, Output::Deliver { event } if event.id() == 7)));
        node.on_round(Time::from_millis(200));
        assert!(
            sends(&drain(&mut node)).iter().any(|(_, m)| matches!(m, Message::Propose { .. })),
            "the clean copy is relayed"
        );
    }

    #[test]
    fn corrupted_serve_without_alternate_leaves_the_timer_to_retry() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![7].into() });
        drain(&mut node);
        node.on_message(
            Time::from_millis(50),
            peer,
            Message::Serve { events: vec![TestEvent::new(7, 10).corrupted()] },
        );
        let out = drain(&mut node);
        assert!(sends(&out).is_empty(), "no alternate proposer: nothing to re-request");
        assert_eq!(node.stats().corrupted_events_detected, 1);
        assert_eq!(node.stats().corrupt_rerequests, 0);
        assert!(!node.has_delivered(&7), "the armed RTO timer will retry in due course");
    }

    #[test]
    fn repeat_offender_is_demoted_and_its_proposals_ignored() {
        let config = GossipConfig::new(3).with_misbehaviour_threshold(2);
        let mut node = GossipNode::new(NodeId::new(1), config, members(6), 1);
        let bad = NodeId::new(2);
        for id in [10u64, 11] {
            node.on_message(Time::ZERO, bad, Message::Propose { ids: vec![id].into() });
            drain(&mut node);
            node.on_message(
                Time::ZERO,
                bad,
                Message::Serve { events: vec![TestEvent::new(id, 10).corrupted()] },
            );
            drain(&mut node);
        }
        assert_eq!(node.stats().peers_demoted, 1);
        assert_eq!(node.demoted_peers(), &[bad]);

        // Its proposals are ignored from now on…
        node.on_message(Time::ZERO, bad, Message::Propose { ids: vec![12].into() });
        assert!(sends(&drain(&mut node)).is_empty());
        assert_eq!(node.stats().proposes_from_demoted_ignored, 1);

        // …it is never drawn as a partner…
        for r in 1..=20u64 {
            node.on_round(Time::from_millis(200 * r));
            drain(&mut node);
            assert!(!node.partners().contains(&bad), "demoted peer drawn as partner");
        }

        // …and it cannot feed-me its way back into the view.
        node.on_message(Time::ZERO, bad, Message::FeedMe);
        assert!(!node.partners().contains(&bad));
        assert_eq!(node.stats().feedmes_adopted, 0);
    }

    #[test]
    fn garbage_propose_ids_beyond_the_horizon_are_rejected() {
        // u64 test ids put the low byte in the dense offset: a horizon of
        // 100 makes offsets 100..256 "garbage".
        let config = GossipConfig::new(3).with_propose_offset_horizon(100);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![5, 200].into() });
        let out = drain(&mut node);
        let s = sends(&out);
        assert_eq!(
            s[0],
            (peer, &Message::Request { ids: vec![5].into() }),
            "the in-horizon id is still requested"
        );
        assert_eq!(node.stats().garbage_ids_rejected, 1);
        assert_eq!(node.misbehaviour_score(peer), 1);
        assert_eq!(node.request_info(&200), None, "the garbage id never touched bookkeeping");
    }

    #[test]
    fn garbage_serve_ids_beyond_the_horizon_are_rejected() {
        // The serve twin: an unrequested payload past the horizon is not
        // delivered, recorded or relayed, and scores its server.
        let config = GossipConfig::new(3).with_propose_offset_horizon(100);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        let peer = NodeId::new(2);
        serve(&mut node, 0, peer, TestEvent::new(200, 10));
        serve(&mut node, 0, peer, TestEvent::new(5, 10));
        let out = drain(&mut node);
        let delivered: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                Output::Deliver { event } => Some(event.id()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [5], "the in-horizon payload is still delivered");
        assert_eq!(node.stats().garbage_ids_rejected, 1);
        assert_eq!(node.misbehaviour_score(peer), 1);
        assert_eq!(node.request_info(&200), None, "the garbage id never touched bookkeeping");
        assert!(node.ids.capacity() <= 100, "no row grew past the horizon");
    }

    #[test]
    fn verification_off_accepts_corrupted_payloads() {
        let config = GossipConfig::new(3).with_verify_payloads(false);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(7, 10).corrupted()] },
        );
        let out = drain(&mut node);
        assert!(
            out.iter().any(|o| matches!(o, Output::Deliver { event } if event.id() == 7)),
            "undefended node swallows the corruption"
        );
        assert_eq!(node.stats().corrupted_events_detected, 0);
        assert!(node.demoted_peers().is_empty());
    }

    /// What a cancelling host does with a step's outputs: every timer goes
    /// into its queue and the node learns the deadline's handle.
    fn schedule(
        node: &mut GossipNode<TestEvent>,
        queue: &mut EventQueue<TimerToken>,
    ) -> Vec<Output<TestEvent>> {
        let out = drain(node);
        for o in &out {
            if let Output::ScheduleTimer { token, at } = o {
                let handle = queue.push(*at, *token);
                node.attach_timer_handle(*token, handle);
            }
        }
        out
    }

    /// The other half: take the cancelled deadlines out of the queue.
    /// Returns how many were really there.
    fn cancel(node: &mut GossipNode<TestEvent>, queue: &mut EventQueue<TimerToken>) -> usize {
        std::iter::from_fn(|| node.poll_cancelled()).filter(|&h| queue.cancel(h)).count()
    }

    fn serve(node: &mut GossipNode<TestEvent>, at_ms: u64, from: NodeId, event: TestEvent) {
        node.on_message(Time::from_millis(at_ms), from, Message::Serve { events: vec![event] });
    }

    #[test]
    fn partial_serve_keeps_the_timer_and_the_last_id_cancels_it() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let mut queue = EventQueue::new();
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![1, 2].into() });
        schedule(&mut node, &mut queue);
        assert_eq!(queue.len(), 1);

        serve(&mut node, 50, peer, TestEvent::new(1, 10));
        assert_eq!(cancel(&mut node, &mut queue), 0, "id 2 is still missing");
        assert_eq!((queue.len(), node.retransmits.len()), (1, 1));
        // A duplicate of what already arrived settles nothing twice.
        serve(&mut node, 60, NodeId::new(3), TestEvent::new(1, 10));
        assert_eq!(cancel(&mut node, &mut queue), 0);

        serve(&mut node, 70, peer, TestEvent::new(2, 10));
        drain(&mut node);
        assert_eq!(cancel(&mut node, &mut queue), 1, "nothing left to retransmit");
        assert!(queue.is_empty() && node.retransmits.is_empty());
        assert_eq!(node.poll_cancelled(), None, "reported once");
    }

    #[test]
    fn a_rearmed_retry_is_cancelled_by_the_late_serve() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let mut queue = EventQueue::new();
        let peer = NodeId::new(2);
        node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![1, 2].into() });
        schedule(&mut node, &mut queue);
        serve(&mut node, 50, peer, TestEvent::new(1, 10));
        drain(&mut node);

        // The timer fires for id 2: re-requested under a new token.
        let (at, first) = queue.pop().expect("armed");
        node.on_timer(at, first);
        let out = schedule(&mut node, &mut queue);
        assert_eq!(sends(&out)[0], (peer, &Message::Request { ids: vec![2].into() }));
        assert_eq!(queue.len(), 1, "the retry has its own deadline");
        assert_eq!(cancel(&mut node, &mut queue), 0);

        serve(&mut node, 9_000, peer, TestEvent::new(2, 10));
        assert_eq!(cancel(&mut node, &mut queue), 1, "the late serve cancels the retry's timer");
        assert!(queue.is_empty() && node.retransmits.is_empty());
    }

    #[test]
    fn a_corrupt_rerequests_side_timer_leaves_the_proposals_count_exact() {
        let config = GossipConfig::new(3).with_max_requests(4);
        let mut node = GossipNode::new(NodeId::new(1), config, members(10), 1);
        let mut queue = EventQueue::new();
        let (first, alt) = (NodeId::new(2), NodeId::new(3));
        node.on_message(Time::ZERO, first, Message::Propose { ids: vec![7, 8].into() });
        let out = schedule(&mut node, &mut queue);
        let proposal_timer = out.iter().find_map(|o| match o {
            Output::ScheduleTimer { token, .. } => Some(*token),
            _ => None,
        });
        node.on_message(Time::ZERO, alt, Message::Propose { ids: vec![7].into() });
        drain(&mut node);

        // A corrupted 7 arms a single-id timer beside the proposal's, which
        // goes on counting id 7.
        serve(&mut node, 50, first, TestEvent::new(7, 10).corrupted());
        schedule(&mut node, &mut queue);
        assert_eq!((queue.len(), node.retransmits.len()), (2, 2));

        // The proposal's timer fires first and re-arms for both ids under
        // a new token, which takes over counting them: still two timers.
        let (at, fired) = queue.pop().expect("armed");
        assert_eq!(Some(fired), proposal_timer);
        node.on_timer(at, fired);
        let out = schedule(&mut node, &mut queue);
        assert_eq!(sends(&out)[0], (first, &Message::Request { ids: vec![7, 8].into() }));
        assert_eq!((queue.len(), node.retransmits.len()), (2, 2));

        // The clean 7 is one of the proposal's two ids, no more.
        serve(&mut node, 9_000, alt, TestEvent::new(7, 10));
        assert_eq!(cancel(&mut node, &mut queue), 0, "id 8 is missing: nothing is cancelled early");
        assert_eq!(queue.len(), 2);
        // Id 8 is the other: the proposal's timer goes, and only it.
        serve(&mut node, 9_010, first, TestEvent::new(8, 10));
        drain(&mut node);
        assert_eq!(cancel(&mut node, &mut queue), 1);
        let (at, side) = queue.pop().expect("the side timer is never cancelled");
        assert!(queue.is_empty());
        assert_eq!(at, Time::from_millis(50) + Duration::from_secs(16), "second-attempt backoff");
        node.on_timer(at, side);
        assert!(drain(&mut node).is_empty(), "it fires into nothing, as every timer used to");
        assert!(node.retransmits.is_empty());
    }

    #[test]
    fn a_host_that_attaches_no_handle_is_told_nothing_and_nothing_accumulates() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(3), members(10), 1);
        let peer = NodeId::new(2);
        let mut timers = Vec::new();
        for id in 0..100u64 {
            node.on_message(Time::ZERO, peer, Message::Propose { ids: vec![id].into() });
            timers.extend(drain(&mut node).into_iter().filter_map(|o| match o {
                Output::ScheduleTimer { token, at } => Some((token, at)),
                _ => None,
            }));
            serve(&mut node, 50, peer, TestEvent::new(id, 10));
            drain(&mut node);
            assert_eq!(node.poll_cancelled(), None);
        }
        assert_eq!(timers.len(), 100);
        assert!(node.retransmits.is_empty(), "a served proposal's entry goes, handle or not");
        assert_eq!(node.cancelled.capacity(), 0, "nothing was ever queued for this host");
        // The deadlines it could not cancel fire as they always did.
        for (token, at) in timers {
            node.on_timer(at, token);
            assert!(drain(&mut node).is_empty());
        }
        assert_eq!(node.stats().retransmit_requests, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(5), members(50), seed);
            node.on_message(
                Time::ZERO,
                NodeId::new(2),
                Message::Serve { events: vec![TestEvent::new(1, 10)] },
            );
            drain(&mut node);
            node.on_round(Time::from_millis(200));
            sends(&drain(&mut node)).iter().map(|(to, _)| *to).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
