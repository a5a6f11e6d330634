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
use std::sync::Arc;

use gossip_sim::{DetRng, EventHandle};
use gossip_types::{NodeId, Time};

use crate::config::GossipConfig;
use crate::event::Event;
use crate::index::{DenseMap, EventIndex, TokenSlab};
use crate::message::Message;
use crate::rto::RttEstimator;
use crate::stats::ProtocolStats;
use crate::view::PartnerView;

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
/// has been delivered (Algorithm 1, line 24) or the node has been told to
/// [forget its timers](GossipNode::forget_retransmits). Firing such a timer
/// would have been a no-op — no output, no random draw — so honouring the
/// cancellation changes what a driver's queue holds and nothing else.
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
/// A node holds one of these per event id *forever* (ids are never
/// re-requested), at the head of that id's [`IdRecord`], so at large n it
/// is multiplied by every id of the stream at every node. Request counter,
/// delivered flag and one timestamp share a `NonZeroU64`, whose niche also
/// makes the record's `DenseMap` slot (an `Option`) free:
///
/// ```text
/// bit  63      — marker, always set (the non-zero niche)
/// bit  62      — delivered
/// bits 48..=61 — times_requested (14 bits, saturating)
/// bits 0..=47  — a time in µs (saturating; 2⁴⁸ µs ≈ 9 years): when the id
///                was first requested until it is delivered, when it was
///                delivered from then on
/// ```
///
/// The two times never coexist: the first-request time is read once, for
/// the RTT sample taken at delivery, and the delivery time is only what
/// retention pruning compares afterwards. Saturation is harmless:
/// `max_requests_per_event` is single-digit in every configuration, and no
/// run approaches the timestamp horizon.
#[derive(Debug, Clone, Copy)]
struct RequestState(std::num::NonZeroU64);

impl RequestState {
    const MARKER: u64 = 1 << 63;
    const DELIVERED: u64 = 1 << 62;
    const TIMES_SHIFT: u32 = 48;
    const TIMES_MAX: u64 = (1 << 14) - 1;
    const TIME_MASK: u64 = (1 << 48) - 1;

    /// `at` is the first-request time, or the delivery time if `delivered`.
    fn new(times_requested: u32, delivered: bool, at: Time) -> Self {
        let times = (u64::from(times_requested)).min(Self::TIMES_MAX) << Self::TIMES_SHIFT;
        let at = at.as_micros().min(Self::TIME_MASK);
        let delivered = if delivered { Self::DELIVERED } else { 0 };
        RequestState(
            std::num::NonZeroU64::new(Self::MARKER | delivered | times | at)
                .expect("marker bit keeps the word non-zero"),
        )
    }

    fn times_requested(self) -> u32 {
        ((self.0.get() >> Self::TIMES_SHIFT) & Self::TIMES_MAX) as u32
    }

    fn delivered(self) -> bool {
        self.0.get() & Self::DELIVERED != 0
    }

    /// When the id was delivered, if it was; else when it was first requested.
    fn at(self) -> Time {
        Time::from_micros(self.0.get() & Self::TIME_MASK)
    }

    fn mark_delivered(&mut self, now: Time) {
        *self = RequestState::new(self.times_requested(), true, now);
    }

    fn bump_requested(&mut self) {
        *self = RequestState::new(
            self.times_requested().saturating_add(1),
            self.delivered(),
            self.at(),
        );
    }
}

/// An `Option<u32>` in four bytes, for the two optional words an
/// undelivered id carries: the value is kept plus one in a `NonZeroU32`.
/// `u32::MAX` cannot be held and reads back as `None`, which both users
/// can afford: no deployment has a node of that index, and one timer in
/// 2³² going unlinked only means it is never cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed32(Option<std::num::NonZeroU32>);

impl Packed32 {
    const NONE: Packed32 = Packed32(None);

    fn some(value: u32) -> Self {
        Packed32(std::num::NonZeroU32::new(value.wrapping_add(1)))
    }

    fn get(self) -> Option<u32> {
        self.0.map(|stored| stored.get() - 1)
    }
}

/// Everything a node keeps about one event id, in one [`DenseMap`] slot.
///
/// A record exists from the moment the id is first requested (or delivered
/// unrequested, or published here) and is never removed: its existence is
/// membership in the paper's `requestedEvents`, which is what keeps a
/// pruned id from being requested again. Only the payload comes and goes.
struct IdRecord<E> {
    state: RequestState,
    /// Most recent *other* proposer while the id is undelivered: where a
    /// corrupted serve is re-requested from (validate-before-relay).
    alternate: Packed32,
    /// Low 32 bits of the token of the armed [`RetransmitEntry`] that
    /// counts this id among its undelivered ones, while there is one: what
    /// the id's delivery settles. Never dangling — whatever removes an
    /// entry first unlinks the ids it leaves undelivered.
    timer: Packed32,
    /// The payload, for serving, from delivery until retention pruning (or
    /// a crash) drops it.
    event: Option<E>,
}

impl<E> IdRecord<E> {
    fn new(state: RequestState) -> Self {
        IdRecord { state, alternate: Packed32::NONE, timer: Packed32::NONE, event: None }
    }
}

/// A pending retransmission timer: re-request the still-missing ids of a
/// proposal from the peer that proposed them.
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
    /// The deadline the host scheduled for this entry, if it said.
    handle: Option<EventHandle>,
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
    /// The one per-id table: request/delivery bookkeeping (never pruned; an
    /// id is requested from exactly one peer, ever, apart from
    /// retransmissions), alternate proposer and retained payload. Dense
    /// per-window slab: lookups are array indexings, not hashes.
    ids: DenseMap<E::Id, IdRecord<E>>,
    /// How many records hold a payload.
    payloads: usize,
    /// No record in a window before this one holds a payload: where
    /// `prune_store` starts, so it walks what is retained, not every id
    /// the node ever heard of.
    payload_floor: u64,
    /// Misbehaviour scores of peers that served corrupted payloads or
    /// proposed garbage ids (sparse: almost always empty).
    misbehaviour: Vec<(NodeId, u32)>,
    /// Peers demoted for repeat misbehaviour: excluded from partner
    /// selection and feed-me adoption, their proposals ignored.
    demoted: Vec<NodeId>,
    /// Armed retransmission timers, addressed by their sequential token.
    retransmits: TokenSlab<RetransmitEntry<E::Id>>,
    /// Host deadlines that no longer need to fire, until the host collects
    /// them ([`GossipNode::poll_cancelled`]).
    cancelled: Vec<EventHandle>,
    rtt: RttEstimator,
    next_token: u64,
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
            payloads: 0,
            payload_floor: u64::MAX,
            misbehaviour: Vec::new(),
            demoted: Vec::new(),
            retransmits: TokenSlab::new(),
            cancelled: Vec::new(),
            rtt,
            next_token: 0,
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

    /// Returns `true` if effects are pending.
    pub fn has_output(&self) -> bool {
        !self.outputs.is_empty()
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
        let state = RequestState::new(self.config.max_requests_per_event, true, now);
        let previous =
            self.ids.insert(id, IdRecord { event: Some(event.clone()), ..IdRecord::new(state) });
        if let Some(previous) = previous {
            // Publishing an id again replaces its payload, it does not add
            // one; publishing one that was on request delivers it.
            self.payloads -= usize::from(previous.event.is_some());
            self.settle_timer(previous.timer);
        }
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
    }

    /// Handles an incoming message (phases 2 and 3, plus feed-me).
    pub fn on_message(&mut self, now: Time, from: NodeId, msg: Message<E>) {
        match msg {
            Message::Propose { ids } => self.handle_propose(now, from, ids.iter().copied()),
            Message::Request { ids } => self.handle_request(from, ids.iter().copied()),
            Message::Serve { events } => self.handle_serve(now, from, events.into_iter()),
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
        let fired = Packed32::some(token.0 as u32);
        let cap = self.max_requests_cap();
        let mut missing = std::mem::take(&mut self.scratch_ids);
        missing.clear();
        for &id in entry.ids.iter() {
            if let Some(IdRecord { state, timer, .. }) = self.ids.get_mut(&id) {
                if state.delivered() {
                    continue;
                }
                // The entry is gone: the ids it counted are nobody's until
                // (and unless) the re-armed entry below takes them.
                if *timer == fired {
                    *timer = Packed32::NONE;
                }
                if state.times_requested() < cap {
                    state.bump_requested();
                    missing.push(id);
                }
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
        let can_retry_more = missing
            .iter()
            .any(|id| self.ids.get(id).is_some_and(|r| r.state.times_requested() < cap));
        if can_retry_more {
            self.arm_retransmit(now, entry.peer, shared, entry.attempt + 1);
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
        let mut wanted = std::mem::take(&mut self.scratch_ids);
        wanted.clear();
        for id in ids {
            // Dense-offset horizon: a garbage id (Byzantine proposer) would
            // grow this id's window row to its claimed offset — reject it
            // before it touches the bookkeeping, and score the proposer.
            if id.dense_key().1 >= self.config.propose_offset_horizon {
                self.stats.garbage_ids_rejected += 1;
                self.note_misbehaviour(from);
                continue;
            }
            // Already requested (from whoever proposed first) or already
            // delivered: line 10 filters it out.
            let mut fresh = false;
            let record = self.ids.get_or_insert_with(id, || {
                fresh = true;
                IdRecord::new(RequestState::new(1, false, now))
            });
            if fresh {
                wanted.push(id);
            } else {
                self.stats.duplicate_ids_proposed += 1;
                // Remember the redundant proposer: if the first peer's serve
                // turns out corrupted, this is where the re-request goes.
                if !record.state.delivered() {
                    record.alternate = Packed32::some(from.as_u32());
                }
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
            self.arm_retransmit(now, from, shared, 1);
        }
        self.scratch_ids = wanted;
    }

    /// Phase 3, serving side (lines 16–19): push the requested events we
    /// still hold, split into MTU-sized serve datagrams.
    fn handle_request(&mut self, from: NodeId, ids: impl Iterator<Item = E::Id>) {
        self.stats.requests_received += 1;
        if self.free_rider {
            return; // free-riders take and never give
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        for id in ids {
            match self.stored(&id) {
                Some(event) => events.push(event.clone()),
                None => self.stats.unservable_ids += 1,
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
    /// re-requested from that alternate within the usual `K` budget.
    fn handle_serve(&mut self, now: Time, from: NodeId, events: impl Iterator<Item = E>) {
        self.stats.serves_received += 1;
        for event in events {
            let id = event.id();
            if self.config.verify_payloads && !event.verify() {
                self.stats.corrupted_events_detected += 1;
                self.note_misbehaviour(from);
                self.rerequest_corrupted(now, from, id);
                continue;
            }
            let record =
                self.ids.get_or_insert_with(id, || IdRecord::new(RequestState::new(0, false, now)));
            if record.state.delivered() {
                self.stats.duplicate_events_received += 1;
                continue;
            }
            // Karn's rule: only first-request serves give unambiguous
            // request->serve delay samples.
            if record.state.times_requested() == 1 {
                let first_requested_at = record.state.at();
                self.rtt.sample(now.saturating_since(first_requested_at));
            }
            record.state.mark_delivered(now);
            record.event = Some(event.clone());
            let timer = std::mem::replace(&mut record.timer, Packed32::NONE);
            self.finish_delivery(id, event);
            // Line 24 (cancel RetTimer).
            self.settle_timer(timer);
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

    /// The tail every delivery shares, once `id`'s record is marked
    /// delivered and holds a clone of `event`: count the payload, queue the
    /// id for the next proposal and hand the event to the application.
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
        let Some(IdRecord { state, alternate, .. }) = self.ids.get_mut(&id) else { return };
        let alt = match alternate.get().map(NodeId::new) {
            Some(a) if a != offender => a,
            _ => return,
        };
        if state.delivered() || state.times_requested() >= cap {
            return;
        }
        state.bump_requested();
        let attempt = state.times_requested();
        let budget_left = attempt < cap;
        self.stats.corrupt_rerequests += 1;
        self.stats.requests_sent += 1;
        let shared: Arc<[E::Id]> = std::iter::once(id).collect();
        self.outputs
            .push_back(Output::Send { to: alt, msg: Message::Request { ids: shared.clone() } });
        if budget_left {
            self.arm_retransmit(now, alt, shared, attempt);
        }
    }

    /// Arms a retransmission timer for the `attempt`-th request (1-based)
    /// of a proposal, using the adaptive RTO with exponential backoff.
    ///
    /// Every id must be undelivered. Each one that no armed entry counts
    /// yet is linked to this one; an id another entry still counts (the
    /// single id `rerequest_corrupted` re-requests on the side) stays with
    /// that entry, which keeps this one's count above zero for good — it
    /// fires and is ignored, as every timer used to.
    fn arm_retransmit(&mut self, now: Time, peer: NodeId, ids: Arc<[E::Id]>, attempt: u32) {
        let token = TimerToken(self.next_token);
        self.next_token += 1;
        let link = Packed32::some(token.0 as u32);
        for id in ids.iter() {
            if let Some(record) = self.ids.get_mut(id) {
                debug_assert!(!record.state.delivered(), "armed a timer for a delivered id");
                if record.timer == Packed32::NONE {
                    record.timer = link;
                }
            }
        }
        let undelivered = ids.len() as u32;
        self.retransmits
            .insert(token.0, RetransmitEntry { peer, ids, attempt, undelivered, handle: None });
        let at = now + self.rtt.rto_backoff(attempt);
        self.outputs.push_back(Output::ScheduleTimer { token, at });
    }

    /// One id of the entry `timer` links to has just been delivered: count
    /// it, and when it was the last one drop the entry and report the
    /// host's deadline for it, if the host attached one, as cancelled.
    fn settle_timer(&mut self, timer: Packed32) {
        let Some(low) = timer.get() else { return };
        let token = self.retransmits.widen(low);
        let Some(entry) = self.retransmits.get_mut(token) else {
            debug_assert!(false, "an undelivered id linked to a timer that is gone");
            return;
        };
        entry.undelivered -= 1;
        if entry.undelivered == 0 {
            let entry = self.retransmits.remove(token).expect("present a moment ago");
            self.cancelled.extend(entry.handle);
        }
    }

    /// Returns the node's current adaptive retransmission timeout.
    pub fn current_rto(&self) -> gossip_types::Duration {
        self.rtt.rto()
    }

    /// Drops served payloads older than the retention horizon. The records
    /// themselves are deliberately kept forever so pruned ids are never
    /// re-requested.
    fn prune_store(&mut self, now: Time) {
        let Some(cutoff) = self.config.retention_cutoff(now) else { return };
        let mut floor = u64::MAX;
        for (window, record) in self.ids.values_mut_from(self.payload_floor) {
            if record.event.is_none() {
                continue;
            }
            if record.state.at() < cutoff {
                record.event = None;
                self.payloads -= 1;
            } else {
                floor = floor.min(window);
            }
        }
        self.payload_floor = floor;
    }

    /// Drops every stored payload and the pending proposals, keeping the
    /// counters and the request bookkeeping for the report.
    ///
    /// Hosts call this when the node crashes: a down node runs no rounds,
    /// so its retention pruning never fires again, and a payload buffer it
    /// shares with live nodes would otherwise stay pinned for as long as
    /// the node stays down.
    pub fn forget_payloads(&mut self) {
        for (_, record) in self.ids.values_mut_from(self.payload_floor) {
            record.event = None;
        }
        self.payloads = 0;
        self.payload_floor = u64::MAX;
        self.propose_queue.clear();
    }

    /// Drops every armed retransmission timer — entries and the id lists
    /// they pin — and reports the attached host deadlines as cancelled
    /// ([`GossipNode::poll_cancelled`]); the ids stay requested.
    ///
    /// Hosts call this when the node crashes, with
    /// [`GossipNode::forget_payloads`]: a down node's timers must not fire,
    /// so neither their state nor their deadlines are worth keeping until
    /// they come due.
    pub fn forget_retransmits(&mut self) {
        for (token, entry) in self.retransmits.drain() {
            let link = Packed32::some(token as u32);
            for id in entry.ids.iter() {
                if let Some(record) = self.ids.get_mut(id) {
                    if record.timer == link {
                        record.timer = Packed32::NONE;
                    }
                }
            }
            self.cancelled.extend(entry.handle);
        }
    }

    /// Returns the number of events currently stored (servable).
    pub fn stored_events(&self) -> usize {
        self.payloads
    }

    /// Returns the stored (servable) copy of an event, if still retained.
    pub fn stored(&self, id: &E::Id) -> Option<&E> {
        self.ids.get(id)?.event.as_ref()
    }

    /// Returns whether the given event id has been delivered here.
    pub fn has_delivered(&self, id: &E::Id) -> bool {
        self.ids.get(id).is_some_and(|r| r.state.delivered())
    }

    /// Returns `(times_requested, delivered)` for an id, if it was ever
    /// requested or delivered (diagnostics).
    pub fn request_info(&self, id: &E::Id) -> Option<(u32, bool)> {
        self.ids.get(id).map(|r| (r.state.times_requested(), r.state.delivered()))
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
    /// twin of [`GossipNode::on_message`].
    ///
    /// Ids and events decode lazily straight out of the receive buffer as
    /// the handlers consume them; no intermediate `Vec`/`Arc` is built. The
    /// protocol effect is identical to decoding the same datagram with
    /// [`crate::wire::decode_message`] and calling `on_message`.
    pub fn on_frame(&mut self, now: Time, frame: &crate::wire::Frame<'_, E>) {
        use crate::wire::FrameKind;
        match frame.kind() {
            FrameKind::Propose => self.handle_propose(now, frame.sender(), frame.ids()),
            FrameKind::Request => self.handle_request(frame.sender(), frame.ids()),
            FrameKind::Serve => self.handle_serve(now, frame.sender(), frame.events()),
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
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(1, 10)] },
        );
        drain(&mut node);
        assert_eq!(node.stored_events(), 1);

        node.on_round(Time::from_secs(30));
        drain(&mut node);
        assert_eq!(node.stored_events(), 0, "payload pruned after retention");
        assert!(node.has_delivered(&1), "delivery bookkeeping survives pruning");

        // A late proposal for the pruned id is *not* re-requested.
        node.on_message(
            Time::from_secs(31),
            NodeId::new(3),
            Message::Propose { ids: vec![1].into() },
        );
        assert!(sends(&drain(&mut node)).is_empty());
    }

    #[test]
    fn forgetting_payloads_empties_the_store_and_keeps_the_bookkeeping() {
        let mut node = GossipNode::new(NodeId::new(1), GossipConfig::new(2), members(5), 1);
        node.on_message(
            Time::ZERO,
            NodeId::new(2),
            Message::Serve { events: vec![TestEvent::new(1, 10)] },
        );
        drain(&mut node);
        assert_eq!(node.stored(&1), Some(&TestEvent::new(1, 10)));

        node.forget_payloads();
        assert_eq!(node.stored_events(), 0);
        assert_eq!(node.stored(&1), None);
        assert!(node.has_delivered(&1), "what was delivered stays delivered");
        assert_eq!(node.stats().events_delivered, 1);
        node.on_round(Time::from_millis(200));
        assert!(sends(&drain(&mut node)).is_empty(), "the pending proposal went with the payload");
        node.on_message(Time::ZERO, NodeId::new(3), Message::Request { ids: vec![1].into() });
        assert!(sends(&drain(&mut node)).is_empty());
        assert_eq!(node.stats().unservable_ids, 1);
    }

    #[test]
    fn a_long_stream_holds_one_retention_horizon_of_payloads_and_every_record() {
        // Ten ids per 100 ms round for 12 s under a 1 s retention: twelve
        // horizons, 1200 ids over five windows of 256, window 0 left empty.
        const FIRST: u64 = 256;
        const PER_ROUND: u64 = 10;
        const ROUNDS: u64 = 120;
        const END: u64 = FIRST + ROUNDS * PER_ROUND;
        let config = GossipConfig::new(2).with_retention(Duration::from_secs(1));
        let mut node = GossipNode::new(NodeId::new(1), config, members(5), 1);
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
        }
        assert_eq!(node.stats().events_delivered, ROUNDS * PER_ROUND);
        assert_eq!(node.stored(&(END - horizon - 1)), None, "pruned");
        assert!(node.stored(&(END - horizon)).is_some() && node.stored(&(END - 1)).is_some());

        // Another peer proposes the whole stream again: pruned or retained,
        // no id is requested a second time.
        let all: Vec<u64> = (FIRST..END).collect();
        node.on_message(now, NodeId::new(3), Message::Propose { ids: all.into() });
        assert!(sends(&drain(&mut node)).is_empty(), "a pruned id was re-requested");

        // Payloads landing in a window behind the pruning cursor, and far
        // ahead of it, are counted, served and aged out like any other.
        node.on_message(now, peer, Message::Serve { events: vec![TestEvent::new(7, 10)] });
        node.publish(now, TestEvent::new(3 << 40, 10));
        drain(&mut node);
        assert_eq!(node.stored_events() as u64, horizon + 2);
        assert!(node.stored(&7).is_some());
        node.on_round(now + Duration::from_secs(2));
        drain(&mut node);
        assert_eq!(node.stored_events(), 0, "everything aged out");
        assert_eq!(node.stored(&7), None);

        // A crash drops payloads, never bookkeeping.
        node.on_message(now, peer, Message::Serve { events: vec![TestEvent::new(END, 10)] });
        assert_eq!(node.stored_events(), 1);
        node.forget_payloads();
        assert_eq!(node.stored_events(), 0);
        assert_eq!(node.stored(&END), None);
        for id in [7, FIRST, END - horizon, END - 1, END] {
            assert!(node.has_delivered(&id), "id {id}");
        }
        assert_eq!(node.request_info(&FIRST), Some((1, true)));
        assert_eq!(node.request_info(&END), Some((0, true)), "served unrequested");
        assert_eq!(node.request_info(&(END + 1)), None);
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
    fn a_one_pointer_event_costs_a_node_24_bytes_per_id() {
        // What `StreamPacket` is (pinned beside it): 8 bytes with a niche.
        type Handle = Arc<[u8; 1000]>;
        assert_eq!(std::mem::size_of::<IdRecord<Handle>>(), 24);
        // The marker bit is the whole point: the DenseMap slot needs no
        // discriminant beyond the NonZeroU64 niche.
        assert_eq!(std::mem::size_of::<Option<IdRecord<Handle>>>(), 24);
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
    fn forgetting_retransmits_cancels_every_deadline_and_keeps_the_ids_requested() {
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

        node.forget_retransmits();
        assert!(node.retransmits.is_empty());
        assert_eq!(cancel(&mut node, &mut queue), 2);
        assert!(queue.is_empty());
        assert_eq!(node.request_info(&2), Some((1, false)), "still requested, never re-requested");

        // What the dropped timers guarded can still arrive, and their
        // tokens are stale.
        serve(&mut node, 60, peer, TestEvent::new(2, 10));
        assert!(node.has_delivered(&2));
        assert_eq!(node.poll_cancelled(), None);
        for o in out {
            if let Output::ScheduleTimer { token, at } = o {
                node.on_timer(at, token);
            }
        }
        assert!(drain(&mut node).iter().all(|o| matches!(o, Output::Deliver { .. })));
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
