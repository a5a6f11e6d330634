//! The three-phase gossip dissemination protocol of *Stretching Gossip with
//! Live Streaming* (Frey, Guerraoui, Kermarrec, Monod, Quéma — DSN 2009).
//!
//! The protocol (the paper's Algorithm 1) disseminates *events* — opaque
//! payloads with unique ids — through three phases:
//!
//! 1. **Push event ids** — every `gossipPeriod` each node sends the ids it
//!    delivered in the previous round to `f` (the *fanout*) partners in a
//!    `[PROPOSE]` message, then forgets them (*infect-and-die*);
//! 2. **Request events** — a node receiving a `[PROPOSE]` replies with a
//!    `[REQUEST]` for the ids it has not yet requested from anyone;
//! 3. **Push payload** — the proposer answers with a `[SERVE]` carrying the
//!    actual events.
//!
//! Ids therefore travel redundantly (cheap), payloads travel once per node
//! (expensive but deduplicated) — the design that lets gossip carry a
//! 600 kbps stream through 700 kbps uplinks. Lost serves are recovered by
//! re-requesting after a retransmission timeout, at most `K` times per
//! event.
//!
//! The paper's two proactiveness knobs are implemented in [`view`]:
//!
//! * **`X` (view refresh)** — `selectNodes` returns a fresh uniform random
//!   partner set every `X` gossip rounds ([`config::GossipConfig::refresh_rounds`]);
//! * **`Y` (feed-me)** — every `Y` rounds a node asks `f` random nodes to
//!   adopt it into their partner sets ([`config::GossipConfig::feedme_rounds`]).
//!
//! # Sans-io design
//!
//! [`GossipNode`] is a pure state machine: time comes in as arguments,
//! messages come in via [`GossipNode::on_message`], rounds via
//! [`GossipNode::on_round`], timer expiries via [`GossipNode::on_timer`];
//! effects come out of [`GossipNode::poll_output`] as [`Output`] values
//! (send a message, deliver an event to the application, schedule a timer).
//! A host whose timer queue can cancel tells the node which deadline each
//! timer became ([`GossipNode::attach_timer_handle`]) and collects from
//! [`GossipNode::poll_cancelled`] the ones a delivery made pointless.
//! A host that runs many nodes keeps one [`PacketPool`] of the packets
//! they delivered and lends it with their inputs, so a node keeps a
//! request word per id — 8 bytes while its window has an id in flight, 4
//! once it has none — and no payload the pool already holds.
//! The deterministic simulator (`gossip-net` + `gossip-experiments`) and the
//! real-socket runtime (`gossip-udp`) drive the *same* protocol code.
//!
//! # Examples
//!
//! Two nodes, one event, no network in between — drive the state machines by
//! hand:
//!
//! ```
//! use gossip_core::{GossipConfig, GossipNode, Message, Output, TestEvent};
//! use gossip_types::{NodeId, Time};
//!
//! let config = GossipConfig::new(1); // fanout 1
//! let members = vec![NodeId::new(0), NodeId::new(1)];
//! let mut source: GossipNode<TestEvent> =
//!     GossipNode::new_source(NodeId::new(0), config.clone(), members.clone(), 7);
//! let mut sink: GossipNode<TestEvent> = GossipNode::new(NodeId::new(1), config, members, 7);
//!
//! // The source publishes an event and gossips at the next round.
//! let t = Time::ZERO;
//! source.publish(t, TestEvent::new(1, 100));
//! source.on_round(t);
//!
//! // Collect the PROPOSE, feed it to the sink, and route the replies.
//! let mut msgs: Vec<(NodeId, Message<TestEvent>)> = Vec::new();
//! while let Some(out) = source.poll_output() {
//!     if let Output::Send { to, msg } = out {
//!         msgs.push((to, msg));
//!     }
//! }
//! assert!(matches!(msgs[0].1, Message::Propose { .. }));
//! # let _ = &mut sink;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod index;
pub mod message;
pub mod node;
pub mod pool;
pub mod rto;
pub mod stats;
pub mod view;
pub mod wire;

pub use config::GossipConfig;
pub use event::{Event, TestEvent};
pub use index::EventIndex;
pub use message::Message;
pub use node::{GossipNode, Output, TimerToken};
pub use pool::PacketPool;
pub use stats::ProtocolStats;
pub use view::PartnerView;
