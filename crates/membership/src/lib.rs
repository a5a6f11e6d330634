//! Membership substrate: who can a node gossip with?
//!
//! The paper assumes **full membership** — `selectNodes` draws uniformly
//! from the set of *all* nodes (its Algorithm 1, line 26) — which is
//! realistic at 230 nodes but not at internet scale. Deployed gossip
//! systems instead run a *peer sampling service*: each node maintains a
//! small partial view that is continuously shuffled so that draws from it
//! approximate uniform sampling.
//!
//! This crate provides the latter: [`CyclonView`], a Cyclon-style
//! shuffling partial view (Voulgaris, Gavidia, van Steen, JNSM 2005),
//! implemented sans-io like the protocol core: shuffle messages in,
//! shuffle messages out. Its codec is [`wire`]. The full-membership model
//! needs no type: a host hands every node the whole population through
//! `GossipNode::set_membership`, and a Cyclon host hands each node its
//! current view the same way (`HostedNode::follow_view`).
//!
//! # Examples
//!
//! ```
//! use gossip_membership::{CyclonConfig, CyclonView};
//! use gossip_sim::DetRng;
//! use gossip_types::NodeId;
//!
//! let config = CyclonConfig::default_small();
//! let mut rng = DetRng::seed_from(1);
//! let mut a = CyclonView::new(NodeId::new(0), config, &[NodeId::new(1)]);
//! let mut b = CyclonView::new(NodeId::new(1), config, &[NodeId::new(2)]);
//! let (partner, request) = a.on_shuffle_round(&mut rng).expect("a non-empty view shuffles");
//! assert_eq!(partner, NodeId::new(1), "the oldest entry is the shuffle partner");
//! let reply = b.on_message(NodeId::new(0), request, &mut rng).expect("a request is answered");
//! a.on_message(partner, reply, &mut rng);
//! assert!(b.view().contains(&NodeId::new(0)), "the partner learns the initiator");
//! assert!(a.view().contains(&NodeId::new(2)), "and the initiator the partner's view");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cyclon;
pub mod wire;

pub use cyclon::{CyclonConfig, CyclonView, ShuffleMessage};
