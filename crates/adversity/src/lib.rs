//! One declarative fault & workload engine for every runtime.
//!
//! The paper's robustness results (Figures 7–8) crash a random fraction of
//! nodes at one instant. Real deployments misbehave in many more ways:
//! nodes leave and come back continuously, flash crowds join mid-stream,
//! some peers free-ride (request but never serve), and upload capacity is
//! heterogeneous. This crate turns all of those into *one* declarative
//! description — an [`AdversitySpec`] — that compiles deterministically
//! (seeded [`gossip_sim::DetRng`]) into:
//!
//! * a [`FaultTimeline`]: an ordered list of typed [`FaultEvent`]s
//!   (crash / rejoin / join), sorted by time, *order-sound* (a node never
//!   crashes twice without an intervening rejoin, never rejoins without a
//!   preceding crash, and never crashes before it has joined);
//! * per-node [`NodeProfile`]s: static attributes fixed at start-of-run
//!   (bandwidth-class cap overrides, free-rider flags, join times).
//!
//! Every runtime consumes the same compilation: the simulator schedules the
//! timeline on its event queue and the reactor pushes it onto its
//! per-shard timer wheels, and both apply each firing through one
//! interpreter (`gossip_udp::hosted::apply`). One spec therefore produces
//! directly comparable reports from simulation and live UDP.
//!
//! Specs are constructed with the builder API or loaded from a small TOML
//! subset (see [`AdversitySpec::from_toml_str`]); compiling
//! [`AdversitySpec::none`] yields an empty timeline and default profiles,
//! so a no-adversity run is byte-identical to one that never heard of this
//! crate.
//!
//! # Examples
//!
//! ```
//! use gossip_adversity::AdversitySpec;
//! use gossip_types::Duration;
//!
//! // The paper's Figure 7/8 catastrophe: 80% of nodes crash at t = 60 s.
//! let spec = AdversitySpec::none().with_catastrophic(Duration::from_secs(60), 0.8);
//! let compiled = spec.compile(230, 1);
//! assert_eq!(compiled.timeline.len(), 184, "round(0.8 * 230) victims");
//! assert!(compiled.timeline.is_order_sound(compiled.total_n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod chaos;
mod churn;
pub mod spec;
pub mod timeline;
pub mod toml;

pub use anchor::WallClockAnchor;
pub use chaos::{ChaosPlan, ChaosSpec};
pub use spec::{
    AdversitySpec, BandwidthClass, ByzantineMix, ByzantinePeers, Catastrophic, FlashCrowd,
    PartitionSpec, PoissonChurn, ThrottleSpec,
};
pub use timeline::{
    ByzantineBehaviour, CompiledAdversity, FaultAction, FaultEvent, FaultTimeline, NodeProfile,
    PartitionCells, PartitionState, ThrottlePlan,
};
pub use toml::SpecParseError;
