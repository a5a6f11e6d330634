//! Shared primitive types for the gossip-streaming workspace.
//!
//! This crate hosts the handful of vocabulary types that every other crate in
//! the workspace speaks: virtual [`Time`] / [`Duration`] newtypes (microsecond
//! resolution), the [`NodeId`] identity of a participant, and the
//! [`counters!`] table that declares every stats struct's counters once. Keeping them in a
//! leaf crate lets the protocol core stay sans-io (it never has to import the
//! simulator just to name a point in time) while the simulator, the network
//! model and the real-socket runtime all agree on representations.
//!
//! # Examples
//!
//! ```
//! use gossip_types::{Duration, NodeId, Time};
//!
//! let start = Time::ZERO;
//! let later = start + Duration::from_millis(200);
//! assert_eq!(later - start, Duration::from_millis(200));
//! assert!(later > start);
//!
//! let node = NodeId::new(42);
//! assert_eq!(node.index(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod node;
mod time;

pub use counters::Counter;
pub use node::NodeId;
pub use time::{Duration, Time};
