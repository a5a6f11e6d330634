//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every simulated experiment runs on. It offers:
//!
//! * [`EventQueue`] — a timestamped event queue with a stable total order
//!   (ties broken by insertion sequence) and tombstone-free cancellation via
//!   slot+generation handles. The default implementation is a bucketed
//!   [`CalendarQueue`] (O(1) push/pop on time-clustered workloads), and
//!   generic code drives it through the [`EventSchedule`] trait (the
//!   indexed 4-ary heap it replaced is kept in test scope as the reference
//!   it is model-checked against);
//! * [`Engine`] — a virtual clock plus queue with a `run`-style driver;
//! * [`DetRng`] — a fast, splittable, fully deterministic random number
//!   generator (xoshiro256++ seeded via SplitMix64) with the distribution
//!   helpers the network model needs (uniform, exponential, normal,
//!   log-normal, sampling without replacement).
//!
//! Determinism is the point: two runs with the same seed produce identical
//! event interleavings, which makes every figure of the paper reproducible
//! bit-for-bit and lets the test-suite assert on exact outcomes.
//!
//! # Examples
//!
//! ```
//! use gossip_sim::Engine;
//! use gossip_types::{Duration, Time};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule(Time::from_millis(10), Ev::Ping);
//! engine.schedule(Time::from_millis(5), Ev::Pong);
//!
//! let mut order = Vec::new();
//! while let Some((at, ev)) = engine.pop() {
//!     order.push((at, format!("{ev:?}")));
//! }
//! assert_eq!(order[0].1, "Pong");
//! assert_eq!(order[1].1, "Ping");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod rng;

pub use engine::Engine;
pub use queue::{CalendarQueue, EventHandle, EventQueue, EventSchedule};
pub use rng::DetRng;
