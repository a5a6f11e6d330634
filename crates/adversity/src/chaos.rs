//! Syscall-boundary fault injection ("chaos net"): the declarative spec
//! and its compiled plan.
//!
//! PRs 5 and 7 gave every runtime *protocol-level* adversity — crashes,
//! churn, Byzantine peers, partitions, throttles. This module extends the
//! same declarative spec down one layer: deterministic faults at the
//! kernel I/O boundary of the reactor runtime. A [`ChaosSpec`] describes
//! per-datagram mutations (drop / duplicate / reorder / delay / truncate)
//! and errno faults (EAGAIN storms, EINTR, short `sendmmsg` counts, a
//! timed ENOBUFS burst, a one-shot socket kill, a mid-run ENOSYS that
//! forces the batched backend to downgrade). Compiling the spec yields a
//! [`ChaosPlan`]: the same knobs plus a derived RNG seed, so the injected
//! fault sequence is a pure function of `(spec, seed)` and — deliberately —
//! independent of how many shards the reactor happens to run.
//!
//! Like every other fault process in this crate, the chaos stream is
//! split from a dedicated tag ([`ChaosPlan::seed`] comes off its own
//! stream), so adding a `[chaos]` section to a spec never perturbs the
//! protocol-fault compilation, and an empty section compiles to
//! [`ChaosPlan::none`] — byte-identical behaviour to a run that never
//! heard of chaos.

use gossip_sim::DetRng;
use gossip_types::{Duration, Time};

/// RNG stream tag for the chaos seed derivation: independent of the
/// compile stream and every runtime stream, so kernel-fault injection
/// never perturbs protocol-level draws.
const CHAOS_STREAM: u64 = 0xC4A0_5EED;

/// Declarative syscall-boundary fault description (the `[chaos]` section).
///
/// All probabilities are per-datagram (or per-syscall for the errno
/// faults) and must lie within `[0, 1]`; the timed faults are offsets
/// from the start of the run. The default (all zeros, no timed faults)
/// injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosSpec {
    /// Probability that an outgoing datagram is silently dropped.
    pub drop: f64,
    /// Probability that an outgoing datagram is sent twice.
    pub duplicate: f64,
    /// Probability that an outgoing datagram swaps places with the latest
    /// one queued for the same destination in the same flush batch.
    pub reorder: f64,
    /// Probability that an outgoing datagram is held back and re-injected
    /// after the next flush.
    pub delay: f64,
    /// Probability that an outgoing datagram is truncated to a prefix
    /// (exercising the demux salvage path on the receiver).
    pub truncate: f64,
    /// Probability that a send syscall fails with `EAGAIN` (transient).
    pub eagain: f64,
    /// Probability that a send syscall fails with `EINTR` (transient).
    pub eintr: f64,
    /// Probability that a batched send reports fewer datagrams accepted
    /// than were queued (a short `sendmmsg` count).
    pub short_send: f64,
    /// `Some(t)`: every send between `t` and `t + enobufs_for` fails with
    /// `ENOBUFS` (a transient kernel buffer exhaustion burst).
    pub enobufs_at: Option<Duration>,
    /// Length of the ENOBUFS burst window (ignored unless `enobufs_at`
    /// is set).
    pub enobufs_for: Duration,
    /// `Some(t)`: one socket per shard dies fatally (`EBADF`) at `t`,
    /// forcing a re-bind.
    pub kill_socket_at: Option<Duration>,
    /// `Some(t)`: the first batched send at or after `t` fails with
    /// `ENOSYS`, forcing a downgrade to the fallback backend.
    pub enosys_at: Option<Duration>,
}

impl ChaosSpec {
    /// The empty chaos spec: compiling it injects nothing.
    pub fn none() -> Self {
        ChaosSpec::default()
    }

    /// Whether this spec describes any chaos at all.
    pub fn is_none(&self) -> bool {
        *self == ChaosSpec::default()
    }

    /// Panics unless every probability lies within `[0, 1]` (used by the
    /// builder; the TOML loader reports errors instead).
    pub(crate) fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("delay", self.delay),
            ("truncate", self.truncate),
            ("eagain", self.eagain),
            ("eintr", self.eintr),
            ("short_send", self.short_send),
        ] {
            assert!((0.0..=1.0).contains(&p), "chaos {name} must be within [0, 1]");
        }
    }

    /// Compiles the spec against the run seed.
    ///
    /// The returned plan is a pure function of `(spec, seed)`: the chaos
    /// seed comes off a dedicated RNG stream, so it is independent of
    /// every protocol-level draw and of the deployment size — which is
    /// what lets the reactor prove the injected fault sequence identical
    /// at any shard count.
    pub fn compile(&self, seed: u64) -> ChaosPlan {
        if self.is_none() {
            return ChaosPlan::none();
        }
        ChaosPlan {
            drop: self.drop,
            duplicate: self.duplicate,
            reorder: self.reorder,
            delay: self.delay,
            truncate: self.truncate,
            eagain: self.eagain,
            eintr: self.eintr,
            short_send: self.short_send,
            enobufs: self
                .enobufs_at
                .map(|at| (Time::ZERO + at, Time::ZERO + at + self.enobufs_for)),
            kill_socket_at: self.kill_socket_at.map(|at| Time::ZERO + at),
            enosys_at: self.enosys_at.map(|at| Time::ZERO + at),
            seed: DetRng::seed_from(seed).split(CHAOS_STREAM).next_u64(),
        }
    }
}

/// The compiled form of a [`ChaosSpec`]: the same knobs resolved to
/// absolute instants, plus the derived seed for the injection RNG.
///
/// The reactor's chaos engine splits per-socket streams off `seed`, so
/// two runs with the same `(spec, seed)` inject byte-identical fault
/// sequences regardless of shard count or wall-clock scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosPlan {
    /// Per-datagram drop probability.
    pub drop: f64,
    /// Per-datagram duplication probability.
    pub duplicate: f64,
    /// Per-datagram adjacent-swap probability.
    pub reorder: f64,
    /// Per-datagram delay probability.
    pub delay: f64,
    /// Per-datagram truncation probability.
    pub truncate: f64,
    /// Per-syscall EAGAIN probability.
    pub eagain: f64,
    /// Per-syscall EINTR probability.
    pub eintr: f64,
    /// Per-syscall short-send probability.
    pub short_send: f64,
    /// Active ENOBUFS window `[start, end)`, if any.
    pub enobufs: Option<(Time, Time)>,
    /// When one socket per shard dies fatally, if ever.
    pub kill_socket_at: Option<Time>,
    /// When the batched backend is forced to downgrade, if ever.
    pub enosys_at: Option<Time>,
    /// Seed of the injection RNG (derived from the run seed on the
    /// dedicated chaos stream).
    pub seed: u64,
}

impl ChaosPlan {
    /// The inert plan: injects nothing.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        *self == ChaosPlan::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_compiles_to_the_inert_plan() {
        let plan = ChaosSpec::none().compile(42);
        assert!(plan.is_none());
        assert_eq!(plan, ChaosPlan::none());
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let spec = ChaosSpec { drop: 0.1, duplicate: 0.05, ..ChaosSpec::default() };
        assert_eq!(spec.compile(7), spec.compile(7));
        assert_ne!(spec.compile(7).seed, spec.compile(8).seed);
    }

    #[test]
    fn timed_faults_resolve_to_absolute_instants() {
        let spec = ChaosSpec {
            enobufs_at: Some(Duration::from_secs(2)),
            enobufs_for: Duration::from_secs(1),
            kill_socket_at: Some(Duration::from_secs(3)),
            enosys_at: Some(Duration::from_millis(500)),
            ..ChaosSpec::default()
        };
        let plan = spec.compile(1);
        assert_eq!(plan.enobufs, Some((Time::from_secs(2), Time::from_secs(3))));
        assert_eq!(plan.kill_socket_at, Some(Time::from_secs(3)));
        assert_eq!(plan.enosys_at, Some(Time::from_millis(500)));
        assert!(!plan.is_none());
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn absurd_probability_is_rejected() {
        ChaosSpec { drop: 1.5, ..ChaosSpec::default() }.validate();
    }
}
