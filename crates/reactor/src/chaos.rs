//! The chaos engine: deterministic fault injection at the syscall
//! boundary.
//!
//! A compiled [`ChaosPlan`] (the `[chaos]` section of an adversity spec)
//! drives two interposition points on the reactor's send path:
//!
//! * **Datagram mutations** — every protocol datagram a virtual node
//!   emits draws its fate (deliver / drop / duplicate / truncate / delay /
//!   reorder) from that *node's* dedicated RNG stream ([`SenderChaos`]).
//!   Keying the stream by node — not by shard or socket — is what makes
//!   the injected fault sequence a pure function of `(plan, node, emission
//!   index)`: a node lives on exactly one shard at any shard count, so
//!   re-sharding the cluster re-partitions the same per-node sequences
//!   without changing a single draw (property-tested below).
//! * **Errno faults** — each send syscall may be intercepted by the
//!   socket's [`SocketChaos`] stream and turned into an injected errno:
//!   `EAGAIN`/`EINTR` storms, a timed `ENOBUFS` burst, a one-shot `EBADF`
//!   socket kill, and `ENOSYS` on the first batched send at or after the
//!   plan's instant. [`ChaosSender`] is the one interposer between a
//!   shard's flush and *any* environment — live sockets or the in-memory
//!   pool of the tests — so injected errors flow through exactly the same
//!   [`crate::mmsg::classify`] taxonomy and recovery machinery as real
//!   kernel returns: an injected `ENOSYS` downgrades the environment the
//!   way a vanished syscall does. The chaos layer proves the *production*
//!   error handling, not a parallel copy of it.
//!
//! Injection never panics: in the release profile (`panic = "abort"`) a
//! panicking fault injector would take the whole process down, which is
//! the exact opposite of what a robustness harness is for.

use std::io;

use gossip_adversity::ChaosPlan;
use gossip_sim::DetRng;
use gossip_types::{NodeId, Time};
use gossip_udp::report::ShardStats;

use crate::mmsg::{drain_queue, SendQueue, SendVerdict};
use crate::shard::ShardEnv;

/// RNG stream tag for per-node datagram-fate streams (offset by node id).
const SENDER_STREAM: u64 = 0xDA7A_0000;

/// RNG stream tag for per-socket errno streams (offset by shard/socket).
const SOCKET_STREAM: u64 = 0xE440_0000;

/// The fate the chaos engine assigns an outgoing protocol datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatagramFate {
    /// Send it untouched.
    Deliver,
    /// Silently drop it.
    Drop,
    /// Send it twice.
    Duplicate,
    /// Send only the first `len` bytes (exercises the receive-side
    /// framing salvage).
    Truncate(usize),
    /// Hold it back over the next flush and send it with the one after.
    Delay,
    /// Swap it with the latest datagram queued for the same destination
    /// node (a no-op when the wake has queued none).
    Reorder,
}

/// One virtual node's datagram-fate stream: a [`DetRng`] split from the
/// plan seed by node id, advanced a fixed number of draws per emission so
/// the stream position depends only on how many datagrams the node has
/// emitted.
#[derive(Debug)]
pub(crate) struct SenderChaos {
    rng: DetRng,
}

impl SenderChaos {
    /// The fate stream of `node` under `plan`.
    pub fn new(plan: &ChaosPlan, node: NodeId) -> Self {
        let rng = DetRng::seed_from(plan.seed).split(SENDER_STREAM + u64::from(node.as_u32()));
        SenderChaos { rng }
    }

    /// Draws the fate of the node's next outgoing datagram of `len`
    /// bytes. Exactly six values are consumed whatever the outcome, so
    /// the sequence of fates is byte-identical however the decisions
    /// land.
    pub fn fate(&mut self, plan: &ChaosPlan, len: usize) -> DatagramFate {
        let d = [
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
        ];
        if d[0] < plan.drop {
            DatagramFate::Drop
        } else if d[1] < plan.duplicate {
            DatagramFate::Duplicate
        } else if d[2] < plan.truncate {
            // d[5] < 1.0, so the prefix is always a strict truncation.
            DatagramFate::Truncate((len as f64 * d[5]) as usize)
        } else if d[3] < plan.delay {
            DatagramFate::Delay
        } else if d[4] < plan.reorder {
            DatagramFate::Reorder
        } else {
            DatagramFate::Deliver
        }
    }
}

/// One socket's errno-fault stream plus its one-shot kill state.
#[derive(Debug)]
pub(crate) struct SocketChaos {
    rng: DetRng,
    /// Only one socket per shard is eligible for the one-shot kill.
    kill_eligible: bool,
    kill_fired: bool,
}

impl SocketChaos {
    /// The errno stream of socket `socket` on shard `shard`.
    pub fn new(plan: &ChaosPlan, shard: usize, socket: usize, kill_eligible: bool) -> Self {
        let tag = SOCKET_STREAM + (shard as u64) * 1024 + socket as u64;
        SocketChaos {
            rng: DetRng::seed_from(plan.seed).split(tag),
            kill_eligible,
            kill_fired: false,
        }
    }

    /// Decides whether the next send syscall fails with an injected
    /// errno. Priority: the one-shot kill, then `ENOSYS` while the
    /// environment still runs `batched` (the downgrade it forces ends it),
    /// then the ENOBUFS burst window, then the probabilistic EAGAIN/EINTR
    /// storms.
    fn errno(&mut self, plan: &ChaosPlan, now: Time, batched: bool) -> Option<io::Error> {
        const EINTR: i32 = 4;
        const EBADF: i32 = 9;
        const EAGAIN: i32 = 11;
        const ENOSYS: i32 = 38;
        const ENOBUFS: i32 = 105;
        if self.kill_eligible && !self.kill_fired && plan.kill_socket_at.is_some_and(|t| now >= t) {
            self.kill_fired = true;
            return Some(io::Error::from_raw_os_error(EBADF));
        }
        if batched && plan.enosys_at.is_some_and(|t| now >= t) {
            return Some(io::Error::from_raw_os_error(ENOSYS));
        }
        if plan.enobufs.is_some_and(|(from, to)| now >= from && now < to) {
            return Some(io::Error::from_raw_os_error(ENOBUFS));
        }
        if plan.eagain > 0.0 && self.rng.f64() < plan.eagain {
            return Some(io::Error::from_raw_os_error(EAGAIN));
        }
        if plan.eintr > 0.0 && self.rng.f64() < plan.eintr {
            return Some(io::Error::from_raw_os_error(EINTR));
        }
        None
    }

    /// Whether the next batched send reports a short count.
    fn short_send(&mut self, plan: &ChaosPlan) -> bool {
        plan.short_send > 0.0 && self.rng.f64() < plan.short_send
    }
}

/// The one interposer between a shard's flush and its environment: with a
/// plan, it consults the socket's chaos stream before every kernel
/// interaction and either injects an errno, forces a short count (the head
/// segment alone really leaves), or passes through; without one, every
/// call passes through.
pub(crate) struct ChaosSender<'a, E> {
    env: &'a mut E,
    chaos: Option<(&'a ChaosPlan, &'a mut SocketChaos)>,
    now: Time,
    /// Errno and short-count faults injected so far.
    injected: u64,
}

impl<'a, E: ShardEnv> ChaosSender<'a, E> {
    /// Interposes `chaos` — the plan and one socket's errno stream — in
    /// front of `env` at `now`.
    pub fn new(
        env: &'a mut E,
        chaos: Option<(&'a ChaosPlan, &'a mut SocketChaos)>,
        now: Time,
    ) -> Self {
        ChaosSender { env, chaos, now, injected: 0 }
    }

    /// Drains pool socket `si`'s `queue` through the environment with
    /// [`drain_queue`]. Injected faults are counted into
    /// `stats.faults_injected` and take the same verdicts as real kernel
    /// errors.
    pub fn drain(
        mut self,
        si: usize,
        queue: &mut SendQueue,
        pending: &mut SendQueue,
        stats: &mut ShardStats,
    ) -> SendVerdict {
        let verdict =
            drain_queue(|queue, first| self.send_from(si, queue, first), queue, pending, stats);
        stats.faults_injected += self.injected;
        verdict
    }

    fn send_from(&mut self, si: usize, queue: &SendQueue, first: usize) -> io::Result<usize> {
        if let Some((plan, chaos)) = &mut self.chaos {
            if let Some(e) = chaos.errno(plan, self.now, self.env.batched()) {
                self.injected += 1;
                return Err(e);
            }
            if queue.len() - first > 1 && chaos.short_send(plan) {
                // A genuine short count: the head really leaves, and the
                // drain resumes at the next unsent segment.
                self.injected += 1;
                let (bytes, addr) = queue.seg(first);
                let mut head = SendQueue::default();
                head.push_datagram(addr, bytes);
                return self.env.send_from(si, &head, 0);
            }
        }
        self.env.send_from(si, queue, first)
    }
}

#[cfg(test)]
mod tests {
    use std::net::SocketAddr;

    use gossip_adversity::ChaosSpec;
    use gossip_types::Duration;
    use proptest::prelude::*;

    use super::*;
    use crate::mmsg::testnet::{Net, SharedNet, VirtualEnv, WIRE_DELAY};

    fn plan(spec: ChaosSpec) -> ChaosPlan {
        spec.compile(42)
    }

    fn mixed_spec() -> ChaosSpec {
        ChaosSpec {
            drop: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            delay: 0.1,
            truncate: 0.1,
            ..ChaosSpec::default()
        }
    }

    fn fates(plan: &ChaosPlan, node: u32, count: usize) -> Vec<DatagramFate> {
        let mut s = SenderChaos::new(plan, NodeId::new(node));
        (0..count).map(|_| s.fate(plan, 100)).collect()
    }

    #[test]
    fn fate_sequence_is_a_pure_function_of_plan_and_node() {
        let p = plan(mixed_spec());
        assert_eq!(fates(&p, 3, 200), fates(&p, 3, 200));
        assert_ne!(fates(&p, 3, 200), fates(&p, 4, 200), "streams are per-node");
        let other = mixed_spec().compile(43);
        assert_ne!(fates(&p, 3, 200), fates(&other, 3, 200), "streams are seed-sensitive");
    }

    #[test]
    fn every_fate_occurs_at_its_rough_rate() {
        let p = plan(mixed_spec());
        let all = fates(&p, 1, 4000);
        let count = |f: fn(&DatagramFate) -> bool| all.iter().filter(|x| f(x)).count();
        let drops = count(|f| matches!(f, DatagramFate::Drop));
        let dups = count(|f| matches!(f, DatagramFate::Duplicate));
        let deliver = count(|f| matches!(f, DatagramFate::Deliver));
        assert!((200..=600).contains(&drops), "~10% drops, got {drops}");
        assert!((150..=550).contains(&dups), "~9% duplicates, got {dups}");
        assert!(deliver > 2000, "most datagrams still deliver, got {deliver}");
    }

    /// A portable-path environment on socket 0 of a fresh two-socket net.
    fn env() -> (VirtualEnv, SharedNet) {
        let net = Net::shared(2, 1 << 20);
        (VirtualEnv::new(net.clone(), 0, 1, false), net)
    }

    fn queue_of(n: usize, addr: SocketAddr) -> SendQueue {
        let mut q = SendQueue::default();
        for i in 0..n {
            q.push_datagram(addr, &[i as u8; 16]);
        }
        q
    }

    #[test]
    fn enobufs_burst_backs_off_inside_the_window_only() {
        let p = plan(ChaosSpec {
            enobufs_at: Some(Duration::from_secs(1)),
            enobufs_for: Duration::from_secs(1),
            ..ChaosSpec::default()
        });
        let (mut env, _net) = env();
        let mut chaos = SocketChaos::new(&p, 0, 0, false);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();

        let mut queue = queue_of(3, Net::addr(1));
        let inside = Time::ZERO + Duration::from_millis(1500);
        let sender = ChaosSender::new(&mut env, Some((&p, &mut chaos)), inside);
        let verdict = sender.drain(0, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Backoff);
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(pending.len(), 3, "nothing is lost to the burst");

        let mut queue = queue_of(3, Net::addr(1));
        let mut after = SendQueue::default();
        let outside = Time::ZERO + Duration::from_millis(2500);
        let sender = ChaosSender::new(&mut env, Some((&p, &mut chaos)), outside);
        let verdict = sender.drain(0, &mut queue, &mut after, &mut stats);
        assert_eq!(verdict, SendVerdict::Drained);
        assert!(after.is_empty());
    }

    #[test]
    fn socket_kill_fires_exactly_once_and_only_when_eligible() {
        let p = plan(ChaosSpec {
            kill_socket_at: Some(Duration::from_secs(1)),
            ..ChaosSpec::default()
        });
        let at = Time::ZERO + Duration::from_secs(2);
        let mut eligible = SocketChaos::new(&p, 0, 0, true);
        let first = eligible.errno(&p, at, true).expect("the kill fires");
        assert_eq!(first.raw_os_error(), Some(9), "EBADF");
        assert!(eligible.errno(&p, at, true).is_none(), "one-shot");
        let mut bystander = SocketChaos::new(&p, 0, 1, false);
        assert!(bystander.errno(&p, at, true).is_none(), "only the eligible socket dies");
    }

    /// `ENOSYS` is what a batched call answers once its syscall is gone:
    /// injected from the plan's instant on, to a batched environment only,
    /// so the downgrade it forces is what ends it.
    #[test]
    fn enosys_answers_batched_sends_from_its_instant_on() {
        let p = plan(ChaosSpec { enosys_at: Some(Duration::from_secs(1)), ..ChaosSpec::default() });
        let mut chaos = SocketChaos::new(&p, 0, 0, false);
        let (before, at) = (Time::ZERO, Time::ZERO + Duration::from_secs(1));
        assert!(chaos.errno(&p, before, true).is_none());
        let e = chaos.errno(&p, at, true).expect("ENOSYS");
        assert_eq!(crate::mmsg::classify(&e), crate::mmsg::ErrorClass::Downgrade);
        assert!(chaos.errno(&p, at, false).is_none(), "the portable path has no batched call");
    }

    #[test]
    fn short_send_really_sends_the_head_segment() {
        let p = plan(ChaosSpec { short_send: 1.0, ..ChaosSpec::default() });
        let (mut env, net) = env();
        let mut chaos = SocketChaos::new(&p, 0, 0, false);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let mut queue = queue_of(3, Net::addr(1));
        let sender = ChaosSender::new(&mut env, Some((&p, &mut chaos)), Time::ZERO);
        let verdict = sender.drain(0, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(stats.kernel_sent, 3, "short counts resume; nothing is lost");
        assert!(stats.faults_injected >= 2, "the multi-segment calls were shortened");
        let got = net.borrow_mut().take(1);
        assert_eq!(got.len(), 3, "every datagram really reached the wire");
        assert!(got.iter().all(|a| a.at == Time::ZERO + WIRE_DELAY));
    }

    proptest! {
        /// The injected-fault sequence is byte-identical at any shard
        /// count: per-node fate streams do not care how nodes are grouped
        /// into shards, so re-partitioning the same emissions yields the
        /// same per-node sequences and the same aggregate counters.
        #[test]
        fn fault_sequence_is_shard_count_independent(
            seed in 0u64..10_000,
            nodes in 2usize..24,
            emissions in 1usize..60,
            shards_a in 1usize..8,
            shards_b in 1usize..8,
        ) {
            let spec = ChaosSpec { drop: 0.2, duplicate: 0.1, reorder: 0.15, delay: 0.1, truncate: 0.1, ..ChaosSpec::default() };
            let p = spec.compile(seed);

            // Simulate a run at `shards` shards: shard s hosts nodes
            // striped by id (the reactor's placement) and draws each
            // hosted node's fates independently.
            let run = |shards: usize| -> (Vec<Vec<DatagramFate>>, [u64; 6]) {
                let mut per_node = vec![Vec::new(); nodes];
                let mut counters = [0u64; 6];
                for s in 0..shards {
                    for node in (0..nodes).filter(|n| n % shards == s) {
                        let mut stream = SenderChaos::new(&p, NodeId::new(node as u32));
                        for _ in 0..emissions {
                            let f = stream.fate(&p, 100);
                            counters[match f {
                                DatagramFate::Deliver => 0,
                                DatagramFate::Drop => 1,
                                DatagramFate::Duplicate => 2,
                                DatagramFate::Truncate(_) => 3,
                                DatagramFate::Delay => 4,
                                DatagramFate::Reorder => 5,
                            }] += 1;
                            per_node[node].push(f);
                        }
                    }
                }
                (per_node, counters)
            };

            let (fates_a, counts_a) = run(shards_a);
            let (fates_b, counts_b) = run(shards_b);
            prop_assert_eq!(fates_a, fates_b, "per-node sequences must not depend on sharding");
            prop_assert_eq!(counts_a, counts_b, "aggregate counters must not depend on sharding");
        }
    }

    /// The pinned chaos workload: every datagram risks drop, duplication and
    /// reordering; every send between 1.0 s and 1.4 s fails with ENOBUFS
    /// (driving the backoff/retain/retry path); at 1.6 s one socket per shard
    /// dies with EBADF (driving the re-bind path); and from 2.2 s the batched
    /// syscalls answer ENOSYS (driving the downgrade to the portable
    /// send/receive/wait — inert on a shard already running it).
    fn chaos_config() -> gossip_udp::cluster::ClusterConfig {
        gossip_udp::cluster::ClusterConfig {
            n: 64,
            gossip: gossip_core::GossipConfig::new(5)
                .with_gossip_period(Duration::from_millis(100)),
            stream: gossip_stream::StreamConfig {
                rate_bps: 300_000,
                packet_payload_bytes: 1000,
                window: gossip_fec::WindowParams::new(20, 4),
            },
            upload_cap_bps: Some(2_000_000),
            source_uncapped: true,
            max_backlog: Duration::from_secs(5),
            stream_duration: Duration::from_secs(3),
            drain_duration: Duration::from_secs(2),
            seed: 42,
            inject_loss: 0.0,
            crashes: Vec::new(),
            adversity: gossip_adversity::AdversitySpec::none().with_chaos(ChaosSpec {
                drop: 0.02,
                duplicate: 0.02,
                reorder: 0.05,
                enobufs_at: Some(Duration::from_millis(1000)),
                enobufs_for: Duration::from_millis(400),
                kill_socket_at: Some(Duration::from_millis(1600)),
                enosys_at: Some(Duration::from_millis(2200)),
                ..ChaosSpec::default()
            }),
            joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
            telemetry: None,
        }
    }

    /// Runs the pinned chaos workload on one I/O path of a live n = 64,
    /// two-shard cluster and asserts the recovery story: faults were
    /// injected, transient failures backed off and were retried, the killed
    /// sockets were re-bound, a batched shard downgraded when its syscalls
    /// vanished, no shard aborted, and the cluster still streamed. On
    /// virtual time the schedule is exact: every backoff entry falls inside
    /// the ENOBUFS burst (its last retry at most [`BACKOFF_CAP`] past it),
    /// each shard re-binds socket 0 exactly once, at the first send it
    /// tries at or after the kill, and each batched shard downgrades
    /// exactly once.
    ///
    /// [`BACKOFF_CAP`]: crate::shard::BACKOFF_CAP
    fn assert_recovers(batched: bool, backend: &str) {
        use crate::shard::stepped::VirtualCluster;
        use crate::shard::BACKOFF_CAP;

        let options = crate::ReactorOptions { shards: Some(2), ..crate::ReactorOptions::default() };
        let mut cluster = VirtualCluster::new(chaos_config(), &options, batched);
        cluster.run_until(cluster.end());

        let burst = Time::ZERO + Duration::from_millis(1000);
        let burst_end = burst + Duration::from_millis(400) + BACKOFF_CAP;
        assert!(!cluster.backoffs.is_empty(), "the burst drives backoffs ({backend})");
        for &(at, shard) in &cluster.backoffs {
            assert!(burst <= at && at <= burst_end, "shard {shard} backed off at {at} ({backend})");
        }
        let kill = Time::ZERO + Duration::from_millis(1600);
        for (k, shard) in cluster.shards.iter().enumerate() {
            let rebinds = &shard.env.rebinds;
            assert_eq!(rebinds.len(), 1, "shard {k} re-binds once ({backend}): {rebinds:?}");
            let rebind = rebinds[0];
            assert_eq!(rebind.socket, 0, "the kill takes socket 0");
            assert!(
                rebind.at >= kill && rebind.last_send.is_some_and(|t| t < kill),
                "shard {k}: the kill takes the first send at or after it ({backend}): {rebind:?}"
            );
            let downgrades = shard.stats.backend_downgrades;
            assert_eq!(downgrades, u64::from(batched), "shard {k} downgrades ({backend})");
        }
        let report = cluster.finish();

        assert_eq!(report.nodes.len(), 64, "every virtual node must report ({backend})");
        assert_eq!(report.aborted_shards, 0, "no shard may abort under chaos ({backend})");

        let rec = report.io_stats().unwrap_or_default();
        assert!(rec.faults_injected > 0, "the chaos plan must engage ({backend})");
        assert!(
            rec.send_backoffs > 0,
            "the ENOBUFS burst must drive send backoffs ({backend}): {rec:?}"
        );
        assert!(
            rec.transients_recovered > 0,
            "backed-off sends must be retried ({backend}): {rec:?}"
        );
        assert!(
            rec.socket_rebinds >= 2,
            "the socket kill must force a re-bind on each of the 2 shards ({backend}): {rec:?}"
        );
        if batched {
            assert!(
                rec.backend_downgrades >= 1,
                "the ENOSYS must downgrade the batched shards ({backend}): {rec:?}"
            );
        }

        let total_recv: u64 = report.nodes.iter().map(|n| n.recv_msgs).sum();
        assert!(total_recv > 0, "traffic must keep flowing through recovery ({backend})");
        let avg = report.quality.average_quality_percent(Duration::MAX);
        assert!(avg >= 50.0, "the cluster must stream through the faults ({backend}): {avg:.1}%");
    }

    #[test]
    fn enobufs_burst_and_socket_kill_recover_on_the_batched_backend() {
        assert_recovers(true, "mmsg");
    }

    #[test]
    fn enobufs_burst_and_socket_kill_recover_on_the_fallback_backend() {
        assert_recovers(false, "fallback");
    }
}
