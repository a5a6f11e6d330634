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
//!   `EAGAIN`/`EINTR` storms, a timed `ENOBUFS` burst, and a one-shot
//!   `EBADF` socket kill. [`ChaosSender`] wraps the real
//!   [`BatchSender`] so injected errors flow through exactly the same
//!   [`crate::mmsg::classify`] taxonomy and recovery machinery as real
//!   kernel returns — the chaos layer proves the *production* error
//!   handling, not a parallel copy of it.
//!
//! Injection never panics: in the release profile (`panic = "abort"`) a
//! panicking fault injector would take the whole process down, which is
//! the exact opposite of what a robustness harness is for.

use std::io;
use std::net::UdpSocket;

use gossip_adversity::ChaosPlan;
use gossip_sim::DetRng;
use gossip_types::{NodeId, Time};
use gossip_udp::report::ShardStats;

use crate::mmsg::{
    drain_queue, Backend, BatchSender, FallbackSender, MmsgSender, SendQueue, SendVerdict,
};

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
    /// errno. Priority: the one-shot kill, then the ENOBUFS burst window,
    /// then the probabilistic EAGAIN/EINTR storms.
    fn errno(&mut self, plan: &ChaosPlan, now: Time) -> Option<io::Error> {
        const EINTR: i32 = 4;
        const EBADF: i32 = 9;
        const EAGAIN: i32 = 11;
        const ENOBUFS: i32 = 105;
        if self.kill_eligible && !self.kill_fired && plan.kill_socket_at.is_some_and(|t| now >= t) {
            self.kill_fired = true;
            return Some(io::Error::from_raw_os_error(EBADF));
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

/// A [`BatchSender`] interposer: consults the socket's chaos stream
/// before every kernel interaction and either injects an errno, forces a
/// short count (sending exactly the head segment), or passes through to
/// the real backend.
struct ChaosSender<'a, S> {
    inner: S,
    plan: &'a ChaosPlan,
    chaos: &'a mut SocketChaos,
    now: Time,
    /// Errno and short-count faults injected during this drain.
    injected: u64,
}

impl<S: BatchSender> BatchSender for ChaosSender<'_, S> {
    fn send_from(
        &mut self,
        socket: &UdpSocket,
        queue: &SendQueue,
        first: usize,
    ) -> io::Result<usize> {
        if let Some(e) = self.chaos.errno(self.plan, self.now) {
            self.injected += 1;
            return Err(e);
        }
        if queue.len() - first > 1 && self.chaos.short_send(self.plan) {
            // A genuine short count: really send the head, report 1, and
            // let the drain resume at the next unsent segment.
            self.injected += 1;
            let (bytes, addr) = queue.seg(first);
            return socket.send_to(bytes, addr).map(|_| 1);
        }
        self.inner.send_from(socket, queue, first)
    }
}

/// [`crate::mmsg::flush_queue`] with the chaos interposer in front of the
/// chosen backend: injected faults are counted into
/// `stats.faults_injected` and flow through the same recovery verdicts as
/// real kernel errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn flush_queue_chaos(
    backend: Backend,
    plan: &ChaosPlan,
    chaos: &mut SocketChaos,
    now: Time,
    socket: &UdpSocket,
    queue: &mut SendQueue,
    pending: &mut SendQueue,
    stats: &mut ShardStats,
) -> SendVerdict {
    if queue.is_empty() {
        return SendVerdict::Drained;
    }
    match backend {
        Backend::Mmsg => {
            let mut sender = ChaosSender { inner: MmsgSender, plan, chaos, now, injected: 0 };
            let verdict = drain_queue(&mut sender, socket, queue, pending, stats);
            stats.faults_injected += sender.injected;
            verdict
        }
        Backend::Fallback => {
            let mut sender = ChaosSender { inner: FallbackSender, plan, chaos, now, injected: 0 };
            let verdict = drain_queue(&mut sender, socket, queue, pending, stats);
            stats.faults_injected += sender.injected;
            verdict
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, SocketAddr};

    use gossip_adversity::ChaosSpec;
    use gossip_types::Duration;
    use proptest::prelude::*;

    use super::*;

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

    fn loopback() -> (UdpSocket, SocketAddr) {
        let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = s.local_addr().expect("addr");
        (s, addr)
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
        let (socket, addr) = loopback();
        let mut chaos = SocketChaos::new(&p, 0, 0, false);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();

        let mut queue = queue_of(3, addr);
        let inside = Time::ZERO + Duration::from_millis(1500);
        let verdict = flush_queue_chaos(
            Backend::Fallback,
            &p,
            &mut chaos,
            inside,
            &socket,
            &mut queue,
            &mut pending,
            &mut stats,
        );
        assert_eq!(verdict, SendVerdict::Backoff);
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(pending.len(), 3, "nothing is lost to the burst");

        let mut queue = queue_of(3, addr);
        let mut after = SendQueue::default();
        let outside = Time::ZERO + Duration::from_millis(2500);
        let verdict = flush_queue_chaos(
            Backend::Fallback,
            &p,
            &mut chaos,
            outside,
            &socket,
            &mut queue,
            &mut after,
            &mut stats,
        );
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
        let first = eligible.errno(&p, at).expect("the kill fires");
        assert_eq!(first.raw_os_error(), Some(9), "EBADF");
        assert!(eligible.errno(&p, at).is_none(), "one-shot");
        let mut bystander = SocketChaos::new(&p, 0, 1, false);
        assert!(bystander.errno(&p, at).is_none(), "only the eligible socket dies");
    }

    #[test]
    fn short_send_really_sends_the_head_segment() {
        let p = plan(ChaosSpec { short_send: 1.0, ..ChaosSpec::default() });
        let (tx, _addr_tx) = loopback();
        let (rx, addr) = loopback();
        rx.set_nonblocking(true).expect("nonblocking");
        let mut chaos = SocketChaos::new(&p, 0, 0, false);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let mut queue = queue_of(3, addr);
        let verdict = flush_queue_chaos(
            Backend::Fallback,
            &p,
            &mut chaos,
            Time::ZERO,
            &tx,
            &mut queue,
            &mut pending,
            &mut stats,
        );
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(stats.kernel_sent, 3, "short counts resume; nothing is lost");
        assert!(stats.faults_injected >= 2, "the multi-segment calls were shortened");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut buf = [0u8; 64];
        let mut got = 0;
        while rx.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 3, "every datagram really reached the wire");
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
}
