//! Per-node run reports and per-shard I/O counters.
//!
//! A live run finishes by producing one [`NodeReport`] per node;
//! [`crate::cluster::assemble_report`] turns the collection into a
//! [`crate::cluster::ClusterReport`] wherever the nodes were hosted — the
//! shards of one process or the workers of a `gossipd` deployment.

use gossip_stream::StreamPlayer;
use gossip_types::NodeId;

/// Everything a node reports back when its run finishes.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's identity.
    pub id: NodeId,
    /// Protocol counters.
    pub protocol: gossip_core::ProtocolStats,
    /// The playout state (window completeness and timing).
    pub player: StreamPlayer,
    /// Bytes handed to the kernel: counted as the upload link releases
    /// them, so a crashed node's discarded backlog is not among them.
    pub sent_bytes: u64,
    /// Datagrams handed to the kernel.
    pub sent_msgs: u64,
    /// Datagrams dropped by the node's upload link.
    pub shaper_drops: u64,
    /// Datagrams received.
    pub recv_msgs: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
}

gossip_types::counters! {
    /// Per-shard I/O accounting of the sharded reactor runtime.
    ///
    /// Two layers of batching separate *protocol* datagrams from kernel
    /// interactions: send coalescing packs every protocol datagram a wake
    /// releases for the same destination socket into one **kernel datagram**
    /// ([`ShardStats::datagrams_per_kernel_datagram`]), and the
    /// `sendmmsg`/`recvmmsg` backend moves many kernel datagrams per
    /// **syscall**. The headline ratios are
    /// [`ShardStats::syscalls_per_datagram`] (send syscalls per protocol
    /// datagram — well below 1.0 once both layers engage) and
    /// [`ShardStats::syscalls_per_iteration`] (data-bearing I/O calls per
    /// loop wake).
    ///
    /// `send_syscalls` and `recv_syscalls` count **data-bearing** I/O calls
    /// only: the shard's waits (`ppoll`, the dwell sleep) and receive calls
    /// that came back empty are in neither, so the ratios built on them say
    /// how densely the kernel was used when there was something to move, not
    /// how many times the kernel was entered.
    ///
    /// Each counter is one field below, its live metric name and help line
    /// beside it: the field is a row of [`ShardStats::COUNTERS`], which
    /// [`ShardStats::merge`], the report codec ([`crate::codec`]) and the
    /// reactor's live cells all walk. Rows are wire order, so append only.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ShardStats {
        /// Protocol datagrams this shard's nodes put on the wire.
        datagrams_sent: "gossip_shard_datagrams_sent_total",
            "Protocol datagrams this shard framed for the wire.",
        /// Send syscalls (`sendmmsg` or `send_to`) used to carry them.
        send_syscalls: "gossip_shard_send_syscalls_total",
            "Send syscalls issued (sendmmsg batches count once).",
        /// Kernel datagrams handed to the kernel (coalesced bursts).
        kernel_sent: "gossip_shard_kernel_datagrams_sent_total",
            "Kernel datagrams actually accepted by the send path.",
        /// Kernel datagrams dropped on a send error (full kernel buffer —
        /// UDP semantics, absorbed by FEC + retransmission).
        send_drops: "gossip_shard_send_drops_total",
            "Kernel datagrams dropped at send (full buffers, UDP semantics).",
        /// Protocol datagrams received (after unpacking coalesced frames).
        datagrams_received: "gossip_shard_datagrams_received_total",
            "Protocol frames demuxed from received kernel datagrams.",
        /// Receive syscalls (`recvmmsg` or `recv_from`) that returned data.
        recv_syscalls: "gossip_shard_recv_syscalls_total",
            "Receive syscalls issued (recvmmsg batches count once).",
        /// Kernel datagrams received.
        kernel_received: "gossip_shard_kernel_datagrams_received_total",
            "Kernel datagrams received across the socket pool.",
        /// Receive slots offered across data-bearing receive calls: what
        /// each call asked for — the receive pool's size at the call,
        /// unless the socket's budget had less left (denominator of
        /// [`ShardStats::recv_batch_occupancy`]).
        recv_capacity: "gossip_shard_recv_capacity_total",
            "Receive batch slots offered to the kernel (occupancy denominator).",
        /// Kernel datagrams whose demux framing was malformed (truncated
        /// header or length running past the datagram end). Frame-level decode
        /// failures are attributed to the destination node's `decode_errors`
        /// instead; these had no readable destination.
        frame_errors: "gossip_shard_frame_errors_total",
            "Kernel datagrams with malformed framing (intact prefix salvaged).",
        /// Protocol datagrams that could not be framed at all (an oversized
        /// wire buffer that does not fit the u16 frame length).
        encode_errors: "gossip_shard_encode_errors_total",
            "Protocol datagrams too large for the frame length field.",
        /// Event-loop iterations the shard ran: one per wake from its wait,
        /// plus the undwelt re-loops while a drain left backlog.
        iterations: "gossip_shard_loop_iterations_total",
            "Shard event-loop iterations.",
        /// Chaos faults injected at the syscall boundary: datagram mutations
        /// (drop / duplicate / reorder / delay / truncate) plus forced errno
        /// returns (zero outside chaos runs).
        faults_injected: "gossip_shard_faults_injected_total",
            "Chaos faults injected at the syscall boundary.",
        /// Transient send errors absorbed without losing the queue (the
        /// unsent tail was retained and retried after a backoff).
        transients_recovered: "gossip_shard_transients_recovered_total",
            "Transient send errors absorbed without losing the queue.",
        /// Backoff intervals entered after transient send failures.
        send_backoffs: "gossip_shard_send_backoffs_total",
            "Backoff intervals entered after transient send failures.",
        /// Datagrams shed by the outbox/pending load-shedding budgets (oldest
        /// first, once a byte or age budget was exceeded).
        datagrams_shed: "gossip_shard_datagrams_shed_total",
            "Datagrams shed by the outbox and retry-queue budgets.",
        /// Fatal socket errors recovered by re-binding the socket in place.
        socket_rebinds: "gossip_shard_socket_rebinds_total",
            "Fatal socket errors recovered by re-binding in place.",
    }
}

impl ShardStats {
    /// Send syscalls per protocol datagram (1.0 = no batching at all;
    /// `None` when the shard sent nothing).
    pub fn syscalls_per_datagram(&self) -> Option<f64> {
        (self.datagrams_sent > 0).then(|| self.send_syscalls as f64 / self.datagrams_sent as f64)
    }

    /// Protocol datagrams moved per send syscall (coalescing × mmsg
    /// batching; `None` when the shard never sent).
    pub fn datagrams_per_send_syscall(&self) -> Option<f64> {
        (self.send_syscalls > 0).then(|| self.datagrams_sent as f64 / self.send_syscalls as f64)
    }

    /// Protocol datagrams carried per kernel datagram sent — the send
    /// coalescing ratio (1.0 = none; `None` when the shard never sent).
    pub fn datagrams_per_kernel_datagram(&self) -> Option<f64> {
        (self.kernel_sent > 0).then(|| self.datagrams_sent as f64 / self.kernel_sent as f64)
    }

    /// Protocol datagrams received per data-bearing receive syscall
    /// (`None` when the shard never received).
    pub fn datagrams_per_recv_syscall(&self) -> Option<f64> {
        (self.recv_syscalls > 0).then(|| self.datagrams_received as f64 / self.recv_syscalls as f64)
    }

    /// Average fill fraction of the slots data-bearing receive calls
    /// offered (1.0 = every `recvmmsg` came back full). The receive pool
    /// grows with the bursts a shard sees, so this reads how well the pool
    /// fits the traffic, not how full a worst-case batch ran.
    pub fn recv_batch_occupancy(&self) -> Option<f64> {
        (self.recv_capacity > 0).then(|| self.kernel_received as f64 / self.recv_capacity as f64)
    }

    /// Data-bearing I/O syscalls per event-loop iteration: how much
    /// sending and receiving one wake carries. Waits and empty reads are
    /// not counted (see the type's docs), so this is not the loop's total
    /// syscall rate.
    pub fn syscalls_per_iteration(&self) -> Option<f64> {
        (self.iterations > 0)
            .then(|| (self.send_syscalls + self.recv_syscalls) as f64 / self.iterations as f64)
    }
}
