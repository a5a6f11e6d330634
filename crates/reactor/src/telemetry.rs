//! Per-shard live telemetry: the cells and histograms a shard mirrors its
//! statistics into when the cluster runs with a metrics registry.
//!
//! One [`ShardTelemetry`] is registered per shard (labelled
//! `shard="<index>"`) before the shard thread starts, so registration —
//! the only allocating step — never happens on the hot path. The shard
//! then *mirrors* its plain [`ShardStats`] fields into the counter cells
//! once per loop iteration (a handful of relaxed stores), and computes
//! the more expensive gauges — aggregate stream completeness, queue
//! depths — at a coarse cadence. Phase histograms bracket the four stages
//! of the shard loop with monotonic-clock reads that exist only when
//! telemetry is on.

use gossip_telemetry::{Cell, Histogram, Registry};
use gossip_udp::report::ShardStats;

/// How often a shard recomputes its gauges (the completeness scan walks
/// every hosted player's window records).
pub(crate) const GAUGE_PERIOD: gossip_types::Duration = gossip_types::Duration::from_millis(200);

/// The metric cells of one shard.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    // Counters mirroring the `ShardStats` fields.
    datagrams_sent: Cell,
    send_syscalls: Cell,
    kernel_sent: Cell,
    send_drops: Cell,
    datagrams_received: Cell,
    recv_syscalls: Cell,
    kernel_received: Cell,
    recv_capacity: Cell,
    frame_errors: Cell,
    encode_errors: Cell,
    iterations: Cell,
    faults_injected: Cell,
    transients_recovered: Cell,
    send_backoffs: Cell,
    datagrams_shed: Cell,
    socket_rebinds: Cell,
    backend_downgrades: Cell,
    // Live gauges.
    wheel_resident: Cell,
    backoff_level: Cell,
    pending_bytes: Cell,
    completeness: Cell,
    // Phase wall-time histograms (seconds, µs resolution).
    pub(crate) phase_timers: Histogram,
    pub(crate) phase_ingress: Histogram,
    pub(crate) phase_flush: Histogram,
    pub(crate) phase_park: Histogram,
}

impl ShardTelemetry {
    /// Registers every cell of shard `index` in `registry`.
    pub(crate) fn register(registry: &Registry, index: usize) -> ShardTelemetry {
        let labels: &[(&str, String)] = &[("shard", index.to_string())];
        let counter = |name: &str, help: &'static str| registry.counter(name, help, labels);
        let gauge = |name: &str, help: &'static str| registry.gauge(name, help, labels);
        let phase = |name: &'static str| {
            registry.histogram(
                "gossip_shard_phase_seconds",
                "Wall time of one shard loop phase.",
                &[("shard", index.to_string()), ("phase", name.to_string())],
            )
        };
        ShardTelemetry {
            datagrams_sent: counter(
                "gossip_shard_datagrams_sent_total",
                "Protocol datagrams this shard framed for the wire.",
            ),
            send_syscalls: counter(
                "gossip_shard_send_syscalls_total",
                "Send syscalls issued (sendmmsg batches count once).",
            ),
            kernel_sent: counter(
                "gossip_shard_kernel_datagrams_sent_total",
                "Kernel datagrams actually accepted by the send path.",
            ),
            send_drops: counter(
                "gossip_shard_send_drops_total",
                "Kernel datagrams dropped at send (full buffers, UDP semantics).",
            ),
            datagrams_received: counter(
                "gossip_shard_datagrams_received_total",
                "Protocol frames demuxed from received kernel datagrams.",
            ),
            recv_syscalls: counter(
                "gossip_shard_recv_syscalls_total",
                "Receive syscalls issued (recvmmsg batches count once).",
            ),
            kernel_received: counter(
                "gossip_shard_kernel_datagrams_received_total",
                "Kernel datagrams received across the socket pool.",
            ),
            recv_capacity: counter(
                "gossip_shard_recv_capacity_total",
                "Receive batch slots offered to the kernel (occupancy denominator).",
            ),
            frame_errors: counter(
                "gossip_shard_frame_errors_total",
                "Kernel datagrams with malformed framing (intact prefix salvaged).",
            ),
            encode_errors: counter(
                "gossip_shard_encode_errors_total",
                "Protocol datagrams too large for the frame length field.",
            ),
            iterations: counter(
                "gossip_shard_loop_iterations_total",
                "Shard event-loop iterations.",
            ),
            faults_injected: counter(
                "gossip_shard_faults_injected_total",
                "Chaos faults injected at the syscall boundary.",
            ),
            transients_recovered: counter(
                "gossip_shard_transients_recovered_total",
                "Transient send errors absorbed without losing the queue.",
            ),
            send_backoffs: counter(
                "gossip_shard_send_backoffs_total",
                "Backoff intervals entered after transient send failures.",
            ),
            datagrams_shed: counter(
                "gossip_shard_datagrams_shed_total",
                "Datagrams shed by the outbox and retry-queue budgets.",
            ),
            socket_rebinds: counter(
                "gossip_shard_socket_rebinds_total",
                "Fatal socket errors recovered by re-binding in place.",
            ),
            backend_downgrades: counter(
                "gossip_shard_backend_downgrades_total",
                "Mid-run I/O backend downgrades (batched syscalls gone).",
            ),
            wheel_resident: gauge(
                "gossip_shard_wheel_resident_events",
                "Deadlines currently armed in the shard's timer wheel.",
            ),
            backoff_level: gauge(
                "gossip_shard_backoff_level",
                "Highest backoff exponent across the shard's socket pool.",
            ),
            pending_bytes: gauge(
                "gossip_shard_pending_retry_bytes",
                "Bytes retained across transient send failures, awaiting retry.",
            ),
            completeness: registry.gauge_f64(
                "gossip_shard_completeness_percent",
                "Percentage of observed stream windows decodable across hosted nodes.",
                labels,
            ),
            phase_timers: phase("timers"),
            phase_ingress: phase("ingress"),
            phase_flush: phase("flush"),
            phase_park: phase("park"),
        }
    }

    /// Mirrors the shard's plain counters into the cells: seventeen relaxed
    /// stores, called once per loop iteration.
    pub(crate) fn publish_counters(&self, stats: &ShardStats) {
        self.datagrams_sent.store(stats.datagrams_sent);
        self.send_syscalls.store(stats.send_syscalls);
        self.kernel_sent.store(stats.kernel_sent);
        self.send_drops.store(stats.send_drops);
        self.datagrams_received.store(stats.datagrams_received);
        self.recv_syscalls.store(stats.recv_syscalls);
        self.kernel_received.store(stats.kernel_received);
        self.recv_capacity.store(stats.recv_capacity);
        self.frame_errors.store(stats.frame_errors);
        self.encode_errors.store(stats.encode_errors);
        self.iterations.store(stats.iterations);
        self.faults_injected.store(stats.faults_injected);
        self.transients_recovered.store(stats.transients_recovered);
        self.send_backoffs.store(stats.send_backoffs);
        self.datagrams_shed.store(stats.datagrams_shed);
        self.socket_rebinds.store(stats.socket_rebinds);
        self.backend_downgrades.store(stats.backend_downgrades);
    }

    /// Publishes the live gauges (called at [`GAUGE_PERIOD`] cadence; the
    /// completeness fraction is aggregated by the caller, which owns the
    /// players).
    pub(crate) fn publish_gauges(&self, sample: &GaugeSample) {
        self.wheel_resident.store(sample.wheel_resident as u64);
        self.backoff_level.store(u64::from(sample.backoff_level));
        self.pending_bytes.store(sample.pending_bytes as u64);
        let pct = if sample.observed == 0 {
            100.0
        } else {
            sample.decodable as f64 / sample.observed as f64 * 100.0
        };
        self.completeness.store_f64(pct);
    }
}

/// One reading of the shard loop's live state, taken by the loop itself
/// (which owns the wheel, recovery slots and players).
pub(crate) struct GaugeSample {
    pub wheel_resident: usize,
    pub backoff_level: u32,
    pub pending_bytes: usize,
    pub decodable: usize,
    pub observed: usize,
}
