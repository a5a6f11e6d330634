//! The chaos/recovery acceptance scenario: a live n = 64 reactor cluster
//! under injected kernel faults — a steady drop/duplicate/reorder mix, an
//! ENOBUFS burst across the stream midpoint, a one-shot socket kill and the
//! batched syscalls vanishing (ENOSYS) — must run to completion on BOTH
//! I/O backends, with every recovery mechanism demonstrably engaged and
//! no shard lost.

use gossip_adversity::{AdversitySpec, ChaosSpec};
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::{ReactorCluster, ReactorOptions};
use gossip_stream::StreamConfig;
use gossip_types::Duration;
use gossip_udp::cluster::ClusterConfig;

/// The pinned chaos workload: every datagram risks drop, duplication and
/// reordering; every send between 1.0 s and 1.4 s fails with ENOBUFS
/// (driving the backoff/retain/retry path); at 1.6 s one socket per shard
/// dies with EBADF (driving the re-bind path); and from 2.2 s the batched
/// syscalls answer ENOSYS (driving the downgrade to the portable
/// send/receive/wait — inert on a shard already running it).
fn chaos_config() -> ClusterConfig {
    ClusterConfig {
        n: 64,
        gossip: GossipConfig::new(5).with_gossip_period(Duration::from_millis(100)),
        stream: StreamConfig {
            rate_bps: 300_000,
            packet_payload_bytes: 1000,
            window: WindowParams::new(20, 4),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(3),
        drain_duration: Duration::from_secs(2),
        seed: 42,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity: AdversitySpec::none().with_chaos(ChaosSpec {
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

/// Runs the pinned chaos workload on one backend and asserts the recovery
/// story: faults were injected, transient failures backed off and were
/// retried, the killed sockets were re-bound, a batched shard downgraded
/// when its syscalls vanished, no shard aborted, and the cluster still
/// streamed.
fn assert_recovers(mmsg: Option<bool>, backend: &str) {
    let options = ReactorOptions { shards: Some(2), mmsg, ..ReactorOptions::default() };
    let report = ReactorCluster::run_with(chaos_config(), options).expect("cluster runs");

    assert_eq!(report.nodes.len(), 64, "every virtual node must report ({backend})");
    assert_eq!(report.aborted_shards, 0, "no shard may abort under chaos ({backend})");

    let rec = report.recovery();
    assert!(rec.faults_injected > 0, "the chaos plan must engage ({backend})");
    assert!(
        rec.send_backoffs > 0,
        "the ENOBUFS burst must drive send backoffs ({backend}): {rec:?}"
    );
    assert!(rec.transients_recovered > 0, "backed-off sends must be retried ({backend}): {rec:?}");
    assert!(
        rec.socket_rebinds >= 2,
        "the socket kill must force a re-bind on each of the 2 shards ({backend}): {rec:?}"
    );
    if mmsg == Some(true) && gossip_reactor::mmsg_active() {
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
    assert_recovers(Some(true), "mmsg");
}

#[test]
fn enobufs_burst_and_socket_kill_recover_on_the_fallback_backend() {
    assert_recovers(Some(false), "fallback");
}
