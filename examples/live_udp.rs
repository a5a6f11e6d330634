//! Live deployment on real UDP sockets: the same protocol core that runs in
//! the simulator, hosted by the sharded reactor runtime — a few event-loop
//! shards with shared sockets (thousands of nodes in one process).
//!
//! It uses real wire encoding, real upload shaping and real Reed–Solomon
//! verification of the received windows, and consumes the same declarative
//! adversity spec as the simulator (the `gossip-adversity` crate):
//!
//! ```text
//! cargo run --release --example live_udp [nodes] [seconds]
//!     [--adversity <spec.toml>]     # declarative faults (a crash: [catastrophic])
//!     [--watch]                     # live telemetry + 1 Hz status line
//! ```
//!
//! `--watch` turns the telemetry layer on (Prometheus endpoint on
//! `127.0.0.1:9898` — point a real scraper at it too) and runs the same
//! fleet watcher as `gossip-coord` on it, printing a status line once a
//! second while the run streams:
//!
//! ```text
//! fleet: 1/1 workers | sent 2772 | recv 2765 | shed 0 | backoffs 0 | live completeness 83.3%
//! ```

use std::sync::mpsc;

use gossip_adversity::AdversitySpec;
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::{monitor_fleet, ReactorCluster};
use gossip_stream::StreamConfig;
use gossip_types::Duration;
use gossip_udp::cluster::ClusterConfig;

/// Fixed scrape port for `--watch`: printable in the usage string and easy
/// to point `curl`/Prometheus at while the example streams.
const WATCH_PORT: u16 = 9898;

fn main() {
    let mut positional: Vec<u64> = Vec::new();
    let mut spec_path: Option<String> = None;
    let mut watch = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--adversity" => {
                spec_path = Some(args.next().expect("--adversity requires a spec.toml path"));
            }
            "--watch" => watch = true,
            other => positional.push(other.parse().unwrap_or_else(|_| {
                panic!(
                    "unexpected argument {other:?} (usage: live_udp [nodes] [seconds] \
                     [--adversity spec.toml] [--watch])"
                )
            })),
        }
    }
    let n = positional.first().map_or(12, |&v| v as usize);
    let secs = positional.get(1).copied().unwrap_or(6);
    assert!(n >= 2, "need a source and at least one receiver");

    let adversity = match &spec_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            AdversitySpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{e}"))
        }
        None => AdversitySpec::none(),
    };

    let config = ClusterConfig {
        n,
        gossip: GossipConfig::new(5).with_gossip_period(Duration::from_millis(100)),
        stream: StreamConfig {
            rate_bps: 300_000,
            packet_payload_bytes: 1000,
            window: WindowParams::new(20, 4),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(secs),
        drain_duration: Duration::from_secs(2),
        seed: 42,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity,
        joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
        telemetry: watch.then(|| gossip_telemetry::TelemetryConfig::on_port(WATCH_PORT)),
    };

    let faults = config.compiled_adversity();
    println!(
        "streaming {} kbps to {} receivers over loopback UDP for {secs} s...",
        config.stream.rate_bps / 1000,
        n - 1
    );
    if !faults.timeline.is_empty() {
        println!(
            "  adversity: {} fault events, population {} -> {} nodes",
            faults.timeline.len(),
            faults.base_n,
            faults.total_n
        );
    }
    // The endpoint comes up once the cluster binds; until then the
    // watcher's polls find no live worker and print nothing.
    let watcher = watch.then(|| {
        println!("  telemetry: scrape http://127.0.0.1:{WATCH_PORT}/metrics while this runs");
        let (stop, stopped) = mpsc::channel::<()>();
        let endpoint = std::net::SocketAddr::from(([127, 0, 0, 1], WATCH_PORT));
        (stop, std::thread::spawn(move || monitor_fleet(&[endpoint], &stopped)))
    });
    let report = ReactorCluster::run(config).expect("cluster runs");
    if let Some((stop, handle)) = watcher {
        drop(stop);
        handle.join().expect("the watcher thread");
    }

    println!("\nresults:");
    println!("  windows measured per node: {}", report.windows_measured);
    println!(
        "  receivers decoding every window: {}/{}",
        report.nodes_all_windows_ok(),
        report.receivers()
    );
    println!(
        "  average complete windows: {:.1}%",
        report.quality.average_quality_percent(Duration::MAX)
    );
    if let Some(joiners) = &report.joiner_quality {
        println!(
            "  joiner catch-up (windows after each join): {:.1}% across {} joiners",
            joiners.average_quality_percent(Duration::MAX),
            joiners.nodes().len()
        );
    }
    println!("  windows byte-verified through real Reed-Solomon: {}", report.windows_verified);
    let sent: u64 = report.nodes.iter().map(|r| r.sent_msgs).sum();
    let recv: u64 = report.nodes.iter().map(|r| r.recv_msgs).sum();
    let errs: u64 = report.nodes.iter().map(|r| r.decode_errors).sum();
    println!("  datagrams sent {sent}, received {recv}, malformed {errs}");
    let res = report.protocol();
    println!(
        "  resilience: {} corrupted serves detected, {} re-requested from alternates, \
         {} garbage ids rejected",
        res.corrupted_events_detected, res.corrupt_rerequests, res.garbage_ids_rejected
    );
    println!(
        "  resilience: {} peers demoted, {} proposals from demoted peers ignored",
        res.peers_demoted, res.proposes_from_demoted_ignored
    );
    if let Some(total) = report.io_stats() {
        println!(
            "  kernel batching: {} ({} shards)",
            if gossip_reactor::mmsg_active() { "sendmmsg/recvmmsg" } else { "portable fallback" },
            report.shard_stats.len()
        );
        if let Some(ratio) = total.syscalls_per_datagram() {
            println!(
                "  send syscalls per datagram: {ratio:.3} ({} syscalls / {} datagrams)",
                total.send_syscalls, total.datagrams_sent
            );
        }
        if let Some(d) = total.datagrams_per_send_syscall() {
            println!("  datagrams per send syscall: {d:.1}");
        }
        if let Some(d) = total.datagrams_per_recv_syscall() {
            println!("  datagrams per recv syscall: {d:.1}");
        }
        if let Some(occ) = total.recv_batch_occupancy() {
            println!("  recv batch occupancy: {:.1}%", occ * 100.0);
        }
        if let Some(spi) = total.syscalls_per_iteration() {
            println!("  syscalls per loop iteration: {spi:.2}");
        }
        println!(
            "  recovery: {} faults injected, {} transients recovered, {} send backoffs",
            total.faults_injected, total.transients_recovered, total.send_backoffs
        );
        println!(
            "  recovery: {} datagrams shed, {} socket re-binds, {} encode errors, \
             {} aborted shards",
            total.datagrams_shed, total.socket_rebinds, total.encode_errors, report.aborted_shards
        );
    }
}
