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
//!     [--adversity <spec.toml>]     # full declarative spec
//!     [--crash-frac <0..1>]         # shorthand: catastrophic crash
//!     [--crash-at <seconds>]        # ... at this offset (default: midway)
//!     [--watch]                     # live telemetry + 1 Hz status line
//! ```
//!
//! `--watch` turns the telemetry layer on (Prometheus endpoint on
//! `127.0.0.1:9898` — point a real scraper at it too) and self-scrapes it
//! once a second, printing a live status line while the run streams:
//!
//! ```text
//! live: completeness 87.3% | 10423 dgram/s | backoff L0 | shed 0
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gossip_adversity::AdversitySpec;
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::ReactorCluster;
use gossip_stream::StreamConfig;
use gossip_telemetry::in_family;
use gossip_types::Duration;
use gossip_udp::cluster::ClusterConfig;

/// Fixed scrape port for `--watch`: printable in the usage string and easy
/// to point `curl`/Prometheus at while the example streams.
const WATCH_PORT: u16 = 9898;

/// Sums a metric family (one labelled cell per shard) over a scrape.
fn family_sum(samples: &[(String, f64)], family: &str) -> f64 {
    samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| v).sum()
}

/// Mean of a gauge family's labelled cells (0 when the family is absent).
fn family_mean(samples: &[(String, f64)], family: &str) -> f64 {
    let cells: Vec<f64> =
        samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| *v).collect();
    if cells.is_empty() {
        0.0
    } else {
        cells.iter().sum::<f64>() / cells.len() as f64
    }
}

/// The `--watch` loop: self-scrape the endpoint once a second and print a
/// live status line from the `gossip_shard_*` families.
fn watch_loop(stop: &AtomicBool) {
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], WATCH_PORT));
    let mut last_recv: Option<f64> = None;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_secs(1));
        // The endpoint comes up once the cluster starts; until then (and
        // after it stops) the scrape just fails quietly.
        let Ok(samples) = gossip_telemetry::scrape(addr) else { continue };
        let recv = family_sum(&samples, "gossip_shard_datagrams_received_total");
        let rate = last_recv.map_or(0.0, |prev| (recv - prev).max(0.0));
        last_recv = Some(recv);
        let completeness = family_mean(&samples, "gossip_shard_completeness_percent");
        let backoff = samples
            .iter()
            .filter(|(n, _)| n.starts_with("gossip_shard_backoff_level"))
            .map(|(_, v)| *v)
            .fold(0.0_f64, f64::max);
        let shed = family_sum(&samples, "gossip_shard_datagrams_shed_total");
        println!(
            "live: completeness {completeness:.1}% | {rate:.0} dgram/s | backoff L{backoff:.0} | shed {shed:.0}"
        );
    }
}

fn main() {
    let mut positional: Vec<u64> = Vec::new();
    let mut spec_path: Option<String> = None;
    let mut crash_frac: Option<f64> = None;
    let mut crash_at: Option<f64> = None;
    let mut watch = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--adversity" => {
                spec_path = Some(args.next().expect("--adversity requires a spec.toml path"));
            }
            "--crash-frac" => {
                let v = args.next().expect("--crash-frac requires a fraction");
                crash_frac = Some(v.parse().expect("--crash-frac must be a number in [0, 1]"));
            }
            "--crash-at" => {
                let v = args.next().expect("--crash-at requires seconds");
                crash_at = Some(v.parse().expect("--crash-at must be a number of seconds"));
            }
            "--watch" => watch = true,
            other => positional.push(other.parse().unwrap_or_else(|_| {
                panic!(
                    "unexpected argument {other:?} (usage: live_udp [nodes] [seconds] \
                     [--adversity spec.toml] [--crash-frac f] [--crash-at secs] \
                     [--watch])"
                )
            })),
        }
    }
    let n = positional.first().map_or(12, |&v| v as usize);
    let secs = positional.get(1).copied().unwrap_or(6);
    assert!(n >= 2, "need a source and at least one receiver");

    // Adversity: a full spec file, or the catastrophic-crash shorthand.
    let mut adversity = match &spec_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            AdversitySpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{e}"))
        }
        None => AdversitySpec::none(),
    };
    if let Some(frac) = crash_frac {
        let at = crash_at.unwrap_or(secs as f64 / 2.0);
        adversity = adversity.with_catastrophic(Duration::from_secs_f64(at), frac);
    }

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
    let watch_stop = Arc::new(AtomicBool::new(false));
    let watcher = watch.then(|| {
        println!("  telemetry: scrape http://127.0.0.1:{WATCH_PORT}/metrics while this runs");
        let stop = Arc::clone(&watch_stop);
        std::thread::spawn(move || watch_loop(&stop))
    });
    let report = ReactorCluster::run(config).expect("cluster runs");
    watch_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = watcher {
        let _ = handle.join();
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
