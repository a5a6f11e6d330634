//! Acceptance tests for the live telemetry layer:
//!
//! * telemetry must be a pure *observer* of the simulator — a telemetered
//!   run is bit-identical to a silent run, and two same-seeded telemetered
//!   runs publish identical counter totals;
//! * the reactor's scrape endpoint must answer **mid-run** with parseable
//!   Prometheus text whose counters advance between scrapes, and a fault
//!   storm in the same run must be visible in the snapshot series *before*
//!   the run ends — the whole point of live telemetry over post-hoc
//!   reports.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use gossip_adversity::{AdversitySpec, ChaosSpec};
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::{NodeHost, ReactorOptions};
use gossip_stream::StreamConfig;
use gossip_telemetry::{in_family, Registry, TelemetryConfig, TelemetrySeries};
use gossip_types::Duration;
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::ClusterConfig;

/// Sums one labelled family over a scrape's samples.
fn family_sum(samples: &[(String, f64)], family: &str) -> f64 {
    samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| v).sum()
}

/// Sums one labelled family inside snapshot `index` of a series.
fn snapshot_family_sum(series: &TelemetrySeries, index: usize, family: &str) -> f64 {
    series
        .names
        .iter()
        .zip(&series.snapshots[index].values)
        .filter(|(n, _)| in_family(n, family))
        .map(|(_, &v)| v)
        .sum()
}

#[test]
fn telemetered_sim_runs_are_deterministic() {
    let scenario = gossip_experiments::Scenario::tiny(5).with_seed(7);

    let silent = scenario.run();

    let registry_a = Registry::new();
    let run_a = scenario.run_with_telemetry(&registry_a);
    let registry_b = Registry::new();
    let run_b = scenario.run_with_telemetry(&registry_b);

    // Publication only *reads* the deployment: the telemetered run must be
    // the silent run, event for event.
    assert_eq!(run_a.events_processed, silent.events_processed, "telemetry must not perturb");
    assert_eq!(run_b.events_processed, silent.events_processed, "telemetry must not perturb");

    // And the published totals themselves are part of the deterministic
    // output: same seed, same cells, same values.
    assert_eq!(registry_a.snapshot_names(), registry_b.snapshot_names());
    assert_eq!(registry_a.snapshot_values(), registry_b.snapshot_values());

    let names = registry_a.snapshot_names();
    let values = registry_a.snapshot_values();
    let events = names
        .iter()
        .zip(&values)
        .find(|(n, _)| n.starts_with("sim_events_processed_total"))
        .map(|(_, &v)| v)
        .expect("the sim publishes its event counter");
    // The run publishes at every simulated second, the last time at the
    // horizon, once every event of the run has been dispatched.
    assert_eq!(events, silent.events_processed as f64, "the last publication is the run's total");
}

/// One real-socket run carries both live checks: the scrape endpoint
/// answers mid-run with counters that advance, and an ENOBUFS burst across
/// 1.0–1.4 s (the chaos plan of the recovery acceptance test) shows in the
/// 100 ms snapshot series before the run ends.
#[test]
fn reactor_endpoint_answers_mid_run_and_counters_advance() {
    let config = ClusterConfig {
        n: 16,
        gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(100)),
        stream: StreamConfig {
            rate_bps: 200_000,
            packet_payload_bytes: 500,
            window: WindowParams::new(20, 4),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(2),
        drain_duration: Duration::from_secs(1),
        seed: 42,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity: AdversitySpec::none().with_chaos(ChaosSpec {
            enobufs_at: Some(Duration::from_millis(1000)),
            enobufs_for: Duration::from_millis(400),
            ..ChaosSpec::default()
        }),
        joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
        telemetry: Some(TelemetryConfig {
            sample_period: std::time::Duration::from_millis(100),
            ..TelemetryConfig::default()
        }),
    };
    let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);
    let host = NodeHost::bind(config, &ReactorOptions::default(), None).expect("host binds");
    let scrape_addr = host.telemetry_addr().expect("telemetry is on");
    let addresses: Arc<Vec<std::net::SocketAddr>> =
        Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let runner =
        std::thread::spawn(move || host.run(addresses, ClusterClock::start(), stop, run_for));

    std::thread::sleep(std::time::Duration::from_millis(800));
    let first = gossip_telemetry::scrape(scrape_addr).expect("first mid-run scrape answers");
    std::thread::sleep(std::time::Duration::from_millis(800));
    let second = gossip_telemetry::scrape(scrape_addr).expect("second mid-run scrape answers");

    let outcome = runner.join().expect("runner thread").expect("run completes");
    assert_eq!(outcome.aborted_shards, 0);
    let backoffs: u64 = outcome.shard_stats.iter().map(|s| s.send_backoffs).sum();
    assert!(backoffs > 0, "the burst must drive backoffs");

    assert!(!first.is_empty(), "the exposition must parse into samples");
    let recv_family = "gossip_shard_datagrams_received_total";
    let first_recv = family_sum(&first, recv_family);
    let second_recv = family_sum(&second, recv_family);
    assert!(first_recv > 0.0, "datagrams must already be counted mid-run");
    assert!(
        second_recv > first_recv,
        "counters must advance between mid-run scrapes ({first_recv} then {second_recv})"
    );

    let series = outcome.telemetry.expect("the outcome carries the series");
    assert!(series.snapshots.len() >= 5, "the sampler must have kept ring snapshots");
    assert!(series.final_total(recv_family) >= second_recv, "the series ends past the scrapes");
    let family = "gossip_shard_send_backoffs_total";
    let first_visible = (0..series.snapshots.len())
        .find(|&i| snapshot_family_sum(&series, i, family) > 0.0)
        .expect("the backoff counter must appear in the snapshot series");
    assert!(
        first_visible + 1 < series.snapshots.len(),
        "the storm must be visible before the final snapshot ({} of {})",
        first_visible,
        series.snapshots.len()
    );
}
