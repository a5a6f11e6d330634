//! End-to-end deployment test: one TOML spec drives a 3-process local
//! cluster over real sockets and real child processes, the coordinator
//! hard-kills one worker mid-stream, and the merged result is
//! byte-verified through the same report assembly as the in-process
//! runtimes.
//!
//! One short real leg keeps what only a real deployment shows: windows
//! byte-verified after the cross-process report codec, merged shard
//! stats, a dark victim slice next to survivors that kept streaming. The
//! control plane's bookkeeping — who reported, node counts, dark
//! synthesis, the degraded flag, every phase deadline and the kill's — is
//! tested exactly on virtual time by the `coord` and `host` unit tests.

use std::path::PathBuf;

use gossip_deploy::{run_coordinator, CoordOptions};

const KILL: &str = r#"
[cluster]
n = 48
fanout = 6
period_ms = 100
rate_kbps = 200
payload_bytes = 500
data_packets = 10
parity_packets = 3
upload_cap_kbps = 0
stream_secs = 2
drain_secs = 1
seed = 11

[deploy]
processes = 3
shards_per_process = 1
sockets_per_shard = 2
start_delay_ms = 300
kill_process = 2
kill_at_secs = 1.0
"#;

/// Cross-host chaos: the coordinator hard-kills worker 2 mid-stream. The
/// merged report must byte-verify windows, carry every process's shard
/// stats, and show both sides of the event — the victims dark, the
/// survivors still streaming — and be marked degraded.
#[test]
fn killing_one_process_darkens_its_slice_and_spares_the_rest() {
    let aggregate = run_coordinator(&CoordOptions {
        config_text: KILL.to_string(),
        gossipd: Some(PathBuf::from(env!("CARGO_BIN_EXE_gossipd"))),
        spawn_local: true,
    })
    .expect("deployment runs");

    let report = &aggregate.report;
    assert_eq!(report.nodes.len(), 48, "dark victims are synthesised into the report");
    assert!(report.degraded, "a killed worker must mark the merged report degraded");
    assert!(report.windows_measured >= 3);
    assert!(
        report.windows_verified > 0,
        "merged reports must byte-verify through the real Reed-Solomon code"
    );
    assert!(!report.shard_stats.is_empty(), "per-process shard stats are merged in");

    let victim = &aggregate.outcomes[2];
    assert!(victim.killed && !victim.reported, "worker 2 must die without reporting");
    let (lo, hi) = victim.slice;
    let dark = aggregate.completeness_of(lo, hi);
    assert!(dark <= 0.05, "victim slice should be dark, got {:.1}%", 100.0 * dark);
    let dark_victims = report
        .nodes
        .iter()
        .filter(|n| {
            let g = n.id.as_u32();
            g >= lo && g < hi && n.player.packets_received() == 0
        })
        .count();
    assert!(dark_victims > 0, "the kill must leave dark victims in the merged report");

    for survivor in &aggregate.outcomes[..2] {
        assert!(survivor.reported, "worker {} must survive", survivor.index);
        let (lo, hi) = survivor.slice;
        let completeness = aggregate.completeness_of(lo, hi);
        assert!(
            completeness >= 0.70,
            "surviving worker {} completeness {:.1}% below 70%",
            survivor.index,
            100.0 * completeness
        );
    }
    // The nodes nobody killed stream as an undisturbed deployment does.
    let spared = aggregate.completeness_of(0, lo);
    assert!(spared >= 0.90, "survivors' completeness {:.1}% below 90%", 100.0 * spared);
}
