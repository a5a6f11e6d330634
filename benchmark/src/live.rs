//! The live workloads: the reactor runtime on loopback, driven through
//! `NodeHost::bind` / `NodeHost::run` and read back through
//! `assemble_report` — all public, all timed from outside.

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use gossip::reactor::{NodeHost, ReactorCluster};
use gossip::stream::StreamPlayer;
use gossip::telemetry::TelemetrySeries;
use gossip::types::Duration;
use gossip::udp::clock::ClusterClock;
use gossip::udp::cluster::assemble_report;
use gossip::udp::report::NodeReport;

use crate::json::Json;
use crate::lags;
use crate::outcome::{Counts, Samples};
use crate::procstat::cpu_seconds;
use crate::stats;
use crate::workloads::{live_warmup, LivePlan};

/// The shard loop's phases in loop order, with the per-layer row of each.
pub const PHASES: [(&str, &str); 4] = [
    ("timers", "reactor.phase_timers_share"),
    ("ingress", "reactor.phase_ingress_share"),
    ("flush", "reactor.phase_flush_share"),
    ("park", "reactor.phase_park_share"),
];

/// One full set-up pass: a small warm-up cluster run to completion, then
/// the workload's own `NodeHost::bind`. Returns the bound host and the
/// wall time of the bind alone in ms.
pub fn set_up(plan: &LivePlan) -> Result<(NodeHost, f64), String> {
    let warm = live_warmup(plan.config.seed);
    ReactorCluster::run_with(warm.config, warm.options)
        .map_err(|e| format!("warm-up cluster failed: {e}"))?;
    let start = Instant::now();
    let host = NodeHost::bind(plan.config.clone(), &plan.options, None)
        .map_err(|e| format!("NodeHost::bind failed: {e}"))?;
    Ok((host, start.elapsed().as_secs_f64() * 1e3))
}

/// The measured half of a live workload.
pub struct LiveMeasured {
    pub e2e: Samples,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed: the run's results cannot be trusted.
    pub failures: Vec<String>,
    /// The workload's service rule (lag limit, quality floor) tripped: the
    /// outputs are right, the box did not deliver the service. Reported,
    /// and visible in the lag and quality metrics; not counted as failed
    /// operations, which depend on the outputs alone.
    pub rule_trips: Vec<String>,
    pub cpu_us_per_datagram: Option<f64>,
    /// Share of shard-loop wall time per phase (telemetered runs only).
    pub phase_shares: Option<[f64; 4]>,
    pub detail: Json,
}

/// Sums one phase's `gossip_shard_phase_seconds_sum` over the shards in
/// the final snapshot of a telemetry series.
fn phase_seconds(series: &TelemetrySeries, phase: &str) -> f64 {
    let Some(last) = series.snapshots.last() else { return 0.0 };
    let needle = format!("phase=\"{phase}\"");
    series
        .names
        .iter()
        .zip(&last.values)
        .filter(|(n, _)| n.starts_with("gossip_shard_phase_seconds_sum{") && n.contains(&needle))
        .map(|(_, &v)| v)
        .sum()
}

/// `NodeReport` is not `Clone` (its player caches a cursor); a snapshot
/// round trip copies everything `assemble_report` reads.
fn clone_reports(nodes: &[NodeReport]) -> Vec<NodeReport> {
    nodes
        .iter()
        .map(|n| NodeReport {
            id: n.id,
            protocol: n.protocol,
            player: StreamPlayer::restore(*n.player.config(), n.player.snapshot()),
            sent_bytes: n.sent_bytes,
            sent_msgs: n.sent_msgs,
            shaper_drops: n.shaper_drops,
            recv_msgs: n.recv_msgs,
            decode_errors: n.decode_errors,
        })
        .collect()
}

/// Runs a bound host for stream + drain, assembles the report and derives
/// everything but `setup_s` and `peak_rss_mb`.
pub fn measure(plan: &LivePlan, host: NodeHost) -> Result<LiveMeasured, String> {
    let config = &plan.config;
    let addresses: Arc<Vec<SocketAddr>> =
        Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
    let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);

    // CPU is taken across `NodeHost::run` only: the shards are the only
    // busy threads in the process while the main thread sleeps in there.
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let outcome = host
        .run(addresses, ClusterClock::start(), Arc::new(AtomicBool::new(false)), run_for)
        .map_err(|e| format!("NodeHost::run failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds().zip(cpu0).map(|(after, before)| after - before);

    // `assemble_report` consumes the node reports; repeats (for a cheap
    // report) run on copies of what the previous call handed back.
    let mut nodes = Some(outcome.nodes);
    let mut assembled = None;
    let report_walls = stats::time_repeated(|| {
        let input = nodes.take().expect("refilled after every call");
        let report = assemble_report(config, input);
        nodes = Some(clone_reports(&report.nodes));
        assembled = Some(report);
    });
    let report_s = stats::best(&report_walls, true).unwrap_or(0.0);
    let mut report = assembled.expect("time_repeated calls at least once");
    report.shard_stats = outcome.shard_stats;
    let io = report.io_stats().unwrap_or_default();

    let lags = lags::summarise(report.quality.nodes());
    let attempted = lags.attempted;
    let decodable = lags.pooled_ms.len() as u64;
    let datagrams: u64 = report.nodes.iter().map(|n| n.recv_msgs).sum();
    let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
    let quality = report.quality.average_quality_percent(Duration::MAX);
    let p99 = lags.p99_ms;

    let per_datagram = |scale: f64| cpu_s.map(|c| c * scale / datagrams.max(1) as f64);
    let mut e2e = Samples::default();
    e2e.set("events_per_sec", Some(datagrams as f64 / wall_s), 1);
    e2e.set("cpu_ns_per_event", per_datagram(1e9), 1);
    e2e.set("cpu_us_per_datagram", per_datagram(1e6), 1);
    e2e.set("window_lag_p50_ms", lags.p50_ms, decodable);
    e2e.set("window_lag_p99_ms", p99, decodable);
    e2e.set("quality_pct", Some(quality), report.quality.nodes().len() as u64);

    // The service rule: a trip is reported beside the results.
    let mut rule_trips = Vec::new();
    if p99.is_some_and(|p| p > plan.lag_p99_limit_ms) {
        rule_trips.push(format!(
            "window_lag_p99_ms {:.0} exceeds the limit of {:.0} ms",
            p99.unwrap_or(f64::INFINITY),
            plan.lag_p99_limit_ms
        ));
    }
    if quality < 90.0 {
        rule_trips.push(format!("quality {quality:.1}% below 90%"));
    }
    let mut failures = Vec::new();
    if attempted == 0 || decodable == 0 {
        failures.push("no receiver-window was measured and decoded (run too short)".to_string());
    }
    if decode_errors > 0 {
        failures.push(format!("{decode_errors} datagrams failed to decode on loopback"));
    }
    if io.frame_errors > 0 {
        failures.push(format!("{} kernel datagrams had broken framing", io.frame_errors));
    }
    if outcome.aborted_shards > 0 {
        failures.push(format!("{} shards aborted mid-run", outcome.aborted_shards));
    }
    if report.windows_verified < decodable {
        failures.push(format!(
            "only {} of {decodable} windows counted decodable were byte-verified",
            report.windows_verified
        ));
    }
    // An operation fails when its output is wrong: a window counted
    // decodable whose bytes did not verify. A window that never became
    // decodable is lost quality (`quality_pct`), which depends on the
    // box's timing and so differs between two runs of the same code.
    let failed = if failures.is_empty() {
        decodable.saturating_sub(report.windows_verified)
    } else {
        attempted
    };

    let mut counts = Counts {
        units: datagrams,
        msgs_sent: report.nodes.iter().map(|n| n.sent_msgs).sum(),
        bytes_sent: report.nodes.iter().map(|n| n.sent_bytes).sum(),
        msgs_dropped: report.nodes.iter().map(|n| n.shaper_drops).sum(),
        msgs_received: datagrams,
        packets_published: (config.stream_duration.as_secs_f64()
            * config.stream.packets_per_second()) as u64,
        windows_verified: report.windows_verified,
        shard: Some(io),
        report_s,
        wall_s,
        ..Counts::default()
    };
    counts.msgs_lost = counts.msgs_sent.saturating_sub(datagrams);
    for node in &report.nodes {
        counts.protocol.merge(&node.protocol);
    }

    let phase_shares = outcome.telemetry.as_ref().and_then(|series| {
        let secs = PHASES.map(|(phase, _)| phase_seconds(series, phase));
        let total: f64 = secs.iter().sum();
        (total > 0.0).then(|| secs.map(|s| s / total))
    });

    let detail = Json::obj([
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::num_or_null(cpu_s)),
        ("datagrams_received", Json::Num(datagrams as f64)),
        ("datagrams_sent", Json::Num(counts.msgs_sent as f64)),
        ("receiver_windows", Json::Num(attempted as f64)),
        ("decodable", Json::Num(decodable as f64)),
        ("pooled_lag_tail", lags.pooled_tail_json()),
        ("report_s", Json::Num(report_s)),
        ("report_passes", Json::Num(report_walls.len() as f64)),
        ("windows_verified", Json::Num(report.windows_verified as f64)),
        ("windows_measured_per_node", Json::Num(f64::from(report.windows_measured))),
        ("mmsg", Json::Bool(gossip::reactor::mmsg_active())),
        ("shards", Json::Num(report.shard_stats.len() as f64)),
    ]);
    Ok(LiveMeasured {
        e2e,
        counts,
        attempted,
        failed,
        failures,
        rule_trips,
        cpu_us_per_datagram: per_datagram(1e6),
        phase_shares,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip::telemetry::TelemetrySnapshot;

    #[test]
    fn phase_seconds_sums_the_named_phase_across_shards() {
        let name = |shard: u32, phase: &str| {
            format!("gossip_shard_phase_seconds_sum{{shard=\"{shard}\",phase=\"{phase}\"}}")
        };
        let series = TelemetrySeries {
            names: vec![name(0, "park"), name(1, "park"), name(0, "timers"), "other".to_string()],
            snapshots: vec![
                TelemetrySnapshot { at_unix_millis: 0, values: vec![0.0; 4] },
                TelemetrySnapshot { at_unix_millis: 250, values: vec![1.5, 2.5, 0.25, 9.0] },
            ],
        };
        assert_eq!(phase_seconds(&series, "park"), 4.0);
        assert_eq!(phase_seconds(&series, "timers"), 0.25);
        assert_eq!(phase_seconds(&series, "flush"), 0.0);
    }
}
