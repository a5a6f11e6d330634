//! The simulator workloads: `Scenario::run` timed from outside, its
//! `RunResult` read for every count, and the decodability claims of the
//! measured windows re-checked through the real Reed–Solomon code.

use std::time::Instant;

use gossip::experiments::{MembershipMode, RunResult, Scenario};
use gossip::fec::{WindowDecoder, WindowEncoder};
use gossip::stream::source::synth_payload;
use gossip::stream::{PacketId, StreamConfig};
use gossip::types::Duration;

use crate::json::Json;
use crate::lags::{self, LagSummary};
use crate::outcome::{Counts, Samples};
use crate::procstat::cpu_seconds;
use crate::stats;
use crate::workloads::SimPlan;

/// One timed `Scenario::run`.
pub struct SimRun {
    pub seed: u64,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub result: RunResult,
}

/// Runs `scenario` once, timing wall and process CPU around the call. With
/// a registry the run goes through `run_with_telemetry` instead.
pub fn timed_run(scenario: &Scenario, registry: Option<&gossip::telemetry::Registry>) -> SimRun {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let result = match registry {
        Some(r) => scenario.run_with_telemetry(r),
        None => scenario.run(),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds().zip(cpu0).map(|(after, before)| after - before);
    SimRun { seed: scenario.seed, wall_s, cpu_s, result }
}

/// One set-up pass: the warm-up run on the plan's deployment. Returns the
/// warm-up's result when it ran at full length (the determinism oracle).
pub fn set_up(plan: &SimPlan) -> Option<RunResult> {
    if plan.full_warmup {
        return Some(plan.base.run());
    }
    // A short run of the same deployment: construction, first allocations
    // and one published window, without paying for a second full run.
    let mut warm = plan.base.clone();
    warm.stream_duration = warm.stream.window_duration() + Duration::from_millis(200);
    warm.drain_duration = Duration::ZERO;
    warm.measure_from_window = 0;
    let _ = warm.run();
    None
}

/// Every simulated statistic two runs of one seed must agree on.
pub fn same_simulation(a: &RunResult, b: &RunResult) -> Result<(), String> {
    let lags = |r: &RunResult| -> Vec<Vec<Option<Duration>>> {
        r.quality.nodes().iter().map(|n| n.window_lags().to_vec()).collect()
    };
    let checks: [(&str, bool); 8] = [
        ("events", a.events_processed == b.events_processed),
        ("peak_queue", a.peak_queue == b.peak_queue),
        ("protocol counters", a.protocol == b.protocol),
        ("network counters", a.net == b.net),
        ("windows_measured", a.windows_measured == b.windows_measured),
        ("upload rates", a.upload_kbps == b.upload_kbps),
        ("source upload rate", a.source_upload_kbps == b.source_upload_kbps),
        ("window lags", lags(a) == lags(b)),
    ];
    match checks.iter().find(|(_, same)| !same) {
        None => Ok(()),
        Some((what, _)) => Err(format!("two runs of one seed differ in {what}")),
    }
}

/// Re-derives window `w` from the source generator, erases the first `r`
/// data packets, reconstructs through the real code and compares bytes:
/// the check behind "a window with k of k+r packets counts as decodable".
pub fn window_survives_erasures(stream: &StreamConfig, w: u32) -> bool {
    let params = stream.window;
    let data: Vec<Vec<u8>> = (0..params.data_packets)
        .map(|i| synth_payload(PacketId::new(w, i as u16), stream.packet_payload_bytes).to_vec())
        .collect();
    let Ok(encoder) = WindowEncoder::new(params) else { return false };
    let Ok(parity) = encoder.encode(&data) else { return false };
    let Ok(mut decoder) = WindowDecoder::new(params) else { return false };
    let erased = params.fec_packets.min(params.data_packets);
    for (index, shard) in data.iter().chain(&parity).enumerate().skip(erased) {
        decoder.receive(index, shard.clone());
    }
    decoder.reconstruct().is_ok_and(|decoded| decoded == data)
}

/// The post-run verification of one simulated run.
pub struct Verified {
    pub lags: LagSummary,
    pub windows_checked: u64,
    pub windows_bad: u64,
    pub wall_s: f64,
}

pub fn verify(scenario: &Scenario, result: &RunResult) -> Verified {
    let start = Instant::now();
    let first = scenario.measure_from_window;
    let last = scenario.last_measured_window();
    let lags = lags::summarise(result.quality.nodes());
    let windows_bad =
        (first..=last).filter(|&w| !window_survives_erasures(&scenario.stream, w)).count() as u64;
    Verified {
        lags,
        windows_checked: u64::from(last - first + 1),
        windows_bad,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The measured half of a simulator workload: timed runs, verification,
/// end-to-end values and counts.
pub struct SimMeasured {
    pub e2e: Samples,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub cpu_ns_per_event: Option<f64>,
    pub first: RunResult,
    pub detail: Json,
}

/// Runs the plan's timed seeds (through the registry when given) and
/// derives everything but `setup_s` and `peak_rss_mb`.
pub fn measure(plan: &SimPlan, registry: Option<&gossip::telemetry::Registry>) -> SimMeasured {
    let mut runs = Vec::with_capacity(plan.timed_runs);
    let mut verified = Vec::with_capacity(plan.timed_runs);
    for i in 0..plan.timed_runs {
        let scenario = plan.base.clone().with_seed(plan.base.seed + i as u64);
        let run = timed_run(&scenario, registry);
        eprintln!(
            "  seed {}: {:.3} s wall, {} events, peak queue {}",
            run.seed, run.wall_s, run.result.events_processed, run.result.peak_queue
        );
        verified.push(verify(&scenario, &run.result));
        runs.push(run);
    }

    // Simulated figures are exact per seed: the median over the seeds is
    // reported. Wall and CPU figures carry the box's one-sided noise: the
    // best of the timed runs is.
    let per_run = |f: &dyn Fn(&SimRun, &Verified) -> Option<f64>| -> Option<Vec<f64>> {
        runs.iter().zip(&verified).map(|(r, v)| f(r, v)).collect()
    };
    let median = |f: &dyn Fn(&SimRun, &Verified) -> Option<f64>| stats::median(&per_run(f)?);
    let lowest = |f: &dyn Fn(&SimRun, &Verified) -> Option<f64>| stats::best(&per_run(f)?, true);
    let n = runs.len() as u64;
    let mut e2e = Samples::default();
    let rates = per_run(&|r, _| Some(r.result.events_processed as f64 / r.wall_s));
    e2e.set("events_per_sec", rates.and_then(|v| stats::best(&v, false)), n);
    let cpu_ns_per_event = lowest(&|r, _| Some(r.cpu_s? * 1e9 / r.result.events_processed as f64));
    e2e.set("cpu_ns_per_event", cpu_ns_per_event, n);
    e2e.set(
        "cpu_us_per_datagram",
        lowest(&|r, _| Some(r.cpu_s? * 1e6 / r.result.net.msgs_received.max(1) as f64)),
        n,
    );
    let lag_samples: u64 = verified.iter().map(|v| v.lags.pooled_ms.len() as u64).sum();
    e2e.set("window_lag_p50_ms", median(&|_, v| v.lags.p50_ms), lag_samples);
    e2e.set("window_lag_p99_ms", median(&|_, v| v.lags.p99_ms), lag_samples);
    let quality = median(&|r, _| Some(r.result.quality.average_quality_percent(Duration::MAX)));
    e2e.set("quality_pct", quality, n);

    let mut failures = Vec::new();
    let attempted: u64 = verified.iter().map(|v| v.lags.attempted).sum();
    let bad: u64 = verified.iter().map(|v| v.windows_bad).sum();
    if bad > 0 {
        failures.push(format!("{bad} measured windows did not survive a real RS reconstruction"));
    }
    if attempted == 0 {
        failures.push("no receiver-window was measured (run too short)".to_string());
    }
    if quality.is_some_and(|q| q < plan.min_quality_pct) {
        failures.push(format!(
            "quality {:.1}% below the workload's floor of {:.0}%",
            quality.unwrap_or(0.0),
            plan.min_quality_pct
        ));
    }
    // An operation fails when its output is wrong; a window that never
    // became decodable is lost quality (`quality_pct`), as on the live
    // workloads. Every output check here covers the whole run.
    let failed = if failures.is_empty() { 0 } else { attempted };

    // Counts are summed over the timed runs, like the CPU they explain.
    let mut counts = Counts::default();
    for run in &runs {
        let r = &run.result;
        counts.events += r.events_processed;
        counts.peak_queue = counts.peak_queue.max(r.peak_queue as u64);
        counts.msgs_sent += r.net.msgs_sent;
        counts.bytes_sent += r.net.bytes_sent;
        counts.msgs_dropped += r.net.msgs_dropped;
        counts.msgs_received += r.net.msgs_received;
        counts.msgs_lost += r.net.msgs_lost_in_network;
        counts.protocol.merge(&r.protocol);
        counts.wall_s += run.wall_s;
    }
    counts.units = counts.events;
    let stream_secs = plan.base.stream_duration.as_secs_f64();
    counts.packets_published =
        (stream_secs * plan.base.stream.packets_per_second()) as u64 * runs.len() as u64;
    if let MembershipMode::Cyclon { shuffle_period, .. } = &plan.base.membership {
        let rounds = plan.base.total_duration().as_secs_f64() / shuffle_period.as_secs_f64();
        counts.shuffle_rounds = (rounds * plan.base.n as f64) as u64 * runs.len() as u64;
    }
    counts.timeline_events =
        plan.base.adversity.compile(plan.base.n, plan.base.seed).timeline.len() as u64;
    counts.windows_verified = verified.iter().map(|v| v.windows_checked - v.windows_bad).sum();

    let detail = Json::Arr(
        runs.iter()
            .zip(&verified)
            .map(|(r, v)| {
                Json::obj([
                    ("seed", Json::Num(r.seed as f64)),
                    ("wall_s", Json::Num(r.wall_s)),
                    ("cpu_s", Json::num_or_null(r.cpu_s)),
                    ("events", Json::Num(r.result.events_processed as f64)),
                    ("peak_queue", Json::Num(r.result.peak_queue as f64)),
                    ("receiver_windows", Json::Num(v.lags.attempted as f64)),
                    ("decodable", Json::Num(v.lags.pooled_ms.len() as f64)),
                    ("pooled_lag_tail", v.lags.pooled_tail_json()),
                    ("verify_s", Json::Num(v.wall_s)),
                ])
            })
            .collect(),
    );
    let first = runs.swap_remove(0).result;
    SimMeasured { e2e, counts, attempted, failed, failures, cpu_ns_per_event, first, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{sim_paper, sim_scale, Sizing};

    #[test]
    fn erasure_check_accepts_real_windows_for_both_geometries() {
        assert!(window_survives_erasures(&StreamConfig::paper_default(), 3));
        assert!(window_survives_erasures(&StreamConfig::test_small(), 0));
    }

    #[test]
    fn same_seed_runs_agree_and_different_seeds_do_not() {
        let plan = sim_paper(Sizing { seed: 5, scale: 1.0, quick: true });
        let a = plan.base.run();
        let b = plan.base.run();
        assert_eq!(same_simulation(&a, &b), Ok(()));
        let c = plan.base.clone().with_seed(6).run();
        assert!(same_simulation(&a, &c).is_err());
    }

    #[test]
    fn short_warmup_runs_without_a_measured_window() {
        let plan = sim_scale(Sizing { seed: 2, scale: 1.0, quick: true });
        assert!(set_up(&plan).is_none());
    }
}
