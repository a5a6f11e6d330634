//! Runs one workload inside the current process: set-up, the timed
//! (untraced) runs, the output checks and — for a traced pass — the
//! telemetered re-run and the ledger loop.

use std::path::PathBuf;
use std::time::Instant;

use gossip::experiments::MembershipMode;
use gossip::membership::CyclonConfig;
use gossip::reactor::NodeHost;
use gossip::telemetry::{Registry, TelemetryConfig};

use crate::json::Json;
use crate::ledger::{self, Geometry};
use crate::live;
use crate::outcome::{Counts, Outcome, Samples};
use crate::procstat::peak_rss_mib;
use crate::sim;
use crate::spec::{Runtime, Workload, DESIGN_SECONDS};
use crate::stats;
use crate::workloads::{self, LivePlan, SimPlan, Sizing};

/// What to run and how.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: &'static Workload,
    pub seed: u64,
    /// The measurement budget; workload lengths scale with it.
    pub seconds: f64,
    /// Traced pass: untraced half + telemetered half + ledger loop.
    pub trace: bool,
    pub quick: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

impl RunOpts {
    /// The traced pass splits its budget between the untraced and the
    /// telemetered run, so a traced invocation costs what an untraced does.
    fn sizing(&self) -> Sizing {
        let budget = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Sizing { seed: self.seed, scale: budget / DESIGN_SECONDS, quick: self.quick }
    }
}

/// Runs the workload. `started` is when this process began: set-up time
/// counts from there.
pub fn run_workload(opts: &RunOpts, started: Instant) -> Outcome {
    let mut outcome = match opts.workload.runtime {
        Runtime::Sim => run_sim(opts, started),
        Runtime::Live => run_live(opts, started),
    };
    outcome.e2e.set("peak_rss_mb", peak_rss_mib(), 1);
    let missing = outcome.missing_metrics();
    if !missing.is_empty() {
        outcome.failures.push(format!("metrics missing from the output: {}", missing.join(", ")));
    }
    if !outcome.failures.is_empty() {
        outcome.failed = outcome.attempted;
    }
    outcome
}

fn blank(opts: &RunOpts) -> Outcome {
    Outcome {
        workload: opts.workload.name,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        traced: opts.trace,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        rule_trips: Vec::new(),
        e2e: Samples::default(),
        layers: Samples::default(),
        ledger: None,
        detail: Vec::new(),
    }
}

fn overhead_pct(traced: Option<f64>, untraced: Option<f64>) -> Option<f64> {
    let (t, u) = traced.zip(untraced)?;
    (u > 0.0).then(|| (t / u - 1.0) * 100.0)
}

/// What the two halves of a traced pass hand to the ledger.
struct TracedHalves<'a> {
    /// Counts of the untraced half.
    counts: &'a Counts,
    geometry: Geometry,
    /// Shard phase shares of the telemetered half (live only).
    phase_shares: Option<[f64; 4]>,
    /// Telemetered vs untraced CPU per unit, in percent.
    overhead_pct: Option<f64>,
    /// The untraced half's CPU ns per event / per datagram.
    measured_ns: Option<f64>,
    /// Median `NodeHost::bind` wall of the set-up passes (live only).
    bind_ms: f64,
}

/// Completes the per-layer set: counts, phase shares, the ledger pass's
/// timed rows and the two residuals.
fn fill_layers(opts: &RunOpts, outcome: &mut Outcome, halves: TracedHalves<'_>) {
    let runtime = opts.workload.runtime;
    halves.counts.fill(&mut outcome.layers);
    for ((_, row), share) in live::PHASES.iter().zip(halves.phase_shares.unwrap_or([0.0; 4])) {
        outcome.layers.set(row, Some(share), 1);
    }
    outcome.layers.set("telemetry.overhead_pct", Some(halves.overhead_pct.unwrap_or(0.0)), 1);
    outcome.layers.set("reactor.bind_ms", Some(halves.bind_ms), 1);

    let pass =
        ledger::run(&halves.geometry, opts.seed, opts.quick, &opts.out_dir, opts.workload.name);
    for s in &pass.timed.0 {
        outcome.layers.set(s.name, s.value, s.samples);
    }
    outcome.failures.extend(pass.failures);
    outcome.detail.push(("trace".to_string(), pass.detail));

    let built =
        ledger::build(runtime, halves.counts, &outcome.layers, halves.measured_ns.unwrap_or(0.0));
    // The workload's own runtime gets the residual; the other row reads 0.
    let (sim_residual, live_residual) = match runtime {
        Runtime::Sim => (built.residual_ns(), 0.0),
        Runtime::Live => (0.0, built.residual_ns() / 1e3),
    };
    outcome.layers.set("experiments.residual_ns_per_event", Some(sim_residual), 1);
    outcome.layers.set("reactor.residual_us_per_datagram", Some(live_residual), 1);
    outcome.ledger = Some(built);
}

fn sim_geometry(plan: &SimPlan, counts: &Counts) -> Geometry {
    // Under Cyclon a node selects partners from its partial view; a
    // workload without Cyclon still gets the Cyclon rows, at the size
    // `sim_scale` uses.
    let (cyclon, membership_len) = match &plan.base.membership {
        MembershipMode::Cyclon { config, .. } => (*config, config.view_size),
        MembershipMode::Full => (CyclonConfig { view_size: 32, shuffle_size: 16 }, plan.base.n),
    };
    Geometry {
        n: plan.base.n,
        membership_len,
        measured_windows: plan.base.last_measured_window(),
        gossip: plan.base.gossip.clone(),
        stream: plan.base.stream,
        upload_cap_bps: plan.base.upload_cap_bps,
        max_backlog: plan.base.max_queue_delay,
        cyclon,
        resident_events: counts.peak_queue as usize,
        event_mix: counts.event_mix(),
        adversity: plan.base.adversity.clone(),
        mean_datagram_bytes: counts.mean_datagram_bytes(),
    }
}

fn run_sim(opts: &RunOpts, started: Instant) -> Outcome {
    let mut outcome = blank(opts);
    let sizing = opts.sizing();
    let plan = match opts.workload.name {
        "sim_paper" => workloads::sim_paper(sizing),
        _ => workloads::sim_scale(sizing),
    };
    eprintln!(
        "{}: n={}, fanout {}, {} + {} simulated, {} timed run(s), one thread",
        opts.workload.name,
        plan.base.n,
        plan.base.gossip.fanout,
        plan.base.stream_duration,
        plan.base.drain_duration,
        plan.timed_runs
    );
    // A full-length warm-up is seconds of steady compute and runs once; the
    // short one runs three times and the fastest pass is reported.
    let passes = if plan.full_warmup || opts.quick { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(passes);
    let mut warm = None;
    for pass in 0..passes {
        let from = if pass == 0 { started } else { Instant::now() };
        warm = sim::set_up(&plan);
        setup_s.push(from.elapsed().as_secs_f64());
    }
    eprintln!("  set-up passes: {setup_s:.3?} s");
    outcome.e2e.set("setup_s", stats::best(&setup_s, true), setup_s.len() as u64);

    let measured = sim::measure(&plan, None);
    if let Some(warm) = &warm {
        if let Err(e) = sim::same_simulation(warm, &measured.first) {
            outcome.failures.push(format!("warm-up vs first timed run: {e}"));
        }
    }
    for s in &measured.e2e.0 {
        outcome.e2e.set(s.name, s.value, s.samples);
    }
    outcome.attempted = measured.attempted;
    outcome.failed = measured.failed;
    outcome.failures.extend(measured.failures.iter().cloned());
    outcome.detail.push(("timed_runs".to_string(), measured.detail.clone()));

    if opts.trace {
        eprintln!("{}: telemetered re-run (run_with_telemetry)", opts.workload.name);
        let registry = Registry::new();
        let telemetered = sim::measure(&plan, Some(&registry));
        if let Err(e) = sim::same_simulation(&measured.first, &telemetered.first) {
            outcome.failures.push(format!("telemetered vs silent run: {e}"));
        }
        let overhead = overhead_pct(telemetered.cpu_ns_per_event, measured.cpu_ns_per_event);
        outcome.detail.push(("telemetered_runs".to_string(), telemetered.detail));
        let halves = TracedHalves {
            counts: &measured.counts,
            geometry: sim_geometry(&plan, &measured.counts),
            phase_shares: None,
            overhead_pct: overhead,
            measured_ns: measured.cpu_ns_per_event,
            bind_ms: 0.0,
        };
        fill_layers(opts, &mut outcome, halves);
    }
    outcome
}

fn live_geometry(plan: &LivePlan, counts: &Counts) -> Geometry {
    Geometry {
        n: plan.config.n,
        membership_len: plan.config.n,
        measured_windows: plan.config.stream.windows_published(plan.config.stream_duration) as u32,
        gossip: plan.config.gossip.clone(),
        stream: plan.config.stream,
        upload_cap_bps: plan.config.upload_cap_bps,
        max_backlog: plan.config.max_backlog,
        cyclon: CyclonConfig { view_size: 32, shuffle_size: 16 },
        // No event queue on this runtime; the queue rows are sized for one
        // round timer plus two protocol timers per node.
        resident_events: plan.config.n * 3,
        event_mix: counts.event_mix(),
        adversity: plan.config.adversity.clone(),
        mean_datagram_bytes: counts.mean_datagram_bytes(),
    }
}

fn run_live(opts: &RunOpts, started: Instant) -> Outcome {
    let mut outcome = blank(opts);
    let sizing = opts.sizing();
    let plan = match opts.workload.name {
        "live_hot" => workloads::live_hot(sizing),
        _ => workloads::live_wide(sizing),
    };
    eprintln!(
        "{}: n={}, fanout {}, {} rounds, {} kbps, {} stream + {} drain, {} shards, loopback",
        opts.workload.name,
        plan.config.n,
        plan.config.gossip.fanout,
        plan.config.gossip.gossip_period,
        plan.config.stream.rate_bps / 1000,
        plan.config.stream_duration,
        plan.config.drain_duration,
        plan.options.shards.unwrap_or(0),
    );

    // Set-up runs several times and the fastest pass is reported (the
    // warm-up cluster sleeps through most of it, so the passes barely
    // differ); the first pass is timed from process start, the last pass's
    // host does the run.
    let passes = if opts.quick { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(passes);
    let mut bind_ms = Vec::with_capacity(passes);
    let mut host: Option<NodeHost> = None;
    for pass in 0..passes {
        let from = if pass == 0 { started } else { Instant::now() };
        drop(host.take());
        match live::set_up(&plan) {
            Ok((bound, ms)) => {
                host = Some(bound);
                bind_ms.push(ms);
                setup_s.push(from.elapsed().as_secs_f64());
            }
            Err(e) => {
                outcome.failures.push(e);
                return outcome;
            }
        }
    }
    outcome.e2e.set("setup_s", stats::best(&setup_s, true), setup_s.len() as u64);
    let host = host.expect("at least one set-up pass ran");

    let measured = match live::measure(&plan, host) {
        Ok(m) => m,
        Err(e) => {
            outcome.failures.push(e);
            return outcome;
        }
    };
    for s in &measured.e2e.0 {
        outcome.e2e.set(s.name, s.value, s.samples);
    }
    outcome.attempted = measured.attempted;
    outcome.failed = measured.failed;
    outcome.failures.extend(measured.failures.iter().cloned());
    outcome.rule_trips.extend(measured.rule_trips.iter().cloned());
    outcome.detail.push(("timed_run".to_string(), measured.detail.clone()));

    if opts.trace {
        eprintln!("{}: telemetered re-run (ClusterConfig::telemetry on)", opts.workload.name);
        let mut telemetered_plan = plan.clone();
        telemetered_plan.config.telemetry = Some(TelemetryConfig::default());
        let telemetered =
            NodeHost::bind(telemetered_plan.config.clone(), &telemetered_plan.options, None)
                .map_err(|e| format!("NodeHost::bind failed: {e}"))
                .and_then(|host| live::measure(&telemetered_plan, host));
        let (phase_shares, overhead) = match telemetered {
            Ok(t) => {
                outcome.detail.push(("telemetered_run".to_string(), t.detail));
                outcome
                    .failures
                    .extend(t.failures.into_iter().map(|f| format!("telemetered: {f}")));
                // A stall during the auxiliary half is noted, not held
                // against the workload's operations.
                let trips = t.rule_trips.iter().map(|f| Json::str(f.as_str())).collect();
                outcome.detail.push(("telemetered_rule_trips".to_string(), Json::Arr(trips)));
                (t.phase_shares, overhead_pct(t.cpu_us_per_datagram, measured.cpu_us_per_datagram))
            }
            Err(e) => {
                outcome.failures.push(format!("telemetered run: {e}"));
                (None, None)
            }
        };
        if phase_shares.is_none() {
            outcome.failures.push("the telemetered run recorded no phase histograms".to_string());
        }
        let halves = TracedHalves {
            counts: &measured.counts,
            geometry: live_geometry(&plan, &measured.counts),
            phase_shares,
            overhead_pct: overhead,
            measured_ns: measured.cpu_us_per_datagram.map(|us| us * 1e3),
            bind_ms: stats::median(&bind_ms).unwrap_or(0.0),
        };
        fill_layers(opts, &mut outcome, halves);
    }
    outcome
}

/// Extra report fields describing the box and the build.
pub fn environment() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("network".to_string(), Json::str("loopback only (127.0.0.1); no real link was crossed")),
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("simd".to_string(), Json::Bool(cfg!(feature = "simd"))),
        (
            "features".to_string(),
            Json::str(if cfg!(feature = "simd") { "simd" } else { "default (scalar GF(256))" }),
        ),
        ("commit".to_string(), Json::str(commit())),
    ]
}

/// The checkout's commit, when it is a git checkout and `git` exists.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};

    #[test]
    fn overhead_is_relative_to_the_untraced_figure() {
        assert_eq!(overhead_pct(Some(110.0), Some(100.0)), Some(10.000000000000009));
        assert_eq!(overhead_pct(None, Some(100.0)), None);
        assert_eq!(overhead_pct(Some(1.0), Some(0.0)), None);
    }

    /// The `--quick` path: every workload, traced, in-process — every code
    /// path and the JSON shape, in a few seconds.
    #[test]
    fn quick_traced_pass_reports_every_metric_on_every_workload() {
        let out_dir =
            std::env::temp_dir().join(format!("gossip-benchmark-test-{}", std::process::id()));
        for workload in &WORKLOADS {
            let opts = RunOpts {
                workload,
                seed: 7,
                seconds: DESIGN_SECONDS,
                trace: true,
                quick: true,
                out_dir: out_dir.clone(),
            };
            let outcome = run_workload(&opts, Instant::now());
            assert_eq!(outcome.missing_metrics(), Vec::<&str>::new());
            assert!(outcome.attempted >= 1, "{}: nothing attempted", workload.name);
            assert_eq!(outcome.e2e.0.len(), END_TO_END.len());
            assert_eq!(outcome.layers.0.len(), PER_LAYER.len());
            // Wall-clock health of a live miniature depends on the box (it
            // shows as service-rule trips); the output checks — codec round
            // trips, handler agreement, simulator determinism, byte
            // verification — must hold everywhere.
            assert_eq!(outcome.failures, Vec::<String>::new(), "{}", workload.name);
            assert!(outcome.correct());
            // Correct outputs mean no failed operation, whatever the box's
            // timing did to quality and lag.
            assert_eq!(outcome.failed, 0, "{}", workload.name);

            let json = outcome.to_json();
            let reparsed = Json::parse(&json.to_line()).expect("outcome JSON parses");
            assert_eq!(reparsed.get("workload").and_then(Json::as_str), Some(workload.name));
            for m in &END_TO_END {
                let entry = reparsed.get("end_to_end").and_then(|e| e.get(m.name)).expect(m.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(entry.get("samples").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
            }
            for m in &PER_LAYER {
                let entry = reparsed.get("per_layer").and_then(|e| e.get(m.name)).expect(m.name);
                assert!(entry.get("value").and_then(Json::as_f64).is_some(), "{} is null", m.name);
            }
            let ledger = reparsed.get("ledger").expect("a traced pass carries the ledger");
            assert!(ledger.get("rows").and_then(Json::as_arr).is_some_and(|r| !r.is_empty()));
            let trace_file = out_dir.join(format!("trace_{}.json", workload.name));
            let spans = std::fs::read_to_string(&trace_file).expect("span file written");
            assert!(Json::parse(&spans).is_ok(), "span file is valid JSON");
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
