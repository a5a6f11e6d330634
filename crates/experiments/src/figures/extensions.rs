//! Extension experiments beyond the paper's evaluation.
//!
//! The paper's concluding remarks and assumptions suggest several follow-up
//! questions; each grid here answers one with the same simulated
//! deployment and metrics:
//!
//! * [`membership`] — does the headline result survive replacing the
//!   full-membership assumption (Algorithm 1, line 26) with a realistic
//!   Cyclon peer sampling service?
//! * [`heterogeneous`] — the paper studies *uniform* caps; what happens
//!   with a mixed population (half 500 kbps, half 900 kbps — same mean as
//!   700 kbps)?
//! * [`scaling`] — does the `ln n + c` fanout rule track the system
//!   size (the theory the paper tests at a single n = 230)?
//! * [`period`] — sensitivity to the 200 ms gossip period the paper
//!   fixes.
//! * [`churn_timeline`] — the paper states (but does not plot) that
//!   missing windows concentrate "in a time frame of 5 s to 10 s around the
//!   churn event"; this experiment produces that timeline.
//! * [`ablations`] — what each design choice buys: one knob at a time
//!   (propose lifetime, retransmission budget `K`, FEC parity, throttling
//!   queue depth, serve batch) moved off its default.
//! * [`large_n`] — does the narrow optimal-fanout window survive beyond
//!   the paper's scale? Figure 1's sweep at n ∈ {500, 1000}.

use gossip_adversity::{AdversitySpec, BandwidthClass};
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_membership::CyclonConfig;
use gossip_types::Duration;

use crate::figures::churn::catastrophic_spec;
use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{
    quality, row, viewing_columns, Column, Figure, Grid, GridFn, COMPLETE_20S, LAG_20S, VIEW_20S,
};
use crate::harness::RunResult;
use crate::scenario::{MembershipMode, Scale, Scenario};

/// The extensions `repro ext` runs, in order (the slow or off-axis
/// [`scaling`], [`ablations`] and [`large_n`] are separate targets).
pub const GRIDS: &[GridFn] = &[membership, heterogeneous, period, churn_timeline];

/// Full membership vs Cyclon partial views of several sizes.
pub fn membership(scale: Scale, seed: u64) -> Grid {
    let fanout = experiment_fanout(scale);
    let cell = |mode| Scenario::at_scale(scale, fanout).with_seed(seed).with_membership(mode);
    let mut rows = vec![row("full", vec![cell(MembershipMode::Full)])];
    for view_size in [8usize, 16, 32] {
        let config = CyclonConfig { view_size, shuffle_size: (view_size / 2).max(1) };
        let mode = MembershipMode::Cyclon {
            config,
            shuffle_period: Duration::from_secs(1),
            bootstrap_degree: (view_size / 2).max(2),
        };
        rows.push(row(format!("cyclon_{view_size}"), vec![cell(mode)]));
    }
    Grid::new(
        &["membership"],
        rows,
        quality,
        Figure {
            id: "ext_membership",
            title: "full membership vs Cyclon peer sampling".to_string(),
            columns: viewing_columns(),
            notes: vec![
                format!("fanout = {fanout}; shuffle every 1 s"),
                "expected: views >= 2*fanout reproduce the full-membership result".to_string(),
            ],
        },
    )
}

/// Heterogeneous capacity classes with the same mean as the uniform cap.
pub fn heterogeneous(scale: Scale, seed: u64) -> Grid {
    let fanout = experiment_fanout(scale);
    // Means chosen to match the scale's uniform cap (700 kbps at full/quick
    // scale, 600 kbps at tiny).
    let base = if scale == Scale::Tiny { 600u64 } else { 700 };
    let spreads: Vec<(&str, Vec<(f64, u64)>)> = vec![
        ("uniform", vec![(1.0, base * 1000)]),
        ("mild_split", vec![(0.5, (base - 100) * 1000), (0.5, (base + 100) * 1000)]),
        ("strong_split", vec![(0.5, (base - 200) * 1000), (0.5, (base + 200) * 1000)]),
        ("one_third_weak", vec![(0.34, (base / 2) * 1000), (0.66, (base + base / 4) * 1000)]),
    ];
    let cell = |classes: Vec<(f64, u64)>| {
        Scenario::at_scale(scale, fanout).with_seed(seed).with_adversity(capped_classes(&classes))
    };
    Grid::new(
        &["caps"],
        spreads.into_iter().map(|(label, classes)| row(label, vec![cell(classes)])).collect(),
        quality,
        Figure {
            id: "ext_heterogeneous",
            title: "heterogeneous upload caps at constant mean capacity".to_string(),
            columns: viewing_columns(),
            notes: vec![
                "expected: mild splits tolerated (fast nodes absorb load), strong splits degrade"
                    .to_string(),
            ],
        },
    )
}

/// The spec of capacity classes `(fraction, bps)`, every class capped.
fn capped_classes(classes: &[(f64, u64)]) -> AdversitySpec {
    AdversitySpec::none().with_bandwidth_classes(
        classes
            .iter()
            .map(|&(fraction, bps)| BandwidthClass { fraction, cap_bps: Some(bps) })
            .collect(),
    )
}

/// A paper deployment (700 kbps caps, 600 kbps stream) of `n` nodes at
/// `fanout`, on a shortened stream.
fn sized(n: usize, fanout: usize, seed: u64, stream: Duration, drain: Duration) -> Scenario {
    let mut scenario = Scenario::at_scale(Scale::Quick, fanout).with_seed(seed);
    scenario.n = n;
    scenario.stream_duration = stream;
    scenario.drain_duration = drain;
    scenario
}

/// Fanout `ln n + c` across system sizes: n = 30, 60, 120, 230 at full
/// scale, scaled with the scale's population (rounded, at least 10 nodes,
/// repeats dropped), on the scale's stream cut to quick scale's 45 + 25 s.
pub fn scaling(scale: Scale, seed: u64) -> Grid {
    let full = Scale::Full.nodes();
    let mut sizes: Vec<usize> = [30, 60, 120, 230]
        .iter()
        .map(|n| ((n * scale.nodes() + full / 2) / full).max(10))
        .collect();
    sizes.dedup();
    // Keep runtime bounded: a shorter stream than the full experiment.
    let stream = scale.stream_duration().min(Scale::Quick.stream_duration());
    let drain = scale.drain_duration().min(Scale::Quick.drain_duration());
    let cell = |n| {
        let fanout = GossipConfig::theoretical_fanout(n, 2.0);
        (vec![n.to_string(), fanout.to_string()], vec![sized(n, fanout, seed, stream, drain)])
    };
    Grid::new(
        &["n", "fanout"],
        sizes.into_iter().map(cell).collect(),
        quality,
        Figure {
            id: "ext_scaling",
            title: "ln(n)+2 fanout across system sizes (600 kbps stream, 700 kbps caps)"
                .to_string(),
            columns: Column::each(&["offline", "20s_lag"]),
            notes: vec![
                "expected: the theoretical fanout stays in the good region at every n".to_string()
            ],
        },
    )
}

/// Gossip period sensitivity at the optimal fanout.
pub fn period(scale: Scale, seed: u64) -> Grid {
    let fanout = experiment_fanout(scale);
    let cell = |ms| {
        let gossip = GossipConfig::new(fanout).with_gossip_period(Duration::from_millis(ms));
        Scenario::at_scale(scale, fanout).with_seed(seed).with_gossip(gossip)
    };
    Grid::new(
        &["period_ms"],
        [100u64, 200, 400, 800].into_iter().map(|ms| row(ms, vec![cell(ms)])).collect(),
        quality,
        Figure {
            id: "ext_period",
            title: "gossip period sensitivity (paper fixes 200 ms)".to_string(),
            columns: viewing_columns(),
            notes: vec![
                "shorter periods cut dissemination latency but raise header overhead".to_string()
            ],
        },
    )
}

/// Per window, the % of survivors that complete it within 20 s.
pub fn window_completeness(_: &Scenario, result: &RunResult) -> Vec<f64> {
    let nodes = result.quality.nodes();
    let windows = nodes.first().map_or(0, |n| n.window_count());
    (0..windows)
        .map(|w| {
            let complete =
                nodes.iter().filter(|n| n.window_lags()[w].is_some_and(|l| l <= LAG_20S)).count();
            100.0 * complete as f64 / nodes.len() as f64
        })
        .collect()
}

/// A timeline row's labels: the window's index and its publication time
/// relative to the crash at the stream midpoint, both read from the run's
/// own scenario.
fn window_labels(scenario: &Scenario, w: usize) -> Vec<String> {
    let wd = scenario.stream.window_duration();
    let crash_window = ((scenario.stream_duration / 2).as_micros() / wd.as_micros()) as i64;
    let first_window = i64::from(scenario.measure_from_window);
    let t_rel = (w as i64 + first_window - crash_window) as f64 * wd.as_secs_f64();
    vec![w.to_string(), format!("{t_rel:.1}")]
}

/// Per-window completeness timeline around a catastrophic failure: a
/// series grid of one run.
pub fn churn_timeline(scale: Scale, seed: u64) -> Grid {
    let scenario = Scenario::at_scale(scale, experiment_fanout(scale)).with_seed(seed);
    Grid {
        labels: vec!["window", "t_rel_crash_s"],
        rows: vec![(Vec::new(), vec![scenario.with_adversity(catastrophic_spec(scale, 20))])],
        measure: window_completeness,
        series: Some(window_labels),
        figures: vec![Figure {
            id: "ext_churn_timeline",
            title: "per-window completeness around a 20% catastrophic failure".to_string(),
            columns: vec![Column::new("avg_complete_pct", 0, 0)],
            notes: vec!["paper (section 4.3): losses concentrate within 5-10 s around the crash"
                .to_string()],
        }],
    }
}

/// The design-choice ablations: each row moves one knob off its default and
/// reports the run's average quality and % viewing at a 20 s lag.
pub fn ablations(scale: Scale, seed: u64) -> Grid {
    let fanout = experiment_fanout(scale);
    let base = Scenario::at_scale(scale, fanout).with_seed(seed);
    let gossip = |config: GossipConfig| base.clone().with_gossip(config);
    let mut rows: Vec<(Vec<String>, Vec<Scenario>)> = Vec::new();
    let mut knob = |knob: &str, value: String, scenario| {
        rows.push((vec![knob.to_string(), value], vec![scenario]));
    };
    // Infect-and-die (propose once) vs re-proposing for several rounds.
    for lifetime in [1u32, 2, 4] {
        let config = GossipConfig::new(fanout).with_propose_lifetime(lifetime);
        knob("propose_lifetime", lifetime.to_string(), gossip(config));
    }
    // Retransmission budget K (1 disables retransmission entirely).
    for k in [1u32, 2, 3] {
        knob("K", k.to_string(), gossip(GossipConfig::new(fanout).with_max_requests(k)));
    }
    // FEC parity count r at the scale's window data size.
    for r in [0usize, 2, 4, 8] {
        let mut scenario = base.clone();
        scenario.stream.window = WindowParams::new(scenario.stream.window.data_packets, r);
        knob("fec_parity", r.to_string(), scenario);
    }
    // Throttling-queue depth: shallow queues drop bursts, deep queues delay
    // them.
    for secs in [1u64, 5, 25] {
        let scenario = base.clone().with_max_queue_delay(Duration::from_secs(secs));
        knob("queue_depth", format!("{secs}s"), scenario);
    }
    // Serve batching: MTU-realistic single-event serves vs large batches
    // (one lost datagram costs a whole batch).
    for batch in [1usize, 4, 16] {
        let config = GossipConfig::new(fanout).with_serve_batch(batch);
        knob("serve_batch", batch.to_string(), gossip(config));
    }
    Grid::new(
        &["knob", "value"],
        rows,
        quality,
        Figure {
            id: "ext_ablations",
            title: "design-choice ablations, one knob at a time".to_string(),
            columns: vec![
                Column::new("avg_quality_20s", 0, COMPLETE_20S),
                Column::new("pct_viewing_20s", 0, VIEW_20S),
            ],
            notes: vec![format!("fanout = {fanout}; every other knob at its default")],
        },
    )
}

/// The system sizes of [`large_n`].
pub const LARGE_NS: [usize; 2] = [500, 1000];

/// Figure 1's sweep beyond the paper's n = 230 (at every `--scale`): for
/// n ∈ [`LARGE_NS`], fanouts 2 … ⌈ln n⌉ + 4 — deep sub-threshold through
/// the plateau — on a 30 s stream (≈ 20 windows) plus a 15 s drain.
///
/// The epidemic threshold argument says the optimum should track `ln n`:
/// below it dissemination stalls, a couple above it the stream is
/// complete, far above it the 700 kbps upload caps saturate under
/// PROPOSE/REQUEST overhead and quality collapses again.
pub fn large_n(_: Scale, seed: u64) -> Grid {
    let mut rows = Vec::new();
    for n in LARGE_NS {
        let ln_n = (n as f64).ln().ceil() as usize;
        for fanout in 2..=ln_n + 4 {
            rows.push((
                vec![n.to_string(), fanout.to_string()],
                vec![sized(n, fanout, seed, Duration::from_secs(30), Duration::from_secs(15))],
            ));
        }
    }
    Grid::new(
        &["n", "fanout"],
        rows,
        quality,
        Figure {
            id: "ext_large_n",
            title: "% nodes viewing with <1% jitter vs fanout at n = 500, 1000 (700 kbps caps)"
                .to_string(),
            columns: Column::each(&["offline", "20s_lag"]),
            notes: vec![
                "30 s stream + 15 s drain; fanouts 2 … ceil(ln n) + 4".to_string(),
                "expected: the smallest fanout reaching 99% sits within 2 of ceil(ln n)"
                    .to_string(),
            ],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::execute_once;

    #[test]
    fn cyclon_membership_supports_the_stream() {
        let fanout = experiment_fanout(Scale::Tiny);
        let result = Scenario::tiny(fanout)
            .with_seed(5)
            .with_membership(MembershipMode::Cyclon {
                config: CyclonConfig { view_size: 12, shuffle_size: 5 },
                shuffle_period: Duration::from_secs(1),
                bootstrap_degree: 6,
            })
            .run();
        let avg = result.quality.average_quality_percent(Duration::MAX);
        assert!(avg > 85.0, "streaming over Cyclon views should work: {avg}%");
    }

    #[test]
    fn heterogeneous_caps_assign_all_nodes() {
        let result = Scenario::tiny(5)
            .with_seed(6)
            .with_adversity(capped_classes(&[(0.5, 400_000), (0.5, 800_000)]))
            .run();
        // Uploads must never exceed the *largest* class cap.
        for &kbps in &result.upload_kbps {
            assert!(kbps <= 800.0 * 1.02, "upload {kbps} exceeds the largest class");
        }
        // At least one node must be pinned near/below the small class.
        assert!(result.upload_kbps.iter().any(|&k| k <= 410.0));
    }

    #[test]
    fn churn_timeline_has_a_dip_near_the_crash() {
        let fig = &execute_once(churn_timeline, Scale::Tiny, 3).render()[0];
        assert!(fig.table.len() > 5, "timeline should cover the stream");
    }

    /// The optimal-fanout trend at n = 500 and 1000 (the `ext-large-n`
    /// target at seed 42):
    ///
    /// 1. deep sub-threshold (fanout 2) must stall — most nodes never see a
    ///    complete stream;
    /// 2. fanout `⌈ln n⌉ + 2` must deliver a near-perfect stream (≥ 99 %);
    /// 3. the *threshold fanout* — the smallest reaching ≥ 99 % — must sit
    ///    within ±2 of `⌈ln n⌉`, i.e. the optimum keeps tracking `ln n` as
    ///    n grows past the paper's scale.
    #[test]
    #[ignore = "20 runs of 500–1000 nodes; run with --release -- --ignored"]
    fn optimal_fanout_tracks_ln_n_beyond_the_papers_scale() {
        let fig = execute_once(large_n, Scale::Full, 42);
        let offline = fig.column("offline");
        let all_rows = fig.rows();
        for n in LARGE_NS {
            let ln_n = (n as f64).ln().ceil() as usize;
            let rows: Vec<(usize, f64)> = all_rows
                .iter()
                .zip(&offline)
                .filter(|((labels, _), _)| labels[0] == n.to_string())
                .map(|((labels, _), &offline)| (labels[1].parse().expect("a fanout"), offline))
                .collect();
            let at = |f: usize| rows.iter().find(|r| r.0 == f).map(|r| r.1);
            let stalled = at(2).unwrap_or(0.0);
            let above = at(ln_n + 2).unwrap_or(0.0);
            let threshold = rows
                .iter()
                .find(|r| r.1 >= 99.0)
                .map(|r| r.0)
                .expect("some fanout in the sweep must reach 99%");
            assert!(
                stalled < 50.0,
                "n={n}: fanout 2 reached {stalled:.1}% — sub-threshold gossip should stall"
            );
            assert!(
                above >= 99.0,
                "n={n}: fanout ln n + 2 only reached {above:.1}% — \
                 dissemination is failing at this scale"
            );
            assert!(
                threshold.abs_diff(ln_n) <= 2,
                "n={n}: threshold fanout {threshold} strayed from ln n = {ln_n} — \
                 the optimal-fanout trend broke at this scale"
            );
        }
    }
}
