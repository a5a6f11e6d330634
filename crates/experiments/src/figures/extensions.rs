//! Extension experiments beyond the paper's evaluation.
//!
//! The paper's concluding remarks and assumptions suggest several follow-up
//! questions; each function here answers one with the same simulated
//! deployment and metrics:
//!
//! * [`run_membership`] — does the headline result survive replacing the
//!   full-membership assumption (Algorithm 1, line 26) with a realistic
//!   Cyclon peer sampling service?
//! * [`run_heterogeneous`] — the paper studies *uniform* caps; what happens
//!   with a mixed population (half 500 kbps, half 900 kbps — same mean as
//!   700 kbps)?
//! * [`run_scaling`] — does the `ln n + c` fanout rule track the system
//!   size (the theory the paper tests at a single n = 230)?
//! * [`run_period`] — sensitivity to the 200 ms gossip period the paper
//!   fixes.
//! * [`run_churn_timeline`] — the paper states (but does not plot) that
//!   missing windows concentrate "in a time frame of 5 s to 10 s around the
//!   churn event"; this experiment produces that timeline.
//! * [`run_ablations`] — what each design choice buys: one knob at a time
//!   (propose lifetime, retransmission budget `K`, FEC parity, throttling
//!   queue depth, serve batch) moved off its default.

use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_membership::CyclonConfig;
use gossip_metrics::Table;
use gossip_sim::DetRng;
use gossip_types::{Duration, NodeId};

use crate::churn::catastrophic_crash;
use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{FigureOutput, LAG_10S, LAG_20S, MAX_JITTER, OFFLINE};
use crate::harness::SweepRunner;
use crate::scenario::{MembershipMode, Scale, Scenario};

/// Full membership vs Cyclon partial views of several sizes.
pub fn run_membership(scale: Scale, seed: u64) -> FigureOutput {
    let fanout = experiment_fanout(scale);
    let mut params: Vec<(String, MembershipMode)> =
        vec![("full".to_string(), MembershipMode::Full)];
    for view_size in [8usize, 16, 32] {
        let config = CyclonConfig { view_size, shuffle_size: (view_size / 2).max(1) };
        params.push((
            format!("cyclon_{view_size}"),
            MembershipMode::Cyclon {
                config,
                shuffle_period: Duration::from_secs(1),
                bootstrap_degree: (view_size / 2).max(2),
            },
        ));
    }
    let rows = SweepRunner::new().run(params, |(label, mode)| {
        let result =
            Scenario::at_scale(scale, fanout).with_seed(seed).with_membership(mode.clone()).run();
        (
            label.clone(),
            [
                result.quality.percent_viewing(MAX_JITTER, OFFLINE),
                result.quality.percent_viewing(MAX_JITTER, LAG_20S),
                result.quality.percent_viewing(MAX_JITTER, LAG_10S),
            ],
        )
    });
    let mut table = Table::new(vec!["membership", "offline", "20s_lag", "10s_lag"]);
    for (label, values) in rows {
        table.row_f64(label, &values);
    }
    FigureOutput {
        id: "ext_membership",
        title: "full membership vs Cyclon peer sampling".to_string(),
        table,
        notes: vec![
            format!("fanout = {fanout}; shuffle every 1 s"),
            "expected: views >= 2*fanout reproduce the full-membership result".to_string(),
        ],
    }
}

/// Heterogeneous capacity classes with the same mean as the uniform cap.
pub fn run_heterogeneous(scale: Scale, seed: u64) -> FigureOutput {
    let fanout = experiment_fanout(scale);
    // Means chosen to match the scale's uniform cap (700 kbps at full/quick
    // scale, 600 kbps at tiny).
    let base = if scale == Scale::Tiny { 600u64 } else { 700 };
    let spreads: Vec<(String, Vec<(f64, u64)>)> = vec![
        ("uniform".to_string(), vec![(1.0, base * 1000)]),
        ("mild_split".to_string(), vec![(0.5, (base - 100) * 1000), (0.5, (base + 100) * 1000)]),
        ("strong_split".to_string(), vec![(0.5, (base - 200) * 1000), (0.5, (base + 200) * 1000)]),
        (
            "one_third_weak".to_string(),
            vec![(0.34, (base / 2) * 1000), (0.66, (base + base / 4) * 1000)],
        ),
    ];
    let rows = SweepRunner::new().run(spreads, |(label, classes)| {
        let result = Scenario::at_scale(scale, fanout)
            .with_seed(seed)
            .with_cap_classes(classes.clone())
            .run();
        (
            label.clone(),
            [
                result.quality.percent_viewing(MAX_JITTER, OFFLINE),
                result.quality.percent_viewing(MAX_JITTER, LAG_20S),
                result.quality.percent_viewing(MAX_JITTER, LAG_10S),
            ],
        )
    });
    let mut table = Table::new(vec!["caps", "offline", "20s_lag", "10s_lag"]);
    for (label, values) in rows {
        table.row_f64(label, &values);
    }
    FigureOutput {
        id: "ext_heterogeneous",
        title: "heterogeneous upload caps at constant mean capacity".to_string(),
        table,
        notes: vec![
            "expected: mild splits tolerated (fast nodes absorb load), strong splits degrade"
                .to_string(),
        ],
    }
}

/// Fanout `ln n + c` across system sizes.
pub fn run_scaling(seed: u64) -> FigureOutput {
    let rows = SweepRunner::new().run(vec![30usize, 60, 120, 230], |&n| {
        let fanout = GossipConfig::theoretical_fanout(n, 2.0);
        let mut scenario = Scenario::at_scale(Scale::Quick, fanout).with_seed(seed);
        scenario.n = n;
        // Keep runtime bounded: a shorter stream than the full experiment.
        scenario.stream_duration = Duration::from_secs(45);
        scenario.drain_duration = Duration::from_secs(25);
        let result = scenario.run();
        vec![
            n.to_string(),
            fanout.to_string(),
            format!("{:.1}", result.quality.percent_viewing(MAX_JITTER, OFFLINE)),
            format!("{:.1}", result.quality.percent_viewing(MAX_JITTER, LAG_20S)),
        ]
    });
    let mut table = Table::new(vec!["n", "fanout", "offline", "20s_lag"]);
    for cells in rows {
        table.row(cells);
    }
    FigureOutput {
        id: "ext_scaling",
        title: "ln(n)+2 fanout across system sizes (600 kbps stream, 700 kbps caps)".to_string(),
        table,
        notes: vec![
            "expected: the theoretical fanout stays in the good region at every n".to_string()
        ],
    }
}

/// Gossip period sensitivity at the optimal fanout.
pub fn run_period(scale: Scale, seed: u64) -> FigureOutput {
    let fanout = experiment_fanout(scale);
    let rows = SweepRunner::new().run(vec![100u64, 200, 400, 800], |&ms| {
        let gossip = GossipConfig::new(fanout).with_gossip_period(Duration::from_millis(ms));
        let result = Scenario::at_scale(scale, fanout).with_seed(seed).with_gossip(gossip).run();
        (
            ms,
            [
                result.quality.percent_viewing(MAX_JITTER, OFFLINE),
                result.quality.percent_viewing(MAX_JITTER, LAG_20S),
                result.quality.percent_viewing(MAX_JITTER, LAG_10S),
            ],
        )
    });
    let mut table = Table::new(vec!["period_ms", "offline", "20s_lag", "10s_lag"]);
    for (ms, values) in rows {
        table.row_f64(ms.to_string(), &values);
    }
    FigureOutput {
        id: "ext_period",
        title: "gossip period sensitivity (paper fixes 200 ms)".to_string(),
        table,
        notes: vec![
            "shorter periods cut dissemination latency but raise header overhead".to_string()
        ],
    }
}

/// Per-window completeness timeline around a catastrophic failure.
pub fn run_churn_timeline(scale: Scale, seed: u64) -> FigureOutput {
    let fanout = experiment_fanout(scale);
    let scenario = Scenario::at_scale(scale, fanout).with_seed(seed);
    let crash_at = scenario.stream_duration / 2;
    let mut rng = DetRng::seed_from(seed).split(0xC0FFEE);
    let crash = catastrophic_crash(crash_at, scenario.n, 0.2, &[NodeId::new(0)], &mut rng);
    let result = scenario.with_adversity(crash).run();

    // Average completeness per window index across survivors, at 20 s lag.
    let nodes = result.quality.nodes();
    let windows = nodes.first().map_or(0, |n| n.window_count());
    let wd = Scenario::at_scale(scale, fanout).stream.window_duration();
    let crash_window = (crash_at.as_micros() / wd.as_micros()) as usize;
    let mut table = Table::new(vec!["window", "t_rel_crash_s", "avg_complete_pct"]);
    for w in 0..windows {
        let complete =
            nodes.iter().filter(|n| n.window_lags()[w].is_some_and(|l| l <= LAG_20S)).count();
        let pct = 100.0 * complete as f64 / nodes.len() as f64;
        let first_window = 2i64; // measure_from_window default
        let t_rel = (w as i64 + first_window - crash_window as i64) as f64 * wd.as_secs_f64();
        table.row(vec![w.to_string(), format!("{t_rel:.1}"), format!("{pct:.1}")]);
    }
    FigureOutput {
        id: "ext_churn_timeline",
        title: "per-window completeness around a 20% catastrophic failure".to_string(),
        table,
        notes: vec![
            "paper (section 4.3): losses concentrate within 5-10 s around the crash".to_string()
        ],
    }
}

/// The design-choice ablations: each row moves one knob off its default and
/// reports the run's average quality and % viewing at a 20 s lag.
pub fn run_ablations(scale: Scale, seed: u64) -> FigureOutput {
    let fanout = experiment_fanout(scale);
    let base = Scenario::at_scale(scale, fanout).with_seed(seed);
    let gossip = |config: GossipConfig| base.clone().with_gossip(config);
    let mut params: Vec<(&str, String, Scenario)> = Vec::new();
    // Infect-and-die (propose once) vs re-proposing for several rounds.
    for lifetime in [1u32, 2, 4] {
        let config = GossipConfig::new(fanout).with_propose_lifetime(lifetime);
        params.push(("propose_lifetime", lifetime.to_string(), gossip(config)));
    }
    // Retransmission budget K (1 disables retransmission entirely).
    for k in [1u32, 2, 3] {
        params.push(("K", k.to_string(), gossip(GossipConfig::new(fanout).with_max_requests(k))));
    }
    // FEC parity count r at the scale's window data size.
    for r in [0usize, 2, 4, 8] {
        let mut scenario = base.clone();
        scenario.stream.window = WindowParams::new(scenario.stream.window.data_packets, r);
        params.push(("fec_parity", r.to_string(), scenario));
    }
    // Throttling-queue depth: shallow queues drop bursts, deep queues delay
    // them.
    for secs in [1u64, 5, 25] {
        let scenario = base.clone().with_max_queue_delay(Duration::from_secs(secs));
        params.push(("queue_depth", format!("{secs}s"), scenario));
    }
    // Serve batching: MTU-realistic single-event serves vs large batches
    // (one lost datagram costs a whole batch).
    for batch in [1usize, 4, 16] {
        let config = GossipConfig::new(fanout).with_serve_batch(batch);
        params.push(("serve_batch", batch.to_string(), gossip(config)));
    }
    let rows = SweepRunner::new().run(params, |(knob, value, scenario)| {
        let result = scenario.run();
        vec![
            knob.to_string(),
            value.clone(),
            format!("{:.1}", result.quality.average_quality_percent(LAG_20S)),
            format!("{:.1}", result.quality.percent_viewing(MAX_JITTER, LAG_20S)),
        ]
    });
    let mut table = Table::new(vec!["knob", "value", "avg_quality_20s", "pct_viewing_20s"]);
    for cells in rows {
        table.row(cells);
    }
    FigureOutput {
        id: "ext_ablations",
        title: "design-choice ablations, one knob at a time".to_string(),
        table,
        notes: vec![format!("fanout = {fanout}; every other knob at its default")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            .with_cap_classes(vec![(0.5, 400_000), (0.5, 800_000)])
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
        let fig = run_churn_timeline(Scale::Tiny, 3);
        assert!(fig.table.len() > 5, "timeline should cover the stream");
    }
}
