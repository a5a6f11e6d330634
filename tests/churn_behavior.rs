//! Integration tests for behaviour under catastrophic churn (the paper's
//! Figures 7 and 8).

use gossip_adversity::{AdversitySpec, FaultAction};
use gossip_core::GossipConfig;
use gossip_experiments::figures::churn::catastrophic_spec;
use gossip_experiments::figures::churn_percentages;
use gossip_experiments::{Scale, Scenario};
use gossip_types::{Duration, Time};

fn churned(fanout: usize, x: Option<u32>, pct: f64, seed: u64) -> gossip_experiments::RunResult {
    let scenario = Scenario::tiny(fanout).with_seed(seed);
    let crash = AdversitySpec::none().with_catastrophic(scenario.stream_duration / 2, pct);
    scenario
        .with_gossip(GossipConfig::new(fanout).with_refresh_rounds(x))
        .with_adversity(crash)
        .run()
}

/// A fully dynamic view keeps delivering most of the stream through heavy
/// churn — Figure 8's headline.
#[test]
fn x1_survives_heavy_churn() {
    for pct in [0.2, 0.5] {
        let result = churned(6, Some(1), pct, 11);
        let avg = result.quality.average_quality_percent(Duration::from_secs(20));
        assert!(avg > 70.0, "X=1 at {:.0}% churn: avg quality {avg}%", pct * 100.0);
    }
}

/// Averaged over seeds, the dynamic view (X=1) beats the static mesh
/// (X=∞) under churn. Single runs are noisy at 20 nodes — the paper itself
/// reports wild variability for static meshes — so this compares means.
#[test]
fn x1_beats_static_mesh_on_average() {
    let seeds = [3u64, 11, 23, 31];
    let mean = |x: Option<u32>| {
        seeds
            .iter()
            .map(|&s| {
                churned(6, x, 0.35, s).quality.average_quality_percent(Duration::from_secs(20))
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let dynamic = mean(Some(1));
    let static_mesh = mean(None);
    assert!(
        dynamic + 2.0 >= static_mesh,
        "X=1 mean ({dynamic:.1}%) should not trail X=inf mean ({static_mesh:.1}%)"
    );
}

/// Victims stop consuming *and* serving: the survivors' reports exclude
/// them entirely.
#[test]
fn victims_disappear_from_reports() {
    let scenario = Scenario::tiny(6).with_seed(13);
    let n = scenario.n;
    let crash = AdversitySpec::none().with_catastrophic(Duration::from_secs(5), 0.3);
    let victims = crash.compile(n, 13).timeline.dead_at(Time::MAX).len();
    assert!(victims > 0);
    let result = scenario.with_adversity(crash).run();
    assert_eq!(result.quality.nodes().len(), n - 1 - victims);
    assert_eq!(result.upload_kbps.len(), n - 1 - victims);
}

/// Churn at the very start (before any dissemination) still lets the
/// survivors view the stream.
#[test]
fn early_churn_is_survivable() {
    let scenario = Scenario::tiny(6).with_seed(17);
    let crash = AdversitySpec::none().with_catastrophic(Duration::from_millis(100), 0.25);
    let result = scenario.with_adversity(crash).run();
    let avg = result.quality.average_quality_percent(Duration::MAX);
    assert!(avg > 80.0, "early churn should not doom the survivors: {avg}%");
}

/// 80% simultaneous failure degrades but does not zero the stream for
/// survivors with a dynamic view (Figure 8's rightmost point).
#[test]
fn extreme_churn_degrades_gracefully() {
    let result = churned(6, Some(1), 0.8, 19);
    let avg = result.quality.average_quality_percent(Duration::from_secs(20));
    assert!(avg > 30.0, "X=1 at 80% churn should still deliver something: {avg}%");
    let baseline = churned(6, Some(1), 0.0, 19);
    assert!(
        baseline.quality.average_quality_percent(Duration::from_secs(20)) >= avg,
        "churn cannot improve quality"
    );
}

/// The victims Figures 7/8 and `ext-churn-timeline` crash, as the spec
/// compiler draws them, pinned for seeds 1–3 × every churn percentage ×
/// tiny and full scale: a change to how victims are drawn moves no
/// figure's input unnoticed.
#[test]
fn churn_victims_are_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut crashes = 0;
    for scale in [Scale::Tiny, Scale::Full] {
        for seed in 1..=3u64 {
            // Figures 7 and 8 crash each percentage, `ext-churn-timeline`
            // crashes 20 %.
            for pct in churn_percentages().into_iter().chain([20]) {
                let compiled = catastrophic_spec(scale, pct).compile(scale.nodes(), seed);
                let events = compiled.timeline.events();
                mix(events.len() as u64);
                crashes += usize::from(!events.is_empty());
                for event in events {
                    let FaultAction::Crash(victim) = event.action else {
                        panic!("a catastrophic spec only crashes: {event:?}");
                    };
                    mix(event.at.as_micros());
                    mix(u64::from(victim.as_u32()));
                }
            }
        }
    }
    assert_eq!(crashes, 2 * 3 * (6 + 1), "six non-zero percentages and the timeline's crash");
    assert_eq!(digest, 0x4D57_561E_EB6C_B695, "victim digest moved");
}
