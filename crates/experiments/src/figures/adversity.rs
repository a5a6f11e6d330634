//! The adversity matrix — stress scenarios beyond the paper's Figures 7–8,
//! all driven by one declarative [`AdversitySpec`].
//!
//! Six sweeps, each an independent experiment family (the paper's own
//! simultaneous crash is Figures 7/8's
//! [`catastrophic_spec`](crate::figures::churn::catastrophic_spec)):
//!
//! * **poisson** — continuous leave/rejoin churn at increasing departure
//!   rates (the paper only tests one-shot crashes; real swarms bleed and
//!   regrow constantly);
//! * **flash crowd** — waves of brand-new nodes joining mid-stream and
//!   catching up from nothing;
//! * **free riders** — growing fractions of nodes that request but never
//!   propose or serve, the classic selfishness question for gossip;
//! * **byzantine** — serve-corruptors poisoning payloads, swept against the
//!   validate-before-relay defenses (on vs off);
//! * **partition** — the network splits into cells mid-stream and heals,
//!   measuring quality through the split and re-convergence after;
//! * **throttle** — a share of the receivers drops to a third of its
//!   upload cap mid-stream and recovers.
//!
//! Each sweep is a [`Grid`] whose every `(knob, value)` cell is an
//! independent simulation. The same specs run unchanged on the live
//! runtimes (see the parity tests in `gossip-reactor`'s `runtime` module).

use gossip_adversity::{AdversitySpec, ByzantineMix};
use gossip_core::GossipConfig;
use gossip_types::Duration;

use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{row, Column, Figure, Grid, GridFn, LAG_20S, OFFLINE};
use crate::harness::RunResult;
use crate::scenario::{Scale, Scenario};

/// The whole matrix, in `repro adv` order.
pub const GRIDS: &[GridFn] = &[poisson, flash_crowd, free_riders, byzantine, partition, throttle];

/// Builds the scenario every adversity cell starts from: the experiment
/// fanout for the scale, `X = x` partner refresh, and the given spec.
fn base_scenario(scale: Scale, seed: u64, x: Option<u32>, spec: AdversitySpec) -> Scenario {
    let fanout = experiment_fanout(scale);
    Scenario::at_scale(scale, fanout)
        .with_seed(seed)
        .with_gossip(GossipConfig::new(fanout).with_refresh_rounds(x))
        .with_adversity(spec)
}

/// Departure rates swept by the Poisson-churn experiment, in mean
/// departures per second over the whole population.
pub const POISSON_RATES: [f64; 5] = [0.0, 0.2, 0.5, 1.0, 2.0];

/// The continuous-churn spec: departures at `leaves_per_sec` over the
/// whole stream, each node returning (with fresh state) after ~10 s away.
pub fn poisson_spec(scale: Scale, leaves_per_sec: f64) -> AdversitySpec {
    if leaves_per_sec <= 0.0 {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_poisson_churn(
        Duration::ZERO,
        scale.stream_duration(),
        leaves_per_sec,
        Some(Duration::from_secs(10)),
    )
}

/// Poisson leave/rejoin churn sweep: quality of the nodes that are up at
/// the end, as the departure rate grows.
pub fn poisson(scale: Scale, seed: u64) -> Grid {
    let cell = |rate| base_scenario(scale, seed, Some(1), poisson_spec(scale, rate));
    Grid::new(
        &["leaves_per_sec"],
        POISSON_RATES.into_iter().map(|rate| row(format!("{rate:.1}"), vec![cell(rate)])).collect(),
        |_, result| {
            vec![
                result.quality.average_quality_percent(OFFLINE),
                result.quality.average_quality_percent(LAG_20S),
                result.quality.nodes().len() as f64,
            ]
        },
        Figure {
            id: "adv-poisson",
            title: "quality under continuous leave/rejoin churn (X=1, 10 s mean downtime)"
                .to_string(),
            columns: Column::each(&["complete_off", "complete_20s", "nodes_up"]),
            notes: vec![
                "rejoining nodes restart with fresh protocol state; player history survives"
                    .to_string(),
            ],
        },
    )
}

/// Join-wave sizes swept by the flash-crowd experiment, as a percentage of
/// the base population.
pub const CROWD_PERCENTAGES: [u32; 3] = [10, 25, 50];

/// The flash-crowd spec: a wave of `pct`% × n brand-new nodes joining at
/// the stream midpoint, spread over two seconds.
pub fn flash_crowd_spec(scale: Scale, pct: u32) -> AdversitySpec {
    let count = (scale.nodes() * pct as usize).div_ceil(100);
    AdversitySpec::none().with_flash_crowd(
        scale.stream_duration() / 2,
        count,
        Duration::from_secs(2),
    )
}

/// Flash-crowd sweep: do mid-stream joiners catch up, and does the base
/// population even notice them?
pub fn flash_crowd(scale: Scale, seed: u64) -> Grid {
    let cell = |pct| base_scenario(scale, seed, Some(1), flash_crowd_spec(scale, pct));
    Grid::new(
        &["crowd_pct"],
        CROWD_PERCENTAGES.into_iter().map(|pct| row(pct, vec![cell(pct)])).collect(),
        |_, result| {
            let joiners = result.joiner_quality.as_ref().expect("the wave joined in time");
            vec![
                result.quality.average_quality_percent(OFFLINE),
                joiners.average_quality_percent(OFFLINE),
                joiners.average_quality_percent(LAG_20S),
                joiners.nodes().len() as f64,
            ]
        },
        Figure {
            id: "adv-flash-crowd",
            title: "mid-stream join wave: base quality and joiner catch-up (X=1)".to_string(),
            columns: Column::each(&["base_complete", "joiner_complete", "joiner_20s", "joiners"]),
            notes: vec![
                "joiners measured only over windows published after their arrival".to_string()
            ],
        },
    )
}

/// Free-rider fractions swept, in percent of the population.
pub const FREE_RIDER_PERCENTAGES: [u32; 4] = [0, 10, 25, 40];

/// Contributor and rider completeness (%) and the average upload (kbps) of
/// a free-rider run.
pub fn measure_free_riders(cfg: &Scenario, result: &RunResult) -> Vec<f64> {
    // No crashes in this sweep, so quality index i is node i + 1;
    // recompiling the spec (deterministic) recovers who free-rides.
    let compiled = cfg.adversity.compile(cfg.n, cfg.seed);
    let (mut rider, mut rider_n, mut contrib, mut contrib_n) = (0.0, 0u32, 0.0, 0u32);
    for (i, q) in result.quality.nodes().iter().enumerate() {
        let pct_complete = 100.0 * q.complete_fraction();
        if compiled.profiles[i + 1].free_rider {
            rider += pct_complete;
            rider_n += 1;
        } else {
            contrib += pct_complete;
            contrib_n += 1;
        }
    }
    let avg_upload = result.upload_kbps.iter().sum::<f64>() / result.upload_kbps.len() as f64;
    vec![
        if contrib_n > 0 { contrib / f64::from(contrib_n) } else { 0.0 },
        if rider_n > 0 { rider / f64::from(rider_n) } else { f64::NAN },
        avg_upload,
    ]
}

/// Free-rider sweep: contributors keep proposing and serving while a
/// growing fraction only takes. Reports both subpopulations' quality and
/// the contributors' upload bill.
pub fn free_riders(scale: Scale, seed: u64) -> Grid {
    let cell = |pct| {
        let spec = if pct == 0 {
            AdversitySpec::none()
        } else {
            AdversitySpec::none().with_free_riders(f64::from(pct) / 100.0)
        };
        base_scenario(scale, seed, Some(1), spec)
    };
    Grid::new(
        &["rider_pct"],
        FREE_RIDER_PERCENTAGES.into_iter().map(|pct| row(pct, vec![cell(pct)])).collect(),
        measure_free_riders,
        Figure {
            id: "adv-free-riders",
            title: "stream quality vs free-rider fraction (X=1)".to_string(),
            columns: Column::each(&["contributor_complete", "rider_complete", "avg_upload_kbps"]),
            notes: vec![
                "free-riders request and receive but never propose or serve".to_string(),
                "rider_complete is NaN at 0% (no riders to measure)".to_string(),
            ],
        },
    )
}

/// Byzantine fractions swept, in percent of the population.
pub const BYZANTINE_PERCENTAGES: [u32; 4] = [0, 10, 20, 30];

/// The serve-corruptor spec: `pct`% of the receivers flip payload bytes in
/// every Serve they send while keeping the stale checksum.
pub fn byzantine_spec(pct: u32) -> AdversitySpec {
    if pct == 0 {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_byzantine(f64::from(pct) / 100.0, ByzantineMix::serve_corruptors())
}

/// The gossip config of the Byzantine cells: `X = 1` plus the defense
/// toggle. The tight propose horizon also catches garbled propose ids
/// (`gossip_stream::byzantine::GARBLE_INDEX_BIT` sets bit 15, so any
/// horizon ≤ 0x8000 rejects them while honest tiny/full windows stay far
/// below it).
pub fn byzantine_gossip(scale: Scale, defended: bool) -> GossipConfig {
    let cfg = GossipConfig::new(experiment_fanout(scale)).with_refresh_rounds(Some(1));
    if defended {
        cfg.with_verify_payloads(true).with_propose_offset_horizon(0x100)
    } else {
        cfg.with_verify_payloads(false)
    }
}

/// The Byzantine cell: `pct`% serve-corruptors, defenses on or off.
pub fn byzantine_scenario(scale: Scale, seed: u64, pct: u32, defended: bool) -> Scenario {
    base_scenario(scale, seed, Some(1), byzantine_spec(pct))
        .with_gossip(byzantine_gossip(scale, defended))
}

/// Honest-receiver quality, then the defense counters: the average % of
/// windows honest receivers ever complete (offline) and complete within
/// 20 s; corrupted Serve events caught by the payload checksum; packets
/// re-requested from an alternate proposer after a corruption; peers
/// demoted out of partner selection for repeat misbehaviour.
pub fn measure_byzantine(cfg: &Scenario, result: &RunResult) -> Vec<f64> {
    // No crashes in this sweep, so quality index i is node i + 1;
    // recompiling the spec (deterministic) recovers who is Byzantine.
    let compiled = cfg.adversity.compile(cfg.n, cfg.seed);
    let (mut complete, mut within_20s, mut honest_n) = (0.0, 0.0, 0u32);
    for (i, q) in result.quality.nodes().iter().enumerate() {
        if compiled.profiles[i + 1].byzantine.is_none() {
            complete += 100.0 * q.complete_fraction();
            within_20s += 100.0 * q.quality_at_lag(LAG_20S);
            honest_n += 1;
        }
    }
    vec![
        complete / f64::from(honest_n.max(1)),
        within_20s / f64::from(honest_n.max(1)),
        result.protocol.corrupted_events_detected as f64,
        result.protocol.corrupt_rerequests as f64,
        result.protocol.peers_demoted as f64,
    ]
}

/// Byzantine sweep: serve-corruptor fraction × validate-before-relay on or
/// off. The defended column should track the fault-free baseline; the
/// undefended column shows what poisoned payloads do to honest receivers
/// when nothing checks them.
pub fn byzantine(scale: Scale, seed: u64) -> Grid {
    let (on, off) = (0, 1);
    Grid::new(
        &["byz_pct"],
        BYZANTINE_PERCENTAGES
            .into_iter()
            .map(|pct| {
                row(pct, [true, false].map(|d| byzantine_scenario(scale, seed, pct, d)).to_vec())
            })
            .collect(),
        measure_byzantine,
        Figure {
            id: "adv-byzantine",
            title: "honest-receiver quality vs serve-corruptor fraction, defenses on/off (X=1)"
                .to_string(),
            columns: vec![
                Column::new("honest_def_on", on, 0),
                Column::new("honest_def_off", off, 0),
                Column::new("honest20s_on", on, 1),
                Column::new("honest20s_off", off, 1),
                Column::new("detected", on, 2),
                Column::new("rerequests", on, 3),
                Column::new("demoted", on, 4),
            ],
            notes: vec![
                "corruptors flip payload bytes on every Serve but keep the stale checksum"
                    .to_string(),
                "defended: verify-payloads + re-request + demotion; undefended: checksum ignored"
                    .to_string(),
                "counters (detected/rerequests/demoted) are from the defended run".to_string(),
            ],
        },
    )
}

/// Cell counts swept by the partition experiment.
pub const PARTITION_CELLS: [usize; 2] = [2, 3];

/// When the partition splits: one third into the stream.
pub fn partition_split_at(scale: Scale) -> Duration {
    scale.stream_duration() / 3
}

/// When the partition heals: two thirds into the stream.
pub fn partition_heal_at(scale: Scale) -> Duration {
    scale.stream_duration() * 2 / 3
}

/// The partition spec: the network splits into `cells` cells at one third
/// of the stream and heals at two thirds (the source lands in cell 0).
pub fn partition_spec(scale: Scale, cells: usize) -> AdversitySpec {
    AdversitySpec::none().with_partition(partition_split_at(scale), partition_heal_at(scale), cells)
}

/// Per-phase viewing quality of one partitioned run, split by when each
/// window was published: before the split, during it, and after the heal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPhases {
    /// Average % of pre-split windows viewed within the phase lag.
    pub before_20s: f64,
    /// Average % of in-split windows viewed within the phase lag.
    pub during_20s: f64,
    /// Average % of post-heal windows viewed within the phase lag.
    pub after_20s: f64,
    /// Average % of windows ever completed (offline, whole stream).
    pub complete: f64,
    /// Seconds after the heal until a post-heal window is first viewed by
    /// ≥ 90 % of nodes within the phase lag (`None` = never re-converged).
    pub reconverge_s: Option<f64>,
}

/// Buckets a run's per-window lags by publication phase and measures the
/// re-convergence point after the heal, judging each window at `lag`
/// (the figures use [`LAG_20S`]; tests at tiny scale use tighter lags —
/// the whole tiny stream is shorter than 20 s, so everything "recovers"
/// at the paper's lag).
///
/// Quality index `i` maps to window `measure_from + i`; window `w`'s
/// publication deadline is `(w + 1) × window_duration` (stream starts at
/// `Time::ZERO` in every runtime).
pub fn partition_phases(
    quality: &[gossip_stream::NodeQuality],
    stream: &gossip_stream::StreamConfig,
    measure_from: u32,
    split_at: Duration,
    heal_at: Duration,
    lag: Duration,
) -> PartitionPhases {
    let wd = stream.window_duration();
    let published_at = |idx: usize| wd * (u64::from(measure_from) + idx as u64 + 1);
    let windows = quality.first().map_or(0, gossip_stream::NodeQuality::window_count);
    let phase_avg = |lo: Duration, hi: Duration| -> f64 {
        let in_phase: Vec<usize> =
            (0..windows).filter(|&i| published_at(i) >= lo && published_at(i) < hi).collect();
        if in_phase.is_empty() || quality.is_empty() {
            return f64::NAN;
        }
        let mut sum = 0.0;
        for q in quality {
            let viewed =
                in_phase.iter().filter(|&&i| q.window_lags()[i].is_some_and(|l| l <= lag)).count();
            sum += 100.0 * viewed as f64 / in_phase.len() as f64;
        }
        sum / quality.len() as f64
    };
    let reconverge_s = (0..windows)
        .filter(|&i| published_at(i) >= heal_at)
        .find(|&i| {
            let viewing =
                quality.iter().filter(|q| q.window_lags()[i].is_some_and(|l| l <= lag)).count();
            viewing as f64 >= 0.9 * quality.len() as f64
        })
        .map(|i| (published_at(i).saturating_sub(heal_at)).as_secs_f64());
    PartitionPhases {
        before_20s: phase_avg(Duration::ZERO, split_at),
        during_20s: phase_avg(split_at, heal_at),
        after_20s: phase_avg(heal_at, Duration::MAX),
        complete: {
            let mean: f64 =
                quality.iter().map(|q| 100.0 * q.complete_fraction()).sum::<f64>().max(0.0);
            if quality.is_empty() {
                f64::NAN
            } else {
                mean / quality.len() as f64
            }
        },
        reconverge_s,
    }
}

/// The [`partition_phases`] of a run whose fault window is the middle
/// third of its stream (the partition's and the throttle's), at
/// [`LAG_20S`]: before, during, after, complete and the re-convergence
/// delay (NaN if never).
pub fn measure_phases(cfg: &Scenario, result: &RunResult) -> Vec<f64> {
    let p = partition_phases(
        result.quality.nodes(),
        &cfg.stream,
        cfg.measure_from_window,
        cfg.stream_duration / 3,
        cfg.stream_duration * 2 / 3,
        LAG_20S,
    );
    vec![p.before_20s, p.during_20s, p.after_20s, p.complete, p.reconverge_s.unwrap_or(f64::NAN)]
}

/// Partition sweep: split the network into 2 or 3 cells for the middle
/// third of the stream. Quality craters during the split (only cell 0 has
/// the source) and must recover after the heal.
pub fn partition(scale: Scale, seed: u64) -> Grid {
    let cell = |cells| base_scenario(scale, seed, Some(1), partition_spec(scale, cells));
    Grid::new(
        &["cells"],
        PARTITION_CELLS.into_iter().map(|cells| row(cells, vec![cell(cells)])).collect(),
        measure_phases,
        Figure {
            id: "adv-partition",
            title: "viewing % by phase around a mid-stream partition (X=1)".to_string(),
            columns: Column::each(&[
                "before_20s",
                "during_20s",
                "after_20s",
                "complete",
                "reconv_s",
            ]),
            notes: vec![
                "split at t/3, heal at 2t/3; the source lands in cell 0".to_string(),
                "reconv_s: first post-heal window ≥90% of nodes view within 20 s".to_string(),
                "offline completeness recovers via re-requests once the split heals".to_string(),
            ],
        },
    )
}

/// Throttled fractions swept, in percent of the receivers.
pub const THROTTLE_PERCENTAGES: [u32; 3] = [0, 25, 50];

/// The throttle spec: `pct`% of the receivers capped to one third of the
/// scenario's upload cap for the middle third of the stream.
pub fn throttle_spec(scale: Scale, pct: u32, base_cap_bps: u64) -> AdversitySpec {
    if pct == 0 {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_throttle(
        partition_split_at(scale),
        partition_heal_at(scale),
        f64::from(pct) / 100.0,
        Some(base_cap_bps / 3),
    )
}

/// Time-varying bandwidth sweep: a growing share of the receivers drops to
/// a third of its upload cap for the middle third of the stream, then
/// recovers.
pub fn throttle(scale: Scale, seed: u64) -> Grid {
    let cell = |pct| {
        let cfg = base_scenario(scale, seed, Some(1), AdversitySpec::none());
        let base_cap = cfg.upload_cap_bps.expect("paper scenarios cap uploads");
        cfg.with_adversity(throttle_spec(scale, pct, base_cap))
    };
    Grid::new(
        &["throttled_pct"],
        THROTTLE_PERCENTAGES.into_iter().map(|pct| row(pct, vec![cell(pct)])).collect(),
        measure_phases,
        Figure {
            id: "adv-throttle",
            title: "viewing % while a receiver share is throttled to cap/3 mid-stream (X=1)"
                .to_string(),
            columns: Column::each(&["before_20s", "during_20s", "after_20s", "complete"]),
            notes: vec![
                "throttle window = the partition experiment's middle third, for comparability"
                    .to_string(),
                "shaped queues keep their release times; the cap changes from the next offer"
                    .to_string(),
            ],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use gossip_adversity::FaultAction;
    use gossip_types::{NodeId, Time};

    use crate::figures::churn::{self, catastrophic_spec};
    use crate::figures::churn_percentages;

    #[test]
    fn catastrophic_spec_matches_figure_7_8_shape() {
        // The paper's crash on this matrix's base scenario is a Figure 7/8
        // cell, so the figures' grid is the only one that runs it.
        let scale = Scale::Tiny;
        for pct in churn_percentages() {
            for x in [Some(1), None] {
                let ours = base_scenario(scale, 3, x, catastrophic_spec(scale, pct));
                let fig = churn::scenario(scale, 3, pct, x);
                assert_eq!(format!("{ours:?}"), format!("{fig:?}"), "{pct}% at X={x:?}");
            }
            let cell = churn::scenario(scale, 3, pct, Some(1));
            let compiled = cell.adversity.compile(cell.n, cell.seed);
            let dead = compiled.timeline.dead_at(Time::MAX);
            assert_eq!(dead.len(), (cell.n * pct as usize + 50) / 100, "round({pct}% of n)");
            assert!(!dead.contains(&NodeId::new(0)), "source must survive");
            let midpoint = Time::ZERO + scale.stream_duration() / 2;
            for e in compiled.timeline.events() {
                assert!(matches!(e.action, FaultAction::Crash(_)), "{pct}%: only crashes");
                assert_eq!(e.at, midpoint, "{pct}%: all victims crash at the midpoint");
            }
        }
    }

    #[test]
    fn poisson_churn_degrades_gracefully() {
        let cells = [0.0f64, 1.0].map(|rate| {
            let result =
                base_scenario(Scale::Tiny, 3, Some(1), poisson_spec(Scale::Tiny, rate)).run();
            result.quality.average_quality_percent(OFFLINE)
        });
        assert!(cells[0] > 90.0, "no churn baseline should stream: {cells:?}");
        assert!(cells[1] > 40.0, "1 leave/s of 20 nodes must not collapse: {cells:?}");
    }

    #[test]
    fn flash_crowd_joiners_catch_up() {
        // The wave alone, and arriving just after half the swarm crashed.
        let calm = flash_crowd_spec(Scale::Tiny, 25);
        let hurt = calm.clone().with_catastrophic(Scale::Tiny.stream_duration() * 2 / 5, 0.5);
        for (spec, name) in [(calm, "calm"), (hurt, "after a 50% crash")] {
            let result = base_scenario(Scale::Tiny, 3, Some(1), spec).run();
            let survivors = result.quality.average_quality_percent(OFFLINE);
            assert!(survivors >= 60.0, "{name}: survivors must keep streaming: {survivors:.1}%");
            let joiners = result.joiner_quality.expect("wave joined mid-stream");
            assert_eq!(joiners.nodes().len(), 5, "{name}: 25% of 20, the whole wave measured");
            let catch_up = joiners.average_quality_percent(OFFLINE);
            assert!(catch_up > 50.0, "{name}: joiners should catch up: {catch_up:.1}%");
        }
    }

    #[test]
    fn free_riders_still_receive_but_cost_the_contributors() {
        let spec = AdversitySpec::none().with_free_riders(0.25);
        let cfg = base_scenario(Scale::Tiny, 3, Some(1), spec.clone());
        let result = cfg.run();
        let compiled = spec.compile(cfg.n, cfg.seed);
        let riders = compiled.profiles.iter().filter(|p| p.free_rider).count();
        assert_eq!(riders, 5, "round(0.25 * 20)");
        // Riders propose nothing; the aggregate still streams.
        let avg = result.quality.average_quality_percent(OFFLINE);
        assert!(avg > 60.0, "25% riders must not collapse a tiny swarm: {avg:.1}%");
    }

    /// Indices into [`measure_byzantine`]'s values.
    const HONEST_COMPLETE: usize = 0;
    const DETECTED: usize = 2;
    const REREQUESTS: usize = 3;

    fn byzantine_cell(scale: Scale, seed: u64, pct: u32, defended: bool) -> Vec<f64> {
        let cfg = byzantine_scenario(scale, seed, pct, defended);
        measure_byzantine(&cfg, &cfg.run())
    }

    #[test]
    fn byzantine_defenses_hold_quality_and_count_corruptions() {
        let baseline = byzantine_cell(Scale::Tiny, 3, 0, true);
        let defended = byzantine_cell(Scale::Tiny, 3, 20, true);
        assert!(
            defended[HONEST_COMPLETE] >= baseline[HONEST_COMPLETE] - 15.0,
            "defended honest quality {:.1}% fell more than 15 points below baseline {:.1}%",
            defended[HONEST_COMPLETE],
            baseline[HONEST_COMPLETE]
        );
        assert!(defended[DETECTED] > 0.0, "20% corruptors must trip the checksum");
        assert!(defended[REREQUESTS] > 0.0, "detected corruptions must be re-requested");
    }

    #[test]
    fn disabling_verification_lets_corruption_through() {
        let defended = byzantine_cell(Scale::Tiny, 3, 20, true);
        let undefended = byzantine_cell(Scale::Tiny, 3, 20, false);
        assert_eq!(undefended[DETECTED], 0.0, "verification off ⇒ nothing detected");
        assert!(
            undefended[HONEST_COMPLETE] < defended[HONEST_COMPLETE] - 5.0,
            "without verification honest quality ({:.1}%) must measurably trail the \
             defended run ({:.1}%)",
            undefended[HONEST_COMPLETE],
            defended[HONEST_COMPLETE]
        );
    }

    #[test]
    fn partition_craters_quality_then_reconverges() {
        let cfg = base_scenario(Scale::Tiny, 3, Some(1), partition_spec(Scale::Tiny, 2));
        let result = cfg.run();
        let p = partition_phases(
            result.quality.nodes(),
            &cfg.stream,
            cfg.measure_from_window,
            partition_split_at(Scale::Tiny),
            partition_heal_at(Scale::Tiny),
            Duration::from_secs(4),
        );
        assert!(p.before_20s > 80.0, "pre-split viewing healthy: {p:?}");
        assert!(p.during_20s < p.before_20s - 20.0, "the split must crater live viewing: {p:?}");
        let reconv = p.reconverge_s.expect("the swarm re-converges after the heal");
        assert!(
            reconv <= partition_heal_at(Scale::Tiny).as_secs_f64(),
            "re-convergence within a bounded window of the heal: {reconv:.1}s"
        );
    }

    #[test]
    fn harsh_throttle_depresses_mid_stream_viewing_then_recovers() {
        // The figure's cap/3 is deliberately survivable (200 kbps uploads
        // still carry a 300 kbps stream at tiny scale), so the test uses a
        // decisive squeeze: 90% of the receivers down to 60 kbps.
        let spec = AdversitySpec::none().with_throttle(
            partition_split_at(Scale::Tiny),
            partition_heal_at(Scale::Tiny),
            0.9,
            Some(60_000),
        );
        let cfg = base_scenario(Scale::Tiny, 3, Some(1), spec);
        let result = cfg.run();
        let p = partition_phases(
            result.quality.nodes(),
            &cfg.stream,
            cfg.measure_from_window,
            partition_split_at(Scale::Tiny),
            partition_heal_at(Scale::Tiny),
            Duration::from_secs(4),
        );
        assert!(p.before_20s > 80.0, "pre-throttle viewing healthy: {p:?}");
        assert!(
            p.during_20s < p.before_20s - 20.0,
            "a 60 kbps squeeze must depress live viewing: {p:?}"
        );
        assert!(
            p.after_20s > p.during_20s,
            "restoring the caps must improve live viewing again: {p:?}"
        );
    }

    /// The composed stress scenario: continuous Poisson churn *and* a
    /// flash crowd in one spec. Returns the run's
    /// figures: (base complete %, joiner complete %, joiner count).
    fn run_composed(scale: Scale, seed: u64) -> (f64, f64, usize) {
        let spec = AdversitySpec::none()
            .with_poisson_churn(
                Duration::ZERO,
                scale.stream_duration(),
                0.5,
                Some(Duration::from_secs(8)),
            )
            .with_flash_crowd(
                scale.stream_duration() * 2 / 5,
                scale.nodes().div_ceil(4),
                Duration::from_secs(2),
            );
        let result = base_scenario(scale, seed, Some(1), spec).run();
        let joiners = result.joiner_quality.as_ref().expect("the wave joined in time");
        (
            result.quality.average_quality_percent(OFFLINE),
            joiners.average_quality_percent(OFFLINE),
            joiners.nodes().len(),
        )
    }

    #[test]
    fn composed_churn_and_crowd_runs_to_completion() {
        let (base, joiner, count) = run_composed(Scale::Tiny, 3);
        assert_eq!(count, 5);
        assert!(base >= 60.0, "the base population must keep streaming: {base:.1}%");
        assert!(joiner >= 40.0, "joiners must catch up on later windows: {joiner:.1}%");
    }
}
