//! The adversity matrix — stress scenarios beyond the paper's Figures 7–8,
//! all driven by one declarative [`AdversitySpec`].
//!
//! Four sweeps, each an independent experiment family:
//!
//! * **catastrophic** — the paper's simultaneous-crash scenario (Figures
//!   7/8) expressed as a spec: crash fraction × refresh rate `X ∈ {1, ∞}`;
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
//!   measuring quality through the split and re-convergence after.
//!
//! Every `(knob, value)` cell is an independent simulation, fanned across
//! threads by [`crate::harness::SweepRunner`]. The same specs run
//! unchanged on the live runtimes (see `tests/reactor_runtime.rs` for the
//! sim-vs-reactor parity check).

use gossip_adversity::{AdversitySpec, ByzantineMix};
use gossip_core::GossipConfig;
use gossip_metrics::Table;
use gossip_types::Duration;

use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{churn_percentages, knob_label, FigureOutput, LAG_20S, MAX_JITTER, OFFLINE};
use crate::scenario::{Scale, Scenario};

/// Builds the scenario every adversity cell starts from: the experiment
/// fanout for the scale, `X = x` partner refresh, and the given spec.
fn base_scenario(scale: Scale, seed: u64, x: Option<u32>, spec: AdversitySpec) -> Scenario {
    let fanout = experiment_fanout(scale);
    Scenario::at_scale(scale, fanout)
        .with_seed(seed)
        .with_gossip(GossipConfig::new(fanout).with_refresh_rounds(x))
        .with_adversity(spec)
}

/// The paper's catastrophic scenario as a spec: `fraction` of the nodes
/// crash at the stream midpoint.
pub fn catastrophic_spec(scale: Scale, pct: u32) -> AdversitySpec {
    if pct == 0 {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_catastrophic(scale.stream_duration() / 2, f64::from(pct) / 100.0)
}

/// Catastrophic crash sweep (crash % × `X ∈ {1, ∞}`): Figure 7/8 with the
/// victims drawn by the spec compiler instead of
/// [`catastrophic_crash`](crate::churn::catastrophic_crash).
pub fn run_catastrophic(scale: Scale, seed: u64) -> FigureOutput {
    let x_values: Vec<Option<u32>> = vec![Some(1), None];
    let mut params: Vec<(Option<u32>, u32)> = Vec::new();
    for &x in &x_values {
        for pct in churn_percentages() {
            params.push((x, pct));
        }
    }
    let cells = crate::harness::SweepRunner::new().run(params.clone(), |&(x, pct)| {
        let result = base_scenario(scale, seed, x, catastrophic_spec(scale, pct)).run();
        (
            result.quality.percent_viewing(MAX_JITTER, LAG_20S),
            result.quality.average_quality_percent(LAG_20S),
        )
    });

    let mut header = vec!["fail_pct".to_string()];
    for &x in &x_values {
        header.push(format!("view_X{}", knob_label(x)));
        header.push(format!("complete_X{}", knob_label(x)));
    }
    let mut table = Table::new(header);
    for pct in churn_percentages() {
        let mut values = Vec::new();
        for &x in &x_values {
            let i = params.iter().position(|&p| p == (x, pct)).expect("swept");
            values.push(cells[i].0);
            values.push(cells[i].1);
        }
        table.row_f64(pct.to_string(), &values);
    }
    FigureOutput {
        id: "adv-catastrophic",
        title: "survivor viewing % and complete windows vs crash fraction (AdversitySpec)"
            .to_string(),
        table,
        notes: vec![
            "one spec, compiled per seed; same spec runs on the live runtimes".to_string(),
            "expected: matches fig7/fig8 (X=1 degrades gracefully to 80% churn)".to_string(),
        ],
    }
}

/// Departure rates swept by the Poisson-churn experiment, in mean
/// departures per second over the whole population.
pub fn poisson_rates() -> Vec<f64> {
    vec![0.0, 0.2, 0.5, 1.0, 2.0]
}

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
pub fn run_poisson(scale: Scale, seed: u64) -> FigureOutput {
    let cells = crate::harness::SweepRunner::new().run(poisson_rates(), |&rate| {
        let result = base_scenario(scale, seed, Some(1), poisson_spec(scale, rate)).run();
        (
            result.quality.average_quality_percent(OFFLINE),
            result.quality.average_quality_percent(LAG_20S),
            result.quality.nodes().len(),
        )
    });
    let mut table = Table::new(vec!["leaves_per_sec", "complete_off", "complete_20s", "nodes_up"]);
    for (rate, (off, lag, up)) in poisson_rates().into_iter().zip(cells) {
        table.row_f64(format!("{rate:.1}"), &[off, lag, up as f64]);
    }
    FigureOutput {
        id: "adv-poisson",
        title: "quality under continuous leave/rejoin churn (X=1, 10 s mean downtime)".to_string(),
        table,
        notes: vec!["rejoining nodes restart with fresh protocol state; player history survives"
            .to_string()],
    }
}

/// Join-wave sizes swept by the flash-crowd experiment, as a percentage of
/// the base population.
pub fn crowd_percentages() -> Vec<u32> {
    vec![10, 25, 50]
}

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
pub fn run_flash_crowd(scale: Scale, seed: u64) -> FigureOutput {
    let cells = crate::harness::SweepRunner::new().run(crowd_percentages(), |&pct| {
        let result = base_scenario(scale, seed, Some(1), flash_crowd_spec(scale, pct)).run();
        let joiners = result.joiner_quality.as_ref().expect("the wave joined in time");
        (
            result.quality.average_quality_percent(OFFLINE),
            joiners.average_quality_percent(OFFLINE),
            joiners.average_quality_percent(LAG_20S),
            joiners.nodes().len(),
        )
    });
    let mut table =
        Table::new(vec!["crowd_pct", "base_complete", "joiner_complete", "joiner_20s", "joiners"]);
    for (pct, (base, j_off, j_lag, count)) in crowd_percentages().into_iter().zip(cells) {
        table.row_f64(pct.to_string(), &[base, j_off, j_lag, count as f64]);
    }
    FigureOutput {
        id: "adv-flash-crowd",
        title: "mid-stream join wave: base quality and joiner catch-up (X=1)".to_string(),
        table,
        notes: vec!["joiners measured only over windows published after their arrival".to_string()],
    }
}

/// Free-rider fractions swept, in percent of the population.
pub fn free_rider_percentages() -> Vec<u32> {
    vec![0, 10, 25, 40]
}

/// Free-rider sweep: contributors keep proposing and serving while a
/// growing fraction only takes. Reports both subpopulations' quality and
/// the contributors' upload bill.
pub fn run_free_riders(scale: Scale, seed: u64) -> FigureOutput {
    let cells = crate::harness::SweepRunner::new().run(free_rider_percentages(), |&pct| {
        let spec = if pct == 0 {
            AdversitySpec::none()
        } else {
            AdversitySpec::none().with_free_riders(f64::from(pct) / 100.0)
        };
        let cfg = base_scenario(scale, seed, Some(1), spec.clone());
        let result = cfg.run();
        // No crashes in this sweep, so quality index i is node i + 1;
        // recompiling the spec (deterministic) recovers who free-rides.
        let compiled = spec.compile(cfg.n, cfg.seed);
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
        (
            if contrib_n > 0 { contrib / f64::from(contrib_n) } else { 0.0 },
            if rider_n > 0 { rider / f64::from(rider_n) } else { f64::NAN },
            avg_upload,
        )
    });
    let mut table =
        Table::new(vec!["rider_pct", "contributor_complete", "rider_complete", "avg_upload_kbps"]);
    for (pct, (contrib, rider, upload)) in free_rider_percentages().into_iter().zip(cells) {
        table.row_f64(pct.to_string(), &[contrib, rider, upload]);
    }
    FigureOutput {
        id: "adv-free-riders",
        title: "stream quality vs free-rider fraction (X=1)".to_string(),
        table,
        notes: vec![
            "free-riders request and receive but never propose or serve".to_string(),
            "rider_complete is NaN at 0% (no riders to measure)".to_string(),
        ],
    }
}

/// Byzantine fractions swept, in percent of the population.
pub fn byzantine_percentages() -> Vec<u32> {
    vec![0, 10, 20, 30]
}

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

/// One Byzantine cell: honest-receiver quality plus the defense counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineCell {
    /// Average % of windows honest receivers ever complete (offline).
    pub honest_complete: f64,
    /// Average % of windows honest receivers complete within 20 s.
    pub honest_20s: f64,
    /// Corrupted Serve events caught by the payload checksum.
    pub detected: u64,
    /// Packets re-requested from an alternate proposer after a corruption.
    pub rerequests: u64,
    /// Peers demoted out of partner selection for repeat misbehaviour.
    pub demoted: u64,
}

/// Runs one Byzantine cell: `pct`% serve-corruptors, defenses on or off.
pub fn byzantine_cell(scale: Scale, seed: u64, pct: u32, defended: bool) -> ByzantineCell {
    let spec = byzantine_spec(pct);
    let cfg = base_scenario(scale, seed, Some(1), spec.clone())
        .with_gossip(byzantine_gossip(scale, defended));
    let result = cfg.run();
    // No crashes in this sweep, so quality index i is node i + 1;
    // recompiling the spec (deterministic) recovers who is Byzantine.
    let compiled = spec.compile(cfg.n, cfg.seed);
    let (mut complete, mut within_20s, mut honest_n) = (0.0, 0.0, 0u32);
    for (i, q) in result.quality.nodes().iter().enumerate() {
        if compiled.profiles[i + 1].byzantine.is_none() {
            complete += 100.0 * q.complete_fraction();
            within_20s += 100.0 * q.quality_at_lag(LAG_20S);
            honest_n += 1;
        }
    }
    ByzantineCell {
        honest_complete: complete / f64::from(honest_n.max(1)),
        honest_20s: within_20s / f64::from(honest_n.max(1)),
        detected: result.protocol.corrupted_events_detected,
        rerequests: result.protocol.corrupt_rerequests,
        demoted: result.protocol.peers_demoted,
    }
}

/// Byzantine sweep: serve-corruptor fraction × validate-before-relay on or
/// off. The defended column should track the fault-free baseline; the
/// undefended column shows what poisoned payloads do to honest receivers
/// when nothing checks them.
pub fn run_byzantine(scale: Scale, seed: u64) -> FigureOutput {
    let mut params: Vec<(u32, bool)> = Vec::new();
    for pct in byzantine_percentages() {
        for defended in [true, false] {
            params.push((pct, defended));
        }
    }
    let cells = crate::harness::SweepRunner::new()
        .run(params.clone(), |&(pct, defended)| byzantine_cell(scale, seed, pct, defended));
    let mut table = Table::new(vec![
        "byz_pct",
        "honest_def_on",
        "honest_def_off",
        "honest20s_on",
        "honest20s_off",
        "detected",
        "rerequests",
        "demoted",
    ]);
    for pct in byzantine_percentages() {
        let on = params.iter().position(|&p| p == (pct, true)).expect("swept");
        let off = params.iter().position(|&p| p == (pct, false)).expect("swept");
        table.row_f64(
            pct.to_string(),
            &[
                cells[on].honest_complete,
                cells[off].honest_complete,
                cells[on].honest_20s,
                cells[off].honest_20s,
                cells[on].detected as f64,
                cells[on].rerequests as f64,
                cells[on].demoted as f64,
            ],
        );
    }
    FigureOutput {
        id: "adv-byzantine",
        title: "honest-receiver quality vs serve-corruptor fraction, defenses on/off (X=1)"
            .to_string(),
        table,
        notes: vec![
            "corruptors flip payload bytes on every Serve but keep the stale checksum".to_string(),
            "defended: verify-payloads + re-request + demotion; undefended: checksum ignored"
                .to_string(),
            "counters (detected/rerequests/demoted) are from the defended run".to_string(),
        ],
    }
}

/// Cell counts swept by the partition experiment.
pub fn partition_cells() -> Vec<usize> {
    vec![2, 3]
}

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

/// Partition sweep: split the network into 2 or 3 cells for the middle
/// third of the stream. Quality craters during the split (only cell 0 has
/// the source) and must recover after the heal.
pub fn run_partition(scale: Scale, seed: u64) -> FigureOutput {
    let cells = crate::harness::SweepRunner::new().run(partition_cells(), |&cells| {
        let cfg = base_scenario(scale, seed, Some(1), partition_spec(scale, cells));
        let result = cfg.run();
        partition_phases(
            result.quality.nodes(),
            &cfg.stream,
            cfg.measure_from_window,
            partition_split_at(scale),
            partition_heal_at(scale),
            LAG_20S,
        )
    });
    let mut table =
        Table::new(vec!["cells", "before_20s", "during_20s", "after_20s", "complete", "reconv_s"]);
    for (n_cells, p) in partition_cells().into_iter().zip(cells) {
        table.row_f64(
            n_cells.to_string(),
            &[
                p.before_20s,
                p.during_20s,
                p.after_20s,
                p.complete,
                p.reconverge_s.unwrap_or(f64::NAN),
            ],
        );
    }
    FigureOutput {
        id: "adv-partition",
        title: "viewing % by phase around a mid-stream partition (X=1)".to_string(),
        table,
        notes: vec![
            "split at t/3, heal at 2t/3; the source lands in cell 0".to_string(),
            "reconv_s: first post-heal window ≥90% of nodes view within 20 s".to_string(),
            "offline completeness recovers via re-requests once the split heals".to_string(),
        ],
    }
}

/// Throttled fractions swept, in percent of the receivers.
pub fn throttle_percentages() -> Vec<u32> {
    vec![0, 25, 50]
}

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
pub fn run_throttle(scale: Scale, seed: u64) -> FigureOutput {
    let cells = crate::harness::SweepRunner::new().run(throttle_percentages(), |&pct| {
        let cfg = base_scenario(scale, seed, Some(1), AdversitySpec::none());
        let base_cap = cfg.upload_cap_bps.expect("paper scenarios cap uploads");
        let cfg = cfg.with_adversity(throttle_spec(scale, pct, base_cap));
        let result = cfg.run();
        partition_phases(
            result.quality.nodes(),
            &cfg.stream,
            cfg.measure_from_window,
            partition_split_at(scale),
            partition_heal_at(scale),
            LAG_20S,
        )
    });
    let mut table =
        Table::new(vec!["throttled_pct", "before_20s", "during_20s", "after_20s", "complete"]);
    for (pct, p) in throttle_percentages().into_iter().zip(cells) {
        table.row_f64(pct.to_string(), &[p.before_20s, p.during_20s, p.after_20s, p.complete]);
    }
    FigureOutput {
        id: "adv-throttle",
        title: "viewing % while a receiver share is throttled to cap/3 mid-stream (X=1)"
            .to_string(),
        table,
        notes: vec![
            "throttle window = the partition experiment's middle third, for comparability"
                .to_string(),
            "shaped queues keep their release times; the cap changes from the next offer"
                .to_string(),
        ],
    }
}

/// The composed stress scenario of the acceptance criteria: continuous
/// Poisson churn *and* a flash crowd in one spec. Returns the run's
/// figures: (base complete %, joiner complete %, joiner count).
pub fn run_composed(scale: Scale, seed: u64) -> (f64, f64, usize) {
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

/// Runs the whole matrix (all seven sweeps).
pub fn run_all(scale: Scale, seed: u64) -> Vec<FigureOutput> {
    vec![
        run_catastrophic(scale, seed),
        run_poisson(scale, seed),
        run_flash_crowd(scale, seed),
        run_free_riders(scale, seed),
        run_byzantine(scale, seed),
        run_partition(scale, seed),
        run_throttle(scale, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catastrophic_spec_matches_figure_7_8_shape() {
        let out = run_catastrophic(Scale::Tiny, 3);
        assert_eq!(out.table.len(), churn_percentages().len());
    }

    #[test]
    fn poisson_churn_degrades_gracefully() {
        let cells = crate::harness::SweepRunner::new().run(vec![0.0f64, 1.0], |&rate| {
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

    #[test]
    fn byzantine_defenses_hold_quality_and_count_corruptions() {
        let baseline = byzantine_cell(Scale::Tiny, 3, 0, true);
        let defended = byzantine_cell(Scale::Tiny, 3, 20, true);
        assert!(
            defended.honest_complete >= baseline.honest_complete - 15.0,
            "defended honest quality {:.1}% fell more than 15 points below baseline {:.1}%",
            defended.honest_complete,
            baseline.honest_complete
        );
        assert!(defended.detected > 0, "20% corruptors must trip the checksum");
        assert!(defended.rerequests > 0, "detected corruptions must be re-requested");
    }

    #[test]
    fn disabling_verification_lets_corruption_through() {
        let defended = byzantine_cell(Scale::Tiny, 3, 20, true);
        let undefended = byzantine_cell(Scale::Tiny, 3, 20, false);
        assert_eq!(undefended.detected, 0, "verification off ⇒ nothing detected");
        assert!(
            undefended.honest_complete < defended.honest_complete - 5.0,
            "without verification honest quality ({:.1}%) must measurably trail the \
             defended run ({:.1}%)",
            undefended.honest_complete,
            defended.honest_complete
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

    #[test]
    fn composed_churn_and_crowd_runs_to_completion() {
        let (base, joiner, count) = run_composed(Scale::Tiny, 3);
        assert_eq!(count, 5);
        assert!(base >= 60.0, "the base population must keep streaming: {base:.1}%");
        assert!(joiner >= 40.0, "joiners must catch up on later windows: {joiner:.1}%");
    }
}
