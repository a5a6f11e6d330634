//! Figures 7 and 8 — behaviour under catastrophic churn.
//!
//! At the stream's midpoint a random fraction (10–80 %) of the nodes crash
//! simultaneously. Figure 7 plots the percentage of *surviving* nodes that
//! still view the stream with less than 1 % jitter (i.e. remain effectively
//! unaware of the failure); Figure 8 plots the average percentage of
//! complete windows across survivors — showing that even nodes that do
//! notice only lose a few seconds of stream.
//!
//! Both figures come from the same runs (`X ∈ {1, 2, 20, ∞}`, `Y = ∞`), so
//! this module executes the sweep once and renders two tables.

use gossip_core::GossipConfig;
use gossip_metrics::Table;
use gossip_sim::DetRng;
use gossip_types::NodeId;

use crate::churn::catastrophic_crash;
use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{churn_percentages, knob_label, FigureOutput, LAG_20S, MAX_JITTER, OFFLINE};
use crate::scenario::{Scale, Scenario};

/// The `X` values compared by the paper.
pub fn x_values() -> Vec<Option<u32>> {
    vec![Some(1), Some(2), Some(20), None]
}

/// The outcome of one `(churn %, X)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Percentage of nodes failing.
    pub churn_pct: u32,
    /// The refresh rate (`None` = ∞).
    pub x: Option<u32>,
    /// Figure 7, 20 s lag series: % survivors with < 1 % jitter.
    pub pct_unaffected_lag20: f64,
    /// Figure 7, offline series.
    pub pct_unaffected_offline: f64,
    /// Figure 8: average % of complete windows across survivors (20 s lag).
    pub avg_complete_windows: f64,
}

/// Runs the full churn sweep (both figures' data). Every `(X, churn %)`
/// cell is an independent run, fanned across threads.
pub fn sweep(scale: Scale, seed: u64) -> Vec<Cell> {
    let mut params: Vec<(Option<u32>, u32)> = Vec::new();
    for x in x_values() {
        for pct in churn_percentages() {
            params.push((x, pct));
        }
    }
    crate::harness::SweepRunner::new().run(params, |&(x, pct)| {
        let fanout = experiment_fanout(scale);
        let mut churn_rng = DetRng::seed_from(seed).split(0xC0FFEE + pct as u64);
        let crash = catastrophic_crash(
            scale.stream_duration() / 2,
            scale.nodes(),
            pct as f64 / 100.0,
            &[NodeId::new(0)],
            &mut churn_rng,
        );
        let gossip = GossipConfig::new(fanout).with_refresh_rounds(x);
        let result = Scenario::at_scale(scale, fanout)
            .with_seed(seed)
            .with_gossip(gossip)
            .with_adversity(crash)
            .run();
        Cell {
            churn_pct: pct,
            x,
            pct_unaffected_lag20: result.quality.percent_viewing(MAX_JITTER, LAG_20S),
            pct_unaffected_offline: result.quality.percent_viewing(MAX_JITTER, OFFLINE),
            avg_complete_windows: result.quality.average_quality_percent(LAG_20S),
        }
    })
}

/// Runs the churn sweep `trials` times with derived seeds and averages
/// every cell — the paper notes that large-`X` churn outcomes "show very
/// high degrees of variability from experiment to experiment", so averaged
/// numbers are the honest ones to report.
pub fn sweep_trials(scale: Scale, seed: u64, trials: u32) -> Vec<Cell> {
    assert!(trials >= 1, "at least one trial");
    let mut acc: Vec<Cell> = sweep(scale, seed);
    for t in 1..trials {
        for (a, b) in acc.iter_mut().zip(sweep(scale, seed.wrapping_add(u64::from(t) * 7919))) {
            debug_assert_eq!((a.churn_pct, a.x), (b.churn_pct, b.x));
            a.pct_unaffected_lag20 += b.pct_unaffected_lag20;
            a.pct_unaffected_offline += b.pct_unaffected_offline;
            a.avg_complete_windows += b.avg_complete_windows;
        }
    }
    let n = f64::from(trials);
    for c in &mut acc {
        c.pct_unaffected_lag20 /= n;
        c.pct_unaffected_offline /= n;
        c.avg_complete_windows /= n;
    }
    acc
}

fn cell(cells: &[Cell], pct: u32, x: Option<u32>) -> &Cell {
    cells
        .iter()
        .find(|c| c.churn_pct == pct && c.x == x)
        .expect("sweep covers every (pct, X) combination")
}

/// Renders Figure 7 from sweep data.
pub fn fig7_output(cells: &[Cell]) -> FigureOutput {
    let mut header = vec!["fail_pct".to_string()];
    for x in x_values() {
        header.push(format!("20s_X{}", knob_label(x)));
        header.push(format!("off_X{}", knob_label(x)));
    }
    let mut table = Table::new(header);
    for pct in churn_percentages() {
        let mut values = Vec::new();
        for x in x_values() {
            let c = cell(cells, pct, x);
            values.push(c.pct_unaffected_lag20);
            values.push(c.pct_unaffected_offline);
        }
        table.row_f64(pct.to_string(), &values);
    }
    FigureOutput {
        id: "fig7",
        title: "% surviving nodes with <1% jitter vs % nodes failing".to_string(),
        table,
        notes: vec![
            "crash at the stream midpoint; source protected".to_string(),
            "expected: X=1 degrades gracefully; X=inf collapses or varies wildly".to_string(),
        ],
    }
}

/// Renders Figure 8 from sweep data.
pub fn fig8_output(cells: &[Cell]) -> FigureOutput {
    let mut header = vec!["fail_pct".to_string()];
    header.extend(x_values().into_iter().map(|x| format!("X{}", knob_label(x))));
    let mut table = Table::new(header);
    for pct in churn_percentages() {
        let values: Vec<f64> =
            x_values().into_iter().map(|x| cell(cells, pct, x).avg_complete_windows).collect();
        table.row_f64(pct.to_string(), &values);
    }
    FigureOutput {
        id: "fig8",
        title: "average % of complete windows for surviving nodes (20 s lag)".to_string(),
        table,
        notes: vec!["expected: X=1 stays >90% for churn below 80%".to_string()],
    }
}

/// Runs figure 7 (executing the shared sweep).
pub fn run_fig7(scale: Scale, seed: u64) -> FigureOutput {
    fig7_output(&sweep(scale, seed))
}

/// Runs figure 8 (executing the shared sweep).
pub fn run_fig8(scale: Scale, seed: u64) -> FigureOutput {
    fig8_output(&sweep(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x1_keeps_most_windows_under_heavy_churn() {
        // At n = 20 the *ordering* of X values is dominated by topology
        // luck (the paper itself reports wild run-to-run variability for
        // large X); what is robust — and what Figure 8 shows — is that a
        // fully dynamic view keeps delivering most windows through heavy
        // churn. The X ordering is asserted at larger scale in the
        // integration suite.
        let cells = sweep(Scale::Tiny, 3);
        for pct in [10, 20, 35, 50] {
            let c = cell(&cells, pct, Some(1));
            assert!(
                c.avg_complete_windows > 70.0,
                "X=1 at {pct}% churn should keep most windows: {c:?}"
            );
        }
    }

    #[test]
    fn trials_average_matches_single_run_for_one_trial() {
        let one = sweep_trials(Scale::Tiny, 3, 1);
        let plain = sweep(Scale::Tiny, 3);
        assert_eq!(one, plain);
    }

    #[test]
    fn zero_churn_cells_match_no_churn_quality() {
        let cells = sweep(Scale::Tiny, 3);
        let c = cell(&cells, 0, Some(1));
        assert!(c.avg_complete_windows > 90.0, "baseline should mostly work: {c:?}");
    }

    #[test]
    fn quality_degrades_with_extreme_churn() {
        let cells = sweep(Scale::Tiny, 3);
        let none = cell(&cells, 0, Some(1));
        let extreme = cell(&cells, 80, Some(1));
        assert!(
            extreme.avg_complete_windows <= none.avg_complete_windows + 1e-9,
            "80% churn cannot beat no churn: {extreme:?} vs {none:?}"
        );
    }
}
