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
//! this module declares one grid that renders two tables. The paper notes
//! that large-`X` churn outcomes "show very high degrees of variability
//! from experiment to experiment"; `repro --trials N` averages them.

use gossip_adversity::AdversitySpec;
use gossip_core::GossipConfig;

use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{
    churn_percentages, knob_label, quality, row, Column, Figure, Grid, COMPLETE_20S, VIEW_20S,
    VIEW_OFF,
};
use crate::scenario::{Scale, Scenario};

/// The `X` values compared by the paper.
pub fn x_values() -> Vec<Option<u32>> {
    vec![Some(1), Some(2), Some(20), None]
}

/// The paper's catastrophic failure as a spec: `pct`% of the nodes crash
/// at the stream midpoint (the `[catastrophic]` rule: `round(pct% · n)`
/// victims drawn by the spec compiler among the live receivers, never the
/// source). 0 % is [`AdversitySpec::none`].
pub fn catastrophic_spec(scale: Scale, pct: u32) -> AdversitySpec {
    if pct == 0 {
        return AdversitySpec::none();
    }
    AdversitySpec::none().with_catastrophic(scale.stream_duration() / 2, f64::from(pct) / 100.0)
}

/// The cell of `(churn %, X)`: [`catastrophic_spec`] under refresh rate `X`.
pub fn scenario(scale: Scale, seed: u64, pct: u32, x: Option<u32>) -> Scenario {
    let fanout = experiment_fanout(scale);
    let gossip = GossipConfig::new(fanout).with_refresh_rounds(x);
    Scenario::at_scale(scale, fanout)
        .with_seed(seed)
        .with_gossip(gossip)
        .with_adversity(catastrophic_spec(scale, pct))
}

/// One row per churn percentage, one column group per `X`; renders
/// Figures 7 and 8: % survivors with < 1 % jitter (at 20 s lag and
/// offline), and the average % of complete windows across survivors.
pub fn grid(scale: Scale, seed: u64) -> Grid {
    let xs = x_values();
    let fig7_columns = xs.iter().enumerate().flat_map(|(g, &x)| {
        [
            Column::new(format!("20s_X{}", knob_label(x)), g, VIEW_20S),
            Column::new(format!("off_X{}", knob_label(x)), g, VIEW_OFF),
        ]
    });
    Grid {
        labels: vec!["fail_pct"],
        rows: churn_percentages()
            .into_iter()
            .map(|pct| row(pct, xs.iter().map(|&x| scenario(scale, seed, pct, x)).collect()))
            .collect(),
        measure: quality,
        series: None,
        figures: vec![
            Figure {
                id: "fig7",
                title: "% surviving nodes with <1% jitter vs % nodes failing".to_string(),
                columns: fig7_columns.collect(),
                notes: vec![
                    "crash at the stream midpoint; source protected".to_string(),
                    "expected: X=1 degrades gracefully; X=inf collapses or varies wildly"
                        .to_string(),
                ],
            },
            Figure {
                id: "fig8",
                title: "average % of complete windows for surviving nodes (20 s lag)".to_string(),
                columns: xs
                    .iter()
                    .enumerate()
                    .map(|(g, &x)| Column::new(format!("X{}", knob_label(x)), g, COMPLETE_20S))
                    .collect(),
                notes: vec!["expected: X=1 stays >90% for churn below 80%".to_string()],
            },
        ],
    }
}

/// The churn grid rendering only its figure `I`: 0 is Figure 7, 1 is
/// Figure 8.
pub fn only<const I: usize>(scale: Scale, seed: u64) -> Grid {
    let mut grid = grid(scale, seed);
    grid.figures = vec![grid.figures.swap_remove(I)];
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::execute_once;

    #[test]
    fn x1_keeps_most_windows_under_heavy_churn() {
        // At n = 20 the *ordering* of X values is dominated by topology
        // luck (the paper itself reports wild run-to-run variability for
        // large X); what is robust — and what Figure 8 shows — is that a
        // fully dynamic view keeps delivering most windows through heavy
        // churn. The X ordering is asserted at larger scale in the
        // integration suite.
        let cells = execute_once(grid, Scale::Tiny, 3);
        for pct in [10, 20, 35, 50] {
            let c = cells.value(&pct.to_string(), "X1");
            assert!(c > 70.0, "X=1 at {pct}% churn should keep most windows: {c:?}");
        }
    }

    #[test]
    fn trials_average_matches_single_run_for_one_trial() {
        let measured = execute_once(grid, Scale::Tiny, 3);
        for out in measured.render() {
            assert_eq!(out.table.len(), churn_percentages().len(), "{}", out.figure.id);
        }
        let one = measured.rows();
        let g = grid(Scale::Tiny, 3);
        let plain: Vec<(Vec<String>, Vec<Vec<f64>>)> = g
            .rows
            .iter()
            .map(|(labels, cells)| {
                (labels.clone(), cells.iter().map(|s| (g.measure)(s, &s.run())).collect())
            })
            .collect();
        assert_eq!(one, plain);
    }

    #[test]
    fn zero_churn_cells_match_no_churn_quality() {
        let cells = execute_once(grid, Scale::Tiny, 3);
        let c = cells.value("0", "X1");
        assert!(c > 90.0, "baseline should mostly work: {c:?}");
    }

    #[test]
    fn quality_degrades_with_extreme_churn() {
        let cells = execute_once(grid, Scale::Tiny, 3);
        let none = cells.value("0", "X1");
        let extreme = cells.value("80", "X1");
        assert!(extreme <= none + 1e-9, "80% churn cannot beat no churn: {extreme:?} vs {none:?}");
    }
}
