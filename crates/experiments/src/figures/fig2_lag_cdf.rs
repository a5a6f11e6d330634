//! Figure 2 — cumulative distribution of stream lag across nodes for
//! various fanouts (700 kbps cap).
//!
//! For each node the *stream lag* is the smallest lag at which it views at
//! least 99 % of the stream; the figure plots, for each probe lag `t`, the
//! percentage of nodes whose stream lag is at most `t`. Fanouts in the
//! optimal range show a sharp critical lag; oversized fanouts never
//! converge.

use gossip_types::Duration;

use crate::figures::{Column, Figure, Grid};
use crate::scenario::{Scale, Scenario};

/// Fanouts plotted by the paper at full scale, adapted per scale.
pub fn fanouts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![4, 5, 6, 7, 10, 20, 35, 40, 50],
        Scale::Quick => vec![3, 4, 6, 10, 18, 32],
        Scale::Tiny => vec![2, 4, 6, 10],
    }
}

/// Probe lags on the x-axis (paper: 0–150 s).
pub fn probe_lags() -> Vec<Duration> {
    (0..=30).map(|i| Duration::from_secs(i * 5)).collect()
}

/// A series grid: one CDF per fanout; rows are probe lags, columns
/// fanouts. Each run measures, per probe lag, the percentage of nodes
/// whose stream lag is at most the probe.
pub fn grid(scale: Scale, seed: u64) -> Grid {
    let fanouts = fanouts(scale);
    Grid {
        labels: vec!["lag_s"],
        rows: vec![(
            Vec::new(),
            fanouts.iter().map(|&f| Scenario::at_scale(scale, f).with_seed(seed)).collect(),
        )],
        measure: |_, result| {
            result.quality.lag_cdf(0.99, &probe_lags()).into_iter().map(|(_, pct)| pct).collect()
        },
        series: Some(|_, p| vec![probe_lags()[p].as_secs_f64().round().to_string()]),
        figures: vec![Figure {
            id: "fig2",
            title: "CDF of stream lag for various fanouts (700 kbps cap)".to_string(),
            columns: fanouts
                .iter()
                .enumerate()
                .map(|(g, f)| Column::new(format!("f{f}"), g, 0))
                .collect(),
            notes: vec![
                "cell = % of nodes viewing >=99% of the stream within the row's lag".to_string(),
                "expected: sharp critical lag near the optimal fanout; no convergence far above it"
                    .to_string(),
            ],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::execute_once;

    #[test]
    fn cdfs_are_monotone_in_lag() {
        let fig = execute_once(grid, Scale::Tiny, 3);
        for fanout in fanouts(Scale::Tiny) {
            let vals = fig.column(&format!("f{fanout}"));
            assert!(
                vals.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                "fanout {} CDF must be monotone: {vals:?}",
                fanout
            );
        }
    }

    #[test]
    fn good_fanout_converges_faster_than_too_small() {
        let fig = execute_once(grid, Scale::Tiny, 3);
        let at = |fanout: usize, idx: usize| fig.column(&format!("f{fanout}"))[idx];
        // At the last probe (150 s > total runtime = offline), fanout 6
        // should reach at least as many nodes as fanout 2.
        let last = probe_lags().len() - 1;
        assert!(at(6, last) >= at(2, last));
    }
}
