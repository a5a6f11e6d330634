//! Figure 6 — percentage of nodes viewing the stream with at most 1 %
//! jitter as a function of the feed-me request rate `Y`.
//!
//! The explicit alternative to local refresh: every `Y` rounds a node asks
//! `f` random peers to adopt it. The paper's finding — this never beats the
//! plain `X = 1` refresh, because the extra messages are themselves subject
//! to congestion and loss.

use gossip_core::GossipConfig;

use crate::figures::fig5_refresh::experiment_fanout;
use crate::figures::{
    knob_label, proactiveness_sweep, quality, row, viewing_columns, Figure, Grid,
};
use crate::scenario::{Scale, Scenario};

/// One row per feed-me rate `Y` of [`proactiveness_sweep`], with `X = ∞`
/// so feed-me is the only source of view dynamism — the paper's setup for
/// this experiment.
pub fn grid(scale: Scale, seed: u64) -> Grid {
    let fanout = experiment_fanout(scale);
    let cell = |y| {
        let gossip = GossipConfig::new(fanout).with_refresh_rounds(None).with_feedme_rounds(y);
        Scenario::at_scale(scale, fanout).with_seed(seed).with_gossip(gossip)
    };
    Grid::new(
        &["Y"],
        proactiveness_sweep().into_iter().map(|y| row(knob_label(y), vec![cell(y)])).collect(),
        quality,
        Figure {
            id: "fig6",
            title: "% nodes viewing with <=1% jitter vs feed-me request rate Y".to_string(),
            columns: viewing_columns(),
            notes: vec![
                format!("fanout = {fanout}, X = inf, 700 kbps cap"),
                "expected: inferior to X=1 at every Y (compare against fig5's first row)"
                    .to_string(),
            ],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig5_refresh;
    use crate::figures::tests::execute_once;

    #[test]
    fn feedme_never_beats_x1_refresh() {
        let seed = 3;
        let x_fig = execute_once(fig5_refresh::grid, Scale::Tiny, seed);
        let x1 = x_fig.value("1", "20s_lag");
        let y_fig = execute_once(grid, Scale::Tiny, seed);
        let best_y = y_fig.column("20s_lag").into_iter().fold(0.0f64, f64::max);
        assert!(
            x1 + 1e-9 >= best_y - 15.0,
            "feed-me ({best_y}) should not decisively beat X=1 ({})",
            x1
        );
    }

    #[test]
    fn frequent_feedme_beats_fully_static() {
        let fig = execute_once(grid, Scale::Tiny, 3);
        let y1 = fig.value("1", "offline");
        let yinf = fig.value("inf", "offline");
        // Y=1 churns views constantly; Y=inf with X=inf is a frozen mesh.
        assert!(y1 + 25.0 >= yinf, "y1={:?} yinf={:?}", y1, yinf);
    }
}
