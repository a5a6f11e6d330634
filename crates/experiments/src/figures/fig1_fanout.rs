//! Figure 1 — percentage of nodes viewing the stream with less than 1 %
//! jitter as a function of the fanout, with upload capped at 700 kbps.
//!
//! The paper's headline result: a narrow optimal fanout range (7–15 at
//! n = 230) slightly above `ln n`, with degradation below (insufficient
//! dissemination) and collapse above (bandwidth contention). Three series:
//! offline viewing, 20 s lag, 10 s lag.

use crate::figures::{fanout_sweep, quality, row, viewing_columns, Figure, Grid};
use crate::scenario::{Scale, Scenario};

/// One row per fanout of [`fanout_sweep`].
pub fn grid(scale: Scale, seed: u64) -> Grid {
    Grid::new(
        &["fanout"],
        fanout_sweep(scale)
            .into_iter()
            .map(|fanout| row(fanout, vec![Scenario::at_scale(scale, fanout).with_seed(seed)]))
            .collect(),
        quality,
        Figure {
            id: "fig1",
            title: "% nodes viewing with <1% jitter vs fanout (700 kbps cap)".to_string(),
            columns: viewing_columns(),
            notes: vec![
                format!("n = {}, X = 1, Y = inf, 600 kbps stream", scale.nodes()),
                "expected shape: bell around ln(n)+c, collapse at high fanout".to_string(),
            ],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::execute_once;

    #[test]
    fn tiny_sweep_shows_the_bell_shape() {
        let fig = execute_once(grid, Scale::Tiny, 7);
        let (offline, lag20, lag10) =
            (fig.column("offline"), fig.column("20s_lag"), fig.column("10s_lag"));
        // The smallest fanout must be clearly worse than the best fanout.
        let best = offline.iter().copied().fold(0.0f64, f64::max);
        let first = *offline.first().unwrap();
        assert!(best > first, "optimum ({best}) should beat fanout=2 ({first})");
        // Quality at infinite lag dominates quality at 10 s.
        for (i, fanout) in fanout_sweep(Scale::Tiny).into_iter().enumerate() {
            assert!(offline[i] + 1e-9 >= lag20[i], "offline >= 20s at fanout {}", fanout);
            assert!(lag20[i] + 1e-9 >= lag10[i], "20s >= 10s at fanout {}", fanout);
        }
    }
}
