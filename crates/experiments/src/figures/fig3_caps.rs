//! Figure 3 — percentage of nodes viewing the stream with less than 1 %
//! jitter for upload caps of 1000 and 2000 kbps, across fanouts.
//!
//! With more headroom above the stream rate the optimal fanout window
//! widens and shifts right; at 2000 kbps even very large fanouts barely
//! hurt.

use crate::figures::{quality, row, Column, Figure, Grid, VIEW_10S, VIEW_OFF};
use crate::scenario::{Scale, Scenario};

/// The fanout sweep (the paper plots 10–150 at n = 230).
pub fn fanouts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![7, 10, 20, 30, 40, 50, 75, 100, 125, 150],
        Scale::Quick => vec![5, 8, 12, 16, 24, 32, 40, 50],
        Scale::Tiny => vec![4, 6, 10, 14, 18],
    }
}

/// The two caps compared, in kbps: one column group each.
pub const CAPS_KBPS: [u64; 2] = [1000, 2000];

/// One row per fanout, one column group per cap.
pub fn grid(scale: Scale, seed: u64) -> Grid {
    let cell = |fanout, kbps| {
        Scenario::at_scale(scale, fanout).with_seed(seed).with_upload_cap_kbps(Some(kbps))
    };
    Grid::new(
        &["fanout"],
        fanouts(scale)
            .into_iter()
            .map(|fanout| row(fanout, CAPS_KBPS.iter().map(|&kbps| cell(fanout, kbps)).collect()))
            .collect(),
        quality,
        Figure {
            id: "fig3",
            title: "% nodes viewing with <1% jitter, 1000/2000 kbps caps".to_string(),
            columns: CAPS_KBPS
                .iter()
                .enumerate()
                .flat_map(|(g, kbps)| {
                    [
                        Column::new(format!("off_{kbps}k"), g, VIEW_OFF),
                        Column::new(format!("10s_{kbps}k"), g, VIEW_10S),
                    ]
                })
                .collect(),
            notes: vec![
                "expected: the good-fanout region widens and moves right as headroom grows"
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
    fn more_headroom_never_hurts_much() {
        let fig = execute_once(grid, Scale::Tiny, 5);
        let (lag10_1000, lag10_2000) = (fig.column("10s_1000k"), fig.column("10s_2000k"));
        // Averaged across the sweep, the 2000 kbps series should dominate
        // the 1000 kbps series.
        let avg_1000: f64 = lag10_1000.iter().sum::<f64>() / lag10_1000.len() as f64;
        let avg_2000: f64 = lag10_2000.iter().sum::<f64>() / lag10_2000.len() as f64;
        assert!(avg_2000 + 5.0 >= avg_1000, "2000 kbps ({avg_2000}) vs 1000 kbps ({avg_1000})");
    }
}
