//! Figure 4 — distribution of bandwidth usage among nodes, sorted from the
//! most to the least contributing, for several fanout/cap combinations.
//!
//! The paper's observation: despite a homogeneous cap, utilisation is
//! heterogeneous — and the heterogeneity *grows* with available bandwidth,
//! because under tight caps the good (low-latency) nodes saturate, their
//! proposals slow down, and the load spreads out.

use crate::figures::{Column, Figure, Grid};
use crate::harness::RunResult;
use crate::scenario::{Scale, Scenario};

/// The five scenarios plotted by the paper: `(fanout, cap kbps)`.
pub fn combos(scale: Scale) -> Vec<(usize, u64)> {
    match scale {
        Scale::Full => vec![(7, 700), (50, 700), (50, 1000), (50, 2000), (100, 2000)],
        Scale::Quick => vec![(6, 700), (24, 700), (24, 1000), (24, 2000), (40, 2000)],
        Scale::Tiny => vec![(4, 600), (10, 600), (10, 1200)],
    }
}

/// The node-rank percentiles plotted: 0 (busiest), 5, …, 100.
const RANK_STEP_PCT: usize = 5;

/// Per-node upload kbit/s sorted descending, read at every plotted rank
/// percentile.
pub fn ranked_upload(_: &Scenario, result: &RunResult) -> Vec<f64> {
    let sorted = result.sorted_upload_kbps();
    let n = sorted.len();
    (0..=100)
        .step_by(RANK_STEP_PCT)
        .map(|pct| sorted[((pct as f64 / 100.0) * (n - 1) as f64).round() as usize])
        .collect()
}

/// A series grid: one ranking per combination; rows are node-rank
/// percentiles, columns the combinations.
pub fn grid(scale: Scale, seed: u64) -> Grid {
    let combos = combos(scale);
    let cell = |&(fanout, kbps): &(usize, u64)| {
        Scenario::at_scale(scale, fanout).with_seed(seed).with_upload_cap_kbps(Some(kbps))
    };
    Grid {
        labels: vec!["rank_pct"],
        rows: vec![(Vec::new(), combos.iter().map(cell).collect())],
        measure: ranked_upload,
        series: Some(|_, p| vec![(p * RANK_STEP_PCT).to_string()]),
        figures: vec![Figure {
            id: "fig4",
            title: "per-node upload usage (kbps), nodes sorted by contribution".to_string(),
            columns: combos
                .iter()
                .enumerate()
                .map(|(g, (fanout, kbps))| Column::new(format!("f{fanout}_{kbps}k"), g, 0))
                .collect(),
            notes: vec![
                "row = node rank percentile (0 = busiest node)".to_string(),
                "expected: near-flat at 700 kbps, increasingly skewed at 1000/2000 kbps"
                    .to_string(),
            ],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::execute_once;

    /// The ratio between the 10th-percentile-busiest and the
    /// 90th-percentile-busiest node of a descending series — a scalar measure
    /// of heterogeneity.
    fn heterogeneity(sorted_kbps: &[f64]) -> f64 {
        if sorted_kbps.is_empty() {
            return 1.0;
        }
        let n = sorted_kbps.len();
        let hi = sorted_kbps[n / 10];
        let lo = sorted_kbps[n - 1 - n / 10].max(1e-6);
        hi / lo
    }

    #[test]
    fn series_are_sorted_and_capped() {
        let fig = execute_once(grid, Scale::Tiny, 3);
        for (fanout, cap_kbps) in combos(Scale::Tiny) {
            let sorted_kbps = fig.column(&format!("f{fanout}_{cap_kbps}k"));
            assert!(sorted_kbps.windows(2).all(|w| w[0] >= w[1]), "sorted descending");
            // Long-run average can never exceed the cap (plus a little
            // start-of-run slack from the final in-flight message).
            let max = sorted_kbps.first().copied().unwrap_or(0.0);
            assert!(max <= cap_kbps as f64 * 1.05, "{max} kbps exceeds the {}k cap", cap_kbps);
        }
    }

    #[test]
    fn heterogeneity_is_finite() {
        let fig = execute_once(grid, Scale::Tiny, 3);
        for (fanout, cap_kbps) in combos(Scale::Tiny) {
            let s = fig.column(&format!("f{fanout}_{cap_kbps}k"));
            assert!(heterogeneity(&s).is_finite());
            assert!(heterogeneity(&s) >= 1.0);
        }
    }
}
